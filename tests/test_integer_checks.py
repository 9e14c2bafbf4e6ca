"""The integer incentive, best-response and income checks, the
distribution check, the coupling system's incentive rows and the
read-back of its multipliers against their Fraction references in
`fraction_checks`.

Games have 1 to 3 players and payoff denominators up to 2**21;
probability rows have denominators up to 2**21 and zero entries, and a
duplicated action (`duplicate_action`) makes exact ties. Joint
distributions come from both arms: a `random_ce` vertex, which passes
every incentive inequality, and the same vertex with up to 1/N of mass
shifted from one profile to another, which mostly fails them and moves
the marginals.
"""

from fractions import Fraction as F
from functools import partial
from math import prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_checks
from conftest import duplicate_action
from eqaudit import correlated, lp, nash
from eqaudit.games import (
    DeviationKernel,
    _over_lcm,
    Game,
    JointDistribution,
    MarginalProfile,
    payoff_numerators,
    product_distribution,
    surplus_table,
)
from eqaudit.nash import ProfilewiseScheme
from eqaudit.oracles import random_ce
from eqaudit.verify import verify_profilewise, verify_witness

# Small denominators mixed with distinct 21-bit primes, as in test_lp.
_DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 1048583, 1048589, 2097143, 2097133)
_payoffs = st.builds(F, st.integers(-12, 12), st.sampled_from(_DENOMINATORS))


@st.composite
def _rows(draw, k):
    """A probability row of length `k`: zeros, small weights and weights
    up to 2**19, so the denominator is at most 2**21."""
    weight = st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 2**19))
    weights = draw(st.lists(weight, min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    return tuple(F(w, sum(weights)) for w in weights)


@st.composite
def _games_and_profiles(draw):
    """A game and a marginal profile; half the time one action is
    duplicated, its mass kept, split in two or moved to the copy."""
    n = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, (4, 3, 2)[n - 1])) for _ in range(n)]
    size = prod(shape)
    game = Game(
        tuple(f"P{i + 1}" for i in range(n)),
        tuple(tuple("abcd"[:k]) for k in shape),
        tuple(draw(st.lists(_payoffs, min_size=size, max_size=size)) for _ in range(n)),
    )
    probs = [draw(_rows(k)) for k in shape]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        a = draw(st.integers(0, shape[i] - 1))
        game = duplicate_action(game, i, a)
        kept = draw(st.sampled_from((F(1), F(1, 2), F(0)))) * probs[i][a]
        probs[i] = probs[i][:a] + (kept,) + probs[i][a + 1 :] + (probs[i][a] - kept,)
    return game, MarginalProfile(tuple(probs))


@st.composite
def _vertices(draw):
    """A game, a `random_ce` vertex of it, and that vertex either as it is
    or with min(mass, 1/N) moved from a supported profile to another."""
    game, _p = draw(_games_and_profiles())
    vertex = random_ce(game, draw(st.integers(0, 2**31)))
    q = vertex
    if game.num_profiles > 1 and draw(st.booleans()):
        support = [flat for flat, v in enumerate(q.probs) if v]
        src = draw(st.sampled_from(support))
        dst = draw(st.sampled_from([f for f in range(game.num_profiles) if f != src]))
        moved = min(q.probs[src], F(1, draw(st.integers(1, 2**21))))
        probs = list(q.probs)
        probs[src] -= moved
        probs[dst] += moved
        q = JointDistribution(game.shape, probs)
    return game, vertex, q


@settings(max_examples=120, deadline=None)
@given(_vertices(), _games_and_profiles())
def test_is_correlated_equilibrium_matches_the_fraction_check(vertices, other):
    game, vertex, shifted = vertices
    assert correlated.is_correlated_equilibrium(game, vertex)
    for g, q in ((game, shifted), (other[0], product_distribution(other[1]))):
        expected = fraction_checks.is_correlated_equilibrium(g, q)
        assert correlated.is_correlated_equilibrium(g, q) == expected


@settings(max_examples=200, deadline=None)
@given(_games_and_profiles())
def test_best_deviation_matches_the_fraction_search(case):
    game, p = case
    assert nash._best_deviation(game, p) == fraction_checks.best_deviation(game, p)
    # Each player's row of the one table is that player's expected payoffs.
    table = payoff_numerators(game, p)
    assert len(table) == game.num_players
    for i, (totals, den) in enumerate(table):
        assert den > 0
        expected = [fraction_checks.expected_payoff(game, p, i, a) for a in range(game.shape[i])]
        assert [F(t, den) for t in totals] == expected


@settings(max_examples=120, deadline=None)
@given(_vertices(), _games_and_profiles())
def test_verify_witness_matches_the_fraction_check(vertices, other):
    game, vertex, shifted = vertices
    cases = [
        (game, vertex.marginals(), vertex),
        (game, vertex.marginals(), shifted),
        (other[0], other[1], product_distribution(other[1])),
    ]
    if other[1].shape == game.shape:
        cases.append((game, other[1], shifted))
    for g, p, q in cases:
        assert verify_witness(g, p, q) == fraction_checks.witness_holds(g, p, q)


@settings(max_examples=200, deadline=None)
@given(_games_and_profiles(), st.data())
def test_profilewise_income_matches_the_product_distribution(case, data):
    # Fees at most the surplus of a random kernel, less random amounts
    # with large denominators, so the scheme is feasible.
    game, p = case
    kernel = DeviationKernel(
        tuple(tuple(data.draw(_rows(k)) for _ in range(k)) for k in game.shape)
    )
    fee = [s - abs(data.draw(_payoffs)) for s in surplus_table(game, kernel)]
    income = verify_profilewise(game, p, ProfilewiseScheme(fee, kernel))
    assert income == fraction_checks.product_income(p, fee)
    verdict = nash.test_nash_exploitability(game, p)
    if isinstance(verdict, nash.Exploitable):
        income = verify_profilewise(game, p, verdict.scheme)
        assert income == fraction_checks.product_income(p, verdict.scheme.fee)
        assert income == verdict.expected_profit


def _distribution_error(check, values):
    try:
        check(values, "row")
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _candidate_rows(draw):
    """Probability rows, and rows with one entry moved by +-1/N, negated
    or replaced by a random rational, or no entries, so every outcome of
    the check occurs."""
    k = draw(st.integers(1, 6))
    values = list(draw(_rows(k)))
    move = draw(st.sampled_from(("none", "shift", "negate", "swap", "empty")))
    j = draw(st.integers(0, k - 1))
    if move == "shift":
        values[j] += draw(st.sampled_from((1, -1))) * F(1, draw(st.integers(1, 2**21)))
    elif move == "negate":
        values[j] = -values[j]
    elif move == "swap":
        values[j] = draw(_payoffs)
    elif move == "empty":
        values = []
    return tuple(values)


@settings(max_examples=300, deadline=None)
@given(_candidate_rows())
def test_check_distribution_matches_the_fraction_check(values):
    # The integer check reads the values as integer columns `(numerators,
    # denominators)`, as the `from_columns` constructors pass them.
    columns = ([v.numerator for v in values], [v.denominator for v in values])
    expected = _distribution_error(fraction_checks.check_distribution, values)
    assert _distribution_error(partial(_over_lcm, None), columns) == expected


@settings(max_examples=150, deadline=None)
@given(_games_and_profiles())
def test_incentive_rows_match_payoff_differences(case):
    # Row by row, over every profile and over the kept columns alike, each
    # coefficient is pay[f] - pay[f + shift] where i is told ai, else 0.
    game, p = case
    supports, kept_pairs, _marginals = correlated._kept(game, p)
    kept_cols = correlated._product(game.shape, supports)
    every = (list(enumerate(game.profiles())), list(correlated.deviation_pairs(game)))
    for cols, pairs in (every, (kept_cols, kept_pairs)):
        rows = correlated.incentive_rows(game, cols, pairs)
        assert len(rows) == len(pairs)
        for (i, ai, aj), row in zip(pairs, rows):
            pay, shift = game.payoffs[i], (aj - ai) * game.strides[i]
            expected = tuple(
                pay[f] - pay[f + shift] if profile[i] == ai else F(0)
                for f, profile in cols
            )
            coeffs = tuple(F(c, row.den) for c in row.nums)
            assert (coeffs, row.sense, row.rhs_num) == (expected, lp.GE, 0)


@settings(max_examples=150, deadline=None)
@given(_games_and_profiles(), st.sampled_from((F(1, 2**21), F(1), F(2**21))))
def test_normalize_dual_matches_the_fraction_read_back(case, factor):
    # Any positive multiple of a Farkas certificate is one too; small and
    # large factors reach both sides of the row-sum scaling.
    game, p = case
    outcome = lp.solve_feasibility(correlated.build_ce_system(game, p))
    assume(isinstance(outcome, lp.Infeasible))
    y = [factor * v for v in outcome.multipliers]
    expected = fraction_checks.normalize_dual(game, p, y)
    outcome = lp.Infeasible(*fraction_checks.common_denominator(y))
    assert correlated.normalize_dual(game, p, outcome) == expected
