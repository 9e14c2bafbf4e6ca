import random
from fractions import Fraction as F

import pytest

from conftest import duplicate_action, extend_marginals, identity_kernel
from fraction_checks import expected_payoff
from eqaudit import lp
from eqaudit import correlated, games, nash
from eqaudit.correlated import Compatible
from eqaudit.games import MarginalProfile, surplus_table
from eqaudit.nash import (
    Exploitable,
    IsNash,
    ProfilewiseScheme,
    build_nash_system,
    is_nash,
)
from eqaudit.oracles import random_game, random_marginals
from eqaudit.verify import verify_profilewise


def test_pure_equilibrium(coordination):
    p = MarginalProfile(((F(1), F(0)), (F(1), F(0), F(0))))
    assert is_nash(coordination, p)
    assert isinstance(nash.test_nash_exploitability(coordination, p), IsNash)


def test_mixed_equilibrium_indifference(coordination, mixed_equilibrium):
    # both live actions pay 9/10 in expectation, the dominated one pays 0
    assert expected_payoff(coordination, mixed_equilibrium, 0, 0) == F(9, 10)
    assert expected_payoff(coordination, mixed_equilibrium, 0, 1) == F(9, 10)
    assert expected_payoff(coordination, mixed_equilibrium, 1, 2) == F(0)
    assert is_nash(coordination, mixed_equilibrium)
    assert isinstance(
        nash.test_nash_exploitability(coordination, mixed_equilibrium), IsNash
    )


def test_skewed_profile_not_nash(coordination, skewed_profile):
    # the second column pays 1/2 in expectation, the first pays 9/2
    assert expected_payoff(coordination, skewed_profile, 1, 1) == F(1, 2)
    assert expected_payoff(coordination, skewed_profile, 1, 0) == F(9, 2)
    assert not is_nash(coordination, skewed_profile)
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    assert isinstance(verdict, Exploitable)
    income = verify_profilewise(coordination, skewed_profile, verdict.scheme)
    assert income == verdict.expected_profit > 0


def test_both_tests_share_one_exploitable_verdict(coordination, skewed_profile):
    assert Exploitable is correlated.Exploitable
    ce = correlated.test_ce_compatibility(coordination, skewed_profile)
    ne = nash.test_nash_exploitability(coordination, skewed_profile)
    assert type(ce) is type(ne) is Exploitable
    assert isinstance(ce.scheme, correlated.ActionwiseScheme)
    assert isinstance(ne.scheme, ProfilewiseScheme)


def test_skewed_certificate_moves_the_second_column(
    coordination, skewed_profile, column_swap_kernel
):
    # P2's M -> L pays 3/4 * (9/2 - 1/2) = 3, more than P1's B -> T (3/4)
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    assert verdict == Exploitable(
        ProfilewiseScheme(
            surplus_table(coordination, column_swap_kernel), column_swap_kernel
        ),
        F(3),
    )


def _refuse(cls, *args):
    raise ValueError("kernel row (0,0) does not sum to 1")


def test_a_refused_certificate_is_a_producer_fault(
    monkeypatch, coordination, skewed_profile
):
    # The profile passed the shape check, so a kernel or fee table that its
    # constructor refuses is the producer's fault, not malformed input.
    monkeypatch.setattr(games.DeviationKernel, "from_columns", classmethod(_refuse))
    with pytest.raises(RuntimeError, match="no checked certificate: kernel row"):
        nash.test_nash_exploitability(coordination, skewed_profile)
    with pytest.raises(ValueError):
        nash.test_nash_exploitability(coordination, MarginalProfile(((F(1),),)))


def test_fee_is_not_read_from_the_checkers_surplus(
    monkeypatch, coordination, skewed_profile
):
    # `verify_profilewise` compares each fee with `surplus_parts`; a fee
    # built from it would agree with any error there, so an error at the
    # profiles where an unobserved action is played must not reach it.
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    parts = games.surplus_parts

    def overstated(game, kernel):
        nums, dens = parts(game, kernel)
        for flat, profile in enumerate(game.profiles()):
            if any(not skewed_profile.probs[i][a] for i, a in enumerate(profile)):
                nums[flat] += dens[flat]
        return nums, dens

    monkeypatch.setattr(games, "surplus_parts", overstated)
    assert nash.test_nash_exploitability(coordination, skewed_profile) == verdict


def test_pure_miscoordination_exploitable(coordination):
    p = MarginalProfile(((F(1), F(0)), (F(0), F(1), F(0))))
    verdict = nash.test_nash_exploitability(coordination, p)
    assert isinstance(verdict, Exploitable)
    assert verify_profilewise(coordination, p, verdict.scheme) > 0


def test_build_system_shape(coordination, skewed_profile):
    sys_ = build_nash_system(coordination, skewed_profile)
    assert sys_.num_vars == 6
    senses = [row.sense for row in sys_.rows]
    assert senses.count(lp.GE) == 8
    assert senses.count(lp.EQ) == 6  # one pin per profile


def _pure_equilibrium(game):
    """Point-mass marginals of the first pure equilibrium in row-major
    order, or None."""
    for profile in game.profiles():
        if all(
            game.utility(i, profile)
            >= max(
                game.payoffs[i][game.flat_index(profile[:i] + (a,) + profile[i + 1 :])]
                for a in range(game.shape[i])
            )
            for i in range(game.num_players)
        ):
            return MarginalProfile(
                tuple(
                    tuple(F(1) if a == profile[i] else F(0) for a in range(k))
                    for i, k in enumerate(game.shape)
                )
            )
    return None


def test_certificate_is_the_largest_best_response_gap():
    rng = random.Random(53)
    exploited = 0
    for _ in range(80):
        game = random_game(rng)
        p = random_marginals(rng, game)
        verdict = nash.test_nash_exploitability(game, p)
        if isinstance(verdict, IsNash):
            continue
        exploited += 1
        identity = identity_kernel(game.shape).rows
        moved = [
            (i, a)
            for i, k in enumerate(game.shape)
            for a in range(k)
            if verdict.scheme.kernel.rows[i][a] != identity[i][a]
        ]
        assert len(moved) == 1
        i, a = moved[0]
        b = verdict.scheme.kernel.rows[i][a].index(F(1))
        values = [expected_payoff(game, p, i, c) for c in range(game.shape[i])]
        assert values[b] == max(values) and values.index(values[b]) == b
        assert verdict.expected_profit == p.probs[i][a] * (values[b] - values[a])
        # the largest gain over all supported actions, first in (player,
        # action) order on ties
        gains = {}
        for j, k in enumerate(game.shape):
            vals = [expected_payoff(game, p, j, c) for c in range(k)]
            for c in range(k):
                gains[j, c] = p.probs[j][c] * (max(vals) - vals[c])
        best = max(gains.values())
        assert verdict.expected_profit == best
        assert (i, a) == next(key for key, gain in gains.items() if gain == best)
        assert verdict.scheme.fee == surplus_table(game, verdict.scheme.kernel)
    assert exploited > 40


def test_pinned_system_feasible_iff_nash(coordination, mixed_equilibrium):
    # the pinned LP agrees with the best-response check, and its one point
    # is the product distribution
    rng = random.Random(61)
    cases = [(coordination, mixed_equilibrium)]
    for _ in range(24):
        game = random_game(rng, max_players=rng.choice((2, 3)), max_actions=2)
        cases.append((game, random_marginals(rng, game)))
        equilibrium = _pure_equilibrium(game)
        if equilibrium is not None:
            cases.append((game, equilibrium))
    seen = set()
    for game, p in cases:
        outcome = lp.solve_feasibility(build_nash_system(game, p))
        assert isinstance(outcome, lp.Feasible) == is_nash(game, p)
        if is_nash(game, p):
            assert outcome.point == games.product_distribution(p).probs
        seen.add(is_nash(game, p))
    assert seen == {True, False}


def test_agreement_on_random_corpus():
    rng = random.Random(31)
    seen_nash = seen_exploit = 0
    for _ in range(60):
        game = random_game(rng)
        p = random_marginals(rng, game)
        direct = is_nash(game, p)
        verdict = nash.test_nash_exploitability(game, p)
        assert direct == isinstance(verdict, IsNash)
        if direct:
            seen_nash += 1
        else:
            seen_exploit += 1
            assert verify_profilewise(game, p, verdict.scheme) == verdict.expected_profit > 0
    assert seen_exploit > 10
    # random profiles are rarely equilibria; cover the other arm with a
    # pure equilibrium found by brute force on a random game
    found = 0
    while found < 3:
        game = random_game(rng)
        p = _pure_equilibrium(game)
        if p is not None:
            assert is_nash(game, p)
            assert isinstance(nash.test_nash_exploitability(game, p), IsNash)
            found += 1


def test_nash_implies_ce_compatible(coordination, mixed_equilibrium):
    verdict = correlated.test_ce_compatibility(coordination, mixed_equilibrium)
    assert isinstance(verdict, Compatible)


def test_support_monotonicity():
    # appending a never-played duplicate action must not change the verdict
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        game = random_game(rng)
        p = random_marginals(rng, game)
        player = rng.randrange(game.num_players)
        action = rng.randrange(game.shape[player])
        bigger = duplicate_action(game, player, action)
        bigger_p = extend_marginals(p, player)
        assert is_nash(game, p) == is_nash(bigger, bigger_p)
        checked += 1
    assert checked == 40


def test_zero_probability_base_actions_impose_nothing(coordination, mixed_equilibrium):
    # the dominated action is in the action set with probability zero and
    # pays strictly less than the support; the profile is still Nash
    assert mixed_equilibrium.probs[1][2] == 0
    assert is_nash(coordination, mixed_equilibrium)
