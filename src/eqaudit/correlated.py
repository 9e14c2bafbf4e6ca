"""Compatibility of observed marginals with correlated play.

Given a game and one action distribution per player, decide whether any
joint distribution with those marginals is a correlated equilibrium. The
answer is constructive in both directions: either a witness coupling that
passes the incentive inequalities, or an action-wise transfer scheme
(per-player fees plus a deviation kernel) whose expected fee income under
the observed marginals is strictly positive while the aggregate deviation
surplus covers the fees at every action profile. A request takes one of
three routes, each in integers and each checked by `verify`:

- Nash marginals. No supported action pays less than another against the
  others' independent play (`games.payoff_numerators`), so the product
  of the marginals is the witness.
- Dominated play. Some action b beats a supported action a of player i at
  every profile of the others' supports, so one contract with i alone is
  an arbitrage (Nau and McCardle, JET 1990): the kernel sends a to b, and
  the fee on a is the least gain.
- Otherwise one coupling system is built on the product of the supports
  (an unobserved action forces zero mass on every profile that uses it),
  as integer `lp.Row`s: an incentive numerator is one difference of the
  integer payoff view over the lcm of the row's line denominators, a
  marginal row is an indicator over the frequencies' denominator. Its
  incentive rows are generated as cutting planes (Papadimitriou and
  Roughgarden, JACM 2008) in one `lp.solve_feasibility` call: it starts
  from the marginal rows and those that independent play violates, and
  every other row joins the same tableau once a point violates it. The
  multipliers of an infeasible solve, 0 on every row that never joined,
  certify the whole system.
  A witness is the integer point zero-extended to every profile; the
  multipliers become a kernel and fees over their common denominator.

Both schemes go through one read-back, `_read_back`, to
`DeviationKernel.from_columns`, which reads each row in one call that checks
it sums to 1 and builds error text only on a failure, and
`ActionwiseScheme.from_columns`. An unobserved action's kernel row is the
identity and its fee is the largest value at most 0 that keeps feasible
every profile charged to it, a profile outside the support product being
charged to the unobserved action of the lowest-index player who plays one
there. That fee is computed here from the integer payoff view, never with
the checker's `surplus_parts`, so producer and checker share no surplus
arithmetic, and no Fraction payoff view of a parsed game is built. `verify`
computes the income; this module does none.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Iterator

from . import lp
from .games import (
    ActionwiseScheme,
    Compatible,
    DeviationKernel,
    Exploitable,
    Game,
    JointDistribution,
    MarginalProfile,
    check_shape,
    payoff_numerators,
    product_distribution,
)

# `is_correlated_equilibrium` is re-exported: perfbench/workloads.py reads it here.
from .verify import is_correlated_equilibrium, verify_actionwise, verify_witness

CeVerdict = Compatible | Exploitable


def deviation_pairs(game: Game) -> Iterator[tuple[int, int, int]]:
    """(player, recommended action, replacement action) triples, in the
    fixed order used for incentive rows and their dual multipliers."""
    for i, k in enumerate(game.shape):
        for ai in range(k):
            for aj in range(k):
                if aj != ai:
                    yield i, ai, aj


def incentive_rows(game: Game, cols=None, pairs=None) -> list[lp.Row]:
    """One `>= 0` row per `(i, ai, aj)` of `pairs`, over the `(flat index,
    profile)` columns `cols`, saying that `i`, told `ai`, gains nothing by
    playing `aj`. Defaults: every profile and every `deviation_pairs`.

    Both profiles of a coefficient lie on one line of `i`, so it is read
    from `Game.int_payoffs` as one integer difference over their shared
    denominator, and the row is put over the lcm of its lines'
    denominators."""
    if cols is None:
        cols = list(enumerate(game.profiles()))
    if pairs is None:
        pairs = deviation_pairs(game)
    rows = []
    for i, ai, aj in pairs:
        (pay, dens), shift = game.int_payoffs[i], (aj - ai) * game.strides[i]
        scale = lcm(*(dens[flat] for flat, profile in cols if profile[i] == ai))
        nums = [
            (pay[flat] - pay[flat + shift]) * (scale // dens[flat])
            if profile[i] == ai
            else 0
            for flat, profile in cols
        ]
        rows.append(lp.Row.over(nums, lp.GE, 0, scale))
    return rows


def _product(shape, choices) -> list[tuple[int, tuple[int, ...]]]:
    """`(flat index, profile)` of every profile of `shape` whose player j
    plays an action of `choices[j]`, in row-major order."""
    flats = [0]
    for actions, k in zip(choices, shape):
        flats = [flat * k + a for flat in flats for a in actions]
    return list(zip(flats, itertools.product(*choices)))


def _kept(game: Game, p: MarginalProfile):
    """What `build_ce_system` keeps of the coupling system, for the build
    and the read-back alike: the supports, the `deviation_pairs` triples
    whose recommended action is supported, in that order, and the
    `(player, action)` of each marginal row. Its columns are the profiles
    of the supports' product (`_product`)."""
    supports = [p.support(i) for i in range(game.num_players)]
    pairs = [t for t in deviation_pairs(game) if t[1] in supports[t[0]]]
    marginals = [
        (i, a)
        for i, support in enumerate(supports)
        for a in (support if i == 0 else support[:-1])
    ]
    return supports, pairs, marginals


def build_ce_system(game: Game, p: MarginalProfile) -> lp.LinearSystem:
    """Feasibility system for a coupling with marginals `p` that satisfies
    every incentive inequality, on the product of the supports.

    Variables are the joint probabilities of the profiles in that
    product, all nonnegative. The incentive rows of supported recommended
    actions come first (in `deviation_pairs` order), then one marginal
    equality per supported (player, action), less the last one of every
    player after the first. Player 0's rows already force the total mass
    to 1, so no separate normalization row is added.
    """
    check_shape(game, p)
    supports, pairs, marginals = _kept(game, p)
    cols = _product(game.shape, supports)
    rows = incentive_rows(game, cols, pairs)
    for i, a in marginals:
        freqs, den = p.int_rows[i]
        nums = [den if profile[i] == a else 0 for _flat, profile in cols]
        rows.append(lp.Row.over(nums, lp.EQ, freqs[a], den))
    return lp.LinearSystem(len(cols), tuple(rows))


def _surplus_over(game: Game, weights, flat, profile) -> tuple[int, int]:
    """The deviation surplus at `profile`, whose flat index is `flat`,
    under the kernel whose rows are `weights` over one denominator T, as
    integers `(n, d)` with surplus `n / (T * d)`.

    Player i's term is sum_b w_ab * (n_b - n_a) / (T * d_i), over i's line
    through `profile` with integer payoffs n and denominator d_i, because
    each kernel row sums to T. d is the lcm of the d_i."""
    terms = []
    for i, (a, (pay, dens), step) in enumerate(
        zip(profile, game.int_payoffs, game.strides)
    ):
        here, line = pay[flat], flat - a * step
        gain = sum(w * (pay[line + b * step] - here)
                   for b, w in enumerate(weights[i][a]) if w)
        terms.append((gain, dens[flat]))
    den = lcm(*(d for _gain, d in terms))
    return sum(gain * (den // d) for gain, d in terms), den


def normalize_dual(game: Game, p: MarginalProfile, certificate) -> Exploitable:
    """Turn the integer `lp.Infeasible` certificate of the system
    `build_ce_system(game, p)` into a transfer scheme with a
    row-stochastic kernel, and return the checked `Exploitable` verdict:
    the scheme and the income `verify_actionwise` computes for it.

    Incentive-row multipliers become off-diagonal kernel mass and
    marginal-row multipliers become fees. Both are scaled by a common
    positive factor so that every off-diagonal row sum is at most 1, and
    each diagonal entry absorbs the remainder; the diagonal carries a zero
    payoff coefficient, so the pointwise inequalities are unaffected. The
    scheme is read back by `_read_back`, so an unobserved action keeps an
    identity kernel row and a fee of at most 0. Raises ValueError unless
    the scheme is feasible at every profile and its expected income under
    `p` is positive.
    """
    check_shape(game, p)
    supports, pairs, marginals = _kept(game, p)
    nums, den = certificate.nums, certificate.den
    if len(nums) != len(pairs) + len(marginals):
        raise ValueError("multipliers do not match the coupling system "
                         "of this game and profile")
    # Over the multipliers' denominator D, with S the largest sum of a
    # row's off-diagonal numerators, every entry and fee is its numerator
    # over T = max(D, S), which scales them by D/S when S > D, and each
    # diagonal entry is T less its row's sum, over T.
    weights = [[[0] * k for _ in range(k)] for k in game.shape]
    for (i, ai, aj), y in zip(pairs, nums):
        weights[i][ai][aj] = y
    total = max(den, *(sum(row) for player_rows in weights for row in player_rows))
    for player_rows in weights:
        for ai, row in enumerate(player_rows):
            row[ai] = total - sum(row)
    fee_nums = [[0] * k for k in game.shape]
    for (i, a), y in zip(marginals, nums[len(pairs) :]):
        fee_nums[i][a] = y
    return _read_back(game, p, supports, weights, total, fee_nums)


def _read_back(game, p, supports, weights, total, fee_nums) -> Exploitable:
    """The checked `Exploitable` verdict of the action-wise scheme whose
    kernel rows are `weights` and whose observed actions' fees are
    `fee_nums`, all numerators over `total`. An unobserved action's fee
    is min(0, surplus - supported fees) over the profiles charged to it
    (see the module docstring). ValueError unless the scheme is feasible
    at every profile and earns a positive income under `p`."""
    shape = game.shape
    kernel = DeviationKernel.from_columns(
        [[(row, [total] * len(row)) for row in rows] for rows in weights]
    )
    fee_dens = [[total] * k for k in shape]
    # The profiles charged to i's unobserved action a: i plays a, and every
    # lower-index player an observed action. Its fee starts at 0 and is
    # lowered, as an integer ratio, to each of their caps below it.
    for i, (k, support) in enumerate(zip(shape, supports)):
        for a in range(k):
            if a in support:
                continue
            low, low_den = 0, 1
            charged = (*supports[:i], (a,), *map(range, shape[i + 1 :]))
            for flat, profile in _product(shape, charged):
                paid = sum(
                    fee_nums[j][b] for j, b in enumerate(profile) if b in supports[j]
                )
                gain, gain_den = _surplus_over(game, weights, flat, profile)
                cap, cap_den = gain - paid * gain_den, total * gain_den
                if cap * low_den < low * cap_den:
                    low, low_den = cap, cap_den
            fee_nums[i][a], fee_dens[i][a] = low, low_den
    scheme = ActionwiseScheme.from_columns(list(zip(fee_nums, fee_dens)), kernel)
    income = verify_actionwise(game, p, scheme)
    if income <= 0:
        raise ValueError(f"scheme earns {income}, not a positive income")
    return Exploitable(scheme, income)


def _dominated(game: Game, supports, i: int, a: int, b: int):
    """The least gain `(numerator, denominator)` of player `i` from `b`
    over `a` at the profiles of the other players' supports, or None
    unless every such gain is positive. Each gain is one integer
    difference on a line of `i`; gains are compared by cross-multiplying."""
    (pay, dens), step = game.int_payoffs[i], game.strides[i]
    least = None
    for base, _profile in _product(game.shape, (*supports[:i], (0,), *supports[i + 1 :])):
        gain, den = pay[base + b * step] - pay[base + a * step], dens[base]
        if gain <= 0:
            return None
        if least is None or gain * least[1] < least[0] * den:
            least = gain, den
    return least


def test_ce_compatibility(game: Game, p: MarginalProfile) -> CeVerdict:
    """Decide compatibility and return the matching certificate, by the
    module docstring's three routes. The pairs `(i, a, b)` that independent
    play violates, `a` supported and `b` paying more, are the incentive
    rows the solve starts from, with every marginal row; the scheme of
    dominated play contracts on the first of them, in `deviation_pairs`
    order, where `b` beats `a` everywhere. A certificate that fails its
    check raises RuntimeError.
    """
    values = [totals for totals, _den in payoff_numerators(game, p)]  # checks the shape
    supports, pairs, _marginals = _kept(game, p)
    active = [k for k, (i, a, b) in enumerate(pairs) if values[i][b] > values[i][a]]
    try:
        for i, a, b in (pairs[k] for k in active):
            least = _dominated(game, supports, i, a, b)
            if least:
                weights = [[[least[1] * (c == r) for c in range(k)] for r in range(k)]
                           for k in game.shape]
                weights[i][a] = weights[i][b]
                fee_nums = [[0] * k for k in game.shape]
                fee_nums[i][a] = least[0]
                return _read_back(game, p, supports, weights, least[1], fee_nums)
        if active:
            system = build_ce_system(game, p)
            outcome = lp.solve_feasibility(
                system, [*active, *range(len(pairs), len(system.rows))]
            )
            if isinstance(outcome, lp.Infeasible):
                return normalize_dual(game, p, outcome)
            nums = [0] * game.num_profiles
            for (flat, _profile), v in zip(_product(game.shape, supports), outcome.nums):
                nums[flat] = v
            witness = JointDistribution.from_columns(
                game.shape, (nums, [outcome.den] * len(nums))
            )
        else:
            witness = product_distribution(p)
    except ValueError as exc:  # the input passed `check_shape`: a producer's fault
        raise RuntimeError(f"no checked certificate: {exc}") from None
    if not verify_witness(game, p, witness):
        raise RuntimeError("witness fails the marginal or incentive check")
    return Compatible(witness)
