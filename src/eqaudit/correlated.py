"""Compatibility of observed marginals with correlated play.

Given a game and one action distribution per player, decide whether any
joint distribution with those marginals is a correlated equilibrium. The
answer is constructive in both directions: either a witness coupling that
passes the incentive inequalities, or an action-wise transfer scheme
(per-player fees plus a deviation kernel) whose expected fee income under
the observed marginals is strictly positive while the aggregate deviation
surplus covers the fees at every action profile. The scheme is obtained by
normalizing the Farkas multipliers of the infeasible coupling system.

One coupling system is built per request, on the product of the
supports: an action with observed frequency 0 forces zero mass on every
profile that uses it, and `incentive_rows` writes its rows directly over
the columns of that product as integer `lp.Row`s, each numerator one
integer difference of the game's integer payoff view over the lcm of the
row's line denominators; a marginal row is its indicator times the
denominator of the observed frequencies (`MarginalProfile.int_rows`),
with the frequency's numerator on the right. No Fraction is built per
coefficient. Its incentive rows are generated as cutting planes
(Papadimitriou and Roughgarden, JACM 2008): a round solves only the rows
violated so far, and the multipliers of an infeasible one, with 0 on
every row left out, certify the whole system. The outcome is read back
without a solver and judged by `verify`, which also computes the income
an exploitable verdict carries; this module does no income arithmetic.
A witness is the integer point (`lp.Feasible.nums`) zero-extended to
every profile (`JointDistribution.from_columns`). Multipliers become a
kernel and fees, scaled in integers over their common denominator, and
go over that denominator straight to `DeviationKernel.from_columns`,
which checks in integers that every row sums to 1, and to
`ActionwiseScheme.from_columns`; an unobserved action has no kept
row, so its kernel row is the identity and its fee is the largest value
at most 0 that keeps feasible every profile charged to it, a profile
outside the support product being charged to the unobserved action of
the lowest-index player who plays one there. That fee is computed here,
from the game's integer payoff view and the kernel's integer numerators
over their common denominator, never with the checker's `surplus_parts`
or `surplus_table`, so producer and checker share no surplus arithmetic,
and no Fraction payoff view of a parsed game is built.
The verdict and scheme types come from `games`, and the direct incentive
check, `is_correlated_equilibrium`, from the judge, `verify`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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
    as_fraction,
    check_shape,
    common_denominator,
    independent_play,
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
    and the read-back alike: the supports, the profiles of their product
    as `(flat index, profile)` in row-major order, the `deviation_pairs`
    triples whose recommended action is supported, in that order, and the
    `(player, action)` of each marginal row."""
    supports = [p.support(i) for i in range(game.num_players)]
    cols = _product(game.shape, supports)
    pairs = [t for t in deviation_pairs(game) if t[1] in supports[t[0]]]
    marginals = [
        (i, a)
        for i, support in enumerate(supports)
        for a in (support if i == 0 else support[:-1])
    ]
    return supports, cols, pairs, marginals


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
    _supports, cols, pairs, marginals = _kept(game, p)
    rows = incentive_rows(game, cols, pairs)
    for i, a in marginals:
        freqs, den = p.int_rows[i]
        nums = [den if profile[i] == a else 0 for _flat, profile in cols]
        rows.append(lp.Row.over(nums, lp.EQ, freqs[a], den))
    return lp.LinearSystem(len(cols), tuple(rows), (True,) * len(cols))


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


def normalize_dual(game: Game, p: MarginalProfile, multipliers) -> Exploitable:
    """Turn a Farkas certificate of `build_ce_system(game, p)` into a
    transfer scheme with a row-stochastic kernel, and return the checked
    `Exploitable` verdict: the scheme and the income `verify_actionwise`
    computes for it.

    Incentive-row multipliers become off-diagonal kernel mass and
    marginal-row multipliers become fees. Both are scaled by a common
    positive factor so that every off-diagonal row sum is at most 1, and
    each diagonal entry absorbs the remainder; the diagonal carries a zero
    payoff coefficient, so the pointwise inequalities are unaffected. An
    unobserved action keeps an identity kernel row, and its fee is
    min(0, surplus - supported fees) over the profiles charged to it (see
    the module docstring). Raises ValueError unless the scheme is feasible
    at every profile and its expected income under `p` is positive.
    """
    check_shape(game, p)
    supports, _cols, pairs, marginals = _kept(game, p)
    multipliers = tuple(as_fraction(m) for m in multipliers)
    if len(multipliers) != len(pairs) + len(marginals):
        raise ValueError("multipliers do not match the coupling system "
                         "of this game and profile")
    # Over the multipliers' common denominator D, with S the largest sum of
    # a row's off-diagonal numerators, every entry and fee is its numerator
    # over T = max(D, S), which scales them by D/S when S > D, and each
    # diagonal entry is T less its row's sum, over T.
    nums, den = common_denominator(multipliers)
    shape = game.shape
    weights = [[[0] * k for _ in range(k)] for k in shape]
    for (i, ai, aj), y in zip(pairs, nums):
        weights[i][ai][aj] = y
    total = max(den, *(sum(row) for player_rows in weights for row in player_rows))
    for player_rows in weights:
        for ai, row in enumerate(player_rows):
            row[ai] = total - sum(row)
    kernel = DeviationKernel.from_columns(
        [[(row, [total] * len(row)) for row in rows] for rows in weights]
    )
    fee_nums = [[0] * k for k in shape]
    for (i, a), y in zip(marginals, nums[len(pairs) :]):
        fee_nums[i][a] = y
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


def test_ce_compatibility(game: Game, p: MarginalProfile) -> CeVerdict:
    """Decide compatibility and return the matching certificate.

    `build_ce_system` builds the one coupling system, on the product of
    the supports. Each round, `lp.solve_feasibility` solves its marginal
    rows and the incentive rows active so far, in the system's order:
    those that independent play at `p` violates, then also those that
    each feasible round's point violates. Each round adds a row, so the
    loop ends. A point that violates none is zero-extended to every
    profile and re-checked by `verify.verify_witness`. The multipliers of
    an infeasible round, with 0 on every row left out, are read back by
    `normalize_dual`, whose checked verdict, income included, is returned
    as it is. A certificate that fails its check raises RuntimeError.
    """
    system = build_ce_system(game, p)
    # The incentive rows, `>= 0` ones, come first; the marginal rows are `==`.
    split = sum(row.sense == lp.GE for row in system.rows)
    marginal = range(split, len(system.rows))

    def violated(x):  # over any positive denominator; incentive rhs are 0
        return [k for k, row in enumerate(system.rows[:split])
                if sum(c * v for c, v in zip(row.nums, x) if c) < 0]

    # `independent_play` walks the support product in the system's column order.
    cells = independent_play(game.shape, p.int_rows)[0]
    active = violated([w for _flat, w in cells])
    while True:
        kept = [*active, *marginal]
        outcome = lp.solve_feasibility(lp.LinearSystem(
            system.num_vars, tuple(system.rows[k] for k in kept), system.nonneg
        ))
        if isinstance(outcome, lp.Infeasible):
            break
        point, den = outcome.nums, outcome.den
        failing = violated(point)
        if not failing:
            nums = [0] * game.num_profiles
            for (flat, _weight), v in zip(cells, point):
                nums[flat] = v
            witness = JointDistribution.from_columns(game.shape, (nums, [den] * len(nums)))
            if not verify_witness(game, p, witness):
                raise RuntimeError("witness fails the marginal or incentive check")
            return Compatible(witness)
        active = sorted(active + failing)
    y, den = dict(zip(kept, outcome.nums)), outcome.den
    multipliers = [Fraction(y.get(k, 0), den) for k in range(len(system.rows))]
    try:
        return normalize_dual(game, p, multipliers)
    except ValueError as exc:
        raise RuntimeError(f"scheme read from the multipliers fails: {exc}") from None
