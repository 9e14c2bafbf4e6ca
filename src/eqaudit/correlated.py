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
profile that uses it. The outcome is read back without a solver and
judged by `verify`, which also computes the income an exploitable
verdict carries; this module does no income arithmetic. A witness is
zero-extended to every profile.
Multipliers become a kernel and fees; an unobserved action has no kept
row, so its kernel row is the identity and its fee is the largest value
at most 0 that keeps feasible every profile charged to it, a profile
outside the support product being charged to the unobserved action of
the lowest-index player who plays one there. That fee is computed with
the Fraction reference `games.surplus`, never with the checker's integer
`surplus_parts`, so producer and checker share no surplus arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from . import lp
from .games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    as_fraction,
    surplus,
)

if TYPE_CHECKING:
    from .nash import ProfilewiseScheme

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ActionwiseScheme:
    """Per-player fees indexed by own action, plus a deviation kernel.

    Feasibility means: at every action profile, total utility plus total
    fees is at most the total utility after each player unilaterally
    follows their kernel row. Equivalently the fee sum never exceeds the
    aggregate deviation surplus.
    """

    fees: tuple[tuple[Fraction, ...], ...]
    kernel: DeviationKernel

    def __post_init__(self):
        fees = tuple(tuple(as_fraction(v) for v in row) for row in self.fees)
        if tuple(len(row) for row in fees) != self.kernel.shape:
            raise ValueError("fee table shape does not match kernel")
        object.__setattr__(self, "fees", fees)


@dataclass(frozen=True)
class Compatible:
    witness: JointDistribution


@dataclass(frozen=True)
class Exploitable:
    """Either test's verdict on exploitable play: a feasible scheme with
    positive expected income, action-wise from `test_ce_compatibility` and
    profile-wise from `nash.test_nash_exploitability`."""

    scheme: ActionwiseScheme | ProfilewiseScheme
    expected_profit: Fraction


CeVerdict = Compatible | Exploitable


def _check_marginals(game: Game, p: MarginalProfile) -> None:
    if p.shape != game.shape:
        raise ValueError("marginal profile shape does not match game")


def _check_joint(game: Game, q: JointDistribution) -> None:
    if q.shape != game.shape:
        raise ValueError("joint distribution shape does not match game")


def deviation_pairs(game: Game) -> Iterator[tuple[int, int, int]]:
    """(player, recommended action, replacement action) triples, in the
    fixed order used for incentive rows and their dual multipliers."""
    for i, k in enumerate(game.shape):
        for ai in range(k):
            for aj in range(k):
                if aj != ai:
                    yield i, ai, aj


def incentive_coefficients(game: Game, i: int, ai: int, aj: int) -> list[Fraction]:
    """Coefficients of the incentive row saying that, conditional on
    player `i` being told `ai`, switching to `aj` does not pay."""
    coeffs = [_ZERO] * game.num_profiles
    payoff = game.payoffs[i]
    step = game.strides[i]
    for start in game.line_starts(i):
        flat = start + ai * step
        coeffs[flat] = payoff[flat] - payoff[start + aj * step]
    return coeffs


def incentive_rows(game: Game) -> list[lp.Row]:
    """One `>= 0` row per `deviation_pairs` triple, in that order."""
    return [
        lp.ge(incentive_coefficients(game, i, ai, aj), 0)
        for i, ai, aj in deviation_pairs(game)
    ]


def is_correlated_equilibrium(game: Game, q: JointDistribution) -> bool:
    """Direct check of every incentive inequality, no solver involved."""
    _check_joint(game, q)
    starts = [game.line_starts(i) for i in range(game.num_players)]
    for i, ai, aj in deviation_pairs(game):
        payoff = game.payoffs[i]
        step = game.strides[i]
        shift = (aj - ai) * step
        gain = _ZERO
        for start in starts[i]:
            flat = start + ai * step
            if q.probs[flat]:
                gain += q.probs[flat] * (payoff[flat] - payoff[flat + shift])
        if gain < 0:
            return False
    return True


def _kept(game: Game, p: MarginalProfile):
    """What `build_ce_system` keeps of the coupling system, for the build
    and the read-back alike: the supports, the profiles of their product
    as `(flat index, profile)` in row-major order, the `deviation_pairs`
    triples whose recommended action is supported, in that order, and the
    `(player, action)` of each marginal row."""
    supports = [p.support(i) for i in range(game.num_players)]
    cols = [(game.flat_index(s), s) for s in itertools.product(*supports)]
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
    _check_marginals(game, p)
    _supports, cols, pairs, marginals = _kept(game, p)
    rows = []
    for i, ai, aj in pairs:
        coeffs = incentive_coefficients(game, i, ai, aj)
        rows.append(lp.ge([coeffs[flat] for flat, _profile in cols]))
    for i, a in marginals:
        indicator = [_ONE if profile[i] == a else _ZERO for _flat, profile in cols]
        rows.append(lp.eq(indicator, p.probs[i][a]))
    return lp.LinearSystem(len(cols), tuple(rows), (True,) * len(cols))


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
    from . import verify  # verify imports this module

    _check_marginals(game, p)
    supports, _cols, pairs, marginals = _kept(game, p)
    multipliers = tuple(as_fraction(m) for m in multipliers)
    if len(multipliers) != len(pairs) + len(marginals):
        raise ValueError("multipliers do not match the coupling system "
                         "of this game and profile")
    shape = game.shape
    off_diag = [[[_ZERO] * k for _ in range(k)] for k in shape]
    for (i, ai, aj), y in zip(pairs, multipliers):
        off_diag[i][ai][aj] = y
    max_row_sum = max(
        (sum(row) for player_rows in off_diag for row in player_rows),
        default=_ZERO,
    )
    scale = _ONE if max_row_sum <= 1 else _ONE / max_row_sum
    for player_rows in off_diag:
        for ai, row in enumerate(player_rows):
            row[:] = [scale * v for v in row]
            row[ai] = _ONE - sum(row)
    kernel = DeviationKernel(off_diag)
    fees = [[_ZERO] * k for k in shape]
    for (i, a), y in zip(marginals, multipliers[len(pairs) :]):
        fees[i][a] = scale * y
    for profile in game.profiles():
        off = [i for i, a in enumerate(profile) if a not in supports[i]]
        if off:
            i, a = off[0], profile[off[0]]
            paid = sum(fees[j][b] for j, b in enumerate(profile) if j not in off)
            fees[i][a] = min(fees[i][a], surplus(game, kernel, profile) - paid)
    scheme = ActionwiseScheme(tuple(map(tuple, fees)), kernel)
    income = verify.verify_actionwise(game, p, scheme)
    if income <= 0:
        raise ValueError(f"scheme earns {income}, not a positive income")
    return Exploitable(scheme, income)


def test_ce_compatibility(game: Game, p: MarginalProfile) -> CeVerdict:
    """Decide compatibility and return the matching certificate.

    `build_ce_system` builds the one coupling system, on the product of
    the supports, and `lp.solve_feasibility` solves it. A feasible point
    is zero-extended to every profile and re-checked by
    `verify.verify_witness`; multipliers are read back by `normalize_dual`,
    whose checked verdict, income included, is returned as it is. A
    certificate that fails its check raises RuntimeError.
    """
    from . import verify  # verify imports this module

    outcome = lp.solve_feasibility(build_ce_system(game, p))
    if isinstance(outcome, lp.Feasible):
        probs = [_ZERO] * game.num_profiles
        for (flat, _profile), v in zip(_kept(game, p)[1], outcome.point):
            probs[flat] = v
        witness = JointDistribution(game.shape, probs)
        if not verify.verify_witness(game, p, witness):
            raise RuntimeError("witness fails the marginal or incentive check")
        return Compatible(witness)
    try:
        return normalize_dual(game, p, outcome.multipliers)
    except ValueError as exc:
        raise RuntimeError(f"scheme read from the multipliers fails: {exc}") from None
