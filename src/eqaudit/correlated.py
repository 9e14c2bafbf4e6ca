"""Compatibility of observed marginals with correlated play.

Given a game and one action distribution per player, decide whether any
joint distribution with those marginals is a correlated equilibrium. The
answer is constructive in both directions: either a witness coupling that
passes the incentive inequalities, or an action-wise transfer scheme
(per-player fees plus a deviation kernel) whose expected fee income under
the observed marginals is strictly positive while the aggregate deviation
surplus covers the fees at every action profile. The scheme is obtained by
normalizing the Farkas multipliers of the infeasible coupling system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import lp
from .games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    as_fraction,
)

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
    scheme: ActionwiseScheme
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


def build_ce_system(game: Game, p: MarginalProfile) -> lp.LinearSystem:
    """Feasibility system for a coupling with marginals `p` that satisfies
    every incentive inequality.

    Variables are the joint probabilities, all nonnegative. Incentive rows
    come first (in `deviation_pairs` order), then one marginal equality
    per (player, action). The rows of any single player already force the
    total mass to 1, so no separate normalization row is added.
    """
    _check_marginals(game, p)
    rows: list[lp.Row] = []
    for i, ai, aj in deviation_pairs(game):
        rows.append(lp.ge(incentive_coefficients(game, i, ai, aj), 0))
    for i, k in enumerate(game.shape):
        for ai in range(k):
            indicator = [
                _ONE if profile[i] == ai else _ZERO for profile in game.profiles()
            ]
            rows.append(lp.eq(indicator, p.probs[i][ai]))
    return lp.LinearSystem(
        game.num_profiles, tuple(rows), (True,) * game.num_profiles
    )


def expected_fee_income(p: MarginalProfile, fees) -> Fraction:
    """Expected total fee paid under `p`, summed across players."""
    return sum(
        (
            prob * fee
            for row, fee_row in zip(p.probs, fees)
            for prob, fee in zip(row, fee_row)
        ),
        _ZERO,
    )


def normalize_dual(game: Game, p: MarginalProfile, multipliers) -> ActionwiseScheme:
    """Turn a Farkas certificate of the coupling system into a transfer
    scheme with a row-stochastic kernel.

    Incentive-row multipliers become off-diagonal kernel mass and
    marginal-row multipliers become fees. Both are scaled by a common
    positive factor so that every off-diagonal row sum is at most 1, and
    each diagonal entry absorbs the remainder; the diagonal carries a zero
    payoff coefficient, so the pointwise inequalities are unaffected.
    """
    multipliers = tuple(as_fraction(m) for m in multipliers)
    system = build_ce_system(game, p)
    if not lp.verify_outcome(system, lp.Infeasible(multipliers)):
        raise ValueError("multipliers are not an infeasibility certificate "
                         "for this game and profile")
    shape = game.shape
    off_diag = [[[_ZERO] * k for _ in range(k)] for k in shape]
    index = 0
    for i, ai, aj in deviation_pairs(game):
        off_diag[i][ai][aj] = multipliers[index]
        index += 1
    raw_fees = []
    for k in shape:
        raw_fees.append(list(multipliers[index : index + k]))
        index += k

    max_row_sum = max(
        (sum(row) for player_rows in off_diag for row in player_rows),
        default=_ZERO,
    )
    scale = _ONE if max_row_sum <= 1 else _ONE / max_row_sum

    kernel_rows = []
    for i, k in enumerate(shape):
        player_rows = []
        for ai in range(k):
            row = [scale * v for v in off_diag[i][ai]]
            row[ai] = _ONE - sum(row)
            player_rows.append(tuple(row))
        kernel_rows.append(tuple(player_rows))
    fees = tuple(tuple(scale * v for v in row) for row in raw_fees)
    return ActionwiseScheme(fees, DeviationKernel(tuple(kernel_rows)))


def test_ce_compatibility(game: Game, p: MarginalProfile) -> CeVerdict:
    """Decide compatibility and return the matching certificate."""
    outcome = lp.solve_feasibility(build_ce_system(game, p))
    if isinstance(outcome, lp.Feasible):
        return Compatible(JointDistribution(game.shape, outcome.point))
    scheme = normalize_dual(game, p, outcome.multipliers)
    return Exploitable(scheme, expected_fee_income(p, scheme.fees))
