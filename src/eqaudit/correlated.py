"""Compatibility of observed marginals with correlated play.

Given a game and one action distribution per player, decide whether any
joint distribution with those marginals is a correlated equilibrium. The
answer is constructive in both directions: either a witness coupling that
passes the incentive inequalities, or an action-wise transfer scheme
(per-player fees plus a deviation kernel) whose expected fee income under
the observed marginals is strictly positive while the aggregate deviation
surplus covers the fees at every action profile. The scheme is obtained by
normalizing the Farkas multipliers of the infeasible coupling system.

The coupling system is built once per request and presolved before the
solver sees it. An action with observed frequency 0 forces zero mass on
every profile that uses it, so only the profiles in the product of the
supports stay as variables, only the incentive rows whose recommended
action is supported stay (their replacement action may be off the
support), and only the marginal rows of supported actions stay, less one
row of every player after the first, which player 0's rows already imply
through the total mass. The reduced outcome is lifted back to the full
system without a solver. A witness is 0 on every dropped profile. Farkas
multipliers are 0 on the dropped incentive and redundant rows; each
dropped profile is charged to the off-support action of the lowest-index
player who plays one there, and that action's marginal row (rhs 0, free
sign) gets -max(0, c), where c is the largest combination that the kept
rows give a profile charged to it. Every dropped profile then combines to
at most 0 and the right-hand side total is unchanged, so the lifted
multipliers certify the full system. The lifted outcome is re-checked on
the full system by `lp.verify_outcome` before a verdict is returned.
"""

from __future__ import annotations

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


def normalize_dual(game: Game, system: lp.LinearSystem, multipliers) -> ActionwiseScheme:
    """Turn a Farkas certificate of the coupling system `system`, as built
    by `build_ce_system` for this game, into a transfer scheme with a
    row-stochastic kernel.

    Raises ValueError unless the multipliers certify that `system` is
    infeasible. Incentive-row multipliers become off-diagonal kernel mass
    and marginal-row multipliers become fees. Both are scaled by a common
    positive factor so that every off-diagonal row sum is at most 1, and
    each diagonal entry absorbs the remainder; the diagonal carries a zero
    payoff coefficient, so the pointwise inequalities are unaffected.
    """
    multipliers = tuple(as_fraction(m) for m in multipliers)
    shape = game.shape
    if system.num_vars != game.num_profiles or len(system.rows) != sum(
        k * k for k in shape
    ):
        raise ValueError("system is not a coupling system of this game")
    if not lp.verify_outcome(system, lp.Infeasible(multipliers)):
        raise ValueError("multipliers are not an infeasibility certificate "
                         "for this game and profile")
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


@dataclass(frozen=True)
class _Presolve:
    """The coupling system restricted to the support product, with the
    indices that map it back: `cols` are the kept profiles and `rows` the
    kept rows of the full system, both ascending; `dropped` pairs every
    other profile with the marginal row of the off-support action it is
    charged to."""

    reduced: lp.LinearSystem
    cols: tuple[int, ...]
    rows: tuple[int, ...]
    dropped: tuple[tuple[int, int], ...]


def _presolve(game: Game, p: MarginalProfile, system: lp.LinearSystem) -> _Presolve:
    supports = [p.support(i) for i in range(game.num_players)]
    first = len(system.rows) - sum(game.shape)
    marginal_row = []
    for k in game.shape:
        marginal_row.append(first)
        first += k
    cols = []
    dropped = []
    for flat, profile in enumerate(game.profiles()):
        for i, a in enumerate(profile):
            if a not in supports[i]:
                dropped.append((flat, marginal_row[i] + a))
                break
        else:
            cols.append(flat)
    rows = [
        k for k, (i, ai, _aj) in enumerate(deviation_pairs(game)) if ai in supports[i]
    ]
    for i, support in enumerate(supports):
        rows.extend(marginal_row[i] + a for a in (support if i == 0 else support[:-1]))
    reduced = lp.LinearSystem(
        len(cols),
        tuple(
            lp.Row(
                tuple(system.rows[k].coeffs[j] for j in cols),
                system.rows[k].sense,
                system.rows[k].rhs,
            )
            for k in rows
        ),
        (True,) * len(cols),
    )
    return _Presolve(reduced, tuple(cols), tuple(rows), tuple(dropped))


def _lift(
    system: lp.LinearSystem, pre: _Presolve, outcome: lp.FeasibilityOutcome
) -> lp.FeasibilityOutcome:
    """Extend an outcome of `pre.reduced` to the full `system`."""
    if isinstance(outcome, lp.Feasible):
        point = [_ZERO] * system.num_vars
        for j, v in zip(pre.cols, outcome.point):
            point[j] = v
        return lp.Feasible(tuple(point))
    y = [_ZERO] * len(system.rows)
    for k, v in zip(pre.rows, outcome.multipliers):
        y[k] = v
    kept = [(system.rows[k].coeffs, y[k]) for k in pre.rows if y[k]]
    for j, r in pre.dropped:
        combined = sum((yk * coeffs[j] for coeffs, yk in kept if coeffs[j]), _ZERO)
        if -combined < y[r]:
            y[r] = -combined
    return lp.Infeasible(tuple(y))


def test_ce_compatibility(game: Game, p: MarginalProfile) -> CeVerdict:
    """Decide compatibility and return the matching certificate.

    The coupling system is built once, presolved to the product of the
    supports (see the module docstring) and solved there. The outcome is
    lifted back to the full system and re-checked on it by
    `lp.verify_outcome`, on both arms, before the verdict is returned; a
    lifted outcome that fails the check raises RuntimeError.
    """
    system = build_ce_system(game, p)
    pre = _presolve(game, p, system)
    outcome = _lift(system, pre, lp.solve_feasibility(pre.reduced))
    if isinstance(outcome, lp.Feasible):
        if not lp.verify_outcome(system, outcome):
            raise RuntimeError("lifted witness fails the full coupling system")
        return Compatible(JointDistribution(game.shape, outcome.point))
    try:
        scheme = normalize_dual(game, system, outcome.multipliers)
    except ValueError:
        raise RuntimeError("lifted multipliers fail the full coupling system") from None
    return Exploitable(scheme, expected_fee_income(p, scheme.fees))
