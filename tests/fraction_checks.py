"""Reference Fraction checks for the integer ones in `eqaudit`.

`is_correlated_equilibrium`, `expected_payoff` and `best_deviation` are
the plain Fraction forms of `correlated.is_correlated_equilibrium`, one
player's row of `games.payoff_numerators` and `nash._best_deviation`,
which compute over common integer denominators; `witness_holds` and `product_income` are
what `verify.verify_witness` and the income of `verify.verify_profilewise`
must return. `verify_outcome`, `check_distribution` and `normalize_dual`
are the Fraction forms of `lp.verify_outcome`, `games._check_distribution`
and `correlated.normalize_dual`, and `eliminate` is the dense form of the
tableau's sparse elimination step, `lp._eliminate`, with the leaving
column written out. The package code must
agree with them exactly. They live in the tests so that the package
carries one arithmetic core.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from eqaudit import lp, verify
from eqaudit.correlated import ActionwiseScheme, Exploitable, _kept, deviation_pairs
from eqaudit.games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    product_distribution,
    surplus,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_correlated_equilibrium(game: Game, q: JointDistribution) -> bool:
    """Every incentive inequality, summed in Fractions pair by pair."""
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


def expected_payoff(game: Game, p: MarginalProfile, i: int, action: int) -> Fraction:
    """Player `i`'s expected payoff for `action` against the independent
    mixture of everyone else."""
    support = [
        [(a * step, w) for a, w in enumerate(row) if w]
        for j, (row, step) in enumerate(zip(p.probs, game.strides))
        if j != i
    ]
    payoff = game.payoffs[i]
    origin = action * game.strides[i]
    total = _ZERO
    for combo in itertools.product(*support):
        flat = origin + sum(offset for offset, _ in combo)
        total += prod((w for _, w in combo), start=_ONE) * payoff[flat]
    return total


def best_deviation(game: Game, p: MarginalProfile):
    """`(gain, i, a, b)` of the most profitable switch to a lowest-index
    best reply, first in (player, action) order on ties; None when Nash."""
    found = None
    for i, k in enumerate(game.shape):
        values = [expected_payoff(game, p, i, a) for a in range(k)]
        best = max(values)
        reply = values.index(best)
        for a in range(k):
            gain = p.probs[i][a] * (best - values[a])
            if gain > 0 and (found is None or gain > found[0]):
                found = (gain, i, a, reply)
    return found


def witness_holds(game: Game, p: MarginalProfile, q: JointDistribution) -> bool:
    """`q` has the marginals `p` and passes every incentive inequality."""
    return q.marginals() == p and is_correlated_equilibrium(game, q)


def product_income(p: MarginalProfile, fee) -> Fraction:
    """Expected fee under the product distribution of `p`."""
    q = product_distribution(p)
    return sum((qa * fa for qa, fa in zip(q.probs, fee)), _ZERO)


def verify_outcome(system: lp.LinearSystem, outcome) -> bool:
    """Either arm substituted into the system, in Fractions."""
    if isinstance(outcome, lp.Feasible):
        x = outcome.point
        if len(x) != system.num_vars:
            return False
        if any(v < 0 for v in x):
            return False
        for row in system.rows:
            value = sum(c * v for c, v in zip(row.coeffs, x) if c)
            if row.sense == lp.GE:
                if value < row.rhs:
                    return False
            elif value != row.rhs:
                return False
        return True
    if isinstance(outcome, lp.Infeasible):
        y = outcome.multipliers
        if len(y) != len(system.rows):
            return False
        if any(yk < 0 for yk, row in zip(y, system.rows) if row.sense == lp.GE):
            return False
        combined = [_ZERO] * system.num_vars
        for yk, row in zip(y, system.rows):
            if yk:
                for j, c in enumerate(row.coeffs):
                    if c:
                        combined[j] += yk * c
        if any(total > 0 for total in combined):
            return False
        return sum(yk * row.rhs for yk, row in zip(y, system.rows)) > 0
    raise TypeError(f"not a feasibility outcome: {outcome!r}")


def check_distribution(values, what: str) -> None:
    """Raise ValueError unless `values` is a probability row."""
    if any(v < 0 for v in values):
        raise ValueError(f"{what} has a negative entry")
    if sum(values) != 1:
        raise ValueError(f"{what} does not sum to 1")


def normalize_dual(game: Game, p: MarginalProfile, multipliers) -> Exploitable:
    """Multipliers of the coupling system read back as a scheme, scaled
    and filled in Fractions, and checked by `verify_actionwise`."""
    supports, pairs, marginals = _kept(game, p)
    multipliers = tuple(multipliers)
    off_diag = [[[_ZERO] * k for _ in range(k)] for k in game.shape]
    for (i, ai, aj), y in zip(pairs, multipliers):
        off_diag[i][ai][aj] = y
    max_row_sum = max(sum(row) for player_rows in off_diag for row in player_rows)
    scale = _ONE if max_row_sum <= 1 else _ONE / max_row_sum
    for player_rows in off_diag:
        for ai, row in enumerate(player_rows):
            row[:] = [scale * v for v in row]
            row[ai] = _ONE - sum(row)
    kernel = DeviationKernel(off_diag)
    fees = [[_ZERO] * k for k in game.shape]
    for (i, a), y in zip(marginals, multipliers[len(pairs) :]):
        fees[i][a] = scale * y
    for profile in game.profiles():
        off = [i for i, a in enumerate(profile) if a not in supports[i]]
        if off:
            i, a = off[0], profile[off[0]]
            paid = sum(fees[j][b] for j, b in enumerate(profile) if j not in off)
            fees[i][a] = min(fees[i][a], surplus(game, kernel, profile) - paid)
    scheme = ActionwiseScheme(tuple(map(tuple, fees)), kernel)
    return Exploitable(scheme, verify.verify_actionwise(game, p, scheme))


def eliminate(row2: list[int], row: list[int], col: int) -> list[int]:
    """Zero `col` in `row2` with the pivot row `row`, cross-multiplying
    every column, then divide out the gcd of the result."""
    p = row[col]
    f = row2[col]
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    new = [a * p - f * b for a, b in zip(row2, row)]
    g = gcd(*new)
    if g != 1:
        new = [v // g for v in new]
    return new
