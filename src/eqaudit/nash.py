"""Nash equilibrium test and profile-wise exploitation certificates.

Whether a marginal profile is a Nash equilibrium is directly checkable:
every action a player uses must be a best response to the independent
mixture of the others. For profiles that fail, this module also produces
a certificate in the same currency as the correlated test: a deviation
kernel plus an aggregate fee per action profile, feasible at every
profile and with strictly positive expected income under the product
distribution. No solver is needed: the kernel makes the one unilateral
deviation that gains most, and the fee is its surplus (compare Nau and
McCardle, "Coherent behavior in noncooperative games", JET 1990). A
non-equilibrium gets the same `Exploitable` verdict as the correlated
test, imported from `correlated`, carrying a `ProfilewiseScheme`. The
pinned LP `build_nash_system` is kept as a reference formulation only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import lp
from .correlated import Exploitable, incentive_rows
from .games import (
    DeviationKernel,
    Game,
    MarginalProfile,
    as_fraction,
    product_distribution,
    surplus_table,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ProfilewiseScheme:
    """An aggregate fee per full action profile plus a deviation kernel.

    Feasible when the fee at each profile is at most the aggregate
    deviation surplus there.
    """

    fee: tuple[Fraction, ...]
    kernel: DeviationKernel

    def __post_init__(self):
        object.__setattr__(self, "fee", tuple(as_fraction(v) for v in self.fee))


@dataclass(frozen=True)
class IsNash:
    pass


NashVerdict = IsNash | Exploitable


def expected_payoff(game: Game, p: MarginalProfile, i: int, action: int) -> Fraction:
    """Player `i`'s expected payoff for playing `action` against the
    independent mixture of everyone else."""
    # Per other player, (flat offset, probability) of each supported action.
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


def _best_deviation(game: Game, p: MarginalProfile):
    """`(gain, i, a, b)` for the most profitable switch of a supported
    action `a` of player `i` to `i`'s lowest-index best reply `b`, where
    gain = p_i(a) * (u_i(b, p_-i) - u_i(a, p_-i)); None when `p` is Nash.
    Ties go to the lowest player, then the lowest action."""
    if p.shape != game.shape:
        raise ValueError("marginal profile shape does not match game")
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


def is_nash(game: Game, p: MarginalProfile) -> bool:
    """True iff every supported action is a best response.

    Only actions with positive probability impose an inequality; actions
    off the support still count as deviation targets.
    """
    return _best_deviation(game, p) is None


def build_nash_system(game: Game, p: MarginalProfile) -> lp.LinearSystem:
    """Incentive system with the joint distribution pinned, entry by
    entry, to the product of `p`. Feasible exactly when `p` is Nash."""
    q = product_distribution(p)
    rows = incentive_rows(game)
    for flat in range(game.num_profiles):
        indicator = [_ZERO] * game.num_profiles
        indicator[flat] = _ONE
        rows.append(lp.eq(indicator, q.probs[flat]))
    return lp.LinearSystem(game.num_profiles, tuple(rows), (True,) * game.num_profiles)


def test_nash_exploitability(game: Game, p: MarginalProfile) -> NashVerdict:
    """IsNash, or a profile-wise scheme built from the best deviation.

    The kernel is the identity except that player `i`, told `a`, plays
    `b`; the fee at each profile is that kernel's surplus there, so the
    scheme is feasible by construction. Its income under the product of
    `p` is exactly the deviation's gain.
    """
    deviation = _best_deviation(game, p)
    if deviation is None:
        return IsNash()
    gain, i, a, b = deviation
    rows = [list(r) for r in DeviationKernel.identity(game.shape).rows]
    rows[i][a] = rows[i][b]
    kernel = DeviationKernel(tuple(map(tuple, rows)))
    return Exploitable(ProfilewiseScheme(surplus_table(game, kernel), kernel), gain)
