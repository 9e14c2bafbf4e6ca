"""Reference Fraction checks for the integer ones in `eqaudit`.

`is_correlated_equilibrium`, `expected_payoff` and `best_deviation` are
the plain Fraction forms of `correlated.is_correlated_equilibrium`,
`nash.expected_payoff` and `nash._best_deviation`, which compute over
common integer denominators; `witness_holds` and `product_income` are
what `verify.verify_witness` and the income of `verify.verify_profilewise`
must return. The integer code must agree with them exactly. They live in
the tests so that the package carries one arithmetic core.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from eqaudit.correlated import deviation_pairs
from eqaudit.games import Game, JointDistribution, MarginalProfile, product_distribution

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
