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
test, a `games` type, carrying a `ProfilewiseScheme`. The
best-response search, `_best_deviation`, reads every player's expected
payoffs from one `games.payoff_numerators` table, as `correlated` does,
and raises ValueError on a profile of the wrong shape; the kernel and
the fee are built as integer columns, the fee read from the game's
integer payoff view, through the `from_columns` constructors. No
verdict uses the pinned LP `build_nash_system`; it is kept because the
benchmark's tracer names it.
"""

from __future__ import annotations

from fractions import Fraction

from . import lp
from .correlated import incentive_rows
from .games import (
    DeviationKernel,
    Exploitable,
    Game,
    IsNash,
    MarginalProfile,
    ProfilewiseScheme,
    check_shape,
    payoff_numerators,
    product_distribution,
)

NashVerdict = IsNash | Exploitable


def _best_deviation(game: Game, p: MarginalProfile):
    """`(gain, i, a, b)` for the most profitable switch of a supported
    action `a` of player `i` to `i`'s lowest-index best reply `b`, where
    gain = p_i(a) * (u_i(b, p_-i) - u_i(a, p_-i)); None when `p` is Nash.
    Ties go to the lowest player, then the lowest action. Each player's
    gains are integers over one denominator, and players are compared by
    cross-multiplying; one Fraction is built, for the gain returned."""
    found, most, most_den = None, 0, 1
    table = payoff_numerators(game, p)
    for i, ((weights, scale), (values, den)) in enumerate(zip(p.int_rows, table)):
        best = max(values)
        gains = [w * (best - v) for w, v in zip(weights, values)]
        top = max(gains)
        if top * most_den > most * scale * den:
            most, most_den = top, scale * den
            found = (i, gains.index(top), values.index(best))
    return None if found is None else (Fraction(most, most_den), *found)


def is_nash(game: Game, p: MarginalProfile) -> bool:
    """True iff every supported action is a best response.

    Only actions with positive probability impose an inequality; actions
    off the support still count as deviation targets.
    """
    return _best_deviation(game, p) is None


def build_nash_system(game: Game, p: MarginalProfile) -> lp.LinearSystem:
    """Incentive system with the joint distribution pinned, entry by
    entry, to the product of `p`. Feasible exactly when `p` is Nash."""
    check_shape(game, p)
    nums, den = product_distribution(p).int_probs
    rows = incentive_rows(game)
    for flat, num in enumerate(nums):
        indicator = [0] * game.num_profiles
        indicator[flat] = den
        rows.append(lp.Row(indicator, lp.EQ, num, den))
    return lp.LinearSystem(game.num_profiles, tuple(rows))


def test_nash_exploitability(game: Game, p: MarginalProfile) -> NashVerdict:
    """IsNash, or a profile-wise scheme built from the best deviation.

    The kernel is the identity except that player `i`, told `a`, plays `b`;
    the fee is that kernel's surplus, `u_i(b, .) - u_i(a, .)` where `i`
    plays `a` and 0 elsewhere, read from `i`'s payoffs along `i`'s lines
    rather than from `surplus_parts`, which the checker uses. Both are built
    from integer columns, with no Fraction. The scheme is feasible by
    construction, and its income under the product of `p` is exactly the
    deviation's gain; one that its constructors refuse is this function's
    fault and raises RuntimeError.
    """
    deviation = _best_deviation(game, p)  # checks the shape
    if deviation is None:
        return IsNash()
    gain, i, a, b = deviation
    rows = [[([int(c == r) for c in range(k)], [1] * k) for r in range(k)]
            for k in game.shape]
    rows[i][a] = rows[i][b]
    (pay, dens), step = game.int_payoffs[i], game.strides[i]
    fee_nums, fee_dens = [0] * game.num_profiles, [1] * game.num_profiles
    for start in game.line_starts(i):  # both profiles share the line's denominator
        flat = start + a * step
        fee_nums[flat], fee_dens[flat] = pay[start + b * step] - pay[flat], dens[start]
    try:
        kernel = DeviationKernel.from_columns(rows)
        scheme = ProfilewiseScheme.from_columns((fee_nums, fee_dens), kernel)
    except ValueError as exc:  # the input passed `check_shape`: a producer's fault
        raise RuntimeError(f"no checked certificate: {exc}") from None
    return Exploitable(scheme, gain)
