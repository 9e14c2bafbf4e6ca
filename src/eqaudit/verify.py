"""Self-contained checks for every certificate the analyzers emit.

This module is the one judge of a verdict: `correlated` returns the
income `verify_actionwise` computes, and `verify_exploitable` checks the
gain `nash` returns. It imports `games` alone, so no verifier can reach
the feasibility solver or the producers' code (`nash`'s best-response
search, `correlated`'s coupling system and its read-back), and neither
can vouch for its own output. The scheme verifiers share only the game's
integer payoff view with the producers; no producer calls
`games.surplus_parts`. They compare each profile's surplus with its fee
in integers, by cross-multiplying numerators and denominators, in one
pass over the whole table; the first violating profile is looked for
only when the largest excess is positive. They build a Fraction only
for the income and for a violation's shortfall. They
return the exact expected fee income rather than a boolean: callers
decide what sign they require, since zero-income schemes are legal
objects. An infeasible scheme raises `SchemeViolation` carrying the
first violating profile in row-major order. `verify_exploitable`, the
one check of an exploitable verdict's claimed income, is where a sign is
required: positive, and equal to the claim.

The verifiers read the integer stores of what they check and never make
a Fraction view: `MarginalProfile.int_rows`, `JointDistribution.int_probs`,
`DeviationKernel.int_rows` (through `surplus_parts`), `int_fees` and
`int_fee`, and each scheme checker sums its income as one integer.
`verify_witness` compares the integer stores of p and of
`JointDistribution.marginals()`, shared model code that adds up q's
support cells as integers over q's one denominator; its incentive check,
`is_correlated_equilibrium`, reads the integer payoff view too, and only
on the lines through q's support, so a point mass or a sparse witness
costs time in its support, not in the game's size.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul, sub

from .games import (
    ActionwiseScheme,
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    check_shape,
    independent_play,
    product_distribution,
    surplus_parts,
)

class SchemeViolation(ValueError):
    """A transfer scheme's pointwise inequality fails at some profile."""

    def __init__(self, profile, labels, shortfall):
        self.profile = tuple(profile)
        self.labels = tuple(labels)
        self.shortfall = shortfall
        super().__init__(
            f"scheme infeasible at profile {'/'.join(self.labels)}: "
            f"fees exceed deviation surplus by {shortfall}"
        )


class IncomeClaimError(ValueError):
    """An exploitable verdict's feasible scheme does not earn the positive
    income the verdict claims; `income` is what it does earn."""

    def __init__(self, income, claimed):
        self.income = income
        super().__init__(f"scheme earns {income}, not the claimed {claimed}")


def is_correlated_equilibrium(game: Game, q: JointDistribution) -> bool:
    """Direct check of every incentive inequality, no solver involved.

    The mass is q's integer store, `JointDistribution.int_probs`. Per
    player, the lines that carry mass are read off its support, and their
    `Game.int_payoffs` are put over the lcm of their denominators, so
    each deviation pair is one integer comparison."""
    check_shape(game, q)
    mass, _scale = q.int_probs
    support = list(itertools.compress(range(len(mass)), mass))
    for i, (k, step) in enumerate(zip(game.shape, game.strides)):
        pay, pay_dens = game.int_payoffs[i]
        # The supported profiles of each line, keyed by its start: profile
        # f is where i plays a = (f // step) % k, on the line at f - a*step.
        lines = {}
        for f in support:
            a = f // step % k
            lines.setdefault(f - a * step, []).append((a, mass[f]))
        common = lcm(*(pay_dens[start] for start in lines))
        # told[a][b]: i's scaled payoff from playing b, summed over the
        # mass of the profiles where i is told a.
        told = [[0] * k for _ in range(k)]
        for start, cells in lines.items():
            factor = common // pay_dens[start]
            values = [n * factor for n in pay[start : start + k * step : step]]
            for a, m in cells:
                told[a] = [t + m * v for t, v in zip(told[a], values)]
        if any(row[a] < max(row) for a, row in enumerate(told)):
            return False
    return True


def verify_witness(game: Game, p: MarginalProfile, q: JointDistribution) -> bool:
    """True iff `q` has exactly the marginals `p` and satisfies every
    incentive inequality."""
    check_shape(game, q, p)
    return q.marginals() == p and is_correlated_equilibrium(game, q)


def verify_nash(game: Game, p: MarginalProfile) -> bool:
    """True iff the product of `p` satisfies every incentive inequality,
    which holds exactly when every supported action is a best response."""
    return is_correlated_equilibrium(game, product_distribution(p))


def _check_fees(game: Game, kernel: DeviationKernel, fees, fee_dens) -> None:
    """Raise `SchemeViolation` at the first profile, row-major, whose fee,
    given as columns of numerators and positive denominators, one entry
    per profile, exceeds the surplus. Every profile's excess is formed in
    one pass; the violation is looked for only once its maximum is
    positive."""
    nums, dens = surplus_parts(game, kernel)
    excess = list(map(sub, map(mul, fees, dens), map(mul, nums, fee_dens)))
    if max(excess) > 0:
        flat = next(f for f, e in enumerate(excess) if e > 0)
        profile = next(itertools.islice(game.profiles(), flat, None))
        raise SchemeViolation(
            profile,
            game.profile_labels(profile),
            Fraction(excess[flat], fee_dens[flat] * dens[flat]),
        )


def verify_actionwise(game: Game, p: MarginalProfile, scheme) -> Fraction:
    """Check an action-wise scheme pointwise and return its expected
    fee income under `p`."""
    check_shape(game, scheme.kernel, p)
    scale = lcm(*(den for _nums, den in scheme.int_fees))
    scaled = [[n * (scale // den) for n in nums] for nums, den in scheme.int_fees]
    totals = list(map(sum, itertools.product(*scaled)))
    _check_fees(game, scheme.kernel, totals, [scale] * len(totals))
    # sum_i sum_a (w_ia / d_i) * (f_ia / scale), over the lcm of the d_i.
    den = lcm(*(d for _w, d in p.int_rows))
    income = sum(
        sum(map(mul, w, f)) * (den // d) for (w, d), f in zip(p.int_rows, scaled)
    )
    return Fraction(income, den * scale)


def verify_profilewise(game: Game, p: MarginalProfile, scheme) -> Fraction:
    """Check a profile-wise scheme pointwise and return its expected fee
    income under the product distribution of `p`."""
    check_shape(game, scheme.kernel, p)
    fees, fee_dens = scheme.int_fee
    if len(fees) != game.num_profiles:
        raise ValueError("fee table length does not match game")
    _check_fees(game, scheme.kernel, fees, fee_dens)
    cells, den = independent_play(game.shape, p.int_rows)
    fee_den = lcm(*(fee_dens[flat] for flat, _ in cells))
    income = sum(
        weight * fees[flat] * (fee_den // fee_dens[flat]) for flat, weight in cells
    )
    return Fraction(income, den * fee_den)


def verify_scheme(game: Game, p: MarginalProfile, scheme) -> Fraction:
    """Check a scheme with the checker of its kind and return its income."""
    if isinstance(scheme, ActionwiseScheme):
        return verify_actionwise(game, p, scheme)
    return verify_profilewise(game, p, scheme)


def verify_exploitable(game: Game, p: MarginalProfile, verdict) -> Fraction:
    """Check an `Exploitable` verdict's scheme with `verify_scheme` and
    return its income; raise `IncomeClaimError` unless that income is
    positive and equal to `verdict.expected_profit`."""
    income = verify_scheme(game, p, verdict.scheme)
    if not 0 < income == verdict.expected_profit:
        raise IncomeClaimError(income, verdict.expected_profit)
    return income
