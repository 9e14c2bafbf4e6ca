"""Self-contained checks for every certificate the analyzers emit.

This module is the one judge of a verdict: `correlated` returns the
income `verify_actionwise` computes, and `verify_exploitable` checks the
gain `nash` returns. It imports `games` alone, so no verifier can reach
the feasibility solver or the producers' code (`nash`'s best-response
search, `correlated`'s coupling system and its read-back), and neither
can vouch for its own output. The scheme verifiers share only the game's
integer payoff view with the producers; no producer calls
`games.surplus_parts`. They compare each profile's surplus with its fee
in integers, by cross-multiplying numerators and denominators, and build
a Fraction only for the income and for a violation's shortfall. They
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
`JointDistribution.marginals()`, shared model code that sums q's
marginals as integers over q's one denominator; its incentive check,
`is_correlated_equilibrium`, reads the integer payoff view too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

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

    The mass is q's integer store, `JointDistribution.int_probs`, and, per
    player, the `Game.int_payoffs` of the lines that carry mass are put
    over the lcm of their denominators, so each deviation pair is one
    integer comparison."""
    check_shape(game, q)
    mass, _scale = q.int_probs
    for i, (k, step) in enumerate(zip(game.shape, game.strides)):
        pay, pay_dens = game.int_payoffs[i]
        lines = [range(start, start + k * step, step) for start in game.line_starts(i)]
        lines = [line for line in lines if any(mass[f] for f in line)]
        common = lcm(*(pay_dens[line[0]] for line in lines))
        # told[a][b]: i's scaled payoff from playing b, summed over the
        # mass of the profiles where i is told a.
        told = [[0] * k for _ in range(k)]
        for line in lines:
            factor = common // pay_dens[line[0]]
            values = [pay[f] * factor for f in line]
            for a, f in enumerate(line):
                if mass[f]:
                    told[a] = [t + mass[f] * v for t, v in zip(told[a], values)]
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


def _check_fees(game: Game, kernel: DeviationKernel, fees) -> None:
    """Raise `SchemeViolation` at the first profile, row-major, whose fee,
    given as `(numerator, positive denominator)`, exceeds the surplus."""
    nums, dens = surplus_parts(game, kernel)
    for profile, num, den, (fee, fee_den) in zip(game.profiles(), nums, dens, fees):
        excess = fee * den - num * fee_den
        if excess > 0:
            raise SchemeViolation(
                profile, game.profile_labels(profile), Fraction(excess, fee_den * den)
            )


def verify_actionwise(game: Game, p: MarginalProfile, scheme) -> Fraction:
    """Check an action-wise scheme pointwise and return its expected
    fee income under `p`."""
    check_shape(game, scheme.kernel, p)
    scale = lcm(*(den for _nums, den in scheme.int_fees))
    scaled = [[n * (scale // den) for n in nums] for nums, den in scheme.int_fees]
    totals = map(sum, itertools.product(*scaled))
    _check_fees(game, scheme.kernel, ((total, scale) for total in totals))
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
    _check_fees(game, scheme.kernel, zip(fees, fee_dens))
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
