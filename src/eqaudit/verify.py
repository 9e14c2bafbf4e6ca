"""Self-contained checks for every certificate the analyzers emit.

Each verifier re-derives its verdict from exact arithmetic over the game
data; none of them calls the feasibility solver, so a solver bug cannot
vouch for its own output. The scheme verifiers share payoff data with
the producers, the game's integer view and `games.surplus_parts`, but
never pivoting code: they compare each profile's surplus with its fee in
integers, by cross-multiplying numerators and denominators, and build a
Fraction only for the income and for a violation's shortfall. They
return the exact expected fee income rather than a boolean: callers
decide what sign they require, since zero-income schemes are legal
objects. An infeasible scheme raises `SchemeViolation` carrying the
first violating profile in row-major order. `verify_exploitable`, the
one check of an exploitable verdict's claimed income, is where a sign is
required: positive, and equal to the claim.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .correlated import (
    ActionwiseScheme,
    expected_fee_income,
    is_correlated_equilibrium,
)
from .games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    product_distribution,
    surplus_parts,
)

_ZERO = Fraction(0)


class SchemeViolation(Exception):
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


def verify_witness(game: Game, p: MarginalProfile, q: JointDistribution) -> bool:
    """True iff `q` has exactly the marginals `p` and satisfies every
    incentive inequality."""
    if q.shape != game.shape or p.shape != game.shape:
        raise ValueError("shapes do not match game")
    for i in range(game.num_players):
        if q.marginal(i) != p.probs[i]:
            return False
    return is_correlated_equilibrium(game, q)


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
    if scheme.kernel.shape != game.shape or p.shape != game.shape:
        raise ValueError("scheme shape does not match game")
    scale = lcm(*(fee.denominator for row in scheme.fees for fee in row))
    scaled = [
        [fee.numerator * (scale // fee.denominator) for fee in row]
        for row in scheme.fees
    ]
    totals = map(sum, itertools.product(*scaled))
    _check_fees(game, scheme.kernel, ((total, scale) for total in totals))
    return expected_fee_income(p, scheme.fees)


def verify_profilewise(game: Game, p: MarginalProfile, scheme) -> Fraction:
    """Check a profile-wise scheme pointwise and return its expected fee
    income under the product distribution of `p`."""
    if scheme.kernel.shape != game.shape or p.shape != game.shape:
        raise ValueError("scheme shape does not match game")
    if len(scheme.fee) != game.num_profiles:
        raise ValueError("fee table length does not match game")
    _check_fees(
        game, scheme.kernel, ((fee.numerator, fee.denominator) for fee in scheme.fee)
    )
    q = product_distribution(p)
    return sum((qa * fa for qa, fa in zip(q.probs, scheme.fee)), _ZERO)


def verify_exploitable(game: Game, p: MarginalProfile, verdict) -> Fraction:
    """Check an `Exploitable` verdict's scheme with the checker of its kind
    and return its income; raise `IncomeClaimError` unless that income is
    positive and equal to `verdict.expected_profit`."""
    if isinstance(verdict.scheme, ActionwiseScheme):
        income = verify_actionwise(game, p, verdict.scheme)
    else:
        income = verify_profilewise(game, p, verdict.scheme)
    if not 0 < income == verdict.expected_profit:
        raise IncomeClaimError(income, verdict.expected_profit)
    return income
