"""Every public function that takes a game together with a marginal
profile, a joint distribution or a kernel rejects one of another shape
with a ValueError that says so, through the one check
`games.check_shape`."""

from fractions import Fraction as F

import pytest

from conftest import identity_kernel
from eqaudit import correlated, lp, nash
from eqaudit.correlated import build_ce_system, normalize_dual
from eqaudit.games import (
    ActionwiseScheme,
    JointDistribution,
    MarginalProfile,
    ProfilewiseScheme,
    payoff_numerators,
    product_distribution,
    surplus,
    surplus_parts,
    surplus_table,
)
from eqaudit.nash import build_nash_system, is_nash
from eqaudit.verify import (
    is_correlated_equilibrium,
    verify_actionwise,
    verify_nash,
    verify_profilewise,
    verify_witness,
)

# The coordination game is 2x3; these are 2x4.
WIDE = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 4),) * 4))
WIDE_Q = product_distribution(WIDE)
WIDE_KERNEL = identity_kernel((2, 4))
KERNEL = identity_kernel((2, 3))
Q = JointDistribution.point_mass((2, 3), (0, 0))
P = Q.marginals()

CALLS = {
    "build_ce_system": lambda g: build_ce_system(g, WIDE),
    "normalize_dual": lambda g: normalize_dual(g, WIDE, lp.Infeasible(())),
    "test_ce_compatibility": lambda g: correlated.test_ce_compatibility(g, WIDE),
    "payoff_numerators": lambda g: payoff_numerators(g, WIDE),
    "is_nash": lambda g: is_nash(g, WIDE),
    "test_nash_exploitability": lambda g: nash.test_nash_exploitability(g, WIDE),
    "build_nash_system": lambda g: build_nash_system(g, WIDE),
    "is_correlated_equilibrium": lambda g: is_correlated_equilibrium(g, WIDE_Q),
    "verify_witness-joint": lambda g: verify_witness(g, P, WIDE_Q),
    "verify_witness-marginals": lambda g: verify_witness(g, WIDE, Q),
    "verify_nash": lambda g: verify_nash(g, WIDE),
    "verify_actionwise": lambda g: verify_actionwise(
        g, WIDE, ActionwiseScheme(((0, 0), (0, 0, 0)), KERNEL)
    ),
    "verify_profilewise": lambda g: verify_profilewise(
        g, WIDE, ProfilewiseScheme((0,) * 6, KERNEL)
    ),
    "surplus": lambda g: surplus(g, WIDE_KERNEL, (0, 0)),
    "surplus_parts": lambda g: surplus_parts(g, WIDE_KERNEL),
    "surplus_table": lambda g: surplus_table(g, WIDE_KERNEL),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_a_shape_mismatch_is_rejected(coordination, call):
    with pytest.raises(ValueError, match="shape"):
        call(coordination)
