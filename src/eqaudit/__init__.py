"""Exact-arithmetic auditor for equilibrium compatibility of observed play.

Given a finite simultaneous-move game and the frequency with which each
player takes each action (but not the joint frequencies), decide whether
that behavior could come from a correlated equilibrium, or whether it
constitutes a Nash equilibrium. Both answers come with machine-checkable
certificates: a witness joint distribution, or a transfer scheme whose
expected fee income is strictly positive. All arithmetic is over exact
rationals.
"""

from . import correlated, dataio, games, lp, nash, oracles, verify
from .correlated import test_ce_compatibility
from .games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    product_distribution,
    surplus,
    surplus_table,
)
from .nash import is_nash, test_nash_exploitability
from .verify import (
    is_correlated_equilibrium,
    verify_actionwise,
    verify_profilewise,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "DeviationKernel",
    "Game",
    "JointDistribution",
    "MarginalProfile",
    "correlated",
    "dataio",
    "games",
    "is_correlated_equilibrium",
    "is_nash",
    "lp",
    "nash",
    "oracles",
    "product_distribution",
    "surplus",
    "surplus_table",
    "test_ce_compatibility",
    "test_nash_exploitability",
    "verify",
    "verify_actionwise",
    "verify_profilewise",
    "verify_witness",
]
