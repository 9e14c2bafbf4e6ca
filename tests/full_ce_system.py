"""The unreduced coupling system, kept as a test reference.

`correlated.build_ce_system` builds the system on the product of the
supports only. This is the formulation it reduces: one variable per
action profile, every incentive row, and one marginal equality per
(player, action). Tests solve it to confirm that the reduction keeps the
decision.
"""

from fractions import Fraction

from eqaudit import lp
from eqaudit.correlated import incentive_rows

_ZERO = Fraction(0)
_ONE = Fraction(1)


def build_full_ce_system(game, p) -> lp.LinearSystem:
    """Feasibility system for a coupling with marginals `p` that satisfies
    every incentive inequality.

    Variables are the joint probabilities, all nonnegative. Incentive rows
    come first (in `deviation_pairs` order), then one marginal equality
    per (player, action). The rows of any single player already force the
    total mass to 1, so no separate normalization row is added.
    """
    if p.shape != game.shape:
        raise ValueError("marginal profile shape does not match game")
    rows = incentive_rows(game)
    for i, k in enumerate(game.shape):
        for ai in range(k):
            indicator = [
                _ONE if profile[i] == ai else _ZERO for profile in game.profiles()
            ]
            rows.append(lp.eq(indicator, p.probs[i][ai]))
    return lp.LinearSystem(game.num_profiles, tuple(rows))
