"""The unreduced coupling system, kept as a test reference.

`correlated.build_ce_system` builds the system on the product of the
supports only. This is the formulation it reduces: one variable per
action profile, every incentive row, and one marginal equality per
(player, action). Tests solve it to confirm that the reduction keeps the
decision.
"""

from eqaudit import lp
from eqaudit.correlated import incentive_rows


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
    for i, (nums, den) in enumerate(p.int_rows):
        for ai, num in enumerate(nums):
            indicator = [den * (profile[i] == ai) for profile in game.profiles()]
            rows.append(lp.Row(indicator, lp.EQ, num, den))
    return lp.LinearSystem(game.num_profiles, tuple(rows))
