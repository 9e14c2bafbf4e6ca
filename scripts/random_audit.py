#!/usr/bin/env python3
"""Randomized cross-validation of the analyzers. Samples small games,
audits equilibrium-derived and random profiles, and passes every CE and
Nash verdict to `oracles.cross_check`, the `--oracle` check of the command
line. It re-verifies each certificate and its claimed income with
`verify`, and judges Nash status with `verify.verify_nash`, which checks
the product of the profile against the incentive inequalities without the
Nash test's best-response search. Equilibrium-derived profiles must also
come back compatible. Any disagreement raises.

    python scripts/random_audit.py --games 50 --profiles 100 --seed 7
"""

import argparse
import random
import time

from eqaudit import correlated, nash
from eqaudit.correlated import Compatible
from eqaudit.nash import IsNash
from eqaudit.oracles import cross_check, random_ce, random_game, random_marginals


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=50)
    parser.add_argument("--profiles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    games = [random_game(rng) for _ in range(args.games)]
    start = time.monotonic()
    checked = 0  # verdicts passed through cross_check

    for idx, game in enumerate(games):
        q = random_ce(game, seed=args.seed * 1000 + idx)
        p = q.marginals()
        verdict = correlated.test_ce_compatibility(game, p)
        assert isinstance(verdict, Compatible), "equilibrium marginals misjudged"
        cross_check(game, p, verdict)
        checked += 1
    print(f"{args.games} equilibrium-derived profiles: all compatible")

    counts = {"compatible": 0, "exploitable": 0, "nash": 0}
    for k in range(args.profiles):
        game = games[rng.randrange(len(games))]
        p = random_marginals(rng, game)
        verdict = correlated.test_ce_compatibility(game, p)
        cross_check(game, p, verdict)
        checked += 1
        counts["compatible" if isinstance(verdict, Compatible) else "exploitable"] += 1
        nash_verdict = nash.test_nash_exploitability(game, p)
        cross_check(game, p, nash_verdict)
        checked += 1
        if isinstance(nash_verdict, IsNash):
            counts["nash"] += 1

    elapsed = time.monotonic() - start
    print(
        f"{args.profiles} random profiles: {counts['compatible']} compatible, "
        f"{counts['exploitable']} exploitable, {counts['nash']} Nash"
    )
    print(f"oracle cross-checks: {checked} cross_check verdicts, no disagreements")
    print(f"done in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
