#!/usr/bin/env python3
"""Randomized cross-validation of the analyzers against the brute-force
oracles. Samples small games, audits equilibrium-derived and random
profiles, and re-verifies every certificate; every CE and Nash verdict
also goes through `oracles.cross_check`, the `--oracle` check of the
command line. Any disagreement raises.

    python scripts/random_audit.py --games 50 --profiles 100 --seed 7
"""

import argparse
import random
import time
from fractions import Fraction as F

from eqaudit import correlated, nash
from eqaudit.correlated import Compatible
from eqaudit.nash import IsNash, is_nash
from eqaudit.oracles import (
    coupling_scan_2x2,
    cross_check,
    exhaustive_scheme_search,
    random_ce,
    random_game,
    random_marginals,
)
from eqaudit.verify import verify_actionwise, verify_profilewise, verify_witness


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
        assert verify_witness(game, p, q)
        verdict = correlated.test_ce_compatibility(game, p)
        assert isinstance(verdict, Compatible), "equilibrium marginals misjudged"
        cross_check(game, p, verdict, seed=idx)
        checked += 1
    print(f"{args.games} equilibrium-derived profiles: all compatible")

    counts = {"compatible": 0, "exploitable": 0, "nash": 0, "scans": 0, "searches": 0}
    grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    for k in range(args.profiles):
        game = games[rng.randrange(len(games))]
        p = random_marginals(rng, game)
        verdict = correlated.test_ce_compatibility(game, p)
        cross_check(game, p, verdict, seed=k)
        checked += 1
        small_support = all(
            len(p.support(i)) <= 2 for i in range(game.num_players)
        )
        if isinstance(verdict, Compatible):
            counts["compatible"] += 1
            assert verify_witness(game, p, verdict.witness)
            if game.num_players == 2 and small_support:
                assert exhaustive_scheme_search(game, p, grid) is None
                counts["searches"] += 1
        else:
            counts["exploitable"] += 1
            income = verify_actionwise(game, p, verdict.scheme)
            assert income == verdict.expected_profit > 0
            if game.num_players == 2 and small_support:
                assert coupling_scan_2x2(game, p, 32) is None
                counts["scans"] += 1
        nash_verdict = nash.test_nash_exploitability(game, p)
        cross_check(game, p, nash_verdict)
        checked += 1
        assert is_nash(game, p) == isinstance(nash_verdict, IsNash)
        if isinstance(nash_verdict, IsNash):
            counts["nash"] += 1
        else:
            assert (
                verify_profilewise(game, p, nash_verdict.scheme)
                == nash_verdict.expected_profit
                > 0
            )

    elapsed = time.monotonic() - start
    print(
        f"{args.profiles} random profiles: {counts['compatible']} compatible, "
        f"{counts['exploitable']} exploitable, {counts['nash']} Nash"
    )
    print(
        f"oracle cross-checks: {counts['scans']} coupling scans, "
        f"{counts['searches']} scheme searches, {checked} cross_check verdicts, "
        "no disagreements"
    )
    print(f"done in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
