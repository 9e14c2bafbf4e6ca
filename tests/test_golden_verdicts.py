"""`test-ce` verdicts of seeded games, compared with recorded ones.

`tests/data/ce_golden.jsonl` holds one line per case: the compact
canonical verdict document of `test_ce_compatibility` on a seeded
`oracles.random_game`, with random marginals on even cases and the
marginals of a seeded `random_ce` on odd ones. The corpus has 2- and
3-player games and profiles that leave actions unobserved, so both the
witness and the scheme read-back are pinned to the byte. Rewrite the
file only for a change that is meant to alter certificates:

    PYTHONPATH=src python tests/test_golden_verdicts.py --write
"""

import json
import random
import sys
from pathlib import Path

from eqaudit import correlated, dataio
from eqaudit.oracles import random_ce, random_game, random_marginals

GOLDEN = Path(__file__).parent / "data" / "ce_golden.jsonl"
CASES = 40


def _case(k):
    rng = random.Random(1000 + k)
    game = random_game(rng)
    p = random_ce(game, k).marginals() if k % 2 else random_marginals(rng, game)
    return game, p


def _line(k):
    game, p = _case(k)
    verdict = correlated.test_ce_compatibility(game, p)
    doc = json.loads(dataio.emit_verdict(game, verdict))
    record = {"case": k, "shape": list(game.shape), "verdict": doc}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_corpus_covers_both_arms_and_unobserved_actions():
    kinds = set()
    for k in range(CASES):
        game, p = _case(k)
        record = json.loads(GOLDEN.read_text().splitlines()[k])
        kinds.add(
            (
                record["verdict"]["verdict"],
                game.num_players,
                any(0 in row for row in p.probs),
            )
        )
    assert {verdict for verdict, _, _ in kinds} == {"compatible", "exploitable"}
    assert {players for _, players, _ in kinds} == {2, 3}
    assert ("compatible", 3, True) in kinds and ("exploitable", 3, True) in kinds


def test_verdicts_match_the_recorded_ones():
    recorded = GOLDEN.read_text().splitlines()
    assert len(recorded) == CASES
    for k, line in enumerate(recorded):
        assert _line(k) == line, f"case {k}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verdicts.py --write")
    GOLDEN.write_text("".join(_line(k) + "\n" for k in range(CASES)))
