"""Acceptance gate: every criterion below runs exactly (zero tolerance)
and prints one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

1. Dominated-action family: any profile giving the dominated column mass is
   exploitable; the half/half rebate scheme and its surplus table check out.
2. Miscoordination profile: exploitable, the explicit fee-9/rebate-10 scheme
   earns exactly 7/4, and its surplus table checks out.
3. Forward direction on a 200-game random corpus: marginals of sampled
   equilibria always come back compatible, within 60 seconds.
4. Exclusivity on random profiles: exactly one verdict arm, always verified;
   grid oracles never contradict a verdict on 2x2-support instances.
5. Nash agreement: the direct best-response check and the certificate route
   agree everywhere; the fully mixed equilibrium passes both audits.
6. Dominated actions never appear in sampled equilibria (50 seeds).
7. Verdict arm is invariant under positive payoff scaling and action
   relabeling, with certificates mapped equivariantly (50 instances).
8. All file formats round-trip byte-exactly and the CLI is deterministic.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from conftest import (
    permute_actionwise,
    permute_game,
    permute_joint,
    permute_marginals,
)
from eqaudit import correlated, dataio, nash
from eqaudit.correlated import ActionwiseScheme, Compatible, Exploitable
from eqaudit.games import Game, MarginalProfile, surplus_table
from eqaudit.nash import IsNash, is_nash
from eqaudit.oracles import random_ce, random_game, random_marginals
from eqaudit.verify import verify_actionwise, verify_profilewise, verify_witness
from grid_oracles import coupling_scan_2x2, exhaustive_scheme_search

CORPUS_SEED = 163
CORPUS_SIZE = 200
PROFILES_PER_CLASS = 200


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} FAIL - {description}")
        raise
    print(f"acceptance {number} PASS - {description}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    games = [random_game(rng) for _ in range(CORPUS_SIZE)]
    assert {g.num_players for g in games} == {2, 3}
    return games


@pytest.fixture(scope="module")
def profile_pool(corpus):
    """PROFILES_PER_CLASS random (game, marginals) pairs per player count."""
    pools = {}
    for n in (2, 3):
        games = [g for g in corpus if g.num_players == n]
        rng = random.Random(1000 + n)
        pools[n] = [
            (games[k % len(games)], random_marginals(rng, games[k % len(games)]))
            for k in range(PROFILES_PER_CLASS)
        ]
    return pools


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "eqaudit", *args], capture_output=True, text=True
    )


def test_c1_dominated_action_exploitation(
    coordination, halfhalf_kernel, tmp_path
):
    with criterion(1, "dominated-action profiles exploitable; scheme and table exact"):
        explicit = ActionwiseScheme(
            ((F(0), F(0)), (F(0), F(0), F(1, 2))), halfhalf_kernel
        )
        rng = random.Random(41)
        for r_mass in (F(1, 4), F(1, 2), F(1)):
            for _ in range(20):
                t = F(rng.randint(0, 16), 16)
                w = F(rng.randint(0, 8), 8)
                rest = 1 - r_mass
                p = MarginalProfile(
                    ((t, 1 - t), (rest * w, rest * (1 - w), r_mass))
                )
                verdict = correlated.test_ce_compatibility(coordination, p)
                assert isinstance(verdict, Exploitable)
                income = verify_actionwise(coordination, p, verdict.scheme)
                assert income == verdict.expected_profit > 0
                # the explicit half/half rebate scheme also exploits p
                assert verify_actionwise(coordination, p, explicit) == r_mass / 2 > 0
        # surplus table of the half/half kernel, derived by hand from the
        # deviation formula: only the dominated column gains, 9/2 against
        # the top row and 1/2 against the bottom row
        expected = ("0", "0", "9/2", "0", "0", "1/2")
        assert surplus_table(coordination, halfhalf_kernel) == tuple(
            F(v) for v in expected
        )
        game_file = tmp_path / "game.json"
        game_file.write_text(dataio.emit_game(coordination))
        kernel_file = tmp_path / "halfhalf.json"
        kernel_file.write_text(dataio.emit_kernel(coordination, halfhalf_kernel))
        res = run_cli("surplus", str(game_file), str(kernel_file))
        assert res.returncode == 0
        assert json.loads(res.stdout)["surplus"] == list(expected)


def test_c2_miscoordination_reproduction(
    coordination, skewed_profile, column_swap_kernel, tmp_path
):
    with criterion(2, "miscoordination profile exploitable; 7/4 income and table exact"):
        verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
        assert isinstance(verdict, Exploitable)
        income = verify_actionwise(coordination, skewed_profile, verdict.scheme)
        assert income == verdict.expected_profit > 0
        explicit = ActionwiseScheme(
            ((F(0), F(-10)), (F(0), F(9), F(0))), column_swap_kernel
        )
        assert verify_actionwise(coordination, skewed_profile, explicit) == F(7, 4)
        expected = ("0", "9", "0", "0", "-1", "0")
        assert surplus_table(coordination, column_swap_kernel) == tuple(
            F(v) for v in expected
        )
        game_file = tmp_path / "game.json"
        game_file.write_text(dataio.emit_game(coordination))
        kernel_file = tmp_path / "swap.json"
        kernel_file.write_text(dataio.emit_kernel(coordination, column_swap_kernel))
        res = run_cli("surplus", str(game_file), str(kernel_file))
        assert res.returncode == 0
        assert json.loads(res.stdout)["surplus"] == list(expected)


def test_c3_forward_direction_on_corpus(corpus):
    with criterion(3, "sampled-equilibrium marginals always compatible, under 60s"):
        start = time.monotonic()
        for idx, game in enumerate(corpus):
            q = random_ce(game, seed=idx)
            p = q.marginals()
            assert verify_witness(game, p, q)
            verdict = correlated.test_ce_compatibility(game, p)
            assert isinstance(verdict, Compatible)
            assert verify_witness(game, p, verdict.witness)
        elapsed = time.monotonic() - start
        print(f"  (corpus of {len(corpus)} games in {elapsed:.1f}s)")
        assert elapsed < 60


def test_c4_exclusivity_and_grid_oracles(corpus, profile_pool):
    with criterion(4, "one verified arm per profile; grid oracles never contradict"):
        scans = 0
        for n, pairs in profile_pool.items():
            for game, p in pairs:
                verdict = correlated.test_ce_compatibility(game, p)
                assert isinstance(verdict, (Compatible, Exploitable))
                if isinstance(verdict, Compatible):
                    assert verify_witness(game, p, verdict.witness)
                else:
                    income = verify_actionwise(game, p, verdict.scheme)
                    assert income == verdict.expected_profit > 0
                if (
                    n == 2
                    and isinstance(verdict, Exploitable)
                    and (len(p.support(0)), len(p.support(1))) == (2, 2)
                ):
                    assert coupling_scan_2x2(game, p, 64) is None
                    scans += 1
        # compatible side: marginals of sampled equilibria on two-player
        # games with 2x2 support must defeat the scheme search
        grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
        searches = 0
        for idx, game in enumerate(corpus):
            if game.num_players != 2:
                continue
            p = random_ce(game, seed=10_000 + idx).marginals()
            if (len(p.support(0)), len(p.support(1))) != (2, 2):
                continue
            assert exhaustive_scheme_search(game, p, grid) is None
            searches += 1
            if searches >= 25:
                break
        print(f"  (coupling scans: {scans}, scheme searches: {searches})")
        assert scans >= 20 and searches >= 10


def test_c5_nash_agreement(corpus, profile_pool, coordination, mixed_equilibrium):
    with criterion(5, "direct Nash check agrees with the certificate route"):
        exploited = equilibria = 0
        for pairs in profile_pool.values():
            for game, p in pairs:
                direct = is_nash(game, p)
                verdict = nash.test_nash_exploitability(game, p)
                assert direct == isinstance(verdict, IsNash)
                if direct:
                    equilibria += 1
                else:
                    exploited += 1
                    income = verify_profilewise(game, p, verdict.scheme)
                    assert income == verdict.expected_profit > 0
        assert exploited > 0
        assert is_nash(coordination, mixed_equilibrium)
        assert isinstance(
            nash.test_nash_exploitability(coordination, mixed_equilibrium), IsNash
        )
        ce = correlated.test_ce_compatibility(coordination, mixed_equilibrium)
        assert isinstance(ce, Compatible)
        assert verify_witness(coordination, mixed_equilibrium, ce.witness)
        print(f"  (profiles: {exploited} exploitable, {equilibria} equilibria)")


def test_c6_dominated_action_excluded(coordination):
    with criterion(6, "sampled equilibria never use the dominated column"):
        for seed in range(50):
            q = random_ce(coordination, seed)
            assert q.marginal(1)[2] == 0


def test_c7_invariance_suite(profile_pool):
    with criterion(7, "verdict arm invariant under scaling and relabeling"):
        instances = profile_pool[2][:25] + profile_pool[3][:25]
        rng = random.Random(777)
        for game, p in instances:
            base = correlated.test_ce_compatibility(game, p)
            for alpha in (F(1, 2), F(3)):
                scaled = Game(
                    game.players,
                    game.actions,
                    tuple(
                        tuple(alpha * v for v in row) for row in game.payoffs
                    ),
                )
                assert type(correlated.test_ce_compatibility(scaled, p)) is type(base)
            perms = tuple(tuple(rng.sample(range(k), k)) for k in game.shape)
            pgame = permute_game(game, perms)
            pp = permute_marginals(p, perms)
            other = correlated.test_ce_compatibility(pgame, pp)
            assert type(other) is type(base)
            if isinstance(base, Compatible):
                assert verify_witness(pgame, pp, permute_joint(base.witness, perms))
            else:
                mapped = permute_actionwise(base.scheme, perms)
                assert (
                    verify_actionwise(pgame, pp, mapped)
                    == base.expected_profit
                    > 0
                )


def test_c8_roundtrip_and_determinism(
    coordination, skewed_profile, diagonal_profile, halfhalf_kernel, tmp_path
):
    with criterion(8, "formats round-trip byte-exactly; CLI runs are identical"):
        game_text = dataio.emit_game(coordination)
        assert dataio.emit_game(dataio.parse_game(game_text)) == game_text
        marginals_text = dataio.emit_marginals(coordination, skewed_profile)
        assert (
            dataio.emit_marginals(
                coordination, dataio.parse_marginals(marginals_text, coordination)
            )
            == marginals_text
        )
        kernel_text = dataio.emit_kernel(coordination, halfhalf_kernel)
        assert (
            dataio.emit_kernel(
                coordination, dataio.parse_kernel(kernel_text, coordination)
            )
            == kernel_text
        )
        for profile in (skewed_profile, diagonal_profile):
            ce_verdict = correlated.test_ce_compatibility(coordination, profile)
            text = dataio.emit_verdict(coordination, ce_verdict)
            assert (
                dataio.emit_verdict(
                    coordination, dataio.parse_verdict(text, coordination)
                )
                == text
            )
            nash_verdict = nash.test_nash_exploitability(coordination, profile)
            text = dataio.emit_verdict(coordination, nash_verdict)
            assert (
                dataio.emit_verdict(
                    coordination, dataio.parse_verdict(text, coordination)
                )
                == text
            )

        game_file = tmp_path / "game.json"
        game_file.write_text(game_text)
        marg_file = tmp_path / "p.json"
        marg_file.write_text(marginals_text)
        kernel_file = tmp_path / "k.json"
        kernel_file.write_text(kernel_text)
        log_file = tmp_path / "plays.csv"
        log_file.write_text("P1,P2\nT,L\nB,M\n,M\n,M\n")
        commands = [
            ("test-ce", str(game_file), str(marg_file)),
            ("test-ce", str(game_file), "--log", str(log_file)),
            ("test-nash", str(game_file), str(marg_file)),
            ("surplus", str(game_file), str(kernel_file)),
            ("marginals", str(game_file), str(log_file)),
        ]
        for args in commands:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.stdout == second.stdout and first.stdout
            assert first.returncode == second.returncode
