"""Seeded inputs, requests and correctness checks for each workload.

`WORKLOADS[name](rng, scale, workdir)` builds the request pool of one
workload from a seeded `random.Random`; the same seed always gives the
same pool. Each request has `send(tracer)`, the timed operation a user
performs, and `check(output)`, run after the timed loop, which returns
``(ok, certificate_sizes)``. `check` compares the output with the answer
known from construction and re-checks every certificate with the
solver-independent `verify_*` functions.

Calls go through module attributes (``correlated.test_ce_compatibility``)
so that the tracer's wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import prod
from pathlib import Path

from eqaudit import cli, correlated, dataio, games, nash, oracles, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# audit-mid: requests per pass by game shape. The two large shapes make up
# 18% of requests, so p95 falls inside their latency range and p50 inside
# the small shapes', away from the boundary between the two. They take
# about three quarters of a pass, and their cost varies widely from game to
# game, so there are 80 of them: the pass time then varies by about 6%
# between seeds (interquartile range over median).
AUDIT_MIX = (((3, 3), 200), ((2, 2, 2), 160), ((4, 4), 40), ((2, 3, 3), 40))

# cli-batch: one directory of marginals files per game; each directory is
# audited by both `test-ce` and `test-nash`.
CLI_SHAPES = ((2, 2), (2, 3)) * 3
CLI_FILES = 200
CLI_JOBS = 2
CLI_TIMEOUT_S = 60

# verify-large: games per shape, each checked against six certificates.
VERIFY_SHAPES = ((8, 8, 8), (4, 4, 4, 4), (5, 5, 5, 5))
VERIFY_GAMES = 2


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def make_game(rng, shape) -> games.Game:
    players = tuple(f"P{i + 1}" for i in range(len(shape)))
    actions = tuple(tuple(f"a{j}" for j in range(k)) for k in shape)
    payoffs = tuple(
        tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(prod(shape)))
        for _ in shape
    )
    return games.Game(players, actions, payoffs)


def random_row(rng, k: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(0, 6) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_profile(rng, game) -> games.MarginalProfile:
    return games.MarginalProfile(tuple(random_row(rng, k) for k in game.shape))


def nash_known(game, p) -> bool:
    """A profile is Nash exactly when its product distribution is a
    correlated equilibrium; checked without the solver."""
    return correlated.is_correlated_equilibrium(game, games.product_distribution(p))


def ce_certificate_ok(game, p, verdict, must_be_compatible: bool) -> bool:
    if isinstance(verdict, correlated.Compatible):
        return verify.verify_witness(game, p, verdict.witness)
    if must_be_compatible:
        return False
    return verify.verify_actionwise(game, p, verdict.scheme) == verdict.expected_profit > 0


def nash_certificate_ok(game, p, verdict) -> bool:
    if isinstance(verdict, nash.IsNash):
        return nash_known(game, p)
    return (
        not nash_known(game, p)
        and verify.verify_profilewise(game, p, verdict.scheme) == verdict.expected_profit > 0
    )


class AuditRequest:
    """One (game, marginals) pair audited by both tests in-process; each
    certificate is re-checked by a `verify_*` function as part of the
    request."""

    def __init__(self, game, profile, equilibrium: bool):
        self.game = game
        self.profile = profile
        self.equilibrium = equilibrium

    def send(self, tracer=None):
        g, p = self.game, self.profile
        ce = correlated.test_ce_compatibility(g, p)
        ne = nash.test_nash_exploitability(g, p)
        if isinstance(ce, correlated.Compatible):
            ce_check = verify.verify_witness(g, p, ce.witness)
        else:
            ce_check = verify.verify_actionwise(g, p, ce.scheme)
        ne_check = None
        if isinstance(ne, nash.Exploitable):
            ne_check = verify.verify_profilewise(g, p, ne.scheme)
        return ce, ne, ce_check, ne_check

    def check(self, output):
        ce, ne, ce_check, ne_check = output
        if isinstance(ce, correlated.Compatible):
            ok = ce_check is True
        else:
            ok = not self.equilibrium and ce_check == ce.expected_profit > 0
        if isinstance(ne, nash.IsNash):
            ok = ok and nash_known(self.game, self.profile)
        else:
            ok = ok and ne_check == ne.expected_profit > 0
        sizes = [
            len(dataio.emit_verdict(self.game, v))
            for v in (ce, ne)
            if not isinstance(v, nash.IsNash)
        ]
        return ok, sizes


def audit_mid(rng, scale: float, workdir: Path) -> list:
    pool = []
    for shape, count in AUDIT_MIX:
        for j in range(scaled(count, scale)):
            game = make_game(rng, shape)
            equilibrium = j % 2 == 0
            if equilibrium:
                profile = oracles.random_ce(game, rng.randrange(2**31)).marginals()
            else:
                profile = random_profile(rng, game)
            pool.append(AuditRequest(game, profile, equilibrium))
    rng.shuffle(pool)
    return pool


def mix_profiles(rng, profiles) -> games.MarginalProfile:
    """Random convex combination; mixing the marginals of correlated
    equilibria gives the marginals of their mixture, also an equilibrium."""
    weights = [rng.randint(1, 5) for _ in profiles]
    total = sum(weights)
    return games.MarginalProfile(
        tuple(
            tuple(
                sum(w * q.probs[i][a] for w, q in zip(weights, profiles)) / total
                for a in range(k)
            )
            for i, k in enumerate(profiles[0].shape)
        )
    )


class CliRequest:
    """`eqaudit test-ce|test-nash GAME DIR --jobs 2` as a subprocess."""

    def __init__(self, command: str, game, game_path: Path, directory: Path, equilibria: set):
        self.command = command
        self.game = game
        self.game_path = game_path
        self.directory = directory
        self.equilibria = equilibria
        self.names = sorted(p.name for p in directory.glob("*.json"))

    def send(self, tracer=None):
        args = [self.command, str(self.game_path), str(self.directory), "--jobs", str(CLI_JOBS)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        if tracer is None:
            cmd = [sys.executable, "-m", "eqaudit", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracedcli.py"), *args]
            env["PERFBENCH_TRACE_DIR"] = str(tracer.directory)
            env["PERFBENCH_REQUEST"] = str(tracer.request)
        spawned = time.perf_counter()
        # A session of its own, so a hung batch is killed with its workers.
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            cwd=ROOT, start_new_session=True,
        ) as proc:
            try:
                stdout, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        exited = time.perf_counter()
        if tracer is not None:
            tracer.absorb()
            tracer.intervals[tracer.request] = (spawned, exited)
        return proc.returncode, stdout

    def check(self, output):
        returncode, stdout = output
        results = json.loads(stdout)["results"]
        ok = sorted(results) == self.names
        exploitable = False
        sizes = []
        for name, doc in results.items():
            text = dataio.canonical_json(doc)
            verdict = dataio.parse_verdict(text, self.game)
            p = dataio.parse_marginals((self.directory / name).read_text(), self.game)
            if self.command == "test-ce":
                ok = ok and ce_certificate_ok(self.game, p, verdict, name in self.equilibria)
            else:
                ok = ok and nash_certificate_ok(self.game, p, verdict)
            if not isinstance(verdict, nash.IsNash):
                sizes.append(len(text))
            exploitable = exploitable or doc["verdict"] == "exploitable"
        return ok and returncode == int(exploitable), sizes


def cli_batch(rng, scale: float, workdir: Path) -> list:
    pool = []
    for g, shape in enumerate(CLI_SHAPES):
        game = make_game(rng, shape)
        vertices = [
            oracles.random_ce(game, rng.randrange(2**31)).marginals() for _ in range(3)
        ]
        base = workdir / f"game{g}"
        directory = base / "profiles"
        directory.mkdir(parents=True)
        game_path = base / "game.json"
        game_path.write_text(dataio.emit_game(game))
        equilibria = set()
        for j in range(scaled(CLI_FILES, scale)):
            name = f"m{j:04d}.json"
            if j % 2 == 0:
                profile = mix_profiles(rng, vertices)
                equilibria.add(name)
            else:
                profile = random_profile(rng, game)
            (directory / name).write_text(dataio.emit_marginals(game, profile))
        for command in ("test-ce", "test-nash"):
            pool.append(CliRequest(command, game, game_path, directory, equilibria))
    return pool


class VerifyRequest:
    """`eqaudit verify GAME MARGINALS CERTIFICATE` through `cli.main`
    in-process, with the expected exit code and result document."""

    def __init__(self, paths, certificate: str, returncode: int, expected: dict):
        self.argv = ["verify", *map(str, paths)]
        self.cert_bytes = len(certificate)
        self.returncode = returncode
        self.expected = expected

    def send(self, tracer=None):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            returncode = cli.main(self.argv)
        return returncode, out.getvalue()

    def check(self, output):
        returncode, stdout = output
        ok = returncode == self.returncode and json.loads(stdout) == self.expected
        return ok, [self.cert_bytes]


def strides(shape) -> list[int]:
    return [prod(shape[i + 1 :]) for i in range(len(shape))]


def planted_game(rng, shape):
    """A random game with a strict pure Nash equilibrium at a random
    profile: every unilateral deviation from it loses at least 1."""
    game = make_game(rng, shape)
    star = tuple(rng.randrange(k) for k in shape)
    step = strides(shape)
    flat = sum(a * s for a, s in zip(star, step))
    payoffs = [list(row) for row in game.payoffs]
    for i, k in enumerate(shape):
        base = flat - star[i] * step[i]
        rivals = [payoffs[i][base + b * step[i]] for b in range(k) if b != star[i]]
        payoffs[i][flat] = max(rivals) + 1
    return games.Game(game.players, game.actions, tuple(map(tuple, payoffs))), star


def random_kernel(rng, shape) -> games.DeviationKernel:
    return games.DeviationKernel(
        tuple(tuple(random_row(rng, k) for _ in range(k)) for k in shape)
    )


def surplus_table(game, kernel) -> list[Fraction]:
    """Deviation surplus at every profile, computed here rather than by
    the library so the expected answers do not depend on it."""
    shape = game.shape
    step = strides(shape)
    table = []
    for flat, profile in enumerate(itertools.product(*(range(k) for k in shape))):
        total = Fraction(0)
        for i, a in enumerate(profile):
            u = game.payoffs[i]
            base = flat - a * step[i]
            row = kernel.rows[i][a]
            total += sum(w * u[base + b * step[i]] for b, w in enumerate(row) if w) - u[flat]
        table.append(total)
    return table


def verify_large(rng, scale: float, workdir: Path) -> list:
    pool = []
    for g in range(scaled(VERIFY_GAMES * len(VERIFY_SHAPES), scale)):
        shape = VERIFY_SHAPES[g % len(VERIFY_SHAPES)]
        game, star = planted_game(rng, shape)
        n = len(shape)
        profiles = list(game.profiles())
        p = random_profile(rng, game)
        pure = games.MarginalProfile(
            tuple(tuple(Fraction(int(a == s)) for a in range(k)) for s, k in zip(star, shape))
        )
        base = workdir / f"game{g}"
        base.mkdir(parents=True)
        files = {
            "game": dataio.emit_game(game),
            "marginals": dataio.emit_marginals(game, p),
            "pure": dataio.emit_marginals(game, pure),
        }

        kernel = random_kernel(rng, shape)
        table = surplus_table(game, kernel)
        slices = [
            [min(v for v, a in zip(table, profiles) if a[i] == x) / n for x in range(k)]
            for i, k in enumerate(shape)
        ]
        income = sum(p.probs[i][x] * fee for i, row in enumerate(slices) for x, fee in enumerate(row))
        files["actionwise"] = dataio.emit_scheme(game, correlated.ActionwiseScheme(slices, kernel))
        big = max(abs(v) for v in table) + sum(max(map(abs, row)) for row in slices) + 1
        slices[0][-1] += big
        files["actionwise-tampered"] = dataio.emit_scheme(
            game, correlated.ActionwiseScheme(slices, kernel)
        )
        first_bad = (shape[0] - 1,) + (0,) * (n - 1)

        kernel = random_kernel(rng, shape)
        fee = surplus_table(game, kernel)
        weights = [prod(p.probs[i][x] for i, x in enumerate(a)) for a in profiles]
        profit = sum(w * f for w, f in zip(weights, fee))
        files["profilewise"] = dataio.emit_scheme(game, nash.ProfilewiseScheme(fee, kernel))
        fee[-1] += 1
        files["profilewise-tampered"] = dataio.emit_scheme(
            game, nash.ProfilewiseScheme(fee, kernel)
        )

        point = games.JointDistribution.point_mass(shape, star)
        moved = games.JointDistribution.point_mass(
            shape, ((star[0] + 1) % shape[0],) + star[1:]
        )
        for key, q in (("witness", point), ("witness-tampered", moved)):
            files[key] = dataio.canonical_json({"witness": [str(v) for v in q.probs]})

        paths = {}
        for key, text in files.items():
            paths[key] = base / f"{key}.json"
            paths[key].write_text(text)

        def request(marginals, cert, returncode, expected):
            return VerifyRequest(
                (paths["game"], paths[marginals], paths[cert]), files[cert], returncode, expected
            )

        pool += [
            request("marginals", "actionwise", 0,
                    {"kind": "actionwise", "valid": True, "expected_profit": str(income)}),
            request("marginals", "actionwise-tampered", 1,
                    {"kind": "actionwise", "valid": False,
                     "violation": list(game.profile_labels(first_bad))}),
            request("marginals", "profilewise", 0,
                    {"kind": "profilewise", "valid": True, "expected_profit": str(profit)}),
            request("marginals", "profilewise-tampered", 1,
                    {"kind": "profilewise", "valid": False,
                     "violation": list(game.profile_labels(profiles[-1]))}),
            request("pure", "witness", 0, {"kind": "witness", "valid": True}),
            request("pure", "witness-tampered", 1, {"kind": "witness", "valid": False}),
        ]
    return pool


WORKLOADS = {
    "audit-mid": audit_mid,
    "cli-batch": cli_batch,
    "verify-large": verify_large,
}
