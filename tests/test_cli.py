import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

GAME_DOC = """{
  "players": ["P1", "P2"],
  "actions": {"P1": ["T", "B"], "P2": ["L", "M", "R"]},
  "payoffs": {
    "P1": ["9", "0", "0", "0", "1", "0"],
    "P2": ["9", "0", "0", "0", "1", "0"]
  }
}"""

SKEWED = '{"P1": ["1/2", "1/2"], "P2": ["1/4", "3/4", "0"]}'
PURE_TL = '{"P1": ["1", "0"], "P2": ["1", "0", "0"]}'
MIXED = '{"P1": ["1/10", "9/10"], "P2": ["1/10", "9/10", "0"]}'
PURE_TM = '{"P1": ["1", "0"], "P2": ["0", "1", "0"]}'
HALFHALF_KERNEL = (
    '{"P1": [["1","0"],["0","1"]],'
    ' "P2": [["1","0","0"],["0","1","0"],["1/2","1/2","0"]]}'
)
SWAP_KERNEL = (
    '{"P1": [["1","0"],["0","1"]],'
    ' "P2": [["1","0","0"],["1","0","0"],["0","0","1"]]}'
)
PAPERLIKE_SCHEME = (
    '{"type": "actionwise",'
    ' "fees": {"P1": ["0", "-10"], "P2": ["0", "9", "0"]},'
    ' "kernel": ' + SWAP_KERNEL + "}"
)
PLAYS = "P1,P2\nT,L\nB,M\n,M\n,M\n"


def run_cli(*args, timeout=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "eqaudit", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.fixture
def files(tmp_path: Path):
    paths = {}
    for name, content in {
        "game.json": GAME_DOC,
        "skewed.json": SKEWED,
        "pure_tl.json": PURE_TL,
        "mixed.json": MIXED,
        "pure_tm.json": PURE_TM,
        "halfhalf.json": HALFHALF_KERNEL,
        "scheme.json": PAPERLIKE_SCHEME,
        "plays.csv": PLAYS,
    }.items():
        path = tmp_path / name
        path.write_text(content)
        paths[name] = str(path)
    paths["dir"] = str(tmp_path)
    return paths


def test_ce_exploitable_exit_and_profit(files):
    res = run_cli("test-ce", files["game.json"], files["skewed.json"])
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "exploitable"
    num, _, den = doc["expected_profit"].partition("/")
    assert int(num) > 0 and (den == "" or int(den) > 0)


def test_ce_compatible_exit(files):
    res = run_cli("test-ce", files["game.json"], files["pure_tl.json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "compatible"


def test_ce_log_matches_marginals_file(files):
    by_file = run_cli("test-ce", files["game.json"], files["skewed.json"])
    by_log = run_cli("test-ce", files["game.json"], "--log", files["plays.csv"])
    assert by_log.returncode == 1
    assert by_log.stdout == by_file.stdout


def test_nash_exit_codes(files):
    assert run_cli("test-nash", files["game.json"], files["mixed.json"]).returncode == 0
    assert run_cli("test-nash", files["game.json"], files["skewed.json"]).returncode == 1
    assert run_cli("test-nash", files["game.json"], files["pure_tm.json"]).returncode == 1


def test_surplus_table(files):
    res = run_cli("surplus", files["game.json"], files["halfhalf.json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["surplus"] == ["0", "0", "9/2", "0", "0", "1/2"]


def test_verify_scheme_and_tampering(files, tmp_path):
    res = run_cli(
        "verify", files["game.json"], files["skewed.json"], files["scheme.json"]
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["expected_profit"] == "7/4"

    tampered = json.loads(PAPERLIKE_SCHEME)
    tampered["fees"]["P2"][1] = "10"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    res = run_cli("verify", files["game.json"], files["skewed.json"], str(bad))
    assert res.returncode == 1
    assert json.loads(res.stdout)["violation"] == ["T", "M"]


def test_verify_witness_from_verdict_doc(files, tmp_path):
    out = tmp_path / "verdict.json"
    res = run_cli(
        "test-ce", files["game.json"], files["pure_tl.json"], "--out", str(out)
    )
    assert res.returncode == 0
    res = run_cli("verify", files["game.json"], files["pure_tl.json"], str(out))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"kind": "witness", "valid": True}


@pytest.mark.parametrize("marginals, valid", [("pure_tl.json", True), ("pure_tm.json", False)])
def test_verify_nash_verdict_doc_without_the_solver(
    files, tmp_path, monkeypatch, capsys, marginals, valid
):
    from eqaudit import cli, games, lp, nash

    out = tmp_path / "verdict.json"
    argv = ["test-nash", files["game.json"], files["pure_tl.json"], "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text()) == {"verdict": "nash"}

    def explode(*_args, **_kwargs):  # pragma: no cover
        raise AssertionError("verify called the solver or the Nash test")

    for name in ("solve_feasibility", "verify_outcome", "maximize"):
        monkeypatch.setattr(lp, name, explode)
    monkeypatch.setattr(lp._Simplex, "phase_one", explode)
    # The verdict is judged without the code that produced it.
    for name in ("_best_deviation", "payoff_numerators"):
        monkeypatch.setattr(nash, name, explode)
    # The producers' shared expected-payoff helper lives in `games`.
    monkeypatch.setattr(games, "payoff_numerators", explode)
    capsys.readouterr()
    code = cli.main(["verify", files["game.json"], files[marginals], str(out)])
    captured = capsys.readouterr()
    assert code == (0 if valid else 1)
    assert json.loads(captured.out) == {"kind": "nash", "valid": valid}
    assert captured.err == ""


def _all_fees(scheme, fee):
    if scheme["type"] == "actionwise":
        scheme["fees"] = {who: [fee] * len(row) for who, row in scheme["fees"].items()}
    else:
        scheme["fee"] = [fee] * len(scheme["fee"])


@pytest.mark.parametrize(
    "command, edit, valid, income",
    [
        ("test-ce", None, True, "7/36"),
        ("test-ce", "fees", False, "-2"),
        ("test-ce", "claim", False, "7/36"),
        ("test-ce", "bare scheme fees", True, "-2"),
        ("test-nash", None, True, None),
        ("test-nash", "fees", False, "-1"),
    ],
)
def test_verify_checks_the_claim_of_an_exploitable_verdict(
    files, tmp_path, capsys, command, edit, valid, income
):
    # A verdict document is valid only if its scheme is feasible and earns
    # exactly the positive income it claims; a bare scheme document is
    # checked pointwise and its income printed, whatever its sign.
    from eqaudit import cli

    out = tmp_path / "verdict.json"
    argv = [command, files["game.json"], files["skewed.json"], "--out", str(out)]
    assert cli.main(argv) == 1
    doc = json.loads(out.read_text())
    income = income or doc["expected_profit"]
    if edit == "fees":
        _all_fees(doc["scheme"], "-1")
    elif edit == "claim":
        doc["expected_profit"] = "1000"
    elif edit == "bare scheme fees":
        doc = doc["scheme"]
        _all_fees(doc, "-1")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["verify", files["game.json"], files["skewed.json"], str(out)])
    assert code == (0 if valid else 1)
    kind = "actionwise" if command == "test-ce" else "profilewise"
    assert json.loads(capsys.readouterr().out) == {
        "expected_profit": income,
        "kind": kind,
        "valid": valid,
    }


def test_marginals_command(files):
    res = run_cli("marginals", files["game.json"], files["plays.csv"])
    assert res.returncode == 0
    assert json.loads(res.stdout) == {
        "P1": ["1/2", "1/2"],
        "P2": ["1/4", "3/4", "0"],
    }


def test_inputs_are_utf8_whatever_the_locale(tmp_path):
    # Under the C locale, with neither UTF-8 mode nor locale coercion,
    # Python's default text encoding is ASCII; input files are still read
    # as UTF-8, and a file that is not UTF-8 is malformed input.
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    paths = {}
    for name, text in (("game.json", GAME_DOC), ("pure_tl.json", PURE_TL), ("plays.csv", PLAYS)):
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.replace("P1", "\u00c41").encode("utf-8"))
    paths["bad.json"] = tmp_path / "bad.json"
    paths["bad.json"].write_bytes(PURE_TL.encode().replace(b"P1", b"\xff1"))
    res = run_cli("test-ce", paths["game.json"], paths["pure_tl.json"], env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["verdict"] == "compatible"
    res = run_cli("marginals", paths["game.json"], paths["plays.csv"], env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["\u00c41"] == ["1/2", "1/2"]
    res = run_cli("test-ce", paths["game.json"], paths["bad.json"], env=env)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_game_that_repeats_a_payoff_key_exits_two(tmp_path):
    # Read on its second, all-zero "A" row this game is Nash at these
    # marginals; read on its first, it is exploitable.
    game, marginals = tmp_path / "game.json", tmp_path / "marginals.json"
    rows = '"A": ["1", "0", "0", "0"], "B": ["0", "0", "0", "0"]'
    text = '{"players": ["A", "B"], "actions": {"A": ["x", "y"], "B": ["u", "v"]}, '
    marginals.write_text('{"A": ["1/2", "1/2"], "B": ["1", "0"]}')
    game.write_text(text + '"payoffs": {' + rows + "}}")
    assert run_cli("test-nash", str(game), str(marginals)).returncode == 1
    game.write_text(text + '"payoffs": {' + rows + ', "A": ["0", "0", "0", "0"]}}')
    res = run_cli("test-nash", str(game), str(marginals))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: JSON object repeats the key 'A'\n"


def test_malformed_input_exit_two(files, tmp_path):
    bad = tmp_path / "bad_game.json"
    bad.write_text('{"players": 3}')
    res = run_cli("test-ce", str(bad), files["skewed.json"])
    assert res.returncode == 2
    assert "error" in res.stderr
    missing = run_cli("test-ce", files["game.json"], str(tmp_path / "nope.json"))
    assert missing.returncode == 2


def test_oracle_flag_passes_on_both_arms(files):
    ok = run_cli("test-ce", files["game.json"], files["pure_tl.json"], "--oracle")
    assert ok.returncode == 0
    bad = run_cli("test-ce", files["game.json"], files["skewed.json"], "--oracle")
    assert bad.returncode == 1
    assert run_cli(
        "test-nash", files["game.json"], files["mixed.json"], "--oracle"
    ).returncode == 0
    assert run_cli(
        "test-nash", files["game.json"], files["skewed.json"], "--oracle"
    ).returncode == 1


def test_oracle_is_bounded_on_a_sparse_three_player_game(tmp_path):
    # Seeded 2x3x2 game whose equilibrium marginals have supports (0, 1),
    # (0, 2), (0, 1): a grid scheme search over it runs for minutes, so
    # --oracle must not start one.
    from eqaudit import dataio, oracles

    rng = random.Random(3)
    for _ in range(9):
        game = oracles.random_game(rng)
    p = oracles.random_ce(game, 8).marginals()
    assert [p.support(i) for i in range(3)] == [(0, 1), (0, 2), (0, 1)]
    game_path = tmp_path / "game.json"
    game_path.write_text(dataio.emit_game(game))
    marginals_path = tmp_path / "p.json"
    marginals_path.write_text(dataio.emit_marginals(game, p))
    plain = run_cli("test-ce", str(game_path), str(marginals_path))
    checked = run_cli(
        "test-ce", str(game_path), str(marginals_path), "--oracle", timeout=30,
    )
    assert plain.returncode == checked.returncode == 0
    assert checked.stdout == plain.stdout


def test_seed_flag_is_gone(files):
    # --oracle samples nothing, so there is no seed to take.
    res = run_cli(
        "test-ce", files["game.json"], files["pure_tl.json"], "--oracle", "--seed", "4"
    )
    assert res.returncode == 2
    assert "unrecognized arguments: --seed 4" in res.stderr
    assert "--seed" not in run_cli("test-ce", "--help").stdout


@pytest.mark.parametrize(
    "marginals, kind", [("mixed.json", "witness"), ("skewed.json", "actionwise")]
)
def test_sparse_certificate_round_trip(files, tmp_path, marginals, kind):
    # Both profiles leave R unobserved, so the certificate is read back
    # from the system on the support product: a witness that is 0 on R, or
    # a scheme with a negative fee on R and an identity kernel row for it.
    first = run_cli("test-ce", files["game.json"], files[marginals])
    second = run_cli("test-ce", files["game.json"], files[marginals])
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
    doc = json.loads(first.stdout)
    if kind == "witness":
        assert first.returncode == 0
        certificate = {"witness": doc["witness"]}
        assert doc["witness"][2] == doc["witness"][5] == "0"
    else:
        assert first.returncode == 1
        certificate = doc["scheme"]
        assert certificate["fees"]["P2"][2].startswith("-")
        assert certificate["kernel"]["P2"][2] == ["0", "0", "1"]
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(certificate))
    res = run_cli("verify", files["game.json"], files[marginals], str(path))
    assert res.returncode == 0
    result = json.loads(res.stdout)
    assert result["kind"] == kind and result["valid"] is True
    if kind == "actionwise":
        assert result["expected_profit"] == doc["expected_profit"]


def test_batch_directory_with_jobs(files, tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a_skewed.json").write_text(SKEWED)
    (batch / "b_pure.json").write_text(PURE_TL)
    res = run_cli("test-ce", files["game.json"], str(batch), "--jobs", "2")
    assert res.returncode == 1  # one exploitable profile in the batch
    doc = json.loads(res.stdout)
    assert doc["results"]["a_skewed.json"]["verdict"] == "exploitable"
    assert doc["results"]["b_pure.json"]["verdict"] == "compatible"
    serial = run_cli("test-ce", files["game.json"], str(batch))
    assert serial.stdout == res.stdout
    checked = run_cli(
        "test-ce", files["game.json"], str(batch), "--jobs", "2", "--oracle"
    )
    assert checked.returncode == 1
    assert checked.stdout == res.stdout


def _batch(tmp_path, count):
    batch = tmp_path / "batch"
    batch.mkdir()
    for j in range(count):
        (batch / f"m{j}.json").write_text(SKEWED if j % 2 else PURE_TL)
    return str(batch)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: runs tasks in this process and
    records the pool size asked for."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, files_count, cpus, size",
    [(64, 3, 8, 3), (64, 3, 2, 2), (2, 3, 8, 2), (2, 3, 1, None), (4, 1, 8, None)],
)
def test_batch_pool_is_bounded(
    files, tmp_path, monkeypatch, capsys, jobs, files_count, cpus, size
):
    import concurrent.futures
    import os

    from eqaudit import cli

    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    batch = _batch(tmp_path, files_count)
    code = cli.main(["test-ce", files["game.json"], batch, "--jobs", str(jobs)])
    assert code == (1 if files_count > 1 else 0)
    assert RecordingExecutor.sizes == ([] if size is None else [size])
    assert len(json.loads(capsys.readouterr().out)["results"]) == files_count


@pytest.mark.parametrize("jobs", ["0", "-3", "abc", "2.5", ""])
def test_jobs_below_one_exits_two(files, capsys, jobs):
    # A value that is not an integer is refused the same way.
    from eqaudit import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["test-ce", files["game.json"], files["skewed.json"], "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --jobs: must be an integer of at least 1, got {jobs!r}\n"
    )


def test_one_process_serves_commands_as_fresh_processes_do(files, capsys):
    # `cli.main` keeps one parser per process; a run after a refused one
    # must not differ from the same run in a process of its own.
    from eqaudit import cli

    runs = [
        ["verify", files["game.json"], files["skewed.json"], files["scheme.json"]],
        ["test-ce", files["game.json"], files["skewed.json"]],
        ["test-ce", files["game.json"], files["skewed.json"], "--jobs", "abc"],
        ["surplus", files["game.json"], files["halfhalf.json"]],
        ["test-nash", files["game.json"], files["pure_tm.json"]],
    ]
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        )


def test_main_builds_its_parser_once(files, monkeypatch, capsys):
    import argparse

    from eqaudit import cli

    argv = ["surplus", files["game.json"], files["halfhalf.json"]]
    assert cli.main(argv) == 0
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(argv) == 0 and cli.main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_a_parsed_game_pickles_with_its_integer_view(files):
    # The --jobs pool sends the parsed game to its workers by pickle.
    import pickle

    from eqaudit import dataio

    game = dataio.parse_game(Path(files["game.json"]).read_text())
    copy = pickle.loads(pickle.dumps(game))
    assert copy == game and hash(copy) == hash(game)
    assert copy.int_payoffs == game.int_payoffs
    assert copy.payoffs == game.payoffs


def test_batch_runs_the_oracle_cross_check(files, tmp_path, monkeypatch, capsys):
    from eqaudit import cli, oracles

    def disagree(*_args, **_kwargs):
        raise oracles.OracleDisagreement("planted")

    monkeypatch.setattr(oracles, "cross_check", disagree)
    batch = _batch(tmp_path, 2)
    assert cli.main(["test-ce", files["game.json"], batch]) == 1
    capsys.readouterr()
    assert cli.main(["test-ce", files["game.json"], batch, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle disagreement: planted")


@pytest.mark.parametrize("marginals", ["directory", "file", "missing"])
def test_batch_rejects_log(files, tmp_path, marginals):
    # A marginals path and --log each name the profile, so neither may
    # silently win, whether the path is a directory, a file or absent.
    path = {
        "directory": lambda: _batch(tmp_path, 2),
        "file": lambda: files["skewed.json"],
        "missing": lambda: str(tmp_path / "absent.json"),
    }[marginals]()
    for command in ("test-ce", "test-nash"):
        res = run_cli(command, files["game.json"], path, "--log", files["plays.csv"])
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "marginals, log",
    [("directory", ""), ("file", ""), ("empty", "plays.csv")],
    ids=["empty-log-directory", "empty-log-file", "empty-path-log"],
)
def test_an_empty_log_or_path_is_still_given(files, tmp_path, marginals, log):
    # An empty `--log ""` or marginals path `""` still names a source, so
    # the pair is rejected like any other rather than read as one alone.
    path = {
        "directory": lambda: _batch(tmp_path, 2),
        "file": lambda: files["skewed.json"],
        "empty": lambda: "",
    }[marginals]()
    log = files[log] if log else ""
    res = run_cli("test-ce", files["game.json"], path, "--log", log)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: --log cannot be combined with a marginals path\n"


def test_repeated_runs_byte_identical(files):
    for args in (
        ("test-ce", files["game.json"], files["skewed.json"]),
        ("test-nash", files["game.json"], files["skewed.json"]),
        ("surplus", files["game.json"], files["halfhalf.json"]),
        ("marginals", files["game.json"], files["plays.csv"]),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# Two players whose ids double as the only entries of the list-valued
# containers below, so `"A" in ["A"]` holds and the type is what fails.
AB_GAME = {
    "players": ["A", "B"],
    "actions": {"A": ["x", "y"], "B": ["x", "y"]},
    "payoffs": {"A": ["1", "0", "0", "1"], "B": ["1", "0", "0", "1"]},
}
AB_MARGINALS = {"A": ["1/2", "1/2"], "B": ["1/2", "1/2"]}
AB_KERNEL = {"A": [["1", "0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize(
    "command, game_patch, marginals_patch, certificate",
    [
        ("test-nash", {"payoffs": {"A": 5, "B": ["1", "0", "0", "1"]}}, {}, None),
        ("test-nash", {"actions": ["A"]}, {}, None),
        (
            "verify",
            {},
            {},
            {"type": "actionwise", "fees": ["A"], "kernel": AB_KERNEL},
        ),
        ("verify", {}, {}, {"type": "profilewise", "fee": ["0"] * 4, "kernel": ["A"]}),
        (
            "verify",
            {},
            {},
            {
                "type": "profilewise",
                "fee": ["0"] * 4,
                "kernel": {"A": [5, ["0", "1"]], "B": AB_KERNEL["B"]},
            },
        ),
        # A key that names no player is malformed in every per-player table.
        ("test-nash", {"payoffs": {**AB_GAME["payoffs"], "Z": ["0"] * 4}}, {}, None),
        ("test-nash", {}, {"C": ["1"]}, None),
        (
            "verify",
            {},
            {},
            {
                "type": "actionwise",
                "fees": {"A": ["0", "0"], "B": ["0", "0"], "Z": ["0", "0"]},
                "kernel": AB_KERNEL,
            },
        ),
        (
            "verify",
            {},
            {},
            {
                "type": "profilewise",
                "fee": ["0"] * 4,
                "kernel": {**AB_KERNEL, "Z": [["1"]]},
            },
        ),
    ],
    ids=[
        "payoffs-scalar",
        "actions-list",
        "fees-list",
        "kernel-list",
        "kernel-row-scalar",
        "payoffs-unknown-player",
        "marginals-unknown-player",
        "fees-unknown-player",
        "kernel-unknown-player",
    ],
)
def test_wrongly_typed_container_exits_two(
    tmp_path, command, game_patch, marginals_patch, certificate
):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({**AB_GAME, **game_patch}))
    marginals = tmp_path / "p.json"
    marginals.write_text(json.dumps({**AB_MARGINALS, **marginals_patch}))
    args = [command, str(game), str(marginals)]
    if certificate is not None:
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(certificate))
        args.append(str(cert))
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_deeply_nested_json_exits_two(files, tmp_path):
    game = tmp_path / "nested.json"
    game.write_text("[" * 100000)
    res = run_cli("test-nash", str(game), files["skewed.json"])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_solver_self_check_failure_exits_four(files, monkeypatch, capsys):
    from eqaudit import cli, lp

    monkeypatch.setattr(lp, "verify_outcome", lambda *_args: False)
    assert cli.main(["test-ce", files["game.json"], files["skewed.json"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error:")


def test_a_refused_nash_kernel_exits_four(files, monkeypatch, capsys):
    from eqaudit import cli, games

    def refuse(cls, *args):
        raise ValueError("kernel row (0,0) does not sum to 1")

    monkeypatch.setattr(games.DeviationKernel, "from_columns", classmethod(refuse))
    assert cli.main(["test-nash", files["game.json"], files["skewed.json"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error:")


def test_huge_exponent_payoff_exits_two(files, tmp_path):
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P1"][0] = "1e1000000"
    game = tmp_path / "huge.json"
    game.write_text(json.dumps(doc))
    res = run_cli("test-nash", str(game), files["skewed.json"])
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e4301", "exponent magnitude over 4300"),
        ("1e-1000000", "exponent magnitude over 4300"),
        ("7" * 5000, "integer literal over the 4300-digit input limit"),
    ],
    ids=["exponent-4301", "exponent-minus-million", "integer-5000-digits"],
)
def test_bare_number_literal_over_a_limit_exits_two(files, tmp_path, literal, message):
    game = tmp_path / "bare.json"
    game.write_text(GAME_DOC.replace('"9"', literal, 1))
    res = run_cli("test-nash", str(game), files["skewed.json"], timeout=30)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


@pytest.mark.parametrize(
    "payoff", ["7" * 5000, "1/" + "7" * 5000], ids=["integer", "denominator"]
)
def test_string_payoff_over_the_digit_limit_exits_two_briefly(files, tmp_path, payoff):
    # The error names the limit and does not echo the 5000-digit value.
    game = tmp_path / "long.json"
    game.write_text(GAME_DOC.replace('"9"', f'"{payoff}"', 1))
    res = run_cli("test-nash", str(game), files["skewed.json"], timeout=30)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0].encode()) < 200
    assert "over the 4300-digit input limit" in lines[0]


@pytest.mark.parametrize(
    "log",
    ["P1,P2\nT,L,B\nB,M\n", "P1,P2,P3\nT,L,x\nB,M\n"],
    ids=["cell-past-header", "unknown-player"],
)
def test_play_log_outside_the_table_rule_exits_two(files, tmp_path, log):
    path = tmp_path / "plays.csv"
    path.write_text(log)
    for args in (
        ("marginals", files["game.json"], str(path)),
        ("test-ce", files["game.json"], "--log", str(path)),
        ("test-nash", files["game.json"], "--log", str(path)),
    ):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: play log")


def test_oversized_play_log_cell_exits_two(files, tmp_path):
    log = tmp_path / "wide.csv"
    log.write_text("P1,P2\n" + "T" * 131073 + ",L\n")
    for args in (
        ("marginals", files["game.json"], str(log)),
        ("test-ce", files["game.json"], "--log", str(log)),
        ("test-nash", files["game.json"], "--log", str(log)),
    ):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed play log")


def test_result_over_the_digit_limit_exits_two(files, tmp_path):
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P1"][0] = "1e4300"
    game = tmp_path / "big.json"
    game.write_text(json.dumps(doc))
    res = run_cli("test-nash", str(game), files["skewed.json"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: the result has a rational over the 4300-digit output limit"
    ]



LONG = "x" * 100_000
LONG_GAME = GAME_DOC.replace('"P1"', json.dumps(LONG))
# Per error site that quotes an input value: the files that differ from
# game.json = GAME_DOC, m.json = SKEWED and k.json = HALFHALF_KERNEL, and
# the arguments, which name those files.
LONG_VALUE_CASES = {
    "rational-from-list": (
        {"m.json": SKEWED.replace('"1/2"', json.dumps([LONG]), 1)},
        ["test-ce", "game.json", "m.json"],
    ),
    "rational-from-object": (
        {"m.json": SKEWED.replace('"1/2"', json.dumps({LONG: 1}), 1)},
        ["test-ce", "game.json", "m.json"],
    ),
    "unknown-player": (
        {"m.json": SKEWED.replace("{", "{" + json.dumps(LONG) + ': ["1"], ', 1)},
        ["test-nash", "game.json", "m.json"],
    ),
    "play-log-header": (
        {"plays.csv": PLAYS.replace("P1,P2", "P1,P2," + LONG, 1)},
        ["marginals", "game.json", "plays.csv"],
    ),
    "unknown-verdict": (
        {"c.json": json.dumps({"verdict": LONG})},
        ["verify", "game.json", "m.json", "c.json"],
    ),
    "unknown-scheme-type": (
        {"c.json": json.dumps({"type": LONG, "kernel": json.loads(HALFHALF_KERNEL)})},
        ["verify", "game.json", "m.json", "c.json"],
    ),
    "unknown-action": (
        {"plays.csv": PLAYS.replace("T,L", LONG + ",L", 1)},
        ["test-ce", "game.json", "--log", "plays.csv"],
    ),
    "missing-player": ({"game.json": LONG_GAME}, ["test-ce", "game.json", "m.json"]),
    "empty-history": (
        {"game.json": LONG_GAME, "plays.csv": LONG + ",P2\n,L\n"},
        ["marginals", "game.json", "plays.csv"],
    ),
    "payoff-length": (
        {"game.json": LONG_GAME.replace('"9", ', "", 1)},
        ["surplus", "game.json", "k.json"],
    ),
}


@pytest.mark.parametrize(
    "written, argv", LONG_VALUE_CASES.values(), ids=LONG_VALUE_CASES.keys()
)
def test_an_error_line_quotes_at_most_40_characters_of_a_value(
    tmp_path, capsys, written, argv
):
    from eqaudit import cli

    texts = {"game.json": GAME_DOC, "m.json": SKEWED, "k.json": HALFHALF_KERNEL}
    texts.update(written)
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert cli.main([str(tmp_path / a) if a in texts else a for a in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: "), lines[:1]
    assert len(lines[0].encode()) < 200, lines[0][:300]
    assert "x" * 41 not in lines[0] and "…" in lines[0]


@pytest.mark.parametrize(
    "command, name",
    [("test-ce", "test_ce_compatibility"), ("test-nash", "test_nash_exploitability")],
)
def test_an_audit_command_calls_its_test_as_the_module_holds_it_now(
    files, monkeypatch, capsys, command, name
):
    # The benchmark's tracer replaces module attributes after import, and a
    # batch pool pickles the test by name, so the command table must not
    # keep the function object it saw at import.
    from eqaudit import cli

    original, seen = getattr(cli, name), []

    def spy(game, p):
        seen.append(p)
        return original(game, p)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main([command, files["game.json"], files["pure_tl.json"]]) == 0
    assert len(seen) == 1
