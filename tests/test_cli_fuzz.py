"""Hostile-input fuzzing of the command line, in-process.

Each example takes small valid documents (a 2x3 game, marginals, a kernel,
schemes, verdicts and a witness), mutates one of them once and runs
`cli.main` on it: `test-ce` with and without `--oracle`, `test-nash`,
`verify` or `surplus`. A mutation swaps a value for another JSON value,
drops or adds a key, or appends an entry. Play logs are mutated as bytes
and read by `marginals` and by `test-ce` and `test-nash` with `--log`: a
NUL byte, a UTF-8 byte order mark, a stray quote, CR-only line ends, a
cell past the header, a field over the csv module's size limit, or a
snippet inserted or bytes dropped anywhere. Whatever the input, `main`
must return 0, 1 or 2 without letting an exception escape, a verdict must
be one JSON document on stdout, and exit 2 must print exactly one
`error:` line on stderr. Each example must also finish within 2 s, the
hypothesis deadline.
"""

import copy
import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from eqaudit import cli, correlated, dataio, nash

GAME = {
    "players": ["P1", "P2"],
    "actions": {"P1": ["T", "B"], "P2": ["L", "M", "R"]},
    "payoffs": {
        "P1": ["9", "0", "0", "0", "1", "0"],
        "P2": ["9", "0", "0", "0", "1", "0"],
    },
}
SKEWED = {"P1": ["1/2", "1/2"], "P2": ["1/4", "3/4", "0"]}
KERNEL = {
    "P1": [["1", "0"], ["0", "1"]],
    "P2": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]],
}


def _verdict(test, marginals) -> dict:
    game = dataio.parse_game(json.dumps(GAME))
    p = dataio.parse_marginals(json.dumps(marginals), game)
    return json.loads(dataio.emit_verdict(game, test(game, p)))


PURE_TL = {"P1": ["1", "0"], "P2": ["1", "0", "0"]}
CE_EXPLOITABLE = _verdict(correlated.test_ce_compatibility, SKEWED)
NASH_EXPLOITABLE = _verdict(nash.test_nash_exploitability, SKEWED)
COMPATIBLE = _verdict(correlated.test_ce_compatibility, PURE_TL)
# (marginals, a certificate for them)
CERTIFICATES = (
    (SKEWED, CE_EXPLOITABLE),
    (SKEWED, NASH_EXPLOITABLE),
    (SKEWED, CE_EXPLOITABLE["scheme"]),
    (SKEWED, NASH_EXPLOITABLE["scheme"]),
    (PURE_TL, COMPATIBLE),
    (PURE_TL, {"witness": COMPATIBLE["witness"]}),
    (PURE_TL, _verdict(nash.test_nash_exploitability, PURE_TL)),
)

# (command, extra flags, the documents its positional arguments read)
COMMANDS = (
    ("test-ce", (), (GAME, SKEWED)),
    ("test-ce", ("--oracle",), (GAME, SKEWED)),
    ("test-ce", ("--oracle",), (GAME, PURE_TL)),
    ("test-nash", (), (GAME, SKEWED)),
    ("test-nash", ("--oracle",), (GAME, PURE_TL)),
    *(("verify", (), (GAME, p, cert)) for p, cert in CERTIFICATES),
    ("surplus", (), (GAME, KERNEL)),
)

KEYS = st.sampled_from(["P1", "P2", "P3", "type", "verdict", "witness", "fee", ""])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(0.5),
    st.sampled_from(
        ["", "x", "0", "1", "-1", "1/2", "2/3", "1/0", "0.25", "1e4301", "T", "L",
         "actionwise", "profilewise", "exploitable", "compatible", "nash"]
    ),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every path from the root to a node of a JSON value, the root first."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one node swapped, one key dropped or added, or one entry
    appended."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    moves = ["swap"]
    if isinstance(node, dict):
        moves += ["drop", "add"] if node else ["add"]
    if isinstance(node, list):
        moves.append("append")
    move = draw(st.sampled_from(moves))
    if move == "swap":
        value = draw(VALUES)
        if parent is None:
            return value
        parent[path[-1]] = value
    elif move == "drop":
        del node[draw(st.sampled_from(sorted(node)))]
    elif move == "add":
        node[draw(KEYS)] = draw(VALUES)
    else:
        node.append(draw(VALUES))
    return doc


@st.composite
def requests(draw):
    command, flags, docs = draw(st.sampled_from(COMMANDS))
    target = draw(st.integers(0, len(docs) - 1))
    docs = list(docs)
    docs[target] = draw(mutated(docs[target]))
    return command, flags, docs


@given(requests())
@settings(max_examples=200, derandomize=True, deadline=2000)
def test_hostile_documents_exit_cleanly(request):
    command, flags, docs = request
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            path = Path(tmp) / f"{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, *paths, *flags])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())


def _run(argv):
    """`cli.main(argv)`, checked against the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    return code


# A play log of GAME: the header row, then one action label per player and
# round; P2 has one round fewer.
LOG = b"P1,P2\nT,L\nB,M\nT,L\nB,\n"
# (command, flags): each reads GAME and the log.
LOG_COMMANDS = (
    ("marginals", ()),
    ("test-ce", ("--log",)),
    ("test-ce", ("--oracle", "--log")),
    ("test-nash", ("--log",)),
)
SNIPPETS = st.sampled_from(
    [b",", b"\n", b"\r", b"\r\n", b'"', b'""', b" ", b"\t", b"\x00", b"\xef\xbb\xbf",
     b"\xff", b"T", b"R", b"P1", b"P3", b"T,L,B"]
)


@st.composite
def mutated_log(draw):
    """LOG with one to three byte-level mutations."""
    log = LOG
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(log)))
        move = draw(
            st.sampled_from(("nul", "bom", "quote", "cr", "past", "huge", "insert", "drop"))
        )
        if move == "nul":
            log = log[:at] + b"\x00" + log[at:]
        elif move == "bom":
            log = b"\xef\xbb\xbf" + log
        elif move == "quote":
            log = log[:at] + b'"' + log[at:]
        elif move == "cr":
            log = log.replace(b"\r\n", b"\n").replace(b"\n", b"\r")
        elif move == "past":
            lines = log.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] += b",T"
            log = b"\n".join(lines)
        elif move == "huge":
            field = b"T" * (csv.field_size_limit() + 1)
            if draw(st.booleans()):
                field = b'"' + field + b'"'
            log = log[:at] + field + log[at:]
        elif move == "insert":
            log = log[:at] + draw(SNIPPETS) + log[at:]
        else:
            log = log[:at] + log[at + draw(st.integers(1, 4)) :]
    return log


@given(st.sampled_from(LOG_COMMANDS), mutated_log())
@settings(max_examples=200, derandomize=True, deadline=2000)
def test_hostile_play_logs_exit_cleanly(command, log):
    command, flags = command
    with tempfile.TemporaryDirectory() as tmp:
        game_path, log_path = Path(tmp) / "game.json", Path(tmp) / "log.csv"
        game_path.write_text(json.dumps(GAME))
        log_path.write_bytes(log)
        _run([command, str(game_path), *flags, str(log_path)])


def test_the_play_log_and_its_mutations_reach_every_exit():
    # The base log is valid, and the mutations keep some logs readable.
    with tempfile.TemporaryDirectory() as tmp:
        game_path, log_path = Path(tmp) / "game.json", Path(tmp) / "log.csv"
        game_path.write_text(json.dumps(GAME))
        for log, expected in ((LOG, 0), (LOG.replace(b"\n", b"\r"), 0),
                              (LOG + b"T,L,B\n", 2), (b"P1,P2\nT,\x00\n", 2),
                              (b"P1,P2\nT,L\nB," + b"M" * (csv.field_size_limit() + 1), 2)):
            log_path.write_bytes(log)
            assert _run(["marginals", str(game_path), str(log_path)]) == expected
        codes = set()
        for log in (b"P1,P2\nT,L\n", b"P1,P2\nB,R\n"):
            log_path.write_bytes(log)
            codes.add(_run(["test-ce", str(game_path), "--log", str(log_path)]))
        assert codes == {0, 1}


def test_one_leading_byte_order_mark_is_dropped(capsys):
    # Spreadsheet exports start a CSV with one; a mark anywhere else is
    # part of a cell and so still malformed.
    bom = b"\xef\xbb\xbf"
    with tempfile.TemporaryDirectory() as tmp:
        game_path, log_path = Path(tmp) / "game.json", Path(tmp) / "log.csv"
        game_path.write_text(json.dumps(GAME))
        argv = ["marginals", str(game_path), str(log_path)]
        outputs = []
        for log in (LOG, bom + LOG):
            log_path.write_bytes(log)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for log in (bom + bom + LOG, LOG.replace(b"P2", bom + b"P2"),
                    LOG.replace(b"B,M", b"B," + bom + b"M"), LOG + bom):
            log_path.write_bytes(log)
            assert _run(argv) == 2
