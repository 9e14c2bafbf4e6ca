import json
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_kernel
from eqaudit import dataio
from eqaudit import correlated, nash, verify
from eqaudit.correlated import ActionwiseScheme, Compatible, Exploitable
from eqaudit.dataio import DataFormatError
from eqaudit.games import DeviationKernel, Game, JointDistribution, MarginalProfile
from eqaudit.nash import IsNash, ProfilewiseScheme
from eqaudit.verify import verify_actionwise

GAME_DOC = """{
  "players": ["P1", "P2"],
  "actions": {"P1": ["T", "B"], "P2": ["L", "M", "R"]},
  "payoffs": {
    "P1": ["9", "0", "0", "0", "1", "0"],
    "P2": ["9", "0", "0", "0", "1", "0"]
  }
}"""


def test_parse_game_row_major():
    game = dataio.parse_game(GAME_DOC)
    assert game.players == ("P1", "P2")
    assert game.actions == (("T", "B"), ("L", "M", "R"))
    assert game.payoffs[0] == (F(9), F(0), F(0), F(0), F(1), F(0))


def test_parse_game_single_player():
    doc = '{"players": ["Solo"], "actions": {"Solo": ["only"]}, "payoffs": {"Solo": [3]}}'
    game = dataio.parse_game(doc)
    assert game.shape == (1,) and game.payoffs[0] == (F(3),)


def test_parse_game_lone_empty_payoff_is_malformed():
    # A row of one empty string joins to no text at all.
    doc = '{"players": ["Solo"], "actions": {"Solo": ["only"]}, "payoffs": {"Solo": [""]}}'
    with pytest.raises(DataFormatError, match="malformed rational ''"):
        dataio.parse_game(doc)


def test_parse_game_wrong_tensor_length():
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P1"] = ["1", "2", "3", "4", "5"]
    with pytest.raises(DataFormatError):
        dataio.parse_game(json.dumps(doc))


def test_parse_game_bad_rational():
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P1"][0] = "9//2"
    with pytest.raises(DataFormatError):
        dataio.parse_game(json.dumps(doc))


def test_decimals_are_exact():
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P1"][0] = "0.1"
    game = dataio.parse_game(json.dumps(doc))
    assert game.payoffs[0][0] == F(1, 10)
    # raw JSON floats take the same exact-decimal path
    text = GAME_DOC.replace('"9", "0", "0", "0", "1", "0"', "0.1, 0, 0, 0, 1, 0", 1)
    assert dataio.parse_game(text).payoffs[0][0] == F(1, 10)


def test_game_roundtrip():
    game = dataio.parse_game(GAME_DOC)
    assert dataio.parse_game(dataio.emit_game(game)) == game


def test_marginals_roundtrip(coordination, skewed_profile):
    text = dataio.emit_marginals(coordination, skewed_profile)
    assert dataio.parse_marginals(text, coordination) == skewed_profile
    assert dataio.emit_marginals(coordination, skewed_profile) == text  # stable bytes


def test_marginals_validation(coordination):
    with pytest.raises(DataFormatError):
        dataio.parse_marginals('{"P1": ["1/2", "1/2"]}', coordination)
    with pytest.raises(DataFormatError):
        dataio.parse_marginals(
            '{"P1": ["1/2", "1/2"], "P2": ["1/2", "1/2"]}', coordination
        )


def test_kernel_roundtrip(coordination, halfhalf_kernel):
    text = dataio.emit_kernel(coordination, halfhalf_kernel)
    assert dataio.parse_kernel(text, coordination) == halfhalf_kernel


def test_kernel_rejects_substochastic_row(coordination):
    doc = {
        "P1": [["1", "0"], ["0", "1"]],
        "P2": [["1", "0", "0"], ["0", "9/10", "0"], ["0", "0", "1"]],
    }
    with pytest.raises(DataFormatError):
        dataio.parse_kernel(json.dumps(doc), coordination)


def test_verdict_roundtrip_compatible(coordination, diagonal_profile):
    verdict = correlated.test_ce_compatibility(coordination, diagonal_profile)
    assert isinstance(verdict, Compatible)
    text = dataio.emit_verdict(coordination, verdict)
    back = dataio.parse_verdict(text, coordination)
    assert back == verdict
    assert dataio.emit_verdict(coordination, back) == text


def test_verdict_roundtrip_exploitable(coordination, skewed_profile):
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    assert isinstance(verdict, Exploitable)
    text = dataio.emit_verdict(coordination, verdict)
    back = dataio.parse_verdict(text, coordination)
    assert type(back) is Exploitable and back == verdict


def test_verdict_roundtrip_nash(coordination, mixed_equilibrium, skewed_profile):
    nash_verdict = nash.test_nash_exploitability(coordination, mixed_equilibrium)
    assert isinstance(nash_verdict, IsNash)
    text = dataio.emit_verdict(coordination, nash_verdict)
    assert dataio.parse_verdict(text, coordination) == nash_verdict
    exploit = nash.test_nash_exploitability(coordination, skewed_profile)
    text = dataio.emit_verdict(coordination, exploit)
    back = dataio.parse_verdict(text, coordination)
    assert isinstance(back.scheme, ProfilewiseScheme)
    assert type(back) is Exploitable and back == exploit


def _repeat_a_key(coordination, skewed_profile, kind):
    """A `kind` document that lists one key twice, the copy last."""
    if kind == "game":
        row = '"P2": ["9", "0", "0", "0", "1", "0"]'
        return GAME_DOC.replace(row, row + ', "P1": ["0", "0", "0", "0", "0", "0"]'), "P1"
    if kind == "marginals":
        return '{"P1": ["1/2", "1/2"], "P2": ["1/4", "3/4", "0"], "P1": ["1", "0"]}', "P1"
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    text = dataio.emit_verdict(coordination, verdict).rstrip()
    return text[:-1] + ', "verdict": "nash"}', "verdict"


@pytest.mark.parametrize("kind", ["game", "marginals", "verdict"])
def test_a_repeated_json_key_is_malformed(coordination, skewed_profile, kind):
    # The JSON reader would keep the last copy: an exploitable verdict
    # would read as Nash, and a game's payoffs would be the zero row.
    text, key = _repeat_a_key(coordination, skewed_profile, kind)
    parse = {
        "game": lambda: dataio.parse_game(text),
        "marginals": lambda: dataio.parse_marginals(text, coordination),
        "verdict": lambda: dataio.parse_verdict(text, coordination),
    }[kind]
    with pytest.raises(DataFormatError, match=f"JSON object repeats the key '{key}'"):
        parse()


def test_scheme_document_checks_out(coordination, skewed_profile, column_swap_kernel):
    scheme = ActionwiseScheme(
        ((F(0), F(-10)), (F(0), F(9), F(0))), column_swap_kernel
    )
    text = dataio.emit_scheme(coordination, scheme)
    parsed = dataio.parse_scheme(text, coordination)
    assert parsed == scheme
    assert verify_actionwise(coordination, skewed_profile, parsed) == F(7, 4)


def test_certificate_dispatch(coordination, diagonal_profile, column_swap_kernel):
    kind, q = dataio.parse_certificate(
        '{"witness": ["1/2", "0", "0", "0", "1/2", "0"]}', coordination
    )
    assert kind == "witness" and isinstance(q, JointDistribution)
    scheme = ProfilewiseScheme((F(0),) * 6, column_swap_kernel)
    kind, parsed = dataio.parse_certificate(
        dataio.emit_scheme(coordination, scheme), coordination
    )
    assert kind == "profilewise" and parsed == scheme
    verdict_text = dataio.emit_verdict(
        coordination, correlated.test_ce_compatibility(coordination, diagonal_profile)
    )
    kind, payload = dataio.parse_certificate(verdict_text, coordination)
    assert kind == "witness"
    kind, payload = dataio.parse_certificate('{"verdict": "nash"}', coordination)
    assert kind == "nash" and isinstance(payload, IsNash)
    with pytest.raises(DataFormatError):
        dataio.parse_certificate('{"nothing": 1}', coordination)


def test_certificate_reads_a_verdict_document_once(
    coordination, skewed_profile, monkeypatch
):
    verdict = correlated.test_ce_compatibility(coordination, skewed_profile)
    text = dataio.emit_verdict(coordination, verdict)
    calls = []
    loads = dataio._loads
    monkeypatch.setattr(dataio, "_loads", lambda t: calls.append(t) or loads(t))
    kind, payload = dataio.parse_certificate(text, coordination)
    # the whole verdict, so the claimed income is checked too
    assert (kind, payload) == ("actionwise", verdict)
    assert payload.scheme == verdict.scheme
    assert calls == [text]


def test_play_log_counts(coordination):
    log = dataio.parse_play_log("P1,P2\nT,L\nB,M\n,M\n,M\n")
    p = dataio.empirical_marginals(coordination, log)
    assert p.probs[0] == (F(1, 2), F(1, 2))
    assert p.probs[1] == (F(1, 4), F(3, 4), F(0))


def test_play_log_independent_lengths(coordination):
    # Empty cells past the header are ignored like any other empty cell.
    log = dataio.parse_play_log("P2,P1\nL,T,\nM,B, \nM,\nM,\n")
    p = dataio.empirical_marginals(coordination, log)
    assert p.probs[0] == (F(1, 2), F(1, 2))
    assert p.probs[1] == (F(1, 4), F(3, 4), F(0))


def test_play_log_errors(coordination):
    with pytest.raises(DataFormatError):
        dataio.empirical_marginals(coordination, dataio.parse_play_log("P1,P2\nT,\n"))
    with pytest.raises(DataFormatError):
        dataio.empirical_marginals(
            coordination, dataio.parse_play_log("P1,P2\nT,X\nB,L\n")
        )
    with pytest.raises(DataFormatError):
        dataio.parse_play_log("P1,P1\nT,T\n")
    # A log follows the per-player table rule: no cell past the header and
    # no column for a player the game does not have.
    with pytest.raises(DataFormatError, match="row 2 has a cell past the header"):
        dataio.parse_play_log("P1,P2\nT,L,B\n")
    log = dataio.parse_play_log("P1,P2,P3\nT,L,x\nB,M,\n")
    with pytest.raises(DataFormatError, match="unknown player 'P3'"):
        dataio.empirical_marginals(coordination, log)


@given(
    st.fractions(max_denominator=1000),
    st.fractions(min_value=0, max_value=1, max_denominator=999),
)
@settings(max_examples=80, deadline=None)
def test_rational_wire_roundtrip(a, b):
    for value in (a, b):
        assert dataio.parse_rational(dataio.rational_str(value)) == value


# Digits, signs, '/', '.', 'e', '_', spaces and non-ASCII digits (Arabic-
# Indic three, Devanagari seven, fullwidth one).
RATIONAL_TEXT = st.text(alphabet="0123456789-+/.eE_ \u0663\u096d\uff11", max_size=12)


@given(RATIONAL_TEXT)
@settings(max_examples=400, deadline=None)
def test_parse_rational_agrees_with_fraction(text):
    _, e, tail = text.lower().rpartition("e")
    try:
        exponent = int(tail) if e else 0
    except ValueError:
        exponent = 0
    if abs(exponent) > dataio.MAX_EXPONENT:
        with pytest.raises(DataFormatError):
            dataio.parse_rational(text)
        return
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DataFormatError):
            dataio.parse_rational(text)
    else:
        assert dataio.parse_rational(text) == expected


@pytest.mark.parametrize(
    "text", ["-7/12", "0/5", "-0", "007/010", "1/-2", "1 /2", " 3/4 ", "1_0/3", "\u0661/\u0662"]
)
def test_parse_rational_edge_forms_unchanged(text):
    try:
        expected = F(text)
    except ValueError:
        with pytest.raises(DataFormatError):
            dataio.parse_rational(text)
    else:
        assert dataio.parse_rational(text) == expected


def test_parse_rational_zero_denominator():
    with pytest.raises(DataFormatError):
        dataio.parse_rational("1/0")


def _bare_payoff(literal: str) -> str:
    """The game document with P1's first payoff as a bare JSON number."""
    return GAME_DOC.replace('"9"', literal, 1)


def test_bare_number_literals_follow_the_string_rules():
    assert dataio.parse_game(_bare_payoff("1e4300")).payoffs[0][0] == 10**4300
    assert dataio.parse_game(_bare_payoff("25E-4300")).payoffs[0][0] == F(25, 10**4300)
    for literal in ("1e4301", "1e-1000000", "2.5e1000000"):
        with pytest.raises(DataFormatError, match="exponent magnitude over 4300"):
            dataio.parse_game(_bare_payoff(literal))
    with pytest.raises(DataFormatError, match="over the 4300-digit input limit"):
        dataio.parse_game(_bare_payoff("7" * 5000))


def test_parse_rational_bounds_the_exponent():
    assert dataio.parse_rational("1e4300") == 10**4300
    assert dataio.parse_rational("25E-4300") == F(25, 10**4300)
    for text in ("1e4301", "1e-1000000", "1e1000000", "2.5e+1_000_000", "1e" + "9" * 5000):
        with pytest.raises(DataFormatError):
            dataio.parse_rational(text)


def _payoff_doc(*literals: str) -> str:
    """A 1x2 game document whose player payoffs are the JSON `literals`."""
    return (
        '{"players": ["A"], "actions": {"A": ["x", "y"]}, '
        '"payoffs": {"A": [%s]}}' % ", ".join(literals)
    )


# JSON payoff literals that a game document accepts: the plain spellings
# take a fast path into the integer view, the rest are read as
# `parse_rational` reads them.
ACCEPTED_PAYOFFS = [
    '"6/10"', '"-0"', '"0/7"', '" 1/2"', '"0.1"', '"1e3"', '"25E-4300"', '"1_0"',
    '"\u0661/\u0662"', "7", "-2.5", '"%s"' % ("9" * 4300),
]
REJECTED_PAYOFFS = [
    '"1/0"', '"1/+2"', '"0x10"', '"1e4301"', '"%s"' % ("9" * 4301), "true",
]


@pytest.mark.parametrize("literal", ACCEPTED_PAYOFFS, ids=lambda s: s[:12])
def test_parse_game_reads_payoffs_as_parse_rational_does(literal):
    parsed = dataio.parse_game(_payoff_doc(literal, '"3/4"'))
    value = json.loads(literal, parse_float=F)
    built = Game(("A",), (("x", "y"),), ((dataio.parse_rational(value), F(3, 4)),))
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed.int_payoffs == built.int_payoffs
    assert parsed.payoffs == built.payoffs


@pytest.mark.parametrize("literal", REJECTED_PAYOFFS, ids=lambda s: s[:12])
def test_parse_game_rejects_payoffs_as_parse_rational_does(literal):
    with pytest.raises(DataFormatError) as expected:
        dataio.parse_rational(json.loads(literal))
    with pytest.raises(DataFormatError) as got:
        dataio.parse_game(_payoff_doc('"1"', literal))
    assert str(got.value) == str(expected.value)


def test_parse_game_reports_the_first_bad_payoff():
    with pytest.raises(DataFormatError, match="zero denominator"):
        dataio.parse_game(_payoff_doc('"1/0"', '"0x10"'))
    with pytest.raises(DataFormatError, match="'0x10'"):
        dataio.parse_game(_payoff_doc('"0x10"', '"1/0"'))


# Payoff rows that mix plain strings with other spellings and with bad
# values. A row that is not all plain strings is read value by value, and
# so is one that the JSON scanner would misread or refuse: leading zeros,
# whitespace, signs, decimals, exponents and negative denominators.
MIXED_ROWS = [
    ['"1"', "2", '"3/4"', '"-5"'],
    ['"1"', '"0.5"', '"3/4"', '"-5/6"'],
    ['"1/2"', "0.25", '"3"', '"4"'],
    ['"1/2"', '"1e3"', '"7"', '"-2/3"'],
    ['"1"', "2E2", '"3"', '"4"'],
    ['"1"', '" 2"', '"+3"', '"0004/0006"'],
    ['"1"', '"2"', '"3"', "true"],
    ['"1"', "false", '"x"', '"4"'],
    ['"1"', '"2"', '"x"', '"1/0"'],
    ['"1"', '"2"', '"1/00"', '"x"'],
    ['"1"', '"2,3"', '"4"', '"5"'],
    ['"1"', '"1/2,3/4"', '"5"', '"6"'],
    ['"1"', '"2"', '""', '"4"'],
    ['"1"', '"2/"', '"3"', '"4"'],
    ['"1"', '"\u0663"', '"3"', '"4"'],
    ['"1"', "null", '"3"', '"4"'],
    ['"1"', "[2]", '"3"', '"4"'],
    ['"1"', '"2"', '"%s"' % ("9" * 4301), '"1/0"'],
    ['"1"', '"2"', '"1/%s"' % ("7" * 4301), '"4"'],
    ['"1"', '"2"', '"3"', '"1e4301"'],
    ['"007"', '"1"', '"2"', '"3"'],
    ['"1/02"', '"1/4"', '"1/4"', '"0"'],
    ['"-01"', '"1/2"', '"3/2"', '"0"'],
    ['" 1"', '"0"', '"0"', '"0"'],
    ['"1 /2"', '"1/2"', '"0"', '"0"'],
    ['"1/ 2"', '"1/2"', '"0"', '"0"'],
    ['"1/2"', '"1\\t/2"', '"0"', '"0"'],
    ['"1/2"', '"0"', '"1\\n/2"', '"0"'],
    ['"1/2"', '"1/2"', '"0"', '"1\\n"'],
    ['"+1"', '"0"', '"-0"', '"0"'],
    ['"1/4"', '"-0"', '"-0/5"', '"3/4"'],
    ['"1/2"', '"1.5"', '"-1"', '"0"'],
    ['"1/2"', '"1/2"', '"1e3"', '"0"'],
    ['"1/2"', '"1/-2"', '"1"', '"0"'],
]


def _row_by_value(literals):
    """The game a row of JSON payoff literals gives when every value is
    read with `parse_rational`, or the first value's error line."""
    values = json.loads(
        "[%s]" % ", ".join(literals), parse_float=dataio.parse_rational, parse_int=int
    )
    try:
        payoffs = [dataio.parse_rational(v) for v in values]
    except DataFormatError as exc:
        return str(exc)
    return Game(("A",), (tuple(f"a{j}" for j in range(len(values))),), (payoffs,))


@pytest.mark.parametrize("literals", MIXED_ROWS, ids=lambda row: ",".join(row)[:24])
def test_mixed_payoff_rows_read_as_value_by_value(literals):
    actions = ", ".join(f'"a{j}"' for j in range(len(literals)))
    text = (
        '{"players": ["A"], "actions": {"A": [%s]}, "payoffs": {"A": [%s]}}'
        % (actions, ", ".join(literals))
    )
    expected = _row_by_value(literals)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as got:
            dataio.parse_game(text)
        assert str(got.value) == expected
    else:
        parsed = dataio.parse_game(text)
        assert parsed == expected and parsed.int_payoffs == expected.int_payoffs
        assert parsed.payoffs == expected.payoffs


@pytest.mark.parametrize("literals", MIXED_ROWS, ids=lambda row: ",".join(row)[:24])
def test_mixed_marginal_rows_read_as_value_by_value(literals):
    game = Game(("A",), (tuple(f"a{j}" for j in range(len(literals))),), ((0,) * 4,))
    expected = _table_by_value(literals, lambda values, _: MarginalProfile((values,)), game)
    text = '{"A": [%s]}' % ", ".join(literals)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as got:
            dataio.parse_marginals(text, game)
        assert str(got.value) == expected
    else:
        assert dataio.parse_marginals(text, game) == expected


def test_a_plain_row_does_not_hide_a_later_players_bad_value():
    doc = json.loads(GAME_DOC)
    doc["payoffs"]["P2"][4] = "1/0"
    with pytest.raises(DataFormatError, match="zero denominator"):
        dataio.parse_game(json.dumps(doc))
    doc["payoffs"]["P1"][5] = "x"
    with pytest.raises(DataFormatError, match="'x'"):
        dataio.parse_game(json.dumps(doc))


@st.composite
def small_games(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    size = prod(shape)
    payoff = st.fractions(max_denominator=12) | st.integers(-50, 50)
    return Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{j}" for j in range(k)) for k in shape),
        tuple(
            tuple(draw(st.lists(payoff, min_size=size, max_size=size))) for _ in shape
        ),
    )


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_game_wire_roundtrip_keeps_the_integer_view(game):
    parsed = dataio.parse_game(dataio.emit_game(game))
    assert parsed == game and hash(parsed) == hash(game)
    assert parsed.int_payoffs == game.int_payoffs


# A one-player game with four actions, so a witness, a profile-wise fee
# table, a kernel row, a marginal row and an action-wise fee row are each
# one list of four values.
FOUR_ACTIONS = (
    '{"players": ["A"], "actions": {"A": ["a0", "a1", "a2", "a3"]}, '
    '"payoffs": {"A": ["1", "2", "3", "4"]}}'
)
_UNIT_ROWS = ['["0", "1", "0", "0"]', '["0", "0", "1", "0"]', '["0", "0", "0", "1"]']
_IDENTITY = '{"A": [["1", "0", "0", "0"], %s]}' % ", ".join(_UNIT_ROWS)


# For each table, how a document reads a row (JSON text) and how the same
# values, read one by one with `parse_rational`, build the object.
TABLE_READERS = {
    "witness": (
        lambda row, game: dataio.parse_certificate('{"witness": %s}' % row, game)[1],
        lambda values, game: JointDistribution(game.shape, values),
    ),
    "profilewise-fee": (
        lambda row, game: dataio.parse_scheme(
            '{"type": "profilewise", "fee": %s, "kernel": %s}' % (row, _IDENTITY), game
        ),
        lambda values, game: ProfilewiseScheme(values, identity_kernel(game.shape)),
    ),
    "actionwise-fees": (
        lambda row, game: dataio.parse_scheme(
            '{"type": "actionwise", "fees": {"A": %s}, "kernel": %s}'
            % (row, _IDENTITY),
            game,
        ),
        lambda values, game: ActionwiseScheme((values,), identity_kernel(game.shape)),
    ),
    "kernel": (
        lambda row, game: dataio.parse_kernel(
            '{"A": [%s, %s]}' % (row, ", ".join(_UNIT_ROWS)), game
        ),
        lambda values, game: DeviationKernel(
            ((values, *identity_kernel(game.shape).rows[0][1:]),)
        ),
    ),
    "marginals": (
        lambda row, game: dataio.parse_marginals('{"A": %s}' % row, game),
        lambda values, game: MarginalProfile((values,)),
    ),
}

# Rows of four JSON literals: plain strings, which are read as a whole,
# and rows with another spelling or a bad value, which are read value by
# value; some are not distributions, so the model type rejects them.
TABLE_ROWS = [
    ['"1/4"', '"1/4"', '"1/4"', '"1/4"'],
    ['"2/8"', '"3/4"', '"0"', '"0/5"'],
    ['"1/4"', "0", '"1/4"', '"1/2"'],
    ['"1/4"', "0.25", '"1/4"', '"1/4"'],
    ['"1/4"', '"0.25"', '"25e-2"', '"1/4"'],
    ['"1/4"', "2.5E-1", '"1/4"', '"1/4"'],
    ['"1/4"', '"1/4"', '"١/٤"', '"1/4"'],
    ['"1/4"', "true", '"1/4"', '"1/4"'],
    ['"1/4"', '"1/4"', '"1/0"', '"x"'],
    ['"1/4"', '"0,1"', '"1/4"', '"1/2"'],
    ['"1/4"', '"1/4,1/4"', '"1/4"', '"1/4"'],
    ['"1/4"', '"%s"' % ("9" * 4301), '"1/4"', '"1/0"'],
    ['"1/4"', '"1/%s"' % ("7" * 4301), '"1/4"', '"1/4"'],
    ['"1/4"', "null", '"1/4"', '"1/4"'],
    ['"1/2"', '"1/2"', '"1/2"', '"-1/2"'],
    ['"1/2"', '"1/3"', '"0"', '"0"'],
    ['"0"', '"1"', '"0"', '"0"'],
    ['"-0"', '"007"', '"-3"', '"2"'],
    ['"0,1"', '"0"', '"0"', '"1"'],
    ['"%s"' % ("9" * 4301), '"0"', '"0"', '"1"'],
]


def _table_by_value(literals, build, game):
    """The object the values give when each is read with `parse_rational`,
    or the first error line."""
    values = json.loads(
        "[%s]" % ", ".join(literals), parse_float=dataio.parse_rational, parse_int=int
    )
    try:
        return build(tuple(dataio.parse_rational(v) for v in values), game)
    except ValueError as exc:  # a DataFormatError or the model's own check
        return str(exc)


@pytest.mark.parametrize("table", sorted(TABLE_READERS))
@pytest.mark.parametrize("literals", TABLE_ROWS, ids=lambda row: ",".join(row)[:24])
def test_table_rows_read_as_value_by_value(table, literals):
    read, build = TABLE_READERS[table]
    game = dataio.parse_game(FOUR_ACTIONS)
    expected = _table_by_value(literals, build, game)
    row = "[%s]" % ", ".join(literals)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as got:
            read(row, game)
        assert str(got.value) == expected
    else:
        got = read(row, game)
        assert got == expected and hash(got) == hash(expected)
        assert repr(got) == repr(expected)


def test_kernel_rows_must_still_be_lists():
    game = dataio.parse_game(FOUR_ACTIONS)
    with pytest.raises(DataFormatError, match="kernel rows must be lists"):
        dataio.parse_kernel('{"A": ["1", %s]}' % ", ".join(_UNIT_ROWS), game)


def test_the_verify_path_builds_no_fraction_view(
    coordination, diagonal_profile, skewed_profile
):
    # Parsed witnesses, kernels and fee tables are held as integers, and
    # the verifiers read those alone.
    game = dataio.parse_game(dataio.emit_game(coordination))
    text = dataio.emit_marginals(coordination, diagonal_profile)
    p = dataio.parse_marginals(text, game)
    text = dataio.canonical_json({"witness": ["1/2", "0", "0", "0", "1/2", "0"]})
    kind, q = dataio.parse_certificate(text, game)
    assert kind == "witness" and verify.verify_witness(game, p, q)
    text = dataio.emit_marginals(coordination, skewed_profile)
    p = dataio.parse_marginals(text, game)
    verdict = nash.test_nash_exploitability(coordination, skewed_profile)
    text = dataio.emit_verdict(coordination, verdict)
    kind, parsed = dataio.parse_certificate(text, game)
    assert kind == "profilewise"
    assert verify.verify_exploitable(game, p, parsed) == verdict.expected_profit
    scheme = parsed.scheme
    assert "probs" not in vars(q)
    assert "fee" not in vars(scheme) and "rows" not in vars(scheme.kernel)
    assert "payoffs" not in vars(game)


@st.composite
def certificates(draw):
    """A game of a drawn shape, marginals, and a compatible or exploitable
    verdict on it, all built from Fractions."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    size = prod(shape)
    value = st.fractions(-9, 9, max_denominator=12)

    def distribution(k):
        weights = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
        return tuple(F(w, sum(weights)) for w in weights)

    game = Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{j}" for j in range(k)) for k in shape),
        ((0,) * size,) * len(shape),
    )
    p = MarginalProfile(tuple(map(distribution, shape)))
    kernel = DeviationKernel(tuple(tuple(map(distribution, [k] * k)) for k in shape))
    kind = draw(st.sampled_from(["compatible", "actionwise", "profilewise"]))
    if kind == "compatible":
        return game, p, Compatible(JointDistribution(shape, distribution(size)))
    if kind == "actionwise":
        fees = tuple(tuple(draw(st.lists(value, min_size=k, max_size=k))) for k in shape)
        scheme = ActionwiseScheme(fees, kernel)
    else:
        scheme = ProfilewiseScheme(draw(st.lists(value, min_size=size, max_size=size)), kernel)
    return game, p, Exploitable(scheme, draw(value))


def _fraction_doc(game, verdict) -> dict:
    """A verdict document written from the Fraction views."""
    def table(rows):
        return {player: row for player, row in zip(game.players, rows)}

    if isinstance(verdict, Compatible):
        return {"verdict": "compatible", "witness": list(map(str, verdict.witness.probs))}
    scheme = verdict.scheme
    kernel = table([[list(map(str, row)) for row in rows] for rows in scheme.kernel.rows])
    if isinstance(scheme, ActionwiseScheme):
        doc = {"type": "actionwise", "fees": table([list(map(str, r)) for r in scheme.fees])}
    else:
        doc = {"type": "profilewise", "fee": list(map(str, scheme.fee))}
    doc["kernel"] = kernel
    return {
        "verdict": "exploitable",
        "expected_profit": str(verdict.expected_profit),
        "scheme": doc,
    }


VIEWS = {"probs", "rows", "fees", "fee"}


@given(certificates())
@settings(max_examples=120, deadline=None)
def test_certificates_are_written_from_the_integer_stores(case):
    # The integer stores give the bytes that the Fraction views give, and
    # writing a parsed certificate builds no Fraction view.
    game, p, verdict = case
    doc = _fraction_doc(game, verdict)
    text = dataio.emit_verdict(game, verdict)
    assert text == dataio.canonical_json(doc)
    parsed = dataio.parse_verdict(text, game)
    assert dataio.emit_verdict(game, parsed) == text
    margins = dataio.emit_marginals(game, p)
    assert margins == dataio.canonical_json(
        {player: list(map(str, row)) for player, row in zip(game.players, p.probs)}
    )
    q = dataio.parse_marginals(margins, game)
    assert dataio.emit_marginals(game, q) == margins
    if isinstance(parsed, Compatible):
        stores = [parsed.witness]
    else:
        scheme = parsed.scheme
        assert dataio.emit_scheme(game, scheme) == dataio.canonical_json(doc["scheme"])
        assert dataio.emit_kernel(game, scheme.kernel) == dataio.canonical_json(
            doc["scheme"]["kernel"]
        )
        stores = [scheme, scheme.kernel]
    for obj in (*stores, q):
        assert not VIEWS & vars(obj).keys()


def test_a_certificate_value_over_the_digit_limit_cannot_be_written(coordination):
    big = F(1, 10**4400)
    witness = JointDistribution(coordination.shape, (big, 1 - big, 0, 0, 0, 0))
    with pytest.raises(DataFormatError, match="4300-digit output limit"):
        dataio.emit_verdict(coordination, Compatible(witness))


# Every document a `parse_*` function reads, valid, on `GAME_DOC`'s game.
VALID_DOCS = {
    "game": GAME_DOC,
    "marginals": '{"P1": ["1/2", "1/2"], "P2": ["1/4", "3/4", "0"]}',
    "kernel": (
        '{"P1": [["1", "0"], ["1/2", "1/2"]],'
        ' "P2": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]]}'
    ),
    "actionwise": (
        '{"type": "actionwise", "fees": {"P1": ["0", "0"], "P2": ["0", "-1", "1/2"]},'
        ' "kernel": {"P1": [["1", "0"], ["0", "1"]],'
        ' "P2": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]]}}'
    ),
    "profilewise": (
        '{"type": "profilewise", "fee": ["0", "0", "1/2", "0", "0", "-3"],'
        ' "kernel": {"P1": [["1", "0"], ["0", "1"]],'
        ' "P2": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]]}}'
    ),
    "witness": '{"witness": ["1/2", "0", "0", "0", "1/2", "0"]}',
    "compatible": '{"verdict": "compatible", "witness": ["1", "0", "0", "0", "0", "0"]}',
    "exploitable": (
        '{"verdict": "exploitable", "expected_profit": "1/8", "scheme":'
        ' {"type": "profilewise", "fee": ["0", "0", "1/2", "0", "0", "0"],'
        ' "kernel": {"P1": [["1", "0"], ["0", "1"]],'
        ' "P2": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/2", "0"]]}}}'
    ),
    "nash": '{"verdict": "nash"}',
}
BAD_VALUES = [
    None, True, False, 0.5, -1e300, [], ["1"], [[]], {}, {"P1": "1"},
    "1/0", "-", "", "/", "1/", "x", "9" * 5000, "1/" + "7" * 5000, "1e5000",
]


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _read_everywhere(name, text):
    """Read `text` with every `parse_*` function that reads a document of
    kind `name`; each must succeed or raise DataFormatError."""
    game = dataio.parse_game(GAME_DOC)
    readers = [dataio.parse_game] if name == "game" else [
        lambda t: dataio.parse_marginals(t, game),
        lambda t: dataio.parse_kernel(t, game),
        lambda t: dataio.parse_scheme(t, game),
        lambda t: dataio.parse_verdict(t, game),
        lambda t: dataio.parse_certificate(t, game),
    ]
    for read in readers:
        try:
            read(text)
        except DataFormatError:
            pass


@pytest.mark.parametrize("name", sorted(VALID_DOCS))
def test_every_single_swap_is_read_or_rejected(name):
    doc = json.loads(VALID_DOCS[name])
    for path in list(_paths(doc)):
        for value in BAD_VALUES:
            _read_everywhere(name, json.dumps(_replaced(doc, path, value)))


@given(st.sampled_from(sorted(VALID_DOCS)), st.data())
@settings(max_examples=400, deadline=None)
def test_every_parse_function_raises_only_a_format_error(name, data):
    doc = json.loads(VALID_DOCS[name])
    for _ in range(data.draw(st.integers(2, 4))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, data.draw(st.sampled_from(BAD_VALUES)))
    _read_everywhere(name, json.dumps(doc))
