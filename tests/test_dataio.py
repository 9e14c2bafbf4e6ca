import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqaudit import dataio
from eqaudit import correlated, nash
from eqaudit.correlated import ActionwiseScheme, Compatible, Exploitable
from eqaudit.dataio import DataFormatError
from eqaudit.games import JointDistribution
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
    kind, scheme = dataio.parse_certificate(text, coordination)
    assert (kind, scheme) == ("actionwise", verdict.scheme)
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
