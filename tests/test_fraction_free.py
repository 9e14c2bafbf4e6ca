"""The audit path makes no Fraction arithmetic.

`correlated.test_ce_compatibility`, `nash.test_nash_exploitability`,
`verify.verify_witness`, `lp.verify_outcome`,
`correlated.incentive_rows`, `correlated.build_ce_system`,
`lp._Simplex.__init__` and `lp._Simplex.phase_one` run on integers over
common denominators and only build Fractions, never add, subtract,
multiply or divide them; `build_ce_system`, `verify_outcome`,
`verify_witness` and `phase_one` build none at all. These tests patch those operators
and the constructor on the `Fraction` class to count calls made while
one of the eight functions is running, wherever a module has imported
it, and run the golden `test-ce` and `test-nash` cases through them.
They also make the tableau's row builder, its row join and its
elimination raise while `verify_outcome` runs, so that the check is shown
to share no code with the solver. With the same counter, the Nash test
builds one Fraction, the gain its verdict carries, however many players
could gain, and `dataio.emit_game` writes a parsed game from its integer
view, building none.
"""

import json
from collections import Counter
from fractions import Fraction as F

import pytest

from eqaudit import correlated, dataio, games, lp, nash, verify
from test_golden_verdicts import CASES, _case

# Solves over the golden `test-ce` cases, one per case that reaches the
# solver, however many rounds of row generation it takes: Nash marginals
# and dominated play do not reach it.
SOLVES = 12

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
WATCHED = (
    (correlated, "test_ce_compatibility"),
    (nash, "test_nash_exploitability"),
    (verify, "verify_witness"),
    (lp, "verify_outcome"),
    (correlated, "incentive_rows"),
    (correlated, "build_ce_system"),
    (lp._Simplex, "__init__"),
    (lp._Simplex, "phase_one"),
)
MODULES = (correlated, games, lp, nash, verify)


@pytest.fixture
def watched(monkeypatch):
    """Names of the watched functions now running, innermost last; the
    Fraction operations counted per innermost one; calls per name; and
    Fractions constructed while each name is running, at any depth."""
    active, ops, calls, made = [], Counter(), Counter(), Counter()
    for name in OPERATORS:
        def counted(self, other, _original=getattr(F, name)):
            if active:
                ops[active[-1]] += 1
            return _original(self, other)

        monkeypatch.setattr(F, name, counted)

    def constructed(cls, *args, _original=F.__new__, **kwargs):
        made.update(set(active))
        return _original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", constructed)
    for owner, name in WATCHED:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            active.append(_name)
            calls[_name] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                active.pop()

        # `correlated` calls `verify_witness` through its own import of it.
        for holder in (owner, *MODULES):
            if vars(holder).get(name) is original:
                monkeypatch.setattr(holder, name, wrapper)
    return active, ops, calls, made


@pytest.fixture(scope="module")
def cases():
    # Built before any patching: `_case` runs `random_ce`, which solves too.
    return [_case(k) for k in range(CASES)]


def _verdicts(cases):
    return [
        (correlated.test_ce_compatibility(game, p), nash.test_nash_exploitability(game, p))
        for game, p in cases
    ]


def test_the_counter_counts(watched):
    active, ops, _calls, made = watched
    active.append("probe")
    assert (F(1, 2) + F(1, 3) - 1) * 6 / 2 == F(-1, 2)
    active.pop()
    F(1, 2) * 2  # outside every watched function: not counted
    assert ops == {"probe": 4}
    made.clear()
    active.append("probe")
    F(1, 2), F(3)
    active.pop()
    F(1, 2)
    assert made == {"probe": 2}


def test_hot_path_makes_no_fraction_arithmetic(cases, watched):
    _active, ops, calls, made = watched
    verdicts = _verdicts(cases)
    assert {type(ce) for ce, _ne in verdicts} == {
        correlated.Compatible, correlated.Exploitable
    }
    assert {type(ne) for _ce, ne in verdicts} == {nash.IsNash, nash.Exploitable}
    assert set(calls) == {name for _owner, name in WATCHED}
    assert not ops
    assert made["build_ce_system"] == made["verify_outcome"] == 0
    assert made["verify_witness"] == made["phase_one"] == 0


def test_verify_outcome_never_reaches_the_tableau(cases, watched, monkeypatch):
    active, _ops, calls, _made = watched
    expected = _verdicts(cases)
    reached = Counter()

    def guarded(owner, name):
        original = getattr(owner, name)

        def guard(*args, **kwargs):
            reached[name] += 1
            if "verify_outcome" in active:
                raise AssertionError(f"verify_outcome reached {name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, guard)

    guarded(lp._Simplex, "_express")
    guarded(lp._Simplex, "join")
    guarded(lp, "_eliminate")
    guarded(lp, "solve_feasibility")
    assert _verdicts(cases) == expected
    assert reached["_express"] and reached["join"] and reached["_eliminate"]
    # One solve per case that reaches the solver, checked once by the
    # solver, over two passes of the cases.
    assert reached["solve_feasibility"] == SOLVES
    assert calls["verify_outcome"] == 2 * SOLVES


def _players_who_gain(game, p):
    # Players with a supported action that is not a best reply.
    table = games.payoff_numerators(game, p)
    return sum(
        any(w and v < max(values) for w, v in zip(weights, values))
        for (weights, _scale), (values, _den) in zip(p.int_rows, table)
    )


def test_the_nash_test_builds_only_the_gain_it_returns(cases, watched):
    _active, _ops, _calls, made = watched
    for game, p in cases:
        made.clear()
        verdict = nash.test_nash_exploitability(game, p)
        assert made["test_nash_exploitability"] == isinstance(verdict, nash.Exploitable)
    # Players are compared in integers: a case where two of them could
    # gain still builds one Fraction.
    assert any(_players_who_gain(game, p) >= 2 for game, p in cases)


def test_a_parsed_game_is_written_from_its_integers(watched):
    active, _ops, _calls, made = watched
    players, actions = ["P1", "P2"], [["a", "b"], ["c", "d"]]
    payoffs = [["0.5", "2/4", "1e1", "-3"], ["-3", "1e1", "2/4", "0.5"]]
    text = json.dumps({
        "players": players,
        "actions": dict(zip(players, actions)),
        "payoffs": dict(zip(players, payoffs)),
    })
    parsed = dataio.parse_game(text)
    active.append("emit_game")
    written = dataio.emit_game(parsed)
    active.pop()
    assert not made
    assert written == dataio.emit_game(games.Game(players, actions, payoffs))
    assert json.loads(written)["payoffs"]["P1"] == ["1/2", "1/2", "10", "-3"]
