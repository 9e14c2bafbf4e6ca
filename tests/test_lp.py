import dataclasses
import math
import random
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks
import fraction_simplex
from eqaudit import correlated, lp
from eqaudit.correlated import build_ce_system
from eqaudit.oracles import random_ce, random_game, random_marginals
from test_golden_verdicts import CASES, _case


def system(num_vars, rows):
    return lp.LinearSystem(num_vars, tuple(rows))


def test_single_variable_feasible():
    out = lp.solve_feasibility(system(1, [lp.eq([1], 1)]))
    assert isinstance(out, lp.Feasible)
    assert out.point == (F(1),)
    assert lp.verify_outcome(system(1, [lp.eq([1], 1)]), out)


def test_single_variable_infeasible():
    sys_ = system(1, [lp.eq([1], -1)])
    out = lp.solve_feasibility(sys_)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify_outcome(sys_, out)


def test_verify_rejects_wrong_point():
    sys_ = system(1, [lp.eq([1], 1)])
    assert not lp.verify_outcome(sys_, lp.Feasible((F(0),)))
    assert not lp.verify_outcome(sys_, lp.Feasible((F(1), F(0))))


def test_zero_row_contradiction():
    sys_ = system(2, [lp.ge([0, 0], 1)])
    out = lp.solve_feasibility(sys_)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify_outcome(sys_, out)


def test_ge_rows_and_mixed_senses():
    sys_ = system(
        2,
        [lp.ge([1, 0], 2), lp.ge([0, 1], 3), lp.eq([1, 1], 10)],
    )
    out = lp.solve_feasibility(sys_)
    assert isinstance(out, lp.Feasible)
    x = out.point
    assert x[0] >= 2 and x[1] >= 3 and x[0] + x[1] == 10


def test_maximize_beale_cycling_instance():
    # A classic degenerate program that cycles under naive pivoting; the
    # anti-cycling rule must still reach the optimum of 1/20.
    rows = [
        lp.ge([F(-1, 4), 60, F(1, 25), -9], 0),
        lp.ge([F(-1, 2), 90, F(1, 50), -3], 0),
        lp.ge([0, 0, -1, 0], -1),
    ]
    sys_ = system(4, rows)
    value, point = lp.maximize(sys_, (F(3, 4), -150, F(1, 50), -6))
    assert value == F(1, 20)
    assert lp.verify_outcome(sys_, lp.Feasible(point))


def test_maximize_rejects_unbounded():
    with pytest.raises(ValueError):
        lp.maximize(system(1, [lp.ge([1], 0)]), (1,))


def test_maximize_rejects_infeasible():
    with pytest.raises(ValueError):
        lp.maximize(system(1, [lp.eq([1], -1)]), (1,))


@contextmanager
def _recorded_pivots():
    # The (row, entering column) of every pivot of the integer tableau,
    # which is handed the column's position among the nonbasic ones.
    pivots = []
    pivot = lp._Simplex._pivot

    def recorded(self, r, q):
        pivots.append((r, self.cols[q]))
        pivot(self, r, q)

    with mock.patch.object(lp._Simplex, "_pivot", recorded):
        yield pivots


def test_entering_takes_the_greatest_improvement():
    # Maximize 2 x1 + x2 with 2 x1 + x2 <= 4 and x1 <= 1; both rows are
    # slack-started, so phase one makes no pivot. Dantzig's rule enters x1,
    # the larger reduced cost, which can rise only to 1 (a gain of 2), and
    # needs a second pivot to reach (1, 2). x2 can rise to 4 (a gain of 4),
    # so it enters instead and one pivot reaches the optimum at (0, 4).
    sys_ = system(2, [lp.ge([-2, -1], -4), lp.ge([-1, 0], -1)])
    with _recorded_pivots() as pivots:
        value, point = lp.maximize(sys_, (2, 1))
    assert pivots == [(0, 1)]
    assert (value, point) == (F(4), (F(0), F(4)))


@pytest.mark.parametrize("objective, first", [((1, 2), 1), ((2, 1), 0), ((1, 1), 0)])
def test_a_degenerate_vertex_enters_dantzigs_column(objective, first):
    # x1 = x2 and x1 + x2 <= 2: at the origin each column has a positive
    # entry in a row whose right-hand side is 0, so every step is 0 and
    # the tie goes to the larger reduced cost, then the lower index.
    sys_ = system(2, [lp.ge([-1, 1], 0), lp.ge([1, -1], 0), lp.ge([-1, -1], -2)])
    with _recorded_pivots() as pivots:
        _value, point = lp.maximize(sys_, objective)
    assert pivots[0][1] == first
    assert point == (F(1), F(1))


def test_an_unbounded_column_is_caught_before_any_pivot():
    # Maximize 3 x1 + x2 with x1 <= 1: x2 has no positive entry and is
    # unbounded, though x1 has the larger reduced cost and a finite step;
    # the scan finds x2 before any pivot is made.
    sys_ = system(2, [lp.ge([-1, 0], -1)])
    with _recorded_pivots() as pivots, pytest.raises(ValueError, match="unbounded"):
        lp.maximize(sys_, (3, 1))
    assert pivots == []


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        system(2, [lp.eq([1], 1)])


def _random_system(rng):
    n = rng.randint(2, 5)
    m = rng.randint(2, 7)
    rows = []
    for _ in range(m):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        rhs = F(rng.randint(-4, 4))
        sense = rng.choice([lp.GE, lp.EQ])
        rows.append(lp.Row(tuple(coeffs), sense, rhs))
    return lp.LinearSystem(n, tuple(rows))


def test_random_systems_exclusive_and_verified():
    # Whatever arm comes back must check out by substitution; scaling any
    # row by a positive rational must not change the arm.
    rng = random.Random(2024)
    feasible = infeasible = 0
    for _ in range(120):
        sys_ = _random_system(rng)
        out = lp.solve_feasibility(sys_)
        assert lp.verify_outcome(sys_, out)
        if isinstance(out, lp.Feasible):
            feasible += 1
        else:
            infeasible += 1
        k = rng.randrange(len(sys_.rows))
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        row = sys_.rows[k]
        scaled = lp.Row(
            tuple(scale * c for c in row.coeffs), row.sense, scale * row.rhs
        )
        rows = sys_.rows[:k] + (scaled,) + sys_.rows[k + 1 :]
        out2 = lp.solve_feasibility(lp.LinearSystem(sys_.num_vars, rows))
        assert type(out2) is type(out)
    # the generator must exercise both arms for the test to mean anything
    assert feasible > 10 and infeasible > 10


def test_slack_started_row_carries_positive_multiplier():
    # x2 >= x1 starts from its own surplus column; with x1 + x2 = 1 and
    # x1 >= 3/4 it is infeasible, and the proof needs that row.
    sys_ = system(
        2, [lp.ge([-1, 1], 0), lp.eq([1, 1], 1), lp.ge([1, 0], F(3, 4))]
    )
    out = lp.solve_feasibility(sys_)
    assert out == lp.Infeasible((F(1, 2), F(-1, 2), F(1)))
    assert lp.verify_outcome(sys_, out)


def test_negative_rhs_ge_rows_on_both_arms():
    # x <= 1 written as -x >= -1 is slack-started; x = 2 contradicts it.
    sys_ = system(1, [lp.ge([-1], -1), lp.eq([1], 2)])
    out = lp.solve_feasibility(sys_)
    assert out == lp.Infeasible((F(1), F(1)))
    assert lp.verify_outcome(sys_, out)

    # x1 - x2 <= 2 and x1 <= 5, both slack-started, with x1 + x2 = 4.
    # Both columns have reduced cost -1, but x1 can rise only to 2 before
    # x1 - x2 <= 2 binds and x2 to 4, so x2 enters and one pivot reaches
    # (0, 4); Dantzig's rule entered x1 and ended at (3, 1).
    sys_ = system(2, [lp.ge([-1, 1], -2), lp.ge([-1, 0], -5), lp.eq([1, 1], 4)])
    out = lp.solve_feasibility(sys_)
    assert out == lp.Feasible((F(0), F(4)))
    assert lp.verify_outcome(sys_, out)


def test_ce_system_artificials_only_on_marginal_rows():
    # Every incentive row starts from its surplus column, so the only
    # artificial columns belong to the kept marginal equalities: one per
    # supported action, less the last one of every player after the first.
    # Started from the marginal rows alone, the incentive rows the point
    # violates join with an artificial column each, and no others join.
    rng = random.Random(7)
    for _ in range(6):
        game = random_game(rng)
        p = random_marginals(rng, game)
        sys_ = build_ce_system(game, p)
        simplex = lp._Simplex(sys_)
        with_art = [k for k, col in enumerate(simplex.start) if col >= simplex.first_art]
        marginal_rows = sum(len(p.support(i)) for i in range(game.num_players))
        marginal_rows -= game.num_players - 1
        first_marginal = len(sys_.rows) - marginal_rows
        assert first_marginal > 0
        assert with_art == list(range(first_marginal, len(sys_.rows)))
        assert simplex.next_art - simplex.first_art == marginal_rows

        simplex = lp._Simplex(sys_, range(first_marginal, len(sys_.rows)))
        assert simplex.start[:first_marginal] == [None] * first_marginal
        if simplex.phase_one() == 0:
            x, den = simplex.point()
            late = [k for k, row in enumerate(sys_.rows[:first_marginal])
                    if sum(c * v for c, v in zip(row.nums, x)) < 0]
            simplex.join(late)
            assert [k for k, col in enumerate(simplex.start) if col is not None] == sorted(
                late + with_art
            )
            assert simplex.next_art - simplex.first_art == marginal_rows + len(late)
            assert all(simplex.start[k] >= simplex.first_art for k in late)


# Denominators mix small values with distinct 21-bit primes, so row
# scales differ and entries need many bits before any cancellation.
_DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 1048583, 1048589, 2097143, 2097133)
_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from(_DENOMINATORS))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_rationals, max_size=6),
    st.sampled_from((lp.GE, lp.EQ)),
    _rationals,
    st.sampled_from((1, 2, 3, 12, 2**21 + 7, 2**64)),
)
def test_a_row_has_one_integer_form(coeffs, sense, rhs, k):
    # Whichever constructor builds it and whatever common factor its
    # integers carry, a row reduces to the same fields, reads back the
    # Fractions it was given and compares and hashes by its integers.
    row = lp.Row(coeffs, sense, rhs)
    assert row.coeffs == tuple(coeffs) and row.rhs == rhs
    assert row.den > 0 and math.gcd(*row.nums, row.rhs_num, row.den) == 1
    over = lp.Row.over([k * c for c in row.nums], sense, k * row.rhs_num, k * row.den)
    assert (over.nums, over.sense, over.rhs_num, over.den) == (
        row.nums, row.sense, row.rhs_num, row.den
    )
    assert over == row and hash(over) == hash(row)
    assert lp.Row([str(c) for c in coeffs], sense, str(rhs)) == row


def test_a_row_rejects_a_bad_sense_and_cannot_change():
    for sense in ("<=", ">", "="):
        with pytest.raises(ValueError):
            lp.Row([1], sense, 0)
        with pytest.raises(ValueError):
            lp.Row.over([1], sense, 0, 1)
    for den in (0, -1):
        with pytest.raises(ValueError):
            lp.Row.over([1], lp.GE, 0, den)
    row = lp.ge([F(1, 2), 3], F(1, 3))
    assert (row.nums, row.rhs_num, row.den) == ((3, 18), 2, 6)
    for name in ("nums", "sense", "rhs_num", "den", "coeffs", "rhs", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, 1)
    assert (row.nums, row.rhs_num, row.den) == ((3, 18), 2, 6)


def test_outcomes_hold_one_integer_form():
    # Either arm holds numerators over one positive denominator with no
    # common factor; the Fraction constructor and `over` agree, and each
    # arm reads back only its own field.
    for arm, field, other in (
        (lp.Feasible, "point", "multipliers"),
        (lp.Infeasible, "multipliers", "point"),
    ):
        built = arm((F(1, 2), F(-3, 4), 0, "5/6"))
        assert (built.nums, built.den) == ((6, -9, 0, 10), 12)
        assert arm.over([12, -18, 0, 20], 24) == built
        assert hash(arm.over((6, -9, 0, 10), 12)) == hash(built)
        assert getattr(built, field) == (F(1, 2), F(-3, 4), F(0), F(5, 6))
        assert not hasattr(built, other)
        assert arm.over((), 5) == arm(()) and arm(()).den == 1
        for den in (0, -1):
            with pytest.raises(ValueError):
                arm.over((1,), den)
        for name in ("nums", "den", field):
            with pytest.raises(AttributeError):  # FrozenInstanceError is one
                setattr(built, name, 1)
    assert lp.Feasible((F(1),)) != lp.Infeasible((F(1),))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(_rationals, min_size=n, max_size=n))
        # rhs < 0, = 0 and > 0 each a third of the time
        rhs = draw(st.sampled_from((-1, 0, 1))) * (abs(draw(_rationals)) or F(1))
        rows.append(lp.Row(tuple(coeffs), draw(st.sampled_from((lp.GE, lp.EQ))), rhs))
    return lp.LinearSystem(n, tuple(rows))


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_solve_matches_the_fraction_tableau(sys_):
    # Same rational tableau, same entering rule and lexicographic
    # leaving: the same outcome exactly.
    assert lp.solve_feasibility(sys_) == fraction_simplex.solve(sys_)


@st.composite
def _degenerate_systems(draw):
    # Every `>=` row has right-hand side 0, and rows are repeated or all
    # zero, so ratio ties and zero pivots are the rule, not the exception.
    n = draw(st.integers(1, 5))
    zero_row = [F(0)] * n
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(
            st.one_of(st.just(zero_row), st.lists(_rationals, min_size=n, max_size=n))
        )
        sense = draw(st.sampled_from((lp.GE, lp.EQ)))
        rhs = 0 if sense == lp.GE else draw(st.sampled_from((F(0), F(1))))
        rows.append(lp.Row(tuple(coeffs), sense, rhs))
    rows += [rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows = draw(st.permutations(rows))
    return lp.LinearSystem(n, tuple(rows))


@contextmanager
def _counted_pivots(limit=None):
    # Pivots per tableau class. A cycling rule would loop forever; with a
    # `limit`, fail instead once either tableau has made more pivots.
    counts = {lp._Simplex: 0, fraction_simplex.FractionSimplex: 0}

    def counting(cls):
        pivot = cls._pivot

        def counted(self, r, col):
            counts[cls] += 1
            assert limit is None or counts[cls] <= limit, "no termination"
            pivot(self, r, col)

        return mock.patch.object(cls, "_pivot", counted)

    with counting(lp._Simplex), counting(fraction_simplex.FractionSimplex):
        yield counts


@settings(max_examples=300, deadline=None)
@given(_degenerate_systems(), st.data())
def test_degenerate_systems_terminate_and_match_the_fraction_tableau(sys_, data):
    objective = data.draw(
        st.lists(_rationals, min_size=sys_.num_vars, max_size=sys_.num_vars)
    )
    with _counted_pivots(limit=200):
        assert lp.solve_feasibility(sys_) == fraction_simplex.solve(sys_)
    with _counted_pivots(limit=200):
        assert _maximize_or_error(lp.maximize, sys_, objective) == _maximize_or_error(
            fraction_simplex.maximize, sys_, objective
        )


@contextmanager
def _joined_rows():
    # The system rows of every `_Simplex.join` call, in order.
    joined = []
    join = lp._Simplex.join

    def recorded(self, ks):
        joined.append(list(ks))
        join(self, joined[-1])

    with mock.patch.object(lp._Simplex, "join", recorded):
        yield joined


@settings(max_examples=300, deadline=None)
@given(st.one_of(_systems(), _degenerate_systems()), st.data())
def test_a_solve_from_some_rows_decides_as_one_from_all(sys_, data):
    # From every row, a solve returns the Fraction reference's outcome
    # after as many pivots. From any rows, it reaches the same verdict, its
    # outcome holds for the whole system, every row joins at most once,
    # and a certificate is 0 on every row that never joined.
    with _counted_pivots(limit=200) as counts:
        whole = lp.solve_feasibility(sys_)
        assert whole == fraction_simplex.solve(sys_)
    assert counts[lp._Simplex] == counts[fraction_simplex.FractionSimplex]
    start = data.draw(st.sets(st.integers(0, len(sys_.rows) - 1)))
    with _joined_rows() as joined, _counted_pivots(limit=200):
        out = lp.solve_feasibility(sys_, start)
    assert type(out) is type(whole)
    assert lp.verify_outcome(sys_, out)
    assert joined[0] == sorted(start) and all(joined[1:])
    rows = [k for ks in joined for k in ks]
    assert len(rows) == len(set(rows))
    if isinstance(out, lp.Infeasible):
        assert not any(y for k, y in enumerate(out.multipliers) if k not in rows)
    if len(start) == len(sys_.rows):
        assert out == whole


def test_a_start_row_outside_the_system_is_refused():
    sys_ = system(1, [lp.eq([1], 1), lp.ge([1], 0)])
    assert lp.solve_feasibility(sys_, [1, 1]) == lp.solve_feasibility(sys_, [1])
    for start in ([-1], [2], [0, 2]):
        with pytest.raises(ValueError, match="start names a row"):
            lp.solve_feasibility(sys_, start)


def test_golden_ce_cases_take_the_pinned_number_of_pivots():
    # The total pivots of the 40 golden `test-ce` requests. A change that
    # moves it changes the path of the simplex or the systems it solves
    # and must say so: Bland's rule took 292; Dantzig entering with the
    # lexicographic ratio test took 240 on the whole coupling system, and
    # 180 over the rounds that generate its incentive rows; it took 101
    # once Nash marginals and dominated play were decided without it, and
    # takes 79 entering on the greatest improvement. Each of these cases
    # is decided by the rows it starts from, so it is also 79 with rows
    # joining one tableau.
    cases = [_case(k) for k in range(CASES)]
    with _counted_pivots() as counts:
        for game, p in cases:
            correlated.test_ce_compatibility(game, p)
    assert counts[lp._Simplex] == 79


def _full(simplex):
    """The condensed tableau written out in full: every constraint row and
    then the objective, over every column the rows use, a last column for
    the objective's denominator, and the right-hand side. A basic column
    holds the row's denominator in its own row and 0 in every other."""
    columns = sorted([*simplex.cols, *simplex.basis])
    rows = []
    for r, row in enumerate([*simplex.T, simplex.obj]):
        entries = []
        for col in columns:
            at = simplex.where[col]
            entries.append(row[at] if at >= 0 else row[-1] if ~at == r else 0)
        own = row[-1] if r == len(simplex.T) else 0
        rows.append([*entries, own, row[-2]])
    return columns, rows


@contextmanager
def _dense_pivot_check():
    # After every pivot the tableau written out in full must equal the
    # parent tableau with the pivot row sign-fixed and every other row that
    # has an entry in the pivot column reduced by the dense reference step.
    pivot = lp._Simplex._pivot
    pivots = [0]

    def checked(self, r, q):
        columns, before = _full(self)
        col = columns.index(self.cols[q])
        pivot(self, r, q)
        row = before[r] if before[r][col] > 0 else [-v for v in before[r]]
        assert _full(self) == (columns, [
            row if r2 == r else fraction_checks.eliminate(row2, row, col) if row2[col] else row2
            for r2, row2 in enumerate(before)
        ])
        pivots[0] += 1

    with mock.patch.object(lp._Simplex, "_pivot", checked):
        yield pivots


_entries = st.one_of(st.just(0), st.integers(-(2**40), 2**40))


@st.composite
def _elimination_cases(draw):
    """A pivot row holding its own positive denominator at `col` and a row
    whose basic column the pivot row does not use, with zero and negative
    entries, each scaled by a factor that may give a large gcd."""
    n = draw(st.integers(2, 12))
    col, basic = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    row = draw(st.lists(_entries, min_size=n, max_size=n))
    row2 = draw(st.lists(_entries, min_size=n, max_size=n))
    row[col] = draw(st.integers(1, 2**40))
    row[basic] = 0
    row2[basic] = draw(st.integers(1, 2**40))
    factors = st.sampled_from((1, 2, 6, 2**31 - 1, 2**61 - 1, 2**89 - 1))
    k, k2 = draw(factors), draw(factors)
    return [k * v for v in row], [k2 * v for v in row2], col


@settings(max_examples=500, deadline=None)
@given(_elimination_cases(), st.one_of(st.just(0), st.integers(1, 2**40)), st.booleans())
def test_the_sparse_step_matches_the_dense_one(case, d, negate):
    # The condensed step keeps no basic column, so the pivot row's entry
    # `d` in its leaving column (0 when the step eliminates a basic row
    # from a row being expressed) stands at `col`, and `row2`'s result
    # there is its entry in that column: the dense step with the leaving
    # column written out last.
    row, row2, col = case
    d = -d if negate else d
    original = row2[:]
    after = row[:col] + [d] + row[col + 1 :]
    new = lp._eliminate(row2, col, row[col], [(j, v) for j, v in enumerate(after) if v])
    dense = fraction_checks.eliminate(row2 + [0], row + [d], col)
    assert dense[col] == 0
    assert new == dense[:col] + [dense[-1]] + dense[col + 1 : -1]
    assert row2 == original


@settings(max_examples=200, deadline=None)
@given(st.one_of(_systems(), _degenerate_systems()), st.data())
def test_every_pivot_matches_the_dense_step(sys_, data):
    objective = data.draw(
        st.lists(_rationals, min_size=sys_.num_vars, max_size=sys_.num_vars)
    )
    with _dense_pivot_check():
        lp.solve_feasibility(sys_)
        _maximize_or_error(lp.maximize, sys_, objective)


def test_every_golden_pivot_matches_the_dense_step():
    cases = [_case(k) for k in range(CASES)]
    with _dense_pivot_check() as pivots:
        for game, p in cases:
            correlated.test_ce_compatibility(game, p)
    assert pivots[0] == 79


def _assert_tableau_invariants(simplex):
    # Every row holds one entry per nonbasic column, then its right-hand
    # side and its own positive denominator, and has no common factor; the
    # objective has the same form. `where` places every column, nonbasic
    # at its position and basic at its row.
    width = len(simplex.cols) + 2
    assert not set(simplex.cols) & set(simplex.basis)
    assert [simplex.where[col] for col in simplex.cols] == list(range(len(simplex.cols)))
    assert [~simplex.where[col] for col in simplex.basis] == list(range(len(simplex.T)))
    for row in [*simplex.T, simplex.obj]:
        assert len(row) == width and row[-1] > 0
        assert math.gcd(*row) == 1


@settings(max_examples=300, deadline=None)
@given(_systems(), st.data())
def test_every_row_holds_its_own_denominator(sys_, data):
    simplex = lp._Simplex(sys_)
    feasible = simplex.phase_one() == 0
    _assert_tableau_invariants(simplex)
    if feasible:
        objective = data.draw(
            st.lists(_rationals, min_size=sys_.num_vars, max_size=sys_.num_vars)
        )
        try:
            simplex.phase_two_max(objective)
        except ArithmeticError:  # unbounded: the tableau is still whole
            pass
        _assert_tableau_invariants(simplex)


def _maximize_or_error(maximize, sys_, objective):
    try:
        return maximize(sys_, objective)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_systems(), st.data())
def test_maximize_matches_the_fraction_tableau(sys_, data):
    objective = data.draw(
        st.lists(_rationals, min_size=sys_.num_vars, max_size=sys_.num_vars)
    )
    assert _maximize_or_error(lp.maximize, sys_, objective) == _maximize_or_error(
        fraction_simplex.maximize, sys_, objective
    )


def test_ce_systems_match_the_fraction_tableau():
    # The marginal rows bound every CE system; marginals of a sampled CE
    # make it feasible, so maximize returns a vertex on those.
    rng = random.Random(8)
    for k in range(30):
        game = random_game(rng)
        p = random_ce(game, k).marginals() if k % 2 else random_marginals(rng, game)
        sys_ = build_ce_system(game, p)
        assert lp.solve_feasibility(sys_) == fraction_simplex.solve(sys_)
        objective = [
            F(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(sys_.num_vars)
        ]
        assert _maximize_or_error(lp.maximize, sys_, objective) == _maximize_or_error(
            fraction_simplex.maximize, sys_, objective
        )


def test_verify_outcome_works_without_the_solver(monkeypatch):
    # The checker must not share the tableau's arithmetic: with the
    # tableau gone it still accepts true outcomes and rejects tampered ones.
    feasible_sys = system(2, [lp.ge([1, 0], 2), lp.eq([1, 1], 5)])
    infeasible_sys = system(
        2, [lp.ge([-1, 1], 0), lp.eq([1, 1], 1), lp.ge([1, 0], F(3, 4))]
    )
    feasible = lp.solve_feasibility(feasible_sys)
    infeasible = lp.solve_feasibility(infeasible_sys)
    assert isinstance(feasible, lp.Feasible) and isinstance(infeasible, lp.Infeasible)

    def explode(*_args, **_kwargs):
        raise AssertionError("the checker reached the solver")

    monkeypatch.setattr(lp, "_Simplex", explode)
    with pytest.raises(AssertionError):
        lp.solve_feasibility(feasible_sys)
    assert lp.verify_outcome(feasible_sys, feasible)
    assert lp.verify_outcome(infeasible_sys, infeasible)
    x = feasible.point
    assert not lp.verify_outcome(feasible_sys, lp.Feasible((x[0] - F(1, 3), x[1])))
    assert not lp.verify_outcome(feasible_sys, lp.Feasible((F(1), F(4))))
    y = infeasible.multipliers
    assert not lp.verify_outcome(infeasible_sys, lp.Infeasible((F(0),) + y[1:]))
    assert not lp.verify_outcome(infeasible_sys, lp.Infeasible((-y[0],) + y[1:]))


@st.composite
def _tampered(draw, values):
    """`values` with one entry shifted by +-1/N, its sign flipped or set
    to 0, for N up to 2**21."""
    values = list(values)
    if not values:
        return values
    k = draw(st.integers(0, len(values) - 1))
    move = draw(st.sampled_from(("shift", "flip", "zero")))
    if move == "shift":
        values[k] += draw(st.sampled_from((1, -1))) * F(1, draw(st.integers(1, 2**21)))
    elif move == "flip":
        values[k] = -values[k]
    else:
        values[k] = F(0)
    return values


def _outcomes(sys_, data):
    """The solver's outcome, tampered copies of it, a vector of the other
    arm and a vector of the wrong length."""
    out = lp.solve_feasibility(sys_)
    if isinstance(out, lp.Feasible):
        arm, other, values = lp.Feasible, lp.Infeasible, out.point
    else:
        arm, other, values = lp.Infeasible, lp.Feasible, out.multipliers
    outcomes = [out]
    outcomes += [arm(tuple(data.draw(_tampered(values)))) for _ in range(3)]
    size = len(sys_.rows) if other is lp.Infeasible else sys_.num_vars
    outcomes.append(other(tuple(data.draw(st.lists(_rationals, min_size=size, max_size=size)))))
    outcomes.append(arm(tuple(values) + (F(0),)))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(st.one_of(_systems(), _degenerate_systems()), st.data())
def test_verify_outcome_matches_the_fraction_check(sys_, data):
    # The integer check and its Fraction reference agree on the solver's
    # outcome of either arm and on every tampered one.
    for outcome in _outcomes(sys_, data):
        expected = fraction_checks.verify_outcome(sys_, outcome)
        assert lp.verify_outcome(sys_, outcome) == expected


def test_verify_outcome_check_sees_both_arms_and_rejections():
    # The agreement test means something only if its cases reach both arms
    # and both answers of each.
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(_systems(), st.data())
    def record(sys_, data):
        for outcome in _outcomes(sys_, data):
            seen.add((type(outcome), fraction_checks.verify_outcome(sys_, outcome)))

    record()
    assert seen == {(arm, ok) for arm in (lp.Feasible, lp.Infeasible) for ok in (True, False)}
