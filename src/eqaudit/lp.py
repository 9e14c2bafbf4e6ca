"""Exact rational linear feasibility with constructive infeasibility proofs.

A `LinearSystem` mixes `>=` and `==` rows over variables that are all
nonnegative, as the probabilities the package solves for are. A `Row`,
and either outcome (a `Feasible` point, an `Infeasible` certificate),
holds integers over one positive denominator, with no factor common to
all of them, so each has one form; `coeffs`, `rhs`, `point` and
`multipliers` are read-only Fraction views. `solve_feasibility` runs
phase one of a two-phase simplex. The entering column is the one of
greatest improvement: of the columns with a negative reduced cost -c_j,
the one whose step to its minimum ratio theta_j lowers the objective
most, c_j * theta_j, with ties to the larger c_j and then the lowest
index, so at a degenerate vertex, where every step is 0, it is Dantzig's
column, the most negative reduced cost (largest-increase rule: Chvatal,
*Linear Programming*, 1983). The leaving row has the minimum ratio, and
ties go to the lexicographically smallest row of the columns basic when
the run began, taken in row order and divided by the row's entry in the
entering column. At that start every row, read over (right-hand side,
those columns), is lexicographically positive, as its right-hand side is
nonnegative and it holds its own basic entry; the lexicographic ratio
test keeps that so, and it makes the objective row read over the same
columns strictly increase lexicographically at every pivot, degenerate
ones included. No basis can recur, so the simplex terminates on every
input under any improving entering rule, this one included, with no
degeneracy tolerance (Dantzig, Orden and Wolfe, 1955). The tableau is
exact and fraction-free: each row is a list of ints whose denominator is
its own entry in its basic column, the objective is the last row, and a
pivot cross-multiplies every other row at the pivot row's nonzero columns
and divides out its gcd, in the manner of Edmonds' and Bareiss'
integer-preserving elimination. A system row enters the tableau as its
numerators, with no denominator to clear. The starting basis is a slack
start: a `>=` row whose right-hand side is at most zero (an incentive
row, say) is already satisfied at the origin, so its own surplus column
is basic at first and the row needs no artificial column. Only equality
rows and `>=` rows with a positive right-hand side get one, and phase
one minimizes their sum. If that sum cannot be driven to zero, the
phase-one dual multipliers are returned as a Farkas certificate:
nonnegative on inequality rows, free on equality rows, combining the
rows into `y.A <= 0` in every column while `y.b > 0`. `verify_outcome`
checks either arm by direct substitution, in integers, reading the
outcome's numerators and each row's numerators and denominator as the
system defines them, with no code shared with the tableau.

`maximize` exposes phase two, a vertex under a linear objective, for one
caller: `oracles.random_ce`, the input generator of the tests, scripts
and benchmark. Feasibility testing and `--oracle` never use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .games import as_fraction, common_denominator

GE = ">="
EQ = "=="

@dataclass(frozen=True, init=False)
class Row:
    """One row `coeffs . x  sense  rhs` of a linear system, held in
    integers: numerators `nums` and `rhs_num` over one positive
    denominator `den`, with `gcd(*nums, rhs_num, den) == 1`, so a row has
    one form however it was written. `Row(coeffs, sense, rhs)` takes
    ints, Fractions or 'n/d' strings; `Row.over` takes the integers.
    `coeffs` and `rhs` read the row back as Fractions."""

    nums: tuple[int, ...]
    sense: str
    rhs_num: int
    den: int

    def __init__(self, coeffs, sense: str, rhs):
        nums, den = common_denominator([as_fraction(v) for v in (*coeffs, rhs)])
        self._hold(nums, sense, den)

    @classmethod
    def over(cls, nums, sense: str, rhs_num: int, den: int) -> Row:
        """The row `nums . x  sense  rhs_num`, all over `den` > 0, divided
        by the gcd of its integers."""
        row = cls.__new__(cls)
        row._hold([*nums, rhs_num], sense, den)
        return row

    def _hold(self, values: list[int], sense: str, den: int) -> None:
        if sense not in (GE, EQ):
            raise ValueError(f"row sense must be {GE!r} or {EQ!r}")
        if den <= 0:
            raise ValueError("row denominator must be positive")
        g = gcd(*values, den)
        if g != 1:
            values = [v // g for v in values]
            den //= g
        # Frozen: fill the fields past the dataclass's __setattr__.
        vars(self).update(
            nums=tuple(values[:-1]), sense=sense, rhs_num=values[-1], den=den
        )

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.den)


def ge(coeffs, rhs=0) -> Row:
    return Row(tuple(coeffs), GE, rhs)


def eq(coeffs, rhs) -> Row:
    return Row(tuple(coeffs), EQ, rhs)


@dataclass(frozen=True)
class LinearSystem:
    """Rows over `num_vars` variables, every one of them nonnegative."""

    num_vars: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        for k, row in enumerate(rows):
            if len(row.nums) != self.num_vars:
                raise ValueError(f"row {k} has {len(row.nums)} coefficients, "
                                 f"expected {self.num_vars}")
        object.__setattr__(self, "rows", rows)

    @property
    def nonneg(self) -> tuple[bool, ...]:
        """`True` for every variable: all of them are nonnegative."""
        return (True,) * self.num_vars


@dataclass(frozen=True, init=False)
class _Outcome:
    """Numerators `nums` over `den`, built from ints, Fractions or 'n/d'
    strings, or from the integers with `over(nums, den)`."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, values):
        self._hold(*common_denominator([as_fraction(v) for v in values]))

    @classmethod
    def over(cls, nums, den: int):
        """`nums / den`, `den` > 0, divided by the gcd of its integers."""
        outcome = cls.__new__(cls)
        outcome._hold(nums, den)
        return outcome

    def _hold(self, nums, den: int) -> None:
        if den <= 0:
            raise ValueError("outcome denominator must be positive")
        g = gcd(*nums, den)
        vars(self).update(nums=tuple(v // g for v in nums), den=den // g)

    def _view(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)


class Feasible(_Outcome):
    point = property(_Outcome._view, doc="The point as Fractions.")


class Infeasible(_Outcome):
    multipliers = property(_Outcome._view, doc="One Fraction multiplier per row.")


FeasibilityOutcome = Feasible | Infeasible


def verify_outcome(system: LinearSystem, outcome: FeasibilityOutcome) -> bool:
    """Check either arm against the system by direct substitution.

    The check runs on integers: the outcome's numerators over its one
    denominator, and each row as the system defines it, its numerators
    over its own denominator; nothing the tableau holds is read."""
    if isinstance(outcome, Feasible):
        x, den = outcome.nums, outcome.den
        if len(x) != system.num_vars:
            return False
        if any(v < 0 for v in x):
            return False
        for row in system.rows:
            value = sum(c * v for c, v in zip(row.nums, x) if c)
            rhs = row.rhs_num * den
            if value < rhs if row.sense == GE else value != rhs:
                return False
        return True
    if isinstance(outcome, Infeasible):
        y = outcome.nums  # over a positive denominator, which no sign depends on
        if len(y) != len(system.rows):
            return False
        if any(yk < 0 for yk, row in zip(y, system.rows) if row.sense == GE):
            return False
        # Row k is nums_k / den_k; all of them over M = lcm of the den_k of
        # the rows that y uses, so y_k * row_k is y_k * (M / den_k) * nums_k.
        used = [(yk, row) for yk, row in zip(y, system.rows) if yk]
        combined = [0] * system.num_vars
        total = 0  # y.b
        scale = lcm(*(row.den for _yk, row in used))
        for yk, row in used:
            factor = yk * (scale // row.den)
            for j, c in enumerate(row.nums):
                if c:
                    combined[j] += factor * c
            total += factor * row.rhs_num
        if any(value > 0 for value in combined):
            return False
        return total > 0
    raise TypeError(f"not a feasibility outcome: {outcome!r}")


class _Simplex:
    """Exact tableau over the standard equality form of a system.

    Variable j is column j, and each `>=` row gets a surplus column after
    them. A `>=` row whose right-hand side is at most zero is negated and
    starts with its own surplus column in the basis, at value `-rhs`.
    Every other row is sign-flipped so its right-hand side is nonnegative
    and gets an artificial column for the starting basis; the artificial
    columns are the block `first_art .. z - 1`, and they never re-enter
    the basis. `start[k]` is the column row k began basic in, its surplus
    or its artificial column; at the phase-one optimum that column's
    reduced cost encodes the row's dual multiplier.

    Each tableau row, right-hand side last, is a list of ints with no
    factor common to all of them, and its denominator is its own entry in
    its basic column, which is positive and zero in every other row. The
    objective is the last row, with basic column `z` (zero in every
    constraint row) holding its denominator and with minus the current
    cost as its right-hand side.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        # Row k starts from its surplus column when that column alone is a
        # feasible basic variable; every other row needs an artificial.
        slack = [row.sense == GE and row.rhs_num <= 0 for row in system.rows]
        surplus = system.num_vars
        self.first_art = art = surplus + sum(row.sense == GE for row in system.rows)
        self.z = art + slack.count(False)
        self.T: list[list[int]] = []
        self.flip: list[int] = []
        self.start: list[int] = []
        for row, from_surplus in zip(system.rows, slack):
            sign = -1 if row.rhs_num < 0 or from_surplus else 1
            vec = self._place(row.nums, row.rhs_num, sign)
            self.start.append(surplus if from_surplus else art)
            if row.sense == GE:
                vec[surplus] = -sign * row.den
                surplus += 1
            if not from_surplus:
                vec[art] = row.den
                art += 1
            self.flip.append(sign)
            self.T.append(vec)
        self.basis = self.start[:]

    def _place(self, nums, rhs_num: int, sign: int) -> list[int]:
        """`sign * (nums, rhs_num)`, a row's numerators, as a tableau row;
        their gcd with the row's denominator is 1."""
        vec = [0] * (self.z + 2)
        for j, c in enumerate(nums):
            if c:
                vec[j] = sign * c
        vec[-1] = sign * rhs_num
        return vec

    def _price(self, cost: list[int], den: int) -> Fraction:
        """Minimize `cost / den` (right-hand side entry 0) from the current
        basis and return the minimum."""
        cost[self.z] = den
        for r, col in enumerate(self.basis):
            if cost[col]:
                row = self.T[r]
                terms = [(j, v) for j, v in enumerate(row) if v]
                cost = _eliminate(cost, col, row[col], terms)
        self.T[len(self.basis):] = [cost]  # replaces or appends the last row
        self._run()
        objective = self.T[-1]
        return Fraction(-objective[-1], objective[self.z])

    def _pivot(self, r: int, col: int) -> None:
        # The pivot row already has no common factor; only the sign of its
        # new denominator may need fixing.
        row = self.T[r]
        if row[col] < 0:
            row = self.T[r] = [-v for v in row]
        p, terms = row[col], [(j, v) for j, v in enumerate(row) if v]
        for r2, row2 in enumerate(self.T):
            if r2 != r and row2[col]:
                self.T[r2] = _eliminate(row2, col, p, terms)
        self.basis[r] = col

    def _run(self) -> None:
        # Greatest improvement: every non-artificial column j with a
        # negative reduced cost, c_j = -objective[j] > 0, would move the
        # objective by c_j * theta_j, theta_j its minimum ratio rhs / a
        # over the rows with a > 0; enter the largest, ties to the larger
        # c_j and then the lowest index, so a degenerate vertex, where
        # every theta_j is 0, enters Dantzig's column. The objective row
        # has one denominator, so its numerators compare as they are. An
        # improving column with no positive entry is unbounded. Leave on
        # the minimum ratio, ties broken by the lexicographically smallest
        # row, over the columns basic when the run started and in row
        # order, divided by its entry in the entering column. Row
        # denominators are positive and cancel in every such quotient, so
        # signs, ratios and the lexicographic order are read from the
        # numerators alone, by cross-multiplication. The objective row has
        # a negative entry in the entering column, so it never leaves.
        # The leaving rule alone keeps every basis from recurring, so any
        # improving entering column terminates.
        start = self.basis[:]
        while True:
            objective = self.T[-1]
            constraints = self.T[:-1]
            enter = -1
            for j in range(self.first_art):
                c = -objective[j]
                if c <= 0:
                    continue
                num = den = 0  # theta_j = num / den; den 0 while none is seen
                for row in constraints:
                    a = row[j]
                    if a > 0:
                        rhs = row[-1]
                        if not rhs:
                            num, den = 0, 1
                            break
                        if not den or rhs * den < num * a:
                            num, den = rhs, a
                if not den:
                    raise ArithmeticError("objective is unbounded")
                # Compare c * num / den with the best, cross-multiplied.
                if enter >= 0:
                    new, old = c * num * best_den, best_gain * den
                    if new < old or new == old and c <= best_c:
                        continue
                enter, best_c, best_gain, best_den = j, c, c * num, den
            if enter < 0:
                return
            leave = -1
            for r, row in enumerate(self.T):
                a = row[enter]
                if a > 0:
                    if leave >= 0:
                        best = self.T[leave]
                        lhs, rhs = row[-1] * best[enter], best[-1] * a
                        if lhs == rhs:
                            for col in start:
                                lhs, rhs = row[col] * best[enter], best[col] * a
                                if lhs != rhs:
                                    break
                        if lhs > rhs:
                            continue
                    leave = r
            if leave < 0:
                raise ArithmeticError("objective is unbounded")
            self._pivot(leave, enter)

    def phase_one(self) -> Fraction:
        """Minimize the artificial total; returns the optimal value."""
        cost = [0] * (self.z + 2)
        cost[self.first_art : self.z] = [1] * (self.z - self.first_art)
        return self._price(cost, 1)

    def farkas(self) -> tuple[list[int], int]:
        """The phase-one dual multipliers over the objective's denominator."""
        # Row k's multiplier is y_k = flip_k * (c - r), where r is the
        # reduced cost of the column the row started in and c that
        # column's cost: 1 for an artificial, 0 for a surplus column.
        objective = self.T[-1]
        den = objective[self.z]
        out = []
        for sign, col in zip(self.flip, self.start):
            cost = den if col >= self.first_art else 0
            out.append(sign * (cost - objective[col]))
        return out, den

    def point(self) -> tuple[list[int], int]:
        """The basic solution in the system's variables, over one denominator."""
        x = [(0, 1)] * self.system.num_vars
        for row, col in zip(self.T, self.basis):
            if col < len(x) and row[-1]:
                x[col] = (row[-1], row[col])
        den = lcm(*(d for _n, d in x))
        return [n * (den // d) for n, d in x], den

    def _purge_artificials(self) -> None:
        # A basic artificial sits at zero after a successful phase one, but
        # later pivots in other rows could push it positive and silently
        # leave the feasible set. Swap each one for a structural column in
        # its row; a row with no structural entry left is redundant and can
        # never change again, so it is safe to keep.
        for r, col in enumerate(self.basis):
            if col < self.first_art:
                continue
            row = self.T[r]
            for j in range(self.first_art):
                if row[j]:
                    self._pivot(r, j)
                    break

    def phase_two_max(self, objective) -> Fraction:
        self._purge_artificials()
        objective = Row(objective, GE, 0)
        return -self._price(self._place(objective.nums, 0, -1), objective.den)


def _eliminate(
    row2: list[int], col: int, p: int, terms: list[tuple[int, int]]
) -> list[int]:
    """Zero `col` in `row2` with the pivot row, given by its nonzero
    `(column, entry)` pairs `terms` and its entry `p` at `col`, which is
    its own denominator; `row2`'s basic entry is zero in the pivot row, so
    it scales by that denominator and stays the denominator of the reduced
    result. Both multipliers are divided by their gcd first, so `row2` is
    often copied unscaled; only the pivot row's nonzero columns change.
    The result is divided by its own gcd, so it is the same row either
    way, from smaller products."""
    f = row2[col]
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    new = row2[:] if p == 1 else [a * p for a in row2]
    for j, b in terms:
        new[j] -= f * b
    g = gcd(*new)
    if g != 1:
        new = [v // g for v in new]
    return new


def solve_feasibility(system: LinearSystem) -> FeasibilityOutcome:
    """Return a feasible point or a Farkas infeasibility certificate.

    Exactly one arm is produced and it is re-verified by substitution
    before being returned, so a bug in the pivoting can never escape as a
    wrong answer.
    """
    simplex = _Simplex(system)
    if simplex.phase_one() > 0:
        outcome: FeasibilityOutcome = Infeasible.over(*simplex.farkas())
    else:
        outcome = Feasible.over(*simplex.point())
    if not verify_outcome(system, outcome):
        raise RuntimeError("solver produced an outcome that fails verification")
    return outcome


def maximize(system: LinearSystem, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize a linear objective over a feasible system.

    Returns `(value, point)` at an optimal vertex. Raises ValueError if
    the system is infeasible or the objective unbounded.
    """
    objective = tuple(objective)
    if len(objective) != system.num_vars:
        raise ValueError("objective length does not match variable count")
    simplex = _Simplex(system)
    if simplex.phase_one() > 0:
        raise ValueError("system is infeasible")
    try:
        value = simplex.phase_two_max(objective)
    except ArithmeticError:
        raise ValueError("objective is unbounded over the feasible set") from None
    outcome = Feasible.over(*simplex.point())
    if not verify_outcome(system, outcome):
        raise RuntimeError("optimizer left the feasible set")
    return value, outcome.point
