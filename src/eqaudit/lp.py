"""Exact rational linear feasibility with constructive infeasibility proofs.

A `LinearSystem` mixes `>=` and `==` rows over variables that are all
nonnegative, as the probabilities the package solves for are. A `Row`,
and either outcome (a `Feasible` point, an `Infeasible` certificate),
is built from and holds integers over one positive denominator, with no
factor common to all of them, so each has one form; only `point` and
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
degeneracy tolerance (Dantzig, Orden and Wolfe, 1955).

The tableau is exact, fraction-free and condensed: it holds one column
per nonbasic variable, and each row's own basic entry is its
denominator, as in integer pivoting on a dictionary (Avis, *lrs*, 2000).
A pivot cross-multiplies every other row at the pivot row's nonzero
entries and divides out its gcd, in the manner of Edmonds' and Bareiss'
integer-preserving elimination. Rows join the tableau one at a time,
each expressed over the nonbasic columns as a cost row is priced; on the
empty tableau that is a slack start. A `>=` row the current point
satisfies (at the origin, one whose right-hand side is at most zero, an
incentive row, say) starts with its own surplus column basic. Every other
row gets an artificial column, priced into the phase-one objective, the
sum of the artificials. `solve_feasibility(system, start)` joins the
rows in `start` first, and each other row once a point the run reaches
violates it; the run then goes on from the same basis, where every row
is again lexicographically positive, so the argument above still holds
and each row joins at most once (Kelley's cutting planes, J. SIAM 1960).
If the artificial sum cannot be driven to zero, the phase-one dual
multipliers are returned as a Farkas certificate: nonnegative on
inequality rows, free on equality rows, 0 on a row that never joined,
combining the rows into `y.A <= 0` in every column while `y.b > 0`.
`verify_outcome` checks either arm against the whole system by direct
substitution, in integers, reading the outcome's numerators and each
row's numerators and denominator as the system defines them, with no
code shared with the tableau.

`maximize` exposes phase two, a vertex under an integer objective, on
the same tableau, for one caller: `oracles.random_ce`, the input
generator of the tests, scripts and benchmark. Feasibility testing and
`--oracle` never use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import index

GE = ">="
EQ = "=="

@dataclass(frozen=True, init=False)
class Row:
    """One row `nums . x  sense  rhs_num` of a linear system, its integers
    all over one positive denominator `den` and divided by their gcd, so
    `gcd(*nums, rhs_num, den) == 1` and a row has one form however it was
    written."""

    nums: tuple[int, ...]
    sense: str
    rhs_num: int
    den: int

    def __init__(self, nums, sense: str, rhs_num: int, den: int):
        if sense not in (GE, EQ):
            raise ValueError(f"row sense must be {GE!r} or {EQ!r}")
        if den <= 0:
            raise ValueError("row denominator must be positive")
        nums = tuple(nums)
        g = gcd(*nums, rhs_num, den)
        if g != 1:
            nums = tuple([v // g for v in nums])
            rhs_num //= g
            den //= g
        # Frozen: fill the fields past the dataclass's __setattr__.
        vars(self).update(nums=nums, sense=sense, rhs_num=rhs_num, den=den)


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
    """Numerators `nums` over `den` > 0, divided by the gcd of its integers."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, nums, den: int):
        if den <= 0:
            raise ValueError("outcome denominator must be positive")
        nums = tuple(nums)
        g = gcd(*nums, den)
        vars(self).update(nums=tuple([v // g for v in nums]), den=den // g)

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
    """Condensed exact tableau over the standard equality form of the rows
    of a system that have joined it, as the module docstring describes.

    Variable j is column j; a `>=` row k's surplus column is `num_vars`
    plus the number of `>=` rows before it, and artificial columns are
    numbered from `first_art` as rows join; they never re-enter the basis.
    `start[k]` is the column row k began basic in, None until it joins,
    and `flip[k]` the sign it joined with; at the phase-one optimum that
    column's reduced cost encodes the row's dual multiplier.

    Only nonbasic columns are held, in the order `cols`. A row is a list
    of ints, one per nonbasic column, then its right-hand side, then its
    denominator: its positive entry in its own basic column `basis[r]`,
    every other basic column being zero in it. No factor is common to all
    of a row's ints. The objective `obj` has the same form, with minus the
    current cost as its right-hand side. `where[c]` is the position of
    nonbasic column c, or `~r` when c is basic in row r.
    """

    def __init__(self, system: LinearSystem, rows=None):
        self.system = system
        n = system.num_vars
        self.surplus = list(accumulate((row.sense == GE for row in system.rows), initial=n))
        self.first_art = self.next_art = self.surplus.pop()
        self.cols = list(range(n))
        self.where = {j: j for j in range(n)}
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        self.obj = [0] * n + [0, 1]
        self.start: list[int | None] = [None] * len(system.rows)
        self.flip = [0] * len(system.rows)
        ks = range(len(system.rows)) if rows is None else sorted(set(rows))
        if ks and not 0 <= ks[0] <= ks[-1] < len(system.rows):
            raise ValueError("start names a row the system does not have")
        self.join(ks)

    def _express(self, nums, rhs: int, own: int) -> list[int]:
        """The row `nums . x + own * v = rhs`, `nums` over the system's
        variables and `v` a column basic in no row, over the nonbasic
        columns: each basic variable the row uses is eliminated with its
        row, in row order. It prices a cost row and places a joining row."""
        n = len(self.cols)
        vec = [0] * n + [rhs, own]
        basic = []
        for j, c in enumerate(nums):
            if c:
                at = self.where[j]
                if at >= 0:
                    vec[at] = c
                else:
                    basic.append((~at, c))
        if basic:  # held past the end, in row order, until eliminated
            basic.sort()
            vec += [c for _r, c in basic]
            for slot, (r, _c) in enumerate(basic, n + 2):
                row = self.T[r]
                vec = _eliminate(vec, slot, row[-1], _terms(row))
            del vec[n + 2 :]
        return vec

    def join(self, ks) -> None:
        """Add system rows `ks`, in order, at the current basis; a row with
        an artificial column has it priced into the phase-one objective."""
        for k in ks:
            row = self.system.rows[k]
            vec = self._express(row.nums, row.rhs_num, -row.den)
            scale = -vec[-1]  # the row's own denominator, scaled with it
            if row.sense == GE and vec[-2] <= 0:  # the point satisfies it
                vec = [-v for v in vec]
                col, sign = self.surplus[k], -1
            else:
                col, sign = self.next_art, -1 if vec[-2] < 0 else 1
                self.next_art += 1
                vec = [sign * v for v in vec[:-1]] + [scale]
                if row.sense == GE:  # its surplus column joins the nonbasic ones
                    at = len(self.cols)
                    for other in (*self.T, self.obj, vec):
                        other.insert(at, 0)
                    vec[at] = -sign * scale
                    self.cols.append(self.surplus[k])
                    self.where[self.surplus[k]] = at
                self.obj = _eliminate(self.obj + [self.obj[-1]], len(self.obj), scale, _terms(vec))
                del self.obj[-1]
            self.where[col] = ~len(self.T)
            self.T.append(vec)
            self.basis.append(col)
            self.start[k], self.flip[k] = col, sign

    def _pivot(self, r: int, q: int) -> None:
        # Column `cols[q]` enters in row r and the row's basic column leaves
        # to position q. The pivot row already has no common factor; only
        # the sign of its new denominator may need fixing, and its old
        # denominator becomes its entry in the leaving column.
        row = self.T[r]
        if row[q] < 0:
            row = self.T[r] = [-v for v in row]
        p = row[q]
        row[q], row[-1] = row[-1], p
        terms = _terms(row)
        for r2, row2 in enumerate(self.T):
            if r2 != r and row2[q]:
                self.T[r2] = _eliminate(row2, q, p, terms)
        if self.obj[q]:
            self.obj = _eliminate(self.obj, q, p, terms)
        enter, leave = self.cols[q], self.basis[r]
        self.cols[q], self.basis[r] = leave, enter
        self.where[leave], self.where[enter] = q, ~r

    def _run(self) -> None:
        # The module docstring's rules. Non-artificial column j, at position
        # q, has c_j = -obj[q] (the objective row has one denominator, so
        # its numerators compare as they are) and theta_j the least ratio
        # rhs / a over the rows with a > 0, compared by cross-multiplying,
        # as row denominators are positive and cancel. An improving column
        # with no positive entry is unbounded. The scan keeps each column's
        # first row of least ratio, which leaves unless another row ties
        # it; only a tie goes to `_lex_leave`.
        start = self.basis[:]
        rows, cols, first_art = self.T, self.cols, self.first_art
        while True:
            obj = self.obj
            enter = -1
            for q, j in enumerate(cols):
                c = -obj[q]
                if c <= 0 or j >= first_art:
                    continue
                num = den = 0  # theta_j = num / den; den 0 while none is seen
                for r, row in enumerate(rows):
                    a = row[q]
                    if a > 0:
                        rhs = row[-2]
                        if not rhs:  # theta_j is 0; later rows may tie it
                            num, den, least, tied = 0, 1, r, True
                            break
                        if den:
                            new, old = rhs * den, num * a
                            if new >= old:
                                tied = tied or new == old
                                continue
                        num, den, least, tied = rhs, a, r, False
                if not den:
                    raise ArithmeticError("objective is unbounded")
                # Compare c * num / den with the best, cross-multiplied.
                if enter >= 0:
                    new, old = c * num * best_den, best_gain * den
                    if new < old or new == old and (c, -j) < (best_c, -best_j):
                        continue
                enter, best_j, best_c, best_gain, best_den = q, j, c, c * num, den
                leave, tie = least, tied
            if enter < 0:
                return
            if tie:
                leave = self._lex_leave(enter, leave, start)
            self._pivot(leave, enter)

    def _lex_leave(self, q: int, first: int, start: list[int]) -> int:
        """Of row `first` and the later rows whose ratio in position q ties
        its, the lexicographically smallest over the columns `start` basic
        when the run began, each divided by its entry in position q."""
        where, best, top = self.where, first, self.T[first]
        for r in range(first + 1, len(self.T)):
            row = self.T[r]
            a = row[q]
            if a <= 0 or row[-2] * top[q] != top[-2] * a:
                continue
            for col in start:
                at = where[col]
                if at >= 0:
                    lhs, rhs = row[at] * top[q], top[at] * a
                else:  # basic in row ~at: its denominator there, else 0
                    lhs = row[-1] * top[q] if ~at == r else 0
                    rhs = top[-1] * a if ~at == best else 0
                if lhs != rhs:
                    break
            if lhs < rhs:
                best, top = r, row
        return best

    def phase_one(self) -> int:
        """Minimize the artificial total from the current basis; returns
        the optimal value's numerator over the objective's positive
        denominator, so only its sign is read."""
        self._run()
        return -self.obj[-2]

    def farkas(self) -> tuple[list[int], int]:
        """The phase-one dual multipliers over the objective's denominator,
        0 on every row that has not joined."""
        # Row k's multiplier is y_k = flip_k * (c - r), where r is the
        # reduced cost of the column the row started in, 0 while basic, and
        # c that column's cost: 1 for an artificial, 0 for a surplus column.
        obj = self.obj
        den = obj[-1]
        out = []
        for sign, col in zip(self.flip, self.start):
            if col is None:
                out.append(0)
                continue
            at = self.where[col]
            cost = den if col >= self.first_art else 0
            out.append(sign * (cost - (obj[at] if at >= 0 else 0)))
        return out, den

    def point(self) -> tuple[list[int], int]:
        """The basic solution in the system's variables, over one denominator."""
        x = [(0, 1)] * self.system.num_vars
        for row, col in zip(self.T, self.basis):
            if col < len(x) and row[-2]:
                x[col] = (row[-2], row[-1])
        den = lcm(*(d for _n, d in x))
        return [n * (den // d) for n, d in x], den

    def _purge_artificials(self) -> None:
        # A basic artificial sits at zero after a successful phase one, but
        # later pivots in other rows could push it positive and silently
        # leave the feasible set. Swap each one for the lowest structural
        # column in its row; a row with no structural entry left is
        # redundant and can never change again, so it is safe to keep.
        for r, col in enumerate(self.basis):
            if col >= self.first_art:
                row = self.T[r]
                found = [(j, q) for q, j in enumerate(self.cols)
                         if row[q] and j < self.first_art]
                if found:
                    self._pivot(r, min(found)[1])

    def phase_two_max(self, objective) -> Fraction:
        self._purge_artificials()
        self.obj = self._express([-c for c in objective], 0, 1)
        self._run()
        return Fraction(self.obj[-2], self.obj[-1])


def _terms(row: list[int]) -> list[tuple[int, int]]:
    """The nonzero `(position, entry)` pairs of a row, right-hand side
    included and denominator left out."""
    terms = [(j, v) for j, v in enumerate(row) if v]
    terms.pop()
    return terms


def _eliminate(
    row2: list[int], q: int, p: int, terms: list[tuple[int, int]]
) -> list[int]:
    """Zero position `q` of `row2`, whose entry there is f, by subtracting
    f / p times the row given by its nonzero `(position, entry)` pairs
    `terms`, in which `p` > 0 is the denominator of the variable `q`
    stood for. In a pivot that row is the pivot row after the swap, so
    `terms` gives the leaving column's entry at `q`; in `_express` it is
    a basic row and `q` its slot. `row2`'s own denominator is not in
    `terms`, so it scales by p and stays the denominator of the result.
    Both multipliers are divided by their gcd first, so `row2` is often
    copied unscaled, and the result is divided by its own gcd."""
    f = row2[q]
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    new = row2[:] if p == 1 else [a * p for a in row2]
    new[q] = 0
    for j, b in terms:
        new[j] -= f * b
    g = gcd(*new)
    if g != 1:
        new = [v // g for v in new]
    return new


def solve_feasibility(system: LinearSystem, start=None) -> FeasibilityOutcome:
    """Return a feasible point or a Farkas infeasibility certificate.

    The rows numbered in `start` (every row when it is None) are solved
    first; a row outside it joins the same tableau only once a point the
    tableau reaches violates it, and the run goes on from there. Exactly
    one arm is produced, a certificate being 0 on every row that never
    joined, and it is re-verified against the whole system by
    substitution before being returned, so a bug in the pivoting can
    never escape as a wrong answer.
    """
    simplex = _Simplex(system, start)
    while simplex.phase_one() == 0:
        x, den = simplex.point()
        late = []
        for k, row in enumerate(system.rows):
            if simplex.start[k] is None:
                gap = sum(c * v for c, v in zip(row.nums, x) if c) - row.rhs_num * den
                if gap < 0 or gap and row.sense == EQ:
                    late.append(k)
        if not late:
            outcome: FeasibilityOutcome = Feasible(x, den)
            break
        simplex.join(late)
    else:
        outcome = Infeasible(*simplex.farkas())
    if not verify_outcome(system, outcome):
        raise RuntimeError("solver produced an outcome that fails verification")
    return outcome


def maximize(system: LinearSystem, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize a linear objective, one integer per variable, over a
    feasible system.

    Returns `(value, point)` at an optimal vertex. Raises TypeError, before
    any pivot, on an objective entry that is not an integer, and
    ValueError if the system is infeasible or the objective unbounded.
    """
    objective = [index(c) for c in objective]
    if len(objective) != system.num_vars:
        raise ValueError("objective length does not match variable count")
    simplex = _Simplex(system)
    if simplex.phase_one() > 0:
        raise ValueError("system is infeasible")
    try:
        value = simplex.phase_two_max(objective)
    except ArithmeticError:
        raise ValueError("objective is unbounded over the feasible set") from None
    outcome = Feasible(*simplex.point())
    if not verify_outcome(system, outcome):
        raise RuntimeError("optimizer left the feasible set")
    return value, outcome.point
