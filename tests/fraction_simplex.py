"""Reference dense Fraction tableau for the exact simplex in `eqaudit.lp`.

This is the rational tableau that `lp._Simplex` keeps as integer rows with
row denominators, condensed to the nonbasic columns. From every row of a
system, both run the same pivots over the same standard form,
entering on the greatest improvement and leaving by the lexicographic
ratio test, so `solve` and `maximize` here must return exactly what
`lp.solve_feasibility` and `lp.maximize` return. The rule is written
here again in Fractions, apart from the integer form in `lp`. It lives in the tests so
that the package carries one arithmetic core.
"""

from __future__ import annotations

from fractions import Fraction

from eqaudit import lp
from eqaudit.games import as_fraction
from eqaudit.lp import GE, LinearSystem

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionSimplex:
    """Dense rational tableau over the standard equality form of a system.

    Variable j is column j, every one nonnegative, and `>=` rows get a
    surplus column after them. A `>=` row whose right-hand side is at most
    zero is negated and starts with its own surplus column in the basis,
    at value `-rhs`. Every other row is sign-flipped so its right-hand side
    is nonnegative and gets an artificial column for the starting basis.
    Artificial columns never re-enter the basis; at the phase-one optimum
    the reduced costs of the artificial and slack-started surplus columns
    encode the dual multipliers.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        ncols = system.num_vars
        self.surplus: list[int | None] = []
        for row in system.rows:
            if row.sense == GE:
                self.surplus.append(ncols)
                ncols += 1
            else:
                self.surplus.append(None)
        # Row k starts from its surplus column when that column alone is a
        # feasible basic variable; every other row needs an artificial.
        first_art = ncols
        self.art: list[int | None] = []
        for row in system.rows:
            if row.sense == GE and row.rhs <= 0:
                self.art.append(None)
            else:
                self.art.append(ncols)
                ncols += 1
        self.ncols = ncols
        self.is_art = [j >= first_art for j in range(ncols)]

        self.T: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.flip: list[int] = []
        self.basis: list[int] = []
        for k, row in enumerate(system.rows):
            vec = [_ZERO] * ncols
            vec[: system.num_vars] = row.coeffs
            scol = self.surplus[k]
            if scol is not None:
                vec[scol] = -_ONE
            rhs = row.rhs
            acol = self.art[k]
            if rhs < 0 or acol is None:
                vec = [-v for v in vec]
                rhs = -rhs
                self.flip.append(-1)
            else:
                self.flip.append(1)
            if acol is None:
                self.basis.append(scol)
            else:
                vec[acol] = _ONE
                self.basis.append(acol)
            self.T.append(vec)
            self.b.append(rhs)
        self.objrow: list[Fraction] = []

    def _pivot(self, r: int, col: int) -> None:
        row = self.T[r]
        piv = row[col]
        if piv != 1:
            inv = _ONE / piv
            row = [v * inv if v else v for v in row]
            self.T[r] = row
            self.b[r] *= inv
        nonzero = [j for j, v in enumerate(row) if v]
        br = self.b[r]
        for r2, row2 in enumerate(self.T):
            if r2 == r:
                continue
            factor = row2[col]
            if factor:
                for j in nonzero:
                    row2[j] -= factor * row[j]
                if br:
                    self.b[r2] -= factor * br
        factor = self.objrow[col]
        if factor:
            objrow = self.objrow
            for j in nonzero:
                objrow[j] -= factor * row[j]
        self.basis[r] = col

    def _run(self) -> None:
        # Greatest improvement: of the non-artificial columns with a
        # negative reduced cost, enter the one whose step to its minimum
        # ratio lowers the objective most, ties to the more negative
        # reduced cost and then the lowest index; one with no positive
        # entry is unbounded. Leave on the minimum ratio, ties broken by
        # the lexicographically smallest row, over the columns basic when
        # the run started and in row order, divided by its entry in the
        # entering column.
        objrow = self.objrow
        start = self.basis[:]
        while True:
            enter, best = -1, None
            for j in range(self.ncols):
                if self.is_art[j] or objrow[j] >= 0:
                    continue
                ratios = [b / row[j] for row, b in zip(self.T, self.b) if row[j] > 0]
                if not ratios:
                    raise ArithmeticError("objective is unbounded")
                key = (-objrow[j] * min(ratios), -objrow[j])
                if best is None or key > best:
                    enter, best = j, key
            if enter < 0:
                return
            leave = -1
            best_key = None
            for r, row in enumerate(self.T):
                a = row[enter]
                if a > 0:
                    key = [self.b[r] / a] + [row[col] / a for col in start]
                    if best_key is None or key < best_key:
                        best_key = key
                        leave = r
            if leave < 0:
                raise ArithmeticError("objective is unbounded")
            self._pivot(leave, enter)

    def phase_one(self) -> Fraction:
        """Minimize the artificial total; returns the optimal value."""
        objrow = [_ZERO] * self.ncols
        for r, row in enumerate(self.T):
            if not self.is_art[self.basis[r]]:
                continue
            for j, v in enumerate(row):
                if v and not self.is_art[j]:
                    objrow[j] -= v
        self.objrow = objrow
        self._run()
        return sum(
            (self.b[r] for r in range(len(self.T)) if self.is_art[self.basis[r]]),
            _ZERO,
        )

    def farkas(self) -> tuple[Fraction, ...]:
        # A slack-started row was negated and its surplus column carries
        # cost 0 and entry +1 there, so that column's reduced cost is the
        # row's multiplier. An artificial column k carries cost 1, so its
        # reduced cost is 1 - y_k; undo the sign flip applied to its row.
        out = []
        for k, acol in enumerate(self.art):
            if acol is None:
                out.append(self.objrow[self.surplus[k]])
            else:
                out.append(self.flip[k] * (_ONE - self.objrow[acol]))
        return tuple(out)

    def point(self) -> tuple[Fraction, ...]:
        xstd = [_ZERO] * self.ncols
        for r, col in enumerate(self.basis):
            xstd[col] = self.b[r]
        return tuple(xstd[: self.system.num_vars])

    def _purge_artificials(self) -> None:
        # A basic artificial sits at zero after a successful phase one, but
        # later pivots in other rows could push it positive and silently
        # leave the feasible set. Swap each one for a structural column in
        # its row; a row with no structural entry left is redundant and can
        # never change again, so it is safe to keep.
        for r in range(len(self.T)):
            if not self.is_art[self.basis[r]]:
                continue
            row = self.T[r]
            for j in range(self.ncols):
                if row[j] and not self.is_art[j]:
                    self._pivot(r, j)
                    break

    def phase_two_max(self, objective) -> Fraction:
        self._purge_artificials()
        cost = [_ZERO] * self.ncols
        for j, c in enumerate(objective):
            cost[j] = -as_fraction(c)
        objrow = list(cost)
        for r, row in enumerate(self.T):
            cb = cost[self.basis[r]]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        objrow[j] -= cb * v
        self.objrow = objrow
        self._run()
        return -sum(
            (cost[self.basis[r]] * self.b[r] for r in range(len(self.T))), _ZERO
        )



def solve(system: LinearSystem) -> lp.FeasibilityOutcome:
    """The outcome `lp.solve_feasibility` must return, unverified."""
    simplex = FractionSimplex(system)
    if simplex.phase_one() > 0:
        return lp.Infeasible(simplex.farkas())
    return lp.Feasible(simplex.point())


def maximize(system: LinearSystem, objective):
    """The `(value, point)` `lp.maximize` must return on a bounded feasible system."""
    simplex = FractionSimplex(system)
    if simplex.phase_one() > 0:
        raise ValueError("system is infeasible")
    try:
        value = simplex.phase_two_max(tuple(objective))
    except ArithmeticError:
        raise ValueError("objective is unbounded over the feasible set") from None
    return value, simplex.point()
