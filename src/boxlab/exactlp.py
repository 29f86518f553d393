"""Exact rational linear programming via a two-phase primal simplex.

The simplex pivots in integers (Edmonds 1967; Bareiss 1968).  Each
standard-form row is scaled by the lcm of its coefficients' denominators and
the right-hand side by one common factor ``t``, so the starting tableau is an
integer matrix ``M`` over the all-artificial basis, with ``d = 1``; the true
tableau is always ``M / d``.  A pivot on entry ``p`` replaces every entry
``x`` outside the pivot row by ``(p*x - f*y) // d``, where ``f`` is its row's
entry in the pivot column and ``y`` the pivot row's entry in its column, and
then sets ``d = p``.  ``M`` is then ``d`` times ``B^-1`` times the scaled
matrix, for the current basis ``B``, with ``d = |det B|``, so every division
is exact (Cramer's rule).  Only a drive-out pivot can be negative; it is
followed by negating ``M`` and ``d``, so that ``d > 0`` and the signs of
``M`` are those of the true tableau.  The reduced-cost row is one more
integer row on the same scale, pivoted with the others, so nothing is
recomputed per iteration.  The step (:func:`_bareiss_step`) and the lcm
scaling (:func:`_integers`) also serve the subset search in :mod:`.decompose`.

The pivots are those of the rational simplex on the unscaled program.
Scaling a row leaves ``B^-1 A`` unchanged.  Each artificial column stays a
unit vector, which rescales its variable by its row's factor ``s_r``, and
gets the phase-1 cost ``1/s_r``, which keeps the phase-1 objective.
Rescaling a column (an artificial or the right-hand side) only multiplies its
reduced cost, its ratios and its variable's row by positive factors.  Bland's
rule reads only signs, the ratio test compares ratios by cross-multiplying
integers, and ties still go to the lowest basic variable, so every program
takes the same pivots and gets the same answer.  :class:`~fractions.Fraction`
remains only at the boundary: the input rows, the final
``x[j] = M[r][-1] / (d*t)``, and the checks below.  No tolerances anywhere;
Bland's rule guarantees termination, and the fixed variable order makes
identical programs yield identical results.

Every returned answer is re-verified against the original program before it
is handed back: optimal solutions are re-checked constraint by constraint,
and infeasibility by a Farkas certificate ``y`` read from the final phase-1
reduced costs and checked against the standard-form rows (``y . a_j <= 0``
for every column, ``y . b > 0``).  Every variable is nonnegative.  No
program this package builds has an unbounded objective, so one is reported
as :class:`~boxlab.errors.MalformedProgram` rather than as a status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import MalformedProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LinearProgram:
    """``max/min objective . x`` subject to ``eq_rows x = eq_rhs``,
    ``le_rows x <= le_rhs`` and ``x >= 0``."""

    n: int
    objective: Sequence[Fraction]
    maximize: bool = True
    eq_rows: Sequence[Sequence[Fraction]] = field(default_factory=list)
    eq_rhs: Sequence[Fraction] = field(default_factory=list)
    le_rows: Sequence[Sequence[Fraction]] = field(default_factory=list)
    le_rhs: Sequence[Fraction] = field(default_factory=list)


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve`: status plus exact optimum when it exists."""

    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


def _validated(lp: LinearProgram) -> tuple[list[Fraction], list[list[Fraction]],
                                           list[Fraction], list[list[Fraction]],
                                           list[Fraction]]:
    if lp.n < 0:
        raise MalformedProgram("variable count must be nonnegative")
    objective = [Fraction(v) for v in lp.objective]
    if len(objective) != lp.n:
        raise MalformedProgram(
            f"objective length {len(objective)} != variable count {lp.n}")
    if len(lp.eq_rows) != len(lp.eq_rhs):
        raise MalformedProgram("eq_rows and eq_rhs lengths differ")
    if len(lp.le_rows) != len(lp.le_rhs):
        raise MalformedProgram("le_rows and le_rhs lengths differ")
    eq_rows = [[Fraction(v) for v in row] for row in lp.eq_rows]
    le_rows = [[Fraction(v) for v in row] for row in lp.le_rows]
    for row in eq_rows + le_rows:
        if len(row) != lp.n:
            raise MalformedProgram(
                f"constraint row length {len(row)} != variable count {lp.n}")
    eq_rhs = [Fraction(v) for v in lp.eq_rhs]
    le_rhs = [Fraction(v) for v in lp.le_rhs]
    return objective, eq_rows, eq_rhs, le_rows, le_rhs


class _Tableau:
    """Integer simplex tableau with Bland's rule: the true tableau is
    ``rows / d`` and the true reduced costs are ``cost / d``.

    The last entry of every row is its right-hand side, kept >= 0; the last
    entry of ``cost`` is ``-d`` times the objective value.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis        # basic column index per row
        self.cost: list[int] = []
        self.d = 1

    def price(self, c: list[int]) -> None:
        """Set the reduced-cost row for integer costs ``c`` (one per column,
        0 for the right-hand side): ``d*c - sum_r c[basis[r]] * rows[r]``."""
        cost = [self.d * v for v in c]
        for row, col in zip(self.rows, self.basis):
            if c[col]:
                cost = [v - c[col] * w for v, w in zip(cost, row)]
        self.cost = cost

    def pivot(self, row: int, col: int) -> None:
        p = self.rows[row][col]
        pivot = (col, p, self.d, self.rows[row])
        self.rows = [target if r == row else _bareiss_step(target, pivot)
                     for r, target in enumerate(self.rows)]
        self.cost = _bareiss_step(self.cost, pivot)
        self.basis[row] = col
        if p < 0:
            # Only drive-out pivots can be negative; keep d > 0 so the
            # signs of the integer entries are the true tableau's.
            self.rows = [[-v for v in target] for target in self.rows]
            self.cost = [-v for v in self.cost]
            p = -p
        self.d = p

    def run_simplex(self) -> None:
        """Minimize from the current basis until no reduced cost is negative.

        Raises :class:`MalformedProgram` when the objective is unbounded
        below.
        """
        ncols = len(self.cost) - 1
        while True:
            cost = self.cost
            # Bland: first (lowest-index) improving column.  Basic columns
            # have reduced cost 0.
            entering = next((j for j in range(ncols) if cost[j] < 0), -1)
            if entering < 0:
                return
            leaving = -1
            for r, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    if leaving < 0:
                        leaving, best_rhs, best_coeff = r, row[-1], coeff
                        continue
                    # rhs/coeff against best_rhs/best_coeff, denominators > 0.
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if lhs < rhs or (lhs == rhs and
                                     self.basis[r] < self.basis[leaving]):
                        leaving, best_rhs, best_coeff = r, row[-1], coeff
            if leaving < 0:
                raise MalformedProgram(
                    f"objective is unbounded along column {entering}")
            self.pivot(leaving, entering)


def _bareiss_step(v: list[int], pivot: tuple[int, int, int, list[int]]
                  ) -> list[int]:
    """Clear ``v`` at the pivot ``(column, p, d, row)``, ``d`` the previous
    pivot value: ``x -> (p*x - f*y) // d`` with ``f = v[column]``, exact
    (Cramer's rule); with ``f = 0`` that is ``v`` scaled by ``p/d``."""
    col, p, d, row = pivot
    f = v[col]
    if f == 0:
        if p == d:
            return v
        return [x * p // d for x in v]
    return [(x * p - f * y) // d for x, y in zip(v, row)]


def _integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(s, s*values)`` with ``s`` the lcm of the values' denominators."""
    s = lcm(*(v.denominator for v in values))
    return s, [v.numerator * (s // v.denominator) for v in values]


def solve(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly.

    Two-phase primal simplex: phase 1 minimizes the sum of artificial
    variables from an all-artificial basis; a positive phase-1 optimum means
    infeasibility, proved by a checked Farkas certificate.  Phase 2
    optimizes the requested objective.  The returned vertex solution is
    re-verified against the original constraints.
    """
    objective, eq_rows, eq_rhs, le_rows, le_rhs = _validated(lp)

    # --- standard form: minimize, equality rows, slack per inequality -----
    nslack = len(le_rows)
    rows = [row + [_ZERO] * nslack for row in eq_rows]
    rhs = list(eq_rhs)
    for k, row in enumerate(le_rows):
        slack = [_ZERO] * nslack
        slack[k] = _ONE
        rows.append(row + slack)
        rhs.append(le_rhs[k])
    width = lp.n + nslack
    for r in range(len(rows)):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # --- integer tableau: scaled rows, unit artificial columns ------------
    m = len(rows)
    scales = []
    tableau_rows = []
    for r in range(m):
        s, scaled = _integers(rows[r])
        scales.append(s)
        tableau_rows.append(scaled + [int(k == r) for k in range(m)])
    # One common factor t makes the right-hand side integer; scaling a
    # column changes no pivot, and keeps d free of the rhs denominators.
    t, b = _integers([s * v for s, v in zip(scales, rhs)])
    for row, v in zip(tableau_rows, b):
        row.append(v)
    tableau = _Tableau(tableau_rows, [width + r for r in range(m)])
    common = lcm(*scales)
    # Phase-1 cost 1/s_r for artificial r, times common.
    tableau.price([0] * width + [common // s for s in scales] + [0])

    # --- phase 1 ----------------------------------------------------------
    # Bounded below by 0, so this never raises.
    tableau.run_simplex()
    if tableau.cost[-1] != 0:
        # The artificial of row r costs 1/s_r and has reduced cost
        # cost[width + r] / (d*common), so the phase-1 dual of unscaled row r
        # is 1 - s_r*cost[width + r] / (d*common); y is that times d*common.
        y = [tableau.d * common - s * tableau.cost[width + r]
             for r, s in enumerate(scales)]
        _verify_infeasibility(rows, rhs, y)
        return LPResult(INFEASIBLE)

    # Drive remaining zero-level artificials out of the basis.
    for r in range(m):
        if tableau.basis[r] >= width:
            pivot_col = next(
                (j for j in range(width) if tableau.rows[r][j] != 0), None)
            if pivot_col is not None:
                tableau.pivot(r, pivot_col)
    keep = [r for r in range(m) if tableau.basis[r] < width]
    # Artificial columns can no longer enter, so phase 2 drops them.
    tableau.rows = [tableau.rows[r][:width] + tableau.rows[r][-1:]
                    for r in keep]
    tableau.basis = [tableau.basis[r] for r in keep]

    # --- phase 2 ----------------------------------------------------------
    sign = -1 if lp.maximize else 1
    _, c = _integers([sign * v for v in objective])
    tableau.price(c + [0] * (width + 1 - lp.n))
    tableau.run_simplex()

    scale = tableau.d * t
    x = [_ZERO] * lp.n
    for row, col in zip(tableau.rows, tableau.basis):
        if col < lp.n:
            x[col] = Fraction(row[-1], scale)
    value = sum((objective[i] * x[i] for i in range(lp.n)), _ZERO)
    _verify_solution(objective, eq_rows, eq_rhs, le_rows, le_rhs, x, value)
    return LPResult(OPTIMAL, value, tuple(x))


def _verify_infeasibility(rows: list[list[Fraction]], rhs: list[Fraction],
                          y: list[int]) -> None:
    """Check the Farkas certificate ``y`` for ``rows x = rhs, x >= 0``.

    ``y . a_j <= 0`` for every column and ``y . rhs > 0`` leave no
    nonnegative solution: it would give ``0 >= y . A x = y . rhs > 0``.
    """
    for j in range(len(rows[0]) if rows else 0):
        if sum((yr * row[j] for yr, row in zip(y, rows) if yr and row[j]),
               _ZERO) > 0:
            raise AssertionError(
                f"infeasibility certificate fails on column {j}")
    if sum((yr * b for yr, b in zip(y, rhs)), _ZERO) <= 0:
        raise AssertionError("infeasibility certificate has y.b <= 0")


def _verify_solution(objective, eq_rows, eq_rhs, le_rows, le_rhs,
                     x: list[Fraction], value: Fraction) -> None:
    if any(v < 0 for v in x):
        raise AssertionError("simplex returned a negative variable")
    # Sum only nonzero products: a vertex has at most as many nonzero
    # entries as rows, and most coefficients here are 0.
    nonzero = [(j, v) for j, v in enumerate(x) if v]

    def dot(row) -> Fraction:
        return sum((row[j] * v for j, v in nonzero if row[j]), _ZERO)

    if any(dot(row) != b for row, b in zip(eq_rows, eq_rhs)):
        raise AssertionError("simplex solution violates an equality")
    if any(dot(row) > b for row, b in zip(le_rows, le_rhs)):
        raise AssertionError("simplex solution violates an inequality")
    if dot(objective) != value:
        raise AssertionError("objective value mismatch")

