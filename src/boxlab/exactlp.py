"""Exact rational linear programming via a two-phase primal simplex.

Arbitrary-precision :class:`~fractions.Fraction` arithmetic throughout; no
tolerances anywhere.  Bland's anti-cycling rule guarantees termination, and the
fixed variable order makes results deterministic: identical programs yield
identical results.  Problem sizes in this package are tiny (at most a few
dozen rows and ~130 standard-form columns), so simplicity beats speed.

Every returned answer is re-verified against the original program before it is
handed back: optimal solutions are re-checked constraint by constraint,
and infeasibility is re-certified by the phase-1 optimum.  Every variable is
nonnegative.  No program this package builds has an unbounded objective, so
one is reported as :class:`~boxlab.errors.MalformedProgram` rather than as a
status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    """Dense simplex tableau with Bland's rule, kept exact with Fractions."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction],
                 basis: list[int], ncols: int) -> None:
        self.rows = rows          # m lists of length ncols
        self.rhs = rhs            # length m, kept >= 0
        self.basis = basis        # basic column index per row
        self.ncols = ncols

    def pivot(self, row: int, col: int) -> None:
        pivot_value = self.rows[row][col]
        inv = _ONE / pivot_value
        self.rows[row] = [v * inv for v in self.rows[row]]
        self.rhs[row] *= inv
        pivot_row = self.rows[row]
        pivot_rhs = self.rhs[row]
        for r in range(len(self.rows)):
            if r == row:
                continue
            factor = self.rows[r][col]
            if factor == 0:
                continue
            target = self.rows[r]
            for j in range(self.ncols):
                if pivot_row[j] != 0:
                    target[j] -= factor * pivot_row[j]
            self.rhs[r] -= factor * pivot_rhs
        self.basis[row] = col

    def run_simplex(self, cost: list[Fraction], allowed: list[bool]) -> None:
        """Minimize ``cost . y`` from the current basis.

        ``allowed[j]`` False bars column j from entering.  Raises
        :class:`MalformedProgram` when the objective is unbounded below.
        """
        m = len(self.rows)
        while True:
            # Reduced costs via the basic cost multipliers.
            basic_cost = [cost[self.basis[r]] for r in range(m)]
            entering = -1
            for j in range(self.ncols):
                if not allowed[j] or j in self.basis:
                    continue
                reduced = cost[j]
                for r in range(m):
                    if basic_cost[r] != 0 and self.rows[r][j] != 0:
                        reduced -= basic_cost[r] * self.rows[r][j]
                if reduced < 0:
                    entering = j
                    break  # Bland: first (lowest-index) improving column.
            if entering < 0:
                return
            leaving = -1
            best_ratio: Fraction | None = None
            for r in range(m):
                coeff = self.rows[r][entering]
                if coeff > 0:
                    ratio = self.rhs[r] / coeff
                    if (best_ratio is None or ratio < best_ratio or
                            (ratio == best_ratio and
                             self.basis[r] < self.basis[leaving])):
                        best_ratio = ratio
                        leaving = r
            if leaving < 0:
                raise MalformedProgram(
                    f"objective is unbounded along column {entering}")
            self.pivot(leaving, entering)

    def solution(self, ncols: int) -> list[Fraction]:
        values = [_ZERO] * ncols
        for r, col in enumerate(self.basis):
            if col < ncols:
                values[col] = self.rhs[r]
        return values


def solve(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly.

    Two-phase primal simplex: phase 1 minimizes the sum of artificial
    variables from an all-artificial basis; a positive phase-1 optimum proves
    infeasibility.  Phase 2 optimizes the requested objective.  The returned
    vertex solution is re-verified against the original constraints.
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

    m = len(rows)
    total = width + m
    for r in range(m):
        art = [_ZERO] * m
        art[r] = _ONE
        rows[r] = rows[r] + art
    basis = [width + r for r in range(m)]
    tableau = _Tableau(rows, rhs, basis, total)

    # --- phase 1 ----------------------------------------------------------
    # Bounded below by 0, so this never raises.
    tableau.run_simplex([_ZERO] * width + [_ONE] * m, [True] * total)
    artificial_level = sum(
        (tableau.rhs[r] for r in range(m) if tableau.basis[r] >= width), _ZERO)
    if artificial_level > 0:
        # Re-verify the infeasibility certificate exactly.
        y = tableau.solution(total)
        recomputed = sum(y[width:], _ZERO)
        if recomputed != artificial_level or recomputed <= 0:
            raise AssertionError("phase-1 infeasibility certificate mismatch")
        return LPResult(INFEASIBLE)

    # Drive remaining zero-level artificials out of the basis.
    for r in range(m):
        if tableau.basis[r] >= width:
            pivot_col = next(
                (j for j in range(width) if tableau.rows[r][j] != 0), None)
            if pivot_col is not None:
                tableau.pivot(r, pivot_col)
    keep = [r for r in range(m) if tableau.basis[r] < width]
    tableau.rows = [tableau.rows[r] for r in keep]
    tableau.rhs = [tableau.rhs[r] for r in keep]
    tableau.basis = [tableau.basis[r] for r in keep]

    # --- phase 2 ----------------------------------------------------------
    sign = Fraction(-1) if lp.maximize else _ONE
    cost = [sign * c for c in objective] + [_ZERO] * (total - lp.n)
    tableau.run_simplex(cost, [True] * width + [False] * m)

    x = tableau.solution(lp.n)
    value = sum((objective[i] * x[i] for i in range(lp.n)), _ZERO)
    _verify_solution(objective, eq_rows, eq_rhs, le_rows, le_rhs, x, value)
    return LPResult(OPTIMAL, value, tuple(x))


def _verify_solution(objective, eq_rows, eq_rhs, le_rows, le_rhs,
                     x: list[Fraction], value: Fraction) -> None:
    if any(v < 0 for v in x):
        raise AssertionError("simplex returned a negative variable")
    for row, b in zip(eq_rows, eq_rhs):
        if sum((c * v for c, v in zip(row, x)), _ZERO) != b:
            raise AssertionError("simplex solution violates an equality")
    for row, b in zip(le_rows, le_rhs):
        if sum((c * v for c, v in zip(row, x)), _ZERO) > b:
            raise AssertionError("simplex solution violates an inequality")
    if sum((c * v for c, v in zip(objective, x)), _ZERO) != value:
        raise AssertionError("objective value mismatch")

