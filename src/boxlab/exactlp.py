"""Exact rational linear programming via a primal simplex from a slack start.

Every ``<=`` row whose slack keeps coefficient +1 after the right-hand side
is made nonnegative starts with that slack basic; only the other rows get
artificial variables, and phase 1 (minimize their sum) runs only when there
are any.  Phase 2 optimizes the requested objective.  The entering column
has the most negative reduced cost, the lowest index on ties (Dantzig),
except on the pivot right after a degenerate one (ratio 0), which takes the
lowest-index column with a negative reduced cost (Bland 1977).  The ratio
test breaks ties by the lowest basic variable.  This terminates: a
nondegenerate pivot strictly improves the objective, so a cycle could only
be a run of degenerate pivots, and every pivot in it after the first would
follow a degenerate pivot and go by Bland's rule, under which no cycle
exists.

The simplex pivots in integers (Edmonds 1967; Bareiss 1968).  The
structural columns are scaled by one factor ``s``, the lcm of their
coefficients' denominators, and the right-hand side by one more factor
``t``; the slack and artificial columns stay unit columns.  So the starting
tableau is an integer matrix ``M`` over an identity basis, with ``d = 1``;
the true tableau is always ``M / d``.  A pivot on entry ``p`` replaces
every entry ``x`` outside the pivot row by ``(p*x - f*y) // d``, where
``f`` is its row's entry in the pivot column and ``y`` the pivot row's
entry in its column, and then sets ``d = p``.  ``M`` is then ``d`` times
``B^-1`` times the scaled matrix, for the current basis ``B``, with
``d = |det B|``, so every division is exact (Cramer's rule).  When
``p == d`` the new entry is ``x - f*y // d``, exact because ``p*x - f*y``
and ``p*x = d*x`` are both divisible by ``d``; so only the columns where
the pivot row is nonzero change, and they change in place (each tableau
builds its own row lists).  Every pivot is positive, so ``d > 0`` and the
signs of ``M`` are those of the true tableau: the ratio test takes only
positive entries, and a drive-out that meets a negative entry first
negates its row, whose right-hand side is 0.  The reduced-cost row is one
more integer row on the same scale, pivoted with the others, so nothing is
recomputed per iteration.  The dense step (:func:`_bareiss_step`), taken
when ``p != d``, and the lcm scaling (:func:`_integers`) also serve the
subset search in :mod:`.decompose`.  Every program this package builds
has integer rows, so there ``s = 1``.

The pivots are those of the rational simplex on the unscaled program.
Scaling the structural columns by ``s`` against unit slack and artificial
columns multiplies every reduced cost by a positive constant, and those of
the slack and artificial columns by ``1/s`` more, so pricing multiplies the
latter by ``s`` before it compares them (Bland's rule reads only signs).
The ratio test compares ratios within one column by cross-multiplying
integers, and ties still go to the lowest basic variable, so every program
takes the same pivots and gets the same answer.  A start at ``d = s`` on an
all-scaled matrix would price alike but lose the exact division.
:class:`~fractions.Fraction` remains only at the boundary: an input entry
that is not a whole number (whole ones are read as ints), and the returned
answer, built once from integer numerators over one denominator.  No
tolerances anywhere, and the fixed variable order makes identical programs
yield identical results.

A program may continue from an earlier one (``LinearProgram.start``) whose
rows were all ``<=`` with nonnegative right-hand sides, when it takes those
rows as equalities and only appends trailing columns.  The earlier
standard form ``[rows | slacks | b]`` is then the new program's cold
phase-1 tableau less the new columns, each slack the unit column of its
row's artificial.  Pivots are row operations, so the earlier final
tableau, with each new column entered as its slack block (``d B^-1``)
times the column, is exactly the new cold tableau after the earlier
pivots, at the same ``d``.  Everything after that, the Farkas vector
included, is the cold path's.

Every returned answer is re-verified against the original program before it
is handed back.  An optimal solution is read as integer numerators ``num``
over one denominator ``den = d*t`` (``num[j]`` is the right-hand side of
the row where column ``j`` is basic, else 0) and re-checked in those
integers against the program's own rows, not the tableau: ``num >= 0``,
``a.num == b*den`` on every equality row and ``a.num <= b*den`` on every
``<=`` row, each compared as ``a.num * q`` against ``p * den`` for ``b =
p/q``, so integer rows compare only ints.  That proves the solution
feasible.  Only then is ``x = num / den`` built, and the objective value
read from the same numerators.  Row r started on the unit column ``j``, so
``d`` times its dual is ``d*c[j] - cost[j]`` in the final tableau, and one
checker (:func:`_verify_dual`) tests that vector against the standard-form
rows.  From phase 1 it is a Farkas vector, proving infeasibility; from a
phase 2 with no phase 1 (every row started on its slack) it proves the
optimum, so the contextual-fraction LP and every membership verdict read
from it (see :mod:`.decompose`) are certified.  An optimum that needed
phase 1, the Peres strength's among them, is proved feasible, not
optimal: its optimality rests on the simplex alone.  Every variable is
nonnegative.  No program this package builds has an unbounded objective,
so one is reported as :class:`~boxlab.errors.MalformedProgram` rather than
as a status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import NamedTuple, Sequence

from .errors import MalformedProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)


@dataclass
class LinearProgram:
    """``max/min objective . x`` subject to ``eq_rows x = eq_rhs``,
    ``le_rows x <= le_rhs`` and ``x >= 0``; ``start`` is an earlier
    :func:`solve` result to continue from, and not part of the program."""

    n: int
    objective: Sequence[Fraction]
    maximize: bool = True
    eq_rows: Sequence[Sequence[Fraction]] = field(default_factory=list)
    eq_rhs: Sequence[Fraction] = field(default_factory=list)
    le_rows: Sequence[Sequence[Fraction]] = field(default_factory=list)
    le_rhs: Sequence[Fraction] = field(default_factory=list)
    start: LPResult | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve`: status plus exact optimum when it exists.

    ``tableau`` holds the final tableau of a program that had only ``<=``
    rows with nonnegative right-hand sides, for a later program to continue
    from; it is None otherwise, and takes no part in ``==`` or ``repr``.
    """

    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    tableau: _Final | None = field(default=None, compare=False, repr=False)


def _exact(v) -> int | Fraction:
    """``v`` as an exact number: an int when it is a whole number, else a
    Fraction (from floats, strings, bools and other numbers too); raises
    :class:`MalformedProgram` when ``v`` is no exact number."""
    if type(v) is not Fraction:
        try:
            v = Fraction(v)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise MalformedProgram(
                f"program entry {v!r} is not an exact number") from None
    return v.numerator if v.denominator == 1 else v


def _entries(values) -> list:
    """``values`` as a list, its int entries as they are and every other
    entry through :func:`_exact`."""
    return [v if type(v) is int else _exact(v) for v in values]


def _validated(lp: LinearProgram) -> tuple[list, list[list], list,
                                           list[list], list]:
    """The program's entries as ints and Fractions, lengths checked."""
    if lp.n < 0:
        raise MalformedProgram("variable count must be nonnegative")
    objective = _entries(lp.objective)
    if len(objective) != lp.n:
        raise MalformedProgram(
            f"objective length {len(objective)} != variable count {lp.n}")
    if len(lp.eq_rows) != len(lp.eq_rhs):
        raise MalformedProgram("eq_rows and eq_rhs lengths differ")
    if len(lp.le_rows) != len(lp.le_rhs):
        raise MalformedProgram("le_rows and le_rhs lengths differ")
    eq_rows = [_entries(row) for row in lp.eq_rows]
    le_rows = [_entries(row) for row in lp.le_rows]
    for row in eq_rows + le_rows:
        if len(row) != lp.n:
            raise MalformedProgram(
                f"constraint row length {len(row)} != variable count {lp.n}")
    return (objective, eq_rows, _entries(lp.eq_rhs), le_rows,
            _entries(lp.le_rhs))


class _Tableau:
    """Integer simplex tableau: the true tableau is ``rows / d`` and the true
    reduced costs are ``cost / d``.

    The last entry of every row is its right-hand side, kept >= 0; the last
    entry of ``cost`` is ``-d`` times the objective value.  Columns from
    ``n`` on (slacks and artificials) are on a scale ``1/weight`` of the
    structural ones, so pricing multiplies their reduced costs by
    ``weight``.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], n: int,
                 weight: int, d: int = 1) -> None:
        self.rows = rows
        self.basis = basis        # basic column index per row
        self.cost: list[int] = []
        self.d = d
        self.n = n
        self.weight = weight

    def price(self, c: list[int]) -> None:
        """Set the reduced-cost row for integer costs ``c`` (one per column,
        0 for the right-hand side): ``d*c - sum_r c[basis[r]] * rows[r]``."""
        cost = [self.d * v for v in c]
        for row, col in zip(self.rows, self.basis):
            if c[col]:
                cost = [v - c[col] * w for v, w in zip(cost, row)]
        self.cost = cost

    def pivot(self, row: int, col: int) -> None:
        """Pivot on ``rows[row][col]``; when it equals ``d``, only the pivot
        row's nonzero columns change, in place (see the module docstring).
        The tableau owns its row lists, so no one else sees the change."""
        y_row = self.rows[row]
        p = y_row[col]
        d = self.d
        if p == d:
            # (p*x - f*y) // d is x - f*y // d, and f*y is divisible by d.
            nonzero = [(j, y) for j, y in enumerate(y_row) if y]
            for v in chain(self.rows, (self.cost,)):
                f = v[col]
                if f and v is not y_row:
                    for j, y in nonzero:
                        v[j] -= f * y // d
        else:
            pivot = (col, p, d, y_row)
            self.rows = [target if r == row else _bareiss_step(target, pivot)
                         for r, target in enumerate(self.rows)]
            self.cost = _bareiss_step(self.cost, pivot)
        self.basis[row] = col
        self.d = p

    def run_simplex(self) -> None:
        """Minimize from the current basis until no reduced cost is negative.

        The entering column has the most negative reduced cost, the lowest
        index on ties (Dantzig), except right after a degenerate pivot,
        where it is the lowest-index column with a negative reduced cost
        (Bland).  Raises :class:`MalformedProgram` when the objective is
        unbounded below.
        """
        ncols = len(self.cost) - 1
        degenerate = False
        while True:
            # Basic columns have reduced cost 0.
            cost = self.cost[:ncols]
            if degenerate:
                entering = next((j for j in range(ncols) if cost[j] < 0), -1)
            else:
                if self.weight != 1:
                    cost[self.n:] = [v * self.weight for v in cost[self.n:]]
                least = min(cost, default=0)
                entering = cost.index(least) if least < 0 else -1
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
            degenerate = best_rhs == 0
            self.pivot(leaving, entering)


class _Final(NamedTuple):
    """A solved program's last tableau, with what a continuation checks it
    against: the standard-form rows and right-hand side it was built from."""

    rows: list[list[Fraction]]
    rhs: list[Fraction]
    tableau: _Tableau


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


def _integers(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """``(s, s*values)`` with ``s`` the lcm of the values' denominators; an
    all-int list is already that, with ``s = 1``."""
    if set(map(type, values)) <= {int}:
        return 1, list(values)
    s = lcm(*(v.denominator for v in values))
    return s, [v.numerator * (s // v.denominator) for v in values]


def solve(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly.

    Primal simplex from a slack start: every ``<=`` row with a nonnegative
    right-hand side starts on its own slack, and only the other rows get
    artificial variables.  When there are any, phase 1 minimizes their sum;
    a positive phase-1 optimum means infeasibility, proved by a checked
    Farkas certificate.  Phase 2 optimizes the requested objective.  The
    returned vertex solution is re-verified against the original
    constraints, and when there was no phase 1 its optimality is proved by
    a checked dual certificate.

    With ``lp.start``, the result of an earlier ``solve`` of a program of
    ``<=`` rows with nonnegative right-hand sides, phase 1 starts from that
    program's final tableau, which is exact (see the module docstring).
    ``lp`` must have exactly those rows as equalities, with the same
    right-hand sides, and add only trailing columns; anything else, a new
    row included, raises :class:`MalformedProgram`.
    """
    objective, eq_rows, eq_rhs, le_rows, le_rhs = _validated(lp)
    if lp.start is not None and le_rows:
        raise MalformedProgram(
            "a continued program must have only equality rows")

    # --- standard form: minimize, equality rows, slack per inequality -----
    n, m_eq, nslack = lp.n, len(eq_rows), len(le_rows)
    rows = [row + [0] * nslack for row in eq_rows]
    rhs = list(eq_rhs)
    for k, row in enumerate(le_rows):
        slack = [0] * nslack
        slack[k] = 1
        rows.append(row + slack)
        rhs.append(le_rhs[k])
    width = n + nslack
    m = len(rows)
    # Row r starts on its slack, column n + r - m_eq, when that slack keeps
    # its +1 after the sign flip below, else on an artificial column.  The
    # sign of an int or Fraction is its numerator's.
    flip = [v.numerator < 0 for v in rhs]
    artificial = [r for r in range(m) if r < m_eq or flip[r]]
    initial = [n + r - m_eq for r in range(m)]
    for k, r in enumerate(artificial):
        initial[r] = width + k
    for r in range(m):
        if flip[r]:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # --- integer tableau: one scale s on the structural columns -----------
    # The slack and artificial columns stay unit columns, so a cold start is
    # an identity basis with d = 1; their reduced costs are then 1/s of
    # the rational simplex's, relative to the structural ones, and pricing
    # weighs them by s.
    s, entries = _integers(list(chain.from_iterable(r[:n] for r in rows)))
    # One common factor t makes the right-hand side integer; scaling a
    # column changes no pivot, and keeps d free of the rhs denominators.
    t, b = _integers(rhs if s == 1 else [s * v for v in rhs])
    # The slack entries are already the ints set above.
    cold = [entries[r * n:(r + 1) * n] + rows[r][n:]
            + [1 if a == r else 0 for a in artificial] + [b[r]]
            for r in range(m)]
    if lp.start is None:
        tableau = _Tableau(cold, list(initial), n, s)
    else:
        tableau = _continued(lp.start.tableau, rows, rhs, cold, n, s)

    # --- phase 1 ----------------------------------------------------------
    if artificial:
        c = [0] * width + [1] * len(artificial) + [0]
        tableau.price(c)
        # Bounded below by 0, so this never raises.
        tableau.run_simplex()
        if tableau.cost[-1] != 0:
            # The structural and slack columns cost 0 in phase 1.  A
            # continued tableau is the cold one after more pivots, so its
            # dual reads the same way.
            _verify_dual(rows, b, t, _dual(tableau, c, initial), s,
                         [0] * width)
            return LPResult(INFEASIBLE)

        # Drive remaining zero-level artificials out of the basis.
        for r in range(m):
            if tableau.basis[r] >= width:
                pivot_col = next(
                    (j for j in range(width) if tableau.rows[r][j] != 0),
                    None)
                if pivot_col is not None:
                    if tableau.rows[r][pivot_col] < 0:
                        # Its right-hand side is 0, so it stays >= 0.
                        tableau.rows[r] = [-v for v in tableau.rows[r]]
                    tableau.pivot(r, pivot_col)
        keep = [r for r in range(m) if tableau.basis[r] < width]
        # Artificial columns can no longer enter, so phase 2 drops them.
        tableau.rows = [tableau.rows[r][:width] + tableau.rows[r][-1:]
                        for r in keep]
        tableau.basis = [tableau.basis[r] for r in keep]

    # --- phase 2 ----------------------------------------------------------
    sign = -1 if lp.maximize else 1
    u, c = _integers([sign * v for v in objective])
    c += [0] * (width + 1 - n)
    tableau.price(c)
    tableau.run_simplex()

    # The basic solution is num / den: integer numerators, one denominator.
    den = tableau.d * t
    num = [0] * n
    for row, col in zip(tableau.rows, tableau.basis):
        if col < n:
            num[col] = row[-1]
    _verify_solution(eq_rows, eq_rhs, le_rows, le_rhs, num, den)
    value = Fraction(sum(a * v for a, v in zip(objective, num) if v), den)
    x = tuple(Fraction(v, den) if v else _ZERO for v in num)
    if artificial:
        return LPResult(OPTIMAL, value, x)
    # The minimized objective is c . x / u = sign * value.
    d = tableau.d
    _verify_dual(rows, b, t, _dual(tableau, c, initial), s,
                 [d * v for v in c[:width]], d * u * sign * value)
    return LPResult(OPTIMAL, value, x, _Final(rows, rhs, tableau))


def _dual(tableau: _Tableau, c: list[int], initial: list[int]) -> list[int]:
    """``d`` times the dual, on the scaled matrix, for the integer costs
    ``c``: row r started on the unit column ``j = initial[r]``, of reduced
    cost ``cost[j] / d``, so its dual is ``c[j] - cost[j] / d``."""
    return [tableau.d * c[j] - tableau.cost[j] for j in initial]


def _continued(final: _Final | None, rows: list[list[Fraction]],
               rhs: list[Fraction], cold: list[list[int]], n: int,
               s: int) -> _Tableau:
    """The cold tableau ``cold`` of an all-equality program after the pivots
    that solved the program of ``final``; raises :class:`MalformedProgram`
    unless this program extends it (see :func:`solve`)."""
    if final is None:
        raise MalformedProgram(
            "start is not a solved program of <= rows with nonnegative "
            "right-hand sides")
    old = final.tableau
    n0, m0 = old.n, len(old.rows)
    if (n < n0 or len(rows) != m0 or old.weight != s
            or any(rows[r][:n0] != final.rows[r][:n0] or rhs[r] != final.rhs[r]
                   for r in range(m0))):
        raise MalformedProgram("program does not extend the start's rows")
    # Every row of this program starts on its artificial, column n + r;
    # the start's slack for row r stood in for it.  The right-hand sides
    # and the scale s are the start's, so its right-hand-side column is
    # this program's, scaled alike.
    basis = [j if j < n0 else n + j - n0 for j in old.basis]
    continued = []
    for row in old.rows:
        block = row[n0:n0 + m0]          # d * B^-1
        entered = [sum(y * a[j] for y, a in zip(block, cold) if y)
                   for j in range(n0, n)]
        continued.append(row[:n0] + entered + block + row[-1:])
    return _Tableau(continued, basis, n, s, old.d)


def _verify_dual(rows: list[list[Fraction]], b: list[int], t: int,
                 y: list[int], s: int, costs: list[int],
                 optimum: Fraction | None = None) -> None:
    """Check the dual certificate ``y`` for ``rows x = rhs, x >= 0``, with
    ``b / t`` the right-hand side scaled by ``s``: ``s * rhs``.

    ``s * y . a_j <= costs[j]`` on every column makes ``s * y . rhs`` a lower
    bound on ``costs . x`` for every feasible x: ``costs . x >= s * y . A x =
    s * y . rhs``, which is ``y . b / t``.  With ``optimum``, the value of
    ``costs . x`` at a feasible x, the bound must equal it, which proves x
    minimal.  Without one, ``costs`` is 0 and the bound must exceed 0, which
    leaves no feasible x (Farkas).
    """
    # y . A, summed over the rows where y is nonzero (most are 0).
    ya = [0] * len(costs)
    for yr, row in zip(y, rows):
        if yr:
            for j, v in enumerate(row):
                if v:
                    ya[j] += yr * v
    for j, cost in enumerate(costs):
        if s * ya[j] > cost:
            raise AssertionError(f"dual certificate fails on column {j}")
    # t * bound, in integers: t > 0 keeps its sign.
    bound = sum(yr * br for yr, br in zip(y, b) if yr)
    if optimum is None and bound <= 0:
        raise AssertionError("infeasibility certificate has y.b <= 0")
    if optimum is not None and bound != optimum * t:
        raise AssertionError("optimality certificate has y.b != optimum")


def _verify_solution(eq_rows, eq_rhs, le_rows, le_rhs, num: list[int],
                     den: int) -> None:
    """Check the solution ``x = num / den`` against the program's own rows,
    multiplied through by ``den``: ``num >= 0`` with ``den > 0``, and the
    excess ``a . num - b * den`` is 0 on every equality row and at most 0
    on every ``<=`` row.  The excess is taken times ``b``'s denominator, so
    on integer rows it is an int (an int ``b`` has denominator 1); Fraction
    rows go through the same sums, exactly, by Python's number tower."""
    if den <= 0 or any(v < 0 for v in num):
        raise AssertionError("simplex returned a negative variable")
    # Sum only nonzero products: a vertex has at most as many nonzero
    # entries as rows, and most coefficients here are 0.
    nonzero = [(j, v) for j, v in enumerate(num) if v]

    def excess(row, b):
        return (sum(row[j] * v for j, v in nonzero if row[j]) * b.denominator
                - b.numerator * den)

    if any(excess(row, b) for row, b in zip(eq_rows, eq_rhs)):
        raise AssertionError("simplex solution violates an equality")
    if any(excess(row, b) > 0 for row, b in zip(le_rows, le_rhs)):
        raise AssertionError("simplex solution violates an inequality")
