"""Membership, contextuality measures, and minimal-cardinality decompositions.

Everything here is exact-rational.  The questions answered:

* is a box a convex mixture of the 64 deterministic noncontextual vertices
  (:func:`nc_membership`), and with how few of them (:func:`min_nc_dimension`);
* how much contextuality does a box carry (:func:`contextual_fraction`);
* how much of the maximally contextual parity box can be extracted with a
  noncontextual remainder (:func:`peres_strength`);
* the same minimal-cardinality question for Bell marginals over the 16 local
  deterministic boxes (:func:`min_lhv_dimension`), plus the threshold
  classifications :func:`is_supernoncontextual` (dimension > 4, the two-qubit
  global dimension) and :func:`is_superlocal` (dimension > 2, the single-qubit
  dimension).

Both vertex sets go through one engine: a small private record per set says
how to enumerate its vertices and read a target's distributions, and the cell
table, contextual-fraction LP, subset search, decomposition check and mix are
written once against it; every LP here is built from the cell table's 0/1
cover rows.  Membership is no LP of its own: a target is in the polytope iff
its contextual-fraction LP has optimum 1, and the LP's checked dual proves
an optimum below 1.

Two hidden-variable semantics appear, both documented where used: the
minimal-dimension searches count deterministic vertices (the reading under
which every reference value in the test suite is computed), while
:func:`is_superlocal` decides via product response functions with arbitrary
local distributions, under which a hidden value may answer with a biased coin
(see :func:`product_lhv_terms`).  The two can differ: mixing is free for
product responses but costs extra hidden values in the deterministic model.

The subset searches are exhaustive with three exact accelerations: a
coverage presolve (every deterministic vertex puts mass on exactly one cell
per context, so a feasible support must jointly cover every positive cell of
the target — a combinatorial infeasibility proof for everything smaller), a
Caratheodory cap (no minimal decomposition can need more than the affine
dimension of the candidate hull plus one), and an integer span test (a
covering support whose columns are dependent, or do not span the target, is
refuted by fraction-free elimination).  The span test runs on vectors as
long as the rank of the candidates and the target: the rows kept are a row
basis of the whole cell system, target column included, so no linear
relation is lost.  Each level is walked prefix by prefix in
``itertools.combinations`` order; a prefix is reduced once, reusing the
part it shares with the previous one, and each last index that completes
the cover costs one elimination step and a proportionality test.  One
integer eliminator serves the span test, the survivors' weights
(back-substituted in integers; ``Fraction`` appears only in the final
quotients), the rank behind the cap and the affine dimensions, with the
exact simplex's step and integer scaling.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .boxes import peres_box
from .errors import (
    BoxParseError,
    Inconclusive,
    NotDecomposable,
    NotLocal,
    NotNoncontextual,
    ParameterOutOfRange,
)
from .exactlp import (OPTIMAL, LinearProgram, LPResult, _bareiss_step,
                      _integers, solve)
from .scenario import (
    BELL_SETTINGS,
    BellMarginal,
    Box,
    _bell_covariance,
    as_rational,
    bell_single,
    format_rational,
    validate_bell_marginal,
    validate_box,
)
from .vertices import (
    DetBoxId,
    LocalDetBoxId,
    enumerate_local_vertices,
    enumerate_nc_vertices,
    parse_det_label,
    parse_local_label,
)

NC_VERTEX_SET = "NC-64"
LHV_VERTEX_SET = "LHV-16"

EXACT = "exact"
LOWER_BOUND_ONLY = "lower-bound-only"

#: Default cap on subsets enumerated per search; env BOXLAB_BUDGET overrides.
DEFAULT_BUDGET = 2_000_000

#: Global quantum dimensions the threshold classifications compare against.
GLOBAL_QUANTUM_DIM = 4
LOCAL_QUANTUM_DIM = 2

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _budget_value(budget: int | None) -> int:
    """The node budget to use: ``budget``, else env ``BOXLAB_BUDGET``, else
    :data:`DEFAULT_BUDGET`; anything but a nonnegative integer is rejected."""
    if budget is None:
        budget = os.environ.get("BOXLAB_BUDGET") or DEFAULT_BUDGET
    try:
        value = int(budget)
    except (TypeError, ValueError):
        value = None
    if value is None or value < 0 or isinstance(budget, bool) or (
            not isinstance(budget, str) and value != budget):
        raise ParameterOutOfRange(
            f"budget must be a nonnegative integer, got {budget!r}")
    return value


class _VertexSet(NamedTuple):
    """One deterministic vertex set and how its targets are read.

    ``dists`` maps a target (or vertex) to its tuple of distributions; every
    vertex distribution holds a single 1.  ``noun`` names the target in error
    messages.
    """

    name: str
    vertices: Callable[[], tuple]
    dists: Callable[[object], tuple]
    target: type
    parse_label: Callable[[str], object]
    noun: str


_NC = _VertexSet(NC_VERTEX_SET, enumerate_nc_vertices, attrgetter("contexts"),
                 Box, parse_det_label, "box")
_LHV = _VertexSet(LHV_VERTEX_SET, enumerate_local_vertices,
                  attrgetter("dists"), BellMarginal, parse_local_label,
                  "marginal")
_VERTEX_SETS = {vs.name: vs for vs in (_NC, _LHV)}


@lru_cache(maxsize=None)
def _vertex_cells(vs: _VertexSet) -> dict:
    """``vid -> cells`` in enumeration order: ``cells[i]`` is the entry of
    distribution ``i`` that holds the vertex's mass."""
    return {vid: tuple(dist.index(_ONE) for dist in vs.dists(vertex))
            for vid, vertex in vs.vertices()}


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Convex mixture of deterministic vertices equal to a target exactly.

    ``vertex_set`` is :data:`NC_VERTEX_SET` (terms keyed by
    :class:`~boxlab.vertices.DetBoxId`) or :data:`LHV_VERTEX_SET`
    (:class:`~boxlab.vertices.LocalDetBoxId`).  Build instances through
    :func:`nc_decomposition` / :func:`lhv_decomposition`, which check that
    weights are positive, sum to one, and reconstruct the target exactly.
    """

    vertex_set: str
    terms: tuple[tuple[DetBoxId | LocalDetBoxId, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.terms)

    def support(self) -> tuple[DetBoxId | LocalDetBoxId, ...]:
        return tuple(vid for vid, _ in self.terms)

    def reconstruct(self) -> Box | BellMarginal:
        return _mix(self.terms, _VERTEX_SETS[self.vertex_set])


def _mix(terms, vs: _VertexSet):
    """The weighted sum of the vertices ``terms`` names (zero when empty)."""
    cells = _vertex_cells(vs)
    rows = [[_ZERO] * len(dist) for dist in vs.dists(vs.vertices()[0][1])]
    for vid, weight in terms:
        for row, j in zip(rows, cells[vid]):
            row[j] += weight
    return vs.target(tuple(tuple(row) for row in rows))


def _checked_terms(terms) -> tuple:
    cleaned = tuple((vid, Fraction(w)) for vid, w in terms)
    for vid, weight in cleaned:
        if weight <= 0:
            raise ValueError(f"nonpositive weight {weight} on {vid.label}")
    total = sum((w for _, w in cleaned), _ZERO)
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected 1")
    if len({vid for vid, _ in cleaned}) != len(cleaned):
        raise ValueError("duplicate vertex in decomposition")
    return cleaned


def _decomposition(terms, target, vs: _VertexSet) -> Decomposition:
    dec = Decomposition(vs.name, _checked_terms(terms))
    if vs.dists(dec.reconstruct()) != vs.dists(target):
        raise ValueError(
            f"decomposition does not reconstruct the target {vs.noun}")
    return dec


def nc_decomposition(terms, target: Box) -> Decomposition:
    """Validated decomposition of ``target`` over the 64-vertex set."""
    return _decomposition(terms, target, _NC)


def lhv_decomposition(terms, target: BellMarginal) -> Decomposition:
    """Validated decomposition of ``target`` over the 16 local vertices."""
    return _decomposition(terms, target, _LHV)


def decomposition_to_json(dec: Decomposition) -> list[dict]:
    """Serialize to ``[{"vertex": label, "weight": "num/den"}, ...]``."""
    return [
        {"vertex": vid.label, "weight": format_rational(weight)}
        for vid, weight in dec.terms
    ]


def decomposition_from_json(data, target: Box | BellMarginal) -> Decomposition:
    """Parse the JSON list form and validate against ``target``."""
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise BoxParseError("decomposition JSON must be a list of terms")
    vs = _NC if isinstance(target, Box) else _LHV
    terms = []
    for item in data:
        try:
            label, weight = item["vertex"], item["weight"]
        except (TypeError, KeyError):
            raise BoxParseError(
                "each term needs 'vertex' and 'weight' keys") from None
        terms.append((vs.parse_label(label), as_rational(weight)))
    return _decomposition(terms, target, vs)


# ---------------------------------------------------------------------------
# Cell tables: targets and vertices as vectors over positive cells
# ---------------------------------------------------------------------------

class _CellTable(NamedTuple):
    """A target and its support-filtered candidates in shared cell indexing.

    ``cells[r]`` is support cell ``r`` as ``(i, j)``, entry ``j`` of
    distribution ``i``, and ``rhs[r]`` the target's value there;
    ``colbits[j]`` has bit ``r`` set iff candidate ``j`` puts its mass on
    cell ``r``.  Candidates whose support leaves the target's support
    cannot carry weight in any nonnegative decomposition (the target is 0
    where they are 1), so dropping them is exact.
    """

    ids: tuple
    colbits: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]
    rhs: tuple[Fraction, ...]
    full_mask: int
    context_cell_counts: tuple[int, ...]


def _cell_table(target, vs: _VertexSet) -> _CellTable:
    cell_index: dict[tuple[int, int], int] = {}
    rhs: list[Fraction] = []
    counts = []
    for i, dist in enumerate(vs.dists(target)):
        count = 0
        for j, p in enumerate(dist):
            if p > 0:
                cell_index[(i, j)] = len(rhs)
                rhs.append(p)
                count += 1
        counts.append(count)
    ids, colbits = [], []
    for vid, cells in _vertex_cells(vs).items():
        bits = 0
        for i, j in enumerate(cells):
            r = cell_index.get((i, j))
            if r is None:
                break
            bits |= 1 << r
        else:
            ids.append(vid)
            colbits.append(bits)
    return _CellTable(tuple(ids), tuple(colbits), tuple(cell_index),
                      tuple(rhs), (1 << len(rhs)) - 1, tuple(counts))


def _cover_rows(table: _CellTable) -> list[list[int]]:
    """One 0/1 row per support cell: which candidates put mass on it."""
    return [[(bits >> r) & 1 for bits in table.colbits]
            for r in range(len(table.rhs))]


# ---------------------------------------------------------------------------
# Membership and measures
# ---------------------------------------------------------------------------

def _membership(target, vs: _VertexSet) -> tuple[bool, Decomposition | None]:
    """Membership read from the contextual-fraction LP on the target's cell
    table, with a witnessing decomposition.

    Each candidate puts mass 1 on one support cell per distribution, and the
    target's support cells sum to the number of distributions, so summing
    the rows of ``A q <= rhs`` gives ``sum(q) <= 1``: the optimum is at most
    1, and at 1 every row is tight, so ``q`` is a decomposition.  Below 1
    the LP's checked dual ``y >= 0`` proves non-membership: every candidate
    scores ``y . a_j >= 1``, so every convex mixture of them does, and the
    target scores ``y . rhs < 1``.
    """
    table = _cell_table(target, vs)
    result = _cost_lp(table)
    if result.value != 1:
        return (False, None)
    terms = [(vid, q) for vid, q in zip(table.ids, result.x) if q > 0]
    return (True, _decomposition(terms, target, vs))


def nc_membership(box: Box) -> tuple[bool, Decomposition | None]:
    """Whether the box is a convex mixture of the 64 deterministic vertices.

    True iff the contextual-fraction LP's optimum is 1; its optimal mixture
    is then the returned decomposition (deterministic: fixed pivot rule and
    candidate order), and below 1 its checked dual proves non-membership.
    """
    return _membership(box, _NC)


def bell_local_membership(marginal: BellMarginal
                          ) -> tuple[bool, Decomposition | None]:
    """Whether the marginal mixes from the 16 local deterministic boxes,
    decided as in :func:`nc_membership`."""
    return _membership(marginal, _LHV)


class ContextualFraction(NamedTuple):
    """``ncf`` + ``cost`` = 1; ``witness`` is the optimal subnormalized
    mixture of vertices fitting under the box entrywise (weights sum to
    ``ncf``)."""

    ncf: Fraction
    cost: Fraction
    witness: tuple[tuple[DetBoxId, Fraction], ...]


def contextual_fraction(box: Box) -> ContextualFraction:
    """Noncontextual fraction and contextuality cost of a box.

    Maximizes the total weight of a subnormalized vertex mixture bounded by
    the box entrywise; cost is one minus that optimum.  When the optimum is
    below one, the rescaled remainder is itself a valid box (checked).
    """
    table = _cell_table(box, _NC)
    result = _cost_lp(table)
    ncf = result.value
    witness = tuple((vid, q) for vid, q in zip(table.ids, result.x) if q > 0)
    cost = max(_ZERO, 1 - ncf)
    if ncf < 1:
        _assert_valid_remainder(box, witness, ncf)
    return ContextualFraction(ncf, cost, witness)


@lru_cache(maxsize=1)
def _cost_lp(table: _CellTable) -> LPResult:
    """The contextual-fraction LP on a table: the largest vertex mixture
    under the target on its support cells.  A memo of the last table only,
    so :func:`peres_strength` continues from the LP that
    :func:`contextual_fraction` just solved on the same box, and the
    membership test of a box or marginal reads the LP just solved on it."""
    m = len(table.ids)
    result = solve(LinearProgram(n=m, objective=[_ONE] * m, maximize=True,
                                 le_rows=_cover_rows(table),
                                 le_rhs=list(table.rhs)))
    if result.status != OPTIMAL:
        raise AssertionError(
            f"contextual-fraction LP returned {result.status}")
    return result


def _assert_valid_remainder(box: Box, witness, ncf: Fraction) -> None:
    mix = _mix(witness, _NC)
    scale = 1 / (1 - ncf)
    remainder = [
        [(p - q) * scale for p, q in zip(box.contexts[i], mix.contexts[i])]
        for i in range(5)
    ]
    validate_box(remainder)  # raises if the remainder is not a valid box


class PeresStrength(NamedTuple):
    """Maximal extractable weight of the parity box, with the witnessing
    noncontextual remainder (None when the whole box is the parity box)."""

    value: Fraction
    residual: Decomposition | None


def peres_strength(box: Box) -> PeresStrength:
    """Largest p with box = p * (parity box) + (1-p) * (noncontextual box).

    Raises :class:`NotDecomposable` when no p in [0, 1] admits such a split
    (the box carries contextuality not aligned with the parity box and is not
    noncontextual either).

    The program is the contextual-fraction LP's cell rows as equalities,
    plus a trailing column for the parity box and a row summing the
    weights, so it is solved as a continuation of that LP's final tableau
    (see :func:`~boxlab.exactlp.solve`): the LP is solved here first when
    :func:`contextual_fraction` has not just solved it on the same box, and
    the answer does not depend on which.
    """
    parity = peres_box()
    # Support-filtered candidates are exact here too: on cells where the box
    # is 0, every term of the nonnegative combination must vanish.
    table = _cell_table(box, _NC)
    m = len(table.ids)
    # The membership system plus a column for the parity box's weight.  Each
    # candidate covers 5 support cells, where the box sums to 5, so adding
    # the cell rows gives p*sum(column) + 5*(1 - p) = 5: parity mass outside
    # the support (sum(column) < 5) forces p = 0.  Scaling the column to
    # integers by s keeps every row integer; the LP variable is then p/s,
    # with entry s in the objective and in the sum row.
    s, column = _integers([parity.contexts[i][j] for i, j in table.cells])
    rows = [[*row, q] for row, q in zip(_cover_rows(table), column)]
    result = solve(LinearProgram(
        n=m + 1, objective=[0] * m + [s], maximize=True,
        eq_rows=[*rows, [1] * m + [s]], eq_rhs=[*table.rhs, _ONE],
        start=_cost_lp(table)))
    if result.status != OPTIMAL:
        raise NotDecomposable(
            "box is not a mixture of the parity box with a noncontextual box")
    ps = result.value
    if ps == 1:
        return PeresStrength(ps, None)
    scale = 1 / (1 - ps)
    terms = [(table.ids[j], result.x[j] * scale)
             for j in range(m) if result.x[j] > 0]
    # The residual is forced once p is: check the terms against it.
    residual = Box(tuple(
        tuple((b - ps * q) * scale for b, q in zip(dist, parity_dist))
        for dist, parity_dist in zip(box.contexts, parity.contexts)))
    return PeresStrength(ps, nc_decomposition(terms, residual))


# ---------------------------------------------------------------------------
# Minimal-cardinality searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionResult:
    """Outcome of a minimal-cardinality search.

    With status :data:`EXACT`, ``dimension`` is the true minimum and
    ``decomposition`` witnesses it (lexicographically smallest support of
    that size).  With status :data:`LOWER_BOUND_ONLY`, every support of size
    up to ``dimension`` was refuted before the node budget would have been
    exceeded, so the true minimum is at least ``dimension + 1`` and
    ``decomposition`` is None.
    """

    dimension: int
    status: str
    decomposition: Decomposition | None
    filtered_count: int
    nodes_used: int


# Least recently used first; holds every search of a long sweep or benchmark
# run while keeping memory bounded.
_dimension_cache: dict[tuple, DimensionResult] = {}
_DIMENSION_CACHE_CAPACITY = 1024


class _SpanFilter:
    """Integer refutation of supports, reusing each prefix's elimination.

    A support is refuted when its columns (cell indicators plus the sum row)
    are linearly dependent or the target lies outside their span; otherwise
    it has unique weights (:meth:`weights`).  Refuting dependent columns is
    exact in the level search: it reaches size k only after refuting every
    smaller support, and a nonnegative solution on dependent columns would
    give one (moving along a null vector drives a weight to zero).

    The vectors are rank-sized.  One fraction-free (Bareiss) echelon pass
    over the rows of ``[cell rows; sum row | scaled target]`` keeps the rows
    that become pivots, and every candidate column and the target keep only
    their entries there.  The other rows are combinations of the kept ones,
    so a combination of columns and target that vanishes on the kept rows
    vanishes everywhere: every linear relation among them survives, also
    when the target lies outside the candidates' span.  The pivots in
    candidate columns count the candidates' rank, :attr:`rank`.

    A support is entered as a prefix (:meth:`enter`) and then tested one
    last column at a time (:meth:`spans`), in the order the search walks
    them.  Prefix columns are reduced one at a time in Python ints, the
    target scaled by the lcm of its denominators.  The reduced rows and
    target of every prefix of the last prefix stay, so a prefix sharing
    its start with it reduces only its new suffix; a candidate already
    reduced against a kept prefix resumes from there.  A last column costs
    one more step and a proportionality test: the prefix and column ``j``
    span the target iff the reduced target is a multiple of ``j``'s
    reduced column, the residual a pivot on it would leave.  The state
    lives for one search: at most ``rank`` pivots and targets, and
    ``rank + 1`` maps of reduced candidates.
    """

    def __init__(self, table: _CellTable):
        n = len(table.ids)
        scale, target = _integers(table.rhs)
        rows = [[(bits >> r) & 1 for bits in table.colbits] + [t]
                for r, t in enumerate(target)]
        rows.append([1] * n + [scale])
        basis = _echelon(rows)
        keep = [r for r, _ in basis]
        #: Rank of the candidate columns: their hull's affine dimension
        #: plus one, the Caratheodory cap.
        self.rank = sum(pc < n for _, (pc, *_) in basis)
        self._scale = scale
        self._path: list[int] = []   # the last prefix entered
        # One pivot (column, value, previous pivot value, reduced row) per
        # independent prefix column; _targets[i] is the target and
        # _reduced[i][j] candidate j reduced against the first i pivots.
        self._pivots: list[tuple[int, int, int, list[int]]] = []
        self._targets = [[rows[r][-1] for r in keep]]
        self._reduced = [{j: [rows[r][j] for r in keep] for j in range(n)}]

    def enter(self, prefix: Sequence[int]) -> bool:
        """Reduce the candidates ``prefix`` names; False when their columns
        are dependent, so that every support extending them is refuted."""
        path, pivots, targets = self._path, self._pivots, self._targets
        reduced = self._reduced
        keep = 0
        for old, new in zip(path, prefix):
            if old != new:
                break
            keep += 1
        if keep > len(pivots):
            return False  # the shared prefix already holds a dependent column
        del path[keep:], pivots[keep:], targets[keep + 1:], reduced[keep + 1:]
        for j in prefix[keep:]:
            path.append(j)
            v = self._column(j)
            for pc, x in enumerate(v):
                if x:
                    break
            else:
                return False  # column j lies in the span of the prefix
            pivot = (pc, x, pivots[-1][1] if pivots else 1, v)
            pivots.append(pivot)
            targets.append(_bareiss_step(targets[-1], pivot))
            reduced.append({})
        return True

    def spans(self, j: int) -> bool:
        """Whether the entered prefix and candidate ``j`` have independent
        columns that span the target."""
        v = self._column(j)
        for pc, p in enumerate(v):
            if p:
                break
        else:
            return False
        target = self._targets[-1]
        f = target[pc]
        return not any(x * p != f * y for x, y in zip(target, v))

    def _column(self, j: int) -> list[int]:
        """Candidate ``j`` reduced against every pivot of the entered prefix,
        resumed from the deepest kept reduction."""
        pivots, reduced = self._pivots, self._reduced
        start = len(pivots)
        while j not in reduced[start]:
            start -= 1
        v = reduced[start][j]
        for level in range(start, len(pivots)):
            v = _bareiss_step(v, pivots[level])
            reduced[level + 1][j] = v
        return v

    def weights(self, subset: Sequence[int]) -> list[Fraction]:
        """The unique weights of a support that :meth:`enter` and
        :meth:`spans` passed.

        Its columns are independent and span the target, so the integer
        system (kept rows, target scaled) echelons to one pivot per column
        and the rows past the last pivot add nothing.  The last pivot value
        d is the determinant of the pivot rows, so by Cramer's rule d times
        each scaled weight is an integer, and back-substitution in those
        integers divides exactly.
        """
        columns = [self._reduced[0][j] for j in subset]
        pivots = [pivot for _, pivot in _echelon(
            [list(row) for row in zip(*columns, self._targets[0])],
            len(subset))]
        d = pivots[-1][1]
        x = [0] * len(subset)
        for pc, p, _, row in reversed(pivots):
            x[pc] = (d * row[-1] - sum(a * b for a, b in zip(row, x))) // p
        return [Fraction(v, d * self._scale) for v in x]


def _echelon(rows, rank: int | None = None
             ) -> list[tuple[int, tuple[int, int, int, list[int]]]]:
    """Fraction-free (Bareiss) forward elimination of integer rows.

    Each row is reduced against the pivots before it and, unless cleared,
    becomes the next pivot (column, value, previous pivot value, row) in the
    form :func:`~boxlab.exactlp._bareiss_step` takes and :class:`_SpanFilter`
    keeps, zero at every earlier pivot's column.  Each pivot comes paired
    with the index of the row it came from, so the pivots count the rank and
    name a basis of the rows.  A known ``rank`` stops the walk at that many
    pivots.  The rows must hold ints: the exact division is floor division.
    """
    basis: list[int] = []
    pivots: list[tuple[int, int, int, list[int]]] = []
    for i, v in enumerate(rows):
        if len(pivots) == rank:
            break
        for pivot in pivots:
            v = _bareiss_step(v, pivot)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is not None:
            pivots.append((pc, v[pc], pivots[-1][1] if pivots else 1, v))
            basis.append(i)
    return list(zip(basis, pivots))


def _min_subset_search(table: _CellTable, budget: int, target,
                       vs: _VertexSet) -> DimensionResult:
    """Level walk from the coverage floor up to the Caratheodory cap.

    Level k visits the supports of ``itertools.combinations(range(n), k)``
    in that order, as each prefix of ``combinations(range(n - 1), k - 1)``
    followed by its last index upward.  A prefix's cover mask is made once,
    and its columns are reduced only when some last index completes the
    cover.  A node is one support visited: a prefix stopped at a hit counts
    the supports up to and including it.
    """
    n = len(table.ids)
    colbits, full_mask = table.colbits, table.full_mask
    # Every vertex covers exactly one cell per context, so a feasible support
    # needs at least as many vertices as the largest per-context cell count.
    k_floor = max(table.context_cell_counts)
    if comb(n, k_floor) > budget:  # no level fits the budget: no filter
        return DimensionResult(k_floor - 1, LOWER_BOUND_ONLY, None, n, 0)
    span = _SpanFilter(table)
    cap = min(n, span.rank)
    nodes = 0
    for k in range(k_floor, cap + 1):
        if nodes + comb(n, k) > budget:
            return DimensionResult(k - 1, LOWER_BOUND_ONLY, None, n, nodes)
        for prefix in itertools.combinations(range(n - 1), k - 1):
            start = prefix[-1] + 1 if prefix else 0
            mask = 0
            for j in prefix:
                mask |= colbits[j]
            need = full_mask ^ mask
            covering = [j for j in range(start, n)
                        if colbits[j] & need == need]
            if not covering or not span.enter(prefix):
                nodes += n - start
                continue
            for j in covering:
                if not span.spans(j):
                    continue
                subset = (*prefix, j)
                q = span.weights(subset)
                if any(w < 0 for w in q):
                    continue
                if not all(q):
                    # A nonnegative solution with a zero weight is a smaller
                    # support, and every smaller support is refuted by now.
                    raise AssertionError(
                        "smaller support escaped the refuted levels")
                terms = [(table.ids[i], w) for i, w in zip(subset, q)]
                return DimensionResult(
                    k, EXACT, _decomposition(terms, target, vs), n,
                    nodes + j - start + 1)
            nodes += n - start
    raise AssertionError(
        f"no decomposition within the Caratheodory cap {cap} ({vs.name})")


def _affine_rank(vectors) -> int:
    """Exact affine rank of integer vectors (the dimension of their hull)."""
    if not vectors:
        return 0
    base = vectors[0]
    return len(_echelon([[a - b for a, b in zip(v, base)]
                         for v in vectors[1:]]))


def _min_dimension(target, budget: int | None, vs: _VertexSet, membership,
                   outside_error: Exception) -> DimensionResult:
    """Cached minimal-dimension search; ``membership(target)`` must hold
    first, else ``outside_error`` is raised."""
    budget = _budget_value(budget)
    key = (vs.name, vs.dists(target), budget)
    cached = _dimension_cache.pop(key, None)
    if cached is not None:
        _dimension_cache[key] = cached
        return cached
    member, _ = membership(target)
    if not member:
        raise outside_error
    result = _min_subset_search(_cell_table(target, vs), budget, target, vs)
    _dimension_cache[key] = result
    if len(_dimension_cache) > _DIMENSION_CACHE_CAPACITY:
        del _dimension_cache[next(iter(_dimension_cache))]
    return result


def min_nc_dimension(box: Box, budget: int | None = None) -> DimensionResult:
    """Minimal number of deterministic vertices mixing to the box.

    Exhaustive over increasing support sizes within the support-filtered
    candidate set; raises :class:`NotNoncontextual` for boxes outside the
    noncontextual polytope.  ``budget`` caps the number of enumerated
    subsets (default :data:`DEFAULT_BUDGET`, env ``BOXLAB_BUDGET``); a
    budget that is not a nonnegative integer raises
    :class:`~boxlab.errors.ParameterOutOfRange`.
    """
    return _min_dimension(
        box, budget, _NC, nc_membership,
        NotNoncontextual("box is outside the noncontextual polytope"))


def is_supernoncontextual(box: Box, budget: int | None = None
                          ) -> tuple[bool, DimensionResult]:
    """Whether every noncontextual model needs more than 4 hidden values.

    4 is the global two-qubit dimension.  Raises :class:`Inconclusive` when
    the budget-capped search refuted only supports smaller than 4.
    """
    result = min_nc_dimension(box, budget)
    verdict = _supernoncontextual(result)
    if verdict is None:
        raise Inconclusive(
            f"search refuted supports only up to size {result.dimension} "
            f"(< {GLOBAL_QUANTUM_DIM}) before exhausting its budget")
    return (verdict, result)


def _supernoncontextual(result: DimensionResult) -> bool | None:
    """Whether an NC search result exceeds the global dimension 4; None when
    a budget-capped search refuted only supports smaller than 4."""
    if result.status == EXACT:
        return result.dimension > GLOBAL_QUANTUM_DIM
    return True if result.dimension >= GLOBAL_QUANTUM_DIM else None


def min_lhv_dimension(marginal: BellMarginal,
                      budget: int | None = None) -> DimensionResult:
    """Minimal number of local deterministic boxes mixing to the marginal.

    Raises :class:`NotLocal` for marginals outside the local polytope.
    """
    return _min_dimension(
        marginal, budget, _LHV, bell_local_membership,
        NotLocal("marginal is outside the local polytope"))


# ---------------------------------------------------------------------------
# Product-response models (arbitrary local distributions per hidden value)
# ---------------------------------------------------------------------------

class ProductTerm(NamedTuple):
    """One hidden value of a product-response model: a weight and the two
    single-observable expectation pairs (settings 0 and 1, +-1 convention)."""

    weight: Fraction
    alice: tuple[Fraction, Fraction]
    bob: tuple[Fraction, Fraction]


def product_terms_marginal(terms: Sequence[ProductTerm]) -> BellMarginal:
    """The Bell marginal generated by a product-response model."""
    dists = []
    for x, y in BELL_SETTINGS:
        cells = [_ZERO] * 4
        for weight, alice, bob in terms:
            for a in (0, 1):
                pa = (1 + (1 - 2 * a) * alice[x]) / 2
                for b in (0, 1):
                    pb = (1 + (1 - 2 * b) * bob[y]) / 2
                    cells[2 * a + b] += weight * pa * pb
        dists.append(cells)
    return validate_bell_marginal(dists)


def product_lhv_terms(marginal: BellMarginal
                      ) -> tuple[ProductTerm, ...] | None:
    """An exact product-response model with at most two hidden values, or None.

    A marginal is determined by the single-observable expectations
    alpha_x, beta_y and the correlators K_xy.  Any n-value product model has
    cross-covariance matrix C = K - alpha beta^T of rank at most n - 1, so:
    C = 0 means the marginal is the product of its singles (one term);
    rank-1 C admits a two-term model iff the factor caps below are
    compatible; rank-2 C needs at least three hidden values (returns None).

    For C = u v^T the two-term models are parameterized by p', q' > 0 with
    the term expectations alpha + p'u, alpha - q'u, beta + v/q', beta - v/p';
    boundedness by 1 gives per-component caps P, Q on p', q' and R, S on
    1/q', 1/p', and a model exists iff P*S >= 1 and Q*R >= 1.
    """
    alpha = (bell_single(marginal, "A", 0), bell_single(marginal, "A", 1))
    beta = (bell_single(marginal, "B", 0), bell_single(marginal, "B", 1))
    C = _bell_covariance(marginal)
    if all(C[x][y] == 0 for x in (0, 1) for y in (0, 1)):
        return (ProductTerm(_ONE, alpha, beta),)
    if C[0][0] * C[1][1] - C[0][1] * C[1][0] != 0:
        return None
    # rank one: factor C = u v^T
    i0 = 0 if (C[0][0] or C[0][1]) else 1
    v = (C[i0][0], C[i0][1])
    j0 = 0 if v[0] else 1
    u = (C[0][j0] / v[j0], C[1][j0] / v[j0])

    def cap(direction, singles, sign):
        values = []
        for comp, single in zip(direction, singles):
            if comp == 0:
                continue
            mag = abs(comp)
            sgn = 1 if comp > 0 else -1
            values.append((1 + sign * sgn * single) / mag)
        return min(values)

    P = cap(u, alpha, -1)   # p' <= P keeps alpha + p'u in [-1, 1]
    Q = cap(u, alpha, +1)   # q' <= Q keeps alpha - q'u in [-1, 1]
    R = cap(v, beta, -1)    # 1/q' <= R keeps beta + v/q' in [-1, 1]
    S = cap(v, beta, +1)    # 1/p' <= S keeps beta - v/p' in [-1, 1]
    if P * S < 1 or Q * R < 1:
        return None
    p_prime, q_prime = P, Q
    t = q_prime / (p_prime + q_prime)
    term1 = ProductTerm(
        t,
        (alpha[0] + p_prime * u[0], alpha[1] + p_prime * u[1]),
        (beta[0] + v[0] / q_prime, beta[1] + v[1] / q_prime),
    )
    term2 = ProductTerm(
        1 - t,
        (alpha[0] - q_prime * u[0], alpha[1] - q_prime * u[1]),
        (beta[0] - v[0] / p_prime, beta[1] - v[1] / p_prime),
    )
    model = (term1, term2)
    if product_terms_marginal(model).dists != marginal.dists:
        raise AssertionError("product model does not reproduce the marginal")
    return model


def is_superlocal(marginal: BellMarginal, budget: int | None = None
                  ) -> tuple[bool, DimensionResult]:
    """Whether every product-response model needs more than 2 hidden values.

    2 is the single-qubit local dimension.  The boolean uses product
    response functions (a hidden value may answer with arbitrary local
    distributions); the returned :class:`DimensionResult` reports the
    deterministic-vertex model, whose minimum can be larger because mixing
    costs extra deterministic hidden values.  Raises :class:`NotLocal` for
    nonlocal marginals.
    """
    result = min_lhv_dimension(marginal, budget)
    return (product_lhv_terms(marginal) is None, result)


# ---------------------------------------------------------------------------
# Polytope geometry
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _affine_dimension(vs: _VertexSet) -> int:
    return _affine_rank([[int(p) for dist in vs.dists(v) for p in dist]
                         for _, v in vs.vertices()])


def nc_affine_dimension() -> int:
    """Affine dimension of the noncontextual polytope (exact rank)."""
    return _affine_dimension(_NC)


def bell_affine_dimension() -> int:
    """Affine dimension of the Bell-local polytope (exact rank)."""
    return _affine_dimension(_LHV)
