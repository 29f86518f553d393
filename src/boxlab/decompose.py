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
the target — a combinatorial infeasibility proof for everything smaller), an
integer span test (a covering support whose columns are dependent, or do not
span the target, is refuted by fraction-free elimination), and the LP's
bound (the contextual-fraction LP's decomposition has independent columns,
so no minimal decomposition needs more vertices than it has).  The span
test runs on vectors as long as the rank of the candidates and the target:
the rows kept are a row basis of the whole cell system, target column
included, so no linear relation is lost.  Each support size is one
depth-first descent in ``itertools.combinations`` order that carries each
depth's cover mask and elimination state, and prunes a prefix whose newest
column is dependent or whose mask, with every later candidate's, cannot
complete the cover.  The sizes are tested from the top down, from the one
below the size of the LP's decomposition: a size with a nonnegative support
makes every larger size up to the LP's have one, so only the size below the
answer is refuted exhaustively, and the smaller ones with it.  A vector is
one int of fixed-width signed lanes, sized by a Hadamard bound on the
minors of the candidates and the exact scaled target, so an elimination
step is a few whole-int operations and a zero residual of the target
proves that the support spans it.  One integer eliminator serves the
survivors' weights (back-substituted in integers; ``Fraction`` appears
only in the final quotients) and the affine dimensions, with the exact
simplex's step and integer scaling.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .boxes import peres_box
from .errors import (
    BoxParseError,
    Inconclusive,
    InvalidDecomposition,
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
            raise InvalidDecomposition(
                f"nonpositive weight {weight} on {vid.label}")
    total = sum((w for _, w in cleaned), _ZERO)
    if total != 1:
        raise InvalidDecomposition(f"weights sum to {total}, expected 1")
    if len({vid for vid, _ in cleaned}) != len(cleaned):
        raise InvalidDecomposition("duplicate vertex in decomposition")
    return cleaned


def _decomposition(terms, target, vs: _VertexSet) -> Decomposition:
    dec = Decomposition(vs.name, _checked_terms(terms))
    if vs.dists(dec.reconstruct()) != vs.dists(target):
        raise InvalidDecomposition(
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
    distribution ``i``, and ``rhs[r]`` the target's value there; counting
    the cells by ``i`` gives each distribution's support size, which the
    subset search reads as its floor.  ``colbits[j]`` has bit ``r`` set iff
    candidate ``j`` puts its mass on cell ``r``; ``rows[r]`` is cell
    ``r``'s 0/1 cover row, entry ``j`` set iff candidate ``j`` does, the
    row every LP and the span filter build on.  Candidates whose support
    leaves the target's support cannot carry weight in any nonnegative
    decomposition (the target is 0 where they are 1), so dropping them is
    exact.

    The span filter requires the structure every table here has: each
    candidate puts one 1 on one support cell per distribution, and each
    distribution's support cells hold values summing to 1.  The sum of the
    cell rows, target included, is then the number of distributions times
    ``[1, ..., 1 | 1]``, so weights that reproduce the target's cells sum
    to 1 without a row of their own.
    """

    ids: tuple
    colbits: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]
    rhs: tuple[Fraction, ...]
    full_mask: int
    rows: tuple[tuple[int, ...], ...]


def _cell_table(target, vs: _VertexSet) -> _CellTable:
    cell_index: dict[tuple[int, int], int] = {}
    rhs: list[Fraction] = []
    for i, dist in enumerate(vs.dists(target)):
        for j, p in enumerate(dist):
            if p > 0:
                cell_index[(i, j)] = len(rhs)
                rhs.append(p)
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
    rows = tuple(tuple([(bits >> r) & 1 for bits in colbits])
                 for r in range(len(rhs)))
    return _CellTable(tuple(ids), tuple(colbits), tuple(cell_index),
                      tuple(rhs), (1 << len(rhs)) - 1, rows)


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
    table, result = _cost_lp(vs.dists(target), vs)
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
    table, result = _cost_lp(box.contexts, _NC)
    ncf = result.value
    witness = tuple((vid, q) for vid, q in zip(table.ids, result.x) if q > 0)
    cost = max(_ZERO, 1 - ncf)
    if ncf < 1:
        _assert_valid_remainder(box, witness, ncf)
    return ContextualFraction(ncf, cost, witness)


@lru_cache(maxsize=2)
def _cost_lp(dists: tuple, vs: _VertexSet) -> tuple[_CellTable, LPResult]:
    """The cell table of the target with distributions ``dists`` and its
    contextual-fraction LP: the largest vertex mixture under the target on
    its support cells.  A memo of two targets, a box and its Bell marginal
    (each entry holds a final tableau), keyed without labels, so each gets
    one table and one solve in any call order."""
    table = _cell_table(vs.target(dists), vs)
    m = len(table.ids)
    result = solve(LinearProgram(n=m, objective=[1] * m, maximize=True,
                                 le_rows=table.rows,
                                 le_rhs=list(table.rhs)))
    if result.status != OPTIMAL:
        raise AssertionError(
            f"contextual-fraction LP returned {result.status}")
    return table, result


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

    Parity mass on a cell where the box is 0 forces p = 0, since the
    noncontextual part cannot be negative there, and the split is then the
    box's own membership decomposition.  Otherwise the parity box, the box
    and every candidate each sum to 5 over the box's support cells (one
    cell per context), so adding the cell rows shows that the weights sum
    to 1 on every solution.  The program is then those rows as equalities
    plus one trailing column for the parity box, solved as a continuation
    of the contextual-fraction LP's final tableau (see
    :func:`~boxlab.exactlp.solve`), read from the memo that
    :func:`contextual_fraction` and the membership tests share on the box.
    """
    parity = peres_box()
    # Support-filtered candidates are exact here too: on cells where the box
    # is 0, every term of the nonnegative combination must vanish.
    table, start = _cost_lp(box.contexts, _NC)
    m = len(table.ids)
    # Scaling the column to integers by s keeps every row integer; the LP
    # variable is then p/s, with entry s in the objective.
    s, column = _integers([parity.contexts[i][j] for i, j in table.cells])
    if sum(column) < 5 * s:     # parity mass off the support
        inside, residual = _membership(box, _NC)
        if not inside:
            raise NotDecomposable(
                "box is not a mixture of the parity box with a noncontextual box")
        return PeresStrength(_ZERO, residual)
    result = solve(LinearProgram(
        n=m + 1, objective=[0] * m + [s], maximize=True,
        eq_rows=[[*row, q] for row, q in zip(table.rows, column)],
        eq_rhs=table.rhs, start=start))
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

    ``filtered_count`` is the number of candidate vertices, those with
    mass only on the target's positive cells.  ``nodes_used`` counts the
    supports refuted, in ``itertools.combinations`` order, size by size
    from the coverage floor: all of every size below the result, and at a
    hit the supports up to and including it.  Most are refuted without a
    visit: the search descends only the size below the answer in full, and
    that refutes every smaller size (see :func:`_min_subset_search`); within
    a descent, pruned ranges count whole.
    """

    dimension: int
    status: str
    decomposition: Decomposition | None
    filtered_count: int
    nodes_used: int


class _SpanFilter:
    """Integer span test of supports, one depth-first descent per size.

    A support is refuted when its columns (cell indicators) are linearly
    dependent or the target lies outside their span; otherwise
    it has unique weights (:meth:`weights`).  Refuting dependent columns is
    exact in the search: a nonnegative solution on dependent columns gives
    one on fewer of them (moving along a null vector drives a weight to
    zero), so every support of the least size with a nonnegative solution
    has independent columns.

    The vectors are rank-sized.  One fraction-free (Bareiss) echelon pass
    over the rows of ``[cell rows | scaled target]`` keeps the rows that
    become pivots, and every candidate column and the target keep only
    their entries there (:attr:`columns`, :attr:`target`).  The other rows
    are combinations of the kept ones, so a combination of columns and
    target that vanishes on the kept rows vanishes everywhere: every linear
    relation among them survives, also when the target lies outside the
    candidates' span.  The weights need no sum row: by the structure
    :class:`_CellTable` requires, a row of ones is the sum of the cell rows
    divided by the number of distributions.

    The descent (:meth:`spanning`) works on packed vectors: one int of
    fixed-width signed lanes, lane ``i`` holding the entry of kept row
    ``i``.  A Bareiss step ``(u*p - g*v) // d`` is then a few operations on
    whole ints, since the exact division of every lane is the exact
    division of the int; a vector is zero when its int is, and its pivot
    lane, its first nonzero one, holds its lowest set bit.  Every entry of
    a reduced candidate column is a minor of the 0/1 columns on ``r`` kept
    rows, so at most the Hadamard bound ``hc = r**(r/2)``.  The target
    enters as its exact scaled entries, at most ``T``; each entry of the
    reduced target is a minor of the columns and the target, a sum of at
    most ``r`` terms below ``hc*T`` by expansion along the target.  A lane
    holds ``r*hc*T`` and a sign bit: 24 bits on the W=1/4 box, 21 on its
    Bell marginal, growing with the target's denominators.  The last
    step's undivided residual of the target is ``d`` times the next
    reduced target, whose lanes fit, so it is 0 exactly when the support
    spans the target.
    """

    def __init__(self, table: _CellTable):
        n = len(table.ids)
        scale, target = _integers(table.rhs)
        rows = [[*row, t] for row, t in zip(table.rows, target)]
        keep = [r for r, _ in _echelon(rows)]
        self.columns = [[rows[r][j] for r in keep] for j in range(n)]
        self.target = [rows[r][-1] for r in keep]
        self._scale = scale
        self._colbits = table.colbits
        self._full_mask = table.full_mask
        r = len(keep)
        hadamard = isqrt(r ** r - 1) + 1
        #: Bits per lane of a packed vector.
        self.width = (r * hadamard * max(self.target)).bit_length() + 1
        self._half = 1 << (self.width - 1)
        self._lane_mask = (1 << self.width) - 1
        # Adding half to every lane makes each one nonnegative, so a lane
        # reads off with a shift and a mask.
        self._bias = self.pack([self._half] * r)
        self._packed = [self.pack(column) for column in self.columns]
        self._packed_target = self.pack(self.target)

    def pack(self, entries: Sequence[int]) -> int:
        """The packed vector of ``entries``, each less than half a lane."""
        v = 0
        for x in reversed(entries):
            v = (v << self.width) + x
        return v

    def _lane(self, v: int, shift: int) -> int:
        """The entry of the packed vector ``v`` in the lane at bit
        ``shift``."""
        return ((v + self._bias) >> shift & self._lane_mask) - self._half

    def _pivot(self, v: int) -> tuple[int, int]:
        """``(shift, p)``: the bit where the first nonzero lane of the packed
        vector ``v`` starts, the lane of its lowest set bit, and its entry
        ``p``."""
        low = (v & -v).bit_length() - 1
        shift = low - low % self.width
        return shift, self._lane(v, shift)

    def spanning(self, k: int):
        """Every support of ``k`` candidates, in ``itertools.combinations``
        order, whose cover masks jointly hold the table's ``full_mask`` and
        whose columns are independent and span the target, with its weights
        (of either sign).

        The descent carries, for the path of candidates chosen so far, its
        cover mask, the reduced target and the later candidates whose
        columns are independent of the path's, each reduced against it.  A
        path is pruned when its newest column depends on the earlier ones,
        or when its mask and every later candidate's cannot cover
        ``full_mask``; at the last slot a candidate must complete the cover.
        """
        colbits, path = self._colbits, []
        full_mask = self._full_mask

        def descend(live, cover, target, d, slots):
            if slots == 1:
                for j, v in live:
                    shift, p = self._pivot(v)
                    # The residual a pivot on v would leave of the target,
                    # times d.
                    if target * p - self._lane(target, shift) * v:
                        continue
                    subset = (*path, j)
                    yield subset, self.weights(subset)
                return
            reach = [0] * (len(live) + 1)
            for pos in range(len(live) - 1, 0, -1):
                reach[pos] = reach[pos + 1] | colbits[live[pos][0]]
            for pos in range(len(live) - slots + 1):
                covered = cover | colbits[live[pos][0]]
                if (covered | reach[pos + 1]) & full_mask != full_mask:
                    continue
                need = full_mask & ~covered if slots == 2 else 0
                step = self._extend(live, pos, target, d, need)
                if step is not None and len(step[2]) >= slots - 1:
                    path.append(live[pos][0])
                    yield from descend(step[2], covered, step[1], step[0],
                                       slots - 1)
                    path.pop()

        need = full_mask if k == 1 else 0
        yield from descend(
            [(j, v) for j, v in enumerate(self._packed)
             if colbits[j] & need == need], 0, self._packed_target, 1, k)

    def _extend(self, live, pos: int, target: int, d: int, need: int):
        """One Bareiss step on the packed vectors, pivoting on the column of
        ``live[pos]``, ``d`` the path's previous pivot value: ``(p, target,
        later)``, ``p`` the new pivot value, ``target`` the reduced target and
        ``later`` the candidates after ``live[pos]`` that cover ``need``,
        each reduced, without those whose column becomes 0; None when no
        later candidate covers ``need``."""
        later = live[pos + 1:]
        if need:
            colbits = self._colbits
            later = [(j, u) for j, u in later if colbits[j] & need == need]
            if not later:
                return None
        half, lane_mask, bias = self._half, self._lane_mask, self._bias
        v = live[pos][1]
        shift, p = self._pivot(v)
        reduced = []
        for j, u in later:
            g = ((u + bias) >> shift & lane_mask) - half  # _lane, inlined
            if g:
                u = (u * p - g * v) // d
            elif p != d:
                u = u * p // d
            if u:
                reduced.append((j, u))
        f = self._lane(target, shift)
        return p, (target * p - f * v) // d, reduced

    def weights(self, subset: Sequence[int]) -> list[Fraction] | None:
        """The unique weights of a support, or None when its columns are
        dependent or the target lies outside their span.

        The integer system (kept rows, target scaled) echelons to one pivot
        per column and none in the target's exactly when the weights exist
        and are unique; the rows past the last pivot then add nothing.  The
        last pivot value d is the determinant of the pivot rows, so by
        Cramer's rule d times each scaled weight is an integer, and
        back-substitution in those integers divides exactly.
        """
        k = len(subset)
        columns = [self.columns[j] for j in subset]
        pivots = [pivot for _, pivot in _echelon(
            [list(row) for row in zip(*columns, self.target)])]
        if sorted(pc for pc, *_ in pivots) != list(range(k)):
            return None
        d = pivots[-1][1]
        x = [0] * k
        for pc, p, _, row in reversed(pivots):
            x[pc] = (d * row[-1] - sum(a * b for a, b in zip(row, x))) // p
        return [Fraction(v, d * self._scale) for v in x]


def _echelon(rows) -> list[tuple[int, tuple[int, int, int, list[int]]]]:
    """Fraction-free (Bareiss) forward elimination of integer rows.

    Each row is reduced against the pivots before it and, unless cleared,
    becomes the next pivot (column, value, previous pivot value, row) in the
    form :func:`~boxlab.exactlp._bareiss_step` takes, zero at every earlier
    pivot's column.  Each pivot comes paired with the index of the row it
    came from, so the pivots count the rank and name a basis of the rows.
    The rows must hold ints: the exact division is floor division.
    """
    basis: list[int] = []
    pivots: list[tuple[int, int, int, list[int]]] = []
    for i, v in enumerate(rows):
        for pivot in pivots:
            v = _bareiss_step(v, pivot)
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is not None:
            pivots.append((pc, v[pc], pivots[-1][1] if pivots else 1, v))
            basis.append(i)
    return list(zip(basis, pivots))


def _combination_rank(subset: Sequence[int], n: int) -> int:
    """The index of ``subset`` in ``itertools.combinations(range(n), k)``,
    ``k = len(subset)``: every support after it agrees with it up to some
    position ``i`` and takes a larger index there, with the ``k - i``
    indices from ``subset[i]`` on all above ``subset[i]``."""
    k = len(subset)
    return comb(n, k) - 1 - sum(comb(n - 1 - c, k - i)
                                for i, c in enumerate(subset))


def _min_subset_search(target, budget: int, vs: _VertexSet
                       ) -> DimensionResult:
    """Level search from the top down: the least support size whose
    covering supports include one with weights ``>= 0``, and the first such
    support in ``itertools.combinations`` order.  The target must lie in
    the polytope; its cell table and contextual-fraction LP come from one
    read of the memo of :func:`_cost_lp`.

    Level k is one depth-first descent through the supports of
    ``itertools.combinations(range(n), k)`` in that order
    (:meth:`_SpanFilter.spanning`), which yields the covering supports with
    independent columns that span the target, each with its weights.  Call
    level k *feasible* when one of them has weights ``>= 0``.

    The LP's optimal solution has U positive weights.  It is a basic
    solution, so those U columns are independent, and they decompose the
    target (the optimum is 1) and cover every positive cell: level U is
    feasible, and U is at most r, the rank of the candidate columns.

    Lemma: if level k is feasible and k < U, then level k + 1 is.  Proof:
    the k columns of the feasible support span a k-dimensional space, and
    r >= U > k, so some candidate column lies outside it.  Adding that
    candidate keeps the columns independent and the cover complete, and the
    target keeps its weights, with weight 0 on the new column.

    So feasibility only grows with k, from the least feasible level A up to
    U, and a refuted level refutes every smaller one.  At level A no weight
    is 0: the columns with nonzero weights would be a feasible support
    smaller than A (independent, spanning the target, and covering every
    positive cell, since each such cell needs a positive weight).  So the
    first support with weights ``>= 0`` at level A is the one a bottom-up
    walk finds, and by the same argument a support at level k with ``z``
    nonzero weights, all positive then, makes level ``z`` feasible.

    The search probes the level below the lowest one known feasible,
    starting below U.  A hit with ``z`` nonzero weights makes level ``z``
    feasible, and is its first support when ``z = k``; a probe without a
    hit puts the answer one level up.  So only the level below the answer
    is refuted exhaustively.  At the answer, unless its probe found its
    first support, one descent to that support runs, and a zero weight
    there is a fault.

    A node is one support in combinations order, size by size from the
    coverage floor: ``nodes_used`` counts every support below the answer,
    refuted by the probe of the level below it or by the lemma, and at the
    answer one more than its support's index in the order.  The search
    tests no level above ``top``, the largest up to U whose nodes, with
    every smaller level's, fit in the budget; when it refutes ``top``, the
    result is the lower bound ``top``.
    """
    table, lp = _cost_lp(vs.dists(target), vs)
    n = len(table.ids)
    # Every vertex covers exactly one cell per context, so a feasible support
    # needs at least as many vertices as the largest per-context cell count.
    k_floor = max(Counter(i for i, _ in table.cells).values())
    if comb(n, k_floor) > budget:  # no level fits the budget: no filter
        return DimensionResult(k_floor - 1, LOWER_BOUND_ONLY, None, n, 0)
    span = _SpanFilter(table)
    lp_size = sum(1 for q in lp.x if q > 0)
    top, fitting = k_floor, comb(n, k_floor)  # nodes of levels up to top
    while top < lp_size and fitting + comb(n, top + 1) <= budget:
        top += 1
        fitting += comb(n, top)

    def first_nonnegative(k):
        return next(((subset, q) for subset, q in span.spanning(k)
                     if all(w >= 0 for w in q)), None)

    k = min(lp_size, top + 1) - 1
    first = None  # the first support of level k + 1 with weights >= 0
    while k >= k_floor:
        hit = first_nonnegative(k)
        if hit is None:
            break
        nonzero = sum(1 for w in hit[1] if w)
        first = hit if nonzero == k else None
        k = nonzero - 1
    if k == top:
        return DimensionResult(top, LOWER_BOUND_ONLY, None, n, fitting)
    k += 1
    if first is None:
        first = first_nonnegative(k)
        if first is None:
            raise AssertionError(
                f"no decomposition within the LP's support size {lp_size} "
                f"({vs.name})")
        if not all(first[1]):
            # A zero weight gives a feasible smaller level, and the level
            # below this one is refuted.
            raise AssertionError("smaller support escaped the refuted levels")
    subset, q = first
    terms = [(table.ids[i], w) for i, w in zip(subset, q)]
    below = sum(comb(n, j) for j in range(k_floor, k))
    return DimensionResult(k, EXACT, _decomposition(terms, target, vs), n,
                           below + _combination_rank(subset, n) + 1)


def _affine_rank(vectors) -> int:
    """Exact affine rank of integer vectors (the dimension of their hull)."""
    base = vectors[0]
    return len(_echelon([[a - b for a, b in zip(v, base)]
                         for v in vectors[1:]]))


def _min_dimension(target, budget: int | None, vs: _VertexSet, membership,
                   outside_error: Exception) -> DimensionResult:
    """Cached minimal-dimension search; ``membership(target)`` must hold
    first, else ``outside_error`` is raised."""
    result = _cached_dimension(vs.dists(target), _budget_value(budget), vs,
                               membership)
    if result is None:
        raise outside_error
    return result


@lru_cache(maxsize=1024)
def _cached_dimension(dists: tuple, budget: int, vs: _VertexSet, membership
                      ) -> DimensionResult | None:
    """The search on the target with distributions ``dists``, or None when
    ``membership`` puts it outside the polytope.  Keyed without labels and
    by the membership function the caller looked up, so a hit calls
    neither; 1024 entries hold every search of a long sweep or benchmark
    run while keeping memory bounded."""
    target = vs.target(dists)
    if not membership(target)[0]:
        return None
    return _min_subset_search(target, budget, vs)


def min_nc_dimension(box: Box, budget: int | None = None) -> DimensionResult:
    """Minimal number of deterministic vertices mixing to the box.

    Exhaustive over the support sizes within the support-filtered
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
    rank-1 C always admits a two-term model; rank-2 C needs at least three
    hidden values (returns None).

    For C = u v^T the two-term models are parameterized by p', q' > 0, with
    weights q'/(p'+q') and p'/(p'+q') and term expectations alpha + p'u,
    alpha - q'u, beta + v/q' and beta - v/p'.  The largest p', q' keeping
    Alice's terms in [-1, 1] are P = min_x (1 - s_x alpha_x)/|u_x| and
    Q = min_x (1 + s_x alpha_x)/|u_x|, over the x with u_x != 0, s_x its
    sign; the model takes p' = P and q' = Q.  Bob's terms then lie in
    [-1, 1] too, and P, Q > 0, because a valid marginal bounds C: cell
    (a, b) of pair (x, y) is ((1 + a alpha_x)(1 + b beta_y) + ab C_xy)/4
    >= 0 for a, b = +-1, so with t_y the sign of v_y

        |u_x v_y| <= (1 - s_x alpha_x)(1 + t_y beta_y)  and
        |u_x v_y| <= (1 + s_x alpha_x)(1 - t_y beta_y).

    With x at the minimum in P the first gives |v_y|/P <= 1 + t_y beta_y,
    which keeps beta - v/P in [-1, 1]; the second does the same for Q and
    beta + v/Q.  P = 0 would make row x of C vanish, though u_x and v are
    nonzero; likewise Q.
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
    t = Q / (P + Q)
    term1 = ProductTerm(
        t,
        (alpha[0] + P * u[0], alpha[1] + P * u[1]),
        (beta[0] + v[0] / Q, beta[1] + v[1] / Q),
    )
    term2 = ProductTerm(
        1 - t,
        (alpha[0] - Q * u[0], alpha[1] - Q * u[1]),
        (beta[0] - v[0] / P, beta[1] - v[1] / P),
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
