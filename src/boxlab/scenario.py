"""Five-context measurement scenario with exact-rational probability boxes.

The scenario has six two-outcome observables A0, A1, B0, B1, D, E grouped into
five jointly measurable contexts::

    C0 = (A0, B0)      4 outcomes
    C1 = (A0, B1, D)   8 outcomes
    C2 = (A1, B0, E)   8 outcomes
    C3 = (A1, B1)      4 outcomes
    C4 = (D, E)        4 outcomes

A :class:`Box` stores one exact-rational probability distribution per context
(28 entries total).  Every observable appears in exactly two contexts; a valid
box satisfies the no-disturbance condition that its single-observable marginal
is the same whichever hosting context it is computed from.

Outcome indexing
----------------
Outcomes are bit tuples in the order the context lists its observables.  Bit 0
maps to measurement result +1 and bit 1 to -1 in all expectation values.
Four-outcome contexts index outcome (o1, o2) at ``2*o1 + o2``.  Eight-outcome
contexts use the fixed column order::

    000, 010, 100, 110, 001, 011, 101, 111

i.e. outcome (o1, o2, o3) lives at flat index ``4*o3 + 2*o1 + o2``.  All
serialization follows this order.
"""

from __future__ import annotations

import decimal
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    BoxParseError,
    NegativeEntry,
    NoDisturbanceViolation,
    NotNormalized,
    ParameterOutOfRange,
)

CONTEXT_IDS: tuple[str, ...] = ("C0", "C1", "C2", "C3", "C4")

CONTEXT_OBSERVABLES: dict[str, tuple[str, ...]] = {
    "C0": ("A0", "B0"),
    "C1": ("A0", "B1", "D"),
    "C2": ("A1", "B0", "E"),
    "C3": ("A1", "B1"),
    "C4": ("D", "E"),
}

CONTEXT_SIZES: dict[str, int] = {c: 2 ** len(o) for c, o in CONTEXT_OBSERVABLES.items()}

#: Each observable's two hosting contexts with its position in their outcome
#: tuples, in the order validation checks no-disturbance.
OBSERVABLE_HOSTS: dict[str, tuple[tuple[str, int], tuple[str, int]]] = {
    name: tuple((c, observables.index(name))
                for c, observables in CONTEXT_OBSERVABLES.items()
                if name in observables)
    for name in ("A0", "B0", "B1", "A1", "D", "E")
}

_ORDER4: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
_ORDER8: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
)

#: Outcome tuples of each context in flat-index order.
OUTCOME_ORDERS: dict[str, tuple[tuple[int, ...], ...]] = {
    c: (_ORDER8 if CONTEXT_SIZES[c] == 8 else _ORDER4) for c in CONTEXT_IDS
}


def outcome_index(context: str, outcome: Sequence[int]) -> int:
    """Flat index of an outcome bit tuple within its context's distribution;
    :class:`ValueError` for a tuple that is not one of its outcomes."""
    return OUTCOME_ORDERS[context].index(tuple(outcome))


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def as_rational(value) -> Fraction:
    """Convert ``value`` to an exact :class:`~fractions.Fraction`.

    Accepts Fractions, ints, and strings like ``"1/3"`` or ``"2"``.  Floats and
    decimal strings are rejected to protect exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise BoxParseError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise BoxParseError(
                f"not an exact rational string: {value!r} (use 'num/den')"
            )
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise BoxParseError(f"zero denominator in {value!r}") from None
        except ValueError as exc:  # beyond the interpreter's int-digit limit
            raise BoxParseError(f"unparsable rational: {exc}") from None
    if isinstance(value, float):
        raise BoxParseError(
            f"float {value!r} rejected: boxes are exact-rational (use 'num/den')"
        )
    raise BoxParseError(f"not a rational value: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string for a rational: ``'1/3'``, ``'0'``, ``'1'``.

    Raises :class:`ParameterOutOfRange` when a term has more digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits()``).
    """
    try:
        return str(value)
    except ValueError:
        raise ParameterOutOfRange(
            f"rational too large to print: a term passes the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings"
        ) from None


def rational_to_decimal(value: Fraction, digits: int = 12) -> str:
    """Deterministic decimal rendering to ``digits`` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        quotient = decimal.Decimal(value.numerator) / decimal.Decimal(
            value.denominator)
    return str(quotient)


@dataclass(frozen=True)
class Box:
    """Immutable probability box: one exact distribution per context.

    Instances are produced by :func:`validate_box` (or helpers that build
    already-valid boxes) and satisfy nonnegativity, per-context normalization,
    and no-disturbance exactly.
    """

    contexts: tuple[tuple[Fraction, ...], ...]
    label: str | None = None

    def context(self, context_id: str) -> tuple[Fraction, ...]:
        """The distribution of one context, in flat-index order."""
        return self.contexts[CONTEXT_IDS.index(context_id)]

    def entries(self) -> tuple[Fraction, ...]:
        """All 28 entries concatenated in context order."""
        return tuple(p for dist in self.contexts for p in dist)

    def with_label(self, label: str | None) -> "Box":
        return Box(self.contexts, label)


def _marginal_from(dist: Sequence[Fraction], position: int) -> tuple[Fraction, Fraction]:
    order = _ORDER8 if len(dist) == 8 else _ORDER4
    p0 = sum((p for o, p in zip(order, dist) if o[position] == 0), Fraction(0))
    p1 = sum((p for o, p in zip(order, dist) if o[position] == 1), Fraction(0))
    return (p0, p1)


def _checked_dists(vectors, names: Sequence[str], sizes: Sequence[int],
                   hosts: Mapping, noun: str) -> tuple[tuple[Fraction, ...], ...]:
    """Exact distributions from raw vectors named ``names``, checked for
    size, nonnegativity, normalization, then no-disturbance over ``hosts``
    (each observable's two hosting distributions with its outcome position).
    ``noun`` prefixes a name in the size message."""
    dists: dict[str, tuple[Fraction, ...]] = {}
    for name, size, vector in zip(names, sizes, vectors):
        if isinstance(vector, str) or not isinstance(vector, Iterable):
            raise BoxParseError(f"{noun}{name} must be a list of entries, "
                                f"got {type(vector).__name__}")
        values = tuple(as_rational(v) for v in vector)
        if len(values) != size:
            raise BoxParseError(
                f"{noun}{name} needs {size} entries, got {len(values)}")
        for index, p in enumerate(values):
            if p < 0:
                raise NegativeEntry(name, index, p)
        total = sum(values)
        if total != 1:
            raise NotNormalized(name, total)
        dists[name] = values
    for observable, ((name_a, pos_a), (name_b, pos_b)) in hosts.items():
        left = _marginal_from(dists[name_a], pos_a)
        right = _marginal_from(dists[name_b], pos_b)
        if left != right:
            raise NoDisturbanceViolation(observable, (name_a, name_b), left, right)
    return tuple(dists.values())


def validate_box(raw, label: str | None = None) -> Box:
    """Validate raw per-context probability vectors and return a :class:`Box`.

    ``raw`` is a sequence of five vectors with lengths (4, 8, 8, 4, 4), or a
    mapping from context id to vector.  Entries may be Fractions, ints, or
    exact rational strings.  All checks are exact; no tolerances.

    Raises
    ------
    NegativeEntry, NotNormalized, NoDisturbanceViolation, BoxParseError
    """
    if isinstance(raw, Mapping):
        try:
            vectors = [raw[c] for c in CONTEXT_IDS]
        except KeyError as missing:
            raise BoxParseError(f"missing context {missing} in box data") from None
    else:
        vectors = list(raw)
    if len(vectors) != 5:
        raise BoxParseError(f"expected 5 context vectors, got {len(vectors)}")
    return Box(_checked_dists(vectors, CONTEXT_IDS,
                              [CONTEXT_SIZES[c] for c in CONTEXT_IDS],
                              OBSERVABLE_HOSTS, "context "), label)


def single_marginal(box: Box, observable: str) -> tuple[Fraction, Fraction]:
    """``(p(0|O), p(1|O))`` for one observable.

    No-disturbance guarantees the result is identical whichever hosting
    context is used; the first host is read.
    """
    if observable not in OBSERVABLE_HOSTS:
        raise KeyError(f"unknown observable {observable!r}")
    context_id, position = OBSERVABLE_HOSTS[observable][0]
    return _marginal_from(box.context(context_id), position)


def expectation(box: Box, context_id: str) -> Fraction:
    """Parity expectation of a context: sum of (-1)^(outcome bit sum) * p."""
    dist = box.context(context_id)
    return sum(
        (p if sum(o) % 2 == 0 else -p
         for o, p in zip(OUTCOME_ORDERS[context_id], dist)),
        Fraction(0),
    )


def inequality_lhs(box: Box) -> Fraction:
    """Left-hand side ``<C0> + <C1> + <C2> + <C3> - <C4>``.

    Values above 3 certify contextuality (a sufficient witness; boxes at or
    below 3 may still be contextual).  The maximum over valid boxes is 5.
    """
    return (
        expectation(box, "C0")
        + expectation(box, "C1")
        + expectation(box, "C2")
        + expectation(box, "C3")
        - expectation(box, "C4")
    )


# ---------------------------------------------------------------------------
# Bell marginal: the four two-observable distributions {A_x B_y}
# ---------------------------------------------------------------------------

#: Setting pairs (x, y) of the Bell marginal, in serialization order.
BELL_SETTINGS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class BellMarginal:
    """Four exact distributions p(a b | A_x B_y), each indexed at ``2a + b``."""

    dists: tuple[tuple[Fraction, ...], ...]
    label: str | None = None

    def dist(self, x: int, y: int) -> tuple[Fraction, ...]:
        """p(a b | A_x B_y); :class:`ParameterOutOfRange` unless both
        settings are 0 or 1."""
        if (x, y) not in BELL_SETTINGS:
            raise ParameterOutOfRange(
                f"Bell settings must be 0 or 1, got ({x!r}, {y!r})")
        return self.dists[2 * x + y]


#: Each Bell observable's two hosting distributions with its outcome position.
_BELL_HOSTS: dict[str, tuple[tuple[str, int], tuple[str, int]]] = {
    "A0": (("A0B0", 0), ("A0B1", 0)),
    "A1": (("A1B0", 0), ("A1B1", 0)),
    "B0": (("A0B0", 1), ("A1B0", 1)),
    "B1": (("A0B1", 1), ("A1B1", 1)),
}


def validate_bell_marginal(raw, label: str | None = None) -> BellMarginal:
    """Validate four length-4 vectors (order A0B0, A0B1, A1B0, A1B1).

    Checks nonnegativity, normalization, and no-signaling exactly.
    """
    vectors = list(raw)
    if len(vectors) != 4:
        raise BoxParseError(f"expected 4 distributions, got {len(vectors)}")
    names = [f"A{x}B{y}" for x, y in BELL_SETTINGS]
    return BellMarginal(_checked_dists(vectors, names, [4] * 4, _BELL_HOSTS, ""),
                        label)


def _pair_distribution(box: Box, o1: str, o2: str) -> tuple[Fraction, ...]:
    """Joint distribution of two observables, outcome ``(a, b)`` at index
    ``2*a + b``, summed from the context that hosts both."""
    context_id, observables = next(
        (c, observables) for c, observables in CONTEXT_OBSERVABLES.items()
        if o1 in observables and o2 in observables)
    i, j = observables.index(o1), observables.index(o2)
    dist = [Fraction(0)] * 4
    for o, p in zip(OUTCOME_ORDERS[context_id], box.context(context_id)):
        dist[2 * o[i] + o[j]] += p
    return tuple(dist)


def _pair_covariance(dist: Sequence[Fraction]) -> Fraction:
    """``<O1 O2> - <O1><O2>`` of a pair distribution indexed at ``2*a + b``,
    with the bit 0 -> +1, bit 1 -> -1 convention."""
    p00, p01, p10, p11 = dist
    return (p00 - p01 - p10 + p11) - (p00 + p01 - p10 - p11) * (
        p00 - p01 + p10 - p11)


def bell_marginal(box: Box) -> BellMarginal:
    """The Bell marginal of a box: each pair (A_x, B_y) read from the context
    that hosts it.  The result satisfies no-signaling because the box
    satisfies no-disturbance.
    """
    return BellMarginal(
        tuple(_pair_distribution(box, f"A{x}", f"B{y}")
              for x, y in BELL_SETTINGS),
        box.label,
    )


def _bell_covariance(marginal: BellMarginal) -> list[list[Fraction]]:
    """The cross-covariance matrix ``C[x][y] = cov(A_x, B_y)``."""
    return [[_pair_covariance(marginal.dist(x, y)) for y in (0, 1)]
            for x in (0, 1)]


def bell_correlator(marginal: BellMarginal, x: int, y: int) -> Fraction:
    """``<A_x B_y>`` with the bit 0 -> +1, bit 1 -> -1 convention."""
    d = marginal.dist(x, y)
    return d[0] - d[1] - d[2] + d[3]


def bell_single(marginal: BellMarginal, party: str, setting: int) -> Fraction:
    """``<A_x>`` (party 'A') or ``<B_y>`` (party 'B')."""
    if party == "A":
        p0, p1 = _marginal_from(marginal.dist(setting, 0), 0)
    elif party == "B":
        p0, p1 = _marginal_from(marginal.dist(0, setting), 1)
    else:
        raise KeyError(f"party must be 'A' or 'B', got {party!r}")
    return p0 - p1


def mix_boxes(terms: Iterable[tuple[Fraction | int | str, Box]],
              label: str | None = None) -> Box:
    """Exact convex mixture of boxes; weights must sum to exactly 1."""
    pairs = [(as_rational(w), b) for w, b in terms]
    total = sum((w for w, _ in pairs), Fraction(0))
    if total != 1:
        raise ParameterOutOfRange(f"mixture weights sum to {total}, expected 1")
    for w, _ in pairs:
        if w < 0:
            raise ParameterOutOfRange(f"negative mixture weight {w}")
    dists = []
    for i, context_id in enumerate(CONTEXT_IDS):
        size = CONTEXT_SIZES[context_id]
        acc = [Fraction(0)] * size
        for w, b in pairs:
            for j, p in enumerate(b.contexts[i]):
                acc[j] += w * p
        dists.append(tuple(acc))
    # Mixtures of valid boxes are valid (all constraints are affine).
    return Box(tuple(dists), label)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def box_to_json_dict(box: Box) -> dict:
    """Canonical JSON-ready dict: contexts C0..C4 as rational strings."""
    data: dict = {
        "contexts": {
            c: [format_rational(p) for p in box.context(c)] for c in CONTEXT_IDS
        }
    }
    if box.label is not None:
        data["label"] = box.label
    return data


def box_from_json_dict(data) -> Box:
    """Parse and validate a box from its JSON dict form.

    Floats anywhere in the entries are rejected.
    """
    if not isinstance(data, Mapping):
        raise BoxParseError("box JSON must be an object")
    if "contexts" not in data:
        raise BoxParseError("box JSON must have a 'contexts' key")
    contexts = data["contexts"]
    if not isinstance(contexts, Mapping):
        raise BoxParseError("'contexts' must map C0..C4 to entry arrays")
    unknown = set(contexts) - set(CONTEXT_IDS)
    if unknown:
        raise BoxParseError(f"unknown context keys: {sorted(unknown)}")
    return validate_box(contexts, label=_checked_label(data.get("label")))


def _checked_label(label):
    """``label`` when it is None or a string of valid Unicode text, which
    every output can encode; a lone surrogate, such as a command-line byte
    that is not UTF-8, is not."""
    if label is None:
        return None
    if not isinstance(label, str):
        raise BoxParseError("'label' must be a string")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise BoxParseError("'label' must be valid Unicode text") from None
    return label
