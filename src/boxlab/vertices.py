"""Deterministic vertices of the noncontextual polytope and its Bell marginal.

A noncontextual deterministic box assigns every observable a fixed outcome:

* Bell observables follow ``a_x = alpha*x XOR beta`` and
  ``b_y = gamma*y XOR epsilon`` for bits (alpha, beta, gamma, epsilon);
* D and E take fixed outcomes d and e.

That yields 64 vertices ``(alpha beta gamma epsilon)(d e)`` for the full
five-context scenario and 16 local vertices ``alpha beta gamma epsilon`` for
the Bell marginal.  Vertices are generated programmatically from the rule
above; enumeration order is lexicographic so downstream decompositions are
reproducible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

from .errors import BoxParseError
from .scenario import (
    CONTEXT_IDS,
    CONTEXT_SIZES,
    BellMarginal,
    Box,
    bell_marginal,
    outcome_index,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_bits(vid) -> None:
    for field in fields(vid):
        bit = getattr(vid, field.name)
        if bit not in (0, 1):
            raise ValueError(f"{field.name} must be 0 or 1, got {bit!r}")


@dataclass(frozen=True, order=True)
class DetBoxId:
    """Identifier of one of the 64 deterministic boxes."""

    alpha: int
    beta: int
    gamma: int
    epsilon: int
    d: int
    e: int

    __post_init__ = _check_bits

    @property
    def label(self) -> str:
        return (f"({self.alpha}{self.beta}{self.gamma}{self.epsilon})"
                f"({self.d}{self.e})")

    @property
    def local_id(self) -> "LocalDetBoxId":
        return LocalDetBoxId(self.alpha, self.beta, self.gamma, self.epsilon)


@dataclass(frozen=True, order=True)
class LocalDetBoxId:
    """Identifier of one of the 16 local deterministic Bell boxes."""

    alpha: int
    beta: int
    gamma: int
    epsilon: int

    __post_init__ = _check_bits

    @property
    def label(self) -> str:
        return f"{self.alpha}{self.beta}{self.gamma}{self.epsilon}"


_DET_LABEL_RE = re.compile(r"^\(([01]{4})\)\(([01]{2})\)$")
_LOCAL_LABEL_RE = re.compile(r"^[01]{4}$")


def parse_det_label(label: str) -> DetBoxId:
    """Inverse of :attr:`DetBoxId.label`."""
    match = _DET_LABEL_RE.match(label.strip())
    if not match:
        raise BoxParseError(f"bad vertex label {label!r}, expected '(abge)(de)'")
    bits, de = match.groups()
    return DetBoxId(int(bits[0]), int(bits[1]), int(bits[2]), int(bits[3]),
                    int(de[0]), int(de[1]))


def parse_local_label(label: str) -> LocalDetBoxId:
    """Inverse of :attr:`LocalDetBoxId.label`."""
    text = label.strip()
    if not _LOCAL_LABEL_RE.match(text):
        raise BoxParseError(f"bad local vertex label {label!r}, expected 'abge'")
    return LocalDetBoxId(int(text[0]), int(text[1]), int(text[2]), int(text[3]))


def _det_outcomes(vid: DetBoxId) -> dict[str, tuple[int, ...]]:
    a = (vid.beta, vid.alpha ^ vid.beta)          # a_0, a_1
    b = (vid.epsilon, vid.gamma ^ vid.epsilon)    # b_0, b_1
    return {
        "C0": (a[0], b[0]),
        "C1": (a[0], b[1], vid.d),
        "C2": (a[1], b[0], vid.e),
        "C3": (a[1], b[1]),
        "C4": (vid.d, vid.e),
    }


def det_box(vid: DetBoxId) -> Box:
    """The deterministic box of one vertex id: one unit entry per context."""
    outcomes = _det_outcomes(vid)
    dists = []
    for context_id in CONTEXT_IDS:
        dist = [_ZERO] * CONTEXT_SIZES[context_id]
        dist[outcome_index(context_id, outcomes[context_id])] = _ONE
        dists.append(tuple(dist))
    return Box(tuple(dists), vid.label)


def local_det_box(vid: LocalDetBoxId) -> BellMarginal:
    """The deterministic Bell marginal with a_x = alpha*x^beta, b_y = gamma*y^epsilon:
    the Bell marginal of the deterministic box with the same bits and d = e = 0."""
    full = det_box(DetBoxId(vid.alpha, vid.beta, vid.gamma, vid.epsilon, 0, 0))
    return BellMarginal(bell_marginal(full).dists, vid.label)


def _enumerate(id_type, build) -> tuple:
    """``(vid, build(vid))`` for every bit assignment of ``id_type``'s fields,
    lexicographic."""
    nbits = len(fields(id_type))
    vids = (id_type(*bits) for bits in itertools.product((0, 1), repeat=nbits))
    return tuple((vid, build(vid)) for vid in vids)


@lru_cache(maxsize=1)
def enumerate_nc_vertices() -> tuple[tuple[DetBoxId, Box], ...]:
    """All 64 deterministic boxes, lexicographic in (alpha,beta,gamma,epsilon,d,e)."""
    return _enumerate(DetBoxId, det_box)


@lru_cache(maxsize=1)
def enumerate_local_vertices() -> tuple[tuple[LocalDetBoxId, BellMarginal], ...]:
    """All 16 local deterministic Bell marginals, lexicographic order."""
    return _enumerate(LocalDetBoxId, local_det_box)
