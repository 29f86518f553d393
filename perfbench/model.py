"""The benchmark's own exact model of the scenario, independent of boxlab.

Inputs are built here from exact rationals, and outputs are checked against
what this module knows about them, so a defect in the library cannot make its
own answers look right.  Boxes are five tuples of Fractions, contexts C0..C4
with 4, 8, 8, 4 and 4 entries in the library's documented outcome order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

CONTEXT_IDS = ("C0", "C1", "C2", "C3", "C4")
CONTEXT_SIZES = (4, 8, 8, 4, 4)

_Q = Fraction(1, 4)
_H = Fraction(1, 2)
_Z = Fraction(0)
_EVEN8 = (_Q, _Z, _Z, _Q, _Z, _Q, _Q, _Z)

PERES = ((_H, _Z, _Z, _H), _EVEN8, _EVEN8, (_H, _Z, _Z, _H), (_Z, _H, _H, _Z))
NOISE = ((_Q,) * 4, _EVEN8, _EVEN8, (_Q,) * 4, (_Q,) * 4)
#: The parity box with D's outcome relabelled: its contextuality is not
#: aligned with PERES, so no split through PERES exists.
FLIPPED = (PERES[0], tuple(PERES[1][i ^ 4] for i in range(8)), PERES[2],
           PERES[3], tuple(PERES[4][i ^ 2] for i in range(4)))
UNIFORM = ((_Q,) * 4, (Fraction(1, 8),) * 8, (Fraction(1, 8),) * 8,
           (_Q,) * 4, (_Q,) * 4)


def _parse(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


#: Exact boxes of three two-qubit constructions (state, observable set), with
#: the minimal noncontextual dimension each one has.
QUANTUM = {
    "rank3-sigma": (_parse([
        ["1/2", "1/6", "1/6", "1/6"],
        ["5/12", "0", "0", "1/12", "0", "1/4", "1/4", "0"],
        ["5/12", "0", "0", "1/12", "0", "1/4", "1/4", "0"],
        ["1/2", "1/6", "1/6", "1/6"],
        ["1/6", "1/3", "1/3", "1/6"]]), 8),
    "rank3-rho": (_parse([
        ["3/8", "1/8", "1/8", "3/8"],
        ["1/4", "0", "0", "1/4", "0", "1/4", "1/4", "0"],
        ["1/4", "0", "0", "1/4", "0", "1/4", "1/4", "0"],
        ["3/8", "1/8", "1/8", "3/8"],
        ["1/4", "1/4", "1/4", "1/4"]]), 7),
    "cc-rotated": (_parse([
        ["3/8", "1/8", "1/8", "3/8"],
        ["3/8", "0", "0", "3/8", "0", "1/8", "1/8", "0"],
        ["3/8", "0", "0", "3/8", "0", "1/8", "1/8", "0"],
        ["3/8", "1/8", "1/8", "3/8"],
        ["1/2", "1/4", "1/4", "0"]]), 6),
}

#: CLI ``gen --state`` arguments that produce each box of :data:`QUANTUM`.
QUANTUM_GEN_ARGS = {
    "rank3-sigma": ("--state", "rank3-sigma", "--observables", "peres"),
    "rank3-rho": ("--state", "rank3-rho", "--observables", "peres"),
    "cc-rotated": ("--state", "cc", "--observables", "rotated"),
}


def _index(bits):
    if len(bits) == 2:
        return 2 * bits[0] + bits[1]
    return 4 * bits[2] + 2 * bits[0] + bits[1]


def _vertex(alpha, beta, gamma, epsilon, d, e):
    a = (beta, alpha ^ beta)
    b = (epsilon, gamma ^ epsilon)
    outcomes = ((a[0], b[0]), (a[0], b[1], d), (a[1], b[0], e), (a[1], b[1]),
                (d, e))
    rows = []
    for size, bits in zip(CONTEXT_SIZES, outcomes):
        row = [_Z] * size
        row[_index(bits)] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


#: The 64 deterministic noncontextual vertices as (bits, label, box), in
#: lexicographic order of (alpha, beta, gamma, epsilon, d, e).
VERTICES = tuple(
    (bits, f"({bits[0]}{bits[1]}{bits[2]}{bits[3]})({bits[4]}{bits[5]})",
     _vertex(*bits))
    for bits in itertools.product((0, 1), repeat=6))
VERTEX_BY_BITS = {bits: box for bits, _, box in VERTICES}


def local_vertices():
    """The 16 local deterministic Bell boxes as (label, {"AxBy": dist})."""
    out = []
    for alpha, beta, gamma, epsilon in itertools.product((0, 1), repeat=4):
        a = (beta, alpha ^ beta)
        b = (epsilon, gamma ^ epsilon)
        dists = {}
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            dist = [_Z] * 4
            dist[2 * a[x] + b[y]] = Fraction(1)
            dists[f"A{x}B{y}"] = tuple(dist)
        out.append((f"{alpha}{beta}{gamma}{epsilon}", dists))
    return out


def mix(terms):
    """Exact convex mixture of (weight, box) pairs."""
    rows = [[_Z] * size for size in CONTEXT_SIZES]
    for weight, box in terms:
        for row, dist in zip(rows, box):
            for j, p in enumerate(dist):
                if p:
                    row[j] += weight * p
    return tuple(tuple(row) for row in rows)


def noisy(w):
    """``w * PERES + (1 - w) * NOISE``."""
    return mix([(w, PERES), (1 - w, NOISE)])


def noisy_cost(w):
    return max(_Z, (3 * w - 1) / 2)


def noisy_peres_strength(w):
    return (1 + w) / 2


def noisy_inequality(w):
    return 2 + 3 * w


def random_weights(rng, k, max_numerator=12):
    """k positive rationals summing to 1."""
    raw = [rng.randint(1, max_numerator) for _ in range(k)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def vertex_mixture(rng, k):
    """A random mixture of k distinct vertices: (box, [(bits, weight)])."""
    picks = rng.sample(range(len(VERTICES)), k)
    weights = random_weights(rng, k)
    terms = [(VERTICES[i][0], w) for i, w in zip(picks, weights)]
    return mix([(w, VERTEX_BY_BITS[bits]) for bits, w in terms]), terms


def rational_in(rng, low, high, min_den, max_den):
    """A rational strictly inside (low, high) with a denominator in range."""
    while True:
        den = rng.randint(min_den, max_den)
        lo = int(low * den) + 1
        hi = -(-high * den // 1) - 1
        if lo <= hi:
            return Fraction(rng.randint(lo, hi), den)


def _bits(size, index):
    if size == 4:
        return (index >> 1, index & 1)
    return ((index >> 1) & 1, index & 1, index >> 2)


def inequality(box):
    """``<C0> + <C1> + <C2> + <C3> - <C4>`` with bit 0 -> +1, bit 1 -> -1."""
    total = _Z
    for c, (size, dist) in enumerate(zip(CONTEXT_SIZES, box)):
        parity = sum(p if sum(_bits(size, i)) % 2 == 0 else -p
                     for i, p in enumerate(dist))
        total += -parity if c == 4 else parity
    return total


def bell_marginal(box):
    """The four Bell distributions {"AxBy": dist}: C1 and C2 summed over D, E."""
    a0b1 = [_Z] * 4
    a1b0 = [_Z] * 4
    for i in range(8):
        a0b1[i & 3] += box[1][i]
        a1b0[i & 3] += box[2][i]
    return {"A0B0": box[0], "A0B1": tuple(a0b1), "A1B0": tuple(a1b0),
            "A1B1": box[3]}


LOCAL_VERTICES = dict(local_vertices())


def mix_local(terms):
    """Exact mixture of (label, weight) local vertices, as Bell distributions."""
    out = {name: [_Z] * 4 for name in ("A0B0", "A0B1", "A1B0", "A1B1")}
    for label, weight in terms:
        for name, dist in LOCAL_VERTICES[label].items():
            for j, p in enumerate(dist):
                out[name][j] += weight * p
    return {name: tuple(dist) for name, dist in out.items()}


def to_strings(box):
    """The ``contexts`` mapping of the box JSON format."""
    return {c: [str(p) for p in dist] for c, dist in zip(CONTEXT_IDS, box)}
