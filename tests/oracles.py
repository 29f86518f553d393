"""Independent brute-force oracles for cross-checking the search engine.

These helpers deliberately avoid the library's exact LP and branch-and-bound
code paths.  Feasibility of a fixed support is decided by a float
least-squares prescreen (large residual means the linear system is
inconsistent, so the support is certainly refuted) followed by exact
rational Gauss-Jordan adjudication of every near-consistent suspect.  The
only inexact fallback is a float LP for underdetermined suspects, which the
fixtures exercised here are not expected to produce; if one ever reports
feasible, the assertion fails loudly rather than being silently accepted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy
from scipy.optimize import linprog


def box_vector(box) -> tuple[Fraction, ...]:
    """Flatten a five-context box into its 28-entry probability vector."""
    return tuple(box.entries())


def marginal_vector(marginal) -> tuple[Fraction, ...]:
    """Flatten a four-distribution marginal into a 16-entry vector."""
    return tuple(p for dist in marginal.dists for p in dist)


def support_columns(columns, target):
    """Keep only columns whose support fits inside the target's support.

    ``columns`` is a sequence of ``(key, vector)`` pairs; a column survives
    iff it is zero at every coordinate where the target is zero.  This is a
    necessary condition for the column to appear with positive weight in any
    convex decomposition of the target.
    """
    kept = []
    for key, col in columns:
        if all(c == 0 for c, t in zip(col, target) if t == 0):
            kept.append((key, col))
    return kept


def _exactly_feasible(cols, target) -> bool:
    """Exact test: is target a convex combination of the given columns?"""
    n = len(target)
    a = sympy.Matrix(
        [[sympy.Rational(col[i]) for col in cols] for i in range(n)]
        + [[sympy.Integer(1)] * len(cols)]
    )
    b = sympy.Matrix([sympy.Rational(t) for t in target] + [sympy.Integer(1)])
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        return False
    if not params:
        return all(v >= 0 for v in sol)
    # Underdetermined suspect: fall back to a float LP over the nonnegative
    # orthant.  Not expected for the supports exercised in this suite.
    res = linprog(
        c=[0.0] * len(cols),
        A_eq=np.array(a, dtype=float),
        b_eq=np.array(b, dtype=float).ravel(),
        bounds=[(0, None)] * len(cols),
        method="highs",
    )
    return bool(res.success)


def lp_member(columns, target) -> bool:
    """Float LP: is the target a convex combination of the columns?

    ``columns`` is a sequence of ``(key, vector)`` pairs.  HiGHS decides
    feasibility within its default tolerance, so targets should be members
    or miss the hull by far more than that.
    """
    n = len(target)
    res = linprog(
        c=[0.0] * len(columns),
        A_eq=np.array([[float(col[i]) for _, col in columns]
                       for i in range(n)] + [[1.0] * len(columns)]),
        b_eq=np.array([float(t) for t in target] + [1.0]),
        bounds=[(0, None)] * len(columns),
        method="highs",
    )
    if res.status not in (0, 2):
        raise AssertionError(f"oracle LP ended with status {res.status}")
    return res.status == 0


def refute_all_supports_below(columns, target, max_size) -> tuple[int, int]:
    """Assert no support of size <= max_size reproduces the target.

    ``columns`` is a sequence of ``(key, vector)`` pairs (pre-filtered to
    the target's support).  Returns ``(subsets_checked, suspects)`` where
    suspects counts the subsets that needed exact adjudication.
    """
    n = len(target)
    full = np.array(
        [[float(col[i]) for _, col in columns] for i in range(n)]
        + [[1.0] * len(columns)]
    )
    b = np.array([float(t) for t in target] + [1.0])
    checked = 0
    suspects = 0
    for size in range(1, max_size + 1):
        for idx in itertools.combinations(range(len(columns)), size):
            sub = full[:, idx]
            sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.linalg.norm(sub @ sol - b) <= 1e-6:
                suspects += 1
                cols = [columns[j][1] for j in idx]
                labels = [columns[j][0] for j in idx]
                # Raised explicitly: this is not a test module, so pytest
                # does not rewrite an assert here, and ``python -O`` drops it.
                if _exactly_feasible(cols, target):
                    raise AssertionError(
                        f"support {labels} of size {size} reproduces the "
                        f"target, contradicting the claimed minimum > "
                        f"{max_size}")
            checked += 1
    return checked, suspects


def float_affine_rank(vectors) -> int:
    """Affine rank of a vector family via float SVD."""
    arr = np.array([[float(x) for x in vec] for vec in vectors])
    return int(np.linalg.matrix_rank(arr[1:] - arr[0], tol=1e-9))


def exact_affine_rank(vectors) -> int:
    """Affine rank of a vector family via exact rational elimination."""
    base = vectors[0]
    rows = [
        [sympy.Rational(x - y) for x, y in zip(vec, base)]
        for vec in vectors[1:]
    ]
    return sympy.Matrix(rows).rank()
