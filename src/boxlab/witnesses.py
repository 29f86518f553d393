"""Covariance witnesses, the semi-device-independent criterion, and reports.

The covariance witness Q is the determinant of the 2x2 matrix of
cross-covariances cov(A_x, B_y).  Any product (uncorrelated) box has all four
covariances zero, and more generally any two-value product-response model
makes the matrix rank-deficient, so Q != 0 witnesses superlocality of the
Bell marginal without inspecting the hidden-variable model.  Conversely
every local marginal with Q = 0 has a two-value model
(:func:`~boxlab.decompose.product_lhv_terms`), so for a local marginal
superlocality is exactly Q != 0.

The semi-device-independent check combines that witness with perfect
three-observable correlations in the two mixed contexts and a nonvanishing
D,E covariance; :func:`classify` assembles everything this package computes
about a box into one :class:`Report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .decompose import (
    DimensionResult,
    EXACT,
    _budget_value,
    _supernoncontextual,
    bell_local_membership,
    contextual_fraction,
    min_lhv_dimension,
    min_nc_dimension,
    peres_strength,
)
from .errors import NotDecomposable, PairNotJoint
from .scenario import (
    BellMarginal,
    Box,
    _bell_covariance,
    _pair_covariance,
    _pair_distribution,
    bell_marginal,
    expectation,
    format_rational,
    inequality_lhs,
    rational_to_decimal,
)

#: Observable pairs hosted in a single context: the four Bell pairs plus (D,E).
HOSTED_PAIRS = (("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1"),
                ("D", "E"))


def covariance(box: Box, pair: tuple[str, str]) -> Fraction:
    """Exact <O1 O2> - <O1><O2> for a pair hosted in one context.

    Supported pairs: the four (A_x, B_y) and (D, E), each read from the
    context that hosts it; order within the pair does not matter.  Any
    other pair raises :class:`PairNotJoint`.  Outcomes carry the 0 -> +1,
    1 -> -1 sign convention.
    """
    names = tuple(pair)
    if len(names) != 2:
        raise PairNotJoint(f"expected a pair of observables, got {pair!r}")
    if tuple(sorted(names)) not in HOSTED_PAIRS:
        raise PairNotJoint(
            "covariance is not tracked for the pair "
            f"({names[0]}, {names[1]}); "
            "supported pairs are the four (Ax, By) pairs and (D, E)")
    return _pair_covariance(_pair_distribution(box, *names))


def q_witness(box: Box) -> Fraction:
    """Determinant of the covariance matrix [cov(A_x, B_y)]_{x,y}."""
    return _marginal_q(bell_marginal(box))


def _marginal_q(marginal: BellMarginal) -> Fraction:
    C = _bell_covariance(marginal)
    return C[0][0] * C[1][1] - C[1][0] * C[0][1]


@dataclass(frozen=True)
class SdiCheck:
    """Result of the semi-device-independent contextuality criterion.

    ``conditions`` maps each sub-condition name to its boolean:
    ``q_witness`` (Q != 0), ``c1_expectation`` (<A0 B1 D> = 1),
    ``c2_expectation`` (<A1 B0 E> = 1) and ``cov_de`` (cov(D,E) != 0).
    """

    passed: bool
    q_witness: Fraction
    c1_expectation: Fraction
    c2_expectation: Fraction
    cov_de: Fraction
    conditions: Mapping[str, bool]


def sdi_contextuality_check(box: Box, marginal: BellMarginal | None = None
                            ) -> SdiCheck:
    """Semi-device-independent contextuality criterion.

    True iff Q != 0, the two three-observable contexts show perfect
    correlation (<A0 B1 D> = <A1 B0 E> = 1), and cov(D, E) != 0.  Q is read
    from ``marginal``, which must be the box's Bell marginal; it is built
    from the box when not given.
    """
    q = _marginal_q(bell_marginal(box) if marginal is None else marginal)
    c1 = expectation(box, "C1")
    c2 = expectation(box, "C2")
    cde = covariance(box, ("D", "E"))
    conditions = {
        "q_witness": q != 0,
        "c1_expectation": c1 == 1,
        "c2_expectation": c2 == 1,
        "cov_de": cde != 0,
    }
    return SdiCheck(all(conditions.values()), q, c1, c2, cde, conditions)


@dataclass(frozen=True)
class Report:
    """Everything this package computes about one box.

    Search-based fields are None when not applicable: the minimal
    noncontextual dimension and the supernoncontextual flag for contextual
    boxes, the local-model fields for boxes whose Bell marginal is nonlocal,
    the Peres strength when no split through the parity box exists, and all
    of them when dimension searches are skipped.  ``supernoncontextual`` is
    also None when a budget-capped search was inconclusive.
    """

    label: str | None
    nd_valid: bool
    inequality_lhs: Fraction
    contextual: bool
    ncf: Fraction
    cost: Fraction
    q_witness: Fraction
    cov_de: Fraction
    c1_expectation: Fraction
    c2_expectation: Fraction
    sdi_contextual: bool
    sdi_conditions: Mapping[str, bool]
    peres_strength: Fraction | None
    min_nc_dim: DimensionResult | None
    supernoncontextual: bool | None
    marginal_local: bool
    min_lhv_dim: DimensionResult | None
    superlocal: bool | None


def classify(box: Box, budget: int | None = None,
             skip_dims: bool = False) -> Report:
    """Assemble the full :class:`Report` for a validated box.

    ``skip_dims=True`` skips the subset searches (minimal dimensions and the
    supernoncontextual flag); the superlocal flag survives because it is
    read from Q, which needs no search.  The budget is checked first,
    whether or not a search runs.
    """
    budget = _budget_value(budget)
    lhs = inequality_lhs(box)
    fraction = contextual_fraction(box)
    contextual = fraction.cost > 0
    marginal = bell_marginal(box)
    sdi = sdi_contextuality_check(box, marginal)
    try:
        ps_value = peres_strength(box).value
    except NotDecomposable:
        ps_value = None

    min_nc: DimensionResult | None = None
    supernoncontextual: bool | None = None
    if not contextual and not skip_dims:
        min_nc = min_nc_dimension(box, budget)
        supernoncontextual = _supernoncontextual(min_nc)

    local, _ = bell_local_membership(marginal)
    min_lhv: DimensionResult | None = None
    superlocal: bool | None = None
    if local:
        superlocal = sdi.q_witness != 0
        if not skip_dims:
            min_lhv = min_lhv_dimension(marginal, budget)

    return Report(
        label=box.label,
        nd_valid=True,
        inequality_lhs=lhs,
        contextual=contextual,
        ncf=fraction.ncf,
        cost=fraction.cost,
        q_witness=sdi.q_witness,
        cov_de=sdi.cov_de,
        c1_expectation=sdi.c1_expectation,
        c2_expectation=sdi.c2_expectation,
        sdi_contextual=sdi.passed,
        sdi_conditions=sdi.conditions,
        peres_strength=ps_value,
        min_nc_dim=min_nc,
        supernoncontextual=supernoncontextual,
        marginal_local=local,
        min_lhv_dim=min_lhv,
        superlocal=superlocal,
    )


def _dim_json(result: DimensionResult | None):
    if result is None:
        return None
    return {
        "dimension": result.dimension,
        "status": result.status,
        "exact": result.status == EXACT,
        "filtered_vertices": result.filtered_count,
        "nodes_used": result.nodes_used,
    }


def report_to_json_dict(report: Report) -> dict:
    """JSON-friendly dict; rationals as "num/den" strings, None preserved."""
    return {
        "label": report.label,
        "nd_valid": report.nd_valid,
        "inequality_lhs": format_rational(report.inequality_lhs),
        "contextual": report.contextual,
        "noncontextual_fraction": format_rational(report.ncf),
        "cost": format_rational(report.cost),
        "witnesses": {
            "q_witness": format_rational(report.q_witness),
            "cov_DE": format_rational(report.cov_de),
            "c1_expectation": format_rational(report.c1_expectation),
            "c2_expectation": format_rational(report.c2_expectation),
            "sdi_contextual": report.sdi_contextual,
            "sdi_conditions": dict(report.sdi_conditions),
        },
        "peres_strength": (None if report.peres_strength is None
                           else format_rational(report.peres_strength)),
        "noncontextual_model": {
            "min_dimension": _dim_json(report.min_nc_dim),
            "supernoncontextual": report.supernoncontextual,
        },
        "bell_marginal": {
            "local": report.marginal_local,
            "min_dimension": _dim_json(report.min_lhv_dim),
            "superlocal": report.superlocal,
        },
    }


CSV_COLUMNS = (
    "label", "nd_valid", "inequality_lhs", "inequality_lhs_dec", "contextual",
    "ncf", "ncf_dec", "cost", "cost_dec", "q_witness", "q_witness_dec",
    "cov_DE", "cov_DE_dec", "c1_expectation", "c2_expectation",
    "sdi_contextual", "peres_strength", "peres_strength_dec",
    "min_nc_dim", "min_nc_dim_status", "supernoncontextual",
    "marginal_local", "min_lhv_dim", "min_lhv_dim_status", "superlocal",
)


def _csv_bool(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _rational_cells(value: Fraction | None) -> list[str]:
    """``[num/den, 12-digit decimal]`` cells of a rational; two blanks for
    None."""
    if value is None:
        return ["", ""]
    return [format_rational(value), rational_to_decimal(value)]


def report_to_csv_row(report: Report) -> list[str]:
    """Flatten to one row matching :data:`CSV_COLUMNS`; None becomes blank."""

    def dim_cells(result: DimensionResult | None) -> tuple[str, str]:
        if result is None:
            return ("", "")
        return (str(result.dimension), result.status)

    nc_dim, nc_status = dim_cells(report.min_nc_dim)
    lhv_dim, lhv_status = dim_cells(report.min_lhv_dim)
    return [
        report.label or "",
        _csv_bool(report.nd_valid),
        *_rational_cells(report.inequality_lhs),
        _csv_bool(report.contextual),
        *_rational_cells(report.ncf),
        *_rational_cells(report.cost),
        *_rational_cells(report.q_witness),
        *_rational_cells(report.cov_de),
        format_rational(report.c1_expectation),
        format_rational(report.c2_expectation),
        _csv_bool(report.sdi_contextual),
        *_rational_cells(report.peres_strength),
        nc_dim,
        nc_status,
        _csv_bool(report.supernoncontextual),
        _csv_bool(report.marginal_local),
        lhv_dim,
        lhv_status,
        _csv_bool(report.superlocal),
    ]
