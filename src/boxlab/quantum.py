"""Two-qubit states, observable assignments, and quantum box generation.

Quantum arithmetic is floating point (numpy, double precision); all polytope
work elsewhere in the package is exact-rational.  numpy is imported on first
quantum use (:func:`_qubit`), so the exact layers and the commands that make
no quantum box neither load nor need it.  :func:`rationalize_box` is
the single bridge between the two worlds: it either lands on an exactly valid
:class:`~boxlab.scenario.Box` or raises :class:`NoExactRationalization`.

Joint outcome probabilities use products of commuting spectral projectors,
``p(outcomes) = Re tr(rho . P1 P2 [P3])`` with ``P = (1 + (-1)^bit O) / 2``
for each observable in context order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BoxValidationError,
    ContextNotCommuting,
    NegativeProbability,
    NoExactRationalization,
    ParameterOutOfRange,
)
from .scenario import (
    Box,
    CONTEXT_IDS,
    CONTEXT_OBSERVABLES,
    CONTEXT_SIZES,
    OUTCOME_ORDERS,
    as_rational,
    validate_box,
)

if TYPE_CHECKING:
    import numpy as np

HERMITIAN_TOL = 1e-12
COMMUTATOR_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
PROBABILITY_TOL = 1e-12
DEFAULT_MAX_DENOMINATOR = 4096
DEFAULT_TOLERANCE = 1e-9

STATE_FAMILIES = ("max_entangled", "werner", "cc", "rank2", "rank3_rho",
                  "rank3_sigma")
OBSERVABLE_SETS = ("peres", "product", "rotated")


@lru_cache(maxsize=None)
def _qubit() -> SimpleNamespace:
    """numpy (``np``), the matrices ``I2``, ``X``, ``Z`` and the unit
    eigenkets of Z (``ket0``, ``ket1``), X (``plus``, ``minus``) and Y
    (``plus_y``, ``minus_y``), made on first use."""
    import numpy as np

    def ket(*amplitudes: complex) -> np.ndarray:
        v = np.array(amplitudes, dtype=complex)
        return v / np.linalg.norm(v)

    return SimpleNamespace(
        np=np, ket=ket,
        I2=np.eye(2, dtype=complex),
        X=np.array([[0, 1], [1, 0]], dtype=complex),
        Z=np.array([[1, 0], [0, -1]], dtype=complex),
        ket0=ket(1, 0), ket1=ket(0, 1), plus=ket(1, 1), minus=ket(1, -1),
        plus_y=ket(1, 1j), minus_y=ket(1, -1j))


@dataclass(frozen=True)
class PureQubit:
    """Single-qubit pure state ``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``."""

    theta: float
    phi: float

    def ket(self) -> np.ndarray:
        np = _qubit().np
        return np.array(
            [math.cos(self.theta / 2),
             complex(math.cos(self.phi), math.sin(self.phi))
             * math.sin(self.theta / 2)],
            dtype=complex,
        )

    def density(self) -> np.ndarray:
        k = self.ket()
        return _qubit().np.outer(k, k.conj())


@dataclass(frozen=True)
class ObservableSet:
    """The six +-1-valued observables, one 4x4 complex matrix each."""

    name: str
    A0: np.ndarray
    A1: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    D: np.ndarray
    E: np.ndarray

    def observable(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def context_matrices(self, context_id: str) -> list[np.ndarray]:
        """Matrices of one context's observables, in outcome-tuple order."""
        return [self.observable(o) for o in CONTEXT_OBSERVABLES[context_id]]


def _proj(ket: np.ndarray) -> np.ndarray:
    return _qubit().np.outer(ket, ket.conj())


def max_entangled_ket() -> np.ndarray:
    """``(|00> + |11>)/sqrt(2)`` in the basis |00>,|01>,|10>,|11>."""
    return _qubit().ket(1, 0, 0, 1)


def _as_float_param(value) -> float:
    if isinstance(value, str):
        return float(as_rational(value))
    if isinstance(value, (Fraction, int, float)):
        return float(value)
    raise ParameterOutOfRange(f"cannot interpret parameter {value!r}")


def make_state(family: str, w=None) -> np.ndarray:
    """Density matrix of a named two-qubit family.

    ``family`` is one of :data:`STATE_FAMILIES`; ``w`` is required (in [0, 1])
    for the one-parameter ``werner`` family and rejected otherwise.
    """
    if family not in STATE_FAMILIES:
        raise ParameterOutOfRange(
            f"unknown state family {family!r}; choose from {STATE_FAMILIES}")
    if family != "werner" and w is not None:
        raise ParameterOutOfRange(f"family {family!r} takes no parameter")
    q = _qubit()
    kron = q.np.kron
    me = _proj(max_entangled_ket())
    if family == "max_entangled":
        rho = me
    elif family == "werner":
        if w is None:
            raise ParameterOutOfRange("werner requires a weight parameter w")
        weight = _as_float_param(w)
        if not 0 <= weight <= 1:
            raise ParameterOutOfRange(f"werner weight {weight} outside [0, 1]")
        rho = weight * me + (1 - weight) * q.np.eye(4) / 4
    elif family == "cc":
        rho = 0.5 * (_proj(kron(q.ket0, q.ket0)) + _proj(kron(q.ket1, q.ket1)))
    elif family == "rank2":
        rho = 0.5 * (_proj(kron(q.ket0, q.ket0)) + _proj(kron(q.plus, q.plus)))
    elif family == "rank3_rho":
        rho = 0.25 * (
            _proj(kron(q.ket0, q.ket0)) + _proj(kron(q.plus, q.plus))
            + _proj(kron(q.ket1, q.ket1)) + _proj(kron(q.minus, q.minus)))
    else:  # rank3_sigma
        # The Y-eigenstate term pairs the +1 eigenvector on the first qubit
        # with its complex conjugate (the -1 eigenvector) on the second.
        # Pairing +1 with +1 would flip the sign of the Y(x)Y correlation and
        # with it the D,E distribution of this family's box under the
        # nonlocal observable set.
        rho = (
            _proj(kron(q.ket0, q.ket0)) + _proj(kron(q.plus, q.plus))
            + _proj(kron(q.plus_y, q.minus_y))) / 3
    check_density(rho)
    return rho


def make_observables(name: str) -> ObservableSet:
    """One of the three named six-observable assignments.

    ``peres``: D and E are the nonlocal products Z(x)X and X(x)Z.
    ``product``: D and E are the local factors 1(x)X and X(x)1.
    ``rotated``: every observable is rotated into the Z+-X basis.
    """
    q = _qubit()
    kron, I2, X, Z = q.np.kron, q.I2, q.X, q.Z
    if name == "peres":
        obs = ObservableSet(
            name,
            A0=kron(Z, I2), A1=kron(X, I2),
            B0=kron(I2, Z), B1=kron(I2, X),
            D=kron(Z, X), E=kron(X, Z),
        )
    elif name == "product":
        obs = ObservableSet(
            name,
            A0=kron(Z, I2), A1=kron(X, I2),
            B0=kron(I2, Z), B1=kron(I2, X),
            D=kron(I2, X), E=kron(X, I2),
        )
    elif name == "rotated":
        zpx = (Z + X) / math.sqrt(2)
        zmx = (Z - X) / math.sqrt(2)
        obs = ObservableSet(
            name,
            A0=kron(zpx, I2), A1=kron(zmx, I2),
            B0=kron(I2, zpx), B1=kron(I2, zmx),
            D=kron(zpx, zmx), E=kron(zmx, zpx),
        )
    else:
        raise ParameterOutOfRange(
            f"unknown observable set {name!r}; choose from {OBSERVABLE_SETS}")
    check_observables(obs)
    return obs


def check_density(rho: np.ndarray) -> None:
    """Assert Hermiticity, unit trace, and positive semidefiniteness."""
    np = _qubit().np
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1) > HERMITIAN_TOL or abs(np.trace(rho).imag) > HERMITIAN_TOL:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(rho)) < -EIGENVALUE_TOL:
        raise ValueError("density matrix has a negative eigenvalue")


def check_observables(obs: ObservableSet) -> None:
    """Assert each observable is a +-1 Hermitian and contexts commute."""
    np = _qubit().np
    for name in ("A0", "A1", "B0", "B1", "D", "E"):
        matrix = obs.observable(name)
        if matrix.shape != (4, 4):
            raise ValueError(f"observable {name} must be 4x4")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL:
            raise ValueError(f"observable {name} is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if np.max(np.abs(np.abs(eigenvalues) - 1)) > EIGENVALUE_TOL:
            raise ValueError(f"observable {name} spectrum is not in {{+1,-1}}")
    for context_id in CONTEXT_IDS:
        matrices = obs.context_matrices(context_id)
        names = CONTEXT_OBSERVABLES[context_id]
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                commutator = matrices[i] @ matrices[j] - matrices[j] @ matrices[i]
                if np.max(np.abs(commutator)) > COMMUTATOR_TOL:
                    raise ContextNotCommuting(
                        f"[{names[i]}, {names[j]}] != 0 in context {context_id}")


def box_from_state(rho: np.ndarray, obs: ObservableSet) -> tuple[tuple[float, ...], ...]:
    """Raw float box (5 per-context tuples, 28 floats) from a state.

    Entries fall below 0 by at most ``PROBABILITY_TOL`` (else
    :class:`NegativeProbability`) and are clamped to [0, 1]; each context sums
    to 1 within ``PROBABILITY_TOL``.
    """
    np = _qubit().np
    check_density(rho)
    check_observables(obs)
    raw: list[tuple[float, ...]] = []
    for context_id in CONTEXT_IDS:
        matrices = obs.context_matrices(context_id)
        projectors = [
            ((np.eye(4) + m) / 2, (np.eye(4) - m) / 2) for m in matrices
        ]
        dist: list[float] = []
        for outcome in OUTCOME_ORDERS[context_id]:
            joint = np.eye(4, dtype=complex)
            for bit, pair in zip(outcome, projectors):
                joint = joint @ pair[bit]
            p = float(np.trace(rho @ joint).real)
            if p < -PROBABILITY_TOL:
                raise NegativeProbability(
                    f"p{outcome}|{context_id} = {p} below -{PROBABILITY_TOL}")
            dist.append(min(1.0, max(0.0, p)))
        total = sum(dist)
        if abs(total - 1) > max(PROBABILITY_TOL, 8 * np.finfo(float).eps):
            raise NegativeProbability(
                f"context {context_id} sums to {total}, expected 1")
        raw.append(tuple(dist))
    return tuple(raw)


def rationalize_box(raw: Sequence[Sequence[float]],
                    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
                    tolerance: float = DEFAULT_TOLERANCE,
                    label: str | None = None) -> Box:
    """Snap a raw float box to exact rationals and validate it exactly.

    Each float becomes the best rational with denominator at most
    ``max_denominator``.  If any entry misses by ``tolerance`` or more, or the
    snapped box fails exact validation (normalization or no-disturbance),
    raises :class:`NoExactRationalization`.  No renormalization is performed.
    A ``max_denominator`` below 1, or a ``tolerance`` that is not positive
    and finite, raises :class:`ParameterOutOfRange`.
    """
    if max_denominator < 1:
        raise ParameterOutOfRange(f"max_denominator must be >= 1")
    if not 0 < tolerance < math.inf:
        raise ParameterOutOfRange(
            f"tolerance must be positive and finite, got {tolerance!r}")
    vectors = [list(dist) for dist in raw]
    if [len(v) for v in vectors] != [CONTEXT_SIZES[c] for c in CONTEXT_IDS]:
        raise NoExactRationalization(
            f"expected context sizes {[CONTEXT_SIZES[c] for c in CONTEXT_IDS]}")
    snapped: list[list[Fraction]] = []
    for context_id, vector in zip(CONTEXT_IDS, vectors):
        row: list[Fraction] = []
        for index, value in enumerate(vector):
            q = Fraction(value).limit_denominator(max_denominator)
            if abs(q - Fraction(value)) >= tolerance:
                raise NoExactRationalization(
                    f"entry {index} of {context_id} ({value!r}) has no rational "
                    f"with denominator <= {max_denominator} within {tolerance}")
            row.append(q)
        snapped.append(row)
    try:
        return validate_box(snapped, label=label)
    except BoxValidationError as err:
        raise NoExactRationalization(
            f"rationalized box fails exact validation: {err}") from err


def quantum_box(rho: np.ndarray, obs: ObservableSet,
                max_denominator: int = DEFAULT_MAX_DENOMINATOR,
                tolerance: float = DEFAULT_TOLERANCE,
                label: str | None = None) -> Box:
    """Convenience composition of :func:`box_from_state` and :func:`rationalize_box`."""
    return rationalize_box(box_from_state(rho, obs),
                           max_denominator=max_denominator,
                           tolerance=tolerance, label=label)


@dataclass(frozen=True)
class PeresIdentityReport:
    """Results of the three state identities and two operator identities.

    The state identities: A0 B0 and A1 B1 each fix the state (+1 eigenvalue)
    and D E negates it (-1 eigenvalue).  The operator identities: D = A0 B1
    and E = A1 B0 as matrices.
    """

    c0_fixes_state: bool
    c3_fixes_state: bool
    c4_negates_state: bool
    d_is_a0b1: bool
    e_is_a1b0: bool

    @property
    def all_state_identities(self) -> bool:
        return self.c0_fixes_state and self.c3_fixes_state and self.c4_negates_state

    @property
    def all_identities(self) -> bool:
        return self.all_state_identities and self.d_is_a0b1 and self.e_is_a1b0


def verify_peres_identities(obs: ObservableSet, psi: np.ndarray) -> PeresIdentityReport:
    """Check the eigenvalue identities of the state-independent argument.

    ``psi`` must be a unit-norm 4-vector.  A true triple of state identities
    combined with the operator identities yields the 2 = -2 sign
    contradiction for deterministic noncontextual value assignments.
    """
    np = _qubit().np
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("psi must be a length-4 state vector")
    if abs(np.linalg.norm(psi) - 1) > HERMITIAN_TOL:
        raise ValueError("psi must be unit-norm")
    return PeresIdentityReport(
        c0_fixes_state=bool(
            np.linalg.norm(obs.A0 @ obs.B0 @ psi - psi) < HERMITIAN_TOL),
        c3_fixes_state=bool(
            np.linalg.norm(obs.A1 @ obs.B1 @ psi - psi) < HERMITIAN_TOL),
        c4_negates_state=bool(
            np.linalg.norm(obs.D @ obs.E @ psi + psi) < HERMITIAN_TOL),
        d_is_a0b1=bool(
            np.max(np.abs(obs.D - obs.A0 @ obs.B1)) < COMMUTATOR_TOL),
        e_is_a1b0=bool(
            np.max(np.abs(obs.E - obs.A1 @ obs.B0)) < COMMUTATOR_TOL),
    )


_THETA_STAR = math.acos(-1 / 3)

#: The four single-qubit states of the tetrahedral frame.
TETRAHEDRAL_QUBITS: tuple[PureQubit, ...] = (
    PureQubit(0.0, 0.0),
    PureQubit(_THETA_STAR, 0.0),
    PureQubit(_THETA_STAR, 2 * math.pi / 3),
    PureQubit(_THETA_STAR, 4 * math.pi / 3),
)


def werner_third_product_terms() -> tuple[tuple[PureQubit, PureQubit], ...]:
    """Four product-state terms averaging to the weight-1/3 Werner state.

    Each term pairs a tetrahedral-frame qubit with its complex conjugate
    (phi -> -phi), which is again a member of the frame: the two pi/3-phased
    states swap and the other two are self-conjugate.  Pairing each state
    with itself instead would flip the sign of the Y(x)Y correlation and miss
    the target state; the conjugate pairing reproduces it exactly.
    """
    return tuple(
        (q, PureQubit(q.theta, -q.phi)) for q in TETRAHEDRAL_QUBITS
    )


def werner_third_from_products() -> np.ndarray:
    """Equal mixture of the four product terms: equals werner(1/3).

    The four explicit product terms are a cardinality-4 separable
    decomposition certificate for the state.
    """
    np = _qubit().np
    rho = np.zeros((4, 4), dtype=complex)
    for qa, qb in werner_third_product_terms():
        rho += np.kron(qa.density(), qb.density())
    rho /= 4
    check_density(rho)
    return rho
