"""Two-qubit states, observable sets, and exact box generation."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fixtures as fx
from boxlab.boxes import noisy_peres_box
from boxlab.errors import (
    ContextNotCommuting,
    NegativeProbability,
    NoExactRationalization,
    ParameterOutOfRange,
)
from boxlab.quantum import (
    box_from_state,
    check_density,
    check_observables,
    make_observables,
    make_state,
    max_entangled_ket,
    quantum_box,
    rationalize_box,
    verify_peres_identities,
    werner_third_from_products,
    werner_third_product_terms,
)

STATE_FAMILIES = ("max_entangled", "cc", "rank2", "rank3_rho", "rank3_sigma")
OBSERVABLE_SETS = ("peres", "product", "rotated")


class TestStates:
    def test_all_families_are_density_matrices(self):
        for family in STATE_FAMILIES:
            rho = make_state(family)
            assert rho.shape == (4, 4)
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.allclose(rho, rho.conj().T)
            assert min(np.linalg.eigvalsh(rho)) > -1e-12
            assert check_density(rho) is None

    def test_werner_endpoints(self):
        assert np.allclose(make_state("werner", 0), np.eye(4) / 4)
        psi = max_entangled_ket()
        assert np.allclose(make_state("werner", 1), np.outer(psi, psi.conj()))
        assert np.allclose(make_state("werner", 1), make_state("max_entangled"))

    def test_werner_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            make_state("werner")
        with pytest.raises(ParameterOutOfRange):
            make_state("werner", "3/2")
        with pytest.raises(ParameterOutOfRange):
            make_state("unknown-family")

    def test_state_ranks(self):
        expected = {"cc": 2, "rank2": 2, "rank3_rho": 3, "rank3_sigma": 3}
        for family, rank in expected.items():
            eigs = np.linalg.eigvalsh(make_state(family))
            assert int(np.sum(eigs > 1e-10)) == rank

    def test_check_density_rejects_junk(self):
        with pytest.raises(Exception):
            check_density(np.eye(4))  # trace 4


class TestObservables:
    def test_involutions_and_commuting_contexts(self):
        for name in OBSERVABLE_SETS:
            obs = make_observables(name)
            for key in ("A0", "A1", "B0", "B1", "D", "E"):
                matrix = obs.observable(key)
                assert np.allclose(matrix @ matrix, np.eye(4))
                assert np.allclose(matrix, matrix.conj().T)
            assert check_observables(obs) is None

    def test_parity_set_operator_identities(self):
        obs = make_observables("peres")
        a0, a1 = obs.observable("A0"), obs.observable("A1")
        b0, b1 = obs.observable("B0"), obs.observable("B1")
        assert np.allclose(obs.observable("D"), a0 @ b1)
        assert np.allclose(obs.observable("E"), a1 @ b0)

    def test_product_set_reuses_local_operators(self):
        obs = make_observables("product")
        assert np.allclose(obs.observable("D"), obs.observable("B1"))
        assert np.allclose(obs.observable("E"), obs.observable("A1"))
        assert not np.allclose(obs.observable("D"),
                               obs.observable("A0") @ obs.observable("B1"))

    def test_unknown_set_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            make_observables("sideways")


class TestIdentityReport:
    def test_parity_set_all_identities_hold(self):
        report = verify_peres_identities(make_observables("peres"),
                                         max_entangled_ket())
        assert report.c0_fixes_state
        assert report.c3_fixes_state
        assert report.c4_negates_state
        assert report.d_is_a0b1
        assert report.e_is_a1b0
        assert report.all_identities

    def test_product_set_breaks_the_third_identity(self):
        report = verify_peres_identities(make_observables("product"),
                                         max_entangled_ket())
        assert report.c0_fixes_state
        assert report.c3_fixes_state
        assert not report.c4_negates_state
        assert not report.all_state_identities
        assert not report.d_is_a0b1
        assert not report.e_is_a1b0


class TestRawProbabilities:
    def test_shapes_and_normalization(self):
        raw = box_from_state(make_state("werner", "1/2"), make_observables("peres"))
        assert [len(row) for row in raw] == [4, 8, 8, 4, 4]
        for row in raw:
            assert abs(sum(row) - 1) < 1e-12
            assert min(row) > -1e-12

    def test_werner_family_matches_noisy_boxes_before_rationalization(self):
        obs = make_observables("peres")
        for w in ("0", "1/3", "1"):
            raw = box_from_state(make_state("werner", w), obs)
            exact = noisy_peres_box(w)
            for raw_row, exact_row in zip(raw, exact.contexts):
                for got, want in zip(raw_row, exact_row):
                    assert abs(got - float(want)) < 1e-12


class TestExactGeneration:
    @pytest.mark.parametrize("w", ["0", "1/6", "1/3", "1/2", "1"])
    def test_werner_with_parity_observables(self, w):
        box = quantum_box(make_state("werner", w), make_observables("peres"))
        assert box.contexts == noisy_peres_box(w).contexts

    def test_max_entangled_with_product_observables(self):
        box = quantum_box(make_state("max_entangled"), make_observables("product"))
        assert box.contexts == fx.build_box(fx.ME_PRODUCT_QUANTUM_TABLE).contexts

    def test_rank2_with_parity_observables(self):
        box = quantum_box(make_state("rank2"), make_observables("peres"))
        assert box.contexts == fx.build_box(fx.RANK2_PERES_TABLE).contexts

    def test_cc_with_parity_observables(self):
        box = quantum_box(make_state("cc"), make_observables("peres"))
        assert box.contexts == fx.build_box(fx.CC_PERES_TABLE).contexts

    def test_cc_with_rotated_observables(self):
        box = quantum_box(make_state("cc"), make_observables("rotated"))
        assert box.contexts == fx.build_box(fx.CC_ROTATED_TABLE).contexts

    def test_rank3_sigma_with_parity_observables(self):
        box = quantum_box(make_state("rank3_sigma"), make_observables("peres"))
        assert box.contexts == fx.build_box(fx.RANK3_SIGMA_PERES_TABLE).contexts

    def test_rank3_rho_with_parity_observables(self):
        box = quantum_box(make_state("rank3_rho"), make_observables("peres"))
        assert box.contexts == fx.build_box(fx.RANK3_RHO_PERES_TABLE).contexts

    def test_label_is_attached(self):
        box = quantum_box(make_state("cc"), make_observables("peres"), label="cc box")
        assert box.label == "cc box"


class TestRationalization:
    def test_irrational_entry_rejected(self):
        raw = [list(r) for r in box_from_state(make_state("werner", "1/3"),
                                               make_observables("peres"))]
        raw[0][0] = 0.3141592653589793
        raw[0][3] = 1.0 - raw[0][0] - raw[0][1] - raw[0][2]
        with pytest.raises(NoExactRationalization, match="C0"):
            rationalize_box(raw)

    def test_denominator_cap_respected(self):
        raw = box_from_state(make_state("werner", "1/3"), make_observables("peres"))
        with pytest.raises(NoExactRationalization):
            rationalize_box(raw, max_denominator=5)
        box = rationalize_box(raw, max_denominator=12)
        assert box.contexts == noisy_peres_box("1/3").contexts

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0,
                                           -1.0])
    def test_unusable_tolerance_rejected(self, tolerance):
        raw = box_from_state(make_state("werner", "1/10"),
                             make_observables("peres"))
        with pytest.raises(ParameterOutOfRange, match="tolerance"):
            rationalize_box(raw, max_denominator=4, tolerance=tolerance)

    def test_unusable_max_denominator_rejected(self):
        raw = box_from_state(make_state("werner", "1/10"),
                             make_observables("peres"))
        with pytest.raises(ParameterOutOfRange, match="max_denominator"):
            rationalize_box(raw, max_denominator=0)

    # A bool is an int, but no count or tolerance: True must not read as 1.
    @pytest.mark.parametrize("option", ["max_denominator", "tolerance"])
    def test_bool_rationalization_option_rejected(self, option):
        rho, obs = make_state("werner", "1/10"), make_observables("peres")
        with pytest.raises(ParameterOutOfRange, match=option):
            rationalize_box(box_from_state(rho, obs), **{option: True})
        with pytest.raises(ParameterOutOfRange, match=option):
            quantum_box(rho, obs, **{option: True})

    def test_wrong_context_sizes_rejected(self):
        raw = [[0.25] * 4] * 5
        with pytest.raises(NoExactRationalization, match="context sizes"):
            rationalize_box(raw)

    def test_snapped_box_must_validate(self):
        # Every entry snaps to 1/4, but an 8-entry context then sums to 2.
        raw = [[0.25] * size for size in (4, 8, 8, 4, 4)]
        with pytest.raises(NoExactRationalization,
                           match="fails exact validation"):
            rationalize_box(raw)


class TestSeparableConstruction:
    def test_four_product_terms(self):
        terms = werner_third_product_terms()
        assert len(terms) == 4
        for alice, bob in terms:
            for qubit in (alice, bob):
                ket = qubit.ket()
                assert abs(np.vdot(ket, ket) - 1) < 1e-12
                rho = qubit.density()
                assert np.allclose(rho, np.outer(ket, ket.conj()))

    def test_reconstructs_the_werner_mixture(self):
        built = werner_third_from_products()
        target = make_state("werner", "1/3")
        assert np.max(np.abs(built - target)) < 1e-10

    def test_equal_weight_product_mixture(self):
        terms = werner_third_product_terms()
        acc = np.zeros((4, 4), dtype=complex)
        for alice, bob in terms:
            acc += np.kron(alice.density(), bob.density()) / len(terms)
        assert np.max(np.abs(acc - werner_third_from_products())) < 1e-12


def _parity_with(**matrices):
    """The parity observable set with the named matrices replaced."""
    return replace(make_observables("peres"), **matrices)


def _diagonal(*entries):
    return np.diag(np.array(entries, dtype=complex))


class TestValidationChecks:
    """Each validation check of the state, observable, probability and
    identity steps, reached by an input that fails only that check."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: make_state("werner", object()), ParameterOutOfRange,
         "cannot interpret parameter"),
        (lambda: make_state("werner", True), ParameterOutOfRange,
         "cannot interpret parameter True"),
        (lambda: make_state("cc", "1/2"), ParameterOutOfRange,
         "takes no parameter"),
        (lambda: check_density(np.eye(2) / 2), ValueError, "must be 4x4"),
        (lambda: check_density(_diagonal(1, 0, 0, 0) + np.triu(
            np.ones((4, 4)), 1)), ValueError, "not Hermitian"),
        (lambda: check_density(_diagonal(1.5, -0.5, 0, 0)), ValueError,
         "negative eigenvalue"),
        (lambda: check_observables(_parity_with(A0=np.eye(2))), ValueError,
         "observable A0 must be 4x4"),
        (lambda: check_observables(_parity_with(A0=np.triu(np.ones((4, 4))))),
         ValueError, "observable A0 is not Hermitian"),
        (lambda: check_observables(_parity_with(A0=2 * np.eye(4))),
         ValueError, "observable A0 spectrum"),
        # B0 = X (x) 1 does not commute with A0 = Z (x) 1.
        (lambda: check_observables(_parity_with(
            B0=make_observables("peres").A1)), ContextNotCommuting,
         r"\[A0, B0\] != 0 in context C0"),
        # An eigenvalue of -5e-11 passes the density check (1e-10) but
        # gives the outcome 11 of C0 a probability below -1e-12.
        (lambda: box_from_state(_diagonal(0.5 + 5e-11, 0.5, 0, -5e-11),
                                make_observables("peres")),
         NegativeProbability, "below"),
        # Trace 1 + 0.9e-12 passes the density check; clamping the two
        # entries of -0.9e-12 to 0 makes C0 sum to 1 + 2.7e-12.
        (lambda: box_from_state(
            _diagonal(0.5, -0.9e-12, -0.9e-12, 0.5 + 2.7e-12),
            make_observables("peres")), NegativeProbability,
         "context C0 sums to"),
        (lambda: verify_peres_identities(make_observables("peres"),
                                         np.ones(3)), ValueError,
         "length-4 state vector"),
        (lambda: verify_peres_identities(make_observables("peres"),
                                         np.ones(4)), ValueError,
         "unit-norm"),
    ], ids=["parameter-type", "parameter-bool", "fixed-family-parameter",
            "density-shape", "density-hermiticity", "density-eigenvalue",
            "observable-shape", "observable-hermiticity", "observable-spectrum",
            "noncommuting-context", "negative-probability",
            "unnormalized-context", "psi-shape", "psi-norm"])
    def test_check_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
