"""Covariance, determinant witness, semi-device-independent check, reports."""

from __future__ import annotations

import importlib
import importlib.util
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import fixtures as fx
from boxlab import cli, decompose, witnesses
from boxlab.boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from boxlab.decompose import is_superlocal
from boxlab.errors import PairNotJoint, ParameterOutOfRange
from boxlab.scenario import (
    bell_correlator,
    bell_marginal,
    bell_single,
    expectation,
    mix_boxes,
    single_marginal,
    validate_box,
)
from boxlab.vertices import enumerate_nc_vertices
from boxlab.witnesses import (
    CSV_COLUMNS,
    HOSTED_PAIRS,
    classify,
    covariance,
    q_witness,
    report_to_csv_row,
    report_to_json_dict,
    sdi_contextuality_check,
)

W_GRID = ("0", "1/6", "1/3", "1/2", "2/3", "5/6", "1")


def flip_alice(box):
    """Relabel both of Alice's outcomes (a -> 1-a in every context)."""
    c0, c1, c2, c3, c4 = box.contexts
    swap4 = lambda row: [row[2], row[3], row[0], row[1]]
    swap8 = lambda row: [row[2], row[3], row[0], row[1],
                         row[6], row[7], row[4], row[5]]
    rows = [swap4(c0), swap8(c1), swap8(c2), swap4(c3), list(c4)]
    return validate_box([[str(p) for p in row] for row in rows])


class TestCovariance:
    @pytest.mark.parametrize("w", W_GRID)
    def test_noisy_family_pair_covariances(self, w):
        weight = Fraction(w)
        box = noisy_peres_box(weight)
        assert covariance(box, ("D", "E")) == -weight
        assert covariance(box, ("A0", "B0")) == weight
        assert covariance(box, ("A1", "B1")) == weight
        assert covariance(box, ("A0", "B1")) == 0
        assert covariance(box, ("A1", "B0")) == 0

    def test_pair_order_does_not_matter(self):
        box = noisy_peres_box("1/3")
        for pair in HOSTED_PAIRS:
            assert covariance(box, pair) == covariance(box, pair[::-1])

    def test_correlated_de_box(self):
        box = fx.build_box(fx.NOISY_THIRD_C4_FLIPPED_TABLE)
        assert covariance(box, ("D", "E")) == Fraction(1, 3)

    @pytest.mark.parametrize(
        "pair",
        [("A0", "A1"), ("A0", "D"), ("D", "B1"), ("B0", "B1"), ("A2", "B0")],
    )
    def test_untracked_pairs_raise(self, pair):
        with pytest.raises(PairNotJoint, match="not tracked"):
            covariance(peres_box(), pair)

    def test_malformed_pair_raises(self):
        with pytest.raises(PairNotJoint, match="expected a pair"):
            covariance(peres_box(), ("A0",))


class TestQWitness:
    @pytest.mark.parametrize("w", W_GRID)
    def test_noisy_family_is_weight_squared(self, w):
        weight = Fraction(w)
        assert q_witness(noisy_peres_box(weight)) == weight * weight

    @pytest.mark.parametrize("w", W_GRID)
    def test_invariant_under_alice_relabelling(self, w):
        weight = Fraction(w)
        relabelled = flip_alice(noisy_peres_box(weight))
        # Flipping Alice negates each pair covariance but not the determinant.
        assert covariance(relabelled, ("A0", "B0")) == -weight
        assert q_witness(relabelled) == weight * weight

    def test_hand_computed_determinant(self):
        box = noisy_peres_box("1/3")
        det = (covariance(box, ("A0", "B0")) * covariance(box, ("A1", "B1"))
               - covariance(box, ("A1", "B0")) * covariance(box, ("A0", "B1")))
        assert q_witness(box) == det == Fraction(1, 9)


def singles_covariance_matrix(marginal):
    """[cov(A_x, B_y)] as the correlator minus the product of singles."""
    return [[bell_correlator(marginal, x, y)
             - bell_single(marginal, "A", x) * bell_single(marginal, "B", y)
             for y in (0, 1)] for x in (0, 1)]


def singles_covariance(box, pair):
    """cov of a hosted pair as the correlator minus the product of singles."""
    if pair == ("D", "E"):
        d0, d1 = single_marginal(box, "D")
        e0, e1 = single_marginal(box, "E")
        return expectation(box, "C4") - (d0 - d1) * (e0 - e1)
    x, y = int(pair[0][1]), int(pair[1][1])
    return singles_covariance_matrix(bell_marginal(box))[x][y]


def seeded_mixtures():
    """Seeded noncontextual vertex mixtures, each also mixed with the
    parity box."""
    rng = random.Random(20261018)
    vertices = enumerate_nc_vertices()
    boxes = []
    for _ in range(30):
        chosen = rng.sample(vertices, rng.randint(1, 5))
        weights = [Fraction(rng.randint(1, 9)) for _ in chosen]
        total = sum(weights)
        nc = mix_boxes([(w / total, box) for w, (_, box) in zip(weights,
                                                              chosen)])
        p = Fraction(rng.randint(1, 19), 20)
        boxes += [nc, mix_boxes([(p, peres_box()), (1 - p, nc)])]
    return boxes


class TestCovarianceMatchesSinglesFormula:
    """Every covariance reads its pair's joint distribution from the hosting
    context; it must equal the correlator minus the product of singles."""

    def test_pair_covariances_in_both_orders(self):
        for box in seeded_mixtures():
            for pair in HOSTED_PAIRS:
                expected = singles_covariance(box, pair)
                assert covariance(box, pair) == expected
                assert covariance(box, pair[::-1]) == expected

    def test_q_witness(self):
        for box in seeded_mixtures():
            C = singles_covariance_matrix(bell_marginal(box))
            assert q_witness(box) == C[0][0] * C[1][1] - C[1][0] * C[0][1]

    def test_product_model(self, monkeypatch):
        marginals = [bell_marginal(box) for box in seeded_mixtures()]
        marginals = [m for m in marginals
                     if decompose.bell_local_membership(m)[0]]
        models = [decompose.product_lhv_terms(m) for m in marginals]
        monkeypatch.setattr(decompose, "_bell_covariance",
                            singles_covariance_matrix)
        assert models == [decompose.product_lhv_terms(m) for m in marginals]
        assert None in models
        assert any(model is not None and len(model) == 2 for model in models)


class TestSdiCheck:
    @pytest.mark.parametrize("w", ["1/6", "1/3", "1"])
    def test_noisy_family_passes(self, w):
        chk = sdi_contextuality_check(noisy_peres_box(w))
        assert chk.passed is True
        assert chk.conditions == {
            "q_witness": True,
            "c1_expectation": True,
            "c2_expectation": True,
            "cov_de": True,
        }
        assert chk.c1_expectation == 1
        assert chk.c2_expectation == 1
        assert chk.cov_de == -Fraction(w)
        assert chk.q_witness == Fraction(w) ** 2

    def test_noise_endpoint_fails(self):
        chk = sdi_contextuality_check(noisy_peres_box(0))
        assert chk.passed is False
        assert chk.conditions["q_witness"] is False
        assert chk.conditions["cov_de"] is False

    def test_separable_sigma_box_passes(self):
        chk = sdi_contextuality_check(fx.build_box(fx.RANK3_SIGMA_PERES_TABLE))
        assert chk.passed is True
        assert chk.q_witness == Fraction(1, 27)
        assert chk.cov_de == Fraction(-1, 3)

    @pytest.mark.parametrize(
        "table, failing",
        [
            (fx.ME_PRODUCT_REFERENCE_TABLE, {"c1_expectation", "c2_expectation"}),
            (fx.RANK2_PERES_TABLE, {"q_witness", "cov_de"}),
            (fx.CC_ROTATED_TABLE, {"q_witness"}),
            (fx.RANK3_RHO_PERES_TABLE, {"cov_de"}),
        ],
        ids=["me-product-reference", "rank2-parity", "cc-rotated", "rank3-rho"],
    )
    def test_failing_boxes_and_their_failing_conditions(self, table, failing):
        chk = sdi_contextuality_check(fx.build_box(table))
        assert chk.passed is False
        assert {k for k, v in chk.conditions.items() if not v} == failing

    def test_correlated_de_box_passes(self):
        chk = sdi_contextuality_check(
            fx.build_box(fx.NOISY_THIRD_C4_FLIPPED_TABLE))
        assert chk.passed is True
        assert chk.cov_de == Fraction(1, 3)

    def test_passing_boxes_have_no_product_model(self):
        passing = [
            noisy_peres_box("1/6"),
            noisy_peres_box("1/3"),
            peres_box(),
            fx.build_box(fx.RANK3_SIGMA_PERES_TABLE),
        ]
        for box in passing:
            assert sdi_contextuality_check(box).passed is True
            flag, _ = is_superlocal(bell_marginal(box))
            assert flag is True


class TestClassify:
    def test_noisy_third_full_report(self):
        rep = classify(noisy_peres_box("1/3"))
        assert rep.label == "noisy-peres W=1/3"
        assert rep.nd_valid is True
        assert rep.inequality_lhs == 3
        assert rep.contextual is False
        assert rep.ncf == 1
        assert rep.cost == 0
        assert rep.q_witness == Fraction(1, 9)
        assert rep.cov_de == Fraction(-1, 3)
        assert rep.c1_expectation == 1
        assert rep.c2_expectation == 1
        assert rep.sdi_contextual is True
        assert all(rep.sdi_conditions.values())
        assert rep.peres_strength == Fraction(2, 3)
        assert rep.min_nc_dim.dimension == 8
        assert rep.min_nc_dim.status == "exact"
        assert rep.supernoncontextual is True
        assert rep.marginal_local is True
        assert rep.min_lhv_dim.dimension == 6
        assert rep.min_lhv_dim.status == "exact"
        assert rep.superlocal is True

    def test_parity_box_report(self):
        rep = classify(peres_box())
        assert rep.inequality_lhs == 5
        assert rep.contextual is True
        assert rep.ncf == 0
        assert rep.cost == 1
        assert rep.q_witness == 1
        assert rep.cov_de == -1
        assert rep.peres_strength == 1
        # No noncontextual model exists, so the dimension slots stay empty.
        assert rep.min_nc_dim is None
        assert rep.supernoncontextual is None
        assert rep.marginal_local is True
        assert rep.min_lhv_dim.dimension == 4
        assert rep.superlocal is True

    def test_skip_dims_leaves_search_fields_empty(self):
        rep = classify(peres_box(), skip_dims=True)
        assert rep.min_nc_dim is None
        assert rep.supernoncontextual is None
        assert rep.min_lhv_dim is None
        # Cheap checks still run.
        assert rep.marginal_local is True
        assert rep.superlocal is True
        assert rep.inequality_lhs == 5

    def test_budget_is_forwarded(self):
        rep = classify(uniform_box(), budget=50)
        assert rep.min_nc_dim.status == "lower-bound-only"

    def test_bad_budget_rejected_without_search(self):
        with pytest.raises(ParameterOutOfRange, match="budget"):
            classify(noise_box(), -5, skip_dims=True)


class TestClassifyCallPaths:
    """The layers a default ``classify`` passes through, looked up where the
    benchmark's tracer wraps them, with the LP counts its known-counts check
    expects."""

    def assert_layers_reached(self, boxes, monkeypatch):
        """Classify ``(name, box)`` pairs in order from empty caches."""
        calls = Counter()
        searching = []

        def count(module, name, around=None):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name, bool(searching)] += 1
                if around is not None:
                    around.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    if around is not None:
                        around.pop()

            monkeypatch.setattr(module, name, counted)

        decompose._cached_dimension.cache_clear()
        decompose._cost_lp.cache_clear()
        count(decompose, "solve")
        count(decompose, "nc_membership")
        count(witnesses, "min_nc_dimension", searching)
        count(witnesses, "bell_local_membership")
        for name, box in boxes:
            calls.clear()
            classify(box)
            # The contextual-fraction LPs of the box and of its marginal, and
            # the Peres-strength LP; both membership tests read the first two.
            assert calls["solve", False] + calls["solve", True] == 3, name
            assert calls["min_nc_dimension", False] == 1, name
            assert calls["nc_membership", True] == 1, name
            assert calls["bell_local_membership", False] == 1, name

    def test_layers_reached(self, monkeypatch):
        # The known-counts order: the uniform box's Bell marginal is the
        # noise box's, so its local search is a dimension-cache hit.
        self.assert_layers_reached(
            [("noise", noise_box()),
             ("noisy-quarter", noisy_peres_box("1/4")),
             ("noisy-third", noisy_peres_box("1/3")),
             ("uniform", uniform_box())], monkeypatch)

    def test_uniform_alone(self, monkeypatch):
        # Here the local search runs, and the LP count is the same.
        self.assert_layers_reached([("uniform", uniform_box())], monkeypatch)

    @staticmethod
    def count_tables(monkeypatch):
        """Cell tables built per (vertex set, distributions), from empty
        caches."""
        tables = Counter()
        build = decompose._cell_table

        def counted(target, vs):
            tables[vs.name, vs.dists(target)] += 1
            return build(target, vs)

        monkeypatch.setattr(decompose, "_cell_table", counted)
        decompose._cached_dimension.cache_clear()
        decompose._cost_lp.cache_clear()
        return tables

    @pytest.mark.parametrize("make", [
        noise_box, lambda: noisy_peres_box("1/4"),
        lambda: noisy_peres_box("1/2"), uniform_box,
    ], ids=["noise", "noisy-quarter", "noisy-half", "uniform"])
    def test_each_table_is_built_once(self, monkeypatch, make):
        # The box's table serves its contextual fraction, Peres strength,
        # membership and search; the marginal's its membership and search.
        tables = self.count_tables(monkeypatch)
        classify(make())
        assert sorted(name for name, _ in tables) == [
            decompose.LHV_VERTEX_SET, decompose.NC_VERTEX_SET]
        assert set(tables.values()) == {1}

    def test_marginal_is_built_once(self, monkeypatch):
        # Q, the local membership test and the local search share one Bell
        # marginal.
        built = []
        build = witnesses.bell_marginal
        monkeypatch.setattr(witnesses, "bell_marginal",
                            lambda box: built.append(box) or build(box))
        box = noisy_peres_box("1/4")
        report = classify(box)
        assert built == [box]
        assert report.q_witness == witnesses.q_witness(box) == Fraction(1, 16)

    def test_sweep_row_builds_one_table(self, monkeypatch):
        tables = self.count_tables(monkeypatch)
        row = cli._sweep_row(Fraction(1, 4), noisy_peres_box("1/4"), None)
        assert row["min_nc_dim"] == "9"
        assert list(tables) == [(decompose.NC_VERTEX_SET,
                                 noisy_peres_box("1/4").contexts)]
        assert set(tables.values()) == {1}

    def test_benchmark_tracer_bindings_resolve(self):
        # The tracer wraps each binding by name where its caller looks it
        # up; a renamed or moved function would fail its installation.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.BINDINGS
        missing = [f"{module}.{attr}"
                   for module, attr, _ in tracing.BINDINGS
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []


class TestReportSerialization:
    def test_json_dict_structure(self):
        data = report_to_json_dict(classify(noisy_peres_box("1/3")))
        assert set(data) == {
            "label", "nd_valid", "inequality_lhs", "contextual",
            "noncontextual_fraction", "cost", "witnesses", "peres_strength",
            "noncontextual_model", "bell_marginal",
        }
        assert data["inequality_lhs"] == "3"
        assert data["noncontextual_fraction"] == "1"
        assert data["cost"] == "0"
        assert data["peres_strength"] == "2/3"
        wit = data["witnesses"]
        assert wit["q_witness"] == "1/9"
        assert wit["cov_DE"] == "-1/3"
        assert wit["sdi_contextual"] is True
        assert wit["sdi_conditions"] == {
            "q_witness": True,
            "c1_expectation": True,
            "c2_expectation": True,
            "cov_de": True,
        }
        model = data["noncontextual_model"]
        assert model["min_dimension"]["dimension"] == 8
        assert model["min_dimension"]["status"] == "exact"
        assert model["min_dimension"]["exact"] is True
        assert model["min_dimension"]["filtered_vertices"] == 16
        assert model["min_dimension"]["nodes_used"] >= 0
        assert model["supernoncontextual"] is True
        marg = data["bell_marginal"]
        assert marg["local"] is True
        assert marg["min_dimension"]["dimension"] == 6
        assert marg["superlocal"] is True

    def test_csv_row_matches_columns(self):
        assert len(CSV_COLUMNS) == 25
        row = report_to_csv_row(classify(noisy_peres_box("1/3")))
        assert row == [
            "noisy-peres W=1/3", "true", "3", "3", "false", "1", "1",
            "0", "0", "1/9", "0.111111111111", "-1/3", "-0.333333333333",
            "1", "1", "true", "2/3", "0.666666666667", "8", "exact",
            "true", "true", "6", "exact", "true",
        ]

    def test_csv_row_blanks_for_missing_dims(self):
        row = report_to_csv_row(classify(peres_box()))
        assert len(row) == len(CSV_COLUMNS)
        by_name = dict(zip(CSV_COLUMNS, row))
        assert by_name["min_nc_dim"] == ""
        assert by_name["min_nc_dim_status"] == ""
        assert by_name["supernoncontextual"] == ""
        assert by_name["inequality_lhs"] == "5"
        assert by_name["peres_strength"] == "1"
        assert by_name["min_lhv_dim"] == "4"
