"""Membership, fractions, strengths, and minimal-dimension searches.

Every minimum claimed by the search engine is verified in two independent
directions: the returned certificate is reconstructed with pure Fraction
arithmetic, and (for the headline fixtures) every smaller support is refuted
by the brute-force oracle in ``oracles.py``, which shares no code with the
engine's exact LP or branch-and-bound.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

import fixtures as fx
import golden_dimensions
import oracles
from boxlab import decompose
from boxlab.boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from boxlab.decompose import (
    DEFAULT_BUDGET,
    DimensionResult,
    EXACT,
    LHV_VERTEX_SET,
    LOWER_BOUND_ONLY,
    NC_VERTEX_SET,
    GLOBAL_QUANTUM_DIM,
    LOCAL_QUANTUM_DIM,
    Inconclusive,
    NotDecomposable,
    NotLocal,
    NotNoncontextual,
    bell_affine_dimension,
    bell_local_membership,
    contextual_fraction,
    decomposition_from_json,
    decomposition_to_json,
    is_superlocal,
    is_supernoncontextual,
    lhv_decomposition,
    min_lhv_dimension,
    min_nc_dimension,
    nc_affine_dimension,
    nc_decomposition,
    nc_membership,
    peres_strength,
    product_lhv_terms,
    product_terms_marginal,
)
from boxlab.errors import BoxlabError, BoxParseError, ParameterOutOfRange
from boxlab.exactlp import (INFEASIBLE, LinearProgram, LPResult,
                            _bareiss_step, solve)
from boxlab.quantum import make_observables, make_state, quantum_box
from boxlab.scenario import (BELL_SETTINGS, bell_marginal, mix_boxes,
                             validate_bell_marginal)
from boxlab.vertices import det_box, enumerate_local_vertices, enumerate_nc_vertices
from boxlab.witnesses import classify

W_GRID = ("0", "1/6", "1/3", "1/2", "2/3", "5/6", "1")

# A no-signaling marginal outside the local polytope (perfect correlation on
# three setting pairs, perfect anticorrelation on the fourth).
PR_MARGINAL_ROWS = [
    ["1/2", "0", "0", "1/2"],
    ["1/2", "0", "0", "1/2"],
    ["1/2", "0", "0", "1/2"],
    ["0", "1/2", "1/2", "0"],
]


def nc_columns():
    return [(vid, oracles.box_vector(box)) for vid, box in enumerate_nc_vertices()]


def lhv_columns():
    return [
        (lid, oracles.marginal_vector(marg))
        for lid, marg in enumerate_local_vertices()
    ]


def leftover_after(box, weighted_vertices):
    """Entrywise remainder of box minus a subconvex vertex combination."""
    total = list(box.entries())
    for vid, weight in weighted_vertices:
        for i, v in enumerate(det_box(vid).entries()):
            total[i] -= weight * v
    return total


def assert_exact_certificate(result, box, expected_dim):
    """Certificate of an exact dimension result reconstructs the box."""
    assert result.status == EXACT
    assert result.dimension == expected_dim
    dec = result.decomposition
    assert dec is not None
    assert dec.vertex_set == NC_VERTEX_SET
    assert dec.size == expected_dim
    assert sum(w for _, w in dec.terms) == 1
    assert all(w > 0 for _, w in dec.terms)
    assert dec.reconstruct().contexts == box.contexts


class TestMembership:
    def test_parity_box_is_outside(self):
        inside, dec = nc_membership(peres_box())
        assert inside is False
        assert dec is None

    def test_relabelled_parity_box_is_outside(self):
        inside, dec = nc_membership(fx.build_box(fx.PERES_RELABELLED_TABLE))
        assert inside is False
        assert dec is None

    @pytest.mark.parametrize(
        "box",
        [
            noise_box(),
            uniform_box(),
            noisy_peres_box("1/3"),
            fx.build_box(fx.PERES_RELABELLED_C4_CORR_TABLE),
        ],
        ids=["noise", "uniform", "noisy-third", "relabelled-c4-corr"],
    )
    def test_members_come_with_reconstructing_certificates(self, box):
        inside, dec = nc_membership(box)
        assert inside is True
        assert dec.vertex_set == NC_VERTEX_SET
        assert sum(w for _, w in dec.terms) == 1
        assert dec.reconstruct().contexts == box.contexts

    def test_contextual_mixture_is_outside(self):
        inside, dec = nc_membership(noisy_peres_box("1/2"))
        assert inside is False
        assert dec is None

    def test_local_membership_certificate(self):
        marginal = bell_marginal(noisy_peres_box("1/3"))
        inside, dec = bell_local_membership(marginal)
        assert inside is True
        assert dec.vertex_set == LHV_VERTEX_SET
        assert dec.reconstruct().dists == marginal.dists

    def test_pr_marginal_is_outside(self):
        inside, dec = bell_local_membership(validate_bell_marginal(PR_MARGINAL_ROWS))
        assert inside is False
        assert dec is None


class TestDecompositionFactories:
    def test_noise_model_reconstructs(self):
        dec = nc_decomposition(fx.build_terms(fx.NOISE_MODEL_4), noise_box())
        assert dec.size == 4
        assert dec.reconstruct().contexts == noise_box().contexts

    def test_noise_model_as_listed_fails(self):
        with pytest.raises(ValueError, match="does not reconstruct"):
            nc_decomposition(fx.build_terms(fx.NOISE_MODEL_4_LISTED), noise_box())

    def test_sixteen_term_model_reconstructs_flipped_box_only(self):
        terms = fx.build_terms(fx.NOISY_THIRD_MODEL_16_LISTED)
        flipped = fx.build_box(fx.NOISY_THIRD_C4_FLIPPED_TABLE)
        dec = nc_decomposition(terms, flipped)
        assert dec.size == 16
        with pytest.raises(ValueError, match="does not reconstruct"):
            nc_decomposition(terms, noisy_peres_box("1/3"))

    @pytest.mark.parametrize(
        "terms, table",
        [
            (fx.ME_PRODUCT_MODEL_8, fx.ME_PRODUCT_REFERENCE_TABLE),
            (fx.RANK2_MODEL_7, fx.RANK2_PERES_TABLE),
            (fx.CC_PERES_MODEL_4, fx.CC_PERES_TABLE),
            (fx.CC_ROTATED_MODEL_6, fx.CC_ROTATED_TABLE),
        ],
        ids=["me-product-8", "rank2-7", "cc-parity-4", "cc-rotated-6"],
    )
    def test_quoted_models_reconstruct_their_tables(self, terms, table):
        target = fx.build_box(table)
        dec = nc_decomposition(fx.build_terms(terms), target)
        assert dec.size == len(terms)
        assert dec.reconstruct().contexts == target.contexts

    def test_weights_must_sum_to_one(self):
        bad = fx.build_terms(fx.NOISE_MODEL_4[:3])
        with pytest.raises(ValueError, match="sum"):
            nc_decomposition(bad, noise_box())

    def test_weights_must_be_positive(self):
        terms = fx.build_terms(fx.NOISE_MODEL_4)
        bad = (
            (terms[0][0], Fraction(1, 2)),
            (terms[1][0], Fraction(3, 4)),
            (terms[2][0], Fraction(-1, 4)),
        )
        with pytest.raises(ValueError, match="nonpositive"):
            nc_decomposition(bad, noise_box())

    def test_duplicate_vertices_rejected(self):
        vid = fx.build_terms(fx.NOISE_MODEL_4)[0][0]
        bad = ((vid, Fraction(1, 2)), (vid, Fraction(1, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            nc_decomposition(bad, noise_box())

    def test_single_local_vertex_model(self):
        from boxlab.vertices import parse_local_label

        target = fx.build_marginal(fx.LOCAL_DET_TABLES["0110"])
        dec = lhv_decomposition(
            ((parse_local_label("0110"), Fraction(1)),), target
        )
        assert dec.vertex_set == LHV_VERTEX_SET
        assert dec.reconstruct().dists == target.dists
        other = fx.build_marginal(fx.LOCAL_DET_TABLES["0000"])
        with pytest.raises(ValueError, match="marginal"):
            lhv_decomposition(((parse_local_label("0110"), Fraction(1)),), other)


class TestDecompositionJson:
    def test_round_trip(self):
        dec = nc_decomposition(fx.build_terms(fx.NOISE_MODEL_4), noise_box())
        data = decomposition_to_json(dec)
        assert all(set(entry) == {"vertex", "weight"} for entry in data)
        assert all(
            isinstance(entry["vertex"], str) and isinstance(entry["weight"], str)
            for entry in data
        )
        back = decomposition_from_json(data, noise_box())
        assert back.terms == dec.terms
        assert back.vertex_set == NC_VERTEX_SET

    def test_from_json_validates_target(self):
        dec = nc_decomposition(fx.build_terms(fx.NOISE_MODEL_4), noise_box())
        data = decomposition_to_json(dec)
        with pytest.raises(ValueError, match="does not reconstruct"):
            decomposition_from_json(data, peres_box())

    def test_from_json_rejects_duplicates(self):
        data = [
            {"vertex": "(0000)(00)", "weight": "1/2"},
            {"vertex": "(0000)(00)", "weight": "1/2"},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            decomposition_from_json(data, noise_box())

    # Each validation failure, reached from outside JSON, is a library error
    # (and still a ValueError).
    @pytest.mark.parametrize("weights, message", [
        (("-1/2", "3/2"), "nonpositive weight"),
        (("2",), "weights sum to 2, expected 1"),
        (("1/2", "1/2"), "duplicate vertex"),
        (("1",), "does not reconstruct"),
    ], ids=["nonpositive", "wrong-sum", "duplicate", "no-reconstruction"])
    @pytest.mark.parametrize("target, vertices", [
        (noise_box(), ("(0000)(00)", "(0000)(01)")),
        (bell_marginal(noise_box()), ("0000", "0001")),
    ], ids=["box", "marginal"])
    def test_validation_errors_are_boxlab_errors(self, weights, message,
                                                 target, vertices):
        if message == "duplicate vertex":
            vertices = vertices[:1] * 2
        data = [{"vertex": v, "weight": w} for v, w in zip(vertices, weights)]
        with pytest.raises(BoxlabError, match=message) as raised:
            decomposition_from_json(data, target)
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("data, message", [
        ({"vertex": "(0000)(00)", "weight": "1"}, "must be a list"),
        ("(0000)(00)", "must be a list"),
        ([{"vertex": "(0000)(00)"}], "'vertex' and 'weight' keys"),
        ([{"weight": "1"}], "'vertex' and 'weight' keys"),
        ([5], "'vertex' and 'weight' keys"),
    ], ids=["object", "string", "no-weight", "no-vertex", "non-object-term"])
    def test_from_json_rejects_malformed_input(self, data, message):
        with pytest.raises(BoxParseError, match=message):
            decomposition_from_json(data, noise_box())

    @pytest.mark.parametrize("label", [5, None])
    @pytest.mark.parametrize("target", [
        noise_box(), bell_marginal(noise_box())], ids=["box", "marginal"])
    def test_from_json_rejects_non_string_labels(self, target, label):
        with pytest.raises(BoxParseError, match="bad .*vertex label"):
            decomposition_from_json([{"vertex": label, "weight": "1"}], target)


class TestContextualFraction:
    def test_parity_box_is_fully_contextual(self):
        cf = contextual_fraction(peres_box())
        assert cf.ncf == 0
        assert cf.cost == 1
        assert cf.witness == ()

    def test_relabelled_parity_box_is_fully_contextual(self):
        cf = contextual_fraction(fx.build_box(fx.PERES_RELABELLED_TABLE))
        assert cf.ncf == 0
        assert cf.cost == 1
        assert cf.witness == ()

    def test_noncontextual_box_witness_reconstructs_it(self):
        box = fx.build_box(fx.PERES_RELABELLED_C4_CORR_TABLE)
        cf = contextual_fraction(box)
        assert cf.cost == 0
        assert cf.ncf == 1
        assert sum(w for _, w in cf.witness) == 1
        assert all(rest == 0 for rest in leftover_after(box, cf.witness))

    @pytest.mark.parametrize("w", W_GRID)
    def test_noisy_family_cost_grid(self, w):
        weight = Fraction(w)
        box = noisy_peres_box(weight)
        cf = contextual_fraction(box)
        expected_cost = max(Fraction(0), (3 * weight - 1) / 2)
        assert cf.cost == expected_cost
        assert cf.ncf == 1 - expected_cost
        assert sum(wt for _, wt in cf.witness) == cf.ncf
        assert all(wt > 0 for _, wt in cf.witness)
        # The witness is a subconvex noncontextual part the box dominates.
        assert all(rest >= 0 for rest in leftover_after(box, cf.witness))

    def test_cost_zero_iff_member(self):
        for w in W_GRID:
            box = noisy_peres_box(w)
            inside, _ = nc_membership(box)
            assert (contextual_fraction(box).cost == 0) == inside


class TestPeresStrength:
    def test_parity_box_strength_is_one(self):
        ps = peres_strength(peres_box())
        assert ps.value == 1
        assert ps.residual is None

    def test_noise_box_strength_is_half(self):
        ps = peres_strength(noise_box())
        assert ps.value == Fraction(1, 2)
        rebuilt = mix_boxes(
            [(ps.value, peres_box()), (1 - ps.value, ps.residual.reconstruct())]
        )
        assert rebuilt.contexts == noise_box().contexts

    @pytest.mark.parametrize("w", W_GRID[:-1])
    def test_noisy_family_strength_grid(self, w):
        weight = Fraction(w)
        box = noisy_peres_box(weight)
        ps = peres_strength(box)
        assert ps.value == (1 + weight) / 2
        residual_box = ps.residual.reconstruct()
        # The residual is forced once the strength is fixed: it equals the
        # entrywise combination 2*noise - parity, independent of the weight.
        noise_entries = noise_box().entries()
        parity_entries = peres_box().entries()
        expected = [2 * n - p for n, p in zip(noise_entries, parity_entries)]
        assert list(residual_box.entries()) == expected
        rebuilt = mix_boxes([(ps.value, peres_box()), (1 - ps.value, residual_box)])
        assert rebuilt.contexts == box.contexts

    def test_separable_state_box_strength_third(self):
        box = quantum_box(make_state("rank3_sigma"), make_observables("peres"))
        ps = peres_strength(box)
        assert ps.value == Fraction(1, 3)
        expected = fx.build_box(fx.RANK3_SIGMA_RESIDUAL_TABLE)
        assert ps.residual.reconstruct().contexts == expected.contexts

    def test_noncontextual_box_strength_zero(self):
        box = fx.build_box(fx.PERES_RELABELLED_C4_CORR_TABLE)
        ps = peres_strength(box)
        assert ps.value == 0
        assert ps.residual.reconstruct().contexts == box.contexts

    def test_relabelled_parity_box_not_decomposable(self):
        with pytest.raises(NotDecomposable, match="not a mixture"):
            peres_strength(fx.build_box(fx.PERES_RELABELLED_TABLE))

    def test_residual_is_checked_against_the_box(self, monkeypatch):
        # Shifting weight between two residual vertices keeps p and a valid
        # decomposition of the shifted mix, but not of (box - p*parity)/(1-p).
        real_solve = decompose.solve

        def shifted(lp):
            result = real_solve(lp)
            if not lp.eq_rows:
                return result    # the contextual-fraction LP it starts from
            x = list(result.x)
            a, b = [j for j in range(len(x) - 1) if x[j] > 0][:2]
            delta = min(x[a], x[b]) / 2
            x[a] -= delta
            x[b] += delta
            return LPResult(result.status, result.value, tuple(x))

        monkeypatch.setattr(decompose, "solve", shifted)
        with pytest.raises(ValueError, match="does not reconstruct"):
            peres_strength(noise_box())


PERES_FIXTURE_TABLES = [
    name for name in dir(fx)
    if name.endswith("_TABLE") and len(getattr(fx, name)) == 5
]


def reference_peres_strength(box):
    """The Peres-strength LP as one equation per cell, of all 28, where the
    box or the parity box is positive; a cell where only the parity box is
    positive forces p = 0.  Returns ``(p, residual terms)``, the terms None
    when p = 1, or None when the LP is infeasible."""
    parity = peres_box()
    table = decompose._cell_table(box, decompose._NC)
    cell_index = {cell: r for r, cell in enumerate(table.cells)}
    m = len(table.ids)
    rows, rhs = [], []
    for i in range(5):
        for j, p in enumerate(box.contexts[i]):
            pp = parity.contexts[i][j]
            if p == 0 and pp == 0:
                continue
            r = cell_index.get((i, j))
            rows.append([pp] + [Fraction(r is not None and (bits >> r) & 1)
                                for bits in table.colbits])
            rhs.append(p)
    rows.append([Fraction(1)] * (m + 1))
    rhs.append(Fraction(1))
    result = solve(LinearProgram(
        n=m + 1, objective=[Fraction(1)] + [Fraction(0)] * m, maximize=True,
        eq_rows=rows, eq_rhs=rhs))
    if result.status == INFEASIBLE:
        return None
    ps = result.value
    if ps == 1:
        return ps, None
    terms = tuple((table.ids[j], result.x[j + 1] / (1 - ps))
                  for j in range(m) if result.x[j + 1] > 0)
    return ps, terms


def parity_outside_support(box):
    return any(q > 0 and p == 0 for q, p in
               zip(peres_box().entries(), box.entries()))


def sparse_mixture(rng, extra=None):
    """A few seeded deterministic vertices, plus ``extra`` when given, with
    random positive weights."""
    vertices = enumerate_nc_vertices()
    parts = [box for _, box in rng.sample(vertices, rng.randint(1, 5))]
    if extra is not None:
        parts.append(extra)
    weights = [Fraction(rng.randint(1, 9)) for _ in parts]
    total = sum(weights)
    return mix_boxes([(w / total, box) for w, box in zip(weights, parts)])


SPARSE_MIXTURES = (
    [("vertices", seed, None) for seed in range(8)]
    + [("parity", seed, "PERES_TABLE") for seed in range(8)]
    + [("relabelled", seed, "PERES_RELABELLED_TABLE") for seed in range(8)])


# Boxes with parity mass outside their support: the seeded vertex and
# relabelled-parity mixtures, and the fixtures where it holds.
PARITY_OFF_SUPPORT = [
    *((f"{kind}-{seed}", lambda kind=kind, seed=seed, extra=extra:
       sparse_mixture(random.Random(f"{kind}-{seed}"),
                      None if extra is None
                      else fx.build_box(getattr(fx, extra))))
      for kind, seed, extra in SPARSE_MIXTURES if kind != "parity"),
    *((name, lambda name=name: fx.build_box(getattr(fx, name)))
      for name in PERES_FIXTURE_TABLES
      if parity_outside_support(fx.build_box(getattr(fx, name)))),
]


def marginal_mixture(rng):
    """A few seeded local deterministic boxes and the PR marginal, with
    random positive weights."""
    parts = [m.dists for _, m in rng.sample(enumerate_local_vertices(),
                                            rng.randint(1, 4))]
    parts.append(validate_bell_marginal(PR_MARGINAL_ROWS).dists)
    weights = [Fraction(rng.randint(1, 9)) for _ in parts]
    total = sum(weights)
    return validate_bell_marginal(
        [[sum(w * part[i][j] for w, part in zip(weights, parts)) / total
          for j in range(4)] for i in range(4)])


class TestMembershipMatchesOracle:
    """Membership, read from the contextual-fraction LP, against the scipy
    LP over every vertex, and against the contextual fraction itself."""

    @pytest.mark.parametrize("name", PERES_FIXTURE_TABLES)
    def test_member_iff_cost_is_zero(self, name):
        box = fx.build_box(getattr(fx, name))
        assert nc_membership(box)[0] == (contextual_fraction(box).cost == 0)

    # W_GRID holds the boundary W = 1/3; these sit just inside and outside.
    @pytest.mark.parametrize("w", [*W_GRID, "99/300", "101/300"])
    def test_noisy_family(self, w):
        self.assert_matches(noisy_peres_box(w))

    @pytest.mark.parametrize("kind, seed, extra", SPARSE_MIXTURES)
    def test_sparse_mixtures(self, kind, seed, extra):
        rng = random.Random(f"{kind}-{seed}")
        self.assert_matches(sparse_mixture(
            rng, None if extra is None else fx.build_box(getattr(fx, extra))))

    def test_pr_marginal_and_its_mixtures(self):
        marginals = [validate_bell_marginal(PR_MARGINAL_ROWS)]
        marginals += [marginal_mixture(random.Random(seed))
                      for seed in range(12)]
        verdicts = [self.assert_local_matches(m) for m in marginals]
        assert verdicts[0] is False and set(verdicts[1:]) == {True, False}

    def assert_matches(self, box):
        inside, dec = nc_membership(box)
        assert inside == oracles.lp_member(nc_columns(),
                                           oracles.box_vector(box))
        assert (dec is not None) == inside
        self.assert_local_matches(bell_marginal(box))

    @staticmethod
    def assert_local_matches(marginal):
        local, dec = bell_local_membership(marginal)
        assert local == oracles.lp_member(lhv_columns(),
                                          oracles.marginal_vector(marginal))
        assert (dec is not None) == local
        return local


class TestPeresStrengthMatchesReference:
    """The cell-table LP against the 28-cell LP it replaced: equal
    value, equal residual box and equal NotDecomposable.  The residual terms
    are a vertex solution, with positive weights on affinely independent
    vertices, but not always the reference's: the cell-table LP continues
    from the contextual-fraction LP's optimal basis and may end on another
    optimal vertex (on CC_PERES_TABLE and RANK3_SIGMA_PERES_TABLE it does).
    The relabelled seeds 1 and 4 are NotDecomposable."""

    @staticmethod
    def assert_matches(box):
        expected = reference_peres_strength(box)
        if expected is None:
            with pytest.raises(NotDecomposable, match="not a mixture"):
                peres_strength(box)
            return
        ps = peres_strength(box)
        value, terms = expected
        assert ps.value == value
        if terms is None:
            assert ps.residual is None
            return
        rebuilt = decompose._mix(terms, decompose._NC)
        assert ps.residual.reconstruct().contexts == rebuilt.contexts
        assert all(w > 0 for _, w in ps.residual.terms)
        vertices = dict(enumerate_nc_vertices())
        points = [oracles.box_vector(vertices[vid])
                  for vid in ps.residual.support()]
        assert oracles.exact_affine_rank(points) == len(points) - 1

    @pytest.mark.parametrize("name", PERES_FIXTURE_TABLES)
    def test_fixtures(self, name):
        self.assert_matches(fx.build_box(getattr(fx, name)))

    @pytest.mark.parametrize("w", W_GRID)
    def test_noisy_grid(self, w):
        self.assert_matches(noisy_peres_box(w))

    @pytest.mark.parametrize("kind, seed, extra", SPARSE_MIXTURES)
    def test_sparse_vertex_mixtures(self, kind, seed, extra):
        rng = random.Random(f"{kind}-{seed}")
        box = sparse_mixture(
            rng, None if extra is None else fx.build_box(getattr(fx, extra)))
        # Vertices, alone or with the relabelled parity box, leave parity
        # mass outside the support; a parity component covers it.
        assert parity_outside_support(box) == (kind != "parity")
        self.assert_matches(box)


def recorded_peres_strength(box, monkeypatch, before=None):
    """``(answer, programs)``: ``peres_strength(box)`` from an empty memo,
    after ``contextual_fraction(before)`` when given, with the programs it
    solves; the answer is None when the box is NotDecomposable."""
    decompose._cost_lp.cache_clear()
    if before is not None:
        contextual_fraction(before)
    programs = []

    def recording(lp):
        programs.append(lp)
        return solve(lp)

    with monkeypatch.context() as mp:
        mp.setattr(decompose, "solve", recording)
        try:
            return peres_strength(box), programs
        except NotDecomposable:
            return None, programs


class TestCostLpMemo:
    """Each target gets one cell table and one contextual-fraction LP,
    whichever question comes first: the memo holds a box and its Bell
    marginal at once, keyed by their distributions alone."""

    @staticmethod
    def record_programs(monkeypatch):
        programs = []

        def recording(lp):
            programs.append(lp)
            return solve(lp)

        decompose._cost_lp.cache_clear()
        monkeypatch.setattr(decompose, "solve", recording)
        decompose._cached_dimension.cache_clear()
        return programs

    def test_alternating_box_and_marginal(self, monkeypatch):
        box = noisy_peres_box("1/4")
        marginal = bell_marginal(box)
        programs = self.record_programs(monkeypatch)
        for _ in range(3):
            assert nc_membership(box)[0]
            assert bell_local_membership(marginal)[0]
            assert contextual_fraction(box).ncf == 1
            assert nc_membership(box.with_label("relabelled"))[0]
        assert peres_strength(box).value == Fraction(5, 8)
        assert min_lhv_dimension(marginal, budget=0).nodes_used == 0
        # The box's LP (20 support cells), the marginal's (16), then the
        # Peres-strength LP continued from the box's.
        assert [(len(lp.le_rows), lp.start is not None)
                for lp in programs] == [(20, False), (16, False), (0, True)]

    def test_memo_stays_bounded(self):
        decompose._cost_lp.cache_clear()
        for i in range(50):
            box = noisy_peres_box(Fraction(i, 49))
            contextual_fraction(box)
            bell_local_membership(bell_marginal(box))
        info = decompose._cost_lp.cache_info()
        assert info.maxsize == 2 and info.currsize <= 2


class TestPeresStrengthContinuation:
    """The Peres-strength program continues from the contextual-fraction
    LP's final tableau: it gets the cold program's status and value, and
    the same answer whatever the one-table memo holds.  A box that leaves
    parity mass outside its support solves no Peres-strength program."""

    @pytest.mark.parametrize("name", PERES_FIXTURE_TABLES)
    def test_answer_does_not_depend_on_the_memo(self, name, monkeypatch):
        box = fx.build_box(getattr(fx, name))
        runs = [recorded_peres_strength(box, monkeypatch, before)
                for before in (None, box, uniform_box())]
        answers = [answer for answer, _ in runs]
        assert answers[1] == answers[0] and answers[2] == answers[0]
        # The memo now holds the box's own LP, which continuing left as it
        # was.
        assert recorded_peres_strength(box, monkeypatch, box)[0] == answers[0]
        # Only a memo hit spares the contextual-fraction LP, also on a table
        # with no candidate vertex (the parity box and its relabelling).
        # Parity mass outside the support forces p = 0, read from that LP.
        expected = [1, 0, 1] if parity_outside_support(box) else [2, 1, 2]
        assert [len(programs) for _, programs in runs] == expected

    @pytest.mark.parametrize("kind, seed, extra", SPARSE_MIXTURES)
    def test_sparse_mixtures_match_cold_solves(self, kind, seed, extra,
                                               monkeypatch):
        rng = random.Random(f"{kind}-{seed}")
        box = sparse_mixture(
            rng, None if extra is None else fx.build_box(getattr(fx, extra)))
        _, programs = recorded_peres_strength(box, monkeypatch)
        if kind != "parity":
            # Vertices, alone or with the relabelled parity box, leave
            # parity mass outside the support: only the contextual-fraction
            # program is solved.
            (cost,) = programs
            assert cost.le_rows
            return
        cost, lp = programs
        assert cost.le_rows and lp.start == solve(cost)
        assert len(lp.eq_rows) == len(cost.le_rows) and lp.n == cost.n + 1
        continued, cold = solve(lp), solve(replace(lp, start=None))
        assert (continued.status, continued.value) == (cold.status,
                                                       cold.value)

    @pytest.mark.parametrize("name, make", PARITY_OFF_SUPPORT,
                             ids=[name for name, _ in PARITY_OFF_SUPPORT])
    def test_parity_mass_off_the_support_forces_zero(self, name, make,
                                                     monkeypatch):
        box = make()
        assert parity_outside_support(box)
        answer, programs = recorded_peres_strength(box, monkeypatch)
        assert [lp.start for lp in programs] == [None]
        inside, dec = nc_membership(box)
        if answer is None:
            assert not inside
        else:
            assert inside and answer == (0, dec)
        # classify solves the box's LP and its marginal's, and no third.
        decompose._cost_lp.cache_clear()
        del programs[:]
        with monkeypatch.context() as mp:
            mp.setattr(decompose, "solve",
                       lambda lp: programs.append(lp) or solve(lp))
            report = classify(box, skip_dims=True)
        assert len(programs) == 2
        assert report.peres_strength == (None if answer is None else 0)


NC_DIMENSION_CASES = [
    ("noisy-third", lambda: noisy_peres_box("1/3"), 8),
    ("me-product-reference", lambda: fx.build_box(fx.ME_PRODUCT_REFERENCE_TABLE), 8),
    ("rank2-parity", lambda: fx.build_box(fx.RANK2_PERES_TABLE), 7),
    ("cc-rotated", lambda: fx.build_box(fx.CC_ROTATED_TABLE), 6),
    ("cc-parity", lambda: fx.build_box(fx.CC_PERES_TABLE), 4),
    ("noise", noise_box, 4),
    ("rank3-rho", lambda: fx.build_box(fx.RANK3_RHO_PERES_TABLE), 7),
    ("rank3-sigma", lambda: fx.build_box(fx.RANK3_SIGMA_PERES_TABLE), 8),
]


class TestMinNcDimension:
    @pytest.mark.parametrize(
        "make_box, expected",
        [(make, dim) for _, make, dim in NC_DIMENSION_CASES],
        ids=[name for name, _, _ in NC_DIMENSION_CASES],
    )
    def test_exact_minima_with_certificates(self, make_box, expected):
        box = make_box()
        result = min_nc_dimension(box)
        assert_exact_certificate(result, box, expected)
        # Support filtering agrees with the independent filter.
        support = oracles.support_columns(nc_columns(), oracles.box_vector(box))
        assert result.filtered_count == len(support)
        support_ids = {key for key, _ in support}
        assert all(vid in support_ids for vid in result.decomposition.support())

    def test_caratheodory_bound(self):
        cap = nc_affine_dimension() + 1
        for _, make_box, dim in NC_DIMENSION_CASES:
            assert dim <= cap
            assert min_nc_dimension(make_box()).dimension <= cap

    def test_parity_box_raises(self):
        with pytest.raises(NotNoncontextual, match="outside the noncontextual"):
            min_nc_dimension(peres_box())

    def test_uniform_box_is_lower_bound_only(self):
        result = min_nc_dimension(uniform_box())
        assert result.status == LOWER_BOUND_ONLY
        assert result.dimension == 7
        assert result.decomposition is None
        assert result.filtered_count == 64
        assert result.nodes_used == 0

    @pytest.mark.parametrize("budget", [-5, 5 / 2, True])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        with pytest.raises(ParameterOutOfRange, match="budget"):
            min_nc_dimension(noise_box(), budget)

    def test_zero_budget_is_valid(self):
        result = min_nc_dimension(noise_box(), 0)
        assert (result.status, result.dimension, result.nodes_used) == (
            LOWER_BOUND_ONLY, 3, 0)

    def test_tiny_budget_reports_lower_bound(self):
        result = min_nc_dimension(noisy_peres_box("1/3"), budget=10)
        assert result.status == LOWER_BOUND_ONLY
        assert result.decomposition is None
        assert result.dimension <= 8
        assert result.filtered_count == 16

    def test_repeated_search_is_a_memo_hit(self, monkeypatch):
        assert decompose._cached_dimension.cache_info().maxsize == 1024
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        decompose._cached_dimension.cache_clear()
        decompose._cost_lp.cache_clear()
        monkeypatch.setattr(decompose, "nc_membership",
                            counted(nc_membership))
        monkeypatch.setattr(decompose, "solve", counted(solve))
        first = min_nc_dimension(noise_box(), 2_000)
        assert set(calls) == {"nc_membership", "solve"}
        calls.clear()
        # The memo is keyed by the distributions, not the label.
        assert min_nc_dimension(noise_box().with_label("again"),
                                2_000) is first
        assert calls == []


NC_REFUTATION_CASES = [
    ("noisy-third", lambda: noisy_peres_box("1/3"), 8),
    ("me-product-reference", lambda: fx.build_box(fx.ME_PRODUCT_REFERENCE_TABLE), 8),
    ("rank2-parity", lambda: fx.build_box(fx.RANK2_PERES_TABLE), 7),
    ("cc-rotated", lambda: fx.build_box(fx.CC_ROTATED_TABLE), 6),
    ("cc-parity", lambda: fx.build_box(fx.CC_PERES_TABLE), 4),
    ("noise", noise_box, 4),
]


class TestExhaustiveRefutation:
    """Brute-force confirmation that no smaller support exists."""

    @pytest.mark.parametrize(
        "make_box, minimum",
        [(make, dim) for _, make, dim in NC_REFUTATION_CASES],
        ids=[name for name, _, _ in NC_REFUTATION_CASES],
    )
    def test_no_smaller_nc_support(self, make_box, minimum):
        box = make_box()
        target = oracles.box_vector(box)
        support = oracles.support_columns(nc_columns(), target)
        checked, _ = oracles.refute_all_supports_below(support, target, minimum - 1)
        assert checked > 0
        assert min_nc_dimension(box).dimension == minimum

    @pytest.mark.parametrize(
        "make_marginal, minimum",
        [
            (lambda: bell_marginal(noisy_peres_box("1/3")), 6),
            (lambda: bell_marginal(fx.build_box(fx.RANK2_PERES_TABLE)), 5),
            (lambda: bell_marginal(uniform_box()), 4),
            (lambda: bell_marginal(peres_box()), 4),
        ],
        ids=["noisy-third", "rank2-parity", "uniform", "parity"],
    )
    def test_no_smaller_lhv_support(self, make_marginal, minimum):
        marginal = make_marginal()
        target = oracles.marginal_vector(marginal)
        support = oracles.support_columns(lhv_columns(), target)
        checked, _ = oracles.refute_all_supports_below(support, target, minimum - 1)
        assert checked > 0
        assert min_lhv_dimension(marginal).dimension == minimum

    def test_oracle_rejects_a_claimed_minimum_that_is_too_high(self):
        # A mixture of two vertices refutes a claimed minimum above 2, under
        # ``python -O`` too.
        (_, first), (_, second) = enumerate_nc_vertices()[:2]
        target = oracles.box_vector(mix_boxes([("1/3", first),
                                               ("2/3", second)]))
        support = oracles.support_columns(nc_columns(), target)
        with pytest.raises(AssertionError, match="reproduces the target"):
            oracles.refute_all_supports_below(support, target, 2)


LHV_DIMENSION_CASES = [
    ("noisy-third", lambda: bell_marginal(noisy_peres_box("1/3")), 6),
    ("rank2-parity", lambda: bell_marginal(fx.build_box(fx.RANK2_PERES_TABLE)), 5),
    ("rank3-rho", lambda: bell_marginal(fx.build_box(fx.RANK3_RHO_PERES_TABLE)), 6),
    ("uniform", lambda: bell_marginal(uniform_box()), 4),
    ("parity", lambda: bell_marginal(peres_box()), 4),
]


class TestMinLhvDimension:
    @pytest.mark.parametrize(
        "make_marginal, expected",
        [(make, dim) for _, make, dim in LHV_DIMENSION_CASES],
        ids=[name for name, _, _ in LHV_DIMENSION_CASES],
    )
    def test_exact_minima_with_certificates(self, make_marginal, expected):
        marginal = make_marginal()
        result = min_lhv_dimension(marginal)
        assert result.status == EXACT
        assert result.dimension == expected
        dec = result.decomposition
        assert dec.vertex_set == LHV_VERTEX_SET
        assert dec.size == expected
        assert sum(w for _, w in dec.terms) == 1
        assert dec.reconstruct().dists == marginal.dists
        assert expected <= bell_affine_dimension() + 1

    def test_pr_marginal_raises(self):
        with pytest.raises(NotLocal, match="outside the local"):
            min_lhv_dimension(validate_bell_marginal(PR_MARGINAL_ROWS))


class TestSupernoncontextuality:
    @pytest.mark.parametrize(
        "make_box, flag",
        [
            (lambda: noisy_peres_box("1/3"), True),
            (lambda: fx.build_box(fx.ME_PRODUCT_REFERENCE_TABLE), True),
            (lambda: fx.build_box(fx.RANK2_PERES_TABLE), True),
            (lambda: fx.build_box(fx.CC_ROTATED_TABLE), True),
            (lambda: fx.build_box(fx.CC_PERES_TABLE), False),
            (noise_box, False),
        ],
        ids=[
            "noisy-third",
            "me-product-reference",
            "rank2-parity",
            "cc-rotated",
            "cc-parity",
            "noise",
        ],
    )
    def test_threshold_at_global_quantum_dimension(self, make_box, flag):
        box = make_box()
        verdict, result = is_supernoncontextual(box)
        assert verdict is flag
        assert verdict == (result.dimension > GLOBAL_QUANTUM_DIM)
        assert result.status == EXACT

    def test_uniform_box_decided_from_lower_bound(self):
        verdict, result = is_supernoncontextual(uniform_box())
        assert verdict is True
        assert result.status == LOWER_BOUND_ONLY
        assert result.dimension > GLOBAL_QUANTUM_DIM

    def test_tiny_budget_is_inconclusive(self):
        with pytest.raises(Inconclusive, match="budget"):
            is_supernoncontextual(noisy_peres_box("1/3"), budget=10)


class TestSuperlocality:
    @pytest.mark.parametrize(
        "make_marginal, flag, dim",
        [
            (lambda: bell_marginal(noisy_peres_box("1/3")), True, 6),
            (lambda: bell_marginal(peres_box()), True, 4),
            (lambda: bell_marginal(fx.build_box(fx.RANK3_RHO_PERES_TABLE)), True, 6),
            (lambda: bell_marginal(fx.build_box(fx.RANK2_PERES_TABLE)), False, 5),
            (lambda: bell_marginal(uniform_box()), False, 4),
        ],
        ids=["noisy-third", "parity", "rank3-rho", "rank2-parity", "uniform"],
    )
    def test_flags_and_dimensions(self, make_marginal, flag, dim):
        marginal = make_marginal()
        verdict, result = is_superlocal(marginal)
        assert verdict is flag
        assert result.dimension == dim
        # Superlocality is exactly the absence of a two-level product model.
        terms = product_lhv_terms(marginal)
        assert (terms is None) == flag
        assert LOCAL_QUANTUM_DIM == 2

    @pytest.mark.parametrize(
        "make_marginal, n_terms",
        [
            (lambda: bell_marginal(uniform_box()), 1),
            (lambda: bell_marginal(fx.build_box(fx.RANK2_PERES_TABLE)), 2),
        ],
        ids=["uniform", "rank2-parity"],
    )
    def test_product_models_reconstruct(self, make_marginal, n_terms):
        marginal = make_marginal()
        terms = product_lhv_terms(marginal)
        assert len(terms) == n_terms
        assert sum(t.weight for t in terms) == 1
        for term in terms:
            for bias in (*term.alice, *term.bob):
                assert -1 <= bias <= 1
        assert product_terms_marginal(terms).dists == marginal.dists

    def test_every_rank_one_marginal_has_a_two_value_model(self):
        # Seeded marginals with covariance lam * u v^T, lam up to the
        # largest that keeps every cell nonnegative, so many have a zero
        # cell; singles include the deterministic +-1.
        rng = random.Random(20261019)

        def rational(low=-1):
            den = rng.randint(1, 6)
            return Fraction(rng.randint(low * den, den), den)

        seen = Counter()
        for _ in range(400):
            alpha, beta = (rational(), rational()), (rational(), rational())
            u, v = (rational(), rational()), (rational(), rational())
            # ab * C_xy >= -(1 + a alpha_x)(1 + b beta_y) on every cell.
            caps = [(1 + a * alpha[x]) * (1 + b * beta[y])
                    / abs(u[x] * v[y])
                    for x, y in BELL_SETTINGS for a in (1, -1)
                    for b in (1, -1) if a * b * u[x] * v[y] < 0]
            lam = min(caps, default=Fraction(1)) * rational(low=0)
            marginal = validate_bell_marginal(
                [[((1 + a * alpha[x]) * (1 + b * beta[y])
                   + a * b * lam * u[x] * v[y]) / 4
                  for a in (1, -1) for b in (1, -1)]
                 for x, y in BELL_SETTINGS])
            terms = product_lhv_terms(marginal)
            assert terms is not None
            assert all(t.weight > 0 for t in terms)
            assert sum(t.weight for t in terms) == 1
            for term in terms:
                for bias in (*term.alice, *term.bob):
                    assert -1 <= bias <= 1
            assert product_terms_marginal(terms).dists == marginal.dists
            seen[len(terms), 0 in itertools.chain(*marginal.dists)] += 1
        # One- and two-term models, with and without a zero cell.
        assert set(seen) == {(1, False), (1, True), (2, False), (2, True)}


class TestAffineDimensions:
    def test_nc_affine_dimension_matches_exact_rank(self):
        vectors = [oracles.box_vector(box) for _, box in enumerate_nc_vertices()]
        assert nc_affine_dimension() == 17
        assert oracles.exact_affine_rank(vectors) == 17
        assert oracles.float_affine_rank(vectors) == 17

    def test_bell_affine_dimension_matches_exact_rank(self):
        vectors = [
            oracles.marginal_vector(marg)
            for _, marg in enumerate_local_vertices()
        ]
        assert bell_affine_dimension() == 8
        assert oracles.exact_affine_rank(vectors) == 8
        assert oracles.float_affine_rank(vectors) == 8

    # Entries beyond 0/1 give Bareiss pivots other than +-1; nine vectors of
    # length 7 have dependent differences.
    @pytest.mark.parametrize("seed", range(4))
    def test_affine_rank_of_random_integer_vectors(self, seed):
        rng = random.Random(seed)
        vectors = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)]
        for _ in range(4):
            a, b = rng.sample(vectors, 2)
            c = rng.randint(-2, 2)
            vectors.append([x + c * y for x, y in zip(a, b)])
        assert (decompose._affine_rank(vectors)
                == oracles.exact_affine_rank(vectors))

    def test_default_budget_is_positive(self):
        assert DEFAULT_BUDGET > 0


# ---------------------------------------------------------------------------
# The subset search: pinned outputs, the reference walk, the span filter
# ---------------------------------------------------------------------------

NOISY_QUARTER_SUPPORT = ("(0000)(00) (0001)(11) (0010)(10) (0011)(01) "
                         "(0101)(00) (0110)(01) (0111)(10) (1010)(11) "
                         "(1111)(11)")

# (box, nodes_used, support labels) of the default-budget NC search; the
# uniform box (0 nodes, lower bound 7) is pinned in TestMinNcDimension.
PINNED_NC_SEARCHES = [
    ("noise", noise_box, 47, "(0000)(00) (0001)(11) (0110)(01) (0111)(10)"),
    ("noisy-quarter", lambda: noisy_peres_box("1/4"), 38_854,
     NOISY_QUARTER_SUPPORT),
    ("noisy-third", lambda: noisy_peres_box("1/3"), 28_987,
     "(0000)(00) (0010)(10) (0011)(01) (0101)(00) (0110)(01) (0111)(10) "
     "(1010)(11) (1111)(11)"),
]

# Large coprime (Mersenne prime) denominators for mixture weights, so the
# span filter's lcm scaling meets big integers.
MERSENNE_PRIMES = tuple(2 ** p - 1 for p in
                        (13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279))

# LHV mixtures stop at 10 terms: on 11 and 12 the reference walk alone takes
# seconds (thousands of Fraction solves).
REFERENCE_MIXTURES = [
    *((decompose._NC, size) for size in range(2, 13)),
    *((decompose._LHV, size) for size in range(2, 11)),
]


def labels(result):
    return " ".join(vid.label for vid in result.decomposition.support())


def cell_system(table):
    """The support-independent parts of the cell equations: each candidate's
    column of 0/1 cell indicators and the right-hand side, the target's cell
    values.  Every table holds a row of ones in the span of its cell rows,
    so weights that solve them sum to 1."""
    n_rows = len(table.rhs)
    columns = [[(bits >> r) & 1 for r in range(n_rows)]
               for bits in table.colbits]
    return columns, list(table.rhs)


def fraction_solve(columns, rhs):
    """The unique q with sum_j q[j] * columns[j] == rhs, or None.

    Gauss-Jordan over Fractions, one equation at a time, stopping at the
    first inconsistent one; None also when the columns are dependent.  The
    signs of q are left to the caller."""
    k = len(columns)
    pivots = []  # (column, equation scaled to 1 there)
    for r, b in enumerate(rhs):
        row = [col[r] for col in columns] + [b]
        for pc, prow in pivots:
            f = row[pc]
            if f:
                row = [x - f * y if y else x for x, y in zip(row, prow)]
        pc = next((c for c in range(k) if row[c]), None)
        if pc is None:
            if row[k]:
                return None
            continue
        if row[pc] != 1:
            inv = 1 / Fraction(row[pc])
            row = [x * inv for x in row]
        for i, (qc, prow) in enumerate(pivots):
            f = prow[pc]
            if f:
                pivots[i] = (qc, [x - f * y if y else x
                                  for x, y in zip(prow, row)])
        pivots.append((pc, row))
    if len(pivots) < k:
        return None
    q = [None] * k
    for pc, prow in pivots:
        q[pc] = prow[k]
    return q


def reference_search(table, budget, target, vs):
    """The level walk without the span filter: every covering subset, in
    ``itertools.combinations`` order, goes to the Fraction solve."""
    n = len(table.ids)
    columns, rhs = cell_system(table)
    cap = min(n, oracles.exact_affine_rank(columns) + 1)
    nodes = 0
    floor = max(Counter(i for i, _ in table.cells).values())
    for k in range(floor, cap + 1):
        if nodes + comb(n, k) > budget:
            return DimensionResult(k - 1, LOWER_BOUND_ONLY, None, n, nodes)
        for subset in itertools.combinations(range(n), k):
            nodes += 1
            mask = 0
            for j in subset:
                mask |= table.colbits[j]
            if mask != table.full_mask:
                continue
            q = fraction_solve([columns[j] for j in subset], rhs)
            if q is not None and all(w >= 0 for w in q):
                terms = [(table.ids[j], w) for j, w in zip(subset, q)]
                return DimensionResult(
                    k, EXACT, decompose._decomposition(terms, target, vs),
                    n, nodes)
    raise AssertionError("no decomposition within the Caratheodory cap")


def level_boundaries(table, limit):
    """The budgets, up to ``limit``, that hold exactly the supports of the
    sizes from the coverage floor to some size k up to the Caratheodory
    cap: at each, size k is the largest that fits, so a search that
    refutes it returns a lower bound."""
    n = len(table.ids)
    cap = min(n, oracles.exact_affine_rank(cell_system(table)[0]) + 1)
    total, budgets = 0, []
    floor = max(Counter(i for i, _ in table.cells).values())
    for k in range(floor, cap + 1):
        total += comb(n, k)
        if total > limit:
            break
        budgets.append(total)
    return budgets


def oracle_supports(table, k):
    """The covering supports of ``k`` candidates, in combinations order,
    whose Fraction solve gives unique weights, all ``>= 0``, with those
    weights."""
    columns, rhs = cell_system(table)
    for subset in itertools.combinations(range(len(table.ids)), k):
        mask = 0
        for j in subset:
            mask |= table.colbits[j]
        if mask != table.full_mask:
            continue
        q = fraction_solve([columns[j] for j in subset], rhs)
        if q is not None and all(w >= 0 for w in q):
            yield subset, q


def random_mixture(rng, vs, size, big):
    """A mixture of ``size`` distinct random vertices of ``vs``; with
    ``big``, every weight but the last has a distinct Mersenne-prime
    denominator."""
    ids = rng.sample([vid for vid, _ in vs.vertices()], size)
    if big:
        weights = [Fraction(rng.randint(1, d // (2 * size)), d)
                   for d in MERSENNE_PRIMES[:size - 1]]
    else:
        weights = [Fraction(rng.randint(1, 9), 10 * size)
                   for _ in range(size - 1)]
    weights.append(1 - sum(weights))
    return decompose._mix(list(zip(ids, weights)), vs)


class TestPinnedSearches:
    @pytest.mark.parametrize(
        "make_box, nodes, support",
        [case[1:] for case in PINNED_NC_SEARCHES],
        ids=[case[0] for case in PINNED_NC_SEARCHES],
    )
    def test_nc_nodes_and_support(self, make_box, nodes, support):
        result = min_nc_dimension(make_box())
        assert result.status == EXACT
        assert result.nodes_used == nodes
        assert labels(result) == support

    def test_lhv_on_noisy_quarter_marginal(self):
        result = min_lhv_dimension(bell_marginal(noisy_peres_box("1/4")))
        assert (result.dimension, result.status, result.nodes_used) == (
            6, EXACT, 6_729)
        assert labels(result) == "0000 0001 0100 0101 1010 1111"

    def test_span_filter_spares_the_solves(self, monkeypatch):
        # Counts the exact confirmations.  Without the modular span test all
        # 9,170 covering supports of this search would reach them; with it
        # 161 do.  A timing test would not reliably notice the test going
        # missing.
        calls = []
        weights = decompose._SpanFilter.weights

        def counting(span, subset):
            calls.append(subset)
            return weights(span, subset)

        decompose._cached_dimension.cache_clear()
        monkeypatch.setattr(decompose._SpanFilter, "weights", counting)
        result = min_nc_dimension(noisy_peres_box("1/4"))
        assert labels(result) == NOISY_QUARTER_SUPPORT
        assert 0 < len(calls) <= 200


class TestGoldenDimensions:
    # golden_dimensions.json was written by the bottom-up level walk that
    # the top-down search replaced; every field of every result, and every
    # exception, must stay the same.
    def test_every_search_matches_the_record(self, monkeypatch):
        monkeypatch.delenv("BOXLAB_BUDGET", raising=False)
        decompose._cached_dimension.cache_clear()
        recorded = json.loads(golden_dimensions.GOLDEN_PATH.read_text())
        computed = golden_dimensions.golden_entries()
        assert len(computed) == len(recorded)
        for got, expected in zip(computed, recorded):
            assert got == expected


class TestSearchMatchesReferenceWalk:
    @pytest.mark.parametrize("vs, size", REFERENCE_MIXTURES,
                             ids=[f"{vs.name}-{size}"
                                  for vs, size in REFERENCE_MIXTURES])
    def test_random_mixtures(self, vs, size):
        rng = random.Random(f"{vs.name}-{size}")
        target = random_mixture(rng, vs, size, big=size % 2 == 1)
        table = decompose._cell_table(target, vs)
        for budget in (0, 2_000, *level_boundaries(table, 200_000), 200_000):
            expected = reference_search(table, budget, target, vs)
            assert decompose._min_subset_search(
                target, budget, vs) == expected, budget

    @pytest.mark.parametrize("vs, target, max_size", [
        (decompose._NC, noise_box(), 3),
        (decompose._LHV, bell_marginal(noisy_peres_box("1/4")), 3),
        (decompose._LHV, random_mixture(random.Random(7), decompose._LHV,
                                        6, big=True), 5),
    ], ids=["noise", "noisy-quarter-marginal", "big-denominators"])
    def test_span_filter_refutes_exactly_the_rank_failures(
            self, vs, target, max_size):
        assert_span_filter_matches_ranks(decompose._cell_table(target, vs),
                                         max_size)

    # Vertex columns rarely give a Bareiss pivot other than +-1; dense
    # random 0/1 columns often do.  On these two seeds a wrong divisor or a
    # skipped rescaling turns a verdict.
    @pytest.mark.parametrize("seed", [2, 7])
    def test_span_filter_on_random_dense_columns(self, seed):
        rng = random.Random(seed)
        colbits = tuple(rng.randrange(1, 1 << 8) for _ in range(10))
        weights = [Fraction(rng.randint(1, 50), 200) for _ in range(3)]
        weights.append(1 - sum(weights))
        mixed = [colbits[j] for j in rng.sample(range(10), 4)]
        assert_span_filter_matches_ranks(
            bits_table(colbits, mixed, weights, 8), 5)

    # The weights' denominator 10 is finer than the target's 5, so the scaled
    # weights are not integers: the integer back-substitution must divide by
    # the pivot determinant (-2 here), not merely by the scale.
    def test_weights_finer_than_the_target(self):
        colbits = (62, 18, 25, 38, 10)
        weights = [Fraction(3, 10), Fraction(1, 10), Fraction(1, 5),
                   Fraction(3, 10), Fraction(1, 10)]
        table = bits_table(colbits, colbits, weights, 6)
        span = decompose._SpanFilter(table)
        assert span.weights((0, 1, 2, 3, 4)) == weights
        assert_span_filter_matches_ranks(table, 5)


def assert_levels_only_grow(table):
    """The lemma behind the top-down search, checked by brute force: from
    the coverage floor to the Caratheodory cap, once a size has a covering
    support with independent columns and weights ``>= 0``, every larger
    size has one; at the least such size every such support has all
    weights positive."""
    columns, _ = cell_system(table)
    cap = min(len(table.ids), oracles.exact_affine_rank(columns) + 1)
    floor = max(Counter(i for i, _ in table.cells).values())
    sizes = range(floor, cap + 1)
    feasible = [next(oracle_supports(table, k), None) is not None
                for k in sizes]
    assert feasible == sorted(feasible) and feasible[-1], feasible
    least = sizes[feasible.index(True)]
    assert all(all(w > 0 for w in q)
               for _, q in oracle_supports(table, least))


# The mixtures whose reference walk at budget 200,000 is exact: on the
# others (NC mixtures of 7 or more vertices, 24 to 49 candidates) the
# brute force would walk millions of supports.
EXACT_REFERENCE_MIXTURES = [(vs, size) for vs, size in REFERENCE_MIXTURES
                            if vs is decompose._LHV or size <= 6]


class TestLevelsOnlyGrow:
    @pytest.mark.parametrize("vs, size", EXACT_REFERENCE_MIXTURES,
                             ids=[f"{vs.name}-{size}"
                                  for vs, size in EXACT_REFERENCE_MIXTURES])
    def test_random_mixtures(self, vs, size):
        target = random_mixture(random.Random(f"{vs.name}-{size}"), vs,
                                size, big=size % 2 == 1)
        assert_levels_only_grow(decompose._cell_table(target, vs))

    @pytest.mark.parametrize("make_box", [
        make for _, make, _ in NC_DIMENSION_CASES],
        ids=[name for name, _, _ in NC_DIMENSION_CASES])
    @pytest.mark.parametrize("vs", [decompose._NC, decompose._LHV],
                             ids=["box", "marginal"])
    def test_fixture_boxes(self, make_box, vs):
        box = make_box()
        target = box if vs is decompose._NC else bell_marginal(box)
        assert_levels_only_grow(decompose._cell_table(target, vs))


def assert_lp_bound_within_rank(target, vs, name=None):
    """The fact the search's only upper bound rests on: the
    contextual-fraction LP's solution is basic, so its U positive weights
    sit on independent columns, and U is at most the rank of all the
    candidate columns."""
    table, lp = decompose._cost_lp(vs.dists(target), vs)
    columns, _ = cell_system(table)
    positive = [column for column, q in zip(columns, lp.x) if q > 0]
    assert oracles.exact_rank(positive) == len(positive), name
    assert len(positive) <= oracles.exact_rank(columns), name


class TestLpBoundWithinRank:
    def test_golden_targets(self):
        for name, kind, target in golden_dimensions.golden_targets():
            vs = decompose._NC if kind == "NC" else decompose._LHV
            assert_lp_bound_within_rank(target, vs, (name, kind))

    @pytest.mark.parametrize("vs, size", REFERENCE_MIXTURES,
                             ids=[f"{vs.name}-{size}"
                                  for vs, size in REFERENCE_MIXTURES])
    def test_random_mixtures(self, vs, size):
        target = random_mixture(random.Random(f"{vs.name}-{size}"), vs,
                                size, big=size % 2 == 1)
        assert_lp_bound_within_rank(target, vs)


class TestRankSizedSpanFilter:
    # Cells 0 and 1 hold the same entry in every candidate, so a row basis
    # chosen from the candidates alone drops one of them; the target
    # differs there, so only a basis chosen with the target column sees
    # that (1/2, 0, 1/2) is no mixture of 011, 100 and 111 (candidates 0
    # and 1 would otherwise pass with weights 1/2, 1/2).
    def test_target_outside_the_span_refutes_every_subset(self):
        table = bits_table((0b011, 0b100, 0b111), (0b001, 0b100),
                           [Fraction(1, 2), Fraction(1, 2)], 3)
        span = decompose._SpanFilter(table._replace(full_mask=0))
        # The target's row is kept: its column is outside the candidates'
        # span, so the system's rank is one more than theirs.
        assert len(span.target) == 4
        for k in range(1, 4):
            assert list(span.spanning(k)) == [], k
            for subset in itertools.combinations(range(3), k):
                assert span.weights(subset) is None, subset
        assert_span_filter_matches_ranks(table, 3)

    # The cell system has one row per support cell.
    @pytest.mark.parametrize("vs, target, rows, rank", [
        (decompose._NC, noisy_peres_box("1/4"), 20, 10),
        (decompose._LHV, bell_marginal(noisy_peres_box("1/4")), 16, 9),
    ], ids=["noisy-quarter", "noisy-quarter-marginal"])
    def test_vectors_have_rank_length(self, vs, target, rows, rank):
        table = decompose._cell_table(target, vs)
        span = decompose._SpanFilter(table)
        assert len(table.rhs) == rows
        assert oracles.exact_rank(cell_system(table)[0]) == rank
        assert {len(column) for column in span.columns} == {rank}
        assert len(span.target) == rank


def dense_columns_table(seed):
    """The cell table of ``test_span_filter_on_random_dense_columns``: ten
    random 0/1 columns over 8 cells, the target a mixture of four."""
    rng = random.Random(seed)
    colbits = tuple(rng.randrange(1, 1 << 8) for _ in range(10))
    weights = [Fraction(rng.randint(1, 50), 200) for _ in range(3)]
    weights.append(1 - sum(weights))
    mixed = [colbits[j] for j in rng.sample(range(10), 4)]
    return bits_table(colbits, mixed, weights, 8)


# The mixtures of ``TestSearchMatchesReferenceWalk`` whose weights have
# Mersenne-prime denominators.
MERSENNE_MIXTURES = [(vs, size) for vs, size in REFERENCE_MIXTURES
                     if size % 2 == 1]


def unpack(span, v):
    """The entries of ``span``'s packed vector ``v``, lane by lane."""
    return [span._lane(v, span.width * i) for i in range(len(span.target))]


def assert_packed_steps_match_lists(span, steps):
    """Every recorded packed step unpacks, lane for lane, to the list step
    on the unpacked vectors: the new pivot, the target's image and every
    later candidate, of which exactly the nonzero ones that cover the
    step's mask stay (a step is skipped only when none covers it).  Each
    vector also packs back to itself, so no lane outgrew the width."""
    for live, pos, target, d, need, step in steps:
        if step is None:
            assert not any(span._colbits[j] & need == need
                           for j, _ in live[pos + 1:])
            continue
        p, image, later = step
        row = unpack(span, live[pos][1])
        pc = next(c for c, x in enumerate(row) if x)
        assert p == row[pc]
        pivot = (pc, p, d, row)
        assert unpack(span, image) == _bareiss_step(unpack(span, target),
                                                    pivot)
        expected = []
        for j, u in live[pos + 1:]:
            reduced = _bareiss_step(unpack(span, u), pivot)
            if span._colbits[j] & need == need and any(reduced):
                expected.append((j, reduced))
        assert [(j, unpack(span, u)) for j, u in later] == expected
        for v in (image, *(u for _, u in later)):
            assert span.pack(unpack(span, v)) == v


class TestPackedDescent:
    @staticmethod
    def record(monkeypatch):
        """Record every packed step of the descents that follow."""
        steps = []
        extend = decompose._SpanFilter._extend

        def recording(span, live, pos, target, d, need):
            result = extend(span, live, pos, target, d, need)
            steps.append((live, pos, target, d, need, result))
            return result

        monkeypatch.setattr(decompose._SpanFilter, "_extend", recording)
        return steps

    @pytest.mark.parametrize("seed", [2, 7])
    def test_packed_steps_on_random_dense_columns(self, monkeypatch, seed):
        steps = self.record(monkeypatch)
        table = dense_columns_table(seed)
        span = decompose._SpanFilter(table)
        assert unpack(span, span._packed_target) == [
            t % decompose._SPAN_PRIME for t in span.target]
        assert [unpack(span, v) for v in span._packed] == span.columns
        uncovered = decompose._SpanFilter(table._replace(full_mask=0))
        for k in range(1, 6):
            list(uncovered.spanning(k))
            list(span.spanning(k))
        assert steps
        assert_packed_steps_match_lists(span, steps)

    @pytest.mark.parametrize("vs, size", MERSENNE_MIXTURES,
                             ids=[f"{vs.name}-{size}"
                                  for vs, size in MERSENNE_MIXTURES])
    def test_packed_steps_on_mersenne_mixtures(self, monkeypatch, vs, size):
        steps = self.record(monkeypatch)
        target = random_mixture(random.Random(f"{vs.name}-{size}"), vs,
                                size, big=True)
        table = decompose._cell_table(target, vs)
        span = decompose._SpanFilter(table._replace(full_mask=0))
        for k in range(1, 4):
            list(span.spanning(k))
        assert unpack(span, span._packed_target) == [
            t % decompose._SPAN_PRIME for t in span.target]
        # The search's own steps, with its cover masks and its filter.
        decompose._min_subset_search(target, 200_000, vs)
        assert_packed_steps_match_lists(span, steps)

    # With a prime of 2 or 3 many supports pass the modular test without
    # spanning the target; the exact confirmation must refute every one.
    @pytest.mark.parametrize("vs, size", REFERENCE_MIXTURES,
                             ids=[f"{vs.name}-{size}"
                                  for vs, size in REFERENCE_MIXTURES])
    def test_tiny_primes_match_the_reference_walk(self, monkeypatch, vs,
                                                  size):
        rng = random.Random(f"{vs.name}-{size}")
        target = random_mixture(rng, vs, size, big=size % 2 == 1)
        table = decompose._cell_table(target, vs)
        for budget in (0, 2_000, 200_000):
            expected = reference_search(table, budget, target, vs)
            for prime in (2, 3):
                monkeypatch.setattr(decompose, "_SPAN_PRIME", prime)
                assert decompose._min_subset_search(
                    target, budget, vs) == expected, (budget, prime)

    def test_tiny_prime_sends_false_passes_to_the_confirmation(
            self, monkeypatch):
        calls = []
        weights = decompose._SpanFilter.weights

        def counting(span, subset):
            q = weights(span, subset)
            calls.append(q is None)
            return q

        monkeypatch.setattr(decompose._SpanFilter, "weights", counting)
        monkeypatch.setattr(decompose, "_SPAN_PRIME", 2)
        box = noisy_peres_box("1/4")
        result = decompose._min_subset_search(box, 200_000, decompose._NC)
        assert (labels(result), result.nodes_used) == (NOISY_QUARTER_SUPPORT,
                                                       38_854)
        assert sum(calls) > 0

    @staticmethod
    def record_sizes(monkeypatch):
        """Record the size of every descent the search opens."""
        sizes = []
        spanning = decompose._SpanFilter.spanning

        def recording(span, k):
            sizes.append(k)
            return spanning(span, k)

        monkeypatch.setattr(decompose._SpanFilter, "spanning", recording)
        return sizes

    # The search opens the level below the lowest one known to hold.  On
    # W=1/4 the LP's decomposition has 10 terms: size 9 holds with its first
    # support's weights all positive, and size 8 is refuted.  On the W=1/3
    # marginal the first support of size 8 with weights >= 0 has 5 nonzero
    # ones, so the search jumps to 5, refutes it and descends size 6 to its
    # first support.  On the rank-2 box size 6 is refuted, and size 7, the
    # LP's, is descended.
    @pytest.mark.parametrize("target, vs, sizes, dimension", [
        (noisy_peres_box("1/4"), decompose._NC, [9, 8], 9),
        (bell_marginal(noisy_peres_box("1/3")), decompose._LHV, [8, 5, 6], 6),
        (fx.build_box(fx.RANK2_PERES_TABLE), decompose._NC, [6, 7], 7),
    ], ids=["noisy-quarter", "noisy-third-marginal", "rank2-parity"])
    def test_sizes_opened(self, monkeypatch, target, vs, sizes, dimension):
        opened = self.record_sizes(monkeypatch)
        table = decompose._cell_table(target, vs)
        result = decompose._min_subset_search(target, 200_000, vs)
        assert opened == sizes
        assert (result.dimension, result.status) == (dimension, EXACT)
        assert result == reference_search(table, 200_000, target, vs)

    # A zero weight met while probing a size above the answer is a jump
    # down; at the answer, whose level below is refuted by then, it is a
    # fault.  On the rank-2 box size 6 is refuted before size 7, the answer,
    # is descended; a zero there must raise, and the check is a raise, not
    # an assert, so it holds under python -O.
    def test_zero_weight_raises(self, monkeypatch):
        opened = self.record_sizes(monkeypatch)
        weights = decompose._SpanFilter.weights

        def zeroed(span, subset):
            q = weights(span, subset)
            if q is not None and opened == [6, 7]:
                q[0] = Fraction(0)
            return q

        monkeypatch.setattr(decompose._SpanFilter, "weights", zeroed)
        box = fx.build_box(fx.RANK2_PERES_TABLE)
        with pytest.raises(AssertionError, match="smaller support escaped"):
            decompose._min_subset_search(box, 200_000, decompose._NC)
        assert opened == [6, 7]

    @pytest.mark.parametrize("n", range(9))
    def test_combination_rank_is_the_index_in_order(self, n):
        for k in range(n + 1):
            for index, subset in enumerate(
                    itertools.combinations(range(n), k)):
                assert decompose._combination_rank(subset, n) == index

    # The levels of the W=1/4 search hold comb(16, k) supports for k = 4..9;
    # a level runs only when all of it fits the budget.
    @pytest.mark.parametrize("budget, dimension, status, nodes", [
        (1_819, 3, LOWER_BOUND_ONLY, 0),
        (1_820, 4, LOWER_BOUND_ONLY, 1_820),
        (49_945, 8, LOWER_BOUND_ONLY, 38_506),
        (49_946, 9, EXACT, 38_854),
    ])
    def test_budget_boundaries_on_noisy_quarter(self, budget, dimension,
                                                status, nodes):
        box = noisy_peres_box("1/4")
        table = decompose._cell_table(box, decompose._NC)
        result = decompose._min_subset_search(box, budget, decompose._NC)
        assert (result.dimension, result.status, result.nodes_used) == (
            dimension, status, nodes)
        assert result == reference_search(table, budget, box, decompose._NC)


def bits_table(colbits, mixed, weights, n_rows):
    """A cell table over ``n_rows`` cells whose candidates are ``colbits`` and
    whose target mixes the columns ``mixed`` with ``weights``, which sum to
    1, plus a one-cell distribution that every candidate covers, with value
    1: the row of ones the span filter finds among the cell rows of every
    table ``_cell_table`` builds."""
    ones = 1 << n_rows
    colbits = tuple(bits | ones for bits in colbits)
    mixed = [bits | ones for bits in mixed]
    n_rows += 1
    rhs = tuple(sum((w for w, bits in zip(weights, mixed) if bits >> r & 1),
                    Fraction(0)) for r in range(n_rows))
    return decompose._CellTable(
        ids=tuple(range(len(colbits))), colbits=colbits,
        cells=(*((0, r) for r in range(n_rows - 1)), (1, 0)), rhs=rhs,
        full_mask=(1 << n_rows) - 1,
        rows=tuple(tuple(bits >> r & 1 for bits in colbits)
                   for r in range(n_rows)))


def assert_span_filter_matches_ranks(table, max_size):
    """Descend through every subset up to ``max_size``, covering or not (no
    cell to cover), so that the pruning meets dependent columns at every
    depth; the descent must yield exactly the subsets without a rank
    failure, in combinations order, each with the Fraction solve's weights,
    and the exact confirmation must refute every other subset."""
    span = decompose._SpanFilter(table._replace(full_mask=0))
    columns, rhs = cell_system(table)
    for k in range(1, max_size + 1):
        expected = []
        for subset in itertools.combinations(range(len(table.ids)), k):
            q = fraction_solve([columns[j] for j in subset], rhs)
            assert span.weights(subset) == q, subset
            if q is not None:
                expected.append((subset, q))
        assert list(span.spanning(k)) == expected, k
