"""Deterministic vertex enumeration for the five-context scenario."""

from fractions import Fraction
from itertools import product

import pytest

import fixtures as fx
from boxlab.decompose import _LHV, _NC, _cell_table
from boxlab.errors import BoxParseError
from boxlab.scenario import bell_marginal, inequality_lhs, validate_box
from boxlab.vertices import (
    DetBoxId,
    LocalDetBoxId,
    _det_outcomes,
    det_box,
    enumerate_local_vertices,
    enumerate_nc_vertices,
    local_det_box,
    parse_det_label,
    parse_local_label,
)


def rule_based_tables(alpha, beta, gamma, epsilon, d, e):
    """Independent reconstruction of a deterministic box from its bits.

    Outcome assignments: a_x = alpha*x XOR beta, b_y = gamma*y XOR epsilon,
    D -> d, E -> e.  Cell orders: two-observable contexts enumerate (o1, o2)
    with o2 fastest; three-observable contexts append the third outcome as
    the slowest index (000,010,100,110,001,011,101,111).
    """
    a = {x: (alpha * x) ^ beta for x in (0, 1)}
    b = {y: (gamma * y) ^ epsilon for y in (0, 1)}

    def two(o1, o2):
        row = [Fraction(0)] * 4
        row[2 * o1 + o2] = Fraction(1)
        return tuple(row)

    def three(o1, o2, o3):
        row = [Fraction(0)] * 8
        row[4 * o3 + 2 * o1 + o2] = Fraction(1)
        return tuple(row)

    return (
        two(a[0], b[0]),
        three(a[0], b[1], d),
        three(a[1], b[0], e),
        two(a[1], b[1]),
        two(d, e),
    )


class TestDetOutcomes:
    def test_all_64_match_the_literal_rule(self):
        for bits in product((0, 1), repeat=6):
            vid = DetBoxId(*bits)
            alpha, beta, gamma, epsilon, d, e = bits
            a = (beta, alpha ^ beta)
            b = (epsilon, gamma ^ epsilon)
            assert _det_outcomes(vid) == {
                "C0": (a[0], b[0]),
                "C1": (a[0], b[1], d),
                "C2": (a[1], b[0], e),
                "C3": (a[1], b[1]),
                "C4": (d, e),
            }


class TestEnumeration:
    def test_sixty_four_unique_vertices(self):
        pairs = enumerate_nc_vertices()
        assert len(pairs) == 64
        labels = [vid.label for vid, _ in pairs]
        assert len(set(labels)) == 64
        tables = {box.contexts for _, box in pairs}
        assert len(tables) == 64

    def test_lexicographic_order(self):
        pairs = enumerate_nc_vertices()
        expected = [
            f"({alpha}{beta}{gamma}{epsilon})({d}{e})"
            for alpha, beta, gamma, epsilon, d, e in product((0, 1), repeat=6)
        ]
        assert [vid.label for vid, _ in pairs] == expected

    def test_sixteen_local_vertices(self):
        pairs = enumerate_local_vertices()
        assert len(pairs) == 16
        assert [vid.label for vid, _ in pairs] == [
            f"{alpha}{beta}{gamma}{epsilon}"
            for alpha, beta, gamma, epsilon in product((0, 1), repeat=4)
        ]

    def test_every_vertex_revalidates(self):
        for _, box in enumerate_nc_vertices():
            revalidated = validate_box(
                [[str(p) for p in row] for row in box.contexts])
            assert revalidated.contexts == box.contexts


class TestLabels:
    def test_round_trip(self):
        for vid, _ in enumerate_nc_vertices():
            assert parse_det_label(vid.label) == vid
        for vid, _ in enumerate_local_vertices():
            assert parse_local_label(vid.label) == vid

    @pytest.mark.parametrize("bad", [
        "0000(00)", "(0000)00", "(000)(00)", "(0002)(00)", "(0000)(2)",
        "(0000)(000)", "", "(0000)", 5, None,
    ])
    def test_bad_full_labels_rejected(self, bad):
        with pytest.raises(BoxParseError):
            parse_det_label(bad)

    @pytest.mark.parametrize("bad", ["00001", "002", "(0000)", "", 5, None])
    def test_bad_local_labels_rejected(self, bad):
        with pytest.raises(BoxParseError):
            parse_local_label(bad)


class TestAgainstIndependentRule:
    def test_all_64_match_rule_based_construction(self):
        for bits in product((0, 1), repeat=6):
            vid = DetBoxId(*bits)
            assert det_box(vid).contexts == rule_based_tables(*bits)

    def test_local_boxes_match_marginals_of_full_boxes(self):
        for vid, box in enumerate_nc_vertices():
            assert bell_marginal(box).dists == local_det_box(vid.local_id).dists


class TestAgainstTranscribedTables:
    @pytest.mark.parametrize("label", sorted(fx.DET_TABLES))
    def test_full_tables(self, label):
        expected = fx.build_box(fx.DET_TABLES[label])
        assert det_box(parse_det_label(label)).contexts == expected.contexts

    @pytest.mark.parametrize("label", sorted(fx.LOCAL_DET_TABLES))
    def test_local_tables(self, label):
        expected = fx.build_marginal(fx.LOCAL_DET_TABLES[label])
        assert local_det_box(parse_local_label(label)).dists == expected.dists


class TestInequalityValues:
    def test_all_vertices_satisfy_bound(self):
        values = [inequality_lhs(box) for _, box in enumerate_nc_vertices()]
        assert all(v <= 3 for v in values)
        assert max(values) == 3
        # Every vertex value is an odd integer in the admissible band.
        assert set(values) <= {-5, -3, -1, 1, 3}


class TestSupportFiltering:
    """The cell table keeps exactly the vertices whose support lies inside
    the target's support, in enumeration order."""

    def test_noisy_family_support_set(self):
        noisy = fx.build_box(fx.NOISY_THIRD_TABLE)
        kept = [vid.label for vid in _cell_table(noisy, _NC).ids]
        assert tuple(kept) == tuple(sorted(fx.NOISY_SUPPORT_LABELS_16))
        inside = [vid.label for vid, box in enumerate_nc_vertices()
                  if all(t != 0 for v_dist, t_dist in zip(box.contexts,
                                                          noisy.contexts)
                         for v, t in zip(v_dist, t_dist) if v != 0)]
        assert kept == inside

    def test_parity_box_support_is_empty(self):
        # The five perfect-correlation rows cannot all be satisfied by any
        # deterministic assignment, which is exactly why the box is maximally
        # contextual: no vertex can carry weight in a decomposition.
        peres = fx.build_box(fx.PERES_TABLE)
        assert _cell_table(peres, _NC).ids == ()

    def test_subset_predicates(self):
        noisy = fx.build_box(fx.NOISY_THIRD_TABLE)
        kept = _cell_table(noisy, _NC).ids
        assert parse_det_label("(0000)(00)") in kept
        assert parse_det_label("(0001)(00)") not in kept
        marg = bell_marginal(fx.build_box(fx.PERES_TABLE))
        local_kept = _cell_table(marg, _LHV).ids
        assert parse_local_label("0000") in local_kept
        assert parse_local_label("0010") not in local_kept
