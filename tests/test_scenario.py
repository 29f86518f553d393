"""Core data model: rational parsing, box validation, marginals, mixtures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fixtures as fx
from boxlab.errors import (
    BoxParseError,
    NegativeEntry,
    NoDisturbanceViolation,
    NotNormalized,
    ParameterOutOfRange,
)
from boxlab.scenario import (
    BELL_SETTINGS,
    CONTEXT_IDS,
    OBSERVABLE_HOSTS,
    OUTCOME_ORDERS,
    bell_correlator,
    bell_marginal,
    bell_single,
    box_from_json_dict,
    box_to_json_dict,
    expectation,
    format_rational,
    inequality_lhs,
    mix_boxes,
    outcome_index,
    as_rational,
    rational_to_decimal,
    single_marginal,
    validate_bell_marginal,
    validate_box,
)
from boxlab.vertices import enumerate_nc_vertices


class TestRationalParsing:
    def test_accepts_fraction_strings(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("-1/3") == Fraction(-1, 3)
        assert as_rational("+1/2") == Fraction(1, 2)
        assert as_rational("2") == Fraction(2)
        assert as_rational("0") == Fraction(0)

    def test_accepts_exact_python_numbers(self):
        assert as_rational(Fraction(5, 7)) == Fraction(5, 7)
        assert as_rational(3) == Fraction(3)

    def test_tolerates_surrounding_whitespace(self):
        assert as_rational(" 1/2") == Fraction(1, 2)
        assert as_rational("1/2 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "1/2/3", "a/b", "", "1 /2",
                                     0.25])
    def test_rejects_inexact_strings(self, bad):
        with pytest.raises(BoxParseError):
            as_rational(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(BoxParseError, match="zero denominator"):
            as_rational("1/0")

    def test_format_round_trip(self):
        for value in (Fraction(0), Fraction(1, 3), Fraction(-5, 8), Fraction(4)):
            assert as_rational(format_rational(value)) == value


class TestDecimalRendering:
    def test_twelve_significant_digits(self):
        assert rational_to_decimal(Fraction(1, 3)) == "0.333333333333"
        assert rational_to_decimal(Fraction(2, 3)) == "0.666666666667"
        assert rational_to_decimal(Fraction(1, 9)) == "0.111111111111"

    def test_exact_values_stay_short(self):
        assert rational_to_decimal(Fraction(1, 2)) == "0.5"
        assert rational_to_decimal(Fraction(0)) == "0"
        assert rational_to_decimal(Fraction(3)) == "3"

    def test_negative(self):
        assert rational_to_decimal(Fraction(-1, 3)) == "-0.333333333333"


class TestOutcomeIndexing:
    def test_two_observable_contexts(self):
        assert [outcome_index("C0", (a, b)) for a in (0, 1) for b in (0, 1)] == [0, 1, 2, 3]
        assert outcome_index("C4", (1, 0)) == 2

    def test_three_observable_context_order(self):
        # Canonical flat order: 000, 010, 100, 110, 001, 011, 101, 111.
        expected = ["000", "010", "100", "110", "001", "011", "101", "111"]
        for flat, pattern in enumerate(expected):
            outcome = tuple(int(ch) for ch in pattern)
            assert outcome_index("C1", outcome) == flat
            assert outcome_index("C2", outcome) == flat

    def test_orders_cover_every_cell(self):
        for cid in CONTEXT_IDS:
            order = OUTCOME_ORDERS[cid]
            assert len(set(order)) == len(order)
            indices = sorted(outcome_index(cid, o) for o in order)
            assert indices == list(range(len(order)))

    def test_index_formula_on_every_outcome(self):
        for cid in CONTEXT_IDS:
            for bits in OUTCOME_ORDERS[cid]:
                if len(bits) == 2:
                    expected = 2 * bits[0] + bits[1]
                else:
                    expected = 4 * bits[2] + 2 * bits[0] + bits[1]
                assert outcome_index(cid, bits) == expected
                assert outcome_index(cid, list(bits)) == expected

    @pytest.mark.parametrize("cid, outcome", [
        ("C0", (0, 0, 0)), ("C4", (1,)), ("C1", (0, 1)), ("C2", (0, 2, 0)),
        ("C3", (2, 0)), ("C0", ()),
    ])
    def test_outcome_outside_the_order_raises(self, cid, outcome):
        with pytest.raises(ValueError):
            outcome_index(cid, outcome)


class TestObservableHosts:
    def test_matches_the_literal_table(self):
        # Validation checks no-disturbance in this order, so its first
        # violation message depends on it.
        assert list(OBSERVABLE_HOSTS.items()) == [
            ("A0", (("C0", 0), ("C1", 0))),
            ("B0", (("C0", 1), ("C2", 1))),
            ("B1", (("C1", 1), ("C3", 1))),
            ("A1", (("C2", 0), ("C3", 0))),
            ("D", (("C1", 2), ("C4", 0))),
            ("E", (("C2", 2), ("C4", 1))),
        ]


class TestValidation:
    def test_accepts_reference_tables(self):
        for rows in (fx.PERES_TABLE, fx.NOISE_TABLE, fx.NOISY_THIRD_TABLE,
                     fx.RANK2_PERES_TABLE, fx.CC_ROTATED_TABLE):
            box = validate_box(rows)
            assert len(box.contexts) == 5

    def test_entries_are_fractions(self):
        box = fx.build_box(fx.PERES_TABLE, label="peres")
        assert all(isinstance(p, Fraction) for p in box.entries())
        assert len(box.entries()) == 28
        assert box.label == "peres"

    def test_negative_entry(self):
        rows = [list(r) for r in fx.PERES_TABLE]
        rows[0] = ["3/4", "-1/4", "0", "1/2"]
        with pytest.raises(NegativeEntry):
            validate_box(rows)

    def test_not_normalized(self):
        rows = [list(r) for r in fx.PERES_TABLE]
        rows[3] = ["1/2", "0", "0", "1/4"]
        with pytest.raises(NotNormalized, match="C3"):
            validate_box(rows)

    def test_no_disturbance_violation_names_observable(self):
        rows = [list(r) for r in fx.PERES_TABLE]
        # Keep A0/B1 marginals intact but skew D inside C1.
        rows[1] = ["1/2", "0", "0", "1/2", "0", "0", "0", "0"]
        with pytest.raises(NoDisturbanceViolation, match="D"):
            validate_box(rows)

    def test_wrong_shape(self):
        with pytest.raises(BoxParseError):
            validate_box(fx.PERES_TABLE[:4])
        rows = [list(r) for r in fx.PERES_TABLE]
        rows[1] = rows[1][:6]
        with pytest.raises(BoxParseError):
            validate_box(rows)

    def test_decimal_entries_rejected(self):
        rows = [list(r) for r in fx.PERES_TABLE]
        rows[0] = ["0.5", "0", "0", "0.5"]
        with pytest.raises(BoxParseError):
            validate_box(rows)


def _peres_rows(index=None, row=None):
    rows = [list(r) for r in fx.PERES_TABLE]
    if index is not None:
        rows[index] = row
    return rows


_U = ["1/4"] * 4


class TestValidationMessages:
    """The exact exception and message of every check of both validators."""

    @pytest.mark.parametrize("raw, error, message", [
        (_peres_rows()[:4], BoxParseError,
         "expected 5 context vectors, got 4"),
        ({"C0": fx.PERES_TABLE[0], "C1": fx.PERES_TABLE[1]}, BoxParseError,
         "missing context 'C2' in box data"),
        (_peres_rows(1, list(fx.PERES_TABLE[1][:6])), BoxParseError,
         "context C1 needs 8 entries, got 6"),
        (_peres_rows(2, None), BoxParseError,
         "context C2 must be a list of entries, got NoneType"),
        (_peres_rows(3, "1001"), BoxParseError,
         "context C3 must be a list of entries, got str"),
        (_peres_rows(0, ["3/4", "-1/4", "0", "1/2"]), NegativeEntry,
         "negative entry -1/4 at C0[1]"),
        (_peres_rows(3, ["1/2", "0", "0", "1/4"]), NotNormalized,
         "context C3 sums to 3/4, expected 1"),
        (_peres_rows(1, ["1/2", "0", "0", "1/2", "0", "0", "0", "0"]),
         NoDisturbanceViolation,
         "no-disturbance violation for D: marginal (1, 0) in C1 vs "
         "(1/2, 1/2) in C4"),
    ], ids=["count", "missing", "size", "null", "string", "negative",
            "normalization", "disturbance"])
    def test_box_errors(self, raw, error, message):
        with pytest.raises(error) as info:
            validate_box(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("raw, error, message", [
        ([_U, _U, _U], BoxParseError, "expected 4 distributions, got 3"),
        ([_U, _U, _U, ["1/4"] * 3], BoxParseError,
         "A1B1 needs 4 entries, got 3"),
        ([_U, _U, _U, ["1", "-1/2", "1/4", "1/4"]], NegativeEntry,
         "negative entry -1/2 at A1B1[1]"),
        ([_U, _U, _U, ["1/4", "1/4", "1/4", "0"]], NotNormalized,
         "context A1B1 sums to 3/4, expected 1"),
        ([["1/2", "1/2", "0", "0"], _U, _U, _U], NoDisturbanceViolation,
         "no-disturbance violation for A0: marginal (1, 0) in A0B0 vs "
         "(1/2, 1/2) in A0B1"),
        ([_U, _U, ["1/2", "1/2", "0", "0"], _U], NoDisturbanceViolation,
         "no-disturbance violation for A1: marginal (1, 0) in A1B0 vs "
         "(1/2, 1/2) in A1B1"),
        ([["1/2", "0", "1/2", "0"], _U, _U, _U], NoDisturbanceViolation,
         "no-disturbance violation for B0: marginal (1, 0) in A0B0 vs "
         "(1/2, 1/2) in A1B0"),
        ([_U, ["1/2", "0", "1/2", "0"], _U, _U], NoDisturbanceViolation,
         "no-disturbance violation for B1: marginal (1, 0) in A0B1 vs "
         "(1/2, 1/2) in A1B1"),
    ], ids=["count", "size", "negative", "normalization", "signalling-A0",
            "signalling-A1", "signalling-B0", "signalling-B1"])
    def test_bell_marginal_errors(self, raw, error, message):
        with pytest.raises(error) as info:
            validate_bell_marginal(raw)
        assert str(info.value) == message


class TestMarginalsAndExpectations:
    def test_single_marginals_of_parity_box(self):
        box = fx.build_box(fx.PERES_TABLE)
        for observable in ("A0", "A1", "B0", "B1", "D", "E"):
            assert single_marginal(box, observable) == (Fraction(1, 2), Fraction(1, 2))

    def test_expectations_of_parity_box(self):
        box = fx.build_box(fx.PERES_TABLE)
        values = [expectation(box, cid) for cid in CONTEXT_IDS]
        assert values == [1, 1, 1, 1, -1]
        assert inequality_lhs(box) == 5

    def test_expectations_of_noise_box(self):
        box = fx.build_box(fx.NOISE_TABLE)
        assert [expectation(box, cid) for cid in CONTEXT_IDS] == [0, 1, 1, 0, 0]
        assert inequality_lhs(box) == 2

    def test_bell_marginal_copies_and_marginalizes(self):
        box = fx.build_box(fx.NOISY_THIRD_TABLE)
        marg = bell_marginal(box)
        assert marg.dist(0, 0) == box.context("C0")
        assert marg.dist(1, 1) == box.context("C3")
        # Summing D out of C1 by hand.
        c1 = box.context("C1")
        expected_01 = (c1[0] + c1[4], c1[1] + c1[5], c1[2] + c1[6], c1[3] + c1[7])
        assert marg.dist(0, 1) == expected_01

    def test_bell_correlator_and_singles(self):
        marg = bell_marginal(fx.build_box(fx.NOISY_THIRD_TABLE))
        assert bell_correlator(marg, 0, 0) == Fraction(1, 3)
        assert bell_correlator(marg, 0, 1) == 0
        assert bell_single(marg, "A", 0) == 0
        assert bell_single(marg, "B", 1) == 0

    def test_bell_settings_order(self):
        assert BELL_SETTINGS == ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("x, y", [(0, 2), (2, 0), (-1, 1), (1, -1)])
    def test_bell_setting_outside_zero_one_rejected(self, x, y):
        # 2*x + y would index another setting's distribution.
        marg = bell_marginal(fx.build_box(fx.NOISY_THIRD_TABLE))
        party, setting = ("A", x) if x not in (0, 1) else ("B", y)
        for call in (lambda: marg.dist(x, y),
                     lambda: bell_correlator(marg, x, y),
                     lambda: bell_single(marg, party, setting)):
            with pytest.raises(ParameterOutOfRange, match="0 or 1"):
                call()

    @pytest.mark.parametrize("call, message", [
        (lambda box: single_marginal(box, "F"), "unknown observable 'F'"),
        (lambda box: bell_single(bell_marginal(box), "C", 0),
         "party must be 'A' or 'B'"),
        (lambda box: box.context("C5"), "unknown context 'C5'"),
        (lambda box: expectation(box, "C5"), "unknown context 'C5'"),
    ], ids=["observable", "party", "context", "expectation"])
    def test_unknown_name_rejected(self, call, message):
        with pytest.raises(KeyError, match=message):
            call(fx.build_box(fx.PERES_TABLE))


class TestMixtures:
    def test_third_mixture_matches_table(self):
        peres = fx.build_box(fx.PERES_TABLE)
        noise = fx.build_box(fx.NOISE_TABLE)
        mixed = mix_boxes([("1/3", peres), ("2/3", noise)], label="w=1/3")
        assert mixed.contexts == fx.build_box(fx.NOISY_THIRD_TABLE).contexts
        assert mixed.label == "w=1/3"

    def test_weights_must_sum_to_one(self):
        peres = fx.build_box(fx.PERES_TABLE)
        noise = fx.build_box(fx.NOISE_TABLE)
        with pytest.raises(ParameterOutOfRange):
            mix_boxes([("1/2", peres), ("1/3", noise)])

    def test_weights_must_be_nonnegative(self):
        peres = fx.build_box(fx.PERES_TABLE)
        noise = fx.build_box(fx.NOISE_TABLE)
        with pytest.raises(ParameterOutOfRange):
            mix_boxes([("3/2", peres), ("-1/2", noise)])


class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self):
        box = fx.build_box(fx.NOISY_THIRD_TABLE, label="noisy")
        data = box_to_json_dict(box)
        again = box_from_json_dict(data)
        assert again.contexts == box.contexts
        assert again.label == "noisy"

    def test_label_omitted_when_absent(self):
        box = fx.build_box(fx.PERES_TABLE)
        assert "label" not in box_to_json_dict(box)

    def test_decimal_json_rejected(self):
        data = box_to_json_dict(fx.build_box(fx.PERES_TABLE))
        data["contexts"]["C0"] = ["0.5", "0", "0", "0.5"]
        with pytest.raises(BoxParseError):
            box_from_json_dict(data)

    def test_missing_context_rejected(self):
        data = box_to_json_dict(fx.build_box(fx.PERES_TABLE))
        del data["contexts"]["C2"]
        with pytest.raises(BoxParseError):
            box_from_json_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.pop("contexts"), "'contexts' key"),
        (lambda data: data.update(contexts=[]), "'contexts' must map"),
        (lambda data: data.update(label=5), "'label' must be a string"),
        (lambda data: data.update(label="a\udcff"), "valid Unicode text"),
    ], ids=["no-contexts", "contexts-not-a-map", "non-string-label",
            "surrogate-label"])
    def test_malformed_object_rejected(self, edit, message):
        data = box_to_json_dict(fx.build_box(fx.PERES_TABLE))
        edit(data)
        with pytest.raises(BoxParseError, match=message):
            box_from_json_dict(data)


@st.composite
def vertex_mixtures(draw):
    all_vertices = enumerate_nc_vertices()
    picks = draw(st.lists(st.integers(min_value=0, max_value=63),
                          min_size=1, max_size=4, unique=True))
    numerators = [draw(st.integers(min_value=1, max_value=6)) for _ in picks]
    total = sum(numerators)
    return [(Fraction(num, total), all_vertices[i][1]) for num, i in zip(numerators, picks)]


class TestMixtureProperties:
    @settings(max_examples=25, deadline=None)
    @given(vertex_mixtures())
    def test_vertex_mixtures_are_valid_boxes(self, terms):
        mixed = mix_boxes(terms)
        # Revalidation must succeed: mixtures preserve every constraint.
        revalidated = validate_box(
            [[str(p) for p in row] for row in mixed.contexts])
        assert revalidated.contexts == mixed.contexts

    @settings(max_examples=25, deadline=None)
    @given(vertex_mixtures())
    def test_single_marginals_agree_across_hosting_contexts(self, terms):
        mixed = mix_boxes(terms)
        marg = bell_marginal(mixed)
        c1 = mixed.context("C1")
        assert marg.dist(0, 1) == (c1[0] + c1[4], c1[1] + c1[5],
                                   c1[2] + c1[6], c1[3] + c1[7])
        c2 = mixed.context("C2")
        assert marg.dist(1, 0) == (c2[0] + c2[4], c2[1] + c2[5],
                                   c2[2] + c2[6], c2[3] + c2[7])
