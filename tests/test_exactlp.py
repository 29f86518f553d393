"""Exact rational linear programming: correctness, degeneracy, cross-checks."""

import copy
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

import fixtures as fx
from boxlab import decompose, exactlp
from boxlab.boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from boxlab.errors import MalformedProgram, NotDecomposable
from boxlab.exactlp import INFEASIBLE, OPTIMAL, LinearProgram, LPResult, solve
from boxlab.scenario import format_rational, mix_boxes
from boxlab.vertices import enumerate_nc_vertices
from boxlab.witnesses import classify


def check_feasible_exactly(lp: LinearProgram, x):
    """All constraints hold with exact rational arithmetic."""
    for row, rhs in zip(lp.eq_rows, lp.eq_rhs):
        assert sum(c * v for c, v in zip(row, x)) == rhs
    for row, rhs in zip(lp.le_rows, lp.le_rhs):
        assert sum(c * v for c, v in zip(row, x)) <= rhs
    assert all(v >= 0 for v in x)


class TestAnalyticPrograms:
    def test_two_variable_maximum(self):
        lp = LinearProgram(
            n=2, objective=[F(1), F(1)], maximize=True,
            le_rows=[[F(1), F(2)], [F(3), F(1)]], le_rhs=[F(4), F(6)])
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == F(14, 5)
        assert res.x == (F(8, 5), F(6, 5))
        check_feasible_exactly(lp, res.x)

    def test_minimization(self):
        lp = LinearProgram(
            n=2, objective=[F(2), F(3)], maximize=False,
            le_rows=[[F(-1), F(-1)]], le_rhs=[F(-4)])
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == F(8)
        assert res.x == (F(4), F(0))

    def test_infeasible(self):
        lp = LinearProgram(
            n=1, objective=[F(1)], maximize=True,
            le_rows=[[F(1)]], le_rhs=[F(-1)])
        res = solve(lp)
        assert res.status == "infeasible"
        assert res.value is None and res.x is None

    def test_unbounded(self):
        lp = LinearProgram(n=2, objective=[F(1), F(0)], maximize=True,
                           le_rows=[[F(0), F(1)]], le_rhs=[F(1)])
        with pytest.raises(MalformedProgram, match="unbounded"):
            solve(lp)

    def test_zero_variable_feasibility(self):
        lp = LinearProgram(n=1, objective=[F(0)], maximize=True,
                           eq_rows=[[F(1)]], eq_rhs=[F(0)])
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == 0


CYCLING = LinearProgram(
    n=4,
    objective=[F(-3, 4), F(150), F(-1, 50), F(6)],
    maximize=False,
    le_rows=[
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ],
    le_rhs=[F(0), F(0), F(1)])

# Redundant equality copies of the same hyperplane.
REDUNDANT = LinearProgram(
    n=3, objective=[F(1), F(2), F(3)], maximize=True,
    eq_rows=[[F(1), F(1), F(1)], [F(2), F(2), F(2)]],
    eq_rhs=[F(1), F(2)])


class TestDegeneracy:
    def test_classic_cycling_instance_terminates(self):
        # Degenerate instance known to cycle under naive most-negative
        # pivoting; anti-cycling pivots must terminate at value -1/20.
        lp = CYCLING
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == F(-1, 20)
        check_feasible_exactly(lp, res.x)

    def test_cycling_instance_needs_a_bland_step(self, integer_pivots):
        # Dantzig's rule alone cycles here; the pivot after a degenerate one
        # goes by Bland's rule, and at least one such step leaves the column
        # Dantzig's rule would take.  The integer tableau takes the same
        # pivots as the rational one.
        tableaus = []
        expected, expected_pivots = fraction_solve(CYCLING, tableaus)
        assert expected.value == F(-1, 20)
        assert any(bland != dantzig for bland, dantzig in tableaus[0].bland)
        pivots, _ = integer_pivots
        assert solve(CYCLING) == expected
        assert pivots == expected_pivots

    def test_highly_degenerate_equalities(self):
        lp = REDUNDANT
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == F(3)
        assert res.x == (F(0), F(0), F(1))


class TestValidation:
    def test_objective_length_mismatch(self):
        with pytest.raises(MalformedProgram):
            solve(LinearProgram(n=2, objective=[F(1)], maximize=True))

    def test_row_length_mismatch(self):
        with pytest.raises(MalformedProgram):
            solve(LinearProgram(n=2, objective=[F(1), F(1)], maximize=True,
                                le_rows=[[F(1)]], le_rhs=[F(1)]))

    def test_rhs_length_mismatch(self):
        with pytest.raises(MalformedProgram):
            solve(LinearProgram(n=1, objective=[F(1)], maximize=True,
                                eq_rows=[[F(1)]], eq_rhs=[]))

    def test_le_rhs_length_mismatch(self):
        with pytest.raises(MalformedProgram, match="le_rows and le_rhs"):
            solve(LinearProgram(n=1, objective=[F(1)], maximize=True,
                                le_rows=[[F(1)]], le_rhs=[F(1), F(2)]))

    @pytest.mark.parametrize("place", ["objective", "eq_rows", "eq_rhs",
                                       "le_rows", "le_rhs"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), None, "x"],
                             ids=["nan", "inf", "-inf", "None", "str"])
    def test_inexact_entry_is_malformed(self, place, bad):
        entries = {"objective": [1, 1], "eq_rows": [[1, 1]], "eq_rhs": [1],
                   "le_rows": [[1, 0]], "le_rhs": [1]}
        spot = entries[place]
        if place.endswith("rows"):
            spot = spot[0]
        spot[-1] = bad
        with pytest.raises(MalformedProgram,
                           match=rf"entry {re.escape(repr(bad))} is not an "
                                 "exact number"):
            solve(LinearProgram(n=2, **entries))

    def test_bool_entries_are_accepted(self):
        def program(one):
            return LinearProgram(n=1, objective=[one], le_rows=[[one]],
                                 le_rhs=[one])

        assert solve(program(True)) == solve(program(1))

    def test_negative_variable_count(self):
        with pytest.raises(MalformedProgram, match="nonnegative"):
            solve(LinearProgram(n=-1, objective=[]))

    # ints and Fractions are used as given, anything else is wrapped in
    # Fraction; all four spellings of one program must solve alike.
    @pytest.mark.parametrize("eq_row, rhs, status", [
        ((1, -1, 1), 2, OPTIMAL), ((1, 1, 1), 7, INFEASIBLE)])
    @pytest.mark.parametrize("spell", [int, F, str, float],
                             ids=["int", "Fraction", "str", "float"])
    def test_entry_types_give_equal_results(self, spell, eq_row, rhs,
                                            status):
        def program(spell):
            return LinearProgram(
                n=3, objective=[spell(v) for v in (1, 1, -2)], maximize=True,
                eq_rows=[[spell(v) for v in eq_row]],
                eq_rhs=[spell(rhs)],
                le_rows=[[spell(v) for v in row]
                         for row in ((1, 2, 0), (3, 1, 1))],
                le_rhs=[spell(4), spell(6)])

        res = solve(program(spell))
        assert res == solve(program(F))
        assert res.status == status
        if status == OPTIMAL:
            assert all(type(v) is F for v in (res.value, *res.x))


def random_program(rng):
    n = int(rng.integers(1, 5))
    m_le = int(rng.integers(1, 4))
    m_eq = int(rng.integers(0, 2))
    objective = [F(int(rng.integers(-5, 6))) for _ in range(n)]
    le_rows = [[F(int(rng.integers(-4, 5))) for _ in range(n)]
               for _ in range(m_le)]
    le_rhs = [F(int(rng.integers(0, 7))) for _ in range(m_le)]
    # Cap every variable to keep the region bounded.
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(1)
        le_rows.append(row)
        le_rhs.append(F(int(rng.integers(1, 6))))
    eq_rows = [[F(int(rng.integers(-2, 3))) for _ in range(n)]
               for _ in range(m_eq)]
    eq_rhs = [F(int(rng.integers(0, 3))) for _ in range(m_eq)]
    return LinearProgram(n=n, objective=objective, maximize=True,
                         eq_rows=eq_rows, eq_rhs=eq_rhs,
                         le_rows=le_rows, le_rhs=le_rhs)


def fractional_program(rng):
    """``random_program`` with every entry divided by a random 1..6, so the
    integer tableau's scale exceeds 1, and some of its first rows turned
    into ``>=`` rows, so that rows start on slacks and on artificials."""
    lp = random_program(rng)

    def divided(row):
        return [v / int(rng.integers(1, 7)) for v in row]

    le_rows, le_rhs = [divided(row) for row in lp.le_rows], divided(lp.le_rhs)
    for r in range(len(le_rows) - lp.n):
        if rng.integers(0, 2):
            le_rows[r] = [-v for v in le_rows[r]]
            le_rhs[r] = -le_rhs[r]
    return LinearProgram(n=lp.n, objective=divided(lp.objective),
                         maximize=True,
                         eq_rows=[divided(row) for row in lp.eq_rows],
                         eq_rhs=divided(lp.eq_rhs),
                         le_rows=le_rows, le_rhs=le_rhs)


class TestAgainstFloatSolver:
    """Randomized duels against an independent floating-point LP solver."""

    def test_thirty_random_duels(self):
        rng = np.random.default_rng(20240817)
        statuses = set()
        for _ in range(30):
            lp = random_program(rng)
            res = solve(lp)
            ref = linprog(
                c=[-float(c) for c in lp.objective],
                A_ub=[[float(c) for c in row] for row in lp.le_rows] or None,
                b_ub=[float(v) for v in lp.le_rhs] or None,
                A_eq=[[float(c) for c in row] for row in lp.eq_rows] or None,
                b_eq=[float(v) for v in lp.eq_rhs] or None,
                bounds=[(0, None)] * lp.n, method="highs")
            statuses.add(res.status)
            if res.status == "optimal":
                assert ref.status == 0
                assert abs(float(res.value) - (-ref.fun)) < 1e-7
                check_feasible_exactly(lp, res.x)
                recomputed = sum(c * v for c, v in zip(lp.objective, res.x))
                assert recomputed == res.value
            else:
                assert res.status == "infeasible"
                assert ref.status == 2
        # The seed must exercise both outcomes we care about.
        assert "optimal" in statuses
        assert "infeasible" in statuses


# ---------------------------------------------------------------------------
# Reference: the rational tableau the integer tableau replaced
# ---------------------------------------------------------------------------

class FractionTableau:
    """Dense simplex tableau kept exact with Fractions: Dantzig's entering
    rule, Bland's right after a degenerate pivot.  Records every pivot as
    ``(row, col)``, and each Bland step as ``(entering, dantzig)``, its
    column and the one Dantzig's rule would have taken."""

    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.pivots = []
        self.bland = []

    def pivot(self, row, col):
        self.pivots.append((row, col))
        inv = 1 / self.rows[row][col]
        self.rows[row] = [v * inv for v in self.rows[row]]
        self.rhs[row] *= inv
        pivot_row = self.rows[row]
        for r in range(len(self.rows)):
            factor = self.rows[r][col]
            if r == row or factor == 0:
                continue
            self.rows[r] = [v - factor * w
                            for v, w in zip(self.rows[r], pivot_row)]
            self.rhs[r] -= factor * self.rhs[row]
        self.basis[row] = col

    def run_simplex(self, cost, allowed):
        m = len(self.rows)
        degenerate = False
        while True:
            basic_cost = [cost[self.basis[r]] for r in range(m)]
            improving = []
            for j in range(self.ncols):
                if not allowed[j] or j in self.basis:
                    continue
                reduced = cost[j] - sum(basic_cost[r] * self.rows[r][j]
                                        for r in range(m))
                if reduced < 0:
                    improving.append((reduced, j))
            if not improving:
                return
            _, entering = min(improving)
            if degenerate:
                self.bland.append((improving[0][1], entering))
                entering = improving[0][1]
            leaving, best = -1, None
            for r in range(m):
                coeff = self.rows[r][entering]
                if coeff > 0:
                    ratio = self.rhs[r] / coeff
                    if (best is None or ratio < best or
                            (ratio == best and
                             self.basis[r] < self.basis[leaving])):
                        best, leaving = ratio, r
            if leaving < 0:
                raise MalformedProgram("unbounded")
            degenerate = best == 0
            self.pivot(leaving, entering)


def fraction_solve(lp, tableaus=None, start=None):
    """The rational simplex from a slack start: ``(LPResult, pivots)``.
    Appends its tableau to ``tableaus`` when one is given.  With ``start``,
    the program ``lp.start`` solved, it first replays ``start``'s pivots on
    the cold tableau, each slack standing for its row's artificial, and
    returns only the pivots after them.
    """
    n, nslack = lp.n, len(lp.le_rows)
    m_eq = len(lp.eq_rows)
    rows = [[F(v) for v in row] + [F(0)] * nslack for row in lp.eq_rows]
    rhs = [F(v) for v in lp.eq_rhs]
    for k, row in enumerate(lp.le_rows):
        rows.append([F(v) for v in row] +
                    [F(int(i == k)) for i in range(nslack)])
        rhs.append(F(lp.le_rhs[k]))
    width, m = n + nslack, len(rows)
    # A <= row with rhs >= 0 starts on its slack; the others on artificials.
    artificial = [r for r in range(m) if r < m_eq or rhs[r] < 0]
    basis = [n + r - m_eq for r in range(m)]
    for r in range(m):
        if rhs[r] < 0:
            rows[r], rhs[r] = [-v for v in rows[r]], -rhs[r]
        rows[r] += [F(int(a == r)) for a in artificial]
    for k, r in enumerate(artificial):
        basis[r] = width + k
    total = width + len(artificial)
    tableau = FractionTableau(rows, rhs, basis, total)
    if start is not None:
        _, replay = fraction_solve(start)
        for row, col in replay:
            tableau.pivot(row, col if col < start.n else width + col - start.n)
        del tableau.pivots[:]
    if tableaus is not None:
        tableaus.append(tableau)
    if artificial:
        tableau.run_simplex([F(0)] * width + [F(1)] * len(artificial),
                            [True] * total)
    if any(tableau.rhs[r] > 0 for r in range(m) if tableau.basis[r] >= width):
        return LPResult(INFEASIBLE), tableau.pivots
    for r in range(m):
        if tableau.basis[r] >= width:
            col = next((j for j in range(width) if tableau.rows[r][j] != 0),
                       None)
            if col is not None:
                tableau.pivot(r, col)
    keep = [r for r in range(m) if tableau.basis[r] < width]
    tableau.rows = [tableau.rows[r] for r in keep]
    tableau.rhs = [tableau.rhs[r] for r in keep]
    tableau.basis = [tableau.basis[r] for r in keep]
    sign = -1 if lp.maximize else 1
    cost = [sign * F(c) for c in lp.objective] + [F(0)] * (total - n)
    tableau.run_simplex(cost, [True] * width + [False] * len(artificial))
    x = [F(0)] * n
    for r, col in enumerate(tableau.basis):
        if col < n:
            x[col] = tableau.rhs[r]
    value = sum((F(c) * v for c, v in zip(lp.objective, x)), F(0))
    return LPResult(OPTIMAL, value, tuple(x)), tableau.pivots


@pytest.fixture
def integer_pivots(monkeypatch):
    """Records the integer tableau's pivots as ``(row, col)``, and the
    pivots on a negative integer entry in ``negative``."""
    pivots, negative = [], []
    pivot = exactlp._Tableau.pivot

    def recording(tableau, row, col):
        pivots.append((row, col))
        if tableau.rows[row][col] < 0:
            negative.append((row, col))
        pivot(tableau, row, col)

    monkeypatch.setattr(exactlp._Tableau, "pivot", recording)
    return pivots, negative


def assert_same_as_reference(lp, integer_pivots, start=None):
    pivots, _ = integer_pivots
    del pivots[:]
    expected, expected_pivots = fraction_solve(lp, start=start)
    assert solve(lp) == expected
    assert pivots == expected_pivots


def assert_programs_match_reference(programs, integer_pivots):
    """Each of ``classify_programs``'s programs against the rational
    simplex; the Peres-strength program continues from the
    contextual-fraction program just before it, whose pivots the reference
    replays."""
    for k, lp in enumerate(programs):
        start = None
        if lp.start is not None:
            start = programs[k - 1]
            assert start.le_rows and lp.start == solve(start)
        assert_same_as_reference(lp, integer_pivots, start)


def parity_mixture(rng, parity, low, high):
    """p*parity + (1-p)*(u*uniform + (1-u)*random vertex mixture), p in
    (low, high): full support, so every vertex enters every LP."""
    p = F(rng.randint(1, 99), 100) * (high - low) + low
    u = F(rng.randint(1, 3), 4)
    vertices = rng.sample(enumerate_nc_vertices(), rng.randint(2, 6))
    weights = [F(rng.randint(1, 12)) for _ in vertices]
    total = sum(weights)
    inner = mix_boxes([(w / total, box) for w, (_, box) in zip(weights,
                                                              vertices)])
    return mix_boxes([(p, parity), ((1 - p) * u, uniform_box()),
                      ((1 - p) * (1 - u), inner)])


RELABELLED = fx.build_box(fx.PERES_RELABELLED_TABLE)
CLASSIFY_BOXES = [
    *((f"parity-mixture-{seed}", lambda seed=seed: parity_mixture(
        random.Random(seed), peres_box(), F(seed, 4), F(seed + 1, 4)))
      for seed in range(4)),
    *((f"relabelled-mixture-{seed}", lambda seed=seed: parity_mixture(
        random.Random(seed), RELABELLED, F(5 + 2 * seed, 8),
        F(6 + 2 * seed, 8)))
      for seed in range(2)),
    ("noise", noise_box),
    ("uniform", uniform_box),
    *((f"noisy-{w}", lambda w=w: noisy_peres_box(w))
      for w in ("0", "1/4", "1/3")),
    ("rank3-sigma", lambda: fx.build_box(fx.RANK3_SIGMA_PERES_TABLE)),
    ("rank3-rho", lambda: fx.build_box(fx.RANK3_RHO_PERES_TABLE)),
    ("cc-rotated", lambda: fx.build_box(fx.CC_ROTATED_TABLE)),
]


def classify_programs(box):
    """Every LP ``classify`` builds for the box: the contextual fraction,
    Peres strength and Bell-local membership (``skip_dims``).  The NC
    membership the dimension search adds after them reads the memo, which
    holds the box's LP next to the marginal's, so it builds none.  The
    Peres-strength program carries the contextual-fraction result it
    continues from."""
    programs = []
    decompose._cost_lp.cache_clear()

    def recording(lp):
        programs.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "solve", recording)
        classify(box, skip_dims=True)
        decompose.nc_membership(box)
    return programs


class TestIntegerTableauMatchesReference:
    """Same status, value, x and pivot sequence as the rational simplex."""

    @pytest.mark.parametrize("name, make", CLASSIFY_BOXES,
                             ids=[name for name, _ in CLASSIFY_BOXES])
    def test_classify_programs(self, name, make, integer_pivots):
        programs = classify_programs(make())
        assert len(programs) == 3
        assert [lp.start is not None for lp in programs] == [
            False, True, False]
        assert_programs_match_reference(programs, integer_pivots)

    def test_relabelled_mixtures_reach_infeasible_peres_strength(self):
        for name, make in CLASSIFY_BOXES:
            if name.startswith("relabelled"):
                assert classify(make(), skip_dims=True).peres_strength is None

    def test_negative_drive_out_pivot_runs(self, monkeypatch,
                                           integer_pivots):
        # The noise box's programs drive a zero-level artificial out of the
        # basis on a negative entry (the ratio test takes only positive
        # ones); the integer tableau negates that row first, so every pivot
        # it takes is positive.
        _, negative = integer_pivots
        reference = []
        pivot = FractionTableau.pivot

        def recording(tableau, row, col):
            if tableau.rows[row][col] < 0:
                reference.append((row, col))
            pivot(tableau, row, col)

        monkeypatch.setattr(FractionTableau, "pivot", recording)
        assert_programs_match_reference(classify_programs(noise_box()),
                                        integer_pivots)
        assert reference
        assert negative == []

    def test_random_and_degenerate_programs(self, integer_pivots):
        rng = np.random.default_rng(20240817)
        programs = [CYCLING, REDUNDANT,
                    *(random_program(rng) for _ in range(30))]
        for lp in programs:
            assert_same_as_reference(lp, integer_pivots)

    def test_fractional_programs(self, integer_pivots):
        # Slack and artificial columns stay unit columns while the others
        # are scaled by s > 1; pricing must weigh them back to agree with
        # the rational simplex's choice of entering column.
        rng = np.random.default_rng(20261018)
        statuses = Counter()
        for _ in range(40):
            lp = fractional_program(rng)
            assert_same_as_reference(lp, integer_pivots)
            statuses[solve(lp).status] += 1
        assert statuses[OPTIMAL] and statuses[INFEASIBLE], statuses

    def test_contextual_fraction_starts_on_slacks(self, monkeypatch,
                                                  integer_pivots):
        # Every row of the contextual-fraction program is a <= row with a
        # nonnegative right-hand side: no artificial column is built, and
        # the only pricing is phase 2's, before the first pivot.
        pivots, _ = integer_pivots
        starts, prices = [], []
        init, price = exactlp._Tableau.__init__, exactlp._Tableau.price

        def recording_init(tableau, rows, basis, *args):
            starts.append((len(rows[0]), list(basis)))
            init(tableau, rows, basis, *args)

        def recording_price(tableau, c):
            prices.append(len(pivots))
            price(tableau, c)

        programs = []

        def recording_solve(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(exactlp._Tableau, "__init__", recording_init)
        monkeypatch.setattr(exactlp._Tableau, "price", recording_price)
        monkeypatch.setattr(decompose, "solve", recording_solve)
        decompose._cost_lp.cache_clear()
        box = parity_mixture(random.Random(0), peres_box(), F(3, 4), F(1))
        assert decompose.contextual_fraction(box).ncf < 1
        (lp,) = programs
        n, m = lp.n, len(lp.le_rows)
        assert not lp.eq_rows and m > 0
        assert starts == [(n + m + 1, list(range(n, n + m)))]
        assert prices == [0] and pivots


def extended_program(rng, start, columns):
    """``start``'s rows as equalities, then ``columns`` new trailing
    columns, with a new objective.  Row 0 stays positive on every column,
    so the program is bounded."""
    n = start.n + columns
    lows = [1] + [-2] * (len(start.le_rows) - 1)
    eq_rows = [[*row, *(F(int(rng.integers(lo, 4))) for _ in range(columns))]
               for row, lo in zip(start.le_rows, lows)]
    return LinearProgram(n=n, objective=[F(int(rng.integers(-3, 4)))
                                         for _ in range(n)],
                         maximize=bool(rng.integers(0, 2)), eq_rows=eq_rows,
                         eq_rhs=list(start.le_rhs))


def slack_start_program(rng):
    """A bounded program of ``<=`` rows with nonnegative right-hand sides,
    some of them fractional; row 0 is positive on every column."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    rows = [[F(int(rng.integers(1, 4))) for _ in range(n)]]
    rows += [[F(int(rng.integers(-2, 4))) for _ in range(n)]
             for _ in range(m - 1)]
    rhs = [F(int(rng.integers(0, 7)), int(rng.integers(1, 4)))
           for _ in range(m)]
    return LinearProgram(n=n, objective=[F(int(rng.integers(-2, 4)))
                                         for _ in range(n)],
                         maximize=True, le_rows=rows, le_rhs=rhs)


def peres_programs(box):
    """The contextual-fraction and Peres-strength programs a lone
    ``peres_strength(box)`` solves, from an empty memo."""
    programs = []

    def recording(lp):
        programs.append(lp)
        return solve(lp)

    decompose._cost_lp.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "solve", recording)
        try:
            decompose.peres_strength(box)
        except NotDecomposable:
            pass
    return programs


class TestContinuation:
    """A program solved from the final tableau of the program of ``<=``
    rows it extends: the same pivots as the rational simplex after it
    replays the start's, and the same status and value as a cold solve."""

    def test_random_extensions(self, integer_pivots):
        rng = np.random.default_rng(20261019)
        statuses = Counter()
        for _ in range(60):
            start = slack_start_program(rng)
            lp = extended_program(rng, start, int(rng.integers(0, 3)))
            lp.start = solve(start)
            assert_same_as_reference(lp, integer_pivots, start)
            continued, cold = solve(lp), solve(replace(lp, start=None))
            assert (continued.status, continued.value) == (cold.status,
                                                           cold.value)
            statuses[cold.status] += 1
        assert statuses[OPTIMAL] and statuses[INFEASIBLE], statuses

    def test_parity_mixtures_match_cold_solves(self):
        # Eight strata of the parity weight; in strata 5 and 7 the box mixes
        # in the relabelled parity box and the program is infeasible.
        statuses = Counter()
        for seed in range(40):
            low = F(seed % 8, 8)
            parity = RELABELLED if seed % 8 in (5, 7) else peres_box()
            box = parity_mixture(random.Random(seed), parity, low,
                                 low + F(1, 8))
            cost, lp = peres_programs(box)
            assert lp.start is not None and lp.start == solve(cost)
            continued, cold = solve(lp), solve(replace(lp, start=None))
            assert (continued.status, continued.value) == (cold.status,
                                                           cold.value)
            statuses[cold.status] += 1
        assert statuses == {OPTIMAL: 30, INFEASIBLE: 10}, statuses

    START = LinearProgram(n=2, objective=[F(1), F(1)], maximize=True,
                          le_rows=[[F(1), F(1)], [F(1), F(0)]],
                          le_rhs=[F(2), F(1)])
    EXTENDED = LinearProgram(n=3, objective=[F(0), F(1), F(3)],
                             maximize=True,
                             eq_rows=[[F(1), F(1), F(3)], [F(1), F(0), F(1)]],
                             eq_rhs=[F(2), F(1)])

    def test_small_extension(self):
        lp = replace(self.EXTENDED, start=solve(self.START))
        assert solve(lp) == solve(self.EXTENDED)
        assert solve(lp).value == F(3, 2)
        assert solve(lp).x == (F(1, 2), F(0), F(1, 2))

    @pytest.mark.parametrize("change, start, message", [
        ({"eq_rows": [[F(1), F(2), F(3)], [F(1), F(0), F(1)]]}, START,
         "extend"),
        ({"eq_rhs": [F(3), F(1)]}, START, "extend"),
        ({"eq_rows": [[F(1), F(1), F(3)]], "eq_rhs": [F(2)]}, START,
         "extend"),
        ({"eq_rows": [[F(1), F(1), F(3)], [F(1), F(0), F(1)],
                      [F(0), F(1), F(3)]],
          "eq_rhs": [F(2), F(1), F(3, 2)]}, START, "extend"),
        ({"eq_rows": [[F(1), F(1), F(1, 2)], [F(1), F(0), F(1)]]}, START,
         "extend"),
        ({"le_rows": [[F(1), F(0), F(0)]], "le_rhs": [F(1)]}, START,
         "equality rows"),
        ({}, replace(START, eq_rows=[[F(1), F(0)]], eq_rhs=[F(1)]),
         "nonnegative"),
        ({}, replace(START, le_rhs=[F(2), F(-1)]), "nonnegative"),
    ], ids=["row", "rhs", "fewer-rows", "new-row", "scale", "le-row",
            "start-eq-row", "start-negative-rhs"])
    def test_programs_that_do_not_extend_the_start(self, change, start,
                                                   message):
        result = solve(start)
        lp = replace(self.EXTENDED, **change, start=result)
        with pytest.raises(MalformedProgram, match=message):
            solve(lp)

    def test_a_result_built_by_hand_has_no_tableau(self):
        by_hand = LPResult(OPTIMAL, F(2), (F(1), F(1)))
        lp = replace(self.EXTENDED, start=by_hand)
        with pytest.raises(MalformedProgram, match="nonnegative"):
            solve(lp)


def tableau_snapshot(tableau):
    """A deep copy of everything a continuation reads of a tableau."""
    return copy.deepcopy((tableau.rows, tableau.cost, tableau.basis,
                          tableau.d))


@pytest.mark.parametrize("make", [
    lambda: parity_mixture(random.Random(0), peres_box(), F(1, 4), F(1, 2)),
    lambda: noisy_peres_box("1/4"),
    noise_box,
], ids=["parity-mixture", "noisy-1/4", "noise"])
class TestMemoizedTableauUnchanged:
    """The contextual-fraction LP's final tableau stays in the memo as the
    start of every Peres-strength solve of its box; a continuation pivots
    its own copy of the rows, so the memoized one never changes."""

    def test_peres_strength_and_classify(self, make):
        box = make()
        decompose._cost_lp.cache_clear()
        final = decompose._cost_lp(box.contexts, decompose._NC)[1].tableau
        before = tableau_snapshot(final.tableau)
        first = decompose.peres_strength(box)
        second = decompose.peres_strength(box)
        classify(box)
        assert tableau_snapshot(final.tableau) == before
        assert first == second

    def test_programs_solve_alike_twice(self, make):
        cost, lp = peres_programs(make())
        final = lp.start.tableau
        before = tableau_snapshot(final.tableau)
        assert solve(cost) == solve(cost) == lp.start
        assert solve(lp) == solve(lp)
        cold = replace(lp, start=None)
        assert solve(cold) == solve(cold)
        assert tableau_snapshot(final.tableau) == before


def verify_dual(rows, rhs, y, s, costs, optimum=None):
    """``exactlp._verify_dual`` on the standard-form right-hand side
    ``rhs``, scaled to integers ``b / t`` as ``solve`` scales it."""
    t, b = exactlp._integers([s * v for v in rhs])
    exactlp._verify_dual(rows, b, t, y, s, costs, optimum)


def dual_checks(lp, monkeypatch):
    """``(result, checks)``: ``solve(lp)`` and the arguments ``(rows, rhs,
    y, s, costs, optimum)`` of every dual check it made, ``rhs`` the
    standard-form right-hand side that its ``b / t`` is ``s`` times."""
    seen = []
    check = exactlp._verify_dual

    def recording(rows, b, t, y, s, costs, optimum=None):
        seen.append((rows, [F(v, t * s) for v in b], y, s, costs, optimum))
        check(rows, b, t, y, s, costs, optimum)

    with monkeypatch.context() as mp:
        mp.setattr(exactlp, "_verify_dual", recording)
        result = solve(lp)
    return result, seen


def dual_bound(rows, rhs, y, s, costs):
    """``s * y . rhs`` when ``s * y . a_j <= costs[j]`` on every column,
    else None."""
    for j, cost in enumerate(costs):
        if s * sum(a * row[j] for a, row in zip(y, rows)) > cost:
            return None
    return s * sum(a * b for a, b in zip(y, rhs))


class TestInfeasibilityCertificate:
    def certificate(self, lp, monkeypatch):
        """``(rows, rhs, y, s)`` handed to the Farkas check by ``solve``."""
        result, seen = dual_checks(lp, monkeypatch)
        assert result.status == INFEASIBLE
        ((rows, rhs, y, s, costs, optimum),) = seen
        assert optimum is None and costs == [0] * len(rows[0])
        return rows, rhs, y, s

    @staticmethod
    def verify(rows, rhs, y, s):
        verify_dual(rows, rhs, y, s, [0] * len(rows[0]))

    @staticmethod
    def holds(rows, rhs, y, s):
        bound = dual_bound(rows, rhs, y, s, [0] * len(rows[0]))
        return bound is not None and bound > 0

    def test_perturbed_certificates_are_rejected(self, monkeypatch):
        # Of the LPs of a contextual box, only the Peres-strength one is
        # infeasible: membership reads the contextual-fraction LP, which
        # always has the solution 0.
        box = parity_mixture(random.Random(1), RELABELLED, F(7, 8), F(1))
        infeasible = [lp for lp in classify_programs(box)
                      if solve(lp).status == INFEASIBLE]
        assert [lp.start is not None for lp in infeasible] == [True]
        for lp in infeasible:
            self.check_perturbations(*self.certificate(lp, monkeypatch))

    def test_mixed_program_certificate(self, monkeypatch):
        # x0 + x1 + x2 = 4 needs an artificial; x_i <= 1 start on their
        # slacks.  y reads the equality from its artificial's reduced cost
        # and the caps from their slacks'.
        lp = LinearProgram(
            n=3, objective=[F(1), F(0), F(0)], maximize=True,
            eq_rows=[[F(1), F(1), F(1)]], eq_rhs=[F(4)],
            le_rows=[[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                     [F(0), F(0), F(1)], [F(1), F(-1), F(0)]],
            le_rhs=[F(1), F(1), F(1), F(2)])
        rows, rhs, y, s = self.certificate(lp, monkeypatch)
        assert y[0] > 0 and all(v < 0 for v in y[1:4])
        self.check_perturbations(rows, rhs, y, s)
        with pytest.raises(AssertionError, match="certificate"):
            self.verify(rows, rhs, [-v for v in y], s)

    def check_perturbations(self, rows, rhs, y, s):
        assert self.holds(rows, rhs, y, s)
        rng = random.Random(20261018)
        rejected = 0
        for _ in range(40):
            bad = list(y)
            for r in rng.sample(range(len(y)), 3):
                bad[r] += rng.randint(-2, 2) * max(abs(v) for v in y)
            if self.holds(rows, rhs, bad, s):
                self.verify(rows, rhs, bad, s)
                continue
            rejected += 1
            with pytest.raises(AssertionError, match="certificate"):
                self.verify(rows, rhs, bad, s)
        assert rejected >= 30
        with pytest.raises(AssertionError, match="y.b"):
            self.verify(rows, rhs, [0] * len(y), s)

    def test_negated_certificate_is_rejected(self, monkeypatch):
        lp = LinearProgram(n=1, objective=[F(1)], maximize=True,
                           le_rows=[[F(1)]], le_rhs=[F(-1)])
        rows, rhs, y, s = self.certificate(lp, monkeypatch)
        assert self.holds(rows, rhs, y, s)
        with pytest.raises(AssertionError, match="column 0"):
            self.verify(rows, rhs, [-v for v in y], s)


def random_le_program(rng):
    """A bounded program of ``<=`` rows with nonnegative right-hand sides and
    fractional entries: the first row has a positive entry in every column,
    and the objective has entries of either sign."""
    n, m = rng.randint(1, 6), rng.randint(1, 5)

    def entry(low):
        return F(rng.randint(low, 9), rng.choice((1, 2, 3, 4, 6)))

    rows = [[entry(1) for _ in range(n)]]
    rows += [[entry(-4) for _ in range(n)] for _ in range(m - 1)]
    return LinearProgram(
        n=n, objective=[entry(-9) for _ in range(n)],
        maximize=rng.random() < 0.5, le_rows=rows,
        le_rhs=[entry(0) for _ in range(m)])


class TestOptimalityCertificate:
    """Every optimum of a program whose rows all start on their slacks
    comes with a checked dual: ``s * y . a_j <= costs[j]`` on every column
    and ``s * y . rhs`` equal to the optimum, where ``costs`` is a positive
    multiple of the minimized objective and ``optimum`` the same multiple
    of its value."""

    def certificate(self, lp, monkeypatch):
        result, seen = dual_checks(lp, monkeypatch)
        assert result.status == OPTIMAL
        ((rows, rhs, y, s, costs, optimum),) = seen
        # The certificate is about this program's objective and value.
        sign = -1 if lp.maximize else 1
        j = next((j for j, v in enumerate(lp.objective) if v), None)
        k = F(1) if j is None else F(costs[j], sign * lp.objective[j])
        assert k > 0 and costs[lp.n:] == [0] * (len(costs) - lp.n)
        assert costs[:lp.n] == [k * sign * v for v in lp.objective]
        assert optimum == k * sign * result.value
        assert dual_bound(rows, rhs, y, s, costs) == optimum
        return rows, rhs, y, s, costs, optimum

    @pytest.mark.parametrize("name, make", CLASSIFY_BOXES,
                             ids=[name for name, _ in CLASSIFY_BOXES])
    def test_perturbed_duals_are_rejected(self, name, make, monkeypatch):
        # Every program classify builds with <= rows only: the
        # contextual-fraction LPs of the box and of its Bell marginal.
        checked = 0
        for lp in classify_programs(make()):
            if lp.eq_rows:
                continue
            rows, rhs, y, s, costs, optimum = self.certificate(lp,
                                                              monkeypatch)
            assert any(y)
            perturbed = [[-v for v in y], [0] * len(y)]
            for r, v in enumerate(y):
                if v:
                    perturbed += [[*y[:r], v + e, *y[r + 1:]] for e in (1, -1)]
            for bad in perturbed:
                with pytest.raises(AssertionError, match="certificate"):
                    verify_dual(rows, rhs, bad, s, costs, optimum)
            checked += 1
        assert checked == 2

    def test_random_fractional_programs(self, monkeypatch):
        rng = random.Random(20261019)
        scales = set()
        for _ in range(300):
            lp = random_le_program(rng)
            scales.add(self.certificate(lp, monkeypatch)[3])
        assert len(scales) > 1

    def test_programs_with_artificials_have_no_dual_check(self, monkeypatch):
        lp = LinearProgram(n=2, objective=[F(1), F(1)], maximize=True,
                           eq_rows=[[F(1), F(1)]], eq_rhs=[F(1)])
        result, seen = dual_checks(lp, monkeypatch)
        assert result.value == 1 and seen == []

    def test_empty_table_program(self, monkeypatch):
        # The contextual-fraction LP of a box with no candidate vertex: no
        # columns, so the optimum is 0 and its dual is 0.
        lp = LinearProgram(n=0, objective=[], maximize=True,
                           le_rows=[[], []], le_rhs=[F(1, 2), F(1, 2)])
        rows, rhs, y, s, costs, optimum = self.certificate(lp, monkeypatch)
        assert y == [0, 0] and optimum == 0


class TestSolutionCheck:
    """``_verify_solution`` on a small program, with the solution ``num /
    den`` corrupted to hit each of its four checks, on integer rows and on
    the same program with every row and the objective divided through."""

    # max x0 + x1  s.t.  x0 + x1 + x2 = 2,  x0 <= 1,  x >= 0, and the
    # objective's factor in the second spelling.
    PROGRAMS = {
        "int": ([1, 1, 0], [[1, 1, 1]], [2], [[1, 0, 0]], [1], 1),
        "fraction": ([F(1, 2), F(1, 2), 0], [[F(1, 3)] * 3], [F(2, 3)],
                     [[F(1, 2), 0, 0]], [F(1, 2)], F(1, 2)),
    }

    def check(self, program, x, value, den=1):
        *rows, scale = self.PROGRAMS[program]
        exactlp._verify_solution(*rows, [v * den for v in x], den,
                                 F(value) * scale)

    def solved(self, program):
        objective, eq_rows, eq_rhs, le_rows, le_rhs, _ = \
            self.PROGRAMS[program]
        return solve(LinearProgram(n=3, objective=objective,
                                   eq_rows=eq_rows, eq_rhs=eq_rhs,
                                   le_rows=le_rows, le_rhs=le_rhs))

    @pytest.mark.parametrize("program", ["int", "fraction"])
    def test_optimum_passes(self, program):
        result = self.solved(program)
        assert result.value == 2 * self.PROGRAMS[program][-1]
        assert result.x == (1, 1, 0)
        for den in (1, 3):
            self.check(program, [1, 1, 0], 2, den)

    @pytest.mark.parametrize("program", ["int", "fraction"])
    @pytest.mark.parametrize("den", [1, 3])
    @pytest.mark.parametrize("x, value, message", [
        ([2, 1, -1], 3, "negative variable"),
        ([1, 0, 0], 1, "violates an equality"),
        ([2, 0, 0], 2, "violates an inequality"),
        ([1, 1, 0], 3, "objective value mismatch"),
        ([0, 0, 2], 1, "objective value mismatch"),
    ])
    def test_corrupted_solution_is_rejected(self, program, den, x, value,
                                            message):
        with pytest.raises(AssertionError, match=message):
            self.check(program, x, value, den)

    @pytest.mark.parametrize("program", ["int", "fraction"])
    @pytest.mark.parametrize("den, message", [
        (2, "violates an equality"),
        (-1, "negative variable"),
        (0, "negative variable"),
    ])
    def test_corrupted_denominator_is_rejected(self, program, den, message):
        # The optimum's numerators over den = 1, read over another den.
        *rows, scale = self.PROGRAMS[program]
        with pytest.raises(AssertionError, match=message):
            exactlp._verify_solution(*rows, [1, 1, 0], den, 2 * scale)

    def test_answer_is_fractions_on_an_integer_program(self):
        # The renderers call format_rational on every answer entry.
        result = self.solved("int")
        assert all(type(v) is F for v in (result.value, *result.x))
        assert [format_rational(v) for v in (result.value, *result.x)] == \
            ["2", "1", "1", "0"]


def checked_step(paths):
    """``exactlp._bareiss_step``, checking every result against the plain
    formula ``(p*x - f*y) / d`` with no remainder, and counting in ``paths``
    which of its three paths it took: clear (f != 0), keep (f = 0, p = d) or
    scale (f = 0, p != d)."""
    step = exactlp._bareiss_step

    def checked(v, pivot):
        col, p, d, row = pivot
        f = v[col]
        result = step(v, pivot)
        assert len(result) == len(v)
        for x, y, got in zip(v, row, result):
            quotient, remainder = divmod(p * x - f * y, d)
            assert remainder == 0 and got == quotient
        paths["clear" if f else "keep" if p == d else "scale"] += 1
        return result

    return checked


class TestBareissStep:
    """The dense elimination step of the subset search, and of the simplex
    on a pivot whose value differs from the previous one (p != d)."""

    def test_echelon_steps_are_exact(self, monkeypatch):
        paths = Counter()
        monkeypatch.setattr(decompose, "_bareiss_step", checked_step(paths))
        rng = random.Random(20261018)
        for _ in range(60):
            n_rows, n_cols = rng.randint(2, 7), rng.randint(2, 7)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5))
                     for _ in range(n_cols)] for _ in range(n_rows)]
            pivots = decompose._echelon(rows)
            assert len(pivots) == np.linalg.matrix_rank(
                np.array(rows, dtype=float))
        assert all(paths[path] for path in ("clear", "keep", "scale")), paths

    def test_search_and_simplex_steps_are_exact(self, monkeypatch):
        # The span test and the tableau call the same step, and both take
        # its scale path.
        search, simplex = Counter(), Counter()
        monkeypatch.setattr(decompose, "_bareiss_step", checked_step(search))
        monkeypatch.setattr(exactlp, "_bareiss_step", checked_step(simplex))
        box = noise_box()
        table = decompose._cell_table(box, decompose._NC)
        result = decompose._min_subset_search(table, 10_000, box,
                                              decompose._NC)
        assert (result.dimension, result.nodes_used) == (4, 47)
        for lp in classify_programs(noisy_peres_box("1/3")):
            solve(lp)
        assert search["scale"] and simplex["scale"]


@pytest.fixture
def checked_pivots(monkeypatch):
    """Checks every ``_Tableau.pivot`` against the dense step on a copy of
    the tableau, ``exactlp._bareiss_step`` on every other row and on the
    cost row, entry for entry; counts in the returned Counter which branch
    each pivot takes: sparse (p = d) or dense (p != d)."""
    branches = Counter()
    pivot = exactlp._Tableau.pivot

    def checked(tableau, row, col):
        rows, cost = copy.deepcopy((tableau.rows, tableau.cost))
        p, d = rows[row][col], tableau.d
        step = (col, p, d, rows[row])
        expected = [v if r == row else exactlp._bareiss_step(v, step)
                    for r, v in enumerate(rows)]
        expected_cost = exactlp._bareiss_step(cost, step)
        if p == d:
            # Each change f*y // d must be exact.
            assert all(divmod(v[col] * y, d)[1] == 0
                       for v in [*rows, cost] for y in rows[row])
        pivot(tableau, row, col)
        assert tableau.rows == expected
        assert tableau.cost == expected_cost
        assert (tableau.basis[row], tableau.d) == (col, p)
        branches["sparse" if p == d else "dense"] += 1

    monkeypatch.setattr(exactlp._Tableau, "pivot", checked)
    return branches


class TestSparsePivot:
    """A pivot equal to the previous one (p = d) changes only the pivot
    row's nonzero columns, in place; every pivot must give the integers
    of the dense step."""

    def test_classify_programs(self, checked_pivots):
        for _, make in CLASSIFY_BOXES:
            classify_programs(make())
        assert checked_pivots["sparse"] and checked_pivots["dense"], \
            checked_pivots

    def test_random_and_degenerate_programs(self, checked_pivots):
        rng = np.random.default_rng(20240817)
        for lp in [CYCLING, REDUNDANT,
                   *(random_program(rng) for _ in range(30))]:
            solve(lp)
        assert checked_pivots["sparse"] and checked_pivots["dense"], \
            checked_pivots
