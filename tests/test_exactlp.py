"""Exact rational linear programming: correctness, degeneracy, cross-checks."""

import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

import fixtures as fx
from boxlab import decompose, exactlp
from boxlab.boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from boxlab.errors import MalformedProgram
from boxlab.exactlp import INFEASIBLE, OPTIMAL, LinearProgram, LPResult, solve
from boxlab.scenario import mix_boxes
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
    """Dense simplex tableau with Bland's rule, kept exact with Fractions.
    Records every pivot as ``(row, col)``."""

    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.pivots = []

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
        while True:
            basic_cost = [cost[self.basis[r]] for r in range(m)]
            entering = -1
            for j in range(self.ncols):
                if not allowed[j] or j in self.basis:
                    continue
                reduced = cost[j] - sum(basic_cost[r] * self.rows[r][j]
                                        for r in range(m))
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return
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
            self.pivot(leaving, entering)


def fraction_solve(lp):
    """The two-phase rational simplex: ``(LPResult, pivots)``."""
    n, nslack = lp.n, len(lp.le_rows)
    rows = [[F(v) for v in row] + [F(0)] * nslack for row in lp.eq_rows]
    rhs = [F(v) for v in lp.eq_rhs]
    for k, row in enumerate(lp.le_rows):
        rows.append([F(v) for v in row] +
                    [F(int(i == k)) for i in range(nslack)])
        rhs.append(F(lp.le_rhs[k]))
    width, m = n + nslack, len(rows)
    for r in range(m):
        if rhs[r] < 0:
            rows[r], rhs[r] = [-v for v in rows[r]], -rhs[r]
        rows[r] += [F(int(i == r)) for i in range(m)]
    total = width + m
    tableau = FractionTableau(rows, rhs, [width + r for r in range(m)], total)
    tableau.run_simplex([F(0)] * width + [F(1)] * m, [True] * total)
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
    tableau.run_simplex(cost, [True] * width + [False] * m)
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


def assert_same_as_reference(lp, integer_pivots):
    pivots, _ = integer_pivots
    del pivots[:]
    expected, expected_pivots = fraction_solve(lp)
    assert solve(lp) == expected
    assert pivots == expected_pivots


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
    Peres strength and Bell-local membership (``skip_dims``), plus the NC
    membership the dimension search adds."""
    programs = []

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
        assert len(programs) == 4
        for lp in programs:
            assert_same_as_reference(lp, integer_pivots)

    def test_relabelled_mixtures_reach_infeasible_peres_strength(self):
        for name, make in CLASSIFY_BOXES:
            if name.startswith("relabelled"):
                assert classify(make(), skip_dims=True).peres_strength is None

    def test_negative_drive_out_pivot_runs(self, integer_pivots):
        # A negative integer pivot only happens while driving a zero-level
        # artificial out of the basis; it must flip the tableau's sign.
        _, negative = integer_pivots
        for lp in classify_programs(noise_box()):
            assert_same_as_reference(lp, integer_pivots)
        assert negative

    def test_random_and_degenerate_programs(self, integer_pivots):
        rng = np.random.default_rng(20240817)
        programs = [CYCLING, REDUNDANT,
                    *(random_program(rng) for _ in range(30))]
        for lp in programs:
            assert_same_as_reference(lp, integer_pivots)


class TestInfeasibilityCertificate:
    def certificate(self, lp, monkeypatch):
        """``(rows, rhs, y)`` handed to the Farkas check by ``solve``."""
        seen = []
        check = exactlp._verify_infeasibility

        def recording(rows, rhs, y):
            seen.append((rows, rhs, y))
            check(rows, rhs, y)

        with monkeypatch.context() as mp:
            mp.setattr(exactlp, "_verify_infeasibility", recording)
            assert solve(lp).status == INFEASIBLE
        (found,) = seen
        return found

    @staticmethod
    def holds(rows, rhs, y):
        return (all(sum(a * row[j] for a, row in zip(y, rows)) <= 0
                    for j in range(len(rows[0])))
                and sum(a * b for a, b in zip(y, rhs)) > 0)

    def test_perturbed_certificates_are_rejected(self, monkeypatch):
        # The Peres-strength and NC-membership LPs of a contextual box.
        box = parity_mixture(random.Random(1), RELABELLED, F(7, 8), F(1))
        infeasible = [lp for lp in classify_programs(box)
                      if solve(lp).status == INFEASIBLE]
        assert len(infeasible) == 2
        for lp in infeasible:
            self.check_perturbations(*self.certificate(lp, monkeypatch))

    def check_perturbations(self, rows, rhs, y):
        assert self.holds(rows, rhs, y)
        rng = random.Random(20261018)
        rejected = 0
        for _ in range(40):
            bad = list(y)
            for r in rng.sample(range(len(y)), 3):
                bad[r] += rng.randint(-2, 2) * max(abs(v) for v in y)
            if self.holds(rows, rhs, bad):
                exactlp._verify_infeasibility(rows, rhs, bad)
                continue
            rejected += 1
            with pytest.raises(AssertionError, match="certificate"):
                exactlp._verify_infeasibility(rows, rhs, bad)
        assert rejected >= 30
        with pytest.raises(AssertionError, match="y.b"):
            exactlp._verify_infeasibility(rows, rhs, [0] * len(y))

    def test_negated_certificate_is_rejected(self, monkeypatch):
        lp = LinearProgram(n=1, objective=[F(1)], maximize=True,
                           le_rows=[[F(1)]], le_rhs=[F(-1)])
        rows, rhs, y = self.certificate(lp, monkeypatch)
        assert self.holds(rows, rhs, y)
        with pytest.raises(AssertionError, match="column 0"):
            exactlp._verify_infeasibility(rows, rhs, [-v for v in y])


class TestSolutionCheck:
    """``_verify_solution`` on a small program, with ``x`` corrupted to hit
    each of its four checks."""

    # max x0 + x1  s.t.  x0 + x1 + x2 = 2,  x0 <= 1,  x >= 0.
    OBJECTIVE = [F(1), F(1), F(0)]
    EQ_ROWS, EQ_RHS = [[F(1), F(1), F(1)]], [F(2)]
    LE_ROWS, LE_RHS = [[F(1), F(0), F(0)]], [F(1)]

    def check(self, x, value):
        exactlp._verify_solution(self.OBJECTIVE, self.EQ_ROWS, self.EQ_RHS,
                                 self.LE_ROWS, self.LE_RHS,
                                 [F(v) for v in x], F(value))

    def test_optimum_passes(self):
        lp = LinearProgram(n=3, objective=self.OBJECTIVE,
                           eq_rows=self.EQ_ROWS, eq_rhs=self.EQ_RHS,
                           le_rows=self.LE_ROWS, le_rhs=self.LE_RHS)
        result = solve(lp)
        assert result.value == 2
        self.check(result.x, result.value)
        self.check([1, 1, 0], 2)

    @pytest.mark.parametrize("x, value, message", [
        ([2, 1, -1], 3, "negative variable"),
        ([1, 0, 0], 1, "violates an equality"),
        ([2, 0, 0], 2, "violates an inequality"),
        ([1, 1, 0], 3, "objective value mismatch"),
        ([0, 0, 2], 1, "objective value mismatch"),
    ])
    def test_corrupted_solution_is_rejected(self, x, value, message):
        with pytest.raises(AssertionError, match=message):
            self.check(x, value)


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
    """The one elimination step the simplex and the subset search share."""

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
