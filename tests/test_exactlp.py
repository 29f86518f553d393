"""Exact rational linear programming: correctness, degeneracy, cross-checks."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

from boxlab.errors import MalformedProgram
from boxlab.exactlp import LinearProgram, solve


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


class TestDegeneracy:
    def test_classic_cycling_instance_terminates(self):
        # Degenerate instance known to cycle under naive most-negative
        # pivoting; anti-cycling pivots must terminate at value -1/20.
        lp = LinearProgram(
            n=4,
            objective=[F(-3, 4), F(150), F(-1, 50), F(6)],
            maximize=False,
            le_rows=[
                [F(1, 4), F(-60), F(-1, 25), F(9)],
                [F(1, 2), F(-90), F(-1, 50), F(3)],
                [F(0), F(0), F(1), F(0)],
            ],
            le_rhs=[F(0), F(0), F(1)])
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == F(-1, 20)
        check_feasible_exactly(lp, res.x)

    def test_highly_degenerate_equalities(self):
        # Redundant equality copies of the same hyperplane.
        lp = LinearProgram(
            n=3, objective=[F(1), F(2), F(3)], maximize=True,
            eq_rows=[[F(1), F(1), F(1)], [F(2), F(2), F(2)]],
            eq_rhs=[F(1), F(2)])
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


class TestAgainstFloatSolver:
    """Randomized duels against an independent floating-point LP solver."""

    def _random_program(self, rng):
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

    def test_thirty_random_duels(self):
        rng = np.random.default_rng(20240817)
        statuses = set()
        for _ in range(30):
            lp = self._random_program(rng)
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
