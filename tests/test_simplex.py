"""Exact rational simplex."""

from fractions import Fraction

import numpy as np
import pytest

from dagsched import carryout, simplex
from dagsched.dag import Dag, normalize_source_sink
from dagsched.errors import SolverLimitError


def test_textbook_instance():
    # max 2x + 3y s.t. x + y <= 100, 6x + 3y <= 360, x + 2y <= 120
    res = simplex.solve_lp_max(
        [2, 3], [[1, 1], [6, 3], [1, 2]], [100, 360, 120])
    assert res.value == 200
    assert res.x == [Fraction(40), Fraction(40)]


def test_three_variable_instance():
    # max x + 2y - z; optimum (5, 4, 0) with value 13
    res = simplex.solve_lp_max(
        [1, 2, -1],
        [[2, 1, 1], [4, 2, 3], [2, 5, 5]],
        [14, 28, 30])
    assert res.value == 13
    assert res.x == [Fraction(5), Fraction(4), Fraction(0)]


def test_fractional_optimum_is_exact():
    res = simplex.solve_lp_max([1], [[3]], [1])
    assert res.value == Fraction(1, 3)
    assert res.x == [Fraction(1, 3)]


def test_unbounded_detected():
    with pytest.raises(simplex.Unbounded):
        simplex.solve_lp_max([1], [[-1]], [0])


def test_negative_right_hand_side_refused():
    # the all-slack start needs b >= 0; there is no phase I
    with pytest.raises(ValueError, match="non-negative"):
        simplex.solve_lp_max([1], [[1], [1]], [3, -1])


def test_pivot_limit_stops_the_exact_solver(monkeypatch):
    dag = normalize_source_sink(Dag([3, 5, 2, 4], [(0, 1), (0, 2), (1, 3)]))
    model = carryout.build_model(dag, 6)
    pivots = carryout.solve_exact(model).pivots
    assert pivots > 1
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", pivots - 1)
    with pytest.raises(SolverLimitError, match=f"exceeded {pivots - 1} pivots"):
        carryout.solve_exact(model)
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", pivots)
    assert carryout.solve_exact(model).pivots == pivots


def test_degenerate_terminates():
    # multiple tied ratio rows; Bland tie-breaking must not cycle
    res = simplex.solve_lp_max(
        [1, 1], [[1, 0], [1, 0], [0, 1], [1, 1]], [1, 1, 1, 2])
    assert res.value == 2


def test_matches_scipy_on_random_instances(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        c = [int(rng.integers(-3, 6)) for _ in range(n)]
        rows = [[int(rng.integers(-3, 6)) for _ in range(n)] for _ in range(m)]
        rhs = [int(rng.integers(0, 12)) for _ in range(m)]
        rows.append([1] * n)  # keep it bounded
        rhs.append(50)
        res = simplex.solve_lp_max(c, rows, rhs)
        ref = scipy_opt.linprog(
            [-v for v in c], A_ub=rows, b_ub=rhs, bounds=[(0, None)] * n,
            method="highs")
        assert ref.status == 0
        assert abs(float(res.value) + ref.fun) < 1e-7
