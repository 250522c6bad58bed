"""Shared helpers for the test suite."""

import numpy as np
import pytest

from dagsched.dag import Dag


def random_dag(rng, n_max=6, wcet_max=3, p=0.4, wcet_min=0):
    """Small random DAG (forward edges over 0..n-1, so acyclic)."""
    n = int(rng.integers(1, n_max + 1))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    wcets = [int(rng.integers(wcet_min, wcet_max + 1)) for _ in range(n)]
    return Dag(wcets, edges)


def curve_obj(curve, delta) -> int:
    """The carry-out optimum of a `WorkCurve` for any window length: its
    table up to the span, 0 below 1 and the saturated value beyond."""
    return int(curve.values()[min(max(delta, 0), curve.span)])


def diamond(wcets=(1, 2, 3, 1)):
    """s -> {a, b} -> t with the given wcets."""
    return Dag(wcets, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
