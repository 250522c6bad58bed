"""Shared helpers for the test suite."""

import warnings

import numpy as np
import pytest

# When a property test fails, hypothesis's pytest plugin imports
# `hypothesis.extra._patching` to write an example patch.  Where libcst is
# installed, that import warns (DeprecationWarning from
# `mypy_extensions.TypedDict`), and pyproject's "error" filter turns the
# warning into an INTERNALERROR that ends the session before the remaining
# tests run.  Importing it once here, that warning ignored, lets the failure
# be reported like any other; the filter stays as it is for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the patch
        pass

from dagsched.dag import Dag, DagTask, TaskSet
from dagsched.instances import antimonotone_task


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


def carry_in_workload(task, ci_len) -> int:
    """Workload of the last ci_len time units of the full-WCET ASAP schedule:
    per vertex max{0, min(C_k, S_k + C_k - span + ci_len)} with S_k its ASAP
    start; the whole job (work C) fits once ci_len >= span.  The scalar
    reference for the carry-in table of `workload._tables`, built there as a
    sum of ramps."""
    if ci_len < 0:
        raise ValueError("ci_len must be non-negative")
    return sum(max(0, min(c, s + c + ci_len - task.span))
               for s, c in zip(task.dag.starts, task.dag.wcets))


def interference_scenario():
    """Two-processor scenario with a fully scripted interference pattern.

    Eight single-subtask higher-priority tasks release in pairs at times
    0, 4, 7 and 11, occupying both processors for 2, 1, 2 and 2 time units
    respectively.  The analyzed job (`antimonotone_task`, with actual execution
    times (2, 2, 2, 1, 2, 1)) is released at 0 and finishes at 14; its
    critical chain is subtasks (0, 2, 4, 5) and its critical interference
    is the four scripted bursts, 7 time units in total.

    Returns (taskset, processors, release_map, exec_map, analyzed_index).
    """
    bursts = [(0, 2), (0, 2), (4, 1), (4, 1), (7, 2), (7, 2), (11, 2), (11, 2)]
    tasks = []
    release_map = {}
    exec_map = {}
    for idx, (release, wcet) in enumerate(bursts):
        tasks.append(DagTask(Dag([wcet], []), deadline=100, period=100))
        release_map[idx] = [release]
    analyzed = len(bursts)
    tasks.append(antimonotone_task(deadline=15, period=20))
    release_map[analyzed] = [0]
    exec_map[(analyzed, 0)] = (2, 2, 2, 1, 2, 1)
    return TaskSet(tasks, 2), 2, release_map, exec_map, analyzed


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
