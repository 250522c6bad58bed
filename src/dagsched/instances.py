"""Reference instances used by the documentation and the test suite."""

from __future__ import annotations

from .dag import Dag, DagTask

#: 6-subtask task (work 13, span 8) whose window-3 carry-out workload rises
#: from 4 (all subtasks at full WCET) to 7 when the first subtask finishes
#: immediately: shrinking one execution time increases the bound, which is
#: why the carry-out optimum must search over execution times.
ANTIMONOTONE_WCETS = (2, 4, 2, 1, 3, 1)
ANTIMONOTONE_EDGES = ((0, 1), (0, 2), (2, 3), (2, 4), (1, 5), (3, 5), (4, 5))


def antimonotone_task(deadline=15, period=20) -> DagTask:
    return DagTask(Dag(ANTIMONOTONE_WCETS, ANTIMONOTONE_EDGES), deadline, period)
