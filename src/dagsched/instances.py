"""Reference instances used by the documentation and the test suite."""

from __future__ import annotations

from .dag import Dag, DagTask, TaskSet

#: 6-subtask task (work 13, span 8) whose window-3 carry-out workload rises
#: from 4 (all subtasks at full WCET) to 7 when the first subtask finishes
#: immediately: shrinking one execution time increases the bound, which is
#: why the carry-out optimum must search over execution times.
ANTIMONOTONE_WCETS = (2, 4, 2, 1, 3, 1)
ANTIMONOTONE_EDGES = ((0, 1), (0, 2), (2, 3), (2, 4), (1, 5), (3, 5), (4, 5))


def antimonotone_task(deadline=15, period=20) -> DagTask:
    return DagTask(Dag(ANTIMONOTONE_WCETS, ANTIMONOTONE_EDGES), deadline, period)


def interference_scenario():
    """Two-processor scenario with a fully scripted interference pattern.

    Eight single-subtask higher-priority tasks release in pairs at times
    0, 4, 7 and 11, occupying both processors for 2, 1, 2 and 2 time units
    respectively.  The analyzed job (the task above, with actual execution
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
