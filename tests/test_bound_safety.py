"""Analytic workload bounds versus measured simulator behavior.

For schedulable task sets, the workload a higher-priority task places in a
job's scheduling window can never exceed the analytic bound for that window
length, and neither can the measured critical interference (the workload
relation), across release and execution policies.
"""

import numpy as np

from dagsched import rta, sim, workload
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_taskset

POLICY_MIX = [("periodic", "wcet"), ("periodic", "random"),
              ("sporadic", "wcet"), ("sporadic", "random")]


def _segment_time_in(segments, task_index, lo, hi):
    return sum(max(0, min(end, hi) - max(start, lo))
               for _, task, _, _, start, end in segments if task == task_index)


def test_measured_workload_and_interference_below_bound():
    checked_workload = checked_interference = 0
    collected = 0
    idx = 0
    while collected < 25 and idx < 400:
        idx += 1
        cfg = GenConfig(n_range=(3, 7), wcet_range=(1, 9), seed=idx)
        rng = np.random.default_rng(np.random.SeedSequence((77, idx)))
        m = int(rng.integers(2, 6))
        ts = assign_priorities_dm(
            gen_taskset(float(rng.uniform(0.8, 0.5 * m)), m, cfg, rng))
        report = rta.schedulability_test(ts, method="ilp")
        if not report.schedulable:
            continue
        collected += 1
        tables = {}  # one per set, as in its analysis
        horizon = 2 * max(t.period for t in ts.tasks)
        for release, policy in POLICY_MIX:
            res = sim.simulate(ts, m, horizon, release_policy=release,
                               exec_policy=policy,
                               rng=np.random.default_rng((idx, len(release))))
            for job in res.jobs:
                if job.completion is None:
                    continue
                k = job.task_index
                lo, hi = job.release, job.completion
                chain = sim.extract_critical_chain(res, job)
                measured = sim.interference_by_task(res, job, chain)
                for i in range(k):
                    interferer = ts.tasks[i]
                    bound = workload.interfering_workload(
                        interferer, hi - lo, report.bounds[i], m, tables)
                    observed = _segment_time_in(res.segments, i, lo, hi)
                    assert observed <= bound, (
                        f"set {idx} task {i}: workload {observed} in a "
                        f"{hi - lo} window exceeds bound {bound}")
                    checked_workload += 1
                    assert measured[i] <= bound
                    checked_interference += 1
    assert collected == 25
    assert checked_workload > 500 and checked_interference > 500
