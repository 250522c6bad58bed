"""Golden outputs: desk- and paper-scale sweep CSVs and per-set analysis reports.

Any change that alters a bound, a verdict or a CSV byte fails here.  A
change meant to alter these outputs re-pins the digests and says why.
"""

import hashlib
import json

import numpy as np

from dagsched import rta
from dagsched.cli import ExperimentSpec, run_experiment
from dagsched.taskgen import GenConfig, assign_priorities_dm, gen_taskset

SWEEP_SHA256 = "57ec116d5d69a206421c2ae0d965ba266896d97acca60df1de2515ec382f6ac2"
PAPER_SWEEP_SHA256 = "b37b5340cfb766037a5a4aadb2a7b4f284d81879d566043d1f28d4c4757fd77b"
REPORTS_SHA256 = "b457d88704f7eafe6a9aae8e11c4e95f2a2384abc183173c943cad59165ade88"

# (total utilization, processors, seed) of desk-scale sets: both methods
# accept, only ilp accepts, and both fail after fixed-point iterations
ANALYZED_SETS = [(1.0, 4, 8), (2.0, 4, 6), (2.0, 4, 11), (2.0, 8, 10),
                 (3.0, 8, 5), (3.0, 8, 10), (4.0, 16, 6), (4.0, 16, 10)]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_desk_sweep_csv_digest():
    spec = ExperimentSpec(sets_per_point=20, seed=0, zero_timing=True)
    text = "\n".join(run_experiment(spec)) + "\n"
    assert _sha256(text) == SWEEP_SHA256


def test_paper_scale_sweep_csv_digest():
    # paper-scale DAG sizes reach the larger graphs of generation and the flow
    spec = ExperimentSpec(sets_per_point=5, n_range=(10, 20), seed=0, zero_timing=True)
    text = "\n".join(run_experiment(spec)) + "\n"
    assert _sha256(text) == PAPER_SWEEP_SHA256


def test_analysis_reports_digest():
    config = GenConfig(n_range=(5, 10))
    docs = []
    for util, m, seed in ANALYZED_SETS:
        rng = np.random.default_rng(seed)
        ts = assign_priorities_dm(gen_taskset(util, m, config, rng))
        for method in rta.METHODS:
            doc = rta.schedulability_test(ts, method=method).to_dict()
            del doc["wall_time_s"]
            docs.append(doc)
    assert _sha256(json.dumps(docs, sort_keys=True)) == REPORTS_SHA256
