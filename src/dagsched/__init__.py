"""Schedulability analysis for sporadic parallel DAG tasks under preemptive
global fixed-priority scheduling.

Submodules:
  dag       task model, DAG algorithms, JSON (de)serialization
  workload  interfering-workload bounds and the per-DAG tables behind them
  carryout  exact carry-out workload optimum (ILP, oracle, flow curve)
  rta       fixed-point response-time bounds and the schedulability test
  taskgen   seeded random task-set generation
  sim       discrete-event G-FP simulator and critical-chain measurements
  cli       command-line harness (generate / analyze / sweep / dump-model /
            simulate)
"""

from .dag import Dag, DagTask, TaskSet, load_taskset, save_taskset
from .rta import AnalysisReport, schedulability_test
from .taskgen import GenConfig, assign_priorities_dm, gen_taskset

__all__ = [
    "Dag", "DagTask", "TaskSet", "load_taskset", "save_taskset",
    "AnalysisReport", "schedulability_test",
    "GenConfig", "assign_priorities_dm", "gen_taskset",
]

__version__ = "0.1.0"
