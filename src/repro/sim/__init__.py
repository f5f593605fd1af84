"""Simulation harness: workloads onto systems, epoch by epoch.

- :mod:`~repro.sim.workload` — bind benchmarks to cores (multiprogrammed
  mixes, 16-thread PARSEC runs, single-benchmark alone runs).
- :mod:`~repro.sim.engine` — the epoch-driven trace simulation loop.
- :mod:`~repro.sim.oracle` — the one-to-one footprint estimator of Figure 5.
- :mod:`~repro.sim.experiment` — scheme registry, run orchestration and the
  alone-IPC cache used by the speedup metrics.
- :mod:`~repro.sim.parallel` — the process-parallel sweep runner.
- :mod:`~repro.sim.supervisor` — supervised, crash-safe sweep execution:
  timeouts, retries, quarantine, and resumable run journals.

The sweep modules (:mod:`~repro.sim.parallel`, :mod:`~repro.sim.supervisor`)
load on first use of one of their names (PEP 562), so a single run does not
pay for importing the supervisor and its process pool.
"""

import importlib

from repro.sim.workload import Workload
from repro.sim.engine import EpochResult, RunResult, simulate
from repro.sim.oracle import OracleFootprint
from repro.sim.experiment import (
    SCHEME_BUILDERS,
    alone_ipcs,
    build_system,
    run_scheme,
)

#: Names served lazily, by the submodule that defines them.
_LAZY = {
    "RunSpec": "repro.sim.parallel",
    "run_many": "repro.sim.parallel",
    "SweepPolicy": "repro.sim.supervisor",
    "SweepReport": "repro.sim.supervisor",
    "run_supervised": "repro.sim.supervisor",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "Workload",
    "EpochResult",
    "RunResult",
    "simulate",
    "OracleFootprint",
    "SCHEME_BUILDERS",
    "build_system",
    "run_scheme",
    "alone_ipcs",
    "RunSpec",
    "run_many",
    "SweepPolicy",
    "SweepReport",
    "run_supervised",
]
