"""The benchmark's workloads, and how one run of each is made and checked.

Every run goes through the program's public entry points with the
program's defaults, engine included: single runs through
:func:`repro.sim.experiment.run_scheme`, the sweep through
:func:`repro.sim.supervisor.run_supervised`.  What a run produces besides
its timing is a *fingerprint* per scheme -- ``(state digest, mean
throughput, reconfiguration count)`` -- which must repeat exactly across
runs of the same seed and across engines.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.config import MachineConfig, preset
from repro.resilience.checkpoint import state_digest
from repro.sim import experiment
from repro.sim.engine import ENGINES
from repro.sim.experiment import run_scheme
from repro.sim.workload import Workload

#: The Fig 13/17 scheme set: the five statics, MorphCache, PIPP and DSR.
SWEEP_SCHEMES = ("(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)", "(1:16:1)",
                 "morphcache", "pipp", "dsr")
SWEEP_WORKERS = 2

#: Per-core hierarchy counters summed into the ``caches.*`` layer metrics.
COUNT_FIELDS = ("l1_hits", "l2_local_hits", "l2_remote_hits",
                "l3_local_hits", "l3_remote_hits", "memory_accesses",
                "coherence_invalidations")

def metric_name(scheme: str) -> str:
    """``(16:1:1)`` -> ``16-1-1``: metric names allow no parentheses or colons."""
    return scheme.strip("()").replace(":", "-")


class Fingerprint(NamedTuple):
    """What a run of one scheme must reproduce exactly for its seed."""

    digest: str
    mean_throughput: float
    reconfigurations: Optional[int]


class CheckFailed(Exception):
    """A run's output disagreed with what it must be."""


@dataclass(frozen=True)
class Case:
    """One benchmark workload: a repro workload on a machine, run one way."""

    name: str
    workload: str
    preset: str
    accesses_per_core: Optional[int] = None
    epochs: Optional[int] = None
    checkpoint: bool = False
    sweep: bool = False

    def config(self) -> MachineConfig:
        changes = {}
        if self.accesses_per_core is not None:
            changes["accesses_per_core_per_epoch"] = self.accesses_per_core
        if self.epochs is not None:
            changes["epochs"] = self.epochs
        return preset(self.preset).with_(**changes)

    def repro_workload(self) -> Workload:
        return Workload.from_name(self.workload)

    def accesses(self) -> int:
        """Simulated memory accesses of one run, warm-up epoch included."""
        config = self.config()
        per_run = (config.accesses_per_core_per_epoch
                   * len(self.repro_workload().active_cores)
                   * (config.epochs + 1))
        return per_run * (len(SWEEP_SCHEMES) if self.sweep else 1)


CASES: Dict[str, Case] = {case.name: case for case in (
    # Full Table 3 geometry with a shortened epoch, checkpointing every
    # epoch as a user protecting a long paper-scale run would.
    Case("mix01-paper-ckpt", "MIX 01", "paper", accesses_per_core=5000,
         epochs=2, checkpoint=True),
    # The Fig 13/17 benchmarks' machine (benchmarks/common.py) at half
    # their epoch length, so that several sweeps fit one timed window.
    Case("mix01-sweep", "MIX 01", "small", accesses_per_core=1000, epochs=3,
         sweep=True),
)}


def default_engine() -> str:
    """The engine ``run_scheme`` uses when none is named."""
    return inspect.signature(run_scheme).parameters["engine"].default


def other_engine() -> str:
    return next(engine for engine in ENGINES if engine != default_engine())


def hierarchy_counts(system) -> Dict[str, int]:
    """Summed per-core hierarchy counters; empty for PIPP/DSR."""
    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is None:
        return {}
    return {name: sum(getattr(stats, name)
                      for stats in hierarchy.stats.cores.values())
            for name in COUNT_FIELDS}


def run_captured(scheme: str, workload: Workload, config: MachineConfig,
                 seed: int, **kwargs):
    """``run_scheme``, also returning the system it built.

    The system is captured by wrapping ``build_system`` where
    ``run_scheme`` looks it up, so the run itself is unchanged.
    """
    systems: List[object] = []
    build = experiment.build_system

    def capture(*args, **kw):
        system = build(*args, **kw)
        systems.append(system)
        return system

    experiment.build_system = capture
    try:
        result = run_scheme(scheme, workload, config, seed=seed, **kwargs)
    finally:
        experiment.build_system = build
    return result, systems[0]


@dataclass
class Observation:
    """What one run of a case produced."""

    wall_s: float
    accesses: int
    fingerprints: Dict[str, Fingerprint]
    counts: Dict[str, int] = field(default_factory=dict)
    report: object = None
    """The sweep's :class:`~repro.sim.supervisor.SweepReport`."""
    trace_bytes: int = 0
    journal_bytes: int = 0

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.wall_s


def run_single(case: Case, seed: int, workdir: str,
               engine: Optional[str] = None) -> Observation:
    """One MorphCache run of ``case`` (default engine unless named)."""
    kwargs = {} if engine is None else {"engine": engine}
    ckpt = os.path.join(workdir, f"{case.name}.ckpt")
    if case.checkpoint:
        kwargs.update(checkpoint_path=ckpt, checkpoint_every=1)
    start = time.perf_counter()
    result, system = run_captured("morphcache", case.repro_workload(),
                                  case.config(), seed, **kwargs)
    wall = time.perf_counter() - start
    digest = state_digest(system)
    if case.checkpoint:
        with open(ckpt, encoding="utf-8") as fh:
            saved = json.load(fh)["state_digest"]
        if saved != digest:
            raise CheckFailed(f"final checkpoint digest {saved[:12]} differs "
                              f"from the system's {digest[:12]}")
    if len(result.epochs) != case.config().epochs:
        raise CheckFailed(f"{len(result.epochs)} epochs recorded, expected "
                          f"{case.config().epochs}")
    return Observation(
        wall_s=wall, accesses=case.accesses(),
        fingerprints={"morphcache": Fingerprint(
            digest, result.mean_throughput,
            system.controller.reconfigurations)},
        counts=hierarchy_counts(system))


def sweep_specs(case: Case, seed: int, workdir: str) -> list:
    from repro.sim.parallel import RunSpec

    return [RunSpec(scheme=scheme, workload=case.repro_workload(),
                    config=case.config(), seed=seed,
                    trace_path=os.path.join(workdir, f"sweep-{i}.jsonl"))
            for i, scheme in enumerate(SWEEP_SCHEMES)]


def run_sweep(case: Case, seed: int, workdir: str,
              worker=None) -> Observation:
    """The scheme sweep under the supervisor, each spec writing its trace.

    ``worker`` replaces the supervisor's per-spec callable (the traced and
    reference runs pass one that also records layer data).
    """
    from repro.obs.trace import load_trace
    from repro.sim.supervisor import run_supervised

    specs = sweep_specs(case, seed, workdir)
    journal = os.path.join(workdir, "sweep.journal")
    kwargs = {} if worker is None else {"worker": worker}
    start = time.perf_counter()
    report = run_supervised(specs, jobs=SWEEP_WORKERS, journal=journal,
                            **kwargs)
    wall = time.perf_counter() - start
    if report.quarantined:
        raise CheckFailed("quarantined: " + "; ".join(
            f"{specs[i].scheme} ({report.outcomes[i].error})"
            for i in report.quarantined))
    fingerprints = {}
    for spec, result in zip(specs, report.results):
        footer = load_trace(spec.trace_path)[-1]
        if (footer.get("kind") != "run-end"
                or footer["mean_throughput"] != result.mean_throughput):
            raise CheckFailed(f"{spec.scheme}: trace footer disagrees with "
                              "the sweep's result")
        fingerprints[spec.scheme] = Fingerprint(
            footer["digest"], result.mean_throughput,
            footer.get("reconfigurations"))
    return Observation(
        wall_s=wall, accesses=case.accesses(), fingerprints=fingerprints,
        report=report,
        trace_bytes=sum(os.path.getsize(s.trace_path) for s in specs),
        journal_bytes=os.path.getsize(journal))


def run_case(case: Case, seed: int, workdir: str) -> Observation:
    """One timed run of ``case`` with the program's defaults."""
    if case.sweep:
        return run_sweep(case, seed, workdir)
    return run_single(case, seed, workdir)
