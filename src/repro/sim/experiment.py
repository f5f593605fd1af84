"""Experiment orchestration: build systems, run schemes, normalise results.

This is the layer the benchmark harness and the examples drive.  A *scheme*
is a name — ``morphcache``, a static ``(x:y:z)`` label, ``pipp`` or ``dsr``
— that :func:`build_system` turns into a system implementing the engine
protocol; :func:`run_scheme` wires it to a workload and simulates.

:func:`alone_ipcs` provides the per-application alone-run IPCs that the
weighted and fair speedup metrics normalise against (each benchmark run by
itself on the all-shared baseline machine), cached per machine
configuration because mixes share benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig, MorphConfig
from repro.cpu.cmp import CmpSystem
from repro.obs.trace import TraceRecorder
from repro.resilience.faults import FaultPlan
from repro.sim.engine import DEFAULT_ENGINE, RunResult, simulate
from repro.sim.workload import Workload

MORPHCACHE = "morphcache"
PIPP = "pipp"
DSR = "dsr"
UCP = "ucp"


# The baseline systems are imported by their builders: a MorphCache or
# static run never loads them.
def _build_pipp(config, workload, seed, morph):
    from repro.baselines.pipp import PippSystem

    return PippSystem(config, seed=seed)


def _build_dsr(config, workload, seed, morph):
    from repro.baselines.dsr import DsrSystem

    return DsrSystem(config, seed=seed)


def _build_ucp(config, workload, seed, morph):
    from repro.baselines.ucp import UcpSystem

    return UcpSystem(config, seed=seed)


#: Schemes whose systems the batch engine cannot batch
#: (:func:`repro.sim.batch.batch_unsupported`): it runs them on the event
#: engine, several times slower per access than a batched run.
EVENT_ONLY_SCHEMES = frozenset({PIPP, DSR, UCP})

#: Builders for the non-static schemes; static ``(x:y:z)`` labels are
#: recognised structurally.
SCHEME_BUILDERS = {
    MORPHCACHE: lambda config, workload, seed, morph: CmpSystem(
        config,
        morph=morph or MorphConfig(),
        shared_address_space=workload.shared_address_space,
    ),
    PIPP: _build_pipp,
    DSR: _build_dsr,
    UCP: _build_ucp,
}


def build_system(
    scheme: str,
    config: MachineConfig,
    workload: Workload,
    seed: int = 0,
    morph: Optional[MorphConfig] = None,
):
    """Instantiate the system under test for a scheme name."""
    if scheme in SCHEME_BUILDERS:
        return SCHEME_BUILDERS[scheme](config, workload, seed, morph)
    if scheme.startswith("("):
        return CmpSystem(config, static_label=scheme)
    raise ValueError(
        f"unknown scheme {scheme!r}: expected {sorted(SCHEME_BUILDERS)} or a "
        "static '(x:y:z)' label"
    )


def run_scheme(
    scheme: str,
    workload: Workload,
    config: MachineConfig,
    seed: int = 0,
    epochs: Optional[int] = None,
    accesses_per_core: Optional[int] = None,
    warmup_epochs: int = 1,
    morph: Optional[MorphConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_path=None,
    checkpoint_every: int = 5,
    resume: bool = False,
    engine: str = DEFAULT_ENGINE,
    trace_path=None,
    tracer=None,
) -> RunResult:
    """Build the scheme's system and simulate the workload on it.

    ``fault_plan``, ``checkpoint_path``, ``checkpoint_every``, ``resume``
    and ``engine`` pass straight through to
    :func:`repro.sim.engine.simulate`.  ``trace_path`` records the run as a
    JSONL trace (see :mod:`repro.obs.trace`); pass an existing ``tracer``
    instead to keep it open (ring-buffer inspection) — the two are mutually
    exclusive and the path-owned recorder is closed before returning.
    """
    if trace_path is not None and tracer is not None:
        raise ValueError("pass either trace_path or tracer, not both")
    system = build_system(scheme, config, workload, seed=seed, morph=morph)
    owned = TraceRecorder(trace_path) if trace_path is not None else None
    try:
        result = simulate(
            system,
            workload,
            config,
            seed=seed,
            epochs=epochs,
            accesses_per_core=accesses_per_core,
            warmup_epochs=warmup_epochs,
            fault_plan=fault_plan,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume=resume,
            engine=engine,
            tracer=owned if owned is not None else tracer,
        )
    finally:
        if owned is not None:
            owned.close()
    result.scheme_name = scheme
    return result


_ALONE_CACHE: Dict[tuple, float] = {}


def alone_ipc_cached(
    benchmark_name: str,
    config: MachineConfig,
    seed: int = 0,
    epochs: int = 2,
) -> bool:
    """Whether :func:`alone_ipc` for these parameters would be a cache hit."""
    return (benchmark_name, config, seed, epochs) in _ALONE_CACHE


def seed_alone_cache(
    benchmark_name: str,
    config: MachineConfig,
    seed: int,
    epochs: int,
    ipc: float,
) -> None:
    """Populate the alone-run cache with an externally computed IPC.

    This is the bridge for :func:`repro.sim.parallel.prime_alone_ipcs`:
    worker processes each have their *own* copy of ``_ALONE_CACHE``, so the
    parent seeds its cache from worker results rather than relying on any
    cross-process mutation.  The value must come from the same deterministic
    run :func:`alone_ipc` would perform (alone workload on the all-shared
    baseline) or downstream speedup metrics will silently shift.
    """
    _ALONE_CACHE[(benchmark_name, config, seed, epochs)] = ipc


def alone_ipc(
    benchmark_name: str,
    config: MachineConfig,
    seed: int = 0,
    epochs: int = 2,
) -> float:
    """Mean IPC of one benchmark running alone on the all-shared baseline."""
    key = (benchmark_name, config, seed, epochs)
    if key not in _ALONE_CACHE:
        workload = Workload.alone(benchmark_name, cores=config.cores)
        result = run_scheme("(16:1:1)", workload, config, seed=seed, epochs=epochs)
        _ALONE_CACHE[key] = result.mean_ipcs()[0]
    return _ALONE_CACHE[key]


def alone_ipcs(
    benchmark_names: Sequence[str],
    config: MachineConfig,
    seed: int = 0,
    epochs: int = 2,
    jobs: Optional[int] = None,
) -> List[float]:
    """Alone-run IPC for each benchmark, in the given (core) order.

    With ``jobs`` (or ``REPRO_JOBS``) > 1 the missing runs are computed in
    the supervised worker pool via
    :func:`repro.sim.parallel.prime_alone_ipcs` — any runs that complete
    before a failure still land in the cache, so a retried call only
    recomputes the failed benchmark.
    """
    from repro.sim.parallel import prime_alone_ipcs, resolve_jobs

    if resolve_jobs(jobs) > 1:
        primed = prime_alone_ipcs(benchmark_names, config, seed=seed,
                                  epochs=epochs, jobs=jobs)
        return [primed[name] for name in benchmark_names]
    return [alone_ipc(name, config, seed=seed, epochs=epochs)
            for name in benchmark_names]
