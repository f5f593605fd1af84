"""Per-layer tracing from outside the program.

A :class:`Tracer` records one span per call into each layer's public
function: name, start, end and the index of the span that was open when it
began (its parent).  Spans stay in memory and are written out when the
benchmark ends (:meth:`Tracer.to_json`).  A span's *self time* is its
duration minus the durations of its children.

:func:`installed` patches the layer functions **in place**, each under the
name its caller looks it up by (``repro.sim.engine.run_epoch``, not
``repro.sim.batch.run_epoch``; a class attribute for methods).  Never a
subclass: the batch engine checks ``type(observer) is AcfvBank`` before
choosing a kernel, so a subclass wrapper would silently move epochs to
``batch-general`` and measure a different program.

``AcfvBank.on_hit`` runs once per L2/L3 hit, too often for one span per
call, so it is an aggregated *leaf*: a call count and a total time, with
the time also charged to the enclosing span's children.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional

from perfbench import cases

#: Dispatch tiers named by ``run_epoch_batch``; ``event`` is also the tag
#: of every epoch run by the event engine's ``run_epoch``.
TIERS = ("event", "batch-private-percore", "batch-private", "batch-merged",
         "batch-shared", "batch-general")
EPOCH = "sim.epoch"
ON_HIT = "core.acfv.on_hit"


class LayerRun(NamedTuple):
    """One traced (or reference) run and what it recorded."""

    observation: "cases.Observation"
    fields: Dict[str, float]
    """Additive per-layer fields (:func:`summarise`), summed over specs."""
    tiers: Dict[str, int]
    """Epochs per dispatch tier."""
    spans: List[Dict]
    """:meth:`Tracer.to_json` of each traced process run."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "child_s")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.tag: Optional[str] = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.leaves: Dict[str, List[float]] = {}  # name -> [calls, seconds]
        self._open: List[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    def leaf(self, name: str, seconds: float) -> None:
        totals = self.leaves.setdefault(name, [0, 0.0])
        totals[0] += 1
        totals[1] += seconds
        if self._open:
            self.spans[self._open[-1]].child_s += seconds

    def self_s(self, name: str, tag: Optional[str] = None) -> float:
        """Summed self time of the named spans (optionally one tag)."""
        if name in self.leaves:
            return self.leaves[name][1]
        return sum(s.self_s for s in self.spans
                   if s.name == name and (tag is None or s.tag == tag))

    def total_s(self, name: str) -> float:
        """Summed duration of the named spans, children included."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str, tag: Optional[str] = None) -> int:
        if name in self.leaves:
            return int(self.leaves[name][0])
        return sum(1 for s in self.spans
                   if s.name == name and (tag is None or s.tag == tag))

    def tiers(self) -> Dict[str, int]:
        """Epochs per dispatch tier, from the epoch spans' tags."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            if span.name == EPOCH:
                counts[span.tag] = counts.get(span.tag, 0) + 1
        return counts

    def to_json(self) -> Dict:
        """Every span as ``[name, start, end, parent, tag]``, plus leaves."""
        return {"spans": [[s.name, s.start, s.end, s.parent, s.tag]
                          for s in self.spans],
                "leaves": self.leaves}


def _spanned(tracer: Tracer, name: str, fn, tagged: bool):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if tagged:  # run_epoch returns None; run_epoch_batch its tier
            span.tag = result or "event"
        return result

    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    clock = tracer.clock

    def wrapper(*args):
        start = clock()
        fn(*args)
        tracer.leaf(name, clock() - start)

    return wrapper


def _targets():
    """``(owner, attribute, span name)`` for every patched layer entry."""
    # Imported here, not at module level: an untraced run loads this module
    # for its metric table and must not import the batch engine.
    import repro.resilience.checkpoint as checkpoint
    import repro.sim.batch as batch
    import repro.sim.engine as engine
    from repro.caches.hierarchy import CacheHierarchy
    from repro.core.controller import MorphCacheController
    from repro.core.decisions import DecisionEngine
    from repro.workloads.synthetic import SyntheticThread

    return [
        (SyntheticThread, "generate", "workloads.generate"),
        (engine, "run_epoch", EPOCH),
        (batch, "run_epoch_batch", EPOCH),
        (MorphCacheController, "end_epoch", "core.controller.end_epoch"),
        (DecisionEngine, "decide", "core.decisions.decide"),
        (CacheHierarchy, "set_topology", "caches.set_topology"),
        (engine, "save_checkpoint", "resilience.checkpoint.save"),
        (checkpoint, "state_digest", "resilience.checkpoint.digest"),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every layer entry point to record into ``tracer``."""
    from repro.core.acfv import AcfvBank

    saved = []
    try:
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(tracer, name, original,
                                          tagged=name == EPOCH))
        saved.append((AcfvBank, "on_hit", vars(AcfvBank)["on_hit"]))
        AcfvBank.on_hit = _leaf(tracer, ON_HIT, AcfvBank.on_hit)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def registry_tiers(out: Dict[str, int]):
    """Fill ``out`` with the program's own per-tier epoch counts.

    Reads the ``repro_sim_epochs_total`` and ``repro_batch_epochs_total``
    counters, a witness independent of the tracer's patches: epochs the
    batch engine did not see ran on the event engine.
    """
    from repro.obs.metrics import REGISTRY

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield out
        dump = REGISTRY.dump_json()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()

    def series(metric):
        return dump.get(metric, {"series": []})["series"]

    total = sum(int(s["value"]) for s in series("repro_sim_epochs_total"))
    for entry in series("repro_batch_epochs_total"):
        tier = entry["labels"]["tier"]
        out[tier] = out.get(tier, 0) + int(entry["value"])
        total -= int(entry["value"])
    if total:
        out["event"] = out.get("event", 0) + total


def summarise(tracer: Tracer) -> Dict[str, float]:
    """The tracer's layer totals, as the additive fields of one run."""
    fields = {
        "sim.run_s": tracer.total_s("sim.run"),
        "sim.other_s": tracer.self_s("sim.run"),
        "workloads.generate_s": tracer.self_s("workloads.generate"),
        "workloads.generate_calls": tracer.calls("workloads.generate"),
        "sim.epoch_s": tracer.self_s(EPOCH),
        "sim.kernel_s": tracer.total_s(EPOCH),
        "core.acfv.on_hit_calls": tracer.calls(ON_HIT),
        "core.acfv.on_hit_s": tracer.self_s(ON_HIT),
        "core.controller.end_epoch_s":
            tracer.self_s("core.controller.end_epoch"),
        "core.decisions.decide_s": tracer.self_s("core.decisions.decide"),
        "caches.set_topology_s": tracer.self_s("caches.set_topology"),
        "resilience.checkpoint.save_s":
            tracer.self_s("resilience.checkpoint.save"),
        "resilience.checkpoint.digest_s":
            tracer.self_s("resilience.checkpoint.digest"),
        "resilience.checkpoint.saves":
            tracer.calls("resilience.checkpoint.save"),
    }
    for tier in TIERS:
        fields[f"sim.epoch_s.{tier}"] = tracer.self_s(EPOCH, tier)
        fields[f"sim.epochs.{tier}"] = tracer.calls(EPOCH, tier)
    return fields


def traced_single(case, seed: int, workdir: str) -> LayerRun:
    """One traced run of a single-run case."""
    tracer = Tracer()
    with installed(tracer), tracer.span("sim.run"):
        observation = cases.run_single(case, seed, workdir)
    return LayerRun(observation, summarise(tracer), tracer.tiers(),
                    [tracer.to_json()])


def reference_single(case, seed: int, workdir: str) -> LayerRun:
    """One untraced run with the program's tier counters on."""
    tiers: Dict[str, int] = {}
    with registry_tiers(tiers):
        observation = cases.run_single(case, seed, workdir)
    return LayerRun(observation, {}, tiers, [])


# -- sweep workers: run one spec in a pool worker, leave layer data beside
# -- its trace file (the parent reads it back after the sweep) -------------

def _side_path(spec, kind: str) -> str:
    return f"{spec.trace_path}.{kind}.json"


def _run_spec(spec):
    return cases.run_captured(spec.scheme, spec.workload, spec.config,
                              spec.seed, engine=spec.engine,
                              trace_path=spec.trace_path)


def traced_worker(spec):
    """Sweep worker recording the spec's layer split."""
    tracer = Tracer()
    with installed(tracer), tracer.span("sim.run"):
        result, system = _run_spec(spec)
    with open(_side_path(spec, "layers"), "w", encoding="utf-8") as fh:
        json.dump({"fields": summarise(tracer), "tiers": tracer.tiers(),
                   "counts": cases.hierarchy_counts(system),
                   "spans": tracer.to_json()}, fh)
    return result


def reference_worker(spec):
    """Sweep worker recording the program's own tier counts."""
    tiers: Dict[str, int] = {}
    with registry_tiers(tiers):
        result, _ = _run_spec(spec)
    with open(_side_path(spec, "tiers"), "w", encoding="utf-8") as fh:
        json.dump(tiers, fh)
    return result


def _add(into: Dict, values: Dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def traced_sweep(case, seed: int, workdir: str) -> LayerRun:
    """One traced sweep, fields and tiers summed over its specs."""
    observation = cases.run_sweep(case, seed, workdir, worker=traced_worker)
    fields: Dict[str, float] = {}
    tiers: Dict[str, int] = {}
    spans = []
    for spec in cases.sweep_specs(case, seed, workdir):
        with open(_side_path(spec, "layers"), encoding="utf-8") as fh:
            side = json.load(fh)
        os.remove(_side_path(spec, "layers"))
        _add(fields, side["fields"])
        _add(tiers, side["tiers"])
        _add(observation.counts, side["counts"])
        spans.append(side["spans"])
    return LayerRun(observation, fields, tiers, spans)


def reference_sweep(case, seed: int, workdir: str) -> LayerRun:
    observation = cases.run_sweep(case, seed, workdir,
                                  worker=reference_worker)
    tiers: Dict[str, int] = {}
    for spec in cases.sweep_specs(case, seed, workdir):
        with open(_side_path(spec, "tiers"), encoding="utf-8") as fh:
            _add(tiers, json.load(fh))
        os.remove(_side_path(spec, "tiers"))
    return LayerRun(observation, {}, tiers, [])


#: ``(name, unit, better)`` of every per-layer metric ``--trace 1`` prints,
#: in BENCHMARK.json's order.  A layer a workload does not exercise reads 0.
PER_LAYER = (
    [("sim.run_s", "s", "lower"),
     ("sim.other_s", "s", "lower"),
     ("workloads.generate_s", "s", "lower"),
     ("workloads.generate_calls", "count", "lower"),
     ("sim.kernel_s", "s", "lower"),
     ("sim.epoch_s", "s", "lower"),
     ("sim.kernel_accesses_per_s", "1/s", "higher")]
    + [(f"sim.epoch_s.{tier}", "s", "lower") for tier in TIERS]
    + [(f"sim.epochs.{tier}", "count",
        "lower" if tier in ("event", "batch-general") else "higher")
       for tier in TIERS]
    + [("core.acfv.on_hit_calls", "count", "lower"),
       ("core.acfv.on_hit_s", "s", "lower"),
       ("core.controller.end_epoch_s", "s", "lower"),
       ("core.decisions.decide_s", "s", "lower"),
       ("caches.set_topology_s", "s", "lower"),
       ("core.controller.reconfigurations", "count", "lower"),
       ("resilience.checkpoint.save_s", "s", "lower"),
       ("resilience.checkpoint.digest_s", "s", "lower"),
       ("resilience.checkpoint.saves", "count", "lower")]
    + [(f"sim.supervisor.run_s.{cases.metric_name(scheme)}", "s", "lower")
       for scheme in cases.SWEEP_SCHEMES]
    + [("sim.supervisor.wall_s", "s", "lower"),
       ("sim.supervisor.busy_s", "s", "lower"),
       ("sim.supervisor.utilization", "ratio", "higher"),
       ("sim.supervisor.critical_run_s", "s", "lower"),
       ("obs.trace_bytes", "bytes", "lower"),
       ("sim.supervisor.journal_bytes", "bytes", "lower")]
    + [(f"caches.{name}", "count",
        "lower" if name in ("memory_accesses", "coherence_invalidations")
        else "higher") for name in cases.COUNT_FIELDS]
    + [("sim.throughput_ipc", "ipc", "higher"),
       ("sweep.morph_over_16_1_1", "ratio", "higher"),
       ("sweep.morph_over_pipp", "ratio", "higher"),
       ("sweep.morph_over_dsr", "ratio", "higher"),
       ("trace_overhead", "ratio", "higher"),
       ("host.accesses_per_s", "1/s", "higher"),
       ("host.slowdown", "ratio", "lower")]
)
