"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
from types import SimpleNamespace

import pytest

from perfbench import cases, layers, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Returns the queued instants, one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_children_and_leaves():
    tracer = layers.Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 10.0, 12.0))
    root = tracer.begin("run")            # t=0
    first = tracer.begin("epoch")         # t=1
    tracer.leaf("hit", 0.5)               # inside the first epoch
    tracer.end(first)                     # t=3: lasted 2.0
    second = tracer.begin("epoch")        # t=4
    tracer.end(second)                    # t=10: lasted 6.0
    tracer.end(root)                      # t=12: lasted 12.0

    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.total_s("epoch") == 8.0
    assert tracer.self_s("epoch") == pytest.approx(7.5)   # 2.0 - 0.5 + 6.0
    assert tracer.self_s("run") == pytest.approx(4.0)     # 12 - (2 + 6)
    assert tracer.self_s("hit") == 0.5
    assert tracer.calls("hit") == 1
    assert tracer.calls("epoch") == 2
    total_self = sum(tracer.self_s(n) for n in ("run", "epoch", "hit"))
    assert total_self == pytest.approx(tracer.total_s("run"))


def test_epoch_spans_are_tagged_by_tier():
    tracer = layers.Tracer()
    batch = layers._spanned(tracer, layers.EPOCH, lambda: "batch-merged", True)
    event = layers._spanned(tracer, layers.EPOCH, lambda: None, True)
    batch(), batch(), event()
    assert tracer.tiers() == {"batch-merged": 2, "event": 1}
    assert tracer.calls(layers.EPOCH, "batch-merged") == 2


def _observation(digest):
    return SimpleNamespace(fingerprints={"morphcache": (digest, 1.25, 3)})


def test_forced_digest_mismatch_counts_as_failed_run():
    ledger = run.Ledger()
    assert ledger.record("first", lambda: _observation("aa")) is not None
    assert ledger.record("same", lambda: _observation("aa")) is not None
    assert ledger.record("forced", lambda: _observation("bb")) is None
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_raising_run_counts_as_failed_run():
    ledger = run.Ledger()

    def crash():
        raise cases.CheckFailed("quarantined: pipp")

    assert ledger.record("crash", crash) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_traced_run_keeps_tiers_and_digest():
    """In-place patches leave dispatch alone: a subclass would not."""
    from repro.core.acfv import AcfvBank

    case = cases.Case("tiny", "canneal", "tiny")
    original = vars(AcfvBank)["on_hit"]

    def batch_run():
        result, system = cases.run_captured(
            "morphcache", case.repro_workload(), case.config(), 5,
            engine="batch")
        return cases.state_digest(system)

    reference = {}
    with layers.registry_tiers(reference):
        digest = batch_run()
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert vars(AcfvBank)["on_hit"] is not original
        traced_digest = batch_run()
    assert vars(AcfvBank)["on_hit"] is original
    assert traced_digest == digest
    assert tracer.tiers() == reference
    assert "batch-general" not in reference
    assert tracer.calls(layers.ON_HIT) > 0


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(cases.CASES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert set(layers.summarise(layers.Tracer())) <= {
        name for name, _, _ in layers.PER_LAYER}


class FakeHost:
    """A host whose slowdown over each run is queued in advance."""

    def __init__(self, *slowdowns):
        self.slowdowns = list(slowdowns)

    def mark(self):
        return 0

    def slowdown(self, since):
        return self.slowdowns.pop(0)


def test_timed_runs_scale_each_run_by_its_own_slowdown():
    ledger = run.Ledger()
    outcome = SimpleNamespace(accesses_per_s=1000.0,
                              fingerprints={"morphcache": ("aa", 1.0, 0)})
    timed = run.timed_runs(ledger, "x", lambda: outcome, 0.0,
                           FakeHost(1.25))
    assert [t.outcome for t in timed] == [outcome]
    assert timed[0].rate(outcome.accesses_per_s) == 1250.0


def test_host_slowdown_is_mean_probe_over_reference():
    from perfbench import hostspeed

    host = hostspeed.HostSpeed()
    host._samples = [1.0 * hostspeed.REFERENCE_S, 3.0 * hostspeed.REFERENCE_S]
    assert host.slowdown(0) == pytest.approx(2.0)
    assert host.slowdown(1) == pytest.approx(3.0)
    assert host.slowdown(2) > 0   # no sample since the mark: probes now
