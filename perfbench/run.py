"""Benchmark runner: end-to-end simulator throughput, with a traced layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, in turn

Runs from the root of a checkout; needs only the source under ``src/``.
With ``--trace 0`` it measures the end-to-end metrics
(``norm_accesses_per_s``, ``setup_s``, ``peak_rss_mb``) with tracing off;
with ``--trace 1`` it measures the per-layer metrics from a separate traced
run.  Throughput is scaled by the host's speed while each run ran, sampled
by ``hostspeed.py``.  Either way it
checks the outputs and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")

#: The workload seed used when none is given (the paper's year).
DEFAULT_SEED = 2011
#: Fresh processes timed for ``setup_s`` before and again after the timed
#: runs; the median of all of them is reported.
SETUP_REPEATS = 4

END_TO_END = (("norm_accesses_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: MorphCache's mean throughput over these sweep schemes' (Figs 13, 17).
SWEEP_RATIOS = {"sweep.morph_over_16_1_1": "(16:1:1)",
                "sweep.morph_over_pipp": "pipp",
                "sweep.morph_over_dsr": "dsr"}


def median_and_spread(values):
    """The median and the quartile distance as a share of it."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid


class Ledger:
    """Counts runs attempted and failed, and checks each run's outputs.

    Every run of one invocation uses the same seed, so every run's
    fingerprints (digest, mean throughput, reconfigurations per scheme)
    must equal the first successful run's, whatever the engine.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def check(self, fingerprints) -> None:
        from perfbench.cases import CheckFailed

        if self.reference is None:
            self.reference = fingerprints
        elif fingerprints != self.reference:
            diff = sorted(scheme for scheme in self.reference
                          if fingerprints.get(scheme) != self.reference[scheme])
            raise CheckFailed(f"outputs differ from the first run's: {diff}")

    def record(self, label: str, run):
        """Make one run; a run that raises or fails its check is counted."""
        self.attempted += 1
        try:
            outcome = run()
            self.check(getattr(outcome, "observation", outcome).fingerprints)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            self.failed += 1
            print(f"{label}: run failed", file=sys.stderr)
            traceback.print_exc()
            return None
        return outcome


class Timed(NamedTuple):
    """A run's outcome, and how slow the host was while it ran."""

    outcome: object
    slowdown: float
    """:meth:`hostspeed.HostSpeed.slowdown` over the run."""

    def rate(self, raw_rate: float) -> float:
        """``raw_rate`` scaled to the reference host's speed."""
        return raw_rate * self.slowdown


def timed_runs(ledger: Ledger, label: str, run, seconds: float,
               host) -> list:
    """Closed loop: runs one after another for about ``seconds``.

    At least one run is made; another starts only if, at the length of the
    last one, it would end less than half a run past the deadline.  Each
    run is paired with the host's slowdown while it ran, from ``host`` (a
    started :class:`hostspeed.HostSpeed`).
    """
    timed = []
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        mark = host.mark()
        outcome = ledger.record(label, run)
        if outcome is not None:
            timed.append(Timed(outcome, host.slowdown(mark)))
        now = time.monotonic()
        if now + (now - start) / 2 >= deadline:
            return timed


def measure_setup(case, seed: int, workdir: str) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, PROBE, case.name, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cross_engine_check(ledger: Ledger, case, seed: int, workdir: str,
                       lines: list) -> None:
    """Re-run a single-run case on the other engine; outputs must match."""
    from perfbench import cases

    if case.sweep:
        return
    engine = cases.other_engine()
    ok = ledger.record(f"{case.name} on {engine}", lambda: cases.run_single(
        case, seed, workdir, engine=engine))
    lines.append(f"  cross-engine check on {engine}: "
                 + ("digest equal" if ok else "FAILED"))


def end_to_end(case, seed: int, seconds: float, workdir: str,
               ledger: Ledger, lines: list) -> dict:
    from perfbench import cases, hostspeed

    setup = measure_setup(case, seed, workdir)

    def run():
        return cases.run_case(case, seed, workdir)

    # An untimed warm-up run: it loads what later runs import lazily, and
    # its peak memory is the run's (the host-speed table that follows
    # would count in this process's peak).
    ledger.record(f"{case.name} warm-up", run)
    peak = peak_rss_mb()
    with hostspeed.HostSpeed() as host:
        runs = timed_runs(ledger, case.name, run, seconds, host)
    setup += measure_setup(case, seed, workdir)
    cross_engine_check(ledger, case, seed, workdir, lines)
    if not runs:
        return {}
    raw, raw_spread = median_and_spread([t.outcome.accesses_per_s
                                         for t in runs])
    rate, rate_spread = median_and_spread([t.rate(t.outcome.accesses_per_s)
                                           for t in runs])
    slowdown = statistics.median(t.slowdown for t in runs)
    setup_s, setup_spread = median_and_spread(setup)
    lines[:0] = [
        f"  norm_accesses_per_s {rate:14.1f} 1/s  quartile spread "
        f"{rate_spread:6.1%} over {len(runs)} runs",
        f"  setup_s             {setup_s:14.4f} s    quartile spread "
        f"{setup_spread:6.1%} over {len(setup)} fresh processes",
        f"  peak_rss_mb         {peak:14.1f} MB",
        f"  (raw accesses_per_s {raw:14.1f} 1/s  quartile spread "
        f"{raw_spread:6.1%}; host slowdown {slowdown:.3f})",
    ]
    return {"norm_accesses_per_s": rate, "setup_s": setup_s,
            "peak_rss_mb": peak}


def _sweep_fields(observation) -> dict:
    """Supervisor and file metrics of one untraced sweep."""
    from perfbench import cases

    report = observation.report
    elapsed = {scheme: outcome.elapsed for scheme, outcome
               in zip(cases.SWEEP_SCHEMES, report.outcomes)}
    busy = sum(elapsed.values())
    fields = {f"sim.supervisor.run_s.{cases.metric_name(scheme)}": seconds
              for scheme, seconds in elapsed.items()}
    fields.update({
        "sim.supervisor.wall_s": observation.wall_s,
        "sim.supervisor.busy_s": busy,
        "sim.supervisor.utilization":
            busy / (cases.SWEEP_WORKERS * observation.wall_s),
        "sim.supervisor.critical_run_s": max(elapsed.values()),
        "obs.trace_bytes": observation.trace_bytes,
        "sim.supervisor.journal_bytes": observation.journal_bytes,
    })
    return fields


def per_layer(case, seed: int, seconds: float, workdir: str,
              ledger: Ledger, lines: list) -> dict:
    """Untraced runs, one reference run, then traced runs; half the time
    each side.  The traced runs must reproduce the untraced digests and
    the reference run's per-tier epoch counts."""
    from perfbench import cases, hostspeed, layers

    reference = (layers.reference_sweep if case.sweep
                 else layers.reference_single)
    traced_fn = layers.traced_sweep if case.sweep else layers.traced_single
    with hostspeed.HostSpeed() as host:
        timed_untraced = timed_runs(
            ledger, case.name, lambda: cases.run_case(case, seed, workdir),
            seconds / 2, host)
        ref = ledger.record(f"{case.name} reference",
                            lambda: reference(case, seed, workdir))

        def traced():
            outcome = traced_fn(case, seed, workdir)
            if ref is not None and outcome.tiers != ref.tiers:
                raise cases.CheckFailed(f"traced tiers {outcome.tiers} "
                                        "differ from the untraced run's "
                                        f"{ref.tiers}")
            return outcome

        timed_traced = timed_runs(ledger, f"{case.name} traced", traced,
                                  seconds / 2, host)
    cross_engine_check(ledger, case, seed, workdir, lines)
    if not timed_untraced or not timed_traced:
        return {}
    untraced = [t.outcome for t in timed_untraced]
    traced_runs = [t.outcome for t in timed_traced]

    names = {name for name, _, _ in layers.PER_LAYER}
    metrics = dict.fromkeys(names, 0.0)
    for name in traced_runs[0].fields:
        metrics[name] = statistics.median(o.fields[name] for o in traced_runs)
    observation = traced_runs[0].observation
    if metrics["sim.kernel_s"]:
        metrics["sim.kernel_accesses_per_s"] = (
            observation.accesses / metrics["sim.kernel_s"])
    if case.sweep:
        for name in _sweep_fields(untraced[0]):
            metrics[name] = statistics.median(
                _sweep_fields(o)[name] for o in untraced)
    for name, value in observation.counts.items():
        metrics[f"caches.{name}"] = value
    fingerprints = observation.fingerprints
    morph = fingerprints["morphcache"]
    metrics["sim.throughput_ipc"] = morph.mean_throughput
    metrics["core.controller.reconfigurations"] = morph.reconfigurations
    if case.sweep:
        for name, other in SWEEP_RATIOS.items():
            metrics[name] = (morph.mean_throughput
                             / fingerprints[other].mean_throughput)
    metrics["host.accesses_per_s"] = statistics.median(
        o.accesses_per_s for o in untraced)
    metrics["host.slowdown"] = statistics.median(
        t.slowdown for t in timed_untraced)
    untraced_rate = statistics.median(t.rate(t.outcome.accesses_per_s)
                                      for t in timed_untraced)
    traced_rate = statistics.median(
        t.rate(t.outcome.observation.accesses_per_s) for t in timed_traced)
    metrics["trace_overhead"] = traced_rate / untraced_rate
    lines.append(f"  tiers {traced_runs[0].tiers} equal the untraced run's; "
                 f"traced/untraced scaled accesses_per_s "
                 f"{metrics['trace_overhead']:.3f}")
    spans_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    with open(os.path.join(spans_dir, f"spans-{case.name}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump([spans for o in traced_runs for spans in o.spans], fh)
    return metrics


def run_one(args) -> int:
    from perfbench import cases, layers

    case = cases.CASES[args.workload]
    ledger = Ledger()
    lines: list = []
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(case, args.seed, args.seconds, workdir, ledger,
                         lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not values:
        print(f"{case.name}: no run succeeded", file=sys.stderr)
        return 1
    units = (dict(END_TO_END) if not args.trace
             else {name: unit for name, unit, _ in layers.PER_LAYER})
    print(f"{case.name} seed {args.seed} ({'traced' if args.trace else 'untraced'}, "
          f"default engine {cases.default_engine()}): "
          f"{ledger.attempted} runs, {ledger.failed} failed")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from perfbench import cases

    attempted = failed = 0
    metrics = {}
    for name in cases.CASES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        output = done.stdout.strip().splitlines()
        print("\n".join(output[:-1]))
        result = json.loads(output[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench import cases

    if args.workload == "all":
        return run_all(args)
    if args.workload not in cases.CASES:
        parser.error(f"unknown workload {args.workload!r}: choose one of "
                     f"{', '.join(cases.CASES)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
