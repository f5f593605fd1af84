"""Golden fixture for the shared-cache baselines (PIPP, DSR, UCP).

Each case runs one baseline scheme on MIX 01 (16 private address spaces)
and on a PARSEC workload whose threads share memory (so DSR's remote hits
and spills are exercised), at a fixed seed, and pins:

- the per-epoch per-core IPCs and memory misses;
- the run's ``mean_throughput``;
- a SHA-256 digest of the final state.  PIPP/UCP: every set's priority
  list of ``(line, owner)`` at L2 and L3, the partitions/allocations and the
  hit/miss counters.  DSR: every L2/L3 slice's entries in way-list order,
  the PSEL counters, ``spills`` and ``remote_hits``.  The L1s are included
  for all three.

The IPCs are compared as exact floats: the baselines are deterministic for
a seed, so any change in replacement, promotion, partitioning or spill
order shows here.  If this suite fails after an *intentional* behaviour
change, recapture with::

    PYTHONPATH=src python - <<'PY'
    import json, pathlib
    from tests.baselines.test_baseline_golden import CASES, _capture
    golden = {case: _capture(*spec) for case, spec in CASES.items()}
    pathlib.Path("tests/baselines/golden_baselines.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\\n")
    PY

Never loosen the comparison.
"""

import hashlib
import json
import pathlib

import pytest

from repro.config import TINY
from repro.sim.engine import simulate
from repro.sim.experiment import build_system
from repro.sim.workload import Workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_baselines.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SEED = 13
CONFIG = TINY.with_(epochs=3)

#: case -> (scheme, workload name).
CASES = {
    f"{scheme}-{tag}": (scheme, workload)
    for scheme in ("pipp", "dsr", "ucp")
    for tag, workload in (("mix01", "MIX 01"), ("canneal", "canneal"))
}


def _l1_state(system):
    return [[(e.line, e.owner, e.dirty, e.stamp) for e in l1.entries()]
            for l1 in system.l1s]


def _level_state(scheme, level):
    if scheme == "dsr":
        return {
            "slices": [[(e.line, e.owner, e.dirty, e.stamp)
                        for e in s.entries()] for s in level.slices],
            "psel": list(level.psel),
            "spills": level.spills,
            "remote_hits": level.remote_hits,
        }
    quota = level.partitions if scheme == "pipp" else level.allocations
    return {
        "data": [list(entries) for entries in level._data],
        "quota": list(quota),
        "hits": level.hits,
        "misses": level.misses,
    }


def final_state_digest(scheme, system):
    """SHA-256 over the baseline system's final cache and policy state."""
    state = {
        "l1": _l1_state(system),
        "l2": _level_state(scheme, system.l2),
        "l3": _level_state(scheme, system.l3),
        "memory": sorted(system.miss_counts().items()),
    }
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _capture(scheme, workload_name):
    workload = Workload.from_name(workload_name)
    system = build_system(scheme, CONFIG, workload, seed=SEED)
    result = simulate(system, workload, CONFIG, seed=SEED)
    return {
        "epochs": [
            {"epoch": e.epoch,
             "ipcs": {str(core): ipc for core, ipc in sorted(e.ipcs.items())},
             "misses": {str(core): m
                        for core, m in sorted(e.misses.items())}}
            for e in result.epochs],
        "mean_throughput": result.mean_throughput,
        "state_digest": final_state_digest(scheme, system),
    }


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_baseline_matches_golden(case):
    got = _capture(*CASES[case])
    want = GOLDEN[case]
    assert len(got["epochs"]) == len(want["epochs"])
    for got_epoch, want_epoch in zip(got["epochs"], want["epochs"]):
        epoch = want_epoch["epoch"]
        assert got_epoch["epoch"] == epoch
        assert got_epoch["misses"] == want_epoch["misses"], (
            f"{case}: misses diverged at epoch {epoch} (first bad epoch)")
        assert got_epoch["ipcs"] == want_epoch["ipcs"], (
            f"{case}: IPCs diverged at epoch {epoch} (first bad epoch)")
    assert got["mean_throughput"] == want["mean_throughput"]
    assert got["state_digest"] == want["state_digest"], (
        f"{case}: final cache/policy state diverged")
