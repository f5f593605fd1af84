"""Tests for checkpoint/resume: round trips, fingerprints, bit-identity."""

import hashlib
import json

import pytest

import repro.sim.engine as engine_module
from repro.config import TINY
from repro.resilience.checkpoint import (
    load_checkpoint,
    run_fingerprint,
    save_checkpoint,
    state_digest,
)
from repro.resilience.errors import CheckpointError
from repro.resilience.faults import FaultPlan, parse_fault_spec
from repro.sim.engine import simulate
from repro.sim.experiment import build_system, run_scheme
from repro.sim.workload import Workload
from repro.workloads import mix_by_name

CFG = TINY.with_(accesses_per_core_per_epoch=250)


def _reference_digest(system) -> str:
    """state_digest as first written: one ``repr(tuple)`` update per item."""
    hasher = hashlib.sha256()

    def feed(*parts):
        hasher.update(repr(parts).encode())

    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is not None:
        feed("stamp", hierarchy._stamp)
        feed("l2_groups", hierarchy.l2_groups, "l3_groups", hierarchy.l3_groups)
        feed("disabled", sorted(hierarchy.disabled_slices("l2")),
             sorted(hierarchy.disabled_slices("l3")))
        for name, slices in (("l1", hierarchy.l1s), ("l2", hierarchy.l2s),
                             ("l3", hierarchy.l3s)):
            for slice_id, cache in enumerate(slices):
                for entry in cache.entries():
                    feed(name, slice_id, entry.line, entry.owner,
                         entry.dirty, entry.stamp)
    controller = getattr(system, "controller", None)
    if controller is not None:
        feed("epoch", controller._epoch, "mode", controller.guard.mode)
        for level in ("l2", "l3"):
            for core in range(controller.config.cores):
                feed(level, core, controller.bank.acfv(level, core).as_int())
    if hierarchy is None and controller is None:
        feed("misses", sorted(system.miss_counts().items()))
    return hasher.hexdigest()


def series(result):
    return [(e.epoch, e.ipcs, e.misses, e.topology_label)
            for e in result.epochs]


@pytest.fixture
def workload():
    return Workload.from_mix(mix_by_name("MIX 03"))


class TestStateDigest:
    def test_digest_changes_with_state(self, workload):
        system = build_system("morphcache", CFG, workload, seed=1)
        before = state_digest(system)
        system.access(0, 42, False)
        assert state_digest(system) != before

    def test_digest_matches_for_identical_runs(self, workload):
        digests = []
        for _ in range(2):
            system = build_system("morphcache", CFG, workload, seed=1)
            for line in range(100):
                system.access(line % CFG.cores, line, False)
            digests.append(state_digest(system))
        assert digests[0] == digests[1]

    def test_baseline_without_hierarchy_digests_misses(self, workload):
        system = build_system("pipp", CFG, workload, seed=1)
        for line in range(50):
            system.access(0, line, False)
        assert len(state_digest(system)) == 64

    @pytest.mark.parametrize("scheme, workload_name, faults", [
        ("(16:1:1)", "MIX 03", None),
        ("(4:4:1)", "dedup", None),
        ("morphcache", "canneal", None),
        ("morphcache", "MIX 03",
         "disable-slice:every=2:level=l3,flip-acfv:at=3:bits=4,seed=7"),
        ("(4:4:1)", "MIX 03", "disable-slice:every=2:level=l2,seed=11"),
        ("pipp", "MIX 03", None),
    ])
    def test_digest_bytes_match_per_entry_reference(self, scheme,
                                                    workload_name, faults):
        # state_digest hashes each slice as one joined string; the bytes
        # must equal the original one-repr(tuple)-per-entry encoding.
        load = Workload.from_name(workload_name)
        system = build_system(scheme, CFG, load, seed=5)
        plan = parse_fault_spec(faults) if faults else None
        simulate(system, load, CFG, seed=5, epochs=4, fault_plan=plan)
        hierarchy = getattr(system, "hierarchy", None)
        if faults:
            assert (hierarchy.disabled_slices("l2")
                    or hierarchy.disabled_slices("l3"))
        assert state_digest(system) == _reference_digest(system)


class TestSaveLoad:
    def test_round_trip(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        run_scheme("morphcache", workload, CFG, seed=2, epochs=3,
                   checkpoint_path=path, checkpoint_every=2)
        fingerprint = run_fingerprint(workload, CFG, "morphcache", 2, 3,
                                      CFG.accesses_per_core_per_epoch, 1)
        payload = load_checkpoint(path, fingerprint)
        assert payload["next_epoch"] == 4  # 1 warmup + 3 recorded
        assert len(payload["epochs"]) == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.json", {})

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, {})

    def test_fingerprint_mismatch_names_fields(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                   checkpoint_path=path)
        with pytest.raises(CheckpointError, match="seed"):
            run_scheme("morphcache", workload, CFG, seed=3, epochs=2,
                       checkpoint_path=path, resume=True)

    def test_version_mismatch_raises(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                   checkpoint_path=path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                       checkpoint_path=path, resume=True)

    def test_tampered_digest_fails_verification(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                   checkpoint_path=path)
        payload = json.loads(path.read_text())
        payload["state_digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="digest"):
            run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                       checkpoint_path=path, resume=True)

    def test_resume_without_path_raises(self, workload):
        with pytest.raises(CheckpointError, match="path"):
            run_scheme("morphcache", workload, CFG, seed=2, epochs=2,
                       resume=True)


class _Killed(Exception):
    pass


def _run_and_kill_after(workload, path, kill_at_epoch, scheme="morphcache",
                        fault_plan=None, seed=5, epochs=6):
    """Run with checkpointing, abort right after the checkpoint at
    ``kill_at_epoch`` — emulating a killed process."""
    system = build_system(scheme, CFG, workload, seed=seed)
    original = engine_module.save_checkpoint

    def save_then_kill(p, fingerprint, next_epoch, *args, **kwargs):
        original(p, fingerprint, next_epoch, *args, **kwargs)
        if next_epoch >= kill_at_epoch:
            raise _Killed()

    engine_module.save_checkpoint = save_then_kill
    try:
        with pytest.raises(_Killed):
            simulate(system, workload, CFG, seed=seed, epochs=epochs,
                     fault_plan=fault_plan,
                     checkpoint_path=path, checkpoint_every=2)
    finally:
        engine_module.save_checkpoint = original


class TestBitIdenticalResume:
    @pytest.mark.parametrize("scheme", ["morphcache", "(16:1:1)"])
    def test_killed_run_resumes_identically(self, tmp_path, workload, scheme):
        reference = run_scheme(scheme, workload, CFG, seed=5, epochs=6)
        path = tmp_path / "ck.json"
        _run_and_kill_after(workload, path, kill_at_epoch=4, scheme=scheme)
        resumed = run_scheme(scheme, workload, CFG, seed=5, epochs=6,
                             checkpoint_path=path, resume=True)
        assert series(resumed) == series(reference)

    def test_resume_with_faults_is_identical(self, tmp_path, workload):
        plan = FaultPlan.periodic("disable-slice", every=3, level="l3",
                                  duration=1, seed=17)
        reference = run_scheme("morphcache", workload, CFG, seed=5, epochs=6,
                               fault_plan=plan)
        path = tmp_path / "ck.json"
        _run_and_kill_after(workload, path, kill_at_epoch=4, fault_plan=plan)
        resumed = run_scheme("morphcache", workload, CFG, seed=5, epochs=6,
                             fault_plan=plan, checkpoint_path=path,
                             resume=True)
        assert series(resumed) == series(reference)

    def test_checkpointing_does_not_perturb_results(self, tmp_path, workload):
        plain = run_scheme("morphcache", workload, CFG, seed=5, epochs=4)
        checked = run_scheme("morphcache", workload, CFG, seed=5, epochs=4,
                             checkpoint_path=tmp_path / "ck.json",
                             checkpoint_every=1)
        assert series(plain) == series(checked)

    def test_resume_of_finished_run_returns_same_results(self, tmp_path,
                                                         workload):
        path = tmp_path / "ck.json"
        full = run_scheme("morphcache", workload, CFG, seed=5, epochs=4,
                          checkpoint_path=path)
        again = run_scheme("morphcache", workload, CFG, seed=5, epochs=4,
                           checkpoint_path=path, resume=True)
        assert series(again) == series(full)

    def test_checkpoint_cadence(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        saved = []
        original = engine_module.save_checkpoint

        def spy(p, fingerprint, next_epoch, *args, **kwargs):
            saved.append(next_epoch)
            original(p, fingerprint, next_epoch, *args, **kwargs)

        engine_module.save_checkpoint = spy
        try:
            run_scheme("morphcache", workload, CFG, seed=5, epochs=5,
                       checkpoint_path=path, checkpoint_every=2)
        finally:
            engine_module.save_checkpoint = original
        # 1 warmup + 5 recorded = 6 epochs; cadence 2 plus the final epoch.
        assert saved == [2, 4, 6]

    def test_atomic_write_leaves_tmp_clean(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        run_scheme("morphcache", workload, CFG, seed=5, epochs=2,
                   checkpoint_path=path)
        assert path.exists()
        assert not (tmp_path / "ck.json.tmp").exists()

    def test_save_checkpoint_unwritable_path_raises(self, workload):
        system = build_system("morphcache", CFG, workload, seed=1)
        threads = workload.build_threads(CFG, seed=1)
        with pytest.raises(CheckpointError, match="cannot write"):
            save_checkpoint("/nonexistent-dir/ck.json", {}, 0, [], threads,
                            system)
