"""Tests for the experiment orchestration layer."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.baselines.dsr import DsrSystem
from repro.baselines.pipp import PippSystem
from repro.cpu.cmp import CmpSystem
from repro.sim.experiment import alone_ipc, alone_ipcs, build_system, run_scheme
from repro.sim.workload import Workload
from repro.workloads import mix_by_name


@pytest.fixture
def fast_config(tiny_config):
    return tiny_config.with_(accesses_per_core_per_epoch=200)


@pytest.fixture
def workload():
    return Workload.from_mix(mix_by_name("MIX 08"))


class TestBuildSystem:
    def test_static_label(self, fast_config, workload):
        system = build_system("(4:4:1)", fast_config, workload)
        assert isinstance(system, CmpSystem)
        assert system.label == "(4:4:1)"
        assert system.controller is None

    def test_morphcache(self, fast_config, workload):
        system = build_system("morphcache", fast_config, workload)
        assert isinstance(system, CmpSystem)
        assert system.controller is not None

    def test_morphcache_inherits_shared_address_space(self, fast_config):
        workload = Workload.from_parsec("vips")
        system = build_system("morphcache", fast_config, workload)
        assert system.controller.shared_address_space

    def test_pipp_and_dsr(self, fast_config, workload):
        assert isinstance(build_system("pipp", fast_config, workload), PippSystem)
        assert isinstance(build_system("dsr", fast_config, workload), DsrSystem)

    def test_unknown_scheme(self, fast_config, workload):
        with pytest.raises(ValueError):
            build_system("utopia", fast_config, workload)


class TestRunScheme:
    def test_result_tagged_with_scheme(self, fast_config, workload):
        result = run_scheme("(16:1:1)", workload, fast_config, seed=2, epochs=1)
        assert result.scheme_name == "(16:1:1)"
        assert result.workload_name == "MIX 08"

    def test_all_schemes_produce_positive_throughput(self, fast_config, workload):
        for scheme in ["(16:1:1)", "(1:1:16)", "morphcache", "pipp", "dsr"]:
            result = run_scheme(scheme, workload, fast_config, seed=2, epochs=1)
            assert result.mean_throughput > 0


class TestAloneIpc:
    def test_cached_across_calls(self, fast_config):
        first = alone_ipc("gcc", fast_config, seed=2, epochs=1)
        second = alone_ipc("gcc", fast_config, seed=2, epochs=1)
        assert first == second

    def test_alone_ipcs_preserve_order(self, fast_config):
        values = alone_ipcs(["gcc", "hmmer"], fast_config, seed=2, epochs=1)
        assert values[0] == alone_ipc("gcc", fast_config, seed=2, epochs=1)
        assert values[1] == alone_ipc("hmmer", fast_config, seed=2, epochs=1)

    def test_alone_ipc_positive(self, fast_config):
        assert alone_ipc("libquantum", fast_config, seed=2, epochs=1) > 0


#: One run in a fresh interpreter; prints the modules it loaded, then checks
#: that the lazily served sweep names still resolve.
_SINGLE_RUN = """
import sys, repro
from repro.config import TINY
repro.run_scheme("morphcache", repro.Workload.from_mix(repro.mix_by_name("MIX 01")),
                 TINY.with_(epochs=1), seed=1)
print("\\n".join(sorted(sys.modules)))
import repro.sim
assert repro.sim.run_supervised.__module__ == "repro.sim.supervisor"
"""


class TestImportCost:
    def test_single_run_does_not_import_the_sweep_or_baseline_modules(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", _SINGLE_RUN], env=env,
                             capture_output=True, text=True, check=True).stdout
        loaded = set(out.split())
        assert "repro.sim.engine" in loaded
        assert "repro.sim.parallel" not in loaded
        assert "repro.sim.supervisor" not in loaded
        assert "concurrent.futures.process" not in loaded
        assert not {m for m in loaded if m.startswith("repro.baselines")}
