"""Set-up probe: one fresh interpreter, from its start to the first epoch.

``run.py`` reads ``time.monotonic()`` just before starting this script;
the script prints ``time.monotonic()`` when the first epoch kernel is
entered and exits without running it.  ``CLOCK_MONOTONIC`` is system-wide
on Linux, so the difference is the set-up a user pays before the first
epoch: interpreter start, importing ``repro``, and building the workload,
its threads and the system.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> str:
    name, seed, workdir = argv[1], int(argv[2]), argv[3]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import cases
    import repro.sim.engine as engine

    def reached(*args, **kwargs):
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    # Stop at the kernel of whichever engine the program uses by default;
    # the batch module is imported only when the program would import it.
    engine.run_epoch = reached
    if cases.default_engine() == "batch":
        import repro.sim.batch as batch
        batch.run_epoch_batch = reached
    case = cases.CASES[name]
    if case.sweep:
        import repro.sim.supervisor  # noqa: F401 - the sweep's parent imports it

        spec = cases.sweep_specs(case, seed, workdir)[0]
        cases.run_captured(spec.scheme, spec.workload, spec.config,
                           spec.seed, engine=spec.engine,
                           trace_path=spec.trace_path)
    else:
        cases.run_single(case, seed, workdir)
    return "set-up probe: the run ended without entering an epoch kernel"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
