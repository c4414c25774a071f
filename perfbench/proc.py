"""One benchmark process: set up, run one workload body, report.

Usage (the harness does this; the job is a JSON object)::

    PYTHONPATH=src python3 perfbench/proc.py '<job json>'

Job modes:

``fault``
    ``run_experiment("sec7.1-inject", apps=..., seed=fault_seed)``.
``sweep``
    A :class:`repro.runner.SweepRunner` over ``experiments`` x ``apps``
    with optional ``checkpoint``/``resume``/``ledger``/``jobs``; with
    ``stop_after`` the process drains like a SIGTERM'd sweep after that
    many units.
``funcount``
    The benchmark's own count of dynamic warp-instruction records in
    each app's functional trace (a reference for the checks).

Set-up ends when the workload body is about to start (imports, kernel
registry and runner construction done); the harness measures from the
moment it spawned the process. Everything the checks need is written
as JSON to ``job["out"]``; with ``job["trace"]`` the per-layer dump of
:mod:`layers` goes to ``job["trace"]``.
"""

from __future__ import annotations

import json
import sys
import time


def _funcount(app_names):
    import numpy as np

    from repro.arch.engine import run_functional
    from repro.arch.memory import GlobalMemory
    from repro.arch.stats import Encoders
    from repro.kernels import get_app

    counts = {}
    for name in app_names:
        app = get_app(name)
        mem = GlobalMemory(size_bytes=app.memory_bytes)
        launches = app.build(mem, np.random.default_rng(app.seed))
        result = run_functional(app.name, mem, launches,
                                Encoders(isa_mask=0, pivot_lane=21))
        counts[name] = sum(len(warp.records)
                           for launch in result.trace.launches
                           for block in launch.blocks
                           for warp in block.warps)
    return counts


def main(job):
    from repro.kernels import get_app

    import layers

    calls = []

    def on_stats(stats, config):
        calls.append({"app": stats.app_name,
                      "config": f"{config.name}/{config.scheduler}",
                      "instructions": int(stats.instructions),
                      "dram_accesses": int(stats.dram_accesses),
                      "cache_stats": stats.cache_stats})

    layers.install_counting(on_stats)
    rec = layers.install(layers.Recorder()) if job.get("trace") else None
    apps = [get_app(name) for name in job.get("apps", [])]
    out = {"completed": [], "stats": {"run": 0, "skipped": 0, "failed": 0},
           "failed_units": []}

    if job["mode"] == "fault":
        from repro.experiments import run_experiment
        t_ready = time.monotonic()
        t0 = time.perf_counter()
        try:
            result = run_experiment("sec7.1-inject", apps=apps,
                                    seed=job["fault_seed"])
        except Exception as exc:  # noqa: BLE001 — reported as a failed unit
            out["failed_units"] = [f"sec7.1-inject: {exc!r}"]
            out["stats"]["failed"] = 1
            results = []
        else:
            results = [result]
        wall = time.perf_counter() - t0
        out["stats"]["run"] = 1
    elif job["mode"] == "sweep":
        from repro.runner import SweepInterrupted, SweepRunner

        def stopper(key, _record):
            out["completed"].append(key)
            if len(out["completed"]) == job.get("stop_after"):
                raise SweepInterrupted("benchmark stop point reached")

        runner = SweepRunner(experiments=job["experiments"], apps=apps,
                             checkpoint_path=job.get("checkpoint"),
                             resume=bool(job.get("resume")),
                             jobs=job.get("jobs", 1),
                             ledger_path=job.get("ledger"),
                             on_unit_done=stopper)
        t_ready = time.monotonic()
        t0 = time.perf_counter()
        try:
            results = runner.run()
        except SweepInterrupted:
            results = []
        wall = time.perf_counter() - t0
        s = runner.stats
        out["stats"] = {"run": s.run, "skipped": s.skipped,
                        "failed": s.failed}
        out["failed_units"] = list(runner.failed_units)
    elif job["mode"] == "funcount":
        t_ready = time.monotonic()
        t0 = time.perf_counter()
        out["funcount"] = _funcount(job["apps"])
        results = []
        wall = time.perf_counter() - t0
    else:
        raise SystemExit(f"unknown job mode {job['mode']!r}")

    out.update(t_ready=t_ready, wall_s=wall, calls=calls,
               results=[r.to_dict() for r in results],
               tables=[r.to_text() for r in results])
    with open(job["out"], "w") as fh:
        json.dump(out, fh)
    if rec is not None:
        rec.dump(job["trace"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
