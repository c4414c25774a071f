"""The repository benchmark: cold-process workloads over the BVF pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload fault-inject --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats whole *rounds* of its workload until ``--seconds`` have
passed. A round is one or two fresh ``perfbench/proc.py`` processes, so
the simulator's process-local memo caches start empty, as they do for
every ``repro run``. The harness times each process from the outside:
set-up from spawn to the first dispatched unit, the body's wall time,
user+sys CPU of the whole process tree (``wait4``, pool workers
included) and the largest resident set of any one process. Each metric
of the run is the median over its rounds.

After the timed rounds the harness makes the run's reference processes
(an uninterrupted or serial run of the same plan, the functional-trace
instruction counts) and checks every round's output against them and
against properties the method must have (:mod:`checks`).

``--trace 1`` alternates untraced and traced rounds; traced rounds
carry the :mod:`layers` shims and report per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402

#: A run must end well inside the 180 s the benchmark contract allows.
RUN_BUDGET_S = 170.0

#: Every other non-polybench app: cheap units, so the per-unit
#: checkpoint write and the cold functional passes dominate.
SUITE_RESUME_APPS = (
    "BFL", "BH", "BLA", "CP", "DMR", "FFT", "HIS", "IMD", "LBM", "LPS",
    "MD", "MRQ", "NQU", "OCE", "PAT", "RDC", "S2D", "SCN", "SPM", "SRA",
    "SSP", "STN", "TPA", "TRD")

#: name -> workload make-up. ``kind`` selects the round structure.
WORKLOADS = {
    "fault-inject": {
        "kind": "fault", "apps": ("SYK",)},
    "replay-sweep": {
        "kind": "sweep", "experiments": ("fig21", "fig22"),
        "apps": ("BIC",), "jobs": 1, "seeded_order": True},
    "suite-resume": {
        "kind": "resume",
        "experiments": ("fig08", "fig09", "fig11", "fig14", "table2",
                        "fig18", "fig19", "ablation-businvert"),
        "apps": SUITE_RESUME_APPS},
    # A fixed plan order: which worker picks up which unit decides how
    # much work the two workers duplicate, so a seeded order would make
    # the run-to-run figures bimodal. The seed does not change its input.
    "pool-jobs2": {
        "kind": "sweep", "experiments": ("fig21", "fig22"),
        "apps": ("BIC",), "jobs": 2, "seeded_order": False},
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("sim_kinst_per_s", "kinst/s"))


class BenchError(Exception):
    """The benchmark could not run (not a correctness failure)."""


# -- processes ----------------------------------------------------------


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # One process is one core: no BLAS thread pools behind numpy.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job, root, work, deadline):
    """Run one benchmark process to completion; time it from outside."""
    env = _child_env(root)
    log = open(os.path.join(work, f"{os.path.basename(job['out'])}.log"),
               "w")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "proc.py"), json.dumps(job)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    finally:
        log.close()
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise BenchError(f"{job['mode']} process overran the run "
                                 f"budget")
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        # The process leads its own session: nothing it started may
        # outlive it, and an interrupted harness leaves nothing behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if not pid:
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log.name) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{job['mode']} process exited "
                         f"{proc.returncode}:\n{tail}")
    with open(job["out"]) as fh:
        out = json.load(fh)
    out["setup_s"] = out["t_ready"] - t_spawn
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["rss_mb"] = usage.ru_maxrss / 1024.0
    return out


# -- workloads ----------------------------------------------------------


def plan_keys(spec):
    return [f"{exp}::{app}" for exp in spec["experiments"]
            for app in spec["apps"]]


def round_jobs(spec, seed, fault_seed, prefix):
    """The processes of one round, run one after the other."""
    if spec["kind"] == "fault":
        return [{"mode": "fault", "apps": list(spec["apps"]),
                 "fault_seed": fault_seed + seed, "out": prefix + ".json"}]
    apps, experiments = list(spec["apps"]), list(spec["experiments"])
    if spec["kind"] == "sweep":
        if spec["seeded_order"]:
            # The seed orders the plan; merged tables are order-free.
            rng = random.Random(seed)
            rng.shuffle(apps)
            rng.shuffle(experiments)
        return [{"mode": "sweep", "experiments": experiments,
                 "apps": apps, "jobs": spec["jobs"],
                 "ledger": prefix + ".ledger.jsonl", "out": prefix + ".json"}]
    units = len(experiments) * len(apps)
    stop = random.Random(seed).randint(units // 3, 2 * units // 3)
    common = {"mode": "sweep", "experiments": experiments,
              "apps": apps, "checkpoint": prefix + ".ck.json"}
    return [dict(common, stop_after=stop, ledger=prefix + ".a.jsonl",
                 out=prefix + ".a.json"),
            dict(common, resume=True, ledger=prefix + ".b.jsonl",
                 out=prefix + ".b.json")]


def reference_job(spec, prefix):
    """One untimed process whose output the checks compare against."""
    if spec["kind"] == "fault":
        return None
    if spec["kind"] == "sweep" and spec["jobs"] == 1:
        return {"mode": "funcount", "apps": list(spec["apps"]),
                "out": prefix + ".json"}
    return {"mode": "sweep", "experiments": list(spec["experiments"]),
            "apps": list(spec["apps"]), "jobs": 1, "out": prefix + ".json"}


def round_metrics(outs):
    return {"setup_s": sum(o["setup_s"] for o in outs),
            "wall_s": sum(o["wall_s"] for o in outs),
            "cpu_s": sum(o["cpu_s"] for o in outs),
            "peak_rss_mb": max(o["rss_mb"] for o in outs),
            "inst": sum(c["instructions"] for o in outs for c in o["calls"])}


def check_round(spec, jobs, outs, ref):
    """Problems with one round's output (see :mod:`checks`)."""
    from repro.obs.ledger import read_ledger
    kind = spec["kind"]
    if kind == "fault":
        from repro.circuits import TECH_BY_NAME, max_safe_cells_per_bitline
        from repro.circuits.reliability import flip_probability
        from repro.experiments.fault_experiments import DEFAULT_CELLS_SWEEP
        tech = TECH_BY_NAME["28nm"]
        if not outs[0]["results"]:
            return list(outs[0]["failed_units"]) or ["no result"]
        result = outs[0]["results"][0]
        problems = checks.check_fault(
            result["summary"], max_safe_cells_per_bitline(tech),
            {c: flip_probability(c, tech) for c in DEFAULT_CELLS_SWEEP})
        return problems + checks.check_claims(
            checks.claim_verdicts(outs[0]["results"], checks.FAULT_CLAIMS),
            checks.FAULT_CLAIMS)
    problems = [f"failed units: {o['failed_units']}" for o in outs
                if o["failed_units"] or o["stats"]["failed"]]
    if kind == "resume":
        first, resumed = outs
        problems += checks.check_resume(
            plan_keys(spec), first, resumed, read_ledger(jobs[1]["ledger"]))
        problems += checks.check_tables(resumed["tables"], ref["tables"],
                                        "resumed sweep")
        return problems + checks.check_claims(
            checks.claim_verdicts(resumed["results"]))
    if spec["jobs"] == 1:
        problems += checks.check_replay(outs[0]["calls"], ref["funcount"])
        return problems + checks.check_claims(
            checks.claim_verdicts(outs[0]["results"], checks.REPLAY_CLAIMS),
            checks.REPLAY_CLAIMS)
    return problems + checks.check_tables(outs[0]["tables"], ref["tables"],
                                          "parallel sweep")


def run_workload(name, seed, seconds, trace, root, fault_seed=2017,
                 spec=None):
    """Run one workload; returns the result object printed last."""
    spec = spec or WORKLOADS[name]
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    work = os.path.join(root, ".perfbench-work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if os.path.join(root, "src") not in sys.path:
        sys.path.insert(0, os.path.join(root, "src"))
    rounds = []
    try:
        i = 0
        while True:
            traced = bool(trace) and i % 2 == 1
            prefix = os.path.join(work, f"r{i}")
            jobs = round_jobs(spec, seed, fault_seed, prefix)
            if traced:
                for j, job in enumerate(jobs):
                    job["trace"] = f"{prefix}.trace{j}.json"
            outs = [spawn(job, root, work, deadline) for job in jobs]
            rounds.append({"jobs": jobs, "outs": outs, "traced": traced,
                           "metrics": round_metrics(outs)})
            i += 1
            if time.monotonic() - t_start >= seconds and (
                    not trace or i >= 2):
                break
        ref_job = reference_job(spec, os.path.join(work, "ref"))
        ref = spawn(ref_job, root, work, deadline) if ref_job else None
        problems = []
        for r in rounds:
            problems += check_round(spec, r["jobs"], r["outs"], ref)
        if spec["kind"] == "sweep" and spec["jobs"] > 1:
            inst = round_metrics([ref])["inst"]
        else:
            inst = rounds[0]["metrics"]["inst"]
            problems += [f"round {k}: {r['metrics']['inst']} simulated "
                         f"instructions, round 0 had {inst}"
                         for k, r in enumerate(rounds)
                         if r["metrics"]["inst"] != inst]
        if inst <= 0:
            problems.append("the workload simulated no instructions")
        metrics = (trace_metrics(spec, rounds, problems) if trace
                   else end_to_end_metrics(rounds, inst))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    attempted = sum(o["stats"]["run"] for r in rounds for o in r["outs"])
    failed = sum(o["stats"]["failed"] for r in rounds for o in r["outs"])
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems,
            "rounds": len(rounds)}


def end_to_end_metrics(rounds, inst):
    med = {name: statistics.median(r["metrics"][name] for r in rounds)
           for name, _unit in END_TO_END[:4]}
    med["sim_kinst_per_s"] = statistics.median(
        inst / 1e3 / r["metrics"]["wall_s"] for r in rounds)
    return {name: {"value": med[name], "unit": unit}
            for name, unit in END_TO_END}


def trace_metrics(spec, rounds, problems):
    from repro.obs.ledger import read_ledger
    traced, untraced = [], []
    for r in rounds:
        if not r["traced"]:
            untraced.append(r["metrics"]["wall_s"])
            continue
        docs = []
        for job in r["jobs"]:
            with open(job["trace"]) as fh:
                docs.append(json.load(fh))
        pool = None
        if spec["kind"] == "sweep" and spec["jobs"] > 1:
            pool = layers.pool_from_ledger(read_ledger(r["jobs"][0]["ledger"]))
        runner = {key: sum(o["stats"][key] for o in r["outs"])
                  for key in ("run", "skipped")}
        values = layers.fold(layers.merge(docs), pool=pool, runner=runner)
        values["trace.traced_wall_s"] = r["metrics"]["wall_s"]
        traced.append(values)
    problems += checks.check_same_counts(traced, layers.SIM_COUNTS)
    out = {name: statistics.median(v[name] for v in traced)
           for name in traced[0]}
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = (out["trace.traced_wall_s"]
                               - out["trace.untraced_wall_s"])
    out["trace.overhead_pct"] = (100.0 * out["trace.overhead_s"]
                                 / out["trace.untraced_wall_s"])
    # Counts repeat between traced rounds; keep them whole numbers.
    return {name: {"value": (int(out[name]) if unit == "count"
                             else out[name]), "unit": unit}
            for name, unit in layers.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (one "
                             "result line each, with a 'workload' key)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault-seed", type=int, default=2017,
                        help="base of the fault stream; fault-inject runs "
                             "FAULT_SEED + SEED")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  root, fault_seed=args.fault_seed)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for problem in result.pop("problems"):
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(f"perfbench: {name} seed {args.seed}: "
              f"{result.pop('rounds')} rounds", file=sys.stderr)
        correct &= result["correct"]
        print(json.dumps(result if len(names) == 1
                         else {"workload": name, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
