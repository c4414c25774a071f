"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the repository root::

    python3 perfbench/steady.py --runs 5
    python3 perfbench/steady.py --runs 10 --workloads pool-jobs2 --json s.json

Runs every workload of ``BENCHMARK.json`` in two interleaved sets (A, B,
A, B, ...), each run with its own seed, and prints for every end-to-end
metric each set's median and quartiles, the spread (distance between
the quartiles as a share of the median) and the shift of B's median
against A's in the metric's worse direction. A set agrees when every
spread except ``setup_s``'s is within the metric's bound, B's median is
not worse than A's by more than the bound, and the share of failed
units is identical in both sets. Exit code 0 when every workload
agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as the contract computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_shift(a, b, better):
    """How much worse median ``b`` is than ``a`` (a share of ``a``)."""
    if better == "lower":
        return (b - a) / a
    return (a - b) / a


def run_once(workload, seed, seconds, root):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(lines[-1])


def judge(bench, runs_a, runs_b):
    """Rows of (metric, set stats..., verdict) and the overall verdict."""
    rows, ok = [], True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = spread([r["metrics"][name]["value"] for r in runs_a])
        b = spread([r["metrics"][name]["value"] for r in runs_b])
        both = spread([r["metrics"][name]["value"]
                       for r in runs_a + runs_b])
        shift = worse_shift(a[1], b[1], metric["better"])
        good = shift <= bound and (name == "setup_s"
                                   or (a[3] <= bound and b[3] <= bound))
        ok &= good
        rows.append((name, bound, a, b, both, shift, good))
    share = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
             for runs in (runs_a, runs_b)}
    if len(share) != 1:
        ok = False
    correct = all(r["correct"] for r in runs_a + runs_b)
    return rows, ok and correct, share, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two)")
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in bench["workloads"]])
    record, all_ok = {}, True
    for workload in names:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            for k, label in enumerate("AB"):
                seed = args.seed0 + 2 * i + k
                t0 = time.monotonic()
                result = run_once(workload, seed, seconds, root)
                runs[label].append(result)
                print(f"  {workload} {label} seed {seed} "
                      f"({time.monotonic() - t0:.0f}s): " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        rows, ok, share, correct = judge(bench, runs["A"], runs["B"])
        all_ok &= ok
        record[workload] = runs
        print(f"== {workload}: {args.runs} runs per set, "
              f"{'AGREE' if ok else 'DISAGREE'}"
              f"{'' if correct else ' (a run was incorrect)'}; "
              f"failed share {sorted(share)}")
        print(f"  {'metric':16s} {'bound':>5s}  {'A q1/med/q3':>28s} "
              f"{'sprA':>6s}  {'B q1/med/q3':>28s} {'sprB':>6s} "
              f"{'pooled':>6s} {'shift':>7s}")
        for name, bound, a, b, both, shift, good in rows:
            print(f"  {name:16s} {bound:5.2f}  "
                  f"{a[0]:9.4g}/{a[1]:8.4g}/{a[2]:9.4g} {a[3]:6.1%}  "
                  f"{b[0]:9.4g}/{b[1]:8.4g}/{b[2]:9.4g} {b[3]:6.1%} "
                  f"{both[3]:6.1%} {shift:+7.1%}{'' if good else '  <-- out'}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
