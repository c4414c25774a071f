"""Tests of the benchmark itself: harness, checkers, tracing, manifest.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402

TINY_SWEEP = {"kind": "sweep", "experiments": ("fig21", "fig22"),
              "apps": ("VEC", "GAU"), "jobs": 1, "seeded_order": True}
TINY_RESUME = {"kind": "resume", "experiments": ("fig09", "fig14"),
               "apps": ("VEC", "GAU", "TRA")}


# -- harness end to end on tiny plans -----------------------------------


@pytest.mark.parametrize("spec", [TINY_SWEEP, TINY_RESUME],
                         ids=["sweep", "resume"])
def test_harness_end_to_end_tiny_plan(spec):
    result = run.run_workload("tiny", seed=3, seconds=0, trace=0, root=ROOT,
                              spec=spec)
    assert result["problems"] == []
    assert result["correct"] is True
    units = len(spec["experiments"]) * len(spec["apps"])
    assert result["attempted"] == units * result["rounds"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    for name, unit in run.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work",
                                           f"tiny-{os.getpid()}"))


def test_traced_run_reports_every_layer_and_repeats_counts():
    result = run.run_workload("tiny", seed=1, seconds=0, trace=1, root=ROOT,
                              spec=TINY_SWEEP)
    assert result["correct"] is True, result["problems"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["gpu.replays"]["value"] > 0
    assert metrics["cache.lookup_calls"]["value"] > 0
    assert metrics["faults.array_flips"]["value"] == 0
    assert metrics["trace.traced_wall_s"]["value"] > 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fault-inject",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checkers reject wrong results --------------------------------------


def _fault_summary():
    summary = {"clean_reduction": 0.2}
    for cells in (8, 16):
        summary[f"flip_rate_c{cells}"] = 0.0
        summary[f"reduction_c{cells}"] = 0.2
    summary["flip_rate_c20"] = 0.1
    summary["reduction_c20"] = 0.05
    return summary


PROBS = {8: 0.0, 16: 0.0, 20: 0.3}


def test_fault_check_accepts_a_valid_cliff():
    assert checks.check_fault(_fault_summary(), 16, PROBS) == []


def test_fault_check_rejects_flips_at_16_cells():
    summary = _fault_summary()
    summary["flip_rate_c16"] = 1e-9
    assert any("16 cells" in p for p in checks.check_fault(summary, 16,
                                                           PROBS))


def test_fault_check_rejects_a_changed_safe_reduction():
    summary = _fault_summary()
    summary["reduction_c8"] = 0.19
    assert checks.check_fault(summary, 16, PROBS)


def test_fault_check_rejects_rates_past_the_flip_probability():
    summary = _fault_summary()
    summary["flip_rate_c20"] = 0.31
    assert checks.check_fault(summary, 16, PROBS)
    summary["flip_rate_c20"] = 0.0
    assert checks.check_fault(summary, 16, PROBS)


def _call(config, inst, hits=5, accesses=8):
    return {"app": "ATA", "config": config, "instructions": inst,
            "dram_accesses": 10,
            "cache_stats": {"l1d": {"hits": hits, "accesses": accesses},
                            "l2": {"hits": 1, "accesses": 4}}}


def test_replay_check_accepts_consistent_counts():
    calls = [_call("base/gto", 100), _call("base/lrr", 100)]
    assert checks.check_replay(calls, {"ATA": 100}) == []


def test_replay_check_rejects_a_count_that_changes_with_the_scheduler():
    calls = [_call("base/gto", 100), _call("base/lrr", 101)]
    assert any("varies" in p for p in checks.check_replay(calls,
                                                          {"ATA": 100}))


def test_replay_check_rejects_a_count_unlike_the_functional_trace():
    assert checks.check_replay([_call("base/gto", 100)], {"ATA": 99})


def test_replay_check_rejects_impossible_cache_counts():
    assert checks.check_replay([_call("base/gto", 100, hits=9)],
                               {"ATA": 100})


def test_table_check_rejects_a_resumed_table_that_differs():
    assert checks.check_tables(["== a ==\n1"], ["== a ==\n1"], "x") == []
    assert checks.check_tables(["== a ==\n1"], ["== a ==\n2"], "x")
    assert checks.check_tables(["== a ==\n1"], [], "x")


def _resume_case():
    plan = ["e::A", "e::B", "e::C"]
    first = {"completed": ["e::A"], "failed_units": [],
             "stats": {"run": 1, "skipped": 0, "failed": 0}}
    resumed = {"completed": ["e::B", "e::C"], "failed_units": [],
               "stats": {"run": 2, "skipped": 1, "failed": 0}}
    events = [{"type": "unit_completed", "key": k} for k in ("e::B", "e::C")]
    return plan, first, resumed, events


def test_resume_check_accepts_an_exact_resume():
    assert checks.check_resume(*_resume_case()) == []


def test_resume_check_rejects_a_rerun_unit():
    plan, first, resumed, events = _resume_case()
    events.append({"type": "unit_completed", "key": "e::A"})
    resumed["stats"]["run"] = 3
    assert checks.check_resume(plan, first, resumed, events)


def test_resume_check_rejects_a_wrong_skip_count():
    plan, first, resumed, events = _resume_case()
    resumed["stats"]["skipped"] = 0
    assert checks.check_resume(plan, first, resumed, events)


def test_claim_check_rejects_degraded_and_missing_claims():
    assert checks.check_claims({"a": "pass", "b": "not-run"}) == []
    assert checks.check_claims({"a": "degraded"})
    assert checks.check_claims({"a": "not-run"}, expected=("a",))


def test_same_counts_check_rejects_a_count_that_moved():
    assert checks.check_same_counts([{"x": 1}, {"x": 1}], ["x"]) == []
    assert checks.check_same_counts([{"x": 1}, {"x": 2}], ["x"])


# -- tracing and folds --------------------------------------------------


def test_recorder_self_time_is_duration_minus_children(tmp_path):
    rec = layers.Recorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = rec.wrap("outer", body, span=True)
    outer()
    calls, incl, self_s, _depth = rec.layers["outer"]
    assert calls == 1
    assert self_s == pytest.approx(incl - rec.layers["inner"][1], abs=1e-9)
    assert rec.layers["inner"][0] == 2
    rec.dump(tmp_path / "t.json")
    doc = json.loads((tmp_path / "t.json").read_text())
    assert [s["name"] for s in doc["spans"]] == ["outer"]


def test_recorder_counts_nested_calls_of_one_layer_once_in_time():
    rec = layers.Recorder()
    f = rec.wrap("f", lambda n: f(n - 1) if n else time.sleep(0.01))
    f(3)
    calls, incl, self_s, _depth = rec.layers["f"]
    assert calls == 4
    assert incl == pytest.approx(self_s, rel=0.01)


def test_pool_fold_from_ledger_events():
    events = [
        {"type": "unit_started", "key": "a", "ts": 0.0, "attrs": {}},
        {"type": "unit_started", "key": "b", "ts": 0.0, "attrs": {}},
        {"type": "unit_memo", "key": "a", "ts": 1.0,
         "attrs": {"hits": 2, "misses": 3}},
        {"type": "unit_completed", "key": "a", "ts": 1.0,
         "attrs": {"wall_s": 1.0}},
        {"type": "unit_completed", "key": "b", "ts": 3.0,
         "attrs": {"wall_s": 1.5}},
        {"type": "straggler_requeue", "key": "b", "ts": 2.0, "attrs": {}},
    ]
    pool = layers.pool_from_ledger(events)
    assert pool["pool.worker_busy_s"] == pytest.approx(2.5)
    assert pool["pool.queue_wait_s"] == pytest.approx(1.5)
    assert (pool["pool.memo_hits"], pool["pool.memo_misses"]) == (2, 3)
    assert pool["pool.stragglers"] == 1


# -- manifest and steadiness arithmetic ---------------------------------


def test_manifest_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER)
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] \
        == "setup_s"


def test_steadiness_spread_and_shift():
    q1, med, q3, rel = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and rel == pytest.approx((q3 - q1) / 3.0)
    assert steady.worse_shift(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert steady.worse_shift(10.0, 11.0, "higher") == pytest.approx(-0.1)
