"""Correctness checks on what a workload's processes returned.

Every checker takes plain data (the JSON the benchmark processes wrote)
and returns a list of problems; an empty list means the check passed.
The checks test properties the method must have or compare against an
independent computation made by the benchmark — never against stored
copies of earlier output — so a deliberate, versioned change to a
random stream still passes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: §7.1 claims checked on every fault-injection result.
FAULT_CLAIMS = ("sec7.1-injected-cliff", "sec7.1-measured-safe",
                "sec7.1-gain-collapses")
#: Claims checked on every replay-sweep result.
REPLAY_CLAIMS = ("fig21-scheduler-flat", "fig22-capacity-persistence")


def claim_verdicts(results: Sequence[dict], claim_ids=None) -> Dict[str, str]:
    """Grade claims on merged result dicts with the program's registry.

    With ``claim_ids=None`` every claim whose non-empty ``requires`` the
    results cover is graded. Claims that read the metrics snapshot
    (empty ``requires``) are skipped: a fault-injected run's counters
    include faulted flits, so they grade on a different input.
    """
    from repro.experiments.base import ExperimentResult
    from repro.fidelity.claims import CLAIMS
    from repro.fidelity.extract import ArtifactSet

    artifacts = ArtifactSet.from_results(
        [ExperimentResult.from_dict(r) for r in results])
    have = set(artifacts.results)
    verdicts = {}
    for claim in CLAIMS:
        if claim_ids is None:
            if not claim.requires or not set(claim.requires) <= have:
                continue
        elif claim.claim_id not in claim_ids:
            continue
        verdicts[claim.claim_id] = claim.evaluate(artifacts).verdict
    return verdicts


def check_claims(verdicts: Dict[str, str], expected=None) -> List[str]:
    """Every graded claim passes; ``not-run`` is allowed only for claims
    whose data the plan's app subset lacks (reported, not failed)."""
    problems = [f"claim {cid}: {v}" for cid, v in sorted(verdicts.items())
                if v not in ("pass", "not-run")]
    for cid in expected or ():
        if verdicts.get(cid) != "pass":
            problems.append(f"claim {cid}: {verdicts.get(cid, 'missing')}")
    return sorted(set(problems))


def check_fault(summary: Dict[str, float], max_safe: int,
                flip_probability: Dict[int, float]) -> List[str]:
    """§7.1 injection properties on one ``sec7.1-inject`` summary.

    At or below the analytic safe loading no read flips anything, so
    the flip rate is exactly 0 and the chip reduction equals the clean
    run's. Past it flips happen, but only stored 0s can flip, so the
    measured rate (flips over all bits read) is positive and at most
    the per-0 flip probability.
    """
    problems = []
    clean = summary["clean_reduction"]
    for cells, p in sorted(flip_probability.items()):
        rate = summary[f"flip_rate_c{cells}"]
        reduction = summary[f"reduction_c{cells}"]
        if cells <= max_safe:
            if rate != 0.0:
                problems.append(f"{cells} cells: flip rate {rate} != 0")
            if reduction != clean:
                problems.append(f"{cells} cells: reduction {reduction} != "
                                f"clean {clean}")
        elif not 0.0 < rate <= p:
            problems.append(f"{cells} cells: flip rate {rate} outside "
                            f"(0, {p}]")
    return problems


def check_replay(calls: Sequence[dict], funcount: Dict[str, int]) -> List[str]:
    """Fault-free replay invariants over every returned AppStats.

    An app executes the same dynamic instructions under every scheduler
    and capacity, and that count equals the number of dynamic records in
    its functional trace (counted by the benchmark). Every cache's hits
    plus misses equal its accesses, with 0 <= hits <= accesses, and no
    L2 miss happens without a DRAM access.
    """
    problems = []
    per_app: Dict[str, set] = {}
    for call in calls:
        per_app.setdefault(call["app"], set()).add(
            (call["config"], call["instructions"]))
        l2_misses = 0
        for level, cs in call["cache_stats"].items():
            hits, accesses = cs["hits"], cs["accesses"]
            misses = cs.get("misses", accesses - hits)
            if not 0 <= hits <= accesses or hits + misses != accesses:
                problems.append(f"{call['app']} {call['config']} {level}: "
                                f"hits {hits} misses {misses} accesses "
                                f"{accesses}")
            if level == "l2":
                l2_misses = misses
        if l2_misses > call["dram_accesses"]:
            problems.append(f"{call['app']} {call['config']}: {l2_misses} "
                            f"L2 misses but {call['dram_accesses']} DRAM "
                            f"accesses")
    for app, seen in sorted(per_app.items()):
        counts = {inst for _config, inst in seen}
        if len(counts) != 1:
            problems.append(f"{app}: instruction count varies with the "
                            f"configuration: {sorted(seen)}")
        elif app in funcount and counts != {funcount[app]}:
            problems.append(f"{app}: {counts.pop()} instructions replayed, "
                            f"{funcount[app]} records in the functional "
                            f"trace")
    missing = sorted(set(funcount) - set(per_app))
    if missing:
        problems.append(f"no replay results for {missing}")
    return problems


def check_resume(plan: Sequence[str], first: dict, resumed: dict,
                 resumed_events: Sequence[dict]) -> List[str]:
    """The resume skips exactly what the first process completed, runs
    each remaining unit once, and fails none."""
    problems = []
    done = list(first["completed"])
    if len(set(done)) != len(done):
        problems.append("first process completed a unit twice")
    ran = [ev["key"] for ev in resumed_events
           if ev["type"] == "unit_completed"]
    expected = sorted(set(plan) - set(done))
    if sorted(ran) != expected:
        extra = sorted(set(ran) - set(expected))
        lost = sorted(set(expected) - set(ran))
        dup = sorted({k for k in ran if ran.count(k) > 1})
        problems.append(f"resume ran the wrong units: extra {extra[:5]}, "
                        f"missing {lost[:5]}, repeated {dup[:5]}")
    stats = resumed["stats"]
    if stats["skipped"] != len(done):
        problems.append(f"resume skipped {stats['skipped']} units, the "
                        f"first process completed {len(done)}")
    if stats["run"] != len(expected):
        problems.append(f"resume ran {stats['run']} units, "
                        f"{len(expected)} remained")
    for part in (first, resumed):
        if part["stats"]["failed"] or part["failed_units"]:
            problems.append(f"failed units: {part['failed_units']}")
    return problems


def check_tables(tables: Sequence[str], reference: Sequence[str],
                 what: str) -> List[str]:
    """Merged result tables are byte-identical to a reference run's."""
    if list(tables) == list(reference):
        return []
    for i, (got, want) in enumerate(zip(tables, reference)):
        if got != want:
            return [f"{what}: table {i} differs from the reference run "
                    f"({got.splitlines()[0] if got else '<empty>'})"]
    return [f"{what}: {len(tables)} tables, reference has {len(reference)}"]


def check_same_counts(traced: Sequence[Dict[str, float]],
                      names: Sequence[str]) -> List[str]:
    """Simulated-event counts repeat exactly between traced rounds."""
    problems = []
    for name in names:
        values = {m[name] for m in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between traced rounds: "
                            f"{sorted(values)}")
    return problems
