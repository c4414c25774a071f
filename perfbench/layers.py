"""Per-layer timing and counting, taken from outside the program.

``install`` wraps public functions of each ``repro`` module with
benchmark-owned shims. Every shim times its call and keeps a stack so
that a layer's *self* time is its duration minus the wrapped calls it
made. Coarse layers (functional pass, replay, ``simulate_app``,
experiments, checkpoint I/O) also record one span each — name, start,
end, parent span and the unit key — kept in memory and written out by
``Recorder.dump`` when the process ends. Hot per-access layers (cache
lookups, NoC sends, tally adds) only count and time, because a span per
call would cost more than the call.

Inclusive time of a layer counts its outermost calls only, so a coder
that calls another coder is not timed twice.

``PER_LAYER`` lists every per-layer metric the traced run reports, in
the order the README documents them; ``fold`` turns the summed
process dumps into those metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: (metric, unit) for every per-layer metric, grouped by module.
PER_LAYER = [
    # repro.kernels, repro.arch.engine
    ("kernels.build_s", "s"), ("engine.functional_s", "s"),
    ("engine.functional_calls", "count"), ("engine.warp_inst", "count"),
    # repro.arch.gpu
    ("gpu.replay_s", "s"), ("gpu.replays", "count"),
    ("gpu.sim_cycles", "count"), ("gpu.kinst_per_s", "kinst/s"),
    # repro.arch.memory
    ("memory.read_line_calls", "count"), ("memory.read_line_s", "s"),
    ("memory.read_lines_calls", "count"),
    # repro.arch.cache
    ("cache.lookup_calls", "count"), ("cache.lookup_s", "s"),
    ("cache.mshr_acquire_calls", "count"), ("cache.mshr_acquire_s", "s"),
    ("cache.l1_hits", "count"), ("cache.l1_misses", "count"),
    ("cache.l2_hits", "count"), ("cache.l2_misses", "count"),
    # repro.arch.stats
    ("noc.send_calls", "count"), ("noc.send_s", "s"),
    ("noc.flits", "count"), ("noc.toggles", "count"),
    ("tally.add_calls", "count"), ("tally.add_s", "s"),
    ("tally.flush_s", "s"),
    # repro.core
    ("coders.encode_calls", "count"), ("coders.encode_s", "s"),
    ("bitutils.sequence_toggles_s", "s"),
    # repro.faults
    ("faults.corrupt_line_calls", "count"), ("faults.corrupt_line_s", "s"),
    ("faults.corrupt_payloads_s", "s"),
    ("faults.array_bits", "count"), ("faults.array_flips", "count"),
    ("faults.noc_bits", "count"), ("faults.noc_flips", "count"),
    # repro.sim
    ("sim.simulate_app_calls", "count"), ("sim.simulate_app_self_s", "s"),
    ("sim.memo_hits", "count"), ("sim.memo_misses", "count"),
    # repro.analysis, repro.power, repro.experiments
    ("analysis.build_app_stats_s", "s"),
    ("power.evaluate_calls", "count"), ("power.evaluate_s", "s"),
    ("experiments.self_s", "s"),
    # repro.runner, repro.obs.ledger
    ("checkpoint.saves", "count"), ("checkpoint.save_s", "s"),
    ("checkpoint.written_mb", "MB"), ("checkpoint.load_s", "s"),
    ("runner.units", "count"), ("runner.skipped", "count"),
    ("ledger.emits", "count"), ("ledger.emit_s", "s"),
    # repro.runner.pool (folded from the run ledger)
    ("pool.worker_busy_s", "s"), ("pool.queue_wait_s", "s"),
    ("pool.memo_hits", "count"), ("pool.memo_misses", "count"),
    ("pool.redispatched", "count"), ("pool.stragglers", "count"),
    # the tracing itself
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
]

#: Simulated-event counts: a change that only speeds up the simulator
#: must leave these identical, and two traced runs must agree on them.
SIM_COUNTS = ("engine.warp_inst", "gpu.sim_cycles", "cache.l1_hits",
              "cache.l1_misses", "cache.l2_hits", "cache.l2_misses",
              "noc.flits", "noc.toggles", "faults.array_bits",
              "faults.array_flips", "faults.noc_bits", "faults.noc_flips")


class Recorder:
    """Call counts, inclusive and self time per layer, spans, counters."""

    def __init__(self):
        #: layer -> [calls, inclusive s, self s, nesting depth]
        self.layers = {}
        self.counters = defaultdict(int)
        self.stack = []
        self.spans = []
        self.unit = None
        self.fault_models = []

    def wrap(self, layer, fn, span=False, on_return=None):
        """A shim around ``fn`` that books its time under ``layer``."""
        perf = time.perf_counter
        stack, spans = self.stack, self.spans
        tot = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if span:
                sid = len(spans)
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                spans.append(None)  # reserve the id, filled on exit
                frame = [0.0, sid]
            else:
                frame = [0.0, None]
            stack.append(frame)
            nested = tot[3]
            tot[3] = nested + 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tot[3] = nested
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tot[0] += 1
                tot[2] += dur - frame[0]
                if not nested:
                    tot[1] += dur
                if span:
                    spans[sid] = (layer, self.unit, parent, t0, t1,
                                  dur - frame[0])
            if on_return is not None:
                on_return(out, args)
            return out

        return shim

    def dump(self, path):
        """Write the totals, then the spans, as one JSON document."""
        doc = {"calls": {k: v[0] for k, v in self.layers.items()},
               "incl": {k: v[1] for k, v in self.layers.items()},
               "self": {k: v[2] for k, v in self.layers.items()},
               "counters": dict(self.counters)}
        for fm in self.fault_models:
            for attr in ("array_bits", "array_flips", "noc_bits",
                         "noc_flips"):
                doc["counters"][f"faults.{attr}"] = (
                    doc["counters"].get(f"faults.{attr}", 0)
                    + int(getattr(fm, attr)))
        doc["spans"] = [
            {"id": i, "name": s[0], "unit": s[1], "parent": s[2],
             "start": s[3], "end": s[4], "self_s": s[5]}
            for i, s in enumerate(self.spans) if s is not None]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(orig, shim):
    """Point every ``repro`` module global bound to ``orig`` at ``shim``
    (catches ``from x import f`` copies as well as the defining module)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, shim)


def _patch_method(rec, cls, attr, layer, **kw):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(rec.wrap(layer, raw.__func__, **kw)))
    else:
        setattr(cls, attr, rec.wrap(layer, raw, **kw))


def install_counting(on_stats):
    """Only the ``simulate_app`` shim: ``on_stats(app_stats, config)``
    sees every returned AppStats, memo hits included. The untraced runs
    carry this one shim (one Python frame per ``simulate_app`` call)."""
    import repro.sim as sim

    orig = sim.simulate_app

    @functools.wraps(orig)
    def counted(app, config=sim.BASELINE_CONFIG, *args, **kwargs):
        stats = orig(app, config, *args, **kwargs)
        on_stats(stats, config)
        return stats

    _rebind(orig, counted)
    return counted


def install(rec):
    """Wrap every traced layer; returns ``rec`` for chaining."""
    import repro.sim as sim
    from repro.analysis import parser
    from repro.arch import engine
    from repro.arch.cache import Cache, MSHRFile
    from repro.arch.gpu import GPUReplay
    from repro.arch.memory import GlobalMemory
    from repro.arch.stats import NoCStats, TallyBatch
    from repro.core import bitutils, coders
    from repro.experiments.registry import EXPERIMENTS
    from repro.faults import FaultModel
    from repro.kernels.api import GPUApp
    from repro.obs.ledger import RunLedger
    from repro.power import ChipModel
    from repro.runner.checkpoint import Checkpoint

    c = rec.counters

    def functional_done(result, _args):
        c["engine.warp_inst"] += sum(
            len(warp.records) for launch in result.trace.launches
            for block in launch.blocks for warp in block.warps)

    def replay_done(result, _args):
        c["gpu.sim_cycles"] += int(result.cycles)
        c["gpu.replay_inst"] += int(result.timing.instructions)

    def stats_done(stats, _args):
        for level, cs in stats.cache_stats.items():
            tier = "l2" if level == "l2" else "l1"
            c[f"cache.{tier}_hits"] += int(cs["hits"])
            c[f"cache.{tier}_misses"] += int(cs["accesses"] - cs["hits"])
        c["noc.flits"] += int(stats.noc_flits)
        c["noc.toggles"] += int(sum(stats.noc_toggles.values()))

    def saved(_out, args):
        ck = args[0]
        if os.path.exists(ck.path):
            c["checkpoint.written_bytes"] += os.path.getsize(ck.path)

    replays_seen = [0]

    def simulated(_out, _args):
        # A simulate_app call that ran no replay was served by a memo.
        replays = rec.layers["gpu.replay"][0]
        c["sim.memo_misses" if replays != replays_seen[0]
          else "sim.memo_hits"] += 1
        replays_seen[0] = replays

    fm_init = FaultModel.__init__

    def fm_tracked(self, *args, **kwargs):
        fm_init(self, *args, **kwargs)
        rec.fault_models.append(self)

    FaultModel.__init__ = fm_tracked

    _patch_method(rec, GPUApp, "build", "kernels.build", span=True)
    shim = rec.wrap("engine.functional", engine.run_functional, span=True,
                    on_return=functional_done)
    _rebind(engine.run_functional, shim)
    _patch_method(rec, GPUReplay, "run", "gpu.replay", span=True,
                  on_return=replay_done)
    _patch_method(rec, GlobalMemory, "read_line", "memory.read_line")
    _patch_method(rec, GlobalMemory, "read_lines", "memory.read_lines")
    _patch_method(rec, Cache, "lookup", "cache.lookup")
    _patch_method(rec, MSHRFile, "acquire", "cache.mshr_acquire")
    _patch_method(rec, NoCStats, "send", "noc.send")
    for attr in ("add_warp", "add_line", "add_inst"):
        _patch_method(rec, TallyBatch, attr, "tally.add")
    _patch_method(rec, TallyBatch, "flush", "tally.flush")
    for cls in (coders.IdentityCoder, coders.NVCoder, coders.VSCoder,
                coders.ISACoder, coders.ComposedCoder):
        for attr in ("encode_words", "encode_masked", "encode_blocks",
                     "encode_masked_blocks"):
            if attr in cls.__dict__:
                _patch_method(rec, cls, attr, "coders.encode")
    shim = rec.wrap("bitutils.sequence_toggles", bitutils.sequence_toggles)
    _rebind(bitutils.sequence_toggles, shim)
    for attr in ("corrupt_line", "corrupt_payloads"):
        _patch_method(rec, FaultModel, attr, f"faults.{attr}")
    shim = rec.wrap("sim.simulate_app", sim.simulate_app, span=True,
                    on_return=simulated)
    _rebind(sim.simulate_app, shim)
    shim = rec.wrap("analysis.build_app_stats", parser.build_app_stats,
                    span=True, on_return=stats_done)
    _rebind(parser.build_app_stats, shim)
    _patch_method(rec, ChipModel, "evaluate", "power.evaluate")
    for exp_id, driver in list(EXPERIMENTS.items()):
        EXPERIMENTS[exp_id] = _experiment_shim(rec, exp_id, driver)
    # A checkpoint without a path saves nothing; only real saves count.
    raw_save = Checkpoint.save
    timed_save = rec.wrap("checkpoint.save", raw_save, span=True,
                          on_return=saved)

    @functools.wraps(raw_save)
    def save(self):
        return (timed_save if self.path else raw_save)(self)

    Checkpoint.save = save
    _patch_method(rec, Checkpoint, "load", "checkpoint.load", span=True)
    _patch_method(rec, RunLedger, "emit", "ledger.emit")
    return rec


def _experiment_shim(rec, exp_id, driver):
    """Time one experiment driver and name the unit its spans belong to."""
    timed = rec.wrap("experiments", driver, span=True)

    @functools.wraps(driver)
    def shim(*args, **kwargs):
        apps = kwargs.get("apps")
        name = apps[0].name if apps is not None and len(apps) == 1 else "*"
        rec.unit = f"{exp_id}::{name}"
        return timed(*args, **kwargs)

    return shim


def merge(docs):
    """Sum several process dumps (spans are not merged)."""
    out = {"calls": defaultdict(int), "incl": defaultdict(float),
           "self": defaultdict(float), "counters": defaultdict(int)}
    for doc in docs:
        for part in out:
            for key, value in doc.get(part, {}).items():
                out[part][key] += value
    return out


def fold(doc, pool=None, runner=None):
    """Per-layer metric values from a merged dump.

    ``pool`` is the ledger fold of :func:`pool_from_ledger` and
    ``runner`` the summed ``SweepStats`` (units run, skipped).
    """
    calls, incl, self_s, c = (doc["calls"], doc["incl"], doc["self"],
                              doc["counters"])
    replay_s = incl.get("gpu.replay", 0.0)
    m = {
        "kernels.build_s": incl.get("kernels.build", 0.0),
        "engine.functional_s": self_s.get("engine.functional", 0.0),
        "engine.functional_calls": calls.get("engine.functional", 0),
        "engine.warp_inst": c.get("engine.warp_inst", 0),
        "gpu.replay_s": replay_s,
        "gpu.replays": calls.get("gpu.replay", 0),
        "gpu.sim_cycles": c.get("gpu.sim_cycles", 0),
        "gpu.kinst_per_s": (c.get("gpu.replay_inst", 0) / 1e3 / replay_s
                            if replay_s else 0.0),
        "memory.read_line_calls": calls.get("memory.read_line", 0),
        "memory.read_line_s": incl.get("memory.read_line", 0.0),
        "memory.read_lines_calls": calls.get("memory.read_lines", 0),
        "cache.lookup_calls": calls.get("cache.lookup", 0),
        "cache.lookup_s": incl.get("cache.lookup", 0.0),
        "cache.mshr_acquire_calls": calls.get("cache.mshr_acquire", 0),
        "cache.mshr_acquire_s": incl.get("cache.mshr_acquire", 0.0),
        "noc.send_calls": calls.get("noc.send", 0),
        "noc.send_s": incl.get("noc.send", 0.0),
        "tally.add_calls": calls.get("tally.add", 0),
        "tally.add_s": incl.get("tally.add", 0.0),
        "tally.flush_s": incl.get("tally.flush", 0.0),
        "coders.encode_calls": calls.get("coders.encode", 0),
        "coders.encode_s": incl.get("coders.encode", 0.0),
        "bitutils.sequence_toggles_s": incl.get("bitutils.sequence_toggles",
                                                0.0),
        "faults.corrupt_line_calls": calls.get("faults.corrupt_line", 0),
        "faults.corrupt_line_s": incl.get("faults.corrupt_line", 0.0),
        "faults.corrupt_payloads_s": incl.get("faults.corrupt_payloads",
                                              0.0),
        "sim.simulate_app_calls": calls.get("sim.simulate_app", 0),
        "sim.simulate_app_self_s": self_s.get("sim.simulate_app", 0.0),
        "sim.memo_hits": c.get("sim.memo_hits", 0),
        "sim.memo_misses": c.get("sim.memo_misses", 0),
        "analysis.build_app_stats_s": incl.get("analysis.build_app_stats",
                                               0.0),
        "power.evaluate_calls": calls.get("power.evaluate", 0),
        "power.evaluate_s": incl.get("power.evaluate", 0.0),
        # The experiment drivers' own time: minus simulate_app and every
        # other traced layer they call (simulate_suite's functional
        # passes, ChipModel.evaluate).
        "experiments.self_s": self_s.get("experiments", 0.0),
        "checkpoint.saves": calls.get("checkpoint.save", 0),
        "checkpoint.save_s": incl.get("checkpoint.save", 0.0),
        "checkpoint.written_mb": c.get("checkpoint.written_bytes", 0) / 1e6,
        "checkpoint.load_s": incl.get("checkpoint.load", 0.0),
        "ledger.emits": calls.get("ledger.emit", 0),
        "ledger.emit_s": incl.get("ledger.emit", 0.0),
    }
    for name in SIM_COUNTS:
        if name.startswith(("cache.", "noc.", "faults.")):
            m[name] = c.get(name, 0)
    runner = runner or {}
    m["runner.units"] = runner.get("run", 0)
    m["runner.skipped"] = runner.get("skipped", 0)
    m.update(pool or pool_from_ledger([]))
    return m


def pool_from_ledger(events):
    """Fold the pool's worker-side facts out of run-ledger events.

    Worker calls happen in other processes, so their busy time and memo
    activity come home only inside unit records, which the parent
    writes to the ledger: ``unit_started`` (hand-out), ``unit_memo``
    (the worker's replay-memo delta) and ``unit_completed`` (the
    worker-side wall time of the unit).
    """
    started, busy, wait = {}, 0.0, 0.0
    out = {"pool.memo_hits": 0, "pool.memo_misses": 0,
           "pool.redispatched": 0, "pool.stragglers": 0}
    for ev in events:
        kind, key, attrs = ev["type"], ev.get("key"), ev.get("attrs", {})
        if kind == "unit_started":
            started.setdefault(key, ev["ts"])
        elif kind == "unit_memo":
            out["pool.memo_hits"] += int(attrs.get("hits") or 0)
            out["pool.memo_misses"] += int(attrs.get("misses") or 0)
        elif kind == "unit_completed":
            unit_wall = float(attrs.get("wall_s") or 0.0)
            busy += unit_wall
            if key in started:
                wait += max(0.0, ev["ts"] - started[key] - unit_wall)
        elif kind == "unit_redispatch":
            out["pool.redispatched"] += 1
        elif kind == "straggler_requeue":
            out["pool.stragglers"] += 1
    out["pool.worker_busy_s"] = busy
    out["pool.queue_wait_s"] = wait
    return out
