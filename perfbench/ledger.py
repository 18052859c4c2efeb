"""Traced-run ledger: spans around calls into each layer's public functions.

The ledger measures the layers from outside.  :meth:`Ledger.install`
replaces public functions and methods of ``repro`` with thin wrappers that
record one span per call (name, start, end, parent) and restores the
originals on :meth:`Ledger.uninstall`; no code under ``src/`` changes.
Generator functions (the spread directives, the OpenMP ops, the device
copy and kernel ops, ``execute_pragma``) are wrapped so that every resume
is a span, because their work happens on each ``send``, not at the call.

A span's self time is its duration minus the durations of its direct
children.  Every span nests inside the span that was open when it started
(all wrapped calls are synchronous), so the self times of all spans add up
to the summed duration of the root spans, and the traced wall time minus
that sum is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: The layers the ledger attributes time to, named after ``repro``'s
#: packages.  A span's layer is the part of its name before the first dot.
LAYERS = ("somier", "spread", "openmp", "sim", "device", "pragma",
          "analysis", "obs")

#: (module, attribute path, span name) of every plain function wrapped.
CALL_TARGETS = (
    ("repro.somier.driver", "run_somier", "somier.run"),
    ("repro.somier.kernels", "forces_body", "somier.forces"),
    ("repro.somier.kernels", "accelerations_body", "somier.kernel"),
    ("repro.somier.kernels", "velocities_body", "somier.kernel"),
    ("repro.somier.kernels", "positions_body", "somier.kernel"),
    ("repro.somier.kernels", "centers_body", "somier.kernel"),
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.openmp.runtime", "OpenMPRuntime.run", "openmp.run"),
    ("repro.openmp.depend", "DependTracker.resolve", "openmp.depend"),
    ("repro.openmp.depend", "DependTracker.register", "openmp.depend"),
    ("repro.openmp.depend", "DependTracker.resolve_compiled",
     "openmp.depend"),
    ("repro.openmp.depend", "DependTracker.register_compiled",
     "openmp.depend"),
    ("repro.openmp.depend", "DependTracker.resolve_and_register",
     "openmp.depend"),
    ("repro.openmp.dataenv", "DeviceDataEnv.lookup", "openmp.dataenv"),
    ("repro.openmp.dataenv", "DeviceDataEnv.require", "openmp.dataenv"),
    ("repro.openmp.dataenv", "DeviceDataEnv.enter", "openmp.dataenv"),
    ("repro.openmp.dataenv", "DeviceDataEnv.exit", "openmp.dataenv"),
    ("repro.openmp.dataenv", "DeviceDataEnv.release_storage",
     "openmp.dataenv"),
    ("repro.openmp.dataenv", "DeviceDataEnv.purge", "openmp.dataenv"),
    ("repro.device.device", "Device.allocate", "device.alloc"),
    ("repro.device.device", "Device.free", "device.alloc"),
    ("repro.pragma.parser", "parse_pragma", "pragma.parse"),
    ("repro.analysis.diffcheck", "check_program", "analysis.check"),
    ("repro.analysis.diffcheck", "execute_source", "analysis.execute"),
    ("repro.analysis.linter", "lint_program", "analysis.lint"),
    ("repro.analysis.program", "parse_program", "analysis.parse"),
    ("repro.obs.tool", "ToolRegistry.dispatch", "obs.dispatch"),
    ("repro.obs.report", "Profiler.report", "obs.report"),
    ("repro.obs.report", "ProfileReport.to_json", "obs.report"),
    ("repro.openmp.runtime", "OpenMPRuntime.analysis", "obs.critpath"),
    ("repro.obs.critpath", "CritPathAnalysis.headline", "obs.critpath"),
)

#: (module, attribute path, span name) of every generator function wrapped;
#: each resume of the generator it returns is one span.
GEN_TARGETS = (
    ("repro.spread.spread_target", "target_spread", "spread.launch"),
    ("repro.spread.spread_target",
     "target_spread_teams_distribute_parallel_for", "spread.launch"),
    ("repro.spread.spread_data", "target_data_spread", "spread.launch"),
    ("repro.spread.spread_data", "target_enter_data_spread",
     "spread.launch"),
    ("repro.spread.spread_data", "target_exit_data_spread",
     "spread.launch"),
    ("repro.spread.spread_data", "target_update_spread", "spread.launch"),
    ("repro.openmp.exec_ops", "enter_op", "openmp.op"),
    ("repro.openmp.exec_ops", "exit_op", "openmp.op"),
    ("repro.openmp.exec_ops", "update_op", "openmp.op"),
    ("repro.openmp.exec_ops", "kernel_op", "openmp.op"),
    ("repro.openmp.tasks", "TaskCtx.taskwait", "openmp.sync"),
    ("repro.openmp.tasks", "TaskCtx.taskgroup_end", "openmp.sync"),
    ("repro.device.device", "Device.copy_h2d", "device.op"),
    ("repro.device.device", "Device.copy_d2h", "device.op"),
    ("repro.device.device", "Device.copy_h2d_batch", "device.op"),
    ("repro.device.device", "Device.copy_d2h_batch", "device.op"),
    ("repro.device.device", "Device.launch_kernel", "device.op"),
    ("repro.pragma.codegen", "execute_pragma", "pragma.lower"),
)

#: Host-work op names ending in these suffixes are copies (the staging
#: read and the commit write of one transfer); every other name passed to
#: ``Simulator.run_work`` is a kernel body.
COPY_SUFFIXES = (":stage", ":commit")


class TimedGen:
    """Iterator over a wrapped generator that records a span per resume.

    It supports ``send``/``throw``/``close``, so ``yield from`` and the
    simulator's ``Process`` treat it exactly like the generator.
    """

    __slots__ = ("_ledger", "_gen", "_name")

    def __init__(self, ledger: "Ledger", gen, name: str):
        self._ledger = ledger
        self._gen = gen
        self._name = name

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", self._name)

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        idx = self._ledger.open(self._name)
        try:
            return self._gen.send(value)
        finally:
            self._ledger.close(idx)

    def throw(self, typ, val=None, tb=None) -> Any:
        idx = self._ledger.open(self._name)
        try:
            if val is None and tb is None:
                return self._gen.throw(typ)
            return self._gen.throw(typ, val, tb)
        finally:
            self._ledger.close(idx)

    def close(self) -> None:
        self._gen.close()


def _resolve(module_name: str, attr: str):
    """``(owner, attribute name)`` of ``attr`` ("func" or "Class.method")
    in the module called *module_name*."""
    owner: Any = importlib.import_module(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Ledger:
    """Records spans in memory; aggregates them when the traced run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index]``; parent -1 is a root span
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        #: spans recorded per name (calls, or resumes for generators)
        self.calls: Dict[str, int] = defaultdict(int)
        #: summed duration of the outermost span of each name
        self.inclusive: Dict[str, float] = defaultdict(float)
        #: counts gathered at wrapped boundaries (launches, runtime counters)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0,
                           stack[-1] if stack else -1])
        stack.append(idx)
        self._depth[name] += 1
        self.calls[name] += 1
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        span = self.spans[idx]
        span[2] = end
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        name = span[0]
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.inclusive[name] += end - span[1]

    def active(self, name: str) -> bool:
        """Whether a span called *name* is open."""
        return self._depth[name] > 0

    # -- wrappers ----------------------------------------------------------------

    def wrap_call(self, fn: Callable, name: str) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = ledger.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.close(idx)
        return traced

    def wrap_gen(self, fn: Callable, name: str) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "spread.launch" and not ledger.active(name):
                ledger.counts["spread.launches"] += 1
            return TimedGen(ledger, fn(*args, **kwargs), name)
        return traced

    def wrap_run_work(self, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def run_work(sim, work, accesses=None, name=""):
            idx = ledger.open("device.copy" if name.endswith(COPY_SUFFIXES)
                              else "device.kernel")
            try:
                return fn(sim, work, accesses, name)
            finally:
                ledger.close(idx)
        return run_work

    def wrap_drive(self, fn: Callable) -> Callable:
        """``diffcheck.drive_program``: also collect its runtime's counters,
        since ``execute_source`` builds and drops the runtime itself."""
        ledger = self

        @functools.wraps(fn)
        def drive_program(rt, program):
            idx = ledger.open("analysis.drive")
            try:
                return fn(rt, program)
            finally:
                ledger.close(idx)
                ledger.add_runtime(rt)
        return drive_program

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, owner: Any, attr: str,
                          wrapper: Callable) -> None:
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        # A module-level function may also be bound by ``from ... import``
        # in other modules: rebind every name that refers to it.
        original = getattr(owner, attr)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def install(self) -> None:
        """Wrap every target until :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        targets = ([(t, self.wrap_call) for t in CALL_TARGETS]
                   + [(t, self.wrap_gen) for t in GEN_TARGETS])
        for (module, attr, name), wrap in targets:
            owner, key = _resolve(module, attr)
            self._patch_everywhere(owner, key, wrap(getattr(owner, key), name))
        owner, key = _resolve("repro.sim.engine", "Simulator.run_work")
        self._patch(owner, key, self.wrap_run_work(getattr(owner, key)))
        owner, key = _resolve("repro.analysis.diffcheck", "drive_program")
        self._patch_everywhere(owner, key, self.wrap_drive(getattr(owner, key)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- counters ----------------------------------------------------------------

    def add_runtime(self, rt) -> None:
        """Accumulate the counters a finished runtime already keeps."""
        for key, value in runtime_counters(rt).items():
            self.counts[key] += value

    # -- aggregation -------------------------------------------------------------

    def self_by_name(self) -> Dict[str, float]:
        """Summed self time (duration minus direct children) per name."""
        if self._stack:
            raise RuntimeError("self times need every span closed")
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans):
            out[name] += end - start - child[i]
        return out

    def self_times(self, wall: float) -> Dict[str, float]:
        """Per-layer self time plus ``unattributed`` over a traced window
        of length *wall* that contains every recorded span."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, self_s in self.self_by_name().items():
            out[name.split(".", 1)[0]] += self_s
        out["unattributed"] = wall - sum(end - start for _n, start, end, p
                                         in self.spans if p < 0)
        return out

    def export(self, wall: float) -> Dict[str, object]:
        """The spans in a compact form for writing out: a name table and
        ``[name index, start ns, end ns, parent index]`` rows, with times
        relative to the first span."""
        names: Dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(name, len(names)),
                 round((start - origin) * 1e9), round((end - origin) * 1e9),
                 parent]
                for name, start, end, parent in self.spans]
        return {"wall_s": wall, "names": list(names), "spans": rows}


def runtime_counters(rt) -> Dict[str, float]:
    """Counters an :class:`~repro.openmp.runtime.OpenMPRuntime` keeps,
    read after its run: engine, plan cache, devices, sanitizer, tasks."""
    eng = rt.sim.engine_stats()
    devs = rt.devices
    scale = rt.cost_model.scale
    return {
        "events_dispatched": eng["events_dispatched"],
        "fused_segments": eng["fused_segments"],
        "freelist_created": eng["timeouts_created"] + eng["calls_created"],
        "freelist_reused": eng["timeouts_reused"] + eng["calls_reused"],
        "plan_cache_hits": rt.plan_cache.hits,
        "plan_cache_misses": rt.plan_cache.misses,
        "macro_replays": rt.plan_cache.macro_replays,
        "tracked_tasks": rt.task_count,
        "network_bytes": sum(d.net_bytes for d in devs),
        "copy_bytes": sum(d.h2d_bytes + d.d2h_bytes for d in devs) / scale,
        "memcpy_calls": sum(d.memcpy_calls for d in devs),
        "kernels_launched": sum(d.kernels_launched for d in devs),
        "sanitizer_checks": (rt.sanitizer.access_checks
                             if rt.sanitizer is not None else 0),
    }


#: Every per-layer metric: (name, unit, which direction is better).
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("sim.events_dispatched", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.freelist_reuse_ratio", "ratio", "higher"),
        ("sim.fused_segments", "count", "higher"),
        ("sim.network_bytes", "B", "lower"),
        ("spread.launches", "count", "lower"),
        ("spread.us_per_launch", "us", "lower"),
        ("spread.plan_cache_hit_ratio", "ratio", "higher"),
        ("spread.macro_replay_ratio", "ratio", "higher"),
        ("openmp.depend_calls", "count", "lower"),
        ("openmp.depend_s", "s", "lower"),
        ("openmp.dataenv_calls", "count", "lower"),
        ("openmp.dataenv_s", "s", "lower"),
        ("openmp.tracked_tasks", "count", "lower"),
        ("device.copy_s", "s", "lower"),
        ("device.kernel_s", "s", "lower"),
        ("device.copy_bytes", "computed_B", "lower"),
        ("device.copy_gb_per_s", "computed_GB/s", "higher"),
        ("device.live_allocations", "count", "lower"),
        ("device.memcpy_calls", "count", "lower"),
        ("device.kernels_launched", "count", "lower"),
        ("somier.forces_s", "s", "lower"),
        ("somier.kernel_calls", "count", "lower"),
        ("pragma.parse_calls", "count", "lower"),
        ("pragma.parse_s", "s", "lower"),
        ("pragma.lower_s", "s", "lower"),
        ("analysis.lint_s", "s", "lower"),
        ("analysis.execute_s", "s", "lower"),
        ("analysis.sanitizer_checks", "count", "lower"),
        ("analysis.imprecise", "count", "lower"),
        ("analysis.unsound", "count", "lower"),
        ("obs.callbacks", "count", "lower"),
        ("obs.dispatch_s", "s", "lower"),
        ("obs.report_s", "s", "lower"),
        ("obs.critpath_s", "s", "lower"),
    ]
)


def layer_metrics(ledger: Ledger, wall: float, overhead_ratio: float,
                  extra: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """The per-layer metrics of one traced run of *wall* seconds (see
    README.md); *overhead_ratio* compares it with untraced runs."""
    selfs = ledger.self_times(wall)
    inc = ledger.inclusive
    calls = ledger.calls
    c = ledger.counts
    launches = c["spread.launches"]
    events = c["events_dispatched"]
    freelist = c["freelist_created"] + c["freelist_reused"]
    lookups = c["plan_cache_hits"] + c["plan_cache_misses"]
    copy_s = inc["device.copy"]
    out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    out.update({
        "trace.wall_s": wall,
        "trace.unattributed_s": selfs["unattributed"],
        "trace.spans": len(ledger.spans),
        "trace.overhead_ratio": overhead_ratio,
        "sim.events_dispatched": events,
        "sim.ns_per_event": selfs["sim"] / events * 1e9 if events else 0.0,
        "sim.freelist_reuse_ratio": (c["freelist_reused"] / freelist
                                     if freelist else 0.0),
        "sim.fused_segments": c["fused_segments"],
        "sim.network_bytes": c["network_bytes"],
        "spread.launches": launches,
        "spread.us_per_launch": (selfs["spread"] / launches * 1e6
                                 if launches else 0.0),
        "spread.plan_cache_hit_ratio": (c["plan_cache_hits"] / lookups
                                        if lookups else 0.0),
        "spread.macro_replay_ratio": (c["macro_replays"] / launches
                                      if launches else 0.0),
        "openmp.depend_calls": calls["openmp.depend"],
        "openmp.depend_s": inc["openmp.depend"],
        "openmp.dataenv_calls": calls["openmp.dataenv"],
        "openmp.dataenv_s": inc["openmp.dataenv"],
        "openmp.tracked_tasks": c["tracked_tasks"],
        "device.copy_s": copy_s,
        "device.kernel_s": inc["device.kernel"],
        "device.copy_bytes": c["copy_bytes"],
        "device.copy_gb_per_s": (c["copy_bytes"] / copy_s / 1e9
                                 if copy_s else 0.0),
        "device.memcpy_calls": c["memcpy_calls"],
        "device.kernels_launched": c["kernels_launched"],
        "somier.forces_s": inc["somier.forces"],
        "somier.kernel_calls": (calls["somier.forces"]
                                + calls["somier.kernel"]),
        "pragma.parse_calls": calls["pragma.parse"],
        "pragma.parse_s": inc["pragma.parse"],
        "pragma.lower_s": ledger.self_by_name()["pragma.lower"],
        "analysis.lint_s": inc["analysis.lint"],
        "analysis.execute_s": inc["analysis.execute"],
        "analysis.sanitizer_checks": c["sanitizer_checks"],
        "obs.callbacks": calls["obs.dispatch"],
        "obs.dispatch_s": inc["obs.dispatch"],
        "obs.report_s": inc["obs.report"],
        "obs.critpath_s": inc["obs.critpath"],
    })
    out.update(extra or {})
    return out
