"""Macro-program replay: bit identity against the cold reference.

A static spread directive is lowered once into a macro program, which
later launches replay (:mod:`repro.spread.macro`).  The acceptance
contract is the plan cache's: replay must be observationally
indistinguishable from lowering every launch afresh (``plan_cache=False``).
Same virtual clock, same trace events, same results, same
sanitizer/analyzer output — at every worker count, with data depend, and
across seeded device- and node-loss failover.
"""

import numpy as np
import pytest

from repro.device.kernel import KernelSpec
from repro.obs import MetricsTool
from repro.openmp import Map, OpenMPRuntime, Var
from repro.openmp.depend import Dep
from repro.sim.topology import cte_power_node, uniform_cluster
from repro.spread import (
    omp_spread_size,
    omp_spread_start,
    target_data_spread,
    target_enter_data_spread,
    target_exit_data_spread,
    target_spread,
    target_spread_teams_distribute_parallel_for,
    target_update_spread,
)
from repro.spread import macro
from repro.spread.plan_cache import SpreadPlanCache

S, Z = omp_spread_start, omp_spread_size
N = 64
DEVICES = [0, 1, 2, 3]
ITERS = 5


@pytest.fixture(autouse=True)
def _hermetic_knob_env(monkeypatch):
    """Replay declines whenever a fault injector or sanitizer is armed (by
    design), so the engagement/counter assertions here require the CI
    env-matrix legs (``REPRO_FAULTS``, ``REPRO_SANITIZE``,
    ``REPRO_ANALYZE``) not to leak in; the scenarios that want those hooks
    arm them explicitly."""
    for knob in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                 "REPRO_ANALYZE"):
        monkeypatch.delenv(knob, raising=False)


def make_rt(**kw):
    kw.setdefault("topology", cte_power_node(4, memory_bytes=1e9))
    kw.setdefault("trace_enabled", True)
    return OpenMPRuntime(**kw)


def double_kernel():
    def body(lo, hi, env):
        a, b = env["A"], env["B"]
        b[lo:hi] = a[lo:hi] * 2.0 + 1.0

    return KernelSpec("double", body)


def incr_kernel():
    def body(lo, hi, env):
        x = env["X"]
        x[lo:hi] = x[lo:hi] * 2.0 + 1.0

    return KernelSpec("incr", body)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _composite_run(plan_cache=True, tools=(), depends=False, **rt_kw):
    """One run exercising all six spread directives, ITERS times over.

    Covers ``target spread`` (bare), the combined teams directive, enter/
    exit data, the structured data region and ``target update spread`` —
    every directive whose program a plan-cache hit replays.  With
    ``depends=True`` the kernel launches carry depend clauses, so the
    replay goes through the two-phase DependTracker protocol.
    """
    rt_kw.setdefault("topology", cte_power_node(4, memory_bytes=1e9))
    devices = list(range(rt_kw["topology"].num_devices))
    rt = make_rt(plan_cache=plan_cache, **rt_kw)
    for tool in tools:
        rt.tools.register(tool)
    A, B = np.arange(float(N)), np.zeros(N)
    vA, vB = Var("A", A), Var("B", B)
    dbl, inc = double_kernel(), incr_kernel()
    X = np.arange(float(N))
    vX = Var("X", X)

    def program(omp):
        yield from target_enter_data_spread(
            omp, devices, (0, N), None,
            [Map.to(vA, (S, Z)), Map.alloc(vB, (S, Z))])
        for _ in range(ITERS):
            deps = [Dep.out(vB, (S, Z))] if depends else []
            yield from target_spread_teams_distribute_parallel_for(
                omp, dbl, 0, N, devices,
                maps=[Map.to(vA, (S, Z)), Map.from_(vB, (S, Z))],
                depends=deps, nowait=True)
            yield from omp.taskwait()
            yield from target_update_spread(
                omp, devices, (0, N), None, from_=[(vB, (S, Z))])
        yield from target_exit_data_spread(
            omp, devices, (0, N), None,
            [Map.release(vA, (S, Z)), Map.from_(vB, (S, Z))])
        # structured data region + bare target spread inside it
        for _ in range(ITERS):
            region = yield from target_data_spread(
                omp, devices, (0, N), None, [Map.tofrom(vX, (S, Z))])
            yield from target_spread(omp, inc, 0, N, devices,
                                     maps=[Map.tofrom(vX, (S, Z))])
            yield from region.end()

    rt.run(program)
    return rt, A, B, X


def _expected_X(iters=ITERS):
    X = np.arange(float(N))
    for _ in range(iters):
        X = X * 2.0 + 1.0
    return X


def _assert_identical(rt_on, rt_off, results_on, results_off):
    assert rt_on.elapsed == rt_off.elapsed
    for a, b in zip(results_on, results_off):
        assert np.array_equal(a, b)
    if rt_on.trace is not None and rt_off.trace is not None:
        assert _event_tuples(rt_on.trace) == _event_tuples(rt_off.trace)


class TestBitIdentity:
    def test_macro_on_vs_off(self):
        """Replay against the cold reference: every launch lowered."""
        rt_on, A, B_on, X_on = _composite_run()
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False)
        assert rt_on.plan_cache.macro_replays > 0
        assert rt_off.plan_cache.macro_replays == 0
        assert rt_off.plan_cache.hits == rt_off.plan_cache.misses == 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert np.array_equal(B_on, A * 2.0 + 1.0)
        assert np.array_equal(X_on, _expected_X())

    def test_macro_on_vs_cache_off(self):
        """Replay matches the cold reference task for task, too."""
        rt_on, _, B_on, X_on = _composite_run()
        rt_cold, _, B_cold, X_cold = _composite_run(plan_cache=False)
        assert len(rt_cold.plan_cache) == 0
        _assert_identical(rt_on, rt_cold, (B_on, X_on), (B_cold, X_cold))
        assert rt_on.task_count == rt_cold.task_count
        assert rt_on.directive_info == rt_cold.directive_info

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_sweep_identity(self, workers, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MIN_BYTES", "0")
        rt_on, _, B_on, X_on = _composite_run(workers=workers)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 workers=workers)
        assert rt_on.plan_cache.macro_replays > 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))

    def test_depend_replay_identity(self):
        """Two-phase DependTracker replay matches submit_spread's."""
        rt_on, _, B_on, X_on = _composite_run(depends=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 depends=True)
        assert rt_on.plan_cache.macro_replays > 0
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))

    def test_deterministic_run_to_run(self):
        rt1, _, B1, X1 = _composite_run()
        rt2, _, B2, X2 = _composite_run()
        _assert_identical(rt1, rt2, (B1, X1), (B2, X2))
        assert rt1.plan_cache.stats == rt2.plan_cache.stats


class TestObserverGating:
    """Anything that observes per-op bookkeeping makes every hit run the
    generic launcher — and the run must still be bit-identical."""

    def test_tools_disengage_macro(self):
        tool_on, tool_off = MetricsTool(), MetricsTool()
        rt_on, _, B_on, X_on = _composite_run(tools=(tool_on,))
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 tools=(tool_off,))
        cache = rt_on.plan_cache
        assert cache.macro_replays == 0  # tools observe ops
        assert cache.replay_declined == {"tools": cache.hits}
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        ra, rb = tool_on.registry, tool_off.registry
        for key in ("tasks_created", "kernels_launched"):
            assert ra.sum_counter(key) == rb.sum_counter(key)
        assert ra.counter_value("plan_cache_declined",
                                reason="tools") == cache.hits
        assert rb.sum_counter("plan_cache_declined") == 0

    def test_sanitizer_identity(self):
        rt_on, _, B_on, X_on = _composite_run(sanitize=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 sanitize=True)
        assert rt_on.sanitizer is not None
        assert rt_on.plan_cache.macro_replays == 0  # sanitizer armed
        assert rt_on.plan_cache.replay_declined == {
            "sanitizer": rt_on.plan_cache.hits}
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert rt_on.sanitizer.races == rt_off.sanitizer.races == 0

    def test_analyzer_critpath_identity(self):
        rt_on, _, B_on, X_on = _composite_run(analyze=True)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False,
                                                 analyze=True)
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        rep_on = rt_on.analysis().report()
        rep_off = rt_off.analysis().report()
        assert rep_on == rep_off


class _CacheSpy:
    """Records what the plan cache evicts and every lookup after that."""

    def __init__(self, monkeypatch):
        self.evicted = set()
        self.after = []  # (key, hit) of lookups after the first eviction
        invalidate = SpreadPlanCache.invalidate_devices
        lookup = SpreadPlanCache.lookup

        def spy_invalidate(cache, device_ids):
            before = set(cache._programs)
            dropped = invalidate(cache, device_ids)
            self.evicted |= before - set(cache._programs)
            return dropped

        def spy_lookup(cache, key):
            prog = lookup(cache, key)
            if self.evicted and key is not None:
                self.after.append((key, prog is not None))
            return prog

        monkeypatch.setattr(SpreadPlanCache, "invalidate_devices",
                            spy_invalidate)
        monkeypatch.setattr(SpreadPlanCache, "lookup", spy_lookup)

    def first_lookups_of_evicted(self):
        seen = {}
        for key, hit in self.after:
            if key in self.evicted and key not in seen:
                seen[key] = hit
        return seen


class TestFailover:
    def test_device_loss_identity(self):
        kw = dict(faults="device@1:#2", fault_seed=7)
        rt_on, _, B_on, X_on = _composite_run(**kw)
        rt_off, _, B_off, X_off = _composite_run(plan_cache=False, **kw)
        assert rt_on.lost_devices == rt_off.lost_devices != frozenset()
        _assert_identical(rt_on, rt_off, (B_on, X_on), (B_off, X_off))
        assert np.array_equal(X_on, _expected_X())

    @pytest.mark.parametrize("topology,faults,lost", [
        (cte_power_node(4, memory_bytes=1e9), "device@1:#6", {1}),
        (uniform_cluster(2, 2, memory_bytes=1e9), "node@1:#6", {2, 3}),
    ], ids=["device", "node"])
    def test_loss_evicts_and_never_replays(self, topology, faults, lost,
                                           monkeypatch):
        """After a seeded loss no hit replays, every evicted program is
        lowered again on its next launch, and the results match the cold
        reference."""
        spy = _CacheSpy(monkeypatch)
        rt, A, B, X = _composite_run(topology=topology, faults=faults,
                                     fault_seed=3)
        cold, _, B_cold, X_cold = _composite_run(
            plan_cache=False, topology=topology, faults=faults,
            fault_seed=3)
        assert rt.lost_devices == cold.lost_devices == frozenset(lost)
        cache = rt.plan_cache
        assert cache.macro_replays == 0
        assert cache.replay_declined == {"faults": cache.hits}
        assert cache.hits > 0
        relaunched = spy.first_lookups_of_evicted()
        assert spy.evicted and relaunched
        assert not any(relaunched.values())  # every evicted key missed
        _assert_identical(rt, cold, (B, X), (B_cold, X_cold))
        assert np.array_equal(B, A * 2.0 + 1.0)
        assert np.array_equal(X, _expected_X())

    def test_device_loss_drops_compiled_programs(self):
        """Eviction drops every program routing work to the lost device."""
        rt, _, _, _ = _composite_run()
        stats = rt.plan_cache.stats
        before = len(rt.plan_cache)
        assert before > 0
        dropped = rt.plan_cache.invalidate_devices([DEVICES[1]])
        assert dropped == before  # every program routes to every device
        after = rt.plan_cache.stats
        assert after["entries"] == 0
        assert after["invalidations"] == stats["invalidations"] + dropped

    def test_no_macro_engagement_after_loss(self):
        rt, _, _, X = _composite_run(faults="device@1:#1", fault_seed=3)
        assert rt.lost_devices
        assert macro.decline_reason(rt) == "faults"
        rt.fault_injector = None
        assert macro.decline_reason(rt) == "lost_device"
        assert np.array_equal(X, _expected_X())


class TestCountersAndKnobs:
    def test_macro_counters(self):
        rt, _, _, _ = _composite_run()
        st = rt.plan_cache.stats
        # Six distinct directives, each lowered once on its miss; all but
        # enter/exit data repeat, and every hit of an engaged run replays.
        assert st["misses"] == st["entries"] == 6
        assert st["hits"] == 4 * (ITERS - 1)
        assert st["macro_replays"] == st["hits"]
        assert st["replay_declined"] == {}

    def test_first_hit_replays(self):
        """The program lowered on the miss replays on the very first hit."""
        rt = make_rt()
        X = np.arange(float(N))
        vX = Var("X", X)
        inc = incr_kernel()

        def program(omp):
            for _ in range(2):
                yield from target_spread(omp, inc, 0, N, DEVICES,
                                         maps=[Map.tofrom(vX, (S, Z))])

        rt.run(program)
        cache = rt.plan_cache
        assert (cache.misses, cache.hits, cache.macro_replays) == (1, 1, 1)
        assert np.array_equal(X, _expected_X(2))

    def test_unreplayable_program_runs_generic_launcher(self, monkeypatch):
        """A program failing ``well_formed`` is declined on every hit and
        walked through the generic launcher, bit-identically."""
        monkeypatch.setattr(macro.MacroProgram, "well_formed",
                            lambda prog: False)
        rt, _, B, X = _composite_run()
        cold, _, B_cold, X_cold = _composite_run(plan_cache=False)
        cache = rt.plan_cache
        assert cache.hits > 0
        assert cache.macro_replays == 0
        assert cache.replay_declined == {"unreplayable": cache.hits}
        _assert_identical(rt, cold, (B, X), (B_cold, X_cold))

    def test_uncompilable_plan_tried_once(self, monkeypatch):
        """Replayability is judged once, at lowering — never per hit."""
        calls = []

        def well_formed(prog):
            calls.append(prog)
            return False

        monkeypatch.setattr(macro.MacroProgram, "well_formed", well_formed)
        rt, _, _, _ = _composite_run()
        cache = rt.plan_cache
        assert cache.replay_declined == {"unreplayable": cache.hits}
        # one verdict per lowered program (the data region's end half is
        # a program of its own), however many hits followed
        assert len(calls) == cache.misses + 1

    def test_program_arrays_well_formed(self):
        rt, _, _, _ = _composite_run()
        progs = list(rt.plan_cache._programs.values())
        assert len(progs) == 6
        ends = [p.end for p in progs if p.end is not None]
        assert len(ends) == 1  # the data region's closing half
        for prog in progs + ends:
            assert prog.well_formed() and prog.replayable
            assert len(prog.records) == len(prog.chunks)
            assert [r.chunk for r in prog.records] == list(prog.chunks)
            assert len({r.name for r in prog.records}) == len(prog.records)
