"""The built-in metrics tool: callback points → metrics registry.

:class:`MetricsTool` is the ``LIBOMPTARGET_PROFILE`` analogue — a tool
shipped with the runtime that turns the OMPT-style callback stream into the
counter catalogue the profiling reports render:

=================================  ==========================================
metric                              populated from
=================================  ==========================================
``bytes_moved{device,dir}``         ``data_op`` (h2d/d2h)
``memcpy_calls{device,dir}``        ``data_op`` (h2d/d2h)
``memcpy_time{device,dir}``         ``data_op`` durations (timer)
``queue_busy_seconds{device}``      copy + kernel durations
``link_busy_seconds{device}``       wire portion of transfers
``present_hits/misses{device}``     ``data_op`` (present_hit/present_miss)
``refcount_churn{device}``          present-table ref up/downs past creation
``device_allocs/deletes{device}``   ``data_op`` (alloc/delete)
``kernels_launched{device}``        ``kernel_launch``
``kernel_time{device}``             ``kernel_complete`` (timer)
``tasks_spawned`` / ``_deferred``   ``task_create`` (deferred = non-empty
                                    wait set at submission)
``tasks_in_flight`` (gauge)         ``task_schedule`` / ``task_complete``
``dependence_edges``                ``dependence_resolved``
``directives{kind}``                ``directive_begin``
``directive_time{kind}``            begin→end virtual window (timer)
``spread_chunks{kind}``             ``directive_end`` chunk counts
``target_submits{device}``          ``target_submit``
``devices_initialized``             ``device_init``
``plan_cache_hits/misses{kind}``    ``plan_cache`` (spread launch-plan
                                    replay vs full lowering)
``plan_cache_declined{reason}``     ``plan_cache`` (hits that ran the
                                    generic launcher instead of replaying)
``present_memo_hits{device}``       ``data_op`` (present_memo_hit: last-hit
                                    present-table lookups)
``executor_epochs``                 ``executor_epoch`` (executed waves of
                                    the parallel host backend)
``executor_parallel_ops``           ``executor_epoch`` (ops run on the pool)
``executor_serial_ops``             ``executor_epoch`` (ops run inline)
``executor_inline_fallbacks``       ``executor_epoch`` (ops forced inline by
                                    aliasing/unprovable accesses)
``executor_busy/span_seconds``      ``executor_epoch`` (wall-clock work vs
                                    wave span)
``executor_worker_utilization``     gauge: busy / (span × workers), over
                                    parallel waves
``faults_injected{device,fault}``   ``fault_event`` (kind=inject)
``fault_retries{device}``           ``fault_event`` (kind=retry)
``fault_backoff_seconds``           ``fault_event`` (retry backoff charged
                                    to virtual time)
``fault_giveups{device}``           ``fault_event`` (kind=giveup: retry
                                    budget exhausted)
``devices_lost``                    ``fault_event`` (kind=device_lost)
``fault_failovers{device}``         ``fault_event`` (kind=failover: chunk
                                    re-routed to a survivor)
``analysis_ops_recorded{device}``   ``sanitizer_op`` (race-sanitizer
                                    footprints recorded)
``analysis_access_checks``          ``sanitizer_op`` (frontier comparisons)
``analysis_races``                  ``sanitizer_race`` (conflicting
                                    unordered access pairs reported)
=================================  ==========================================
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tool import Tool


class MetricsTool(Tool):
    """Populates a :class:`MetricsRegistry` from the callback stream."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._directive_begin_t: Dict[int, float] = {}
        self._directive_kind: Dict[int, str] = {}
        self._exec_parallel_busy = 0.0
        self._exec_parallel_capacity = 0.0

    # -- devices ----------------------------------------------------------------

    def on_device_init(self, *, device: int, memory_bytes: float = 0.0,
                       **kw: Any) -> None:
        reg = self.registry
        reg.counter("devices_initialized").inc()
        reg.gauge("device_memory_bytes", device=device).set(memory_bytes)

    # -- directives -------------------------------------------------------------

    def on_directive_begin(self, *, directive: int, kind: str,
                           time: float = 0.0, **kw: Any) -> None:
        self.registry.counter("directives", kind=kind).inc()
        self._directive_begin_t[directive] = time
        self._directive_kind[directive] = kind

    def on_directive_end(self, *, directive: int, time: float = 0.0,
                         chunks: Optional[int] = None, **kw: Any) -> None:
        kind = self._directive_kind.pop(directive, "unknown")
        begin = self._directive_begin_t.pop(directive, time)
        self.registry.timer("directive_time", kind=kind).observe(
            max(0.0, time - begin))
        if chunks:
            self.registry.counter("spread_chunks", kind=kind).inc(chunks)

    def on_target_submit(self, *, device: int, **kw: Any) -> None:
        self.registry.counter("target_submits", device=device).inc()

    # -- data operations ----------------------------------------------------------

    def on_data_op(self, *, op: str, device: int, bytes: float = 0.0,
                   start: Optional[float] = None,
                   end: Optional[float] = None,
                   wire_start: Optional[float] = None,
                   wire_end: Optional[float] = None, **kw: Any) -> None:
        reg = self.registry
        if op in ("h2d", "d2h"):
            reg.counter("bytes_moved", device=device, dir=op).inc(bytes)
            reg.counter("memcpy_calls", device=device, dir=op).inc()
            if start is not None and end is not None:
                reg.timer("memcpy_time", device=device, dir=op).observe(
                    end - start)
                reg.counter("queue_busy_seconds", device=device).inc(
                    end - start)
            if wire_start is not None and wire_end is not None:
                reg.counter("link_busy_seconds", device=device).inc(
                    wire_end - wire_start)
        elif op == "alloc":
            reg.counter("device_allocs", device=device).inc()
            reg.counter("alloc_bytes", device=device).inc(bytes)
        elif op == "free":
            reg.counter("device_frees", device=device).inc()
        elif op == "present_hit":
            reg.counter("present_hits", device=device).inc()
            reg.counter("refcount_churn", device=device).inc()
        elif op == "present_miss":
            reg.counter("present_misses", device=device).inc()
        elif op == "release":
            reg.counter("refcount_churn", device=device).inc()
        elif op == "delete":
            reg.counter("present_deletes", device=device).inc()
            reg.counter("refcount_churn", device=device).inc()
        elif op == "present_memo_hit":
            reg.counter("present_memo_hits", device=device).inc()

    # -- plan cache ---------------------------------------------------------------

    def on_plan_cache(self, *, hit: bool, kind: str = "unknown",
                      declined: Optional[str] = None, **kw: Any) -> None:
        name = "plan_cache_hits" if hit else "plan_cache_misses"
        self.registry.counter(name, kind=kind).inc()
        if declined is not None:
            self.registry.counter("plan_cache_declined",
                                  reason=declined).inc()

    # -- tasks ------------------------------------------------------------------

    def on_task_create(self, *, deferred: bool = False, **kw: Any) -> None:
        self.registry.counter("tasks_spawned").inc()
        if deferred:
            self.registry.counter("tasks_deferred").inc()

    def on_task_schedule(self, **kw: Any) -> None:
        self.registry.gauge("tasks_in_flight").add(1)

    def on_task_complete(self, **kw: Any) -> None:
        self.registry.gauge("tasks_in_flight").add(-1)

    def on_dependence_resolved(self, *, edges: int = 0, **kw: Any) -> None:
        self.registry.counter("dependence_edges").inc(edges)

    # -- kernels ------------------------------------------------------------------

    def on_kernel_launch(self, *, device: int, **kw: Any) -> None:
        self.registry.counter("kernels_launched", device=device).inc()

    def on_kernel_complete(self, *, device: int, start: float, end: float,
                           **kw: Any) -> None:
        self.registry.timer("kernel_time", device=device).observe(end - start)
        self.registry.counter("queue_busy_seconds", device=device).inc(
            end - start)

    # -- parallel host backend ----------------------------------------------------

    def on_executor_epoch(self, *, ops: int, mode: str, workers: int,
                          busy_s: float = 0.0, span_s: float = 0.0,
                          inline: int = 0, **kw: Any) -> None:
        reg = self.registry
        reg.counter("executor_epochs").inc()
        if mode == "parallel":
            reg.counter("executor_parallel_ops").inc(ops)
            self._exec_parallel_busy += busy_s
            self._exec_parallel_capacity += span_s * workers
            if self._exec_parallel_capacity > 0:
                reg.gauge("executor_worker_utilization").set(
                    self._exec_parallel_busy / self._exec_parallel_capacity)
        else:
            reg.counter("executor_serial_ops").inc(ops)
        if inline:
            reg.counter("executor_inline_fallbacks").inc(inline)
        reg.counter("executor_busy_seconds").inc(busy_s)
        reg.counter("executor_span_seconds").inc(span_s)

    # -- fault injection ----------------------------------------------------------

    def on_fault_event(self, *, kind: str, device: int = -1,
                       fault: str = "", delay: float = 0.0,
                       **kw: Any) -> None:
        reg = self.registry
        if kind == "inject":
            reg.counter("faults_injected", device=device, fault=fault).inc()
        elif kind == "retry":
            reg.counter("fault_retries", device=device).inc()
            reg.counter("fault_backoff_seconds").inc(delay)
        elif kind == "giveup":
            reg.counter("fault_giveups", device=device).inc()
        elif kind == "device_lost":
            reg.counter("devices_lost").inc()
        elif kind == "failover":
            reg.counter("fault_failovers", device=device).inc()

    # -- race sanitizer -----------------------------------------------------------

    def on_sanitizer_op(self, *, device: Optional[int] = None,
                        checks: int = 0, **kw: Any) -> None:
        reg = self.registry
        reg.counter("analysis_ops_recorded",
                    device=-1 if device is None else device).inc()
        reg.counter("analysis_access_checks").inc(checks)

    def on_sanitizer_race(self, **kw: Any) -> None:
        self.registry.counter("analysis_races").inc()

    # -- event engine -------------------------------------------------------------

    def observe_engine(self, stats: Dict[str, Any]) -> None:
        """Ingest one run's :meth:`repro.sim.engine.Simulator.engine_stats`.

        The engine has no callback stream of its own (counting per event
        would be the hot path observing itself); the driver scrapes the
        counters once at end of run and hands them here.
        """
        reg = self.registry
        for key in ("events_scheduled", "dispatches", "events_dispatched",
                    "fused_segments", "timeouts_created", "timeouts_reused",
                    "calls_created", "calls_reused"):
            reg.counter(f"engine_{key}").inc(stats.get(key, 0))
        reg.gauge("engine_mean_batch").set(stats.get("mean_batch", 0.0))

    # -- convenience --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def render_text(self) -> str:
        return self.registry.render_text()
