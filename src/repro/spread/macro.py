"""Macro programs: the one cached form of a lowered spread directive.

A static spread directive is lowered once per structural key (see
:mod:`repro.spread.plan_cache`) into a :class:`MacroProgram`: an immutable
tuple of :class:`MacroRecord` objects, one per chunk, each carrying the
chunk, its concrete map intervals and depend skeleton, its task name, op
label and (``target update spread``) its concrete to/from sections.  The
program is the only thing the plan cache stores, and every launch runs it
one of two ways:

* **Replay** — a tight interpreter loop (:func:`replay_exec`,
  :func:`replay_data`) that skips the per-op object graph:

  - present-table resolutions (entry + kernel view per map clause) are
    cached per record and validated against :attr:`DeviceDataEnv.epoch` —
    the structural counter the data environment bumps on insert/remove/
    purge.  Unchanged epoch ⟺ every captured entry is still live and still
    covers the same section, so lookups collapse to one integer compare;
  - all chunk processes of the directive are created deferred and
    scheduled with a single :meth:`Simulator.schedule_batch` heap
    transaction instead of one push per chunk;
  - an all-present kernel chunk runs as a fused timeline walker
    (:class:`repro.sim.timeline.TimelineProc`), a chunk with an absent map
    as the generic ``kernel_op`` generator;
  - per-chunk bookkeeping (task-context children, taskgroup membership,
    runtime task registries) is batched after the loop.

* **The generic launcher** — ``_launch_static``/``_fan_out`` in the
  directive modules walk the same records through ``submit_spread`` with
  full per-op bookkeeping, failover routing and sanitizer footprints.  It
  runs on a cache miss, under ``plan_cache=False``, and on every hit that
  :func:`decline_reason` declines.

**Bit identity.** Replay must be observationally identical to the generic
launcher: same simulated clock, same trace, same event ordering.  It
therefore only engages when nothing can observe the (deliberately skipped)
per-op bookkeeping: no tools registered, no sanitizer, no fault injector,
no lost devices, no reductions, and a well-formed program.  The causal
recorder does not decline replay: the walkers report op begin/end to it
exactly as the generator path does.  ``depend``
clauses are replayed through the real
:class:`~repro.openmp.depend.DependTracker` with ``submit_spread``'s exact
two-phase protocol (all chunks resolve against the pre-directive frontier,
then register).  The kernel walker also re-validates the environment
epoch *at run time* (the present table can change between submit and run)
and falls back to the generic :func:`repro.openmp.exec_ops.kernel_op`
generator when it moved.  ``tests/spread/test_macro_replay.py`` enforces
bit identity against ``plan_cache=False`` runs.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.obs.tool import PLAN_CACHE
from repro.openmp import exec_ops
from repro.openmp.depend import compile_deps, concretize_deps
from repro.openmp.mapping import concretize_section
from repro.sim import timeline as _timeline
from repro.sim.engine import Process

# Op kinds of a record.
OP_KERNEL = 0
OP_ENTER = 1
OP_EXIT = 2
OP_UPDATE = 3


class MacroRecord:
    """One chunk op of a lowered spread directive.

    ``maps`` holds ``(MapClause, Interval)`` pairs concretized for the
    chunk, ``deps`` the concretized dependence skeleton and ``extra`` the
    concrete ``(to, from)`` section lists of a ``target update spread``.
    ``device_id``/``lo``/``hi``/``chunk_index`` are read off the chunk
    once, at lowering, for the replay loop.

    ``steady`` caches the present-table resolution for the record's device:
    ``(epoch, held, kenv, found)`` where ``held`` is the per-clause
    ``(clause, interval, entry)`` list, ``kenv`` the kernel view
    environment, and ``found`` the distinct entries to gather waits from
    and register in-flight work on.  ``held``/``kenv`` are None when some
    map was absent at resolution time (the replay then runs the generic op
    generator).  The cache is validated against the live environment epoch
    before every use.
    """

    __slots__ = ("kind", "chunk", "device_id", "lo", "hi", "chunk_index",
                 "maps", "deps", "name", "label", "extra", "steady")

    def __init__(self, kind: int, chunk, maps, deps, name: str, label: str,
                 extra=None) -> None:
        self.kind = kind
        self.chunk = chunk
        self.device_id = chunk.device
        self.lo = chunk.interval.start
        self.hi = chunk.interval.stop
        self.chunk_index = chunk.index
        self.maps = maps
        self.deps = deps
        self.name = name
        self.label = label
        self.extra = extra
        self.steady = None


class MacroProgram:
    """A lowered spread directive: records plus what launching them needs.

    ``devices`` is the device list failover routes over (the validated
    ``devices`` clause of an executable directive, the distinct chunk
    devices of a data directive) — a superset of the devices its chunks
    (and its region end's) run on.  ``chunks`` is the chunk tuple a
    :class:`~repro.spread.spread_target.SpreadHandle` reports, ``anchor``
    pins the kernel whose ``id()`` is part of the cache key (so the key can
    never alias a recycled id) and ``end`` holds the closing half of a
    ``target data spread`` region.  ``replayable`` is the
    :meth:`well_formed` verdict, taken once at lowering.
    """

    __slots__ = ("records", "devices", "chunks", "anchor", "end",
                 "replayable", "info", "timeline", "dep_plan")

    def __init__(self, records: Sequence[MacroRecord], devices, chunks,
                 anchor=None, end: Optional["MacroProgram"] = None) -> None:
        self.records = tuple(records)
        self.devices = tuple(devices)
        self.chunks = tuple(chunks)
        self.anchor = anchor
        self.end = end
        self.replayable = self.well_formed() and (end is None
                                                  or end.replayable)
        # memoized directive-info dict (runtime.directive_info_for)
        self.info = None
        # lazy per-launch-shape fused timelines (repro.sim.timeline) and the
        # flattened depend clauses (False = program has none)
        self.timeline = None
        self.dep_plan = None

    def well_formed(self) -> bool:
        """Structural validation: ordered bounds, non-empty map sections,
        non-negative devices."""
        for rec in self.records:
            if rec.lo > rec.hi or rec.device_id < 0:
                return False
            for _clause, interval in rec.maps:
                if interval.start >= interval.stop:
                    return False
        return True


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def concretize_maps(maps, chunk):
    """``(clause, interval)`` pairs of *maps* evaluated for *chunk*."""
    start, size = chunk.start, chunk.size
    return tuple([(clause, concretize_section(clause.var, clause.section,
                                              spread_start=start,
                                              spread_size=size))
                  for clause in maps])


def lower(kind: int, chunks, maps, depends, name: str, label: str,
          devices, anchor=None, end: Optional[MacroProgram] = None
          ) -> MacroProgram:
    """Lower a static spread directive over *chunks* to its program.

    Each record is named ``<name>#<chunk index>@<device>`` and labelled
    ``<label>@<device>``.
    """
    records = []
    for chunk in chunks:
        deps = (tuple(concretize_deps(depends, spread_start=chunk.start,
                                      spread_size=chunk.size))
                if depends else ())
        device = chunk.device
        records.append(MacroRecord(
            kind, chunk, concretize_maps(maps, chunk), deps,
            f"{name}#{chunk.index}@{device}", f"{label}@{device}"))
    return MacroProgram(records, devices, chunks, anchor=anchor, end=end)


# ---------------------------------------------------------------------------
# the cached launch form
# ---------------------------------------------------------------------------

def decline_reason(rt, prog: Optional[MacroProgram] = None,
                   reductions=()) -> Optional[str]:
    """None when replaying *prog* is observationally safe, else why not.

    Per-op observers (:meth:`OpenMPRuntime.per_op_observer`: tools, the
    sanitizer, the fault injector, lost devices) see or perturb per-op
    bookkeeping replay skips; reductions stage per-chunk partials replay
    does not model; a program that failed :meth:`MacroProgram.well_formed`
    is never replayed.
    """
    reason = rt.per_op_observer()
    if reason is not None:
        return reason
    if reductions:
        return "reduction"
    if prog is not None and not prog.replayable:
        return "unreplayable"
    return None


def cached(rt, kind: str, key, lower_fn, reductions=()):
    """The directive's program and whether to replay it: ``(prog, replay)``.

    A hit returns the cached program; a miss (or an uncacheable key, or
    ``plan_cache=False``) calls *lower_fn* — which validates and lowers —
    and stores the result.  Misses never replay.  A hit replays unless
    :func:`decline_reason` declines, which is counted per reason.  The
    ``plan_cache`` tool callback fires for every cacheable lookup.
    """
    cache = rt.plan_cache
    prog = cache.lookup(key)
    if prog is None:
        prog = lower_fn()
        cache.store(key, prog)
        if key is not None and rt.tools:
            rt.tools.dispatch(PLAN_CACHE, kind=kind, hit=False,
                              declined=None, time=rt.sim.now)
        return prog, False
    reason = decline_reason(rt, prog, reductions)
    if reason is None:
        cache.macro_replays += 1
        return prog, True
    declined = cache.replay_declined
    declined[reason] = declined.get(reason, 0) + 1
    if rt.tools:
        rt.tools.dispatch(PLAN_CACHE, kind=kind, hit=True, declined=reason,
                          time=rt.sim.now)
    return prog, False


def directive_id(rt, prog: MacroProgram, kind: str, name: str = "") -> int:
    """Allocate the launch's directive id with the info dict memoized on
    the program (one kind/name per program: the kernel is in the key)."""
    info = prog.info
    if info is None:
        prog.info = info = rt.directive_info_for(kind, name)
    return rt.alloc_directive_id(info)


def data_op(rt, rec: MacroRecord, device_id: int, fuse: bool) -> Generator:
    """The op generator of a data record on *device_id*."""
    kind = rec.kind
    if kind == OP_ENTER:
        return exec_ops.enter_op(rt, device_id, rec.maps,
                                 fuse_transfers=fuse, label=rec.label)
    if kind == OP_EXIT:
        return exec_ops.exit_op(rt, device_id, rec.maps,
                                fuse_transfers=fuse, label=rec.label)
    to_sections, from_sections = rec.extra
    return exec_ops.update_op(rt, device_id, to_sections, from_sections,
                              fuse_transfers=fuse, label=rec.label)


# ---------------------------------------------------------------------------
# replay interpreter
# ---------------------------------------------------------------------------

def _quiet_lookup(env, var, interval):
    """Side-effect-free present lookup: no counters, no memo writes.

    Returns None for absent *or partial* sections — the latter fall back to
    the generic op generator, which re-raises the proper mapping error.
    """
    memo = env._memo.get(var.key)
    if memo is not None and memo.section.contains(interval):
        return memo
    for entry in env._entries.get(var.key, ()):
        if entry.section.contains(interval):
            return entry
    return None


def _resolve_steady(env, rec: MacroRecord):
    """Resolve a record's maps against the current present table."""
    held = []
    found = []
    kenv = {}
    complete = True
    for clause, interval in rec.maps:
        entry = _quiet_lookup(env, clause.var, interval)
        if entry is None:
            complete = False
            continue
        found.append(entry)
        held.append((clause, interval, entry))
        kenv[clause.var.name] = entry.view()
    if not complete:
        held = None
        kenv = None
    return (env.epoch, held, kenv, tuple(found))


def _gather_waits(found) -> List:
    """Pending-op waits over *found* entries, pruned and deduplicated.

    Mirrors ``gather_entry_waits`` + the dedup loop in ``TaskCtx.submit``:
    completed events are pruned in place, order of first occurrence is
    preserved.
    """
    waits: List = []
    for entry in found:
        inflight = entry.inflight
        if inflight:
            # One fused pass: gather unprocessed events (first-occurrence
            # order, deduplicated) and note whether a prune is due.
            # _processed is Event's backing slot; reading it directly
            # skips one property descriptor call per event, and the prune
            # rebuild (a listcomp frame on 3.11) only runs when something
            # actually completed.
            prune = False
            for ev in inflight:
                if ev._processed:
                    prune = True
                elif ev not in waits:
                    waits.append(ev)
            if prune:
                inflight[:] = [ev for ev in inflight if not ev._processed]
    return waits


def _merge_dep_waits(waits: List, resolved) -> None:
    """Append depend-resolved events to *waits* with ``TaskCtx.submit``'s
    filter: skip completed events and first-occurrence duplicates."""
    for ev in resolved:
        if not ev._processed and ev not in waits:
            waits.append(ev)


def _plain_body(rt, waits, opgen) -> Generator:
    """Task-body wrapper identical to ``TaskCtx.submit``'s (minus tooling).

    Launch-invariant pieces (sim, host overhead) are looked up when the
    body first runs — the untimed drain — not on the submit fast path.
    """
    sim = rt.sim
    overhead = rt.cost_model.host_task_overhead
    if overhead > 0:
        yield sim.timeout(overhead)
    if waits:
        yield sim.all_of(waits)
    return (yield from opgen)


def _resolve_deps_compiled(prog: MacroProgram, depend):
    """Batched resolve of the program's depend clauses, or None if it has
    none.  Resolution is read-only against the pre-directive frontier (the
    two-phase protocol registers nothing until every record resolved), so
    hoisting all records' resolves before the creation loop is
    order-equivalent to the interleaved sequential calls."""
    cd = prog.dep_plan
    if cd is None:
        cd = compile_deps(prog.records)
        prog.dep_plan = cd if cd is not None else False
    if not cd:
        return None
    return depend.resolve_compiled(cd)


def _batch_bookkeeping(ctx, rt, procs) -> None:
    """The per-task registrations of ``TaskCtx.submit``, batched."""
    if not procs:
        return
    ctx.children.extend(procs)
    for group in ctx.groups:
        group.members.extend(procs)
        group.has_device_ops = True
    rt.note_tasks(procs)
    rt.note_device_ops(procs)


def replay_exec(ctx, prog: MacroProgram, kernel, cfg, fuse: bool,
                directive_id: int) -> List[Process]:
    """Replay a ``target spread`` program.

    Creates every chunk process deferred, then commits all starts in one
    ``schedule_batch`` heap transaction.  Per-record resolution is
    sequential so record *i+1*'s wait gathering sees record *i*'s in-flight
    registration — the per-entry chaining nowait launches rely on.
    """
    rt = ctx.rt
    sim = rt.sim
    envs = rt.dataenvs
    depend = rt.depend
    tl = None
    dep_waits = _resolve_deps_compiled(prog, depend)
    procs: List[Process] = []
    starts = []
    for i, rec in enumerate(prog.records):
        env = envs[rec.device_id]
        steady = rec.steady
        if steady is None or steady[0] != env.epoch:
            steady = _resolve_steady(env, rec)
            rec.steady = steady
        found = steady[3]
        waits = _gather_waits(found)
        if rec.deps:
            _merge_dep_waits(waits, dep_waits[i])
        if steady[1] is not None:
            if tl is None:
                tl = _timeline.kernel_timeline(rt, prog, kernel, cfg)
            proc = _timeline.TimelineProc.spawn(
                sim, rt, rec, kernel, cfg, fuse, waits, steady, tl, i,
                (directive_id, rec.chunk_index, None))
        else:
            gen = _plain_body(rt, waits, exec_ops.kernel_op(
                rt, rec.device_id, kernel, rec.lo, rec.hi, rec.maps,
                launch=cfg, fuse_transfers=fuse, label=rec.label))
            proc = Process.spawn_task(sim, gen, rec.name,
                                      (directive_id, rec.chunk_index, None))
        for entry in found:
            entry.inflight.append(proc)
        starts.append(proc._start)
        procs.append(proc)
    # Two-phase depend protocol: sibling chunks all resolved against the
    # pre-directive frontier above; only now do they register their own
    # records (submit_spread's exact ordering).
    if dep_waits is not None:
        depend.register_compiled(prog.dep_plan, procs)
    sim.schedule_batch(starts)
    _batch_bookkeeping(ctx, rt, procs)
    return procs


def replay_data(ctx, prog: MacroProgram, fuse: bool,
                directive_id: int) -> List[Process]:
    """Replay an enter/exit/update data program."""
    rt = ctx.rt
    sim = rt.sim
    envs = rt.dataenvs
    depend = rt.depend
    dep_waits = _resolve_deps_compiled(prog, depend)
    procs: List[Process] = []
    starts = []
    for i, rec in enumerate(prog.records):
        env = envs[rec.device_id]
        opgen = data_op(rt, rec, rec.device_id, fuse)
        found = []
        for clause, interval in rec.maps:
            entry = _quiet_lookup(env, clause.var, interval)
            if entry is not None:
                found.append(entry)
        waits = _gather_waits(found)
        if rec.deps:
            _merge_dep_waits(waits, dep_waits[i])
        gen = _plain_body(rt, waits, opgen)
        proc = Process.spawn_task(sim, gen, rec.name,
                                  (directive_id, rec.chunk_index, None))
        for entry in found:
            entry.inflight.append(proc)
        starts.append(proc._start)
        procs.append(proc)
    if dep_waits is not None:
        depend.register_compiled(prog.dep_plan, procs)
    sim.schedule_batch(starts)
    _batch_bookkeeping(ctx, rt, procs)
    return procs
