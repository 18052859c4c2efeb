"""The spread data directives (Listings 5-8 of the paper).

All four distribute data mappings over multiple devices with a **static
round-robin** distribution driven by the ``range`` and ``chunk_size``
clauses (there is no ``spread_schedule`` clause here — the paper fixes the
policy so data placement is reproducible; the cluster extension may pass
an explicit *static* ``schedule`` such as
:class:`~repro.spread.schedule.HierarchicalStaticSchedule` so data
placement follows the same two-level split as the kernels):

* ``target data spread`` — structured region (enter at the directive,
  copy-backs at region end); no ``nowait``, no ``depend``;
* ``target enter data spread`` / ``target exit data spread`` — unstructured,
  asynchronous via ``nowait``; ``depend`` is §IX future work (gated);
* ``target update spread`` — distributed updates of present data,
  asynchronous via ``nowait``; ``depend`` gated likewise.

``range`` follows OpenMP array-section convention: ``range(1:N-2)`` is
``range_=(1, N-2)`` — start 1, *length* N-2.

Like the executable directives, each data directive lowers once per
structural key into a :class:`~repro.spread.macro.MacroProgram` cached in
the runtime's :class:`~repro.spread.plan_cache.SpreadPlanCache`: the
chunking and per-chunk section concretization are computed on first
execution, and structurally identical invocations replay the program (or
walk its records through the generic launcher) bit-identically.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.openmp import exec_ops
from repro.openmp.depend import Dep, concretize_deps
from repro.openmp.mapping import (
    Map,
    MapClause,
    Var,
    concretize_section,
    validate_unique_vars,
)
from repro.openmp.tasks import TaskCtx
from repro.spread import extensions as ext
from repro.spread import failover as fo
from repro.spread import macro
from repro.spread import plan_cache as pc
from repro.spread.schedule import Chunk, StaticSchedule, validate_devices
from repro.spread.spread_target import SpreadHandle
from repro.util.errors import OmpSemaError


def _data_chunks(ctx: TaskCtx, devices: Sequence[int],
                 range_: Tuple[int, int],
                 chunk_size: Optional[int],
                 schedule=None) -> List[Chunk]:
    devs = validate_devices(devices, ctx.rt.num_devices)
    start, length = int(range_[0]), int(range_[1])
    if length < 0:
        raise OmpSemaError(f"range({start}:{length}): negative length")
    sched = schedule if schedule is not None else StaticSchedule(chunk_size)
    if sched.signature is None:
        raise OmpSemaError(
            "data spread distribution must be reproducible: the schedule "
            f"kind {sched.kind!r} assigns devices at execution time")
    return sched.chunks(start, start + length, devs)


def _chunk_key(chunk_size: Optional[int], schedule) -> object:
    """The chunking component of a data-directive cache key.

    An explicit schedule replaces the bare chunk size with its structural
    signature, so two directives chunked differently never share a plan.
    """
    if schedule is None:
        return chunk_size
    return ("sched", schedule.signature)


def _check_data_depends(ctx: TaskCtx, depends: Sequence[Dep],
                        directive: str) -> None:
    if depends:
        ext.require(ctx.rt, "data_depend",
                    f"the depend clause on {directive}")


def _lower_data(ctx: TaskCtx, op: int, name: str, devices: Sequence[int],
                range_: Tuple[int, int], chunk_size: Optional[int],
                schedule, maps: Sequence[MapClause],
                depends: Sequence[Dep] = (),
                end: Optional[macro.MacroProgram] = None
                ) -> macro.MacroProgram:
    """Chunk a data directive and lower it; records are named and
    labelled after *name*."""
    chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
    return macro.lower(op, chunks, maps, depends, name, name,
                       sorted({c.device for c in chunks}), end=end)


def _note_residency(san, residency: Optional[str], device_id: int,
                    concrete_maps) -> None:
    """Tell the sanitizer a data directive moved sections in or out."""
    if san is None or residency is None:
        return
    if residency == "enter":
        san.note_enter(device_id, concrete_maps)
    else:
        san.note_exit(device_id, concrete_maps)


def _noop_op() -> Generator:
    """Placeholder op for a re-routed chunk's skipped data directive.

    A chunk re-routed off a lost device has no residency anywhere: its
    kernels run standalone on private scratch and the host copy is
    authoritative.  So every data directive degrades to an empty task —
    present for dependence wiring and trace structure, moving no bytes.
    Running the real op on the replacement would be wrong, not just
    wasteful: any entry a lookup found there belongs to the *survivor's
    own* chunks (e.g. a halo'd section containing the lost chunk's rows),
    so a re-routed exit would release it and a re-routed ``update from``
    would copy stale halo rows over newer host data.
    """
    return
    yield  # pragma: no cover - makes this a generator


def _fan_out(ctx: TaskCtx, prog: macro.MacroProgram, fuse: bool,
             directive_id: int, residency: Optional[str] = None) -> list:
    """The generic launcher of a data directive: one op per record
    through ``submit_spread``, routed around lost devices.

    ``residency`` ("enter"/"exit") tells the sanitizer which way this
    directive moves the submit-order present set.
    """
    rt = ctx.rt
    san = rt.sanitizer
    resilient = rt.fault_injector is not None or rt.lost_devices
    items = []
    provs = []  # (chunk_index, rerouted_from) aligned with items
    for rec in prog.records:
        if not resilient:
            # Zero-fault hot path: no routing, no failover wrapper.
            device_id = rec.device_id
            items.append((device_id, macro.data_op(rt, rec, device_id, fuse),
                          rec.maps, rec.deps, rec.name))
            provs.append((rec.chunk_index, None))
            _note_residency(san, residency, device_id, rec.maps)
            continue

        def factory(device_id, rerouted, rec=rec):
            if rerouted:
                return _noop_op()
            return macro.data_op(rt, rec, device_id, fuse)

        chunk = rec.chunk
        device_id, rerouted = fo.route_chunk(rt, chunk, prog.devices,
                                             name=rec.name)
        op = fo.failover_op(rt, chunk, prog.devices, factory,
                            name=rec.name, initial=(device_id, rerouted))
        # A re-routed data directive is a no-op: it moves no host bytes,
        # so its sanitizer footprint is empty and it establishes no
        # residency on the replacement device.
        items.append((device_id, op, rec.maps, rec.deps, rec.name,
                      [] if rerouted else None))
        provs.append((rec.chunk_index, chunk.device if rerouted else None))
        if not rerouted:
            _note_residency(san, residency, device_id, rec.maps)
    procs = exec_ops.submit_spread(ctx, items, directive_id=directive_id)
    for proc, (chunk_index, rerouted_from) in zip(procs, provs):
        proc.prov = (directive_id, chunk_index, rerouted_from)
    return procs


def _launch(ctx: TaskCtx, prog: macro.MacroProgram, replay: bool,
            fuse: bool, nowait: bool, directive_id: int,
            residency: Optional[str] = None) -> Generator:
    """Run a data directive's program: replay it, or walk its records
    through :func:`_fan_out`."""
    if replay:
        procs = macro.replay_data(ctx, prog, fuse, directive_id)
    else:
        procs = _fan_out(ctx, prog, fuse, directive_id, residency)
    handle = SpreadHandle._adopt(ctx, procs, prog.chunks)
    if not nowait:
        yield from handle.wait()
    return handle


def _directive_begin(ctx: TaskCtx, kind: str,
                     prog: macro.MacroProgram) -> int:
    rt = ctx.rt
    did = macro.directive_id(rt, prog, kind)
    tools = rt.tools
    if tools:
        tools.directive_begin(kind, did=did, devices=list(prog.devices),
                              time=rt.sim.now)
    return did


def _directive_end(ctx: TaskCtx, did: int, prog: macro.MacroProgram) -> None:
    tools = ctx.rt.tools
    if tools:
        tools.directive_end(did, chunks=len(prog.chunks),
                            time=ctx.rt.sim.now)


def target_enter_data_spread(ctx: TaskCtx, devices: Sequence[int],
                             range_: Tuple[int, int],
                             chunk_size: Optional[int],
                             maps: Sequence[MapClause],
                             nowait: bool = False,
                             depends: Sequence[Dep] = (),
                             fuse_transfers: bool = False,
                             schedule=None) -> Generator:
    """``#pragma omp target enter data spread devices(...) range(...)
    chunk_size(...) [nowait] map(to/alloc: ...)`` (Listing 6)."""
    rt = ctx.rt
    kind = "target enter data spread"
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps, depends)
           if rt.plan_cache.enabled else None)

    def lower():
        exec_ops.enter_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        _check_data_depends(ctx, depends, kind)
        return _lower_data(ctx, macro.OP_ENTER, "enter-spread", devices,
                           range_, chunk_size, schedule, maps, depends)

    prog, replay = macro.cached(rt, kind, key, lower)
    did = _directive_begin(ctx, kind, prog)
    handle = yield from _launch(ctx, prog, replay, fuse_transfers, nowait,
                                did, residency="enter")
    _directive_end(ctx, did, prog)
    return handle


def target_exit_data_spread(ctx: TaskCtx, devices: Sequence[int],
                            range_: Tuple[int, int],
                            chunk_size: Optional[int],
                            maps: Sequence[MapClause],
                            nowait: bool = False,
                            depends: Sequence[Dep] = (),
                            fuse_transfers: bool = False,
                            schedule=None) -> Generator:
    """``#pragma omp target exit data spread ... map(from/release/delete: ...)``."""
    rt = ctx.rt
    kind = "target exit data spread"
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps, depends)
           if rt.plan_cache.enabled else None)

    def lower():
        exec_ops.exit_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        _check_data_depends(ctx, depends, kind)
        return _lower_data(ctx, macro.OP_EXIT, "exit-spread", devices,
                           range_, chunk_size, schedule, maps, depends)

    prog, replay = macro.cached(rt, kind, key, lower)
    did = _directive_begin(ctx, kind, prog)
    handle = yield from _launch(ctx, prog, replay, fuse_transfers, nowait,
                                did, residency="exit")
    _directive_end(ctx, did, prog)
    return handle


class SpreadDataRegion:
    """Handle for a structured ``target data spread`` region."""

    def __init__(self, ctx: TaskCtx, end_prog: macro.MacroProgram,
                 fuse_transfers: bool, directive_id: int, replay: bool):
        self._ctx = ctx
        self._end_prog = end_prog
        self._fuse = fuse_transfers
        self._closed = False
        self._directive_id = directive_id
        # Whether the enter half replayed.  end() replays only then, and
        # re-checks: a device loss inside the region must fall back to the
        # generic launcher (which routes around the lost device).
        self._replay = replay

    def end(self) -> Generator:
        """Leave the region: distributed copy-backs, synchronously."""
        if self._closed:
            raise OmpSemaError("target data spread region already closed")
        self._closed = True
        ctx = self._ctx
        replay = self._replay and macro.decline_reason(ctx.rt) is None
        handle = yield from _launch(ctx, self._end_prog, replay, self._fuse,
                                    False, self._directive_id,
                                    residency="exit")
        _directive_end(ctx, self._directive_id, self._end_prog)
        return handle


def target_data_spread(ctx: TaskCtx, devices: Sequence[int],
                       range_: Tuple[int, int],
                       chunk_size: Optional[int],
                       maps: Sequence[MapClause],
                       fuse_transfers: bool = False,
                       schedule=None) -> Generator:
    """``#pragma omp target data spread devices(...) range(...)
    chunk_size(...) map(...)`` (Listing 5).

    Structured and synchronous: like its predecessor, the directive
    supports neither ``nowait`` nor ``depend`` (paper Section III-B.3);
    mappings distribute round-robin and stay valid until the returned
    region's ``end()`` is driven.
    """
    rt = ctx.rt
    kind = "target data spread"
    key = (pc.data_key(kind, devices, range_,
                       _chunk_key(chunk_size, schedule), maps)
           if rt.plan_cache.enabled else None)

    def lower():
        exec_ops.region_map_types(maps, kind)
        validate_unique_vars(maps, kind)
        # Both halves are lowered (and cached) together: the region end
        # runs the same chunks and maps under its own task names.
        end = _lower_data(ctx, macro.OP_EXIT, "data-spread-end", devices,
                          range_, chunk_size, schedule, maps)
        return _lower_data(ctx, macro.OP_ENTER, "data-spread", devices,
                           range_, chunk_size, schedule, maps, end=end)

    prog, replay = macro.cached(rt, kind, key, lower)
    did = _directive_begin(ctx, kind, prog)
    yield from _launch(ctx, prog, replay, fuse_transfers, False, did,
                       residency="enter")
    return SpreadDataRegion(ctx, prog.end, fuse_transfers, did, replay)


def _lower_update(ctx: TaskCtx, devices: Sequence[int],
                  range_: Tuple[int, int], chunk_size: Optional[int],
                  schedule, to: Sequence[Tuple[Var, object]],
                  from_: Sequence[Tuple[Var, object]],
                  depends: Sequence[Dep]) -> macro.MacroProgram:
    """Lower ``target update spread``: per chunk, the concrete to/from
    sections ride in ``extra`` and as pseudo map clauses (for wait
    gathering and the sanitizer footprint)."""
    chunks = _data_chunks(ctx, devices, range_, chunk_size, schedule)
    records = []
    for chunk in chunks:
        start, size = chunk.start, chunk.size
        to_c = tuple((var, concretize_section(var, section,
                                              spread_start=start,
                                              spread_size=size))
                     for var, section in to)
        from_c = tuple((var, concretize_section(var, section,
                                                spread_start=start,
                                                spread_size=size))
                       for var, section in from_)
        pseudo = tuple([(Map.to(var), iv) for var, iv in to_c] +
                       [(Map.from_(var), iv) for var, iv in from_c])
        deps = (tuple(concretize_deps(depends, spread_start=start,
                                      spread_size=size))
                if depends else ())
        device = chunk.device
        records.append(macro.MacroRecord(
            macro.OP_UPDATE, chunk, pseudo, deps,
            f"update-spread#{chunk.index}@{device}",
            f"update-spread@{device}", extra=(to_c, from_c)))
    return macro.MacroProgram(records, sorted({c.device for c in chunks}),
                              chunks)


def target_update_spread(ctx: TaskCtx, devices: Sequence[int],
                         range_: Tuple[int, int],
                         chunk_size: Optional[int],
                         to: Sequence[Tuple[Var, object]] = (),
                         from_: Sequence[Tuple[Var, object]] = (),
                         nowait: bool = False,
                         depends: Sequence[Dep] = (),
                         fuse_transfers: bool = False,
                         schedule=None) -> Generator:
    """``#pragma omp target update spread devices(...) range(...)
    chunk_size(...) [nowait] to(...) from(...)`` (Listing 7).

    Sections use ``omp_spread_start``/``omp_spread_size`` and must already
    be present on the owning device.
    """
    rt = ctx.rt
    kind = "target update spread"
    key = (pc.update_key(devices, range_,
                         _chunk_key(chunk_size, schedule), to, from_,
                         depends)
           if rt.plan_cache.enabled else None)

    def lower():
        if not to and not from_:
            raise OmpSemaError(
                "target update spread: needs at least one to()/from()")
        _check_data_depends(ctx, depends, kind)
        return _lower_update(ctx, devices, range_, chunk_size, schedule, to,
                             from_, depends)

    prog, replay = macro.cached(rt, kind, key, lower)
    did = _directive_begin(ctx, kind, prog)
    handle = yield from _launch(ctx, prog, replay, fuse_transfers, nowait,
                                did)
    _directive_end(ctx, did, prog)
    return handle
