"""The executable spread directives.

``target spread`` (Listing 3) offloads a loop over multiple devices: the
iteration range is chunked by the ``spread_schedule`` clause and each chunk
becomes one device task — implicit map semantics, explicit per-chunk
``depend``, optional ``nowait``.  The combined
``target spread teams distribute parallel for`` (Listing 4) additionally
applies the intra-device clauses *per device* (each device gets
``num_teams`` teams, etc.).

Restrictions reproduced from the paper:

* the associated block must be a loop — inherent here: the API takes the
  loop bounds and a kernel body;
* only the ``static`` schedule is supported (extensions gated);
* the ``devices`` list order, not the ids, determines distribution.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.device.kernel import KernelSpec, LaunchConfig
from repro.openmp import exec_ops
from repro.openmp.depend import Dep
from repro.openmp.mapping import MapClause, validate_unique_vars
from repro.openmp.tasks import TaskCtx
from repro.sim.engine import Process
from repro.spread import extensions as ext
from repro.spread import failover as fo
from repro.spread import macro
from repro.spread import plan_cache as pc
from repro.spread.reduction import Reduction
from repro.spread.schedule import (
    Chunk,
    DynamicSchedule,
    SpreadSchedule,
    StaticSchedule,
    validate_devices,
)
from repro.util.errors import (
    DeviceLostError,
    OmpSemaError,
    SpreadExecutionError,
)


class SpreadHandle:
    """The tasks fanned out by one spread directive (one per chunk)."""

    def __init__(self, ctx: TaskCtx, procs: Sequence[Process],
                 chunks: Sequence[Chunk]):
        self._ctx = ctx
        self.procs = list(procs)
        self.chunks = list(chunks)
        #: chunks still queued when every worker retired (dynamic schedule
        #: under device loss); empty for the static schedule
        self.unfinished: Sequence[Chunk] = ()

    @classmethod
    def _adopt(cls, ctx: TaskCtx, procs: List[Process],
               chunks: Sequence[Chunk]) -> "SpreadHandle":
        """Adopt a launcher's lists without copying.

        *procs* is the fresh list a launcher built for this launch and
        *chunks* the program's immutable tuple, so the defensive copies of
        ``__init__`` are pure allocation churn here.
        """
        self = cls.__new__(cls)
        self._ctx = ctx
        self.procs = procs
        self.chunks = chunks
        self.unfinished = ()
        return self

    def wait(self) -> Generator:
        """Block until every chunk task has completed."""
        pending = [p for p in self.procs if not p._processed]
        if pending:
            yield self._ctx.sim.all_of(pending)

    @property
    def done(self) -> bool:
        return all(p.processed for p in self.procs)

    def __len__(self) -> int:
        return len(self.procs)


# Directive-call defaults, hoisted: both were rebuilt on every call, which
# is pure allocation churn on the warm launch path.
_DEFAULT_STATIC = StaticSchedule(None)
_DEFAULT_LAUNCH = LaunchConfig(num_teams=1, threads_per_team=1, simd=False)

# Launch configurations are immutable; the combined directive memoizes them
# per (num_teams, threads_per_team, simd) triple.
_LAUNCH_CFGS: dict = {}


def _launch_config(num_teams, threads_per_team, simd) -> LaunchConfig:
    key = (num_teams, threads_per_team, simd)
    cfg = _LAUNCH_CFGS.get(key)
    if cfg is None:
        cfg = LaunchConfig(num_teams=num_teams,
                           threads_per_team=threads_per_team, simd=simd)
        _LAUNCH_CFGS[key] = cfg
    return cfg


# All-default combined directive (no teams/threads clause, simd on): the
# common case skips the memo-dict key build entirely.
_DEFAULT_TEAMS_CFG = _launch_config(None, None, True)


def target_spread(ctx: TaskCtx, kernel: KernelSpec, lo: int, hi: int,
                  devices: Sequence[int],
                  schedule: Optional[SpreadSchedule] = None,
                  maps: Sequence[MapClause] = (),
                  nowait: bool = False,
                  depends: Sequence[Dep] = (),
                  launch: Optional[LaunchConfig] = None,
                  reductions: Sequence[Reduction] = (),
                  fuse_transfers: bool = False) -> Generator:
    """``#pragma omp target spread`` over the loop ``[lo, hi)``.

    Map and depend sections may use ``omp_spread_start`` /
    ``omp_spread_size``; they are evaluated per chunk.  Without a launch
    configuration each chunk executes serially on its device (bare
    ``target spread``); the combined directive saturates the device.

    Returns a :class:`SpreadHandle`; with ``nowait`` the handle is returned
    immediately and synchronization is the caller's job (``taskwait`` /
    ``taskgroup``), exactly as the paper describes.
    """
    rt = ctx.rt
    sched = schedule if schedule is not None else _DEFAULT_STATIC
    if sched.is_extension:
        ext.require(rt, "schedules",
                    f"spread_schedule({sched.kind}, ...)")
    if reductions:
        ext.require(rt, "reduction", "the reduction clause on target spread")
        if nowait:
            raise OmpSemaError(
                "target spread: reduction requires synchronous execution "
                "(drop nowait)")
    cfg = launch if launch is not None else _DEFAULT_LAUNCH
    if isinstance(sched, DynamicSchedule):
        # Chunk→device assignment happens at execution time: there is no
        # program to cache, so the dynamic schedule launches directly.
        handle = yield from _run_dynamic(ctx, kernel, lo, hi, devices, sched,
                                         maps, depends, cfg, nowait,
                                         reductions, fuse_transfers)
        return handle

    key = (pc.exec_key(kernel, lo, hi, devices, sched.signature, maps,
                       depends)
           if rt.plan_cache.enabled else None)
    prog, replay = macro.cached(
        rt, "target spread", key,
        lambda: _lower_exec(rt, kernel, lo, hi, devices, sched, maps,
                            depends),
        reductions)
    did = macro.directive_id(rt, prog, "target spread", kernel.name)
    if replay:
        procs = macro.replay_exec(ctx, prog, kernel, cfg, fuse_transfers,
                                  did)
        handle = SpreadHandle._adopt(ctx, procs, prog.chunks)
        if not nowait:
            yield from handle.wait()
        return handle

    tools = rt.tools
    if tools:
        tools.directive_begin("target spread", did=did, name=kernel.name,
                              devices=list(prog.devices), lo=lo, hi=hi,
                              time=rt.sim.now)
    handle = _launch_static(ctx, kernel, prog, cfg, reductions,
                            fuse_transfers, directive_id=did)
    if reductions:
        yield from handle.wait()
        _fold_reductions(handle, reductions)
    elif not nowait:
        yield from handle.wait()
    if tools:
        tools.directive_end(did, chunks=len(handle.chunks),
                            time=rt.sim.now)
    return handle


def _validate_exec(rt, devices: Sequence[int],
                   maps: Sequence[MapClause]) -> List[int]:
    """The cold-path checks of ``target spread``; returns the devices."""
    devs = validate_devices(devices, rt.num_devices)
    validate_unique_vars(maps, "target spread")
    exec_ops.region_map_types(maps, "target spread")
    return devs


def _lower_exec(rt, kernel: KernelSpec, lo: int, hi: int,
                devices: Sequence[int], sched: SpreadSchedule,
                maps: Sequence[MapClause],
                depends: Sequence[Dep]) -> macro.MacroProgram:
    """Validate and lower a static ``target spread`` to its program."""
    devs = _validate_exec(rt, devices, maps)
    return macro.lower(macro.OP_KERNEL, sched.chunks(lo, hi, devs), maps,
                       depends, f"spread:{kernel.name}", "spread", devs,
                       anchor=kernel)


def _run_dynamic(ctx: TaskCtx, kernel: KernelSpec, lo: int, hi: int,
                 devices: Sequence[int], sched: DynamicSchedule,
                 maps: Sequence[MapClause], depends: Sequence[Dep],
                 cfg: LaunchConfig, nowait: bool,
                 reductions: Sequence[Reduction],
                 fuse_transfers: bool) -> Generator:
    """The uncached dynamic-schedule execution of ``target spread``."""
    rt = ctx.rt
    devs = _validate_exec(rt, devices, maps)
    chunks = sched.chunks(lo, hi, devs)
    if depends:
        raise OmpSemaError(
            "target spread: depend is not supported with the dynamic "
            "schedule extension")
    tools = rt.tools
    did = rt.next_directive_id("target spread", kernel.name)
    if tools:
        tools.directive_begin("target spread", did=did, name=kernel.name,
                              devices=list(devs), lo=lo, hi=hi,
                              time=rt.sim.now)
    handle = _launch_dynamic(ctx, kernel, chunks, devs, maps, cfg,
                             fuse_transfers, directive_id=did)
    if reductions:
        yield from handle.wait()
        _fold_reductions(handle, reductions)
    elif not nowait:
        yield from handle.wait()
    if not nowait and handle.unfinished:
        # Every worker retired (device loss) with chunks still queued.
        raise SpreadExecutionError(
            f"target spread ({kernel.name}): {len(handle.unfinished)} "
            f"chunk(s) left unexecuted after device loss")
    if tools:
        tools.directive_end(did, chunks=len(handle.chunks),
                            time=rt.sim.now)
    return handle


def target_spread_teams_distribute_parallel_for(
        ctx: TaskCtx, kernel: KernelSpec, lo: int, hi: int,
        devices: Sequence[int],
        schedule: Optional[SpreadSchedule] = None,
        maps: Sequence[MapClause] = (),
        num_teams: Optional[int] = None,
        threads_per_team: Optional[int] = None,
        simd: bool = True,
        nowait: bool = False,
        depends: Sequence[Dep] = (),
        reductions: Sequence[Reduction] = (),
        fuse_transfers: bool = False) -> Generator:
    """``#pragma omp target spread teams distribute parallel for [simd]``.

    The intra-device clauses apply per device: every device runs its chunk
    with ``num_teams`` teams of ``threads_per_team`` threads (Listing 4).
    """
    launch = (_DEFAULT_TEAMS_CFG
              if num_teams is None and threads_per_team is None and simd
              else _launch_config(num_teams, threads_per_team, simd))
    handle = yield from target_spread(ctx, kernel, lo, hi, devices,
                                      schedule=schedule, maps=maps,
                                      nowait=nowait, depends=depends,
                                      launch=launch, reductions=reductions,
                                      fuse_transfers=fuse_transfers)
    return handle


# ---------------------------------------------------------------------------
# static fan-out: the generic launcher over a program's records
# ---------------------------------------------------------------------------

def _launch_static(ctx: TaskCtx, kernel: KernelSpec,
                   prog: macro.MacroProgram, cfg: LaunchConfig,
                   reductions: Sequence[Reduction], fuse_transfers: bool,
                   directive_id: Optional[int] = None) -> SpreadHandle:
    rt = ctx.rt
    resilient = rt.fault_injector is not None or rt.lost_devices
    items = []
    provs = []  # (chunk_index, rerouted_from) aligned with items
    for rec in prog.records:
        chunk = rec.chunk
        if not resilient:
            # Zero-fault hot path: identical to the pre-failover launch.
            if reductions:
                op = _chunk_op_with_reductions(rt, chunk, rec.device_id,
                                               kernel, rec.maps, cfg,
                                               reductions, fuse_transfers)
            else:
                op = exec_ops.kernel_op(rt, rec.device_id, kernel, rec.lo,
                                        rec.hi, rec.maps, launch=cfg,
                                        fuse_transfers=fuse_transfers,
                                        label=rec.label)
            items.append((rec.device_id, op, rec.maps, rec.deps, rec.name))
            provs.append((rec.chunk_index, None))
            continue

        def op_factory(device_id, rerouted, rec=rec):
            if reductions:
                return _chunk_op_with_reductions(
                    rt, rec.chunk, device_id, kernel, rec.maps, cfg,
                    reductions, fuse_transfers, standalone=rerouted)
            return exec_ops.kernel_op(
                rt, device_id, kernel, rec.lo, rec.hi, rec.maps, launch=cfg,
                fuse_transfers=fuse_transfers, label=rec.label,
                standalone=rerouted)

        device_id, rerouted = fo.route_chunk(rt, chunk, prog.devices,
                                             name=rec.name)
        op = fo.failover_op(rt, chunk, prog.devices, op_factory,
                            name=rec.name, initial=(device_id, rerouted))
        accesses = None
        if rt.sanitizer is not None:
            if rerouted:
                # A re-routed chunk runs standalone: its host footprint is
                # the scratch-env one, not what the planned map types say.
                from repro.analysis.sanitizer import standalone_accesses
                accesses = standalone_accesses(rec.maps, rec.lo, rec.hi)
            else:
                accesses = exec_ops.kernel_accesses(rt, device_id, rec.maps)
        items.append((device_id, op, rec.maps, rec.deps, rec.name, accesses))
        provs.append((rec.chunk_index, chunk.device if rerouted else None))
    procs = exec_ops.submit_spread(ctx, items, directive_id=directive_id)
    for proc, (chunk_index, rerouted_from) in zip(procs, provs):
        proc.prov = (directive_id, chunk_index, rerouted_from)
    return SpreadHandle._adopt(ctx, procs, prog.chunks)


# ---------------------------------------------------------------------------
# dynamic schedule (extension): one worker per device pulls chunks
# ---------------------------------------------------------------------------

def _launch_dynamic(ctx: TaskCtx, kernel: KernelSpec,
                    chunks: Sequence[Chunk], devices: Sequence[int],
                    maps: Sequence[MapClause], cfg: LaunchConfig,
                    fuse_transfers: bool,
                    directive_id: Optional[int] = None) -> SpreadHandle:
    rt = ctx.rt
    queue = deque(chunks)
    assigned: List[Chunk] = []

    def worker(device_id: int, cell: List[Process]) -> Generator:
        # Dynamic failover is naturally work-stealing shaped: a worker
        # whose device dies puts the chunk back and retires; the surviving
        # workers drain the queue.  ``cell`` holds the worker's own process
        # (filled right after submit) so the sanitizer can attribute each
        # pulled chunk's footprint to it.
        while queue:
            if rt.is_lost(device_id):
                return
            chunk = queue.popleft()
            record = Chunk(index=chunk.index, interval=chunk.interval,
                           device=device_id)
            assigned.append(record)
            # Per-pulled-chunk provenance: the worker process runs each
            # chunk's ops inline, so re-tagging before the op is exact.
            # Dynamic assignment is scheduling, not failover — no
            # rerouted_from tag.
            cell[0].prov = (directive_id, chunk.index, None)
            concrete = macro.concretize_maps(maps, chunk)
            san = rt.sanitizer
            if san is not None:
                from repro.analysis.sanitizer import accesses_from_maps

                san.record_op(cell[0], accesses_from_maps(concrete),
                              device=device_id, directive=directive_id,
                              name=f"spread-dyn:{kernel.name}"
                                   f"#{chunk.index}@{device_id}")
            try:
                yield from exec_ops.kernel_op(
                    rt, device_id, kernel, chunk.start, chunk.interval.stop,
                    concrete, launch=cfg, fuse_transfers=fuse_transfers,
                    label=f"spread-dyn@{device_id}")
            except DeviceLostError as err:
                fo.mark_loss(rt, err, device_id)
                assigned.remove(record)
                queue.append(chunk)
                return

    procs = []
    for d in devices:
        if rt.is_lost(d):
            continue
        cell: List[Process] = []
        proc = ctx.submit(worker(d, cell),
                          name=f"spread-dyn:{kernel.name}@{d}",
                          device=d, directive_id=directive_id)
        cell.append(proc)
        procs.append(proc)
    if not procs:
        raise SpreadExecutionError(
            f"target spread ({kernel.name}): all devices of the clause "
            f"{sorted(set(devices))} are lost")
    handle = SpreadHandle(ctx, procs, assigned)
    handle.unfinished = queue
    return handle


# ---------------------------------------------------------------------------
# reduction plumbing
# ---------------------------------------------------------------------------

def _chunk_op_with_reductions(rt, chunk: Chunk, device_id: int,
                              kernel: KernelSpec,
                              concrete_maps, cfg: LaunchConfig,
                              reductions: Sequence[Reduction],
                              fuse_transfers: bool,
                              standalone: bool = False) -> Generator:
    dev = rt.device(device_id)
    partial_allocs = []
    extra_env = {}
    for red in reductions:
        alloc = dev.allocate(red.var.array.shape, dtype=red.var.array.dtype,
                             label=f"reduction:{red.var.name}")
        alloc.array[...] = red.identity
        extra_env[red.var.name] = alloc.array
        partial_allocs.append((red, alloc))
    yield from exec_ops.kernel_op(rt, device_id, kernel,
                                  chunk.start, chunk.interval.stop,
                                  concrete_maps, launch=cfg,
                                  fuse_transfers=fuse_transfers,
                                  label=f"spread@{device_id}",
                                  extra_env=extra_env,
                                  standalone=standalone)
    staged = []
    for red, alloc in partial_allocs:
        staging = np.empty_like(alloc.array)
        name = f"reduction:{red.var.name}"
        yield from exec_ops._maybe_retry(
            rt, device_id,
            lambda a=alloc, s=staging, n=name: dev.copy_d2h(
                a.array, slice(None), s, slice(None), name=n),
            "d2h", name)
        dev.free(alloc)
        staged.append(staging)
    return staged


def _fold_reductions(handle: SpreadHandle,
                     reductions: Sequence[Reduction]) -> None:
    # Each chunk task returned its staged partials; fold them in chunk
    # order so the result is independent of execution interleaving.
    ordered = sorted(zip(handle.chunks, handle.procs),
                     key=lambda pair: pair[0].index)
    for r, red in enumerate(reductions):
        partials = [proc.value[r] for _chunk, proc in ordered]
        red.fold_into_host(partials)
