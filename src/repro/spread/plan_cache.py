"""Launch-plan caching for the spread directives (directive replay).

The Somier programs re-execute structurally identical spread directives
every timestep: same kernel, same bounds, same devices clause, same
schedule, same symbolic map/depend sections.  Lowering one of those
directives — device-clause validation, chunking, per-chunk section
concretization, name formatting — is pure host-side work whose result
depends only on those inputs, so it can be computed once and replayed.
This is the simulated analogue of what production offload runtimes do for
repeated launches (JACC caches kernel/launch state across invocations; the
LLVM/OpenMP GPU runtime memoizes the launch path).

:class:`SpreadPlanCache` maps a structural *key* of the directive to its
lowered :class:`~repro.spread.macro.MacroProgram` — the one cached form
of a launch.  :func:`repro.spread.macro.cached` is the single entry point
the directives use: a miss lowers and stores, a hit replays the program or
(when :func:`~repro.spread.macro.decline_reason` declines) walks its
records through the generic launcher.  Either way a cached directive
issues bit-identical work to a cold one — same ops, same order, same
names, same virtual-time trace.

Cache keys and invalidation
---------------------------

Keys are structural tuples built from:

* the kernel (by identity — :class:`~repro.device.kernel.KernelSpec`
  carries an unhashable scalars dict, so the program anchors a strong
  reference and the key uses ``id()``),
* the iteration range / data range and the devices clause,
* the schedule signature (kind + chunk sizes; the dynamic schedule has no
  signature and is never cached — its chunk→device assignment is decided
  at execution time),
* a map signature: per clause ``(map_type, var, var extent, section)``
  where variables compare by identity and sections structurally
  (:class:`~repro.spread.sections.SpreadExpr` hashes structurally),
* a depend signature of the same shape.

Entries almost never go stale because every input that could change the
lowering is part of the key.  Rebinding a name to a *new*
:class:`~repro.openmp.mapping.Var` (or changing an array's extent)
changes the key, so the old entry is simply never hit again.  The one
event that does invalidate is *device loss* (fault injection):
:meth:`SpreadPlanCache.invalidate_devices` drops every program that
routed chunks to a lost device or node.  This is hygiene more than
correctness — once a device is lost no hit replays, and failover
re-routes chunks at launch time regardless of what the program says —
but it keeps the cache from pinning programs that will never run
verbatim again and keeps its entry count honest.
Anything the key cannot prove stable (an unhashable section, a dynamic
schedule) falls back to the uncached slow path.  ``plan_cache=False`` on
the runtime (CLI ``--no-plan-cache``) disables lookup and store entirely.

Extension gates and per-call semantic checks (reduction×nowait conflicts)
stay *outside* the cached region: a cache hit only skips work whose
outcome is fully determined by the key.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple


class SpreadPlanCache:
    """Keyed store of lowered spread programs with traffic counters.

    ``hits``/``misses`` count cacheable lookups, ``macro_replays`` the hits
    that replayed and ``replay_declined`` the hits that did not, per
    :func:`~repro.spread.macro.decline_reason` reason.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._programs: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.macro_replays = 0
        self.replay_declined: Dict[str, int] = {}

    def lookup(self, key: Any) -> Optional[Any]:
        """The cached program for *key*, or None (a miss).

        ``key=None`` marks an uncacheable directive and is never counted.
        """
        if key is None or not self.enabled:
            return None
        try:
            prog = self._programs.get(key)
        except TypeError:  # unhashable key component: uncacheable
            return None
        if prog is None:
            self.misses += 1
        else:
            self.hits += 1
        return prog

    def store(self, key: Any, prog: Any) -> None:
        if key is None or not self.enabled:
            return
        try:
            self._programs[key] = prog
        except TypeError:  # unhashable key component: skip silently
            pass

    def clear(self) -> None:
        self._programs.clear()

    def invalidate_devices(self, device_ids: Sequence[int]) -> int:
        """Drop every cached program that routes work to any of
        *device_ids* (one lost device, or every device of a lost node, in
        one pass).  Returns the number of entries dropped."""
        ids = frozenset(device_ids)
        stale = [key for key, prog in self._programs.items()
                 if not ids.isdisjoint(prog.devices)]
        for key in stale:
            del self._programs[key]
        self.invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._programs)

    @property
    def stats(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._programs),
                "invalidations": self.invalidations,
                "macro_replays": self.macro_replays,
                "replay_declined": dict(self.replay_declined)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SpreadPlanCache enabled={self.enabled} "
                f"entries={len(self._programs)} hits={self.hits} "
                f"misses={self.misses}>")


# ---------------------------------------------------------------------------
# key builders
# ---------------------------------------------------------------------------

def maps_signature(maps: Sequence[Any]) -> Tuple[Any, ...]:
    """Structural signature of a map-clause list.

    The variable's extent rides along so growing/shrinking the underlying
    array (were a Var ever rebuilt around one) changes the signature.

    Sections normalize inline (lists become tuples): this runs on *every*
    directive call, hit or miss, and the extra call frame per clause was a
    measurable share of the hit path (BENCH_wallclock's end_to_end_speedup
    was below 1.0 before it was flattened).  The map type rides as its
    value string, not the enum member — ``enum.Enum.__hash__`` is a
    Python-level call, and the key is hashed on every directive call.
    """
    out = []
    for c in maps:
        s = c.section
        if type(s) is list:
            s = tuple(s)
        out.append((c.map_type._value_, c.var, c.var.extent, s))
    return tuple(out)


def deps_signature(deps: Sequence[Any]) -> Tuple[Any, ...]:
    if not deps:
        return ()
    out = []
    for d in deps:
        s = d.section
        if type(s) is list:
            s = tuple(s)
        out.append((d.kind._value_, d.var, d.var.extent, s))
    return tuple(out)


def sections_signature(pairs: Sequence[Tuple[Any, Any]]) -> Tuple[Any, ...]:
    """Signature of ``(var, section)`` pairs (``target update spread``)."""
    out = []
    for var, section in pairs:
        if type(section) is list:
            section = tuple(section)
        out.append((var, var.extent, section))
    return tuple(out)


def exec_key(kernel: Any, lo: int, hi: int, devices: Sequence[int],
             sched_signature: Any, maps: Sequence[Any],
             depends: Sequence[Any]) -> Optional[Any]:
    """Cache key of an executable spread directive, or None if uncacheable
    (dynamic schedule, malformed bounds).

    Bounds are *not* forced to Python int: NumPy integers hash and compare
    equal to the equivalent Python int, so mixed-type callers still land on
    the same entry and the hit path skips two conversions per call.
    """
    if sched_signature is None:
        return None
    try:
        return ("exec", id(kernel), lo, hi, tuple(devices),
                sched_signature, maps_signature(maps),
                deps_signature(depends) if depends else ())
    except (TypeError, ValueError, AttributeError):
        return None


def data_key(kind: str, devices: Sequence[int], range_: Tuple[int, int],
             chunk_size: Optional[int], maps: Sequence[Any],
             depends: Sequence[Any] = ()) -> Optional[Any]:
    """Cache key of a spread data directive (enter/exit/data region)."""
    try:
        return ("data", kind, tuple(devices), range_[0], range_[1],
                chunk_size, maps_signature(maps), deps_signature(depends))
    except (TypeError, ValueError, IndexError, AttributeError):
        return None


def update_key(devices: Sequence[int], range_: Tuple[int, int],
               chunk_size: Optional[int], to: Sequence[Tuple[Any, Any]],
               from_: Sequence[Tuple[Any, Any]],
               depends: Sequence[Any] = ()) -> Optional[Any]:
    """Cache key of ``target update spread``."""
    try:
        return ("update", tuple(devices), range_[0], range_[1],
                chunk_size, sections_signature(to),
                sections_signature(from_), deps_signature(depends))
    except (TypeError, ValueError, IndexError, AttributeError):
        return None
