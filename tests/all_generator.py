"""The all-generator reference run the bit-identity tests compare against.

One registered no-op tool is a per-op observer
(:meth:`~repro.openmp.runtime.OpenMPRuntime.per_op_observer`): it declines
spread replay and the fused copy walkers, so every chunk and section copy
of the run executes as a generator process — the path the walkers must be
indistinguishable from.  The tool observes nothing else, so the reference
differs from a default run only in which path carries it.
"""

from repro.obs.tool import Tool


class PlanCacheProbe(Tool):
    """Implements one callback (``plan_cache``) and ignores it."""

    def on_plan_cache(self, **kw) -> None:
        pass


def all_generator() -> dict:
    """``run_somier`` keyword arguments of the all-generator reference."""
    return {"tools": (PlanCacheProbe(),)}
