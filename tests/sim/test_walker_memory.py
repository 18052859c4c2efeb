"""Finished tasks must not keep device buffers alive.

The runtime's task registry keeps every task of a run until the run ends,
so a finished task that still referenced its payload (waits, present-table
entries, kernel views, copy sources and snapshots) would pin every device
buffer it ever touched: the live :class:`~repro.device.memory.Allocation`
count would grow with the step count instead of staying at the working
set.  The gate: it must not grow between a 2-step and a 6-step Somier run,
whichever execution path carries the run.
"""

import gc

import pytest

from repro.bench.machines import machine_for_spec
from repro.device.memory import Allocation
from repro.somier import SomierConfig, run_somier
from tests.all_generator import all_generator

ARMS = {
    "default": ("cte-power:4", {}),
    "plan_cache_off": ("cte-power:4", {"plan_cache": False}),
    "observed": ("cte-power:4", all_generator()),
    "analyzed": ("cte-power:4", {"analyze": True, "trace": True}),
    "workers2": ("cte-power:4", {"workers": 2}),
    "cluster2x2": ("cluster:2x2", {}),
}


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """Armed observers (CI env legs) switch the walkers off; the arms here
    choose their paths explicitly."""
    for knob in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                 "REPRO_ANALYZE", "REPRO_WORKERS", "REPRO_MACHINE"):
        monkeypatch.delenv(knob, raising=False)


def _live_allocations(machine, kw, steps):
    """Allocations still reachable right after a run, the result held."""
    topo, cm = machine_for_spec(machine, n_functional=24)
    kw = {"trace": False, **kw}
    res = run_somier("one_buffer", SomierConfig(n=24, steps=steps),
                     topology=topo, cost_model=cm, **kw)
    gc.collect()
    live = sum(1 for obj in gc.get_objects() if isinstance(obj, Allocation))
    del res
    return live


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_live_allocations_flat_across_steps(arm):
    machine, kw = ARMS[arm]
    short = _live_allocations(machine, kw, 2)
    long = _live_allocations(machine, kw, 6)
    assert long <= short
