"""Fused-timeline engine: bit identity against the all-generator path.

:mod:`repro.sim.timeline` executes replayed spread chunks (and the
runtime's batched section copies) as fused timeline walkers: per-chunk
virtual-time segments advanced in single dispatches instead of generator
round-trips.  The acceptance contract mirrors macro replay's, one level
down — the walker path must be observationally indistinguishable from
the generator path.  Same ``virtual_s`` to the bit, same trace events,
same results, across implementations, spread modes and worker counts,
against the all-generator reference (one registered no-op tool, see
``tests/all_generator.py``).  The causal recorder observes the walkers
(same ops, edges and analysis as on the generator path); the sanitizer
and fault injection push the runtime off them entirely
(``fused_segments == 0``).
"""

import numpy as np
import pytest

from repro.bench.machines import (
    machine_for_spec,
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.somier.driver import run_somier
from tests.all_generator import all_generator


@pytest.fixture(autouse=True)
def _hermetic_knob_env(monkeypatch):
    """The engagement assertions (``fused_segments > 0``) require the
    walkers to actually engage, which a globally armed sanitizer or fault
    injector disables by design — the CI env-matrix legs
    (``REPRO_FAULTS``, ``REPRO_SANITIZE``, ``REPRO_ANALYZE``) must not
    leak in.  Each observer is covered explicitly below, armed per-run."""
    for knob in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                 "REPRO_ANALYZE"):
        monkeypatch.delenv(knob, raising=False)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _run(impl, *, gpus=4, n=24, steps=3, devices=None, machine=None, **kw):
    if machine is not None:
        topo, cm = machine_for_spec(machine, n_functional=n)
        devs = list(range(topo.num_devices))
    else:
        topo, cm = paper_machine(gpus, n_functional=n)
        devs = paper_devices(gpus)
    cfg = paper_somier_config(n_functional=n, steps=steps)
    if devices is not None:
        devs = devices
    return run_somier(impl, cfg, devices=devs, topology=topo, cost_model=cm,
                      **kw)


def _assert_identical(a, b):
    assert a.elapsed == b.elapsed
    assert np.array_equal(a.centers, b.centers)
    t_a, t_b = a.runtime.trace, b.runtime.trace
    if t_a is not None and t_b is not None:
        assert _event_tuples(t_a) == _event_tuples(t_b)


def _recorder_state(res):
    rec = res.runtime.causal
    return (rec.ops, rec.op_deps, rec.res_edges, rec.op_event)


MATRIX = [
    ("target", dict(devices=[0])),
    ("one_buffer", {}),
    ("one_buffer", dict(data_depend=True)),
    ("one_buffer", dict(fuse_transfers=True)),
    ("one_buffer", dict(workers=2)),
    # half-buffer impls keep two chunks resident: need the larger grid
    ("two_buffers", dict(n=48)),
    ("two_buffers", dict(n=48, data_depend=True)),
    ("double_buffering", dict(n=48)),
    ("double_buffering", dict(n=48, data_depend=True)),
    ("double_buffering", dict(n=48, workers=4)),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "impl,kw", MATRIX,
        ids=[f"{i}-{'-'.join(k) or 'default'}" for i, k in MATRIX])
    def test_fused_on_vs_off(self, impl, kw):
        """Default (walkers) == all-generator reference == cache off."""
        fused = _run(impl, **kw)
        reference = _run(impl, **kw, **all_generator())
        assert fused.stats["engine_fused_segments"] > 0
        assert reference.stats["engine_fused_segments"] == 0
        _assert_identical(fused, reference)
        _assert_identical(fused, _run(impl, plan_cache=False, **kw))

    def test_paper_scale_double_buffering(self):
        """Regression for same-timestamp completion reordering: at paper
        scale the queue slot claimed at copy-issue time is routinely
        already processed when the walker reaches its wait, and the
        walker must continue synchronously (as ``gen.send`` does for a
        processed event) or two d2h completions on different devices swap
        trace order."""
        fused = _run("double_buffering", n=48, steps=2)
        reference = _run("double_buffering", n=48, steps=2,
                         **all_generator())
        assert fused.stats["engine_fused_segments"] > 0
        assert reference.stats["engine_fused_segments"] == 0
        _assert_identical(fused, reference)


ANALYZED = {
    "one_buffer": ("one_buffer", {}),
    "double_buffering": ("double_buffering", dict(n=48)),
    "data_depend": ("one_buffer", dict(data_depend=True)),
    "workers2": ("one_buffer", dict(workers=2)),
    "cluster2x2": ("one_buffer", dict(machine="cluster:2x2")),
}


class TestFallbacks:
    """The causal recorder observes the walkers; the sanitizer and fault
    injection push the runtime off them and stay bit-identical."""

    def test_sanitizer_disengages(self):
        sanitized = _run("one_buffer", sanitize=True)
        assert sanitized.stats["engine_fused_segments"] == 0
        assert sanitized.stats["sanitizer_races"] == 0
        _assert_identical(sanitized, _run("one_buffer"))

    @pytest.mark.parametrize("impl,kw", ANALYZED.values(), ids=ANALYZED)
    def test_analyzer_observes_walkers(self, impl, kw):
        """The recorder sees the walkers exactly as it sees generators:
        same ops, dependency and contention edges, op->event bindings and
        analysis payload as the analyzed all-generator reference."""
        fused = _run(impl, analyze=True, **kw)
        reference = _run(impl, analyze=True, **kw, **all_generator())
        assert fused.stats["engine_fused_segments"] > 0
        assert reference.stats["engine_fused_segments"] == 0
        _assert_identical(fused, reference)
        assert _recorder_state(fused) == _recorder_state(reference)
        assert (fused.runtime.analysis().to_json()
                == reference.runtime.analysis().to_json())

    def test_faults_disengage(self):
        faulty = _run("one_buffer", faults="transfer:0.05", fault_seed=7)
        reference = _run("one_buffer", faults="transfer:0.05", fault_seed=7,
                         **all_generator())
        assert faulty.stats["engine_fused_segments"] == 0
        assert (faulty.stats["faults_injected"]
                == reference.stats["faults_injected"])
        _assert_identical(faulty, reference)


class TestKnob:
    def test_engine_stats_exposed(self):
        res = _run("one_buffer")
        st = res.stats
        assert st["engine_events_scheduled"] > 0
        assert st["engine_dispatches"] > 0
        assert st["engine_mean_batch"] > 1.0
        assert st["engine_events_dispatched"] > 0
