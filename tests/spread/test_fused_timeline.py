"""Fused-timeline engine: bit identity fused on vs off.

:mod:`repro.sim.timeline` executes replayed spread chunks (and the
runtime's batched section copies) as fused timeline walkers: per-chunk
virtual-time segments advanced in single dispatches instead of generator
round-trips.  The acceptance contract mirrors macro replay's, one level
down — the walker path must be observationally indistinguishable from
the generator path.  Same ``virtual_s`` to the bit, same trace events,
same results, across implementations, spread modes, worker counts, and
every observation fallback (sanitizer, analyzer, fault injection), where
the walkers must disengage entirely (``fused_segments == 0``).
"""

import numpy as np
import pytest

from repro.bench.machines import (
    paper_devices,
    paper_machine,
    paper_somier_config,
)
from repro.openmp.runtime import resolve_fused_timeline
from repro.somier.driver import run_somier


@pytest.fixture(autouse=True)
def _hermetic_knob_env(monkeypatch):
    """The engagement assertions (``fused_segments > 0``) require the
    walkers to actually engage, which any globally armed observation
    fallback disables by design — the CI env-matrix legs (``REPRO_FAULTS``,
    ``REPRO_SANITIZE``, ``REPRO_ANALYZE``) must not leak in.  Each
    fallback is covered explicitly below with the knob armed per-run."""
    for knob in ("REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_SANITIZE",
                 "REPRO_ANALYZE", "REPRO_FUSED_TIMELINE"):
        monkeypatch.delenv(knob, raising=False)


def _event_tuples(trace):
    return [(e.category, e.name, e.lane, e.start, e.end, e.device,
             tuple(sorted(e.meta.items())))
            for e in trace.events]


def _run(impl, fused, *, gpus=4, n=24, steps=3, devices=None, **kw):
    topo, cm = paper_machine(gpus, n_functional=n)
    cfg = paper_somier_config(n_functional=n, steps=steps)
    devs = devices if devices is not None else paper_devices(gpus)
    return run_somier(impl, cfg, devices=devs, topology=topo, cost_model=cm,
                      fused_timeline=fused, **kw)


def _assert_identical(on, off):
    assert on.elapsed == off.elapsed
    assert np.array_equal(on.centers, off.centers)
    t_on, t_off = on.runtime.trace, off.runtime.trace
    if t_on is not None and t_off is not None:
        assert _event_tuples(t_on) == _event_tuples(t_off)
    assert off.stats["engine_fused_segments"] == 0


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
        on = _run(impl, True, **kw)
        off = _run(impl, False, **kw)
        assert on.stats["engine_fused_segments"] > 0
        _assert_identical(on, off)

    def test_paper_scale_double_buffering(self):
        """Regression for same-timestamp completion reordering: at paper
        scale the queue slot claimed at copy-issue time is routinely
        already processed when the walker reaches its wait, and the
        walker must continue synchronously (as ``gen.send`` does for a
        processed event) or two d2h completions on different devices swap
        trace order."""
        on = _run("double_buffering", True, n=48, steps=2)
        off = _run("double_buffering", False, n=48, steps=2)
        assert on.stats["engine_fused_segments"] > 0
        _assert_identical(on, off)


class TestFallbacks:
    """Observation hooks must push the runtime off the walker path and
    stay bit-identical with fused nominally on."""

    def test_sanitizer_disengages(self):
        on = _run("one_buffer", True, sanitize=True)
        off = _run("one_buffer", False, sanitize=True)
        assert on.stats["engine_fused_segments"] == 0
        assert on.stats["sanitizer_races"] == 0
        _assert_identical(on, off)

    def test_analyzer_disengages(self):
        on = _run("one_buffer", True, analyze=True)
        off = _run("one_buffer", False, analyze=True)
        assert on.stats["engine_fused_segments"] == 0
        _assert_identical(on, off)
        assert (on.runtime.analysis().headline()
                == off.runtime.analysis().headline())

    def test_faults_disengage(self):
        on = _run("one_buffer", True, faults="transfer:0.05", fault_seed=7)
        off = _run("one_buffer", False, faults="transfer:0.05", fault_seed=7)
        assert on.stats["engine_fused_segments"] == 0
        assert on.stats["faults_injected"] == off.stats["faults_injected"]
        _assert_identical(on, off)


class TestKnob:
    def test_resolve_fused_timeline_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_TIMELINE", raising=False)
        assert resolve_fused_timeline(None) is True
        assert resolve_fused_timeline(True) is True
        assert resolve_fused_timeline(False) is False
        for raw, want in (("0", False), ("off", False), ("false", False),
                          ("no", False), ("1", True), ("on", True),
                          ("", True), ("  ", True)):
            monkeypatch.setenv("REPRO_FUSED_TIMELINE", raw)
            assert resolve_fused_timeline(None) is want
        monkeypatch.setenv("REPRO_FUSED_TIMELINE", "0")
        assert resolve_fused_timeline(True) is True  # explicit beats env

    def test_engine_stats_exposed(self):
        res = _run("one_buffer", True)
        st = res.stats
        assert st["engine_events_scheduled"] > 0
        assert st["engine_dispatches"] > 0
        assert st["engine_mean_batch"] > 1.0
        assert st["engine_events_dispatched"] > 0
