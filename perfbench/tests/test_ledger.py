"""The traced-run ledger: span nesting, generator resumes, patching, and
self times that add up to the traced wall time."""

import importlib
import math

import pytest

import harness
import ledger
from ledger import LAYERS, Ledger, TimedGen


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_times_subtract_children_and_leave_gaps_unattributed():
    clock = FakeClock()
    led = Ledger(clock)
    outer = led.open("sim.run")
    clock.tick(1.0)
    inner = led.open("device.kernel")
    clock.tick(2.0)
    leaf = led.open("somier.forces")
    clock.tick(4.0)
    led.close(leaf)
    led.close(inner)
    clock.tick(0.5)
    led.close(outer)
    clock.tick(3.0)   # outside every span: unattributed
    selfs = led.self_times(wall=clock.now)
    assert selfs["sim"] == 1.5
    assert selfs["device"] == 2.0
    assert selfs["somier"] == 4.0
    assert selfs["unattributed"] == 3.0
    assert sum(selfs.values()) == clock.now


def test_out_of_order_close_is_an_error():
    led = Ledger(FakeClock())
    first = led.open("sim.run")
    led.open("device.kernel")
    with pytest.raises(RuntimeError):
        led.close(first)


def test_generator_spans_cover_each_resume():
    clock = FakeClock()
    led = Ledger(clock)

    def gen():
        clock.tick(1.0)
        got = yield "a"
        clock.tick(2.0 * got)
        return "done"

    def outer():
        result = yield from TimedGen(led, gen(), "spread.launch")
        return result

    d = outer()
    assert next(d) == "a"
    clock.tick(10.0)   # between resumes: not the generator's time
    with pytest.raises(StopIteration) as stop:
        d.send(3)
    assert stop.value.value == "done"
    assert led.calls["spread.launch"] == 2
    assert led.inclusive["spread.launch"] == 7.0


def test_install_patches_from_imports_and_uninstall_restores():
    impl = importlib.import_module("repro.somier.impl_one_buffer")
    spread_data = importlib.import_module("repro.spread.spread_data")
    engine = importlib.import_module("repro.sim.engine")
    before = (impl.target_enter_data_spread,
              spread_data.target_enter_data_spread,
              engine.Simulator.run, engine.Simulator.run_work)
    led = Ledger()
    led.install()
    try:
        assert impl.target_enter_data_spread is not before[0]
        assert (impl.target_enter_data_spread
                is spread_data.target_enter_data_spread)
        assert engine.Simulator.run is not before[2]
        with pytest.raises(RuntimeError):
            led.install()
    finally:
        led.uninstall()
    after = (impl.target_enter_data_spread,
             spread_data.target_enter_data_spread,
             engine.Simulator.run, engine.Simulator.run_work)
    assert all(a is b for a, b in zip(before, after))


def _assert_ledger_adds_up(metrics):
    total = (sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
             + metrics["trace.unattributed_s"])
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0


def test_traced_somier_run_adds_up_and_reports_every_metric():
    wl = harness.SOMIER_WORKLOADS["somier-small"]
    golden = harness.load_golden()
    untraced = harness.measure_somier(wl, 0.0, golden)
    metrics, rep, spans = harness.trace_somier(wl, untraced, golden)
    assert rep.problems == []
    _assert_ledger_adds_up(metrics)
    assert set(metrics) == {name for name, _, _ in ledger.PER_LAYER}
    assert metrics["spread.launches"] > 0
    assert metrics["sim.events_dispatched"] > 0
    assert metrics["somier.kernel_calls"] == metrics[
        "device.kernels_launched"]
    assert len(spans["spans"]) == metrics["trace.spans"]
    names = spans["names"]
    assert [names[row[0]] for row in spans["spans"]].count("somier.run") == 1


def test_traced_lint_run_adds_up():
    golden = harness.load_golden()
    inputs = harness.lint_inputs(seed=0, seconds=0.1, golden=golden)
    untraced = harness.measure_lint(inputs)
    metrics, run, _ = harness.trace_lint(inputs, untraced, programs=4)
    assert run.problems == []
    _assert_ledger_adds_up(metrics)
    assert metrics["pragma.parse_calls"] > 0
    assert metrics["analysis.sanitizer_checks"] > 0
    assert metrics["analysis.unsound"] == 0
