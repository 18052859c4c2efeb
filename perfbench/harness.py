"""Workloads of the repository benchmark: set-up, timed runs, output checks.

Every Somier workload runs the One Buffer implementation serially
(``workers=1``, trace off) on a machine built by
:func:`repro.bench.machines.machine_for_spec` and passed in explicitly.
A timed run repeats exactly, so the Somier workloads ignore the seed.
``lint-fuzz`` checks generated programs whose seeds derive from the
benchmark seed; see README.md for why each workload exists.

The caller must strip ``REPRO_*`` variables from the environment first
(``run.strip_repro_env``): several knobs left at ``None`` here, and every
runtime ``diffcheck.execute_source`` builds, read them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import diffcheck
from repro.bench.machines import machine_for_spec
from repro.device.memory import Allocation
from repro.obs.report import Profiler
from repro.somier.config import SomierConfig
from repro.somier import driver
from repro.somier.driver import SomierResult
from repro.somier.reference import run_reference
from repro.somier.state import GRID_NAMES, SomierState

import ledger as ledger_mod

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: modelled statistics pinned per Somier workload (virtual time separately)
PINNED_STATS = ("h2d_bytes", "d2h_bytes", "memcpy_calls", "kernels_launched")

#: fewest timed repetitions a Somier run makes, however long each takes
MIN_REPS = 3

#: Duration of :func:`calibrate` that defines a reference-speed second.
#: The host's speed drifts by tens of percent over minutes on a shared
#: 2-core VM, so every timing is scaled by REFERENCE_CALIBRATION_S over
#: the calibration measured next to it (see README.md).
REFERENCE_CALIBRATION_S = 0.005

#: lint-fuzz programs timed between two calibrations
CALIBRATION_BLOCK = 10

#: name of the workload that checks generated programs
LINT_WORKLOAD = "lint-fuzz"

#: lint-fuzz programs checked per second of ``--seconds`` (sized on a
#: 2-core host)
PROGRAMS_PER_SECOND = 40

#: lint-fuzz programs in the traced pass of a ``--trace 1`` run
TRACED_PROGRAMS = 100

#: operand and output of the NumPy calibration kernel, preallocated so
#: that calibrating allocates nothing (it must not move peak RSS)
_CALIBRATION_GRID = np.ones((12, 96, 96))
_CALIBRATION_OUT = np.empty((11, 96, 96))


@dataclass(frozen=True)
class SomierWorkload:
    name: str
    machine: str
    n: int
    steps: int
    devices: Optional[Tuple[int, ...]] = None
    #: drive it the way ``repro stats`` does (tools, analyzer, report)
    observed: bool = False


SOMIER_WORKLOADS = {
    wl.name: wl for wl in (
        SomierWorkload("somier-small", "cte-power:4", n=24, steps=12,
                       devices=(1, 0, 3, 2)),
        SomierWorkload("somier-large", "cte-power:4", n=96, steps=4),
        SomierWorkload("somier-cluster", "cluster:16x4", n=48, steps=6),
        SomierWorkload("somier-observed", "cte-power:4", n=24, steps=12,
                       devices=(1, 0, 3, 2), observed=True),
    )
}

WORKLOAD_NAMES = (*SOMIER_WORKLOADS, LINT_WORKLOAD)


# -- environment and host -------------------------------------------------------


def host_info() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine()}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (``VmHWM``) at the current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _python_loop() -> None:
    total = 0
    for i in range(50_000):
        total += i * i % 7


def _numpy_stencil() -> None:
    grid, out = _CALIBRATION_GRID, _CALIBRATION_OUT
    for _ in range(10):
        np.subtract(grid[1:], grid[:-1], out=out)
        np.multiply(out, out, out=out)
        out += 1.0
        np.sqrt(out, out=out)


def calibrate() -> float:
    """The host's current speed, from code that uses nothing of the
    program under test: the geometric mean of a pure-Python loop and a
    NumPy stencil-like kernel (the simulator's two kinds of work), each
    the faster of two timings."""
    times = []
    for kernel in (_python_loop, _numpy_stencil):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        times.append(best)
    return math.sqrt(times[0] * times[1])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (q in 10..90, a multiple of 10)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[q // 10 - 1])


# -- Somier ------------------------------------------------------------------------


@dataclass
class SomierInputs:
    topology: object
    cost_model: object
    config: SomierConfig


def somier_inputs(wl: SomierWorkload) -> SomierInputs:
    """The machine and configuration; ``run_somier`` builds the state."""
    topology, cost_model = machine_for_spec(wl.machine, n_functional=wl.n)
    return SomierInputs(topology, cost_model,
                        SomierConfig(n=wl.n, steps=wl.steps))


@contextmanager
def step_clock(marks: List[float]) -> Iterator[None]:
    """Append ``perf_counter()`` to *marks* at the end of every Somier time
    step (the implementations call ``record_centers`` once per step)."""
    original = SomierState.record_centers

    def record_centers(state):
        original(state)
        marks.append(time.perf_counter())

    SomierState.record_centers = record_centers
    try:
        yield
    finally:
        SomierState.record_centers = original


def run_somier_once(wl: SomierWorkload, inputs: SomierInputs
                    ) -> SomierResult:
    """One timed Somier run; the observed workload also builds the report
    and the critical-path headline, as ``repro stats --json`` does.

    ``run_somier`` is called through its module so that the traced run's
    wrapper on it records a span.
    """
    devices = list(wl.devices) if wl.devices is not None else None
    if not wl.observed:
        return driver.run_somier("one_buffer", inputs.config,
                                 devices=devices, topology=inputs.topology,
                                 cost_model=inputs.cost_model,
                                 workers=1, trace=False)
    prof = Profiler()
    result = driver.run_somier("one_buffer", inputs.config, devices=devices,
                               topology=inputs.topology,
                               cost_model=inputs.cost_model,
                               workers=1, trace=False, analyze=True,
                               tools=prof.tools)
    analysis = result.runtime.analysis()
    report = prof.report(makespan=result.elapsed,
                         critpath=analysis.headline())
    report.to_json(indent=2)
    return result


def state_digest(state: SomierState) -> Dict[str, str]:
    """Digests of the final host grids, the partials and the centers."""
    arrays = {name: state.grids[name] for name in GRID_NAMES}
    arrays["partials"] = state.partials
    arrays["centers"] = np.array(state.centers)
    return {name: hashlib.blake2b(np.ascontiguousarray(arr)).hexdigest()
            for name, arr in arrays.items()}


def reference_digest(config: SomierConfig, buffers) -> Dict[str, str]:
    """The sequential reference over the run's buffer plan."""
    state = SomierState(config)
    run_reference(state, buffers)
    return state_digest(state)


def somier_modelled(result: SomierResult) -> Dict[str, float]:
    """The modelled statistics the output check pins."""
    out = {"elapsed": result.elapsed}
    out.update({k: result.stats[k] for k in PINNED_STATS})
    out["network_bytes"] = sum(d.net_bytes for d in result.runtime.devices)
    return out


def check_somier(wl: SomierWorkload, golden: dict, result: SomierResult,
                 reference: Dict[str, str]) -> List[str]:
    """Problems with one run's outputs; empty when they are correct.

    Host arrays must equal the sequential reference bitwise, and the
    modelled statistics must equal the values recorded at the commit that
    defined the benchmark.  Simulator-internal counters (tasks, engine
    events, fused segments, cache hits) are not pinned: optimisations
    legitimately move them.
    """
    problems = []
    got = state_digest(result.state)
    for name, digest in reference.items():
        if got.get(name) != digest:
            problems.append(f"{name} differs from the sequential reference")
    expected = golden["somier"][wl.name]
    for key, value in somier_modelled(result).items():
        if value != expected[key]:
            problems.append(f"{key} = {value!r}, expected {expected[key]!r}")
    if wl.observed:
        plain = golden["somier"]["somier-small"]["elapsed"]
        if result.elapsed != plain:
            problems.append(f"observed virtual time {result.elapsed!r} "
                            f"differs from the plain run's {plain!r}")
    return problems


@dataclass
class Rep:
    wall_s: float
    step_ms: List[float]
    peak_mb: float
    problems: List[str]
    #: host seconds to reference-speed seconds, from calibrations taken
    #: just before and just after the run
    scale: float = 1.0


@dataclass
class SomierRun:
    reps: List[Rep] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    elapsed: Optional[float] = None
    reference: Optional[Dict[str, str]] = None


def somier_rep(wl: SomierWorkload, golden: dict,
               reference: Optional[Dict[str, str]]
               ) -> Tuple[Rep, SomierResult, Dict[str, str]]:
    """One timed repetition with its output check (outside the timing).

    Returns the rep, the result (for callers that read counters from it)
    and the reference digest, computed on the first call.
    """
    inputs = somier_inputs(wl)
    gc.collect()
    before = calibrate()
    reset_peak_rss()
    marks: List[float] = []
    with step_clock(marks):
        start = time.perf_counter()
        result = run_somier_once(wl, inputs)
        wall = time.perf_counter() - start
    peak = peak_rss_mb()
    scale = REFERENCE_CALIBRATION_S / ((before + calibrate()) / 2)
    if reference is None:
        reference = reference_digest(inputs.config, result.plan.buffers)
    problems = check_somier(wl, golden, result, reference)
    if len(marks) != wl.steps:
        problems.append(f"{len(marks)} steps recorded, expected {wl.steps}")
    bounds = [start] + marks
    step_ms = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    return Rep(wall, step_ms, peak, problems, scale), result, reference


def measure_somier(wl: SomierWorkload, seconds: float,
                   golden: dict) -> SomierRun:
    """Repeat the workload until *seconds* of timed runs (and at least
    :data:`MIN_REPS`) have been measured."""
    run = SomierRun()
    timed = 0.0
    while len(run.reps) < MIN_REPS or timed < seconds:
        try:
            rep, result, run.reference = somier_rep(wl, golden,
                                                    run.reference)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            run.errors.append(f"{type(exc).__name__}: {exc}")
            if len(run.errors) >= MIN_REPS:
                break
            continue
        run.elapsed = result.elapsed
        del result
        run.reps.append(rep)
        timed += rep.wall_s
    return run


def somier_metrics(wl: SomierWorkload, run: SomierRun,
                   normalize: bool = True) -> Dict[str, float]:
    """End-to-end metrics in reference-speed seconds, or in host seconds
    with ``normalize=False``."""
    scales = [rep.scale if normalize else 1.0 for rep in run.reps]
    rates = [wl.steps / (rep.wall_s * k) for rep, k in zip(run.reps, scales)]
    steps = [ms * k for rep, k in zip(run.reps, scales) for ms in rep.step_ms]
    return {
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": quantile(steps, 50),
        "op_ms_p90": quantile(steps, 90),
        "peak_rss_mb": statistics.median(rep.peak_mb for rep in run.reps),
    }


def live_allocations() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Allocation))


def trace_somier(wl: SomierWorkload, untraced: SomierRun, golden: dict
                 ) -> Tuple[Dict[str, float], Rep, Dict[str, object]]:
    """One traced repetition after the *untraced* ones; returns the
    per-layer metrics, the rep and the spans to write out."""
    led = ledger_mod.Ledger()
    led.install()
    try:
        # The untraced runs computed the reference (it runs the kernel
        # bodies), which keeps it out of the trace.
        rep, result, _ = somier_rep(wl, golden, untraced.reference)
    finally:
        led.uninstall()
    led.add_runtime(result.runtime)
    extra = {"device.live_allocations": live_allocations(),
             "analysis.imprecise": 0, "analysis.unsound": 0}
    del result
    ratio = rep.wall_s * rep.scale / statistics.median(
        r.wall_s * r.scale for r in untraced.reps)
    metrics = ledger_mod.layer_metrics(led, rep.wall_s, ratio, extra)
    return metrics, rep, led.export(rep.wall_s)


# -- lint-fuzz ---------------------------------------------------------------------


def lint_window(seed: int, count: int, table_size: int) -> List[int]:
    """Program seeds of one run: ``seed + i`` for ``i < count``, wrapped
    into the pinned table so that every program has recorded expected
    outcomes."""
    return [(seed + i) % table_size for i in range(count)]


@dataclass
class LintInputs:
    seeds: List[int]
    sources: List[str]
    expected: List[list]


def lint_inputs(seed: int, seconds: float, golden: dict) -> LintInputs:
    table = golden["lint"]
    count = max(1, int(round(PROGRAMS_PER_SECOND * seconds)))
    seeds = lint_window(seed, count, len(table["programs"]))
    sources = [diffcheck.generate_program(s) for s in seeds]
    expected = [table["patterns"][table["programs"][s]] for s in seeds]
    return LintInputs(seeds, sources, expected)


def lint_outcomes(result: diffcheck.ProgramResult) -> list:
    """Per shape: the linter's error codes and race codes (sorted), the
    sanitizer's race count and the runtime error's type."""
    return [[sorted(o.lint_errors), sorted(o.lint_races), o.runtime_races,
             o.runtime_error.split(":", 1)[0] if o.runtime_error else None]
            for o in result.outcomes]


def check_lint(expected: list, result: diffcheck.ProgramResult
               ) -> List[str]:
    """A ``runtime_error`` is an expected verdict, not a failure; an
    unsound verdict (lint-clean, yet the runtime raced or raised) and
    outcomes that differ from the pinned ones are."""
    problems = []
    if result.unsound:
        problems.append(f"seed {result.seed}: unsound lint verdict")
    got = lint_outcomes(result)
    if got != expected:
        problems.append(f"seed {result.seed}: outcomes {got}, "
                        f"expected {expected}")
    return problems


@dataclass
class LintRun:
    latencies_ms: List[float] = field(default_factory=list)
    #: per latency: host seconds to reference-speed seconds
    scales: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    #: seeds whose lint verdict was unsound
    unsound_seeds: List[int] = field(default_factory=list)
    imprecise: int = 0
    peak_mb: float = 0.0


def measure_lint(inputs: LintInputs) -> LintRun:
    """Check each program at the default shapes, timing each call, with a
    calibration after every :data:`CALIBRATION_BLOCK` programs."""
    run = LintRun()
    items = list(zip(inputs.seeds, inputs.sources, inputs.expected))
    gc.collect()
    before = calibrate()
    for first in range(0, len(items), CALIBRATION_BLOCK):
        block = items[first:first + CALIBRATION_BLOCK]
        reset_peak_rss()
        for seed, source, expected in block:
            start = time.perf_counter()
            try:
                result = diffcheck.check_program(source, seed=seed)
            except Exception as exc:  # noqa: BLE001 - a failed op
                result = None
                problems = [f"seed {seed}: {type(exc).__name__}: {exc}"]
            run.latencies_ms.append((time.perf_counter() - start) * 1e3)
            if result is not None:
                problems = check_lint(expected, result)
                if result.unsound:
                    run.unsound_seeds.append(seed)
                run.imprecise += result.imprecise
            if problems:
                run.failed += 1
                run.problems.extend(problems)
        run.peak_mb = max(run.peak_mb, peak_rss_mb())
        after = calibrate()
        run.scales += [REFERENCE_CALIBRATION_S / ((before + after) / 2)
                       ] * len(block)
        before = after
    return run


def lint_metrics(run: LintRun, normalize: bool = True) -> Dict[str, float]:
    """End-to-end metrics in reference-speed seconds, or in host seconds
    with ``normalize=False``."""
    lat = [ms * (k if normalize else 1.0)
           for ms, k in zip(run.latencies_ms, run.scales)]
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_ms_p50": quantile(lat, 50),
        "op_ms_p90": quantile(lat, 90),
        "peak_rss_mb": run.peak_mb,
    }


def trace_lint(inputs: LintInputs, untraced: LintRun,
               programs: int = TRACED_PROGRAMS
               ) -> Tuple[Dict[str, float], LintRun, Dict[str, object]]:
    """The traced pass over the first *programs* of the window."""
    count = min(programs, len(inputs.seeds))
    led = ledger_mod.Ledger()
    results = []
    before = calibrate()
    led.install()
    try:
        start = time.perf_counter()
        for seed, source in zip(inputs.seeds[:count],
                                inputs.sources[:count]):
            results.append(diffcheck.check_program(source, seed=seed))
        wall = time.perf_counter() - start
    finally:
        led.uninstall()
    scale = REFERENCE_CALIBRATION_S / ((before + calibrate()) / 2)
    run = LintRun()
    for expected, result in zip(inputs.expected, results):
        problems = check_lint(expected, result)
        run.failed += bool(problems)
        run.problems.extend(problems)
    untraced_s = sum(ms * k for ms, k in zip(untraced.latencies_ms[:count],
                                             untraced.scales)) / 1e3
    extra = {"device.live_allocations": live_allocations(),
             "analysis.imprecise": untraced.imprecise,
             "analysis.unsound": len(untraced.unsound_seeds)}
    metrics = ledger_mod.layer_metrics(led, wall, wall * scale / untraced_s,
                                       extra)
    return metrics, run, led.export(wall)


# -- set-up ------------------------------------------------------------------------


def prepare(name: str, seed: int, seconds: float):
    """Everything a run builds before its first timed call."""
    if name == LINT_WORKLOAD:
        return lint_inputs(seed, seconds, load_golden())
    return somier_inputs(SOMIER_WORKLOADS[name])
