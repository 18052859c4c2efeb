"""The benchmark's output checks, failure accounting and hermeticity."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import ledger
from repro.analysis import diffcheck

BENCH = harness.GOLDEN_PATH.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def golden():
    return harness.load_golden()


@pytest.fixture(scope="module")
def small_run():
    """One somier-small run with the reference digest of its plan."""
    wl = harness.SOMIER_WORKLOADS["somier-small"]
    inputs = harness.somier_inputs(wl)
    result = harness.run_somier_once(wl, inputs)
    reference = harness.reference_digest(inputs.config, result.plan.buffers)
    return wl, result, reference


def test_correct_run_passes(golden, small_run):
    wl, result, reference = small_run
    assert harness.check_somier(wl, golden, result, reference) == []


def test_one_ulp_change_to_a_grid_fails(golden, small_run):
    wl, result, reference = small_run
    grid = result.state.grids["vel_z"]
    idx = (wl.n // 2, wl.n // 2, wl.n // 2)
    original = grid[idx]
    grid[idx] = np.nextafter(original, np.inf)
    try:
        problems = harness.check_somier(wl, golden, result, reference)
    finally:
        grid[idx] = original
    assert problems == ["vel_z differs from the sequential reference"]


def test_injected_faults_fail_the_modelled_time_check(golden):
    wl = harness.SOMIER_WORKLOADS["somier-small"]
    inputs = harness.somier_inputs(wl)
    result = harness.driver.run_somier(
        "one_buffer", inputs.config, devices=list(wl.devices),
        topology=inputs.topology, cost_model=inputs.cost_model,
        workers=1, trace=False, faults="transfer:0.05")
    reference = harness.reference_digest(inputs.config, result.plan.buffers)
    problems = harness.check_somier(wl, golden, result, reference)
    assert any(p.startswith("elapsed") for p in problems)


def _run_bench(workload, env, cwd=ROOT, seconds="0.1", trace="0"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


#: one non-default value of every knob the CI legs set
CI_LEG_ENV = {"REPRO_WORKERS": "4", "REPRO_FAULTS": "transfer:0.05",
              "REPRO_SANITIZE": "1", "REPRO_ANALYZE": "1",
              "REPRO_MACRO_OPS": "0", "REPRO_FUSED_TIMELINE": "0",
              "REPRO_MACHINE": "cluster:2x2"}


@pytest.mark.parametrize("workload", ["somier-small", "lint-fuzz"])
def test_outer_repro_knobs_leave_the_benchmark_unaffected(golden, workload):
    done = _run_bench(workload, dict(os.environ, **CI_LEG_ENV))
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line)
                    for line in done.stdout.strip().splitlines()[-2:])
    assert info["env_removed"] == sorted(CI_LEG_ENV)
    if workload == "somier-small":
        assert info["detail"]["virtual_s"] == (
            golden["somier"]["somier-small"]["elapsed"])
    assert result["correct"] is True and result["failed"] == 0


def test_result_line_has_every_end_to_end_metric():
    done = _run_bench("lint-fuzz", dict(os.environ))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_spec_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([w["name"] for w in spec["workloads"]]
            == list(harness.WORKLOAD_NAMES))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in ledger.PER_LAYER]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_bench("somier-small", dict(os.environ), cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _checked(seed):
    return diffcheck.check_program(diffcheck.generate_program(seed),
                                   seed=seed)


def _pinned(golden, seed):
    table = golden["lint"]
    return table["patterns"][table["programs"][seed]]


def test_runtime_error_is_a_verdict_not_a_failure(golden):
    seed = 3
    result = _checked(seed)
    errors = [o.runtime_error for o in result.outcomes]
    assert all(errors), "seed 3 raises at every default shape"
    expected = _pinned(golden, seed)
    assert harness.check_lint(expected, result) == []
    tampered = [list(o) for o in expected]
    tampered[0][3] = "OmpMappingError"
    assert harness.check_lint(tampered, result) != []


@pytest.mark.parametrize("tamper", ["rename_error", "add_error", "add_race"])
def test_changed_lint_verdict_fails(golden, tamper):
    seed = 3
    result = _checked(seed)
    outcome = result.outcomes[2]
    assert outcome.lint_errors == ["SL401"]
    if tamper == "rename_error":
        outcome.lint_errors = ["SL402"]
    elif tamper == "add_error":
        outcome.lint_errors = outcome.lint_errors + ["SL201"]
    else:
        outcome.lint_races = outcome.lint_races + ["SL301"]
    problems = harness.check_lint(_pinned(golden, seed), result)
    assert any(p.startswith(f"seed {seed}: outcomes") for p in problems)


def test_unsound_verdict_is_a_failure(golden):
    seed = 3
    result = _checked(seed)
    for outcome in result.outcomes:
        outcome.lint_errors = []   # lint-clean, yet the runtime raised
    assert result.unsound
    problems = harness.check_lint(_pinned(golden, seed), result)
    assert problems[0] == f"seed {seed}: unsound lint verdict"


def test_lint_window_is_deterministic_and_stays_in_the_table():
    first = harness.lint_window(7, 500, 5000)
    assert first == harness.lint_window(7, 500, 5000)
    assert first == list(range(7, 507))
    assert harness.lint_window(4800, 500, 5000)[-1] == 299
