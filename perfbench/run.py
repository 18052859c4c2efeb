"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload somier-small --seed 0 \\
        --seconds 10 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` repeats the untraced measurement, then makes one
traced run and prints the per-layer metrics, writing its spans to
``perfbench/out/``.  The last line of standard output is the result
object; the line before it records the host and run details.  The exit
status is non-zero when the program under test (``src/repro``) is
missing or no run completed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


def strip_repro_env(environ=os.environ):
    """Remove every ``REPRO_*`` variable; returns the names removed.

    The package reads these knobs wherever a caller leaves one at ``None``
    (``diffcheck.execute_source`` builds its runtimes that way), so
    passing arguments alone cannot keep a stray knob out of a run.
    """
    names = sorted(k for k in environ if k.startswith("REPRO_"))
    for name in names:
        del environ[name]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and set-up in this process, "
                             "print the seconds and exit")
    return parser.parse_args(argv)


def measure_setup(harness, args):
    """Median set-up time over fresh processes: imports, machine, config
    and input generation, up to the first timed call.  Returns it in
    reference-speed seconds (each process calibrates after its set-up)
    and in host seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, env=os.environ, check=True,
                              capture_output=True, text=True, timeout=120)
        setup_s, calibration_s = map(
            float, done.stdout.strip().splitlines()[-1].split())
        raw.append(setup_s)
        scaled.append(setup_s * harness.REFERENCE_CALIBRATION_S
                      / calibration_s)
    return statistics.median(scaled), statistics.median(raw)


def somier_result(harness, wl, args, golden):
    run = harness.measure_somier(wl, args.seconds, golden)
    reps = list(run.reps)
    detail = {"reps": len(run.reps), "steps_per_rep": wl.steps,
              "step_samples": sum(len(r.step_ms) for r in run.reps),
              "virtual_s": run.elapsed}
    if not run.reps:
        return None, run.errors, len(run.errors), len(run.errors), detail, None
    detail["host_seconds"] = harness.somier_metrics(wl, run, normalize=False)
    detail["scale"] = statistics.median(rep.scale for rep in run.reps)
    if args.trace:
        metrics, trep, spans = harness.trace_somier(wl, run, golden)
        reps.append(trep)
    else:
        metrics, spans = harness.somier_metrics(wl, run), None
    problems = [p for rep in reps for p in rep.problems] + run.errors
    attempted = len(reps) + len(run.errors)
    failed = sum(1 for rep in reps if rep.problems) + len(run.errors)
    return metrics, problems, attempted, failed, detail, spans


def lint_result(harness, args, golden):
    inputs = harness.lint_inputs(args.seed, args.seconds, golden)
    run = harness.measure_lint(inputs)
    detail = {"programs": len(inputs.seeds),
              "first_program_seed": inputs.seeds[0],
              "latency_samples": len(run.latencies_ms),
              "unsound_seeds": run.unsound_seeds,
              "imprecise": run.imprecise}
    if not run.latencies_ms:
        return None, run.problems, run.failed, run.failed, detail, None
    detail["host_seconds"] = harness.lint_metrics(run, normalize=False)
    detail["scale"] = statistics.median(run.scales)
    problems, attempted, failed = (list(run.problems), len(inputs.seeds),
                                   run.failed)
    if args.trace:
        metrics, trun, spans = harness.trace_lint(inputs, run)
        problems += trun.problems
        attempted += min(harness.TRACED_PROGRAMS, len(inputs.seeds))
        failed += trun.failed
    else:
        metrics, spans = harness.lint_metrics(run), None
    return metrics, problems, attempted, failed, detail, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    removed = strip_repro_env()
    sys.path.insert(0, str(SRC))
    import harness
    import ledger
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(harness.WORKLOAD_NAMES)})",
              file=sys.stderr)
        return 2
    if args.setup_only:
        harness.prepare(args.workload, args.seed, args.seconds)
        print(time.perf_counter() - _START, harness.calibrate())
        return 0

    setup_s, setup_host_s = ((None, None) if args.trace
                             else measure_setup(harness, args))
    golden = harness.load_golden()
    if args.workload == harness.LINT_WORKLOAD:
        outcome = lint_result(harness, args, golden)
    else:
        outcome = somier_result(
            harness, harness.SOMIER_WORKLOADS[args.workload], args, golden)
    metrics, problems, attempted, failed, detail, spans = outcome
    if setup_host_s is not None and "host_seconds" in detail:
        detail["host_seconds"]["setup_s"] = setup_host_s
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": harness.host_info(), "env_removed": removed,
            "detail": detail, "problems": problems[:10]}
    print(json.dumps(info))
    if metrics is None:
        print("error: no run completed", file=sys.stderr)
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, **spans}))
        units = {name: unit for name, unit, _ in ledger.PER_LAYER}
    else:
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
