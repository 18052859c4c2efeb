"""Record the pinned outputs the benchmark's checks compare against.

    python3 perfbench/record_golden.py [--programs 5000]

Writes ``perfbench/golden.json``:

* ``somier``: per Somier workload, the modelled statistics of one run —
  virtual time, H2D/D2H bytes, memcpy calls, kernels launched, network
  bytes.  They depend only on the cost model and the directives, so a
  change meant to speed up the simulator must leave them identical.
* ``lint``: for generator seeds ``0 .. programs-1``, per default shape, the
  linter's error and race codes, the sanitizer's race count and the
  runtime error's type, stored as an index into a list of distinct outcome
  patterns.  Seeds whose lint verdict is unsound are printed: the
  benchmark fails every run that checks one of them.

Run it only when the benchmark's definition changes, at a commit whose
outputs are known good, with no ``REPRO_*`` variables set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from run import strip_repro_env  # noqa: E402
from repro.analysis import diffcheck  # noqa: E402


def record(programs: int) -> dict:
    somier = {}
    for wl in harness.SOMIER_WORKLOADS.values():
        result = harness.run_somier_once(wl, harness.somier_inputs(wl))
        somier[wl.name] = harness.somier_modelled(result)
    patterns: list = []
    index = []
    unsound = []
    for seed in range(programs):
        result = diffcheck.check_program(diffcheck.generate_program(seed),
                                         seed=seed)
        if result.unsound:
            unsound.append(seed)
        outcome = harness.lint_outcomes(result)
        if outcome not in patterns:
            patterns.append(outcome)
        index.append(patterns.index(outcome))
    return {"somier": somier,
            "lint": {"shapes": list(diffcheck.DEFAULT_SHAPES),
                     "patterns": patterns, "programs": index}}, unsound


def render(golden: dict) -> str:
    """Indented Somier values; one line per lint outcome pattern."""
    lint = golden["lint"]
    patterns = ",\n  ".join(json.dumps(p) for p in lint["patterns"])
    return (f'{{"somier": {json.dumps(golden["somier"], indent=1)},\n'
            f' "lint": {{"shapes": {json.dumps(lint["shapes"])},\n'
            f' "patterns": [\n  {patterns}],\n'
            f' "programs": {json.dumps(lint["programs"])}}}}}\n')


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--programs", type=int, default=5000)
    args = parser.parse_args()
    removed = strip_repro_env()
    if removed:
        print(f"ignoring {', '.join(removed)}", file=sys.stderr)
    golden, unsound = record(args.programs)
    harness.GOLDEN_PATH.write_text(render(golden))
    print(f"wrote {harness.GOLDEN_PATH} "
          f"({len(golden['lint']['patterns'])} lint outcome patterns; "
          f"unsound lint verdicts at generator seeds {unsound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
