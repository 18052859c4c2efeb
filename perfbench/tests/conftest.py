"""Make the benchmark modules and the package under test importable, and
run every test with the ``REPRO_*`` knobs removed, as the benchmark does."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from run import strip_repro_env  # noqa: E402

strip_repro_env()
