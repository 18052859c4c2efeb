#!/usr/bin/env python
"""Event-engine microbenchmark: calendar-queue throughput in events/s.

Times the :class:`repro.sim.engine.Simulator` dispatch loop directly —
no devices, no directives — over the two workload shapes that bracket a
calendar queue: every event at a distinct timestamp (one heap operation
per event) and many events tied to few timestamps (a whole bucket drains
per heap operation).  Optionally merges the result into an existing
``BENCH_wallclock.json`` under its ``engine`` key::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py \
        --events 200000 --merge BENCH_wallclock.json

See ``docs/performance.md`` ("Fused-timeline engine") for how to read
the output.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.wallclock import engine_microbench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, default=50000,
                    help="total timeout events per arm")
    ap.add_argument("--procs", type=int, default=16,
                    help="concurrent generator processes")
    ap.add_argument("--repeats", type=int, default=5,
                    help="repeats per arm (min is reported)")
    ap.add_argument("--merge", metavar="JSON", default=None,
                    help="merge the result into this BENCH_wallclock.json "
                         "under the 'engine' key")
    args = ap.parse_args(argv)

    eng = engine_microbench(events=args.events, procs=args.procs,
                            repeats=args.repeats)
    print(f"distinct-time: {eng['seq_events_per_s']:.2e} events/s "
          f"(mean batch {eng['seq_mean_batch']:.2f})")
    print(f"tied-time:     {eng['tie_events_per_s']:.2e} events/s "
          f"(mean batch {eng['tie_mean_batch']:.1f}, "
          f"{eng['tie_speedup']:.2f}x vs distinct)")
    print(f"timeout freelist reuse: {eng['timeout_reuse_frac']:.1%}")

    if args.merge:
        with open(args.merge) as f:
            payload = json.load(f)
        payload["engine"] = eng
        with open(args.merge, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"merged into {args.merge}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
