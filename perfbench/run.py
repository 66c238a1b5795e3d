"""Benchmark of the repro library and its HTTP service.

    python3 perfbench/run.py --workload dense|sparse|service --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the per-layer breakdown instead. The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is the full record, which is also written to
``.perfbench/``. The exit code is 1 when any output was wrong and 2 when the
library cannot be found. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense", "sparse", "service")
OUT_DIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer breakdown instead of end-to-end metrics")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # SIGTERM unwinds like an exception, so every started process is stopped
    # and waited for on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run the benchmark "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.time()

    from metric_defs import END_TO_END, PER_LAYER
    from repro.bench.record import environment_fingerprint

    from layer_trace import last_level_cache_bytes

    if args.workload == "service":
        import service_workload

        outcome = service_workload.run(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        import library_workload

        outcome = library_workload.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), ROOT)

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.time() - started,
        "environment": {**environment_fingerprint(), "llc_bytes": last_level_cache_bytes(),
                        "seed": args.seed},
        "metrics": metrics,
        # Layers that do no work in this workload report 0.
        "not_applicable": missing,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "details": outcome.details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if outcome.tracer is not None:
        outcome.tracer.write(OUT_DIR / f"{tag}.spans.jsonl")
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
