"""Smoke test of the benchmark itself: very short runs of every workload.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that ``ok_frac`` is 1.0, that layer self times plus the ``unattributed``
residuals equal the traced op totals (within 1%), and that the selector picks
Workflow-Huffman on every ``dense`` op and Workflow-RLE on most ``sparse``
ops. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            metrics = result["metrics"]
            label = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct={result['correct']} failed={result['failed']}")
            check({k: v["unit"] for k, v in metrics.items()} == declared[trace],
                  f"{label}: metric names/units differ from BENCHMARK.json")
            value = {k: v["value"] for k, v in metrics.items()}
            if trace == 0:
                check(value["ok_frac"] == 1.0, f"{label}: ok_frac {value['ok_frac']} != 1")
            elif workload == "service":
                check(value["engine.jobs"] > 0, f"{label}: no engine jobs seen")
            else:
                check_layers(label, workload, value)
            print(f"ok {label}")
    return 0


def check_layers(label: str, workload: str, value: dict) -> None:
    """Layer self times plus residuals equal the traced totals; the selector
    picks Huffman on every dense op and RLE on most sparse ops."""
    layers = sum(v for k, v in value.items() if k.endswith(".self_s"))
    residual = value["compress.unattributed_s"] + value["decompress.unattributed_s"]
    total = value["compress.traced_s"] + value["decompress.traced_s"]
    check(residual >= 0, f"{label}: negative residual {residual}")
    check(abs(layers + residual - total) <= 0.01 * total,
          f"{label}: layers {layers} + residual {residual} != total {total}")
    share = value["selector.rle_share"]
    if workload == "dense":
        check(share == 0.0, f"{label}: selector picked RLE on {share:.0%} of ops")
    else:
        check(share > 0.5, f"{label}: selector picked RLE on only {share:.0%} of ops")


if __name__ == "__main__":
    sys.exit(main())
