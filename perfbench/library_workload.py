"""The ``dense`` and ``sparse`` workloads: single-threaded library calls.

Each pass compresses and then decompresses every field of a fixed set once,
in the caller's thread with no engine. Every field in a set has the same
byte size (2 MiB of float32), so the per-call latency distribution holds one
op class of one size.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import repro
from metric_defs import PER_LAYER, Outcome, median, own_peak_rss_mb, tail
from layer_trace import OPS, Tracer, last_level_cache_bytes, memcpy_gbps
from repro.analysis.metrics import psnr
from repro.data import synthetic as syn

#: Field set per workload: (error-bound mode, bound, [(name, generator)]).
#: ``dense`` is high-entropy data at a tight bound, where the selector picks
#: Workflow-Huffman; ``sparse`` is mostly-quiescent data at a loose bound,
#: where it picks Workflow-RLE. The sparse bound is absolute so the step does
#: not follow the field's maximum, which varies with the seed.
FIELD_SETS = {
    "dense": ("rel", 1e-4, (
        ("smooth-1d", lambda rng: syn.smooth_field((524288,), 48.0, rng, detail_amp=0.05)),
        ("smooth-2d", lambda rng: syn.smooth_field((512, 1024), 3.0, rng, detail_amp=0.05)),
        ("shock-3d", lambda rng: syn.shock_field((64, 64, 128), 4.0, 3.0, rng)),
    )),
    "sparse": ("abs", 1e-2, (
        ("wavefront-1d", lambda rng: np.concatenate([  # 8 shot records of 64 Ki samples
            syn.wave_snapshot((65536,), 64.0, rng, shell_width=0.01) for _ in range(8)])),
        ("plume-2d", lambda rng: syn.plume_field((512, 1024), 64, 6.0, rng)),
        ("plateau-3d", lambda rng: syn.plateau_field((64, 64, 128), 12, 4, rng)),
    )),
}

#: Percentile reported as ``latency_tail_ms``, per workload. Fixed, so every
#: run and commit reports the same statistic; chosen from the compress calls
#: a 25-second run makes (about 90 on ``dense``, 300 on ``sparse``), so that
#: about 20 to 30 calls lie beyond it.
TAIL_PERCENTILE = {"dense": 75.0, "sparse": 90.0}

#: Start-ups per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 15

#: Prints the monotonic clock once the first round trip is done, so set-up is
#: measured from launch to ready and excludes interpreter teardown.
_SETUP_PROGRAM = """
import time
import numpy as np, repro
x = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(64, 64)
r = repro.compress(x, eb={eb!r}, mode={mode!r})
repro.decompress(r.archive)
print(time.perf_counter())
"""


def make_fields(workload: str, seed: int) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return [(name, gen(rng)) for name, gen in FIELD_SETS[workload][2]]


def measure_setup(workload: str, root: Path) -> list[float]:
    """Time from launching a fresh interpreter until it has imported the
    library and finished its first compress/decompress (lazy initialisation
    included)."""
    mode, eb, _ = FIELD_SETS[workload]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    program = _SETUP_PROGRAM.format(eb=eb, mode=mode)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        child = subprocess.run([sys.executable, "-c", program], cwd=root, env=env,
                               check=True, timeout=120, capture_output=True, text=True)
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


class _Runner:
    def __init__(self, workload: str, fields, outcome: Outcome) -> None:
        self.mode, self.eb, _ = FIELD_SETS[workload]
        self.fields = fields
        self.outcome = outcome
        self.reference: list[bytes] = []
        self.workflows: list[str] = []
        self.psnr: list[float] = []

    def _check(self, name: str, x: np.ndarray, y: np.ndarray, eb_abs: float) -> None:
        if y.shape != x.shape or y.dtype != x.dtype:
            self.outcome.fail(f"{name}: decompressed {y.shape}/{y.dtype}, "
                              f"expected {x.shape}/{x.dtype}", wrong=True)
            return
        err = float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64))))
        if not err <= eb_abs:
            self.outcome.fail(f"{name}: max error {err} exceeds bound {eb_abs}", wrong=True)

    def warm(self) -> None:
        """First call per field: the reference archive, PSNR and workflow."""
        for name, x in self.fields:
            result = repro.compress(x, eb=self.eb, mode=self.mode)
            y = repro.decompress(result.archive)
            self.outcome.attempted += 2
            self._check(name, x, y, result.eb_abs)
            self.reference.append(result.archive)
            self.workflows.append(result.workflow)
            self.psnr.append(psnr(x, y))

    def passes(self, seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Full passes until ``seconds`` have elapsed (a pass is never cut)."""
        out = []
        deadline = time.perf_counter() + seconds
        while not out or time.perf_counter() < deadline:
            out.append(self._one_pass(tracer))
        return out

    def _one_pass(self, tracer: Tracer | None) -> dict:
        record = {"compress": [], "decompress": [], "workflows": []}
        for (name, x), reference in zip(self.fields, self.reference):
            self.outcome.attempted += 2
            try:
                start = time.perf_counter()
                with tracer.op("compress") if tracer else nullcontext():
                    result = repro.compress(x, eb=self.eb, mode=self.mode)
                compress_s = time.perf_counter() - start
                start = time.perf_counter()
                with tracer.op("decompress") if tracer else nullcontext():
                    y = repro.decompress(result.archive)
                decompress_s = time.perf_counter() - start
            except repro.ReproError as exc:
                self.outcome.fail(f"{name}: {type(exc).__name__}: {exc}", wrong=True)
                continue
            record["compress"].append(compress_s)
            record["decompress"].append(decompress_s)
            record["workflows"].append(result.workflow)
            if result.archive != reference:
                self.outcome.fail(f"{name}: archive bytes differ from the first "
                                  "pass of this run", wrong=True)
            self._check(name, x, y, result.eb_abs)
        return record


def _pass_mbps(passes: list[dict], op: str, total_bytes: int) -> list[float]:
    return [total_bytes / 1e6 / sum(p[op]) for p in passes]


def _best_seconds(passes: list[dict], op: str) -> float:
    """Sum over the field set of each field's fastest call.

    The host is shared: co-tenants slow whole stretches of a run, in spells
    that last minutes, so per-run medians wander with the host. Across ten
    25-second runs on a 2-core VM the median-pass decompress throughput spread
    24% (dense) and 28% (sparse) between quartiles; the fastest-call estimate
    spread 5% and 10%. Noise from other processes only ever adds time, which
    makes the minimum the steadier estimator of the program's own speed (Chen
    & Revels, arXiv:1608.04295). Per-pass figures and their medians are kept
    in the record.
    """
    n_fields = len(passes[0][op])
    return sum(min(p[op][k] for p in passes) for k in range(n_fields))


def _best_round_trip_mbps(passes: list[dict], total_bytes: int) -> float:
    return total_bytes / 1e6 / (_best_seconds(passes, "compress") + _best_seconds(passes, "decompress"))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    outcome = Outcome()
    fields = make_fields(workload, seed)
    total_bytes = sum(x.nbytes for _, x in fields)
    setup = measure_setup(workload, root)
    runner = _Runner(workload, fields, outcome)
    runner.warm()
    details = outcome.details
    details["fields"] = [
        {"name": name, "shape": list(x.shape), "bytes": int(x.nbytes),
         "workflow": wf, "archive_bytes": len(ref), "psnr_db": p}
        for (name, x), wf, ref, p in zip(fields, runner.workflows, runner.reference, runner.psnr)
    ]
    details["error_bound"] = {"mode": runner.mode, "eb": runner.eb}
    details["setup_s_samples"] = setup

    if not trace:
        passes = runner.passes(seconds)
        compress_lat = [t for p in passes for t in p["compress"]]
        latency_tail = tail(compress_lat, TAIL_PERCENTILE[workload])
        outcome.metrics = {
            "setup_s": median(setup),
            "compress_mbps": total_bytes / 1e6 / _best_seconds(passes, "compress"),
            "decompress_mbps": total_bytes / 1e6 / _best_seconds(passes, "decompress"),
            "compression_ratio": total_bytes / sum(len(a) for a in runner.reference),
            "psnr_db": float(np.mean(runner.psnr)),
            "latency_p50_ms": 1e3 * median(compress_lat),
            "latency_tail_ms": 1e3 * latency_tail["value"],
            "capacity_rps": 2 * len(fields) / (_best_seconds(passes, "compress")
                                               + _best_seconds(passes, "decompress")),
            "peak_rss_mb": own_peak_rss_mb(),
            "ok_frac": 1.0 - len(outcome.failures) / outcome.attempted,
        }
        details["samples"] = {
            "passes": len(passes),
            "compress_calls": len(compress_lat),
            "latency_tail": latency_tail,
        }
        details["workflows"] = sorted({w for p in passes for w in p["workflows"]})
        # Every pass, so a slow run can be told apart from a few slow passes.
        details["pass_mbps"] = {op: _pass_mbps(passes, op, total_bytes) for op in OPS}
        details["median_pass_mbps"] = {op: median(details["pass_mbps"][op]) for op in OPS}
    else:
        untraced = runner.passes(seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = runner.passes(seconds / 2, tracer)
        breakdown = tracer.breakdown(len(traced))
        memcpy = memcpy_gbps(last_level_cache_bytes())
        outcome.metrics = {k: v for k, v in breakdown.items() if k in PER_LAYER}
        outcome.metrics["memcpy_gbps"] = memcpy["gbps"]
        outcome.metrics["tracing_overhead_frac"] = (
            1.0 - _best_round_trip_mbps(traced, total_bytes)
            / _best_round_trip_mbps(untraced, total_bytes))
        details["memcpy"] = memcpy
        details["workload_bytes"] = total_bytes
        details["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        details["per_op_layer_s"] = {op: breakdown[f"{op}.layers_s"] for op in OPS}
        outcome.tracer = tracer
        details["workflows"] = sorted({w for p in traced for w in p["workflows"]})
    return outcome
