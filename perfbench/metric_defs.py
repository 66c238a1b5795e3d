"""Metric names, units and the statistics every workload shares."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

from layer_trace import LAYERS, OPS, STREAM_LAYERS, Tracer
from repro.bench.record import quantiles

#: End-to-end metrics (``--trace 0``): name -> unit. Every workload reports
#: every one of them; README.md gives each one's definition per workload.
END_TO_END = {
    "setup_s": "s",
    "compress_mbps": "MB/s",
    "decompress_mbps": "MB/s",
    "compression_ratio": "ratio",
    "psnr_db": "dB",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "capacity_rps": "req/s",
}

ENGINE_METRICS = {
    "engine.submit_wait_s": "s",
    "engine.worker_wall_s": "s",
    "engine.worker_cpu_s": "s",
    "engine.queue_depth_max": "count",
    "engine.jobs": "count",
    "engine.cache_hit_ratio": "fraction",
}

SERVER_METRICS = {
    "server.request_ms": "ms",
    "server.frontdoor_ms": "ms",
    "server.rejected": "count",
    "client.overhead_ms": "ms",
    "client.lag_ms": "ms",
}


def _library_layer_metrics() -> dict[str, str]:
    out: dict[str, str] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
        if layer in STREAM_LAYERS:
            out[f"{layer}.gbps"] = "GB/s"
    out["selector.rle_share"] = "fraction"
    for op in OPS:
        out[f"{op}.unattributed_s"] = "s"
        out[f"{op}.traced_s"] = "s"
    return out


#: Per-layer metrics (``--trace 1``): name -> unit. Library layers are
#: per pass of the field set; a layer that does no work in a workload
#: reports 0 (for ``service`` that includes the library layers, which run
#: inside the server's worker processes where no wrapper reaches them).
PER_LAYER = {
    **_library_layer_metrics(),
    **ENGINE_METRICS,
    **SERVER_METRICS,
    "memcpy_gbps": "GB/s",
    "tracing_overhead_frac": "fraction",
}

def tail(samples: list[float], percentile: float) -> dict:
    """``percentile`` of ``samples``, with the sample count and how many
    samples lie beyond it (``enough`` is False below ten).

    Each workload fixes its percentile from the sample count a full-length
    run gives, so runs that differ in speed still report the same statistic.
    """
    n = len(samples)
    beyond = n * (1.0 - percentile / 100.0)
    (value,) = quantiles(samples, (percentile / 100.0,)).values()
    return {"percentile": percentile, "value": value, "n": n,
            "beyond": beyond, "enough": beyond >= 10}


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Failures that are wrong output (not refusals or timeouts).
    wrong: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, message: str, wrong: bool) -> None:
        self.failures.append(message)
        self.wrong += wrong
