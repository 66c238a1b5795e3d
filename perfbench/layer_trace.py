"""Per-layer timing of the library, measured from outside the program.

The traced run replaces each layer's public function, at the name its caller
looks it up by, with a wrapper that records a span (layer, start, duration,
bytes). Nothing under ``src/`` changes: the wrappers are installed for the
traced phase only and the original attributes are restored afterwards.

A layer's self time is its span duration minus the spans nested in it. The
benchmark opens one root span per ``compress``/``decompress`` call; the root's
self time is the ``unattributed`` residual (telemetry, ledger, dtype casts,
container glue), so layer self times plus the residual equal the traced op
total by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _arg_bytes(args, kwargs, out) -> int:
    return int(args[0].nbytes)


def _out_bytes(args, kwargs, out) -> int:
    return int(out.nbytes)


def _no_bytes(args, kwargs, out) -> int:
    return 0


def _blob_bytes(args, kwargs, out) -> int:
    return len(args[1])  # ArchiveReader.__init__(self, blob)


def _archive_bytes(args, kwargs, out) -> int:
    return len(out)  # ArchiveBuilder.to_bytes(self) -> archive


@dataclass(frozen=True)
class Hook:
    """One wrapped call site: ``owner.attr`` is reported as ``layer``."""

    layer: str
    owner: str  # module path, or module path + ":" + class name
    attr: str
    nbytes: Callable[[tuple, dict, object], int]  # bytes the call streamed


#: Layer -> call sites. Byte counts are computed from array sizes (no cache
#: or DRAM counters are read), so the derived GB/s figures are labelled
#: "computed" wherever they are reported.
HOOKS = (
    Hook("dual_quant.quantize", "repro.core.compressor", "quantize_field", _arg_bytes),
    Hook("histogram", "repro.core.compressor", "cached_histogram", _arg_bytes),
    Hook("histogram", "repro.core.workflow", "cached_histogram", _arg_bytes),
    Hook("selector", "repro.core.compressor", "select_workflow", _no_bytes),
    Hook("huffman.codebook", "repro.core.workflow", "cached_codebook", _no_bytes),
    Hook("huffman.encode", "repro.core.workflow", "huff_encode", _arg_bytes),
    Hook("rle.encode", "repro.core.workflow", "rle_encode", _arg_bytes),
    Hook("archive.write", "repro.core.archive:ArchiveBuilder", "add_bytes", _no_bytes),
    Hook("archive.write", "repro.core.archive:ArchiveBuilder", "add_array", _no_bytes),
    Hook("archive.write", "repro.core.archive:ArchiveBuilder", "to_bytes", _archive_bytes),
    Hook("archive.read", "repro.core.archive:ArchiveReader", "__init__", _blob_bytes),
    Hook("archive.read", "repro.core.archive:ArchiveReader", "get_bytes", _no_bytes),
    Hook("archive.read", "repro.core.archive:ArchiveReader", "get_array", _no_bytes),
    Hook("huffman.table", "repro.core.workflow", "cached_decode_table", _no_bytes),
    Hook("huffman.decode", "repro.core.workflow", "huff_decode", _out_bytes),
    Hook("rle.decode", "repro.core.workflow", "rle_decode", _out_bytes),
    Hook("dual_quant.fuse", "repro.core.compressor", "fuse_quant_and_outliers", _out_bytes),
    Hook("lorenzo.reconstruct", "repro.core.compressor", "lorenzo_reconstruct", _arg_bytes),
)

#: Every library layer, in pipeline order.
LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))
#: Layers whose work is a byte stream, so GB/s is meaningful.
STREAM_LAYERS = tuple(
    layer for layer in LAYERS
    if any(h.nbytes is not _no_bytes for h in HOOKS if h.layer == layer)
)
OPS = ("compress", "decompress")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Spans kept in memory; aggregated and written out once at the end."""

    def __init__(self) -> None:
        # (name, op, start, duration, self_time, bytes); name is a layer or an op.
        self.spans: list[tuple[str, str, float, float, float, int]] = []
        self.rle_decisions = 0
        self.decisions = 0
        self._stack: list[list] = []  # [name, child_seconds]

    def _enter(self, name: str) -> None:
        self._stack.append([name, 0.0])

    def _exit(self, name: str, start: float, end: float, nbytes: int) -> None:
        duration = end - start
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        op = self._stack[0][0] if self._stack else name
        self.spans.append((name, op, start, duration, duration - child, nbytes))

    @contextmanager
    def op(self, name: str):
        """Root span around one benchmark-issued library call."""
        self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, start, time.perf_counter(), 0)

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(hook.layer)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(hook.layer, start, time.perf_counter(), 0)
                raise
            end = time.perf_counter()
            tracer._exit(hook.layer, start, end, hook.nbytes(args, kwargs, out))
            if hook.layer == "selector":
                tracer.decisions += 1
                tracer.rle_decisions += out.decision.startswith("rle")
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for hook in HOOKS:
                owner = _resolve(hook.owner)
                # A class attribute is read from __dict__ so the plain function,
                # not a bound method, is wrapped and later restored.
                original = (owner.__dict__[hook.attr] if isinstance(owner, type)
                            else getattr(owner, hook.attr))
                saved.append((owner, hook.attr, original))
                setattr(owner, hook.attr, self._wrap(hook, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def breakdown(self, passes: int) -> dict:
        """Per-pass self time and call count per layer, GB/s per stream layer,
        and the per-op residual. ``passes`` normalizes to one pass of the
        field set, so the figures do not depend on how many passes fit."""
        per = max(passes, 1)
        self_s = {name: 0.0 for name in LAYERS + OPS}
        calls = {name: 0 for name in LAYERS + OPS}
        nbytes = {name: 0 for name in LAYERS}
        totals = {op: 0.0 for op in OPS}
        layer_by_op = {op: 0.0 for op in OPS}
        for name, op, _start, duration, self_time, n in self.spans:
            self_s[name] += self_time
            calls[name] += 1
            if name in OPS:
                totals[name] += duration
            else:
                nbytes[name] += n
                layer_by_op[op] += self_time
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / per
            out[f"{layer}.calls"] = calls[layer] / per
        for layer in STREAM_LAYERS:
            out[f"{layer}.gbps"] = nbytes[layer] / 1e9 / self_s[layer] if self_s[layer] > 0 else 0.0
        for op in OPS:
            out[f"{op}.unattributed_s"] = self_s[op] / per
            out[f"{op}.traced_s"] = totals[op] / per
            out[f"{op}.layers_s"] = layer_by_op[op] / per
        out["selector.rle_share"] = self.rle_decisions / self.decisions if self.decisions else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span, one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, op, start, duration, self_time, n in self.spans:
                fh.write(json.dumps({
                    "name": name, "op": op, "start": start, "dur": duration,
                    "self": self_time, "bytes": n,
                }) + "\n")


def last_level_cache_bytes() -> int | None:
    """Size of the largest CPU cache sysfs reports for cpu0, or None."""
    best_level, best_size = -1, None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            raw = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def memcpy_gbps(llc_bytes: int | None, repeats: int = 3) -> dict:
    """Host copy bandwidth on arrays at least 4x the last-level cache.

    Reports bytes copied per second (each byte read once and written once),
    the median of ``repeats`` copies after one untimed copy that faults the
    destination pages in.
    """
    n = max(4 * (llc_bytes or 0), 256 << 20)
    src = np.ones(n, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    del src, dst
    return {
        "gbps": n / 1e9 / statistics.median(times),
        "array_bytes": n,
        "llc_bytes": llc_bytes,
        "samples": repeats,
    }
