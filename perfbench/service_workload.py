"""The ``service`` workload: ``repro serve`` driven over keep-alive HTTP.

The server runs as its own process (``--backend process -j <nproc>``) and
this process is its only client, with at most ``nproc`` connections, which
keeps client concurrency below the admission limit (``2 * jobs``).

The traffic mix (per block of 20 requests, order shuffled from the seed):

* 9 ``compress`` of distinct 256 KiB fields;
* 2 ``compress`` of distinct 512 KiB fields into the blocks container;
* 7 ``decompress`` re-reads of a pool of 8 archives (the decode-table cache);
* 2 ``verify`` of pool archives.

A run has two phases. The open-loop phase sends at a fixed rate and times
each request from when it was due, so a stall also delays the requests
queued behind it; its ``compress`` requests give the latency metrics. The
closed-loop phase keeps every connection busy; it gives the capacity and,
from the fastest request of each class, the per-request throughputs.
"""

from __future__ import annotations

import ctypes
import hashlib
import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metric_defs import Outcome, median, tail
from layer_trace import last_level_cache_bytes, memcpy_gbps
from repro import CompressorConfig, compress, compress_blocks, decompress
from repro.analysis.metrics import psnr
from repro.server.replay import synthesize_field

HERE = Path(__file__).resolve().parent

#: Offered rate of the open-loop phase, about 40% of the closed-loop capacity
#: of a 2-core host (about 37 req/s with this mix). A constant, so every run
#: and commit offers the same load. At 20 req/s the queueing it adds made the
#: open-loop latency spread twice as wide from run to run.
OPEN_RATE = 15.0
#: Share of ``--seconds`` spent in the open-loop phase; the rest is closed-loop.
OPEN_SHARE = 0.65
#: Server start-ups per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Percentile reported as ``latency_tail_ms``. Fixed, so every run and commit
#: reports the same statistic: at 25 s the open loop sends about 109 plain
#: ``compress`` requests, which leaves about 11 beyond p90.
TAIL_PERCENTILE = 90.0
#: Requests per mix block, by class.
MIX = {"compress": 9, "compress_blocks": 2, "decompress": 7, "verify": 2}
POOL_SIZE = 8
SMALL_DIMS = (256, 256)    # 256 KiB of float32
LARGE_DIMS = (512, 256)    # 512 KiB of float32
SMALL_MB = SMALL_DIMS[0] * SMALL_DIMS[1] * 4 / 1e6
BLOCK_BYTES = 128 << 10
#: The server's codec defaults, which the requests rely on.
CODEC = {"eb": 1e-4, "mode": "rel"}
REQUEST_TIMEOUT_S = 30.0


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _config() -> CompressorConfig:
    return CompressorConfig(eb=CODEC["eb"], mode=CODEC["mode"])


@dataclass
class Request:
    cls: str
    target: str
    #: None for a compress request until ``materialize`` builds its field.
    payload: bytes | None
    #: Compress: (dims, field seed), pinned after the run; decompress:
    #: expected digest of the raw output; verify: None.
    check: object = None
    due: float | None = None
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    digest: str = ""
    body_len: int = 0
    error: str = ""

    def materialize(self) -> None:
        """Build a compress request's field (about 3.5 ms for 256 KiB), in
        the client thread just before sending, so the stream never runs out
        and only the requests in flight hold a payload."""
        if self.payload is None:
            dims, field_seed = self.check
            self.payload = synthesize_field(dims, "f32", field_seed).tobytes()


class Traffic:
    """Deterministic request stream for one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.next_field = 0
        self.pool = []
        cfg = _config()
        for k in range(POOL_SIZE):
            x = synthesize_field(SMALL_DIMS, "f32", self._field_seed())
            result = compress(x, cfg)
            y = decompress(result.archive)
            self.pool.append({
                "archive": result.archive,
                "expected": _digest(np.ascontiguousarray(y).tobytes()),
                "max_err": float(np.max(np.abs(x.astype(np.float64) - y))),
                "eb_abs": result.eb_abs,
                "psnr_db": psnr(x, y),
            })
        self.pool_turn = 0
        self.block: list[str] = []

    def _field_seed(self) -> int:
        self.next_field += 1
        return self.seed * 1_000_003 + self.next_field

    def next(self) -> Request:
        if not self.block:
            self.block = [cls for cls, n in MIX.items() for _ in range(n)]
            self.rng.shuffle(self.block)
        cls = self.block.pop()
        if cls in ("compress", "compress_blocks"):
            dims = SMALL_DIMS if cls == "compress" else LARGE_DIMS
            field_seed = self._field_seed()
            query = f"dims={dims[0]},{dims[1]}&dtype=f32&eb={CODEC['eb']!r}&mode={CODEC['mode']}"
            if cls == "compress_blocks":
                query += f"&block_bytes={BLOCK_BYTES}"
            return Request(cls, "/v1/compress?" + query, None, check=(dims, field_seed))
        entry = self.pool[self.pool_turn % POOL_SIZE]
        self.pool_turn += 1
        if cls == "decompress":
            return Request(cls, "/v1/decompress", entry["archive"], check=entry["expected"])
        return Request(cls, "/v1/verify", entry["archive"])


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """``python -m repro serve`` in its own session, so the whole process
    tree (forkserver and workers included) can be found and stopped."""

    def __init__(self, root: Path, jobs: int, log_path: Path) -> None:
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = log_path.open("ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "process",
             "-j", str(jobs), "--port", "0", "--quota", "100000"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.port = self._read_port(timeout=120.0)

    def _read_port(self, timeout: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        finally:
            sel.close()
        self.stop()
        raise RuntimeError("repro serve did not report a listening address; see the server log")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def tree_peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (VmHWM) of the server and every
        descendant; an upper bound on the tree's simultaneous peak."""
        children: dict[int, list[int]] = {}
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
        total_kib, todo = 0, [self.proc.pid]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, []))
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib * 1024 / 1e6

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait until every process of the
        group has ended. The forkserver and the resource tracker outlive the
        server by a moment; this process is their subreaper (see
        ``_become_subreaper``), so they become its children and are reaped
        here. Whatever is still alive after 10 s is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        try:
            deadline = time.monotonic() + 10
            killed = False
            while _reap_group(self.proc.pid):
                if time.monotonic() > deadline + 10:
                    raise RuntimeError("repro serve processes did not exit after SIGKILL")
                if time.monotonic() > deadline and not killed:
                    try:
                        os.killpg(self.proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    killed = True
                time.sleep(0.02)
        finally:
            self.proc.stdout.close()
            self._log.close()


def _become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that no server process it started can
    outlive it unseen as a child of init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> list[int]:
    """Reap the ended members of process group ``pgid`` that are children of
    this process; returns the members still running."""
    running = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) != pgid:
            continue
        pid = int(stat.parent.name)
        try:
            reaped = os.waitpid(pid, os.WNOHANG)[0] == pid
        except ChildProcessError:
            reaped = False
        # A zombie that is not this process's child has ended all the same.
        if not reaped and fields[0] != "Z":
            running.append(pid)
    return running


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


def _send(conn: http.client.HTTPConnection, req: Request) -> http.client.HTTPConnection:
    """Send one request on a keep-alive connection; returns the connection
    to use next (a fresh one after a transport failure)."""
    req.sent = time.perf_counter()
    try:
        conn.request("POST", req.target, body=req.payload,
                     headers={"X-Repro-Tenant": "perfbench"})
        resp = conn.getresponse()
        body = resp.read()
        req.done = time.perf_counter()
        req.status = resp.status
    except (OSError, http.client.HTTPException) as exc:
        req.done = time.perf_counter()
        req.error = f"transport failure: {type(exc).__name__}: {exc}"
        conn.close()
        return http.client.HTTPConnection(conn.host, conn.port, timeout=REQUEST_TIMEOUT_S)
    req.body_len = len(body)
    if req.status != 200:
        req.error = f"HTTP {req.status}: {body[:200].decode('latin-1', 'replace')}"
    elif req.cls == "verify":
        try:
            report = json.loads(body)
        except ValueError:
            report = {}
        if report.get("ok") is not True:
            req.error = f"verify did not return ok: true ({body[:200]!r})"
    else:
        req.digest = _digest(body)
        if req.cls == "decompress" and req.digest != req.check:
            req.error = "decompress output differs from the local library pipeline"
    return conn


def _drive(port: int, connections: int, source, deadline: float | None) -> list[Request]:
    """Run ``connections`` client threads until ``source`` is exhausted or
    ``deadline`` passes. ``source()`` returns the next request or None."""
    lock = threading.Lock()
    done: list[Request] = []

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    req = source()
                if req is None:
                    return
                req.materialize()
                if req.due is not None:
                    delay = req.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                conn = _send(conn, req)
                req.payload = None
                with lock:
                    done.append(req)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client threads did not finish")
    return done


def _open_loop(port: int, connections: int, requests: list[Request]) -> list[Request]:
    start = time.perf_counter() + 0.05
    for i, req in enumerate(requests):
        req.due = start + i / OPEN_RATE
    it = iter(requests)
    return _drive(port, connections, lambda: next(it, None), None)


def _closed_loop(port: int, connections: int, traffic: Traffic, seconds: float):
    """Every connection sends its next request as soon as the previous one
    returns, until ``seconds`` have passed; the stream never runs out."""
    start = time.perf_counter()
    deadline = start + seconds
    done = _drive(port, connections, traffic.next, deadline)
    return done, start, deadline


# ---------------------------------------------------------------------------
# Snapshots of the server's own counters
# ---------------------------------------------------------------------------


def _metric_sum(snapshot: dict, name: str, key: str = "value", endpoints=None) -> float:
    total = 0.0
    for sample in snapshot.get(name, {}).get("values", []):
        if endpoints is None or sample["labels"].get("endpoint") in endpoints:
            total += sample[key]
    return total


_JOB_ENDPOINTS = ("/v1/compress", "/v1/decompress", "/v1/verify")


def _layer_deltas(before: dict, after: dict, requests: list[Request]) -> dict:
    e0, e1 = before["info"]["engine"], after["info"]["engine"]
    m0, m1 = before["metrics"], after["metrics"]
    jobs = e1["jobs_completed"] - e0["jobs_completed"]
    hits = e1["cache"]["hits"] - e0["cache"]["hits"]
    misses = e1["cache"]["misses"] - e0["cache"]["misses"]
    worker_wall = e1["worker_wall_seconds"] - e0["worker_wall_seconds"]
    hist = "repro_server_request_seconds"
    n_server = (_metric_sum(m1, hist, "count", _JOB_ENDPOINTS)
                - _metric_sum(m0, hist, "count", _JOB_ENDPOINTS))
    server_s = (_metric_sum(m1, hist, "sum", _JOB_ENDPOINTS)
                - _metric_sum(m0, hist, "sum", _JOB_ENDPOINTS))
    rejected = (_metric_sum(m1, "repro_server_rejections_total")
                - _metric_sum(m0, "repro_server_rejections_total"))
    client_s = [r.done - r.sent for r in requests if r.status]
    lag = [r.sent - r.due for r in requests if r.due is not None]
    per_job = max(jobs, 1)
    per_request = max(n_server, 1)
    return {
        "engine.submit_wait_s": (e1["submit_wait_seconds"] - e0["submit_wait_seconds"]) / per_job,
        "engine.worker_wall_s": worker_wall / per_job,
        "engine.worker_cpu_s": (e1["worker_cpu_seconds"] - e0["worker_cpu_seconds"]) / per_job,
        "engine.queue_depth_max": e1["queue_depth_max"],
        "engine.jobs": jobs,
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.request_ms": 1e3 * server_s / per_request,
        "server.frontdoor_ms": 1e3 * (server_s - worker_wall) / per_request,
        "server.rejected": rejected,
        "client.overhead_ms": 1e3 * (sum(client_s) - server_s) / max(len(client_s), 1),
        "client.lag_ms": 1e3 * sum(lag) / max(len(lag), 1),
    }


def _snapshot(server: Server) -> dict:
    return {"info": server.get_json("/v1/info"), "metrics": server.get_json("/metrics.json")}


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _first_calls(server: Server, traffic: Traffic) -> list[Request]:
    """One request of each class: the first-call lazy init of a new server."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
    sent = []
    try:
        for cls in MIX:
            req = traffic.next()
            while req.cls != cls:
                req = traffic.next()
            req.materialize()
            conn = _send(conn, req)
            req.payload = None
            sent.append(req)
    finally:
        conn.close()
    return sent


def _start(root: Path, jobs: int, traffic: Traffic, log: Path):
    start = time.perf_counter()
    server = Server(root, jobs, log)
    try:
        first = _first_calls(server, traffic)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, first


def _local_digest(cls: str, dims: tuple[int, int], field_seed: int) -> str:
    x = synthesize_field(dims, "f32", field_seed)
    if cls == "compress_blocks":
        return _digest(compress_blocks(x, _config(), max_block_bytes=BLOCK_BYTES))
    return _digest(compress(x, _config()).archive)


#: Program of a pinning worker: one digest per line for the JSON list of
#: ``(class, dims, field seed)`` in its first argument.
_PIN_PROGRAM = """
import json, sys
from service_workload import _local_digest
for cls, dims, field_seed in json.loads(sys.argv[1]):
    print(_local_digest(cls, tuple(dims), field_seed))
"""


def _pin_compress(requests: list[Request], root: Path, jobs: int) -> dict:
    """Check every compress response against the local library pipeline,
    on ``jobs`` worker processes once the server has stopped."""
    todo = [r for r in requests if r.cls in ("compress", "compress_blocks") and not r.error]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(HERE)])}
    workers = []
    try:
        for k in range(jobs):
            work = json.dumps([(r.cls, r.check[0], r.check[1]) for r in todo[k::jobs]])
            workers.append(subprocess.Popen([sys.executable, "-c", _PIN_PROGRAM, work],
                                            cwd=root, env=env, stdout=subprocess.PIPE,
                                            text=True))
        outputs = [w.communicate(timeout=120)[0].split() for w in workers]
    finally:
        for w in workers:
            if w.poll() is None:
                w.kill()
            w.wait()
    if any(w.returncode for w in workers):
        raise RuntimeError("a local digest worker failed")
    digests = [""] * len(todo)
    for k, out in enumerate(outputs):
        digests[k::jobs] = out
    sizes = {"in": 0, "out": 0}
    for req, digest in zip(todo, digests):
        if digest != req.digest:
            req.error = "compress response differs from the local library pipeline"
        dims = req.check[0]
        sizes["in"] += dims[0] * dims[1] * 4
        sizes["out"] += req.body_len
    return sizes


def _fastest(reqs: list[Request]) -> float:
    """The shortest send-to-answer time of ``reqs`` (inf when empty).

    With every worker busy, two cores also run the server's event loop and
    this client, so a request's time depends on what the scheduler overlaps
    it with: on a 2-core VM the closed-loop median of a 256 KiB decompress
    flipped between about 60 and 100 ms from one 3-second stretch to the
    next within one server, while the fastest stayed at 46-53 ms. Contention
    only adds time, so the fastest request is the steady estimate of a
    request's own cost, as for the library workloads; the effect of
    contention shows in ``capacity_rps`` and the latency metrics.
    """
    return min((r.done - r.sent for r in reqs), default=float("inf"))


def run(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    outcome = Outcome()
    jobs = os.cpu_count() or 1
    traffic = Traffic(seed)
    for k, entry in enumerate(traffic.pool):
        outcome.attempted += 1
        if not entry["max_err"] <= entry["eb_abs"]:
            outcome.fail(f"pool archive {k}: max error {entry['max_err']} exceeds "
                         f"{entry['eb_abs']}", wrong=True)
    log = root / ".perfbench" / "service-server.log"
    _become_subreaper()
    setup, requests = [], []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, seconds_to_ready, first = _start(root, jobs, traffic, log)
            setup.append(seconds_to_ready)
            requests += first
        open_s = seconds * OPEN_SHARE
        closed_s = seconds - open_s
        open_reqs = [traffic.next() for _ in range(max(int(open_s * OPEN_RATE), 1))]
        before = _snapshot(server) if trace else None
        opened = _open_loop(server.port, jobs, open_reqs)
        closed, c_start, c_end = _closed_loop(server.port, jobs, traffic, closed_s)
        after = _snapshot(server) if trace else None
        peak_rss = server.tree_peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    requests += opened + closed
    sizes = _pin_compress(requests, root, jobs)
    for req in requests:
        outcome.attempted += 1
        if req.error:
            wrong = req.status == 200 and not req.error.startswith("transport")
            outcome.fail(f"{req.cls} {req.target}: {req.error}", wrong=wrong)

    def ok(reqs, cls):
        return [r for r in reqs if r.cls == cls and not r.error]

    latency = [r.done - r.due for r in ok(opened, "compress")]
    latency_tail = tail(latency, TAIL_PERCENTILE)
    closed_ok = [r for r in closed if not r.error and r.done <= c_end]
    details = outcome.details
    details["setup_s_samples"] = setup
    details["server"] = {"backend": "process", "jobs": jobs, "connections": jobs,
                         "open_rate_rps": OPEN_RATE, "open_s": open_s,
                         "closed_s": closed_s}
    details["samples"] = {
        "open_loop": {cls: len(ok(opened, cls)) for cls in MIX},
        "closed_loop": {cls: len(ok(closed, cls)) for cls in MIX},
        "latency_tail": latency_tail,
    }
    details["latency_ms"] = {
        phase: {cls: {"p50": 1e3 * median([r.done - (r.due or r.sent) for r in ok(reqs, cls)]),
                      "from_send_p50": 1e3 * median([r.done - r.sent for r in ok(reqs, cls)]),
                      "from_send_min": 1e3 * _fastest(ok(reqs, cls))}
                for cls in MIX}
        for phase, reqs in (("open_loop", opened), ("closed_loop", closed))
    }
    if not trace:
        outcome.metrics = {
            "setup_s": median(setup),
            "compress_mbps": SMALL_MB / _fastest(ok(closed, "compress")),
            "decompress_mbps": SMALL_MB / _fastest(ok(closed, "decompress")),
            "compression_ratio": sizes["in"] / max(sizes["out"], 1),
            "psnr_db": float(np.mean([p["psnr_db"] for p in traffic.pool])),
            "peak_rss_mb": peak_rss,
            "latency_p50_ms": 1e3 * median(latency),
            "latency_tail_ms": 1e3 * latency_tail["value"],
            # Up to the last OK answer inside the phase, so the rate keeps
            # all its digits instead of stepping by 1 / phase length.
            "capacity_rps": len(closed_ok) / (max((r.done for r in closed_ok), default=c_end)
                                             - c_start),
            "ok_frac": 1.0 - len(outcome.failures) / max(outcome.attempted, 1),
        }
    else:
        outcome.metrics = _layer_deltas(before, after, opened + closed)
        memcpy = memcpy_gbps(last_level_cache_bytes())
        outcome.metrics["memcpy_gbps"] = memcpy["gbps"]
        # Nothing is wrapped in this workload: the counters are read from the
        # server's own endpoints before and after the run.
        outcome.metrics["tracing_overhead_frac"] = 0.0
        details["memcpy"] = memcpy
    return outcome
