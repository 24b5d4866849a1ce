"""Workload ``serve-mixed``: a ``repro serve`` subprocess under a closed loop.

Two keep-alive clients in the benchmark process each send a request,
wait for the whole reply, then send the next (closed loop: a caller
waits like the CLI, a CI gate or a watcher does).  The seeded op mix:

* 30% fresh-trace ``POST /v1/analyze`` — a dedup miss, so spool, digest,
  queue and compute;
* 10% fresh-trace ``POST /v1/report`` — a miss, so timeline and HTML;
* 35% repeat-upload ``POST /v1/analyze`` — dedup ``done``, request path only;
* 25% ``GET /v1/health``.

Uploads come from a pool of recorded traces: the eight corpus models,
about 2k events each for analyze and about 450 for report.  A fresh
upload is a pool trace under a new trace name, so its bytes (and dedup
key) are new while its analysis is the pool trace's; set-up checks that
renaming leaves the analysis envelope unchanged, and every analyze
reply must equal, byte for byte, the local ``repro.serve.protocol``
encoding of ``api.analyze`` on that pool trace.

    python3 perfbench/serve_mixed.py setup --seed N --size full --out DIR
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

CLIENTS = 2
SERVER_WORKERS = 2
#: finished jobs the server keeps: enough that no repeat upload is
#: evicted within a run, so every repeat stays a dedup hit
KEEP_JOBS = 100_000

#: (model, scale) pools, scaled so every analyze upload computes in about
#: 30 ms and every report upload in about 25 ms on a 2-core x86 host: the
#: heavy class stays one tight cluster, so p90 is not a boundary between
#: models
POOL = {
    "full": {
        "analyze": [("mysql", 2), ("openldap", 12), ("pbzip2", 3),
                    ("handbrake", 1.25), ("transmissionBT", 24),
                    ("fluidanimate", 0.75), ("dedup", 1), ("vips", 1)],
        "report": [("mysql", 0.5), ("openldap", 2), ("pbzip2", 0.5),
                   ("handbrake", 0.5), ("transmissionBT", 5),
                   ("fluidanimate", 0.2), ("dedup", 0.375), ("vips", 0.375)],
    },
    "small": {
        "analyze": [("mysql", 0.5), ("openldap", 2), ("handbrake", 0.25)],
        "report": [("transmissionBT", 2), ("vips", 0.25)],
    },
}

#: (op class, cumulative share of the mix)
MIX = (("miss", 0.30), ("report", 0.40), ("hit", 0.75), ("health", 1.00))


def _pool_of(kind: str) -> str:
    """The upload pool an op class draws from."""
    return "report" if kind == "report" else "analyze"


# ------------------------------------------------------------------ set-up


def _renamed(data: bytes, name: str) -> bytes:
    """The same trace under another name: new bytes, same analysis."""
    head, _, rest = data.partition(b"\n")
    header = json.loads(head)
    header["meta"]["name"] = name
    return json.dumps(header).encode("utf-8") + b"\n" + rest


def _envelope(path: Path) -> str:
    from repro import api
    from repro.serve import protocol

    analysis = api.analyze(path)
    return protocol.wire_dumps(protocol.ok_envelope(protocol.analyze_result(analysis)))


def setup(seed: int, size: str, out: Path) -> dict:
    """Record the upload pools and their expected analyze envelopes."""
    from repro import api
    from repro.trace import serialize

    out.mkdir(parents=True, exist_ok=True)
    pools = {}
    compute_s = []
    renaming_neutral = True
    for kind, models in POOL[size].items():
        entries = []
        for model, scale in models:
            trace = api.record(model, scale=scale, seed=seed)
            path = out / f"{kind}-{model}.jsonl"
            serialize.dump(trace, path)
            entry = {"name": model, "path": str(path), "events": len(trace)}
            if kind == "analyze":
                started = time.perf_counter()
                envelope = _envelope(path)
                compute_s.append(time.perf_counter() - started)
                entry["envelope_sha256"] = harness.sha256_text(envelope)
                twin = out / f"{kind}-{model}.renamed.jsonl"
                twin.write_bytes(_renamed(path.read_bytes(), f"{model}~renamed"))
                renaming_neutral &= _envelope(twin) == envelope
                twin.unlink()
            entry["sha256"] = harness.sha256_file(path)
            entries.append(entry)
        pools[kind] = entries
    return {
        "pools": pools,
        "compute_ms": sum(compute_s) / len(compute_s) * 1e3,
        "renaming_neutral": renaming_neutral,
    }


class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, work: Path, env: dict):
        self.log = work / "serve.log"
        self.started = time.perf_counter()
        self._log_fh = open(self.log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS), "--keep-jobs", str(KEEP_JOBS),
             "--spool-dir", str(work / "spool")],
            cwd=str(work), env=env, stdout=subprocess.DEVNULL,
            stderr=self._log_fh,
        )
        self.port = self._wait_port()
        self.start_s = self._wait_healthy()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self.log.read_text()}")
            found = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                              self.log.read_text(encoding="utf-8"))
            if found:
                return int(found.group(1))
            time.sleep(0.005)
        raise RuntimeError("repro serve did not report its port")

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            conn = self.connect()
            try:
                status, _, _ = request(conn, "GET", "/v1/health")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
        raise RuntimeError("repro serve never answered /v1/health")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_fh.close()


def request(conn, method: str, path: str, body: bytes = None, tracer=None,
            ident: str = ""):
    """One request/reply on a keep-alive connection: (status, headers, body)."""
    headers = {"Content-Type": "application/octet-stream"} if body else {}
    if tracer is None:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    with tracer.span("serve.send", ident):
        conn.request(method, path, body=body, headers=headers)
    with tracer.span("serve.wait", ident):
        resp = conn.getresponse()
    with tracer.span("serve.read", ident):
        data = resp.read()
    return resp.status, resp.headers, data


def _server_latency(conn) -> dict:
    """``serve.latency_ms.<endpoint>`` (count, sum) from ``/metrics``."""
    _, _, text = request(conn, "GET", "/metrics")
    found = {}
    for line in text.decode("utf-8").splitlines():
        m = re.match(r"repro_serve_latency_ms_(\w+)_(count|sum) (\d+)", line)
        if m:
            found.setdefault(m.group(1), {})[m.group(2)] = int(m.group(3))
    return found


def _health(conn) -> dict:
    status, _, data = request(conn, "GET", "/v1/health")
    if status != 200:
        raise RuntimeError(f"/v1/health answered {status}")
    return json.loads(data)["result"]["jobs"]


# --------------------------------------------------------------------- ops


def plan(seed: int, pools: dict):
    """The seeded op sequence (endless; a run takes a prefix)."""
    rng = random.Random(seed)
    for i in itertools.count():
        draw = rng.random()
        kind = next(name for name, share in MIX if draw < share)
        if kind == "health":
            yield {"kind": kind}
            continue
        pool = pools[_pool_of(kind)]
        yield {"kind": kind, "base": rng.randrange(len(pool)),
               "tag": f"~{seed}-{i}"}


class Loop:
    """Closed loop: CLIENTS threads share one plan until the deadline."""

    def __init__(self, server, pools, blobs, expected, seed, tracer):
        self.server = server
        self.pools = pools
        self.blobs = blobs
        self.expected = expected
        self.tracer = tracer
        self._plan = plan(seed, pools)
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self.ops = []

    def _next(self):
        with self._lock:
            return next(self._seq), next(self._plan)

    def _run_op(self, conn, seq, op) -> dict:
        kind = op["kind"]
        events = 0
        if kind == "health":
            method, path, body = "GET", "/v1/health", None
        else:
            pool = _pool_of(kind)
            body = self.blobs[pool][op["base"]]
            if kind != "hit":
                entry = self.pools[pool][op["base"]]
                body = _renamed(body, entry["name"] + op["tag"])
                events = entry["events"]
            method, path = "POST", f"/v1/{pool}"
        traced = self.tracer.enabled and seq % 2 == 0
        ident = f"req-{seq}"
        started = time.perf_counter()
        if traced:
            with self.tracer.span("serve.request", ident):
                status, headers, data = request(conn, method, path, body,
                                                self.tracer, ident)
        else:
            status, headers, data = request(conn, method, path, body)
        latency = time.perf_counter() - started
        return {"kind": kind, "latency": latency, "traced": traced,
                "ok": self._check(op, status, headers, data),
                "dedup": headers.get("X-Repro-Dedup", ""), "events": events}

    def _check(self, op, status, headers, data) -> bool:
        if status != 200:
            return False
        kind = op["kind"]
        if kind == "health":
            return json.loads(data).get("ok") is True
        if kind == "report":
            return (headers.get("X-Repro-Dedup") == "miss"
                    and data.rstrip().endswith(b"</html>"))
        want_dedup = "miss" if kind == "miss" else "done"
        return (headers.get("X-Repro-Dedup") == want_dedup
                and harness.sha256_text(data.decode("utf-8"))
                == self.expected[op["base"]])

    def _client(self, deadline: float, results: list) -> None:
        conn = self.server.connect()
        try:
            while time.perf_counter() < deadline:
                seq, op = self._next()
                started = time.perf_counter()
                try:
                    results.append(self._run_op(conn, seq, op))
                except (OSError, http.client.HTTPException):
                    # a dropped or garbled exchange is a failed op; the
                    # next op starts on a fresh connection
                    results.append({"kind": op["kind"], "ok": False,
                                    "traced": False, "dedup": "",
                                    "events": 0, "latency":
                                    time.perf_counter() - started})
                    conn.close()
                    conn = self.server.connect()
        finally:
            conn.close()

    def run(self, seconds: float) -> float:
        results = [[] for _ in range(CLIENTS)]
        started = time.perf_counter()
        deadline = started + seconds
        threads = [threading.Thread(target=self._client,
                                    args=(deadline, results[i]))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        self.ops = [op for chunk in results for op in chunk]
        return wall


# ----------------------------------------------------------------- measure


def _setup_once(args, work: Path, env: dict, rep: int):
    started = time.perf_counter()
    _, manifest = harness.run_child(
        [__file__, "setup", "--seed", str(args.seed), "--size", args.size,
         "--out", str(work / f"setup-{rep}")],
        env=env, timeout=120,
    )
    server = Server(work, env)
    try:
        conn = server.connect()
        warm_ok = True
        # warm: every repeat-upload trace computed once (later repeats are
        # dedup hits), and one report so its lazy imports are loaded
        for entry in manifest["pools"]["analyze"]:
            status, headers, data = request(
                conn, "POST", "/v1/analyze", Path(entry["path"]).read_bytes())
            warm_ok &= (status == 200 and harness.sha256_text(
                data.decode("utf-8")) == entry["envelope_sha256"])
        first = manifest["pools"]["report"][0]
        status, _, _ = request(conn, "POST", "/v1/report", _renamed(
            Path(first["path"]).read_bytes(), first["name"] + "~warm"))
        warm_ok &= status == 200
        conn.close()
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - started, manifest, server, warm_ok


def measure(args, work: Path, env: dict) -> dict:
    reps = []
    server = None
    try:
        for rep in range(harness.SETUP_REPS):
            if server is not None:
                server.stop()
            wall, manifest, server, warm_ok = _setup_once(args, work, env,
                                                          rep)
            reps.append((wall, manifest, server.start_s, warm_ok))
        manifest = reps[-1][1]
        pools = manifest["pools"]
        blobs = {kind: [Path(e["path"]).read_bytes() for e in entries]
                 for kind, entries in pools.items()}
        expected = [e["envelope_sha256"] for e in pools["analyze"]]
        # every set-up must record the same pools and expect the same replies
        setups_agree = len({
            tuple((e["sha256"], e.get("envelope_sha256"))
                  for kind in sorted(m["pools"]) for e in m["pools"][kind])
            for _, m, _, _ in reps
        }) == 1

        control = server.connect()
        before_jobs = _health(control)
        before_latency = _server_latency(control)
        harness.reset_peak_rss(server.proc.pid)

        tracer = harness.Tracer(bool(args.trace))
        loop = Loop(server, pools, blobs, expected, args.seed, tracer)
        wall = loop.run(args.seconds)

        rss = harness.peak_rss_mb(server.proc.pid)
        time.sleep(0.1)  # let the handler threads record their last request
        after_latency = _server_latency(control)
        after_jobs = _health(control)
        control.close()
    finally:
        if server is not None:
            server.stop()

    ops = loop.ops
    attempted = len(ops)
    ok = sum(op["ok"] for op in ops)
    fresh = sum(op["kind"] in ("miss", "report") for op in ops)
    computed = after_jobs["computed"] - before_jobs["computed"]
    latencies = [op["latency"] for op in ops]
    end_to_end = {
        "setup_s": harness.median([r[0] for r in reps]),
        "peak_rss_mb": rss,
        "ok_ratio": ok / attempted,
        "events_per_s": sum(op["events"] for op in ops) / wall,
        "ops_per_s": attempted / wall,
        "p50_ms": harness.percentile(latencies, 0.50) * 1e3,
        "p90_ms": harness.percentile(latencies, 0.90) * 1e3,
    }
    by_kind = {kind: [op["latency"] * 1e3 for op in ops if op["kind"] == kind]
               for kind, _ in MIX}
    correct = (ok == attempted and computed == fresh and setups_agree
               and all(r[3] for r in reps) and manifest["renaming_neutral"])
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - ok,
        "end_to_end": end_to_end,
        "details": {"wall_s": wall,
                    "ops_by_kind": {k: len(v) for k, v in by_kind.items()},
                    "p50_p90_ms_by_kind": {
                        k: [harness.percentile(v, 0.5),
                            harness.percentile(v, 0.9)]
                        for k, v in by_kind.items() if v},
                    "fresh": fresh, "computed": computed,
                    "setup_walls_s": [r[0] for r in reps]},
    }
    if args.trace:
        out["per_layer"] = _per_layer(ops, by_kind, reps, before_latency,
                                      after_latency, computed)
        out["tracer"] = tracer
    return out


def _server_mean_ms(before, after, endpoint) -> float:
    b, a = before.get(endpoint, {}), after.get(endpoint, {})
    count = a.get("count", 0) - b.get("count", 0)
    total = a.get("sum", 0) - b.get("sum", 0)
    return total / count if count else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _per_layer(ops, by_kind, reps, before, after, computed) -> dict:
    server_health = _server_mean_ms(before, after, "health")
    server_analyze = _server_mean_ms(before, after, "analyze")
    analyze_ms = by_kind["hit"] + by_kind["miss"]
    uploads = [op for op in ops if op["kind"] != "health"]
    health_traced = [op["latency"] * 1e3 for op in ops
                     if op["kind"] == "health" and op["traced"]]
    health_plain = [op["latency"] * 1e3 for op in ops
                    if op["kind"] == "health" and not op["traced"]]

    def p50(values):
        return harness.percentile(values, 0.5) if values else 0.0

    return {
        "serve.start_s": harness.median([r[2] for r in reps]),
        "serve.health_p50_ms": p50(by_kind["health"]),
        "serve.hit_p50_ms": p50(by_kind["hit"]),
        "serve.miss_p50_ms": p50(by_kind["miss"]),
        "serve.report_p50_ms": p50(by_kind["report"]),
        "serve.server_health_ms": server_health,
        "serve.server_analyze_ms": server_analyze,
        "serve.unattributed_health_ms": _mean(by_kind["health"]) - server_health,
        "serve.unattributed_analyze_ms": _mean(analyze_ms) - server_analyze,
        "serve.compute_ms": harness.median([r[1]["compute_ms"] for r in reps]),
        "serve.dedup_hit_ratio": (
            sum(op["dedup"] == "done" for op in uploads) / len(uploads)
            if uploads else 0.0
        ),
        "serve.computed": computed,
        "bench.trace_overhead_ms": p50(health_traced) - p50(health_plain),
    }


if __name__ == "__main__":
    sys.exit(harness.setup_main(setup, sys.argv[1:]))
