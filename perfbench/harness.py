"""Shared plumbing for the perfbench workloads.

Everything a workload needs besides its own inputs and ops: the
command-line contract, child-process helpers, spans, percentiles, peak
RSS and the result record.  Nothing here imports ``repro`` at module
level, so ``run.py`` can refuse to start before touching the program.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: fixed for every benchmark interpreter: dict/set iteration order (and
#: so the work done) must not change between runs of one seed
HASH_SEED = "0"

#: how many times a run repeats its set-up; ``setup_s`` is the median
SETUP_REPS = 3

#: end-to-end metrics every workload reports, with their units (see
#: ``run.py`` for what an op is on each workload)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "events_per_s": "1/s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

#: per-layer metrics of the traced run.  Each workload measures its own
#: group and reports 0 for layers it does not exercise, which is the
#: prediction a change to one of those layers must respect.
PER_LAYER_UNITS = {
    # debug-corpus: the batch pipeline on monolithic JSONL
    "record.s": "s",
    "trace.dump_s": "s",
    "trace.load_s": "s",
    "trace.intern_s": "s",
    "analysis.scan_s": "s",
    "analysis.benign_s": "s",
    "analysis.transform_s": "s",
    "replay.original_s": "s",
    "replay.free_s": "s",
    "perfdebug.rank_s": "s",
    "perfdebug.render_s": "s",
    # stream-scan: segmented decode and the streaming analysis driver
    "trace.generate_s": "s",
    "trace.inflate_s": "s",
    "trace.decode_s": "s",
    "analysis.stream_scan_s": "s",
    "analysis.stream_benign_s": "s",
    "trace.segments": "count",
    "trace.file_bytes": "bytes",
    "trace.bytes_per_event": "bytes",
    # work done, both batch workloads
    "trace.events": "count",
    "analysis.pairs": "count",
    "analysis.ulcps": "count",
    "analysis.benign_tested": "count",
    "analysis.benign_yield": "ratio",
    "transform.events_out": "count",
    # serve-mixed: client latency per op class, reconciled with /metrics
    "serve.start_s": "s",
    "serve.health_p50_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.report_p50_ms": "ms",
    "serve.server_health_ms": "ms",
    "serve.server_analyze_ms": "ms",
    "serve.unattributed_health_ms": "ms",
    "serve.unattributed_analyze_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.dedup_hit_ratio": "ratio",
    "serve.computed": "count",
    # every workload: traced op time minus untraced op time
    "bench.trace_overhead_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    """The run contract: ``--workload --seed --seconds --trace``."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small = the reduced inputs of the self-test")
    parser.add_argument("--work", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_main(setup, argv) -> int:
    """``<workload>.py setup --seed N --size SIZE --out PATH``: one set-up.

    Set-up runs in its own interpreter so the measuring process never
    holds its memory; the manifest ``setup`` returns is the last stdout
    line.
    """
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    opts = parser.parse_args(argv)
    emit(setup(opts.seed, opts.size, opts.out))
    return 0


def bench_env(root: Path, work: Path) -> dict:
    """Environment for every benchmark child interpreter.

    ``src`` of the checkout on the path, a fixed hash seed, the default
    kernel backend, and a temp directory inside the run's work directory
    so nothing is written outside the checkout.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_NO_NUMPY", None)
    return env


def run_child(args, *, env: dict, timeout: float) -> tuple:
    """Run one Python child to completion: ``(wall seconds, last JSON line)``.

    The wall time covers spawn to exit — what a user pays for the step,
    interpreter start and imports included.
    """
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return wall, json.loads(lines[-1])


# ------------------------------------------------------------------ memory


def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def reset_peak_rss(pid="self") -> None:
    """Start a new peak-RSS window (``VmHWM``) for ``pid``.

    Writing ``5`` to ``clear_refs`` resets the high-water mark, so the
    measured phase's peak excludes whatever set-up and warm-up touched.
    """
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb(pid="self") -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


def settle() -> None:
    """Between ops, outside any timed region: collect garbage."""
    gc.collect()


# ------------------------------------------------------------------- stats


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ------------------------------------------------------------------- spans


class Tracer:
    """In-memory spans, written once as Chrome-trace JSON at the end.

    A span is ``<layer>.<call>``; it records its parent (the enclosing
    span on the same thread) and the id of the session or request it
    belongs to.  With ``enabled=False`` every call is a bare pass-through,
    which is how the end-to-end runs measure.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter_ns()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, ident: str = ""):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "id": ident or (parent["id"] if parent else ""),
            "parent": parent["index"] if parent else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns() - self._origin,
            "dur": 0,
        }
        with self._lock:
            record["index"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["dur"] = time.perf_counter_ns() - self._origin - record["start"]
            stack.pop()

    def self_ns(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["dur"]
        return [r["dur"] - c for r, c in zip(self.spans, covered)]

    def layer_self_s(self) -> dict:
        totals: dict = {}
        for record, own in zip(self.spans, self.self_ns()):
            layer = record["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0) + own
        return {layer: ns / 1e9 for layer, ns in sorted(totals.items())}

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Perfetto-loadable trace: one complete (``ph: X``) event per span."""
        tids = {}
        events = []
        for record, own in zip(self.spans, self.self_ns()):
            tid = tids.setdefault(record["tid"], len(tids) + 1)
            events.append({
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": record["start"] / 1000.0,
                "dur": record["dur"] / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {
                    "id": record["id"],
                    "parent": record["parent"],
                    "self_us": own / 1000.0,
                },
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, layer_self_s=self.layer_self_s()),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def timed(tracer: Tracer, name: str, fn, *args, ident: str = "", **kwargs):
    """Call ``fn`` inside a span; return ``(result, seconds)``."""
    with tracer.span(name, ident):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
    return result, elapsed


# ------------------------------------------------------------------ result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(result: dict) -> None:
    """The workload process's last stdout line: one JSON object."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()
