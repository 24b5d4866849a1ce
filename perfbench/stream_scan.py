"""Workload ``stream-scan``: streaming ``api.analyze`` over one segmented file.

The input is one segmented trace (``.seg.jsonl.gz``) of about a million
events in the "conflict" shape: two threads, one short critical section
every 100 events, alternating between a write lock whose sections all
write one shared field and a read lock whose sections only read.  Every
write pair fails Algorithm 1, so both the scan pass and the benign-
evidence pass stream the whole file, and segment decoding dominates.

The generator's shape fixes every count analytically, and the check
compares each op's analysis against them: with ``S`` sections, write
pairs and read pairs alternate threads, so there are ``S - 2`` pairs,
``floor(S/2) - 1`` read-read ULCPs and ``ceil(S/2) - 1`` TLCPs.  The seed
picks the names (threads, locks, fields) and the exact event count.

    python3 perfbench/stream_scan.py setup --seed N --size full --out PATH
"""

from __future__ import annotations

import gzip
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SECTION_PERIOD = 100
SEGMENT_EVENTS = 65536
EVENTS = {"full": 1_000_000, "small": 120_000}


def shape(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    return {
        "events": EVENTS[size] + SECTION_PERIOD * rng.randrange(64),
        "threads": (f"w{tag}0", f"w{tag}1"),
        "write_lock": f"L_{tag}_w",
        "read_lock": f"L_{tag}_r",
        "hot": f"obj_{tag}.hot",
        "shared": f"obj_{tag}.shared",
    }


def _sections(total: int) -> int:
    count = 0
    while count * SECTION_PERIOD + 2 < total:
        count += 1
    return count


def expected(spec: dict) -> dict:
    """The analysis the generator implies, counted from its shape."""
    sections = _sections(spec["events"])
    writes, reads = (sections + 1) // 2, sections // 2
    return {
        "events": spec["events"],
        "sections": sections,
        "pairs": sections - 2,
        "ulcps": reads - 1,
        "breakdown": {"null_lock": 0, "read_read": reads - 1,
                      "disjoint_write": 0, "benign": 0, "tlcp": writes - 1},
    }


def generate(spec: dict, path: Path) -> dict:
    """Stream the conflict-shaped workload into a segmented file."""
    from repro.trace.segments import SegmentedTraceWriter
    from repro.trace.trace import TraceMeta

    total = spec["events"]
    threads = spec["threads"]
    sections = _sections(total)
    locks = (spec["write_lock"], spec["read_lock"])
    schedule = {lock: [] for lock in locks}
    for s in range(sections):
        schedule[locks[s % 2]].append(f"e{s * SECTION_PERIOD}")
    writer = SegmentedTraceWriter(
        path,
        meta=TraceMeta(name="perfbench-stream-scan", lock_cost=0, mem_cost=0),
        threads=list(threads),
        lock_schedule=schedule,
        segment_events=SEGMENT_EVENTS,
    )
    n0 = 0
    while n0 < total:
        s = n0 // SECTION_PERIOD
        count = min(SECTION_PERIOD, total - n0)
        tid = threads[(s // 2) % 2]
        uids = [f"e{k}" for k in range(n0, n0 + count)]
        ts = list(range(n0 * 10, (n0 + count) * 10, 10))
        body = 0
        if s < sections:
            lock = locks[s % 2]
            if s % 2 == 0:
                mem = ("write", spec["hot"], s)
            else:
                mem = ("read", spec["shared"], 0)
            writer.add_block(
                tid,
                uids=uids[:3],
                kinds=["acquire", mem[0], "release"],
                t=ts[:3],
                t_request=[ts[0], 0, 0],
                lock=[lock, "", lock],
                addr=["", mem[1], ""],
                value=[0, mem[2], 0],
                # the reversed-replay benign test re-executes writes, so
                # they carry their encoded Store (block index 1)
                op={1: ("store", mem[2])} if mem[0] == "write" else None,
            )
            body = 3
        if count > body:
            writer.add_block(tid, uids=uids[body:], kinds="compute",
                             t=ts[body:], duration=10)
        n0 += count
    index = writer.close()
    return {"segments": len(index.segments), "events": index.events}


def setup(seed: int, size: str, out: Path) -> dict:
    out.parent.mkdir(parents=True, exist_ok=True)
    spec = shape(seed, size)
    started = time.perf_counter()
    info = generate(spec, out)
    info["generate_s"] = time.perf_counter() - started
    info["path"] = str(out)
    info["file_bytes"] = out.stat().st_size
    info["sha256"] = harness.sha256_file(out)
    return info


# --------------------------------------------------------------------- ops


def _summary(analysis) -> dict:
    b = analysis.breakdown
    return {
        "events": analysis.events,
        "sections": len(analysis.sections),
        "pairs": len(analysis.pairs),
        "ulcps": len(analysis.ulcps),
        "breakdown": {"null_lock": b.null_lock, "read_read": b.read_read,
                      "disjoint_write": b.disjoint_write, "benign": b.benign,
                      "tlcp": b.tlcp},
    }


def _inflate(path: str) -> int:
    total = 0
    with gzip.open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            total += len(block)
    return total


def _decode(path: str) -> int:
    from repro.trace.segments import open_segmented

    with open_segmented(path) as reader:
        return sum(segment.events for segment in reader.segments())


def plain_op(path: str):
    from repro import api

    return api.analyze(path)


def traced_session(tracer, path: str, ident: str) -> dict:
    from repro import api
    from repro.options import AnalyzeOptions

    timed = harness.timed
    with tracer.span("bench.session", ident):
        _, inflate_s = timed(tracer, "trace.inflate", _inflate, path)
        _, read_s = timed(tracer, "trace.decode", _decode, path)
        _, scan_s = timed(tracer, "analysis.stream_scan", api.analyze, path,
                          AnalyzeOptions(benign_detection=False))
        analysis, full_s = timed(tracer, "analysis.stream_full", api.analyze,
                                 path)
    return {
        "summary": _summary(analysis),
        "full_s": full_s,
        "times": {
            "trace.inflate_s": inflate_s,
            "trace.decode_s": read_s - inflate_s,
            # the scan pass reads the file once: take one full read off
            "analysis.stream_scan_s": scan_s - read_s,
            "analysis.stream_benign_s": full_s - scan_s,
        },
    }


# ----------------------------------------------------------------- measure


def measure(args, work: Path, env: dict) -> dict:
    reps = []
    for rep in range(harness.SETUP_REPS):
        out = work / f"setup-{rep}" / "stream.seg.jsonl.gz"
        reps.append(harness.run_child(
            [__file__, "setup", "--seed", str(args.seed), "--size", args.size,
             "--out", str(out)],
            env=env, timeout=120,
        ))
    info = reps[-1][1]
    setups_agree = len({m["sha256"] for _, m in reps}) == 1
    path = info["path"]
    want = expected(shape(args.seed, args.size))

    # untimed warm-up: lazy imports, the uid-order cache, the page cache
    warm = _summary(plain_op(path))
    harness.settle()

    tracer = harness.Tracer(bool(args.trace))
    latencies, sessions = [], []
    attempted = ok = 0
    harness.reset_peak_rss()
    started = time.perf_counter()
    while len(latencies) < 3 or time.perf_counter() - started < args.seconds:
        if args.trace:
            harness.settle()
            session = traced_session(tracer, path, f"pass#{len(latencies)}")
            sessions.append(session)
            attempted += 1
            ok += session["summary"] == want
        harness.settle()
        op_started = time.perf_counter()
        analysis = plain_op(path)
        latencies.append(time.perf_counter() - op_started)
        attempted += 1
        ok += _summary(analysis) == want
        del analysis
    rss = harness.peak_rss_mb()

    op_s = harness.median(latencies)
    end_to_end = {
        "setup_s": harness.median([wall for wall, _ in reps]),
        "peak_rss_mb": rss,
        "ok_ratio": ok / attempted,
        "events_per_s": info["events"] / op_s,
        "ops_per_s": 1.0 / op_s,
        "p50_ms": harness.percentile(latencies, 0.50) * 1e3,
        "p90_ms": harness.percentile(latencies, 0.90) * 1e3,
    }
    out = {
        "correct": setups_agree and warm == want and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "end_to_end": end_to_end,
        "details": {"ops": len(latencies), "op_s": latencies,
                    "expected": want, "segments": info["segments"],
                    "setup_walls_s": [wall for wall, _ in reps]},
    }
    if args.trace:
        layer = {"trace.generate_s": harness.median(
            [m["generate_s"] for _, m in reps])}
        for key in sessions[0]["times"]:
            layer[key] = harness.median([s["times"][key] for s in sessions])
        layer["bench.trace_overhead_ms"] = 1e3 * (
            harness.median([s["full_s"] for s in sessions]) - op_s
        )
        b = sessions[0]["summary"]["breakdown"]
        tested = b["benign"] + b["tlcp"]
        layer.update({
            "trace.events": info["events"],
            "trace.segments": info["segments"],
            "trace.file_bytes": info["file_bytes"],
            "trace.bytes_per_event": info["file_bytes"] / info["events"],
            "analysis.pairs": sessions[0]["summary"]["pairs"],
            "analysis.ulcps": sessions[0]["summary"]["ulcps"],
            "analysis.benign_tested": tested,
            "analysis.benign_yield": b["benign"] / tested if tested else 0.0,
        })
        out["per_layer"] = layer
        out["tracer"] = tracer
    return out


if __name__ == "__main__":
    sys.exit(harness.setup_main(setup, sys.argv[1:]))
