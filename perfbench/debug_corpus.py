"""Workload ``debug-corpus``: the full PERFPLAY pipeline, one trace file per op.

One op is ``api.debug(path)`` followed by ``DebugReport.render()`` on a
monolithic JSONL trace.  The corpus is the five real-world models of the
paper's Table 1 plus three PARSEC models with ULCPs, each scaled so a
session takes a fraction of a second to about a second.  The seed is the
recording seed: it changes every thread interleaving, not the sizes.

Set-up (recording and dumping the corpus) runs in child processes, so the
measuring process's peak RSS never sees it.  The reference output of
every input is the report of the in-memory recorded trace, rendered in
the untimed warm-up pass; every timed op must reproduce it byte for byte
from the file.

    python3 perfbench/debug_corpus.py setup --seed N --size full --out DIR
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: (model, scale); about 127k events and 5.5 s per pass on a 2-core x86
#: host, sessions of 0.3 s (transmissionBT) to 1.1 s (fluidanimate)
CORPUS = {
    "full": [
        ("mysql", 16), ("openldap", 64), ("pbzip2", 16), ("handbrake", 4),
        ("transmissionBT", 64), ("fluidanimate", 4), ("dedup", 4), ("vips", 3),
    ],
    "small": [
        ("mysql", 2), ("openldap", 8), ("pbzip2", 2), ("handbrake", 1),
        ("transmissionBT", 8), ("fluidanimate", 1), ("dedup", 1), ("vips", 1),
    ],
}


# ------------------------------------------------------------------ set-up


def setup(seed: int, size: str, out: Path) -> dict:
    """Record and dump the corpus (runs in its own interpreter)."""
    from repro import api
    from repro.trace import serialize

    out.mkdir(parents=True, exist_ok=True)
    record_s = dump_s = 0.0
    files = []
    for model, scale in CORPUS[size]:
        started = time.perf_counter()
        trace = api.record(model, scale=scale, seed=seed)
        recorded = time.perf_counter()
        path = out / f"{model}.jsonl"
        serialize.dump(trace, path)
        record_s += recorded - started
        dump_s += time.perf_counter() - recorded
        files.append({"name": model, "path": str(path), "events": len(trace),
                      "sha256": harness.sha256_file(path)})
    return {"files": files, "record_s": record_s, "dump_s": dump_s}


def _run_setups(args, work: Path, env: dict):
    reps = []
    for rep in range(harness.SETUP_REPS):
        out = work / f"setup-{rep}"
        wall, manifest = harness.run_child(
            [__file__, "setup", "--seed", str(args.seed), "--size", args.size,
             "--out", str(out)],
            env=env, timeout=120,
        )
        reps.append((wall, manifest))
    # every set-up must write the same bytes: recording is deterministic
    digests = {tuple(f["sha256"] for f in m["files"]) for _, m in reps}
    return reps, len(digests) == 1


# --------------------------------------------------------------------- ops


def _rank(result, original, free):
    from repro.perfdebug.metrics import (
        evaluate_pairs,
        performance_degradation,
        resource_wasting,
    )
    from repro.perfdebug.fusion import fuse
    from repro.perfdebug.recommend import recommend

    performances = evaluate_pairs(result, original, free)
    fused = fuse(performances)
    recommendations = recommend(fused)
    t_pd = performance_degradation(original, free)
    t_rw = resource_wasting(performances, t_pd)
    races = []
    if original.final_memory != free.final_memory:
        from repro.races.happens_before import transformed_trace_races

        races = transformed_trace_races(result)
    return performances, fused, recommendations, t_pd, t_rw, races


def traced_session(tracer, path: str, ident: str) -> dict:
    """The op split at every layer's public entry point, each call timed.

    The session mirrors ``PerfPlay.analyze`` and does the plain op's work;
    its rendered report must equal the untimed reference like any other
    op's.  The benign-off scan runs first, on a trace object of its own:
    a columnar core memoizes its scan, so sharing one would hide the scan
    from the session's full analysis.
    """
    from repro.analysis.pairs import analyze_pairs
    from repro.analysis.transform import transform
    from repro.perfdebug.framework import DebugReport
    from repro.replay.replayer import Replayer
    from repro.replay.schemes import ELSC_S
    from repro.trace import serialize

    timed = harness.timed
    with tracer.span("bench.probe", ident):
        probe = serialize.load(path)
        probe.columnar()
        _, scan_s = timed(tracer, "analysis.scan", analyze_pairs, probe,
                          benign_detection=False)
        del probe
    harness.settle()
    with tracer.span("bench.session", ident) as session:
        trace, load_s = timed(tracer, "trace.load", serialize.load, path)
        _, intern_s = timed(tracer, "trace.intern", trace.columnar)
        analysis, pairs_s = timed(tracer, "analysis.pairs", analyze_pairs,
                                  trace, benign_detection=True)
        result, transform_s = timed(tracer, "analysis.transform", transform,
                                    trace, analysis=analysis)
        replayer = Replayer(jitter=0.0)
        original, original_s = timed(tracer, "replay.original",
                                     replayer.replay, trace, scheme=ELSC_S)
        free, free_s = timed(tracer, "replay.free",
                             replayer.replay_transformed, result)
        ranked, rank_s = timed(tracer, "perfdebug.rank", _rank, result,
                               original, free)
        performances, fused, recommendations, t_pd, t_rw, races = ranked
        report = DebugReport(
            trace=trace, transform_result=result, original_replay=original,
            free_replay=free, pair_performances=performances, fused=fused,
            recommendations=recommendations, t_pd=t_pd, t_rw=t_rw,
            data_races=races,
        )
        text, render_s = timed(tracer, "perfdebug.render", report.render)
    breakdown = analysis.breakdown
    return {
        "digest": harness.sha256_text(text),
        "session_s": session["dur"] / 1e9,
        "times": {
            "trace.load_s": load_s,
            "trace.intern_s": intern_s,
            "analysis.scan_s": scan_s,
            "analysis.benign_s": pairs_s - scan_s,
            "analysis.transform_s": transform_s,
            "replay.original_s": original_s,
            "replay.free_s": free_s,
            "perfdebug.rank_s": rank_s,
            "perfdebug.render_s": render_s,
        },
        "counts": {
            "trace.events": len(trace),
            "analysis.pairs": len(analysis.pairs),
            "analysis.ulcps": len(analysis.ulcps),
            "analysis.benign": breakdown.benign,
            "analysis.benign_tested": breakdown.benign + breakdown.tlcp,
            "transform.events_out": len(result.trace),
        },
    }


def plain_op(path: str) -> str:
    from repro import api

    return harness.sha256_text(api.debug(path).render())


# ----------------------------------------------------------------- measure


def measure(args, work: Path, env: dict) -> dict:
    from repro import api

    reps, setups_agree = _run_setups(args, work, env)
    files = reps[-1][1]["files"]

    # untimed warm-up on the in-memory recorded traces: fills the uid-order
    # cache and the lazy imports, and fixes each input's reference digest
    reference = {}
    for model, scale in CORPUS[args.size]:
        trace = api.record(model, scale=scale, seed=args.seed)
        reference[model] = harness.sha256_text(api.debug(trace).render())
        del trace
        harness.settle()

    tracer = harness.Tracer(bool(args.trace))
    latencies = {f["name"]: [] for f in files}
    traced = {f["name"]: [] for f in files}
    attempted = ok = 0
    harness.reset_peak_rss()
    started = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - started < args.seconds:
        for entry in files:
            name = entry["name"]
            if args.trace:
                harness.settle()
                session = traced_session(tracer, entry["path"],
                                         f"{name}#{passes}")
                traced[name].append(session)
                attempted += 1
                ok += session["digest"] == reference[name]
            harness.settle()
            op_started = time.perf_counter()
            digest = plain_op(entry["path"])
            latencies[name].append(time.perf_counter() - op_started)
            attempted += 1
            ok += digest == reference[name]
        passes += 1
    rss = harness.peak_rss_mb()

    # every figure starts from each input's median session time: one stalled
    # op cannot swing it, and, unlike percentiles over all ops, the
    # corpus's percentiles do not move with how many passes fit in the run
    # (each model is 1/8 of the ops, so p90 over all ops sits on the edge
    # of the slowest model's block)
    medians = {name: harness.median(v) for name, v in latencies.items()}
    pass_s = sum(medians.values())
    events = sum(f["events"] for f in files)
    setup_walls = [wall for wall, _ in reps]
    end_to_end = {
        "setup_s": harness.median(setup_walls),
        "peak_rss_mb": rss,
        "ok_ratio": ok / attempted,
        "events_per_s": events / pass_s,
        "ops_per_s": len(files) / pass_s,
        "p50_ms": harness.percentile(medians.values(), 0.50) * 1e3,
        "p90_ms": harness.percentile(medians.values(), 0.90) * 1e3,
    }
    out = {
        "correct": setups_agree and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "end_to_end": end_to_end,
        "details": {"passes": passes, "pass_s": pass_s,
                    "per_input_s": medians, "events": events,
                    "setup_walls_s": setup_walls},
    }
    if args.trace:
        out["per_layer"] = _per_layer(files, traced, medians, reps)
        out["tracer"] = tracer
    return out


def _per_layer(files, traced, medians, reps) -> dict:
    layer = {
        "record.s": harness.median([m["record_s"] for _, m in reps]),
        "trace.dump_s": harness.median([m["dump_s"] for _, m in reps]),
    }
    names = list(traced[files[0]["name"]][0]["times"])
    for key in names:
        layer[key] = sum(
            harness.median([s["times"][key] for s in traced[f["name"]]])
            for f in files
        )
    # the session does the plain op's work: the difference is the tracing
    layer["bench.trace_overhead_ms"] = 1e3 * sum(
        harness.median([s["session_s"] for s in traced[f["name"]]])
        - medians[f["name"]]
        for f in files
    )
    counts = {}
    for f in files:
        for key, value in traced[f["name"]][0]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    benign = counts.pop("analysis.benign")
    counts["analysis.benign_yield"] = (
        benign / counts["analysis.benign_tested"]
        if counts["analysis.benign_tested"] else 0.0
    )
    layer.update(counts)
    return layer


if __name__ == "__main__":
    sys.exit(harness.setup_main(setup, sys.argv[1:]))
