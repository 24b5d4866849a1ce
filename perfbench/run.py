"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh
interpreter (fixed ``PYTHONHASHSEED``, ``src`` of the checkout on the
path, temp files under ``.perfbench/``); this process only supervises it
and reports.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
of the traced run (``--trace 1``).  The line before it is the run's
fingerprint (host, CPUs, Python, numpy, kernel backend, commit, seed);
``.perfbench/runs/`` keeps the full record of each run and, for traced
runs, the spans as Chrome-trace JSON (loadable in Perfetto).

Workloads (see each module's docstring): ``debug-corpus``,
``stream-scan`` and ``serve-mixed``.  An op is one debugging session
(``api.debug`` + ``render``) on ``debug-corpus``, one streaming
``api.analyze`` call on ``stream-scan`` and one HTTP request on
``serve-mixed``.  Every workload reports every end-to-end metric:

* ``setup_s`` — median over three complete set-ups in the run;
* ``peak_rss_mb`` — peak RSS of the process doing the work (the server
  on ``serve-mixed``) over the measured phase only;
* ``ok_ratio`` — ops whose output passed the check / ops attempted;
* ``events_per_s`` — trace events processed per second: on the batch
  workloads each input's median op time over the run's passes, summed;
  on ``serve-mixed`` the events of the fresh uploads the server computed;
* ``ops_per_s`` — ops completed per second, with the same medians on the
  batch workloads and the closed loop's completed requests on
  ``serve-mixed`` (measured, never the offered rate);
* ``p50_ms``, ``p90_ms`` — op latency percentiles; on ``debug-corpus``
  over the inputs' median session times.

``perfbench/selftest.py`` checks the benchmark itself on reduced inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = {
    "debug-corpus": "debug_corpus",
    "stream-scan": "stream_scan",
    "serve-mixed": "serve_mixed",
}

#: the workload process must finish well inside the 180 s run limit
WORKER_TIMEOUT_S = 170


def _out_dir(root: Path) -> Path:
    return root / ".perfbench" / "runs"


def _fingerprint(root: Path, seed: int) -> dict:
    """Where and on what a run measured: tells host drift from regressions."""
    import numpy
    from repro import kernels

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text(encoding="utf-8").strip() \
                if target.is_file() else ref[5:]
        else:
            commit = ref
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return {
        "host": platform.node(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def worker(argv) -> int:
    """The workload process: set up, measure, check; print one JSON line."""
    args = harness.parse_args(argv)
    root = Path.cwd()
    module = importlib.import_module(WORKLOADS[args.workload])
    env = harness.bench_env(root, args.work)
    result = module.measure(args, args.work, env)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans = _out_dir(root) / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.write_chrome(spans, {"workload": args.workload,
                                    "seed": args.seed})
        result["spans"] = str(spans.relative_to(root))
    result["fingerprint"] = _fingerprint(root, args.seed)
    harness.emit(result)
    return 0


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of the workload's process group; wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def main(argv) -> int:
    if argv[:1] == ["--worker"]:
        return worker(argv[1:])
    args = harness.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    env = harness.bench_env(root, work)
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", *argv, "--work", str(work)],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in "
              f"{WORKER_TIMEOUT_S} s", file=sys.stderr)
        stdout = None
    finally:
        # the workload, its set-up children and any server: all one group
        proc.kill()
        proc.wait()
        _stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not stdout:
        print(f"perfbench: {args.workload} failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    result = json.loads(stdout.strip().splitlines()[-1])
    if args.trace:
        values = result.get("per_layer", {})
        units = harness.PER_LAYER_UNITS
    else:
        values = result["end_to_end"]
        units = harness.END_TO_END_UNITS
    metrics = {name: harness.metric(values.get(name, 0), unit)
               for name, unit in units.items()}
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, metrics=metrics)
    out = _out_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    if result.get("spans"):
        print("spans: " + result["spans"])
    harness.emit({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
