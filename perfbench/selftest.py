"""Self-test of the benchmark on reduced inputs (about two minutes).

    python3 perfbench/selftest.py

Runs every workload small, plain and traced, for two seeds, twice each
traced, and checks:

* every end-to-end and per-layer metric is emitted, with its unit, and
  ``BENCHMARK.json`` declares exactly these metrics;
* every run is correct: ``ok_ratio == 1.0``, nothing failed;
* the work counts of a traced run repeat exactly for the same seed;
* the traced run writes a Chrome-trace span file whose spans carry their
  session or request id and parent;
* outside a checkout (only ``BENCHMARK.json`` and ``perfbench/``) the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
SECONDS = "2"
SEEDS = (1, 2)
#: per-layer counts that depend only on the inputs (the serve tallies
#: depend on how many requests fit in the run, so they are left out)
REPEATABLE = (
    "trace.events", "trace.segments", "trace.file_bytes",
    "trace.bytes_per_event", "analysis.pairs", "analysis.ulcps",
    "analysis.benign_tested", "analysis.benign_yield", "transform.events_out",
)


class SelfTestError(Exception):
    pass


def check(condition, message) -> None:
    if not condition:
        raise SelfTestError(str(message))


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--size", "small"],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    check(proc.returncode == 0, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, units: dict, label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(result["correct"] is True, f"{label}: incorrect")
    check(result["failed"] == 0 and result["attempted"] >= 1, label)
    for name, unit in units.items():
        check(name in result["metrics"], f"{label}: no metric {name}")
        got = result["metrics"][name]
        check(got["unit"] == unit, f"{label}: {name} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {name}")
    check(set(result["metrics"]) == set(units), label)


def check_declared() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", harness.END_TO_END_UNITS),
                       ("per_layer", harness.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        check(listed == units, f"BENCHMARK.json {key} differs from harness")
    check([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")


def check_spans(workload: str, seed: int) -> None:
    path = ROOT / ".perfbench" / "runs" / f"{workload}-seed{seed}.spans.json"
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    check(events, f"{workload}: no spans")
    for event in events:
        check(event["ph"] == "X" and "." in event["name"], event)
        check(event["args"]["id"], event)
        parent = event["args"]["parent"]
        if parent is not None:
            check(events[parent]["args"]["id"] == event["args"]["id"], event)
    check(doc["otherData"]["layer_self_s"], workload)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "debug-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "ran without a program to measure")
    check("{" not in proc.stdout, "printed a result without a program")


def main() -> int:
    check_declared()
    check_bare_directory()
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            plain = result_of(bench(workload, seed, 0))
            label = f"{workload} seed {seed}"
            check_result(plain, harness.END_TO_END_UNITS, label)
            check(plain["metrics"]["ok_ratio"]["value"] == 1.0, label)
            traced = [result_of(bench(workload, seed, 1)) for _ in range(2)]
            for result in traced:
                check_result(result, harness.PER_LAYER_UNITS, label + " traced")
            counts = [{k: r["metrics"][k]["value"] for k in REPEATABLE}
                      for r in traced]
            check(counts[0] == counts[1], f"{label}: counts moved {counts}")
            check_spans(workload, seed)
            print(f"ok  {label}", flush=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
