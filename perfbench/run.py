"""Benchmark for tlimm.  Run from the root of a checkout:

    python3 perfbench/run.py --workload gate|tables7|session --seed N \\
        --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (child.py), one after
another, one process and one thread at a time.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
Every answer is checked; a run with a failed check prints no timings and
exits with code 1.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the run,
with every pass, goes to .perfbench-out/ in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench-out"
RUN_LIMIT_S = 170.0

# workload: (seconds one pass takes on a 2-core x86 machine, fewest passes,
# extra set-up-only passes).  The pass count is fixed by --seconds and these
# numbers, not by the clock, so every run of a workload does the same work.
PLAN = {
    "gate": (13.0, 2, 14),
    "tables7": (8.0, 3, 1),
    "session": (8.0, 3, 1),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_BEYOND = 10


class BenchmarkError(Exception):
    """The benchmark itself could not produce a measurement."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_lines(latencies: list[float]) -> list[str]:
    """Median and p99 query latency with the sample count; p99 only when at
    least MIN_BEYOND samples lie beyond it."""
    p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
    beyond = sum(1 for v in latencies if v > p99)
    lines = [f"query_p50_ms {p50:.6g} ms ({len(latencies)} samples)"]
    if beyond >= MIN_BEYOND:
        lines.append(f"query_p99_ms {p99:.6g} ms ({len(latencies)} samples, {beyond} beyond)")
    else:
        lines.append(f"query_p99_ms not reported: only {beyond} samples beyond it")
    return lines


def git_revision() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlimm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_child(deadline: float, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for pass {args}")
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"pass {args} did not finish in {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"pass {args} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(name: str, passes: list[dict], probes: list[dict]) -> tuple[float, str]:
    """A metric's median over the passes (set-up also over the set-up-only
    passes) and a note saying what it is the median of."""
    runs = passes + probes if name == "setup_s" else passes
    what = "set-ups" if name == "setup_s" else "passes"
    return statistics.median(p[name] for p in runs), f"median of {len(runs)} {what}"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Counters read at the boundaries come from untraced passes, where
    tracing cannot move the garbage collector; span metrics exist only in
    traced passes."""
    values = {}
    for name, _ in spans.per_layer_metrics():
        found = ([p["layers"][name] for p in untraced if name in p["layers"]]
                 or [p["layers"][name] for p in traced if name in p["layers"]])
        if found:
            values[name] = statistics.median(found)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tlimm" / "__init__.py").is_file():
        print(f"perfbench: no tlimm source at {ROOT / 'src' / 'tlimm'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    nominal, fewest, probe_count = PLAN[args.workload]
    count = max(fewest, round(args.seconds / nominal))
    traced_flags = [bool(args.trace) and k % 2 == 1 for k in range(count)]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    passes: list[dict] = []
    probes: list[dict] = []
    try:
        # Untimed: compiles the library to bytecode and warms the file cache.
        # gate's set-up is the import alone, so this builds no table.
        run_child(deadline, "--workload", "gate", "--seed", str(args.seed), "--setup-only")
        for k, traced in enumerate(traced_flags):
            # Paired untraced and traced passes share their inputs.
            index = k // 2 if args.trace else k
            extra = ["--trace", "1", "--spans-out", str(OUT / f"{stem}-pass{k}.spans.tsv")] if traced else []
            passes.append(run_child(deadline, *common, "--index", str(index), *extra))
            passes[-1]["traced"] = traced
        for _ in range(0 if args.trace else probe_count):
            probes.append(run_child(deadline, *common, "--setup-only"))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "passes": len(passes),
        "traced_passes": sum(traced_flags),
        "setup_only_passes": len(probes),
        "attempted": attempted,
        "failed": failed,
    }
    print("info " + json.dumps(record))
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    metrics: dict = {}
    if failed:
        for p in passes:
            for message in p["failures"]:
                print(f"FAILED: {message}", file=sys.stderr)
    elif args.trace:
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        units = dict(spans.per_layer_metrics())
        for name, value in per_layer(untraced, traced).items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name} {value:.6g} {units[name]}")
    else:
        for name, unit in END_TO_END:
            value, note = end_to_end(name, passes, probes)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit} ({note})")
        print("plain wall time (no host-speed correction): setup_s "
              f"{statistics.median(p['raw_setup_s'] for p in passes + probes):.6g} s, wall_s "
              f"{statistics.median(p['raw_wall_s'] for p in passes):.6g} s; median host speed "
              f"{statistics.median(p['host_speed'] for p in passes):.4g}")
        latencies = [v for p in passes for v in p["latencies_ms"]]
        if latencies:
            print("\n".join(latency_lines(latencies)))

    record.update(metrics=metrics, pass_results=passes, probe_results=probes)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
