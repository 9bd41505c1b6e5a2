"""One pass of one workload in a fresh interpreter, so the library's lru
caches start cold as in every real invocation.  run.py starts this script
with ``src`` on PYTHONPATH; it prints one JSON object on standard output.

    python3 perfbench/child.py --workload gate --seed 1 --index 0 --trace 0
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import clock


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    # Times are taken on the host-speed-corrected clock (see clock.py).
    speed = clock.SpeedClock()

    # setup_s: importing the library plus the workload's own set-up.
    speed.start()
    t0 = time.perf_counter()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.index)
    workload.setup()
    t1 = time.perf_counter()

    src = Path(__file__).resolve().parent.parent / "src"
    loaded = Path(sys.modules["tlimm"].__file__).resolve()
    if src not in loaded.parents:
        print(f"tlimm was imported from {loaded}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": speed.corrected(t0, t1), "raw_setup_s": speed.raw(t0, t1)}))
        return 0

    workload.prepare()
    counters = spans.Counters()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    counters.start()
    answers, intervals = workload.run()
    counters.stop()
    if tracer:
        tracer.uninstall()
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below runs after the clock, the counters and the tracer.
    outcome = workload.check(answers)
    terms = workloads.theta_terms(workload.table_sizes)
    if terms.get(7) != workloads.THETA_TERMS_7:
        outcome.fail(f"theta_table(7) stores {terms.get(7)} terms, "
                     f"expected {workloads.THETA_TERMS_7}")
    layers = counters.metrics()
    layers["tl.theta_table.terms"] = terms[7]
    layers["tl.theta_table.terms_all"] = sum(terms.values())
    layers.update({f"verify.{s}.checks": outcome.checks_by_suite.get(s, 0)
                   for s in spans.SUITES})
    if tracer:
        for name, entry in tracer.summary().items():
            layers.update({f"{name}.{key}": value for key, value in entry.items()})
        layers["trace.spans"] = len(tracer.starts)
        layers["trace.span_cost_s"] = len(tracer.starts) * spans.span_cost()
        if args.spans_out:
            tracer.write(args.spans_out)

    print(json.dumps({
        "setup_s": speed.corrected(t0, t1),
        "raw_setup_s": speed.raw(t0, t1),
        "wall_s": sum(speed.corrected(a, b) for a, b in intervals),
        "raw_wall_s": sum(speed.raw(a, b) for a, b in intervals),
        "host_speed": statistics.median(speed.speeds),
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "latencies_ms": ([speed.corrected(a, b) * 1000 for a, b in intervals]
                         if len(intervals) > 1 else []),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
