"""Self-test of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_a_span_nest():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert spans.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_summary_sums_spans_per_name():
    # f [0, 10] holds g [2, 3] and g [4, 6].
    names = ["f", "g"]
    name_ids = [0, 1, 1]
    starts = [0.0, 2.0, 4.0]
    ends = [10.0, 3.0, 6.0]
    parents = [-1, 0, 0]
    summary = spans.summarize(names, name_ids, starts, ends, parents)
    assert summary["f"] == {"s": 10.0, "self_s": 7.0, "calls": 1}
    assert summary["g"] == {"s": 3.0, "self_s": 3.0, "calls": 2}


def test_rebound_import_nests_spans():
    from tlimm import classify, immanant

    original = classify.percent_immanant
    tracer = spans.Tracer()
    tracer.install()
    try:
        # decompose validates at n <= 6 through the names classify imported
        # from immanant, which only rebinding reaches.
        classify.decompose((2, 1, 4, 3))
    finally:
        tracer.uninstall()
    assert classify.percent_immanant is original is immanant.percent_immanant
    names = [tracer.names[k] for k in tracer.name_ids]
    root = names.index("classify.decompose")
    assert tracer.parents[root] == -1
    nested = [i for i, name in enumerate(names) if name == "immanant.percent_immanant"]
    assert len(nested) == 2
    assert all(tracer.parents[i] == root for i in nested)
    table = names.index("tl.theta_table")
    assert names[tracer.parents[table]] == "immanant.tl_immanant"


def test_span_cost_is_small_and_positive():
    cost = spans.span_cost(calls=2000)
    assert 0.0 <= cost < 1e-3


def test_corrected_clock_rescales_each_slice(monkeypatch):
    # Two samples: the first slice [0, 10] ran at half speed (the probe took
    # twice the reference), the second [10.5, 20.5] at full speed.  Each
    # sample's probes take 0.5 s, which no reading counts.
    readings = iter([10.0, 10.5, 20.5, 21.0])
    probes = iter([2.0, 2.0, 1.0, 1.0])
    monkeypatch.setattr(clock, "perf_counter", lambda: next(readings))
    monkeypatch.setattr(clock, "probe", lambda: next(probes))
    c = clock.SpeedClock(ref=1.0)
    c._sample()
    c._sample()
    assert c.raw(0.0, 21.0) == 20.0
    assert c.corrected(0.0, 21.0) == 10.0 * 0.5 + 10.0
    assert c.corrected(5.0, 15.0) == 5.0 * 0.5 + 4.5
    assert c.corrected(10.2, 10.4) == 0.0  # inside the first probes
    assert c.corrected(21.0, 30.0) == 0.0  # after the last sample


def test_corrected_clock_samples_a_busy_loop():
    c = clock.SpeedClock(interval=0.01)
    c.start()
    start = clock.perf_counter()
    while clock.perf_counter() - start < 0.2:
        pass
    end = clock.perf_counter()
    c.stop()
    assert len(c.marks) >= 5
    assert 0.0 < c.raw(start, end) <= end - start
    assert c.corrected(start, end) > 0.0


def test_a_wrong_session_answer_fails_its_check():
    import workloads

    args = ((2, 1, 4, 3), (4, 3, 2, 1))  # f_w(u) = 2
    problems = []
    workloads._check_coeff(args, 2, problems)
    assert problems == []
    workloads._check_coeff(args, 3, problems)
    assert len(problems) == 1


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 201)]
    assert run.percentile(values, 0.50) == 100.0
    assert run.percentile(values, 0.99) == 198.0
    assert run.percentile(values, 1.0) == 200.0
    assert run.latency_lines(values)[1].startswith("query_p99_ms not reported")


def test_benchmark_file_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(run.PLAN)
