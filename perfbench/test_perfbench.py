"""Self-tests of the benchmark harness (no stabsim job is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import trace_layers
import workloads
from trace_layers import JOB, Span, Tracer

HERE = Path(__file__).resolve().parent


def _spans():
    # job [0, 10]: build [1, 4] holding evolve [2, 3], steady [5, 9];
    # a set-up span before the job
    return [
        Span(0, None, "device.bundled_scenario", -2.0, -1.0),
        Span(1, None, JOB, 0.0, 10.0),
        Span(2, 1, "lindblad.build_liouvillian", 1.0, 4.0, {"nnz": 7}),
        Span(3, 2, "lindblad.evolve", 2.0, 3.0,
             {"rhs_evals": 5, "matvec_flops_computed": 280}),
        Span(4, 1, "lindblad.steady_state", 5.0, 9.0,
             {"residual": 1e-9, "evolved_us": 0.0}),
    ]


def test_self_time_subtracts_nested_children():
    own = trace_layers.self_times(_spans())
    assert own == {0: 1.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert trace_layers.unaccounted_s(_spans()) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, JOB, 0.0, 10.0),
             Span(1, 0, "a", 1.0, 6.0), Span(2, 0, "b", 4.0, 12.0)]
    assert trace_layers.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_sum_to_job_time():
    m = trace_layers.layer_metrics(_spans())
    assert m["trace.job_s"] == 10.0
    assert m["scenarios.self_s"] == 3.0
    assert m["lindblad.build_liouvillian_s"] == 2.0
    assert m["lindblad.evolve_s"] == 1.0
    assert m["lindblad.steady_state_s"] == 4.0
    assert m["device.bundled_scenario_s"] == 1.0
    layers = [name for _, _, name, _ in trace_layers.LAYERS
              if name != "device.bundled_scenario"]
    assert sum(m[f"{n}_s"] for n in layers) + m["scenarios.self_s"] == 10.0
    assert (m["lindblad.evolve_calls"], m["lindblad.rhs_evals"],
            m["lindblad.matvec_flops_computed"], m["lindblad.nnz"],
            m["lindblad.steady_state_calls"], m["hilbert.partial_trace_s"]) \
        == (1, 5, 280, 7, 1, 0.0)


def test_tracer_records_callers_and_counts():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda r, a: {"seen": a[0]})
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    with tracer.span(JOB):
        assert outer(3) == 8
    job, out, inn = tracer.spans
    assert (job.parent, out.parent, inn.parent) == (None, job.id, out.id)
    assert inn.counts == {"seen": 3}
    assert job.start <= out.start <= inn.start <= inn.end <= out.end <= job.end
    assert abs(trace_layers.unaccounted_s(tracer.spans)) < 1e-12


def test_failed_checks_fail_their_operations():
    diag = {"max_trace_drift": 0.0, "max_hermiticity_defect": 0.0,
            "min_eigenvalue": 0.0}
    assert workloads.check_bell(0.5, 0.5, 1e-9, 1e-6, diag) == []
    assert len(workloads.check_bell(0.5 + 2e-4, 0.5, 1e-9, 1e-6, diag)) == 1
    assert len(workloads.check_bell(0.5, 0.5, 1e-5, 1e-6,
                                    dict(diag, min_eigenvalue=-1e-3))) == 2

    freqs = [4196.0, 4197.0, 4198.0]
    pops = {"g": [0.9, 0.5, 1.2], "e": [0.1, 0.5, -0.2]}
    fails = workloads.check_spectroscopy(freqs, pops, [0.1, 0.5, 0.2], [4197.0])
    assert [bool(f) for f in fails] == [False, False, True]
    fails = workloads.check_spectroscopy(freqs[:2], {"g": [0.9, 0.5],
                                                     "e": [0.1, 0.6]},
                                         [0.1, 0.5], [4190.0])
    assert [len(f) for f in fails] == [0, 2]


def test_run_counts_failed_and_crashed_jobs(monkeypatch):
    replies = iter([{"setup_s": 0.5, "versions": {}}] * run.SETUP_PROBES + [
        {"setup_s": 0.5, "job_s": 2.0, "peak_rss_mb": 9.0, "failed": 0,
         "versions": {}},
        {"setup_s": 0.5, "job_s": 3.0, "peak_rss_mb": 9.0, "failed": 1,
         "versions": {}},
        None,  # a job process that crashed
    ])
    monkeypatch.setattr(run, "_spawn", lambda extra, deadline: next(replies))
    clock = iter(range(1, 100))  # each reading of the clock advances 1 s
    monkeypatch.setattr(run.time, "monotonic", lambda: next(clock))
    result = run.measure("bell", seed=0, seconds=6.0, trace=False)["result"]
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 3, 2)
    assert result["metrics"]["job_s"] == {"value": 2.5, "unit": "s"}


def test_every_input_weighs_the_same():
    jobs = [{"input": 0, "t": 1.0}] * 4 + [{"input": 1, "t": 3.0}]
    assert run.input_mean(jobs, lambda r: r["t"]) == 2.0


def test_seed_reproduces_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    orders = {tuple(i["initial"] for i in workloads.make_inputs("bell", s))
              for s in range(20)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(workloads.BELL_INITIAL_STATES) for o in orders)
    step = workloads.spectro_step()
    for s in range(20):
        (job,) = workloads.make_inputs("spectroscopy", s)
        freqs = job["frequencies"]
        assert len(freqs) == workloads.SPECTRO_POINTS
        assert abs(freqs[0] - workloads.SPECTRO_START_MHZ) <= step / 2
    assert (workloads.make_inputs("spectroscopy", 1)
            != workloads.make_inputs("spectroscopy", 2))


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reported = set(trace_layers.layer_metrics(_spans()))
    reported |= {"process.cpu_s", "trace.overhead_frac"}
    assert set(run.metric_units("per_layer")) == reported
    assert set(run.metric_units("end_to_end")) == {"setup_s", "job_s",
                                                   "peak_rss_mb"}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bell", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
