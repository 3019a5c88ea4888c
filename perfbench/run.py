"""stabsim benchmark: scenario time-to-solution, end to end and per layer.

    python3 perfbench/run.py --workload bell --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each job runs in a fresh Python process
(``worker.py``) that imports stabsim from ``src/``, as a CLI invocation
would.  The run starts jobs on seeded inputs until ``--seconds`` have
passed, checks every output, prints one line per metric
with its unit, and ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, timed with no tracing code
loaded.  ``--trace 1`` alternates untraced and traced job processes and
reports the per-layer metrics of the traced ones; ``trace.overhead_frac``
compares the two.  Spans of traced jobs are written under
``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: set-up-only processes started per untraced run, besides the job processes
SETUP_PROBES = 5
#: BLAS and OpenMP threads of every job process
BLAS_THREADS = 1
#: no job process outlives this many seconds after the run started
DEADLINE_S = 165.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(extra: list[str], deadline: float) -> dict | None:
    """Run one worker process; its last stdout line, or None if it failed."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned", repr(spawned),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"worker timed out: {extra}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}: {extra}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def input_mean(jobs: list[dict], value) -> float:
    """Mean over job inputs of each input's median ``value(job)``.

    Inputs differ in cost (a ``bell`` job from gg makes a quarter fewer RHS
    evaluations than one from ge), so every input weighs the same however
    many of its jobs fit in the run.
    """
    by_input: dict[int, list[float]] = {}
    for job in jobs:
        by_input.setdefault(job["input"], []).append(value(job))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run jobs of the workload until ``seconds`` have passed.

    Job inputs repeat the seeded cycle of ``workloads.make_inputs``; the
    run covers the whole cycle at least once.  Returns the provenance
    record and the result object.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    cycle = workloads.make_inputs(workload, seed)
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0

    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _spawn([], deadline)
            if probe is None:
                raise RuntimeError("a set-up probe failed")
            setups.append(probe["setup_s"])

    n_jobs = 0
    last = 0.0  # wall time of the latest job (or pair, when tracing)
    while True:
        now = time.monotonic()
        if n_jobs and now + last > deadline:
            break
        if n_jobs >= len(cycle) and now - start >= seconds:
            break
        job_input = cycle[n_jobs % len(cycle)]
        for traced_job in ((False, True) if trace else (False,)):
            extra = ["--workload", workload, "--input", json.dumps(job_input)]
            if traced_job:
                spans = WORK / f"spans-{workload}-seed{seed}-{n_jobs}.json"
                extra += ["--trace", "1", "--spans-out", str(spans)]
            ops = workloads.operations(workload, job_input)
            attempted += ops
            res = _spawn(extra, deadline)
            if res is None:
                failed += ops
                continue
            failed += res["failed"]
            res["input"] = n_jobs % len(cycle)
            (traced if traced_job else untraced).append(res)
        n_jobs += 1
        last = time.monotonic() - now

    if not untraced or (trace and not traced):
        raise RuntimeError("no job of the run completed")
    job_s = input_mean(untraced, lambda r: r["job_s"])
    if trace:
        metrics = {name: input_mean(traced, lambda r: r["layers"][name])
                   for name in traced[0]["layers"]}
        metrics["process.cpu_s"] = input_mean(traced, lambda r: r["cpu_s"])
        metrics["trace.overhead_frac"] = (metrics["trace.job_s"] - job_s) / job_s
        units = metric_units("per_layer")
    else:
        setups += [r["setup_s"] for r in untraced]
        metrics = {"setup_s": statistics.median(setups), "job_s": job_s,
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in untraced)}
        units = metric_units("end_to_end")
    first = (traced or untraced)[0]
    provenance = {"workload": workload, "seed": seed, "trace": int(trace),
                  "untraced_jobs": len(untraced),
                  "traced_jobs": len(traced),
                  "job_s_samples": [r["job_s"] for r in untraced],
                  "setup_s_samples": setups,
                  "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                  **first["versions"]}
    return {"provenance": provenance,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {name: {"value": metrics[name],
                                          "unit": units[name]}
                                   for name in units}}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stabsim" / "__init__.py").is_file():
        print(f"no stabsim sources under {ROOT / 'src'}; run from the root "
              f"of a stabsim checkout", file=sys.stderr)
        return 2

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": out["provenance"]}))
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"{args.workload:<13} {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<13} failed {result['failed']} of "
          f"{result['attempted']} operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
