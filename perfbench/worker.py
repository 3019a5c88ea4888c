"""One benchmark job in a fresh process, as a stabsim user runs it.

``run.py`` starts this script once per job (and once per set-up probe)
and reads the JSON object it prints last.  The process imports stabsim
from ``src/`` of the checkout, loads the bundled ``bell`` config, runs one
job of the workload, checks its outputs and reports times, peak RSS and
failed operations.  With ``--trace 1`` the public stabsim functions are
wrapped first and the per-layer metrics of the job are reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def run_bell(scenarios, cfg, job_input, outdir):
    report = scenarios.run_bell(cfg, initial=job_input["initial"])
    scenarios.write_report(report, outdir)
    return report


def bell_failures(cfg, report, outdir) -> list[list[str]]:
    golden = json.loads((ROOT / "goldens" / "bell_summary.json").read_text())
    fails = workloads.check_bell(
        report.steady_fidelity, golden["both"]["steady_fidelity"],
        report.steady_residual, cfg.solver.steady_tol, report.diagnostics)
    written = json.loads((outdir / "report.json").read_text())
    if written["steady_fidelity"] != report.steady_fidelity:
        fails.append("report.json does not hold the steady fidelity")
    return [fails]


def run_spectroscopy(scenarios, cfg, job_input, outdir):
    return scenarios.run_spectroscopy(
        cfg, workloads.SPECTRO_TARGET, job_input["frequencies"],
        workloads.SPECTRO_AMPLITUDE)


def spectroscopy_failures(cfg, result, outdir) -> list[list[str]]:
    from stabsim.hamiltonian import single_excitation_modes

    lines = [float(v) for v in single_excitation_modes(cfg)[0]]
    pops = {k: [float(x) for x in v] for k, v in result.populations.items()}
    return workloads.check_spectroscopy(
        [float(f) for f in result.frequencies], pops,
        [float(x) for x in result.total_excitation], lines)


#: workload -> (job, failure messages per operation of the job)
JOBS = {"bell": (run_bell, bell_failures),
        "spectroscopy": (run_spectroscopy, spectroscopy_failures)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--workload", choices=sorted(JOBS))
    ap.add_argument("--input", help="job input as JSON; omit to time set-up only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    import stabsim
    if Path(stabsim.__file__).resolve().parent != ROOT / "src" / "stabsim":
        raise SystemExit(f"imported stabsim from {stabsim.__file__}, "
                         f"not from the checkout's src/")
    from stabsim import device, scenarios

    tracer = None
    if args.trace:
        import trace_layers
        tracer = trace_layers.Tracer()
        trace_layers.install(tracer, {"device": device, "scenarios": scenarios})
    elif "trace_layers" in sys.modules:
        raise RuntimeError("an untraced job loaded the tracing wrappers")
    cfg = device.bundled_scenario("bell")
    ready = time.monotonic()

    import numpy
    import scipy
    out = {"setup_s": ready - args.spawned,
           "versions": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.input is not None:
        job, check = JOBS[args.workload]
        job_input = json.loads(args.input)
        outdir = WORK / f"report-{os.getpid()}"
        t0 = time.perf_counter()
        with tracer.span(trace_layers.JOB) if tracer else nullcontext():
            result = job(scenarios, cfg, job_input, outdir)
        out["job_s"] = time.perf_counter() - t0
        failures = [f for f in check(cfg, result, outdir) if f]
        shutil.rmtree(outdir, ignore_errors=True)
        for messages in failures:
            print(f"check failed: {'; '.join(messages)}", file=sys.stderr)
        out["failed"] = len(failures)
        if tracer:
            gap = trace_layers.unaccounted_s(tracer.spans)
            if abs(gap) > 1e-6 * out["job_s"]:
                raise RuntimeError(f"layer self times miss {gap!r} s of the job")
            out["layers"] = trace_layers.layer_metrics(tracer.spans)
            if args.spans_out:
                args.spans_out.parent.mkdir(parents=True, exist_ok=True)
                args.spans_out.write_text(json.dumps(tracer.to_jsonable()))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
