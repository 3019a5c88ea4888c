#!/usr/bin/env python3
"""Parameter study on the single-channel configuration.

Reproduces the three reference numbers (decoherence dependence of the steady
fidelity, ``decoherence_dependence.csv``) and sweeps the photon number,
dispersive shift, and resonator linewidth.  Each sweep is written like
``stabsim sweep`` output, to ``sweep_<axis>/report.json`` and
``sweep_<axis>/traces.csv`` (per point: steady fidelity, engineered rate,
steady-state residual, kernel gap, error).  Run from anywhere:

    python3 scripts/parameter_study.py [outdir]
"""

import csv
import sys
from pathlib import Path

import numpy as np

from stabsim.device import QubitParams, bundled_scenario
from stabsim.scenarios import run_bell, run_sweep, write_sweep


def decoherence_table(outdir: Path):
    cfg = bundled_scenario("bell_single_channel")

    def with_times(t1, t2e):
        return cfg.replace(qubits=tuple(
            QubitParams(q.label, q.omega_q, q.alpha, t1, t2e, q.working_freq)
            for q in cfg.qubits))

    rows = []
    for label, variant in (("none", with_times(None, None)),
                           ("t1=27", with_times(27.0, None)),
                           ("t1=27,tphi=18", with_times(27.0, 18.0))):
        report = run_bell(variant, channels="R2")
        rows.append((label, report.steady_fidelity, report.fitted_tau))
        print(f"decoherence {label}: steady F = {report.steady_fidelity:.5f}")
    with open(outdir / "decoherence_dependence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoherence", "steady_fidelity", "fitted_tau_us"])
        writer.writerows(rows)


def axis_sweeps(outdir: Path):
    cfg = bundled_scenario("bell_single_channel")
    axes = {
        "n_bar": np.linspace(0.05, 3.0, 13),
        "chi": -np.linspace(0.3, 2.0, 8),
        "kappa": np.linspace(0.4, 6.0, 8),
    }
    for axis, values in axes.items():
        path = write_sweep(run_sweep(cfg, axis, values), outdir / f"sweep_{axis}")
        print(f"{axis}: wrote {path}")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("study_out")
    outdir.mkdir(parents=True, exist_ok=True)
    decoherence_table(outdir)
    axis_sweeps(outdir)


if __name__ == "__main__":
    main()
