"""Command-line interface: scenario runs, sweeps, rate tables, model formulas.

Exit codes: 0 success, 1 runtime/solver failure (message on stderr),
2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import effective, rates
from .device import ScenarioConfig, bundled_scenario, load_scenario
from .modes import build_quadratic_form, cooling_matrix, kerr_coefficients, normal_modes
from .scenarios import (
    CHANNEL_CHOICES, PUMP_CHOICES, SWEEP_AXES, run_bell, run_spectroscopy,
    run_sweep, run_w, write_report, write_spectroscopy, write_sweep,
)


def _load_config(path: str | None, fallback: str) -> ScenarioConfig:
    if path is None:
        return bundled_scenario(fallback)
    return load_scenario(Path(path).read_text())


def _parse_values(spec: str) -> np.ndarray:
    """``start:stop:count`` or a comma list as an array (an argparse
    ``type``: a malformed spec is a usage error)."""
    try:
        if ":" not in spec:
            return np.asarray([float(v) for v in spec.split(",")])
        start, stop, count = spec.split(":")
        if int(count) >= 0:
            return np.linspace(float(start), float(stop), int(count))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{spec!r} is neither start:stop:count with count >= 0 nor a comma "
        f"list of numbers")


def _parse_workers(spec: str) -> int:
    """A process count of at least 1 (an argparse ``type``)."""
    try:
        if int(spec) >= 1:
            return int(spec)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{spec!r} is not an integer >= 1")


def _cmd_bell(args) -> int:
    config = _load_config(args.config, "bell")
    report = run_bell(config, channels=args.channels, pumps=args.pumps,
                      initial=args.initial)
    out = write_report(report, args.out)
    print(f"steady_fidelity={report.steady_fidelity:.6f} "
          f"tau_us={report.fitted_tau if report.fitted_tau else float('nan'):.4f} "
          f"-> {out}")
    return 0


def _cmd_w(args) -> int:
    config = _load_config(args.config, "w")
    report = run_w(config, initial=args.initial)
    out = write_report(report, args.out)
    print(f"steady_fidelity={report.steady_fidelity:.6f} -> {out}")
    return 0


def _cmd_spectroscopy(args) -> int:
    config = _load_config(args.config, "bell")
    result = run_spectroscopy(config, args.target, args.freqs, args.amplitude)
    out = write_spectroscopy(result, args.out)
    print(f"{len(args.freqs)} points -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, "bell_single_channel")
    result = run_sweep(config, args.axis, args.values, workers=args.workers)
    out = write_sweep(result, args.out)
    failed = sum(1 for e in result.errors if e)
    print(f"{len(args.values)} points ({failed} failed) -> {out}")
    return 0


def _cmd_rates(args) -> int:
    config = _load_config(args.config, "bell")
    form = build_quadratic_form(config)
    basis = normal_modes(form)
    alphas = [q.alpha for q in config.qubits]
    kerr = kerr_coefficients(basis, alphas)
    lam = basis.lambda_q
    print(f"{'res':4s} {'pair':8s} {'gap_MHz':>9s} {'forward/us':>11s} "
          f"{'reverse/us':>11s} {'ratio':>10s} {'opt_detuning':>12s}")
    for k, drv in enumerate(config.raman):
        if not drv.active:
            continue
        res = config.resonators[k]
        cool = cooling_matrix(basis, kerr, k, drv.n_bar, chi_kk=res.chi,
                              kappa=res.kappa)
        rows = np.arange(config.n_qubits)
        mq = basis.m[np.ix_(rows, list(basis.qubit_columns))]
        for l in range(config.n_qubits):
            for p in range(l + 1, config.n_qubits):
                gap = lam[p] - lam[l]
                est = rates.golden_rule_rate(res.chi, mq[k, l], mq[k, p],
                                             drv.n_bar, res.kappa, gap,
                                             drv.detuning)
                print(f"{res.label:4s} {p}->{l:<6d} {gap:9.3f} "
                      f"{est.forward:11.4f} {est.reverse:11.4e} "
                      f"{est.ratio:10.1f} {est.optimal_detuning:12.3f}")
        if not cool.within_adiabatic_validity:
            print(f"  note: {res.label} kappa/max|d| = {cool.kappa_ratio:.2f} "
                  "< 5; adiabatic-elimination rate formulas are outside "
                  "their stated validity here")
    return 0


def _cmd_effective(args) -> int:
    p = effective.ThreeLevelParams(args.omega_p, args.gamma1, args.gamma_phi,
                                   args.gamma_s)
    exact = effective.exact_fidelity(p)
    approx = effective.approx_fidelity(args.gamma1, args.gamma_phi, args.gamma_s)
    print(f"exact_fidelity   = {exact:.6f}")
    print(f"approx_fidelity  = {approx:.6f}")
    if args.ts is not None:
        t1_list = [float(v) for v in args.t1.split(",")] if args.t1 else []
        if not t1_list or args.tphi is None:
            raise ValueError("--ts requires --t1 and --tphi")
        est = effective.experiment_estimate(args.ts, t1_list, args.tphi)
        print(f"experiment_estimate = {est:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsim",
        description="Dissipative stabilization of entangled qubit states: "
                    "scenario runs, parameter sweeps, and rate formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_out):
        p.add_argument("--config", help="scenario JSON (default: bundled)")
        p.add_argument("--out", default=default_out, help="output directory")

    p = sub.add_parser("bell", help="two-qubit stabilization run")
    add_common(p, "bell_run")
    p.add_argument("--channels", choices=CHANNEL_CHOICES, default="both")
    p.add_argument("--pumps", choices=PUMP_CHOICES, default="P1")
    p.add_argument("--initial", default=None,
                   help="initial qubit state name (gg, ge, eg, ee, S, T)")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("w", help="three-qubit stabilization run")
    add_common(p, "w_run")
    p.add_argument("--initial", default=None)
    p.set_defaults(func=_cmd_w)

    p = sub.add_parser("spectroscopy", help="weak-probe population spectra")
    add_common(p, "spectroscopy_run")
    p.add_argument("--target", type=int, default=0, help="driven qubit index")
    p.add_argument("--freqs", required=True, type=_parse_values,
                   help="start:stop:count or comma list, MHz")
    p.add_argument("--amplitude", type=float, default=0.1, help="probe MHz")
    p.set_defaults(func=_cmd_spectroscopy)

    p = sub.add_parser("sweep", help="steady fidelity and rate vs one axis")
    add_common(p, "sweep_run")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, type=_parse_values,
                   help="start:stop:count or comma list")
    p.add_argument("--workers", type=_parse_workers, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rates", help="golden-rule rate table for a scenario")
    p.add_argument("--config", help="scenario JSON (default: bundled bell)")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("effective", help="three-level model fidelities")
    p.add_argument("--omega-p", type=float, required=True, dest="omega_p",
                   help="pump Rabi frequency, MHz")
    p.add_argument("--gamma1", type=float, required=True, help="1/us")
    p.add_argument("--gamma-phi", type=float, required=True, dest="gamma_phi")
    p.add_argument("--gamma-s", type=float, required=True, dest="gamma_s")
    p.add_argument("--ts", type=float, default=None,
                   help="stabilization time for the experiment estimate, us")
    p.add_argument("--t1", default=None, help="comma list of T1 values, us")
    p.add_argument("--tphi", type=float, default=None)
    p.set_defaults(func=_cmd_effective)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
