#!/usr/bin/env python3
"""Run the reference scenarios and record their summary numbers in goldens/.

The recorded values pin the behaviour of the bundled configurations; the
acceptance suite checks new runs against them.
"""

import json
from dataclasses import replace
from pathlib import Path

from stabsim.device import bundled_scenario
from stabsim.scenarios import run_bell, run_w

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def summarize(report):
    return {
        "scenario": report.scenario,
        "target": report.target,
        "steady_fidelity": report.steady_fidelity,
        "steady_method": report.steady_method,
        "fitted_tau_us": report.fitted_tau,
        "fitted_rate_per_us": report.fitted_rate,
    }


def no_decoherence(cfg):
    return cfg.replace(qubits=tuple(
        replace(q, t1=None, t2e=None) for q in cfg.qubits))


def t1_only(cfg):
    return cfg.replace(qubits=tuple(
        replace(q, t1=27.0, t2e=None) for q in cfg.qubits))


def main():
    GOLDENS.mkdir(exist_ok=True)

    bell = bundled_scenario("bell")
    out = {
        "both": summarize(run_bell(bell, channels="both")),
        "R1": summarize(run_bell(bell, channels="R1")),
        "R2": summarize(run_bell(bell, channels="R2")),
    }
    (GOLDENS / "bell_summary.json").write_text(json.dumps(out, indent=2,
                                                          sort_keys=True) + "\n")
    print("bell:", json.dumps(out["both"], indent=2))

    sc = bundled_scenario("bell_single_channel")
    triple = {
        "ideal": summarize(run_bell(no_decoherence(sc), channels="R2")),
        "t1": summarize(run_bell(t1_only(sc), channels="R2")),
        "t1_tphi": summarize(run_bell(sc, channels="R2")),
    }
    (GOLDENS / "single_channel_triple.json").write_text(
        json.dumps(triple, indent=2, sort_keys=True) + "\n")
    print("single-channel triple:",
          [round(triple[k]["steady_fidelity"], 5) for k in ("ideal", "t1",
                                                            "t1_tphi")])

    w = run_w(bundled_scenario("w"))
    w_ideal = run_w(no_decoherence(bundled_scenario("w")))
    payload = summarize(w)
    payload["decoherence_free"] = summarize(w_ideal)
    (GOLDENS / "w_summary.json").write_text(json.dumps(payload, indent=2,
                                                       sort_keys=True) + "\n")
    print("w:", round(w.steady_fidelity, 5),
          "| decoherence-free plateau:", round(w_ideal.steady_fidelity, 5))


if __name__ == "__main__":
    main()
