"""Seeded inputs and correctness checks of the benchmark workloads.

Standard library only: the orchestrator imports this module without
loading stabsim, numpy or scipy.  Each check returns a list of failure
messages per operation; an operation with any message is a failed one.
"""

from __future__ import annotations

import random

WORKLOADS = ("bell", "spectroscopy")

#: initial qubit states a ``bell`` job starts from
BELL_INITIAL_STATES = ("gg", "ge", "eg")
#: |F - golden| allowed on a ``bell`` steady fidelity
BELL_FIDELITY_TOL = 1e-4
#: criterion 9a of the acceptance suite: worst trace drift, worst
#: hermiticity defect, and lowest eigenvalue over the stored points
INTEGRITY_MAX_TRACE_DRIFT = 1e-8
INTEGRITY_MAX_HERMITICITY = 1e-9
INTEGRITY_MIN_EIGENVALUE = -1e-7

#: spectroscopy probe: 81 frequencies across 4192..4212 MHz on qubit 0
SPECTRO_START_MHZ = 4192.0
SPECTRO_STOP_MHZ = 4212.0
SPECTRO_POINTS = 81
SPECTRO_TARGET = 0
SPECTRO_AMPLITUDE = 0.1
#: |sum of populations - 1| allowed at each frequency
SPECTRO_SUM_TOL = 1e-6


def spectro_step() -> float:
    return (SPECTRO_STOP_MHZ - SPECTRO_START_MHZ) / (SPECTRO_POINTS - 1)


def make_inputs(workload: str, seed: int) -> list[dict]:
    """One cycle of job inputs; a run repeats whole cycles.

    ``bell`` visits every initial state once per cycle, in a seeded order,
    so every run times the same mix of work.  ``spectroscopy`` shifts the
    frequency grid by a seeded offset within half a grid step.
    """
    rng = random.Random(seed)
    if workload == "bell":
        order = list(BELL_INITIAL_STATES)
        rng.shuffle(order)
        return [{"initial": state} for state in order]
    if workload == "spectroscopy":
        step = spectro_step()
        offset = rng.uniform(-0.5, 0.5) * step
        freqs = [SPECTRO_START_MHZ + offset + k * step
                 for k in range(SPECTRO_POINTS)]
        return [{"frequencies": freqs}]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def operations(workload: str, job_input: dict) -> int:
    """Operations one job attempts: a scenario job, or one frequency."""
    if workload == "spectroscopy":
        return len(job_input["frequencies"])
    return 1


def check_bell(fidelity: float, golden: float, residual: float,
               steady_tol: float, diagnostics: dict) -> list[str]:
    """Failure messages for one ``bell`` job (empty when it passed)."""
    fails = []
    if not abs(fidelity - golden) <= BELL_FIDELITY_TOL:
        fails.append(f"steady fidelity {fidelity!r} is more than "
                     f"{BELL_FIDELITY_TOL} from the golden {golden!r}")
    if not residual <= steady_tol:
        fails.append(f"steady residual {residual!r} exceeds steady_tol "
                     f"{steady_tol!r}")
    if not diagnostics["max_trace_drift"] <= INTEGRITY_MAX_TRACE_DRIFT:
        fails.append(f"trace drift {diagnostics['max_trace_drift']!r}")
    if not diagnostics["max_hermiticity_defect"] <= INTEGRITY_MAX_HERMITICITY:
        fails.append(
            f"hermiticity defect {diagnostics['max_hermiticity_defect']!r}")
    if not diagnostics["min_eigenvalue"] >= INTEGRITY_MIN_EIGENVALUE:
        fails.append(f"min eigenvalue {diagnostics['min_eigenvalue']!r}")
    return fails


def check_spectroscopy(freqs: list[float], populations: dict[str, list[float]],
                       total_excitation: list[float],
                       lines: list[float]) -> list[list[str]]:
    """Failure messages per frequency of one ``spectroscopy`` job.

    Every population lies in [0, 1] and they sum to 1 within
    ``SPECTRO_SUM_TOL``.  The frequency of peak excitation lies within one
    grid step of a single-excitation line; otherwise that frequency fails.
    """
    fails: list[list[str]] = [[] for _ in freqs]
    for k in range(len(freqs)):
        values = [populations[label][k] for label in populations]
        bad = [v for v in values if not 0.0 <= v <= 1.0]
        if bad:
            fails[k].append(f"population outside [0, 1]: {bad!r}")
        total = sum(values)
        if not abs(total - 1.0) <= SPECTRO_SUM_TOL:
            fails[k].append(f"populations sum to {total!r}")
    peak = max(range(len(freqs)), key=lambda k: total_excitation[k])
    step = abs(freqs[1] - freqs[0])
    nearest = min(abs(freqs[peak] - line) for line in lines)
    if not nearest <= step:
        fails[peak].append(f"peak excitation at {freqs[peak]!r} MHz is "
                           f"{nearest!r} MHz from the nearest line")
    return fails
