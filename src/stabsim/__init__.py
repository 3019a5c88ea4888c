"""Dissipative stabilization of entangled states in qubit-resonator arrays.

Library layout:

* :mod:`stabsim.hilbert` -- truncated-Fock spaces, dense operators, states
* :mod:`stabsim.device` -- device parameters and scenario configuration
* :mod:`stabsim.hamiltonian` -- rotating-frame models and collapse operators
* :mod:`stabsim.modes` -- normal-mode analysis, Kerr tensors, cooling matrix
* :mod:`stabsim.rates` -- closed-form engineered-dissipation rates
* :mod:`stabsim.lindblad` -- master-equation evolution and steady states
* :mod:`stabsim.effective` -- analytic three-level stabilization model
* :mod:`stabsim.scenarios` -- end-to-end runs, sweeps, fits, reports
* :mod:`stabsim.cli` -- command-line entry point
"""

from .device import ScenarioConfig, bundled_scenario, load_scenario, serialize_scenario
from .effective import ThreeLevelParams, approx_fidelity, exact_fidelity, experiment_estimate
from .hamiltonian import build_collapse_set, build_dispersive
from .lindblad import build_liouvillian, evolve, steady_state
from .scenarios import run_bell, run_spectroscopy, run_sweep, run_w

__all__ = [
    "ScenarioConfig", "bundled_scenario", "load_scenario", "serialize_scenario",
    "ThreeLevelParams", "approx_fidelity", "exact_fidelity",
    "experiment_estimate", "build_collapse_set", "build_dispersive",
    "build_liouvillian", "evolve", "steady_state",
    "run_bell", "run_spectroscopy", "run_sweep", "run_w",
]

__version__ = "0.1.0"
