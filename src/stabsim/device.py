"""Device parameters, drive specifications, and scenario configuration.

Units: every configured frequency, amplitude, detuning, and linewidth is a
*linear* frequency in MHz (the value usually quoted as omega/2pi); times are
in microseconds.  Model builders convert to angular units (rad/us) internally,
and all rates are 1/us.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

DEPHASING_CONVENTIONS = ("direct", "pure_dephasing")

#: tolerance on the physical bound T2e <= 2*T1
_T2E_SLACK = 1.10


class ConfigError(ValueError):
    """Configuration parse or validation error, tagged with a field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class QubitParams:
    """One transmon: sweet-spot frequency, anharmonicity, coherence, bias point.

    ``t1`` / ``t2e`` may be ``None`` to model an ideal (decoherence-free)
    qubit; the corresponding collapse channels are then omitted.
    """

    label: str
    omega_q: float          # sweet-spot frequency, MHz
    alpha: float            # anharmonicity, MHz (negative for transmons)
    t1: float | None        # relaxation time, us
    t2e: float | None       # spin-echo dephasing time, us
    working_freq: float     # biased frequency during the protocol, MHz


@dataclass(frozen=True)
class ResonatorParams:
    """One readout resonator dispersively coupled to its qubit.

    ``chi`` is the dispersive shift per excitation in the half-pull
    convention: the bare resonator frequency moves by ``2*chi`` when its
    qubit is excited, and ``chi ~ alpha * (g/Delta_rq)**2``.  ``g`` is the
    exchange coupling; if omitted it is derived from ``chi`` when needed.
    """

    label: str
    omega_r: float          # MHz
    kappa: float            # linewidth, MHz
    chi: float              # dispersive shift, MHz
    g: float | None = None  # exchange coupling, MHz


@dataclass(frozen=True)
class CouplingParams:
    """Nearest-neighbour qubit-qubit exchange couplings, one per adjacent pair."""

    j: tuple[float, ...]


@dataclass(frozen=True)
class PumpDrive:
    """Multi-qubit coherent drive: per-qubit amplitudes at one frequency.

    Bench values come quoted in two unit conventions, recorded per drive:

    * ``amplitude`` (default): ``amplitudes[i]`` multiplies the raising
      operator directly, ``amp * b_i^dag e^{-i w t} + h.c.``
    * ``rabi``: ``amplitudes[i]`` is the Rabi frequency of the bare qubit
      drive, i.e. the Hamiltonian coefficient is ``amp/2``.
    """

    amplitudes: tuple[complex, ...]
    frequency: float        # MHz
    convention: str = "amplitude"

    def __post_init__(self):
        if self.convention not in ("amplitude", "rabi"):
            raise ValueError(f"unknown pump convention {self.convention!r}")

    @property
    def coefficient_scale(self) -> float:
        """Factor turning a configured amplitude into the b^dag coefficient."""
        return 1.0 if self.convention == "amplitude" else 0.5


@dataclass(frozen=True)
class ResonatorDrive:
    """Detuned drive on one resonator: detuning plus amplitude or photon target.

    ``detuning`` is omega_r - omega_d in MHz.  Exactly one of ``amplitude``
    (MHz) and ``n_bar`` (steady photon number) may be given; a drive with
    neither, or with zero strength, is inactive.
    """

    detuning: float = 0.0
    n_bar: float | None = None
    amplitude: float | None = None

    @property
    def active(self) -> bool:
        if self.n_bar is not None:
            return self.n_bar > 0
        if self.amplitude is not None:
            return self.amplitude != 0
        return False


@dataclass(frozen=True)
class Truncations:
    qubit_dim: int = 2
    resonator_dim: int = 4
    resonator_dims: tuple[int, ...] | None = None  # per-resonator override

    def dim_for_resonator(self, i: int) -> int:
        if self.resonator_dims is not None:
            return self.resonator_dims[i]
        return self.resonator_dim


@dataclass(frozen=True)
class SolverSettings:
    # the steady state has one solver (lindblad.steady_state) and time
    # traces are propagated exactly, so the only setting is the gate on
    # the steady-state residual ||L rho||_inf, 1/us
    steady_tol: float = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one driven-dissipative stabilization run."""

    name: str
    qubits: tuple[QubitParams, ...]
    resonators: tuple[ResonatorParams, ...]
    couplings: CouplingParams
    pumps: tuple[PumpDrive, ...]
    raman: tuple[ResonatorDrive, ...]
    initial_state: str | tuple[int, ...] = "ground"
    t_final: float = 10.0
    t_step: float = 0.1
    truncations: Truncations = field(default_factory=Truncations)
    solver: SolverSettings = field(default_factory=SolverSettings)
    dephasing_convention: str = "direct"
    ac_stark_compensation: bool = True
    raman_pull_correction: bool = True

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


def derive_rates(q: QubitParams, convention: str = "direct") -> tuple[float, float]:
    """Collapse rates (gamma1, gamma_phi) in 1/us for one qubit.

    ``direct`` plugs the echo time straight in: gamma_phi = 1/t2e.
    ``pure_dephasing`` subtracts the relaxation contribution:
    gamma_phi = 1/t2e - 1/(2*t1).
    """
    if convention not in DEPHASING_CONVENTIONS:
        raise ValueError(f"unknown dephasing convention {convention!r}")
    if q.t1 is not None and q.t1 <= 0:
        raise ValueError(f"qubit {q.label!r}: t1 must be positive")
    if q.t2e is not None and q.t2e <= 0:
        raise ValueError(f"qubit {q.label!r}: t2e must be positive")
    gamma1 = 0.0 if q.t1 is None else 1.0 / q.t1
    if q.t2e is None:
        gamma_phi = 0.0
    elif convention == "direct":
        gamma_phi = 1.0 / q.t2e
    else:
        gamma_phi = max(1.0 / q.t2e - 0.5 * gamma1, 0.0)
    return gamma1, gamma_phi


def derive_g(resonator: ResonatorParams, qubit: QubitParams) -> float:
    """Exchange coupling from the dispersive relation chi ~ alpha*(g/Delta)^2."""
    if resonator.g is not None:
        return resonator.g
    delta_rq = resonator.omega_r - qubit.working_freq
    ratio = resonator.chi / qubit.alpha
    if ratio < 0:
        raise ValueError(
            f"resonator {resonator.label!r}: chi and alpha must share a sign "
            "to derive g"
        )
    return abs(delta_rq) * ratio ** 0.5


# -- validation -------------------------------------------------------------

def validate_config(cfg: ScenarioConfig) -> None:
    L = len(cfg.qubits)
    if L == 0:
        raise ConfigError("qubits", "at least one qubit required")
    for i, q in enumerate(cfg.qubits):
        p = f"qubits[{i}]"
        if q.t1 is not None and q.t1 <= 0:
            raise ConfigError(f"{p}.t1", "must be positive")
        if q.t2e is not None and q.t2e <= 0:
            raise ConfigError(f"{p}.t2e", "must be positive")
        if q.t1 is not None and q.t2e is not None and q.t2e > 2 * q.t1 * _T2E_SLACK:
            raise ConfigError(f"{p}.t2e", f"exceeds 2*t1 (+{(_T2E_SLACK-1)*100:.0f}%)")
    if len(cfg.resonators) != L:
        raise ConfigError("resonators", f"expected {L} entries, got {len(cfg.resonators)}")
    for i, r in enumerate(cfg.resonators):
        if r.kappa <= 0:
            raise ConfigError(f"resonators[{i}].kappa", "must be positive")
    if len(cfg.couplings.j) != L - 1:
        raise ConfigError("couplings", f"expected {L - 1} values, got {len(cfg.couplings.j)}")
    for k, pump in enumerate(cfg.pumps):
        p = f"pumps[{k}]"
        if len(pump.amplitudes) != L:
            raise ConfigError(f"{p}.amplitudes", f"expected {L} values")
        if all(a == 0 for a in pump.amplitudes):
            raise ConfigError(f"{p}.amplitudes", "enabled pump needs a nonzero amplitude")
    if len(cfg.raman) != L:
        raise ConfigError("raman", f"expected {L} entries, got {len(cfg.raman)}")
    for i, d in enumerate(cfg.raman):
        if d.n_bar is not None and d.amplitude is not None:
            raise ConfigError(
                f"raman[{i}]", "give either n_bar or amplitude, not both")
        if d.n_bar is not None and d.n_bar < 0:
            raise ConfigError(f"raman[{i}].n_bar", "must be nonnegative")
    if cfg.t_final <= 0:
        raise ConfigError("t_final", "must be positive")
    if cfg.t_step <= 0:
        raise ConfigError("t_step", "must be positive")
    tr = cfg.truncations
    if tr.qubit_dim < 2 or tr.resonator_dim < 2:
        raise ConfigError("truncations", "mode dimensions must be >= 2")
    if tr.resonator_dims is not None:
        if len(tr.resonator_dims) != L:
            raise ConfigError("truncations.resonator_dims", f"expected {L} values")
        if any(d < 2 for d in tr.resonator_dims):
            raise ConfigError("truncations.resonator_dims", "dimensions must be >= 2")
    if cfg.dephasing_convention not in DEPHASING_CONVENTIONS:
        raise ConfigError("dephasing_convention",
                          f"must be one of {DEPHASING_CONVENTIONS}")
    if isinstance(cfg.initial_state, tuple):
        if len(cfg.initial_state) != L:
            raise ConfigError("initial_state", f"expected {L} qubit occupations")
        if any(n < 0 or n >= tr.qubit_dim for n in cfg.initial_state):
            raise ConfigError("initial_state", "occupation exceeds qubit truncation")


# -- JSON (de)serialization --------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(path, f"missing keys {sorted(missing)}")


def _as_complex(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(path, "amplitude must be a number or [re, im]")


def _complex_out(z: complex):
    return z.real if z.imag == 0 else [z.real, z.imag]


def load_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document (JSON)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")
    allowed = {"name", "qubits", "resonators", "couplings", "pumps", "raman",
               "initial_state", "t_final", "t_step", "truncations", "solver",
               "dephasing_convention", "ac_stark_compensation",
               "raman_pull_correction"}
    _require_keys(raw, allowed, {"name", "qubits", "resonators", "couplings",
                                 "raman"}, "<document>")

    qubits = []
    for i, q in enumerate(raw["qubits"]):
        p = f"qubits[{i}]"
        _require_keys(q, {"label", "omega_q", "alpha", "t1", "t2e", "working_freq"},
                      {"label", "omega_q", "alpha", "t1", "t2e", "working_freq"}, p)
        qubits.append(QubitParams(q["label"], float(q["omega_q"]), float(q["alpha"]),
                                  None if q["t1"] is None else float(q["t1"]),
                                  None if q["t2e"] is None else float(q["t2e"]),
                                  float(q["working_freq"])))
    resonators = []
    for i, r in enumerate(raw["resonators"]):
        p = f"resonators[{i}]"
        _require_keys(r, {"label", "omega_r", "kappa", "chi", "g"},
                      {"label", "omega_r", "kappa", "chi"}, p)
        resonators.append(ResonatorParams(
            r["label"], float(r["omega_r"]), float(r["kappa"]), float(r["chi"]),
            None if r.get("g") is None else float(r["g"])))

    couplings = CouplingParams(tuple(float(v) for v in raw["couplings"]))

    pumps = []
    for k, pm in enumerate(raw.get("pumps", [])):
        p = f"pumps[{k}]"
        _require_keys(pm, {"amplitudes", "frequency", "convention"},
                      {"amplitudes", "frequency"}, p)
        amps = tuple(_as_complex(a, f"{p}.amplitudes[{j}]")
                     for j, a in enumerate(pm["amplitudes"]))
        convention = pm.get("convention", "amplitude")
        if convention not in ("amplitude", "rabi"):
            raise ConfigError(f"{p}.convention", "must be amplitude or rabi")
        pumps.append(PumpDrive(amps, float(pm["frequency"]), convention))

    raman = []
    for i, d in enumerate(raw["raman"]):
        p = f"raman[{i}]"
        _require_keys(d, {"detuning", "n_bar", "amplitude"}, set(), p)
        raman.append(ResonatorDrive(
            detuning=float(d.get("detuning", 0.0)),
            n_bar=None if d.get("n_bar") is None else float(d["n_bar"]),
            amplitude=None if d.get("amplitude") is None else float(d["amplitude"])))

    tr_raw = raw.get("truncations", {})
    _require_keys(tr_raw, {"qubit_dim", "resonator_dim", "resonator_dims"}, set(),
                  "truncations")
    truncations = Truncations(
        qubit_dim=int(tr_raw.get("qubit_dim", 2)),
        resonator_dim=int(tr_raw.get("resonator_dim", 4)),
        resonator_dims=(tuple(int(v) for v in tr_raw["resonator_dims"])
                        if tr_raw.get("resonator_dims") is not None else None))

    sv_raw = raw.get("solver", {})
    _require_keys(sv_raw, {"steady_tol"}, set(), "solver")
    solver = SolverSettings(steady_tol=float(sv_raw.get("steady_tol", 1e-6)))

    init = raw.get("initial_state", "ground")
    if isinstance(init, list):
        init = tuple(int(v) for v in init)

    cfg = ScenarioConfig(
        name=raw["name"],
        qubits=tuple(qubits),
        resonators=tuple(resonators),
        couplings=couplings,
        pumps=tuple(pumps),
        raman=tuple(raman),
        initial_state=init,
        t_final=float(raw.get("t_final", 10.0)),
        t_step=float(raw.get("t_step", 0.1)),
        truncations=truncations,
        solver=solver,
        dephasing_convention=raw.get("dephasing_convention", "direct"),
        ac_stark_compensation=bool(raw.get("ac_stark_compensation", True)),
        raman_pull_correction=bool(raw.get("raman_pull_correction", True)))
    validate_config(cfg)
    return cfg


def scenario_to_jsonable(cfg: ScenarioConfig) -> dict:
    return {
        "name": cfg.name,
        "qubits": [
            {"label": q.label, "omega_q": q.omega_q, "alpha": q.alpha,
             "t1": q.t1, "t2e": q.t2e, "working_freq": q.working_freq}
            for q in cfg.qubits],
        "resonators": [
            {"label": r.label, "omega_r": r.omega_r, "kappa": r.kappa,
             "chi": r.chi, "g": r.g}
            for r in cfg.resonators],
        "couplings": list(cfg.couplings.j),
        "pumps": [
            {"amplitudes": [_complex_out(a) for a in p.amplitudes],
             "frequency": p.frequency, "convention": p.convention}
            for p in cfg.pumps],
        "raman": [
            {"detuning": d.detuning, "n_bar": d.n_bar, "amplitude": d.amplitude}
            for d in cfg.raman],
        "initial_state": (list(cfg.initial_state)
                          if isinstance(cfg.initial_state, tuple)
                          else cfg.initial_state),
        "t_final": cfg.t_final,
        "t_step": cfg.t_step,
        "truncations": {
            "qubit_dim": cfg.truncations.qubit_dim,
            "resonator_dim": cfg.truncations.resonator_dim,
            "resonator_dims": (list(cfg.truncations.resonator_dims)
                               if cfg.truncations.resonator_dims else None)},
        "solver": {"steady_tol": cfg.solver.steady_tol},
        "dephasing_convention": cfg.dephasing_convention,
        "ac_stark_compensation": cfg.ac_stark_compensation,
        "raman_pull_correction": cfg.raman_pull_correction,
    }


def serialize_scenario(cfg: ScenarioConfig) -> str:
    return json.dumps(scenario_to_jsonable(cfg), indent=2) + "\n"


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the packaged scenarios: ``bell``, ``bell_single_channel``,
    ``bell_pump2`` or ``w``.  The JSON files under ``stabsim/data`` are their
    only definition (the README's scenario table says why each value is
    what it is)."""
    ref = resources.files("stabsim.data").joinpath(f"{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise ValueError(f"no bundled scenario named {name!r}") from None
    return load_scenario(text)
