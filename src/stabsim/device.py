"""Device parameters, drive specifications, and scenario configuration.

Units: every configured frequency, amplitude, detuning, and linewidth is a
*linear* frequency in MHz (the value usually quoted as omega/2pi); times are
in microseconds.  Model builders convert to angular units (rad/us) internally,
and all rates are 1/us.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Union, get_args, get_origin, get_type_hints

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
    """Detuned drive on one resonator: detuning and steady photon target.

    ``detuning`` is omega_r - omega_d in MHz; ``n_bar`` is the steady photon
    number the drive holds, and sets its strength (the amplitude is derived).
    A drive with ``n_bar`` 0 is inactive.
    """

    detuning: float = 0.0
    n_bar: float = 0.0

    @property
    def active(self) -> bool:
        return self.n_bar > 0


@dataclass(frozen=True)
class Truncations:
    qubit_dim: int = 2
    resonator_dim: int = 4


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
    couplings: tuple[float, ...]  # J per adjacent qubit pair, MHz
    # a document may omit the pumps; kw_only keeps the field (and its key)
    # in this position
    pumps: tuple[PumpDrive, ...] = field(default=(), kw_only=True)
    raman: tuple[ResonatorDrive, ...]
    initial_state: str = "ground"
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
    """Raise :class:`ConfigError` naming the first field out of bounds.
    Every bound is written so that NaN fails it."""
    L = len(cfg.qubits)
    if L == 0:
        raise ConfigError("qubits", "at least one qubit required")
    for i, q in enumerate(cfg.qubits):
        p = f"qubits[{i}]"
        if q.t1 is not None and not q.t1 > 0:
            raise ConfigError(f"{p}.t1", "must be positive")
        if q.t2e is not None and not q.t2e > 0:
            raise ConfigError(f"{p}.t2e", "must be positive")
        if q.t1 is not None and q.t2e is not None and q.t2e > 2 * q.t1 * _T2E_SLACK:
            raise ConfigError(f"{p}.t2e", f"exceeds 2*t1 (+{(_T2E_SLACK-1)*100:.0f}%)")
    if len(cfg.resonators) != L:
        raise ConfigError("resonators", f"expected {L} entries, got {len(cfg.resonators)}")
    for i, r in enumerate(cfg.resonators):
        if not r.kappa > 0:
            raise ConfigError(f"resonators[{i}].kappa", "must be positive")
    labels: set[str] = set()
    for path, mode in ([(f"qubits[{i}]", q) for i, q in enumerate(cfg.qubits)]
                       + [(f"resonators[{i}]", r)
                          for i, r in enumerate(cfg.resonators)]):
        if mode.label in labels:
            raise ConfigError(f"{path}.label",
                              f"duplicate mode label {mode.label!r}")
        labels.add(mode.label)
    if len(cfg.couplings) != L - 1:
        raise ConfigError("couplings", f"expected {L - 1} values, got {len(cfg.couplings)}")
    for k, pump in enumerate(cfg.pumps):
        p = f"pumps[{k}]"
        if len(pump.amplitudes) != L:
            raise ConfigError(f"{p}.amplitudes", f"expected {L} values")
        if all(a == 0 for a in pump.amplitudes):
            raise ConfigError(f"{p}.amplitudes", "enabled pump needs a nonzero amplitude")
    if len(cfg.raman) != L:
        raise ConfigError("raman", f"expected {L} entries, got {len(cfg.raman)}")
    for i, d in enumerate(cfg.raman):
        if not d.n_bar >= 0:
            raise ConfigError(f"raman[{i}].n_bar", "must be nonnegative")
    if not cfg.t_final > 0:
        raise ConfigError("t_final", "must be positive")
    if not cfg.t_step > 0:
        raise ConfigError("t_step", "must be positive")
    tr = cfg.truncations
    if tr.qubit_dim < 2 or tr.resonator_dim < 2:
        raise ConfigError("truncations", "mode dimensions must be >= 2")
    if cfg.dephasing_convention not in DEPHASING_CONVENTIONS:
        raise ConfigError("dephasing_convention",
                          f"must be one of {DEPHASING_CONVENTIONS}")
    # the named states are defined in hamiltonian, which imports this module
    from .hamiltonian import named_qubit_state, qubit_space
    try:
        named_qubit_state(qubit_space(cfg), cfg.initial_state)
    except ValueError as exc:
        raise ConfigError("initial_state", str(exc)) from None


# -- JSON (de)serialization --------------------------------------------------
#
# The dataclasses above are the schema: a field without a default is a
# required key, a missing optional key takes the field's default, and
# documents list the keys in field order.  Where JSON differs from the
# fields the types decide: a ``complex`` is a number or ``[re, im]``, a tuple
# is a list, and an optional field (``X | None``) is null or an X.

def _decode(tp: Any, raw: Any, path: str) -> Any:
    """``raw`` (parsed JSON) as a ``tp``; ``path`` names it in errors, and
    is empty for the document itself."""
    where = path or "<document>"
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ConfigError(where, "must be an object")
        fields, hints = dataclasses.fields(tp), get_type_hints(tp)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise ConfigError(where, f"unknown keys {sorted(unknown)}")
        missing = [f.name for f in fields if f.name not in raw
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(where, f"missing keys {sorted(missing)}")
        values = {f.name: _decode(hints[f.name], raw[f.name],
                                  f"{path}.{f.name}" if path else f.name)
                  for f in fields if f.name in raw}
        try:
            return tp(**values)
        except ValueError as exc:  # a field's own check, e.g. the convention
            raise ConfigError(where, str(exc)) from None
    args = get_args(tp)
    if get_origin(tp) in (Union, types.UnionType):  # always X | None
        (branch,) = (a for a in args if a is not type(None))
        return None if raw is None else _decode(branch, raw, path)
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(where, "must be a list")
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(raw))
    if tp is complex:
        parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
        if not all(type(v) in (int, float) for v in parts):
            raise ConfigError(where, "amplitude must be a number or [re, im]")
        value = complex(*parts)
    elif type(raw) is tp or (tp is float and type(raw) is int):
        value = tp(raw)
    else:
        raise ConfigError(where, f"must be of type {tp.__name__}")
    # json reads the NaN and Infinity literals as floats
    if tp in (float, complex) and not (math.isfinite(value.real)
                                       and math.isfinite(value.imag)):
        raise ConfigError(where, "must be finite")
    return value


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, complex):
        return value.real if value.imag == 0 else [value.real, value.imag]
    return value


def load_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document (JSON)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    cfg = _decode(ScenarioConfig, raw, "")
    validate_config(cfg)
    return cfg


def scenario_to_jsonable(cfg: ScenarioConfig) -> dict:
    return _encode(cfg)


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
