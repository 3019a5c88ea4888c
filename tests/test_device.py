import dataclasses
import json
import math
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.device import (
    DEPHASING_CONVENTIONS, ConfigError, PumpDrive, QubitParams,
    ResonatorDrive, ResonatorParams, ScenarioConfig, SolverSettings,
    Truncations, bundled_scenario, derive_g, derive_rates, load_scenario,
    scenario_to_jsonable, serialize_scenario, validate_config,
)

BUNDLED = ["bell", "bell_single_channel", "bell_pump2", "w"]


class TestBundledScenarios:
    def test_bell_device_values(self):
        cfg = bundled_scenario("bell")
        assert [q.working_freq for q in cfg.qubits] == [4202.0, 4202.0]
        assert cfg.couplings == (5.0,)
        assert [r.kappa for r in cfg.resonators] == [1.1, 0.87]
        assert [r.chi for r in cfg.resonators] == [-0.75, -0.90]
        assert [q.t1 for q in cfg.qubits] == [27.0, 27.0]

    def test_bell_drive_values(self):
        cfg = bundled_scenario("bell")
        assert [d.n_bar for d in cfg.raman] == [0.74, 0.60]
        assert [d.detuning for d in cfg.raman] == [10.0, 10.0]
        pump = cfg.pumps[0]
        assert pump.amplitudes == (0.53, -0.53)
        assert pump.frequency == 4207.0  # resonant with the upper eigenstate

    def test_w_values(self):
        cfg = bundled_scenario("w")
        # middle qubit biased J above its neighbours
        assert cfg.qubits[1].working_freq - cfg.qubits[0].working_freq == 5.0
        assert [d.n_bar for d in cfg.raman] == [0.0, 1.26, 0.5]
        assert [d.detuning for d in cfg.raman] == [0.0, 15.0, 5.0]
        assert cfg.pumps[0].amplitudes == (0.0, 0.74, 0.0)

    def test_pump2_has_two_drives(self):
        cfg = bundled_scenario("bell_pump2")
        assert len(cfg.pumps) == 2
        assert cfg.pumps[1].frequency == 4197.0  # ee <-> upper eigenstate gap

    def test_unknown_bundle(self):
        with pytest.raises(ValueError, match="no bundled scenario"):
            bundled_scenario("nope")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_defaults_pass_validation(self, name):
        cfg = bundled_scenario(name)
        assert cfg.name == name
        validate_config(cfg)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files_are_canonical(self, name):
        # the packaged files are the only scenario definitions; keep each in
        # the form serialize_scenario writes
        text = resources.files("stabsim.data").joinpath(f"{name}.json").read_text()
        assert serialize_scenario(bundled_scenario(name)) == text


class TestLoader:
    def test_round_trip_is_identity(self):
        for name in BUNDLED:
            cfg = bundled_scenario(name)
            assert load_scenario(serialize_scenario(cfg)) == cfg

    def test_missing_field_names_path(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        del doc["resonators"][1]["kappa"]
        with pytest.raises(ConfigError, match=r"resonators\[1\].*kappa"):
            load_scenario(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["qubits"][0]["frequency_ghz"] = 4.2
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario("{not json")

    def test_complex_amplitude_forms(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["pumps"][0]["amplitudes"] = [[0.0, 0.53], -0.53]
        cfg = load_scenario(json.dumps(doc))
        assert cfg.pumps[0].amplitudes == (0.53j, -0.53)

    def test_all_zero_pump_rejected(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["pumps"][0]["amplitudes"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="nonzero amplitude"):
            load_scenario(json.dumps(doc))

    def test_t2e_bound(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["qubits"][0]["t2e"] = 60.0  # above 2*t1 with slack
        with pytest.raises(ConfigError, match="t2e"):
            load_scenario(json.dumps(doc))

    def test_coupling_count(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["couplings"] = [5.0, 5.0]
        with pytest.raises(ConfigError, match="couplings"):
            load_scenario(json.dumps(doc))


finite = st.floats(-1e4, 1e4)
positive = st.floats(1e-3, 1e3)


@st.composite
def scenario_configs(draw):
    """Valid configs that take every union and optional branch of the schema."""
    n = draw(st.integers(1, 3))
    qubit_dim = draw(st.integers(2, 4))
    # mode labels are unique across qubits and resonators
    labels = draw(st.lists(st.text(max_size=4), min_size=2 * n,
                           max_size=2 * n, unique=True))
    qubits = []
    for label in labels[:n]:
        t1 = draw(st.none() | positive)
        t2e = draw(st.none() | st.floats(1e-3, 2 * t1 if t1 else 1e3))
        qubits.append(QubitParams(label, draw(finite),
                                  draw(finite), t1, t2e, draw(finite)))
    resonators = tuple(
        ResonatorParams(label, draw(finite), draw(positive),
                        draw(finite), draw(st.none() | finite))
        for label in labels[n:])
    amplitude = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False)
    pumps = []
    for _ in range(draw(st.integers(0, 2))):
        amps = draw(st.lists(amplitude | finite.map(complex), min_size=n,
                             max_size=n).filter(any))
        pumps.append(PumpDrive(tuple(amps), draw(finite),
                               draw(st.sampled_from(["amplitude", "rabi"]))))
    raman = tuple(ResonatorDrive(draw(finite), draw(st.just(0.0) | positive))
                  for _ in range(n))
    names = ["ground", "e" * n] + {2: ["S"], 3: ["W"]}.get(n, [])
    initial = draw(st.sampled_from(names))
    truncations = Truncations(qubit_dim, draw(st.integers(2, 6)))
    return ScenarioConfig(
        draw(st.text(max_size=8)), tuple(qubits), resonators,
        tuple(draw(finite) for _ in range(n - 1)),
        pumps=tuple(pumps), raman=raman, initial_state=initial,
        t_final=draw(positive), t_step=draw(positive), truncations=truncations,
        solver=SolverSettings(draw(positive)),
        dephasing_convention=draw(st.sampled_from(DEPHASING_CONVENTIONS)),
        ac_stark_compensation=draw(st.booleans()),
        raman_pull_correction=draw(st.booleans()))


def _bell_doc(edit):
    doc = scenario_to_jsonable(bundled_scenario("bell"))
    edit(doc)
    return json.dumps(doc)


class TestCodec:
    @given(scenario_configs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, cfg):
        assert load_scenario(serialize_scenario(cfg)) == cfg

    @pytest.mark.parametrize("edit, path, message", [
        (lambda d: d.pop("name"), "<document>", "missing keys ['name']"),
        (lambda d: d["truncations"].update(qubit_dims=3), "truncations",
         "unknown keys ['qubit_dims']"),
        (lambda d: d["pumps"][0].update(convention="volts"), "pumps[0]",
         "unknown pump convention 'volts'"),
        (lambda d: d["qubits"][0].pop("t1"), "qubits[0]", "missing keys ['t1']"),
        (lambda d: d["pumps"][0].update(amplitudes=[[1, 2, 3], 0.5]),
         "pumps[0].amplitudes[0]", "amplitude must be a number or [re, im]"),
        (lambda d: d["qubits"][1].update(label="Q1"), "qubits[1].label",
         "duplicate mode label 'Q1'"),
        (lambda d: d["resonators"][1].update(label="Q2"),
         "resonators[1].label", "duplicate mode label 'Q2'"),
        (lambda d: d["qubits"][0].update(t1=math.nan), "qubits[0].t1",
         "must be finite"),
        (lambda d: d["raman"][0].update(n_bar=math.nan), "raman[0].n_bar",
         "must be finite"),
        (lambda d: d.update(t_final=math.inf), "t_final", "must be finite"),
        (lambda d: d["pumps"][0].update(amplitudes=[[math.nan, 0], 0.5]),
         "pumps[0].amplitudes[0]", "must be finite"),
    ], ids=["no-name", "truncations-key", "convention", "no-t1", "amplitude",
            "qubit-label", "resonator-label", "nan-t1", "nan-n-bar",
            "infinite-t-final", "nan-amplitude"])
    def test_malformed_document_names_path(self, edit, path, message):
        with pytest.raises(ConfigError) as info:
            load_scenario(_bell_doc(edit))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("edit, path, message", [
        (lambda d: d["raman"][0].update(amplitude=5.0), "raman[0]",
         "unknown keys ['amplitude']"),
        (lambda d: d["truncations"].update(resonator_dims=[4, 4]),
         "truncations", "unknown keys ['resonator_dims']"),
        (lambda d: d.update(initial_state=[0, 1]), "initial_state",
         "must be of type str"),
    ], ids=["drive-amplitude", "resonator-dims", "occupations"])
    def test_second_forms_refused(self, edit, path, message):
        # a drive is set by n_bar, every resonator has resonator_dim levels
        # and initial states are named
        with pytest.raises(ConfigError) as info:
            load_scenario(_bell_doc(edit))
        assert str(info.value) == f"{path}: {message}"

    def test_pumps_may_be_omitted(self):
        cfg = load_scenario(_bell_doc(lambda d: d.pop("pumps")))
        assert cfg.pumps == ()


class TestDeriveRates:
    def test_relaxation_rate(self):
        q = QubitParams("Q", 4200.0, -200.0, 27.0, 18.0, 4200.0)
        gamma1, _ = derive_rates(q, "direct")
        assert gamma1 == pytest.approx(1 / 27, abs=1e-12)

    def test_direct_convention(self):
        q = QubitParams("Q", 4200.0, -200.0, 27.0, 18.0, 4200.0)
        _, gphi = derive_rates(q, "direct")
        assert gphi == pytest.approx(1 / 18, abs=1e-12)

    def test_pure_dephasing_convention(self):
        q = QubitParams("Q", 4200.0, -200.0, 27.0, 18.0, 4200.0)
        _, gphi = derive_rates(q, "pure_dephasing")
        assert gphi == pytest.approx(1 / 18 - 1 / 54, abs=1e-12)

    def test_none_means_no_channel(self):
        q = QubitParams("Q", 4200.0, -200.0, None, None, 4200.0)
        assert derive_rates(q) == (0.0, 0.0)

    def test_nonpositive_rejected(self):
        q = QubitParams("Q", 4200.0, -200.0, -3.0, 18.0, 4200.0)
        with pytest.raises(ValueError, match="positive"):
            derive_rates(q)

    def test_unknown_convention(self):
        q = QubitParams("Q", 4200.0, -200.0, 27.0, 18.0, 4200.0)
        with pytest.raises(ValueError, match="convention"):
            derive_rates(q, "mystery")

    @given(st.floats(1.0, 500.0), st.floats(1.0, 500.0), st.floats(0.01, 2.0),
           st.sampled_from(["direct", "pure_dephasing"]))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_coherence_times(self, t1, t2e, grow, convention):
        t2e = min(t2e, 2.0 * t1)  # keep physical
        q = QubitParams("Q", 4200.0, -200.0, t1, t2e, 4200.0)
        better = QubitParams("Q", 4200.0, -200.0, t1 * (1 + grow),
                             min(t2e * (1 + grow), 2 * t1 * (1 + grow)), 4200.0)
        g1a, gpa = derive_rates(q, convention)
        g1b, gpb = derive_rates(better, convention)
        assert g1b <= g1a + 1e-12
        assert gpb <= gpa + 1e-12


class TestDeriveG:
    def test_matches_dispersive_relation(self):
        cfg = bundled_scenario("bell")
        g = derive_g(cfg.resonators[0], cfg.qubits[0])
        delta = cfg.resonators[0].omega_r - cfg.qubits[0].working_freq
        chi_back = cfg.qubits[0].alpha * (g / delta) ** 2
        assert chi_back == pytest.approx(cfg.resonators[0].chi, rel=1e-12)

    def test_explicit_g_wins(self):
        cfg = bundled_scenario("bell")
        res = type(cfg.resonators[0])("R", 6481.0, 1.1, -0.75, g=123.0)
        assert derive_g(res, cfg.qubits[0]) == 123.0

    def test_sign_mismatch_rejected(self):
        cfg = bundled_scenario("bell")
        res = type(cfg.resonators[0])("R", 6481.0, 1.1, +0.75)
        with pytest.raises(ValueError, match="sign"):
            derive_g(res, cfg.qubits[0])


class TestConfigInvariants:
    @pytest.mark.parametrize("name", ["xyz", "gge", "Ground", "W"])
    def test_initial_state_name_checked(self, name):
        cfg = bundled_scenario("bell").replace(initial_state=name)
        with pytest.raises(ConfigError, match="initial_state.*unknown named"):
            validate_config(cfg)

    def test_t_final_positive(self):
        cfg = bundled_scenario("bell").replace(t_final=0.0)
        with pytest.raises(ConfigError, match="t_final"):
            validate_config(cfg)

    # one NaN field of the bell config, by its path
    NAN_EDITS = {
        "qubits[0].t1": lambda c: c.replace(
            qubits=(dataclasses.replace(c.qubits[0], t1=math.nan),
                    c.qubits[1])),
        "qubits[1].t2e": lambda c: c.replace(
            qubits=(c.qubits[0],
                    dataclasses.replace(c.qubits[1], t2e=math.nan))),
        "resonators[0].kappa": lambda c: c.replace(
            resonators=(dataclasses.replace(c.resonators[0], kappa=math.nan),
                        c.resonators[1])),
        "raman[1].n_bar": lambda c: c.replace(
            raman=(c.raman[0],
                   dataclasses.replace(c.raman[1], n_bar=math.nan))),
        "t_final": lambda c: c.replace(t_final=math.nan),
        "t_step": lambda c: c.replace(t_step=math.nan),
    }

    @pytest.mark.parametrize("path", list(NAN_EDITS))
    def test_nan_refused(self, path):
        # a config built in code skips the codec's finiteness check, and
        # NaN passes any comparison written as the refusal
        cfg = self.NAN_EDITS[path](bundled_scenario("bell"))
        with pytest.raises(ConfigError, match=re.escape(path)):
            validate_config(cfg)
