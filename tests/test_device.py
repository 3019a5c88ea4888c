import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.device import (
    ConfigError, QubitParams, bundled_scenario, derive_g, derive_rates,
    load_scenario, scenario_to_jsonable, serialize_scenario, validate_config,
)

BUNDLED = ["bell", "bell_single_channel", "bell_pump2", "w"]


class TestBundledScenarios:
    def test_bell_device_values(self):
        cfg = bundled_scenario("bell")
        assert [q.working_freq for q in cfg.qubits] == [4202.0, 4202.0]
        assert cfg.couplings.j == (5.0,)
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

    def test_both_nbar_and_amplitude_rejected(self):
        doc = scenario_to_jsonable(bundled_scenario("bell"))
        doc["raman"][0]["amplitude"] = 5.0
        with pytest.raises(ConfigError, match=r"raman\[0\]"):
            load_scenario(json.dumps(doc))

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
    def test_initial_state_occupations_checked(self):
        cfg = bundled_scenario("bell").replace(initial_state=(0, 2))
        with pytest.raises(ConfigError, match="initial_state"):
            validate_config(cfg)

    def test_t_final_positive(self):
        cfg = bundled_scenario("bell").replace(t_final=0.0)
        with pytest.raises(ConfigError, match="t_final"):
            validate_config(cfg)

    def test_resonator_dims_length(self):
        tr = bundled_scenario("bell").truncations
        bad = type(tr)(qubit_dim=2, resonator_dim=4, resonator_dims=(4,))
        cfg = bundled_scenario("bell").replace(truncations=bad)
        with pytest.raises(ConfigError, match="resonator_dims"):
            validate_config(cfg)
