import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from stabsim import rates
from stabsim.device import (
    CouplingParams, PumpDrive, ResonatorDrive, Truncations, bundled_scenario,
    derive_g,
)
from stabsim.hamiltonian import (
    HERMITICITY_TOL, TWO_PI, _spectral_scale, build_collapse_set,
    build_dispersive, lowest_mode_weights, model_space, named_qubit_state,
    pump_matrix_element, qubit_space, single_excitation_modes,
)
from stabsim.hilbert import (
    QUBIT, RESONATOR, CompositeSpace, LinearOperator, ModeSpec, basis_state,
    lowering_op, number_op,
)
from stabsim.scenarios import _select_channels


def single_excitation_block(model, config):
    """Restrict H to the qubit single-excitation, resonator-vacuum subspace."""
    space = model.space
    L = config.n_qubits
    idx = []
    for i in range(L):
        occ = [0] * len(space.modes)
        occ[i] = 1
        idx.append(space.index(occ))
    H = model.H.toarray()
    return H[np.ix_(idx, idx)]


def drives_off(cfg):
    """Config variant with all drives removed (bare design eigenstructure)."""
    return cfg.replace(pumps=(),
                       raman=tuple(ResonatorDrive(detuning=d.detuning)
                                   for d in cfg.raman))


class TestDispersive:
    def test_bell_single_excitation_gap(self):
        cfg = drives_off(bundled_scenario("bell"))
        model = build_dispersive(cfg)
        block = single_excitation_block(model, cfg)
        vals = np.linalg.eigvalsh(block)
        gap = (vals[1] - vals[0]) / TWO_PI
        assert gap == pytest.approx(2 * cfg.couplings.j[0], rel=1e-12)
        # eigenvectors are the symmetric/antisymmetric combinations
        _, vecs = np.linalg.eigh(block)
        npt.assert_allclose(np.abs(vecs[:, 0]), [2 ** -0.5] * 2, atol=1e-12)

    def test_w_single_excitation_ladder(self):
        cfg = drives_off(bundled_scenario("w"))
        model = build_dispersive(cfg)
        vals = np.linalg.eigvalsh(single_excitation_block(model, cfg)) / TWO_PI
        j = cfg.couplings.j[0]
        npt.assert_allclose(vals - vals[0], [0.0, j, 3 * j], atol=1e-9)

    def test_all_couplings_off_is_diagonal(self):
        cfg = drives_off(bundled_scenario("bell")).replace(
            couplings=CouplingParams((0.0,)))
        H = build_dispersive(cfg).H.toarray()
        off = H - np.diag(np.diag(H))
        assert np.abs(off).max() < 1e-12

    def test_hermitian(self):
        for name in ("bell", "bell_single_channel", "bell_pump2", "w"):
            model = build_dispersive(bundled_scenario(name))
            assert model.H.hermiticity_defect() < 1e-10

    def test_raman_pull_correction_applied(self):
        cfg = bundled_scenario("bell_single_channel")
        model = build_dispersive(cfg)
        # active channel detuned by -2*chi*weight with weight 1/2
        assert model.raman_detunings[1] == pytest.approx(10.0 + 0.90, rel=1e-12)
        nominal = build_dispersive(cfg.replace(raman_pull_correction=False))
        assert nominal.raman_detunings[1] == pytest.approx(10.0)

    def test_stark_compensation_toggle(self):
        cfg = bundled_scenario("bell_single_channel")
        on = build_dispersive(cfg)
        off = build_dispersive(cfg.replace(ac_stark_compensation=False))
        # the compensated model keeps the dressed qubits resonant: the
        # single-excitation gap stays exactly 2J
        for model, exact in ((on, True), (off, False)):
            block = single_excitation_block(model, cfg)
            gap = np.ptp(np.linalg.eigvalsh(block)) / TWO_PI
            if exact:
                assert gap == pytest.approx(10.0, abs=1e-9)
            else:
                assert abs(gap - 10.0) > 0.05

    def test_displaced_variant_strips_linear_drive(self):
        cfg = bundled_scenario("bell_single_channel")
        disp = build_dispersive(cfg)
        space = disp.space
        # the displaced frame has no linear resonator drive: no element
        # between resonator vacuum and one photon with qubits in ground
        # (the undriven R1 is not in the space)
        g0 = space.index((0, 0, 0))
        g1 = space.index((0, 0, 1))
        assert abs(disp.H.toarray()[g0, g1]) < 1e-12
        assert abs(disp.alphas[1]) ** 2 == pytest.approx(0.74, rel=1e-12)

    def test_qubit_only_space(self):
        # with every drive off no resonator is in the model
        model = build_dispersive(drives_off(bundled_scenario("bell")))
        assert model.space.total_dim == 4

    @pytest.mark.parametrize("name, dim", [
        ("bell", 64), ("bell_pump2", 64), ("bell_single_channel", 24),
        ("w", 72), ("bell_R1_only", 16)])
    def test_only_driven_resonators_in_space(self, name, dim):
        if name == "bell_R1_only":
            cfg = _select_channels(bundled_scenario("bell"), "R1")
        else:
            cfg = bundled_scenario(name)
        space = build_dispersive(cfg).space
        assert space.total_dim == dim
        assert all(op.space == space for op, _ in build_collapse_set(cfg))


# -- exchange-coupling oracle -------------------------------------------------
#
# The full qubit-resonator exchange model, diagonalized exactly, is the
# reference for the dispersive shift chi that the dispersive model takes as
# an input.

def build_jaynes_cummings(config):
    """Full exchange-coupling model g(c^dag b + b^dag c), single common frame.

    The frame rotates every mode at one frequency, so all active resonator
    drives (and any pump) must share that frequency; mixed-frequency drive
    sets are rejected because the frame Hamiltonian would be time-dependent.
    """
    L = config.n_qubits
    tr = config.truncations
    space = CompositeSpace(
        [ModeSpec(q.label, QUBIT, tr.qubit_dim) for q in config.qubits]
        + [ModeSpec(r.label, RESONATOR, tr.dim_for_resonator(i))
           for i, r in enumerate(config.resonators)])

    drive_freqs = []
    for i, drv in enumerate(config.raman):
        if drv.active:
            drive_freqs.append(config.resonators[i].omega_r - drv.detuning)
    for p in config.pumps:
        drive_freqs.append(p.frequency)
    if len(set(np.round(drive_freqs, 9))) > 1:
        raise ValueError(
            "exchange-coupling model requires all drives at one frequency "
            f"(got {sorted(set(drive_freqs))})")
    frame = drive_freqs[0] if drive_freqs else config.qubits[0].working_freq

    d = space.total_dim
    H = LinearOperator(space, sp.csr_matrix((d, d), dtype=complex))
    b = [lowering_op(space, i) for i in range(L)]

    for i, q in enumerate(config.qubits):
        H = H + (TWO_PI * (q.working_freq - frame)) * number_op(space, i)
        if space.modes[i].dim > 2 and q.alpha != 0.0:
            bd = b[i].dag()
            H = H + (TWO_PI * q.alpha / 2.0) * (bd @ bd @ b[i] @ b[i])
    for i, j in enumerate(config.couplings.j):
        hop = b[i].dag() @ b[i + 1]
        H = H + (-TWO_PI * j) * (hop + hop.dag())
    for i, res in enumerate(config.resonators):
        c = lowering_op(space, L + i)
        H = H + (TWO_PI * (res.omega_r - frame)) * (c.dag() @ c)
        g = derive_g(res, config.qubits[i])
        ex = c.dag() @ b[i]
        H = H + (TWO_PI * g) * (ex + ex.dag())
        drv = config.raman[i]
        if drv.active:
            eps = drv.amplitude if drv.amplitude is not None else \
                rates.drive_amplitude(drv.n_bar, drv.detuning, res.kappa)
            H = H + (TWO_PI * eps) * (c + c.dag())
    for p in config.pumps:
        for i, amp in enumerate(p.amplitudes):
            if amp != 0:
                op = (TWO_PI * amp * p.coefficient_scale) * b[i].dag()
                H = H + op + op.dag()

    defect = H.hermiticity_defect()
    if defect > HERMITICITY_TOL * max(1.0, _spectral_scale(H)):
        raise ValueError(f"built Hamiltonian is not Hermitian (defect {defect:.2e})")
    return H


def chi_estimate(g, delta_rq, alpha):
    """Leading-order dispersive shift alpha*(g/Delta_rq)^2, MHz."""
    return alpha * (g / delta_rq) ** 2


def chi_exact_form(g, delta_rq, alpha):
    """Transmon dispersive shift g^2*alpha/(Delta_rq*(Delta_rq - alpha)), MHz."""
    return g ** 2 * alpha / (delta_rq * (delta_rq - alpha))


def jc_derived_chi(config, k=0):
    """Dispersive shift from exact diagonalization of one qubit-resonator pair.

    Returns half the cross-Kerr energy
    ``(E(e,1) - E(e,0) - E(g,1) + E(g,0)) / 2`` so the value is directly
    comparable to the configured ``chi``.  Requires qubit_dim >= 3 for the
    anharmonicity to act.
    """
    if config.truncations.qubit_dim < 3:
        raise ValueError("qubit_dim >= 3 required to resolve the dispersive shift")
    sub = config.replace(
        name="_chi_probe",
        qubits=(config.qubits[k],),
        resonators=(config.resonators[k],),
        couplings=type(config.couplings)(()),
        pumps=(),
        raman=(type(config.raman[k])(detuning=0.0),),
    )
    H = build_jaynes_cummings(sub)
    space = H.space
    evals, evecs = np.linalg.eigh(H.toarray())

    def energy_of(occ):
        target = basis_state(space, occ)
        overlaps = np.abs(evecs.conj().T @ target) ** 2
        return evals[int(np.argmax(overlaps))]

    cross_kerr = (energy_of((1, 1)) - energy_of((1, 0))
                  - energy_of((0, 1)) + energy_of((0, 0)))
    return float(cross_kerr / (2.0 * TWO_PI))


class TestJaynesCummings:
    def test_zero_coupling_matches_dispersive_with_zero_chi(self):
        cfg = bundled_scenario("bell")
        work = cfg.qubits[0].working_freq
        res = tuple(type(r)(r.label, r.omega_r, r.kappa, 0.0, 0.0)
                    for r in cfg.resonators)
        # inactive drives, but with detunings matching the common frame so
        # both builders place the resonators at the same offsets
        raman = tuple(ResonatorDrive(detuning=r.omega_r - work) for r in res)
        cfg = cfg.replace(resonators=res, pumps=(), raman=raman)
        H_jc = build_jaynes_cummings(cfg)
        # active drives keep both resonators in the dispersive model; at
        # chi = 0 the displaced frame adds nothing to H
        disp = build_dispersive(cfg.replace(raman=tuple(
            ResonatorDrive(detuning=d.detuning, n_bar=1.0) for d in raman)))
        npt.assert_allclose(H_jc.toarray(), disp.H.toarray(), atol=1e-9)

    def test_refuses_mixed_drive_frequencies(self):
        cfg = bundled_scenario("bell")  # two channels at distinct frequencies
        with pytest.raises(ValueError, match="one frequency"):
            build_jaynes_cummings(cfg)

    def test_derived_chi_approaches_closed_form(self):
        # exact diagonalization vs the leading-order shift alpha*(g/Delta)^2
        # (within 10% through most of the dispersive window) and vs the full
        # transmon form (much tighter)
        base = bundled_scenario("bell")
        delta = 2279.0
        for g in (50.0, 100.0, 150.0):
            res = (type(base.resonators[0])(
                "R1", 4202.0 + delta, 1.1, -0.75, g),) + base.resonators[1:]
            cfg = base.replace(
                resonators=res,
                truncations=Truncations(qubit_dim=3, resonator_dim=4))
            chi = jc_derived_chi(cfg, 0)
            assert chi == pytest.approx(
                chi_estimate(g, delta, base.qubits[0].alpha), rel=0.10)
            assert chi == pytest.approx(
                chi_exact_form(g, delta, base.qubits[0].alpha), rel=0.05)

    def test_chi_estimate_arithmetic(self):
        assert chi_estimate(50.0, 2279.0, -197.0) == pytest.approx(-0.0948,
                                                                   abs=5e-5)

    def test_exact_form_reduces_to_estimate(self):
        # for |Delta| >> |alpha| the transmon form approaches alpha (g/Delta)^2
        exact = chi_exact_form(50.0, 20000.0, -197.0)
        est = chi_estimate(50.0, 20000.0, -197.0)
        assert exact == pytest.approx(est, rel=0.02)

    def test_gap_agreement_with_dispersive(self):
        # with the coupling-derived chi fed to the dispersive model, the
        # single-excitation gaps of the two models agree within 5%
        cfg = bundled_scenario("bell").replace(
            pumps=(), raman=(ResonatorDrive(), ResonatorDrive()))
        H_jc = build_jaynes_cummings(cfg)
        disp = build_dispersive(cfg)
        gap_d = np.ptp(np.linalg.eigvalsh(single_excitation_block(disp, cfg)))
        vals, vecs = np.linalg.eigh(H_jc.toarray())
        space = H_jc.space
        qubit_states = [basis_state(space, (1, 0, 0, 0)),
                        basis_state(space, (0, 1, 0, 0))]
        picked = []
        for k in np.argsort(vals):
            weight = sum(abs(np.vdot(q, vecs[:, k])) ** 2 for q in qubit_states)
            if weight > 0.5:
                picked.append(vals[k])
        gap_jc = picked[1] - picked[0]
        assert gap_jc == pytest.approx(gap_d, rel=0.05)


class TestPumps:
    def test_antisymmetric_pump_selection_rules(self):
        cfg = bundled_scenario("bell")
        qs = qubit_space(cfg)
        pump = cfg.pumps[0]
        T = named_qubit_state(qs, "T")
        S = named_qubit_state(qs, "S")
        gg = named_qubit_state(qs, "gg")
        ee = named_qubit_state(qs, "ee")
        assert abs(pump_matrix_element(qs, pump, T, gg)) < 1e-12
        assert abs(pump_matrix_element(qs, pump, ee, T)) < 1e-12
        assert abs(pump_matrix_element(qs, pump, S, gg)) == pytest.approx(
            math.sqrt(2) * 0.53, rel=1e-12)

    def test_middle_qubit_pump_selection_rules(self):
        cfg = bundled_scenario("w")
        qs = qubit_space(cfg)
        pump = cfg.pumps[0]
        for bra, ket in (("D", "W"), ("E", "A")):
            el = pump_matrix_element(qs, pump, named_qubit_state(qs, bra),
                                     named_qubit_state(qs, ket))
            assert abs(el) < 1e-12
        # the intended transition is open
        el = pump_matrix_element(qs, pump, named_qubit_state(qs, "B"),
                                 named_qubit_state(qs, "ggg"))
        assert abs(el) > 0.5

    def test_two_pump_guard(self):
        cfg = bundled_scenario("bell_pump2")
        close = cfg.replace(pumps=(cfg.pumps[0],
                                   PumpDrive(cfg.pumps[1].amplitudes,
                                             cfg.pumps[0].frequency + 1.0)))
        with pytest.raises(ValueError, match="separation"):
            build_dispersive(close)

    def test_two_pump_static_model(self):
        cfg = bundled_scenario("bell_pump2")
        model = build_dispersive(cfg)
        assert model.H.hermiticity_defect() < 1e-10
        # the recovery pump couples the doubly excited state to the pumped
        # eigenstate: check the matrix element on resonator vacuum
        space = model.space
        ee = space.index((1, 1, 0, 0))
        ge = space.index((0, 1, 0, 0))
        eg = space.index((1, 0, 0, 0))
        H = model.H.toarray()
        s_element = (H[ee, eg] - H[ee, ge]) / math.sqrt(2)
        assert abs(s_element) / TWO_PI == pytest.approx(math.sqrt(2) * 0.53,
                                                        rel=1e-9)

    def test_three_pumps_rejected(self):
        cfg = bundled_scenario("bell_pump2")
        with pytest.raises(ValueError, match="two simultaneous"):
            build_dispersive(cfg.replace(pumps=cfg.pumps + cfg.pumps[:1]))


class TestCollapseSet:
    def test_bell_counting(self):
        cfg = bundled_scenario("bell")
        cs = build_collapse_set(cfg)
        assert len(cs) == 6  # 2 photon loss, 2 relaxation, 2 dephasing

    def test_infinite_t1_omits_channels(self):
        cfg = bundled_scenario("bell")
        qs = tuple(type(q)(q.label, q.omega_q, q.alpha, None, q.t2e,
                           q.working_freq) for q in cfg.qubits)
        cs = build_collapse_set(cfg.replace(qubits=qs))
        assert len(cs) == 4

    def test_kappa_rates_are_angular(self):
        cfg = bundled_scenario("bell")
        cs = build_collapse_set(cfg)
        rates = sorted(rate for _, rate in cs)[-2:]
        npt.assert_allclose(sorted(rates),
                            sorted([TWO_PI * 1.1, TWO_PI * 0.87]))

    def test_rates_follow_convention(self):
        cfg = bundled_scenario("bell").replace(
            dephasing_convention="pure_dephasing")
        cs = build_collapse_set(cfg)
        rates = sorted(rate for _, rate in cs)
        assert any(abs(r - (1 / 14 - 1 / 54)) < 1e-12 for r in rates)


class TestModeHelpers:
    def test_lowest_mode_weights_bell(self):
        npt.assert_allclose(lowest_mode_weights(bundled_scenario("bell")),
                            [0.5, 0.5], atol=1e-12)

    def test_lowest_mode_weights_w(self):
        npt.assert_allclose(lowest_mode_weights(bundled_scenario("w")),
                            [1 / 3] * 3, atol=1e-12)

    def test_named_state_rejects_resonator_space(self):
        cfg = bundled_scenario("bell")
        with pytest.raises(ValueError, match="qubit-only"):
            named_qubit_state(model_space(cfg), "T")

    def test_single_excitation_modes_sorted(self):
        vals, vecs = single_excitation_modes(bundled_scenario("w"))
        assert np.all(np.diff(vals) > 0)
        npt.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
