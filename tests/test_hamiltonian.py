import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from stabsim import rates
from stabsim.device import (
    PumpDrive, ResonatorDrive, Truncations, bundled_scenario, derive_g,
)
from conftest import pump_matrix_element
from stabsim.hamiltonian import (
    TWO_PI, build_collapse_set, build_dispersive, driven_resonators,
    lowest_mode_weights, model_space, named_qubit_state, qubit_space,
    single_excitation_modes,
)
from stabsim.hilbert import (
    QUBIT, RESONATOR, CompositeSpace, ModeSpec, basis_state, lowering_op,
    number_op,
)
from stabsim.scenarios import _select_channels, _select_pumps


#: Hermiticity defect, relative to the largest entry, the oracle accepts
HERMITICITY_TOL = 1e-10


def hermiticity_defect(H):
    """Largest entry of |H - H^dag|."""
    return abs(H - H.conj().T).max()


def single_excitation_block(model, config):
    """Restrict H to the qubit single-excitation, resonator-vacuum subspace."""
    space = model.space
    L = config.n_qubits
    idx = []
    for i in range(L):
        occ = [0] * len(space.modes)
        occ[i] = 1
        idx.append(space.index(occ))
    return model.H[np.ix_(idx, idx)]


def drives_off(cfg):
    """Config variant with all drives removed (bare design eigenstructure)."""
    return cfg.replace(pumps=(),
                       raman=tuple(ResonatorDrive(detuning=d.detuning)
                                   for d in cfg.raman))


def kron_hamiltonian(config):
    """Dense H of the dispersive model from Kronecker products of
    single-mode operators, without the occupation table's ladder rule:
    the diagonal terms in the order the model sums them, then the hopping,
    displacement and pump terms."""
    dims = model_space(config).dims

    def embed(mode, local):
        op = np.ones((1, 1))
        for i, dim in enumerate(dims):
            op = np.kron(op, local if i == mode else np.eye(dim))
        return op.astype(complex)

    a = [embed(i, np.diag(np.sqrt(np.arange(1, dim)), 1))
         for i, dim in enumerate(dims)]
    n = [embed(i, np.diag(np.arange(dim, dtype=float)))
         for i, dim in enumerate(dims)]
    L, drives = config.n_qubits, driven_resonators(config)
    eye = np.eye(len(n[0]))
    pumps = config.pumps
    frame = pumps[0].frequency if pumps else config.qubits[0].working_freq
    stark = ({r.index: r.n_bar for r in drives}
             if config.ac_stark_compensation else {})
    diagonal, off = [], []
    for i, q in enumerate(config.qubits):
        bare = q.working_freq
        if i in stark:
            bare -= 2.0 * config.resonators[i].chi * stark[i]
        diagonal += [TWO_PI * (bare - frame) * n[i],
                     (TWO_PI * q.alpha / 2.0) * (n[i] @ (n[i] - eye))]
    for i, j in enumerate(config.couplings):
        hop = a[i].conj().T @ a[i + 1]
        off.append((-TWO_PI * j) * (hop + hop.conj().T))
    for mode, r in enumerate(drives, start=L):
        K = TWO_PI * 2.0 * config.resonators[r.index].chi
        n_q = n[r.index]
        diagonal += [(TWO_PI * r.detuning) * n[mode], K * (n_q @ n[mode]),
                     (K * r.n_bar) * n_q]
        off.append((K * r.alpha) * ((a[mode].conj().T + a[mode]) @ n_q))
    nq = sum(n[:L])
    proj = [np.diag((np.diag(nq) == k).astype(float)) for k in range(3)]
    steps = [(0, 1), (1, 2)] if len(pumps) == 2 else [(None, None)]
    for pump, (lo, hi) in zip(pumps, steps):
        op = sum((TWO_PI * amp * pump.coefficient_scale) * a[i].conj().T
                 for i, amp in enumerate(pump.amplitudes) if amp != 0)
        if lo is not None:
            op = proj[hi] @ op @ proj[lo]
        off.append(op + op.conj().T)
    if len(pumps) == 2:
        diagonal.append(np.diag(np.diag(nq) >= 2)
                        * (TWO_PI * (pumps[0].frequency - pumps[1].frequency)))
    return sum(diagonal) + sum(off)


def qubit_dim_3(name):
    cfg = bundled_scenario(name)
    return cfg.replace(truncations=Truncations(
        qubit_dim=3, resonator_dim=cfg.truncations.resonator_dim))


class TestDispersive:
    @pytest.mark.parametrize("config", [
        bundled_scenario("bell"), bundled_scenario("bell_single_channel"),
        bundled_scenario("bell_pump2"), bundled_scenario("w"),
        _select_pumps(bundled_scenario("bell_pump2"), "P1+P2"),
        qubit_dim_3("bell"),
    ], ids=["bell", "bell_single_channel", "bell_pump2", "w",
            "bell_pump2_P1+P2", "bell_qubit_dim_3"])
    def test_matches_kronecker_oracle(self, config):
        # the ladder terms give the Kronecker products' entries exactly
        H = build_dispersive(config).H
        ref = kron_hamiltonian(config)
        assert np.count_nonzero(H) == np.count_nonzero(ref)
        npt.assert_array_equal(H, ref)

    def test_bell_single_excitation_gap(self):
        cfg = drives_off(bundled_scenario("bell"))
        model = build_dispersive(cfg)
        block = single_excitation_block(model, cfg)
        vals = np.linalg.eigvalsh(block)
        gap = (vals[1] - vals[0]) / TWO_PI
        assert gap == pytest.approx(2 * cfg.couplings[0], rel=1e-12)
        # eigenvectors are the symmetric/antisymmetric combinations
        _, vecs = np.linalg.eigh(block)
        npt.assert_allclose(np.abs(vecs[:, 0]), [2 ** -0.5] * 2, atol=1e-12)

    def test_w_single_excitation_ladder(self):
        cfg = drives_off(bundled_scenario("w"))
        model = build_dispersive(cfg)
        vals = np.linalg.eigvalsh(single_excitation_block(model, cfg)) / TWO_PI
        j = cfg.couplings[0]
        npt.assert_allclose(vals - vals[0], [0.0, j, 3 * j], atol=1e-9)

    def test_all_couplings_off_is_diagonal(self):
        cfg = drives_off(bundled_scenario("bell")).replace(
            couplings=(0.0,))
        H = build_dispersive(cfg).H
        off = H - np.diag(np.diag(H))
        assert np.abs(off).max() < 1e-12

    def test_hermitian(self):
        for name in ("bell", "bell_single_channel", "bell_pump2", "w"):
            model = build_dispersive(bundled_scenario(name))
            assert hermiticity_defect(model.H) < 1e-10

    @pytest.mark.parametrize("name", [
        "bell", "bell_pump2", "bell_single_channel", "w"])
    def test_resonator_phase_frame_makes_h_real(self, name):
        # each amplitude is rotated real, and the bundled pumps are real
        model = build_dispersive(bundled_scenario(name))
        assert abs(model.H.imag).max() == 0.0
        assert model.resonators
        for r in model.resonators:
            assert isinstance(r.alpha, float) and r.alpha >= 0.0
            assert r.alpha ** 2 == pytest.approx(r.n_bar, rel=1e-14)

    def test_raman_pull_correction_applied(self):
        cfg = bundled_scenario("bell_single_channel")
        model = build_dispersive(cfg)
        # active channel detuned by -2*chi*weight with weight 1/2
        assert [r.index for r in model.resonators] == [1]
        assert model.resonators[0].detuning == pytest.approx(10.0 + 0.90,
                                                             rel=1e-12)
        nominal = build_dispersive(cfg.replace(raman_pull_correction=False))
        assert nominal.resonators[0].detuning == pytest.approx(10.0)

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
        assert abs(disp.H[g0, g1]) < 1e-12
        assert abs(disp.resonators[0].alpha) ** 2 == pytest.approx(0.74, rel=1e-12)

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
        assert all(op.shape == (dim, dim) for op, _ in build_collapse_set(cfg))


# -- exchange-coupling oracle -------------------------------------------------
#
# The full qubit-resonator exchange model, diagonalized exactly, is the
# reference for the dispersive shift chi that the dispersive model takes as
# an input.

def build_jaynes_cummings(config):
    """``(space, H)`` of the full exchange-coupling model
    g(c^dag b + b^dag c), in a single common frame.

    The frame rotates every mode at one frequency, so all active resonator
    drives (and any pump) must share that frequency; mixed-frequency drive
    sets are rejected because the frame Hamiltonian would be time-dependent.
    """
    L = config.n_qubits
    tr = config.truncations
    space = CompositeSpace(
        [ModeSpec(q.label, QUBIT, tr.qubit_dim) for q in config.qubits]
        + [ModeSpec(r.label, RESONATOR, tr.resonator_dim)
           for r in config.resonators])

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
    H = np.zeros((d, d), dtype=complex)
    b = [lowering_op(space, i) for i in range(L)]

    for i, q in enumerate(config.qubits):
        H = H + (TWO_PI * (q.working_freq - frame)) * number_op(space, i)
        if space.modes[i].dim > 2 and q.alpha != 0.0:
            bd = b[i].conj().T
            H = H + (TWO_PI * q.alpha / 2.0) * (bd @ bd @ b[i] @ b[i])
    for i, j in enumerate(config.couplings):
        hop = b[i].conj().T @ b[i + 1]
        H = H + (-TWO_PI * j) * (hop + hop.conj().T)
    for i, res in enumerate(config.resonators):
        c = lowering_op(space, L + i)
        H = H + (TWO_PI * (res.omega_r - frame)) * (c.conj().T @ c)
        g = derive_g(res, config.qubits[i])
        ex = c.conj().T @ b[i]
        H = H + (TWO_PI * g) * (ex + ex.conj().T)
        drv = config.raman[i]
        if drv.active:
            eps = rates.drive_amplitude(drv.n_bar, drv.detuning, res.kappa)
            H = H + (TWO_PI * eps) * (c + c.conj().T)
    for p in config.pumps:
        for i, amp in enumerate(p.amplitudes):
            if amp != 0:
                op = (TWO_PI * amp * p.coefficient_scale) * b[i].conj().T
                H = H + op + op.conj().T

    defect = hermiticity_defect(H)
    if defect > HERMITICITY_TOL * max(1.0, abs(H).max()):
        raise ValueError(f"built Hamiltonian is not Hermitian (defect {defect:.2e})")
    return space, H


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
        couplings=(),
        pumps=(),
        raman=(type(config.raman[k])(detuning=0.0),),
    )
    space, H = build_jaynes_cummings(sub)
    evals, evecs = np.linalg.eigh(H)

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
        _, H_jc = build_jaynes_cummings(cfg)
        # active drives keep both resonators in the dispersive model; at
        # chi = 0 the displaced frame adds nothing to H
        disp = build_dispersive(cfg.replace(raman=tuple(
            ResonatorDrive(detuning=d.detuning, n_bar=1.0) for d in raman)))
        npt.assert_allclose(H_jc, disp.H, atol=1e-9)

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
        space, H_jc = build_jaynes_cummings(cfg)
        disp = build_dispersive(cfg)
        gap_d = np.ptp(np.linalg.eigvalsh(single_excitation_block(disp, cfg)))
        vals, vecs = np.linalg.eigh(H_jc)
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
        assert hermiticity_defect(model.H) < 1e-10
        # the recovery pump couples the doubly excited state to the pumped
        # eigenstate: check the matrix element on resonator vacuum
        space = model.space
        ee = space.index((1, 1, 0, 0))
        ge = space.index((0, 1, 0, 0))
        eg = space.index((1, 0, 0, 0))
        H = model.H
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
        # on a qubit-only space a g/e name is the unit basis vector
        for n, qubit_dim in ((2, 2), (2, 3), (3, 2), (3, 3)):
            qs = CompositeSpace([ModeSpec(f"q{i}", QUBIT, qubit_dim)
                                 for i in range(n)])
            for name in ("g" * n, "e" * n, "g" * (n - 1) + "e"):
                psi = np.zeros(qs.total_dim, dtype=complex)
                psi[qs.index(tuple(int(ch == "e") for ch in name))] = 1.0
                npt.assert_array_equal(named_qubit_state(qs, name), psi)
            # "ground" is the all-g state
            npt.assert_array_equal(named_qubit_state(qs, "ground"),
                                   named_qubit_state(qs, "g" * n))

    def test_single_excitation_modes_sorted(self):
        vals, vecs = single_excitation_modes(bundled_scenario("w"))
        assert np.all(np.diff(vals) > 0)
        npt.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
