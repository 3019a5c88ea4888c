import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from stabsim import lindblad
from stabsim.device import QubitParams, bundled_scenario
from stabsim.hamiltonian import CollapseSet, named_qubit_state
from stabsim.hilbert import (
    QUBIT, CompositeSpace, DensityMatrix, LinearOperator, ModeSpec,
    basis_state, lowering_op, number_op, partial_trace,
)
from stabsim.lindblad import (
    EvolutionError, Liouvillian, SteadyStateError, build_liouvillian, evolve,
    residual_norm, steady_state, unvectorize, vectorize,
)
from stabsim.scenarios import build_problem


def tls_space():
    return CompositeSpace([ModeSpec("q", QUBIT, 2)])


def make_liouvillian(h, collapse_pairs, dims=None):
    dims = dims or [h.shape[0]]
    space = CompositeSpace([ModeSpec(f"m{i}", QUBIT, d)
                            for i, d in enumerate(dims)])
    H = LinearOperator(space, h)
    cols = CollapseSet([(LinearOperator(space, op), rate)
                        for op, rate in collapse_pairs])
    return build_liouvillian(H, cols)


def direct_rhs(h, collapse_pairs, rho):
    out = -1j * (h @ rho - rho @ h)
    for op, rate in collapse_pairs:
        od = op.conj().T
        out += rate * (op @ rho @ od - 0.5 * (od @ op @ rho + rho @ od @ op))
    return out


class TestBuildLiouvillian:
    def test_trivial_generator_is_zero(self):
        L = make_liouvillian(np.zeros((2, 2), dtype=complex), [])
        assert L.matrix.nnz == 0

    def test_matches_direct_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        c1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pairs = [(c1, 0.7), (c2, 1.3)]
        L = make_liouvillian(h, pairs, dims=[4])
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            lhs = unvectorize(L.matrix @ vectorize(rho), 4)
            npt.assert_allclose(lhs, direct_rhs(h, pairs, rho), atol=1e-12)

    @pytest.mark.parametrize("d", [3, 8])
    def test_trace_annihilation_on_operator_basis(self, d):
        # Tr[L(rho)] = 0 for every basis matrix: the generator is trace
        # preserving
        rng = np.random.default_rng(5)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        L = make_liouvillian(h, [(c, 0.9)], dims=[d])
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                image = unvectorize(L.matrix @ vectorize(e), d)
                assert abs(np.trace(image)) < 1e-11

    def test_space_mismatch_rejected(self):
        space_a = tls_space()
        space_b = CompositeSpace([ModeSpec("q", QUBIT, 3)])
        H = LinearOperator(space_a, np.zeros((2, 2), dtype=complex))
        bad = CollapseSet([(LinearOperator(space_b,
                                           np.zeros((3, 3), dtype=complex)),
                            1.0)])
        with pytest.raises(ValueError, match="different space"):
            build_liouvillian(H, bad)


class TestEvolve:
    def test_exponential_decay(self):
        gamma = 0.8
        space = tls_space()
        H = LinearOperator(space, np.zeros((2, 2), dtype=complex))
        cols = CollapseSet([(lowering_op(space, 0), gamma)])
        L = build_liouvillian(H, cols)
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, (1,)))
        t = np.linspace(0.0, 4.0, 33)
        res = evolve(L, rho0, t, observables={"n": number_op(space, 0)})
        npt.assert_allclose(np.real(res.observables["n"]),
                            np.exp(-gamma * t), atol=1e-8)

    def test_rabi_oscillation_amplitude(self):
        # coherent drive, no dissipation: population follows sin^2 closely
        # over ten periods
        omega = 2 * math.pi * 1.0
        space = tls_space()
        h = 0.5 * omega * np.array([[0, 1], [1, 0]], dtype=complex)
        L = make_liouvillian(h, [])
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, (0,)))
        t = np.linspace(0.0, 10.0, 401)
        res = evolve(L, rho0, t, observables={"n": number_op(space, 0)})
        expected = np.sin(omega * t / 2.0) ** 2
        npt.assert_allclose(np.real(res.observables["n"]), expected,
                            atol=1e-6)

    def test_driven_damped_cavity_reaches_photon_formula(self):
        # steady <c^dag c> of a linear cavity matches the drive calibration
        from stabsim.rates import photon_number
        eps, delta, kappa = 2.0, 4.0, 1.5  # linear MHz
        dim = 25
        space = CompositeSpace([ModeSpec("r", "resonator", dim)])
        c = lowering_op(space, 0)
        two_pi = 2 * math.pi
        h = (two_pi * delta) * (c.dag() @ c).toarray() \
            + (two_pi * eps) * (c + c.dag()).toarray()
        L = make_liouvillian_res(space, h, [(c.toarray(), two_pi * kappa)])
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, (0,)))
        t = np.linspace(0.0, 12.0, 25)
        res = evolve(L, rho0, t, observables={"n": (c.dag() @ c)})
        n_ss = float(np.real(res.observables["n"][-1]))
        assert n_ss == pytest.approx(photon_number(eps, delta, kappa),
                                     rel=1e-3)

    # d = 4 takes the dense-propagator path, d = 33 (d^2 = 1089) the
    # expm_multiply path; the sparser d = 33 model keeps the dense
    # reference affordable
    PATHS = [(4, 1.0, False), (33, 0.1, True)]

    @pytest.mark.parametrize("d,density,sparse_path", PATHS)
    def test_matches_matrix_exponential(self, d, density, sparse_path):
        L, rho0 = random_lindbladian(d, seed=9, density=density)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is sparse_path
        # every grid point is checked against its own expm(L t)
        t = np.linspace(0.0, 0.5, 3) if sparse_path else np.linspace(0, 5, 21)
        res = evolve(L, rho0, t, snapshot_times=t)
        assert [ts for ts, _ in res.snapshots] == list(t)
        A = L.matrix.toarray()
        for tk, (_, dm) in zip(t, res.snapshots):
            ref = unvectorize(expm(A * tk) @ vectorize(rho0), d)
            npt.assert_allclose(dm.matrix, ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d,density,sparse_path", PATHS)
    def test_matvec_count_is_positive_int(self, d, density, sparse_path):
        L, rho0 = random_lindbladian(d, seed=2, density=density)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is sparse_path
        res = evolve(L, rho0, np.linspace(0.0, 0.5, 6))
        count = res.diagnostics["rhs_evaluations"]
        assert type(count) is int and count > 0

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.3], [0.0, 0.2, 0.1],
                                      [1.0, 1.0, 1.0]])
    def test_non_uniform_grid_rejected(self, grid):
        L, rho0 = random_lindbladian(4, seed=1)
        with pytest.raises(ValueError, match="uniform"):
            evolve(L, rho0, np.asarray(grid))

    def test_integrity_diagnostics(self):
        gamma = 0.3
        space = tls_space()
        H = LinearOperator(space,
                           np.array([[0, 1], [1, 0]], dtype=complex))
        L = build_liouvillian(H, CollapseSet([(lowering_op(space, 0), gamma)]))
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, (1,)))
        res = evolve(L, rho0, np.linspace(0, 20, 101))
        assert res.diagnostics["max_trace_drift"] <= 1e-8
        assert res.diagnostics["max_hermiticity_defect"] <= 1e-9
        assert res.diagnostics["min_eigenvalue"] >= -1e-7

    def test_positivity_abort(self):
        space = tls_space()
        L = build_liouvillian(
            LinearOperator(space, np.zeros((2, 2), dtype=complex)),
            CollapseSet([]))
        bad = np.diag([1.5, -0.5]).astype(complex)  # trace 1, not positive
        with pytest.raises(EvolutionError, match="positivity"):
            evolve(L, bad, np.linspace(0, 1, 5))

    def test_positivity_abort_reports_first_bad_time(self):
        # time-reversed decay from the mixed state drains |g> until its
        # population turns negative after t = ln 2
        space = tls_space()
        decay = build_liouvillian(
            LinearOperator(space, np.zeros((2, 2), dtype=complex)),
            CollapseSet([(lowering_op(space, 0), 1.0)]))
        reversed_decay = Liouvillian(space, -decay.matrix, decay.hamiltonian,
                                     decay.collapse)
        with pytest.raises(EvolutionError, match="t=0.7 us") as exc:
            evolve(reversed_decay, np.eye(2) / 2, np.linspace(0, 2, 21))
        assert exc.value.diagnostics["t"] == pytest.approx(0.7)

    def test_stacked_values_match_per_sample_loop(self):
        L, rho0 = random_lindbladian(4, seed=4)
        rng = np.random.default_rng(4)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        lin = LinearOperator(L.space, op.T)
        t = np.linspace(0.0, 3.0, 13)
        res = evolve(L, rho0, t, snapshot_times=t,
                     observables={"op": op, "lin": lin, "psi": psi})
        rhos = [dm.matrix for _, dm in res.snapshots]
        expect = {
            "op": [np.trace(op @ r) for r in rhos],
            "lin": [np.trace(op.T @ r) for r in rhos],
            "psi": [np.real(np.vdot(psi, r @ psi)) for r in rhos],
        }
        for name, ref in expect.items():
            npt.assert_allclose(res.observables[name], ref, rtol=0, atol=1e-13)
        assert res.observables["psi"].dtype == float
        diag = res.diagnostics
        assert diag["max_trace_drift"] == pytest.approx(
            max(abs(np.trace(r) - 1.0) for r in rhos), abs=1e-15)
        assert diag["max_hermiticity_defect"] == pytest.approx(
            max(np.abs(r - r.conj().T).max() for r in rhos), abs=1e-15)
        assert diag["min_eigenvalue"] == pytest.approx(
            min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] for r in rhos),
            abs=1e-13)

    def test_snapshots_validated(self):
        gamma = 0.5
        space = tls_space()
        L = build_liouvillian(
            LinearOperator(space, np.zeros((2, 2), dtype=complex)),
            CollapseSet([(lowering_op(space, 0), gamma)]))
        rho0 = DensityMatrix.from_state_vector(space, basis_state(space, (1,)))
        res = evolve(L, rho0, np.linspace(0, 2, 21), snapshot_times=[1.0, 2.0])
        assert [t for t, _ in res.snapshots] == [1.0, 2.0]
        for _, dm in res.snapshots:
            dm.validate()


def random_lindbladian(d, seed, density=1.0):
    """Random Hermitian H, one random collapse operator, random state."""
    rng = np.random.default_rng(seed)

    def rand():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return m * (rng.random((d, d)) < density)

    h = rand()
    L = make_liouvillian(0.5 * (h + h.conj().T), [(rand(), 0.5)], dims=[d])
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = g @ g.conj().T
    return L, rho0 / np.trace(rho0).real


def make_liouvillian_res(space, h, collapse_pairs):
    H = LinearOperator(space, h)
    cols = CollapseSet([(LinearOperator(space, op), rate)
                        for op, rate in collapse_pairs])
    return build_liouvillian(H, cols)


def bundled_bell(decoherence=True):
    """``(config, Liouvillian)`` of the bundled two-qubit scenario; without
    ``decoherence`` the qubits have T1 = T_phi = infinity."""
    cfg = bundled_scenario("bell")
    if not decoherence:
        cfg = cfg.replace(qubits=tuple(
            QubitParams(q.label, q.omega_q, q.alpha, None, None,
                        q.working_freq)
            for q in cfg.qubits))
    return cfg, build_problem(cfg)[1]


def oracle_cases():
    """Liouvillians with a unique steady state, as ``pytest.param``s."""
    for d in range(2, 9):
        for seed in range(3):
            yield pytest.param(random_lindbladian(d, seed)[0],
                               id=f"random-d{d}-s{seed}")
    space = tls_space()
    yield pytest.param(build_liouvillian(
        LinearOperator(space, np.diag([0.0, 5.0]).astype(complex)),
        CollapseSet([(lowering_op(space, 0), 1.0)])), id="pure-decay")
    # the n_bar = 0.74 cavity of acceptance criterion 6a
    cav = CompositeSpace([ModeSpec("r", "resonator", 30)])
    c = lowering_op(cav, 0)
    eps = math.sqrt(0.74 * (10.0 ** 2 + 0.55 ** 2))
    yield pytest.param(build_liouvillian(
        (2 * math.pi * 10.0) * (c.dag() @ c) + (2 * math.pi * eps) * (c + c.dag()),
        CollapseSet([(c, 2 * math.pi * 1.1)])), id="driven-cavity-d30")


class TestSteadyState:
    @pytest.mark.parametrize("L", oracle_cases())
    def test_matches_direct_lu_oracle(self, L, lu_steady_state):
        ss = steady_state(L, tol=1e-9)
        npt.assert_allclose(ss.rho.matrix, lu_steady_state(L),
                            rtol=0, atol=1e-10)

    def test_decoherence_free_bell_matches_oracle(self, lu_steady_state):
        # T1 = T_phi = infinity: the resonator decay alone selects a unique
        # (far from the plateau) kernel state
        cfg, L = bundled_bell(decoherence=False)
        ss = steady_state(L, tol=1e-9)
        npt.assert_allclose(ss.rho.matrix, lu_steady_state(L),
                            rtol=0, atol=1e-10)
        reduced = partial_trace(ss.rho, range(cfg.n_qubits))
        psi = named_qubit_state(reduced.space, "T")
        fid = float(np.real(np.vdot(psi, reduced.matrix @ psi)))
        assert fid == pytest.approx(0.46978, abs=5e-6)
        assert 1e-8 < ss.info["kernel_gap"] < 1.0

    def test_pure_decay_reaches_ground(self):
        space = tls_space()
        H = LinearOperator(space, np.diag([0.0, 5.0]).astype(complex))
        L = build_liouvillian(H, CollapseSet([(lowering_op(space, 0), 1.0)]))
        ss = steady_state(L, tol=1e-10)
        npt.assert_allclose(ss.rho.matrix, np.diag([1.0, 0.0]), atol=1e-10)
        assert ss.residual < 1e-12
        assert ss.method == "sylvester_gmres"

    def test_info_records_solver_evidence(self):
        L, _ = random_lindbladian(5, seed=7)
        ss = steady_state(L, tol=1e-9)
        info = ss.info
        assert type(info["iterations"]) is int and info["iterations"] > 0
        assert len(info["residual_history"]) == info["iterations"]
        assert info["residual_history"][-1] <= lindblad._GMRES_RTOL
        assert 1e-8 < info["kernel_gap"] <= 1.0
        assert info["shift"] > 0 and info["cond_V"] >= 1.0

    def test_methods_agree(self, lu_steady_state):
        # the bundled two-qubit scenario: GMRES against a direct sparse LU
        cfg, L = bundled_bell()
        ss = steady_state(L, tol=cfg.solver.steady_tol)
        npt.assert_allclose(ss.rho.matrix, lu_steady_state(L),
                            rtol=0, atol=1e-10)

    def test_degenerate_kernel_detected(self):
        # two uncoupled decaying qubits with no cross relaxation conserve
        # each qubit's ground projector: the kernel is degenerate
        space = CompositeSpace([ModeSpec("a", QUBIT, 2), ModeSpec("b", QUBIT, 2)])
        h = np.zeros((4, 4), dtype=complex)
        # dephasing on both qubits only: every diagonal state is steady
        cols = CollapseSet([(number_op(space, 0), 1.0),
                            (number_op(space, 1), 1.0)])
        L = build_liouvillian(LinearOperator(space, h), cols)
        with pytest.raises(SteadyStateError, match="not unique|residual"):
            steady_state(L, tol=1e-9)

    def test_no_dissipation_is_not_unique(self):
        L = make_liouvillian(np.array([[0, 1], [1, 0]], complex), [])
        with pytest.raises(SteadyStateError, match="not unique"):
            steady_state(L)

    def test_near_defective_heff_rejected(self):
        # H = g sigma_x with decay 4g sits on an exceptional point: Heff has
        # one eigenvector, so its eigenbasis cannot invert S
        space = tls_space()
        L = build_liouvillian(
            LinearOperator(space, np.array([[0, 1], [1, 0]], complex)),
            CollapseSet([(lowering_op(space, 0), 4.0)]))
        with pytest.raises(SteadyStateError, match="near-defective"):
            steady_state(L)

    def test_gmres_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(lindblad, "_GMRES_RESTART", 2)
        monkeypatch.setattr(lindblad, "_GMRES_MAXITER", 1)
        L, _ = random_lindbladian(6, seed=3)
        with pytest.raises(SteadyStateError,
                           match=r"after 2 GMRES iterations \(GMRES did not converge\)"):
            steady_state(L, tol=1e-9)

    def test_residual_norm(self):
        space = tls_space()
        L = build_liouvillian(
            LinearOperator(space, np.zeros((2, 2), dtype=complex)),
            CollapseSet([(lowering_op(space, 0), 2.0)]))
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert residual_norm(L, rho) == pytest.approx(1.0)
