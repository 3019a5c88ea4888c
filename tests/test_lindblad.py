import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import jv

from stabsim import lindblad
from stabsim.device import QubitParams, bundled_scenario
from stabsim.hamiltonian import named_qubit_state
from stabsim.hilbert import (
    QUBIT, CompositeSpace, ModeSpec, basis_state, lowering_op,
    number_op, partial_trace,
)
from stabsim.lindblad import (
    EvolutionError, SteadyStateError, build_liouvillian, evolve,
    evolve_shifted, residual_norm, steady_state, unvectorize, vectorize,
)
from stabsim.scenarios import _probe_family, build_problem


def pure(psi):
    """|psi><psi| as a d x d array."""
    return np.outer(psi, psi.conj())


BUNDLED = ["bell", "bell_single_channel", "bell_pump2", "w"]


def tls_space():
    return CompositeSpace([ModeSpec("q", QUBIT, 2)])


def make_liouvillian(h, collapse_pairs, dims=None):
    dims = dims or [h.shape[0]]
    space = CompositeSpace([ModeSpec(f"m{i}", QUBIT, d)
                            for i, d in enumerate(dims)])
    return build_liouvillian(space, h, collapse_pairs)


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
        space_b = CompositeSpace([ModeSpec("q", QUBIT, 3)])
        bad = [(lowering_op(space_b, 0), 1.0)]
        with pytest.raises(ValueError, match="space of dim 2"):
            build_liouvillian(tls_space(), np.zeros((2, 2)), bad)
        with pytest.raises(ValueError, match="space of dim 3"):
            build_liouvillian(space_b, np.zeros((2, 2)), bad)

    def test_negative_rate_rejected(self):
        space = tls_space()
        with pytest.raises(ValueError, match="nonnegative"):
            build_liouvillian(space, np.zeros((2, 2)),
                              [(lowering_op(space, 0), -0.1)])

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected_by_operator(self, rate):
        # NaN passes a rate < 0 test; refused before evolve or
        # steady_state read it
        space = tls_space()
        a = lowering_op(space, 0)
        with pytest.raises(ValueError, match="nonnegative and finite: "
                                             f"operator 1 has rate {rate}"):
            build_liouvillian(space, np.zeros((2, 2)), [(a, 0.5), (a, rate)])

    @pytest.mark.parametrize("where", ["H", "collapse operator 0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_operator_rejected_by_name(self, where, value):
        space = tls_space()
        H, a = np.zeros((2, 2)), lowering_op(space, 0)
        (H if where == "H" else a)[1, 1] = value
        with pytest.raises(ValueError, match=f"^{where} has a non-finite"):
            build_liouvillian(space, H, [(a, 0.5), (number_op(space, 0), 0.1)])

    def test_sparse_operators_refused(self):
        # Hilbert-space operators are dense arrays, with no conversion path
        space = tls_space()
        a = lowering_op(space, 0)
        L = build_liouvillian(space, np.zeros((2, 2)), [(a, 1.0)])
        dense = "must be a dense array"
        with pytest.raises(ValueError, match=f"H {dense}"):
            build_liouvillian(space, sp.csr_matrix((2, 2)), [(a, 1.0)])
        with pytest.raises(ValueError, match=f"collapse operator {dense}"):
            build_liouvillian(space, np.zeros((2, 2)),
                              [(sp.csr_matrix(a), 1.0)])
        with pytest.raises(ValueError, match=f"observable {dense}"):
            evolve(L, np.eye(2) / 2, np.linspace(0.0, 1.0, 5),
                   observables={"n": sp.csr_matrix(number_op(space, 0))})

    @pytest.mark.parametrize("d", [3, 8])
    def test_stored_damping_is_the_rate_weighted_gram_sum(self, d):
        # D = sum r_k O_k^dag O_k and each ||O_k||_2^2, against dense
        # products, for dense, sparse and diagonal operators
        rng = np.random.default_rng(d)
        dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sparse = dense.T * (rng.random((d, d)) < 0.3)
        pairs = [(dense, 0.7), (sparse, 1.3), (np.diag(np.arange(d) + 0j), 0.2)]
        L = make_liouvillian(np.zeros((d, d)), pairs, dims=[d])
        ref = sum(r * o.conj().T @ o for o, r in pairs)
        npt.assert_allclose(L.damping, ref, rtol=0,
                            atol=1e-14 * np.abs(ref).max())
        npt.assert_allclose(L.norms, [np.linalg.norm(o, 2) ** 2
                                      for o, _ in pairs], rtol=1e-13)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_damping_is_the_stacked_product(self, name):
        # bitwise the sparse product S^dag (W S) of the stacked operators
        # S and their rates W: an entry of a ladder operator's O^dag O is
        # one product, so the dense products sum the same terms in order
        L = build_problem(bundled_scenario(name))[1]
        S = sp.vstack([sp.csr_matrix(op) for op, _ in L.collapse],
                      format="csr")
        W = sp.diags(np.repeat([r for _, r in L.collapse], L.dim))
        assert L.damping.tobytes() == (S.conj().T @ (W @ S)).toarray().tobytes()


class TestEvolve:
    def test_exponential_decay(self):
        gamma = 0.8
        space = tls_space()
        L = build_liouvillian(space, np.zeros((2, 2)),
                              [(lowering_op(space, 0), gamma)])
        rho0 = pure(basis_state(space, (1,)))
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
        rho0 = pure(basis_state(space, (0,)))
        t = np.linspace(0.0, 10.0, 401)
        res = evolve(L, rho0, t, observables={"n": number_op(space, 0)})
        expected = np.sin(omega * t / 2.0) ** 2
        npt.assert_allclose(np.real(res.observables["n"]), expected,
                            atol=1e-6)

    def test_driven_damped_cavity_reaches_photon_formula(self):
        # steady <c^dag c> of a linear cavity matches the drive calibration
        from conftest import photon_number
        eps, delta, kappa = 2.0, 4.0, 1.5  # linear MHz
        dim = 25
        space = CompositeSpace([ModeSpec("r", "resonator", dim)])
        c = lowering_op(space, 0)
        two_pi = 2 * math.pi
        n = c.conj().T @ c
        h = (two_pi * delta) * n + (two_pi * eps) * (c + c.conj().T)
        L = build_liouvillian(space, h, [(c, two_pi * kappa)])
        rho0 = pure(basis_state(space, (0,)))
        t = np.linspace(0.0, 12.0, 25)
        res = evolve(L, rho0, t, observables={"n": n})
        n_ss = float(np.real(res.observables["n"][-1]))
        assert n_ss == pytest.approx(photon_number(eps, delta, kappa),
                                     rel=1e-3)

    # evolve runs the Chebyshev expansion at both sizes.  A family of two
    # members runs dense at d = 4, where the stacked propagators batch, and
    # under one Chebyshev plan, a member at a time, at d = 33 (d^2 = 1089
    # > 1024); the sparser d = 33 model keeps the dense reference affordable
    PATHS = [(4, 1.0, False), (33, 0.1, True)]
    # (collapse rate, H scale) of the generic model and of two more run on
    # both paths: a strongly damped one, and one whose H is scaled up until
    # a grid step spans many periods of the fastest mode
    MODELS = {"generic": (0.5, 1.0), "damped": (50.0, 1.0),
              "fast": (0.5, 100.0)}

    @pytest.mark.parametrize("d,density,block_family,model", [
        pytest.param(4, 1.0, False, "generic", id="4-1.0-False"),
        pytest.param(33, 0.1, True, "generic", id="33-0.1-True"),
        (4, 1.0, False, "damped"), (33, 0.1, True, "damped"),
        (4, 1.0, False, "fast"), (33, 0.1, True, "fast"),
    ])
    def test_matches_matrix_exponential(self, d, density, block_family,
                                        model):
        rate, h_scale = self.MODELS[model]
        L, rho0 = random_lindbladian(d, seed=9, density=density, rate=rate,
                                     h_scale=h_scale)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is block_family
        t = np.linspace(0.0, 0.5, 3) if block_family else np.linspace(0, 5, 21)
        spread = np.ptp(np.linalg.eigvalsh(L.hamiltonian))
        if model == "damped":
            # mean damping tr(sum r O^dag O)/d against H's spectral spread
            damping = sum(r * np.linalg.norm(op) ** 2
                          for op, r in L.collapse) / d
            assert damping > 10 * spread
        if model == "fast":
            # periods of the fastest mode per grid step
            assert (t[1] - t[0]) * spread / (2 * math.pi) > 10
        # every grid point is checked against its own reference state
        _, rhos = evolved_states(L, rho0, t)
        A = L.matrix.toarray()
        if block_family:
            # one dense 1089 x 1089 expm per case: point k is P^k vec(rho0)
            P = expm(A * (t[1] - t[0]))
            refs = [vectorize(rho0)]
            for _ in t[1:]:
                refs.append(P @ refs[-1])
        else:
            refs = [expm(A * tk) @ vectorize(rho0) for tk in t]
        for rho, ref in zip(rhos, refs):
            npt.assert_allclose(rho, unvectorize(ref, d), rtol=0, atol=1e-10)
        if not block_family:
            # the dense family steps expm((L + delta F) dt) itself; check
            # expm((L + delta F) t_k) for each member
            number, shifts = np.arange(d) % 3.0, [0.0, 1.3]
            res, members = family_states(L, number, shifts, rho0, t)
            assert res.diagnostics["propagator"]["method"] == "dense_expm"
            F = np.diag(lindblad._commutator_diagonal(number))
            for delta, rhos in zip(shifts, members):
                for tk, rho in zip(t, rhos):
                    ref = expm((A + delta * F) * tk) @ vectorize(rho0)
                    npt.assert_allclose(rho, unvectorize(ref, d), rtol=0,
                                        atol=1e-10)

    @pytest.mark.parametrize("model", ["generic", "damped", "fast"])
    def test_box_encloses_numerical_range(self, model):
        # Re W(A) and Im W(A) span the eigenvalues of (A + A^T)/2 and
        # i(A^T - A)/2, computed exactly for this d^2 = 1089 model
        rate, h_scale = self.MODELS[model]
        L, _ = random_lindbladian(33, seed=9, density=0.1, rate=rate,
                                  h_scale=h_scale)
        A = real_matrix(L.matrix).toarray()
        R, lo, hi = single_box(L, sp.csr_matrix(A))
        re = np.linalg.eigvalsh(0.5 * (A + A.T))
        im = np.linalg.eigvalsh(0.5j * (A.T - A))
        assert lo <= re[0] and re[-1] <= hi
        assert max(-im[0], im[-1]) <= R

    # 2.4048... and 3.8317... are the first zeros of J_0 and J_1, which
    # the scaling must survive
    @pytest.mark.parametrize("tau", [0.3, 2.404825557695773,
                                     3.8317059702075125, 48.1, 350.0])
    def test_bessel_recurrence_matches_scipy(self, tau):
        kmax = int(1.5 * tau) + 40
        npt.assert_allclose(lindblad._bessel_j(tau, kmax),
                            jv(np.arange(kmax), tau), rtol=1e-11, atol=1e-14)

    def test_bessel_recurrence_at_large_argument(self):
        # at tau = 2000 scipy's jv is itself off by up to 2.6e-14, so
        # 30-digit mpmath values at every 97th order are the oracle
        mpmath = pytest.importorskip("mpmath")
        tau, kmax = 2000.0, 3040
        orders = np.arange(0, kmax, 97)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(int(k), tau))
                            for k in orders])
        npt.assert_allclose(lindblad._bessel_j(tau, kmax)[orders], ref,
                            rtol=1e-11, atol=1e-14)

    def test_csr_kernel_accumulates_in_place(self):
        # the Chebyshev recurrence relies on this private scipy kernel
        # adding A x into y; a scipy that changes it fails here first
        rng = np.random.default_rng(4)
        A = sp.random(50, 40, density=0.2, format="csr", random_state=rng)
        assert A.data.dtype == np.float64 and A.indices.dtype == np.int32
        x, y = rng.normal(size=40), rng.normal(size=50)
        expected = A @ x + y
        lindblad.csr_matvec(50, 40, A.indptr, A.indices, A.data, x, y)
        # the kernel sums in another order: a few ulps of the O(1) entries
        npt.assert_allclose(y, expected, rtol=0, atol=1e-14)

    def test_rows_grouped_by_length_give_the_same_sums(self):
        # bell's Chebyshev matrix B with its rows grouped by length: the
        # permuted product is the rows of B x, bitwise, and so is every
        # sum of an expansion
        cfg, L = bundled_bell()
        A = real_matrix(L.matrix)
        c, R, _, coef, _, _ = lindblad._chebyshev_plan(
            single_box(L, A), cfg.t_step, 10)
        B = ((2.0 / R) * (A - c * sp.identity(A.shape[0]))).tocsr()
        grouped, perm = lindblad._rows_by_length(B)
        lengths = np.diff(grouped.indptr)
        assert (np.diff(lengths) >= 0).all() and lengths[0] < lengths[-1]
        assert grouped.nnz == B.nnz == 47_008
        x = np.random.default_rng(8).normal(size=B.shape[0])
        npt.assert_array_equal(grouped @ x[perm], (B @ x)[perm])
        buf = np.empty((32, B.shape[0]))
        sums, grouped_sums = np.empty((2, len(coef), B.shape[0]))
        lindblad._chebyshev_sums(B, x, coef, buf, sums)
        lindblad._chebyshev_sums(grouped, x[perm], coef, buf, grouped_sums)
        npt.assert_array_equal(grouped_sums, sums[:, perm])

    @staticmethod
    def runs(L):
        """evolve and a two-member family of L (dense or Chebyshev)."""
        yield lambda rho0, t: evolve(L, rho0, t)
        yield lambda rho0, t: evolve_shifted(L, np.arange(L.dim) % 2.0,
                                             [0.0, 0.5], rho0, t)

    @pytest.mark.parametrize("d,density,block_family", PATHS)
    def test_matvec_count_is_positive_int(self, d, density, block_family):
        L, rho0 = random_lindbladian(d, seed=2, density=density)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is block_family
        for run in self.runs(L):
            count = run(rho0, np.linspace(0.0, 0.5, 6)).diagnostics[
                "rhs_evaluations"]
            assert type(count) is int and count > 0

    @pytest.mark.parametrize("d,density,block_family", PATHS)
    def test_non_hermitian_rho0_rejected(self, d, density, block_family):
        L, rho0 = random_lindbladian(d, seed=5, density=density)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is block_family
        rho0[0, 1] += 1e-6
        for run in self.runs(L):
            with pytest.raises(ValueError, match="rho0 is not Hermitian"):
                run(rho0, np.linspace(0.0, 0.5, 3))

    @pytest.mark.parametrize("d,density,block_family", PATHS)
    def test_wrong_size_rho0_rejected(self, d, density, block_family):
        L, _ = random_lindbladian(d, seed=5, density=density)
        assert (d * d > lindblad._DENSE_PROPAGATOR_MAX) is block_family
        for run in self.runs(L):
            with pytest.raises(
                    ValueError,
                    match=rf"rho0 has shape \(2, 2\), not \({d}, {d}\)"):
                run(np.eye(2) / 2, np.linspace(0.0, 0.5, 3))

    def test_non_hermiticity_preserving_generator_rejected(self):
        # one gate checks L before either path runs: evolve's Chebyshev
        # expansion at both sizes, and a two-member family, dense at d = 4
        t = np.linspace(0.0, 0.5, 3)
        for d, density in [(4, 1.0), (33, 0.1)]:
            L, rho0 = random_lindbladian(d, seed=5, density=density)
            bad = replace(L, matrix=1j * L.matrix)
            with pytest.raises(ValueError, match="preserve Hermiticity"):
                evolve(bad, rho0, t)
        L, rho0 = random_lindbladian(4, seed=5)
        bad = replace(L, matrix=1j * L.matrix)
        with pytest.raises(ValueError, match="preserve Hermiticity"):
            evolve_shifted(bad, np.arange(4) % 2.0, [0.0, 1.0], rho0, t)

    def test_bell_matvec_count_is_exact_and_bounded(self):
        cfg, L = bundled_bell()
        rho0 = np.zeros((L.dim, L.dim))
        rho0[0, 0] = 1.0
        t = np.linspace(0.0, 10 * cfg.t_step, 11)
        diag = evolve(L, rho0, t).diagnostics
        prop = diag["propagator"]
        assert prop["method"] == "chebyshev"
        assert prop["half_width"] > 0
        steps = len(t) - 1
        assert diag["rhs_evaluations"] == planned_matvecs(L, t, prop)
        # a loosened bound would show here as more work per step
        assert diag["rhs_evaluations"] <= 95 * steps

    @pytest.mark.parametrize("points", [3, 11])
    def test_bell_block_length_within_grid(self, points):
        # bell serves several grid points from one expansion, but never
        # more than the grid has steps
        cfg, L = bundled_bell()
        rho0 = np.zeros((L.dim, L.dim))
        rho0[0, 0] = 1.0
        t = np.linspace(0.0, (points - 1) * cfg.t_step, points)
        s = evolve(L, rho0, t).diagnostics["propagator"][
            "outputs_per_expansion"]
        assert 1 < s <= points - 1

    @pytest.mark.parametrize("name, plan", [
        ("bell", (4, 323, 1, 8050)),
        ("bell_single_channel", (5, 355, 1, 7080)),
        ("bell_pump2", (4, 322, 1, 8025)), ("w", (7, 479, 1, 6854))])
    def test_bundled_plans(self, name, plan):
        # (s, K, m, matvecs) on each bundled scenario's 100-step grid
        cfg = bundled_scenario(name)
        assert round(cfg.t_final / cfg.t_step) == 100
        L = build_problem(cfg)[1]
        A = real_matrix(L.matrix)
        _, _, m, coef, _, matvecs = lindblad._chebyshev_plan(
            single_box(L, A), cfg.t_step, 100)
        assert (*coef.shape, m, matvecs) == plan

    @pytest.mark.parametrize("model", ["generic", "fast"])
    def test_partial_last_expansion_matches_propagator_powers(self, model):
        rate, h_scale = self.MODELS[model]
        L, rho0 = random_lindbladian(33, seed=9, density=0.1, rate=rate,
                                     h_scale=h_scale)
        t = np.linspace(0.0, 1.1, 12)
        res, rhos = evolved_states(L, rho0, t)
        # the last expansion serves fewer grid points than the others, and
        # costs only the terms its span needs
        prop = res.diagnostics["propagator"]
        steps, s = len(t) - 1, prop["outputs_per_expansion"]
        assert steps % s != 0
        assert res.diagnostics["rhs_evaluations"] == planned_matvecs(L, t, prop)
        assert_matches_propagator_powers(L, rho0, t, rhos)

    def test_fast_model_five_steps_in_one_expansion(self):
        # one expansion serves all 5 steps, where s = 1 took 126 matvecs a
        # step
        rate, h_scale = self.MODELS["fast"]
        L, rho0 = random_lindbladian(33, seed=9, density=0.1, rate=rate,
                                     h_scale=h_scale)
        t = np.linspace(0.0, 0.5, 6)
        res, rhos = evolved_states(L, rho0, t)
        assert res.diagnostics["rhs_evaluations"] <= 100 * (len(t) - 1)
        assert_matches_propagator_powers(L, rho0, t, rhos)

    def test_damped_model_takes_substeps(self):
        rate, h_scale = self.MODELS["damped"]
        L, rho0 = random_lindbladian(33, seed=9, density=0.1, rate=rate,
                                     h_scale=h_scale)
        t = np.linspace(0.0, 0.5, 3)
        res = evolve(L, rho0, t)
        assert res.diagnostics["propagator"]["substeps"] > 1
        # the box must not cost the damped model work: its plan takes 2400
        # matvecs a step, and the Gershgorin interval alone 5733
        assert res.diagnostics["rhs_evaluations"] <= 2400 * (len(t) - 1)

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.3], [0.0, 0.2, 0.1],
                                      [1.0, 1.0, 1.0]])
    def test_non_uniform_grid_rejected(self, grid):
        L, rho0 = random_lindbladian(4, seed=1)
        with pytest.raises(ValueError, match="uniform"):
            evolve(L, rho0, np.asarray(grid))

    def test_integrity_diagnostics(self):
        gamma = 0.3
        space = tls_space()
        L = build_liouvillian(space, np.array([[0, 1], [1, 0]]),
                              [(lowering_op(space, 0), gamma)])
        rho0 = pure(basis_state(space, (1,)))
        res = evolve(L, rho0, np.linspace(0, 20, 101))
        assert res.diagnostics["max_trace_drift"] <= 1e-8
        assert res.diagnostics["max_hermiticity_defect"] <= 1e-9
        assert res.diagnostics["min_eigenvalue"] >= -1e-7

    def test_positivity_abort(self):
        space = tls_space()
        L = build_liouvillian(space, np.zeros((2, 2)), [])
        bad = np.diag([1.5, -0.5]).astype(complex)  # trace 1, not positive
        with pytest.raises(EvolutionError, match="positivity"):
            evolve(L, bad, np.linspace(0, 1, 5))

    def test_positivity_abort_reports_first_bad_time(self):
        # time-reversed decay from the mixed state drains |g> until its
        # population turns negative after t = ln 2
        space = tls_space()
        decay = build_liouvillian(space, np.zeros((2, 2)),
                                  [(lowering_op(space, 0), 1.0)])
        reversed_decay = replace(decay, matrix=-decay.matrix)
        with pytest.raises(EvolutionError, match="t=0.7 us") as exc:
            evolve(reversed_decay, np.eye(2) / 2, np.linspace(0, 2, 21))
        assert exc.value.diagnostics["t"] == pytest.approx(0.7)

    def test_stacked_values_match_per_sample_loop(self):
        L, rho0 = random_lindbladian(4, seed=4)
        rng = np.random.default_rng(4)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        lin = op.T
        t = np.linspace(0.0, 3.0, 13)
        res, rhos = evolved_states(
            L, rho0, t, observables={"op": op, "lin": lin, "psi": psi})
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


class TestEvolveMany:
    """One state under the family L + delta F of :func:`evolve_shifted`,
    one stacked result."""

    def test_stacked_expm_matches_scipy(self):
        # 1-norms from 1e-3 to 1e2 take from 0 to 5 squarings, each member
        # its own; scipy's expm, one member at a time, is the reference
        rng = np.random.default_rng(11)
        P = rng.standard_normal((12, 16, 16))
        norms = np.geomspace(1e-3, 1e2, len(P))
        P *= (norms / np.abs(P).sum(axis=1).max(axis=1))[:, None, None]
        ref = expm(P)
        out = lindblad._expm(P.copy())
        err = (np.abs(out - ref).max(axis=(1, 2))
               / np.abs(ref).max(axis=(1, 2)))
        assert err.max() <= 1e-13
        # a non-finite member stays non-finite, for the observer to name,
        # and leaves the others' bits alone
        P[3, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            bad = lindblad._expm(P)
        assert not np.isfinite(bad[3]).all()
        others = np.arange(len(P)) != 3
        npt.assert_array_equal(bad[others], out[others])

    @pytest.mark.parametrize("d,density,shifts,t", [
        (4, 1.0, [-1.3, 0.0, 2.2], np.linspace(0.0, 5.0, 21)),
        (33, 0.1, [-2.1, -0.4, 0.0, 1.7, 3.2], np.linspace(0.0, 0.5, 6)),
    ], ids=["dense", "chebyshev"])
    def test_each_result_matches_evolve(self, d, density, shifts, t):
        # each row against evolve of the generator of H + delta N built
        # from scratch.  The family has one propagator record and counts
        # each member's matvecs; its rows are no longer evolve's per-member
        # runs, so neither the delta = 0 row's bits nor per-member records
        # are compared
        L, rho0 = random_lindbladian(d, seed=1, density=density)
        number = np.arange(d) % 3.0
        rng = np.random.default_rng(0)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        obs = {"n": number_op(L.space, 0), "psi": psi / np.linalg.norm(psi)}
        family = evolve_shifted(L, number, shifts, rho0, t, observables=obs)
        refs = [evolve(shifted_liouvillian(L, number, delta), rho0, t,
                       observables=obs) for delta in shifts]
        npt.assert_array_equal(family.times, t)
        for name in obs:
            rows = family.observables[name]
            assert rows.shape == (len(shifts), len(t))
            for row, ref in zip(rows, refs):
                npt.assert_allclose(row, ref.observables[name],
                                    rtol=0, atol=1e-13)
        diag = family.diagnostics
        prop = diag["propagator"]
        if prop["method"] == "dense_expm":
            assert diag["rhs_evaluations"] == len(shifts) * (len(t) - 1)
            # the dense path steps real coordinates: every state is built
            # exactly Hermitian
            assert diag["max_hermiticity_defect"] == 0.0
        else:
            assert diag["rhs_evaluations"] == len(shifts) * planned_matvecs(
                L, t, prop, number, shifts)
        ref_diags = [ref.diagnostics for ref in refs]
        for key, worst in (("max_trace_drift", max),
                           ("max_hermiticity_defect", max),
                           ("min_eigenvalue", min)):
            assert diag[key] == pytest.approx(
                worst(dg[key] for dg in ref_diags), abs=1e-13)

    def test_shifted_stack_matches_shifted_generators(self):
        # the dense family L + delta diag F against one generator of
        # H + delta N per delta, built from scratch, on a number operator
        # with a repeated entry
        L, rho0 = random_lindbladian(4, seed=5)
        number = np.array([0.0, 1.0, 1.0, 2.0])
        shifts = [-1.3, 0.0, 2.2]
        t = np.linspace(0.0, 3.0, 13)
        obs = {"n": number_op(L.space, 0)}
        family = evolve_shifted(L, number, shifts, rho0, t, observables=obs)
        refs = [evolve(shifted_liouvillian(L, number, delta), rho0, t,
                       observables=obs) for delta in shifts]
        for row, ref in zip(family.observables["n"], refs):
            npt.assert_allclose(row, ref.observables["n"], rtol=0,
                                atol=1e-13)
        assert family.diagnostics["min_eigenvalue"] == pytest.approx(
            min(ref.diagnostics["min_eigenvalue"] for ref in refs),
            abs=1e-13)
        with pytest.raises(ValueError, match="number has shape"):
            evolve_shifted(L, number[:3], shifts, rho0, t)
        with pytest.raises(ValueError, match="no generators"):
            evolve_shifted(L, number, [], rho0, t)

    def test_groups_split_the_batch(self, monkeypatch):
        # groups of two: the third shift starts a group of its own
        L, rho0 = random_lindbladian(4, seed=5)
        number = np.array([0.0, 1.0, 1.0, 2.0])
        shifts = [-1.3, 0.0, 2.2]
        t = np.linspace(0.0, 2.0, 9)
        obs = {"n": number_op(L.space, 0)}
        whole = evolve_shifted(L, number, shifts, rho0, t, observables=obs)
        monkeypatch.setattr(lindblad, "_dense_group_size", lambda n: 2)
        split = evolve_shifted(L, number, shifts, rho0, t, observables=obs)
        npt.assert_allclose(whole.observables["n"], split.observables["n"],
                            rtol=0, atol=1e-13)

    def test_group_size_rule(self):
        # a family runs dense up to d^2 = 1024, one propagator a group
        # from d = 27; the d = 4 scan fits one group
        assert lindblad._dense_group_size(lindblad._DENSE_PROPAGATOR_MAX) == 1
        assert lindblad._dense_group_size(26 ** 2) == 2
        assert lindblad._dense_group_size(27 ** 2) == 1
        assert lindblad._dense_group_size(16) == 4096
        t = np.linspace(0.0, 0.1, 3)
        for d, density, method in [(4, 1.0, "dense_expm"),
                                   (32, 0.1, "dense_expm"),
                                   (33, 0.1, "chebyshev")]:
            L, rho0 = random_lindbladian(d, seed=5, density=density)
            family = evolve_shifted(L, np.arange(d) % 2.0, [0.0, 1.0], rho0, t)
            assert family.diagnostics["propagator"]["method"] == method
            # a one-member family never runs dense
            single = evolve_shifted(L, np.arange(d) % 2.0, [1.0], rho0, t)
            assert single.diagnostics["propagator"]["method"] == "chebyshev"

    def test_empty_batch_rejected(self):
        L, rho0 = random_lindbladian(4, seed=5)
        with pytest.raises(ValueError, match="no generators"):
            evolve_shifted(L, np.zeros(4), [], rho0, np.linspace(0.0, 1.0, 3))

    def test_number_shape_checked(self):
        L, rho0 = random_lindbladian(4, seed=5)
        with pytest.raises(ValueError, match="number has shape"):
            evolve_shifted(L, np.zeros(3), [0.0], rho0,
                           np.linspace(0.0, 1.0, 3))

    def test_positivity_failure_names_generator_and_first_time(self):
        # time-reversed decay, whose |g> population turns negative after
        # t = ln 2 (see TestEvolve); a frame shift leaves the diagonal
        # state's populations alone, so every member fails there and the
        # first is named
        space = tls_space()
        decay = build_liouvillian(space, np.zeros((2, 2)),
                                  [(lowering_op(space, 0), 1.0)])
        reversed_decay = replace(decay, matrix=-decay.matrix)
        with pytest.raises(EvolutionError,
                           match="generator 0 at t=0.7 us") as exc:
            evolve_shifted(reversed_decay, [0.0, 1.0], [0.0, 1.0, -2.0],
                           np.eye(2) / 2, np.linspace(0, 2, 21))
        assert exc.value.diagnostics["generator"] == 0
        assert exc.value.diagnostics["t"] == pytest.approx(0.7)

    def test_observer_names_the_failing_member(self):
        # after a positive first block, only member 1 goes negative; the
        # observer reads real coordinates x = Re(Q^dag vec(rho))
        Q = lindblad._hermitian_basis(2)
        observe = lindblad._StateObserver(np.linspace(0.0, 1.0, 3), Q, 3,
                                          None)

        def coords(rho):
            return (Q.conj().T @ vectorize(rho)).real

        good = coords(np.eye(2) / 2)
        observe(slice(0, 3), slice(0, 1), np.array([good] * 3)[:, None])
        bad = coords(np.diag([1.5, -0.5]))
        with pytest.raises(EvolutionError,
                           match="generator 1 at t=0.5 us") as exc:
            observe(slice(0, 3), slice(1, 2),
                    np.array([good, bad, good])[:, None])
        assert exc.value.diagnostics["generator"] == 1
        assert exc.value.diagnostics["min_eigenvalue"] == pytest.approx(-0.5)

    @pytest.mark.parametrize("shifts,rows", [
        ([np.nan], r"\[0\] are \[nan\]"),
        ([0.0, np.inf, np.nan], r"\[1, 2\] are \[inf, nan\]"),
    ], ids=["chebyshev", "dense"])
    def test_non_finite_shifts_rejected(self, shifts, rows):
        # a one-member family would run Chebyshev, a three-member one at
        # d = 4 dense; both are refused before either runs
        L, rho0 = random_lindbladian(4, seed=5)
        with pytest.raises(ValueError, match="shifts must be finite: rows "
                                             + rows):
            evolve_shifted(L, np.arange(4) % 2.0, shifts, rho0,
                           np.linspace(0.0, 0.5, 3))

    def test_non_finite_number_rejected(self):
        L, rho0 = random_lindbladian(4, seed=5)
        with pytest.raises(ValueError, match=r"number must be finite: rows "
                                             r"\[1, 3\] are \[nan, inf\]"):
            evolve_shifted(L, np.array([0.0, np.nan, 1.0, np.inf]),
                           [0.0, 1.0], rho0, np.linspace(0.0, 0.5, 3))


class TestFamilyBlock:
    """The Chebyshev members A + delta A_F of a family, run one at a time,
    and the one box their plan takes."""

    def test_frame_shift_matrix_is_real_and_skew(self):
        # Q^dag F Q, formed as the propagator forms it, has an exactly zero
        # imaginary part, so taking its real part drops nothing
        rng = np.random.default_rng(6)
        number = rng.integers(0, 3, size=7) + rng.normal(size=7)
        Q = lindblad._hermitian_basis(7)
        F = lindblad._commutator_diagonal(number)
        A_F = Q.conj().T @ sp.diags(F) @ Q
        assert not A_F.imag.toarray().any()
        dense = Q.conj().T.toarray() @ np.diag(F) @ Q.toarray()
        npt.assert_allclose(A_F.toarray(), dense, rtol=0, atol=1e-15)
        npt.assert_array_equal(A_F.real.toarray(), -A_F.real.toarray().T)

    @pytest.mark.parametrize("model", [*range(2, 9), "probe"])
    def test_dense_and_chebyshev_formations_agree(self, monkeypatch, model):
        # the A and A_F each path is handed: sparse times dense products
        # where a two-member family runs dense, the sparse product where a
        # one-member shifted family runs Chebyshev.  The two associations
        # may round differently, within 1 ulp of max|L|; A_F is exactly
        # skew on both
        if model == "probe":
            L, number, _ = self.spectroscopy_family()
            models = [(L, number, np.eye(L.dim) / L.dim)]
        else:
            models = []
            for seed, density in ((model, 1.0), (model + 20, 0.3)):
                L, rho0 = random_lindbladian(model, seed=seed,
                                             density=density)
                models.append((L, np.arange(model) % 3.0, rho0))
        formed = {}

        def dense(A, A_F, *args):
            formed["dense"] = A, A_F
            return 0, {}

        def chebyshev(liouvillian, A, A_F, *args):
            formed["chebyshev"] = A.toarray(), A_F.toarray()
            return 0, {}

        monkeypatch.setattr(lindblad, "_dense_propagate", dense)
        monkeypatch.setattr(lindblad, "_chebyshev_propagate", chebyshev)
        t = np.linspace(0.0, 0.5, 3)
        for L, number, rho0 in models:
            formed.clear()
            evolve_shifted(L, number, [0.0, 1.0], rho0, t)
            evolve_shifted(L, number, [1.0], rho0, t)
            (A, A_F), (A_cheb, A_F_cheb) = formed["dense"], formed["chebyshev"]
            ulp = np.spacing(np.abs(L.matrix.data).max())
            assert np.abs(A - A_cheb).max() <= ulp
            npt.assert_array_equal(A_F, -A_F.T)
            npt.assert_array_equal(A_F_cheb, -A_F_cheb.T)

    @staticmethod
    def random_family():
        L, _ = random_lindbladian(33, seed=1, density=0.1)
        return L, np.arange(33) % 3.0, np.array([-2.1, -0.4, 0.0, 1.7, 3.2])

    @staticmethod
    def spectroscopy_family():
        cfg = bundled_scenario("bell")
        work = cfg.qubits[0].working_freq
        freqs = np.linspace(work - 10.0, work + 10.0, 81)
        return _probe_family(cfg, (0.1, 0.0), freqs)

    @pytest.mark.parametrize("family", ["random", "spectroscopy"])
    def test_end_members_bound_every_member(self, family):
        # the spread of H + delta N plus J at deltas drawn inside the range
        # never exceeds the half-height R of the plan's box
        L, number, shifts = getattr(self, f"{family}_family")()
        A = real_matrix(L.matrix)
        R, _, _ = lindblad._numerical_range_box(L, A, number, shifts)
        jump = sum(r * np.linalg.norm(op, 2) ** 2 for op, r in L.collapse)
        H = L.hamiltonian
        rng = np.random.default_rng(2)
        for delta in rng.uniform(shifts.min(), shifts.max(), 40):
            spread = np.ptp(np.linalg.eigvalsh(H + np.diag(delta * number)))
            assert spread + jump <= R

    def test_block_rows_match_rebuilt_members(self):
        # every row of a five-member family against evolve of that member's
        # generator built from scratch
        L, number, shifts = self.random_family()
        rng = np.random.default_rng(0)
        g = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
        rho0 = g @ g.conj().T / np.trace(g @ g.conj().T).real
        t = np.linspace(0.0, 0.5, 6)
        obs = {"n": number_op(L.space, 0)}
        family = evolve_shifted(L, number, shifts, rho0, t, observables=obs)
        assert family.diagnostics["propagator"]["method"] == "chebyshev"
        for row, delta in zip(family.observables["n"], shifts):
            ref = evolve(shifted_liouvillian(L, number, delta), rho0, t,
                         observables=obs)
            npt.assert_allclose(row, ref.observables["n"], rtol=0,
                                atol=1e-13)

    def test_members_run_one_at_a_time(self, monkeypatch):
        # one plan, and one reordered matrix of d^2 rows per member; the
        # record's nonzeros are the last member's and the matvecs 5 times
        # the plan's
        L, number, shifts = self.random_family()
        _, rho0 = random_lindbladian(33, seed=1, density=0.1)
        t = np.linspace(0.0, 0.5, 6)
        reorder, members = lindblad._rows_by_length, []

        def counting(B):
            members.append((B.shape[0], B.nnz))
            return reorder(B)

        monkeypatch.setattr(lindblad, "_rows_by_length", counting)
        res = evolve_shifted(L, number, shifts, rho0, t)
        assert [rows for rows, _ in members] == [33 ** 2] * 5
        prop = res.diagnostics["propagator"]
        assert prop["matrix_nnz"] == members[-1][1]
        assert res.diagnostics["rhs_evaluations"] == 5 * planned_matvecs(
            L, t, prop, number, shifts)


class TestPositivityCertificate:
    """The observer's running minimum: blocks after t = 0 pass on one
    Cholesky factorization, and fall back to ``eigvalsh``."""

    @staticmethod
    def run(monkeypatch, L, rho0, t):
        """``(result, rhos, eigvalsh calls, per-point minimum)`` of a dense
        two-member family, whose blocks are its t = 0 states and then runs
        of ``_DENSE_BLOCK_STEPS`` grid steps."""
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a):
            calls.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        res, rhos = family_states(L, np.arange(L.dim) % 2.0, [0.0, 0.7],
                                  rho0, t)
        assert res.diagnostics["propagator"]["method"] == "dense_expm"
        monkeypatch.undo()
        rhos = rhos.reshape(-1, L.dim, L.dim)
        per_point = eigvalsh(0.5 * (rhos + rhos.conj().transpose(0, 2, 1)))
        return res, rhos, len(calls), per_point[:, 0].min()

    def test_pure_start_certified_after_first_block(self, monkeypatch):
        L, _ = random_lindbladian(4, seed=3)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = pure(psi / np.linalg.norm(psi))
        res, _, calls, ref = self.run(monkeypatch, L, rho0,
                                      np.linspace(0.0, 5.0, 21))
        assert calls == 1  # the t = 0 block only
        assert res.diagnostics["min_eigenvalue"] == pytest.approx(ref, abs=1e-13)

    def test_falling_minimum_takes_eigvalsh(self, monkeypatch):
        # decay from the mixed state: lambda_min = exp(-t)/2 falls at every
        # step, so no block passes the certificate
        space = tls_space()
        L = build_liouvillian(space, np.zeros((2, 2)),
                              [(lowering_op(space, 0), 1.0)])
        t = np.linspace(0.0, 2.0, 21)
        res, _, calls, ref = self.run(monkeypatch, L, np.eye(2) / 2, t)
        # every block takes eigvalsh: t = 0, then the 20 steps in runs
        blocks = math.ceil((len(t) - 1) / lindblad._DENSE_BLOCK_STEPS)
        assert calls == 1 + blocks
        assert res.diagnostics["min_eigenvalue"] == ref
        assert ref == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)

    def test_decoherence_free_pure_state(self, monkeypatch):
        # a pure state stays rank one, so rho - m 1 is singular to rounding
        # and the factorization fails on later blocks
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        L = make_liouvillian(h + h.conj().T, [])
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = pure(psi / np.linalg.norm(psi))
        res, rhos, calls, ref = self.run(monkeypatch, L, rho0,
                                         np.linspace(0.0, 5.0, 21))
        assert calls > 1
        assert res.diagnostics["min_eigenvalue"] == pytest.approx(ref, abs=1e-13)
        assert res.diagnostics["max_trace_drift"] == pytest.approx(
            np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max(), abs=1e-15)


def random_lindbladian(d, seed, density=1.0, rate=0.5, h_scale=1.0):
    """Random Hermitian H (times ``h_scale``), one random collapse operator
    at ``rate``, random state."""
    rng = np.random.default_rng(seed)

    def rand():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return m * (rng.random((d, d)) < density)

    h = rand()
    L = make_liouvillian(0.5 * h_scale * (h + h.conj().T), [(rand(), rate)],
                         dims=[d])
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = g @ g.conj().T
    return L, rho0 / np.trace(rho0).real


def matrix_units(d):
    """The d^2 matrix-unit observables E_ab = |a><b|: tr(E_ab rho) = rho_ba
    picks one entry of the propagated vector, so states read back through
    them are exact."""
    eye = np.eye(d)
    return {(a, b): np.outer(eye[a], eye[b])
            for a in range(d) for b in range(d)}


def evolved_states(L, rho0, t, observables=None):
    """``(result, rhos)``: :func:`evolve` on ``t`` and rho(t_j) at every
    grid point, read back through :func:`matrix_units`."""
    units = matrix_units(L.dim)
    res = evolve(L, rho0, t, observables={**units, **(observables or {})})
    rhos = np.empty((len(t), L.dim, L.dim), dtype=complex)
    for a, b in units:
        rhos[:, b, a] = res.observables.pop((a, b))
    return res, rhos


def family_states(L, number, shifts, rho0, t):
    """``(result, rhos)``: :func:`evolve_shifted` on ``t`` and rho_g(t_j) of
    every member g at every grid point, read back through
    :func:`matrix_units`."""
    units = matrix_units(L.dim)
    res = evolve_shifted(L, number, shifts, rho0, t, observables=units)
    rhos = np.empty((len(shifts), len(t), L.dim, L.dim), dtype=complex)
    for a, b in units:
        rhos[:, :, b, a] = res.observables.pop((a, b))
    return res, rhos


def shifted_liouvillian(L, number, delta):
    """The generator of H + delta diag(``number``), built from scratch."""
    return build_liouvillian(L.space, L.hamiltonian + np.diag(delta * number),
                             L.collapse)


def real_matrix(M):
    """Re(Q^dag M Q) as the Chebyshev path forms it, for a d^2 x d^2 sparse
    matrix M."""
    Q = lindblad._hermitian_basis(math.isqrt(M.shape[0]))
    return (Q.conj().T @ M @ Q).tocsr().real


def single_box(L, A):
    """The numerical-range box of evolve's one-member delta = 0 family."""
    return lindblad._numerical_range_box(L, A, np.zeros(L.dim), np.zeros(1))


def assert_matches_propagator_powers(L, rho0, t, rhos):
    """rho(t_k) = P^k vec(rho0) to 1e-10, P the dense expm(L dt)."""
    P = expm(L.matrix.toarray() * (t[1] - t[0]))
    ref = vectorize(rho0)
    for rho in rhos:
        npt.assert_allclose(rho, unvectorize(ref, L.dim), rtol=0, atol=1e-10)
        ref = P @ ref


def planned_matvecs(L, t, prop, number=None, shifts=(0.0,)):
    """Matvecs of the Chebyshev plan on grid ``t`` for the family of
    ``number`` and ``shifts`` (evolve's by default), checked against the
    reported ``prop``: floor(steps/s) expansions of m (K - 1) matvecs, and
    where s does not divide the steps a last one of m (K_r - 1)."""
    A = real_matrix(L.matrix)
    number = np.zeros(L.dim) if number is None else number
    box = lindblad._numerical_range_box(L, A, number, np.asarray(shifts))
    steps = len(t) - 1
    _, R, m, coef, K_r, matvecs = lindblad._chebyshev_plan(
        box, t[1] - t[0], steps)
    s, K = coef.shape
    assert (s, m, K, R) == (prop["outputs_per_expansion"], prop["substeps"],
                            prop["terms"], prop["half_width"])
    assert K_r <= K
    assert matvecs == (steps // s) * m * (K - 1) + (
        m * (K_r - 1) if steps % s else 0)
    return matvecs


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
        space, np.diag([0.0, 5.0]), [(lowering_op(space, 0), 1.0)]),
        id="pure-decay")
    # H = sigma_x with decay 4 puts Heff on an exceptional point: it has
    # one eigenvector, and only the split preconditioner has a basis
    yield pytest.param(build_liouvillian(
        space, np.array([[0, 1], [1, 0]]), [(lowering_op(space, 0), 4.0)]),
        id="exceptional-point")
    # the n_bar = 0.74 cavity of acceptance criterion 6a
    cav = CompositeSpace([ModeSpec("r", "resonator", 30)])
    c = lowering_op(cav, 0)
    eps = math.sqrt(0.74 * (10.0 ** 2 + 0.55 ** 2))
    H = ((2 * math.pi * 10.0) * (c.conj().T @ c)
         + (2 * math.pi * eps) * (c + c.conj().T))
    yield pytest.param(build_liouvillian(cav, H, [(c, 2 * math.pi * 1.1)]),
                       id="driven-cavity-d30")


class TestSteadyState:
    @pytest.mark.parametrize("L", oracle_cases())
    def test_matches_direct_lu_oracle(self, L, lu_steady_state):
        ss = steady_state(L, tol=1e-9)
        npt.assert_allclose(ss.rho, lu_steady_state(L),
                            rtol=0, atol=1e-10)

    def test_decoherence_free_bell_matches_oracle(self, lu_steady_state):
        # T1 = T_phi = infinity: the resonator decay alone selects a unique
        # (far from the plateau) kernel state
        cfg, L = bundled_bell(decoherence=False)
        ss = steady_state(L, tol=1e-9)
        npt.assert_allclose(ss.rho, lu_steady_state(L),
                            rtol=0, atol=1e-10)
        reduced = partial_trace(L.space, ss.rho, range(cfg.n_qubits))
        psi = named_qubit_state(
            CompositeSpace(L.space.modes[:cfg.n_qubits]), "T")
        fid = float(np.real(np.vdot(psi, reduced @ psi)))
        assert fid == pytest.approx(0.46978, abs=5e-6)
        assert 1e-8 < ss.info["kernel_gap"] < 1.0

    def test_pure_decay_reaches_ground(self):
        space = tls_space()
        L = build_liouvillian(space, np.diag([0.0, 5.0]),
                              [(lowering_op(space, 0), 1.0)])
        ss = steady_state(L, tol=1e-10)
        npt.assert_allclose(ss.rho, np.diag([1.0, 0.0]), atol=1e-10)
        assert ss.residual < 1e-12
        assert ss.method == "sylvester_arnoldi"

    def test_info_records_solver_evidence(self):
        L, _ = random_lindbladian(5, seed=7)
        ss = steady_state(L, tol=1e-9)
        info = ss.info
        assert type(info["iterations"]) is int and info["iterations"] > 0
        assert 1e-8 < info["kernel_gap"] <= 1.0
        assert info["shift"] > 0 and info["cond_V"] >= 1.0

    def test_methods_agree(self, lu_steady_state):
        # the bundled two-qubit scenario: the Arnoldi run against a direct
        # sparse LU
        cfg, L = bundled_bell()
        ss = steady_state(L, tol=cfg.solver.steady_tol)
        npt.assert_allclose(ss.rho, lu_steady_state(L),
                            rtol=0, atol=1e-10)

    def test_degenerate_kernel_detected(self):
        # two uncoupled decaying qubits with no cross relaxation conserve
        # each qubit's ground projector: the kernel is degenerate
        space = CompositeSpace([ModeSpec("a", QUBIT, 2), ModeSpec("b", QUBIT, 2)])
        # dephasing on both qubits only: every diagonal state is steady
        cols = [(number_op(space, 0), 1.0), (number_op(space, 1), 1.0)]
        L = build_liouvillian(space, np.zeros((4, 4)), cols)
        with pytest.raises(SteadyStateError, match="not unique|residual"):
            steady_state(L, tol=1e-9)

    def test_no_dissipation_is_not_unique(self):
        L = make_liouvillian(np.array([[0, 1], [1, 0]], complex), [])
        with pytest.raises(SteadyStateError, match="not unique"):
            steady_state(L)

    def test_kernel_gap_run_is_bounded(self, monkeypatch):
        # this model's kernel-gap run takes 7 Krylov-Schur passes (74
        # applications of K)
        L, _ = random_lindbladian(5, seed=7)
        monkeypatch.setattr(lindblad, "_EIGS_MAXITER", 3)
        with pytest.raises(SteadyStateError,
                           match="kernel gap unresolved.* 3 restarts"):
            steady_state(L, tol=1e-9)

    def test_residual_gate(self):
        L, _ = random_lindbladian(6, seed=3)
        with pytest.raises(SteadyStateError,
                           match="steady-state residual .* exceeds tolerance"):
            steady_state(L, tol=1e-20)

    def test_eigenvector_phase_is_removed(self, monkeypatch, lu_steady_state):
        # an eigenvector carries an arbitrary phase; rotate the solver's so
        # its trace is 0.3i, where taking the Hermitian part first leaves
        # only rounding noise
        L, _ = random_lindbladian(5, seed=7)
        trace_idx = np.arange(L.dim) * (L.dim + 1)
        solver = lindblad._krylov_schur

        def rotated_eigs(*args, **kwargs):
            mu, vecs = solver(*args, **kwargs)
            tr = vecs[trace_idx].sum(axis=0)
            return mu, vecs * np.exp(-1j * np.angle(tr)) * (1j * 0.3)

        monkeypatch.setattr(lindblad, "_krylov_schur", rotated_eigs)
        ss = steady_state(L, tol=1e-9)
        npt.assert_allclose(ss.rho, lu_steady_state(L),
                            rtol=0, atol=1e-10)

    def test_basis_spanning_the_space_gives_exact_pairs(self,
                                                        lu_steady_state):
        # d = 2: n = 4 <= 20 basis vectors span the space after n
        # applications of K, so the Ritz pairs are K's own
        L, _ = random_lindbladian(2, seed=4)
        solve, _ = lindblad._no_jump_inverse(L)
        K = np.eye(4) - np.column_stack(
            [solve(L.matrix @ e) for e in np.eye(4, dtype=complex)])
        mu = np.sort(np.abs(np.linalg.eigvals(K)))[::-1]
        ss = steady_state(L, tol=1e-12)
        assert ss.info["iterations"] == 4
        assert ss.info["kernel_gap"] == pytest.approx(1 - mu[1], abs=1e-13)
        npt.assert_allclose(ss.rho, lu_steady_state(L), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["bell", "bell_pump2",
                                      "bell_single_channel", "w"])
    def test_bundled_residual_at_rounding(self, name):
        cfg = bundled_scenario(name)
        ss = steady_state(build_problem(cfg)[1], tol=cfg.solver.steady_tol)
        assert ss.residual <= 1e-13

    def test_residual_norm(self):
        space = tls_space()
        L = build_liouvillian(space, np.zeros((2, 2)),
                              [(lowering_op(space, 0), 2.0)])
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert residual_norm(L, rho) == pytest.approx(1.0)
