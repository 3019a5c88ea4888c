import numpy as np
import numpy.testing as npt
import pytest

from stabsim.device import bundled_scenario
from stabsim.modes import (
    QuadraticForm, build_quadratic_form, cooling_matrix, kerr_coefficients,
    normal_modes,
)


def bell_form(g=None):
    """Quadratic form of the two-qubit scenario; g=0 detaches the resonators."""
    cfg = bundled_scenario("bell")
    if g is not None:
        res = tuple(type(r)(r.label, r.omega_r, r.kappa, r.chi, g)
                    for r in cfg.resonators)
        cfg = cfg.replace(resonators=res)
    return build_quadratic_form(cfg)


class TestQuadraticForm:
    def test_single_mode_pair_diagonal(self):
        form = QuadraticForm(np.diag([4200.0, 6500.0]), 1, 1)
        npt.assert_array_equal(form.matrix, np.diag([4200.0, 6500.0]))

    def test_bell_qubit_block(self):
        m = bell_form(g=0.0).matrix
        npt.assert_allclose(m[:2, :2], [[4202.0, -5.0], [-5.0, 4202.0]])

    def test_couplings_only_on_dedicated_pairs(self):
        m = bell_form().matrix
        assert m[0, 2] != 0 and m[1, 3] != 0
        assert m[0, 3] == 0 and m[1, 2] == 0

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticForm(bad, 1, 1)


class TestNormalModes:
    def test_two_resonant_qubits(self):
        form = bell_form(g=0.0)
        basis = normal_modes(form)
        npt.assert_allclose(basis.lambda_q, [4197.0, 4207.0], atol=1e-9)
        s = 1 / np.sqrt(2)
        npt.assert_allclose(np.abs(basis.m[:2, basis.qubit_columns[0]]),
                            [s, s], atol=1e-12)
        npt.assert_allclose(np.sort(np.abs(basis.m[:2, basis.qubit_columns[1]])),
                            [s, s], atol=1e-12)

    def test_decoupled_resonator_block_is_trivial(self):
        basis = normal_modes(bell_form(g=0.0))
        for k, col in enumerate(basis.resonator_columns):
            vec = basis.m[:, col]
            assert abs(vec[2 + k]) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        basis = normal_modes(bell_form())
        for col in range(basis.m.shape[1]):
            idx = np.argmax(np.abs(basis.m[:, col]))
            assert basis.m[idx, col] > 0

    def test_orthogonality_and_reconstruction(self):
        form = bell_form()
        basis = normal_modes(form)
        npt.assert_allclose(basis.m.T @ basis.m, np.eye(4), atol=1e-10)
        rebuilt = basis.m @ np.diag(basis.eigenvalues) @ basis.m.T
        npt.assert_allclose(rebuilt, form.matrix,
                            rtol=1e-9, atol=1e-9 * np.abs(form.matrix).max())

    def test_dispersive_mixing_weight(self):
        # single qubit + resonator: the cross weight approaches g/Delta
        for g in (20.0, 50.0, 100.0):
            delta = 2279.0
            form = QuadraticForm(np.array([[4202.0, g], [g, 4202.0 + delta]]),
                                 1, 1)
            basis = normal_modes(form)
            mixing = abs(basis.m[0, basis.resonator_columns[0]])
            assert mixing == pytest.approx(g / delta, rel=0.05)

    def test_degenerate_classification_rejected(self):
        # engineer a resonator block whose first two eigenvectors carry their
        # largest weight on the same bare resonator; the bare-mode pairing is
        # then ambiguous and must be refused
        v1 = np.array([0.58, 0.577, 0.575])
        v1 /= np.linalg.norm(v1)
        v2 = np.array([-2.0, 1.0, 1.0])
        v2 -= (v2 @ v1) * v1
        v2 /= np.linalg.norm(v2)
        v3 = np.cross(v1, v2)
        q = np.column_stack([v1, v2, v3])
        assert np.argmax(np.abs(v1)) == np.argmax(np.abs(v2)) == 0
        block = q @ np.diag([6500.0, 6600.0, 6700.0]) @ q.T
        m = np.zeros((4, 4))
        m[0, 0] = 5000.0
        m[1:, 1:] = block
        with pytest.raises(ValueError, match="degenerate classification"):
            normal_modes(QuadraticForm(m, 1, 3))


class TestKerrCoefficients:
    def test_uncoupled_single_qubit(self):
        alpha = -197.0
        form = QuadraticForm(np.diag([4202.0, 6481.0]), 1, 1)
        kerr = kerr_coefficients(normal_modes(form), [alpha])
        assert kerr.mu[0, 0, 0, 0] == pytest.approx(alpha)
        npt.assert_allclose(kerr.xi, 0.0, atol=1e-12)
        npt.assert_allclose(kerr.eta, 0.0, atol=1e-12)

    def test_hierarchy_in_dispersive_regime(self):
        basis = normal_modes(bell_form())
        alphas = [q.alpha for q in bundled_scenario("bell").qubits]
        kerr = kerr_coefficients(basis, alphas)
        mu, eta, xi = (np.abs(kerr.mu).max(), np.abs(kerr.eta).max(),
                       np.abs(kerr.xi).max())
        assert mu >= 10 * eta >= 100 * xi

    def test_eta_against_dispersive_shortcut(self):
        cfg = bundled_scenario("bell")
        basis = normal_modes(build_quadratic_form(cfg))
        alphas = [q.alpha for q in cfg.qubits]
        kerr = kerr_coefficients(basis, alphas)
        from stabsim.device import derive_g
        for k in range(2):
            g = derive_g(cfg.resonators[k], cfg.qubits[k])
            delta = cfg.resonators[k].omega_r - cfg.qubits[k].working_freq
            mq = basis.m[np.ix_([0, 1], list(basis.qubit_columns))]
            for l in range(2):
                for p in range(2):
                    approx = (alphas[k] * (g / delta) ** 2
                              * mq[k, l] * mq[k, p])
                    assert kerr.eta[k, k, l, p] == pytest.approx(approx,
                                                                 rel=0.10)

    def test_against_quadruple_loop_oracle(self):
        basis = normal_modes(bell_form())
        alphas = np.array([-197.0, -189.0])
        kerr = kerr_coefficients(basis, alphas)
        L = 2
        mq = basis.m[np.ix_(range(L), list(basis.qubit_columns))]
        mr = basis.m[np.ix_(range(L), list(basis.resonator_columns))]
        for s in range(L):
            for u in range(L):
                for l in range(L):
                    for p in range(L):
                        mu = sum(alphas[i] * mq[i, s] * mq[i, u]
                                 * mq[i, l] * mq[i, p] for i in range(L))
                        eta = sum(alphas[i] * mr[i, s] * mr[i, u]
                                  * mq[i, l] * mq[i, p] for i in range(L))
                        xi = sum(alphas[i] * mr[i, s] * mr[i, u]
                                 * mr[i, l] * mr[i, p] for i in range(L))
                        assert abs(kerr.mu[s, u, l, p] - mu) < 1e-12
                        assert abs(kerr.eta[s, u, l, p] - eta) < 1e-12
                        assert abs(kerr.xi[s, u, l, p] - xi) < 1e-12

    def test_permutation_symmetry(self):
        basis = normal_modes(bell_form())
        kerr = kerr_coefficients(basis, [-197.0, -189.0])
        npt.assert_allclose(kerr.mu, kerr.mu.transpose(1, 0, 2, 3), atol=1e-12)
        npt.assert_allclose(kerr.mu, kerr.mu.transpose(0, 1, 3, 2), atol=1e-12)
        npt.assert_allclose(kerr.eta, kerr.eta.transpose(1, 0, 2, 3), atol=1e-12)
        npt.assert_allclose(kerr.eta, kerr.eta.transpose(0, 1, 3, 2), atol=1e-12)


class TestCoolingMatrix:
    def test_zero_photons_zero_matrix(self):
        basis = normal_modes(bell_form())
        kerr = kerr_coefficients(basis, [-197.0, -189.0])
        cool = cooling_matrix(basis, kerr, 0, 0.0, chi_kk=-0.75)
        npt.assert_allclose(cool.exact, 0.0, atol=1e-15)
        npt.assert_allclose(cool.approx, 0.0, atol=1e-15)

    def test_bell_pair_element_arithmetic(self):
        # detached resonators give the exact eigenstate overlaps |M M| = 1/2,
        # so |d| = 2 sqrt(0.74) * 0.75 * 0.5
        basis = normal_modes(bell_form(g=0.0))
        kerr = kerr_coefficients(basis, [-197.0, -189.0])
        cool = cooling_matrix(basis, kerr, 0, 0.74, chi_kk=-0.75)
        assert abs(cool.approx[0, 1]) == pytest.approx(
            2 * np.sqrt(0.74) * 0.75 * 0.5, rel=1e-12)

    def test_exact_close_to_approx_in_dispersive_regime(self):
        cfg = bundled_scenario("bell")
        basis = normal_modes(build_quadratic_form(cfg))
        alphas = [q.alpha for q in cfg.qubits]
        kerr = kerr_coefficients(basis, alphas)
        cool = cooling_matrix(basis, kerr, 0, 0.74, alphas=alphas)
        assert abs(cool.exact[0, 1]) == pytest.approx(abs(cool.approx[0, 1]),
                                                      rel=0.05)

    def test_validity_flag(self):
        cfg = bundled_scenario("bell")
        basis = normal_modes(build_quadratic_form(cfg))
        kerr = kerr_coefficients(basis, [q.alpha for q in cfg.qubits])
        cool = cooling_matrix(basis, kerr, 0, 0.74, chi_kk=-0.75, kappa=1.1)
        assert cool.kappa_ratio == pytest.approx(
            1.1 / np.abs(cool.exact).max())
        assert cool.within_adiabatic_validity is False
        weak = cooling_matrix(basis, kerr, 0, 0.001, chi_kk=-0.75, kappa=1.1)
        assert weak.within_adiabatic_validity is True

    def test_negative_photon_number_rejected(self):
        basis = normal_modes(bell_form())
        kerr = kerr_coefficients(basis, [-197.0, -189.0])
        with pytest.raises(ValueError, match="nonneg"):
            cooling_matrix(basis, kerr, 0, -1.0, chi_kk=-0.75)

    def test_shared_resonator_element_vanishes(self):
        # one resonator equally coupled to two identical qubits: the cooling
        # element between distinct dressed modes cancels by eigenvector
        # orthogonality.  The dedicated layout (one resonator per qubit, at
        # distinct frequencies as on any real chip) keeps it finite.
        g = 140.0
        alpha = [-197.0, -197.0]
        shared = QuadraticForm(np.array([
            [4202.0, -5.0, g],
            [-5.0, 4202.0, g],
            [g, g, 6481.0]]), 2, 1)
        basis_sh = normal_modes(shared)
        kerr_sh = kerr_coefficients(basis_sh, alpha)
        cool_sh = cooling_matrix(basis_sh, kerr_sh, 0, 0.74, chi_kk=-0.75)

        dedicated = QuadraticForm(np.array([
            [4202.0, -5.0, g, 0.0],
            [-5.0, 4202.0, 0.0, g],
            [g, 0.0, 6481.0, 0.0],
            [0.0, g, 0.0, 6604.0]]), 2, 2)
        basis_d = normal_modes(dedicated)
        kerr_d = kerr_coefficients(basis_d, alpha)
        cool_d = cooling_matrix(basis_d, kerr_d, 0, 0.74, chi_kk=-0.75)

        off_shared = abs(cool_sh.exact[0, 1])
        off_dedicated = abs(cool_d.exact[0, 1])
        assert off_dedicated > 0.1
        assert off_shared < 1e-10 * off_dedicated
