import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.hilbert import (
    QUBIT, RESONATOR, CompositeSpace, DensityMatrix, ModeSpec,
    SpaceMismatchError, basis_state, coherent_state, embed,
    expectation, fidelity_pure, identity_op, lowering_op, number_op,
    partial_trace, product_state,
)


def space_of(*dims, kinds=None):
    kinds = kinds or [QUBIT] * len(dims)
    return CompositeSpace([ModeSpec(f"m{i}", k, d)
                           for i, (d, k) in enumerate(zip(dims, kinds))])


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestModeSpec:
    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dim"):
            ModeSpec("q", QUBIT, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModeSpec("q", "spin", 2)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CompositeSpace([ModeSpec("a", QUBIT, 2), ModeSpec("a", QUBIT, 2)])

    def test_resonator_before_qubit_rejected(self):
        with pytest.raises(ValueError, match="precede"):
            CompositeSpace([ModeSpec("r", RESONATOR, 3), ModeSpec("q", QUBIT, 2)])


class TestLowering:
    def test_two_level(self):
        sp = space_of(2)
        npt.assert_array_equal(lowering_op(sp, 0).toarray(),
                               [[0, 1], [0, 0]])

    def test_three_level_subdiagonal(self):
        sp = space_of(3)
        a = lowering_op(sp, 0).toarray()
        npt.assert_allclose(np.diag(a, 1), [1.0, np.sqrt(2.0)])
        assert np.count_nonzero(a) == 2

    def test_tensor_factor_matches_kronecker_oracle(self):
        # two dim-2 modes, operator on the second: identity (x) lowering
        sp = space_of(2, 2)
        a_local = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.kron(np.eye(2), a_local)
        npt.assert_array_equal(lowering_op(sp, 1).toarray(), expected)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            lowering_op(space_of(2), 1)


class TestNumber:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_diagonal(self, dim):
        sp = space_of(dim)
        npt.assert_array_equal(number_op(sp, 0).toarray(),
                               np.diag(np.arange(dim, dtype=complex)))

    def test_equals_adjoint_compose_lowering(self):
        sp = space_of(3, 4)
        for i in range(2):
            a = lowering_op(sp, i)
            npt.assert_allclose(number_op(sp, i).toarray(),
                                (a.dag() @ a).toarray(), atol=1e-14)

    def test_commutator_with_lowering_truncated(self):
        # [n, a] = -a holds exactly on the truncated space; the truncation
        # boundary shows up in [a, a^dag], whose top diagonal entry is
        # 1 - dim instead of 1 (the feeding element from level dim is gone)
        sp = space_of(5)
        n, a = number_op(sp, 0), lowering_op(sp, 0)
        comm = (n @ a - a @ n).toarray()
        npt.assert_allclose(comm, -a.toarray(), atol=1e-14)
        canonical = (a @ a.dag() - a.dag() @ a).toarray()
        expected = np.eye(5, dtype=complex)
        expected[4, 4] = 1.0 - 5.0
        npt.assert_allclose(canonical, expected, atol=1e-14)


class TestEmbedAlgebra:
    def test_embed_identity_is_global_identity(self):
        sp = space_of(2, 3)
        npt.assert_array_equal(embed(sp, 1, np.eye(3)).toarray(), np.eye(6))

    def test_adjoint_of_lowering_is_raising(self):
        sp = space_of(3)
        npt.assert_array_equal(lowering_op(sp, 0).dag().toarray(),
                               lowering_op(sp, 0).toarray().conj().T)

    def test_compose_with_identity(self):
        sp = space_of(2, 2)
        a = lowering_op(sp, 0)
        npt.assert_array_equal((a @ identity_op(sp)).toarray(),
                               a.toarray())

    def test_dimension_mismatch_rejected(self):
        sp = space_of(2, 3)
        with pytest.raises(ValueError, match="local matrix shape"):
            embed(sp, 0, np.eye(3))

    def test_space_mismatch_rejected(self):
        a = lowering_op(space_of(2), 0)
        b = lowering_op(space_of(3), 0)
        with pytest.raises(SpaceMismatchError):
            a @ b

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_embed_compose_against_dense_kron_oracle(self, dims, seed):
        # random local matrices on random modes vs an explicit dense build
        space = space_of(*dims)
        if space.total_dim > 64:
            return
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                for d in dims]
        idx = rng.integers(len(dims))
        dense = np.eye(1, dtype=complex)
        for i, d in enumerate(dims):
            dense = np.kron(dense, mats[i] if i == idx else np.eye(d))
        npt.assert_allclose(embed(space, int(idx), mats[idx]).toarray(),
                            dense, atol=1e-12)
        # product of two embeddings equals the dense product
        j = int(rng.integers(len(dims)))
        op = embed(space, int(idx), mats[idx]) @ embed(space, j, mats[j])
        dense_j = np.eye(1, dtype=complex)
        for i, d in enumerate(dims):
            dense_j = np.kron(dense_j, mats[i] if i == j else np.eye(d))
        npt.assert_allclose(op.toarray(), dense @ dense_j, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_involution_and_product_rule(self, seed):
        sp = space_of(2, 3)
        rng = np.random.default_rng(seed)
        d = sp.total_dim
        a = embed(sp, 0, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b = embed(sp, 1, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        npt.assert_allclose(a.dag().dag().toarray(), a.toarray(),
                            atol=1e-12)
        npt.assert_allclose((a @ b).dag().toarray(),
                            (b.dag() @ a.dag()).toarray(),
                            atol=1e-12)


class TestBasisStates:
    def test_ground_is_first_basis_vector(self):
        sp = space_of(2, 2)
        npt.assert_array_equal(basis_state(sp, (0, 0)),
                               np.eye(4, dtype=complex)[0])

    def test_row_major_ordering(self):
        # |e,g> sits at index 2 under row-major occupation indexing
        sp = space_of(2, 2)
        npt.assert_array_equal(basis_state(sp, (1, 0)),
                               np.eye(4, dtype=complex)[2])

    def test_superposition_norm(self):
        sp = space_of(2, 2)
        psi = (basis_state(sp, (0, 1)) + basis_state(sp, (1, 0))) / np.sqrt(2)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)

    def test_occupation_beyond_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            basis_state(space_of(2, 3), (0, 3))

    def test_coherent_state_mean_occupation(self):
        alpha = 0.6 + 0.3j
        psi = coherent_state(30, alpha)
        n = np.arange(30)
        assert np.sum(n * np.abs(psi) ** 2) == pytest.approx(abs(alpha) ** 2,
                                                             rel=1e-10)

    def test_product_state(self):
        sp = space_of(2, 2)
        psi = product_state(sp, [np.array([0, 1]), np.array([1, 0])])
        npt.assert_array_equal(psi, basis_state(sp, (1, 0)))


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        sp = space_of(2, 3)
        rng = np.random.default_rng(7)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        rho = DensityMatrix(sp, np.kron(rho_a, rho_b))
        npt.assert_allclose(partial_trace(rho, [0]).matrix, rho_a, atol=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        sp = space_of(2, 2)
        psi = (basis_state(sp, (0, 0)) + basis_state(sp, (1, 1))) / np.sqrt(2)
        red = partial_trace(DensityMatrix.from_state_vector(sp, psi), [0])
        npt.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_against_index_summation_oracle(self):
        sp = space_of(2, 3)
        rng = np.random.default_rng(11)
        rho = random_density(rng, 6)
        # explicit double loop over the traced index
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += rho[i * 3 + k, j * 3 + k]
        red = partial_trace(DensityMatrix(sp, rho), [0])
        npt.assert_allclose(red.matrix, expected, atol=1e-13)

    def test_empty_keep_rejected(self):
        sp = space_of(2, 2)
        rho = DensityMatrix(sp, np.eye(4) / 4)
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(rho, [])

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_trace_and_positivity_preserved(self, seed):
        sp = space_of(2, 3, 2)
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(sp, random_density(rng, 12))
        red = partial_trace(rho, [0, 2])
        assert red.trace().real == pytest.approx(1.0, abs=1e-12)
        assert red.min_eigenvalue() >= -1e-10


class TestFunctionals:
    def test_expectation_number(self):
        sp = space_of(3)
        rho = DensityMatrix(sp, np.diag([0.2, 0.3, 0.5]).astype(complex))
        assert expectation(number_op(sp, 0), rho) == pytest.approx(1.3)

    def test_fidelity_pure_self(self):
        sp = space_of(2, 2)
        psi = (basis_state(sp, (0, 1)) + basis_state(sp, (1, 0))) / np.sqrt(2)
        rho = DensityMatrix.from_state_vector(sp, psi)
        assert fidelity_pure(psi, rho) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal_support(self):
        sp = space_of(2, 2)
        psi = basis_state(sp, (0, 1))
        rho = DensityMatrix.from_state_vector(sp, basis_state(sp, (1, 1)))
        assert fidelity_pure(psi, rho) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_maximally_mixed_vs_entangled(self):
        sp = space_of(2, 2)
        psi = (basis_state(sp, (0, 1)) + basis_state(sp, (1, 0))) / np.sqrt(2)
        rho = DensityMatrix(sp, np.eye(4, dtype=complex) / 4)
        assert fidelity_pure(psi, rho) == pytest.approx(0.25, abs=1e-12)

    def test_space_mismatch(self):
        rho = DensityMatrix(space_of(2), np.eye(2, dtype=complex) / 2)
        with pytest.raises(SpaceMismatchError):
            expectation(number_op(space_of(3), 0), rho)


class TestDensityMatrixValidation:
    def test_valid_state_passes(self):
        sp = space_of(2)
        DensityMatrix(sp, np.diag([0.6, 0.4]).astype(complex)).validate()

    def test_trace_violation(self):
        sp = space_of(2)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(sp, np.diag([0.7, 0.4]).astype(complex)).validate()

    def test_negativity_violation(self):
        sp = space_of(2)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(sp, np.diag([1.5, -0.5]).astype(complex)).validate()
