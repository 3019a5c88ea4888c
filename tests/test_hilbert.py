import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.hilbert import (
    QUBIT, RESONATOR, CompositeSpace, DensityMatrix, ModeSpec, basis_state,
    coherent_state, coherent_tail, embed, lowering_op, number_op,
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
                                (a.conj().T @ a).toarray(), atol=1e-14)

    def test_commutator_with_lowering_truncated(self):
        # [n, a] = -a holds exactly on the truncated space; the truncation
        # boundary shows up in [a, a^dag], whose top diagonal entry is
        # 1 - dim instead of 1 (the feeding element from level dim is gone)
        sp = space_of(5)
        n, a = number_op(sp, 0), lowering_op(sp, 0)
        comm = (n @ a - a @ n).toarray()
        npt.assert_allclose(comm, -a.toarray(), atol=1e-14)
        ad = a.conj().T
        canonical = (a @ ad - ad @ a).toarray()
        expected = np.eye(5, dtype=complex)
        expected[4, 4] = 1.0 - 5.0
        npt.assert_allclose(canonical, expected, atol=1e-14)


class TestEmbedAlgebra:
    def test_embed_identity_is_global_identity(self):
        sp = space_of(2, 3)
        npt.assert_array_equal(embed(sp, 1, np.eye(3)).toarray(), np.eye(6))

    def test_adjoint_of_lowering_is_raising(self):
        sp = space_of(3)
        npt.assert_allclose(lowering_op(sp, 0).conj().T.toarray(),
                            np.diag([1.0, np.sqrt(2.0)], -1), atol=0)

    def test_dimension_mismatch_rejected(self):
        sp = space_of(2, 3)
        with pytest.raises(ValueError, match="local matrix shape"):
            embed(sp, 0, np.eye(3))

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

    @pytest.mark.parametrize("dims,mode", [
        ((2, 3, 4), 0), ((2, 3, 4), 1), ((2, 3, 4), 2), ((3,), 0),
    ], ids=["first", "middle-qutrit", "last", "lone-qutrit"])
    def test_embed_equals_sparse_kron(self, dims, mode):
        # the same entries as kron(kron(1, M), 1), zeros of M left out
        rng = np.random.default_rng(mode)
        d = dims[mode]
        local = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        local[0, 1:] = 0.0
        local[-1, -1] = 0.0
        left = np.prod(dims[:mode], dtype=int)
        right = np.prod(dims[mode + 1:], dtype=int)
        ref = sps.kron(sps.kron(sps.identity(left), sps.csr_matrix(local),
                                format="csr"),
                       sps.identity(right), format="csr")
        got = embed(space_of(*dims), mode, local)
        assert isinstance(got, sps.csr_matrix)
        assert got.nnz == ref.nnz == left * right * np.count_nonzero(local)
        assert abs(got - ref).max() == 0


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

    @pytest.mark.parametrize("dim,alpha", [(3, 0.0), (4, 0.86), (4, -0.86),
                                           (3, 1.1j), (6, 0.5 - 0.7j)])
    def test_coherent_tail_is_weight_beyond_truncation(self, dim, alpha):
        # 40 levels hold |alpha> to machine precision
        psi = coherent_state(40, alpha)
        # a real amplitude, negative ones included, is its complex form
        npt.assert_array_equal(psi, coherent_state(40, complex(alpha)))
        assert coherent_tail(dim, alpha) == pytest.approx(
            np.sum(np.abs(psi[dim:]) ** 2), rel=1e-10, abs=1e-16)

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
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red.matrix)[0] >= -1e-10
