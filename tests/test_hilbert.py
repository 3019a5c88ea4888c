import functools
import itertools

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.hilbert import (
    QUBIT, RESONATOR, CompositeSpace, ModeSpec, basis_state, coherent_state,
    coherent_tail, ladder_op, lowering_op, number_op, partial_trace,
    traced_pairs,
)


def space_of(*dims, kinds=None):
    kinds = kinds or [QUBIT] * len(dims)
    return CompositeSpace([ModeSpec(f"m{i}", k, d)
                           for i, (d, k) in enumerate(zip(dims, kinds))])


#: (dims, qubit count) of the spaces the Kronecker oracles run on: mixed
#: dims, qubit_dim 3, and three or more modes
KRON_SPACES = [((2, 2), 2), ((2, 3, 4), 1), ((3, 3, 4, 4), 2),
               ((2, 2, 2, 5), 3), ((3,), 1), ((4, 3), 0)]


def mixed_space(dims, n_qubits):
    return space_of(*dims, kinds=[QUBIT] * n_qubits
                    + [RESONATOR] * (len(dims) - n_qubits))


def kron_oracle(dims, mode, local):
    """1 (x) ... (x) local (x) ... (x) 1, one sparse Kronecker factor at a
    time."""
    op = sps.identity(1, format="csr")
    for i, d in enumerate(dims):
        op = sps.kron(op, local if i == mode else sps.identity(d),
                      format="csr")
    return op


def partial_bras(dims, keep):
    """The maps V_j = (x)_i (1 if i in keep else <j_i|), one per state j of
    the traced modes, as Kronecker products: Tr_rest rho = sum_j V_j rho
    V_j^dag and X (x) 1 = sum_j V_j^dag X V_j."""
    rest = [d for i, d in enumerate(dims) if i not in keep]
    for j in np.ndindex(*rest):
        bras = iter(j)
        factors = [np.eye(d) if i in keep else np.eye(d)[[next(bras)]]
                   for i, d in enumerate(dims)]
        yield functools.reduce(np.kron, factors, np.ones((1, 1)))


def index_sum_trace(dims, rho, keep):
    """Tr_rest rho by explicit summation over the row-major indices: entry
    (a, b) sums rho at ((a, r), (b, r)) over the traced modes' states r."""
    kdims = [dims[i] for i in keep]
    rest = [i for i in range(len(dims)) if i not in keep]
    out = np.zeros((np.prod(kdims, dtype=int),) * 2, dtype=complex)
    for a, b in itertools.product(np.ndindex(*kdims), repeat=2):
        for r in np.ndindex(*[dims[i] for i in rest]):
            ka, kb = [0] * len(dims), [0] * len(dims)
            for i, x, y in zip(keep, a, b):
                ka[i], kb[i] = x, y
            for i, x in zip(rest, r):
                ka[i] = kb[i] = x
            out[np.ravel_multi_index(a, kdims), np.ravel_multi_index(b, kdims)] \
                += rho[np.ravel_multi_index(ka, dims), np.ravel_multi_index(kb, dims)]
    return out


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
        npt.assert_array_equal(lowering_op(sp, 0), [[0, 1], [0, 0]])

    def test_three_level_subdiagonal(self):
        sp = space_of(3)
        a = lowering_op(sp, 0)
        npt.assert_allclose(np.diag(a, 1), [1.0, np.sqrt(2.0)])
        assert np.count_nonzero(a) == 2

    def test_tensor_factor_matches_kronecker_oracle(self):
        # the table rules give the entries of kron(1, a, 1) and
        # kron(1, n, 1) exactly, explicit zeros left out
        for dims, n_qubits in KRON_SPACES:
            space = mixed_space(dims, n_qubits)
            for mode, d in enumerate(dims):
                a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
                n = np.diag(np.arange(d)).astype(complex)
                for got, local in ((lowering_op(space, mode), a),
                                   (number_op(space, mode), n)):
                    ref = kron_oracle(dims, mode, sps.csr_matrix(local))
                    assert np.count_nonzero(got) == ref.nnz
                    npt.assert_array_equal(got, ref.toarray())

    def test_adjoint_of_lowering_is_raising(self):
        sp = space_of(3)
        npt.assert_allclose(lowering_op(sp, 0).conj().T,
                            np.diag([1.0, np.sqrt(2.0)], -1), atol=0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            lowering_op(space_of(2), 1)


class TestLadder:
    def test_two_mode_shift_matches_kronecker_oracle(self):
        # {i: +1, j: -1} weighted by the state it leaves is
        # kron(a_i^dag) kron(a_j) diag(weight), explicit zeros left out
        rng = np.random.default_rng(0)
        for dims, n_qubits in KRON_SPACES:
            space = mixed_space(dims, n_qubits)
            weight = rng.integers(0, 3, space.total_dim).astype(float)
            for i in range(len(dims)):
                for j in set(range(len(dims))) - {i}:
                    a = [kron_oracle(dims, m, sps.csr_matrix(
                        np.diag(np.sqrt(np.arange(1, dims[m])), 1)))
                        for m in (i, j)]
                    ref = a[0].T @ a[1] @ sps.diags(weight)
                    ref.eliminate_zeros()
                    got = ladder_op(space, {i: 1, j: -1}, weight)
                    assert np.count_nonzero(got) == ref.nnz
                    npt.assert_allclose(got, ref.toarray(),
                                        rtol=1e-15, atol=0)

    @pytest.mark.parametrize("mode", [2, -1])
    def test_mode_out_of_range(self, mode):
        with pytest.raises(IndexError, match="out of range"):
            ladder_op(space_of(2, 3), {0: 1, mode: -1})

    def test_step_must_be_one_level(self):
        with pytest.raises(ValueError, match="step must be"):
            ladder_op(space_of(3), {0: 2})


class TestNumber:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_diagonal(self, dim):
        sp = space_of(dim)
        npt.assert_array_equal(number_op(sp, 0),
                               np.diag(np.arange(dim, dtype=complex)))

    def test_equals_adjoint_compose_lowering(self):
        sp = space_of(3, 4)
        for i in range(2):
            a = lowering_op(sp, i)
            npt.assert_allclose(number_op(sp, i), a.conj().T @ a,
                                atol=1e-14)

    def test_commutator_with_lowering_truncated(self):
        # [n, a] = -a holds exactly on the truncated space; the truncation
        # boundary shows up in [a, a^dag], whose top diagonal entry is
        # 1 - dim instead of 1 (the feeding element from level dim is gone)
        sp = space_of(5)
        n, a = number_op(sp, 0), lowering_op(sp, 0)
        comm = n @ a - a @ n
        npt.assert_allclose(comm, -a, atol=1e-14)
        ad = a.conj().T
        canonical = a @ ad - ad @ a
        expected = np.eye(5, dtype=complex)
        expected[4, 4] = 1.0 - 5.0
        npt.assert_allclose(canonical, expected, atol=1e-14)


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

    def test_index_of_occupation_table(self):
        # the table's columns are the basis states in order, and a table
        # is checked like a single tuple
        sp = space_of(2, 3, 4)
        npt.assert_array_equal(sp.index(sp.occupations), np.arange(24))
        npt.assert_array_equal(sp.index([[1, 0], [2, 0], [3, 1]]), [23, 1])
        with pytest.raises(ValueError, match="truncation of mode 'm1'"):
            sp.index([[1, 0], [2, 3], [3, 1]])
        with pytest.raises(ValueError, match="expected 3 occupations"):
            sp.index([[1, 0], [2, 0]])
        # qubit_dim 3: f is kept; the first offending mode and value named
        q3 = space_of(3, 3, 4, kinds=[QUBIT, QUBIT, RESONATOR])
        assert q3.index((2, 2, 3)) == 35
        with pytest.raises(ValueError, match=r"occupation 3 exceeds "
                           r"truncation of mode 'm1' \(dim 3\)"):
            q3.index([[2, 0], [0, 3], [4, -1]])
        with pytest.raises(ValueError, match="occupation -1 exceeds "
                           "truncation of mode 'm0'"):
            q3.index((-1, 2, 0))
        with pytest.raises(ValueError, match="expected 3 occupations"):
            q3.index((2, 2))

    def test_occupation_table_is_cached_and_read_only(self):
        sp = space_of(2, 3, 4)
        assert sp.occupations is sp.occupations
        with pytest.raises(ValueError, match="read-only"):
            sp.occupations[0, 0] = 1

    def test_space_without_modes(self):
        # one basis state, with no occupations
        empty = CompositeSpace([])
        assert empty.occupations.shape == (0, 1)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        sp = space_of(2, 3)
        rng = np.random.default_rng(7)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        rho = np.kron(rho_a, rho_b)
        npt.assert_allclose(partial_trace(sp, rho, [0]), rho_a, atol=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        sp = space_of(2, 2)
        psi = (basis_state(sp, (0, 0)) + basis_state(sp, (1, 1))) / np.sqrt(2)
        red = partial_trace(sp, np.outer(psi, psi.conj()), [0])
        npt.assert_allclose(red, np.eye(2) / 2, atol=1e-12)

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
        red = partial_trace(sp, rho, [0])
        npt.assert_allclose(red, expected, atol=1e-13)

    def test_empty_keep_rejected(self):
        sp = space_of(2, 2)
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(sp, np.eye(4) / 4, [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            partial_trace(space_of(2, 3), np.eye(4) / 4, [0])

    def test_every_keep_matches_index_summation_and_kronecker_oracles(self):
        # every nonempty keep subset: leading, middle, trailing and
        # resonator-only modes alike
        rng = np.random.default_rng(5)
        for dims, n_qubits in KRON_SPACES:
            space = mixed_space(dims, n_qubits)
            d = space.total_dim
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for size in range(1, len(dims) + 1):
                for keep in itertools.combinations(range(len(dims)), size):
                    got = partial_trace(space, rho, keep)
                    for ref in (index_sum_trace(dims, rho, keep),
                                sum(V @ rho @ V.T
                                    for V in partial_bras(dims, keep))):
                        npt.assert_allclose(got, ref, rtol=0, atol=1e-12,
                                            err_msg=str(keep))

    def test_unsorted_and_duplicate_keeps_are_the_sorted_set(self):
        space = mixed_space((3, 3, 4, 4), 2)
        rho = random_density(np.random.default_rng(3), space.total_dim)
        ref = partial_trace(space, rho, [1, 3])
        for keep in ([3, 1], [1, 3, 1], (3, 3, 1)):
            npt.assert_array_equal(partial_trace(space, rho, keep), ref)
        with pytest.raises(IndexError, match="out of range"):
            partial_trace(space, rho, [1, 4])

    def test_shared_map_is_the_adjoint_of_the_trace(self):
        # X (x) 1 placed through the map the trace sums through:
        # tr((X (x) 1) rho) = tr(X Tr_rest rho), and X (x) 1 is the
        # Kronecker sum_j V_j^dag X V_j
        rng = np.random.default_rng(9)
        for dims, n_qubits in KRON_SPACES:
            space = mixed_space(dims, n_qubits)
            d = space.total_dim
            rho = random_density(rng, d)
            for keep in ((0,), (len(dims) - 1,), tuple(range(1, len(dims)))):
                if not keep:
                    continue
                pairs, kept = traced_pairs(space, keep)
                m = int(np.prod([dims[i] for i in keep]))
                X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                lifted = np.zeros((d, d), dtype=complex)
                np.put(lifted, pairs, X.take(kept))
                npt.assert_array_equal(lifted, sum(
                    V.T @ X @ V for V in partial_bras(dims, keep)))
                assert np.trace(lifted @ rho) == pytest.approx(
                    np.trace(X @ partial_trace(space, rho, keep)),
                    rel=1e-13, abs=1e-13)

    def test_map_is_cached_on_space_equality_and_read_only(self):
        pairs, kept = traced_pairs(space_of(2, 3), (0,))
        assert traced_pairs(space_of(2, 3), (0,))[0] is pairs
        for a in (pairs, kept):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_trace_and_positivity_preserved(self, seed):
        sp = space_of(2, 3, 2)
        rng = np.random.default_rng(seed)
        red = partial_trace(sp, random_density(rng, 12), [0, 2])
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red)[0] >= -1e-10
