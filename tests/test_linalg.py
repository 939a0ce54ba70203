import numpy as np

from contactk.linalg import Echelon, kernel_from_rref, rank, rref


def _kernel(M, p=5):
    M = np.asarray(M, dtype=np.int64)
    red, piv = rref(M, p)
    return kernel_from_rref(red, piv, M.shape[1], p)


def _solve_by_rref(A, b, p=5):
    """A particular solution of Ax = b read off the RREF of [A | b], or None."""
    A = np.asarray(A, dtype=np.int64)
    cols = A.shape[1]
    red, piv = rref(np.concatenate([A, np.asarray(b, dtype=np.int64)[:, None]], axis=1), p)
    if cols in piv:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for j, c in enumerate(piv):
        x[c] = red[j, cols]
    return x


def test_kernel_of_identity_is_empty():
    assert _kernel(np.eye(3, dtype=int)).shape == (0, 3)


def test_kernel_of_row_1_1():
    assert _kernel([[1, 1]]).tolist() == [[1, 4]]


def test_kernel_of_zero_matrix():
    K = _kernel(np.zeros((2, 3), dtype=int))
    assert K.shape == (3, 3)
    assert np.array_equal(K, np.eye(3, dtype=np.int64))


def test_solve_identity():
    assert _solve_by_rref(np.eye(3, dtype=int), [1, 2, 3]).tolist() == [1, 2, 3]


def test_solve_scalar_inverse():
    assert _solve_by_rref([[2]], [1]).tolist() == [3]


def test_solve_inconsistent():
    assert _solve_by_rref([[0]], [1]) is None


def test_rank_nullity_and_kernel_products():
    rng = np.random.default_rng(0)
    for _ in range(40):
        M = rng.integers(0, 5, size=(8, 11))
        K = _kernel(M)
        assert rank(M, 5) + K.shape[0] == 11
        for v in K:
            assert not (M @ v % 5).any()
        # kernel rows are themselves in reduced echelon form with unit pivots
        R, piv = rref(K, 5)
        assert np.array_equal(R, K)


def test_solutions_verify():
    rng = np.random.default_rng(1)
    for _ in range(30):
        M = rng.integers(0, 5, size=(7, 5))
        x = rng.integers(0, 5, size=5)
        b = M @ x % 5
        got = _solve_by_rref(M, b)
        assert got is not None
        assert np.array_equal(M @ got % 5, b)


def test_determinism_across_runs():
    rng = np.random.default_rng(2)
    M = rng.integers(0, 5, size=(20, 15))
    k1 = _kernel(M)
    assert np.array_equal(k1, _kernel(M.copy()))
    ech = Echelon(15, 5)
    ech.add_rows(M)
    assert np.array_equal(ech.kernel_basis(), k1)


def test_echelon_matches_oneshot():
    rng = np.random.default_rng(3)
    M = rng.integers(0, 5, size=(40, 12))
    ech = Echelon(12, 5)
    for lo in range(0, 40, 7):
        ech.add_rows(M[lo : lo + 7])
    R, piv = rref(M, 5)
    assert np.array_equal(ech.mat, R)
    assert ech.pivots == piv
    assert np.array_equal(ech.kernel_basis(), kernel_from_rref(R, piv, 12, 5))
    assert ech.contains(M[17])
    assert not ech.contains(np.arange(12) + 1) or rank(np.vstack([M, np.arange(12) + 1]), 5) == len(piv)


def test_echelon_wide_batches_match_oneshot():
    # a wide sparse-ish system fed as {column: residue} rows in small
    # batches ends in the same RREF, rank and kernel as one rref() call
    rng = np.random.default_rng(4)
    M = rng.integers(0, 3, size=(30, 50))
    ech = Echelon(50, 5)
    for lo in range(0, 30, 4):
        rows = [{int(c): int(v) for c, v in enumerate(r) if v} for r in M[lo : lo + 4]]
        ech.add_row_dicts(rows)
    R, piv = rref(M, 5)
    assert np.array_equal(ech.mat, R) and ech.pivots == piv
    assert ech.nrows == rank(M, 5)
    assert np.array_equal(ech.kernel_basis(), kernel_from_rref(R, piv, 50, 5))
    assert ech.add_row_dicts([]) == 0


def test_larger_prime_field():
    rng = np.random.default_rng(5)
    p = 101
    M = rng.integers(0, p, size=(9, 14))
    K = _kernel(M, p)
    assert rank(M, p) + K.shape[0] == 14
    for v in K:
        assert not (M @ v % p).any()
