"""Contracts of the dense linear-algebra wrappers."""

import numpy as np
import pytest

from ddamsim.errors import ContractViolationError
from ddamsim.linalg import (
    as_complex_matrix,
    eig_hermitian,
    null_space_basis,
    svd_reduced,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        as_complex_matrix(np.zeros(3))
    with pytest.raises(ContractViolationError):
        as_complex_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ContractViolationError):
        as_complex_matrix(np.array([[np.inf + 0j, 0j], [0j, 0j]]))


def test_as_complex_matrix_accepts_noncontiguous_views():
    rng = np.random.default_rng(3)
    big = _random_complex(rng, (6, 6))
    view = big[::2, ::2]
    out = as_complex_matrix(view)
    assert np.array_equal(out, view)


def test_svd_reduced_reconstructs_and_sorts():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _random_complex(rng, (5, 3))
        [u], [s], [v] = svd_reduced(a[None])
        assert np.all(np.diff(s) <= 0), "singular values must be non-increasing"
        recon = u @ np.diag(s) @ v.conj().T
        assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(u.conj().T @ u, np.eye(s.size), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(s.size), atol=1e-12)


def test_svd_reduced_truncates_at_numerical_rank():
    rng = np.random.default_rng(1)
    left = _random_complex(rng, (6, 2))
    right = _random_complex(rng, (4, 2))
    a = left @ right.conj().T
    [u], [s], [v] = svd_reduced(a[None])
    assert u.shape == (6, 4) and s.shape == (4,) and v.shape == (4, 4)
    rank = np.count_nonzero(s)
    assert rank == 2 and not s[2:].any(), f"rank-2 product reported rank {rank}"
    recon = u[:, :2] @ np.diag(s[:2]) @ v[:, :2].conj().T
    assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)


def test_svd_reduced_stack_zeroes_values_past_each_rank():
    rng = np.random.default_rng(3)
    full = _random_complex(rng, (5, 3))
    rank_one = _random_complex(rng, (5, 1)) @ _random_complex(rng, (3, 1)).conj().T
    mats = [full, rank_one, np.zeros((5, 3))]
    u, s, v = svd_reduced(np.array(mats))
    assert u.shape == (3, 5, 3) and s.shape == (3, 3) and v.shape == (3, 3, 3)
    for a, u_i, s_i, v_i, rank in zip(mats, u, s, v, (3, 1, 0)):
        assert np.count_nonzero(s_i) == rank and not s_i[rank:].any()
        [want_u], [want_s], [want_v] = svd_reduced(a[None])
        assert np.array_equal(u_i, want_u)
        assert np.array_equal(s_i, want_s)
        assert np.array_equal(v_i, want_v)


def test_svd_reduced_rejects_empty():
    with pytest.raises(ContractViolationError):
        svd_reduced(np.zeros((1, 0, 3)))
    with pytest.raises(ContractViolationError):
        svd_reduced(np.ones((2, 3)))  # a matrix, not a stack


def test_eig_hermitian_decomposition():
    rng = np.random.default_rng(2)
    b = _random_complex(rng, (20, 5, 5))
    stack = b + b.conj().swapaxes(1, 2)
    vals, vecs = eig_hermitian(stack)
    assert vals.shape == (20, 5) and vecs.shape == (20, 5, 5)
    for a, vals_i, vecs_i in zip(stack, vals, vecs):
        assert np.all(np.diff(vals_i) <= 1e-12), "eigenvalues must be descending"
        assert np.max(np.abs(a @ vecs_i - vecs_i * vals_i[None, :])) <= 1e-10
        assert np.allclose(vecs_i.conj().T @ vecs_i, np.eye(5), atol=1e-10)
        # each member is its stack-of-one call
        [want_vals], [want_vecs] = eig_hermitian(a[None])
        assert np.array_equal(vals_i, want_vals) and np.array_equal(vecs_i, want_vecs)


def test_eig_hermitian_rejects_non_hermitian():
    # one non-Hermitian member fails the whole stack
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(ContractViolationError):
        eig_hermitian(np.stack([np.eye(2), a]))
    with pytest.raises(ContractViolationError):
        eig_hermitian(np.zeros((1, 2, 3)))
    with pytest.raises(ContractViolationError):
        eig_hermitian(np.eye(2))  # a matrix, not a stack
    with pytest.raises(ContractViolationError):
        eig_hermitian(np.full((1, 2, 2), np.nan))


def _nonzero_columns(b):
    return b[:, np.abs(b).sum(axis=0) > 0]


def test_null_space_basis_contract():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = _random_complex(rng, (6, 3))
        [b] = null_space_basis(a[None])
        assert b.shape == (6, 6), "one column per row, the range columns zeroed"
        assert np.array_equal(b[:, :3], np.zeros((6, 3))), "rank columns zeroed first"
        assert np.max(np.abs(a.conj().T @ b)) <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(b[:, 3:].conj().T @ b[:, 3:], np.eye(3), atol=1e-12)


def test_null_space_basis_rank_deficient_input():
    rng = np.random.default_rng(5)
    col = _random_complex(rng, (5, 1))
    a = np.concatenate([col, 2.0 * col, -1j * col], axis=1)  # rank 1
    [b] = null_space_basis(a[None])
    assert b.shape == (5, 5)
    assert _nonzero_columns(b).shape == (5, 4)
    assert np.max(np.abs(a.conj().T @ b)) <= 1e-12 * np.linalg.norm(a)


def test_null_space_basis_empty_input_is_identity():
    [b] = null_space_basis(np.zeros((1, 4, 0)))
    assert np.array_equal(b, np.eye(4, dtype=np.complex128))


def test_null_space_basis_stack_matches_per_matrix_calls():
    # full-rank, rank-deficient and all-zero matrices: the bases differ in
    # width, and each is padded with zero columns to one shape
    rng = np.random.default_rng(6)
    col = _random_complex(rng, (5, 1))
    stack = np.stack(
        [
            _random_complex(rng, (5, 3)),
            np.concatenate([col, 2.0 * col, -1j * col], axis=1),
            np.zeros((5, 3), dtype=np.complex128),
        ]
    )
    bases = null_space_basis(stack)
    assert bases.shape == (3, 5, 5)
    assert [_nonzero_columns(b).shape[1] for b in bases] == [2, 4, 5]
    for a, b in zip(stack, bases):
        assert np.array_equal(b, null_space_basis(a[None])[0])


def test_null_space_basis_stack_contracts():
    empty = null_space_basis(np.zeros((2, 4, 0)))
    assert empty.shape == (2, 4, 4)
    assert all(np.array_equal(b, np.eye(4, dtype=np.complex128)) for b in empty)
    with pytest.raises(ContractViolationError):
        null_space_basis(np.zeros((1, 2, 3, 4)))
    with pytest.raises(ContractViolationError):
        null_space_basis(np.ones((3, 1)))  # a matrix, not a stack
    with pytest.raises(ContractViolationError):
        null_space_basis(np.full((2, 3, 1), np.nan))
