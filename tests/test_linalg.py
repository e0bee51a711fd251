"""Contracts of the dense linear-algebra wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddamsim.errors import ContractViolationError
from ddamsim.linalg import (
    RANK_TOL,
    as_complex_matrix,
    eig_hermitian,
    null_space_basis,
    svd_reduced,
    svd_two_rows,
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


def _two_row_matrix(kind, width, rng):
    """One 2 x width matrix of a kind that steers zgesdd's 2 x 2 step down one branch."""
    a = _random_complex(rng, (2, width))
    if kind == "real":
        a = a.real + 0j
    elif kind == "imaginary-a11":
        # Re a11 = +0 or -0 sets the sign of the first reflector
        a[0, 0] = complex(rng.choice([0.0, -0.0]), a[0, 0].imag)
    elif kind == "rank-one":
        a = np.outer(a[:, 0], a[0])
    elif kind == "zero-row-1":
        a[0] = 0.0
    elif kind == "zero-row-2":
        a[1] = -0.0
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "near-rank-one":
        a[1] = a[0] * a[1, 0] + 10.0 ** rng.uniform(-5, -2) * a[1]
    elif kind == "swap":
        # row 2 larger than row 1 and nearly orthogonal to it: |d2| > |d1| in
        # dlasv2 (a real multiple of row 1 would make l21 real, a tie that
        # rounding breaks one way or the other)
        orthogonal = a[1] - (a[1] @ a[0].conj()) / (a[0] @ a[0].conj()) * a[0]
        a[1] = 4.0 * orthogonal + 0.1 * np.exp(2j * np.pi * rng.random()) * a[0]
    elif kind == "huge":
        # a zero row 1 and a tiny a21: |e1| >> |d1| with |d1| / |e1| < eps. A
        # real a21 makes d2 an exact 0 instead of rounding noise, whose sign
        # would pick the signs here as in LAPACK
        a[0] = 0.0
        a[1, 0] = rng.choice([-1e-20, 1e-20])
    elif kind == "tiny-m":
        # row 1 zero, row 2 all but a real a21 of size 1e-200: g / f squared
        # underflows in dlasv2, and h is an exact 0
        a[0] = 0.0
        a[1, 0] = rng.choice([-1.0, 1.0])
        a[1, 1:] *= 1e-200
    elif kind == "split":
        # exactly orthogonal rows, in either order of size: e1 = 0 splits.
        # (Rows orthogonal only to rounding would leave the phase of mode 2
        # to the phase of rounding noise, in LAPACK as here.)
        a[0, 1:] = 0.0
        a[1, 0] = 0.0
        a[rng.integers(2)] *= 8.0
    elif kind == "signed-zeros":
        # row 1 real on its pivot over a tail of signed zeros, so H1 = I, and
        # Re a22 = +0 or -0 sets the sign of the second reflector. (Zeros
        # that arithmetic makes carry signs that depend on the order of
        # operations, in LAPACK's kernels as in numpy's.)
        a[0, 0] = a[0, 0].real
        a[0, 1:] = rng.choice([0.0, -0.0], width - 1) + rng.choice([0.0, -0.0], width - 1) * 1j
        a[1, 1] = complex(rng.choice([0.0, -0.0]), a[1, 1].imag)
    return a


TWO_ROW_KINDS = (
    "random", "real", "imaginary-a11", "rank-one", "zero-row-1", "zero-row-2", "zero",
    "near-rank-one", "swap", "huge", "tiny-m", "split", "signed-zeros",
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    width=st.integers(3, 130),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-531, 498), min_size=len(TWO_ROW_KINDS),
                       max_size=len(TWO_ROW_KINDS)),
)
def test_svd_two_rows_matches_lapack(width, seed, exponents):
    # one matrix of every kind per example, each scaled by its own power of
    # two between about 1e-160 and 1e150, and LAPACK factors the scaled
    # matrix too; zgesdd itself rescales a matrix whose largest entry lies
    # outside about [1e-138, 1e138]
    rng = np.random.default_rng(seed)
    stack = np.array([
        np.ldexp(_two_row_matrix(kind, width, rng).view(np.float64), k).view(np.complex128)
        for kind, k in zip(TWO_ROW_KINDS, exponents)
    ])
    u, s, vh = svd_two_rows(stack)
    assert u.shape == (len(stack), 2, 2) and s.shape == (len(stack), 2)
    assert vh.shape == (len(stack), 2, width)
    for i, (kind, a) in enumerate(zip(TWO_ROW_KINDS, stack)):
        want_u, want_s, want_vh = np.linalg.svd(a, full_matrices=False)
        s1 = want_s[0]
        assert np.all(np.abs(s[i] - want_s) <= 1e-13 * s1), kind
        # the modes ofdm_design loads: LAPACK's phases, not only its subspaces
        for j in np.flatnonzero(want_s**2 > RANK_TOL * s1**2):
            assert np.max(np.abs(u[i, :, j] - want_u[:, j])) <= 1e-12, (kind, j)
            # a wide matrix fixes its right vector j only to rounding times
            # s1 / s_j, in LAPACK as here
            gate = 1e-12 + 1e-14 * s1 / want_s[j]
            assert np.max(np.abs(vh[i, j] - want_vh[j])) <= gate, (kind, j)
            assert abs(u[i, :, j].conj() @ a @ vh[i, j].conj() - s[i, j]) <= 1e-13 * s1, kind
        # each matrix is factored on its own
        for got, alone in zip((u, s, vh), svd_two_rows(stack[i : i + 1])):
            assert np.array_equal(got[i], alone[0]), kind


def test_svd_two_rows_contract():
    rng = np.random.default_rng(6)
    with pytest.raises(ContractViolationError):
        svd_two_rows(_random_complex(rng, (1, 2, 2)))  # zgesdd's square path
    with pytest.raises(ContractViolationError):
        svd_two_rows(_random_complex(rng, (1, 3, 5)))
    with pytest.raises(ContractViolationError):
        svd_two_rows(_random_complex(rng, (2, 5)))  # a matrix, not a stack
    bad = _random_complex(rng, (2, 2, 4))
    bad[1, 0, 3] = np.nan
    with pytest.raises(ContractViolationError):
        svd_two_rows(bad)
    u, s, vh = svd_two_rows(np.zeros((0, 2, 4)))
    assert u.shape == (0, 2, 2) and s.shape == (0, 2) and vh.shape == (0, 2, 4)
