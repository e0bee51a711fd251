"""Thin wrappers around dense linear algebra with explicit tolerance contracts.

All routines accept anything convertible to a 2-D complex array
(svd_reduced and null_space_basis also a 3-D stack of them) and refuse
non-finite input.
Rank decisions are always made relative to the largest singular value so
the same tolerance works across scales.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalError

# singular values at or below RANK_TOL * s_max count as zero
RANK_TOL = 1e-10
# relative Frobenius norm of the anti-Hermitian part eig_hermitian accepts
HERMITIAN_TOL = 1e-8


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ContractViolationError(f"matrix must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    return arr


def svd_reduced(a):
    """Reduced SVD truncated at the numerical rank.

    Returns (u, s, v) with a ~= u @ diag(s) @ v.conj().T, singular values
    sorted descending, and only values above RANK_TOL * s_max kept.

    `a` may also be an (S, m, n) stack of matrices. Their factors come from
    one batched SVD and are returned as the stacks u (S, m, k), s (S, k)
    and v (S, n, k), k = min(m, n), with each matrix's singular values at
    or below its own rank threshold set to 0: matrix i's truncated factors
    are u[i, :, :r], s[i, :r] and v[i, :, :r], r = count_nonzero(s[i]).
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in (2, 3):
        raise ContractViolationError(f"matrix must be 2-D or a 3-D stack, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ContractViolationError("svd_reduced needs a non-empty matrix")
    if not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    stack = arr if arr.ndim == 3 else arr[None]
    try:
        u, s, vh = np.linalg.svd(stack, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    kept = s > RANK_TOL * s[:, :1]
    if arr.ndim == 3:
        return u, np.where(kept, s, 0.0), vh.conj().swapaxes(1, 2)
    rank = int(np.count_nonzero(kept))
    return u[0, :, :rank], s[0, :rank], vh[0, :rank].conj().T


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input must be Hermitian within HERMITIAN_TOL (Frobenius norm of the
    anti-Hermitian part, relative to the matrix norm with an absolute
    floor of 1); it is symmetrized before factorization so the output is
    exactly consistent with a Hermitian operator.
    """
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ContractViolationError(f"expected square matrix, got {arr.shape}")
    deviation = np.linalg.norm(arr - arr.conj().T)
    if deviation > HERMITIAN_TOL * max(1.0, np.linalg.norm(arr)):
        raise ContractViolationError(
            f"matrix is not Hermitian within tolerance (deviation {deviation:.3e})"
        )
    sym = 0.5 * (arr + arr.conj().T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def null_space_basis(a):
    """Orthonormal basis of the orthogonal complement of the columns of `a`.

    Returns b with a.conj().T @ b == 0 and b.conj().T @ b == I; the number of
    columns is rows(a) minus the numerical rank of `a` at RANK_TOL.

    `a` may also be an (S, n, k) stack of matrices. Their null spaces come
    from one batched SVD, and the S bases are returned as a list, each with
    as many columns as its own matrix's rank leaves.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in (2, 3):
        raise ContractViolationError(f"matrix must be 2-D or a 3-D stack, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    stack = arr if arr.ndim == 3 else arr[None]
    count, rows, cols = stack.shape
    if cols == 0:
        bases = [np.eye(rows, dtype=np.complex128) for _ in range(count)]
    else:
        try:
            u, s, _ = np.linalg.svd(stack, full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
        ranks = np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1)
        bases = [u_i[:, rank:] for u_i, rank in zip(u, ranks.tolist())]
    return bases if arr.ndim == 3 else bases[0]
