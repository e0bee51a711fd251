"""Thin wrappers around dense linear algebra with explicit tolerance contracts.

as_complex_matrix and eig_hermitian take one 2-D matrix; svd_reduced and
null_space_basis take a 3-D stack of matrices and factor it with one
batched SVD. All refuse non-finite input.
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
    """Reduced SVD of an (S, m, n) stack of matrices, zeroed past each rank.

    Returns the stacks u (S, m, k), s (S, k) and v (S, n, k), k = min(m, n),
    from one batched SVD, with a[i] ~= u[i] @ diag(s[i]) @ v[i].conj().T and
    each matrix's singular values sorted descending; those at or below
    RANK_TOL times its largest are set to 0, so matrix i's truncated factors
    are u[i, :, :r], s[i, :r] and v[i, :, :r], r = count_nonzero(s[i]).
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3:
        raise ContractViolationError(f"matrices must be a 3-D stack, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ContractViolationError("svd_reduced needs a non-empty matrix")
    if not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return u, np.where(s > RANK_TOL * s[:, :1], s, 0.0), vh.conj().swapaxes(1, 2)


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
    """Orthonormal bases of the orthogonal complements of an (S, n, k) stack's columns.

    Returns the list of the S bases b_i, from one batched SVD, with
    a[i].conj().T @ b_i == 0 and b_i.conj().T @ b_i == I; b_i has n minus
    the numerical rank of a[i] at RANK_TOL columns.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3:
        raise ContractViolationError(f"matrices must be a 3-D stack, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    count, rows, cols = arr.shape
    if cols == 0:
        return [np.eye(rows, dtype=np.complex128) for _ in range(count)]
    try:
        u, s, _ = np.linalg.svd(arr, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    ranks = np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1)
    return [u_i[:, rank:] for u_i, rank in zip(u, ranks.tolist())]
