"""Thin wrappers around dense linear algebra with explicit tolerance contracts.

as_complex_matrix takes one 2-D matrix; svd_reduced, null_space_basis and
eig_hermitian take a 3-D stack of matrices and factor it with one batched
SVD or eigendecomposition into stacks whose shapes depend on the input's
shape alone: svd_reduced and null_space_basis mark each matrix's rank by
zeroed singular values or basis columns. All refuse non-finite input.
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
    """Eigendecompositions of an (S, n, n) stack of Hermitian matrices, eigenvalues descending.

    Returns the stacks vals (S, n) and vecs (S, n, n) from one batched
    eigh, a[i] ~= vecs[i] @ diag(vals[i]) @ vecs[i].conj().T. Each matrix
    must be Hermitian within HERMITIAN_TOL (Frobenius norm of its
    anti-Hermitian part, relative to its norm with an absolute floor of
    1); it is symmetrized before factorization so the output is exactly
    consistent with a Hermitian operator.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ContractViolationError(f"expected an (S, n, n) stack, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    adjoint = arr.conj().swapaxes(1, 2)
    deviation = np.linalg.norm(arr - adjoint, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(arr, axis=(1, 2)))
    if np.any(deviation > HERMITIAN_TOL * scale):
        raise ContractViolationError(
            f"matrix is not Hermitian within tolerance (deviation {deviation.max():.3e})"
        )
    try:
        vals, vecs = np.linalg.eigh(0.5 * (arr + adjoint))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # eigh sorts ascending; copies keep the stacks contiguous for BLAS
    return vals[:, ::-1].copy(), vecs[:, :, ::-1].copy()


def null_space_basis(a):
    """Orthonormal bases of the orthogonal complements of an (S, n, k) stack's columns.

    Returns one (S, n, n) stack b from one batched SVD: the left singular
    vectors of each a[i], with the first rank(a[i]) columns (those spanning
    a[i]'s range, rank taken at RANK_TOL) set to 0. So a[i].conj().T @ b[i]
    == 0, and the nonzero columns of b[i] are orthonormal, n - rank(a[i])
    of them. With k = 0 every b[i] is the identity.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3:
        raise ContractViolationError(f"matrices must be a 3-D stack, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    count, rows, cols = arr.shape
    if cols == 0:
        return np.tile(np.eye(rows, dtype=np.complex128), (count, 1, 1))
    try:
        u, s, _ = np.linalg.svd(arr, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    ranks = np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1)
    return np.where(np.arange(rows) < ranks[:, None, None], 0.0, u)
