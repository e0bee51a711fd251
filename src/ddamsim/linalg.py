"""Thin wrappers around dense linear algebra with explicit tolerance contracts.

as_complex_matrix takes one 2-D matrix; svd_reduced, null_space_basis and
eig_hermitian take a 3-D stack of matrices and factor it with one batched
SVD or eigendecomposition into stacks whose shapes depend on the input's
shape alone: svd_reduced and null_space_basis mark each matrix's rank by
zeroed singular values or basis columns. svd_two_rows factors a stack of
2 x W matrices as LAPACK's zgesdd does, phases included, in vectorized
numpy instead of one LAPACK call per matrix. All refuse non-finite input.
Rank decisions are always made relative to the largest singular value so
the same tolerance works across scales.
"""

from __future__ import annotations

import math

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


def _ldexp(z, exponent):
    """A complex stack with the matrix index last times 2**exponent per matrix, exactly."""
    parts = np.ascontiguousarray(z).view(np.float64)
    return np.ldexp(parts, np.repeat(exponent, 2)).view(np.complex128)


def _row_total(x):
    """x summed over its first axis in row order, so column i's sum depends on column i alone."""
    return np.add.accumulate(x, axis=0)[-1]


def _reflector(alpha, x=None):
    """zlarfg's elementary reflectors for the columns (alpha, x), matrix index last.

    Returns (beta, tau, v): I - tau (1, v) (1, v)^H takes the column
    (alpha, x) to (beta, 0, .., 0), beta = -sign(Re alpha) ||(alpha, x)||
    real. A real alpha over an all-zero x gets tau = 0, beta = alpha and
    v = x. x is a (k, n) stack, or None for k = 0. Each column is first
    scaled by the power of two that brings its largest part into [0.5, 1),
    which changes no bit of the result but keeps its squares from under-
    and overflowing, as zlarfg's own rescaling does.
    """
    largest = np.maximum(np.abs(alpha.real), np.abs(alpha.imag))
    if x is not None:
        parts = np.abs(x.view(np.float64)).max(axis=0)
        largest = np.maximum(largest, np.maximum(parts[0::2], parts[1::2]))
    exponent = np.frexp(largest)[1]
    alpha_s = _ldexp(alpha, -exponent)
    alphr, alphi = alpha_s.real, alpha_s.imag
    keep = alphi == 0
    xnorm = 0.0
    if x is not None:
        x_s = _ldexp(x, -exponent)
        keep &= ~np.any(x != 0, axis=0)
        xnorm = np.sqrt(_row_total(x_s.real**2 + x_s.imag**2))
    beta = np.where(keep, alphr, -np.copysign(np.sqrt(alphr**2 + alphi**2 + xnorm**2), alphr))
    safe = np.where(keep, 1.0, beta)
    tau = np.where(keep, 0.0, (beta - alphr) / safe - 1j * (alphi / safe))
    v = None if x is None else np.where(keep, x, x_s * (1.0 / np.where(keep, 1.0, alpha_s - beta)))
    return np.ldexp(beta, exponent), tau, v


def _bidiagonal_svd(f, g, h):
    """dbdsqr's SVDs of the real upper bidiagonals [[f, g], [0, h]], signed as dlasv2 signs them.

    Returns (s1, s2, u, vt): s1 >= s2 >= 0 and real (2, 2, n) stacks u and
    vt with [[f, g], [0, h]] = u diag(s1, s2) vt. Where |g| is at or below
    dbdsqr's split threshold, the diagonal is taken as it is, and u and vt
    only order and sign it.
    """
    eps, unfl = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny
    fa, ga, ha = np.abs(f), np.abs(g), np.abs(h)
    # dbdsqr's split test, on its estimate of the smallest singular value;
    # g = 0 always splits, so dlasv2's diagonal case never arises
    mu = ha * (fa / np.where(fa > 0, fa + ga, 1.0))
    tol = max(10.0, min(100.0, eps**-0.125)) * eps
    split = ga <= np.maximum(tol * np.minimum(fa, mu) / math.sqrt(2.0), 24 * unfl)

    # dlasv2, with ft the diagonal entry of larger magnitude
    swap = ha > fa
    ft, ht = np.where(swap, h, f), np.where(swap, f, h)
    fa, ha = np.maximum(fa, ha), np.minimum(fa, ha)
    huge = (ga > fa) & (fa < eps * ga)          # fa / ga < eps, also where fa = 0
    # the general case, on harmless stand-ins where g is huge or split off
    general = ~huge & (ga > 0)
    fg, gg, hg = np.where(general, ft, 1.0), np.where(general, g, 1.0), np.where(general, ht, 0.5)
    fag, hag = np.abs(fg), np.abs(hg)
    d = fag - hag
    ell = np.where(d == fag, 1.0, d / fag)
    m = gg / fg
    t = 2.0 - ell
    mm = m * m
    s = np.sqrt(t * t + mm)
    r = np.where(ell == 0, np.abs(m), np.sqrt(ell * ell + mm))
    a = 0.5 * (s + r)
    # dlasv2's own branch for an m whose square underflows
    tiny = np.where(
        ell == 0,
        np.copysign(2.0, fg) * np.copysign(1.0, gg),
        gg / np.copysign(np.where(ell == 0, 1.0, d), fg) + m / t,
    )
    t = np.where(mm == 0, tiny, (m / (s + t) + m / np.where(mm == 0, 1.0, r + ell)) * (1.0 + a))
    ell = np.sqrt(t * t + 4.0)
    crt, srt = 2.0 / ell, t / ell
    clt, slt = (crt + srt * m) / a, (hg / fg) * srt / a
    ssmax, ssmin = fag * a, hag / a
    # a very large g
    gh, hh = np.where(huge, g, 1.0), np.where(ha > 1, ha, 1.0)
    ssmax = np.where(huge, ga, ssmax)
    ssmin = np.where(huge, np.where(ha > 1, fa / (np.abs(gh) / hh), fa / np.abs(gh) * ha), ssmin)
    clt, slt = np.where(huge, 1.0, clt), np.where(huge, ht / gh, slt)
    crt, srt = np.where(huge, ft / gh, crt), np.where(huge, 1.0, srt)
    csl, snl = np.where(swap, srt, clt), np.where(swap, crt, slt)
    csr, snr = np.where(swap, slt, crt), np.where(swap, clt, srt)
    # the signs, from the position of the largest entry
    largest_g = ga > fa
    sign = (
        np.copysign(1.0, np.where(largest_g | swap, snr, csr))
        * np.copysign(1.0, np.where(swap & ~largest_g, snl, csl))
        * np.copysign(1.0, np.where(largest_g, g, np.where(swap, h, f)))
    )
    ssmax = np.copysign(ssmax, sign)
    ssmin = np.copysign(ssmin, sign * np.copysign(1.0, f) * np.copysign(1.0, h))

    # dbdsqr: a split bidiagonal keeps its diagonal and identity rotations;
    # each negative value's sign moves to its row of vt, then the sort
    d1, d2 = np.where(split, f, ssmax), np.where(split, h, ssmin)
    cl, sl = np.where(split, 1.0, csl), np.where(split, 0.0, snl)
    cr, sr = np.where(split, 1.0, csr), np.where(split, 0.0, snr)
    sign1, sign2 = np.where(d1 < 0, -1.0, 1.0), np.where(d2 < 0, -1.0, 1.0)
    u = np.array([[cl, -sl], [sl, cl]])
    vt = np.array([[sign1 * cr, sign1 * sr], [sign2 * -sr, sign2 * cr]])
    d1, d2 = np.abs(d1), np.abs(d2)
    order = d2 > d1                             # only a split bidiagonal comes out ascending
    return (
        np.where(order, d2, d1),
        np.where(order, d1, d2),
        np.where(order, u[:, ::-1], u),
        np.where(order, vt[::-1], vt),
    )


def svd_two_rows(a):
    """Reduced SVDs of an (n, 2, W) stack, W >= 3, with LAPACK zgesdd's phases.

    Returns (u, s, vh) of shapes (n, 2, 2), (n, 2) and (n, 2, W) as
    np.linalg.svd(a, full_matrices=False) returns them, up to rounding:
    a[i] ~= u[i] @ diag(s[i]) @ vh[i], s[i] descending. It is reference
    zgesdd's JOBZ='S' path for a wide matrix, which zgesdd takes once W >=
    int(17 * 2 / 9) = 3, written out for all n matrices at once: zgelqf's
    two Householder rows a = L Q; zgebd2's bidiagonalization L = H1 H2 B
    G1^H; dbdsqr's step on the real 2 x 2 B = U_B S VT_B (Demmel and
    Kahan, SIAM J. Sci. Stat. Comput. 11(5), 1990) with its split test,
    dlasv2's signs and the descending sort; then u = H1 H2 U_B and vh =
    VT_B G1^H Q, formed as zgesdd forms them. So u and vh carry LAPACK's
    singular-vector phases, not only its subspaces. They may differ from
    LAPACK's only where its convention turns on rounding: the vectors of a
    zero singular value, and inputs where a quantity that is exactly real
    or zero in exact arithmetic (rows orthogonal to rounding, say) gets a
    rounding-sized imaginary part or sign in one computation and not in
    the other. Each matrix is factored on its own and gets the same bits
    in any stack. Where zgesdd rescales a matrix whose largest entry lies
    outside about [1e-138, 1e138], this scales every matrix, and every
    reflector's column, by a power of two, which is exact. Non-finite
    input and other shapes raise ContractViolationError.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != 2 or arr.shape[2] < 3:
        raise ContractViolationError(f"expected an (n, 2, W >= 3) stack, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolationError("matrix contains non-finite entries")
    if len(arr) == 1:
        # numpy multiplies a lone complex pair without the fused multiply-adds
        # it uses along longer axes; as a stack of two, a single matrix gets
        # the bits it gets in any stack
        return tuple(x[:1] for x in svd_two_rows(np.concatenate([arr, arr])))
    # matrix index last, so every operation below runs along n; each matrix
    # scaled by a power of two to a largest part in [0.5, 1), so no norm
    # under- or overflows
    rows = np.ascontiguousarray(arr.transpose(1, 2, 0))                 # (2, W, n)
    exponent = np.frexp(np.maximum(np.abs(rows.real), np.abs(rows.imag)).max(axis=(0, 1)))[1]
    rows = np.ldexp(rows.view(np.float64), -np.repeat(exponent, 2)).view(np.complex128)

    # zgelq2: reflector 1 takes conj(row 1) to (beta1, 0, ..), row 2 times
    # H1 keeps l21 and its tail, and reflector 2 takes conj(tail) likewise
    beta1, tau1, v1 = _reflector(rows[0, 0].conj(), rows[0, 1:].conj())  # v1: (W - 1, n)
    w = rows[1, 0] + _row_total(rows[1, 1:] * v1)
    l21 = rows[1, 0] - tau1 * w
    tail = rows[1, 1:] + w * (-tau1 * v1.conj())
    beta2, tau2, v2 = _reflector(tail[0].conj(), tail[1:].conj())       # v2: (W - 2, n)

    # zgebd2 on L = [[beta1, 0], [l21, beta2]] = H1 H2 B G1^H, B = [[d1, e1], [0, d2]]
    d1, tq1, vq = _reflector(beta1 + 0j, l21[None])
    vq = vq[0]
    temp = -tq1.conj() * (beta2 * vq).conj()
    c12, c22 = temp, beta2 + vq * temp
    e1, tp1, _ = _reflector(c12.conj())
    c22 = c22 + c22 * -tp1
    d2, tq2, _ = _reflector(c22)
    s1, s2, ub, vtb = _bidiagonal_svd(d1, e1, d2)

    # zunmbr: u = H1 H2 U_B and VT = VT_B G1^H
    u = ub.astype(np.complex128)                                         # (2, 2, n)
    u[1] += u[1] * -tq2
    temp = -tq1 * (u[0].conj() + u[1].conj() * vq).conj()
    u[0] += temp
    u[1] += vq * temp
    vt = vtb.astype(np.complex128)
    vt[:, 1] += vt[:, 1] * -tp1.conj()

    # zungl2: Q's second row, then its first; zgemm: vh = VT Q
    q2 = np.empty_like(rows[1])
    q2[1] = 1.0 - tau2.conj()
    q2[2:] = (-tau2 * v2).conj()
    w = _row_total(q2[1:] * v1)
    q2[0] = -tau1.conj() * w
    q2[1:] += w * (-tau1.conj() * v1.conj())
    q1 = np.empty_like(q2)
    q1[0] = 1.0 - tau1.conj()
    q1[1:] = (-tau1 * v1).conj()
    vh = np.stack([vt[0, 0] * q1 + vt[0, 1] * q2, vt[1, 0] * q1 + vt[1, 1] * q2])
    s = np.ldexp(np.stack([s1, s2]), exponent)
    return u.transpose(2, 0, 1), s.T, vh.transpose(2, 0, 1)


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
