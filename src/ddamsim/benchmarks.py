"""Benchmark transceivers: OFDM with inter-carrier interference, OTFS, and
strongest-path beamforming.

These are the schemes the alignment designs are compared against. OFDM is
modeled with the ICI that per-path Doppler causes (no self-cancellation or
windowing tricks), OTFS with integer delay/Doppler taps and one spatial
beam pair refined by alternating top-eigenvector updates, and the
strongest-path scheme beamforms toward the dominant path only, leaving the
remaining multipath as interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelRealization,
    PathSet,
    _checked_int,
    _checked_positive,
    _whole_numbers,
    array_response,
)
from .errors import ContractViolationError, NumericalError
from .linalg import RANK_TOL, eig_hermitian, svd_reduced

# ratio this close to 1 switches the geometric series to its limit value
ICI_GEOMETRIC_GUARD = 1e-12
BEAM_NORM_TOL = 1e-9
# otfs_beam_opt stops after this many sweeps or below this relative gain step
BEAM_OPT_MAX_ITERS = 50
BEAM_OPT_TOL = 1e-9


# --- OFDM with inter-carrier interference -----------------------------------


@dataclass
class OfdmResult:
    """Per-subcarrier SVD transceivers, their SINRs and the spectral efficiency.

    Zero-padded stacks over K subcarriers and r_max = max(1, max_k r_k)
    stream slots, r_k = ranks[k] being the rank of subcarrier k capped at
    the stream count. The precoders are kept factored: subcarrier k's is
    antenna_basis @ precoder_coords[k], where antenna_basis is
    block-diag(I_{M_r}, Q) with Q the orthonormal (M_t - M_r, C) tail basis
    and zero padding columns up to W = max(2 M_r, M_r + C), or I_{M_t} when
    M_t <= W. Its nonzero columns are orthonormal, so precoder_coords[k, :,
    :r_k] spends the whole power budget on the antennas too.
    combiners[k, :, :r_k] has orthonormal columns, and every entry of a slot
    i >= r_k is zero, so sinr[:, 0] is the strongest stream's SINR.
    """

    precoder_coords: np.ndarray    # (K, W, r_max)
    antenna_basis: np.ndarray      # (M_t, W)
    combiners: np.ndarray          # (K, M_r, r_max)
    singular_values: np.ndarray    # (K, r_max)
    sinr: np.ndarray               # (K, r_max)
    ranks: np.ndarray              # (K,) integer
    rate_bps_hz: float


def ici_coefficient(
    doppler_hz, symbol_duration_s: float, num_subcarriers: int, delta
) -> np.ndarray:
    """Doppler-induced coupling from subcarrier k onto k + delta.

    Averages exp(j*2*pi*(nu*T_s + delta/K)*n) over one K-sample block. With
    ratio = exp(j*2*pi*(nu*T_s + delta/K)) the geometric closed form is
    (ratio^K - 1) / (K * (ratio - 1)), and for an integer delta ratio^K =
    exp(j*2*pi*nu*T_s*K), which is exactly 1 at nu = 0, so a Doppler-free
    path couples nothing off the diagonal. Where the ratio is within
    ICI_GEOMETRIC_GUARD of 1 the sum degenerates to 1. Broadcasts over
    doppler_hz and delta; a bool or non-integer delta or num_subcarriers
    raises ContractViolationError.
    """
    _checked_int(num_subcarriers, "num_subcarriers", 1)
    d = np.asarray(delta)
    if not np.issubdtype(d.dtype, np.integer):
        raise ContractViolationError(f"delta must be an integer, got {delta!r}")
    nu = np.asarray(doppler_hz, dtype=np.float64)
    shape = np.broadcast_shapes(nu.shape, d.shape)
    ratio = np.atleast_1d(
        np.exp(2j * np.pi * (nu * symbol_duration_s + d / num_subcarriers))
    )
    # ratio^K, one complex exponential per Doppler instead of a power per entry
    turn = np.broadcast_to(
        np.exp(2j * np.pi * nu * symbol_duration_s * num_subcarriers), ratio.shape
    )
    out = np.ones(ratio.shape, dtype=np.complex128)
    far = np.abs(ratio - 1.0) >= ICI_GEOMETRIC_GUARD
    out[far] = (turn[far] - 1.0) / (num_subcarriers * (ratio[far] - 1.0))
    return out.reshape(shape)


def _rank_one_components(realization: ChannelRealization):
    """Split each path matrix into rank-one pieces (a no-op split for ray channels).

    Returns (left, right, parent): H_l = sum over components c with
    parent[c] = l of outer(left[c], right[c].conj()). The components come
    from one stacked SVD of the path matrices, in path order and within a
    path by descending singular value; an all-zero channel has none.
    """
    u, s, v = svd_reduced(realization.matrices)
    parent, mode = np.nonzero(s)
    left = (u * s[:, None, :]).transpose(0, 2, 1)[parent, mode]
    return left, v.transpose(0, 2, 1)[parent, mode], parent


def ofdm_design_and_rate(
    realization: ChannelRealization,
    num_subcarriers: int,
    cp_length: int,
    total_power: float,
    noise_var: float,
    num_streams: int,
) -> OfdmResult:
    """SVD transceiver per subcarrier plus the resulting SINRs and rate.

    The desired matrix of subcarrier k sums the paths' self-coupled
    channels with their delay phase ramps; its SVD gives the combiner
    (left vectors) and the precoder (right vectors of the at most
    num_streams strongest modes, scaled to spend the whole budget). ICI
    from every other subcarrier is treated as noise. The rate carries the
    cyclic-prefix penalty K / (K + N_CP); frames are assumed to hold a
    whole number of OFDM symbols, fractional leftovers at the frame edge
    are not modeled.

    All K subcarriers are processed as stacked arrays: one batched SVD and
    no per-subcarrier loop. The SVD does not run on the (K, M_r, M_t)
    desired matrices but on (K, M_r, W) compressed ones. With `right` the
    (C, M_t) right vectors of the C rank-one components, every desired
    row lies in the span of the first M_r antenna coordinates plus the
    components' tail span, so when M_t > W = max(2 M_r, M_r + C) the
    remaining T = M_t - M_r coordinates go through one thin QR,
    right[:, M_r:].T = Q R with Q of size T x C, and each component is
    described by [conj(right[:, :M_r]), conj(right[:, M_r:]) @ Q],
    zero-padded to width W. Below that threshold the same code runs with
    identity coordinates (Q = I, W = M_t). The precoders stay in that
    factored form, the small right vectors and the (M_t, W) antenna basis
    block-diag(I, Q), so no per-subcarrier array has an M_t axis; the power
    budget is checked on the small vectors, and the transmit projections
    are taken in W dimensions.

    The compression keeps LAPACK's singular-vector phases, which fig8's
    OFDM frame PAPR depends on. For a wide matrix zgesdd first takes a
    Householder LQ and then the SVD of L. Row i's reflector depends only on
    its pivot entry (a column < M_r), the norm of the rest of its row, and
    inner products between rows; a unitary acting only on the columns after
    M_r leaves all of these unchanged, so L, and with it the combiners, the
    singular values and the small right vectors, equal the full SVD's up to
    rounding. zgesdd takes that LQ path once N >= int(17 M / 9); padding
    the width to at least 2 M_r >= int(17 M_r / 9) keeps the compressed
    problem on the same path as the full one, which has M_t > 2 M_r.

    Over the C components, the ICI on subcarrier k is sum over q != k of
    h[(q - k) mod K] * g[q], with h[delta, c, d] = coeff_c[delta] *
    conj(coeff_d[delta]) the coupling products (set to zero at delta = 0,
    which leaves out the q = k term) and g[q, c, d] the ramp-weighted
    transmit Gram terms of source q. That is a circular cross-correlation
    along the subcarrier index, computed with FFTs in O(C^2 K log K). The
    result keeps the stacked layout of OfdmResult; a loaded subcarrier off
    the power budget by more than 1e-9 relative raises
    ContractViolationError, as do a bool or non-integer subcarrier count or
    cyclic prefix and a non-finite power or noise.
    """
    k_sub = _checked_int(num_subcarriers, "num_subcarriers", 1)
    _checked_int(cp_length, "cp_length", 0)
    _checked_int(num_streams, "num_streams", 1)
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    paths = realization.path_set
    ts = realization.symbol_duration_s
    left, right, parent = _rank_one_components(realization)
    comp_doppler = paths.doppler_hz[parent]
    comp_delay = paths.delay_taps[parent]

    # per-component coordinates: the first M_r antennas as they are, the
    # tail on an orthonormal basis of its span (see the docstring)
    n_comp, m_t = right.shape
    lead = min(realization.num_rx, m_t)
    width = max(2 * lead, lead + n_comp)
    if m_t > width:
        tail = np.linalg.qr(right[:, lead:].T)[0]                     # (T, C)
        antenna_basis = np.zeros((m_t, width), dtype=np.complex128)
        antenna_basis[:lead, :lead] = np.eye(lead)
        antenna_basis[lead:, lead : lead + n_comp] = tail
    else:
        antenna_basis = np.eye(m_t, dtype=np.complex128)
    coords = right.conj() @ antenna_basis                            # (C, W)

    # coupling coefficients for every offset (periodic in delta with period K)
    k_grid = np.arange(k_sub)
    coeff = ici_coefficient(comp_doppler[:, None], ts, k_sub, k_grid[None, :])
    # e^{-j 2 pi k m_c / K} ramps, one column per component
    ramp = np.exp(-2j * np.pi * np.outer(k_grid, comp_delay) / k_sub)
    desired = np.einsum(
        "kc,ca,cb->kab", ramp * coeff[:, 0][None, :], left, coords, optimize=True
    )
    if not np.all(np.isfinite(desired)):
        raise ContractViolationError("subcarrier channels contain non-finite entries")
    try:
        u, s, vh = np.linalg.svd(desired, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc

    # numerical rank per subcarrier, relative to its largest singular value
    ranks = np.minimum(np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1), num_streams)
    r_max = max(1, int(ranks.max()))
    active = np.arange(r_max)[None, :] < ranks[:, None]            # (K, r_max)
    # sqrt(P / r_k) on the r_k active columns, zero on the rest
    scale = np.sqrt(total_power / np.maximum(ranks, 1))[:, None] * active
    small = vh[:, :r_max].conj().transpose(0, 2, 1) * scale[:, None, :]  # (K, W, r_max)
    combiners = np.where(active[:, None, :], u[:, :, :r_max], 0.0)
    # math.isclose(power, total_power, rel_tol=1e-9) on every loaded subcarrier
    power = np.sum(np.abs(small) ** 2, axis=(1, 2))
    close = np.abs(power - total_power) <= 1e-9 * np.maximum(power, total_power)
    if np.any((ranks > 0) & ~close):
        raise ContractViolationError("subcarrier precoder violates the power budget")

    # receive- and transmit-side projections of every rank-one component;
    # inactive streams have zero precoder columns and drop out of the Gram
    u_proj = np.einsum("kai,ca->kic", combiners.conj(), left)        # (K, r_max, C)
    w_proj = coords @ small                                          # (K, C, r_max)
    gram = w_proj @ w_proj.conj().transpose(0, 2, 1)                  # (K, C, C)

    coupling = coeff.T
    h = coupling[:, :, None] * coupling[:, None, :].conj()
    h[0] = 0.0
    g = ramp[:, :, None] * ramp[:, None, :].conj() * gram
    cross = np.fft.ifft(
        np.fft.fft(g, axis=0) * np.fft.fft(h.conj(), axis=0).conj(), axis=0
    )
    ici_power = np.einsum("kic,kid,kcd->ki", u_proj, u_proj.conj(), cross).real
    ici_power = np.maximum(ici_power, 0.0)

    singular_values = np.where(active, s[:, :r_max], 0.0)
    signal = total_power * singular_values**2 / np.maximum(ranks, 1)[:, None]
    sinr = np.where(active, signal / (ici_power + noise_var), 0.0)
    overhead = k_sub / (k_sub + cp_length)
    rate = overhead * float(np.sum(np.log2(1.0 + sinr))) / k_sub
    return OfdmResult(small, antenna_basis, combiners, singular_values, sinr, ranks, rate)


def _dominant_path(paths: PathSet, *array_sizes: int) -> tuple:
    """Strongest path (largest |alpha_l|^2), then its unit beams at the sizes (M_t, M_r) given."""
    dominant = int(np.argmax(np.abs(paths.gains) ** 2))
    angles = (paths.aod_rad[dominant], paths.aoa_rad[dominant])
    beams = [array_response(size, angle) for size, angle in zip(array_sizes, angles)]
    return (dominant, *(beam / np.linalg.norm(beam) for beam in beams))


def cfo_compensate(paths: PathSet) -> PathSet:
    """Shift every Doppler by the strongest path's, as a receive-side CFO fix.

    A single common rotation can only cancel one path's Doppler; the
    strongest path is the natural anchor. The returned PathSet keeps all
    other fields and widens the Doppler bound to cover the shifted values.
    """
    (anchor,) = _dominant_path(paths)
    shifted = paths.doppler_hz - paths.doppler_hz[anchor]
    bound = max(paths.doppler_bound_hz, float(np.max(np.abs(shifted))))
    return replace(paths, doppler_hz=shifted, doppler_bound_hz=bound)


# --- OTFS -------------------------------------------------------------------


@dataclass
class OtfsConfig:
    """Delay-Doppler grid, beams, and integer taps of the OTFS benchmark."""

    num_delay_bins: int        # M, also the number of subcarriers
    num_doppler_bins: int      # N symbols per frame
    tx_beam: np.ndarray        # unit-norm M_t vector
    rx_beam: np.ndarray        # unit-norm M_r vector
    delay_taps: np.ndarray     # integers in [0, M)
    doppler_taps: np.ndarray   # integers in (-N, N)
    doppler_residual_hz: np.ndarray  # off-grid Doppler lost to tap rounding

    def __post_init__(self) -> None:
        self.num_delay_bins = _checked_int(self.num_delay_bins, "num_delay_bins", 1)
        self.num_doppler_bins = _checked_int(self.num_doppler_bins, "num_doppler_bins", 1)
        self.tx_beam = np.asarray(self.tx_beam, dtype=np.complex128).reshape(-1)
        self.rx_beam = np.asarray(self.rx_beam, dtype=np.complex128).reshape(-1)
        for name in ("tx_beam", "rx_beam"):
            norm = float(np.linalg.norm(getattr(self, name)))
            if abs(norm - 1.0) > BEAM_NORM_TOL:
                raise ContractViolationError(f"{name} must have unit norm, got {norm}")
        self.delay_taps, self.doppler_taps = _checked_taps(
            self.delay_taps, self.doppler_taps, self.num_delay_bins, self.num_doppler_bins
        )
        self.doppler_residual_hz = np.asarray(self.doppler_residual_hz, dtype=np.float64)
        if self.doppler_residual_hz.shape != self.delay_taps.shape:
            raise ContractViolationError("per-path tap arrays must share one length")

    @property
    def grid_size(self) -> int:
        return self.num_delay_bins * self.num_doppler_bins


def _checked_taps(
    delay_taps, doppler_taps, num_delay_bins: int, num_doppler_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Equal-length 1-D delay and Doppler taps as int64, whole numbers in [0, M) and (-N, N).

    Anything else raises ContractViolationError.
    """
    delays = _whole_numbers(delay_taps, "delay taps")
    dopplers = _whole_numbers(doppler_taps, "doppler taps")
    if delays.ndim != 1 or dopplers.shape != delays.shape:
        raise ContractViolationError("delay and doppler taps must be 1-D arrays of one length")
    if delays.size and (delays.min() < 0 or delays.max() >= num_delay_bins):
        raise ContractViolationError("delay taps must lie in [0, num_delay_bins)")
    if np.any(np.abs(dopplers) >= num_doppler_bins):
        raise ContractViolationError("|doppler taps| must be < num_doppler_bins")
    return delays, dopplers


def make_otfs_config(
    realization: ChannelRealization, num_delay_bins: int, num_doppler_bins: int
) -> OtfsConfig:
    """Quantize the realization onto the delay-Doppler grid.

    Delay taps carry over directly (both live on the T_s grid); Doppler
    taps are the nearest multiples of the frame's Doppler resolution
    1 / (N * M * T_s), with the rounding loss kept as a diagnostic.
    The beams point along the dominant path's steering vectors.
    """
    paths = realization.path_set
    frame_s = num_doppler_bins * num_delay_bins * realization.symbol_duration_s
    doppler_taps = np.rint(paths.doppler_hz * frame_s).astype(np.int64)
    residual = paths.doppler_hz - doppler_taps / frame_s
    _, tx_beam, rx_beam = _dominant_path(paths, realization.num_tx, realization.num_rx)
    return OtfsConfig(
        num_delay_bins=num_delay_bins,
        num_doppler_bins=num_doppler_bins,
        tx_beam=tx_beam,
        rx_beam=rx_beam,
        delay_taps=paths.delay_taps.copy(),
        doppler_taps=doppler_taps,
        doppler_residual_hz=residual,
    )


def otfs_effective_gains(
    realization: ChannelRealization, config: OtfsConfig
) -> np.ndarray:
    """Scalar per-path gains rx_beam^H H_l tx_beam after beamforming."""
    return np.einsum(
        "r,lrt,t->l", config.rx_beam.conj(), realization.matrices, config.tx_beam
    )


def otfs_beam_opt(
    realization: ChannelRealization, config: OtfsConfig
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternating top-eigenvector updates of the beam pair.

    Maximizes the squared Frobenius norm of the scalarized channel. Both
    subproblems are Rayleigh quotients whose optimum is the dominant
    eigenvector, so the gain trace is non-decreasing. It stops after
    BEAM_OPT_MAX_ITERS sweeps, or once a sweep gains at most BEAM_OPT_TOL
    relative. The pairwise overlap trace of the shift-phase operators is
    MN when two paths share both taps and zero otherwise, which collapses
    the quadratic forms to cheap L x L sums.
    """
    mats = realization.matrices
    mn = config.grid_size
    i_taps, j_taps = config.delay_taps, config.doppler_taps
    overlap = mn * (
        (i_taps[:, None] == i_taps[None, :]) & (j_taps[:, None] == j_taps[None, :])
    ).astype(np.float64)
    f = config.tx_beam.copy()
    v = config.rx_beam.copy()

    def gain(f_vec: np.ndarray, v_vec: np.ndarray) -> float:
        h = np.einsum("r,lrt,t->l", v_vec.conj(), mats, f_vec)
        return float((h.conj() @ overlap @ h).real)

    trace = [gain(f, v)]
    for _ in range(BEAM_OPT_MAX_ITERS):
        b_rows = np.einsum("r,lrt->lt", v.conj(), mats)        # row l = v^H H_l
        lam = b_rows.conj().T @ overlap @ b_rows
        [vals], [vecs] = eig_hermitian(lam[None])
        if vals[0] <= 0:
            break
        f = vecs[:, 0]
        c_cols = np.einsum("lrt,t->lr", mats, f)               # row l = H_l f
        gam = c_cols.T @ overlap @ c_cols.conj()
        [vals], [vecs] = eig_hermitian(gam[None])
        if vals[0] <= 0:
            break
        v = vecs[:, 0]
        current = gain(f, v)
        trace.append(current)
        previous = trace[-2]
        if current - previous <= BEAM_OPT_TOL * max(abs(previous), 1e-30):
            break
    return f, v, trace


def otfs_rate_from_taps(
    effective_gains: np.ndarray,
    delay_taps: np.ndarray,
    doppler_taps: np.ndarray,
    num_delay_bins: int,
    num_doppler_bins: int,
    power_over_noise: float,
    cp_length: int,
) -> float:
    """OTFS spectral efficiency with CP overhead, from the per-path taps.

    The rate is log2 det(I + pbar * H H^H) of the delay-Doppler channel,
    normalized by the frame length plus its cyclic prefix. The
    delay-Doppler transform is unitary, so the log-determinant is taken
    over the sparse time-domain operator directly, without building any
    dense MN x MN matrix (the dense chain in tests/oracles.py is the
    reference it is checked against); a sparse LU
    factorization supplies it as the sum of log|U_ii|, valid here because
    the Gram matrix is Hermitian positive definite. The gains and both tap
    arrays must be non-empty 1-D arrays of one length, one entry per path;
    the taps whole numbers in OtfsConfig's ranges, the grid sizes integers
    >= 1 and cp_length an integer >= 0 (bools are not integers here).
    """
    # loaded here, not at import: only OTFS needs scipy.sparse
    import scipy.sparse
    import scipy.sparse.linalg

    num_delay_bins = _checked_int(num_delay_bins, "num_delay_bins", 1)
    num_doppler_bins = _checked_int(num_doppler_bins, "num_doppler_bins", 1)
    cp_length = _checked_int(cp_length, "cp_length", 0)
    if not (math.isfinite(power_over_noise) and power_over_noise >= 0):
        raise ContractViolationError("power_over_noise must be finite and >= 0")
    gains = np.asarray(effective_gains, dtype=np.complex128)
    delay_taps, doppler_taps = _checked_taps(
        delay_taps, doppler_taps, num_delay_bins, num_doppler_bins
    )
    if gains.shape != delay_taps.shape or not gains.size:
        raise ContractViolationError("gains and taps must be matching non-empty 1-D arrays")
    mn = num_delay_bins * num_doppler_bins
    n_idx = np.arange(mn)
    rows = []
    cols = []
    vals = []
    for gain, i_tap, j_tap in zip(gains, delay_taps, doppler_taps):
        rows.append((n_idx + int(i_tap)) % mn)
        cols.append(n_idx)
        vals.append(gain * np.exp(2j * np.pi * int(j_tap) * n_idx / mn))
    h = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mn, mn),
    )
    gram = (
        scipy.sparse.identity(mn, dtype=np.complex128, format="csc")
        + power_over_noise * (h @ h.conj().T)
    ).tocsc()
    lu = scipy.sparse.linalg.splu(gram)
    diag = np.abs(lu.U.diagonal())
    if np.any(diag <= 0):
        raise NumericalError("sparse factorization hit a zero pivot")
    logdet = float(np.sum(np.log2(diag)))
    if not np.isfinite(logdet):
        raise NumericalError("sparse log-determinant overflowed")
    return logdet / (mn + cp_length)


# --- strongest-path beamforming ---------------------------------------------


@dataclass
class StrongestPathDesign:
    """Single-beam design locked to the dominant path."""

    precoder: np.ndarray       # M_t vector carrying the full power budget
    combiner: np.ndarray       # unit-norm M_r vector
    dominant_path: int
    snr_dominant: float        # dominant path alone over noise
    sinr_multipath: float      # with the other paths left in as interference


def strongest_path_design(
    realization: ChannelRealization, total_power: float, noise_var: float
) -> StrongestPathDesign:
    """Beamform along the dominant path's steering vectors.

    The receiver is assumed to synchronize to the dominant path's delay
    and Doppler, so that path contributes a constant coefficient while
    every other path lands at a different lag and acts as interference;
    sinr_multipath accounts for it, snr_dominant ignores it. A non-finite
    or non-positive power or noise raises ContractViolationError.
    """
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    paths = realization.path_set
    dominant, tx_beam, w = _dominant_path(paths, realization.num_tx, realization.num_rx)
    f = math.sqrt(total_power) * tx_beam
    coupling = np.einsum("r,lrt,t->l", w.conj(), realization.matrices, f)
    powers = np.abs(coupling) ** 2
    interference = float(powers.sum() - powers[dominant])
    return StrongestPathDesign(
        precoder=f,
        combiner=w,
        dominant_path=dominant,
        snr_dominant=float(powers[dominant] / noise_var),
        sinr_multipath=float(powers[dominant] / (interference + noise_var)),
    )
