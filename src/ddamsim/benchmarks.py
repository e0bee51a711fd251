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
import scipy.sparse
import scipy.sparse.linalg

from .channel import ChannelRealization, PathSet, array_response
from .errors import ContractViolationError, NumericalError
from .linalg import DEFAULT_RANK_TOL, eig_hermitian, svd_reduced

# ratio this close to 1 switches the geometric series to its limit value
ICI_GEOMETRIC_GUARD = 1e-12
BEAM_NORM_TOL = 1e-9


# --- OFDM with inter-carrier interference -----------------------------------


@dataclass
class OfdmResult:
    """Per-subcarrier SVD transceivers, their SINRs and the spectral efficiency.

    Zero-padded stacks over K subcarriers and r_max = max(1, max_k r_k)
    stream slots, r_k = ranks[k] being the (optionally capped) rank of
    subcarrier k. precoders[k, :, :r_k] spends the whole power budget,
    combiners[k, :, :r_k] has orthonormal columns, and every entry of a slot
    i >= r_k is zero, so sinr[:, 0] is the strongest stream's SINR.
    """

    precoders: np.ndarray          # (K, M_t, r_max)
    combiners: np.ndarray          # (K, M_r, r_max)
    singular_values: np.ndarray    # (K, r_max)
    sinr: np.ndarray               # (K, r_max)
    ranks: np.ndarray              # (K,) integer
    rate_bps_hz: float


def ici_coefficient(
    doppler_hz, symbol_duration_s: float, num_subcarriers: int, delta
) -> np.ndarray:
    """Doppler-induced coupling from subcarrier k onto k + delta.

    Averages exp(j*2*pi*(nu*T_s + delta/K)*n) over one K-sample block; the
    geometric closed form is used except when the ratio is within
    ICI_GEOMETRIC_GUARD of 1, where the sum degenerates to 1. Broadcasts
    over doppler_hz and delta.
    """
    if num_subcarriers < 1:
        raise ContractViolationError("num_subcarriers must be >= 1")
    nu = np.asarray(doppler_hz, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    shape = np.broadcast_shapes(nu.shape, d.shape)
    ratio = np.atleast_1d(
        np.exp(2j * np.pi * (nu * symbol_duration_s + d / num_subcarriers))
    )
    out = np.ones(ratio.shape, dtype=np.complex128)
    far = np.abs(ratio - 1.0) >= ICI_GEOMETRIC_GUARD
    out[far] = (ratio[far] ** num_subcarriers - 1.0) / (
        num_subcarriers * (ratio[far] - 1.0)
    )
    return out.reshape(shape)


def _rank_one_components(realization: ChannelRealization, rank_tol: float):
    """Split each path matrix into rank-one pieces (a no-op split for ray channels).

    Returns (left, right, parent): H_l = sum over components c with
    parent[c] = l of outer(left[c], right[c].conj()).
    """
    left, right, parent = [], [], []
    for l in range(realization.path_set.num_paths):
        u, s, v = svd_reduced(realization.matrices[l], rank_tol=rank_tol)
        for m in range(s.size):
            left.append(s[m] * u[:, m])
            right.append(v[:, m])
            parent.append(l)
    if not left:
        # an all-zero channel still needs well-formed arrays
        m_r, m_t = realization.num_rx, realization.num_tx
        return (
            np.zeros((0, m_r), dtype=np.complex128),
            np.zeros((0, m_t), dtype=np.complex128),
            np.zeros(0, dtype=np.int64),
        )
    return np.array(left), np.array(right), np.array(parent, dtype=np.int64)


def ofdm_design_and_rate(
    realization: ChannelRealization,
    num_subcarriers: int,
    cp_length: int,
    total_power: float,
    noise_var: float,
    num_streams: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> OfdmResult:
    """SVD transceiver per subcarrier plus the resulting SINRs and rate.

    The desired matrix of subcarrier k sums the paths' self-coupled
    channels with their delay phase ramps; its SVD gives the combiner
    (left vectors) and the precoder (right vectors scaled to spend the
    whole budget). ICI from every other subcarrier is treated as noise.
    The rate carries the cyclic-prefix penalty K / (K + N_CP); frames are
    assumed to hold a whole number of OFDM symbols, fractional leftovers
    at the frame edge are not modeled.

    All K subcarriers are processed as stacked arrays: one batched SVD of
    the (K, M_r, M_t) desired matrices, and no per-subcarrier loop. Over
    the C rank-one components of the path matrices, the ICI on subcarrier
    k is sum over q != k of h[(q - k) mod K] * g[q], with
    h[delta, c, d] = coeff_c[delta] * conj(coeff_d[delta]) the coupling
    products (set to zero at delta = 0, which leaves out the q = k term)
    and g[q, c, d] the ramp-weighted transmit Gram terms of source q. That
    is a circular cross-correlation along the subcarrier index, computed
    with FFTs in O(C^2 K log K). The result keeps that stacked layout (see
    OfdmResult); a loaded subcarrier off the power budget by more than
    1e-9 relative raises ContractViolationError.
    """
    k_sub = int(num_subcarriers)
    if k_sub < 1:
        raise ContractViolationError("num_subcarriers must be >= 1")
    if cp_length < 0:
        raise ContractViolationError("cp_length must be >= 0")
    if total_power <= 0 or noise_var <= 0:
        raise ContractViolationError("total_power and noise_var must be positive")
    if num_streams is not None and (
        isinstance(num_streams, bool)
        or not isinstance(num_streams, (int, np.integer))
        or num_streams < 1
    ):
        raise ContractViolationError(
            f"num_streams must be None or an integer >= 1, got {num_streams!r}"
        )
    paths = realization.path_set
    ts = realization.symbol_duration_s
    left, right, parent = _rank_one_components(realization, rank_tol)
    comp_doppler = paths.doppler_hz[parent]
    comp_delay = paths.delay_taps[parent]

    # coupling coefficients for every offset (periodic in delta with period K)
    k_grid = np.arange(k_sub)
    coeff = ici_coefficient(comp_doppler[:, None], ts, k_sub, k_grid[None, :])
    # e^{-j 2 pi k m_c / K} ramps, one column per component
    ramp = np.exp(-2j * np.pi * np.outer(k_grid, comp_delay) / k_sub)
    desired = np.einsum(
        "kc,ca,cb->kab", ramp * coeff[:, 0][None, :], left, right.conj(), optimize=True
    )
    if not np.all(np.isfinite(desired)):
        raise ContractViolationError("subcarrier channels contain non-finite entries")
    try:
        u, s, vh = np.linalg.svd(desired, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc

    # numerical rank per subcarrier, relative to its largest singular value
    ranks = np.count_nonzero(s > rank_tol * s[:, :1], axis=1)
    if num_streams is not None:
        ranks = np.minimum(ranks, num_streams)
    r_max = max(1, int(ranks.max()))
    active = np.arange(r_max)[None, :] < ranks[:, None]            # (K, r_max)
    # sqrt(P / r_k) on the r_k active columns, zero on the rest
    scale = np.sqrt(total_power / np.maximum(ranks, 1))[:, None] * active
    precoders = vh[:, :r_max].conj().transpose(0, 2, 1) * scale[:, None, :]
    combiners = np.where(active[:, None, :], u[:, :, :r_max], 0.0)
    # math.isclose(power, total_power, rel_tol=1e-9) on every loaded subcarrier
    power = np.sum(np.abs(precoders) ** 2, axis=(1, 2))
    close = np.abs(power - total_power) <= 1e-9 * np.maximum(power, total_power)
    if np.any((ranks > 0) & ~close):
        raise ContractViolationError("subcarrier precoder violates the power budget")

    # receive- and transmit-side projections of every rank-one component;
    # inactive streams have zero precoder columns and drop out of the Gram
    u_proj = np.einsum("kai,ca->kic", combiners.conj(), left)        # (K, r_max, C)
    w_proj = right.conj() @ precoders                                # (K, C, r_max)
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
    return OfdmResult(precoders, combiners, singular_values, sinr, ranks, rate)


def cfo_compensate(paths: PathSet) -> PathSet:
    """Shift every Doppler by the strongest path's, as a receive-side CFO fix.

    A single common rotation can only cancel one path's Doppler; the
    strongest path is the natural anchor. The returned PathSet keeps all
    other fields and widens the Doppler bound to cover the shifted values.
    """
    anchor = int(np.argmax(np.abs(paths.gains) ** 2))
    shifted = paths.doppler_hz - paths.doppler_hz[anchor]
    bound = max(paths.doppler_bound_hz, float(np.max(np.abs(shifted))))
    return replace(paths, doppler_hz=shifted, doppler_bound_hz=bound)


# --- OTFS -------------------------------------------------------------------


@dataclass
class OtfsConfig:
    """Delay-Doppler grid, beams, and integer taps of the OTFS benchmark."""

    num_delay_bins: int        # M, also the number of subcarriers
    num_doppler_bins: int      # N symbols per frame
    cp_length: int
    tx_beam: np.ndarray        # unit-norm M_t vector
    rx_beam: np.ndarray        # unit-norm M_r vector
    delay_taps: np.ndarray     # integers in [0, M)
    doppler_taps: np.ndarray   # integers in (-N, N)
    doppler_residual_hz: np.ndarray  # off-grid Doppler lost to tap rounding

    def __post_init__(self) -> None:
        if self.num_delay_bins < 1 or self.num_doppler_bins < 1:
            raise ContractViolationError("grid dimensions must be >= 1")
        if self.cp_length < 0:
            raise ContractViolationError("cp_length must be >= 0")
        self.tx_beam = np.asarray(self.tx_beam, dtype=np.complex128).reshape(-1)
        self.rx_beam = np.asarray(self.rx_beam, dtype=np.complex128).reshape(-1)
        for name in ("tx_beam", "rx_beam"):
            norm = float(np.linalg.norm(getattr(self, name)))
            if abs(norm - 1.0) > BEAM_NORM_TOL:
                raise ContractViolationError(f"{name} must have unit norm, got {norm}")
        self.delay_taps = np.asarray(self.delay_taps, dtype=np.int64)
        self.doppler_taps = np.asarray(self.doppler_taps, dtype=np.int64)
        self.doppler_residual_hz = np.asarray(self.doppler_residual_hz, dtype=np.float64)
        n = self.delay_taps.shape[0]
        if self.doppler_taps.shape != (n,) or self.doppler_residual_hz.shape != (n,):
            raise ContractViolationError("per-path tap arrays must share one length")
        if n and (self.delay_taps.min() < 0 or self.delay_taps.max() >= self.num_delay_bins):
            raise ContractViolationError("delay taps must lie in [0, num_delay_bins)")
        if n and np.any(np.abs(self.doppler_taps) >= self.num_doppler_bins):
            raise ContractViolationError("|doppler taps| must be < num_doppler_bins")

    @property
    def grid_size(self) -> int:
        return self.num_delay_bins * self.num_doppler_bins


def make_otfs_config(
    realization: ChannelRealization,
    num_delay_bins: int,
    num_doppler_bins: int,
    cp_length: int,
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
    dominant = int(np.argmax(np.abs(paths.gains) ** 2))
    a_tx = array_response(realization.num_tx, paths.aod_rad[dominant])
    a_rx = array_response(realization.num_rx, paths.aoa_rad[dominant])
    return OtfsConfig(
        num_delay_bins=num_delay_bins,
        num_doppler_bins=num_doppler_bins,
        cp_length=cp_length,
        tx_beam=a_tx / np.linalg.norm(a_tx),
        rx_beam=a_rx / np.linalg.norm(a_rx),
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
    realization: ChannelRealization,
    config: OtfsConfig,
    max_iters: int = 50,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternating top-eigenvector updates of the beam pair.

    Maximizes the squared Frobenius norm of the scalarized channel. Both
    subproblems are Rayleigh quotients whose optimum is the dominant
    eigenvector, so the gain trace is non-decreasing. The pairwise overlap
    trace of the shift-phase operators is MN when two paths share both
    taps and zero otherwise, which collapses the quadratic forms to
    cheap L x L sums.
    """
    if max_iters < 1:
        raise ContractViolationError("max_iters must be >= 1")
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
    for _ in range(max_iters):
        b_rows = np.einsum("r,lrt->lt", v.conj(), mats)        # row l = v^H H_l
        lam = b_rows.conj().T @ overlap @ b_rows
        vals, vecs = eig_hermitian(lam, herm_tol=1e-8)
        if vals[0] <= 0:
            break
        f = vecs[:, 0]
        c_cols = np.einsum("lrt,t->lr", mats, f)               # row l = H_l f
        gam = c_cols.T @ overlap @ c_cols.conj()
        vals, vecs = eig_hermitian(gam, herm_tol=1e-8)
        if vals[0] <= 0:
            break
        v = vecs[:, 0]
        current = gain(f, v)
        trace.append(current)
        previous = trace[-2]
        if current - previous <= tol * max(abs(previous), 1e-30):
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
    the Gram matrix is Hermitian positive definite.
    """
    mn = num_delay_bins * num_doppler_bins
    if power_over_noise < 0 or cp_length < 0:
        raise ContractViolationError("power_over_noise and cp_length must be >= 0")
    gains = np.asarray(effective_gains, dtype=np.complex128)
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
    sinr_multipath accounts for it, snr_dominant ignores it.
    """
    if total_power <= 0 or noise_var <= 0:
        raise ContractViolationError("total_power and noise_var must be positive")
    paths = realization.path_set
    dominant = int(np.argmax(np.abs(paths.gains) ** 2))
    a_tx = array_response(realization.num_tx, paths.aod_rad[dominant])
    a_rx = array_response(realization.num_rx, paths.aoa_rad[dominant])
    f = math.sqrt(total_power) * a_tx / np.linalg.norm(a_tx)
    w = a_rx / np.linalg.norm(a_rx)
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
