"""Reference implementations that the tests compare the library against.

These are direct, dense or time-domain versions of quantities the package
computes more cheaply (or does not need at run time). They live here so the
library ships one implementation per quantity while the tests keep an
independent oracle for each.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from ddamsim.bcd import GroupedChannels, _budgeted_precoder, interference_covariance
from ddamsim.benchmarks import (
    OfdmResult,
    OtfsConfig,
    StrongestPathDesign,
    _rank_one_components,
    ici_coefficient,
    ofdm_design_and_rate,
    otfs_effective_gains,
)
from ddamsim.channel import (
    ChannelRealization,
    Timebase,
    apply_channel,
    array_response,
    generate_paths,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, FeasibilityError, NumericalError
from ddamsim.experiments import OFDM_SUBCARRIERS, PAPR_MODULATION_ORDER
from ddamsim.linalg import DEFAULT_RANK_TOL, eig_hermitian, null_space_basis, svd_reduced
from ddamsim.metrics import qam_symbols
from ddamsim.zf import DdamDesign


# --- aligned-link rate and waveform (bcd, zf) ---------------------------------


def ddam_rate(
    grouped: GroupedChannels,
    precoder: np.ndarray,
    combiner: np.ndarray,
    noise_var: float,
) -> float:
    """Achievable rate with residual ISI treated as colored Gaussian noise.

    log2 det(I + W^H Hbar Fbar Fbar^H Hbar^H W (W^H C W)^{-1}), evaluated
    stably as a difference of two log-determinants.
    """
    f_bar = np.asarray(precoder, dtype=np.complex128)
    w = np.asarray(combiner, dtype=np.complex128)
    if f_bar.shape[0] != grouped.stacked_channel.shape[1]:
        raise ContractViolationError("precoder rows must equal L * M_t")
    if w.shape[0] != grouped.num_rx:
        raise ContractViolationError("combiner rows must equal M_r")
    signal = w.conj().T @ (grouped.stacked_channel @ f_bar)
    cov_w = w.conj().T @ interference_covariance(grouped, f_bar, noise_var) @ w
    sign, logdet_cov = np.linalg.slogdet(cov_w)
    if sign.real <= 0 or not np.isfinite(logdet_cov):
        raise NumericalError("combined noise covariance is singular")
    sign2, logdet_full = np.linalg.slogdet(cov_w + signal @ signal.conj().T)
    if sign2.real <= 0:
        raise NumericalError("rate determinant is not positive")
    return float((logdet_full - logdet_cov) / math.log(2.0))


def ddam_rx_analytic(
    realization: ChannelRealization,
    design: DdamDesign,
    symbols: np.ndarray,
) -> np.ndarray:
    """Closed-form combined receive signal, term by term and phase exact.

    Path l of the channel applied to the path-l' transmit branch lands at
    lag kappa_l' + m_l with coefficient
    W^H H_l F_l' exp(j*2*pi*(nu_l - nu_l')*n*T_s) exp(j*2*pi*nu_l'*m_l*T_s).
    Summing all (l, l') terms reproduces the time-domain oracle exactly
    (noise off); the l = l' terms are the aligned desired signal, the rest
    is inter-path interference at lags m_max + (m_l - m_l').
    """
    s = np.asarray(symbols, dtype=np.complex128)
    if s.ndim != 2 or s.shape[1] != design.num_streams:
        raise ContractViolationError("symbols shape does not match the design")
    paths = realization.path_set
    ts = realization.symbol_duration_s
    n_samples = s.shape[0]
    n_idx = np.arange(n_samples)
    w_h = design.combiner.conj().T
    out = np.zeros((n_samples, w_h.shape[0]), dtype=np.complex128)
    for l in range(paths.num_paths):
        m_l = int(paths.delay_taps[l])
        for lp in range(design.num_paths):
            lag = int(design.delay_comp[lp]) + m_l
            if lag >= n_samples:
                continue
            coef = w_h @ realization.matrices[l] @ design.precoders[lp]
            const = np.exp(2j * np.pi * design.doppler_comp[lp] * m_l * ts)
            dnu = paths.doppler_hz[l] - design.doppler_comp[lp]
            rot = np.exp(2j * np.pi * dnu * n_idx[lag:] * ts) * const
            out[lag:] += (s[: n_samples - lag] @ coef.T) * rot[:, None]
    return out


def precoder_update_dense(
    grouped: GroupedChannels,
    combiner: np.ndarray,
    auxiliary: np.ndarray,
    total_power: float,
) -> np.ndarray:
    """Dense version of `bcd.precoder_update`.

    Forms the full (L*M_t) x (L*M_t) matrix `quad` and eigendecomposes it,
    instead of working in the range of the stacked channel's adjoint. The
    power-budget solve from the eigenpairs is the library's own, so a
    comparison isolates the range reduction.
    """
    if total_power <= 0:
        raise ContractViolationError("total_power must be positive")
    w = np.asarray(combiner, dtype=np.complex128)
    q = np.asarray(auxiliary, dtype=np.complex128)
    q = 0.5 * (q + q.conj().T)
    wqw = w @ q @ w.conj().T
    h_bar = grouped.stacked_channel
    quad = h_bar.conj().T @ wqw @ h_bar
    for block in grouped.isi_channels.values():
        quad += block.conj().T @ wqw @ block
    rhs = h_bar.conj().T @ (w @ q)
    if not np.any(np.abs(rhs) > 0):
        return np.zeros((h_bar.shape[1], w.shape[1]), dtype=np.complex128)
    vals, vecs = eig_hermitian(quad, herm_tol=1e-8)
    return _budgeted_precoder(vals, vecs, vecs.conj().T @ rhs, total_power)


def path_zf_precoder_bases_dense(
    matrices: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL
) -> list[np.ndarray]:
    """Dense version of `zf.path_zf_precoder_bases`.

    bases[l] spans the full orthogonal complement of the column space of
    [H_1^H, ..., H_{l-1}^H, H_{l+1}^H, ..., H_L^H], from one M_t x M_t SVD
    per path, instead of its part inside the channels' joint row space.
    With a single path the full identity basis is returned.
    """
    num_paths, _, num_tx = matrices.shape
    if num_paths == 1:
        return [np.eye(num_tx, dtype=np.complex128)]
    bases = []
    for l in range(num_paths):
        others = [matrices[k].conj().T for k in range(num_paths) if k != l]
        stack = np.concatenate(others, axis=1)
        basis = null_space_basis(stack, tol=rank_tol)
        if basis.shape[1] == 0:
            raise FeasibilityError(
                f"path {l}: no interference-free transmit directions left "
                f"(M_t = {num_tx}, L = {num_paths})"
            )
        bases.append(basis)
    return bases


def build_ddam_tx_loop(
    design: DdamDesign, symbols: np.ndarray, timebase: Timebase
) -> np.ndarray:
    """Per-path loop version of `zf.build_ddam_tx`.

    Accumulates one (N, M_t) precoded, advanced, derotated stream per path
    instead of multiplying the stacked streams by the stacked precoders once.
    """
    s = np.asarray(symbols, dtype=np.complex128)
    if s.ndim != 2 or s.shape[1] != design.num_streams:
        raise ContractViolationError(
            f"symbols must have shape (N, {design.num_streams}), got {s.shape}"
        )
    n_samples = s.shape[0]
    num_tx = design.precoders.shape[1]
    ts = timebase.symbol_duration_s
    x = np.zeros((n_samples, num_tx), dtype=np.complex128)
    n_idx = np.arange(n_samples)
    for l in range(design.num_paths):
        kappa = int(design.delay_comp[l])
        if kappa >= n_samples:
            continue
        rot = np.exp(-2j * np.pi * design.doppler_comp[l] * n_idx[kappa:] * ts)
        x[kappa:] += (s[: n_samples - kappa] @ design.precoders[l].T) * rot[:, None]
    return x


# --- large-array SNR references (asymptotic) ----------------------------------


def strongest_path_snr(config: SystemConfig, gains: np.ndarray) -> float:
    """Aligned SNR when all power rides the single strongest path."""
    peak = float(np.max(np.abs(np.asarray(gains)) ** 2))
    return (
        config.tx_power_watts
        / config.noise_power_watts
        * config.num_tx_antennas
        * config.num_rx_antennas
        * peak
    )


def cross_path_leakage(realization: ChannelRealization, num_tx_sweep) -> np.ndarray:
    """Worst-pair normalized transmit-steering overlap at each array size.

    For each M_t in the sweep returns max over path pairs of
    |a_tx(psi_l)^H a_tx(psi_k)| / M_t, the factor by which a matched filter
    for one path excites another. Decays like 1/M_t off the grating points.
    """
    aods = realization.path_set.aod_rad
    if len(aods) < 2:
        raise ContractViolationError("leakage needs at least two paths")
    out = np.empty(len(num_tx_sweep), dtype=np.float64)
    for i, num_tx in enumerate(num_tx_sweep):
        worst = 0.0
        for l in range(len(aods)):
            a_l = array_response(int(num_tx), aods[l])
            for k in range(l + 1, len(aods)):
                a_k = array_response(int(num_tx), aods[k])
                worst = max(worst, abs(np.vdot(a_l, a_k)) / int(num_tx))
        out[i] = worst
    return out


# --- dense OTFS chain and strongest-path time-domain check (benchmarks) -------


def _shift_phase_operator(
    gains: np.ndarray, delay_taps: np.ndarray, doppler_taps: np.ndarray, grid_size: int
) -> np.ndarray:
    """Dense sum over paths of gain * (cyclic shift by i) * (phase ramp j)."""
    h = np.zeros((grid_size, grid_size), dtype=np.complex128)
    n_idx = np.arange(grid_size)
    for gain, i_tap, j_tap in zip(gains, delay_taps, doppler_taps):
        rows = (n_idx + int(i_tap)) % grid_size
        h[rows, n_idx] += gain * np.exp(2j * np.pi * int(j_tap) * n_idx / grid_size)
    return h


def otfs_time_channel(
    realization: ChannelRealization, config: OtfsConfig
) -> np.ndarray:
    """Scalarized time-domain channel after beamforming, size MN x MN.

    Each path contributes its effective gain on a cyclic delay shift
    composed with a Doppler phase ramp, so the operator is a sum of
    permutation-times-diagonal factors.
    """
    gains = otfs_effective_gains(realization, config)
    return _shift_phase_operator(
        gains, config.delay_taps, config.doppler_taps, config.grid_size
    )


def otfs_delay_doppler_channel(
    realization: ChannelRealization, config: OtfsConfig
) -> np.ndarray:
    """Time channel conjugated into the delay-Doppler domain.

    Applies (F_N kron I_M) on the left and its inverse on the right, with
    the unitary N-point DFT and rectangular (identity) pulse shaping. The
    transform is unitary, so Frobenius norm and singular values carry over
    from the time-domain operator.
    """
    h = otfs_time_channel(realization, config)
    m, n = config.num_delay_bins, config.num_doppler_bins
    f_n = scipy.linalg.dft(n) / math.sqrt(n)
    # contract the kron factors through reshapes instead of forming MN x MN krons
    t = h.reshape(n, m, n, m)
    t = np.einsum("ab,bmcr->amcr", f_n, t)
    t = np.einsum("amcr,dc->amdr", t, f_n.conj())
    return t.reshape(m * n, m * n)




def otfs_rate(
    h_dd: np.ndarray,
    power_over_noise: float,
    cp_length: int,
    num_delay_bins: int,
    num_doppler_bins: int,
) -> float:
    """Spectral efficiency of the delay-Doppler channel with CP overhead.

    log2 det(I + pbar * H H^H) normalized by the frame length plus its
    cyclic prefix.
    """
    h = np.asarray(h_dd, dtype=np.complex128)
    mn = num_delay_bins * num_doppler_bins
    if h.shape != (mn, mn):
        raise ContractViolationError(f"h_dd must be {mn} x {mn}, got {h.shape}")
    if power_over_noise < 0 or cp_length < 0:
        raise ContractViolationError("power_over_noise and cp_length must be >= 0")
    gram = np.eye(mn, dtype=np.complex128) + power_over_noise * (h @ h.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0 or not np.isfinite(logdet):
        raise NumericalError("delay-Doppler Gram determinant is not positive")
    return float(logdet / math.log(2.0) / (mn + cp_length))


# --- per-subcarrier OFDM loop (benchmarks) -----------------------------------


def ofdm_design_and_rate_loop(
    realization: ChannelRealization,
    num_subcarriers: int,
    cp_length: int,
    total_power: float,
    noise_var: float,
    num_streams: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> OfdmResult:
    """Per-subcarrier loop version of `ofdm_design_and_rate`.

    One `svd_reduced` call per subcarrier, and the ICI sum contracted over
    a (K, K, C) phase tensor from which the q = k self term is subtracted
    afterwards. The library computes the same design (bit for bit) and
    the same SINRs with one batched SVD and an FFT correlation.
    """
    k_sub = int(num_subcarriers)
    if k_sub < 1:
        raise ContractViolationError("num_subcarriers must be >= 1")
    if cp_length < 0:
        raise ContractViolationError("cp_length must be >= 0")
    if total_power <= 0 or noise_var <= 0:
        raise ContractViolationError("total_power and noise_var must be positive")
    paths = realization.path_set
    ts = realization.symbol_duration_s
    left, right, parent = _rank_one_components(realization, rank_tol)
    n_comp = left.shape[0]
    comp_doppler = paths.doppler_hz[parent]
    comp_delay = paths.delay_taps[parent]

    # coupling coefficients for every offset (periodic in delta with period K)
    offsets = np.arange(k_sub)
    coeff = ici_coefficient(comp_doppler[:, None], ts, k_sub, offsets[None, :])
    k_grid = np.arange(k_sub)
    # e^{-j 2 pi k m_c / K} ramps, one column per component
    ramp = np.exp(-2j * np.pi * np.outer(k_grid, comp_delay) / k_sub)
    desired_weight = ramp * coeff[:, 0][None, :]          # (K, C)

    desired = np.einsum(
        "kc,ca,cb->kab", desired_weight, left, right.conj(), optimize=True
    )

    # stacks with a slot for every possible stream, trimmed to r_max below
    r_cap = min(realization.num_rx, realization.num_tx)
    precoders = np.zeros((k_sub, realization.num_tx, r_cap), dtype=np.complex128)
    combiners = np.zeros((k_sub, realization.num_rx, r_cap), dtype=np.complex128)
    sing_values = np.zeros((k_sub, r_cap))
    ranks = np.zeros(k_sub, dtype=np.int64)
    for k in range(k_sub):
        u, s, v = svd_reduced(desired[k], rank_tol=rank_tol)
        r_k = s.size if num_streams is None else min(s.size, num_streams)
        ranks[k] = r_k
        combiners[k, :, :r_k] = u[:, :r_k]
        sing_values[k, :r_k] = s[:r_k]
        if r_k:
            precoders[k, :, :r_k] = v[:, :r_k] * math.sqrt(total_power / r_k)
    r_max = max(1, int(ranks.max()))
    precoders = precoders[:, :, :r_max]
    combiners = combiners[:, :, :r_max]
    sing_values = sing_values[:, :r_max]
    sinr = np.zeros((k_sub, r_max))

    if n_comp == 0 or not ranks.any():
        return OfdmResult(precoders, combiners, sing_values, sinr, ranks, 0.0)

    # receive- and transmit-side projections of every rank-one component
    u_proj = np.zeros((k_sub, r_max, n_comp), dtype=np.complex128)
    w_proj = np.zeros((k_sub, n_comp, r_max), dtype=np.complex128)
    for k in range(k_sub):
        r_k = ranks[k]
        if r_k == 0:
            continue
        u_proj[k, :r_k] = combiners[k, :, :r_k].conj().T @ left.T
        w_proj[k, :, :r_k] = right.conj() @ precoders[k, :, :r_k]
    gram = np.einsum("qci,qdi->qcd", w_proj, w_proj.conj())

    # phase tensor over (target k, source q, component): coupling times ramp
    idx = (k_grid[None, :] - k_grid[:, None]) % k_sub
    tphase = coeff[:, idx].transpose(1, 2, 0) * ramp[None, :, :]
    cross = np.einsum("kqc,kqd,qcd->kcd", tphase, tphase.conj(), gram, optimize=True)
    self_term = np.einsum(
        "kc,kd,kcd->kcd", desired_weight, desired_weight.conj(), gram
    )
    cross -= self_term
    ici_power = np.einsum(
        "kic,kid,kcd->ki", u_proj, u_proj.conj(), cross, optimize=True
    ).real
    ici_power = np.maximum(ici_power, 0.0)

    rate_sum = 0.0
    for k in range(k_sub):
        r_k = ranks[k]
        if r_k == 0:
            continue
        signal = total_power * sing_values[k, :r_k] ** 2 / r_k
        sinr[k, :r_k] = signal / (ici_power[k, :r_k] + noise_var)
        rate_sum += float(np.sum(np.log2(1.0 + sinr[k, :r_k])))
    overhead = k_sub / (k_sub + cp_length)
    rate = overhead * rate_sum / k_sub
    return OfdmResult(precoders, combiners, sing_values, sinr, ranks, rate)


def ofdm_ici_direct(realization: ChannelRealization, result: OfdmResult) -> np.ndarray:
    """ICI power on every stream slot of every subcarrier, summed directly.

    Forms each coupling H[k, q] F_q = sum_l c_l((q - k) mod K)
    e^{-j 2 pi q m_l / K} H_l F_q from the path matrices and adds
    |u_{k,i}^H H[k, q] F_q|^2 over the sources q != k. Every summand is
    non-negative and the q = k term is never formed, so the sum carries no
    cancellation at any SINR. Returns a (K, r_max) array, zero on the
    inactive slots, whose combiner columns are zero.
    """
    paths = realization.path_set
    k_sub = result.ranks.size
    grid = np.arange(k_sub)
    coeff = ici_coefficient(
        paths.doppler_hz[:, None], realization.symbol_duration_s, k_sub, grid[None, :]
    )
    ramp = np.exp(-2j * np.pi * np.outer(paths.delay_taps, grid) / k_sub)   # (L, K)
    path_precoded = np.einsum("lat,qtj->lqaj", realization.matrices, result.precoders)
    ici = np.zeros(result.sinr.shape)
    for k, u in enumerate(result.combiners):
        weight = coeff[:, (grid - k) % k_sub] * ramp
        coupled = np.einsum("lq,lqaj->qaj", weight, path_precoded)
        leak = np.abs(np.einsum("ai,qaj->qij", u.conj(), coupled)) ** 2
        ici[k] = np.delete(leak, k, axis=0).sum(axis=(0, 2))
    return ici


def ofdm_papr_frame_loop(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-subcarrier loop version of `experiments._ofdm_papr_frame`.

    Loads each subcarrier with its own precoder-times-symbols product
    instead of gathering all loaded streams in one pass.
    """
    paths = generate_paths(config, rng)
    realization = realize_channel(paths, config)
    result = ofdm_design_and_rate(
        realization,
        OFDM_SUBCARRIERS,
        config.max_delay_tap,
        config.tx_power_watts,
        config.noise_power_watts,
        num_streams=config.num_streams,
    )
    ranks = result.ranks
    symbols = qam_symbols(PAPR_MODULATION_ORDER, int(ranks.sum()), rng)
    loaded = np.zeros((OFDM_SUBCARRIERS, config.num_tx_antennas), dtype=np.complex128)
    start = 0
    for k, r_k in enumerate(ranks):
        stop = start + r_k
        if stop > start:
            loaded[k] = result.precoders[k, :, :r_k] @ symbols[start:stop]
        start = stop
    return np.fft.ifft(loaded, axis=0) * math.sqrt(OFDM_SUBCARRIERS)


def measure_beam_sinr(
    realization: ChannelRealization,
    design: StrongestPathDesign,
    timebase: Timebase,
    num_symbols: int = 4096,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Time-domain check of the strongest-path link: (desired, interference).

    Sends one Gaussian stream through the beamformer and the exact channel,
    derotates the dominant path's Doppler, and least-squares fits the
    combined output against the symbol stream at the dominant delay. The
    explained power is the desired part, the residual is multipath
    interference; both are noiseless, so the caller adds the noise floor.
    """
    gen = rng if rng is not None else np.random.default_rng(0)
    paths = realization.path_set
    m_dom = int(paths.delay_taps[design.dominant_path])
    margin = paths.max_delay_tap + 1
    if num_symbols <= 4 * margin:
        raise ContractViolationError("num_symbols too small for the sync margins")
    s = (
        gen.standard_normal(num_symbols) + 1j * gen.standard_normal(num_symbols)
    ) / math.sqrt(2.0)
    x = np.outer(s, design.precoder)
    r = apply_channel(realization, x, noise_std=0.0)
    n_idx = np.arange(num_symbols)
    derot = np.exp(
        -2j
        * np.pi
        * paths.doppler_hz[design.dominant_path]
        * n_idx
        * timebase.symbol_duration_s
    )
    y = (r @ design.combiner.conj()) * derot
    lo, hi = margin, num_symbols - margin
    ref = s[lo - m_dom : hi - m_dom]
    obs = y[lo:hi]
    coef = np.vdot(ref, obs) / np.vdot(ref, ref)
    desired = float(np.abs(coef) ** 2 * np.mean(np.abs(ref) ** 2))
    interference = float(np.mean(np.abs(obs - coef * ref) ** 2))
    return desired, interference
