"""Reference implementations that the tests compare the library against.

These are direct, dense or time-domain versions of quantities the package
computes more cheaply (or does not need at run time). They live here so the
library ships one implementation per quantity while the tests keep an
independent oracle for each. The channel realization JSON round trip at the
end has no package caller either; only the tests read and write it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from ddamsim.bcd import (
    POWER_BISECT_REL_TOL,
    bcd_solve,
    colored_noise_rate,
    group_delay_differences,
)
from ddamsim.benchmarks import (
    BEAM_OPT_MAX_ITERS,
    BEAM_OPT_TOL,
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
    PathSet,
    Timebase,
    apply_channel,
    array_response,
    coherence_partition,
    generate_paths,
    path_coordinates,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, FeasibilityError, NumericalError
from ddamsim.experiments import (
    CONVERGENCE_ITERATIONS,
    IMPERFECT_CSI_MODELS,
    OFDM_SUBCARRIERS,
    PAPR_MODULATION_ORDER,
    PAPR_THRESHOLDS_DB,
    TRANSMIT_ANTENNA_SWEEP,
    _alignment_overhead,
    _block_samples,
    _strongest_se,
    _zf_start,
)
from ddamsim.linalg import eig_hermitian, null_space_basis, svd_reduced
from ddamsim.metrics import (
    CsiError,
    exceedance_fractions,
    papr_db,
    perturb_csi,
    qam_symbols,
)
from ddamsim.zf import DdamDesign, build_ddam_tx, zf_design


# --- aligned-link rate and waveform (bcd, zf) ---------------------------------


def ddam_rate(
    blocks: np.ndarray,
    precoder: np.ndarray,
    combiner: np.ndarray,
    noise_var: float,
) -> float:
    """Achievable rate with residual ISI treated as colored Gaussian noise.

    blocks is the (K, M_r, L*M_t) antenna-width stack [Hbar, Gbar[i]...] of
    grouped_blocks_loop. log2 det(I + W^H Hbar Fbar Fbar^H Hbar^H W (W^H C
    W)^{-1}), evaluated stably as a difference of two log-determinants.
    """
    f_bar = np.asarray(precoder, dtype=np.complex128)
    w = np.asarray(combiner, dtype=np.complex128)
    if f_bar.shape[0] != blocks.shape[2]:
        raise ContractViolationError("precoder rows must equal L * M_t")
    if w.shape[0] != blocks.shape[1]:
        raise ContractViolationError("combiner rows must equal M_r")
    signal = w.conj().T @ (blocks[0] @ f_bar)
    cov_w = w.conj().T @ isi_covariance(blocks, f_bar, noise_var) @ w
    sign, logdet_cov = np.linalg.slogdet(cov_w)
    if sign.real <= 0 or not np.isfinite(logdet_cov):
        raise NumericalError("combined noise covariance is singular")
    sign2, logdet_full = np.linalg.slogdet(cov_w + signal @ signal.conj().T)
    if sign2.real <= 0:
        raise NumericalError("rate determinant is not positive")
    return float((logdet_full - logdet_cov) / math.log(2.0))


def isi_covariance(blocks: np.ndarray, precoder: np.ndarray, noise_var: float) -> np.ndarray:
    """C = sum_i Gbar[i] Fbar Fbar^H Gbar[i]^H + noise_var * I over the antenna-width blocks."""
    cov = noise_var * np.eye(blocks.shape[1], dtype=np.complex128)
    for block in blocks[1:]:
        out = block @ precoder
        cov += out @ out.conj().T
    return cov


def mmse_receiver_direct(
    blocks: np.ndarray, precoder: np.ndarray, noise_var: float
) -> np.ndarray:
    """W = (A A^H + C)^{-1} A with A = Hbar Fbar, solved directly on the antenna-width blocks.

    The library reaches the same filter as C^{-1} A Q^{-1} from the solve
    it already makes for the rate.
    """
    a = blocks[0] @ precoder
    return np.linalg.solve(a @ a.conj().T + isi_covariance(blocks, precoder, noise_var), a)


def ddam_rx_analytic(
    realization: ChannelRealization,
    design: DdamDesign,
    symbols: np.ndarray,
) -> np.ndarray:
    """Closed-form combined receive signal, term by term and phase exact.

    Path l of the channel applied to the transmit branch l' (aligned to the
    branch delay m'_l' and Doppler nu'_l') lands at lag kappa_l' + m_l,
    kappa_l' = max m' - m'_l', with coefficient
    W^H H_l F_l' exp(j*2*pi*(nu_l - nu'_l')*n*T_s) exp(j*2*pi*nu'_l'*(m_l - m'_l')*T_s).
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
    branch_delays = [int(m) for m in design.delay_taps]
    m_max = max(branch_delays)
    out = np.zeros((n_samples, w_h.shape[0]), dtype=np.complex128)
    for l in range(paths.num_paths):
        m_l = int(paths.delay_taps[l])
        for lp, m_lp in enumerate(branch_delays):
            lag = m_max - m_lp + m_l
            if lag >= n_samples:
                continue
            coef = w_h @ realization.matrices[l] @ design.precoders[lp]
            const = np.exp(2j * np.pi * design.doppler_hz[lp] * (m_l - m_lp) * ts)
            dnu = paths.doppler_hz[l] - design.doppler_hz[lp]
            rot = np.exp(2j * np.pi * dnu * n_idx[lag:] * ts) * const
            out[lag:] += (s[: n_samples - lag] @ coef.T) * rot[:, None]
    return out


def budgeted_precoder_bisect(
    vals: np.ndarray, vecs: np.ndarray, proj: np.ndarray, total_power: float
) -> np.ndarray:
    """Fbar(beta) = vecs diag(1 / (vals + beta)) proj under the power budget, by bisection.

    One member's version of the budget search in `bcd.precoder_update`:
    beta = 0 (pseudo-inverse on the eigenvalues above 1e-13 of the
    largest) if that fits the budget, otherwise beta is bisected until the
    power is on the feasible side of the budget and within
    POWER_BISECT_REL_TOL of it. The library takes safeguarded Newton steps
    instead.
    """
    vals = np.maximum(vals.real, 0.0)
    row_power = np.sum(np.abs(proj) ** 2, axis=1)
    active = vals > vals.max() * 1e-13 if vals.size else np.zeros(0, bool)

    def power_at(beta: float) -> float:
        if beta == 0.0:
            out = np.zeros_like(row_power)
            out[active] = row_power[active] / (vals[active] ** 2)
            return float(out.sum())
        return float(np.sum(row_power / ((vals + beta) ** 2)))

    def precoder_at(beta: float) -> np.ndarray:
        if beta == 0.0:
            scaled = np.zeros_like(proj)
            scaled[active] = proj[active] / vals[active, None]
            return vecs @ scaled
        return vecs @ (proj / (vals + beta)[:, None])

    if power_at(0.0) <= total_power:
        return precoder_at(0.0)
    lo, hi = 0.0, float(vals.sum()) / total_power + 1.0
    guard = 0
    while power_at(hi) > total_power:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise NumericalError("power bisection failed to bracket the budget")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = power_at(mid)
        if p > total_power:
            lo = mid
        elif p >= (1.0 - POWER_BISECT_REL_TOL) * total_power:
            return precoder_at(mid)
        else:
            hi = mid
    raise NumericalError("power bisection did not converge")


def precoder_update_dense(
    blocks: np.ndarray,
    combiner: np.ndarray,
    auxiliary: np.ndarray,
    total_power: float,
) -> np.ndarray:
    """Dense, one-member version of `bcd.precoder_update`.

    Forms the full (L*M_t) x (L*M_t) matrix `quad` block by block from the
    antenna-width blocks of grouped_blocks_loop and eigendecomposes it,
    instead of working in the coordinates of the stacked channel's
    adjoint, and meets the budget by bisection (`budgeted_precoder_bisect`)
    instead of Newton steps. Returns the (L*M_t, N_s) precoder on the
    antennas.
    """
    if total_power <= 0:
        raise ContractViolationError("total_power must be positive")
    w = np.asarray(combiner, dtype=np.complex128)
    q = np.asarray(auxiliary, dtype=np.complex128)
    q = 0.5 * (q + q.conj().T)
    wqw = w @ q @ w.conj().T
    h_bar = blocks[0]
    quad = h_bar.conj().T @ wqw @ h_bar
    for block in blocks[1:]:
        quad += block.conj().T @ wqw @ block
    rhs = h_bar.conj().T @ (w @ q)
    if not np.any(np.abs(rhs) > 0):
        return np.zeros((h_bar.shape[1], w.shape[1]), dtype=np.complex128)
    [vals], [vecs] = eig_hermitian(quad[None])
    return budgeted_precoder_bisect(vals, vecs, vecs.conj().T @ rhs, total_power)


def path_zf_precoder_bases_dense(matrices: np.ndarray) -> np.ndarray:
    """Dense version of `zf.path_zf_precoder_bases`.

    bases[l] spans the full orthogonal complement of the column space of
    [H_1^H, ..., H_{l-1}^H, H_{l+1}^H, ..., H_L^H], from one M_t x M_t SVD
    per path, instead of its part inside the channels' joint row space.
    Returns the (L, M_t, M_t) stack of the bases, each padded with zero
    columns as null_space_basis pads them. With a single path the full
    identity basis is returned.
    """
    num_paths, _, num_tx = matrices.shape
    if num_paths == 1:
        return np.eye(num_tx, dtype=np.complex128)[None]
    bases = []
    for l in range(num_paths):
        others = [matrices[k].conj().T for k in range(num_paths) if k != l]
        stack = np.concatenate(others, axis=1)
        [basis] = null_space_basis(stack[None])
        if not basis.any():
            raise FeasibilityError(
                f"path {l}: no interference-free transmit directions left "
                f"(M_t = {num_tx}, L = {num_paths})"
            )
        bases.append(basis)
    return np.array(bases)


def path_zf_precoder_bases_loop(coords: np.ndarray) -> np.ndarray:
    """Per-path loop version of `zf.path_zf_precoder_bases`.

    Takes one realization's (L, M_r, n) path coordinates C_l = H_l Q and
    cuts each path's other-path columns out of [C_1^H, ..., C_L^H] with
    np.delete, giving each its own null_space_basis call (a stack of one)
    instead of one batched SVD over all L paths. Returns the (L, n, n)
    stack of the padded bases in Q's coordinates.
    """
    num_paths, num_rx, width = coords.shape
    adjoints = np.concatenate(coords.conj().transpose(0, 2, 1), axis=1)
    bases = []
    for l in range(num_paths):
        others = np.delete(adjoints, np.s_[l * num_rx : (l + 1) * num_rx], axis=1)
        [reduced] = null_space_basis(others[None])
        if not reduced.any():
            raise FeasibilityError(
                f"path {l}: no interference-free transmit directions left "
                f"(n = {width}, L = {num_paths})"
            )
        bases.append(reduced)
    return np.array(bases)


def zf_pair_witness(
    matrices: np.ndarray, num_streams: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A ZF pair (W, F_l) for (L, M_r, M_t) path matrices, the proof of M_t >= L * N_s.

    W is a random M_r x N_s combiner with orthonormal columns. Each F_l is
    the first N_s columns of an orthonormal basis of the null space of the
    other paths' stacked W^H H_k, which has (L - 1) N_s rows, so for
    generic matrices there is room exactly when M_t >= L * N_s; then
    W^H H_k F_l = 0 for every k != l. Returns W and the (L, M_t, N_s) F_l.
    """
    num_paths, num_rx, num_tx = matrices.shape
    draw = rng.standard_normal((num_rx, num_streams)) + 1j * rng.standard_normal(
        (num_rx, num_streams)
    )
    combiner, _ = np.linalg.qr(draw)
    projected = combiner.conj().T @ matrices           # (L, N_s, M_t)
    precoders = []
    for l in range(num_paths):
        others = np.delete(projected, l, axis=0).reshape(-1, num_tx)
        basis = scipy.linalg.null_space(others) if len(others) else np.eye(num_tx)
        if basis.shape[1] < num_streams:
            raise FeasibilityError(f"path {l}: null space narrower than {num_streams} streams")
        precoders.append(basis[:, :num_streams])
    return combiner, np.array(precoders)


def build_ddam_tx_loop(
    design: DdamDesign, symbols: np.ndarray, timebase: Timebase
) -> np.ndarray:
    """Per-path loop version of `zf.build_ddam_tx`.

    Accumulates one (N, M_t) precoded, advanced, derotated stream per path,
    F_l s[n - kappa_l] exp(-j*2*pi*nu_l*(n + m_l)*T_s), instead of
    multiplying the stacked streams by the stacked precoders once.
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
    m_max = int(design.delay_taps.max())
    for l in range(design.num_paths):
        m_l = int(design.delay_taps[l])
        kappa = m_max - m_l
        if kappa >= n_samples:
            continue
        rot = np.exp(-2j * np.pi * design.doppler_hz[l] * (n_idx[kappa:] + m_l) * ts)
        x[kappa:] += (s[: n_samples - kappa] @ design.precoders[l].T) * rot[:, None]
    return x


def lag_pairs_loop(
    delays: np.ndarray,
    dopplers: np.ndarray,
    branch_delays: np.ndarray,
    branch_dopplers: np.ndarray,
    timebase: Timebase,
    block_indices: list[int],
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Dict version of one row of `bcd._lag_models`.

    Numbers the distinct offsets m^_l' - m_l in a dict, offset 0 first and
    the others as a row-major walk over the (branch, path) pairs meets
    them, instead of comparing every pair's offset with every other.
    Returns the offsets in slot order (as `GroupedChannels.offsets` holds
    them), each pair's slot and the pair phases.
    """
    offsets = branch_delays[:, None] - delays[None, :]
    n0 = np.asarray(block_indices) * timebase.samples_per_coherence
    drift = (dopplers[None, :] - branch_dopplers[:, None]) * n0[:, None, None]
    phases = np.exp(
        2j * np.pi * (drift - branch_dopplers[:, None] * offsets) * timebase.symbol_duration_s
    )
    slot: dict[int, int] = {0: 0}
    for offset in offsets.ravel().tolist():
        slot.setdefault(offset, len(slot))
    pair_slot = np.array([[slot[offset] for offset in row] for row in offsets.tolist()])
    return list(slot), pair_slot, phases


def grouped_blocks_loop(
    realization: ChannelRealization,
    timebase: Timebase,
    block_index: int,
    path_coords: bool = False,
) -> tuple[list[int], np.ndarray]:
    """Pair-loop version of `bcd.group_delay_differences`' offsets and blocks.

    Takes the offsets, pair slots and phases of lag_pairs_loop with the
    branches aligned to the true paths, and adds each pair (l', l)'s
    H_l * phase to branch l''s columns of its offset's block, one pair at a
    time, instead of scattering all pairs at once. The blocks are
    antenna-width, (K, M_r, L*M_t), the dense BCD oracles' input; with
    path_coords they scatter the path coordinates C_l in place of
    H_l, as the library does, into (K, M_r, L*n) blocks.
    """
    paths = realization.path_set
    delays, dopplers = paths.delay_taps, paths.doppler_hz
    offsets, pair_slot, phases = lag_pairs_loop(
        delays, dopplers, delays, dopplers, timebase, [block_index]
    )
    mats = realization.path_coords if path_coords else realization.matrices
    num_paths, num_rx, num_tx = mats.shape
    blocks = np.zeros((len(offsets), num_rx, num_paths * num_tx), dtype=np.complex128)
    for lp in range(num_paths):
        for l in range(num_paths):
            term = mats[l] * phases[0, lp, l]
            blocks[pair_slot[lp, l], :, lp * num_tx : (lp + 1) * num_tx] += term
    return offsets, blocks


def mismatched_alignment_rate_loop(
    realization: ChannelRealization,
    design: DdamDesign,
    aligned_lag: int,
    noise_var: float,
    timebase: Timebase,
    block_indices: list[int],
) -> float:
    """Pair-loop version of `experiments.mismatched_alignment_rate`.

    Rates one design aligned to one estimate. Propagates every (true path,
    transmit branch) pair through the transmit chain, sums the composite
    M_r x N_s coefficients H_l F_l' per arrival lag kappa_l' + m_l with
    their exact phases (see ddam_rx_analytic) frozen at each block start,
    and treats every lag other than aligned_lag as colored noise, instead
    of grouping the channels by delay offset and rating the pair outputs
    in one stacked call.
    """
    paths = realization.path_set
    ts = timebase.symbol_duration_s
    branch_delays = [int(m) for m in design.delay_taps]
    m_max = max(branch_delays)
    rates = []
    for block in block_indices:
        n0 = block * timebase.samples_per_coherence
        groups: dict[int, np.ndarray] = {}
        for l in range(paths.num_paths):
            m_l = int(paths.delay_taps[l])
            for lp, m_lp in enumerate(branch_delays):
                lag = m_max - m_lp + m_l
                nu_lp = design.doppler_hz[lp]
                drift = (paths.doppler_hz[l] - nu_lp) * n0
                phase = np.exp(2j * np.pi * (drift + nu_lp * (m_l - m_lp)) * ts)
                term = (realization.matrices[l] @ design.precoders[lp]) * phase
                groups[lag] = groups[lag] + term if lag in groups else term
        desired = groups.pop(
            aligned_lag, np.zeros((realization.num_rx, design.num_streams), dtype=np.complex128)
        )
        interferers = np.array(list(groups.values())).reshape(1, len(groups), *desired.shape)
        [rate], _, _ = colored_noise_rate(desired[None], interferers, noise_var)
        rates.append(rate)
    return float(np.mean(rates))


def imperfect_csi_trial_loop(config: SystemConfig, rng: np.random.Generator) -> list:
    """Per-estimate version of one trial of `experiments._imperfect_csi_chunk`.

    Realizes the channel of every CSI model's estimated paths, builds its
    zero-forcing alignment design from scratch and rates it against the
    true channel with the pair loop `mismatched_alignment_rate_loop`,
    instead of rating every estimate against the pair outputs of the one
    spatial design of the true channel in one stacked call.
    """
    paths = generate_paths(config, rng)
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    noise = config.noise_power_watts
    estimates = [
        (scheme, perturb_csi(paths, CsiError(accuracy, coeff), rng)[0])
        for scheme, accuracy, coeff in IMPERFECT_CSI_MODELS
    ]
    records = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        true_realization = realize_channel(paths, cfg)
        for scheme, est_paths in estimates:
            est_realization = realize_channel(est_paths, cfg)
            design, _ = zf_design(est_realization, cfg.tx_power_watts, noise, cfg.num_streams)
            rate = mismatched_alignment_rate_loop(
                true_realization,
                design,
                est_paths.max_delay_tap,
                noise,
                timebase,
                _block_samples(timebase),
            )
            records.append((scheme, "mt", float(mt), "se_bps_hz", rate * (1.0 - overhead)))
    return records


def ofdm_se(realization: ChannelRealization, config: SystemConfig) -> float:
    """One realization's OFDM SE: its own `ofdm_design_and_rate` call at the config's power."""
    return ofdm_design_and_rate(
        realization,
        OFDM_SUBCARRIERS,
        config.max_delay_tap,
        config.tx_power_watts,
        config.noise_power_watts,
        num_streams=config.num_streams,
    ).rate_bps_hz


def convergence_trial_loop(config: SystemConfig, rng: np.random.Generator) -> list:
    """Per-trial version of one trial of `experiments._convergence_chunk`.

    Realizes and zero-forcing designs the trial's channel alone and runs
    its own `bcd_solve` from its random start, instead of the chunk's
    stacked stages and its one stacked BCD solve, and pads the rate trace
    to CONVERGENCE_ITERATIONS entries as the chunk does.
    """
    paths = generate_paths(config, rng)
    power, noise, streams = config.tx_power_watts, config.noise_power_watts, config.num_streams
    dim = config.num_paths * config.num_tx_antennas
    raw = rng.standard_normal((dim, streams)) + 1j * rng.standard_normal((dim, streams))
    init = raw * math.sqrt(power) / np.linalg.norm(raw)
    realization = realize_channel(paths, config)
    _, zf_result = zf_design(realization, power, noise, streams)
    state = bcd_solve(
        group_delay_differences(realization, coherence_partition(config), 0),
        power,
        noise,
        init,
        tol=0.0,
        max_iters=CONVERGENCE_ITERATIONS,
    )
    trace = list(state.rate_trace)
    trace += trace[-1:] * (CONVERGENCE_ITERATIONS - len(trace))
    records = []
    for i, rate in enumerate(trace[:CONVERGENCE_ITERATIONS]):
        for scheme, value in (("ddam-bcd", rate), ("ddam-zf", zf_result.rate_bps_hz)):
            records.append((scheme, "iteration", float(i + 1), "rate_bps_hz", value))
    return records


def se_vs_mt_trial_loop(config: SystemConfig, rng: np.random.Generator) -> list:
    """Per-realization version of one trial of `experiments._se_vs_mt_chunk`.

    Realizes, designs and OFDM-rates each array size alone and runs
    `bcd_solve` once per array size and coherence block, each a stack of
    one, instead of the chunk's stacked stages and its one stacked BCD
    solve, and averages each array size's blocks as the chunk does.
    """
    paths = generate_paths(config, rng)
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    records = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        realization = realize_channel(paths, cfg)
        design, zf_result = zf_design(
            realization, cfg.tx_power_watts, cfg.noise_power_watts, cfg.num_streams
        )
        start = _zf_start(design, cfg.num_streams)
        rates = [
            bcd_solve(
                group_delay_differences(realization, timebase, block),
                cfg.tx_power_watts,
                cfg.noise_power_watts,
                start,
                tol=1e-4,
                max_iters=60,
            ).rate_trace[-1]
            for block in _block_samples(timebase)
        ]
        values = {
            "ddam-zf": zf_result.rate_bps_hz * (1.0 - overhead),
            "ddam-bcd": float(np.mean(rates)) * (1.0 - overhead),
            "ofdm": ofdm_se(realization, cfg),
            "strongest-path": _strongest_se(realization, cfg, overhead),
        }
        records += [(scheme, "mt", float(mt), "se_bps_hz", v) for scheme, v in values.items()]
    return records


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


def otfs_beam_opt_dense(
    realization: ChannelRealization, config: OtfsConfig
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Antenna-width version of `benchmarks.otfs_beam_opt`.

    The same alternating sweeps and stopping rule, but the transmit step
    eigendecomposes the full M_t x M_t quadratic form built from the path
    matrices, instead of its n x n form in the realization's path
    coordinates.
    """
    mats = realization.matrices
    i_taps, j_taps = config.delay_taps, config.doppler_taps
    overlap = config.grid_size * (
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
        [vals], [vecs] = eig_hermitian((b_rows.conj().T @ overlap @ b_rows)[None])
        if vals[0] <= 0:
            break
        f = vecs[:, 0]
        c_cols = np.einsum("lrt,t->lr", mats, f)               # row l = H_l f
        [vals], [vecs] = eig_hermitian((c_cols.T @ overlap @ c_cols.conj())[None])
        if vals[0] <= 0:
            break
        v = vecs[:, 0]
        trace.append(gain(f, v))
        if trace[-1] - trace[-2] <= BEAM_OPT_TOL * max(abs(trace[-2]), 1e-30):
            break
    return f, v, trace


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
) -> OfdmResult:
    """Per-subcarrier loop version of `ofdm_design_and_rate`.

    One `svd_reduced` call per subcarrier (a stack of one) on the full
    M_r x M_t desired matrix, and the ICI sum contracted over a (K, K, C) phase tensor whose
    q = k (desired) slots are zero, so only the sources q != k enter. The library
    computes the same design, LAPACK's singular-vector phases included,
    up to rounding from one batched SVD of compressed channels, and the
    same SINRs with an FFT correlation. num_streams = None leaves the
    ranks uncapped; the library always takes a cap, and a cap of M_r is
    the same since no rank exceeds M_r. The full (K, M_t, r_max) precoder
    stack comes back as `precoder_coords` with the identity as
    `antenna_basis`, so `ofdm_precoder_stack` reads both results alike.
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
    [left], [right], [parent], _ = _rank_one_components(realization.matrices[None])
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
        [u], [s], [v] = svd_reduced(desired[k : k + 1])
        rank = int(np.count_nonzero(s))
        r_k = rank if num_streams is None else min(rank, num_streams)
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

    basis = np.eye(realization.num_tx, dtype=np.complex128)
    if n_comp == 0 or not ranks.any():
        return OfdmResult(precoders, basis, combiners, sing_values, sinr, ranks, 0.0)

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

    # phase tensor over (target k, source q, component): coupling times ramp,
    # with the q = k (desired) source left out, so the sum has no cancellation
    idx = (k_grid[None, :] - k_grid[:, None]) % k_sub
    tphase = coeff[:, idx].transpose(1, 2, 0) * ramp[None, :, :]
    tphase[k_grid, k_grid] = 0.0
    cross = np.einsum("kqc,kqd,qcd->kcd", tphase, tphase.conj(), gram, optimize=True)
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
    return OfdmResult(precoders, basis, combiners, sing_values, sinr, ranks, rate)


def ofdm_precoder_stack(result: OfdmResult) -> np.ndarray:
    """The (K, M_t, r_max) precoder stack of a factored `OfdmResult`."""
    return result.antenna_basis @ result.precoder_coords


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
    path_precoded = np.einsum(
        "lat,qtj->lqaj", realization.matrices, ofdm_precoder_stack(result)
    )
    ici = np.zeros(result.sinr.shape)
    for k, u in enumerate(result.combiners):
        weight = coeff[:, (grid - k) % k_sub] * ramp
        coupled = np.einsum("lq,lqaj->qaj", weight, path_precoded)
        leak = np.abs(np.einsum("ai,qaj->qij", u.conj(), coupled)) ** 2
        ici[k] = np.delete(leak, k, axis=0).sum(axis=(0, 2))
    return ici


def ofdm_papr_frame_loop(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-subcarrier loop version of fig8's OFDM frame (`experiments._ofdm_frame`).

    Loads each subcarrier with its own M_t-antenna precoder-times-symbols
    product and takes the IFFT over all M_t antennas, instead of gathering
    all loaded streams in one pass in W dimensions and mapping the IFFT to
    the antennas afterwards.
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
    precoders = ofdm_precoder_stack(result)
    symbols = qam_symbols(PAPR_MODULATION_ORDER, int(ranks.sum()), rng)
    loaded = np.zeros((OFDM_SUBCARRIERS, config.num_tx_antennas), dtype=np.complex128)
    start = 0
    for k, r_k in enumerate(ranks):
        stop = start + r_k
        if stop > start:
            loaded[k] = precoders[k, :, :r_k] @ symbols[start:stop]
        start = stop
    return np.fft.ifft(loaded, axis=0) * math.sqrt(OFDM_SUBCARRIERS)


def ddam_papr_frame_loop(
    config: SystemConfig, rng: np.random.Generator, num_samples: int
) -> np.ndarray:
    """One aligned frame of fig8 from its own draws: paths, design, then its QAM payload."""
    paths = generate_paths(config, rng)
    realization = realize_channel(paths, config)
    timebase = coherence_partition(config)
    design, _ = zf_design(
        realization, config.tx_power_watts, config.noise_power_watts, config.num_streams
    )
    # lead-in long enough to pass the delay pre-compensation transient
    lead = 2 * config.max_delay_tap
    symbols = qam_symbols(
        PAPR_MODULATION_ORDER, (num_samples + lead, config.num_streams), rng
    )
    frame = build_ddam_tx(design, symbols, timebase)
    return frame[lead:]


def _ofdm_papr_frame(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """fig8's OFDM frame from its own realization and `ofdm_design_and_rate` call."""
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
    # one draw for every loaded stream, scattered in subcarrier order
    symbols = np.zeros(result.sinr.shape, dtype=np.complex128)
    symbols[np.arange(symbols.shape[1]) < ranks[:, None]] = qam_symbols(
        PAPR_MODULATION_ORDER, int(ranks.sum()), rng
    )
    loaded = np.einsum("kwr,kr->kw", result.precoder_coords, symbols)
    frame = np.fft.ifft(loaded, axis=0) * math.sqrt(OFDM_SUBCARRIERS)
    return frame @ result.antenna_basis.T


def papr_trial_loop(config: SystemConfig, rng: np.random.Generator) -> list:
    """Per-trial version of fig8's chunk evaluator `experiments._papr_chunk`.

    Builds one trial's three frames with one realization, design and draw
    each, every draw taken right before its frame: the 3-path aligned
    frame, the 5-path one, then the OFDM frame, whose design is rated too.
    The chunk evaluator draws the same values from the trial's generator
    and stacks the realizations and designs of the whole chunk.
    """
    frames = {
        "ddam-l3": ddam_papr_frame_loop(replace(config, num_paths=3), rng, OFDM_SUBCARRIERS),
        "ddam-l5": ddam_papr_frame_loop(replace(config, num_paths=5), rng, OFDM_SUBCARRIERS),
        "ofdm": _ofdm_papr_frame(config, rng),
    }
    records = []
    for scheme, frame in frames.items():
        values, _ = papr_db(frame)
        fracs = exceedance_fractions(values, PAPR_THRESHOLDS_DB)
        for threshold, frac in zip(PAPR_THRESHOLDS_DB, fracs):
            records.append((scheme, "threshold_db", float(threshold), "ccdf", float(frac)))
    return records


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
    r = apply_channel(realization, x)
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


# --- imperfect CSI draws (metrics) -------------------------------------------


def perturb_csi_loop(
    paths: PathSet, err: CsiError, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path version of one row of `metrics.draw_csi`.

    Returns one model's estimated delays, Dopplers and indicator flags.
    Moves each chosen path by trying the candidate taps one at a time
    against the current delay array, instead of a set of taken taps.
    """
    num_paths = paths.num_paths
    num_wrong = int(math.floor((1.0 - err.delay_accuracy) * num_paths + 1e-9))
    indicator = np.ones(num_paths, dtype=np.int64)
    delays = paths.delay_taps.copy()
    if num_wrong > 0:
        chosen = rng.choice(num_paths, size=num_wrong, replace=False)
        for idx in chosen:
            sign = 1 if rng.integers(0, 2) else -1
            moved = False
            for magnitude in range(1, paths.delay_tap_bound + 2):
                for offset in (sign * magnitude, -sign * magnitude):
                    cand = int(delays[idx]) + offset
                    if 0 <= cand <= paths.delay_tap_bound and cand not in delays:
                        delays[idx] = cand
                        moved = True
                        break
                if moved:
                    break
            if moved:
                indicator[idx] = 0
    bound = paths.doppler_bound_hz
    doppler = paths.doppler_hz.copy()
    if err.doppler_error_coeff > 0 and bound > 0:
        std = err.doppler_error_coeff * bound / math.sqrt(2.0)
        doppler = doppler + std * rng.standard_normal(num_paths)
    return delays, doppler, indicator


# --- PAPR CCDF (metrics) ------------------------------------------------------


@dataclass
class PaprCcdf:
    """Complementary CDF of per-antenna PAPR over a batch of frames."""

    thresholds_db: np.ndarray
    ccdf: np.ndarray           # fraction of (antenna, frame) values above each threshold
    num_values: int
    num_excluded: int          # antennas skipped for carrying no power


def papr_ccdf(frames, thresholds_db) -> PaprCcdf:
    """CCDF of PAPR over every (antenna, frame) pair.

    frames may be a single 2-D frame, a 3-D stack of frames, or any
    iterable of 2-D frames. The CCDF is non-increasing in the threshold by
    construction. fig8 computes its CCDF from `papr_db` and
    `exceedance_fractions` directly.
    """
    thresholds = np.asarray(thresholds_db, dtype=np.float64)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise ContractViolationError("thresholds_db must be a non-empty 1-D array")
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        frames = [frames]
    values = []
    excluded = 0
    for frame in frames:
        v, skipped = papr_db(frame)
        values.append(v)
        excluded += skipped
    if not values:
        raise ContractViolationError("papr_ccdf needs at least one frame")
    flat = np.concatenate(values)
    if flat.size == 0:
        raise ContractViolationError("every antenna was excluded for zero power")
    return PaprCcdf(
        thresholds_db=thresholds,
        ccdf=exceedance_fractions(flat, thresholds),
        num_values=int(flat.size),
        num_excluded=excluded,
    )


def papr_exceedance_db(ccdf: PaprCcdf, level: float) -> float:
    """Smallest threshold whose CCDF drops to the given level or below."""
    hit = np.nonzero(ccdf.ccdf <= level)[0]
    if hit.size == 0:
        return float("inf")
    return float(ccdf.thresholds_db[hit[0]])


# --- channel realization JSON round trip (channel) ---------------------------
#
# A serialization of ChannelRealization that only the tests use. Schema
# (version 1):
# {
#   "schema": "ddamsim/channel-realization/v1",
#   "symbol_duration_s": float,
#   "doppler_bound_hz": float,
#   "delay_tap_bound": int,
#   "paths": [
#     {"gain": [re, im], "aoa_rad": float, "aod_rad": float,
#      "delay_tap": int, "doppler_hz": float},
#     ...
#   ],
#   "matrices": [[[[re, im], ...], ...], ...]   # L x M_r x M_t entries
# }

REALIZATION_SCHEMA = "ddamsim/channel-realization/v1"


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def realization_to_json(realization: ChannelRealization) -> str:
    """One realization as a JSON document of the schema above."""
    paths = realization.path_set
    doc = {
        "schema": REALIZATION_SCHEMA,
        "symbol_duration_s": realization.symbol_duration_s,
        "doppler_bound_hz": paths.doppler_bound_hz,
        "delay_tap_bound": paths.delay_tap_bound,
        "paths": [
            {
                "gain": _complex_to_pair(paths.gains[l]),
                "aoa_rad": float(paths.aoa_rad[l]),
                "aod_rad": float(paths.aod_rad[l]),
                "delay_tap": int(paths.delay_taps[l]),
                "doppler_hz": float(paths.doppler_hz[l]),
            }
            for l in range(paths.num_paths)
        ],
        "matrices": [
            [[_complex_to_pair(v) for v in row] for row in mat]
            for mat in realization.matrices
        ],
    }
    return json.dumps(doc)


def _finite_array(value, name: str, ndim: int, kinds: str = "iuf") -> np.ndarray:
    """value as an ndim-D array of finite numbers of the given dtype kinds."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ContractViolationError(f"{name} is ragged") from None
    if arr.ndim != ndim or arr.dtype.kind not in kinds or not np.all(np.isfinite(arr)):
        what = "integers" if kinds == "iu" else "numbers"
        raise ContractViolationError(f"{name} must be a {ndim}-D array of finite {what}")
    return arr


def realization_from_json(text: str) -> ChannelRealization:
    """Read and validate a realization written by `realization_to_json`.

    Invalid JSON, another schema, a missing field, a ragged or misshapen
    array, a non-numeric or non-finite number and a fractional tap all
    raise ContractViolationError, as does anything PathSet rejects.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ContractViolationError(f"channel realization is not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else doc
    if schema != REALIZATION_SCHEMA:
        raise ContractViolationError(f"expected schema {REALIZATION_SCHEMA}, got {schema!r}")
    try:
        path_docs = doc["paths"]
        gains = _finite_array([p["gain"] for p in path_docs], "gain", 2)
        angles = [_finite_array([p[k] for p in path_docs], k, 1) for k in ("aoa_rad", "aod_rad")]
        delays = _finite_array([p["delay_tap"] for p in path_docs], "delay_tap", 1, "iu")
        doppler = _finite_array([p["doppler_hz"] for p in path_docs], "doppler_hz", 1)
        mats = _finite_array(doc["matrices"], "matrices", 4)
        symbol_s = _finite_array(doc["symbol_duration_s"], "symbol_duration_s", 0)
        bound_hz = _finite_array(doc["doppler_bound_hz"], "doppler_bound_hz", 0)
        tap_bound = _finite_array(doc["delay_tap_bound"], "delay_tap_bound", 0, "iu")
    except (KeyError, TypeError) as exc:
        raise ContractViolationError(f"malformed channel realization: {exc!r}") from None
    if gains.shape[1] != 2 or mats.shape[-1] != 2:
        raise ContractViolationError("gains and matrix entries must be [re, im] pairs")
    paths = PathSet(
        gains=gains[:, 0] + 1j * gains[:, 1],
        aoa_rad=angles[0],
        aod_rad=angles[1],
        delay_taps=delays,
        doppler_hz=doppler,
        doppler_bound_hz=float(bound_hz),
        delay_tap_bound=int(tap_bound),
    )
    matrices = mats[..., 0] + 1j * mats[..., 1]
    [basis], [coords] = path_coordinates(matrices[None])
    return ChannelRealization(paths, matrices, float(symbol_s), basis, coords)


def realization_with_matrices(
    realization: ChannelRealization, matrices: np.ndarray
) -> ChannelRealization:
    """The realization with other path matrices and the path basis path_coordinates gives them."""
    matrices = np.asarray(matrices, dtype=np.complex128)
    [basis], [coords] = path_coordinates(matrices[None])
    return replace(realization, matrices=matrices, path_basis=basis, path_coords=coords)
