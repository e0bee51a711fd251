"""Interference-aware alignment design via MMSE block-coordinate descent.

When perfect nulling is impossible or wasteful, the precoders are chosen to
maximize the achievable rate of the aligned channel with residual
inter-path interference treated as colored noise. Within one Doppler
coherence block the residual rotations are constant, so the received
signal collapses to

    y[n] = W^H Hbar Fbar s[n - m_max] + sum_i W^H Gbar[i] Fbar s[n - m_max + i] + noise

with Hbar = [H_1, ..., H_L] and Gbar[i] collecting, per transmit branch,
the path whose delay differs by exactly i taps (phase-rotated by the
branch/path Doppler difference over the block). The rate of that channel
is maximized by alternating closed-form updates of the receive filter, a
weighting matrix and the stacked precoder (a weighted-MMSE scheme); each
step is a coordinate ascent so the rate trace never decreases.

The precoder step is the closed-form WMMSE update (Shi, Razaviyayn, Luo
and He, IEEE TSP 2011). Its solution lies in the range of the adjoint of
the stacked channels [Hbar; Gbar[i]...], which has at most
M_r * (1 + #offsets) dimensions however large L * M_t is, so the update
works in an orthonormal basis of that range and its cost barely grows
with the array size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, Timebase
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .linalg import eig_hermitian
from .zf import FeasibilityVerdict, zf_feasibility, zf_spatial_design

POWER_BISECT_REL_TOL = 1e-12


@dataclass
class GroupedChannels:
    """Aligned desired channel plus ISI channels grouped by delay difference."""

    stacked_channel: np.ndarray        # Hbar, shape (M_r, L * M_t)
    isi_channels: dict[int, np.ndarray]  # delay offset -> Gbar[i], same shape
    block_index: int
    num_paths: int
    num_tx: int

    def __post_init__(self) -> None:
        self.stacked_channel = np.asarray(self.stacked_channel, dtype=np.complex128)
        if self.stacked_channel.shape[1] != self.num_paths * self.num_tx:
            raise ContractViolationError("stacked channel width must be L * M_t")
        if 0 in self.isi_channels:
            raise ContractViolationError("delay offset 0 belongs to the desired channel")

    @property
    def num_rx(self) -> int:
        return int(self.stacked_channel.shape[0])


@dataclass
class BcdState:
    """Converged (or truncated) state of the alternating optimization."""

    precoder: np.ndarray       # Fbar, shape (L * M_t, N_s)
    combiner: np.ndarray       # W, shape (M_r, N_s)
    auxiliary: np.ndarray      # weighting matrix Q, shape (N_s, N_s)
    rate_trace: list[float]
    converged: bool
    n_iterations: int


def group_delay_differences(
    realization: ChannelRealization, timebase: Timebase, block_index: int
) -> GroupedChannels:
    """Regroup the per-path channels by delay difference for one block.

    Branch l' of Gbar[i] holds H_l rotated by the Doppler difference
    nu_l - nu_l' accumulated over block_index coherence blocks, where l is
    the (unique, delays being distinct) path whose delay differs from path
    l' by i taps. Offsets that no path pair produces are simply absent
    from the map; with one path the map is empty.
    """
    if block_index < 0:
        raise ContractViolationError("block_index must be non-negative")
    paths = realization.path_set
    num_paths = paths.num_paths
    num_rx, num_tx = realization.num_rx, realization.num_tx
    stacked = realization.matrices.transpose(1, 0, 2).reshape(num_rx, num_paths * num_tx)
    isi: dict[int, np.ndarray] = {}
    ts = timebase.symbol_duration_s
    block_s = block_index * timebase.samples_per_coherence * ts
    delays = paths.delay_taps
    for lp in range(num_paths):
        for l in range(num_paths):
            if l == lp:
                continue
            offset = int(delays[lp] - delays[l])
            dnu = paths.doppler_hz[l] - paths.doppler_hz[lp]
            phase = np.exp(2j * np.pi * dnu * block_s)
            block = isi.setdefault(
                offset, np.zeros((num_rx, num_paths * num_tx), dtype=np.complex128)
            )
            block[:, lp * num_tx : (lp + 1) * num_tx] = realization.matrices[l] * phase
    return GroupedChannels(
        stacked_channel=stacked,
        isi_channels=isi,
        block_index=block_index,
        num_paths=num_paths,
        num_tx=num_tx,
    )


def _noise_plus_interference(
    num_rx: int, interferers, noise_var: float
) -> np.ndarray:
    """C = noise_var * I + sum_B B B^H over the interfering M_r x N_s blocks."""
    cov = noise_var * np.eye(num_rx, dtype=np.complex128)
    for block in interferers:
        cov += block @ block.conj().T
    return cov


def interference_covariance(
    grouped: GroupedChannels, precoder: np.ndarray, noise_var: float
) -> np.ndarray:
    """C = sum_i Gbar[i] Fbar Fbar^H Gbar[i]^H + noise_var * I."""
    return _noise_plus_interference(
        grouped.num_rx,
        (block @ precoder for block in grouped.isi_channels.values()),
        noise_var,
    )


def colored_noise_rate(
    desired: np.ndarray, interferers, noise_var: float
) -> tuple[float, np.ndarray]:
    """Rate of the desired M_r x N_s channel with interference as colored noise.

    Returns log2 det(Q) and Q = I + A^H C^{-1} A, where A is the desired
    channel and C the colored-noise covariance of the interfering blocks.
    Q is the inverse MMSE matrix of the optimal (MMSE) receiver, so its
    log-determinant is the achievable rate.
    """
    cov = _noise_plus_interference(desired.shape[0], interferers, noise_var)
    try:
        cinv_a = np.linalg.solve(cov, desired)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interference covariance solve failed: {exc}") from exc
    q = np.eye(desired.shape[1], dtype=np.complex128) + desired.conj().T @ cinv_a
    q = 0.5 * (q + q.conj().T)
    sign, logdet = np.linalg.slogdet(q)
    if sign.real <= 0:
        raise NumericalError("weight matrix lost positive definiteness")
    return float(logdet / math.log(2.0)), q


def mmse_receiver(
    grouped: GroupedChannels, precoder: np.ndarray, noise_var: float
) -> np.ndarray:
    """W = (Hbar Fbar Fbar^H Hbar^H + C)^{-1} Hbar Fbar."""
    f_bar = np.asarray(precoder, dtype=np.complex128)
    a = grouped.stacked_channel @ f_bar
    total = a @ a.conj().T + interference_covariance(grouped, f_bar, noise_var)
    try:
        return np.linalg.solve(total, a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"MMSE receive filter solve failed: {exc}") from exc


def precoder_update(
    grouped: GroupedChannels,
    combiner: np.ndarray,
    auxiliary: np.ndarray,
    total_power: float,
) -> np.ndarray:
    """Power-constrained closed-form precoder for fixed receiver and weights.

    Fbar(beta) = (Hbar^H W Q W^H Hbar + sum_i Gbar[i]^H W Q W^H Gbar[i]
    + beta I)^{-1} Hbar^H W Q, with beta = 0 if the unconstrained solution
    already fits the budget and otherwise bisected so the power constraint
    is met from below within POWER_BISECT_REL_TOL (complementary
    slackness). At beta = 0 the inverse is the pseudo-inverse.

    The (L*M_t) x (L*M_t) matrix in brackets is never formed. With
    B = [Hbar; Gbar[i]...] it equals B^H (I_blocks (x) W Q W^H) B, and the
    right-hand side lies in range(B^H), so every Fbar(beta) does too. A
    thin QR B^H = U R (U orthonormal, at most M_r * (1 + #offsets)
    columns) turns the update into an eigendecomposition of
    S = sum_j R_j W Q W^H R_j^H, where R_j holds R's columns of block j;
    this is exact, not an approximation.
    """
    if total_power <= 0:
        raise ContractViolationError("total_power must be positive")
    w = np.asarray(combiner, dtype=np.complex128)
    q = np.asarray(auxiliary, dtype=np.complex128)
    q = 0.5 * (q + q.conj().T)
    wqw = w @ q @ w.conj().T
    h_bar = grouped.stacked_channel
    num_rx = grouped.num_rx
    blocks = [h_bar, *grouped.isi_channels.values()]
    basis, tri = np.linalg.qr(np.vstack(blocks).conj().T)
    coords = [tri[:, j * num_rx : (j + 1) * num_rx] for j in range(len(blocks))]
    quad = sum(r_j @ wqw @ r_j.conj().T for r_j in coords)
    rhs = coords[0] @ (w @ q)
    if not np.any(np.abs(rhs) > 0):
        return np.zeros((h_bar.shape[1], w.shape[1]), dtype=np.complex128)
    vals, sub_vecs = eig_hermitian(quad, herm_tol=1e-8)
    return _budgeted_precoder(vals, basis @ sub_vecs, sub_vecs.conj().T @ rhs, total_power)


def _budgeted_precoder(
    vals: np.ndarray, vecs: np.ndarray, proj: np.ndarray, total_power: float
) -> np.ndarray:
    """Fbar(beta) = vecs diag(1 / (vals + beta)) proj under the power budget.

    vals/vecs are the eigenpairs of the precoder step's quadratic term and
    proj the right-hand side in that eigenbasis. beta = 0 (pseudo-inverse)
    if that fits the budget; otherwise beta is bisected until the power is
    on the feasible side of the budget and within POWER_BISECT_REL_TOL of
    it. Stopping only there keeps each step an ascent step up to rounding:
    a power left below the budget would cost rate at a fixed point.
    """
    vals = np.maximum(vals.real, 0.0)
    row_power = np.sum(np.abs(proj) ** 2, axis=1)
    # at beta = 0 the inverse acts as a pseudo-inverse on the zero eigenspace
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


def _weighted_rate(
    grouped: GroupedChannels, precoder: np.ndarray, noise_var: float
) -> tuple[float, np.ndarray]:
    """Rate at the MMSE receiver plus the matching weight matrix Q.

    The log-determinant of Q is what the alternating scheme monotonically
    increases.
    """
    return colored_noise_rate(
        grouped.stacked_channel @ precoder,
        [block @ precoder for block in grouped.isi_channels.values()],
        noise_var,
    )


def bcd_solve(
    grouped: GroupedChannels,
    total_power: float,
    noise_var: float,
    num_streams: int,
    tol: float = 1e-4,
    max_iters: int = 200,
    init_precoder: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> BcdState:
    """Alternate receiver / weights / precoder until the rate stalls.

    Initialization uses the zero-forcing design when it is feasible for
    the block's dimensions (padding with zero columns if it carries fewer
    active streams), otherwise a random precoder scaled to the power
    budget. Convergence is declared when the fractional rate increase
    drops below tol; the trace of per-iteration rates is returned and is
    non-decreasing up to numerical slack. Whether the solver converged or
    stopped at max_iters, the returned precoder, combiner and weights are
    the ones rate_trace[-1] was evaluated at.
    """
    if num_streams < 1:
        raise ContractViolationError("num_streams must be >= 1")
    if max_iters < 1:
        raise ContractViolationError("max_iters must be >= 1")
    dim = grouped.stacked_channel.shape[1]
    if init_precoder is not None:
        f_bar = np.asarray(init_precoder, dtype=np.complex128).copy()
        if f_bar.shape != (dim, num_streams):
            raise ContractViolationError("init_precoder has the wrong shape")
    else:
        f_bar = _default_init(grouped, total_power, noise_var, num_streams, rng)
    power = float(np.sum(np.abs(f_bar) ** 2))
    if power > total_power * (1 + 1e-9):
        f_bar = f_bar * math.sqrt(total_power / power)

    trace: list[float] = []
    converged = False
    combiner = mmse_receiver(grouped, f_bar, noise_var)
    for iteration in range(max_iters):
        rate, q = _weighted_rate(grouped, f_bar, noise_var)
        trace.append(rate)
        if len(trace) >= 2:
            prev = trace[-2]
            if rate - prev <= tol * max(abs(prev), 1e-12):
                converged = True
                break
        if iteration == max_iters - 1:
            break  # no untraced step: the state stays the one rated last
        f_bar = precoder_update(grouped, combiner, q, total_power)
        combiner = mmse_receiver(grouped, f_bar, noise_var)
    return BcdState(
        precoder=f_bar,
        combiner=combiner,
        auxiliary=q,
        rate_trace=trace,
        converged=converged,
        n_iterations=len(trace),
    )


def _default_init(
    grouped: GroupedChannels,
    total_power: float,
    noise_var: float,
    num_streams: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Zero-forcing warm start when feasible, else a scaled random matrix."""
    num_paths, num_tx = grouped.num_paths, grouped.num_tx
    num_rx = grouped.num_rx
    streams = min(num_streams, num_rx)
    verdict = zf_feasibility(num_tx, num_rx, streams, num_paths).verdict
    if verdict == FeasibilityVerdict.FEASIBLE:
        mats = grouped.stacked_channel.reshape(num_rx, num_paths, num_tx).transpose(1, 0, 2)
        try:
            precoders, result = zf_spatial_design(mats, total_power, noise_var, streams)
        except FeasibilityError:
            result = None
        if result is not None and result.n_active_streams > 0:
            f_bar = np.zeros((num_paths * num_tx, num_streams), dtype=np.complex128)
            f_bar[:, : result.n_active_streams] = precoders.reshape(num_paths * num_tx, -1)
            return f_bar
    gen = rng if rng is not None else np.random.default_rng(0)
    raw = gen.standard_normal((num_paths * num_tx, num_streams)) + 1j * gen.standard_normal(
        (num_paths * num_tx, num_streams)
    )
    return raw * math.sqrt(total_power) / np.linalg.norm(raw)
