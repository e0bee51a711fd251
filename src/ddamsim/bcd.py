"""Interference-aware alignment design via MMSE block-coordinate descent.

When perfect nulling is impossible or wasteful, the precoders are chosen to
maximize the achievable rate of the aligned channel with residual
inter-path interference treated as colored noise. Within one Doppler
coherence block the residual rotations are constant, so the received
signal collapses to

    y[n] = W^H Hbar Fbar s[n - m_max] + sum_i W^H Gbar[i] Fbar s[n - m_max + i] + noise

with Hbar = [H_1, ..., H_L] and Gbar[i] collecting, per transmit branch,
the path whose delay differs by exactly i taps (phase-rotated by the
residual Doppler up to the block and the branch's Doppler over the delay
difference; see group_delay_differences). The rate of that channel
is maximized by alternating closed-form updates of the receive filter, a
weighting matrix and the stacked precoder (a weighted-MMSE scheme); each
step is a coordinate ascent so the rate trace never decreases. Each
iterate is evaluated once: mmse_receiver forms the desired and ISI
outputs in one product and, from one solve with their covariance, returns
the traced rate, the weights and the receive filter together.

This module owns the lag model: _lag_models is the one enumeration of
(true path, transmit branch) pairs, for a whole stack of rows at once. It
reads only delays, Dopplers and the timebase, never the array size.
group_delay_differences builds BCD's grouped channels from one row, with
the branches aligned to the true paths, and
experiments.mismatched_alignment_rate, with branches aligned to estimated
delays/Dopplers, builds the lag models of a chunk's every (trial,
estimate) in one call and rates every (trial, array size, estimate,
block) at once.

The precoder step is the closed-form WMMSE update (Shi, Razaviyayn, Luo
and He, IEEE TSP 2011). Its solution lies in the range of the adjoint of
the stacked channels [Hbar; Gbar[i]...], which has at most
M_r * (1 + #offsets) dimensions however large L * M_t is, so the update
works in an orthonormal basis of that range and its cost barely grows
with the array size. A GroupedChannels is immutable and holds the blocks
Hbar, Gbar[i]... as one array in the lag model's slot order, with their
thin QR built once on first use, so no BCD iteration restacks or
refactors them.

bcd_solve refines the start its caller passes and nothing else. Started
from the zero-forcing design, the ascent can never end below the ZF rate;
that design depends on Hbar alone, which with perfect CSI is the same in
every coherence block, so experiments designs ZF once per realization and
starts every block from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, Timebase, _checked_int, _checked_positive, _whole_numbers
from .errors import ContractViolationError, NumericalError
from .linalg import eig_hermitian

POWER_BISECT_REL_TOL = 1e-12


@dataclass(frozen=True)
class GroupedChannels:
    """Aligned desired channel plus ISI channels grouped by delay difference.

    blocks[k] is the channel of delay offset offsets[k], in the lag
    model's slot order: blocks[0] is Hbar (offset 0), the others are the
    Gbar[i]. Immutable. The thin QR of B^H, B = [Hbar; Gbar[i]...] the
    blocks stacked by rows, is built on first use and shared by every BCD
    iteration on them.
    """

    blocks: np.ndarray         # (K, M_r, L * M_t), K distinct offsets
    offsets: tuple[int, ...]   # (K,), offsets[0] = 0
    num_paths: int
    num_tx: int

    def __post_init__(self) -> None:
        blocks = np.ascontiguousarray(self.blocks, dtype=np.complex128)
        object.__setattr__(self, "blocks", blocks)
        offsets = tuple(self.offsets)
        object.__setattr__(self, "offsets", offsets)
        if blocks.ndim != 3 or blocks.shape[2] != self.num_paths * self.num_tx:
            raise ContractViolationError("blocks must have shape (K, M_r, L * M_t)")
        if offsets[:1] != (0,) or not len(set(offsets)) == len(offsets) == len(blocks):
            raise ContractViolationError("offsets must be distinct, one per block, 0 first")

    @property
    def stacked_channel(self) -> np.ndarray:
        """Hbar, shape (M_r, L * M_t)."""
        return self.blocks[0]

    @property
    def num_rx(self) -> int:
        return int(self.blocks.shape[1])

    @property
    def stacked_blocks(self) -> np.ndarray:
        """B = [Hbar; Gbar[i]...], shape (K M_r, L M_t), a view of blocks."""
        return self.blocks.reshape(-1, self.blocks.shape[2])

    @cached_property
    def adjoint_qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin QR B^H = U R; column block j of R belongs to block j of B."""
        return np.linalg.qr(self.stacked_blocks.conj().T)


@dataclass
class BcdState:
    """Converged (or truncated) state of the alternating optimization."""

    precoder: np.ndarray       # Fbar, shape (L * M_t, N_s)
    combiner: np.ndarray       # W, shape (M_r, N_s)
    auxiliary: np.ndarray      # weighting matrix Q, shape (N_s, N_s)
    rate_trace: list[float]
    converged: bool
    n_iterations: int


def _lag_models(
    delays: np.ndarray,
    dopplers: np.ndarray,
    branch_delays: np.ndarray,
    branch_dopplers: np.ndarray,
    timebase: Timebase,
    block_indices,
) -> tuple[np.ndarray, np.ndarray]:
    """The lag models of a stack of (true paths, transmit branches) rows at once.

    delays and dopplers (..., L) are the true paths', branch_delays and
    branch_dopplers (..., L') the transmit branches'; their leading axes
    broadcast against each other. Returns each pair's slot, shape
    (..., L', L), and the pair phases

        exp(j 2 pi [(nu_l - nu^_l') n0 + nu^_l' (m_l - m^_l')] T_s),

    shape (..., B, L', L), at the first sample n0 of each of the B
    coherence blocks in block_indices. A row's slots number its distinct
    offsets m^_l' - m_l: slot 0 is the desired offset 0 (even when no pair
    lands on it) and the others follow in first-seen (row-major) order, so
    the row's slot count is its largest pair slot plus one.
    """
    blocks = _whole_numbers(block_indices, "block indices")
    if blocks.ndim != 1 or not blocks.size:
        raise ContractViolationError("block indices must be a non-empty 1-D sequence")
    if blocks.min() < 0:
        raise ContractViolationError("block indices must be non-negative")
    est_delays = _whole_numbers(branch_delays, "branch delays")
    est_dopplers = np.asarray(branch_dopplers)
    if not est_delays.ndim or not est_delays.shape[-1] or est_dopplers.shape != est_delays.shape:
        raise ContractViolationError("branch inputs must be matching non-empty arrays")
    if est_dopplers.dtype.kind not in "iuf" or not np.isfinite(est_dopplers).all():
        raise ContractViolationError("branch Dopplers must be finite real numbers")
    offsets = est_delays[..., :, None] - delays[..., None, :]  # [l', l] = m^_l' - m_l
    n0 = blocks * timebase.samples_per_coherence
    drift = (dopplers[..., None, None, :] - est_dopplers[..., None, :, None]) * n0[:, None, None]
    phases = np.exp(
        2j
        * np.pi
        * (drift - est_dopplers[..., None, :, None] * offsets[..., None, :, :])
        * timebase.symbol_duration_s
    )
    # offset 0, then each row's pair offsets in row-major order; an offset's
    # slot counts the distinct offsets whose first occurrence precedes its own
    pairs = offsets.reshape(-1, offsets.shape[-2] * offsets.shape[-1])
    seen = np.zeros((len(pairs), pairs.shape[1] + 1), dtype=np.int64)
    seen[:, 1:] = pairs
    first = (seen[:, :, None] == seen[:, None, :]).argmax(axis=2)
    slots = np.cumsum(first == np.arange(seen.shape[1]), axis=1) - 1
    pair_slot = slots[np.arange(len(pairs))[:, None], first[:, 1:]].reshape(offsets.shape)
    return pair_slot, phases


def group_delay_differences(
    realization: ChannelRealization, timebase: Timebase, block_index: int
) -> GroupedChannels:
    """Regroup the per-path channels by delay difference for one block.

    Transmit branch l' is aligned to the true delay m_l' and Doppler nu_l'
    (perfect CSI). True path l carries branch l' to offset i = m_l' - m_l,
    and the branch's block of Gbar[i] holds

        H_l * exp(j 2 pi [(nu_l - nu_l') n0 + nu_l' (m_l - m_l')] T_s)

    with n0 the first sample of coherence block block_index, for the
    spatial precoders that zf.build_ddam_tx transmits. Offset 0 is the
    desired channel Hbar = [H_1, ..., H_L]. The blocks follow the lag
    model's slot order; offsets that no pair produces have no block.
    """
    delays, dopplers = realization.path_set.delay_taps, realization.path_set.doppler_hz
    pair_slot, phases = _lag_models(delays, dopplers, delays, dopplers, timebase, [block_index])
    num_branches, num_rx, num_tx = pair_slot.shape[0], realization.num_rx, realization.num_tx
    offsets = np.zeros(pair_slot.max() + 1, dtype=np.int64)
    offsets[pair_slot] = delays[:, None] - delays[None, :]  # [l', l] = m_l' - m_l
    # one block per distinct offset; pair (l', l) fills its branch l'
    blocks = np.zeros((len(offsets), num_rx, num_branches, num_tx), dtype=np.complex128)
    terms = realization.matrices * phases[0, :, :, None, None]  # [l', l]: H_l * phase
    blocks[pair_slot, :, np.arange(num_branches)[:, None], :] = terms
    return GroupedChannels(
        blocks.reshape(len(offsets), num_rx, -1), offsets.tolist(), num_branches, num_tx
    )


def _noise_plus_interference(num_rx: int, interferers, noise_var: float) -> np.ndarray:
    """C = noise_var * I + sum_B B B^H over the interfering M_r x N_s blocks.

    interferers is a sequence of blocks or a (..., K, M_r, N_s) stack;
    leading axes give a stack of covariances.
    """
    eye = noise_var * np.eye(num_rx, dtype=np.complex128)
    blocks = np.asarray(interferers, dtype=np.complex128)
    if blocks.ndim < 3:  # an empty sequence
        return eye
    *lead, count, _, width = blocks.shape
    side = np.swapaxes(blocks, -3, -2).reshape(*lead, num_rx, count * width)  # [B_1, B_2, ...]
    return eye + side @ side.conj().swapaxes(-1, -2)


def colored_noise_rate(
    desired: np.ndarray, interferers, noise_var: float
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Rate of the desired M_r x N_s channel with interference as colored noise.

    Returns log2 det(Q), Q = I + A^H C^{-1} A and C^{-1} A, where A is the
    desired channel and C the colored-noise covariance of the interfering
    blocks. Q is the inverse MMSE matrix of the optimal (MMSE) receiver, so
    its log-determinant is the achievable rate.

    Both inputs may carry leading stack axes: a (B, M_r, N_s) desired
    stack with a (B, K, M_r, N_s) interferer stack rates B channels at
    once and returns a length-B array of rates with the (B, N_s, N_s)
    stack of Q and the (B, M_r, N_s) stack of C^{-1} A. A non-finite
    input raises NumericalError.
    """
    blocks = np.asarray(interferers, dtype=np.complex128)
    # a NaN would pass the sign check below; an inf interferer turns C into NaNs
    finite = np.isfinite(desired).all() and np.isfinite(blocks).all()
    if not (finite and math.isfinite(noise_var)):
        raise NumericalError("colored-noise rate of a non-finite channel or noise variance")
    cov = _noise_plus_interference(desired.shape[-2], blocks, noise_var)
    try:
        cinv_a = np.linalg.solve(cov, desired)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interference covariance solve failed: {exc}") from exc
    adjoint = desired.conj().swapaxes(-1, -2)
    q = np.eye(desired.shape[-1], dtype=np.complex128) + adjoint @ cinv_a
    q = 0.5 * (q + q.conj().swapaxes(-1, -2))
    sign, logdet = np.linalg.slogdet(q)
    if np.any(sign.real <= 0):
        raise NumericalError("weight matrix lost positive definiteness")
    rate = logdet / math.log(2.0)
    return (float(rate) if desired.ndim == 2 else rate), q, cinv_a


def mmse_receiver(
    grouped: GroupedChannels, precoder: np.ndarray, noise_var: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Evaluate one iterate: its rate, weights Q and MMSE receive filter W.

    One product B Fbar gives A = Hbar Fbar and the ISI outputs Gbar[i] Fbar.
    colored_noise_rate solves their covariance C once for C^{-1} A, the
    rate log2 det Q and Q = I + A^H C^{-1} A; then W = C^{-1} A Q^{-1},
    which by the matrix-inversion lemma equals (A A^H + C)^{-1} A.
    """
    f_bar = np.asarray(precoder, dtype=np.complex128)
    outputs = (grouped.stacked_blocks @ f_bar).reshape(-1, grouped.num_rx, f_bar.shape[1])
    rate, q, cinv_a = colored_noise_rate(outputs[0], outputs[1:], noise_var)
    # W^H = Q^{-1} (C^{-1} A)^H, as Q is Hermitian positive definite
    return rate, q, np.linalg.solve(q, cinv_a.conj().T).conj().T


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
    _checked_positive(total_power, "total_power")
    w = np.asarray(combiner, dtype=np.complex128)
    q = np.asarray(auxiliary, dtype=np.complex128)
    q = 0.5 * (q + q.conj().T)
    wqw = w @ q @ w.conj().T
    basis, tri = grouped.adjoint_qr
    num_rx = grouped.num_rx
    # every M_r-column block R_j times W Q W^H, then one product with R^H
    quad = (tri.reshape(-1, num_rx) @ wqw).reshape(tri.shape) @ tri.conj().T
    rhs = tri[:, :num_rx] @ (w @ q)
    if not np.any(np.abs(rhs) > 0):
        return np.zeros((basis.shape[0], w.shape[1]), dtype=np.complex128)
    vals, sub_vecs = eig_hermitian(quad)
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


def bcd_solve(
    grouped: GroupedChannels,
    total_power: float,
    noise_var: float,
    init_precoder: np.ndarray,
    tol: float = 1e-4,
    max_iters: int = 200,
) -> BcdState:
    """Alternate receiver / weights / precoder from init_precoder until the rate stalls.

    init_precoder is the (L * M_t, N_s) start; it is copied, its column
    count is the stream count, and a start above the power budget is
    scaled onto it. A zero column stays zero in every iterate, so BCD
    loads no stream its start does not, and an all-zero start, a fixed
    point at rate 0, raises ContractViolationError. Convergence is
    declared when the fractional rate increase drops below tol; the trace
    of per-iteration rates is returned and is non-decreasing up to
    numerical slack. Whether the solver converged or stopped at
    max_iters, the returned precoder, combiner and weights are the ones
    rate_trace[-1] was evaluated at.
    """
    _checked_int(max_iters, "max_iters", 1)
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractViolationError(f"tol must be finite and non-negative, got {tol!r}")
    f_bar = np.array(init_precoder, dtype=np.complex128)
    if f_bar.ndim != 2 or f_bar.shape[0] != grouped.stacked_channel.shape[1] or not f_bar.size:
        raise ContractViolationError("init_precoder must have shape (L * M_t, N_s), N_s >= 1")
    if not np.all(np.isfinite(f_bar)):
        raise ContractViolationError("init_precoder contains non-finite entries")
    if not np.any(f_bar):
        raise ContractViolationError("init_precoder is all zero, a fixed point at rate 0")
    power = float(np.sum(np.abs(f_bar) ** 2))
    if power > total_power * (1 + 1e-9):
        f_bar = f_bar * math.sqrt(total_power / power)

    # one mmse_receiver call per iterate; no step follows the last one rated
    rate, q, combiner = mmse_receiver(grouped, f_bar, noise_var)
    trace = [rate]
    converged = False
    while not converged and len(trace) < max_iters:
        f_bar = precoder_update(grouped, combiner, q, total_power)
        rate, q, combiner = mmse_receiver(grouped, f_bar, noise_var)
        converged = rate - trace[-1] <= tol * max(abs(trace[-1]), 1e-12)
        trace.append(rate)
    return BcdState(
        precoder=f_bar,
        combiner=combiner,
        auxiliary=q,
        rate_trace=trace,
        converged=converged,
        n_iterations=len(trace),
    )
