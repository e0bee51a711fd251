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
estimate) in one call, pads every row to the L' L + 1 slots its pairs can
fill, and rates every (trial, array size, estimate, block) in one
colored_noise_rate call.

The precoder step is the closed-form WMMSE update (Shi, Razaviyayn, Luo
and He, IEEE TSP 2011). Its solution lies in the range of the adjoint of
the stacked channels B = [Hbar; Gbar[i]...], which has at most M_r * K
dimensions (K the number of offsets) however large L * M_t is. A
GroupedChannels is immutable and holds the blocks Hbar, Gbar[i]... as one
array in the lag model's slot order and in the realization's path
coordinates, C_l = H_l Q in place of H_l, with the coordinates of that
range built once on first use from a thin QR of their small adjoint. BCD
iterates on X with F = U X, so B F = R^H X and ||F|| = ||X||, and maps
back to the antennas only at the end: M_t enters through products with Q
alone, never through a factorization.
The precoder step's power budget is met by safeguarded Newton steps on
1 / sqrt(p(beta)), the secular-equation step of More and Sorensen, a few
steps where a bisection took dozens.

bcd_solve_stack is the one BCD loop, on a stack of problems; bcd_solve is
its stack of one. The coordinates are zero-padded to K' = L (L - 1) + 1
offsets and K' M_r coordinates, shapes set by L and M_r alone, so
problems that share L, M_r and N_s run as one stack whatever their array
sizes or offset counts. Each iteration makes one precoder_update and one
mmse_receiver call on the members that have not converged yet, each
member keeping its own convergence test and trace, so experiments solves
a fig4 chunk's trials, array sizes and coherence blocks in one call, and a
fig3 chunk's trials, run with tol = 0 up to a fixed iteration count, in
one more. No experiment calls bcd_solve; experiments keeps the name
imported because perfbench's traced runs rebind experiments.bcd_solve.

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

    blocks[k] is the channel of delay offset offsets[k] on the path basis
    Q, blocks[k] blockdiag(Q)^H on the antennas, in the lag model's slot
    order: blocks[0] is Hbar (offset 0), the others are the Gbar[i].
    Immutable. The coordinates of range(B^H), B = [Hbar; Gbar[i]...] the
    blocks stacked by rows, are built on first use from one thin QR and
    shared by every BCD iteration on them.
    """

    blocks: np.ndarray         # (K, M_r, L * n), K distinct offsets
    offsets: tuple[int, ...]   # (K,), offsets[0] = 0
    num_paths: int
    path_basis: np.ndarray     # Q, (M_t, n)

    def __post_init__(self) -> None:
        blocks = np.ascontiguousarray(self.blocks, dtype=np.complex128)
        object.__setattr__(self, "blocks", blocks)
        offsets = tuple(self.offsets)
        object.__setattr__(self, "offsets", offsets)
        if blocks.ndim != 3 or blocks.shape[2] != self.num_paths * np.shape(self.path_basis)[-1]:
            raise ContractViolationError("blocks must have shape (K, M_r, L * n), Q (M_t, n)")
        if offsets[:1] != (0,) or not len(set(offsets)) == len(offsets) == len(blocks):
            raise ContractViolationError("offsets must be distinct, one per block, 0 first")
        if len(offsets) > self.num_paths * (self.num_paths - 1) + 1:
            raise ContractViolationError("L branches make at most L (L - 1) + 1 offsets")

    @property
    def num_rx(self) -> int:
        return int(self.blocks.shape[1])

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """U and the blocks B_k U from the thin QR B~^H = U~ R, zero-padded to fixed shapes.

        B~ is the blocks stacked by rows, (K M_r, L n), and B = B~
        blockdiag(Q)^H on the antennas. U = blockdiag(Q) U~ is the
        orthonormal basis of range(B^H), whose min(K M_r, L n) columns are
        followed by zero columns up to K' * M_r, K' = L (L - 1) + 1 the
        most offsets a lag model of L branches has. B_k U is R^H's row
        block k with the same zero columns, followed by zero blocks up to
        K'. So U has shape (L * M_t, K' M_r) and the blocks (K', M_r, K'
        M_r), shapes set by L, M_r and M_t alone. For F = U X, B F = R^H X
        and ||F|| = ||X|| on the nonzero coordinates, so BCD iterates on the
        K' M_r x N_s coordinates X whatever the array size; the padded ones
        meet zero columns of U and of every block.
        """
        local, tri = np.linalg.qr(self.blocks.reshape(-1, self.blocks.shape[2]).conj().T)
        num_tx, num_coords = self.path_basis.shape
        num_slots = self.num_paths * (self.num_paths - 1) + 1
        width = num_slots * self.num_rx
        padded = np.zeros((self.num_paths * num_tx, width), dtype=np.complex128)
        padded[:, : local.shape[1]] = (
            self.path_basis @ local.reshape(self.num_paths, num_coords, -1)
        ).reshape(len(padded), -1)
        coords = np.zeros((num_slots, self.num_rx, width), dtype=np.complex128)
        coords[: len(self.blocks), :, : len(tri)] = tri.conj().T.reshape(
            len(self.blocks), self.num_rx, -1
        )
        return padded, coords


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
    model's slot order; offsets that no pair produces have no block. The
    blocks hold the path coordinates C_l = H_l Q in place of the H_l, so
    they have L * n columns and no M_t axis.
    """
    delays, dopplers = realization.path_set.delay_taps, realization.path_set.doppler_hz
    pair_slot, phases = _lag_models(delays, dopplers, delays, dopplers, timebase, [block_index])
    coords = realization.path_coords
    num_branches, num_rx, width = pair_slot.shape[0], *coords.shape[1:]
    offsets = np.zeros(pair_slot.max() + 1, dtype=np.int64)
    offsets[pair_slot] = delays[:, None] - delays[None, :]  # [l', l] = m_l' - m_l
    # one block per distinct offset; pair (l', l) fills its branch l'
    blocks = np.zeros((len(offsets), num_rx, num_branches, width), dtype=np.complex128)
    terms = coords * phases[0, :, :, None, None]  # [l', l]: C_l * phase
    blocks[pair_slot, :, np.arange(num_branches)[:, None], :] = terms
    return GroupedChannels(
        blocks.reshape(len(offsets), num_rx, -1),
        offsets.tolist(),
        num_branches,
        realization.path_basis,
    )


def _noise_plus_interference(interferers: np.ndarray, noise_var: float) -> np.ndarray:
    """C = noise_var * I + sum_k B_k B_k^H over each (K, M_r, N_s) stack of interferers.

    interferers is a (..., K, M_r, N_s) stack; returns the (..., M_r, M_r) covariances.
    """
    *lead, count, num_rx, width = interferers.shape
    side = np.swapaxes(interferers, -3, -2).reshape(*lead, num_rx, count * width)  # [B_1, B_2, ...]
    return noise_var * np.eye(num_rx, dtype=np.complex128) + side @ side.conj().swapaxes(-1, -2)


def colored_noise_rate(
    desired: np.ndarray, interferers: np.ndarray, noise_var: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rates of a stack of desired M_r x N_s channels with interference as colored noise.

    desired is a (..., M_r, N_s) stack and interferers the (..., K, M_r,
    N_s) stack of each channel's K interfering blocks (K may be 0). For
    each channel A with colored-noise covariance C of its interferers,
    returns log2 det(Q), Q = I + A^H C^{-1} A and C^{-1} A, as the (...)
    array of rates with the (..., N_s, N_s) stack of Q and the (..., M_r,
    N_s) stack of C^{-1} A. Q is the inverse MMSE matrix of the optimal
    (MMSE) receiver, so its log-determinant is the achievable rate. A
    non-finite input raises NumericalError.
    """
    desired = np.asarray(desired, dtype=np.complex128)
    blocks = np.asarray(interferers, dtype=np.complex128)
    if desired.ndim < 3 or blocks.shape[:-3] + blocks.shape[-2:] != desired.shape:
        raise ContractViolationError(
            "colored_noise_rate takes (..., M_r, N_s) and (..., K, M_r, N_s) stacks"
        )
    # a NaN would pass the sign check below; an inf interferer turns C into NaNs
    finite = np.isfinite(desired).all() and np.isfinite(blocks).all()
    if not (finite and math.isfinite(noise_var)):
        raise NumericalError("colored-noise rate of a non-finite channel or noise variance")
    cov = _noise_plus_interference(blocks, noise_var)
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
    return logdet / math.log(2.0), q, cinv_a


def mmse_receiver(
    blocks: np.ndarray, precoders: np.ndarray, noise_var: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a stack of iterates: their rates, weights Q and MMSE receive filters W.

    blocks is an (S, K, M_r, D) stack of lag-model blocks and precoders
    the (S, D, N_s) iterates in the same D coordinates: bcd_solve_stack
    passes the padded GroupedChannels.coordinates, whose zero blocks add
    nothing to the covariance, and GroupedChannels.blocks[None] is a stack
    of one in path coordinates. One product B Fbar per member gives
    A = Hbar Fbar and the ISI outputs Gbar[i] Fbar; colored_noise_rate
    solves their covariance C once for C^{-1} A, the rate log2 det Q and
    Q = I + A^H C^{-1} A; then W = C^{-1} A Q^{-1}, which by the
    matrix-inversion lemma equals (A A^H + C)^{-1} A. Returns the (S,)
    rates and the (S, N_s, N_s) and (S, M_r, N_s) stacks of Q and W.
    """
    count, num_blocks, num_rx, dim = blocks.shape
    outputs = (blocks.reshape(count, num_blocks * num_rx, dim) @ precoders).reshape(
        count, num_blocks, num_rx, -1
    )
    rates, q, cinv_a = colored_noise_rate(outputs[:, 0], outputs[:, 1:], noise_var)
    # W^H = Q^{-1} (C^{-1} A)^H, as Q is Hermitian positive definite
    return rates, q, np.linalg.solve(q, cinv_a.conj().swapaxes(1, 2)).conj().swapaxes(1, 2)


def precoder_update(
    blocks: np.ndarray,
    combiners: np.ndarray,
    auxiliaries: np.ndarray,
    total_power: float,
) -> np.ndarray:
    """Power-constrained closed-form precoders for fixed receivers and weights.

    For each member of the (S, K, M_r, D) block stack, with B = [Hbar;
    Gbar[i]...] its blocks stacked by rows,

        Fbar(beta) = (B^H (I_K (x) W Q W^H) B + beta I)^{-1} Hbar^H W Q,

    with beta = 0 if the unconstrained solution already fits the budget
    and otherwise the root of the power budget, met from below within
    POWER_BISECT_REL_TOL (complementary slackness). At beta = 0 the
    inverse is the pseudo-inverse. Returns the (S, D, N_s) stack. BCD
    calls it in the coordinates of range(B^H), where D <= K M_r however
    large L M_t is, so one eigendecomposition of a D x D matrix per member
    solves every beta.
    """
    _checked_positive(total_power, "total_power")
    count, num_blocks, num_rx, dim = blocks.shape
    q = 0.5 * (auxiliaries + auxiliaries.conj().swapaxes(1, 2))
    wq = combiners @ q
    wqw = wq @ combiners.conj().swapaxes(1, 2)
    rows = blocks.reshape(count, num_blocks * num_rx, dim)
    adjoint = np.conj(rows.swapaxes(1, 2), order="C")  # B^H, (S, D, K M_r)
    # every M_r-column block of B^H times W Q W^H, then one product with B
    quad = (adjoint.reshape(count, dim * num_blocks, num_rx) @ wqw).reshape(
        count, dim, -1
    ) @ rows
    vals, vecs = eig_hermitian(quad)
    proj = vecs.conj().swapaxes(1, 2) @ (adjoint[:, :, :num_rx] @ wq)
    return vecs @ _budgeted_coefficients(vals, proj, total_power)


def _budgeted_coefficients(
    vals: np.ndarray, proj: np.ndarray, total_power: float
) -> np.ndarray:
    """diag(1 / (vals + beta)) proj for each member, beta set by the power budget.

    vals (S, n) are the eigenvalues of the precoder step's quadratic term
    and proj (S, n, N_s) the right-hand side in its eigenbasis, so the
    power of a member at beta is p(beta) = sum_i r_i / (vals_i + beta)^2,
    r_i the squared norm of proj's row i. beta = 0 (pseudo-inverse) if
    that fits the budget; otherwise beta is the root that _budget_root
    finds, on the feasible side of the budget and within
    POWER_BISECT_REL_TOL of it. Ending only there keeps each step an
    ascent step up to rounding: a power left below the budget would cost
    rate at a fixed point.
    """
    vals = np.maximum(vals.real, 0.0)
    row_power = np.sum(np.abs(proj) ** 2, axis=2)
    # at beta = 0 the inverse acts as a pseudo-inverse on the zero eigenspace
    active = vals > vals.max(axis=1, keepdims=True) * 1e-13
    squares = np.divide(row_power, vals**2, out=np.zeros_like(vals), where=active)
    power = np.sum(squares, axis=1)
    constrained = power > total_power
    beta = np.zeros(len(vals))
    if constrained.any():
        beta[constrained] = _budget_root(
            vals[constrained], row_power[constrained], active[constrained], total_power
        )
        active = active | constrained[:, None]
    denom = vals + beta[:, None]
    return np.divide(
        proj, denom[:, :, None], out=np.zeros_like(proj), where=active[:, :, None]
    )


def _budget_root(
    vals: np.ndarray, row_power: np.ndarray, active: np.ndarray, total_power: float
) -> np.ndarray:
    """The beta > 0 of each row with p(beta) in [(1 - POWER_BISECT_REL_TOL) P, P].

    Safeguarded Newton steps on 1 / sqrt(p(beta)), the secular-equation
    step of More and Sorensen (SIAM J. Sci. Stat. Comput. 1983). That
    function is increasing and concave, so a Newton step from the left of
    a root never passes it. The first step starts at beta = 0 from the
    power of the active eigenvalues alone, whose root lies left of the
    full one, and every step aims just inside the budget, at
    (1 - POWER_BISECT_REL_TOL / 2) P, so the iterates climb to the budget
    from above and stop on its feasible side. A step that leaves the
    bracket of betas known to be over and under budget, or whose slope
    underflows to 0, is replaced by bisection of that bracket.
    """
    target = total_power * (1.0 - 0.5 * POWER_BISECT_REL_TOL)
    floor = total_power * (1.0 - POWER_BISECT_REL_TOL)
    # p(beta) <= sum_i r_i / beta^2, which is the target at hi
    lo, hi = np.zeros(len(vals)), np.sqrt(row_power.sum(axis=1) / target)
    beta = lo.copy()
    inverse = np.divide(1.0, vals, out=np.zeros_like(vals), where=active)
    power = np.sum(row_power * inverse**2, axis=1)
    slope = np.sum(row_power * inverse**3, axis=1)  # -p'(beta) / 2
    searching = np.ones(len(vals), dtype=bool)
    for _ in range(200):
        # a slope that underflows to 0 (beta far above every eigenvalue) bisects
        newton = slope > 0
        ratio = np.divide(power, slope, out=np.zeros_like(power), where=newton)
        step = beta + ratio * (np.sqrt(power / target) - 1.0)
        inside = newton & (step > lo) & (step < hi)
        beta = np.where(searching, np.where(inside, step, 0.5 * (lo + hi)), beta)
        inverse = 1.0 / (vals + beta[:, None])
        power = np.sum(row_power * inverse**2, axis=1)
        slope = np.sum(row_power * inverse**3, axis=1)
        over, under = power > total_power, power < floor
        searching &= over | under
        if not searching.any():
            return beta
        lo = np.where(over, beta, lo)
        hi = np.where(under, beta, hi)
    raise NumericalError("power budget search did not converge")


def bcd_solve_stack(
    groups,
    total_power: float,
    noise_var: float,
    init_precoders,
    tol: float = 1e-4,
    max_iters: int = 200,
) -> list[BcdState]:
    """Alternate receiver / weights / precoder on a stack of problems until each rate stalls.

    groups is a sequence of GroupedChannels that share L, M_r and, through
    their starts, N_s (ContractViolationError otherwise), and
    init_precoders one (L * M_t, N_s) start each; M_t may differ. Member i
    is solved from start i exactly as bcd_solve would solve it alone, bit
    for bit, and its BcdState is element i of the returned list. The
    members' padded coordinates (GroupedChannels.coordinates) have one
    shape, so they run as one stack: each iteration makes one
    precoder_update and one mmse_receiver call on the members that have
    not converged yet.

    Each start is copied, its column count is the stream count, and a
    start above the power budget is scaled onto it. A zero column stays
    zero in every iterate, so BCD loads no stream its start does not, and
    an all-zero start, a fixed point at rate 0, raises
    ContractViolationError. A member converges when its fractional rate
    increase drops below tol; its trace of per-iteration rates is
    non-decreasing up to numerical slack. Whether a member converged or
    stopped at max_iters, its precoder, combiner and weights are the ones
    its rate_trace[-1] was evaluated at. A member whose step fails raises
    for the whole call.
    """
    _checked_int(max_iters, "max_iters", 1)
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractViolationError(f"tol must be finite and non-negative, got {tol!r}")
    groups = list(groups)
    init_precoders = list(init_precoders)
    if not groups or len(init_precoders) != len(groups):
        raise ContractViolationError("bcd_solve_stack needs one start per grouped channel")
    starts = []
    for grouped, init in zip(groups, init_precoders):
        f_bar = np.array(init, dtype=np.complex128)
        rows = grouped.num_paths * len(grouped.path_basis)
        if f_bar.ndim != 2 or f_bar.shape[0] != rows or not f_bar.size:
            raise ContractViolationError("init_precoder must have shape (L * M_t, N_s), N_s >= 1")
        if not np.all(np.isfinite(f_bar)):
            raise ContractViolationError("init_precoder contains non-finite entries")
        if not np.any(f_bar):
            raise ContractViolationError("init_precoder is all zero, a fixed point at rate 0")
        power = float(np.sum(np.abs(f_bar) ** 2))
        if power > total_power * (1 + 1e-9):
            f_bar = f_bar * math.sqrt(total_power / power)
        starts.append(f_bar)
    if len({(g.num_paths, g.num_rx, f.shape[1]) for g, f in zip(groups, starts)}) > 1:
        raise ContractViolationError("the members of a BCD stack must share L, M_r and N_s")
    bases = [grouped.coordinates[0] for grouped in groups]
    blocks = np.stack([grouped.coordinates[1] for grouped in groups])
    # F = U X; the start's part outside range(U) is invisible to B
    coords = np.stack([basis.conj().T @ start for basis, start in zip(bases, starts)])
    # one mmse_receiver call per iterate; no step follows the last one rated
    rates, q, combiners = mmse_receiver(blocks, coords, noise_var)
    traces = [[rate] for rate in rates.tolist()]
    converged = [False] * len(groups)
    live = np.arange(len(groups))
    for _ in range(1, max_iters):
        # converged members sit out; a full stack is passed without a copy
        sub = slice(None) if live.size == len(groups) else live
        step = precoder_update(blocks[sub], combiners[sub], q[sub], total_power)
        rates, q[sub], combiners[sub] = mmse_receiver(blocks[sub], step, noise_var)
        coords[sub] = step
        still = []
        for member, rate in zip(live.tolist(), rates.tolist()):
            trace = traces[member]
            converged[member] = rate - trace[-1] <= tol * max(abs(trace[-1]), 1e-12)
            trace.append(rate)
            if not converged[member]:
                still.append(member)
        if not still:
            break
        live = np.array(still)
    return [
        BcdState(
            precoder=basis @ coords[member] if len(trace) > 1 else start,
            combiner=combiners[member],
            auxiliary=q[member],
            rate_trace=trace,
            converged=converged[member],
            n_iterations=len(trace),
        )
        for member, (basis, start, trace) in enumerate(zip(bases, starts, traces))
    ]


def bcd_solve(
    grouped: GroupedChannels,
    total_power: float,
    noise_var: float,
    init_precoder: np.ndarray,
    tol: float = 1e-4,
    max_iters: int = 200,
) -> BcdState:
    """One problem of bcd_solve_stack, the stack of one grouped channel and its start.

    init_precoder is the (L * M_t, N_s) start; see bcd_solve_stack for
    the contract.
    """
    [state] = bcd_solve_stack(
        [grouped], total_power, noise_var, [init_precoder], tol, max_iters
    )
    return state
