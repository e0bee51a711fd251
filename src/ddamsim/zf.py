"""Delay-Doppler alignment with path-based zero-forcing precoding.

The transmitter sends one precoded, delay-advanced, Doppler-derotated copy
of the symbol stream per path:

    x[n] = sum_l F_l s[n - kappa_l] exp(-j*2*pi*nu_l*n*T_s),

with kappa_l = m_max - m_l, so every path arrives aligned at delay m_max
with its Doppler removed. Choosing each F_l inside the orthogonal
complement of the other paths' spatial signatures removes inter-path
interference entirely; the survivors combine into a single time-invariant
MIMO channel whose capacity is reached by an SVD plus water-filling.

Designs returned here fold the constant phase exp(-j*2*pi*nu_l*m_l*T_s)
into F_l. That phase is what the per-path pre-rotation accumulates while
propagating over the path's own delay; compensating it (free for the
transmitter, which knows m_l and nu_l) makes the aligned channel equal the
designed one exactly instead of up to a small per-path rotation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, PathSet, Timebase, apply_channel
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .linalg import DEFAULT_RANK_TOL, null_space_basis, svd_reduced

POWER_MATCH_REL_TOL = 1e-9


class FeasibilityVerdict(enum.Enum):
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ZfFeasibility:
    """Counting-argument verdict for perfect inter-path interference nulling."""

    verdict: FeasibilityVerdict
    num_equations: int
    num_variables: int


@dataclass
class DdamDesign:
    """Everything the transmitter and receiver need for one aligned frame."""

    precoders: np.ndarray      # complex, shape (L, M_t, N_s)
    combiner: np.ndarray       # complex, shape (M_r, N_s)
    delay_comp: np.ndarray     # integer advances kappa_l, shape (L,)
    doppler_comp: np.ndarray   # pre-rotation frequencies in Hz, shape (L,)

    def __post_init__(self) -> None:
        self.precoders = np.asarray(self.precoders, dtype=np.complex128)
        self.combiner = np.asarray(self.combiner, dtype=np.complex128)
        self.delay_comp = np.asarray(self.delay_comp, dtype=np.int64)
        self.doppler_comp = np.asarray(self.doppler_comp, dtype=np.float64)
        if self.precoders.ndim != 3:
            raise ContractViolationError("precoders must have shape (L, M_t, N_s)")
        n = self.precoders.shape[0]
        if self.delay_comp.shape != (n,) or self.doppler_comp.shape != (n,):
            raise ContractViolationError("per-path compensation lists must match L")
        if np.any(self.delay_comp < 0):
            raise ContractViolationError("delay advances must be non-negative")
        if len(set(self.delay_comp.tolist())) != n:
            raise ContractViolationError("delay advances must be pairwise distinct")

    @property
    def num_paths(self) -> int:
        return int(self.precoders.shape[0])

    @property
    def num_streams(self) -> int:
        return int(self.precoders.shape[2])

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.precoders) ** 2))


@dataclass
class ZfCapacityResult:
    """SVD + water-filling solution over the interference-free channel."""

    combiner: np.ndarray           # M_r x n_active
    stacked_precoder: np.ndarray   # r_sum x n_active
    rate_bps_hz: float
    mode_powers: np.ndarray        # water-filling powers, length n_active
    mode_gains: np.ndarray         # squared singular values, length n_active
    n_active_streams: int


def delay_precompensation(paths: PathSet) -> np.ndarray:
    """Per-path delay advances kappa_l = m_max - m_l (all >= 0, distinct)."""
    return (paths.max_delay_tap - paths.delay_taps).astype(np.int64)


def zf_feasibility(num_tx: int, num_rx: int, num_streams: int, num_paths: int) -> ZfFeasibility:
    """Classify perfect nulling by counting bilinear equations vs. variables.

    Infeasible when the unknowns cannot cover the constraints even before
    losing degrees of freedom to scaling ambiguity; feasible under either
    sufficient condition (enough transmit antennas to null all interfering
    receive dimensions, or the square-stream case at its exact threshold);
    otherwise undetermined.
    """
    if min(num_tx, num_rx, num_streams, num_paths) < 1:
        raise ContractViolationError("all dimensions must be >= 1")
    if num_streams > min(num_tx, num_rx):
        raise ContractViolationError("num_streams cannot exceed min(num_tx, num_rx)")
    l, mt, mr, ns = num_paths, num_tx, num_rx, num_streams
    num_equations = l * (l - 1) * ns * ns
    num_variables = ns * (l * mt + mr) - (l + 1) * ns * ns
    if l * mt + mr < (l * l + 1) * ns:
        verdict = FeasibilityVerdict.INFEASIBLE
    elif mt >= (l - 1) * mr + ns:
        verdict = FeasibilityVerdict.FEASIBLE
    elif ns == mr and mt >= l * ns:
        verdict = FeasibilityVerdict.FEASIBLE
    elif ns == mr and mt < l * ns:
        # square-stream case is an exact threshold, no undetermined band
        verdict = FeasibilityVerdict.INFEASIBLE
    else:
        verdict = FeasibilityVerdict.UNDETERMINED
    return ZfFeasibility(verdict, num_equations, num_variables)


def path_zf_precoder_bases(
    matrices: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL
) -> list[np.ndarray]:
    """Orthonormal bases of the reachable per-path interference-free subspaces.

    matrices is the (L, M_r, M_t) stack of path channels. bases[l] spans the
    directions inside the channels' joint row space, range([H_1^H, ...,
    H_L^H]), that every other path annihilates, so H_k @ bases[l] = 0 for
    every k != l. The rest of the null space of the other paths is
    orthogonal to every H_k, path l's included: it carries no signal, so
    dropping it leaves H_l's projection onto the full null space, and with
    it the capacity-achieving design, unchanged.

    One thin QR of the stacked adjoint [H_1^H, ..., H_L^H] = Q R gives an
    orthonormal Q with at most L * M_r columns; each null space is taken
    of R's other-path column blocks in those coordinates and mapped back
    by Q, so the cost does not grow with M_t. With a single path there is
    nothing to null and bases[0] = Q.
    """
    num_paths, num_rx, num_tx = matrices.shape
    basis, tri = np.linalg.qr(np.concatenate(matrices.conj().transpose(0, 2, 1), axis=1))
    bases = []
    for l in range(num_paths):
        others = np.delete(tri, np.s_[l * num_rx : (l + 1) * num_rx], axis=1)
        reduced = null_space_basis(others, tol=rank_tol)
        if reduced.shape[1] == 0:
            raise FeasibilityError(
                f"path {l}: no interference-free transmit directions left "
                f"(M_t = {num_tx}, L = {num_paths})"
            )
        bases.append(basis @ reduced)
    return bases


def zf_spatial_design(
    matrices: np.ndarray,
    total_power: float,
    noise_var: float,
    num_streams: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[np.ndarray, "ZfCapacityResult"]:
    """Per-path zero-forcing precoders for a stack of path matrices.

    Pure spatial solution (no delay/Doppler bookkeeping): nulling bases,
    aligned effective channel, SVD and water-filling, then the stacked
    solution split back into the (L, M_t, n_active) stack of the F_l
    (n_active = 0 when no stream survives). The bases span only the
    reachable part of each null space (see path_zf_precoder_bases), so the
    effective channel has at most L * (L * M_r) columns whatever M_t is;
    the precoders equal those over the full null spaces up to one phase per
    stream, which leaves the rate, mode gains and F F^H unchanged.
    """
    mats = np.asarray(matrices, dtype=np.complex128)
    bases = path_zf_precoder_bases(mats, rank_tol)
    blocks = [mats[l] @ bases[l] for l in range(len(bases))]
    h_eff = np.concatenate(blocks, axis=1)
    if np.linalg.norm(h_eff) <= rank_tol * np.linalg.norm(mats):
        # only rounding residue survived the nulling (every path shares its
        # signature with another, or is silent): no stream, no power
        h_eff = np.zeros_like(h_eff)
    result = zf_capacity_design(h_eff, total_power, noise_var, num_streams, rank_tol)
    return split_stacked_precoder(bases, result.stacked_precoder), result


def water_filling(
    mode_gains: np.ndarray, total_power: float, noise_var: float = 1.0
) -> np.ndarray:
    """Classic water-filling over parallel modes, in closed form.

    Solves max sum_k log2(1 + p_k g_k / noise_var) s.t. sum p_k = total_power,
    p_k >= 0. With the floors f_k = noise_var / g_k sorted ascending, the n
    lowest floors are active, n being the largest count whose top floor the
    budget can reach: total_power > sum_{j<n} (f_n - f_j). Each active mode
    gets p_i = (total_power - sum_{j active} (f_i - f_j)) / n, which equals
    mu - f_i for the water level mu but is taken from floor differences so
    it does not cancel when the floors dwarf the budget; a lone active mode
    gets exactly total_power. Modes with non-positive gain receive zero power.
    """
    gains = np.asarray(mode_gains, dtype=np.float64)
    if gains.ndim != 1 or gains.size == 0:
        raise ContractViolationError("mode_gains must be a non-empty 1-D array")
    if total_power <= 0 or noise_var <= 0:
        raise ContractViolationError("total_power and noise_var must be positive")
    modes = np.flatnonzero(gains > 0)
    if modes.size == 0:
        raise ContractViolationError("water_filling needs at least one positive gain")
    floors = noise_var / gains[modes]
    order = np.argsort(floors, kind="stable")
    modes, floors = modes[order], floors[order]
    gaps = floors[:, None] - floors[None, :]          # f_i - f_j
    # budget that lifts every lower floor to floor k; non-decreasing in k
    reach = np.tril(gaps).sum(axis=1)
    n = int(np.count_nonzero(reach < total_power))
    powers = np.zeros_like(gains)
    powers[modes[:n]] = (total_power - gaps[:n, :n].sum(axis=1)) / n
    total = powers.sum()
    if not math.isclose(total, total_power, rel_tol=POWER_MATCH_REL_TOL):
        raise NumericalError(
            f"water-filling missed the power budget ({total} vs {total_power})"
        )
    return powers


def zf_capacity_design(
    effective_channel: np.ndarray,
    total_power: float,
    noise_var: float,
    num_streams: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ZfCapacityResult:
    """Capacity-achieving combiner/precoder over the aligned channel.

    Reduced SVD of the effective channel gives the receive combiner (left
    singular vectors) and stacked precoder directions (right singular
    vectors); water-filling splits power over the min(rank, num_streams)
    strongest modes. A rank-deficient channel simply transmits fewer
    streams; a zero channel yields zero rate and zero precoders.
    """
    h_eff = np.asarray(effective_channel, dtype=np.complex128)
    if num_streams < 1:
        raise ContractViolationError("num_streams must be >= 1")
    if not np.any(np.abs(h_eff) > 0):
        return ZfCapacityResult(
            combiner=np.zeros((h_eff.shape[0], 0), dtype=np.complex128),
            stacked_precoder=np.zeros((h_eff.shape[1], 0), dtype=np.complex128),
            rate_bps_hz=0.0,
            mode_powers=np.zeros(0),
            mode_gains=np.zeros(0),
            n_active_streams=0,
        )
    u, s, v = svd_reduced(h_eff, rank_tol=rank_tol)
    n_active = min(len(s), num_streams)
    u = u[:, :n_active]
    v = v[:, :n_active]
    gains = s[:n_active] ** 2
    powers = water_filling(gains, total_power, noise_var)
    stacked = v * np.sqrt(powers)[None, :]
    rate = float(np.sum(np.log2(1.0 + powers * gains / noise_var)))
    return ZfCapacityResult(
        combiner=u,
        stacked_precoder=stacked,
        rate_bps_hz=rate,
        mode_powers=powers,
        mode_gains=gains,
        n_active_streams=n_active,
    )


def split_stacked_precoder(
    bases: list[np.ndarray], stacked_precoder: np.ndarray
) -> np.ndarray:
    """Map the stacked solution back to the (L, M_t, N_s) stack F_l = B_l X_l."""
    sizes = [b.shape[1] for b in bases]
    if stacked_precoder.shape[0] != sum(sizes):
        raise ContractViolationError("stacked precoder rows do not match basis sizes")
    blocks = np.split(stacked_precoder, np.cumsum(sizes)[:-1])
    return np.stack([basis @ block for basis, block in zip(bases, blocks)])


def aligned_design(
    realization: ChannelRealization, precoders: np.ndarray, combiner: np.ndarray
) -> DdamDesign:
    """Attach the per-path delay/Doppler compensation to spatial precoders.

    Folds the constant phase exp(-j*2*pi*nu_l*m_l*T_s) into each F_l of the
    (L, M_t, N_s) stack, so the aligned channel equals the designed one.
    """
    paths = realization.path_set
    ts = realization.symbol_duration_s
    fold = np.exp(-2j * np.pi * paths.doppler_hz * paths.delay_taps * ts)
    return DdamDesign(
        precoders=precoders * fold[:, None, None],
        combiner=combiner,
        delay_comp=delay_precompensation(paths),
        doppler_comp=paths.doppler_hz.copy(),
    )


def zf_design(
    realization: ChannelRealization,
    total_power: float,
    noise_var: float,
    num_streams: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[DdamDesign, ZfCapacityResult]:
    """Full zero-forcing alignment design for one realization."""
    precoders, result = zf_spatial_design(
        realization.matrices, total_power, noise_var, num_streams, rank_tol
    )
    return aligned_design(realization, precoders, result.combiner), result


def build_ddam_tx(
    design: DdamDesign, symbols: np.ndarray, timebase: Timebase
) -> np.ndarray:
    """Superimpose the per-path precoded, advanced, derotated streams.

    x[n] = sum_l F_l s[n - kappa_l] exp(-j*2*pi*nu_l*n*T_s), with s = 0 for
    negative indices. symbols has shape (N, N_s); the output is (N, M_t).

    The advanced, derotated streams of all paths go side by side into one
    (N, L * N_s) array, which is multiplied once by the (L * N_s, M_t)
    stack of the F_l^T; a path with kappa_l >= N contributes nothing.
    """
    s = np.asarray(symbols, dtype=np.complex128)
    if s.ndim != 2 or s.shape[1] != design.num_streams:
        raise ContractViolationError(
            f"symbols must have shape (N, {design.num_streams}), got {s.shape}"
        )
    n_samples, num_streams = s.shape
    num_paths, num_tx, _ = design.precoders.shape
    ts = timebase.symbol_duration_s
    streams = np.zeros((n_samples, num_paths, num_streams), dtype=np.complex128)
    n_idx = np.arange(n_samples)
    for l in range(num_paths):
        kappa = int(design.delay_comp[l])
        if kappa >= n_samples:
            continue
        rot = np.exp(-2j * np.pi * design.doppler_comp[l] * n_idx[kappa:] * ts)
        streams[kappa:, l] = s[: n_samples - kappa] * rot[:, None]
    stacked = design.precoders.transpose(0, 2, 1).reshape(num_paths * num_streams, num_tx)
    return streams.reshape(n_samples, num_paths * num_streams) @ stacked


def residual_isi_power(
    design: DdamDesign,
    realization: ChannelRealization,
    timebase: Timebase,
    num_symbols: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Split the combined noiseless output into aligned-desired and ISI power.

    Drives the transmit chain with i.i.d. unit-variance Gaussian symbols,
    runs the exact channel oracle, combines, and least-squares fits the
    output against the reference s[n - m_max]. The explained power is the
    desired part; the residual is inter-path interference. Edge windows of
    2 * m_max samples are discarded on both sides.
    """
    m_max = realization.path_set.max_delay_tap
    margin = 2 * m_max
    if num_symbols <= 2 * margin + 8 * design.num_streams:
        raise ContractViolationError("num_symbols too small for the guard margins")
    n_streams = design.num_streams
    s = (
        rng.standard_normal((num_symbols, n_streams))
        + 1j * rng.standard_normal((num_symbols, n_streams))
    ) / math.sqrt(2.0)
    x = build_ddam_tx(design, s, timebase)
    r = apply_channel(realization, x, noise_std=0.0)
    y = r @ design.combiner.conj()
    lo = margin
    hi = num_symbols - margin
    ref = s[lo - m_max : hi - m_max]
    obs = y[lo:hi]
    coef, *_ = np.linalg.lstsq(ref, obs, rcond=None)
    fitted = ref @ coef
    desired = float(np.mean(np.abs(fitted) ** 2))
    isi = float(np.mean(np.abs(obs - fitted) ** 2))
    return desired, isi
