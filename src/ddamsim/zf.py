"""Delay-Doppler alignment with path-based zero-forcing precoding.

The transmitter sends one precoded, delay-advanced, Doppler-derotated copy
of the symbol stream per path:

    x[n] = sum_l F_l s[n - kappa_l] exp(-j*2*pi*nu_l*n*T_s),

with kappa_l = m_max - m_l, so every path arrives aligned at delay m_max
with its Doppler removed. Choosing each F_l inside the orthogonal
complement of the other paths' spatial signatures removes inter-path
interference entirely; the survivors combine into a single time-invariant
MIMO channel whose capacity is reached by an SVD plus water-filling.

Path l's pre-rotation also accumulates the constant phase
exp(-j*2*pi*nu_l*m_l*T_s) while propagating over the path's own delay.
build_ddam_tx compensates it (free for the transmitter, which knows m_l
and nu_l), so the aligned channel equals the designed one exactly and the
precoders F_l stay purely spatial.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    Timebase,
    _checked_int,
    _checked_positive,
    _whole_numbers,
    apply_channel,
)
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .linalg import RANK_TOL, null_space_basis, svd_reduced

POWER_MATCH_REL_TOL = 1e-9


class FeasibilityVerdict(enum.Enum):
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ZfFeasibility:
    """Whether a ZF pair (W, F_l) exists for generic path matrices, with the counts."""

    verdict: FeasibilityVerdict
    num_equations: int
    num_variables: int


@dataclass
class DdamDesign:
    """Everything the transmitter and receiver need for one aligned frame.

    Branch l sends through the spatial precoder F_l and is aligned to the
    delay tap m_l and Doppler nu_l of the path it targets; build_ddam_tx
    derives the advances and phases from them. The delays are
    non-negative, pairwise distinct whole numbers and the Dopplers finite.
    """

    precoders: np.ndarray      # spatial F_l, complex, shape (L, M_t, N_s)
    combiner: np.ndarray       # complex, shape (M_r, N_s)
    delay_taps: np.ndarray     # branch delays m_l, shape (L,)
    doppler_hz: np.ndarray     # branch Dopplers nu_l, shape (L,)

    def __post_init__(self) -> None:
        self.precoders = np.asarray(self.precoders, dtype=np.complex128)
        self.combiner = np.asarray(self.combiner, dtype=np.complex128)
        self.delay_taps = _whole_numbers(self.delay_taps, "branch delays")
        self.doppler_hz = np.asarray(self.doppler_hz, dtype=np.float64)
        if self.precoders.ndim != 3:
            raise ContractViolationError("precoders must have shape (L, M_t, N_s)")
        n = self.precoders.shape[0]
        if self.delay_taps.shape != (n,) or self.doppler_hz.shape != (n,):
            raise ContractViolationError("per-branch delays and Dopplers must match L")
        if not np.isfinite(self.doppler_hz).all():
            raise ContractViolationError("branch Dopplers must be finite")
        if np.any(self.delay_taps < 0):
            raise ContractViolationError("branch delays must be non-negative")
        if len(set(self.delay_taps.tolist())) != n:
            raise ContractViolationError("branch delays must be pairwise distinct")

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
    rate_bps_hz: float
    mode_powers: np.ndarray        # water-filling powers, length n_active
    mode_gains: np.ndarray         # squared singular values, length n_active
    n_active_streams: int


def zf_feasibility(num_tx: int, num_rx: int, num_streams: int, num_paths: int) -> ZfFeasibility:
    """Decide whether a ZF pair (W, F_l) exists for generic path matrices.

    Infeasible when N_s > min(M_t, M_r) or the unknowns cannot cover the
    bilinear nulling equations, L M_t + M_r < (L^2 + 1) N_s. Feasible when
    M_t >= L N_s: under a generic combiner W each F_l then fits in the null
    space of the other paths' W^H H_k. Otherwise undetermined; for N_s = M_r
    both bounds meet. zf_design nulls at the transmitter alone, which may
    not suffice for path matrices that are not rank one. A dimension that
    is not an integer >= 1 (a bool included) raises ContractViolationError.
    """
    l, mt, mr, ns = (
        _checked_int(value, name, 1)
        for value, name in (
            (num_paths, "num_paths"),
            (num_tx, "num_tx"),
            (num_rx, "num_rx"),
            (num_streams, "num_streams"),
        )
    )
    num_equations = l * (l - 1) * ns * ns
    num_variables = ns * (l * mt + mr) - (l + 1) * ns * ns
    if ns > min(mt, mr) or l * mt + mr < (l * l + 1) * ns:
        verdict = FeasibilityVerdict.INFEASIBLE
    elif mt >= l * ns:
        verdict = FeasibilityVerdict.FEASIBLE
    else:
        verdict = FeasibilityVerdict.UNDETERMINED
    return ZfFeasibility(verdict, num_equations, num_variables)


def path_zf_precoder_bases(coords: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the reachable per-path interference-free subspaces.

    coords is an (S, L, M_r, n) stack of S realizations' path coordinates
    C_l = H_l Q (channel.path_coordinates), Q spanning the channels' joint
    row space, range([H_1^H, ..., H_L^H]). For each realization, basis N_l
    spans the directions of that row space, in Q's coordinates, that every
    other path annihilates, so H_k @ Q @ N_l = C_k @ N_l = 0 for every k !=
    l. The rest of the null space of the other paths is orthogonal to
    every H_k, path l's included: it carries no signal, so dropping it
    leaves H_l's projection onto the full null space, and with it the
    capacity-achieving design, unchanged. The S * L null spaces of the
    other paths' C_k^H come from one batched SVD with no M_t axis. With a
    single path there is nothing to null and N_0 = I.

    Returns the (S, L, n, n) stack of the N_l, each padded to n columns
    with zero columns (see null_space_basis), so the shapes depend on the
    input's shape alone. A realization in which some path keeps no
    direction raises FeasibilityError.
    """
    count, num_paths, num_rx, width = coords.shape
    # others[s, l]: the C_k^H of every path k but l side by side, in path order
    adjoints = coords.conj().transpose(0, 3, 1, 2)
    other_paths = np.nonzero(~np.eye(num_paths, dtype=bool))[1].reshape(num_paths, -1)
    others = adjoints[:, :, other_paths].transpose(0, 2, 1, 3, 4).reshape(
        count * num_paths, width, (num_paths - 1) * num_rx
    )
    reduced = null_space_basis(others)
    empty = ~reduced.any(axis=(1, 2))
    if empty.any():
        raise FeasibilityError(
            f"path {empty.argmax() % num_paths}: no interference-free transmit directions "
            f"left in the paths' {width}-dimensional row space (L = {num_paths})"
        )
    return reduced.reshape(count, num_paths, width, width)


def zf_spatial_design(
    bases: np.ndarray,
    coords: np.ndarray,
    total_power: float,
    noise_var: float,
    num_streams: int,
) -> list[tuple[np.ndarray, ZfCapacityResult]]:
    """Per-path zero-forcing precoders from S realizations' path bases Q and coordinates C.

    Pure spatial solution (no delay/Doppler bookkeeping) on the (S, M_t,
    n) and (S, L, M_r, n) stacks of the path bases and the path coordinates
    C_l = H_l Q (channel.path_coordinates): nulling bases N_l, aligned
    effective channel [C_1 N_1, ..., C_L N_L], none with an M_t axis, and
    its capacity: the reduced SVD gives the receive combiner (left singular
    vectors) and the stacked directions X (right singular vectors), and
    water-filling splits the power over the min(rank, num_streams)
    strongest modes. A rank-deficient channel transmits fewer streams; a
    zero channel yields zero rate and zero precoders. The stacked solution
    is mapped back once to the (L, M_t, n_active) stack of the
    F_l = Q N_l X_l. The bases span only the reachable part of each null
    space (see path_zf_precoder_bases), so the effective channel has
    L * min(M_t, L * M_r) columns, not L * M_t; the precoders equal those
    over the full null spaces up to one phase per stream, which leaves the
    rate, mode gains and F F^H unchanged.

    Returns the S (precoders, result) pairs in a list. The whole stack
    shares one set of bases, effective channels, SVDs, water-filling, rates
    and map back, all of shapes set by the input's shape alone (the bases'
    zero columns and the modes past a member's rank carry no stream), so
    every member equals its own stack-of-one call exactly. A stream count
    that is not an integer >= 1 (a bool included), or a non-finite or
    non-positive power or noise, raises ContractViolationError before any
    factorization.
    """
    num_streams = _checked_int(num_streams, "num_streams", 1)
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    bases = np.asarray(bases, dtype=np.complex128)
    stack = np.asarray(coords, dtype=np.complex128)
    if stack.ndim != 4 or bases.ndim != 3 or bases.shape[::2] != stack.shape[::3]:
        raise ContractViolationError("bases and coords must be (S, M_t, n) and (S, L, M_r, n)")
    count, num_paths, num_rx, num_coords = stack.shape
    nulls = path_zf_precoder_bases(stack)
    # every C_l N_l side by side, in path order
    h_eff = (stack @ nulls).swapaxes(1, 2).reshape(count, num_rx, -1)
    # only rounding residue survived the nulling (every path shares its
    # signature with another, or is silent): no stream, no power
    residue = np.linalg.norm(h_eff.reshape(count, -1), axis=1)
    scale = np.linalg.norm(stack.reshape(count, -1), axis=1)
    h_eff[residue <= RANK_TOL * scale] = 0.0
    u, s, v = svd_reduced(h_eff)
    # singular values past a channel's rank are 0, and carry no stream
    width = min(s.shape[1], num_streams)
    gains = s[:, :width] ** 2
    streams = (s[:, :width] > 0).sum(axis=1)
    powers = np.zeros_like(gains)
    # only a zero channel has rank 0, and it loads no stream
    loaded = streams > 0
    if loaded.any():
        powers[loaded] = water_filling(gains[loaded], total_power, noise_var)
    rates = np.log2(1.0 + powers * gains / noise_var).sum(axis=1).tolist()
    # the X_l of every path, each mode past a member's rank at zero power
    stacked = v[:, :, :width] * np.sqrt(powers)[:, None, :]
    precoders = bases[:, None] @ (nulls @ stacked.reshape(count, num_paths, num_coords, width))
    return [
        (
            precoders[i, ..., :n],
            ZfCapacityResult(
                combiner=u[i, :, :n],
                rate_bps_hz=rate,
                mode_powers=powers[i, :n],
                mode_gains=gains[i, :n],
                n_active_streams=n,
            ),
        )
        for i, (n, rate) in enumerate(zip(streams.tolist(), rates))
    ]


def water_filling(mode_gains: np.ndarray, total_power: float, noise_var: float) -> np.ndarray:
    """Classic water-filling over the parallel modes of each row of an (S, K) stack.

    Solves, per row, max sum_k log2(1 + p_k g_k / noise_var) s.t. sum p_k =
    total_power, p_k >= 0. With the floors f_k = noise_var / g_k sorted ascending, the n
    lowest floors are active, n being the largest count whose top floor the
    budget can reach: total_power > sum_{j<n} (f_n - f_j). Each active mode
    gets p_i = (total_power - sum_{j active} (f_i - f_j)) / n, which equals
    mu - f_i for the water level mu but is taken from floor differences so
    it does not cancel when the floors dwarf the budget; a lone active mode
    gets exactly total_power. Modes with non-positive gain receive zero power.

    Returns the (S, K) powers, all rows solved in one pass: a
    non-positive gain's floor is +inf, so it sorts last and is never
    active, and every row's sums run over all K modes with the inactive
    terms masked to 0. Shapes depend on K alone, so each row equals its
    stack-of-one call bit for bit. A non-finite or non-positive power or
    noise raises ContractViolationError.
    """
    stack = np.asarray(mode_gains, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[1] == 0:
        raise ContractViolationError("mode_gains must be a non-empty (S, K) stack")
    _checked_positive(total_power, "total_power")
    _checked_positive(noise_var, "noise_var")
    positive = stack > 0
    if not positive.any(axis=1).all():
        raise ContractViolationError("water_filling needs at least one positive gain")
    # each row's floors ascending, ties in mode order; the +inf ones last
    floors = np.full_like(stack, np.inf)
    np.divide(noise_var, stack, out=floors, where=positive)
    order = floors.argsort(axis=1, kind="stable")
    floors = np.take_along_axis(floors, order, axis=1)
    finite = np.isfinite(floors)
    held = np.where(finite, floors, 0.0)
    gaps = held[:, :, None] - held[:, None, :]              # f_i - f_j
    # budget that lifts every lower floor to floor k: the row sums of the
    # non-negative gaps f_k - f_j over finite f_j, with ascending floors
    # those of the j <= k; non-decreasing in k
    reach = np.where(finite[:, None, :], np.maximum(gaps, 0.0), 0.0).sum(axis=2)
    active = ((reach < total_power) & finite).sum(axis=1)[:, None]
    lower = np.arange(stack.shape[1]) < active             # the n lowest floors
    share = (total_power - np.where(lower[:, None, :], gaps, 0.0).sum(axis=2)) / active
    powers = np.zeros_like(stack)
    np.put_along_axis(powers, order, np.where(lower, share, 0.0), axis=1)
    for total in powers.sum(axis=1).tolist():
        if not math.isclose(total, total_power, rel_tol=POWER_MATCH_REL_TOL):
            raise NumericalError(
                f"water-filling missed the power budget ({total} vs {total_power})"
            )
    return powers


def zf_design(
    realization: ChannelRealization | list[ChannelRealization],
    total_power: float,
    noise_var: float,
    num_streams: int,
) -> tuple[DdamDesign, ZfCapacityResult] | list[tuple[DdamDesign, ZfCapacityResult]]:
    """Full zero-forcing alignment design for one realization.

    A sequence of realizations of equal shape is designed by one stacked
    zf_spatial_design call and returns the list of (design, result)
    pairs, each equal to its one-realization call.
    """
    single = isinstance(realization, ChannelRealization)
    realizations = [realization] if single else list(realization)
    if len({r.matrices.shape for r in realizations}) != 1:
        raise ContractViolationError("zf_design needs realizations of one shape")
    spatial = zf_spatial_design(
        np.array([r.path_basis for r in realizations]),
        np.array([r.path_coords for r in realizations]),
        total_power,
        noise_var,
        num_streams,
    )
    designs = [
        (
            DdamDesign(
                precoders, result.combiner, r.path_set.delay_taps, r.path_set.doppler_hz
            ),
            result,
        )
        for r, (precoders, result) in zip(realizations, spatial)
    ]
    return designs[0] if single else designs


def build_ddam_tx(
    design: DdamDesign, symbols: np.ndarray, timebase: Timebase
) -> np.ndarray:
    """Superimpose the per-path precoded, advanced, derotated streams.

    x[n] = sum_l F_l s[n - kappa_l] exp(-j*2*pi*nu_l*(n + m_l)*T_s), with
    kappa_l = m_max - m_l over the design's branch delays and s = 0 for
    negative indices. The extra exp(-j*2*pi*nu_l*m_l*T_s) cancels the phase
    the path's own delay adds to its Doppler, so path l delivers exactly
    H_l F_l s[n - m_max]. symbols has shape (N, N_s); the output is (N, M_t).

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
    delays = design.delay_taps
    advances = delays.max() - delays
    for l in range(num_paths):
        kappa = int(advances[l])
        if kappa >= n_samples:
            continue
        rot = np.exp(-2j * np.pi * design.doppler_hz[l] * (n_idx[kappa:] + delays[l]) * ts)
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
    r = apply_channel(realization, x)
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
