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
class OfdmDesign:
    """Per-subcarrier SVD transceivers of one realization at one power budget.

    Zero-padded stacks over K subcarriers and r_max = max(1, max_k r_k)
    stream slots, r_k = ranks[k] being the rank of subcarrier k capped at
    the stream count. The precoders are kept factored: subcarrier k's is
    antenna_basis @ precoder_coords[k], where antenna_basis is
    block-diag(I_{M_r}, Q) with Q the orthonormal (M_t - M_r, C) tail basis
    and zero padding columns up to W = max(2 M_r, M_r + C), or I_{M_t} when
    M_t <= W. Its nonzero columns are orthonormal, so precoder_coords[k, :,
    :r_k] spends the whole total_power on the antennas too.
    combiners[k, :, :r_k] has orthonormal columns, and every entry of a slot
    i >= r_k is zero.
    """

    precoder_coords: np.ndarray    # (K, W, r_max)
    antenna_basis: np.ndarray      # (M_t, W)
    combiners: np.ndarray          # (K, M_r, r_max)
    singular_values: np.ndarray    # (K, r_max)
    ranks: np.ndarray              # (K,) integer
    total_power: float


@dataclass
class OfdmResult:
    """An OFDM design with its SINRs and spectral efficiency at the design's power.

    The fields are ofdm_design's arrays of one realization (see
    OfdmDesign) plus ofdm_rate's sinr and rate at that power. sinr is
    zero on every inactive slot, so sinr[:, 0] is the strongest stream's
    SINR; it has the design's (K, r_max) layout whenever the two rank
    rules agree, as they do unless a squared singular value sits within
    rounding of RANK_TOL times the largest.
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


def _rank_one_components(matrices: np.ndarray):
    """Split each path matrix of an (S, L, M_r, M_t) stack into rank-one pieces.

    Returns the stacks (left, right, parent, active) of shapes (S, C, M_r),
    (S, C, M_t), (S, C) and (S, C): member s's H_l = sum over components c
    with parent[s, c] = l of outer(left[s, c], right[s, c].conj()). The
    components come from one stacked SVD of the path matrices, in path
    order and within a path by descending singular value. C is the largest
    component count of any member, so a ray channel with no zero gain has
    C = L; a member with fewer has all-zero components appended, where
    active is False. An all-zero stack has none.
    """
    count, num_paths, num_rx, num_tx = matrices.shape
    u, s, v = svd_reduced(matrices.reshape(count * num_paths, num_rx, num_tx))
    modes = s.shape[1]
    nonzero = (s > 0).reshape(count, num_paths * modes)
    # each member's nonzero components first, in (path, mode) order
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max()]
    members = np.arange(count)[:, None]
    active = nonzero[members, order]
    left = (u * s[:, None, :]).transpose(0, 2, 1).reshape(count, -1, num_rx)[members, order]
    right = v.transpose(0, 2, 1).reshape(count, -1, num_tx)[members, order]
    return left, right * active[..., None], order // modes, active


def _ofdm_components(realizations: list[ChannelRealization], num_subcarriers: int):
    """Rank-one components of a stack of realizations and their subcarrier weights.

    Returns the stacks (left, right, active, coeff, ramp): left, right and
    active as _rank_one_components gives them, coeff (S, C, K) with
    coeff[s, c, delta] the ICI coefficient of member s's component c at
    subcarrier offset delta (periodic in delta with period K), and ramp
    (S, K, C) with ramp[s, k, c] its delay phase e^{-j 2 pi k m_c / K} on
    subcarrier k. Subcarrier k's desired matrix is the sum over c of
    ramp[s, k, c] coeff[s, c, 0] outer(left[s, c], right[s, c].conj()).
    Realizations of different shapes or symbol durations, an empty
    sequence and a bool or non-integer subcarrier count raise
    ContractViolationError.
    """
    if len({(r.matrices.shape, r.symbol_duration_s) for r in realizations}) != 1:
        raise ContractViolationError("OFDM needs realizations of one shape and timebase")
    k_sub = _checked_int(num_subcarriers, "num_subcarriers", 1)
    left, right, parent, active = _rank_one_components(
        np.array([r.matrices for r in realizations])
    )
    members = np.arange(len(realizations))[:, None]
    comp_doppler = np.array([r.path_set.doppler_hz for r in realizations])[members, parent]
    comp_delay = np.array([r.path_set.delay_taps for r in realizations])[members, parent]
    k_grid = np.arange(k_sub)
    coeff = ici_coefficient(
        comp_doppler[:, :, None], realizations[0].symbol_duration_s, k_sub, k_grid
    )
    ramp = np.exp(-2j * np.pi * (k_grid[:, None] * comp_delay[:, None, :]) / k_sub)
    return left, right, active, coeff, ramp


def ofdm_design(
    realization: ChannelRealization | list[ChannelRealization],
    num_subcarriers: int,
    total_power: float,
    num_streams: int,
) -> OfdmDesign | list[OfdmDesign]:
    """SVD transceiver per subcarrier, spending total_power on each loaded one.

    It serves fig8's OFDM frames; rates come from ofdm_rate, which needs no
    transceiver. The desired matrix of subcarrier k sums the paths'
    self-coupled channels with their delay phase ramps; its SVD gives the
    combiner (left vectors) and the precoder (right vectors of the at most
    num_streams strongest modes, scaled to spend the whole budget). Mode i
    counts toward the rank when s_i^2 > RANK_TOL s_1^2, ofdm_rate's rule on
    the same squared singular values.

    A sequence of realizations of one shape and symbol duration is
    designed as stacks and returns the list of their designs: one stacked
    rank-one split, one batched tail QR, one product for the desired
    matrices and one batched SVD over (S, K, M_r, W), with no loop over
    realizations or subcarriers. A member equals its one-realization call
    bit for bit whenever its component count is the stack's C (see
    _rank_one_components), as it is for every ray channel with no zero
    gain; LAPACK factors each matrix of a batch on its own.

    The SVD does not run on the (K, M_r, M_t) desired matrices but on
    (K, M_r, W) compressed ones. With `right` the (C, M_t) right vectors of
    the C rank-one components, every desired row lies in the span of the
    first M_r antenna coordinates plus the components' tail span, so when
    M_t > W = max(2 M_r, M_r + C) the remaining T = M_t - M_r coordinates
    go through one thin QR, right[:, M_r:].T = Q R with Q of size T x C,
    and each component is described by [conj(right[:, :M_r]),
    conj(right[:, M_r:]) @ Q], zero-padded to width W. Below that threshold
    the same code runs with identity coordinates (Q = I, W = M_t). The
    precoders stay in that factored form, the small right vectors and the
    (M_t, W) antenna basis block-diag(I, Q), so no per-subcarrier array has
    an M_t axis; the power budget is checked on the small vectors.

    The design keeps an SVD, and not ofdm_rate's Gram eigendecomposition,
    for LAPACK's singular-vector phases: the frame sums the precoded
    symbols of all subcarriers, so its PAPR depends on them. The
    compression keeps those phases. For a wide matrix zgesdd first takes a
    Householder LQ and then the SVD of L. Row i's reflector depends only on
    its pivot entry (a column < M_r), the norm of the rest of its row, and
    inner products between rows; a unitary acting only on the columns after
    M_r leaves all of these unchanged, so L, and with it the combiners, the
    singular values and the small right vectors, equal the full SVD's up to
    rounding. zgesdd takes that LQ path once N >= int(17 M / 9); padding
    the width to at least 2 M_r >= int(17 M_r / 9) keeps the compressed
    problem on the same path as the full one, which has M_t > 2 M_r.

    A non-finite desired matrix or a loaded subcarrier off the power
    budget by more than 1e-9 relative raises ContractViolationError, as do
    a bool or non-integer subcarrier or stream count and a non-finite or
    non-positive power.
    """
    single = isinstance(realization, ChannelRealization)
    realizations = [realization] if single else list(realization)
    _checked_int(num_streams, "num_streams", 1)
    _checked_positive(total_power, "total_power")
    left, right, active, coeff, ramp = _ofdm_components(realizations, num_subcarriers)
    count, n_comp, m_t = right.shape

    # per-component coordinates: the first M_r antennas as they are, the
    # tail on an orthonormal basis of its span (see the docstring)
    lead = min(left.shape[2], m_t)
    width = max(2 * lead, lead + n_comp)
    if m_t > width:
        tail = np.linalg.qr(right[:, :, lead:].transpose(0, 2, 1))[0]   # (S, T, C)
        antenna_basis = np.zeros((count, m_t, width), dtype=np.complex128)
        antenna_basis[:, :lead, :lead] = np.eye(lead)
        # the QR columns of appended zero components span nothing of the channel
        antenna_basis[:, lead:, lead : lead + n_comp] = tail * active[:, None, :]
    else:
        antenna_basis = np.broadcast_to(np.eye(m_t, dtype=np.complex128), (count, m_t, m_t))
    coords = right.conj() @ antenna_basis                            # (S, C, W)
    # the contraction order optimize=True picks, given so it is not searched per call
    desired = np.einsum(
        "skc,sca,scb->skab",
        ramp * coeff[:, None, :, 0],
        left,
        coords,
        optimize=["einsum_path", (1, 2), (0, 1)],
    )                                                                # (S, K, M_r, W)
    if not np.all(np.isfinite(desired)):
        raise ContractViolationError("subcarrier channels contain non-finite entries")
    try:
        u, s, vh = np.linalg.svd(desired, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    # with the SVD's outputs, the largest arrays a stacked design holds at once
    del desired

    # numerical rank per subcarrier, on squared singular values as in ofdm_rate
    ranks = np.minimum(
        np.count_nonzero(s**2 > RANK_TOL * s[..., :1] ** 2, axis=-1), num_streams
    )
    r_max = max(1, int(ranks.max()))
    loaded = np.arange(r_max) < ranks[..., None]                    # (S, K, r_max)
    # sqrt(P / r_k) on the r_k active columns, zero on the rest
    scale = np.sqrt(total_power / np.maximum(ranks, 1))[..., None] * loaded
    small = vh[..., :r_max, :].conj().swapaxes(-1, -2) * scale[..., None, :]
    combiners = np.where(loaded[..., None, :], u[..., :r_max], 0.0)
    # math.isclose(power, total_power, rel_tol=1e-9) on every loaded subcarrier
    power = np.sum(np.abs(small) ** 2, axis=(-2, -1))
    close = np.abs(power - total_power) <= 1e-9 * np.maximum(power, total_power)
    if np.any((ranks > 0) & ~close):
        raise ContractViolationError("subcarrier precoder violates the power budget")
    singular_values = np.where(loaded, s[..., :r_max], 0.0)

    designs = []
    for i in range(count):
        # each member's own r_max, laid out as its one-realization call lays it out
        own = slice(0, max(1, int(ranks[i].max())))
        designs.append(
            OfdmDesign(
                np.ascontiguousarray(small[i, ..., own]),
                antenna_basis[i],
                np.ascontiguousarray(combiners[i, ..., own]),
                np.ascontiguousarray(singular_values[i, :, own]),
                ranks[i],
                total_power,
            )
        )
    return designs[0] if single else designs


def ofdm_rate(
    realizations: list[ChannelRealization],
    num_subcarriers: int,
    powers,
    noise_var: float,
    cp_length: int,
    num_streams: int,
) -> tuple[np.ndarray, np.ndarray]:
    """SINRs (S, P, K, r_max) and spectral efficiencies (S, P) of OFDM at each total power.

    Rates ofdm_design's transceivers for a stack of S realizations of one
    shape and symbol duration without forming them: no SVD beyond the
    rank-one split, no array with an M_t or W axis. With the components
    of _ofdm_components, subcarrier k's desired matrix is X_k conj(right),
    X_k = left^T diag(ramp_k coeff[:, 0]) (M_r x C), so its Gram is X_k G
    X_k^H with G = conj(right) right^T (C x C). One eig_hermitian call over
    the (S K, M_r, M_r) Grams gives the combiners u_i. With G = B B^H from
    G's own eigendecomposition, z_i = B^H X_k^H u_i gives lambda_i =
    |z_i|^2 = s_i^2, accurate to rounding of s_1 s_i like the SVD's (the
    Gram's eigenvalue is only accurate to rounding of s_1^2), and the
    precoder's projection on the components, B z_i / s_i. Mode i counts
    when lambda_i > RANK_TOL lambda_1, ofdm_design's rule; at most
    num_streams modes are loaded, with P / r_k each. A rate does not
    depend on the singular-vector phases. When lambda_1 = lambda_2, the
    SVD and this route alike leave the split of the ICI between those two
    streams to the choice of eigenbasis; only their sum is fixed.

    ICI from every other subcarrier is treated as noise. Precoders scale
    with the square root of the power and the ICI power with the power, so
    with a and b the signal and ICI power at unit power, SINR = P a / (P b
    + N0). The rate carries the cyclic-prefix penalty K / (K + N_CP);
    frames are assumed to hold a whole number of OFDM symbols. The ICI on
    subcarrier k is sum over q != k of h[(q - k) mod K] * g[q], with
    h[delta, c, d] = coeff[c, delta] conj(coeff[d, delta]) (zero at delta
    = 0) and g[q, c, d] the ramp-weighted transmit Gram terms of source q:
    a circular cross-correlation along the subcarriers, computed with FFTs
    in O(C^2 K log K) on the pairs c <= d, as all three are Hermitian.

    Every member is rated on min(M_r, num_streams) stream slots, so it
    equals its one-realization call bit for bit whenever its component
    count is the stack's C; the SINRs are then trimmed to r_max = max(1,
    max rank of the stack), zero on every unloaded slot. A bool or
    non-integer count, a non-finite or non-positive noise, powers that are
    not a non-empty 1-D array of finite positive numbers and realizations
    of mixed shapes or timebases raise ContractViolationError.
    """
    _checked_int(num_streams, "num_streams", 1)
    _checked_int(cp_length, "cp_length", 0)
    _checked_positive(noise_var, "noise_var")
    powers = np.asarray(powers, dtype=np.float64)
    if powers.ndim != 1 or not powers.size:
        raise ContractViolationError("powers must be a non-empty 1-D array")
    for power in powers:
        _checked_positive(power, "power")
    left, right, _, coeff, ramp = _ofdm_components(list(realizations), num_subcarriers)
    count, k_sub, n_comp = ramp.shape
    num_rx = left.shape[2]
    slots = min(num_rx, num_streams)
    weights = ramp * coeff[:, None, :, 0]              # (S, K, C): X_k = left^T diag(weights[k])

    # The Grams X_k G X_k^H: entry (a, b) sums weights[k, c] conj(weights[k, d])
    # left[c, a] conj(left[d, b]) G[c, d] over the pairs (c, d), one (K, C^2) x
    # (C^2, M_r^2) product per member, as every product over subcarriers here.
    # The dels keep a 64-member stack's peak down (see experiments.TRIAL_CHUNK).
    gram = right.conj() @ right.transpose(0, 2, 1)                         # (S, C, C)
    pairs = weights[..., :, None] * weights[..., None, :].conj()
    kernel = left[:, :, None, :, None] * left[:, None, :, None, :].conj() * gram[..., None, None]
    receive = pairs.reshape(count, k_sub, n_comp**2) @ kernel.reshape(count, n_comp**2, num_rx**2)
    del pairs
    _, vecs = eig_hermitian(receive.reshape(-1, num_rx, num_rx))
    del receive
    # u_i^H left_c of the loadable combiners, (S, K, slots, C)
    combiners = vecs.reshape(count, k_sub, num_rx, num_rx)[..., :slots].swapaxes(-1, -2)
    u_proj = combiners.conj().reshape(count, -1, num_rx) @ left.transpose(0, 2, 1)
    u_proj = u_proj.reshape(count, k_sub, slots, n_comp)
    del vecs, combiners
    gram_vals, gram_vecs = eig_hermitian(gram)
    factor = gram_vecs * np.sqrt(np.maximum(gram_vals, 0.0))[:, None, :]  # B (S, C, C)
    # z_i^T = (X_k^H u_i)^T conj(B), with X_k^H u_i = conj(weights[k] * u_proj[k, i])
    z = (weights[:, :, None, :] * u_proj).conj().reshape(count, k_sub * slots, n_comp)
    z = z @ factor.conj()
    del weights
    vals = np.sum(z.real**2 + z.imag**2, axis=-1).reshape(count, k_sub, slots)
    ranks = np.count_nonzero(vals > RANK_TOL * vals[..., :1], axis=-1)     # (S, K)
    loaded = np.arange(slots) < ranks[..., None]                           # (S, K, slots)
    # at unit power: signal lambda_i / r_k, precoder weight 1 / sqrt(r_k lambda_i)
    share = np.maximum(ranks, 1)[..., None]
    signal = np.where(loaded, vals / share, 0.0)
    weight = np.where(loaded, 1.0 / np.sqrt(share * np.where(loaded, vals, 1.0)), 0.0)
    # ramp-weighted precoder projections (B z_i)^T weight_i; unloaded slots are zero
    w_proj = (z * weight.reshape(count, -1, 1)) @ factor.transpose(0, 2, 1)
    w_proj = w_proj.reshape(count, k_sub, slots, n_comp) * ramp[:, :, None, :]
    del z

    # h and the ramp-weighted transmit Gram terms g over the pairs c <= d,
    # (S, pairs, K), correlated along K; the ICI reads the full Hermitian (C, C)
    first, second = np.triu_indices(n_comp)
    h = coeff[:, first] * coeff[:, second].conj()
    h[..., 0] = 0.0
    h = np.fft.ifft(h, norm="forward")                 # conj(fft(conj(h))), unscaled
    cross = np.einsum("skic,skid->scdk", w_proj, w_proj.conj())[:, first, second]
    del w_proj
    cross = np.fft.fft(cross)
    cross *= h
    del h
    cross = np.fft.ifft(cross).transpose(0, 2, 1)
    full = np.empty((count, k_sub, n_comp, n_comp), dtype=np.complex128)
    full[..., first, second] = cross
    full[..., second, first] = cross.conj()
    del cross
    ici = np.einsum("skid,skid->ski", np.einsum("skic,skcd->skid", u_proj, full), u_proj.conj())
    ici = np.maximum(ici.real, 0.0)                    # at unit power

    p = powers[None, :, None, None]
    sinr = np.where(loaded[:, None], p * signal[:, None] / (p * ici[:, None] + noise_var), 0.0)
    rates = k_sub / (k_sub + cp_length) * np.sum(np.log2(1.0 + sinr), axis=(-2, -1)) / k_sub
    r_max = max(1, int(ranks.max()))
    return np.ascontiguousarray(sinr[..., :r_max]), rates


def ofdm_design_and_rate(
    realization: ChannelRealization,
    num_subcarriers: int,
    cp_length: int,
    total_power: float,
    noise_var: float,
    num_streams: int,
) -> OfdmResult:
    """ofdm_design of one realization, with ofdm_rate's SINRs and rate at its own power."""
    design = ofdm_design(realization, num_subcarriers, total_power, num_streams)
    sinr, rate = ofdm_rate(
        [realization], num_subcarriers, [total_power], noise_var, cp_length, num_streams
    )
    return OfdmResult(
        design.precoder_coords,
        design.antenna_basis,
        design.combiners,
        design.singular_values,
        sinr[0, 0],
        design.ranks,
        float(rate[0, 0]),
    )


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
    The transmit step runs in the path coordinates (H_l = C_l Q^H): the top
    eigenvector e of its n x n form gives f = Q e, so no eigenproblem has an
    M_t axis, and f differs from the M_t x M_t form's eigenvector by one
    phase at most, which leaves every |gain|, and the OTFS rate, unchanged.
    """
    basis, coords = realization.path_basis, realization.path_coords
    mn = config.grid_size
    i_taps, j_taps = config.delay_taps, config.doppler_taps
    overlap = mn * (
        (i_taps[:, None] == i_taps[None, :]) & (j_taps[:, None] == j_taps[None, :])
    ).astype(np.float64)
    f = config.tx_beam.copy()
    v = config.rx_beam.copy()
    e = basis.conj().T @ f                                     # f's path coordinates

    def gain(e_vec: np.ndarray, v_vec: np.ndarray) -> float:
        h = np.einsum("r,lrn,n->l", v_vec.conj(), coords, e_vec)
        return float((h.conj() @ overlap @ h).real)

    trace = [gain(e, v)]
    for _ in range(BEAM_OPT_MAX_ITERS):
        b_rows = np.einsum("r,lrn->ln", v.conj(), coords)      # row l = v^H C_l
        lam = b_rows.conj().T @ overlap @ b_rows
        [vals], [vecs] = eig_hermitian(lam[None])
        if vals[0] <= 0:
            break
        e = vecs[:, 0]
        f = basis @ e
        c_cols = coords @ e                                    # row l = H_l f = C_l e
        gam = c_cols.T @ overlap @ c_cols.conj()
        [vals], [vecs] = eig_hermitian(gam[None])
        if vals[0] <= 0:
            break
        v = vecs[:, 0]
        current = gain(e, v)
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
    normalized by the frame length plus its cyclic prefix. Under the unitary
    MN-point DFT, Doppler tap j is one cyclic diagonal, H_f[q, q - j] = sum
    of g_l exp(-2 pi i q i_l / MN) over its paths, so the Gram is a cyclic
    band of half-width span = max j - min j. The order 0, MN-1, 1, MN-2, ...
    folds it into a plain band of half-width min(2 span, MN - 1), where
    entries that collide on small grids add up, and one banded Cholesky gives
    the log-determinant (the dense chain in tests/oracles.py is the reference).
    The gains and both tap arrays must be non-empty 1-D arrays of one length,
    one entry per path; the gains finite, the taps whole numbers in
    OtfsConfig's ranges, the grid sizes integers >= 1 and cp_length an integer
    >= 0 (bools are not integers here); else ContractViolationError. A Gram
    that overflows, or that rounding leaves indefinite, raises NumericalError.
    """
    # loaded here, not at import: only OTFS needs scipy.linalg
    import scipy.linalg

    num_delay_bins = _checked_int(num_delay_bins, "num_delay_bins", 1)
    num_doppler_bins = _checked_int(num_doppler_bins, "num_doppler_bins", 1)
    cp_length = _checked_int(cp_length, "cp_length", 0)
    if not (math.isfinite(power_over_noise) and power_over_noise >= 0):
        raise ContractViolationError("power_over_noise must be finite and >= 0")
    gains = np.asarray(effective_gains, dtype=np.complex128)
    delay_taps, doppler_taps = _checked_taps(
        delay_taps, doppler_taps, num_delay_bins, num_doppler_bins
    )
    if gains.shape != delay_taps.shape or not (gains.size and np.isfinite(gains).all()):
        raise ContractViolationError("finite gains and taps must be matching non-empty 1-D arrays")
    mn = num_delay_bins * num_doppler_bins
    q = np.arange(mn)
    shifts, which = np.unique(doppler_taps, return_inverse=True)
    phases = np.exp(-2j * np.pi * (np.outer(delay_taps, q) % mn) / mn)
    # Gram entry (q, q - j + j') for each pair (j, j'), placed in the order 0, MN-1, 1, MN-2, ...
    partner = (q + shifts[None, :, None] - shifts[:, None, None]) % mn
    pos = np.where(2 * q < mn, 2 * q, 2 * (mn - q) - 1)
    col = pos[partner]
    u = min(2 * int(shifts[-1] - shifts[0]), mn - 1)
    band = np.zeros((2 * u + 1, mn), dtype=np.complex128)  # entry (r, c) at [u + r - c, c]
    band[u] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        # diags[k][q] = H_f[q, q - shifts[k]]
        diags = (which == np.arange(shifts.size)[:, None]) @ (gains[:, None] * phases)
        far = np.take_along_axis(diags[None], partner, 2).conj()
        np.add.at(band, (u + pos - col, col), power_over_noise * diags[:, None] * far)
    if not np.isfinite(band).all():
        raise NumericalError("the OTFS Gram overflowed")
    try:
        factor = scipy.linalg.cholesky_banded(band[: u + 1], check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"banded Cholesky of the OTFS Gram failed: {exc}") from exc
    return 2.0 * float(np.sum(np.log2(factor[u].real))) / (mn + cp_length)


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
