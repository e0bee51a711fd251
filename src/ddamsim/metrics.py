"""Link-quality metrics: QAM BER curves, PAPR statistics, guard overheads,
and the imperfect-CSI perturbation model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import PathSet, _checked_int
from .errors import ContractViolationError, NumericalError


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    # loaded here, not at import: only the BER curves need scipy
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def _check_order(order: int) -> int:
    bits = int(order).bit_length() - 1
    if order < 4 or (1 << bits) != order:
        raise ContractViolationError(f"modulation order must be a power of two >= 4, got {order}")
    return bits


def qam_awgn_ber(snr_linear, order: int) -> np.ndarray:
    """Gray-coded QAM bit error rate over AWGN.

    Nearest-neighbor approximation
    (4 / log2(Q)) * (1 - 1/sqrt(Q)) * Q(sqrt(3*snr/(Q-1))), strictly
    decreasing in the SNR. Exact in the Gray-coded nearest-neighbor sense
    for square constellations and a standard approximation for the cross
    ones (Q = 32, 128, ...). A negative or NaN SNR raises
    ContractViolationError; an infinite one has BER 0.
    """
    bits = _check_order(order)
    snr = np.asarray(snr_linear, dtype=np.float64)
    if not np.all(snr >= 0):
        raise ContractViolationError("snr_linear must be non-negative, not NaN")
    scale = (4.0 / bits) * (1.0 - 1.0 / math.sqrt(order))
    return scale * qfunc(np.sqrt(3.0 * snr / (order - 1)))


def ofdm_ber(per_subcarrier_snr, num_subcarriers: int, max_delay_tap: int, order: int) -> float:
    """OFDM bit error rate averaged over subcarriers.

    Each subcarrier SNR is first derated by K / (K + m_max) for the cyclic
    prefix, then pushed through the AWGN QAM curve; the ICI folded into the
    SNRs is treated as Gaussian.
    """
    _checked_int(num_subcarriers, "num_subcarriers", 1)
    _checked_int(max_delay_tap, "max_delay_tap", 0)
    snr = np.asarray(per_subcarrier_snr, dtype=np.float64)
    if snr.shape != (num_subcarriers,):
        raise ContractViolationError(
            f"need one SNR per subcarrier, got shape {snr.shape} for K = {num_subcarriers}"
        )
    derated = num_subcarriers * snr / (num_subcarriers + max_delay_tap)
    return float(np.mean(qam_awgn_ber(derated, order)))


@functools.cache
def qam_constellation(order: int) -> np.ndarray:
    """Unit-average-energy QAM points.

    Even bit counts give the square grid; odd bit counts of 32 and above
    give the cross constellation (the square one size up with its corners
    cut). 8-QAM has no standard cross shape and is rejected. Each order is
    built on its first use and cached, so the returned array is read-only.
    """
    bits = _check_order(order)
    if bits % 2 == 0:
        side = 1 << (bits // 2)
        axis = np.arange(-side + 1, side, 2, dtype=np.float64)
        points = (axis[:, None] + 1j * axis[None, :]).ravel()
    else:
        if order < 32:
            raise ContractViolationError("cross QAM needs order >= 32")
        side = 3 << ((bits - 3) // 2)
        corner = 1 << ((bits - 5) // 2)
        axis = np.arange(-side + 1, side, 2, dtype=np.float64)
        grid = axis[:, None] + 1j * axis[None, :]
        keep = ~(
            (np.abs(grid.real) > side - 2 * corner)
            & (np.abs(grid.imag) > side - 2 * corner)
        )
        points = grid[keep].ravel()
    if points.size != order:
        raise ContractViolationError(f"constellation construction failed for order {order}")
    points = points / math.sqrt(float(np.mean(np.abs(points) ** 2)))
    points.flags.writeable = False
    return points


def qam_symbols(order: int, size, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. draws from the unit-energy constellation."""
    points = qam_constellation(order)
    return points[rng.integers(0, order, size=size)]


def papr_db(frame: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-antenna PAPR of one frame, in dB.

    frame has one time sample per row and one antenna per column. Antennas
    with zero average power carry no signal and are excluded; the count of
    exclusions is returned alongside. A non-finite sample raises
    NumericalError: a NaN antenna would otherwise read as silent.
    """
    x = np.asarray(frame, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ContractViolationError("frame must be a non-empty 2-D array (samples x antennas)")
    power = np.abs(x) ** 2
    mean = power.mean(axis=0)
    # a NaN or infinite sample leaves its antenna's mean power non-finite
    if not np.isfinite(mean).all():
        raise NumericalError("frame has a non-finite sample")
    peak = power.max(axis=0)
    active = mean > 0
    ratios = peak[active] / mean[active]
    return 10.0 * np.log10(ratios), int(np.sum(~active))


def exceedance_fractions(values, thresholds) -> np.ndarray:
    """Fraction of values strictly above each threshold; zeros for no values."""
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    if v.size == 0:
        return np.zeros(t.shape)
    return np.mean(v[None, :] > t[:, None], axis=1)


def guard_overhead(scheme: str, **params) -> float:
    """Fraction of airtime spent on guard intervals.

    ddam needs 2 * max_delay_tap guard samples once per path-invariant
    window of frame_samples; ofdm pays a cyclic prefix of max_delay_tap per
    num_subcarriers; otfs pays it once per num_delay_bins*num_doppler_bins
    frame.
    """

    def need(*names) -> list:
        missing = [n for n in names if n not in params]
        if missing:
            raise ContractViolationError(f"guard_overhead({scheme!r}) missing {missing}")
        extra = set(params) - set(names)
        if extra:
            raise ContractViolationError(f"guard_overhead({scheme!r}) got unexpected {sorted(extra)}")
        return [params[n] for n in names]

    if scheme == "ddam":
        m, n_bar = need("max_delay_tap", "frame_samples")
        if n_bar < 1:
            raise ContractViolationError("frame_samples must be >= 1")
        return 2.0 * m / n_bar
    if scheme == "ofdm":
        m, k = need("max_delay_tap", "num_subcarriers")
        return m / (m + k)
    if scheme == "otfs":
        m, mm, nn = need("max_delay_tap", "num_delay_bins", "num_doppler_bins")
        return m / (mm * nn + m)
    raise ContractViolationError(f"unknown scheme {scheme!r}")


# --- imperfect delay/Doppler knowledge ---------------------------------------


@dataclass
class CsiError:
    """Delay/Doppler estimation error model.

    delay_accuracy is the expected fraction of paths whose integer delay is
    estimated correctly; doppler_error_coeff, finite and >= 0, scales the
    Doppler error standard deviation relative to the Doppler bound. After
    perturb_csi has run, indicator holds the per-path delay-correct flags
    that were actually realized.
    """

    delay_accuracy: float
    doppler_error_coeff: float
    indicator: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_accuracy <= 1.0:
            raise ContractViolationError("delay_accuracy must lie in [0, 1]")
        # a NaN would compare False against 0 and read as perfect Doppler CSI
        coeff = self.doppler_error_coeff
        if not (math.isfinite(coeff) and coeff >= 0):
            raise ContractViolationError(
                f"doppler_error_coeff must be finite and >= 0, got {coeff!r}"
            )
        if self.indicator is not None:
            self.indicator = np.asarray(self.indicator, dtype=np.int64)
            if np.any((self.indicator != 0) & (self.indicator != 1)):
                raise ContractViolationError("indicator entries must be 0 or 1")

    @property
    def realized_accuracy(self) -> float:
        if self.indicator is None:
            raise ContractViolationError("no realization recorded yet")
        return float(np.mean(self.indicator))


def draw_csi(
    paths: PathSet, errors: list[CsiError], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw E estimates of a path set's delays and Dopplers, one per error model.

    Returns the (E, L) estimated delay taps, Doppler shifts and realized
    per-path delay-correct indicators; row e applies errors[e] as
    perturb_csi describes. The rows draw from rng in order, each exactly
    as a perturb_csi call with its model would, so E calls of perturb_csi
    on one generator give the same rows and leave it in the same state. A
    model that moves no delay and adds no Doppler error draws nothing and
    keeps the true row.
    """
    num_paths = paths.num_paths
    tap_bound = paths.delay_tap_bound
    bound = paths.doppler_bound_hz
    delays = np.repeat(paths.delay_taps[None], len(errors), axis=0)
    doppler = np.repeat(paths.doppler_hz[None], len(errors), axis=0)
    indicator = np.ones((len(errors), num_paths), dtype=np.int64)
    for row, err in enumerate(errors):
        # tiny back-off guards float fuzz: (1 - 0.9) * 10 is 0.9999999999999998
        num_wrong = int(math.floor((1.0 - err.delay_accuracy) * num_paths + 1e-9))
        if num_wrong > 0:
            taps = delays[row]
            taken = set(taps.tolist())
            for idx in rng.choice(num_paths, size=num_wrong, replace=False).tolist():
                sign = 1 if rng.integers(0, 2) else -1
                tap = int(taps[idx])
                outward = (
                    tap + offset
                    for magnitude in range(1, tap_bound + 2)
                    for offset in (sign * magnitude, -sign * magnitude)
                )
                moved = next((c for c in outward if 0 <= c <= tap_bound and c not in taken), None)
                if moved is not None:
                    taken.remove(tap)
                    taken.add(moved)
                    taps[idx] = moved
                    indicator[row, idx] = 0
        if err.doppler_error_coeff > 0 and bound > 0:
            std = err.doppler_error_coeff * bound / math.sqrt(2.0)
            doppler[row] = doppler[row] + std * rng.standard_normal(num_paths)
    return delays, doppler, indicator


def perturb_csi(
    paths: PathSet, err: CsiError, rng: np.random.Generator
) -> tuple[PathSet, CsiError]:
    """Corrupt the estimated delays and Dopplers of a path set.

    floor((1 - delay_accuracy) * L) paths, chosen uniformly, get their
    delay tap moved by +-1 (resampled outward to +-2, ... when the first
    choice would collide with another tap or leave the valid range; in the
    degenerate case of a fully occupied tap grid the path keeps its delay
    and is reported as correct). Every path's Doppler gains an additive
    error: the real part of a circular Gaussian whose variance is
    (doppler_error_coeff * doppler_bound)^2, i.e. a real standard deviation
    of doppler_error_coeff * doppler_bound / sqrt(2).

    Returns the perturbed paths plus a copy of the error model carrying the
    realized per-path indicator flags. The draw is draw_csi's for one model.
    """
    [delays], [doppler], [indicator] = draw_csi(paths, [err], rng)
    new_bound = max(paths.doppler_bound_hz, float(np.max(np.abs(doppler))))
    perturbed = replace(
        paths, delay_taps=delays, doppler_hz=doppler, doppler_bound_hz=new_bound
    )
    return perturbed, replace(err, indicator=indicator)
