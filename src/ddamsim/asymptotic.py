"""Single-stream maximum-ratio design and its large-array limit.

When the transmit array grows, the per-path steering vectors become
asymptotically orthogonal, so matched filtering each path individually is
optimal: cross-path interference vanishes and the aligned paths add
coherently at the receiver. These routines implement the matched-filter
precoders, the receive combiner that maximizes the coherent sum, the
closed-form optimal power split across paths and the resulting SNR
expressions.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelRealization, _checked_positive, array_response
from .config import SystemConfig
from .errors import ContractViolationError
from .zf import DdamDesign


def mrt_precoders(realization: ChannelRealization, power_alloc: np.ndarray) -> np.ndarray:
    """Per-path matched filters f_l = sqrt(p_l) alpha_l^* a_tx(psi_l) / (|alpha_l| sqrt(M_t)).

    Paths with zero allocated power or zero gain get a zero vector. The
    result has shape (L, M_t, 1) and squared norms equal to power_alloc.
    """
    paths = realization.path_set
    powers = np.asarray(power_alloc, dtype=np.float64)
    if powers.shape != (paths.num_paths,):
        raise ContractViolationError("power_alloc must have one entry per path")
    if np.any(powers < 0):
        raise ContractViolationError("powers must be non-negative")
    num_tx = realization.num_tx
    out = np.zeros((paths.num_paths, num_tx, 1), dtype=np.complex128)
    for l in range(paths.num_paths):
        gain = paths.gains[l]
        if powers[l] == 0.0 or gain == 0:
            continue
        a_tx = array_response(num_tx, paths.aod_rad[l])
        direction = np.conj(gain) / abs(gain) * a_tx / math.sqrt(num_tx)
        out[l, :, 0] = math.sqrt(powers[l]) * direction
    return out


def _coherent_rx_sum(
    realization: ChannelRealization, power_alloc: np.ndarray
) -> np.ndarray:
    """sum_l sqrt(p_l) |alpha_l| a_rx(phi_l), the coherent receive sum."""
    paths = realization.path_set
    powers = np.asarray(power_alloc, dtype=np.float64)
    if powers.shape != (paths.num_paths,):
        raise ContractViolationError("power_alloc must have one entry per path")
    num_rx = realization.num_rx
    acc = np.zeros(num_rx, dtype=np.complex128)
    for l in range(paths.num_paths):
        acc += math.sqrt(powers[l]) * abs(paths.gains[l]) * array_response(
            num_rx, paths.aoa_rad[l]
        )
    return acc


def asymptotic_combiner(realization: ChannelRealization, power_alloc: np.ndarray) -> np.ndarray:
    """Unit-norm combiner along sum_l sqrt(p_l) |alpha_l| a_rx(phi_l).

    This is the receive direction that maximizes the SNR of the coherently
    aligned matched-filter design in the large-array limit.
    """
    acc = _coherent_rx_sum(realization, power_alloc)
    norm = np.linalg.norm(acc)
    if norm == 0.0:
        raise ContractViolationError("combiner direction is zero (no power or gains)")
    return (acc / norm)[:, None]


def combined_asymptotic_snr(
    realization: ChannelRealization, power_alloc: np.ndarray, noise_var: float
) -> float:
    """Large-array SNR of the matched-filter design with optimal combining.

    gamma = M_t || sum_l sqrt(p_l) |alpha_l| a_rx(phi_l) ||^2 / noise_var.
    """
    acc = _coherent_rx_sum(realization, power_alloc)
    return realization.num_tx * float(np.linalg.norm(acc) ** 2) / noise_var


def snr_upper_bound(
    config: SystemConfig, power_alloc: np.ndarray, gains: np.ndarray
) -> float:
    """Triangle-inequality bound M_t M_r (sum_l sqrt(p_l) |alpha_l|)^2 / noise_var."""
    powers = np.asarray(power_alloc, dtype=np.float64)
    amp = float(np.sum(np.sqrt(powers) * np.abs(gains)))
    return config.num_tx_antennas * config.num_rx_antennas * amp * amp / config.noise_power_watts


def mrt_power_allocation(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Optimal power split across matched-filtered paths.

    Maximizing (sum_l sqrt(p_l) |alpha_l|)^2 under sum p_l = P gives
    p_l = P |alpha_l|^2 / sum_i |alpha_i|^2.
    """
    g = np.abs(np.asarray(gains, dtype=np.complex128)) ** 2
    if g.ndim != 1 or g.size == 0:
        raise ContractViolationError("gains must be a non-empty 1-D array")
    _checked_positive(total_power, "total_power")
    total = g.sum()
    if total == 0.0:
        raise ContractViolationError("all path gains are zero")
    return total_power * g / total


def asymptotic_snr(config: SystemConfig, gains: np.ndarray) -> float:
    """Best-case aligned SNR (P / noise) * M_t * M_r * sum_l |alpha_l|^2.

    This is the upper bound evaluated at the optimal power split, achieved
    when all receive steering vectors are collinear (or M_r = 1).
    """
    g2 = float(np.sum(np.abs(np.asarray(gains)) ** 2))
    return (
        config.tx_power_watts
        / config.noise_power_watts
        * config.num_tx_antennas
        * config.num_rx_antennas
        * g2
    )


def mrt_design(
    realization: ChannelRealization, power_alloc: np.ndarray
) -> DdamDesign:
    """Assemble a full single-stream aligned design from the matched filters."""
    paths = realization.path_set
    return DdamDesign(
        mrt_precoders(realization, power_alloc),
        asymptotic_combiner(realization, power_alloc),
        paths.delay_taps,
        paths.doppler_hz,
    )
