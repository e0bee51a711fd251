"""System configuration for the simulated link.

A single `SystemConfig` drives everything downstream: path generation,
channel realization, precoder design and the experiment runner. Configs are
immutable; sweeps use `dataclasses.replace`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ContractViolationError

SPEED_OF_LIGHT_MPS = 3.0e8


@dataclass(frozen=True)
class SystemConfig:
    carrier_freq_hz: float = 28e9        # carrier frequency
    bandwidth_hz: float = 100e6          # system bandwidth, sample rate 1/T_s
    num_tx_antennas: int = 64            # transmit ULA size
    num_rx_antennas: int = 2             # receive ULA size
    num_streams: int = 2                 # spatially multiplexed data streams
    num_paths: int = 3                   # resolvable multipath components
    tx_power_watts: float = 1.0          # total transmit power (30 dBm)
    noise_psd_dbm_per_hz: float = -174.0
    velocity_mps: float = 50.0           # user speed (180 km/h)
    coherence_coeff: float = 0.1         # channel coherence time = coeff / nu_max
    max_delay_s: float = 400e-9          # delay spread upper bound
    rng_seed: int = 0
    path_gain_db: float = -92.0          # large-scale gain of the normalized profile
    path_power_ratio: float = 0.1        # mean power ratio between successive delay-ordered paths
    static_frame_duration_s: float = 1e-3  # stands in for T_c and T_bar when v = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ContractViolationError(f"{f.name} must be finite")
        if self.bandwidth_hz <= 0:
            raise ContractViolationError("bandwidth_hz must be positive")
        if self.carrier_freq_hz <= 0:
            raise ContractViolationError("carrier_freq_hz must be positive")
        for name in ("num_tx_antennas", "num_rx_antennas", "num_streams", "num_paths"):
            if getattr(self, name) < 1:
                raise ContractViolationError(f"{name} must be >= 1")
        if self.num_streams > min(self.num_tx_antennas, self.num_rx_antennas):
            raise ContractViolationError(
                "num_streams cannot exceed min(num_tx_antennas, num_rx_antennas)"
            )
        if self.tx_power_watts <= 0:
            raise ContractViolationError("tx_power_watts must be positive")
        if not 0 < self.coherence_coeff <= 1:
            raise ContractViolationError("coherence_coeff must lie in (0, 1]")
        if self.max_delay_s < 0:
            raise ContractViolationError("max_delay_s must be non-negative")
        if self.velocity_mps < 0:
            raise ContractViolationError("velocity_mps must be non-negative")
        if not 0 < self.path_power_ratio <= 1:
            raise ContractViolationError("path_power_ratio must lie in (0, 1]")
        if self.static_frame_duration_s <= 0:
            raise ContractViolationError("static_frame_duration_s must be positive")

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def max_doppler_hz(self) -> float:
        return self.velocity_mps * self.carrier_freq_hz / SPEED_OF_LIGHT_MPS

    @property
    def noise_power_watts(self) -> float:
        psd_w_per_hz = 10.0 ** ((self.noise_psd_dbm_per_hz - 30.0) / 10.0)
        return psd_w_per_hz * self.bandwidth_hz

    @property
    def max_delay_tap(self) -> int:
        # tiny back-off guards float fuzz in tau_max * B when it is integral
        return int(math.ceil(self.max_delay_s * self.bandwidth_hz - 1e-9))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INT_FIELDS = {
    "num_tx_antennas",
    "num_rx_antennas",
    "num_streams",
    "num_paths",
    "rng_seed",
}


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from a mapping; unknown keys and non-numbers are errors."""
    known = {f.name for f in fields(SystemConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ContractViolationError(
            f"unknown config keys: {', '.join(unknown)}; valid keys: {', '.join(sorted(known))}"
        )
    coerced = {}
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ContractViolationError(f"config key {key} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ContractViolationError(f"config key {key} is out of range") from None
        if key in _INT_FIELDS:
            if not number.is_integer():
                raise ContractViolationError(f"config key {key} must be an integer")
            coerced[key] = int(value)
        else:
            coerced[key] = number
    return SystemConfig(**coerced)


def load_config(path: str) -> SystemConfig:
    """Read a JSON config file mirroring SystemConfig field names."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ContractViolationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ContractViolationError("config file must contain a JSON object")
    return config_from_dict(data)
