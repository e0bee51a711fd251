"""Time-variant frequency-selective MIMO channel model.

The channel is a sum of discrete paths. Path l carries a complex gain, a
pair of uniform-linear-array angles (arrival and departure), an integer
delay tap and a Doppler shift, so the tap-domain impulse response at sample
n reads

    H[n, m] = sum_l H_l * exp(j*2*pi*nu_l*n*T_s) * delta[m - m_l]

with H_l = alpha_l * a_rx(phi_l) * a_tx(psi_l)^H a rank-one matrix. The
module provides path sampling, steering vectors, channel realization, an
exact time-domain convolution oracle, the double-timescale partition
(Doppler coherence vs. delay/angle invariance) and a JSON round trip for
realizations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT_MPS, SystemConfig
from .errors import ContractViolationError

_MAX_DELAY_REDRAWS = 10_000


@dataclass
class PathSet:
    """Geometry and gains of the resolvable multipath components.

    Delay taps are pairwise distinct integers in [0, delay_tap_bound] and
    every Doppler shift is bounded by doppler_bound_hz in magnitude.
    """

    gains: np.ndarray          # complex, shape (L,)
    aoa_rad: np.ndarray        # angles of arrival, shape (L,)
    aod_rad: np.ndarray        # angles of departure, shape (L,)
    delay_taps: np.ndarray     # integer taps, shape (L,)
    doppler_hz: np.ndarray     # per-path Doppler shifts, shape (L,)
    doppler_bound_hz: float
    delay_tap_bound: int

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        self.aoa_rad = np.asarray(self.aoa_rad, dtype=np.float64)
        self.aod_rad = np.asarray(self.aod_rad, dtype=np.float64)
        self.delay_taps = np.asarray(self.delay_taps, dtype=np.int64)
        self.doppler_hz = np.asarray(self.doppler_hz, dtype=np.float64)
        n = self.gains.shape[0]
        if n == 0:
            raise ContractViolationError("PathSet needs at least one path")
        for name in ("aoa_rad", "aod_rad", "delay_taps", "doppler_hz"):
            if getattr(self, name).shape != (n,):
                raise ContractViolationError(f"PathSet field {name} has mismatched length")
        if len(set(self.delay_taps.tolist())) != n:
            raise ContractViolationError("delay taps must be pairwise distinct")
        if self.delay_taps.min() < 0 or self.delay_taps.max() > self.delay_tap_bound:
            raise ContractViolationError(
                f"delay taps must lie in [0, {self.delay_tap_bound}]"
            )
        if np.any(np.abs(self.doppler_hz) > self.doppler_bound_hz * (1 + 1e-12) + 1e-12):
            raise ContractViolationError("a Doppler shift exceeds doppler_bound_hz")

    @property
    def num_paths(self) -> int:
        return int(self.gains.shape[0])

    @property
    def max_delay_tap(self) -> int:
        return int(self.delay_taps.max())


@dataclass
class ChannelRealization:
    """Per-path channel matrices plus the sampling interval they live on."""

    path_set: PathSet
    matrices: np.ndarray       # complex, shape (L, M_r, M_t)
    symbol_duration_s: float

    def __post_init__(self) -> None:
        self.matrices = np.asarray(self.matrices, dtype=np.complex128)
        if self.matrices.ndim != 3:
            raise ContractViolationError("matrices must have shape (L, M_r, M_t)")
        if self.matrices.shape[0] != self.path_set.num_paths:
            raise ContractViolationError("one matrix per path required")
        if self.symbol_duration_s <= 0:
            raise ContractViolationError("symbol_duration_s must be positive")

    @property
    def num_rx(self) -> int:
        return int(self.matrices.shape[1])

    @property
    def num_tx(self) -> int:
        return int(self.matrices.shape[2])


@dataclass(frozen=True)
class Timebase:
    """Double-timescale partition of the frame.

    Doppler phases are treated as constant over one coherence block of
    samples_per_coherence samples, while delays, angles and gains are
    constant over the much longer path-invariant window.
    """

    coherence_time_s: float
    samples_per_coherence: int
    path_invariant_time_s: float
    samples_per_invariant: int
    symbol_duration_s: float


def array_response(num_antennas: int, angle_rad: float) -> np.ndarray:
    """Half-wavelength ULA steering vector, entry k = exp(j*pi*k*sin(angle))."""
    if num_antennas < 1:
        raise ContractViolationError("num_antennas must be >= 1")
    k = np.arange(num_antennas)
    return np.exp(1j * np.pi * k * math.sin(angle_rad))


def generate_paths(config: SystemConfig, rng: np.random.Generator) -> PathSet:
    """Draw a random multipath profile for one path-invariant window.

    Delay taps are uniform on the integer grid [0, ceil(tau_max * B)] and
    redrawn until pairwise distinct. Doppler shifts follow the classic ring
    model nu_max * cos(theta) with theta uniform on [-pi, pi]. Angles of
    arrival and departure are equally spaced across [-60, 60] degrees.
    Complex gains are CN(0, w_l), where the mean profile w is geometric in
    the delay order: the earliest arrival carries the most power and each
    later path is path_power_ratio times weaker, mimicking the dominant
    near-line-of-sight component of measured mmWave links. The profile is
    normalized to sum(w) = 1 and scaled by path_gain_db.
    """
    num_paths = config.num_paths
    tap_bound = config.max_delay_tap
    if num_paths > tap_bound + 1:
        raise ContractViolationError(
            f"cannot place {num_paths} distinct delay taps in [0, {tap_bound}]"
        )
    delays = None
    for _ in range(_MAX_DELAY_REDRAWS):
        cand = rng.integers(0, tap_bound + 1, size=num_paths)
        if len(set(cand.tolist())) == num_paths:
            delays = cand
            break
    if delays is None:
        raise ContractViolationError("failed to draw distinct delay taps")

    nu_max = config.max_doppler_hz
    doppler = nu_max * np.cos(rng.uniform(-np.pi, np.pi, size=num_paths))

    if num_paths == 1:
        angles = np.zeros(1)
    else:
        angles = np.linspace(-np.pi / 3, np.pi / 3, num_paths)

    weights = np.empty(num_paths)
    weights[np.argsort(delays)] = config.path_power_ratio ** np.arange(num_paths)
    weights = weights / weights.sum()
    scale = 10.0 ** (config.path_gain_db / 10.0)
    std = np.sqrt(scale * weights / 2.0)
    gains = std * (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))

    return PathSet(
        gains=gains,
        aoa_rad=angles.copy(),
        aod_rad=angles.copy(),
        delay_taps=delays,
        doppler_hz=doppler,
        doppler_bound_hz=nu_max,
        delay_tap_bound=tap_bound,
    )


def realize_channel(paths: PathSet, config: SystemConfig) -> ChannelRealization:
    """Build the rank-one per-path matrices H_l = alpha_l a_rx a_tx^H."""
    m_r, m_t = config.num_rx_antennas, config.num_tx_antennas
    mats = np.empty((paths.num_paths, m_r, m_t), dtype=np.complex128)
    for l in range(paths.num_paths):
        a_rx = array_response(m_r, paths.aoa_rad[l])
        a_tx = array_response(m_t, paths.aod_rad[l])
        mats[l] = paths.gains[l] * np.outer(a_rx, a_tx.conj())
    return ChannelRealization(
        path_set=paths, matrices=mats, symbol_duration_s=config.symbol_duration_s
    )


def apply_channel(
    realization: ChannelRealization,
    tx: np.ndarray,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Exact time-domain channel oracle.

    r[n] = sum_l H_l exp(j*2*pi*nu_l*n*T_s) x[n - m_l] + z[n], with x = 0
    for negative indices and z circularly symmetric complex Gaussian with
    per-entry variance noise_std**2. noise_std = 0 skips the rng entirely.
    """
    x = np.asarray(tx, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] != realization.num_tx:
        raise ContractViolationError(
            f"tx must have shape (N, {realization.num_tx}), got {x.shape}"
        )
    n_samples = x.shape[0]
    paths = realization.path_set
    ts = realization.symbol_duration_s
    out = np.zeros((n_samples, realization.num_rx), dtype=np.complex128)
    n_idx = np.arange(n_samples)
    for l in range(paths.num_paths):
        m_l = int(paths.delay_taps[l])
        if m_l >= n_samples:
            continue
        phase = np.exp(2j * np.pi * paths.doppler_hz[l] * n_idx[m_l:] * ts)
        out[m_l:] += (x[: n_samples - m_l] @ realization.matrices[l].T) * phase[:, None]
    if noise_std > 0.0:
        if rng is None:
            raise ContractViolationError("noise_std > 0 requires an rng")
        noise = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        out += noise * (noise_std / math.sqrt(2.0))
    return out


def coherence_partition(config: SystemConfig) -> Timebase:
    """Split time into Doppler-coherence blocks and a path-invariant window.

    The coherence time is coherence_coeff / nu_max; the path-invariant
    window is the longest T with v * T <= c / B (the user moves less than
    one delay resolution cell). Both are floored onto the sample grid. At
    zero velocity both degenerate to static_frame_duration_s.
    """
    ts = config.symbol_duration_s
    if config.velocity_mps == 0.0:
        t_c = t_bar = config.static_frame_duration_s
    else:
        nu_max = config.max_doppler_hz
        t_c = config.coherence_coeff / nu_max
        t_bar = SPEED_OF_LIGHT_MPS / (config.velocity_mps * config.bandwidth_hz)
    if t_bar < t_c:
        raise ContractViolationError(
            "path-invariant window shorter than a coherence block; "
            "check carrier frequency, bandwidth and coherence_coeff"
        )
    # tiny nudge so exactly-integral products do not floor one short
    n_c = int(math.floor(config.bandwidth_hz * t_c + 1e-6))
    n_bar = int(math.floor(config.bandwidth_hz * t_bar + 1e-6))
    if n_c < 1 or n_bar < 1:
        raise ContractViolationError("timebase shorter than one sample")
    return Timebase(
        coherence_time_s=t_c,
        samples_per_coherence=n_c,
        path_invariant_time_s=t_bar,
        samples_per_invariant=n_bar,
        symbol_duration_s=ts,
    )


# --- JSON round trip -------------------------------------------------------
#
# Schema (version 1):
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
    return ChannelRealization(
        path_set=paths,
        matrices=mats[..., 0] + 1j * mats[..., 1],
        symbol_duration_s=float(symbol_s),
    )
