"""Time-variant frequency-selective MIMO channel model.

The channel is a sum of discrete paths. Path l carries a complex gain, a
pair of uniform-linear-array angles (arrival and departure), an integer
delay tap and a Doppler shift, so the tap-domain impulse response at sample
n reads

    H[n, m] = sum_l H_l * exp(j*2*pi*nu_l*n*T_s) * delta[m - m_l]

with H_l = alpha_l * a_rx(phi_l) * a_tx(psi_l)^H a rank-one matrix. The
module provides path sampling, steering vectors, channel realization, an
exact time-domain convolution oracle and the double-timescale partition
(Doppler coherence vs. delay/angle invariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT_MPS, SystemConfig, _checked_int
from .errors import ContractViolationError

_MAX_DELAY_REDRAWS = 10_000


def _whole_numbers(values, name: str) -> np.ndarray:
    """values as int64; a NaN, inf, 2.7 or bool raises instead of being cast silently."""
    raw = np.asarray(values)
    kind = raw.dtype.kind
    if kind not in "iu" and not (
        kind == "f" and np.isfinite(raw).all() and (raw == np.trunc(raw)).all()
    ):
        raise ContractViolationError(f"{name} must be whole numbers, got {values!r}")
    return raw.astype(np.int64, copy=False)


def _checked_positive(value, name: str) -> None:
    """ContractViolationError unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ContractViolationError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class PathSet:
    """Geometry and gains of the resolvable multipath components.

    Delay taps are pairwise distinct whole numbers in [0, delay_tap_bound]
    (a fractional, non-finite or bool tap raises), the tap bound is an
    integer >= 0 (not a bool), every Doppler shift is bounded by
    doppler_bound_hz in magnitude, and gains, angles, Dopplers and the
    bound are finite.
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
        self.delay_taps = _whole_numbers(self.delay_taps, "delay taps")
        self.doppler_hz = np.asarray(self.doppler_hz, dtype=np.float64)
        n = self.gains.shape[0]
        if n == 0:
            raise ContractViolationError("PathSet needs at least one path")
        for name in ("aoa_rad", "aod_rad", "delay_taps", "doppler_hz"):
            if getattr(self, name).shape != (n,):
                raise ContractViolationError(f"PathSet field {name} has mismatched length")
        # a NaN would pass every comparison below
        for name in ("gains", "aoa_rad", "aod_rad", "doppler_hz"):
            if not np.isfinite(getattr(self, name)).all():
                raise ContractViolationError(f"PathSet field {name} must be finite")
        if not math.isfinite(self.doppler_bound_hz):
            raise ContractViolationError("PathSet field doppler_bound_hz must be finite")
        self.delay_tap_bound = _checked_int(self.delay_tap_bound, "delay_tap_bound", 0)
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
    """Per-path channel matrices, their path basis and the sampling interval they live on.

    path_basis Q and path_coords C are path_coordinates(matrices), so H_l =
    C_l Q^H. The matrices are finite, Q and C have the shapes below, n =
    min(M_t, L * M_r), and the interval is finite and positive.
    """

    path_set: PathSet
    matrices: np.ndarray       # complex, shape (L, M_r, M_t)
    symbol_duration_s: float
    path_basis: np.ndarray     # Q, complex, shape (M_t, n)
    path_coords: np.ndarray    # C, complex, shape (L, M_r, n)

    def __post_init__(self) -> None:
        self.matrices = np.asarray(self.matrices, dtype=np.complex128)
        if self.matrices.ndim != 3:
            raise ContractViolationError("matrices must have shape (L, M_r, M_t)")
        if self.matrices.shape[0] != self.path_set.num_paths:
            raise ContractViolationError("one matrix per path required")
        if not np.isfinite(self.matrices).all():
            raise ContractViolationError("matrices must be finite")
        if not (math.isfinite(self.symbol_duration_s) and self.symbol_duration_s > 0):
            raise ContractViolationError("symbol_duration_s must be finite and positive")
        num_paths, num_rx, num_tx = self.matrices.shape
        width = min(num_tx, num_paths * num_rx)
        want = ((num_tx, width), (num_paths, num_rx, width))
        if (np.shape(self.path_basis), np.shape(self.path_coords)) != want:
            raise ContractViolationError(f"path basis and coordinates must have shapes {want}")

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
    redrawn until pairwise distinct. When _MAX_DELAY_REDRAWS draws all
    repeat a tap (many paths on few taps), one draw without replacement
    takes their place; it is uniform over the same distinct tuples, so the
    taps keep one distribution whichever way they were drawn. Doppler
    shifts follow the classic ring model nu_max * cos(theta) with theta
    uniform on [-pi, pi]. Angles of arrival and departure are equally
    spaced across [-60, 60] degrees. Complex gains are CN(0, w_l), where
    the mean profile w is geometric in the delay order: the earliest
    arrival carries the most power and each later path is path_power_ratio
    times weaker, mimicking the dominant near-line-of-sight component of
    measured mmWave links. The profile is normalized to sum(w) = 1 and
    scaled by path_gain_db.
    """
    num_paths = config.num_paths
    tap_bound = config.max_delay_tap
    if num_paths > tap_bound + 1:
        raise ContractViolationError(
            f"cannot place {num_paths} distinct delay taps in [0, {tap_bound}]"
        )
    for _ in range(_MAX_DELAY_REDRAWS):
        delays = rng.integers(0, tap_bound + 1, size=num_paths)
        if len(set(delays.tolist())) == num_paths:
            break
    else:
        delays = rng.choice(tap_bound + 1, size=num_paths, replace=False)

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


def path_coordinates(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path bases Q (S, M_t, n) and coordinates C (S, L, M_r, n) of an (S, L, M_r, M_t) stack.

    One batched thin QR [H_1^H, ..., H_L^H] = Q R per member, n = min(M_t,
    L * M_r); C_l = H_l Q = R_l^H, R_l being R's columns of path l, and
    every path's rows lie in range(Q), so H_l = C_l Q^H up to rounding.
    """
    count, num_paths, num_rx, num_tx = matrices.shape
    adjoints = matrices.conj().transpose(0, 3, 1, 2).reshape(count, num_tx, -1)
    basis, tri = np.linalg.qr(adjoints)
    coords = tri.conj().transpose(0, 2, 1).reshape(count, num_paths, num_rx, -1)
    return basis, coords


def realize_channel(
    paths: PathSet | list[PathSet], config: SystemConfig
) -> ChannelRealization | list[ChannelRealization]:
    """Build the rank-one per-path matrices H_l = alpha_l a_rx a_tx^H and their path basis.

    A sequence of path sets with one path count is realized in one stacked
    computation, path bases included, and returns the list of their
    realizations, each equal to its own one-path-set call.
    """
    single = isinstance(paths, PathSet)
    path_sets = [paths] if single else list(paths)
    if len({p.num_paths for p in path_sets}) != 1:
        raise ContractViolationError("realize_channel needs path sets with one path count")
    m_r, m_t = config.num_rx_antennas, config.num_tx_antennas
    # the entries of array_response for every path at once, same arithmetic
    sin_rx = np.array([[math.sin(angle) for angle in p.aoa_rad] for p in path_sets])
    sin_tx = np.array([[math.sin(angle) for angle in p.aod_rad] for p in path_sets])
    gains = np.array([p.gains for p in path_sets])
    a_rx = np.exp(1j * np.pi * np.arange(m_r) * sin_rx[..., None])
    a_tx = np.exp(1j * np.pi * np.arange(m_t) * sin_tx[..., None])
    # in place, so a chunk's stack is not held in three copies at once
    mats = a_rx[..., :, None] * np.conj(a_tx, out=a_tx)[..., None, :]
    np.multiply(gains[..., None, None], mats, out=mats)
    bases, coords = path_coordinates(mats)
    realizations = [
        ChannelRealization(p, m, config.symbol_duration_s, q, c)
        for p, m, q, c in zip(path_sets, mats, bases, coords)
    ]
    return realizations[0] if single else realizations


def apply_channel(realization: ChannelRealization, tx: np.ndarray) -> np.ndarray:
    """Exact noiseless time-domain channel oracle.

    r[n] = sum_l H_l exp(j*2*pi*nu_l*n*T_s) x[n - m_l], with x = 0 for
    negative indices.
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
