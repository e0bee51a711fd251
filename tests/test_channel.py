"""Geometric channel model: path draws, realization, exact propagation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddamsim.channel import (
    REALIZATION_SCHEMA,
    PathSet,
    apply_channel,
    array_response,
    coherence_partition,
    generate_paths,
    realization_from_json,
    realization_to_json,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError


def _path_set(gains, delays, dopplers, bound_hz=5000.0, tap_bound=40):
    L = len(gains)
    return PathSet(
        gains=np.asarray(gains, dtype=np.complex128),
        aoa_rad=np.linspace(-0.5, 0.5, L),
        aod_rad=np.linspace(-0.4, 0.4, L),
        delay_taps=np.asarray(delays, dtype=np.int64),
        doppler_hz=np.asarray(dopplers, dtype=np.float64),
        doppler_bound_hz=bound_hz,
        delay_tap_bound=tap_bound,
    )


def test_array_response_formula():
    angle = 0.37
    n = 5
    resp = array_response(n, angle)
    expected = np.exp(1j * np.pi * np.arange(n) * np.sin(angle))
    assert np.allclose(resp, expected, atol=1e-15)
    assert np.linalg.norm(resp) == pytest.approx(np.sqrt(n))


def test_array_response_broadside():
    assert np.allclose(array_response(8, 0.0), np.ones(8))


def test_generate_paths_invariants():
    cfg = SystemConfig()
    rng = np.random.default_rng(11)
    for _ in range(50):
        paths = generate_paths(cfg, rng)
        assert paths.num_paths == cfg.num_paths
        taps = paths.delay_taps
        assert len(set(taps.tolist())) == cfg.num_paths, "delay taps must be distinct"
        assert taps.min() >= 0 and taps.max() <= cfg.max_delay_tap
        assert np.all(np.abs(paths.doppler_hz) <= cfg.max_doppler_hz + 1e-9)
        assert np.all(np.abs(paths.aod_rad) <= np.pi / 3 + 1e-12)
        assert np.all(np.abs(paths.aoa_rad) <= np.pi / 3 + 1e-12)


def test_generate_paths_power_profile_statistics():
    # Average powers sorted by delay should follow a geometric ladder with
    # the configured ratio, and the total should hit the large-scale gain.
    cfg = SystemConfig(path_gain_db=-20.0, path_power_ratio=0.1)
    rng = np.random.default_rng(123)
    n_draws = 6000
    by_rank = np.zeros(cfg.num_paths)
    total = 0.0
    for _ in range(n_draws):
        paths = generate_paths(cfg, rng)
        order = np.argsort(paths.delay_taps)
        powers = np.abs(paths.gains[order]) ** 2
        by_rank += powers
        total += powers.sum()
    by_rank /= n_draws
    total /= n_draws
    scale = 10.0 ** (cfg.path_gain_db / 10.0)
    weights = cfg.path_power_ratio ** np.arange(cfg.num_paths)
    weights = weights / weights.sum()
    assert total == pytest.approx(scale, rel=0.05)
    for k in range(cfg.num_paths):
        assert by_rank[k] == pytest.approx(scale * weights[k], rel=0.15), (
            f"rank-{k} mean power {by_rank[k]:.3e} vs expected {scale * weights[k]:.3e}"
        )


def test_generate_paths_single_path():
    cfg = SystemConfig(num_paths=1)
    paths = generate_paths(cfg, np.random.default_rng(0))
    assert paths.num_paths == 1
    assert paths.aod_rad[0] == 0.0 and paths.aoa_rad[0] == 0.0


def test_realize_channel_rank_one_structure():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=3)
    rng = np.random.default_rng(5)
    paths = generate_paths(cfg, rng)
    realization = realize_channel(paths, cfg)
    assert realization.matrices.shape == (cfg.num_paths, 3, 8)
    for l in range(cfg.num_paths):
        h = realization.matrices[l]
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] <= 1e-12 * s[0], "per-path matrix must be rank one"
        expected = paths.gains[l] * np.outer(
            array_response(3, paths.aoa_rad[l]),
            array_response(8, paths.aod_rad[l]).conj(),
        )
        assert np.allclose(h, expected, atol=1e-15)


def test_apply_channel_matches_manual_convolution():
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_paths=2)
    paths = _path_set([1.0 + 0.5j, 0.3 - 0.2j], [0, 2], [1000.0, -2500.0])
    realization = realize_channel(paths, cfg)
    rng = np.random.default_rng(9)
    n = 16
    x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    y = apply_channel(realization, x)
    ts = cfg.symbol_duration_s
    expected = np.zeros((n, 2), dtype=np.complex128)
    for sample in range(n):
        for l in range(2):
            m = int(paths.delay_taps[l])
            if sample - m < 0:
                continue
            rot = np.exp(2j * np.pi * paths.doppler_hz[l] * sample * ts)
            expected[sample] += rot * (realization.matrices[l] @ x[sample - m])
    assert np.max(np.abs(y - expected)) <= 1e-12


_coefficient = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 16),
    num_rx=st.sampled_from([1, 2, 4]),
    num_paths=st.integers(1, 5),
    n_samples=st.integers(1, 200),
    a=_coefficient,
    b=_coefficient,
)
def test_apply_channel_is_linear(seed, num_tx, num_rx, num_paths, n_samples, a, b):
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_paths=num_paths,
        num_streams=1,
    )
    rng = np.random.default_rng(seed)
    realization = realize_channel(generate_paths(cfg, rng), cfg)
    shape = (n_samples, num_tx)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    hx, hy = apply_channel(realization, x), apply_channel(realization, y)
    combined = apply_channel(realization, a * x + b * y)
    scale = abs(a) * np.max(np.abs(hx)) + abs(b) * np.max(np.abs(hy))
    assert np.max(np.abs(combined - (a * hx + b * hy))) <= 1e-12 * scale


def test_apply_channel_noise_contract():
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_paths=1)
    paths = _path_set([1.0], [0], [0.0])
    realization = realize_channel(paths, cfg)
    x = np.zeros((4096, 2), dtype=np.complex128)
    with pytest.raises(ContractViolationError):
        apply_channel(realization, x, noise_std=0.1)
    rng = np.random.default_rng(1)
    y = apply_channel(realization, x, noise_std=0.5, rng=rng)
    var = np.mean(np.abs(y) ** 2)
    assert var == pytest.approx(0.25, rel=0.05)


def test_apply_channel_rejects_bad_shape():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2, num_paths=1)
    paths = _path_set([1.0], [0], [0.0])
    realization = realize_channel(paths, cfg)
    with pytest.raises(ContractViolationError):
        apply_channel(realization, np.zeros((8, 3), dtype=np.complex128))


def test_coherence_partition_baseline_numbers():
    tb = coherence_partition(SystemConfig())
    assert tb.coherence_time_s == pytest.approx(0.1 / 4666.6666666, rel=1e-9)
    assert tb.samples_per_coherence == 2142
    assert tb.path_invariant_time_s == pytest.approx(0.06, rel=1e-12)
    assert tb.samples_per_invariant == 6_000_000
    assert tb.symbol_duration_s == pytest.approx(1e-8)


def test_coherence_partition_static_channel():
    cfg = SystemConfig(velocity_mps=0.0)
    tb = coherence_partition(cfg)
    assert tb.coherence_time_s == cfg.static_frame_duration_s
    assert tb.path_invariant_time_s == cfg.static_frame_duration_s


def test_coherence_partition_rejects_inverted_timescales():
    # carrier below the bandwidth drops the path-invariant window under
    # the coherence window, which breaks the two-timescale model
    cfg = SystemConfig(carrier_freq_hz=50e6, coherence_coeff=1.0)
    with pytest.raises(ContractViolationError):
        coherence_partition(cfg)


def test_path_set_validation():
    with pytest.raises(ContractViolationError):
        _path_set([1.0, 0.5], [3, 3], [0.0, 0.0])  # duplicate delays
    with pytest.raises(ContractViolationError):
        _path_set([1.0], [41], [0.0], tap_bound=40)  # out of range
    with pytest.raises(ContractViolationError):
        _path_set([1.0], [2], [6000.0], bound_hz=5000.0)  # doppler above bound


def test_realization_json_round_trip():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2, num_paths=3)
    rng = np.random.default_rng(42)
    paths = generate_paths(cfg, rng)
    realization = realize_channel(paths, cfg)
    text = realization_to_json(realization)
    blob = json.loads(text)
    assert blob["schema"] == REALIZATION_SCHEMA
    clone = realization_from_json(text)
    assert np.array_equal(clone.matrices, realization.matrices)
    assert np.array_equal(clone.path_set.gains, paths.gains)
    assert np.array_equal(clone.path_set.delay_taps, paths.delay_taps)
    assert np.array_equal(clone.path_set.doppler_hz, paths.doppler_hz)
    assert clone.symbol_duration_s == realization.symbol_duration_s


def test_realization_json_rejects_wrong_schema():
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_paths=1)
    paths = _path_set([1.0], [0], [0.0])
    realization = realize_channel(paths, cfg)
    blob = json.loads(realization_to_json(realization))
    blob["schema"] = "something/else"
    with pytest.raises(ContractViolationError):
        realization_from_json(json.dumps(blob))


def _mutated_realization_json(mutate):
    cfg = SystemConfig(num_tx_antennas=3, num_rx_antennas=2, num_paths=2)
    realization = realize_channel(generate_paths(cfg, np.random.default_rng(8)), cfg)
    blob = json.loads(realization_to_json(realization))
    mutate(blob)
    return json.dumps(blob)


def _set(path, value):
    def mutate(blob):
        node = blob
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _drop(path):
    def mutate(blob):
        node = blob
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return mutate


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        "null",
        _mutated_realization_json(_drop(["matrices"])),
        _mutated_realization_json(_drop(["symbol_duration_s"])),
        _mutated_realization_json(_drop(["paths", 1, "doppler_hz"])),
        _mutated_realization_json(_set(["paths"], 3)),
        _mutated_realization_json(_set(["paths", 0], [1.0, 0.0])),
        _mutated_realization_json(_set(["paths", 0, "gain"], [1.0])),
        _mutated_realization_json(_set(["paths", 0, "gain"], ["a", "b"])),
        _mutated_realization_json(_set(["paths", 0, "delay_tap"], 2.5)),
        _mutated_realization_json(_set(["paths", 0, "aoa_rad"], None)),
        _mutated_realization_json(_set(["matrices", 0, 1], [[1.0, 0.0]])),
        _mutated_realization_json(_set(["matrices", 0, 1, 2], [1.0])),
        _mutated_realization_json(_set(["matrices", 0, 1, 2, 0], float("nan"))),
        _mutated_realization_json(_set(["matrices", 1, 0, 0, 1], float("inf"))),
        _mutated_realization_json(_set(["symbol_duration_s"], float("nan"))),
        _mutated_realization_json(_set(["symbol_duration_s"], [1e-8])),
        _mutated_realization_json(_set(["doppler_bound_hz"], float("inf"))),
        _mutated_realization_json(_set(["delay_tap_bound"], "40")),
    ],
    ids=[
        "invalid-json",
        "array-document",
        "null-document",
        "missing-matrices",
        "missing-symbol-duration",
        "missing-path-doppler",
        "paths-not-a-list",
        "path-not-an-object",
        "short-gain",
        "string-gain",
        "fractional-delay-tap",
        "null-angle",
        "ragged-matrix-row",
        "short-matrix-entry",
        "nan-matrix-entry",
        "inf-matrix-entry",
        "nan-symbol-duration",
        "array-symbol-duration",
        "inf-doppler-bound",
        "string-tap-bound",
    ],
)
def test_realization_json_rejects_malformed_documents(text):
    with pytest.raises(ContractViolationError):
        realization_from_json(text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.integers(1, 5),
    num_rx=st.integers(1, 4),
    num_tx=st.integers(1, 16),
    velocity=st.sampled_from([0.0, 50.0, 500.0 / 3.6]),
)
def test_realization_json_round_trip_is_exact(seed, num_paths, num_rx, num_tx, velocity):
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity,
    )
    realization = realize_channel(generate_paths(cfg, np.random.default_rng(seed)), cfg)
    text = realization_to_json(realization)
    clone = realization_from_json(text)
    assert np.array_equal(clone.matrices, realization.matrices)
    assert clone.symbol_duration_s == realization.symbol_duration_s
    for name in ("gains", "aoa_rad", "aod_rad", "delay_taps", "doppler_hz"):
        got, want = getattr(clone.path_set, name), getattr(realization.path_set, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert clone.path_set.doppler_bound_hz == realization.path_set.doppler_bound_hz
    assert clone.path_set.delay_tap_bound == realization.path_set.delay_tap_bound
    assert realization_to_json(clone) == text
