"""Reference transceivers: OFDM with ICI, OTFS, strongest-path beams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddamsim.benchmarks import (
    OtfsConfig,
    cfo_compensate,
    ici_coefficient,
    make_otfs_config,
    ofdm_design_and_rate,
    otfs_beam_opt,
    otfs_effective_gains,
    otfs_rate_from_taps,
    strongest_path_design,
)
from ddamsim.channel import (
    PathSet,
    apply_channel,
    array_response,
    coherence_partition,
    generate_paths,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError
from oracles import (
    measure_beam_sinr,
    ofdm_design_and_rate_loop,
    ofdm_ici_direct,
    otfs_delay_doppler_channel,
    otfs_rate,
    otfs_time_channel,
)


def _path_set(gains, delays, dopplers, bound_hz=1e6, tap_bound=40):
    ln = len(gains)
    return PathSet(
        gains=np.asarray(gains, dtype=np.complex128),
        aoa_rad=np.linspace(-0.6, 0.6, ln),
        aod_rad=np.linspace(-0.5, 0.5, ln),
        delay_taps=np.asarray(delays, dtype=np.int64),
        doppler_hz=np.asarray(dopplers, dtype=np.float64),
        doppler_bound_hz=bound_hz,
        delay_tap_bound=tap_bound,
    )


def _realization(cfg, seed):
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    return realize_channel(paths, cfg)


def test_ici_coefficient_matches_direct_sum():
    ts = 1e-8
    k_sub = 64
    rng = np.random.default_rng(0)
    n = np.arange(k_sub)
    for _ in range(20):
        nu = float(rng.uniform(-5e4, 5e4))
        delta = int(rng.integers(-10, 10))
        direct = np.mean(np.exp(2j * np.pi * (nu * ts + delta / k_sub) * n))
        closed = ici_coefficient(nu, ts, k_sub, delta)
        assert abs(closed - direct) <= 1e-12


def test_ici_coefficient_zero_doppler():
    c0 = ici_coefficient(0.0, 1e-8, 32, 0)
    assert c0 == pytest.approx(1.0, abs=1e-15)
    for delta in range(1, 32):
        assert abs(ici_coefficient(0.0, 1e-8, 32, delta)) <= 1e-14


def test_ici_coefficient_energy_identity():
    # summed over a full period of offsets the coupling spreads unit energy
    ts = 1e-8
    k_sub = 48
    for nu in (0.0, 123.0, 4666.67, 2e5):
        c = ici_coefficient(nu, ts, k_sub, np.arange(k_sub))
        assert float(np.sum(np.abs(c) ** 2)) == pytest.approx(1.0, rel=1e-12)


def test_ici_coefficient_broadcasts():
    out = ici_coefficient(np.zeros((3, 1)), 1e-8, 16, np.arange(5)[None, :])
    assert out.shape == (3, 5)


def test_ofdm_ici_channel_zero_doppler_collapses():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2, velocity_mps=0.0)
    realization = _realization(cfg, 1)
    paths = realization.path_set
    ts = realization.symbol_duration_s

    def coupled(delta):
        # per-path coupling matrices H_l[delta], as ofdm_design_and_rate weighs them
        coeff = ici_coefficient(paths.doppler_hz, ts, 64, delta)
        return realization.matrices * coeff[:, None, None]

    assert np.allclose(coupled(0), realization.matrices, atol=0)
    off = coupled(3)
    assert np.max(np.abs(off)) <= 1e-14 * np.max(np.abs(realization.matrices))


def test_ofdm_coupling_against_time_domain_symbol():
    # single path: send one CP-OFDM symbol through the exact channel and
    # compare every (target, source) coupling with the model prediction
    cfg = SystemConfig(num_tx_antennas=3, num_rx_antennas=2, num_paths=1)
    paths = _path_set([0.8 - 0.6j], [3], [2.3e5])
    realization = realize_channel(paths, cfg)
    k_sub, cp = 8, 4
    ts = cfg.symbol_duration_s
    rng = np.random.default_rng(2)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for q in range(k_sub):
        data = np.exp(2j * np.pi * q * np.arange(k_sub) / k_sub) / np.sqrt(k_sub)
        time = np.concatenate([data[-cp:], data])
        y = apply_channel(realization, np.outer(time, f))
        y_data = y[cp:]
        spec = (
            np.exp(-2j * np.pi * np.outer(np.arange(k_sub), np.arange(k_sub)) / k_sub)
            @ y_data
        ) / np.sqrt(k_sub)
        h_f = realization.matrices[0] @ f
        for k in range(k_sub):
            model = (
                h_f
                * np.exp(-2j * np.pi * q * paths.delay_taps[0] / k_sub)
                * ici_coefficient(paths.doppler_hz[0], ts, k_sub, (q - k) % k_sub)
                * np.exp(2j * np.pi * paths.doppler_hz[0] * cp * ts)
            )
            assert np.max(np.abs(spec[k] - model)) <= 1e-12 * np.linalg.norm(h_f), (
                f"source {q} target {k}"
            )


def test_ofdm_sinr_against_naive_loops():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2, velocity_mps=500.0 / 3.6)
    realization = _realization(cfg, 3)
    paths = realization.path_set
    k_sub, cp = 8, 4
    power, noise = 1.0, cfg.noise_power_watts
    result = ofdm_design_and_rate(realization, k_sub, cp, power, noise, num_streams=2)
    ts = cfg.symbol_duration_s

    def coupling(k, q):
        total = np.zeros((2, 4), dtype=np.complex128)
        for l in range(paths.num_paths):
            total += (
                realization.matrices[l]
                * np.exp(-2j * np.pi * q * paths.delay_taps[l] / k_sub)
                * ici_coefficient(paths.doppler_hz[l], ts, k_sub, (q - k) % k_sub)
            )
        return total

    rate_sum = 0.0
    for k in range(k_sub):
        r_k = result.ranks[k]
        u = result.combiners[k, :, :r_k]
        for i in range(r_k):
            sig = power / r_k * result.singular_values[k, i] ** 2
            ici = 0.0
            for q in range(k_sub):
                if q == k:
                    continue
                f_q = result.precoders[q, :, : result.ranks[q]]
                ici += float(np.sum(np.abs(u[:, i].conj() @ coupling(k, q) @ f_q) ** 2))
            sinr = sig / (ici + noise)
            assert sinr == pytest.approx(result.sinr[k, i], rel=1e-9), f"k={k} i={i}"
            rate_sum += np.log2(1.0 + sinr)
    expected_rate = k_sub / (k_sub + cp) * rate_sum / k_sub
    assert result.rate_bps_hz == pytest.approx(expected_rate, rel=1e-9)


@pytest.mark.parametrize("num_streams", [None, 1, 2])
@pytest.mark.parametrize("velocity_mps", [50.0, 500.0 / 3.6], ids=["50mps", "500kmh"])
@pytest.mark.parametrize("num_tx", [16, 64, 128, 256])
def test_ofdm_matches_per_subcarrier_loop_oracle(num_tx, velocity_mps, num_streams):
    cfg = SystemConfig(num_tx_antennas=num_tx, velocity_mps=velocity_mps)
    for seed in (0, 1):
        realization = _realization(cfg, seed)
        args = (
            realization, 512, cfg.max_delay_tap, cfg.tx_power_watts, cfg.noise_power_watts
        )
        result = ofdm_design_and_rate(*args, num_streams=num_streams)
        reference = ofdm_design_and_rate_loop(*args, num_streams=num_streams)
        assert np.array_equal(result.ranks, reference.ranks), f"seed {seed}"
        # the zero padding past each rank must match too
        for name in ("precoders", "combiners", "singular_values"):
            got, want = getattr(result, name), getattr(reference, name)
            assert got.shape[0] == 512
            assert np.array_equal(got, want), f"{name} seed {seed}"
        assert result.rate_bps_hz == pytest.approx(reference.rate_bps_hz, rel=1e-12)
        np.testing.assert_allclose(result.sinr, reference.sinr, rtol=1e-9, atol=0)


def test_ofdm_sinr_matches_direct_ici_sum_at_high_sinr():
    # a draw with little Doppler spread at 500 km/h: SINRs reach ~7e4, where
    # taking the q = k term back out of a full sum over q costs ~1e-10
    cfg = SystemConfig(num_tx_antennas=128, velocity_mps=500.0 / 3.6)
    realization = _realization(cfg, 13)
    result = ofdm_design_and_rate(
        realization,
        512,
        cfg.max_delay_tap,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        num_streams=1,
    )
    ici = ofdm_ici_direct(realization, result)
    peak = 0.0
    for k, r_k in enumerate(result.ranks):
        if r_k == 0:
            continue
        sinr, sv = result.sinr[k, :r_k], result.singular_values[k, :r_k]
        direct = (
            cfg.tx_power_watts * sv**2 / r_k / (ici[k, :r_k] + cfg.noise_power_watts)
        )
        np.testing.assert_allclose(sinr, direct, rtol=1e-12, atol=0, err_msg=f"k={k}")
        peak = max(peak, float(direct.max()))
    assert peak > 5e4


def test_ofdm_all_zero_channel_loads_no_stream():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2, num_paths=2)
    realization = realize_channel(_path_set([0.0, 0.0], [0, 3], [1e3, -2e3]), cfg)
    result = ofdm_design_and_rate(realization, 16, 4, 1.0, cfg.noise_power_watts)
    assert result.rate_bps_hz == 0.0
    assert np.array_equal(result.ranks, np.zeros(16))
    # one all-zero slot per subcarrier, so sinr[:, 0] always exists
    assert np.array_equal(result.precoders, np.zeros((16, 4, 1)))
    assert np.array_equal(result.combiners, np.zeros((16, 2, 1)))
    assert np.array_equal(result.singular_values, np.zeros((16, 1)))
    assert np.array_equal(result.sinr, np.zeros((16, 1)))


def _uneven_rank_realization(cfg, num_subcarriers, doppler_hz):
    """Paths 1 and 2 share one direction and cancel on every even subcarrier.

    Path 0 has its own direction, so the desired matrices have rank 2 on
    odd subcarriers and rank 1 on even ones (for M_r, M_t >= 2).
    """
    half = num_subcarriers // 2
    paths = PathSet(
        gains=np.array([0.8 - 0.3j, 1.0, -1.0]),
        aoa_rad=np.array([0.4, -0.3, -0.3]),
        aod_rad=np.array([-0.2, 0.5, 0.5]),
        delay_taps=np.array([num_subcarriers + 1, 0, half]),
        doppler_hz=np.array([doppler_hz, 0.0, 0.0]),
        doppler_bound_hz=max(abs(doppler_hz), 1.0),
        delay_tap_bound=num_subcarriers + 1,
    )
    return realize_channel(paths, cfg)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["geometric", "uneven-rank", "silent"]),
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 6),
    num_rx=st.integers(1, 3),
    num_paths=st.integers(1, 3),
    half_subcarriers=st.integers(1, 8),
    num_streams=st.sampled_from([None, 1, 2]),
    velocity_mps=st.sampled_from([0.0, 50.0, 500.0 / 3.6]),
)
def test_ofdm_result_stacks_keep_their_contract(
    kind, seed, num_tx, num_rx, num_paths, half_subcarriers, num_streams, velocity_mps
):
    num_subcarriers = 2 * half_subcarriers
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity_mps,
    )
    if kind == "geometric":
        realization = _realization(cfg, seed)
    elif kind == "uneven-rank":
        realization = _uneven_rank_realization(cfg, num_subcarriers, cfg.max_doppler_hz)
    else:
        realization = realize_channel(_path_set([0.0, 0.0], [0, 3], [1e3, -2e3]), cfg)
    cp, power = cfg.max_delay_tap, cfg.tx_power_watts
    result = ofdm_design_and_rate(
        realization, num_subcarriers, cp, power, cfg.noise_power_watts, num_streams
    )
    ranks = result.ranks
    r_max = max(1, int(ranks.max()))
    assert ranks.shape == (num_subcarriers,)
    assert np.all(ranks <= min(num_tx, num_rx, num_streams or num_rx))
    assert result.precoders.shape == (num_subcarriers, num_tx, r_max)
    assert result.combiners.shape == (num_subcarriers, num_rx, r_max)
    assert result.singular_values.shape == result.sinr.shape == (num_subcarriers, r_max)
    # every entry of an inactive stream slot is zero
    inactive = np.arange(r_max)[None, :] >= ranks[:, None]
    assert not np.any(np.moveaxis(result.precoders, 2, 1)[inactive])
    assert not np.any(np.moveaxis(result.combiners, 2, 1)[inactive])
    assert not np.any(result.singular_values[inactive])
    assert not np.any(result.sinr[inactive])
    assert np.all(np.isfinite(result.sinr)) and np.all(result.sinr >= 0)
    for k, r_k in enumerate(ranks):
        if r_k == 0:
            continue
        loaded = float(np.sum(np.abs(result.precoders[k]) ** 2))
        assert loaded == pytest.approx(power, rel=1e-9, abs=0.0), f"k={k}"
        w = result.combiners[k, :, :r_k]
        assert np.max(np.abs(w.conj().T @ w - np.eye(r_k))) <= 1e-12, f"k={k}"
    cp_factor = num_subcarriers / (num_subcarriers + cp)
    expected = cp_factor * float(np.sum(np.log2(1.0 + result.sinr))) / num_subcarriers
    assert result.rate_bps_hz == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("num_streams", [0, -1, 2.5, True, "2"])
def test_ofdm_rejects_invalid_num_streams(num_streams):
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2)
    realization = _realization(cfg, 0)
    with pytest.raises(ContractViolationError):
        ofdm_design_and_rate(
            realization, 16, 4, 1.0, cfg.noise_power_watts, num_streams=num_streams
        )


def test_ofdm_zero_doppler_has_no_ici():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, velocity_mps=0.0)
    realization = _realization(cfg, 4)
    result = ofdm_design_and_rate(
        realization, 32, 8, 1.0, cfg.noise_power_watts, num_streams=2
    )
    for k, r_k in enumerate(result.ranks):
        values = result.sinr[k, :r_k]
        # with no ICI the SINR equals signal over pure noise
        sig = 1.0 / r_k * result.singular_values[k, :r_k] ** 2
        assert np.allclose(values, sig / cfg.noise_power_watts, rtol=1e-9)


def test_cfo_compensation_anchors_strongest_path():
    paths = _path_set([0.1, 0.9j, 0.2], [1, 5, 9], [1e4, -2.5e4, 3e4])
    fixed = cfo_compensate(paths)
    assert fixed.doppler_hz[1] == 0.0
    assert np.allclose(fixed.doppler_hz, paths.doppler_hz - paths.doppler_hz[1])
    assert np.array_equal(fixed.delay_taps, paths.delay_taps)
    assert np.array_equal(fixed.gains, paths.gains)
    assert fixed.doppler_bound_hz >= np.max(np.abs(fixed.doppler_hz))


def test_cfo_compensation_lifts_ofdm_rate():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, velocity_mps=500.0 / 3.6)
    rates_plain = []
    rates_fixed = []
    for seed in range(10):
        realization = _realization(cfg, 50 + seed)
        plain = ofdm_design_and_rate(
            realization, 64, 40, 1.0, cfg.noise_power_watts, num_streams=2
        )
        fixed_paths = cfo_compensate(realization.path_set)
        fixed_real = realize_channel(fixed_paths, cfg)
        fixed = ofdm_design_and_rate(
            fixed_real, 64, 40, 1.0, cfg.noise_power_watts, num_streams=2
        )
        rates_plain.append(plain.rate_bps_hz)
        rates_fixed.append(fixed.rate_bps_hz)
    assert np.median(rates_fixed) > np.median(rates_plain)


def test_otfs_config_validation():
    beam2 = np.ones(2, dtype=np.complex128) / np.sqrt(2)
    beam4 = np.ones(4, dtype=np.complex128) / 2.0
    kwargs = dict(
        num_delay_bins=16,
        num_doppler_bins=4,
        cp_length=4,
        tx_beam=beam4,
        rx_beam=beam2,
        delay_taps=np.array([0, 3], dtype=np.int64),
        doppler_taps=np.array([1, -2], dtype=np.int64),
        doppler_residual_hz=np.zeros(2),
    )
    cfgok = OtfsConfig(**kwargs)
    assert cfgok.grid_size == 64
    bad = dict(kwargs)
    bad["tx_beam"] = 2.0 * beam4  # not unit norm
    with pytest.raises(ContractViolationError):
        OtfsConfig(**bad)
    bad = dict(kwargs)
    bad["delay_taps"] = np.array([0, 16], dtype=np.int64)  # beyond the grid
    with pytest.raises(ContractViolationError):
        OtfsConfig(**bad)
    bad = dict(kwargs)
    bad["doppler_taps"] = np.array([0, 4], dtype=np.int64)  # beyond the grid
    with pytest.raises(ContractViolationError):
        OtfsConfig(**bad)


def test_make_otfs_config_quantization():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([1.0, 0.4], [2, 7], [0.9e5, -2.2e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, num_delay_bins=32, num_doppler_bins=8, cp_length=7)
    frame_s = 32 * 8 * cfg.symbol_duration_s
    expect_taps = np.rint(paths.doppler_hz * frame_s).astype(np.int64)
    assert np.array_equal(otfs.doppler_taps, expect_taps)
    assert np.allclose(
        otfs.doppler_residual_hz, paths.doppler_hz - expect_taps / frame_s
    )
    assert np.linalg.norm(otfs.tx_beam) == pytest.approx(1.0)
    assert np.linalg.norm(otfs.rx_beam) == pytest.approx(1.0)
    # default beams follow the strongest path
    expected_beam = array_response(8, paths.aod_rad[0]) / np.sqrt(8)
    assert np.allclose(otfs.tx_beam, expected_beam)


def test_otfs_effective_gains_dominant_entry():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([1.0 + 0.3j, 0.1], [0, 5], [0.0, 1e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, 32, 8, 7)
    gains = otfs_effective_gains(realization, otfs)
    expected = paths.gains[0] * np.sqrt(2.0) * np.sqrt(8.0)
    assert gains[0] == pytest.approx(expected, rel=1e-12)


def test_otfs_transform_preserves_energy():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([0.9, 0.4j, 0.2], [1, 6, 11], [1.2e5, -0.7e5, 2.9e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, 16, 4, 5)
    h_time = otfs_time_channel(realization, otfs)
    h_dd = otfs_delay_doppler_channel(realization, otfs)
    assert h_time.shape == (64, 64) and h_dd.shape == (64, 64)
    assert np.linalg.norm(h_dd) == pytest.approx(np.linalg.norm(h_time), rel=1e-9)


def test_otfs_dense_and_sparse_rates_agree():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([0.9, 0.4j, 0.2], [1, 6, 11], [1.2e5, -0.7e5, 2.9e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, 16, 4, 5)
    h_dd = otfs_delay_doppler_channel(realization, otfs)
    pbar = 2.7
    dense = otfs_rate(h_dd, pbar, 5, 16, 4)
    gains = otfs_effective_gains(realization, otfs)
    sparse = otfs_rate_from_taps(gains, otfs.delay_taps, otfs.doppler_taps, 16, 4, pbar, 5)
    assert sparse == pytest.approx(dense, rel=1e-9)


def test_otfs_beam_opt_trace_monotone():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=4)
    for seed in range(10):
        realization = _realization(cfg, 70 + seed)
        otfs = make_otfs_config(realization, 64, 4, 40)
        f, v, trace = otfs_beam_opt(realization, otfs)
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-9)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-9)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * max(abs(t) for t in trace)), f"seed {70 + seed}"


def test_otfs_beam_opt_single_path_optimum():
    # one path: the objective collapses to MN * |v^H H f|^2 whose maximum
    # over unit beams is MN * (Mr * Mt) * |alpha|^2 for a rank-one channel
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=4, num_paths=1)
    realization = _realization(cfg, 80)
    alpha = realization.path_set.gains[0]
    otfs = make_otfs_config(realization, 64, 4, 40)
    _, _, trace = otfs_beam_opt(realization, otfs, max_iters=100, tol=1e-13)
    grid = 64 * 4
    optimum = grid * 16 * 4 * np.abs(alpha) ** 2
    assert trace[-1] == pytest.approx(optimum, rel=1e-8)


def test_strongest_path_design_geometry():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2)
    paths = _path_set([0.2, 1.5j, 0.4], [2, 8, 13], [1e4, -3e4, 2e4])
    realization = realize_channel(paths, cfg)
    design = strongest_path_design(realization, total_power=2.0, noise_var=1e-3)
    assert design.dominant_path == 1
    assert np.linalg.norm(design.precoder) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.linalg.norm(design.combiner) == pytest.approx(1.0, rel=1e-12)
    expected_snr = 2.0 * 16 * 2 * np.abs(paths.gains[1]) ** 2 / 1e-3
    assert design.snr_dominant == pytest.approx(expected_snr, rel=1e-12)
    assert design.sinr_multipath <= design.snr_dominant


def test_measure_beam_sinr_single_path():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_paths=1)
    realization = _realization(cfg, 90)
    timebase = coherence_partition(cfg)
    noise = cfg.noise_power_watts
    design = strongest_path_design(realization, 1.0, noise)
    desired, interference = measure_beam_sinr(
        realization, design, timebase, num_symbols=2048, rng=np.random.default_rng(1)
    )
    # the fit itself is exact with one path; the desired power carries the
    # empirical symbol energy of the window, so compare loosely
    assert desired == pytest.approx(design.snr_dominant * noise, rel=0.05)
    assert interference <= 1e-12 * desired


def test_measure_beam_sinr_multipath_consistency():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    realization = _realization(cfg, 91)
    timebase = coherence_partition(cfg)
    noise = cfg.noise_power_watts
    design = strongest_path_design(realization, 1.0, noise)
    desired, interference = measure_beam_sinr(
        realization, design, timebase, num_symbols=30000, rng=np.random.default_rng(2)
    )
    measured_sinr = desired / (interference + noise)
    assert measured_sinr == pytest.approx(design.sinr_multipath, rel=0.1)
