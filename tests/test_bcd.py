"""Block-coordinate-descent rate maximization over grouped channels."""

import numpy as np
import pytest

from ddamsim.bcd import (
    GroupedChannels,
    bcd_solve,
    group_delay_differences,
    interference_covariance,
    mmse_receiver,
)
from ddamsim.channel import coherence_partition, generate_paths, realize_channel
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError
from ddamsim.zf import zf_spatial_design
from oracles import ddam_rate


def _setup(seed, num_tx=8, num_paths=3):
    cfg = SystemConfig(num_tx_antennas=num_tx, num_rx_antennas=2, num_paths=num_paths)
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    realization = realize_channel(paths, cfg)
    timebase = coherence_partition(cfg)
    return cfg, realization, timebase, rng


def _stack_zf_precoder(realization, cfg):
    per_path, result = zf_spatial_design(
        realization.matrices,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        cfg.num_streams,
    )
    return np.concatenate(per_path, axis=0), result


def test_grouping_places_paths_by_delay_difference():
    cfg, realization, timebase, _ = _setup(0)
    paths = realization.path_set
    grouped = group_delay_differences(realization, timebase, block_index=0)
    mt = cfg.num_tx_antennas
    for lp in range(3):
        block = grouped.stacked_channel[:, lp * mt : (lp + 1) * mt]
        assert np.array_equal(block, realization.matrices[lp])
    expected_offsets = {
        int(paths.delay_taps[lp] - paths.delay_taps[l])
        for lp in range(3)
        for l in range(3)
        if l != lp
    }
    assert set(grouped.isi_channels) == expected_offsets
    assert 0 not in grouped.isi_channels
    # at block 0 every accumulated phase is unity, so each ISI slot holds
    # the raw channel of the path at the matching delay difference
    for offset, mat in grouped.isi_channels.items():
        for lp in range(3):
            block = mat[:, lp * mt : (lp + 1) * mt]
            matches = [
                l
                for l in range(3)
                if l != lp and paths.delay_taps[lp] - paths.delay_taps[l] == offset
            ]
            if matches:
                assert np.allclose(block, realization.matrices[matches[0]], atol=0)
            else:
                assert not np.any(block)


def test_grouping_accumulates_block_phase():
    cfg, realization, timebase, _ = _setup(1)
    paths = realization.path_set
    block_index = 5
    grouped = group_delay_differences(realization, timebase, block_index)
    ts = timebase.symbol_duration_s
    block_s = block_index * timebase.samples_per_coherence * ts
    mt = cfg.num_tx_antennas
    for lp in range(3):
        for l in range(3):
            if l == lp:
                continue
            offset = int(paths.delay_taps[lp] - paths.delay_taps[l])
            dnu = paths.doppler_hz[l] - paths.doppler_hz[lp]
            expected = realization.matrices[l] * np.exp(2j * np.pi * dnu * block_s)
            block = grouped.isi_channels[offset][:, lp * mt : (lp + 1) * mt]
            assert np.allclose(block, expected, atol=1e-18)


def test_grouping_single_path_has_no_isi():
    cfg, realization, timebase, _ = _setup(2, num_paths=1)
    grouped = group_delay_differences(realization, timebase, 0)
    assert grouped.isi_channels == {}


def test_grouped_channels_rejects_zero_offset():
    stacked = np.zeros((2, 8), dtype=np.complex128)
    with pytest.raises(ContractViolationError):
        GroupedChannels(
            stacked_channel=stacked,
            isi_channels={0: np.zeros((2, 8), dtype=np.complex128)},
            block_index=0,
            num_paths=1,
            num_tx=8,
        )


def test_zf_precoder_silences_interference_covariance():
    cfg, realization, timebase, _ = _setup(3)
    grouped = group_delay_differences(realization, timebase, 0)
    f_stack, _ = _stack_zf_precoder(realization, cfg)
    noise = cfg.noise_power_watts
    c = interference_covariance(grouped, f_stack, noise)
    assert np.allclose(c, noise * np.eye(2), atol=1e-12 * noise)
    vals = np.linalg.eigvalsh(c)
    assert np.all(vals >= 0)


def test_rate_of_zf_precoder_matches_capacity_result():
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(10 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        f_stack, result = _stack_zf_precoder(realization, cfg)
        noise = cfg.noise_power_watts
        rate = ddam_rate(grouped, f_stack, result.combiner, noise)
        assert rate == pytest.approx(result.rate_bps_hz, rel=1e-9), f"seed {10 + seed}"
        # the MMSE receiver attains the same mutual information
        w = mmse_receiver(grouped, f_stack, noise)
        rate_mmse = ddam_rate(grouped, f_stack, w, noise)
        assert rate_mmse == pytest.approx(result.rate_bps_hz, rel=1e-9)


def test_bcd_trace_is_monotone_and_converges():
    for seed in range(20):
        cfg, realization, timebase, _ = _setup(100 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        state = bcd_solve(
            grouped,
            total_power=cfg.tx_power_watts,
            noise_var=cfg.noise_power_watts,
            num_streams=cfg.num_streams,
            tol=1e-4,
            max_iters=100,
        )
        trace = np.asarray(state.rate_trace)
        assert trace.size >= 2
        drops = np.diff(trace)
        floor = -1e-9 * max(1.0, float(np.max(np.abs(trace))))
        assert np.all(drops >= floor), f"seed {100 + seed}: trace decreased {drops.min()}"
        assert state.converged, f"seed {100 + seed}: no convergence in 100 iterations"
        power = float(np.sum(np.abs(state.precoder) ** 2))
        assert power == pytest.approx(cfg.tx_power_watts, rel=1e-6)


def test_bcd_does_not_lose_to_zf_warm_start():
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(200 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        _, zf_result = _stack_zf_precoder(realization, cfg)
        state = bcd_solve(
            grouped,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            cfg.num_streams,
        )
        assert state.rate_trace[-1] >= zf_result.rate_bps_hz - 1e-9


def test_bcd_single_path_equals_mimo_capacity():
    # one path means no inter-path interference, so the BCD solution must
    # land on the waterfilled capacity of that path's channel
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(300 + seed, num_paths=1)
        grouped = group_delay_differences(realization, timebase, 0)
        _, zf_result = _stack_zf_precoder(realization, cfg)
        state = bcd_solve(
            grouped,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            cfg.num_streams,
            tol=1e-10,
        )
        assert state.rate_trace[-1] == pytest.approx(
            zf_result.rate_bps_hz, rel=1e-6
        ), f"seed {300 + seed}"


def test_bcd_random_init_reaches_zf_ballpark():
    cfg, realization, timebase, _ = _setup(400)
    grouped = group_delay_differences(realization, timebase, 0)
    _, zf_result = _stack_zf_precoder(realization, cfg)
    rng = np.random.default_rng(0)
    k = grouped.stacked_channel.shape[1]
    init = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    init *= np.sqrt(cfg.tx_power_watts) / np.linalg.norm(init)
    state = bcd_solve(
        grouped,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        cfg.num_streams,
        max_iters=200,
        init_precoder=init,
    )
    assert state.rate_trace[-1] >= 0.5 * zf_result.rate_bps_hz
