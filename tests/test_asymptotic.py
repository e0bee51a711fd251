"""Large-array matched-filter designs and their SNR expressions."""

import itertools

import numpy as np
import pytest

from ddamsim.asymptotic import (
    asymptotic_combiner,
    asymptotic_snr,
    combined_asymptotic_snr,
    mrt_design,
    mrt_power_allocation,
    mrt_precoders,
    snr_upper_bound,
)
from ddamsim.channel import (
    coherence_partition,
    generate_paths,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError
from ddamsim.zf import residual_isi_power
from oracles import cross_path_leakage, strongest_path_snr


def _realization(cfg, seed):
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    return realize_channel(paths, cfg), paths, rng


def test_mrt_power_allocation_closed_form():
    gains = np.array([1.0 + 1.0j, 0.5, 0.1j])
    total = 2.0
    p = mrt_power_allocation(gains, total)
    mags = np.abs(gains) ** 2
    assert np.allclose(p, total * mags / mags.sum(), atol=1e-15)
    assert p.sum() == pytest.approx(total)
    for budget in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ContractViolationError):
            mrt_power_allocation(gains, budget)


def test_mrt_power_allocation_beats_simplex_grid():
    # the closed form must tie or beat every point of a dense simplex
    # grid on the objective sum_l sqrt(p_l) |alpha_l|
    rng = np.random.default_rng(17)
    steps = 60
    grid = [
        (i / steps, j / steps, (steps - i - j) / steps)
        for i, j in itertools.product(range(steps + 1), repeat=2)
        if i + j <= steps
    ]
    grid = np.array(grid)
    for trial in range(20):
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        total = float(rng.uniform(0.5, 3.0))
        mags = np.abs(gains)
        p_star = mrt_power_allocation(gains, total)
        obj_star = float(np.sqrt(p_star) @ mags)
        obj_grid = float(np.max(np.sqrt(grid * total) @ mags))
        assert obj_star >= obj_grid - 1e-9, f"trial {trial}"
        # substituting the optimizer reproduces the closed-form optimum
        expected = np.sqrt(total * np.sum(mags**2))
        assert obj_star == pytest.approx(expected, rel=1e-12)


def test_mrt_precoder_geometry():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2)
    realization, paths, _ = _realization(cfg, 1)
    p = mrt_power_allocation(paths.gains, 1.0)
    f = mrt_precoders(realization, p)
    assert f.shape == (cfg.num_paths, 16, 1)
    from ddamsim.channel import array_response

    for l in range(cfg.num_paths):
        assert np.linalg.norm(f[l]) == pytest.approx(np.sqrt(p[l]), rel=1e-12)
        expected = (
            np.sqrt(p[l])
            * paths.gains[l].conj()
            / np.abs(paths.gains[l])
            * array_response(16, paths.aod_rad[l])
            / np.sqrt(16)
        )
        assert np.allclose(f[l][:, 0], expected, atol=1e-12), f"path {l}"


def test_snr_identities_are_consistent():
    cfg = SystemConfig(num_tx_antennas=32, num_rx_antennas=4)
    realization, paths, _ = _realization(cfg, 2)
    p = mrt_power_allocation(paths.gains, cfg.tx_power_watts)
    noise = cfg.noise_power_watts
    measured = combined_asymptotic_snr(realization, p, noise)
    bound = snr_upper_bound(cfg, p, paths.gains)
    # the matched-filter SNR never exceeds the triangle-inequality bound
    assert measured <= bound * (1.0 + 1e-12)
    # with the optimal power split the bound collapses to the closed form
    assert bound == pytest.approx(asymptotic_snr(cfg, paths.gains), rel=1e-12)
    # a single path makes all three expressions coincide
    cfg1 = SystemConfig(num_tx_antennas=32, num_rx_antennas=4, num_paths=1)
    realization1, paths1, _ = _realization(cfg1, 3)
    p1 = mrt_power_allocation(paths1.gains, cfg1.tx_power_watts)
    snr1 = combined_asymptotic_snr(realization1, p1, cfg1.noise_power_watts)
    assert snr1 == pytest.approx(asymptotic_snr(cfg1, paths1.gains), rel=1e-9)
    assert snr1 == pytest.approx(strongest_path_snr(cfg1, paths1.gains), rel=1e-9)


def test_strongest_path_snr_uses_peak_only():
    cfg = SystemConfig()
    gains = np.array([1e-6, 3e-5, 2e-6], dtype=np.complex128)
    expected = (
        cfg.tx_power_watts
        / cfg.noise_power_watts
        * cfg.num_tx_antennas
        * cfg.num_rx_antennas
        * np.abs(gains[1]) ** 2
    )
    assert strongest_path_snr(cfg, gains) == pytest.approx(expected, rel=1e-12)


def test_asymptotic_combiner_is_unit_norm():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=4)
    realization, paths, _ = _realization(cfg, 4)
    p = mrt_power_allocation(paths.gains, 1.0)
    w = asymptotic_combiner(realization, p)
    assert w.shape == (4, 1)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)


def test_cross_path_leakage_decays_with_array_size():
    cfg = SystemConfig(num_tx_antennas=64, num_rx_antennas=2)
    realization, _, _ = _realization(cfg, 5)
    sweep = (4, 16, 64, 256)
    leak = cross_path_leakage(realization, sweep)
    assert leak.shape == (4,)
    assert np.all(leak >= 0) and np.all(leak <= 1 + 1e-12)
    assert leak[-1] < leak[0], "leakage should shrink as the array grows"
    assert leak[-1] < 0.3


def test_mrt_design_aligns_and_meets_power_budget():
    cfg = SystemConfig(num_tx_antennas=64, num_rx_antennas=2, num_streams=1)
    timebase = coherence_partition(cfg)
    realization, paths, rng = _realization(cfg, 6)
    p = mrt_power_allocation(paths.gains, cfg.tx_power_watts)
    design = mrt_design(realization, p)
    assert design.num_streams == 1
    assert design.total_power() == pytest.approx(cfg.tx_power_watts, rel=1e-12)
    assert np.array_equal(design.delay_taps, paths.delay_taps)
    assert np.array_equal(design.doppler_hz, paths.doppler_hz)
    # matched filtering is not zero-forcing, but at 64 antennas the
    # residual inter-path leakage should sit well below the aligned power
    desired, isi = residual_isi_power(design, realization, timebase, 4000, rng)
    assert isi <= 0.05 * desired, f"leakage ratio {isi / desired:.3e}"
