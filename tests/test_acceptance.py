"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints as a single pass/fail line under pytest -v. The figure
trend checks run real Monte Carlo campaigns and dominate the runtime of
the suite; everything else is seconds.
"""

import itertools
import time

import numpy as np
import pytest

from ddamsim.asymptotic import (
    asymptotic_snr,
    mrt_power_allocation,
    snr_upper_bound,
)
from ddamsim.benchmarks import (
    make_otfs_config,
    ofdm_design_and_rate,
    otfs_beam_opt,
    otfs_effective_gains,
)
from ddamsim.bcd import bcd_solve, group_delay_differences
from ddamsim.channel import (
    apply_channel,
    coherence_partition,
    generate_paths,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.experiments import run_experiment
from ddamsim.metrics import guard_overhead
from ddamsim.zf import (
    build_ddam_tx,
    residual_isi_power,
    water_filling,
    zf_design,
    zf_spatial_design,
)
from oracles import otfs_delay_doppler_channel, otfs_time_channel


def _median(run, scheme, param_value, metric):
    for row in run.rows:
        if (
            row.scheme == scheme
            and row.param_value == param_value
            and row.metric == metric
        ):
            return row.median
    raise AssertionError(f"no row for {scheme}/{param_value}/{metric}")


def test_criterion_01_zero_forcing_alignment_at_the_antenna_boundary():
    # six transmit antennas is the tightest array that still supports two
    # interference-free streams over three paths; the aligned link must be
    # exactly ISI-free and the combined output a scaled delayed copy
    cfg = SystemConfig(num_tx_antennas=6, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng([1001, seed])
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        design, result = zf_design(
            realization, cfg.tx_power_watts, cfg.noise_power_watts, 2
        )
        desired, isi = residual_isi_power(design, realization, timebase, 1600, rng)
        assert isi <= 1e-8 * desired, f"seed {seed}: isi ratio {isi / desired:.2e}"
        n = 600
        s = (
            rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        ) / np.sqrt(2.0)
        x = build_ddam_tx(design, s, timebase)
        y = apply_channel(realization, x) @ design.combiner.conj()
        m_max = paths.max_delay_tap
        amps = np.sqrt(result.mode_gains * result.mode_powers)
        expected = np.zeros_like(y)
        expected[m_max:] = s[: n - m_max] * amps[None, :]
        scale = float(np.max(np.abs(expected)))
        err = float(np.max(np.abs(y - expected)))
        assert err <= 1e-8 * scale, f"seed {seed}: oracle mismatch {err / scale:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"boundary sweep took {elapsed:.1f} s"


def test_criterion_02_guard_overheads_match_the_reference_link_budget():
    cfg = SystemConfig()
    timebase = coherence_partition(cfg)
    assert timebase.samples_per_invariant == 6_000_000
    assert cfg.max_delay_tap == 40
    ddam_pct = 100.0 * guard_overhead(
        "ddam",
        max_delay_tap=cfg.max_delay_tap,
        frame_samples=timebase.samples_per_invariant,
    )
    assert ddam_pct == pytest.approx(100.0 * 80 / 6_000_000, rel=1e-12)
    assert f"{ddam_pct:.2g}" == "0.0013"
    ofdm_pct = 100.0 * guard_overhead(
        "ofdm", max_delay_tap=cfg.max_delay_tap, num_subcarriers=512
    )
    assert ofdm_pct == pytest.approx(100.0 * 40 / 552, rel=1e-12)
    assert round(ofdm_pct, 2) == 7.25


def test_criterion_03_matched_filter_power_split_dominates_simplex_grid():
    # 10^4-point simplex grid on three paths
    steps = 140
    pairs = [
        (i, j) for i, j in itertools.product(range(steps + 1), repeat=2) if i + j <= steps
    ]
    assert len(pairs) >= 10_000
    grid = np.array([(i, j, steps - i - j) for i, j in pairs], dtype=np.float64)
    grid /= steps
    rng = np.random.default_rng(2024)
    for trial in range(50):
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        total = float(rng.uniform(0.2, 5.0))
        mags = np.abs(gains)
        p_star = mrt_power_allocation(gains, total)
        obj_star = float(np.sqrt(p_star) @ mags)
        obj_grid = float(np.max(np.sqrt(grid * total) @ mags))
        assert obj_star >= obj_grid * (1.0 - 1e-4), (
            f"trial {trial}: {obj_star} < grid {obj_grid}"
        )
        # plugging the optimum back in reproduces the closed-form SNR
        cfg_total = SystemConfig(tx_power_watts=total)
        assert snr_upper_bound(cfg_total, p_star, gains) == pytest.approx(
            asymptotic_snr(cfg_total, gains), rel=1e-10
        )


def test_criterion_04_rate_optimizer_monotone_convergent_and_exact_for_one_path():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    for seed in range(100):
        rng = np.random.default_rng([4001, seed])
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        grouped = group_delay_differences(realization, timebase, 0)
        state = bcd_solve(
            grouped,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            cfg.num_streams,
            tol=1e-3,
            max_iters=50,
        )
        trace = np.asarray(state.rate_trace)
        slack = 1e-9 * max(1.0, float(np.max(np.abs(trace))))
        assert np.all(np.diff(trace) >= -slack), f"seed {seed}: trace decreased"
        assert state.converged, f"seed {seed}: not converged within 50 iterations"
    cfg1 = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_paths=1)
    for seed in range(10):
        rng = np.random.default_rng([4002, seed])
        paths = generate_paths(cfg1, rng)
        realization = realize_channel(paths, cfg1)
        grouped = group_delay_differences(realization, coherence_partition(cfg1), 0)
        _, zf_result = zf_spatial_design(
            realization.matrices,
            cfg1.tx_power_watts,
            cfg1.noise_power_watts,
            cfg1.num_streams,
        )
        state = bcd_solve(
            grouped,
            cfg1.tx_power_watts,
            cfg1.noise_power_watts,
            cfg1.num_streams,
            tol=1e-10,
        )
        assert state.rate_trace[-1] == pytest.approx(
            zf_result.rate_bps_hz, rel=1e-6
        ), f"seed {seed}"


def test_criterion_05_water_filling_matches_exhaustive_power_grid():
    rng = np.random.default_rng(55)
    for trial in range(50):
        k = int(rng.integers(1, 4))
        gains = rng.uniform(0.05, 4.0, size=k)
        total = float(rng.uniform(0.5, 3.0))
        noise = float(rng.uniform(0.2, 1.5))
        powers = water_filling(gains, total, noise)
        rate = float(np.sum(np.log2(1.0 + gains * powers / noise)))
        step = 1e-3 * total
        fracs = np.arange(0.0, total + step / 2, step)
        if k == 1:
            best = float(np.log2(1.0 + gains[0] * total / noise))
        elif k == 2:
            rates = np.log2(1.0 + gains[0] * fracs / noise) + np.log2(
                1.0 + gains[1] * (total - fracs) / noise
            )
            best = float(rates.max())
        else:
            best = 0.0
            for p0 in fracs:
                rem = total - p0
                p1 = np.arange(0.0, rem + step / 2, step)
                rates = (
                    np.log2(1.0 + gains[0] * p0 / noise)
                    + np.log2(1.0 + gains[1] * p1 / noise)
                    + np.log2(1.0 + gains[2] * (rem - p1) / noise)
                )
                best = max(best, float(rates.max()))
        assert rate >= best - 1e-5, f"trial {trial}: {rate} vs grid {best}"


def test_criterion_06_ofdm_without_doppler_has_no_intercarrier_leakage():
    cfg = SystemConfig(velocity_mps=0.0)
    for seed in range(5):
        rng = np.random.default_rng([6001, seed])
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        result = ofdm_design_and_rate(
            realization,
            512,
            cfg.max_delay_tap,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            num_streams=cfg.num_streams,
        )
        noise = cfg.noise_power_watts
        for k, r_k in enumerate(result.ranks):
            if r_k == 0:
                continue
            values = result.sinr[k, :r_k]
            signal = cfg.tx_power_watts / r_k * result.singular_values[k, :r_k] ** 2
            implied_ici = signal / values - noise
            assert np.all(implied_ici <= 1e-10 * signal), f"seed {seed}, k={k}"


def test_criterion_07_otfs_operators_keep_their_structure():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=4)
    # per-path operator is unitary: permutation times unit-modulus diagonal
    cfg1 = SystemConfig(num_tx_antennas=16, num_rx_antennas=4, num_paths=1)
    realization1 = realize_channel(
        generate_paths(cfg1, np.random.default_rng(71)), cfg1
    )
    otfs1 = make_otfs_config(realization1, 64, 8, 40)
    gain = otfs_effective_gains(realization1, otfs1)[0]
    psi = otfs_time_channel(realization1, otfs1) / gain
    eye = np.eye(otfs1.grid_size)
    assert np.max(np.abs(psi.conj().T @ psi - eye)) <= 1e-12
    # the delay-Doppler transform is an isometry
    realization = realize_channel(generate_paths(cfg, np.random.default_rng(72)), cfg)
    otfs = make_otfs_config(realization, 64, 8, 40)
    h_time = otfs_time_channel(realization, otfs)
    h_dd = otfs_delay_doppler_channel(realization, otfs)
    assert np.linalg.norm(h_dd) == pytest.approx(np.linalg.norm(h_time), rel=1e-9)
    # beam search: monotone ascent, exact optimum for a lone path
    for seed in range(10):
        r = realize_channel(generate_paths(cfg, np.random.default_rng([73, seed])), cfg)
        c = make_otfs_config(r, 64, 8, 40)
        _, _, trace = otfs_beam_opt(r, c)
        assert np.all(np.diff(trace) >= -1e-9 * max(abs(t) for t in trace))
    alpha = realization1.path_set.gains[0]
    _, _, trace1 = otfs_beam_opt(realization1, otfs1, max_iters=100, tol=1e-13)
    optimum = otfs1.grid_size * 16 * 4 * np.abs(alpha) ** 2
    assert trace1[-1] == pytest.approx(optimum, rel=1e-8)


def test_criterion_08_spectral_efficiency_orderings_across_array_sizes():
    start = time.perf_counter()
    fig4 = run_experiment("fig4-se-vs-mt", seed=0, num_trials=100)
    fig5 = run_experiment("fig5-se-ddam-ofdm-otfs", seed=0, num_trials=100)
    elapsed = time.perf_counter() - start
    for mt in (16.0, 32.0, 64.0):
        zf = _median(fig4, "ddam-zf", mt, "se_bps_hz")
        bcd = _median(fig4, "ddam-bcd", mt, "se_bps_hz")
        ofdm = _median(fig4, "ofdm", mt, "se_bps_hz")
        sp = _median(fig4, "strongest-path", mt, "se_bps_hz")
        assert abs(zf - bcd) <= 0.05 * max(zf, bcd), (
            f"mt={mt}: zf {zf:.2f} vs bcd {bcd:.2f} differ by more than 5%"
        )
        assert min(zf, bcd) > ofdm, f"mt={mt}: ofdm {ofdm:.2f} not below ddam"
        assert ofdm > sp, f"mt={mt}: strongest-path {sp:.2f} not below ofdm"
        zf5 = _median(fig5, "ddam-zf", mt, "se_bps_hz")
        otfs5 = _median(fig5, "otfs", mt, "se_bps_hz")
        ofdm5 = _median(fig5, "ofdm", mt, "se_bps_hz")
        assert zf5 > otfs5 > ofdm5, (
            f"mt={mt} at 500 km/h: ddam {zf5:.2f}, otfs {otfs5:.2f}, ofdm {ofdm5:.2f}"
        )
    assert elapsed < 600.0, f"figure sweeps took {elapsed:.0f} s"


def test_criterion_09_bit_error_ordering_at_30_dbm():
    run = run_experiment("fig6-ber", seed=0, num_trials=100)
    ddam = _median(run, "ddam-zf", 30.0, "ber")
    cfo = _median(run, "ofdm-cfo", 30.0, "ber")
    plain = _median(run, "ofdm", 30.0, "ber")
    assert ddam < cfo < plain, (
        f"median BER at 30 dBm: ddam {ddam:.3e}, ofdm-cfo {cfo:.3e}, ofdm {plain:.3e}"
    )


def test_criterion_10_papr_curve_sits_3_db_left_of_ofdm():
    run = run_experiment("fig8-papr", seed=0, num_trials=500)

    def crossing(scheme):
        rows = sorted(
            (r.param_value, r.mean)
            for r in run.rows
            if r.scheme == scheme and r.metric == "ccdf"
        )
        for threshold, ccdf in rows:
            if ccdf <= 1e-2:
                return threshold
        raise AssertionError(f"{scheme} CCDF never reaches 1e-2")

    ddam_db = crossing("ddam-l3")
    ofdm_db = crossing("ofdm")
    assert ofdm_db - ddam_db >= 3.0, (
        f"PAPR at CCDF 1e-2: ddam {ddam_db:.2f} dB, ofdm {ofdm_db:.2f} dB"
    )


def test_criterion_11_feasibility_map_region_structure():
    run = run_experiment("feasibility-map", seed=0)
    cells = {(r.scheme, r.metric, r.param_value): r.mean for r in run.rows}
    for mr, ns in ((1, 1), (2, 2), (4, 4)):
        scheme = f"mr{mr}-ns{ns}"
        for l in range(1, 9):
            for mt in range(ns, 33):
                code = cells[(scheme, f"verdict_l{l}", float(mt))]
                expected = 1.0 if mt >= l * ns else 0.0
                assert code == expected, (
                    f"{scheme} L={l} mt={mt}: verdict {code}, expected {expected}"
                )
    rect = [
        cells[("mr4-ns2", f"verdict_l{l}", float(mt))]
        for l in range(1, 9)
        for mt in range(2, 33)
    ]
    assert 2.0 in rect, "rectangular receive geometry lost its undetermined band"
