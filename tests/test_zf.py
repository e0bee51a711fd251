"""Zero-forcing delay-Doppler alignment: feasibility, design, alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddamsim.channel import (
    PathSet,
    apply_channel,
    coherence_partition,
    generate_paths,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError
from ddamsim.zf import (
    DdamDesign,
    FeasibilityVerdict,
    build_ddam_tx,
    delay_precompensation,
    residual_isi_power,
    split_stacked_precoder,
    water_filling,
    zf_design,
    zf_feasibility,
)
from oracles import ddam_rx_analytic


def _random_realization(cfg, seed):
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    return realize_channel(paths, cfg), rng


def test_feasibility_counts():
    res = zf_feasibility(num_tx=6, num_rx=2, num_streams=2, num_paths=3)
    assert res.num_equations == 3 * 2 * 4  # l(l-1) ns^2
    assert res.num_variables == 2 * (3 * 6 + 2) - 4 * 4  # ns(l mt + mr) - (l+1) ns^2


def test_feasibility_equal_stream_boundary():
    # with ns == mr the cutoff sits exactly at mt == l * ns
    for l in (1, 2, 3, 5):
        for ns in (1, 2, 4):
            at = zf_feasibility(l * ns, ns, ns, l)
            below = zf_feasibility(max(l * ns - 1, ns), ns, ns, l)
            assert at.verdict is FeasibilityVerdict.FEASIBLE
            if l * ns - 1 >= ns:
                assert below.verdict is FeasibilityVerdict.INFEASIBLE


def test_feasibility_sufficient_antennas():
    # mt >= (l-1) mr + ns guarantees null-space room for every branch
    res = zf_feasibility(num_tx=10, num_rx=4, num_streams=2, num_paths=3)
    assert res.verdict is FeasibilityVerdict.FEASIBLE


def test_feasibility_counting_bound():
    # fewer variables than bilinear constraints is flat infeasible
    res = zf_feasibility(num_tx=2, num_rx=2, num_streams=2, num_paths=4)
    assert res.verdict is FeasibilityVerdict.INFEASIBLE


def test_feasibility_gap_is_undetermined():
    # mr=4, ns=2, l=3: sufficient condition wants mt >= 10, the counting
    # bound only kills mt <= 5, so the middle band stays open
    res = zf_feasibility(num_tx=6, num_rx=4, num_streams=2, num_paths=3)
    assert res.verdict is FeasibilityVerdict.UNDETERMINED


def test_feasibility_validation():
    with pytest.raises(ContractViolationError):
        zf_feasibility(num_tx=2, num_rx=2, num_streams=3, num_paths=2)
    with pytest.raises(ContractViolationError):
        zf_feasibility(num_tx=0, num_rx=2, num_streams=1, num_paths=1)


def test_delay_precompensation_advances_to_max():
    paths = PathSet(
        gains=np.ones(3, dtype=np.complex128),
        aoa_rad=np.zeros(3),
        aod_rad=np.zeros(3),
        delay_taps=np.array([7, 2, 5], dtype=np.int64),
        doppler_hz=np.zeros(3),
        doppler_bound_hz=1.0,
        delay_tap_bound=10,
    )
    kappa = delay_precompensation(paths)
    assert np.array_equal(kappa, np.array([0, 5, 2]))


def test_zf_design_kills_interpath_interference():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    for seed in range(10):
        realization, rng = _random_realization(cfg, seed)
        design, result = zf_design(
            realization,
            total_power=cfg.tx_power_watts,
            noise_var=cfg.noise_power_watts,
            num_streams=cfg.num_streams,
        )
        assert design.total_power() == pytest.approx(cfg.tx_power_watts, rel=1e-9)
        desired, isi = residual_isi_power(design, realization, timebase, 4000, rng)
        assert isi <= 1e-10 * desired, f"seed {seed}: isi/desired = {isi / desired:.3e}"


def test_zf_design_rejects_infeasible_geometry():
    # two antennas leave no interference-free transmit direction once the
    # other two paths are projected out
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_streams=2)
    realization, _ = _random_realization(cfg, 0)
    from ddamsim.errors import FeasibilityError

    with pytest.raises(FeasibilityError):
        zf_design(realization, 1.0, 1e-13, 2)


def test_zf_combined_output_is_scaled_delayed_symbols():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    realization, rng = _random_realization(cfg, 3)
    design, result = zf_design(realization, 1.0, cfg.noise_power_watts, 2)
    n = 600
    s = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    x = build_ddam_tx(design, s, timebase)
    y = apply_channel(realization, x) @ design.combiner.conj()
    m_max = realization.path_set.max_delay_tap
    # mode_gains are power gains of the aligned channel, so the per-stream
    # amplitude is sqrt(gain * allocated power)
    amps = np.sqrt(result.mode_gains * result.mode_powers)
    expected = np.zeros_like(y)
    expected[m_max:] = s[: n - m_max] * amps[None, :]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(y - expected)) <= 1e-8 * scale


def test_analytic_rx_matches_time_oracle():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    for seed in range(5):
        realization, rng = _random_realization(cfg, seed + 100)
        design, _ = zf_design(realization, 1.0, cfg.noise_power_watts, 2)
        n = 300
        s = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        x = build_ddam_tx(design, s, timebase)
        direct = apply_channel(realization, x) @ design.combiner.conj()
        analytic = ddam_rx_analytic(realization, design, s)
        scale = max(np.max(np.abs(direct)), 1e-300)
        assert np.max(np.abs(direct - analytic)) <= 1e-9 * scale, f"seed {seed + 100}"


def test_analytic_rx_interference_lags():
    # with the ZF nulls removed by hand (identity precoders) the analytic
    # receiver must place the (l, l') term at lag kappa_l' + m_l
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_paths=2)
    rng = np.random.default_rng(0)
    paths = PathSet(
        gains=np.array([1.0, 0.5j]),
        aoa_rad=np.array([0.2, -0.3]),
        aod_rad=np.array([0.1, 0.4]),
        delay_taps=np.array([1, 4], dtype=np.int64),
        doppler_hz=np.array([1000.0, -2000.0]),
        doppler_bound_hz=5000.0,
        delay_tap_bound=10,
    )
    realization = realize_channel(paths, cfg)
    timebase = coherence_partition(cfg)
    precoders = np.stack([np.eye(2, 1, dtype=np.complex128) for _ in range(2)])
    design = DdamDesign(
        precoders=precoders,
        combiner=np.eye(2, 1, dtype=np.complex128),
        delay_comp=delay_precompensation(paths),
        doppler_comp=paths.doppler_hz.copy(),
    )
    n = 64
    s = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    x = build_ddam_tx(design, s, timebase)
    direct = apply_channel(realization, x) @ design.combiner.conj()
    analytic = ddam_rx_analytic(realization, design, s)
    assert np.max(np.abs(direct - analytic)) <= 1e-12 * np.max(np.abs(direct))
    # impulse probe: energy may only appear at the four predicted lags
    impulse = np.zeros((n, 1), dtype=np.complex128)
    impulse[0, 0] = 1.0
    resp = ddam_rx_analytic(realization, design, impulse)
    hot = set(np.flatnonzero(np.abs(resp[:, 0]) > 1e-15).tolist())
    kappa = design.delay_comp
    allowed = {int(kappa[lp] + paths.delay_taps[l]) for l in range(2) for lp in range(2)}
    assert hot <= allowed, f"energy at unexpected lags {sorted(hot - allowed)}"


def test_build_ddam_tx_average_power():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    realization, rng = _random_realization(cfg, 7)
    design, _ = zf_design(realization, 1.0, cfg.noise_power_watts, 2)
    n = 20000
    s = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    x = build_ddam_tx(design, s, timebase)
    avg = float(np.mean(np.sum(np.abs(x) ** 2, axis=1)))
    assert avg == pytest.approx(1.0, rel=0.05)


def test_water_filling_matches_grid_search():
    rng = np.random.default_rng(21)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        gains = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
        total = float(rng.uniform(0.5, 4.0))
        noise = float(rng.uniform(0.1, 1.0))
        powers = water_filling(gains, total, noise)
        assert powers.min() >= -1e-12
        assert powers.sum() == pytest.approx(total, rel=1e-9)
        best = _grid_best_rate(gains, total, noise, steps=200)
        mine = float(np.sum(np.log2(1.0 + gains * powers / noise)))
        assert mine >= best - 1e-4, f"water filling lost to grid: {mine} < {best}"


def _grid_best_rate(gains, total, noise, steps):
    # gains enter the rate as power gains: log2(1 + g * p / noise)
    k = gains.size
    if k == 1:
        return float(np.log2(1.0 + gains[0] * total / noise))
    fracs = np.linspace(0.0, 1.0, steps + 1)
    best = 0.0
    if k == 2:
        p0 = fracs * total
        rates = np.log2(1.0 + gains[0] * p0 / noise) + np.log2(
            1.0 + gains[1] * (total - p0) / noise
        )
        best = float(rates.max())
    else:
        for f0 in fracs:
            rem = total * (1.0 - f0)
            p1 = fracs * rem
            rates = (
                np.log2(1.0 + gains[0] * f0 * total / noise)
                + np.log2(1.0 + gains[1] * p1 / noise)
                + np.log2(1.0 + gains[2] * (rem - p1) / noise)
            )
            best = max(best, float(rates.max()))
    return best


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    gains=st.lists(
        st.one_of(st.just(0.0), _log_uniform(-6.0, 6.0)), min_size=1, max_size=8
    ).filter(lambda g: any(x > 0 for x in g)),
    total=_log_uniform(-3.0, 3.0),
    noise=_log_uniform(-3.0, 1.0),
)
def test_water_filling_kkt_conditions(gains, total, noise):
    # floors noise/g reach 1e10 times the budget here, where a bisected
    # water level loses the budget to cancellation
    gains = np.asarray(gains)
    powers = water_filling(gains, total, noise)
    assert powers.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
    assert np.all(powers[gains <= 0] == 0.0)
    active = powers > 0
    floors = noise / gains[active]
    levels = powers[active] + floors
    level = float(levels.max())
    assert np.allclose(levels, level, rtol=1e-12, atol=0.0)
    inactive = (gains > 0) & ~active
    assert np.all(noise / gains[inactive] >= level * (1.0 - 1e-12))


def test_water_filling_floods_strong_mode_first():
    powers = water_filling(np.array([10.0, 0.01]), total_power=0.1, noise_var=1.0)
    assert powers[0] > 0.099 and powers[1] < 1e-3


def test_split_stacked_precoder_round_trip():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    realization, _ = _random_realization(cfg, 13)
    design, result = zf_design(realization, 1.0, cfg.noise_power_watts, 2)
    from ddamsim.zf import path_zf_precoder_bases

    bases = path_zf_precoder_bases(realization.matrices)
    parts = split_stacked_precoder(bases, result.stacked_precoder)
    # the design additionally folds the constant delay-Doppler phase of
    # each path into its precoder
    paths = realization.path_set
    ts = realization.symbol_duration_s
    fold = np.exp(-2j * np.pi * paths.doppler_hz * paths.delay_taps * ts)
    for l in range(len(bases)):
        assert np.allclose(parts[l] * fold[l], design.precoders[l], atol=1e-15)


def test_ddam_design_validation():
    precoders = np.zeros((2, 4, 1), dtype=np.complex128)
    combiner = np.zeros((2, 1), dtype=np.complex128)
    with pytest.raises(ContractViolationError):
        DdamDesign(
            precoders=precoders,
            combiner=combiner,
            delay_comp=np.array([3, 3], dtype=np.int64),  # duplicate
            doppler_comp=np.zeros(2),
        )
    with pytest.raises(ContractViolationError):
        DdamDesign(
            precoders=precoders,
            combiner=combiner,
            delay_comp=np.array([-1, 2], dtype=np.int64),  # negative
            doppler_comp=np.zeros(2),
        )
