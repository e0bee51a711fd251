"""Zero-forcing delay-Doppler alignment: feasibility, design, alignment."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddamsim import zf
from ddamsim.channel import (
    PathSet,
    apply_channel,
    coherence_partition,
    generate_paths,
    path_coordinates,
    realize_channel,
)
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, FeasibilityError
from ddamsim.zf import (
    DdamDesign,
    FeasibilityVerdict,
    build_ddam_tx,
    residual_isi_power,
    water_filling,
    zf_design,
    zf_feasibility,
    zf_spatial_design,
)
from oracles import (
    build_ddam_tx_loop,
    ddam_rx_analytic,
    path_zf_precoder_bases_dense,
    path_zf_precoder_bases_loop,
    realization_with_matrices,
    zf_pair_witness,
)


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
    # mt >= l ns leaves null-space room for every branch under a generic combiner
    res = zf_feasibility(num_tx=10, num_rx=4, num_streams=2, num_paths=3)
    assert res.verdict is FeasibilityVerdict.FEASIBLE


def test_feasibility_counting_bound():
    # fewer variables than bilinear constraints is flat infeasible
    res = zf_feasibility(num_tx=2, num_rx=2, num_streams=2, num_paths=4)
    assert res.verdict is FeasibilityVerdict.INFEASIBLE


def test_feasibility_gap_is_undetermined():
    # mr=4, ns=2, l=2: the sufficient condition wants mt >= 4, the counting
    # bound only kills mt <= 2, so mt = 3 stays open
    res = zf_feasibility(num_tx=3, num_rx=4, num_streams=2, num_paths=2)
    assert res.verdict is FeasibilityVerdict.UNDETERMINED
    # a former band cell: mt = 6 = l ns
    res = zf_feasibility(num_tx=6, num_rx=4, num_streams=2, num_paths=3)
    assert res.verdict is FeasibilityVerdict.FEASIBLE


def test_feasibility_validation():
    res = zf_feasibility(num_tx=2, num_rx=2, num_streams=3, num_paths=2)
    assert res.verdict is FeasibilityVerdict.INFEASIBLE
    with pytest.raises(ContractViolationError):
        zf_feasibility(num_tx=0, num_rx=2, num_streams=1, num_paths=1)


@pytest.mark.parametrize(
    "dims", [(6.5, 2, 2, 3), (6, 2.0, 2, 3), (6, 2, True, 3), (6, 2, 2, np.float64(3.0))]
)
def test_feasibility_rejects_non_integer_dimensions(dims):
    with pytest.raises(ContractViolationError):
        zf_feasibility(*dims)


def test_feasibility_accepts_numpy_integer_dimensions():
    res = zf_feasibility(np.int64(6), np.int32(2), 2, np.int64(3))
    assert res == zf_feasibility(6, 2, 2, 3)
    assert type(res.num_variables) is int and res.num_variables == 24


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rx_streams=st.sampled_from([(1, 1), (2, 2), (4, 4), (4, 2), (8, 2), (8, 3), (6, 4)]),
    num_paths=st.integers(1, 8),
    # M_t around the threshold L * N_s, where the verdict changes
    tx_offset=st.integers(-4, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(rx_streams=(4, 2), num_paths=3, tx_offset=0, seed=0)
def test_feasible_verdict_has_a_zf_witness(rx_streams, num_paths, tx_offset, seed):
    num_rx, num_streams = rx_streams
    num_tx = max(1, num_paths * num_streams + tx_offset)
    verdict = zf_feasibility(num_tx, num_rx, num_streams, num_paths).verdict
    if verdict is not FeasibilityVerdict.FEASIBLE:
        return
    rng = np.random.default_rng(seed)
    shape = (num_paths, num_rx, num_tx)
    matrices = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    combiner, precoders = zf_pair_witness(matrices, num_streams, rng)
    blocks = combiner.conj().T @ matrices[:, None] @ precoders[None]  # [k, l] = W^H H_k F_l
    for k in range(num_paths):
        for l in range(num_paths):
            if k == l:
                assert np.linalg.svd(blocks[k, l], compute_uv=False).min() > 1e-6
            else:
                assert np.linalg.norm(blocks[k, l]) <= 1e-8


def test_build_ddam_tx_advances_each_branch_to_the_longest_delay():
    # branch l drives antenna l alone; an impulse must leave it at
    # kappa_l = m_max - m_l
    cfg = SystemConfig(num_tx_antennas=3)
    design = DdamDesign(
        precoders=np.eye(3, dtype=np.complex128)[:, :, None],
        combiner=np.ones((2, 1), dtype=np.complex128),
        delay_taps=np.array([7, 2, 5]),
        doppler_hz=np.zeros(3),
    )
    impulse = np.zeros((10, 1), dtype=np.complex128)
    impulse[0] = 1.0
    x = build_ddam_tx(design, impulse, coherence_partition(cfg))
    assert [int(np.flatnonzero(x[:, l])[0]) for l in range(3)] == [0, 5, 2]
    assert np.count_nonzero(x) == 3


def test_zf_design_kills_interpath_interference():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    for seed in range(10):
        realization, rng = _random_realization(cfg, seed)
        design, result = zf_design(
            realization,
            total_power=cfg.tx_power_watts,
            noise_var=cfg.noise_power_watts,
            # a numpy integer is a stream count as a Python int is
            num_streams=np.int64(cfg.num_streams),
        )
        assert design.total_power() == pytest.approx(cfg.tx_power_watts, rel=1e-9)
        desired, isi = residual_isi_power(design, realization, timebase, 4000, rng)
        assert isi <= 1e-10 * desired, f"seed {seed}: isi/desired = {isi / desired:.3e}"


def test_zf_design_rejects_infeasible_geometry():
    # two antennas leave no interference-free transmit direction once the
    # other two paths are projected out
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_streams=2)
    realization, _ = _random_realization(cfg, 0)
    with pytest.raises(FeasibilityError):
        zf_design(realization, 1.0, 1e-13, 2)
    # malformed arguments are rejected before the nulling finds it infeasible
    for args in ((0.0, 1e-13, 2), (1.0, np.inf, 2), (1.0, 1e-13, 0)):
        with pytest.raises(ContractViolationError):
            zf_design(realization, *args)


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
        delay_taps=paths.delay_taps,
        doppler_hz=paths.doppler_hz,
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
    kappa = paths.max_delay_tap - paths.delay_taps
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
        [powers] = water_filling(gains[None], total, noise)
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
    [powers] = water_filling(gains[None], total, noise)
    assert powers.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
    assert np.all(powers[gains <= 0] == 0.0)
    active = powers > 0
    floors = noise / gains[active]
    levels = powers[active] + floors
    level = float(levels.max())
    assert np.allclose(levels, level, rtol=1e-12, atol=0.0)
    inactive = (gains > 0) & ~active
    assert np.all(noise / gains[inactive] >= level * (1.0 - 1e-12))


@st.composite
def _gain_stacks(draw):
    """An (S, K) stack of mode gains, each row with at least one positive gain.

    Zero and negative gains get no power, repeated gains give tied floors,
    and gains down to 1e-6 give floors that dwarf the smallest budgets.
    """
    width = draw(st.integers(1, 12))
    gain = st.one_of(
        st.sampled_from([0.0, -1.0, 0.25, 1.0, 4.0]), _log_uniform(-6.0, 6.0)
    )
    row = st.lists(gain, min_size=width, max_size=width).filter(
        lambda g: any(x > 0 for x in g)
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=8)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stack=_gain_stacks(), total=_log_uniform(-6.0, 3.0), noise=_log_uniform(-3.0, 1.0))
# a lone positive gain, and one lone active mode below a floor gap wider than the budget
@example(stack=np.array([[0.0, 3.0, -1.0], [2.0, 1e-6, 0.0]]), total=1e-3, noise=1.0)
# tied floors, all active and all but one inactive
@example(stack=np.array([[1.0, 1.0, 1.0, 0.5], [4.0, 4.0, 0.0, 4.0]]), total=10.0, noise=0.1)
def test_stacked_water_filling_equals_one_row_calls(stack, total, noise):
    powers = water_filling(stack, total, noise)
    assert powers.shape == stack.shape
    for gains, got in zip(stack, powers):
        assert np.array_equal(got, water_filling(gains[None], total, noise)[0])


def test_water_filling_floods_strong_mode_first():
    [powers] = water_filling(np.array([[10.0, 0.01]]), total_power=0.1, noise_var=1.0)
    assert powers[0] > 0.099 and powers[1] < 1e-3


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["total_power", "noise_var"])
def test_water_filling_and_zf_design_reject_bad_power_and_noise(name, bad):
    # an inf budget once returned an infinite rate, and a NaN budget or a
    # non-finite noise a NumericalError that blamed the solver
    budget = {"total_power": 1.0, "noise_var": 0.1, name: bad}
    with pytest.raises(ContractViolationError):
        water_filling(np.array([[2.0, 0.5]]), **budget)
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    realization, _ = _random_realization(cfg, 17)
    with pytest.raises(ContractViolationError):
        zf_design(realization, num_streams=2, **budget)


@pytest.mark.parametrize("bad", [1.5, True, 0, np.float64(2.0)])
def test_zf_design_rejects_a_stream_count_that_is_not_a_positive_integer(bad):
    # 1.5 once raised a TypeError from a slice, and True ran as one stream
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_streams=2)
    realization, _ = _random_realization(cfg, 17)
    with pytest.raises(ContractViolationError):
        zf_design(realization, 1.0, cfg.noise_power_watts, bad)


def test_ddam_design_validation():
    precoders = np.zeros((2, 4, 1), dtype=np.complex128)
    combiner = np.zeros((2, 1), dtype=np.complex128)
    with pytest.raises(ContractViolationError):
        DdamDesign(
            precoders=precoders,
            combiner=combiner,
            delay_taps=np.array([3, 3], dtype=np.int64),  # duplicate
            doppler_hz=np.zeros(2),
        )
    with pytest.raises(ContractViolationError):
        DdamDesign(
            precoders=precoders,
            combiner=combiner,
            delay_taps=np.array([-1, 2], dtype=np.int64),  # negative
            doppler_hz=np.zeros(2),
        )


@pytest.mark.parametrize(
    "delays,dopplers",
    [
        ([0, 2.7], [0.0, 0.0]),     # fractional delay
        ([0, np.nan], [0.0, 0.0]),  # NaN delay
        ([0, 2], [0.0, np.nan]),    # NaN Doppler
        ([0, 2], [np.inf, 0.0]),    # infinite Doppler
        ([True, False], [0.0, 0.0]),
    ],
)
def test_ddam_design_rejects_bad_branch_delays_and_dopplers(delays, dopplers):
    # a cast would truncate 2.7 to 2, and a NaN Doppler makes an all-NaN frame
    with pytest.raises(ContractViolationError):
        DdamDesign(
            precoders=np.zeros((2, 4, 1), dtype=np.complex128),
            combiner=np.zeros((2, 1), dtype=np.complex128),
            delay_taps=delays,
            doppler_hz=dopplers,
        )


def _member_matrices(kind, cfg, rng):
    """One stack member's (L, M_r, M_t) path channels, degenerate for some kinds.

    "geometric" draws from the channel model, "shared-angle" gives two paths
    the same departure angle, "zero-path" silences one path and "general"
    is an i.i.d. Gaussian full-rank stack, as realization_from_json allows.
    """
    paths = generate_paths(cfg, rng)
    first, second = rng.choice(cfg.num_paths, size=2, replace=cfg.num_paths == 1)
    if kind == "shared-angle":
        aod = paths.aod_rad.copy()
        aod[second] = aod[first]
        paths = replace(paths, aod_rad=aod)
    elif kind == "zero-path":
        gains = paths.gains.copy()
        gains[first] = 0.0
        paths = replace(paths, gains=gains)
    realization = realize_channel(paths, cfg)
    if kind == "general":
        shape = realization.matrices.shape
        matrices = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        realization = realization_with_matrices(realization, matrices)
    return realization


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 64),
    num_paths=st.integers(1, 5),
    num_rx=st.sampled_from([1, 2, 4]),
    stream_pick=st.integers(1, 4),
    kinds=st.lists(
        st.sampled_from(["geometric", "shared-angle", "zero-path", "general"]),
        min_size=1,
        max_size=6,
    ),
)
def test_stacked_zf_design_equals_one_realization_calls(
    seed, num_tx, num_paths, num_rx, stream_pick, kinds
):
    num_streams = min(stream_pick, num_tx, num_rx)
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_paths=num_paths,
        num_streams=num_streams,
    )
    rng = np.random.default_rng(seed)
    realizations = [_member_matrices(kind, cfg, rng) for kind in kinds]
    budget = (cfg.tx_power_watts, cfg.noise_power_watts, num_streams)
    alone = []
    for realization in realizations:
        try:
            alone.append(zf_design(realization, *budget))
        except FeasibilityError:
            alone.append(None)
    if None in alone:
        # a member with no null directions fails the whole stacked call
        with pytest.raises(FeasibilityError):
            zf_design(realizations, *budget)
        return
    stacked = zf_design(realizations, *budget)
    assert len(stacked) == len(realizations)
    for realization, (design, result), (want, want_result) in zip(realizations, stacked, alone):
        assert np.array_equal(design.precoders, want.precoders)
        assert np.array_equal(design.combiner, want.combiner)
        assert result.rate_bps_hz == want_result.rate_bps_hz
        mats = realization.matrices
        for l, f_l in enumerate(design.precoders):
            for k in range(num_paths):
                if k != l:
                    leak = np.linalg.norm(mats[k] @ f_l)
                    assert leak <= 1e-8 * np.linalg.norm(mats[k]) * np.linalg.norm(f_l)


def test_zf_design_rejects_realizations_of_different_shapes():
    paths = generate_paths(SystemConfig(), np.random.default_rng(1))
    small = realize_channel(paths, SystemConfig(num_tx_antennas=8))
    large = realize_channel(paths, SystemConfig(num_tx_antennas=16))
    for realizations in ([small, large], []):
        with pytest.raises(ContractViolationError):
            zf_design(realizations, 1.0, 1e-13, 2)


def _dense_bases(stack):
    # the dense oracle's bases of a one-realization stack, padded to M_t columns
    return path_zf_precoder_bases_dense(stack[0])[None]


def _dense_spatial_design(mats, *args):
    # zf_spatial_design over the full null spaces of the dense oracle, on
    # the antennas themselves: the identity basis, whose coordinates are H_l
    identity = np.eye(mats.shape[-1], dtype=np.complex128)[None]
    with mock.patch.object(zf, "path_zf_precoder_bases", _dense_bases):
        return zf_spatial_design(identity, mats, *args)


def _spatial_design(mats, *args):
    # zf_spatial_design of a one-realization stack of path matrices
    return zf_spatial_design(*path_coordinates(mats), *args)


def _path_stack(kind, seed, num_tx, num_rx, num_paths):
    """(L, M_r, M_t) path channels and the link budget for one draw.

    "geometric" draws rank-one paths from the channel model; the other kinds
    are i.i.d. Gaussian, "duplicate" with one path repeated and "zero-gain"
    with one path silenced, so the stacked adjoint is rank-deficient.
    """
    rng = np.random.default_rng(seed)
    if kind == "geometric":
        cfg = SystemConfig(
            num_tx_antennas=num_tx,
            num_rx_antennas=num_rx,
            num_paths=num_paths,
            num_streams=1,
        )
        realization = realize_channel(generate_paths(cfg, rng), cfg)
        return realization.matrices, cfg.tx_power_watts, cfg.noise_power_watts
    shape = (num_paths, num_rx, num_tx)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    first, second = rng.choice(num_paths, size=2, replace=num_paths == 1)
    if kind == "duplicate":
        mats[second] = mats[first]
    elif kind == "zero-gain":
        mats[first] = 0.0
    return mats, 1.0, 0.1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "geometric", "duplicate", "zero-gain"]),
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 64),
    num_paths=st.integers(1, 5),
    num_rx=st.sampled_from([1, 2, 4]),
)
def test_batched_null_spaces_equal_per_path_loop(kind, seed, num_tx, num_paths, num_rx):
    mats, _, _ = _path_stack(kind, seed, num_tx, num_rx, num_paths)
    _, coords = path_coordinates(mats[None])
    try:
        want = path_zf_precoder_bases_loop(coords[0])
    except FeasibilityError:
        with pytest.raises(FeasibilityError):
            zf.path_zf_precoder_bases(coords)
        return
    [got] = zf.path_zf_precoder_bases(coords)
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "geometric", "duplicate", "zero-gain"]),
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 64),
    num_paths=st.integers(1, 5),
    num_rx=st.sampled_from([1, 2, 4]),
    stream_pick=st.integers(1, 4),
)
def test_zf_spatial_design_matches_dense_null_spaces(
    kind, seed, num_tx, num_paths, num_rx, stream_pick
):
    num_streams = min(stream_pick, num_tx, num_rx)
    mats, budget, noise = _path_stack(kind, seed, num_tx, num_rx, num_paths)
    try:
        [(want_precoders, want)] = _dense_spatial_design(mats[None], budget, noise, num_streams)
    except FeasibilityError:
        with pytest.raises(FeasibilityError):
            _spatial_design(mats[None], budget, noise, num_streams)
        return
    [(precoders, got)] = _spatial_design(mats[None], budget, noise, num_streams)
    for l, f_l in enumerate(precoders):
        for k in range(num_paths):
            if k != l:
                leak = np.linalg.norm(mats[k] @ f_l)
                assert leak <= 1e-8 * np.linalg.norm(mats[k]) * np.linalg.norm(f_l)
    assert got.n_active_streams == want.n_active_streams
    power = sum(float(np.sum(np.abs(f) ** 2)) for f in precoders)
    if want.n_active_streams:
        assert power == pytest.approx(budget, rel=1e-9, abs=0.0)
    else:
        assert power == 0.0
    assert got.rate_bps_hz == pytest.approx(want.rate_bps_hz, rel=1e-12, abs=0.0)
    assert np.allclose(got.mode_gains, want.mode_gains, rtol=1e-12, atol=0.0)
    # F is unique up to one phase per stream, so F F^H is the invariant
    f_got = np.concatenate(precoders, axis=0)
    f_want = np.concatenate(want_precoders, axis=0)
    gram_got, gram_want = f_got @ f_got.conj().T, f_want @ f_want.conj().T
    assert np.linalg.norm(gram_got - gram_want) <= 1e-9 * max(
        np.linalg.norm(gram_want), 1e-300
    )


@pytest.mark.parametrize("num_streams", [1, 2])
@pytest.mark.parametrize(
    "delays,n_samples",
    [
        ([40, 37, 29, 0], 600),  # advances 0, 3, 11, 40, all inside the frame
        ([40, 37, 29, 0], 11),   # the last two advances reach past the frame
        ([9, 0], 5),             # only the longest-delay branch reaches the frame
    ],
)
def test_build_ddam_tx_matches_per_path_loop(num_streams, delays, n_samples):
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2)
    timebase = coherence_partition(cfg)
    rng = np.random.default_rng([num_streams, n_samples, len(delays)])
    shape = (len(delays), cfg.num_tx_antennas, num_streams)
    design = DdamDesign(
        precoders=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        combiner=np.eye(2, num_streams, dtype=np.complex128),
        delay_taps=np.array(delays, dtype=np.int64),
        doppler_hz=rng.uniform(-2e4, 2e4, len(delays)),
    )
    s = rng.standard_normal((n_samples, num_streams)) + 1j * rng.standard_normal(
        (n_samples, num_streams)
    )
    got = build_ddam_tx(design, s, timebase)
    want = build_ddam_tx_loop(design, s, timebase)
    assert got.shape == want.shape == (n_samples, cfg.num_tx_antennas)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    delays=st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
    num_tx=st.integers(1, 12),
    num_rx=st.integers(1, 3),
    num_streams=st.integers(1, 3),
    extra_samples=st.integers(1, 60),
    velocity=st.sampled_from([50.0, 500.0 / 3.6]),
)
def test_each_branch_arrives_on_its_path_as_the_spatial_link(
    seed, delays, num_tx, num_rx, num_streams, extra_samples, velocity
):
    # branch l alone through path l alone must deliver H_l F_l s[n - m_max]
    # with no per-path phase left: build_ddam_tx cancels the Doppler phase
    # that the path's own delay adds, so the precoders stay spatial
    cfg = SystemConfig(
        num_tx_antennas=num_tx, num_rx_antennas=num_rx, num_streams=1, velocity_mps=velocity
    )
    rng = np.random.default_rng(seed)
    num_paths = len(delays)
    nu_max = cfg.max_doppler_hz
    paths = PathSet(
        gains=rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths),
        aoa_rad=rng.uniform(-np.pi / 2, np.pi / 2, num_paths),
        aod_rad=rng.uniform(-np.pi / 2, np.pi / 2, num_paths),
        delay_taps=np.array(delays),
        doppler_hz=rng.uniform(-nu_max, nu_max, num_paths),
        doppler_bound_hz=nu_max,
        delay_tap_bound=cfg.max_delay_tap,
    )
    realization = realize_channel(paths, cfg)
    shape = (num_paths, num_tx, num_streams)
    precoders = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m_max = paths.max_delay_tap
    n = m_max + extra_samples
    s = rng.standard_normal((n, num_streams)) + 1j * rng.standard_normal((n, num_streams))
    timebase = coherence_partition(cfg)
    for l in range(num_paths):
        alone = np.zeros_like(precoders)
        alone[l] = precoders[l]
        design = DdamDesign(
            alone, np.zeros((num_rx, num_streams)), paths.delay_taps, paths.doppler_hz
        )
        only_path = np.zeros_like(realization.matrices)
        only_path[l] = realization.matrices[l]
        tx = build_ddam_tx(design, s, timebase)
        got = apply_channel(replace(realization, matrices=only_path), tx)
        want = np.zeros((n, num_rx), dtype=np.complex128)
        want[m_max:] = s[: n - m_max] @ (realization.matrices[l] @ precoders[l]).T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), l
