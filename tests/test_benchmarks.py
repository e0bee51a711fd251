"""Reference transceivers: OFDM with ICI, OTFS, strongest-path beams."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddamsim.benchmarks import (
    OtfsConfig,
    cfo_compensate,
    ici_coefficient,
    make_otfs_config,
    ofdm_design,
    ofdm_design_and_rate,
    ofdm_rate,
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
from ddamsim.errors import ContractViolationError, NumericalError
from ddamsim.experiments import BER_POWER_SWEEP_DBM
from oracles import (
    _shift_phase_operator,
    delay_doppler_transform,
    measure_beam_sinr,
    ofdm_design_and_rate_loop,
    ofdm_ici_direct,
    ofdm_precoder_stack,
    otfs_beam_opt_dense,
    otfs_delay_doppler_channel,
    otfs_rate,
    otfs_time_channel,
    realization_with_matrices,
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
        assert ici_coefficient(0.0, 1e-8, 32, delta) == 0.0


@pytest.mark.parametrize(
    "num_subcarriers, delta",
    [
        (32, 1.0),
        (32, 0.5),
        (32, True),
        (32, np.array([0, 1], dtype=bool)),
        (32, np.arange(4, dtype=np.float64)),
        (32.0, 1),
        (True, 0),
        (np.float64(16), 1),
        (0, 1),
    ],
    ids=[
        "float-delta",
        "fractional-delta",
        "bool-delta",
        "bool-array-delta",
        "float-array-delta",
        "float-count",
        "bool-count",
        "numpy-float-count",
        "zero-count",
    ],
)
def test_ici_coefficient_rejects_non_integer_arguments(num_subcarriers, delta):
    # the closed form takes exp(j 2 pi delta) = 1, which needs an integer delta
    with pytest.raises(ContractViolationError):
        ici_coefficient(100.0, 1e-8, num_subcarriers, delta)


def test_ici_coefficient_accepts_numpy_integers():
    want = ici_coefficient(123.0, 1e-8, 16, 3)
    assert ici_coefficient(123.0, 1e-8, np.int16(16), np.int8(3)) == want
    assert ici_coefficient(123.0, 1e-8, 16, np.array([3], dtype=np.uint8))[0] == want


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

    precoders = ofdm_precoder_stack(result)
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
                f_q = precoders[q, :, : result.ranks[q]]
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
        # None: the oracle runs uncapped, the library at the cap M_r
        result = ofdm_design_and_rate(*args, num_streams=num_streams or cfg.num_rx_antennas)
        reference = ofdm_design_and_rate_loop(*args, num_streams=num_streams)
        assert np.array_equal(result.ranks, reference.ranks), f"seed {seed}"
        _assert_same_design(result, reference, cfg.tx_power_watts, f"seed {seed}")
        assert result.rate_bps_hz == pytest.approx(reference.rate_bps_hz, rel=1e-12)
        np.testing.assert_allclose(result.sinr, reference.sinr, rtol=1e-11, atol=0)


def _assert_same_design(result, reference, total_power, msg):
    """Same stacks as the loop oracle's, zero padding included, to rounding.

    The tolerances pin the singular-vector phases too: a column with
    another phase is off by O(1) of its norm.
    """
    for name in ("combiners", "singular_values"):
        got, want = getattr(result, name), getattr(reference, name)
        assert got.shape == want.shape, f"{name} {msg}"
        scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, f"{name} {msg}"
    got, want = ofdm_precoder_stack(result), ofdm_precoder_stack(reference)
    assert got.shape == want.shape, msg
    # each loaded subcarrier's precoder has Frobenius norm sqrt(total_power)
    np.testing.assert_allclose(
        got,
        want,
        rtol=0,
        atol=1e-12 * np.sqrt(total_power),
        err_msg=f"precoders {msg}",
    )


@pytest.mark.parametrize("num_paths", [1, 3], ids=["padded", "unpadded"])
def test_ofdm_result_has_no_antenna_axis_per_subcarrier(num_paths):
    # W = max(2 M_r, M_r + C) with C = L rank-one components of a ray channel
    cfg = SystemConfig(num_tx_antennas=1024, num_paths=num_paths)
    realization = _realization(cfg, 5)
    result = ofdm_design_and_rate(
        realization,
        512,
        cfg.max_delay_tap,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        num_streams=cfg.num_streams,
    )
    m_r = cfg.num_rx_antennas
    width = max(2 * m_r, m_r + num_paths)
    assert result.precoder_coords.shape[1] == width
    assert result.antenna_basis.shape == (1024, width)
    # the nonzero columns are orthonormal, so the budget checked on the
    # coordinates is the power on the antennas
    basis = result.antenna_basis
    used = basis[:, np.any(basis != 0, axis=0)]
    assert used.shape[1] == m_r + num_paths
    assert np.max(np.abs(used.conj().T @ used - np.eye(used.shape[1]))) <= 1e-12
    loaded = result.ranks > 0
    coord_power = np.sum(np.abs(result.precoder_coords[loaded]) ** 2, axis=(1, 2))
    antenna_power = np.sum(np.abs(ofdm_precoder_stack(result)[loaded]) ** 2, axis=(1, 2))
    np.testing.assert_allclose(coord_power, cfg.tx_power_watts, rtol=1e-9, atol=0)
    np.testing.assert_allclose(antenna_power, coord_power, rtol=1e-12, atol=0)


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
    result = ofdm_design_and_rate(realization, 16, 4, 1.0, cfg.noise_power_watts, 2)
    assert result.rate_bps_hz == 0.0
    assert np.array_equal(result.ranks, np.zeros(16))
    # one all-zero slot per subcarrier, so sinr[:, 0] always exists
    assert np.array_equal(ofdm_precoder_stack(result), np.zeros((16, 4, 1)))
    assert np.array_equal(result.combiners, np.zeros((16, 2, 1)))
    assert np.array_equal(result.singular_values, np.zeros((16, 1)))
    assert np.array_equal(result.sinr, np.zeros((16, 1)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    data=st.data(),
    branch=st.sampled_from(["identity", "padded", "unpadded", "all-zero"]),
    seed=st.integers(0, 2**32 - 1),
    num_subcarriers=st.sampled_from([8, 32]),
    num_streams=st.sampled_from([None, 1]),
    velocity_mps=st.sampled_from([50.0, 500.0 / 3.6]),
)
def test_ofdm_compressed_svd_matches_loop_oracle(
    data, branch, seed, num_subcarriers, num_streams, velocity_mps
):
    # a ray channel has C = L rank-one components; the SVD is compressed
    # when M_t > max(2 M_r, M_r + C) and zero-padded when C < M_r
    if branch == "padded":
        num_rx = data.draw(st.sampled_from([2, 4]), label="num_rx")
        num_paths = data.draw(st.integers(1, num_rx - 1), label="num_paths")
        num_tx = data.draw(st.integers(2 * num_rx + 1, 64), label="num_tx")
    elif branch == "unpadded":
        num_rx = data.draw(st.sampled_from([1, 2, 4]), label="num_rx")
        num_paths = data.draw(st.integers(num_rx, 5), label="num_paths")
        num_tx = data.draw(st.integers(num_rx + num_paths + 1, 64), label="num_tx")
    else:
        num_rx = data.draw(st.sampled_from([1, 2, 4]), label="num_rx")
        num_paths = data.draw(st.integers(1, 5), label="num_paths")
        widest = 64 if branch == "all-zero" else max(2 * num_rx, num_rx + num_paths)
        num_tx = data.draw(st.integers(1, widest), label="num_tx")
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity_mps,
    )
    if branch == "all-zero":
        realization = realize_channel(_path_set([0.0, 0.0], [0, 3], [1e3, -2e3]), cfg)
    else:
        realization = _realization(cfg, seed)
    args = (
        realization,
        num_subcarriers,
        cfg.max_delay_tap,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
    )
    # None: the oracle runs uncapped, the library at the cap M_r
    result = ofdm_design_and_rate(*args, num_streams or num_rx)
    reference = ofdm_design_and_rate_loop(*args, num_streams)
    assert np.array_equal(result.ranks, reference.ranks)
    _assert_same_design(result, reference, cfg.tx_power_watts, branch)
    assert result.rate_bps_hz == pytest.approx(reference.rate_bps_hz, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(result.sinr, reference.sinr, rtol=1e-11, atol=0)


OFDM_DESIGN_FIELDS = (
    "precoder_coords",
    "antenna_basis",
    "combiners",
    "singular_values",
    "ranks",
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_members=st.integers(1, 5),
    num_tx=st.sampled_from([3, 5, 16, 128]),
    num_paths=st.integers(1, 5),
    num_streams=st.sampled_from([1, 2]),
    velocity_mps=st.sampled_from([50.0, 500.0 / 3.6]),
    silent_path=st.booleans(),
)
@example(  # fig8's OFDM channels: M_t = 128, one stream
    seed=0, num_members=4, num_tx=128, num_paths=3, num_streams=1, velocity_mps=50.0,
    silent_path=False,
)
def test_stacked_ofdm_design_equals_one_realization_calls(
    seed, num_members, num_tx, num_paths, num_streams, velocity_mps, silent_path
):
    # A member with the stack's component count equals its one-realization
    # design bit for bit (M_t 3 and 5 keep the identity antenna basis). With
    # silent_path, member 0 has a zero-gain path, so one component fewer:
    # it gets an all-zero component appended, and like every member it
    # matches the loop oracle with that oracle's tolerances.
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_streams=num_streams,
        num_paths=num_paths,
        velocity_mps=velocity_mps,
    )
    rng = np.random.default_rng(seed)
    paths = [generate_paths(cfg, rng) for _ in range(num_members)]
    padded = silent_path and num_members > 1
    if padded:
        silent = np.where(np.arange(num_paths) == 0, 0.0, paths[0].gains)
        paths[0] = replace(paths[0], gains=silent)
    realizations = realize_channel(paths, cfg)
    k_sub, cp = 32, cfg.max_delay_tap
    power, noise = cfg.tx_power_watts, cfg.noise_power_watts
    designs = ofdm_design(realizations, k_sub, power, num_streams)
    assert len(designs) == num_members
    for i, (realization, design) in enumerate(zip(realizations, designs)):
        if not (padded and i == 0):
            alone = ofdm_design(realization, k_sub, power, num_streams)
            for name in OFDM_DESIGN_FIELDS:
                got, want = getattr(design, name), getattr(alone, name)
                assert got.shape == want.shape and np.array_equal(got, want), (i, name)
        num_tx_used, width = design.antenna_basis.shape
        if num_tx_used > width:
            # compressed: M_r identity columns, then one per own component
            own = num_paths - (padded and i == 0)
            used = np.count_nonzero(np.any(design.antenna_basis, axis=0))
            assert used == cfg.num_rx_antennas + own, i
        reference = ofdm_design_and_rate_loop(realization, k_sub, cp, power, noise, num_streams)
        assert np.array_equal(design.ranks, reference.ranks), i
        _assert_same_design(design, reference, power, f"member {i}")


def _silence(paths, member, num_silent):
    """paths with the first num_silent path gains of one member set to zero."""
    silent = np.arange(paths[member].num_paths) < num_silent
    paths[member] = replace(paths[member], gains=np.where(silent, 0.0, paths[member].gains))
    return paths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rx=st.sampled_from([1, 2, 4]),
    num_paths=st.integers(1, 6),
    wide=st.booleans(),
    tx_pick=st.integers(0, 2**16),
    num_members=st.integers(1, 3),
    zero_gain=st.sampled_from([None, "path", "member"]),
    num_streams=st.sampled_from([1, 2, 4]),
    velocity_mps=st.sampled_from([0.0, 500.0 / 3.6]),
    num_subcarriers=st.sampled_from([8, 32]),
    powers=st.lists(st.sampled_from([1e-3, 0.1, 1.0, 10.0]), min_size=1, max_size=3),
)
@example(  # fig4's channels: M_t = 64 > W = 5, two streams of two receive antennas
    seed=0, num_rx=2, num_paths=3, wide=True, tx_pick=64 - 6, num_members=3,
    zero_gain=None, num_streams=2, velocity_mps=500.0 / 3.6, num_subcarriers=32, powers=[1.0],
)
def test_ofdm_rate_matches_loop_oracle(
    seed, num_rx, num_paths, wide, tx_pick, num_members, zero_gain, num_streams, velocity_mps,
    num_subcarriers, powers,
):
    # Every member of a stack against its own per-subcarrier SVD loop at each
    # power. M_t is drawn on both sides of W = max(2 M_r, M_r + C), the
    # width ofdm_design compresses to; L < M_r gives C < M_r. A zero-gain
    # path gives member 0 one component fewer than the stack's C, and a
    # zero-gain member has none, so no stream is loaded there.
    width = max(2 * num_rx, num_rx + num_paths)
    if wide:
        num_tx = width + 1 + tx_pick % (256 - width)
    else:
        num_tx = 2 + tx_pick % (width - 1)
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity_mps,
    )
    rng = np.random.default_rng(seed)
    paths = [generate_paths(cfg, rng) for _ in range(num_members)]
    if zero_gain is not None:
        paths = _silence(paths, 0, 1 if zero_gain == "path" else num_paths)
    realizations = realize_channel(paths, cfg)
    cp, noise = cfg.max_delay_tap, cfg.noise_power_watts
    sinrs, rates = ofdm_rate(realizations, num_subcarriers, powers, noise, cp, num_streams)
    assert sinrs.shape[:3] == (num_members, len(powers), num_subcarriers)
    assert rates.shape == (num_members, len(powers))
    for i, realization in enumerate(realizations):
        for p, power in enumerate(powers):
            reference = ofdm_design_and_rate_loop(
                realization, num_subcarriers, cp, power, noise, num_streams
            )
            sinr, want = sinrs[i, p], reference.sinr
            assert np.array_equal(np.count_nonzero(sinr, axis=1), reference.ranks), (i, p)
            assert not np.any(sinr[:, want.shape[1] :]), (i, p)
            np.testing.assert_allclose(
                sinr[:, : want.shape[1]], want, rtol=1e-11, atol=0, err_msg=f"{i} {p}"
            )
            assert rates[i, p] == pytest.approx(reference.rate_bps_hz, rel=1e-12, abs=0.0), (i, p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_members=st.integers(2, 5),
    num_tx=st.sampled_from([3, 5, 16, 128]),
    num_rx=st.sampled_from([1, 2, 4]),
    num_paths=st.integers(1, 5),
    num_streams=st.sampled_from([1, 2]),
    velocity_mps=st.sampled_from([0.0, 500.0 / 3.6]),
    silent_member=st.booleans(),
)
@example(  # fig4's OFDM channels: M_t = 64, two streams
    seed=0, num_members=2, num_tx=64, num_rx=2, num_paths=3, num_streams=2,
    velocity_mps=50.0, silent_member=False,
)
def test_stacked_ofdm_rate_equals_one_realization_calls(
    seed, num_members, num_tx, num_rx, num_paths, num_streams, velocity_mps, silent_member
):
    # Every member is rated on min(M_r, num_streams) stream slots, so one
    # with the stack's component count equals its one-realization call bit
    # for bit. An all-zero last member gets only appended zero components
    # and loads nothing.
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity_mps,
    )
    rng = np.random.default_rng(seed)
    paths = [generate_paths(cfg, rng) for _ in range(num_members)]
    if silent_member:
        paths = _silence(paths, num_members - 1, num_paths)
    realizations = realize_channel(paths, cfg)
    powers = [0.1, 1.0]
    args = (cfg.noise_power_watts, cfg.max_delay_tap, num_streams)
    sinrs, rates = ofdm_rate(realizations, 32, powers, *args)
    for i, realization in enumerate(realizations[: num_members - silent_member]):
        [alone], [alone_rates] = ofdm_rate([realization], 32, powers, *args)
        assert np.array_equal(rates[i], alone_rates), i
        assert np.array_equal(sinrs[i, ..., : alone.shape[-1]], alone), i
        assert not np.any(sinrs[i, ..., alone.shape[-1] :]), i
    if silent_member:
        assert not np.any(sinrs[-1]) and not np.any(rates[-1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_power_ofdm_design_rates_like_a_design_at_each_power(seed):
    # fig6's OFDM: the plain and the CFO-compensated channel in one stacked
    # rate, a and b taken at unit power and rated at every swept power,
    # against a design made at that power and against the loop
    cfg = SystemConfig(num_tx_antennas=256, num_streams=1, path_gain_db=-120.0)
    paths = generate_paths(cfg, np.random.default_rng(seed))
    cp, noise = cfg.max_delay_tap, cfg.noise_power_watts
    powers = [10.0 ** ((dbm - 30.0) / 10.0) for dbm in BER_POWER_SWEEP_DBM]
    realizations = realize_channel([paths, cfo_compensate(paths)], cfg)
    stacked = ofdm_rate(realizations, 512, powers, noise, cp, 1)
    for realization, sinrs, rates in zip(realizations, *stacked):
        assert sinrs.shape[0] == rates.shape[0] == len(powers)
        for power, sinr, rate in zip(powers, sinrs, rates):
            want = ofdm_design_and_rate(realization, 512, cp, power, noise, 1)
            np.testing.assert_allclose(sinr, want.sinr, rtol=1e-12, atol=0, err_msg=f"{power}")
            assert rate == pytest.approx(want.rate_bps_hz, rel=1e-12, abs=0.0), power
            loop = ofdm_design_and_rate_loop(realization, 512, cp, power, noise, 1)
            np.testing.assert_allclose(sinr, loop.sinr, rtol=1e-11, atol=0, err_msg=f"{power}")
            assert rate == pytest.approx(loop.rate_bps_hz, rel=1e-12, abs=0.0), power


@pytest.mark.parametrize(
    "powers", [[], [[1.0]], [1.0, float("nan")], [0.0], [-1.0], [float("inf")]], ids=repr
)
def test_ofdm_rate_rejects_malformed_powers(powers):
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2)
    with pytest.raises(ContractViolationError):
        ofdm_rate([_realization(cfg, 0)], 16, powers, cfg.noise_power_watts, 4, 2)


def test_ofdm_design_rejects_mixed_stacks():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    wide = _realization(replace(cfg, num_tx_antennas=16), 1)
    faster = _realization(replace(cfg, bandwidth_hz=200e6), 1)
    for other in (wide, faster):
        with pytest.raises(ContractViolationError):
            ofdm_design([_realization(cfg, 0), other], 16, 1.0, 2)
        with pytest.raises(ContractViolationError):
            ofdm_rate([_realization(cfg, 0), other], 16, [1.0], cfg.noise_power_watts, 4, 2)
    with pytest.raises(ContractViolationError):
        ofdm_design([], 16, 1.0, 2)
    with pytest.raises(ContractViolationError):
        ofdm_rate([], 16, [1.0], cfg.noise_power_watts, 4, 2)


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
    # None: no cap beyond the rank, which is at most M_r
    result = ofdm_design_and_rate(
        realization, num_subcarriers, cp, power, cfg.noise_power_watts, num_streams or num_rx
    )
    ranks = result.ranks
    r_max = max(1, int(ranks.max()))
    assert ranks.shape == (num_subcarriers,)
    assert np.all(ranks <= min(num_tx, num_rx, num_streams or num_rx))
    precoders = ofdm_precoder_stack(result)
    assert precoders.shape == (num_subcarriers, num_tx, r_max)
    assert result.combiners.shape == (num_subcarriers, num_rx, r_max)
    assert result.singular_values.shape == result.sinr.shape == (num_subcarriers, r_max)
    # every entry of an inactive stream slot is zero
    inactive = np.arange(r_max)[None, :] >= ranks[:, None]
    assert not np.any(np.moveaxis(precoders, 2, 1)[inactive])
    assert not np.any(np.moveaxis(result.combiners, 2, 1)[inactive])
    assert not np.any(result.singular_values[inactive])
    assert not np.any(result.sinr[inactive])
    assert np.all(np.isfinite(result.sinr)) and np.all(result.sinr >= 0)
    for k, r_k in enumerate(ranks):
        if r_k == 0:
            continue
        loaded = float(np.sum(np.abs(precoders[k]) ** 2))
        assert loaded == pytest.approx(power, rel=1e-9, abs=0.0), f"k={k}"
        w = result.combiners[k, :, :r_k]
        assert np.max(np.abs(w.conj().T @ w - np.eye(r_k))) <= 1e-12, f"k={k}"
    cp_factor = num_subcarriers / (num_subcarriers + cp)
    expected = cp_factor * float(np.sum(np.log2(1.0 + result.sinr))) / num_subcarriers
    assert result.rate_bps_hz == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("num_streams", [0, -1, 2.5, True, "2", None])
def test_ofdm_rejects_invalid_num_streams(num_streams):
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2)
    realization = _realization(cfg, 0)
    with pytest.raises(ContractViolationError):
        ofdm_design_and_rate(
            realization, 16, 4, 1.0, cfg.noise_power_watts, num_streams=num_streams
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"num_subcarriers": 512.7},
        {"num_subcarriers": 16.0},
        {"num_subcarriers": True},
        {"cp_length": 2.5},
        {"cp_length": True},
        {"noise_var": float("nan")},
        {"noise_var": float("inf")},
        {"total_power": float("nan")},
        {"total_power": float("inf")},
    ],
    ids=repr,
)
def test_ofdm_rejects_malformed_arguments(bad):
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2)
    realization = _realization(cfg, 0)
    kwargs = {
        "num_subcarriers": 16,
        "cp_length": 4,
        "total_power": 1.0,
        "noise_var": cfg.noise_power_watts,
        "num_streams": 2,
    }
    kwargs.update(bad)
    # rejected up front, before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="integer|finite"):
            ofdm_design_and_rate(realization, **kwargs)


def test_ofdm_accepts_numpy_integer_sizes():
    cfg = SystemConfig(num_tx_antennas=4, num_rx_antennas=2)
    realization = _realization(cfg, 0)
    plain = ofdm_design_and_rate(realization, 16, 4, 1.0, cfg.noise_power_watts, 2)
    numpy_ints = ofdm_design_and_rate(
        realization, np.int64(16), np.int32(4), 1.0, cfg.noise_power_watts, np.int16(2)
    )
    assert numpy_ints.rate_bps_hz == plain.rate_bps_hz


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
    for field, value in (
        ("num_delay_bins", True),
        ("num_delay_bins", 2.5),
        ("num_doppler_bins", 0),
        ("num_doppler_bins", 4.0),
        ("delay_taps", np.array([0.5, 3.0])),
        ("delay_taps", 3),  # 0-d
        ("doppler_taps", np.int64(1)),  # 0-d
    ):
        with pytest.raises(ContractViolationError):
            OtfsConfig(**{**kwargs, field: value})
    with pytest.raises(ContractViolationError):
        OtfsConfig(16, 4, beam4, beam2, 3, 1, 0.0)  # every per-path array 0-d


def test_make_otfs_config_quantization():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([1.0, 0.4], [2, 7], [0.9e5, -2.2e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, num_delay_bins=32, num_doppler_bins=8)
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
    otfs = make_otfs_config(realization, 32, 8)
    gains = otfs_effective_gains(realization, otfs)
    expected = paths.gains[0] * np.sqrt(2.0) * np.sqrt(8.0)
    assert gains[0] == pytest.approx(expected, rel=1e-12)


def test_otfs_transform_preserves_energy():
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([0.9, 0.4j, 0.2], [1, 6, 11], [1.2e5, -0.7e5, 2.9e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, 16, 4)
    h_time = otfs_time_channel(realization, otfs)
    h_dd = otfs_delay_doppler_channel(realization, otfs)
    assert h_time.shape == (64, 64) and h_dd.shape == (64, 64)
    assert np.linalg.norm(h_dd) == pytest.approx(np.linalg.norm(h_time), rel=1e-9)


def _beamformed_taps():
    """Three beamformed paths on a 16 x 4 grid: gains, delay taps, Doppler taps."""
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    paths = _path_set([0.9, 0.4j, 0.2], [1, 6, 11], [1.2e5, -0.7e5, 2.9e5])
    realization = realize_channel(paths, cfg)
    otfs = make_otfs_config(realization, 16, 4)
    return otfs_effective_gains(realization, otfs), otfs.delay_taps, otfs.doppler_taps


@st.composite
def _otfs_channels(draw):
    """An M x N grid, M 1-16 and N 1-8, and 1-8 paths on it.

    The paths draw their (delay, Doppler) pairs from a pool of at most as
    many pairs, so pairs collide; Doppler taps reach both ends of (-N, N).
    """
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    num_paths = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, m - 1), st.integers(1 - n, n - 1))
    pool = draw(st.lists(pair, min_size=1, max_size=num_paths))
    taps = draw(st.lists(st.sampled_from(pool), min_size=num_paths, max_size=num_paths))
    gain = st.complex_numbers(min_magnitude=0.1, max_magnitude=10)
    gains = draw(st.lists(gain, min_size=num_paths, max_size=num_paths))
    delays, dopplers = np.array(taps).T
    return m, n, np.array(gains), delays, dopplers


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    channel=_otfs_channels(),
    pbar=st.one_of(st.just(0.0), st.floats(1e-1, 1e8)),
    cp_length=st.integers(0, 8),
)
@example(channel=(16, 4, *_beamformed_taps()), pbar=2.7, cp_length=5)
@example(  # Doppler taps spanning (-N, N) on one delay bin: the folded band wraps
    channel=(1, 8, np.array([1.0, 0.5j, -0.3]), np.zeros(3, int), np.array([-7, 7, 0])),
    pbar=1e8,
    cp_length=0,
)
@example(  # two paths on one (delay, Doppler) pair
    channel=(4, 2, np.array([0.9, -0.4, 0.2j]), np.array([1, 1, 3]), np.array([-1, -1, 1])),
    pbar=0.1,
    cp_length=2,
)
def test_otfs_banded_rate_matches_the_dense_oracle(channel, pbar, cp_length):
    m, n, gains, delays, dopplers = channel
    h_dd = delay_doppler_transform(_shift_phase_operator(gains, delays, dopplers, m * n), m, n)
    dense = otfs_rate(h_dd, pbar, cp_length, m, n)
    banded = otfs_rate_from_taps(gains, delays, dopplers, m, n, pbar, cp_length)
    assert banded == pytest.approx(dense, rel=1e-11)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"effective_gains": np.ones(2)}, id="gains short"),
        pytest.param({"delay_taps": np.array([0, 1, 2, 3])}, id="delays long"),
        pytest.param({"doppler_taps": np.array([1])}, id="dopplers short"),
        pytest.param({"effective_gains": np.ones((3, 1))}, id="gains 2-D"),
        pytest.param({"effective_gains": np.array([0.9, np.nan, 0.2])}, id="nan gain"),
        pytest.param({"effective_gains": np.array([0.9, 0.4j, np.inf])}, id="inf gain"),
        pytest.param(
            {"effective_gains": 0.9, "delay_taps": 1, "doppler_taps": 2}, id="0-d path"
        ),
        pytest.param(
            {"effective_gains": np.ones(0), "delay_taps": [], "doppler_taps": []}, id="no path"
        ),
        pytest.param({"power_over_noise": float("nan")}, id="power nan"),
        pytest.param({"power_over_noise": float("inf")}, id="power inf"),
        pytest.param({"power_over_noise": -1.0}, id="power negative"),
        pytest.param({"cp_length": -1}, id="cp negative"),
        pytest.param({"cp_length": 1.5}, id="cp fractional"),
        pytest.param({"cp_length": True}, id="cp bool"),
        pytest.param({"num_delay_bins": 0}, id="no delay bin"),
        pytest.param({"num_delay_bins": 2.5}, id="delay bins fractional"),
        pytest.param({"num_doppler_bins": True}, id="doppler bins bool"),
        pytest.param({"delay_taps": np.array([1.5, 6, 11])}, id="delay fractional"),
        pytest.param({"delay_taps": np.array([1, 6, 40])}, id="delay off the grid"),
        pytest.param({"delay_taps": np.array([-1, 6, 11])}, id="delay negative"),
        pytest.param({"doppler_taps": np.array([2, -1, 9])}, id="doppler off the grid"),
        pytest.param({"doppler_taps": np.array([2, -4, 0])}, id="doppler at -N"),
    ],
)
def test_otfs_rate_from_taps_rejects_malformed_arguments(bad):
    valid = {
        "effective_gains": np.array([0.9, 0.4j, 0.2]),
        "delay_taps": np.array([1, 6, 11]),
        "doppler_taps": np.array([2, -1, 0]),
        "num_delay_bins": 16,
        "num_doppler_bins": 4,
        "power_over_noise": 2.7,
        "cp_length": 5,
    }
    assert otfs_rate_from_taps(**valid) > 0
    with pytest.raises(ContractViolationError):
        otfs_rate_from_taps(**{**valid, **bad})


@pytest.mark.parametrize(
    "gains, delays, dopplers, grid, pbar",
    [
        pytest.param(np.full(3, 1e200), [1, 6, 11], [2, -1, 0], (16, 4), 2.7, id="overflow"),
        pytest.param([1e308, 1e308], [0, 0], [1, 1], (4, 4), 1.0, id="channel overflow"),
        # I + pbar (2I + 2S): 1 + 2 pbar rounds to 2 pbar = 2^62, so the Gram rounds to
        # 2^62 [[1, 1], [1, 1]] and its second Cholesky pivot is exactly 0
        pytest.param([1.0, 1.0], [0, 0], [0, 1], (1, 2), 2.0**61, id="indefinite"),
    ],
)
def test_otfs_rate_from_taps_raises_numerical_error_on_an_unusable_gram(
    gains, delays, dopplers, grid, pbar
):
    with pytest.raises(NumericalError):
        otfs_rate_from_taps(gains, delays, dopplers, *grid, pbar, 5)


def test_otfs_beam_opt_trace_monotone():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=4)
    for seed in range(10):
        realization = _realization(cfg, 70 + seed)
        otfs = make_otfs_config(realization, 64, 4)
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
    otfs = make_otfs_config(realization, 64, 4)
    _, _, trace = otfs_beam_opt(realization, otfs)
    grid = 64 * 4
    optimum = grid * 16 * 4 * np.abs(alpha) ** 2
    assert trace[-1] == pytest.approx(optimum, rel=1e-8)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 64),
    num_rx=st.integers(1, 4),
    num_paths=st.integers(1, 5),
    velocity=st.sampled_from([50.0, 500.0 / 3.6]),
    shared_taps=st.booleans(),
    general=st.booleans(),
)
@example(  # M_t <= L M_r: the path basis is square, n = M_t
    seed=3, num_tx=4, num_rx=2, num_paths=3, velocity=50.0, shared_taps=False, general=False
)
@example(  # and with every pair of paths overlapping on the grid
    seed=4, num_tx=6, num_rx=4, num_paths=2, velocity=500.0 / 3.6, shared_taps=True, general=True
)
def test_otfs_beam_opt_matches_the_antenna_width_oracle(
    seed, num_tx, num_rx, num_paths, velocity, shared_taps, general
):
    # the transmit step in path coordinates reaches the antenna-width
    # eigenvector up to one common phase, and with it the same gain trace;
    # shared taps make the overlap dense, general paths are not rank one
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity,
    )
    rng = np.random.default_rng(seed)
    realization = realize_channel(generate_paths(cfg, rng), cfg)
    if general:
        shape = realization.matrices.shape
        realization = realization_with_matrices(
            realization, 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        )
    otfs = make_otfs_config(realization, 64, 8)
    if shared_taps:
        otfs = replace(
            otfs, delay_taps=np.zeros(num_paths, int), doppler_taps=np.zeros(num_paths, int)
        )
    f, v, trace = otfs_beam_opt(realization, otfs)
    f_ref, v_ref, trace_ref = otfs_beam_opt_dense(realization, otfs)
    assert len(trace) == len(trace_ref)
    assert np.allclose(trace, trace_ref, rtol=1e-12, atol=0.0)
    assert abs(abs(np.vdot(f_ref, f)) - 1.0) <= 1e-12
    assert abs(abs(np.vdot(v_ref, v)) - 1.0) <= 1e-12


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


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["total_power", "noise_var"])
def test_strongest_path_design_rejects_bad_power_and_noise(name, bad):
    # an inf or NaN budget once came back as a NaN SINR
    cfg = SystemConfig(num_tx_antennas=8, num_rx_antennas=2)
    budget = {"total_power": 1.0, "noise_var": cfg.noise_power_watts, name: bad}
    with pytest.raises(ContractViolationError):
        strongest_path_design(_realization(cfg, 92), **budget)


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
