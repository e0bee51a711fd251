"""Error-rate curves, PAPR statistics, guard overheads, CSI corruption."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddamsim.channel import PathSet, generate_paths, realize_channel
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, NumericalError
from ddamsim.metrics import (
    CsiError,
    draw_csi,
    guard_overhead,
    ofdm_ber,
    papr_db,
    perturb_csi,
    qam_awgn_ber,
    qam_constellation,
    qam_symbols,
    qfunc,
)
from oracles import papr_ccdf, papr_exceedance_db, perturb_csi_loop


def test_qfunc_anchors():
    assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qfunc(10.0) < 1e-22
    x = np.linspace(-3, 3, 13)
    assert np.allclose(qfunc(x) + qfunc(-x), 1.0, atol=1e-14)


def test_qam_ber_frozen_zero_snr_qpsk():
    assert float(qam_awgn_ber(0.0, 4)) == pytest.approx(0.5, abs=1e-15)


def test_qam_ber_qpsk_monte_carlo():
    # QPSK with Gray mapping: per-bit error is exactly Q(sqrt(snr))
    rng = np.random.default_rng(7)
    n = 400_000
    for snr in (2.0, 4.0):
        bits = rng.integers(0, 2, size=(n, 2))
        sym = ((2 * bits[:, 0] - 1) + 1j * (2 * bits[:, 1] - 1)) / np.sqrt(2.0)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
            1.0 / (2.0 * snr)
        )
        rx = sym + noise
        errors = np.count_nonzero((rx.real > 0) != (bits[:, 0] == 1))
        errors += np.count_nonzero((rx.imag > 0) != (bits[:, 1] == 1))
        measured = errors / (2 * n)
        predicted = float(qam_awgn_ber(snr, 4))
        assert measured == pytest.approx(predicted, rel=0.05), f"snr {snr}"


def test_qam_ber_16qam_monte_carlo():
    # independent Gray-coded 4-PAM demapper per axis
    rng = np.random.default_rng(8)
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    gray = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    n = 1_500_000
    snr = 40.0  # around 1e-3 where the nearest-neighbor curve is tight
    idx_i = rng.integers(0, 4, size=n)
    idx_q = rng.integers(0, 4, size=n)
    noise = rng.standard_normal((n, 2)) * np.sqrt(1.0 / (2.0 * snr))
    bit_errs = 0
    for axis, idx in ((0, idx_i), (1, idx_q)):
        rx = levels[idx] + noise[:, axis]
        detected = np.argmin(np.abs(rx[:, None] - levels[None, :]), axis=1)
        bit_errs += int(np.sum(gray[idx] != gray[detected]))
    measured = bit_errs / (4 * n)
    predicted = float(qam_awgn_ber(snr, 16))
    assert measured == pytest.approx(predicted, rel=0.08)


def test_qam_ber_monotone_in_snr_and_order():
    snrs = np.linspace(0.0, 30.0, 40)
    for order in (4, 16, 64, 128):
        curve = qam_awgn_ber(snrs, order)
        assert np.all(np.diff(curve) <= 1e-15), f"order {order} not decreasing"
    at_10 = [float(qam_awgn_ber(10.0, order)) for order in (4, 16, 64)]
    assert at_10[0] < at_10[1] < at_10[2], "denser constellations must err more"


def test_qam_ber_validation():
    with pytest.raises(ContractViolationError):
        qam_awgn_ber(1.0, 3)
    with pytest.raises(ContractViolationError):
        qam_awgn_ber(1.0, 2)
    with pytest.raises(ContractViolationError):
        qam_awgn_ber(-0.5, 4)
    # a NaN SNR fails the contract too, alone or in an array
    for snr in (float("nan"), [1.0, float("nan")]):
        with pytest.raises(ContractViolationError):
            qam_awgn_ber(snr, 4)
    assert float(qam_awgn_ber(float("inf"), 4)) == 0.0


def test_ofdm_ber_derates_by_guard():
    k_sub, m_max = 64, 16
    snr = 12.0 * np.ones(k_sub)
    combined = ofdm_ber(snr, k_sub, m_max, 16)
    derated = float(qam_awgn_ber(12.0 * k_sub / (k_sub + m_max), 16))
    assert combined == pytest.approx(derated, rel=1e-12)
    plain = ofdm_ber(snr, k_sub, 0, 16)
    assert plain == pytest.approx(float(qam_awgn_ber(12.0, 16)), rel=1e-12)
    with pytest.raises(ContractViolationError):
        ofdm_ber(snr[:10], k_sub, m_max, 16)
    # every SNR array fits its K (True == 1, 64.0 == 64); the counts must be integers
    for bad_snr, bad_k, bad_m in (
        (snr, k_sub, -1),
        (snr, k_sub, 1.5),
        (snr, k_sub, True),
        (snr[:1], True, 0),
        (snr, 64.0, m_max),
    ):
        with pytest.raises(ContractViolationError):
            ofdm_ber(bad_snr, bad_k, bad_m, 16)
    # a NaN subcarrier SINR fails the trial instead of reaching a row as NaN
    with pytest.raises(ContractViolationError):
        ofdm_ber(np.full(4, np.nan), 4, 1, 16)


def test_qam_constellation_shapes_and_energy():
    for order in (4, 16, 32, 64, 128):
        points = qam_constellation(order)
        assert points.size == order
        assert len(np.unique(np.round(points, 12))) == order
        energy = float(np.mean(np.abs(points) ** 2))
        assert energy == pytest.approx(1.0, rel=1e-12), f"order {order}"
    with pytest.raises(ContractViolationError):
        qam_constellation(8)
    with pytest.raises(ContractViolationError):
        qam_constellation(5)


def test_qam_constellation_is_cached_and_read_only():
    points = qam_constellation(128)
    assert qam_constellation(128) is points
    with pytest.raises(ValueError):
        points[0] = 0.0


def test_qam_symbols_draw_from_constellation():
    rng = np.random.default_rng(3)
    sym = qam_symbols(16, (50, 4), rng)
    assert sym.shape == (50, 4)
    points = qam_constellation(16)
    dists = np.min(np.abs(sym[..., None] - points[None, None, :]), axis=-1)
    assert np.max(dists) <= 1e-12
    # all sixteen points show up in a big enough draw
    big = qam_symbols(16, 4000, np.random.default_rng(4))
    assert len(np.unique(np.round(big, 10))) == 16


def test_papr_constant_envelope_is_zero_db():
    n = 256
    phases = np.exp(2j * np.pi * np.linspace(0, 3, n))
    frame = np.stack([phases, 2.0 * phases], axis=1)
    ratios, excluded = papr_db(frame)
    assert excluded == 0
    assert np.allclose(ratios, 0.0, atol=1e-12)


def test_papr_excludes_silent_antennas():
    rng = np.random.default_rng(5)
    frame = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
    frame[:, 1] = 0.0
    ratios, excluded = papr_db(frame)
    assert excluded == 1
    assert ratios.size == 2
    assert np.all(ratios > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("whole_antenna", [True, False])
def test_papr_rejects_non_finite_samples(bad, whole_antenna):
    # a NaN antenna must not read as silent: excluded, it would let a
    # corrupt frame score a CCDF of 0
    frame = np.ones((4, 2), dtype=np.complex128)
    if whole_antenna:
        frame[:, 1] = bad
    else:
        frame[2, 0] = bad
    with pytest.raises(NumericalError):
        papr_db(frame)


def test_papr_ccdf_monotone_and_bounded():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((20, 256, 2)) + 1j * rng.standard_normal((20, 256, 2))
    thresholds = np.arange(0.0, 13.0, 0.25)
    ccdf = papr_ccdf(frames, thresholds)
    assert ccdf.num_values == 40
    assert ccdf.num_excluded == 0
    assert np.all(ccdf.ccdf >= 0) and np.all(ccdf.ccdf <= 1)
    assert np.all(np.diff(ccdf.ccdf) <= 1e-15), "CCDF must not increase"
    # Gaussian frames of length 256 concentrate around 8-11 dB peaks
    assert ccdf.ccdf[0] == pytest.approx(1.0)
    level = papr_exceedance_db(ccdf, 0.5)
    assert 4.0 < level < 13.0
    assert papr_exceedance_db(ccdf, -1.0) == float("inf")


def test_papr_ccdf_accepts_single_frame_and_iterables():
    rng = np.random.default_rng(7)
    frame = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    thresholds = np.arange(0.0, 12.0, 0.5)
    single = papr_ccdf(frame, thresholds)
    assert single.num_values == 2
    listed = papr_ccdf([frame, frame], thresholds)
    assert listed.num_values == 4
    assert np.allclose(listed.ccdf, single.ccdf)


def test_guard_overhead_reference_points():
    ddam = guard_overhead("ddam", max_delay_tap=40, frame_samples=6_000_000)
    assert ddam == pytest.approx(2 * 40 / 6_000_000, rel=1e-12)
    ofdm = guard_overhead("ofdm", max_delay_tap=40, num_subcarriers=512)
    assert ofdm == pytest.approx(40 / 552, rel=1e-12)
    otfs = guard_overhead(
        "otfs", max_delay_tap=40, num_delay_bins=512, num_doppler_bins=8
    )
    assert otfs == pytest.approx(40 / (512 * 8 + 40), rel=1e-12)


def test_guard_overhead_strict_params():
    with pytest.raises(ContractViolationError):
        guard_overhead("tdma", max_delay_tap=40)
    with pytest.raises(ContractViolationError):
        guard_overhead("ddam", max_delay_tap=40)  # frame_samples missing
    with pytest.raises(ContractViolationError):
        guard_overhead("ofdm", max_delay_tap=40, num_subcarriers=512, extra=1)


def test_csi_error_validation():
    with pytest.raises(ContractViolationError):
        CsiError(delay_accuracy=1.2, doppler_error_coeff=0.0)
    with pytest.raises(ContractViolationError):
        CsiError(delay_accuracy=0.5, doppler_error_coeff=-0.1)
    for coeff in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ContractViolationError):
            CsiError(delay_accuracy=1.0, doppler_error_coeff=coeff)
    with pytest.raises(ContractViolationError):
        CsiError(0.5, 0.0, indicator=np.array([0, 2]))
    clean = CsiError(0.5, 0.0)
    with pytest.raises(ContractViolationError):
        _ = clean.realized_accuracy
    assert CsiError(0.5, 0.0, indicator=np.array([1, 0, 1])).realized_accuracy == (
        pytest.approx(2.0 / 3.0)
    )


def _paths(delays=(5, 12, 20), bound=4000.0):
    ln = len(delays)
    return PathSet(
        gains=np.ones(ln, dtype=np.complex128),
        aoa_rad=np.zeros(ln),
        aod_rad=np.zeros(ln),
        delay_taps=np.asarray(delays, dtype=np.int64),
        doppler_hz=np.linspace(-2000.0, 2000.0, ln),
        doppler_bound_hz=bound,
        delay_tap_bound=40,
    )


def test_perturb_csi_perfect_model_is_identity():
    paths = _paths()
    out, realized = perturb_csi(paths, CsiError(1.0, 0.0), np.random.default_rng(0))
    assert np.array_equal(out.delay_taps, paths.delay_taps)
    assert np.array_equal(out.doppler_hz, paths.doppler_hz)
    assert realized.realized_accuracy == 1.0


def test_perturb_csi_moves_expected_path_count():
    # floor((1 - accuracy) * L) wrong paths, also where the product rounds
    # just below an integer: (1 - 0.9) * 10 is 0.9999999999999998
    cases = [
        (0.9, 10, 1),
        (0.7, 10, 3),
        (0.6, 5, 2),
        (2.0 / 3.0, 3, 1),
        (1.0 / 3.0, 3, 2),
    ]
    rng = np.random.default_rng(1)
    for accuracy, num_paths, num_wrong in cases:
        # taps 4 apart inside [0, 40]: every path has two free neighbors
        paths = _paths() if num_paths == 3 else _paths(delays=tuple(range(2, 40, 4))[:num_paths])
        for _ in range(50):
            out, realized = perturb_csi(paths, CsiError(accuracy, 0.0), rng)
            moved = np.count_nonzero(out.delay_taps != paths.delay_taps)
            assert moved == num_wrong, (accuracy, num_paths)
            assert realized.indicator.sum() == num_paths - num_wrong
            assert len(set(out.delay_taps.tolist())) == num_paths
            assert out.delay_taps.min() >= 0 and out.delay_taps.max() <= 40
            shift = np.abs(out.delay_taps - paths.delay_taps).max()
            assert shift == 1, "free neighbors exist, the move must be one tap"


def test_perturb_csi_resamples_collisions_outward():
    # taps 0 and 1 occupied: moving the tap-0 path must land on 2
    paths = _paths(delays=(0, 1))
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(40):
        out, realized = perturb_csi(paths, CsiError(0.5, 0.0), rng)
        moved_idx = int(np.flatnonzero(out.delay_taps != paths.delay_taps)[0])
        seen.add(moved_idx)
        assert len(set(out.delay_taps.tolist())) == 2
        if moved_idx == 0:
            assert out.delay_taps[0] == 2
    assert seen == {0, 1}


def test_perturb_csi_doppler_error_statistics():
    paths = _paths(bound=4000.0)
    rng = np.random.default_rng(3)
    coeff = 0.05
    draws = []
    for _ in range(4000):
        out, _ = perturb_csi(paths, CsiError(1.0, coeff), rng)
        draws.append(out.doppler_hz - paths.doppler_hz)
    flat = np.concatenate(draws)
    assert np.mean(flat) == pytest.approx(0.0, abs=5.0)
    expected_std = coeff * 4000.0 / np.sqrt(2.0)
    assert np.std(flat) == pytest.approx(expected_std, rel=0.05)
    out, _ = perturb_csi(paths, CsiError(1.0, coeff), rng)
    assert out.doppler_bound_hz >= np.max(np.abs(out.doppler_hz))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.integers(1, 5),
    num_rx=st.integers(1, 3),
    num_tx=st.integers(1, 64),
    velocity=st.sampled_from([0.0, 50.0, 500.0 / 3.6]),
    accuracy=st.sampled_from([1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0]),
    doppler_error=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_perturb_csi_keeps_gains_angles_and_path_matrices(
    seed, num_paths, num_rx, num_tx, velocity, accuracy, doppler_error
):
    # fig9 shares one spatial design across CSI models on this invariant
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=1,
        num_paths=num_paths,
        velocity_mps=velocity,
    )
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    est, _ = perturb_csi(paths, CsiError(accuracy, doppler_error), rng)
    for name in ("gains", "aoa_rad", "aod_rad"):
        assert np.array_equal(getattr(est, name), getattr(paths, name)), name
    assert np.array_equal(
        realize_channel(est, cfg).matrices, realize_channel(paths, cfg).matrices
    )


CSI_ACCURACIES = (1.0, 0.9, 2.0 / 3.0, 1.0 / 3.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.integers(1, 10),
    full_grid=st.booleans(),
    models=st.lists(
        st.tuples(st.sampled_from(CSI_ACCURACIES), st.sampled_from([0.0, 0.05])),
        min_size=1,
        max_size=6,
    ),
)
def test_csi_draws_match_per_estimate_loop(seed, num_paths, full_grid, models):
    # a full grid (every tap of [0, L - 1] taken) leaves a wrong path no
    # free tap: it keeps its delay and counts as correct, but its draws
    # are still made
    rng = np.random.default_rng(seed)
    tap_bound = num_paths - 1 if full_grid else 40
    paths = PathSet(
        gains=np.ones(num_paths, dtype=np.complex128),
        aoa_rad=np.zeros(num_paths),
        aod_rad=np.zeros(num_paths),
        delay_taps=rng.choice(tap_bound + 1, size=num_paths, replace=False),
        doppler_hz=rng.uniform(-2000.0, 2000.0, size=num_paths),
        doppler_bound_hz=2000.0,
        delay_tap_bound=tap_bound,
    )
    errors = [CsiError(accuracy, coeff) for accuracy, coeff in models]
    drawn, looped, wrapped = (np.random.default_rng([seed, 1]) for _ in range(3))
    delays, dopplers, indicators = draw_csi(paths, errors, drawn)
    for row, err in enumerate(errors):
        want_delays, want_dopplers, want_indicator = perturb_csi_loop(paths, err, looped)
        assert np.array_equal(delays[row], want_delays)
        assert np.array_equal(dopplers[row], want_dopplers)
        assert np.array_equal(indicators[row], want_indicator)
        est, realized = perturb_csi(paths, err, wrapped)
        assert np.array_equal(est.delay_taps, want_delays)
        assert np.array_equal(est.doppler_hz, want_dopplers)
        assert np.array_equal(realized.indicator, want_indicator)
    if full_grid:
        assert np.array_equal(delays, np.broadcast_to(paths.delay_taps, delays.shape))
        assert indicators.all()
    state = drawn.bit_generator.state
    assert looped.bit_generator.state == state == wrapped.bit_generator.state
    assert drawn.random() == looped.random() == wrapped.random()
