"""System configuration: derived quantities, serialization, validation."""

import json

import pytest

from ddamsim.config import SystemConfig, config_from_dict, load_config
from ddamsim.errors import ContractViolationError


def test_default_derived_quantities():
    cfg = SystemConfig()
    assert cfg.symbol_duration_s == pytest.approx(1e-8, rel=1e-12)
    # 50 m/s at 28 GHz: 50 * 28e9 / 3e8
    assert cfg.max_doppler_hz == pytest.approx(4666.666666, rel=1e-9)
    # -174 dBm/Hz over 100 MHz
    assert cfg.noise_power_watts == pytest.approx(3.9810717055e-13, rel=1e-9)
    # 400 ns at 100 MHz spans taps 0..40
    assert cfg.max_delay_tap == 40


def test_max_delay_tap_rounding():
    # exactly on a tap boundary must not round up to an extra tap
    cfg = SystemConfig(max_delay_s=400e-9, bandwidth_hz=100e6)
    assert cfg.max_delay_tap == 40
    cfg = SystemConfig(max_delay_s=401e-9, bandwidth_hz=100e6)
    assert cfg.max_delay_tap == 41
    cfg = SystemConfig(max_delay_s=0.0)
    assert cfg.max_delay_tap == 0


def test_dict_round_trip():
    cfg = SystemConfig(num_tx_antennas=16, velocity_mps=120.0, rng_seed=7)
    clone = config_from_dict(cfg.to_dict())
    assert clone == cfg


def test_config_from_dict_partial_overrides():
    cfg = config_from_dict({"num_tx_antennas": 8, "path_power_ratio": 0.5})
    assert cfg.num_tx_antennas == 8
    assert cfg.path_power_ratio == 0.5
    assert cfg.bandwidth_hz == SystemConfig().bandwidth_hz


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ContractViolationError, match="unknown"):
        config_from_dict({"num_tx_antenas": 8})


def test_config_from_dict_coerces_integer_fields():
    cfg = config_from_dict({"num_paths": 4.0})
    assert cfg.num_paths == 4 and isinstance(cfg.num_paths, int)
    with pytest.raises(ContractViolationError):
        config_from_dict({"num_paths": 4.5})


def test_validation_errors():
    bad = [
        {"bandwidth_hz": 0.0},
        {"carrier_freq_hz": -1.0},
        {"tx_power_watts": 0.0},
        {"num_tx_antennas": 0},
        {"num_streams": 3},  # exceeds min(num_tx, num_rx) with num_rx=2
        {"coherence_coeff": 0.0},
        {"coherence_coeff": 1.5},
        {"max_delay_s": -1e-9},
        {"velocity_mps": -1.0},
        {"path_power_ratio": 0.0},
        {"path_power_ratio": 1.0001},
        {"static_frame_duration_s": 0.0},
        {"num_paths": 0},
    ]
    for overrides in bad:
        with pytest.raises(ContractViolationError):
            config_from_dict(overrides)


@pytest.mark.parametrize(
    "name", ["bandwidth_hz", "tx_power_watts", "noise_psd_dbm_per_hz", "max_delay_s"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_fields_are_rejected(name, value):
    with pytest.raises(ContractViolationError, match="finite"):
        SystemConfig(**{name: value})


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_tx_antennas": "abc"},
        {"num_tx_antennas": "64"},
        {"velocity_mps": None},
        {"velocity_mps": [50.0]},
        {"num_paths": True},
        {"velocity_mps": True},
        {"num_paths": float("inf")},
        {"num_paths": float("nan")},
        {"num_paths": 10**400},
        {"bandwidth_hz": 10**400},
        {"bandwidth_hz": float("nan")},
        {"tx_power_watts": float("inf")},
    ],
    ids=[
        "str",
        "numeric-str",
        "null",
        "list",
        "bool-int-field",
        "bool-float-field",
        "inf-int-field",
        "nan-int-field",
        "huge-int-field",
        "huge-float-field",
        "nan-float-field",
        "inf-float-field",
    ],
)
def test_config_from_dict_rejects_non_numbers_and_overflow(overrides):
    with pytest.raises(ContractViolationError):
        config_from_dict(overrides)


@pytest.mark.parametrize(
    "text",
    [
        '{"num_tx_antennas": 16',
        "",
        '{"num_paths": 1e400}',
        '{"bandwidth_hz": NaN}',
        '{"tx_power_watts": Infinity}',
    ],
)
def test_load_config_rejects_malformed_or_non_finite_json(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ContractViolationError):
        load_config(path)


def test_load_config_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"velocity_mps": 90.0, "num_paths": 5}))
    cfg = load_config(path)
    assert cfg.velocity_mps == 90.0
    assert cfg.num_paths == 5


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ContractViolationError):
        load_config(path)


def test_zero_velocity_has_zero_doppler():
    cfg = SystemConfig(velocity_mps=0.0)
    assert cfg.max_doppler_hz == 0.0


def test_to_dict_is_json_serializable():
    blob = json.dumps(SystemConfig().to_dict())
    assert "num_tx_antennas" in blob
