"""Command-line entry points."""

import json

import pytest

from ddamsim.cli import main
from ddamsim.experiments import CSV_HEADER, EXPERIMENTS


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == len(EXPERIMENTS)
    names = {line.split(":")[0] for line in out}
    assert names == set(EXPERIMENTS)


def test_feasibility_defaults(capsys):
    assert main(["feasibility"]) == 0
    out = capsys.readouterr().out
    assert "tx=64 rx=2 streams=2 paths=3: feasible" in out
    assert "bilinear equations:" in out
    assert "free variables:" in out


def test_feasibility_flags(capsys):
    code = main(
        [
            "feasibility",
            "--tx-antennas",
            "5",
            "--rx-antennas",
            "2",
            "--streams",
            "2",
            "--paths",
            "3",
        ]
    )
    assert code == 0
    assert "tx=5 rx=2 streams=2 paths=3: infeasible" in capsys.readouterr().out


def test_run_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code = main(
        [
            "run",
            "fig3-convergence",
            "--seed",
            "4",
            "--trials",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1


def test_run_writes_json(tmp_path):
    out_path = tmp_path / "rows.json"
    code = main(
        ["run", "feasibility-map", "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["config"]["experiment"] == "feasibility-map"


def test_run_streams_csv_to_stdout(capsys):
    code = main(["run", "feasibility-map", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)


def test_run_respects_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"num_tx_antennas": 32}))
    out_path = tmp_path / "rows.json"
    code = main(
        [
            "run",
            "fig3-convergence",
            "--trials",
            "1",
            "--config",
            str(cfg_path),
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    # the experiment pins its own antenna count, which must win over the file
    assert blob["config"]["system"]["num_tx_antennas"] == 64


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "fig99-nope", "--trials", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "run",
            "fig3-convergence",
            "--trials",
            "1",
            "--config",
            str(tmp_path / "absent.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"num_tx_antennas": "abc"}',
        '{"num_paths": 1e400}',
        '{"num_tx_antennas": 16',
        '{"bandwidth_hz": NaN}',
        '{"tx_power_watts": Infinity}',
    ],
)
def test_bad_config_file_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code = main(["run", "fig3-convergence", "--trials", "1", "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_directory_as_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "fig3-convergence", "--trials", "1", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_seed_exits_2(capsys):
    assert main(["run", "fig3-convergence", "--seed", "-1", "--trials", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(workers, capsys):
    assert main(["run", "feasibility-map", "--workers", workers]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
