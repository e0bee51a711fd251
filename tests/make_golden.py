"""Regenerate the seeded golden CSVs that test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py [experiment ...]

Each named experiment, or every registered one when none is named, runs
serially at seed 0 with the small trial count below and its CSV is written
to tests/golden/<experiment>.csv. Name only the goldens a change means to
move: fig9's does not reproduce bit for bit. A regeneration changes test
data: state it, with the largest move per experiment, wherever the change
is recorded.
"""

from __future__ import annotations

import pathlib
import sys

from ddamsim.experiments import EXPERIMENTS, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
GOLDEN_SEED = 0
GOLDEN_TRIALS = {
    "fig3-convergence": 4,
    "fig4-se-vs-mt": 4,
    "fig5-se-ddam-ofdm-otfs": 2,
    "fig6-ber": 4,
    "fig8-papr": 8,
    "fig9-imperfect-csi": 20,
    "feasibility-map": 1,
}


def golden_csv(name: str) -> str:
    """The CSV of a fresh golden-sized run of one experiment."""
    run = run_experiment(name, seed=GOLDEN_SEED, num_trials=GOLDEN_TRIALS[name])
    if run.num_failures:
        raise RuntimeError(f"{name}: {run.num_failures} golden trials failed: {run.failures}")
    return run.to_csv()


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        raise SystemExit(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or EXPERIMENTS:
        (GOLDEN_DIR / f"{name}.csv").write_text(golden_csv(name), encoding="utf-8")
        print(f"wrote {name}.csv")


if __name__ == "__main__":
    main(sys.argv[1:])
