"""Seeded runs of every experiment against committed golden CSVs.

The goldens come from tests/make_golden.py. Every experiment but fig9 must
reproduce its CSV byte for byte. fig9's rates come from colored-noise
log-determinants of strongly interfered trials, which amplify last-bit
differences in the precoders to ~1e-12 relative, so its statistics are
compared to 1e-10 relative instead.
"""

import csv
import io

import pytest

from ddamsim.experiments import EXPERIMENTS
from make_golden import GOLDEN_DIR, GOLDEN_TRIALS, golden_csv

RELATIVE_TOLERANCE = {"fig9-imperfect-csi": 1e-10}
STATISTICS = ("mean", "median", "p10", "p90")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_every_experiment_has_a_golden():
    assert set(GOLDEN_TRIALS) == set(EXPERIMENTS)
    assert {path.stem for path in GOLDEN_DIR.glob("*.csv")} == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIALS))
def test_seeded_run_matches_golden(name):
    want = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    got = golden_csv(name)
    rtol = RELATIVE_TOLERANCE.get(name)
    if rtol is None:
        assert got == want
        return
    got_rows, want_rows = _rows(got), _rows(want)
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        for column, value in want_row.items():
            if column in STATISTICS:
                assert float(got_row[column]) == pytest.approx(float(value), rel=rtol, abs=0), (
                    got_row,
                    column,
                )
            else:
                assert got_row[column] == value, (got_row, column)
