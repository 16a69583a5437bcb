"""Golden lock: the committed study CSVs reproduce within stated tolerances.

``tests/golden/*.csv`` hold the output of ``statinv converge`` on the
committed ``configs/veto.cfg``, ``configs/mse_oracle.cfg`` and
``configs/veto_n96.cfg``, the veto study at n = 96, whose candidate levels
are not a divisor chain.  Floats are
compared at relative 1e-10, not byte for byte: the last digit can differ
between BLAS thread counts.  Counts and rates that come from integer tallies
(``m``, ``rep_count``, ``hit_rate``) must match exactly.
"""

import csv
import math
from pathlib import Path

import pytest

from statinv.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
EXACT = {"method", "m", "rep_count", "hit_rate"}
REL = 1e-10


def _rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _assert_same(actual_path, expected_path):
    actual, expected = _rows(actual_path), _rows(expected_path)
    assert len(actual) == len(expected)
    assert list(actual[0]) == list(expected[0])
    for got, want in zip(actual, expected):
        for col, value in want.items():
            if col in EXACT:
                assert got[col] == value, (col, got[col], value)
            else:
                assert math.isclose(float(got[col]), float(value), rel_tol=REL), (col, got[col], value)


@pytest.mark.parametrize("name", ["veto", "mse_oracle", "veto_n96"])
def test_study_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["converge", "--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_same(out, GOLDEN / f"{name}.csv")


def test_veto_golden_matches_benchmark_reference():
    _assert_same(GOLDEN / "veto.csv", ROOT / "benchmarks" / "reference" / "veto.csv")
