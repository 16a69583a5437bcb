"""Tests of the benchmark's own logic: ``python -m pytest benchmarks``."""

import json
from pathlib import Path

import pytest

import report
import run

REF = """delta,mse_known,mse_estimated,ratio,hit_rate,mse_oracle,m,rep_count
0.10000000000000001,3.6384312834604673,3.5614952440813652,0.97885461250049244,1,0.96732847350221729,5,200
0.01,1.2527466612584879,1.402894708541363,1.1198550767894595,0.995,0.33033446607511507,11,200
"""


def with_cell(text, row, col, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(col)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child a
        (15, 25, 1),  # grandchild, inside a only
        (35, 60, 0),  # child b, overlapping a: the overlap counts once for root
    ]
    assert report.self_times(spans) == [50, 20, 10, 25]


def test_self_time_clips_children_to_parent():
    assert report.self_times([(0, 100, -1), (90, 120, 0)]) == [90, 30]


def test_aggregate_counts_recursion_once_inclusive():
    names = ["outer", "inner"]
    # outer [0, 100] calls itself [10, 50]; inner runs in both
    spans = [(0, 0, 100, -1), (0, 10, 50, 0), (1, 20, 30, 1), (1, 60, 70, 0)]
    agg = report.aggregate_spans(names, spans)
    assert agg["outer"] == {"calls": 2, "incl": 100, "self": 50 + 30}
    assert agg["inner"] == {"calls": 2, "incl": 20, "self": 20}


# -- reference check ---------------------------------------------------------


def test_reference_accepts_itself_and_last_ulp_noise():
    assert report.compare_to_reference(REF, REF) == []
    nudged = with_cell(REF, 0, "mse_estimated", repr(3.5614952440813652 * (1 + 1e-14)))
    assert report.compare_to_reference(nudged, REF) == []


def test_reference_rejects_relative_float_change_of_1e_8():
    changed = with_cell(REF, 1, "mse_oracle", repr(0.33033446607511507 * (1 + 1e-8)))
    problems = report.compare_to_reference(changed, REF)
    assert len(problems) == 1 and "mse_oracle" in problems[0]


@pytest.mark.parametrize("col,value", [("m", "12"), ("rep_count", "201"), ("hit_rate", "0.99500000000001")])
def test_reference_compares_exact_columns_exactly(col, value):
    problems = report.compare_to_reference(with_cell(REF, 1, col, value), REF)
    assert len(problems) == 1 and col in problems[0]


def test_invariants_hold_on_reference():
    assert report.check_invariants(REF, REF, 200) == []


@pytest.mark.parametrize(
    "col,value,needle",
    [
        ("m", "12", "m"),
        ("rep_count", "100", "rep_count"),
        ("hit_rate", "1.5", "hit_rate"),
        ("ratio", "1.0", "ratio"),
        ("mse_known", "nan", "non-finite"),
        ("mse_oracle", "4", "mse_oracle"),
    ],
)
def test_invariants_catch_broken_rows(col, value, needle):
    problems = report.check_invariants(with_cell(REF, 0, col, value), REF, 200)
    assert problems and needle in " ".join(problems)


def test_invariants_check_row_count():
    short = "\n".join(REF.splitlines()[:2]) + "\n"
    assert report.check_invariants(short, REF, 200) == ["1 rows, expected 2"]


def test_invariants_of_mse_study():
    ref = (
        "delta,method,mc_mse,mc_bias_sq,mc_variance,rep_count,exceed_0.5\n"
        "0.1,oracle,0.38483020765443654,0.095137830514289631,0.052956458209067123,400,0.575\n"
    )
    assert report.check_invariants(ref, ref, 400) == []
    broken = with_cell(ref, 0, "mc_variance", "0.06")
    assert "bias^2 + variance" in " ".join(report.check_invariants(broken, ref, 400))


# -- percentiles and sample counts -------------------------------------------


@pytest.mark.parametrize(
    "n,label,rank",
    [
        (9, None, None), (19, None, None), (20, "p50", 10),
        (99, "p75", 75), (100, "p90", 90), (1000, "p99", 990),
    ],
)
def test_tail_keeps_ten_samples_beyond(n, label, rank):
    samples = [float(i) for i in range(1, n + 1)]
    got = report.tail(samples)
    if label is None:
        assert got is None
    else:
        assert got == (label, float(rank))
        assert sum(s > got[1] for s in samples) >= report.TAIL_MIN_BEYOND


def test_tail_of_higher_is_better_metric_is_the_low_end():
    samples = [float(i) for i in range(1, 101)]
    assert report.tail(samples, better="higher") == ("p10", 11.0)


def test_summarize_reports_median_and_count():
    s = report.summarize([3.0, 1.0, 2.0, 10.0])
    assert s == {"median": 2.5, "tail": None, "n": 4}
    assert report.summarize([]) == {"median": None, "tail": None, "n": 0}


# -- per-layer metrics -------------------------------------------------------


def record(names, spans, missing=()):
    return {
        "names": names,
        "spans": spans,
        "missing": list(missing),
        "flags": dict.fromkeys(report.FLAGS, 0),
        "lepskii": {"candidates": 0, "pairs_checked": 0, "distinct_levels": 0},
        "refine": {"calls": 0, "iterations": 0, "converged": 0},
        "dense_bytes": 0,
        "n_max_caps": 0,
        "import_ns": 1,
    }


def test_uncalled_entry_point_is_missing_only_where_calls_are_expected():
    names = ["filters.regularize_svd", "choice.lepskii_choose"]
    rec = record(names, [(0, 0, 1000, -1)])
    on_oracle = report.layer_values(rec, "oracle")
    on_veto = report.layer_values(rec, "veto")
    assert on_oracle["filters.regularize_svd_calls"] == 1
    assert on_oracle["choice.lepskii_calls"] == 0  # not expected on oracle
    assert on_veto["choice.lepskii_calls"] is None  # expected on veto, never called
    assert on_veto["discretization.self_s"] is None  # no discretization entry point left


def test_vanished_entry_point_is_missing_everywhere():
    rec = record(["noise.observe"], [], missing=["filters.regularize_svd"])
    for workload in report.ALL:
        assert report.layer_values(rec, workload)["filters.regularize_svd_s"] is None


# -- BENCHMARK.json agrees with the code --------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in report.PER_LAYER.items()
    }


def test_dominant_layers_are_compared_as_a_group():
    shares = {"operators": 0.3, "choice": 0.2, "discretization": 0.2, "noise": 0.05, "grid": 0.1}
    assert report.dominant_as_expected(shares, "veto")
    assert report.dominant_as_expected(shares, "fine_grid")
    assert not report.dominant_as_expected({"operators": 0.1, "filters": 0.5}, "fine_grid")
