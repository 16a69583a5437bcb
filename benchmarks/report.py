"""Pure analysis for the benchmark: timing summaries, span self time, and
the correctness check of a study CSV.

Nothing here launches processes or imports statinv, so the arithmetic can be
tested on synthetic inputs (see ``test_report.py``).
"""

from __future__ import annotations

import csv
import io
import math
import statistics

# Candidate tail percentiles, highest first.  A summary reports the highest
# one that still has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Columns compared exactly against a reference; every other numeric column is
# compared at REL_TOL.  The CSVs differ in the last ulp between 1 and 2 BLAS
# threads, so a byte comparison would be wrong.
EXACT_COLUMNS = ("m", "rep_count", "hit_rate", "method")
REL_TOL = 1e-10
RATIO_TOL = 1e-12


# --------------------------------------------------------------------------
# timing summaries


def tail(samples, better="lower"):
    """Highest percentile on the bad side with >= TAIL_MIN_BEYOND samples beyond it.

    Uses the nearest-rank percentile.  For ``better="higher"`` the bad side is
    the low end, so the label is mirrored (p90 on the bad side reads "p10").
    Returns ``(label, value)``, or ``None`` when there are too few samples.
    """
    n = len(samples)
    ordered = sorted(samples, reverse=(better == "higher"))
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            label = p if better == "lower" else 100.0 - p
            return f"p{label:g}", ordered[rank - 1]
    return None


def summarize(samples, better="lower"):
    """Median, bad-side tail percentile and sample count of one metric."""
    if not samples:
        return {"median": None, "tail": None, "n": 0}
    return {"median": statistics.median(samples), "tail": tail(samples, better), "n": len(samples)}


# --------------------------------------------------------------------------
# spans


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Children are clipped to the parent's
    interval and overlapping children are counted once.
    """
    children = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][0]):
            c_start = max(spans[c][0], cursor)
            c_end = min(spans[c][1], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def aggregate_spans(names, spans):
    """Per span name: calls, inclusive time and self time (in the spans' unit).

    ``spans`` holds ``(name_index, start, end, parent, ...)`` records.  The
    inclusive time of a name counts only its outermost spans, so a recursive
    entry point is not counted twice.
    """
    triples = [(s[1], s[2], s[3]) for s in spans]
    selfs = self_times(triples)
    out = {name: {"calls": 0, "incl": 0, "self": 0} for name in names}
    for i, s in enumerate(spans):
        entry = out[names[s[0]]]
        entry["calls"] += 1
        entry["self"] += selfs[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][3]
        if parent < 0:
            entry["incl"] += s[2] - s[1]
    return out


# --------------------------------------------------------------------------
# CSV checks


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def compare_to_reference(text, ref_text):
    """Problems found comparing a study CSV with its reference (empty if none)."""
    header, rows = read_csv(text)
    ref_header, ref_rows = read_csv(ref_text)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in zip(header, row, ref):
            if col == "method":
                same = a == b
            elif col in EXACT_COLUMNS:
                same = float(a) == float(b)
            else:
                same = math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)
            if not same:
                problems.append(f"row {r} {col}: {a} != reference {b}")
    return problems


def check_invariants(text, ref_text, replicates):
    """Seed-independent checks of a study CSV (empty list if all hold).

    The reference supplies what does not depend on the seed: the header, the
    delta column, ``m`` and ``method``.  Checked: finite values, the row count,
    ``m`` and ``rep_count`` as configured, rates in [0, 1], and the column
    identities of each study (``ratio = mse_estimated / mse_known``,
    ``mse_oracle <= mse_known``, ``mc_mse^2 = mc_bias_sq + mc_variance``).
    """
    header, rows = read_csv(text)
    ref_header, ref_rows = read_csv(ref_text)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        rec = dict(zip(header, row))
        ref_rec = dict(zip(header, ref))
        values = {k: float(v) for k, v in rec.items() if k != "method"}
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"row {r}: non-finite {bad}")
            continue
        for col in ("delta", "m", "method"):
            if col in rec and rec[col] != ref_rec[col]:
                problems.append(f"row {r} {col}: {rec[col]} != configured {ref_rec[col]}")
        if rec["rep_count"] != str(replicates):
            problems.append(f"row {r} rep_count: {rec['rep_count']} != configured {replicates}")
        for col, v in values.items():
            if (col == "hit_rate" or col.startswith("exceed_")) and not 0.0 <= v <= 1.0:
                problems.append(f"row {r} {col}: {v} outside [0, 1]")
        if "ratio" in values:
            expect = values["mse_estimated"] / values["mse_known"]
            if not math.isclose(values["ratio"], expect, rel_tol=RATIO_TOL, abs_tol=0.0):
                problems.append(f"row {r} ratio: {values['ratio']} != {expect}")
            if values["mse_oracle"] > values["mse_known"]:
                problems.append(f"row {r}: mse_oracle above mse_known")
        if "mc_mse" in values:
            lhs = values["mc_mse"] ** 2
            rhs = values["mc_bias_sq"] + values["mc_variance"]
            if not math.isclose(lhs, rhs, rel_tol=RATIO_TOL, abs_tol=0.0):
                problems.append(f"row {r}: mc_mse^2 {lhs} != bias^2 + variance {rhs}")
    return problems


# --------------------------------------------------------------------------
# per-layer metrics of one traced process

ALL = ("veto", "oracle", "fine_grid")
LOOP = ("veto", "fine_grid")  # workloads that run estimate-then-balance
LAYERS = (
    "operators", "discretization", "noise", "noise_level", "choice",
    "filters", "harness", "cli", "grid", "signals",
)
# layers that are not called on every workload
LAYER_CALLED_ON = {"discretization": LOOP, "noise_level": LOOP, "filters": ("oracle",)}
FLAGS = ("psi_not_decreasing", "lepskii_degenerate", "estimator_not_converged", "delta_hat_floor")

# metric -> (unit, better, entry points it reads, workloads on which those
# entry points must be called).  A metric whose entry point is gone, or is not
# called on a workload that expects calls, is reported as missing, not as 0.
# "*_self_s" is self time; any other "*_s" is inclusive time in the entry point.
PER_LAYER = {
    "operators.construct_s": ("s", "lower", ("operators.DiscreteOperator",), ALL),
    "operators.constructions": ("count", "lower", ("operators.DiscreteOperator",), ALL),
    "operators.dense_mb": ("MB-computed", "lower", ("operators.DiscreteOperator",), ALL),
    "discretization.project_operator_s": ("s", "lower", ("discretization.project_operator",), LOOP),
    "choice.lepskii_self_s": ("s", "lower", ("choice.lepskii_choose",), LOOP),
    "choice.lepskii_calls": ("count", "lower", ("choice.lepskii_choose",), LOOP),
    "choice.candidates": ("count", "lower", ("choice.lepskii_choose",), LOOP),
    "choice.pairs_checked": ("count", "lower", ("choice.lepskii_choose",), LOOP),
    "choice.level_reuse_ratio": ("ratio", "higher", ("choice.lepskii_choose",), LOOP),
    "choice.data_driven_self_s": ("s", "lower", ("choice.data_driven_choose",), LOOP),
    "noise_level.refine_s": ("s", "lower", ("noise_level.refine_delta_hat",), LOOP),
    "noise_level.iterations": ("count", "lower", ("noise_level.refine_delta_hat",), LOOP),
    "noise_level.converged_ratio": ("ratio", "higher", ("noise_level.refine_delta_hat",), LOOP),
    "discretization.project_s": ("s", "lower", ("discretization.project",), LOOP),
    "discretization.project_calls": ("count", "lower", ("discretization.project",), LOOP),
    "grid.vectors_built": ("count", "lower", ("grid.L2Vector",), ALL),
    "noise.observe_s": ("s", "lower", ("noise.observe",), ALL),
    "noise.draw_noise_s": ("s", "lower", ("noise.draw_noise",), ALL),
    "choice.oracle_self_s": ("s", "lower", ("choice.oracle_choice",), ("oracle",)),
    "filters.regularize_svd_s": ("s", "lower", ("filters.regularize_svd",), ("oracle",)),
    "filters.regularize_svd_calls": ("count", "lower", ("filters.regularize_svd",), ("oracle",)),
    "statinv.import_s": ("s", "lower", (), ()),
    "harness.parse_config_s": ("s", "lower", ("harness.parse_config",), ALL),
    "harness.study_self_s": ("s", "lower", ("harness.run_veto_study", "harness.run_mse_study"), ALL),
    "harness.write_csv_s": ("s", "lower", ("harness.write_veto_csv", "harness.write_mse_csv"), ALL),
    **{f"choice.flags.{flag}": ("count", "lower", ("choice.lepskii_choose",), ()) for flag in FLAGS},
    "discretization.n_max_caps": ("count", "lower", (), ()),
    **{
        f"{layer}.self_s": ("s", "lower", (layer,), LAYER_CALLED_ON.get(layer, ALL))
        for layer in LAYERS
    },
    "trace.overhead_s": ("s", "lower", (), ()),
}


def layer_values(record, workload):
    """Per-layer metrics of one traced process; ``None`` marks a missing one.

    ``trace.overhead_s`` needs untraced processes too and is left out here.
    An entry point in the ``(layer,)`` form of ``PER_LAYER`` stands for every
    entry point of that layer.
    """
    agg = aggregate_spans(record["names"], record["spans"])

    def names_of(entry):
        return [n for n in agg if n == entry or n.startswith(entry + ".")] if entry in LAYERS else [entry]

    def total(key, *entries):
        return sum(agg[n][key] for e in entries for n in names_of(e) if n in agg)

    def seconds(key, *entries):
        return total(key, *entries) / 1e9

    lep, ref = record["lepskii"], record["refine"]
    values = {
        "operators.construct_s": seconds("incl", "operators.DiscreteOperator"),
        "operators.constructions": total("calls", "operators.DiscreteOperator"),
        "operators.dense_mb": record["dense_bytes"] / 1e6,
        "discretization.project_operator_s": seconds("incl", "discretization.project_operator"),
        "choice.lepskii_self_s": seconds("self", "choice.lepskii_choose"),
        "choice.lepskii_calls": total("calls", "choice.lepskii_choose"),
        "choice.candidates": lep["candidates"],
        "choice.pairs_checked": lep["pairs_checked"],
        "choice.level_reuse_ratio": (
            1.0 - lep["distinct_levels"] / lep["candidates"] if lep["candidates"] else 0.0
        ),
        "choice.data_driven_self_s": seconds("self", "choice.data_driven_choose"),
        "noise_level.refine_s": seconds("incl", "noise_level.refine_delta_hat"),
        "noise_level.iterations": ref["iterations"],
        "noise_level.converged_ratio": ref["converged"] / ref["calls"] if ref["calls"] else 0.0,
        "discretization.project_s": seconds("incl", "discretization.project"),
        "discretization.project_calls": total("calls", "discretization.project"),
        "grid.vectors_built": total("calls", "grid.L2Vector"),
        "noise.observe_s": seconds("incl", "noise.observe"),
        "noise.draw_noise_s": seconds("incl", "noise.draw_noise"),
        "choice.oracle_self_s": seconds("self", "choice.oracle_choice"),
        "filters.regularize_svd_s": seconds("incl", "filters.regularize_svd"),
        "filters.regularize_svd_calls": total("calls", "filters.regularize_svd"),
        "statinv.import_s": record["import_ns"] / 1e9,
        "harness.parse_config_s": seconds("incl", "harness.parse_config"),
        "harness.study_self_s": seconds("self", "harness.run_veto_study", "harness.run_mse_study"),
        "harness.write_csv_s": seconds("incl", "harness.write_veto_csv", "harness.write_mse_csv"),
        **{f"choice.flags.{flag}": record["flags"].get(flag, 0) for flag in FLAGS},
        "discretization.n_max_caps": record["n_max_caps"],
        **{f"{layer}.self_s": seconds("self", layer) for layer in LAYERS},
    }
    missing = set(record["missing"])
    for metric, (_, _, entries, expected) in PER_LAYER.items():
        if metric not in values:
            continue
        gone = any(
            e in missing or (e in LAYERS and not names_of(e)) for e in entries
        )
        if gone or (workload in expected and total("calls", *entries) == 0):
            values[metric] = None
    return values


# Layers expected to dominate self time on each workload, taken together.
DOMINANT = {
    "veto": ("choice", "noise_level", "discretization", "noise"),
    "oracle": ("filters", "choice"),
    "fine_grid": ("operators",),
}


def dominant_as_expected(self_s, workload):
    """True when the expected layers together outweigh every other single layer."""
    group = sum(self_s.get(layer) or 0.0 for layer in DOMINANT[workload])
    others = [v or 0.0 for layer, v in self_s.items() if layer not in DOMINANT[workload]]
    return group > max(others, default=0.0)
