"""The traced benchmark child still fits the package.

``benchmarks/converge_child.py`` wraps named ``statinv`` entry points and
reads fields of their results.  These tests run it on tiny veto and oracle
studies, and on a veto and an oracle study whose fine level is large enough
for the integration operator's transforms, so a renamed entry point or a
changed result shows up here rather than only in the benchmark's smoke runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from statinv.harness import build_study, config_from_mapping
from statinv.noise_level import refine_delta_hat

ROOT = Path(__file__).resolve().parents[1]

STUDIES = {
    "veto": """
operator.n = 64
signal.kind = source
signal.amplitude = 10.0
delta_list = 0.1, 0.05
replicates = 3
seed = 11
method = lepskii_estimated_delta
study = veto
schedule.c2 = 0.0
schedule.n_max = 64
""",
    "oracle": """
operator.n = 64
signal.kind = smooth
delta_list = 0.1, 0.05
replicates = 3
seed = 7
method = oracle
study = mse
schedule.c2 = 0.0
schedule.n_max = 64
""",
    "oracle_transform": """
operator.n = 512
signal.kind = smooth
delta_list = 0.1, 0.05
replicates = 3
seed = 7
method = oracle
study = mse
schedule.c2 = 0.0
schedule.n_max = 512
""",
    "transform": """
operator.n = 512
signal.kind = source
signal.amplitude = 10.0
delta_list = 0.1, 0.05
replicates = 3
seed = 11
method = lepskii_estimated_delta
study = veto
schedule.n_max = 512
""",
}


def _traced_record(tmp_path, name):
    cfg, out, record = (tmp_path / f"{name}{ext}" for ext in (".cfg", ".csv", ".json"))
    cfg.write_text(STUDIES[name])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    child = ROOT / "benchmarks" / "converge_child.py"
    subprocess.run(
        [sys.executable, str(child), str(record), "1", "converge", "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(record.read_text())


def _spans(record, name):
    return sum(1 for span in record["spans"] if record["names"][span[0]] == name)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_every_traced_entry_point_but_the_retired_solver_exists(tmp_path, name):
    record = _traced_record(tmp_path, name)
    # LevelSolverCache.solver went with the per-level Tikhonov solvers
    assert record["missing"] == ["choice.LevelSolverCache.solver"]
    # the benchmark's setup_s ends at the first observe, which draws every replicate of a delta
    deltas = next(line for line in STUDIES[name].splitlines() if line.startswith("delta_list"))
    assert _spans(record, "noise.observe") == len(deltas.split(","))
    assert _spans(record, "noise.draw_noise") > 0
    if name == "veto":
        assert record["refine"]["calls"] > 0
        assert record["refine"]["iterations"] > 0
        assert record["lepskii"]["candidates"] > 0
        # coarse levels are built inside the traced entry point, not on a later matrix read
        assert _spans(record, "discretization.project_operator") > 0
        # the level rule runs under the traced n_of, once per ladder table
        assert _spans(record, "discretization.n_of") == _spans(record, "choice.lepskii_choose") > 0
    elif name == "transform":
        # the matrix-free operator is still built, projected and applied through the hooks
        for hook in ("operators.DiscreteOperator", "operators.apply", "discretization.project_operator"):
            assert _spans(record, hook) > 0, hook
    else:
        # oracle_transform: the batched solves run the transforms under the traced wrapper
        assert _spans(record, "filters.regularize_svd") > 0


@pytest.mark.parametrize("name", ["veto", "transform"])
def test_traced_refinement_counts_one_estimate_per_row(tmp_path, name):
    # noise_level.iterations and converged_ratio sum the per-call results of
    # refine_delta_hat, so it must still be called once per replicate and delta
    record = _traced_record(tmp_path, name)
    lines = (line.split("=", 1) for line in STUDIES[name].strip().splitlines())
    cfg = config_from_mapping({key.strip(): value.strip() for key, value in lines})
    rows = cfg.replicates * len(cfg.delta_list)
    assert _spans(record, "noise_level.refine_delta_hat") == record["refine"]["calls"] == rows
    study = build_study(cfg)
    estimates = [
        refine_delta_hat(study.op, data, cfg.estimator, study.sched, row=i)
        for data in (study.batch(di) for di in range(len(cfg.delta_list)))
        for i in range(cfg.replicates)
    ]
    assert record["refine"]["iterations"] == sum(e.iterations for e in estimates)
    assert record["refine"]["converged"] == sum(e.converged for e in estimates)
