import sys
from pathlib import Path

import numpy as np
import pytest

import statinv.discretization
import statinv.harness
import statinv.noise
from statinv import (
    ConfigError,
    EstimatorConfig,
    ExperimentConfig,
    Grid,
    L2Vector,
    LepskiiConfig,
    LevelData,
    LevelSchedule,
    NoiseSpec,
    apply,
    build_integration_operator,
    draw_noise,
    embed_vector,
    parse_config,
    run_bias_variance_check,
    lepskii_choose,
    observe,
    regularize_svd,
    run_mse_study,
    run_study,
    run_veto_study,
    spectral_series,
    tikhonov,
    variance_bound,
    write_mse_csv,
    write_veto_csv,
)
from statinv.harness import (
    build_noise_spec,
    build_operator,
    build_signal,
    config_from_mapping,
    effective_schedule,
)
from statinv.noise import stream_key
from statinv.signals import dirac_direction, make_signal

VETO_SCHED = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=1024)


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_parse_config_round_trip(tmp_path):
    path = _write_config(
        tmp_path,
        """
        # experiment frame
        operator.kind = integration
        operator.n = 128
        signal.kind = source
        signal.nu = 1.0
        signal.amplitude = 10.0
        noise.kind = gaussian_white
        delta_list = 0.1, 0.05
        replicates = 4
        seed = 99
        method = oracle
        study = mse
        schedule.c2 = 0.0
        lepskii.q = 2.0
        estimator.tau = 1.5
        """,
    )
    cfg = parse_config(path)
    assert cfg.operator_n == 128
    assert cfg.signal_kind == "source"
    assert cfg.delta_list == (0.1, 0.05)
    assert cfg.replicates == 4
    assert cfg.schedule.c2 == 0.0
    assert cfg.estimator.tau == 1.5


def test_parse_config_unknown_key(tmp_path):
    path = _write_config(tmp_path, "no.such.key = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = _write_config(tmp_path, "replicates = many\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(delta_list=(0.1, 0.2))  # not decreasing
    with pytest.raises(ConfigError):
        ExperimentConfig(method="quasi_optimality")
    with pytest.raises(ConfigError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ConfigError):
        config_from_mapping({"noise.kind": "levy"})


@pytest.mark.parametrize(
    "make",
    [
        lambda: LepskiiConfig(q=float("nan"), C_psi=1.0),
        lambda: LepskiiConfig(q=2.0, C_psi=float("inf")),
        lambda: EstimatorConfig(tau=float("nan")),
        lambda: EstimatorConfig(eps=float("inf")),
        lambda: EstimatorConfig(K=float("inf")),
        lambda: LevelSchedule(r=float("nan")),
        lambda: LevelSchedule(eta=float("nan")),
        lambda: LevelSchedule(c2=float("inf")),
        lambda: LevelSchedule(n_max=float("inf")),
    ],
    ids=[
        "lepskii.q=nan", "lepskii.C_psi=inf",
        "estimator.tau=nan", "estimator.eps=inf", "estimator.K=inf",
        "schedule.r=nan", "schedule.eta=nan", "schedule.c2=inf", "schedule.n_max=inf",
    ],
)
def test_configs_reject_non_finite_fields(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path, n_max",
    [
        ("configs/veto.cfg", 1024),
        ("configs/veto_n96.cfg", 96),
        ("configs/mse_oracle.cfg", 256),
        ("benchmarks/fine_grid.cfg", 2048),
    ],
)
def test_committed_configs_parse_to_their_sections(path, n_max):
    cfg = parse_config(ROOT / path)
    assert (cfg.lepskii.q, cfg.lepskii.C_psi) == (2.0, 1.0)
    assert cfg.schedule == LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=n_max)
    assert cfg.estimator == EstimatorConfig(tau=1.5, K=3.0, p=2.0, eps=0.1, m_window=3, n0=16)


def test_signals():
    grid = Grid(256)
    op = build_integration_operator(grid)
    smooth = make_signal("smooth", grid)
    assert smooth.norm() == pytest.approx(np.sqrt(0.5), abs=1e-3)  # ||sin(pi t)||
    rough = make_signal("rough", grid)
    assert rough.norm() == pytest.approx(1.0, abs=1e-12)
    assert set(np.round(rough.cell_values(), 12)) == {1.0, -1.0}
    source = make_signal("source", grid, op=op, nu=1.0, amplitude=10.0)
    assert source.norm() == pytest.approx(10.0, rel=1e-12)
    direction = dirac_direction(grid)
    assert direction.norm() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        make_signal("spiky", grid)
    with pytest.raises(ValueError):
        make_signal("source", grid)  # needs the operator


def test_mse_study_oracle_decreases():
    cfg = ExperimentConfig(
        operator_n=128,
        signal_kind="smooth",
        delta_list=(0.2, 0.1, 0.05, 0.025, 0.0125),
        replicates=20,
        seed=5,
        method="oracle",
        schedule=LevelSchedule(n_max=128),
    )
    rows = run_mse_study(cfg)
    mses = [r.mc_mse for r in rows]
    assert all(b < a for a, b in zip(mses, mses[1:]))


@pytest.mark.parametrize(
    "study, method",
    [("mse", "oracle"), ("mse", "discrepancy"), ("veto", "lepskii_estimated_delta")],
)
def test_studies_observe_once_per_delta(monkeypatch, study, method):
    # the benchmark times a study from its first observe call, found by this name;
    # each call draws every replicate of one delta
    calls = []
    real_observe = statinv.harness.observe

    def counting_observe(*args, **kwargs):
        calls.append(kwargs["replicate"])
        return real_observe(*args, **kwargs)

    monkeypatch.setattr(statinv.harness, "observe", counting_observe)
    cfg = ExperimentConfig(
        operator_n=64,
        noise_kind="dirac" if method == "discrepancy" else "gaussian_white",
        delta_list=(0.1, 0.05, 0.02),
        replicates=4,
        seed=3,
        method=method,
        study=study,
        schedule=LevelSchedule(c2=0.0, n_max=64),
    )
    run = run_mse_study if study == "mse" else run_veto_study
    run(cfg)
    assert len(calls) == len(cfg.delta_list)
    assert calls == [[(di, rep) for rep in range(4)] for di in range(3)]


def test_veto_study_projects_each_realization_level_once(monkeypatch):
    # both pipelines and the estimator read one LevelData per delta: the
    # replicates of a delta are one batch, projected once per level
    calls = []
    real_project = statinv.discretization.project

    def counting_project(obs, n_coarse):
        calls.append((obs.delta, n_coarse, obs.seed_used))
        return real_project(obs, n_coarse)

    # every module that bound the name, as a per-layer trace would count it
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("statinv"):
            if getattr(module, "project", None) is real_project:
                monkeypatch.setattr(module, "project", counting_project)
    cfg = ExperimentConfig(
        operator_n=64,
        signal_kind="source",
        signal_amplitude=10.0,
        delta_list=(0.1, 0.05),
        replicates=3,
        seed=3,
        method="lepskii_estimated_delta",
        study="veto",
        schedule=LevelSchedule(c2=0.0, n_max=64),
    )
    run_veto_study(cfg)
    # at most one projection per (delta, level)
    assert len(calls) == len({(delta, n) for delta, n, _ in calls})
    # one batch per delta, and the batches hold every (di, rep) exactly once
    batches = {delta: keys for delta, _, keys in calls}
    assert sorted(batches) == sorted(cfg.delta_list)
    assert all(keys == batches[delta] for delta, _, keys in calls)
    drawn = [key for keys in batches.values() for key in keys]
    expected = [
        stream_key(cfg.seed, (di, rep))
        for di in range(len(cfg.delta_list))
        for rep in range(cfg.replicates)
    ]
    assert sorted(drawn) == sorted(expected)


def test_study_applies_the_operator_once(monkeypatch):
    # T x_true is fixed for the whole study: computed once, not per replicate
    applied = []
    real_apply = statinv.noise.apply

    def counting_apply(op, x):
        applied.append(op.n)
        return real_apply(op, x)

    monkeypatch.setattr(statinv.noise, "apply", counting_apply)
    monkeypatch.setattr(statinv.harness, "apply", counting_apply)
    cfg = ExperimentConfig(
        operator_n=64,
        delta_list=(0.1, 0.05, 0.02),
        replicates=4,
        seed=3,
        method="oracle",
        schedule=LevelSchedule(c2=0.0, n_max=64),
    )
    run_mse_study(cfg)
    assert applied == [64]


def test_run_study_pairs_methods_on_one_realization():
    cfg = ExperimentConfig(
        operator_n=64,
        delta_list=(0.1, 0.05, 0.02),
        replicates=4,
        seed=3,
        schedule=LevelSchedule(c2=0.0, n_max=64),
        lepskii=LepskiiConfig(q=3.0, C_psi=0.5),  # not the defaults: choose must pass them through
    )
    methods = ("oracle", "lepskii_known_delta", "lepskii_estimated_delta")
    together = list(run_study(cfg, methods))
    assert [delta for delta, _, _ in together] == list(cfg.delta_list)
    # the shared realization and level cache do not couple the methods
    for method in methods:
        alone = list(run_study(cfg, (method,)))
        for (_, _, both), (_, _, one) in zip(together, alone, strict=True):
            assert both[method].x.shape == (cfg.replicates, cfg.operator_n)
            assert np.array_equal(both[method].x, one[method].x)
    op = build_operator(cfg)
    sched = effective_schedule(cfg, op)
    spec = build_noise_spec(cfg, op.grid)
    for di, (delta, x_true, choices) in enumerate(together):
        lep_cfg = cfg.lepskii
        # only the known-delta method's best_error is read (the veto oracle column)
        assert choices["oracle"].best_error is None
        assert choices["lepskii_estimated_delta"].best_error is None
        for method in methods[1:]:
            c = choices[method]
            for rep in range(cfg.replicates):
                obs = observe(op, x_true, delta, spec, replicate=(di, rep))
                row_delta = delta if c.delta_hat is None else c.delta_hat[rep]
                fresh = lepskii_choose(op, LevelData(obs), lep_cfg, sched, delta=row_delta)
                assert np.array_equal(fresh.x_star[0], c.x[rep])
                if c.best_error is None:
                    continue
                assert c.best_error[rep] <= np.linalg.norm(x_true.coeffs - c.x[rep])
                # the least 1-D norm over the candidates, each embedded alone
                candidates = [
                    embed_vector(L2Vector(Grid(level), x[k]), op.grid)
                    for level, _, _, x in fresh.blocks
                    for k in range(x.shape[0])
                ]
                assert c.best_error[rep] == min(np.linalg.norm(x_true.coeffs - v.coeffs) for v in candidates)


def test_choose_rejects_unknown_method():
    cfg = ExperimentConfig(operator_n=64, delta_list=(0.1,), replicates=1)
    with pytest.raises(ConfigError, match="lcurve"):
        list(run_study(cfg, ("lcurve",)))


def test_mse_single_replicate_dirac_degenerates():
    cfg = ExperimentConfig(
        operator_n=64,
        noise_kind="dirac",
        delta_list=(0.05,),
        replicates=1,
        seed=2,
        method="oracle",
        schedule=LevelSchedule(n_max=64),
    )
    row = run_mse_study(cfg)[0]
    assert row.mc_variance == pytest.approx(0.0, abs=1e-15)
    assert row.mc_mse**2 == pytest.approx(row.mc_bias_sq, rel=1e-12)


def test_mse_rows_internal_consistency():
    cfg = ExperimentConfig(
        operator_n=64,
        delta_list=(0.1, 0.05),
        replicates=25,
        seed=11,
        method="lepskii_known_delta",
        schedule=LevelSchedule(c2=0.0, n_max=64),
    )
    rows = run_mse_study(cfg)
    for row in rows:
        # summary equals its own raw accumulation
        assert row.mc_mse**2 == pytest.approx(np.mean(row.errors**2), rel=1e-12)
        assert row.mc_mse**2 >= row.mc_bias_sq - 1e-15
        # Chebyshev/Markov on the empirical distribution
        assert np.mean(row.errors > 2 * row.mc_mse) <= 0.25
        for rate in row.exceed_rate.values():
            assert 0.0 <= rate <= 1.0


def test_bias_variance_identity_zero_delta(op64):
    x = make_signal("smooth", op64.grid)
    report = run_bias_variance_check(op64, x, tikhonov(), 1e-2, 0.0, 50, seed=3)
    assert report.mse_sq == pytest.approx(report.bias_sq, rel=0, abs=0)
    assert report.identity_gap == 0.0
    assert report.within_4se


def test_bias_variance_zero_signal(op64):
    x = L2Vector(op64.grid, np.zeros(64))
    report = run_bias_variance_check(op64, x, tikhonov(), 1e-2, 0.05, 500, seed=7)
    assert report.bias_sq == 0.0
    assert report.within_4se
    assert report.bound_ok
    assert report.v_hat <= variance_bound(tikhonov(), op64, 1e-2)


def test_bias_variance_smooth_signal(op64):
    x = make_signal("smooth", op64.grid)
    report = run_bias_variance_check(op64, x, tikhonov(), 1e-2, 0.05, 500, seed=9)
    assert report.within_4se
    assert report.bound_ok


def test_bias_variance_samples_match_the_replicate_loop(op64):
    # reference: the samples drawn and reduced one replicate at a time
    x = make_signal("smooth", op64.grid)
    alpha, delta, reps, spec = 1e-2, 0.05, 40, NoiseSpec.gaussian_white(9)
    report = run_bias_variance_check(op64, x, tikhonov(), alpha, delta, reps, seed=9)
    y = apply(op64, x).coeffs
    bias = x.coeffs - regularize_svd(tikhonov(), op64, y, alpha).x_alpha
    v, d = np.empty(reps), np.empty(reps)
    for rep in range(reps):
        r_xi = spectral_series(tikhonov(), op64, draw_noise(spec, op64.grid, rep), alpha)
        v[rep] = float(np.sum(r_xi**2))
        d[rep] = float(np.sum((bias - delta * r_xi) ** 2)) - delta**2 * v[rep]
    assert report.v_hat == float(np.mean(v))
    assert report.identity_gap == abs(float(np.mean(d - report.bias_sq)))
    assert report.standard_error == float(np.std(d, ddof=1) / np.sqrt(reps))


def test_veto_study_smoke():
    cfg = ExperimentConfig(
        operator_n=256,
        signal_kind="source",
        signal_nu=1.0,
        signal_amplitude=10.0,
        delta_list=(0.1, 0.05),
        replicates=8,
        seed=17,
        method="lepskii_estimated_delta",
        study="veto",
        schedule=LevelSchedule(c2=0.0, n_max=256),
    )
    rows = run_veto_study(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.rep_count == 8
        assert row.errors_known.shape == row.errors_estimated.shape == (8,)
        assert row.mse_known > 0 and row.mse_estimated > 0
        assert row.ratio == pytest.approx(row.mse_estimated / row.mse_known)
        assert 0.0 <= row.hit_rate <= 1.0
        assert row.mse_oracle <= row.mse_known + 1e-12


def test_veto_hit_rate_does_not_degrade_with_smaller_delta():
    # the concentration event gets easier as delta shrinks (levels grow)
    cfg = ExperimentConfig(
        operator_n=1024,
        signal_kind="source",
        signal_nu=1.0,
        signal_amplitude=10.0,
        delta_list=(0.1, 0.05, 0.02, 0.01),
        replicates=40,
        seed=31,
        method="lepskii_estimated_delta",
        study="veto",
        schedule=LevelSchedule(c2=0.0, n_max=1024),
    )
    rows = run_veto_study(cfg)
    misses = [1.0 - r.hit_rate for r in rows]
    assert all(b <= a + 0.03 for a, b in zip(misses, misses[1:]))


def test_csv_writers_are_deterministic(tmp_path):
    cfg = ExperimentConfig(
        operator_n=64,
        delta_list=(0.1,),
        replicates=5,
        seed=23,
        method="oracle",
        schedule=LevelSchedule(n_max=64),
    )
    rows = run_mse_study(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_mse_csv(rows, a)
    write_mse_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("delta,method,mc_mse,mc_bias_sq,mc_variance,rep_count")
    assert "exceed_0.5" in header


def test_veto_csv_format(tmp_path):
    cfg = ExperimentConfig(
        operator_n=128,
        signal_kind="source",
        signal_amplitude=10.0,
        delta_list=(0.1,),
        replicates=3,
        seed=29,
        study="veto",
        method="lepskii_estimated_delta",
        schedule=LevelSchedule(c2=0.0, n_max=128),
    )
    rows = run_veto_study(cfg)
    path = tmp_path / "veto.csv"
    write_veto_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta,mse_known,mse_estimated,ratio,hit_rate,mse_oracle,m,rep_count"
    assert len(lines) == 2


def test_build_operator_min_kernel():
    cfg = ExperimentConfig(operator_kind="min_kernel", operator_n=64)
    op = build_operator(cfg)
    assert np.allclose(op.matrix, op.matrix.T)
    x = build_signal(ExperimentConfig(operator_kind="min_kernel", operator_n=64), op)
    assert x.norm() > 0
