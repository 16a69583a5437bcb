"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is runnable standalone (``pytest tests/test_acceptance.py -s``).
The heavy Monte Carlo studies are computed once per session through module
fixtures; the determinism criterion reruns them from scratch and compares the
serialized output byte for byte.
"""

import io
import os
import tempfile
import time

import numpy as np
import pytest

from statinv import (
    EstimatorConfig,
    ExperimentConfig,
    L2Vector,
    LevelData,
    LevelSchedule,
    NoiseSpec,
    WhiteNoiseError,
    discrepancy_principle,
    estimate_delta_sq,
    monte_carlo_variance,
    observe,
    omega_plus_rate,
    regularize_svd,
    run_bias_variance_check,
    run_veto_study,
    spectral_cutoff,
    tikhonov,
    variance_bound,
    verify_filter_properties,
)
from statinv.harness import FLOAT_FMT, write_veto_csv
from statinv.signals import dirac_direction, make_signal

SEED = 20260811

VETO_CONFIG = ExperimentConfig(
    operator_n=1024,
    signal_kind="source",
    signal_nu=1.0,
    signal_amplitude=10.0,
    noise_kind="gaussian_white",
    delta_list=(0.1, 0.05, 0.02, 0.01),
    replicates=200,
    seed=SEED,
    method="lepskii_estimated_delta",
    study="veto",
    schedule=LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=1024),
    estimator=EstimatorConfig(tau=1.5, K=3.0, p=2.0, eps=0.1, m_window=3, n0=16),
    lepskii_q=2.0,
    lepskii_c_psi=1.0,
)


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({elapsed:.1f}s, budget {budget:.0f}s)")


def _fmt_rows(rows):
    out = io.StringIO()
    for row in rows:
        out.write(",".join(format(float(v), FLOAT_FMT) if isinstance(v, float) else str(v) for v in row))
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_filter_laws(op256):
    t0 = time.perf_counter()
    alpha_grid = np.logspace(-6, 0, 25)
    reports = [
        verify_filter_properties(filt, op256, alpha_grid)
        for filt in (tikhonov(), spectral_cutoff())
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.all_passed for r in reports) and elapsed < 5.0
    _report(1, "filter law suite (Tikhonov + spectral cut-off)", ok, elapsed, 5.0)
    for r in reports:
        assert r.all_passed, (r.kind, r.failures)
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 2

def _run_variance_bound(op256):
    rows = []
    violations = 0
    for filt in (tikhonov(), spectral_cutoff()):
        for alpha in (1e-3, 1e-2, 1e-1):
            v_hat = monte_carlo_variance(filt, op256, alpha, replicates=1000, seed=SEED)
            bound = variance_bound(filt, op256, alpha)
            violations += int(v_hat > bound)
            rows.append((filt.kind, float(alpha), float(v_hat), float(bound)))
    return violations, _fmt_rows(rows)


@pytest.fixture(scope="module")
def variance_bound_run(op256):
    t0 = time.perf_counter()
    violations, csv_text = _run_variance_bound(op256)
    return violations, csv_text, time.perf_counter() - t0


def test_criterion_2_variance_bound(variance_bound_run):
    violations, _, elapsed = variance_bound_run
    ok = violations == 0 and elapsed < 30.0
    _report(2, "Monte Carlo variance bound (gamma^2/alpha^2) ||T||_HS^2", ok, elapsed, 30.0)
    assert violations == 0
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3

def _run_bias_variance(op256):
    x = make_signal("smooth", op256.grid)
    report = run_bias_variance_check(
        op256, x, tikhonov(), alpha=1e-2, delta=0.05, replicates=2000, seed=SEED
    )
    row = [
        (
            float(report.alpha),
            float(report.delta),
            report.replicates,
            float(report.bias_sq),
            float(report.v_hat),
            float(report.mse_sq),
            float(report.identity_gap),
            float(report.standard_error),
        )
    ]
    return report, _fmt_rows(row)


@pytest.fixture(scope="module")
def bias_variance_run(op256):
    t0 = time.perf_counter()
    report, csv_text = _run_bias_variance(op256)
    return report, csv_text, time.perf_counter() - t0


def test_criterion_3_bias_variance_identity(bias_variance_run):
    report, _, elapsed = bias_variance_run
    ok = report.within_4se and report.bound_ok and elapsed < 60.0
    _report(3, "bias-variance identity within 4 SE at (0.05, 1e-2, 256, 2000)", ok, elapsed, 60.0)
    assert report.within_4se, (report.identity_gap, report.standard_error)
    assert report.bound_ok  # Monte Carlo variance below the spectral bound
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 4

def _run_estimator_consistency(op512, op1024):
    delta, reps = 0.1, 5000
    x512 = make_signal("smooth", op512.grid)
    spec = NoiseSpec.gaussian_white(SEED)
    acc = 0.0
    for rep in range(reps):
        acc += estimate_delta_sq(observe(op512, x512, delta, spec, replicate=rep))
    mc_mean = acc / reps

    x1024 = make_signal("smooth", op1024.grid)
    zero = NoiseSpec.dirac(L2Vector(op1024.grid, np.zeros(1024)))
    data = LevelData(observe(op1024, x1024, 1e-300, zero))
    ns = np.array([64, 128, 256, 512, 1024])
    bias_vals = np.array([estimate_delta_sq(data(int(n))) for n in ns])
    exponent = -np.polyfit(np.log(ns), np.log(bias_vals), 1)[0]

    rows = [("mc_mean_dts", float(mc_mean), float(delta**2))]
    rows += [("bias_dts", int(n), float(v)) for n, v in zip(ns, bias_vals)]
    rows.append(("exponent", float(exponent), 0.0))
    return mc_mean, delta, exponent, _fmt_rows(rows)


@pytest.fixture(scope="module")
def estimator_consistency_run(op512, op1024):
    t0 = time.perf_counter()
    mc_mean, delta, exponent, csv_text = _run_estimator_consistency(op512, op1024)
    return mc_mean, delta, exponent, csv_text, time.perf_counter() - t0


def test_criterion_4_estimator_consistency(estimator_consistency_run):
    mc_mean, delta, exponent, _, elapsed = estimator_consistency_run
    mean_ok = abs(mc_mean - delta**2) <= 0.05 * delta**2
    exp_ok = 1.5 <= exponent <= 3.5
    ok = mean_ok and exp_ok and elapsed < 60.0
    _report(4, "noise-level estimator consistency and bias decay", ok, elapsed, 60.0)
    assert mean_ok, (mc_mean, delta**2)
    assert exp_ok, exponent
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 5

def _run_concentration(op512):
    x = make_signal("smooth", op512.grid)
    coarse = omega_plus_rate(op512, x, 0.1, tau=1.5, K=3.0, n=64, replicates=2000, seed=SEED)
    fine = omega_plus_rate(op512, x, 0.1, tau=1.5, K=3.0, n=512, replicates=2000, seed=SEED)
    rows = [
        (64, float(coarse.hit_rate), coarse.replicates),
        (512, float(fine.hit_rate), fine.replicates),
    ]
    return coarse, fine, _fmt_rows(rows)


@pytest.fixture(scope="module")
def concentration_run(op512):
    t0 = time.perf_counter()
    coarse, fine, csv_text = _run_concentration(op512)
    return coarse, fine, csv_text, time.perf_counter() - t0


def test_criterion_5_concentration_direction(concentration_run):
    coarse, fine, _, elapsed = concentration_run
    miss_fine = 1.0 - fine.hit_rate
    miss_coarse = 1.0 - coarse.hit_rate
    ok = miss_fine <= miss_coarse and elapsed < 60.0
    _report(5, "P(miss) at n=512 below P(miss) at n=64", ok, elapsed, 60.0)
    assert miss_fine <= miss_coarse, (miss_fine, miss_coarse)
    assert elapsed < 60.0


# ----------------------------------------------------------- criteria 6 and 7

def _run_veto():
    rows = run_veto_study(VETO_CONFIG)
    with tempfile.NamedTemporaryFile("r", suffix=".csv", delete=False) as handle:
        path = handle.name
    write_veto_csv(rows, path)
    with open(path, "rb") as fh:
        payload = fh.read()
    os.unlink(path)
    return rows, payload


@pytest.fixture(scope="module")
def veto_run():
    t0 = time.perf_counter()
    rows, payload = _run_veto()
    return rows, payload, time.perf_counter() - t0


def test_criterion_6_known_delta_lepskii(veto_run):
    rows, _, elapsed = veto_run
    mses = [r.mse_known for r in rows]
    decreasing = all(b < a for a, b in zip(mses, mses[1:]))
    envelope = all(r.mse_known <= 10.0 * np.sqrt(r.m) * r.mse_oracle for r in rows)
    ok = decreasing and envelope and elapsed < 600.0
    _report(6, "known-delta Lepskii MSE decreasing and near-oracle", ok, elapsed, 600.0)
    assert decreasing, mses
    assert envelope, [(r.mse_known, r.mse_oracle, r.m) for r in rows]
    assert elapsed < 600.0


def test_criterion_7_data_driven_convergence(veto_run):
    rows, _, elapsed = veto_run
    mses = [r.mse_estimated for r in rows]
    decreasing = all(b < a for a, b in zip(mses, mses[1:]))
    halved = mses[-1] / mses[0] <= 0.5
    ratios_ok = all(r.ratio <= 5.0 for r in rows)
    ok = decreasing and halved and ratios_ok and elapsed < 900.0
    _report(7, "data-driven pipeline converges (headline experiment)", ok, elapsed, 900.0)
    assert decreasing, mses
    assert halved, mses[-1] / mses[0]
    assert ratios_ok, [r.ratio for r in rows]
    assert elapsed < 900.0


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_discrepancy_sanity(op256):
    t0 = time.perf_counter()
    x = make_signal("smooth", op256.grid)
    xi = dirac_direction(op256.grid)
    alpha_grid = np.geomspace(1e-8, op256.norm**2, 40)
    errors = []
    for delta in (0.16, 0.08, 0.04, 0.02, 0.01):
        obs = observe(op256, x, delta, NoiseSpec.dirac(xi))
        (alpha,) = discrepancy_principle(op256, obs, tikhonov(), 2.0, alpha_grid).alpha
        x_hat = regularize_svd(tikhonov(), op256, obs.coeffs, alpha).x_alpha
        errors.append(float(np.linalg.norm(x_hat - x.coeffs)))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))

    white = observe(op256, x, 0.05, NoiseSpec.gaussian_white(SEED))
    with pytest.raises(WhiteNoiseError):
        discrepancy_principle(op256, white, tikhonov(), 2.0, alpha_grid)
    elapsed = time.perf_counter() - t0
    ok = decreasing and elapsed < 10.0
    _report(8, "discrepancy principle: dirac-noise decay + white-noise rejection", ok, elapsed, 10.0)
    assert decreasing, errors
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(
    op256, op512, op1024, variance_bound_run, bias_variance_run,
    estimator_consistency_run, concentration_run, veto_run,
):
    t0 = time.perf_counter()
    reruns = {
        2: (_run_variance_bound(op256)[1], variance_bound_run[1]),
        3: (_run_bias_variance(op256)[1], bias_variance_run[1]),
        4: (_run_estimator_consistency(op512, op1024)[3], estimator_consistency_run[3]),
        5: (_run_concentration(op512)[2], concentration_run[2]),
        67: (_run_veto()[1], veto_run[1]),
    }
    mismatches = [key for key, (fresh, cached) in reruns.items() if fresh != cached]
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report(9, "criteria 2-7 reruns are byte-identical", ok, elapsed, 3000.0)
    assert not mismatches, mismatches
