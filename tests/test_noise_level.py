import numpy as np
import pytest

from statinv import (
    EstimatorConfig,
    Grid,
    L2Vector,
    LevelData,
    LevelSchedule,
    NoiseSpec,
    Observation,
    build_integration_operator,
    estimate_delta_sq,
    observe,
    omega_plus_rate,
    project,
    refine_delta_hat,
)
from statinv.signals import make_signal

SCHED = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=1.0, n_max=1024)


def _noiseless_obs(op, x):
    zero = NoiseSpec.dirac(L2Vector(op.grid, np.zeros(op.n)))
    return observe(op, x, 1e-300, zero)


def test_constant_cell_values_estimate_zero():
    grid = Grid(32)
    obs = Observation(
        grid=grid,
        y_exact=L2Vector(grid, np.full(32, 0.25)),
        delta=1e-300,
        coeffs=np.full(32, 0.25),
        noise=NoiseSpec.gaussian_white(0),
        seed_used=0,
    )
    assert estimate_delta_sq(obs) == 0.0


def test_estimate_needs_two_cells():
    grid = Grid(1)
    obs = Observation(
        grid=grid,
        y_exact=L2Vector(grid, np.zeros(1)),
        delta=1e-300,
        coeffs=np.zeros(1),
        noise=NoiseSpec.gaussian_white(0),
        seed_used=0,
    )
    with pytest.raises(ValueError):
        estimate_delta_sq(obs)


def test_estimate_batch_rows_equal_single_rows(op64):
    # a batch is read in blocks of 2^13 entries: 3 rows at n = 64 fit in one,
    # 9 rows at n = 1024 end on a partial block of one row, and rows longer
    # than a block (n = 16384) go one by one
    spec = NoiseSpec.gaussian_white(seed=4)
    cases = [(op64, 3)] + [(build_integration_operator(Grid(n)), r) for n, r in ((1024, 9), (16384, 2))]
    for op, reps in cases:
        x = make_signal("smooth", op.grid)
        rows = [observe(op, x, 0.1, spec, replicate=rep) for rep in range(reps)]
        batch = observe(op, x, 0.1, spec, replicate=list(range(reps)))
        estimates = estimate_delta_sq(batch)
        assert estimates.shape == (reps,)
        for i, obs in enumerate(rows):
            single = estimate_delta_sq(obs)
            assert isinstance(single, float)
            assert estimates[i] == single
            assert estimate_delta_sq(batch.row(i)) == single


def test_pure_noise_expectation(op512):
    # E[dts_n] = delta^2 (n-1)/n for pure white noise; Monte Carlo oracle
    delta, reps = 0.1, 5000
    zero = L2Vector(op512.grid, np.zeros(512))
    spec = NoiseSpec.gaussian_white(seed=101)
    acc = 0.0
    for rep in range(reps):
        obs = observe(op512, zero, delta, spec, replicate=rep)
        acc += estimate_delta_sq(obs)
    mean = acc / reps
    assert abs(mean - delta**2) <= 0.05 * delta**2
    assert mean >= delta**2 * (1 - 2 / 512) - 3 * delta**2 * np.sqrt(3 / 512) / np.sqrt(reps)


def test_smooth_bias_decays_cubically(op1024):
    # for s = 1 data the noiseless estimate is O(n^-3): predict n = 256 from
    # n = 64 and allow a factor 10
    x = make_signal("smooth", op1024.grid)
    data = LevelData(_noiseless_obs(op1024, x))
    val = {n: estimate_delta_sq(data(n)) for n in (64, 128, 256, 512, 1024)}
    predicted = val[64] * (64 / 256) ** 3
    assert val[256] <= 10 * predicted
    # log-log regression over the whole range: fitted exponent in [1.5, 3.5]
    ns = np.array(sorted(val))
    slope = np.polyfit(np.log(ns), np.log([val[n] for n in ns]), 1)[0]
    assert 1.5 <= -slope <= 3.5


def test_scale_equivariance():
    grid = Grid(64)
    op = build_integration_operator(grid)
    x = make_signal("smooth", grid)
    obs = observe(op, x, 0.1, NoiseSpec.gaussian_white(seed=3))
    scaled = Observation(
        grid=grid,
        y_exact=4.0 * obs.y_exact,
        delta=obs.delta,
        coeffs=4.0 * obs.coeffs,
        noise=obs.noise,
        seed_used=obs.seed_used,
    )
    # scaling by a power of two is exact in floating point
    assert estimate_delta_sq(scaled) == 16.0 * estimate_delta_sq(obs)


def test_refine_stops_at_window_fill_with_huge_eps(op1024):
    x = make_signal("smooth", op1024.grid)
    obs = observe(op1024, x, 0.05, NoiseSpec.gaussian_white(seed=11))
    est = refine_delta_hat(op1024, LevelData(obs), EstimatorConfig(eps=1e6), SCHED)
    assert est.iterations == 3
    assert est.converged


def test_refine_noiseless_hits_cap(op1024):
    x = make_signal("smooth", op1024.grid)
    data = LevelData(_noiseless_obs(op1024, x))
    est = refine_delta_hat(op1024, data, EstimatorConfig(), SCHED)
    assert not est.converged
    assert est.delta_hat < 1e-3  # bias-only estimate keeps shrinking
    assert est.n_used == 1024


def test_estimator_config_validation():
    # refine_delta_hat reads its knobs from an EstimatorConfig, which rejects these
    for bad in ({"tau": 1.0}, {"p": 1.0}, {"eps": 0.0}, {"m_window": 0}):
        with pytest.raises(ValueError):
            EstimatorConfig(**bad)


def test_refine_concentrates(op1024):
    # delta = 0.05: final delta_hat in [delta, K tau delta] in >= 95% of runs
    delta, tau, K, runs = 0.05, 1.5, 3.0, 500
    x = make_signal("smooth", op1024.grid)
    spec = NoiseSpec.gaussian_white(seed=71)
    hits = 0
    for rep in range(runs):
        obs = observe(op1024, x, delta, spec, replicate=rep)
        est = refine_delta_hat(op1024, LevelData(obs), EstimatorConfig(tau=tau, K=K), SCHED)
        if delta <= est.delta_hat <= K * tau * delta:
            hits += 1
    assert hits / runs >= 0.95


def test_omega_plus_dirac_zero_rate(op64):
    x = make_signal("smooth", op64.grid)
    zero = NoiseSpec.dirac(L2Vector(op64.grid, np.zeros(64)))
    report = omega_plus_rate(op64, x, 0.1, 1.5, 3.0, 64, replicates=20, seed=1, spec=zero)
    # delta_tilde is (almost) zero < delta, so the event never happens
    assert report.hit_rate == 0.0


def test_omega_plus_wide_band(op64):
    x = make_signal("smooth", op64.grid)
    report = omega_plus_rate(op64, x, 0.1, tau=50.0, K=1e9, n=64, replicates=100, seed=2)
    assert report.hit_rate == 1.0


def test_omega_plus_miss_rate_improves_with_n(op512):
    x = make_signal("smooth", op512.grid)
    coarse = omega_plus_rate(op512, x, 0.1, 1.5, 3.0, 64, replicates=500, seed=9)
    fine = omega_plus_rate(op512, x, 0.1, 1.5, 3.0, 512, replicates=500, seed=9)
    assert (1 - fine.hit_rate) <= (1 - coarse.hit_rate)
    assert coarse.n == 64 and fine.n == 512


def test_omega_plus_counts_the_replicate_loop(op64):
    # reference: one observation, projection and estimate per replicate
    x = make_signal("smooth", op64.grid)
    delta, tau, K, n, reps = 0.1, 1.5, 1.2, 16, 60
    spec = NoiseSpec.gaussian_white(seed=5)
    hits = 0
    for rep in range(reps):
        obs = observe(op64, x, delta, spec, replicate=rep)
        delta_hat = tau * np.sqrt(estimate_delta_sq(project(obs, n)))
        hits += int(delta <= delta_hat <= K * tau * delta)
    report = omega_plus_rate(op64, x, delta, tau, K, n, replicates=reps, seed=5)
    assert 0 < hits < reps
    assert report.hit_rate == hits / reps
