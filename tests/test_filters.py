import numpy as np
import pytest

from statinv import (
    Filter,
    Grid,
    L2Vector,
    NoiseSpec,
    apply,
    bias_value,
    build_integration_operator,
    convergence_to_pseudoinverse,
    draw_noise,
    filter_value,
    generalized_inverse_apply,
    monte_carlo_variance,
    regularize_normal_equations,
    regularize_svd,
    spectral_cutoff,
    spectral_series,
    tikhonov,
    variance_bound,
    verify_filter_properties,
)

ALPHA_GRID = np.logspace(-6, 0, 25)


def test_tikhonov_value():
    assert filter_value(tikhonov(), 0.5, 0.5) == pytest.approx(1.0)


def test_cutoff_is_zero_at_and_below_alpha():
    f = spectral_cutoff()
    # the indicator is over the open interval (alpha, ||T||^2]
    assert filter_value(f, 0.25, 0.25) == 0.0
    assert filter_value(f, 0.25, 0.1) == 0.0
    assert filter_value(f, 0.25, 1.0) == pytest.approx(1.0)


def test_filter_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        filter_value(tikhonov(), 0.0, 0.5)
    with pytest.raises(ValueError):
        bias_value(spectral_cutoff(), -1.0, 0.5)


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()], ids=["tikhonov", "cutoff"])
def test_filter_value_takes_an_alpha_column(filt):
    alphas = np.logspace(-4, 0, 9)
    theta = np.concatenate([np.logspace(-5, 0.5, 40), alphas])
    rows = filter_value(filt, alphas[:, None], theta)
    assert np.array_equal(rows, np.stack([filter_value(filt, a, theta) for a in alphas]))
    alphas[3] = 0.0
    with pytest.raises(ValueError, match="alpha must be positive"):
        filter_value(filt, alphas[:, None], theta)


def test_bias_values():
    assert bias_value(tikhonov(), 1.0, 1.0) == pytest.approx(0.5)
    assert bias_value(spectral_cutoff(), 0.25, 0.5) == 0.0
    assert bias_value(tikhonov(), 1e-2, 1e-12) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()])
def test_bias_filter_identity_exact(filt):
    rng = np.random.default_rng(0)
    thetas = rng.uniform(1e-8, 0.4, size=200)
    for alpha in (1e-4, 1e-2, 1.0):
        f = filter_value(filt, alpha, thetas)
        b = bias_value(filt, alpha, thetas)
        assert np.all(thetas * f + b == 1.0)


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()])
def test_filter_properties_pass(filt, op256):
    report = verify_filter_properties(filt, op256, ALPHA_GRID)
    assert report.all_passed, report.failures


def test_tikhonov_normalization_margin_matches_analytic(op256):
    # sup_s s/(alpha + s^2) = 1/(2 sqrt(alpha)); oracle: dense scan over s
    s_scan = np.geomspace(1e-6, 1.0, 200_001)
    for alpha in (1e-4, 1e-2):
        scanned = np.max(s_scan / (alpha + s_scan**2)) * np.sqrt(alpha)
        assert scanned == pytest.approx(0.5, abs=1e-6)
    report = verify_filter_properties(tikhonov(), op256, ALPHA_GRID)
    assert report.max_normalization_margin < 0.5


def test_cutoff_normalization_margin(op256):
    # s |F(s^2)| = 1/s on {s^2 > alpha}, approaching 1/sqrt(alpha) from below
    report = verify_filter_properties(spectral_cutoff(), op256, ALPHA_GRID)
    assert 0.5 < report.max_normalization_margin < 1.0


def test_corrupted_filter_fails_boundedness(op256):
    bad = Filter(
        kind="custom",
        gamma0=1.0,
        gamma_star=1.0,
        gamma=2.0,
        func=lambda alpha, theta: np.full_like(np.asarray(theta, dtype=float), 2.0 / alpha),
    )
    report = verify_filter_properties(bad, op256, ALPHA_GRID)
    assert not report.all_passed
    assert "bias_bounded" in report.failures


def test_regularize_zero_data(op64):
    for filt in (tikhonov(), spectral_cutoff()):
        sol = regularize_svd(filt, op64, np.zeros(64), 1e-3)
        assert np.all(sol.x_alpha == 0.0)
        assert sol.residual_norm == 0.0


def test_cutoff_below_smallest_singular_value_is_pseudoinverse():
    op = build_integration_operator(Grid(16))
    grid = op.grid
    x = L2Vector.from_cell_values(grid, np.sin(np.pi * grid.midpoints))
    y = apply(op, x)
    alpha = 0.5 * op.s[-1] ** 2
    sol = regularize_svd(spectral_cutoff(), op, y.coeffs, alpha)
    x_plus = generalized_inverse_apply(op, y, op.rank)
    assert np.linalg.norm(sol.x_alpha - x_plus.coeffs) < 1e-13 * x_plus.norm()


def test_tikhonov_single_triple_closed_form():
    grid = Grid(1)
    op = build_integration_operator(Grid(1))  # single triple with s = 1/2
    y = np.array([1.0])  # = u_1
    alpha = 0.3
    sol = regularize_svd(tikhonov(), op, y, alpha)
    s = 0.5
    expected = s / (alpha + s**2) * op.vt[0]
    assert np.allclose(sol.x_alpha, expected, atol=1e-15)


def test_normal_equations_agree_with_svd(op64):
    rng = np.random.default_rng(17)
    y = rng.standard_normal(64)
    alpha = 1e-3
    a = regularize_svd(tikhonov(), op64, y, alpha)
    b = regularize_normal_equations(op64, y, alpha)
    diff = np.linalg.norm(a.x_alpha - b.x_alpha)
    assert diff <= 1e-8 * np.linalg.norm(a.x_alpha)


def test_normal_equations_large_alpha_limit(op64):
    rng = np.random.default_rng(23)
    y = rng.standard_normal(64)
    sol = regularize_normal_equations(op64, y, 1e6)
    approx = op64.matrix.T @ y / 1e6
    assert np.linalg.norm(sol.x_alpha - approx) < 1e-6 * np.linalg.norm(approx)
    smaller = regularize_normal_equations(op64, y, 1e12)
    assert np.linalg.norm(smaller.x_alpha) < np.linalg.norm(sol.x_alpha)


def test_normal_equations_well_conditioned_recovery():
    # n = 8 keeps the spectrum well away from alpha = 1e-12
    op = build_integration_operator(Grid(8))
    x_true = L2Vector.from_cell_values(op.grid, np.sin(np.pi * op.grid.midpoints))
    y = apply(op, x_true)
    sol = regularize_normal_equations(op, y.coeffs, 1e-12)
    assert np.linalg.norm(sol.x_alpha - x_true.coeffs) <= 1e-4 * x_true.norm()
    oracle = regularize_svd(tikhonov(), op, y.coeffs, 1e-12)
    assert np.linalg.norm(sol.x_alpha - oracle.x_alpha) <= 1e-8 * x_true.norm()


def test_linearity(op64):
    rng = np.random.default_rng(3)
    y1, y2 = rng.standard_normal(64), rng.standard_normal(64)
    a, b = 2.5, -1.25
    for filt in (tikhonov(), spectral_cutoff()):
        lhs = regularize_svd(filt, op64, a * y1 + b * y2, 1e-3).x_alpha
        rhs = (
            a * regularize_svd(filt, op64, y1, 1e-3).x_alpha
            + b * regularize_svd(filt, op64, y2, 1e-3).x_alpha
        )
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(rhs), 1.0)


def test_tikhonov_norm_monotone_in_alpha(op64):
    rng = np.random.default_rng(4)
    y = rng.standard_normal(64)
    norms = [
        np.linalg.norm(regularize_svd(tikhonov(), op64, y, a).x_alpha)
        for a in np.logspace(-6, 0, 13)
    ]
    assert np.all(np.diff(norms) <= 1e-12)  # nonincreasing in alpha


def test_convergence_to_pseudoinverse_smooth(op64):
    # a smooth signal without energy at the spectral floor: low singular band
    x = L2Vector(op64.grid, op64.vt[0] + 0.3 * op64.vt[1] + 0.1 * op64.vt[2])
    y = apply(op64, x)
    alpha_seq = np.logspace(-1, -8, 8)
    errors = convergence_to_pseudoinverse(tikhonov(), op64, y.coeffs, alpha_seq)
    assert np.all(np.diff(errors) < 0)
    assert errors[-1] <= 1e-6 * generalized_inverse_apply(op64, y, op64.rank).norm()


def test_convergence_cutoff_hits_zero():
    op = build_integration_operator(Grid(16))
    x = L2Vector.from_cell_values(op.grid, np.cos(np.pi * op.grid.midpoints))
    y = apply(op, x)
    alpha_seq = np.array([1e-1, 1e-2, 0.5 * op.s[-1] ** 2])
    errors = convergence_to_pseudoinverse(spectral_cutoff(), op, y.coeffs, alpha_seq)
    x_plus_norm = generalized_inverse_apply(op, y, op.rank).norm()
    assert errors[-1] <= 1e-13 * x_plus_norm


def test_convergence_zero_data(op64):
    errors = convergence_to_pseudoinverse(tikhonov(), op64, np.zeros(64), [1e-1, 1e-4])
    assert np.all(errors == 0.0)


def test_norm_growth_for_rough_data(op64):
    # finite-dimensional surrogate of divergence off D(T+): data with all its
    # energy on the smallest singular directions makes ||x_alpha|| blow up
    y = op64.u[:, -1]
    norms = [
        np.linalg.norm(regularize_svd(tikhonov(), op64, y, a).x_alpha)
        for a in np.logspace(-2, -10, 9)
    ]
    assert np.all(np.diff(norms) > 0)
    assert norms[-1] > 100 * norms[0]


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()])
def test_variance_bound_monte_carlo(filt, op64):
    alpha = 1e-2
    v_hat = monte_carlo_variance(filt, op64, alpha, replicates=200, seed=31)
    assert v_hat <= variance_bound(filt, op64, alpha)


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()])
def test_monte_carlo_variance_matches_the_replicate_loop(filt, op64):
    # reference: one ||R_alpha xi||^2 per replicate; the batch mean sums the
    # same terms in another order, so they agree to rounding
    alpha, reps, spec = 1e-2, 50, NoiseSpec.gaussian_white(31)
    xis = [draw_noise(spec, op64.grid, rep) for rep in range(reps)]
    loop = sum(float(np.sum(spectral_series(filt, op64, xi, alpha) ** 2)) for xi in xis) / reps
    v_hat = monte_carlo_variance(filt, op64, alpha, replicates=reps, seed=31)
    assert v_hat == pytest.approx(loop, rel=1e-12)
