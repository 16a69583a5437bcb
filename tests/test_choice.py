import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statinv import (
    DiscreteOperator,
    EstimatorConfig,
    ExperimentConfig,
    Grid,
    L2Vector,
    LepskiiConfig,
    LevelData,
    LevelSchedule,
    LevelSolverCache,
    NoiseSpec,
    Observation,
    SourceCondition,
    WhiteNoiseError,
    apply,
    build_holder_kernel_operator,
    build_integration_operator,
    choose,
    data_driven_choose,
    discrepancy_principle,
    embed_vector,
    geometric_grid,
    lepskii_choose,
    n_of,
    observe,
    oracle_choice,
    refine_delta_hat,
    regularize_normal_equations,
    regularize_svd,
    spectral_cutoff,
    spectral_series,
    tikhonov,
)
from statinv.choice import _CHUNK
from statinv.grid import distances
from statinv.harness import METHODS, build_study
from statinv.signals import dirac_direction, make_signal

SCHED = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=1024)


def _white_obs(op, x, delta, seed=7, rep=0):
    return observe(op, x, delta, NoiseSpec.gaussian_white(seed), replicate=rep)


def _noiseless_obs(op, x, delta):
    zero = NoiseSpec.dirac(L2Vector(op.grid, np.zeros(op.n)))
    obs = observe(op, x, 1e-300, zero)
    # relabel with the nominal delta for choice rules that read obs.delta
    return Observation(
        grid=obs.grid, y_exact=obs.y_exact, delta=delta, coeffs=obs.coeffs,
        noise=obs.noise, seed_used=obs.seed_used,
    )


def test_grid_arithmetic_example():
    (m,), (alphas,) = geometric_grid(2.0, 1.0, 0.01)
    assert m == 14  # ceil(2 log2(100)) = ceil(13.29)
    assert alphas.shape == (15,)
    assert alphas[0] == pytest.approx(1e-4, rel=0, abs=0)
    ratios = alphas[1:] / alphas[:-1]
    assert np.allclose(ratios, 2.0, rtol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        LepskiiConfig(q=1.0, C_psi=1.0, max_alpha=1.0)
    with pytest.raises(ValueError):
        LepskiiConfig(q=2.0, C_psi=0.0, max_alpha=1.0)
    with pytest.raises(ValueError, match="delta = 0.0"):
        geometric_grid(2.0, 1.0, 0.0)


def test_grid_respects_alpha_cap(op256):
    (_,), (alphas,) = geometric_grid(2.0, op256.norm**2, 0.05)
    assert alphas[-1] <= 2.0 * op256.norm**2


@pytest.mark.parametrize(
    "delta, max_alpha",
    [
        (1e-170, 1.0), (1e-160, 1.0), (1.4e-154, 1.0), (1e-150, 1e10),
        (1e155, 1.0), (np.inf, 1.0), (np.nan, 1.0), (-0.1, 1.0),
    ],
)
def test_grid_names_a_delta_outside_the_float_range(delta, max_alpha):
    # delta^2 is zero or subnormal, q^m or delta^2 overflows, or delta is no noise level
    with pytest.raises(ValueError, match=re.escape(f"delta = {delta!r} has no alpha grid")):
        geometric_grid(2.0, max_alpha, [0.1, delta])


def test_grid_near_the_least_normal_square_is_finite():
    (m,), (alphas,) = geometric_grid(2.0, 1.0, 1e-153)
    assert alphas[0] == 1e-153**2 and np.all(np.isfinite(alphas)) and alphas[-1] <= 2.0
    assert m == int(np.ceil(2.0 * np.log(1e153) / np.log(2.0)))


def test_oracle_noiseless_prefers_smallest_alpha(op256):
    x = make_signal("smooth", op256.grid)
    obs = _noiseless_obs(op256, x, 1e-6)
    grid = np.logspace(-8, -1, 10)
    result = oracle_choice(op256, x, obs, tikhonov(), grid)
    assert result.alpha[0] == pytest.approx(grid[0])
    assert distances(result.x, x.coeffs)[0] < 1e-3


def test_oracle_pure_noise_prefers_largest_alpha(op256):
    x = L2Vector(op256.grid, np.zeros(256))
    obs = _white_obs(op256, x, delta=1.0)
    grid = np.logspace(-8, 0, 12)
    (alpha,) = oracle_choice(op256, x, obs, tikhonov(), grid).alpha
    assert alpha == pytest.approx(grid[-1])


def test_oracle_single_element_grid(op256):
    x = make_signal("smooth", op256.grid)
    obs = _white_obs(op256, x, 0.05)
    (alpha,) = oracle_choice(op256, x, obs, tikhonov(), [1e-3]).alpha
    assert alpha == 1e-3
    with pytest.raises(ValueError):
        oracle_choice(op256, x, obs, tikhonov(), [])


def _brute_force_oracle(op, x_true, obs, filt, grid):
    """One full solve per grid alpha; the first (smallest) alpha wins ties."""
    best = None
    for a in np.sort(np.asarray(grid, dtype=float)):
        x = regularize_svd(filt, op, obs.coeffs, a).x_alpha
        err = float(np.linalg.norm(x - x_true.coeffs))
        if best is None or err < best[1]:
            best = (float(a), err, x)
    return best


@pytest.fixture(scope="module")
def min_kernel64():
    return build_holder_kernel_operator(Grid(64), np.minimum, holder_s=1.0, volterra=False)


@pytest.fixture(params=["integration256", "min_kernel64"])
def cross_check_op(request, op256, min_kernel64):
    return {"integration256": op256, "min_kernel64": min_kernel64}[request.param]


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()], ids=lambda f: f.kind)
def test_oracle_matches_brute_force_loop(cross_check_op, filt):
    op = cross_check_op
    x = make_signal("smooth", op.grid)
    for delta in (0.1, 0.01, 0.001):
        (grid,) = geometric_grid(2.0, op.norm**2, delta)[1]
        for seed in range(20):
            obs = _white_obs(op, x, delta, seed=seed)
            result = oracle_choice(op, x, obs, filt, grid)
            alpha_ref, err_ref, x_ref = _brute_force_oracle(op, x, obs, filt, grid)
            assert result.alpha.tolist() == [alpha_ref]
            assert np.array_equal(result.x, x_ref[None])
            # the error is the 1-D norm of the winner's solution
            assert distances(result.x, x.coeffs).tolist() == [err_ref]


def test_oracle_ties_go_to_smallest_alpha(op256):
    x = make_signal("smooth", op256.grid)
    obs = _white_obs(op256, x, 0.01, seed=3)
    (grid,) = geometric_grid(2.0, op256.norm**2, 0.01)[1]
    (alpha,) = oracle_choice(op256, x, obs, tikhonov(), grid).alpha
    # a repeated alpha, listed unsorted, changes nothing
    repeated = np.concatenate([grid, [alpha, alpha]])[::-1]
    assert oracle_choice(op256, x, obs, tikhonov(), repeated).alpha.tolist() == [alpha]
    # every cutoff strictly between two squared singular values keeps the
    # same components, so the whole grid ties and the smallest alpha wins
    theta = op256.s[:op256.rank] ** 2
    plateau = np.linspace(theta[11], theta[10], 7)[1:-1]
    (alpha_cut,) = oracle_choice(op256, x, obs, spectral_cutoff(), plateau[::-1]).alpha
    assert alpha_cut == plateau[0]
    assert _brute_force_oracle(op256, x, obs, spectral_cutoff(), plateau)[0] == plateau[0]


def test_discrepancy_rejects_white_noise(op256):
    x = make_signal("smooth", op256.grid)
    obs = _white_obs(op256, x, 0.05)
    with pytest.raises(WhiteNoiseError):
        discrepancy_principle(op256, obs, tikhonov(), 2.0, np.logspace(-6, 0, 10))


def test_discrepancy_huge_delta_keeps_largest_alpha(op256):
    x = make_signal("smooth", op256.grid)
    xi = dirac_direction(op256.grid)
    obs = observe(op256, x, 10.0, NoiseSpec.dirac(xi))
    grid = np.logspace(-6, -1, 8)
    result = discrepancy_principle(op256, obs, tikhonov(), 2.0, grid)
    assert result.satisfied.tolist() == [True]
    assert result.alpha[0] == pytest.approx(grid[-1])


@pytest.mark.parametrize("delta, satisfied", [(10.0, True), (1e-9, False)])
def test_discrepancy_returns_its_solution(op256, delta, satisfied):
    x = make_signal("smooth", op256.grid)
    obs = observe(op256, x, delta, NoiseSpec.dirac(dirac_direction(op256.grid)))
    grid = np.logspace(-6, -1, 8)
    result = discrepancy_principle(op256, obs, tikhonov(), 2.0, grid)
    assert result.satisfied.tolist() == [satisfied]
    sol = regularize_svd(tikhonov(), op256, obs.coeffs, result.alpha[0])
    assert np.array_equal(result.x, sol.x_alpha[None])
    assert result.residual.tolist() == [sol.residual_norm]
    if not satisfied:
        assert result.alpha.tolist() == [grid[0]]


def _brute_force_discrepancy(op, obs, filt, tau, grid):
    """One full solve per grid alpha, downward, until the residual is within tau * delta.

    The scan ``discrepancy_principle`` ran before it read its residuals off
    U^T y; a row that no alpha satisfies keeps its solve at the smallest alpha.
    """
    for a in np.sort(np.asarray(grid, dtype=float))[::-1]:
        sol = regularize_svd(filt, op, obs.coeffs, a)
        if sol.residual_norm <= tau * obs.delta:
            break
    return sol, sol.residual_norm <= tau * obs.delta


@pytest.fixture(scope="module")
def rank_deficient64():
    # every fourth singular value is zero, so the data have a part outside range(U_r)
    d = np.linspace(1.0, 0.01, 64)
    d[::4] = 0.0
    return DiscreteOperator(Grid(64), np.diag(d))


@pytest.fixture(params=["integration256", "min_kernel64", "rank_deficient64"])
def discrepancy_op(request, op256, min_kernel64, rank_deficient64):
    ops = {"integration256": op256, "min_kernel64": min_kernel64, "rank_deficient64": rank_deficient64}
    return ops[request.param]


@pytest.mark.parametrize("filt", [tikhonov(), spectral_cutoff()], ids=lambda f: f.kind)
@pytest.mark.parametrize("kind", ["dirac", "scaled_rv"])
@pytest.mark.parametrize(
    "tau, top, satisfied",
    [
        (2.0, None, True),  # the smallest alpha's residual is below delta: every row qualifies
        (1.05, 3, False),  # the three largest alphas only: rows fall back to the smallest of them
    ],
    ids=["satisfied", "fallback"],
)
def test_discrepancy_matches_brute_force_loop(discrepancy_op, tau, top, satisfied, kind, filt):
    op = discrepancy_op
    x = make_signal("smooth", op.grid)
    direction = dirac_direction(op.grid)
    verdicts = set()
    for delta in (0.1, 0.01, 0.001):
        (grid,) = geometric_grid(2.0, op.norm**2, delta)[1]
        grid = grid[-top:] if top else grid
        for seed in range(20):
            spec = getattr(NoiseSpec, kind)(direction, seed=seed)
            obs = observe(op, x, delta, spec)
            result = discrepancy_principle(op, obs, filt, tau, grid)
            ref, ok = _brute_force_discrepancy(op, obs, filt, tau, grid)
            got = (result.alpha.tolist(), result.satisfied.tolist(), result.residual.tolist())
            assert got == ([ref.alpha], [ok], [ref.residual_norm])
            assert np.array_equal(result.x, ref.x_alpha[None])
            verdicts.add(ok)
    assert satisfied in verdicts


def test_discrepancy_noiseless_is_above_oracle(op256):
    x = make_signal("smooth", op256.grid)
    obs = _noiseless_obs(op256, x, 1e-3)
    grid = np.logspace(-8, -1, 20)
    result = discrepancy_principle(op256, obs, tikhonov(), 2.0, grid)
    assert result.satisfied.tolist() == [True]
    (alpha_oracle,) = oracle_choice(op256, x, obs, tikhonov(), grid).alpha
    assert result.alpha[0] >= alpha_oracle
    # oracle cross-check: the residual is nondecreasing in alpha on the grid
    from statinv import regularize_svd

    residuals = [regularize_svd(tikhonov(), op256, obs.coeffs, a).residual_norm for a in grid]
    assert np.all(np.diff(residuals) >= -1e-12)


def test_lepskii_zero_data_accepts_everything(op256):
    obs = _noiseless_obs(op256, L2Vector(op256.grid, np.zeros(256)), 0.01)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op256.norm**2)
    result = lepskii_choose(op256, LevelData(obs), cfg, SCHED)
    (m,), _ = geometric_grid(2.0, op256.norm**2, 0.01)
    assert result.j_star.tolist() == result.m.tolist() == [m]
    assert result.kappa.tolist() == [np.sqrt(m)]
    assert np.flatnonzero(result.accepted[0]).tolist() == list(range(1, m + 1))


def test_lepskii_noiseless_picks_interior_index(op1024):
    x = make_signal("source", op1024.grid, op=op1024, nu=1.0, amplitude=10.0)
    obs = _noiseless_obs(op1024, x, 1e-6)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op1024.norm**2)
    result = lepskii_choose(op1024, LevelData(obs), cfg, SCHED)
    assert result.j_star[0] >= 1


def test_lepskii_diagnostics(op1024):
    x = make_signal("source", op1024.grid, op=op1024, nu=1.0, amplitude=10.0)
    obs = _white_obs(op1024, x, 0.02, seed=3)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op1024.norm**2)
    source = SourceCondition.holder(nu=1.0, radius=10.0)
    result = lepskii_choose(op1024, LevelData(obs), cfg, SCHED, source=source)
    (j_star,) = result.j_star
    (m,), (alphas,) = geometric_grid(2.0, op1024.norm**2, 0.02)
    assert result.psi.shape == result.alphas.shape == result.candidate_levels.shape == (1, m + 1)
    assert np.all(np.diff(result.psi[0]) < 0)  # Psi decreasing in j
    # the accepted set is a down-set: 1..j*
    assert np.flatnonzero(result.accepted[0]).tolist() == list(range(1, j_star + 1))
    assert result.alpha_star[0] == pytest.approx(alphas[j_star])
    assert np.all(np.diff(result.levels) <= 0)  # levels nonincreasing in alpha
    assert result.j_check is not None and 0 <= result.j_check[0] <= result.m[0]
    assert "phi_not_increasing" not in result.flags


def test_lepskii_degenerate_flag(op256):
    # a vanishing band constant rejects every candidate
    x = make_signal("smooth", op256.grid)
    obs = _white_obs(op256, x, 0.05, seed=5)
    cfg = LepskiiConfig(q=2.0, C_psi=1e-12, max_alpha=op256.norm**2)
    result = lepskii_choose(op256, LevelData(obs), cfg, SCHED)
    assert result.j_star.tolist() == [0]
    assert "lepskii_degenerate" in result.row_flags[0]
    assert result.alpha_star[0] == pytest.approx(0.05**2)


def test_lepskii_delta_inputs_are_one_positive_value_per_row(op64):
    x = make_signal("smooth", op64.grid)
    data = LevelData(observe(op64, x, 0.05, NoiseSpec.gaussian_white(3), replicate=[0, 1]))
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op64.norm**2)
    sched = LevelSchedule(c2=0.0, n_max=64)
    for bad in ([0.05], [0.05, 0.05, 0.05], [[0.05, 0.05]], [0.05, 0.0], [0.05, np.inf], 0.0, -0.05, np.nan):
        with pytest.raises(ValueError):
            lepskii_choose(op64, data, cfg, sched, delta=np.array(bad))
    # an omitted delta is the data's own, and equal inputs give the shared-input result
    assert data.fine.delta == 0.05
    shared = lepskii_choose(op64, data, cfg, sched)
    for given_delta in (0.05, np.array([0.05, 0.05])):
        again = lepskii_choose(op64, data, cfg, sched, delta=given_delta)
        for name in ("j_star", "alpha_star", "m", "kappa", "alphas", "psi", "candidate_levels", "pairs", "x_star"):
            assert np.array_equal(getattr(shared, name), getattr(again, name), equal_nan=True), name
        assert shared.row_flags == again.row_flags


def _flat_phi(t):
    # increasing at SourceCondition's probe points, flat on [4e-3, 5e-2]
    return min(t, 4e-3) + max(t - 0.05, 0.0)


@pytest.mark.parametrize(
    "source",
    [SourceCondition.holder(nu=1.0, radius=100.0), SourceCondition(phi=_flat_phi, radius=1.0)],
    ids=["holder", "flat"],
)
def test_lepskii_source_diagnostic_rows_equal_each_row_alone(op256, source):
    x = make_signal("source", op256.grid, op=op256, nu=1.0, amplitude=10.0)
    batch = observe(op256, x, 0.02, NoiseSpec.gaussian_white(3), replicate=[0, 1, 2, 3])
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op256.norm**2)
    sched = replace(SCHED, n_max=256)
    deltas = np.array([0.1, 0.02, 1e-3, 0.3])
    result = lepskii_choose(op256, LevelData(batch), cfg, sched, source=source, delta=deltas)
    assert len(set(result.m.tolist())) == 4
    for i, delta in enumerate(deltas.tolist()):
        alone = lepskii_choose(op256, LevelData(batch.row(i)), cfg, sched, source=source, delta=delta)
        assert (result.j_check[i], result.alpha_check[i]) == (alone.j_check[0], alone.alpha_check[0])
        assert result.row_flags[i] == alone.row_flags[0]
        # the diagnostic's definition, one candidate at a time
        m = result.m[i]
        phi = [source.radius * source.phi(a) for a in result.alphas[i, : m + 1]]
        feasible = [j for j in range(m + 1) if phi[j] <= delta * result.psi[i, j]]
        assert result.j_check[i] == max(feasible, default=0)
        assert result.alpha_check[i] == result.alphas[i, result.j_check[i]]
        assert ("side_condition_violated" in result.row_flags[i]) == (phi[0] > delta * result.psi[i, 0])
        assert ("phi_not_increasing" in result.row_flags[i]) == any(b <= a for a, b in zip(phi, phi[1:]))
    flags = result.flags
    expected = "side_condition_violated" if source.kind == "holder" else "phi_not_increasing"
    assert 0 < flags.count(expected) < 4


def _candidate(result, i, j):
    """Candidate j of row i on its own level, read off the result's level blocks."""
    for level, ii, jj, x in result.blocks:
        hit = np.flatnonzero((ii == i) & (jj == j))
        if hit.size:
            return x[hit[0]]
    raise KeyError((i, j))


def test_lepskii_candidates_match_normal_equations(op256):
    # the cached per-level solver is the same normal-equation operator
    x = make_signal("smooth", op256.grid)
    obs = _white_obs(op256, x, 0.05, seed=13)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op256.norm**2)
    cache = LevelSolverCache(op256)
    result = lepskii_choose(op256, LevelData(obs), cfg, SCHED, cache=cache)
    from statinv.discretization import nested_level, project

    (m,), (alphas,) = geometric_grid(2.0, op256.norm**2, 0.05)
    j = m // 2
    alpha = alphas[j]
    level = nested_level(n_of(alpha, 0.05, SCHED), obs.n)
    assert result.candidate_levels[0, j] == level
    obs_j = project(obs, level)
    direct = regularize_normal_equations(cache.operator(level), obs_j.coeffs, alpha)
    assert np.linalg.norm(direct.x_alpha - _candidate(result, 0, j)) < 1e-10


def test_data_driven_reduces_to_lepskii(op1024):
    x = make_signal("source", op1024.grid, op=op1024, nu=1.0, amplitude=10.0)
    obs = _white_obs(op1024, x, 0.05, seed=21)
    data = LevelData(obs)
    est_cfg = EstimatorConfig()
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op1024.norm**2)
    cache = LevelSolverCache(op1024)
    (estimate,), lep = data_driven_choose(op1024, data, est_cfg, cfg, SCHED, cache=cache)
    # feeding the produced estimate back through the balancing rule gives
    # the identical choice: the pipeline is exactly estimate-then-balance
    again = lepskii_choose(op1024, LevelData(obs), cfg, SCHED, cache=cache, delta=estimate.delta_hat)
    assert again.j_star.tolist() == lep.j_star.tolist()
    assert np.array_equal(again.x_star, lep.x_star)


def test_data_driven_flags_nonconverged_estimator(op64):
    x = make_signal("smooth", op64.grid)
    obs = _noiseless_obs(op64, x, 1e-6)
    est_cfg = EstimatorConfig(n0=16)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=64)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op64.norm**2)
    (estimate,), lep = data_driven_choose(op64, LevelData(obs), est_cfg, cfg, sched)
    assert not estimate.converged
    assert "estimator_not_converged" in lep.row_flags[0]
    assert lep.x_star.shape == (1, op64.n)


def test_data_driven_error_close_to_known_delta(op1024):
    # end-to-end seeded run: data-driven error within 5x of the known-delta
    # error on the same realization
    delta = 0.05
    x = make_signal("source", op1024.grid, op=op1024, nu=1.0, amplitude=10.0)
    obs = _white_obs(op1024, x, delta, seed=29)
    cache = LevelSolverCache(op1024)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op1024.norm**2)
    known = lepskii_choose(op1024, LevelData(obs), cfg, SCHED, cache=cache)
    err_known = np.linalg.norm(known.x_star[0] - x.coeffs)
    _, estimated = data_driven_choose(op1024, LevelData(obs), EstimatorConfig(), cfg, SCHED, cache=cache)
    err_dd = np.linalg.norm(estimated.x_star[0] - x.coeffs)
    assert err_dd <= 5.0 * err_known


def test_refine_then_choose_uses_estimate(op1024):
    # sanity: the estimate the pipeline reports is the refine_delta_hat output
    x = make_signal("smooth", op1024.grid)
    obs = _white_obs(op1024, x, 0.05, seed=33)
    data = LevelData(obs)
    est_cfg = EstimatorConfig()
    direct = refine_delta_hat(op1024, data, est_cfg, SCHED)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op1024.norm**2)
    (estimate,), _ = data_driven_choose(op1024, data, est_cfg, cfg, SCHED)
    assert estimate == direct


def test_data_driven_estimates_equal_each_row_refined_alone(op64):
    x = make_signal("source", op64.grid, op=op64, nu=1.0, amplitude=10.0)
    spec = NoiseSpec.gaussian_white(17)
    y = apply(op64, x)
    batch = observe(op64, x, 0.05, spec, replicate=[0, 1, 2], y_exact=y)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=1.0, n_max=64)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op64.norm**2)
    estimates, _ = data_driven_choose(op64, LevelData(batch), EstimatorConfig(), cfg, sched)
    assert len(estimates) == 3
    for i, estimate in enumerate(estimates):
        alone = refine_delta_hat(op64, LevelData(batch.row(i)), EstimatorConfig(), sched)
        assert estimate == alone


def _scalar_lepskii(op, obs, cfg, delta, sched):
    """The balancing rule on one realization at noise level ``delta``, one
    candidate and one pair at a time.

    Every candidate is embedded in the fine grid and each pair is checked by
    its own 1-D norm, stopping at the first failing k.  Returns
    ``(j_star, accepted, pairs_checked, x_star)``.
    """
    data, cache = LevelData(obs), LevelSolverCache(op)
    (m,), (alphas,) = geometric_grid(cfg.q, cfg.max_alpha, delta)
    solutions, psi = [], []
    for a in alphas:
        obs_j = data(n_of(a, delta, sched))
        x_j = spectral_series(tikhonov(), cache.operator(obs_j.n), obs_j.coeffs, a)
        solutions.append(embed_vector(L2Vector(obs_j.grid, x_j), op.grid).coeffs)
        psi.append(cfg.C_psi * np.sqrt(obs_j.n / (4.0 * a)))
    band = 4.0 * float(np.sqrt(m)) * delta * np.array(psi)
    accepted, pairs = [], 0
    for j in range(1, m + 1):
        ok = True
        for k in range(j):
            pairs += 1
            if np.linalg.norm(solutions[k] - solutions[j]) > band[k]:
                ok = False
                break
        if ok:
            accepted.append(j)
    j_star = max(accepted) if accepted else 0
    return j_star, accepted, pairs, solutions[j_star]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kind", ["gaussian_white", "dirac"])
@pytest.mark.parametrize("delta", [0.05, 0.01])
def test_batched_lepskii_matches_the_scalar_rule(n, kind, delta):
    op = build_integration_operator(Grid(n))
    x = make_signal("source", op.grid, op=op, nu=1.0, amplitude=10.0)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=n)
    spec = NoiseSpec.gaussian_white(11) if kind == "gaussian_white" else NoiseSpec.dirac(dirac_direction(op.grid))
    y = apply(op, x)
    batch = observe(op, x, delta, spec, replicate=list(range(6)), y_exact=y)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op.norm**2)
    known = lepskii_choose(op, LevelData(batch), cfg, sched)
    estimates, estimated = data_driven_choose(op, LevelData(batch), EstimatorConfig(), cfg, sched)
    total = 0
    for i in range(batch.rows):
        single = batch.row(i)
        for result, row_delta in [(known, delta), (estimated, estimates[i].delta_hat)]:
            j_star, accepted, pairs, x_star = _scalar_lepskii(op, single, cfg, row_delta, sched)
            assert result.j_star[i] == j_star
            assert np.flatnonzero(result.accepted[i]).tolist() == accepted
            assert result.pairs[i] == pairs
            assert np.array_equal(result.x_star[i], x_star)
            total += pairs
    assert known.accepted_pairs_checked + estimated.accepted_pairs_checked == total


SMALL = ExperimentConfig(
    operator_n=64,
    signal_kind="source",
    signal_amplitude=10.0,
    delta_list=(0.1, 0.02),
    replicates=4,
    seed=5,
    study="veto",
    method="lepskii_estimated_delta",
    schedule=LevelSchedule(c2=0.0, n_max=64),
)
SMALL_STUDY = build_study(SMALL)
# the discrepancy principle needs noise of bounded norm: a random sign per row
SIGN_STUDY = build_study(replace(SMALL, noise_kind="scaled_rv", method="discrepancy", study="mse"))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.integers(0, 1), st.lists(st.integers(0, 40), min_size=1, max_size=6))
def test_batch_rows_equal_single_realizations(di, reps):
    # a row's choice does not depend on the size or the other rows of its batch
    for method in METHODS:
        study = SIGN_STUDY if method == "discrepancy" else SMALL_STUDY
        batch = choose(study, method, study.batch(di, reps))
        assert batch.x.shape == (len(reps), study.op.n) and len(batch.flags) == len(reps)
        for i, rep in enumerate(reps):
            alone = choose(study, method, study.batch(di, [rep]))
            assert batch.flags[i] == alone.flags[0]
            # x, alpha, j_star, m, delta_hat, residual, satisfied, best_error
            for name in ("x", "alpha", "j_star", "m", "delta_hat", "residual", "satisfied", "best_error"):
                got, one = getattr(batch, name), getattr(alone, name)
                assert (got is None) == (one is None), name
                if got is not None:
                    assert one.shape == (1,) + got.shape[1:], name
                    assert np.array_equal(got[i], one[0]), name


OP1024 = build_integration_operator(Grid(1024))
BLOCK = _CHUNK // 1024  # rows of one block at n = 1024
# At delta = 0.01 the smooth signal's residuals at these alphas are about 2.16, 4.7
# and 9.4 delta, and 2.13 delta at the smallest alpha under the other noise sign.
BOUNDARY_GRID = np.geomspace(1e-6, 1e-1, 12)[9:]


def _rows(op, x, delta, spec, reps):
    singles = [observe(op, x, delta, spec, replicate=rep) for rep in range(reps)]
    return observe(op, x, delta, spec, replicate=list(range(reps))), singles


def test_oracle_rows_across_a_block_boundary_equal_single_rows():
    assert BLOCK == 64
    x = make_signal("smooth", OP1024.grid)
    batch, singles = _rows(OP1024, x, 0.01, NoiseSpec.gaussian_white(3), BLOCK + 3)
    grid = np.geomspace(1e-7, 1e-1, 13)
    picks = oracle_choice(OP1024, x, batch, tikhonov(), grid)
    errors = distances(picks.x, x.coeffs)
    assert picks.alpha.shape == errors.shape == (BLOCK + 3,)
    for i, obs in enumerate(singles):
        alone = oracle_choice(OP1024, x, obs, tikhonov(), grid)
        assert (picks.alpha[i], errors[i]) == (alone.alpha[0], distances(alone.x, x.coeffs)[0])
        assert np.array_equal(picks.x[i], alone.x[0])


@pytest.mark.parametrize(
    "kind, tau, outcomes",
    [
        ("dirac", 5.0, {(True, 1)}),  # every row qualifies above the smallest alpha
        ("dirac", 2.15, {(False, 0)}),  # every row falls back to the smallest alpha
        ("scaled_rv", 2.15, {(True, 0), (False, 0)}),  # one sign qualifies, the other falls back
    ],
)
def test_discrepancy_rows_across_a_block_boundary_equal_single_rows(kind, tau, outcomes):
    x = make_signal("smooth", OP1024.grid)
    direction = dirac_direction(OP1024.grid)
    spec = NoiseSpec.dirac(direction, seed=3) if kind == "dirac" else NoiseSpec.scaled_rv(direction, seed=3)
    batch, singles = _rows(OP1024, x, 0.01, spec, BLOCK + 3)
    results = discrepancy_principle(OP1024, batch, tikhonov(), tau, BOUNDARY_GRID)
    assert results.alpha.shape == results.satisfied.shape == results.residual.shape == (BLOCK + 3,)
    # (satisfied, index of the chosen alpha in the grid)
    chosen = zip(results.satisfied.tolist(), np.searchsorted(BOUNDARY_GRID, results.alpha).tolist())
    assert set(chosen) == outcomes
    assert np.array_equal(BOUNDARY_GRID[np.searchsorted(BOUNDARY_GRID, results.alpha)], results.alpha)
    for i, obs in enumerate(singles):
        alone = discrepancy_principle(OP1024, obs, tikhonov(), tau, BOUNDARY_GRID)
        assert np.array_equal(results.x[i], alone.x[0])
        got = (results.alpha[i], results.satisfied[i], results.residual[i])
        assert got == (alone.alpha[0], alone.satisfied[0], alone.residual[0])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_and_discrepancy_work_in_bounded_row_blocks():
    # beyond the R x n solutions they return, the rules hold one block of rows
    op = build_integration_operator(Grid(4096))
    x = make_signal("smooth", op.grid)
    grid = np.geomspace(1e-7, 1e-1, 13)
    rules = {
        "oracle": (
            NoiseSpec.gaussian_white(3),
            lambda obs: oracle_choice(op, x, obs, tikhonov(), grid),
        ),
        "discrepancy": (
            NoiseSpec.dirac(dirac_direction(op.grid), seed=3),
            lambda obs: discrepancy_principle(op, obs, tikhonov(), 2.0, grid),
        ),
    }
    for name, (spec, rule) in rules.items():
        rest = {}
        for reps in (64, 512):
            batch, _ = _rows(op, x, 0.01, spec, reps)
            rest[reps] = _traced_peak(lambda: rule(batch)) - reps * op.n * 8
        assert max(rest.values()) < 8 * 2**20, (name, rest)
        assert rest[512] <= rest[64] + 2**20, (name, rest)  # only the (R,) arrays grow


def test_batch_counts_read_by_the_benchmark_come_from_the_row_arrays():
    # The traced benchmark reads len(levels), accepted_pairs_checked and flags
    # of each Lepskii result, and data_driven_choose(...)[1].flags: each must
    # be the count over the rows.  Row 0 is constant (delta_hat = 0, floored)
    # and row 1 exact data, so the estimator flags of both kinds show up.
    op = build_integration_operator(Grid(64))
    x = make_signal("source", op.grid, op=op, nu=1.0, amplitude=10.0)
    noisy = observe(op, x, 0.05, NoiseSpec.gaussian_white(5), replicate=[0, 1, 2])
    batch = Observation(
        grid=op.grid, y_exact=noisy.y_exact, delta=0.05,
        coeffs=np.vstack([np.zeros(op.n), noisy.y_exact.coeffs, noisy.coeffs]),
        noise=noisy.noise, seed_used=(0, 0) + noisy.seed_used,
    )
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=64)
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op.norm**2)
    known = lepskii_choose(op, LevelData(batch), cfg, sched)
    estimates, estimated = data_driven_choose(op, LevelData(batch), EstimatorConfig(), cfg, sched)
    for result in (known, estimated):
        valid = np.arange(result.alphas.shape[1]) <= result.m[:, None]
        assert len(result.levels) == int(np.sum(result.m + 1)) == np.count_nonzero(valid)
        assert result.levels == result.candidate_levels[valid].tolist()
        assert np.all(np.isnan(result.alphas[~valid])) and np.all(result.candidate_levels[~valid] == 0)
        assert result.accepted_pairs_checked == int(result.pairs.sum())
        assert result.flags == [flag for flags in result.row_flags for flag in flags]
    assert len({m for m in estimated.m.tolist()}) > 1  # rows of different ladders
    flags = data_driven_choose(op, LevelData(batch), EstimatorConfig(), cfg, sched)[1].flags
    assert flags == estimated.flags
    assert estimated.row_flags[0][-2:] == ["estimator_not_converged", "delta_hat_floor"]
    assert "estimator_not_converged" in estimated.row_flags[1]
    assert flags.count("estimator_not_converged") == sum(not e.converged for e in estimates) >= 2
    assert flags.count("delta_hat_floor") == sum(e.delta_hat <= 0.0 for e in estimates) == 1


@pytest.mark.parametrize("method", METHODS)
def test_choose_builds_no_l2vector_per_row(monkeypatch, method):
    # a rule's result is one record of arrays, whatever the number of rows
    study = SIGN_STUDY if method == "discrepancy" else SMALL_STUDY
    batches = {reps: study.batch(0, range(reps)) for reps in (5, 50)}
    built = []
    real_init = L2Vector.__init__

    def counting_init(self, grid, coeffs):
        built.append(grid.n_cells)
        real_init(self, grid, coeffs)

    monkeypatch.setattr(L2Vector, "__init__", counting_init)
    counts = {}
    for reps, data in batches.items():
        built.clear()
        choice = choose(study, method, data)
        assert choice.x.shape == (reps, study.op.n)
        counts[reps] = len(built)
    assert counts[5] == counts[50], counts


def test_rules_reject_non_finite_solutions(op64):
    # one finiteness check per batch: a single bad row fails the whole call
    y = np.zeros((3, 64))
    y[1, 5] = np.inf
    zero = L2Vector(op64.grid, np.zeros(64))
    obs = Observation(
        grid=op64.grid, y_exact=zero, delta=0.05, coeffs=y, noise=NoiseSpec.dirac(zero), seed_used=(0, 1, 2)
    )
    cfg = LepskiiConfig(q=2.0, C_psi=1.0, max_alpha=op64.norm**2)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=0.0, n_max=64)
    calls = {
        "regularize_svd batch": lambda: regularize_svd(tikhonov(), op64, y, 1e-3),
        "regularize_svd vector": lambda: regularize_svd(tikhonov(), op64, y[1], 1e-3),
        "oracle": lambda: oracle_choice(op64, zero, obs, tikhonov(), [1e-3, 1e-2]),
        "discrepancy": lambda: discrepancy_principle(op64, obs, tikhonov(), 2.0, [1e-3, 1e-2]),
        "lepskii": lambda: lepskii_choose(op64, LevelData(obs), cfg, sched),
    }
    with np.errstate(invalid="ignore", over="ignore"):
        for call in calls.values():
            with pytest.raises(ValueError, match="finite"):
                call()
