"""Property tests of the nested projections, the level schedule, the
operator's singular system, the filter laws, the noise-level estimator and
its refinement, the balancing ladder and the noise streams, run with fixed
examples."""

import logging
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from statinv import (
    DataUnavailableError,
    DiscreteOperator,
    EstimatorConfig,
    Grid,
    L2Vector,
    LepskiiConfig,
    LevelData,
    NoiseEstimate,
    NoiseSpec,
    Observation,
    RegularizedSolution,
    apply,
    build_holder_kernel_operator,
    build_integration_operator,
    discrepancy_principle,
    draw_noise,
    embed_vector,
    estimate_delta_sq,
    geometric_grid,
    lepskii_choose,
    n_of,
    nested_level,
    observe,
    project,
    project_operator,
    project_vector,
    refine_delta_hat,
    regularize_svd,
    spectral_cutoff,
    spectral_series,
    tikhonov,
    verify_filter_properties,
)
from statinv.discretization import LevelSchedule
from statinv.noise import generator_for, stream_key
from statinv.operators import _TRANSFORM_MIN_N
from statinv.signals import make_signal

# derandomized: the same examples on every run, so the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)
FINE_SIZES = (64, 96, 100, 256)
OPERATORS = {n: build_integration_operator(Grid(n)) for n in FINE_SIZES}
SPECTRAL = {
    "integration16": build_integration_operator(Grid(16)),
    "integration64": OPERATORS[64],
    "integration256": OPERATORS[256],
    "min_kernel64": build_holder_kernel_operator(Grid(64), np.minimum, holder_s=1.0, volterra=False),
}
# operators whose uty / vtx / v are dense products of their factors: min_kernel,
# integration below the transform size, and an odd integration level above it
DENSE = {
    "min_kernel64": SPECTRAL["min_kernel64"],
    "integration2": build_integration_operator(Grid(2)),
    "integration16": SPECTRAL["integration16"],
    "integration64": OPERATORS[64],
    "integration509": project_operator(build_integration_operator(Grid(1018)), 509),
}
# integration operators whose uty / vtx / v are DST-IV / DCT-IV transforms
TRANSFORM = {n: build_integration_operator(Grid(n)) for n in (_TRANSFORM_MIN_N, 512, 2048)}


@PROPERTY
@given(st.sampled_from(FINE_SIZES), st.data(), st.integers(0, 2**31))
def test_level_data_equals_direct_projection(n, data, seed):
    op = OPERATORS[n]
    obs = observe(op, make_signal("smooth", op.grid), 0.05, NoiseSpec.gaussian_white(seed))
    k = data.draw(st.integers(1, n))
    level = LevelData(obs)(k)
    direct = project(obs, nested_level(k, n))
    assert level.n == direct.n
    assert np.array_equal(level.coeffs, direct.coeffs)
    assert np.array_equal(level.y_exact.coeffs, direct.y_exact.coeffs)


@PROPERTY
@given(st.integers(1, 64), st.integers(1, 16), st.integers(0, 2**31))
def test_project_inverts_embed_and_is_its_adjoint(n_coarse, block, seed):
    rng = np.random.default_rng(seed)
    fine = Grid(n_coarse * block)
    coarse = L2Vector(Grid(n_coarse), rng.standard_normal(n_coarse))
    other = L2Vector(fine, rng.standard_normal(fine.n_cells))
    back = project_vector(embed_vector(coarse, fine), n_coarse)
    np.testing.assert_allclose(back.coeffs, coarse.coeffs, rtol=1e-13, atol=1e-14)
    # <P u, v> on the coarse grid equals <u, E v> on the fine grid
    lhs = project_vector(other, n_coarse).coeffs @ coarse.coeffs
    rhs = other.coeffs @ embed_vector(coarse, fine).coeffs
    scale = np.linalg.norm(other.coeffs) * np.linalg.norm(coarse.coeffs)
    assert abs(lhs - rhs) <= 1e-13 * scale


@PROPERTY
@given(st.sampled_from(sorted(DENSE)), st.integers(1, 6), st.data(), st.integers(0, 2**31))
def test_singular_system_rows_equal_the_dense_products(name, rows, data, seed):
    op = DENSE[name]
    r = op.rank
    k = data.draw(st.integers(1, r))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((rows, op.n))
    w = rng.standard_normal((rows, k))
    uty, vtx, vw = op.uty(y), op.vtx(y), op.v(w)
    for i in range(rows):
        assert np.array_equal(uty[i], op.u[:, :r].T @ y[i])
        assert np.array_equal(vtx[i], op.vt[:r] @ y[i])
        assert np.array_equal(vw[i], op.vt[:k].T @ w[i])


@PROPERTY
@given(st.sampled_from(sorted(TRANSFORM)), st.integers(1, 6), st.data(), st.integers(0, 2**31))
def test_transform_rows_are_bit_equal_and_match_the_dense_factors(n, rows, data, seed):
    op = TRANSFORM[n]
    assert op.rank == n
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((rows, n))
    w = rng.standard_normal((rows, k))
    products = {
        "uty": (op.uty, y, lambda row: op.u.T @ row),
        "vtx": (op.vtx, y, lambda row: op.vt @ row),
        "v": (op.v, w, lambda row: op.vt[:k].T @ row),
    }
    for name, (product, batch, dense) in products.items():
        out = product(batch)
        for i in range(rows):
            # a batch row, a one-row batch and the bare row give the same bits
            assert np.array_equal(product(batch[i]), out[i]), name
            assert np.array_equal(product(batch[i : i + 1])[0], out[i]), name
            expected = dense(batch[i])
            assert np.linalg.norm(out[i] - expected) <= 1e-12 * np.linalg.norm(expected), name


@PROPERTY
@given(
    st.sampled_from(sorted(SPECTRAL)),
    st.sampled_from([tikhonov(), spectral_cutoff()]),
    st.integers(1, 6),
    st.floats(1e-8, 1.0),
    st.integers(0, 2**31),
)
def test_spectral_series_batch_rows_equal_single_rows(name, filt, rows, alpha, seed):
    op = SPECTRAL[name]
    y = np.random.default_rng(seed).standard_normal((rows, op.n))
    batch = spectral_series(filt, op, y, alpha)
    assert batch.shape == (rows, op.n)
    for i in range(rows):
        assert np.array_equal(batch[i], spectral_series(filt, op, y[i], alpha))


# batched solves: a dense level, a transform level and a dense non-integration operator
SOLVES = {"integration64": OPERATORS[64], "integration512": TRANSFORM[512], "min_kernel64": DENSE["min_kernel64"]}


@PROPERTY
@given(
    st.sampled_from(sorted(SOLVES)),
    st.sampled_from([tikhonov(), spectral_cutoff()]),
    st.integers(1, 6),
    st.booleans(),
    st.data(),
    st.integers(0, 2**31),
)
def test_batched_regularize_svd_rows_equal_single_solves(name, filt, rows, per_row, data, seed):
    op = SOLVES[name]
    y = np.random.default_rng(seed).standard_normal((rows, op.n))
    alphas = st.floats(1e-8, 1.0)
    if per_row:
        alpha = np.array(data.draw(st.lists(alphas, min_size=rows, max_size=rows)))
    else:
        alpha = data.draw(alphas)
    batch = regularize_svd(filt, op, y, alpha)
    # one record whose fields have the row shape of y
    assert batch.x_alpha.shape == y.shape
    assert batch.alpha.shape == batch.residual_norm.shape == (rows,)
    for i in range(rows):
        a = alpha[i] if per_row else alpha
        alone = regularize_svd(filt, op, y[i], a)
        assert isinstance(alone, RegularizedSolution)
        assert alone.x_alpha.shape == (op.n,) and np.ndim(alone.alpha) == np.ndim(alone.residual_norm) == 0
        assert np.array_equal(batch.x_alpha[i], alone.x_alpha)
        assert batch.alpha[i] == alone.alpha == a
        assert batch.residual_norm[i] == alone.residual_norm
        # a vector keeps the bits of its 1-D series and of the 1-D norm of its residual
        assert np.array_equal(alone.x_alpha, spectral_series(filt, op, y[i], a))
        assert alone.residual_norm == np.linalg.norm(apply(op, alone.x_alpha) - y[i])


@PROPERTY
@given(
    st.sampled_from(sorted(SOLVES)),
    st.sampled_from([tikhonov(), spectral_cutoff()]),
    st.integers(0, 6),
    st.floats(1e-8, 1.0),
    st.integers(0, 2**31),
)
def test_solves_from_a_given_uty_equal_the_plain_solves(name, filt, rows, alpha, seed):
    # rows = 0 draws one data vector (n,), otherwise a batch (rows, n)
    op = SOLVES[name]
    y = np.random.default_rng(seed).standard_normal((rows, op.n) if rows else op.n)
    alphas = np.full(rows, alpha) if rows else alpha
    c = op.uty(y)
    plain, given_c = regularize_svd(filt, op, y, alphas), regularize_svd(filt, op, y, alphas, uty=c)
    assert np.array_equal(given_c.x_alpha, plain.x_alpha)
    assert np.array_equal(given_c.residual_norm, plain.residual_norm)
    assert np.array_equal(given_c.alpha, plain.alpha)
    column = alphas[:, None] if rows else alpha
    assert np.array_equal(spectral_series(filt, op, y, column, uty=c), spectral_series(filt, op, y, column))
    with pytest.raises(ValueError, match="U_r"):
        spectral_series(filt, op, y, column, uty=c[..., :-1])


# every fourth singular value is zero, so data have a part outside range(U_r)
_DEFICIENT = np.linspace(1.0, 0.01, 64)
_DEFICIENT[::4] = 0.0
RESIDUALS = {**SOLVES, "rank_deficient64": DiscreteOperator(Grid(64), np.diag(_DEFICIENT))}


def _discrepancy_verdict(op, filt, y, alpha, threshold):
    """Whether the discrepancy principle's residual table puts ``y`` at ``alpha`` within ``threshold``."""
    xi = L2Vector(op.grid, y)
    obs = Observation(
        grid=op.grid, y_exact=xi, delta=threshold / 2.0, coeffs=y, noise=NoiseSpec.dirac(xi), seed_used=0
    )
    (satisfied,) = discrepancy_principle(op, obs, filt, 2.0, [alpha]).satisfied
    return satisfied


@PROPERTY
@given(
    st.sampled_from(sorted(RESIDUALS)),
    st.sampled_from([tikhonov(), spectral_cutoff()]),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-1, 1e-2, 1e-3]),
    st.integers(0, 2**31),
)
def test_spectral_residual_matches_the_applied_residual(name, filt, position, delta, seed):
    # The discrepancy principle reads ||T x_alpha - y|| off U^T y.  It must
    # call y satisfied at the applied residual plus the tolerance and not at
    # the residual minus it: the two residuals agree to 1e-13 ||y|| absolute.
    # A relative bound cannot hold where the residual is near 0.  alpha runs
    # over the rule's grid range [delta^2, ||T||^2]: below it ||x_alpha||
    # grows like delta / sqrt(alpha), and the applied residual's rounding
    # with it.  Data outside the range carry noise of size delta, so the
    # rank < n term ||y||^2 - ||c||^2 does not cancel to nothing.
    op = RESIDUALS[name]
    alpha = delta**2 * (op.norm**2 / delta**2) ** position
    noise = np.random.default_rng(seed).standard_normal(op.n)
    x = make_signal("smooth", op.grid)
    y = apply(op, x).coeffs + delta * noise / np.linalg.norm(noise)
    residual = regularize_svd(filt, op, y, alpha).residual_norm
    tol = 1e-13 * np.linalg.norm(y)
    assert _discrepancy_verdict(op, filt, y, alpha, residual + tol)
    if residual > tol:
        assert not _discrepancy_verdict(op, filt, y, alpha, residual - tol)


@PROPERTY
@given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 2**31))
def test_project_operator_is_the_galerkin_compression(n_coarse, block, seed):
    fine, coarse = Grid(n_coarse * block), Grid(n_coarse)
    m = np.random.default_rng(seed).standard_normal((fine.n_cells, fine.n_cells))
    op = DiscreteOperator(fine, m)
    # columns of E embed the coarse basis functions in the fine basis
    e = np.column_stack([embed_vector(L2Vector(coarse, c), fine).coeffs for c in np.eye(n_coarse)])
    np.testing.assert_allclose(
        project_operator(op, n_coarse).matrix, e.T @ m @ e, rtol=0, atol=1e-13 * np.abs(m).max()
    )


def _old_uncapped(sched, alpha, delta):
    """LevelSchedule.uncapped as it read with numpy's ceil."""
    n1 = int(np.ceil(sched.c1 * alpha ** (-1.0 / (2.0 * sched.r))))
    n2 = int(np.ceil(sched.c2 * delta ** (-sched.eta))) if sched.c2 > 0 else 1
    return max(n1, n2, 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


@PROPERTY
@given(
    st.floats(0.05, 4.0),
    st.floats(0.0, 1.0),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1e3),
    st.floats(1e-300, 1e3),
    st.floats(1e-300, 1.0),
)
@example(1.0, 0.5, 1.0, 1.0, 1e-300, 1e-300)  # delta^(-eta) overflows: both raise
@example(1.0, 0.5, 1.0, 0.0, 0.25, 0.1)  # c2 = 0
def test_uncapped_level_equals_the_numpy_ceil(r, eta_frac, c1, c2, alpha, delta):
    low = 2.0 / (1.0 + 2.0 * r)
    sched = LevelSchedule(r=r, eta=low + eta_frac * (2.0 - low) * (1 - 1e-9), c1=c1, c2=c2)
    new = _outcome(sched.uncapped, alpha, delta)
    assert new == _outcome(_old_uncapped, sched, alpha, delta)
    assert isinstance(new, type) or (type(new) is int and new >= 1)


def _scalar_refine(obs, est, sched, max_iterations):
    """The refinement of one realization, one level at a time, without a LevelData."""
    n, history, k = est.n0, [], 0
    delta_tilde_sq, n_used, converged = 0.0, n, False
    while True:
        k += 1
        try:
            level = nested_level(n, obs.n)
        except DataUnavailableError:
            break
        n_used = level
        delta_tilde_sq = estimate_delta_sq(project(obs, level))
        delta_hat = est.tau * np.sqrt(delta_tilde_sq)
        history.append(delta_hat)
        window = history[-est.m_window :]
        if k >= est.m_window and max(window) - min(window) <= est.eps * delta_hat:
            converged = True
            break
        if k >= max_iterations or delta_hat <= 0.0:
            break
        n_next = max(sched.uncapped(delta_hat**2, delta_hat), math.ceil(est.p * n_used))
        if n_next > sched.n_max:
            if n_used >= sched.n_max:
                break
            n_next = sched.n_max
        n = n_next
    tau = est.tau
    return NoiseEstimate(float(delta_tilde_sq), float(tau * np.sqrt(delta_tilde_sq)), n_used, tau, k, converged)


@PROPERTY
@given(
    st.sampled_from(FINE_SIZES),
    st.lists(st.sampled_from(["noise", "constant", "exact"]), min_size=1, max_size=5),
    st.sampled_from([0.1, 0.01, 1e6]),  # eps
    st.integers(1, 4),  # m_window
    st.sampled_from([1, 2, 3, 50]),  # max_iterations
    st.sampled_from([2, 16, 128]),  # n0; 128 exceeds every fine grid here
    st.sampled_from([8, 16, 32, 64, 1024]),  # n_max; 1024 lets requests run past the data
    st.sampled_from([0.0, 1.0]),  # c2
    st.floats(1e-3, 0.3),  # delta
    st.integers(0, 2**31),
)
@example(64, ["constant", "noise"], 0.1, 3, 50, 16, 64, 0.0, 0.05, 1)  # delta_hat = 0
@example(256, ["exact", "noise"], 0.1, 3, 50, 16, 32, 0.0, 0.01, 2)  # stopped by n_max
@example(96, ["noise"] * 3, 1e6, 3, 50, 16, 1024, 1.0, 0.05, 3)  # stops when the window fills
@example(100, ["noise", "exact"], 0.01, 4, 2, 16, 1024, 0.0, 0.05, 4)  # max_iterations
def test_batch_refinement_equals_the_scalar_loop(
    n, kinds, eps, m_window, max_iterations, n0, n_max, c2, delta, seed
):
    op = OPERATORS[n]
    spec = NoiseSpec.gaussian_white(seed)
    obs = observe(op, make_signal("smooth", op.grid), delta, spec, replicate=list(range(len(kinds))))
    coeffs = obs.coeffs.copy()
    for i, kind in enumerate(kinds):
        if kind == "constant":
            coeffs[i] = 0.25
        elif kind == "exact":
            coeffs[i] = obs.y_exact.coeffs
    batch = Observation(obs.grid, obs.y_exact, obs.delta, coeffs, obs.noise, obs.seed_used)
    est = EstimatorConfig(eps=eps, m_window=m_window, n0=n0)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=c2, n_max=n_max)
    data = LevelData(batch)
    for i in range(batch.rows):
        got = refine_delta_hat(op, data, est, sched, row=i, max_iterations=max_iterations)
        assert got == _scalar_refine(batch.row(i), est, sched, max_iterations)
        if kinds[i] == "constant":
            assert got.delta_hat == 0.0


class _CapCount(logging.Handler):
    """Counts the n_max warnings of the level schedule."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += "n_max" in str(record.msg)


@PROPERTY
@given(
    st.sampled_from((64, 96, 100)),
    st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=4),  # delta inputs
    st.booleans(),  # one delta input for every row
    st.floats(1.5, 4.0),  # q
    st.floats(0.6, 2.0),  # r
    st.floats(0.2, 5.0),  # c1
    st.sampled_from([0.0, 0.5, 2.0]),  # c2
    st.sampled_from([8, 16, 64]),  # n_max
)
def test_ladder_levels_follow_n_of(n, deltas, shared, q, r, c1, c2, n_max):
    op = OPERATORS[n]
    rows = len(deltas)
    x = make_signal("smooth", op.grid)
    data = LevelData(observe(op, x, 0.05, NoiseSpec.gaussian_white(5), replicate=list(range(rows))))
    sched = LevelSchedule(r=r, c1=c1, c2=c2, n_max=n_max)
    cfg = LepskiiConfig(q=q, C_psi=1.0)
    counter = _CapCount()
    logger = logging.getLogger("statinv.discretization")
    logger.addHandler(counter)
    try:
        result = lepskii_choose(op, data, cfg, sched, delta=deltas[0] if shared else np.array(deltas))
        warned = counter.count
        ladders = deltas[:1] if shared else deltas
        grids = [geometric_grid(q, op.norm**2, d)[1][0] for d in ladders]
        for i in range(rows):
            delta, alphas = (ladders[0], grids[0]) if shared else (ladders[i], grids[i])
            m = alphas.size - 1
            assert (result.m[i], result.kappa[i]) == (m, np.sqrt(m))
            assert np.array_equal(result.alphas[i, : m + 1], alphas)
            levels = [data.level(n_of(a, delta, sched)) for a in alphas]
            assert result.candidate_levels[i, : m + 1].tolist() == levels
            assert np.all(result.candidate_levels[i, m + 1 :] == 0)
    finally:
        logger.removeHandler(counter)
    # one warning per capped candidate of each ladder: one ladder for a shared delta input
    capped = sum(sched.uncapped(a, d) > n_max for d, alphas in zip(ladders, grids) for a in alphas)
    assert warned == capped


@PROPERTY
@given(st.sampled_from(FINE_SIZES), st.integers(-30, 30), st.integers(0, 2**31))
def test_noise_estimate_scales_with_the_square_of_the_data(n, k, seed):
    op = OPERATORS[n]
    obs = observe(op, make_signal("smooth", op.grid), 0.05, NoiseSpec.gaussian_white(seed))
    c = 2.0**k  # a power of two scales every rounding step exactly
    scaled = Observation(obs.grid, obs.y_exact, obs.delta, c * obs.coeffs, obs.noise, obs.seed_used)
    assert estimate_delta_sq(scaled) == c**2 * estimate_delta_sq(obs)


@PROPERTY
@given(
    st.integers(0, 2**63),
    st.lists(st.one_of(st.integers(0, 2**31), st.tuples(st.integers(0, 999), st.integers(0, 999))),
             min_size=1, max_size=5),
)
def test_stream_key_replays(seed, replicates):
    keys = [stream_key(seed, r) for r in replicates]
    # no hidden state: the keys come back in any order, and an int is its 1-tuple
    assert [stream_key(seed, r) for r in reversed(replicates)] == keys[::-1]
    for r, key in zip(replicates, keys):
        if isinstance(r, int):
            assert stream_key(seed, (r,)) == stream_key(seed, np.int64(r)) == key
    spec = NoiseSpec.gaussian_white(seed)
    grid = Grid(16)
    for r, key in zip(replicates, keys):
        first = draw_noise(spec, grid, r)
        assert np.array_equal(first, draw_noise(spec, grid, r, key=key))
        assert np.array_equal(first, generator_for(key).standard_normal(16))
    # a list of paths, of one depth or mixed, gives the same keys and rows at once
    assert stream_key(seed, replicates).tolist() == keys
    rows = draw_noise(spec, grid, replicates)
    assert np.array_equal(rows, np.stack([draw_noise(spec, grid, r) for r in replicates]))


@PROPERTY
@given(
    st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=40),
    st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=12),
)
# a squared singular value on the grid: Tikhonov's normalization is attained
# there, and the cut-off cannot witness law (1) at the smallest alpha
@example([100.0, 0.5], [1e4, 0.25])
def test_filter_laws_hold_on_random_spectra(spectrum, alpha_grid):
    # law (1) can only show on a grid that spans some range of alpha
    assume(min(alpha_grid) <= 0.5 * max(alpha_grid))
    op = DiscreteOperator(Grid(len(spectrum)), np.diag(spectrum))
    for filt in (tikhonov(), spectral_cutoff()):
        report = verify_filter_properties(filt, op, alpha_grid, n_theta=200)
        assert report.all_passed, (filt.kind, report.failures)


FAILING_PROPERTY = """
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_property_fails(k):
    assert k < 5


def test_deprecation_still_fails():
    warnings.warn("a numpy or scipy deprecation", DeprecationWarning)
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # the suite's warning filters let hypothesis print its falsifying example
    # and still turn any other deprecation into a failure
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_property_fails(" in output
    assert "2 failed" in output and run.returncode == 1, output
