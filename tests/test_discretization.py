import logging
import math

import numpy as np
import pytest

from statinv import (
    DataUnavailableError,
    Grid,
    L2Vector,
    LevelData,
    LevelSchedule,
    NoiseSpec,
    Observation,
    build_integration_operator,
    embed_vector,
    n_of,
    nested_level,
    observe,
    project,
    project_operator,
    project_vector,
)
from statinv.signals import make_signal


def test_n_of_example_values():
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=1.0)
    assert n_of(1e-4, 1e-1, sched) == 100
    assert n_of(1.0, 1.0, sched) == 1


def test_n_of_monotone_in_delta():
    sched = LevelSchedule(r=1.0, eta=1.0)
    alpha = 1e-3
    previous = 0
    for delta in (0.4, 0.2, 0.1, 0.05, 0.025):
        n = n_of(alpha, delta, sched)
        assert n >= previous
        previous = n


def test_n_of_cap_logs_warning(caplog):
    sched = LevelSchedule(r=1.0, eta=1.0, n_max=64)
    with caplog.at_level(logging.WARNING, logger="statinv.discretization"):
        assert n_of(1e-8, 1e-3, sched) == 64
    assert any("capping" in rec.message for rec in caplog.records)


def _power_levels(sched, alphas, deltas):
    """The level rule per entry by Python's scalar ``**`` and ``math.ceil``."""
    return [
        max(
            math.ceil(sched.c1 * a ** (-1.0 / (2.0 * sched.r))),
            math.ceil(sched.c2 * d ** (-sched.eta)) if sched.c2 > 0 else 1,
            1,
        )
        for a, d in zip(alphas, deltas)
    ]


def test_level_arrays_round_as_the_scalar_power(caplog):
    # alpha = 1/k^2 puts alpha^(-1/2) within an ulp or two of the integer k, so
    # a power that rounds differently from the scalar one moves the ceil
    k = np.arange(1, 20001, dtype=float)
    alphas = 1.0 / k**2
    delta = np.full(k.size, 1e-3)
    sched = LevelSchedule(r=1.0, eta=1.0, c1=1.0, c2=1.0, n_max=10**4)
    expected = _power_levels(sched, alphas.tolist(), delta.tolist())
    uncapped = sched.uncapped(alphas, delta)
    assert uncapped.tolist() == expected
    assert [sched.uncapped(a, d) for a, d in zip(alphas[:50].tolist(), delta[:50].tolist())] == expected[:50]
    with caplog.at_level(logging.WARNING, logger="statinv.discretization"):
        levels = n_of(alphas, delta, sched)
        warned = len(caplog.records)
        assert levels.tolist() == [min(n, sched.n_max) for n in expected]
        capped = [i for i, n in enumerate(expected) if n > sched.n_max]
        assert [n_of(alphas[i], delta[i], sched) for i in capped] == [sched.n_max] * len(capped)
    # one warning per capped entry, worded as for the scalar pair
    assert warned == len(capped) == len(caplog.records) - warned
    assert [r.message for r in caplog.records[:warned]] == [r.message for r in caplog.records[warned:]]


def test_level_arrays_reject_what_the_scalar_rule_rejects():
    sched = LevelSchedule(r=1.0, eta=1.0)
    with pytest.raises(ValueError):
        sched.uncapped(np.array([1e-3, 0.0]), 0.1)
    with pytest.raises(ValueError):
        sched.uncapped(np.array([1e-3]), np.array([-0.1]))
    steep = LevelSchedule(r=0.1, eta=1.9)  # alpha^(-5) overflows
    with pytest.raises(OverflowError):
        steep.uncapped(1e-300, 0.1)
    with pytest.raises(OverflowError):
        steep.uncapped(np.array([1e-3, 1e-300]), 0.1)
    # a nan alpha (the padding of a ladder table) gives a nan level, and no warning
    assert np.isnan(n_of(np.array([np.nan, 1e-4]), 0.1, sched)).tolist() == [True, False]


def test_schedule_eta_validation():
    LevelSchedule(r=1.0, eta=1.0)  # 2/(1+2r) = 2/3 <= 1 < 2
    LevelSchedule(r=1.0, eta=2.0 / 3.0)
    with pytest.raises(ValueError):
        LevelSchedule(r=1.0, eta=0.5)
    with pytest.raises(ValueError):
        LevelSchedule(r=1.0, eta=2.0)
    LevelSchedule(c2=0.0)  # pure alpha-coupled special case
    with pytest.raises(ValueError):
        LevelSchedule(c2=-0.1)


def test_coupled_level_grows_against_noise():
    # with eta in (1, 2), n(alpha0(delta), delta)^2 * delta^2 diverges as
    # delta -> 0 (alpha0 = delta^2), the direction the concentration
    # inequality needs
    sched = LevelSchedule(r=1.0, eta=1.5, c1=1.0, c2=1.0, n_max=10**9)
    products = []
    for delta in (1e-1, 1e-2, 1e-3):
        n = n_of(delta**2, delta, sched)
        products.append(n**2 * delta**2)
    assert products[0] < products[1] < products[2]


def test_nested_level_rounding():
    assert nested_level(100, 1024) == 128
    assert nested_level(1024, 1024) == 1024
    assert nested_level(1, 1024) == 1
    assert nested_level(5, 12) == 6
    with pytest.raises(DataUnavailableError):
        nested_level(1025, 1024)


def _observation(n=64, delta=0.1, seed=1):
    op = build_integration_operator(Grid(n))
    x = make_signal("smooth", op.grid)
    return observe(op, x, delta, NoiseSpec.gaussian_white(seed))


def test_project_identity_level():
    obs = _observation()
    assert project(obs, 64) is obs


def test_project_preserves_constants():
    grid = Grid(64)
    const = L2Vector.from_cell_values(grid, np.full(64, 3.0))
    proj = project_vector(const, 8)
    assert np.allclose(proj.cell_values(), 3.0, atol=1e-13)


def test_projection_pythagoras():
    obs = _observation()
    coarse = project(obs, 16)
    back = embed_vector(L2Vector(coarse.grid, coarse.coeffs), obs.grid)
    residual = obs.coeffs - back.coeffs
    lhs = np.sum(coarse.coeffs**2) + np.sum(residual**2)
    assert lhs == pytest.approx(np.sum(obs.coeffs**2), abs=1e-12)


def test_projection_idempotent_and_self_adjoint():
    rng = np.random.default_rng(8)
    grid = Grid(64)
    y = L2Vector(grid, rng.standard_normal(64))
    z = L2Vector(grid, rng.standard_normal(64))
    qy = embed_vector(project_vector(y, 16), grid)
    qqy = embed_vector(project_vector(qy, 16), grid)
    assert np.max(np.abs(qqy.coeffs - qy.coeffs)) < 1e-12
    qz = embed_vector(project_vector(z, 16), grid)
    assert np.dot(qy.coeffs, z.coeffs) == pytest.approx(np.dot(y.coeffs, qz.coeffs), abs=1e-12)


def test_project_requires_nested():
    obs = _observation()
    with pytest.raises(ValueError):
        project(obs, 7)


def test_projected_white_noise_is_white_again():
    # aggregated iid N(0,1) coefficients stay iid N(0,1) on the coarse grid
    grid = Grid(256)
    op = build_integration_operator(grid)
    x = L2Vector(grid, np.zeros(256))
    spec = NoiseSpec.gaussian_white(seed=5)
    samples = []
    for rep in range(2000):
        obs = observe(op, x, 1.0, spec, replicate=rep)
        samples.append(project(obs, 16).coeffs)
    samples = np.array(samples).ravel()
    assert abs(np.mean(samples)) < 0.02
    assert abs(np.var(samples) - 1.0) < 0.03


def test_project_operator_matches_direct_build():
    # dyadic cells make every Galerkin entry and every block sum exact
    for n_fine, n_coarse in [(64, 16), (64, 32), (256, 8), (1024, 512)]:
        projected = project_operator(build_integration_operator(Grid(n_fine)), n_coarse)
        direct = build_integration_operator(Grid(n_coarse))
        assert np.array_equal(projected.matrix, direct.matrix)


def test_embed_is_isometry():
    rng = np.random.default_rng(9)
    coarse = L2Vector(Grid(16), rng.standard_normal(16))
    fine = embed_vector(coarse, Grid(128))
    assert fine.norm() == pytest.approx(coarse.norm(), rel=1e-14)
    back = project_vector(fine, 16)
    assert np.max(np.abs(back.coeffs - coarse.coeffs)) < 1e-13


def test_level_data_rounds_and_caches():
    obs = _observation(n=64)
    data = LevelData(obs)
    level = data(40)
    assert level.n == 64  # smallest divisor of 64 that is >= 40
    assert data(40) is level
    assert data(64) is obs
    with pytest.raises(DataUnavailableError):
        data(65)


def test_level_data_computes_a_batch_statistic_once_per_level():
    op = build_integration_operator(Grid(64))
    x = make_signal("smooth", op.grid)
    spec = NoiseSpec.gaussian_white(seed=8)
    data = LevelData(observe(op, x, 0.05, spec, replicate=[0, 1, 2]))
    calls = []

    def row_sums(obs):
        calls.append(obs.n)
        return obs.coeffs.sum(axis=-1)

    for level in (16, 32, 64):
        assert np.array_equal(data.per_level(row_sums, level), data(level).coeffs.sum(axis=-1))
    assert data.per_level(row_sums, 20) is data.per_level(row_sums, 32)  # 20 rounds up to 32
    assert calls == [16, 32, 64]
    with pytest.raises(DataUnavailableError):
        data.per_level(row_sums, 65)
