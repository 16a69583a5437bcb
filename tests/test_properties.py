"""Property tests of the nested projections, run with fixed examples."""

import numpy as np
from hypothesis import given, settings, strategies as st

from statinv import (
    Grid,
    L2Vector,
    LevelData,
    NoiseSpec,
    build_integration_operator,
    embed_vector,
    nested_level,
    observe,
    project,
    project_vector,
)
from statinv.signals import make_signal

# derandomized: the same examples on every run, so the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)
FINE_SIZES = (64, 96, 100, 256)
OPERATORS = {n: build_integration_operator(Grid(n)) for n in FINE_SIZES}


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
