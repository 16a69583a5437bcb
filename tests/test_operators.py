import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import svds

import statinv
from statinv import (
    DiscreteOperator,
    Grid,
    L2Vector,
    apply,
    build_holder_kernel_operator,
    build_integration_operator,
    discretization_defect,
    generalized_inverse_apply,
    project_operator,
    regularize_normal_equations,
    spectral_series,
    tikhonov,
)
from statinv.operators import TOL_SVD, integration_svd


def test_single_cell_matrix_is_one_half():
    op = build_integration_operator(Grid(1))
    assert op.matrix[0, 0] == pytest.approx(0.5)
    assert op.matrix.shape == (1, 1)
    assert op.s[0] == pytest.approx(0.5)


def test_largest_singular_value_matches_continuum():
    # oracle: numeric SVD at n = 2048 and 4096, Richardson-extrapolated
    # (discretization error is O(1/n^2) for this operator)
    s_2048 = svds(build_integration_operator(Grid(2048)).matrix, k=1,
                  return_singular_vectors=False)[0]
    s_4096 = svds(build_integration_operator(Grid(4096)).matrix, k=1,
                  return_singular_vectors=False)[0]
    s_limit = (4.0 * s_4096 - s_2048) / 3.0
    assert s_limit == pytest.approx(2.0 / np.pi, abs=1e-7)

    op = build_integration_operator(Grid(256))
    assert abs(op.s[0] - 2.0 / np.pi) < 1e-3
    assert abs(op.s[0] - s_limit) < 1e-3


def test_hilbert_schmidt_norm_matches_series(op256):
    # analytic spectrum: sum_j (2/((2j-1)pi))^2 = 1/2; oracle: partial sum
    j = np.arange(1, 200_000)
    series = np.sum((2.0 / ((2 * j - 1) * np.pi)) ** 2)
    assert series == pytest.approx(0.5, abs=1e-6)
    assert abs(op256.hs_norm**2 - 0.5) < 1e-2
    # hs_norm equals sqrt(sum s_j^2) exactly by construction
    assert op256.hs_norm == pytest.approx(np.sqrt(np.sum(op256.s**2)), rel=0, abs=0)


def test_singular_value_decay_window(op256):
    n = op256.n
    j = np.arange(1, n // 4 + 1)
    ratios = op256.s[: n // 4] * (2 * j - 1) * np.pi / 2.0
    assert np.all(ratios >= 0.9)
    assert np.all(ratios <= 1.1)


def test_svd_reconstruction(op256):
    m = op256.u @ np.diag(op256.s) @ op256.vt
    assert np.linalg.norm(m - op256.matrix) <= 1e-10 * np.linalg.norm(op256.matrix)


def test_svd_triples_and_orthonormality(op256):
    # ||T v_j - s_j u_j|| <= tol * s_1 for every retained triple
    residual = op256.matrix @ op256.vt.T - op256.u * op256.s
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * op256.s[0]
    eye = np.eye(op256.n)
    assert np.max(np.abs(op256.u.T @ op256.u - eye)) < 1e-10
    assert np.max(np.abs(op256.vt @ op256.vt.T - eye)) < 1e-10


def test_zero_kernel_gives_zero_operator():
    op = build_holder_kernel_operator(Grid(16), lambda t, u: np.zeros_like(t), holder_s=1.0)
    assert np.all(op.matrix == 0.0)
    assert np.all(op.s == 0.0)
    assert op.rank == 0


def test_constant_kernel_equals_integration_operator():
    grid = Grid(37)
    direct = build_integration_operator(grid)
    via_kernel = build_holder_kernel_operator(grid, lambda t, u: np.ones_like(t), holder_s=1.0)
    assert np.max(np.abs(direct.matrix - via_kernel.matrix)) < 1e-12


def test_min_kernel_spectrum():
    # Fredholm operator with kernel min(t, u); eigenvalues 4/((2j-1)^2 pi^2)
    op = build_holder_kernel_operator(Grid(128), np.minimum, holder_s=1.0, volterra=False)
    assert np.allclose(op.matrix, op.matrix.T)
    top = np.linalg.eigvalsh(op.matrix)[-1]  # oracle: symmetric eigendecomposition
    assert op.s[0] == pytest.approx(top, rel=1e-12)
    assert abs(op.s[0] - 4.0 / np.pi**2) < 1e-2


@pytest.mark.parametrize("bad_s", [0.5, 0.2, 1.2, -1.0])
def test_holder_exponent_validation(bad_s):
    with pytest.raises(ValueError):
        build_holder_kernel_operator(Grid(8), lambda t, u: t, holder_s=bad_s)


def test_apply_identity():
    grid = Grid(16)
    op = DiscreteOperator(grid, np.eye(16))
    x = L2Vector(grid, np.arange(16.0))
    assert np.array_equal(apply(op, x).coeffs, x.coeffs)


def test_apply_integration_of_constant(op64):
    # T1(t) = t; the Galerkin image of the constant equals the exact cell
    # averages of t because the constant lies in the discrete span
    grid = op64.grid
    ones = L2Vector.from_cell_values(grid, np.ones(grid.n_cells))
    y = apply(op64, ones)
    assert np.max(np.abs(y.cell_values() - grid.midpoints)) < 1e-12


def test_apply_zero_operator():
    grid = Grid(8)
    op = DiscreteOperator(grid, np.zeros((8, 8)))
    x = L2Vector(grid, np.ones(8))
    assert np.all(apply(op, x).coeffs == 0.0)


def test_apply_dimension_mismatch(op64):
    with pytest.raises(ValueError):
        apply(op64, L2Vector(Grid(32), np.ones(32)))


def test_pseudoinverse_recovers_signal(op64):
    grid = op64.grid
    x = L2Vector.from_cell_values(grid, np.sin(np.pi * grid.midpoints))
    y = apply(op64, x)
    x_rec = generalized_inverse_apply(op64, y, op64.rank)
    assert np.linalg.norm(x_rec.coeffs - x.coeffs) < 1e-8 * x.norm()


def test_pseudoinverse_single_triple(op64):
    y = L2Vector(op64.grid, op64.s[0] * op64.u[:, 0])
    x = generalized_inverse_apply(op64, y, trunc=1)
    assert np.allclose(x.coeffs, op64.vt[0], atol=1e-12)


def test_pseudoinverse_annihilates_range_complement():
    grid = Grid(4)
    op = DiscreteOperator(grid, np.diag([1.0, 0.5, 0.0, 0.0]))
    assert op.rank == 2
    y = L2Vector(grid, np.array([0.0, 0.0, 1.0, 1.0]))  # orthogonal to the range
    x = generalized_inverse_apply(op, y, trunc=op.rank)
    assert np.linalg.norm(x.coeffs) < 1e-12


def test_pseudoinverse_trunc_validation(op64):
    y = L2Vector(op64.grid, np.ones(64))
    with pytest.raises(ValueError):
        generalized_inverse_apply(op64, y, trunc=op64.rank + 1)


def test_pinv_apply_is_projection(op64):
    # T+ T is an orthogonal projection: applying (T+ o T) twice == once
    grid = op64.grid
    rng = np.random.default_rng(5)
    x = L2Vector(grid, rng.standard_normal(64))
    once = generalized_inverse_apply(op64, apply(op64, x), op64.rank)
    twice = generalized_inverse_apply(op64, apply(op64, once), op64.rank)
    assert np.linalg.norm(twice.coeffs - once.coeffs) < 1e-8


def test_defect_vanishes_on_same_grid(op64):
    assert discretization_defect(op64, op64) == pytest.approx(0.0, abs=1e-15)


def test_defect_zero_operator():
    coarse = DiscreteOperator(Grid(8), np.zeros((8, 8)))
    fine = DiscreteOperator(Grid(64), np.zeros((64, 64)))
    assert discretization_defect(coarse, fine) == pytest.approx(0.0, abs=1e-15)


def test_defect_decays_like_one_over_n():
    # fit the constant on n = 16 against an 8x reference, check n = 32, 64
    defects = {}
    for n in (16, 32, 64):
        coarse = build_integration_operator(Grid(n))
        fine = build_integration_operator(Grid(8 * n))
        defects[n] = discretization_defect(coarse, fine)
    c_fit = defects[16] * 16
    for n in (32, 64):
        assert defects[n] <= c_fit * (1 + 1e-9) / n


def test_defect_requires_nested_grids():
    coarse = build_integration_operator(Grid(12))
    fine = build_integration_operator(Grid(64))
    with pytest.raises(ValueError):
        discretization_defect(coarse, fine)


def test_rank_truncation_threshold():
    grid = Grid(3)
    op = DiscreteOperator(grid, np.diag([1.0, 1e-3, 1e-14]))
    assert op.rank == 2
    assert TOL_SVD == 1e-10


def _check_against_lapack(op):
    # oracle: the dense LAPACK SVD of the operator's own matrix
    s_ref = np.linalg.svd(op.matrix, compute_uv=False)
    assert np.max(np.abs(op.s - s_ref)) <= 1e-14 * op.s[0]
    assert np.all(np.diff(op.s) <= 0.0)
    assert np.max(np.abs((op.u * op.s) @ op.vt - op.matrix)) <= 1e-15
    eye = np.eye(op.n)
    assert np.max(np.abs(op.u.T @ op.u - eye)) <= 1e-12
    assert np.max(np.abs(op.vt @ op.vt.T - eye)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 10, 64, 96, 256, 1024])
def test_closed_form_svd_matches_lapack(n):
    op = build_integration_operator(Grid(n))
    assert op.factor is integration_svd
    _check_against_lapack(op)


@pytest.mark.parametrize("n_fine, n_coarse", [(1018, 509), (96, 12), (2048, 1024)])
def test_projected_closed_form_matches_lapack(n_fine, n_coarse):
    op = project_operator(build_integration_operator(Grid(n_fine)), n_coarse)
    assert op.factor is integration_svd
    _check_against_lapack(op)
    # the closed-form series solves the projected matrix's normal equations
    y = np.random.default_rng(n_coarse).standard_normal(n_coarse)
    series = spectral_series(tikhonov(), op, y, 1e-4)
    direct = regularize_normal_equations(op, y, 1e-4).x_alpha
    assert np.linalg.norm(series - direct) <= 1e-10 * np.linalg.norm(direct)


def test_only_operators_without_closed_form_run_lapack_svd(monkeypatch):
    calls = []
    dense_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return dense_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    fine = build_integration_operator(Grid(96))
    for level in (48, 32, 12, 1):
        project_operator(fine, level)
    assert calls == []
    op = build_holder_kernel_operator(Grid(32), np.minimum, holder_s=1.0, volterra=False)
    assert op.factor is None
    assert calls == [(32, 32)]


def test_owned_matrix_is_taken_over_and_frozen():
    m = np.tril(np.ones((4, 4)))
    op = DiscreteOperator(Grid(4), m)
    assert op.matrix is m
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_matrix_view_is_copied():
    base = np.eye(8)
    view = base[:4, :4]
    op = DiscreteOperator(Grid(4), view)
    assert op.matrix is not view and not op.matrix.flags.writeable
    base[0, 0] = 5.0
    assert op.matrix[0, 0] == 1.0


def _counted_matrix(m, reads):
    """A deferred matrix that records each time it is built."""

    def build():
        reads.append(m.shape)
        return m.copy()

    return build


def test_factored_projection_defers_its_matrix_until_read():
    m = build_integration_operator(Grid(96)).matrix
    reads = []
    fine = DiscreteOperator(Grid(96), _counted_matrix(m, reads), holder_s=1.0, factor=integration_svd)
    assert reads == []  # the closed-form factor needs no matrix
    coarse = project_operator(fine, 12)
    assert reads == [] and coarse.rank == 12  # no compression of the fine matrix yet
    eager = m.reshape(12, 8, 12, 8).sum(axis=(1, 3))
    eager *= 12 / 96
    assert np.array_equal(coarse.matrix, eager)
    assert reads == [(96, 96)]
    assert coarse.matrix is coarse.matrix  # built once, then kept
    assert coarse.matrix.flags.owndata and not coarse.matrix.flags.writeable
    assert reads == [(96, 96)]


def test_deferred_matrix_keeps_the_shape_check():
    op = DiscreteOperator(Grid(4), lambda: np.eye(3), factor=integration_svd)
    with pytest.raises(ValueError, match="expected"):
        op.matrix


def test_factorless_projection_builds_its_matrix_for_one_lapack_svd(monkeypatch):
    m = build_holder_kernel_operator(Grid(32), np.minimum, holder_s=1.0, volterra=False).matrix
    reads = []
    fine = DiscreteOperator(Grid(32), _counted_matrix(m, reads), holder_s=1.0)
    assert reads == [(32, 32)]  # read at once: its SVD needs it
    svd_inputs = []
    dense_svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        svd_inputs.append(a)
        return dense_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    coarse = project_operator(fine, 16)
    assert len(svd_inputs) == 1
    assert svd_inputs[0] is coarse.matrix and not coarse.matrix.flags.writeable
    assert reads == [(32, 32)]


@pytest.mark.parametrize("n", [1, 7, 64, 509, 1024])
def test_integration_apply_is_the_cumulative_sum(n):
    op = build_integration_operator(Grid(n))
    x = L2Vector(op.grid, np.random.default_rng(n).standard_normal(n))
    dense = op.matrix @ x.coeffs
    assert np.linalg.norm(apply(op, x).coeffs - dense) <= 1e-14 * np.linalg.norm(dense)


def test_large_integration_operator_holds_no_dense_array():
    n = 2**16  # one dense n x n factor would take 32 GiB
    y = np.random.default_rng(0).standard_normal((4, n))
    tracemalloc.start()
    try:
        op = build_integration_operator(Grid(n))
        assert np.linalg.norm(op.v(op.vtx(y)) - y) <= 1e-12 * np.linalg.norm(y)
        op.uty(y)
        op.v(y[:, : n // 3])
        apply(op, L2Vector(op.grid, y[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # neither the Galerkin matrix nor the dense factors were ever built
    assert callable(op._matrix) and op._factors is None


def test_v_inverts_vtx_and_checks_the_rank(op64):
    y = np.random.default_rng(3).standard_normal((3, 64))
    # V is orthogonal at full rank
    np.testing.assert_allclose(op64.v(op64.vtx(y)), y, atol=1e-12)
    with pytest.raises(ValueError):
        op64.v(np.ones(op64.rank + 1))


# Functions outside operators.py that may read the dense Galerkin matrix:
# Galerkin compression to a coarser level, and the dense reference solve.
MATRIX_READERS = {
    ("discretization.py", "project_operator"),
    ("filters.py", "regularize_normal_equations"),
}


def _attribute_reads(tree):
    """(attribute, enclosing top-level function or None, line) for every attribute load."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, name, node.lineno


def test_singular_factors_are_read_only_in_operators():
    src = Path(statinv.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "operators.py":
            continue
        for attr, func, line in _attribute_reads(ast.parse(path.read_text())):
            if attr in ("u", "vt") or (attr == "matrix" and (path.name, func) not in MATRIX_READERS):
                offenders.append(f"{path.name}:{line} .{attr}")
    assert offenders == [], "read the singular system through uty / vtx / v: " + ", ".join(offenders)
