"""Discrete compact operators on L2[0, 1] in the indicator basis.

An operator is its Galerkin matrix M_ij = <T phi_j, phi_i> on an equidistant
grid together with a singular system computed once at construction.  All
operators here map L2[0, 1] to itself and are Hilbert-Schmidt by
construction (finite matrices), mirroring the compact operators whose
regularization the rest of the package studies.  There is one interface and
two backends:

* :class:`DiscreteOperator`, the dense backend, takes the matrix and runs one
  LAPACK SVD at construction.  The Hoelder-kernel family (``min_kernel``
  among them) uses it.
* :class:`IntegrationOperator`, the closed-form backend, is the Volterra
  integration operator.  Its singular system is the closed form
  :func:`integration_svd` (DST-IV and DCT-IV bases), and it needs no n x n
  array at all.

The backends differ only in four private hooks: ``_spectrum`` (the singular
values, at construction), ``_uvt`` (the dense factors u and vt), ``_apply``
(T along the last axis, behind :func:`apply`) and ``_project`` (the Galerkin
compression E^T M E to a coarser nested level, behind
``discretization.project_operator``).  The dense backend compresses its
matrix and runs one SVD of the result.  Integration is closed under nested
projection: its coarse level is the integration operator on the coarse grid,
whose Galerkin matrix is bit-equal to the compressed fine one.

Other modules read the singular system only through
:meth:`DiscreteOperator.uty`, :meth:`DiscreteOperator.vtx` and
:meth:`DiscreteOperator.v`, together with ``s`` and ``rank``, and apply the
operator through :func:`apply`; how the factors are stored is this module's
business.  The dense ``matrix`` is read elsewhere only by
``filters.regularize_normal_equations`` (the dense reference solve).

The integration operator's ``s`` is closed form, :func:`apply` is a
cumulative sum, and at an even level of at least ``_TRANSFORM_MIN_N`` cells
``uty``, ``vtx`` and ``v`` are a DST-IV, a DCT-IV and a DCT-IV of the
zero-padded coefficients, each one n/2-point complex FFT (O(n log n) per row
instead of the n^2 product).  Its dense factors ``u`` and ``vt`` and its
``matrix`` are built only when read.  Smaller and odd levels keep the dense
closed-form products: below the constant they are no slower at any row
count, and the half-length FFT needs an even n.
The transforms use ``numpy.fft`` rather than ``scipy.fft``, whose import
alone takes a few tenths of a second per process, and apply their twiddle
factors as separate real products and sums: complex twiddle arrays can
round a row of a batch differently from the same row alone, real ones keep
every row of an (R, n) batch bit-equal to that row transformed by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import Grid, L2Vector

__all__ = [
    "TOL_SVD",
    "DiscreteOperator",
    "IntegrationOperator",
    "SourceCondition",
    "integration_svd",
    "build_integration_operator",
    "build_holder_kernel_operator",
    "apply",
    "generalized_inverse_apply",
    "discretization_defect",
]

# Relative threshold below which singular values are treated as zero.
TOL_SVD = 1e-10

# Smallest even level whose integration operator runs uty / vtx / v as FFT
# transforms.  Per call (BENCH_21.json "transform_threshold"; 2 vCPUs, one
# BLAS thread, medians of 9 rounds), the transform wins at n = 512 for any
# row count, the dense product is no slower at n = 128 (uty + v: 8 against
# 30 us for one row, 722 against 743 us for 200), and at n = 256 the winner
# depends on the rows: dense for one row (23 against 33 us), the transform
# from 20 rows (461 against 195 us).  The path cannot follow the row count,
# because each row of a batch must keep the bits of that row alone.  The
# study path calls it with batches: the level pipeline (the fine_grid study
# runs 8% faster than with 512), and the oracle and discrepancy rules, which
# solve their rows in blocks of up to 256 rows at n = 256.
_TRANSFORM_MIN_N = 256


class DiscreteOperator:
    """The dense backend: an n x n Galerkin matrix and its LAPACK singular system.

    The singular system comes from one ``np.linalg.svd`` of ``matrix`` at
    construction.  Other modules read it through ``uty`` (U_r^T y), ``vtx``
    (V_r^T x) and ``v`` (V_k w), never through ``u`` and ``vt``; see the
    module docstring for the one remaining reader of ``matrix``.  A backend
    subclass overrides the four hooks ``_spectrum``, ``_uvt``, ``_apply`` and
    ``_project``; the products run as transforms when ``_spectrum`` leaves
    twiddle factors, and with the dense factors otherwise.

    Parameters
    ----------
    matrix : array_like, shape (n, n), or callable () -> array_like
        Taken over without a copy when it is a float array that owns its
        data, and then made read-only in place; views and foreign buffers
        are copied.  A callable defers the matrix: it is called on the first
        read of ``matrix``, whose result is taken over by the same rule.  The
        dense backend reads it at once for its SVD.

    Attributes
    ----------
    grid : Grid
    matrix : ndarray, shape (n, n)
        Action of the operator in the indicator basis, built on first read
        when it was given as a callable.
    u, s, vt : ndarray
        Cached SVD, ``matrix = u @ diag(s) @ vt`` with ``s`` nonincreasing.
    hs_norm : float
        Hilbert-Schmidt norm, sqrt(sum s_j^2).
    rank : int
        Number of singular values above ``TOL_SVD * s[0]``.
    holder_s : float or None
        Caller-asserted Hoelder exponent of t -> k(t, u), when known.
    """

    __slots__ = ("grid", "_matrix", "_factors", "_twiddles", "s", "hs_norm", "rank", "holder_s")

    def __init__(self, grid: Grid, matrix, holder_s: Optional[float] = None):
        self.grid = grid
        self._matrix = matrix if callable(matrix) else _frozen(matrix, grid.n_cells)
        self._factors = self._twiddles = None  # (u, vt) and the transforms' twiddles
        self.s = s = self._spectrum()
        self.hs_norm = float(np.sqrt(np.sum(s**2)))
        if s[0] > 0.0:
            self.rank = int(np.count_nonzero(s > TOL_SVD * s[0]))
        else:
            self.rank = 0
        self.holder_s = holder_s

    def _spectrum(self) -> np.ndarray:
        """The singular values; the dense backend keeps its factors."""
        u, s, vt = np.linalg.svd(self.matrix)
        self._factors = (u, vt)
        return s

    def _uvt(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._factors

    def _apply(self, c: np.ndarray) -> np.ndarray:
        """T along the last axis of ``c``, one matrix-vector product per row."""
        return (self.matrix @ c[..., None])[..., 0]

    def _project(self, n_coarse: int) -> "DiscreteOperator":
        """The operator at the nested level ``n_coarse``: E^T M E and one SVD."""
        block = self.n // n_coarse
        m = self.matrix.reshape(n_coarse, block, n_coarse, block).sum(axis=(1, 3))
        m *= n_coarse / self.n
        return DiscreteOperator(Grid(n_coarse), m, holder_s=self.holder_s)

    @property
    def matrix(self) -> np.ndarray:
        if callable(self._matrix):
            self._matrix = _frozen(self._matrix(), self.n)
        return self._matrix

    @property
    def u(self) -> np.ndarray:
        return self._uvt()[0]

    @property
    def vt(self) -> np.ndarray:
        return self._uvt()[1]

    @property
    def n(self) -> int:
        return self.grid.n_cells

    def uty(self, y) -> np.ndarray:
        """U_r^T y along the last axis: (..., n) -> (..., rank)."""
        if self._twiddles is not None:
            return _trig4(y, self._twiddles, sine=True)[..., : self.rank]
        return _stacked(y, self.u[:, : self.rank])

    def vtx(self, x) -> np.ndarray:
        """V_r^T x along the last axis: (..., n) -> (..., rank)."""
        if self._twiddles is not None:
            return _trig4(x, self._twiddles, sine=False)[..., : self.rank]
        return _stacked(x, self.vt[: self.rank].T)

    def v(self, w) -> np.ndarray:
        """V_k w along the last axis, k = w.shape[-1] <= rank: (..., k) -> (..., n)."""
        k = np.shape(w)[-1]
        if k > self.rank:
            raise ValueError(f"{k} coefficients for an operator of rank {self.rank}")
        if self._twiddles is not None:
            padded = np.zeros(np.shape(w)[:-1] + (self.n,))
            padded[..., :k] = w
            return _trig4(padded, self._twiddles, sine=False)
        return _stacked(w, self.vt[:k])

    @property
    def norm(self) -> float:
        """Spectral norm, the largest singular value."""
        return float(self.s[0])

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, s1={self.norm:.6g}, rank={self.rank})"


class IntegrationOperator(DiscreteOperator):
    """The closed-form backend: the Volterra integration operator (Tx)(t) = int_0^t x.

    The Galerkin matrix has the exact entries M_jj = 1/(2n), M_ij = 1/n for
    i > j and zero above the diagonal; it is built only when read.  ``s`` is
    the closed form of :func:`integration_svd`, whose ``u`` and ``vt`` are
    built on first read, and at an even n >= ``_TRANSFORM_MIN_N`` the three
    products run as DST-IV/DCT-IV transforms through ``numpy.fft`` (the
    module docstring says why there and why so).  :func:`apply` is a
    cumulative sum, and a nested projection is the integration operator on
    the coarse grid.
    """

    __slots__ = ()

    def __init__(self, grid: Grid):
        n = grid.n_cells

        def galerkin():
            m = np.tril(np.full((n, n), 1.0 / n), k=-1)
            np.fill_diagonal(m, 0.5 / n)
            return m

        super().__init__(grid, galerkin, holder_s=1.0)

    def _spectrum(self) -> np.ndarray:
        if self.n % 2 == 0 and self.n >= _TRANSFORM_MIN_N:
            self._twiddles = _twiddles(self.n)
        return _integration_s(self.n)

    def _uvt(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._factors is None:
            u, _, vt = integration_svd(self.n)
            self._factors = (u, vt)
        return self._factors

    def _apply(self, c: np.ndarray) -> np.ndarray:
        """(Tc)_i = (sum_{j<i} c_j + c_i / 2) / n, a cumulative sum."""
        return (np.cumsum(c, axis=-1) - c / 2) / self.n

    def _project(self, n_coarse: int) -> "IntegrationOperator":
        return IntegrationOperator(Grid(n_coarse))


def _frozen(matrix, n: int) -> np.ndarray:
    """``matrix`` as an owned, read-only (n, n) float array, copied only if needed."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix has shape {matrix.shape}, expected ({n}, {n})")
    if not matrix.flags.owndata:
        matrix = matrix.copy()
    matrix.setflags(write=False)
    return matrix


def _stacked(y, a: np.ndarray) -> np.ndarray:
    """y @ a along the last axis of y, one matrix-vector product per row.

    The stacked form keeps every row of a batch bit-equal to the 1-D
    product of that row alone; a plain ``y @ a`` on a 2-D batch runs one
    matrix-matrix product instead, whose rows can differ in the last bits.
    """
    y = np.asarray(y, dtype=float)
    return (y[..., None, :] @ a)[..., 0, :]


def _twiddles(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cos and sin of the pre-twiddle pi m / n and of the post-twiddle
    pi (4m+1) / (4n), m < n/2, the latter scaled by sqrt(2/n)."""
    m = np.arange(n // 2)
    pre = np.pi * m / n
    post = np.pi * (4 * m + 1) / (4 * n)
    scale = np.sqrt(2.0 / n)
    return np.cos(pre), np.sin(pre), scale * np.cos(post), scale * np.sin(post)


def _trig4(x, twiddles, sine: bool) -> np.ndarray:
    """Orthonormal DCT-IV (``sine=False``) or DST-IV of x along its even last axis.

    The DCT-IV of x is read from one n/2-point FFT of z_m = x_{2m} + i
    x_{n-1-2m}: pre-twiddle z by exp(-i pi m / n), transform, post-twiddle by
    exp(-i pi (4m+1) / (4n)); the real part gives the even outputs, minus the
    imaginary part the odd ones in reverse order.  The DST-IV is the DCT-IV
    of x reversed with every odd output negated: the real and imaginary
    inputs swap, and the odd outputs take the imaginary part unnegated.  Each
    complex product is written out in real multiplies and adds.  ``twiddles``
    is ``_twiddles(n)``.
    """
    x = np.asarray(x, dtype=float)
    cos_pre, sin_pre, cos_post, sin_post = twiddles
    re_in, im_in = x[..., 0::2], x[..., ::-2]
    if sine:
        re_in, im_in = im_in, re_in
    z = np.empty(re_in.shape, dtype=complex)
    tmp = np.empty(re_in.shape)
    re, im = z.real, z.imag
    np.multiply(re_in, cos_pre, out=re)
    re += np.multiply(im_in, sin_pre, out=tmp)
    np.multiply(im_in, cos_pre, out=im)
    im -= np.multiply(re_in, sin_pre, out=tmp)
    z = np.fft.fft(z, axis=-1)
    re, im = z.real, z.imag
    out = np.empty(x.shape)
    even, odd = out[..., 0::2], out[..., ::-2]
    np.multiply(re, cos_post, out=even)
    even += np.multiply(im, sin_post, out=tmp)
    if sine:
        np.multiply(im, cos_post, out=odd)
        odd -= np.multiply(re, sin_post, out=tmp)
    else:
        np.multiply(re, sin_post, out=odd)
        odd -= np.multiply(im, cos_post, out=tmp)
    return out


@dataclass(frozen=True)
class SourceCondition:
    """Smoothness class x = phi(T*T) v with ||v|| <= radius.

    ``phi`` must be increasing on (0, ||T||^2] with phi(0+) = 0.  The Hoelder
    kind uses phi(t) = t^nu.
    """

    phi: Callable[[float], float]
    radius: float
    kind: str = "custom"
    nu: Optional[float] = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        probe = np.array([1e-6, 1e-3, 1e-1, 1.0])
        vals = np.array([self.phi(t) for t in probe], dtype=float)
        if np.any(vals <= 0) or np.any(np.diff(vals) <= 0):
            raise ValueError("phi must be positive and increasing on (0, ||T||^2]")

    @classmethod
    def holder(cls, nu: float, radius: float) -> "SourceCondition":
        if nu <= 0:
            raise ValueError("nu must be positive")
        return cls(phi=lambda t, _nu=nu: t**_nu, radius=radius, kind="holder", nu=nu)


# Entries of the integer phase block in integration_svd (2 MiB of int64),
# so its working memory stays small whatever n is.
_PHASE_BLOCK = 2**18


def integration_svd(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD of the n x n integration Galerkin matrix.

    With 0-based j and 1-based k,

        u[j, k-1]  = sqrt(2/n) sin(pi (2j+1)(2k-1) / (4n))   (DST-IV),
        vt[k-1, j] = sqrt(2/n) cos(pi (2j+1)(2k-1) / (4n))   (DCT-IV),
        s[k-1]     = cot((2k-1) pi / (4n)) / (2n),

    so ``M = u @ diag(s) @ vt`` with ``s`` strictly decreasing.  Both bases
    are symmetric matrices.  Every entry is read from one table of
    sin(pi i / (4n)), i < 8n, at the phase (2j+1)(2k-1) reduced mod 8n in
    integer arithmetic, so no angle is rounded before its reduction.  u and
    vt are written block by block into their final arrays.  References:
    Britanak, Yip and Rao, *Discrete Cosine and Sine Transforms* (2007);
    Strang, SIAM Review 41 (1999).
    """
    odd = np.arange(1, 2 * n, 2)
    period = 8 * n
    angle = np.pi / (4 * n)
    table = np.sqrt(2.0 / n) * np.sin(np.arange(period) * angle)
    u = np.empty((n, n))
    vt = np.empty((n, n))
    rows = max(1, _PHASE_BLOCK // n)
    for j0 in range(0, n, rows):
        phase = np.multiply.outer(odd[j0 : j0 + rows], odd)
        phase %= period
        np.take(table, phase, out=u[j0 : j0 + rows])
        phase += 2 * n  # cos(t) = sin(t + pi/2)
        phase %= period
        np.take(table, phase, out=vt[j0 : j0 + rows])
    return u, _integration_s(n), vt


def _integration_s(n: int) -> np.ndarray:
    """The singular values of :func:`integration_svd`, without its factors."""
    return 1.0 / (2 * n * np.tan(np.arange(1, 2 * n, 2) * (np.pi / (4 * n))))


def build_integration_operator(grid: Grid) -> IntegrationOperator:
    """The Volterra integration operator (Tx)(t) = int_0^t x on ``grid``.

    See :class:`IntegrationOperator`: the Galerkin matrix is exact and built
    only when read, and the singular system is the closed form
    :func:`integration_svd` at this level and at every nested level projected
    from it.
    """
    return IntegrationOperator(grid)


def build_holder_kernel_operator(
    grid: Grid,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    holder_s: float,
    *,
    volterra: bool = True,
) -> DiscreteOperator:
    """Galerkin matrix of an integral operator with kernel ``k(t, u)``.

    With ``volterra=True`` builds (Tx)(t) = int_0^t k(t, u) x(u) du; with
    ``volterra=False`` builds the Fredholm form (Tx)(t) = int_0^1 k(t, u) x(u) du.
    The kernel is evaluated at cell midpoints, which is exact for constant
    kernels and introduces an O(1/n) error otherwise; that error is of the
    same order as the discretization error the level schedules already model.

    ``holder_s`` is the caller-asserted Hoelder exponent of t -> k(t, u); the
    noise-level estimator's bias analysis requires it in (1/2, 1].
    """
    if not 0.5 < holder_s <= 1.0:
        raise ValueError(f"holder_s must lie in (1/2, 1], got {holder_s}")
    n = grid.n_cells
    mids = grid.midpoints
    tt, uu = np.meshgrid(mids, mids, indexing="ij")
    kv = np.asarray(kernel(tt, uu), dtype=float)
    if kv.shape != (n, n):
        raise ValueError("kernel must evaluate elementwise on (t, u) arrays")
    if volterra:
        # area of {u <= t} within the (i, j) cell pair: full square below the
        # diagonal, half square on it, empty above.
        m = np.tril(kv / n, k=-1)
        np.fill_diagonal(m, np.diag(kv) / (2.0 * n))
    else:
        m = kv / n
    return DiscreteOperator(grid, m, holder_s=holder_s)


def apply(op: DiscreteOperator, x):
    """y = Tx in the shared basis, for an ``L2Vector`` or a coefficient array.

    An ``L2Vector`` gives an ``L2Vector``; an array of shape (..., n) gives
    T applied along its last axis, with every row bit-equal to that row
    applied alone.  The operator's backend applies it: a cumulative sum for
    the integration operator, one matrix-vector product per row for a dense
    one.
    """
    vector = isinstance(x, L2Vector)
    if vector and x.grid != op.grid:
        raise ValueError("operator and vector grids do not match")
    c = x.coeffs if vector else np.asarray(x, dtype=float)
    if c.shape[-1:] != (op.n,):
        raise ValueError(f"coefficients have shape {c.shape}, expected (..., {op.n})")
    y = op._apply(c)
    return L2Vector(op.grid, y) if vector else y


def generalized_inverse_apply(op: DiscreteOperator, y: L2Vector, trunc: int) -> L2Vector:
    """Truncated pseudoinverse sum_{j <= trunc} s_j^{-1} <y, u_j> v_j.

    Intended as the reference solution x+ = T+ y in experiments; ``trunc``
    must not exceed the numerical rank.
    """
    if y.grid != op.grid:
        raise ValueError("operator and vector grids do not match")
    if not 1 <= trunc <= op.rank:
        raise ValueError(f"trunc must lie in [1, rank={op.rank}], got {trunc}")
    return L2Vector(op.grid, op.v(op.uty(y.coeffs)[:trunc] / op.s[:trunc]))


def discretization_defect(op: DiscreteOperator, full_op: DiscreteOperator) -> float:
    """Spectral norm of (I - Q) T estimated against a finer reference grid.

    ``full_op`` plays the role of T on the reference grid; ``op`` determines
    rank(Q) through its (coarser, nested) grid.
    """
    n_c, n_f = op.n, full_op.n
    if n_f % n_c != 0:
        raise ValueError(f"grids not nested: {n_c} does not divide {n_f}")
    # Q replaces each fine row by the mean of its coarse cell's row block
    blocks = full_op.matrix.reshape(n_c, n_f // n_c, n_f)
    residual = (blocks - blocks.mean(axis=1, keepdims=True)).reshape(n_f, n_f)
    if not np.any(residual):
        return 0.0  # ARPACK stops on a zero operator: "Starting vector is zero"
    from scipy.sparse.linalg import svds  # keep scipy off the import path

    return float(svds(residual, k=1, v0=np.ones(n_f), return_singular_vectors=False)[0])
