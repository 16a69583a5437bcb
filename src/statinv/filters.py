"""Linear regularization filters and the regularized solution map.

A filter family {F_alpha} approximates theta -> 1/theta on the spectrum of
T*T.  Its bias family is b_alpha(theta) = 1 - theta * F_alpha(theta), and a
valid family satisfies

1. b_alpha(s_j^2) -> 0 as alpha -> 0 for every singular value s_j > 0;
2. |b_alpha(s_j^2)| <= gamma0 uniformly;
3. s_j |F_alpha(s_j^2)| <= gamma_star / sqrt(alpha);

together with the stricter sup bound sup_theta |F_alpha(theta)| <= gamma/alpha
that makes the mean squared error finite for Hilbert-Schmidt operators.

Two computation routes for the Tikhonov solution are provided on purpose:
the spectral series and a direct normal-equation solve.  They are algebraically
identical and serve as mutual cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import require_finite_coeffs
from .grid import L2Vector, distances
from .noise import NoiseSpec, draw_noise
from .operators import DiscreteOperator, apply, generalized_inverse_apply

__all__ = [
    "Filter",
    "tikhonov",
    "spectral_cutoff",
    "filter_value",
    "bias_value",
    "RegularizedSolution",
    "spectral_series",
    "regularize_svd",
    "regularize_normal_equations",
    "convergence_to_pseudoinverse",
    "FilterPropertyReport",
    "verify_filter_properties",
    "variance_bound",
    "monte_carlo_variance",
]


@dataclass(frozen=True)
class Filter:
    """A spectral filter family with its declared constants.

    ``gamma0`` bounds the bias family, ``gamma_star`` normalizes
    s |F_alpha(s^2)| against 1/sqrt(alpha), and ``gamma`` is the constant in
    the stricter bound sup |F_alpha| <= gamma / alpha.  ``func`` is only used
    for ``kind='custom'``.
    """

    kind: str
    gamma0: float
    gamma_star: float
    gamma: float
    func: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("tikhonov", "spectral_cutoff", "custom"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom filters need an evaluation function")


def tikhonov() -> Filter:
    """F_alpha(theta) = 1/(alpha + theta); gamma0 = 1, gamma_star = 1/2, gamma = 1."""
    return Filter(kind="tikhonov", gamma0=1.0, gamma_star=0.5, gamma=1.0)


def spectral_cutoff() -> Filter:
    """F_alpha(theta) = theta^{-1} 1{theta > alpha}; gamma0 = gamma_star = gamma = 1.

    The cut is strict: theta = alpha is excluded, matching the open interval
    in the indicator's definition.
    """
    return Filter(kind="spectral_cutoff", gamma0=1.0, gamma_star=1.0, gamma=1.0)


def filter_value(filt: Filter, alpha, theta):
    """F_alpha(theta), elementwise; ``alpha`` may be an array broadcasting against ``theta``.

    ``alphas[:, None]`` against a spectrum gives one row per alpha.  A custom
    ``func`` receives ``alpha`` as given, scalar or array.
    """
    if np.any(np.asarray(alpha) <= 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    theta = np.asarray(theta, dtype=float)
    if filt.kind == "tikhonov":
        out = 1.0 / (alpha + theta)
    elif filt.kind == "spectral_cutoff":
        keep = theta > alpha
        out = np.zeros(keep.shape)
        np.divide(1.0, theta, out=out, where=keep)
    else:
        out = np.asarray(filt.func(alpha, theta), dtype=float)
    return out if out.ndim else float(out)


def bias_value(filt: Filter, alpha, theta):
    """b_alpha(theta) = 1 - theta * F_alpha(theta); ``alpha`` broadcasts as in ``filter_value``."""
    theta = np.asarray(theta, dtype=float)
    out = 1.0 - theta * filter_value(filt, alpha, theta)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RegularizedSolution:
    """x_alpha = F_alpha(T*T) T* y together with its data residual, for a vector or a batch.

    ``x_alpha`` holds the coefficients, with the shape of ``y``; ``alpha``
    and ``residual_norm`` have its row shape: floats for one data vector
    (n,), (R,) arrays for a batch (R, n), one entry per row.
    """

    alpha: Union[float, np.ndarray]
    x_alpha: np.ndarray
    residual_norm: Union[float, np.ndarray]


def spectral_series(filt: Filter, op: DiscreteOperator, y: np.ndarray, alpha, *, uty=None) -> np.ndarray:
    """Coefficients of x_alpha = sum_{s_j>0} F_alpha(s_j^2) s_j <y, u_j> v_j.

    The series runs over the numerical rank only.  ``y`` is one data vector
    (n,) or a batch (R, n), and each row of a batch gives the bits of its
    own 1-D series.  ``alpha`` is a float or an (R, 1) column, one alpha
    per row.  ``uty`` is ``op.uty(y)`` (U_r^T y) when the caller has it.
    """
    s = op.s[: op.rank]
    if uty is None:
        uty = op.uty(y)
    elif np.shape(uty) != (*np.shape(y)[:-1], op.rank):
        raise ValueError(f"U_r^T y of shape {np.shape(uty)} for data of shape {np.shape(y)}")
    return op.v(filter_value(filt, alpha, s**2) * s * uty)


def regularize_svd(filt: Filter, op: DiscreteOperator, y: np.ndarray, alpha, *, uty=None) -> RegularizedSolution:
    """Spectral route: ``spectral_series`` together with the data residual ||T x_alpha - y||.

    ``y`` is one data vector (n,) or a batch (R, n), and ``alpha`` a float
    or an (R,) array, one alpha per row.  ``uty`` is ``op.uty(y)`` (U_r^T y)
    when the caller has it, so that a rule that scored the rows on it does
    not transform them again.  Returns one ``RegularizedSolution`` whose
    fields have the shapes of ``y``.  A vector is solved as a batch of one,
    and every row of a batch is bit-equal to that row solved alone at its
    own alpha.  Raises ``ValueError`` if a coefficient is not finite.
    """
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim and alphas.shape != rows.shape[:1]:
        raise ValueError(f"{alphas.shape[0]} alphas for {rows.shape[0]} data rows")
    c = None if uty is None else np.atleast_2d(uty)
    coeffs = require_finite_coeffs(
        spectral_series(filt, op, rows, alphas[:, None] if alphas.ndim else alpha, uty=c)
    )
    d = apply(op, coeffs) - rows
    residuals = np.sqrt(np.vecdot(d, d))  # the 1-D norm's dot product, row by row
    # [()] turns the 0-d row shape of a vector into scalars
    return RegularizedSolution(
        alpha=np.broadcast_to(alphas, residuals.shape).reshape(y.shape[:-1])[()],
        x_alpha=coeffs.reshape(y.shape),
        residual_norm=residuals.reshape(y.shape[:-1])[()],
    )


def regularize_normal_equations(
    op: DiscreteOperator, y: np.ndarray, alpha: float
) -> RegularizedSolution:
    """Tikhonov via (alpha I + B^T B) x = B^T y with a direct SPD solve, for one data vector.

    Must agree with ``regularize_svd(tikhonov(), ...)`` to 1e-8 relative;
    the system is positive definite for every alpha > 0, so the Cholesky
    factorization cannot break down.
    """
    import scipy.linalg  # only this cross-check needs scipy; keep it off the import path

    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    y = np.asarray(y, dtype=float)
    b = op.matrix
    gram = b.T @ b + alpha * np.eye(op.n)
    cho = scipy.linalg.cho_factor(gram, lower=True)
    coeffs = require_finite_coeffs(scipy.linalg.cho_solve(cho, b.T @ y))
    residual = float(np.linalg.norm(b @ coeffs - y))
    return RegularizedSolution(alpha=float(alpha), x_alpha=coeffs, residual_norm=residual)


def convergence_to_pseudoinverse(
    filt: Filter,
    op: DiscreteOperator,
    y_in_range: np.ndarray,
    alpha_seq: Sequence[float],
) -> np.ndarray:
    """Errors ||x_alpha - T+ y|| along a decreasing alpha sequence.

    For y in the range of the operator the sequence decreases to zero
    (pointwise convergence of R_alpha to the generalized inverse).  All
    alphas are solved in one batch of copies of ``y``, row k at alpha k.
    """
    y = L2Vector(op.grid, np.asarray(y_in_range, dtype=float))
    x_plus = generalized_inverse_apply(op, y, op.rank)
    alphas = np.asarray(alpha_seq, dtype=float)
    sol = regularize_svd(filt, op, np.broadcast_to(y.coeffs, (alphas.size, op.n)), alphas)
    return distances(sol.x_alpha, x_plus.coeffs)


@dataclass
class FilterPropertyReport:
    """Outcome of the filter-law checks over an alpha grid and a spectrum."""

    kind: str
    alpha_grid: np.ndarray
    bias_vanishes: bool
    bias_bounded: bool
    normalization: bool
    sup_bound: bool
    max_abs_bias: float
    max_normalization_margin: float
    max_sup_margin: float
    failures: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures


def verify_filter_properties(
    filt: Filter,
    op: DiscreteOperator,
    alpha_grid: Sequence[float],
    n_theta: int = 10_000,
) -> FilterPropertyReport:
    """Check properties (1)-(3) and the stricter sup bound on a real spectrum.

    The supremum over theta is evaluated on a dense logarithmic grid of
    ``n_theta`` points in (0, ||T||^2] augmented with all squared singular
    values; both built-in filters attain their suprema at analyzable points,
    and the grid guards custom filters.

    The pointwise-vanishing check (1) is a limit statement per singular
    value; on a finite alpha grid it can only be witnessed for s_j^2 above
    the smallest alpha, so components below that are exercised by the bound
    checks only.
    """
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))[::-1]  # decreasing
    if np.any(alphas <= 0):
        raise ValueError("alpha grid must be positive")
    s = op.s[: op.rank]
    theta_j = s**2
    failures = []

    # (1) pointwise vanishing bias, checked monotonically along decreasing alpha
    bias = np.abs(np.vstack([bias_value(filt, a, theta_j) for a in alphas]))
    monotone = np.all(bias[1:] <= bias[:-1] + 1e-12)
    resolvable = theta_j > alphas[-1]
    b_hi, b_lo = bias[0][resolvable], bias[-1][resolvable]
    vanishing = np.all((b_lo <= 0.9 * b_hi + 1e-12) | (b_hi <= 1e-12))
    bias_vanishes = bool(monotone and vanishing)
    if not bias_vanishes:
        failures.append("bias_vanishes")

    # (2) uniform bias bound
    max_abs_bias = float(bias.max())
    bias_bounded = max_abs_bias <= filt.gamma0 + 1e-12
    if not bias_bounded:
        failures.append("bias_bounded")

    # (3) normalization s |F_alpha(s^2)| <= gamma_star / sqrt(alpha); Tikhonov
    # attains gamma_star = 1/2 where s^2 = alpha
    margins = []
    for a in alphas:
        lhs = s * np.abs(filter_value(filt, a, theta_j))
        margins.append(np.max(lhs * np.sqrt(a)))
    max_norm_margin = float(np.max(margins))
    normalization = max_norm_margin <= filt.gamma_star * (1.0 + 1e-12)
    if not normalization:
        failures.append("normalization")

    # stricter bound sup_theta |F_alpha(theta)| <= gamma / alpha
    t_hi = op.norm**2
    theta_dense = np.unique(
        np.concatenate([np.geomspace(t_hi * 1e-8, t_hi, n_theta), theta_j])
    )
    sup_margins = []
    for a in alphas:
        sup_f = np.max(np.abs(filter_value(filt, a, theta_dense)))
        sup_margins.append(sup_f * a)
    max_sup_margin = float(np.max(sup_margins))
    sup_bound = max_sup_margin <= filt.gamma * (1.0 + 1e-12)
    if not sup_bound:
        failures.append("sup_bound")

    return FilterPropertyReport(
        kind=filt.kind,
        alpha_grid=alphas,
        bias_vanishes=bias_vanishes,
        bias_bounded=bias_bounded,
        normalization=normalization,
        sup_bound=sup_bound,
        max_abs_bias=max_abs_bias,
        max_normalization_margin=max_norm_margin,
        max_sup_margin=max_sup_margin,
        failures=failures,
    )


def variance_bound(filt: Filter, op: DiscreteOperator, alpha: float) -> float:
    """Upper bound (gamma^2 / alpha^2) ||T||_HS^2 for E||R_alpha Xi||^2."""
    return (filt.gamma / alpha) ** 2 * op.hs_norm**2


def monte_carlo_variance(
    filt: Filter,
    op: DiscreteOperator,
    alpha: float,
    replicates: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of E||R_alpha Xi||^2 under white noise."""
    spec = NoiseSpec.gaussian_white(seed)
    s = op.s[: op.rank]
    weights = filter_value(filt, alpha, s**2) * s
    xi = draw_noise(spec, op.grid, list(range(replicates)))
    return float(np.mean(np.sum((weights * op.uty(xi)) ** 2, axis=-1)))
