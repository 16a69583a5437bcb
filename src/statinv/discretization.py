"""Projections onto nested grids and the coupled level schedule n(alpha, delta).

The projection Q onto span{phi_1, ..., phi_n} of a coarser nested grid is
exact block averaging.  The level schedule combines the two coupling rules

    n1(alpha) = ceil(c1 * alpha^(-1/(2r)))   and   n2(delta) = ceil(c2 * delta^(-eta))

as n(alpha, delta) = max(n1, n2), capped at ``n_max``.  Setting c2 = 0
recovers the pure alpha-coupled rule as a special case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataUnavailableError, require_finite
from .grid import Grid, L2Vector
from .noise import Observation
from .operators import DiscreteOperator

__all__ = [
    "LevelSchedule",
    "n_of",
    "nested_level",
    "ladder_gap",
    "project",
    "project_vector",
    "embed_vector",
    "project_operator",
    "LevelData",
]

log = logging.getLogger(__name__)

_CAP_MESSAGE = "level schedule requested n=%d at (alpha=%.3g, delta=%.3g); capping at n_max=%d"


def _scalar_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``b ** exponent`` for every entry b, by the scalar (libm) power.

    numpy's array power is vectorized and can differ from it in the last
    bit, which is enough to move a ceil, and with it a level.
    """
    return np.array([b**exponent for b in base.ravel().tolist()]).reshape(base.shape)


@dataclass(frozen=True)
class LevelSchedule:
    """Parameters of the discretization-level rule n(alpha, delta).

    ``r`` is the spectral decay exponent (set to the Hoelder exponent s of
    the exact data when coupling to the noise-level estimator); ``eta`` must
    satisfy 2/(1+2r) <= eta < 2 and defaults to 1/r.  ``c1`` and ``c2`` are
    proportionality constants; only the asymptotic orders are prescribed by
    the theory, so both are calibration knobs.  ``c2 = 0`` disables the
    delta-coupled rule.
    """

    r: float = 1.0
    eta: float | None = None
    c1: float = 1.0
    c2: float = 1.0
    n_max: int = 2**14

    def __post_init__(self):
        require_finite(self)
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.eta is None:
            object.__setattr__(self, "eta", 1.0 / self.r)
        if not 2.0 / (1.0 + 2.0 * self.r) <= self.eta < 2.0:
            raise ValueError(
                f"eta must lie in [2/(1+2r), 2) = [{2.0 / (1.0 + 2.0 * self.r):.4g}, 2), "
                f"got {self.eta}"
            )
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.c2 < 0:
            raise ValueError("c2 must be nonnegative")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    def uncapped(self, alpha, delta):
        """The raw max rule before applying the ``n_max`` cap.

        A scalar pair gives an int.  Arrays broadcast and give a float array,
        since an uncapped level can exceed every integer type; a nan alpha
        (the padding of a ladder table) gives nan.
        """
        a, d = np.asarray(alpha, dtype=float), np.asarray(delta, dtype=float)
        if (a <= 0).any() or (d <= 0).any():
            raise ValueError("alpha and delta must be positive")
        n = np.ceil(self.c1 * _scalar_power(a, -1.0 / (2.0 * self.r)))
        if self.c2 > 0:
            n = np.maximum(n, np.ceil(self.c2 * _scalar_power(d, -self.eta)))
        n = np.maximum(n, 1.0)
        if np.isinf(n).any():
            raise OverflowError("cannot convert float infinity to integer")
        return int(n) if n.ndim == 0 else n

    def with_n_max(self, n_max: int) -> "LevelSchedule":
        return replace(self, n_max=n_max)


def n_of(alpha, delta, sched: LevelSchedule):
    """n(alpha, delta) = max(ceil(c1 alpha^(-1/2r)), ceil(c2 delta^(-eta))), capped.

    A scalar pair gives an int.  Arrays broadcast and give floats holding
    whole numbers, nan for a nan alpha.  Every capped entry logs one
    warning, in row-major order.
    """
    n = sched.uncapped(alpha, delta)
    if isinstance(n, int):
        if n > sched.n_max:
            log.warning(_CAP_MESSAGE, n, alpha, delta, sched.n_max)
            return sched.n_max
        return n
    capped = n > sched.n_max
    if capped.any():
        alpha, delta = np.broadcast_arrays(alpha, delta)
        for pair in zip(n[capped].tolist(), alpha[capped].tolist(), delta[capped].tolist()):
            log.warning(_CAP_MESSAGE, *pair, sched.n_max)
        n[capped] = sched.n_max
    return n


def nested_level(n_requested: int, n_fine: int) -> int:
    """Smallest divisor of ``n_fine`` that is >= ``n_requested``.

    Projections are exact only between nested grids, so requested levels are
    rounded up to the nearest available one.
    """
    if n_requested < 1:
        raise ValueError("requested level must be >= 1")
    if n_requested > n_fine:
        raise DataUnavailableError(
            f"requested level {n_requested} exceeds the finest available grid {n_fine}"
        )
    for n in range(n_requested, n_fine + 1):
        if n_fine % n == 0:
            return n
    return n_fine


def ladder_gap(n_fine: int) -> tuple[int, int] | None:
    """First pair of consecutive divisors of ``n_fine`` more than 2x apart, if any.

    Without such a gap ``nested_level`` rounds every request up by less than
    a factor 2, the step of the estimator's and the alpha grid's levels; a
    prime n (1 -> n) or n = 2p (2 -> p) has one.
    """
    small = [d for d in range(1, math.isqrt(n_fine) + 1) if n_fine % d == 0]
    divisors = sorted(set(small + [n_fine // d for d in small]))
    return next(((a, b) for a, b in zip(divisors, divisors[1:]) if b > 2 * a), None)


def _block_sums(v: np.ndarray, n_coarse: int) -> np.ndarray:
    # along the last axis: each row of a batch sums exactly as a single vector does
    block = v.shape[-1] // n_coarse
    return np.add.reduceat(v, np.arange(0, v.shape[-1], block), axis=-1)


def project_vector(vec: L2Vector, n_coarse: int) -> L2Vector:
    """Orthogonal projection onto the coarse indicator span (exact)."""
    n_fine = vec.grid.n_cells
    if n_fine % n_coarse != 0:
        raise ValueError(f"grids not nested: {n_coarse} does not divide {n_fine}")
    scale = np.sqrt(n_coarse / n_fine)
    return L2Vector(Grid(n_coarse), _block_sums(vec.coeffs, n_coarse) * scale)


def embed_vector(vec: L2Vector, grid_fine: Grid) -> L2Vector:
    """Isometric inclusion of a coarse-span function into a finer nested span."""
    n_coarse = vec.grid.n_cells
    n_fine = grid_fine.n_cells
    if n_fine % n_coarse != 0:
        raise ValueError(f"grids not nested: {n_coarse} does not divide {n_fine}")
    block = n_fine // n_coarse
    return L2Vector(grid_fine, np.repeat(vec.coeffs, block) * np.sqrt(n_coarse / n_fine))


def project(obs_fine: Observation, n_coarse: int) -> Observation:
    """Observation of the same realization through the coarser projection Q.

    Block-averaging the cell values is the exact orthogonal projection; for
    white noise the aggregated coordinates are again iid standard normal, so
    the projected observation follows the level-n_coarse model exactly.  A
    batch is projected row by row in one pass, and its shared exact data
    once.
    """
    n_fine = obs_fine.n
    if n_fine % n_coarse != 0:
        raise ValueError(f"grids not nested: {n_coarse} does not divide {n_fine}")
    if n_coarse == n_fine:
        return obs_fine
    scale = np.sqrt(n_coarse / n_fine)
    return Observation(
        grid=Grid(n_coarse),
        y_exact=project_vector(obs_fine.y_exact, n_coarse),
        delta=obs_fine.delta,
        coeffs=_block_sums(obs_fine.coeffs, n_coarse) * scale,
        noise=obs_fine.noise,
        seed_used=obs_fine.seed_used,
    )


def project_operator(op_fine: DiscreteOperator, n_coarse: int) -> DiscreteOperator:
    """Galerkin matrix on the coarse grid, obtained exactly as E^T M E.

    Because the coarse basis lies in the fine span, compressing the fine
    Galerkin matrix reproduces the coarse Galerkin matrix of the same
    operator up to rounding.  The fine operator's ``factor``, when it has
    one, supplies the coarse singular system, and the compression is then
    deferred until something reads the coarse ``matrix``; an operator
    without a factor compresses at once for its dense SVD.
    """
    n_fine = op_fine.n
    if n_fine % n_coarse != 0:
        raise ValueError(f"grids not nested: {n_coarse} does not divide {n_fine}")
    if n_coarse == n_fine:
        return op_fine
    block = n_fine // n_coarse

    def compressed():
        m = op_fine.matrix.reshape(n_coarse, block, n_coarse, block).sum(axis=(1, 3))
        m *= n_coarse / n_fine
        return m

    return DiscreteOperator(
        Grid(n_coarse), compressed, holder_s=op_fine.holder_s, factor=op_fine.factor
    )


class LevelData:
    """Level-indexed view of a batch of R realizations: n -> Observation at level n.

    ``obs_fine`` holds the R realizations on the fine grid (a single
    observation is the case R = 1).  Requested levels are rounded up to the
    nearest nested one, and each level is projected once for the whole batch;
    requests beyond the fine grid raise :class:`DataUnavailableError`.
    :meth:`per_level` caches a statistic of the whole batch per level, and
    :meth:`cached` any other result computed from the batch.
    """

    def __init__(self, obs_fine: Observation):
        self._obs = obs_fine
        self._cache = {obs_fine.n: obs_fine}
        self._levels = {}  # requested level -> nested level
        self._stats = {}  # key -> a result computed from the batch, e.g. (statistic, level)

    @property
    def n_fine(self) -> int:
        return self._obs.n

    @property
    def fine(self) -> Observation:
        return self._obs

    @property
    def rows(self) -> int:
        return self._obs.rows

    def level(self, n_requested: int) -> int:
        """The nested level that serves a request for ``n_requested``."""
        if n_requested not in self._levels:
            self._levels[n_requested] = nested_level(n_requested, self.n_fine)
        return self._levels[n_requested]

    def __call__(self, n_requested: int) -> Observation:
        level = self.level(n_requested)
        if level not in self._cache:
            self._cache[level] = project(self._obs, level)
        return self._cache[level]

    def per_level(self, stat, n_requested: int):
        """``stat`` of the whole batch at the level serving ``n_requested``, computed once."""
        return self.cached((stat, self.level(n_requested)), lambda: stat(self(n_requested)))

    def cached(self, key, compute):
        """``compute()``, computed once per hashable ``key`` for this batch."""
        if key not in self._stats:
            self._stats[key] = compute()
        return self._stats[key]
