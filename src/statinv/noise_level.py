"""First-difference noise-level estimation from a single data set.

The estimator

    dts_n = 1/(2 n^2) * sum_j (QY(t_{j+1 cell}) - QY(t_j cell))^2

is computed on consecutive cell values of the projected observation.  Cell
values carry the sqrt(n)-amplified noise sqrt(n) * delta * eps_j, which is
exactly what makes the 1/(2 n^2) prefactor consistent: for pure white noise
E[dts_n] = delta^2 (n-1)/n, while a Hoelder-s exact part contributes only
O(n^-(1+2s)).  The scaled estimate is delta_hat = tau * sqrt(dts_n), tau > 1.

``estimate_delta_sq`` and ``omega_plus_rate`` read a batch of R realizations
as one (R, n) array.  ``refine_delta_hat`` follows one row of a
:class:`LevelData` batch through its levels; the batch estimate of each level
is computed once, on the whole (R, n_level) block, and cached on the
``LevelData``, so the rows of a batch share it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .discretization import LevelData, LevelSchedule, project
from .errors import DataUnavailableError, require_finite
from .grid import L2Vector
from .noise import NoiseSpec, Observation, observe, pointwise_values
from .operators import DiscreteOperator

__all__ = [
    "NoiseEstimate",
    "ConcentrationReport",
    "EstimatorConfig",
    "estimate_delta_sq",
    "refine_delta_hat",
    "omega_plus_rate",
]

log = logging.getLogger(__name__)

MAX_REFINE_ITERATIONS = 50

# Entries of the difference block that estimate_delta_sq holds at once.
_CHUNK = 2**13


@dataclass(frozen=True)
class NoiseEstimate:
    """Result of the noise-level estimation loop."""

    delta_tilde_sq: float
    delta_hat: float
    n_used: int
    tau: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical frequency of the event delta_hat in [delta, K tau delta]."""

    delta_true: float
    K: float
    tau: float
    hit_rate: float
    replicates: int
    n: int


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the estimation stage.

    ``tau`` must exceed 1 (a surrogate for the Gaussian moment-equivalence
    constant, which is not computed); ``K`` widens the concentration band;
    ``p`` is the geometric level growth factor; the refinement loop stops
    once the trailing window of ``m_window`` estimates varies by at most
    ``eps`` relative to the current one.
    """

    tau: float = 1.5
    K: float = 3.0
    p: float = 2.0
    eps: float = 0.1
    m_window: int = 3
    n0: int = 16

    def __post_init__(self):
        require_finite(self)
        if self.tau <= 1.0:
            raise ValueError("tau must be > 1")
        if self.K <= 1.0:
            raise ValueError("K must be > 1")
        if self.p <= 1.0:
            raise ValueError("p must be > 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.m_window < 1:
            raise ValueError("m_window must be >= 1")
        if self.n0 < 2:
            raise ValueError("n0 must be >= 2")


def estimate_delta_sq(obs: Observation):
    """The first-difference estimate of delta^2 at the observation's level.

    Works along the last axis: an (R,) array for a batch, each entry
    bit-equal to the estimate of its row alone, and a float for one
    realization, which runs as a batch of one.  A batch is read a few rows
    at a time, so the temporaries stay small whatever R is and the process
    does not map fresh pages for them on every batch.
    """
    n = obs.n
    if n < 2:
        raise ValueError("estimation needs at least two cells")
    batch = obs.coeffs.ndim == 2
    out = np.empty(obs.rows)
    step = max(1, _CHUNK // n)
    for k in range(0, obs.rows, step):
        diffs = np.diff(pointwise_values(obs, slice(k, k + step) if batch else slice(None)), axis=-1)
        out[k : k + step] = np.sum(np.square(diffs, out=diffs), axis=-1)
    out /= 2.0 * n * n
    return out if batch else float(out[0])


def refine_delta_hat(
    op: DiscreteOperator,
    data: LevelData,
    est: EstimatorConfig,
    sched: LevelSchedule,
    row: int = 0,
    *,
    max_iterations: int = MAX_REFINE_ITERATIONS,
) -> NoiseEstimate:
    """Fixed-point refinement of delta_hat over growing discretization levels.

    Follows realization ``row`` of the batch ``data``; its estimate at a
    level is entry ``row`` of the batch estimate that ``data`` caches per
    level, bit-equal to the estimate of that row alone.  Starting at
    level ``est.n0``, each pass estimates delta_hat = tau * sqrt(dts_n) at
    the current level n, sets alpha = delta_hat^2 and requests the next
    level max(n(alpha, delta_hat), ceil(p * n)).  The loop always runs
    ``m_window`` passes, then stops once the trailing window of estimates
    spreads by at most ``eps * delta_hat``.  If the schedule requests a
    level beyond ``sched.n_max`` or the data source cannot supply it, the
    loop stops with ``converged=False`` and the last estimate is returned.
    """
    tau, p, eps, m_window = est.tau, est.p, est.eps, est.m_window
    n = est.n0
    history = []
    converged = False
    delta_tilde_sq = 0.0
    n_used = n
    k = 0
    while True:
        k += 1
        try:
            level = data.level(n)
        except DataUnavailableError:
            break
        if op.grid.n_cells % level != 0:
            raise ValueError("observation level is not nested in the operator grid")
        n_used = level
        delta_tilde_sq = np.atleast_1d(data.per_level(estimate_delta_sq, level))[row]
        delta_hat = tau * np.sqrt(delta_tilde_sq)
        history.append(delta_hat)
        if k >= m_window:
            window = history[-m_window:]
            if max(window) - min(window) <= eps * delta_hat:
                converged = True
                break
        if k >= max_iterations:
            log.warning("refinement did not settle within %d iterations", max_iterations)
            break
        if delta_hat <= 0.0:
            # constant data; no further level can change the estimate
            break
        alpha = delta_hat**2
        n_next = max(sched.uncapped(alpha, delta_hat), math.ceil(p * n_used))
        if n_next > sched.n_max:
            if n_used >= sched.n_max:
                log.debug("refinement stopped by the n_max=%d cap", sched.n_max)
                break
            n_next = sched.n_max  # exhaust the finest level before giving up
        n = n_next

    return NoiseEstimate(
        delta_tilde_sq=float(delta_tilde_sq),
        delta_hat=float(tau * np.sqrt(delta_tilde_sq)),
        n_used=int(n_used),
        tau=float(tau),
        iterations=k,
        converged=converged,
    )


def omega_plus_rate(
    op: DiscreteOperator,
    x_true: L2Vector,
    delta: float,
    tau: float,
    K: float,
    n: int,
    replicates: int,
    seed: int,
    spec: NoiseSpec | None = None,
) -> ConcentrationReport:
    """Empirical probability that delta_hat = tau * dts_n^(1/2) lands in [delta, K tau delta].

    Observations are drawn on the operator grid and projected to level ``n``;
    for white noise the projection reproduces the level-n model exactly.
    ``spec`` defaults to white noise with the given seed.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if op.n % n != 0:
        raise ValueError(f"level {n} is not nested in the operator grid {op.n}")
    if spec is None:
        spec = NoiseSpec.gaussian_white(seed)
    obs = observe(op, x_true, delta, spec, replicate=list(range(replicates)))
    delta_hat = tau * np.sqrt(estimate_delta_sq(project(obs, n)))
    hits = int(np.count_nonzero((delta <= delta_hat) & (delta_hat <= K * tau * delta)))
    return ConcentrationReport(
        delta_true=float(delta),
        K=float(K),
        tau=float(tau),
        hit_rate=hits / replicates,
        replicates=replicates,
        n=int(n),
    )
