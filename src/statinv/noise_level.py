"""First-difference noise-level estimation from a single data set.

The estimator

    dts_n = 1/(2 n^2) * sum_j (QY(t_{j+1 cell}) - QY(t_j cell))^2

is computed on consecutive cell values of the projected observation.  Cell
values carry the sqrt(n)-amplified noise sqrt(n) * delta * eps_j, which is
exactly what makes the 1/(2 n^2) prefactor consistent: for pure white noise
E[dts_n] = delta^2 (n-1)/n, while a Hoelder-s exact part contributes only
O(n^-(1+2s)).  The scaled estimate is delta_hat = tau * sqrt(dts_n), tau > 1.

``estimate_delta_sq`` and ``omega_plus_rate`` read a batch of R realizations
as one (R, n) array.  ``refine_delta_hat`` returns one row's refinement of a
:class:`LevelData` batch, but refines all R rows in one loop on its first
call and caches the result on the ``LevelData``: each pass groups the
rows by the level they request and reads their estimates off that level's
batch estimate, computed once on the whole (R, n_level) block.
"""

from __future__ import annotations

import logging
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
    does not map fresh pages for them on every batch.  Raises
    ``FloatingPointError`` when the sum of squared differences overflows.
    """
    n = obs.n
    if n < 2:
        raise ValueError("estimation needs at least two cells")
    batch = obs.coeffs.ndim == 2
    out = np.empty(obs.rows)
    step = max(1, _CHUNK // n)
    with np.errstate(over="ignore"):  # an overflow is reported below, once
        for k in range(0, obs.rows, step):
            diffs = np.diff(pointwise_values(obs, slice(k, k + step) if batch else slice(None)), axis=-1)
            out[k : k + step] = np.sum(np.square(diffs, out=diffs), axis=-1)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"the noise-level estimate overflows at level {n}: "
            "the squared differences of the data leave the float range"
        )
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

    Returns the refinement of realization ``row`` of the batch ``data``.
    Starting at level ``est.n0``, each pass estimates delta_hat = tau *
    sqrt(dts_n) at the current level n, sets alpha = delta_hat^2 and requests
    the next level max(n(alpha, delta_hat), ceil(p * n)).  The loop always
    runs ``m_window`` passes, then stops once the trailing window of
    estimates spreads by at most ``eps * delta_hat``.  If the schedule
    requests a level beyond ``sched.n_max`` or the data source cannot supply
    it, the loop stops with ``converged=False`` and the last estimate is
    returned.

    The first call refines every row of ``data`` at once (``_refine_rows``)
    and caches the result on ``data``; each row's estimate is bit-equal to
    that row refined alone.
    """
    key = (_refine_rows, op.grid.n_cells, est, sched, max_iterations)
    delta_tilde_sq, n_used, iterations, converged = data.cached(
        key, lambda: _refine_rows(op, data, est, sched, max_iterations)
    )
    dts = delta_tilde_sq[row]
    return NoiseEstimate(
        delta_tilde_sq=float(dts),
        delta_hat=float(est.tau * np.sqrt(dts)),
        n_used=int(n_used[row]),
        tau=float(est.tau),
        iterations=int(iterations[row]),
        converged=bool(converged[row]),
    )


def _refine_rows(
    op: DiscreteOperator, data: LevelData, est: EstimatorConfig, sched: LevelSchedule, max_iterations: int
) -> tuple:
    """The refinement of ``refine_delta_hat`` for all R rows of ``data`` in one loop.

    Returns the (R,) arrays delta_tilde_sq, n_used, iterations and
    converged.  Each pass reads the active rows' estimates off the batch
    estimate that ``data`` caches per level, one group of rows per requested
    level, and writes them into an (R, m_window) ring of trailing estimates;
    the rows that stop drop out.
    """
    tau, p, eps, m_window = est.tau, est.p, est.eps, est.m_window
    rows = data.rows
    delta_tilde_sq = np.zeros(rows)
    n_used = np.full(rows, est.n0)
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    history = np.empty((rows, m_window))
    request = np.full(rows, est.n0)
    active = np.arange(rows)
    k = 0
    while active.size:
        k += 1
        iterations[active] = k
        wanted = request[active]
        requests = sorted(set(wanted.tolist()))
        for n in requests:
            try:
                level = data.level(n)
            except DataUnavailableError:
                # these rows stop and keep their last estimate
                active, wanted = active[wanted != n], wanted[wanted != n]
                continue
            if op.grid.n_cells % level != 0:
                raise ValueError("observation level is not nested in the operator grid")
            mine = active if len(requests) == 1 else active[wanted == n]
            n_used[mine] = level
            delta_tilde_sq[mine] = np.atleast_1d(data.per_level(estimate_delta_sq, level))[mine]
        delta_hat = tau * np.sqrt(delta_tilde_sq[active])
        history[active, (k - 1) % m_window] = delta_hat
        if k >= m_window:
            window = history[active]
            settled = window.max(axis=1) - window.min(axis=1) <= eps * delta_hat
            converged[active[settled]] = True
            active, delta_hat = active[~settled], delta_hat[~settled]
        if k >= max_iterations:
            for _ in range(active.size):
                log.warning("refinement did not settle within %d iterations", max_iterations)
            break
        constant = delta_hat <= 0.0  # no further level can change the estimate
        if constant.any():
            active, delta_hat = active[~constant], delta_hat[~constant]
        # alpha = delta_hat^2 by the scalar power; the array square is x*x, which can round differently
        alpha = np.array([d**2 for d in delta_hat.tolist()])
        n_next = np.maximum(sched.uncapped(alpha, delta_hat), np.ceil(p * n_used[active]))
        over = n_next > sched.n_max
        if over.any():
            # a row below the cap exhausts the finest level before giving up
            stop = over & (n_used[active] >= sched.n_max)
            n_next[over] = sched.n_max
            if stop.any():
                log.debug("refinement of %d rows stopped by the n_max=%d cap", stop.sum(), sched.n_max)
        else:
            stop = over
        request[active] = n_next
        active = active[~stop]

    return delta_tilde_sq, n_used, iterations, converged


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
