"""Parameter-choice rules: oracle, discrepancy, and Lepskii balancing.

The balancing principle works on the geometric grid alpha_j = delta^2 q^j,
j = 0..m with m = ceil(2 log_q(||T||^2 / delta)), and accepts index j when

    ||x_k - x_j|| <= 4 kappa delta Psi(k)   for all k <= j,

where kappa = sqrt(m) and Psi(j) = C_psi sqrt(rank(Q_j) / (4 alpha_j)) bounds
the standard deviation of the noise propagated through R_{alpha_j} Q_j.  The
chosen index j* is the maximal accepted one; delta may be the true noise
level (``data.fine.delta``, the default) or the estimate delta_hat, which
is what makes the combined pipeline purely data driven.  ``geometric_grid``
is the only code that lays the grid out: the balancing rule calls it at its
delta inputs, and the harness reads the oracle's and the discrepancy
principle's grid from it at the true delta.  ``LepskiiConfig`` holds the
rule's constants q, C_psi and max_alpha = ||T||^2, never a delta.

Candidates are Tikhonov solutions at level n(alpha_j, delta), computed as
the spectral series V_r F_alpha(s^2) s U_r^T y of the level operator through
its ``uty`` and ``v``, so that all alphas and replicates reuse the singular
system cached when the level is built.

Every rule takes a batch of R data rows and returns one record of per-row
arrays: the chosen alphas (R,), the chosen solutions (R, n) and the
rule's diagnostics; a single realization is R = 1.  How a rule walks the
rows is its own business: the balancing rule handles all R at once (a
:class:`LevelData`, so the known-delta and the estimated-delta
pipelines, and the noise-level estimator, read the same projected
observations), while the alpha-grid rules, the oracle and the
discrepancy principle, share one loop over row blocks: one U^T y per
block, each row's alpha read off an (alphas, rank) table of that U^T y
(the error of the oracle, the residual of the discrepancy principle),
and one batched solve at the chosen alphas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .discretization import LevelData, LevelSchedule, n_of, project_operator
from .errors import WhiteNoiseError, require_finite, require_finite_coeffs
from .filters import Filter, RegularizedSolution, bias_value, filter_value, regularize_svd, tikhonov
from .grid import L2Vector
from .noise import Observation
from .noise_level import EstimatorConfig, refine_delta_hat
from .operators import DiscreteOperator, SourceCondition

__all__ = [
    "LepskiiConfig",
    "geometric_grid",
    "LepskiiResult",
    "OracleResult",
    "DiscrepancyResult",
    "LevelSolverCache",
    "oracle_choice",
    "discrepancy_principle",
    "lepskii_choose",
    "data_driven_choose",
]


@dataclass
class LepskiiConfig:
    """Constants of the balancing principle: grid ratio q, Psi factor C_psi
    and the cap max_alpha of the grid (see ``geometric_grid``)."""

    q: float
    C_psi: float
    max_alpha: float

    def __post_init__(self):
        require_finite(self)
        if self.q <= 1.0:
            raise ValueError("q must be > 1")
        if self.C_psi <= 0:
            raise ValueError("C_psi must be positive")
        if self.max_alpha <= 0:
            raise ValueError("max_alpha must be positive")


_TINY = np.finfo(float).tiny  # the least positive normal double


def geometric_grid(q: float, max_alpha: float, deltas) -> Tuple[np.ndarray, np.ndarray]:
    """The grids alpha_j = delta^2 q^j, j = 0..m, of the balancing rule, one per delta.

    m = max(1, ceil(2 log_q(max_alpha / delta))), lowered while
    alpha_m > q * max_alpha.  ``deltas`` is a scalar or a (D,) array;
    returns m (D,) and the (D, W) table of the grids, W = max(m) + 1, nan
    past a row's alpha_m.  Each row is alpha_0 = delta^2 times the powers
    q^j of an arange of its own length, so it is bit-equal to the grid of
    its delta alone.  Raises ``ValueError`` naming delta when delta^2 is not
    a positive normal double or the grid leaves the float range.
    """
    alpha0, m = [], []
    for delta in np.atleast_1d(np.asarray(deltas, dtype=float)).tolist():
        try:
            a0 = delta**2  # raises OverflowError past the float range
            if not (delta > 0 and _TINY <= a0 < math.inf):
                raise OverflowError
            size = max(int(np.ceil(2.0 * np.log(max_alpha / delta) / np.log(q))), 1)
            # keep the grid within the loop guard alpha <= ||T||^2 (up to one q step)
            while size > 1 and a0 * q**size > q * max_alpha:
                size -= 1
            if not math.isfinite(a0 * q**size):
                raise OverflowError
        except OverflowError:
            raise ValueError(f"delta = {delta!r} has no alpha grid delta^2 q^j in the normal doubles") from None
        alpha0.append(a0)
        m.append(size)
    m, alpha0 = np.array(m), np.array(alpha0)
    alphas = np.full((m.size, int(m.max()) + 1), np.nan)
    for size in set((m + 1).tolist()):
        same = m + 1 == size
        alphas[same, :size] = alpha0[same, None] * q ** np.arange(size)
    return m, alphas


# Entries of a block of fine-grid rows that a rule holds at once: the
# differences in LepskiiResult.errors, the data rows of one oracle or
# discrepancy block, and their (rows, alphas, rank) score tables.
_CHUNK = 2**16

# The balancing candidates are Tikhonov solutions.
_TIKHONOV = tikhonov()


def _embed(x: np.ndarray, level: int, n: int) -> np.ndarray:
    """Rows of level coefficients (k, level) embedded in the grid of n cells.

    Each row gets the bits ``embed_vector`` gives it alone; the scaling is
    done in place, so the (k, n) result is the only temporary.
    """
    out = np.repeat(x, n // level, axis=1)
    out *= np.sqrt(level / n)
    return out


@dataclass
class LepskiiResult:
    """Balancing choices for the R rows of one data batch, as arrays over the rows.

    Row i has the candidates j = 0..m[i]; the (R, W) tables ``alphas``,
    ``psi`` and ``candidate_levels`` hold candidate j of row i at [i, j],
    W = max(m) + 1, and are nan (level 0) past a row's last candidate.
    ``accepted[i, j]`` is true when candidate j >= 1 passed its checks
    against every k < j, ``pairs[i]`` counts the pairs row i checked, and
    ``row_flags[i]`` lists row i's flags.  ``x_star`` (R, n) holds each
    row's chosen candidate embedded in the fine grid.  ``alpha_check`` and
    ``j_check`` are the source-condition diagnostic per row, None without a
    source.  ``blocks`` holds the candidates level by level:
    ``(level, rows, indices, coeffs)``, with ``coeffs[k]`` candidate
    ``indices[k]`` of row ``rows[k]``.
    """

    j_star: np.ndarray
    alpha_star: np.ndarray
    m: np.ndarray
    kappa: np.ndarray
    alphas: np.ndarray
    psi: np.ndarray
    candidate_levels: np.ndarray
    accepted: np.ndarray
    pairs: np.ndarray
    row_flags: list
    x_star: np.ndarray
    blocks: list
    alpha_check: Optional[np.ndarray] = None
    j_check: Optional[np.ndarray] = None

    @property
    def levels(self) -> list:
        """The level of every candidate of every row, row by row."""
        return self.candidate_levels[self.candidate_levels > 0].tolist()

    @property
    def flags(self) -> list:
        """The flags of every row, row by row."""
        return [flag for flags in self.row_flags for flag in flags]

    @property
    def accepted_pairs_checked(self) -> int:
        return int(self.pairs.sum())

    def errors(self, x_true: L2Vector) -> np.ndarray:
        """||x_true - x_j|| per row and candidate, (R, W); inf past a row's last one.

        Each candidate is embedded from its own level as ``embed_vector``
        does, and its distance is the 1-D norm's dot product, so every entry
        is bit-equal to ``np.linalg.norm`` of that one candidate's difference.
        """
        n = x_true.grid.n_cells
        out = np.full(self.alphas.shape, np.inf)
        step = max(1, _CHUNK // n)
        for level, ii, jj, x in self.blocks:
            for k in range(0, ii.size, step):
                d = _embed(x[k : k + step], level, n)
                np.subtract(x_true.coeffs, d, out=d)
                out[ii[k : k + step], jj[k : k + step]] = np.sqrt(np.vecdot(d, d))
        return out


class LevelSolverCache:
    """Per-level operators derived from one fine operator."""

    def __init__(self, op_fine: DiscreteOperator):
        self.op_fine = op_fine
        self._ops = {op_fine.n: op_fine}

    def operator(self, n: int) -> DiscreteOperator:
        if n not in self._ops:
            self._ops[n] = project_operator(self.op_fine, n)
        return self._ops[n]


def _solve_rows(
    filt: Filter, op: DiscreteOperator, obs: Observation, alphas: np.ndarray, pick
) -> RegularizedSolution:
    """Every row of ``obs`` solved at the grid alpha its (alphas, rank) table picks.

    The rows go in blocks of ``_CHUNK // n``: one U^T y for the block, then
    ``pick(c, rows)`` on slices of rows whose (rows, alphas, rank) tables hold
    at most ``_CHUNK`` entries, returning each row's index into the sorted
    ``alphas``, and one batched ``regularize_svd`` that solves every row of
    the block at its own alpha from that same U^T y.  Returns the blocks'
    solutions as one ``RegularizedSolution`` of (R,) and (R, n) arrays, each
    row bit-equal to the row solved alone.
    """
    ys = np.atleast_2d(obs.coeffs)
    block, step = max(1, _CHUNK // op.n), max(1, _CHUNK // max(1, alphas.size * op.rank))
    chosen, residual, x = np.empty(ys.shape[0]), np.empty(ys.shape[0]), np.empty(ys.shape)
    for b in range(0, ys.shape[0], block):
        rows = ys[b : b + block]
        c = op.uty(rows)
        picks = np.empty(rows.shape[0], dtype=int)
        for k in range(0, picks.size, step):
            picks[k : k + step] = pick(c[k : k + step], rows[k : k + step])
        sol = regularize_svd(filt, op, rows, alphas[picks], uty=c)
        chosen[b : b + block], residual[b : b + block], x[b : b + block] = sol.alpha, sol.residual_norm, sol.x_alpha
    return RegularizedSolution(alpha=chosen, x_alpha=x, residual_norm=residual)


def _sorted_grid(alpha_grid: Sequence[float]) -> np.ndarray:
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    return alphas


@dataclass(frozen=True)
class OracleResult:
    """The oracle's choice for the R rows of a batch: alpha (R,) and solution x (R, n)."""

    alpha: np.ndarray
    x: np.ndarray


def oracle_choice(
    op: DiscreteOperator,
    x_true: L2Vector,
    obs: Observation,
    filt: Filter,
    alpha_grid: Sequence[float],
) -> OracleResult:
    """Grid alpha minimizing the true error ||x_alpha - x_true||, per row (benchmark only).

    The whole grid is scored in the right singular basis from each row's
    U^T y: the solution at alpha is V_r w_alpha with w_alpha = F_alpha(s^2)
    s U^T y, so ||x_alpha - x_true|| and ||w_alpha - V_r^T x_true|| differ
    only by the part of x_true outside range(V_r), which is the same for
    every alpha.  V_r^T x_true and the sorted grid are computed once for the
    batch; the rows are scored and solved in blocks (``_solve_rows``).
    Returns the winner's alpha and solution for every row of ``obs`` (one
    realization is one row), each bit-equal to the row scored and solved
    alone; ties break toward the smallest alpha.
    """
    alphas = _sorted_grid(alpha_grid)
    s = op.s[: op.rank]
    # same product order as spectral_series, one row per alpha
    gains = filter_value(filt, alphas[:, None], s**2) * s
    target = op.vtx(x_true.coeffs)

    def pick(c, rows):
        scores = np.linalg.norm(gains * c[:, None] - target, axis=-1)
        return np.argmin(scores, axis=-1)  # the first, smallest alpha

    sol = _solve_rows(filt, op, obs, alphas, pick)
    return OracleResult(alpha=sol.alpha, x=sol.x_alpha)


@dataclass(frozen=True)
class DiscrepancyResult:
    """The discrepancy principle's choice for the R rows of a batch.

    ``alpha``, ``satisfied`` and ``residual`` ||T x - y|| are (R,) arrays,
    the solution ``x`` is (R, n).
    """

    alpha: np.ndarray
    satisfied: np.ndarray
    residual: np.ndarray
    x: np.ndarray


def discrepancy_principle(
    op: DiscreteOperator,
    obs: Observation,
    filt: Filter,
    tau_dp: float,
    alpha_grid: Sequence[float],
) -> DiscrepancyResult:
    """Largest grid alpha whose residual stays within tau_dp * delta, per row.

    Returns the choice for every row of ``obs`` (one realization is one
    row).  The residuals of the whole grid are read off each row's
    c = U_r^T y: T x_alpha - y has the components b_alpha(s_k^2) c_k in the
    left singular basis, b_alpha the filter's bias, plus the part of y
    outside range(U_r), whose squared norm ||y||^2 - ||c||^2 is added when
    the rank is below n (at full rank it is zero up to a cancellation error
    that would swamp small residuals).  A row falls back to the smallest
    grid alpha, with ``satisfied`` false, when no alpha qualifies.
    ``satisfied`` is this verdict; ``residual`` and ``x`` come from the
    winner's ``regularize_svd`` (``_solve_rows``).  Requires noise that
    is bounded in norm (dirac or scaled_rv); white-noise observations are
    rejected because their residual norm diverges with the discretization
    level and the rule loses its meaning.
    """
    if tau_dp <= 1.0:
        raise ValueError("tau_dp must be > 1")
    if obs.noise.kind == "gaussian_white":
        raise WhiteNoiseError(
            "the discrepancy principle cannot be applied to white-noise "
            "observations; use dirac or scaled_rv noise"
        )
    alphas = _sorted_grid(alpha_grid)
    threshold = tau_dp * obs.delta
    bias = bias_value(filt, alphas[:, None], op.s[: op.rank] ** 2)
    satisfied = []

    def pick(c, rows):
        t = bias * c[:, None]
        res_sq = np.vecdot(t, t)
        if op.rank < op.n:
            res_sq += np.maximum(np.vecdot(rows, rows) - np.vecdot(c, c), 0.0)[:, None]
        ok = np.sqrt(res_sq) <= threshold
        any_ok = ok.any(axis=-1)
        satisfied.append(any_ok)
        # the largest qualifying alpha, else the smallest alpha
        return np.where(any_ok, alphas.size - 1 - np.argmax(ok[:, ::-1], axis=-1), 0)

    sol = _solve_rows(filt, op, obs, alphas, pick)
    return DiscrepancyResult(
        alpha=sol.alpha, satisfied=np.concatenate(satisfied), residual=sol.residual_norm, x=sol.x_alpha
    )


@dataclass
class _Ladders:
    """Alpha grid, candidate levels, Psi and acceptance band of D delta inputs.

    The (D, W) tables hold candidate j of ladder i at [i, j], nan (level 0)
    past its last candidate m[i]; the flags are lists per ladder, and
    ``alpha_check`` and ``j_check`` (D,) arrays, None without a source.
    """

    m: np.ndarray
    kappa: np.ndarray
    alphas: np.ndarray
    levels: np.ndarray
    psi: np.ndarray
    band: np.ndarray
    psi_flags: list
    source_flags: list
    alpha_check: Optional[np.ndarray]
    j_check: Optional[np.ndarray]

    @classmethod
    def build(
        cls, cfg: LepskiiConfig, deltas: np.ndarray, data: LevelData, sched: LevelSchedule, source
    ) -> "_Ladders":
        """The ladders of ``cfg`` at the (D,) ``deltas``, each entry bit-equal to its delta alone.

        The grids are ``geometric_grid``'s.  Every level is
        ``data.level(n_of(alpha_j, delta, sched))``, and each capped
        candidate logs its ``n_max`` warning.  The source-condition
        diagnostic reads one table Phi = radius * phi(alpha_j); phi is called
        once per candidate on its np.float64 alpha, since a user's phi need
        not take arrays and an array power may round differently.
        """
        m, alphas = geometric_grid(cfg.q, cfg.max_alpha, deltas)
        kappa = np.sqrt(m)
        valid = ~np.isnan(alphas)
        requested = n_of(alphas, deltas[:, None], sched)[valid]
        # each distinct request is served once; np.unique would import numpy.ma
        wanted = sorted(set(requested.tolist()))
        served = np.array([data.level(int(n)) for n in wanted])
        levels = np.zeros(alphas.shape, dtype=int)
        levels[valid] = served[np.searchsorted(wanted, requested)]
        psi = cfg.C_psi * np.sqrt(levels / (4.0 * alphas))
        rising = np.any(np.diff(psi, axis=1) >= 0, axis=1).tolist()
        psi_flags = [["psi_not_decreasing"] if bad else [] for bad in rising]
        source_flags = [[] for _ in range(m.size)]
        alpha_check = j_check = None
        if source is not None:
            phi = np.full(alphas.shape, np.nan)
            phi[valid] = [source.radius * source.phi(a) for a in alphas[valid]]
            # comparisons with the nan padding are false
            feasible = phi <= deltas[:, None] * psi
            j_check = np.where(feasible.any(axis=1), alphas.shape[1] - 1 - np.argmax(feasible[:, ::-1], axis=1), 0)
            alpha_check = alphas[np.arange(m.size), j_check]
            not_increasing = np.any(np.diff(phi, axis=1) <= 0, axis=1).tolist()
            violated = (phi[:, 0] > deltas * psi[:, 0]).tolist()
            source_flags = [
                ["phi_not_increasing"] * bad + ["side_condition_violated"] * off
                for bad, off in zip(not_increasing, violated)
            ]
        band = (4.0 * kappa * deltas)[:, None] * psi
        return cls(m, kappa, alphas, levels, psi, band, psi_flags, source_flags, alpha_check, j_check)


def lepskii_choose(
    op: DiscreteOperator,
    data: LevelData,
    cfg: LepskiiConfig,
    sched: LevelSchedule,
    source: Optional[SourceCondition] = None,
    cache: Optional[LevelSolverCache] = None,
    delta: Optional[float | np.ndarray] = None,
) -> LepskiiResult:
    """Balancing choice over the geometric grid with per-candidate levels, for a batch.

    ``data`` holds R data rows.  Every row balances with ``cfg`` at the
    noise level ``delta``: the true one, ``data.fine.delta``, when it is
    omitted, one value for every row, or row i at ``delta[i]`` of an (R,)
    array (the data-driven pipeline's estimates).  The candidates of each
    delta input are laid out once, in one table for all of them
    (``_Ladders``).  Candidate j of a row reads its data at level
    ``n(alpha_j, delta)``, rounded up to a nested level by ``data``.  All
    candidates of one level are computed in one product from one U^T y per
    row, and the pairwise distances are taken after isometric embedding into
    the grid of L cells, L the lcm of the candidate levels.  When a source
    condition is supplied, the observable-vs-bias balance diagnostic
    alpha_check = max{j: Phi(j) <= delta Psi(j)} is reported as well, with
    Phi(j) = radius * phi(alpha_j).
    """
    if cache is None:
        cache = LevelSolverCache(op)
    elif cache.op_fine is not op:
        raise ValueError("cache was built for a different operator")
    rows = data.rows
    deltas = np.asarray(data.fine.delta if delta is None else delta, dtype=float)
    if deltas.ndim and deltas.shape != (rows,):
        raise ValueError(f"{deltas.size} delta inputs for {rows} data rows")
    if not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise ValueError("delta inputs must be positive and finite")
    ladders = _Ladders.build(cfg, deltas.reshape(-1), data, sched, source)
    # one ladder for every row, or one per row
    of_row = np.arange(rows) if deltas.ndim else np.zeros(rows, dtype=int)
    m = ladders.m[of_row]
    width = int(m.max()) + 1
    alphas, psi, band, levels = (t[of_row] for t in (ladders.alphas, ladders.psi, ladders.band, ladders.levels))

    # candidates: one U^T y per (batch, level), one product per level; the
    # distinct values come from bincount and sorted runs, as np.unique's first
    # call imports numpy.ma (about 20 ms)
    present = np.flatnonzero(np.bincount(levels[levels > 0])).tolist()
    cells = int(np.lcm.reduce(present))
    embedded = np.zeros((rows, width, cells))
    blocks = []
    for level in present:
        ii, jj = np.nonzero(levels == level)  # ii is sorted
        first = np.concatenate(([True], ii[1:] != ii[:-1]))
        need, pos = ii[first], np.cumsum(first) - 1
        lop = cache.operator(level)
        s = lop.s[: lop.rank]
        uty = lop.uty(data(level).coeffs.reshape(rows, level)[need])
        # each row bit-equal to spectral_series at its own alpha
        x = require_finite_coeffs(lop.v(filter_value(_TIKHONOV, alphas[ii, jj][:, None], s**2) * s * uty[pos]))
        embedded[ii, jj] = _embed(x, level, cells)
        blocks.append((level, ii, jj, x))

    # acceptance of j against k = 0, 1, ... for all rows at once; a row stops
    # checking j at its first failing k, as the scalar rule does
    accepted = np.zeros((rows, width), dtype=bool)
    pairs = np.zeros(rows, dtype=int)
    diff = np.empty((rows, cells))  # one buffer for every (k, j) pair
    for j in range(1, width):
        checking = j <= m
        for k in range(j):
            pairs += checking
            np.subtract(embedded[:, k], embedded[:, j], out=diff)
            checking &= ~(np.sqrt(np.vecdot(diff, diff)) > band[:, k])
        accepted[:, j] = checking

    # j* is the largest accepted index, 0 when none is; x* is embedded in
    # the fine grid one level block at a time, each scaled coarse value
    # broadcast over its fine cells, so no (rows, n) temporary is made
    some = accepted.any(axis=1)
    j_star = np.where(some, width - 1 - np.argmax(accepted[:, ::-1], axis=1), 0)
    x_star = np.empty((rows, op.n))
    for level, ii, jj, x in blocks:
        hit = jj == j_star[ii]
        x_star.reshape(rows, level, -1)[ii[hit]] = (x[hit] * np.sqrt(level / op.n))[:, :, None]
    return LepskiiResult(
        j_star=j_star,
        alpha_star=alphas[np.arange(rows), j_star],
        m=m,
        kappa=ladders.kappa[of_row],
        alphas=alphas,
        psi=psi,
        candidate_levels=levels,
        accepted=accepted,
        pairs=pairs,
        row_flags=[
            ladders.psi_flags[i] + ([] if ok else ["lepskii_degenerate"]) + ladders.source_flags[i]
            for i, ok in zip(of_row.tolist(), some.tolist())
        ],
        x_star=x_star,
        blocks=blocks,
        alpha_check=None if source is None else ladders.alpha_check[of_row],
        j_check=None if source is None else ladders.j_check[of_row],
    )


def data_driven_choose(
    op: DiscreteOperator,
    raw_data: LevelData,
    est_cfg: EstimatorConfig,
    lep_cfg: LepskiiConfig,
    sched: LevelSchedule,
    source: Optional[SourceCondition] = None,
    cache: Optional[LevelSolverCache] = None,
) -> Tuple[list, LepskiiResult]:
    """Fully data-driven pipeline: estimate delta_hat per row, then balance with it.

    Each row's delta_hat comes from one ``refine_delta_hat`` call on that
    row; the first call refines all rows of ``raw_data`` in one loop and
    caches the result there, so the others only read it.  One batched
    ``lepskii_choose`` call then balances every row with its own estimate,
    laying out one candidate ladder per row.  Returns the estimates, one per
    row, and the Lepskii result, whose ``x_star`` holds the chosen
    solutions.  A non-converged estimate is flagged but still used.
    """
    estimates = [refine_delta_hat(op, raw_data, est_cfg, sched, row=i) for i in range(raw_data.rows)]
    delta_hat = np.array([e.delta_hat for e in estimates])
    # a zero estimate (constant data) is floored so that the alpha grid exists
    deltas = np.where(delta_hat > 0.0, delta_hat, 1e-12)
    result = lepskii_choose(op, raw_data, lep_cfg, sched, source=source, cache=cache, delta=deltas)
    for flags, estimate in zip(result.row_flags, estimates):
        if not estimate.converged:
            flags.append("estimator_not_converged")
        if estimate.delta_hat <= 0.0:
            flags.append("delta_hat_floor")
    return estimates, result
