"""Parameter-choice rules: oracle, discrepancy, and Lepskii balancing.

The balancing principle works on the geometric grid alpha_j = delta^2 q^j,
j = 0..m with m = ceil(2 log_q(||T||^2 / delta)), and accepts index j when

    ||x_k - x_j|| <= 4 kappa delta Psi(k)   for all k <= j,

where kappa = sqrt(m) and Psi(j) = C_psi sqrt(rank(Q_j) / (4 alpha_j)) bounds
the standard deviation of the noise propagated through R_{alpha_j} Q_j.  The
chosen index j* is the maximal accepted one; delta may be the true noise
level or the estimate delta_hat, which is what makes the combined pipeline
purely data driven.

Candidates are Tikhonov solutions at level n(alpha_j, delta), computed as
the spectral series of the level operator from its cached SVD, so that all
alphas and replicates reuse the factorization made when the level is built.
The level data come from the caller's data source (a :class:`LevelData` of
one realization), so the known-delta and the estimated-delta pipelines, and
the noise-level estimator, read the same projected observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .discretization import LevelSchedule, embed_vector, n_of, project_operator
from .errors import WhiteNoiseError, require_finite
from .filters import Filter, filter_value, regularize_svd, spectral_series, tikhonov
from .grid import L2Vector
from .noise import Observation
from .noise_level import EstimatorConfig, NoiseEstimate, refine_delta_hat
from .operators import DiscreteOperator, SourceCondition

__all__ = [
    "LepskiiConfig",
    "LepskiiResult",
    "DiscrepancyResult",
    "LevelSolverCache",
    "oracle_choice",
    "discrepancy_principle",
    "lepskii_choose",
    "data_driven_choose",
]


@dataclass
class LepskiiConfig:
    """Geometric alpha grid for the balancing principle.

    ``delta_input`` is the noise level fed to the rule -- the true delta for
    the known-level variant, the estimate delta_hat for the data-driven one.
    The grid starts at alpha_0 = delta_input^2 and is capped so that
    alpha_m <= q * max_alpha.
    """

    q: float
    C_psi: float
    max_alpha: float
    delta_input: float

    def __post_init__(self):
        require_finite(self)
        if self.q <= 1.0:
            raise ValueError("q must be > 1")
        if self.C_psi <= 0:
            raise ValueError("C_psi must be positive")
        if self.max_alpha <= 0:
            raise ValueError("max_alpha must be positive")
        if self.delta_input <= 0:
            raise ValueError("delta_input must be positive")

    @property
    def alpha0(self) -> float:
        return self.delta_input**2

    @property
    def m(self) -> int:
        m = int(np.ceil(2.0 * np.log(self.max_alpha / self.delta_input) / np.log(self.q)))
        m = max(m, 1)
        # keep the grid within the loop guard alpha <= ||T||^2 (up to one q step)
        while m > 1 and self.alpha0 * self.q**m > self.q * self.max_alpha:
            m -= 1
        return m

    @property
    def kappa(self) -> float:
        return float(np.sqrt(self.m))

    @property
    def alphas(self) -> np.ndarray:
        return self.alpha0 * self.q ** np.arange(self.m + 1)

    def with_delta(self, delta_input: float) -> "LepskiiConfig":
        return replace(self, delta_input=delta_input)


@dataclass
class LepskiiResult:
    """Chosen index and the full candidate diagnostics."""

    j_star: int
    alpha_star: float
    candidates: list  # (alpha_j, ||x_j||, Psi(j)) per candidate
    accepted_pairs_checked: int
    m: int
    kappa: float
    levels: list
    solutions: list  # candidate solutions embedded in the fine grid
    accepted: list
    accepted_is_prefix: bool
    flags: list = field(default_factory=list)
    alpha_check: Optional[float] = None
    j_check: Optional[int] = None

    @property
    def x_star(self) -> L2Vector:
        return self.solutions[self.j_star]


class LevelSolverCache:
    """Per-level operators derived from one fine operator."""

    def __init__(self, op_fine: DiscreteOperator):
        self.op_fine = op_fine
        self._ops = {op_fine.n: op_fine}

    def operator(self, n: int) -> DiscreteOperator:
        if n not in self._ops:
            self._ops[n] = project_operator(self.op_fine, n)
        return self._ops[n]


def oracle_choice(
    op: DiscreteOperator,
    x_true: L2Vector,
    obs: Observation,
    filt: Filter,
    alpha_grid: Sequence[float],
) -> Tuple[float, float, L2Vector]:
    """Grid alpha minimizing the true error ||x_alpha - x_true|| (benchmark only).

    The whole grid is scored in the right singular basis from one U^T y: the
    solution at alpha is V_r w_alpha with w_alpha = F_alpha(s^2) s U^T y, so
    ||x_alpha - x_true|| and ||w_alpha - V_r^T x_true|| differ only by the
    part of x_true outside range(V_r), which is the same for every alpha.
    The winner is then solved once by ``regularize_svd``.  Returns
    ``(alpha, error, x_alpha)`` of that solve; ties break toward the
    smallest alpha.
    """
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    r = op.rank
    s = op.s[:r]
    uty = op.u[:, :r].T @ obs.coeffs
    # same product order as spectral_series, one row per alpha
    weights = np.stack([filter_value(filt, a, s**2) for a in alphas]) * s * uty
    scores = np.linalg.norm(weights - op.vt[:r] @ x_true.coeffs, axis=1)
    best = float(alphas[np.argmin(scores)])  # argmin takes the first, smallest alpha
    x = regularize_svd(filt, op, obs.coeffs, best).x_alpha
    return best, float(np.linalg.norm(x.coeffs - x_true.coeffs)), x


@dataclass(frozen=True)
class DiscrepancyResult:
    alpha: float
    satisfied: bool
    residual: float
    x_alpha: L2Vector


def discrepancy_principle(
    op: DiscreteOperator,
    obs: Observation,
    filt: Filter,
    tau_dp: float,
    alpha_grid: Sequence[float],
) -> DiscrepancyResult:
    """Largest grid alpha whose residual stays within tau_dp * delta.

    Falls back to the smallest grid alpha, with ``satisfied`` false, when no
    alpha qualifies.  Requires noise that is bounded in norm (dirac or
    scaled_rv); white-noise observations are rejected because their residual
    norm diverges with the discretization level and the rule loses its
    meaning.
    """
    if tau_dp <= 1.0:
        raise ValueError("tau_dp must be > 1")
    if obs.noise.kind == "gaussian_white":
        raise WhiteNoiseError(
            "the discrepancy principle cannot be applied to white-noise "
            "observations; use dirac or scaled_rv noise"
        )
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid is empty")
    threshold = tau_dp * obs.delta
    for a in alphas[::-1]:
        sol = regularize_svd(filt, op, obs.coeffs, a)
        if sol.residual_norm <= threshold:
            break
    # without a break, sol is the solve at the smallest alpha: the fallback
    return DiscrepancyResult(
        alpha=sol.alpha,
        satisfied=sol.residual_norm <= threshold,
        residual=sol.residual_norm,
        x_alpha=sol.x_alpha,
    )


def lepskii_choose(
    op: DiscreteOperator,
    data: Callable[[int], Observation],
    cfg: LepskiiConfig,
    sched: LevelSchedule,
    source: Optional[SourceCondition] = None,
    cache: Optional[LevelSolverCache] = None,
) -> LepskiiResult:
    """Balancing choice over the geometric grid with per-candidate levels.

    ``data`` maps a requested level to the observation there, rounded up to
    a nested level, as :class:`LevelData` does for one realization; candidate
    j reads its data as ``data(n(alpha_j, delta))``.  Pairwise distances are
    taken after isometric embedding into the fine grid.  When a source
    condition is supplied, the observable-vs-bias balance diagnostic
    alpha_check = max{j: Phi(j) <= delta Psi(j)} is reported as well, with
    Phi(j) = radius * phi(alpha_j).
    """
    if cache is None:
        cache = LevelSolverCache(op)
    elif cache.op_fine is not op:
        raise ValueError("cache was built for a different operator")
    delta = cfg.delta_input
    alphas = cfg.alphas
    m = cfg.m
    kappa = cfg.kappa
    filt = tikhonov()
    flags = []

    levels = []
    solutions = []
    psi = np.empty(m + 1)
    for j, a in enumerate(alphas):
        obs_j = data(n_of(a, delta, sched))
        level = obs_j.n
        x_j = spectral_series(filt, cache.operator(level), obs_j.coeffs, a)
        solutions.append(embed_vector(L2Vector(obs_j.grid, x_j), op.grid))
        levels.append(level)
        psi[j] = cfg.C_psi * np.sqrt(level / (4.0 * a))
    if np.any(np.diff(psi) >= 0):
        flags.append("psi_not_decreasing")

    band = 4.0 * kappa * delta * psi
    coeff_mat = np.stack([x.coeffs for x in solutions])
    accepted = []
    pairs_checked = 0
    for j in range(1, m + 1):
        ok = True
        for k in range(j):
            pairs_checked += 1
            if np.linalg.norm(coeff_mat[k] - coeff_mat[j]) > band[k]:
                ok = False
                break
        if ok:
            accepted.append(j)
    if accepted:
        j_star = max(accepted)
    else:
        j_star = 0
        flags.append("lepskii_degenerate")
    accepted_is_prefix = accepted == list(range(1, j_star + 1))

    alpha_check = None
    j_check = None
    if source is not None:
        phi_vals = np.array([source.radius * source.phi(a) for a in alphas])
        if np.any(np.diff(phi_vals) <= 0):
            flags.append("phi_not_increasing")
        feasible = np.nonzero(phi_vals <= delta * psi)[0]
        j_check = int(feasible.max()) if feasible.size else 0
        alpha_check = float(alphas[j_check])
        if phi_vals[0] > delta * psi[0]:
            flags.append("side_condition_violated")

    return LepskiiResult(
        j_star=int(j_star),
        alpha_star=float(alphas[j_star]),
        candidates=[(float(alphas[j]), solutions[j].norm(), float(psi[j])) for j in range(m + 1)],
        accepted_pairs_checked=pairs_checked,
        m=m,
        kappa=kappa,
        levels=levels,
        solutions=solutions,
        accepted=accepted,
        accepted_is_prefix=accepted_is_prefix,
        flags=flags,
        alpha_check=alpha_check,
        j_check=j_check,
    )


def data_driven_choose(
    op: DiscreteOperator,
    raw_data: Callable[[int], Observation],
    est_cfg: EstimatorConfig,
    lep_cfg_template: LepskiiConfig,
    sched: LevelSchedule,
    source: Optional[SourceCondition] = None,
    cache: Optional[LevelSolverCache] = None,
) -> Tuple[NoiseEstimate, LepskiiResult, L2Vector]:
    """Fully data-driven pipeline: estimate delta_hat, then balance with it.

    Returns the estimate, the Lepskii diagnostics, and the last accepted
    candidate solution.  A non-converged estimate is flagged but still used.
    """
    estimate = refine_delta_hat(
        op,
        raw_data,
        tau=est_cfg.tau,
        p=est_cfg.p,
        eps=est_cfg.eps,
        m_window=est_cfg.m_window,
        sched=sched,
        n0=est_cfg.n0,
    )
    delta_hat = estimate.delta_hat
    flags = []
    if delta_hat <= 0.0:
        delta_hat = 1e-12
        flags.append("delta_hat_floor")
    cfg = lep_cfg_template.with_delta(delta_hat)
    result = lepskii_choose(op, raw_data, cfg, sched, source=source, cache=cache)
    if not estimate.converged:
        result.flags.append("estimator_not_converged")
    result.flags.extend(flags)
    return estimate, result, result.x_star
