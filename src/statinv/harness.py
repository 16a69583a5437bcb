"""Monte Carlo experiment driver: MSE studies, the bias-variance check, and
the headline comparison of known-delta versus estimated-delta pipelines.

Experiments are configured by flat ``key = value`` text files with
namespaced keys (see ``DEFAULTS``).  All randomness is keyed by
(seed, delta index, replicate), so reruns with the same configuration
produce byte-identical CSV output, and the known-delta and estimated-delta
pipelines see identical noise realizations replicate by replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .choice import (
    LepskiiConfig,
    LevelSolverCache,
    data_driven_choose,
    discrepancy_principle,
    geometric_grid,
    lepskii_choose,
    oracle_choice,
)
from .discretization import LevelData, LevelSchedule, ladder_gap
from .errors import ConfigError
from .filters import Filter, regularize_svd, spectral_series, tikhonov, variance_bound
from .grid import Grid, L2Vector
from .noise import NoiseSpec, draw_noise, observe
from .noise_level import EstimatorConfig
from .operators import DiscreteOperator, apply, build_holder_kernel_operator, build_integration_operator
from .signals import SIGNAL_KINDS, dirac_direction, make_signal

__all__ = [
    "ExperimentConfig",
    "MseRow",
    "VetoRow",
    "BiasVarianceReport",
    "METHODS",
    "Choice",
    "Study",
    "build_study",
    "choose",
    "effective_schedule",
    "parse_config",
    "config_from_mapping",
    "build_operator",
    "build_signal",
    "build_noise_spec",
    "run_study",
    "run_mse_study",
    "run_bias_variance_check",
    "run_veto_study",
    "write_mse_csv",
    "write_veto_csv",
]

METHODS = ("oracle", "discrepancy", "lepskii_known_delta", "lepskii_estimated_delta")

FLOAT_FMT = ".17g"


def _fmt(v: float) -> str:
    return format(float(v), FLOAT_FMT)


@dataclass
class ExperimentConfig:
    """Frame for one convergence experiment along a decreasing delta list."""

    operator_kind: str = "integration"
    operator_n: int = 1024
    signal_kind: str = "smooth"
    signal_nu: float = 1.0
    signal_amplitude: float = 1.0
    noise_kind: str = "gaussian_white"
    delta_list: tuple = (0.1, 0.05, 0.02, 0.01)
    replicates: int = 200
    seed: int = 20260811
    method: str = "lepskii_known_delta"
    study: str = "mse"
    schedule: LevelSchedule = field(default_factory=LevelSchedule)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    lepskii_q: float = 2.0
    lepskii_c_psi: float = 1.0
    tau_dp: float = 2.0
    epsilons: tuple = (0.5, 0.2, 0.1, 0.05)
    out: Optional[str] = None

    def __post_init__(self):
        if self.operator_kind not in ("integration", "min_kernel"):
            raise ConfigError(f"unknown operator.kind {self.operator_kind!r}")
        if self.operator_n < 2:
            raise ConfigError("operator.n must be >= 2")
        gap = ladder_gap(self.operator_n)
        if gap is not None:
            # nested levels are the divisors of n: a gap collapses every level inside it
            raise ConfigError(
                f"operator.n = {self.operator_n} has no level between its divisors "
                f"{gap[0]} and {gap[1]}; divisors must at most double"
            )
        if self.signal_kind not in SIGNAL_KINDS:
            raise ConfigError(f"unknown signal.kind {self.signal_kind!r}; choose from {SIGNAL_KINDS}")
        if self.signal_kind == "source" and self.signal_nu <= 0:
            raise ConfigError(f"signal.nu must be positive for a source signal, got {self.signal_nu}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.study not in ("mse", "veto"):
            raise ConfigError(f"unknown study {self.study!r}")
        if self.noise_kind not in ("gaussian_white", "dirac", "scaled_rv"):
            raise ConfigError(f"unknown noise.kind {self.noise_kind!r}")
        deltas = tuple(float(d) for d in self.delta_list)
        if len(deltas) == 0 or any(d <= 0 for d in deltas):
            raise ConfigError("delta_list must contain positive values")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("delta_list must be strictly decreasing")
        self.delta_list = deltas
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.lepskii_q <= 1.0:
            raise ConfigError(f"lepskii.q must be > 1, got {self.lepskii_q}")
        if self.lepskii_c_psi <= 0.0:
            raise ConfigError(f"lepskii.C_psi must be positive, got {self.lepskii_c_psi}")
        if self.tau_dp <= 1.0:
            raise ConfigError(f"choice.tau_dp must be > 1, got {self.tau_dp}")
        if self.estimator.n0 > self.operator_n:
            # the estimator's first level would not exist and its delta_hat would read 0
            raise ConfigError(
                f"estimator.n0 = {self.estimator.n0} exceeds operator.n = {self.operator_n}"
            )
        self.epsilons = tuple(float(e) for e in self.epsilons)


# flat config keys -> (attribute, parser)
_KEYS = {
    "operator.kind": ("operator_kind", str),
    "operator.n": ("operator_n", int),
    "signal.kind": ("signal_kind", str),
    "signal.nu": ("signal_nu", float),
    "signal.amplitude": ("signal_amplitude", float),
    "noise.kind": ("noise_kind", str),
    "delta_list": ("delta_list", lambda s: tuple(float(v) for v in s.split(","))),
    "replicates": ("replicates", int),
    "seed": ("seed", int),
    "method": ("method", str),
    "study": ("study", str),
    "schedule.r": ("schedule.r", float),
    "schedule.eta": ("schedule.eta", float),
    "schedule.c1": ("schedule.c1", float),
    "schedule.c2": ("schedule.c2", float),
    "schedule.n_max": ("schedule.n_max", int),
    "estimator.tau": ("estimator.tau", float),
    "estimator.K": ("estimator.K", float),
    "estimator.p": ("estimator.p", float),
    "estimator.eps": ("estimator.eps", float),
    "estimator.m_window": ("estimator.m_window", int),
    "estimator.n0": ("estimator.n0", int),
    "lepskii.q": ("lepskii_q", float),
    "lepskii.C_psi": ("lepskii_c_psi", float),
    "choice.tau_dp": ("tau_dp", float),
    "epsilons": ("epsilons", lambda s: tuple(float(v) for v in s.split(","))),
    "out": ("out", str),
}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    plain = {}
    sched = {}
    est = {}
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parse = _KEYS[key]
        try:
            value = parse(raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"cannot parse {key} = {raw!r}: {exc}") from exc
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        if attr.startswith("schedule."):
            sched[attr.split(".", 1)[1]] = value
        elif attr.startswith("estimator."):
            est[attr.split(".", 1)[1]] = value
        else:
            plain[attr] = value
    try:
        schedule = LevelSchedule(**sched) if sched else LevelSchedule()
        estimator = EstimatorConfig(**est) if est else EstimatorConfig()
        return ExperimentConfig(schedule=schedule, estimator=estimator, **plain)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` file; ``#`` starts a comment."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                mapping[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(mapping)


def build_operator(cfg: ExperimentConfig) -> DiscreteOperator:
    grid = Grid(cfg.operator_n)
    if cfg.operator_kind == "integration":
        return build_integration_operator(grid)
    return build_holder_kernel_operator(grid, np.minimum, holder_s=1.0, volterra=False)


def build_signal(cfg: ExperimentConfig, op: DiscreteOperator) -> L2Vector:
    return make_signal(
        cfg.signal_kind, op.grid, op=op, nu=cfg.signal_nu, amplitude=cfg.signal_amplitude
    )


def build_noise_spec(cfg: ExperimentConfig, grid: Grid) -> NoiseSpec:
    if cfg.noise_kind == "gaussian_white":
        return NoiseSpec.gaussian_white(cfg.seed)
    direction = dirac_direction(grid)
    if cfg.noise_kind == "dirac":
        return NoiseSpec.dirac(direction, seed=cfg.seed)
    return NoiseSpec.scaled_rv(direction, seed=cfg.seed)


@dataclass
class MseRow:
    """Per-delta Monte Carlo summary of one method."""

    delta: float
    method: str
    mc_mse: float
    mc_bias_sq: float
    mc_variance: float
    rep_count: int
    exceed_rate: dict
    errors: np.ndarray  # raw per-replicate error norms (not serialized)


@dataclass
class VetoRow:
    """Paired known-delta / estimated-delta comparison at one delta."""

    delta: float
    mse_known: float
    mse_estimated: float
    ratio: float
    hit_rate: float
    mse_oracle: float
    m: int
    rep_count: int
    errors_known: np.ndarray
    errors_estimated: np.ndarray


def effective_schedule(cfg: ExperimentConfig, op: DiscreteOperator) -> LevelSchedule:
    # levels can never exceed the data's fine grid
    return cfg.schedule.with_n_max(min(cfg.schedule.n_max, op.n))


def _summarize(delta, method, x_true, x, epsilons) -> MseRow:
    """The Monte Carlo summary of the solutions ``x`` (R, n), one per replicate."""
    d = x_true.coeffs - x
    errs = np.sqrt(np.vecdot(d, d))  # the 1-D norm's dot product, row by row
    mean_vec = np.mean(d, axis=0)
    mse_sq = float(np.mean(errs**2))
    bias_sq = float(np.sum(mean_vec**2))
    exceed = {eps: float(np.mean(errs > eps * x_true.norm())) for eps in epsilons}
    return MseRow(
        delta=float(delta),
        method=method,
        mc_mse=float(np.sqrt(mse_sq)),
        mc_bias_sq=bias_sq,
        mc_variance=mse_sq - bias_sq,
        rep_count=len(errs),
        exceed_rate=exceed,
        errors=errs,
    )


@dataclass(frozen=True)
class Study:
    """What one study fixes before its first replicate: operator, signal,
    exact data ``T x_true``, level schedule, noise spec and level cache."""

    cfg: ExperimentConfig
    op: DiscreteOperator
    x_true: L2Vector
    y_exact: L2Vector
    sched: LevelSchedule
    spec: NoiseSpec
    cache: LevelSolverCache

    def batch(self, di: int, reps: Optional[Sequence[int]] = None) -> LevelData:
        """Replicates ``reps`` (all by default) at ``delta_list[di]`` as one (R, n) batch.

        One ``observe`` call draws them all, replicate ``rep`` from the stream
        of path (di, rep); the batch is projected once per level for all of them.
        """
        delta = self.cfg.delta_list[di]
        reps = range(self.cfg.replicates) if reps is None else reps
        paths = [(di, rep) for rep in reps]
        return LevelData(observe(self.op, self.x_true, delta, self.spec, replicate=paths, y_exact=self.y_exact))


def build_study(cfg: ExperimentConfig) -> Study:
    op = build_operator(cfg)
    x_true = build_signal(cfg, op)
    sched, spec = effective_schedule(cfg, op), build_noise_spec(cfg, op.grid)
    return Study(cfg, op, x_true, apply(op, x_true), sched, spec, LevelSolverCache(op))


def run_study(cfg: ExperimentConfig, methods: Sequence[str]):
    """Run every method in ``methods`` on the same realizations along delta_list.

    The replicates of one delta are drawn once as one batch by
    ``Study.batch`` and handed to every method through ``choose``.  Yields
    ``(delta, x_true, choices)`` per delta, where ``choices[method]`` is
    that method's ``Choice`` for all replicates.
    """
    study = build_study(cfg)
    for di, delta in enumerate(cfg.delta_list):
        data = study.batch(di)
        choices = {method: choose(study, method, data) for method in methods}
        # a delta's batch and solutions are dropped before the next batch is drawn
        del data
        yield delta, study.x_true, choices
        del choices


def run_mse_study(cfg: ExperimentConfig) -> list:
    """Monte Carlo error of one parameter-choice method along delta_list.

    This is an empirical surrogate for stochastic convergence: it samples
    one noise sequence per replicate along finitely many noise levels, it
    does not quantify over all admissible sequences.
    """
    rows = []
    for delta, x_true, choices in run_study(cfg, (cfg.method,)):
        rows.append(_summarize(delta, cfg.method, x_true, choices[cfg.method].x, cfg.epsilons))
        del choices  # before run_study draws the next batch
    return rows


@dataclass
class Choice:
    """One method's parameter choice on the R rows of a batch, as arrays over the rows.

    ``alpha`` (R,) and the solutions ``x`` (R, n) are always set, and
    ``flags`` lists each row's flags.  ``j_star`` and ``m`` are set by the
    Lepskii methods, ``best_error`` (the least true error over the
    candidates, which the veto study reports) by the known-delta one,
    ``delta_hat`` by the estimated-delta method, ``residual`` and
    ``satisfied`` by the discrepancy principle; each is an (R,) array.
    """

    alpha: np.ndarray
    x: np.ndarray
    flags: list
    j_star: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    delta_hat: Optional[np.ndarray] = None
    residual: Optional[np.ndarray] = None
    satisfied: Optional[np.ndarray] = None
    best_error: Optional[np.ndarray] = None


def choose(study: Study, method: str, data: LevelData) -> Choice:
    """Run ``method`` on every row of a batch of ``study``; the one dispatch over ``METHODS``.

    Every rule takes the whole batch in one call, and its record of per-row
    arrays becomes one ``Choice``.  ``study.x_true`` is read by the oracle
    and for the known-delta ``best_error``.
    """
    cfg, op, x_true, fine = study.cfg, study.op, study.x_true, data.fine
    if method in ("oracle", "discrepancy", "lepskii_known_delta"):
        # the rules that read the grid at the true delta: a delta without one is a config error
        try:
            _, grid = geometric_grid(cfg.lepskii_q, op.norm**2, fine.delta)
        except ValueError as exc:
            raise ConfigError(f"delta_list: {exc}") from exc
    filt = tikhonov()
    if method == "oracle":
        picks = oracle_choice(op, x_true, fine, filt, grid[0])
        return Choice(alpha=picks.alpha, x=picks.x, flags=[[] for _ in range(fine.rows)])
    if method == "discrepancy":
        dp = discrepancy_principle(op, fine, filt, cfg.tau_dp, grid[0])
        return Choice(
            alpha=dp.alpha,
            x=dp.x,
            flags=[[] if ok else ["discrepancy_unsatisfied"] for ok in dp.satisfied.tolist()],
            residual=dp.residual,
            satisfied=dp.satisfied,
        )
    lep_cfg = LepskiiConfig(q=cfg.lepskii_q, C_psi=cfg.lepskii_c_psi, max_alpha=op.norm**2)
    delta_hat = best_error = None
    if method == "lepskii_known_delta":
        lep = lepskii_choose(op, data, lep_cfg, study.sched, cache=study.cache)
        best_error = lep.errors(x_true).min(axis=1)  # the veto study's oracle column
    elif method == "lepskii_estimated_delta":
        estimates, lep = data_driven_choose(op, data, cfg.estimator, lep_cfg, study.sched, cache=study.cache)
        delta_hat = np.array([e.delta_hat for e in estimates])
    else:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    return Choice(
        alpha=lep.alpha_star,
        x=lep.x_star,
        flags=lep.row_flags,
        j_star=lep.j_star,
        m=lep.m,
        delta_hat=delta_hat,
        best_error=best_error,
    )


@dataclass
class BiasVarianceReport:
    """Monte Carlo check of mse^2 = bias^2 + delta^2 E||R_alpha Xi||^2."""

    alpha: float
    delta: float
    replicates: int
    bias_sq: float
    v_hat: float
    mse_sq: float
    identity_gap: float
    standard_error: float
    within_4se: bool
    v_bound: float
    bound_ok: bool


def run_bias_variance_check(
    op: DiscreteOperator,
    x_true: L2Vector,
    filt: Filter,
    alpha: float,
    delta: float,
    replicates: int,
    seed: int,
) -> BiasVarianceReport:
    """Verify the decomposition under white noise with a paired estimator.

    The identity is exact in expectation; the Monte Carlo discrepancy
    D_i = ||bias - delta R_alpha xi_i||^2 - delta^2 ||R_alpha xi_i||^2 has
    mean bias^2, and the report checks |mean(D) - bias^2| <= 4 SE(D).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    y = apply(op, x_true).coeffs
    bias_vec = x_true.coeffs - regularize_svd(filt, op, y, alpha).x_alpha
    bias_sq = float(np.sum(bias_vec**2))
    spec = NoiseSpec.gaussian_white(seed)
    xi = draw_noise(spec, op.grid, list(range(replicates)))
    r_xi = spectral_series(filt, op, xi, alpha)  # (R, n), row i that of xi_i alone
    v_samples = np.sum(r_xi**2, axis=-1)
    d_samples = np.sum((bias_vec - delta * r_xi) ** 2, axis=-1) - delta**2 * v_samples
    v_hat = float(np.mean(v_samples))
    # means centred at bias^2: exact when every sample equals it (delta = 0),
    # where averaging the raw samples can round off by an ulp
    mse_sq = bias_sq + float(np.mean(d_samples + delta**2 * v_samples - bias_sq))
    gap = abs(float(np.mean(d_samples - bias_sq)))
    se = float(np.std(d_samples, ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
    # rounding floor: the paired gap cannot be resolved below machine noise
    fp_floor = 1e-12 * (bias_sq + delta**2 * v_hat)
    bound = variance_bound(filt, op, alpha)
    return BiasVarianceReport(
        alpha=float(alpha),
        delta=float(delta),
        replicates=replicates,
        bias_sq=bias_sq,
        v_hat=v_hat,
        mse_sq=mse_sq,
        identity_gap=gap,
        standard_error=se,
        within_4se=gap <= 4.0 * se + fp_floor,
        v_bound=bound,
        bound_ok=v_hat <= bound,
    )


def run_veto_study(cfg: ExperimentConfig) -> list:
    """Paired comparison of the known-delta and purely data-driven pipelines.

    Both pipelines see the identical realization per replicate; the oracle
    column is the per-replicate least error over the known-delta Lepskii
    candidates, each at its own level.
    """
    est = cfg.estimator
    pair = ("lepskii_known_delta", "lepskii_estimated_delta")
    rows = []
    for delta, x_true, choices in run_study(cfg, pair):
        known, estimated = (choices[m] for m in pair)
        known_row, est_row = (_summarize(delta, m, x_true, choices[m].x, ()) for m in pair)
        e_orc = known.best_error
        delta_hat = estimated.delta_hat
        hits = np.count_nonzero((delta <= delta_hat) & (delta_hat <= est.K * est.tau * delta))
        rows.append(
            VetoRow(
                delta=float(delta),
                mse_known=known_row.mc_mse,
                mse_estimated=est_row.mc_mse,
                ratio=est_row.mc_mse / known_row.mc_mse,
                hit_rate=hits / cfg.replicates,
                mse_oracle=float(np.sqrt(np.mean(e_orc**2))),
                m=int(known.m[0]),
                rep_count=cfg.replicates,
                errors_known=known_row.errors,
                errors_estimated=est_row.errors,
            )
        )
        del choices, known, estimated  # before run_study draws the next batch
    return rows


def write_mse_csv(rows: Sequence[MseRow], path) -> None:
    eps_keys = sorted(rows[0].exceed_rate, reverse=True) if rows else []
    with open(path, "w", encoding="ascii") as fh:
        header = "delta,method,mc_mse,mc_bias_sq,mc_variance,rep_count"
        header += "".join(f",exceed_{format(e, 'g')}" for e in eps_keys)
        fh.write(header + "\n")
        for row in rows:
            cells = [_fmt(row.delta), row.method, _fmt(row.mc_mse), _fmt(row.mc_bias_sq)]
            cells += [_fmt(row.mc_variance), str(row.rep_count)]
            cells += [_fmt(row.exceed_rate[e]) for e in eps_keys]
            fh.write(",".join(cells) + "\n")


def write_veto_csv(rows: Sequence[VetoRow], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("delta,mse_known,mse_estimated,ratio,hit_rate,mse_oracle,m,rep_count\n")
        for row in rows:
            floats = [row.delta, row.mse_known, row.mse_estimated, row.ratio]
            floats += [row.hit_rate, row.mse_oracle]
            fh.write(",".join([_fmt(v) for v in floats] + [str(row.m), str(row.rep_count)]) + "\n")
