"""Noise processes and noisy observations of operator equations.

Three noise normalizations are supported, matching the three noise-level
conventions for y_delta = y + delta * noise:

* ``gaussian_white`` -- coordinates iid N(0, 1) in the indicator basis
  (covariance norm 1);
* ``dirac`` -- a fixed deterministic element xi with ||xi|| <= 1;
* ``scaled_rv`` -- a random sign on a fixed vector with norm <= 1, so that
  E||Xi||^2 <= 1 (the two-point distribution bridging the deterministic and
  stochastic settings).

Randomness is counter-based: every draw is keyed by (seed, replicate path),
so replicates are reproducible independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .grid import Grid, L2Vector
from .operators import DiscreteOperator, apply

__all__ = [
    "NoiseSpec",
    "Observation",
    "stream_key",
    "generator_for",
    "draw_noise",
    "observe",
    "pointwise_values",
    "observation_to_csv",
]

NOISE_KINDS = ("gaussian_white", "dirac", "scaled_rv")

ReplicateKey = Union[int, Tuple[int, ...]]


def stream_key(seed: int, replicate: ReplicateKey = 0) -> int:
    """Collapse (seed, replicate path) into a single 64-bit stream key."""
    path = (replicate,) if isinstance(replicate, (int, np.integer)) else tuple(replicate)
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def generator_for(key: int) -> Generator:
    """Philox generator for a stream key; replaying the key replays the draws."""
    return Generator(Philox(key=key))


@dataclass(frozen=True)
class NoiseSpec:
    """Description of a noise process plus its base seed."""

    kind: str
    seed: int = 0
    xi: Optional[L2Vector] = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian_white":
            if self.xi is not None:
                raise ValueError("gaussian_white takes no base vector")
        else:
            if self.xi is None:
                raise ValueError(f"{self.kind} requires a base vector")
            if self.xi.norm() > 1.0 + 1e-12:
                raise ValueError(
                    f"base vector must satisfy ||xi|| <= 1, got {self.xi.norm():.6g}"
                )

    @classmethod
    def gaussian_white(cls, seed: int = 0) -> "NoiseSpec":
        return cls(kind="gaussian_white", seed=seed)

    @classmethod
    def dirac(cls, xi: L2Vector, seed: int = 0) -> "NoiseSpec":
        return cls(kind="dirac", seed=seed, xi=xi)

    @classmethod
    def scaled_rv(cls, base: L2Vector, seed: int = 0) -> "NoiseSpec":
        return cls(kind="scaled_rv", seed=seed, xi=base)


@dataclass(frozen=True)
class Observation:
    """Realized coefficients Y_{delta,j} = <y, phi_j> + delta * xi_j.

    ``coeffs`` holds one realization, shape (n,), or a batch of R
    realizations of the same model (grid, exact data, delta and noise spec),
    shape (R, n).  ``seed_used`` is the stream key of the one realization,
    or a tuple with the key of every row.
    """

    grid: Grid
    y_exact: L2Vector
    delta: float
    coeffs: np.ndarray
    noise: NoiseSpec
    seed_used: Union[int, Tuple[int, ...]]

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != self.grid.n_cells:
            raise ValueError("coefficient length does not match the grid")
        if coeffs.ndim == 2 and len(self.seed_used) != coeffs.shape[0]:
            raise ValueError("a batch needs one seed_used key per row")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.grid.n_cells

    @property
    def rows(self) -> int:
        """Number of realizations R; a single realization is one row."""
        return 1 if self.coeffs.ndim == 1 else self.coeffs.shape[0]

    def row(self, i: int) -> "Observation":
        """Realization ``i`` as a single observation."""
        if self.coeffs.ndim == 1:
            if i != 0:
                raise IndexError(f"row {i} of a single observation")
            return self
        return Observation(
            self.grid, self.y_exact, self.delta, self.coeffs[i], self.noise, self.seed_used[i]
        )

    @classmethod
    def stack(cls, observations) -> "Observation":
        """One (R, n) batch of single observations of the same model, in order."""
        obs = list(observations)
        if not obs:
            raise ValueError("cannot stack an empty sequence of observations")
        first = obs[0]
        for o in obs:
            same = (o.grid, o.delta, o.noise) == (first.grid, first.delta, first.noise)
            if o.coeffs.ndim != 1 or not same:
                raise ValueError("a batch stacks single observations of one model")
            if o.y_exact is not first.y_exact and not np.array_equal(
                o.y_exact.coeffs, first.y_exact.coeffs
            ):
                raise ValueError("a batch shares one exact data vector")
        coeffs = np.stack([o.coeffs for o in obs])
        keys = tuple(o.seed_used for o in obs)
        del obs  # free the single rows before the constructor copies the stack
        return cls(first.grid, first.y_exact, first.delta, coeffs, first.noise, keys)


def draw_noise(
    spec: NoiseSpec, grid: Grid, replicate: ReplicateKey = 0, *, key: Optional[int] = None
) -> np.ndarray:
    """One realization of the noise coordinates on ``grid``.

    Deterministic in (seed, replicate, n): the same key always reproduces the
    same vector bit for bit.  ``key`` is ``stream_key(spec.seed, replicate)``
    when the caller has derived it already.
    """
    n = grid.n_cells
    if key is None and spec.kind != "dirac":
        key = stream_key(spec.seed, replicate)
    if spec.kind == "gaussian_white":
        return generator_for(key).standard_normal(n)
    if spec.xi.grid != grid:
        raise ValueError("base vector lives on a different grid")
    if spec.kind == "dirac":
        return spec.xi.coeffs.copy()
    # scaled_rv: random sign on the fixed base vector
    rng = generator_for(key)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * spec.xi.coeffs


def observe(
    op: DiscreteOperator,
    x_true: L2Vector,
    delta: float,
    spec: NoiseSpec,
    replicate: ReplicateKey = 0,
    *,
    y_exact: Optional[L2Vector] = None,
) -> Observation:
    """Assemble an observation Y_delta = Q T x + delta * Xi on the operator grid.

    ``y_exact`` is ``apply(op, x_true)`` when the caller already has it, so
    that a study over many replicates applies the operator once.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if y_exact is None:
        y_exact = apply(op, x_true)
    elif y_exact.grid != op.grid:
        raise ValueError("exact data and operator grids do not match")
    key = stream_key(spec.seed, replicate)
    xi = draw_noise(spec, op.grid, replicate, key=key)
    return Observation(
        grid=op.grid,
        y_exact=y_exact,
        delta=float(delta),
        coeffs=y_exact.coeffs + delta * xi,
        noise=spec,
        seed_used=key,
    )


def pointwise_values(obs: Observation, rows: slice = slice(None)) -> np.ndarray:
    """Cell values QY_delta(t) for t in [t_{j-1}, t_j); value_j = sqrt(n) * coeff_j.

    ``rows`` selects a block of a batch's rows; a single realization takes
    the default.
    """
    return obs.coeffs[rows] * np.sqrt(obs.n)


def observation_to_csv(obs: Observation, path) -> None:
    """Columns (j, t_j, y_exact_j, coeff_j); header records delta, seed, kind."""
    nodes = obs.grid.nodes
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# delta={obs.delta:.17g}\n")
        fh.write(f"# seed={obs.seed_used}\n")
        fh.write(f"# noise={obs.noise.kind}\n")
        fh.write("j,t_j,y_exact_j,coeff_j\n")
        for j in range(obs.n):
            fh.write(
                f"{j + 1},{nodes[j + 1]:.17g},"
                f"{obs.y_exact.coeffs[j]:.17g},{obs.coeffs[j]:.17g}\n"
            )
