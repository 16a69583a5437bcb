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
so replicates are reproducible independently of evaluation order.  A list
of replicate paths draws an (R, n) batch in one call, and row i of the batch
is bit for bit the single draw of path i: each row comes from its own Philox
stream, keyed by :func:`stream_key`, which is numpy's ``SeedSequence`` key
derivation computed for all paths at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random import Generator, Philox

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
# one replicate path, or a list of them for a batch
Replicates = Union[ReplicateKey, Sequence[ReplicateKey]]

# numpy's SeedSequence entropy mix (numpy/random/bit_generator.pyx; NEP 19
# freezes the algorithm): a pool of four 32-bit words and its hash constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, h: int, mult: int = _MULT_A):
    """(hashed value, next hash constant); ``value`` is an int or a uint32 column."""
    value = value ^ h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: list, h: int, word) -> int:
    """Mix one more entropy word, or a uint32 column of them, into every pool word."""
    for dst in range(_POOL):
        v, h = _hashmix(word, h)
        pool[dst] = _mix(pool[dst], v)
    return h


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> Tuple[tuple, int]:
    """Pool and hash constant once the seed's words are absorbed, before the path's."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    # with a spawn key, the seed is padded with zero words to the pool size
    words += [0] * (_POOL - len(words))
    pool, h = [], _INIT_A
    for word in words[:_POOL]:
        v, h = _hashmix(word, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for word in words[_POOL:]:
        h = _absorb(pool, h, word)
    return tuple(pool), h


def _key_words(pool: Sequence, h: int, path) -> tuple:
    """Low and high 32-bit words of the keys after absorbing the uint32 word columns of ``path``."""
    pool = list(pool)
    for word in path:
        h = _absorb(pool, h, word)
    lo, h = _hashmix(pool[0], _INIT_B, _MULT_B)
    hi, _ = _hashmix(pool[1], h, _MULT_B)
    return lo, hi


def _is_single(replicate) -> bool:
    return isinstance(replicate, (int, np.integer, tuple))


def _path(replicate: ReplicateKey) -> Tuple[int, ...]:
    path = (int(replicate),) if isinstance(replicate, (int, np.integer)) else tuple(map(int, replicate))
    if path and not (0 <= min(path) and max(path) <= _MASK32):
        raise ValueError(f"replicate path entries must lie in [0, 2**32), got {replicate!r}")
    return path


def stream_key(seed: int, replicate: Replicates = 0):
    """64-bit stream key of (seed, replicate path).

    Equal to ``SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)[0]``.
    An int or a tuple is one path and gives an int, computed as a list of
    one; a list of paths gives a uint64 array with one key per path.  Path
    entries lie in [0, 2**32).
    """
    pool, h = _seed_pool(seed)
    single = _is_single(replicate)
    paths = [_path(r) for r in ([replicate] if single else replicate)]
    keys = np.empty(len(paths), dtype=np.uint64)
    # the seed's words are absorbed once; the paths' words as uint32 columns,
    # one block per path depth
    for depth in sorted({len(p) for p in paths}):
        rows = [i for i, p in enumerate(paths) if len(p) == depth]
        columns = np.array([paths[i] for i in rows], dtype=np.uint32).reshape(len(rows), depth).T
        lo, hi = _key_words([np.full(len(rows), w, dtype=np.uint32) for w in pool], h, columns)
        keys[rows] = lo.astype(np.uint64) | hi.astype(np.uint64) << 32
    return int(keys[0]) if single else keys


def generator_for(key: int) -> Generator:
    """Philox generator for a stream key; replaying the key replays the draws."""
    return Generator(Philox(key=key))


def _streams(keys):
    """The generator of each key in turn: one Philox, reset to the key at counter 0.

    A Philox stream is fixed by its key, so each one draws what
    ``generator_for(key)`` draws, without building a generator per key.
    """
    bitgen = Philox(key=0)
    rng = Generator(bitgen)
    for key in keys:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


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
        if not coeffs.flags.owndata:
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


def draw_noise(
    spec: NoiseSpec, grid: Grid, replicate: Replicates = 0, *, key: Union[int, np.ndarray, None] = None
) -> np.ndarray:
    """Noise coordinates on ``grid``: shape (n,) for one replicate, (R, n) for a list.

    Deterministic in (seed, replicate, n): the same key always reproduces the
    same vector bit for bit, and row i of a list's draw is the draw of
    ``replicate[i]`` alone.  ``key`` is ``stream_key(spec.seed, replicate)``
    when the caller has derived it already.
    """
    single = _is_single(replicate)
    if spec.kind != "gaussian_white" and spec.xi.grid != grid:
        raise ValueError("base vector lives on a different grid")
    if spec.kind == "dirac":
        return spec.xi.coeffs.copy() if single else np.tile(spec.xi.coeffs, (len(replicate), 1))
    if key is None:
        key = stream_key(spec.seed, replicate)
    keys = [key] if single else key
    if spec.kind == "gaussian_white":
        xi = np.empty(grid.n_cells if single else (len(keys), grid.n_cells))
        for rng, row in zip(_streams(keys), xi.reshape(len(keys), -1)):
            rng.standard_normal(out=row)
        return xi
    # scaled_rv: random sign on the fixed base vector
    signs = np.array([1.0 if rng.random() < 0.5 else -1.0 for rng in _streams(keys)])
    return signs[0] * spec.xi.coeffs if single else signs[:, None] * spec.xi.coeffs


def observe(
    op: DiscreteOperator,
    x_true: L2Vector,
    delta: float,
    spec: NoiseSpec,
    replicate: Replicates = 0,
    *,
    y_exact: Optional[L2Vector] = None,
) -> Observation:
    """Assemble an observation Y_delta = Q T x + delta * Xi on the operator grid.

    A list of replicate paths gives one (R, n) batch whose row i is bit for
    bit the observation of ``replicate[i]`` alone.  ``y_exact`` is
    ``apply(op, x_true)`` when the caller already has it, so that a study
    over many replicates applies the operator once.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if y_exact is None:
        y_exact = apply(op, x_true)
    elif y_exact.grid != op.grid:
        raise ValueError("exact data and operator grids do not match")
    key = stream_key(spec.seed, replicate)
    coeffs = draw_noise(spec, op.grid, replicate, key=key)
    # in place, with the bits of y + delta * xi: IEEE addition commutes
    coeffs *= delta
    coeffs += y_exact.coeffs
    return Observation(
        grid=op.grid,
        y_exact=y_exact,
        delta=float(delta),
        coeffs=coeffs,
        noise=spec,
        seed_used=key if isinstance(key, int) else tuple(key.tolist()),
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
