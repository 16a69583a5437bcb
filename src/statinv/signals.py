"""Named test signals used by the experiment harness.

All signals are produced as exact cell averages (equivalently, exact
indicator-basis coefficients), so building the same signal on nested grids
commutes with projection.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, L2Vector
from .operators import DiscreteOperator

__all__ = ["make_signal", "dirac_direction", "SIGNAL_KINDS"]

SIGNAL_KINDS = ("smooth", "source", "rough")


def _cell_averages_sin(grid: Grid) -> np.ndarray:
    nodes = grid.nodes
    return (np.cos(np.pi * nodes[:-1]) - np.cos(np.pi * nodes[1:])) * grid.n_cells / np.pi


def make_signal(
    kind: str,
    grid: Grid,
    op: DiscreteOperator | None = None,
    nu: float = 1.0,
    amplitude: float = 1.0,
) -> L2Vector:
    """Build a named test signal.

    * ``smooth`` -- sin(pi t);
    * ``source`` -- (T*T)^nu v for the normalized constant v, scaled to unit
      norm; needs ``op``.  After the ``amplitude`` scaling it is
      (T*T)^nu (r v) with source radius r = amplitude / ||(T*T)^nu v||,
      much larger than the amplitude (27.4 for amplitude 10, nu = 1 and the
      integration operator at n = 1024);
    * ``rough`` -- the step +1 on [0, 1/2), -1 on [1/2, 1).

    ``amplitude`` rescales the result.  For ``source`` it is the signal's
    norm, not its source radius.
    """
    n = grid.n_cells
    if kind == "smooth":
        x = L2Vector.from_cell_values(grid, _cell_averages_sin(grid))
    elif kind == "source":
        if op is None or op.grid != grid:
            raise ValueError("source signals need the operator on the same grid")
        if nu <= 0:
            raise ValueError("nu must be positive")
        v = np.full(n, 1.0 / np.sqrt(n))
        coeffs = op.v(op.s[: op.rank] ** (2.0 * nu) * op.vtx(v))
        norm = np.linalg.norm(coeffs)
        if norm == 0.0:
            raise ValueError("source signal collapsed to zero")
        x = L2Vector(grid, coeffs / norm)
    elif kind == "rough":
        nodes = grid.nodes
        lo, hi = nodes[:-1], nodes[1:]
        # exact averages of the +/-1 step with jump at 1/2
        pos = np.clip(np.minimum(hi, 0.5) - lo, 0.0, None)
        neg = np.clip(hi - np.maximum(lo, 0.5), 0.0, None)
        x = L2Vector.from_cell_values(grid, (pos - neg) * n)
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    return amplitude * x


def dirac_direction(grid: Grid) -> L2Vector:
    """A fixed deterministic unit-norm noise direction (cell averages of cos(3 pi t))."""
    nodes = grid.nodes
    avg = (np.sin(3 * np.pi * nodes[1:]) - np.sin(3 * np.pi * nodes[:-1])) * grid.n_cells / (3 * np.pi)
    xi = L2Vector.from_cell_values(grid, avg)
    return (1.0 / xi.norm()) * xi
