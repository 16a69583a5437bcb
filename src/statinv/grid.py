"""Equidistant grids on [0, 1] and coefficient vectors in the indicator basis.

Functions in L2[0, 1] are represented by their coefficients against the
orthonormal system phi_j = sqrt(n) * chi_[t_{j-1}, t_j), j = 1..n, on the
equidistant partition t_j = j/n.  The L2 norm of a represented function is
then the Euclidean norm of its coefficient vector, and the pointwise value
on cell j equals sqrt(n) times the j-th coefficient.  A batch of R functions
on one grid is an (R, n) array of coefficient rows, and ``distances``
measures every row against one reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_finite_coeffs

__all__ = ["Grid", "L2Vector", "distances"]

# Entries of the difference block that ``distances`` holds at once.
_CHUNK = 2**16


@dataclass(frozen=True)
class Grid:
    """Equidistant partition of [0, 1] into ``n_cells`` cells."""

    n_cells: int

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells!r}")

    @property
    def nodes(self) -> np.ndarray:
        """Nodes t_j = j/n, j = 0..n (strictly increasing, t_0 = 0, t_n = 1)."""
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) / self.n_cells

    @property
    def cell_width(self) -> float:
        return 1.0 / self.n_cells


class L2Vector:
    """A function in span{phi_1, ..., phi_n}, stored by its coefficients.

    Parameters
    ----------
    grid : Grid
    coeffs : array_like, shape (n,)
        Coefficients against the indicator orthonormal basis.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_cells,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected ({grid.n_cells},)"
            )
        coeffs = require_finite_coeffs(coeffs).copy()
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def from_cell_values(cls, grid: Grid, values) -> "L2Vector":
        """Build from pointwise values on the cells (value_j = sqrt(n) * coeff_j)."""
        values = np.asarray(values, dtype=float)
        return cls(grid, values / np.sqrt(grid.n_cells))

    def cell_values(self) -> np.ndarray:
        """Pointwise value on each cell [t_{j-1}, t_j)."""
        return self.coeffs * np.sqrt(self.grid.n_cells)

    def norm(self) -> float:
        """L2 norm; by orthonormality, the Euclidean norm of the coefficients."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "L2Vector") -> "L2Vector":
        self._check_grid(other)
        return L2Vector(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "L2Vector") -> "L2Vector":
        self._check_grid(other)
        return L2Vector(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "L2Vector":
        return L2Vector(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_grid(self, other: "L2Vector"):
        if other.grid != self.grid:
            raise ValueError("grids do not match")

    def __repr__(self):
        return f"L2Vector(n={self.grid.n_cells}, norm={self.norm():.6g})"


def distances(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """L2 distance ||ref - x_i|| of every coefficient row of ``x`` (R, n), as an (R,) array.

    Each entry is the square root of the row's dot product, bit-equal to
    ``np.linalg.norm`` of that row's difference alone.  The rows go a block
    at a time, so the differences held at once stay small whatever R is.
    """
    out = np.empty(x.shape[0])
    step = max(1, _CHUNK // x.shape[1])
    for k in range(0, out.size, step):
        d = ref - x[k : k + step]
        out[k : k + step] = np.sqrt(np.vecdot(d, d))
    return out
