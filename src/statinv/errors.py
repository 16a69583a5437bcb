"""Exception types and the finiteness checks shared across the package."""

import math

import numpy as np

__all__ = [
    "ConfigError", "WhiteNoiseError", "DataUnavailableError", "require_finite", "require_finite_coeffs",
]


class ConfigError(Exception):
    """Invalid or missing experiment configuration."""


class WhiteNoiseError(ValueError):
    """Raised when a method that needs bounded noise receives white noise.

    The residual norm of a white-noise observation is unbounded as the
    discretization is refined, so residual-based rules (e.g. the discrepancy
    principle) are not applicable to the covariance-normalized noise model.
    """


class DataUnavailableError(RuntimeError):
    """A data source cannot supply an observation at the requested level."""


def require_finite(config) -> None:
    """Raise ``ValueError`` if a float attribute of ``config`` is nan or inf.

    Called from the ``__post_init__`` of the config dataclasses, some of which
    are built once per replicate, so it walks ``vars`` rather than
    ``dataclasses.fields``, which costs several times more.
    """
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_finite_coeffs(coeffs):
    """Return ``coeffs``, or raise ``ValueError`` if an entry is nan or inf.

    One check for a whole array of solution coefficients, a batch of rows
    included.
    """
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    return coeffs
