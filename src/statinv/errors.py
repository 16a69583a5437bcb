"""Exception types and the finite-field check shared across the package."""

import math

__all__ = ["ConfigError", "WhiteNoiseError", "DataUnavailableError", "require_finite"]


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
