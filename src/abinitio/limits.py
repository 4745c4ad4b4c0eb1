"""Size ceilings that keep exponential searches finite: the target size of
embedding enumeration and the candidate size of connected-subset scans.

Every ceiling can be overridden per call; the module defaults can in turn
be overridden through ``ABINITIO_MAX_TARGET`` and ``ABINITIO_MAX_SET_SIZE``
so command-line runs can relax them without code changes.  Closure,
dimension and decomposition are polynomial and have no ceiling.
"""

import os

# Largest target graph accepted by embedding enumeration by default.
DEFAULT_MAX_TARGET = 24

# Default number of vertices an approximation chain may grow to.
DEFAULT_MAX_AMBIENT = 24

# Largest candidate set considered when searching for relatively-tight sets.
DEFAULT_MAX_SET_SIZE = 8

_ENV_PREFIX = "ABINITIO_"


def _env_int(name: str, fallback: int) -> int:
    var = _ENV_PREFIX + name
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{var} must be a nonnegative integer, got {raw!r}")
    return value


def max_target(override: "int | None" = None) -> int:
    if override is not None:
        return override
    return _env_int("MAX_TARGET", DEFAULT_MAX_TARGET)


def max_set_size(override: "int | None" = None) -> int:
    if override is not None:
        if override < 0:
            raise ValueError(f"max_set must be a nonnegative integer, got {override!r}")
        return override
    return _env_int("MAX_SET_SIZE", DEFAULT_MAX_SET_SIZE)
