"""Size ceilings that keep exponential searches finite.

Every ceiling can be overridden per call; the module defaults can in turn
be overridden through environment variables so command-line runs can relax
them without code changes.
"""

import os

# Largest target graph accepted by embedding enumeration by default.
DEFAULT_MAX_TARGET = 24

# Largest ambient accepted by closure / dimension searches by default.
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


def max_ambient(override: "int | None" = None) -> int:
    if override is not None:
        return override
    return _env_int("MAX_AMBIENT", DEFAULT_MAX_AMBIENT)


def max_set_size(override: "int | None" = None) -> int:
    if override is not None:
        return override
    return _env_int("MAX_SET_SIZE", DEFAULT_MAX_SET_SIZE)
