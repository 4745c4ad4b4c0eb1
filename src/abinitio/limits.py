"""The one size ceiling, and the default size of approximation chains.

Connected-subset scans enumerate subsets of a pool, which is exponential in
the pool, so they consider candidates of at most ``max_set`` vertices: those
of ``hull`` and of the witnesses over a layer that is not self-sufficient.
The sets tight over a self-sufficient layer come from one orientation, with
no scan, so in ``decompose`` ``max_set`` only filters their sizes.  The
ceiling can be overridden per call, and its default through
``ABINITIO_MAX_SET_SIZE``.  Closure, dimension, decomposition and embedding
enumeration have no ceiling: the first three are polynomial, and the cost of
an embedding search is set by the pattern the caller chooses.
"""

import os

# Default number of vertices an approximation chain may grow to.
DEFAULT_MAX_AMBIENT = 24

# Largest candidate set scanned, or tight set absorbed, by default.
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


def max_set_size(override: "int | None" = None) -> int:
    if override is not None:
        if override < 0:
            raise ValueError(f"max_set must be a nonnegative integer, got {override!r}")
        return override
    return _env_int("MAX_SET_SIZE", DEFAULT_MAX_SET_SIZE)
