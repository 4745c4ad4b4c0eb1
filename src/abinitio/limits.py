"""The one size ceiling, and the default size of approximation chains.

Connected-subset scans enumerate subsets of a pool, which is exponential in
the pool, so they consider candidates of at most ``max_set`` vertices: those
of ``hull`` and of the witnesses over a layer that is not self-sufficient.
A scan yields every single point before it reads the ceiling, so a
``max_set`` of 0 scans what 1 does.
The sets tight over a self-sufficient layer come from one orientation, with
no scan, so in ``decompose`` ``max_set`` only filters their sizes.  The
ceiling is overridden per call, never through the environment.  Closure,
dimension, decomposition and embedding enumeration have no ceiling: the
first three are polynomial, and the cost of an embedding search is set by
the pattern the caller chooses.  A negative ceiling, budget or round
count is rejected by ``nonnegative`` with a ValueError.
"""

# Default number of vertices an approximation chain may grow to.
DEFAULT_MAX_AMBIENT = 24

# Largest candidate set scanned, or tight set absorbed, by default.
DEFAULT_MAX_SET_SIZE = 8


def nonnegative(name: str, value: int) -> int:
    """value itself, or ValueError when it is negative: a count or size
    argument below 0 is malformed input, not an empty request."""
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def max_set_size(override: "int | None" = None) -> int:
    if override is None:
        return DEFAULT_MAX_SET_SIZE
    return nonnegative("max_set", override)
