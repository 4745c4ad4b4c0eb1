"""Brute-force oracles over raw graph data.

Each oracle reads only a graph's coefficient, vertices and edges, and
decides by subset enumeration, sharing no algorithmic machinery with the
rest of the package.  ``abinitio selftest`` and the test suite check the
fast paths against them.  They are exponential in the number of vertices:
meant for graphs small enough that such scans stay instant.
"""

import itertools


def edge_count(edges, s) -> int:
    s = set(s)
    return sum(1 for (u, v) in edges if u in s and v in s)


def brute_delta(g, s) -> int:
    return g.m * len(set(s)) - edge_count(g.edges, s)


def brute_in_k0(g) -> bool:
    verts = sorted(g.vertices)
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            if brute_delta(g, combo) < 0:
                return False
    return True


def brute_closed(g, a) -> bool:
    a = set(a)
    rest = sorted(set(g.vertices) - a)
    base = brute_delta(g, a)
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            if brute_delta(g, a | set(combo)) < base:
                return False
    return True


def brute_closure(g, a) -> frozenset:
    """Minimal closed superset via a superset-minimum table over bitmasks."""
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    amask = 0
    for v in a:
        amask |= 1 << index[v]
    deltas = [0] * (1 << n)
    for mask in range(1 << n):
        members = [verts[i] for i in range(n) if mask >> i & 1]
        deltas[mask] = brute_delta(g, members)
    # minsup[mask] = least count among supersets of mask
    minsup = list(deltas)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                minsup[mask] = min(minsup[mask], minsup[mask | bit])
    best = None
    for mask in range(1 << n):
        if mask & amask == amask and minsup[mask] == deltas[mask]:
            if best is None or bin(mask).count("1") < bin(best).count("1"):
                best = mask
    return frozenset(verts[i] for i in range(n) if best >> i & 1)
