"""Brute-force reference implementations.

Everything here works from raw (m, vertices, edges) data by subset or
permutation enumeration, sharing no algorithmic machinery with the package.
Intended for graphs small enough that exponential scans stay instant.
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


def brute_dimension(g, a) -> int:
    return brute_delta(g, brute_closure(g, a))


def adjacent(edges, u, v) -> bool:
    return (u, v) in edges or (v, u) in edges


def brute_automorphisms(g, fixed=None, stop_after=None) -> list:
    """Edge-and-nonedge-preserving self-bijections extending fixed, by plain
    backtracking over sorted vertices."""
    verts = sorted(g.vertices)
    fixed = dict(fixed or {})
    found = []

    def consistent(assign, v, t):
        for q, u in assign.items():
            if adjacent(g.edges, v, q) != adjacent(g.edges, t, u):
                return False
        return True

    free = [v for v in verts if v not in fixed]
    for q, u in fixed.items():
        for q2, u2 in fixed.items():
            if adjacent(g.edges, q, q2) != adjacent(g.edges, u, u2):
                return []

    def walk(i, assign):
        if stop_after is not None and len(found) >= stop_after:
            return
        if i == len(free):
            found.append(dict(assign))
            return
        v = free[i]
        for t in verts:
            if t not in assign.values() and consistent(assign, v, t):
                assign[v] = t
                walk(i + 1, assign)
                del assign[v]

    if len(set(fixed.values())) != len(fixed):
        return []
    walk(0, dict(fixed))
    return found


def brute_strong_extension_count(c, base_image, attach, fixed) -> int:
    """Injections of the pattern on base+attach into c extending fixed, image
    induced-isomorphic and closed, counted by full enumeration."""
    pattern_verts = sorted(set(base_image) | set(attach))
    free = [v for v in pattern_verts if v not in fixed]
    count = 0
    for images in itertools.permutations(sorted(c.vertices), len(free)):
        assign = dict(fixed)
        if set(images) & set(assign.values()):
            continue
        assign.update(dict(zip(free, images)))
        ok = all(
            adjacent(c.edges, p, q) == adjacent(c.edges, assign[p], assign[q])
            for p, q in itertools.combinations(pattern_verts, 2))
        if ok and brute_closed(c, set(assign.values())):
            count += 1
    return count


# -- reference copies of replaced fast paths ----------------------------------
# The closure's orientation search and violator minimizer as they were before
# their incremental versions: the search sorts an origin's edges at every
# breadth-first step, the minimizer recounts each trial from scratch.  They
# are copied unchanged except that the relative count comes from the edge
# list here.  Their outputs are observable (closure witness chains,
# orientation witnesses, violating sets), so the fast paths must match them
# exactly, not just agree on the closure.


def ref_delta_rel(g, b, a) -> int:
    return brute_delta(g, set(a) | set(b)) - brute_delta(g, a)


def ref_bounded_orientation(g, verts, load, cap):
    internal = sorted(e for e in g.edges if e[0] in verts and e[1] in verts)
    used = {v: load.get(v, 0) for v in verts}
    for v in verts:
        if used[v] > cap:
            return None, frozenset([v])
    assignment: dict = {}
    out_edges: dict = {v: set() for v in verts}
    for e in internal:
        u, v = e
        parent: dict = {u: None, v: None}
        queue = [u, v]  # breadth-first: the loop also visits what it appends
        goal = None
        for w in queue:
            if used[w] < cap:
                goal = w
                break
            for e2 in sorted(out_edges[w]):
                x = e2[0] if e2[1] == w else e2[1]
                if x not in parent:
                    parent[x] = (w, e2)
                    queue.append(x)
        if goal is None:
            return None, frozenset(parent)
        w = goal
        while parent[w] is not None:
            pw, e2 = parent[w]
            out_edges[pw].discard(e2)
            out_edges[w].add(e2)
            used[pw] -= 1
            used[w] += 1
            assignment[e2] = w
            w = pw
        assignment[e] = w
        out_edges[w].add(e)
        used[w] += 1
    return assignment, None


def ref_minimize_violator(g, base, region):
    current = frozenset(region)
    shrunk = True
    while shrunk:
        shrunk = False
        for v in sorted(current):
            trial = current - {v}
            if trial and ref_delta_rel(g, trial, base) < 0:
                current = trial
                shrunk = True
                break
    return current


def ref_rooted_load(g, rest, current) -> dict:
    return {v: sum(1 for u in current if adjacent(g.edges, u, v)) for v in rest}


def ref_closure_chain(g, a) -> tuple:
    """The closure's absorption chain, round by round, from the copies above."""
    current = frozenset(a)
    chain = [current]
    while True:
        rest = frozenset(g.vertices) - current
        assignment, violating = ref_bounded_orientation(
            g, rest, ref_rooted_load(g, rest, current), g.m)
        if assignment is not None:
            return tuple(chain)
        current = current | ref_minimize_violator(g, current, violating)
        chain.append(current)


def ref_orientation(g) -> tuple:
    """The sorted (origin, other) pairs of the whole-graph orientation."""
    assignment, _ = ref_bounded_orientation(g, frozenset(g.vertices), {}, g.m)
    return tuple(sorted((origin, e[0] if e[1] == origin else e[1])
                        for e, origin in assignment.items()))
