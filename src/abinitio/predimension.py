"""The sparsity count m*|s| - e(s), self-sufficiency, and strong closure.

A subset is self-sufficient when no superset has a strictly smaller count.
Membership questions reduce to bounded-outdegree edge orientations, found by
augmenting-path reassignment; the closure absorbs inclusion-minimal
strictly-decreasing extensions extracted from orientation failure regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import OutsideK0
from .graph import Graph, count_cross_edges, enumerate_embeddings


def delta(g: Graph, s: Iterable[str]) -> int:
    """m*|s| minus the number of edges inside s."""
    sub = g.check_subset(s)
    return g.m * len(sub) - g.edges_within(sub)


def delta_rel(g: Graph, b: Iterable[str], a: Iterable[str]) -> int:
    """delta(a+b) - delta(a) for disjoint a, b."""
    bb = g.check_subset(b)
    aa = g.check_subset(a)
    if aa & bb:
        raise ValueError(f"relative count needs disjoint sets, shared: {sorted(aa & bb)}")
    return g.m * len(bb) - g.edges_within(bb) - count_cross_edges(g, bb, aa)


# -- bounded orientations -------------------------------------------------


def _bounded_orientation(g: Graph, verts: frozenset, load: dict, cap: int):
    """Assign each edge inside verts an origin endpoint, origins carrying at
    most cap edges each on top of their preset load.

    Returns (assignment, None) on success or (None, violating_set) where the
    violating set certifies that no assignment exists.
    """
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


def is_in_k0(g: Graph) -> bool:
    """Whether every subset has a nonnegative count; decided by orientability
    with outdegree at most m rather than by subset enumeration."""
    assignment, _ = _bounded_orientation(g, g.vertices, {}, g.m)
    return assignment is not None


@dataclass(frozen=True)
class OrientationWitness:
    orientation: tuple  # ((origin, other), ...) sorted
    max_outdegree: int

    def to_json_dict(self) -> dict:
        return {
            "orientation": [[a, b] for (a, b) in self.orientation],
            "max_outdegree": self.max_outdegree,
        }


def orientation_witness(g: Graph) -> OrientationWitness:
    """An explicit orientation with outdegree <= m, or an error naming a
    violating subgraph."""
    assignment, violating = _bounded_orientation(g, g.vertices, {}, g.m)
    if assignment is None:
        raise OutsideK0(
            f"no orientation with outdegree <= {g.m}; violating set {sorted(violating)}")
    directed = []
    outdeg: dict = {}
    for e, origin in assignment.items():
        other = e[0] if e[1] == origin else e[1]
        directed.append((origin, other))
        outdeg[origin] = outdeg.get(origin, 0) + 1
    return OrientationWitness(tuple(sorted(directed)), max(outdeg.values(), default=0))


@lru_cache(maxsize=262144)
def _self_sufficient_cached(g: Graph, aa: frozenset) -> bool:
    rest = g.vertices - aa
    load = {v: len(g.neighbors(v) & aa) for v in rest}
    assignment, _ = _bounded_orientation(g, rest, load, g.m)
    return assignment is not None


def is_self_sufficient(g: Graph, a: Iterable[str]) -> bool:
    """True iff delta(a') >= delta(a) for every superset a' inside g.

    Equivalent to orienting the edges outside a, with edges into a forced
    onto their outside endpoint, within outdegree m.  Graphs are immutable,
    so results are memoized; extension sweeps ask about the same set under
    the same ambient thousands of times.
    """
    return _self_sufficient_cached(g, g.check_subset(a))


# -- closure --------------------------------------------------------------


@dataclass(frozen=True)
class ClosureResult:
    closure: frozenset
    witness_chain: tuple  # (frozenset, ...) from the input set to the closure

    def to_json_dict(self) -> dict:
        return {
            "closure": sorted(self.closure),
            "witness_chain": [sorted(step) for step in self.witness_chain],
        }


def _minimize_violator(g: Graph, base: frozenset, region: frozenset) -> frozenset:
    """Inclusion-minimal subset of the region whose absorption still strictly
    drops the count over base.  Restarting the sorted scan after each removal
    makes the result deterministic and genuinely minimal."""
    current = frozenset(region)
    shrunk = True
    while shrunk:
        shrunk = False
        for v in sorted(current):
            trial = current - {v}
            if trial and delta_rel(g, trial, base) < 0:
                current = trial
                shrunk = True
                break
    return current


def closure(g: Graph, a: Iterable[str]) -> ClosureResult:
    """The smallest self-sufficient superset, with the absorption chain that
    produced it.  The ambient must be hereditarily nonnegative.

    Each round runs the rooted orientation; on failure the saturated region
    it returns has strictly negative relative count, and any inclusion-minimal
    violator inside it lies within the closure (intersect it with the closure:
    submodularity keeps the intersection violating, minimality forces
    containment), so absorbing it never overshoots.
    """
    if not is_in_k0(g):
        raise OutsideK0("closure requires a hereditarily nonnegative ambient")
    current = g.check_subset(a)
    chain = [current]
    while True:
        rest = g.vertices - current
        load = {v: len(g.neighbors(v) & current) for v in rest}
        assignment, violating = _bounded_orientation(g, rest, load, g.m)
        if assignment is not None:
            return ClosureResult(current, tuple(chain))
        step = _minimize_violator(g, current, violating)
        assert delta(g, current | step) < delta(g, current)
        current = current | step
        chain.append(current)


def dimension(g: Graph, a: Iterable[str]) -> int:
    """The count of the closure; monotone and submodular."""
    return delta(g, closure(g, a).closure)


def geometric_closure_bounded(g: Graph, a: Iterable[str]) -> frozenset:
    """All points whose addition leaves the dimension over a unchanged."""
    aa = g.check_subset(a)
    base = dimension(g, aa)
    out = set()
    for v in g.sorted_vertices():
        if dimension(g, aa | {v}) == base:
            out.add(v)
    return frozenset(out)


def strong_embeddings(a: Graph, c: Graph, max_target: int | None = None) -> list:
    """Induced embeddings of a into c whose image is self-sufficient."""
    return enumerate_embeddings(
        a, c, strong_only=True, is_strong=is_self_sufficient, max_target=max_target)
