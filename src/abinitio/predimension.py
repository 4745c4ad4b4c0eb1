"""The sparsity count m*|s| - e(s), self-sufficiency, and strong closure.

A subset is self-sufficient when no superset has a strictly smaller count.
Membership questions reduce to bounded-outdegree edge orientations, found by
augmenting-path reassignment; the closure absorbs inclusion-minimal
strictly-decreasing extensions extracted from orientation failure regions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ConstructionFailed, OutsideK0
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

    Edges are placed in sorted order: an edge with a free endpoint goes to
    it directly, otherwise a breadth-first search reassigns edges along a
    path to a free vertex.  Each origin keeps its edges (never more than
    cap) in a sorted list, so the search visits them in name order without
    sorting at every step.
    """
    if verts == g.vertices:
        internal = sorted(g.edges)
    else:
        internal = sorted(e for e in g.edges if e[0] in verts and e[1] in verts)
    used = {v: load.get(v, 0) for v in verts}
    for v in verts:
        if used[v] > cap:
            return None, frozenset([v])
    assignment: dict = {}
    out_edges: dict = {v: [] for v in verts}
    for e in internal:
        u, v = e
        if used[u] < cap:
            w = u
        elif used[v] < cap:
            w = v
        else:
            parent: dict = {u: None, v: None}
            queue = [u, v]  # breadth-first: the loop also visits what it appends
            w = None
            for x in queue:
                if used[x] < cap:
                    w = x
                    break
                for e2 in out_edges[x]:
                    y = e2[0] if e2[1] == x else e2[1]
                    if y not in parent:
                        parent[y] = (x, e2)
                        queue.append(y)
            if w is None:
                return None, frozenset(parent)
            while parent[w] is not None:
                pw, e2 = parent[w]
                out_edges[pw].remove(e2)
                bisect.insort(out_edges[w], e2)
                used[pw] -= 1
                used[w] += 1
                assignment[e2] = w
                w = pw
        assignment[e] = w
        out_edges[w].append(e)  # edges arrive sorted: e sorts after all placed ones
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


def _minimize_violator(g: Graph, base: frozenset, region: frozenset) -> tuple:
    """Inclusion-minimal subset of the region whose absorption still strictly
    drops the count over base, returned with its relative count over base.

    The scan restarts from the smallest name after each removal.  That makes
    the result deterministic and genuinely minimal, and the order must stay:
    the chosen subsets are output as closure witness chains.  Each vertex
    keeps its number of neighbours in the current set plus in the base;
    dropping v changes the relative count by that number minus m, so a trial
    costs O(1) and a removal O(degree), to update the neighbours.
    """
    m = g.m
    inner = {v: len(g.neighbors(v) & region) for v in region}
    cross = {v: len(g.neighbors(v) & base) for v in region}
    rel = m * len(region) - sum(inner.values()) // 2 - sum(cross.values())
    ties = {v: inner[v] + cross[v] for v in region}
    order = sorted(region)
    while len(order) > 1:
        for i, v in enumerate(order):
            if rel + ties[v] - m < 0:
                break
        else:
            break
        rel += ties.pop(v) - m
        del order[i]
        for u in g.neighbors(v):
            if u in ties:
                ties[u] -= 1
    return frozenset(order), rel


def closure(g: Graph, a: Iterable[str]) -> ClosureResult:
    """The smallest self-sufficient superset, with the absorption chain that
    produced it.  The ambient must be hereditarily nonnegative; that is
    checked once here, and the callers that close many sets over one
    ambient check it once and call _closure.
    """
    if not is_in_k0(g):
        raise OutsideK0("closure requires a hereditarily nonnegative ambient")
    return _closure(g, g.check_subset(a))


def _closure(g: Graph, current: frozenset) -> ClosureResult:
    """closure over an ambient already known to be in K0.

    Each round runs the rooted orientation; on failure the saturated region
    it returns has strictly negative relative count, and any inclusion-minimal
    violator inside it lies within the closure (intersect it with the closure:
    submodularity keeps the intersection violating, minimality forces
    containment), so absorbing it never overshoots.
    """
    chain = [current]
    while True:
        rest = g.vertices - current
        load = {v: len(g.neighbors(v) & current) for v in rest}
        assignment, violating = _bounded_orientation(g, rest, load, g.m)
        if assignment is not None:
            return ClosureResult(current, tuple(chain))
        step, rel = _minimize_violator(g, current, violating)
        if rel >= 0:
            raise ConstructionFailed(
                f"closure round {len(chain)}: absorbing {sorted(step)} changes the count "
                f"by {rel}, not below 0", stage_log=[sorted(s) for s in chain])
        current = current | step
        chain.append(current)


def dimension(g: Graph, a: Iterable[str]) -> int:
    """The count of the closure; monotone and submodular."""
    return delta(g, closure(g, a).closure)


def geometric_closure_bounded(g: Graph, a: Iterable[str]) -> frozenset:
    """All points whose addition leaves the dimension over a unchanged.
    Membership of the ambient is checked once, not once per point."""
    aa = g.check_subset(a)
    if not is_in_k0(g):
        raise OutsideK0("geometric closure requires a hereditarily nonnegative ambient")
    base = delta(g, _closure(g, aa).closure)
    return frozenset(
        v for v in g.sorted_vertices() if delta(g, _closure(g, aa | {v}).closure) == base)


def strong_embeddings(a: Graph, c: Graph, max_target: int | None = None) -> list:
    """Induced embeddings of a into c whose image is self-sufficient."""
    return enumerate_embeddings(
        a, c, strong_only=True, is_strong=is_self_sufficient, max_target=max_target)
