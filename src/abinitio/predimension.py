"""The sparsity count m*|s| - e(s), self-sufficiency, and strong closure.

A subset is self-sufficient when no superset has a strictly smaller count.
Membership questions reduce to bounded-outdegree edge orientations.  Where
only an answer or a set is output the order of work is free: points whose
edges fit their capacity peel off, and only a core with room left is
searched.  One such orientation per graph is stored, in a small process-wide
memo, and read for membership, dimension, gcl, closure sets (by collecting
spare capacity) and the blocks of a zero-count graph.  Rooted questions
search once each: self-sufficiency after its own peel, and the sets tight
over a self-sufficient base, with every accretion step above them, as the
saturated strong components of one orientation rooted at it.  An output
orientation (witnesses, closure chains) is found by augmenting paths on ids
in name order, but a graph with over m edges per point fails its witness at
once, naming the peel's core.  Closure chains absorb minimal strictly
decreasing extensions of failure regions up to the closure set, read first.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from itertools import compress, groupby
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ConstructionFailed, OutsideK0
from .graph import Embedding, EmbeddingPlan, Graph, _Record, count_cross_edges


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


class _Index:
    """The vertices numbered in name order, and per vertex the ascending ids
    of its neighbours above it: walking ids up, then each list, visits the
    edges in sorted order.  Searches only read it."""

    __slots__ = ("g", "names", "ids", "higher")

    def __init__(self, g: Graph):
        self.g, self.names = g, sorted(g.vertices)
        self.ids = ids = dict(zip(self.names, range(len(self.names))))
        self.higher = [[] for _ in self.names]
        for u, v in g.edges:  # u < v by name, so by id
            self.higher[ids[u]].append(ids[v])
        for h in self.higher:
            h.sort()


def _rooted(ix: _Index, points: Iterable[str]) -> tuple:
    """Inside flags and loads for a search outside points."""
    n = len(ix.names)
    inside, load = [True] * n, [0] * n
    _absorb(ix, inside, load, points)
    return inside, load


def _absorb(ix: _Index, inside: list, load: list, points: Iterable[str]):
    """Move points outside; each neighbour's load rises by one per point."""
    ids = ix.ids
    for v in points:
        inside[ids[v]] = False
        for u in ix.g.neighbors(v):
            load[ids[u]] += 1


def _orient(ix: _Index, inside: list, load: list):
    """Give each edge between inside vertices an origin, each origin carrying
    at most m edges on top of its load.  Returns (out, None), out[x] the
    sorted ids of the far ends of x's edges, or (None, violating names).

    Edges are placed in sorted order, on a free endpoint or else by a
    breadth-first search that shifts edges along a path to a free vertex; the
    points a failed search reached violate, as does the smallest-named point
    over m by its load.  Ids follow name order, so the search does too.
    """
    cap, names, higher, n = ix.g.m, ix.names, ix.higher, len(ix.names)
    used = list(load)
    if max(compress(used, inside), default=0) > cap:
        x = next(x for x in compress(range(n), inside) if used[x] > cap)
        return None, frozenset([names[x]])
    out: list = [[] for _ in range(n)]
    mark, parent, stamp = [0] * n, [0] * n, 0
    for u in compress(range(n), inside):
        for v in higher[u]:
            if not inside[v]:
                continue
            if used[u] < cap:
                w = u
            elif used[v] < cap:
                w = v
            else:
                stamp += 1
                mark[u] = mark[v] = stamp
                parent[u] = parent[v] = -1
                queue = [u, v]  # breadth-first: the loop also visits what it appends
                for x in queue:
                    for y in out[x]:
                        if mark[y] != stamp:
                            mark[y] = stamp
                            parent[y] = x
                            if used[y] < cap:  # tested on arrival: nothing after it is visited
                                break
                            queue.append(y)
                    else:
                        continue
                    break
                else:
                    return None, frozenset([names[x] for x in queue])
                w = y
                while parent[w] >= 0:
                    pw = parent[w]
                    out[pw].remove(w)
                    bisect.insort(out[w], pw)
                    used[pw] -= 1
                    used[w] += 1
                    w = pw
            out[w].append(v if w == u else u)  # edges arrive sorted: it sorts last
            used[w] += 1
    return out, None


def _tight_components(ix: _Index, base: Iterable[str], cap: int | None = None,
                      stored: Mapping | None = None) -> list | None:
    """The absorption steps over base, sets by least name; None when base
    is not self-sufficient, that is when the orientation rooted at it fails.
    stored, the store's orientation by name, replaces the search over ().

    With edges into base counted on their outside end, a set outside base
    counts over it the sum of m - outdegree over its points plus the number
    of edges leaving it.  So step 0, the sets tight over base, are the strong
    components no edge leaves whose points are all saturated.  Every edge
    between them and the rest points in, so absorbed they leave the
    orientation rooted at the larger base: a saturated component sits one
    step above the highest it reaches.  Tarjan's search, on an explicit
    stack, closes a component after all it reaches: one pass numbers them.
    A component over cap points is barred, as is all that reaches it."""
    inside, load = _rooted(ix, base)
    out = _orient(ix, inside, load)[0] if stored is None else [
        [ix.ids[y] for y in stored[v]] for v in ix.names]
    if out is None:
        return None
    m, n = ix.g.m, len(ix.names)
    cap = n if cap is None else cap
    order, low, comp, step = [0] * n, [0] * n, [-1] * n, [0] * n  # order 0: not yet visited
    pending, found, visits = [], [], 0
    for root in compress(range(n), inside):
        if order[root]:
            continue
        work = [(root, iter(out[root]))]
        pending.append(root)
        order[root] = low[root] = visits = visits + 1
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    work.append((w, iter(out[w])))
                    pending.append(w)
                    order[w] = low[w] = visits = visits + 1
                    break
                if comp[w] < 0:  # still pending: in v's component or above it
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == order[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(pending.pop())
                        comp[members[-1]] = v
                    step[v] = max((step[comp[y]] + 1 for x in members for y in out[x]
                                   if comp[y] != v), default=0)
                    if len(members) > cap or any(load[x] + len(out[x]) != m for x in members):
                        step[v] = n  # barred, with all that reaches it: no chain has n steps
                    found.append((step[v], sorted(members)))
    # a component one step up reaches one a step below: no step is empty
    return [[frozenset(ix.names[x] for x in members) for _, members in group]
            for k, group in groupby(sorted(found), key=lambda c: c[0]) if k < n]


_last_index = lru_cache(maxsize=1)(_Index)  # questions come in runs over one ambient


def _peel(g: Graph, base: frozenset) -> tuple:
    """The points outside base that peel, in order, and the core's count less
    e(base).  A point with p of its neighbours peeled and deg - p <= m takes
    its remaining edges as origin, as any orientation can be flipped to."""
    adj, m = g._adj, g.m
    left = {v: len(near) - m for v, near in adj.items()}  # deg - p - m, p peeled so far
    queue = [v for v, k in left.items() if k <= 0 and v not in base]
    slack = m * (len(g.vertices) - len(base)) - len(g.edges)
    for x in queue:  # the loop also visits what it appends
        slack += left[x]
        for y in adj[x]:
            k = left[y] = left[y] - 1
            if k == 0 and y not in base:
                queue.append(y)
    return queue, slack


def _feasible(g: Graph, base: frozenset, ix: _Index | None = None) -> bool:
    """Whether the edges outside base orient with outdegree at most m, edges
    into base forced onto their outside end (base self-sufficient, or empty and
    g in K0): after the peel, a core below 0 fails or the search on it decides."""
    queue, slack = _peel(g, base)
    if len(queue) + len(base) == len(g.vertices):
        return True
    if not base and slack < 0:
        return False
    ix = ix or _last_index(g)
    inside, load = _rooted(ix, base)
    # the loads sum to 2 e(base) plus the edges leaving base
    if base and slack + (sum(load) - sum(compress(load, inside))) // 2 < 0:
        return False
    ids = ix.ids
    for x in queue:
        inside[ids[x]] = False
    return _orient(ix, inside, load)[0] is not None


@lru_cache(maxsize=16)
def _stored_orientation(g: Graph) -> MappingProxyType | None:
    """Per point, its edges' far ends in an orientation of g with outdegree
    at most m, the peel's with the core searched; None outside K0.  Stored
    per graph value, read-only, its lists tuples: set questions come in runs
    over a few ambients, and every reader copies before it reorients."""
    queue, slack = _peel(g, frozenset())
    out: dict = {}
    for x in queue:
        out[x] = tuple([y for y in g._adj[x] if y not in out])
    if slack >= 0 and len(out) < len(g.vertices):
        ix = _last_index(g)
        names, inside = ix.names, [v not in out for v in ix.names]
        core = _orient(ix, inside, [0] * len(inside))[0] or []
        out.update((names[x], tuple([names[y] for y in ys]))
                   for x, ys in enumerate(core) if inside[x])
    return MappingProxyType(out) if len(out) == len(g.vertices) else None


def _orientation(g: Graph, error: str = "closure requires a hereditarily nonnegative ambient"):
    """The stored orientation of g, g in K0, as a fresh dict, its tuples shared."""
    stored = _stored_orientation(g)
    if stored is None:
        raise OutsideK0(error)
    return dict(stored)


def _collect(g: Graph, out: dict, a: frozenset) -> frozenset:
    """The closure of a, off the orientation out, which it reorients: a set
    counts m - outdegree over its points plus its leaving edges, so with no
    path from a to a spare point outside a left (the pebble game's collection
    step; Lee and Streinu 2008), what a reaches is the least minimiser.  A
    reversed path's tuples are replaced, never changed in place."""
    while True:
        parent, queue = dict.fromkeys(a), list(a)  # breadth-first from a
        for x in queue:
            for y in out[x]:
                if y not in parent:
                    parent[y] = x
                    if len(out[y]) < g.m:
                        break
                    queue.append(y)
            else:
                continue
            break
        else:
            return frozenset(parent)
        while (x := parent[y]) is not None:
            out[x] = tuple(z for z in out[x] if z != y)
            out[y] += (x,)
            y = x


def is_in_k0(g: Graph) -> bool:
    """Whether every subset counts >= 0, that is g orients with outdegree <= m:
    read off the store (_stored_orientation), as closure, dimension, gcl and decompose are."""
    return _stored_orientation(g) is not None


class OrientationWitness(_Record):
    orientation: tuple  # ((origin, other), ...) sorted
    max_outdegree: int

    def to_json_dict(self) -> dict:
        return {
            "orientation": [[a, b] for (a, b) in self.orientation],
            "max_outdegree": self.max_outdegree,
        }


def orientation_witness(g: Graph) -> OrientationWitness:
    """An orientation with outdegree <= m by the name-ordered search, or an
    error naming a violating set: with over m edges per point, unsearched, the
    peel's core, counting at most delta(V) < 0; else where the search failed."""
    if g.m * len(g.vertices) < len(g.edges):
        out, violating = None, g.vertices.difference(_peel(g, frozenset())[0])
    else:
        ix = _Index(g)
        out, violating = _orient(ix, *_rooted(ix, ()))
    if out is None:
        raise OutsideK0(
            f"no orientation with outdegree <= {g.m}; violating set {sorted(violating)}")
    names = ix.names
    return OrientationWitness(tuple((v, names[y]) for v, ys in zip(names, out) for y in ys),
                              max(map(len, out), default=0))


_self_sufficient_cached = lru_cache(maxsize=262144)(_feasible)


def is_self_sufficient(g: Graph, a: Iterable[str]) -> bool:
    """True iff delta(a') >= delta(a) for every superset a' inside g: whether
    the edges outside a orient within outdegree m, edges into a forced onto
    their outside end, decided by peeling before any search.  Graphs are
    immutable, so results are memoized: extension sweeps ask about one set
    under one ambient thousands of times."""
    return _self_sufficient_cached(g, g.check_subset(a))


# -- closure --------------------------------------------------------------


class ClosureResult(_Record):
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
    produced it.  The set is read off the stored orientation; a set short of
    it climbs there by rounds of the name-ordered search, on the graph's
    last index (_last_index), which the searches only read.  The ambient
    must be hereditarily nonnegative."""
    out = _orientation(g)
    current = g.check_subset(a)
    target = _collect(g, out, current)
    if current == target:
        return ClosureResult(current, (current,))
    return _closure(_last_index(g), current, target)


def _closure(ix: _Index, current: frozenset, target: frozenset) -> ClosureResult:
    """The absorption chain from current up to its closure target.

    Each round runs the rooted orientation.  While current is short of the
    closure it is not self-sufficient, so the search fails, and the
    saturated region it returns has strictly negative relative count; any
    inclusion-minimal violator inside it lies within the closure (intersect
    it with the closure: submodularity keeps the intersection violating,
    minimality forces containment), so absorbing it never overshoots and the
    chain ends at target, with no search left to confirm it.
    """
    g = ix.g
    inside, load = _rooted(ix, current)
    chain = [current]
    while current != target:
        out, violating = _orient(ix, inside, load)
        if out is not None:
            raise ConstructionFailed(
                f"closure round {len(chain)}: {sorted(current)} orients, short of the "
                f"closure's {len(target)} points", stage_log=[sorted(s) for s in chain])
        step, rel = _minimize_violator(g, current, violating)
        if rel >= 0:
            raise ConstructionFailed(
                f"closure round {len(chain)}: absorbing {sorted(step)} changes the count "
                f"by {rel}, not below 0", stage_log=[sorted(s) for s in chain])
        _absorb(ix, inside, load, step)
        current = current | step
        chain.append(current)
    return ClosureResult(current, tuple(chain))


def _closure_set(g: Graph, a: Iterable[str]) -> frozenset:
    """closure(g, a).closure, checked alike, from any orientation."""
    return _collect(g, _orientation(g), g.check_subset(a))


def dimension(g: Graph, a: Iterable[str]) -> int:
    """The count of the closure; monotone and submodular."""
    return delta(g, _closure_set(g, a))


def geometric_closure_bounded(g: Graph, a: Iterable[str]) -> frozenset:
    """All points whose addition leaves the dimension over a unchanged: on
    the orientation collected at the closure, those reaching no spare point
    outside it, found by one backward search."""
    aa = g.check_subset(a)
    out = _orientation(g, "geometric closure requires a hereditarily nonnegative ambient")
    inner = _collect(g, out, aa)
    reach = [v for v, ys in out.items() if len(ys) < g.m and v not in inner]
    seen = set(reach)
    for y in reach:  # the loop also visits what it appends
        fresh = [x for x in g._adj[y] - seen if y in out[x]]
        seen.update(fresh)
        reach += fresh
    return g.vertices - seen


def strong_embeddings(a: Graph, c: Graph) -> list:
    """Induced embeddings of a into c whose image is self-sufficient."""
    pairs = EmbeddingPlan(a).pairs(c, is_strong=is_self_sufficient)
    return [Embedding(a, c, p) for p in pairs]
