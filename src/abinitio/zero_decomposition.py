"""Structure theory of graphs whose total count is zero.

Inside a hereditarily nonnegative graph with total count zero, the nonempty
self-sufficient subsets are exactly the zero-count subsets.  They form a
set-union lattice generated by the per-vertex closures, which yields the
minimally closed blocks, the maximal connected zero sets, accretion levels,
hulls, and the uniformity bookkeeping for relatively-tight attachments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import limits
from .errors import ConstructionFailed, InvalidMap, OutsideK0
from .graph import (Embedding, EmbeddingPlan, Graph, _connected_expansion, components,
                    connected_subsets)
from .predimension import (_Index, _closure, _member_index, delta, delta_rel,
                           is_self_sufficient)


def _require_zero_ambient(g: Graph) -> _Index:
    """The ambient's orientation index, once it is checked in K0 with count 0."""
    ix = _member_index(g, "ambient is not hereditarily nonnegative")
    if delta(g, g.vertices) != 0:
        raise OutsideK0(f"ambient count is {delta(g, g.vertices)}, expected 0")
    return ix


def is_zero_algebraic(g: Graph, b: Iterable[str], a: Iterable[str]) -> bool:
    """b is relatively tight over a: count zero over a, every proper nonempty
    part strictly positive.  b must be nonempty and disjoint from a."""
    bb = g.check_subset(b)
    aa = g.check_subset(a)
    if not bb:
        raise InvalidMap("the attached set must be nonempty")
    if aa & bb:
        raise InvalidMap(f"sets must be disjoint, shared: {sorted(aa & bb)}")
    if delta_rel(g, bb, aa) != 0:
        return False
    for size in range(1, len(bb)):
        for part in itertools.combinations(sorted(bb), size):
            if delta_rel(g, frozenset(part), aa) <= 0:
                return False
    return True


def is_zero_minimally_algebraic(g: Graph, b: Iterable[str], a: Iterable[str]) -> bool:
    """Tight over a but over no proper subset of a.

    That is: tight over a, and every point of a has a neighbour in b.
    Dropping from a the points with no neighbour in b changes the count over
    a of no part of b, so b stays tight; dropping a nonempty set of points
    with neighbours in b raises b's count above 0."""
    bb = g.check_subset(b)
    aa = g.check_subset(a)
    return is_zero_algebraic(g, bb, aa) and all(g.neighbors(x) & bb for x in aa)


# -- blocks and carriers ---------------------------------------------------


def _vertex_closures(ix: _Index) -> dict:
    return {v: _closure(ix, frozenset([v])).closure for v in ix.names}


def minimally_closed_sets(g: Graph) -> list:
    """The minimal nonempty self-sufficient subsets.  They are exactly the
    per-vertex closures that are closures of each of their own points."""
    return _blocks(g, _vertex_closures(_require_zero_ambient(g)))


def _blocks(g: Graph, blobs: dict) -> list:
    out = []
    for v in g.sorted_vertices():
        c = blobs[v]
        if all(blobs[u] == c for u in c) and c not in out:
            out.append(c)
    # blocks never touch: shared points or cross edges would merge them
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            if a & b or any(g.neighbors(v) & b for v in a):
                raise ConstructionFailed(f"blocks {sorted(a)} and {sorted(b)} touch")
    return sorted(out, key=lambda s: sorted(s))


def connected_zero_sets(g: Graph) -> list:
    """Maximal zero-count subsets not splittable into two self-sufficient
    halves: the unions of overlap components of the per-vertex closures."""
    return _carriers(g, _vertex_closures(_require_zero_ambient(g)))


def _carriers(g: Graph, blobs: dict) -> list:
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for v, blob in blobs.items():
        for u in blob:
            union(v, u)
    groups: dict = {}
    for v in g.vertices:
        groups.setdefault(find(v), set()).add(v)
    carriers = sorted((frozenset(s) for s in groups.values()), key=lambda s: sorted(s))
    for i, a in enumerate(carriers):
        for b in carriers[i + 1:]:
            if any(g.neighbors(v) & b for v in a):
                raise ConstructionFailed(
                    f"carriers {sorted(a)} and {sorted(b)} are joined by an edge")
    return carriers


def _tight_sets_over(g: Graph, pool: frozenset, base: frozenset, cap: int):
    """Connected candidates inside pool that are relatively tight over base,
    plus a flag telling whether the size ceiling was reached: whether pool
    has a connected subset of cap points, that is a component of at least
    cap points.

    Every proper nonempty part of a tight set counts > 0 over base, so the
    scan grows no candidate counting <= 0 (see _connected_expansion) and
    tests tightness only where the count it carries is 0."""
    found = [cand for cand, rel in _connected_expansion(g, pool, cap, over=base)
             if rel == 0 and is_zero_algebraic(g, cand, base)]
    return found, cap > 0 and any(len(c) >= cap for c in components(g, pool))


@dataclass(frozen=True)
class ComponentLevels:
    carrier: frozenset
    level: int
    layers: tuple  # strictly increasing, layers[0] = union of blocks, layers[-1] = carrier
    ceiling_hit: bool

    def to_json_dict(self) -> dict:
        return {
            "carrier": sorted(self.carrier),
            "level": self.level,
            "layers": [sorted(s) for s in self.layers],
            "ceiling_hit": self.ceiling_hit,
        }


@dataclass(frozen=True)
class ZeroDecomposition:
    ambient: Graph
    minimally_closed: tuple
    components: tuple

    def to_json_dict(self) -> dict:
        return {
            "minimally_closed": [sorted(s) for s in self.minimally_closed],
            "components": [c.to_json_dict() for c in self.components],
        }


def level_chain(
    g: Graph,
    carrier: Iterable[str],
    blocks: list | None = None,
    carriers: list | None = None,
    max_set: int | None = None,
) -> ComponentLevels:
    """Accretion layers of one carrier: layer 0 is the union of its blocks,
    each next layer absorbs everything relatively tight over the previous."""
    car = g.check_subset(carrier)
    if carriers is None:
        carriers = connected_zero_sets(g)
    if car not in carriers:
        raise InvalidMap(f"{sorted(car)} is not a maximal connected zero set")
    cap = limits.max_set_size(max_set)
    if blocks is None:
        blocks = minimally_closed_sets(g)
    seed = frozenset().union(*(b for b in blocks if b <= car)) if blocks else frozenset()
    if not (seed and seed <= car):
        raise InvalidMap(f"carrier {sorted(car)} contains no block")
    layers = [seed]
    ceiling_hit = False
    current = seed
    while current != car:
        found, hit = _tight_sets_over(g, car - current, current, cap)
        ceiling_hit = ceiling_hit or hit
        if not found:
            raise ConstructionFailed(
                f"carrier not reachable with attachment size ceiling {cap}")
        current = current | frozenset().union(*found)
        layers.append(current)
    return ComponentLevels(car, len(layers) - 1, tuple(layers), ceiling_hit)


def decompose(g: Graph, max_set: int | None = None) -> ZeroDecomposition:
    """Blocks, carriers and the level chain of every carrier, all derived
    from one pass of per-vertex closures."""
    blobs = _vertex_closures(_require_zero_ambient(g))
    blocks = _blocks(g, blobs)
    carriers = _carriers(g, blobs)
    for b in blocks:
        inside = sum(1 for c in carriers if b <= c)
        if inside != 1:
            raise ConstructionFailed(f"block {sorted(b)} lies in {inside} carriers, not 1")
    components = tuple(
        level_chain(g, c, blocks=blocks, carriers=carriers, max_set=max_set)
        for c in carriers
    )
    return ZeroDecomposition(g, tuple(blocks), components)


# -- hull ------------------------------------------------------------------


def _absorbable_over(g: Graph, d: frozenset, anchor_pool: frozenset) -> bool:
    """Whether d is tight over some subset of anchor_pool."""
    return any(is_zero_algebraic(g, d, xs) for xs in _count_matched(g, d, anchor_pool))


def _contacts(g: Graph, d: frozenset, pool: frozenset) -> frozenset:
    return (frozenset().union(*(g.neighbors(v) for v in d)) & pool) - d


def _count_matched(g: Graph, d: frozenset, pool: frozenset):
    """Each set xs of d's contacts in pool with e(d, xs) = m*|d| - e(d): d
    counts 0 over xs, which tightness over xs needs.  A contact carries at
    least one of those edges, so xs has at most that many points."""
    need = g.m * len(d) - g.edges_within(d)
    ties = {x: len(g.neighbors(x) & d) for x in _contacts(g, d, pool)}
    contacts = sorted(ties)
    for size in range(min(need, len(contacts)) + 1):
        for xs in itertools.combinations(contacts, size):
            if sum(ties[x] for x in xs) == need:
                yield frozenset(xs)


def hull(
    g: Graph, e: Iterable[str], iterate: bool = False, max_set: int | None = None
) -> frozenset:
    """e together with everything relatively tight over a subset of e;
    with iterate, repeat until nothing more is absorbed."""
    current = g.check_subset(e)
    cap = limits.max_set_size(max_set)
    while True:
        absorbed = set()
        for cand in connected_subsets(g, g.vertices - current, cap):
            if _absorbable_over(g, cand, current):
                absorbed |= cand
        if not absorbed:
            return current
        current = current | absorbed
        if not iterate:
            return current


# -- attachment types and counting ----------------------------------------


def find_pattern_iso(
    g_src: Graph,
    d_src: frozenset,
    anchor_pairs: list,
    g_dst: Graph,
    d_dst: frozenset,
    forced: dict | None = None,
) -> dict | None:
    """A bijection d_src -> d_dst matching internal edges and, through the
    given anchor correspondence, all cross edges.  Pairs in forced are fixed
    in advance.  None when no such bijection exists.

    This stays a direct search rather than an EmbeddingPlan run: it matches
    two given vertex sets and has no target graph, so a plan would need two
    induced graphs and a compile per call.  Over one ep_extend pass of the
    51-problem acceptance corpus (2,735 calls, same answers) that cost
    0.33 s against 0.03 s here (Python 3.11, 2 vCPUs).
    """
    if len(d_src) != len(d_dst):
        return None
    assignment: dict = {}

    def ok(p, t):
        for a_src, a_dst in anchor_pairs:
            if g_src.has_edge(p, a_src) != g_dst.has_edge(t, a_dst):
                return False
        for q, u in assignment.items():
            if g_src.has_edge(p, q) != g_dst.has_edge(t, u):
                return False
        return True

    for p, t in sorted((forced or {}).items()):
        if p not in d_src or t not in d_dst or t in assignment.values() or not ok(p, t):
            return None
        assignment[p] = t
    src = [v for v in sorted(d_src) if v not in assignment]
    dst = sorted(d_dst)

    def extend(i):
        if i == len(src):
            return True
        for t in dst:
            if t not in assignment.values() and ok(src[i], t):
                assignment[src[i]] = t
                if extend(i + 1):
                    return True
                del assignment[src[i]]
        return False

    return dict(assignment) if extend(0) else None


def mu_count(
    c: Graph,
    a_image: Iterable[str],
    b_image: Iterable[str],
    alpha: Embedding,
) -> int:
    """How many self-sufficient copies of the combined pattern on a+b extend
    the given self-sufficient placement of the base pattern on a."""
    aa = c.check_subset(a_image)
    bb = c.check_subset(b_image)
    if aa & bb:
        raise InvalidMap(f"base and attachment overlap: {sorted(aa & bb)}")
    base_pattern = c.induced(aa)
    if alpha.source != base_pattern or alpha.target != c:
        raise InvalidMap("alpha must map the base pattern into the ambient")
    if not alpha.is_induced():
        raise InvalidMap("alpha is not induced")
    if not is_self_sufficient(c, alpha.image):
        raise InvalidMap("alpha is not strong: image is not self-sufficient")
    return count_strong_extensions(c, aa, bb, alpha.as_dict())


def count_strong_extensions(
    c: Graph,
    base: frozenset,
    attach: frozenset,
    fixed: dict,
    plan: EmbeddingPlan | None = None,
) -> int:
    """How many strong embeddings of the pattern c.induced(base | attach)
    agree with fixed on base.  Callers counting over many placements pass
    the plan compiled for that pattern with base pinned, so the pattern is
    built and compiled once rather than per placement."""
    if plan is None:
        plan = EmbeddingPlan(c.induced(base | attach), pinned=base)
    return plan.count(c, fixed, is_strong=is_self_sufficient)


def _placement_counts(c: Graph, base: frozenset, att: frozenset, placements: list,
                      plan: EmbeddingPlan) -> list:
    """count_strong_extensions for each placement f (a dict on base), once per
    key: f's image set and the images of the contacts, the base vertices with
    a neighbour in att, in name order.  The pattern constrains att only by
    adjacency to f(contacts), non-adjacency to the rest of f's image,
    injectivity and strength of the whole image: equal keys, equal counts."""
    contacts = tuple(sorted(x for x in base if c.neighbors(x) & att))
    memo: dict = {}
    counts = []
    for f in placements:
        key = (frozenset(f.values()), tuple([f[x] for x in contacts]))
        if key not in memo:
            memo[key] = count_strong_extensions(c, base, att, f, plan=plan)
        counts.append(memo[key])
    return counts


# -- uniformity report ------------------------------------------------------


@dataclass(frozen=True)
class BaseWitness:
    base: frozenset
    generator: frozenset
    zero_minimal_set: frozenset
    level_index: int

    def to_json_dict(self) -> dict:
        return {
            "base": sorted(self.base),
            "generator": sorted(self.generator),
            "zero_minimal_set": sorted(self.zero_minimal_set),
            "level_index": self.level_index,
            "closure_scope": "ambient",
        }


def base_attachment_pairs(
    g: Graph,
    carrier: frozenset,
    base_layer: frozenset,
    level_index: int,
    max_set: int | None = None,
) -> list:
    """All (witness) triples for one carrier: a generator inside the given
    layer, its ambient closure as base, and a set minimally tight over the
    generator, disjoint from the base and living above the layer.

    Tightness over a generator gen asks e(d, gen) = m*|d| - e(d), and
    minimality asks every point of gen to touch d.  Over a self-sufficient
    layer L every d outside it has e(d, L) <= m*|d| - e(d), so gen must be
    all of d's contacts in L; as d has no other edges into L, d is tight
    over its contacts exactly when it is tight over L.  The witnesses are
    then read off the sets tight over L.  Over any other layer each set of
    contacts with exactly that many edges into d is tried.  Membership of g
    is checked once, if there is a closure to take."""
    cap = limits.max_set_size(max_set)
    pool = carrier - base_layer
    if base_layer <= g.vertices and is_self_sufficient(g, base_layer):
        pairs = [(d, _contacts(g, d, base_layer))
                 for d in _tight_sets_over(g, pool, base_layer, cap)[0]]
    else:
        pairs = [(d, gen) for d in connected_subsets(g, pool, cap)
                 for gen in _count_matched(g, d, base_layer)
                 if is_zero_minimally_algebraic(g, d, gen)]
    out = []
    ix = _member_index(g, "closure requires a hereditarily nonnegative ambient") if pairs else None
    for d, gen in pairs:
        base = _closure(ix, gen).closure
        if base <= base_layer and not d & base:
            out.append(BaseWitness(base, gen, d, level_index))
    return sorted(
        out, key=lambda w: (sorted(w.base), sorted(w.zero_minimal_set), sorted(w.generator)))


def _dedupe_witnesses(g: Graph, witnesses: list) -> list:
    """One witness per (base, attachment type over the base)."""
    kept: list = []
    for w in witnesses:
        anchor_pairs = [(v, v) for v in sorted(w.base)]
        if not any(k.base == w.base and find_pattern_iso(
                g, w.zero_minimal_set, anchor_pairs, g, k.zero_minimal_set) for k in kept):
            kept.append(w)
    return kept


def uniform_algebraicity_report(
    g: Graph,
    i: int,
    max_set: int | None = None,
) -> list:
    """Per (base, attachment type): the extension count over every strong
    placement of the base pattern, and whether all counts agree.  Each base's
    placements are enumerated once, and placements agreeing on their image
    set and on the images of the contacts (the base vertices next to the
    attachment) share one count: nothing else constrains the attachment."""
    if i < 1:
        raise InvalidMap(f"level index must be >= 1, got {i}")
    rows = []
    placements: dict = {}
    for comp in decompose(g, max_set=max_set).components:
        if comp.level < i:
            continue
        witnesses = base_attachment_pairs(
            g, comp.carrier, comp.layers[i - 1], i, max_set=max_set)
        for w in _dedupe_witnesses(g, witnesses):
            if w.base not in placements:
                placements[w.base] = [dict(p) for p in EmbeddingPlan(g.induced(w.base)).pairs(
                    g, is_strong=is_self_sufficient)]
            plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
            counts = _placement_counts(
                g, w.base, w.zero_minimal_set, placements[w.base], plan)
            rows.append((w, counts, len(set(counts)) <= 1))
    return rows
