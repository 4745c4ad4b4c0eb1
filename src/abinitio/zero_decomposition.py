"""Structure theory of graphs whose total count is zero.

Inside a hereditarily nonnegative graph with total count zero, the nonempty
self-sufficient subsets are exactly the zero-count subsets.  The sets tight
over a self-sufficient base are the saturated sink strong components of one
orientation rooted at it (predimension._tight_components): over the empty
set the minimally closed blocks, over each accretion layer what the next one
absorbs.  The carriers, the maximal connected zero sets, are the connected
components.  Hulls and uniformity reports build on these.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from . import limits
from .errors import ConstructionFailed, InvalidMap, OutsideK0
from .graph import Embedding, EmbeddingPlan, Graph, _picker, _Record, components, connected_subsets
from .predimension import (_Index, _collect, _last_index, _orientation, _stored_orientation,
                           _tight_components, delta, delta_rel, is_self_sufficient)


def _require_zero_ambient(g: Graph) -> list:
    """The sets tight over the empty set, once the store has found g in K0
    and g counts 0: off the store's orientation, as any saturates each point."""
    stored = _stored_orientation(g)
    if stored is None:
        raise OutsideK0("ambient is not hereditarily nonnegative")
    if delta(g, g.vertices) != 0:
        raise OutsideK0(f"ambient count is {delta(g, g.vertices)}, expected 0")
    return next(iter(_tight_components(_last_index(g), (), stored=stored)), [])


def is_zero_algebraic(g: Graph, b: Iterable[str], a: Iterable[str]) -> bool:
    """b is relatively tight over a: count zero over a, every proper nonempty
    part strictly positive.  b must be nonempty and disjoint from a.  Only
    edges inside a | b count, so on their graph b is the one set tight over a.

    Two families of parts are read off adjacency first: a point v of b
    counts m - |N(v) & a| over a, and b - {v} counts |N(v) & (a | b)| - m,
    as b counts 0; either one at most 0 rejects b before a graph is built."""
    bb = g.check_subset(b)
    aa = g.check_subset(a)
    if not bb:
        raise InvalidMap("the attached set must be nonempty")
    if aa & bb:
        raise InvalidMap(f"sets must be disjoint, shared: {sorted(aa & bb)}")
    if delta_rel(g, bb, aa) != 0:
        return False
    if len(bb) > 1:
        both, m = aa | bb, g.m
        for v in bb:
            near = g.neighbors(v)
            if len(near & aa) >= m or len(near & both) <= m:
                return False
    return _tight_components(_Index(g.induced(aa | bb)), aa) == [[bb]]


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


def minimally_closed_sets(g: Graph) -> list:
    """The minimal nonempty self-sufficient subsets: the sets tight over the
    empty set.  g counts 0, so an orientation of g within outdegree m
    saturates every point, and these are its sink strong components: each
    lies in one carrier, and no two touch, as an edge would leave one."""
    return sorted(_require_zero_ambient(g), key=sorted)


def connected_zero_sets(g: Graph) -> list:
    """Maximal zero-count subsets not splittable into two self-sufficient
    halves: the connected components.  In an orientation of g the closure of
    a point is what it reaches, so each edge joins its ends' closures."""
    _require_zero_ambient(g)
    return components(g, g.vertices)


class ComponentLevels(_Record):
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


class ZeroDecomposition(_Record):
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
    each next layer absorbs everything relatively tight over the previous.
    One search rooted at the blocks gives every step (_tight_components)."""
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
    inner = g.induced(car)  # tightness inside the carrier reads only its edges
    steps = _tight_components(_last_index(inner), seed, max(cap, 1)) if seed != car else []
    if steps is None:
        raise InvalidMap(f"layer {sorted(seed)} is not self-sufficient")
    layers = [seed]
    for found in steps:
        layers.append(layers[-1] | frozenset().union(*found))
    if layers[-1] != car:
        raise ConstructionFailed(f"carrier not reachable with attachment size ceiling {cap}")
    # hit when a step's pool has a component of cap points: the first holds the rest
    hit = cap > 0 and any(len(c) >= cap for c in components(inner, car - seed))
    return ComponentLevels(car, len(layers) - 1, tuple(layers), hit)


def decompose(g: Graph, max_set: int | None = None) -> ZeroDecomposition:
    """Blocks, carriers and the level chain of every carrier.  The stored
    orientation of g checks it in K0 and gives the blocks.  max_set only
    filters the tight sets each layer absorbs: those of at most
    max(max_set, 1) points."""
    limits.max_set_size(max_set)
    return _decomposition(g, max_set)


@lru_cache(maxsize=1)  # an audit and the reports on its levels read one graph
def _decomposition(g: Graph, max_set: int | None) -> ZeroDecomposition:
    blocks = minimally_closed_sets(g)
    carriers = components(g, g.vertices)
    return ZeroDecomposition(g, tuple(blocks), tuple(
        level_chain(g, c, blocks=blocks, carriers=carriers, max_set=max_set)
        for c in carriers))


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
    plan = EmbeddingPlan(c.induced(aa | bb), pinned=aa)
    return plan.count_each(c, [alpha.as_dict()], is_self_sufficient)[0]


# -- uniformity report ------------------------------------------------------


class BaseWitness(_Record):
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
    then read off the sets tight over L, when the orientation rooted at L
    finds them.  Over any other layer each set of contacts with exactly that
    many edges into d is tried.  The generators are closed on one
    orientation of g, once it has found g in K0."""
    cap = limits.max_set_size(max_set)
    pool = carrier - base_layer
    steps = _tight_components(_last_index(g), base_layer, max(cap, 1)) \
        if base_layer <= g.vertices else None
    if steps is not None:
        pairs = [(d, _contacts(g, d, base_layer)) for step in steps[:1] for d in step if d <= pool]
    else:
        pairs = [(d, gen) for d in connected_subsets(g, pool, cap)
                 for gen in _count_matched(g, d, base_layer)
                 if is_zero_minimally_algebraic(g, d, gen)]
    orientation = _orientation(g) if pairs else {}
    out = []
    for d, gen in pairs:
        base = _collect(g, orientation, gen)
        if base <= base_layer and not d & base:
            out.append(BaseWitness(base, gen, d, level_index))
    return sorted(out, key=_witness_order)


def _witness_order(w: BaseWitness) -> tuple:
    return sorted(w.base), sorted(w.zero_minimal_set), sorted(w.generator)


def _dedupe_witnesses(g: Graph, witnesses: list) -> list:
    """One witness per (base, attachment type over the base): attachments
    d, d' of one base have one type when a bijection d -> d' matches their
    edges, inside and to the base fixed.  Then both have one size and one
    set of contacts in the base, where d's plan is pinned pointwise."""
    kept: dict = {}  # (base, size, contacts) -> attachments kept
    out = []
    for w in witnesses:
        d = w.zero_minimal_set
        contacts = _contacts(g, d, w.base)
        seen = kept.setdefault((w.base, len(d), contacts), [])
        if seen:
            plan = EmbeddingPlan(g.induced(contacts | d), pinned=contacts)
            fixed = {x: x for x in contacts}
            if any(plan.first(g, fixed, within=k) is not None for k in seen):
                continue
        seen.append(d)
        out.append(w)
    return out


def _report_witnesses(g: Graph, i: int, max_set: int | None, carriers: list | None = None) -> list:
    """The witnesses of uniform_algebraicity_report's rows, one per (base,
    attachment type), in row order.  carriers gets per carrier of level at
    least i - 1 [carrier, layer i - 2 (empty at i = 1), layer i - 1, its
    witnesses before the dedupe], which _sweep_witnesses carries."""
    if i < 1:
        raise InvalidMap(f"level index must be >= 1, got {i}")
    carriers = [] if carriers is None else carriers
    for comp in decompose(g, max_set=max_set).components:
        if comp.level >= i - 1:
            carriers.append([comp.carrier, comp.layers[i - 2] if i > 1 else frozenset(),
                             comp.layers[i - 1], base_attachment_pairs(
                                 g, comp.carrier, comp.layers[i - 1], i, max_set=max_set)
                             if comp.level >= i else []])
    return [w for c in carriers for w in _dedupe_witnesses(g, c[3])]


def _sweep_witnesses(g: Graph, i: int, max_set: int | None, memo: dict) -> list:
    """_report_witnesses for a sweep's pass, carried from the last one:
    memo["carriers"] holds its graph and carriers as _report_witnesses
    records them, memo["copies"] each copy added since, as (source row,
    generator image gen, base image, fresh points).  The old graph is strong
    in the grown one, so old rows keep their sets, edges and closures.  A
    copy counts 0 over gen, all its contacts: with gen in layer i - 1 of one
    carrier but not in layer i - 2, it joins layer i, no lower layer moves,
    and its row, based on gen's closure, joins that carrier's list under
    base_attachment_pairs' filter.  Any other copy has the lists recomputed.
    A copy row based on the image of its source's base is that row's image,
    base onto base, so it takes the source's type (_report_rows)."""
    prev, carriers = memo.pop("carriers", (None, []))
    copies = memo.pop("copies", [])
    kinds = memo.setdefault("kinds", {})
    carried = copies and prev is not None and g.vertices == prev.vertices.union(
        *(c[3] for c in copies))
    out = _orientation(g) if copies else {}
    for source, gen, image, att in copies:
        w = BaseWitness(_collect(g, out, gen), gen, att, i)
        if w.base == image:
            kinds[w] = kinds.get(source)
        home = [c for c in carriers if gen <= c[2] and not gen <= c[1]]
        carried = carried and len(home) == 1
        if carried:
            home[0][0] |= att
            if w.base <= home[0][2] and not w.base & att:
                home[0][3].append(w)
    if not carried:
        carriers = []
        witnesses = _report_witnesses(g, i, max_set, carriers)
    else:
        carriers.sort(key=lambda c: sorted(c[0]))
        for c in carriers:
            c[3].sort(key=_witness_order)
        witnesses = [w for c in carriers for w in _dedupe_witnesses(g, c[3])]
    memo["carriers"] = (g, carriers)
    return witnesses


def _row_invariant(g: Graph, w: BaseWitness) -> tuple:
    """The sorted degrees of the base points and of the attachment points
    in g.induced(base | attachment), which also fix both sizes and the edge
    count: equal for rows of one type."""
    both = w.base | w.zero_minimal_set
    return tuple(tuple(sorted([len(g.neighbors(v) & both) for v in part]))
                 for part in (w.base, w.zero_minimal_set))


def _report_rows(g: Graph, i: int, max_set: int | None, memo: dict) -> list:
    """uniform_algebraicity_report's rows by class, without listing the
    placements: per row the witness and the set of counts its base's strong
    placements see (_placement_classes).  Rows share a type when an
    isomorphism σ of their patterns, base | attachment, maps base onto base;
    a strong placement f of the second base then matches f∘σ of the first,
    onto one image with one count, so each type present is counted once, at
    its first row.  Copies add no edge between existing points, so a row
    keeps its type through a sweep, in memo["kinds"].  A row of no known
    type is bucketed by _row_invariant and tested against its bucket's
    types: a type's pattern, attachment pinned, into g with the pins inside
    the row's attachment and the rest inside its base (the small attachment
    first fixes the contacts); the sizes being equal, a hit is such a σ."""
    kinds = memo.setdefault("kinds", {})  # row -> the plan testing its type
    known = memo.setdefault("types", {})  # _row_invariant -> those plans
    rows, counted = [], {}  # type -> its counts on g
    for w in _sweep_witnesses(g, i, max_set, memo):
        kind = kinds.get(w)
        if kind is None:
            bucket = known.setdefault(_row_invariant(g, w), [])
            kind = next((plan for plan in bucket
                         if plan.embeds_within(g, w.zero_minimal_set, w.base)), None)
            if kind is None:
                kind = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set),
                                     pinned=w.zero_minimal_set)
                bucket.append(kind)
            kinds[w] = kind
        if kind not in counted:
            plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
            counted[kind] = frozenset([n for _, _, n in _placement_classes(
                g, w.base, plan, plan.touched, memo)])
        rows.append((w, counted[kind]))
    return rows


def _placement_classes(g: Graph, base: frozenset, plan: EmbeddingPlan, pins: tuple,
                       memo: dict) -> list:
    """The placements of base in g by class, unlisted: per image set and
    images of pins, name-ordered base points holding the touched pins of
    plan (a row's pattern pinned at base), those two and the count one tally
    gives each of its placements.  memo keeps each base's plan and, per
    (base, pins), its pattern pinned there with its automorphisms'
    restrictions to pins; per graph, one placement per image set of each
    base and each pinned pattern's tables, which count_keyed keeps.  Premise:
    g counts 0 and is in K0, so what counts 0 is strong and nothing is
    tested: base, a closure, counts 0, so each image S does, and so does
    S ∪ K for each extension K, as the attachment counts 0 over the base."""
    if base not in memo:
        memo[base] = EmbeddingPlan(g.induced(base))
    if (g, base) not in memo:
        memo[g, base] = [(frozenset(f.values()), f) for f in memo[base].representatives(g)]
    if (base, pins) not in memo:
        pinned = EmbeddingPlan(memo[base].pattern, pinned=pins)
        memo[base, pins] = (pinned, pinned.pin_images())
    keys = [(image, tuple([f[y] for y in ys]))
            for image, f in memo[g, base] for ys in memo[base, pins][1]]
    pick = _picker([pins.index(x) for x in plan.touched])
    counts = plan.count_keyed(g, [(image, pick(ims)) for image, ims in keys],
                              memo.setdefault((g, plan.pattern, plan.pinned), {}))
    return [(image, ims, n) for (image, ims), n in zip(keys, counts)]


def uniform_algebraicity_report(g: Graph, i: int, max_set: int | None = None) -> list:
    """Per (base, attachment type): the extension count over every strong
    placement of the base pattern, in canonical order, and whether all
    counts agree.  Premise, which decompose checks: g counts 0 and is in K0,
    so no placement or extension needs a strength test (_placement_classes).
    Each base's placements are listed once, by images() with each image set
    one object, and a row's counted by class (EmbeddingPlan.count_keyed).
    The level stage lists none (_report_rows, _placement_classes)."""
    rows, placements, sets = [], {}, {}  # sets interns the placements' image sets
    for w in _report_witnesses(g, i, max_set):
        if w.base not in placements:  # per placement (image set, images in name order)
            placements[w.base] = [(sets.setdefault(s, s), t) for t in EmbeddingPlan(
                g.induced(w.base)).images(g) for s in (frozenset(t),)]
        plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
        pick = _picker([sorted(w.base).index(x) for x in plan.touched])
        counts = plan.count_keyed(g, [(s, pick(t)) for s, t in placements[w.base]], {})
        rows.append((w, counts, len(set(counts)) <= 1))
    return rows
