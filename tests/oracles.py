"""Brute-force reference implementations.

The brute-force oracles work from raw (m, vertices, edges) data by subset or
permutation enumeration, sharing no algorithmic machinery with the package.
The subset oracles (counts, membership, closedness, closure) live in
``abinitio.oracles``, where ``abinitio selftest`` uses them too; they are
re-exported here next to the test-only ones.  The reference copies of
replaced fast paths, at the end, call the package only for the primitives
they were written over; one of them is orientation_witness as it was before
it failed at once on a graph that counts below 0.  Intended for graphs small
enough that exponential scans stay instant.
"""

import itertools
import math
from collections.abc import Callable
from math import prod

from abinitio import (
    AmalgamSpec, BaseWitness, ComponentLevels, ConstructionFailed, Embedding, EmbeddingPlan,
    Graph, InvalidMap, OutsideK0, components, connected_zero_sets, delta, delta_rel,
    free_amalgam, is_in_k0, is_self_sufficient, minimally_closed_sets, pattern_catalog,
    strong_embeddings)
from abinitio import extension, limits
from abinitio.approximation import ApproximationChain
from abinitio.graph import (
    _check_coefficient, _first_hit, _positions, _run, _strength, adjoin_copy)
from abinitio.predimension import (
    ClosureResult, OrientationWitness, _absorb, _feasible, _Index, _minimize_violator, _orient,
    _rooted)
from abinitio.verifier import VerificationReport, _admits_bounded_orientation
from abinitio.zero_decomposition import _report_witnesses
from abinitio.oracles import (  # noqa: F401  (re-exported for the tests)
    brute_closed,
    brute_closure,
    brute_delta,
    brute_in_k0,
    edge_count,
)


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
# list here, and that the search reports the overloaded point with the
# smallest name, not the first one in set order.  Their outputs are observable (closure witness chains,
# orientation witnesses, violating sets), so the fast paths must match them
# exactly, not just agree on the closure.


def ref_delta_rel(g, b, a) -> int:
    return brute_delta(g, set(a) | set(b)) - brute_delta(g, a)


def ref_bounded_orientation(g, verts, load, cap):
    internal = sorted(e for e in g.edges if e[0] in verts and e[1] in verts)
    used = {v: load.get(v, 0) for v in verts}
    for v in sorted(verts):
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


# -- reference copy of the witness that searched every graph -----------------
# predimension.orientation_witness as it was before a graph with more than m
# edges per point failed at once, naming the peel's core: the name-ordered
# search ran on every graph, and a failure named the region it reached.
# Copied unchanged but for the name.  On a graph with at most m edges per
# point the package's message must match this one byte for byte.


def ref_orientation_witness(g) -> OrientationWitness:
    """An explicit orientation with outdegree <= m, or an error naming a
    violating subgraph."""
    ix = _Index(g)
    out, violating = _orient(ix, *_rooted(ix, ()))
    if out is None:
        raise OutsideK0(
            f"no orientation with outdegree <= {g.m}; violating set {sorted(violating)}")
    return OrientationWitness(
        tuple((ix.names[x], ix.names[y]) for x, ys in enumerate(out) for y in ys),
        max(map(len, out), default=0))


# -- reference copies of the closure and the set answers by closure rounds ----
# closure, dimension and geometric_closure_bounded as they were before the
# set answers read one orientation and before closure stopped at the closure
# set: the closure by rounds of the name-ordered search on a fresh index, run
# until an orientation succeeds, and one such closure per point for gcl.
# Copied unchanged but for the names and for gcl's membership check, which
# ran on the index before.  They read no stored orientation.


def ref_closure(g, a) -> ClosureResult:
    ix = _Index(g)
    if not _feasible(g, frozenset(), ix):
        raise OutsideK0("closure requires a hereditarily nonnegative ambient")
    return _ref_closure_rounds(ix, g.check_subset(a))


def _ref_closure_rounds(ix, current) -> ClosureResult:
    g = ix.g
    inside, load = _rooted(ix, current)
    chain = [current]
    while True:
        out, violating = _orient(ix, inside, load)
        if out is not None:
            return ClosureResult(current, tuple(chain))
        step, rel = _minimize_violator(g, current, violating)
        if rel >= 0:
            raise ConstructionFailed(
                f"closure round {len(chain)}: absorbing {sorted(step)} changes the count "
                f"by {rel}, not below 0", stage_log=[sorted(s) for s in chain])
        _absorb(ix, inside, load, step)
        current = current | step
        chain.append(current)


def ref_dimension(g, a) -> int:
    return delta(g, ref_closure(g, a).closure)


def ref_geometric_closure_bounded(g, a) -> frozenset:
    aa = g.check_subset(a)
    if not is_in_k0(g):
        raise OutsideK0("geometric closure requires a hereditarily nonnegative ambient")
    ix = _Index(g)
    base = delta(g, _ref_closure_rounds(ix, aa).closure)
    return frozenset(
        v for v in ix.names if delta(g, _ref_closure_rounds(ix, aa | {v}).closure) == base)


# -- reference copies of the subset scans of zero_decomposition ---------------
# is_zero_algebraic, connected_subsets, is_zero_minimally_algebraic,
# _tight_sets_over, base_attachment_pairs and hull's _absorbable_over as they
# were before the sink-component rule, the closed forms and the pruned
# expansion: tightness tested on every proper part, a recursive expansion,
# minimality tested over every proper subset of the generator, every
# connected candidate tested up to the ceiling, every contact subset tried as
# a generator.  Copied unchanged but for the names; the package's fast paths
# must give exactly their results, exceptions included.  ref_level_chain is
# level_chain as it was before one rooted search gave every step: one scan
# per step, on ref_tight_sets_over, after a self-sufficiency check of the
# layer, which the replaced search made.


def ref_is_zero_algebraic(g, b, a) -> bool:
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


def ref_connected_subsets(g, pool, max_size):
    """All subsets of pool that induce a connected subgraph, up to max_size.

    Connectivity is within the subset itself.  Classic expansion with an
    exclusion frontier, so each subset is produced exactly once.
    """
    pool = g.check_subset(pool)
    order = {v: i for i, v in enumerate(sorted(pool))}

    def grow(current: set, frontier: list, banned: set):
        yield frozenset(current)
        if len(current) >= max_size:
            return
        local_banned = set(banned)
        for i, v in enumerate(frontier):
            new_frontier = [w for w in frontier[i + 1:]]
            extra = sorted(
                (g.neighbors(v) & pool) - current - local_banned - set(new_frontier),
                key=order.get,
            )
            current.add(v)
            yield from grow(current, new_frontier + extra, local_banned)
            current.discard(v)
            local_banned.add(v)

    for root in sorted(pool, key=order.get):
        banned = {v for v in pool if order[v] < order[root]}
        seeds = sorted((g.neighbors(root) & pool) - banned - {root}, key=order.get)
        yield from grow({root}, seeds, banned)


def ref_is_zero_minimally_algebraic(g, b, a) -> bool:
    """Tight over a but over no proper subset of a."""
    bb = g.check_subset(b)
    aa = g.check_subset(a)
    if not ref_is_zero_algebraic(g, bb, aa):
        return False
    for size in range(len(aa)):
        for part in itertools.combinations(sorted(aa), size):
            if delta_rel(g, bb, frozenset(part)) == 0 and \
                    ref_is_zero_algebraic(g, bb, frozenset(part)):
                return False
    return True


def ref_tight_sets_over(g, pool, base, cap):
    """Connected candidates inside pool that are relatively tight over base,
    plus a flag telling whether the size ceiling was reached while scanning."""
    hit = False
    found = []
    for cand in ref_connected_subsets(g, pool, cap):
        if len(cand) == cap:
            hit = True
        if delta_rel(g, cand, base) == 0 and ref_is_zero_algebraic(g, cand, base):
            found.append(cand)
    return found, hit


def ref_level_chain(g, carrier, blocks=None, carriers=None, max_set=None) -> ComponentLevels:
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
    inner = g.induced(car)
    while current != car:
        if not is_self_sufficient(inner, current):
            raise InvalidMap(f"layer {sorted(current)} is not self-sufficient")
        found, hit = ref_tight_sets_over(inner, car - current, current, cap)
        ceiling_hit = ceiling_hit or hit
        if not found:
            raise ConstructionFailed(
                f"carrier not reachable with attachment size ceiling {cap}")
        current = current | frozenset().union(*found)
        layers.append(current)
    return ComponentLevels(car, len(layers) - 1, tuple(layers), ceiling_hit)


def ref_absorbable_over(g, d, anchor_pool) -> bool:
    """Whether d is tight over some subset of anchor_pool."""
    need = g.m * len(d) - g.edges_within(d)
    contacts = sorted(frozenset().union(*(g.neighbors(v) for v in d)) & anchor_pool)
    if need == 0:
        return ref_is_zero_algebraic(g, d, frozenset())
    for size in range(1, min(need, len(contacts)) + 1):
        for xs in itertools.combinations(contacts, size):
            if ref_is_zero_algebraic(g, d, frozenset(xs)):
                return True
    return False


def ref_base_attachment_pairs(g, carrier, base_layer, level_index, max_set=None) -> list:
    """All (witness) triples for one carrier: a generator inside the given
    layer, its ambient closure as base, and a set minimally tight over the
    generator, disjoint from the base and living above the layer."""
    cap = limits.max_set_size(max_set)
    out = []
    for d in ref_connected_subsets(g, carrier - base_layer, cap):
        # a generator vertex can carry several cross edges, so its size
        # ranges anywhere up to the cross-edge deficit
        need = g.m * len(d) - g.edges_within(d)
        contacts = sorted(
            (frozenset().union(*(g.neighbors(v) for v in d)) & base_layer) - d)
        for size in range(min(need, len(contacts)) + 1):
            for xs in itertools.combinations(contacts, size):
                gen = frozenset(xs)
                if not ref_is_zero_minimally_algebraic(g, d, gen):
                    continue
                base = ref_closure(g, gen).closure
                if not base <= base_layer:
                    continue
                if d & base:
                    continue
                out.append(BaseWitness(base, gen, d, level_index))
    return sorted(
        out, key=lambda w: (sorted(w.base), sorted(w.zero_minimal_set), sorted(w.generator)))


# -- reference copies of the per-embedding counts ------------------------------
# EmbeddingPlan.count and the per-placement counts of the level stage as they
# were before counting by image set: every embedding visited and tallied per
# image set, and one pinned count per (image set, contact images) key.  Copied
# unchanged but for the names and for reading the plan's own enumeration of
# every embedding through pairs().


def ref_count(plan, c, fixed=None, is_strong=None) -> int:
    """The number of pairs(), tallied per image set; strength is tested
    once per image set."""
    _check_coefficient(plan.pattern, c)
    per_image: dict = {}
    for pairs in plan.pairs(c, fixed):
        key = frozenset(t for _, t in pairs)
        per_image[key] = per_image.get(key, 0) + 1
    if is_strong is None:
        return sum(per_image.values())
    return sum(k for image, k in per_image.items() if is_strong(c, image))


def ref_placement_counts(c, base, att, placements, plan) -> list:
    """The strong extension count of each placement f (a dict on base), once per
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
            memo[key] = ref_count(plan, c, f, is_strong=is_self_sufficient)
        counts.append(memo[key])
    return counts


def ref_is_induced(emb) -> bool:
    """Embedding.is_induced as it was: every pair of source vertices, edge
    against edge."""
    f = emb.as_dict()
    vs = sorted(f)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if emb.source.has_edge(a, b) != emb.target.has_edge(f[a], f[b]):
                return False
    return True


# -- reference copy of the per-call approximation loop ------------------------
# approximation._base_choices and build_approximation as they were before the
# task plans were compiled once per catalog: every call recomputes the base
# choices, compiles a pinned plan per task, and lists each round's placements
# as Embeddings.  Copied unchanged but for the names, and for the listings,
# which call EmbeddingPlan.pairs and strong_embeddings in place of a removed
# wrapper that returned the same lists.  Each task is realized by
# realize_extension, the checked front over free_amalgam that the package
# exported until nothing in it called the front any more; copied unchanged
# but for its imports.


def realize_extension(
    current: Graph, pattern_base: Graph, pattern_ext: Graph, at: Embedding
) -> Graph:
    """Free amalgam of the current stage with the extension pattern over the
    placed base.  The current stage keeps its names and stays self-sufficient
    in the result.  Every argument is checked, as for outside input."""
    if pattern_base.m != pattern_ext.m:
        raise InvalidMap("base and extension pattern coefficients differ")
    if not pattern_base.vertices <= pattern_ext.vertices:
        raise InvalidMap("the base pattern must be a subgraph of the extension pattern")
    base_adj, ext_adj, base = pattern_base._adj, pattern_ext._adj, pattern_base.vertices
    if any(ext_adj[v] & base != base_adj[v] for v in base):
        raise InvalidMap("the base pattern must be induced in the extension pattern")
    base_in_ext = Embedding.build(pattern_base, pattern_ext, {v: v for v in base})
    return free_amalgam(AmalgamSpec(current, pattern_ext, at, base_in_ext)).graph


def ref_base_choices(ext) -> list:
    autos = [dict(p) for p in EmbeddingPlan(ext).pairs(ext)]
    chosen = []
    emitted = set()
    for size in range(len(ext.vertices) + 1):
        for combo in itertools.combinations(ext.sorted_vertices(), size):
            s = frozenset(combo)
            if s in emitted:
                continue
            if not is_self_sufficient(ext, s):
                continue
            for a in autos:
                emitted.add(frozenset(a[v] for v in s))
            chosen.append(s)
    return chosen


def ref_build_approximation(seed, rounds, size_budget, max_ambient=limits.DEFAULT_MAX_AMBIENT):
    if not is_in_k0(seed):
        raise OutsideK0("seed is not hereditarily nonnegative")
    pairs = []
    for ext in pattern_catalog(seed.m, size_budget):
        for base_set in ref_base_choices(ext):
            pairs.append((ext, ext.induced(base_set), EmbeddingPlan(ext, pinned=base_set)))

    stages = [seed]
    task_log = []
    current = seed
    truncated = False
    for rnd in range(rounds):
        snapshot = current
        queue = []
        for ext, base_pattern, plan in pairs:
            placements = strong_embeddings(base_pattern, snapshot)
            for at in placements:
                queue.append((ext, base_pattern, plan, at.as_dict()))
        for ext, base_pattern, plan, at_map in queue:
            # an empty map counts as no placement, so the empty pattern is
            # realized (as a no-op) every round
            if plan.first(current, at_map, is_self_sufficient):
                continue
            if len(current.vertices) + len(ext.vertices) - len(at_map) > max_ambient:
                truncated = True
                break
            at = Embedding.build(base_pattern, current, at_map)
            current = realize_extension(current, base_pattern, ext, at)
            task_log.append({
                "round": rnd,
                "extension": ext.to_json_dict(),
                "base": sorted(base_pattern.vertices),
                "at": sorted(at_map.items()),
            })
        stages.append(current)
        if truncated:
            break
    return ApproximationChain(tuple(stages), tuple(task_log), truncated)


# -- reference copy of the recursive matcher -----------------------------------
# graph._run as it was before it ran on an explicit stack: one recursive call
# per search position, so it overflows the interpreter's stack on patterns of
# about 1,000 vertices.  Copied unchanged but for the name, the parameters'
# annotations and the sentinel, which graph._run no longer reads: it takes a
# list pin of the sorted target vertices instead.

# sorts a position's candidates
_IN_NAME_ORDER = object()


def ref_run(c, layout, pins, emit) -> None:
    """The backtracking search of EmbeddingPlan: emit gets each induced
    embedding of layout's positions into c as the list of images.  pins[i]
    narrows position i's candidates: a target vertex pins it, _IN_NAME_ORDER
    sorts them, a tuple of earlier positions keeps those above all their
    images, a frozenset keeps those inside it."""
    order, adjacent, apart, degrees = layout
    cadj = c._adj
    everything = c.vertices
    n = len(order)
    img: list = [None] * n
    used: set = set()

    def extend(i: int) -> None:
        if i == n:
            emit(img)
            return
        near = adjacent[i]
        if near:
            cands = cadj[img[near[0]]]
            for j in near[1:]:
                cands = cands & cadj[img[j]]
        else:
            cands = everything
        pin = pins[i]
        if pin is not None:
            if pin is _IN_NAME_ORDER:
                cands = sorted(cands)
            elif type(pin) is tuple:
                least = max([img[j] for j in pin])
                cands = [t for t in cands if t > least]
            elif type(pin) is frozenset:
                cands = cands & pin
            elif pin in cands:
                cands = (pin,)
            else:
                return
        d, far = degrees[i], apart[i]
        for t in cands:
            if t in used:
                continue
            nt = cadj[t]
            if len(nt) < d:
                continue
            for j in far:
                if img[j] in nt:
                    break
            else:
                img[i] = t
                used.add(t)
                extend(i + 1)
                used.discard(t)

    try:
        extend(0)
    finally:
        del extend  # extend refers to itself: free the search now, not at the next collection


# -- reference copy of the level stage's row counts ----------------------------
# zero_decomposition._report_rows as it was before rows of one type shared
# their tables: every row counted on its own.  Copied unchanged but for the
# name, the parameters' annotations and the strength test of each image set,
# made here: representatives() takes none; the plan's _classes and tally,
# which are one EmbeddingPlan.count_keyed call now; and the pins' images
# under the base's automorphisms, from ref_pin_images below, so that no
# stabilizer chain is shared with the package.


def ref_report_rows(g, i, max_set, memo) -> list:
    """uniform_algebraicity_report's rows by class, without listing the
    placements: per row the witness and its tables, {image set: {tuple:
    count}} as EmbeddingPlan.tally fills them, holding the class of every
    strong placement of the base.

    Each base's strong image sets are enumerated once, one placement each.
    The placements onto an image set are that one composed with the base
    pattern's automorphisms, so the classes come from that placement and the
    automorphisms' restrictions to the pins touching the attachment.  memo
    keeps each base's plan and those restrictions; callers may share it
    between graphs inducing the same pattern on every base, as the passes of
    a level stage do, whose copies add no edge between existing points."""
    rows = []
    found: dict = {}  # base -> (image set, placement onto it), one per strong image set
    for w in _report_witnesses(g, i, max_set):
        if w.base not in memo:
            memo[w.base] = EmbeddingPlan(g.induced(w.base))
        if w.base not in found:
            found[w.base] = [(frozenset(f.values()), f) for f in memo[w.base].representatives(g)
                             if is_self_sufficient(g, frozenset(f.values()))]
        plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
        key = (w.base, plan.touched)
        if key not in memo:
            memo[key] = ref_pin_images(EmbeddingPlan(memo[w.base].pattern, pinned=key[1]))
        tables: dict = {}
        plan.count_keyed(g, [(image, tuple([f[y] for y in ys]))
                             for image, f in found[w.base] for ys in memo[key]],
                         tables, is_self_sufficient)
        rows.append((w, tables))
    return rows


# -- reference copy of the uniformity report by listed maps -------------------
# zero_decomposition.uniform_algebraicity_report as it was before it listed
# placements as image tuples: every placement a dict built from pairs(),
# counted by EmbeddingPlan.count_each.  Copied unchanged but for the name and
# the signature on one line.


def ref_uniform_algebraicity_report(g, i, max_set=None) -> list:
    rows = []
    placements: dict = {}
    for w in _report_witnesses(g, i, max_set):
        if w.base not in placements:
            placements[w.base] = [dict(p) for p in EmbeddingPlan(g.induced(w.base)).pairs(g)]
        plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
        counts = plan.count_each(g, placements[w.base])
        rows.append((w, counts, len(set(counts)) <= 1))
    return rows


# -- reference copy of the count plan's free layout ----------------------------
# EmbeddingPlan's connectivity-first order as __getattr__ built it over both
# pools with one rank map, and _free_positions as the slice of that full
# layout after the pins, before a count plan compiled its free layout alone.


def ref_free_positions(plan) -> tuple:
    """The full search order, and the free layout, contacts and touched pins
    read off it."""
    a, pins = plan.pattern, plan.pinned
    adj = a._adj
    order: list = []
    rank = {u: (0, -len(adj[u]), u) for u in a.vertices}
    for pool in (set(pins), set(a.vertices - pins)):
        while pool:
            v = min(pool, key=rank.__getitem__)
            pool.discard(v)
            order.append(v)
            for u in adj[v]:
                k = rank[u]
                rank[u] = (k[0] - 1, k[1], u)
    k = len(pins)
    contacts = tuple(tuple([order[j] for j in near if j < k])
                     for near in _positions(adj, order)[1][k:])
    return order, (_positions(adj, order[k:]), contacts,
                   tuple(sorted(frozenset().union(*contacts))))


# -- reference copy of the level stage's evening-out by listing ----------------
# extension._uniformize_row as it was before it counted by class: every strong
# placement listed and counted in every pass, one graph built per copy.
# Copied unchanged but for the name, the self-matching count t, taken here as
# the pinned self-count that extension._pattern_multiplicity replaced, and
# adjoin_copy's call, which now takes a list of glues.


def ref_uniformize_row(b, witness, added_log: list) -> tuple:
    """Add copies until every strong placement of the base sees the same
    count.  A copy's cross edges land exactly on one generator image, so
    placements with distinct generator image sets never share supply and can
    be topped up in one batch between recounts."""
    base, gen, att = witness.base, witness.generator, witness.zero_minimal_set
    row = f"row with base {sorted(base)} and attachment {sorted(att)}"
    t = EmbeddingPlan(b.induced(gen | att), pinned=gen).count_each(
        b.induced(gen | att), [{x: x for x in gen}])[0]
    if t < 1:
        raise ConstructionFailed(f"{row}: no self-matching over the generator", stage_log=added_log)
    added = 0
    # copies only add edges at fresh vertices, so both patterns stay induced
    # subgraphs of every later b and are built and compiled once per row
    base_plan = EmbeddingPlan(b.induced(base))
    plan = EmbeddingPlan(b.induced(base | att), pinned=base)
    for _ in range(extension._MAX_SWEEP_PASSES):
        alphas = [dict(p) for p in base_plan.pairs(b, is_strong=is_self_sufficient)]
        counts = plan.count_each(b, alphas, is_self_sufficient)
        nu = max(counts)
        if min(counts) == nu:
            return b, nu
        by_image = {}
        for al, cnt in zip(alphas, counts):
            key = frozenset(al[x] for x in gen)
            by_image.setdefault(key, []).append((al, cnt))
        for key in sorted(by_image, key=sorted):
            members = by_image[key]
            seen = {cnt for _, cnt in members}
            if seen == {nu}:
                continue
            al, cnt = min(members, key=lambda mc: mc[1])
            if (nu - cnt) % t:
                raise ConstructionFailed(
                    f"{row}: deficit {nu - cnt} not a multiple of {t}", stage_log=added_log)
            # twisted placements over the same image set can disagree; then
            # only one copy goes in before the next recount
            copies = (nu - cnt) // t if len(seen) == 1 else 1
            glue = {x: al[x] for x in gen}
            for _ in range(copies):
                if added >= extension._MAX_COPIES_PER_ROW:
                    raise ConstructionFailed(
                        "copy budget exhausted while evening out counts",
                        stage_log=added_log)
                # a fresh copy of the attachment, wired to the alpha-image of
                # the generator with the original cross pattern
                b, (fresh,) = adjoin_copy(b, b, att, [glue])
                added += 1
                added_log.append({
                    "base": sorted(base),
                    "generator": sorted(gen),
                    "attachment": sorted(att),
                    "alpha": [[v, al[v]] for v in sorted(base)],
                    "fresh": sorted(fresh.values()),
                })
    raise ConstructionFailed("pass budget exhausted while evening out counts",
                             stage_log=added_log)


# -- reference copy of the level stage's sweep, recomputing every pass -------
# extension._even_out as it was before its passes carried their witnesses,
# row types and counts to the next.  Copied unchanged but for the name, the
# cache, which it has none of, and its two calls: each pass lists its
# witnesses and counts every row afresh (ref_report_rows), and each row is
# evened out on a memo of its own.


def ref_even_out(b, level, max_set) -> tuple:
    """The sweep of a level stage from b: pass over the rows, evening out
    those that are not uniform, until a pass finds every row uniform.
    Returns the grown graph, per row its witness and nu, and the copies
    added, each frozen.  A failure carries the sweep's log, with the copies
    added before it."""
    log = extension._SweepLog(stage=level, added=[])
    for _ in range(extension._MAX_SWEEP_PASSES):
        rows = [(w, {n for table in tables.values() for n in table.values()})
                for w, tables in ref_report_rows(b, level, max_set, {})]
        bad = [w for w, seen in rows if len(seen) > 1]
        if not bad:
            return (b, tuple((w, min(seen, default=0)) for w, seen in rows),
                    tuple(map(extension._frozen, log["added"])))
        for w in bad:
            b, _ = extension._uniformize_row(b, w, log, {})
    raise ConstructionFailed(
        f"stage {level}: uniformity not reached within the pass budget of "
        f"{extension._MAX_SWEEP_PASSES} passes; the last pass found {len(bad)} uneven rows, "
        f"first the {extension._row_name(bad[0])}", stage_log=[log])


# -- reference copies of the matcher the extension stages ran before -----------
# zero_decomposition.find_pattern_iso, the direct recursive search
# _dedupe_witnesses and _extend_map_over_satellites ran before they ran on
# EmbeddingPlan, and those two functions as they were then.  Copied unchanged
# but for the names, the parameters' annotations and the last paragraph of
# find_pattern_iso's docstring, which compared its cost with a plan's, and
# for the component cycle log, whose loop is ref_map_cycles below.


def ref_find_pattern_iso(g_src, d_src, anchor_pairs, g_dst, d_dst, forced=None):
    """A bijection d_src -> d_dst matching internal edges and, through the
    given anchor correspondence, all cross edges.  Pairs in forced are fixed
    in advance.  None when no such bijection exists."""
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


def ref_dedupe_witnesses(g, witnesses) -> list:
    """One witness per (base, attachment type over the base)."""
    kept: list = []
    for w in witnesses:
        anchor_pairs = [(v, v) for v in sorted(w.base)]
        if not any(k.base == w.base and ref_find_pattern_iso(
                g, w.zero_minimal_set, anchor_pairs, g, k.zero_minimal_set) for k in kept):
            kept.append(w)
    return kept


def ref_extend_map_over_satellites(b, prev_verts, e, fq, log_cycles, map_index, stage_log):
    """Extend one total map of the previous stage across the attachment
    components of the new one.  Components meeting the input map's domain are
    forced; the rest pair up greedily with unused isomorphic components."""
    sats = components(b, b.vertices - prev_verts)
    anchors = {
        s: frozenset().union(*(b.neighbors(v) for v in s)) & prev_verts
        for s in sats
    }

    def anchor_pairs(s):
        return [(x, fq[x]) for x in sorted(anchors[s])]

    fnew = dict(fq)
    arcs = {}
    used = set()
    for s in sats:
        touched = s & set(e)
        if not touched:
            continue
        image = {e[v] for v in touched}
        targets = [t for t in sats if image & t]
        if len(targets) != 1 or not image <= targets[0]:
            raise ConstructionFailed(
                f"map {map_index}: forced image straddles attachment components",
                stage_log=stage_log)
        t = targets[0]
        tau = ref_find_pattern_iso(b, s, anchor_pairs(s), b, t,
                                   forced={v: e[v] for v in touched})
        if tau is None or t in used:
            raise ConstructionFailed(
                f"map {map_index}: no compatible completion over a forced component",
                stage_log=stage_log)
        arcs[s] = tau
        used.add(t)
    for s in sats:
        if s in arcs:
            continue
        for t in sats:
            if t in used:
                continue
            tau = ref_find_pattern_iso(b, s, anchor_pairs(s), b, t)
            if tau is not None:
                arcs[s] = tau
                used.add(t)
                break
        else:
            raise ConstructionFailed(
                f"map {map_index}: ran out of compatible components",
                stage_log=stage_log)
    for tau in arcs.values():
        fnew.update(tau)

    # component-level cycle bookkeeping: the map permutes the components
    comp_image = {s: frozenset(arcs[s][v] for v in s) for s in sats}
    log_cycles += ref_map_cycles(sats, comp_image, map_index)
    return fnew


# -- reference copies of the walks along a one-to-one map ----------------------
# extension.orbit_orders, extension._partial_permutation_parts and the
# component cycle log of extension._extend_map_over_satellites as they were
# before all three read one chain-and-cycle walk: each followed its map with
# a loop of its own.  Copied unchanged but for the names, _require's module,
# and the cycle log, lifted out of its function (ref_extend_map_over_satellites
# above calls it) with the component permutation as a parameter and its
# entries returned, not appended.


def ref_orbit_orders(p) -> extension.OrbitOrder:
    per_point = []
    per_map = []
    for pi in p.maps:
        e = pi.as_dict()
        orders = {}
        for d in sorted(pi.domain):
            x = e[d]
            steps = 1
            while x in e and x != d and steps <= len(e):
                x = e[x]
                steps += 1
            orders[d] = steps if x == d else 1
        per_point.append(orders)
        per_map.append(max(orders.values(), default=1))
    return extension.OrbitOrder(tuple(per_point), tuple(per_map), math.prod(per_map))


def ref_partial_permutation_parts(blocks: list, e: dict) -> tuple:
    log = {"stage": 0, "kind": "base", "blocks": [sorted(bl) for bl in blocks]}
    dom = set(e)
    image = {}
    for bl in blocks:
        inside = bl & dom
        extension._require(inside in (frozenset(), bl),
                           f"block {sorted(bl)} straddles the domain", log)
        if inside:
            image[bl] = frozenset(e[v] for v in bl)
    known = set(blocks)
    for bl, im in image.items():
        extension._require(im in known, f"block {sorted(bl)} maps onto a non-block", log)
    has_incoming = set(image.values())
    chains = []
    cycles = []
    fixed = []
    seen = set()
    for bl in blocks:
        if bl in seen:
            continue
        if bl not in image and bl not in has_incoming:
            fixed.append(bl)
            seen.add(bl)
            continue
        if bl in has_incoming:
            continue  # chain interior or end; reached from its start
        chain = [bl]
        seen.add(bl)
        cur = bl
        while cur in image:
            cur = image[cur]
            chain.append(cur)
            seen.add(cur)
        chains.append(chain)
    for bl in blocks:
        if bl in seen:
            continue
        cycle = [bl]
        seen.add(bl)
        cur = image[bl]
        while cur != bl:
            cycle.append(cur)
            seen.add(cur)
            cur = image[cur]
        cycles.append(cycle)
    return cycles, chains, fixed


def ref_map_cycles(sats, comp_image, map_index) -> list:
    log_cycles = []
    seen = set()
    for s in sats:
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        cur = comp_image[s]
        while cur != s:
            cyc.append(cur)
            seen.add(cur)
            cur = comp_image[cur]
        log_cycles.append({
            "map_index": map_index,
            "components": [sorted(c) for c in cyc],
            "length": len(cyc),
        })
    return log_cycles


# -- reference copy of the name-ordered first hit -----------------------------
# EmbeddingPlan.first as it was before it checked the pin map once and
# searched the free vertices alone: one name-ordered search over every
# position, the pins placed and checked again at each call.  Copied unchanged
# but for the name, for the plan, passed in, whose name layout it builds at
# each call instead of keeping it, and for the free positions' pin, the
# sorted target points, which the matcher's name-order sentinel stood for.


def ref_first(plan, c, fixed=None, is_strong=None, within=None):
    """The map of plan.pairs(c, fixed, is_strong)[0], or None: the
    name-ordered search stops at its first strong hit."""
    fixed = plan._pins(c, fixed)
    name_layout = _positions(plan.pattern._adj, sorted(plan.pinned)
                             + sorted(plan.pattern.vertices - plan.pinned))
    names = name_layout[0]
    free = sorted(c.vertices if within is None else within)
    hit = _first_hit(c, name_layout, [fixed.get(p, free) for p in names], is_strong)
    return None if hit is None else dict(sorted(zip(names, hit)))


# -- reference copy of the unpinned listing -----------------------------------
# EmbeddingPlan.images without pins as it was before it listed one
# representative per image set times the pattern's automorphisms: every
# embedding from one search over the connectivity layout, read in name order.
# Copied unchanged but for the name and for the plan, passed in.


def ref_unpinned_images(plan, c, is_strong=None) -> list:
    """Every embedding of plan's pattern as its images in name order, sorted;
    with is_strong, only those whose image passes it."""
    plan._pins(c, None)
    strong, by_name = _strength(c, is_strong), plan._by_name
    return sorted([by_name(img) for img in _run(
        c, (plan.order, plan.adjacent, plan.apart, plan.degrees),
        [None] * len(plan.order)) if strong(img)])


# -- reference copy of the pairwise certificate check -------------------------
# verifier.verify_certificate as it was before it compared edge sets: the
# inclusion and each automorphism tested on every pair of vertices, which is
# quadratic in the result graph.  Copied unchanged but for the name.


def ref_verify_certificate(p, c) -> VerificationReport:
    """Replay every certificate clause from scratch; diagnostics name each
    failed one."""
    diags = []
    a, b = p.a, c.b
    if a.m != b.m:
        diags.append(f"coefficient mismatch: problem {a.m}, result {b.m}")

    incl = dict(c.inclusion.pairs)
    if c.inclusion.source != a:
        diags.append("inclusion source is not the problem graph")
    if c.inclusion.target != b:
        diags.append("inclusion target is not the result graph")
    if set(incl) != set(a.vertices):
        diags.append("inclusion is not total on the problem graph")
    else:
        for u, v in itertools.combinations(sorted(a.vertices), 2):
            if a.has_edge(u, v) != b.has_edge(incl[u], incl[v]):
                diags.append(f"inclusion is not induced at ({u}, {v})")
                break

    count = b.m * len(b.vertices) - len(b.edges)
    if count != 0:
        diags.append(f"result count is {count}, expected 0")
    if not _admits_bounded_orientation(b):
        diags.append("result admits no bounded orientation: outside the class")

    if len(c.automorphisms) != len(p.maps):
        diags.append(
            f"{len(p.maps)} maps but {len(c.automorphisms)} automorphisms")
    for i, emb in enumerate(c.automorphisms):
        f = dict(emb.pairs)
        if emb.source != b or emb.target != b:
            diags.append(f"automorphism {i} is not a self-map of the result")
            continue
        if set(f) != set(b.vertices) or set(f.values()) != set(b.vertices):
            diags.append(f"automorphism {i} is not a vertex bijection")
            continue
        bad_pair = None
        for u, v in itertools.combinations(sorted(b.vertices), 2):
            if b.has_edge(u, v) != b.has_edge(f[u], f[v]):
                bad_pair = (u, v)
                break
        if bad_pair:
            diags.append(
                f"automorphism {i} is not an automorphism: edge status flips "
                f"at {bad_pair}")
        if i < len(p.maps) and set(incl) == set(a.vertices):
            for d, r in sorted(p.maps[i].as_dict().items()):
                if f.get(incl[d]) != incl[r]:
                    diags.append(f"automorphism {i} does not extend its map at {d}")
                    break
    return VerificationReport(not diags, tuple(diags))


# -- reference copies of the stabilizer-chain walks by name -------------------
# EmbeddingPlan.pin_images, extension._pattern_multiplicity and graph._chain
# as they were before both read the one chain that graph._shape keeps per
# layout shape: a chain along the pins in name order for the pins' images,
# one along the generator, then the attachment, for each row's multiplicity,
# each walked over names with its transversals as name-keyed maps.  Copied
# unchanged but for the names, and for the plan, passed in to
# ref_pin_images.


def ref_pin_images(plan) -> list:
    """The images of the pins, in name order, under the pattern's
    automorphisms, one tuple per restriction: the j-th pin's image under
    an automorphism t0 t1 ... of the stabilizer chain along the pins
    (ref_chain) is t0 ... tj's, so only the pins' levels are multiplied."""
    pins = sorted(plan.pinned)
    # (images of the pins so far, the product of the levels so far)
    partial = [((), {u: u for u in plan.pattern.vertices})]
    for level in ref_chain(plan.pattern, pins, range(len(pins))):
        partial = [(images + (prefix[u],), {x: prefix[y] for x, y in move.items()})
                   for images, prefix in partial for u, move in level.items()]
    return [images for images, _ in partial]


def ref_pattern_multiplicity(b, gen, attachment) -> int:
    """Self-matchings of the attachment fixing the generator pointwise, which
    one fresh copy adds to a placement's count: a stabilizer chain's orbits."""
    order = sorted(gen) + sorted(attachment)
    return prod(map(len, ref_chain(b.induced(gen | attachment), order,
                                   range(len(gen), len(order)))))


def ref_chain(a, order, positions) -> list:
    """For each position i of order in positions, a map from each u in the
    orbit of order[i] under the automorphisms of a fixing order[:i]
    pointwise to one such automorphism taking order[i] to u: a stabilizer
    chain with its transversals (McKay and Piperno, J. Symb. Comput. 2014),
    each member found by a search of a into itself with order[:i + 1]
    pinned, stopped at its first hit.  The group itself is never listed."""
    adj = a._adj
    layout = _positions(adj, list(order) + sorted(a.vertices - set(order)))
    n = len(layout[0])
    levels = []
    for i in positions:
        v = order[i]
        held = frozenset(order[:i])
        level = {v: {u: u for u in a.vertices}}
        for u in sorted(a.vertices - held - {v}):
            if len(adj[u]) != len(adj[v]) or adj[u] & held != adj[v] & held:
                continue
            hit = _first_hit(a, layout, list(order[:i]) + [u] + [None] * (n - i - 1))
            if hit is not None:
                level[u] = dict(zip(layout[0], hit))
        levels.append(level)
    return levels


# -- reference copy of the class tally's search -------------------------------
# graph._tally as it was before its domains and first()'s came from one
# builder, graph._outside: the whole neighbourhood of the image set gathered
# first, each position's domain read off it.  Copied unchanged but for the
# name.


def ref_tally(c: Graph, layout: tuple, image: frozenset, table: dict,
              is_strong: Callable | None) -> None:
    """tally()'s search over one image set: add to table[w] each
    embedding of the free positions into c - image whose images' neighbour
    sets in image form the tuple w and whose image with image passes
    is_strong."""
    cadj = c._adj
    touching = {}  # point outside image -> its neighbours in image, when any
    for s in image:
        for t in cadj[s]:
            if t not in image and t not in touching:
                touching[t] = cadj[t] & image
    domains, remote = [], None
    for i in range(len(layout[0])):
        wanted = {w[i] for w in table}
        inside = [t for t, near in touching.items() if near in wanted]
        if frozenset() in wanted:
            if remote is None:
                remote = c.vertices - image - frozenset(touching)
            domains.append(remote.union(inside))
        else:
            domains.append(frozenset(inside))
    strong = _strength(c, is_strong, image)
    none = frozenset()
    for img in _run(c, layout, domains):
        w = tuple([touching.get(t, none) for t in img])
        if w in table and strong(img):
            table[w] += 1
