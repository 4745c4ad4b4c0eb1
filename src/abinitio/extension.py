"""Extending partial isomorphisms of a zero-count ambient to automorphisms.

Given a hereditarily nonnegative ambient with total count zero and a family
of isomorphisms between self-sufficient subsets, grow the ambient in stages:
a base stage closes each map into a permutation of the minimally closed
blocks (adjoining relabeled block copies to complete open chains into
cycles), then one stage per accretion level adjoins fresh attachment copies
until every strong placement of every base sees the same number of
extensions, after which each map extends along matching attachment
components.  The output is a certificate that an independent checker can
replay.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import takewhile
from math import prod

from .errors import ConstructionFailed, InvalidMap, OutsideK0
from .graph import (
    Embedding, EmbeddingPlan, Graph, PartialIso, _Record, _shape, adjoin_copy, components)
from .predimension import delta, delta_rel, is_in_k0
from .zero_decomposition import (
    ZeroDecomposition,
    _placement_classes,
    _report_rows,
    decompose,
)

_MAX_SWEEP_PASSES = 32
_MAX_COPIES_PER_ROW = 4096


class EPProblem(_Record):
    a: Graph
    maps: tuple

    def __post_init__(self):
        for pi in self.maps:
            if not isinstance(pi, PartialIso) or pi.ambient != self.a:
                raise InvalidMap("every map must be a partial isomorphism of the ambient")

    def to_json_dict(self) -> dict:
        return {
            "graph": self.a.to_json_dict(),
            "maps": [
                {"map": [[d, r] for d, r in pi.pairs]}
                for pi in self.maps
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, m_override: int | None = None) -> "EPProblem":
        if not isinstance(data, dict) or "graph" not in data or "maps" not in data:
            raise ValueError("problem JSON must have 'graph' and 'maps' keys")
        if not isinstance(data["maps"], list):
            raise ValueError(f"problem 'maps' must be a JSON array, got {data['maps']!r}")
        g = Graph.from_json_dict(data["graph"], m_override=m_override)
        maps = []
        for entry in data["maps"]:
            if not isinstance(entry, dict) or "map" not in entry:
                raise ValueError("each map entry must be an object with a 'map' key")
            maps.append(PartialIso.build(g, _map_from_pairs(entry["map"])))
        return cls(g, tuple(maps))


def _map_from_pairs(pairs) -> dict:
    """A map read from a list of [source, image] pairs of names, each source
    given once."""
    if not isinstance(pairs, list):
        raise ValueError(f"a map must be a list of pairs, got {pairs!r}")
    out: dict = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is str for x in pair)):
            raise ValueError(f"map pairs must be 2-element lists of names, got {pair!r}")
        d, r = pair
        if d in out:
            raise ValueError(f"duplicate map source {d!r}")
        out[d] = r
    return out


def _of_kind(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)  # JSON true is no integer


def _optional(data: dict, key: str, default, what: str, kind: type, item: type | None = None,
              where: str = ""):
    """data[key], or default when it is absent.  A ValueError says it must
    be what, unless it is of kind and, item given, its entries of item."""
    value = data.get(key, default)
    if not _of_kind(value, kind) or item and not all(_of_kind(x, item) for x in value):
        raise ValueError(f"certificate '{where}{key}' must be {what}, got {value!r}")
    return value


class OrbitOrder(_Record):
    per_point: tuple  # one {vertex: order} dict per map
    per_map: tuple
    global_order: int

    def to_json_dict(self) -> dict:
        return {
            "per_point": [dict(sorted(d.items())) for d in self.per_point],
            "per_map": list(self.per_map),
            "global": self.global_order,
        }


def validate_problem(p: EPProblem):
    """Premise checked first: the ambient counts 0 and is in K0, where a set is
    strong exactly when it counts 0.  A range counts what its domain does."""
    if not is_in_k0(p.a):
        raise OutsideK0("problem ambient is not hereditarily nonnegative")
    if delta(p.a, p.a.vertices) != 0:
        raise OutsideK0(f"problem ambient has count {delta(p.a, p.a.vertices)}, expected 0")
    for k, pi in enumerate(p.maps):
        if delta(p.a, pi.domain) != 0:
            raise InvalidMap(f"map {k}: domain is not self-sufficient")


def _chains_and_cycles(items, f: dict) -> tuple:
    """The one-to-one map f among items split into walks: (chains, cycles),
    each walk a list of items that f takes each to the next.  A chain starts
    at an item no item goes to and stops at the first item that f leaves
    undefined or sends off the items; a cycle starts at its first item and
    closes.  Both lists keep item order.  f must be one-to-one on items, or
    a chain can walk forever: a PartialIso rejects a map that is not, a
    block map is a one-to-one map read on disjoint blocks, and the
    components' arcs use each target once."""
    step = {x: f.get(x) for x in items}
    reached = set(step.values())
    chains, cycles, seen = [], [], set()
    # the chains' starts come first, so an item no chain took lies on a cycle
    for x in [x for x in items if x not in reached] + list(items):
        if x not in seen:
            walk = [x]
            y = step[x]
            while y in step and y != x:
                walk.append(y)
                y = step[y]
            seen.update(walk)
            (cycles if y == x else chains).append(walk)
    return chains, cycles


def orbit_orders(p: EPProblem) -> OrbitOrder:
    """Per vertex: the least iterate of its map returning it to itself, or 1
    when the trajectory leaves the domain first.  Per map the maximum, and
    globally the product."""
    per_point = []
    for pi in p.maps:
        domain = sorted(pi.domain)
        orders = dict.fromkeys(domain, 1)
        orders.update((x, len(c)) for c in _chains_and_cycles(domain, pi.as_dict())[1] for x in c)
        per_point.append(orders)
    per_map = [max(orders.values(), default=1) for orders in per_point]
    return OrbitOrder(tuple(per_point), tuple(per_map), prod(per_map))


def _validate_levels(p: EPProblem, decomp: ZeroDecomposition):
    idx = {v: min(i for i, layer in enumerate(comp.layers) if v in layer)
           for comp in decomp.components for v in comp.carrier}
    for k, pi in enumerate(p.maps):
        for d, r in pi.as_dict().items():
            if idx[d] != idx[r]:
                raise InvalidMap(
                    f"map {k}: {d} sits at accretion level {idx[d]} but its image "
                    f"{r} at level {idx[r]}; stagewise extension needs equal levels")


def _check_automorphism(g: Graph, f: dict) -> bool:
    if set(f) != set(g.vertices) or set(f.values()) != set(g.vertices):
        return False
    # a bijection taking every edge to an edge permutes the finitely many
    # edges, so it takes non-edges to non-edges too
    return all(g.has_edge(f[u], f[v]) for u, v in g.edges)


# -- base stage --------------------------------------------------------------


def _partial_permutation_parts(blocks: list, e: dict) -> tuple:
    """Split the block-level action of e into pure cycles, open chains, and
    untouched blocks, the chains of one block.  Blocks must be inside or
    disjoint from the domain, and map onto blocks."""
    log = {"stage": 0, "kind": "base", "blocks": [sorted(bl) for bl in blocks]}
    dom = set(e)
    image = {}
    for bl in blocks:
        inside = bl & dom
        _require(inside in (frozenset(), bl), f"block {sorted(bl)} straddles the domain", log)
        if inside:
            image[bl] = frozenset(e[v] for v in bl)
    known = set(blocks)
    for bl, im in image.items():
        _require(im in known, f"block {sorted(bl)} maps onto a non-block", log)
    chains, cycles = _chains_and_cycles(blocks, image)
    return (cycles, [ch for ch in chains if len(ch) > 1],
            [ch[0] for ch in chains if len(ch) == 1])


def build_base_stage(
    p: EPProblem, orders: OrbitOrder, decomp: ZeroDecomposition | None = None
) -> tuple:
    """Stage zero: the union of the ambient's blocks plus, per map and per
    open block chain of length s, (order-1)*s relabeled block copies closing
    the chain into a cycle of length order*s on which the full lap is the
    pointwise identity.  Returns (graph, one total vertex map per input map,
    log entry).  The block counts mu read no map, so they are shared by value
    across calls on one ambient (_block_counts); the log is built afresh."""
    a = p.a
    if decomp is None:
        decomp = decompose(a)
    elif decomp.ambient != a:
        raise InvalidMap("the decomposition is of another graph")
    blocks = list(decomp.minimally_closed)
    core = frozenset().union(*blocks) if blocks else frozenset()
    b0 = a.induced(core)

    mu = [{"block": sorted(bl), "count": n}
          for bl, n in zip(blocks, _block_counts(a, tuple(blocks)))]

    plans = []  # (map_index, kind, original blocks)
    for k, pi in enumerate(p.maps):
        cycles, chains, fixed = _partial_permutation_parts(blocks, pi.as_dict())
        plans += ([(k, "cycle", cyc) for cyc in cycles] + [(k, "chain", ch) for ch in chains]
                  + [(k, "fixed", [bl]) for bl in fixed])

    fmaps = [dict() for _ in p.maps]
    log_closures = []
    for k, kind, chain in sorted(
            plans, key=lambda t: (t[0], sorted(map(sorted, t[2])))):
        e = p.maps[k].as_dict()
        order = orders.per_map[k]
        entry = {"map_index": k, "kind": kind, "blocks": [sorted(bl) for bl in chain],
                 "copies": [], "order": order,
                 "cycle_length": len(chain) * (order if kind == "chain" else 1)}
        # the input map holds on a cycle's blocks and on a chain's all but last
        fmaps[k].update((v, e[v]) for bl in (chain if kind == "cycle" else chain[:-1])
                        for v in bl)
        if kind == "chain":
            start = chain[0]
            # named away from the ambient's points, which later layers bring in
            b0, betas = adjoin_copy(b0, a, start, [{}] * ((order - 1) * len(chain)), a.vertices)
            entry["copies"] = [sorted(beta.values()) for beta in betas]
            # the end block goes to the first copy: each start point's walk
            # along the chain ends at the point sent to its copy; each copy
            # goes to the next and the last back onto the start
            ring = betas + [{u: u for u in start}]
            walks = _chains_and_cycles([v for bl in chain for v in bl], e)[0]
            fmaps[k].update((w[-1], ring[0][w[0]]) for w in walks)
            for here, there in zip(ring, ring[1:]):
                fmaps[k].update((here[u], there[u]) for u in start)
        log_closures.append(entry)

    log = {"stage": 0, "kind": "base", "blocks": [sorted(bl) for bl in blocks],
           "mu": mu, "closures": log_closures, "graph": b0.to_json_dict()}
    # every point no plan moved is fixed: an untouched block, or another map's copy
    for k in range(len(p.maps)):
        for v in sorted(b0.vertices):
            fmaps[k].setdefault(v, v)
        _require(_check_automorphism(b0, fmaps[k]), f"map {k} is not an automorphism", log)
        e = p.maps[k].as_dict()
        _require(all(fmaps[k][v] == e[v] for v in p.maps[k].domain & core),
                 f"map {k} does not extend its input on the blocks", log)
    # the copies are glued to nothing: core, a union of components, is strong once b0 is in K0
    _require_zero_member(b0, log)
    return b0, fmaps, log


@lru_cache(maxsize=16)  # the criterion-7 corpus has 14 ambients: a repeat pass misses none
def _block_counts(a: Graph, blocks: tuple) -> tuple:
    """Per block, the strong placements of its pattern in a, searching
    nothing in a.  Premise: a counts 0 and is in K0, so an induced copy of a
    block counts 0 and is strong, and it is minimal, as a count-0 proper part
    would pull back to one of the block: it is a block of that type.  So the
    count is the pattern's automorphisms times the blocks of its type; a
    block of the same size as a typed one has its type when that type's plan
    embeds into it.  Shared by value: the maps never enter, and problems
    come in runs over a few ambients."""
    types: list = []  # (plan, automorphisms), one per block type
    of = []  # per block, the index of its type
    for bl in blocks:
        k = next((k for k, (plan, _) in enumerate(types) if len(plan.order) == len(bl)
                  and plan.embeds_within(a, frozenset(), bl)), None)
        if k is None:
            k = len(types)
            types.append((plan := EmbeddingPlan(a.induced(bl)), _shape(plan.adjacent)[1]))
        of.append(k)
    return tuple(types[k][1] * of.count(k) for k in of)


def _require(holds: bool, what: str, log: dict) -> None:
    """An invariant of a stage, checked under python -O too."""
    if not holds:
        raise ConstructionFailed(f"stage {log['stage']}: {what}", stage_log=[log])


def _require_zero_member(b: Graph, log: dict) -> None:
    _require(delta(b, b.vertices) == 0, "the stage graph does not count 0", log)
    _require(is_in_k0(b), "the stage graph is not hereditarily nonnegative", log)


# -- level stages -------------------------------------------------------------


def _pattern_multiplicity(b: Graph, gen: frozenset, attachment: frozenset) -> int:
    """Self-matchings of the attachment fixing the generator pointwise, which
    one fresh copy adds to a placement's count: its shape's chain past the pins."""
    plan = EmbeddingPlan(b.induced(gen | attachment), pinned=gen)
    return prod(map(len, _shape(plan.adjacent)[2][len(gen):]))


def _row_name(w) -> str:
    return f"row with base {sorted(w.base)} and attachment {sorted(w.zero_minimal_set)}"


def _uniformize_row(b: Graph, witness, log: dict, memo: dict) -> tuple:
    """Add copies until every strong placement of the base sees one count,
    nu; returns the grown graph and nu.  Each pass counts by class on the
    sweep's memo (_placement_classes), so the first reads what _report_rows
    counted on b, and the copies go to memo["copies"] for the next
    report pass (_sweep_witnesses).  A copy's cross
    edges land on one generator image, so placements with distinct
    generator image sets K never share supply, and one graph build between
    recounts tops up every K.  K's copies are glued along alpha, its least
    placement of least count: the least of those classes' least placements,
    each found by a name-ordered search pinned at its class's images.  Copies
    are named away from b's names and memo["avoid"]'s, if any."""
    base, gen, att = witness.base, witness.generator, witness.zero_minimal_set
    where = f"stage {log['stage']}: {_row_name(witness)}"
    t = _pattern_multiplicity(b, gen, att)
    # copies only add edges at fresh vertices, so the patterns stay induced
    # subgraphs of every later b and are built and compiled once per row
    plan = EmbeddingPlan(b.induced(base | att), pinned=base)
    pins = tuple(sorted(gen.union(plan.touched)))
    at_gen = [j for j, x in enumerate(pins) if x in gen]
    names = sorted(base)
    lead = [pins.index(v) for v in takewhile(pins.__contains__, names)]
    added = 0
    for _ in range(_MAX_SWEEP_PASSES):
        classes = _placement_classes(b, base, plan, pins, memo)
        counts = [n for _, _, n in classes]
        nu = max(counts)
        if min(counts) == nu:
            return b, nu
        by_image: dict = {}
        for image, ims, n in classes:
            by_image.setdefault(frozenset([ims[j] for j in at_gen]), []).append((image, ims, n))
        alphas = []  # one per copy
        for key in sorted(by_image, key=sorted):
            members = by_image[key]
            seen = {n for _, _, n in members}
            if seen == {nu}:
                continue
            cnt = min(seen)
            if (nu - cnt) % t:
                raise ConstructionFailed(
                    f"{where}: deficit {nu - cnt} not a multiple of {t}", stage_log=[log])
            # a least placement begins with its class's images of the leading pins
            head = min([ims[j] for j in lead] for _, ims, n in members if n == cnt)
            al = min((memo[base, pins][0].first(b, dict(zip(pins, ims)), within=image - set(ims))
                      for image, ims, n in members if n == cnt and [ims[j] for j in lead] == head),
                     key=lambda f: [f[v] for v in names])
            # twisted placements over the same image set can disagree; then
            # only one copy goes in before the next recount
            copies = (nu - cnt) // t if len(seen) == 1 else 1
            if added + len(alphas) + copies > _MAX_COPIES_PER_ROW:
                raise ConstructionFailed(f"{where}: copy budget of {_MAX_COPIES_PER_ROW} copies "
                                         "exhausted while evening out counts", stage_log=[log])
            alphas += [al] * copies
        added += len(alphas)
        # fresh copies of the attachment, each wired to the alpha-image of
        # the generator with the original cross pattern
        b, fresh = adjoin_copy(b, b, att, [{x: al[x] for x in gen} for al in alphas],
                               memo.get("avoid", ()))
        memo.setdefault("copies", []).extend(
            (witness, frozenset([al[x] for x in gen]), frozenset([al[x] for x in base]),
             frozenset(relabel.values())) for al, relabel in zip(alphas, fresh))
        log["added"] += [{"base": sorted(base), "generator": sorted(gen), "attachment": sorted(att),
                          "alpha": [[v, al[v]] for v in names], "fresh": sorted(relabel.values())}
                         for al, relabel in zip(alphas, fresh)]
    raise ConstructionFailed(
        f"{where}: pass budget of {_MAX_SWEEP_PASSES} passes exhausted while evening out counts",
        stage_log=[log])


def _extend_map_over_satellites(
    b: Graph, prev_verts: frozenset, e: dict, fq: dict, log_cycles: list,
    map_index: int, stage_log,
) -> dict:
    """Extend one total map of the previous stage across the attachment
    components of the new one.  Components meeting the input map's domain are
    forced; the rest pair up greedily with unused isomorphic components.

    s goes onto t by the first hit of a plan of s pinned at its forced points
    and its anchors, its contacts in the previous stage, sent by fq.  Each
    component counts 0 over the previous stage, self-sufficient in b, so a
    t matching s has its size and the images of its anchors as anchors: s
    searches only its bucket of _satellites.  A point's neighbours are all
    anchors and fq is an automorphism of the previous stage, so the hit onto
    a point of the bucket is its pins and that point, found unsearched.  The
    record keeps every answer, so the maps over one stage graph search each
    component, target and pin map once."""
    sats, anchors, buckets, memo = _satellites(b, prev_verts)

    def bucket(s):
        return len(s), frozenset([fq[x] for x in anchors[s]])

    def match(s, t, forced):
        pins = {**{x: fq[x] for x in anchors[s]}, **forced}
        key = (s, t, tuple(sorted(pins.items())))
        if key not in memo:
            if len(s) == 1:
                memo[key] = tuple(sorted({**pins, **dict(zip(s, t))}.items()))
            else:
                tau = EmbeddingPlan(b.induced(s | anchors[s]), pinned=pins).first(b, pins, within=t)
                memo[key] = None if tau is None else tuple(tau.items())
        return memo[key]

    fnew = dict(fq)
    arcs = {}  # component -> the component it goes onto
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
        tau = match(s, t, {v: e[v] for v in touched}) if bucket(s) == (len(t), anchors[t]) else None
        if tau is None or t in used:
            raise ConstructionFailed(
                f"map {map_index}: no compatible completion over a forced component",
                stage_log=stage_log)
        arcs[s] = t
        used.add(t)
        fnew.update(tau)
    for s in sats:
        if s in arcs:
            continue
        for t in buckets.get(bucket(s), ()):
            tau = None if t in used else match(s, t, {})
            if tau is not None:
                break
        else:
            raise ConstructionFailed(
                f"map {map_index}: ran out of compatible components",
                stage_log=stage_log)
        arcs[s] = t
        used.add(t)
        fnew.update(tau)

    # component-level cycle bookkeeping: the map permutes the components
    log_cycles += [{"map_index": map_index, "components": [sorted(c) for c in cyc],
                    "length": len(cyc)} for cyc in _chains_and_cycles(sats, arcs)[1]]
    return fnew


class _SweepLog(dict):
    """The log entry a sweep writes its copies into, {"stage", "added"}."""


def _frozen(entry: dict) -> tuple:
    """A log entry of lists, and of lists of lists, as tuples of tuples."""
    return tuple((key, tuple(tuple(x) if type(x) is list else x for x in value))
                 for key, value in entry.items())


def _thawed(entry: tuple) -> dict:
    """The log entry _frozen took, rebuilt from fresh lists."""
    return {key: [list(x) for x in value] if value and type(value[0]) is tuple else list(value)
            for key, value in entry}


@lru_cache(maxsize=16)  # the corpus's 30 level stages start from 8 graphs; at 4 one is evicted
def _even_out(b: Graph, level: int, max_set: int | None, avoid: frozenset = frozenset()) -> tuple:
    """The sweep of a level stage from b: pass over the rows, evening out
    those that are not uniform, until a pass finds every row uniform.  Only
    b, the level, max_set and the names its copies avoid are read, never
    the maps, so the result is shared by value across the stages that start
    from one graph.  Returns the grown graph, per row its witness and nu,
    and the copies added, each _frozen: nothing a caller can change.  A
    failure carries the sweep's _SweepLog, with the copies added before it.
    Each grown graph has the one before as a strong subset (copies add no
    edge between old points and count 0 over their generator images), so
    what a pass establishes holds in the next: the passes share one memo,
    dropped on return, of row types, witnesses (_sweep_witnesses) and
    per-graph counts (_placement_classes)."""
    log = _SweepLog(stage=level, added=[])
    memo: dict = {"avoid": avoid}
    for _ in range(_MAX_SWEEP_PASSES):
        # a row is uniform when every strong placement of its base sees one
        # count; nu is that count, 0 with no placement.  Each row is logged
        # and evened out under its own base, generator and attachment
        rows = _report_rows(b, level, max_set, memo)
        bad = [w for w, seen in rows if len(seen) > 1]
        if not bad:
            return (b, tuple((w, min(seen, default=0)) for w, seen in rows),
                    tuple(map(_frozen, log["added"])))
        for w in bad:
            b, _ = _uniformize_row(b, w, log, memo)
    raise ConstructionFailed(
        f"stage {level}: uniformity not reached within the pass budget of "
        f"{_MAX_SWEEP_PASSES} passes; the last pass found {len(bad)} uneven rows, "
        f"first the {_row_name(bad[0])}", stage_log=[log])


@lru_cache(maxsize=8)  # a corpus pass extends its maps over 8 distinct stage graphs
def _satellites(b: Graph, prev_verts: frozenset) -> tuple:
    """The attachment components of b over prev_verts in order, per component
    its anchors, the components bucketed by (size, anchors) in order, and a
    memo of match answers keyed by (s, t, sorted pins), each frozen or None.
    No map enters but through the pins, so the record is shared by value
    across the maps and calls extending over one stage graph."""
    sats = components(b, b.vertices - prev_verts)
    anchors = {s: frozenset().union(*(b.neighbors(v) for v in s)) & prev_verts for s in sats}
    buckets: dict = {}
    for t in sats:
        buckets.setdefault((len(t), anchors[t]), []).append(t)
    return sats, anchors, buckets, {}


def build_level_stage(
    prev: Graph,
    p: EPProblem,
    q: int,
    maps: list,
    decomp: ZeroDecomposition | None = None,
    max_set: int | None = None,
) -> tuple:
    """Stage q+1: bring in the ambient's own layer-(q+1) vertices, then add
    attachment copies until counts are level-(q+1) uniform, then extend every
    map across the new components.  Rows are counted and evened out by
    class, listing no placement; a budget running out raises naming the
    stage, the row and the budget.  The sweep reads no map, so its result
    is shared by value across calls from one stage graph (_even_out); the
    log is built afresh and every invariant is checked on every call."""
    a = p.a
    if decomp is None:
        decomp = decompose(a, max_set=max_set)
    elif decomp.ambient != a:
        raise InvalidMap("the decomposition is of another graph")
    new = frozenset().union(*(c.layers[min(q + 1, c.level)] - c.layers[min(q, c.level)]
                              for c in decomp.components))
    # no copy took an ambient point's name, so the layer keeps its names
    b, _ = adjoin_copy(prev, a, new, [{v: v for v in prev.vertices & a.vertices}])
    log = {"stage": q + 1, "kind": "level", "layer_added": sorted(new),
           "rows": [], "added": [], "map_cycles": []}
    _require(not new or delta_rel(b, new, prev.vertices) == 0,
             "the added layer does not count 0 over the previous stage", log)
    # a copy of a stage point v is named v~k: only such ambient names can be taken
    later = frozenset(v for v in a.vertices - b.vertices if "~" in v)
    try:
        b, rows, added = _even_out(b, q + 1, max_set, later)
    except ConstructionFailed as exc:
        # the sweep logs its copies into an entry of its own: report them in
        # this stage's log
        if exc.stage_log and isinstance(exc.stage_log[0], _SweepLog):
            log["added"] = exc.stage_log[0]["added"]
            exc.stage_log = [log]
        raise
    log["rows"] = [{
        "base": sorted(w.base),
        "generator": sorted(w.generator),
        "attachment": sorted(w.zero_minimal_set),
        "nu": nu,
    } for w, nu in rows]
    log["added"] = list(map(_thawed, added))

    log["graph"] = b.to_json_dict()
    # in b, which counts 0 and is in K0, a set is strong exactly when it counts 0
    _require_zero_member(b, log)
    _require(delta(b, prev.vertices) == 0,
             "the previous stage is not self-sufficient in this one", log)
    new_maps = []
    for k, pi in enumerate(p.maps):
        fnew = _extend_map_over_satellites(
            b, prev.vertices, pi.as_dict(), maps[k], log["map_cycles"], k, [log])
        _require(_check_automorphism(b, fnew), f"map {k} is not an automorphism", log)
        new_maps.append(fnew)
    return b, new_maps, log


# -- certificates -------------------------------------------------------------


class EPCertificate(_Record):
    problem: EPProblem
    b: Graph
    inclusion: Embedding
    automorphisms: tuple
    orbit: OrbitOrder
    counts: dict
    stage_log: tuple

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem.to_json_dict(),
            "b": self.b.to_json_dict(),
            "inclusion": [[d, r] for (d, r) in self.inclusion.pairs],
            "automorphisms": [[[d, r] for (d, r) in f.pairs] for f in self.automorphisms],
            "orbit": self.orbit.to_json_dict(),
            "counts": self.counts,
            "stage_log": list(self.stage_log),
        }

    @classmethod
    def from_json_dict(cls, data: dict, m_override: int | None = None) -> "EPCertificate":
        if not isinstance(data, dict):
            raise ValueError(f"certificate JSON must be an object, got {data!r}")
        for key in ("problem", "b", "inclusion", "automorphisms"):
            if key not in data:
                raise ValueError(f"certificate JSON lacks {key!r}")
        problem = EPProblem.from_json_dict(data["problem"], m_override=m_override)
        b = Graph.from_json_dict(data["b"], m_override=m_override)
        inclusion = Embedding.build(problem.a, b, _map_from_pairs(data["inclusion"]))
        autos = tuple(Embedding.build(b, b, _map_from_pairs(pairs))
                      for pairs in _optional(data, "automorphisms", [], "an array", list))
        orbit_raw = _optional(data, "orbit", {}, "an object", dict)
        orbit = OrbitOrder(
            tuple(dict(d) for d in _optional(
                orbit_raw, "per_point", [], "an array of objects", list, dict, "orbit.")),
            tuple(_optional(orbit_raw, "per_map", [], "an array of integers", list, int, "orbit.")),
            _optional(orbit_raw, "global", 1, "an integer", int, where="orbit."),
        )
        counts = _optional(data, "counts", {}, "an object", dict)
        stage_log = _optional(data, "stage_log", [], "an array of objects", list, dict)
        return cls(problem, b, inclusion, autos, orbit, dict(counts), tuple(stage_log))


def ep_extend(p: EPProblem, max_set: int | None = None) -> EPCertificate:
    """Run every stage and package the result.  Stage work that reads no
    map (block counts, level sweeps) is shared by value across calls, so
    many maps over one ambient pay for it once; each certificate owns its
    logs."""
    validate_problem(p)
    decomp = decompose(p.a, max_set=max_set)
    _validate_levels(p, decomp)
    orders = orbit_orders(p)
    b, fmaps, log0 = build_base_stage(p, orders, decomp)
    logs = [log0]
    level = max((c.level for c in decomp.components), default=0)
    for q in range(level):
        b, fmaps, lg = build_level_stage(
            b, p, q, fmaps, decomp=decomp, max_set=max_set)
        logs.append(lg)

    # the inclusion is the identity on the ambient's points, so it is induced
    # exactly when the stage graph induces the ambient on them
    last = logs[-1]
    _require(p.a.vertices <= b.vertices and b.induced(p.a.vertices) == p.a,
             "the stage graph does not induce the ambient on its points", last)
    inclusion = Embedding.build(p.a, b, {v: v for v in p.a.vertices})
    for k, pi in enumerate(p.maps):
        _require(all(fmaps[k].get(d) == r for d, r in pi.as_dict().items()),
                 f"map {k} is not extended", last)
    # the stage that returned the maps has checked each an automorphism of b
    autos = tuple(Embedding.build(b, b, f) for f in fmaps)
    counts = {
        "mu": logs[0]["mu"],
        "nu": [row for lg in logs[1:] for row in lg["rows"]],
    }
    return EPCertificate(p, b, inclusion, autos, orders, counts, tuple(logs))
