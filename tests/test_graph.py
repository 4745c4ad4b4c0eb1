import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
import types

import pytest

import abinitio as ab
from abinitio import (
    CoefficientMismatch,
    Embedding,
    EmbeddingPlan,
    Graph,
    InvalidMap,
    PartialIso,
    UnknownVertex,
    components,
    connected_subsets,
    count_cross_edges,
    export_dot,
    fresh_name,
    is_in_k0,
    is_self_sufficient,
    limits,
)
from abinitio.graph import _first_hit, _positions, _Record, _run, _shape, _tally, adjoin_copy
from oracles import (
    _IN_NAME_ORDER, adjacent, brute_automorphisms, brute_closed, ref_connected_subsets, ref_count,
    ref_find_pattern_iso, ref_first, ref_free_positions, ref_is_induced, ref_pattern_multiplicity,
    ref_pin_images, ref_run, ref_tally, ref_unpinned_images)


def k_complete(n, prefix="v", m=2):
    names = [f"{prefix}{i}" for i in range(n)]
    return Graph(m, names, itertools.combinations(names, 2))


def test_constructor_rejects_bad_input():
    with pytest.raises(InvalidMap):
        Graph(1, ["a"], [])
    with pytest.raises(InvalidMap):
        Graph(2, ["a", ""], [])
    with pytest.raises(UnknownVertex):
        Graph(2, ["a"], [("a", "b")])
    with pytest.raises(InvalidMap):
        Graph(2, ["a"], [("a", "a")])


def test_graph_is_immutable_and_hashable():
    g = Graph(2, ["a", "b"], [("a", "b")])
    with pytest.raises(AttributeError):
        g.m = 3
    h = Graph(2, ["b", "a"], [("b", "a")])
    assert g == h and hash(g) == hash(h)
    assert g != Graph(3, ["a", "b"], [("a", "b")])
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin._adj == g._adj


def test_queries():
    g = Graph(2, ["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.neighbors("b") == frozenset({"a", "c"})
    assert g.degree("a") == 1
    assert g.has_edge("c", "b") and not g.has_edge("a", "c")
    assert g.sorted_vertices() == ["a", "b", "c"]
    assert g.edges_within(frozenset({"a", "b"})) == 1
    with pytest.raises(UnknownVertex):
        g.check_subset(["a", "x"])


def test_induced_subgraph_keeps_coefficient():
    g = k_complete(4, m=3)
    sub = g.induced(["v0", "v1"])
    assert sub.m == 3
    assert sub.edges == frozenset({("v0", "v1")})


def test_json_round_trip_is_byte_identical():
    g = Graph(2, ["b", "a", "c"], [("c", "a"), ("a", "b")])
    text = g.to_json()
    again = Graph.from_json(text)
    assert again == g
    assert again.to_json() == text
    assert text.endswith("\n")


def test_from_json_m_override():
    g = Graph(2, ["a"], [])
    h = Graph.from_json(g.to_json(), m_override=4)
    assert h.m == 4


def test_cross_edges():
    g = Graph(2, ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("c", "d")])
    assert count_cross_edges(g, frozenset(["a"]), frozenset(["b", "c"])) == 2
    assert count_cross_edges(g, frozenset(["a", "d"]), frozenset(["c"])) == 2
    assert count_cross_edges(g, frozenset(["b", "d"]), frozenset(["a"])) == 1


def test_embedding_validation():
    a = Graph(2, ["x", "y"], [("x", "y")])
    c = k_complete(3)
    emb = Embedding.build(a, c, {"x": "v0", "y": "v1"})
    assert emb.is_induced()
    assert emb("x") == "v0"
    assert emb.image == frozenset({"v0", "v1"})
    with pytest.raises(InvalidMap):
        Embedding.build(a, c, {"x": "v0"})  # not total
    with pytest.raises(InvalidMap):
        Embedding.build(a, c, {"x": "v0", "y": "v0"})  # not injective
    with pytest.raises(InvalidMap, match="not injective"):  # checked when built by name too
        Embedding(source=a, target=c, pairs=(("x", "v0"), ("y", "v0")))
    with pytest.raises(UnknownVertex):
        Embedding.build(a, c, {"x": "v0", "y": "zz"})


RECORDS = sorted(name for name in ab.__all__
                 if isinstance(getattr(ab, name), type) and issubclass(getattr(ab, name), _Record))


@functools.lru_cache(maxsize=None)
def _record_samples() -> dict:
    """One record of each exported type, by type name: built by the package
    where __post_init__ checks, on two 5-cliques and the map between them."""
    a, b = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
    g = Graph(2, a + b, [*itertools.combinations(a, 2), *itertools.combinations(b, 2)])
    p = ab.EPProblem(g, (PartialIso.build(g, dict(zip(a, b))),))
    cert = ab.ep_extend(p)
    decomposition = ab.decompose(g)
    empty = Embedding.build(g.induced(()), g, {})
    spec = ab.AmalgamSpec(g, g, empty, empty)
    samples = [p, cert, cert.orbit, cert.inclusion, p.maps[0], ab.verify_certificate(p, cert),
               decomposition, decomposition.components[0], ab.closure(g, {"a0"}),
               ab.orientation_witness(g), ab.build_approximation(g, 0, 1), spec,
               ab.free_amalgam(spec), ab.BaseWitness(frozenset(a), frozenset(b), frozenset(b), 1)]
    return {type(r).__name__: r for r in samples}


def test_every_exported_record_type_has_a_sample():
    # a new record type joins the contract test below through __all__
    assert len(RECORDS) == 14 and sorted(_record_samples()) == RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_records_behave_as_frozen_dataclasses_of_their_fields(name):
    cls, sample = getattr(ab, name), _record_samples()[name]
    fields = tuple(cls.__annotations__)
    twin_cls = dataclasses.make_dataclass(name, fields, frozen=True)
    values = [getattr(sample, f) for f in fields]
    named = dict(zip(fields, values))
    twin = twin_cls(*values)
    assert cls.__match_args__ == fields and vars(sample) == named
    assert cls(*values) == cls(**named) == sample
    for make in (twin_cls, cls):
        for args, kwargs in ((values[:-1], {}), ((*values, None), {}), (values, {"extra": None}),
                             (values[:1], named)):
            with pytest.raises(TypeError):
                make(*args, **kwargs)
    assert repr(sample) == repr(twin)
    if name in ("EPCertificate", "OrbitOrder"):  # they hold dicts
        for record in (twin, sample):
            with pytest.raises(TypeError):
                hash(record)
    else:
        assert hash(sample) == hash(twin)
    assert sample != twin and twin != sample
    with pytest.raises(AttributeError):
        setattr(sample, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(sample, fields[0])
    assert vars(sample) == named
    for again in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(again) is cls and again == sample


def test_embedding_is_induced_detects_missing_edge():
    a = Graph(2, ["x", "y"], [("x", "y")])
    c = Graph(2, ["p", "q"], [])
    assert not Embedding.build(a, c, {"x": "p", "y": "q"}).is_induced()


def test_is_induced_matches_pairwise_definition():
    rng = random.Random(13)
    seen = {"induced": 0, "lost": 0, "gained": 0}
    for _ in range(300):
        n, k = rng.randint(4, 8), rng.randint(0, 4)
        c = Graph(2, [f"c{i}" for i in range(n)],
                  [e for e in itertools.combinations([f"c{i}" for i in range(n)], 2)
                   if rng.random() < 0.4])
        image = rng.sample(sorted(c.vertices), k)
        f = {f"a{i}": t for i, t in enumerate(image)}
        # the source is the induced copy, then a random pair toggled
        edges = {(f"a{i}", f"a{j}") for i, j in itertools.combinations(range(k), 2)
                 if c.has_edge(image[i], image[j])}
        toggled = None
        if k >= 2 and rng.random() < 0.6:
            toggled = tuple(f"a{i}" for i in sorted(rng.sample(range(k), 2)))
            edges ^= {toggled}
        emb = Embedding.build(Graph(2, f, edges), c, f)
        assert emb.is_induced() == ref_is_induced(emb) == (toggled is None)
        if toggled is not None:
            seen["gained" if toggled in edges else "lost"] += 1
        else:
            seen["induced"] += 1
    assert min(seen.values()) >= 30, seen


def test_partial_iso_rejects_non_isomorphism():
    g = Graph(2, ["a", "b", "c", "d"], [("a", "b")])
    PartialIso.build(g, {"a": "b", "b": "a"})
    with pytest.raises(InvalidMap):
        PartialIso.build(g, {"a": "c", "b": "d"})  # edge a-b, no edge c-d


def test_pairs_against_permutation_scan():
    rng = random.Random(401)
    for _ in range(40):
        na, nc = rng.randint(1, 3), rng.randint(1, 5)
        a = Graph(2, [f"p{i}" for i in range(na)],
                  [e for e in itertools.combinations([f"p{i}" for i in range(na)], 2)
                   if rng.random() < 0.5])
        c = Graph(2, [f"t{i}" for i in range(nc)],
                  [e for e in itertools.combinations([f"t{i}" for i in range(nc)], 2)
                   if rng.random() < 0.5])
        got = set(EmbeddingPlan(a).pairs(c))
        expect = set()
        for images in itertools.permutations(c.sorted_vertices(), na):
            f = dict(zip(a.sorted_vertices(), images))
            if all(a.has_edge(p, q) == adjacent(c.edges, f[p], f[q])
                   for p, q in itertools.combinations(f, 2)):
                expect.add(tuple(sorted(f.items())))
        assert got == expect


def test_pairs_fixed_and_coefficient():
    a = k_complete(2, prefix="p")
    c = k_complete(4)
    pinned = EmbeddingPlan(a, pinned=["p0"]).pairs(c, {"p0": "v2"})
    assert all(dict(p)["p0"] == "v2" for p in pinned)
    assert len(pinned) == 3
    with pytest.raises(CoefficientMismatch):
        EmbeddingPlan(k_complete(2, m=3)).pairs(c)


def test_size_ceiling_ignores_the_environment(monkeypatch):
    # the default is the package's own; only the max_set keyword moves it
    for raw in ("junk", "3", "-1"):
        monkeypatch.setenv("ABINITIO_MAX_SET_SIZE", raw)
        assert limits.max_set_size() == limits.DEFAULT_MAX_SET_SIZE == 8
    assert limits.max_set_size(5) == 5
    with pytest.raises(ValueError, match="max_set .* got -3"):
        limits.max_set_size(-3)


def _random_graph(rng, prefix, n, m, p=None):
    names = [f"{prefix}{i}" for i in range(n)]
    if p is None:
        p = rng.choice([0.2, 0.5, 0.8])
    return Graph(m, names, [e for e in itertools.combinations(names, 2) if rng.random() < p])


def _connected_pattern(rng, c, k):
    """A connected induced subgraph of c on at most k vertices, renamed
    p0, p1, ... in a random order."""
    picked = [rng.choice(c.sorted_vertices())]
    while len(picked) < k:
        frontier = sorted(frozenset().union(*(c.neighbors(v) for v in picked)) - set(picked))
        if not frontier:
            break
        picked.append(rng.choice(frontier))
    rng.shuffle(picked)
    name = {v: f"p{i}" for i, v in enumerate(picked)}
    return Graph(c.m, name.values(), [(name[u], name[v]) for u, v in c.induced(picked).edges])


def _vf2_embeddings(a, c):
    """Every induced embedding of a into c as a sorted pairs tuple, from
    networkx's VF2 matcher (Cordella et al., TPAMI 2004)."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        return h

    matcher = GraphMatcher(to_nx(c), to_nx(a))
    return {tuple(sorted((p, t) for t, p in f.items()))
            for f in matcher.subgraph_isomorphisms_iter()}


def test_matcher_against_vf2():
    rng = random.Random(1510)
    closed = functools.cache(brute_closed)
    for trial in range(80):
        m = rng.choice([2, 3])
        a = _random_graph(rng, "p", rng.randint(1, 5), m)
        c = _random_graph(rng, "t", rng.randint(1, 9), m)
        _check_matcher_against_vf2(rng, trial, a, c, closed)
    # sparse targets of 25-32 vertices with no size limit set, and connected
    # patterns so the embeddings stay a few thousand; brute_closed is
    # exponential at this size, so strength is checked with the package's
    # own test and only the matcher is under comparison
    rng = random.Random(2532)
    for trial in range(10):
        c = _random_graph(rng, "t", rng.randint(25, 32), rng.choice([2, 3]), p=0.15)
        a = _connected_pattern(rng, c, rng.randint(1, 4))
        _check_matcher_against_vf2(rng, trial, a, c, is_self_sufficient)


def _check_matcher_against_vf2(rng, trial, a, c, closed):
    """The plan's pairs, counts and first against VF2, plain and strong,
    with pins chosen by the trial number: the counts are count_each's when
    the pins embed induced, and without pins the automorphisms times the
    representatives passing the strength test."""
    reference = _vf2_embeddings(a, c)
    fixed = {}
    if trial % 3:
        pins = rng.sample(a.sorted_vertices(), rng.randint(1, min(2, len(a.vertices))))
        if reference and trial % 2:
            f = dict(rng.choice(sorted(reference)))
            fixed = {p: f[p] for p in pins}
        else:
            fixed = {p: rng.choice(c.sorted_vertices()) for p in pins}
    for strong_only in (False, True):
        expect = {pairs for pairs in reference
                  if all(dict(pairs)[p] == t for p, t in fixed.items())}
        if strong_only:
            expect = {pairs for pairs in expect
                      if closed(c, frozenset(t for _, t in pairs))}
        plan = EmbeddingPlan(a, pinned=fixed)
        is_strong = is_self_sufficient if strong_only else None
        got = plan.pairs(c, fixed, is_strong=is_strong)
        assert set(got) == expect
        assert got == sorted(got)
        assert all(Embedding(a, c, p).is_induced() for p in got)
        if not fixed:
            reps = [f for f in plan.representatives(c)
                    if not strong_only or closed(c, frozenset(f.values()))]
            assert _shape(plan.adjacent)[1] * len(reps) == len(got)
        elif _embeds_induced(a, c, fixed):
            assert plan.count_each(c, [fixed], is_strong)[0] == len(got)
        assert plan.first(c, fixed, is_strong) == (dict(got[0]) if got else None)
        assert plan.exists(c, fixed, is_strong) == bool(got)


def test_symmetry_breaking_matches_brute_force_automorphisms():
    # the stabilizer chain without listing the group: its order, the pins'
    # images, and one representative per image set
    rng = random.Random(2007)
    symmetric = 0
    for trial in range(120):
        g = _random_graph(rng, "v", rng.randint(1, 7), rng.choice([2, 3]))
        autos = brute_automorphisms(g)
        plan = EmbeddingPlan(g)
        assert _shape(plan.adjacent)[1] == len(autos)
        symmetric += len(autos) > 1
        pins = sorted(rng.sample(g.sorted_vertices(), rng.randint(0, min(3, len(g.vertices)))))
        images = EmbeddingPlan(g, pinned=pins).pin_images()
        assert len(images) == len(set(images))
        assert set(images) == {tuple(f[x] for x in pins) for f in autos}
        c = _random_graph(rng, "t", rng.randint(1, 9), g.m)
        reps = plan.representatives(c)
        sets = [frozenset(f.values()) for f in reps]
        assert len(sets) == len(set(sets))
        assert set(sets) == {frozenset(t for _, t in p) for p in plan.pairs(c)}
        assert all(Embedding.build(g, c, f).is_induced() for f in reps)
        assert len(plan.pairs(c)) == len(autos) * len(reps)
    assert symmetric >= 60


def test_pin_images_and_multiplicities_match_the_chains_by_name():
    # the pins' images and a generator's pointwise stabilizer, both read off
    # the one chain of a pinned layout's shape, against the reference walks
    # over names, on random patterns and on disjoint copies of one block,
    # whose groups are large
    rng = random.Random(2014)
    multiplicity = ab.extension._pattern_multiplicity
    moved = large = 0
    for trial in range(240):
        m = rng.choice([2, 3])
        if trial % 3:
            a = _random_graph(rng, "v", rng.randint(1, 8), m)
        else:
            block = _random_graph(rng, "q", rng.randint(1, 4), m)
            copies = rng.randint(2, 8 // len(block.vertices))
            a = Graph(m, [f"b{k}{v}" for k in range(copies) for v in block.vertices],
                      [(f"b{k}{u}", f"b{k}{v}") for k in range(copies) for u, v in block.edges])
        names = a.sorted_vertices()
        plan = EmbeddingPlan(a, pinned=rng.sample(names, rng.randint(0, len(names))))
        got, want = plan.pin_images(), ref_pin_images(plan)
        assert len(got) == len(set(got)) == len(want) and set(got) == set(want), trial
        moved += len(got) > 1
        gen = frozenset(rng.sample(names, rng.randint(0, len(names) - 1)))
        att = frozenset(rng.sample(sorted(a.vertices - gen), rng.randint(1, len(names) - len(gen))))
        assert multiplicity(a, gen, att) == ref_pattern_multiplicity(a, gen, att), trial
        large += _shape(EmbeddingPlan(a).adjacent)[1] >= 48
        # the shape's entry keeps transversals, at most n - i per level, never the group
        assert sum(map(len, _shape(plan.adjacent)[2])) <= len(names) * (len(names) + 1) // 2
    assert moved >= 120 and large >= 40


def _k5_with_spokes(rng, prefix, spokes, blocks=1):
    """Complete 5-point blocks with spokes, each a point joined to two
    earlier points: a zero-count graph at m = 2, whose blocks give it a
    group of order 120 or more."""
    names = [f"{prefix}{b}{i}" for b in range(blocks) for i in range(5)]
    edges = [(u, v) for u, v in itertools.combinations(names, 2) if u[:-1] == v[:-1]]
    for k in range(spokes):
        edges += [(f"{prefix}s{k}", t) for t in rng.sample(names, 2)]
        names.append(f"{prefix}s{k}")
    return Graph(2, names, edges)


def test_unpinned_listings_match_the_reference_listing():
    # one representative per image set read through every automorphism,
    # against the listing of every embedding, with and without a strength
    # test, on random inputs and on complete patterns into disjoint copies
    # of themselves, one image set per copy; the shape cache's conditions
    # and group order against the brute-force group
    rng = random.Random(4040)
    cases = []  # (pattern, target, representatives expected or None)
    for trial in range(180):
        kind = trial % 6
        if kind == 0:
            a = Graph(2, [f"p{i}" for i in range(rng.randint(0, 3))], [])
        elif kind == 1:
            a = _disjoint_cliques(rng.randint(2, 3), rng.randint(1, 3))
        elif kind == 2:
            a = k_complete(rng.randint(1, 6), "p")
        elif kind == 3:
            a = _k5_with_spokes(rng, "p", rng.randint(0, 3))
        else:
            a = _random_graph(rng, "p", rng.randint(1, 8), 2)
        if kind == 3:
            c = _k5_with_spokes(rng, "t", rng.randint(0, 2), 2) if trial % 4 == 3 else \
                _k5_with_spokes(rng, "t", rng.randint(0, 7))
        else:
            c = _random_graph(rng, "t", rng.randint(0, 12), 2)
        cases.append((a, c, None))
    cases += [(k_complete(7, "p"), _disjoint_cliques(2, 7), 2),
              (k_complete(6, "p"), _disjoint_cliques(6, 6), 6)]
    listed = symmetric = 0
    for trial, (a, c, copies) in enumerate(cases):
        plan = EmbeddingPlan(a)
        below, size, _ = _shape(plan.adjacent)
        for is_strong in (None, is_self_sufficient):
            got = plan.images(c, None, is_strong)
            assert got == ref_unpinned_images(plan, c, is_strong), (trial, is_strong)
            listed += len(got)
        if copies is not None:
            assert len(plan.representatives(c)) == copies
        # the conditions against the orbits of the brute-force group, and
        # the transversal products, read off the identity, against the group
        order, autos = plan.order, brute_automorphisms(a)
        assert below == [tuple([i for i in range(u) if any(
            f[order[i]] == order[u] and all(f[v] == v for v in order[:i]) for f in autos)])
            or None for u in range(len(order))]
        assert size == len(plan._turns) == len(autos)
        names = a.sorted_vertices()
        assert {get(order) for get in plan._turns} == {tuple([f[v] for v in names]) for f in autos}
        symmetric += size >= 120 and bool(got)
    assert listed >= 10000 and symmetric >= 10


def test_an_unpinned_listing_without_a_strong_representative_lists_no_group(monkeypatch):
    # 12 isolated points have 12! automorphisms; into 3 points, or with no
    # strong representative, the listing is empty at once: the shape's chain
    # stops each search into the shape at its first hit, and no picker of an
    # automorphism is compiled
    run, target = ab.graph._run, Graph(2, ["x", "y", "z"], [("x", "y")])

    def first_hits_only(c, layout, pins):
        for img in run(c, layout, pins):
            yield img
            assert c is target, "a search into the pattern's shape went past its first hit"

    monkeypatch.setattr(ab.graph, "_run", first_hits_only)
    _shape.cache_clear()
    plan = EmbeddingPlan(Graph(2, [f"p{i:02}" for i in range(12)], []))
    assert plan.images(target) == [] and _shape(plan.adjacent)[1] == math.factorial(12)
    pair = EmbeddingPlan(Graph(2, ["p", "q"], []))
    assert pair.images(target, None, lambda c, s: False) == []
    with pytest.raises(AttributeError):
        EmbeddingPlan._turns.__get__(plan)
    with pytest.raises(AttributeError):
        EmbeddingPlan._turns.__get__(pair)
    assert pair.images(target) == [("x", "z"), ("y", "z"), ("z", "x"), ("z", "y")]


def test_isomorphic_patterns_with_one_layout_share_one_shape():
    # the cache is keyed by the layout alone: a renamed pattern whose
    # search order, broken by names among the K4's points, differs but whose
    # layout is equal makes one miss; its listing is the renamed one's
    _shape.cache_clear()
    k4 = Graph(2, ["a", "b", "c", "d", "e"], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                                              ("b", "d"), ("c", "d"), ("d", "e")])
    rename = dict(zip("abcde", ["z4", "z3", "z2", "z1", "z0"]))
    twin = Graph(2, rename.values(), [(rename[u], rename[v]) for u, v in k4.edges])
    c = _k5_with_spokes(random.Random(7), "t", 3)
    plans = [EmbeddingPlan(k4), EmbeddingPlan(twin)]
    assert plans[0].adjacent == plans[1].adjacent
    listings = [plan.images(c) for plan in plans]
    assert _shape.cache_info().misses == _shape.cache_info().currsize == 1
    # the twin's names sort in the reverse order of the names they replace
    assert listings[0] == sorted(t[::-1] for t in listings[1]) == ref_unpinned_images(plans[0], c)
    assert listings[0]


def test_count_each_matches_pinned_counts():
    # count_each against the reference copy of the per-embedding pinned
    # count, one per pin map, pins drawn from the embeddings of the pinned
    # part so each embeds it induced
    rng = random.Random(2008)
    compared = 0
    for trial in range(60):
        c = _random_graph(rng, "t", rng.randint(4, 10), rng.choice([2, 3]))
        a = _connected_pattern(rng, c, rng.randint(2, 5))
        if len(a.vertices) < 2:
            continue
        pins = rng.sample(a.sorted_vertices(), rng.randint(1, len(a.vertices) - 1))
        plan = EmbeddingPlan(a, pinned=pins)
        fixeds = [dict(p) for p in EmbeddingPlan(a.induced(pins)).pairs(c)]
        for is_strong in (None, is_self_sufficient):
            assert plan.count_each(c, fixeds, is_strong) == [
                ref_count(plan, c, f, is_strong=is_strong) for f in fixeds]
        # strength is asked only of images that some pin map's count needs
        asked, needed = set(), set()
        plan.count_each(c, fixeds, lambda g, s: asked.add(s) or is_self_sufficient(g, s))
        for f in fixeds:
            ref_count(plan, c, f, lambda g, s: needed.add(s) or is_self_sufficient(g, s))
        assert asked <= needed
        compared += len(fixeds)
    assert compared >= 500


def test_pinned_count_matches_reference_on_any_pins():
    # pins drawn from the whole target, so some repeat an image and some map
    # an edge to a non-edge or back: those extend to no embedding, and
    # count_each, which takes pins that embed induced, counts the rest
    rng = random.Random(2009)
    repeated = broken = 0
    for trial in range(1000):
        c = _random_graph(rng, "t", rng.randint(1, 7), rng.choice([2, 3]))
        a = _random_graph(rng, "p", rng.randint(1, 5), c.m)
        pins = rng.sample(a.sorted_vertices(), rng.randint(1, len(a.vertices)))
        fixed = {p: rng.choice(c.sorted_vertices()) for p in pins}
        plan = EmbeddingPlan(a, pinned=pins)
        valid = _embeds_induced(a, c, fixed)
        for is_strong in (None, is_self_sufficient):
            want = ref_count(plan, c, fixed, is_strong=is_strong)
            assert (plan.count_each(c, [fixed], is_strong)[0] if valid else 0) == want
        if len(set(fixed.values())) < len(fixed):
            repeated += 1
        elif not valid:
            broken += 1
    assert repeated >= 100 and broken >= 100


def _embeds_induced(a, c, fixed) -> bool:
    """Whether the pin map fixed embeds its part of a into c induced."""
    return len(set(fixed.values())) == len(fixed) and \
        Embedding.build(a.induced(fixed), c, fixed).is_induced()


def test_first_self_map_is_lex_first_automorphism():
    rng = random.Random(2004)
    for trial in range(60):
        g = _random_graph(rng, "v", rng.randint(1, 7), rng.choice([2, 3]))
        fixed = {}
        if trial % 2:
            pins = rng.sample(g.sorted_vertices(), rng.randint(1, min(3, len(g.vertices))))
            if trial % 4 == 1:
                auto = rng.choice(brute_automorphisms(g))
                fixed = {p: auto[p] for p in pins}
            else:
                fixed = {p: rng.choice(g.sorted_vertices()) for p in pins}
        expect = brute_automorphisms(g, fixed, stop_after=1)
        got = EmbeddingPlan(g, pinned=fixed).first(g, fixed)
        assert got == (expect[0] if expect else None)


def test_first_within_is_the_least_matching_bijection():
    # a set s onto a set t over anchors sent into a clique, as the witness
    # dedupe and the satellite extension match them, against the direct
    # search they ran before: anchors fixed, rotated or swapped, some points
    # of s forced into t, and sets of unequal size, which the callers reject
    # before searching since within then holds maps that are no bijection
    rng = random.Random(2016)
    core = [f"a{i}" for i in range(5)]
    seen: dict = {}
    for trial in range(600):
        pts = [f"x{i}" for i in range(rng.randint(2, 7))]
        g = Graph(2, core + pts, list(itertools.combinations(core, 2)) + [
            (u, v) for u in pts for v in core + pts if u < v and rng.random() < 0.4])
        s = frozenset(rng.sample(pts, rng.randint(1, len(pts))))
        size = (len(s), len(s), rng.randint(1, len(pts)))[trial % 3]
        t = s if trial % 6 == 0 else frozenset(rng.sample(pts, size))
        anchors = rng.sample(core, rng.randint(0, 5))
        send = dict(zip(sorted(anchors), rng.sample(core, len(anchors)) if trial % 4
                        else sorted(anchors)))
        k = rng.randint(0, min(len(s), len(t), 2))
        forced = dict(zip(rng.sample(sorted(s), k), rng.sample(sorted(t), k)))
        want = ref_find_pattern_iso(g, s, sorted(send.items()), g, t, forced)
        if len(s) != len(t):
            assert want is None
            seen["unequal"] = seen.get("unequal", 0) + 1
            continue
        plan = EmbeddingPlan(g.induced(s | set(anchors)), pinned=set(anchors) | set(forced))
        got = plan.first(g, {**send, **forced}, within=t)
        assert (got and {v: got[v] for v in s}) == want
        key = bool(forced), want is not None
        seen[key] = seen.get(key, 0) + 1
    assert seen["unequal"] >= 100 and min(seen.values()) >= 20, seen


def _pin_faults(a, c, fixed) -> set:
    """The ways the pin map fixed fails to be an induced embedding of its
    pins into c, by the pairwise definition."""
    faults = set()
    if len(set(fixed.values())) < len(fixed):
        faults.add("non-injective")
    if any(c.degree(t) < a.degree(p) for p, t in fixed.items()):
        faults.add("degree-short")
    if any(a.has_edge(p, q) != adjacent(c.edges, fixed[p], fixed[q])
           for p, q in itertools.combinations(sorted(fixed), 2) if fixed[p] != fixed[q]):
        faults.add("non-induced")
    return faults


def test_first_matches_the_reference_search_on_any_pins():
    # first() checks the pin map once and searches the free points alone:
    # against the copy of the search over every position, on random pins
    # (restrictions of embeddings, maps bent to fail one way, and any map),
    # with and without within and the strength test, and with every
    # vertex pinned; the strength test is asked the same sets in the same order
    rng = random.Random(3601)
    seen: dict = {}
    for trial in range(600):
        m = rng.choice([2, 3])
        c = _random_graph(rng, "t", rng.randint(1, 9), m)
        a = _random_graph(rng, "p", rng.randint(0, 5), m)
        names, targets = a.sorted_vertices(), c.sorted_vertices()
        k = len(names) if trial % 5 == 0 else rng.randint(0, len(names))
        pinned = rng.sample(names, k)
        fixed = {p: rng.choice(targets) for p in pinned}
        hits = EmbeddingPlan(a).pairs(c)
        if trial % 4 == 0 and hits:
            fixed = {p: t for p, t in rng.choice(hits) if p in fixed}
        elif trial % 4 == 1 and len(fixed) > 1:
            p, q = rng.sample(pinned, 2)
            fixed[p] = fixed[q]
        elif trial % 4 == 2 and fixed:
            p = max(pinned, key=a.degree)
            fixed[p] = min(targets, key=c.degree)
        within = frozenset(rng.sample(targets, rng.randint(0, len(targets)))) \
            if trial % 3 == 1 else None
        plan = EmbeddingPlan(a, pinned=pinned)
        for strong in (None, is_self_sufficient):
            asked, asked_ref = [], []

            def recorded(log):
                return None if strong is None else (
                    lambda g, s: log.append(s) or is_self_sufficient(g, s))

            got = plan.first(c, fixed, recorded(asked), within)
            assert got == ref_first(plan, c, fixed, recorded(asked_ref), within)
            assert asked == asked_ref
            for key in _pin_faults(a, c, fixed) or {"valid, hit" if got else "valid, none"}:
                seen[key] = seen.get(key, 0) + 1
            seen["total"] = seen.get("total", 0) + (k == len(names))
            seen["within"] = seen.get("within", 0) + (within is not None)
    assert min(seen.values()) >= 100 and len(seen) == 7, seen


def test_the_class_tally_matches_the_reference_tally():
    # _tally builds its domains with _outside, per wanted contact set; the
    # reference copy reads them off the image set's whole neighbourhood.
    # Seeded tables whose keys come from pin maps onto the image set and at
    # random, so a position may want several contact sets, the empty one
    # among them; whole tables compared, keys no embedding hits included,
    # with and without the strength test, which is asked the same sets
    rng = random.Random(4711)
    seen: dict = {}
    for trial in range(400):
        m = rng.choice([2, 3])
        c = _random_graph(rng, "t", rng.randint(2, 10), m)
        a = _random_graph(rng, "p", rng.randint(2, 5), m)
        names, targets = a.sorted_vertices(), c.sorted_vertices()
        pinned = rng.sample(names, rng.randint(1, min(len(names) - 1, len(targets))))
        layout, contacts, _ = EmbeddingPlan(a, pinned=pinned)._free_positions()
        image = sorted(rng.sample(targets, len(pinned)))
        keys = set()
        for _ in range(rng.randint(1, 4)):
            send = dict(zip(pinned, rng.sample(image, len(image))))
            keys.add(tuple([frozenset([send[q] for q in near]) for near in contacts]))
        for _ in range(rng.randint(0, 3)):
            keys.add(tuple([frozenset(rng.sample(image, rng.randint(0, len(image))))
                            for _ in contacts]))
        for strong in (None, is_self_sufficient):
            tables, asked = [], []
            for tally in (_tally, ref_tally):
                table, log = dict.fromkeys(keys, 0), []
                tally(c, layout, frozenset(image), table,
                      strong and (lambda g, s: log.append(s) or strong(g, s)))
                tables.append(table)
                asked.append(set(log))
            assert tables[0] == tables[1] and asked[0] == asked[1], (trial, strong)
        wanted = [{w[i] for w in keys} for i in range(len(contacts))]
        for key, met in [("several keys", len(keys) > 1),
                         ("several contacts", any(len(w) > 1 for w in wanted)),
                         ("empty contact", any(frozenset() in w for w in wanted)),
                         ("no pinned neighbour", not all(contacts)),
                         ("hit", any(tables[0].values())),
                         ("key not hit", not all(tables[0].values())),
                         ("asked", bool(asked[0]))]:
            seen[key] = seen.get(key, 0) + met
    assert min(seen.values()) >= 100, seen


def test_exists_answers_as_first_asking_once_per_image_set():
    # seeded random K0 targets; patterns from the target or random, plans
    # unpinned or pinned, pins sent as some embedding sends them or anywhere
    # in the target; the strength test records what it is asked
    rng = random.Random(2033)
    seen: dict = {}  # (pinned, found) -> trials
    several = 0  # trials whose search asked about more than one image set
    for trial in range(500):
        m = rng.choice([2, 3])
        c = _random_graph(rng, "t", rng.randint(3, 9), m)
        if not is_in_k0(c):
            continue
        a = _connected_pattern(rng, c, rng.randint(1, 4)) if trial % 2 else \
            _random_graph(rng, "p", rng.randint(1, 4), m)
        fixed = {}
        if trial % 3:
            pins = rng.sample(a.sorted_vertices(), rng.randint(1, len(a.vertices)))
            hits = EmbeddingPlan(a).pairs(c)
            f = dict(rng.choice(hits)) if hits and trial % 4 else {}
            fixed = {p: f.get(p) or rng.choice(c.sorted_vertices()) for p in pins}
        plan = EmbeddingPlan(a, pinned=fixed)
        asked = []
        got = plan.exists(c, fixed, lambda g, s: asked.append(s) or is_self_sufficient(g, s))
        assert got == (plan.first(c, fixed, is_self_sufficient) is not None)
        assert len(asked) == len(set(asked))
        assert plan.exists(c, fixed) == (plan.first(c, fixed) is not None)
        seen[bool(fixed), got] = seen.get((bool(fixed), got), 0) + 1
        several += len(asked) > 1
    assert len(seen) == 4 and min(seen.values()) >= 20 and several >= 20, (seen, several)


def test_plan_order_and_pins():
    # path p0 - p1 - p2 plus an isolated p3: pins first, then the vertex
    # with most placed neighbours, ties to higher degree, then name
    a = Graph(2, ["p0", "p1", "p2", "p3"], [("p0", "p1"), ("p1", "p2")])
    assert EmbeddingPlan(a).order == ("p1", "p0", "p2", "p3")
    plan = EmbeddingPlan(a, pinned=["p2"])
    assert plan.order == ("p2", "p1", "p0", "p3")
    assert plan.adjacent == ((), (0,), (1,), ())
    assert plan.apart == ((), (), (0,), (0, 1, 2))
    c = k_complete(4)
    with pytest.raises(InvalidMap):
        plan.pairs(c, {"p0": "v0"})
    with pytest.raises(UnknownVertex):
        plan.pairs(c, {"p2": "nowhere"})
    with pytest.raises(UnknownVertex):
        EmbeddingPlan(a, pinned=["nowhere"])


def _visits(c, layout, pins) -> list:
    return [tuple(img) for img in _run(c, layout, pins)]


def _ref_visits(c, layout, pins) -> list:
    hits: list = []
    ref_run(c, layout, pins, lambda img: hits.append(tuple(img)))
    return hits


def test_explicit_stack_visits_in_the_recursive_order():
    # every kind of pin narrowing a position, against the recursive copy:
    # the same embeddings in the same order, which first() relies on; the
    # sorted target points stand for the copy's name-order sentinel
    rng = random.Random(2010)
    kinds, hits = set(), 0
    for trial in range(200):
        c = _random_graph(rng, "t", rng.randint(1, 9), rng.choice([2, 3]))
        a = _random_graph(rng, "p", rng.randint(0, 5), c.m)
        names = a.sorted_vertices()
        pinned = rng.sample(names, rng.randint(0, len(names)))
        plan = EmbeddingPlan(a, pinned=pinned)
        layout = (plan.order, plan.adjacent, plan.apart, plan.degrees)
        targets = c.sorted_vertices()
        fixed = {p: rng.choice(targets) for p in pinned}
        domains = [frozenset(rng.sample(targets, rng.randint(0, len(targets))))
                   for _ in plan.order]
        searches = [
            (layout, [fixed.get(p) for p in plan.order]),
            (layout, domains),
            (_positions(a._adj, sorted(pinned) + sorted(set(names) - set(pinned))),
             [fixed[p] for p in sorted(pinned)] + [targets] * (len(names) - len(pinned))),
        ]
        if not pinned:
            searches.append((layout, _shape(EmbeddingPlan(a).adjacent)[0]))
        for lay, pins in searches:
            got = _visits(c, lay, pins)
            assert got == _ref_visits(c, lay, [_IN_NAME_ORDER if p is targets else p
                                               for p in pins])
            kinds.update(type(p).__name__ for p in pins)
            hits += len(got)
    assert kinds == {"NoneType", "str", "frozenset", "tuple", "list"} and hits >= 1000


class _CountingAdjacency(dict):
    """An adjacency that counts its lookups, one per candidate tried."""

    looked = 0

    def __getitem__(self, v):
        self.looked += 1
        return dict.__getitem__(self, v)


def _counting(c):
    return types.SimpleNamespace(m=c.m, _adj=_CountingAdjacency(c._adj), vertices=c.vertices)


def test_a_first_hit_stops_the_search():
    # K3 into two disjoint K7s has 420 embeddings: every mode that wants
    # one hit stops reading the search there, so it looks up a small share
    # of the candidates that listing them all does, and finds its own first
    c, plan = _disjoint_cliques(2, 7), EmbeddingPlan(k_complete(3))
    layout = (plan.order, plan.adjacent, plan.apart, plan.degrees)
    everything = _counting(c)
    listed = [list(img) for img in _run(everything, layout, [None] * 3)]
    assert len(listed) == 420
    modes = {
        "_first_hit": lambda g: _first_hit(g, layout, [None] * 3) == listed[0],
        "first": lambda g: plan.first(g) == dict(plan.pairs(c)[0]),
        "exists": plan.exists,
        "embeds_within": lambda g: plan.embeds_within(g, frozenset(), c.vertices),
    }
    for mode, stop in modes.items():
        g = _counting(c)
        assert stop(g), mode
        assert g._adj.looked * 10 < everything._adj.looked, (mode, g._adj.looked)


def _disjoint_cliques(k, n):
    names = [f"t{j}{i}" for j in range(k) for i in range(n)]
    return Graph(2, names, [(u, v) for u, v in itertools.combinations(names, 2)
                            if u[:2] == v[:2]])


def _two_hubs():
    """Two hubs with 300 private leaves each and 3 common neighbours, and
    the path p1 - q - p2 pinned at its ends."""
    leaves = [(f"h{j}", f"h{j}x{i}") for j in range(2) for i in range(300)]
    common = [(f"h{j}", f"c{i}") for j in range(2) for i in range(3)]
    c = Graph(2, {v for e in leaves + common for v in e}, leaves + common)
    path = Graph(2, ["p1", "q", "p2"], [("p1", "q"), ("q", "p2")])
    return c, EmbeddingPlan(path, pinned=["p1", "p2"]), {"p1": "h0", "p2": "h1"}


def test_a_pinned_count_looks_up_the_common_neighbours_alone():
    # the contact {h0, h1} is met among the hubs' 3 common neighbours, not
    # over the 603 points that touch either hub
    c, plan, fixed = _two_hubs()
    g = _counting(c)
    assert plan.count_each(g, [fixed]) == [3]
    assert g._adj.looked <= 30, g._adj.looked


def test_first_looks_up_the_common_neighbours_alone():
    c, plan, fixed = _two_hubs()
    g = _counting(c)
    assert plan.first(g, fixed) == {"p1": "h0", "p2": "h1", "q": "c0"}
    assert g._adj.looked <= 30, g._adj.looked


def test_pinned_modes_past_the_recursion_limit():
    # one stack entry per search position: a path longer than the
    # interpreter's recursion limit, pinned at one end, has one embedding
    # into itself, the identity, in every mode
    names = [f"v{i:05d}" for i in range(1200)]
    path = Graph(2, names, list(zip(names, names[1:])))
    plan = EmbeddingPlan(path, pinned=[names[0]])
    pin = {names[0]: names[0]}
    identity = {v: v for v in names}
    assert plan.first(path, pin) == identity
    assert plan.pairs(path, pin) == [tuple(sorted(identity.items()))]
    ends = [pin, {names[0]: names[-1]}, {names[0]: names[1]}]
    assert plan.count_each(path, ends) == [1, 1, 0]


def test_fresh_name_and_disjoint_union():
    assert fresh_name("w", set()) == "w"
    assert fresh_name("w", {"w", "w~1"}) == "w~2"
    g = Graph(2, ["a"], [])
    h = Graph(2, ["a", "b"], [("a", "b")])
    u, (relabel,) = adjoin_copy(g, h, h.vertices, [{}])
    assert len(u.vertices) == 3
    assert relabel["a"] != "a" and u.has_edge(relabel["a"], relabel["b"])



class _CountingSet(set):
    """A set that counts its membership probes."""
    probes = 0

    def __contains__(self, item):
        self.probes += 1
        return super().__contains__(item)


def test_fresh_name_with_tried_names_as_without():
    # a caller keeping tried across calls while taken only grows gets the
    # names of calls without it, on collision-heavy names: suffixes taken
    # with gaps, bases that hold "~" already, taken growing by other names
    # too, and many copies of one base
    rng = random.Random(4802)
    bases = ["a", "a~1", "a~3", "b", "b~1~1", "~", "a~"]
    pool = ["a", "a~1", "a~3", "a~1~1", "a~1~2", "b", "b~1", "b~2", "b~4", "~~1", "a~~1"]
    for trial in range(300):
        taken = set(rng.sample(pool, rng.randint(0, len(pool))))
        with_tried, without, tried = set(taken), set(taken), {}
        for _ in range(rng.randint(0, 60)):
            base = rng.choice(bases)
            name = fresh_name(base, with_tried, tried)
            assert name == fresh_name(base, without), (trial, base)
            extra = [name] + ([f"{rng.choice(bases)}~{rng.randint(1, 12)}"]
                              if rng.random() < 0.2 else [])
            with_tried.update(extra)
            without.update(extra)
    # a, a~1 and a~3 taken: the copies of a fill the gap first
    taken, tried = {"a", "a~1", "a~3"}, {}
    for want in ["a~2", "a~4", "a~5"]:
        assert fresh_name("a", taken, tried) == want
        taken.add(want)
    # the k-th copy of one base costs three probes with tried, k + 1 without
    probes = {}
    for hint in (None, {}):
        taken = _CountingSet({"a"})
        for _ in range(200):
            taken.add(fresh_name("a", taken, hint))
        probes[hint is None] = taken.probes
    assert probes == {True: sum(k + 1 for k in range(1, 201)), False: 2 + 3 * 199}
    # many copies of one part in one adjoin_copy name as one call per copy
    source, ambient = Graph(2, ["a", "a~1"], [("a", "a~1")]), Graph(2, ["a", "a~3"], [])
    one_by_one, names = ambient, []
    for _ in range(30):
        one_by_one, (relabel,) = adjoin_copy(one_by_one, source, ["a", "a~1"], [{}])
        names.append(relabel)
    assert adjoin_copy(ambient, source, ["a", "a~1"], [{}] * 30) == (one_by_one, names)


def test_adjoin_copy_names_and_wiring():
    # source: path x - y - z with y also joined to the glue keys a and b
    source = Graph(2, ["a", "b", "x", "y", "z"],
                   [("a", "b"), ("x", "y"), ("y", "z"), ("y", "a"), ("y", "b"), ("z", "b")])
    ambient = Graph(2, ["x", "y", "y~1", "p", "q"], [("x", "y")])
    grown, (relabel,) = adjoin_copy(ambient, source, ["z", "y", "x"], [{"a": "p", "b": "q"}])
    # fresh names are taken in sorted order of the part
    assert list(relabel.items()) == [("x", "x~1"), ("y", "y~2"), ("z", "z")]
    assert grown.vertices == ambient.vertices | {"x~1", "y~2", "z"}
    new_edges = grown.edges - ambient.edges
    assert new_edges == {("x~1", "y~2"), ("y~2", "z"), ("p", "y~2"), ("q", "y~2"),
                         ("q", "z")}
    # the glue keys' own edge (a, b) is not copied onto their images
    assert not grown.has_edge("p", "q")
    # several glues in one call: the graph and names of one call per glue,
    # each copy named away from the earlier ones
    glues = [{"a": "p", "b": "q"}, {"a": "q"}, {}, {"a": "p", "b": "q"}]
    one_by_one, names = ambient, []
    for glue in glues:
        one_by_one, (relabel,) = adjoin_copy(one_by_one, source, ["x", "y", "z"], [glue])
        names.append(relabel)
    assert adjoin_copy(ambient, source, ["x", "y", "z"], glues) == (one_by_one, names)
    assert [r["y"] for r in names] == ["y~2", "y~3", "y~4", "y~5"]
    assert adjoin_copy(ambient, source, ["x"], []) == (ambient, [])
    with pytest.raises(CoefficientMismatch):
        adjoin_copy(ambient, Graph(3, ["x"], []), ["x"], [{}])


def test_adjoin_copy_matches_a_checked_build():
    # the graph grown from the ambient's adjacency by its new edges against
    # the same copies built and checked from scratch by Graph(); a glue image
    # outside the ambient and a coefficient mismatch raise by name
    rng = random.Random(3602)
    for trial in range(300):
        m = rng.choice([2, 3])
        ambient = _random_graph(rng, rng.choice(["t", "s"]), rng.randint(1, 8), m)
        source = _random_graph(rng, "s", rng.randint(1, 7), m)
        names = source.sorted_vertices()
        part = rng.sample(names, rng.randint(0, len(names)))
        keys = sorted(set(names) - set(part))
        glues = [{w: rng.choice(ambient.sorted_vertices())
                  for w in rng.sample(keys, rng.randint(0, len(keys)))}
                 for _ in range(rng.randint(0, 3))]
        avoid = rng.sample(["s0~1", "t1", "s2~2"], rng.randint(0, 3))
        grown, relabels = adjoin_copy(ambient, source, part, glues, avoid)
        edges = list(ambient.edges)
        for glue, relabel in zip(glues, relabels):
            for u, v in source.edges:
                ends = [relabel.get(x, glue.get(x)) if x in part or x in glue else None
                        for x in (u, v)]
                if None not in ends and (u in part or v in part):
                    edges.append(tuple(ends))
        built = Graph(m, ambient.vertices.union(*map(dict.values, relabels)), edges)
        assert (grown.vertices, grown.edges, grown._adj) == (built.vertices, built.edges,
                                                             built._adj)
        assert not set(avoid) & set().union(*map(dict.values, relabels))
        if glues and keys:
            bad = [*glues[:-1], {**glues[-1], keys[0]: "nowhere"}]
            with pytest.raises(UnknownVertex, match="nowhere"):
                adjoin_copy(ambient, source, part, bad)
        with pytest.raises(CoefficientMismatch):
            adjoin_copy(ambient, Graph(5 - m, names, source.edges), part, glues)


def test_connected_subsets_matches_brute_force():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        g = Graph(2, names,
                  [e for e in itertools.combinations(names, 2) if rng.random() < 0.4])
        pool = frozenset(v for v in names if rng.random() < 0.8)
        cap = rng.randint(1, n)
        got = set(connected_subsets(g, pool, cap))
        expect = set()
        for k in range(1, cap + 1):
            for combo in itertools.combinations(sorted(pool), k):
                s = frozenset(combo)
                # connectivity check by flood fill
                if not s:
                    continue
                seen = {min(s)}
                frontier = [min(s)]
                while frontier:
                    v = frontier.pop()
                    for w in g.neighbors(v) & s:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if seen == s:
                    expect.add(s)
        assert got == expect


def test_connected_subsets_keep_their_order_past_the_recursion_limit():
    # the order is observable: scans that stop early depend on it
    rng = random.Random(78)
    for _ in range(60):
        n = rng.randint(1, 10)
        names = [f"v{i}" for i in range(n)]
        g = Graph(2, names,
                  [e for e in itertools.combinations(names, 2) if rng.random() < 0.4])
        pool = frozenset(v for v in names if rng.random() < 0.8)
        for cap in range(7):
            assert list(connected_subsets(g, pool, cap)) == \
                list(ref_connected_subsets(g, pool, cap))
    # the first root grows one point at a time along a path longer than
    # the interpreter's recursion limit
    names = [f"p{i:04d}" for i in range(1500)]
    path = Graph(2, names, list(zip(names, names[1:])))
    first = list(itertools.islice(connected_subsets(path, path.vertices, 1500), 1500))
    assert first == [frozenset(names[:k]) for k in range(1, 1501)]


def test_components_ordering():
    g = Graph(2, ["a", "b", "c", "d", "e"], [("d", "e"), ("a", "b")])
    assert components(g, g.vertices) == [
        frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d", "e"})]
    assert components(g, ["e", "d"]) == [frozenset({"d", "e"})]


def test_export_dot_snapshot():
    g = Graph(2, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert export_dot(g) == (
        'graph ambient {\n'
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "a" -- "b";\n'
        '  "a" -- "c";\n'
        '  "b" -- "c";\n'
        '}\n'
    )
    clustered = export_dot(g, {"left": ["a", "b"]})
    assert 'subgraph "cluster_left"' in clustered
    assert export_dot(Graph(2, [], [])) == "graph ambient {\n}\n"


def test_a_bare_string_is_not_read_as_a_vertex_set():
    """A str is an iterable of one-letter names: every public function that
    takes a vertex set refuses one, naming it, rather than misread "ab" as
    {"a", "b"} on a graph that also has a point "ab"."""
    g = Graph(2, ["a", "b", "ab"], [("a", "b")])
    assert ab.dimension(g, ["ab"]) == 2 and ab.dimension(g, ["a", "b"]) == 3
    calls = {
        "check_subset": lambda s: g.check_subset(s),
        "induced": lambda s: g.induced(s),
        "delta": lambda s: ab.delta(g, s),
        "delta_rel (moved)": lambda s: ab.delta_rel(g, s, []),
        "delta_rel (over)": lambda s: ab.delta_rel(g, [], s),
        "dimension": lambda s: ab.dimension(g, s),
        "closure": lambda s: ab.closure(g, s),
        "is_self_sufficient": lambda s: ab.is_self_sufficient(g, s),
        "geometric_closure_bounded": lambda s: ab.geometric_closure_bounded(g, s),
        "EmbeddingPlan": lambda s: EmbeddingPlan(g, pinned=s),
        "is_zero_algebraic": lambda s: ab.is_zero_algebraic(g, s, []),
        "is_zero_minimally_algebraic": lambda s: ab.is_zero_minimally_algebraic(g, ["ab"], s),
        "level_chain": lambda s: ab.level_chain(g, s),
        "hull": lambda s: ab.hull(g, s),
        "mu_count": lambda s: ab.mu_count(g, s, ["ab"], None),
        "connected_subsets": lambda s: list(connected_subsets(g, s, 3)),
        "components": lambda s: components(g, s),
        "add_generic_point": lambda s: ab.add_generic_point(g, s, 1),
        "adjoin_copy": lambda s: adjoin_copy(g, g, s, [{}]),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match="got the string 'ab'"):
            call("ab")
            pytest.fail(f"{name} read the string 'ab'")


def test_the_free_layout_compiled_alone_is_the_slice_of_the_full_layout():
    # a count plan ranks its free vertices by their pinned neighbours and
    # never orders its pins; the layout, contacts (as sets) and touched pins
    # are those the full connectivity-first layout gives after the pins
    rng = random.Random(38)
    for trial in range(120):
        a = _random_graph(rng, "p", rng.randint(1, 9), 2)
        names = a.sorted_vertices()
        pins = ([] if trial % 5 == 0 else names if trial % 5 == 1
                else rng.sample(names, rng.randint(0, len(names))))
        order, (layout, contacts, touched) = ref_free_positions(EmbeddingPlan(a, pinned=pins))
        got = EmbeddingPlan(a, pinned=pins)._free_positions()
        assert got[0] == layout and got[2] == touched
        assert [set(near) for near in got[1]] == [set(near) for near in contacts]
        assert list(EmbeddingPlan(a, pinned=pins).order) == order

