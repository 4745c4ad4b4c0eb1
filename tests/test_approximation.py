import contextlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import abinitio.approximation
from abinitio import (
    AmalgamSpec,
    ConstructionFailed,
    Embedding,
    EmbeddingPlan,
    Graph,
    InvalidMap,
    OutsideK0,
    PartialIso,
    add_generic_point,
    build_approximation,
    closure,
    dimension,
    extend_partial_iso,
    free_amalgam,
    geometric_closure_bounded,
    is_in_k0,
    is_self_sufficient,
    pattern_catalog,
    strong_embeddings,
)
from abinitio.approximation import _base_choices, _catalog, _tasks, _total_extension
from abinitio.predimension import _closure_set
from builders import random_k0_graph
from oracles import (
    brute_automorphisms, brute_closed, brute_delta, brute_in_k0, realize_extension,
    ref_base_choices, ref_build_approximation)


def k5(prefix):
    names = [f"{prefix}{i}" for i in range(5)]
    edges = [(names[i], names[j]) for i in range(5) for j in range(i + 1, 5)]
    return names, edges


def block(prefix="a"):
    names, edges = k5(prefix)
    return Graph(2, names, edges)


def test_pattern_catalog_sizes():
    cat = pattern_catalog(2, 3)
    assert len(cat) == 8
    assert [len(g.vertices) for g in cat] == [0, 1, 2, 2, 3, 3, 3, 3]
    assert [len(g.edges) for g in cat] == [0, 0, 0, 1, 0, 1, 2, 3]
    assert cat[1].sorted_vertices() == ["p1"]
    assert len(pattern_catalog(2, 2)) == 4
    assert len(pattern_catalog(3, 2)) == 4


def test_pattern_catalog_is_built_once():
    cat = pattern_catalog(2, 3)
    assert isinstance(cat, tuple)
    assert pattern_catalog(2, 3) is cat


def test_task_plans_are_compiled_once_per_catalog(monkeypatch):
    _tasks.cache_clear()
    catalog = pattern_catalog(2, 3)
    compiled = []
    init = EmbeddingPlan.__init__

    def counting_init(self, *args, **kwargs):
        compiled.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddingPlan, "__init__", counting_init)
    patterns, tasks = layout = _tasks(2, 3)
    # one plan per catalog member to choose its bases, one per task pinned
    # at its base, one unpinned per distinct pattern
    assert len(compiled) == len(catalog) + len(tasks) + len(patterns)
    assert _tasks(2, 3) is layout
    choices = [(ext, ext.induced(s)) for ext in catalog for s in ref_base_choices(ext)]
    assert [(patterns[e][0], patterns[b][0]) for e, b, _, _ in tasks] == choices
    assert [g for g, _ in patterns] == list(dict.fromkeys(g for pair in choices for g in pair))
    for e, b, plan, restrict in tasks:
        ext, base = patterns[e][0], patterns[b][0]
        assert plan.pattern == ext and plan.pinned == base.vertices
        identity = tuple((v, v) for v in ext.sorted_vertices())
        assert restrict(identity) == tuple((v, v) for v in base.sorted_vertices())
    seed = block("a")
    first = build_approximation(seed, 1, 3)
    compiled.clear()
    assert build_approximation(seed, 1, 3) == first
    assert compiled == []


def test_each_round_lists_each_distinct_pattern_once(monkeypatch):
    patterns, tasks = _tasks(2, 3)
    distinct = {g for ext in pattern_catalog(2, 3)
                for g in [ext] + [ext.induced(s) for s in ref_base_choices(ext)]}
    assert len(patterns) == len(distinct)
    listed, opened = [], []  # (pattern, target) per listing; per round, the plans yielded
    pairs, open_placements = EmbeddingPlan.pairs, abinitio.approximation._open_placements

    def recording_pairs(self, c, *args, **kwargs):
        listed.append((self.pattern, c))
        return pairs(self, c, *args, **kwargs)

    def recording_open(*args):
        opened.append([])
        for item in open_placements(*args):
            opened[-1].append(item[2])
            yield item

    monkeypatch.setattr(EmbeddingPlan, "pairs", recording_pairs)
    monkeypatch.setattr(abinitio.approximation, "_open_placements", recording_open)
    chain = build_approximation(block("a"), 2, 3)
    monkeypatch.undo()
    # round 0 runs every task; round 1 stops partway at the ambient ceiling
    assert len(chain.stages) == 3 and chain.truncated and len(opened) == 2
    for rnd, plans in enumerate(opened):
        # each listing is taken against the stage the round started from
        got = [g for g, c in listed if c is chain.stages[rnd]]
        assert len(got) == len(set(got))
        if rnd == len(opened) - 1:
            stop = [plan for _, _, plan, _ in tasks].index(plans[-1])
            reached = tasks[:stop + 1]
            assert len(reached) < len(tasks)
        else:
            reached = tasks
        assert set(got) == {patterns[i][0] for e, b, _, _ in reached for i in (e, b)}
        assert rnd or set(got) == distinct
    assert len(listed) == sum(c is chain.stages[0] or c is chain.stages[1] for _, c in listed)
    assert len(distinct) < len(listed) < 2 * len(distinct)


def test_placements_met_in_the_first_stage_are_not_searched(monkeypatch):
    searched = []
    exists = EmbeddingPlan.exists

    def recording_exists(self, c, fixed=None, *args, **kwargs):
        searched.append((self.pattern, dict(fixed or {})))
        return exists(self, c, fixed, *args, **kwargs)

    seed = Graph(2, ["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    _tasks(2, 3)  # the catalog's own isomorphism tests run exists() too
    monkeypatch.setattr(EmbeddingPlan, "exists", recording_exists)
    chain = build_approximation(seed, 1, 3)
    monkeypatch.undo()
    assert chain.task_log and searched
    for ext, pins in searched:
        if ext.vertices:  # the empty extension is realized as a no-op
            assert not any(pins.items() <= e.as_dict().items()
                           for e in strong_embeddings(ext, seed)), (ext, pins)


def _random_k0_seeds(count, rng):
    seeds = []
    while len(seeds) < count:
        n = rng.randint(3, 6)
        names = [f"g{i}" for i in range(n)]
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < 0.5]
        g = Graph(2, names, edges)
        if is_in_k0(g):
            seeds.append(g)
    return seeds


@pytest.mark.parametrize("rounds, budget", [(1, 3), (2, 3), (1, 4)])
def test_build_matches_per_call_reference(rounds, budget):
    for seed in _random_k0_seeds(20, random.Random(rounds * 10 + budget)):
        assert build_approximation(seed, rounds, budget).to_json_dict() == \
            ref_build_approximation(seed, rounds, budget).to_json_dict()


def test_truncated_build_matches_per_call_reference():
    for seed in _random_k0_seeds(5, random.Random(7)):
        chain = build_approximation(seed, 2, 3, max_ambient=len(seed.vertices) + 4)
        assert chain.truncated
        assert chain.to_json_dict() == ref_build_approximation(
            seed, 2, 3, max_ambient=len(seed.vertices) + 4).to_json_dict()


@st.composite
def k0_seeds(draw):
    """A member of the class with coefficient 2 or 3 on 3 to 7 points."""
    m = draw(st.sampled_from([2, 3]))
    names = [f"g{i}" for i in range(draw(st.integers(3, 7)))]
    slots = list(itertools.combinations(names, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    g = Graph(m, names, [e for e, k in zip(slots, keep) if k])
    assume(is_in_k0(g))
    return g


@settings(max_examples=40, deadline=None)
@given(k0_seeds(), st.integers(0, 3), st.integers(0, 3))
def test_build_matches_reference_on_random_seeds(seed, rounds, budget):
    # the reference searches the current stage for every placement
    assert build_approximation(seed, rounds, budget).to_json_dict() == \
        ref_build_approximation(seed, rounds, budget).to_json_dict()


@settings(max_examples=25, deadline=None)
@given(k0_seeds(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_truncated_build_matches_reference_on_random_seeds(seed, rounds, budget, data):
    # a ceiling below the size the chain reaches stops it partway
    reached = len(build_approximation(seed, rounds, budget).stages[-1].vertices)
    assume(reached > len(seed.vertices))
    ceiling = data.draw(st.integers(len(seed.vertices), reached - 1))
    chain = build_approximation(seed, rounds, budget, max_ambient=ceiling)
    assert chain.truncated
    assert chain.to_json_dict() == ref_build_approximation(
        seed, rounds, budget, max_ambient=ceiling).to_json_dict()


def test_base_choices_one_per_orbit():
    tri = Graph(2, ["p1", "p2", "p3"],
                [("p1", "p2"), ("p1", "p3"), ("p2", "p3")])
    choices = _base_choices(tri)
    assert sorted(len(c) for c in choices) == [0, 1, 2, 3]


def test_realize_extension_disjoint_union():
    cur = block("a")
    ext = block("p")
    base = ext.induced(frozenset())
    at = Embedding.build(base, cur, {})
    out = realize_extension(cur, base, ext, at)
    assert len(out.vertices) == 10 and len(out.edges) == 20
    assert is_self_sufficient(out, cur.vertices)


def test_realize_extension_attaches_over_base():
    cur = block("a")
    names, edges = k5("p")
    ext = Graph(2, names + ["w"], edges + [("w", "p0"), ("w", "p1")])
    base = ext.induced(frozenset(names))
    at = Embedding.build(base, cur, {f"p{i}": f"a{i}" for i in range(5)})
    out = realize_extension(cur, base, ext, at)
    assert len(out.vertices) == 6
    [fresh] = out.vertices - cur.vertices
    assert out.neighbors(fresh) == {"a0", "a1"}


def test_realize_extension_validation():
    cur = block("a")
    ext = block("p")
    base3 = Graph(3, ["p0"], [])
    with pytest.raises(InvalidMap, match="coefficients differ"):
        realize_extension(cur, base3, ext, Embedding.build(base3, cur, {"p0": "a0"}))
    stray = Graph(2, ["q9"], [])
    with pytest.raises(InvalidMap, match="subgraph"):
        realize_extension(cur, stray, ext, Embedding.build(stray, cur, {"q9": "a0"}))
    pair = Graph(2, ["p0", "p1"], [])  # drops the p0-p1 edge of the block
    with pytest.raises(InvalidMap, match="induced"):
        realize_extension(cur, pair, ext,
                          Embedding.build(pair, cur, {"p0": "a0", "p1": "a2"}))


def test_build_zero_rounds():
    seed = block("a")
    chain = build_approximation(seed, 0, 3)
    assert chain.stages == (seed,)
    assert chain.task_log == () and not chain.truncated
    d = chain.to_json_dict()
    assert list(d) == ["stages", "task_log", "truncated"]


def test_negative_sizes_are_rejected():
    seed = block("a")
    for args, kwargs, name in [((-1, 3), {}, "rounds"), ((1, -1), {}, "size_budget"),
                               ((1, 3), {"max_ambient": -5}, "max_ambient")]:
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer, got -"):
            build_approximation(seed, *args, **kwargs)
    g = PartialIso.build(seed, {v: v for v in seed.vertices})
    with pytest.raises(ValueError, match="steps must be a nonnegative integer, got -1"):
        extend_partial_iso(seed, g, steps=-1)
    # a negative budget is rejected before the memo, which keeps no key for it
    memo = _catalog.cache_info()
    with pytest.raises(ValueError, match="size_budget must be a nonnegative integer, got -1"):
        pattern_catalog(2, -1)
    assert _catalog.cache_info() == memo
    # 0 stays valid
    assert build_approximation(seed, 0, 0, max_ambient=0).stages == (seed,)
    assert build_approximation(seed, 1, 0, max_ambient=0).truncated
    assert extend_partial_iso(seed, g, steps=0)[0] == seed


def test_build_rejects_bad_seed():
    names = [f"c{i}" for i in range(6)]
    k6 = Graph(2, names, list(itertools.combinations(names, 2)))
    with pytest.raises(OutsideK0):
        build_approximation(k6, 1, 2)


def test_build_from_empty_covers_catalog():
    chain = build_approximation(Graph(2, [], []), 1, 3)
    final = chain.stages[-1]
    assert len(final.vertices) == 11
    assert not chain.truncated
    # only empty-base tasks can fire on an empty round-start snapshot
    assert all(entry["base"] == [] for entry in chain.task_log)
    assert all(entry["round"] == 0 for entry in chain.task_log)
    for pattern in pattern_catalog(2, 3):
        assert strong_embeddings(pattern, final), pattern


def test_build_truncates_at_ceiling():
    chain = build_approximation(block("a"), 1, 3, max_ambient=6)
    assert chain.truncated
    assert len(chain.stages[-1].vertices) <= 6


def test_extend_swap_without_growth():
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb, ea + eb)
    phi = PartialIso.build(g, {f"a{i}": f"b{i}" for i in range(5)})
    ambient, gamma = extend_partial_iso(g, phi)
    assert ambient == g
    f = gamma.as_dict()
    assert all(f[f"a{i}"] == f"b{i}" for i in range(5))
    ff = {v: f[f[v]] for v in f}
    assert ff == {v: v for v in g.vertices}
    assert f in brute_automorphisms(g, fixed=phi.as_dict())


def test_extend_grows_one_satellite():
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w"], ea + eb + [("w", "b0"), ("w", "b1")])
    pairs = {f"a{i}": f"b{i}" for i in range(5)}
    assert brute_automorphisms(g, fixed=pairs) == []
    ambient, gamma = extend_partial_iso(g, PartialIso.build(g, pairs))
    assert len(ambient.vertices) == 12
    [fresh] = ambient.vertices - g.vertices
    assert ambient.neighbors(fresh) == {"a0", "a1"}
    f = gamma.as_dict()
    assert all(f[f"a{i}"] == f"b{i}" for i in range(5))
    assert f["w"] == fresh or f[fresh] == "w"
    assert gamma.is_induced()
    assert is_self_sufficient(ambient, g.vertices)


def test_no_total_extension_within_the_steps_fails_by_name():
    # w on a0, a1 has no image over b0, b1 inside the ambient, and 0 steps
    # may not grow it
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w"], ea + eb + [("w", "a0"), ("w", "a1")])
    phi = PartialIso.build(g, {f"a{i}": f"b{i}" for i in range(5)})
    with pytest.raises(ConstructionFailed, match="no total extension within 0 rounds"):
        extend_partial_iso(g, phi, steps=0)
    assert len(extend_partial_iso(g, phi)[0].vertices) == 12


def test_a_failed_back_and_forth_logs_its_steps():
    # w on a0, a1 and x on a2, a3 have no preimage over the b block, and
    # each needs a growing back step: one step grows for w alone and fails,
    # naming the step it took on each side
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w", "x"],
              ea + eb + [("w", "a0"), ("w", "a1"), ("x", "a2"), ("x", "a3")])
    phi = PartialIso.build(g, {f"a{i}": f"b{i}" for i in range(5)})
    with pytest.raises(ConstructionFailed, match="no total extension within 1 rounds") as exc:
        extend_partial_iso(g, phi, steps=1)
    assert exc.value.stage_log == [
        {"side": "forth", "vertex": "b0", "grown": False, "size": 12},
        {"side": "back", "vertex": "w", "grown": True, "size": 13}]
    with pytest.raises(ConstructionFailed) as exc:
        extend_partial_iso(g, phi, steps=0)
    assert exc.value.stage_log == []
    assert len(extend_partial_iso(g, phi, steps=2)[0].vertices) == 14


def test_total_map_check_matches_pinned_search():
    # a path with a pendant: some permutations are automorphisms, most not.
    # Each permutation, and its restriction to the first two names, is
    # checked against the brute-force search for the least automorphism
    # extending it
    g = Graph(2, ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")])
    vs = g.sorted_vertices()
    hits = partial_hits = 0
    for perm in itertools.permutations(vs):
        for phi in (dict(zip(vs, perm)), dict(zip(vs[:2], perm[:2]))):
            gamma = _total_extension(g, phi)
            brute = brute_automorphisms(g, fixed=phi, stop_after=1)
            assert (gamma and [gamma.as_dict()]) == (brute or None)
            if len(phi) == len(vs):
                hits += gamma is not None
            else:
                partial_hits += gamma is not None
    assert (hits, partial_hits) == (2, 12)


def _checked_growth(ambient, phi, v) -> tuple:
    """The forth step's growth through the checked front: free_amalgam of
    the ambient with the closure of phi's domain and v, over the domain
    placed by phi; the grown graph and the copy's map."""
    n = _closure_set(ambient, frozenset(phi) | {v})
    base, part = ambient.induced(phi), ambient.induced(n)
    res = free_amalgam(AmalgamSpec(ambient, part, Embedding.build(base, ambient, phi),
                                   Embedding.build(base, part, {x: x for x in phi})))
    return res.graph, res.right_embedding.as_dict()


def test_growth_step_is_the_checked_free_amalgam(monkeypatch):
    # seeded K0 ambients and strong partial maps of one or two points: every
    # forth step of their back-and-forth that grows the ambient gives the
    # graph and the map that free_amalgam, checking every precondition, gives
    rng = random.Random(35)
    calls = []
    step = abinitio.approximation._extend_one_side
    monkeypatch.setattr(abinitio.approximation, "_extend_one_side",
                        lambda a, phi, v: calls.append((a, dict(phi), v)) or step(a, phi, v))
    maps = 0
    while maps < 30:
        g = random_k0_graph(rng, max_verts=7, m=2)
        vs = g.sorted_vertices()
        pairs = [(x, y) for x in vs for y in vs if x != y]
        if not pairs:
            continue
        phi = dict([rng.choice(pairs)])
        [(x, y)] = phi.items()
        seconds = [(u, w) for u, w in pairs
                   if x not in (u, w) and y not in (u, w) and g.has_edge(u, x) == g.has_edge(w, y)]
        if seconds and rng.random() < 0.5:
            phi.update([rng.choice(seconds)])
        if not (is_self_sufficient(g, phi.keys()) and is_self_sufficient(g, phi.values())):
            continue
        maps += 1
        with contextlib.suppress(ConstructionFailed):
            extend_partial_iso(g, PartialIso.build(g, phi), steps=3)
    monkeypatch.undo()
    grew = 0
    for ambient, phi, v in calls:
        got = step(ambient, phi, v)
        if got[0] is not ambient:
            grew += 1
            assert got == _checked_growth(ambient, phi, v)
    assert (len(calls), grew) == (94, 49)


def test_back_and_forth_growth_stays_in_k0_and_strong():
    # small K0 seeds with a symmetry that moves a point, drawn as the
    # approx-chain benchmark draws them: the symmetry is extended inside the
    # last stage of the seed's chain, which grows where no image fits there
    rng = random.Random(31)
    seeds = grew = 0
    while seeds < 20:
        n = rng.randint(3, 6)
        names = [f"g{i}" for i in range(n)]
        p = rng.uniform(0.2, 0.6)
        seed = Graph(2, names, [e for e in itertools.combinations(names, 2) if rng.random() < p])
        moved = [f for f in brute_automorphisms(seed) if any(f[v] != v for v in f)]
        if not moved or not is_in_k0(seed):
            continue
        seeds += 1
        final = build_approximation(seed, 1, 4).stages[-1]
        grown, gamma = extend_partial_iso(final, PartialIso.build(final, moved[0]))
        grew += grown != final
        assert is_in_k0(grown)
        assert is_self_sufficient(grown, final.vertices)
        assert gamma.source == gamma.target == grown
        assert gamma.image == grown.vertices and gamma.is_induced()
    assert grew


def test_extend_identity_is_identity():
    g = block("a")
    ambient, gamma = extend_partial_iso(
        g, PartialIso.build(g, {v: v for v in g.vertices}))
    assert ambient == g
    assert gamma.as_dict() == {v: v for v in g.vertices}


def test_extend_validates_inputs():
    g = block("a")
    phi = PartialIso.build(g, {"a0": "a1", "a1": "a2"})
    with pytest.raises(InvalidMap, match="self-sufficient"):
        extend_partial_iso(g, phi)
    other = block("b")
    with pytest.raises(InvalidMap, match="ambient"):
        extend_partial_iso(other, PartialIso.build(g, {v: v for v in g.vertices}))


def test_add_generic_point_each_level():
    g = block("a")
    iso = add_generic_point(g, g.vertices, 2)
    [x] = iso.vertices - g.vertices
    assert iso.degree(x) == 0
    assert dimension(iso, [x]) == 2

    one = add_generic_point(g, g.vertices, 1)
    [x] = one.vertices - g.vertices
    assert one.degree(x) == 1
    assert dimension(one, [x]) == 1

    tight = add_generic_point(g, g.vertices, 0)
    [x] = tight.vertices - g.vertices
    assert tight.neighbors(x) == {"a0", "a1"}
    assert closure(tight, g.vertices).closure == g.vertices
    assert x in geometric_closure_bounded(tight, g.vertices)


def test_add_generic_point_validation():
    g = block("a")
    with pytest.raises(InvalidMap, match="0..2"):
        add_generic_point(g, g.vertices, 3)
    with pytest.raises(InvalidMap, match="self-sufficient"):
        add_generic_point(g, ["a0", "a1"], 0)
    lone = Graph(2, ["u"], [])
    with pytest.raises(InvalidMap, match="attachment targets"):
        add_generic_point(lone, ["u"], 0)


def test_generic_point_matches_the_oracles_at_every_relative_count():
    # small K0 graphs and strong attachment sets: at every rel in 0..m the
    # new point counts rel over the set, all its edges land there, and the
    # ambient stays strong in the grown graph, which stays in K0
    rng = random.Random(32)
    checked = 0
    while checked < 40:
        m = rng.choice((2, 3))
        names = [f"v{i}" for i in range(rng.randint(1, 7))]
        g = Graph(m, names, [e for e in itertools.combinations(names, 2) if rng.random() < 0.4])
        over = frozenset(v for v in names if rng.random() < 0.6)
        if not (brute_in_k0(g) and brute_closed(g, over)):
            continue
        for rel in range(max(0, m - len(over)), m + 1):
            out = add_generic_point(g, over, rel)
            [x] = out.vertices - g.vertices
            assert out.neighbors(x) <= over and out.induced(g.vertices) == g
            assert brute_delta(out, over | {x}) - brute_delta(out, over) == rel
            assert brute_closed(out, g.vertices) and brute_in_k0(out)
            checked += 1


def test_repeated_growth_stays_strong():
    g = Graph(2, [], [])
    for rel in (2, 2, 1, 0, 0):
        before = g.vertices
        g = add_generic_point(g, g.vertices, rel)
        if rel >= 1:
            assert is_self_sufficient(g, before)
    assert len(g.vertices) == 5


def test_the_chain_the_back_and_forth_and_a_report_do_not_depend_on_the_hash_seed():
    """The searches visit sets of names in hash order, which decides how
    many candidates they try before a hit, but no answer: a small chain,
    back-and-forth maps between its single strong points (some extended,
    some failing within their steps), two uniformity reports and one
    automorphism listing give one canonical JSON under three hash seeds.
    The listings read representatives in set order through the pattern's
    automorphisms, which matter on K5 with spokes: 120 placements per set."""
    script = (
        "import json\n"
        "from abinitio import (ConstructionFailed, EmbeddingPlan, Graph, PartialIso,\n"
        "                      build_approximation, extend_partial_iso, is_self_sufficient,\n"
        "                      uniform_algebraicity_report)\n"
        "k5 = [(f'{p}{i}', f'{p}{j}') for p in 'ab' for i in range(5) for j in range(i + 1, 5)]\n"
        "seed = Graph(2, [u for e in k5[:10] for u in e] + ['p'], k5[:10] + [('p', 'a0')])\n"
        "chain = build_approximation(seed, 1, 3)\n"
        "final = chain.stages[-1]\n"
        "x, *ys = sorted(v for v in final.vertices if is_self_sufficient(final, {v}))\n"
        "maps = []\n"
        "for y in ys[:5]:\n"
        "    try:\n"
        "        grown, gamma = extend_partial_iso(final, PartialIso.build(final, {x: y}), 4)\n"
        "        maps.append([grown.to_json_dict(), gamma.pairs])\n"
        "    except ConstructionFailed as e:\n"
        "        maps.append([str(e), e.stage_log])\n"
        "g = Graph(2, [u for e in k5 for u in e] + ['s'], k5 + [('s', 'a0'), ('s', 'b0')])\n"
        "rows = [[w.to_json_dict(), n, u] for w, n, u in uniform_algebraicity_report(g, 1)]\n"
        "h = Graph(2, seed.vertices - {'p'} | {'w0', 'w1'}, k5[:10] + [\n"
        "    ('w0', 'a0'), ('w0', 'a1'), ('w1', 'a2'), ('w1', 'a3')])\n"
        "spokes = [[w.to_json_dict(), n, u] for w, n, u in uniform_algebraicity_report(h, 1)]\n"
        "autos = EmbeddingPlan(h).pairs(h)\n"
        "print(json.dumps([chain.to_json_dict(), maps, rows, spokes, autos], sort_keys=True))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                           check=True).stdout for seed in ("1", "5", "11")]
    assert outs[0] == outs[1] == outs[2]
    chain, maps, rows, spokes, autos = json.loads(outs[0])
    assert len(chain["stages"]) == 2 and rows and len(autos) == 8
    assert any(len(counts) == 120 for _, counts, _ in spokes)
    assert any(isinstance(m[0], dict) for m in maps) and any(isinstance(m[0], str) for m in maps)
