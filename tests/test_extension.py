import hashlib
import inspect
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

import abinitio.extension
import abinitio.graph
import abinitio.zero_decomposition
import oracles
from abinitio import (
    ConstructionFailed,
    Embedding,
    EmbeddingPlan,
    EPCertificate,
    EPProblem,
    Graph,
    InvalidMap,
    OutsideK0,
    PartialIso,
    build_base_stage,
    build_level_stage,
    canonical_json,
    components,
    decompose,
    ep_extend,
    orbit_orders,
    uniform_algebraicity_report,
    validate_problem,
    verify_certificate,
)
from abinitio.graph import _shape
from abinitio.verifier import _admits_bounded_orientation
from abinitio.zero_decomposition import BaseWitness, _report_rows
from builders import random_zero_graph
from oracles import (
    brute_automorphisms, brute_in_k0, ref_dedupe_witnesses, ref_extend_map_over_satellites,
    ref_find_pattern_iso, ref_report_rows, ref_uniformize_row, ref_verify_certificate)
from test_acceptance import _ep_corpus


# the caches sharing stage work by value; test_stage_sharing.py checks that
# every cache of the module is named here
SHARED_STAGES = ("_block_counts", "_even_out", "_satellites")


@pytest.fixture(autouse=True)
def unshared_stages(monkeypatch):
    """Every stage a test here drives does its map-independent work afresh:
    each cache that shares it by value is emptied before each call, so the
    tests counting work or patching a budget see every computation.  The
    sharing itself is tested in test_stage_sharing.py."""
    for name in SHARED_STAGES:
        shared = getattr(abinitio.extension, name)
        monkeypatch.setattr(abinitio.extension, name,
                            lambda *args, shared=shared: shared.cache_clear() or shared(*args))


def k5(prefix):
    names = [f"{prefix}{i}" for i in range(5)]
    edges = [(names[i], names[j]) for i in range(5) for j in range(i + 1, 5)]
    return names, edges


def single_block():
    names, edges = k5("a")
    return Graph(2, names, edges)


def double_block():
    na, ea = k5("a")
    nb, eb = k5("b")
    return Graph(2, na + nb, ea + eb)


def w_graph():
    names, edges = k5("a")
    return Graph(2, names + ["w"], edges + [("w", "a0"), ("w", "a1")])


ROT = {f"a{i}": f"a{(i + 1) % 5}" for i in range(5)}
IDA = {f"a{i}": f"a{i}" for i in range(5)}
SWAP = {f"a{i}": f"b{i}" for i in range(5)} | {f"b{i}": f"a{i}" for i in range(5)}
CHAIN = {f"a{i}": f"b{i}" for i in range(5)}


def power(f: dict, k: int) -> dict:
    out = {v: v for v in f}
    for _ in range(k):
        out = {v: f[out[v]] for v in out}
    return out


def test_orbit_orders():
    g = single_block()
    p = EPProblem(g, (PartialIso.build(g, IDA),))
    o = orbit_orders(p)
    assert o.per_map == (1,) and o.global_order == 1
    assert all(v == 1 for v in o.per_point[0].values())

    p = EPProblem(g, (PartialIso.build(g, ROT),))
    o = orbit_orders(p)
    assert o.per_map == (5,) and o.global_order == 5

    swap_pair = {"a0": "a1", "a1": "a0", "a2": "a2", "a3": "a3", "a4": "a4"}
    p = EPProblem(g, (PartialIso.build(g, swap_pair),))
    o = orbit_orders(p)
    assert o.per_point[0] == {"a0": 2, "a1": 2, "a2": 1, "a3": 1, "a4": 1}
    assert o.per_map == (2,)

    h = double_block()
    p = EPProblem(h, (PartialIso.build(h, CHAIN),))
    # trajectories leave the domain immediately, so every order is 1
    assert orbit_orders(p).per_map == (1,)

    p = EPProblem(g, (PartialIso.build(g, ROT), PartialIso.build(g, swap_pair)))
    assert orbit_orders(p).global_order == 10

    p = EPProblem(g, (PartialIso.build(g, {}),))
    assert orbit_orders(p).per_map == (1,)


def _one_to_one(rng, sources, targets) -> dict:
    """A random one-to-one map from some of sources into targets."""
    sources = rng.sample(sources, rng.randint(0, min(len(sources), len(targets))))
    return dict(zip(sources, rng.sample(targets, len(sources))))


def test_chains_and_cycles_split_one_to_one_maps():
    # random one-to-one maps among shuffled items, with fixed points, the
    # empty map, and images and sources outside the items
    split = abinitio.extension._chains_and_cycles
    rng = random.Random(2525)
    seen = set()
    for _ in range(400):
        items = rng.sample(range(12), rng.randint(0, 10))
        f = _one_to_one(rng, items + [20, 21], items + [30, 31])
        chains, cycles = split(items, f)
        walks = chains + cycles
        inside = {x: f[x] for x in items if f.get(x) in items}
        # every item lies in exactly one walk, and each step follows f
        assert sorted(x for w in walks for x in w) == sorted(items)
        assert all(inside[x] == y for w in walks for x, y in zip(w, w[1:]))
        # chains run from each unreached item to where f is undefined or
        # leaves the items; cycles close
        assert [w[0] for w in chains] == [x for x in items if x not in inside.values()]
        assert all(w[-1] not in inside for w in chains)
        assert all(inside[w[-1]] == w[0] for w in cycles)
        # both lists keep item order, and a cycle starts at its first item
        for ws in (chains, cycles):
            assert [items.index(w[0]) for w in ws] == sorted(items.index(w[0]) for w in ws)
        assert all(min(w, key=items.index) == w[0] for w in cycles)
        seen.update(("chain" if w in chains else "cycle", len(w) > 1) for w in walks)
        seen.add("map" if f else "empty map")
    assert seen == {("chain", False), ("chain", True), ("cycle", False), ("cycle", True),
                    "map", "empty map"}


def test_orbit_orders_match_the_loop_they_replaced():
    # every injection among the points of an edgeless ambient is a partial
    # isomorphism of it
    rng = random.Random(2526)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 9))]
        g = Graph(2, names, [])
        p = EPProblem(g, tuple(PartialIso.build(g, _one_to_one(rng, names, names))
                               for _ in range(rng.randint(1, 3))))
        got, want = orbit_orders(p), oracles.ref_orbit_orders(p)
        assert got == want and [list(d) for d in got.per_point] == [list(d) for d in want.per_point]


def test_partial_permutation_parts_match_the_split_they_replaced():
    # disjoint blocks with a one-to-one block map of cycles, chains and
    # untouched blocks, read as a point map; now and then a block straddles
    # the domain or goes onto a non-block
    split = abinitio.extension._partial_permutation_parts
    rng = random.Random(2527)
    seen = set()
    for _ in range(400):
        blocks = [frozenset(f"b{i}_{j}" for j in range(rng.randint(1, 3)))
                  for i in range(rng.randint(0, 8))]
        rng.shuffle(blocks)
        e = {}
        for size in {len(bl) for bl in blocks}:
            group = [bl for bl in blocks if len(bl) == size]
            for bl, im in zip(group, rng.sample(group, len(group))):
                if rng.random() < 0.7:
                    e.update(zip(sorted(bl), rng.sample(sorted(im), size)))
        if e and rng.random() < 0.1:
            del e[rng.choice(sorted(e))]
        if e and rng.random() < 0.1:
            e[rng.choice(sorted(e))] = "elsewhere"
        got = _outcome(split, blocks, e)
        assert got == _outcome(oracles.ref_partial_permutation_parts, blocks, e)
        seen.update(("failed",) if got[0] == "failed" else
                    (kind for kind, parts in zip(("cycles", "chains", "fixed"), got) if parts))
    assert seen == {"cycles", "chains", "fixed", "failed"}


def test_satellite_cycles_match_the_loop_they_replaced():
    # cliques of one to three points with no anchors, some sent by the input
    # map onto a permutation's choice among cliques of their size, the rest
    # paired off by the matcher: the cycle log of the permutation they make
    rng = random.Random(2528)
    lengths = set()
    for _ in range(200):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 7))]
        cliques = [[f"c{i}_{j}" for j in range(n)] for i, n in enumerate(sizes)]
        b = Graph(2, [v for c in cliques for v in c],
                  [e for c in cliques for e in itertools.combinations(c, 2)])
        e = {}
        for size in set(sizes):
            group = [c for c in cliques if len(c) == size]
            for c, im in zip(group, rng.sample(group, len(group))):
                if rng.random() < 0.6:
                    e.update(_one_to_one(rng, c, im))
        log_cycles: list = []
        f = abinitio.extension._extend_map_over_satellites(
            b, frozenset(), e, {}, log_cycles, 0, [])
        sats = components(b, b.vertices)
        comp_image = {s: frozenset(f[v] for v in s) for s in sats}
        assert log_cycles == oracles.ref_map_cycles(sats, comp_image, 0)
        ref_log: list = []
        assert f == ref_extend_map_over_satellites(b, frozenset(), e, {}, ref_log, 0, [])
        assert log_cycles == ref_log
        lengths.update(c["length"] for c in log_cycles)
    assert lengths >= {1, 2, 3}


def test_problem_json_roundtrip():
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    d = p.to_json_dict()
    again = EPProblem.from_json_dict(d)
    assert again == p
    assert canonical_json(again.to_json_dict()) == canonical_json(d)


def test_problem_json_rejects_malformed():
    g = single_block()
    good = EPProblem(g, (PartialIso.build(g, IDA),)).to_json_dict()
    with pytest.raises(ValueError, match="'graph' and 'maps'"):
        EPProblem.from_json_dict({"graph": good["graph"]})
    with pytest.raises(ValueError, match="'map' key"):
        EPProblem.from_json_dict({"graph": good["graph"], "maps": [[]]})
    with pytest.raises(ValueError, match="2-element"):
        EPProblem.from_json_dict(
            {"graph": good["graph"], "maps": [{"map": [["a0"]]}]})
    with pytest.raises(ValueError, match="duplicate"):
        EPProblem.from_json_dict(
            {"graph": good["graph"], "maps": [{"map": [["a0", "a1"], ["a0", "a2"]]}]})
    with pytest.raises(InvalidMap):
        EPProblem(g, ({"a0": "a1"},))


# maps that are no list of [name, name] pairs, and the part each error names
MALFORMED_MAPS = [
    ([[["a0"], "a1"]], "[['a0'], 'a1']"),  # an unhashable source
    ([["a0", {"x": 1}]], "['a0', {'x': 1}]"),  # an image no graph can name
    ([["a0", 1]], "['a0', 1]"),
    ({"a0": "a1"}, "{'a0': 'a1'}"),
    ("a0a1", "'a0a1'"),
]


@pytest.mark.parametrize("pairs, named", MALFORMED_MAPS)
def test_json_readers_reject_malformed_map_pairs(pairs, named):
    g = single_block()
    p = EPProblem(g, (PartialIso.build(g, IDA),))
    good = ep_extend(p).to_json_dict()
    with pytest.raises(ValueError, match=re.escape(named)):
        EPProblem.from_json_dict({"graph": good["problem"]["graph"], "maps": [{"map": pairs}]})
    for key, value in (("inclusion", pairs), ("automorphisms", [pairs])):
        with pytest.raises(ValueError, match=re.escape(named)):
            EPCertificate.from_json_dict({**good, key: value})


def test_validate_problem():
    names = [f"c{i}" for i in range(6)]
    k6 = Graph(2, names, [(x, y) for x, y in itertools.combinations(names, 2)])
    with pytest.raises(OutsideK0):
        validate_problem(EPProblem(k6, ()))

    g = single_block()
    pendant = Graph(2, g.sorted_vertices() + ["p"],
                    g.sorted_edges() + [("p", "a0")])
    with pytest.raises(OutsideK0, match="expected 0"):
        validate_problem(EPProblem(pendant, ()))

    h = w_graph()
    bad = EPProblem(h, (PartialIso.build(h, {"a0": "a0"}),))
    with pytest.raises(InvalidMap, match="not self-sufficient"):
        validate_problem(bad)
    validate_problem(EPProblem(h, (PartialIso.build(h, ROT),)))


def test_base_stage_counts_each_block_type_once(monkeypatch):
    # mu of every corpus base stage against the strong placements of each
    # block's pattern, listed; isomorphic blocks share one type, so the
    # pattern's automorphisms are counted once per isomorphism type, by the
    # stabilizer chain of the type's plan
    counted = []  # the shapes whose group order is read
    shape = abinitio.extension._shape
    monkeypatch.setattr(abinitio.extension, "_shape",
                        lambda adjacent: counted.append(adjacent) or shape(adjacent))
    shared = 0
    for _, p in _ep_corpus():
        blocks = list(decompose(p.a).minimally_closed)
        want = [{"block": sorted(bl), "count": len(EmbeddingPlan(p.a.induced(bl)).pairs(
            p.a, None, abinitio.is_self_sufficient))} for bl in blocks]
        types: list = []
        for bl in blocks:
            if not any(len(t) == len(bl) and ref_find_pattern_iso(p.a, t, [], p.a, bl)
                       for t in types):
                types.append(bl)
        counted.clear()
        log = build_base_stage(p, orbit_orders(p))[2]
        assert log["mu"] == want
        assert len(counted) == len(types)
        shared += len(blocks) - len(types)
    assert shared == 19


def _octahedron(prefix):
    """K_{2,2,2}: six points, each missing only its partner.  At m = 2 it
    counts 0 and no proper part does, so it is a block of its own."""
    names = [f"{prefix}{i}" for i in range(6)]
    return names, [(u, v) for u, v in itertools.combinations(names, 2)
                   if int(u[-1]) // 2 != int(v[-1]) // 2]


def test_block_counts_match_the_listed_strong_placements():
    # mu read off the blocks, automorphisms times the blocks of a type,
    # against every strong placement listed, on 0-3 K5s with 0-3
    # octahedra, each with tight single points attached at random
    rng = random.Random(1996)
    for fives, sixes in itertools.product(range(4), repeat=2):
        names, edges = [], []
        for j in range(fives + sixes):
            part, inside = k5(f"k{j}v") if j < fives else _octahedron(f"o{j}v")
            names += part
            edges += inside
        for j in range(rng.randint(0, 4) if names else 0):
            edges += [(f"s{j}", t) for t in rng.sample(names, 2)]
            names.append(f"s{j}")
        a = Graph(2, names, edges)
        blocks = decompose(a).minimally_closed
        assert sorted(map(len, blocks)) == [5] * fives + [6] * sixes
        assert abinitio.extension._block_counts(a, blocks) == tuple(
            len(EmbeddingPlan(a.induced(bl)).pairs(a, None, abinitio.is_self_sufficient))
            for bl in blocks)


def test_stage_builders_reject_a_decomposition_of_another_graph():
    # given the first K5's decomposition, the base stage of two disjoint
    # K5s once dropped the second block; one of an equal graph is the
    # ambient's own
    p = EPProblem(double_block(), ())
    with pytest.raises(InvalidMap, match="another graph"):
        build_base_stage(p, orbit_orders(p), decompose(single_block()))
    assert len(build_base_stage(p, orbit_orders(p), decompose(double_block()))[0].vertices) == 10
    p = EPProblem(w_graph(), ())
    b0, maps, _ = build_base_stage(p, orbit_orders(p))
    with pytest.raises(InvalidMap, match="another graph"):
        build_level_stage(b0, p, 0, maps, decomp=decompose(single_block()))
    b1 = build_level_stage(b0, p, 0, maps, decomp=decompose(w_graph()))[0]
    assert p.a.vertices <= b1.vertices


def test_automorphism_check_over_edges_matches_every_pair():
    # every vertex pair compared against the check over edges, on random
    # permutations and on automorphisms of graphs with many of them
    rng = random.Random(2012)
    autos = 0
    for trial in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 7))]
        g = Graph(2, names, [e for e in itertools.combinations(names, 2) if rng.random() < 0.5])
        if trial % 2:
            f = rng.choice(brute_automorphisms(g))
        else:
            f = dict(zip(names, rng.sample(names, len(names))))
        want = all(g.has_edge(f[u], f[v]) == g.has_edge(u, v)
                   for u, v in itertools.combinations(names, 2))
        assert abinitio.extension._check_automorphism(g, f) == want
        autos += want
    assert not abinitio.extension._check_automorphism(g, {**f, names[0]: "elsewhere"})
    assert autos >= 150


def test_base_stage_identity_and_cycle():
    g = single_block()
    p = EPProblem(g, (PartialIso.build(g, IDA),))
    b0, fmaps, log = build_base_stage(p, orbit_orders(p))
    assert b0 == g
    assert fmaps[0] == {v: v for v in g.vertices}
    assert log["mu"] == [{"block": sorted(g.vertices), "count": 120}]
    assert log["closures"][0]["kind"] == "cycle"
    assert log["closures"][0]["cycle_length"] == 1

    h = double_block()
    p = EPProblem(h, (PartialIso.build(h, SWAP),))
    b0, fmaps, log = build_base_stage(p, orbit_orders(p))
    assert b0 == h
    assert fmaps[0] == SWAP
    assert power(fmaps[0], 2) == {v: v for v in h.vertices}
    assert log["closures"][0]["cycle_length"] == 2
    assert log["closures"][0]["copies"] == []


def test_base_stage_closes_open_chain_without_copies():
    h = double_block()
    p = EPProblem(h, (PartialIso.build(h, CHAIN),))
    orders = orbit_orders(p)
    b0, fmaps, log = build_base_stage(p, orders)
    # order 1: the chain closes into a 2-cycle over the existing blocks
    assert b0 == h
    f = fmaps[0]
    assert all(f[v] == CHAIN[v] for v in CHAIN)
    assert power(f, 2) == {v: v for v in h.vertices}
    entry = [e for e in log["closures"] if e["kind"] == "chain"][0]
    assert entry["cycle_length"] == 2 and entry["copies"] == []


def test_base_stage_chain_with_rotation_adds_copies():
    na, ea = k5("a")
    nb, eb = k5("b")
    nc, ec = k5("c")
    g = Graph(2, na + nb + nc, ea + eb + ec)
    e = dict(CHAIN)
    e.update({f"c{i}": f"c{(i + 1) % 5}" for i in range(5)})
    p = EPProblem(g, (PartialIso.build(g, e),))
    orders = orbit_orders(p)
    assert orders.per_map == (5,)
    b0, fmaps, log = build_base_stage(p, orders)
    # the a->b chain must cycle with the same order as the rotation: the lap
    # length is 5*2, filled with (5-1)*2 fresh block copies
    assert len(b0.vertices) == 15 + 8 * 5
    entry = [x for x in log["closures"] if x["kind"] == "chain"][0]
    assert entry["cycle_length"] == 10 and len(entry["copies"]) == 8
    f = fmaps[0]
    assert power(f, 10) == {v: v for v in b0.vertices}
    assert power(f, 5) != {v: v for v in b0.vertices}
    lap = power(f, 10)
    for copy in entry["copies"]:
        assert {lap[v] for v in copy} == set(copy)
    from abinitio import delta, is_in_k0
    assert delta(b0, b0.vertices) == 0 and is_in_k0(b0)


def test_level_stage_uniformizes_and_extends():
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    cert = ep_extend(p)
    assert len(cert.b.vertices) == 15
    assert len(cert.stage_log) == 2
    lvl = cert.stage_log[1]
    assert lvl["kind"] == "level" and lvl["layer_added"] == ["w"]
    assert len(lvl["rows"]) == 10
    assert all(row["nu"] == 1 for row in lvl["rows"])
    assert len(lvl["added"]) == 9
    f = cert.automorphisms[0].as_dict()
    assert f["a0"] == "a1" and f["w"] != "w"
    # pair orbits under the rotation split the ten copies into two 5-cycles
    lengths = sorted(c["length"] for c in lvl["map_cycles"])
    assert lengths == [5, 5]
    lap = power(f, 5)
    for cyc in lvl["map_cycles"]:
        for comp in cyc["components"]:
            assert {lap[v] for v in comp} == set(comp)
    assert verify_certificate(p, cert).ok


def test_level_stage_identity_map():
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, {v: v for v in g.vertices}),))
    cert = ep_extend(p)
    assert len(cert.b.vertices) == 15
    f = cert.automorphisms[0].as_dict()
    assert f == {v: v for v in cert.b.vertices}
    assert all(c["length"] == 1 for c in cert.stage_log[1]["map_cycles"])
    assert verify_certificate(p, cert).ok


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConstructionFailed as exc:
        return ("failed", str(exc))


def _triangle_and_point():
    # a block, a triangle p, q, r tied to a0, a1, a2 one point each, and a
    # point w tied to a3 and a4: two components of sizes 3 and 1, each
    # counting 0 over the block
    names, edges = k5("a")
    edges = edges + [("p", "q"), ("p", "r"), ("q", "r"), ("p", "a0"), ("q", "a1"),
                     ("r", "a2"), ("w", "a3"), ("w", "a4")]
    return Graph(2, names + ["p", "q", "r", "w"], edges), frozenset(names)


@pytest.mark.parametrize("fq, e, want", [
    # swapping a0 and a1 swaps p and q; swapping a3 and a4 keeps w
    ({"a0": "a1", "a1": "a0", "a3": "a4", "a4": "a3"}, {},
     {"p": "q", "q": "p", "r": "r", "w": "w"}),
    ({"a0": "a1", "a1": "a0"}, {"p": "q"}, {"p": "q", "q": "p", "r": "r", "w": "w"}),
    # a forced point sent off its anchors' images
    ({"a0": "a1", "a1": "a0"}, {"p": "r"}, "no compatible completion over a forced component"),
    # rotated anchors: no component has the triangle's anchors sent there,
    # and the point is too small to take the triangle
    ({"a0": "a1", "a1": "a2", "a2": "a3", "a3": "a4", "a4": "a0"}, {},
     "ran out of compatible components"),
], ids=["swaps", "forced", "forced-off", "rotated"])
def test_satellites_pair_components_over_their_anchors(fq, e, want):
    b, block = _triangle_and_point()
    fq = {v: fq.get(v, v) for v in block}
    got = _outcome(abinitio.extension._extend_map_over_satellites, b, block, e, fq, [], 0, [])
    expect = _outcome(ref_extend_map_over_satellites, b, block, e, fq, [], 0, [])
    assert got == expect
    if isinstance(want, str):
        assert got == ("failed", f"map 0: {want}")
    else:
        assert got == {**fq, **want}


def test_satellites_pair_only_components_of_one_size():
    # points b, d and paths c0-c1-c2, e0-e1-e2, the paths' ends tied to the
    # anchors of d and b.  Swapping those anchors sends b onto d, past the
    # path that d's anchors share, which would take b inside it
    names, edges = k5("a")
    ties = ["b a0", "b a1", "d a3", "d a4", "c0 c1", "c1 c2", "e0 e1", "e1 e2"] + [
        f"{end} {x}" for end, x in itertools.product(("c0", "c2"), ("a3", "a4"))] + [
        f"{end} {x}" for end, x in itertools.product(("e0", "e2"), ("a0", "a1"))]
    b = Graph(2, names + "b d c0 c1 c2 e0 e1 e2".split(), edges + [t.split() for t in ties])
    block = frozenset(names)
    fq = {v: {"a0": "a3", "a3": "a0", "a1": "a4", "a4": "a1"}.get(v, v) for v in block}
    got = abinitio.extension._extend_map_over_satellites(b, block, {}, fq, [], 0, [])
    assert got == ref_extend_map_over_satellites(b, block, {}, fq, [], 0, []) == {
        **fq, "b": "d", "d": "b", "c0": "e0", "c1": "e1", "c2": "e2",
        "e0": "c0", "e1": "c1", "e2": "c2"}


def test_matcher_sites_answer_as_the_direct_search(monkeypatch):
    # every call of the witness dedupe and of the satellite extension over
    # the corpus against copies of both as they ran on the direct search:
    # the same witnesses kept, the same bijections and the same cycles.  The
    # satellites' check of size and anchors passes every pair of components
    # the direct search matches, so it rejects no match unsearched
    dedupe = abinitio.zero_decomposition._dedupe_witnesses
    extend = abinitio.extension._extend_map_over_satellites
    seen: dict = {}  # (site, matched) -> calls of the direct search
    site = [None]

    def direct(*args, **kwargs):
        tau = ref_find_pattern_iso(*args, **kwargs)
        seen[site[0], tau is not None] = seen.get((site[0], tau is not None), 0) + 1
        return tau

    def checked_dedupe(g, witnesses):
        got = dedupe(g, witnesses)
        site[0] = "dedupe"
        assert got == ref_dedupe_witnesses(g, witnesses)
        return got

    def checked_extend(b, prev_verts, e, fq, log_cycles, map_index, stage_log):
        ref_log: list = []
        site[0] = "satellites"
        want = _outcome(ref_extend_map_over_satellites,
                        b, prev_verts, e, fq, ref_log, map_index, stage_log)
        got = _outcome(extend, b, prev_verts, e, fq, log_cycles, map_index, stage_log)
        assert got == want and log_cycles[len(log_cycles) - len(ref_log):] == ref_log
        sats = components(b, b.vertices - prev_verts)
        anchors = {s: frozenset().union(*(b.neighbors(v) for v in s)) & prev_verts
                   for s in sats}
        site[0] = "every pair"
        for s, t in itertools.product(sats, sats):
            if direct(b, s, [(x, fq[x]) for x in sorted(anchors[s])], b, t) is not None:
                assert len(s) == len(t) and anchors[t] == {fq[x] for x in anchors[s]}
        if isinstance(got, tuple):
            raise ConstructionFailed(got[1], stage_log=stage_log)
        return got

    monkeypatch.setattr(oracles, "ref_find_pattern_iso", direct)
    monkeypatch.setattr(abinitio.zero_decomposition, "_dedupe_witnesses", checked_dedupe)
    monkeypatch.setattr(abinitio.extension, "_extend_map_over_satellites", checked_extend)
    for _, p in _ep_corpus():
        ep_extend(p)
    assert seen == {("dedupe", False): 1474, ("dedupe", True): 11,
                    ("satellites", False): 810, ("satellites", True): 440,
                    ("every pair", False): 8340, ("every pair", True): 460}


def test_ep_extend_two_maps():
    h = double_block()
    rot_a = {f"a{i}": f"a{(i + 1) % 5}" for i in range(5)}
    p = EPProblem(h, (PartialIso.build(h, SWAP), PartialIso.build(h, rot_a)))
    cert = ep_extend(p)
    assert cert.b == h  # level 0, cycles only: nothing grows
    f0 = cert.automorphisms[0].as_dict()
    f1 = cert.automorphisms[1].as_dict()
    assert power(f0, 2) == {v: v for v in h.vertices}
    assert power(f1, 5) == {v: v for v in h.vertices}
    assert all(f1[b] == b for b in h.vertices if b.startswith("b"))
    assert cert.orbit.global_order == 10
    assert verify_certificate(p, cert).ok


def test_ep_extend_no_maps_and_empty_graph():
    g = single_block()
    cert = ep_extend(EPProblem(g, ()))
    assert cert.b == g and cert.automorphisms == ()
    assert verify_certificate(EPProblem(g, ()), cert).ok

    empty = Graph(2, [], [])
    cert = ep_extend(EPProblem(empty, ()))
    assert cert.b == empty
    assert verify_certificate(EPProblem(empty, ()), cert).ok


def test_certificate_json_roundtrip():
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    cert = ep_extend(p)
    d = cert.to_json_dict()
    again = EPCertificate.from_json_dict(d)
    assert again.b == cert.b
    assert again.automorphisms == cert.automorphisms
    assert canonical_json(again.to_json_dict()) == canonical_json(d)
    with pytest.raises(ValueError, match="lacks"):
        EPCertificate.from_json_dict({"problem": d["problem"]})


def tampered(cert_dict, mutate):
    d = EPCertificate.from_json_dict(cert_dict).to_json_dict()
    mutate(d)
    return EPCertificate.from_json_dict(d)


def test_verifier_rejects_tampering():
    h = double_block()
    p = EPProblem(h, (PartialIso.build(h, SWAP),))
    cert = ep_extend(p)
    good = cert.to_json_dict()
    assert verify_certificate(p, cert).ok

    def drop_edge(d):
        d["b"]["edges"] = d["b"]["edges"][1:]

    rep = verify_certificate(p, tampered(good, drop_edge))
    assert not rep.ok
    assert any("count" in x for x in rep.diagnostics)

    def swap_auto(d):
        pairs = d["automorphisms"][0]
        pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]

    rep = verify_certificate(p, tampered(good, swap_auto))
    assert not rep.ok
    assert any("automorphism 0" in x for x in rep.diagnostics)

    def drop_auto(d):
        d["automorphisms"] = []

    rep = verify_certificate(p, tampered(good, drop_auto))
    assert not rep.ok
    assert any("1 maps but 0" in x for x in rep.diagnostics)

    def cross_inclusion(d):
        inc = dict(tuple(x) for x in d["inclusion"])
        inc["a0"], inc["b0"] = inc["b0"], inc["a0"]
        d["inclusion"] = [[k, v] for k, v in sorted(inc.items())]

    rep = verify_certificate(p, tampered(good, cross_inclusion))
    assert not rep.ok
    assert any("not induced" in x for x in rep.diagnostics)


def test_verifier_orientation_matches_brute_force():
    rng = random.Random(2008)
    seen = set()
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(0, 7))]
        p = rng.choice([0.4, 0.7, 0.95])
        g = Graph(rng.choice([2, 3]), names,
                  [e for e in itertools.combinations(names, 2) if rng.random() < p])
        expect = brute_in_k0(g)
        assert _admits_bounded_orientation(g) == expect
        seen.add(expect)
    assert seen == {True, False}


def _corpus_certificate():
    """The first corpus problem with a map whose certificate grows the
    ambient, and that certificate, which verifies."""
    for _, p in _ep_corpus():
        cert = ep_extend(p)
        if p.maps and cert.b.vertices > p.a.vertices:
            assert verify_certificate(p, cert).ok and p.a.m == 2
            return p, cert
    raise AssertionError("no corpus certificate grows its ambient")


def _unchecked_embedding(source, target, pairs):
    """An Embedding built without its own checks, as an in-memory forgery
    could be: the verifier must not rely on them."""
    emb = object.__new__(Embedding)
    for name, value in (("source", source), ("target", target), ("pairs", tuple(pairs))):
        object.__setattr__(emb, name, value)
    return emb


def _replaced(record, **changes):
    """record rebuilt with the given fields changed."""
    return type(record)(**{**vars(record), **changes})


def _on_result(cert, b):
    """cert with result graph b, its inclusion and automorphisms moved onto
    b, each automorphism fixing the points b adds."""
    fixed = {v: v for v in b.vertices - cert.b.vertices}
    return _replaced(
        cert, b=b, inclusion=Embedding.build(cert.problem.a, b, cert.inclusion.as_dict()),
        automorphisms=tuple(Embedding.build(b, b, {**f.as_dict(), **fixed})
                            for f in cert.automorphisms))


def _forge_coefficient(p, cert):
    b = cert.b
    return _on_result(cert, Graph(3, b.vertices, b.edges)), (
        "coefficient mismatch: problem 2, result 3",
        f"result count is {len(b.vertices)}, expected 0")


def _forge_inclusion_source(p, cert):
    a = Graph(2, p.a.vertices, sorted(p.a.edges)[1:])
    return _replaced(cert, inclusion=Embedding.build(
        a, cert.b, cert.inclusion.as_dict())), ("inclusion source is not the problem graph",)


def _forge_inclusion_target(p, cert):
    b = Graph(2, cert.b.vertices, sorted(cert.b.edges)[1:])
    return _replaced(cert, inclusion=Embedding.build(
        p.a, b, cert.inclusion.as_dict())), ("inclusion target is not the result graph",)


def _forge_partial_inclusion(p, cert):
    a = p.a.induced(p.a.vertices - {max(p.a.vertices)})
    incl = {d: r for d, r in cert.inclusion.pairs if d in a.vertices}
    return _replaced(cert, inclusion=Embedding.build(a, cert.b, incl)), (
        "inclusion source is not the problem graph", "inclusion is not total on the problem graph")


def _forge_outside_k0(p, cert):
    # a K6 counts -3, and three pendant points tied to it bring it to 0
    clique = [f"zk{i}" for i in range(6)]
    edges = list(itertools.combinations(clique, 2)) + [(f"zp{i}", clique[i]) for i in range(3)]
    b = Graph(2, cert.b.vertices | set(clique) | {f"zp{i}" for i in range(3)},
              list(cert.b.edges) + edges)
    return _on_result(cert, b), ("result admits no bounded orientation: outside the class",)


def _forge_not_a_self_map(p, cert):
    # nor total on the result: only the skipped bijection check would say so
    part = cert.b.induced(cert.b.vertices - {max(cert.b.vertices)})
    f = {d: r for d, r in cert.automorphisms[0].pairs if d in part.vertices}
    autos = (Embedding.build(part, cert.b, f),) + cert.automorphisms[1:]
    return _replaced(cert, automorphisms=autos), (
        "automorphism 0 is not a self-map of the result",)


def _forge_not_a_bijection(p, cert):
    pairs = list(cert.automorphisms[0].pairs)
    pairs[0] = (pairs[0][0], pairs[1][1])
    autos = (_unchecked_embedding(cert.b, cert.b, pairs),) + cert.automorphisms[1:]
    return _replaced(cert, automorphisms=autos), (
        "automorphism 0 is not a vertex bijection",)


@pytest.mark.parametrize("forge", [
    _forge_coefficient, _forge_inclusion_source, _forge_inclusion_target,
    _forge_partial_inclusion, _forge_outside_k0, _forge_not_a_self_map, _forge_not_a_bijection,
], ids=lambda forge: forge.__name__[len("_forge_"):])
def test_verifier_names_each_forged_clause(forge):
    # one clause broken in a corpus certificate: its diagnostic, and no other
    p, cert = _corpus_certificate()
    forged, diagnostics = forge(p, cert)
    assert verify_certificate(p, forged) == abinitio.verifier.VerificationReport(
        False, diagnostics)


def _blocks_certificate(blocks: int, a_blocks: int) -> tuple:
    """A hand-built certificate on complete-5 blocks b0000, b0001, ...: the
    problem graph is the first a_blocks of them, b every block, the
    inclusion the identity, and the one map and its automorphism swap the
    first block's two least points."""
    def union(k):
        names = [[f"b{i:04d}v{j}" for j in range(5)] for i in range(k)]
        return Graph(2, [v for n in names for v in n],
                     [e for n in names for e in itertools.combinations(n, 2)])

    a, b = union(a_blocks), union(blocks)
    swap = {"b0000v0": "b0000v1", "b0000v1": "b0000v0"}
    f = {v: swap.get(v, v) for v in b.vertices}
    p = EPProblem(a, (PartialIso.build(a, swap),))
    return p, EPCertificate(p, b, Embedding.build(a, b, {v: v for v in a.vertices}),
                            (Embedding.build(b, b, f),), None, {}, ())


def test_verifier_names_a_forged_clause_at_scale_as_the_pair_scan_does():
    # 5,000 points: the verifier compares edge sets, and only on a mismatch
    # scans pairs for the least flipping one, so it names what the scan of
    # every pair named; the forgeries flip at the first pairs scanned, so
    # the reference scan stops there too
    p, cert = _blocks_certificate(1000, 1)
    assert verify_certificate(p, cert).ok
    # an automorphism moving b0000v0 onto b0001v0, a point of another block
    f = dict(cert.automorphisms[0].pairs)
    f.update({"b0000v0": "b0001v0", "b0001v0": "b0000v1", "b0000v1": "b0000v0"})
    forged = _replaced(cert, automorphisms=(Embedding.build(cert.b, cert.b, f),))
    report = verify_certificate(p, forged)
    assert report == ref_verify_certificate(p, forged)
    assert report.diagnostics == (
        "automorphism 0 is not an automorphism: edge status flips at ('b0000v0', 'b0000v1')",
        "automorphism 0 does not extend its map at b0000v0")
    # an inclusion of 5,000 points sending b0000v0 into another block, with
    # no map, so that the reference scans no automorphism's pairs
    p, cert = _blocks_certificate(1000, 1000)
    p = EPProblem(p.a, ())
    incl = cert.inclusion.as_dict()
    incl.update({"b0000v0": "b0001v0", "b0001v0": "b0000v0"})
    forged = _replaced(cert, problem=p, automorphisms=(),
                       inclusion=Embedding.build(p.a, cert.b, incl))
    report = verify_certificate(p, forged)
    assert report == ref_verify_certificate(p, forged)
    assert report.diagnostics == ("inclusion is not induced at (b0000v0, b0000v1)",)
    # the identity from b less one edge: every edge goes to an edge, and the
    # image holds one edge more than the problem graph
    a = Graph(2, p.a.vertices, p.a.edges - {("b0000v0", "b0000v1")})
    p = EPProblem(a, ())
    forged = _replaced(forged, problem=p, inclusion=Embedding.build(
        a, cert.b, {v: v for v in a.vertices}))
    report = verify_certificate(p, forged)
    assert report == ref_verify_certificate(p, forged)
    assert report.diagnostics == ("inclusion is not induced at (b0000v0, b0000v1)",)


def _relieved_second(g) -> tuple:
    """_admits_bounded_orientation(g), and how many edges it gave their
    second endpoint after relieving it, the first being stuck: the lines
    run just after the elif naming that relief, counted by a tracer."""
    lines, first = inspect.getsourcelines(_admits_bounded_orientation)
    target = first + 1 + next(i for i, text in enumerate(lines) if "elif relieve(v):" in text)
    code, hits = _admits_bounded_orientation.__code__, []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(1)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        admits = _admits_bounded_orientation(g)
    finally:
        sys.settrace(previous)
    return admits, len(hits)


def test_verifier_orientation_relieving_the_second_endpoint_matches_brute_force():
    # zero-count graphs under shuffled names, every other one with an edge
    # more: some edges find their first endpoint's region full and must
    # relieve the second, in members of K0 and outside
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for k in range(600):
        g = random_zero_graph(rng, 12)
        names = [f"r{i:02d}" for i in range(len(g.vertices))]
        rng.shuffle(names)
        ren = dict(zip(g.sorted_vertices(), names))
        edges = [(ren[u], ren[v]) for u, v in g.edges]
        missing = [e for e in itertools.combinations(sorted(names), 2)
                   if e not in edges and e[::-1] not in edges]
        g = Graph(2, names, edges + rng.sample(missing, min(k % 2, len(missing))))
        admits, relieved = _relieved_second(g)
        if relieved:
            assert admits == brute_in_k0(g)
            seen[admits] += 1
    assert seen[True] >= 5 and seen[False] >= 10


def test_level_stages_decompose_the_ambient_when_not_given_it():
    stages = 0
    for _, p in _ep_corpus()[::5]:
        decomp = decompose(p.a)
        b, maps, _ = build_base_stage(p, orbit_orders(p), decomp)
        for q in range(max((c.level for c in decomp.components), default=0)):
            given = build_level_stage(b, p, q, maps, decomp=decomp)
            assert build_level_stage(b, p, q, maps) == given
            b, maps, _ = given
            stages += 1
    assert stages >= 4


def test_stage_log_replays_uniformity():
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    cert = ep_extend(p)
    b1 = Graph.from_json_dict(cert.stage_log[1]["graph"])
    assert b1 == cert.b
    rows = uniform_algebraicity_report(b1, 1)
    assert rows and all(uniform for (_, _, uniform) in rows)


def test_decomposition_reused_by_stages():
    g = w_graph()
    d = decompose(g)
    assert d.components[0].level == 1
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    b0, _, log0 = build_base_stage(p, orbit_orders(p), d)
    assert frozenset(b0.vertices) == d.components[0].layers[0]
    assert log0["stage"] == 0 and log0["kind"] == "base"


def test_two_maps_at_level_two_count_each_class_once(monkeypatch):
    # K5 with w on a0, a1 and z on w, a2: the corpus problem level2/two-maps
    base = w_graph()
    g = Graph(2, sorted(base.vertices) + ["z"], list(base.edges) + [("z", "w"), ("z", "a2")])
    ident = {v: v for v in g.vertices}
    p = EPProblem(g, (PartialIso.build(g, {**ident, "a3": "a4", "a4": "a3"}),
                      PartialIso.build(g, ident)))
    searches, own = [], []
    direct = abinitio.graph._tally
    multiplicity = abinitio.extension._pattern_multiplicity

    def counted(c, layout, image, table, is_strong):
        searches.append((image, len(table)))
        return direct(c, layout, image, table, is_strong)

    def apart(*args):
        # a row's self-matching count searches its pattern, not a stage graph
        before = len(searches)
        t = multiplicity(*args)
        own.extend(searches[before:])
        del searches[before:]
        return t

    monkeypatch.setattr(abinitio.graph, "_tally", counted)
    monkeypatch.setattr(abinitio.extension, "_pattern_multiplicity", apart)
    assert verify_certificate(p, ep_extend(p)).ok
    # one attachment search per image set of a base, per row and pass; one
    # pinned count per (image set, contact images) key made 1,250 searches
    assert 0 < len(searches) <= 343
    assert len({image for image, _ in searches}) <= 11
    assert sum(classes for _, classes in searches) > len(searches)
    # and a row's self-matchings come from its pattern's stabilizer chain
    assert own == []


def test_pattern_multiplicity_matches_the_pinned_count(monkeypatch):
    """t, the generator's pointwise stabilizer read off a stabilizer chain,
    equals the pinned self-count it replaced and the automorphisms listed by
    brute force: on every row of the corpus and every block of its base
    stages (with no generator, where the block's unpinned plan gives the
    group order the base stage reads), and on random patterns and
    generators, where it is often above 1."""
    rows, blocks = [], set()
    multiplicity = abinitio.extension._pattern_multiplicity
    block_counts = abinitio.extension._block_counts
    monkeypatch.setattr(abinitio.extension, "_pattern_multiplicity",
                        lambda *args: rows.append(args) or multiplicity(*args))
    monkeypatch.setattr(abinitio.extension, "_block_counts",
                        lambda a, bls: blocks.update((a, bl) for bl in bls) or block_counts(a, bls))
    for _, p in _ep_corpus():
        ep_extend(p)
    corpus = len(rows)
    rows += [(a, frozenset(), bl) for a, bl in blocks]
    rng = random.Random(1901)
    for _ in range(150):
        names = [f"v{i}" for i in range(rng.randint(1, 7))]
        g = Graph(2, names, [e for e in itertools.combinations(names, 2)
                             if rng.random() < rng.random()])
        gen = frozenset(rng.sample(names, rng.randint(0, len(names) - 1)))
        rows.append((g, gen, g.vertices - gen))
    above = 0
    for b, gen, att in rows:
        pattern, fixed = b.induced(gen | att), {x: x for x in gen}
        t = multiplicity(b, gen, att)
        assert t == EmbeddingPlan(pattern, pinned=gen).count_each(pattern, [fixed])[0]
        assert t == len(brute_automorphisms(pattern, fixed))
        if not gen:
            assert t == _shape(EmbeddingPlan(pattern).adjacent)[1]
        above += t > 1
    assert (corpus, len(blocks)) == (36, 19) and above >= 50


def _sweep_passes(monkeypatch, tallies=()) -> list:
    """Every _report_rows call of one ep_extend run over the corpus, as
    (graph, level, max_set, rows, how much tallies grew during the call)."""
    passes = []
    direct = abinitio.extension._report_rows

    def recorded(g, i, max_set, memo):
        before = len(tallies)
        rows = direct(g, i, max_set, memo)
        passes.append((g, i, max_set, rows, len(tallies) - before))
        return rows

    monkeypatch.setattr(abinitio.extension, "_report_rows", recorded)
    for _, p in _ep_corpus():
        ep_extend(p)
    return passes


def _count_set(tables) -> set:
    return {n for table in tables.values() for n in table.values()}


def test_rows_by_type_match_every_row_counted(monkeypatch):
    # every sweep pass of the corpus: the rows, and the counts each row
    # sees, against the reference copy that counts every row and against
    # the public report, which lists every placement and shares no tables
    passes = _sweep_passes(monkeypatch)
    assert len(passes) == 60 and sum(len(rows) for _, _, _, rows, _ in passes) == 516
    for g, i, max_set, rows, _ in passes:
        want = ref_report_rows(g, i, max_set, {})
        assert [w for w, _ in rows] == [w for w, _ in want]
        assert [set(seen) for _, seen in rows] == [_count_set(t) for _, t in want]
        report = uniform_algebraicity_report(g, i, max_set)
        assert [w for w, _ in rows] == [w for w, _, _ in report]
        assert [set(seen) for _, seen in rows] == [set(counts) for _, counts, _ in report]


def _types(g, witnesses) -> int:
    """The number of row types among witnesses, by networkx's VF2 with the
    base points marked: two rows share a type when an isomorphism of their
    patterns maps base onto base."""
    import networkx as nx
    reps: list = []
    for w in witnesses:
        pattern = nx.Graph()
        both = w.base | w.zero_minimal_set
        pattern.add_nodes_from((v, {"base": v in w.base}) for v in both)
        pattern.add_edges_from((u, v) for u, v in g.induced(both).edges)
        if not any(nx.is_isomorphic(pattern, r, node_match=lambda x, y: x == y) for r in reps):
            reps.append(pattern)
    return len(reps)


def test_sweep_passes_tally_once_per_row_type(monkeypatch):
    pytest.importorskip("networkx")
    tallies = []
    direct = EmbeddingPlan.tally
    monkeypatch.setattr(EmbeddingPlan, "tally",
                        lambda plan, *args: tallies.append(plan) or direct(plan, *args))
    per_pass = [(len(rows), _types(g, [w for w, _ in rows]), tallied)
                for g, _, _, rows, tallied in _sweep_passes(monkeypatch, tallies)]
    assert len(per_pass) == 60
    assert all(tallied == types for _, types, tallied in per_pass[0::2])
    # the second pass of each stage confirms the rows after the copies.  It
    # reads the tables the last evening-out filled on its graph, so it
    # tallies only the types that evening-out did not count there.  This
    # pins how the work is shared, not an output
    confirming = per_pass[1::2]
    assert all(tallied <= types for _, types, tallied in confirming)
    assert sum(rows for rows, _, _ in confirming) == 480
    assert sum(tallied for _, _, tallied in confirming) == 2


def _corpus_digests() -> tuple:
    """The benchmark's digest of the 51 corpus certificates, sha256 over each
    label and its certificate's canonical JSON in corpus order, and the
    stored one."""
    digest = hashlib.sha256()
    for label, p in _ep_corpus():
        doc = json.dumps(ep_extend(p).to_json_dict(), sort_keys=True, separators=(",", ":"))
        digest.update(label.encode() + b"\n" + doc.encode() + b"\n")
    stored = Path(__file__).resolve().parent.parent / "perfbench" / "corpus_certificates.sha256"
    return digest.hexdigest(), stored.read_text().split()[0]


def test_corpus_certificates_keep_their_digest():
    digest, stored = _corpus_digests()
    assert digest == stored


def test_corpus_certificates_do_not_depend_on_the_order_of_the_pin_images(monkeypatch):
    # a level stage groups its placements by image and takes minima, and a
    # report row keeps the set of its counts, so no certificate depends on
    # the order pin_images lists the restrictions in: reversed, the digest
    # holds.  The stage caches are emptied before each call (unshared_stages)
    listed, calls = EmbeddingPlan.pin_images, []
    monkeypatch.setattr(EmbeddingPlan, "pin_images",
                        lambda plan: calls.append(plan) or listed(plan)[::-1])
    digest, stored = _corpus_digests()
    assert digest == stored
    assert sum(len(listed(plan)) > 1 for plan in calls) >= 30


def _evened(b, w, stage=1) -> tuple:
    """_uniformize_row and the reference copy that lists every placement,
    each from b on a row: (graph, nu) or the failure, and the copies
    logged."""
    log = {"stage": stage, "added": []}
    got = _outcome(abinitio.extension._uniformize_row, b, w, log, {})
    ref_log: list = []
    want = _outcome(ref_uniformize_row, b, w, ref_log)
    return got, log["added"], want, ref_log


def _mixes(g, w) -> bool:
    """Whether the strong placements of w's base with one generator image
    set see two counts, by listing them."""
    placements = [dict(p) for p in EmbeddingPlan(g.induced(w.base)).pairs(
        g, is_strong=abinitio.is_self_sufficient)]
    plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
    seen: dict = {}
    for f, n in zip(placements, plan.count_each(g, placements, abinitio.is_self_sufficient)):
        seen.setdefault(frozenset(f[x] for x in w.generator), set()).add(n)
    return any(len(counts) > 1 for counts in seen.values())


def _touches_only_its_generator(g, w) -> bool:
    # the base is self-sufficient and the attachment counts 0 over the
    # generator, so no edge joins the attachment to the rest of the base,
    # and minimality makes every generator point touch it
    plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
    return plan.touched == tuple(sorted(w.generator))


def test_rows_even_out_as_the_listing_did(monkeypatch):
    # every row a level stage evens out over the corpus, from the graph it
    # was evened out on, against the reference copy that lists and counts
    # every placement: the same graph, nu and logged copies
    direct = abinitio.extension._uniformize_row
    calls = []
    monkeypatch.setattr(abinitio.extension, "_uniformize_row",
                        lambda b, w, log, memo: calls.append((b, w, log["stage"]))
                        or direct(b, w, log, memo))
    for _, p in _ep_corpus():
        ep_extend(p)
    monkeypatch.undo()
    assert len(calls) == 36
    mixed = 0
    for b, w, stage in calls:
        got, added, want, ref_added = _evened(b, w, stage)
        assert got == want and added == ref_added
        assert _touches_only_its_generator(b, w)
        mixed += _mixes(b, w)
    # no corpus row has a generator image set seeing two counts
    assert mixed == 0


def _mixed_stage(rng) -> Graph:
    """A zero-count stage graph over one or two K5 blocks, m = 2: points on
    two block points, and triangles whose points take one edge each into a
    block, on one, two or three of its points.  A triangle with two points
    on x and one on y is seen twice by a placement sending x, y onto those
    points and not at all by one swapping them: one generator image set,
    two counts."""
    names, edges = [], []
    for block in "ab"[:rng.randint(1, 2)]:
        points = [f"{block}{i}" for i in range(5)]
        names += points
        edges += itertools.combinations(points, 2)
        for k in range(rng.randint(0, 2)):
            names.append(f"{block}w{k}")
            edges += [(f"{block}w{k}", x) for x in rng.sample(points, 2)]
        for k in range(rng.randint(1, 3)):
            triangle = [f"{block}t{k}{j}" for j in range(3)]
            x, y, z = rng.sample(points, 3)
            names += triangle
            edges += itertools.combinations(triangle, 2)
            edges += zip(triangle, rng.choice([(x, y, z), (x, x, y), (x, x, x)]))
    return Graph(2, names, edges)


def test_rows_with_mixed_counts_even_out_as_the_listing_did():
    # seeded stage graphs where a generator image set sees two counts, so
    # a pass adds one copy for it and recounts
    rng = random.Random(2020)
    rows = mixed = 0
    for _ in range(30):
        g = _mixed_stage(rng)
        assert abinitio.is_in_k0(g) and 2 * len(g.vertices) == len(g.edges)
        for w, seen in _report_rows(g, 1, None, {}):
            got, added, want, ref_added = _evened(g, w)
            assert got == want and added == ref_added
            assert _touches_only_its_generator(g, w)
            rows += 1
            mixed += _mixes(g, w)
    assert rows == 137 and mixed == 29


def _stage_graph(rng) -> Graph:
    """A zero-count stage graph at level 1 or 2, m = 2: one or two K5
    blocks, each with up to two points on two of its points and a triangle
    as in _mixed_stage, and at level 2 points on a level-1 point and a block
    point.  A block with nothing on it is a carrier of level 0, whose level
    rises when copies of a row over the other block go onto it."""
    names, edges, level1 = [], [], []
    for block in "ab"[:rng.randint(1, 2)]:
        points = [f"{block}{i}" for i in range(5)]
        names += points
        edges += itertools.combinations(points, 2)
        for k in range(rng.randint(0, 2)):
            names.append(f"{block}w{k}")
            level1.append((f"{block}w{k}", points))
            edges += [(f"{block}w{k}", x) for x in rng.sample(points, 2)]
        if rng.random() < 0.5:
            triangle = [f"{block}t{j}" for j in range(3)]
            x, y, z = rng.sample(points, 3)
            names += triangle
            edges += itertools.combinations(triangle, 2)
            edges += zip(triangle, rng.choice([(x, y, z), (x, x, y), (x, x, x)]))
    for k, (w, points) in enumerate(level1):
        if rng.random() < 0.5:
            names.append(f"z{k}")
            edges += [(f"z{k}", w), (f"z{k}", rng.choice(points))]
    return Graph(2, names, edges)


def _swept(sweep, g, i) -> tuple:
    try:
        return sweep(g, i, None)
    except ConstructionFailed as exc:
        return "failed", str(exc), exc.stage_log


def test_carried_sweeps_match_the_sweep_recomputing_every_pass(monkeypatch):
    # seeded stage graphs at levels 1 and 2, with the pass budget as it is
    # and at 2, where twisted rows run out of passes; and three K5 blocks
    # with a point on two of them, whose row's copies go onto other pairs of
    # blocks and join their carriers, so that the next pass recomputes its
    # witnesses.  The grown graph, the rows, nu and the copies, or the
    # failure and its log, are those of the sweep recomputing every pass
    rng = random.Random(2727)
    names = [f"{b}{i}" for b in "abc" for i in range(5)]
    bridged = Graph(2, names + ["x"], [e for b in "abc" for e in itertools.combinations(
        [f"{b}{i}" for i in range(5)], 2)] + [("x", "a0"), ("x", "b0")])
    cases = [(_stage_graph(rng), None) for _ in range(40)] + [(bridged, None)]
    cases += [(g, 2) for g, _ in cases[:15]]
    seen = dict.fromkeys(["several uneven", "twisted", "level rises", "recomputed",
                          "failed", "level 2"], 0)
    uneven, rebuilds, passes = [], [0], [0]
    rows, witnesses = abinitio.extension._report_rows, abinitio.zero_decomposition._report_witnesses
    classes, evened = abinitio.extension._placement_classes, abinitio.extension._uniformize_row

    def reported(*args):
        out = rows(*args)
        uneven.append(sum(len(counts) > 1 for _, counts in out))
        return out

    def uniformized(b, w, log, memo):
        passes[0] = 0
        out = evened(b, w, log, memo)
        seen["twisted"] += passes[0] > 2  # copies went in on two passes
        return out

    monkeypatch.setattr(abinitio.extension, "_report_rows", reported)
    monkeypatch.setattr(abinitio.zero_decomposition, "_report_witnesses", lambda *args: (
        rebuilds.__setitem__(0, rebuilds[0] + 1) or witnesses(*args)))
    monkeypatch.setattr(abinitio.extension, "_placement_classes", lambda *args: (
        passes.__setitem__(0, passes[0] + 1) or classes(*args)))
    monkeypatch.setattr(abinitio.extension, "_uniformize_row", uniformized)
    for g, budget in cases:
        assert abinitio.is_in_k0(g) and 2 * len(g.vertices) == len(g.edges)
        levels = [c.level for c in decompose(g).components]
        for i in range(1, max(levels) + 1):
            with monkeypatch.context() as patched:
                if budget:
                    patched.setattr(abinitio.extension, "_MAX_SWEEP_PASSES", budget)
                uneven.clear()
                rebuilds[0] = 0
                got = _swept(abinitio.extension._even_out, g, i)
                counted = dict(seen)
                want = _swept(oracles.ref_even_out, g, i)
                seen.update(counted)
            assert got == want
            seen["level 2"] += i == 2
            seen["several uneven"] += max(uneven) > 1
            seen["recomputed"] += rebuilds[0] > 1
            if got[0] == "failed":
                seen["failed"] += 1
            else:
                seen["level rises"] += sum(c.level >= i for c in decompose(got[0]).components) \
                    > sum(level >= i for level in levels)
    assert seen == {"several uneven": 47, "twisted": 9, "level rises": 11, "recomputed": 1,
                    "failed": 4, "level 2": 33}


def test_row_touching_past_its_generator_fails_as_the_listing_did(monkeypatch):
    # no witness touches past its generator (_touches_only_its_generator);
    # a row made up to do so groups placements by the generator's images
    # while their classes fix the touched pins' too.  A copy glued along the
    # generator alone never matches such a row, so both copies run out of
    # passes after the same copies
    monkeypatch.setattr(abinitio.extension, "_MAX_SWEEP_PASSES", 3)
    g = w_graph()
    w = BaseWitness(frozenset(A5), frozenset(["a0"]), frozenset(["w"]), 1)
    got, added, want, ref_added = _evened(g, w)
    assert got[0] == want[0] == "failed"
    assert got[1].endswith("pass budget of 3 passes exhausted while evening out counts")
    assert added == ref_added and len(added) == 3 * 5


def _copying_problem() -> tuple:
    """The first corpus problem whose first level stage adds copies, and
    its certificate."""
    for _, p in _ep_corpus():
        cert = ep_extend(p)
        if len(cert.stage_log) > 1 and cert.stage_log[1]["added"]:
            return p, cert
    raise AssertionError("no corpus problem adds copies")


def test_level_stage_budgets_name_stage_row_and_budget(monkeypatch):
    p, cert = _copying_problem()
    first = cert.stage_log[1]["added"][0]
    row = (rf"stage 1: row with base {re.escape(str(first['base']))} and attachment "
           rf"{re.escape(str(first['attachment']))}")

    def failure(name, value, stub=None) -> ConstructionFailed:
        with monkeypatch.context() as patched:
            patched.setattr(abinitio.extension, name, value)
            if stub is not None:
                patched.setattr(abinitio.extension, "_uniformize_row", stub)
            with pytest.raises(ConstructionFailed) as failed:
                ep_extend(p)
        [log] = failed.value.stage_log
        assert log["stage"] == 1 and log["kind"] == "level"
        # the stage's log, with the copies added before the budget ran out
        assert log["added"] == cert.stage_log[1]["added"][:len(log["added"])]
        return failed.value

    exc = failure("_MAX_COPIES_PER_ROW", 0)
    assert re.fullmatch(
        row + ": copy budget of 0 copies exhausted while evening out counts", str(exc))
    assert exc.stage_log[0]["added"] == []
    exc = failure("_MAX_SWEEP_PASSES", 1)
    assert re.fullmatch(
        row + ": pass budget of 1 passes exhausted while evening out counts", str(exc))
    assert exc.stage_log[0]["added"]
    # rows that never even out exhaust the stage's passes
    exc = failure("_MAX_SWEEP_PASSES", 2, lambda b, w, log, memo: (b, 0))
    assert re.fullmatch(
        r"stage 1: uniformity not reached within the pass budget of 2 passes; the last "
        r"pass found \d+ uneven rows, first the " + row[len("stage 1: "):], str(exc))
    # with the budgets as they are, the output is the certificate
    assert canonical_json(ep_extend(p).to_json_dict()) == canonical_json(cert.to_json_dict())


def test_level_stage_lists_no_placement_and_builds_once_per_pass(monkeypatch):
    # over the corpus: no placement is listed inside a level stage, each
    # pass of a row that adds copies builds one graph, and the copies and
    # sweep passes stay those of the listing
    inside, builds, passes, sweeps = [False], [0], [0], [0]
    stage = abinitio.extension.build_level_stage
    classes = abinitio.extension._placement_classes
    row = abinitio.extension._uniformize_row
    rows = abinitio.extension._report_rows
    pairs = EmbeddingPlan.pairs
    adjoin = abinitio.extension.adjoin_copy

    def level_stage(*args, **kwargs):
        inside[0] = True
        try:
            return stage(*args, **kwargs)
        finally:
            inside[0] = False

    def listed(*args, **kwargs):
        if inside[0]:
            raise AssertionError("a level stage listed placements")
        return pairs(*args, **kwargs)

    def evened(b, w, log, memo):
        builds[0] = passes[0] = 0
        out = row(b, w, log, memo)
        assert builds[0] == passes[0] - 1  # the last pass confirms
        return out

    monkeypatch.setattr(abinitio.extension, "build_level_stage", level_stage)
    monkeypatch.setattr(EmbeddingPlan, "pairs", listed)
    monkeypatch.setattr(abinitio.extension, "_uniformize_row", evened)
    monkeypatch.setattr(abinitio.extension, "_placement_classes",
                        lambda *args: passes.__setitem__(0, passes[0] + 1) or classes(*args))
    monkeypatch.setattr(abinitio.extension, "_report_rows",
                        lambda *args: sweeps.__setitem__(0, sweeps[0] + 1) or rows(*args))
    monkeypatch.setattr(abinitio.extension, "adjoin_copy",
                        lambda *args: builds.__setitem__(0, builds[0] + 1) or adjoin(*args))
    copies = sum(len(lg["added"]) for _, p in _ep_corpus() for lg in ep_extend(p).stage_log[1:])
    assert copies == 453 and sweeps[0] == 60


def _swap(*pairs) -> dict:
    """The map sending block x's points onto block y's, for each (x, y)."""
    return {f"{x}{i}": f"{y}{i}" for x, y in pairs for i in range(5)}


def _blocks(letters: str) -> tuple:
    """The names and edges of one K5 block per letter."""
    return [v for x in letters for v in k5(x)[0]], [e for x in letters for e in k5(x)[1]]


def _named_like_a_copy(point: str) -> EPProblem:
    """K5 blocks a, b, c, d and a point on c0, c1 named as the base stage
    names a block copy, "a0~1" for the copies closing the chain a -> b."""
    names, edges = _blocks("abcd")
    g = Graph(2, names + [point], edges + [(point, "c0"), (point, "c1")])
    return EPProblem(g, (PartialIso.build(g, _swap("ab", "cd", "dc")),))


def _two_layers(top: str) -> EPProblem:
    """K5 blocks c and d swapped, w on c0, c1 at level 1 and a point on w
    and c2 at level 2, named as the level-1 sweep names w's copies when
    top is "w~1"."""
    names, edges = _blocks("cd")
    g = Graph(2, names + ["w", top],
              edges + [("w", "c0"), ("w", "c1"), (top, "w"), (top, "c2")])
    return EPProblem(g, (PartialIso.build(g, _swap("cd", "dc")),))


@pytest.mark.parametrize("problem, other, taken", [
    (_named_like_a_copy, "w", "a0~1"), (_two_layers, "v", "w~1")], ids=["base", "level"])
def test_copies_are_named_away_from_ambient_points_of_later_layers(problem, other, taken):
    # a copy named after a point of a later layer would merge with it when
    # that layer comes in: with the point named as a copy would be, or not,
    # the construction goes through and verifies
    for p in (problem(taken), problem(other)):
        cert = ep_extend(p)
        assert verify_certificate(p, cert).ok and len(cert.b.vertices) == 90
        assert cert.b.induced(p.a.vertices) == p.a


def fan_graph():
    # K5 and one point on each pair of it: every placement sees one copy
    block = [f"a{i}" for i in range(5)]
    spokes = [(f"w{i}{j}", f"a{i}", f"a{j}") for i, j in itertools.combinations(range(5), 2)]
    return Graph(2, block + [w for w, _, _ in spokes],
                 list(itertools.combinations(block, 2))
                 + [e for w, x, y in spokes for e in ((w, x), (w, y))])


@pytest.mark.parametrize("name, value, message", [
    ("_check_automorphism", False, "map 0 is not an automorphism"),
    ("_partial_permutation_parts", ([], [], [frozenset(IDA)]),
     "map 0 does not extend its input on the blocks"),
    ("delta", 1, "the stage graph does not count 0"),
    ("is_in_k0", False, "the stage graph is not hereditarily nonnegative"),
])
def test_base_stage_invariants_survive_without_asserts(monkeypatch, name, value, message):
    g = w_graph()
    p = EPProblem(g, (PartialIso.build(g, ROT),))
    orders, decomp = orbit_orders(p), decompose(g)
    monkeypatch.setattr(abinitio.extension, name, lambda *args: value)
    with pytest.raises(ConstructionFailed, match=f"stage 0: {message}") as failed:
        build_base_stage(p, orders, decomp)
    assert [log["stage"] for log in failed.value.stage_log] == [0]


@pytest.mark.parametrize("name, value, message", [
    ("delta_rel", 1, "the added layer does not count 0 over the previous stage"),
    ("delta", 1, "the stage graph does not count 0"),
    ("is_in_k0", False, "the stage graph is not hereditarily nonnegative"),
    # only the previous stage's set is off: the stage graph still counts 0
    pytest.param("delta", lambda g, s: int(s != g.vertices),
                 "the previous stage is not self-sufficient in this one", id="delta-of-prev"),
    ("_check_automorphism", False, "map 0 is not an automorphism"),
])
def test_level_stage_invariants_survive_without_asserts(monkeypatch, name, value, message):
    # the fan is uniform as it stands, so the level stage adds no copy and
    # asks the patched names only for its invariants
    g = fan_graph()
    p = EPProblem(g, (PartialIso.build(g, {v: v for v in g.vertices}),))
    decomp = decompose(g)
    b0, maps, _ = build_base_stage(p, orbit_orders(p), decomp)
    monkeypatch.setattr(abinitio.extension, name,
                        value if callable(value) else lambda *args: value)
    with pytest.raises(ConstructionFailed, match=f"stage 1: {message}") as failed:
        build_level_stage(b0, p, 0, maps, decomp=decomp)
    assert [log["stage"] for log in failed.value.stage_log] == [1]


def _blocks_replaced(*blocks):
    """A decomposition whose minimally closed sets are the given blocks."""
    def tamper(monkeypatch):
        real = abinitio.extension.decompose
        monkeypatch.setattr(abinitio.extension, "decompose", lambda g, **kw: _replaced(
            real(g, **kw), minimally_closed=tuple(map(frozenset, blocks))))
    return tamper


def _stage_replaced(b, fmap):
    """A base stage that returns b and fmap in place of what it built."""
    def tamper(monkeypatch):
        real = abinitio.extension.build_base_stage
        monkeypatch.setattr(abinitio.extension, "build_base_stage",
                            lambda *args: (b, [fmap], real(*args)[2]))
    return tamper


A5 = [f"a{i}" for i in range(5)]
K5_LESS_ONE = Graph(2, A5, [e for e in itertools.combinations(A5, 2) if e != ("a0", "a1")])


@pytest.mark.parametrize("graph, tamper, message", [
    (w_graph, _blocks_replaced(A5 + ["w"]), r"block \[.*'w'\] straddles the domain"),
    (single_block, _blocks_replaced(A5[:4]), r"block \['a0', .*'a3'\] maps onto a non-block"),
    (single_block, _stage_replaced(K5_LESS_ONE, ROT),
     "the stage graph does not induce the ambient on its points"),
    (single_block, _stage_replaced(single_block(), IDA), "map 0 is not extended"),
], ids=["straddle", "non-block", "induced", "extended"])
def test_ep_extend_invariants_survive_without_asserts(monkeypatch, graph, tamper, message):
    # one block has no level above it, so stage 0 is the last; the w graph
    # fails in stage 0, before its level stage
    g = graph()
    tamper(monkeypatch)
    with pytest.raises(ConstructionFailed, match=f"stage 0: {message}") as failed:
        ep_extend(EPProblem(g, (PartialIso.build(g, ROT),)))
    assert [log["stage"] for log in failed.value.stage_log] == [0]


@pytest.mark.parametrize("t", [2])
def test_row_invariants_survive_without_asserts(monkeypatch, t):
    # the true multiplicity is 1 and the deficit 1: a contribution that does
    # not divide the deficit must fail by name
    monkeypatch.setattr(abinitio.extension, "_pattern_multiplicity", lambda *args: t)
    g = w_graph()
    with pytest.raises(ConstructionFailed, match=r"row with base \['a0'"):
        ep_extend(EPProblem(g, (PartialIso.build(g, ROT),)))
