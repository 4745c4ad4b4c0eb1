import ast
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import abinitio
from abinitio import (
    ConstructionFailed,
    Graph,
    OutsideK0,
    base_attachment_pairs,
    closure,
    decompose,
    delta,
    delta_rel,
    dimension,
    geometric_closure_bounded,
    is_in_k0,
    is_self_sufficient,
    orientation_witness,
    strong_embeddings,
)
from abinitio.graph import normalize_edge
from abinitio.predimension import (
    ClosureResult, _closure_set, _collect, _feasible, _Index, _last_index, _orient, _orientation,
    _peel, _rooted, _stored_orientation)
from abinitio.zero_decomposition import _decomposition
from builders import plant_clique, random_zero_graph, tight_graph
from oracles import (
    brute_closed,
    brute_closure,
    brute_delta,
    brute_dimension,
    brute_in_k0,
    ref_bounded_orientation,
    ref_closure,
    ref_closure_chain,
    ref_dimension,
    ref_geometric_closure_bounded,
    ref_orientation,
    ref_orientation_witness,
    ref_rooted_load,
)


ROOT = Path(__file__).resolve().parents[1]


def _env(**extra) -> dict:
    """This environment with the package sources first on the path."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def random_graph(rng, n, m=2, p=0.5, prefix="v"):
    names = [f"{prefix}{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
    return Graph(m, names, edges)


def k_complete(n, m=2, prefix="v"):
    names = [f"{prefix}{i}" for i in range(n)]
    return Graph(m, names, itertools.combinations(names, 2))


def test_delta_matches_direct_count():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8), m=rng.choice([2, 3]), p=rng.random())
        s = frozenset(v for v in g.vertices if rng.random() < 0.6)
        assert delta(g, s) == brute_delta(g, s)


def test_delta_rel_is_difference_of_counts():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), p=0.5)
        verts = g.sorted_vertices()
        cut = rng.randint(1, len(verts) - 1)
        b, a = frozenset(verts[:cut]), frozenset(verts[cut:])
        assert delta_rel(g, b, a) == delta(g, a | b) - delta(g, a)
    with pytest.raises(ValueError):
        delta_rel(g, [verts[0]], [verts[0]])


def test_k0_membership_examples():
    assert is_in_k0(k_complete(5))          # 2*5 - 10 = 0
    assert not is_in_k0(k_complete(6))      # 2*6 - 15 < 0
    assert is_in_k0(k_complete(6, m=3))
    assert is_in_k0(Graph(2, [], []))


def test_k0_fast_path_agrees_with_subset_scan():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 7), m=rng.choice([2, 3]), p=rng.random())
        assert is_in_k0(g) == brute_in_k0(g)


def test_orientation_witness_is_valid():
    rng = random.Random(14)
    seen = 0
    while seen < 30:
        g = random_graph(rng, rng.randint(1, 8), p=0.5)
        if not is_in_k0(g):
            continue
        seen += 1
        w = orientation_witness(g)
        outdeg = {}
        covered = set()
        for origin, other in w.orientation:
            assert g.has_edge(origin, other)
            outdeg[origin] = outdeg.get(origin, 0) + 1
            covered.add(tuple(sorted((origin, other))))
        assert covered == set(g.sorted_edges())
        assert all(d <= g.m for d in outdeg.values())
        assert w.max_outdegree == max(outdeg.values(), default=0)
    with pytest.raises(OutsideK0):
        orientation_witness(k_complete(6))


def named_set(err: OutsideK0) -> frozenset:
    """The violating set an orientation witness's error names."""
    return frozenset(ast.literal_eval(str(err).split("violating set ", 1)[1]))


def two_k6_and_a_path() -> Graph:
    """Two disjoint K6s, a0..a5 and b0..b5, and the path a0-p0-p1."""
    k6s = disjoint_cliques(2, 6, 6)
    return Graph(2, [*k6s.vertices, "p0", "p1"], [*k6s.edges, ("a0", "p0"), ("p0", "p1")])


def padded(g: Graph) -> Graph:
    """g plus just enough isolated points for m per point to cover its edges."""
    pad = [f"pad{i}" for i in range(-(-(len(g.edges) - g.m * len(g.vertices)) // g.m))]
    return Graph(g.m, list(g.vertices) + pad, g.edges)


def test_a_witness_over_m_edges_per_point_names_the_peels_core_unsearched(monkeypatch):
    """With more than m edges per point the whole graph counts below 0: the
    witness fails with no search, naming the points the peel leaves, which
    count at most what the whole graph does."""
    def searched(*args):
        raise AssertionError("the name-ordered search ran")

    monkeypatch.setattr(abinitio.predimension, "_orient", searched)
    monkeypatch.setattr(abinitio.predimension, "_Index", searched)
    rng = random.Random(39)
    graphs = [g for m in (2, 3) for g in (random_graph(rng, rng.randint(4, 14), m=m,
                                                        p=rng.uniform(0.3, 1)) for _ in range(100))
              if g.m * len(g.vertices) < len(g.edges)]
    assert sum(g.m == 2 for g in graphs) >= 30 and sum(g.m == 3 for g in graphs) >= 20
    for n in (100, 300, 600, 1000):
        g = tight_graph(rng, n, m=2, window=rng.randint(6, 24), prefix=f"t{n}_")
        graphs.append(plant_clique(rng, g, prefix=f"t{n}_x"))
    graphs.append(two_k6_and_a_path())
    for g in graphs:
        with pytest.raises(OutsideK0) as err:
            orientation_witness(g)
        core = named_set(err.value)
        assert core == g.vertices.difference(_peel(g, frozenset())[0])
        assert delta(g, core) <= delta(g, g.vertices) < 0


def test_the_peels_core_can_differ_from_where_the_search_fails():
    """The one change the early failure makes: the search fails on the first
    K6 it meets, while the peel keeps both, all twelve points counting -6."""
    g = two_k6_and_a_path()
    with pytest.raises(OutsideK0) as before:
        ref_orientation_witness(g)
    with pytest.raises(OutsideK0) as after:
        orientation_witness(g)
    assert named_set(before.value) == {f"a{i}" for i in range(6)}
    assert named_set(after.value) == g.vertices - {"p0", "p1"}
    assert delta(g, named_set(after.value)) == -6 and delta(g, g.vertices) == -4


def test_a_witness_within_m_edges_per_point_matches_the_reference_copy():
    """A graph with at most m edges per point is searched as before: members
    get the same witness, and non-members the same message, byte for byte."""
    rng = random.Random(40)
    clique = [f"c{i}" for i in range(6)]
    graphs = [Graph(2, clique + ["x", "y", "z"], itertools.combinations(clique, 2))]
    for m in (2, 3):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), m=m, p=rng.random())
            graphs.append(padded(g) if g.m * len(g.vertices) < len(g.edges) else g)
    for n in (100, 400):
        g = tight_graph(rng, n, m=2, window=rng.randint(6, 24), prefix=f"t{n}_")
        graphs += [g, padded(plant_clique(rng, g, prefix=f"t{n}_x"))]
    failed = 0
    for g in graphs:
        assert g.m * len(g.vertices) >= len(g.edges)
        try:
            want = ref_orientation_witness(g)
        except OutsideK0 as err:
            with pytest.raises(OutsideK0) as got:
                orientation_witness(g)
            assert str(got.value) == str(err)
            failed += 1
        else:
            assert orientation_witness(g) == want
    assert 20 <= failed <= len(graphs) - 20


def test_self_sufficiency_against_subset_scan():
    rng = random.Random(15)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7), m=rng.choice([2, 3]), p=rng.random())
        s = frozenset(v for v in g.vertices if rng.random() < 0.5)
        assert is_self_sufficient(g, s) == brute_closed(g, s)


def test_whole_graph_and_empty_set_are_self_sufficient():
    g = k_complete(5)
    assert is_self_sufficient(g, g.vertices)
    assert is_self_sufficient(g, frozenset())


def test_closure_matches_brute_force():
    rng = random.Random(16)
    seen = 0
    while seen < 80:
        g = random_graph(rng, rng.randint(1, 7), p=rng.random() * 0.8)
        if not is_in_k0(g):
            continue
        seen += 1
        a = frozenset(v for v in g.vertices if rng.random() < 0.4)
        assert closure(g, a).closure == brute_closure(g, a)


def test_closure_chain_strictly_decreases_the_count():
    rng = random.Random(17)
    seen = 0
    while seen < 40:
        g = random_graph(rng, rng.randint(2, 8), p=0.6)
        if not is_in_k0(g):
            continue
        seen += 1
        a = frozenset(v for v in g.vertices if rng.random() < 0.3)
        res = closure(g, a)
        assert res.witness_chain[0] == a
        assert res.witness_chain[-1] == res.closure
        counts = [delta(g, step) for step in res.witness_chain]
        assert all(x > y for x, y in zip(counts, counts[1:]))
        assert is_self_sufficient(g, res.closure)


def test_closure_is_monotone_and_idempotent():
    rng = random.Random(18)
    seen = 0
    while seen < 30:
        g = random_graph(rng, rng.randint(2, 7), p=0.6)
        if not is_in_k0(g):
            continue
        seen += 1
        verts = g.sorted_vertices()
        a = frozenset(v for v in verts if rng.random() < 0.3)
        b = a | frozenset(v for v in verts if rng.random() < 0.3)
        ca, cb = closure(g, a).closure, closure(g, b).closure
        assert ca <= cb
        assert closure(g, ca).closure == ca


def test_single_vertex_in_k4_is_already_closed():
    # counts: point 2, pair 3, triple 3, whole 2; nothing goes below 2
    g = k_complete(4)
    assert closure(g, ["v0"]).closure == frozenset({"v0"})


def test_closure_absorbs_a_whole_block():
    g = k_complete(5)
    extra = Graph(2, list(g.vertices) + ["w"],
                  list(g.edges) + [("w", "v0"), ("w", "v1")])
    assert closure(extra, ["w"]).closure == extra.vertices


def test_closure_preconditions():
    with pytest.raises(OutsideK0):
        closure(k_complete(6), ["v0"])
    with pytest.raises(OutsideK0):
        dimension(k_complete(6), ["v0"])
    with pytest.raises(OutsideK0):
        geometric_closure_bounded(k_complete(6), ["v0"])
    names = [f"p{i:02d}" for i in range(30)]
    path = Graph(2, names, zip(names, names[1:]))
    assert closure(path, ["p00"]).closure == {"p00"}


def test_closure_and_dimension_above_24_vertices():
    """Disjoint unions of five small random members: closure and dimension
    split over the parts, so the brute-force answers per part add up."""
    rng = random.Random(29)

    def member(k, m):
        while True:
            h = random_graph(rng, rng.randint(1, 6), m=m, p=rng.uniform(0.3, 0.9),
                             prefix=f"c{k}_")
            if is_in_k0(h):
                return h

    checked = grew = 0
    while checked < 12:
        m = rng.choice([2, 3])
        parts = [member(k, m) for k in range(5)]
        if sum(len(h.vertices) for h in parts) < 25:
            continue
        union = Graph(m, [v for h in parts for v in h.vertices],
                      [e for h in parts for e in h.edges])
        a = frozenset(v for v in union.vertices if rng.random() < 0.3)
        expected = frozenset().union(*(brute_closure(h, a & h.vertices) for h in parts))
        assert closure(union, a).closure == expected
        assert dimension(union, a) == sum(brute_dimension(h, a & h.vertices) for h in parts)
        checked += 1
        grew += expected != a
    assert grew >= 3


def test_dimension_examples_and_brute_agreement():
    rng = random.Random(19)
    g = k_complete(5)
    assert dimension(g, g.vertices) == 0
    # a pair inside the block closes over the whole block
    assert dimension(g, ["v0", "v1"]) == 0
    assert dimension(k_complete(4), ["v0"]) == 2
    seen = 0
    while seen < 30:
        h = random_graph(rng, rng.randint(1, 7), p=0.5)
        if not is_in_k0(h):
            continue
        seen += 1
        a = frozenset(v for v in h.vertices if rng.random() < 0.5)
        assert dimension(h, a) == brute_dimension(h, a)


def test_geometric_closure_contains_tight_attachments():
    g = k_complete(5)
    h = Graph(2, list(g.vertices) + ["w"],
              list(g.edges) + [("w", "v0"), ("w", "v1")])
    # w adds two edges against weight two, so the block already spans it
    assert geometric_closure_bounded(h, g.vertices) == h.vertices
    assert "w" not in geometric_closure_bounded(
        Graph(2, list(g.vertices) + ["w"], list(g.edges) + [("w", "v0")]),
        g.vertices)


def test_strong_embeddings_filters_by_image_closure():
    five = k_complete(5, prefix="p")
    host = k_complete(5)
    assert len(strong_embeddings(five, host)) == 120
    point = Graph(2, ["p"], [])
    # inside the zero-count block no proper nonempty subset is closed
    assert len(strong_embeddings(point, host)) == 0
    assert len(strong_embeddings(point, k_complete(4))) == 4


def test_submodularity_of_the_count():
    rng = random.Random(20)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), m=rng.choice([2, 3]), p=rng.random())
        verts = g.sorted_vertices()
        a = frozenset(v for v in verts if rng.random() < 0.5)
        b = frozenset(v for v in verts if rng.random() < 0.5)
        assert delta(g, a | b) <= delta(g, a) + delta(g, b) - delta(g, a & b)


def kernel_orientation(g, verts, load):
    """The id-indexed search read back into the reference copy's terms:
    ({edge: origin}, None) or (None, violating set)."""
    ix = _Index(g)
    out, violating = _orient(ix, [v in verts for v in ix.names],
                             [load.get(v, 0) for v in ix.names])
    if out is None:
        return None, violating
    names = ix.names
    return {normalize_edge(names[x], names[y]): names[x]
            for x, ys in enumerate(out) for y in ys}, None


def test_fast_paths_match_the_reference_copies():
    """Witness chains, orientation witnesses and violating sets are output,
    so the incremental minimizer and the sorted-list orientation search must
    reproduce the reference copies exactly, on members and non-members."""
    rng = random.Random(31)
    graphs = [random_graph(rng, rng.randint(1, 9), m=m, p=rng.random())
              for m in (2, 3) for _ in range(60)]
    for n in (50, 120, 250, 400):
        g = tight_graph(rng, n, m=2, window=rng.randint(6, 24), prefix=f"t{n}_")
        graphs += [g, plant_clique(rng, g, prefix=f"t{n}_x")]
    grew = violated = 0
    for g in graphs:
        verts = g.sorted_vertices()
        assert (kernel_orientation(g, g.vertices, {})
                == ref_bounded_orientation(g, g.vertices, {}, g.m))
        for _ in range(3):
            a = frozenset(rng.sample(verts, min(len(verts), rng.randint(1, 3))))
            rest = g.vertices - a
            load = ref_rooted_load(g, rest, a)
            got = kernel_orientation(g, rest, load)
            assert got == ref_bounded_orientation(g, rest, load, g.m)
            violated += got[0] is None
        if not is_in_k0(g):
            continue
        assert orientation_witness(g).orientation == ref_orientation(g)
        for _ in range(4):
            a = frozenset(rng.sample(verts, min(len(verts), rng.randint(1, 3))))
            chain = closure(g, a).witness_chain
            assert chain == ref_closure_chain(g, a)
            grew += len(chain) > 2
    assert grew >= 10 and violated >= 20


def test_kernel_matches_the_reference_copies_at_scale():
    """Tight graphs of 600 to 1,000 shuffled names, with and without a planted
    clique: whole-graph and rooted searches, the orientation witness and the
    closure chains all match the reference copies."""
    rng = random.Random(33)
    grew = violated = 0
    for n in (600, 1000):
        g = tight_graph(rng, n, m=2, window=rng.randint(8, 24), prefix=f"s{n}_")
        assert orientation_witness(g).orientation == ref_orientation(g)
        for h in (g, plant_clique(rng, g, prefix=f"s{n}_x")):
            assert (kernel_orientation(h, h.vertices, {})
                    == ref_bounded_orientation(h, h.vertices, {}, h.m))
            for k in (1, 2, 3):
                a = frozenset(rng.sample(sorted(h.vertices), k))
                rest = h.vertices - a
                load = ref_rooted_load(h, rest, a)
                got = kernel_orientation(h, rest, load)
                assert got == ref_bounded_orientation(h, rest, load, h.m)
                violated += got[0] is None
                if h is g:
                    chain = closure(g, a).witness_chain
                    assert chain == ref_closure_chain(g, a)
                    grew += len(chain) > 2
    assert grew >= 2 and violated >= 4


def test_closure_chains_do_not_depend_on_the_hash_seed():
    """Six outside points each carry three edges into {a, b, c} at m = 2, so
    every round finds several overloaded points: it absorbs the one with the
    smallest name, under any hash seed."""
    script = (
        "from abinitio import Graph, closure\n"
        "xs = [f'x{i}' for i in range(6)]\n"
        "g = Graph(2, ['a', 'b', 'c'] + xs, [(x, c) for x in xs for c in 'abc'])\n"
        "print([sorted(s) for s in closure(g, ['a', 'b', 'c']).witness_chain])\n")
    chains = [subprocess.run([sys.executable, "-c", script], env=_env(PYTHONHASHSEED=seed),
                             capture_output=True, text=True, check=True).stdout
              for seed in ("0", "1")]
    xs = [f"x{i}" for i in range(6)]
    assert chains[0] == chains[1] == f"{[['a', 'b', 'c'] + xs[:k] for k in range(7)]}\n"


def test_a_closure_round_that_does_not_lower_the_count_fails_by_name(monkeypatch):
    # survives python -O: the check is a raise, not an assert
    g = k_complete(5)
    h = Graph(2, list(g.vertices) + ["w"], list(g.edges) + [("w", "v0"), ("w", "v1")])

    def one_vertex(g, base, region):
        step = frozenset([max(region)])
        return step, delta_rel(g, step, base)

    monkeypatch.setattr(abinitio.predimension, "_minimize_violator", one_vertex)
    with pytest.raises(ConstructionFailed, match=r"closure round 1: absorbing \['v4'\]") as info:
        closure(h, ["w"])
    assert info.value.stage_log == [["w"]]


def test_membership_is_checked_once_per_call(monkeypatch):
    rng = random.Random(32)
    zero = random_zero_graph(rng, 16)
    member = tight_graph(rng, 60, m=2, window=8)
    calls = []
    orientation = abinitio.predimension._orientation
    zero_ambient = abinitio.zero_decomposition._require_zero_ambient

    def counted_orientation(g, *error):
        calls.append(g)
        return orientation(g, *error)

    def counted_zero(g):
        calls.append(g)
        return zero_ambient(g)

    # every membership check runs here: the orientation the set answers
    # read, and decompose's, the orientation that yields its blocks
    monkeypatch.setattr(abinitio.predimension, "_orientation", counted_orientation)
    monkeypatch.setattr(abinitio.zero_decomposition, "_orientation", counted_orientation)
    monkeypatch.setattr(abinitio.zero_decomposition, "_require_zero_ambient", counted_zero)
    geometric_closure_bounded(member, member.sorted_vertices()[:2])
    assert calls == [member]
    calls.clear()
    decompose(zero)
    assert calls == [zero]
    # ten witnesses, one check: the first closure checks, the rest skip it
    block = [f"a{i}" for i in range(5)]
    spokes = [f"w{i}{j}" for i, j in itertools.combinations(range(5), 2)]
    fan = Graph(2, block + spokes, list(itertools.combinations(block, 2))
                + [(f"w{i}{j}", f"a{k}") for i, j in itertools.combinations(range(5), 2)
                   for k in (i, j)])
    calls.clear()
    assert len(base_attachment_pairs(fan, fan.vertices, frozenset(block), 1)) == 10
    assert calls == [fan]
    # a call that closes nothing checks nothing, so raises nothing outside K0
    k6 = Graph(2, [f"c{i}" for i in range(6)] + ["x"],
               itertools.combinations([f"c{i}" for i in range(6)], 2))
    calls.clear()
    assert base_attachment_pairs(k6, frozenset(["x"]), frozenset(), 1) == []
    assert calls == []


def counted_searches(monkeypatch) -> list:
    """Calls reaching the name-ordered search from here on, one entry each."""
    calls, search = [], abinitio.predimension._orient
    monkeypatch.setattr(abinitio.predimension, "_orient",
                        lambda *args: calls.append(args[0].g) or search(*args))
    return calls


def disjoint_cliques(m, *sizes):
    names, edges = [], []
    for i, k in enumerate(sizes):
        block = [f"{chr(97 + i)}{j}" for j in range(k)]
        names += block
        edges += itertools.combinations(block, 2)
    return Graph(m, names, edges)


# each point of the chain sends two edges back, so every point peels
CHAIN = Graph(2, [f"v{i}" for i in range(7)],
              [("v0", "v1")] + [(f"v{i}", f"v{i - j}") for i in range(2, 7) for j in (1, 2)])
# a K6 whose points each hold one anchor: the anchors peel, the K6 counts -3
ANCHORED_K6 = Graph(2, [f"c{i}" for i in range(6)] + [f"x{i}" for i in range(6)],
                    list(itertools.combinations([f"c{i}" for i in range(6)], 2))
                    + [(f"c{i}", f"x{i}") for i in range(6)])


@pytest.mark.parametrize("g, base, member, searched", [
    (CHAIN, (), True, False),
    (CHAIN, ("v0", "v1"), True, False),
    (ANCHORED_K6, (), False, False),
    (ANCHORED_K6, ("x0",), False, False),
    (disjoint_cliques(2, 4, 4), (), True, True),
    (disjoint_cliques(2, 4, 4), ("a0",), True, True),
    (disjoint_cliques(2, 6, 4, 4), (), False, True),
    (disjoint_cliques(2, 6, 4, 4), ("a0", "a1", "a2", "a3", "a4"), False, True),
], ids=["peeled", "peeled-over-base", "below-0", "below-0-over-base", "room-found",
        "room-found-over-base", "room-none", "room-none-over-base"])
def test_peeling_decides_before_the_search(monkeypatch, g, base, member, searched):
    """Every branch of _feasible: all points peel; the core counts below 0;
    the core has room and the search finds an orientation, or none."""
    base = frozenset(base)
    ix = _Index(g)
    whole = _orient(ix, *_rooted(ix, base))[0] is not None
    calls = counted_searches(monkeypatch)
    assert _feasible(g, base) == _feasible(g, base, _Index(g)) == member == whole
    assert calls == ([g, g] if searched else [])
    assert brute_closed(g, base) == member
    if not base:
        assert is_in_k0(g) == brute_in_k0(g) == member


def test_peeling_matches_the_search_and_the_subset_scans(monkeypatch):
    """Random graphs of up to 9 points and random bases: membership and
    self-sufficiency agree with the subset scans and with the search on the
    whole graph.  A core with room that no orientation fits is rare this
    small, so the branches counted are the other three."""
    rng = random.Random(34)
    calls = counted_searches(monkeypatch)
    seen = {}
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 9), m=rng.choice([2, 2, 3]), p=rng.random())
        base = frozenset(v for v in g.vertices if rng.random() < 0.3)
        ix = _Index(g)
        for b, oracle in ((base, brute_closed(g, base)), (frozenset(), brute_in_k0(g))):
            whole = _orient(ix, *_rooted(ix, b))[0] is not None
            del calls[:]
            assert _feasible(g, b, ix) == whole == oracle
            seen[whole, bool(calls)] = seen.get((whole, bool(calls)), 0) + 1
        assert is_self_sufficient(g, base) == brute_closed(g, base)
        assert is_in_k0(g) == brute_in_k0(g)
    assert min(seen.get(k, 0) for k in ((True, False), (True, True), (False, False))) >= 20


def test_membership_at_scale_needs_no_search(monkeypatch):
    """A 10^4-point tight graph peels away whole; with a K6 tied to six
    anchors it counts below 0.  Neither reaches the search."""
    rng = random.Random(35)
    g = tight_graph(rng, 10_000, m=2, window=32, prefix="k")
    h = plant_clique(rng, g, prefix="kx")
    calls = counted_searches(monkeypatch)
    assert is_in_k0(g)
    assert not is_in_k0(h)
    assert calls == []


def is_orientation(g, out) -> bool:
    """Whether out gives every edge of g one origin, each point at most m."""
    arcs = [(x, y) for x, ys in out.items() for y in ys]
    return (out.keys() == g.vertices and all(len(ys) <= g.m for ys in out.values())
            and len(arcs) == len(g.edges) and {normalize_edge(*e) for e in arcs} == g.edges)


def test_one_orientation_closes_like_the_rounds_and_the_subset_scan():
    """Random graphs of up to 9 points: _orientation finds one exactly on
    members, and collecting on it gives the closure of the rounds and of the
    subset scan, for the empty set, the whole graph and random sets, one
    orientation serving every set in turn."""
    rng = random.Random(36)
    members = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 9), m=rng.choice([2, 2, 3]), p=rng.random())
        if not brute_in_k0(g):
            with pytest.raises(OutsideK0, match="^no way$"):
                _orientation(g, "no way")
            continue
        out = _orientation(g, "no way")
        members += 1
        assert is_orientation(g, out)
        verts = g.sorted_vertices()
        for a in (frozenset(), g.vertices, frozenset(v for v in verts if rng.random() < 0.4),
                  frozenset(rng.sample(verts, min(len(verts), 1)))):
            assert _collect(g, out, a) == ref_closure(g, a).closure == brute_closure(g, a)
            assert is_orientation(g, out)
            assert _closure_set(g, a) == brute_closure(g, a)
    assert members >= 120


def test_gcl_adds_the_points_that_keep_the_dimension():
    """gcl(a) against brute_dimension of a with each point added, and
    dimension against brute_dimension, on random members of up to 8 points."""
    rng = random.Random(37)
    seen = grew = 0
    while seen < 200:
        g = random_graph(rng, rng.randint(0, 8), m=rng.choice([2, 2, 3]), p=rng.random())
        if not is_in_k0(g):
            continue
        seen += 1
        a = frozenset(v for v in g.sorted_vertices()
                      if rng.random() < rng.choice([0.0, 0.3, 0.6]))
        d = brute_dimension(g, a)
        assert dimension(g, a) == d
        want = frozenset(v for v in g.vertices if brute_dimension(g, a | {v}) == d)
        assert geometric_closure_bounded(g, a) == want
        grew += want != brute_closure(g, a)
    assert grew >= 15


def loose_graph(rng, n, prefix):
    """A tight graph with one edge in ten dropped: still in K0, with spare
    capacity scattered over it, so closures and gcl grow past a."""
    g = tight_graph(rng, n, m=2, window=16, prefix=prefix)
    return Graph(2, g.vertices, [e for e in g.sorted_edges() if rng.random() < 0.9])


def test_set_answers_match_the_reference_copies_at_scale():
    """Tight and loose graphs of 800 points: dimension equals the copy that
    ran closure rounds, and gcl, on the loose graph, the copy that ran one
    closure per point."""
    rng = random.Random(38)
    grew = 0
    for g in (tight_graph(rng, 800, m=2, window=24, prefix="u"), loose_graph(rng, 800, "l")):
        verts = g.sorted_vertices()
        for size in (1, 2, 3, 3, 5):
            a = frozenset(rng.sample(verts, size))
            assert dimension(g, a) == ref_dimension(g, a)
            grew += len(_closure_set(g, a)) > size
    grown = 0
    for v in rng.sample(verts, 2):
        a = g.neighbors(v) | {v}
        got = geometric_closure_bounded(g, a)
        assert got == ref_geometric_closure_bounded(g, a)
        grown += len(got) > len(a)
    assert grew >= 3 and grown >= 1


@pytest.mark.parametrize("g", [k_complete(6), k_complete(4)], ids=["outside-k0", "member"])
@pytest.mark.parametrize("a", [["v0"], ["zz"], []], ids=["known", "unknown", "empty"])
def test_set_answers_raise_as_the_reference_copies(g, a):
    """The same exception, with the same message, checked in the same order:
    dimension checks membership first, gcl the set first."""
    for got, want in ((dimension, ref_dimension),
                      (geometric_closure_bounded, ref_geometric_closure_bounded)):
        outcomes = []
        for f in (got, want):
            try:
                outcomes.append(("ok", f(g, a)))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def test_set_answers_do_not_depend_on_vertex_names():
    """The peel's order follows set order and the core's search name order,
    so renaming the points gives another orientation: the sets read off it
    are the same, renamed."""
    rng = random.Random(39)
    graphs = [loose_graph(rng, 200, "n"), disjoint_cliques(2, 4, 5, 3)]
    graphs += [g for g in (random_graph(rng, 8, p=0.6) for _ in range(40)) if is_in_k0(g)]
    for g in graphs:
        verts = g.sorted_vertices()
        names = [f"r{i:04d}" for i in range(len(verts))]
        rng.shuffle(names)
        ren = dict(zip(verts, names))
        h = Graph(g.m, names, [(ren[u], ren[v]) for u, v in g.edges])
        for _ in range(3):
            a = frozenset(rng.sample(verts, rng.randint(0, min(3, len(verts)))))
            b = frozenset(ren[v] for v in a)
            assert frozenset(ren[v] for v in _closure_set(g, a)) == _closure_set(h, b)
            assert frozenset(ren[v] for v in closure(g, a).closure) == closure(h, b).closure
            assert dimension(g, a) == dimension(h, b)
            assert (frozenset(ren[v] for v in geometric_closure_bounded(g, a))
                    == geometric_closure_bounded(h, b))


def test_one_gcl_call_builds_one_orientation(monkeypatch):
    """gcl, dimension and the closure of a closed set read one stored
    orientation of the graph: one core search, one _orient run, for all
    three calls, and the closure builds no index."""
    g = disjoint_cliques(2, 4, 4, 3)  # no point peels
    _stored_orientation.cache_clear()
    searches = counted_searches(monkeypatch)
    assert geometric_closure_bounded(g, ["a0", "a1"]) == frozenset(
        [f"a{i}" for i in range(4)])
    assert dimension(g, ["c0"]) == 2
    monkeypatch.setattr(abinitio.predimension, "_Index", None)
    block = frozenset(f"b{i}" for i in range(4))
    assert closure(g, block) == ClosureResult(block, (block,))
    assert searches == [g]
    assert _stored_orientation.cache_info()[:2] == (2, 1)  # hits, misses


def test_membership_fills_the_store_that_dimension_reads(monkeypatch):
    """is_in_k0 is the stored orientation's presence: it runs the one core
    search, and dimension after it reads the store and searches nothing.
    A graph outside K0 is stored too, as None: a K6 counts below 0, so
    no search decides it."""
    g = disjoint_cliques(2, 4, 4, 3)  # no point peels
    _stored_orientation.cache_clear()
    searches = counted_searches(monkeypatch)
    assert is_in_k0(g)
    assert _stored_orientation.cache_info()[:2] == (0, 1)  # hits, misses
    assert dimension(g, ["c0"]) == 2
    assert searches == [g]
    assert _stored_orientation.cache_info()[:2] == (1, 1)
    outside = disjoint_cliques(2, 6)
    assert not is_in_k0(outside)
    with pytest.raises(OutsideK0):
        dimension(outside, ["a0"])
    assert searches == [g]
    assert _stored_orientation.cache_info()[:2] == (2, 2)


def test_decompose_reads_its_blocks_off_the_store(monkeypatch):
    """Four carriers, two with points above their blocks, of a graph the
    store holds: decompose runs no search for the blocks, and one per
    carrier with layers above its blocks, on the carrier's graph."""
    blocks = disjoint_cliques(2, 5, 5, 5, 5)
    g = Graph(2, blocks.vertices | {"w", "y", "z"}, list(blocks.edges) + [
        ("w", "a0"), ("w", "a1"), ("z", "w"), ("z", "a2"), ("y", "c0"), ("y", "c1")])
    _stored_orientation.cache_clear()
    _decomposition.cache_clear()
    assert is_in_k0(g)
    searches = counted_searches(monkeypatch)
    d = decompose(g)
    assert [c.level for c in d.components] == [2, 0, 1, 0]
    assert searches == [g.induced(c.carrier) for c in d.components if c.level]
    assert _stored_orientation.cache_info()[:2] == (1, 1)


def test_a_closure_chain_that_orients_short_of_the_closure_set_fails_by_name(monkeypatch):
    # survives python -O: the check is a raise, not an assert
    g = k_complete(5)
    h = Graph(2, list(g.vertices) + ["w", "x"], list(g.edges) + [("w", "v0"), ("w", "v1")])
    chain = ref_closure(h, ["w"]).witness_chain
    assert len(chain) > 1 and chain[-1] == h.vertices - {"x"}
    monkeypatch.setattr(abinitio.predimension, "_collect", lambda g, out, a: g.vertices)
    with pytest.raises(ConstructionFailed, match=(
            rf"closure round {len(chain)}: .* orients, short of the closure's 7 points")) as info:
        closure(h, ["w"])
    assert info.value.stage_log == [sorted(s) for s in chain]


def test_closure_matches_the_rounds_and_the_subset_scan():
    """Random members of up to 9 points at m = 2 or 3: closure's chain and
    set equal the rounds run until an orientation succeeds, and its set the
    subset scan's, for random sets and, as often, for sets already closed."""
    rng = random.Random(40)
    seen = closed = 0
    while seen < 300:
        g = random_graph(rng, rng.randint(0, 9), m=rng.choice([2, 3]), p=rng.random())
        if not is_in_k0(g):
            continue
        seen += 1
        a = frozenset(v for v in g.vertices if rng.random() < rng.choice([0.0, 0.3, 0.6]))
        if rng.random() < 0.5:
            a = brute_closure(g, a)
        got = closure(g, a)
        closed += got.closure == a
        assert got == ref_closure(g, a)
        assert got.closure == brute_closure(g, a)
    assert closed >= 150


def test_closure_matches_the_rounds_at_scale():
    """An 800-point tight graph: closure equals the rounds, chain and set,
    for small sets and for the closed sets they climb to."""
    rng = random.Random(41)
    g = tight_graph(rng, 800, m=2, window=24, prefix="z")
    verts = g.sorted_vertices()
    grew = 0
    for size in (1, 2, 3, 3, 5):
        a = frozenset(rng.sample(verts, size))
        got = closure(g, a)
        assert got == ref_closure(g, a)
        assert closure(g, got.closure) == ref_closure(g, got.closure)
        grew += len(got.witness_chain) > 1
    assert grew >= 2


def test_a_closure_after_dimension_builds_no_index(monkeypatch):
    """The rounds of a closure short of its set read the graph's last
    index, which dimension's core search has just built: no _Index is
    built, and the chain is still the rounds' on a fresh one."""
    g = random_zero_graph(random.Random(43), 20)  # its blocks do not peel
    a = frozenset(["b0v0"])
    _stored_orientation.cache_clear()
    _last_index.cache_clear()
    assert dimension(g, a) == 0
    assert _last_index.cache_info().misses == 1
    with monkeypatch.context() as patched:
        patched.setattr(abinitio.predimension, "_Index", None)
        got = closure(g, a)
    assert _last_index.cache_info().misses == 1
    assert len(got.witness_chain) > 1 and got == ref_closure(g, a)


def test_interleaved_queries_answer_as_from_an_empty_store():
    """closure, dimension, gcl and decompose on two graphs, in shuffled
    order: every answer equals the one given with the store emptied first,
    and the stored orientations end as they were built, so no reader
    reorients what the store holds."""
    rng = random.Random(42)
    loose, zero = loose_graph(rng, 200, "i"), random_zero_graph(rng, 20)
    run = {"closure": lambda g, a: closure(g, a).to_json_dict(), "dimension": dimension,
           "gcl": lambda g, a: sorted(geometric_closure_bounded(g, a)),
           "decompose": lambda g, a: decompose(g).to_json_dict()}
    queries = [("decompose", zero, None)] * 3
    for g in (loose, zero):
        verts = g.sorted_vertices()
        for _ in range(12):
            a = frozenset(rng.sample(verts, rng.randint(1, 3)))
            if rng.random() < 0.3:
                a = _closure_set(g, a)
            queries.append((rng.choice(["closure", "dimension", "gcl"]), g, a))
    want = []
    for kind, g, a in queries:
        _stored_orientation.cache_clear()
        want.append(run[kind](g, a))
    _stored_orientation.cache_clear()
    def stored():
        return {g: {v: tuple(ys) for v, ys in _stored_orientation(g).items()}
                for g in (loose, zero)}

    built = stored()
    order = list(range(len(queries)))
    for _ in range(3):
        rng.shuffle(order)
        for i in order:
            kind, g, a = queries[i]
            assert run[kind](g, a) == want[i], (kind, sorted(a or ()))
    assert stored() == built
    assert _stored_orientation.cache_info().misses == 2


def _library_nodes(matches) -> list:
    """file:line of every node of the library's syntax trees that matches."""
    found = []
    for path in sorted((ROOT / "src" / "abinitio").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if matches(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_library_reads_nothing_that_python_O_changes():
    """python -O drops assert statements, compiles __debug__ to False and
    sets sys.flags.optimize; nothing else of a module's code changes.  With
    none of the three in the library, it runs the same code either way, so
    the test suite need not run again under -O."""
    assert _library_nodes(lambda node: (
        isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
        or isinstance(node, ast.Attribute) and node.attr in ("flags", "optimize"))) == []


def test_library_reads_no_environment():
    """Every setting of the library is a keyword or a command-line option:
    no os.environ or getenv read, under any name it is imported as, so an
    answer depends on the call's arguments alone."""
    reads = ("environ", "environb", "getenv", "getenvb")
    assert _library_nodes(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in reads
        or isinstance(node, ast.Name) and node.id in reads
        or isinstance(node, ast.alias) and node.name in reads)) == []


@pytest.mark.skipif(sys.flags.optimize > 0, reason="already running with asserts stripped")
def test_invariant_checks_pass_with_asserts_stripped():
    # the tests that break an invariant on purpose and expect it raised by
    # name, since a check written as an assert would vanish under -O
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_predimension.py", "tests/test_zero_decomposition.py",
         "tests/test_amalgam.py", "tests/test_approximation.py", "tests/test_extension.py",
         "tests/test_graph.py",
         "-k", "survive_without_asserts or a_closure_round_that_does_not_lower_the_count"
         " or a_closure_chain_that_orients_short_of_the_closure_set"
         " or a_failed_postcondition_raises_by_name or back_and_forth_growth_stays_in_k0"
         " or first_matches_the_reference_search or adjoin_copy_matches_a_checked_build"],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "\n20 passed, " in proc.stdout, proc.stdout[-3000:]
