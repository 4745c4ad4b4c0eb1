import itertools
import random

import pytest

import abinitio.approximation
from abinitio import (
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
    geometric_closure_bounded,
    is_in_k0,
    is_self_sufficient,
    pattern_catalog,
    realize_extension,
    strong_embeddings,
)
from abinitio.approximation import _base_choices, _tasks, _total_extension
from oracles import brute_automorphisms, ref_base_choices, ref_build_approximation


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
    monkeypatch.setattr(abinitio.approximation, "_TASKS", {})
    compiled = []
    init = EmbeddingPlan.__init__

    def counting_init(self, *args, **kwargs):
        compiled.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddingPlan, "__init__", counting_init)
    tasks = _tasks(2, 3)
    assert len(compiled) > 2 * len(tasks)
    assert _tasks(2, 3) is tasks
    assert [base for _, base, _, _ in tasks] == [
        ext.induced(s) for ext in pattern_catalog(2, 3) for s in ref_base_choices(ext)]
    seed = block("a")
    first = build_approximation(seed, 1, 3)
    compiled.clear()
    assert build_approximation(seed, 1, 3) == first
    assert compiled == []


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


def test_total_map_check_matches_pinned_search():
    # a path with a pendant: some permutations are automorphisms, most not
    g = Graph(2, ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")])
    vs = g.sorted_vertices()
    hits = 0
    for perm in itertools.permutations(vs):
        phi = dict(zip(vs, perm))
        gamma = _total_extension(g, phi)
        assert (gamma and gamma.as_dict()) == EmbeddingPlan(g, pinned=phi).first(g, phi)
        hits += gamma is not None
    assert hits == 2


def test_construction_invariants_survive_without_asserts(monkeypatch):
    # the checks are raises, so python -O keeps them: a patched predicate
    # that denies one must fail the step by name
    approx = abinitio.approximation
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w"], ea + eb + [("w", "b0"), ("w", "b1")])
    phi = PartialIso.build(g, {f"a{i}": f"b{i}" for i in range(5)})
    real = approx.is_self_sufficient
    b = block("a")
    for name, fake, call, message in [
        ("is_in_k0", lambda h: False, lambda: extend_partial_iso(g, phi), "outside K0"),
        ("is_self_sufficient", lambda h, s: h == g and real(h, s),
         lambda: extend_partial_iso(g, phi), "not strong in the grown one"),
        ("delta_rel", lambda *args: -1, lambda: add_generic_point(b, b.vertices, 1),
         "does not count 1"),
        ("is_self_sufficient", lambda h, s: h.vertices == s,
         lambda: add_generic_point(b, b.vertices, 1), "not self-sufficient with it"),
    ]:
        with monkeypatch.context() as patched:
            patched.setattr(approx, name, fake)
            with pytest.raises(ConstructionFailed, match=message):
                call()


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


def test_repeated_growth_stays_strong():
    g = Graph(2, [], [])
    for rel in (2, 2, 1, 0, 0):
        before = g.vertices
        g = add_generic_point(g, g.vertices, rel)
        if rel >= 1:
            assert is_self_sufficient(g, before)
    assert len(g.vertices) == 5
