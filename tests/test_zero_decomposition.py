import itertools
import random

import pytest

import abinitio
import oracles
from abinitio import (
    count_cross_edges,
    BaseWitness,
    Embedding,
    EmbeddingPlan,
    Graph,
    InvalidMap,
    OutsideK0,
    base_attachment_pairs,
    closure,
    connected_zero_sets,
    decompose,
    delta_rel,
    hull,
    is_in_k0,
    is_self_sufficient,
    is_zero_algebraic,
    is_zero_minimally_algebraic,
    level_chain,
    minimally_closed_sets,
    mu_count,
    uniform_algebraicity_report,
)
from abinitio.graph import _shape
from abinitio.predimension import _Index, _tight_components
from abinitio.zero_decomposition import (_count_matched, _decomposition, _dedupe_witnesses,
                                         _report_rows, _row_invariant)
from builders import plant_clique, random_graph, random_k0_graph, random_zero_graph
from oracles import (
    brute_automorphisms,
    brute_strong_extension_count,
    ref_absorbable_over,
    ref_base_attachment_pairs,
    ref_connected_subsets,
    ref_is_zero_algebraic,
    ref_count,
    ref_is_zero_minimally_algebraic,
    ref_level_chain,
    ref_placement_counts,
    ref_report_rows,
    ref_tight_sets_over,
    ref_uniform_algebraicity_report,
)


def k5(prefix="a"):
    names = [f"{prefix}{i}" for i in range(5)]
    edges = [(names[i], names[j]) for i in range(5) for j in range(i + 1, 5)]
    return names, edges


def k5_graph(prefix="a"):
    names, edges = k5(prefix)
    return Graph(2, names, edges)


def chain_graph():
    # block, then w tight over {a0,a1}, then z tight over {w,a2}
    names, edges = k5()
    names = names + ["w", "z"]
    edges = edges + [("w", "a0"), ("w", "a1"), ("z", "w"), ("z", "a2")]
    return Graph(2, names, edges)


BLOCK = frozenset(f"a{i}" for i in range(5))


def test_single_block():
    g = k5_graph()
    assert minimally_closed_sets(g) == [BLOCK]
    assert connected_zero_sets(g) == [BLOCK]
    d = decompose(g)
    assert len(d.components) == 1
    comp = d.components[0]
    assert comp.carrier == BLOCK and comp.level == 0
    assert comp.layers == (BLOCK,) and not comp.ceiling_hit
    assert d.to_json_dict() == {
        "minimally_closed": [sorted(BLOCK)],
        "components": [
            {
                "carrier": sorted(BLOCK),
                "level": 0,
                "layers": [sorted(BLOCK)],
                "ceiling_hit": False,
            }
        ],
    }


def test_two_blocks_two_carriers():
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb, ea + eb)
    other = frozenset(nb)
    assert minimally_closed_sets(g) == [BLOCK, other]
    assert connected_zero_sets(g) == [BLOCK, other]
    assert all(c.level == 0 for c in decompose(g).components)


def test_attachment_joins_carrier():
    g = chain_graph().induced(BLOCK | {"w"})
    assert minimally_closed_sets(g) == [BLOCK]
    assert connected_zero_sets(g) == [BLOCK | {"w"}]
    comp = decompose(g).components[0]
    assert comp.level == 1
    assert comp.layers == (BLOCK, BLOCK | {"w"})


def test_bridge_merges_carriers():
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w"], ea + eb + [("w", "a0"), ("w", "b0")])
    other = frozenset(nb)
    assert minimally_closed_sets(g) == [BLOCK, other]
    assert connected_zero_sets(g) == [g.vertices]
    comp = decompose(g).components[0]
    # both blocks seed layer zero together
    assert comp.layers == (BLOCK | other, g.vertices)
    assert comp.level == 1


def test_two_accretion_levels():
    g = chain_graph()
    comp = decompose(g).components[0]
    assert comp.level == 2
    assert comp.layers == (BLOCK, BLOCK | {"w"}, BLOCK | {"w", "z"})
    for layer in comp.layers:
        assert is_self_sufficient(g, layer)


def test_rejects_nonzero_or_outside_k0():
    k4 = Graph(2, ["x0", "x1", "x2", "x3"],
                     [("x0", "x1"), ("x0", "x2"), ("x0", "x3"),
                      ("x1", "x2"), ("x1", "x3"), ("x2", "x3")])
    with pytest.raises(OutsideK0, match="expected 0"):
        minimally_closed_sets(k4)
    names = [f"c{i}" for i in range(6)]
    k6 = Graph(2, names,
                     [(names[i], names[j]) for i in range(6) for j in range(i + 1, 6)])
    with pytest.raises(OutsideK0):
        connected_zero_sets(k6)
    with pytest.raises(OutsideK0):
        decompose(k6)
    with pytest.raises(OutsideK0):
        uniform_algebraicity_report(k4, 1)


def test_strong_is_counting_0_in_a_zero_count_ambient():
    # the lemma the report and the stage builders rest on, against brute
    # force: in a member of K0 of count 0, a set is self-sufficient exactly
    # when it counts 0.  Half the sets are random, half closures, so both
    # answers come up often
    rng = random.Random(1994)
    graphs, seen = 0, {True: 0, False: 0}
    while graphs < 60:
        g = random_zero_graph(rng, 12)
        if len(g.vertices) > 12:  # three blocks: past what brute force scans quickly
            continue
        graphs += 1
        vs = g.sorted_vertices()
        for k in range(8):
            s = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
            if k % 2:
                s = closure(g, s).closure
            strong = is_self_sufficient(g, s)
            assert strong == (abinitio.delta(g, s) == 0) == oracles.brute_closed(g, s)
            seen[strong] += 1
    assert min(seen.values()) >= 150, seen


def test_level_chain_validates_carrier():
    g = chain_graph()
    with pytest.raises(InvalidMap, match="maximal connected zero set"):
        level_chain(g, BLOCK)
    with pytest.raises(InvalidMap):
        level_chain(g, ["w", "z"])
    # given blocks whose union is not self-sufficient have no sets tight over them
    with pytest.raises(InvalidMap, match="not self-sufficient"):
        level_chain(g, g.vertices, blocks=[frozenset(["a0"])], carriers=[g.vertices])
    # given blocks none of which lies in the carrier
    with pytest.raises(InvalidMap, match=r"carrier \['a0', .*\] contains no block"):
        level_chain(g, g.vertices, blocks=[frozenset(["b0"])], carriers=[g.vertices])
    with pytest.raises(InvalidMap, match="contains no block"):
        level_chain(g, g.vertices, blocks=[], carriers=[g.vertices])


def test_level_chain_defaults_give_the_decomposition_component():
    # blocks and carriers found by level_chain itself, every carrier, caps
    # 0 to 5: as decompose's component, or decompose's error where it fails
    rng = random.Random(77)
    chains = failed = 0
    for k in range(60):
        g = random_zero_graph(rng, 16)
        cap = k % 6
        got = [_outcome(level_chain, g, c, max_set=cap) for c in connected_zero_sets(g)]
        want = _outcome(decompose, g, max_set=cap)
        if want[0] == "ok":
            assert got == [("ok", comp) for comp in want[1].components]
            chains += sum(comp.level > 0 for comp in want[1].components)
        else:
            assert want == next(o for o in got if o[0] == "raised")
            failed += 1
    assert chains >= 30 and failed >= 5


def test_zero_algebraic_single_vertex():
    g = chain_graph()
    assert is_zero_algebraic(g, ["w"], ["a0", "a1"])
    assert not is_zero_algebraic(g, ["w"], ["a0"])
    assert is_zero_algebraic(g, ["w"], BLOCK)
    assert not is_zero_algebraic(g, ["z"], ["a2"])
    assert is_zero_algebraic(g, ["z"], ["w", "a2"])
    # w is tight alone over the pair, so the joint set has a flat part
    assert not is_zero_algebraic(g, ["w", "z"], ["a0", "a1", "a2"])


def test_zero_algebraic_triangle():
    names, edges = k5()
    tri = ["p", "q", "r"]
    edges = edges + [("p", "q"), ("p", "r"), ("q", "r"),
                     ("p", "a0"), ("q", "a1"), ("r", "a2")]
    g = Graph(2, names + tri, edges)
    assert is_zero_algebraic(g, tri, ["a0", "a1", "a2"])
    assert is_zero_minimally_algebraic(g, tri, ["a0", "a1", "a2"])
    assert not is_zero_algebraic(g, tri, ["a0", "a1"])
    assert is_zero_algebraic(g, tri, BLOCK)
    assert not is_zero_minimally_algebraic(g, tri, BLOCK)
    assert not is_zero_algebraic(g, ["p", "q"], ["a0", "a1"])


def test_zero_minimally_algebraic_examples():
    g = chain_graph()
    assert is_zero_minimally_algebraic(g, ["w"], ["a0", "a1"])
    assert not is_zero_minimally_algebraic(g, ["w"], BLOCK)
    assert is_zero_minimally_algebraic(g, ["z"], ["w", "a2"])


def test_zero_algebraic_validation():
    g = chain_graph()
    with pytest.raises(InvalidMap, match="nonempty"):
        is_zero_algebraic(g, [], ["a0"])
    with pytest.raises(InvalidMap, match="disjoint"):
        is_zero_algebraic(g, ["w", "a0"], ["a0", "a1"])


def test_hull_absorbs_tight_sets():
    g = chain_graph()
    assert hull(g, BLOCK) == BLOCK | {"w"}
    # a scan yields each single point before it reads the ceiling
    assert hull(g, BLOCK, max_set=0) == hull(g, BLOCK, max_set=1)
    assert hull(g, BLOCK, iterate=True) == g.vertices
    assert hull(g, g.vertices) == g.vertices
    # the rest of the block is itself tight over one anchor, so a pair of
    # block vertices pulls in the whole block alongside w
    assert hull(g, ["a0", "a1"]) == BLOCK | {"w"}
    assert hull(g, ["a0", "a1"], iterate=True) == g.vertices


def test_hull_from_empty_set():
    g = chain_graph()
    assert hull(g, []) == BLOCK
    assert hull(g, [], iterate=True) == g.vertices


def test_attachment_plan_matches_over_anchors():
    # the search _dedupe_witnesses and _extend_map_over_satellites run: an
    # attachment's plan pinned at its anchors, its points kept in the target
    g = chain_graph()
    w = frozenset(["w"])
    plan = EmbeddingPlan(g.induced(w | {"a0", "a1"}), pinned={"a0", "a1"})
    assert plan.first(g, {"a0": "a0", "a1": "a1"}, within=w) == {"a0": "a0", "a1": "a1", "w": "w"}
    assert plan.first(g, {"a0": "a1", "a1": "a2"}, within=w) is None
    forced = EmbeddingPlan(plan.pattern, pinned={"a0", "a1", "w"})
    assert forced.first(g, {"a0": "a0", "a1": "a1", "w": "z"}, within=frozenset(["z"])) is None


def test_attachment_plan_permutes_triangle():
    names, edges = k5()
    tri = frozenset(["p", "q", "r"])
    edges = edges + [("p", "q"), ("p", "r"), ("q", "r"),
                     ("p", "a0"), ("q", "a1"), ("r", "a2")]
    g = Graph(2, names + sorted(tri), edges)
    # anchor swap a0<->a1 forces the p<->q swap
    plan = EmbeddingPlan(g.induced(tri | {"a0", "a1", "a2"}), pinned={"a0", "a1", "a2"})
    got = plan.first(g, {"a0": "a1", "a1": "a0", "a2": "a2"}, within=tri)
    assert got == {"a0": "a1", "a1": "a0", "a2": "a2", "p": "q", "q": "p", "r": "r"}


def test_dedupe_keeps_one_witness_per_attachment_type():
    # w and y hang on a0, a1 alike, and u on a1, a2, so u is not compared
    # with w.  The edges w-z and r-s both touch a0, a1 and a2, but a0 and a1
    # meet w alone while r and s split them
    names, edges = k5()
    ties = ("w a0", "w a1", "y a0", "y a1", "u a1", "u a2", "z w", "z a2",
            "r s", "r a0", "s a1", "s a2")
    g = Graph(2, names + list("wyuzrs"), edges + [tuple(t.split()) for t in ties])
    rows = [BaseWitness(BLOCK, frozenset(_contacts(g, BLOCK, frozenset(d))), frozenset(d), 1)
            for d in ("w", "y", "u", "wz", "rs")]
    assert _dedupe_witnesses(g, rows) == oracles.ref_dedupe_witnesses(g, rows) == [
        rows[0], rows[2], rows[3], rows[4]]


def two_copy_graph():
    names, edges = k5()
    edges = edges + [("w1", "a0"), ("w1", "a1"), ("w2", "a0"), ("w2", "a1")]
    return Graph(2, names + ["w1", "w2"], edges)


def test_mu_count_known_values():
    g = chain_graph().induced(BLOCK | {"w"})
    base = g.induced(BLOCK)
    ident = Embedding.build(base, g, {v: v for v in BLOCK})
    assert mu_count(g, BLOCK, ["w"], ident) == 1
    rot = {f"a{i}": f"a{(i + 1) % 5}" for i in range(5)}
    assert mu_count(g, BLOCK, ["w"], Embedding.build(base, g, rot)) == 0

    h = two_copy_graph()
    base_h = h.induced(BLOCK)
    ident_h = Embedding.build(base_h, h, {v: v for v in BLOCK})
    assert mu_count(h, BLOCK, ["w1"], ident_h) == 2

    for c, alpha in [(g, ident), (h, ident_h)]:
        got = mu_count(c, BLOCK, [v for v in c.vertices - BLOCK][:1], alpha)
        attach = frozenset([v for v in c.vertices - BLOCK][:1])
        want = brute_strong_extension_count(
            c, sorted(BLOCK), sorted(attach), alpha.as_dict())
        assert got == want


def test_mu_count_validation():
    g = chain_graph().induced(BLOCK | {"w"})
    base = g.induced(BLOCK)
    ident = Embedding.build(base, g, {v: v for v in BLOCK})
    with pytest.raises(InvalidMap, match="overlap"):
        mu_count(g, BLOCK, ["a0", "w"], ident)
    pair = g.induced(frozenset(["a0", "a1"]))
    pair_map = Embedding.build(pair, g, {"a0": "a0", "a1": "a1"})
    with pytest.raises(InvalidMap, match="base pattern"):
        mu_count(g, BLOCK, ["w"], pair_map)
    with pytest.raises(InvalidMap, match="not strong"):
        mu_count(g, ["a0", "a1"], ["w"], pair_map)
    skew = Embedding.build(pair, g, {"a0": "a2", "a1": "w"})
    with pytest.raises(InvalidMap, match="not induced"):
        mu_count(g, ["a0", "a1"], ["a3"], skew)


def test_base_attachment_pairs_on_chain():
    g = chain_graph()
    carrier = g.vertices
    witnesses = base_attachment_pairs(g, carrier, BLOCK | {"w"}, 2)
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.base == BLOCK | {"w"}
    assert w.generator == {"w", "a2"}
    assert w.zero_minimal_set == {"z"}
    assert w.level_index == 2
    assert w.to_json_dict() == {
        "base": sorted(BLOCK | {"w"}),
        "generator": ["a2", "w"],
        "zero_minimal_set": ["z"],
        "level_index": 2,
        "closure_scope": "ambient",
    }
    assert isinstance(w, BaseWitness)


def test_report_single_attachment_not_uniform():
    g = chain_graph().induced(BLOCK | {"w"})
    rows = uniform_algebraicity_report(g, 1)
    assert len(rows) == 1
    witness, counts, uniform = rows[0]
    assert witness.base == BLOCK and witness.zero_minimal_set == {"w"}
    assert not uniform
    # 120 block placements; only those sending the anchor pair onto {a0,a1}
    # support the copy
    assert len(counts) == 120
    assert sorted(counts) == [0] * 108 + [1] * 12
    assert uniform_algebraicity_report(g, 2) == []


def test_report_full_pair_coverage_uniform():
    names, edges = k5()
    extra = []
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for k, (i, j) in enumerate(pairs):
        extra.append(f"w{k}")
        edges = edges + [(f"w{k}", f"a{i}"), (f"w{k}", f"a{j}")]
    g = Graph(2, names + extra, edges)
    rows = uniform_algebraicity_report(g, 1)
    assert len(rows) == 10
    for _, counts, uniform in rows:
        assert uniform and counts == [1] * 120


def test_decompose_above_24_vertices():
    blocks = [frozenset(k5(f"b{k}")[0]) for k in range(6)]
    g = Graph(2, [v for b in blocks for v in b],
              [e for k in range(6) for e in k5(f"b{k}")[1]])
    d = decompose(g)
    assert list(d.minimally_closed) == blocks
    assert [(c.carrier, c.level, c.layers) for c in d.components] == [
        (b, 0, (b,)) for b in blocks]


def test_report_rejects_level_zero():
    with pytest.raises(InvalidMap, match=">= 1"):
        uniform_algebraicity_report(k5_graph(), 0)


def test_random_decomposition_invariants():
    rng = random.Random(4021)
    for _ in range(20):
        g = random_zero_graph(rng, max_verts=16)
        blocks = minimally_closed_sets(g)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not (a & b)
                assert count_cross_edges(g, a, b) == 0
        d = decompose(g)
        covered = sorted(v for c in d.components for v in c.carrier)
        assert covered == g.sorted_vertices()
        for comp in d.components:
            for earlier, later in zip(comp.layers, comp.layers[1:]):
                assert earlier < later
            assert comp.layers[-1] == comp.carrier
            assert comp.layers[0] == frozenset().union(
                *(b for b in blocks if b <= comp.carrier))
            # stepwise hull rebuilds the same chain; run it inside the
            # carrier, since ambient-wide hulls also swallow the blocks of
            # every other carrier (tight over the empty anchor set)
            gc = g.induced(comp.carrier)
            current = comp.layers[0]
            for expected in comp.layers[1:]:
                current = hull(gc, current)
                assert current == expected
            assert hull(gc, current) == current
            for layer in comp.layers:
                assert is_self_sufficient(g, layer)
                assert delta_rel(g, comp.carrier - layer, layer) == 0


def test_count_strong_extensions_matches_oracle():
    rng = random.Random(555)
    for _ in range(12):
        g = random_zero_graph(rng, max_verts=11)
        blocks = minimally_closed_sets(g)
        base = blocks[0]
        outside = sorted(g.vertices - base)
        if not outside:
            continue
        attach = frozenset(outside[:1])
        fixed = {v: v for v in base}
        got = mu_count(g, base, attach, Embedding.build(g.induced(base), g, fixed))
        want = brute_strong_extension_count(
            g, sorted(base), sorted(attach), fixed)
        assert got == want


def _contacts(g, base, att):
    return tuple(sorted(x for x in base if g.neighbors(x) & att))


def test_keyed_counts_match_direct_counts():
    # keying by the image set alone, or by the image set and the contact
    # images as a set, fails here: such placements can differ in count
    rng = random.Random(7)
    rows = partial = 0
    for k in range(80):
        g = random_zero_graph(rng, 12) if k % 2 == 0 else random_k0_graph(rng, 9)
        vs = g.sorted_vertices()
        if len(vs) < 2:
            continue
        for _ in range(4):
            base = frozenset(rng.sample(vs, rng.randint(1, min(4, len(vs) - 1))))
            rest = sorted(g.vertices - base)
            att = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
            plan = EmbeddingPlan(g.induced(base | att), pinned=base)
            placements = [dict(p) for p in EmbeddingPlan(g.induced(base)).pairs(
                g, is_strong=is_self_sufficient)]
            direct = [ref_count(plan, g, f, is_strong=is_self_sufficient) for f in placements]
            assert plan.count_each(g, placements, is_self_sufficient) == direct
            rows += 1
            partial += len(_contacts(g, base, att)) < len(base)
    assert rows >= 300 and partial >= 150


def _check_counts_by_image_set(g, base, att) -> list:
    """count_each and the unpinned counts of the base pattern, one
    representative per image set times the automorphisms, against the
    reference copies, position by position; returns the placements."""
    plan = EmbeddingPlan(g.induced(base | att), pinned=base)
    base_plan = EmbeddingPlan(g.induced(base))
    placements = [dict(p) for p in base_plan.pairs(g, is_strong=is_self_sufficient)]
    assert plan.count_each(g, placements, is_self_sufficient) == \
        ref_placement_counts(g, base, att, placements, plan)
    images = [frozenset(f.values()) for f in base_plan.representatives(g)]
    for is_strong in (None, is_self_sufficient):
        kept = [s for s in images if is_strong is None or is_strong(g, s)]
        assert _shape(base_plan.adjacent)[1] * len(kept) == \
            ref_count(base_plan, g, is_strong=is_strong)
    return placements


def _check_report_by_class(g) -> int:
    """Every row of uniform_algebraicity_report, counted by class, against
    the reference copy of the per-placement counts over the listed placements;
    returns the number of rows."""
    rows = 0
    level = max((c.level for c in decompose(g).components), default=0)
    for i in range(1, level + 1):
        for w, counts, uniform in uniform_algebraicity_report(g, i):
            placements = [dict(p) for p in EmbeddingPlan(g.induced(w.base)).pairs(
                g, is_strong=is_self_sufficient)]
            plan = EmbeddingPlan(g.induced(w.base | w.zero_minimal_set), pinned=w.base)
            want = ref_placement_counts(g, w.base, w.zero_minimal_set, placements, plan)
            assert counts == want and uniform == (len(set(want)) <= 1)
            rows += 1
    return rows


def test_counts_by_image_set_match_reference_copies():
    rng = random.Random(12)
    rows = asymmetric = 0
    for k in range(80):
        g = random_zero_graph(rng, 12) if k % 2 == 0 else random_k0_graph(rng, 9)
        vs = g.sorted_vertices()
        if len(vs) < 2:
            continue
        for _ in range(4):
            base = frozenset(rng.sample(vs, rng.randint(1, min(4, len(vs) - 1))))
            rest = sorted(g.vertices - base)
            att = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
            _check_counts_by_image_set(g, base, att)
            rows += 1
            asymmetric += len(brute_automorphisms(g.induced(base))) == 1
    report_rows = sum(_check_report_by_class(random_zero_graph(rng, 10)) for _ in range(120))
    assert rows >= 300 and asymmetric >= 60 and report_rows >= 60


def test_counts_by_image_set_on_a_planted_seven_clique():
    # K7 counts 0 at m = 3, and so does each point tied to three others:
    # 5,040 automorphisms of the block, 16 of the level-two base
    clique = [f"k{i}" for i in range(7)]
    g = Graph(3, clique + ["s0", "s1", "s2"],
              list(itertools.combinations(clique, 2))
              + [("s0", "k0"), ("s0", "k1"), ("s0", "k2"), ("s1", "k0"), ("s1", "k3"),
                 ("s1", "k4"), ("s2", "s0"), ("s2", "s1"), ("s2", "k5")])
    placements = _check_counts_by_image_set(g, frozenset(clique), frozenset(["s0"]))
    assert len(placements) == 5040
    _check_counts_by_image_set(g, frozenset(clique), frozenset(["s0", "s1"]))
    _check_counts_by_image_set(g, frozenset(clique) | {"s0", "s1"}, frozenset(["s2"]))
    assert _check_report_by_class(g) == 3


def test_counts_by_image_set_over_two_five_cliques():
    # a base of two K5 blocks has 2 * 120 * 120 = 28,800 placements
    na, ea = k5("a")
    nb, eb = k5("b")
    g = Graph(2, na + nb + ["w", "x"],
              ea + eb + [("w", "a0"), ("w", "a1"), ("x", "a2"), ("x", "b0")])
    placements = _check_counts_by_image_set(g, frozenset(na + nb), frozenset(["w", "x"]))
    assert len(placements) == 28800


def test_report_contacts_are_the_generator():
    # the base is self-sufficient, so an edge from the attachment to
    # base minus generator would make the attachment's count over it negative
    rng = random.Random(2)
    rows = 0
    for _ in range(120):
        g = random_zero_graph(rng, 10)
        level = max((c.level for c in decompose(g).components), default=0)
        for i in range(1, level + 1):
            for w, _, _ in uniform_algebraicity_report(g, i):
                assert _contacts(g, w.base, w.zero_minimal_set) == tuple(sorted(w.generator))
                rows += 1
    assert rows >= 60


def _row_types(monkeypatch, g, rows) -> tuple:
    """For rows given as (base, attachment) pairs of g, all with the first
    row's _row_invariant: whether each later row has the first row's type,
    and how many rows _report_rows counted, one tally each.  Every row's
    counts are checked against the reference copy, which counts each row."""
    witnesses = [BaseWitness(frozenset(b), frozenset(b), frozenset(a), 1) for b, a in rows]
    first = witnesses[0]
    assert all(_row_invariant(g, w) == _row_invariant(g, first) for w in witnesses)
    plan = EmbeddingPlan(g.induced(first.base | first.zero_minimal_set),
                         pinned=first.zero_minimal_set)
    same = [plan.embeds_within(g, w.zero_minimal_set, w.base) for w in witnesses[1:]]
    for module in (abinitio.zero_decomposition, oracles):
        monkeypatch.setattr(module, "_report_witnesses", lambda *args: witnesses)
    tallies = []
    direct = EmbeddingPlan.tally
    monkeypatch.setattr(EmbeddingPlan, "tally",
                        lambda plan, *args: tallies.append(plan) or direct(plan, *args))
    got = _report_rows(g, 1, None, {})
    counted = len(tallies)
    want = ref_report_rows(g, 1, None, {})
    assert [(w, set(seen)) for w, seen in got] == [
        (w, {n for table in tables.values() for n in table.values()}) for w, tables in want]
    return same, counted


def test_rows_with_equal_invariants_but_no_isomorphism_are_counted_apart(monkeypatch):
    # one point on a six-cycle and one point on two triangles: the base
    # points have degree 1, the attachments degrees 3, 2, 2, 2, 2, 2
    cycle = [f"c{i}" for i in range(6)]
    again = [f"d{i}" for i in range(6)]
    tri = [f"t{i}" for i in range(6)]
    g = Graph(2, cycle + again + tri + ["x", "y", "z"],
              list(zip(cycle, cycle[1:] + cycle[:1])) + list(zip(again, again[1:] + again[:1]))
              + [(tri[i], tri[j]) for i, j in itertools.combinations(range(3), 2)]
              + [(tri[i], tri[j]) for i, j in itertools.combinations(range(3, 6), 2)]
              + [("x", "c0"), ("y", "t0"), ("z", "d3")])
    assert is_in_k0(g)
    rows = [({"x"}, set(cycle)), ({"y"}, set(tri)), ({"z"}, set(again))]
    assert _row_types(monkeypatch, g, rows) == ([False, True], 2)


def test_rows_isomorphic_only_by_swapping_base_and_attachment_are_counted_apart(
        monkeypatch):
    # on the path p1 - ... - p6 the identity takes the first row onto the
    # second only with base and attachment swapped; the reversal, the path's
    # only other automorphism, takes the first row onto the third
    g = Graph(2, [f"p{i}" for i in range(1, 7)],
              [(f"p{i}", f"p{i + 1}") for i in range(1, 6)])
    rows = [({"p1", "p3", "p4"}, {"p2", "p5", "p6"}),
            ({"p2", "p5", "p6"}, {"p1", "p3", "p4"}),
            ({"p6", "p4", "p3"}, {"p5", "p2", "p1"})]
    assert _row_types(monkeypatch, g, rows) == ([False, True], 2)


def tied_paths(*sizes):
    """A K5 block and, per size k, a path of k points above it: its first
    point tied to a0 and a1, each next one to the one before it and to a2.
    Each path is a component of the pool over the block, and each step
    absorbs one point of every path still growing."""
    names, edges = k5()
    for i, k in enumerate(sizes):
        path = [f"p{i}x{j}" for j in range(k)]
        names += path
        edges += [("a0", path[0]), ("a1", path[0])]
        edges += [(u, v) for u, v in zip(path, path[1:])] + [(v, "a2") for v in path[1:]]
    return Graph(2, names, edges)


def test_ceiling_flag_tells_whether_a_component_reaches_the_cap():
    # the flag says the pool over the blocks has a component of cap points
    for n, hit in [(2, False), (3, True), (4, True)]:
        g = tied_paths(n)
        comp = decompose(g, max_set=3).components[0]
        assert comp.ceiling_hit == hit and comp.level == n
        assert level_chain(g, g.vertices, max_set=3) == comp
    # many small components never reach the cap, one large enough does
    pairs = tied_paths(*[2] * 6)
    assert [decompose(pairs, max_set=cap).components[0].ceiling_hit
            for cap in (3, 2)] == [False, True]
    assert decompose(tied_paths(*[2] * 6, 3), max_set=3).components[0].ceiling_hit
    # cap 0 still absorbs singletons and never raises the flag
    g = chain_graph()
    assert level_chain(g, g.vertices, max_set=0).ceiling_hit is False
    assert level_chain(g, g.vertices, max_set=1).ceiling_hit is True
    # through decompose: the first step's pool {w, z} is the largest
    flags = [decompose(g, max_set=cap).components[0].ceiling_hit for cap in range(5)]
    assert flags == [False, True, True, False, False]
    assert decompose(g, max_set=0).components[0].layers == (
        BLOCK, BLOCK | {"w"}, g.vertices)


def _outcome(f, *args, **kwargs):
    try:
        return ("ok", f(*args, **kwargs))
    except Exception as exc:  # the comparison covers the error raised, too
        return ("raised", type(exc).__name__, str(exc))


def _pick(rng, items, p):
    return frozenset(v for v in items if rng.random() < p)


def _tight_over(g, pool, base, cap):
    """The first absorption step over base, capped as a layer caps it, inside
    pool, by least name."""
    steps = _tight_components(_Index(g), base, max(cap, 1))
    return sorted(sorted(d) for step in steps[:1] for d in step if d <= pool)


def _scanned(scan):
    return sorted(map(sorted, scan[0]))


def test_subset_scans_match_reference_copies():
    # closed forms and pruned scans against the enumerating versions they
    # replace, on random graphs at m = 2 and 3, in K0 and not
    rng = random.Random(2027)
    seen = dict.fromkeys(["outside_k0", "minimal", "tight, not minimal", "found", "hit", "closed",
                          "open", "closed witnesses", "open witnesses", "raised"], 0)
    for k in range(240):
        m = 2 + k % 2
        if k % 4 == 1:
            g = random_zero_graph(rng, 10)
        elif k % 4:
            g = random_k0_graph(rng, 8, m=m)
        else:
            names = [f"v{i}" for i in range(rng.randint(6, 9))]
            p = rng.uniform(0.5, 0.95)
            g = Graph(m, names, [e for e in itertools.combinations(names, 2) if rng.random() < p])
        seen["outside_k0"] += not is_in_k0(g)
        vs = g.sorted_vertices()
        for _ in range(6):
            b = _pick(rng, vs, 0.35) or frozenset(vs[:1])
            # mostly contacts of b, so that tight and minimal cases occur
            near = frozenset().union(*(g.neighbors(v) for v in b)) - b
            a = _pick(rng, sorted(near), 0.8) | _pick(rng, sorted(g.vertices - b - near), 0.2)
            assert is_zero_minimally_algebraic(g, b, a) == \
                ref_is_zero_minimally_algebraic(g, b, a)
        for cap in range(6):
            base = _pick(rng, vs, 0.4)
            pool = _pick(rng, sorted(g.vertices - base), 0.8)
            want = ref_tight_sets_over(g, pool, base, cap)
            # the sink-component rule needs a self-sufficient base
            if is_self_sufficient(g, base):
                assert _tight_over(g, pool, base, cap) == _scanned(want)
            if is_in_k0(g):
                closed = closure(g, base).closure
                assert _tight_over(g, pool - closed, closed, cap) == \
                    _scanned(ref_tight_sets_over(g, pool - closed, closed, cap))
            seen["found"] += len(want[0])
            seen["hit"] += want[1]
            for d in want[0]:
                near = frozenset().union(*(g.neighbors(v) for v in d)) & base
                for a in (base, near, frozenset(sorted(near)[1:])):
                    want_min = ref_is_zero_minimally_algebraic(g, d, a)
                    assert is_zero_minimally_algebraic(g, d, a) == want_min
                    seen["minimal"] += want_min
                    seen["tight, not minimal"] += is_zero_algebraic(g, d, a) and not want_min
            # layers of the level chain, closures, and arbitrary sets
            levels = decompose(g).components if k % 4 == 1 else ()
            r = rng.random()
            if levels and r < 0.6:
                comp = rng.choice(levels)
                carrier, layer = comp.carrier, rng.choice(comp.layers[:-1] or comp.layers)
                if r < 0.3:
                    # mostly not self-sufficient any more
                    layer = layer | _pick(rng, sorted(carrier - layer), 0.3)
            else:
                seed = _pick(rng, vs, 0.3)
                layer = closure(g, seed).closure if r < 0.7 and is_in_k0(g) else seed
                carrier = layer | _pick(rng, vs, 0.7)
            kind = "closed" if is_self_sufficient(g, layer) else "open"
            want = _outcome(ref_base_attachment_pairs, g, carrier, layer, 1, max_set=cap)
            assert _outcome(base_attachment_pairs, g, carrier, layer, 1, max_set=cap) == want
            seen[kind] += 1
            seen[f"{kind} witnesses"] += len(want[1]) if want[0] == "ok" else 0
            seen["raised"] += want[0] == "raised"
    assert seen["outside_k0"] >= 20 and seen["raised"] >= 50
    assert seen["minimal"] >= 500 and seen["tight, not minimal"] >= 300
    assert seen["found"] >= 400 and seen["hit"] >= 150
    assert seen["closed"] >= 400 and seen["open"] >= 100
    assert seen["closed witnesses"] >= 80 and seen["open witnesses"] >= 15


def test_decompositions_reports_and_hulls_match_reference_copies(monkeypatch):
    zd = abinitio.zero_decomposition
    rng = random.Random(1201)
    cases = []
    for _ in range(25):
        g = random_zero_graph(rng, 14)
        cap = rng.randint(0, 5)
        e = _pick(rng, g.sorted_vertices(), 0.3)
        cases.append((g, cap, e))

    def run_all():
        out = []
        for g, cap, e in cases:
            dec = _outcome(decompose, g, max_set=cap)
            out.append(dec)
            level = max((c.level for c in dec[1].components), default=0) if dec[0] == "ok" else 1
            for i in range(1, level + 1):
                out.append(_outcome(uniform_algebraicity_report, g, i, max_set=cap))
            for iterate in (False, True):
                out.append(_outcome(hull, g, e, iterate=iterate, max_set=cap))
        return out

    _decomposition.cache_clear()
    with monkeypatch.context() as patched:
        for name, ref in [("level_chain", ref_level_chain),
                          ("base_attachment_pairs", ref_base_attachment_pairs),
                          ("is_zero_minimally_algebraic", ref_is_zero_minimally_algebraic),
                          ("_absorbable_over", ref_absorbable_over),
                          ("connected_subsets", ref_connected_subsets)]:
            patched.setattr(zd, name, ref)
        want = run_all()
    _decomposition.cache_clear()
    got = run_all()
    assert got == want
    rows = sum(len(o[1]) for o in want if o[0] == "ok" and isinstance(o[1], list))
    assert rows >= 20 and any(o[0] == "raised" for o in want)


def test_zero_algebraic_matches_part_enumeration():
    # the sink-component rule against the enumeration of every proper part,
    # on random graphs, members of K0 and zero-count graphs
    rng = random.Random(3301)
    zero = tight = 0
    for k in range(900):
        g = (random_graph(rng, 9), random_k0_graph(rng, 9, m=2 + k % 2),
             random_zero_graph(rng, 12))[k % 3]
        vs = g.sorted_vertices()
        for t in range(10):
            b = _pick(rng, vs, 0.35) or frozenset(vs[:1])
            near = sorted(frozenset().union(*(g.neighbors(v) for v in b)) - b)
            a = _pick(rng, near, 0.8) | _pick(rng, sorted(g.vertices - b - set(near)), 0.2)
            if t % 2:
                # contacts in random order until b counts 0 or less over them
                rng.shuffle(near)
                a = frozenset()
                while near and delta_rel(g, b, a) > 0:
                    a |= {near.pop()}
            want = ref_is_zero_algebraic(g, b, a)
            assert is_zero_algebraic(g, b, a) == want
            zero += delta_rel(g, b, a) == 0
            tight += want
    assert zero >= 1300 and tight >= 400


def test_zero_algebraic_adjacency_rejections_match_part_enumeration():
    # count-0 pairs with several points in b, as hull meets them: connected
    # candidates over each set of contacts carrying exactly their deficit;
    # the two adjacency checks reject before any graph is built
    rng = random.Random(8)
    cases = by_point = by_rest = tight = 0
    for _ in range(30):
        g = random_zero_graph(rng, 16)
        vs = g.sorted_vertices()
        e = frozenset(vs[:3])
        for b in abinitio.graph.connected_subsets(g, g.vertices - e, 4):
            if len(b) < 2:
                continue
            for a in _count_matched(g, b, g.vertices - b):
                want = ref_is_zero_algebraic(g, b, a)
                assert is_zero_algebraic(g, b, a) == want
                cases += 1
                tight += want
                by_point += any(len(g.neighbors(v) & a) >= g.m for v in b)
                by_rest += any(len(g.neighbors(v) & (a | b)) <= g.m for v in b)
    assert cases >= 12000 and by_point >= 10000 and by_rest >= 10000 and tight >= 600


def test_absorption_steps_match_the_scan_step_by_step():
    # one search rooted at a closed base gives every step: each is what the
    # scan finds tight over the base and the steps before it, at caps 0 to
    # 5, on members of K0 at m = 2 and 3 and on zero-count graphs
    rng = random.Random(4242)
    climbs = barred = 0
    for k in range(900):
        g = random_zero_graph(rng, 16) if k % 3 else random_k0_graph(rng, 9, m=2 + k % 2)
        base = closure(g, _pick(rng, g.sorted_vertices(), 0.2)).closure
        cap = k % 6
        want, current = [], base
        while found := ref_tight_sets_over(g, g.vertices - current, current, cap)[0]:
            want.append(sorted(map(sorted, found)))
            current = current | frozenset().union(*found)
        steps = _tight_components(_Index(g), base, max(cap, 1))
        assert [sorted(map(sorted, step)) for step in steps] == want
        climbs += len(want) > 1
        barred += current != g.vertices and _tight_components(_Index(g), current) != []
    assert climbs >= 70 and barred >= 150


def test_tight_sets_over_a_planted_clique_match_reference():
    # outside K0 the rule still holds over a self-sufficient base; here the
    # base holds a planted clique of negative count and the closure, in the
    # graph without it, of the points the clique is tied to
    rng = random.Random(611)
    cases = found = 0
    for k in range(400):
        g = random_zero_graph(rng, 16) if k % 2 else random_k0_graph(rng, 14, m=2)
        if len(g.vertices) < 6:
            continue
        h = plant_clique(rng, g)
        clique = h.vertices - g.vertices
        assert not is_in_k0(h)
        ties = frozenset().union(*(h.neighbors(x) for x in clique)) - clique
        base = closure(g, ties | _pick(rng, g.sorted_vertices(), 0.1)).closure | clique
        assert is_self_sufficient(h, base)
        pool = _pick(rng, sorted(h.vertices - base), 0.8)
        for cap in range(6):
            want = ref_tight_sets_over(h, pool, base, cap)
            assert _tight_over(h, pool, base, cap) == _scanned(want)
            cases += 1
            found += len(want[0])
    assert cases >= 1500 and found >= 550


def test_decompose_a_thousand_vertices():
    # 120 carriers at m = 3: a 7-clique block, then a path of 1 to 4 points,
    # each tied to the one before it and to two block points, so carrier j
    # has one point per level and level 1 + j % 4
    verts, edges, want = [], [], []
    for j in range(120):
        block = [f"c{j:03d}b{i}" for i in range(7)]
        path = [f"c{j:03d}w{i}" for i in range(1 + j % 4)]
        verts += block + path
        edges += itertools.combinations(block, 2)
        for i, w in enumerate(path):
            edges += [(w, path[i - 1] if i else block[0]), (w, block[i + 1]), (w, block[i + 2])]
        layers = tuple(frozenset(block + path[:i]) for i in range(len(path) + 1))
        want.append((frozenset(block), layers))
    g = Graph(3, verts, edges)
    assert len(g.vertices) >= 1000
    d = decompose(g)
    assert list(d.minimally_closed) == [block for block, _ in want]
    assert [(c.carrier, c.level, c.layers, c.ceiling_hit) for c in d.components] == [
        (layers[-1], len(layers) - 1, layers, False) for _, layers in want]


def test_zero_algebraic_on_a_forty_cycle():
    # each cycle point has one edge into a: the cycle counts 0 over a and
    # every proper part, a union of paths, counts at least 1; enumerating
    # the parts would take about 2**40 checks
    cycle = [f"c{i:02d}" for i in range(40)]
    anchors = [f"a{i:02d}" for i in range(40)]
    edges = list(zip(cycle, cycle[1:] + cycle[:1])) + list(zip(cycle, anchors))
    g = Graph(2, cycle + anchors, edges)
    assert is_zero_algebraic(g, cycle, anchors)
    assert not is_zero_algebraic(g, cycle, anchors[1:])
    path = Graph(2, g.vertices, edges[1:])
    assert not is_zero_algebraic(path, cycle, anchors)
    chord = Graph(2, g.vertices, edges + [("c00", "c20")])
    assert not is_zero_algebraic(chord, cycle, anchors)


def test_the_report_by_image_tuples_matches_the_listing_by_maps():
    # the report lists each base once as image tuples and counts by class;
    # the reference copy lists (vertex, image) maps and calls count_each.
    # Rows, counts and their order agree at every level
    rng = random.Random(38)
    graphs = rows = 0
    while graphs < 40:
        g = random_zero_graph(rng, rng.randint(10, 16))
        if not 10 <= len(g.vertices) <= 16:
            continue
        graphs += 1
        for i in range(1, max(c.level for c in decompose(g).components) + 1):
            got = uniform_algebraicity_report(g, i)
            assert got == ref_uniform_algebraicity_report(g, i)
            rows += len(got)
    assert rows >= 40


def test_a_report_is_the_same_from_an_empty_shape_cache_and_a_warm_one():
    # the placements read each base's automorphisms from the shape cache;
    # emptied before every call or kept, it leaves every row as it was.  One
    # K5 block per graph keeps the groups at 120 and the test fast
    from abinitio.graph import _shape
    rng = random.Random(40)
    calls = []
    while len(calls) < 40:
        g = random_zero_graph(rng, rng.randint(8, 14))
        if "b1v0" not in g.vertices:
            calls += [(g, i) for i in range(1, max(c.level for c in decompose(g).components) + 1)]
    cold = []
    for g, i in calls:
        _shape.cache_clear()
        cold.append(uniform_algebraicity_report(g, i))
    assert _shape.cache_info().currsize
    assert [uniform_algebraicity_report(g, i) for g, i in calls] == cold
    assert _shape.cache_info().hits and sum(map(len, cold)) >= 20
