"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every check accumulates failing instances and prints a single PASS/FAIL
line before asserting, so a full run reads as a ten-line report.  The
brute-force oracles are imported inside the criteria that read them, so that
importing this module for its corpus (_ep_corpus) does not load them.
"""

import itertools
import random

from abinitio import (
    AmalgamSpec,
    Embedding,
    EPProblem,
    Graph,
    PartialIso,
    build_approximation,
    closure,
    count_cross_edges,
    decompose,
    delta,
    dimension,
    ep_extend,
    extend_partial_iso,
    free_amalgam,
    hull,
    is_in_k0,
    is_self_sufficient,
    pattern_catalog,
    strong_embeddings,
    uniform_algebraicity_report,
    verify_certificate,
    verify_strong_pair,
)
from builders import random_graph, random_k0_graph, random_zero_graph


def _verdict(num, label, failures, checks):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
          f"({checks} checks)")
    assert ok, f"criterion {num} first failures: {failures[:5]}"


def _sample(rng, pool):
    return frozenset(rng.sample(pool, rng.randint(0, len(pool))))


def test_criterion_01_count_submodularity():
    rng = random.Random(101)
    failures = []
    for gi in range(500):
        g = random_graph(rng, max_verts=10)
        vs = sorted(g.vertices)
        for pi in range(10):
            a, b = _sample(rng, vs), _sample(rng, vs)
            if delta(g, a | b) > delta(g, a) + delta(g, b) - delta(g, a & b):
                failures.append((gi, pi, sorted(a), sorted(b)))
    _verdict(1, "count submodularity", failures, 5000)


def test_criterion_02_restriction_and_transitivity():
    rng = random.Random(202)
    failures = []
    for i in range(500):
        g = random_graph(rng, max_verts=10)
        vs = sorted(g.vertices)
        # draw a self-sufficient middle set, falling back to the whole graph
        b = g.vertices
        for _ in range(8):
            cand = _sample(rng, vs)
            if is_self_sufficient(g, cand):
                b = cand
                break
        gb = g.induced(b)
        bl = sorted(b)
        a = b
        for _ in range(8):
            cand = _sample(rng, bl)
            if is_self_sufficient(gb, cand):
                a = cand
                break
        if not is_self_sufficient(g, a):
            failures.append(("transitivity", i, sorted(a), sorted(b)))
        x = _sample(rng, bl)
        if not is_self_sufficient(g.induced(x), a & x):
            failures.append(("restriction", i, sorted(a), sorted(x)))
    _verdict(2, "restriction and transitivity of closedness", failures, 500)


def test_criterion_03_closure_matches_oracle():
    from oracles import brute_closure

    rng = random.Random(303)
    failures = []
    for i in range(200):
        g = random_k0_graph(rng, max_verts=12)
        a = _sample(rng, sorted(g.vertices))
        got = closure(g, a).closure
        want = brute_closure(g, a)
        if got != want:
            failures.append((i, sorted(a), sorted(got), sorted(want)))
    _verdict(3, "closure equals brute-force minimal closed superset",
             failures, 200)


def test_criterion_04_class_membership_fast_path():
    from oracles import brute_in_k0

    rng = random.Random(404)
    failures = []
    for i in range(1000):
        m = 2 if i % 2 == 0 else 3
        g = random_graph(rng, max_verts=7, m=m, p=rng.random())
        if is_in_k0(g) != brute_in_k0(g):
            failures.append((i, m, sorted(g.edges)))
    _verdict(4, "orientation membership test vs exhaustive subsets",
             failures, 1000)


def test_criterion_05_free_amalgamation():
    rng = random.Random(505)
    failures = []
    built = 0
    while built < 200:
        m = rng.choice((2, 3))
        bn = rng.randint(0, 3)
        base_names = [f"c{i}" for i in range(bn)]
        base = Graph(m, base_names,
                     [e for e in itertools.combinations(base_names, 2)
                      if rng.random() < 0.4])

        def grow(prefix):
            extra = [f"{prefix}{i}" for i in range(rng.randint(0, 3))]
            edges = list(base.edges)
            pool = sorted(base.vertices)
            for v in extra:
                targets = pool[:]
                rng.shuffle(targets)
                for t in targets[:rng.randint(0, 2)]:
                    edges.append((v, t))
                pool.append(v)
            return Graph(m, sorted(base.vertices) + extra, edges)

        left, right = grow("l"), grow("r")
        if not (is_in_k0(left) and is_in_k0(right)):
            continue
        if not (is_self_sufficient(left, base.vertices)
                and is_self_sufficient(right, base.vertices)):
            continue
        built += 1
        res = free_amalgam(AmalgamSpec(
            left=left,
            right=right,
            base_in_left=Embedding.build(
                base, left, {v: v for v in base.vertices}),
            base_in_right=Embedding.build(
                base, right, {v: v for v in base.vertices}),
        ))
        if not is_in_k0(res.graph):
            failures.append(("membership", built))
        if not verify_strong_pair(left, res.graph, res.left_embedding):
            failures.append(("left-strong", built))
        if not verify_strong_pair(right, res.graph, res.right_embedding):
            failures.append(("right-strong", built))
        if delta(res.graph, res.graph.vertices) != (
                delta(left, left.vertices) + delta(right, right.vertices)
                - delta(base, base.vertices)):
            failures.append(("additivity", built))
    _verdict(5, "free amalgams stay in the class, factors strong, "
             "counts additive", failures, 200)


def test_criterion_06_zero_set_decomposition_invariants():
    rng = random.Random(606)
    failures = []
    for i in range(100):
        g = random_zero_graph(rng, max_verts=20)
        dec = decompose(g)
        for e1, e2 in itertools.combinations(dec.minimally_closed, 2):
            if e1 & e2:
                failures.append(("overlap", i))
            if count_cross_edges(g, e1, e2):
                failures.append(("cross-edge", i))
        for e in dec.minimally_closed:
            if sum(e <= comp.carrier for comp in dec.components) != 1:
                failures.append(("carriers", i))
        for comp in dec.components:
            layers = comp.layers
            if layers[-1] != comp.carrier:
                failures.append(("terminus", i))
            if any(not layers[j] < layers[j + 1]
                   for j in range(len(layers) - 1)):
                failures.append(("not-increasing", i))
            # the hull walk must stay inside the carrier: ambient-wide hulls
            # also swallow the other carriers' blocks
            gc = g.induced(comp.carrier)
            cur = layers[0]
            steps = 0
            while cur != comp.carrier and steps <= len(g.vertices):
                nxt = hull(gc, cur)
                if nxt == cur:
                    break
                cur = nxt
                steps += 1
            if cur != comp.carrier or steps != comp.level:
                failures.append(("hull-steps", i, steps, comp.level))
    _verdict(6, "zero-set decomposition invariants on 100 generated graphs",
             failures, 100)


# -- criterion 7 corpus -------------------------------------------------------


def _k_union(m, size, *prefixes):
    verts, edges = [], []
    for p in prefixes:
        names = [f"{p}{i}" for i in range(size)]
        verts += names
        edges += list(itertools.combinations(names, 2))
    return Graph(m, verts, edges)


def _attach(g, name, targets):
    return Graph(g.m, sorted(g.vertices) + [name],
                 list(g.edges) + [(name, t) for t in targets])


def _cyc(*names):
    return {names[i]: names[(i + 1) % len(names)] for i in range(len(names))}


def _total(g, moved=None):
    f = {v: v for v in g.vertices}
    f.update(moved or {})
    return f


def _power(f, k):
    out = {v: v for v in f}
    for _ in range(k):
        out = {v: f[out[v]] for v in out}
    return out


def _ep_corpus():
    probs = []

    def add(label, g, *maps):
        probs.append((label, EPProblem(g, tuple(
            PartialIso.build(g, dict(f)) for f in maps))))

    a5 = [f"a{i}" for i in range(5)]
    block = _k_union(2, 5, "a")
    rot5 = _cyc(*a5)
    swap01 = _total(block, {"a0": "a1", "a1": "a0"})
    double = _total(block, {"a0": "a1", "a1": "a0", "a2": "a3", "a3": "a2"})
    three = _total(block, _cyc("a0", "a1", "a2"))
    four = _total(block, _cyc("a0", "a1", "a2", "a3"))
    six = _total(block, {"a0": "a1", "a1": "a0", **_cyc("a2", "a3", "a4")})

    add("single/no-maps", block)
    add("single/identity", block, _total(block))
    add("single/rotation", block, rot5)
    add("single/transposition", block, swap01)
    add("single/double-transposition", block, double)
    add("single/3-cycle", block, three)
    add("single/4-cycle", block, four)
    add("single/order-6", block, six)
    add("single/two-maps", block, rot5, swap01)
    add("single/two-maps-bis", block, three, double)
    add("single/id-and-rotation", block, _total(block), rot5)
    add("single/empty-map", block, {})

    x7 = [f"x{i}" for i in range(7)]
    k7 = _k_union(3, 7, "x")
    add("m3/rotation", k7, _cyc(*x7))
    add("m3/transposition", k7, _total(k7, {"x0": "x1", "x1": "x0"}))
    add("m3/order-10", k7,
        _total(k7, {"x0": "x1", "x1": "x0", **_cyc(*x7[2:])}))
    add("m3/two-maps", k7, _cyc(*x7), _total(k7))

    two = _k_union(2, 5, "a", "b")
    swap_ab = {**{f"a{i}": f"b{i}" for i in range(5)},
               **{f"b{i}": f"a{i}" for i in range(5)}}
    chain_ab = {f"a{i}": f"b{i}" for i in range(5)}
    add("multi/swap", two, swap_ab)
    add("multi/chain", two, chain_ab)
    add("multi/swap-and-rotation", two, swap_ab, rot5)
    add("multi/identity", two, _total(two))
    add("multi/chain-and-target-rotation", two, chain_ab,
        _cyc(*[f"b{i}" for i in range(5)]))
    add("multi/empty-and-rotation", two, {}, rot5)

    three_blocks = _k_union(2, 5, "a", "b", "c")
    c_rot = _cyc(*[f"c{i}" for i in range(5)])
    add("multi/block-3-cycle", three_blocks,
        {**{f"a{i}": f"b{i}" for i in range(5)},
         **{f"b{i}": f"c{i}" for i in range(5)},
         **{f"c{i}": f"a{i}" for i in range(5)}})
    add("multi/chain-with-rotating-bystander", three_blocks,
        {**chain_ab, **c_rot})
    add("multi/two-step-chain", three_blocks,
        {**chain_ab, **{f"b{i}": f"c{i}" for i in range(5)}})
    add("multi/swap-and-bystander-rotation", three_blocks,
        {**swap_ab}, c_rot)
    add("empty/no-maps", Graph(2, [], []))
    add("m3/two-block-swap", _k_union(3, 7, "x", "y"),
        {**{f"x{i}": f"y{i}" for i in range(7)},
         **{f"y{i}": f"x{i}" for i in range(7)}})

    pend = _attach(block, "w", ["a0", "a1"])
    stab = _total(pend, {"a0": "a1", "a1": "a0", "a2": "a3", "a3": "a2"})
    add("level1/rotation", pend, rot5)
    add("level1/identity", pend, _total(pend))
    add("level1/anchor-stabilizer", pend, stab)
    add("level1/no-maps", pend)
    add("level1/block-transposition", pend, swap01)
    add("level1/two-maps", pend, rot5, stab)
    add("level1/empty-and-stabilizer", pend, {}, stab)

    two_pend = _attach(_attach(block, "w", ["a0", "a1"]), "v", ["a2", "a3"])
    add("level1/pendant-swap", two_pend,
        _total(two_pend, {"a0": "a2", "a2": "a0", "a1": "a3", "a3": "a1",
                          "w": "v", "v": "w"}))
    add("level1/two-pendants-rotation", two_pend, rot5)

    twin = _attach(_attach(block, "w1", ["a0", "a1"]), "w2", ["a0", "a1"])
    add("level1/doubled-type-rotation", twin, rot5)

    sat = _attach(_k_union(2, 5, "a", "b"), "w", ["b0", "b1"])
    add("level1/satellite-chain", sat, chain_ab)
    add("level1/satellite-no-maps", sat)

    both = _attach(_attach(_k_union(2, 5, "a", "b"), "wa", ["a0", "a1"]),
                   "wb", ["b0", "b1"])
    add("level1/decorated-swap", both, {**swap_ab, "wa": "wb", "wb": "wa"})
    add("level1/decorated-chain", both, {**chain_ab, "wa": "wb"})

    tri = Graph(2, sorted(block.vertices) + ["p", "q", "r"],
                list(block.edges) + [("p", "q"), ("p", "r"), ("q", "r"),
                                     ("p", "a0"), ("q", "a1"), ("r", "a2")])
    add("level1/triangle-rotation", tri, rot5)
    add("level1/triangle-identity", tri, _total(tri))

    wz = _attach(_attach(block, "w", ["a0", "a1"]), "z", ["w", "a2"])
    tail_swap = _total(wz, {"a3": "a4", "a4": "a3"})
    add("level2/no-maps", wz)
    add("level2/tail-swap", wz, tail_swap)
    add("level2/rotation", wz, rot5)
    add("level2/identity", wz, _total(wz))
    add("level2/two-maps", wz, tail_swap, _total(wz))

    wzz = _attach(wz, "y", ["w", "a3"])
    add("level2/doubled-no-maps", wzz)
    add("level2/doubled-swap", wzz,
        _total(wzz, {"a2": "a3", "a3": "a2", "z": "y", "y": "z"}))

    return probs


def test_criterion_07_extension_property_corpus():
    corpus = _ep_corpus()
    assert len(corpus) >= 50
    failures = []
    for label, p in corpus:
        assert len(p.a.vertices) <= 15 and len(p.maps) <= 2
        cert = ep_extend(p)
        rep = verify_certificate(p, cert)
        if not rep.ok or rep.diagnostics:
            failures.append((label, rep.diagnostics[:2]))
            continue
        autos = [f.as_dict() for f in cert.automorphisms]
        for entry in cert.stage_log[0]["closures"]:
            lap = _power(autos[entry["map_index"]], entry["cycle_length"])
            for piece in entry["blocks"] + entry["copies"]:
                if frozenset(lap[v] for v in piece) != frozenset(piece):
                    failures.append((label, "base-orbit", piece))
        for lg in cert.stage_log[1:]:
            bq = Graph.from_json_dict(lg["graph"])
            rows = uniform_algebraicity_report(bq, lg["stage"])
            if not all(r[2] for r in rows):
                failures.append((label, "non-uniform", lg["stage"]))
            for mc in lg["map_cycles"]:
                lap = _power(autos[mc["map_index"]], mc["length"])
                for comp in mc["components"]:
                    if frozenset(lap[v] for v in comp) != frozenset(comp):
                        failures.append((label, "level-orbit", comp))
    _verdict(7, f"extension certificates on {len(corpus)} problems "
             "(levels 0, 1, 2)", failures, len(corpus))


def test_criterion_08_back_and_forth():
    from oracles import brute_automorphisms

    failures = []
    two = _k_union(2, 5, "a", "b")
    phi = PartialIso.build(two, {f"a{i}": f"b{i}" for i in range(5)})
    ambient, gamma = extend_partial_iso(two, phi)
    if ambient != two:
        failures.append("swap-grew")
    if gamma.as_dict() not in brute_automorphisms(two, fixed=phi.as_dict()):
        failures.append("swap-not-an-automorphism")

    sat = _attach(_k_union(2, 5, "a", "b"), "w", ["b0", "b1"])
    pairs = {f"a{i}": f"b{i}" for i in range(5)}
    if brute_automorphisms(sat, fixed=pairs):
        failures.append("pre-growth-extension-should-not-exist")
    grown, gamma2 = extend_partial_iso(sat, PartialIso.build(sat, pairs))
    if len(grown.vertices) <= len(sat.vertices):
        failures.append("no-growth")
    if gamma2.as_dict() not in brute_automorphisms(grown, fixed=pairs):
        failures.append("post-growth-not-an-automorphism")
    if not is_self_sufficient(grown, sat.vertices):
        failures.append("old-ambient-not-strong")
    _verdict(8, "back-and-forth with and without forced growth", failures, 2)


def test_criterion_09_small_scale_genericity():
    chain = build_approximation(Graph(2, [], []), 1, 3)
    final = chain.stages[-1]
    failures = []
    for pattern in pattern_catalog(2, 3):
        if not strong_embeddings(pattern, final):
            failures.append(sorted(pattern.edges))
    _verdict(9, "final stage strongly realizes every pattern of size <= 3",
             failures, len(pattern_catalog(2, 3)))


def test_criterion_10_dimension_submodularity():
    rng = random.Random(1010)
    failures = []
    checked = 0
    while checked < 500:
        g = random_k0_graph(rng, max_verts=12)
        vs = sorted(g.vertices)
        for _ in range(5):
            if checked >= 500:
                break
            a, b = _sample(rng, vs), _sample(rng, vs)
            if dimension(g, a | b) + dimension(g, a & b) > (
                    dimension(g, a) + dimension(g, b)):
                failures.append((checked, sorted(a), sorted(b)))
            checked += 1
    _verdict(10, "dimension submodularity on 500 sampled pairs",
             failures, 500)
