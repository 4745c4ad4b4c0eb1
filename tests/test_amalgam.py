import itertools
import random

import pytest

import abinitio
from abinitio import (
    AmalgamError,
    AmalgamSpec,
    CoefficientMismatch,
    ConstructionFailed,
    Embedding,
    Graph,
    delta,
    free_amalgam,
    is_in_k0,
    is_self_sufficient,
    verify_strong_pair,
)


def k_complete(n, prefix="v", m=2):
    names = [f"{prefix}{i}" for i in range(n)]
    return Graph(m, names, itertools.combinations(names, 2))


def identity_embedding(base, target):
    return Embedding.build(base, target, {v: v for v in base.vertices})


def spec_over_shared_base(base, left, right):
    return AmalgamSpec(
        left=left,
        right=right,
        base_in_left=identity_embedding(base, left),
        base_in_right=identity_embedding(base, right),
    )


def test_empty_base_gives_disjoint_union():
    base = Graph(2, [], [])
    left = k_complete(5, prefix="a")
    right = k_complete(5, prefix="b")
    res = free_amalgam(spec_over_shared_base(base, left, right))
    assert len(res.graph.vertices) == 10
    assert len(res.graph.edges) == 20
    assert delta(res.graph, res.graph.vertices) == 0


def test_identical_factors_over_full_base_collapse():
    g = k_complete(5)
    res = free_amalgam(spec_over_shared_base(g, g, g))
    assert res.graph == g


def test_no_cross_edges_between_private_parts():
    base = Graph(2, ["c"], [])
    left = Graph(2, ["c", "x"], [("c", "x")])
    right = Graph(2, ["c", "y"], [("c", "y")])
    res = free_amalgam(spec_over_shared_base(base, left, right))
    ry = res.right_embedding("y")
    assert not res.graph.has_edge("x", ry)
    assert res.graph.has_edge("c", ry)


def test_right_factor_keeps_its_pattern_under_relabeling():
    base = k_complete(3, prefix="c", m=3)
    right = Graph(3, list(base.vertices) + ["p", "q"],
                  list(base.edges) + [("p", "c0"), ("p", "q")])
    left = Graph(3, list(base.vertices) + ["x"], list(base.edges) + [("x", "c1")])
    res = free_amalgam(spec_over_shared_base(base, left, right))
    assert verify_strong_pair(left, res.graph, res.left_embedding)
    assert verify_strong_pair(right, res.graph, res.right_embedding)


def test_count_additivity_on_random_valid_specs():
    rng = random.Random(31)
    built = 0
    while built < 60:
        bn = rng.randint(0, 3)
        base = Graph(2, [f"c{i}" for i in range(bn)],
                     [e for e in itertools.combinations([f"c{i}" for i in range(bn)], 2)
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
            return Graph(2, sorted(base.vertices) + extra, edges)

        left, right = grow("l"), grow("r")
        if not (is_in_k0(left) and is_in_k0(right)):
            continue
        if not (is_self_sufficient(left, base.vertices)
                and is_self_sufficient(right, base.vertices)):
            continue
        built += 1
        res = free_amalgam(spec_over_shared_base(base, left, right))
        assert is_in_k0(res.graph)
        assert delta(res.graph, res.graph.vertices) == (
            delta(left, left.vertices) + delta(right, right.vertices)
            - delta(base, base.vertices))


def test_rejects_non_self_sufficient_base():
    # one block vertex is not closed in the block
    base = Graph(2, ["v0"], [])
    left = k_complete(5)
    right = Graph(2, ["v0"], [])
    with pytest.raises(AmalgamError, match="self-sufficient"):
        free_amalgam(spec_over_shared_base(base, left, right))


def test_rejects_factor_outside_the_class():
    base = Graph(2, [], [])
    with pytest.raises(AmalgamError, match="nonnegative"):
        free_amalgam(spec_over_shared_base(base, k_complete(6), k_complete(5)))


def test_rejects_mismatched_base_or_coefficient():
    base = Graph(2, ["c"], [])
    other = Graph(2, ["d"], [])
    left = Graph(2, ["c"], [])
    right = Graph(2, ["d"], [])
    with pytest.raises(AmalgamError, match="share one base"):
        free_amalgam(AmalgamSpec(
            left=left, right=right,
            base_in_left=identity_embedding(base, left),
            base_in_right=identity_embedding(other, right)))
    three = Graph(3, ["c"], [])
    with pytest.raises(CoefficientMismatch):
        free_amalgam(AmalgamSpec(
            left=left, right=three,
            base_in_left=identity_embedding(base, left),
            base_in_right=identity_embedding(base, three)))


def test_a_failed_postcondition_raises_by_name(monkeypatch):
    # survives python -O: the shape test is a raise, not an assert.  A glue
    # step that adds one edge too many leaves the amalgam with the wrong count
    base = Graph(2, [], [])
    left, right = k_complete(5, prefix="a"), k_complete(5, prefix="b")
    real = abinitio.amalgam.adjoin_copy

    def one_edge_more(*args):
        grown, names = real(*args)
        return Graph(grown.m, grown.vertices, list(grown.edges) + [("a0", "b0")]), names

    monkeypatch.setattr(abinitio.amalgam, "adjoin_copy", one_edge_more)
    with pytest.raises(ConstructionFailed, match="free amalgam: a vertex or edge count is off"):
        free_amalgam(spec_over_shared_base(base, left, right))