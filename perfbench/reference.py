"""Reference computations for the benchmark's checks, built on networkx.

Nothing here calls into abinitio: graphs are read as raw ``(m, vertices,
edges)`` data, closures come from a minimum cut and placements from VF2.

The least self-sufficient superset of ``a`` is the least minimizer of
``m*|s| - e(s)`` over supersets ``s`` of ``a`` (submodularity makes the
minimizers a lattice, and its least member lies inside every strong superset).
It is found as a project-selection cut: the source feeds each edge with
capacity 1, an edge needs both its endpoints, each vertex outside ``a`` pays
``m`` to the sink, and vertices of ``a`` are forced in.  The nodes reachable
from the source in the residual network form the smallest minimum cut,
whose vertices are that least minimizer.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
from networkx.algorithms import isomorphism
from networkx.algorithms.flow import preflow_push

_SOURCE, _SINK = ("source",), ("sink",)


def count(g, s) -> int:
    """``m*|s|`` minus the edges inside ``s``, from the raw edge set."""
    s = set(s)
    return g.m * len(s) - sum(1 for u, v in g.edges if u in s and v in s)


def least_closed_superset(g, a) -> frozenset:
    a = frozenset(a)
    net = nx.DiGraph()
    net.add_node(_SOURCE)
    net.add_node(_SINK)
    for v in g.vertices:
        if v in a:
            net.add_edge(_SOURCE, ("v", v))  # no capacity: forced in
        else:
            net.add_edge(("v", v), _SINK, capacity=g.m)
    for u, v in g.edges:
        net.add_edge(_SOURCE, ("e", u, v), capacity=1)
        net.add_edge(("e", u, v), ("v", u))
        net.add_edge(("e", u, v), ("v", v))
    # nx.minimum_cut reports the largest source side, so walk the residual
    # network from the source to get the smallest one
    residual = preflow_push(net, _SOURCE, _SINK, value_only=False)
    seen, stack = {_SOURCE}, [_SOURCE]
    while stack:
        node = stack.pop()
        for nxt, arc in residual[node].items():
            if nxt not in seen and arc["flow"] < arc["capacity"]:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(node[1] for node in seen if node[0] == "v")


def is_strong(g, a) -> bool:
    return least_closed_superset(g, a) == frozenset(a)


def _nx_graph(vertices, edges) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(vertices)
    out.add_edges_from(edges)
    return out


def induced_placements(pattern_vertices, pattern_edges, g) -> list[dict]:
    """Every induced embedding of the pattern into ``g``, by VF2."""
    matcher = isomorphism.GraphMatcher(
        _nx_graph(g.vertices, g.edges),
        _nx_graph(pattern_vertices, pattern_edges))
    return [{p: t for t, p in hit.items()}
            for hit in matcher.subgraph_isomorphisms_iter()]


def strong_extension_counts(g, base, attach) -> list[int]:
    """For every strong induced placement of ``g[base]``, the number of
    strong induced placements of ``g[base | attach]`` extending it, sorted."""
    base, attach = frozenset(base), frozenset(attach)
    strong: dict[frozenset, bool] = {}

    def strong_image(hit):
        image = frozenset(hit.values())
        if image not in strong:
            strong[image] = is_strong(g, image)
        return strong[image]

    def induced_edges(s):
        return [(u, v) for u, v in g.edges if u in s and v in s]

    key_order = sorted(base)
    per_base = Counter()
    for hit in induced_placements(base | attach, induced_edges(base | attach), g):
        if strong_image(hit):
            per_base[tuple(hit[v] for v in key_order)] += 1
    counts = []
    for hit in induced_placements(base, induced_edges(base), g):
        if strong_image(hit):
            counts.append(per_base[tuple(hit[v] for v in key_order)])
    return sorted(counts)
