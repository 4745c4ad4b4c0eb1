"""Finite approximations of the generic structure for a sparsity class.

Grow a seed by realizing self-sufficient pattern extensions over every
placement found so far, extend partial isomorphisms to automorphisms by a
back-and-forth that only enlarges the ambient when no internal image exists,
and adjoin fresh points of prescribed relative count.

A round of the chain lists each distinct pattern's strong embeddings into
the stage it starts from on first use, and answers from those listings
every check that a placement's extension already exists there.  That is
exact: each realization is a free amalgam, which adds no edge between old
points, and it keeps the stage self-sufficient, so by transitivity of <=
(Wagner, "Relational structures and dimensions", 1994) a strong embedding
into the round's first stage stays induced and strong in every later one.
One existence search in the current stage decides each placement left open.

The chain and the back-and-forth grow their own graphs by adjoin_copy, the
copy free_amalgam ends in, as their inputs meet its checks by construction;
free_amalgam is the checked front for outside input.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator

from . import limits
from .errors import ConstructionFailed, InvalidMap, OutsideK0
from .graph import (
    Embedding, EmbeddingPlan, Graph, PartialIso, _picker, _Record, adjoin_copy, fresh_name)
from .predimension import _closure_set, is_in_k0, is_self_sufficient


# -- approximation chains ---------------------------------------------------


class ApproximationChain(_Record):
    stages: tuple
    task_log: tuple
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "stages": [g.to_json_dict() for g in self.stages],
            "task_log": list(self.task_log),
            "truncated": self.truncated,
        }


def pattern_catalog(m: int, size_budget: int) -> tuple:
    """All member graphs of the class up to the size budget, one per
    isomorphism type, on canonical vertex names, smallest edge sets first.
    Memoized per argument pair in _catalog, so that this stays a function
    that tracers can wrap."""
    limits.nonnegative("size_budget", size_budget)
    return _catalog(m, size_budget)


@lru_cache(maxsize=None)
def _catalog(m: int, size_budget: int) -> tuple:
    out = []
    for n in range(size_budget + 1):
        names = [f"p{i + 1}" for i in range(n)]
        slots = list(itertools.combinations(sorted(names), 2))
        found = []  # (graph, its plan); an embedding between equal sizes is an isomorphism
        for bits in range(2 ** len(slots)):
            edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
            g = Graph(m, names, edges)
            if not is_in_k0(g):
                continue
            if any(len(h.edges) == len(g.edges) and plan.exists(g) for h, plan in found):
                continue
            found.append((g, EmbeddingPlan(g)))
        out.extend(g for g, _ in found)
    return tuple(out)


def _base_choices(ext: Graph) -> list:
    """Self-sufficient subsets of the extension pattern, one per orbit of its
    automorphism group."""
    autos = [dict(p) for p in EmbeddingPlan(ext).pairs(ext)]
    chosen = []
    emitted = set()
    for size in range(len(ext.vertices) + 1):
        for combo in itertools.combinations(ext.sorted_vertices(), size):
            s = frozenset(combo)
            if s in emitted:
                continue
            if not is_self_sufficient(ext, s):
                continue
            for a in autos:
                emitted.add(frozenset(a[v] for v in s))
            chosen.append(s)
    return chosen


@lru_cache(maxsize=None)
def _tasks(m: int, size_budget: int) -> tuple:
    """The distinct patterns, extensions and bases compared by value, each
    with one unpinned plan; and every task in catalog order, one per base
    choice, as (extension's number, base's number, extension plan pinned at
    the base, the _picker taking an embedding of the extension, as sorted
    (vertex, image) pairs, to the tuple of its pairs on the base).  Compiled
    once per argument pair, like pattern_catalog, so that the plans' lazily
    built layouts serve every later call."""
    number: dict = {}
    tasks = []
    for ext in pattern_catalog(m, size_budget):
        names = ext.sorted_vertices()
        for base_set in _base_choices(ext):
            tasks.append((
                number.setdefault(ext, len(number)),
                number.setdefault(ext.induced(base_set), len(number)),
                EmbeddingPlan(ext, pinned=base_set),
                _picker([i for i, v in enumerate(names) if v in base_set])))
    return tuple((g, EmbeddingPlan(g)) for g in number), tuple(tasks)


def _open_placements(patterns: tuple, tasks: tuple, listing: Callable) -> Iterator:
    """Per task in order, the placements of its base in listing(base's
    number) that no embedding in listing(extension's number) restricts to,
    as (extension, base, pinned plan, placement pairs).  Lazy, so a
    truncated round lists only the patterns its reached tasks read.  The
    empty extension's task is realized (as a no-op) every round."""
    for ext_id, base_id, plan, restrict in tasks:
        ext, base = patterns[ext_id][0], patterns[base_id][0]
        met = set(map(restrict, listing(ext_id))) if ext.vertices else ()
        for p in listing(base_id):
            if p not in met:
                yield ext, base, plan, p


def build_approximation(
    seed: Graph,
    rounds: int,
    size_budget: int,
    max_ambient: int = limits.DEFAULT_MAX_AMBIENT,
) -> ApproximationChain:
    """Round-robin realization of every (base <= extension) pattern pair over
    every strong placement of the base present when the round starts.  The
    chain stops, marked truncated, before a task would grow the stage past
    max_ambient vertices.  A negative rounds, size_budget or max_ambient is
    a ValueError.

    A round lists a pattern's strong embeddings into the stage it starts
    from on first use, never twice.  A placement of a base that a listed
    embedding of the extension restricts to needs nothing; every other one
    is decided by one existence search in the current stage.

    A realization is free_amalgam's copy step alone, as its checks hold:
    the seed is checked in K0 and patterns are in K0, each base is strong in
    its extension (_base_choices), and each placement by its listing and
    transitivity of <=."""
    limits.nonnegative("rounds", rounds)
    limits.nonnegative("size_budget", size_budget)
    limits.nonnegative("max_ambient", max_ambient)
    if not is_in_k0(seed):
        raise OutsideK0("seed is not hereditarily nonnegative")
    patterns, tasks = _tasks(seed.m, size_budget)
    stages = [seed]
    task_log = []
    current = seed
    truncated = False
    for rnd in range(rounds):
        listing = lru_cache(maxsize=None)(
            lambda i, start=current: patterns[i][1].pairs(start, None, is_self_sufficient))
        for ext, base_pattern, plan, at_pairs in _open_placements(patterns, tasks, listing):
            at_map = dict(at_pairs)
            if ext.vertices and plan.exists(current, at_map, is_self_sufficient):
                continue
            if len(current.vertices) + len(ext.vertices) - len(at_map) > max_ambient:
                truncated = True
                break
            current = adjoin_copy(current, ext, ext.vertices - base_pattern.vertices, [at_map])[0]
            task_log.append({"round": rnd, "extension": ext.to_json_dict(),
                             "base": sorted(base_pattern.vertices), "at": sorted(at_pairs)})
        stages.append(current)
        if truncated:
            break
    return ApproximationChain(tuple(stages), tuple(task_log), truncated)


# -- back-and-forth automorphism extension ------------------------------------


def _extend_one_side(ambient: Graph, phi: dict, v: str) -> tuple:
    """One forth step: bring v into the domain of phi.  With no internal image
    the ambient grows by a copy of n, the closure of phi's domain and v,
    glued along phi: free_amalgam's result, as its checks hold.  _closure_set
    raises OutsideK0 before any growth, and phi's domain and range are
    strong, checked at entry and kept: n is strong, a hit's image is tested
    strong, and the amalgam holds both the copy of n and the old ambient
    strong."""
    n = _closure_set(ambient, frozenset(phi) | {v})
    hit = EmbeddingPlan(ambient.induced(n), pinned=phi).first(ambient, phi, is_self_sufficient)
    if hit is not None:
        return ambient, hit
    grown, (fresh,) = adjoin_copy(ambient, ambient, n - phi.keys(), [phi])
    return grown, {**phi, **fresh}


def _total_extension(ambient: Graph, phi: dict) -> Embedding | None:
    """The first automorphism of the ambient extending phi, or None."""
    total = EmbeddingPlan(ambient, pinned=phi).first(ambient, phi)
    return None if total is None else Embedding.build(ambient, ambient, total)


def extend_partial_iso(ambient: Graph, g: PartialIso, steps: int = 32) -> tuple:
    """Total automorphism extending g, growing the ambient only when forced.
    Alternates pulling the least unmatched vertex into the domain and into
    the range.  Failing within the steps raises ConstructionFailed with one
    stage log entry per step: its side, the vertex brought in, whether the
    ambient grew and its size after."""
    limits.nonnegative("steps", steps)
    if g.ambient != ambient:
        raise InvalidMap("map does not live in the given ambient")
    if not is_self_sufficient(ambient, g.domain):
        raise InvalidMap("domain is not self-sufficient")
    if not is_self_sufficient(ambient, g.range):
        raise InvalidMap("range is not self-sufficient")
    phi = g.as_dict()
    current = ambient
    log = []
    for step in range(steps + 1):
        gamma = _total_extension(current, phi)
        if gamma is not None:
            return current, gamma
        if step == steps:
            break
        # forth on phi, then back on its inverse; phi is inverted after each
        for side in ("forth", "back"):
            if missing := min(current.vertices - phi.keys(), default=None):
                grown, phi = _extend_one_side(current, phi, missing)
                log.append({"side": side, "vertex": missing, "grown": grown is not current,
                            "size": len(grown.vertices)})
                current = grown
            phi = {r: d for d, r in phi.items()}
    raise ConstructionFailed(f"no total extension within {steps} rounds", stage_log=log)


def add_generic_point(ambient: Graph, over, relative_delta: int) -> Graph:
    """One fresh vertex with m - relative_delta edges into the canonically
    least members of a self-sufficient set."""
    target = ambient.check_subset(over)
    if not is_self_sufficient(ambient, target):
        raise InvalidMap("the attachment set must be self-sufficient")
    if not 0 <= relative_delta <= ambient.m:
        raise InvalidMap(
            f"relative count must lie in 0..{ambient.m}, got {relative_delta}")
    k = ambient.m - relative_delta
    if len(target) < k:
        raise InvalidMap(f"need {k} attachment targets, set has {len(target)}")
    fresh = fresh_name("x", set(ambient.vertices))
    edges = list(ambient.sorted_edges()) + [(fresh, t) for t in sorted(target)[:k]]
    return Graph(ambient.m, set(ambient.vertices) | {fresh}, edges)
