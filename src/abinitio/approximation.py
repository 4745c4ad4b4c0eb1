"""Finite approximations of the generic structure for a sparsity class.

Grow a seed by realizing self-sufficient pattern extensions over every
placement found so far, extend partial isomorphisms to automorphisms by a
back-and-forth that only enlarges the ambient when no internal image exists,
and adjoin fresh points of prescribed relative count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import limits
from .amalgam import AmalgamSpec, free_amalgam
from .errors import ConstructionFailed, InvalidMap, OutsideK0
from .graph import (
    Embedding, EmbeddingPlan, Graph, PartialIso, adjoin_copy, fresh_name)
from .predimension import _closure_set, delta_rel, is_in_k0, is_self_sufficient


# -- realizing pattern extensions --------------------------------------------


def realize_extension(
    current: Graph, pattern_base: Graph, pattern_ext: Graph, at: Embedding
) -> Graph:
    """Free amalgam of the current stage with the extension pattern over the
    placed base.  The current stage keeps its names and stays self-sufficient
    in the result."""
    if pattern_base.m != pattern_ext.m:
        raise InvalidMap("base and extension pattern coefficients differ")
    if not pattern_base.vertices <= pattern_ext.vertices:
        raise InvalidMap("the base pattern must be a subgraph of the extension pattern")
    if pattern_ext.induced(pattern_base.vertices) != pattern_base:
        raise InvalidMap("the base pattern must be induced in the extension pattern")
    spec = AmalgamSpec(
        left=current,
        right=pattern_ext,
        base_in_left=at,
        base_in_right=Embedding.build(
            pattern_base, pattern_ext, {v: v for v in pattern_base.vertices}),
    )
    return free_amalgam(spec).graph


@dataclass(frozen=True)
class ApproximationChain:
    stages: tuple
    task_log: tuple
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "stages": [g.to_json_dict() for g in self.stages],
            "task_log": list(self.task_log),
            "truncated": self.truncated,
        }


_CATALOGS: dict = {}


def pattern_catalog(m: int, size_budget: int) -> tuple:
    """All member graphs of the class up to the size budget, one per
    isomorphism type, on canonical vertex names, smallest edge sets first.
    Memoized per argument pair in a plain dict, so that this stays a
    function that tracers can wrap."""
    key = (m, size_budget)
    if key in _CATALOGS:
        return _CATALOGS[key]
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
            if any(len(h.edges) == len(g.edges) and plan.first(g) is not None
                   for h, plan in found):
                continue
            found.append((g, EmbeddingPlan(g)))
        out.extend(g for g, _ in found)
    _CATALOGS[key] = tuple(out)
    return _CATALOGS[key]


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


_TASKS: dict = {}


def _tasks(m: int, size_budget: int) -> tuple:
    """Every (extension, base pattern, extension plan pinned at the base,
    base plan) in catalog order, one per base choice: compiled once per
    argument pair, like pattern_catalog, so that the plans' lazily built
    layouts serve every later call."""
    key = (m, size_budget)
    if key not in _TASKS:
        tasks = []
        for ext in pattern_catalog(m, size_budget):
            for base_set in _base_choices(ext):
                base = ext.induced(base_set)
                tasks.append((ext, base, EmbeddingPlan(ext, pinned=base_set), EmbeddingPlan(base)))
        _TASKS[key] = tuple(tasks)
    return _TASKS[key]


def build_approximation(
    seed: Graph,
    rounds: int,
    size_budget: int,
    max_ambient: int = limits.DEFAULT_MAX_AMBIENT,
) -> ApproximationChain:
    """Round-robin realization of every (base <= extension) pattern pair over
    every strong placement of the base present when the round starts.  The
    chain stops, marked truncated, before a task would grow the stage past
    max_ambient vertices."""
    if not is_in_k0(seed):
        raise OutsideK0("seed is not hereditarily nonnegative")
    tasks = _tasks(seed.m, size_budget)
    stages = [seed]
    task_log = []
    current = seed
    truncated = False
    for rnd in range(rounds):
        snapshot = current
        queue = []
        for ext, base_pattern, plan, base_plan in tasks:
            for p in base_plan.pairs(snapshot, None, is_self_sufficient):
                queue.append((ext, base_pattern, plan, dict(p)))
        for ext, base_pattern, plan, at_map in queue:
            # an empty map counts as no placement, so the empty pattern is
            # realized (as a no-op) every round
            if plan.first(current, at_map, is_self_sufficient):
                continue
            if len(current.vertices) + len(ext.vertices) - len(at_map) > max_ambient:
                truncated = True
                break
            at = Embedding.build(base_pattern, current, at_map)
            current = realize_extension(current, base_pattern, ext, at)
            task_log.append({
                "round": rnd,
                "extension": ext.to_json_dict(),
                "base": sorted(base_pattern.vertices),
                "at": sorted(at_map.items()),
            })
        stages.append(current)
        if truncated:
            break
    return ApproximationChain(tuple(stages), tuple(task_log), truncated)


# -- back-and-forth automorphism extension ------------------------------------


def _extend_one_side(ambient: Graph, phi: dict, v: str) -> tuple:
    """One forth step: bring v into the domain of phi, growing the ambient by
    a fresh copy of the closure increment when no internal image fits."""
    n = _closure_set(ambient, frozenset(phi) | {v})
    plan = EmbeddingPlan(ambient.induced(n), pinned=phi)
    hit = plan.first(ambient, phi, is_self_sufficient)
    if hit is not None:
        return ambient, hit
    new_part = n - frozenset(phi)
    grown, (relabel,) = adjoin_copy(ambient, ambient, new_part, [phi])
    if not is_in_k0(grown):
        raise ConstructionFailed("back-and-forth: the grown ambient is outside K0")
    if not is_self_sufficient(grown, ambient.vertices):
        raise ConstructionFailed("back-and-forth: the ambient is not strong in the grown one")
    out = dict(phi)
    out.update({w: relabel[w] for w in new_part})
    return grown, out


def _total_extension(ambient: Graph, phi: dict) -> Embedding | None:
    """The first automorphism of the ambient extending phi, or None.  A total
    phi pins every position, so it is its own only candidate."""
    if len(phi) == len(ambient.vertices):
        gamma = Embedding.build(ambient, ambient, phi)
        return gamma if gamma.is_induced() else None
    total = EmbeddingPlan(ambient, pinned=phi).first(ambient, phi)
    return None if total is None else Embedding.build(ambient, ambient, total)


def extend_partial_iso(ambient: Graph, g: PartialIso, steps: int = 32) -> tuple:
    """Total automorphism extending g, growing the ambient only when forced.
    Alternates pulling the least unmatched vertex into the domain and into
    the range."""
    if g.ambient != ambient:
        raise InvalidMap("map does not live in the given ambient")
    if not is_self_sufficient(ambient, g.domain):
        raise InvalidMap("domain is not self-sufficient")
    if not is_self_sufficient(ambient, g.range):
        raise InvalidMap("range is not self-sufficient")
    phi = g.as_dict()
    current = ambient
    for _ in range(steps):
        gamma = _total_extension(current, phi)
        if gamma is not None:
            return current, gamma
        missing_dom = sorted(set(current.vertices) - set(phi))
        if missing_dom:
            current, phi = _extend_one_side(current, phi, missing_dom[0])
        missing_rng = sorted(set(current.vertices) - set(phi.values()))
        if missing_rng:
            inverse = {r: d for d, r in phi.items()}
            current, inverse = _extend_one_side(current, inverse, missing_rng[0])
            phi = {r: d for d, r in inverse.items()}
        if not missing_dom and not missing_rng:
            break
    gamma = _total_extension(current, phi)
    if gamma is not None:
        return current, gamma
    raise ConstructionFailed(f"no total extension within {steps} rounds")


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
    out = Graph(ambient.m, set(ambient.vertices) | {fresh}, edges)
    if delta_rel(out, frozenset([fresh]), target) != relative_delta:
        raise ConstructionFailed(f"generic point: it does not count {relative_delta} over the set")
    if relative_delta >= 1 and not is_self_sufficient(out, ambient.vertices):
        raise ConstructionFailed("generic point: the ambient is not self-sufficient with it")
    return out
