"""Free amalgamation of two graphs over a shared self-sufficient base.

The amalgam adds no edges beyond the two factors, keeps the base's names
from the left factor, and relabels the right factor's private vertices away
from collisions.  Validation is eager: a bad specification fails before any
construction happens.  This is the checked front for outside input: the
package's own growth steps, whose inputs meet these checks by construction,
call graph.adjoin_copy directly.
"""

from __future__ import annotations

from .errors import AmalgamError, CoefficientMismatch, ConstructionFailed
from .graph import Embedding, Graph, _Record, adjoin_copy
from .predimension import is_in_k0, is_self_sufficient


class AmalgamSpec(_Record):
    left: Graph
    right: Graph
    base_in_left: Embedding
    base_in_right: Embedding


class AmalgamResult(_Record):
    graph: Graph
    left_embedding: Embedding
    right_embedding: Embedding


def verify_strong_pair(g: Graph, h: Graph, emb: Embedding) -> bool:
    """Whether emb realizes g as an induced, self-sufficient subgraph of h."""
    if emb.source != g or emb.target != h:
        return False
    if not emb.is_induced():
        return False
    return is_self_sufficient(h, emb.image)


def free_amalgam(spec: AmalgamSpec) -> AmalgamResult:
    """Glue left and right along the base with no extra edges.

    Requires both factors hereditarily nonnegative and both base images
    self-sufficient.  Then the result is hereditarily nonnegative with both
    factors induced and self-sufficient in it (Wagner 1994; Baldwin & Shi
    1996), so only its vertex and edge counts are checked after the build.
    """
    base = spec.base_in_left.source
    if spec.base_in_right.source != base:
        raise AmalgamError("base embeddings must share one base graph")
    if spec.left.m != spec.right.m:
        raise CoefficientMismatch(
            f"coefficients differ: {spec.left.m} vs {spec.right.m}")
    if spec.base_in_left.target != spec.left or spec.base_in_right.target != spec.right:
        raise AmalgamError("base embeddings must land in the declared factors")
    for side, g, emb in (
        ("left", spec.left, spec.base_in_left),
        ("right", spec.right, spec.base_in_right),
    ):
        if not emb.is_induced():
            raise AmalgamError(f"base embedding into {side} factor is not induced")
        if not is_in_k0(g):
            raise AmalgamError(f"{side} factor is not hereditarily nonnegative")
        if not is_self_sufficient(g, emb.image):
            raise AmalgamError(f"base image is not self-sufficient in the {side} factor")

    into_left = spec.base_in_left.as_dict()
    into_right = spec.base_in_right.as_dict()
    right_base_to_left = {into_right[b]: into_left[b] for b in into_left}

    # the left factor already has the base's edges: both base embeddings
    # are induced, so only the right factor's private part is copied in
    result, (fresh,) = adjoin_copy(
        spec.left, spec.right, spec.right.vertices - set(right_base_to_left),
        [right_base_to_left])

    left_emb = Embedding.build(spec.left, result, {v: v for v in spec.left.vertices})
    right_emb = Embedding.build(spec.right, result, {**right_base_to_left, **fresh})

    # the counts of a free amalgam; raised so python -O keeps the check
    sizes = [(len(g.vertices), len(g.edges)) for g in (result, spec.left, spec.right, base)]
    if any(whole != one + other - shared for whole, one, other, shared in zip(*sizes)):
        raise ConstructionFailed("free amalgam: a vertex or edge count is off")
    return AmalgamResult(result, left_emb, right_emb)
