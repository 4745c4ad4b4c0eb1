"""Independent replay checks for extension certificates.

Deliberately self-contained: the counting, orientation, and bijection checks
re-derive everything from raw certificate data rather than calling the
builder's helpers, so a bug shared with the builder cannot hide here.
"""

from __future__ import annotations

import itertools

from .extension import EPCertificate, EPProblem
from .graph import Graph, _Record


def _admits_bounded_orientation(g: Graph) -> bool:
    """Every edge gets charged to one endpoint, at most m per vertex.
    Depth-first charge flipping; fails exactly when some subset holds more
    than m times its size in edges."""
    cap = g.m
    owned = {v: set() for v in g.vertices}  # the edges charged to each vertex

    def other(e, x):
        return e[0] if e[1] == x else e[1]

    def relieve(root: str) -> bool:
        parent_edge = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            if len(owned[x]) < cap:
                cur = x
                while parent_edge[cur] is not None:
                    e = parent_edge[cur]
                    prev = other(e, cur)
                    owned[prev].remove(e)
                    owned[cur].add(e)
                    cur = prev
                return True
            for e in sorted(owned[x]):
                y = other(e, x)
                if y not in parent_edge:
                    parent_edge[y] = e
                    stack.append(y)
        return False

    for e in g.sorted_edges():
        u, v = e
        cand = min((u, v), key=lambda w: (len(owned[w]), w))
        if len(owned[cand]) < cap:
            owned[cand].add(e)
        elif relieve(u):
            owned[u].add(e)
        elif relieve(v):
            owned[v].add(e)
        else:
            return False
    return True


def _flipped_pair(a: Graph, b: Graph, f: dict) -> tuple | None:
    """The least pair of a's vertices whose edge status f, total on a, does
    not keep in b, or None.  Pairs are scanned only when a test in O(|E|)
    fails: f one-to-one into b, edges onto edges, and no more edges among
    the image than a has."""
    image = frozenset(f.values())
    if (len(image) == len(f) and image <= b.vertices and b.edges_within(image) == len(a.edges)
            and all(b.has_edge(f[u], f[v]) for u, v in a.edges)):
        return None
    for u, v in itertools.combinations(sorted(a.vertices), 2):
        if a.has_edge(u, v) != b.has_edge(f[u], f[v]):
            return (u, v)
    return None


class VerificationReport(_Record):
    ok: bool
    diagnostics: tuple

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "diagnostics": list(self.diagnostics)}


def verify_certificate(p: EPProblem, c: EPCertificate) -> VerificationReport:
    """Replay every certificate clause from scratch; diagnostics name each
    failed one."""
    diags = []
    a, b = p.a, c.b
    if a.m != b.m:
        diags.append(f"coefficient mismatch: problem {a.m}, result {b.m}")

    incl = dict(c.inclusion.pairs)
    if c.inclusion.source != a:
        diags.append("inclusion source is not the problem graph")
    if c.inclusion.target != b:
        diags.append("inclusion target is not the result graph")
    if set(incl) != set(a.vertices):
        diags.append("inclusion is not total on the problem graph")
    elif bad := _flipped_pair(a, b, incl):
        diags.append(f"inclusion is not induced at ({bad[0]}, {bad[1]})")

    count = b.m * len(b.vertices) - len(b.edges)
    if count != 0:
        diags.append(f"result count is {count}, expected 0")
    if not _admits_bounded_orientation(b):
        diags.append("result admits no bounded orientation: outside the class")

    if len(c.automorphisms) != len(p.maps):
        diags.append(
            f"{len(p.maps)} maps but {len(c.automorphisms)} automorphisms")
    for i, emb in enumerate(c.automorphisms):
        f = dict(emb.pairs)
        if emb.source != b or emb.target != b:
            diags.append(f"automorphism {i} is not a self-map of the result")
            continue
        if set(f) != set(b.vertices) or set(f.values()) != set(b.vertices):
            diags.append(f"automorphism {i} is not a vertex bijection")
            continue
        if bad := _flipped_pair(b, b, f):
            diags.append(
                f"automorphism {i} is not an automorphism: edge status flips at {bad}")
        if i < len(p.maps) and set(incl) == set(a.vertices):
            for d, r in sorted(p.maps[i].as_dict().items()):
                if f.get(incl[d]) != incl[r]:
                    diags.append(f"automorphism {i} does not extend its map at {d}")
                    break
    return VerificationReport(not diags, tuple(diags))
