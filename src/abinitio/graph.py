"""Finite simple graphs with a sparsity coefficient, and maps between them.

Vertices are opaque strings ordered lexicographically; every enumeration in
the package derives its order from that, so repeated runs are reproducible
byte for byte.  Graphs are immutable: all "mutating" operations build new
values.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache, reduce
from math import prod
from operator import and_, attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

from .errors import CoefficientMismatch, InvalidMap, UnknownVertex


def normalize_edge(u: str, v: str) -> tuple[str, str]:
    if u == v:
        raise InvalidMap(f"loop edge at {u!r} not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected simple graph together with an integer coefficient m >= 2.

    The coefficient scales the vertex weight in the rank-like count
    m*|s| - edges(s) used throughout the package.
    """

    __slots__ = ("m", "vertices", "edges", "_adj")

    def __init__(self, m: int, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        if not isinstance(m, int) or m < 2:
            raise InvalidMap(f"coefficient must be an integer >= 2, got {m!r}")
        vs = frozenset(vertices)
        for v in vs:
            if not isinstance(v, str) or not v:
                raise InvalidMap(f"vertex names must be nonempty strings, got {v!r}")
        es = frozenset(normalize_edge(u, v) for (u, v) in edges)
        for (u, v) in es:
            if u not in vs or v not in vs:
                raise UnknownVertex(f"edge ({u!r}, {v!r}) mentions a vertex outside the graph")
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for (u, v) in es:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.m == other.m and self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.m, self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(m={self.m}, |V|={len(self.vertices)}, |E|={len(self.edges)})"

    def __reduce__(self):
        # for copy and pickle, whose default restores the slots by __setattr__
        return _unchecked, (self.m, self.vertices, self._adj, self.edges)

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: str) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return normalize_edge(u, v) in self.edges

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def check_subset(self, s: Iterable[str]) -> frozenset:
        if isinstance(s, str):  # else read as a set of one-letter names
            raise TypeError(f"expected a collection of vertex names, got the string {s!r}")
        sub = frozenset(s)
        missing = sub - self.vertices
        if missing:
            raise UnknownVertex(f"unknown vertices: {sorted(missing)}")
        return sub

    def edges_within(self, s: frozenset) -> int:
        # counts each edge once; callers pass validated subsets
        total = 0
        for v in s:
            total += len(self._adj[v] & s)
        return total // 2

    def induced(self, s: Iterable[str]) -> "Graph":
        sub = self.check_subset(s)
        adj = {v: self._adj[v] & sub for v in sub}
        return _unchecked(self.m, sub, adj, frozenset([(u, v) for u in sub for v in adj[u]
                                                       if u < v]))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "vertices": self.sorted_vertices(),
            "edges": [[u, v] for (u, v) in self.sorted_edges()],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict, m_override: int | None = None) -> "Graph":
        if not isinstance(d, dict):
            raise ValueError("graph document must be a JSON object")
        for key in ("m", "vertices", "edges"):
            if key not in d:
                raise ValueError(f"graph document missing {key!r}")
        m = m_override if m_override is not None else d["m"]
        for key in ("vertices", "edges"):
            if not isinstance(d[key], list):
                raise ValueError(f"{key!r} must be a JSON array, got {d[key]!r}")
        for e in d["edges"]:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"malformed edge {e!r}")
        for v in itertools.chain(d["vertices"], *d["edges"]):
            if not isinstance(v, str):
                raise ValueError(f"vertex names must be strings, got {v!r}")
        edges = [tuple(sorted(e)) for e in d["edges"]]
        for kind, items in (("vertex", sorted(d["vertices"])), ("edge", sorted(edges))):
            twice = [x for x, y in zip(items, items[1:]) if x == y]
            if twice:
                raise ValueError(f"graph document lists the {kind} {twice[0]!r} twice")
        return cls(m, d["vertices"], edges)

    @classmethod
    def from_json(cls, text: str, m_override: int | None = None) -> "Graph":
        return cls.from_json_dict(json.loads(text), m_override=m_override)


def _unchecked(m: int, vertices: frozenset, adj: dict, edges: frozenset) -> Graph:
    """A graph from the parts of a valid one, built with nothing to check."""
    g = object.__new__(Graph)
    for name, value in (("m", m), ("vertices", vertices), ("_adj", adj), ("edges", edges)):
        object.__setattr__(g, name, value)
    return g


def canonical_json(obj) -> str:
    """Canonical serialization: stable key order, two-space indent, newline at end."""
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


# -- edge counts ----------------------------------------------------------


def count_cross_edges(g: Graph, s: frozenset, t: frozenset) -> int:
    return sum(len(g.neighbors(v) & t) for v in s)


# -- maps ----------------------------------------------------------------


class _Record:
    """An immutable record of the fields its class annotates, in order: built by
    position or by name, then checked by __post_init__; equal field by field
    within one class, hashed as the field tuple, shown as Qualname(field=value, ...)."""

    def __init_subclass__(cls):
        fields = cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)  # a tuple, as every record has two fields or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            named = dict(zip(fields, args))
            if len(args) > len(fields) or named.keys() & kwargs or set(fields) != {*named, *kwargs}:
                raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
            args = map({**named, **kwargs}.__getitem__, fields)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"


def _mapping_tuple(mapping) -> tuple:
    items = mapping.items() if isinstance(mapping, dict) else mapping
    return tuple(sorted((str(a), str(b)) for a, b in items))


class Embedding(_Record):
    """An injective map between graphs, stored as sorted pairs.

    Injectivity and endpoint validity are enforced at construction;
    edge-and-nonedge preservation is checked by is_induced(), because some
    consumers need to talk about candidate maps that fail it.
    """

    source: Graph
    target: Graph
    pairs: tuple

    @classmethod
    def build(cls, source: Graph, target: Graph, mapping) -> "Embedding":
        return cls(source, target, _mapping_tuple(mapping))

    def __post_init__(self):
        seen_src, seen_dst = set(), set()
        for (a, b) in self.pairs:
            if a not in self.source.vertices:
                raise UnknownVertex(f"map source {a!r} not in source graph")
            if b not in self.target.vertices:
                raise UnknownVertex(f"map target {b!r} not in target graph")
            if a in seen_src:
                raise InvalidMap(f"duplicate source vertex {a!r}")
            if b in seen_dst:
                raise InvalidMap(f"map is not injective at {b!r}")
            seen_src.add(a)
            seen_dst.add(b)
        if seen_src != self.source.vertices:
            missing = sorted(self.source.vertices - seen_src)
            raise InvalidMap(f"embedding must be total on the source; missing {missing}")

    def as_dict(self) -> dict:
        return dict(self.pairs)

    @property
    def image(self) -> frozenset:
        return frozenset(b for (_, b) in self.pairs)

    def __call__(self, v: str) -> str:
        for (a, b) in self.pairs:
            if a == v:
                return b
        raise UnknownVertex(f"{v!r} not in embedding domain")

    def is_induced(self) -> bool:
        # the map is injective and total, so comparing each vertex's
        # neighbourhood with its image's neighbours in the image covers every pair
        f, image = self.as_dict(), self.image
        sadj, tadj = self.source._adj, self.target._adj
        return all(tadj[f[a]] & image == {f[b] for b in sadj[a]} for a in f)


class PartialIso(_Record):
    """A partial isomorphism inside one ambient graph.

    The mapping must be a bijection between its domain and range whose
    induced subgraphs it matches edge for edge.
    """

    ambient: Graph
    pairs: tuple

    @classmethod
    def build(cls, ambient: Graph, mapping) -> "PartialIso":
        return cls(ambient, _mapping_tuple(mapping))

    def __post_init__(self):
        f = {}
        seen_dst = set()
        for (a, b) in self.pairs:
            self.ambient.check_subset([a, b])
            if a in f:
                raise InvalidMap(f"duplicate domain vertex {a!r}")
            if b in seen_dst:
                raise InvalidMap(f"map is not injective at {b!r}")
            f[a] = b
            seen_dst.add(b)
        vs = sorted(f)
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                if self.ambient.has_edge(a, b) != self.ambient.has_edge(f[a], f[b]):
                    raise InvalidMap(
                        f"pairs ({a!r},{b!r}) break the induced-isomorphism requirement")

    def as_dict(self) -> dict:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset:
        return frozenset(a for (a, _) in self.pairs)

    @property
    def range(self) -> frozenset:
        return frozenset(b for (_, b) in self.pairs)


# -- embedding enumeration ----------------------------------------------


def _check_coefficient(a: Graph, c: Graph) -> None:
    if a.m != c.m:
        raise CoefficientMismatch(f"coefficients differ: {a.m} vs {c.m}")


def _positions(adj: dict, order: list) -> tuple:
    """A search order with each position's earlier adjacent and non-adjacent
    positions and its degree."""
    adjacent, apart = [], []
    for i, v in enumerate(order):
        near = adj[v]
        adjacent.append(tuple([j for j in range(i) if order[j] in near]))
        apart.append(tuple([j for j in range(i) if order[j] not in near]))
    return tuple(order), tuple(adjacent), tuple(apart), tuple([len(adj[v]) for v in order])


def _greedy(adj: dict, placed: frozenset, pool: Iterable[str]) -> list:
    """pool in search order: next the vertex with the most neighbours in
    placed or taken before it (ties: higher degree, then smaller name)."""
    rank = {u: (-len(adj[u] & placed), -len(adj[u]), u) for u in pool}
    order = []
    while rank:
        v = min(rank, key=rank.__getitem__)
        del rank[v]
        order.append(v)
        for u in adj[v] & rank.keys():
            rank[u] = (rank[u][0] - 1, -len(adj[u]), u)
    return order


def _picker(at: list) -> Callable:
    """The function taking a sequence or a map to the tuple of its items at at."""
    return itemgetter(*at) if len(at) > 1 else lambda seq: tuple([seq[i] for i in at])


class EmbeddingPlan:
    """A search for induced embeddings of one pattern, compiled once and run
    against any number of targets: images() lists them as sorted image
    tuples, pairs() as (vertex, image) pairs, count_keyed() counts them by
    class for many pin maps at once, first() returns the least one, exists()
    whether there is one and representatives() one per image set.

    The search order puts the pins first, then the vertex with the most
    placed neighbours (ties: higher degree, then smaller name); a position
    keeps its earlier adjacent and non-adjacent positions and its degree.
    Every mode reads one search, the generator _run.  Unpinned, images()
    lists one representative per image set, _shape's conditions alone
    pruning the search, tests it once and reads it through each automorphism
    (_turns, compiled at the first strong one, so a listing without one
    lists no group).  first()
    searches the free vertices alone in name order, candidates sorted, so it
    meets the least embedding first.
    """

    __slots__ = ("pattern", "pinned", "order", "adjacent", "apart", "degrees", "_by_name",
                 "_name_layout", "_free_layout", "_turns")

    def __init__(self, a: Graph, pinned: Iterable[str] = ()):
        self.pattern = a
        self.pinned = a.check_subset(pinned)
        self._name_layout = self._free_layout = None

    def __getattr__(self, name: str):
        """The connectivity-first layout, compiled on its first use: first()
        and a count plan run without it; and _turns, per automorphism of the
        pattern, in name order, a picker of a representative's images."""
        if name == "_turns":
            by_name = sorted(range(len(self.order)), key=self.order.__getitem__)
            self._turns = [_picker(q) for q in _products(_shape(self.adjacent)[2], by_name)]
            return self._turns
        if name not in ("order", "adjacent", "apart", "degrees", "_by_name"):
            raise AttributeError(name)
        adj, pins = self.pattern._adj, self.pinned
        order = _greedy(adj, frozenset(), pins) + _greedy(adj, pins, self.pattern.vertices - pins)
        self.order, self.adjacent, self.apart, self.degrees = _positions(adj, order)
        self._by_name = _picker(sorted(range(len(order)), key=order.__getitem__))
        return getattr(self, name)

    def _pins(self, c: Graph, fixed: dict | None) -> dict:
        _check_coefficient(self.pattern, c)
        fixed = fixed or {}
        if fixed.keys() != self.pinned:
            raise InvalidMap(f"pins {sorted(fixed)} differ from the plan's {sorted(self.pinned)}")
        if not c.vertices.issuperset(fixed.values()):
            for v in fixed.values():
                c.check_subset([v])
        return fixed

    def _free_positions(self) -> tuple:
        """The layout of the free vertices alone, in the order that follows
        the pins (_greedy), which are never ordered; per free position its
        pinned neighbours; and all of those, the touched pins, in name order."""
        if self._free_layout is None:
            adj, pins = self.pattern._adj, self.pinned
            free = _greedy(adj, pins, self.pattern.vertices - pins)
            contacts = tuple([tuple(adj[v] & pins) for v in free])
            self._free_layout = (_positions(adj, free), contacts, tuple(sorted(set().union(*contacts))))
        return self._free_layout

    @property
    def touched(self) -> tuple:
        """The pinned vertices adjacent to a free one, in name order."""
        return self._free_positions()[2]

    def count_keyed(self, c: Graph, keys: list, tables: dict,
                    is_strong: Callable | None = None) -> list:
        """The count of each key (image set S, touched pins' images) of pins
        that embed the pinned vertices into c induced, unchecked, by class:
        S's table in tables, {image set: {tuple: count}}, and the tuple of the
        images of the pins adjacent to each free position.  A table that gains
        classes is zeroed and tallied again; the rest keep their counts."""
        _check_coefficient(self.pattern, c)
        _, contacts, touched = self._free_positions()
        at = {x: i for i, x in enumerate(touched)}
        near_at = [[at[x] for x in near] for near in contacts]
        sizes = {image: len(table) for image, table in tables.items()}
        memo: dict = {}  # key -> (its table, its tuple)
        for key in keys:
            if key not in memo:
                near = tuple([frozenset([key[1][i] for i in ids]) for ids in near_at])
                tables.setdefault(key[0], {}).setdefault(near, 0)
                memo[key] = (tables[key[0]], near)
        stale = {image: table for image, table in tables.items() if len(table) != sizes.get(image)}
        for table in stale.values():
            table.update(dict.fromkeys(table, 0))
        if stale:
            self.tally(c, stale, is_strong)
        return [table[near] for table, near in map(memo.__getitem__, keys)]

    def tally(self, c: Graph, tables: dict, is_strong: Callable | None = None) -> None:
        """Fill in tables as count_keyed files them: for each image set S and
        tuple, the embeddings of the free vertices into c - S whose images
        have those neighbours in S and pass is_strong; a pin constrains them
        only by adjacency, so that counts every pin map onto S of the class.
        Strength is tested once per image set, for hits some tuple asks for."""
        _check_coefficient(self.pattern, c)
        layout = self._free_positions()[0]
        for image, table in tables.items():
            _tally(c, layout, image, table, is_strong)

    def count_each(self, c: Graph, fixeds: list, is_strong: Callable | None = None) -> list:
        """[len(pairs(c, f, is_strong)) for f in fixeds], through count_keyed."""
        pick = _picker(self.touched)
        keys = [(frozenset(f.values()), pick(f)) for f in fixeds]
        return self.count_keyed(c, keys, {}, is_strong)

    def representatives(self, c: Graph) -> list:
        """For an unpinned plan, one embedding per image set, as a map: the
        one meeting its shape's conditions (_shape).  Every embedding onto
        that set is this one composed with an automorphism of the pattern."""
        self._pins(c, None)
        order = self.order
        return [dict(zip(order, img)) for img in _run(
            c, (order, self.adjacent, self.apart, self.degrees), _shape(self.adjacent)[0])]

    def embeds_within(self, c: Graph, pins_into: frozenset, free_into: frozenset) -> bool:
        """Whether some induced embedding into c maps the pinned vertices
        into pins_into and the free ones into free_into."""
        _check_coefficient(self.pattern, c)
        k = len(self.pinned)
        return _first_hit(c, (self.order, self.adjacent, self.apart, self.degrees),
                          [pins_into] * k + [free_into] * (len(self.order) - k)) is not None

    def exists(self, c: Graph, fixed: dict | None = None,
               is_strong: Callable | None = None) -> bool:
        """Whether pairs(c, fixed, is_strong) is nonempty, by one search in
        the connectivity-first order: no least map is sought."""
        fixed = self._pins(c, fixed)
        return _first_hit(c, (self.order, self.adjacent, self.apart, self.degrees),
                          [fixed.get(p) for p in self.order], is_strong) is not None

    def pin_images(self) -> list:
        """The images of the pins, in name order, under the pattern's
        automorphisms, one tuple per restriction: the layout puts the k pins
        first, so the products of the first k levels of its shape's chain
        (_shape) give each restriction once."""
        at = [self.order.index(p) for p in sorted(self.pinned)]
        levels = _shape(self.adjacent)[2][:len(at)]
        return [tuple([self.order[i] for i in q]) for q in _products(levels, at)]

    def images(self, c: Graph, fixed: dict | None = None,
               is_strong: Callable | None = None) -> list:
        """Every embedding as its images of the pattern's vertices in name
        order, sorted; with is_strong, only those whose image passes it."""
        fixed, strong = self._pins(c, fixed), _strength(c, is_strong)
        layout = (self.order, self.adjacent, self.apart, self.degrees)
        if fixed:
            return sorted([self._by_name(img) for img in _run(
                c, layout, [fixed.get(p) for p in self.order]) if strong(img)])
        reps = [tuple(img) for img in _run(c, layout, _shape(self.adjacent)[0]) if strong(img)]
        return sorted([get(img) for img in reps for get in self._turns])

    def pairs(self, c: Graph, fixed: dict | None = None,
              is_strong: Callable | None = None) -> list:
        """images() as sorted (vertex, image) pairs: one listing, two shapes."""
        names = sorted(self.pattern.vertices)
        return [tuple(zip(names, t)) for t in self.images(c, fixed, is_strong)]

    def first(self, c: Graph, fixed: dict | None = None,
              is_strong: Callable | None = None,
              within: frozenset | None = None) -> dict | None:
        """The map of pairs(c, fixed, is_strong)[0], or None: the name-ordered
        search stops at its first strong hit.  within, when given, holds the
        free vertices' images.  The pin map is checked once (injective, no
        image of lower degree than its vertex, induced); then each free vertex
        is searched among the sorted points outside the pins' image whose
        neighbours there are the images of its pinned neighbours (_outside)."""
        fixed = self._pins(c, fixed)
        adj, pins = self.pattern._adj, self.pinned
        cadj, image = c._adj, frozenset(fixed.values())
        if len(image) != len(fixed) or any(
                len(cadj[t]) < len(adj[p]) or cadj[t] & image != {fixed[q] for q in adj[p] & pins}
                for p, t in fixed.items()):
            return None
        if self._name_layout is None:
            # the free vertices, each one's pinned neighbours, and their
            # layout, compiled by the first call that gets to search
            names = sorted(self.pattern.vertices - pins)
            self._name_layout = [names, [tuple(adj[v] & pins) for v in names], None]
        names, contacts, layout = self._name_layout
        pool = c.vertices if within is None else c.vertices & within
        wants = [frozenset([fixed[q] for q in near]) for near in contacts]
        found = _outside(cadj, image, set(wants), pool)
        domains = [sorted(found[want]) for want in wants]
        if not all(domains):
            return None
        if layout is None:
            layout = self._name_layout[2] = _positions(adj, names)
        hit = _first_hit(c, layout, domains, is_strong, image)
        return None if hit is None else dict(sorted([*fixed.items(), *zip(names, hit)]))


@lru_cache(maxsize=256)  # shapes a round: zero-audit 58, approx-chain 19, ep-corpus 7 (4 pinned)
def _shape(adjacent: tuple) -> tuple:
    """For a layout's earlier adjacent positions, its pattern up to renaming:
    per position the earlier ones whose orbit under the automorphisms fixing
    the ones before holds it, whose images its own must exceed, so exactly
    one embedding per image set meets them (Grochow and Kellis, RECOMB 2007);
    the group's order; and the stabilizer chain (McKay and Piperno,
    J. Symb. Comput. 2014): per position, one such automorphism taking it to
    each point of its orbit, identity first, as image tuples, each the first
    hit of a search of the shape into itself; never the group."""
    n = len(adjacent)
    adj = {i: frozenset([j for j in range(n) if j in adjacent[i] or i in adjacent[j]])
           for i in range(n)}
    shape = _unchecked(2, frozenset(adj), adj, frozenset())
    layout = _positions(adj, list(range(n)))
    levels = []
    for i in range(n):
        held = frozenset(range(i))
        level = [tuple(range(n))]
        for u in range(i + 1, n):
            if len(adj[u]) != len(adj[i]) or adj[u] & held != adj[i] & held:
                continue
            hit = _first_hit(shape, layout, [*range(i), u] + [None] * (n - i - 1))
            if hit is not None:
                level.append(tuple(hit))
        levels.append(tuple(level))
    below = [[i for i in range(u) if any(t[i] == u for t in levels[i])] for u in range(n)]
    return [tuple(b) or None for b in below], prod(map(len, levels)), tuple(levels)


def _products(levels: tuple, at: list) -> list:
    """Per product t0 t1 ... of one member of each level of a stabilizer
    chain (_shape), once each, the tuple of its images of the positions at."""
    products = [tuple(at)]
    for level in reversed(levels):
        if len(level) > 1:
            products = [pick(t) for pick in map(_picker, products) for t in level]
    return products


def _first_hit(c: Graph, layout: tuple, pins: list, is_strong: Callable | None = None,
               under: frozenset = frozenset()):
    """The images of the first embedding that _run meets whose image with
    under passes is_strong, or None: one existence search, stopped at its hit."""
    strong = _strength(c, is_strong, under)
    return next((list(img) for img in _run(c, layout, pins) if strong(img)), None)


def _strength(c: Graph, is_strong: Callable | None, under: frozenset = frozenset()) -> Callable:
    """The test of a search's image list: whether its points with under
    pass is_strong, asked once per image set; without is_strong, always."""
    if is_strong is None:
        return lambda img: True
    memo: dict = {}

    def strong(img) -> bool:
        key = frozenset(img)
        if key not in memo:
            memo[key] = is_strong(c, under | key)
        return memo[key]
    return strong


def _run(c: Graph, layout: tuple, pins: list) -> Iterator[list]:
    """The backtracking search of EmbeddingPlan: yields each induced
    embedding of layout's positions into c as the list of images, one list
    rewritten between hits, so a reader copies what it keeps; a reader that
    stops reading stops the search.  pins[i] narrows position i's
    candidates: a target vertex pins it, a sorted list keeps those in it in
    its order, a tuple of earlier positions keeps those above all their
    images, a frozenset keeps those inside it.  The search runs on an
    explicit stack, one candidate iterator per placed position, so no
    pattern size meets the recursion limit."""
    order, adjacent, apart, degrees = layout
    cadj = c._adj
    everything = c.vertices
    n = len(order)
    if not n:
        yield []
        return
    img: list = [None] * n
    used: set = set()
    tries: list = [None] * n  # position -> the iterator over its candidates
    i, fresh = 0, True
    while True:
        if fresh:
            near = adjacent[i]
            if near:
                cands = cadj[img[near[0]]]
                for j in near[1:]:
                    cands = cands & cadj[img[j]]
            else:
                cands = everything
            pin = pins[i]
            if pin is not None:
                if type(pin) is list:
                    cands = [t for t in pin if t in cands]
                elif type(pin) is tuple:
                    least = max([img[j] for j in pin])
                    cands = [t for t in cands if t > least]
                elif type(pin) is frozenset:
                    cands = cands & pin
                elif pin in cands:
                    cands = (pin,)
                else:
                    cands = ()
            tries[i] = iter(cands)
        d, far = degrees[i], apart[i]
        for t in tries[i]:
            if t in used:
                continue
            nt = cadj[t]
            if len(nt) < d:
                continue
            for j in far:
                if img[j] in nt:
                    break
            else:
                break
        else:
            # position i has no candidate left: back to the one before it
            if not i:
                return
            i -= 1
            used.discard(img[i])
            fresh = False
            continue
        img[i] = t
        if i + 1 == n:
            yield img
            fresh = False
        else:
            used.add(t)
            i += 1
            fresh = True


def _outside(cadj: dict, image: frozenset, wants: set, pool: frozenset) -> dict:
    """Per wanted contact set, the points of pool outside image whose
    neighbours in image are exactly it: for a nonempty set, met among the
    common neighbours of its points, from the one of least degree."""
    found = {}
    for want in wants:
        near = sorted([cadj[s] for s in want], key=len) or [pool]
        found[want] = [t for t in reduce(and_, near) if t in pool and t not in image
                       and cadj[t] & image == want]
    return found


def _tally(c: Graph, layout: tuple, image: frozenset, table: dict,
           is_strong: Callable | None) -> None:
    """tally()'s search over one image set: add to table[w] each
    embedding of the free positions into c - image whose images' neighbour
    sets in image form the tuple w and whose image with image passes
    is_strong.  Position i searches the points with a contact w[i] of some
    key w (_outside)."""
    cadj = c._adj
    wanted = [{w[i] for w in table} for i in range(len(layout[0]))]
    found = _outside(cadj, image, set().union(*wanted), c.vertices)
    domains = [frozenset().union(*map(found.__getitem__, near)) for near in wanted]
    strong = _strength(c, is_strong, image)
    for img in _run(c, layout, domains):
        w = tuple([cadj[t] & image for t in img])
        if w in table and strong(img):
            table[w] += 1


# -- fresh names and adjoined copies -------------------------------------


def fresh_name(base: str, taken: set, tried: dict | None = None) -> str:
    """Deterministic collision-free variant of base: base, base~1, base~2, ...
    tried (base -> last suffix given), kept while taken only grows, resumes the search."""
    if base not in taken:
        return base
    k = 1 if tried is None else tried.get(base, 1)
    while f"{base}~{k}" in taken:
        k += 1
    if tried is not None:
        tried[base] = k
    return f"{base}~{k}"


def adjoin_copy(ambient: Graph, source: Graph, part: Iterable[str],
                glues: list, avoid: Iterable[str] = ()) -> tuple[Graph, list]:
    """Adjoin to ambient one copy of part, a vertex set of source, per glue
    in glues, in one graph build.  Each copy is named by fresh_name over
    sorted(part) away from ambient's names, the names in avoid and the
    earlier copies'.  It gets source's edges inside part and, for each
    source edge from part to a key of its glue, an edge to that key's image
    in ambient; nothing else is added.  The grown graph is ambient's
    adjacency plus the new edges, each at a fresh point, so only the glue
    images are checked: outside ambient, they raise UnknownVertex.  Returns
    the grown graph and the naming of part, one per glue."""
    if ambient.m != source.m:
        raise CoefficientMismatch(f"coefficients differ: {ambient.m} vs {source.m}")
    outside = set().union(*(glue.values() for glue in glues)) - ambient.vertices
    if outside:
        raise UnknownVertex(f"glue images outside the ambient: {sorted(outside)}")
    part = sorted(source.check_subset(part))
    taken = {*ambient.vertices, *avoid}
    adj = dict(ambient._adj)
    touched: dict = {}  # ambient point -> its new neighbours
    relabels = []
    tried: dict = {}
    for glue in glues:
        relabel: dict[str, str] = {}
        for v in part:
            relabel[v] = fresh_name(v, taken, tried)
            taken.add(relabel[v])
        for v, nv in relabel.items():
            near = set()
            for w in source._adj[v]:
                if w in relabel:
                    near.add(relabel[w])
                elif w in glue:
                    near.add(glue[w])
                    touched.setdefault(glue[w], set()).add(nv)
            adj[nv] = frozenset(near)
        relabels.append(relabel)
    for t, near in touched.items():
        adj[t] = adj[t].union(near)
    fresh = [nv for relabel in relabels for nv in relabel.values()]
    return _unchecked(ambient.m, ambient.vertices.union(fresh), adj, ambient.edges.union(
        [(u, v) if u < v else (v, u) for u in fresh for v in adj[u]])), relabels


# -- connected subset enumeration ----------------------------------------


def connected_subsets(g: Graph, pool: frozenset, max_size: int) -> Iterator[frozenset]:
    """All subsets of pool that induce a connected subgraph, up to max_size;
    each single point comes before max_size is read, so 0 yields what 1 does.
    Classic expansion with an exclusion frontier, so each subset is produced
    exactly once, on an explicit stack of frames (frontier, next position in
    it, banned set), so no size limit meets the recursion limit."""
    pool = g.check_subset(pool)
    adj = g._adj
    banned: set = set()
    for root in sorted(pool):
        current = {root}
        yield frozenset(current)
        stack = []
        if max_size > 1:
            stack.append([sorted((adj[root] & pool) - banned - current), 0, set(banned)])
        banned.add(root)
        while stack:
            top = stack[-1]
            frontier, i, local_banned = top
            if i:
                # back from the branches through frontier[i - 1]
                current.discard(frontier[i - 1])
                local_banned.add(frontier[i - 1])
            if i == len(frontier):
                stack.pop()
                continue
            top[1] = i + 1
            v = frontier[i]
            rest = frontier[i + 1:]
            current.add(v)
            yield frozenset(current)
            if len(current) < max_size:
                extra = sorted((adj[v] & pool) - current - local_banned - set(rest))
                stack.append([rest + extra, 0, set(local_banned)])


def components(g: Graph, pool: Iterable[str]) -> list:
    """Connected components of the subgraph induced on pool, each a
    frozenset, ordered by least vertex."""
    left = set(g.check_subset(pool))
    out = []
    while left:
        root = min(left)
        comp = {root}
        queue = [root]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v) & left:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        left -= comp
        out.append(frozenset(comp))
    return sorted(out, key=lambda s: sorted(s))


def export_dot(g: Graph, highlights: dict | None = None) -> str:
    """Deterministic DOT rendering; highlight groups become clusters."""
    lines = ["graph ambient {"]
    highlighted = set()
    for name in sorted(highlights or {}):
        members = sorted(frozenset(highlights[name]))
        g.check_subset(members)
        lines.append(f'  subgraph "cluster_{name}" {{')
        lines.append(f'    label="{name}";')
        for v in members:
            lines.append(f'    "{v}";')
            highlighted.add(v)
        lines.append("  }")
    for v in g.sorted_vertices():
        if v not in highlighted:
            lines.append(f'  "{v}";')
    for (u, v) in g.sorted_edges():
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
