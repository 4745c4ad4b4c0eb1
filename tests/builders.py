"""Random graph builders shared by the test modules."""

import itertools

from abinitio import Graph, delta, is_in_k0


def random_graph(rng, max_verts=10, m=None, p=None):
    n = rng.randint(1, max_verts)
    mm = m if m is not None else rng.choice([2, 3])
    verts = [f"v{i}" for i in range(n)]
    prob = p if p is not None else rng.uniform(0.1, 0.7)
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < prob
    ]
    return Graph(mm, verts, edges)


def random_k0_graph(rng, max_verts=10, m=None):
    """Rejection-sample until hereditarily nonnegative."""
    while True:
        g = random_graph(rng, max_verts=max_verts, m=m, p=rng.uniform(0.05, 0.4))
        if is_in_k0(g):
            return g


def random_zero_graph(rng, max_verts=20):
    """A zero-count member of K0 at m=2: complete-5 blocks plus tight
    attachments (a single vertex with two cross edges, or a triangle with
    one cross edge per corner)."""
    verts = []
    edges = []
    n_blocks = rng.randint(1, 3)
    for b in range(n_blocks):
        names = [f"b{b}v{j}" for j in range(5)]
        verts.extend(names)
        edges.extend(
            (names[i], names[j]) for i in range(5) for j in range(i + 1, 5))

    k = 0
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.7 or len(verts) + 3 > max_verts:
            if len(verts) + 1 > max_verts:
                break
            name = f"s{k}"
            for t in rng.sample(verts, 2):
                edges.append((name, t))
            verts.append(name)
        else:
            corners = [f"t{k}a", f"t{k}b", f"t{k}c"]
            edges.extend(
                (corners[i], corners[j]) for i in range(3) for j in range(i + 1, 3))
            for c in corners:
                edges.append((c, rng.choice(verts)))
            verts.extend(corners)
        k += 1

    g = Graph(2, verts, edges)
    assert delta(g, g.vertices) == 0 and is_in_k0(g)
    return g


def tight_graph(rng, n, m=2, window=16, prefix="t"):
    """Each new vertex sends min(i, m) edges to distinct vertices among the
    previous window, so every subset keeps a nonnegative count.  Names are
    shuffled, so name order is not construction order."""
    names = [f"{prefix}{i:04d}" for i in range(n)]
    rng.shuffle(names)
    edges = []
    for i in range(1, n):
        lo = max(0, i - window)
        edges += [(names[i], names[j]) for j in rng.sample(range(lo, i), min(m, i - lo))]
    return Graph(m, names, edges)


def plant_clique(rng, g, k=6, prefix="x"):
    """g plus a complete graph on k new vertices, each tied to one old vertex.
    At m=2, k=6 gives a subset of count 2*6 - 15 < 0: a non-member."""
    clique = [f"{prefix}{j}" for j in range(k)]
    anchors = rng.sample(sorted(g.vertices), k)
    return Graph(g.m, list(g.vertices) + clique,
                 list(g.edges) + list(itertools.combinations(clique, 2))
                 + list(zip(clique, anchors)))
