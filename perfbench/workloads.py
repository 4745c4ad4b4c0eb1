"""The four benchmark workloads: inputs, timed operations, checks.

A workload builds its inputs once per process (that is the set-up the
benchmark times), then hands out one round of operations.  Each operation is
a ``(label, thunk)`` pair; the thunk calls the package and returns the output
that the checks and the output digest read.  Every package call goes through
the ``abinitio`` module attributes at call time, so the tracer's wrappers see
it.

Checks run after timing.  They compare against ``reference`` (networkx: a
minimum cut for closures, VF2 for placements) on a seeded sample, and test
properties every output must have: the stored certificate digest,
``verify_certificate``, criterion-7 orbit laps, planted blocks, strictly
increasing layers, and membership known by construction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).resolve().parent / "corpus_certificates.sha256"
CORPUS_SIZE = 51
# Lifted process-wide for k0-scale only: closure, dimension and decompose
# otherwise refuse ambients above 24 vertices.
CEILING_ENV = {"ABINITIO_MAX_AMBIENT": "1000000", "ABINITIO_MAX_TARGET": "1000000"}
# Every generated input, structure and vertex names, comes from this fixed
# seed; a run's --seed orders the operations of its rounds and picks the
# outputs checked against the reference.  Inputs drawn from --seed made one
# round's work differ between seeds by more than any useful bound: by 15-25%
# with the structure drawn, and by up to 2x in approx-chain with only the
# names drawn, since names set the order every search in the package follows.
SHAPE_SEED = 2015


def import_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import abinitio
    return abinitio


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def relabeling(names, rng) -> dict:
    """A seeded permutation of a set of vertex names."""
    names = sorted(names)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


class Workload:
    """Inputs of one workload and the operations of one round."""

    name = ""
    env: dict[str, str] = {}
    # One round's time on the reference machine (2 vCPUs, Python 3.11); a
    # run does round(--seconds / round_seconds) rounds, at least one.
    round_seconds = 1.0

    def __init__(self, ab, seed: int):
        self.ab = ab
        self.seed = seed

    def operations(self) -> list:
        raise NotImplementedError

    def ordered(self, ops: list) -> list:
        """The operations of a round in an order drawn from the seed."""
        random.Random(self.seed).shuffle(ops)
        return ops

    def fingerprint(self, label: str, out) -> object:
        """JSON-ready form of one output, for the output digest."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        """Problems found in one round's outputs, keyed by label."""
        raise NotImplementedError

    def output_counts(self, outputs: dict) -> dict[str, int]:
        return {}

    def after_rounds(self, outputs: dict, timed, passes: int, scale: float) -> dict:
        """An extra timed phase of ``passes`` passes after the rounds;
        ``timed(label, thunk)`` runs and times one call, and ``scale`` turns
        its seconds into seconds at the reference speed.  Returns figures for
        the human-readable report as ``name: (value, unit, note)``."""
        return {}


# -- ep-corpus ----------------------------------------------------------------


def _power(f: dict, k: int) -> dict:
    out = {v: v for v in f}
    for _ in range(k):
        out = {v: f[out[v]] for v in out}
    return out


def certificates_digest(certs: list) -> str:
    """sha256 over the canonical JSON of the corpus certificates, in corpus
    order, each preceded by its label."""
    h = hashlib.sha256()
    for label, cert in certs:
        h.update(label.encode() + b"\n")
        h.update(canonical(cert.to_json_dict()).encode() + b"\n")
    return h.hexdigest()


class EpCorpus(Workload):
    """``ep_extend`` on each problem of the criterion-7 corpus, in corpus
    order; afterwards, passes of ``verify_certificate``.  The seed changes
    nothing here: problems share ambients, so the self-sufficiency memo makes
    an operation's time depend on what ran before it, and a seeded order
    moved the median operation's time by up to 40% between seeds."""

    name = "ep-corpus"
    round_seconds = 20.0

    def __init__(self, ab, seed):
        super().__init__(ab, seed)
        from test_acceptance import _ep_corpus

        self.corpus = _ep_corpus()
        if len(self.corpus) != CORPUS_SIZE:
            raise SystemExit(
                f"ep-corpus: the corpus has {len(self.corpus)} problems, "
                f"expected {CORPUS_SIZE}")
        self.reports: dict = {}

    def operations(self):
        ab = self.ab
        return [(label, (lambda p=p: ab.ep_extend(p))) for label, p in self.corpus]

    def fingerprint(self, label, cert):
        return cert.to_json_dict()

    def after_rounds(self, outputs, timed, passes, scale):
        ab = self.ab
        pairs = [(label, p, outputs[label]) for label, p in self.corpus]
        best = None
        for _ in range(passes):
            total = 0.0
            for label, p, cert in pairs:
                seconds, rep = timed(f"verify/{label}",
                                     lambda: ab.verify_certificate(p, cert))
                total += seconds
                self.reports[label] = rep
            best = total if best is None else min(best, total)
        return {"verify_per_s": (CORPUS_SIZE / (best * scale), "1/s",
                                 f"best of {passes} passes over "
                                 f"{CORPUS_SIZE} certificates")}

    def certificates(self, outputs) -> list:
        return [(label, outputs[label]) for label, _ in self.corpus]

    def check(self, outputs):
        ab = self.ab
        problems = []
        digest = certificates_digest(self.certificates(outputs))
        stored = DIGEST_FILE.read_text().split()[0]
        if digest != stored:
            problems.append(f"certificate digest {digest} != stored {stored}")
        for label, p in self.corpus:
            cert = outputs[label]
            rep = self.reports.get(label) or ab.verify_certificate(p, cert)
            if not rep.ok or rep.diagnostics:
                problems.append(f"{label}: verify_certificate {rep.diagnostics[:2]}")
            doc = cert.to_json_dict()
            b = doc["b"]
            edges = {tuple(sorted(e)) for e in b["edges"]}
            if b["m"] * len(set(b["vertices"])) - len(edges) != 0:
                problems.append(f"{label}: result count is not 0")
            autos = [dict(pairs) for pairs in doc["automorphisms"]]
            for entry in doc["stage_log"][0]["closures"]:
                lap = _power(autos[entry["map_index"]], entry["cycle_length"])
                for piece in entry["blocks"] + entry["copies"]:
                    if {lap[v] for v in piece} != set(piece):
                        problems.append(f"{label}: base orbit lap moves {piece}")
            for lg in doc["stage_log"][1:]:
                for mc in lg["map_cycles"]:
                    lap = _power(autos[mc["map_index"]], mc["length"])
                    for comp in mc["components"]:
                        if {lap[v] for v in comp} != set(comp):
                            problems.append(f"{label}: level orbit lap moves {comp}")
        return problems

    def output_counts(self, outputs):
        return {"extension.copies_added": sum(
            len(lg["added"]) for cert in outputs.values()
            for lg in cert.stage_log[1:])}


# -- zero-audit -------------------------------------------------------------


def planted_zero_graph(ab, rng, names_rng, blocks: int, attachments: int,
                       max_verts: int, prefix: str = ""):
    """Zero-count graph at m=2: complete-5 blocks plus tight attachments,
    each a vertex with two edges back or a triangle with one edge back per
    corner, onto any earlier vertex.  ``rng`` draws the structure and
    ``names_rng`` the names.  Returns the graph, the blocks and each vertex's
    accretion depth (0 on blocks, else one more than its deepest target)."""
    verts, edges, planted = [], [], []
    for b in range(blocks):
        names = [f"{prefix}b{b}v{j}" for j in range(5)]
        verts += names
        edges += itertools.combinations(names, 2)
        planted.append(frozenset(names))
    depth = {v: 0 for v in verts}
    for k in range(attachments):
        if rng.random() < 0.6 or len(verts) + 3 > max_verts:
            if len(verts) + 1 > max_verts:
                break
            name = f"{prefix}s{k}"
            targets = rng.sample(verts, 2)
            edges += [(name, t) for t in targets]
            verts.append(name)
            depth[name] = 1 + max(depth[t] for t in targets)
        else:
            corners = [f"{prefix}t{k}{c}" for c in "abc"]
            targets = [rng.choice(verts) for _ in corners]
            edges += itertools.combinations(corners, 2)
            edges += zip(corners, targets)
            verts += corners
            for c in corners:
                depth[c] = 1 + max(depth[t] for t in targets)
    f = relabeling(verts, names_rng)
    return (ab.Graph(2, [f[v] for v in verts], [(f[u], f[v]) for u, v in edges]),
            [frozenset(f[v] for v in b) for b in planted],
            {f[v]: d for v, d in depth.items()})


def decomposition_problems(dec, g, planted, depth) -> list[str]:
    """Planted blocks are the minimally closed sets; the carriers partition
    the vertices; each carrier's layers increase strictly from its blocks to
    the carrier, and its level is the deepest planted depth inside it."""
    problems = []
    if set(dec.minimally_closed) != set(planted):
        problems.append("minimally closed sets differ from the planted blocks")
    carriers = [c.carrier for c in dec.components]
    if sum(len(c) for c in carriers) != len(g.vertices) or \
            frozenset().union(*carriers) != g.vertices:
        problems.append("carriers do not partition the vertices")
    for comp in dec.components:
        layers = comp.layers
        if layers[-1] != comp.carrier:
            problems.append("last layer is not the carrier")
        if layers[0] != frozenset().union(*(b for b in planted if b <= comp.carrier)):
            problems.append("first layer is not the union of the carrier's blocks")
        if any(not layers[j] < layers[j + 1] for j in range(len(layers) - 1)):
            problems.append("layers do not increase strictly")
        if comp.level != max(depth[v] for v in comp.carrier):
            problems.append(f"level {comp.level} != planted depth")
    return problems


class ZeroAudit(Workload):
    """``decompose`` plus ``uniform_algebraicity_report`` at every level of
    one single-block zero-count graph per operation."""

    name = "zero-audit"
    round_seconds = 5.0
    graphs = 40
    reference_sample = 3

    def __init__(self, ab, seed):
        super().__init__(ab, seed)
        rng, names_rng = random.Random(SHAPE_SEED), random.Random(SHAPE_SEED + 1)
        self.inputs = []
        for i in range(self.graphs):
            g, planted, depth = planted_zero_graph(
                ab, rng, names_rng, 1, rng.randint(4, 10), max_verts=16)
            self.inputs.append((f"g{i}", g, planted, depth))

    def operations(self):
        ab = self.ab

        def audit(g):
            dec = ab.decompose(g)
            level = max(c.level for c in dec.components)
            return dec, [ab.uniform_algebraicity_report(g, i)
                         for i in range(1, level + 1)]

        return self.ordered([(label, (lambda g=g: audit(g)))
                             for label, g, _, _ in self.inputs])

    def fingerprint(self, label, out):
        dec, reports = out
        return {"decomposition": dec.to_json_dict(),
                "rows": [[[w.to_json_dict(), counts, uniform]
                          for w, counts, uniform in rows] for rows in reports]}

    def check(self, outputs):
        import reference

        problems = []
        sample = set(random.Random(self.seed + 1).sample(
            range(self.graphs), self.reference_sample))
        for i, (label, g, planted, depth) in enumerate(self.inputs):
            dec, reports = outputs[label]
            problems += [f"{label}: {p}" for p in
                         decomposition_problems(dec, g, planted, depth)]
            for level, rows in enumerate(reports, start=1):
                for w, counts, uniform in rows:
                    if uniform != (len(set(counts)) <= 1):
                        problems.append(f"{label}: uniform flag disagrees")
                    if reference.count(g, w.zero_minimal_set | w.generator) != \
                            reference.count(g, w.generator):
                        problems.append(f"{label}: attachment not tight over generator")
                    if i in sample:
                        if not reference.is_strong(g, w.base):
                            problems.append(f"{label}: row base {sorted(w.base)} not strong")
                        want = reference.strong_extension_counts(
                            g, w.base, w.zero_minimal_set)
                        if sorted(counts) != want:
                            problems.append(
                                f"{label}: level {level} counts {sorted(counts)} != VF2 {want}")
        return problems


# -- k0-scale -----------------------------------------------------------------


def tight_graph(ab, rng, names_rng, n: int, m: int, window: int, prefix: str):
    """Each new vertex sends min(i, m) edges to distinct vertices among the
    previous ``window``: (m, m(m+1)/2)-tight, so hereditarily nonnegative.
    Returns the graph and its vertex names in construction order."""
    names = [f"{prefix}{i:05d}" for i in range(n)]
    names_rng.shuffle(names)
    edges = []
    for i in range(1, n):
        lo = max(0, i - window)
        edges += [(names[i], names[j]) for j in rng.sample(range(lo, i), min(m, i - lo))]
    return ab.Graph(m, names, edges), names


class K0Scale(Workload):
    """The polynomial core far above the default 24-vertex ceilings."""

    name = "k0-scale"
    round_seconds = 7.5
    env = CEILING_ENV
    queries_per_graph = 13
    reference_queries = 3
    reference_gcl_points = 4

    def __init__(self, ab, seed):
        super().__init__(ab, seed)
        rng, names_rng = random.Random(SHAPE_SEED), random.Random(SHAPE_SEED + 1)
        self.ops = []  # (label, kind, graph, argument, expectation)
        for gi in range(2):
            g, names = tight_graph(ab, rng, names_rng, 800, 2, 24, f"q{gi}_")
            for qi in range(self.queries_per_graph):
                a = frozenset(rng.sample(names, rng.randint(1, 3)))
                kind = "closure" if qi % 2 == 0 else "dimension"
                self.ops.append((f"{kind}/g{gi}/q{qi}", kind, g, a, None))
        for gi in range(2):
            g, names = tight_graph(ab, rng, names_rng, 120, 2, 16, f"c{gi}_")
            a = frozenset(rng.sample(names, 1))
            self.ops.append((f"gcl/g{gi}", "gcl", g, a, None))
        for gi in range(4):
            g, names = tight_graph(ab, rng, names_rng, 10000, 2, 32, f"k{gi}_")
            member = gi % 2 == 0
            if not member:
                clique = [f"k{gi}_x{j}" for j in range(6)]
                anchors = rng.sample(names, 6)
                g = ab.Graph(2, list(g.vertices) + clique,
                             list(g.edges) + list(itertools.combinations(clique, 2))
                             + list(zip(clique, anchors)))
            self.ops.append((f"is_in_k0/g{gi}", "is_in_k0", g, None, member))
            self.ops.append((f"witness/g{gi}", "witness", g, None, member))
        for gi in range(4):
            blocks = rng.randint(14, 18)
            g, planted, depth = planted_zero_graph(
                ab, rng, names_rng, blocks, blocks + rng.randint(0, blocks), 10 ** 6,
                f"d{gi}_")
            self.ops.append((f"decompose/g{gi}", "decompose", g, None, (planted, depth)))

    def operations(self):
        ab = self.ab

        def witness(g):
            try:
                return ab.orientation_witness(g)
            except ab.OutsideK0:
                return None

        run = {
            "closure": lambda g, a: ab.closure(g, a),
            "dimension": lambda g, a: ab.dimension(g, a),
            "gcl": lambda g, a: ab.geometric_closure_bounded(g, a),
            "is_in_k0": lambda g, a: ab.is_in_k0(g),
            "witness": lambda g, a: witness(g),
            "decompose": lambda g, a: ab.decompose(g),
        }
        return self.ordered([(label, (lambda f=run[kind], g=g, a=a: f(g, a)))
                             for label, kind, g, a, _ in self.ops])

    def fingerprint(self, label, out):
        kind = label.split("/")[0]
        if kind == "closure":
            return out.to_json_dict()
        if kind == "gcl":
            return sorted(out)
        if kind in ("witness", "decompose"):
            return None if out is None else out.to_json_dict()
        return out

    def check(self, outputs):
        import reference

        rng = random.Random(self.seed + 1)
        queries = [op for op in self.ops if op[1] in ("closure", "dimension")]
        sample = {op[0] for op in rng.sample(queries, self.reference_queries)}
        problems = []
        for label, kind, g, a, expect in self.ops:
            out = outputs[label]
            if kind == "closure":
                chain = out.witness_chain
                if chain[0] != a or chain[-1] != out.closure or any(
                        not chain[j] < chain[j + 1] for j in range(len(chain) - 1)):
                    problems.append(f"{label}: witness chain is not a strict climb")
            if label in sample:
                want = reference.least_closed_superset(g, a)
                if kind == "closure" and out.closure != want:
                    problems.append(f"{label}: closure differs from the min-cut reference")
                if kind == "dimension" and out != reference.count(g, want):
                    problems.append(f"{label}: dimension differs from the min-cut reference")
            if kind == "gcl":
                base = reference.count(g, reference.least_closed_superset(g, a))
                for v in rng.sample(g.sorted_vertices(), self.reference_gcl_points):
                    dim = reference.count(g, reference.least_closed_superset(g, a | {v}))
                    if (v in out) != (dim == base):
                        problems.append(f"{label}: membership of {v} differs from reference")
            if kind == "is_in_k0" and out != expect:
                problems.append(f"{label}: membership {out}, built as {expect}")
            if kind == "witness":
                problems += [f"{label}: {p}" for p in _witness_problems(g, out, expect)]
            if kind == "decompose":
                planted, depth = expect
                problems += [f"{label}: {p}" for p in
                             decomposition_problems(out, g, planted, depth)]
        return problems


def _witness_problems(g, out, member) -> list[str]:
    if out is None:
        return [] if not member else ["member graph reported outside the class"]
    if not member:
        return ["graph with a planted K6 got an orientation"]
    seen = {tuple(sorted(e)) for e in out.orientation}
    outdeg: dict = {}
    for origin, _ in out.orientation:
        outdeg[origin] = outdeg.get(origin, 0) + 1
    problems = []
    if seen != set(g.edges) or len(out.orientation) != len(g.edges):
        problems.append("orientation does not cover each edge once")
    if max(outdeg.values(), default=0) > g.m:
        problems.append("orientation exceeds outdegree m")
    return problems


# -- approx-chain -------------------------------------------------------------


def _automorphisms(vertices, edges) -> list[dict]:
    vs = sorted(vertices)
    es = {tuple(sorted(e)) for e in edges}
    out = []
    for perm in itertools.permutations(vs):
        f = dict(zip(vs, perm))
        if {tuple(sorted((f[u], f[v]))) for u, v in es} == es:
            out.append(f)
    return out


class ApproxChain(Workload):
    """``build_approximation(seed, 1, 4)`` on small seeds, then the
    back-and-forth on a symmetry of the seed inside the final stage, then
    one generic point over the seed."""

    name = "approx-chain"
    round_seconds = 2.0
    seeds = 40
    reference_sample = 8

    def __init__(self, ab, seed):
        super().__init__(ab, seed)
        rng, names_rng = random.Random(SHAPE_SEED), random.Random(SHAPE_SEED + 1)
        self.inputs = []
        while len(self.inputs) < self.seeds:
            n = rng.randint(3, 6)
            names = [f"g{i}" for i in range(n)]
            p = rng.uniform(0.2, 0.6)
            edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
            # a seed symmetry gives a map that extends, sometimes only
            # after growth; asymmetric seeds are redrawn
            asymmetric = len(_automorphisms(names, edges)) == 1
            if asymmetric or not ab.is_in_k0(ab.Graph(2, names, edges)):
                continue
            f = relabeling(names, names_rng)
            edges = [(f[u], f[v]) for u, v in edges]
            moved = [a for a in _automorphisms(names, edges) if any(a[v] != v for v in a)]
            self.inputs.append((f"s{len(self.inputs)}", ab.Graph(2, names, edges),
                                moved[0], rng.randint(0, 2)))

    def operations(self):
        ab = self.ab

        def chain_op(seed, sigma, rel):
            chain = ab.build_approximation(seed, 1, 4)
            final = chain.stages[-1]
            grown, gamma = ab.extend_partial_iso(final, ab.PartialIso.build(final, sigma))
            pointed = ab.add_generic_point(grown, seed.vertices, rel)
            return chain, grown, gamma, pointed

        return self.ordered([(label, (lambda s=s, f=f, r=r: chain_op(s, f, r)))
                             for label, s, f, r in self.inputs])

    def fingerprint(self, label, out):
        chain, grown, gamma, pointed = out
        return {"chain": chain.to_json_dict(), "grown": grown.to_json_dict(),
                "gamma": list(gamma.pairs), "pointed": pointed.to_json_dict()}

    def check(self, outputs):
        import reference

        sample = set(random.Random(self.seed + 1).sample(
            range(self.seeds), self.reference_sample))
        problems = []
        for i, (label, seed, sigma, rel) in enumerate(self.inputs):
            chain, grown, gamma, pointed = outputs[label]
            stages = chain.stages
            if stages[0] != seed:
                problems.append(f"{label}: chain does not start at the seed")
            final = stages[-1]
            if not final.vertices <= grown.vertices or \
                    final.edges != {e for e in grown.edges
                                    if e[0] in final.vertices and e[1] in final.vertices}:
                problems.append(f"{label}: grown ambient does not contain the final stage")
            f = gamma.as_dict()
            if set(f) != grown.vertices or set(f.values()) != grown.vertices or \
                    {tuple(sorted((f[u], f[v]))) for u, v in grown.edges} != grown.edges:
                problems.append(f"{label}: gamma is not an automorphism")
            if any(f[v] != w for v, w in sigma.items()):
                problems.append(f"{label}: gamma does not extend the seed symmetry")
            fresh = pointed.vertices - grown.vertices
            if len(fresh) != 1 or reference.count(pointed, pointed.vertices) - \
                    reference.count(pointed, grown.vertices) != rel:
                problems.append(f"{label}: generic point has the wrong relative count")
            if i in sample:
                for j in range(len(stages) - 1):
                    if not reference.is_strong(stages[j + 1], stages[j].vertices):
                        problems.append(f"{label}: stage {j} not strong in stage {j + 1}")
                if not reference.is_strong(grown, final.vertices):
                    problems.append(f"{label}: growth lost strongness of the final stage")
                if rel >= 1 and not reference.is_strong(pointed, grown.vertices):
                    problems.append(f"{label}: generic point broke strongness")
        return problems

    def output_counts(self, outputs):
        return {"approximation.tasks_realized": sum(
            len(out[0].task_log) for out in outputs.values())}


WORKLOADS = {w.name: w for w in (EpCorpus, ZeroAudit, K0Scale, ApproxChain)}


def build(name: str, seed: int):
    """Import the package and build one workload's inputs; the set-up."""
    os.environ.update(WORKLOADS[name].env)
    ab = import_package()
    return WORKLOADS[name](ab, seed)
