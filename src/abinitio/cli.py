"""Command-line front end.

Every verb reads canonical JSON files and writes one JSON document to
standard output carrying a schema tag and the sha256 of each input.  Exit
codes: 0 on success, 1 for a precondition or construction failure, 2 for
input that cannot be parsed, 3 for an internal failure (a recursion depth
exceeded or a broken invariant).  Each failure writes a
{"schema": 1, "error": {...}} document.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys

from .amalgam import AmalgamSpec, free_amalgam, verify_strong_pair
from .approximation import add_generic_point, build_approximation, extend_partial_iso
from .errors import AbinitioError, ConstructionFailed
from .extension import EPCertificate, EPProblem, _map_from_pairs, ep_extend
from .graph import (
    Embedding, Graph, PartialIso, canonical_json, export_dot)
from .limits import DEFAULT_MAX_AMBIENT
from .predimension import (
    closure, delta, delta_rel, dimension, geometric_closure_bounded,
    is_in_k0, is_self_sufficient, orientation_witness)
from .verifier import verify_certificate
from .zero_decomposition import decompose, hull, mu_count


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _parse_set(text: str | None) -> list:
    if not text:
        return []
    return [part for part in text.split(",") if part]


def _parse_pairs(text: str | None) -> dict:
    chunks = _parse_set(text)
    for chunk in chunks:
        if "=" not in chunk:
            raise ValueError(f"expected src=dst pairs, got {chunk!r}")
    return _map_from_pairs([chunk.split("=", 1) for chunk in chunks])


def _load_graph(args) -> Graph:
    return Graph.from_json_dict(_read_json(args.file), m_override=args.m)


def _emit(payload, paths: list) -> None:
    """The canonical document of payload and the sha256 of each input path;
    a str payload (DOT text) is written after one comment line per input."""
    digests = {p: _sha256(p) for p in paths}
    if isinstance(payload, str):
        sys.stdout.write("".join(f"// input {p} sha256 {d}\n" for p, d in digests.items()))
        sys.stdout.write(payload)
    else:
        sys.stdout.write(canonical_json({"schema": 1, "inputs": digests, **payload}))


def _read_spec(path: str, kind: str, keys: tuple, names: tuple = ()) -> dict:
    """The JSON object at path, holding every key; a key in names must hold an
    array of strings.  Keys are checked in order, so the first fault is named."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{kind} spec must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} spec is missing {key!r}")
        if key in names and not (isinstance(data[key], list)
                                 and all(isinstance(v, str) for v in data[key])):
            raise ValueError(
                f"{kind} spec {key!r} must be a JSON array of strings, got {data[key]!r}")
    return data


# -- verb handlers -----------------------------------------------------------
#
# A handler returns (payload, the input paths it read, exit code); main hashes
# the inputs and writes the document.  A one-graph verb is a payload function
# of (graph, args), registered through _build_parser's on_graph.


def _delta(g: Graph, args) -> dict:
    s = _parse_set(args.set) if args.set is not None else g.sorted_vertices()
    if args.over is not None:
        return {"delta_rel": delta_rel(g, s, _parse_set(args.over))}
    return {"delta": delta(g, s)}


def _k0(g: Graph, args) -> dict:
    if is_in_k0(g):
        return {"in_k0": True, **orientation_witness(g).to_json_dict()}
    return {"in_k0": False}


def _extend_iso(g: Graph, args) -> dict:
    iso = PartialIso.build(g, _parse_pairs(args.map))
    grown, gamma = extend_partial_iso(g, iso, steps=args.steps)
    return {
        "ambient": grown.to_json_dict(),
        "gamma": [[d, r] for (d, r) in gamma.pairs],
        "grown": len(grown.vertices) > len(g.vertices),
    }


def _add_point(g: Graph, args) -> dict:
    out = add_generic_point(g, _parse_set(args.over), args.rel)
    return {"graph": out.to_json_dict(), "fresh": sorted(out.vertices - g.vertices)[0]}


def _export_dot(g: Graph, args) -> str:
    highlights = {}
    for spec in args.highlight or []:
        if "=" not in spec:
            raise ValueError(f"expected NAME=v1,v2 highlight, got {spec!r}")
        name, verts = spec.split("=", 1)
        highlights[name] = _parse_set(verts)
    return export_dot(g, highlights or None)


def _cmd_amalgamate(args) -> tuple:
    data = _read_spec(args.file, "amalgam",
                      ("left", "right", "base", "base_in_left", "base_in_right"))
    left = Graph.from_json_dict(data["left"], m_override=args.m)
    right = Graph.from_json_dict(data["right"], m_override=args.m)
    base = Graph.from_json_dict(data["base"], m_override=args.m)
    res = free_amalgam(AmalgamSpec(
        left=left,
        right=right,
        base_in_left=Embedding.build(base, left, _map_from_pairs(data["base_in_left"])),
        base_in_right=Embedding.build(base, right, _map_from_pairs(data["base_in_right"])),
    ))
    return {
        "graph": res.graph.to_json_dict(),
        "left_embedding": [[d, r] for (d, r) in res.left_embedding.pairs],
        "right_embedding": [[d, r] for (d, r) in res.right_embedding.pairs],
    }, [args.file], 0


def _cmd_mu(args) -> tuple:
    data = _read_spec(args.file, "mu", ("graph", "base", "attach", "alpha"),
                      names=("base", "attach"))
    g = Graph.from_json_dict(data["graph"], m_override=args.m)
    alpha = Embedding.build(g.induced(data["base"]), g, _map_from_pairs(data["alpha"]))
    return {"mu": mu_count(g, data["base"], data["attach"], alpha)}, [args.file], 0


def _cmd_ep_extend(args) -> tuple:
    p = EPProblem.from_json_dict(_read_json(args.file), m_override=args.m)
    cert = ep_extend(p, max_set=args.max_set)
    return {"certificate": cert.to_json_dict()}, [args.file], 0


def _cmd_ep_verify(args) -> tuple:
    p = EPProblem.from_json_dict(_read_json(args.problem), m_override=args.m)
    data = _read_json(args.certificate)
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    cert = EPCertificate.from_json_dict(data, m_override=args.m)
    report = verify_certificate(p, cert)
    return report.to_json_dict(), [args.problem, args.certificate], 0 if report.ok else 1


# -- selftest ----------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, m: int, p: float) -> Graph:
    names = [f"v{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
    return Graph(m, names, edges)


def _suite_orientation(rng: random.Random):
    from .oracles import brute_closed, brute_in_k0  # selftest alone loads the oracles
    for _ in range(60):
        g = _random_graph(rng, rng.randint(0, 6), rng.choice([2, 3]), rng.random())
        sub = frozenset(v for v in g.vertices if rng.random() < 0.5)
        yield (is_in_k0(g) == brute_in_k0(g)
               and is_self_sufficient(g, sub) == brute_closed(g, sub))


def _suite_closure(rng: random.Random):
    from .oracles import brute_closure, brute_delta
    done = 0
    while done < 30:
        g = _random_graph(rng, rng.randint(1, 6), 2, rng.random() * 0.7)
        if not is_in_k0(g):
            continue
        done += 1
        a = frozenset(v for v in g.vertices if rng.random() < 0.4)
        ok = closure(g, a).closure == brute_closure(g, a)
        d, gcl = brute_delta(g, brute_closure(g, a)), geometric_closure_bounded(g, a)
        yield ok and dimension(g, a) == d and all(
            (v in gcl) == (brute_delta(g, brute_closure(g, a | {v})) == d) for v in g.vertices)


def _suite_amalgam(rng: random.Random):
    done = 0
    while done < 15:
        base = _random_graph(rng, rng.randint(0, 3), 2, 0.5)
        ln = rng.randint(0, 3)
        left_extra = [f"l{i}" for i in range(ln)]
        right_extra = [f"r{i}" for i in range(rng.randint(0, 3))]

        def grow(extra):
            edges = list(base.sorted_edges())
            pool = base.sorted_vertices() + extra
            for i, v in enumerate(extra):
                others = pool[:len(base.vertices) + i]
                rng.shuffle(others)
                for t in others[:rng.randint(0, 2)]:
                    edges.append((v, t))
            return Graph(2, pool, edges)

        left = grow(left_extra)
        right = grow(right_extra)
        if not (is_in_k0(left) and is_in_k0(right)):
            continue
        if not (is_self_sufficient(left, base.vertices)
                and is_self_sufficient(right, base.vertices)):
            continue
        done += 1
        ident = {v: v for v in base.vertices}
        res = free_amalgam(AmalgamSpec(
            left=left, right=right,
            base_in_left=Embedding.build(base, left, ident),
            base_in_right=Embedding.build(base, right, ident)))
        yield (is_in_k0(res.graph)
               and verify_strong_pair(left, res.graph, res.left_embedding)
               and verify_strong_pair(right, res.graph, res.right_embedding)
               and (delta(res.graph, res.graph.vertices)
                    == delta(left, left.vertices) + delta(right, right.vertices)
                    - delta(base, base.vertices)))


def _block_with_tail() -> tuple:
    verts = [f"a{i}" for i in range(5)] + ["w"]
    edges = list(itertools.combinations(verts[:5], 2)) + [("w", "a0"), ("w", "a1")]
    g = Graph(2, verts, edges)
    e = PartialIso.build(g, {v: v for v in verts[:5]})
    return g, e


def _suite_ep(_: random.Random):
    try:
        g, e = _block_with_tail()
        p = EPProblem(g, (e,))
        cert = ep_extend(p)
        yield verify_certificate(p, cert).ok and len(cert.b.vertices) == 15
    except AbinitioError:
        yield False


def _suite_builder(_: random.Random):
    names = [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)]
    edges = list(itertools.combinations(names[:5], 2)) + list(
        itertools.combinations(names[5:], 2))
    g = Graph(2, names, edges)
    iso = PartialIso.build(g, {f"a{i}": f"b{i}" for i in range(5)})
    try:
        grown, gamma = extend_partial_iso(g, iso)
        yield grown == g and gamma.is_induced() and gamma.image == g.vertices
    except AbinitioError:
        yield False
    out = add_generic_point(g, [v for v in names[:5]], 1)
    yield len(out.vertices) == 11 and is_self_sufficient(out, g.vertices)


def _cmd_selftest(args) -> tuple:
    """Each suite yields one boolean per case; the document counts them."""
    rng = random.Random(20260814)
    suites = [
        ("orientation", _suite_orientation),
        ("closure", _suite_closure),
        ("amalgam", _suite_amalgam),
        ("extension", _suite_ep),
        ("builder", _suite_builder),
    ]
    rows = []
    for name, fn in suites:
        oks = list(fn(rng))
        rows.append({"name": name, "passed": sum(oks), "failed": len(oks) - sum(oks)})
    all_ok = all(row["failed"] == 0 for row in rows)
    return {"suites": rows, "ok": all_ok}, [], 0 if all_ok else 1


# -- argument wiring ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="abinitio",
        description="Finite combinatorics of sparse generic structures.")
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=fn)
        p.add_argument("--m", type=int, default=None,
                       help="override the sparsity coefficient")
        return p

    def on_graph(name, payload, set_flag=True, **kw):
        """A verb that loads one graph file, honouring --m, and writes
        payload(graph, args)."""
        p = verb(name, lambda args: (payload(_load_graph(args), args), [args.file], 0), **kw)
        p.add_argument("file", help="graph JSON file")
        if set_flag:
            p.add_argument("--set", default=None,
                           help="comma-separated vertex set (empty string for the empty set)")
        return p

    p = on_graph("delta", _delta, help="predimension of a set")
    p.add_argument("--over", default=None, help="relative count over this set")
    on_graph("closed", lambda g, a: {"closed": is_self_sufficient(g, _parse_set(a.set))},
             help="self-sufficiency test")
    on_graph("closure", lambda g, a: closure(g, _parse_set(a.set)).to_json_dict(),
             help="self-sufficient closure")
    on_graph("dim", lambda g, a: {"dim": dimension(g, _parse_set(a.set))},
             help="dimension of a set")
    on_graph("gcl", lambda g, a: {"gcl": sorted(geometric_closure_bounded(g, _parse_set(a.set)))},
             help="geometric closure")
    on_graph("k0", _k0, set_flag=False, help="membership and orientation witness")

    p = verb("amalgamate", _cmd_amalgamate, help="free amalgam from a spec file")
    p.add_argument("file", help="spec JSON with left/right/base and base embeddings")

    p = on_graph("decompose", lambda g, a: decompose(g, max_set=a.max_set).to_json_dict(),
                 set_flag=False, help="blocks, carriers, and level chains")
    p.add_argument("--max-set", type=int, default=None)

    p = on_graph("hull", lambda g, a: {"hull": sorted(hull(
        g, _parse_set(a.set), iterate=a.iterate, max_set=a.max_set))},
        help="tight-extension hull of a set")
    p.add_argument("--iterate", action="store_true",
                   help="repeat absorption until a fixed point")
    p.add_argument("--max-set", type=int, default=None)

    p = verb("mu", _cmd_mu, help="strong extension count from a spec file")
    p.add_argument("file", help="spec JSON with graph/base/attach/alpha")

    p = verb("ep-extend", _cmd_ep_extend,
             help="solve an extension problem, emitting a certificate")
    p.add_argument("file", help="problem JSON with graph and maps")
    p.add_argument("--max-set", type=int, default=None)

    p = verb("ep-verify", _cmd_ep_verify, help="replay-check a certificate")
    p.add_argument("problem", help="problem JSON")
    p.add_argument("certificate", help="certificate JSON (bare or wrapped)")

    p = on_graph("build", lambda g, a: build_approximation(
        g, a.rounds, a.budget, max_ambient=a.max_ambient).to_json_dict(),
        set_flag=False, help="approximation chain from a seed")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--budget", type=int, required=True,
                   help="largest extension pattern size")
    p.add_argument("--max-ambient", type=int, default=DEFAULT_MAX_AMBIENT,
                   help="largest stage the chain may grow to")

    p = on_graph("extend-iso", _extend_iso, set_flag=False,
                 help="extend a partial isomorphism to an automorphism")
    p.add_argument("--map", required=True, help="src=dst pairs, comma separated")
    p.add_argument("--steps", type=int, default=32)

    p = on_graph("add-point", _add_point, set_flag=False,
                 help="adjoin a fresh point of given relative count")
    p.add_argument("--over", required=True, help="attachment set")
    p.add_argument("--rel", type=int, required=True)

    p = on_graph("export-dot", _export_dot, set_flag=False, help="DOT rendering")
    p.add_argument("--highlight", action="append",
                   help="NAME=v1,v2 cluster (repeatable)")

    # selftest reads no graph, so it takes no --m
    sub.add_parser("selftest", help="run the built-in oracle suites and report pass/fail counts"
                   ).set_defaults(handler=_cmd_selftest)
    return top


def _fail(exc: Exception, code: int) -> int:
    error = {"type": exc.__class__.__name__, "message": str(exc)}
    if isinstance(exc, ConstructionFailed):
        error["stage_log"] = exc.stage_log
    sys.stdout.write(canonical_json({"schema": 1, "error": error}))
    return code


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, paths, code = args.handler(args)
        _emit(payload, paths)
        return code
    except AbinitioError as exc:
        return _fail(exc, 1)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return _fail(exc, 2)
    except (RecursionError, AssertionError) as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
