import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abinitio import AbinitioError, ConstructionFailed, Graph, canonical_json, cli


def k5_dict(prefix="a"):
    names = [f"{prefix}{i}" for i in range(5)]
    return {
        "m": 2,
        "vertices": names,
        "edges": [[a, b] for a, b in itertools.combinations(names, 2)],
    }


def w_dict():
    d = k5_dict()
    d["vertices"] = d["vertices"] + ["w"]
    d["edges"] = d["edges"] + [["a0", "w"], ["a1", "w"]]
    return d


def chain_dict():
    d = w_dict()
    d["vertices"] = d["vertices"] + ["z"]
    d["edges"] = d["edges"] + [["a2", "z"], ["w", "z"]]
    return d


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out), out


def test_delta_and_envelope(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, raw = run(capsys, ["delta", path])
    assert rc == 0
    assert doc["schema"] == 1 and doc["delta"] == 0
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert doc["inputs"] == {path: digest}
    # canonical output: reserializing the parsed document is byte-identical
    assert canonical_json(doc) == raw
    rc, doc, _ = run(capsys, ["delta", path, "--set", "a0,a1"])
    assert doc["delta"] == 3
    rc, doc, _ = run(capsys, ["delta", path, "--set", ""])
    assert doc["delta"] == 0


def test_delta_rel(tmp_path, capsys):
    path = write(tmp_path, "g.json", w_dict())
    rc, doc, _ = run(capsys, ["delta", path, "--set", "w", "--over", "a0,a1"])
    assert rc == 0 and doc["delta_rel"] == 0


def test_closed_and_closure(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, _ = run(capsys, ["closed", path, "--set", "a0"])
    assert rc == 0 and doc["closed"] is False
    rc, doc, _ = run(capsys, ["closure", path, "--set", "a0"])
    assert doc["closure"] == [f"a{i}" for i in range(5)]
    assert doc["witness_chain"][0] == ["a0"]
    assert doc["witness_chain"][-1] == doc["closure"]


def test_closure_has_no_size_ceiling(tmp_path, capsys):
    names = [f"p{i:02d}" for i in range(30)]
    path = write(tmp_path, "path.json", {
        "m": 2, "vertices": names, "edges": [list(e) for e in zip(names, names[1:])]})
    rc, doc, _ = run(capsys, ["closure", path, "--set", "p00"])
    assert rc == 0 and doc["closure"] == ["p00"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["closure", path, "--set", "p00", "--max-ambient", "3"])
    assert exc.value.code == 2


def test_dim_and_gcl(tmp_path, capsys):
    path = write(tmp_path, "g.json", w_dict())
    rc, doc, _ = run(capsys, ["dim", path, "--set", "a0,a1"])
    assert doc["dim"] == 0
    rc, doc, _ = run(capsys, ["gcl", path, "--set", "a0,a1,a2,a3,a4"])
    assert doc["gcl"] == sorted(["a0", "a1", "a2", "a3", "a4", "w"])


def test_k0_both_ways(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, _ = run(capsys, ["k0", path])
    assert rc == 0 and doc["in_k0"] is True
    assert doc["max_outdegree"] <= 2
    assert len(doc["orientation"]) == 10
    names = [f"c{i}" for i in range(6)]
    k6 = {"m": 2, "vertices": names,
          "edges": [[a, b] for a, b in itertools.combinations(names, 2)]}
    path = write(tmp_path, "k6.json", k6)
    rc, doc, _ = run(capsys, ["k0", path])
    assert rc == 0 and doc["in_k0"] is False
    assert "orientation" not in doc


def test_k0_m_override(tmp_path, capsys):
    names = [f"c{i}" for i in range(6)]
    k6 = {"m": 2, "vertices": names,
          "edges": [[a, b] for a, b in itertools.combinations(names, 2)]}
    path = write(tmp_path, "k6.json", k6)
    rc, doc, _ = run(capsys, ["k0", path, "--m", "3"])
    assert doc["in_k0"] is True


def test_amalgamate(tmp_path, capsys):
    spec = {
        "left": k5_dict("a"),
        "right": k5_dict("b"),
        "base": {"m": 2, "vertices": [], "edges": []},
        "base_in_left": [],
        "base_in_right": [],
    }
    path = write(tmp_path, "spec.json", spec)
    rc, doc, _ = run(capsys, ["amalgamate", path])
    assert rc == 0
    assert len(doc["graph"]["vertices"]) == 10
    assert len(doc["graph"]["edges"]) == 20
    assert doc["left_embedding"] == [[v, v] for v in sorted(k5_dict("a")["vertices"])]

    del spec["base"]
    path = write(tmp_path, "bad.json", spec)
    rc, doc, _ = run(capsys, ["amalgamate", path])
    assert rc == 2 and "base" in doc["error"]["message"]


def test_decompose_and_hull(tmp_path, capsys):
    path = write(tmp_path, "g.json", chain_dict())
    rc, doc, _ = run(capsys, ["decompose", path])
    assert rc == 0
    comp = doc["components"][0]
    assert comp["level"] == 2
    assert comp["layers"][1] == sorted(["a0", "a1", "a2", "a3", "a4", "w"])
    rc, doc, _ = run(capsys, ["hull", path, "--set", "a0,a1,a2,a3,a4"])
    assert doc["hull"] == sorted(["a0", "a1", "a2", "a3", "a4", "w"])
    rc, doc, _ = run(capsys, ["hull", path, "--set", "a0,a1,a2,a3,a4", "--iterate"])
    assert doc["hull"] == sorted(["a0", "a1", "a2", "a3", "a4", "w", "z"])


def test_negative_max_set_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", chain_dict())
    # decompose checks max_set before its work: on an empty graph, which has
    # nothing to decompose, and on a K0 graph of nonzero count (a lone point)
    empty = write(tmp_path, "empty.json", {"m": 2, "vertices": [], "edges": []})
    point = write(tmp_path, "point.json", {"m": 2, "vertices": ["a"], "edges": []})
    for argv in (["decompose", path], ["hull", path, "--set", "a0,a1"],
                 ["decompose", empty], ["decompose", point]):
        rc, doc, _ = run(capsys, argv + ["--max-set", "-3"])
        assert rc == 2 and doc["error"]["type"] == "ValueError", argv
        assert "max_set" in doc["error"]["message"] and "-3" in doc["error"]["message"]


def test_mu(tmp_path, capsys):
    base = [f"a{i}" for i in range(5)]
    spec = {
        "graph": w_dict(),
        "base": base,
        "attach": ["w"],
        "alpha": [[v, v] for v in base],
    }
    path = write(tmp_path, "mu.json", spec)
    rc, doc, _ = run(capsys, ["mu", path])
    assert rc == 0 and doc["mu"] == 1

    # four more blocks take the ambient to 26 vertices; the count is the same
    for prefix in "bcde":
        block = k5_dict(prefix)
        spec["graph"]["vertices"] += block["vertices"]
        spec["graph"]["edges"] += block["edges"]
    path = write(tmp_path, "mu26.json", spec)
    rc, doc, _ = run(capsys, ["mu", path])
    assert rc == 0 and doc["mu"] == 1


def test_mu_reads_its_spec_strictly(tmp_path, capsys):
    # a repeated alpha source is rejected, not resolved to its last image
    base = [f"a{i}" for i in range(5)]
    spec = {"graph": w_dict(), "base": base, "attach": ["w"],
            "alpha": [["a0", "a1"]] + [[v, v] for v in base]}
    rc, doc, _ = run(capsys, ["mu", write(tmp_path, "twice.json", spec)])
    assert rc == 2 and "duplicate map source 'a0'" in doc["error"]["message"]
    # base and attach are arrays of names, never strings read as letters:
    # "ab" names one vertex here, and {"a", "b"} would be a valid base
    graph = {"m": 2, "vertices": ["a", "ab", "b"],
             "edges": [["a", "b"], ["a", "ab"], ["ab", "b"]]}
    spec = {"graph": graph, "base": ["a", "b"], "attach": ["ab"],
            "alpha": [["a", "a"], ["b", "b"]]}
    rc, doc, _ = run(capsys, ["mu", write(tmp_path, "ok.json", spec)])
    assert rc == 0 and doc["mu"] == 1
    for key, value in (("base", "ab"), ("attach", "ab"), ("base", ["a", 1])):
        bad = dict(spec, **{key: value})
        rc, doc, _ = run(capsys, ["mu", write(tmp_path, "bad.json", bad)])
        assert rc == 2 and "array of strings" in doc["error"]["message"]


@pytest.mark.parametrize("verb, spec, message", [
    ("mu", {"graph": w_dict(), "base": "ab", "attach": ["w"]},
     "mu spec 'base' must be a JSON array of strings, got 'ab'"),
    ("mu", {"graph": w_dict(), "base": ["a0"], "attach": 5},
     "mu spec 'attach' must be a JSON array of strings, got 5"),
    ("mu", {"base": "ab", "attach": "ab"}, "mu spec is missing 'graph'"),
    ("mu", {"graph": w_dict(), "attach": "ab"}, "mu spec is missing 'base'"),
    ("amalgamate", {"left": k5_dict(), "base": k5_dict("c"), "base_in_left": []},
     "amalgam spec is missing 'right'"),
    ("amalgamate", {"left": "not a graph", "right": k5_dict("b"), "base_in_right": []},
     "amalgam spec is missing 'base'"),
], ids=["mu-base-before-alpha", "mu-attach-before-alpha", "mu-graph-first",
        "mu-base-before-attach", "amalgam-right-before-base", "amalgam-keys-before-graphs"])
def test_a_spec_with_two_faults_reports_the_first_in_key_order(tmp_path, capsys, verb, spec,
                                                               message):
    rc, doc, _ = run(capsys, [verb, write(tmp_path, "spec.json", spec)])
    assert rc == 2 and doc["error"] == {"type": "ValueError", "message": message}


def test_amalgamate_rejects_repeated_map_sources(tmp_path, capsys):
    spec = {
        "left": k5_dict("a"),
        "right": k5_dict("b"),
        "base": k5_dict("c"),
        "base_in_left": [[f"c{i}", f"a{i}"] for i in range(5)],
        "base_in_right": [[f"c{i}", f"b{i}"] for i in range(5)],
    }
    rc, doc, _ = run(capsys, ["amalgamate", write(tmp_path, "ok.json", spec)])
    assert rc == 0 and len(doc["graph"]["vertices"]) == 5
    for key in ("base_in_left", "base_in_right"):
        bad = dict(spec, **{key: [["c0", spec[key][1][1]]] + spec[key]})
        rc, doc, _ = run(capsys, ["amalgamate", write(tmp_path, "bad.json", bad)])
        assert rc == 2 and "duplicate map source 'c0'" in doc["error"]["message"]


def test_ep_extend_then_verify(tmp_path, capsys):
    problem = {
        "graph": {
            "m": 2,
            "vertices": k5_dict("a")["vertices"] + k5_dict("b")["vertices"],
            "edges": k5_dict("a")["edges"] + k5_dict("b")["edges"],
        },
        "maps": [{"map": [[f"a{i}", f"b{i}"] for i in range(5)]
                  + [[f"b{i}", f"a{i}"] for i in range(5)]}],
    }
    ppath = write(tmp_path, "problem.json", problem)
    rc, doc, raw = run(capsys, ["ep-extend", ppath])
    assert rc == 0 and "certificate" in doc
    cpath = tmp_path / "cert.json"
    cpath.write_text(raw)

    rc, doc, _ = run(capsys, ["ep-verify", ppath, str(cpath)])
    assert rc == 0 and doc["ok"] is True and doc["diagnostics"] == []

    tampered = json.loads(raw)["certificate"]
    tampered["b"]["edges"] = tampered["b"]["edges"][1:]
    tpath = write(tmp_path, "tampered.json", tampered)
    rc, doc, _ = run(capsys, ["ep-verify", ppath, tpath])
    assert rc == 1 and doc["ok"] is False and doc["diagnostics"]


def test_ep_extend_names_copies_away_from_later_ambient_points(tmp_path, capsys):
    # K5 blocks a, b, c, d and a point "a0~1" on c0, c1, the name the base
    # stage would give a copy of a0 closing the chain a -> b
    blocks = [k5_dict(x) for x in "abcd"]
    problem = {
        "graph": {"m": 2, "vertices": [v for d in blocks for v in d["vertices"]] + ["a0~1"],
                  "edges": [e for d in blocks for e in d["edges"]]
                  + [["a0~1", "c0"], ["a0~1", "c1"]]},
        "maps": [{"map": [[f"{x}{i}", f"{y}{i}"] for x, y in ("ab", "cd", "dc")
                          for i in range(5)]}],
    }
    ppath = write(tmp_path, "problem.json", problem)
    rc, doc, _ = run(capsys, ["ep-extend", ppath])
    assert rc == 0 and len(doc["certificate"]["b"]["vertices"]) == 90
    cpath = write(tmp_path, "cert.json", doc["certificate"])
    rc, doc, _ = run(capsys, ["ep-verify", ppath, cpath])
    assert rc == 0 and doc["ok"] is True


@pytest.mark.parametrize("tamper, message", [
    (lambda c: c["inclusion"].insert(0, ["a0", "b0"]), "duplicate map source 'a0'"),
    (lambda c: c["automorphisms"][0].insert(0, ["a0", "a1"]), "duplicate map source 'a0'"),
    (lambda c: c.update(orbit=5), "certificate 'orbit' must be an object, got 5"),
    (lambda c: c.update(stage_log="abc"),
     "certificate 'stage_log' must be an array of objects, got 'abc'"),
    (lambda c: c.update(stage_log=[{}, 1]),
     "certificate 'stage_log' must be an array of objects, got [{}, 1]"),
    (lambda c: c.update(counts=[["mu", 1]]),
     "certificate 'counts' must be an object, got [['mu', 1]]"),
    (lambda c: c["orbit"].update(per_point=[[1]]),
     "certificate 'orbit.per_point' must be an array of objects, got [[1]]"),
    (lambda c: c["orbit"].update(per_map="xyz"),
     "certificate 'orbit.per_map' must be an array of integers, got 'xyz'"),
    (lambda c: c["orbit"].update(per_map=[1, True]),
     "certificate 'orbit.per_map' must be an array of integers, got [1, True]"),
    (lambda c: c["orbit"].update(**{"global": "big"}),
     "certificate 'orbit.global' must be an integer, got 'big'"),
], ids=["inclusion", "automorphism", "orbit", "stage-log-string", "stage-log-item", "counts",
        "per-point", "per-map-string", "per-map-boolean", "global"])
def test_ep_verify_rejects_malformed_certificates(tmp_path, capsys, tamper, message):
    # a repeated source would otherwise keep its last pair, and read as a
    # valid certificate; an optional field of the wrong kind would be read
    # as something else ("abc" as three log entries) instead of rejected
    problem = {"graph": {"m": 2, "vertices": k5_dict("a")["vertices"] + k5_dict("b")["vertices"],
                         "edges": k5_dict("a")["edges"] + k5_dict("b")["edges"]},
               "maps": [{"map": [[f"a{i}", f"b{i}"] for i in range(5)]}]}
    ppath = write(tmp_path, "problem.json", problem)
    rc, doc, _ = run(capsys, ["ep-extend", ppath])
    assert rc == 0
    cert = doc["certificate"]
    tamper(cert)
    rc, doc, _ = run(capsys, ["ep-verify", ppath, write(tmp_path, "cert.json", cert)])
    assert rc == 2 and doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("pairs", [[[["a0"], "b0"]], [["a0", {"x": 1}]], {"a0": "b0"}],
                         ids=["unhashable-source", "image-no-name", "no-list"])
def test_malformed_map_pairs_are_input_errors(tmp_path, capsys, pairs):
    # every document reading [source, image] pairs exits 2 naming them: not
    # 1, as for a name the graph lacks, nor with an unhashable-type error
    named = repr(pairs if not isinstance(pairs, list) else pairs[0])
    two = {"m": 2, "vertices": k5_dict("a")["vertices"] + k5_dict("b")["vertices"],
           "edges": k5_dict("a")["edges"] + k5_dict("b")["edges"]}
    problem = {"graph": two, "maps": [{"map": [[f"a{i}", f"b{i}"] for i in range(5)]}]}
    ppath = write(tmp_path, "problem.json", problem)
    rc, doc, _ = run(capsys, ["ep-extend", ppath])
    cert = doc["certificate"]
    amalgam = {"left": k5_dict("a"), "right": k5_dict("b"), "base": k5_dict("c"),
               "base_in_left": [[f"c{i}", f"a{i}"] for i in range(5)], "base_in_right": pairs}
    mu = {"graph": w_dict(), "base": [f"a{i}" for i in range(5)], "attach": ["w"],
          "alpha": pairs}
    for argv in (["ep-extend", write(tmp_path, "bad.json", dict(problem, maps=[{"map": pairs}]))],
                 ["ep-verify", ppath, write(tmp_path, "cert.json", dict(cert, inclusion=pairs))],
                 ["amalgamate", write(tmp_path, "amalgam.json", amalgam)],
                 ["mu", write(tmp_path, "mu.json", mu)]):
        rc, doc, _ = run(capsys, argv)
        assert rc == 2 and doc["error"]["type"] == "ValueError", argv
        assert named in doc["error"]["message"], argv


@pytest.mark.parametrize("verb, document, message", [
    ("amalgamate", "left right base base_in_left base_in_right",
     "amalgam spec must be a JSON object, got 'left right base base_in_left base_in_right'"),
    ("amalgamate", ["left", "right", "base", "base_in_left", "base_in_right"],
     "amalgam spec must be a JSON object, got ['left', 'right', 'base', 'base_in_left', "
     "'base_in_right']"),
    ("mu", "graph base attach alpha", "mu spec must be a JSON object, got 'graph base attach alpha'"),
    ("mu", ["graph", "base", "attach", "alpha"],
     "mu spec must be a JSON object, got ['graph', 'base', 'attach', 'alpha']"),
    ("ep-extend", {"graph": k5_dict(), "maps": 5}, "problem 'maps' must be a JSON array, got 5"),
    ("ep-extend", {"graph": k5_dict(), "maps": {"map": [["a0", "a0"]]}},
     "problem 'maps' must be a JSON array, got {'map': [['a0', 'a0']]}"),
    ("ep-verify", "problem b inclusion automorphisms",
     "certificate JSON must be an object, got 'problem b inclusion automorphisms'"),
    ("ep-verify", ["problem", "b", "inclusion", "automorphisms"],
     "certificate JSON must be an object, got ['problem', 'b', 'inclusion', 'automorphisms']"),
    ("ep-verify", {"automorphisms": 5},
     "certificate 'automorphisms' must be an array, got 5"),
], ids=["amalgam-string", "amalgam-array", "mu-string", "mu-array", "maps-number", "maps-object",
        "certificate-string", "certificate-array", "automorphisms-number"])
def test_documents_of_the_wrong_kind_are_rejected_by_name(tmp_path, capsys, verb, document,
                                                          message):
    # a string naming the keys, or an array listing them, passes a check by
    # `in`; each must exit 2 naming the document, not fail on its first read
    problem = {"graph": k5_dict(), "maps": [{"map": [[f"a{i}", f"a{i}"] for i in range(5)]}]}
    ppath = write(tmp_path, "problem.json", problem)
    if verb == "ep-verify":
        rc, doc, _ = run(capsys, ["ep-extend", ppath])
        doc = dict(doc["certificate"], **document) if isinstance(document, dict) else document
        argv = [verb, ppath, write(tmp_path, "cert.json", doc)]
    else:
        argv = [verb, write(tmp_path, "doc.json", document)]
    rc, doc, _ = run(capsys, argv)
    assert rc == 2 and doc["error"] == {"type": "ValueError", "message": message}


def test_build(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {"m": 2, "vertices": [], "edges": []})
    rc, doc, _ = run(capsys, ["build", path, "--rounds", "1", "--budget", "2"])
    assert rc == 0
    assert doc["truncated"] is False
    assert len(doc["stages"]) == 2
    assert len(doc["stages"][-1]["vertices"]) == 5


def test_build_stops_at_max_ambient(tmp_path, capsys):
    path = write(tmp_path, "k5.json", k5_dict())
    argv = ["build", path, "--rounds", "1", "--budget", "3"]
    rc, doc, _ = run(capsys, argv + ["--max-ambient", "6"])
    assert rc == 0 and doc["truncated"] is True
    assert len(doc["stages"][-1]["vertices"]) <= 6
    rc, doc, _ = run(capsys, argv)
    assert rc == 0 and doc["truncated"] is False


def test_negative_build_and_extend_sizes_are_input_errors(tmp_path, capsys):
    path = write(tmp_path, "k5.json", k5_dict())
    build = ["build", path, "--rounds", "1", "--budget", "3"]
    for argv, name in [
            (["build", path, "--rounds", "-1", "--budget", "3"], "rounds"),
            (["build", path, "--rounds", "1", "--budget", "-1"], "size_budget"),
            (build + ["--max-ambient", "-5"], "max_ambient"),
            (["extend-iso", path, "--map", "a0=a0", "--steps", "-1"], "steps")]:
        rc, doc, _ = run(capsys, argv)
        assert rc == 2 and doc["error"]["type"] == "ValueError", argv
        assert doc["error"]["message"].startswith(f"{name} must be a nonnegative integer")
    rc, doc, _ = run(capsys, build + ["--max-ambient", "0"])
    assert rc == 0 and doc["truncated"] is True


def test_extend_iso(tmp_path, capsys):
    g = {
        "m": 2,
        "vertices": k5_dict("a")["vertices"] + k5_dict("b")["vertices"],
        "edges": k5_dict("a")["edges"] + k5_dict("b")["edges"],
    }
    path = write(tmp_path, "g.json", g)
    pairs = ",".join(f"a{i}=b{i}" for i in range(5))
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", pairs])
    assert rc == 0 and doc["grown"] is False
    gamma = dict(map(tuple, doc["gamma"]))
    assert gamma["a0"] == "b0" and gamma["b0"] == "a0"

    g["vertices"] = g["vertices"] + ["w"]
    g["edges"] = g["edges"] + [["b0", "w"], ["b1", "w"]]
    path = write(tmp_path, "g2.json", g)
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", pairs])
    assert rc == 0 and doc["grown"] is True
    assert len(doc["ambient"]["vertices"]) == 12


def test_extend_iso_past_the_recursion_limit(tmp_path, capsys):
    # the back-and-forth compiles the whole ambient as its pattern, one
    # search position per vertex: a path longer than the interpreter's
    # recursion limit, where the identity is the only extension
    names = [f"v{i:05d}" for i in range(1200)]
    path = write(tmp_path, "path.json", {
        "m": 2, "vertices": names, "edges": [[a, b] for a, b in zip(names, names[1:])]})
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", "v00000=v00000"])
    assert rc == 0 and doc["grown"] is False
    assert doc["gamma"] == [[v, v] for v in names]


def test_extend_iso_rejects_what_it_cannot_read_or_reach(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", "a0"])
    assert rc == 2 and doc["error"] == {
        "type": "ValueError", "message": "expected src=dst pairs, got 'a0'"}
    # w on a0, a1 has no image over b0, b1 until the ambient grows
    g = {"m": 2, "vertices": w_dict()["vertices"] + k5_dict("b")["vertices"],
         "edges": w_dict()["edges"] + k5_dict("b")["edges"]}
    path = write(tmp_path, "g2.json", g)
    pairs = ",".join(f"a{i}=b{i}" for i in range(5))
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", pairs, "--steps", "0"])
    assert rc == 1 and doc["error"]["type"] == "ConstructionFailed"
    assert doc["error"]["message"] == "no total extension within 0 rounds"
    assert doc["error"]["stage_log"] == []
    # with a second point over the a block, one step grows once and fails
    g["vertices"] = g["vertices"] + ["x"]
    g["edges"] = g["edges"] + [["a2", "x"], ["a3", "x"]]
    path = write(tmp_path, "g3.json", g)
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", pairs, "--steps", "1"])
    assert rc == 1 and doc["error"] == {
        "type": "ConstructionFailed", "message": "no total extension within 1 rounds",
        "stage_log": [{"side": "forth", "vertex": "b0", "grown": False, "size": 12},
                      {"side": "back", "vertex": "w", "grown": True, "size": 13}]}


def test_add_point(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, _ = run(capsys, ["add-point", path, "--over", "a0,a1,a2,a3,a4",
                              "--rel", "0"])
    assert rc == 0 and doc["fresh"] == "x"
    assert len(doc["graph"]["vertices"]) == 6
    assert ["a0", "x"] in doc["graph"]["edges"]


def test_export_dot(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc = cli.main(["export-dot", path, "--highlight", "core=a0,a1"])
    out = capsys.readouterr().out
    assert rc == 0
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert out.startswith(f"// input {path} sha256 {digest}\n")
    assert "graph ambient {" in out
    assert 'subgraph "cluster_core"' in out
    assert '    "a0";' in out


# verb, its arguments (fixture names stand for their paths), the fixtures it
# reads, and its exit code
_VERB_RUNS = [
    ("delta", ["k5"], ["k5"], 0),
    ("closed", ["k5", "--set", "a0"], ["k5"], 0),
    ("closure", ["k5", "--set", "a0"], ["k5"], 0),
    ("dim", ["w", "--set", "a0,a1"], ["w"], 0),
    ("gcl", ["w", "--set", "a0,a1"], ["w"], 0),
    ("k0", ["k5"], ["k5"], 0),
    ("amalgamate", ["amalgam"], ["amalgam"], 0),
    ("decompose", ["chain"], ["chain"], 0),
    ("hull", ["chain", "--set", "a0,a1,a2,a3,a4"], ["chain"], 0),
    ("mu", ["mu"], ["mu"], 0),
    ("ep-extend", ["problem"], ["problem"], 0),
    ("ep-verify", ["problem", "certificate"], ["problem", "certificate"], 0),
    ("ep-verify", ["problem", "tampered"], ["problem", "tampered"], 1),
    ("build", ["empty", "--rounds", "1", "--budget", "2"], ["empty"], 0),
    ("extend-iso", ["k5", "--map", "a0=a1,a1=a0,a2=a2,a3=a3,a4=a4"], ["k5"], 0),
    ("add-point", ["k5", "--over", "a0,a1,a2,a3,a4", "--rel", "0"], ["k5"], 0),
    ("export-dot", ["k5", "--highlight", "core=a0,a1"], ["k5"], 0),
    ("selftest", [], [], 0),
]


@pytest.mark.parametrize("verb, args, reads, code", _VERB_RUNS,
                         ids=[f"{run[0]}-{run[3]}" for run in _VERB_RUNS])
def test_every_verb_hashes_exactly_the_files_it_read(tmp_path, capsys, verb, args, reads, code):
    base = [f"a{i}" for i in range(5)]
    problem = {"graph": k5_dict(), "maps": [{"map": [[v, v] for v in base]}]}
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in [
        ("k5", k5_dict()), ("w", w_dict()), ("chain", chain_dict()),
        ("empty", {"m": 2, "vertices": [], "edges": []}),
        ("amalgam", {"left": k5_dict("a"), "right": k5_dict("b"),
                     "base": {"m": 2, "vertices": [], "edges": []},
                     "base_in_left": [], "base_in_right": []}),
        ("mu", {"graph": w_dict(), "base": base, "attach": ["w"],
                "alpha": [[v, v] for v in base]}),
        ("problem", problem)]}
    _, doc, _ = run(capsys, ["ep-extend", paths["problem"]])
    paths["certificate"] = write(tmp_path, "certificate.json", doc)
    doc["certificate"]["b"]["edges"] = doc["certificate"]["b"]["edges"][1:]
    paths["tampered"] = write(tmp_path, "tampered.json", doc)
    digests = {paths[name]: hashlib.sha256(open(paths[name], "rb").read()).hexdigest()
               for name in reads}

    rc = cli.main([verb] + [paths.get(arg, arg) for arg in args])
    out = capsys.readouterr().out
    assert rc == code
    if verb == "export-dot":
        comments = [line for line in out.splitlines() if line.startswith("//")]
        assert comments == [f"// input {p} sha256 {d}" for p, d in digests.items()]
        assert out.startswith(comments[0] + "\ngraph ambient {")
    else:
        doc = json.loads(out)
        assert list(doc)[:2] == ["schema", "inputs"] and "error" not in doc
        assert doc["schema"] == 1 and doc["inputs"] == digests


def test_export_dot_failure_writes_only_the_error_document(tmp_path, capsys):
    path = write(tmp_path, "g.json", k5_dict())
    rc, doc, _ = run(capsys, ["export-dot", path, "--highlight", "core=a0,zz"])
    assert rc == 1 and doc == {"schema": 1, "error": {
        "type": "UnknownVertex", "message": "unknown vertices: ['zz']"}}
    rc, doc, _ = run(capsys, ["export-dot", path, "--highlight", "x"])
    assert rc == 2 and doc == {"schema": 1, "error": {
        "type": "ValueError", "message": "expected NAME=v1,v2 highlight, got 'x'"}}


def test_every_verb_that_reads_a_graph_documents_m():
    [verbs] = [a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    helps = {name: [a.help for a in p._actions if "--m" in a.option_strings]
             for name, p in verbs.choices.items()}
    assert helps.pop("selftest") == []
    assert helps == dict.fromkeys(helps, ["override the sparsity coefficient"])


def test_error_exit_codes(tmp_path, capsys):
    rc, doc, _ = run(capsys, ["delta", str(tmp_path / "missing.json")])
    assert rc == 2 and doc["error"]["type"] == "FileNotFoundError"

    names = [f"c{i}" for i in range(6)]
    k6 = {"m": 2, "vertices": names,
          "edges": [[a, b] for a, b in itertools.combinations(names, 2)]}
    path = write(tmp_path, "k6.json", k6)
    rc, doc, _ = run(capsys, ["decompose", path])
    assert rc == 1 and doc["error"]["type"] == "OutsideK0"

    bad = {"m": 2, "vertices": ["a"], "edges": [["a", "b"]]}
    path = write(tmp_path, "bad.json", bad)
    rc, doc, _ = run(capsys, ["delta", path])
    assert rc == 1 and doc["error"]["type"] == "UnknownVertex"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json at all {")
    rc, doc, _ = run(capsys, ["delta", str(garbled)])
    assert rc == 2 and doc["error"]["type"] == "JSONDecodeError"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the parser gives up on depth with a RecursionError; that is still
    # input that cannot be parsed, not an internal failure
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc, doc, _ = run(capsys, ["k0", str(path)])
    assert rc == 2
    assert doc["error"]["type"] == "ValueError" and "nested" in doc["error"]["message"]


def test_malformed_graph_documents_are_input_errors(tmp_path, capsys):
    bad_docs = [
        {"m": 2, "vertices": "ab", "edges": []},
        {"m": 2, "vertices": ["a", "b"], "edges": "ab"},
        {"m": 2, "vertices": {"a": 1}, "edges": []},
        {"m": 2, "vertices": ["a", "b"], "edges": ["ab"]},
        {"m": 2, "vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
        {"m": 2, "vertices": [1, 2], "edges": [[1, 2]]},
        {"m": 2, "vertices": ["a", "b"], "edges": [["a", 2]]},
    ]
    for k, bad in enumerate(bad_docs):
        path = write(tmp_path, f"bad{k}.json", bad)
        rc, doc, _ = run(capsys, ["delta", path])
        assert rc == 2 and doc["error"]["type"] == "ValueError", bad
        with pytest.raises(ValueError):
            Graph.from_json_dict(bad)


def test_a_vertex_or_edge_listed_twice_is_an_input_error(tmp_path, capsys):
    # read as sets, the repeats would be dropped without a word
    for bad, twice in (
            ({"m": 2, "vertices": ["a", "a", "b"], "edges": []}, "vertex 'a'"),
            ({"m": 2, "vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]},
             "edge ('a', 'b')"),
            ({"m": 2, "vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
             "edge ('a', 'b')")):
        rc, doc, _ = run(capsys, ["delta", write(tmp_path, "twice.json", bad)])
        assert rc == 2 and doc["error"] == {
            "type": "ValueError", "message": f"graph document lists the {twice} twice"}
    # a certificate whose result graph lists one of its edges again, reversed
    problem = {"graph": k5_dict(), "maps": []}
    ppath = write(tmp_path, "problem.json", problem)
    rc, doc, _ = run(capsys, ["ep-extend", ppath])
    cert = doc["certificate"]
    assert rc == 0 and run(capsys, ["ep-verify", ppath, write(tmp_path, "c.json", cert)])[0] == 0
    u, v = cert["b"]["edges"][0]
    cert["b"]["edges"].append([v, u])
    rc, doc, _ = run(capsys, ["ep-verify", ppath, write(tmp_path, "c.json", cert)])
    assert rc == 2 and doc["error"] == {
        "type": "ValueError", "message": f"graph document lists the edge {(u, v)!r} twice"}


def test_construction_failure_reports_its_stage_log(tmp_path, capsys, monkeypatch):
    log = [{"stage": 1, "kind": "level", "rows": []}]

    def failing(p, max_set=None):
        raise ConstructionFailed("pass budget exhausted", stage_log=log)

    path = write(tmp_path, "p.json", {"graph": k5_dict(), "maps": []})
    rc, ok_doc, _ = run(capsys, ["ep-extend", path])
    assert rc == 0 and "error" not in ok_doc
    monkeypatch.setattr(cli, "ep_extend", failing)
    rc, doc, _ = run(capsys, ["ep-extend", path])
    assert rc == 1
    assert doc["error"] == {"type": "ConstructionFailed",
                            "message": "pass budget exhausted", "stage_log": log}

    # other domain failures keep their two-key error document
    path = write(tmp_path, "bad.json", {"m": 2, "vertices": ["a"], "edges": [["a", "b"]]})
    rc, doc, _ = run(capsys, ["delta", path])
    assert rc == 1 and set(doc["error"]) == {"type", "message"}


def test_internal_failures_exit_3(tmp_path, capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    path = write(tmp_path, "g.json", k5_dict())
    monkeypatch.setattr(cli, "extend_partial_iso", too_deep)
    rc, doc, _ = run(capsys, ["extend-iso", path, "--map", "a0=a0"])
    assert rc == 3
    assert doc == {"schema": 1, "error": {
        "type": "RecursionError", "message": "maximum recursion depth exceeded"}}
    monkeypatch.setattr(cli, "closure", broken)
    rc, doc, _ = run(capsys, ["closure", path, "--set", "a0"])
    assert rc == 3
    assert doc["error"] == {"type": "AssertionError", "message": "invariant broken"}


def test_graph_roundtrip_through_cli(tmp_path, capsys):
    d = chain_dict()
    path = write(tmp_path, "g.json", d)
    rc, doc, _ = run(capsys, ["decompose", path])
    assert rc == 0
    # the graph parsed by the CLI serializes back to the same normal form
    g = Graph.from_json_dict(d)
    assert canonical_json(g.to_json_dict()) == canonical_json(
        Graph.from_json_dict(g.to_json_dict()).to_json_dict())


def test_selftest(capsys):
    rc, doc, _ = run(capsys, ["selftest"])
    assert rc == 0 and doc["ok"] is True
    assert {row["name"] for row in doc["suites"]} == {
        "orientation", "closure", "amalgam", "extension", "builder"}
    assert all(row["failed"] == 0 for row in doc["suites"])
    assert all(row["passed"] > 0 for row in doc["suites"])


@pytest.mark.parametrize("name, wrong", [
    ("dimension", lambda g, a: -1),
    ("geometric_closure_bounded", lambda g, a: frozenset(a)),
])
def test_selftest_closure_suite_checks_the_set_answers(capsys, monkeypatch, name, wrong):
    # a wrong dimension, or a gcl that never grows past a, fails the suite
    monkeypatch.setattr(cli, name, wrong)
    rc, doc, _ = run(capsys, ["selftest"])
    rows = {row["name"]: row for row in doc["suites"]}
    assert rc == 1 and doc["ok"] is False and rows["closure"]["failed"] > 0
    assert rows["closure"]["passed"] + rows["closure"]["failed"] == 30


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "g.json", k5_dict())
    # the child imports the package this process imported
    src = str(pathlib.Path(cli.__file__).parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "abinitio.cli", "k0", path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["in_k0"] is True


# -- generated documents ---------------------------------------------------------

_NAMES = st.text(alphabet="abc", max_size=2)  # "" is not a vertex name
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                     st.floats(allow_nan=False, allow_infinity=False), _NAMES)
_ANY_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_NAMES, inner, max_size=3)), max_leaves=8)


@st.composite
def _graph_documents(draw):
    """The document of a graph, edges in either orientation and repeated,
    vertices repeated; or one with a single flaw."""
    names = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=2),
                          min_size=1, max_size=6))
    pairs = list(itertools.combinations(sorted(set(names)), 2))
    edges = [list(p) if keep else [p[1], p[0]] for p, keep in draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.booleans()), max_size=8))] if pairs else []
    doc = {"m": draw(st.integers(2, 4)), "vertices": names, "edges": edges}
    flaw = draw(st.sampled_from(["none", "none", "none", "m", "unlisted", "loop", "empty"]))
    if flaw == "m":
        doc["m"] = draw(_SCALARS.filter(lambda m: not (type(m) is int and m >= 2)))
    elif flaw == "unlisted":
        doc["edges"] = edges + [[names[0], "z"]]
    elif flaw == "loop":
        doc["edges"] = edges + [[names[0], names[0]]]
    elif flaw == "empty":
        doc["vertices"] = names + [""]
    return doc


# anything JSON of roughly a graph's shape, keys missing or extra
_LOOSE_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "m": _ANY_JSON,
    "vertices": st.one_of(st.lists(st.one_of(_NAMES, _ANY_JSON), max_size=5), _ANY_JSON),
    "edges": st.one_of(st.lists(st.one_of(
        st.lists(st.one_of(_NAMES, _ANY_JSON), max_size=3), _ANY_JSON), max_size=5), _ANY_JSON),
    "extra": _ANY_JSON,
})
_DOCUMENTS = st.one_of(_graph_documents(), _LOOSE_DOCUMENTS, _ANY_JSON)


def _read(doc):
    """The graph a document describes and exit code 0, or None and the exit
    code of its rejection: 2 for an input error, 1 for a domain error."""
    try:
        return Graph.from_json_dict(doc), 0
    except ValueError:
        return None, 2
    except AbinitioError:
        return None, 1


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_graph_documents_round_trip_or_are_rejected(doc):
    g, _ = _read(doc)
    if g is None:
        return
    # what was read is what the document lists, and it reads back unchanged
    assert g.m == doc["m"] and g.vertices == frozenset(doc["vertices"])
    assert g.edges == frozenset(tuple(sorted(e)) for e in doc["edges"])
    again = Graph.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert again == g and again.to_json_dict() == g.to_json_dict()


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_delta_answers_every_document_with_an_exit_code(document_dir, doc):
    path = document_dir / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["delta", str(path)])
    answer = json.loads(out.getvalue())
    assert rc in (0, 1, 2) and answer["schema"] == 1
    g, code = _read(doc)
    assert rc == code
    if g is None:
        assert set(answer) == {"schema", "error"}
    else:
        assert answer["delta"] == g.m * len(g.vertices) - len(g.edges)
