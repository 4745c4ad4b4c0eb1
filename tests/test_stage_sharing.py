"""ep_extend shares the stage work that reads no map by value across calls:
the block counts of a base stage (_block_counts), the sweep of a level
stage (_even_out) and the satellite record of a stage graph (_satellites).
These tests check that the sharing is invisible in every certificate and
failure, and pin how much it shares on the corpus."""

import itertools
import random
import sys

import pytest

import abinitio.extension
import abinitio.graph
import abinitio.predimension
import abinitio.zero_decomposition
from abinitio import ConstructionFailed, EmbeddingPlan, Graph, ep_extend
from abinitio.extension import (
    _block_counts, _even_out, _extend_map_over_satellites, _satellites)
from abinitio.graph import _shape
from abinitio.predimension import _last_index, _self_sufficient_cached, _stored_orientation
from abinitio.zero_decomposition import _decomposition
from abinitio.graph import canonical_json
from oracles import brute_automorphisms, ref_extend_map_over_satellites
from test_acceptance import _ep_corpus
from test_extension import SHARED_STAGES

STAGE_CACHES = (_block_counts, _even_out, _satellites)
GRAPH_CACHES = (_stored_orientation, _last_index, _self_sufficient_cached, _decomposition, _shape)


def _empty():
    for cache in STAGE_CACHES:
        cache.cache_clear()


def _certificates(problems, cold=False) -> list:
    out = []
    for label, p in problems:
        if cold:
            _empty()
        out.append((label, canonical_json(ep_extend(p).to_json_dict())))
    return sorted(out)


def _copying_problem():
    """The first corpus problem whose first level stage adds copies."""
    _empty()
    for _, p in _ep_corpus():
        cert = ep_extend(p)
        if len(cert.stage_log) > 1 and cert.stage_log[1]["added"]:
            return p, cert
    raise AssertionError("no corpus problem adds copies")


def test_corpus_certificates_do_not_depend_on_what_ran_before():
    corpus = _ep_corpus()
    cold = _certificates(corpus, cold=True)
    _empty()
    assert _certificates(corpus) == cold  # filling the caches
    assert _certificates(corpus) == cold  # from full caches
    _empty()
    assert _certificates(corpus[::-1]) == cold
    assert _even_out.cache_info().hits and _block_counts.cache_info().hits


def test_one_corpus_pass_evens_out_each_distinct_stage_once():
    # 51 problems over 14 ambients: their 30 level stages start from 8
    # distinct stage graphs
    _empty()
    for _, p in _ep_corpus():
        ep_extend(p)
    sweeps, blocks = _even_out.cache_info(), _block_counts.cache_info()
    assert (sweeps.hits + sweeps.misses, sweeps.misses) == (30, 8)
    assert (blocks.hits + blocks.misses, blocks.misses) == (51, 14)


def test_one_corpus_pass_runs_at_most_149_orientation_searches(monkeypatch):
    # from every cache empty: membership and the blocks read the stored
    # orientation of each graph, and a level chain searches once per
    # carrier with points above its blocks
    _empty()
    for cache in GRAPH_CACHES:
        cache.cache_clear()
    runs, search = [], abinitio.predimension._orient
    monkeypatch.setattr(abinitio.predimension, "_orient",
                        lambda *args: runs.append(1) or search(*args))
    for _, p in _ep_corpus():
        ep_extend(p)
    assert len(runs) <= 149


def test_a_changed_certificate_leaves_the_next_one_unchanged():
    p, cert = _copying_problem()
    want = canonical_json(cert.to_json_dict())
    base, level = cert.stage_log[0], cert.stage_log[1]
    level["rows"][0]["nu"] = -1
    level["rows"][0]["base"].append("changed")
    level["added"][0]["alpha"][0][1] = "changed"
    level["added"][0]["fresh"].clear()
    level["added"].append({})
    base["mu"][0]["count"] = -1
    cert.counts["mu"].append({})
    cert.counts["nu"][0]["generator"].clear()
    hits = _even_out.cache_info().hits
    again = ep_extend(p)
    assert _even_out.cache_info().hits > hits
    assert canonical_json(again.to_json_dict()) == want
    assert again.stage_log[1]["added"] is not level["added"]


def test_a_failed_stage_leaves_the_caches_as_they_were(monkeypatch):
    p, cert = _copying_problem()
    want = canonical_json(cert.to_json_dict())
    first = cert.stage_log[1]
    for name, value in (("_MAX_COPIES_PER_ROW", 0), ("_MAX_SWEEP_PASSES", 1)):
        _empty()
        with monkeypatch.context() as patched:
            patched.setattr(abinitio.extension, name, value)
            with pytest.raises(ConstructionFailed, match="budget of") as failed:
                ep_extend(p)
        # the stage's own log, as a failure with no sharing reported it
        [log] = failed.value.stage_log
        assert type(log) is dict
        assert list(log) == ["stage", "kind", "layer_added", "rows", "added", "map_cycles"]
        assert log == {"stage": 1, "kind": "level", "layer_added": first["layer_added"],
                       "rows": [], "added": first["added"][:len(log["added"])],
                       "map_cycles": []}
        assert canonical_json(ep_extend(p).to_json_dict()) == want


def test_every_module_cache_is_emptied_where_tests_need_it():
    # a cache left off these lists would carry entries from one test into
    # the next, and hide work from the tests that count it
    lru = type(_even_out)
    caches = {module.__name__: {name for name, obj in vars(module).items()
                                if type(obj) is lru and obj.__module__ == module.__name__}
              for module in (abinitio.extension, abinitio.graph, abinitio.predimension,
                             abinitio.zero_decomposition)}
    assert caches["abinitio.extension"] == set(SHARED_STAGES)
    listed = {cache.__wrapped__ for cache in STAGE_CACHES + GRAPH_CACHES}
    for module, names in caches.items():
        for name in names:
            assert getattr(sys.modules[module], name).__wrapped__ in listed, (module, name)


def test_one_corpus_pass_builds_8_satellite_records_and_searches_20_components(monkeypatch):
    # 28 level-stage calls extend their maps over 8 distinct stage graphs.
    # Of the 440 searches a pass made when each call matched afresh, 20 are
    # left: the other matches are one-point components, read off the pins,
    # or answers the record already holds
    _empty()
    searches, inside, first = [], [False], EmbeddingPlan.first
    extend = abinitio.extension._extend_map_over_satellites

    def counted(*args):
        inside[0] = True
        try:
            return extend(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(EmbeddingPlan, "first",
                        lambda *args, **kwargs: searches.append(inside[0]) or first(*args, **kwargs))
    monkeypatch.setattr(abinitio.extension, "_extend_map_over_satellites", counted)
    for _, p in _ep_corpus():
        ep_extend(p)
    records = _satellites.cache_info()
    assert (records.hits + records.misses, records.misses) == (28, 8)
    assert sum(searches) == 20


def _outcome(fn, *args):
    log_cycles: list = []
    try:
        return fn(*args[:4], log_cycles, *args[4:]), log_cycles
    except ConstructionFailed as exc:
        return ("failed", str(exc)), log_cycles


def _checked_both_ways(monkeypatch, *args):
    """The extension over b = args[0] from an empty satellite record and from
    the shared one, each as the reference answers: map, cycles or error."""
    want = _outcome(ref_extend_map_over_satellites, *args)
    for record in (_satellites.__wrapped__, _satellites):
        monkeypatch.setattr(abinitio.extension, "_satellites", record)
        assert _outcome(_extend_map_over_satellites, *args) == want
    return want


def test_corpus_satellites_answer_as_the_reference_from_empty_and_warm_records(monkeypatch):
    # every call of two corpus passes: the first fills the shared records,
    # the second reads them full
    calls = []

    def checked(b, prev_verts, e, fq, log_cycles, map_index, stage_log):
        calls.append(_checked_both_ways(monkeypatch, b, prev_verts, e, fq, map_index, stage_log))
        return _extend_map_over_satellites(b, prev_verts, e, fq, log_cycles, map_index, stage_log)

    monkeypatch.setattr(abinitio.extension, "_extend_map_over_satellites", checked)
    _empty()
    for _ in range(2):
        for _, p in _ep_corpus():
            ep_extend(p)
    assert len(calls) == 56 and any(log for _, log in calls)


def _random_stage(rng):
    """A block, a five-cycle or K5, and components of one to three points
    tied to the block by as many edges as make them count 0 over it, as
    attachment components do: a component matching another then has its
    anchors' images as anchors.  Each comes with copies moved by
    automorphisms of the block, so that some pairs match."""
    names = [f"a{i}" for i in range(5)]
    ring = [(x, names[(i + 1) % 5]) for i, x in enumerate(names)]
    block = Graph(2, names, rng.choice([ring, list(itertools.combinations(names, 2))]))
    autos = brute_automorphisms(block)
    points, edges = list(names), list(block.edges)
    for i in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        shape = [(0, 1), (1, 2), (0, 2)][:size - 1 + (size == 3 and rng.random() < 0.5)]
        ties: list = [[] for _ in range(size)]
        for _ in range(2 * size - len(shape)):
            point = rng.choice(ties)
            point.append(rng.choice(sorted(set(names) - set(point))))
        for j in range(rng.randint(1, 3)):
            g = rng.choice(autos)
            copy = [f"c{i}_{j}_{k}" for k in range(size)]
            points += copy
            edges += [(copy[x], copy[y]) for x, y in shape]
            edges += [(copy[k], g[x]) for k in range(size) for x in ties[k]]
    return Graph(2, points, edges), frozenset(names), autos


def _random_forcing(rng, b, block) -> dict:
    """Some points sent by the input map into the points outside the block,
    now and then one into the block, so that its image straddles."""
    outside = sorted(b.vertices - block)
    k = rng.randint(0, min(2, len(outside)))
    e = dict(zip(rng.sample(outside, k), rng.sample(outside, k)))
    if e and rng.random() < 0.2:
        e[next(iter(e))] = rng.choice(sorted(block))
    return e


def test_random_satellites_answer_as_the_reference_from_empty_and_warm_records(monkeypatch):
    # maps of the block drawn from its automorphisms, forced and unforced,
    # several per stage graph so that the shared record answers from what
    # earlier maps left in it
    rng = random.Random(2614)
    seen = set()
    for _ in range(150):
        b, block, autos = _random_stage(rng)
        _satellites.cache_clear()
        fqs = rng.sample(autos, min(2, len(autos)))  # repeats meet answers of other forcings
        for _ in range(6):
            fq = rng.choice(fqs)
            e = _random_forcing(rng, b, block) if rng.random() < 0.7 else {}
            got, _ = _checked_both_ways(monkeypatch, b, block, e, fq, 0, [])
            seen.add(got[1].split(": ")[1] if type(got) is tuple else "extended")
    assert seen == {"extended", "ran out of compatible components",
                    "forced image straddles attachment components",
                    "no compatible completion over a forced component"}


def test_a_failed_call_leaves_the_record_answering_as_before(monkeypatch):
    rng = random.Random(2615)
    failed = 0
    for _ in range(100):
        b, block, autos = _random_stage(rng)
        _satellites.cache_clear()
        draws = [(rng.choice(autos), _random_forcing(rng, b, block)) for _ in range(4)]
        before = [_outcome(_extend_map_over_satellites, b, block, e, fq, 0, [])
                  for fq, e in draws]
        memo = dict(_satellites(b, block)[3])
        for fq, e in draws:
            got, _ = _checked_both_ways(monkeypatch, b, block, e, fq, 0, [])
            failed += type(got) is tuple
        # the answers the record held before are still its answers
        assert {key: _satellites(b, block)[3][key] for key in memo} == memo
        assert [_outcome(_extend_map_over_satellites, b, block, e, fq, 0, [])
                for fq, e in draws] == before
    assert failed


def test_one_corpus_pass_carries_its_sweeps_from_pass_to_pass(monkeypatch):
    # from every cache empty.  A sweep's confirming pass types its old rows
    # and its copies' rows unsearched, extends its witnesses by the copies
    # and reads the counts the last evening-out left on its graph.  Every
    # stage graph counts 0 and is in K0, so nothing in a pass decides
    # strength: what counts 0 is strong there, and the block counts list no
    # placement.  Before that a pass made 135 row-type searches, 16 witness
    # rebuilds, 48 representatives listings, 125 tally searches and 247
    # strength decisions.  This pins how the work is done, not an output
    _empty()
    for cache in GRAPH_CACHES:
        cache.cache_clear()
    counts = dict.fromkeys(["types", "rebuilds", "representatives", "tallies"], 0)
    inside = [False]

    def counted(key, fn, only_inside=False):
        def call(*args, **kwargs):
            counts[key] += inside[0] or not only_inside
            return fn(*args, **kwargs)
        return call

    def rows(*args):
        inside[0] = True
        try:
            return report_rows(*args)
        finally:
            inside[0] = False

    report_rows = abinitio.extension._report_rows
    monkeypatch.setattr(abinitio.extension, "_report_rows", rows)
    monkeypatch.setattr(EmbeddingPlan, "embeds_within",
                        counted("types", EmbeddingPlan.embeds_within, only_inside=True))
    monkeypatch.setattr(abinitio.zero_decomposition, "_report_witnesses",
                        counted("rebuilds", abinitio.zero_decomposition._report_witnesses))
    monkeypatch.setattr(EmbeddingPlan, "representatives",
                        counted("representatives", EmbeddingPlan.representatives))
    monkeypatch.setattr(abinitio.graph, "_tally", counted("tallies", abinitio.graph._tally))
    for _, p in _ep_corpus():
        ep_extend(p)
    counts["strength"] = _self_sufficient_cached.cache_info().misses
    assert counts == {"types": 3, "rebuilds": 8, "representatives": 18, "tallies": 71,
                      "strength": 0}
