"""ep_extend shares the stage work that reads no map by value across calls:
the block counts of a base stage (_block_counts) and the sweep of a level
stage (_even_out).  These tests check that the sharing is invisible in
every certificate and failure, and pin how much it shares on the corpus."""

import pytest

import abinitio.extension
import abinitio.predimension
from abinitio import ConstructionFailed, ep_extend
from abinitio.extension import _block_counts, _even_out
from abinitio.predimension import _last_index, _self_sufficient_cached, _stored_orientation
from abinitio.zero_decomposition import _decomposition
from abinitio.graph import canonical_json
from test_acceptance import _ep_corpus


def _empty():
    _block_counts.cache_clear()
    _even_out.cache_clear()


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
    for cache in (_stored_orientation, _last_index, _self_sufficient_cached, _decomposition):
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
