"""The benchmark's own oracles and checks, on tiny hand-built inputs.

Run from the repository root: ``python3 -m pytest kgbench/tests -q``.
Nothing here starts Ray or imports the program.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from kgbench import gen, oracle

T0 = gen.EPOCH_US


def _aliases(rows):
    return pa.table(
        {
            "alias": [r[0] for r in rows],
            "entity_id": [r[1] for r in rows],
            "ent_type": [r[2] for r in rows],
            "prior": pa.array([r[3] for r in rows], pa.float32()),
        },
        schema=gen.ALIASES,
    )


def _triples(rows):
    return pa.table(
        {
            "conv_id": ["c"] * len(rows),
            "turn_idx": pa.array(range(len(rows)), pa.int32()),
            "subj_surface": [r[0] for r in rows],
            "subj_type": [r[1] for r in rows],
            "pred": [r[2] for r in rows],
            "obj_surface": [r[3] for r in rows],
            "obj_type": [r[4] for r in rows],
            "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
        },
        schema=gen.GOLDEN_TRIPLES,
    )


AMAP = oracle.alias_map(
    _aliases(
        [
            ("dr. kim", "E2", "Peop", 0.5),
            ("dr. kim", "E1", "Peop", 0.5),  # tie: smallest id wins
            ("dr. kim", "E3", "Peop", 0.4),
            ("ann kim", "E3", "Peop", 1.0),
            ("acme", "E9", "Org", 0.2),
            ("acme", "E8", "Org", 0.1),  # lower prior loses
            ("paris", "E5", "Loc", 1.0),
        ]
    )
)


def test_alias_rule_prior_then_smallest_id():
    assert AMAP[("dr. kim", "Peop")] == "E1"
    assert AMAP[("acme", "Org")] == "E9"
    assert ("acme", "Peop") not in AMAP


def test_expected_edges_weights_and_time_range():
    tr = _triples(
        [
            ("Dr. Kim", "Peop", "Work_For", "ACME", "Org", T0 + 60),
            ("dr. kim", "Peop", "Work_For", "Acme", "Org", T0 + 10),
            ("Ann Kim", "Peop", "Live_In", "Paris", "Loc", T0 + 5),
            ("Nobody", "Peop", "Live_In", "Paris", "Loc", T0 + 7),  # not in the dictionary
        ]
    )
    assert oracle.expected_edges(tr, AMAP) == {
        ("E1", "Work_For", "E9"): (2, T0 + 10, T0 + 60),
        ("E3", "Live_In", "E5"): (1, T0 + 5, T0 + 5),
    }


def test_expected_node_counts():
    m = pa.table(
        {
            "surface": ["Dr. Kim", "Ann Kim", "ann kim", "Paris", "Nobody"],
            "ent_type": ["Peop", "Peop", "Peop", "Loc", "Peop"],
        }
    )
    assert oracle.expected_node_counts(m, AMAP) == {"E1": 1, "E3": 2, "E5": 1}


def test_weighted_pr():
    assert oracle.weighted_pr({"a": 2, "b": 1}, {"a": 2, "b": 1}) == (1.0, 1.0)
    p, r = oracle.weighted_pr({"a": 2, "c": 2}, {"a": 3, "b": 1})
    assert (p, r) == (0.5, 0.5)


# ---------------------------------------------------------------------------
# graph check: passes on the right output, fails on each corruption
# ---------------------------------------------------------------------------

WANT_EDGES = {
    ("E1", "Work_For", "E9"): (2, T0 + 10, T0 + 60),
    ("E3", "Live_In", "E5"): (1, T0 + 5, T0 + 5),
    ("E3", "Kill", "E1"): (1, T0 + 20, T0 + 20),
}
WANT_NODES = {"E1": 3, "E3": 2, "E5": 1, "E9": 2}
TS_RANGE = (T0, T0 + 100)


def _edges(want=WANT_EDGES):
    keys = list(want)
    return pa.table(
        {
            "subj_id": [k[0] for k in keys],
            "pred": [k[1] for k in keys],
            "obj_id": [k[2] for k in keys],
            "weight": pa.array([want[k][0] for k in keys], pa.int64()),
            "first_ts": pa.array([want[k][1] for k in keys], pa.timestamp("us")),
            "last_ts": pa.array([want[k][2] for k in keys], pa.timestamp("us")),
        }
    )


def _nodes(want=WANT_NODES):
    return pa.table({"entity_id": list(want), "mention_count": pa.array(list(want.values()), pa.int64())})


def _check(edges, nodes):
    return oracle.check_graph(edges, nodes, WANT_EDGES, WANT_NODES, TS_RANGE)[0]


def test_graph_check_accepts_the_right_graph():
    assert _check(_edges(), _nodes()) == []


def test_graph_check_fails_on_a_dropped_edge():
    assert _check(_edges().slice(1), _nodes())


def test_graph_check_fails_on_a_changed_weight():
    e = _edges()
    e = e.set_column(3, "weight", pa.array([2, 1, 5], pa.int64()))
    assert _check(e, _nodes())


def test_graph_check_fails_on_a_wrong_mention_count():
    assert _check(_edges(), _nodes({**WANT_NODES, "E1": 9}))


def test_graph_check_fails_on_a_dangling_endpoint():
    nodes = _nodes({k: v for k, v in WANT_NODES.items() if k != "E5"})
    assert any("not a node" in b for b in _check(_edges(), nodes))


def test_graph_check_fails_on_a_duplicate_edge():
    e = _edges()
    assert any("duplicate" in b for b in _check(pa.concat_tables([e, e.slice(2)]), _nodes()))


@pytest.mark.parametrize("first,last", [(T0 + 50, T0 + 40), (T0 - 1, T0 + 5), (T0 + 5, T0 + 101)])
def test_graph_check_fails_on_bad_timestamps(first, last):
    e = _edges()
    e = e.set_column(4, "first_ts", pa.array([T0 + 10, first, T0 + 20], pa.timestamp("us")))
    e = e.set_column(5, "last_ts", pa.array([T0 + 60, last, T0 + 20], pa.timestamp("us")))
    assert any("first_ts" in b for b in _check(e, _nodes()))


# ---------------------------------------------------------------------------
# near-duplicate pairs
# ---------------------------------------------------------------------------


def _docs():
    base = np.arange(10, 30, dtype=np.int32)  # 20 words → 18 shingles
    one = base.copy()
    one[19] = 99  # last word changed: 1 shingle lost → J = 17/19
    far = base.copy()
    far[[2, 8, 14]] = [97, 98, 99]  # 9 shingles lost → J = 9/27
    other = np.arange(40, 60, dtype=np.int32)
    return np.stack([base, one, far, other])


def test_expected_pairs_exact():
    sh = oracle.shingle_sets(_docs())
    assert oracle.jaccard(sh[0], sh[1]) == pytest.approx(17 / 19)
    assert oracle.jaccard(sh[0], sh[2]) == pytest.approx(9 / 27)
    assert oracle.expected_pairs(sh, 0.5) == {(0, 1)}
    assert oracle.jaccard(sh[1], sh[2]) == pytest.approx(8 / 28)
    assert oracle.expected_pairs(sh, 0.3) == {(0, 1), (0, 2)}
    assert oracle.expected_pairs(sh, 0.25) == {(0, 1), (0, 2), (1, 2)}


def _pairs(rows):
    return pa.table({"doc_a": pa.array([r[0] for r in rows], pa.int64()), "doc_b": pa.array([r[1] for r in rows], pa.int64())})


def test_pair_check():
    sh = oracle.shingle_sets(_docs())
    want = oracle.expected_pairs(sh, 0.5)
    assert oracle.check_pairs(_pairs([(0, 1)]), sh, want, 0.5)[0] == []
    assert oracle.check_pairs(_pairs([(0, 1), (0, 2)]), sh, want, 0.5)[0]  # below the threshold
    assert oracle.check_pairs(_pairs([(0, 1), (0, 1)]), sh, want, 0.5)[0]  # duplicate
    assert oracle.check_pairs(_pairs([(1, 0)]), sh, want, 0.5)[0]  # order
    assert oracle.check_pairs(_pairs([]), sh, want, 0.5)[0]  # recall


# ---------------------------------------------------------------------------
# checkpoint resubmission
# ---------------------------------------------------------------------------


def _ckpt(tmp_path):
    (tmp_path / "edges" / "part=0").mkdir(parents=True)
    (tmp_path / "edges" / "part=0" / "a.parquet").write_bytes(b"x" * 10)
    (tmp_path / "edges.manifest.json").write_text('{"fingerprint": "f1"}')
    return oracle.checkpoint_files(tmp_path), oracle.stage_fingerprints(tmp_path)


def test_resubmission_check_passes_when_nothing_changes(tmp_path):
    files, fps = _ckpt(tmp_path)
    after = oracle.checkpoint_files(tmp_path), oracle.stage_fingerprints(tmp_path)
    assert oracle.check_resubmission(files, after[0], fps, after[1], {"edges": "f1"}) == []


def test_resubmission_check_fails_on_a_rewritten_file(tmp_path):
    files, fps = _ckpt(tmp_path)
    f = tmp_path / "edges" / "part=0" / "a.parquet"
    time.sleep(0.01)
    f.write_bytes(b"x" * 10)  # same path and size, new mtime
    os.utime(f, ns=(f.stat().st_atime_ns, f.stat().st_mtime_ns + 1_000_000))
    after = oracle.checkpoint_files(tmp_path)
    assert oracle.check_resubmission(files, after, fps, fps, fps)


def test_resubmission_check_fails_on_a_new_fingerprint(tmp_path):
    files, fps = _ckpt(tmp_path)
    (tmp_path / "edges.manifest.json").write_text('{"fingerprint": "f2"}')
    after = oracle.stage_fingerprints(tmp_path)
    assert oracle.check_resubmission(files, files, fps, after, after)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

SPEC = gen.KGSpec(
    n_convs=30, min_turns=2, max_turns=20, filler_share=0.3,
    min_clauses=1, max_clauses=3, distractor_share=0.25, n_files=2,
)


def test_transcripts_are_seeded_and_offsets_exact():
    a = gen.transcripts(SPEC, 7, gen.gazetteer(7))
    b = gen.transcripts(SPEC, 7, gen.gazetteer(7))
    c = gen.transcripts(SPEC, 8, gen.gazetteer(8))
    assert all(a[k].equals(b[k]) for k in a)
    assert not a["transcripts"].equals(c["transcripts"])
    text = {
        (r["conv_id"], r["turn_idx"]): r["text"] for r in a["transcripts"].to_pylist()
    }
    for m in a["golden_mentions"].to_pylist():
        assert text[(m["conv_id"], m["turn_idx"])][m["start"] : m["end"]] == m["surface"]
    roles = a["transcripts"]["role"].to_pylist()
    tools = a["transcripts"]["tool"].to_pylist()
    assert all((t is not None) == (r == "tool") for r, t in zip(roles, tools))
    assert pc.all(pc.greater(pc.utf8_length(a["transcripts"]["text"]), 0)).as_py()


def test_every_golden_surface_is_in_the_dictionary():
    ents = gen.gazetteer(3)
    amap = oracle.alias_map(gen.alias_rows(ents, 3))
    m = gen.transcripts(SPEC, 3, ents)["golden_mentions"]
    assert all(
        (s.casefold(), t) in amap
        for s, t in zip(m["surface"].to_pylist(), m["ent_type"].to_pylist())
    )


def test_doc_chains_are_seeded_and_hold_near_duplicates():
    spec = gen.DocSpec(n_docs=500, words_per_doc=40, vocab=30000, dup_share=0.2, max_chain=6, max_edits=4, n_files=2)
    a, b = gen.doc_word_ids(spec, 5), gen.doc_word_ids(spec, 5)
    assert np.array_equal(a, b)
    pairs = oracle.expected_pairs(oracle.shingle_sets(a), 0.5)
    assert 20 <= len(pairs) <= 500
