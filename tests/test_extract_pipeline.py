"""E2E extraction: transcripts → scorer actor pool → T1/T2 vs goldens.

Golden-triple conformance (SURVEY.md §5.2.2): P/R must be ≥ 0.95 — the
sandbox operationalization of "matching the reference's emitted
(subj, pred, obj) sets" (BASELINE.json:14). Target is exact 1.0: any loss
is pipeline-induced.
"""

import pyarrow.parquet as pq
import pytest

from joint_entity_and_relation_extraction_ray.pipelines import kg
from joint_entity_and_relation_extraction_ray.schema import MENTIONS, TRIPLES
from joint_entity_and_relation_extraction_ray.sources.transcripts import read_transcripts


def _keys(tbl, cols):
    return set(zip(*[tbl[c].to_pylist() for c in cols]))


@pytest.fixture(scope="module")
def extracted(ray_session, sf0001_corpus):
    ds = read_transcripts(str(sf0001_corpus / "transcripts"))
    combined = kg.extract_combined(
        ds, kg.load_aliases("/root/testdata/sf0.001"), concurrency=2
    ).materialize()
    return combined


def test_mentions_match_golden(extracted, sf0001_corpus):
    got = kg.to_table(kg.mentions_of(extracted))
    golden = pq.read_table(sf0001_corpus / "golden_mentions")
    cols = ["conv_id", "turn_idx", "start", "end", "surface", "ent_type"]
    gk, wk = _keys(got, cols), _keys(golden, cols)
    prec = len(gk & wk) / len(gk)
    rec = len(gk & wk) / len(wk)
    assert prec >= 0.95 and rec >= 0.95, (prec, rec)
    assert got.select(MENTIONS.names).schema.names == list(MENTIONS.names)


def test_triples_match_golden(extracted, sf0001_corpus):
    got = kg.to_table(kg.triples_of(extracted))
    golden = pq.read_table(sf0001_corpus / "golden_triples")
    cols = ["conv_id", "turn_idx", "subj_surface", "pred", "obj_surface"]
    gk, wk = _keys(got, cols), _keys(golden, cols)
    prec = len(gk & wk) / len(gk)
    rec = len(gk & wk) / len(wk)
    assert prec >= 0.95 and rec >= 0.95, (prec, rec)
    assert set(TRIPLES.names) <= set(got.schema.names)


def test_schema_exact(extracted):
    m = kg.to_table(kg.mentions_of(extracted))
    assert m.cast(MENTIONS).schema == MENTIONS


def test_per_turn_text_equality_invariant(extracted, sf0001_corpus):
    """BASELINE.json:15: joining stage output back to T0 on (conv_id,
    turn_idx) must reproduce `text` byte-for-byte: mention surfaces must
    slice out of the original text at their offsets."""
    got = kg.to_table(kg.mentions_of(extracted)).to_pandas()
    t0 = pq.read_table(sf0001_corpus / "transcripts").to_pandas()
    merged = got.merge(t0[["conv_id", "turn_idx", "text"]], on=["conv_id", "turn_idx"])
    assert len(merged) == len(got)
    sliced = merged.apply(lambda r: r["text"][r["start"] : r["end"]], axis=1)
    assert (sliced == merged["surface"]).all()


def test_mention_positions_exact_distinct(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.linker import (
        mention_positions,
    )

    rows = [
        # (conv_id, turn_idx, ent_type)
        ("c1", 0, "PER"),
        ("c1", 0, "PER"),   # two PER mentions, same conv+turn
        ("c2", 0, "PER"),
        ("c1", 1, "ORG"),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "ent_type": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    )
    out = (
        mention_positions(ds, num_buckets=4)
        .to_pandas()
        .sort_values(["ent_type", "turn_idx"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, out.itertuples(index=False))) == [
        ("ORG", 1, 1, 1),
        ("PER", 0, 3, 2),
    ]


def test_build_report_consistency(ray_session):
    from joint_entity_and_relation_extraction_ray.pipelines import kg
    from joint_entity_and_relation_extraction_ray.sources.synth import (
        ensure_corpus,
    )

    sf = str(ensure_corpus("sf0.001").parent / "..")  # noqa: unused guard
    r = kg.build_report("/root/testdata/sf0.001").to_pandas().iloc[0]
    assert r["n_mentions"] > 0 and r["n_triples"] > 0
    assert 0 <= r["n_linked"] <= r["n_mentions"]
    assert r["link_rate"] == r["n_linked"] / r["n_mentions"]
    # every edge aggregates >= 1 assertion; total weight counts the
    # both-endpoints-linked triples, bounded by the triple count
    assert 0 < r["n_edges"] <= r["total_weight"] <= r["n_triples"]
    assert 0 < r["n_entities_linked"] <= r["n_linked"]


def test_pool_size_leaves_cpus_for_feeding_tasks(monkeypatch):
    """The actor-pool size keeps CPUs free for the tasks that feed the
    pool: one actor in a 2-CPU session, a clear error in a 1-CPU session
    (where any pool would hang the job), and max(2, ncpu - 2) from 3 CPUs
    up."""
    import ray

    from joint_entity_and_relation_extraction_ray.stages.linker import (
        default_pool_size,
    )

    def with_cpus(n):
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(n)})
        return default_pool_size()

    assert [with_cpus(n) for n in (2, 3, 4, 8, 32)] == [1, 2, 2, 6, 30]
    with pytest.raises(RuntimeError, match="at least 2"):
        with_cpus(1)
