"""Checkpoint / lineage / resume semantics (SURVEY.md §4.4, §5.2.5)."""

import json
import time

import pyarrow as pa
import pytest
import ray.data

from joint_entity_and_relation_extraction_ray.sources.synth import ensure_corpus
from joint_entity_and_relation_extraction_ray.state.checkpoint import (
    Checkpointer,
    fingerprint,
)


def _src(n=100):
    return ray.data.from_arrow(
        pa.table({"x": pa.array(range(n), pa.int64())})
    )


def test_fingerprint_chains_params_and_deps():
    a = fingerprint("s", {"p": 1}, [])
    assert a != fingerprint("s", {"p": 2}, [])
    assert a != fingerprint("s2", {"p": 1}, [])
    assert fingerprint("s", {"p": 1}, ["x"]) != fingerprint("s", {"p": 1}, ["y"])


def test_skip_recompute_and_invalidation(tmp_path, ray_session):
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        return _src()

    ck = Checkpointer(tmp_path)
    ds1 = ck.run("stage_a", build, params={"v": 1})
    assert ds1.count() == 100 and calls["n"] == 1

    # second run, same params: reads parquet, no recompute
    ck2 = Checkpointer(tmp_path)
    ds2 = ck2.run("stage_a", build, params={"v": 1})
    assert ds2.count() == 100 and calls["n"] == 1

    # changed params invalidate
    ck3 = Checkpointer(tmp_path)
    ck3.run("stage_a", build, params={"v": 2})
    assert calls["n"] == 2


def test_downstream_invalidation_via_dep_chain(tmp_path, ray_session):
    calls = {"a": 0, "b": 0}

    def mk(name):
        def build():
            calls[name] += 1
            return _src(10)

        return build

    ck = Checkpointer(tmp_path)
    ck.run("a", mk("a"), params={"v": 1})
    ck.run("b", mk("b"), deps=["a"])
    assert calls == {"a": 1, "b": 1}

    # rerun unchanged: both skipped
    ck = Checkpointer(tmp_path)
    ck.run("a", mk("a"), params={"v": 1})
    ck.run("b", mk("b"), deps=["a"])
    assert calls == {"a": 1, "b": 1}

    # upstream param change transitively recomputes downstream
    ck = Checkpointer(tmp_path)
    ck.run("a", mk("a"), params={"v": 2})
    ck.run("b", mk("b"), deps=["a"])
    assert calls == {"a": 2, "b": 2}


def test_partitioned_write_and_manifest(tmp_path, ray_session):
    def build():
        return ray.data.from_arrow(
            pa.table(
                {
                    "x": pa.array(range(20), pa.int64()),
                    "part": pa.array([i % 4 for i in range(20)], pa.int32()),
                }
            )
        )

    ck = Checkpointer(tmp_path)
    ck.run("parted", build)
    m = json.loads((tmp_path / "parted.manifest.json").read_text())
    assert m["rows"] == 20
    # one directory per part bucket (resumable layout)
    parts = {p.name for p in (tmp_path / "parted").iterdir() if p.is_dir()}
    assert parts == {"part=0", "part=1", "part=2", "part=3"}
    # per-file rows recorded (per-partition lineage detail)
    assert sum(m["files"].values()) == 20
    assert (tmp_path / "metrics.jsonl").exists()


def test_stage_wall_covers_build_and_write(tmp_path, ray_session):
    """An eager build (a shuffle, a count) is part of the stage's wall:
    the manifest and metrics.jsonl record build_s and write_s, and
    wall_s is their sum, for run() and for each run_partitioned part."""

    def build(*_):
        time.sleep(0.3)
        return _src(10)

    ck = Checkpointer(tmp_path)
    ck.run("slow", build)
    ck.run_partitioned("slow_parts", build, num_parts=2)
    recs = [
        json.loads(line)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
    ]
    manifests = [
        json.loads((tmp_path / "slow.manifest.json").read_text()),
        *(
            json.loads(p.read_text())
            for p in sorted((tmp_path / "slow_parts.manifests").glob("*.json"))
        ),
    ]
    assert [r["stage"] for r in recs] == ["slow", "slow_parts", "slow_parts"]
    for m in recs + manifests:
        assert m["build_s"] >= 0.3
        assert m["wall_s"] == pytest.approx(
            m["build_s"] + m["write_s"], abs=2e-3
        )
    rolled = json.loads((tmp_path / "slow_parts.manifest.json").read_text())
    assert rolled["build_s"] >= 0.6


def test_partition_level_resume(tmp_path, ray_session):
    """Kill-after-subset semantics: only missing/stale partitions rebuild,
    and the reassembled stage is byte-identical (SURVEY §4.4)."""
    calls = []

    def build_part(k):
        calls.append(k)
        return ray.data.from_arrow(
            pa.table({"x": pa.array(range(k * 10, k * 10 + 10), pa.int64())})
        )

    ck = Checkpointer(tmp_path)
    ds1 = ck.run_partitioned("sharded", build_part, num_parts=4)
    assert sorted(calls) == [0, 1, 2, 3]
    df1 = ds1.to_pandas().sort_values("x").reset_index(drop=True)
    assert list(df1["x"]) == list(range(40))
    assert "part" not in df1.columns  # hive shard col dropped on read-back

    # rerun unchanged: zero partition rebuilds
    calls.clear()
    ds2 = Checkpointer(tmp_path).run_partitioned(
        "sharded", build_part, num_parts=4
    )
    assert calls == [] and ds2.count() == 40

    # simulate a kill that lost partition 2: only partition 2 rebuilds
    import shutil

    (tmp_path / "sharded.manifests" / "2.json").unlink()
    shutil.rmtree(tmp_path / "sharded" / "part=2")
    calls.clear()
    ds3 = Checkpointer(tmp_path).run_partitioned(
        "sharded", build_part, num_parts=4
    )
    assert calls == [2]
    df3 = ds3.to_pandas().sort_values("x").reset_index(drop=True)
    assert df3.equals(df1)


def test_partitioned_readback_schema_known_and_resubmission_identical(
    tmp_path, ray_session
):
    """The ``combined`` stage reads back from its ``part=<k>`` shards with
    the declared COMBINED schema known without executing anything (the
    runner's output-schema check then runs no Ray Data job), and a
    resubmitted job rebuilds no shard and reads back the same rows."""
    import shutil

    from joint_entity_and_relation_extraction_ray.pipelines.run import kg_stages
    from joint_entity_and_relation_extraction_ray.pipelines.stage import (
        run_pipeline,
    )
    from joint_entity_and_relation_extraction_ray.stages.scorer import COMBINED

    corpus = ensure_corpus("sf0.001")
    src = tmp_path / "transcripts"
    src.mkdir()
    for f in sorted((corpus / "transcripts").glob("*.parquet"))[:2]:
        shutil.copy(f, src / f.name)

    def combined():
        stage = kg_stages(
            str(src),
            str(corpus / "aliases.parquet"),
            str(corpus / "entities.parquet"),
        )[0]
        assert stage.name == "combined" and stage.num_shards == 2
        ck = Checkpointer(tmp_path / "out")
        return run_pipeline([stage], checkpointer=ck)["combined"]

    def rows(ds):
        t = ds.to_pandas()
        return sorted(map(tuple, t.astype(str).itertuples(index=False)))

    first = combined()
    assert first.schema(fetch_if_missing=False).base_schema == COMBINED
    files = {
        f: f.stat().st_mtime_ns for f in (tmp_path / "out").rglob("*.parquet")
    }
    again = combined()
    assert again.schema(fetch_if_missing=False).base_schema == COMBINED
    assert {
        f: f.stat().st_mtime_ns for f in (tmp_path / "out").rglob("*.parquet")
    } == files
    assert rows(again) == rows(first) and len(rows(first)) > 0


def test_partition_incremental_input_change(tmp_path, ray_session):
    """A changed input shard (per-partition params) recomputes exactly its
    partition; the stage fingerprint still changes for downstream."""
    versions = {0: 1, 1: 1, 2: 1}
    calls = []

    def build_part(k):
        calls.append(k)
        return ray.data.from_arrow(pa.table({"x": pa.array([k], pa.int64())}))

    def pp(k):
        return {"shard_sig": versions[k]}

    ck = Checkpointer(tmp_path)
    ck.run_partitioned("s", build_part, num_parts=3, part_params=pp)
    fp1 = ck.fingerprints["s"]
    assert sorted(calls) == [0, 1, 2]

    versions[1] = 2  # one input shard changed
    calls.clear()
    ck2 = Checkpointer(tmp_path)
    ck2.run_partitioned("s", build_part, num_parts=3, part_params=pp)
    assert calls == [1]  # only the changed shard recomputed
    assert ck2.fingerprints["s"] != fp1  # downstream sees the change


def test_parquet_sig_detects_content_change(tmp_path, ray_session):
    """Same row count, different values -> different content digest."""
    import pyarrow.parquet as pqt

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        parquet_sig,
    )

    p1 = tmp_path / "a.parquet"
    p2 = tmp_path / "b.parquet"
    pqt.write_table(pa.table({"v": ["x", "y"]}), p1)
    pqt.write_table(pa.table({"v": ["x", "z"]}), p2)
    s1, s2 = parquet_sig(p1), parquet_sig(p2)
    assert s1 != s2
    # and stable: re-writing identical content gives the same digest
    pqt.write_table(pa.table({"v": ["x", "y"]}), p2)
    assert parquet_sig(p2) == s1


def test_checkpointed_pipeline_resume(tmp_path, ray_session):
    """Full pipeline twice over the same out_root: second run must reuse
    every checkpoint and produce identical edges."""
    from joint_entity_and_relation_extraction_ray.pipelines.run import (
        run_checkpointed,
    )

    corpus = ensure_corpus("sf0.001")
    kw = dict(
        transcripts_dir=str(corpus / "transcripts"),
        aliases_path=str(corpus / "aliases.parquet"),
        entities_path=str(corpus / "entities.parquet"),
        out_root=str(tmp_path / "out"),
    )
    m1 = run_checkpointed(**kw)
    edges1 = ray.data.read_parquet(str(tmp_path / "out" / "edges")).to_pandas()

    # delete one intermediate table file? no — resume contract: same inputs
    # -> all stages skipped (fingerprints equal), identical output
    m2 = run_checkpointed(**kw)
    assert m1["fingerprints"] == m2["fingerprints"]
    edges2 = ray.data.read_parquet(str(tmp_path / "out" / "edges")).to_pandas()
    key = ["subj_id", "pred", "obj_id"]
    assert (
        edges1.sort_values(key).reset_index(drop=True)[key + ["weight"]]
        .equals(edges2.sort_values(key).reset_index(drop=True)[key + ["weight"]])
    )

    # killing a stage (remove manifest) recomputes it and downstream reuse
    # still yields identical output
    (tmp_path / "out" / "canon.manifest.json").unlink()
    m3 = run_checkpointed(**kw)
    assert m3["fingerprints"] == m1["fingerprints"]
    edges3 = ray.data.read_parquet(str(tmp_path / "out" / "edges")).to_pandas()
    assert (
        edges1.sort_values(key).reset_index(drop=True)[key + ["weight"]]
        .equals(edges3.sort_values(key).reset_index(drop=True)[key + ["weight"]])
    )

    # the checkpointed job and kg.stage run one stage list: same graph
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.pipelines import kg

    def _rows(tbl, cols):
        return sorted(
            tuple(tuple(v) if isinstance(v, list) else v for v in r)
            for r in zip(*[tbl[c].to_pylist() for c in cols])
        )

    sf = "/root/testdata/sf0.001"
    ecols = ["subj_id", "pred", "obj_id", "weight", "first_ts", "last_ts"]
    ncols = ["entity_id", "canonical_name", "ent_type", "mention_count", "aliases"]
    edges = pq.read_table(tmp_path / "out" / "edges")
    nodes = pq.read_table(tmp_path / "out" / "nodes")
    assert edges.num_rows and nodes.num_rows
    assert _rows(edges, ecols) == _rows(kg.to_table(kg.stage(sf, "edges")), ecols)
    assert _rows(nodes, ncols) == _rows(kg.to_table(kg.stage(sf, "nodes")), ncols)
    assert m1["stages"]["labels"] == 0  # no multi-entity group in this corpus
    assert (tmp_path / "out" / "labels.manifest.json").exists()


def test_zero_row_stage_checkpoints_and_resumes(tmp_path, ray_session):
    """A stage that yields no rows (an empty mapped Dataset has no known
    schema, and Ray writes no directory for 0 rows) still leaves a typed
    0-row checkpoint and a manifest, and a rerun skips it."""
    import pyarrow.parquet as pq

    schema = pa.schema([("x", pa.int64()), ("y", pa.string())])
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(pa.table({"x": [1, 2], "y": ["a", "b"]}), src / "a.parquet")
    calls = []

    def build():
        calls.append(1)
        return ray.data.read_parquet(str(src)).map_batches(
            lambda t: t.filter(pa.array([False] * len(t), pa.bool_())),
            batch_format="pyarrow",
        )

    for _ in range(2):
        ck = Checkpointer(tmp_path / "out")
        ds = ck.run("empty", build, schema=schema)
        assert ds.count() == 0
        assert ds.schema().names == ["x", "y"]
        assert ck.manifest("empty")["rows"] == 0
        parts = ck.run_partitioned(
            "empty_parts", lambda k: build(), num_parts=2, schema=schema
        )
        assert parts.count() == 0
    assert len(calls) == 3  # the rerun built nothing


def test_upsert_partitioned_touches_only_affected_parts(
    ray_session, tmp_path
):
    """MERGE INTO semantics: keep-latest per key with update-wins ties,
    and partitions the update batch does not route to are byte-
    untouched (same file set, same mtimes)."""
    import pyarrow as pa

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        upsert_partitioned,
    )

    base_dir = tmp_path / "tbl"
    keys = [f"k{i}" for i in range(40)]
    base = pa.table(
        {
            "k": keys,
            "ts": pa.array([100] * 40, pa.int64()),
            "v": pa.array(list(range(40)), pa.int64()),
        }
    )
    r = upsert_partitioned(
        base_dir,
        ray.data.from_arrow(base),
        key="k",
        order_col="ts",
        num_parts=8,
    )
    assert r["rows_written"] == 40

    def snapshot():
        return {
            d.name: sorted(
                (f.name, f.stat().st_mtime_ns)
                for f in d.iterdir()
            )
            for d in base_dir.glob("part=*")
        }

    before = snapshot()
    # updates: k3 newer (wins), k5 same-ts tie (update wins), k100 new key
    upd = pa.table(
        {
            "k": ["k3", "k5", "k100"],
            "ts": pa.array([200, 100, 50], pa.int64()),
            "v": pa.array([333, 555, 1000], pa.int64()),
        }
    )
    r2 = upsert_partitioned(
        base_dir,
        ray.data.from_arrow(upd),
        key="k",
        order_col="ts",
        num_parts=8,
    )
    after = snapshot()

    from joint_entity_and_relation_extraction_ray.schema import stable_bucket

    touched = {f"part={p}" for p in stable_bucket(["k3", "k5", "k100"], 8)}
    assert set(r2["parts_touched"]) == {
        int(p.split("=")[1]) for p in touched
    }
    for name, files in before.items():
        if name not in touched:
            assert after[name] == files, f"{name} rewritten needlessly"
        else:
            assert after[name] != files

    got = {
        r["k"]: (r["ts"], r["v"])
        for r in ray.data.read_parquet(str(base_dir)).take_all()
    }
    assert len(got) == 41
    assert got["k3"] == (200, 333)
    assert got["k5"] == (100, 555)   # tie -> update wins
    assert got["k100"] == (50, 1000)
    assert got["k7"] == (100, 7)     # untouched survives


def test_forget_convs_equals_never_ingested(ray_session, tmp_path):
    """Right-to-be-forgotten contract: purge a conversation from a
    checkpointed run, rerun — every stage output must equal a pipeline
    that NEVER saw that conversation; row-level checkpoints keep their
    skip status (only aggregates recompute)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.pipelines.run import (
        run_checkpointed,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        forget_convs,
    )

    corpus = ensure_corpus("sf0.001")
    out = tmp_path / "out"
    kw = dict(
        aliases_path=str(corpus / "aliases.parquet"),
        entities_path=str(corpus / "entities.parquet"),
    )
    run_checkpointed(
        transcripts_dir=str(corpus / "transcripts"), out_root=str(out), **kw
    )
    victim = ray.data.read_parquet(str(out / "mentions")).take(1)[0]["conv_id"]

    entry = forget_convs(out, [victim])
    assert entry["rows_removed"] > 0
    # purged from every row-level checkpoint
    for stage in ("combined", "mentions", "triples", "linked"):
        t = ray.data.read_parquet(str(out / stage))
        assert t.filter(expr=f"conv_id == '{victim}'").count() == 0, stage
    # aggregates invalidated, row-level manifests intact
    assert not (out / "edges.manifest.json").exists()
    assert (out / "mentions.manifest.json").exists()

    run_checkpointed(
        transcripts_dir=str(corpus / "transcripts"), out_root=str(out), **kw
    )

    # ground truth: a pipeline over transcripts that never had the conv
    clean_src = tmp_path / "clean_transcripts"
    clean_src.mkdir()
    import pyarrow.compute as pc

    for f in sorted((corpus / "transcripts").glob("*.parquet")):
        t = pq.read_table(f)
        pq.write_table(
            t.filter(pc.invert(pc.equal(t["conv_id"], victim))),
            clean_src / f.name,
        )
    run_checkpointed(
        transcripts_dir=str(clean_src), out_root=str(tmp_path / "ref"), **kw
    )

    for stage, key in (
        ("edges", ["subj_id", "pred", "obj_id"]),
        ("nodes", ["entity_id"]),
    ):
        a = (
            ray.data.read_parquet(str(out / stage))
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )
        b = (
            ray.data.read_parquet(str(tmp_path / "ref" / stage))
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )
        cols = [c for c in a.columns if c != "aliases"]
        assert a[cols].equals(b[cols]), stage


def test_compact_partitioned_preserves_rows_and_skips_clean_parts(
    ray_session, tmp_path
):
    """Small-file compaction: the row multiset of every partition is
    unchanged, file counts drop to ceil(rows/target), partitions already
    at one file are byte-untouched, and a second pass is a no-op."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        compact_partitioned,
    )

    base = tmp_path / "tbl"
    # part=0: five small files (needs compaction); part=1: one file (clean)
    (base / "part=0").mkdir(parents=True)
    (base / "part=1").mkdir(parents=True)
    for i in range(5):
        pq.write_table(
            pa.table({"k": [f"a{i}", f"b{i}"], "v": [i, 10 + i]}),
            base / "part=0" / f"batch-{i}.parquet",
        )
    pq.write_table(
        pa.table({"k": ["z0", "z1", "z2"], "v": [100, 101, 102]}),
        base / "part=1" / "batch-0.parquet",
    )

    def rows_of(part):
        import pyarrow.dataset as pads

        t = pads.dataset(str(base / f"part={part}")).to_table()
        return sorted(zip(t["k"].to_pylist(), t["v"].to_pylist()))

    def snap(part):
        return sorted(
            (f.name, f.stat().st_mtime_ns)
            for f in (base / f"part={part}").iterdir()
        )

    before0, before1 = rows_of(0), rows_of(1)
    clean1 = snap(1)

    r = compact_partitioned(base, target_rows_per_file=4)
    assert r["parts_compacted"] == [0]
    assert r["files_before"] == 5
    # 10 rows @ target 4 -> 3 files
    assert r["files_after"] == 3
    assert len(list((base / "part=0").glob("*.parquet"))) == 3
    assert rows_of(0) == before0 and rows_of(1) == before1
    assert snap(1) == clean1  # untouched partition byte-identical

    # idempotence: everything now at/below min_files thresholds? part=0
    # has 3 files (>= min_files 2) but re-compacting must preserve rows
    # and keep the file count at the target-derived 3
    r2 = compact_partitioned(base, target_rows_per_file=4)
    assert r2["files_after"] == 3 and rows_of(0) == before0

    # and with min_files above the current count it is a pure no-op
    after0 = snap(0)
    r3 = compact_partitioned(base, target_rows_per_file=4, min_files=4)
    assert r3["parts_compacted"] == [] and snap(0) == after0


def test_zonemap_prunes_disjoint_files_and_keeps_statless(
    ray_session, tmp_path
):
    """Zone-map skipping: a ts-range read plans ONLY the files whose
    [min, max] overlaps the range; rows equal a brute-force full-scan
    filter; a file with no statistics is always kept (safety); the
    typed index round-trips timestamps."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_zonemap,
        prune_files,
        read_pruned,
    )

    base = tmp_path / "events"
    base.mkdir()

    def ts(h):
        return dt.datetime(2024, 1, 1, h)

    # four files covering disjoint hour ranges [0-2], [3-5], [6-8], [9-11]
    all_rows = []
    for i in range(4):
        hours = [3 * i, 3 * i + 1, 3 * i + 2]
        t = pa.table(
            {
                "ts": pa.array([ts(h) for h in hours], pa.timestamp("us")),
                "v": pa.array([100 * i + h for h in hours], pa.int64()),
            }
        )
        pq.write_table(t, base / f"f{i}.parquet")
        all_rows += list(zip([ts(h) for h in hours], t["v"].to_pylist()))
    # plus one file written WITHOUT statistics — must never be skipped
    pq.write_table(
        pa.table(
            {
                "ts": pa.array([ts(23)], pa.timestamp("us")),
                "v": pa.array([999], pa.int64()),
            }
        ),
        base / "nostats.parquet",
        write_statistics=False,
    )
    all_rows.append((ts(23), 999))

    build_zonemap(base, "ts")

    kept = prune_files(base, "ts", lo=ts(4), hi=ts(7))
    names = [p.rsplit("/", 1)[-1] for p in kept]
    # f1 [3-5] and f2 [6-8] overlap; f0/f3 provably disjoint -> skipped;
    # nostats kept for safety
    assert names == ["f1.parquet", "f2.parquet", "nostats.parquet"]

    got = sorted(
        (r["ts"], r["v"])
        for r in read_pruned(base, "ts", lo=ts(4), hi=ts(7)).take_all()
    )
    want = sorted((t0, v) for t0, v in all_rows if ts(4) <= t0 <= ts(7))
    assert got == want  # residual filter removes in-file misses (h=3, h=8)

    # projection that drops the stat column still filters correctly
    got_v = sorted(
        r["v"]
        for r in read_pruned(
            base, "ts", lo=ts(4), hi=ts(7), columns=["v"]
        ).take_all()
    )
    assert got_v == [v for _, v in want]

    # disjoint-range read: zero surviving files, empty-but-typed result
    nothing = read_pruned(base, "ts", lo=ts(12), hi=ts(20))
    assert nothing.count() == 0


def test_compact_with_sort_clusters_for_zonemap(ray_session, tmp_path):
    """sort_by clustering: compaction with a sort column yields files
    with DISJOINT value ranges, so a zone-map range probe prunes to
    exactly one file; the row multiset is still unchanged."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_zonemap,
        prune_files,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        compact_partitioned,
    )

    base = tmp_path / "tbl"
    (base / "part=0").mkdir(parents=True)
    # three files with interleaved ts values: every file spans the whole
    # range, so pre-clustering a zonemap can prune nothing
    for i in range(3):
        pq.write_table(
            pa.table(
                {
                    "ts": pa.array([i, i + 10, i + 20], pa.int64()),
                    "v": pa.array([i, 100 + i, 200 + i], pa.int64()),
                }
            ),
            base / "part=0" / f"batch-{i}.parquet",
        )

    def rows():
        import pyarrow.dataset as pads

        t = pads.dataset(str(base / "part=0")).to_table()
        return sorted(zip(t["ts"].to_pylist(), t["v"].to_pylist()))

    before = rows()
    build_zonemap(base, "ts")
    assert len(prune_files(base, "ts", lo=0, hi=2)) == 3  # no pruning

    r = compact_partitioned(base, target_rows_per_file=3, sort_by="ts")
    assert r["files_after"] == 3 and rows() == before

    build_zonemap(base, "ts")  # rebuild over the clustered files
    kept = prune_files(base, "ts", lo=0, hi=2)
    assert len(kept) == 1  # [0,1,2] now lives in exactly one file

    # a single ALREADY-sorted file is still rewritten when sort_by is
    # set (min_files drops to 1) — idempotent content either way
    r2 = compact_partitioned(base, target_rows_per_file=9, sort_by="ts")
    assert r2["files_after"] == 1 and rows() == before


def test_storage_maintenance_loop_on_graph_output(ray_session, tmp_path):
    """End-to-end storage maintenance on the engine's own edge output:
    partitioned write (many small files) → clustered compaction on
    subj_id → zone-map build → a single-entity point lookup provably
    opens at most one file per touched partition and returns exactly
    that entity's edges."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.schema import stable_bucket
    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_zonemap,
        prune_files,
        read_pruned,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        compact_partitioned,
    )

    subjects = [f"E{i:03d}" for i in range(24)]
    rows = [(s, "knows", f"O{j}") for s in subjects for j in range(3)]
    part = stable_bucket([r[0] for r in rows], 4)
    t = pa.table(
        {
            "subj_id": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj_id": [r[2] for r in rows],
            "part": pa.array(part, pa.int32()),
        }
    )
    out = tmp_path / "edges"
    # many tiny blocks -> many small files per partition
    ray.data.from_arrow(
        [t.slice(i, 6) for i in range(0, t.num_rows, 6)]
    ).repartition(12).write_parquet(str(out), partition_cols=["part"])

    files_before = len(list(out.rglob("*.parquet")))
    # small target -> several files per partition, each covering a
    # DISJOINT subj range thanks to sort_by clustering
    r = compact_partitioned(out, target_rows_per_file=6, sort_by="subj_id")
    files_after = sum(1 for _ in out.rglob("*.parquet"))
    assert r["rows"] == len(rows)

    build_zonemap(out, "subj_id")
    target = subjects[7]
    kept = prune_files(out, "subj_id", lo=target, hi=target)
    # within a partition ranges are disjoint -> at most ONE file per
    # partition survives the probe; the rest are provably skipped
    assert 1 <= len(kept) <= 4 < files_after
    by_part = {}
    for p in kept:
        part_name = p.rsplit("/part=", 1)[1].split("/", 1)[0]
        by_part[part_name] = by_part.get(part_name, 0) + 1
    assert all(v == 1 for v in by_part.values())
    got = sorted(
        (x["subj_id"], x["obj_id"])
        for x in read_pruned(
            out, "subj_id", lo=target, hi=target
        ).take_all()
    )
    assert got == sorted((target, f"O{j}") for j in range(3))


def test_bloom_index_point_probe(ray_session, tmp_path):
    """Bloom skipping: the file holding the probed key is ALWAYS kept
    (no false negatives by construction); foreign files are dropped at
    ~0.05% FP rate (assert < half survive across 40 probes); read_point
    returns exactly the matching rows, and a never-seen key yields zero
    rows whether or not a false positive keeps a file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_bloom_index,
        prune_files_bloom,
        read_point,
    )

    base = tmp_path / "edges"
    base.mkdir()
    # 8 files x 50 distinct entities each, ingest-ordered (NOT clustered)
    for f in range(8):
        ids = [f"E{f:02d}_{i:03d}" for i in range(50)]
        pq.write_table(
            pa.table(
                {
                    "subj_id": ids,
                    "w": pa.array([f * 100 + i for i in range(50)], pa.int64()),
                }
            ),
            base / f"ingest-{f}.parquet",
        )

    build_bloom_index(base, "subj_id")

    kept_counts = []
    for f in range(8):
        for i in range(0, 50, 10):
            key = f"E{f:02d}_{i:03d}"
            kept = prune_files_bloom(base, "subj_id", key)
            assert str(base / f"ingest-{f}.parquet") in kept  # never lost
            kept_counts.append(len(kept))
    # across 40 probes, pruning must actually bite (FP rate ~5e-4)
    assert sum(kept_counts) < 40 * 4

    got = read_point(base, "subj_id", "E03_020").take_all()
    assert [(r["subj_id"], r["w"]) for r in got] == [("E03_020", 320)]

    assert read_point(base, "subj_id", "NOPE").count() == 0


def test_bloom_point_probe_on_timestamp_column(ray_session, tmp_path):
    """Review regression: the Bloom probe must render the key exactly as
    the build rendered the column (Arrow cast, not Python str), or a
    timestamp probe silently prunes every file — a false NEGATIVE."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_bloom_index,
        read_point,
    )

    base = tmp_path / "t"
    base.mkdir()
    times = [dt.datetime(2024, 1, 1, h) for h in range(4)]
    pq.write_table(
        pa.table(
            {
                "ts": pa.array(times, pa.timestamp("us")),
                "v": pa.array([10, 11, 12, 13], pa.int64()),
            }
        ),
        base / "a.parquet",
    )
    build_bloom_index(base, "ts")
    got = read_point(base, "ts", dt.datetime(2024, 1, 1, 2)).take_all()
    assert [(r["v"]) for r in got] == [12]


def test_skipping_indexes_detect_staleness(ray_session, tmp_path):
    """Review regression: a new file landing after the index build makes
    every probe raise (stale index = silently missing rows), and
    compaction deletes the indexes it invalidates."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_bloom_index,
        build_zonemap,
        prune_files,
        prune_files_bloom,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        compact_partitioned,
    )

    base = tmp_path / "t"
    (base / "part=0").mkdir(parents=True)
    pq.write_table(
        pa.table({"k": pa.array([1, 2], pa.int64())}),
        base / "part=0" / "a.parquet",
    )
    build_zonemap(base, "k")
    build_bloom_index(base, "k")
    assert prune_files(base, "k", lo=1, hi=1)  # fresh: works

    # new ingest lands -> both indexes are stale -> probes refuse
    pq.write_table(
        pa.table({"k": pa.array([3], pa.int64())}),
        base / "part=0" / "b.parquet",
    )
    with pytest.raises(RuntimeError, match="STALE"):
        prune_files(base, "k", lo=1, hi=1)
    with pytest.raises(RuntimeError, match="STALE"):
        prune_files_bloom(base, "k", 1)

    # compaction removes the now-wrong indexes entirely
    compact_partitioned(base, target_rows_per_file=10)
    assert not list(base.glob("_zonemap.*"))


def test_data_files_skip_crashed_compaction_dirs(ray_session, tmp_path):
    """Review regression: leftover .part=k.tmp-*/.trash-* copies from a
    crashed compaction must not be indexed (double-counted rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        _data_files,
    )

    base = tmp_path / "t"
    (base / "part=0").mkdir(parents=True)
    (base / ".part=0.trash-dead").mkdir(parents=True)
    t = pa.table({"k": pa.array([1], pa.int64())})
    pq.write_table(t, base / "part=0" / "a.parquet")
    pq.write_table(t, base / ".part=0.trash-dead" / "a.parquet")
    files = _data_files(base)
    assert files == [str(base / "part=0" / "a.parquet")]


def test_upsert_invalidates_skipping_indexes(ray_session, tmp_path):
    """An upsert rewrites partition files, so skipping indexes built
    over the old listing are deleted rather than left stale."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_zonemap,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        upsert_partitioned,
    )

    base = tmp_path / "tbl"
    (base / "part=0").mkdir(parents=True)
    pq.write_table(
        pa.table(
            {
                "k": ["a", "b"],
                "ts": pa.array([1, 1], pa.int64()),
                "v": pa.array([1, 2], pa.int64()),
            }
        ),
        base / "part=0" / "x.parquet",
    )
    build_zonemap(base, "ts")
    assert list(base.glob("_zonemap.*"))

    upsert_partitioned(
        base,
        ray.data.from_arrow(
            pa.table(
                {
                    "k": ["a"],
                    "ts": pa.array([2], pa.int64()),
                    "v": pa.array([10], pa.int64()),
                }
            )
        ),
        key="k",
        order_col="ts",
        num_parts=1,
    )
    assert not list(base.glob("_zonemap.*"))


def test_write_sorted_global_order_and_zonemap_synergy(
    ray_session, tmp_path
):
    """TeraSort sink: concatenating the output files in name order reads
    back the exact global sort; per-file ranges are non-overlapping (a
    value never straddles files); a zone map over the output prunes a
    range probe to one file."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        build_zonemap,
        prune_files,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        write_sorted,
    )

    import random

    rng = random.Random(7)
    vals = [rng.randrange(0, 10_000) for _ in range(5_000)]
    t = pa.table(
        {
            "v": pa.array(vals, pa.int64()),
            "id": pa.array(list(range(len(vals))), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(
        [t.slice(i, 500) for i in range(0, len(vals), 500)]
    )
    out = tmp_path / "sorted"
    r = write_sorted(ds, "v", out, tie_cols=["id"], num_files=8)
    assert r["rows"] == len(vals)
    files = sorted(out.glob("sorted-*.parquet"))
    assert 2 <= len(files) == r["files"]

    seen = []
    prev_hi = None
    for f in files:
        tf = pads.dataset(str(f)).to_table()
        col = tf["v"].to_pylist()
        assert col == sorted(col)  # sorted within file
        if prev_hi is not None:
            assert col[0] >= prev_hi  # ranges ordered across files
        prev_hi = col[-1]
        seen += col
    assert seen == sorted(vals)  # concatenation IS the global sort

    build_zonemap(out, "v")
    probe = sorted(vals)[len(vals) // 2]
    kept = prune_files(out, "v", lo=probe, hi=probe)
    # a single value lives in exactly one file unless it sits on a
    # boundary shared by adjacent ranges
    assert 1 <= len(kept) <= 2 < len(files)


def test_merge_sorted_touches_only_overlapping_files(ray_session, tmp_path):
    """LSM merge into a sorted table: delta rows land in their range
    files, global order still holds across ALL files afterwards,
    out-of-range values extend the last file, and files no delta routes
    to stay byte-identical."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        merge_sorted,
        write_sorted,
    )

    vals = list(range(0, 1000, 2))  # evens 0..998
    t = pa.table(
        {
            "v": pa.array(vals, pa.int64()),
            "id": pa.array(list(range(len(vals))), pa.int64()),
        }
    )
    out = tmp_path / "sorted"
    write_sorted(
        ray.data.from_arrow(t).repartition(5), "v", out,
        tie_cols=["id"], num_files=5,
    )
    files = sorted(out.glob("sorted-*.parquet"))
    assert len(files) >= 3

    def snap(f):
        return (f.name, f.stat().st_mtime_ns)

    # delta: odds near the low end (first file's range) + beyond-max
    delta = pa.table(
        {
            "v": pa.array([1, 3, 5, 2001, 2003], pa.int64()),
            "id": pa.array([9001, 9002, 9003, 9004, 9005], pa.int64()),
        }
    )
    untouched_before = [snap(f) for f in files[1:-1]]
    r = merge_sorted(out, ray.data.from_arrow(delta), "v", tie_cols=["id"])
    assert r["rows_added"] == 5 and r["files_touched"] == 2

    # middle files untouched byte-for-byte
    assert [snap(f) for f in sorted(out.glob("sorted-*.parquet"))[1:-1]] \
        == untouched_before

    # global order across files still holds, all rows present
    seen = []
    prev_hi = None
    for f in sorted(out.glob("sorted-*.parquet")):
        col = pads.dataset(str(f)).to_table()["v"].to_pylist()
        assert col == sorted(col)
        if prev_hi is not None:
            assert col[0] >= prev_hi
        prev_hi = col[-1]
        seen += col
    assert sorted(seen) == sorted(vals + [1, 3, 5, 2001, 2003])
    assert seen == sorted(seen)


def test_partition_swap_journal_rolls_forward(ray_session, tmp_path):
    """A crash between the two swap renames leaves the partition's only
    copy in a hidden dir plus the intent marker — recovery (run by
    readers and by compact/upsert) must roll FORWARD to the new data,
    not silently skip it (ADVICE r3 medium)."""
    import json

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        _data_files,
    )
    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        recover_partition_swaps,
    )

    base = tmp_path / "t"
    base.mkdir()
    old = pa.table({"k": pa.array([1], pa.int64())})
    new = pa.table({"k": pa.array([2, 3], pa.int64())})
    # crash state: part=0 renamed to trash, tmp not yet renamed in
    (base / ".part=0.trash-x").mkdir()
    pq.write_table(old, base / ".part=0.trash-x" / "a.parquet")
    (base / ".part=0.tmp-y").mkdir()
    pq.write_table(new, base / ".part=0.tmp-y" / "compacted-00000.parquet")
    (base / ".part=0.swap.json").write_text(
        json.dumps(
            {
                "part": "part=0",
                "tmp": ".part=0.tmp-y",
                "trash": ".part=0.trash-x",
            }
        )
    )

    files = _data_files(base)  # reader path triggers recovery
    assert files == [str(base / "part=0" / "compacted-00000.parquet")]
    got = pads.dataset(str(base / "part=0")).to_table()["k"].to_pylist()
    assert sorted(got) == [2, 3]  # the NEW data won
    assert not list(base.glob(".part=*"))  # journal + debris gone
    assert recover_partition_swaps(base) == []  # idempotent


def test_partition_swap_rolls_back_when_tmp_lost(ray_session, tmp_path):
    """If the tmp build vanished too, recovery restores the trash copy —
    the partition is never left missing."""
    import json

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        recover_partition_swaps,
    )

    base = tmp_path / "t"
    base.mkdir()
    old = pa.table({"k": pa.array([7], pa.int64())})
    (base / ".part=3.trash-x").mkdir()
    pq.write_table(old, base / ".part=3.trash-x" / "a.parquet")
    (base / ".part=3.swap.json").write_text(
        json.dumps(
            {
                "part": "part=3",
                "tmp": ".part=3.tmp-y",
                "trash": ".part=3.trash-x",
            }
        )
    )
    assert recover_partition_swaps(base) == [".part=3.swap.json"]
    got = pads.dataset(str(base / "part=3")).to_table()["k"].to_pylist()
    assert got == [7]


def test_unmarked_trash_with_missing_partition_raises_for_writers(
    ray_session, tmp_path
):
    """WRITER-side recovery: unmarked .trash-* holding the ONLY copy of
    a partition must raise loudly (it cannot arise from the swap
    protocol); unmarked .tmp-* is an uncommitted build and is silently
    dropped — a benign mid-build crash must NOT brick the table
    (review r4)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        recover_partition_swaps,
    )

    base = tmp_path / "t"
    (base / ".part=5.trash-z").mkdir(parents=True)
    pq.write_table(
        pa.table({"k": pa.array([1], pa.int64())}),
        base / ".part=5.trash-z" / "a.parquet",
    )
    with pytest.raises(RuntimeError, match="only copy"):
        recover_partition_swaps(base, clean_orphans=True)

    base2 = tmp_path / "t2"
    (base2 / ".part=7.tmp-w").mkdir(parents=True)
    pq.write_table(
        pa.table({"k": pa.array([2], pa.int64())}),
        base2 / ".part=7.tmp-w" / "a.parquet",
    )
    assert recover_partition_swaps(base2, clean_orphans=True) == []
    assert not list(base2.glob(".part=*"))  # uncommitted build dropped


def test_reader_recovery_leaves_concurrent_staging_alone(
    ray_session, tmp_path
):
    """READER-side recovery (the zone-map lister) must not delete an
    unmarked .tmp-* — it may be a CONCURRENT writer's in-progress
    build (review r4); it still skips the hidden dir in its listing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        _data_files,
    )

    base = tmp_path / "t"
    (base / "part=0").mkdir(parents=True)
    (base / ".part=0.tmp-inflight").mkdir(parents=True)
    t = pa.table({"k": pa.array([1], pa.int64())})
    pq.write_table(t, base / "part=0" / "a.parquet")
    pq.write_table(t, base / ".part=0.tmp-inflight" / "b.parquet")
    files = _data_files(base)
    assert files == [str(base / "part=0" / "a.parquet")]
    assert (base / ".part=0.tmp-inflight" / "b.parquet").exists()


def test_write_sorted_timestamp_column(ray_session, tmp_path):
    """write_sorted/merge_sorted accept timestamp sort keys (epoch-µs
    int64 under the hood; a direct timestamp→float cast raises in
    Arrow — ADVICE r3) and keep the global order across a merge."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        merge_sorted,
        write_sorted,
    )

    base = dt.datetime(2026, 1, 1)
    ts = [base + dt.timedelta(minutes=7 * i % 997) for i in range(400)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "ts": pa.array(ts, pa.timestamp("us")),
                "id": pa.array(range(400), pa.int64()),
            }
        )
    ).repartition(5)
    out = tmp_path / "sorted"
    r = write_sorted(ds, "ts", out, tie_cols=["id"], num_files=4)
    assert r["rows"] == 400

    delta = pa.table(
        {
            "ts": pa.array(
                [base + dt.timedelta(minutes=m) for m in (1, 500, 996)],
                pa.timestamp("us"),
            ),
            "id": pa.array([1000, 1001, 1002], pa.int64()),
        }
    )
    m = merge_sorted(out, ray.data.from_arrow(delta), "ts", tie_cols=["id"])
    assert m["rows_added"] == 3
    seen = []
    for f in sorted(out.glob("sorted-*.parquet")):
        col = pads.dataset(str(f)).to_table()["ts"].to_pylist()
        assert col == sorted(col)
        if seen:
            assert col[0] >= seen[-1]
        seen += col
    assert len(seen) == 403 and seen == sorted(seen)


def test_merge_sorted_int64_keys_beyond_float_precision(
    ray_session, tmp_path
):
    """int64 sort keys ≥ 2^53: manifest bounds are typed ints and
    routing happens in int64 space, so adjacent huge keys that collapse
    to the SAME float64 still route to the correct range file."""
    import json

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        merge_sorted,
        write_sorted,
    )

    big = 1 << 53  # float64 ulp here is 2: big+1 rounds to big
    vals = [big + i for i in range(0, 64, 2)]
    ds = ray.data.from_arrow(
        pa.table({"v": pa.array(vals, pa.int64())})
    ).repartition(4)
    out = tmp_path / "sorted"
    write_sorted(ds, "v", out, num_files=4)
    manifest = json.loads((out / "_sorted_manifest.json").read_text())
    assert all(isinstance(f["hi"], int) for f in manifest["files"])

    # delta keys straddle recorded boundaries by ±1 — float routing
    # would collapse hi and hi+1 and misroute
    his = [f["hi"] for f in manifest["files"][:-1]]
    delta_vals = [h + 1 for h in his] + [his[0]]
    delta = ray.data.from_arrow(
        pa.table({"v": pa.array(delta_vals, pa.int64())})
    )
    merge_sorted(out, delta, "v")
    seen = []
    for f in sorted(out.glob("sorted-*.parquet")):
        col = pads.dataset(str(f)).to_table()["v"].to_pylist()
        assert col == sorted(col)
        if seen:
            assert col[0] >= seen[-1]
        seen += col
    assert seen == sorted(vals + delta_vals)


def test_torn_swap_marker_recovers_best_effort(ray_session, tmp_path):
    """An unparseable (torn) swap marker must not brick recovery: the
    partition name comes from the marker FILENAME and the tmp/trash
    dirs from a glob — roll forward still happens (review r4)."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.state.checkpoint import (
        recover_partition_swaps,
    )

    base = tmp_path / "t"
    base.mkdir()
    (base / ".part=2.tmp-q").mkdir()
    pq.write_table(
        pa.table({"k": pa.array([9], pa.int64())}),
        base / ".part=2.tmp-q" / "a.parquet",
    )
    (base / ".part=2.swap.json").write_text('{"part": "par')  # torn
    assert recover_partition_swaps(base) == [".part=2.swap.json"]
    got = pads.dataset(str(base / "part=2")).to_table()["k"].to_pylist()
    assert got == [9]
    assert not list(base.glob(".part=*"))


def _swap_state(tmp_path):
    """A table dir with live part=0 (old data) and a fully-built tmp
    (new data), ready for _swap_partition to commit."""
    import pyarrow.parquet as pq

    base = tmp_path / "t"
    (base / "part=0").mkdir(parents=True)
    pq.write_table(
        pa.table({"k": pa.array([1], pa.int64())}),
        base / "part=0" / "a.parquet",
    )
    tmp = base / ".part=0.tmp-build"
    tmp.mkdir()
    pq.write_table(
        pa.table({"k": pa.array([2, 3], pa.int64())}),
        tmp / "compacted-00000.parquet",
    )
    return base, tmp


def test_reader_interleaved_with_inflight_swap(
    ray_session, tmp_path, monkeypatch
):
    """A READER listing at ANY instant of a healthy in-flight swap must
    see exactly one live copy of the partition (old or new, never
    missing) and must never destroy the writer's staged build — the
    writer then completes and the new data wins (ADVICE r4 high: reader
    recovery used to rmtree the in-flight tmp and strand the writer).

    The writer runs in a thread with a pausing `os` proxy that stops at
    the two dangerous instants: right after the intent marker lands
    (marker + live part + tmp all visible) and right between the two
    renames (part momentarily missing)."""
    import os as _os
    import threading

    import pyarrow.dataset as pads

    from joint_entity_and_relation_extraction_ray.sources.zonemap import (
        _data_files,
    )
    from joint_entity_and_relation_extraction_ray.state import checkpoint

    for pause_at in ("after_marker", "between_renames"):
        base, tmp = _swap_state(tmp_path / pause_at)
        in_gap, resume = threading.Event(), threading.Event()

        class PausingOS:
            """Proxies the checkpoint module's `os`, pausing the writer
            once at the requested instant."""

            def __init__(self):
                self._renames = 0
                self._paused = False

            def __getattr__(self, name):
                return getattr(_os, name)

            def _pause(self):
                if not self._paused:
                    self._paused = True
                    in_gap.set()
                    assert resume.wait(10)

            def replace(self, src, dst):
                _os.replace(src, dst)
                if pause_at == "after_marker":
                    self._pause()

            def rename(self, src, dst):
                _os.rename(src, dst)
                self._renames += 1
                if pause_at == "between_renames" and self._renames == 1:
                    self._pause()

        monkeypatch.setattr(checkpoint, "os", PausingOS())
        err: list[BaseException] = []

        def writer():
            try:
                checkpoint._swap_partition(base, 0, tmp)
            except BaseException as e:  # surfaced in the main thread
                err.append(e)

        th = threading.Thread(target=writer)
        th.start()
        assert in_gap.wait(10)
        # reader interleaves INSIDE the gap: exactly one live copy,
        # old or new — never a missing partition
        files = _data_files(base)
        assert len(files) == 1
        got = sorted(
            pads.dataset(str(base / "part=0")).to_table()["k"].to_pylist()
        )
        assert got in ([1], [2, 3]), got
        if pause_at == "after_marker":
            # the regression: reader must NOT have deleted the staged
            # build or the writer's intent marker
            assert got == [1]
            assert (tmp / "compacted-00000.parquet").exists()
            assert (base / ".part=0.swap.json").exists()
        resume.set()
        th.join(10)
        assert not th.is_alive() and not err, err
        # writer completed: new data live, zero debris
        got = sorted(
            pads.dataset(str(base / "part=0")).to_table()["k"].to_pylist()
        )
        assert got == [2, 3]
        assert not list(base.glob(".part=*"))
        monkeypatch.undo()
