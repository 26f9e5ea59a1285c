"""Bucketed split→reduce shuffle primitives — edge cases.

The shuffle is exercised end-to-end by the canonicalization / graph /
dedup tests; this file pins its boundary behaviors: num_buckets=1 (Ray
does not unpack a 1-tuple under num_returns=1), typed and schema-less
empty inputs, precomputed bucket columns (kept in fn's rows, range-
checked), key-locality (all rows of one key land in exactly one reduce
call), the fold of ``num_buckets`` onto at most 2 × CPU reducers (checked
against a pure-Python reference), and an input larger than the object
store.
"""

import pyarrow as pa
import pytest
import ray.data

from joint_entity_and_relation_extraction_ray.functions.shuffle import (
    _reducer_count,
    bucket_group_apply,
    cobucket_apply,
)
from joint_entity_and_relation_extraction_ray.schema import stable_bucket

# the test session has 4 CPUs: an exchange runs at most 2 × 4 reducers
REDUCERS = 8


def _docs(n=10):
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([f"k{i % 3}" for i in range(n)], pa.string()),
                "v": pa.array(list(range(n)), pa.int64()),
            }
        )
    )


def test_bucket_group_apply_single_bucket(ray_session):
    out = bucket_group_apply(_docs(), "k", lambda t: t, num_buckets=1)
    df = out.to_pandas().sort_values("v").reset_index(drop=True)
    assert list(df["v"]) == list(range(10))


def test_cobucket_apply_single_bucket(ray_session):
    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, keys=["k"], join_type="inner")

    right = _docs(3).map_batches(
        lambda t: t.rename_columns(["k", "w"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = cobucket_apply(
        _docs(6),
        right,
        lambda t: t["k"].combine_chunks(),
        lambda t: t["k"].combine_chunks(),
        _join,
        num_buckets=1,
    )
    assert out.count() == 6  # 6 left rows × exactly-one right row per key


def test_bucket_group_apply_key_locality(ray_session):
    # every key's rows must arrive in ONE reduce call: a per-call count per
    # key must equal that key's total count
    def _count(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by("k")
            .agg(pl.len().alias("n"))
            .to_arrow()
            .cast(pa.schema([("k", pa.string()), ("n", pa.int64())]))
        )

    out = bucket_group_apply(_docs(30), "k", _count, num_buckets=8)
    df = out.to_pandas()
    assert len(df) == 3 and set(df["n"]) == {10}


def _keyed(n, n_keys, n_blocks=3, name="v"):
    """``n`` rows over ``n_keys`` keys in ``n_blocks`` blocks: with more
    keys than buckets, keys collide in a bucket and in a reducer."""
    t = pa.table(
        {
            "k": pa.array([f"k{(i * 7) % n_keys}" for i in range(n)]),
            name: pa.array(range(n), pa.int64()),
        }
    )
    step = -(-n // n_blocks)
    return ray.data.from_arrow(
        [t.slice(i, step) for i in range(0, n, step)]
    )


def _stamp(ds, num_buckets):
    return ds.map_batches(
        lambda t: t.append_column(
            "_bucket",
            pa.array(
                stable_bucket(t["k"].to_numpy(zero_copy_only=False),
                              num_buckets),
                pa.int32(),
            ),
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


@pytest.mark.parametrize("num_buckets", [1, 3, 8, 64, 100])
def test_folded_exchange_matches_reference(ray_session, num_buckets):
    """Folding ``num_buckets`` onto at most 2 × CPU reducers changes no
    result: grouped apply, a callable-key join and a precomputed
    ``_bucket``-column join equal a pure-Python reference, keys that
    share a bucket or a reducer stay apart, and the output has at most
    one block per reducer."""
    import collections

    import polars as pl

    left, right = _keyed(600, 90), _keyed(150, 60, name="w")
    lrows = list(left.to_pandas().itertuples(index=False))
    rrows = list(right.to_pandas().itertuples(index=False))

    def _sums(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("k")
            .agg(pl.col("v").sum().alias("s"), pl.len().alias("n"))
            .to_arrow()
            .cast(pa.schema([("k", pa.string()), ("s", pa.int64()),
                             ("n", pa.int64())]))
        )

    ref = collections.defaultdict(lambda: [0, 0])
    for k, v in lrows:
        ref[k][0] += v
        ref[k][1] += 1
    out = bucket_group_apply(left, "k", _sums, num_buckets=num_buckets)
    out = out.materialize()
    assert out.num_blocks() <= min(num_buckets, REDUCERS)
    got = sorted(out.to_pandas().itertuples(index=False, name=None))
    assert got == sorted((k, s, n) for k, (s, n) in ref.items())

    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        drop = [c for c in ("_bucket",) if c in lt.column_names]
        return lt.drop_columns(drop).join(
            rt.drop_columns(drop), keys=["k"], join_type="inner"
        ).select(["k", "v", "w"])

    want = sorted(
        (lk, v, w) for lk, v in lrows for rk, w in rrows if lk == rk
    )

    def _key(t):
        return t["k"].combine_chunks()

    for lkey, rkey, lds, rds in (
        (_key, _key, left, right),
        ("_bucket", "_bucket", _stamp(left, num_buckets),
         _stamp(right, num_buckets)),
    ):
        out = cobucket_apply(
            lds, rds, lkey, rkey, _join, num_buckets=num_buckets
        ).materialize()
        assert out.num_blocks() <= min(num_buckets, REDUCERS)
        got = sorted(out.to_pandas().itertuples(index=False, name=None))
        assert got == want


def test_reducer_count_follows_session_and_size(ray_session, monkeypatch):
    """A 64-bucket exchange of a small input runs 2 × CPU reducers; when
    the input outgrows that many ``target_max_block_size`` blocks, it
    runs ``num_buckets`` reducers, one bucket each."""
    mat = _keyed(4000, 2000).materialize()
    assert _reducer_count([mat], 64) == REDUCERS
    assert _reducer_count([mat], 3) == 3
    assert bucket_group_apply(
        mat, "k", lambda t: t
    ).materialize().num_blocks() <= REDUCERS

    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(
        ctx, "target_max_block_size", mat.size_bytes() // 100
    )
    assert _reducer_count([mat], 64) == 64
    out = bucket_group_apply(mat, "k", lambda t: t).materialize()
    assert out.num_blocks() == 64  # 2,000 keys leave no bucket empty
    assert out.count() == 4000


def test_bucket_group_apply_empty_input(ray_session):
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    )
    for nb in (4, 64):
        out = bucket_group_apply(empty, "k", lambda t: t, num_buckets=nb)
        assert out.count() == 0
        assert out.schema().names == ["k", "v"]

    # a typed 0-row side of a cobucket join reaches fn as a typed empty
    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, keys=["k"], join_type="inner")

    right = _docs(3).map_batches(
        lambda t: t.rename_columns(["k", "w"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    for nb in (4, 64):
        out = cobucket_apply(
            empty,
            right,
            lambda t: t["k"].combine_chunks(),
            lambda t: t["k"].combine_chunks(),
            _join,
            num_buckets=nb,
        )
        assert out.count() == 0
        assert sorted(out.schema().names) == ["k", "v", "w"]


def test_parquet_exchange_empty_input_applies_fn(ray_session):
    """A typed 0-row input must still apply fn: the output carries fn's
    schema rather than the input's (the former parquet medium returned
    the input unchanged, which diverged from the refs path)."""
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    )

    def _proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {"k": t["k"], "n": pa.array([1] * t.num_rows, pa.int64())}
        )

    out = bucket_group_apply(empty, "k", _proj, num_buckets=4)
    assert out.count() == 0
    assert out.schema().names == ["k", "n"]


def test_empty_buckets_dropped_schema_uniform(ray_session):
    """Empty reduce buckets must NOT surface as blocks: Ray's Project
    operator passes 0-row blocks through unprojected, so a downstream
    select_columns would leak the pre-projection schema (VERDICT r2 #3).
    With 3 keys and 16 buckets most buckets are empty; every emitted
    block must carry the identical post-projection schema."""
    import ray

    def _fn(t: pa.Table) -> pa.Table:
        return t.append_column(
            "extra", pa.array([1] * t.num_rows, pa.int64())
        )

    out = bucket_group_apply(_docs(30), "k", _fn, num_buckets=16)
    proj = out.select_columns(["k", "v"]).materialize()
    schemas = {
        tuple(ray.get(r).schema.names) for r in proj.to_arrow_refs()
    }
    assert schemas == {("k", "v")}
    assert proj.count() == 30

    # all-empty output still yields one typed empty block
    none = bucket_group_apply(
        _docs(6), "k", lambda t: t.slice(0, 0), num_buckets=4
    )
    assert none.count() == 0
    assert none.schema().names == ["k", "v"]

    # cobucket path: same guarantee
    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.append_column(
            "r_rows", pa.array([rt.num_rows] * lt.num_rows, pa.int64())
        )

    co = cobucket_apply(
        _docs(12),
        _docs(12),
        lambda t: t["k"].combine_chunks(),
        lambda t: t["k"].combine_chunks(),
        _join,
        num_buckets=16,
    )
    cp = co.select_columns(["k", "v"]).materialize()
    cschemas = {
        tuple(ray.get(r).schema.names) for r in cp.to_arrow_refs()
    }
    assert cschemas == {("k", "v")}


def test_parquet_exchange_preserves_prestamped_bucket_schema(ray_session):
    """Ops that PRE-STAMP the house `_bucket` column and pass its NAME
    as the cobucket key (the fused KG path) get their rows unchanged:
    fn sees `_bucket` and each bucket holds exactly its stamped rows."""

    def _mk(n):
        return _docs(n).map_batches(
            lambda b: b.append_column(
                "_bucket",
                pa.array([v % 4 for v in b["v"].to_pylist()], pa.int32()),
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def _fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # the fused-path convention: fn drops the pre-stamped column
        # itself — it must therefore BE present
        buckets = set(lt["_bucket"].to_pylist() + rt["_bucket"].to_pylist())
        lt = lt.drop_columns(["_bucket"])
        rt = rt.drop_columns(["_bucket"])
        return pa.table(
            {
                "n_buckets": pa.array([len(buckets)], pa.int64()),
                "n_l": pa.array([lt.num_rows], pa.int64()),
                "n_r": pa.array([rt.num_rows], pa.int64()),
            }
        )

    out = cobucket_apply(
        _mk(20), _mk(12), "_bucket", "_bucket", _fn, num_buckets=4
    )
    rows = sorted(out.to_pandas().itertuples(index=False, name=None))
    assert rows == [(1, 5, 3)] * 4


def test_parquet_exchange_schemaless_empty_blocks(ray_session):
    """Ray represents 0-row blocks as 0-COLUMN tables (the groupby-
    aggregate artifact): a schema-less empty block beside typed data
    must pass through the split without a KeyError on the key column."""
    import ray

    data = pa.table(
        {
            "k": pa.array(["a", "b", "a", "c"], pa.string()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    mixed = ray.data.from_arrow_refs(
        [ray.put(data), ray.put(pa.table({}))]  # one schema-less empty
    )
    out = bucket_group_apply(mixed, "k", lambda t: t, num_buckets=4)
    df = out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    assert list(df["v"]) == [1, 3, 2, 4]


def test_cobucket_apply_rejects_out_of_range_bucket_ids(ray_session):
    """A precomputed bucket column with ids outside [0, num_buckets)
    (or null) raises instead of silently dropping those rows."""
    import pytest

    def _stamped(ids):
        return ray.data.from_arrow(
            pa.table(
                {
                    "_bucket": pa.array(ids, pa.int32()),
                    "v": pa.array(range(len(ids)), pa.int64()),
                }
            )
        )

    def _fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt

    ok = _stamped([0, 3, 1])
    assert cobucket_apply(
        ok, ok, "_bucket", "_bucket", _fn, num_buckets=4
    ).count() == 3
    for bad in ([0, 9, -1], [0, 4], [-1], [0, None]):
        with pytest.raises(ValueError, match="_bucket"):
            cobucket_apply(
                _stamped(bad), ok, "_bucket", "_bucket", _fn, num_buckets=4
            )
    # ids are checked against num_buckets, not the reducer count: 64
    # folds onto reducer 0 of 8 but is outside [0, 64)
    with pytest.raises(ValueError, match="_bucket"):
        cobucket_apply(
            _stamped([0, 64]), ok, "_bucket", "_bucket", _fn, num_buckets=64
        )
    assert cobucket_apply(
        _stamped([0, 63, 9]), ok, "_bucket", "_bucket", _fn, num_buckets=64
    ).count() == 3
    # num_buckets=1 keeps its bare-ref path and the same check
    with pytest.raises(ValueError, match="_bucket"):
        cobucket_apply(
            _stamped([0, 1]), ok, "_bucket", "_bucket", _fn, num_buckets=1
        )


def test_schemaless_empty_side(ray_session):
    """A dataset Ray reports without a schema: the grouped apply of it
    returns it (empty), a cobucket join raises naming the side."""
    import pytest
    import ray

    def _none():
        return ray.data.from_arrow_refs([ray.put(pa.table({}))])

    assert _none().schema() is None
    assert bucket_group_apply(_none(), "k", lambda t: t).count() == 0

    def _key(t):
        return t["k"].combine_chunks()

    def _fn(lt, rt):
        return lt

    for nb in (4, 64):
        with pytest.raises(ValueError, match="left side"):
            cobucket_apply(_none(), _docs(4), _key, _key, _fn, num_buckets=nb)
        with pytest.raises(ValueError, match="right side"):
            cobucket_apply(_docs(4), _none(), _key, _key, _fn, num_buckets=nb)


_SPILL_PROBE = """
import json, pathlib, sys

import numpy as np
import pyarrow as pa
import ray

tmp = sys.argv[1]
ray.init(address="local", num_cpus=2, object_store_memory=100 * 2**20,
         include_dashboard=False, logging_level="ERROR", _temp_dir=tmp)
ray.data.DataContext.get_current().enable_progress_bars = False
from joint_entity_and_relation_extraction_ray.functions.shuffle import (
    bucket_group_apply,
)


@ray.remote
def _block(i):
    n = 500_000
    return pa.table({"k": np.arange(n, dtype=np.int64) % 1000,
                     "v": np.ones(n, dtype=np.int64)})


# 40 blocks x 8 MB = 320 MB through a 100 MiB object store
ds = ray.data.from_arrow_refs([_block.remote(i) for i in range(40)])
out = bucket_group_apply(
    ds, "k", lambda t: t.group_by("k").aggregate([("v", "sum")]),
    num_buckets=8,
).to_pandas()
spilled = sum(
    p.stat().st_size
    for p in pathlib.Path(tmp).glob("session_*/ray_spilled_objects_*/*")
)
print(json.dumps({"keys": int(out["k"].nunique()), "rows": len(out),
                  "total": int(out["v_sum"].sum()), "spilled": spilled}))
ray.shutdown()
"""


def test_exchange_spills_past_object_store():
    """The shuffle's input may exceed the object store: a fresh Ray
    session with a 100 MiB store runs a grouped sum over 320 MB and
    gets exact results, Ray spilling the overflow to disk."""
    import json
    import os
    import shutil
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    # a short session dir: Ray's socket paths must stay under 107 bytes
    tmp = tempfile.mkdtemp(prefix="kgspill-")
    try:
        out = subprocess.run(
            [sys.executable, "-c", _SPILL_PROBE, tmp],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=repo,
            env=dict(os.environ, PYTHONPATH=str(repo)),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert out.returncode == 0, out.stderr[-2000:]
    # Ray's own warnings can reach stdout after the result line
    res = json.loads(
        [ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1]
    )
    assert res["keys"] == res["rows"] == 1000
    assert res["total"] == 20_000_000
    assert res["spilled"] > 100 * 2**20
