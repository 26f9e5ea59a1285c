"""Relational ops Ray Data lacks: as-of join, group top-k, exact quantiles.

Semantics are pinned against tiny closed-form cases (plus a DuckDB
cross-check for the quantile index rule) — the driver re-verifies all
three against full SQL oracles at sf0.01.
"""

import math

import duckdb
import pyarrow as pa
import ray.data

from joint_entity_and_relation_extraction_ray.stages.relational import (
    asof_join,
    group_topk,
    range_join,
    rolling_window,
    value_quantiles,
)


def _ds(d, types=None):
    cols = {}
    for k, v in d.items():
        t = (types or {}).get(k)
        cols[k] = pa.array(v, t) if t else pa.array(v)
    return ray.data.from_arrow(pa.table(cols))


def test_asof_backward_basic(ray_session):
    left = _ds({"k": [1, 1, 1, 2], "ts": [5, 15, 2, 9], "lid": [0, 1, 2, 3]})
    right = _ds(
        {
            "k": [1, 1, 2],
            "ts": [3, 10, 100],
            "r_ts": [3, 10, 100],
            "val": [30.0, 100.0, 9.0],
        }
    )
    out = asof_join(
        left, right, by="k", on="ts", right_cols=["r_ts", "val"], num_buckets=4
    )
    rows = {r["lid"]: (r["r_ts"], r["val"]) for r in out.take_all()}
    assert rows[0] == (3, 30.0)  # ts=5 → latest prior right ts=3
    assert rows[1] == (10, 100.0)  # ts=15 → ts=10
    assert rows[2] == (None, None)  # ts=2 → nothing prior
    assert rows[3] == (None, None)  # key 2 has only a future right row
    assert out.count() == 4  # LEFT join keeps all left rows


def test_asof_equal_ts_matches(ray_session):
    # `on` equality counts as "prior" (l.ts >= r.ts)
    left = _ds({"k": [7], "ts": [10], "lid": [0]})
    right = _ds({"k": [7], "ts": [10], "r_ts": [10], "val": [1.5]})
    (row,) = asof_join(
        left, right, by="k", on="ts", right_cols=["r_ts", "val"], num_buckets=2
    ).take_all()
    assert (row["r_ts"], row["val"]) == (10, 1.5)


def test_group_topk_rank_and_ties(ray_session):
    ds = _ds(
        {
            "g": [1, 1, 1, 1, 2],
            "v": [5.0, 9.0, 9.0, 1.0, 4.0],
            "id": [10, 11, 12, 13, 14],
        }
    )
    out = group_topk(
        ds, by="g", sort_col="v", k=2, descending=True, tiebreak="id", num_buckets=4
    ).take_all()
    got = sorted((r["g"], r["rank"], r["id"], r["v"]) for r in out)
    # g=1: ties on v=9 broken by ascending id → 11 then 12; g=2: single row
    assert got == [(1, 1, 11, 9.0), (1, 2, 12, 9.0), (2, 1, 14, 4.0)]


def test_group_topk_combiner_matches_global(ray_session):
    # many small blocks: per-block pre-truncation must not lose the winner
    import numpy as np

    rng = np.random.default_rng(7)
    n = 5000
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 37, n), pa.int64()),
            "v": pa.array(rng.random(n), pa.float64()),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(23)
    out = group_topk(
        ds, by="g", sort_col="v", k=3, descending=True, tiebreak="id", num_buckets=8
    ).to_pandas()
    expect = duckdb.sql(
        """
        SELECT g, id, rank FROM (
          SELECT g, id, row_number() OVER
            (PARTITION BY g ORDER BY v DESC, id) AS rank FROM t) s
        WHERE rank <= 3
        """
    ).fetchdf()
    a = out[["g", "id", "rank"]].sort_values(["g", "rank"]).reset_index(drop=True)
    b = expect.sort_values(["g", "rank"]).reset_index(drop=True)
    assert a.astype(int).equals(b.astype(int))


def test_range_join_inclusive_bounds(ray_session):
    left = _ds({"k": [1, 1, 2], "ts": [100, 50, 100], "lid": [0, 1, 2]})
    right = _ds({"k": [1, 1, 1, 2], "ts": [90, 100, 89, 101], "rid": [5, 6, 7, 8]})
    out = range_join(
        left,
        right,
        by="k",
        left_on="ts",
        right_on="ts",
        lower_offset=-10,
        upper_offset=0,
        left_cols=["lid"],
        right_cols=["rid"],
        num_buckets=4,
    ).take_all()
    pairs = sorted((r["l_lid"], r["r_rid"]) for r in out)
    # lid=0 (k=1, ts=100) matches rts in [90, 100] → rid 5, 6 (89 is out)
    # lid=1 (ts=50) matches nothing; lid=2 (k=2) — rts 101 is future
    assert pairs == [(0, 5), (0, 6)]


def test_range_join_random_vs_duckdb(ray_session):
    import numpy as np

    rng = np.random.default_rng(11)
    n = 3000
    t = pa.table(
        {
            "u": pa.array(rng.integers(0, 50, n), pa.int64()),
            "ts": pa.array(rng.integers(0, 5000, n), pa.int64()),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)
    out = range_join(
        ds,
        ds,
        by="u",
        left_on="ts",
        right_on="ts",
        lower_offset=-100,
        upper_offset=50,
        left_cols=["id"],
        right_cols=["id"],
        num_buckets=8,
    ).to_pandas()
    want = duckdb.sql(
        """
        SELECT l.id AS l_id, r.id AS r_id FROM t l JOIN t r
        ON l.u = r.u AND r.ts BETWEEN l.ts - 100 AND l.ts + 50
        """
    ).fetchdf()
    a = out.sort_values(["l_id", "r_id"]).reset_index(drop=True)
    b = want.sort_values(["l_id", "r_id"]).reset_index(drop=True)
    assert a.equals(b)


def test_rolling_window_matches_sql_range_frame(ray_session):
    import numpy as np

    rng = np.random.default_rng(13)
    n = 4000
    # deliberately includes duplicate (u, ts) peers
    t = pa.table(
        {
            "u": pa.array(rng.integers(0, 40, n), pa.int64()),
            "ts": pa.array(
                rng.integers(0, 800, n) * 1_000_000, pa.timestamp("us")
            ),
            "id": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(rng.random(n), pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(9)
    out = rolling_window(
        ds,
        by="u",
        on="ts",
        aggs={"n_w": ("v", "count"), "max_w": ("v", "max"), "min_w": ("v", "min")},
        period_us=60_000_000,
        carry_cols=["id", "v"],
        num_buckets=8,
    ).to_pandas()
    want = duckdb.sql(
        """
        SELECT id, count(*) OVER w AS n_w, max(v) OVER w AS max_w,
               min(v) OVER w AS min_w
        FROM t WINDOW w AS (PARTITION BY u ORDER BY ts
            RANGE BETWEEN INTERVAL 1 MINUTE PRECEDING AND CURRENT ROW)
        """
    ).fetchdf()
    a = (
        out[["id", "n_w", "max_w", "min_w"]]
        .sort_values("id")
        .reset_index(drop=True)
    )
    b = want.sort_values("id").reset_index(drop=True)
    b["n_w"] = b["n_w"].astype("int64")
    assert a.equals(b)


def test_value_quantiles_matches_duckdb_disc(ray_session):
    vals = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    qs = [0.01, 0.25, 0.5, 0.75, 0.99]
    ds = _ds({"x": vals}, {"x": pa.int64()})
    out = {
        r["q"]: r["value"]
        for r in value_quantiles(ds, "x", qs, num_buckets=4).take_all()
    }
    for q in qs:
        want = duckdb.sql(
            f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest({vals}) AS x)"
        ).fetchone()[0]
        assert out[q] == want, q
    # the index rule itself: element at ceil(q*n)-1 of the ascending sort
    srt = sorted(vals)
    for q in qs:
        assert out[q] == srt[max(0, math.ceil(q * len(vals)) - 1)]


def test_group_quantiles_matches_duckdb_disc(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_quantiles,
    )

    rng = np.random.default_rng(17)
    n = 2000
    t = pa.table(
        {
            "g": pa.array(rng.choice(["x", "y", "z"], n)),
            "v": pa.array(rng.integers(0, 40, n), pa.int64()),
        }
    )
    qs = [0.1, 0.5, 0.9]
    ds = ray.data.from_arrow(t).repartition(7)
    out = group_quantiles(ds, by="g", col="v", qs=qs, num_buckets=4).to_pandas()
    want = duckdb.sql(
        " UNION ALL ".join(
            f"SELECT g, CAST({q} AS DOUBLE) AS q, "
            f"quantile_disc(v, {q}) AS value FROM t GROUP BY g"
            for q in qs
        )
    ).fetchdf()
    a = out.sort_values(["g", "q"]).reset_index(drop=True)
    b = want.sort_values(["g", "q"]).reset_index(drop=True)[a.columns]
    assert a.astype(str).equals(b.astype(str))


def test_asof_random_vs_duckdb(ray_session):
    import numpy as np

    rng = np.random.default_rng(23)
    nl, nr = 2000, 1500
    lt = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, nl), pa.int64()),
            "ts": pa.array(rng.integers(0, 3000, nl), pa.int64()),
            "lid": pa.array(np.arange(nl), pa.int64()),
        }
    )
    # unique (k, ts) on the right here; duplicate-(k, ts) tie resolution
    # (which q_asof_join relies on) is pinned in
    # test_asof_duplicate_ts_tie_is_max_value
    rt_raw = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, nr), pa.int64()),
            "ts": pa.array(rng.integers(0, 3000, nr), pa.int64()),
            "val": pa.array(rng.random(nr), pa.float64()),
        }
    )
    rt = (
        duckdb.sql(
            "SELECT k, ts, ts AS r_ts, max(val) AS val FROM rt_raw GROUP BY k, ts"
        )
        .arrow()
        .cast(
            pa.schema(
                [
                    ("k", pa.int64()),
                    ("ts", pa.int64()),
                    ("r_ts", pa.int64()),
                    ("val", pa.float64()),
                ]
            )
        )
    )
    out = asof_join(
        ray.data.from_arrow(lt).repartition(5),
        ray.data.from_arrow(rt).repartition(3),
        by="k",
        on="ts",
        right_cols=["r_ts", "val"],
        num_buckets=8,
    ).to_pandas()
    want = duckdb.sql(
        """
        SELECT l.lid, r.r_ts, r.val FROM lt l
        ASOF LEFT JOIN rt r ON l.k = r.k AND l.ts >= r.ts
        """
    ).fetchdf()
    a = out[["lid", "r_ts", "val"]].sort_values("lid").reset_index(drop=True)
    b = want.sort_values("lid").reset_index(drop=True)
    assert a.astype(str).equals(b.astype(str))


def test_group_topk_nulls_rank_last(ray_session):
    # SQL ORDER BY v DESC puts NULLS LAST — a null must never win a rank
    ds = _ds(
        {
            "g": [1, 1, 1],
            "v": [5.0, None, 9.0],
            "id": [0, 1, 2],
        }
    )
    out = group_topk(
        ds, by="g", sort_col="v", k=2, descending=True, tiebreak="id", num_buckets=2
    ).take_all()
    got = sorted((r["rank"], r["id"]) for r in out)
    assert got == [(1, 2), (2, 0)]  # 9.0 then 5.0; null ranks last (cut)


def test_value_quantiles_ignore_nulls(ray_session):
    ds = _ds({"x": [1, 2, 3, None, None, None, None]}, {"x": pa.int64()})
    out = {
        r["q"]: r["value"]
        for r in value_quantiles(ds, "x", [0.5, 0.99], num_buckets=2).take_all()
    }
    assert out == {0.5: 2, 0.99: 3}  # n=3, nulls excluded


def test_rolling_window_single_hot_bucket_schema(ray_session):
    # one user + many buckets → most buckets empty; schema must not skew
    ds = _ds(
        {
            "u": [1] * 6,
            "ts": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        },
        {"u": pa.int64()},
    )
    out = rolling_window(
        ds,
        by="u",
        on="ts",
        aggs={"n": ("v", "count"), "s": ("v", "sum")},
        period_us=15,
        num_buckets=8,
    )
    df = out.to_pandas()
    assert len(df) == 6
    assert df["n"].tolist() and str(df["n"].dtype) == "int64"
    assert str(df["s"].dtype) == "int64"


def test_asof_duplicate_ts_tie_is_max_value(ray_session):
    # q_asof_join's correctness rests on this: among equal-(by, on) right
    # rows, the LAST in ascending (on, right_cols) sort order wins, i.e.
    # the max (r_ts, val) tuple — identical to SQL's pre-reduced
    # max(value) per (by, ts)
    left = _ds({"k": [1], "ts": [20], "lid": [0]})
    right = _ds(
        {
            "k": [1, 1, 1, 1],
            "ts": [10, 10, 10, 5],
            "r_ts": [10, 10, 10, 5],
            "val": [3.0, 9.0, 1.0, 99.0],
        }
    )
    (row,) = asof_join(
        left, right, by="k", on="ts", right_cols=["r_ts", "val"], num_buckets=2
    ).take_all()
    assert (row["r_ts"], row["val"]) == (10, 9.0)


def test_membership_semi_and_anti(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    left = _ds({"k": [1, 2, 3, 4, 5], "name": list("abcde")})
    # duplicate + irrelevant right keys: only DISTINCT membership matters
    right = _ds({"rk": [2, 2, 4, 9, 9]})
    semi = membership_join(left, right, on="k", right_on="rk")
    anti = membership_join(left, right, on="k", right_on="rk", anti=True)
    assert sorted(r["k"] for r in semi.take_all()) == [2, 4]
    assert sorted(r["k"] for r in anti.take_all()) == [1, 3, 5]


def test_membership_join_of_an_empty_left_keeps_its_schema(ray_session):
    """A left side of one 0-row block: semi and anti keep no row, and the
    result still has the left's columns for a following select or join."""
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    schema = pa.schema([("k", pa.int64()), ("v", pa.string())])
    left = ray.data.from_arrow(schema.empty_table())
    right = _ds({"rk": [1, 2]})
    for anti in (False, True):
        out = membership_join(left, right, on="k", right_on="rk", anti=anti)
        assert out.count() == 0
        assert out.schema().names == ["k", "v"]
        assert out.schema().types == [pa.int64(), pa.string()]
        assert out.select_columns(["v"]).count() == 0


def test_membership_join_shuffle_path_matches_broadcast(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    left = _ds({"k": list(range(50)), "v": list(range(50))})
    right = _ds({"k": [i * 2 for i in range(30)]})  # 0..58 even
    for anti in (False, True):
        bc = membership_join(left, right, on="k", anti=anti)
        sh = membership_join(
            left, right, on="k", anti=anti, broadcast_threshold=0
        )
        assert sorted(r["k"] for r in bc.take_all()) == sorted(
            r["k"] for r in sh.take_all()
        )


def test_membership_null_left_keys(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    left = _ds(
        {"k": [1, None, 3], "name": ["a", "b", "c"]},
        types={"k": pa.int64()},
    )
    right = _ds({"k": [1]})
    semi = membership_join(left, right, on="k")
    anti = membership_join(left, right, on="k", anti=True)
    # null never matches (IN); NOT EXISTS keeps the null row
    assert [r["name"] for r in semi.take_all()] == ["a"]
    assert sorted(r["name"] for r in anti.take_all()) == ["b", "c"]


def test_grouped_summary_matches_duckdb(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_summary,
    )

    g = ["x", "y", "x", "x", "y", "z"]
    s = ["A", "A", "B", "A", "A", "B"]
    q = [1, 2, 3, 4, 5, 6]
    ds = _ds({"g": g, "s": s, "q": q}, types={"q": pa.int64()})
    out = grouped_summary(
        ds,
        by=["g", "s"],
        aggs={"n": ("q", "count"), "sq": ("q", "sum"), "mx": ("q", "max")},
        num_buckets=4,
    ).to_pandas()
    exp = duckdb.sql(
        """SELECT g, s, count(*) AS n, sum(q) AS sq, max(q) AS mx
           FROM (SELECT unnest($g) g, unnest($s) s, unnest($q) q)
           GROUP BY 1,2""",
        params={"g": g, "s": s, "q": q},
    ).df()
    got = out.sort_values(["g", "s"]).reset_index(drop=True)
    exp = exp.sort_values(["g", "s"]).reset_index(drop=True)
    assert got["n"].astype(int).tolist() == exp["n"].astype(int).tolist()
    assert got["sq"].astype(int).tolist() == exp["sq"].astype(int).tolist()
    assert got["mx"].astype(int).tolist() == exp["mx"].astype(int).tolist()


def test_ngram_counts_closed_form(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.curation import (
        ngram_counts,
    )

    docs = _ds(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "a b c a b",  # bigrams: a b, b c, c a, a b
                "a b",  # a b
                "solo",  # no bigram
                "  ",  # no tokens at all
            ],
        }
    )
    rows = {
        r["gram"]: (r["n_occurrences"], r["n_docs"])
        for r in ngram_counts(docs, n=2, k=10).take_all()
    }
    assert rows["a b"] == (3, 2)
    assert rows["b c"] == (1, 1)
    assert rows["c a"] == (1, 1)
    assert len(rows) == 3


def test_ngram_counts_trigrams(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.curation import (
        ngram_counts,
    )

    docs = _ds({"doc_id": [1], "text": ["w x y z"]})
    rows = sorted(
        r["gram"] for r in ngram_counts(docs, n=3, k=10).take_all()
    )
    assert rows == ["w x y", "x y z"]


def test_set_intersect_and_except(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        set_except,
        set_intersect,
    )

    # duplicates on both sides: set semantics must dedup
    left = _ds({"k": [1, 1, 2, 3, 3, 5]})
    right = _ds({"k": [2, 2, 3, 9]})
    inter = set_intersect(left, right, on="k")
    exc = set_except(left, right, on="k")
    assert sorted(r["k"] for r in inter.take_all()) == [2, 3]
    assert sorted(r["k"] for r in exc.take_all()) == [1, 5]


def test_pivot_counts_vs_duckdb(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        pivot_counts,
    )

    u = [1, 1, 1, 2, 2, 3]
    ev = ["a", "b", "a", "b", "b", "a"]
    out = pivot_counts(
        _ds({"u": u, "ev": ev}), index="u", col="ev", num_buckets=4
    ).to_pandas().sort_values("u").reset_index(drop=True)
    exp = duckdb.sql(
        """SELECT u, count(*) FILTER (WHERE ev='a') AS n_a,
                  count(*) FILTER (WHERE ev='b') AS n_b,
                  count(*) AS n_total
           FROM (SELECT unnest($u) u, unnest($ev) ev) GROUP BY 1 ORDER BY 1""",
        params={"u": u, "ev": ev},
    ).df()
    for c in ["n_a", "n_b", "n_total"]:
        assert out[c].astype(int).tolist() == exp[c].astype(int).tolist()


def test_pivot_counts_explicit_values_and_collision_guard(ray_session):
    import pytest

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        pivot_counts,
    )

    ds = _ds({"u": [1, 2], "ev": ["x", "y"]})
    # explicit values: absent category still gets a zero column
    out = pivot_counts(
        ds, index="u", col="ev", values=["x", "z"], num_buckets=2
    ).to_pandas()
    assert set(out.columns) == {"u", "n_x", "n_z", "n_total"}
    assert out["n_z"].sum() == 0
    with pytest.raises(ValueError):
        pivot_counts(ds, index="u", col="ev", values=["a b", "a_b"])


def test_gap_rollup_closed_form(ray_session):
    import datetime as dt

    from joint_entity_and_relation_extraction_ray.stages.events import (
        gap_rollup,
    )

    base = dt.datetime(2024, 1, 1)
    rows = {
        "user_id": [1, 1, 1, 2, 2, 3],
        "ts": [
            base,
            base + dt.timedelta(seconds=10),
            base + dt.timedelta(seconds=10),  # duplicate ts: gap 0
            base + dt.timedelta(seconds=5),
            base,
            base,  # single event: no row
        ],
    }
    ds = _ds(rows, types={"ts": pa.timestamp("us")})
    got = {
        r["user_id"]: (r["n_gaps"], r["sum_gap_us"], r["max_gap_us"])
        for r in gap_rollup(ds, num_buckets=2).take_all()
    }
    assert got == {1: (2, 10_000_000, 10_000_000), 2: (1, 5_000_000, 5_000_000)}


def test_group_moments_derive_pearson(ray_session):
    """The driver query ships integer moments; Pearson r derived from
    them must equal numpy's corrcoef on the rounded values."""
    import numpy as np

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_group_moments,
    )

    row = (
        q_group_moments("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("l_returnflag")
        .iloc[0]
    )
    # python ints: the cross terms (e.g. sum_p**2) overflow numpy int64
    n, sq, sp, sqq, spp, sqp = (
        int(row["n"]), int(row["sum_q"]), int(row["sum_p"]),
        int(row["sum_qq"]), int(row["sum_pp"]), int(row["sum_qp"]),
    )
    r_from_moments = (n * sqp - sq * sp) / math.sqrt(
        (n * sqq - sq * sq) * (n * spp - sp * sp)
    )
    li = duckdb.sql(
        """SELECT l_returnflag,
                  (CAST(round(l_quantity*100) AS BIGINT)+50)//100 AS q,
                  (CAST(round(l_extendedprice*100) AS BIGINT)+50)//100 AS p
           FROM read_parquet('/root/testdata/sf0.001/lineitem.parquet')"""
    ).df()
    flag = sorted(li["l_returnflag"].unique())[0]
    sub = li[li["l_returnflag"] == flag]
    r_np = np.corrcoef(sub["q"], sub["p"])[0, 1]
    assert abs(r_from_moments - r_np) < 1e-9


def test_revenue_by_nation_vs_duckdb(ray_session):
    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_revenue_by_nation,
    )

    sf = "/root/testdata/sf0.001"
    got = (
        q_revenue_by_nation(sf)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""SELECT n_name, count(*) AS n_orders, CAST(sum(rev) AS BIGINT)
                   AS revenue_cbp
            FROM (SELECT l_orderkey,
                         sum(CAST(round(l_extendedprice*100) AS BIGINT)
                             * (100 - CAST(round(l_discount*100) AS BIGINT)))
                             AS rev
                  FROM read_parquet('{sf}/lineitem.parquet') GROUP BY 1) lo
            JOIN read_parquet('{sf}/orders.parquet') o ON l_orderkey=o_orderkey
            JOIN read_parquet('{sf}/customer.parquet') c ON o_custkey=c_custkey
            JOIN read_parquet('{sf}/nation.parquet') n ON c_nationkey=n_nationkey
            JOIN read_parquet('{sf}/region.parquet') r ON n_regionkey=r_regionkey
            WHERE r_name = 'EUROPE'
            GROUP BY 1 ORDER BY 1"""
    ).df()
    assert got["n_name"].tolist() == exp["n_name"].tolist()
    assert got["n_orders"].astype(int).tolist() == exp["n_orders"].astype(int).tolist()
    assert (
        got["revenue_cbp"].astype(int).tolist()
        == exp["revenue_cbp"].astype(int).tolist()
    )


def test_grouped_rollup_vs_duckdb(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_rollup,
    )

    a = ["x", "x", "y", "y", "y"]
    b = ["p", "q", "p", "p", "q"]
    v = [1, 2, 3, 4, 5]
    out = (
        grouped_rollup(
            _ds({"a": a, "b": b, "v": v}, types={"v": pa.int64()}),
            by=["a", "b"],
            aggs={"n": ("v", "count"), "sv": ("v", "sum"), "mx": ("v", "max")},
            num_buckets=2,
        )
        .to_pandas()
        .fillna({"a": "~", "b": "~"})
        .sort_values(["level", "a", "b"])
        .reset_index(drop=True)
    )
    exp = (
        duckdb.sql(
            """SELECT a, b,
                      CAST(grouping(a) + grouping(b) AS BIGINT) AS level,
                      count(*) AS n, sum(v) AS sv, max(v) AS mx
               FROM (SELECT unnest($a) a, unnest($b) b, unnest($v) v)
               GROUP BY ROLLUP (a, b)""",
            params={"a": a, "b": b, "v": v},
        )
        .df()
        .fillna({"a": "~", "b": "~"})
        .sort_values(["level", "a", "b"])
        .reset_index(drop=True)
    )
    assert out["a"].tolist() == exp["a"].tolist()
    assert out["b"].tolist() == exp["b"].tolist()
    for c in ["level", "n", "sv", "mx"]:
        assert out[c].astype(int).tolist() == exp[c].astype(int).tolist(), c


def test_running_total_tie_break(ray_session):
    import datetime as dt

    from joint_entity_and_relation_extraction_ray.stages.events import (
        running_total,
    )

    t0 = dt.datetime(2024, 1, 1)
    ds = _ds(
        {
            "user_id": [1, 1, 1, 2],
            "event_id": [11, 10, 12, 20],  # 10 and 11 share a timestamp
            "ts": [t0, t0, t0 + dt.timedelta(seconds=1), t0],
            "value": [1.00, 2.00, 4.00, 9.99],
        },
        types={"ts": pa.timestamp("us")},
    )
    got = {
        r["event_id"]: r["running_cents"]
        for r in running_total(ds, num_buckets=2).take_all()
    }
    # equal ts → event_id ascending: 10 (200) then 11 (+100=300), then 12
    assert got == {10: 200, 11: 300, 12: 700, 20: 999}


def test_ntile_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        ntile_window,
    )

    rng = np.random.default_rng(5)
    n = 1000
    # group sizes deliberately NOT divisible by k, including a size < k
    g = np.concatenate([np.zeros(3), np.ones(498), np.full(499, 2)]).astype(int)
    t = pa.table(
        {
            "g": pa.array(g, pa.int64()),
            "v": pa.array(rng.integers(0, 50, n), pa.int64()),  # many ties
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    out = (
        ntile_window(
            ray.data.from_arrow(t).repartition(5),
            by="g",
            order_cols=["v", "id"],
            k=4,
            keep_cols=["id"],
            num_buckets=3,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        """SELECT id, ntile(4) OVER (PARTITION BY g ORDER BY v, id) AS tile
           FROM t ORDER BY id"""
    ).df()
    assert out["tile"].astype(int).tolist() == exp["tile"].astype(int).tolist()


def test_melt_round_trip(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        melt,
        pivot_counts,
    )

    u = [1, 1, 2]
    ev = ["a", "b", "a"]
    wide = pivot_counts(
        _ds({"u": u, "ev": ev}), index="u", col="ev", num_buckets=2
    )
    long = melt(
        wide.drop_columns(["n_total"]),
        id_cols=["u"],
        value_cols=["n_a", "n_b"],
        var_name="col",
        value_name="n",
    ).take_all()
    got = {(r["u"], r["col"]): r["n"] for r in long}
    assert got == {
        (1, "n_a"): 1, (1, "n_b"): 1, (2, "n_a"): 1, (2, "n_b"): 0,
    }


def test_grouped_summary_property_vs_duckdb(ray_session):
    """Property-based: random frames, random group keys — the combiner →
    merge pipeline must equal a plain SQL GROUP BY."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_summary,
    )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def run(rows):
        g = [r[0] for r in rows]
        v = [r[1] for r in rows]
        out = grouped_summary(
            _ds({"g": g, "v": v}, types={"v": pa.int64()}).repartition(3),
            by=["g"],
            aggs={
                "n": ("v", "count"),
                "sv": ("v", "sum"),
                "mn": ("v", "min"),
                "mx": ("v", "max"),
            },
            num_buckets=2,
        ).to_pandas().sort_values("g").reset_index(drop=True)
        exp = duckdb.sql(
            """SELECT g, count(*) n, sum(v) sv, min(v) mn, max(v) mx
               FROM (SELECT unnest($g) g, unnest($v) v)
               GROUP BY 1 ORDER BY 1""",
            params={"g": g, "v": v},
        ).df()
        for c in ["n", "sv", "mn", "mx"]:
            assert out[c].astype(int).tolist() == exp[c].astype(int).tolist()

    run()


def test_membership_join_property_vs_duckdb(ray_session):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        left=st.lists(
            st.integers(min_value=0, max_value=20), min_size=1, max_size=40
        ),
        right=st.lists(
            st.integers(min_value=0, max_value=20), min_size=0, max_size=40
        ),
        anti=st.booleans(),
    )
    def run(left, right, anti):
        lds = _ds({"k": left}, types={"k": pa.int64()})
        rds = _ds({"k": right or [999]}, types={"k": pa.int64()})
        rvals = right or [999]
        got = sorted(
            r["k"]
            for r in membership_join(lds, rds, on="k", anti=anti).take_all()
        )
        rs = set(rvals)
        want = sorted(
            k for k in left if (k not in rs) if anti
        ) if anti else sorted(k for k in left if k in rs)
        assert got == want

    run()


def test_bloom_filter_no_false_negatives(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.functions.bloom import (
        BloomFilter,
        bloom_from_dataset,
    )

    keys = list(range(0, 5000, 3))
    ds = _ds({"k": keys})
    bf = bloom_from_dataset(ds, "k", fp_rate=0.01)
    # every inserted key MUST test positive (false negatives impossible)
    assert bf.contains(np.array(keys, dtype=np.int64)).all()
    # false-positive rate on non-members stays near the target
    non = np.array([x for x in range(5000) if x % 3], dtype=np.int64)
    fp = bf.contains(non).mean()
    assert fp < 0.05
    # string keys hash through the object path
    sbf = bloom_from_dataset(_ds({"k": ["a", "b", "c"]}), "k")
    assert sbf.contains(np.array(["a", "b", "c"], dtype=object)).all()
    m, k = BloomFilter.sized_for(10**6, 0.01)
    assert m % 64 == 0 and 1 <= k <= 16


def test_bloom_join_matches_plain_membership(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        bloom_membership_join,
        membership_join,
    )

    rng = np.random.default_rng(7)
    left = _ds(
        {
            "k": rng.integers(0, 400, 3000).tolist(),
            "lid": list(range(3000)),
        }
    )
    right = _ds({"rk": rng.integers(0, 200, 500).tolist()})
    for anti in (False, True):
        # force the co-bucketed exact stage (broadcast_threshold=0) so the
        # bloom prefilter + shuffle path is what's tested
        got = bloom_membership_join(
            left, right, on="k", right_on="rk", anti=anti,
            broadcast_threshold=0, num_buckets=8,
        )
        want = membership_join(left, right, on="k", right_on="rk", anti=anti)
        assert sorted(r["lid"] for r in got.take_all()) == sorted(
            r["lid"] for r in want.take_all()
        )


def test_bloom_join_null_left_keys(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        bloom_membership_join,
    )

    left = _ds(
        {"k": [1, None, 2, None], "lid": [0, 1, 2, 3]},
        types={"k": pa.int64()},
    )
    right = _ds({"k": [1, 9]})
    semi = bloom_membership_join(
        left, right, on="k", broadcast_threshold=0, num_buckets=4
    )
    assert sorted(r["lid"] for r in semi.take_all()) == [0]
    anti = bloom_membership_join(
        left, right, on="k", anti=True, broadcast_threshold=0, num_buckets=4
    )
    # NOT EXISTS keeps null-keyed rows
    assert sorted(r["lid"] for r in anti.take_all()) == [1, 2, 3]


def test_value_quantiles_cont_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        value_quantiles_cont,
    )

    rng = np.random.default_rng(11)
    for n in (4, 5, 10, 101):
        vals = rng.integers(0, 10**7, n).tolist()
        got = {
            r["q_quarters"]: r["value_x4"]
            for r in value_quantiles_cont(
                _ds({"v": vals}), "v", [0, 1, 2, 3, 4], num_buckets=4
            ).take_all()
        }
        want = duckdb.sql(
            "SELECT quantile_cont(v, [0.0, 0.25, 0.5, 0.75, 1.0]) FROM "
            "(SELECT unnest(?) AS v)",
            params=[vals],
        ).fetchone()[0]
        assert got == {k: round(4 * want[k]) for k in range(5)}
    # numpy R-7 cross-check on the median
    vals = rng.integers(0, 10**6, 17).tolist()
    (row,) = [
        r
        for r in value_quantiles_cont(_ds({"v": vals}), "v", [2]).take_all()
    ]
    assert row["value_x4"] == round(4 * float(np.quantile(vals, 0.5)))


def test_above_group_mean_exact(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        above_group_mean,
    )

    # group a: mean 20 -> only 50 is strictly above; group b: all equal
    # -> nothing strictly above the mean
    ds = _ds(
        {
            "g": ["a", "a", "a", "b", "b"],
            "v": [5, 5, 50, 7, 7],
            "rid": [0, 1, 2, 3, 4],
        }
    )
    out = above_group_mean(ds, by="g", col="v", keep=["rid"], num_buckets=4)
    assert sorted(r["rid"] for r in out.take_all()) == [2]
    # boundary: v exactly at the mean is excluded (strict n*v > S)
    ds = _ds({"g": ["c"] * 3, "v": [10, 20, 30], "rid": [0, 1, 2]})
    out = above_group_mean(ds, by="g", col="v", keep=["rid"], num_buckets=2)
    assert sorted(r["rid"] for r in out.take_all()) == [2]


def test_value_mad_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        value_mad,
    )

    rng = np.random.default_rng(23)
    for n in (1, 4, 5, 200):
        vals = rng.integers(-100, 10**6, n).tolist()
        (row,) = value_mad(_ds({"v": vals}), "v", num_buckets=4).take_all()
        med, mad = duckdb.sql(
            "SELECT quantile_disc(v, 0.5), "
            "quantile_disc(abs(v - (SELECT quantile_disc(v, 0.5) "
            "FROM (SELECT unnest(?) AS v))), 0.5) "
            "FROM (SELECT unnest(?) AS v)",
            params=[vals, vals],
        ).fetchone()
        assert (row["median"], row["mad"]) == (med, mad)
    assert value_mad(_ds({"v": []}, types={"v": pa.int64()}), "v").count() == 0


def test_group_quantiles_cont_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_quantiles_cont,
    )

    rng = np.random.default_rng(31)
    gs = rng.choice(["a", "b", "c"], 120).tolist()
    vs = rng.integers(0, 10**6, 120).tolist()
    got = {
        (r["g"], r["q_quarters"]): r["value_x4"]
        for r in group_quantiles_cont(
            _ds({"g": gs, "v": vs}), by="g", col="v", quarters=[1, 2, 3],
            num_buckets=4,
        ).take_all()
    }
    want = duckdb.sql(
        "SELECT g, quantile_cont(v, [0.25, 0.5, 0.75]) FROM "
        "(SELECT unnest(?) AS g, unnest(?) AS v) GROUP BY g",
        params=[gs, vs],
    ).fetchall()
    expect = {
        (g, k): round(4 * qv[k - 1]) for g, qv in want for k in (1, 2, 3)
    }
    assert got == expect
    # single-row group: all quarters equal 4*v
    got1 = group_quantiles_cont(
        _ds({"g": ["z"], "v": [7]}), by="g", col="v", quarters=[1, 2, 3],
        num_buckets=2,
    ).take_all()
    assert {r["value_x4"] for r in got1} == {28}


def test_latest_by_key_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        latest_by_key,
    )

    rng = np.random.default_rng(7)
    n = 300
    ks = rng.integers(0, 40, n).tolist()
    # coarse ts so ties are common and the tiebreak is exercised
    ts = rng.integers(0, 20, n).tolist()
    ids = list(range(n))
    vals = rng.integers(-5, 5, n).tolist()
    got = {
        r["k"]: (r["ts"], r["id"], r["v"])
        for r in latest_by_key(
            _ds({"k": ks, "ts": ts, "id": ids, "v": vals}),
            key="k", order_by="ts", tiebreak="id", num_buckets=4,
        ).take_all()
    }
    want = {
        k: (t, i, v)
        for k, t, i, v in duckdb.sql(
            "SELECT k, ts, id, v FROM (SELECT *, row_number() OVER "
            "(PARTITION BY k ORDER BY ts DESC, id) rn FROM (SELECT "
            "unnest(?) k, unnest(?) ts, unnest(?) id, unnest(?) v)) "
            "WHERE rn = 1",
            params=[ks, ts, ids, vals],
        ).fetchall()
    }
    assert got == want
    # single-block input must equal multi-block (combiner associativity)
    got1 = {
        r["k"]: (r["ts"], r["id"], r["v"])
        for r in latest_by_key(
            _ds({"k": ks, "ts": ts, "id": ids, "v": vals}).repartition(13),
            key="k", order_by="ts", tiebreak="id", num_buckets=4,
        ).take_all()
    }
    assert got1 == want


def test_group_ranks_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_ranks,
    )

    rng = np.random.default_rng(11)
    gs = rng.choice(["x", "y", "z"], 250).tolist()
    vs = rng.integers(0, 25, 250).tolist()  # heavy ties
    got = {
        (r["g"], r["value"]): (r["rnk"], r["cume_n"], r["n_rows"])
        for r in group_ranks(
            _ds({"g": gs, "v": vs}), by="g", col="v", num_buckets=4
        ).take_all()
    }
    want = {
        (g, v): (rk, cn, nr)
        for g, v, rk, cn, nr in duckdb.sql(
            "SELECT DISTINCT g, v, rank() OVER (PARTITION BY g ORDER BY v),"
            " count(*) OVER (PARTITION BY g ORDER BY v),"
            " count(*) OVER (PARTITION BY g) FROM "
            "(SELECT unnest(?) g, unnest(?) v)",
            params=[gs, vs],
        ).fetchall()
    }
    assert got == want
    # percent_rank / cume_dist derive exactly from the integers
    for (g, v), (rk, cn, nr) in got.items():
        pr = (rk - 1) / (nr - 1) if nr > 1 else 0.0
        row = duckdb.sql(
            "SELECT DISTINCT percent_rank() OVER (PARTITION BY g ORDER BY v),"
            " cume_dist() OVER (PARTITION BY g ORDER BY v) FROM "
            "(SELECT unnest(?) g, unnest(?) v) QUALIFY g = ? AND v = ?",
            params=[gs, vs, g, v],
        ).fetchone()
        assert math.isclose(row[0], pr) and math.isclose(row[1], cn / nr)


def test_profile_columns_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        profile_columns,
    )

    rng = np.random.default_rng(3)
    n = 400
    a = rng.integers(0, 37, n).tolist()
    b = [None if i % 7 == 0 else f"s{i % 13}" for i in range(n)]
    c = [None] * n  # all-null column
    got = {
        r["col"]: (r["n_rows"], r["n_null"], r["n_distinct"])
        for r in profile_columns(
            _ds(
                {"a": a, "b": b, "c": c},
                types={"c": pa.string()},
            ).repartition(9),
            ["a", "b", "c"],
            num_buckets=4,
        ).take_all()
    }
    want = {
        col: duckdb.sql(
            f"SELECT count(*), count(*) - count({col}), "
            f"count(DISTINCT {col}) FROM (SELECT unnest(?) a, unnest(?) b, "
            "unnest(CAST(? AS VARCHAR[])) c)",
            params=[a, b, c],
        ).fetchone()
        for col in ("a", "b", "c")
    }
    assert got == want


def test_profile_columns_hll_cutover(ray_session):
    """Near-unique columns overflow value_cap → merged-HLL estimate with
    distinct_exact=false and only sketch bytes shuffled; low-cardinality
    columns in the SAME call stay exact (VERDICT r2 #5)."""
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        profile_columns,
    )

    n = 10_000
    x = list(range(n))  # near-unique: every value distinct
    y = [None if i % 10 == 0 else f"v{i % 5}" for i in range(n)]
    out = {
        r["col"]: r
        for r in profile_columns(
            _ds({"x": x, "y": y}).repartition(8),
            ["x", "y"],
            num_buckets=4,
            value_cap=128,
        ).take_all()
    }
    rx, ry = out["x"], out["y"]
    assert (rx["n_rows"], rx["n_null"]) == (n, 0)  # counts always exact
    assert rx["distinct_exact"] is False
    assert abs(rx["n_distinct"] - n) / n < 0.05  # HLL p=12 ±1.6% (3σ)
    assert ry["distinct_exact"] is True
    assert (ry["n_rows"], ry["n_null"], ry["n_distinct"]) == (n, 1000, 5)

    # exact flag ON means exact values: same data, cap never overflowed
    out2 = {
        r["col"]: r
        for r in profile_columns(
            _ds({"x": x, "y": y}).repartition(8), ["x", "y"], num_buckets=4
        ).take_all()
    }
    assert out2["x"]["n_distinct"] == n
    assert out2["x"]["distinct_exact"] is True


def test_group_string_agg_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_string_agg,
    )

    rng = np.random.default_rng(5)
    ks = rng.integers(0, 20, 200).tolist()
    vs = rng.integers(0, 10**4, 200).tolist()
    got = {
        r["k"]: r["agg"]
        for r in group_string_agg(
            _ds({"k": ks, "v": vs}).repartition(7),
            by="k", col="v", num_buckets=4,
        ).take_all()
    }
    want = dict(
        duckdb.sql(
            "SELECT k, string_agg(CAST(v AS VARCHAR), ',' ORDER BY v) FROM "
            "(SELECT unnest(?) k, unnest(?) v) GROUP BY k",
            params=[ks, vs],
        ).fetchall()
    )
    assert got == want


def test_frame_window_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        frame_window,
    )

    rng = np.random.default_rng(13)
    n = 300
    ks = rng.integers(0, 25, n).tolist()
    ts = rng.integers(0, 15, n).tolist()  # coarse: order ties via id
    ids = list(range(n))
    vs = rng.integers(-100, 100, n).tolist()
    got = {
        r["id"]: r["mv"]
        for r in frame_window(
            _ds({"k": ks, "ts": ts, "id": ids, "v": vs}).repartition(6),
            by="k", order_cols=["ts", "id"], col="v", k=3,
            out_col="mv", keep_cols=["id"], num_buckets=4,
        ).take_all()
    }
    want = dict(
        duckdb.sql(
            "SELECT id, SUM(v) OVER (PARTITION BY k ORDER BY ts, id "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM "
            "(SELECT unnest(?) k, unnest(?) ts, unnest(?) id, unnest(?) v)",
            params=[ks, ts, ids, vs],
        ).fetchall()
    )
    assert got == want


def test_winsorize_values_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        winsorize_values,
    )

    rng = np.random.default_rng(71)
    n = 500
    ids = list(range(n))
    vs = rng.integers(-10**6, 10**6, n).tolist()
    got = {
        r["id"]: r["clipped"]
        for r in winsorize_values(
            _ds({"id": ids, "v": vs}).repartition(7),
            "v", keep_cols=["id"], lo_q=0.05, hi_q=0.95, num_buckets=4,
        ).take_all()
    }
    want = dict(
        duckdb.sql(
            "WITH t AS (SELECT unnest(?) id, unnest(?) v), "
            "b AS (SELECT quantile_disc(v, 0.05) lo, "
            "quantile_disc(v, 0.95) hi FROM t) "
            "SELECT id, least(greatest(v, b.lo), b.hi) FROM t, b",
            params=[ids, vs],
        ).fetchall()
    )
    assert got == want
    assert len(set(got.values())) < len(set(vs))  # clipping happened


def test_group_topk_rank_ties_match_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_topk_rank,
    )

    rng = np.random.default_rng(73)
    n = 300
    ks = rng.integers(0, 20, n).tolist()
    ids = list(range(n))
    vs = rng.integers(0, 8, n).tolist()  # tiny domain: boundary ties common
    got = {
        (r["k"], r["id"], r["rnk"])
        for r in group_topk_rank(
            _ds({"k": ks, "id": ids, "v": vs}).repartition(6),
            by="k", sort_col="v", k=3, num_buckets=4,
        ).take_all()
    }
    want = {
        (k, i, r)
        for k, i, r in duckdb.sql(
            "SELECT k, id, CAST(rank() OVER (PARTITION BY k ORDER BY v DESC)"
            " AS BIGINT) rnk FROM (SELECT unnest(?) k, unnest(?) id,"
            " unnest(?) v) QUALIFY rnk <= 3",
            params=[ks, ids, vs],
        ).fetchall()
    }
    assert got == want
    # ties actually kept: some group must exceed 3 rows
    from collections import Counter
    assert max(Counter(k for k, _, _ in got).values()) > 3


def test_full_outer_join_matches_duckdb(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        full_outer_join,
    )

    rng = np.random.default_rng(79)
    lk = rng.integers(0, 30, 80).tolist()
    lv = rng.integers(0, 100, 80).tolist()
    rk = rng.integers(15, 45, 70).tolist()  # partial overlap both ways
    rv = rng.integers(0, 100, 70).tolist()
    got = sorted(
        (r["id"], r["lv"], r["rv"])
        for r in full_outer_join(
            _ds({"k": lk, "lv": lv}).repartition(4),
            _ds({"j": rk, "rv": rv}).repartition(3),
            on="k", right_on="j", key_out="id", num_buckets=4,
        ).take_all()
    )
    want = sorted(
        duckdb.sql(
            "SELECT coalesce(l.k, r.j), lv, rv FROM "
            "(SELECT unnest(?) k, unnest(?) lv) l FULL JOIN "
            "(SELECT unnest(?) j, unnest(?) rv) r ON l.k = r.j",
            params=[lk, lv, rk, rv],
        ).fetchall(),
        key=lambda x: (x[0], x[1] is None, x[1], x[2] is None, x[2]),
    )
    got = sorted(got, key=lambda x: (x[0], x[1] is None, x[1], x[2] is None, x[2]))
    assert got == [tuple(w) for w in want]
    # orphans exist on both sides
    assert any(v is None for _, v, _ in got)
    assert any(v is None for _, _, v in got)


def test_global_rank_matches_duckdb_window(ray_session):
    """TeraSort-shaped global rank vs the single-sort window oracle,
    on a distribution built to stress the decomposition: heavy value
    duplication (equal order values MUST share a range bucket), values
    equal to likely boundary candidates, n % k != 0, and more range
    buckets than distinct values (guaranteed empty buckets)."""
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        global_rank,
    )

    rng = np.random.RandomState(7)
    vals = np.concatenate(
        [
            np.full(40, 5.0),              # one hot duplicate value
            rng.randint(0, 10, 60).astype(np.float64),  # few distinct
            rng.uniform(0, 10, 23),        # continuous tail; n=123, k=7
        ]
    )
    ids = np.arange(len(vals), dtype=np.int64)
    t = pa.table({"v": pa.array(vals), "id": pa.array(ids)})
    # many small input blocks so per-block candidate quantiles disagree
    blocks = [t.slice(i, 9) for i in range(0, len(vals), 9)]
    ds = ray.data.from_arrow(blocks)
    got = (
        global_rank(ds, order_col="v", tie_col="id", k=7, num_buckets=32)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = duckdb.connect().execute(
        """
        SELECT id,
               row_number() OVER (ORDER BY v, id) AS rnk,
               ntile(7)     OVER (ORDER BY v, id) AS tile
        FROM t ORDER BY id
        """
    ).df()
    assert list(got["rnk"]) == list(want["rnk"])
    assert list(got["tile"]) == list(want["tile"])
    assert list(got.columns) == ["id", "rnk", "tile"]


def test_grouped_cube_all_subsets_vs_duckdb(ray_session):
    """CUBE over 3 dims = 8 grouping sets, incl. the cross cuts ROLLUP
    misses (e.g. keep only the middle dim); gid must equal SQL
    GROUPING(a, b, c) with a as the most significant bit."""
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_cube,
    )

    rng = np.random.RandomState(3)
    n = 500
    t = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y"], n)),
            "b": pa.array(rng.choice(["u", "v", "w"], n)),
            "c": pa.array(rng.randint(0, 2, n), pa.int64()),
            "val": pa.array(rng.randint(0, 100, n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 50) for i in range(0, n, 50)])
    got = (
        grouped_cube(
            ds,
            by=["a", "b", "c"],
            aggs={"n_rows": ("val", "count"), "s": ("val", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .fillna({"a": "~", "b": "~", "c": -1})
        .sort_values(["gid", "a", "b", "c"])
        .reset_index(drop=True)
    )
    want = (
        duckdb.connect()
        .execute(
            """
            SELECT a, b, c,
                   CAST(grouping(a)*4 + grouping(b)*2 + grouping(c)
                        AS BIGINT) AS gid,
                   count(*) AS n_rows, CAST(sum(val) AS BIGINT) AS s
            FROM t GROUP BY CUBE (a, b, c)
            """
        )
        .df()
        .fillna({"a": "~", "b": "~", "c": -1})
        .sort_values(["gid", "a", "b", "c"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    for col in ["a", "b", "gid", "n_rows", "s"]:
        assert list(got[col]) == list(want[col]), col
    assert [int(x) for x in got["c"]] == [int(x) for x in want["c"]]


def test_group_mode_tiebreak_and_block_invariance(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_mode,
    )

    # g1: a×2, b×2 (tie → 'a'); g2: z×3, y×1 — split across blocks so
    # the per-block partials must merge before the argmax
    a = ray.data.from_arrow(
        pa.table(
            {
                "g": ["g1", "g1", "g2", "g2"],
                "v": ["b", "a", "z", "z"],
            }
        )
    )
    b = ray.data.from_arrow(
        pa.table(
            {
                "g": ["g1", "g1", "g2", "g2"],
                "v": ["a", "b", "y", "z"],
            }
        )
    )
    out = (
        group_mode(a.union(b), by="g", col="v", num_buckets=4)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert list(out["g"]) == ["g1", "g2"]
    assert list(out["mode"]) == ["a", "z"]
    assert list(out["n_mode"]) == [2, 3]
    assert list(out["n_rows"]) == [4, 4]


def test_group_mad_closed_form(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_mad,
    )

    # g: [1,2,2,9] → disc median = 2 (ceil(0.5*4)-1 = idx 1);
    # deviations |x-2| = [1,0,0,7] → hist {0:2, 1:1, 7:1} → MAD = 0
    # h: [1,3,10] → median 3; deviations [2,0,7] → MAD = 2
    ds = ray.data.from_arrow(
        pa.table(
            {
                "g": ["g", "g", "h", "g", "h", "g", "h"],
                "v": [1, 2, 1, 2, 3, 9, 10],
            }
        )
    ).repartition(3)
    out = (
        group_mad(ds, by="g", col="v", num_buckets=4)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert list(out["g"]) == ["g", "h"]
    assert list(out["median"]) == [2, 3]
    assert list(out["mad"]) == [0, 2]


def test_scd2_intervals_closed_form(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        scd2_intervals,
    )

    t0 = dt.datetime(2024, 1, 1)

    def ts(m):
        return t0 + dt.timedelta(minutes=m)

    # u1 has a ts TIE broken by event_id; u2 a single row (open interval)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "user_id": ["u1", "u1", "u1", "u2"],
                "event_id": [3, 1, 2, 9],
                "ts": pa.array(
                    [ts(5), ts(0), ts(5), ts(7)],
                    pa.timestamp("us"),
                ),
                "kind": ["c", "a", "b", "z"],
            }
        )
    ).repartition(2)
    out = (
        scd2_intervals(
            ds, key="user_id", order_by="ts", tiebreak="event_id",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
        .reset_index(drop=True)
    )
    # u1 order: (0,e1) → (5,e2) → (5,e3); valid_to chains accordingly
    assert list(out["event_id"]) == [1, 2, 3, 9]
    assert list(out["valid_to"])[:2] == [ts(5), ts(5)]
    assert out["valid_to"].isna().tolist() == [False, False, True, True]


def test_interval_join_closed_bounds(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        interval_join,
    )

    left = _ds(
        {"k": [1, 1, 2], "s": [10, 50, 10], "e": [20, 60, 20], "lid": [0, 1, 2]}
    )
    right = _ds(
        {
            "k": [1, 1, 1, 2],
            "s": [20, 21, 0, 100],
            "e": [30, 30, 9, 200],
            "rid": [5, 6, 7, 8],
        }
    )
    out = interval_join(
        left,
        right,
        by="k",
        left_span=("s", "e"),
        right_span=("s", "e"),
        left_cols=["lid"],
        right_cols=["rid"],
        num_buckets=4,
    ).take_all()
    pairs = sorted((r["l_lid"], r["r_rid"]) for r in out)
    # lid=0 [10,20] touches rid=5 [20,30] at the closed endpoint only;
    # rid=6 starts at 21 (no overlap), rid=7 ends at 9 (no overlap);
    # lid=2 is key 2 where the only right interval is far away
    assert pairs == [(0, 5)]


def test_interval_join_random_vs_duckdb(ray_session):
    import numpy as np

    rng = np.random.default_rng(23)
    n = 2500
    # skewed interval lengths: mostly short, a few very long (stresses
    # the max-right-length candidate widening + exact end filter)
    def mk(seed):
        r = np.random.default_rng(seed)
        s = r.integers(0, 10_000, n)
        ln = np.where(r.random(n) < 0.05, r.integers(500, 3000, n), r.integers(0, 40, n))
        return pa.table(
            {
                "u": pa.array(r.integers(0, 40, n), pa.int64()),
                "s": pa.array(s, pa.int64()),
                "e": pa.array(s + ln, pa.int64()),
                "id": pa.array(np.arange(n), pa.int64()),
            }
        )

    lt, rt = mk(31), mk(37)
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        interval_join,
    )

    out = interval_join(
        ray.data.from_arrow(lt).repartition(5),
        ray.data.from_arrow(rt).repartition(9),
        by="u",
        left_span=("s", "e"),
        right_span=("s", "e"),
        left_cols=["id"],
        right_cols=["id"],
        num_buckets=8,
    ).to_pandas()
    want = duckdb.sql(
        """
        SELECT l.id AS l_id, r.id AS r_id FROM lt l JOIN rt r
        ON l.u = r.u AND l.s <= r.e AND r.s <= l.e
        """
    ).fetchdf()
    a = out.sort_values(["l_id", "r_id"]).reset_index(drop=True)
    b = want.sort_values(["l_id", "r_id"]).reset_index(drop=True)
    assert len(a) == len(b) and a.equals(b)


def test_grouped_sets_vs_duckdb(ray_session):
    """Explicit GROUPING SETS (two 1-D cuts + grand total + the detail
    pair itself) vs DuckDB, GROUPING() bitmask included."""
    import numpy as np

    rng = np.random.default_rng(5)
    tbl = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y", "z"], 500)),
            "b": pa.array(rng.choice(["p", "q"], 500)),
            "v": pa.array(rng.integers(0, 100, 500), pa.int64()),
        }
    )
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_sets,
    )

    got = (
        grouped_sets(
            ray.data.from_arrow(tbl).repartition(4),
            by=["a", "b"],
            sets=[["a", "b"], ["a"], ["b"], []],
            aggs={"n": ("v", "count"), "sv": ("v", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["gid", "a", "b"])
        .reset_index(drop=True)
    )
    want = (
        duckdb.sql(
            """
        SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS gid,
               count(*) AS n, CAST(sum(v) AS BIGINT) AS sv
        FROM tbl GROUP BY GROUPING SETS ((a, b), (a), (b), ())
        ORDER BY gid, a, b
        """
        )
        .fetchdf()
        .reset_index(drop=True)
    )
    assert got[["a", "b", "gid", "n", "sv"]].equals(
        want.astype(got[["a", "b", "gid", "n", "sv"]].dtypes.to_dict())
    )


def test_grouped_sets_rejects_bad_sets(ray_session):
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_sets,
    )

    ds = _ds({"a": [1], "b": [2], "v": [3]})
    import pytest as _pt

    with _pt.raises(ValueError, match="not a subset"):
        grouped_sets(ds, by=["a"], sets=[["b"]], aggs={"n": ("v", "count")})
    with _pt.raises(ValueError, match="duplicate"):
        grouped_sets(
            ds, by=["a", "b"], sets=[["a"], ["a"]], aggs={"n": ("v", "count")}
        )


def test_membership_join_empty_right(ray_session):
    """A fully-empty right side (Ray reports no schema) must not crash
    the house shuffle: ANTI keeps every left row, SEMI keeps none with
    the left schema intact."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        membership_join,
    )

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()), "v": pa.array(list("abc"))})
    ).repartition(2)
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64())})
    ).filter(expr="k > 99")  # empties out entirely

    kept = membership_join(left, right, on="k", anti=True)
    assert sorted(r["k"] for r in kept.take_all()) == [1, 2, 3]

    none = membership_join(left, right, on="k", anti=False)
    assert none.take_all() == []
    assert none.schema().names == ["k", "v"]


def test_equidepth_histogram_ntile_semantics(ray_session):
    """ntile(k) rule: 10 rows over k=3 -> tile sizes 4, 3, 3; a hot
    value spanning a boundary lands in both neighboring tiles (ranks
    decide, not values); lo/hi are exact per-tile selections."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        equidepth_histogram,
    )

    # values: 1,2,3,5,5,5,5,8,9,10 with unique tie ids
    vals = [1, 2, 3, 5, 5, 5, 5, 8, 9, 10]
    t = pa.table(
        {
            "v": pa.array(vals, pa.int64()),
            "id": pa.array(list(range(10)), pa.int64()),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, 10, 3)])
    got = sorted(
        (r["tile"], r["n"], r["lo"], r["hi"])
        for r in equidepth_histogram(
            ds, value_col="v", tie_col="id", k=3, num_buckets=4
        ).take_all()
    )
    # sorted order: 1 2 3 5 | 5 5 5 | 8 9 10
    assert got == [
        (1, 4, 1, 5),
        (2, 3, 5, 5),
        (3, 3, 8, 10),
    ]


def test_group_corr_parts_exact_moments(ray_session):
    """Pearson partials: a perfectly linear group satisfies
    corr_num² == den_x·den_y exactly (r = ±1); anti-correlation flips
    the sign; groups split across blocks merge their six sums."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_corr_parts,
    )

    rows = [
        # g1: y = 2x + 1 -> r = +1
        ("g1", 1, 3), ("g1", 2, 5), ("g1", 3, 7), ("g1", 4, 9),
        # g2: y = -x -> r = -1
        ("g2", 1, -1), ("g2", 2, -2), ("g2", 3, -3),
    ]
    t = pa.table(
        {
            "g": [r[0] for r in rows],
            "x": pa.array([r[1] for r in rows], pa.float64()),
            "y": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(rows), 2)])
    got = {
        r["g"]: (r["n"], r["corr_num"], r["corr_den_x"], r["corr_den_y"])
        for r in group_corr_parts(
            ds, by="g", x_col="x", y_col="y", num_buckets=4
        ).take_all()
    }
    n1, num1, dx1, dy1 = got["g1"]
    assert n1 == 4 and num1 > 0 and num1 * num1 == dx1 * dy1
    n2, num2, dx2, dy2 = got["g2"]
    assert n2 == 3 and num2 < 0 and num2 * num2 == dx2 * dy2


def test_group_weighted_median_lower_semantics(ray_session):
    """Lower weighted median: the smallest v whose cumulative weight
    doubles to >= the total; duplicate values split across blocks sum
    their weights first; an exact 50/50 crossing picks the LOWER value."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.relational import (
        group_weighted_median,
    )

    rows = [
        # g1: v=1 w=1, v=2 w=1+1 (split), v=9 w=1 -> total 4,
        # cum at 2 is 3 -> 6 >= 4 -> but cum at 1 is 1 (2 < 4): median 2
        ("g1", 1, 1), ("g1", 2, 1), ("g1", 2, 1), ("g1", 9, 1),
        # g2: v=1 w=2, v=5 w=2 -> exact 50/50 -> lower median 1
        ("g2", 1, 2), ("g2", 5, 2),
        # g3: one heavy value dominates
        ("g3", 7, 100), ("g3", 3, 1),
    ]
    t = pa.table(
        {
            "g": [r[0] for r in rows],
            "v": pa.array([r[1] for r in rows], pa.float64()),
            "w": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(rows), 2)])
    got = {
        r["g"]: (r["wmedian"], r["total_w"])
        for r in group_weighted_median(
            ds, by="g", value_col="v", weight_col="w", num_buckets=4
        ).take_all()
    }
    assert got == {"g1": (2, 4), "g2": (1, 4), "g3": (7, 101)}
