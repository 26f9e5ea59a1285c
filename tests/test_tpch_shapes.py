"""TPC-H join-shape compositions (Q4/Q14/Q15/Q17/Q18/Q22 adapted to the
driver tables): each must be value-exact against its registered DuckDB
oracle at sf0.001 — the same comparison the graft driver runs at sf0.01.

These six shapes cover the join compositions the earlier Q1/Q3/Q6/Q9/Q13
suite misses: EXISTS semi (Q4), dim-attribute conditional aggregate
(Q14), argmax vs a global scalar (Q15), fact-side correlated average
(Q17), HAVING-filtered group joined back into two dims (Q18), and
global-threshold + NOT-EXISTS anti (Q22)."""

import hashlib
import importlib
import sys
from pathlib import Path

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem "
    "events documents embeddings"
).split()
NEW = [
    "q4_order_priority",
    "q14_promo_share",
    "q15_top_supplier",
    "q17_small_qty",
    "q18_volume_customers",
    "q22_idle_customers",
    "q10_returned_items",
    "sample_weighted",
    "q16_supplier_counts",
    "q2_min_cost_shipper",
    "event_bursts",
    "q7_nation_volume",
    "q19_disjunctive_revenue",
    "q12_late_shipments",
    "q8_market_share",
    "split_leakage",
    "q11_important_parts",
    "q20_dominant_suppliers",
    "q21_waiting_suppliers",
]


def _hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply("|".join, axis=1))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize("name", NEW)
def test_tpch_shape_matches_oracle(ray_session, oracle_con, name):
    e = importlib.import_module("__ray_entry__")
    got = e.queries()[name](SF_DIR).to_pandas()
    want = oracle_con.execute(e.oracle_sql()[name]).df()
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want) > 0
    assert _hash(got) == _hash(want)


def test_fk_audit_counts_orphans(ray_session, tmp_path):
    """Inject one orphan per FK into a tiny warehouse; the audit must
    count exactly those (the driver corpus is orphan-free, so this is
    where the detection path is actually exercised)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    e = importlib.import_module("__ray_entry__")

    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2], pa.int64())}),
        tmp_path / "customer.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                "o_custkey": pa.array([1, 2, 99], pa.int64()),  # 99 orphan
            }
        ),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table({"p_partkey": pa.array([5], pa.int64())}),
        tmp_path / "part.parquet",
    )
    pq.write_table(
        pa.table({"s_suppkey": pa.array([7], pa.int64())}),
        tmp_path / "supplier.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 11, 404], pa.int64()),  # 404
                "l_partkey": pa.array([5, 505, 5], pa.int64()),  # 505
                "l_suppkey": pa.array([7, 7, 7], pa.int64()),  # clean
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = {
        r["fk"]: (r["n_rows"], r["n_orphans"])
        for r in e.queries()["fk_audit"](str(tmp_path)).take_all()
    }
    assert got == {
        "lineitem.l_orderkey->orders": (3, 1),
        "lineitem.l_partkey->part": (3, 1),
        "lineitem.l_suppkey->supplier": (3, 0),
        "orders.o_custkey->customer": (3, 1),
    }


def test_sample_weighted_priority_equals_duckdb_pow():
    """The sample's priority column equals the oracle's DuckDB
    ``pow(u, 1.0 / greatest(w, 1))`` bit for bit, on random docs where
    numpy's vectorized ``**`` would differ from it by an ulp."""
    import numpy as np
    import pyarrow as pa

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        _sample_priority,
    )
    from joint_entity_and_relation_extraction_ray.schema import md5_60

    rng = np.random.default_rng(5)
    n = 20_000
    chars = rng.integers(0, 20_000, n).tolist()
    t = pa.table(
        {
            "doc_id": pa.array(rng.choice(10**9, n, replace=False), pa.int64()),
            "n_chars": pa.array(
                [None if i % 997 == 0 else c for i, c in enumerate(chars)],
                pa.int64(),
            ),
        }
    )
    got = _sample_priority(t).sort_by("doc_id")
    want = duckdb.connect().execute(
        """
        SELECT doc_id, pow(
            (('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                 ::BIGINT + 1) / 1152921504606846977.0,
            1.0 / greatest(n_chars, 1)) AS prio
        FROM t ORDER BY doc_id
        """
    ).arrow()
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    duck = want["prio"].to_numpy()
    np.testing.assert_array_equal(got["prio"].to_numpy(), duck)
    # the inputs include the pairs numpy's ** gets wrong
    u = (md5_60(got["doc_id"]) + 1).astype(np.float64) / float((1 << 60) + 1)
    w = np.maximum(np.nan_to_num(
        got["weight"].to_numpy(zero_copy_only=False).astype(np.float64),
        nan=1.0,
    ), 1.0)
    assert (u ** (1.0 / w) != duck).sum() > 1_000


def test_sample_weighted_prefers_heavy_docs(ray_session):
    """Weighted-by-n_chars sampling must overrepresent long docs: the
    sample's mean weight exceeds the corpus mean."""
    import pyarrow.parquet as pq

    e = importlib.import_module("__ray_entry__")
    got = e.queries()["sample_weighted"](SF_DIR).to_pandas()
    corpus = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["n_chars"]
    ).to_pandas()
    assert got["weight"].mean() > corpus["n_chars"].mean()
