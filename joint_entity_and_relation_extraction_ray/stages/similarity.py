"""Similarity search over an embedding column (list<float>) — driver brief
"similarity search" family.

- :func:`ann_topk` — exact brute-force cosine top-k: the query matrix is
  broadcast (``ray.put`` once), every batch does one float64 matmul and
  emits its per-query partial top-k, and a tiny groupby(query) merge
  produces the global top-k. Shuffle payload is O(n_queries × k × blocks),
  never the corpus.
- :func:`ann_topk_ivf` — IVF scale path: corpus bucketed by nearest
  centroid (one map), queries probe the ``nprobe`` nearest centroid
  buckets only. Approximate → rows-only in the driver contract.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.shuffle import bucket_group_apply
from ..schema import stable_bucket

_TOPK_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("neighbor_id", pa.int64()),
        ("rank", pa.int64()),
    ]
)


def _merge_topk(t: pa.Table, k: int) -> pa.Table:
    """Per-query top-k merge of partial (query_id, neighbor_id, score) rows
    — vectorized (handles MANY queries per call; ties break on neighbor_id
    ascending, deterministic)."""
    import polars as pl

    if not len(t):
        return _TOPK_SCHEMA.empty_table()
    out = (
        pl.from_arrow(t)
        .sort(["query_id", "score", "neighbor_id"], descending=[False, True, False])
        .with_columns(
            (pl.int_range(pl.len()).over("query_id") + 1).alias("rank")
        )
        .filter(pl.col("rank") <= k)
        .select(["query_id", "neighbor_id", "rank"])
    )
    return out.to_arrow().cast(_TOPK_SCHEMA)


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _emb_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    return ids, m


def ann_topk(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    metric: str = "cosine",
) -> ray.data.Dataset:
    """Exact brute-force top-k per query vector → (query_id,
    neighbor_id, rank).

    `queries`: (vec_id, embedding) rows. Self-matches (same vec_id) are
    excluded. Ties break on neighbor_id ascending (deterministic).
    ``metric``: "cosine" (similarity desc) or "l2" (Euclidean distance
    asc — internally ranked by NEGATED squared distance, the same
    ordering as the sqrt'd distance, so no square roots in the
    dataflow)."""
    if metric not in ("cosine", "l2"):
        raise ValueError(f"unknown metric {metric!r}")
    qids, qmat = _emb_matrix(queries)
    qn = _norm_rows(qmat) if metric == "cosine" else qmat
    ref = ray.put((qids, qn)) if ray.is_initialized() else (qids, qn)

    def _partial(t: pa.Table) -> pa.Table:
        q_ids, q = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        ids, m = _emb_matrix(t)
        if metric == "cosine":
            s = q @ _norm_rows(m).T  # (Q, B)
        else:
            # direct -Σ(q−x)² (NOT the dot-product expansion: the
            # expansion's cancellation error can flip near-tie ranks vs
            # the oracle's direct sum; low-dim vectors make this cheap)
            s = -((q[:, None, :] - m[None, :, :]) ** 2).sum(axis=-1)
        out_q, out_n, out_s = [], [], []
        kk = min(k + 1, s.shape[1])  # +1 headroom for a self-match
        for qi in range(s.shape[0]):
            row = s[qi]
            top = np.argpartition(-row, kk - 1)[:kk] if kk < len(row) else np.arange(len(row))
            order = top[np.lexsort((ids[top], -row[top]))]
            for ni in order:
                if ids[ni] == q_ids[qi]:
                    continue
                out_q.append(q_ids[qi])
                out_n.append(ids[ni])
                out_s.append(row[ni])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    partial = emb.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)

    # merge input is O(n_queries × k × blocks) — tiny; one bucket shuffle
    return bucket_group_apply(
        partial, "query_id", lambda t: _merge_topk(t, k), num_buckets=8
    )


def ann_recall(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    seed: int = 13,
) -> ray.data.Dataset:
    """Self-evaluating retrieval: recall@k of the IVF index against the
    exact top-k, per query → (query_id, n_hits, k) with recall =
    n_hits/k left as consumer arithmetic (pure ints in the dataflow).
    The continuous index-quality monitor a production ANN deployment
    runs on a query sample — when recall drifts below target, re-train
    centroids or raise nprobe.

    Both retrievals run as their normal distributed stages; the compare
    is one co-grouped intersection count over (query_id, neighbor_id)
    pairs — O(queries·k) rows, trivially small. Invariant pinned in
    tests: nprobe = n_centroids ⇒ IVF ≡ exact ⇒ n_hits = k for every
    query that has k true neighbors."""
    import polars as pl

    exact = ann_topk(emb, queries, k=k)
    approx = ann_topk_ivf(
        emb,
        queries,
        k=k,
        n_centroids=n_centroids,
        nprobe=nprobe,
        seed=seed,
    )

    def _tag(name: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "query_id": t["query_id"],
                    "neighbor_id": t["neighbor_id"],
                    "src": pa.array([name] * t.num_rows, pa.string()),
                }
            )

        return _f

    both = exact.map_batches(
        _tag("e"), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        approx.map_batches(
            _tag("a"), batch_format="pyarrow", zero_copy_batch=True
        )
    )

    from ..functions.shuffle import bucket_group_apply

    def _score(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("query_id", pa.int64()),
                ("n_hits", pa.int64()),
                ("k", pa.int64()),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        df = pl.from_arrow(t)
        e = df.filter(pl.col("src") == "e").select(
            "query_id", "neighbor_id"
        )
        a = df.filter(pl.col("src") == "a").select(
            "query_id", "neighbor_id"
        )
        hits = (
            e.join(a, on=["query_id", "neighbor_id"], how="inner")
            .group_by("query_id")
            .agg(pl.len().cast(pl.Int64).alias("n_hits"))
        )
        return (
            e.group_by("query_id")
            .agg(pl.len().cast(pl.Int64).alias("k"))
            .join(hits, on="query_id", how="left")
            .select(
                pl.col("query_id").cast(pl.Int64),
                pl.col("n_hits").fill_null(0),
                pl.col("k"),
            )
            .to_arrow()
            .cast(out_schema)
        )

    return bucket_group_apply(both, "query_id", _score, num_buckets=4)


def ann_topk_ivf(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    seed: int = 13,
) -> ray.data.Dataset:
    """IVF-style ANN: bucket corpus by nearest of `n_centroids` seeded
    centroids; each query scans only its `nprobe` closest buckets.

    Centroids come from a HASH-STRATIFIED corpus sample — every block
    contributes rows whose ``stable_bucket(vec_id, M) == 0`` (M sized so
    the sample ≈ 8×n_centroids rows corpus-wide), so the seed set is
    unbiased w.r.t. block order (a ``limit(n)`` head would be first-blocks
    biased). A kmeans refinement drops in without changing the dataflow.
    """
    emb = emb.materialize()
    n_total = emb.count()
    target = n_centroids * 8
    mod = max(1, n_total // max(1, target))

    def _strat(t: pa.Table) -> pa.Table:
        # md5-60 stratification (was the pandas-hash stable_bucket):
        # the sample — and through it the centroid set, the bucket
        # layout and every probe decision — becomes a pure function of
        # the data that the DuckDB oracle recomputes (r4; the hash
        # family of schema.md5_60)
        from ..schema import md5_60

        b = md5_60(t["vec_id"].to_numpy(zero_copy_only=False)) % mod
        return t.filter(pa.array(b == 0))

    sample = emb.map_batches(
        _strat, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    if not sample:  # degenerate tiny corpus: fall back to the head
        sample = emb.limit(target).take_all()
    # deterministic seeded selection: order the sample by
    # md5-60(f"{seed}:{vec_id}") and take the first n_centroids — the
    # same unbiased-permutation effect the old np.random draw gave,
    # minus the RNG the oracle cannot replay
    from ..schema import md5_60

    samp_ids = np.array([r["vec_id"] for r in sample], dtype=np.int64)
    order = np.argsort(
        md5_60([f"{seed}:{v}" for v in samp_ids]), kind="stable"
    )
    cand = np.array([r["embedding"] for r in sample], dtype=np.float64)
    sel = order[: min(n_centroids, len(cand))]
    centroids = _norm_rows(cand[sel])
    cref = ray.put(centroids) if ray.is_initialized() else centroids

    def _assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        ids, m = _emb_matrix(t)
        mn = _norm_rows(m)
        bucket = np.argmax(mn @ c.T, axis=1)
        return pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int64), pa.int64()),
                "vec_id": t["vec_id"],
                "embedding": t["embedding"],
            }
        )

    bucketed = emb.map_batches(_assign, batch_format="pyarrow", zero_copy_batch=True)

    qids, qmat = _emb_matrix(queries)
    qn = _norm_rows(qmat)
    nprobe = min(nprobe, len(centroids))
    probe = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    qref = ray.put((qids, qn, probe)) if ray.is_initialized() else (qids, qn, probe)

    _PARTIAL = pa.schema(
        [
            ("query_id", pa.int64()),
            ("neighbor_id", pa.int64()),
            ("score", pa.float64()),
        ]
    )

    def _scan(tbl: pa.Table) -> pa.Table:
        # one reduce call may hold SEVERAL IVF buckets (hash-bucketed
        # shuffle); scan each distinct bucket against the queries probing it
        q_ids, q, pr = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref
        if not len(tbl):
            return _PARTIAL.empty_table()
        buckets = tbl["bucket"].to_numpy(zero_copy_only=False)
        out_q, out_n, out_s = [], [], []
        for bucket in np.unique(buckets):
            group = tbl.filter(pa.array(buckets == bucket))
            sel_q = [i for i in range(len(q_ids)) if bucket in pr[i]]
            if not sel_q:
                continue
            ids, m = _emb_matrix(group)
            s = q[sel_q] @ _norm_rows(m).T
            for row_i, qi in enumerate(sel_q):
                row = s[row_i]
                order = np.lexsort((ids, -row))[: k + 1]
                for ni in order:
                    if ids[ni] == q_ids[qi]:
                        continue
                    out_q.append(q_ids[qi])
                    out_n.append(ids[ni])
                    out_s.append(row[ni])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    partial = bucket_group_apply(
        bucketed, "bucket", _scan, num_buckets=min(n_centroids, 32)
    )
    return bucket_group_apply(
        partial, "query_id", lambda t: _merge_topk(t, k), num_buckets=8
    )


def knn_label(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    label_col: str = "label",
) -> ray.data.Dataset:
    """kNN classification over the embedding corpus: majority label of
    each query's exact cosine top-k neighbors (ties → smaller count
    label wins nothing: max count, then min label — deterministic).

    Composition: the distributed exact top-k scan (corpus never
    shuffles), then labels for ONLY the Q×k neighbor ids are fetched with
    a broadcast id-filter over the corpus (no join shuffle), and the
    vote runs on the Q×k-sized result.
    """
    import polars as pl

    topk = ann_topk(
        emb.select_columns(["vec_id", "embedding"]), queries, k=k
    ).materialize()  # Q×k rows — small
    nid = pc.unique(
        pa.concat_tables(
            [ray.get(r) for r in topk.to_arrow_refs()],
            promote_options="default",
        )["neighbor_id"]
    )
    ref = ray.put(nid) if ray.is_initialized() else nid

    def _labels(t: pa.Table) -> pa.Table:
        ids = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        keep = pc.is_in(t["vec_id"].combine_chunks(), value_set=ids)
        out = t.filter(keep)
        return out.select(["vec_id", label_col])

    lab = emb.select_columns(["vec_id", label_col]).map_batches(
        _labels, batch_format="pyarrow", zero_copy_batch=True
    )

    from ..functions.joins import join_auto

    joined = join_auto(topk, lab, on=("neighbor_id",), right_on=("vec_id",))

    def _vote(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = (
            df.group_by(["query_id", label_col])
            .agg(pl.len().alias("cnt"))
            .sort(["cnt", label_col], descending=[True, False])
            .group_by("query_id", maintain_order=True)
            .head(1)
        )
        return (
            out.select(
                pl.col("query_id"),
                pl.col(label_col).alias("knn_label"),
            )
            .to_arrow()
        )

    from ..functions.shuffle import bucket_group_apply

    return bucket_group_apply(joined, "query_id", _vote, num_buckets=4)


def embedding_dim_stats(
    emb: ray.data.Dataset, *, num_buckets: int = 4
) -> ray.data.Dataset:
    """Per-dimension corpus statistics of the embedding column — rows
    ``(dim, n, min_val, max_val)``. min/max are SELECTIONS (bit-exact,
    oracle-safe — the daily_rollup rule: no float arithmetic whose
    result depends on reduction order), n is the vector count.

    Fully decomposable: each block reduces its stacked vector matrix to
    one D-row partial via vectorized np.min/np.max/len; one tiny
    dim-bucketed merge. The corpus never shuffles — the feature-scaling
    precursor (normalization bounds) every embedding pipeline needs."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _partial(t: pa.Table) -> pa.Table:
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if m.size == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "min_val": pa.array([], pa.float64()),
                    "max_val": pa.array([], pa.float64()),
                }
            )
        d = m.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64)),
                "n": pa.array(np.full(d, m.shape[0], dtype=np.int64)),
                "min_val": pa.array(m.min(axis=0)),
                "max_val": pa.array(m.max(axis=0)),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("dim")
            .agg(
                pl.col("n").sum(),
                pl.col("min_val").min(),
                pl.col("max_val").max(),
            )
            .to_arrow()
        )

    partials = emb.select_columns(["embedding"]).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "dim", _merge, num_buckets=num_buckets)


# --- clustering -------------------------------------------------------------


def probe_matrix(n_probes: int, dim: int) -> np.ndarray:
    """Deterministic ±1 probe (centroid) matrix: probe j's coordinate i is
    +1 when bit j of i is 0, else −1 — equal-norm Hadamard-style rows, so
    argmax dot == argmax cosine. Integer-valued by construction."""
    i = np.arange(dim)
    return np.stack(
        [np.where((i >> j) & 1 == 0, 1, -1) for j in range(n_probes)]
    ).astype(np.int64)


def fixed_probe_assign(
    emb: ray.data.Dataset, *, n_probes: int = 4, scale: int = 1000
) -> ray.data.Dataset:
    """Assign every vector to its nearest fixed ±1 probe direction —
    (vec_id, cluster, score) where score is the winning INTEGER dot
    product. Vectors quantize to ``floor(x*scale + 0.5)`` int64 first, so
    the entire computation is exact integer arithmetic — bit-identical in
    any engine and reduction order (the oracle-safety rule: no float
    arithmetic through the compare). Ties break to the lowest probe id.

    The vector-quantization / nearest-fixed-centroid primitive (product-
    quantization codebook assignment, routing embeddings to IVF lists
    whose centroids shipped with the model). Stateless vectorized map:
    one integer matmul per block, nothing shuffles."""

    def _assign(t: pa.Table) -> pa.Table:
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if m.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                }
            )
        q = np.floor(m * scale + 0.5).astype(np.int64)
        p = probe_matrix(n_probes, q.shape[1])
        s = q @ p.T  # (B, n_probes) exact int64
        cl = np.argmax(s, axis=1)  # FIRST maximum → lowest probe id
        return pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "cluster": pa.array(cl.astype(np.int64)),
                "score": pa.array(s[np.arange(len(cl)), cl]),
            }
        )

    return emb.select_columns(["vec_id", "embedding"]).map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )


def kmeans_fixed_assignments(
    emb: ray.data.Dataset,
    *,
    k: int = 4,
    iters: int = 3,
    id_col: str = "vec_id",
    quant: int = 10**6,
) -> ray.data.Dataset:
    """Lloyd's k-means assignments in EXACT arithmetic — the
    bit-reproducible sibling of :func:`kmeans`, with the same broadcast
    dataflow (centroid state ships via ``ray.put`` each round, blocks
    emit k tiny integer partials, the corpus never shuffles) but no
    float anywhere that a reduction order could perturb:

    - coordinates quantize once to int64 (``floor(x·quant + 0.5)``,
      mirroring SQL ``floor``);
    - a centroid is the exact RATIONAL (Σ coords, count) — never
      divided; nearest-centroid comparisons cross-multiply
      ``D_j·n_l² <> D_l·n_j²`` in Python big ints (ties → smaller
      cluster id), so no quotient is ever rounded;
    - seeding is the k smallest md5-60(vec_id) (SQL-mirrorable, unlike
      the float path's pandas-hash seeding);
    - empty clusters carry their previous (Σ, n) state.

    The driver oracle unrolls the same ``iters`` rounds in HUGEINT SQL
    and matches hash-exactly. Costs one Python-int argmin per (vector,
    cluster) per round — the float path remains the raw-throughput
    mode; this is the verification-grade variant, the same trade the
    fixed-point PageRank family makes. Returns ``(vec_id, cluster)``."""
    # pin once: the seed pass, each Lloyd round and the final assign all
    # re-read the corpus — without this the lazy upstream pipeline would
    # re-execute iters+2 times (review r4)
    emb = emb.materialize()

    def _quant(t: pa.Table) -> np.ndarray:
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        return np.floor(m * quant + 0.5).astype(np.int64)

    def _seed_partial(t: pa.Table) -> pa.Table:
        from ..schema import md5_60

        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = md5_60(ids)
        top = np.argsort(h, kind="stable")[:k]
        mq = _quant(t)
        return pa.table(
            {
                "h": pa.array(h[top], pa.int64()),
                "xq": pa.array(
                    mq[top].tolist(), pa.list_(pa.int64())
                ),
            }
        )

    seeds = (
        emb.select_columns([id_col, "embedding"])
        .map_batches(
            _seed_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .to_pandas()
    )  # ≤ k × blocks small rows — documented tiny collect
    seeds = seeds.sort_values("h").head(k)
    s_mat = np.array(list(seeds["xq"]), dtype=object)  # k × d python ints
    n_vec = [1] * len(s_mat)

    def _argmin_int(mq: np.ndarray, s_mat, n_vec) -> np.ndarray:
        """Exact nearest rational centroid per row: D_j = ||n_j·x−s_j||²
        compared cross-multiplied — Python big ints end to end."""
        obj = mq.astype(object)
        kk = len(n_vec)
        ds = []
        for j in range(kk):
            diff = obj * n_vec[j] - s_mat[j][None, :]
            ds.append((diff * diff).sum(axis=1))
        best = np.zeros(len(obj), dtype=np.int64)
        bestD = ds[0]
        bestN2 = n_vec[0] * n_vec[0]
        for j in range(1, kk):
            n2 = n_vec[j] * n_vec[j]
            better = ds[j] * bestN2 < bestD * n2
            bestD = np.where(better, ds[j], bestD)
            bestN2 = np.where(better, n2, bestN2)
            best = np.where(better, j, best)
        return best

    for _ in range(iters):
        ref = (
            ray.put((s_mat, n_vec))
            if ray.is_initialized()
            else (s_mat, n_vec)
        )

        def _partial(t: pa.Table, _ref=ref) -> pa.Table:
            sm, nv = (
                ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            )
            mq = _quant(t)
            if mq.size == 0:
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "isum": pa.array([], pa.list_(pa.int64())),
                    }
                )
            a = _argmin_int(mq, sm, nv)
            kk, d = len(nv), mq.shape[1]
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            sums = np.zeros((kk, d), np.int64)
            np.add.at(sums, a, mq)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(kk, dtype=np.int64)),
                    "n": pa.array(counts),
                    "isum": pa.array(sums.tolist(), pa.list_(pa.int64())),
                }
            )

        parts = (
            emb.select_columns(["embedding"])
            .map_batches(
                _partial, batch_format="pyarrow", zero_copy_batch=True
            )
            .to_pandas()
        )  # k × blocks tiny rows, pure ints — fold order irrelevant
        new_s = [s_mat[j] for j in range(len(n_vec))]
        new_n = list(n_vec)
        for cl, grp in parts.groupby("cluster"):
            n = int(grp["n"].sum())
            if n:
                tot = np.zeros_like(s_mat[int(cl)], dtype=object)
                for v in grp["isum"]:
                    tot = tot + np.asarray(v, dtype=object)
                new_s[int(cl)] = tot
                new_n[int(cl)] = n
        s_mat = np.array(new_s, dtype=object)
        n_vec = new_n

    final_ref = (
        ray.put((s_mat, n_vec)) if ray.is_initialized() else (s_mat, n_vec)
    )

    def _assign(t: pa.Table) -> pa.Table:
        sm, nv = (
            ray.get(final_ref)
            if isinstance(final_ref, ray.ObjectRef)
            else final_ref
        )
        mq = _quant(t)
        if mq.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "vec_id": t[id_col].cast(pa.int64()),
                "cluster": pa.array(
                    _argmin_int(mq, sm, nv), pa.int64()
                ),
            }
        )

    return emb.select_columns([id_col, "embedding"]).map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )


def kmeans(
    emb: ray.data.Dataset,
    *,
    k: int = 8,
    iters: int = 5,
    id_col: str = "vec_id",
) -> tuple[np.ndarray, ray.data.Dataset]:
    """Distributed Lloyd's k-means over the embedding column →
    (centroids ndarray, assignments Dataset ``(vec_id, cluster)``).

    The iterative-algorithm pattern (SURVEY §2.2 CC family, applied to
    floats): centroids BROADCAST via ``ray.put`` each round; each block
    emits k partial rows (cluster, count, float64 coordinate sums) — the
    corpus never shuffles and never leaves the object store; the driver
    folds k×blocks tiny partials into new centroids (empty clusters keep
    their previous centroid). Init is deterministic: the k vectors with
    the smallest stable hash of ``vec_id`` (layout-independent seeding).
    Centroid floats are reduction-order-dependent in the last ulps, so
    queries over this op are rows-only; cluster RECOVERY on separated
    data is the pytest-pinned contract."""
    from ..schema import stable_hash64

    def _seed_partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash64(ids)
        top = np.argsort(h, kind="stable")[:k]
        return pa.table(
            {
                "h": pa.array(h[top].astype(np.uint64), pa.uint64()),
                "embedding": t["embedding"].take(
                    pa.array(top, pa.int64())
                ),
            }
        )

    seeds = emb.select_columns([id_col, "embedding"]).map_batches(
        _seed_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # ≤ k × blocks small rows — documented tiny collect
    seeds = seeds.sort_values("h").head(k)
    centroids = np.array(list(seeds["embedding"]), dtype=np.float64)

    for _ in range(iters):
        ref = (
            ray.put(centroids) if ray.is_initialized() else centroids
        )

        def _partial(t: pa.Table, _ref=ref) -> pa.Table:
            c = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
            kk, d = c.shape
            if m.size == 0:
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.float64())),
                    }
                )
            # ||x-c||² argmin == argmax(c·x − ||c||²/2): one matmul
            s = m @ c.T - 0.5 * np.einsum("ij,ij->i", c, c)
            a = np.argmin(-s, axis=1)
            counts = np.bincount(a, minlength=kk).astype(np.int64)
            sums = np.zeros((kk, d))
            np.add.at(sums, a, m)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(kk, dtype=np.int64)),
                    "n": pa.array(counts),
                    "vsum": pa.array(sums.tolist(), pa.list_(pa.float64())),
                }
            )

        parts = emb.select_columns(["embedding"]).map_batches(
            _partial, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # k × blocks tiny rows
        new = centroids.copy()
        for cl, grp in parts.groupby("cluster"):
            n = int(grp["n"].sum())
            if n:
                new[cl] = np.sum(
                    np.stack([np.asarray(v) for v in grp["vsum"]]), axis=0
                ) / n
        centroids = new

    final_ref = ray.put(centroids) if ray.is_initialized() else centroids

    def _assign(t: pa.Table) -> pa.Table:
        c = (
            ray.get(final_ref)
            if isinstance(final_ref, ray.ObjectRef)
            else final_ref
        )
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if m.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                }
            )
        s = m @ c.T - 0.5 * np.einsum("ij,ij->i", c, c)
        return pa.table(
            {
                "vec_id": t[id_col].cast(pa.int64()),
                "cluster": pa.array(np.argmax(s, axis=1).astype(np.int64)),
            }
        )

    assigns = emb.select_columns([id_col, "embedding"]).map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )
    return centroids, assigns


def embedding_cov_stats(
    emb: ray.data.Dataset,
    *,
    dims: int = 4,
    scale: int = 1000,
    num_buckets: int = 4,
) -> ray.data.Dataset:
    """Exact integer covariance SUFFICIENT STATISTICS over the first
    ``dims`` embedding coordinates — rows ``(i, j, n, sum_i, sum_j,
    sum_ij)`` for 1-based i ≤ j. The one-pass decomposable-moments
    pattern behind covariance/PCA at corpus scale: each block reduces
    its stacked matrix to one dims×dims int64 partial (a matmul), so
    ~dims² ints move per block and the corpus never shuffles; the
    eigensolve over the final dims×dims matrix is driver arithmetic.

    Coordinates quantize to ``floor(x·scale + 0.5)`` int64 (the
    fixed_probe_assign convention) so every sum is reduction-order-free
    and the SQL mirror compares bit-exact. Overflow headroom: |q| ≤
    scale·|x|, so Σ q_i·q_j fits int64 for corpora under ~10¹² rows at
    unit-norm embeddings."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    iu = np.triu_indices(dims)

    def _partial(t: pa.Table) -> pa.Table:
        m = np.array(t["embedding"].to_pylist(), dtype=np.float32).astype(
            np.float64
        )
        if m.size == 0:
            z = np.empty(0, dtype=np.int64)
            return pa.table(
                {"i": z, "j": z, "n": z, "sum_i": z, "sum_j": z, "sum_ij": z}
            )
        q = np.floor(m[:, :dims] * scale + 0.5).astype(np.int64)
        s = q.sum(axis=0)  # per-dim sums
        prod = q.T @ q  # dims×dims int64 cross-products
        return pa.table(
            {
                "i": pa.array(iu[0] + 1, pa.int64()),
                "j": pa.array(iu[1] + 1, pa.int64()),
                "n": pa.array(np.full(len(iu[0]), len(q)), pa.int64()),
                "sum_i": pa.array(s[iu[0]], pa.int64()),
                "sum_j": pa.array(s[iu[1]], pa.int64()),
                "sum_ij": pa.array(prod[iu], pa.int64()),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["i", "j"])
            .agg(
                pl.col("n").sum(),
                pl.col("sum_i").sum(),
                pl.col("sum_j").sum(),
                pl.col("sum_ij").sum(),
            )
            .select(["i", "j", "n", "sum_i", "sum_j", "sum_ij"])
            .to_arrow()
            .cast(
                pa.schema(
                    [
                        ("i", pa.int64()),
                        ("j", pa.int64()),
                        ("n", pa.int64()),
                        ("sum_i", pa.int64()),
                        ("sum_j", pa.int64()),
                        ("sum_ij", pa.int64()),
                    ]
                )
            )
        )

    partials = emb.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "i", _merge, num_buckets=num_buckets)


def rrf_fusion(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k_each: int = 20,
    k_out: int = 10,
    rrf_k: int = 60,
) -> ray.data.Dataset:
    """Reciprocal-rank fusion of two exact retrieval rankings (cosine
    and Euclidean) over the same query set → ``(query_id, neighbor_id,
    rrf_pts, rank)``, top ``k_out`` fused per query.

    The standard hybrid-retrieval merge (Cormack et al.: RRF
    outperforms either ranking alone): each ranking contributes
    ``1/(rrf_k + rank)`` for its top ``k_each``; here the contribution
    is the EXACT integer ``1_000_000 // (rrf_k + rank)`` so the fused
    scores — and the DuckDB oracle compare — are float-free. Ties on
    fused points break on neighbor_id ascending.

    Dataflow: both rankings are already O(n_queries × k) after their
    own partial-top-k merges, so fusion is a union of two tiny ranked
    lists + one bucketed per-query merge — the corpus is scanned twice
    (once per metric), never joined."""
    import polars as pl

    r_cos = ann_topk(emb, queries, k=k_each, metric="cosine")
    r_l2 = ann_topk(emb, queries, k=k_each, metric="l2")

    def _pts(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "query_id": t["query_id"],
                "neighbor_id": t["neighbor_id"],
                "pts": pa.array(1_000_000 // (rrf_k + r), pa.int64()),
            }
        )

    both = r_cos.map_batches(
        _pts, batch_format="pyarrow", zero_copy_batch=True
    ).union(r_l2.map_batches(_pts, batch_format="pyarrow", zero_copy_batch=True))

    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("neighbor_id", pa.int64()),
            ("rrf_pts", pa.int64()),
            ("rank", pa.int64()),
        ]
    )

    def _fuse(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by(["query_id", "neighbor_id"])
            .agg(pl.col("pts").sum().alias("rrf_pts"))
            .sort(
                ["query_id", "rrf_pts", "neighbor_id"],
                descending=[False, True, False],
            )
            .with_columns(
                (pl.int_range(pl.len()).over("query_id") + 1).alias("rank")
            )
            .filter(pl.col("rank") <= k_out)
            .select(["query_id", "neighbor_id", "rrf_pts", "rank"])
            .to_arrow()
            .cast(out_schema)
        )

    return bucket_group_apply(both, "query_id", _fuse, num_buckets=4).sort(
        ["query_id", "rank"]
    )


def lexical_topk(
    docs: ray.data.Dataset,
    query_terms: tuple[str, ...],
    *,
    k: int = 20,
) -> ray.data.Dataset:
    """Lexical retrieval baseline next to the embedding paths: score
    every document by the total number of its whitespace tokens equal to
    any query term (exact integer term frequency) plus the count of
    DISTINCT query terms it contains, and return the global top-k by
    ``(score DESC, n_terms DESC, doc_id ASC)`` — rows ``(doc_id,
    score:int64, n_terms:int64)``. This is the candidate-generation /
    keyword-search half of a retrieval stack; `ann_topk` is the dense
    half. Integer scores make the DuckDB mirror exact (BM25/TF-IDF keep
    their float variants in `tfidf`, rows-only).

    Dataflow: a stateless vectorized scan scores each block and keeps
    only its LOCAL top-k (the global top-k is a subset of the union of
    per-block top-ks), so the final sort sees O(k × blocks) rows no
    matter the corpus size; non-matching docs never leave their block."""
    import polars as pl

    terms = list(query_terms)
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("score", pa.int64()),
            ("n_terms", pa.int64()),
        ]
    )

    def _score_block(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        toks = (
            pl.from_arrow(t.select(["doc_id", "text"]))
            .with_columns(pl.col("text").str.extract_all(r"\S+").alias("t"))
            .explode("t")
            .filter(pl.col("t").is_in(terms))
        )
        if not toks.height:
            return out_schema.empty_table()
        return (
            toks.group_by("doc_id")
            .agg(
                pl.len().cast(pl.Int64).alias("score"),
                pl.col("t").n_unique().cast(pl.Int64).alias("n_terms"),
            )
            .sort(
                ["score", "n_terms", "doc_id"],
                descending=[True, True, False],
            )
            .head(k)
            .to_arrow()
            .cast(out_schema)
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .sort(
                ["score", "n_terms", "doc_id"],
                descending=[True, True, False],
            )
            .head(k)
            .to_arrow()
            .cast(out_schema)
        )

    partial = docs.map_batches(
        _score_block, batch_format="pyarrow", zero_copy_batch=True
    )
    # single-reducer merge sees only O(k x blocks) rows and keeps the
    # output schema even for a no-match result (empty blocks are typed —
    # VERDICT r2 empty-block rule), unlike ds.sort().limit() which drops
    # every block of an empty dataset
    return bucket_group_apply(partial, "score", _merge, num_buckets=1)


# --- product quantization (the memory-bound ANN scale path) -----------------


def pq_train(
    emb: ray.data.Dataset,
    *,
    m: int = 8,
    ksub: int = 16,
    iters: int = 5,
    id_col: str = "vec_id",
) -> np.ndarray:
    """Train product-quantization codebooks (Jégou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI 2011) — the vector
    space splits into ``m`` subspaces and each learns its own
    ``ksub``-centroid codebook, so a d-float vector compresses to m
    small codes (16× at d=64, m=8, ksub≤256) while distances remain
    computable from per-subspace lookup tables.

    Returns ``(m, ksub, d/m)`` float64 codebooks. ALL m subspace
    k-means run in the SAME corpus pass per Lloyd iteration: each block
    emits m×ksub partial (subspace, cluster, n, coordinate-sum) rows —
    the corpus never shuffles, mirroring :func:`kmeans`. Vectors are
    L2-normalized first (cosine metric, matching :func:`ann_topk`).
    Seeding is deterministic (smallest stable hash of ``id_col``).
    Float centroids are reduction-order-dependent in the last ulps →
    anything downstream is rows-only in the driver contract."""
    from ..schema import stable_hash64

    def _seed_partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash64(ids)
        top = np.argsort(h, kind="stable")[:ksub]
        return pa.table(
            {
                "h": pa.array(h[top].astype(np.uint64), pa.uint64()),
                "embedding": t["embedding"].take(pa.array(top, pa.int64())),
            }
        )

    seeds = (
        emb.select_columns([id_col, "embedding"])
        .map_batches(_seed_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # ≤ ksub × blocks rows — documented tiny collect
        .sort_values("h")
        .head(ksub)
    )
    seed_mat = _norm_rows(np.array(list(seeds["embedding"]), dtype=np.float64))
    d = seed_mat.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    # (m, ksub, dsub): every subspace starts from the same seed vectors'
    # corresponding slice
    books = np.stack(
        [seed_mat[:, s * dsub : (s + 1) * dsub] for s in range(m)]
    )

    for _ in range(iters):
        ref = ray.put(books) if ray.is_initialized() else books

        def _partial(t: pa.Table, _ref=ref) -> pa.Table:
            c = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            mm, kk, ds_ = c.shape
            x = np.array(t["embedding"].to_pylist(), dtype=np.float64)
            if x.size == 0:
                return pa.table(
                    {
                        "sub": pa.array([], pa.int64()),
                        "cluster": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.float64())),
                    }
                )
            x = _norm_rows(x)
            subs, clus, ns, vs = [], [], [], []
            for s in range(mm):
                xs = x[:, s * ds_ : (s + 1) * ds_]
                cs = c[s]
                d2 = (
                    np.einsum("ij,ij->i", xs, xs)[:, None]
                    - 2.0 * xs @ cs.T
                    + np.einsum("ij,ij->i", cs, cs)[None, :]
                )
                a = np.argmin(d2, axis=1)
                counts = np.bincount(a, minlength=kk).astype(np.int64)
                sums = np.zeros((kk, ds_))
                np.add.at(sums, a, xs)
                subs.append(np.full(kk, s, dtype=np.int64))
                clus.append(np.arange(kk, dtype=np.int64))
                ns.append(counts)
                vs.append(sums)
            return pa.table(
                {
                    "sub": pa.array(np.concatenate(subs)),
                    "cluster": pa.array(np.concatenate(clus)),
                    "n": pa.array(np.concatenate(ns)),
                    "vsum": pa.array(
                        np.concatenate(vs).tolist(), pa.list_(pa.float64())
                    ),
                }
            )

        parts = (
            emb.select_columns(["embedding"])
            .map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
            .to_pandas()  # m × ksub × blocks tiny rows
        )
        new = books.copy()
        for (s, cl), grp in parts.groupby(["sub", "cluster"]):
            n = int(grp["n"].sum())
            if n:
                new[s, cl] = (
                    np.sum(np.stack([np.asarray(v) for v in grp["vsum"]]), axis=0)
                    / n
                )
        books = new
    return books


def pq_encode(
    emb: ray.data.Dataset,
    codebooks: np.ndarray,
    *,
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Encode every (normalized) vector to its m nearest-subcentroid
    codes → ``(vec_id, codes list<uint8>)`` — one stateless vectorized
    map, 16× smaller than the float column it replaces."""
    ref = ray.put(codebooks) if ray.is_initialized() else codebooks

    def _enc(t: pa.Table) -> pa.Table:
        c = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        mm, kk, ds_ = c.shape
        x = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if x.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "codes": pa.array([], pa.list_(pa.uint8())),
                }
            )
        x = _norm_rows(x)
        codes = np.empty((x.shape[0], mm), dtype=np.uint8)
        for s in range(mm):
            xs = x[:, s * ds_ : (s + 1) * ds_]
            cs = c[s]
            d2 = (
                np.einsum("ij,ij->i", xs, xs)[:, None]
                - 2.0 * xs @ cs.T
                + np.einsum("ij,ij->i", cs, cs)[None, :]
            )
            codes[:, s] = np.argmin(d2, axis=1).astype(np.uint8)
        return pa.table(
            {
                "vec_id": t[id_col].cast(pa.int64()),
                "codes": pa.array(codes.tolist(), pa.list_(pa.uint8())),
            }
        )

    return emb.select_columns([id_col, "embedding"]).map_batches(
        _enc, batch_format="pyarrow", zero_copy_batch=True
    )


def pq_ann_topk(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    m: int = 8,
    ksub: int = 16,
    iters: int = 5,
) -> ray.data.Dataset:
    """Asymmetric-distance (ADC) PQ top-k → (query_id, neighbor_id,
    rank): the corpus is scanned as uint8 codes, each query builds one
    (m × ksub) inner-product lookup table against the codebooks, and a
    block's scores are m table lookups per vector instead of a d-float
    matmul — the memory-bound regime where PQ beats brute force at
    100 TB (the whole index is ~m bytes/vector in plasma). Merge is the
    same O(queries × k × blocks) partial-top-k exchange as
    :func:`ann_topk`. Approximate by construction → rows-only."""
    books = pq_train(emb, m=m, ksub=ksub, iters=iters)
    codes = pq_encode(emb, books)

    qids, qmat = _emb_matrix(queries)
    qn = _norm_rows(qmat)
    mm, kk, ds_ = books.shape
    # (Q, m, ksub) lookup tables: LUT[q, s, c] = q_s · book[s, c]
    lut = np.einsum(
        "qsd,scd->qsc", qn.reshape(qn.shape[0], mm, ds_), books
    )
    ref = ray.put((qids, lut)) if ray.is_initialized() else (qids, lut)

    def _scan(t: pa.Table) -> pa.Table:
        q_ids, tables = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        if not t.num_rows:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        cd = np.array(t["codes"].to_pylist(), dtype=np.int64)  # (B, m)
        # scores[q, b] = Σ_s LUT[q, s, cd[b, s]]
        s = tables[:, np.arange(cd.shape[1])[None, :], cd].sum(axis=2)
        out_q, out_n, out_s = [], [], []
        kk_ = min(k + 1, s.shape[1])
        for qi in range(s.shape[0]):
            row = s[qi]
            top = (
                np.argpartition(-row, kk_ - 1)[:kk_]
                if kk_ < len(row)
                else np.arange(len(row))
            )
            order = top[np.lexsort((ids[top], -row[top]))]
            for ni in order:
                if ids[ni] == q_ids[qi]:
                    continue
                out_q.append(q_ids[qi])
                out_n.append(ids[ni])
                out_s.append(row[ni])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    partial = codes.map_batches(
        _scan, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "query_id", lambda t: _merge_topk(t, k), num_buckets=8
    )


def pq_recall(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    m: int = 8,
    ksub: int = 16,
    iters: int = 5,
) -> ray.data.Dataset:
    """Recall@k of the PQ/ADC index vs the exact top-k, per query →
    (query_id, n_hits, k) — same integer-only monitor shape as
    :func:`ann_recall`, for the PQ index."""
    import polars as pl

    exact = ann_topk(emb, queries, k=k)
    approx = pq_ann_topk(emb, queries, k=k, m=m, ksub=ksub, iters=iters)

    def _tag(name: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "query_id": t["query_id"],
                    "neighbor_id": t["neighbor_id"],
                    "src": pa.array([name] * t.num_rows, pa.string()),
                }
            )

        return _f

    both = exact.map_batches(
        _tag("e"), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        approx.map_batches(
            _tag("a"), batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def _score(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("query_id", pa.int64()),
                ("n_hits", pa.int64()),
                ("k", pa.int64()),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        df = pl.from_arrow(t)
        e = df.filter(pl.col("src") == "e").select("query_id", "neighbor_id")
        a = df.filter(pl.col("src") == "a").select("query_id", "neighbor_id")
        hits = (
            e.join(a, on=["query_id", "neighbor_id"], how="inner")
            .group_by("query_id")
            .agg(pl.len().cast(pl.Int64).alias("n_hits"))
        )
        return (
            e.group_by("query_id")
            .agg(pl.len().cast(pl.Int64).alias("k"))
            .join(hits, on="query_id", how="left")
            .select(
                pl.col("query_id").cast(pl.Int64),
                pl.col("n_hits").fill_null(0),
                pl.col("k"),
            )
            .to_arrow()
            .cast(out_schema)
        )

    return bucket_group_apply(both, "query_id", _score, num_buckets=4)


_RP_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("out_dim", pa.int64()),
        ("value", pa.int64()),
    ]
)


def _rp_signs(dim: int, k: int) -> np.ndarray:
    """Deterministic ±1 sign matrix (dim × k): entry (i, j) is +1 when
    the first hex char of md5("j:i") is even (i is 1-based to match the
    SQL mirror's range(1, len+1)). Seedless-but-fixed, so any engine —
    including the DuckDB oracle — reproduces it bit-for-bit."""
    import hashlib

    even = set("02468ace")
    s = np.empty((dim, k), dtype=np.int64)
    for j in range(k):
        for i in range(1, dim + 1):
            h = hashlib.md5(f"{j}:{i}".encode()).hexdigest()[0]
            s[i - 1, j] = 1 if h in even else -1
    return s


def random_projection(
    embeddings: ray.data.Dataset,
    *,
    k: int = 8,
    scale: int = 1000,
) -> ray.data.Dataset:
    """Signed random projection (Johnson–Lindenstrauss / SimHash-family
    dimensionality reduction) of the embedding column to ``k`` dims —
    IN EXACT INTEGER ARITHMETIC: components quantize to int64 at
    ``scale`` (round half-away-from-zero, SQL's ``round``), the ±1
    sign matrix derives from md5 so every engine regenerates it, and
    the output is the exact int64 matmul ``Q @ S`` in long format
    ``(vec_id, out_dim, value)``. The sketch preserves cosine geometry
    in expectation (Achlioptas-style signs) while being hash-exact
    against a SQL oracle — the property the rest of this repo's
    embedding family (LSH dedup, IVF probes) is built on.

    Stateless vectorized map — no shuffle anywhere: each batch reshapes
    the list column zero-copy to (n, dim), quantizes, multiplies by the
    (dim × k) broadcast-free constant matrix (md5 of dim·k strings,
    memoized per process), and emits n·k long rows.
    """
    def _rp(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _RP_SCHEMA.empty_table()
        ids, mat = _emb_matrix(t)
        y = mat.astype(np.float64) * scale
        q = np.trunc(y + np.copysign(0.5, y)).astype(np.int64)
        # dim·k md5 calls (~512) per batch — noise next to the matmul;
        # a cross-process memo would have to pickle, not worth it
        s = _rp_signs(mat.shape[1], k)
        out = q @ s  # exact: |out| <= dim * scale * max|x|, far under 2^63
        n = len(ids)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, k), pa.int64()),
                "out_dim": pa.array(np.tile(np.arange(k), n), pa.int64()),
                "value": pa.array(out.ravel(), pa.int64()),
            }
        )

    return embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        _rp, batch_format="pyarrow", zero_copy_batch=True
    )


# --- exact-integer product quantization (VERDICT r4 #3) --------------------
#
# The float pq_train/pq_ann_topk above stay as the raw-throughput mode;
# this family is the verification-grade variant (the kmeans_fixed /
# fixed-point-PageRank trade): coordinates quantize once to int64,
# every sub-codebook centroid is an exact RATIONAL (Σ coords, count)
# that is never divided, nearest-subcentroid compares cross-multiply in
# Python big ints, and the ADC lookup table is floored to a common
# integer scale — so codes, scores and top-k are bit-reproducible
# across block layouts and replayable move-for-move by the DuckDB
# oracle (HUGEINT + `//`).

PQ_SCALE = 10**3  # ADC LUT fixed-point scale (floor((A*SCALE)//n²))


def _argmin_rational(mq: np.ndarray, s_list, n_list) -> np.ndarray:
    """Exact nearest rational centroid per row of int64 ``mq``:
    D_j = ‖n_j·x − s_j‖² compared cross-multiplied (D_j·n_l² <> D_l·n_j²)
    in Python big ints; ties → smaller cluster id. The same rule as
    kmeans_fixed_assignments, hoisted for the per-subspace PQ loops."""
    obj = mq.astype(object)
    kk = len(n_list)
    ds = []
    for j in range(kk):
        diff = obj * n_list[j] - s_list[j][None, :]
        ds.append((diff * diff).sum(axis=1))
    best = np.zeros(len(obj), dtype=np.int64)
    bestD = ds[0]
    bestN2 = n_list[0] * n_list[0]
    for j in range(1, kk):
        n2 = n_list[j] * n_list[j]
        better = ds[j] * bestN2 < bestD * n2
        bestD = np.where(better, ds[j], bestD)
        bestN2 = np.where(better, n2, bestN2)
        best = np.where(better, j, best)
    return best


def _quant_block(t: pa.Table, quant: int) -> np.ndarray:
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    if m.size == 0:
        return m.reshape(0, 0).astype(np.int64)
    return np.floor(m * quant + 0.5).astype(np.int64)


def pq_train_exact(
    emb: ray.data.Dataset,
    *,
    m: int = 8,
    ksub: int = 16,
    iters: int = 3,
    id_col: str = "vec_id",
    quant: int = 10**6,
):
    """Exact-arithmetic PQ codebooks: every subspace runs the
    kmeans_fixed_assignments Lloyd's (rational centroids, md5-60
    seeding, cross-multiplied integer argmin) — ALL m subspaces in the
    same corpus pass per round, per-block integer partials, centroid
    state broadcast via ``ray.put``; the corpus never shuffles (the
    pq_train dataflow with the float arithmetic swapped out).

    Returns ``(s_mat, n_vec, dsub)``: ``s_mat[s][c]`` an object-int
    Σ-coordinates vector, ``n_vec[s][c]`` its member count."""
    emb = emb.materialize()

    def _seed_partial(t: pa.Table) -> pa.Table:
        from ..schema import md5_60

        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = md5_60(ids)
        top = np.lexsort((ids, h))[:ksub]
        mq = _quant_block(t, quant)
        return pa.table(
            {
                "h": pa.array(h[top], pa.int64()),
                "vid": pa.array(ids[top], pa.int64()),
                "xq": pa.array(mq[top].tolist(), pa.list_(pa.int64())),
            }
        )

    seeds = (
        emb.select_columns([id_col, "embedding"])
        .map_batches(
            _seed_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .to_pandas()  # ≤ ksub × blocks small rows — documented tiny collect
        .sort_values(["h", "vid"])
        .head(ksub)
    )
    if not len(seeds):
        raise ValueError(
            "pq_train_exact: empty embedding corpus — nothing to train"
        )
    seed_mat = np.array(list(seeds["xq"]), dtype=object)  # ≤ksub × d
    # fewer distinct vectors than ksub: clamp (the float pq_train
    # shape-derives the same way, and the SQL oracle's `rn <= ksub`
    # seed CTE clamps identically — review r5)
    ksub = min(ksub, len(seed_mat))
    d = seed_mat.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    s_mat = [
        [
            np.array(seed_mat[c, s * dsub : (s + 1) * dsub], dtype=object)
            for c in range(ksub)
        ]
        for s in range(m)
    ]
    n_vec = [[1] * ksub for _ in range(m)]

    empty_partial = pa.schema(
        [
            ("sub", pa.int64()),
            ("cluster", pa.int64()),
            ("n", pa.int64()),
            ("isum", pa.list_(pa.int64())),
        ]
    )

    for _ in range(iters):
        ref = (
            ray.put((s_mat, n_vec))
            if ray.is_initialized()
            else (s_mat, n_vec)
        )

        def _partial(t: pa.Table, _ref=ref) -> pa.Table:
            sm, nv = (
                ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
            )
            xq = _quant_block(t, quant)
            if xq.size == 0:
                return empty_partial.empty_table()
            subs, clus, ns, isums = [], [], [], []
            for s in range(m):
                xs = xq[:, s * dsub : (s + 1) * dsub]
                a = _argmin_rational(xs, sm[s], nv[s])
                counts = np.bincount(a, minlength=ksub).astype(np.int64)
                sums = np.zeros((ksub, dsub), dtype=np.int64)
                np.add.at(sums, a, xs)
                subs.append(np.full(ksub, s, dtype=np.int64))
                clus.append(np.arange(ksub, dtype=np.int64))
                ns.append(counts)
                isums.append(sums)
            return pa.table(
                {
                    "sub": pa.array(np.concatenate(subs)),
                    "cluster": pa.array(np.concatenate(clus)),
                    "n": pa.array(np.concatenate(ns)),
                    "isum": pa.array(
                        np.concatenate(isums).tolist(), pa.list_(pa.int64())
                    ),
                }
            )

        parts = (
            emb.select_columns(["embedding"])
            .map_batches(
                _partial, batch_format="pyarrow", zero_copy_batch=True
            )
            .to_pandas()  # m × ksub × blocks tiny integer rows
        )
        for (s, cl), grp in parts.groupby(["sub", "cluster"]):
            n = int(grp["n"].sum())
            if n:  # empty clusters keep their previous (Σ, n) state
                tot = np.zeros(dsub, dtype=object)
                for v in grp["isum"]:
                    tot = tot + np.array(v, dtype=object)
                s_mat[int(s)][int(cl)] = tot
                n_vec[int(s)][int(cl)] = n
    return s_mat, n_vec, dsub


def pq_encode_exact(
    emb: ray.data.Dataset,
    books,
    *,
    id_col: str = "vec_id",
    quant: int = 10**6,
) -> ray.data.Dataset:
    """Exact codes: per subspace, argmin over rational centroids
    (cross-multiplied) → ``(vec_id, codes list<uint8>)``; stateless map
    with the codebooks broadcast once."""
    s_mat, n_vec, dsub = books
    m = len(s_mat)
    ref = ray.put((s_mat, n_vec)) if ray.is_initialized() else (s_mat, n_vec)

    def _enc(t: pa.Table) -> pa.Table:
        sm, nv = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        xq = _quant_block(t, quant)
        if xq.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "codes": pa.array([], pa.list_(pa.uint8())),
                }
            )
        codes = np.empty((xq.shape[0], m), dtype=np.uint8)
        for s in range(m):
            xs = xq[:, s * dsub : (s + 1) * dsub]
            codes[:, s] = _argmin_rational(xs, sm[s], nv[s]).astype(
                np.uint8
            )
        return pa.table(
            {
                "vec_id": t[id_col].cast(pa.int64()),
                "codes": pa.array(codes.tolist(), pa.list_(pa.uint8())),
            }
        )

    return emb.select_columns([id_col, "embedding"]).map_batches(
        _enc, batch_format="pyarrow", zero_copy_batch=True
    )


_TOPK_INT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("neighbor_id", pa.int64()),
        ("score", pa.int64()),
    ]
)


def _topk_total_order(row: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Indices of the ``kk`` smallest entries under the TOTAL order
    (score asc, id asc). A bare ``argpartition(row, kk-1)[:kk]`` picks
    an ARBITRARY subset of entries tied at the boundary score, which
    breaks the bit-reproducible / layout-independent contract of the
    exact-integer top-k paths (review r5) — so partition only to find
    the boundary value, then lexsort every candidate at-or-below it."""
    n = len(row)
    if kk >= n:
        cand = np.arange(n)
    else:
        part = np.argpartition(row, kk - 1)
        thresh = row[part[kk - 1]]
        cand = np.flatnonzero(row <= thresh)
    return cand[np.lexsort((ids[cand], row[cand]))][:kk]


def _merge_topk_asc(t: pa.Table, k: int) -> pa.Table:
    """Per-query merge of partial integer-DISTANCE rows: k smallest
    (score asc, neighbor_id asc) → (query_id, neighbor_id, rank)."""
    import polars as pl

    if not len(t):
        return _TOPK_SCHEMA.empty_table()
    out = (
        pl.from_arrow(t)
        .sort(["query_id", "score", "neighbor_id"])
        .with_columns(
            (pl.int_range(pl.len()).over("query_id") + 1).alias("rank")
        )
        .filter(pl.col("rank") <= k)
        .select(["query_id", "neighbor_id", "rank"])
    )
    return out.to_arrow().cast(_TOPK_SCHEMA)


def pq_ann_topk_exact(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    m: int = 8,
    ksub: int = 16,
    iters: int = 3,
    quant: int = 10**6,
    scale: int = PQ_SCALE,
) -> ray.data.Dataset:
    """ADC PQ top-k in EXACT integer arithmetic → (query_id,
    neighbor_id, rank): the LUT entry for (query, sub, cluster) is
    ``(‖n·q_s − s_s‖² · scale) // n²`` (floored to the common scale —
    the deterministic integer contract BOTH the engine and the DuckDB
    oracle compute), a vector's distance is the sum of its m code
    lookups (int64, bound-checked), ranking is (score asc,
    neighbor_id asc) minus self. Same scan shape as the float
    pq_ann_topk: uint8 codes stream, LUT broadcasts, per-block top-k
    partials merge in one bucket shuffle."""
    books = pq_train_exact(
        emb, m=m, ksub=ksub, iters=iters, quant=quant
    )
    s_mat, n_vec, dsub = books
    codes = pq_encode_exact(emb, books, quant=quant)

    qids = np.asarray(queries["vec_id"].to_pylist(), dtype=np.int64)
    qq = _quant_block(queries, quant)
    ksub = len(s_mat[0])  # trainer clamps when |corpus| < ksub
    lut = np.empty((len(qids), m, ksub), dtype=np.int64)
    for s in range(m):
        qs = qq[:, s * dsub : (s + 1) * dsub].astype(object)
        for c in range(ksub):
            n = n_vec[s][c]
            diff = qs * n - s_mat[s][c][None, :]
            A = (diff * diff).sum(axis=1)  # big ints, exact
            val = (A * scale) // (n * n)
            if int(val.max(initial=0)) * m >= 2**63:
                raise OverflowError(
                    "PQ LUT overflow: raise quant granularity or lower scale"
                )
            lut[:, s, c] = val.astype(np.int64)
    ref = ray.put((qids, lut)) if ray.is_initialized() else (qids, lut)

    def _scan(t: pa.Table) -> pa.Table:
        q_ids, tables = (
            ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        )
        if not t.num_rows:
            return _TOPK_INT_SCHEMA.empty_table()
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        cd = np.array(t["codes"].to_pylist(), dtype=np.int64)  # (B, m)
        s = tables[:, np.arange(cd.shape[1])[None, :], cd].sum(axis=2)
        out_q, out_n, out_s = [], [], []
        kk_ = min(k + 1, s.shape[1])
        for qi in range(s.shape[0]):
            row = s[qi]
            order = _topk_total_order(row, ids, kk_)
            for ni in order:
                if ids[ni] == q_ids[qi]:
                    continue
                out_q.append(q_ids[qi])
                out_n.append(ids[ni])
                out_s.append(row[ni])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.int64()),
            }
        )

    partial = codes.map_batches(
        _scan, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "query_id", lambda t: _merge_topk_asc(t, k), num_buckets=8
    )


def l2_topk_int(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    quant: int = 10**6,
) -> ray.data.Dataset:
    """EXACT integer-L2 brute-force top-k over int64-quantized
    coordinates → (query_id, neighbor_id, rank) — the deterministic
    ground truth the exact-PQ recall monitor compares against (the
    float ann_topk's quantized sibling; distances Σ(qx−x)² fit int64 at
    the documented magnitudes, checked: OverflowError)."""
    qids = np.asarray(queries["vec_id"].to_pylist(), dtype=np.int64)
    qq = _quant_block(queries, quant)
    ref = ray.put((qids, qq)) if ray.is_initialized() else (qids, qq)

    def _scan(t: pa.Table) -> pa.Table:
        q_ids, qm = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        if not t.num_rows:
            return _TOPK_INT_SCHEMA.empty_table()
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        xq = _quant_block(t, quant)
        # Σ(qx−x)² must fit int64 — bound from the ACTUAL quantized
        # magnitudes (a quant-only bound misses |x| > 1 coordinate
        # ranges and would let the einsum wrap silently — review r5)
        mx = max(
            int(np.abs(xq).max(initial=0)), int(np.abs(qm).max(initial=0))
        )
        if 4 * mx * mx * xq.shape[1] >= 2**63:
            raise OverflowError(
                "l2_topk_int: quantized coordinates too large for int64 "
                "distances — lower `quant`"
            )
        out_q, out_n, out_s = [], [], []
        kk_ = min(k + 1, xq.shape[0])
        for qi in range(qm.shape[0]):
            diff = xq - qm[qi][None, :]
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = _topk_total_order(d2, ids, kk_)
            for ni in order:
                if ids[ni] == q_ids[qi]:
                    continue
                out_q.append(q_ids[qi])
                out_n.append(ids[ni])
                out_s.append(int(d2[ni]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "score": pa.array(out_s, pa.int64()),
            }
        )

    partial = emb.select_columns(["vec_id", "embedding"]).map_batches(
        _scan, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "query_id", lambda t: _merge_topk_asc(t, k), num_buckets=8
    )


def pq_recall_exact(
    emb: ray.data.Dataset,
    queries: pa.Table,
    *,
    k: int = 5,
    m: int = 8,
    ksub: int = 16,
    iters: int = 3,
    quant: int = 10**6,
) -> ray.data.Dataset:
    """Recall@k of the EXACT-integer PQ index vs the exact integer-L2
    top-k, per query → (query_id, n_hits, k): both sides deterministic,
    so (unlike the float pq_recall) the whole monitor is oracle-exact.
    Queries with zero hits still emit their row."""
    import polars as pl

    exact = l2_topk_int(emb, queries, k=k, quant=quant)
    approx = pq_ann_topk_exact(
        emb, queries, k=k, m=m, ksub=ksub, iters=iters, quant=quant
    )

    def _tag(name: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "query_id": t["query_id"],
                    "neighbor_id": t["neighbor_id"],
                    "src": pa.array([name] * t.num_rows, pa.string()),
                }
            )

        return _f

    both = exact.map_batches(
        _tag("e"), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        approx.map_batches(
            _tag("a"), batch_format="pyarrow", zero_copy_batch=True
        )
    )

    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("n_hits", pa.int64()),
            ("k", pa.int64()),
        ]
    )

    def _score(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        df = pl.from_arrow(t)
        e = df.filter(pl.col("src") == "e").select(
            "query_id", "neighbor_id"
        )
        a = df.filter(pl.col("src") == "a").select(
            "query_id", "neighbor_id"
        )
        hits = (
            e.join(a, on=["query_id", "neighbor_id"], how="inner")
            .group_by("query_id")
            .agg(pl.len().alias("n_hits"))
        )
        mine = sorted(set(df["query_id"].to_list()))
        base = pl.DataFrame(
            {"query_id": mine},
            schema={"query_id": pl.Int64},
        )
        out = (
            base.join(hits, on="query_id", how="left")
            .with_columns(
                pl.col("n_hits").fill_null(0),
                pl.lit(k).cast(pl.Int64).alias("k"),
            )
            .sort("query_id")
        )
        return out.to_arrow().cast(out_schema)

    return bucket_group_apply(both, "query_id", _score, num_buckets=4)
