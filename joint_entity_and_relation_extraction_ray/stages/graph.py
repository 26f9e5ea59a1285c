"""Graph materialize: canonical triples and mention rows → deduplicated
node/edge Parquet tables partitioned by entity-id hash (SURVEY.md §2.2
G1/G2/S4; BASELINE.json:6 "graph materialize emits deduplicated node/edge
Parquet tables partitioned by entity-id hash"). Their inputs come from the
fused dataflow (stages/fused.py ``rewritten_from_tagged`` /
``node_rows_from_tagged``).

Shuffle discipline:
- edge dedup (G1) pre-aggregates INSIDE map_batches (per-batch
  (subj, pred, obj) counts + ts min/max) before the global groupby, so the
  shuffle moves one row per distinct edge per block, not one per triple —
  the partial/combiner pattern that keeps hot predicates from melting a
  reducer;
- the write partition key is `part = stable_hash(entity_id) % num_parts`
  (S4), reused for both nodes (entity_id) and edges (subj_id) so a
  downstream consumer co-locates a node with its out-edges.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


from ..functions.joins import join_auto
from ..schema import EDGES, NODES, stable_bucket
from .canonical import default_partitions

DEFAULT_WRITE_PARTS = 64


def _edge_combiner(batch: pa.Table) -> pa.Table:
    """Per-batch partial: one row per distinct (subj_id, pred, obj_id)."""
    agg = batch.group_by(["subj_id", "pred", "obj_id"]).aggregate(
        [("ts", "count"), ("ts", "min"), ("ts", "max")]
    )
    return agg.select(
        ["subj_id", "pred", "obj_id", "ts_count", "ts_min", "ts_max"]
    ).rename_columns(["subj_id", "pred", "obj_id", "cnt", "first_ts", "last_ts"])


def build_edges(
    rewritten: ray.data.Dataset,
    *,
    num_buckets: int = DEFAULT_WRITE_PARTS,
) -> ray.data.Dataset:
    """G1: dedup identical triples → weighted edges with ts range (T6).

    Per-block combiner (≤ one row per distinct edge per block) then a
    single subj_id-bucketed shuffle with a vectorized polars reduction —
    the combiner caps a hot predicate's fan-in at the block count.
    ``num_buckets`` is the hash space of the shuffle and of ``part`` =
    ``stable_bucket(subj_id, num_buckets)``, the write layout; the
    shuffle sizes its reduce task count to the session."""
    from ..functions.shuffle import bucket_group_apply

    partial = rewritten.map_batches(
        _edge_combiner, batch_format="pyarrow", zero_copy_batch=True
    )

    def _reduce(t: pa.Table) -> pa.Table:
        import polars as pl

        agg = (
            pl.from_arrow(t)
            .group_by(["subj_id", "pred", "obj_id"])
            .agg(
                pl.col("cnt").sum().alias("weight"),
                pl.col("first_ts").min(),
                pl.col("last_ts").max(),
            )
        )
        out = agg.to_arrow()
        part = pa.array(
            stable_bucket(
                out["subj_id"].to_numpy(zero_copy_only=False), num_buckets
            ),
            pa.int32(),
        )
        return pa.table(
            {
                "subj_id": out["subj_id"],
                "pred": out["pred"],
                "obj_id": out["obj_id"],
                "weight": pc.cast(out["weight"], pa.int64()),
                "first_ts": out["first_ts"],
                "last_ts": out["last_ts"],
                "part": part,
            }
        ).cast(EDGES)

    return bucket_group_apply(partial, "subj_id", _reduce, num_buckets=num_buckets)


def node_rollup(
    rows: ray.data.Dataset,
    entity_names: dict[str, str] | "ray.ObjectRef",
    *,
    num_buckets: int = DEFAULT_WRITE_PARTS,
) -> ray.data.Dataset:
    """G2 rollup over (canonical_id, surface, ent_type) rows → T5 NODES.

    ``num_buckets`` sets ``part`` = ``stable_bucket(entity_id,
    num_buckets)``, the write layout, not the reduce task count."""

    # partial combiner: distinct (canonical_id, surface, ent_type) + count
    def _partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["canonical_id", "surface", "ent_type"]).aggregate(
            [("surface", "count")]
        )
        return agg.select(
            ["canonical_id", "surface", "ent_type", "surface_count"]
        ).rename_columns(["canonical_id", "surface", "ent_type", "cnt"])

    from ..functions.shuffle import bucket_group_apply

    partial = rows.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
    ref = ray.put(entity_names) if (
        ray.is_initialized() and not isinstance(entity_names, ray.ObjectRef)
    ) else entity_names

    def _reduce(t: pa.Table) -> pa.Table:
        import polars as pl

        names = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        agg = (
            pl.from_arrow(t)
            .group_by("canonical_id")
            .agg(
                pl.col("cnt").sum().alias("mention_count"),
                pl.col("surface").unique().sort().alias("aliases"),
                pl.col("ent_type").min(),
            )
        )
        out = agg.to_arrow()
        eids = out["canonical_id"].to_pylist()
        aliases = out["aliases"].to_pylist()
        disp = [
            names.get(e) or (al[0] if al else e)
            for e, al in zip(eids, aliases)
        ]
        part = pa.array(stable_bucket(eids, num_buckets), pa.int32())
        return pa.table(
            {
                "entity_id": pa.array(eids, pa.string()),
                "canonical_name": pa.array(disp, pa.string()),
                "ent_type": out["ent_type"],
                "mention_count": pc.cast(out["mention_count"], pa.int64()),
                "aliases": pa.array(aliases, pa.list_(pa.string())),
                "part": part,
            }
        ).cast(NODES)

    return bucket_group_apply(
        partial, "canonical_id", _reduce, num_buckets=num_buckets
    )


def write_graph(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    out_dir: str,
) -> None:
    """S4: partitioned parquet write — one directory per `part` bucket so a
    rerun can skip finished partitions and a consumer can prune by key
    range (SURVEY.md §4.4 'resumable output'). A graph with no rows (a
    corpus that names no entity) is written as one 0-row file of its
    schema, so it still reads back."""
    from ..state.checkpoint import write_parquet

    write_parquet(nodes, f"{out_dir}/nodes", NODES, partition_cols=["part"])
    write_parquet(edges, f"{out_dir}/edges", EDGES, partition_cols=["part"])


TWO_HOP = pa.schema(
    [
        ("pred1", pa.string()),
        ("pred2", pa.string()),
        ("n_paths", pa.int64()),
    ]
)


def two_hop_pred_counts(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Graph path query over the materialized KG: count the 2-hop edge
    pairs ``a -pred1-> b -pred2-> c`` per (pred1, pred2).

    One co-bucketed shuffle joins the edge table to ITSELF on the hop
    vertex (left bucketed by ``obj_id``, right by ``subj_id`` — same
    stable hash, so every hop vertex's in/out edges co-locate), each
    bucket aggregates to at most |preds|² partial rows, and a tiny
    second shuffle sums the partials — the path set itself is never
    materialized anywhere.
    """
    import polars as pl

    from ..functions.shuffle import bucket_group_apply, cobucket_apply

    left = edges.select_columns(["pred", "obj_id"])
    right = edges.select_columns(["subj_id", "pred"])

    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ldf = pl.from_arrow(lt).rename({"pred": "pred1"})
        rdf = pl.from_arrow(rt).rename({"pred": "pred2"})
        out = (
            ldf.join(rdf, left_on="obj_id", right_on="subj_id")
            .group_by(["pred1", "pred2"])
            .agg(pl.len().cast(pl.Int64).alias("n_paths"))
        )
        return out.select(["pred1", "pred2", "n_paths"]).to_arrow().cast(TWO_HOP)

    partials = cobucket_apply(
        left,
        right,
        lambda t: t["obj_id"].combine_chunks(),
        lambda t: t["subj_id"].combine_chunks(),
        _join,
        num_buckets=num_buckets,
    )

    def _with_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_gkey",
            pc.binary_join_element_wise(t["pred1"], t["pred2"], "\x00"),
        )

    def _merge(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.drop_columns(["_gkey"]))
        out = df.group_by(["pred1", "pred2"]).agg(
            pl.col("n_paths").sum().alias("n_paths")
        )
        return out.to_arrow().cast(TWO_HOP)

    keyed = partials.map_batches(
        _with_key, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(keyed, "_gkey", _merge, num_buckets=4)


TEMPORAL_TWO_HOP = pa.schema(
    [
        ("pred1", pa.string()),
        ("pred2", pa.string()),
        ("n_paths", pa.int64()),
        ("n_temporal", pa.int64()),
    ]
)


def temporal_two_hop_counts(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """TIME-RESPECTING 2-hop path counts: per (pred1, pred2), the number
    of paths ``a -pred1-> b -pred2-> c`` and, of those, how many are
    *temporally traversable* — the first hop's earliest assertion
    (``first_ts``) is no later than the second hop's earliest assertion.
    The ratio is the KG-quality signal "do relation chains appear in
    causal order in the corpus?" (a Kill edge asserted before its
    Located_In chain reads differently from one asserted after).

    Same dataflow as :func:`two_hop_pred_counts` — one co-bucketed
    self-join on the hop vertex, |preds|²-sized per-bucket partials, a
    tiny merge — with the temporal predicate evaluated vectorized inside
    the bucket kernel; the int64 ``first_ts`` rides the shuffle, the
    path set never materializes.
    """
    import polars as pl

    from ..functions.shuffle import bucket_group_apply, cobucket_apply

    left = edges.select_columns(["pred", "obj_id", "first_ts"])
    right = edges.select_columns(["subj_id", "pred", "first_ts"])

    def _join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ldf = pl.from_arrow(lt).rename(
            {"pred": "pred1", "first_ts": "ts1"}
        )
        rdf = pl.from_arrow(rt).rename(
            {"pred": "pred2", "first_ts": "ts2"}
        )
        out = (
            ldf.join(rdf, left_on="obj_id", right_on="subj_id")
            .group_by(["pred1", "pred2"])
            .agg(
                pl.len().cast(pl.Int64).alias("n_paths"),
                (pl.col("ts1") <= pl.col("ts2"))
                .sum()
                .cast(pl.Int64)
                .alias("n_temporal"),
            )
        )
        return (
            out.select(["pred1", "pred2", "n_paths", "n_temporal"])
            .to_arrow()
            .cast(TEMPORAL_TWO_HOP)
        )

    partials = cobucket_apply(
        left,
        right,
        lambda t: t["obj_id"].combine_chunks(),
        lambda t: t["subj_id"].combine_chunks(),
        _join,
        num_buckets=num_buckets,
    )

    def _with_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_gkey",
            pc.binary_join_element_wise(t["pred1"], t["pred2"], "\x00"),
        )

    def _merge(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.drop_columns(["_gkey"]))
        out = df.group_by(["pred1", "pred2"]).agg(
            pl.col("n_paths").sum().alias("n_paths"),
            pl.col("n_temporal").sum().alias("n_temporal"),
        )
        return out.to_arrow().cast(TEMPORAL_TWO_HOP)

    keyed = partials.map_batches(
        _with_key, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(keyed, "_gkey", _merge, num_buckets=4)


def pagerank(
    edges: ray.data.Dataset,
    *,
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 32,
    seeds: list[str] | None = None,
    weight_col: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 5,
    fixed_point: bool = False,
    scale: int = 10**12,
) -> ray.data.Dataset:
    """PageRank over the materialized KG edge table → (node, rank).

    ``fixed_point=True`` switches every rank to EXACT int64 arithmetic in
    units of 1/``scale`` (parts-per-10¹²  by default): init =
    ``scale // n``, per-edge contribution ``rank·w // Σw`` (integer floor
    division), update ``(d·Σc + d·(d_mass//n) + (100−d)·(scale//n)) // 100``
    with ``d = round(damping·100)``. Integer sums are order-independent,
    so the result is bit-reproducible across block layouts, engines and
    runs — which is what makes the driver's string-sensitive value hash
    and a DuckDB recursive-CTE oracle (``oracle_sql()['kg_pagerank']``)
    exactly reproducible, something the float path can never guarantee
    (float Σ depends on reduction order). Ranking quality is unaffected:
    quantization error per update is < n/scale of total mass. The float
    path (default) remains the numpy-oracle-pinned reference
    implementation; both share the identical dataflow below.

    ``checkpoint_dir`` enables WITHIN-STAGE resume (state/checkpoint.py
    iterative checkpoints): every ``checkpoint_every`` iterations the
    rank vector snapshots atomically to parquet; a rerun pointing at the
    same directory resumes from the newest snapshot whose parameter
    fingerprint (damping/seeds/weight_col — NOT iters, so a longer run
    legally extends a shorter one's state) matches, instead of
    restarting at iteration 0. The caller scopes the directory to the
    input edge set — edge Datasets have no cheap content digest.

    ``weight_col`` switches to WEIGHTED PageRank: each source splits its
    rank over out-edges proportionally to the edge weight (the KG's
    assertion multiplicity) instead of uniformly — out-degree becomes
    out-weight-sum, contribution becomes rank·w/Σw, same dataflow and
    cost. ``weight_col=None`` is byte-identical to the uniform op.

    Iterative distributed dataflow mirroring the CC loop's shape: the
    edge list (with per-source out-degree attached) is materialized ONCE;
    each iteration is one join (ranks onto edge sources — broadcast while
    ranks are small, shuffle join at scale via ``join_auto``) plus one
    bucket-shuffle sum over destinations. Dangling-node mass is
    redistributed uniformly each round (the standard correction), so
    total rank stays 1. Ranks are float64 — deterministic up to
    float-sum ordering, verified against a dense numpy oracle in tests.

    ``seeds`` switches to PERSONALIZED PageRank (the "entities related
    to X" serving query): all teleport mass — the (1−d) restart AND the
    dangling correction — lands on the seed set (split uniformly across
    it) instead of the whole node universe. Same dataflow, same cost per
    iteration; only the per-node teleport constant changes (seeds ride
    into the reduce as a broadcast ``is_in`` set — they are O(1) ids).
    The ``seeds=None`` path is byte-identical to uniform PageRank."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    if fixed_point:
        d_num, d_den = int(round(damping * 100)), 100
        if abs(damping - d_num / d_den) > 1e-12:
            raise ValueError(
                "fixed_point pagerank needs damping at 0.01 granularity"
            )

    ends = edges.map_batches(
        lambda t: pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nodes = bucket_group_apply(
        ends,
        "node",
        lambda t: pa.table(
            {"node": pc.unique(t["node"].combine_chunks())}
        ),
        num_buckets=num_buckets,
    ).materialize()
    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "rank": pa.array(
                        [], pa.int64() if fixed_point else pa.float64()
                    ),
                }
            )
        )

    deg_dtype = pl.Int64 if fixed_point else pl.Float64
    if weight_col is None:
        deg = bucket_group_apply(
            edges.select_columns(["subj_id"]),
            "subj_id",
            lambda t, dt=deg_dtype: pl.from_arrow(t)
            .group_by("subj_id")
            .agg(pl.len().cast(dt).alias("out_deg"))
            .to_arrow(),
            num_buckets=num_buckets,
        )
    else:
        deg = bucket_group_apply(
            edges.select_columns(["subj_id", weight_col]),
            "subj_id",
            lambda t, w=weight_col, dt=deg_dtype: pl.from_arrow(t)
            .group_by("subj_id")
            .agg(pl.col(w).cast(dt).sum().alias("out_deg"))
            .to_arrow(),
            num_buckets=num_buckets,
        )

    # (src, dst, out_deg[, w]) materialized once, reused every iteration
    e_cols = ["subj_id", "obj_id"] + (
        [weight_col] if weight_col is not None else []
    )

    def _e_proj(t: pa.Table, w=weight_col) -> pa.Table:
        cols = {
            "src": t["subj_id"],
            "dst": t["obj_id"],
            "out_deg": t["out_deg"],
        }
        if w is not None:
            cols["w"] = pc.cast(
                t[w], pa.int64() if fixed_point else pa.float64()
            )
        return pa.table(cols)

    e = (
        join_auto(
            edges.select_columns(e_cols),
            deg,
            on=("subj_id",),
        )
        .map_batches(
            _e_proj,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    # dangling nodes: in `nodes` but not a source of any edge
    src_nodes = deg.select_columns(["subj_id"])
    dangling = join_auto(
        nodes,
        src_nodes.map_batches(
            lambda t: pa.table(
                {
                    "node": t["subj_id"],
                    "_m": pa.array([1] * len(t), pa.int8()),
                }
            ),
            batch_format="pyarrow",
        ),
        join_type="left_outer",
        on=("node",),
    ).map_batches(
        lambda t: t.filter(pc.is_null(t["_m"].combine_chunks())).select(
            ["node"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    init_rank = (scale // n) if fixed_point else (1.0 / n)
    rank_type = pa.int64() if fixed_point else pa.float64()
    ranks = nodes.map_batches(
        lambda t: t.append_column(
            "rank", pa.array([init_rank] * len(t), rank_type)
        ),
        batch_format="pyarrow",
    ).materialize()

    start_iter, ck_fp = 0, None
    if checkpoint_dir is not None:
        from ..state import checkpoint as ckpt

        ck_params = {
            "damping": damping,
            "seeds": seeds,
            "weight_col": weight_col,
        }
        if fixed_point:  # float-mode fingerprints stay unchanged
            ck_params["fixed_point_scale"] = scale
        ck_fp = ckpt.fingerprint("pagerank", ck_params, [])
        got = ckpt.latest_iteration(checkpoint_dir, "pagerank", ck_fp)
        if got is not None:
            start_iter, snap = got
            ranks = ray.data.read_parquet(snap).materialize()

    for _it in range(start_iter, iters):
        d_mass = (
            join_auto(dangling, ranks, on=("node",)).sum("rank")
            if dangling.count()
            else 0.0
        ) or 0.0
        if fixed_point:
            d_mass = int(d_mass)
        def _contrib(t: pa.Table, w=weight_col) -> pa.Table:
            num = (
                t["rank"]
                if w is None
                else pc.multiply(t["rank"], t["w"])
            )
            return pa.table(
                {"node": t["dst"], "c": pc.divide(num, t["out_deg"])}
            )

        contrib = join_auto(e, ranks, on=("src",), right_on=("node",)).map_batches(
            _contrib,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if fixed_point and seeds is None:
            # t_num/d_den is the per-node teleport share; the whole
            # update is integer floor arithmetic, mirrored term-for-term
            # by the DuckDB recursive-CTE oracle (__ray_entry__).
            t_num = d_num * (d_mass // n) + (d_den - d_num) * (scale // n)

            def _sum(t: pa.Table, t_num=t_num) -> pa.Table:
                df = pl.from_arrow(t)
                out = df.group_by("node").agg(
                    ((pl.col("c").sum() * d_num + t_num) // d_den).alias(
                        "rank"
                    )
                )
                return out.to_arrow()

            def _fill(t: pa.Table, base=t_num // d_den) -> pa.Table:
                return pa.table(
                    {
                        "node": t["node"],
                        "rank": pc.coalesce(
                            t["rank"], pa.scalar(base, pa.int64())
                        ),
                    }
                )

        elif fixed_point:
            seed_base = ((d_den - d_num) * scale + d_num * d_mass) // (
                d_den * len(seeds)
            )

            def _sum(t: pa.Table, seed_base=seed_base) -> pa.Table:
                df = pl.from_arrow(t)
                out = df.group_by("node").agg(
                    ((pl.col("c").sum() * d_num) // d_den).alias("rank")
                )
                return out.with_columns(
                    (
                        pl.col("rank")
                        + pl.when(pl.col("node").is_in(seeds))
                        .then(pl.lit(seed_base, dtype=pl.Int64))
                        .otherwise(pl.lit(0, dtype=pl.Int64))
                    ).alias("rank")
                ).to_arrow()

            def _fill(t: pa.Table, seed_base=seed_base) -> pa.Table:
                node = t["node"].combine_chunks()
                fallback = pc.if_else(
                    pc.is_in(
                        node, value_set=pa.array(seeds, node.type)
                    ),
                    pa.scalar(seed_base, pa.int64()),
                    pa.scalar(0, pa.int64()),
                )
                return pa.table(
                    {
                        "node": node,
                        "rank": pc.coalesce(
                            t["rank"].combine_chunks(), fallback
                        ),
                    }
                )

        elif seeds is None:
            base = (1.0 - damping) / n + damping * d_mass / n

            def _sum(t: pa.Table, base=base) -> pa.Table:
                df = pl.from_arrow(t)
                out = df.group_by("node").agg(
                    (pl.col("c").sum() * damping + base).alias("rank")
                )
                return out.to_arrow()

            def _fill(t: pa.Table, base=base) -> pa.Table:
                return pa.table(
                    {
                        "node": t["node"],
                        "rank": pc.coalesce(
                            t["rank"], pa.scalar(base, pa.float64())
                        ),
                    }
                )

        else:
            # personalized: ALL teleport mass restarts on the seed set
            seed_base = ((1.0 - damping) + damping * d_mass) / len(seeds)

            def _sum(t: pa.Table, seed_base=seed_base) -> pa.Table:
                df = pl.from_arrow(t)
                out = df.group_by("node").agg(
                    (pl.col("c").sum() * damping).alias("rank")
                )
                return out.with_columns(
                    (
                        pl.col("rank")
                        + pl.when(pl.col("node").is_in(seeds))
                        .then(pl.lit(seed_base))
                        .otherwise(pl.lit(0.0))
                    ).alias("rank")
                ).to_arrow()

            def _fill(t: pa.Table, seed_base=seed_base) -> pa.Table:
                node = t["node"].combine_chunks()
                fallback = pc.if_else(
                    pc.is_in(
                        node, value_set=pa.array(seeds, node.type)
                    ),
                    pa.scalar(seed_base, pa.float64()),
                    pa.scalar(0.0, pa.float64()),
                )
                return pa.table(
                    {
                        "node": node,
                        "rank": pc.coalesce(
                            t["rank"].combine_chunks(), fallback
                        ),
                    }
                )

        summed = bucket_group_apply(
            contrib, "node", _sum, num_buckets=num_buckets
        )
        # nodes with no in-edges get only their teleport share
        ranks = (
            join_auto(
                nodes,
                summed,
                join_type="left_outer",
                on=("node",),
            )
            .map_batches(
                _fill,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .materialize()
        )
        if (
            checkpoint_dir is not None
            and (_it + 1) % checkpoint_every == 0
        ):
            from ..state import checkpoint as ckpt

            ckpt.save_iteration(
                checkpoint_dir, "pagerank", _it + 1, ranks, ck_fp
            )
    return ranks


def katz_centrality(
    edges: ray.data.Dataset,
    *,
    hops: int = 6,
    alpha_shift: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Truncated Katz centrality in EXACT integers — rows ``(node,
    katz_q)`` with ``katz_q = Σ_{k=1..hops} walks_k(v) >> (alpha_shift·k)``
    where ``walks_k(v)`` is the int64 count of length-k directed walks
    ENDING at v (Katz 1953; attenuation α = 2^-alpha_shift applied as a
    per-term right shift, so every term is an integer and the sum is
    reduction-order-independent → bit-reproducible, DuckDB-oracle-exact
    with no float anywhere). The walk-based influence measure that,
    unlike PageRank, needs no out-degree division — each iteration is
    ONE join + ONE bucket sum of int64 walk counts over the same
    skeleton as :func:`pagerank`.

    Overflow bound (documented, not checked): walks_k ≤ Δ_in^k, so
    int64 holds through hops=6 for max in-degree ≤ ~860; KGs beyond
    that want a larger ``alpha_shift`` applied IN-LOOP (shift the
    carried vector each round) — the truncated-sum shape is unchanged."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    e = edges.map_batches(
        lambda t: pa.table({"src": t["subj_id"], "dst": t["obj_id"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    nodes = bucket_group_apply(
        e.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            t["src"].combine_chunks(),
                            t["dst"].combine_chunks(),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "node",
        lambda t: pa.table({"node": pc.unique(t["node"].combine_chunks())}),
        num_buckets=num_buckets,
    ).materialize()
    if nodes.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "katz_q": pa.array([], pa.int64()),
                }
            )
        )

    walks = nodes.map_batches(
        lambda t: t.append_column(
            "w", pa.array([1] * len(t), pa.int64())
        ),
        batch_format="pyarrow",
    ).materialize()
    acc = nodes.map_batches(
        lambda t: t.append_column(
            "katz_q", pa.array([0] * len(t), pa.int64())
        ),
        batch_format="pyarrow",
    ).materialize()

    for k in range(1, hops + 1):
        contrib = join_auto(e, walks, on=("src",), right_on=("node",)).map_batches(
            lambda t: pa.table({"node": t["dst"], "w": t["w"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

        def _sum(t: pa.Table) -> pa.Table:
            return (
                pl.from_arrow(t)
                .group_by("node")
                .agg(pl.col("w").sum())
                .to_arrow()
            )

        summed = bucket_group_apply(
            contrib, "node", _sum, num_buckets=num_buckets
        )
        walks = (
            join_auto(nodes, summed, join_type="left_outer", on=("node",))
            .map_batches(
                lambda t: pa.table(
                    {
                        "node": t["node"],
                        "w": pc.coalesce(
                            t["w"], pa.scalar(0, pa.int64())
                        ),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .materialize()
        )
        shift = alpha_shift * k

        def _acc(t: pa.Table, shift=shift) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"],
                    "katz_q": pc.add(
                        t["katz_q"],
                        pc.shift_right(t["w"], pa.scalar(shift, pa.int64())),
                    ),
                }
            )

        acc = join_auto(acc, walks, on=("node",)).map_batches(
            _acc, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    return acc


def hits(
    edges: ray.data.Dataset,
    *,
    iters: int = 10,
    num_buckets: int = 32,
    fixed_point: bool = False,
    scale: int = 10**12,
) -> ray.data.Dataset:
    """HITS hubs & authorities over the directed KG edge table →
    (node, hub, authority). The complementary centrality to PageRank for
    a knowledge graph: authorities are entities many hub entities assert
    facts ABOUT (popular objects), hubs are entities whose assertions
    point at good authorities (prolific, well-connected subjects).

    Same iterative dataflow skeleton as :func:`pagerank`: the distinct
    edge list materializes ONCE (multi-edges collapse — standard HITS is
    over the unweighted adjacency); each round is two join+bucket-sum
    passes (a = Eᵀh then h = E·a) followed by L2 normalization, whose
    Σx² reduces through the same decomposable sum (a scalar reaches the
    driver, never the vectors). Scores are float64, deterministic up to
    float-sum ordering; verified against a dense numpy power-iteration
    oracle in tests.

    ``fixed_point=True`` switches to EXACT int64 arithmetic (scores in
    1/``scale`` units): init hub = ``scale``, propagation is a plain
    integer sum, and normalization divides by ``D = ceil(T/scale)``
    (T = Σ raw scores) — an L1-style rescale chosen so no intermediate
    exceeds int64 (raw ≤ E·scale) and the whole iteration is mirrorable
    term-for-term by the DuckDB recursive-CTE oracle
    (``oracle_sql()['kg_hits']``). Integer sums are reduction-order-
    independent → bit-reproducible across engines and block layouts;
    the D-divisor rounds slightly differently from true v·scale/T but
    identically on both sides, and relative score ordering matches the
    float path to quantization error."""
    import math

    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    e = bucket_group_apply(
        edges.map_batches(
            lambda t: pa.table(
                {"src": t["subj_id"], "dst": t["obj_id"]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "src",
        lambda t: pl.from_arrow(t).unique().to_arrow(),
        num_buckets=num_buckets,
    ).materialize()

    ends = e.map_batches(
        lambda t: pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t["src"].combine_chunks(),
                        t["dst"].combine_chunks(),
                    ]
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nodes = bucket_group_apply(
        ends,
        "node",
        lambda t: pa.table({"node": pc.unique(t["node"].combine_chunks())}),
        num_buckets=num_buckets,
    ).materialize()
    score_t = pa.int64() if fixed_point else pa.float64()
    if nodes.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "hub": pa.array([], score_t),
                    "authority": pa.array([], score_t),
                }
            )
        )

    def _ones(col: str):
        one = scale if fixed_point else 1.0

        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"],
                    col: pa.array([one] * len(t), score_t),
                }
            )

        return _f

    def _propagate(scores, score_col, from_col, to_col, out_col):
        """out(v) = Σ_{(from,to)∈E, to=v} score(from), then normalize
        (L2 on the float path; exact ``// ceil(T/scale)`` rescale on the
        fixed-point path)."""
        summed = bucket_group_apply(
            join_auto(
                e, scores, on=(from_col,), right_on=("node",)
            ).map_batches(
                lambda t: pa.table(
                    {"node": t[to_col], "s": t[score_col]}
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            "node",
            lambda t: pl.from_arrow(t)
            .group_by("node")
            .agg(pl.col("s").sum().alias(out_col))
            .to_arrow(),
            num_buckets=num_buckets,
        )
        # every node keeps a row (zero for no in-contributions)
        zero = pa.scalar(0, pa.int64()) if fixed_point else pa.scalar(
            0.0, pa.float64()
        )
        full = join_auto(
            nodes, summed, join_type="left_outer", on=("node",)
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    out_col: pc.coalesce(t[out_col], zero),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        if fixed_point:
            total = int(full.sum(out_col) or 0)
            if total == 0:
                return full
            div = (total + scale - 1) // scale
            return full.map_batches(
                lambda t: pa.table(
                    {
                        "node": t["node"],
                        out_col: pc.divide(
                            t[out_col], pa.scalar(div, pa.int64())
                        ),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize()
        norm = math.sqrt(
            full.map_batches(
                lambda t: pa.table(
                    {
                        "ss": pa.array(
                            [
                                pc.sum(
                                    pc.multiply(t[out_col], t[out_col])
                                ).as_py()
                                or 0.0
                            ],
                            pa.float64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            ).sum("ss")
            or 0.0
        )
        if norm == 0.0:
            return full
        return full.map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    out_col: pc.divide(
                        t[out_col], pa.scalar(norm, pa.float64())
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()

    hubs = nodes.map_batches(_ones("hub"), batch_format="pyarrow").materialize()
    auths = nodes
    for _ in range(iters):
        auths = _propagate(hubs, "hub", "src", "dst", "authority")
        hubs = _propagate(auths, "authority", "dst", "src", "hub")

    return join_auto(hubs, auths, on=("node",)).map_batches(
        lambda t: t.select(["node", "hub", "authority"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def hyperball(
    edges: ray.data.Dataset,
    *,
    hops: int = 4,
    p: int = 10,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """HyperBall (Boldi & Vigna): per-node reachability-ball cardinality
    |{w : dist(v→w) ≤ hops}| estimated with HyperLogLog counters →
    ``(node, reach_est)``. THE web-scale algorithm for neighborhood
    functions / effective diameter / centrality prerequisites: exact
    ball counting needs one BFS per node (infeasible beyond toy graphs);
    HyperBall runs ALL balls simultaneously because HLL union is
    element-wise max — each iteration folds every node's out-neighbors'
    sketches into its own, a fixpoint of the same join + bucket-merge
    shape as the CC loop.

    Per iteration each edge ships one ``2^p``-byte sketch (p=10 → 1 KB,
    ±3.2% standard error — the classic HyperBall operating point);
    sketches merge inside the bucket via a single vectorized
    ``np.maximum.reduceat`` over the stacked register matrix, never a
    per-pair Python loop. Estimates are deterministic (stable_hash64
    seeds the HLL). Accuracy vs an exact per-node BFS oracle is pinned
    in tests/test_graph.py."""
    cur = None
    for _, cur in _hyperball_iter(
        edges, hops=hops, p=p, num_buckets=num_buckets
    ):
        pass
    return _hll_counts(cur, p)


def _hyperball_iter(
    edges: ray.data.Dataset,
    *,
    hops: int,
    p: int,
    num_buckets: int,
    reverse: bool = False,
):
    """Shared HyperBall fixpoint: yields ``(hop, sketches)`` for hop =
    0..hops, where ``sketches`` is a materialized (node, sk) Dataset of
    HLL registers for each node's ≤hop out-ball (in-ball when
    ``reverse``). See :func:`hyperball` for the cost model."""
    import numpy as np

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    m = 1 << p
    a, b = ("obj_id", "subj_id") if reverse else ("subj_id", "obj_id")

    e = edges.map_batches(
        lambda t, a=a, b=b: pa.table({"src": t[a], "dst": t[b]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    ends = e.map_batches(
        lambda t: pa.table(
            {
                "node": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _init(t: pa.Table) -> pa.Table:
        # a singleton sketch is one register set. The register hash is
        # the SQL-mirrorable md5-60 (top p bits → register index,
        # (60-p)-bit suffix → rank), the same cross-engine hash family
        # as random_walks' step rule — so the driver oracle recomputes
        # IDENTICAL registers in DuckDB and the estimates are exact
        # mirrors, not approximations of approximations.
        from ..schema import md5_60

        q = 60 - p
        nodes = pc.unique(t["node"].combine_chunks())
        vals = nodes.to_pylist()
        if not vals:
            return pa.schema(
                [("node", pa.string()), ("sk", pa.binary())]
            ).empty_table()
        h = md5_60(vals).astype(np.uint64)
        idx = (h >> np.uint64(q)).astype(np.int64)
        w = h & np.uint64((1 << q) - 1)
        # exact floor_log2 + 1 via frexp's exponent (w < 2^52 is
        # float64-exact, so no log2 rounding hazard at powers of two)
        blen = np.frexp(w.astype(np.float64))[1]
        rank = np.where(w == 0, q + 1, q + 1 - blen).astype(np.uint8)
        mat = np.zeros((len(vals), m), np.uint8)
        mat[np.arange(len(vals)), idx] = rank
        return pa.table(
            {
                "node": nodes,
                "sk": pa.array([r.tobytes() for r in mat], pa.binary()),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [("node", pa.string()), ("sk", pa.binary())]
            ).empty_table()
        nodes = np.asarray(t["node"].to_pylist(), dtype=object)
        mat = np.frombuffer(
            b"".join(t["sk"].to_pylist()), np.uint8
        ).reshape(len(nodes), m)
        order = np.argsort(nodes, kind="stable")
        nodes, mat = nodes[order], mat[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], nodes[1:] != nodes[:-1]))
        )
        merged = np.maximum.reduceat(mat, bounds, axis=0)
        return pa.table(
            {
                "node": pa.array(nodes[bounds], pa.string()),
                "sk": pa.array(
                    [r.tobytes() for r in merged], pa.binary()
                ),
            }
        )

    cur = bucket_group_apply(
        ends.map_batches(
            _init, batch_format="pyarrow", zero_copy_batch=True
        ),
        "node",
        _merge,
        num_buckets=num_buckets,
    ).materialize()
    yield 0, cur

    for h in range(1, hops + 1):
        contrib = join_auto(
            e, cur, on=("dst",), right_on=("node",)
        ).map_batches(
            lambda t: pa.table({"node": t["src"], "sk": t["sk"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        cur = bucket_group_apply(
            cur.union(contrib), "node", _merge, num_buckets=num_buckets
        ).materialize()
        yield h, cur


def _hll_estimate_num(p: int) -> float:
    """alpha_m·m²·2^(61−p) — re-exported from functions/sketch.py (the
    one definition both the HyperBall stages and the G5 HLL aggregate
    embed verbatim into their oracle SQL)."""
    from ..functions.sketch import hll_estimate_num

    return hll_estimate_num(p)


def _hll_counts(
    sketches: ray.data.Dataset | None, p: int, col: str = "reach_est"
) -> ray.data.Dataset:
    """(node, sk) md5-60 HLL registers → (node, <col>) cardinality
    estimates, bit-reproducibly: Z⁻¹ is kept as the EXACT integer
    S = Σ 2^(R−reg) (R = 61−p; max m·2^R < 2^62), the raw estimate is
    one double division NUM/S, linear counting uses libm log (the same
    library DuckDB's ln calls), and the int readout is floor(est+0.5)
    on both sides. No float sum ever depends on reduction order."""
    import math

    import numpy as np

    if sketches is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    col: pa.array([], pa.int64()),
                }
            )
        )
    m = 1 << p
    R = 60 - p + 1
    num_const = _hll_estimate_num(p)

    def _count(t: pa.Table) -> pa.Table:
        blobs = t["sk"].to_pylist()
        if not blobs:
            return pa.table(
                {"node": t["node"], col: pa.array([], pa.int64())}
            )
        regs = np.frombuffer(b"".join(blobs), np.uint8).reshape(
            len(blobs), m
        ).astype(np.int64)
        s = np.left_shift(np.int64(1), R - regs).sum(axis=1)
        zeros = (regs == 0).sum(axis=1)
        est = num_const / s.astype(np.float64)
        lin = np.flatnonzero((est <= 2.5 * m) & (zeros > 0))
        for i in lin:
            # math.log (libm) rather than np.log (SIMD variant): DuckDB
            # ln calls the same libm, so the branch stays bit-identical
            est[i] = m * math.log(m / int(zeros[i]))
        out = np.floor(est + 0.5).astype(np.int64)
        return pa.table(
            {"node": t["node"], col: pa.array(out, pa.int64())}
        )

    return sketches.map_batches(
        _count, batch_format="pyarrow", zero_copy_batch=True
    )


def harmonic_centrality_est(
    edges: ray.data.Dataset,
    *,
    hops: int = 4,
    p: int = 10,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """HyperBall harmonic centrality (truncated at ``hops``):
    H(v) = Σ_{t=1..hops} (|B_t(v)| − |B_{t−1}(v)|) / t over IN-balls —
    the number of nodes at distance exactly t that can REACH v, each
    weighted 1/t. The standard HyperBall application (Boldi & Vigna):
    centrality over web-scale graphs without one BFS per node.

    Runs the shared :func:`_hyperball_iter` fixpoint on reversed edges,
    takes per-hop cardinality estimates, and combines the telescoping
    deltas with one (hops+1)-way join on node — all driver-free; hop
    tables are (node, int) pairs, sketches never leave the loop.
    Output ``(node, harmonic)`` float64; accuracy vs the exact
    truncated harmonic centrality is pinned in tests/test_graph.py."""
    from ..functions.joins import join_auto

    per_hop = [
        (h, _hll_counts(cur, p, col=f"c{h}"))
        for h, cur in _hyperball_iter(
            edges, hops=hops, p=p, num_buckets=num_buckets, reverse=True
        )
    ]
    if not per_hop:
        return _hll_counts(None, p, col="harmonic")
    joined = per_hop[0][1]
    for h, ds in per_hop[1:]:
        joined = join_auto(joined, ds, on=("node",))

    def _h(t: pa.Table) -> pa.Table:
        import numpy as np

        acc = np.zeros(t.num_rows, np.float64)
        prev = t["c0"].to_numpy(zero_copy_only=False).astype(np.float64)
        for h in range(1, hops + 1):
            cur = t[f"c{h}"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            # HLL estimates are monotone in expectation, not pointwise:
            # clamp negative deltas to 0
            acc += np.maximum(cur - prev, 0.0) / float(h)
            prev = cur
        return pa.table(
            {"node": t["node"], "harmonic": pa.array(acc, pa.float64())}
        )

    return joined.map_batches(
        _h, batch_format="pyarrow", zero_copy_batch=True
    )


def neighborhood_function(
    edges: ray.data.Dataset,
    *,
    hops: int = 6,
    p: int = 10,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Graph neighborhood function N(t) = Σ_v |B_t(v)| for t = 0..hops —
    the distance-distribution summary (HyperANF/HyperBall's headline
    output) from which effective diameter reads off as the smallest t
    with N(t) ≥ 0.9·N(hops). One row per hop ``(hop, nf_est)``.

    Same shared :func:`_hyperball_iter` fixpoint; each hop adds only a
    per-node count map + a scalar sum — the per-hop reduction ships one
    int64 per node, and only (hops+1) scalars reach the driver."""
    rows = []
    for h, cur in _hyperball_iter(
        edges, hops=hops, p=p, num_buckets=num_buckets
    ):
        total = _hll_counts(cur, p, col="c").sum("c") or 0
        rows.append((h, int(total)))
    return ray.data.from_arrow(
        pa.table(
            {
                "hop": pa.array([r[0] for r in rows], pa.int64()),
                "nf_est": pa.array([r[1] for r in rows], pa.int64()),
            }
        )
    )


def effective_diameter(
    edges: ray.data.Dataset,
    *,
    hops: int = 6,
    p: int = 10,
    q_frac: tuple[int, int] = (9, 10),
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Effective diameter at quantile ``q_frac`` (default 9/10): the
    smallest hop t with N(t)·den ≥ num·N(hops), read off the HyperBall
    neighborhood function — the standard "how far apart are typical
    node pairs" summary (Boldi–Vigna). One row: ``(eff_diameter,
    nf_at_diameter, nf_max)``; integer hop granularity and an integer
    cross-multiplied threshold keep the readout float-free. The N(t)
    curve is ≤ hops+1 scalars, so the readout is a documented tiny
    driver-side reduction over :func:`neighborhood_function`'s
    already-reduced output (approximate by construction → rows-only in
    the driver contract)."""
    nf = neighborhood_function(
        edges, hops=hops, p=p, num_buckets=num_buckets
    ).take_all()  # <= hops+1 rows
    curve = sorted((r["hop"], r["nf_est"]) for r in nf)
    nf_max = curve[-1][1] if curve else 0
    num, den = q_frac
    eff, nf_at = hops, nf_max
    for h, v in curve:
        if v * den >= num * nf_max:
            eff, nf_at = h, v
            break
    return ray.data.from_arrow(
        pa.table(
            {
                "eff_diameter": pa.array([eff], pa.int64()),
                "nf_at_diameter": pa.array([nf_at], pa.int64()),
                "nf_max": pa.array([nf_max], pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# The undirected simple graph core, written once for every operator that
# runs over the undirected simple KG: canonical pairs → simple-edge dedup →
# degrees → degree-ordered orientation → per-source wedges → triangle
# support. Keys are ``x␀y`` strings (NUL cannot occur in an entity id).
# ---------------------------------------------------------------------------

_SEP = "\x00"

_LS = pa.large_string()
_I64 = pa.int64()


class _EmptyGraph(Exception):
    """Raised by :func:`_undirected` / :func:`_symmetric` when the edge
    table has no edge between two distinct nodes (empty, or self-loops
    only); :func:`_on_empty_graph` turns it into the operator's result."""


def _on_empty_graph(**cols):
    """Decorate a graph operator with its result on a graph with no edge
    between two distinct nodes: ``cols`` maps each output column to its
    type, or to ``(type, value)`` for a one-row result (counts are 0).
    The operator's own dataflow would otherwise meet 0-row blocks, which
    Ray turns into a dataset with no schema, and fail on its first
    column select."""
    types = {c: v[0] if isinstance(v, tuple) else v for c, v in cols.items()}
    schema = pa.schema(list(types.items()))
    empty = (
        pa.table({c: pa.array([v[1]], types[c]) for c, v in cols.items()})
        if all(isinstance(v, tuple) for v in cols.values())
        else schema.empty_table()
    )

    def deco(fn):
        @functools.wraps(fn)
        def op(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except _EmptyGraph:
                return ray.data.from_arrow(empty)

        return op

    return deco


def _canon_block(t: pa.Table, carry: dict):
    """Per-block canonical pairs ``a < b`` (self-loops dropped), distinct
    per block; each ``carry`` column ``name: (expr, "min"|"max")`` is
    reduced per pair."""
    import polars as pl

    need = {"subj_id", "obj_id"}.union(
        *(e.meta.root_names() for e, _ in carry.values())
    )
    pairs = (
        pl.from_arrow(t.select(sorted(need)))
        .filter(pl.col("subj_id") != pl.col("obj_id"))
        .select(
            a=pl.min_horizontal("subj_id", "obj_id"),
            b=pl.max_horizontal("subj_id", "obj_id"),
            **{c: e for c, (e, _) in carry.items()},
        )
    )
    return _reduce_pairs(pairs, ["a", "b"], carry)


def _reduce_pairs(df, keys: list, carry: dict):
    """Distinct ``keys`` rows of a polars frame, each ``carry`` column
    reduced by its aggregate."""
    import polars as pl

    if not carry:
        return df.unique(subset=keys)
    return df.group_by(keys).agg(
        getattr(pl.col(c), how)() for c, (_, how) in carry.items()
    )


def _undirected(
    edges: ray.data.Dataset, num_buckets: int, **carry
) -> ray.data.Dataset:
    """The undirected simple graph under a KG edge table — rows ``(a, b,
    key = a␀b)`` with ``a < b``, each pair once: self-loops dropped, one
    per-block distinct, then one key-bucketed dedup shuffle. Each
    ``carry`` column ``name=(polars expr over the edge row, "min" |
    "max")`` rides along, reduced by its aggregate per block and again at
    the merge (a per-bit max is a bit-OR). Materialized; raises
    :class:`_EmptyGraph` when no pair is left."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _canon(t: pa.Table) -> pa.Table:
        return (
            _canon_block(t, carry)
            .with_columns(key=pl.col("a") + pl.lit(_SEP) + pl.col("b"))
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        return (
            _reduce_pairs(pl.from_arrow(t), ["a", "b", "key"], carry)
            .select(t.column_names)
            .to_arrow()
        )

    und = bucket_group_apply(
        edges.map_batches(_canon, batch_format="pyarrow", zero_copy_batch=True),
        "key",
        _merge,
        num_buckets=num_buckets,
    )
    if not und.count():  # the shuffle's output: row counts are metadata
        raise _EmptyGraph
    return und


def _symmetric(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Per-block distinct canonical pairs emitted in both directions as
    ``(src, dst)`` — no shuffle: consumers that bucket by an endpoint
    dedup the cross-block repeats in their own reducer. Materialized
    (every consumer's shuffle would materialize it anyway); raises
    :class:`_EmptyGraph` when no pair is left."""
    import polars as pl

    def _sym(t: pa.Table) -> pa.Table:
        und = _canon_block(t, {})
        return pl.concat(
            [
                und.select(src=pl.col("a"), dst=pl.col("b")),
                und.select(src=pl.col("b"), dst=pl.col("a")),
            ]
        ).to_arrow()

    sym = edges.map_batches(
        _sym, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if not sym.count():
        raise _EmptyGraph
    return sym


def _degrees(und: ray.data.Dataset, num_buckets: int) -> ray.data.Dataset:
    """Vertex degrees ``(v, deg)`` of an :func:`_undirected` edge set by
    the decomposable combiner: explode endpoints → per-block counts →
    one small vertex-bucketed sum."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["a", "b"]))
        v = pl.concat([df.select(v=pl.col("a")), df.select(v=pl.col("b"))])
        return (
            v.group_by("v").agg(pl.len().cast(pl.Int64).alias("deg")).to_arrow()
        )

    def _sum(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).group_by("v").agg(pl.col("deg").sum()).to_arrow()

    return bucket_group_apply(
        und.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True),
        "v",
        _sum,
        num_buckets=min(num_buckets, 16),
    )


def _with_degrees(
    und: ray.data.Dataset, deg: ray.data.Dataset
) -> ray.data.Dataset:
    """``und`` plus ``deg_a``/``deg_b``: the degree table joined onto both
    endpoints through ``join_auto`` (broadcast under the guard, shuffle
    hash join above it — |deg| = |V| rows, no driver collect)."""
    for end in ("a", "b"):
        und = join_auto(
            und,
            deg.map_batches(
                lambda t, e=end: t.rename_columns([e, f"deg_{e}"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            on=(end,),
        )
    return und


def _oriented(
    und: ray.data.Dataset, deg: ray.data.Dataset, *carry: str
) -> ray.data.Dataset:
    """Every undirected edge oriented from its lower-(degree, id)
    endpoint — rows ``(src, dst, dst_deg, key = src␀dst)`` plus the
    ``carry`` columns of ``und``.

    This is the hub-skew bound of every wedge operator: a vertex of
    degree d keeps d⁺ ≤ d out-neighbors, each of degree ≥ d, so
    d⁺·d ≤ 2m and d⁺ ≤ min(d, 2m/d) ≤ √(2m) — every out-neighborhood is
    O(√m), however skewed the degrees. Wedge volume is then
    Σ d⁺(v)² = O(m·√m), and the only partitioning assumption left is
    "one source's oriented out-edges fit in a reducer", which holds for
    any graph with m ≪ reducer-memory²."""
    import polars as pl

    def _orient(t: pa.Table) -> pa.Table:
        a_first = (pl.col("deg_a") < pl.col("deg_b")) | (
            (pl.col("deg_a") == pl.col("deg_b")) & (pl.col("a") < pl.col("b"))
        )

        def pick(x, y):
            return pl.when(a_first).then(pl.col(x)).otherwise(pl.col(y))

        return (
            pl.from_arrow(t)
            .select(
                pick("a", "b").alias("src"),
                pick("b", "a").alias("dst"),
                pick("deg_b", "deg_a").alias("dst_deg"),
                *carry,
            )
            .with_columns(key=pl.col("src") + pl.lit(_SEP) + pl.col("dst"))
            .to_arrow()
        )

    return _with_degrees(und, deg).map_batches(
        _orient, batch_format="pyarrow", zero_copy_batch=True
    )


def _wedges(
    oriented: ray.data.Dataset, num_buckets: int, cols: list
) -> ray.data.Dataset:
    """Degree-ordered wedges of an :func:`_oriented` edge set, generated
    per source inside one src-bucketed shuffle: for source ``s`` every
    pair of out-neighbors ``lo``, ``hi`` with ``lo`` before ``hi`` in
    (deg, id) rank. Each triangle is therefore generated exactly once,
    at its minimum-rank vertex, and its closing edge is the oriented
    edge ``key = lo␀hi``.

    Emits only ``cols`` out of ``s``, ``lo``, ``hi``, ``key`` and, for
    each carried column ``c`` of ``oriented``, ``c_lo`` / ``c_hi`` (its
    value on the s–lo / s–hi edge) — a caller's closing join moves
    nothing it does not use."""
    import numpy as np
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    carried = sorted({c[:-3] for c in cols if c[-3:] in ("_lo", "_hi")})

    def _gen(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["src", "dst", "dst_deg", *carried])).sort(
            ["src", "dst_deg", "dst"]
        )
        src = df["src"].to_numpy()
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        ends = np.r_[starts[1:], len(src)]
        ii, jj = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, e in zip(starts, ends):  # O(#groups); pair-gen is numpy
            if e - s >= 2:
                i, j = np.triu_indices(e - s, 1)
                ii.append(i + s)
                jj.append(j + s)
        i, j = np.concatenate(ii), np.concatenate(jj)
        out = {
            "s": df["src"].gather(i),
            "lo": df["dst"].gather(i),
            "hi": df["dst"].gather(j),
        }
        for c in carried:
            out[f"{c}_lo"] = df[c].gather(i)
            out[f"{c}_hi"] = df[c].gather(j)
        return (
            pl.DataFrame(out)
            .with_columns(key=pl.col("lo") + pl.lit(_SEP) + pl.col("hi"))
            .select(cols)
            .to_arrow()
        )

    return bucket_group_apply(oriented, "src", _gen, num_buckets=num_buckets)


def _credit(t: pa.Table) -> pa.Table:
    """A closed wedge ``(s, lo, hi)`` is a triangle: credit each of its
    three edges once, under the canonical ``min␀max`` key of
    :func:`_undirected` — per-block partial counts ``(key, sup)``."""
    import polars as pl

    df = pl.from_arrow(t.select(["s", "lo", "hi"]))

    def ck(x, y):
        return (
            pl.min_horizontal(x, y) + pl.lit(_SEP) + pl.max_horizontal(x, y)
        ).alias("key")

    keys = pl.concat(
        [df.select(ck(x, y)) for x, y in (("s", "lo"), ("s", "hi"), ("lo", "hi"))]
    )
    return (
        keys.group_by("key").agg(pl.len().cast(pl.Int64).alias("sup")).to_arrow()
    )


def _typed(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """``ds``, or an empty table of ``schema`` when ``ds`` has no rows and
    no schema — on a triangle-free graph the closed wedges are a 0-row
    block, a map over it emits no block at all, and a following join
    needs its columns."""
    if ds.schema() is not None:
        return ds
    return ray.data.from_arrow(schema.empty_table())


def _closed_wedges(
    oriented: ray.data.Dataset, num_buckets: int, cols: list
) -> ray.data.Dataset:
    """The :func:`_wedges` (``cols``, which must include ``key``) whose
    closing edge exists — one row per triangle: a semi join of the wedge
    keys against the oriented edge keys (broadcast under the guard,
    co-bucketed above it). ``oriented`` is read twice, so callers pass it
    materialized."""
    from .relational import membership_join

    return membership_join(
        _wedges(oriented, num_buckets, cols),
        oriented.select_columns(["key"]),
        on="key",
        num_buckets=num_buckets,
    )


def _triangle_support(
    und: ray.data.Dataset, num_buckets: int
) -> ray.data.Dataset:
    """Per-edge triangle support ``(key, sup)`` of an :func:`_undirected`
    edge set (edges in no triangle are absent): each closed wedge
    credits its three edges, then one key-bucketed sum."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    oriented = _oriented(und, _degrees(und, num_buckets)).materialize()
    closed = _closed_wedges(oriented, num_buckets, ["key", "s", "lo", "hi"])
    support = bucket_group_apply(
        closed.map_batches(_credit, batch_format="pyarrow", zero_copy_batch=True),
        "key",
        lambda t: (
            pl.from_arrow(t).group_by("key").agg(pl.col("sup").sum()).to_arrow()
        ),
        num_buckets=num_buckets,
    )
    return _typed(
        support, pa.schema([("key", pa.large_string()), ("sup", pa.int64())])
    )


@_on_empty_graph(n_triangles=(_I64, 0))
def triangle_count(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Exact TRIANGLE COUNT of the undirected simple graph underlying
    the KG edge table — degree-ordered wedge counting, the standard
    distributed algorithm (one row: ``n_triangles``).

    Pipeline (all on the house shuffle, never an all-pairs join):
    :func:`_undirected` simple edges → :func:`_degrees` →
    :func:`_oriented` (the O(√m) hub bound) → :func:`_closed_wedges`,
    each triangle generated once at its min-rank vertex and moving only
    its key through the closing semi join."""
    und = _undirected(edges, num_buckets).materialize()
    oriented = _oriented(und, _degrees(und, num_buckets)).materialize()
    n = _closed_wedges(oriented, num_buckets, ["key"]).count()
    return ray.data.from_arrow(
        pa.table({"n_triangles": pa.array([n], pa.int64())})
    )


@_on_empty_graph(deg=_I64, n_nodes=_I64)
def degree_histogram(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Degree DISTRIBUTION of the undirected simple graph underlying the
    KG edge table — rows ``(deg, n_nodes)``: how many vertices have each
    degree (the first thing anyone plots about a graph).

    :func:`_undirected` → :func:`_degrees`, then one more decomposable
    combiner aggregate: degrees → per-block degree counts → tiny
    degree-bucketed sum. Raw edges shuffle once (the dedup floor);
    everything downstream moves combiner partials only."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _hist_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("deg")
            .agg(pl.len().cast(pl.Int64).alias("n_nodes"))
            .to_arrow()
        )

    def _hist_sum(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("deg")
            .agg(pl.col("n_nodes").sum())
            .to_arrow()
        )

    per_vertex = _degrees(_undirected(edges, num_buckets), num_buckets)
    partials = per_vertex.map_batches(
        _hist_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "deg", _hist_sum, num_buckets=4)


def bfs_distances(
    edges: ray.data.Dataset,
    *,
    source: str | None = None,
    max_hops: int = 6,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Single-source BFS hop distances over the UNDIRECTED KG — rows
    ``(node, dist:int64)`` for every node within ``max_hops`` of
    ``source`` (default: the lexicographic min node id, so the query is
    deterministic with no parameter). SQL mirror: recursive reachability
    with ``min(d)`` per node.

    Same iterative dataflow as ``canonical.connected_components``: the
    symmetrized edge set is materialized once and reused every
    iteration; each hop is one broadcast-or-shuffle join (``join_auto``)
    of the frontier against edges plus a salted min-merge — per
    iteration only (node, dist) pairs move, never edge payloads.
    ``max_hops`` bounds the loop (BFS is inherently iterative: the
    streaming executor runs each hop as its own pipelined stage)."""
    import pyarrow.compute as _pc

    from ..functions.joins import join_auto
    from .canonical import _salted_min, default_partitions

    num_partitions = num_partitions or default_partitions()

    sym = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        t["obj_id"].combine_chunks(),
                        t["subj_id"].combine_chunks(),
                    ]
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    if source is None:
        mins = sym.map_batches(
            lambda t: pa.table(
                {"m": pa.array([_pc.min(t["src"]).as_py()], pa.string())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()  # one row per block — tiny by construction
        source = min(r["m"] for r in mins if r["m"] is not None)

    labels = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([source], pa.string()),
                "dist": pa.array([0], pa.int64()),
            }
        )
    )
    for _ in range(max_hops):
        prop = join_auto(
            sym,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {"node": t["dst"], "dist": _pc.add(t["dist"], 1)}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = _salted_min(
            labels.union(prop), "node", "dist"
        ).materialize()
    return labels


def sssp_distances(
    edges: ray.data.Dataset,
    *,
    source: str | None = None,
    max_hops: int = 4,
    weight_col: str = "weight",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Bounded-hop WEIGHTED single-source shortest distances over the
    undirected KG — rows ``(node, dist:int64)`` where dist = the
    minimum total edge cost over paths of ≤ ``max_hops`` edges from
    ``source`` (default: lexicographic min node id, so the query is
    deterministic with no parameter). Integer edge costs → integer
    distances, SQL-mirrorable by a hop-capped recursive CTE with
    ``min(d)`` per node.

    Distributed Bellman-Ford, the weighted sibling of
    :func:`bfs_distances`: the symmetrized (src, dst, w) edge set
    materializes once; each round relaxes the CURRENT label table
    through one ``join_auto`` against edges (only (node, dist) pairs
    move) and a salted min-merge. Parallel edges between a node pair
    need no pre-min: all propagate and the min-merge keeps the
    cheapest. ``max_hops`` rounds bound the loop exactly like the
    SQL mirror's hop cap — for full convergence on a W-weighted
    diameter-D graph run D rounds (grammar KGs are shallow)."""
    import pyarrow.compute as _pc

    from ..functions.joins import join_auto
    from .canonical import _salted_min, default_partitions

    num_partitions = num_partitions or default_partitions()

    sym = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        t["obj_id"].combine_chunks(),
                        t["subj_id"].combine_chunks(),
                    ]
                ),
                "w": pa.concat_arrays(
                    [
                        t[weight_col].combine_chunks().cast(pa.int64()),
                        t[weight_col].combine_chunks().cast(pa.int64()),
                    ]
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    if source is None:
        mins = sym.map_batches(
            lambda t: pa.table(
                {"m": pa.array([_pc.min(t["src"]).as_py()], pa.string())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()  # one row per block — tiny by construction
        source = min(r["m"] for r in mins if r["m"] is not None)

    labels = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([source], pa.string()),
                "dist": pa.array([0], pa.int64()),
            }
        )
    )
    for _ in range(max_hops):
        prop = join_auto(
            sym,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {"node": t["dst"], "dist": _pc.add(t["dist"], t["w"])}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = _salted_min(
            labels.union(prop), "node", "dist"
        ).materialize()
    return labels


def comention_counts(
    linked: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Entity co-mention graph: for every unordered pair of DISTINCT
    linked entities appearing in the same ``(conv_id, turn_idx)``, the
    number of turns where they co-occur — rows ``(e1, e2, n)`` with
    ``e1 < e2``. The co-occurrence edge layer KGs add next to the
    predicate edges (SQL mirror: the per-turn self-join).

    One conv-bucketed shuffle of (conv, turn, entity) triples — the
    entity column, never mention payloads; per bucket the pair
    generation is a vectorized polars self-join within each turn (a
    turn's mention count is grammar-bounded, so per-turn pairs are too),
    reduced to per-pair partial counts; a tiny second shuffle sums."""
    import polars as pl

    def _pairs(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .drop_nulls("cand_entity_id")
            .select(["conv_id", "turn_idx", "cand_entity_id"])
            .unique()
        )
        j = df.join(df, on=["conv_id", "turn_idx"], how="inner").filter(
            pl.col("cand_entity_id") < pl.col("cand_entity_id_right")
        )
        return (
            j.group_by(["cand_entity_id", "cand_entity_id_right"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({"cand_entity_id": "e1", "cand_entity_id_right": "e2"})
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["e1", "e2"])
            .agg(pl.col("n").sum())
            .to_arrow()
        )

    from ..functions.shuffle import bucket_group_apply

    per_conv = bucket_group_apply(
        linked.select_columns(["conv_id", "turn_idx", "cand_entity_id"]),
        "conv_id",
        _pairs,
        num_buckets=num_buckets,
    )
    return bucket_group_apply(per_conv, "e1", _merge, num_buckets=8)


@_on_empty_graph(u=_LS, v=_LS, n_common=_I64)
def common_neighbor_counts(
    edges: ray.data.Dataset,
    *,
    min_common: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Structural entity similarity: unordered node pairs ranked by how
    many UNDIRECTED neighbors they share — the common-neighbors link
    predictor. Rows ``(u, v, n_common)`` with ``u < v`` and
    ``n_common ≥ min_common``.

    Wedge counting at the shared neighbor: :func:`_symmetric` edges
    bucket by the hop vertex, each hop's neighbor list self-joins
    vectorized (pairs per hop = C(deg, 2) — the output's own lower
    bound; a degree-capped variant is the documented hub mitigation,
    cf. :func:`_oriented`), per-pair partials merge in a
    tiny second shuffle and the ``min_common`` filter applies there."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    sym = _symmetric(edges)

    def _hop_pairs(t: pa.Table) -> pa.Table:
        # bucket key = dst (the shared neighbor); dedup (src, dst) pairs
        # that arrived from different blocks first
        df = pl.from_arrow(t).unique()
        j = df.join(df, on="dst", how="inner").filter(
            pl.col("src") < pl.col("src_right")
        )
        return (
            j.group_by(["src", "src_right"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({"src": "u", "src_right": "v"})
            .to_arrow()
        )

    per_hop = bucket_group_apply(sym, "dst", _hop_pairs, num_buckets=num_buckets)

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["u", "v"])
            .agg(pl.col("n").sum().alias("n_common"))
            .filter(pl.col("n_common") >= min_common)
            .to_arrow()
        )

    return bucket_group_apply(per_hop, "u", _merge, num_buckets=8)


@_on_empty_graph(u=_LS, v=_LS, n_common=_I64, aa_e12=_I64, ra_e12=_I64)
def adamic_adar(
    edges: ray.data.Dataset,
    *,
    min_common: int = 2,
    scale: int = 10**12,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Adamic–Adar + Resource-Allocation link prediction in EXACT int64
    fixed-point: for every unordered pair (u, v) sharing ≥ ``min_common``
    undirected neighbors, rows ``(u, v, n_common, aa_e12, ra_e12)``
    where each shared neighbor z contributes
    ``floor(scale / ln(deg_z))`` (AA — Adamic & Adar, Soc. Networks
    2003) and ``scale // deg_z`` (RA — Zhou et al., EPJ B 2009). The
    per-z weight is one correctly-rounded libm op on an INTEGER degree
    and each pair's score is an integer SUM — reduction-order-
    independent, so the driver's DuckDB oracle (whose ``ln`` calls the
    same libm) reproduces every score bit-exactly.

    Same wedge-at-the-shared-neighbor dataflow as
    :func:`common_neighbor_counts`; the hop's bucket group holds ALL of
    z's distinct neighbors, so deg_z — and both weights — are known AT
    WEDGE GENERATION with no degree join, and one pair-bucketed
    integer-sum merge finishes. Hub cost is C(deg, 2) per hop, the
    output's own lower bound (degree-capping is the documented
    mitigation, as in common_neighbor_counts)."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    sym = _symmetric(edges)

    def _hop_pairs(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).unique()
        deg = df.group_by("dst").agg(pl.len().cast(pl.Int64).alias("deg"))
        # polars .log() is bitwise libm ln on this platform (verified in
        # the tfidf oracle work) — floor + int cast makes the weight an
        # exact integer either way
        # deg=1 hops make no wedge (and ln(1)=0 would blow up the AA
        # weight) — drop them before computing weights
        w = deg.filter(pl.col("deg") >= 2).with_columns(
            (pl.lit(float(scale)) / pl.col("deg").cast(pl.Float64).log())
            .floor()
            .cast(pl.Int64)
            .alias("aa_w"),
            (pl.lit(scale, dtype=pl.Int64) // pl.col("deg")).alias("ra_w"),
        )
        j = (
            df.join(df, on="dst", how="inner")
            .filter(pl.col("src") < pl.col("src_right"))
            .join(w, on="dst")
        )
        return (
            j.group_by(["src", "src_right"])
            .agg(
                pl.len().cast(pl.Int64).alias("n"),
                pl.col("aa_w").sum().alias("aa"),
                pl.col("ra_w").sum().alias("ra"),
            )
            .rename({"src": "u", "src_right": "v"})
            .to_arrow()
        )

    per_hop = bucket_group_apply(sym, "dst", _hop_pairs, num_buckets=num_buckets)

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["u", "v"])
            .agg(
                pl.col("n").sum().alias("n_common"),
                pl.col("aa").sum().alias("aa_e12"),
                pl.col("ra").sum().alias("ra_e12"),
            )
            .filter(pl.col("n_common") >= min_common)
            .to_arrow()
        )

    return bucket_group_apply(per_hop, "u", _merge, num_buckets=8)


@_on_empty_graph(node=_LS, deg=_I64, n_triangles=_I64)
def node_clustering(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Per-node triangle participation — rows ``(node, deg,
    n_triangles)`` over the undirected simple KG; the local clustering
    coefficient is the driver-side rational ``2·t / (deg·(deg−1))``
    (emitted as integers so the oracle compare is float-free; nodes
    with no triangles appear with 0).

    The :func:`_closed_wedges` of :func:`triangle_count`, except each
    closed wedge is exploded to its THREE corners (a triangle counts
    once per corner), reduced by per-block combiners before one
    node-bucketed merge, then left-joined onto the degree table."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    und = _undirected(edges, num_buckets).materialize()
    deg = _degrees(und, num_buckets).materialize()
    oriented = _oriented(und, deg).materialize()
    closed = _closed_wedges(oriented, num_buckets, ["key", "s", "lo", "hi"])

    def _corners(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["s", "lo", "hi"]))
        corners = pl.concat(
            [df.select(v=pl.col(c)) for c in ("s", "lo", "hi")]
        )
        return (
            corners.group_by("v")
            .agg(pl.len().cast(pl.Int64).alias("n_tri"))
            .to_arrow()
        )

    tri_partials = closed.map_batches(
        _corners, batch_format="pyarrow", zero_copy_batch=True
    )

    def _tri_sum(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("v")
            .agg(pl.col("n_tri").sum())
            .to_arrow()
        )

    tri = _typed(
        bucket_group_apply(
            tri_partials, "v", _tri_sum, num_buckets=min(num_buckets, 16)
        ),
        pa.schema([("v", pa.large_string()), ("n_tri", pa.int64())]),
    )
    out = join_auto(
        deg, tri, on=("v",), join_type="left_outer"
    )

    def _final(t: pa.Table) -> pa.Table:
        z = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "node": t["v"],
                "deg": t["deg"],
                "n_triangles": pc.fill_null(t["n_tri"], z),
            }
        )

    return out.map_batches(
        _final, batch_format="pyarrow", zero_copy_batch=True
    )


@_on_empty_graph(
    m=(_I64, 0),
    s_sum=(_I64, 0),
    s_sq=(_I64, 0),
    s_prod=(_I64, 0),
)
def degree_assortativity_sums(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Degree-assortativity sufficient statistics over the undirected
    simple KG — ONE row of exact integers ``(m, s_sum, s_sq, s_prod)``
    where, summing over edges with endpoint degrees (j, k):
    m = edge count, s_sum = Σ(j+k), s_sq = Σ(j²+k²), s_prod = Σ j·k.
    Newman's assortativity coefficient r is pure driver arithmetic on
    these four numbers — floats never enter the dataflow.

    :func:`_undirected` → :func:`_degrees` → :func:`_with_degrees`; the
    four sums reduce per block before one single-row merge."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    und = _undirected(edges, num_buckets).materialize()
    withdeg = _with_degrees(und, _degrees(und, num_buckets))

    def _partial_sums(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return df.select(
            m=pl.len().cast(pl.Int64),
            s_sum=(pl.col("deg_a") + pl.col("deg_b")).sum(),
            s_sq=(
                pl.col("deg_a") * pl.col("deg_a")
                + pl.col("deg_b") * pl.col("deg_b")
            ).sum(),
            s_prod=(pl.col("deg_a") * pl.col("deg_b")).sum(),
        ).to_arrow()

    def _merge(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.drop_columns(["_one"]))
        return df.select(
            pl.col("m").sum(),
            pl.col("s_sum").sum(),
            pl.col("s_sq").sum(),
            pl.col("s_prod").sum(),
        ).to_arrow()

    partials = withdeg.map_batches(
        _partial_sums, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        lambda t: t.append_column(
            "_one", pa.array([1] * t.num_rows, pa.int32())
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return bucket_group_apply(partials, "_one", _merge, num_buckets=1)


def latest_assertion(
    rewritten: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Temporal-KG compaction (SCD-1 over assertions): for every
    (subj_id, pred) the object of the NEWEST assertion — max ``ts``,
    ties broken by min ``obj_id`` — rows (subj_id, pred, obj_id, ts).
    The "current belief" view a KG serves next to the full edge history
    (SQL mirror: ``row_number() OVER (PARTITION BY subj, pred ORDER BY
    ts DESC, obj) = 1``).

    keep-latest is associative, so the same shape as
    ``relational.latest_by_key``: a per-block combiner keeps ≤ one row
    per (subj, pred) per block BEFORE the shuffle, then one
    subj-bucketed merge re-applies it — only per-block winners move."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _keep(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t)
            .group_by(["subj_id", "pred"])
            .agg(
                pl.col("obj_id", "ts")
                .sort_by(["ts", "obj_id"], descending=[True, False])
                .first()
            )
            .select(["subj_id", "pred", "obj_id", "ts"])
            .to_arrow()
        )
        return out.cast(
            pa.schema([(n, t.schema.field(n).type) for n in out.schema.names])
        )

    partial = rewritten.map_batches(
        _keep, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partial, "subj_id", _keep, num_buckets=num_buckets)


def kcore(
    edges: ray.data.Dataset,
    *,
    k: int = 2,
    max_iters: int = 50,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """k-core of the UNDIRECTED KG: iteratively peel nodes whose degree
    (distinct-neighbor count, self-loops ignored) is < k until fixpoint
    — rows ``(node, deg)`` for survivors, deg = degree INSIDE the core.
    The standard densest-substructure filter KGs run before community
    detection (peeling converges in O(peel depth) rounds).

    Iterative like CC: per round one degree count (per-block distinct-
    neighbor combiner → bucket merge) and one survivor semi-join on BOTH
    endpoints (``relational.membership_join``: survivor set broadcasts
    under the guard, co-bucketed above it). The edge set only ever
    shrinks; each round's work is one scan of the current edges. The
    driver oracle is a recursive CTE that carries the surviving edge set
    per round under the same iteration cap (post-fixpoint rounds re-emit
    the set unchanged, so cap ≡ early exit); the pytest brute-force peel
    pins arbitrary graphs."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from .relational import membership_join

    def _sym(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        t["obj_id"].combine_chunks(),
                        t["subj_id"].combine_chunks(),
                    ]
                ),
            }
        )
        return out.filter(pc.invert(pc.equal(out["src"], out["dst"])))

    def _dedup(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .unique(["src", "dst"])
            .to_arrow()
            .cast(pa.schema([("src", pa.string()), ("dst", pa.string())]))
        )

    sym = bucket_group_apply(
        edges.map_batches(_sym, batch_format="pyarrow", zero_copy_batch=True),
        "src",
        _dedup,
        num_buckets=num_buckets,
    )
    n_edges = sym.count()

    def _deg(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("src")
            .agg(pl.len().cast(pl.Int64).alias("deg"))
            .rename({"src": "node"})
            .to_arrow()
            .cast(pa.schema([("node", pa.string()), ("deg", pa.int64())]))
        )

    deg = None
    for _ in range(max_iters):
        # distinct (src, dst) pairs per bucket: degree = row count per src
        deg = bucket_group_apply(sym, "src", _deg, num_buckets=num_buckets)
        survivors = deg.filter(expr=f"deg >= {k}")
        sym = membership_join(
            membership_join(sym, survivors, on="src", right_on="node"),
            survivors,
            on="dst",
            right_on="node",
        ).materialize()
        n = sym.count()
        if n == n_edges:
            break
        n_edges = n
    return bucket_group_apply(sym, "src", _deg, num_buckets=num_buckets)


@_on_empty_graph(u=_LS, v=_LS, n_common=_I64, deg_u=_I64, deg_v=_I64)
def jaccard_similarity(
    edges: ray.data.Dataset,
    *,
    min_common: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Neighbor-Jaccard link prediction in EXACT integers: for every
    unordered node pair sharing ≥ ``min_common`` undirected neighbors,
    rows ``(u, v, n_common, deg_u, deg_v)`` — Jaccard =
    n_common / (deg_u + deg_v − n_common) is driver/consumer arithmetic,
    so no float ever enters the dataflow (the daily_rollup rule).

    Composition, no new shuffle shapes: ``common_neighbor_counts`` wedge
    pairs + per-node degrees of the same deduped symmetric edge set,
    attached with two broadcast-or-bucketed ``join_auto`` lookups (the
    degree table is O(nodes) — the small side by construction)."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    pairs = common_neighbor_counts(
        edges, min_common=min_common, num_buckets=num_buckets
    )

    def _deg(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .unique()
            .group_by("src")
            .agg(pl.len().cast(pl.Int64).alias("deg"))
            .rename({"src": "node"})
            .to_arrow()
            .cast(pa.schema([("node", pa.string()), ("deg", pa.int64())]))
        )

    deg = bucket_group_apply(
        _symmetric(edges),
        "src",
        _deg,
        num_buckets=num_buckets,
    )

    with_u = join_auto(
        pairs, deg, on=("u",), right_on=("node",), num_partitions=num_buckets
    ).map_batches(
        lambda t: t.rename_columns(
            ["deg_u" if c == "deg" else c for c in t.schema.names]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    with_v = join_auto(
        with_u, deg, on=("v",), right_on=("node",), num_partitions=num_buckets
    ).map_batches(
        lambda t: t.select(["u", "v", "n_common", "deg_u"]).append_column(
            "deg_v", t["deg"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return with_v


@_on_empty_graph(node=pa.string(), label=pa.string())
def label_propagation(
    edges: ray.data.Dataset,
    *,
    max_iters: int = 10,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Synchronous label-propagation communities over the UNDIRECTED KG —
    rows ``(node, label)``. Each round every node adopts the most
    frequent label among its neighbors (ties → smallest label; seeds =
    own id), so the result is DETERMINISTIC — no random visit order, the
    classic LPA nondeterminism — at the cost of possible 2-cycles, which
    ``max_iters`` caps. Fully deterministic (string argmax with total
    tie order), so the driver oracle replays the identical vote/argmax
    rounds as a recursive CTE capped at ``max_iters`` (post-fixpoint
    rounds are no-ops ≡ the early exit below); the pytest two-clique
    oracle pins the semantics.

    Per round: one ``join_auto`` of the reused symmetrized edge set
    against the label table (only (node, label) pairs move) and one
    node-bucketed count+argmax — the same iterative dataflow budget as
    ``canonical.connected_components``."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from .canonical import default_partitions

    num_partitions = default_partitions()

    def _dedup(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).unique().to_arrow().cast(
            pa.schema([("src", pa.string()), ("dst", pa.string())])
        )

    sym = bucket_group_apply(
        _symmetric(edges),
        "src",
        _dedup,
        num_buckets=num_buckets,
    )

    labels = bucket_group_apply(
        sym,
        "src",
        lambda t: pl.from_arrow(t)
        .select(node=pl.col("src"), label=pl.col("src"))
        .unique()
        .to_arrow()
        .cast(pa.schema([("node", pa.string()), ("label", pa.string())])),
        num_buckets=num_buckets,
    )

    def _argmax_mode(t: pa.Table) -> pa.Table:
        # most frequent neighbor label per node; ties -> smallest label
        return (
            pl.from_arrow(t)
            .group_by(["node", "label"])
            .agg(pl.len().alias("n"))
            .sort(["node", "n", "label"], descending=[False, True, False])
            .unique(subset=["node"], keep="first", maintain_order=True)
            .select(["node", "label"])
            .to_arrow()
            .cast(pa.schema([("node", pa.string()), ("label", pa.string())]))
        )

    for _ in range(max_iters):
        prop = join_auto(
            sym,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table({"node": t["dst"], "label": t["label"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        new_labels = bucket_group_apply(
            prop, "node", _argmax_mode, num_buckets=num_buckets
        ).materialize()
        # fixpoint check: count of (node, label) disagreements, computed
        # with one more tiny bucketed merge over the two label tables
        tagged = labels.map_batches(
            lambda t: t.append_column(
                "gen", pa.array([0] * t.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).union(
            new_labels.map_batches(
                lambda t: t.append_column(
                    "gen", pa.array([1] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )

        def _changed(t: pa.Table) -> pa.Table:
            n = (
                pl.from_arrow(t)
                .group_by("node")
                .agg(pl.col("label").n_unique().alias("u"))
                .filter(pl.col("u") > 1)
                .height
            )
            return pa.table({"c": pa.array([n], pa.int64())})

        changed = sum(
            r["c"]
            for r in bucket_group_apply(
                tagged, "node", _changed, num_buckets=num_buckets
            ).take_all()
        )
        labels = new_labels
        if not changed:
            break
    return labels


def strongly_connected_components(
    edges: ray.data.Dataset,
    *,
    max_rounds: int = 25,
    max_iters: int = 60,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """SCCs of the DIRECTED KG — rows ``(node, scc_id)`` where scc_id =
    lexicographic min entity id in the component (every edge endpoint
    gets a row; acyclic nodes are their own singleton SCC).

    The distributed coloring algorithm (forward-min color fixpoint →
    per-class backward reachability from each color root → peel the
    detected SCCs and repeat), the standard Pregel-family SCC shape:

    - forward pass: color(v) = min id over {v} ∪ {u : u ⇝ v}, reached
      by iterating one (src)-keyed ``join_auto`` against the label
      table per step — colors only ever DECREASE, so the fixpoint
      check is a cheap per-node "did min drop" flag summed per round.
    - roots (color(v) == v) then grow BACKWARD inside their own color
      class over intra-class edges (one semi-join per step); nodes so
      reached are exactly SCC(root), because membership needs both
      root ⇝ v (same color) and v ⇝ root (backward reach).
    - detected SCCs peel off through two anti-joins and the loop
      repeats on the residue; isolated leftovers emit as singletons.

    Round count is graph-dependent (one round peels every current
    color-class root's SCC); entity graphs with hub-dominated reach
    converge in a handful — ``max_rounds`` guards the adversarial
    chain case. Exact recursive-CTE oracle (mutual-reachability min
    label) at driver scale."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from .relational import membership_join

    num_partitions = default_partitions()
    str2 = pa.schema([("src", pa.string()), ("dst", pa.string())])
    lbl_schema = pa.schema([("node", pa.string()), ("color", pa.string())])

    def _dir(t: pa.Table) -> pa.Table:
        return pa.table(
            {"src": t["subj_id"], "dst": t["obj_id"]}
        )

    def _dedup(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).unique().to_arrow().cast(str2)

    active = bucket_group_apply(
        edges.map_batches(_dir, batch_format="pyarrow", zero_copy_batch=True),
        "src",
        _dedup,
        num_buckets=num_buckets,
    ).materialize()

    def _endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                )
            }
        )

    def _nodes_of(e: ray.data.Dataset) -> ray.data.Dataset:
        return bucket_group_apply(
            e.map_batches(
                _endpoints, batch_format="pyarrow", zero_copy_batch=True
            ),
            "node",
            lambda t: pl.from_arrow(t)
            .unique()
            .to_arrow()
            .cast(pa.schema([("node", pa.string())])),
            num_buckets=num_buckets,
        ).materialize()

    def _as_singletons(nodes_ds: ray.data.Dataset) -> ray.data.Dataset:
        return nodes_ds.map_batches(
            lambda t: pa.table({"node": t["node"], "scc_id": t["node"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    nodes = _nodes_of(active)
    pieces: list[ray.data.Dataset] = []

    for _ in range(max_rounds):
        # drop self-loops for structure (their nodes stay in `nodes`)
        struct = active.filter(expr="src != dst").materialize()
        with_edges = _nodes_of(struct)
        isolated = membership_join(
            nodes, with_edges, on="node", right_on="node", anti=True
        ).materialize()
        if isolated.count():
            pieces.append(_as_singletons(isolated))
        nodes = with_edges
        if struct.count() == 0:
            break

        # ---- forward min-color fixpoint -------------------------------
        labels = nodes.map_batches(
            lambda t: pa.table({"node": t["node"], "color": t["node"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()

        def _min_merge(t: pa.Table) -> pa.Table:
            df = pl.from_arrow(t)
            out = (
                df.group_by("node")
                .agg(
                    pl.col("color").min().alias("color"),
                    pl.col("color")
                    .filter(pl.col("gen") == 0)
                    .min()
                    .alias("old"),
                )
                .with_columns(
                    (pl.col("color") < pl.col("old"))
                    .fill_null(False)
                    .cast(pl.Int64)
                    .alias("chg")
                )
                .select(["node", "color", "chg"])
            )
            return out.to_arrow().cast(
                pa.schema(
                    [
                        ("node", pa.string()),
                        ("color", pa.string()),
                        ("chg", pa.int64()),
                    ]
                )
            )

        for _i in range(max_iters):
            prop = join_auto(
                struct,
                labels,
                on=("src",),
                right_on=("node",),
                num_partitions=num_partitions,
            ).map_batches(
                lambda t: pa.table(
                    {
                        "node": t["dst"],
                        "color": t["color"],
                        "gen": pa.array([1] * t.num_rows, pa.int64()),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            tagged = labels.map_batches(
                lambda t: pa.table(
                    {
                        "node": t["node"],
                        "color": t["color"],
                        "gen": pa.array([0] * t.num_rows, pa.int64()),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).union(prop)
            merged = bucket_group_apply(
                tagged, "node", _min_merge, num_buckets=num_buckets
            ).materialize()
            changed = merged.sum("chg") or 0
            labels = merged.drop_columns(["chg"]).materialize()
            if not changed:
                break

        # ---- intra-class edges + backward growth from roots ----------
        e_src = join_auto(
            struct,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {"src": t["src"], "dst": t["dst"], "c_src": t["color"]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        intra = (
            join_auto(
                e_src,
                labels,
                on=("dst",),
                right_on=("node",),
                num_partitions=num_partitions,
            )
            .map_batches(
                lambda t: pa.table(
                    {
                        "src": t["src"],
                        "dst": t["dst"],
                        "keep": pc.equal(t["c_src"], t["color"]),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .filter(expr="keep == True")
            .drop_columns(["keep"])
            .materialize()
        )

        reached = labels.filter(expr="node == color").drop_columns(
            ["color"]
        ).materialize()
        n_reached = reached.count()
        for _i in range(max_iters):
            grown = membership_join(
                intra, reached, on="dst", right_on="node"
            ).map_batches(
                lambda t: pa.table({"node": t["src"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            reached = bucket_group_apply(
                reached.union(grown),
                "node",
                lambda t: pl.from_arrow(t)
                .unique()
                .to_arrow()
                .cast(pa.schema([("node", pa.string())])),
                num_buckets=num_buckets,
            ).materialize()
            n2 = reached.count()
            if n2 == n_reached:
                break
            n_reached = n2

        scc_part = membership_join(
            labels, reached, on="node", right_on="node"
        ).map_batches(
            lambda t: pa.table({"node": t["node"], "scc_id": t["color"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        pieces.append(scc_part)

        # peel: drop every edge touching a detected SCC node
        active = membership_join(
            membership_join(
                struct, reached, on="src", right_on="node", anti=True
            ),
            reached,
            on="dst",
            right_on="node",
            anti=True,
        ).materialize()
        nodes = membership_join(
            nodes, reached, on="node", right_on="node", anti=True
        ).materialize()
        if active.count() == 0:
            if nodes.count():
                pieces.append(_as_singletons(nodes))
            break
    else:
        raise RuntimeError(
            f"SCC did not converge in {max_rounds} rounds — raise "
            "max_rounds (graph has a long root-chain structure)"
        )

    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    return bucket_group_apply(
        out,
        "node",
        lambda t: pl.from_arrow(t)
        .unique()
        .to_arrow()
        .cast(pa.schema([("node", pa.string()), ("scc_id", pa.string())])),
        num_buckets=num_buckets,
    )


def negative_samples(
    edges: ray.data.Dataset,
    *,
    k: int = 2,
    seed: int = 13,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """KG-embedding training negatives: for every distinct positive
    (subj, pred, obj) edge, up to ``k`` corrupted-object triples
    ``(subj_id, pred, neg_obj_id)`` — objects drawn DETERMINISTICALLY
    from the sorted entity universe by the SQL-mirrorable md5-60 hash
    (layout-independent, engine-reproducible, replayed exactly by the
    driver's DuckDB oracle; no RNG state anywhere), then true edges and
    self-corruptions are removed by one composite-key anti-join
    (``relational.membership_join``), so a sample can yield < k
    negatives but never a false one. The standard corrupt-tail
    generator for TransE-style link-prediction training.

    The node universe broadcasts under membership_join's guard (it is
    O(entities) — the KG's small table by construction); raw edges
    shuffle once for the distinct pass."""
    import numpy as np
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..schema import stable_hash64
    from .relational import membership_join

    pos = bucket_group_apply(
        edges.map_batches(
            lambda t: t.select(["subj_id", "pred", "obj_id"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "subj_id",
        lambda t: pl.from_arrow(t).unique().to_arrow().cast(
            pa.schema(
                [
                    ("subj_id", pa.string()),
                    ("pred", pa.string()),
                    ("obj_id", pa.string()),
                ]
            )
        ),
        num_buckets=num_buckets,
    ).materialize()

    def _nodes(t: pa.Table) -> pa.Table:
        import numpy as np

        u = np.unique(
            np.concatenate(
                [
                    t["subj_id"].to_numpy(zero_copy_only=False),
                    t["obj_id"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"node": pa.array(u, pa.string())})

    universe = np.sort(
        np.unique(
            np.concatenate(
                [
                    t["node"].to_numpy(zero_copy_only=False)
                    for t in ray.get(
                        pos.map_batches(
                            _nodes,
                            batch_format="pyarrow",
                            zero_copy_batch=True,
                        ).to_arrow_refs()
                    )
                    if t.num_rows
                ]
            )
            if pos.count()
            else [np.empty(0, dtype=object)]
        )
    )  # documented broadcast: O(entities), the KG's small table
    uni_ref = ray.put(universe) if ray.is_initialized() else universe

    def _candidates(t: pa.Table) -> pa.Table:
        import numpy as np

        from ..schema import md5_60

        uni = ray.get(uni_ref) if isinstance(uni_ref, ray.ObjectRef) else uni_ref
        if not t.num_rows or not len(uni):
            return pa.table(
                {
                    "subj_id": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "obj_id": pa.array([], pa.string()),
                }
            )
        s = t["subj_id"].to_numpy(zero_copy_only=False)
        p = t["pred"].to_numpy(zero_copy_only=False)
        o = t["obj_id"].to_numpy(zero_copy_only=False)
        subs, preds, negs = [], [], []
        for i in range(k):
            key = np.char.add(
                np.char.add(s.astype(str), f"\x1f{seed}\x1f{i}\x1f"),
                np.char.add(p.astype(str), o.astype(str)),
            )
            # md5-60 (schema.md5_60, the SQL-mirrorable hash family) so
            # the driver oracle replays the identical draws; a
            # vectorized 64-bit hash is the drop-in at 10¹²-edge scale
            # if oracle parity is not needed
            idx = md5_60(key).astype(np.uint64) % np.uint64(len(uni))
            cand = uni[idx.astype(np.int64)]
            keep = cand != s  # self-corruption out immediately
            subs.append(s[keep])
            preds.append(p[keep])
            negs.append(cand[keep])
        return pa.table(
            {
                "subj_id": pa.array(np.concatenate(subs), pa.string()),
                "pred": pa.array(np.concatenate(preds), pa.string()),
                "obj_id": pa.array(np.concatenate(negs), pa.string()),
            }
        )

    cand = pos.map_batches(
        _candidates, batch_format="pyarrow", zero_copy_batch=True
    )

    def _with_key(ds):
        return ds.map_batches(
            lambda t: t.append_column(
                "_k",
                pc.binary_join_element_wise(
                    t["subj_id"], t["pred"], t["obj_id"], "\x1f"
                ),
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    neg = membership_join(_with_key(cand), _with_key(pos), on="_k", anti=True)
    # distinct triples need co-location (two positives can corrupt to the
    # same negative from different blocks) — one subj-bucketed dedup
    return bucket_group_apply(
        neg,
        "subj_id",
        lambda t: pl.from_arrow(t.drop_columns(["_k"]))
        .unique()
        .to_arrow()
        .cast(
            pa.schema(
                [
                    ("subj_id", pa.string()),
                    ("pred", pa.string()),
                    ("obj_id", pa.string()),
                ]
            )
        ),
        num_buckets=num_buckets,
    )


def pred_daily(
    triples: ray.data.Dataset, *, num_buckets: int = 8
) -> ray.data.Dataset:
    """KG-construction observability: per (pred, day) — assertion count
    and the EXACT number of distinct conversations asserting it — rows
    ``(pred, day:date32, n_assertions:int64, n_convs:int64)``. The
    time-series a continuous-ingest KG build publishes to catch
    extraction drift (a predicate's daily volume collapsing or a single
    conversation flooding a relation).

    Dataflow: a per-block combiner collapses to distinct
    (pred, day, conv_id) rows with a local count, then ONE pred-bucketed
    shuffle makes each predicate's rows co-resident so ``n_unique(conv)``
    per (pred, day) is exact — the text/surfaces never move, only
    (pred, day, conv_id, n) partials."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    out_schema = pa.schema(
        [
            ("pred", pa.string()),
            ("day", pa.date32()),
            ("n_assertions", pa.int64()),
            ("n_convs", pa.int64()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [
                    ("pred", pa.string()),
                    ("day", pa.date32()),
                    ("conv_id", pa.string()),
                    ("n", pa.int64()),
                ]
            ).empty_table()
        return (
            pl.from_arrow(t.select(["pred", "ts", "conv_id"]))
            .with_columns(pl.col("ts").dt.date().alias("day"))
            .group_by(["pred", "day", "conv_id"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .select(["pred", "day", "conv_id", "n"])
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            # collapse same (pred, day, conv) partials from different
            # blocks first, then count conversations exactly
            .group_by(["pred", "day", "conv_id"])
            .agg(pl.col("n").sum())
            .group_by(["pred", "day"])
            .agg(
                pl.col("n").sum().alias("n_assertions"),
                pl.len().cast(pl.Int64).alias("n_convs"),
            )
            .select(["pred", "day", "n_assertions", "n_convs"])
            .to_arrow()
            .cast(out_schema)
        )

    partials = triples.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "pred", _merge, num_buckets=num_buckets)


def merge_edges(
    *edge_sets: ray.data.Dataset,
    num_buckets: int = DEFAULT_WRITE_PARTS,
) -> ray.data.Dataset:
    """Incremental KG maintenance: merge EDGE tables from separate ingest
    batches into one — per (subj_id, pred, obj_id): weight sums,
    first_ts min, last_ts max, ``part`` recomputed from the merged
    subject. The edge aggregate is a commutative monoid, so
    ``merge_edges(build_edges(A), build_edges(B)) == build_edges(A ∪ B)``
    EXACTLY — the invariant that lets a continuous-ingest deployment
    build edges per arriving batch and fold them into the standing graph
    without ever reprocessing history (pinned end-to-end by the
    kg_edges_incremental driver query against the full-corpus oracle).

    Same shape as `build_edges`: per-block combiner (≤ one row per
    distinct edge per block) → one subj-bucketed merge."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    ds = edge_sets[0]
    for other in edge_sets[1:]:
        ds = ds.union(other)

    def _combine(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(
                t.select(
                    ["subj_id", "pred", "obj_id", "weight",
                     "first_ts", "last_ts"]
                )
            )
            .group_by(["subj_id", "pred", "obj_id"])
            .agg(
                pl.col("weight").sum(),
                pl.col("first_ts").min(),
                pl.col("last_ts").max(),
            )
            .to_arrow()
        )

    partial = ds.map_batches(
        _combine, batch_format="pyarrow", zero_copy_batch=True
    )

    def _reduce(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t)
            .group_by(["subj_id", "pred", "obj_id"])
            .agg(
                pl.col("weight").sum(),
                pl.col("first_ts").min(),
                pl.col("last_ts").max(),
            )
            .to_arrow()
        )
        part = pa.array(
            stable_bucket(
                out["subj_id"].to_numpy(zero_copy_only=False), num_buckets
            ),
            pa.int32(),
        )
        return pa.table(
            {
                "subj_id": out["subj_id"],
                "pred": out["pred"],
                "obj_id": out["obj_id"],
                "weight": pc.cast(out["weight"], pa.int64()),
                "first_ts": out["first_ts"],
                "last_ts": out["last_ts"],
                "part": part,
            }
        ).cast(EDGES)

    return bucket_group_apply(partial, "subj_id", _reduce, num_buckets=num_buckets)


def ego_subgraph(
    edges: ray.data.Dataset,
    *,
    source: str | None = None,
    hops: int = 2,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Induced k-hop ego network: the weighted edges whose BOTH endpoints
    lie within ``hops`` undirected hops of ``source`` (default: the
    lexicographic min node id, the same deterministic convention as
    `bfs_distances`) — rows ``(subj_id, pred, obj_id, weight)``. The
    subgraph a KG serves for an entity page / local-context retrieval.

    Dataflow: `bfs_distances` bounds the frontier iterations (per hop
    only (node, dist) pairs move), then the node set semi-filters the
    edge table twice via `relational.membership_join` (broadcast under
    guard, co-bucketed above) — the edge table itself never shuffles in
    the broadcast regime."""
    from ..stages.relational import membership_join

    nodes = bfs_distances(
        edges, source=source, max_hops=hops, num_partitions=num_partitions
    ).map_batches(
        lambda t: t.select(["node"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    e1 = membership_join(edges, nodes, on="subj_id", right_on="node")
    e2 = membership_join(e1, nodes, on="obj_id", right_on="node")
    return e2.map_batches(
        lambda t: t.select(["subj_id", "pred", "obj_id", "weight"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def minimum_spanning_forest(
    edges: ray.data.Dataset,
    *,
    weight_col: str = "weight",
    max_rounds: int = 12,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed Borůvka: the minimum spanning forest of the
    undirected KG — rows ``(u, v, cost)``, one per forest edge, with
    ``u < v``, ``cost`` = the int64 edge weight, ordered by
    ``(cost, u, v)``.

    Ties are broken by the strict total order (cost, u||'|'||v) — the
    classic lexicographic perturbation that makes the forest UNIQUE and
    therefore identical to Kruskal's under the same order (pinned in
    tests against an in-process union-find Kruskal).

    Each round is Borůvka's "every component grabs its cheapest
    outgoing edge, then contract":

    1. annotate every edge with its endpoints' component labels (two
       ``join_auto`` exchanges — only (node, label) pairs move; the
       label side broadcasts while it fits);
    2. per component, the minimum (cost, u, v) edge via the salted
       per-block min combiner (`canonical._salted_min`) over BOTH
       endpoint components — no component's candidate list ever sits
       on one reducer;
    3. the selected edge keys semi-filter the cross-component edge set
       back to full rows (`membership_join`), join the forest output;
    4. the selected (comp_u, comp_v) pairs contract through
       `connected_components` (a components-sized graph, geometrically
       shrinking), and node labels recompose through one more
       ``join_auto``.

    O(log V) rounds, each moving O(E) int64/str pairs — never an
    all-pairs or a driver collect; the per-round `materialize()` of the
    label table is component-map-sized, the same seam the CC stage
    documents."""
    import polars as pl

    from ..stages.relational import membership_join
    from .canonical import _salted_min, connected_components

    num_partitions = num_partitions or default_partitions()

    def _canon(t: pa.Table) -> pa.Table:
        u = pc.min_element_wise(t["subj_id"], t["obj_id"])
        v = pc.max_element_wise(t["subj_id"], t["obj_id"])
        keep = pc.not_equal(u, v)
        cost = pc.cast(t[weight_col], pa.int64())
        out = pa.table({"u": u, "v": v, "cost": cost}).filter(keep)
        # one row per (u, v): parallel edges keep the cheapest now so
        # later rounds never re-ship duplicates
        return (
            pl.from_arrow(out)
            .group_by(["u", "v"])
            .agg(pl.col("cost").min())
            .to_arrow()
        )

    def _with_key(t: pa.Table) -> pa.Table:
        # sortable selection key: zero-padded cost then "u|v" — a strict
        # total order on edges (string compare after equal costs)
        df = pl.from_arrow(t)
        df = df.with_columns(
            (
                pl.col("cost").cast(pl.Utf8).str.zfill(19)
                + pl.lit("|")
                + pl.col("u")
                + pl.lit("|")
                + pl.col("v")
            ).alias("key")
        )
        return df.to_arrow()

    def _merge_uv(t: pa.Table) -> pa.Table:
        # global (u, v) min-merge: the per-block combiner above leaves
        # equal-cost parallel edges in DIFFERENT blocks sharing a key,
        # and the round's key semi-join would emit both (duplicate
        # forest rows) — one u-bucketed exchange of the already-reduced
        # pairs makes (u, v) unique corpus-wide
        return (
            pl.from_arrow(t)
            .group_by(["u", "v"])
            .agg(pl.col("cost").min())
            .to_arrow()
        )

    from ..functions.shuffle import bucket_group_apply

    base = (
        bucket_group_apply(
            edges.map_batches(
                _canon, batch_format="pyarrow", zero_copy_batch=True
            ),
            "u",
            _merge_uv,
            num_buckets=num_partitions,
        )
        .map_batches(_with_key, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    # labels: node -> component (init: itself)
    labels = _salted_min(
        base.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.concat_arrays(
                        [t["u"].combine_chunks(), t["v"].combine_chunks()]
                    ),
                    "label": pa.concat_arrays(
                        [t["u"].combine_chunks(), t["v"].combine_chunks()]
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "node",
        "label",
        num_salts=16,
    ).materialize()

    forest_parts: list[ray.data.Dataset] = []
    live = base
    for _ in range(max_rounds):
        cu = join_auto(
            live,
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "cu": t["label"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            on=("u",),
            right_on=("node",),
            num_partitions=num_partitions,
        )
        both = join_auto(
            cu,
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "cv": t["label"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            on=("v",),
            right_on=("node",),
            num_partitions=num_partitions,
        )
        cross = both.filter(expr="cu != cv").materialize()
        if cross.count() == 0:
            break

        # each endpoint component nominates the edge; min per component
        cand = cross.map_batches(
            lambda t: pa.table(
                {
                    "comp": pa.concat_arrays(
                        [t["cu"].combine_chunks(), t["cv"].combine_chunks()]
                    ),
                    "key": pa.concat_arrays(
                        [t["key"].combine_chunks(), t["key"].combine_chunks()]
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        picked = _salted_min(cand, "comp", "key", num_salts=16)
        # distinct selected keys (an edge may win from both sides)
        keys = _salted_min(
            picked.map_batches(
                lambda t: pa.table({"node": t["key"], "label": t["key"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            "node",
            "label",
            num_salts=16,
        ).map_batches(
            lambda t: pa.table({"key": t["node"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        chosen = membership_join(cross, keys, on="key", right_on="key")
        forest_parts.append(
            chosen.map_batches(
                lambda t: t.select(["u", "v", "cost", "cu", "cv"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize()
        )

        # contract: CC over the selected (cu, cv) pairs relabels comps
        comp_edges = forest_parts[-1].map_batches(
            lambda t: pa.table({"src": t["cu"], "dst": t["cv"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        ccmap = connected_components(
            comp_edges, num_partitions=num_partitions
        )
        labels = join_auto(
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "comp": t["label"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            ccmap.map_batches(
                lambda t: pa.table({"c_old": t["node"], "c_new": t["label"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            on=("comp",),
            right_on=("c_old",),
            join_type="left_outer",
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    # comps untouched by this round keep their label
                    "label": pc.coalesce(t["c_new"], t["comp"]),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        live = cross.map_batches(
            lambda t: t.select(["u", "v", "cost", "key"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    if not forest_parts:
        return ray.data.from_arrow(
            pa.table(
                {
                    "u": pa.array([], pa.string()),
                    "v": pa.array([], pa.string()),
                    "cost": pa.array([], pa.int64()),
                }
            )
        )
    out = forest_parts[0]
    for p in forest_parts[1:]:
        out = out.union(p)
    return (
        out.map_batches(
            lambda t: t.select(["u", "v", "cost"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(["cost", "u", "v"])
    )


@_on_empty_graph(a=pa.string(), b=pa.string())
def ktruss(
    edges: ray.data.Dataset,
    *,
    k: int = 4,
    num_buckets: int = 32,
    max_iters: int = 30,
) -> ray.data.Dataset:
    """Maximal k-TRUSS of the undirected simple graph underlying the KG
    edge table — rows ``(a, b)`` with ``a < b``: the largest subgraph
    in which every edge sits in ≥ k−2 triangles OF THAT SUBGRAPH.
    The standard iterative peel: compute per-edge triangle support,
    drop the under-supported edges, recompute on the survivors, repeat
    to fixpoint (cohesive-subgraph mining's workhorse).

    Each round is one :func:`_triangle_support` over the survivors
    (degree-ordered wedges, so hubs never go quadratic) and one semi
    join keeping the edges with support ≥ k−2. Rounds are bounded by
    ``max_iters``; each peels at least one edge or terminates, and real
    graphs converge in a handful."""
    from .relational import membership_join

    need = k - 2
    und = _undirected(edges, num_buckets).materialize()
    n_edges = und.count()
    if need <= 0:
        # k ≤ 2: every edge trivially qualifies (0 triangles needed) —
        # and the support table only covers triangle edges, so peeling
        # would wrongly drop triangle-free edges
        max_iters = 0
    for _ in range(max_iters):
        if n_edges == 0:
            break
        support = _triangle_support(und, num_buckets)
        good = support.filter(expr=f"sup >= {need}").map_batches(
            lambda t: t.select(["key"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        if good.count() == 0:
            # nothing has enough support — the truss is empty (an
            # all-empty Dataset has no schema, which the house shuffle
            # can't bucket, so short-circuit instead of joining)
            n_edges = 0
            break
        survivors = membership_join(
            und, good, on="key", num_buckets=num_buckets
        ).materialize()
        n_next = survivors.count()
        if n_next == n_edges:
            break
        und, n_edges = survivors, n_next

    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        )
    return und.map_batches(
        lambda t: t.select(["a", "b"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).sort(["a", "b"])


@_on_empty_graph(start=_LS, walk=_I64, step=_I64, node=_LS)
def random_walks(
    edges: ray.data.Dataset,
    *,
    n_walks: int = 2,
    length: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Deterministic hash-driven random walks over the undirected KG —
    rows ``(start, walk, step, node)`` for every node, ``n_walks``
    walks, steps 0..``length`` — the walk-corpus generator feeding
    DeepWalk/node2vec-style embedding training (Perozzi et al., KDD
    2014), made REPRODUCIBLE: at node v on step t of walk w the next
    hop is neighbor ``md5_60(v|t|w) mod deg(v)`` in dst-sorted order,
    the house md5-prefix convention that a recursive SQL CTE mirrors
    bit-exactly (hash-exact oracle — rare for a graph-ML sampler).

    Dataflow: adjacency ranks once (one src-bucketed shuffle, then
    reused every step from plasma); each step moves only the frontier —
    (node, deg) lookup then a composite-key ``join_auto`` against
    (src, rank) — O(V·n_walks) rows per step, never the edge set."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..schema import md5_60

    num_partitions = num_partitions or default_partitions()

    def _rank(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [("src", _LS), ("dst", _LS), ("rnk", _I64), ("deg", _I64)]
            ).empty_table()
        return (
            pl.from_arrow(t)
            .unique()
            .sort(["src", "dst"])
            .with_columns(
                rnk=pl.int_range(pl.len()).over("src").cast(pl.Int64),
                deg=pl.len().over("src").cast(pl.Int64),
            )
            .to_arrow()
        )

    adj = bucket_group_apply(
        _symmetric(edges), "src", _rank, num_buckets=num_partitions
    ).materialize()

    deg = adj.filter(expr="rnk == 0").map_batches(
        lambda t: t.select(["src", "deg"]).rename_columns(["node", "deg"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nbr = adj.map_batches(
        lambda t: t.select(["src", "rnk", "dst"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _starts(t: pa.Table) -> pa.Table:
        # large_string like the later steps' ``node`` (polars output), so
        # every frontier part has one schema
        nodes = t["node"].to_pylist()
        starts = pa.array([n for n in nodes for _ in range(n_walks)], _LS)
        return pa.table(
            {
                "start": starts,
                "walk": pa.array(
                    [w for _ in nodes for w in range(n_walks)], pa.int64()
                ),
                "step": pa.array([0] * (len(nodes) * n_walks), pa.int64()),
                "node": starts,
            }
        )

    frontier = deg.map_batches(
        _starts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    out_parts = [frontier]

    for t_step in range(length):

        def _pick(t: pa.Table, _t=t_step) -> pa.Table:
            # md5_60 of the "node|step|walk" string, built in Arrow
            seed = pc.binary_join_element_wise(
                pc.cast(t["node"], pa.string()),
                str(_t),
                pc.cast(t["walk"], pa.string()),
                "|",
            )
            deg = t["deg"].to_numpy()
            return pa.table(
                {
                    "start": t["start"],
                    "walk": t["walk"],
                    "node": t["node"],
                    "pick": pa.array(md5_60(seed) % deg, pa.int64()),
                }
            )

        with_deg = join_auto(
            frontier,
            deg,
            on=("node",),
            num_partitions=num_partitions,
        ).map_batches(_pick, batch_format="pyarrow", zero_copy_batch=True)
        frontier = (
            join_auto(
                with_deg,
                nbr,
                on=("node", "pick"),
                right_on=("src", "rnk"),
                num_partitions=num_partitions,
            )
            .map_batches(
                lambda t, _t=t_step: pa.table(
                    {
                        "start": t["start"],
                        "walk": t["walk"],
                        "step": pa.array(
                            [_t + 1] * t.num_rows, pa.int64()
                        ),
                        "node": t["dst"],
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .materialize()
        )
        out_parts.append(frontier)

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out.sort(["start", "walk", "step"])


def object_conflicts(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """KG integrity monitor: (subj, pred) pairs asserting MORE THAN ONE
    distinct object → ``(subj_id, pred, n_objs, min_obj, max_obj)``,
    sorted. For functional relations (born-in, capital-of…) every row
    here is a contradiction to triage — the report a KG build publishes
    next to its ontology.

    Exact distinct by decomposition: per-block distinct (subj, pred,
    obj) triples → ONE subj-bucketed merge where the distinct-object
    count and extrema compute vectorized per group. Distinct triples
    move once; assertions never re-shuffle."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _distinct(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["subj_id", "pred", "obj_id"]))
            .unique()
            .to_arrow()
        )

    def _conflicts(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("subj_id", pa.string()),
                ("pred", pa.string()),
                ("n_objs", pa.int64()),
                ("min_obj", pa.string()),
                ("max_obj", pa.string()),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .unique()
            .group_by(["subj_id", "pred"])
            .agg(
                pl.col("obj_id").n_unique().cast(pl.Int64).alias("n_objs"),
                pl.col("obj_id").min().alias("min_obj"),
                pl.col("obj_id").max().alias("max_obj"),
            )
            .filter(pl.col("n_objs") > 1)
            .to_arrow()
            .cast(out_schema)
        )

    partial = edges.map_batches(
        _distinct, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "subj_id", _conflicts, num_buckets=num_buckets
    ).sort(["subj_id", "pred"])


def pred_functionality(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Per-predicate FUNCTIONALITY audit → ``(pred, n_subjects,
    n_functional)``: how many distinct subjects assert the predicate,
    and how many of them have exactly one distinct object — the
    integer signal that separates functional relations from
    multi-valued ones during schema induction (consumer divides for
    the score; the dataflow stays pure ints).

    Same distinct-triple decomposition as :func:`object_conflicts`,
    then a pred-keyed combiner over the per-(subj, pred) counts (one
    row per pair, dimension-sized)."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    def _distinct(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["subj_id", "pred", "obj_id"]))
            .unique()
            .to_arrow()
        )

    def _per_pair(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("pred", pa.string()), ("subj_id", pa.string()), ("n_objs", pa.int64())]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .unique()
            .group_by(["pred", "subj_id"])
            .agg(pl.col("obj_id").n_unique().cast(pl.Int64).alias("n_objs"))
            .to_arrow()
            .cast(out_schema)
        )

    pairs = bucket_group_apply(
        edges.map_batches(
            _distinct, batch_format="pyarrow", zero_copy_batch=True
        ),
        "subj_id",
        _per_pair,
        num_buckets=num_buckets,
    )

    def _partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("pred")
            .agg(
                pl.len().cast(pl.Int64).alias("n_subjects"),
                (pl.col("n_objs") == 1)
                .sum()
                .cast(pl.Int64)
                .alias("n_functional"),
            )
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("pred")
            .agg(
                pl.col("n_subjects").sum(),
                pl.col("n_functional").sum(),
            )
            .to_arrow()
        )

    partial = pairs.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "pred", _merge, num_buckets=4
    ).sort("pred")


_WIDE_SENTINEL = 1 << 62


def widest_distances(
    edges: ray.data.Dataset,
    *,
    source: str | None = None,
    max_hops: int = 4,
    weight_col: str = "weight",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Bounded-hop WIDEST-PATH (max-min bottleneck) distances from one
    source over the undirected weighted KG — rows ``(node, width)``
    where width = the MAXIMUM over ≤``max_hops``-edge paths of the
    MINIMUM edge weight along the path (the (max, min) semiring:
    network capacity, trust propagation). Source defaults to the
    lexicographic-min node; integer weights → integer widths, so the
    recursive-CTE oracle is hash-exact.

    Same relax/merge skeleton as :func:`sssp_distances` with the
    semiring swapped: labels store the NEGATED width so the house
    salted-MIN combiner performs the max-merge; relaxation is
    ``max(S_src, −w)`` (≡ width min(W, w)); the source's sentinel init
    absorbs every cycle path back into it, so the output is exactly
    the reachable non-source nodes — mirrored by the oracle's
    source-exclusion."""
    import pyarrow.compute as _pc

    from .canonical import _salted_min, default_partitions

    num_partitions = num_partitions or default_partitions()

    sym = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        t["obj_id"].combine_chunks(),
                        t["subj_id"].combine_chunks(),
                    ]
                ),
                "w": pa.concat_arrays(
                    [
                        t[weight_col].combine_chunks().cast(pa.int64()),
                        t[weight_col].combine_chunks().cast(pa.int64()),
                    ]
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    if source is None:
        mins = sym.map_batches(
            lambda t: pa.table(
                {"m": pa.array([_pc.min(t["src"]).as_py()], pa.string())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()  # one row per block — tiny by construction
        source = min(r["m"] for r in mins if r["m"] is not None)

    labels = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([source], pa.string()),
                # S = -width; source starts at -SENTINEL (width "∞")
                "s": pa.array([-_WIDE_SENTINEL], pa.int64()),
            }
        )
    )
    for _ in range(max_hops):
        prop = join_auto(
            sym,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["dst"],
                    # S_new = max(S_src, -w)  ⇔  width = min(width, w)
                    "s": _pc.max_element_wise(
                        t["s"], _pc.negate_checked(t["w"])
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = _salted_min(
            labels.union(prop), "node", "s"
        ).materialize()

    return labels.filter(expr=f"s != {-_WIDE_SENTINEL}").map_batches(
        lambda t: pa.table(
            {"node": t["node"], "width": _pc.negate_checked(t["s"])}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def skipgram_pairs(
    walks: ray.data.Dataset,
    *,
    window: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Skip-gram training pairs over a walk corpus — rows ``(center,
    context, cnt)``: for every walk, all ordered node pairs within
    ``window`` steps of each other, counted corpus-wide (the exact
    input word2vec-style embedding training consumes downstream of
    :func:`random_walks`; DeepWalk's "walks are sentences").

    One start-bucketed shuffle co-locates each start's walks; the
    within-walk window join is a vectorized polars self-join per
    bucket emitting per-bucket (center, context) partial counts; a
    second tiny center-bucketed merge adds them. Pure ints."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    OUT = pa.schema(
        [
            ("center", pa.string()),
            ("context", pa.string()),
            ("cnt", pa.int64()),
        ]
    )

    def _pairs(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        df = pl.from_arrow(t.select(["start", "walk", "step", "node"]))
        j = df.join(df, on=["start", "walk"], suffix="_r")
        j = j.filter(
            (pl.col("step") != pl.col("step_r"))
            & ((pl.col("step") - pl.col("step_r")).abs() <= window)
        )
        return (
            j.group_by(
                pl.col("node").alias("center"),
                pl.col("node_r").alias("context"),
            )
            .agg(pl.len().cast(pl.Int64).alias("cnt"))
            .to_arrow()
            .cast(OUT)
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by(["center", "context"])
            .agg(pl.col("cnt").sum())
            .to_arrow()
            .cast(OUT)
        )

    partial = bucket_group_apply(
        walks, "start", _pairs, num_buckets=num_buckets
    )
    return bucket_group_apply(
        partial, "center", _merge, num_buckets=num_buckets
    ).sort(["center", "context"])


def path_counts(
    edges: ray.data.Dataset,
    *,
    source: str | None = None,
    max_hops: int = 4,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Bounded-hop WALK counts from one source over the undirected KG —
    rows ``(node, n_paths)`` where n_paths = the number of distinct
    ≤``max_hops``-edge walks from the source ending at the node
    (counting semiring; with SSSP's (min, +) and widest-path's
    (max, min) this completes the semiring trio on one relax/merge
    skeleton). Source defaults to the lexicographic-min node. Exact
    integers, recursive-CTE oracle (hop-capped walk enumeration).

    Per round: one ``join_auto`` of the symmetric edge set against the
    CURRENT frontier (walks of length exactly r), a per-block partial
    SUM combiner, one tiny bucketed merge — walk multiplicity is summed
    per node, never enumerated. Counts grow with walks (deg^h); the
    hop cap bounds them exactly like the oracle."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from .canonical import default_partitions

    num_partitions = num_partitions or default_partitions()

    sym = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        t["subj_id"].combine_chunks(),
                        t["obj_id"].combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        t["obj_id"].combine_chunks(),
                        t["subj_id"].combine_chunks(),
                    ]
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    if source is None:
        mins = sym.map_batches(
            lambda t: pa.table(
                {"m": pa.array([pc.min(t["src"]).as_py()], pa.string())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()
        source = min(r["m"] for r in mins if r["m"] is not None)

    def _sum_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [("node", pa.string()), ("n", pa.int64())]
            ).empty_table()
        return (
            pl.from_arrow(t)
            .group_by("node")
            .agg(pl.col("n").sum())
            .to_arrow()
        )

    frontier = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([source], pa.string()),
                "n": pa.array([1], pa.int64()),
            }
        )
    )
    totals: list[ray.data.Dataset] = []
    for _ in range(max_hops):
        prop = join_auto(
            sym,
            frontier,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table({"node": t["dst"], "n": t["n"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        frontier = bucket_group_apply(
            prop.map_batches(
                _sum_merge, batch_format="pyarrow", zero_copy_batch=True
            ),
            "node",
            _sum_merge,
            num_buckets=min(num_partitions, 16),
        ).materialize()
        totals.append(frontier)

    out = totals[0]
    for p in totals[1:]:
        out = out.union(p)
    return bucket_group_apply(
        out.map_batches(
            lambda t: pa.table({"node": t["node"], "n_paths": t["n"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "node",
        lambda t: (
            pl.from_arrow(t).group_by("node").agg(pl.col("n_paths").sum()).to_arrow()
            if t.num_rows
            else pa.schema(
                [("node", pa.string()), ("n_paths", pa.int64())]
            ).empty_table()
        ),
        num_buckets=8,
    )


def entity_churn(
    rewritten: ray.data.Dataset, *, num_buckets: int = 16
) -> ray.data.Dataset:
    """Temporal-KG growth report: per assertion day, how many DISTINCT
    entities were active and how many were seen for the FIRST time →
    ``(day, n_active, n_new)`` — the churn-in curve a continuous-ingest
    KG publishes (flat n_new on a growing corpus means the extractor
    stopped discovering; an n_new spike means a vocabulary shift).

    Both endpoints of every canonicalized triple explode to per-block
    distinct (entity, day) pairs; ONE entity-bucketed shuffle makes an
    entity's day set co-resident so first-seen is exact; day partials
    merge in a second tiny exchange. Dates only — text never moves."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    OUT = pa.schema(
        [("day", pa.date32()), ("n_active", pa.int64()), ("n_new", pa.int64())]
    )

    def _pairs(t: pa.Table) -> pa.Table:
        ent = pa.concat_arrays(
            [t["subj_id"].combine_chunks(), t["obj_id"].combine_chunks()]
        )
        ts = t["ts"].combine_chunks()
        ts2 = pa.concat_arrays([ts, ts])
        return (
            pl.from_arrow(pa.table({"entity": ent, "ts": ts2}))
            .with_columns(day=pl.col("ts").dt.date())
            .select(["entity", "day"])
            .unique()
            .to_arrow()
        )

    def _first_seen(t: pa.Table) -> pa.Table:
        sch = pa.schema(
            [("day", pa.date32()), ("n_active", pa.int64()),
             ("n_new", pa.int64())]
        )
        if not t.num_rows:
            return sch.empty_table()
        df = pl.from_arrow(t).unique()
        df = df.with_columns(
            first=pl.col("day").min().over("entity")
        )
        return (
            df.group_by("day")
            .agg(
                pl.len().cast(pl.Int64).alias("n_active"),
                (pl.col("day") == pl.col("first"))
                .sum()
                .cast(pl.Int64)
                .alias("n_new"),
            )
            .to_arrow()
            .cast(sch)
        )

    def _day_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("day")
            .agg(pl.col("n_active").sum(), pl.col("n_new").sum())
            .to_arrow()
            .cast(OUT)
        )

    pairs = rewritten.map_batches(
        _pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    per_entity = bucket_group_apply(
        pairs, "entity", _first_seen, num_buckets=num_buckets
    )
    return bucket_group_apply(
        per_entity, "day", _day_merge, num_buckets=4
    ).sort("day")


@_on_empty_graph(a=_LS, b=_LS, support=_I64)
def edge_support(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Edge EMBEDDEDNESS: for every undirected simple edge, the number
    of common neighbors of its endpoints (= triangles through the edge)
    → ``(a, b, support)``, sorted — Granovetter tie strength; support 0
    marks local bridges. :func:`_triangle_support` over the
    :func:`_undirected` edges, reported per edge: a LEFT join keeps
    triangle-free edges at 0."""
    und = _undirected(edges, num_buckets).materialize()
    out = join_auto(
        und, _triangle_support(und, num_buckets), on=("key",),
        join_type="left_outer",
    ).map_batches(
        lambda t: pa.table(
            {
                "a": t["a"],
                "b": t["b"],
                "support": pc.fill_null(
                    pc.cast(t["sup"], pa.int64()), 0
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return out.sort(["a", "b"])


def edge_lift(
    edges: ray.data.Dataset, *, num_buckets: int = 8
) -> ray.data.Dataset:
    """Association-strength triple confidence: per directed edge, the
    LIFT of its endpoint pair over the assertion stream —
    ``lift = P(s,o) / (P(s)·P(o))`` where P counts assertion
    multiplicity (edge ``weight``), i.e. how much more often ``s`` and
    ``o`` are asserted together than independence predicts. The
    standard statistical triple-confidence / association-rule score a
    KG-construction pipeline uses to rank candidate facts before
    acceptance (high lift = specific association; ~1 = coincidence of
    two hubs).

    Emitted as EXACT integers so the DuckDB oracle compare is
    float-free: ``lift_e6 = weight·N·10⁶ ÷ (n_s·n_o)`` (integer
    division; N = total assertions, n_s/n_o = the endpoint's total
    subject-side/object-side assertion mass).

    Shape: the subject/object masses re-aggregate the ALREADY-GROUPED
    edge table (|nodes|-sized results — the fact stream never moves
    twice), N is one tiny fan-in scalar, and both mass tables ride
    ``join_auto`` (broadcast at node scale, co-bucketed hash join
    above the guard). int64 fixed-point holds to N·weight·10⁶ < 2⁶³ —
    at 10¹²-assertion scale move the product to decimal128 (pyarrow
    ``decimal128(38)``; DuckDB HUGEINT mirrors it) — the division
    itself stays exact either way."""
    from .relational import grouped_summary

    e = edges.select_columns(["subj_id", "pred", "obj_id", "weight"])

    sw = grouped_summary(
        e, by=["subj_id"], aggs={"n_s": ("weight", "sum")},
        num_buckets=num_buckets,
    )
    ow = grouped_summary(
        e, by=["obj_id"], aggs={"n_o": ("weight", "sum")},
        num_buckets=num_buckets,
    )

    def _partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"n": pa.array([pc.sum(t["weight"]).as_py() or 0], pa.int64())}
        )

    total = (
        e.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(
            lambda t: pa.table(
                {"n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )
    n_total = total[0]["n"] if total else 0

    j = join_auto(e, sw, on=("subj_id",))
    j = join_auto(j, ow, on=("obj_id",))

    def _lift(t: pa.Table) -> pa.Table:
        num = pc.multiply(
            pc.multiply(t["weight"], pa.scalar(n_total, pa.int64())),
            pa.scalar(1_000_000, pa.int64()),
        )
        den = pc.multiply(t["n_s"], t["n_o"])
        return pa.table(
            {
                "subj_id": t["subj_id"],
                "pred": t["pred"],
                "obj_id": t["obj_id"],
                "weight": t["weight"],
                "n_s": t["n_s"],
                "n_o": t["n_o"],
                # pyarrow int64 divide truncates — exactly DuckDB's `//`
                # on the all-positive operands here
                "lift_e6": pc.divide(num, den),
            }
        )

    out = j.map_batches(_lift, batch_format="pyarrow", zero_copy_batch=True)
    return out.sort(
        ["lift_e6", "subj_id", "pred", "obj_id"],
        descending=[True, False, False, False],
    )


def betweenness_centrality(
    edges: ray.data.Dataset,
    *,
    n_sources: int = 8,
    max_hops: int = 6,
    num_buckets: int = 16,
    fixed_point: bool = False,
    scale: int = 10**6,
) -> ray.data.Dataset:
    """Sampled BRANDES betweenness centrality over the undirected
    SIMPLE graph underlying the KG → ``(node, betweenness:float64)``
    (nonzero rows; sorted desc, node tiebreak). The standard
    "who brokers the graph" centrality, estimated from ``n_sources``
    deterministic pivots (the smallest node ids in md5-60 order —
    reproducible without an RNG, and unbiased where lexicographic id
    order would correlate with entity-type prefixes) exactly as
    Brandes' sampling variant prescribes; with every node as a source
    it IS exact Brandes (pinned against an in-process oracle in
    pytest).

    Distributed as two level-synchronous passes, all on `join_auto` +
    the house bucketed shuffle — never an all-pairs anything:

    - FORWARD (multi-source simultaneous BFS with path counting): the
      state is (source, node, σ) rows; each hop joins the frontier
      against the symmetrized edge list, sums σ per (source, node) in
      a combiner→bucket merge, and anti-joins the visited set — per
      hop only frontier-sized rows move. σ is exact int64.
    - BACKWARD (dependency accumulation): processing levels deepest
      first, each node's δ contribution ``σ_v/σ_w · (1 + δ_w)`` flows
      across one edge join to its level-(d−1) predecessors and sums in
      the same combiner shape. bc(v) = Σ_sources δ(v), v ≠ source.

    ``max_hops`` truncates: betweenness w.r.t. shortest paths of ≤
    max_hops edges (set ≥ the effective diameter — see
    :func:`effective_diameter` — and the truncation is exact).
    Partitioning assumption: one (source, node) level's rows fit a
    reducer after bucketing — frontier size is ≤ n_sources · |V|, and
    n_sources bounds the whole state, which is what makes sampled
    Brandes tractable where exact all-sources is not.

    ``fixed_point=True`` carries δ as int64 in 1/``scale`` units with
    per-edge contributions ``floor(σ_v·(scale + δ_w) / σ_w)`` —
    integer sums are reduction-order-independent, so the sampled
    betweenness becomes bit-reproducible and the driver's DuckDB oracle
    (level-unrolled, same floors) replays it exactly; the reported
    ``betweenness`` is the single division Σδ_fp/scale. Quantization
    error per contribution is < 1/scale; overflow bound (documented):
    σ_v·(scale + δ_w) must fit int64, i.e. σ·pairs·scale ≲ 9·10¹⁸ —
    the default scale=10⁶ leaves six orders of headroom at sf-test
    sizes and the knob trades precision for range at larger graphs."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from .relational import membership_join

    SEP = "\x00"
    OUT = pa.schema([("node", pa.string()), ("betweenness", pa.float64())])

    def _canon(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["subj_id", "obj_id"])).filter(
            pl.col("subj_id") != pl.col("obj_id")
        )
        both = pl.concat(
            [
                df.select(
                    src=pl.col("subj_id"), dst=pl.col("obj_id")
                ),
                df.select(
                    src=pl.col("obj_id"), dst=pl.col("subj_id")
                ),
            ]
        ).unique()
        return both.to_arrow()

    sym = bucket_group_apply(
        edges.map_batches(
            _canon, batch_format="pyarrow", zero_copy_batch=True
        ),
        "src",
        lambda t: pl.from_arrow(t).unique().to_arrow() if t.num_rows else t,
        num_buckets=num_buckets,
    ).materialize()

    # deterministic, UNBIASED pivots: the n_sources smallest node ids
    # in (md5-60, id) order — lexicographic id order can correlate with
    # entity types when id prefixes encode them, biasing the sample
    # (review r4); md5 order is still RNG-free, engine-reproducible,
    # and SQL-replayable via the repo's md5-60 mirror
    import numpy as np

    from ..schema import md5_60

    def _cand(t: pa.Table) -> pa.Table:
        u = pl.from_arrow(t.select(["src"])).unique().to_arrow()
        if not u.num_rows:
            return u
        src = u["src"].to_numpy(zero_copy_only=False)
        keep = np.lexsort((src, md5_60(src)))[:n_sources]
        return pa.table({"src": pa.array(src[keep], pa.string())})

    cand = sym.map_batches(
        _cand, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # <= n_sources rows per block — tiny by construction
    ids = np.array(sorted({r["src"] for r in cand}), dtype=object)
    sources = (
        [str(s) for s in ids[np.lexsort((ids, md5_60(ids)))][:n_sources]]
        if len(ids)
        else []
    )
    if not sources:
        return ray.data.from_arrow(OUT.empty_table())

    lvl_schema = pa.schema(
        [
            ("key", pa.string()),
            ("s", pa.string()),
            ("v", pa.string()),
            ("sigma", pa.int64()),
        ]
    )
    level0 = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array([s + SEP + s for s in sources]),
                "s": pa.array(sources),
                "v": pa.array(sources),
                "sigma": pa.array([1] * len(sources), pa.int64()),
            }
        )
    ).materialize()
    levels = [level0]
    visited = level0.select_columns(["key"]).materialize()

    def _sigma_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return lvl_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("key")
            .agg(
                pl.col("s").first(),
                pl.col("v").first(),
                pl.col("sigma").sum(),
            )
            .select(["key", "s", "v", "sigma"])
            .to_arrow()
            .cast(lvl_schema)
        )

    for _ in range(max_hops):
        frontier = levels[-1]
        prop = join_auto(
            sym, frontier, on=("src",), right_on=("v",)
        ).map_batches(
            lambda t: pa.table(
                {
                    "key": pc.binary_join_element_wise(
                        pc.cast(t["s"], pa.string()),
                        pc.cast(t["dst"], pa.string()),
                        SEP,
                    ),
                    "s": t["s"],
                    "v": t["dst"],
                    "sigma": t["sigma"],
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        cand_lvl = bucket_group_apply(
            prop.map_batches(
                _sigma_merge, batch_format="pyarrow", zero_copy_batch=True
            ),
            "key",
            _sigma_merge,
            num_buckets=num_buckets,
        )
        new = membership_join(
            cand_lvl, visited, on="key", anti=True
        ).materialize()
        if new.count() == 0:
            break
        levels.append(new)
        visited = visited.union(
            new.select_columns(["key"])
        ).materialize()

    if len(levels) == 1:
        return ray.data.from_arrow(OUT.empty_table())

    delta_t = pa.int64() if fixed_point else pa.float64()
    delta_schema = pa.schema(
        [
            ("key", pa.string()),
            ("s", pa.string()),
            ("v", pa.string()),
            ("delta", delta_t),
        ]
    )

    def _delta_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return delta_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("key")
            .agg(
                pl.col("s").first(),
                pl.col("v").first(),
                pl.col("delta").sum(),
            )
            .select(["key", "s", "v", "delta"])
            .to_arrow()
            .cast(delta_schema)
        )

    delta_ds: ray.data.Dataset | None = None  # nonzero δ at current level
    bc_parts: list[ray.data.Dataset] = []
    for d in range(len(levels) - 1, 0, -1):
        lvl_w = levels[d]
        if delta_ds is None:
            zero0 = 0 if fixed_point else 0.0
            w_full = lvl_w.map_batches(
                lambda t, z=zero0, dt=delta_t: t.append_column(
                    "delta", pa.array([z] * t.num_rows, dt)
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        else:
            w_full = join_auto(
                lvl_w,
                delta_ds.map_batches(
                    lambda t: t.select(["key", "delta"]).rename_columns(
                        ["dkey", "delta"]
                    ),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                ),
                on=("key",),
                right_on=("dkey",),
                join_type="left_outer",
            ).map_batches(
                lambda t: pa.table(
                    {
                        "key": t["key"],
                        "s": t["s"],
                        "v": t["v"],
                        "sigma": t["sigma"],
                        "delta": pc.fill_null(
                            t["delta"], 0 if fixed_point else 0.0
                        ),
                    }
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        # predecessors of w across one edge join; pkey targets level d-1
        preds = join_auto(
            sym, w_full, on=("dst",), right_on=("v",)
        ).map_batches(
            lambda t: pa.table(
                {
                    "pkey": pc.binary_join_element_wise(
                        pc.cast(t["s"], pa.string()),
                        pc.cast(t["src"], pa.string()),
                        SEP,
                    ),
                    "sigma_w": t["sigma"],
                    "delta_w": t["delta"],
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        prev = levels[d - 1].map_batches(
            lambda t: pa.table(
                {
                    "pkey": t["key"],
                    "ps": t["s"],
                    "pv": t["v"],
                    "sigma_v": t["sigma"],
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if fixed_point:

            def _contrib_fn(t: pa.Table) -> pa.Table:
                # floor(σ_v·(scale + δ_w) / σ_w) — pure int64, exactly
                # what the level-unrolled oracle computes
                return pa.table(
                    {
                        "key": t["pkey"],
                        "s": t["ps"],
                        "v": t["pv"],
                        "delta": pc.divide(
                            pc.multiply(
                                t["sigma_v"],
                                pc.add(
                                    t["delta_w"],
                                    pa.scalar(scale, pa.int64()),
                                ),
                            ),
                            t["sigma_w"],
                        ),
                    }
                )

        else:

            def _contrib_fn(t: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "key": t["pkey"],
                        "s": t["ps"],
                        "v": t["pv"],
                        "delta": pc.divide(
                            pc.multiply(
                                pc.cast(t["sigma_v"], pa.float64()),
                                pc.add(t["delta_w"], 1.0),
                            ),
                            pc.cast(t["sigma_w"], pa.float64()),
                        ),
                    }
                )

        contrib = join_auto(preds, prev, on=("pkey",)).map_batches(
            _contrib_fn,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        delta_ds = bucket_group_apply(
            contrib.map_batches(
                _delta_merge, batch_format="pyarrow", zero_copy_batch=True
            ),
            "key",
            _delta_merge,
            num_buckets=num_buckets,
        ).materialize()
        if d - 1 >= 1:  # level 0 rows are the sources themselves (v == s)
            bc_parts.append(delta_ds)

    if not bc_parts:
        return ray.data.from_arrow(OUT.empty_table())
    allp = bc_parts[0]
    for p in bc_parts[1:]:
        allp = allp.union(p)

    def _bc_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        g = (
            pl.from_arrow(t.select(["v", "delta"]))
            .group_by("v")
            .agg(pl.col("delta").sum().alias("betweenness"))
            .rename({"v": "node"})
        )
        if fixed_point:
            # ONE division per node after the int sum — via pyarrow,
            # which divides correctly-rounded; polars' `/ const` takes
            # the multiply-by-reciprocal shortcut and lands 1 ulp off
            # DuckDB's true division
            t2 = g.to_arrow()
            return pa.table(
                {
                    "node": t2["node"],
                    "betweenness": pc.divide(
                        pc.cast(t2["betweenness"], pa.float64()),
                        pa.scalar(float(scale), pa.float64()),
                    ),
                }
            ).cast(OUT)
        return g.to_arrow().cast(OUT)

    out = bucket_group_apply(
        allp.map_batches(
            lambda t: t.select(["v", "delta"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).map_batches(
            lambda t: pa.table(
                {"v": t["v"], "delta": t["delta"]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "v",
        _bc_merge,
        num_buckets=num_buckets,
    )
    return out.sort(["betweenness", "node"], descending=[True, False])


_DS_BOUNDS_CACHE: "weakref.WeakKeyDictionary" = None  # lazy-inited


def _bounds_cached(ds: ray.data.Dataset, kind: str, compute):
    """Per-Dataset-object memo for the tiny bounds reductions (ADVICE
    r3: belief_snapshot/snapshot_diff/closure_rollup re-scan for
    defaults the caller's sibling op just computed). Weak keys — the
    cache dies with the Dataset; unhashable/unweakrefable objects just
    skip the memo."""
    global _DS_BOUNDS_CACHE
    import weakref

    if _DS_BOUNDS_CACHE is None:
        _DS_BOUNDS_CACHE = weakref.WeakKeyDictionary()
    try:
        slot = _DS_BOUNDS_CACHE.setdefault(ds, {})
    except TypeError:
        return compute(ds)
    if kind not in slot:
        slot[kind] = compute(ds)
    return slot[kind]


def _ts_minmax_us(ds: ray.data.Dataset) -> tuple[int, int]:
    """Tiny driver reduction: (min, max) of the ``ts`` column in epoch
    microseconds — one int pair per block moves, nothing else; memoized
    per Dataset object (`_bounds_cached`). Raises ValueError on an
    all-null/empty stream (a cutoff over no data has no meaning;
    callers pass explicit cutoffs for empty inputs)."""
    return _bounds_cached(ds, "ts", _ts_minmax_us_compute)


def _ts_minmax_us_compute(ds: ray.data.Dataset) -> tuple[int, int]:
    mm = ds.map_batches(
        lambda t: pa.table(
            {
                "lo": pa.array(
                    [pc.min(t["ts"]).cast(pa.int64()).as_py()], pa.int64()
                ),
                "hi": pa.array(
                    [pc.max(t["ts"]).cast(pa.int64()).as_py()], pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # one row per block — tiny by construction
    los = [r["lo"] for r in mm if r["lo"] is not None]
    his = [r["hi"] for r in mm if r["hi"] is not None]
    if not los:
        raise ValueError("ts min/max over an empty or all-null stream")
    return min(los), max(his)


def _pred_bounds(ds: ray.data.Dataset) -> tuple[str, str]:
    """Tiny driver reduction: (min, max) predicate of an edge stream —
    the parameter-free defaults regular_path_pairs / closure_rollup
    document; memoized per Dataset object (`_bounds_cached`). Same
    ValueError contract as :func:`_ts_minmax_us`."""
    return _bounds_cached(ds, "pred", _pred_bounds_compute)


def _pred_bounds_compute(ds: ray.data.Dataset) -> tuple[str, str]:
    mm = ds.map_batches(
        lambda t: pa.table(
            {
                "lo": pa.array([pc.min(t["pred"]).as_py()], pa.string()),
                "hi": pa.array([pc.max(t["pred"]).as_py()], pa.string()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()  # one row per block — tiny by construction
    los = [r["lo"] for r in mm if r["lo"] is not None]
    his = [r["hi"] for r in mm if r["hi"] is not None]
    if not los:
        raise ValueError("pred bounds over an empty or all-null stream")
    return min(los), max(his)


def validity_intervals(
    rewritten: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Temporal-KG SCD-2 timeline: for every (subj_id, pred) the
    CHANGE-POINT history of its object — rows ``(subj_id, pred, obj_id,
    valid_from, valid_to)`` where ``valid_from`` is the assertion ts
    that switched the object and ``valid_to`` is the next switch's ts
    (null for the currently-valid row). The longitudinal "what did the
    KG believe when" view that complements ``latest_assertion``'s
    point-in-time compaction (SCD-1).

    Exact, deterministic semantics (SQL-mirrorable):
      1. assertions collapse to one object per (subj, pred, ts) — min
         ``obj_id`` tie-break (same rule as ``latest_assertion``);
      2. ordered by ts within (subj, pred), a row is a change point iff
         it is the first assertion or its object differs from the
         previous assertion's object;
      3. ``valid_to`` = LEAD(valid_from) over the kept change points.

    Step 1's min is decomposable, so a per-block combiner shrinks the
    stream to ≤ one row per (subj, pred, ts) per block BEFORE the one
    subj-bucketed shuffle; steps 2–3 are vectorized polars window ops
    inside the reduce (every row of a (subj, pred) group is local by
    construction — subj_id is the bucket key). Nothing else moves and
    nothing materializes on the driver."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    sch = rewritten.schema()
    TS = dict(zip(sch.names, sch.types))["ts"]

    def _combine(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["subj_id", "pred", "obj_id", "ts"]))
            .group_by(["subj_id", "pred", "ts"])
            .agg(pl.col("obj_id").min())
            .select(["subj_id", "pred", "obj_id", "ts"])
            .to_arrow()
        )
        return out.cast(
            pa.schema(
                [
                    ("subj_id", pa.string()),
                    ("pred", pa.string()),
                    ("obj_id", pa.string()),
                    ("ts", TS),
                ]
            )
        )

    OUT = pa.schema(
        [
            ("subj_id", pa.string()),
            ("pred", pa.string()),
            ("obj_id", pa.string()),
            ("valid_from", TS),
            ("valid_to", TS),
        ]
    )

    def _intervals(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        key = ["subj_id", "pred"]
        df = (
            pl.from_arrow(t)
            .group_by(["subj_id", "pred", "ts"])
            .agg(pl.col("obj_id").min())  # re-apply: ≤1 row/key/block arrived
            .sort(["subj_id", "pred", "ts"])
            .with_columns(prev=pl.col("obj_id").shift(1).over(key))
            .filter(
                pl.col("prev").is_null()
                | (pl.col("prev") != pl.col("obj_id"))
            )
            .with_columns(valid_to=pl.col("ts").shift(-1).over(key))
            .rename({"ts": "valid_from"})
            .select(["subj_id", "pred", "obj_id", "valid_from", "valid_to"])
        )
        return df.to_arrow().cast(OUT)

    partial = rewritten.map_batches(
        _combine, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "subj_id", _intervals, num_buckets=num_buckets
    )


def regular_path_pairs(
    edges: ray.data.Dataset,
    *,
    first_pred: str | None = None,
    star_pred: str | None = None,
    max_star_hops: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Regular path query (RPQ) ``p1 · p2*`` over the DIRECTED KG:
    every (src, dst) pair connected by a path whose first edge has
    predicate ``p1`` followed by 0..``max_star_hops`` edges with
    predicate ``p2``, with the MINIMAL matching path length — rows
    ``(src, dst, hops:int64)``. Defaults make the query parameter-free
    and deterministic: p1 = lexicographic min predicate, p2 = max.
    The property-path primitive (SPARQL ``p1/p2*``) a KG query engine
    serves for "X managed-by chain", "supply-chain reachability" etc.

    Dataflow = the bfs_distances skeleton lifted from node frontiers to
    PAIR frontiers: the p2 edge subset is materialized once; each round
    joins the frontier's dst against it (``join_auto``: broadcast under
    the guard, hash-shuffle above) and a subj-bucketed polars min-merge
    dedups pairs — per round only (src, dst, hops) triples move, never
    edge payloads, and UNION-ALL walk blowup is cut off at each merge
    (pairs, not walks, survive rounds). Partitioning assumption: the
    answer SET (distinct reachable pairs) fits the cluster like any
    pair-valued query result; hop caps bound the rounds."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from .canonical import default_partitions

    num_partitions = num_partitions or default_partitions()

    if first_pred is None or star_pred is None:
        lo, hi = _pred_bounds(edges)
        first_pred = first_pred or lo
        star_pred = star_pred or hi

    OUT = pa.schema(
        [("src", pa.string()), ("dst", pa.string()), ("hops", pa.int64())]
    )

    def _pairs_of(pred_name: str, src_col: str = "src", dst_col: str = "dst"):
        return edges.map_batches(
            lambda t, p=pred_name, s=src_col, d=dst_col: (
                lambda f: pa.table({s: f["subj_id"], d: f["obj_id"]})
            )(t.filter(pc.equal(t["pred"], p))),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def _min_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by(["src", "dst"])
            .agg(pl.col("hops").min())
            .select(["src", "dst", "hops"])
            .to_arrow()
            .cast(OUT)
        )

    star_edges = _pairs_of(star_pred, "hop_src", "hop_dst").materialize()

    labels = bucket_group_apply(
        _pairs_of(first_pred).map_batches(
            lambda t: t.append_column(
                "hops", pa.array([1] * t.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "src",
        _min_merge,
    ).materialize()

    # BFS frontier discipline: only pairs FIRST reached in the previous
    # round expand (a pair with merged hops == r was new at round r —
    # min-merge would have kept a smaller value otherwise), so each pair
    # joins star_edges exactly once over the whole loop instead of once
    # per remaining round
    frontier = labels
    for r in range(1, max_star_hops + 1):
        if frontier.count() == 0:
            break  # closure converged early — cheap: frontier is materialized
        prop = join_auto(
            frontier,
            star_edges,
            on=("dst",),
            right_on=("hop_src",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {
                    "src": t["src"],
                    "dst": t["hop_dst"],
                    "hops": pc.add(t["hops"], 1),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = bucket_group_apply(
            labels.union(prop), "src", _min_merge
        ).materialize()
        nxt = r + 1
        frontier = labels.filter(
            expr=f"hops == {nxt}"
        ).materialize()
    return labels


def belief_snapshot(
    rewritten: ray.data.Dataset,
    *,
    at_us: int | None = None,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Point-in-time KG: the assertion set the graph BELIEVED at time
    ``at_us`` (epoch microseconds) — rows ``(subj_id, pred, obj_id,
    valid_from)``, one per (subj, pred) whose validity interval covers
    the cutoff (``valid_from <= at < valid_to``, open rows extend to
    +inf). Time-travel over `validity_intervals`' SCD-2 timeline — the
    query a KG serves for "rerun yesterday's report on yesterday's
    graph".

    Default cutoff is the midpoint ``(min_ts + max_ts) // 2`` of the
    assertion stream in integer microseconds — deterministic and
    SQL-mirrorable, so the query is parameter-free. The cutoff scan is
    a tiny per-block min/max reduction; the snapshot itself is one
    vectorized filter over the streamed intervals — no extra shuffle
    beyond the one validity_intervals already does."""
    if at_us is None:
        # the cutoff scan + the timeline both read the stream: pin it
        # once so the second pass reads blocks, not recomputed upstream
        # (ADVICE r3); callers passing explicit cutoffs stay streaming
        rewritten = rewritten.materialize()
        lo, hi = _ts_minmax_us(rewritten)
        at_us = (lo + hi) // 2

    intervals = validity_intervals(rewritten, num_buckets=num_buckets)

    def _covering(t: pa.Table) -> pa.Table:
        vf = t["valid_from"].cast(pa.int64())
        vt = t["valid_to"].cast(pa.int64())
        mask = pc.and_kleene(
            pc.less_equal(vf, at_us),
            pc.or_kleene(pc.is_null(vt), pc.greater(vt, at_us)),
        )
        return t.filter(mask).select(
            ["subj_id", "pred", "obj_id", "valid_from"]
        )

    return intervals.map_batches(
        _covering, batch_format="pyarrow", zero_copy_batch=True
    )


def snapshot_diff(
    rewritten: ray.data.Dataset,
    *,
    t1_us: int | None = None,
    t2_us: int | None = None,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Temporal-KG release diff: what changed between the graph believed
    at ``t1`` and at ``t2`` — rows ``(subj_id, pred, obj_before,
    obj_after, change)`` with change ∈ {'added', 'removed', 'changed'}.
    The review artifact a KG pipeline publishes with every rebuild
    ("this refresh added 12k CEO edges, retracted 3k").

    Defaults are the deterministic quartile cutoffs ``lo + (hi-lo)//4``
    and ``lo + 3*(hi-lo)//4`` of the assertion stream (integer µs), so
    the query is parameter-free. A (subj, pred) has at most ONE covering
    interval per cutoff, so the diff is a per-group compare: both
    covering rows are flagged in one vectorized pass over
    `validity_intervals`' output and meet in the SAME subj-bucketed
    shuffle that built the timeline — groups whose object is unchanged
    (or absent at both cutoffs) emit nothing."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    if t1_us is None or t2_us is None:
        # same pin-once discipline as belief_snapshot (ADVICE r3)
        rewritten = rewritten.materialize()
        lo, hi = _ts_minmax_us(rewritten)
        t1_us = t1_us if t1_us is not None else lo + (hi - lo) // 4
        t2_us = t2_us if t2_us is not None else lo + 3 * (hi - lo) // 4

    intervals = validity_intervals(rewritten, num_buckets=num_buckets)

    OUT = pa.schema(
        [
            ("subj_id", pa.string()),
            ("pred", pa.string()),
            ("obj_before", pa.string()),
            ("obj_after", pa.string()),
            ("change", pa.string()),
        ]
    )

    def _covers(t: pa.Table, at: int):
        vf = t["valid_from"].cast(pa.int64())
        vt = t["valid_to"].cast(pa.int64())
        return pc.and_kleene(
            pc.less_equal(vf, at),
            pc.or_kleene(pc.is_null(vt), pc.greater(vt, at)),
        )

    def _flag(t: pa.Table) -> pa.Table:
        c1, c2 = _covers(t, t1_us), _covers(t, t2_us)
        keep = pc.or_kleene(c1, c2)
        flagged = t.append_column("c1", c1).append_column("c2", c2)
        return flagged.filter(keep).select(
            ["subj_id", "pred", "obj_id", "c1", "c2"]
        )

    def _diff(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        df = pl.from_arrow(t)
        before = (
            df.filter(pl.col("c1"))
            .select(["subj_id", "pred", pl.col("obj_id").alias("obj_before")])
        )
        after = (
            df.filter(pl.col("c2"))
            .select(["subj_id", "pred", pl.col("obj_id").alias("obj_after")])
        )
        out = (
            before.join(after, on=["subj_id", "pred"], how="full", coalesce=True)
            .with_columns(
                change=pl.when(pl.col("obj_before").is_null())
                .then(pl.lit("added"))
                .when(pl.col("obj_after").is_null())
                .then(pl.lit("removed"))
                .otherwise(pl.lit("changed"))
            )
            .filter(
                pl.col("obj_before").is_null()
                | pl.col("obj_after").is_null()
                | (pl.col("obj_before") != pl.col("obj_after"))
            )
            .select(
                ["subj_id", "pred", "obj_before", "obj_after", "change"]
            )
        )
        return out.to_arrow().cast(OUT)

    flagged = intervals.map_batches(
        _flag, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(flagged, "subj_id", _diff, num_buckets=num_buckets)


def closure_rollup(
    edges: ray.data.Dataset,
    *,
    pred: str | None = None,
    max_hops: int = 4,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Hierarchy rollup over one predicate's transitive closure ``p+``:
    per ancestor, how many distinct entities it reaches within
    ``max_hops`` directed p-edges and how deep the farthest one sits —
    rows ``(src, n_desc:int64, depth:int64)``. The org-chart /
    part-explosion query ("everyone under this manager, and how many
    levels down"). Default predicate = the lexicographic min
    (parameter-free, same convention as regular_path_pairs).

    Pure reuse: ``p+ = p·p*``, so the pair set IS
    `regular_path_pairs(first_pred=p, star_pred=p)` — one frontier loop
    whose min-merge already dedups pairs — followed by a single
    src-bucketed count/max rollup. Self-reachability through cycles
    counts (a pair (s, s) at hops ≥ 1), matching the SQL closure."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    if pred is None:
        pred, _ = _pred_bounds(edges)

    pairs = regular_path_pairs(
        edges,
        first_pred=pred,
        star_pred=pred,
        max_star_hops=max_hops - 1,
        num_partitions=None,
    )

    OUT = pa.schema(
        [("src", pa.string()), ("n_desc", pa.int64()), ("depth", pa.int64())]
    )

    def _rollup(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("src")
            .agg(
                pl.len().cast(pl.Int64).alias("n_desc"),
                pl.col("hops").max().alias("depth"),
            )
            .select(["src", "n_desc", "depth"])
            .to_arrow()
            .cast(OUT)
        )

    return bucket_group_apply(pairs, "src", _rollup, num_buckets=num_buckets)


def validity_intervals_incremental(
    base_assertions: ray.data.Dataset,
    delta_assertions: ray.data.Dataset,
    old_intervals: ray.data.Dataset,
    *,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Incremental SCD-2 maintenance: fold a new assertion batch into an
    existing `validity_intervals` table touching ONLY the (subj, pred)
    groups the delta names. Late data is handled exactly — a delta
    assertion may land anywhere in a group's history (intervals are
    change-points, not appendable rows), so touched groups recompute
    from the full assertion log while every untouched group's rows pass
    through UNREAD by the timeline logic (one anti membership filter).
    A daily KG refresh naming 0.1% of groups does 0.1% of the window
    work — the temporal-family sibling of `merge_edges` /
    `upsert_partitioned`.

    The result is EXACTLY ``validity_intervals(base ∪ delta)`` (the
    pytest contract): group timelines are independent, so
    recompute-touched ∪ passthrough-untouched is the whole answer."""
    SEP = "\x00"

    def _with_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_k",
            pc.binary_join_element_wise(
                pc.cast(t["subj_id"], pa.string()),
                pc.cast(t["pred"], pa.string()),
                SEP,
            ),
        )

    from .relational import membership_join

    full = base_assertions.union(delta_assertions)
    full_k = full.map_batches(
        _with_key, batch_format="pyarrow", zero_copy_batch=True
    )
    delta_k = delta_assertions.map_batches(
        _with_key, batch_format="pyarrow", zero_copy_batch=True
    )
    touched = membership_join(
        full_k, delta_k, on="_k", num_buckets=num_buckets
    ).drop_columns(["_k"])
    recomputed = validity_intervals(touched, num_buckets=num_buckets)

    old_k = old_intervals.map_batches(
        _with_key, batch_format="pyarrow", zero_copy_batch=True
    )
    untouched = membership_join(
        old_k, delta_k, on="_k", anti=True, num_buckets=num_buckets
    ).drop_columns(["_k"])
    return untouched.union(recomputed)


def pred_volatility(
    rewritten: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Predicate churn report over the SCD-2 timeline: per predicate,
    how many validity intervals its groups produced, how many CLOSED
    (object later overwritten), and the total closed lifetime in exact
    integer microseconds — rows ``(pred, n_intervals, n_closed,
    closed_dur_us)``. High n_closed/n_intervals marks volatile
    predicates (employer, location); ~zero marks immutable facts — the
    signal a KG uses to schedule re-extraction. One decomposable
    combiner over `validity_intervals`' stream; partials per (block,
    pred) are all that shuffle."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    OUT = pa.schema(
        [
            ("pred", pa.string()),
            ("n_intervals", pa.int64()),
            ("n_closed", pa.int64()),
            ("closed_dur_us", pa.int64()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t.select(["pred", "valid_from", "valid_to"]))
            .with_columns(
                closed=pl.col("valid_to").is_not_null(),
                dur=(
                    pl.col("valid_to").cast(pl.Int64)
                    - pl.col("valid_from").cast(pl.Int64)
                ).fill_null(0),
            )
            .group_by("pred")
            .agg(
                pl.len().cast(pl.Int64).alias("n_intervals"),
                pl.col("closed").sum().cast(pl.Int64).alias("n_closed"),
                pl.col("dur").sum().alias("closed_dur_us"),
            )
            .select(["pred", "n_intervals", "n_closed", "closed_dur_us"])
            .to_arrow()
            .cast(OUT)
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("pred")
            .agg(
                pl.col("n_intervals").sum(),
                pl.col("n_closed").sum(),
                pl.col("closed_dur_us").sum(),
            )
            .select(["pred", "n_intervals", "n_closed", "closed_dur_us"])
            .to_arrow()
            .cast(OUT)
        )

    partial = validity_intervals(
        rewritten, num_buckets=num_buckets
    ).map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_group_apply(partial, "pred", _merge, num_buckets=8)


def bowtie_decomposition(
    edges: ray.data.Dataset,
    *,
    max_iters: int = 30,
    num_buckets: int = 32,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Broder bow-tie decomposition of the DIRECTED KG: per class, how
    many nodes are CORE (the largest SCC, ties to min scc_id), IN
    (reach the core but sit outside it), OUT (reached from the core),
    or OTHER (tendrils/disconnected) — rows ``(cls, n_nodes)``. The
    structural health report web-scale graphs run first: a KG whose OUT
    dwarfs IN usually has a directionality bug in extraction.

    Reuse all the way down: `strongly_connected_components` labels the
    graph; the largest SCC is one count shuffle + a tiny driver pick;
    IN/OUT are multi-source reachability fixpoints seeded with the
    whole core — per round one (src)-keyed `join_auto` against the
    frontier and a `membership_join` anti-filter against the visited
    set, exactly the bfs_distances dataflow lifted to a seed SET.
    Oracle-backed: the driver's DuckDB oracle rebuilds SCC labels by
    mutual reachability and replays the capped multi-source BFS; the
    pytest pins a closed-form bow-tie."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from .canonical import default_partitions
    from .relational import membership_join

    num_partitions = num_partitions or default_partitions()

    scc = strongly_connected_components(
        edges, num_buckets=num_buckets
    ).materialize()

    def _cnt(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [("scc_id", pa.string()), ("n", pa.int64())]
            ).empty_table()
        return (
            pl.from_arrow(t)
            .group_by("scc_id")
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
            .cast(pa.schema([("scc_id", pa.string()), ("n", pa.int64())]))
        )

    sizes = bucket_group_apply(scc, "scc_id", _cnt).take_all()
    core_id = min(
        (r["scc_id"] for r in sizes if r["n"] == max(x["n"] for x in sizes)),
    )
    core = scc.map_batches(
        lambda t: t.filter(pc.equal(t["scc_id"], core_id)).select(["node"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    def _reach(direction: str) -> ray.data.Dataset:
        """Nodes outside the core that reach (direction='in') or are
        reached from (direction='out') the core."""
        src, dst = (
            ("obj_id", "subj_id") if direction == "in" else ("subj_id", "obj_id")
        )
        hop = edges.map_batches(
            lambda t, s=src, d=dst: pa.table(
                {"from_n": t[s], "to_n": t[d]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        visited = core
        frontier = core
        for _ in range(max_iters):
            if frontier.count() == 0:
                break
            step = join_auto(
                hop,
                frontier.rename_columns(["from_n"]),
                on=("from_n",),
                num_partitions=num_partitions,
            ).map_batches(
                lambda t: pa.table({"node": t["to_n"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            from .relational import distinct_keys

            frontier = distinct_keys(
                membership_join(step, visited, on="node", anti=True),
                "node",
            )
            visited = visited.union(frontier).materialize()
        return membership_join(visited, core, on="node", anti=True)

    reach_in = _reach("in").materialize()
    reach_out = _reach("out").materialize()

    n_core = core.count()
    n_in = reach_in.count()
    n_out = reach_out.count()
    # OUT may overlap IN only through the core (they'd be in the core
    # then), so the three classes are disjoint by construction
    n_total = scc.count()
    n_other = n_total - n_core - n_in - n_out
    return ray.data.from_arrow(
        pa.table(
            {
                "cls": pa.array(["core", "in", "out", "other"], pa.string()),
                "n_nodes": pa.array(
                    [n_core, n_in, n_out, n_other], pa.int64()
                ),
            }
        )
    )


@_on_empty_graph(n_club=(_I64, 0), n_within=(_I64, 0), n_possible=(_I64, 0))
def rich_club_edges(
    edges: ray.data.Dataset,
    *,
    k: int = 20,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Rich-club report: among the ``k`` highest-degree nodes of the
    UNDIRECTED simple KG (distinct neighbors, self-loops ignored, ties
    to min node id), how densely do they link to EACH OTHER — one row
    ``(n_club, n_within, n_possible)`` where n_within counts undirected
    club-internal edges and n_possible = k·(k-1)/2. The hub-cohesion
    diagnostic (Colizza et al.): a rich club near n_possible means the
    hubs form an elite clique; near 0 they are independent stars.
    Exact integers end to end.

    Dataflow reuse: :func:`_undirected` → :func:`_degrees` → sort+limit
    k (tiny) → broadcast club membership → one vectorized
    both-endpoints filter over the undirected simple edge set."""
    simple = _undirected(edges, num_buckets).materialize()
    club_rows = (
        _degrees(simple, num_buckets)
        .sort(["deg", "v"], descending=[True, False])
        .limit(k)
        .take_all()
    )  # k rows — tiny by construction
    club = {r["v"] for r in club_rows}

    def _within(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_in(t["a"], value_set=pa.array(sorted(club))),
            pc.is_in(t["b"], value_set=pa.array(sorted(club))),
        )
        n = pc.sum(mask).as_py() or 0
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = simple.map_batches(
        _within, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # one row per block — tiny by construction
    n_within = sum(r["n"] for r in parts)
    n_club = len(club)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_club": pa.array([n_club], pa.int64()),
                "n_within": pa.array([n_within], pa.int64()),
                "n_possible": pa.array(
                    [n_club * (n_club - 1) // 2], pa.int64()
                ),
            }
        )
    )


@_on_empty_graph(close_us=_I64)
def triangle_close_stream(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Per-triangle closure times as a STREAM — rows ``(close_us)``,
    one per triangle (max − min of the three edges' first-assertion µs).
    The enumeration core of :func:`triadic_closure_times`, exposed so
    downstream exact aggregates (quantiles, histograms) can compose
    with it without re-walking the wedge pipeline."""
    return _triadic_closed(edges, num_buckets=num_buckets).map_batches(
        lambda t: t.select(["close_us"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _triadic_closed(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Temporal-motif report: exact triangle count plus how long
    triangles took to CLOSE — one row ``(n_triangles, sum_close_us,
    max_close_us)`` where close time = max − min of the three edges'
    first-assertion timestamps (exact integer µs; an undirected pair's
    ts is the min over its directed/multi-pred assertions). The
    triadic-closure speed of a KG — how quickly a wedge's third side
    gets asserted — a standard temporal-graph statistic.

    The degree-ordered wedges of :func:`_wedges` with the pair's ts
    carried through :func:`_undirected` (min), :func:`_oriented` and
    onto both wedge edges; the wedge→edge step is an inner
    ``join_auto`` (fetching the closing edge's ts) instead of a semi
    join. The final reduce is a per-block (n, Σ, max) partial + tiny
    driver fold."""
    import polars as pl

    und = _undirected(
        edges, num_buckets, ts=(pl.col("first_ts").cast(pl.Int64), "min")
    ).materialize()
    oriented = _oriented(und, _degrees(und, num_buckets), "ts").materialize()
    closed = join_auto(
        _wedges(oriented, num_buckets, ["key", "ts_lo", "ts_hi"]),
        oriented.map_batches(
            lambda t: pa.table({"key": t["key"], "ts_uv": t["ts"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("key",),
    )

    def _close(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema([("close_us", pa.int64())]).empty_table()
        ts = ["ts_lo", "ts_hi", "ts_uv"]
        df = pl.from_arrow(t.select(ts)).select(
            close_us=pl.max_horizontal(ts) - pl.min_horizontal(ts)
        )
        return df.to_arrow().cast(pa.schema([("close_us", pa.int64())]))

    return closed.map_batches(
        _close, batch_format="pyarrow", zero_copy_batch=True
    )


@_on_empty_graph(
    n_triangles=(_I64, 0),
    sum_close_us=(_I64, 0),
    max_close_us=(_I64, 0),
)
def triadic_closure_times(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Temporal-motif report: exact triangle count plus closure-time
    sum/max in integer µs — one row ``(n_triangles, sum_close_us,
    max_close_us)`` folded from per-block partials over
    :func:`triangle_close_stream` (see there for the enumeration)."""
    closed = _triadic_closed(edges, num_buckets=num_buckets)

    def _agg(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table(
                {
                    "n": pa.array([0], pa.int64()),
                    "s": pa.array([0], pa.int64()),
                    "m": pa.array([0], pa.int64()),
                }
            )
        c = t["close_us"]
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "s": pa.array([pc.sum(c).as_py() or 0], pa.int64()),
                "m": pa.array([pc.max(c).as_py() or 0], pa.int64()),
            }
        )

    parts = closed.map_batches(
        _agg, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # one row per block — tiny by construction
    n = sum(r["n"] for r in parts)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([n], pa.int64()),
                "sum_close_us": pa.array(
                    [sum(r["s"] for r in parts)], pa.int64()
                ),
                "max_close_us": pa.array(
                    [max((r["m"] for r in parts if r["n"]), default=0)],
                    pa.int64(),
                ),
            }
        )
    )


def reciprocity_lag(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Temporal reciprocity: for every unordered pair asserted in BOTH
    directions, the lag between the two directions' first assertions —
    one row ``(n_pairs, sum_lag_us, max_lag_us)`` in exact integer µs.
    The "how fast does a relation get reciprocated" statistic that
    complements the count-only `reciprocity` edge ratio.

    One bucketed shuffle: directed min-ts per (subj, obj) collapses per
    block (min is decomposable), pairs co-locate under their canonical
    (min, max) key, and a bucket holds both directions of a pair by
    construction — the lag is a vectorized group compare, the final
    fold a per-block partial + tiny driver sum."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    SEP = "\x00"
    DIR = pa.schema(
        [
            ("key", pa.string()),
            ("fwd", pa.bool_()),
            ("ts", pa.int64()),
        ]
    )

    def _directed(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["subj_id", "obj_id", "first_ts"]))
        return (
            df.filter(pl.col("subj_id") != pl.col("obj_id"))
            .select(
                key=pl.min_horizontal("subj_id", "obj_id")
                + pl.lit(SEP)
                + pl.max_horizontal("subj_id", "obj_id"),
                fwd=pl.col("subj_id") < pl.col("obj_id"),
                ts=pl.col("first_ts").cast(pl.Int64),
            )
            .group_by(["key", "fwd"])
            .agg(pl.col("ts").min())
            .select(["key", "fwd", "ts"])
            .to_arrow()
            .cast(DIR)
        )

    OUT = pa.schema(
        [("n", pa.int64()), ("s", pa.int64()), ("m", pa.int64())]
    )

    def _lags(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        df = (
            pl.from_arrow(t)
            .group_by(["key", "fwd"])
            .agg(pl.col("ts").min())
            .group_by("key")
            .agg(
                pl.len().alias("n_dir"),
                (pl.col("ts").max() - pl.col("ts").min()).alias("lag"),
            )
            .filter(pl.col("n_dir") == 2)
        )
        if not df.height:
            return OUT.empty_table()
        return pa.table(
            {
                "n": pa.array([df.height], pa.int64()),
                "s": pa.array([int(df["lag"].sum())], pa.int64()),
                "m": pa.array([int(df["lag"].max())], pa.int64()),
            }
        )

    parts = bucket_group_apply(
        edges.map_batches(
            _directed, batch_format="pyarrow", zero_copy_batch=True
        ),
        "key",
        _lags,
        num_buckets=num_buckets,
    ).take_all()  # ≤ num_buckets rows — tiny by construction
    good = [r for r in parts if r["n"]]
    return ray.data.from_arrow(
        pa.table(
            {
                "n_pairs": pa.array([sum(r["n"] for r in good)], pa.int64()),
                "sum_lag_us": pa.array(
                    [sum(r["s"] for r in good)], pa.int64()
                ),
                "max_lag_us": pa.array(
                    [max((r["m"] for r in good), default=0)], pa.int64()
                ),
            }
        )
    )


@_on_empty_graph(
    n_triangles=(_I64, 0),
    n_with_mutual=(_I64, 0),
    n_cyclic=(_I64, 0),
    n_transitive=(_I64, 0),
)
def triad_census(
    edges: ray.data.Dataset, *, num_buckets: int = 32
) -> ray.data.Dataset:
    """Reduced triad census of the directed KG: among closed triangles
    of the underlying undirected graph, how many contain a MUTUAL dyad,
    and of the all-asymmetric rest how many are CYCLIC (a→b→c→a) vs
    TRANSITIVE — one row ``(n_triangles, n_with_mutual, n_cyclic,
    n_transitive)``, exact integers. Cyclic/transitive balance is the
    classic directed-motif signal (feed-forward loops dominate real
    information networks; cycles dominate noise).

    The degree-ordered wedges of :func:`_wedges`: :func:`_undirected`
    carries per-dyad direction bits (max = bit-OR across blocks) that
    combine into a flag (1 = min→max only, 2 = max→min only, 3 =
    mutual); the flag rides the orientation onto both wedge edges, the
    closing edge's flag arrives via an inner join, and classification is
    pure vectorized logic per closed wedge (indegree-within-triangle ==
    1 for every vertex ⟺ cyclic)."""
    import numpy as np
    import polars as pl

    und = (
        _undirected(
            edges,
            num_buckets,
            fwd=((pl.col("subj_id") < pl.col("obj_id")).cast(pl.Int64), "max"),
            bwd=((pl.col("subj_id") > pl.col("obj_id")).cast(pl.Int64), "max"),
        )
        .map_batches(
            lambda t: pl.from_arrow(t)
            .select("a", "b", "key", flag=pl.col("fwd") + 2 * pl.col("bwd"))
            .to_arrow(),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    oriented = _oriented(
        und, _degrees(und, num_buckets), "flag"
    ).materialize()
    closed = join_auto(
        _wedges(
            oriented, num_buckets, ["key", "s", "lo", "hi", "flag_lo", "flag_hi"]
        ),
        oriented.map_batches(
            lambda t: pa.table({"key": t["key"], "flag_uv": t["flag"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("key",),
    )

    CNT = pa.schema(
        [
            ("n", pa.int64()),
            ("n_mutual", pa.int64()),
            ("n_cyclic", pa.int64()),
        ]
    )

    def _classify(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return CNT.empty_table()
        s = np.asarray(t["s"].to_pylist(), dtype=object)
        u = np.asarray(t["lo"].to_pylist(), dtype=object)
        v = np.asarray(t["hi"].to_pylist(), dtype=object)
        fsu = t["flag_lo"].to_numpy(zero_copy_only=False)
        fsv = t["flag_hi"].to_numpy(zero_copy_only=False)
        fuv = t["flag_uv"].to_numpy(zero_copy_only=False)
        has_mutual = (fsu == 3) | (fsv == 3) | (fuv == 3)

        def indeg(x, y, f):
            """directed target of canonical dyad (min,max) under flag f
            (asymmetric only): adds 1 to the target's indegree."""
            lo = np.minimum(x, y)
            hi = np.maximum(x, y)
            # f==1: lo→hi (hi gets indegree); f==2: hi→lo
            return np.where(f == 1, hi, lo)

        t1 = indeg(s, u, fsu)
        t2 = indeg(s, v, fsv)
        t3 = indeg(u, v, fuv)
        # cyclic ⟺ the three directed targets are pairwise distinct
        cyc = (
            ~has_mutual
            & (t1 != t2)
            & (t1 != t3)
            & (t2 != t3)
        )
        return pa.table(
            {
                "n": pa.array([len(s)], pa.int64()),
                "n_mutual": pa.array([int(has_mutual.sum())], pa.int64()),
                "n_cyclic": pa.array([int(cyc.sum())], pa.int64()),
            }
        )

    parts = closed.map_batches(
        _classify, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # one row per block — tiny by construction
    n = sum(r["n"] for r in parts)
    nm = sum(r["n_mutual"] for r in parts)
    nc = sum(r["n_cyclic"] for r in parts)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([n], pa.int64()),
                "n_with_mutual": pa.array([nm], pa.int64()),
                "n_cyclic": pa.array([nc], pa.int64()),
                "n_transitive": pa.array([n - nm - nc], pa.int64()),
            }
        )
    )
