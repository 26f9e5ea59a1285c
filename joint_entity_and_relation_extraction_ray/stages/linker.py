"""EntityLinker — alias-dictionary linking stage (SURVEY.md §2.2 A2/J1).

The alias dictionary is tiny relative to the data, so this is a BROADCAST
lookup, never a shuffle join: ``ray.put`` the dictionary once on the
driver; every actor fetches it ONCE in ``__init__`` (BASELINE.json:6
"entity linking scores candidate mentions against an alias dictionary
broadcast to actors").

Candidate scoring: among candidates whose type matches the mention's
decoded type, pick the highest disambiguation prior (tie-break:
lexicographically smallest entity_id) — a deterministic MAP choice;
``link_score`` is the prior normalized over the type-matching candidate
set. Unmatched mentions keep a null ``cand_entity_id`` and score 0.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..schema import LINKED


def default_pool_size() -> int:
    """Actor-pool size that leaves ≥2 CPUs of headroom for the read /
    split / write tasks feeding and draining the pool — a pool that
    reserves every CPU starves those tasks and stalls the pipeline
    (observed as a deadlock in 4-CPU sessions). A 2-CPU session gets one
    actor; a 1-CPU session cannot run a pool beside its feeding tasks, so
    it fails here instead of hanging."""
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        ncpu = 4
    if ncpu < 2:
        raise RuntimeError(
            f"the Ray session has {ncpu} CPU(s); actor-pool stages need at "
            "least 2 (one actor plus one CPU for the tasks that feed it)"
        )
    return 1 if ncpu == 2 else max(2, ncpu - 2)


def resolve_aliases(aliases: pa.Table) -> pa.Table:
    """Vectorized ambiguity resolution: per (alias, ent_type) keep the
    max-prior candidate (tie-break: smallest entity_id) with its
    total-normalized score → (alias, ent_type, entity_id, score)."""
    import polars as pl

    df = pl.from_arrow(
        aliases.select(["alias", "ent_type", "entity_id", "prior"])
    )
    totals = df.group_by(["alias", "ent_type"]).agg(
        pl.col("prior").sum().alias("_total")
    )
    best = (
        df.sort(
            ["alias", "ent_type", "prior", "entity_id"],
            descending=[False, False, True, False],
        )
        .unique(subset=["alias", "ent_type"], keep="first", maintain_order=True)
        .join(totals, on=["alias", "ent_type"])
        .select(
            pl.col("alias"),
            pl.col("ent_type"),
            pl.col("entity_id"),
            pl.when(pl.col("_total") > 0)
            .then(pl.col("prior") / pl.col("_total"))
            .otherwise(0.0)
            .alias("score"),
        )
    )
    return best.to_arrow().cast(
        pa.schema(
            [
                ("alias", pa.string()),
                ("ent_type", pa.string()),
                ("entity_id", pa.string()),
                ("score", pa.float64()),
            ]
        )
    )


def resolve_aliases_distributed(
    aliases: "ray.data.Dataset", *, num_buckets: int = 64
) -> "ray.data.Dataset":
    """Catalog-scale resolve: the same reduction via one alias-bucketed
    shuffle (all candidates of an alias land together) — the driver never
    holds the raw candidate table, only the resolved one row per alias."""
    from ..functions.shuffle import bucket_group_apply

    return bucket_group_apply(
        aliases, "alias", resolve_aliases, num_buckets=num_buckets
    )


def build_alias_index(
    aliases: pa.Table,
) -> dict[tuple[str, str], tuple[str, float]]:
    """(casefolded alias, ent_type) → (best entity_id, normalized score).

    Ambiguity is resolved at index-build time (once, vectorized), not per
    batch; only the one-row-per-alias RESOLVED table is walked to build
    the broadcast dict."""
    best = resolve_aliases(aliases)
    return {
        (a, t): (e, s)
        for a, t, e, s in zip(
            best["alias"].to_pylist(),
            best["ent_type"].to_pylist(),
            best["entity_id"].to_pylist(),
            best["score"].to_pylist(),
        )
    }


class EntityLinker:
    """Actor-pool stage: T1 MENTIONS batch → T3 LINKED batch."""

    def __init__(self, alias_index_ref):
        import numpy as np
        import pandas as pd

        try:
            if isinstance(alias_index_ref, ray.ObjectRef):
                alias_index_ref = ray.get(alias_index_ref)
        except Exception:
            pass
        if isinstance(alias_index_ref, pa.Table):  # convenience for tests
            alias_index_ref = build_alias_index(alias_index_ref)
        self.index = alias_index_ref
        # vectorized lookup structures, built ONCE per actor: pandas
        # hash-Index over "alias\x1ftype" composite keys + positional
        # payload arrays — get_indexer is the same C-speed path the
        # broadcast _IndexJoiner uses (the per-row dict loop was ~40% of
        # the link stage wall at 10^6 mentions)
        self._pidx = pd.Index(
            [f"{a}\x1f{t}" for (a, t) in alias_index_ref.keys()]
        )
        self._ids = np.array(
            [v[0] for v in alias_index_ref.values()], dtype=object
        )
        self._scores = np.array(
            [v[1] for v in alias_index_ref.values()], dtype=np.float32
        )
        # warm the Index hash engine + uniqueness check once per actor
        # (pandas otherwise pays them on the first batch)
        self._pidx.get_indexer(np.array(["\x00"], dtype=object))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        from ..functions.text import normalize_surface_array

        # vectorized normalize (NFC + lower — identical to the per-row
        # casefold for simple-case scripts AND what the DuckDB oracle's
        # lower() computes; functions/text.py normalize_surface_array)
        comp = pc.binary_join_element_wise(
            normalize_surface_array(batch["surface"]),
            batch["ent_type"],
            "\x1f",
        )
        pos = self._pidx.get_indexer(comp.to_numpy(zero_copy_only=False))
        found = pos >= 0
        safe = np.where(found, pos, 0)
        ids = np.where(found, self._ids[safe], None)
        scores = np.where(found, self._scores[safe], np.float32(0.0))
        out = batch.append_column(
            "cand_entity_id", pa.array(ids, pa.string())
        ).append_column(
            "link_score", pa.array(scores.astype(np.float32), pa.float32())
        )
        return out.select(LINKED.names).cast(LINKED)


def link_mentions(
    mentions: ray.data.Dataset,
    aliases: "pa.Table | ray.data.Dataset",
    *,
    concurrency: int | None = None,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """T1 → T3 via the broadcast alias index.

    A Dataset alias side is resolved DISTRIBUTED first (one bucketed
    shuffle reduces 10^8 raw candidate rows to one row per alias) before
    the resolved table is collected for broadcast — the driver never walks
    the raw candidate list."""
    import ray.data as rd

    if isinstance(aliases, rd.Dataset):
        resolved = resolve_aliases_distributed(aliases)
        from ..functions.joins import dataset_to_table

        best = dataset_to_table(resolved.materialize())
        index = {
            (a, t): (e, s)
            for a, t, e, s in zip(
                best["alias"].to_pylist(),
                best["ent_type"].to_pylist(),
                best["entity_id"].to_pylist(),
                best["score"].to_pylist(),
            )
        }
    else:
        index = build_alias_index(aliases)
    ref = ray.put(index) if ray.is_initialized() else index
    return mentions.map_batches(
        EntityLinker,
        fn_constructor_kwargs={"alias_index_ref": ref},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency or default_pool_size(),
    )


def mention_contexts(
    mentions: "ray.data.Dataset",
    turns: "ray.data.Dataset",
    *,
    ctx_chars: int = 20,
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Per-mention context windows: the turn text ± ``ctx_chars``
    characters around each mention span — the snippet a disambiguation
    reranker or a training-example builder consumes next to the surface
    form. Rows (conv_id, turn_idx, mention_id, ctx).

    One (conv, turn)-keyed join of mention spans against turn text
    (``join_auto``: broadcast when the turn table fits, co-partitioned
    hash above it — text rides the join exactly once), then a fully
    vectorized polars ``str.slice`` with per-row offsets. Span offsets
    are 0-based [start, end) characters, same as the extractor's."""
    import polars as pl
    import pyarrow as _pa

    from ..functions.joins import join_auto

    m = mentions.select_columns(
        ["conv_id", "turn_idx", "mention_id", "start", "end"]
    )
    t = turns.select_columns(["conv_id", "turn_idx", "text"])
    j = join_auto(
        m, t, on=("conv_id", "turn_idx"), num_partitions=num_partitions
    )

    def _ctx(tb: _pa.Table) -> _pa.Table:
        df = pl.from_arrow(tb)
        off = (pl.col("start") - ctx_chars).clip(lower_bound=0)
        out = df.select(
            pl.col("conv_id"),
            pl.col("turn_idx"),
            pl.col("mention_id"),
            pl.col("text")
            .str.slice(off, pl.col("end") + ctx_chars - off)
            .alias("ctx"),
        ).to_arrow()
        return out.cast(
            _pa.schema(
                [
                    ("conv_id", tb.schema.field("conv_id").type),
                    ("turn_idx", tb.schema.field("turn_idx").type),
                    ("mention_id", tb.schema.field("mention_id").type),
                    ("ctx", _pa.string()),
                ]
            )
        )

    return j.map_batches(_ctx, batch_format="pyarrow", zero_copy_batch=True)


def mention_positions(
    mentions: ray.data.Dataset, *, num_buckets: int = 8
) -> ray.data.Dataset:
    """Extraction observability: where in a conversation each entity type
    appears — per (ent_type, turn_idx): mention count and EXACT distinct
    conversations, rows ``(ent_type, turn_idx:int64, n_mentions:int64,
    n_convs:int64)``. A type whose positional profile shifts between
    ingest batches signals extractor drift (e.g. ORG mentions suddenly
    only in greetings). Same exact-distinct decomposition as
    `graph.pred_daily`: per-block (type, turn, conv) combiner → one
    type-bucketed merge; surfaces/offsets never move."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    out_schema = pa.schema(
        [
            ("ent_type", pa.string()),
            ("turn_idx", pa.int64()),
            ("n_mentions", pa.int64()),
            ("n_convs", pa.int64()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [
                    ("ent_type", pa.string()),
                    ("turn_idx", pa.int64()),
                    ("conv_id", pa.string()),
                    ("n", pa.int64()),
                ]
            ).empty_table()
        return (
            pl.from_arrow(t.select(["ent_type", "turn_idx", "conv_id"]))
            .with_columns(pl.col("turn_idx").cast(pl.Int64))
            .group_by(["ent_type", "turn_idx", "conv_id"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by(["ent_type", "turn_idx", "conv_id"])
            .agg(pl.col("n").sum())
            .group_by(["ent_type", "turn_idx"])
            .agg(
                pl.col("n").sum().alias("n_mentions"),
                pl.len().cast(pl.Int64).alias("n_convs"),
            )
            .select(["ent_type", "turn_idx", "n_mentions", "n_convs"])
            .to_arrow()
            .cast(out_schema)
        )

    partials = mentions.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partials, "ent_type", _merge, num_buckets=num_buckets
    )
