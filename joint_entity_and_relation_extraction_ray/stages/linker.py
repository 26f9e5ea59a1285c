"""EntityLinker — alias-dictionary linking stage (SURVEY.md §2.2 A2/J1).

The alias dictionary is tiny relative to the data, so this is a BROADCAST
lookup, never a shuffle join: the resolved alias table is ``ray.put``
once on the driver as the lookup (composite ``alias\x1fent_type`` key,
entity id, float32 score) and :func:`link_batch` links each MENTIONS
batch against it, keeping row order.

The lookup runs as a task map, fused with the map that feeds it, not in
an actor pool: ``pc.index_in`` hashes the keys on every call, 0.14 ms per
4,096-row batch at the KG corpora's 1,350 resolved aliases (one core of
a 4-vCPU host), while a pool's spin-up costs seconds per job.

Candidate scoring: among candidates whose type matches the mention's
decoded type, pick the highest disambiguation prior (tie-break:
lexicographically smallest entity_id) — a deterministic MAP choice;
``link_score`` is the prior normalized over the type-matching candidate
set. Unmatched mentions keep a null ``cand_entity_id`` and score 0.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.text import normalize_surface_array
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

    The resolved aliases as a Python dict: the reference form of the
    linker's lookup (tests and probes look mentions up in it, and
    :class:`EntityLinker` accepts it). Ambiguity is resolved once,
    vectorized; only the one-row-per-alias RESOLVED table is walked."""
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


def _alias_lookup(resolved: pa.Table) -> pa.Table:
    """The linker's broadcast lookup from resolved aliases (the
    :func:`resolve_aliases` columns): one row per composite
    ``alias\x1fent_type`` key with its entity id and float32 score."""
    return pa.table(
        {
            "key": pc.binary_join_element_wise(
                resolved["alias"], resolved["ent_type"], "\x1f"
            ),
            "entity_id": resolved["entity_id"],
            "score": resolved["score"].cast(pa.float32()),
        }
    ).combine_chunks()


def _index_lookup(index: dict) -> pa.Table:
    """The lookup of a :func:`build_alias_index` dict."""
    return _alias_lookup(
        pa.table(
            {
                "alias": pa.array([a for a, _ in index], pa.string()),
                "ent_type": pa.array([t for _, t in index], pa.string()),
                "entity_id": pa.array(
                    [e for e, _ in index.values()], pa.string()
                ),
                "score": pa.array([s for _, s in index.values()], pa.float64()),
            }
        )
    )


def link_batch(batch: pa.Table, lookup: pa.Table) -> pa.Table:
    """MENTIONS batch → LINKED batch in input row order, against the
    broadcast ``lookup`` (``key``, ``entity_id``, ``score``).

    The surface is normalized as the DuckDB oracle's ``lower()`` does
    (``functions.text.normalize_surface_array``) and joined with the
    mention's type into the composite key."""
    comp = pc.binary_join_element_wise(
        normalize_surface_array(batch["surface"]), batch["ent_type"], "\x1f"
    )
    pos = pc.index_in(
        comp, value_set=lookup["key"].combine_chunks(), skip_nulls=True
    )
    return (
        batch.append_column("cand_entity_id", lookup["entity_id"].take(pos))
        .append_column(
            "link_score", pc.fill_null(lookup["score"].take(pos), 0.0)
        )
        .select(LINKED.names)
        .cast(LINKED)
    )


class EntityLinker:
    """T1 MENTIONS batch → T3 LINKED batch: :func:`link_batch` as a
    callable over a :func:`build_alias_index` dict."""

    def __init__(self, alias_index: dict):
        self.lookup = _index_lookup(alias_index)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return link_batch(batch, self.lookup)


def link_mentions(
    mentions: ray.data.Dataset,
    aliases: "pa.Table | ray.data.Dataset",
    *,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """T1 → T3 via the broadcast alias lookup: :func:`link_batch` mapped
    over the mentions in the task pool (one call per block, so it fuses
    with the maps around it), at most ``concurrency`` tasks at once.

    A Dataset alias side is resolved DISTRIBUTED first (one bucketed
    shuffle reduces 10^8 raw candidate rows to one row per alias) before
    the broadcast, so the driver only ever holds the resolved lookup, not
    the raw candidate list."""
    import ray.data as rd

    from ..functions.joins import dataset_to_table

    if isinstance(aliases, rd.Dataset):
        resolved = dataset_to_table(
            resolve_aliases_distributed(aliases).materialize()
        )
    else:
        resolved = resolve_aliases(aliases)
    ref = ray.put(_alias_lookup(resolved))

    def _link(batch: pa.Table) -> pa.Table:
        return link_batch(batch, ray.get(ref))

    return mentions.map_batches(
        _link, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency,
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
