"""Fused canonicalize + graph-materialize dataflow — the KG pipeline's
canonicalization and graph inputs (wired as stages in
``pipelines/run.py::kg_stages``).

Mentions canonicalize in two levels: they collapse onto (conv_id,
normalized surface) groups, and an iterative CC runs over the
entity-merge graph only. A triple's endpoint groups are derivable from
the TRIPLE row itself — `(conv_id, normalize(subj_surface))` IS the
subject mention's group key, because the scorer emits the identical
surface slice for the mention and the triple endpoint. So one
conv-bucketed shuffle over mentions ∪ triples resolves EVERYTHING the
downstream graph needs, and canon / edges / nodes all derive from that
single `TAGGED` dataset with cheap maps + final aggregates — no
mention-keyed big–big joins at all (they were 60% of pipeline wall at 6M
turns).

TAGGED row kinds (superset schema, nulls off-kind):

| kind | columns used |
|------|--------------|
| m    | mention_id, rep, min_ent, surface, ent_type |
| t    | rep=subj_rep, min_ent=subj_ent, obj_rep, obj_ent, pred, ts |
| p    | min_ent=src entity, obj_ent=dst entity (entity-merge edge) |

Canonical label rule: for a group with linked entities, canonical = CC
label of its min entity; otherwise its rep (min mention_id). The
iterative salted hash-to-min CC runs on the `p`-edges only (groups that
link ≥ 2 distinct entities emit (min_ent, other entity) edges).

Exactness vs the mention-graph CC (``canonical._canonicalize_general``):
within a component of the co-reference graph every entity is reachable
through shared groups, so the merge edges connect exactly the entities
of a component; entity ids sort before mention ids in the mention-graph
label order ("e:" < "m:"), hence the component minimum is the min entity
when any entity exists (→ its CC label), else the minimum mention of the
single group (→ rep). tests/test_canonical.py checks this against the
general path and a pure-python union-find oracle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.shuffle import cobucket_apply, with_schema
from ..functions.text import normalize_surface_array
from ..schema import CANON, stable_bucket, stable_hash64
from .canonical import connected_components

TAGGED = pa.schema(
    [
        ("kind", pa.string()),
        ("mention_id", pa.string()),
        ("rep", pa.string()),
        ("min_ent", pa.string()),
        ("surface", pa.string()),
        ("ent_type", pa.string()),
        ("obj_rep", pa.string()),
        ("obj_ent", pa.string()),
        ("pred", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


# build_tagged's two shuffle sides: mentions and triples projected to
# their conv bucket and int64 group keys
_M_SIDE = pa.schema(
    [
        ("_bucket", pa.int32()),
        ("grp", pa.int64()),
        ("mention_id", pa.string()),
        ("entity", pa.string()),
        ("surface", pa.string()),
        ("ent_type", pa.string()),
    ]
)
_T_SIDE = pa.schema(
    [
        ("_bucket", pa.int32()),
        ("sgrp", pa.int64()),
        ("ogrp", pa.int64()),
        ("pred", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def _grp_keys(conv_col, surface_col) -> pa.Array:
    # fully vectorized: NFC+lower + binary join (Python-per-row normalize
    # over 10^7 rows was a top pipeline cost)
    return pc.binary_join_element_wise(
        conv_col.combine_chunks()
        if hasattr(conv_col, "combine_chunks")
        else conv_col,
        normalize_surface_array(
            surface_col.combine_chunks()
            if hasattr(surface_col, "combine_chunks")
            else surface_col
        ),
        "\x00",
    )


def _grp_hash(conv_col, surface_col) -> pa.Array:
    """int64 group key (see schema.stable_hash64) — 8 bytes through the
    shuffle instead of a ~25-byte string, and int joins in the reducers."""
    keys = _grp_keys(conv_col, surface_col)
    return pa.array(
        stable_hash64(keys.to_numpy(zero_copy_only=False)), pa.int64()
    )


def build_tagged(
    linked: ray.data.Dataset,
    triples: ray.data.Dataset,
    *,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """ONE conv-bucketed shuffle → TAGGED (m/t/p rows). Callers materialize."""

    def _bucket_of(t: pa.Table) -> pa.Array:
        return pa.array(
            stable_bucket(
                t["conv_id"].to_numpy(zero_copy_only=False), num_buckets
            ),
            pa.int32(),
        )

    def _m_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_bucket": _bucket_of(t),
                "grp": _grp_hash(t["conv_id"], t["surface"]),
                "mention_id": t["mention_id"],
                "entity": t["cand_entity_id"],
                "surface": t["surface"],
                "ent_type": t["ent_type"],
            },
            schema=_M_SIDE,
        )

    def _t_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_bucket": _bucket_of(t),
                "sgrp": _grp_hash(t["conv_id"], t["subj_surface"]),
                "ogrp": _grp_hash(t["conv_id"], t["obj_surface"]),
                "pred": t["pred"],
                "ts": t["ts"],
            },
            schema=_T_SIDE,
        )

    # typed sides: a corpus that names no entity still shuffles (and
    # yields a TAGGED empty) instead of meeting a side with no schema
    m_in = with_schema(
        linked.map_batches(_m_proj, batch_format="pyarrow", zero_copy_batch=True),
        _M_SIDE,
    )
    t_in = with_schema(
        triples.map_batches(_t_proj, batch_format="pyarrow", zero_copy_batch=True),
        _T_SIDE,
    )

    def _bucket_fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import polars as pl

        l = pl.from_arrow(lt.drop_columns(["_bucket"]))
        rt = rt.drop_columns(["_bucket"])
        groups = l.group_by("grp").agg(
            pl.col("mention_id").min().alias("rep"),
            pl.col("entity").drop_nulls().min().alias("min_ent"),
            pl.col("entity").drop_nulls().n_unique().alias("n_ent"),
        )
        m_out = l.join(groups, on="grp", how="left").select(
            pl.lit("m").alias("kind"),
            pl.col("mention_id"),
            pl.col("rep"),
            pl.col("min_ent"),
            pl.col("surface"),
            pl.col("ent_type"),
            pl.lit(None, dtype=pl.String).alias("obj_rep"),
            pl.lit(None, dtype=pl.String).alias("obj_ent"),
            pl.lit(None, dtype=pl.String).alias("pred"),
            pl.lit(None, dtype=pl.Datetime("us")).alias("ts"),
        )
        parts = [m_out]

        r = pl.from_arrow(rt)
        if r.height:
            g = groups.select("grp", "rep", "min_ent")
            t_out = (
                r.join(g, left_on="sgrp", right_on="grp", how="inner")
                .rename({"rep": "srep", "min_ent": "sent"})
                .join(g, left_on="ogrp", right_on="grp", how="inner")
                .select(
                    pl.lit("t").alias("kind"),
                    pl.lit(None, dtype=pl.String).alias("mention_id"),
                    pl.col("srep").alias("rep"),
                    pl.col("sent").alias("min_ent"),
                    pl.lit(None, dtype=pl.String).alias("surface"),
                    pl.lit(None, dtype=pl.String).alias("ent_type"),
                    pl.col("rep").alias("obj_rep"),
                    pl.col("min_ent").alias("obj_ent"),
                    pl.col("pred"),
                    pl.col("ts"),
                )
            )
            parts.append(t_out)

        multi = groups.filter(pl.col("n_ent") >= 2).select("grp", "min_ent")
        if multi.height:
            pairs = (
                l.join(multi, on="grp", how="inner")
                .filter(pl.col("entity").is_not_null())
                .select("min_ent", "entity")
                .unique()
                .filter(pl.col("entity") != pl.col("min_ent"))
                .select(
                    pl.lit("p").alias("kind"),
                    pl.lit(None, dtype=pl.String).alias("mention_id"),
                    pl.lit(None, dtype=pl.String).alias("rep"),
                    pl.col("min_ent"),
                    pl.lit(None, dtype=pl.String).alias("surface"),
                    pl.lit(None, dtype=pl.String).alias("ent_type"),
                    pl.lit(None, dtype=pl.String).alias("obj_rep"),
                    pl.col("entity").alias("obj_ent"),
                    pl.lit(None, dtype=pl.String).alias("pred"),
                    pl.lit(None, dtype=pl.Datetime("us")).alias("ts"),
                )
            )
            parts.append(pairs)
        return pl.concat(parts).to_arrow().cast(TAGGED)

    return cobucket_apply(
        m_in,
        t_in,
        "_bucket",
        "_bucket",
        _bucket_fn,
        num_buckets=num_buckets,
    )


LABELS = pa.schema([("node", pa.string()), ("label", pa.string())])
# input of edge dedup (G1) and of node rollup (G2)
REWRITTEN = pa.schema(
    [
        ("subj_id", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)
NODE_ROWS = pa.schema(
    [
        ("canonical_id", pa.string()),
        ("surface", pa.string()),
        ("ent_type", pa.string()),
    ]
)


def cc_labels(
    tagged: ray.data.Dataset, *, num_salts: int = 16, **cc_kwargs
) -> ray.data.Dataset:
    """Salted iterative CC over the p-edges → LABELS (node, label) for
    every entity in a merge edge; a typed empty Dataset when no group
    links ≥ 2 entities (the CC loop then never runs)."""
    merge_edges = tagged.map_batches(
        lambda t: (
            lambda f: pa.table({"src": f["min_ent"], "dst": f["obj_ent"]})
        )(t.filter(pc.equal(t["kind"], "p"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if merge_edges.count() == 0:
        return ray.data.from_arrow(LABELS.empty_table())
    return connected_components(
        merge_edges, num_salts=num_salts, **cc_kwargs
    ).materialize()


def label_mapping(
    labels: ray.data.Dataset, *, broadcast_threshold: int | None = None
):
    """LABELS → the label argument of the ``*_from_tagged`` consumers.

    Size-guarded physical choice: up to ``broadcast_threshold`` rows the
    mapping collects to a broadcast dict (one ``ray.put``, looked up in
    every consumer map task); above it the mapping STAYS a Dataset and
    consumers resolve labels through a co-bucketed shuffle join — at
    catalog scale (10^8 entities) a driver-side dict would OOM the driver.
    The label set is bounded by entities that appear in merge edges, so
    the broadcast path is the common case.
    """
    from ..functions.joins import BROADCAST_THRESHOLD_ROWS

    if broadcast_threshold is None:
        broadcast_threshold = BROADCAST_THRESHOLD_ROWS
    n = labels.count()
    if n > broadcast_threshold:
        return labels
    # no merge edges is the common case: skip executing a collect for it
    lab = {r["node"]: r["label"] for r in labels.take_all()} if n else {}
    return ray.put(lab) if ray.is_initialized() else lab


def entity_labels(
    tagged: ray.data.Dataset,
    *,
    num_salts: int = 16,
    broadcast_threshold: int | None = None,
    **cc_kwargs,
):
    """:func:`cc_labels` in the form :func:`label_mapping` hands to the
    consumers: a broadcast entity→label dict, or the label Dataset above
    ``broadcast_threshold`` rows."""
    return label_mapping(
        cc_labels(tagged, num_salts=num_salts, **cc_kwargs),
        broadcast_threshold=broadcast_threshold,
    )


def _get(ref):
    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


def _add_label(t: pa.Table, res: tuple[str, str, str], nodes, labels) -> pa.Table:
    """Append ``out = label(ent) if ent has a CC label else ent if ent is
    non-null else rep`` for ``res = (out, ent, rep)``; ``nodes`` and
    ``labels`` are the label table's two columns."""
    import pandas as pd

    out, ent, rep = res
    e = t[ent].combine_chunks()
    hit = pa.nulls(len(e), pa.string())
    if len(labels):
        pos = pd.Index(nodes).get_indexer(e.to_numpy(zero_copy_only=False))
        hit = labels.take(pa.array(pos, mask=pos < 0))
    return t.append_column(out, pc.coalesce(hit, e, t[rep].combine_chunks()))


def _labelled(
    tagged: ray.data.Dataset,
    lab_ref,
    kind: str,
    resolve: list[tuple[str, str, str]],
    schema: pa.Schema,
    rename: dict[str, str] | None = None,
    *,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """``kind`` rows of TAGGED with every ``(out, ent, rep)`` of
    ``resolve`` labelled (:func:`_add_label`), projected to ``schema``
    (``rename`` maps an output column to the TAGGED column it copies).

    A broadcast label dict is looked up inside one map; a label Dataset
    (above the broadcast threshold) is joined in by ONE co-bucketed
    shuffle per entity column, the same lookup running per bucket."""
    rename = rename or {}
    outs = [o for o, _, _ in resolve]
    cols = list(
        dict.fromkeys(
            [c for _, e, r in resolve for c in (e, r)]
            + [rename.get(n, n) for n in schema.names if n not in outs]
        )
    )

    def _project(t: pa.Table) -> pa.Table:
        return pa.table(
            {n: t[rename.get(n, n)] for n in schema.names}
        ).cast(schema)

    if not isinstance(lab_ref, ray.data.Dataset):

        def _emit(t: pa.Table) -> pa.Table:
            f = t.filter(pc.equal(t["kind"], kind))
            lab = _get(lab_ref)
            nodes, labels = list(lab), pa.array(list(lab.values()), pa.string())
            for res in resolve:
                f = _add_label(f, res, nodes, labels)
            return _project(f)

        return tagged.map_batches(
            _emit, batch_format="pyarrow", zero_copy_batch=True
        )

    rows = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], kind)).select(cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    for res in resolve:
        rows = cobucket_apply(
            rows,
            lab_ref,
            lambda t, ent=res[1]: pc.coalesce(t[ent].combine_chunks(), ""),
            lambda t: t["node"].combine_chunks(),
            lambda lt, rt, res=res: _add_label(
                lt,
                res,
                rt["node"].to_numpy(zero_copy_only=False),
                rt["label"].combine_chunks(),
            ),
            num_buckets=num_buckets,
        )
    return rows.map_batches(_project, batch_format="pyarrow", zero_copy_batch=True)


def canon_from_tagged(tagged: ray.data.Dataset, lab_ref) -> ray.data.Dataset:
    """m-rows → T4 CANON (member_id, canonical_id)."""
    return _labelled(
        tagged, lab_ref, "m", [("canonical_id", "min_ent", "rep")], CANON,
        {"member_id": "mention_id"},
    )


def rewritten_from_tagged(tagged: ray.data.Dataset, lab_ref) -> ray.data.Dataset:
    """t-rows → REWRITTEN (subj_id, pred, obj_id, ts): input of edge dedup (G1)."""
    return _labelled(
        tagged, lab_ref, "t",
        [("subj_id", "min_ent", "rep"), ("obj_id", "obj_ent", "obj_rep")],
        REWRITTEN,
    )


def node_rows_from_tagged(tagged: ray.data.Dataset, lab_ref) -> ray.data.Dataset:
    """m-rows → NODE_ROWS (canonical_id, surface, ent_type): input of node rollup (G2)."""
    return _labelled(
        tagged, lab_ref, "m", [("canonical_id", "min_ent", "rep")], NODE_ROWS
    )
