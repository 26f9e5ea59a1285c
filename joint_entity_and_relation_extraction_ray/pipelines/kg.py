"""Flagship KG-construction pipeline (SURVEY.md §3.2).

T0 transcripts → A1 scorer (actor pool) → T1 mentions + T2 triples
→ A2 linking → CC canonicalization → graph materialize (T5/T6).

The building blocks live here and in stages/; the pipeline itself is
wired once, as the stage list ``pipelines/run.py::kg_stages``, which
:func:`stage` materializes per sf_dir and the checkpointed job runs
through its Checkpointer.

All functions build LAZY ``ray.data.Dataset`` pipelines; nothing here calls
``ray.init()`` (driver/bench/tests own the session, SURVEY.md §3.3).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..schema import MENTIONS, TRIPLES
from ..sources.synth import corpus_for_sf_dir
from ..sources.transcripts import read_transcripts
from ..stages.linker import (  # shared actor-pool sizing rule
    default_pool_size as default_scorer_concurrency,  # noqa: F401
)
from ..stages.scorer import TripleScorer, gazetteer_from_alias_table
from .stage import check_output_schema


def broadcast(obj):
    """``ray.put`` once on the driver; actors ``ray.get`` in ``__init__``.
    The broadcast pattern for small sides (SURVEY.md §2.2 J1/A2) — never
    re-shipped per batch, never a shuffle join."""
    return ray.put(obj) if ray.is_initialized() else obj


def scorer_map_kwargs(
    gaz_ref,
    *,
    concurrency: int | None = None,
    batch_size: int = 512,
    num_gpus: float = 0,
    max_unit_chars: int | None = None,
    encoder_factory=None,
) -> dict:
    """The exact ``map_batches`` kwargs for the scorer actor-pool stage —
    factored out so tests can assert the plumbing (encoder seam +
    ``num_gpus``) without running a pipeline. ``num_gpus`` > 0 makes each
    scorer actor reserve that GPU fraction (warm-model replicas);
    ``encoder_factory`` swaps the model without touching pipeline code."""
    from ..stages.scorer import MAX_UNIT_CHARS

    kwargs = dict(
        fn_constructor_kwargs={
            "gazetteer_ref": gaz_ref,
            "max_unit_chars": max_unit_chars or MAX_UNIT_CHARS,
            "encoder_factory": encoder_factory,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency or default_scorer_concurrency(),
    )
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    return kwargs


def extract_combined(
    transcripts: ray.data.Dataset,
    aliases: pa.Table,
    *,
    concurrency: int | None = None,
    batch_size: int = 512,
    num_gpus: float = 0,
    max_unit_chars: int | None = None,
    encoder_factory=None,
) -> ray.data.Dataset:
    """A1: scorer actor pool over T0 → combined mention|triple rows.

    ``num_gpus`` is the config knob for real-model deployments
    (BASELINE.json:6 "GPU actor pool holding warm model replicas"); the
    surrogate runs on CPU. ``max_unit_chars`` caps the model unit (M4) so
    one mega-turn cannot blow up a batch. ``encoder_factory`` is the
    model seam — see :class:`..stages.scorer.TripleScorer`.
    """
    gaz_ref = broadcast(gazetteer_from_alias_table(aliases))
    return transcripts.map_batches(
        TripleScorer,
        **scorer_map_kwargs(
            gaz_ref,
            concurrency=concurrency,
            batch_size=batch_size,
            num_gpus=num_gpus,
            max_unit_chars=max_unit_chars,
            encoder_factory=encoder_factory,
        ),
    )


def mentions_of(combined: ray.data.Dataset) -> ray.data.Dataset:
    """T1: cheap filter+project of the combined scorer output."""
    return combined.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "mention")).select(MENTIONS.names).cast(MENTIONS),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def triples_of(combined: ray.data.Dataset) -> ray.data.Dataset:
    """T2: cheap filter+project of the combined scorer output."""
    return combined.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "triple")).select(TRIPLES.names).cast(TRIPLES),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def to_table(ds: ray.data.Dataset) -> pa.Table:
    """Collect a SMALL dataset to one Arrow table (tests / small results
    only — big data stays streamed, SURVEY.md 'streaming execution')."""
    refs = ds.to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_rows]
    if not tables:
        return ds.schema().empty_table() if ds.schema() else pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def load_aliases(sf_dir: str) -> pa.Table:
    return pq.read_table(corpus_for_sf_dir(sf_dir) / "aliases.parquet")


def extract_for_sf_dir(sf_dir: str) -> ray.data.Dataset:
    """Convenience: sf testdata dir → combined extraction Dataset over the
    deterministic synthetic corpus paired with that scale factor."""
    corpus = corpus_for_sf_dir(sf_dir)
    ds = read_transcripts(str(corpus / "transcripts"))
    return extract_combined(ds, load_aliases(sf_dir))


# ---------------------------------------------------------------------------
# The stage list run in memory, one materialization per stage per sf_dir
# per process (stage boundaries are parquet checkpoints in the resumable
# variant, see pipelines/run.py)
# ---------------------------------------------------------------------------

_STAGE_CACHE: dict[tuple[str, str], ray.data.Dataset] = {}


def evict(sf_dir: str, *names: str) -> None:
    """Release cached materialized stages (frees their object-store
    blocks). The streaming design never needs every intermediate alive at
    once — holding them all caused object-store pressure at ≥10^7 turns."""
    for n in names:
        _STAGE_CACHE.pop((sf_dir, n), None)


def stage(sf_dir: str, name: str) -> ray.data.Dataset:
    """Materialized output of stage ``name`` of ``kg_stages`` over the
    synthetic corpus paired with ``sf_dir``, computed once per process
    (with whatever upstream stages it needs).

    Stages: combined | mentions | triples | linked | tagged | labels |
    canon | rewritten | edges | nodes.
    """
    if (sf_dir, name) in _STAGE_CACHE:
        return _STAGE_CACHE[(sf_dir, name)]
    from .run import kg_stages

    corpus = corpus_for_sf_dir(sf_dir)
    # one stage list per call: building it reads the alias/entity tables
    # and digests every transcript file
    stages = {
        s.name: s
        for s in kg_stages(
            str(corpus / "transcripts"),
            str(corpus / "aliases.parquet"),
            str(corpus / "entities.parquet"),
        )
    }

    def _get(n: str) -> ray.data.Dataset:
        key = (sf_dir, n)
        if key in _STAGE_CACHE:
            return _STAGE_CACHE[key]
        st = stages.get(n)
        if st is None:
            raise ValueError(f"unknown stage {n!r}")
        ds = st.apply({d: _get(d) for d in st.deps}, {}).materialize()
        if st.output_schema is not None:
            check_output_schema(ds, st.output_schema, n)
        _STAGE_CACHE[key] = ds
        return ds

    return _get(name)


def run_kg(sf_dir: str, out_dir: str | None = None) -> dict[str, ray.data.Dataset]:
    """The flagship end-to-end pipeline (SURVEY.md §3.2): extraction →
    linking → canonicalization → graph materialize; optionally writes
    partitioned node/edge parquet."""
    from ..stages.graph import write_graph

    out = {
        name: stage(sf_dir, name)
        for name in ("mentions", "triples", "linked", "canon", "edges", "nodes")
    }
    if out_dir is not None:
        write_graph(out["nodes"], out["edges"], out_dir)
    return out


def build_report(sf_dir: str) -> "ray.data.Dataset":
    """One-row KG-build health report — the numbers an ingest run
    publishes to its dashboard before anyone trusts the graph:
    ``(n_mentions, n_triples, n_linked, link_rate, n_entities_linked,
    n_edges, total_weight)``. ``link_rate`` is one IEEE double division
    (n_linked / n_mentions) so the SQL oracle matches bit-for-bit;
    ``n_entities_linked`` counts distinct CATALOG entities observed
    (pre-canonicalization — the canonical node count is its own query,
    kg_nodes). Each number is a distributed aggregate over a cached
    stage; only seven scalars reach the driver."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    mentions = stage(sf_dir, "mentions")
    triples = stage(sf_dir, "triples")
    linked = stage(sf_dir, "linked")
    edges = stage(sf_dir, "edges")

    n_mentions = mentions.count()
    n_triples = triples.count()

    def _linked_partial(t: pa.Table) -> pa.Table:
        ent = t["cand_entity_id"]
        return pa.table(
            {
                "n_linked": pa.array(
                    [int(pc.sum(pc.cast(pc.is_valid(ent), pa.int64())).as_py() or 0)],
                    pa.int64(),
                ),
            }
        )

    n_linked = sum(
        r["n_linked"]
        for r in linked.map_batches(
            _linked_partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
    )
    ents = linked.map_batches(
        lambda t: pa.table(
            {
                "entity_id": pc.drop_null(
                    t["cand_entity_id"].combine_chunks()
                ).unique()
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    from ..stages.relational import distinct_keys

    n_entities = distinct_keys(ents, "entity_id").count()

    def _edge_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "w": pa.array(
                    [int(pc.sum(t["weight"]).as_py() or 0)], pa.int64()
                ),
            }
        )

    ew = edges.map_batches(
        _edge_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    n_edges = sum(r["n"] for r in ew)
    total_weight = sum(r["w"] for r in ew)

    link_rate = np.float64(n_linked) / np.float64(n_mentions)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_mentions": pa.array([n_mentions], pa.int64()),
                "n_triples": pa.array([n_triples], pa.int64()),
                "n_linked": pa.array([n_linked], pa.int64()),
                "link_rate": pa.array([float(link_rate)], pa.float64()),
                "n_entities_linked": pa.array([n_entities], pa.int64()),
                "n_edges": pa.array([n_edges], pa.int64()),
                "total_weight": pa.array([total_weight], pa.int64()),
            }
        )
    )
