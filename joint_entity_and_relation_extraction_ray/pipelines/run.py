"""Checkpointed end-to-end KG job — the ``ray job submit`` entry point
(SURVEY.md §3.2; BASELINE.json "launched via ray job submit ... resumes
without recomputing upstream").

    ray job submit -- python -m joint_entity_and_relation_extraction_ray.pipelines.run \
        --transcripts /data/transcripts --aliases /data/aliases.parquet \
        --entities /data/entities.parquet --out /data/kg_out

The job runs :func:`kg_stages`, the one definition of the KG pipeline
(``kg.stage`` runs the same list in memory). Every stage boundary is a
parquet checkpoint with a lineage fingerprint (state/checkpoint.py);
rerunning with the same inputs skips straight to
the first stale stage. Owns its Ray session only under ``__main__`` —
:func:`run_checkpointed` itself never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pyarrow.parquet as pq
import ray.data

from ..sources.transcripts import read_transcripts
from ..stages.scorer import COMBINED
from ..state.checkpoint import Checkpointer, parquet_sig
from . import kg
from .stage import Stage, run_pipeline


class CombinedStage(Stage):
    """A1 scorer over the transcript shards — partition-level resume: one
    shard per input-file group, each fingerprinting its own files' content
    digests."""

    name = "combined"
    output_schema = COMBINED

    def __init__(self, src_files, src_sigs, aliases, alias_sig,
                 batch_size, concurrency):
        self.src_files = src_files
        self.src_sigs = src_sigs
        self.aliases = aliases
        self.alias_sig = alias_sig
        self.batch_size = batch_size
        self.concurrency = concurrency
        self.num_shards = max(1, min(len(src_files), 16))

    def _shard_files(self, k: int) -> list[str]:
        return [
            f for i, f in enumerate(self.src_files) if i % self.num_shards == k
        ]

    def params(self, ctx):
        return {"batch_size": self.batch_size, "aliases": self.alias_sig}

    def shard_params(self, k, ctx):
        return {"files": {f: self.src_sigs[f] for f in self._shard_files(k)}}

    def apply(self, upstream, ctx):
        return kg.extract_combined(
            read_transcripts(self.src_files),
            self.aliases,
            batch_size=self.batch_size,
            concurrency=self.concurrency,
        )

    def apply_shard(self, k, upstream, ctx):
        return kg.extract_combined(
            read_transcripts(self._shard_files(k)),
            self.aliases,
            batch_size=self.batch_size,
            concurrency=self.concurrency,
        )


class _FnStage(Stage):
    """Adapter: a named function of upstream datasets as a Stage — the
    compact way run.py declares its map/join/aggregate stages as data."""

    def __init__(self, name, deps, fn, *, params=None, output_schema=None):
        self.name = name
        self.deps = tuple(deps)
        self._fn = fn
        self._params = params or {}
        self.output_schema = output_schema

    def params(self, ctx):
        return dict(self._params)

    def apply(self, upstream, ctx):
        return self._fn(upstream)


def kg_stages(
    transcripts_dir: str,
    aliases_path: str,
    entities_path: str,
    *,
    batch_size: int = 512,
    concurrency: int | None = None,
    num_salts: int = 16,
) -> list[Stage]:
    """THE KG pipeline as data — the only place its stages are wired.
    :func:`run_checkpointed` runs the list through the Checkpointer and
    ``kg.stage`` materializes it stage by stage. Swap any entry (e.g. a
    custom scorer subclassing CombinedStage) and feed the list to
    :func:`run_pipeline`.

    combined → mentions, triples → linked → tagged (the one conv-bucketed
    shuffle, stages/fused.py) → labels (CC over the entity-merge edges,
    run once) → canon, rewritten → edges, nodes."""
    from ..schema import CANON, EDGES, LINKED, MENTIONS, NODES, TRIPLES
    from ..stages import fused
    from ..stages.graph import build_edges, node_rollup
    from ..stages.linker import link_mentions

    aliases = pq.read_table(aliases_path)
    ents = pq.read_table(entities_path)
    entity_names = dict(
        zip(ents["entity_id"].to_pylist(), ents["canonical_name"].to_pylist())
    )
    # input lineage: CONTENT digests (parquet footer metadata), not just a
    # file listing + row counts — an in-place edit that keeps counts
    # constant must still invalidate downstream checkpoints
    src_files = sorted(str(p) for p in Path(transcripts_dir).glob("*.parquet"))
    src_sigs = {f: parquet_sig(f) for f in src_files}
    alias_sig = parquet_sig(aliases_path)
    entities_sig = parquet_sig(entities_path)

    def _with_labels(fn):
        return lambda u: fn(u["tagged"], fused.label_mapping(u["labels"]))

    # the graph stages' contract is their columns less `part`: `part` is
    # their partition directory and reads back as a string
    edges_cols, nodes_cols = (
        s.remove(s.get_field_index("part")) for s in (EDGES, NODES)
    )

    return [
        CombinedStage(
            src_files, src_sigs, aliases, alias_sig, batch_size, concurrency
        ),
        _FnStage(
            "mentions", ["combined"],
            lambda u: kg.mentions_of(u["combined"]),
            output_schema=MENTIONS,
        ),
        _FnStage(
            "triples", ["combined"],
            lambda u: kg.triples_of(u["combined"]),
            output_schema=TRIPLES,
        ),
        _FnStage(
            "linked", ["mentions"],
            lambda u: link_mentions(u["mentions"], aliases),
            params={"aliases": alias_sig},
            output_schema=LINKED,
        ),
        _FnStage(
            "tagged", ["linked", "triples"],
            lambda u: fused.build_tagged(u["linked"], u["triples"]),
            output_schema=fused.TAGGED,
        ),
        _FnStage(
            "labels", ["tagged"],
            lambda u: fused.cc_labels(u["tagged"], num_salts=num_salts),
            params={"num_salts": num_salts},
            output_schema=fused.LABELS,
        ),
        _FnStage(
            "canon", ["tagged", "labels"],
            _with_labels(fused.canon_from_tagged),
            output_schema=CANON,
        ),
        _FnStage(
            "rewritten", ["tagged", "labels"],
            _with_labels(fused.rewritten_from_tagged),
            output_schema=fused.REWRITTEN,
        ),
        _FnStage(
            "edges", ["rewritten"],
            lambda u: build_edges(u["rewritten"]),
            output_schema=edges_cols,
        ),
        _FnStage(
            "nodes", ["tagged", "labels"],
            lambda u: node_rollup(
                _with_labels(fused.node_rows_from_tagged)(u), entity_names
            ),
            params={"entities": entities_sig},
            output_schema=nodes_cols,
        ),
    ]


def run_checkpointed(
    transcripts_dir: str,
    aliases_path: str,
    entities_path: str,
    out_root: str,
    *,
    batch_size: int = 512,
    concurrency: int | None = None,
    num_salts: int = 16,
    stages: list[Stage] | None = None,
) -> dict:
    """Full pipeline with per-stage checkpoints; returns the run manifest.

    ``stages`` overrides the default :func:`kg_stages` list — the
    drop-in-operator extension point."""
    ck = Checkpointer(out_root)
    stages = stages or kg_stages(
        transcripts_dir,
        aliases_path,
        entities_path,
        batch_size=batch_size,
        concurrency=concurrency,
        num_salts=num_salts,
    )
    run_pipeline(stages, checkpointer=ck)
    return {
        "out_root": str(out_root),
        "fingerprints": dict(ck.fingerprints),
        "stages": {
            s: (ck.manifest(s) or {}).get("rows") for s in ck.fingerprints
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--transcripts", required=True)
    ap.add_argument("--aliases", required=True)
    ap.add_argument("--entities", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--batch-size", type=int, default=512)
    ap.add_argument("--concurrency", type=int, default=None)
    ap.add_argument("--num-salts", type=int, default=16)
    args = ap.parse_args()

    if not ray.is_initialized():
        import os

        ncpu = os.environ.get("KGRAY_NUM_CPUS")
        ray.init(
            address="local",
            include_dashboard=False,
            num_cpus=int(ncpu) if ncpu else None,
        )
    try:
        manifest = run_checkpointed(
            args.transcripts,
            args.aliases,
            args.entities,
            args.out,
            batch_size=args.batch_size,
            concurrency=args.concurrency,
            num_salts=args.num_salts,
        )
        print(json.dumps(manifest))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
