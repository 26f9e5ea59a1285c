"""The benchmark's workloads: their inputs, the job each one times, the
checks of its outputs and the per-layer metrics of its traced run.

Each job is written once. ``Steps`` runs it either untraced — datasets
stay lazy unless the job consumes them more than once — or traced, where
every call into the program gets a span and its dataset is materialized
before the span ends, so the span holds the work of that call.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen, oracle
from .trace import Tracer

PKG = "joint_entity_and_relation_extraction_ray"
DEDUP_THRESHOLD = 0.5


class Steps:
    """Runs one call of a job: untraced, or in a span with its dataset
    materialized (``reuse`` marks the datasets an untraced job reads twice,
    which it materializes too)."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def __call__(self, name, fn, *args, reuse: bool = False, **kwargs):
        import ray.data

        if self.tracer is None:
            out = fn(*args, **kwargs)
            return out.materialize() if reuse else out
        with self.tracer.span(name):
            out = fn(*args, **kwargs)
            if isinstance(out, ray.data.Dataset):
                out = out.materialize()
        return out

    def group(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


def _tables(ds) -> list[pa.Table]:
    import ray

    return ray.get(ds.to_arrow_refs())


def _count_valid(ds, column: str) -> tuple[int, int]:
    """(rows, non-null values of ``column``) of a dataset."""
    tables = _tables(ds.select_columns([column]))
    rows = sum(t.num_rows for t in tables)
    return rows, rows - sum(t[column].null_count for t in tables)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.parquet"))


# ---------------------------------------------------------------------------
# knowledge-graph workloads
# ---------------------------------------------------------------------------

# A fixed linking probe, the same in every run whatever the seed: three
# surfaces with precomposed non-ASCII letters, each the only alias of its
# entity. The seeded corpora are ASCII, so this is where such names meet
# the linker.
PROBE_ALIASES = pa.table(
    {
        "alias": ["zoë varga", "café müller", "sévigné"],
        "entity_id": ["X000001", "X000002", "X000003"],
        "ent_type": ["Peop", "Org", "Loc"],
        "prior": pa.array([1.0, 1.0, 1.0], pa.float32()),
    }
)
PROBE_MENTIONS = pa.table(
    {
        "conv_id": ["probe"] * 3,
        "turn_idx": pa.array([0, 0, 0], pa.int32()),
        "mention_id": ["probe:0:0:9", "probe:0:20:31", "probe:0:40:47"],
        "start": pa.array([0, 20, 40], pa.int32()),
        "end": pa.array([9, 31, 47], pa.int32()),
        "surface": ["Zoë Varga", "Café Müller", "Sévigné"],
        "ent_type": ["Peop", "Org", "Loc"],
        "score": pa.array([0.9, 0.9, 0.9], pa.float32()),
    }
)


def linker_probe() -> list[str]:
    """Link the probe mentions with the linker's batch function, in this
    process; every one must reach its entity."""
    import importlib

    linker = importlib.import_module(f"{PKG}.stages.linker")
    out = linker.EntityLinker(linker.build_alias_index(PROBE_ALIASES))(PROBE_MENTIONS)
    got = out["cand_entity_id"].to_pylist()
    want = PROBE_ALIASES["entity_id"].to_pylist()
    miss = [s for s, g, w in zip(PROBE_MENTIONS["surface"].to_pylist(), got, want) if g != w]
    return [f"linker probe: {len(miss)} of {len(want)} non-ASCII surfaces not linked ({', '.join(miss)})"] if miss else []


@dataclass
class KGCorpus:
    dir: Path
    rows: int
    want_edges: dict
    want_nodes: dict
    ts_range: tuple[int, int]


def _kg_corpus(d: Path) -> KGCorpus:
    """The inputs in ``d`` and the graph the oracle expects from them."""
    amap = oracle.alias_map(pq.read_table(d / "aliases.parquet"))
    ts = pq.read_table(d / "transcripts", columns=["ts"])["ts"]
    span = pc.min_max(ts)
    return KGCorpus(
        dir=d,
        rows=len(ts),
        want_edges=oracle.expected_edges(pq.read_table(d / "golden_triples.parquet"), amap),
        want_nodes=oracle.expected_node_counts(pq.read_table(d / "golden_mentions.parquet"), amap),
        ts_range=(span["min"].value, span["max"].value),
    )


def _check_kg(c: KGCorpus, graph_dir: Path) -> tuple[list[str], dict]:
    edges = pq.read_table(graph_dir / "edges", columns=["subj_id", "pred", "obj_id", "weight", "first_ts", "last_ts"])
    nodes = pq.read_table(graph_dir / "nodes", columns=["entity_id", "mention_count"])
    return oracle.check_graph(edges, nodes, c.want_edges, c.want_nodes, c.ts_range)


class KGStream:
    """The fused streaming pipeline, read to graph Parquet."""

    calls_per_job = 1
    warmup_job = True
    min_rounds = 1
    name = "kg-stream"
    probes = (linker_probe,)
    spec = gen.KGSpec(
        n_convs=2500, min_turns=2, max_turns=20, filler_share=0.3,
        min_clauses=1, max_clauses=3, distractor_share=0.25, n_files=8,
    )

    def prepare(self, cache: Path, seed: int) -> KGCorpus:
        return _kg_corpus(gen.ensure(cache, self.name, self.spec, seed))

    def job(self, c: KGCorpus, out: Path, steps: Steps, warmup: bool = False) -> dict:
        """``warmup`` reads the first input file only."""
        import importlib

        src = c.dir / "transcripts"
        kg = importlib.import_module(f"{PKG}.pipelines.kg")
        fused = importlib.import_module(f"{PKG}.stages.fused")
        graph = importlib.import_module(f"{PKG}.stages.graph")
        linker = importlib.import_module(f"{PKG}.stages.linker")
        read_transcripts = importlib.import_module(f"{PKG}.sources.transcripts").read_transcripts

        aliases = pq.read_table(c.dir / "aliases.parquet")
        ents = pq.read_table(c.dir / "entities.parquet")
        names = dict(zip(ents["entity_id"].to_pylist(), ents["canonical_name"].to_pylist()))
        turns = steps(
            "transcripts.read_transcripts",
            read_transcripts,
            [str(src / "part-000.parquet")] if warmup else str(src),
        )
        combined = steps("kg.extract_combined", kg.extract_combined, turns, aliases, reuse=True)
        mentions = steps("kg.mentions_of", kg.mentions_of, combined)
        triples = steps("kg.triples_of", kg.triples_of, combined)
        linked = steps("linker.link_mentions", linker.link_mentions, mentions, aliases)
        tagged = steps("fused.build_tagged", fused.build_tagged, linked, triples, reuse=True)
        labels = steps("fused.entity_labels", fused.entity_labels, tagged)
        canon = steps("fused.canon_from_tagged", fused.canon_from_tagged, tagged, labels)
        with steps.group("graph.edges"):
            rewritten = steps("fused.rewritten_from_tagged", fused.rewritten_from_tagged, tagged, labels)
            edges = steps("graph.build_edges", graph.build_edges, rewritten)
        with steps.group("graph.nodes"):
            rows = steps("fused.node_rows_from_tagged", fused.node_rows_from_tagged, tagged, labels)
            nodes = steps("graph.node_rollup", graph.node_rollup, rows, names)
        steps("graph.write_graph", graph.write_graph, nodes, edges, str(out))
        steps("sink.write_canon", canon.write_parquet, str(out / "canon"))
        return {"turns": turns, "combined": combined, "linked": linked, "tagged": tagged}

    def check(self, c: KGCorpus, out: Path, res: dict) -> tuple[list[str], dict]:
        bad, stats = _check_kg(c, out)
        canon = pq.read_table(out / "canon", columns=["canonical_id"])["canonical_id"]
        counts = pc.value_counts(canon).to_pylist()
        got = {r["values"]: r["counts"] for r in counts}
        cp, cr = oracle.weighted_pr(got, c.want_nodes)
        if cp < oracle.PR_BAR or cr < oracle.PR_BAR:
            bad.append(f"canon: mentions per canonical id, weighted precision {cp:.4f} / recall {cr:.4f}")
        return bad, stats

    def layers(self, c: KGCorpus, out: Path, res: dict, tr: Tracer, since: int) -> dict:
        def t(name):
            return tr.total(name, since)

        n_turns = res["turns"].count()
        n_mentions, n_linked = _count_valid(res["linked"], "cand_entity_id")
        tagged = res["tagged"]
        kinds = pc.value_counts(
            pa.chunked_array([x["kind"] for x in _tables(tagged.select_columns(["kind"]))])
        ).to_pylist()
        n_merge = sum(r["counts"] for r in kinds if r["values"] == "p")
        graph_bytes = _dir_bytes(out / "nodes") + _dir_bytes(out / "edges")
        return {
            "transcripts.read_s": t("transcripts.read_transcripts"),
            "scorer.turns_per_s": n_turns / t("kg.extract_combined"),
            "scorer.rows_out": res["combined"].count(),
            "linker.mentions_per_s": n_mentions / t("linker.link_mentions"),
            "linker.link_rate": n_linked / n_mentions if n_mentions else 0.0,
            "shuffle.tagged_s": t("fused.build_tagged"),
            "shuffle.tagged_rows": tagged.count(),
            "shuffle.tagged_mb": tagged.size_bytes() / 1e6,
            "canonical.labels_s": t("fused.entity_labels"),
            "canonical.merge_edges": n_merge,
            "fused.canon_s": t("fused.canon_from_tagged"),
            "graph.edges_s": t("graph.edges"),
            "graph.nodes_s": t("graph.nodes"),
            "graph.write_s": t("graph.write_graph"),
            "graph.bytes": graph_bytes,
            "graph.write_mb_per_s": graph_bytes / 1e6 / t("graph.write_graph"),
        }


def _stage_walls(out: Path) -> dict[str, float]:
    """stage → summed write wall the checkpointer recorded in metrics.jsonl."""
    walls: dict[str, float] = {}
    for line in (out / "metrics.jsonl").read_text().splitlines():
        rec = json.loads(line)
        walls[rec["stage"]] = walls.get(rec["stage"], 0.0) + rec["wall_s"]
    return walls


class KGJob:
    """The checkpointed job, cold on a fresh root, then resubmitted."""

    name = "kg-job"
    calls_per_job = 2
    # the timed job of an untraced run is the session's first, as in a
    # fresh ``ray job submit``: a warm-up job costs nearly as much as the
    # job (it is nearly all fixed cost) and would double the run
    warmup_job = False
    min_rounds = 1
    probes = (linker_probe,)
    spec = gen.KGSpec(
        n_convs=800, min_turns=10, max_turns=40, filler_share=0.0,
        min_clauses=3, max_clauses=3, distractor_share=0.0, n_files=1,
    )

    def prepare(self, cache: Path, seed: int) -> KGCorpus:
        return _kg_corpus(gen.ensure(cache, self.name, self.spec, seed))

    def job(self, c: KGCorpus, out: Path, steps: Steps, warmup: bool = False) -> dict:
        """``warmup`` runs the cold job alone on the first 50 conversations:
        the job is nearly all fixed cost, which a small input pays too."""
        import importlib

        run_checkpointed = importlib.import_module(f"{PKG}.pipelines.run").run_checkpointed
        src = c.dir / "transcripts"
        if warmup:
            t = pq.read_table(src)
            first = pc.unique(t["conv_id"])[:50]
            src = out / "input"
            src.mkdir(parents=True)
            pq.write_table(t.filter(pc.is_in(t["conv_id"], value_set=first)), src / "part-000.parquet")
            run_checkpointed(str(src), str(c.dir / "aliases.parquet"), str(c.dir / "entities.parquet"), str(out / "graph"))
            return {}
        args = (str(src), str(c.dir / "aliases.parquet"), str(c.dir / "entities.parquet"), str(out))
        t0 = time.perf_counter()
        steps("run.run_checkpointed[cold]", run_checkpointed, *args)
        cold_s = time.perf_counter() - t0
        before = (oracle.checkpoint_files(out), oracle.stage_fingerprints(out))
        t0 = time.perf_counter()
        manifest = steps("run.run_checkpointed[resume]", run_checkpointed, *args)
        return {"before": before, "manifest": manifest, "cold_s": cold_s, "resume_s": time.perf_counter() - t0}

    def check(self, c: KGCorpus, out: Path, res: dict) -> tuple[list[str], dict]:
        bad, stats = _check_kg(c, out)
        files, fps = res["before"]
        bad += oracle.check_resubmission(
            files, oracle.checkpoint_files(out), fps, oracle.stage_fingerprints(out), res["manifest"]["fingerprints"]
        )
        return bad, {**stats, "cold_s": res["cold_s"], "resume_s": res["resume_s"], "stage_wall_s": _stage_walls(out)}

    def layers(self, c: KGCorpus, out: Path, res: dict, tr: Tracer, since: int) -> dict:
        walls = _stage_walls(out)
        stages = res["manifest"]["stages"]
        linked = pq.read_table(out / "linked", columns=["cand_entity_id"])["cand_entity_id"]
        return {
            "run.cold_s": tr.total("run.run_checkpointed[cold]", since),
            "checkpoint.resume_s": tr.total("run.run_checkpointed[resume]", since),
            "checkpoint.bytes": _dir_bytes(out),
            "scorer.turns_per_s": c.rows / walls["combined"],
            "scorer.rows_out": stages["combined"],
            "linker.mentions_per_s": stages["linked"] / walls["linked"],
            "linker.link_rate": (len(linked) - linked.null_count) / len(linked) if len(linked) else 0.0,
        }


# ---------------------------------------------------------------------------
# near-duplicate documents
# ---------------------------------------------------------------------------


@dataclass
class DocCorpus:
    dir: Path
    rows: int
    shingles: list
    want: set


class DocsDedup:
    """MinHash-LSH near-duplicate pairs at Jaccard 0.5."""

    calls_per_job = 1
    # the job is short (about 7 s), so a run times three and reports their
    # median, which also drops the session's first, slower job
    warmup_job = False
    min_rounds = 3
    probes = ()
    name = "docs-dedup"
    spec = gen.DocSpec(n_docs=40000, words_per_doc=40, vocab=30000, dup_share=0.1, max_chain=6, max_edits=4, n_files=8)

    def prepare(self, cache: Path, seed: int) -> DocCorpus:
        d = gen.ensure(cache, self.name, self.spec, seed)
        shingles = oracle.shingle_sets(np.load(d / "word_ids.npy"))
        return DocCorpus(
            dir=d,
            rows=self.spec.n_docs,
            shingles=shingles,
            want=oracle.expected_pairs(shingles, DEDUP_THRESHOLD),
        )

    def job(self, c: DocCorpus, out: Path, steps: Steps, warmup: bool = False) -> dict:
        """``warmup`` reads the first input file only."""
        import importlib

        import ray.data

        dedup = importlib.import_module(f"{PKG}.stages.dedup")
        src = c.dir / "docs"
        docs = steps("ray.data.read_parquet", ray.data.read_parquet, str(src / "part-000.parquet") if warmup else str(src))
        if steps.tracer is None:
            pairs = dedup.minhash_dedup_pairs(docs, threshold=DEDUP_THRESHOLD)
            return {"pairs": pa.concat_tables(_tables(pairs))}
        # the three public calls minhash_dedup_pairs is made of
        shingled = steps("dedup.shingle_docs", dedup.shingle_docs, docs)
        cand = steps("dedup.minhash_candidate_pairs", dedup.minhash_candidate_pairs, shingled)
        pairs = steps("dedup.verify_jaccard_pairs", dedup.verify_jaccard_pairs, cand, shingled, threshold=DEDUP_THRESHOLD)
        return {"pairs": pa.concat_tables(_tables(pairs)), "candidates": cand.count()}

    def check(self, c: DocCorpus, out: Path, res: dict) -> tuple[list[str], dict]:
        return oracle.check_pairs(res["pairs"], c.shingles, c.want, DEDUP_THRESHOLD)

    def layers(self, c: DocCorpus, out: Path, res: dict, tr: Tracer, since: int) -> dict:
        n_cand = res["candidates"]
        return {
            "dedup.shingle_s": tr.total("dedup.shingle_docs", since),
            "dedup.candidates_s": tr.total("dedup.minhash_candidate_pairs", since),
            "dedup.verify_s": tr.total("dedup.verify_jaccard_pairs", since),
            "dedup.candidate_pairs": n_cand,
            "dedup.verified_share": res["pairs"].num_rows / n_cand if n_cand else 0.0,
        }


WORKLOADS = {w.name: w for w in (KGStream(), KGJob(), DocsDedup())}
