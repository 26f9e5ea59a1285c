"""The broadcast alias linker (stages/linker.py): one lookup function
behind the task map and EntityLinker, row order, no actor pool, and an
empty corpus through the streaming call chain and the checkpointed job
to graph Parquet."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from joint_entity_and_relation_extraction_ray.functions.text import normalize_surface
from joint_entity_and_relation_extraction_ray.pipelines import kg
from joint_entity_and_relation_extraction_ray.schema import (
    ALIASES,
    EDGES,
    LINKED,
    MENTIONS,
    NODES,
    TRANSCRIPTS,
)
from joint_entity_and_relation_extraction_ray.stages.linker import (
    EntityLinker,
    build_alias_index,
    link_mentions,
)

from test_canonical import ACCENT_ALIAS, ACCENT_MENTION

ROOT = Path(__file__).resolve().parent.parent


def _mention(mid, surface, ent_type):
    return pa.table(
        {"conv_id": ["edge"], "turn_idx": pa.array([0], pa.int32()),
         "mention_id": [mid], "start": pa.array([0], pa.int32()),
         "end": pa.array([len(surface)], pa.int32()), "surface": [surface],
         "ent_type": [ent_type], "score": pa.array([0.9], pa.float32())},
        schema=MENTIONS,
    )


# two candidates for one (alias, type) with tied priors: the smaller
# entity id wins with half the prior mass
TIED_ALIASES = pa.table(
    {"alias": ["tied name", "tied name"], "entity_id": ["X0003", "X0002"],
     "ent_type": ["Peop", "Peop"], "prior": pa.array([0.5, 0.5], pa.float32())},
    schema=ALIASES,
)


@pytest.fixture(scope="module")
def link_case(sf0001_corpus):
    """sf0.001 golden mentions plus an accented surface, an unmatched
    surface, a surface known under another type and a tied alias."""
    aliases = pa.concat_tables(
        [pq.read_table(sf0001_corpus / "aliases.parquet").cast(ALIASES),
         ACCENT_ALIAS, TIED_ALIASES]
    )
    known = aliases["alias"][0].as_py()
    other_type = next(
        t for t in ("Peop", "Org", "Loc")
        if (known, t) not in build_alias_index(aliases)
    )
    mentions = pa.concat_tables(
        [pq.read_table(sf0001_corpus / "golden_mentions").cast(MENTIONS),
         ACCENT_MENTION,
         _mention("edge:0:0:1", "Nobody Atall", "Peop"),
         _mention("edge:0:0:2", known.upper(), other_type),
         _mention("edge:0:0:3", "Tied Name", "Peop")]
    )
    return aliases, mentions


def _dict_lookup(aliases, mentions):
    """The pure-Python reference: build_alias_index's dict, per row."""
    idx = build_alias_index(aliases)
    hits = [
        idx.get((normalize_surface(s), t), (None, 0.0))
        for s, t in zip(mentions["surface"].to_pylist(),
                        mentions["ent_type"].to_pylist())
    ]
    return (
        [e for e, _ in hits],
        pa.array([s for _, s in hits], pa.float32()).to_pylist(),
    )


def _by_mention(t: pa.Table):
    return sorted(zip(t["mention_id"].to_pylist(),
                      t["cand_entity_id"].to_pylist(),
                      t["link_score"].to_pylist()))


def test_task_map_linker_and_dict_lookups_agree(ray_session, link_case):
    """The task map, EntityLinker and the dict lookup give the same
    entity and score to every mention."""
    aliases, mentions = link_case
    ids, scores = _dict_lookup(aliases, mentions)
    want = sorted(zip(mentions["mention_id"].to_pylist(), ids, scores))
    assert dict((m, e) for m, e, _ in want)["edge:0:0:3"] == "X0002"
    assert dict((m, s) for m, _, s in want)["edge:0:0:3"] == 0.5
    assert sum(e is None for _, e, _ in want) == 2

    task = kg.to_table(link_mentions(ray.data.from_arrow(mentions), aliases))
    callable_ = EntityLinker(build_alias_index(aliases))(mentions)
    assert task.schema == callable_.schema == LINKED
    assert _by_mention(task) == _by_mention(callable_) == want


def test_entity_linker_keeps_row_order(link_case):
    aliases, mentions = link_case
    shuffled = mentions.take(list(range(mentions.num_rows))[::-1])
    out = EntityLinker(build_alias_index(aliases))(shuffled)
    assert out.schema == LINKED
    assert out["mention_id"].to_pylist() == shuffled["mention_id"].to_pylist()
    assert (out["cand_entity_id"].to_pylist(), out["link_score"].to_pylist()) == (
        _dict_lookup(aliases, shuffled)
    )


def test_link_mentions_needs_no_actor(sf0001_corpus, tmp_path):
    """In a 1-CPU session, where no actor pool can run beside the tasks
    that feed it, the linker still links every mention."""
    script = textwrap.dedent(
        f"""
        import pyarrow.parquet as pq, ray
        from joint_entity_and_relation_extraction_ray.pipelines.kg import to_table
        from joint_entity_and_relation_extraction_ray.stages.linker import link_mentions
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        d = "{sf0001_corpus}"
        m = pq.read_table(d + "/golden_mentions")
        out = to_table(link_mentions(ray.data.from_arrow(m),
                                     pq.read_table(d + "/aliases.parquet")))
        print("linked", out.num_rows, m.num_rows, out["cand_entity_id"].null_count)
        ray.shutdown()
        """
    )
    res = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    line = [ln for ln in res.stdout.splitlines() if ln.startswith("linked")][-1]
    _, got, want, unlinked = line.split()
    assert got == want and unlinked == "0"


def test_corpus_naming_no_entity_builds_empty_graph(ray_session, sf0001_corpus, tmp_path):
    """Turns that mention nothing: kg-stream's in-memory call chain and
    the checkpointed job both write the graph Parquet, empty and typed."""
    from joint_entity_and_relation_extraction_ray.pipelines.run import (
        run_checkpointed,
    )
    from joint_entity_and_relation_extraction_ray.sources.transcripts import (
        read_transcripts,
    )
    from joint_entity_and_relation_extraction_ray.stages import fused, graph

    n = 50
    src = tmp_path / "transcripts"
    src.mkdir()
    pq.write_table(
        pa.table(
            {"conv_id": [f"c{i // 5}" for i in range(n)],
             "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
             "role": ["user"] * n,
             "text": ["hello there, nothing to see"] * n,
             "tool": pa.nulls(n, pa.string()),
             "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)],
                            pa.timestamp("us"))},
            schema=TRANSCRIPTS,
        ),
        src / "part-000.parquet",
    )
    aliases = pq.read_table(sf0001_corpus / "aliases.parquet")
    names = {"E0": "nobody"}

    combined = kg.extract_combined(read_transcripts(str(src)), aliases).materialize()
    assert combined.count() == 0
    linked = link_mentions(kg.mentions_of(combined), aliases)
    tagged = fused.build_tagged(linked, kg.triples_of(combined)).materialize()
    assert tagged.count() == 0
    assert tagged.schema().names == fused.TAGGED.names
    labels = fused.entity_labels(tagged)
    assert kg.to_table(fused.canon_from_tagged(tagged, labels)).num_rows == 0
    edges = graph.build_edges(fused.rewritten_from_tagged(tagged, labels))
    nodes = graph.node_rollup(fused.node_rows_from_tagged(tagged, labels), names)
    graph.write_graph(nodes, edges, str(tmp_path / "graph"))

    job = tmp_path / "job"
    manifest = run_checkpointed(
        str(src), str(sf0001_corpus / "aliases.parquet"),
        str(sf0001_corpus / "entities.parquet"), str(job),
    )
    assert set(manifest["stages"].values()) == {0}
    for out in (tmp_path / "graph", job):
        for name, schema in (("edges", EDGES), ("nodes", NODES)):
            got = pq.read_table(out / name)
            assert got.num_rows == 0
            assert got.schema.names == [c for c in schema.names if c != "part"]
