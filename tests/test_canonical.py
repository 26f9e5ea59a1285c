"""Connected components vs a pure-python union-find oracle (FIXTURES.md F3)
+ canonicalization equivalence to the deterministic linker (SURVEY.md §5.2.4).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from joint_entity_and_relation_extraction_ray.functions.text import normalize_surface
from joint_entity_and_relation_extraction_ray.pipelines import kg
from joint_entity_and_relation_extraction_ray.schema import ALIASES, MENTIONS
from joint_entity_and_relation_extraction_ray.stages import fused
from joint_entity_and_relation_extraction_ray.stages.canonical import (
    _canonicalize_general,
    connected_components,
)
from joint_entity_and_relation_extraction_ray.stages.linker import (
    build_alias_index,
    link_mentions,
)


def _union_find_labels(edges):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for x in list(parent):
        comp.setdefault(find(x), []).append(x)
    return {x: min(mem) for mem in comp.values() for x in mem}


def test_cc_matches_union_find_oracle(ray_session):
    """Random graph + giant hub (Zipf-skew stand-in) + a chain (stresses
    iteration count via pointer jumping)."""
    rng = np.random.default_rng(11)
    n = 300
    edges = [(f"n{i:04d}", f"n{i:04d}") for i in range(n)]
    edges += [(f"n{a:04d}", f"n{b:04d}") for a, b in rng.integers(0, n, (120, 2))]
    edges += [("n0000", f"n{x:04d}") for x in rng.integers(0, n, 80)]  # hub
    edges += [(f"c{i:02d}", f"c{i+1:02d}") for i in range(12)]  # chain
    edges += [(f"c{i:02d}", f"c{i:02d}") for i in range(13)]
    want = _union_find_labels(edges)

    ds = ray.data.from_arrow(
        pa.table({"src": [a for a, _ in edges], "dst": [b for _, b in edges]})
    )
    got = dict(
        zip(*(lambda d: (d["node"], d["label"]))(connected_components(ds).to_pandas()))
    )
    assert got == want


import ray  # noqa: E402  (used in fixture-scoped test above)


def _fused_canon(linked, triples) -> dict:
    """member_id → canonical_id through the pipeline's fused path."""
    tagged = fused.build_tagged(linked, triples, num_buckets=8).materialize()
    df = fused.canon_from_tagged(tagged, fused.entity_labels(tagged)).to_pandas()
    assert df["member_id"].is_unique
    return dict(zip(df["member_id"], df["canonical_id"]))


def _general_canon(linked) -> dict:
    df = _canonicalize_general(linked).to_pandas()
    return dict(zip(df["member_id"], df["canonical_id"]))


def _union_find_canon(linked_tbl) -> dict:
    """Pure-python mention-graph oracle: a mention joins its linked entity
    and the first mention of its (conv, normalized surface) group; its
    canonical id is the component minimum, entities ("e:") before
    mentions ("m:")."""
    edges, first = [], {}
    for conv, mid, surf, ent in zip(
        linked_tbl["conv_id"].to_pylist(),
        linked_tbl["mention_id"].to_pylist(),
        linked_tbl["surface"].to_pylist(),
        linked_tbl["cand_entity_id"].to_pylist(),
    ):
        m = "m:" + mid
        edges.append((m, "e:" + ent if ent is not None else m))
        edges.append((m, first.setdefault((conv, normalize_surface(surf)), m)))
    labels = _union_find_labels(edges)
    return {
        x[2:]: lab[2:] for x, lab in labels.items() if x.startswith("m:")
    }


# A surface with precomposed non-ASCII letters ("é" is U+00E9), the only
# alias of its entity: it must link and canonicalize like an ASCII one.
ACCENT_ALIAS = pa.table(
    {"alias": ["café müller"], "entity_id": ["X0001"], "ent_type": ["Org"],
     "prior": pa.array([1.0], pa.float32())},
    schema=ALIASES,
)
ACCENT_MENTION = pa.table(
    {"conv_id": ["cafe"], "turn_idx": pa.array([0], pa.int32()),
     "mention_id": ["cafe:0:0:11"], "start": pa.array([0], pa.int32()),
     "end": pa.array([11], pa.int32()), "surface": ["Café Müller"],
     "ent_type": ["Org"], "score": pa.array([0.9], pa.float32())},
    schema=MENTIONS,
)


@pytest.fixture(scope="module")
def canon_result(ray_session, sf0001_corpus):
    aliases = pa.concat_tables(
        [pq.read_table(sf0001_corpus / "aliases.parquet").cast(ALIASES), ACCENT_ALIAS]
    )
    mentions = pa.concat_tables(
        [pq.read_table(sf0001_corpus / "golden_mentions").cast(MENTIONS), ACCENT_MENTION]
    )
    linked = link_mentions(
        ray.data.from_arrow(mentions), aliases, concurrency=2
    ).materialize()
    triples = ray.data.read_parquet(str(sf0001_corpus / "golden_triples"))
    return _fused_canon(linked, triples), aliases, mentions, linked


def test_canonicalize_every_mention_mapped(canon_result):
    canon, _, mentions, _ = canon_result
    assert set(canon) == set(mentions["mention_id"].to_pylist())


def test_canonicalize_matches_linker_fixpoint(canon_result):
    """Every surface is in the alias dict → each cluster holds exactly one
    entity → canonical label == linked entity id."""
    canon, aliases, mentions, _ = canon_result
    idx = build_alias_index(aliases)
    best = {
        mid: idx.get((normalize_surface(s), t), (None,))[0]
        for mid, s, t in zip(
            mentions["mention_id"].to_pylist(),
            mentions["surface"].to_pylist(),
            mentions["ent_type"].to_pylist(),
        )
    }
    assert canon == best
    assert canon["cafe:0:0:11"] == "X0001"


def test_fused_canon_matches_general_and_oracle_on_corpus(canon_result):
    canon, _, _, linked = canon_result
    assert canon == _general_canon(linked)
    assert canon == _union_find_canon(kg.to_table(linked))


def _random_linked(rng, n_conv=40, n_ment=600):
    """Synthetic LINKED rows with ambiguous surfaces: same surface linking
    to different entities across ent_types (exercises multi-entity groups
    and transitive entity merges)."""
    convs = [f"cv{i:03d}" for i in range(n_conv)]
    surfaces = [f"s{i:02d}" for i in range(25)]
    rows = {"conv_id": [], "turn_idx": [], "mention_id": [], "start": [],
            "end": [], "surface": [], "ent_type": [], "score": [],
            "cand_entity_id": [], "link_score": []}
    for i in range(n_ment):
        c = convs[int(rng.integers(0, n_conv))]
        s = surfaces[int(rng.integers(0, len(surfaces)))]
        t = ["Peop", "Org", "Loc"][int(rng.integers(0, 3))]
        # ~70% linked; entity determined by (surface, type) + noise bucket
        if rng.random() < 0.7:
            eid = f"E{(hash((s, t)) % 37):03d}"
        else:
            eid = None
        rows["conv_id"].append(c)
        rows["turn_idx"].append(i % 20)
        rows["mention_id"].append(f"{c}:{i % 20}:{i}:{i + len(s)}")
        rows["start"].append(i)
        rows["end"].append(i + len(s))
        rows["surface"].append(s)
        rows["ent_type"].append(t)
        rows["score"].append(0.9)
        rows["cand_entity_id"].append(eid)
        rows["link_score"].append(0.5 if eid else 0.0)
    import pyarrow as pa
    from joint_entity_and_relation_extraction_ray.schema import LINKED
    return pa.table(
        {
            "conv_id": rows["conv_id"],
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "mention_id": rows["mention_id"],
            "start": pa.array(rows["start"], pa.int32()),
            "end": pa.array(rows["end"], pa.int32()),
            "surface": rows["surface"],
            "ent_type": rows["ent_type"],
            "score": pa.array(rows["score"], pa.float32()),
            "cand_entity_id": rows["cand_entity_id"],
            "link_score": pa.array(rows["link_score"], pa.float32()),
        },
        schema=LINKED,
    )


def test_contracted_equals_general_on_ambiguous_graph(ray_session):
    """The contracted fused path (build_tagged → entity_labels →
    canon_from_tagged) must equal the general mention-graph CC and the
    union-find oracle exactly — including multi-entity groups that merge
    entities transitively and unlinked singleton groups."""
    rng = np.random.default_rng(7)
    linked_tbl = _random_linked(rng)
    linked = ray.data.from_arrow(linked_tbl).materialize()
    triples = ray.data.from_arrow(_triples_from_linked(linked_tbl))
    fast = _fused_canon(linked, triples)
    ents = zip(linked_tbl["mention_id"].to_pylist(), linked_tbl["cand_entity_id"].to_pylist())
    assert any(e is not None and fast[m] != e for m, e in ents)  # entities merged
    assert fast == _general_canon(linked)
    assert fast == _union_find_canon(linked_tbl)


def _triples_from_linked(linked_tbl):
    """Synthetic T2: pair consecutive mentions within each conversation."""
    import collections
    import datetime as dt

    from joint_entity_and_relation_extraction_ray.schema import TRIPLES

    by_conv = collections.defaultdict(list)
    for i in range(linked_tbl.num_rows):
        by_conv[linked_tbl["conv_id"][i].as_py()].append(i)
    rows = collections.defaultdict(list)
    for conv, idxs in by_conv.items():
        for a, b in zip(idxs, idxs[1:]):
            rows["conv_id"].append(conv)
            rows["turn_idx"].append(linked_tbl["turn_idx"][a].as_py())
            rows["subj_mention_id"].append(linked_tbl["mention_id"][a].as_py())
            rows["obj_mention_id"].append(linked_tbl["mention_id"][b].as_py())
            rows["subj_surface"].append(linked_tbl["surface"][a].as_py())
            rows["pred"].append("Rel")
            rows["obj_surface"].append(linked_tbl["surface"][b].as_py())
            rows["score"].append(0.9)
            rows["ts"].append(dt.datetime(2024, 1, 1))
    return pa.table(
        {
            "conv_id": rows["conv_id"],
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "subj_mention_id": rows["subj_mention_id"],
            "obj_mention_id": rows["obj_mention_id"],
            "subj_surface": rows["subj_surface"],
            "pred": rows["pred"],
            "obj_surface": rows["obj_surface"],
            "score": pa.array(rows["score"], pa.float32()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
        },
        schema=TRIPLES,
    )


def test_label_dataset_path_matches_broadcast(ray_session):
    """Forcing the big-label Dataset path (broadcast_threshold=0) must give
    byte-identical canon/edges/nodes inputs vs the broadcast-dict path —
    the catalog-scale fallback is code, not a comment."""
    rng = np.random.default_rng(23)
    linked_tbl = _random_linked(rng)
    linked = ray.data.from_arrow(linked_tbl).materialize()
    triples = ray.data.from_arrow(_triples_from_linked(linked_tbl)).materialize()
    tagged = fused.build_tagged(linked, triples, num_buckets=8).materialize()

    lab_small = fused.entity_labels(tagged)  # broadcast dict path
    lab_big = fused.entity_labels(tagged, broadcast_threshold=0)
    assert isinstance(lab_big, ray.data.Dataset)  # forced Dataset path

    canon_a = fused.canon_from_tagged(tagged, lab_small).to_pandas()
    canon_b = fused.canon_from_tagged(tagged, lab_big).to_pandas()
    key = ["member_id"]
    assert (
        canon_a.sort_values(key).reset_index(drop=True)
        .equals(canon_b.sort_values(key).reset_index(drop=True))
    )

    rw_a = fused.rewritten_from_tagged(tagged, lab_small).to_pandas()
    rw_b = fused.rewritten_from_tagged(tagged, lab_big).to_pandas()
    k2 = ["subj_id", "pred", "obj_id", "ts"]
    assert (
        rw_a.sort_values(k2).reset_index(drop=True)[k2]
        .equals(rw_b.sort_values(k2).reset_index(drop=True)[k2])
    )

    nr_a = fused.node_rows_from_tagged(tagged, lab_small).to_pandas()
    nr_b = fused.node_rows_from_tagged(tagged, lab_big).to_pandas()
    k3 = ["canonical_id", "surface", "ent_type"]
    assert (
        nr_a.sort_values(k3).reset_index(drop=True)[k3]
        .equals(nr_b.sort_values(k3).reset_index(drop=True)[k3])
    )


def test_resolve_aliases_distributed_matches_local(ray_session, sf0001_corpus):
    """Catalog-scale alias resolution (bucketed shuffle) must equal the
    local vectorized resolve exactly."""
    from joint_entity_and_relation_extraction_ray.stages.linker import (
        resolve_aliases,
        resolve_aliases_distributed,
    )

    aliases = pq.read_table(sf0001_corpus / "aliases.parquet")
    local = resolve_aliases(aliases).to_pandas()
    dist = (
        resolve_aliases_distributed(
            ray.data.from_arrow(aliases), num_buckets=8
        )
        .to_pandas()
    )
    key = ["alias", "ent_type"]
    local = local.sort_values(key).reset_index(drop=True)
    dist = dist.sort_values(key).reset_index(drop=True)
    assert local[["alias", "ent_type", "entity_id"]].equals(
        dist[["alias", "ent_type", "entity_id"]]
    )
    assert (local["score"] - dist["score"]).abs().max() < 1e-12


def test_cc_salting_spreads_hot_key(ray_session):
    """VERDICT r2 #7: the Zipf-hub skew trigger. A celebrity entity
    co-mentioned once per block with a DIFFERENT neighbor each time is
    the shape that defeats the per-block combiner (each block still emits
    a row for the hub, so the hub's reduce group grows with block count).
    Salting by value-hash splits that group across reducers: with
    num_salts=16 the hub's largest (key, salt) reduce group must shrink
    by ≥4× vs num_salts=1 — and the CC labels are identical either way."""
    import collections

    from joint_entity_and_relation_extraction_ray.stages.canonical import (
        _partial_min_combiner,
    )

    B = 256  # blocks; the hub appears once per block, diverse neighbors
    hub = "zzz~hub"
    blocks = [
        pa.table(
            {
                "node": pa.array(
                    [hub] + [f"bg{b}_{i}" for i in range(4)], pa.string()
                ),
                "label": pa.array(
                    [f"l{b:05d}"] + [f"bg{b}_{i}" for i in range(4)],
                    pa.string(),
                ),
            }
        )
        for b in range(B)
    ]

    def max_hub_group(num_salts: int) -> int:
        comb = _partial_min_combiner("node", "label", num_salts)
        parts = pa.concat_tables([comb(t) for t in blocks])
        c = collections.Counter(
            zip(parts["node"].to_pylist(), parts["salt"].to_pylist())
        )
        return max(n for (k, _), n in c.items() if k == hub)

    unsalted = max_hub_group(1)
    salted = max_hub_group(16)
    assert unsalted == B  # the hub's group grows with block count
    assert salted * 4 <= unsalted  # salting spreads it ≥4× (loose: ~16×)

    # end-to-end: same fixpoint labels with and without salting
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([hub] * B, pa.string()),
                "dst": pa.array([f"l{b:05d}" for b in range(B)], pa.string()),
            }
        )
    ).repartition(16)
    for salts in (1, 16):
        out = connected_components(edges, num_salts=salts).to_pandas()
        assert set(out["label"]) == {"l00000"}
        assert len(out) == B + 1
