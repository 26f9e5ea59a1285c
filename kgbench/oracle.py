"""Expected outputs computed from the generated inputs, and the checks
that compare the program's outputs with them.

Nothing here imports the program. The expected graph follows the
documented alias rule: a mention links to the entity with the highest
prior among the aliases with its casefolded surface and its type, ties
going to the smallest ``entity_id``; an edge is a golden triple with both
surfaces linked that way, weighted by how often it occurs, with the first
and last turn time it occurs at. The expected near-duplicate pairs are
every document pair whose word-3-gram sets have a Jaccard similarity of
at least the threshold, found exactly through an inverted index over the
shingles.

Every ``check_*`` function returns ``(failures, stats)``: ``failures`` is
a list of one-line descriptions, empty when the output is correct.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PR_BAR = 0.95  # weighted precision and recall bar for edges and nodes
PAIR_RECALL_BAR = 0.99


# ---------------------------------------------------------------------------
# knowledge graph
# ---------------------------------------------------------------------------


def alias_map(aliases: pa.Table) -> dict[tuple[str, str], str]:
    """(casefolded alias, ent_type) → entity: highest prior, then smallest
    entity_id."""
    best: dict[tuple[str, str], tuple[float, str]] = {}
    for a, e, t, p in zip(
        aliases["alias"].to_pylist(),
        aliases["entity_id"].to_pylist(),
        aliases["ent_type"].to_pylist(),
        aliases["prior"].to_pylist(),
    ):
        key = (a.casefold(), t)
        cur = best.get(key)
        if cur is None or (-p, e) < (-cur[0], cur[1]):
            best[key] = (p, e)
    return {k: v[1] for k, v in best.items()}


def expected_edges(triples: pa.Table, amap) -> dict[tuple[str, str, str], tuple[int, int, int]]:
    """(subj, pred, obj) → (weight, first_ts, last_ts) in epoch microseconds."""
    out: dict[tuple[str, str, str], list[int]] = {}
    for ss, st, p, os_, ot, ts in zip(
        triples["subj_surface"].to_pylist(),
        triples["subj_type"].to_pylist(),
        triples["pred"].to_pylist(),
        triples["obj_surface"].to_pylist(),
        triples["obj_type"].to_pylist(),
        pc.cast(triples["ts"], pa.int64()).to_pylist(),
    ):
        s, o = amap.get((ss.casefold(), st)), amap.get((os_.casefold(), ot))
        if s is None or o is None:
            continue
        cur = out.get((s, p, o))
        if cur is None:
            out[(s, p, o)] = [1, ts, ts]
        else:
            cur[0] += 1
            cur[1] = min(cur[1], ts)
            cur[2] = max(cur[2], ts)
    return {k: tuple(v) for k, v in out.items()}


def expected_node_counts(mentions: pa.Table, amap) -> dict[str, int]:
    """entity → number of golden mentions that link to it."""
    keys = Counter(zip(mentions["surface"].to_pylist(), mentions["ent_type"].to_pylist()))
    out: Counter = Counter()
    for (surface, etype), n in keys.items():
        e = amap.get((surface.casefold(), etype))
        if e is not None:
            out[e] += n
    return dict(out)


def weighted_pr(got: dict, want: dict) -> tuple[float, float]:
    """Weighted precision and recall of two key → weight maps."""
    hit = sum(min(w, want.get(k, 0)) for k, w in got.items())
    n_got, n_want = sum(got.values()), sum(want.values())
    return (hit / n_got if n_got else 0.0, hit / n_want if n_want else 0.0)


def check_graph(
    edges: pa.Table,
    nodes: pa.Table,
    want_edges: dict,
    want_nodes: dict[str, int],
    ts_range: tuple[int, int],
) -> tuple[list[str], dict]:
    """Edges and nodes as read back from the written graph."""
    bad: list[str] = []
    keys = list(
        zip(
            edges["subj_id"].to_pylist(),
            edges["pred"].to_pylist(),
            edges["obj_id"].to_pylist(),
        )
    )
    weights = edges["weight"].to_pylist()
    if len(set(keys)) != len(keys):
        bad.append(f"edges: {len(keys) - len(set(keys))} duplicate (subj, pred, obj) rows")
    got_edges = dict(zip(keys, weights))
    ep, er = weighted_pr(got_edges, {k: v[0] for k, v in want_edges.items()})
    if ep < PR_BAR or er < PR_BAR:
        bad.append(f"edges: weighted precision {ep:.4f} / recall {er:.4f} below {PR_BAR}")

    node_ids = nodes["entity_id"].to_pylist()
    if len(set(node_ids)) != len(node_ids):
        bad.append(f"nodes: {len(node_ids) - len(set(node_ids))} duplicate entity_id rows")
    got_nodes = dict(zip(node_ids, nodes["mention_count"].to_pylist()))
    np_, nr = weighted_pr(got_nodes, want_nodes)
    if np_ < PR_BAR or nr < PR_BAR:
        bad.append(f"nodes: weighted precision {np_:.4f} / recall {nr:.4f} below {PR_BAR}")

    ids = set(node_ids)
    dangling = sum(1 for s, _, o in keys if s not in ids or o not in ids)
    if dangling:
        bad.append(f"edges: {dangling} edges with an endpoint that is not a node")

    lo, hi = ts_range
    first = pc.cast(edges["first_ts"], pa.int64()).to_numpy(zero_copy_only=False)
    last = pc.cast(edges["last_ts"], pa.int64()).to_numpy(zero_copy_only=False)
    n_bad_ts = int(np.sum((first > last) | (first < lo) | (last > hi)))
    if n_bad_ts:
        bad.append(f"edges: {n_bad_ts} edges with first_ts > last_ts or outside the corpus time range")
    return bad, {
        "edges": len(keys),
        "edge_precision": ep,
        "edge_recall": er,
        "nodes": len(node_ids),
        "node_precision": np_,
        "node_recall": nr,
    }


# ---------------------------------------------------------------------------
# checkpoint resubmission
# ---------------------------------------------------------------------------


def checkpoint_files(root: Path) -> dict[str, tuple[int, int]]:
    """Checkpoint data files under ``root``: relative path → (size, mtime_ns)."""
    out = {}
    for p in sorted(root.rglob("*.parquet")):
        st = p.stat()
        out[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def stage_fingerprints(root: Path) -> dict[str, str]:
    """stage → fingerprint, from the stage manifests under ``root``."""
    return {
        p.name[: -len(".manifest.json")]: json.loads(p.read_text())["fingerprint"]
        for p in sorted(root.glob("*.manifest.json"))
    }


def check_resubmission(before_files, after_files, before_fps, after_fps, returned_fps) -> list[str]:
    """A resubmission over unchanged inputs must recompute nothing."""
    bad = []
    if not before_files:
        bad.append("checkpoint: the cold run wrote no parquet files")
    gone = sorted(set(before_files) - set(after_files))
    new = sorted(set(after_files) - set(before_files))
    changed = sorted(k for k in set(before_files) & set(after_files) if before_files[k] != after_files[k])
    if gone or new or changed:
        bad.append(
            f"checkpoint: resubmission touched files ({len(gone)} removed, {len(new)} added, "
            f"{len(changed)} rewritten, e.g. {(gone + new + changed)[:1]})"
        )
    if before_fps != after_fps or not before_fps:
        bad.append("checkpoint: stage fingerprints changed on resubmission")
    if returned_fps != after_fps:
        bad.append("checkpoint: the returned manifest's fingerprints differ from the stage manifests")
    return bad


# ---------------------------------------------------------------------------
# near-duplicate documents
# ---------------------------------------------------------------------------


def shingle_sets(word_ids: np.ndarray, k: int = 3) -> list[np.ndarray]:
    """Per document, the sorted distinct word-k-gram keys (exact: each
    key encodes its k word ids in base ``vocab``)."""
    base = np.int64(int(word_ids.max()) + 1)
    if base ** k >= 2**63:
        raise ValueError("vocabulary too large for exact int64 shingle keys")
    w = word_ids.astype(np.int64)
    keys = np.zeros((w.shape[0], w.shape[1] - k + 1), dtype=np.int64)
    for j in range(k):
        keys = keys * base + w[:, j : j + keys.shape[1]]
    return [np.unique(r) for r in keys]


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def expected_pairs(shingles: list[np.ndarray], threshold: float) -> set[tuple[int, int]]:
    """Every (a < b) document pair with Jaccard ≥ ``threshold``.

    A pair with a positive Jaccard shares at least one shingle, so the
    candidate set — pairs that co-occur in some posting list — holds
    every qualifying pair; each candidate is then scored exactly."""
    lens = np.fromiter((len(s) for s in shingles), dtype=np.int64, count=len(shingles))
    keys = np.concatenate(shingles)
    docs = np.repeat(np.arange(len(shingles), dtype=np.int64), lens)
    order = np.argsort(keys, kind="stable")
    keys, docs = keys[order], docs[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    cand: set[tuple[int, int]] = set()
    for s, n in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        ids = sorted(docs[s : s + n].tolist())
        for i in range(n):
            for j in range(i + 1, n):
                cand.add((ids[i], ids[j]))
    return {p for p in cand if jaccard(shingles[p[0]], shingles[p[1]]) >= threshold}


def check_pairs(pairs: pa.Table, shingles, want: set, threshold: float) -> tuple[list[str], dict]:
    bad = []
    a = pairs["doc_a"].to_pylist()
    b = pairs["doc_b"].to_pylist()
    got = list(zip(a, b))
    if len(set(got)) != len(got):
        bad.append(f"pairs: {len(got) - len(set(got))} duplicate pairs")
    if any(x >= y for x, y in got):
        bad.append("pairs: a pair with doc_a >= doc_b")
    n = len(shingles)
    out_of_range = [p for p in got if not (0 <= p[0] < n and 0 <= p[1] < n)]
    if out_of_range:
        bad.append(f"pairs: {len(out_of_range)} pairs name unknown documents")
    low = sum(
        1
        for x, y in set(got) - set(out_of_range)
        if (x, y) not in want and jaccard(shingles[x], shingles[y]) < threshold
    )
    if low:
        bad.append(f"pairs: {low} pairs below Jaccard {threshold}")
    recall = len(set(got) & want) / len(want) if want else 1.0
    if recall < PAIR_RECALL_BAR:
        bad.append(f"pairs: recall {recall:.4f} below {PAIR_RECALL_BAR}")
    return bad, {"pairs": len(got), "expected_pairs": len(want), "pair_recall": recall}
