"""Tests for the training-data corpus ops: text analysis, dedup family,
similarity search, multimodal plumbing (SURVEY.md §5.2 / driver brief)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from joint_entity_and_relation_extraction_ray.functions import textstats
from joint_entity_and_relation_extraction_ray.stages import (
    dedup,
    multimodal,
    similarity,
)


def _docs(texts):
    return ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}
        )
    )


def _collect(ds):
    return ds.to_pandas()


# --- text analysis ---------------------------------------------------------


def test_doc_stats_counts():
    t = pa.table(
        {"doc_id": pa.array([0], pa.int64()), "text": ["the cat, the hat!"]}
    )
    out = textstats.doc_stats(t).to_pylist()[0]
    assert out["n_chars"] == 17
    assert out["n_tokens"] == 4  # the | cat, | the | hat!
    assert out["n_distinct_tokens"] == 3
    assert out["n_stopwords"] == 2  # 'the' twice; 'cat,' != 'a'
    assert out["n_punct"] == 2  # comma + bang
    assert out["max_token_len"] == 4


def test_lang_id_markers_and_tiebreak():
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                "der hund und die katze",  # de
                "the quick fox a lazy dog",  # en
                "xyz qqq zzz",  # no markers -> und
                "the der",  # tie de/en -> alphabetical 'de'
            ],
        }
    )
    out = textstats.lang_id(t).to_pylist()
    assert [r["pred_lang"] for r in out] == ["de", "en", "und", "de"]


def test_winnow_contains_subset_and_deterministic():
    a = textstats.winnow("the quick brown fox jumps over the lazy dog")
    b = textstats.winnow("the quick brown fox jumps over the lazy dog")
    assert a == b and len(a) > 0
    # near-identical text shares most fingerprints
    c = textstats.winnow("the quick brown fox jumps over the lazy cat")
    inter = len(set(a) & set(c))
    assert inter / len(a) > 0.5


# --- dedup -----------------------------------------------------------------

BASE = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa "
    "lambda mu nu xi omicron pi rho sigma tau upsilon"
)


def test_exact_dedup_keep_first(ray_session):
    ds = _docs([BASE, "unique text one", BASE, "unique text two", BASE])
    out = _collect(dedup.exact_dedup(ds)).sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 1, 3]
    assert out.set_index("doc_id")["n_dups"].to_dict() == {0: 3, 1: 1, 3: 1}


def test_minhash_finds_planted_near_dups(ray_session):
    near = BASE.replace("kappa", "KAPPA")  # one token of 20 changed
    other = "completely different words entirely here nothing shared at all ok"
    ds = _docs([BASE, near, other])
    pairs = _collect(dedup.minhash_dedup_pairs(ds, threshold=0.5))
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert got == {(0, 1)}


def test_minhash_matches_bruteforce_jaccard(ray_session):
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    texts = []
    for i in range(30):
        toks = list(rng.choice(vocab, size=25))
        texts.append(" ".join(toks))
    # plant near-dups
    texts.append(texts[0].replace("w0", "w29"))
    texts.append(texts[5])
    ds = _docs(texts)
    pairs = _collect(dedup.minhash_dedup_pairs(ds, threshold=0.5))
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    # brute force oracle
    sh = [set(textstats.word_shingles(t)) for t in texts]
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            u = sh[i] | sh[j]
            if u and len(sh[i] & sh[j]) / len(u) >= 0.5:
                want.add((i, j))
    assert got == want


def test_ngram_jaccard_exact_matches_bruteforce(ray_session):
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, size=22)) for _ in range(25)]
    texts.append(texts[3].replace("w1", "w24"))  # near-dup
    texts.append(texts[8])  # exact dup
    texts.append("")  # empty doc: no shingles, must not pair
    texts.append("one two")  # < k tokens: no shingles
    ds = _docs(texts)
    pairs = _collect(dedup.ngram_jaccard_pairs(ds, threshold=0.5))
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    sh = [set(textstats.word_shingles(t)) for t in texts]
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            u = sh[i] | sh[j]
            if u and len(sh[i] & sh[j]) / len(u) >= 0.5:
                want.add((i, j))
    assert got == want
    assert want  # planted dups actually exercised the join


def test_containment_finds_embedded_doc(ray_session):
    """A short doc embedded verbatim in a long one: containment ≥ 0.8
    (directed sub→sup only), while Jaccard at 0.5 misses the pair
    because the union is dominated by the long side. Brute-force
    set-containment oracle over every ordered pair."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    long_doc = " ".join(rng.choice(vocab, size=120))
    short_doc = " ".join(long_doc.split()[30:45])  # verbatim excerpt
    texts = [long_doc, short_doc]
    texts += [" ".join(rng.choice(vocab, size=30)) for _ in range(10)]
    texts.append("")  # no shingles: must never pair
    ds = _docs(texts)
    out = _collect(dedup.containment_pairs(ds))
    got = set(zip(out["doc_sub"], out["doc_sup"]))
    sh = [set(textstats.word_shingles(t)) for t in texts]
    want = set()
    for i in range(len(texts)):
        for j in range(len(texts)):
            if i != j and sh[i] and 5 * len(sh[i] & sh[j]) >= 4 * len(sh[i]):
                want.add((i, j))
    assert got == want
    assert (1, 0) in got  # the excerpt is contained in the long doc
    assert (0, 1) not in got  # but not vice versa (asymmetric)
    # and the exact counts ride along
    row = {
        (s, p): (c, n)
        for s, p, c, n in zip(
            out["doc_sub"], out["doc_sup"], out["inter"], out["n_sub"]
        )
    }
    assert row[(1, 0)] == (
        len(sh[1] & sh[0]),
        len(sh[1]),
    )
    # Jaccard at the symmetric threshold misses the embedded pair
    # (empty result loses its columns in pandas — use .get)
    jac = _collect(dedup.ngram_jaccard_pairs(ds, threshold=0.5))
    jpairs = set(zip(jac.get("doc_a", []), jac.get("doc_b", [])))
    assert (0, 1) not in jpairs and (1, 0) not in jpairs


def test_ngram_jaccard_large_side_join_path(ray_session, monkeypatch):
    from joint_entity_and_relation_extraction_ray.stages import dedup as dd

    monkeypatch.setattr(dd, "BROADCAST_THRESHOLD_ROWS", 0)
    ds = _docs([BASE, BASE.replace("kappa", "KAPPA"), "totally different stuff here now ok yes"])
    pairs = _collect(dd.ngram_jaccard_pairs(ds, threshold=0.5))
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == {(0, 1)}


def test_shingle_set_join_path_equals_broadcast_path(ray_session, monkeypatch):
    """Above BROADCAST_THRESHOLD_ROWS candidate pairs, the shingle sets of
    verify_jaccard_pairs and containment_pairs come through hash joins
    instead of the broadcast LUT: the same corpus must give exactly the
    same pairs (and containment counts) on both paths."""
    from joint_entity_and_relation_extraction_ray.stages import dedup as dd

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(30)]
    long_doc = " ".join(rng.choice(vocab, size=90))
    texts = [long_doc, " ".join(long_doc.split()[20:40])]  # excerpt
    texts += [" ".join(rng.choice(vocab, size=25)) for _ in range(14)]
    texts.append(texts[4].replace("w3", "w29"))  # near-dup
    texts.append(texts[6])  # exact dup
    texts.append("")  # no shingles
    ds = _docs(texts)
    shingled = dd.shingle_docs(ds).materialize()
    # every pair as candidates, plus one naming a doc that is not there
    n = len(texts)
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([i for i in range(n) for j in range(i + 1, n)] + [0], pa.int64()),
                "doc_b": pa.array([j for i in range(n) for j in range(i + 1, n)] + [99], pa.int64()),
            }
        )
    )

    def run():
        ver = _collect(dd.verify_jaccard_pairs(pairs, shingled, threshold=0.5))
        con = _collect(dd.containment_pairs(ds))
        return (
            sorted(zip(ver["doc_a"], ver["doc_b"])),
            sorted(zip(con["doc_sub"], con["doc_sup"], con["inter"], con["n_sub"])),
        )

    joins = []
    real_join_auto = dd.join_auto
    monkeypatch.setattr(
        dd, "join_auto", lambda *a, **kw: joins.append(kw["on"]) or real_join_auto(*a, **kw)
    )
    broadcast = run()
    assert joins == []  # the broadcast path joins nothing
    monkeypatch.setattr(dd, "BROADCAST_THRESHOLD_ROWS", 0)
    joined = run()
    # verify: doc_a, doc_b; containment: sizes onto doc_a, doc_b, then
    # shingle sets onto doc_sub, doc_sup
    assert joins == [("doc_a",), ("doc_b",), ("doc_a",), ("doc_b",), ("doc_sub",), ("doc_sup",)]
    assert joined == broadcast
    ver, con = broadcast
    assert (4, n - 3) in ver and (6, n - 2) in ver
    assert (1, 0, 18, 18) in con


def _pairs(keys, max_bucket=None):
    out = list(dedup._group_pairs(keys, max_bucket=max_bucket, label="t"))
    if not out:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return tuple(np.concatenate(x) for x in zip(*out))


def test_group_pairs_sliced_lists_and_truncation(caplog):
    """Lists whose triangle crosses the ~8M-pair slice bound must give
    exactly np.triu_indices (offset by the list's start); max_bucket
    keeps the first ids, logged."""
    for n in (4097, 5000):
        keys = np.r_[np.zeros(3, np.int64), np.ones(n, np.int64)]
        a, b = _pairs(keys)
        ta, tb = np.triu_indices(n, k=1)
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, np.r_[[0, 0, 1], ta + 3])
        np.testing.assert_array_equal(b, np.r_[[1, 2, 2], tb + 3])
    with caplog.at_level("WARNING", logger=dedup.log.name):
        a, b = _pairs(np.zeros(5000, np.int64), max_bucket=4500)
    ta, tb = np.triu_indices(4500, k=1)
    np.testing.assert_array_equal(a, ta)
    np.testing.assert_array_equal(b, tb)
    assert "truncating bucket 5000 -> 4500 ids (max_bucket)" in caplog.text
    a, b = _pairs(np.zeros(10, np.int64), max_bucket=4)
    assert set(zip(a, b)) == {(i, j) for i in range(4) for j in range(i + 1, 4)}


def _all_pairs_reference(keys, ids, max_bucket):
    """Pure-Python blocking: every key's sorted id list (first
    ``max_bucket`` ids), all i < j position pairs, self-pairs dropped."""
    lists = {}
    for k, i in zip(keys, ids):
        lists.setdefault(k, []).append(i)
    out = []
    for ids_k in lists.values():
        ids_k = sorted(ids_k)[:max_bucket]
        out += [
            (x, y)
            for p, x in enumerate(ids_k)
            for y in ids_k[p + 1:]
            if x != y
        ]
    return sorted(out)


@pytest.mark.parametrize("max_bucket", [None, 2, 3])
def test_posting_list_pairs_match_all_pairs_reference(max_bucket):
    """The loop-free pair generator equals an all-pairs reference on
    random (key, id) multisets with duplicate ids (a duplicate pairs once
    per posting), the empty table included."""
    rng = np.random.default_rng(max_bucket or 0)
    for trial in range(200):
        n = 0 if trial == 0 else int(rng.integers(1, 60))
        keys = rng.integers(-3, 8, n).tolist()
        ids = rng.integers(0, 10, n).tolist()
        t = pa.table(
            {"key": pa.array(keys, pa.int64()), "id": pa.array(ids, pa.int64())}
        )
        out = dedup._posting_list_pairs(
            t, cols=("a", "b"), max_bucket=max_bucket, label="t"
        )
        got = sorted(zip(out["a"].to_pylist(), out["b"].to_pylist()))
        assert got == _all_pairs_reference(keys, ids, max_bucket)


def test_posting_list_pairs_across_slices():
    """A list big enough to cross the slice bound next to small lists:
    every pair still comes out once."""
    n = 4200
    keys = np.r_[np.full(n, 5), [1, 1, 9, 9, 9]]
    ids = np.r_[np.arange(n)[::-1] * 2, [7, 7, 3, 1, 2]]
    t = pa.table({"key": pa.array(keys, pa.int64()), "id": pa.array(ids, pa.int64())})
    out = dedup._posting_list_pairs(t, cols=("a", "b"), max_bucket=None, label="t")
    ta, tb = np.triu_indices(n, k=1)
    code = lambda a, b: np.sort(np.asarray(a) * 100_000 + np.asarray(b))
    np.testing.assert_array_equal(
        code(out["a"], out["b"]),
        code(np.r_[ta * 2, 1, 1, 2], np.r_[tb * 2, 2, 3, 3]),
    )


def test_posting_list_pairs_one_warning_per_call(caplog):
    """Oversized posting lists are summed into one warning per reducer
    call (their count and the largest), not one line per list."""
    sizes = {1: 201, 2: 250, 3: 300, 4: 5}
    keys = np.repeat(list(sizes), list(sizes.values()))
    t = pa.table(
        {
            "key": pa.array(keys, pa.int64()),
            "id": pa.array(np.arange(len(keys)), pa.int64()),
        }
    )
    with caplog.at_level("WARNING", logger=dedup.log.name):
        out = dedup._posting_list_pairs(
            t, cols=("a", "b"), max_bucket=None, label="t"
        )
    assert out.num_rows == sum(n * (n - 1) // 2 for n in sizes.values())
    assert [r.getMessage() for r in caplog.records] == [
        "t: 3 posting lists over 200 ids, largest 300 (quadratic pair-gen)"
    ]


def _shingle_columns():
    rows = [
        ["a b c", "b c d"],
        [],
        None,
        ["é ü ñ", "日本 語 テキスト", "x"],
        ["q r s"] * 3,
        [""],
        [],
    ]
    arr = pa.array(rows, pa.list_(pa.string()))
    return [
        arr,
        arr.slice(1, 5),
        arr.slice(3),
        pa.chunked_array([arr.slice(0, 2), arr.slice(2, 0), arr.slice(2)]),
        pa.chunked_array([], pa.list_(pa.string())),
        pa.array(rows, pa.list_(pa.large_string())).slice(2),
        pa.array([None, None], pa.list_(pa.string())),
    ]


@pytest.mark.parametrize("col", _shingle_columns())
def test_shingle_hashes_arrow_equals_python_path(col):
    """The Arrow-buffer hasher and the signatures over its output equal
    shingle_hashes / minhash_signatures on the same rows: chunked,
    sliced, empty-list, null-list and non-ASCII columns."""
    lists = [r or [] for r in col.to_pylist()]
    hs, offs = textstats.shingle_hashes_arrow(col)
    assert hs.dtype == np.uint64 and offs.dtype == np.int64
    np.testing.assert_array_equal(np.diff(offs), [len(r) for r in lists])
    np.testing.assert_array_equal(
        hs, textstats.shingle_hashes([s for r in lists for s in r])
    )
    got = textstats.minhash_from_hashes(hs, offs, num_perm=32, seed=3)
    want = textstats.minhash_signatures(lists, num_perm=32, seed=3)
    assert got.shape == want.shape == (len(lists), 32)
    np.testing.assert_array_equal(got, want)


def test_simhash_dedup_and_near(ray_session):
    near = BASE.replace("kappa", "kappax")
    ds = _docs([BASE, BASE, near, "something else entirely different words"])
    out = _collect(dedup.simhash_dedup(ds)).sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 2, 3]
    near_pairs = _collect(dedup.simhash_near_pairs(ds, max_hamming=16))
    got = set(zip(near_pairs["doc_a"], near_pairs["doc_b"]))
    assert (0, 2) in got or (1, 2) in got  # near-dup found via banding
    assert not any({a, b} == {0, 3} for a, b in got)


def _emb_ds(mat):
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(mat)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in mat], pa.list_(pa.float32())
                ),
            }
        )
    )


def test_embedding_dup_brute_and_lsh(ray_session):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((20, 16))
    mat = np.vstack([base, base[3] + 0.01 * rng.standard_normal(16)])
    ds = _emb_ds(mat)
    brute = _collect(dedup.embedding_dup_pairs(ds, threshold=0.95))
    got = set(zip(brute["vec_a"], brute["vec_b"]))
    assert (3, 20) in got
    lsh = _collect(dedup.embedding_dup_pairs_lsh(ds, threshold=0.95))
    lsh_pairs = set(zip(lsh["vec_a"], lsh["vec_b"]))
    assert lsh_pairs <= got  # LSH never invents pairs


def test_ann_topk_matches_numpy(ray_session):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((50, 8))
    ds = _emb_ds(mat)
    q = pa.table(
        {
            "vec_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array(
                [list(map(float, mat[0])), list(map(float, mat[1]))],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = _collect(similarity.ann_topk(ds, q, k=3))
    # float32 storage roundtrip, float64 math — mirror exactly
    m32 = mat.astype(np.float32).astype(np.float64)
    mn = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    for qi in (0, 1):
        scores = mn @ mn[qi]
        order = [i for i in np.lexsort((np.arange(50), -scores)) if i != qi][:3]
        got = out[out["query_id"] == qi].sort_values("rank")["neighbor_id"]
        assert list(got) == order


def test_rrf_fusion_matches_bruteforce(ray_session):
    """RRF over the cosine and L2 rankings vs a numpy brute-force
    oracle with the same integer 1e6 // (60 + rank) contributions."""
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((60, 4))
    ds = _emb_ds(mat)
    q = pa.table(
        {
            "vec_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array(
                [list(map(float, mat[0])), list(map(float, mat[1]))],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = _collect(similarity.rrf_fusion(ds, q, k_each=10, k_out=5))
    m = mat.astype(np.float32).astype(np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    for qi in (0, 1):
        cos = mn @ mn[qi]
        l2 = ((m - m[qi]) ** 2).sum(axis=1)
        pts: dict[int, int] = {}
        for scores, sign in ((cos, -1), (l2, 1)):
            order = [
                i
                for i in np.lexsort((np.arange(60), sign * scores))
                if i != qi
            ][:10]
            for r, nid in enumerate(order, start=1):
                pts[nid] = pts.get(nid, 0) + 1_000_000 // (60 + r)
        want = sorted(pts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        got = out[out["query_id"] == qi].sort_values("rank")
        assert list(got["neighbor_id"]) == [n for n, _ in want]
        assert list(got["rrf_pts"]) == [p for _, p in want]


def test_ann_topk_l2_metric(ray_session):
    """metric="l2" ranks by true Euclidean distance (nid tiebreak) and
    rejects unknown metrics."""
    import pytest as _pytest

    rng = np.random.default_rng(9)
    mat = rng.standard_normal((40, 4))
    ds = _emb_ds(mat)
    q = pa.table(
        {
            "vec_id": pa.array([3], pa.int64()),
            "embedding": pa.array(
                [list(map(float, mat[3]))], pa.list_(pa.float32())
            ),
        }
    )
    out = _collect(similarity.ann_topk(ds, q, k=4, metric="l2"))
    m = mat.astype(np.float32).astype(np.float64)
    d = ((m - m[3]) ** 2).sum(axis=1)
    order = [i for i in np.lexsort((np.arange(40), d)) if i != 3][:4]
    assert list(out.sort_values("rank")["neighbor_id"]) == order
    with _pytest.raises(ValueError):
        similarity.ann_topk(ds, q, k=4, metric="dot")


def test_ann_ivf_subset_quality(ray_session):
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((120, 8))
    ds = _emb_ds(mat)
    q = pa.table(
        {
            "vec_id": pa.array([0], pa.int64()),
            "embedding": pa.array([list(map(float, mat[0]))], pa.list_(pa.float32())),
        }
    )
    out = _collect(similarity.ann_topk_ivf(ds, q, k=5, n_centroids=4, nprobe=4))
    # nprobe == n_centroids -> exhaustive -> must equal exact top-k
    exact = _collect(similarity.ann_topk(ds, q, k=5))
    assert list(out.sort_values("rank")["neighbor_id"]) == list(
        exact.sort_values("rank")["neighbor_id"]
    )


def test_ann_recall_exhaustive_probe_is_perfect(ray_session):
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((80, 8))
    ds = _emb_ds(mat)
    q = pa.table(
        {
            "vec_id": pa.array([0, 5], pa.int64()),
            "embedding": pa.array(
                [list(map(float, mat[0])), list(map(float, mat[5]))],
                pa.list_(pa.float32()),
            ),
        }
    )
    # nprobe == n_centroids: IVF scans everything -> recall must be k/k
    out = _collect(
        similarity.ann_recall(ds, q, k=5, n_centroids=4, nprobe=4)
    ).sort_values("query_id")
    assert list(out["query_id"]) == [0, 5]
    assert list(out["k"]) == [5, 5]
    assert list(out["n_hits"]) == [5, 5]
    # a 1-probe index on random data may miss -> n_hits <= k always
    low = _collect(
        similarity.ann_recall(ds, q, k=5, n_centroids=8, nprobe=1)
    )
    assert (low["n_hits"] <= low["k"]).all()


# --- multimodal ------------------------------------------------------------


def test_multimodal_stub_raises_and_fake_is_deterministic():
    with pytest.raises(NotImplementedError):
        multimodal.decode_image(b"abc")
    f1 = multimodal.decode_image(b"abc", fake=True)
    f2 = multimodal.decode_image(b"abc", fake=True)
    assert np.allclose(f1, f2) and len(f1) == multimodal.FEATURE_DIM
    assert abs(np.linalg.norm(f1) - 1.0) < 1e-9


def test_multimodal_featurize_pipeline(ray_session):
    media = ray.data.from_arrow(
        pa.table(
            {
                "media_id": pa.array([1, 2], pa.int64()),
                "media_type": ["image", "audio"],
                "payload": pa.array([b"\x00\x01\x02", b"hello"], pa.binary()),
            }
        )
    )
    out = _collect(multimodal.featurize(media, concurrency=2, batch_size=1))
    out = out.sort_values("media_id")
    assert list(out["n_bytes"]) == [3, 5]
    assert all(len(d) == 64 for d in out["digest"])
    assert all(len(f) == multimodal.FEATURE_DIM for f in out["feature"])


def test_multimodal_resize_geometry(ray_session):
    media = ray.data.from_arrow(
        pa.table(
            {
                "media_id": pa.array([1, 2], pa.int64()),
                "media_type": ["image", "image"],
                # len 700 -> w0=64+188=252, h0=64+100=164 (no scale);
                # len 448 -> w0=64+448=512, h0=64+64=128 (scale to 256)
                "payload": pa.array([b"x" * 700, b"y" * 448], pa.binary()),
            }
        )
    )
    out = _collect(multimodal.resize(media, concurrency=2, batch_size=1))
    out = out.sort_values("media_id").reset_index(drop=True)
    assert list(out["width"]) == [252, 512]
    assert list(out["out_width"]) == [252, 256]
    assert list(out["out_height"]) == [164, 128 * 256 // 512]
    assert all(isinstance(p, bytes) and p.startswith(b"RSZ0")
               for p in out["payload"])
    with pytest.raises(NotImplementedError):
        multimodal.ImageResizer(use_fake_decoder=False)


def test_multimodal_frame_sampling_flatmap(ray_session):
    media = ray.data.from_arrow(
        pa.table(
            {
                "media_id": pa.array([7], pa.int64()),
                "media_type": ["video"],
                # len 130 -> n_frames = 1 + 130%60 = 11, stride = 1 -> 11 rows
                "payload": pa.array([b"v" * 130], pa.binary()),
            }
        )
    )
    out = _collect(multimodal.sample_frames(media))
    assert list(out["frame_idx"]) == list(range(11))
    assert set(out["n_frames"]) == {11}
    assert all(p.startswith(b"FRM0") for p in out["payload"])
    # distinct frame payloads per frame_idx (real binary rows)
    assert out["payload"].nunique() == 11
    with pytest.raises(NotImplementedError):
        multimodal.FrameSampler(use_fake_decoder=False)


def test_dedup_apply_transitive_clusters(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.dedup import dedup_apply

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(10)), pa.int64())})
    ).repartition(3)
    # chain 3~5~9 (one cluster, survivor 3); pair (2, 7) survivor 2;
    # numeric-min check: ids 9 vs 10 would differ lexicographically
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([3, 5, 2], pa.int64()),
                "doc_b": pa.array([5, 9, 7], pa.int64()),
            }
        )
    )
    for kw in ({}, {"broadcast_threshold": 0}):  # both removal paths
        got = sorted(
            r["doc_id"] for r in dedup_apply(docs, pairs, **kw).take_all()
        )
        assert got == [0, 1, 2, 3, 4, 6, 8]


def test_knn_label_majority_and_ties(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.similarity import (
        knn_label,
    )

    # 2-D unit vectors at known angles; query q=0 sits nearest to
    # neighbors 1..5 in angle order
    def vec(deg):
        r = np.deg2rad(deg)
        return [float(np.cos(r)), float(np.sin(r))]

    rows = {
        "vec_id": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
        "embedding": [vec(0), vec(5), vec(10), vec(15), vec(20), vec(25), vec(170)],
        # top-5 of query 0 = ids 1..5 with labels [2, 7, 2, 7, 9]:
        # counts {2:2, 7:2, 9:1} → tie 2 vs 7 → min label 2 wins
        "label": pa.array([0, 2, 7, 2, 7, 9, 1], pa.int32()),
    }
    emb = ray.data.from_arrow(pa.table(rows)).repartition(3)
    queries = pa.table(
        {"vec_id": pa.array([0], pa.int64()), "embedding": [vec(0)]}
    )
    out = knn_label(emb, queries, k=5).take_all()
    assert len(out) == 1
    assert out[0]["query_id"] == 0 and out[0]["knn_label"] == 2


def test_dedup_apply_no_pairs_passthrough(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.dedup import dedup_apply

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64())})
    )
    empty_pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
            }
        )
    )
    got = sorted(r["doc_id"] for r in dedup_apply(docs, empty_pairs).take_all())
    assert got == [1, 2, 3]


def test_pack_sequences_invariants(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.packing import (
        pack_sequences,
    )

    rng = np.random.default_rng(31)
    n = 3000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "n_tokens": pa.array(rng.integers(1, 900, n), pa.int64()),
        }
    )
    # one over-budget doc gets its own shard; zero-token docs exist in
    # real corpora (empty text) and must NOT slip into the closed
    # over-budget bin
    toks = t["n_tokens"].to_pylist()
    toks = [1500 if i == 7 else (0 if i % 11 == 0 else v) for i, v in enumerate(toks)]
    t = t.set_column(1, "n_tokens", pa.array(toks, pa.int64()))
    budget = 1024

    def run(parts):
        ds = ray.data.from_arrow(t).repartition(parts)
        out = pack_sequences(ds, budget=budget, num_buckets=8).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    a = run(5)
    # every doc exactly once
    assert sorted(a["doc_id"]) == list(range(n))
    # every multi-doc shard within budget
    g = a.groupby("shard_id").agg(n=("doc_id", "size"), s=("n_tokens", "sum"))
    assert (g[g["n"] > 1]["s"] <= budget).all()
    # over-budget doc is alone in its shard
    big_shard = a[a["doc_id"] == 7]["shard_id"].iloc[0]
    assert (a["shard_id"] == big_shard).sum() == 1
    # deterministic across a different block layout
    b = run(23)
    assert a.equals(b)
    # packing efficiency: shard count close to the lower bound
    lower = int(np.ceil(a["n_tokens"].sum() / budget))
    assert g.shape[0] <= int(lower * 1.35) + 8


def test_repetition_stats_closed_form(ray_session):
    import pyarrow as pa

    from joint_entity_and_relation_extraction_ray.functions.textstats import (
        repetition_stats,
    )

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["a a a b", "", "x y z", "  w  w  "], pa.string()
            ),
        }
    )
    out = {r["doc_id"]: r for r in repetition_stats(t).to_pylist()}
    assert (out[1]["n_tokens"], out[1]["n_distinct"]) == (4, 2)
    assert out[1]["top_share_ppm"] == 750_000
    assert (out[2]["n_tokens"], out[2]["top_share_ppm"]) == (0, 0)
    assert out[3]["top_share_ppm"] == 333_333  # floor division
    assert (out[4]["n_tokens"], out[4]["n_distinct"]) == (2, 1)
    assert out[4]["top_share_ppm"] == 1_000_000


def test_chunk_tokens_closed_form(ray_session):
    from functools import partial

    import pyarrow as pa

    from joint_entity_and_relation_extraction_ray.functions.textstats import (
        chunk_tokens,
    )

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c d e", "", "  x   y  "], pa.string()),
        }
    )
    rows = chunk_tokens(t, chunk_size=3).to_pylist()
    assert [(r["doc_id"], r["chunk_idx"], r["n_tokens"], r["chunk_text"])
            for r in rows] == [
        (1, 0, 3, "a b c"),
        (1, 1, 2, "d e"),  # ragged tail chunk
        (3, 0, 2, "x y"),  # multi-space collapses via token join
    ]  # empty doc emits no chunks
    # exact-multiple boundary: no empty trailing chunk
    t2 = pa.table({"doc_id": [9], "text": ["p q r s"]})
    rows2 = chunk_tokens(t2, chunk_size=2).to_pylist()
    assert [(r["chunk_idx"], r["n_tokens"]) for r in rows2] == [(0, 2), (1, 2)]


def test_hash_sample_block_empty_and_typed(ray_session):
    """Regression for the round-1/2 driver crash: a block where NO row
    samples must return a typed empty table, not ArrowNotImplementedError
    from array_take(int64, null)."""
    import hashlib

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        hash_sample_block,
    )

    # find doc_ids guaranteed NOT to sample (md5 prefix >= '1a')
    misses = [d for d in range(200)
              if hashlib.md5(str(d).encode()).hexdigest()[:2] >= "1a"][:50]
    t = pa.table({"doc_id": pa.array(misses, pa.int64()),
                  "text": ["x"] * len(misses)})
    out = hash_sample_block(t)
    assert out.num_rows == 0
    assert out.schema.field("doc_id").type == pa.int64()

    # and a mixed block matches the brute-force oracle
    allids = list(range(500))
    t2 = pa.table({"doc_id": pa.array(allids, pa.int64()),
                   "text": ["x"] * len(allids)})
    got = hash_sample_block(t2)["doc_id"].to_pylist()
    want = [d for d in allids
            if hashlib.md5(str(d).encode()).hexdigest()[:2] < "1a"]
    assert got == want

    # through Ray with tiny blocks so at least one block is all-miss
    ds = ray.data.from_arrow(t).map_batches(
        hash_sample_block, batch_format="pyarrow", batch_size=7,
        zero_copy_batch=True,
    )
    assert ds.count() == 0


def test_codec_injection_contract(ray_session):
    """VERDICT r2 missing #4: the decode seam accepts a REAL codec
    implementation. The shim stands in for PIL/soundfile (not installed):
    it decodes the payload bytes as a uint8 'pixel' array. Defined inside
    the test fn so cloudpickle serializes it BY VALUE into the actor pool
    (module-level test classes are pickled by reference and unimportable
    on workers). Features must equal the closed-form pooling of the
    decoded array, proving payloads flow through the injected codec."""
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.multimodal import (
        decode_audio,
        decode_image,
        featurize,
        pooled_features,
    )

    def shim_codec(payload: bytes) -> np.ndarray:
        # a real codec would parse a container format; the contract is
        # just bytes -> ndarray
        return np.frombuffer(payload, dtype=np.uint8).reshape(-1, 4)

    payloads = [bytes(range(i, i + 32)) for i in range(6)]
    media = ray.data.from_arrow(
        pa.table(
            {
                "media_id": pa.array(range(6), pa.int64()),
                "media_type": ["image"] * 6,
                "payload": pa.array(payloads, pa.binary()),
            }
        )
    )
    out = (
        featurize(media, concurrency=2, batch_size=3, decoder=shim_codec)
        .to_pandas()
        .sort_values("media_id")
    )
    for mid, feat in zip(out["media_id"], out["feature"]):
        want = pooled_features(shim_codec(payloads[mid]))
        assert np.allclose(np.array(feat), want)

    # the function seams take the codec too; without one they still raise
    assert decode_image(payloads[0], codec=shim_codec).shape == (8, 4)
    assert decode_audio(payloads[0], codec=shim_codec).shape == (8, 4)
    with pytest.raises(NotImplementedError):
        decode_image(payloads[0])


def test_kmeans_recovers_planted_clusters(ray_session):
    """Lloyd's over 4 well-separated planted blobs must recover the exact
    partition (assignment-label permutation aside) and keep centroids
    near blob means; init is deterministic across block layouts."""
    import numpy as np

    rng = np.random.default_rng(7)
    centers = np.eye(4).repeat(4, axis=1) * 10.0  # 4 blobs in 16-dim
    vecs, truth = [], []
    for c in range(4):
        for _ in range(40):
            vecs.append(centers[c] + rng.normal(0, 0.1, 16))
            truth.append(c)
    ids = list(range(len(vecs)))
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    cents, assigns = similarity.kmeans(
        ray.data.from_arrow(t).repartition(8), k=4, iters=6
    )
    df = assigns.to_pandas().sort_values("vec_id")
    got = list(df["cluster"])
    # exact recovery: each planted blob maps to ONE distinct output label
    mapping = {}
    for g, tr in zip(got, truth):
        mapping.setdefault(tr, set()).add(g)
    assert all(len(v) == 1 for v in mapping.values())
    assert len({next(iter(v)) for v in mapping.values()}) == 4
    # centroids land on blob means (tolerance >> within-blob noise)
    for c in range(4):
        d = np.min(np.linalg.norm(cents - centers[c], axis=1))
        assert d < 0.5

    # layout-independent deterministic seeding: same init at 1 block
    cents2, _ = similarity.kmeans(
        ray.data.from_arrow(t).repartition(1), k=4, iters=6
    )
    assert np.allclose(np.sort(cents, axis=0), np.sort(cents2, axis=0), atol=1e-6)


def test_fixed_probe_assign_matches_bruteforce(ray_session):
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.similarity import (
        fixed_probe_assign,
        probe_matrix,
    )

    rng = np.random.default_rng(3)
    vecs = rng.normal(0, 0.3, (50, 64))
    t = pa.table(
        {
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = (
        fixed_probe_assign(ray.data.from_arrow(t).repartition(4))
        .to_pandas()
        .sort_values("vec_id")
    )
    q = np.floor(vecs.astype(np.float32).astype(np.float64) * 1000 + 0.5).astype(np.int64)
    s = q @ probe_matrix(4, 64).T
    assert list(out["cluster"]) == list(np.argmax(s, axis=1))
    assert list(out["score"]) == list(s[np.arange(50), np.argmax(s, axis=1)])


def test_fuzzy_match_pairs_matches_bruteforce(ray_session):
    """SymSpell d<=1 decomposition must be COMPLETE: every pair the
    all-pairs Levenshtein check finds, plus zero false survivors, incl.
    exact duplicates (dist 0), ins/del (dist 1 length change) and
    substitution pairs, with singleton strings producing no pairs."""
    names = [
        "alpha", "alpha",          # exact dup -> dist 0
        "alpho",                   # substitution of alpha
        "alph",                    # deletion of alpha
        "alphax",                  # insertion on alpha
        "beta", "betta",           # insertion
        "gamma",                   # singleton: no partner
        "delta", "celta",          # substitution at pos 0
        "x", "",                   # 1-char vs empty -> dist 1
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(names)), pa.int64()),
                "name": pa.array(names),
            }
        )
    )
    got = (
        dedup.fuzzy_match_pairs(ds, id_col="doc_id", col="name", num_buckets=4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )

    def lev(a, b):
        import itertools

        d = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            nd = [i]
            for j, cb in enumerate(b, 1):
                nd.append(min(d[j] + 1, nd[-1] + 1, d[j - 1] + (ca != cb)))
            d = nd
        return d[-1]

    want = [
        (i, j, lev(names[i], names[j]))
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if lev(names[i], names[j]) <= 1
    ]
    assert [tuple(r) for r in got.itertuples(index=False)] == sorted(want)


def test_embedding_cov_stats_sufficient_for_numpy_cov(ray_session):
    """The (n, Σi, Σj, Σij) partials must reconstruct the exact numpy
    covariance of the quantized matrix — the whole point of shipping
    sufficient statistics instead of rows. Multi-block layout so the
    per-block matmul partials actually merge."""
    rng = np.random.RandomState(11)
    vecs = rng.uniform(-1, 1, (300, 8)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(300), pa.int64()),
            "embedding": pa.array(list(map(list, vecs))),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 37) for i in range(0, 300, 37)])
    rows = similarity.embedding_cov_stats(ds, dims=4, num_buckets=2).take_all()
    q = np.floor(vecs.astype(np.float64)[:, :4] * 1000 + 0.5).astype(np.int64)
    n = len(q)
    for r in rows:
        i, j = r["i"] - 1, r["j"] - 1
        assert r["n"] == n
        assert r["sum_i"] == q[:, i].sum()
        assert r["sum_ij"] == int(q[:, i] @ q[:, j])
        # reconstructed covariance == numpy's (ddof=0), bit-exact ints in
        cov = (r["sum_ij"] - r["sum_i"] * r["sum_j"] / n) / n
        assert abs(cov - np.cov(q[:, i], q[:, j], ddof=0)[0, 1]) < 1e-6
    assert len(rows) == 10  # upper triangle of 4x4


def test_minhash_cross_pairs_only_cross_side(ray_session):
    """Incremental near-dup join: finds exactly the cross-side near-dup
    pairs (old doc_a, new doc_b) and NEVER an old-old or new-new pair,
    even when both sides contain internal near-dups."""
    base = "the quick brown fox jumps over the lazy dog again and again "
    old_texts = {
        0: base * 4,
        2: base * 4 + "tail one",     # old-old near-dup of 0 (must NOT pair)
        4: "completely different words entirely " * 6,
    }
    new_texts = {
        1: base * 4 + "tail two",     # cross dup of 0 and 2
        3: "unrelated new content nothing shared here " * 6,
        5: "unrelated new content nothing shared here also " * 6,  # ~new-new
    }

    def mk(d):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(list(d), pa.int64()),
                    "text": pa.array(list(d.values())),
                }
            )
        )

    got = sorted(
        (r["doc_a"], r["doc_b"])
        for r in dedup.minhash_cross_pairs(
            mk(old_texts), mk(new_texts), threshold=0.5
        ).take_all()
    )
    assert got == [(0, 1), (2, 1)]


def test_order_count_distribution_zero_bucket(ray_session, tmp_path):
    """Q13 shape: customers with NO orders land in the n_orders=0 bucket
    (the left-join subtlety an inner join silently drops)."""
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"o_custkey": pa.array([1, 1, 1, 2, 2, 4], pa.int64())}),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64())}),
        tmp_path / "customer.parquet",
    )
    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_order_count_distribution,
    )

    rows = {
        r["n_orders"]: r["n_customers"]
        for r in q_order_count_distribution(str(tmp_path)).take_all()
    }
    assert rows == {0: 2, 1: 1, 2: 1, 3: 1}


# --- product quantization ----------------------------------------------------


def test_pq_recall_on_clustered_corpus(ray_session):
    """On a clustered corpus (the case PQ is built for) the ADC index
    must put ≥90% of each query's exact top-k in its own top-k; on the
    deliberately unclustered driver corpus the measured floor (≈0.76,
    m=32) is documented in q_pq_topk instead."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(7)
    centers = rng.normal(size=(40, 64)) * 5.0
    # cluster size == k+1 so each query's exact top-k is exactly its 5
    # cluster mates — inside a cluster points are near-identical and PQ
    # quantizes them to the same codes, so any larger cluster would make
    # recall@k measure tie-breaking noise, not index quality
    vecs = np.concatenate(
        [c + rng.normal(size=(6, 64)) * 0.05 for c in centers]
    )
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(
                vecs.tolist(), pa.list_(pa.float32())
            ),
        }
    )
    emb = ray.data.from_arrow(tbl).repartition(6)
    queries = tbl.slice(0, 8)

    rec = similarity.pq_recall(
        emb, queries, k=5, m=16, ksub=32, iters=6
    ).to_pandas()
    assert len(rec) == 8
    assert rec["n_hits"].sum() / rec["k"].sum() >= 0.9

    # the exact-integer variant (the oracle-backed driver path, r5)
    # must clear the same bar on the clustered corpus
    # quant=1e4: this fixture's coords reach ~±20 (vs the driver
    # corpus's ~±0.6), and the LUT overflow guard fires at 1e6 — the
    # quant knob trades precision for range, same as fixed-point δ
    rec_x = similarity.pq_recall_exact(
        emb, queries, k=5, m=16, ksub=32, iters=4, quant=10**4
    ).to_pandas()
    assert len(rec_x) == 8
    assert rec_x["n_hits"].sum() / rec_x["k"].sum() >= 0.9


def test_pq_encode_shape_and_determinism(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(60, 64)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(60, dtype=np.int64)),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }
    )
    emb = ray.data.from_arrow(tbl).repartition(4)
    books = similarity.pq_train(emb, m=8, ksub=16, iters=3)
    assert books.shape == (8, 16, 8)
    out = similarity.pq_encode(emb, books).to_pandas().sort_values("vec_id")
    assert len(out) == 60
    codes = np.array(list(out["codes"]))
    assert codes.shape == (60, 8)
    assert codes.dtype.kind in "iu" and codes.max() < 16
    # same books -> identical codes regardless of block layout
    out2 = (
        similarity.pq_encode(ray.data.from_arrow(tbl).repartition(9), books)
        .to_pandas()
        .sort_values("vec_id")
    )
    assert codes.tolist() == list(map(list, out2["codes"]))


def test_dedup_cluster_sizes_histogram(ray_session):
    """Closed-form CC size histogram: {1,2,3} + {5,6} + {8,9,10,11} →
    one cluster each of sizes 3, 2, 4 — identical across pair-block
    layouts; no pairs → empty histogram."""
    pairs_t = pa.table(
        {
            "doc_a": pa.array([1, 2, 5, 8, 9, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 6, 9, 10, 11], pa.int64()),
        }
    )
    for blocks in (1, 3):
        got = {
            r["cluster_size"]: r["n_clusters"]
            for r in dedup.dedup_cluster_sizes(
                ray.data.from_arrow(pairs_t).repartition(blocks),
                num_buckets=4,
            ).take_all()
        }
        assert got == {2: 1, 3: 1, 4: 1}, (blocks, got)

    empty = dedup.dedup_cluster_sizes(
        ray.data.from_arrow(pairs_t.slice(0, 0))
    )
    assert empty.count() == 0
    assert empty.schema().names == ["cluster_size", "n_clusters"]


def test_random_projection_exact_bruteforce(ray_session):
    """Pure-Python brute force (independent md5 sign derivation, exact
    half-away-from-zero quantization) equals the vectorized op, across
    layouts; negative-.5 rounding pinned (-0.0005*1000 = -0.5 → -1)."""
    import hashlib

    from joint_entity_and_relation_extraction_ray.stages.similarity import (
        random_projection,
    )

    vecs = [
        [0.1, -0.25, 0.0005, -0.0005],
        [1.5, 0.0, -2.0, 0.75],
        [0.0, 0.0, 0.0, 0.0],
    ]
    t = pa.table(
        {
            "vec_id": pa.array([10, 11, 12], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )

    def brute(x, j_max=3):
        out = {}
        for vid, v in zip([10, 11, 12], x):
            q = []
            for c in v:
                y = float(np.float32(c)) * 1000
                q.append(int(np.trunc(y + np.copysign(0.5, y))))
            for j in range(j_max):
                s = 0
                for i, qi in enumerate(q, start=1):
                    hex0 = hashlib.md5(f"{j}:{i}".encode()).hexdigest()[0]
                    s += qi if hex0 in "02468ace" else -qi
                out[(vid, j)] = s
        return out

    want = brute(vecs)
    for blocks in (1, 3):
        ds = ray.data.from_arrow(t).repartition(blocks)
        got = {
            (r["vec_id"], r["out_dim"]): r["value"]
            for r in random_projection(ds, k=3).take_all()
        }
        assert got == want, (blocks, got)


def test_hash_features_bruteforce(ray_session):
    """Feature-hashing trick equals an independent per-token brute force;
    zero-sum dims are omitted; empty docs emit nothing."""
    import hashlib

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["alpha beta alpha", "  ", "gamma"],
        }
    )
    out = {
        (r["doc_id"], r["dim"]): r["value"]
        for r in ray.data.from_arrow(t)
        .map_batches(
            textstats.hash_features,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    }

    want: dict = {}
    for did, txt in [(1, "alpha beta alpha"), (3, "gamma")]:
        for tok in txt.split():
            hh = hashlib.md5(tok.encode()).hexdigest()
            d = "0123456789abcdef".index(hh[0]) // 2
            s = 1 if hh[1] in "02468ace" else -1
            want[(did, d)] = want.get((did, d), 0) + s
    want = {k: v for k, v in want.items() if v}
    assert out == want
    assert not any(k[0] == 2 for k in out)


def test_kfold_assign_layout_independent(ray_session):
    """Fold assignment depends only on doc_id (layout-independent) and
    uses all 5 folds on the driver corpus boundaries."""
    import hashlib

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_kfold_assign,
    )

    got = {
        r["doc_id"]: r["fold"]
        for r in q_kfold_assign("/root/testdata/sf0.001").take_all()
    }
    for did, fold in list(got.items())[:50]:
        h = hashlib.md5(str(did).encode()).hexdigest()[:2]
        want = 0 if h < "33" else 1 if h < "66" else 2 if h < "9a" else \
            3 if h < "cd" else 4
        assert fold == want


def test_phrase_search_counts_overlapping_occurrences(ray_session, tmp_path):
    """The scan counts every adjacent-token occurrence (overlaps
    included): 'a a a' holds the bigram 'a a' twice; docs without the
    top phrase are absent from the result."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_phrase_search,
    )

    d = tmp_path
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": ["a a a", "a a b", "b c d"],
            }
        ),
        d / "documents.parquet",
    )
    got = {
        r["doc_id"]: r["n_hits"] for r in q_phrase_search(str(d)).take_all()
    }
    # corpus bigram counts: 'a a' x3, 'a b' x1, 'b c' x1, 'c d' x1
    assert got == {1: 2, 2: 1}


def test_minhash_blocking_stats_closed_form(ray_session, tmp_path):
    """Closed-form corpus: three identical docs + one unrelated ->
    3 verified pairs among 6 possible; candidates are a superset of
    verified and a subset of all pairs; ppm fields are exact integers
    of those counts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from joint_entity_and_relation_extraction_ray.pipelines.corpus_ops import (
        q_dedup_blocking_stats,
    )

    same = "the quick brown fox jumps over the lazy dog again and again"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [same, same, same, "completely different words here xyz"],
            }
        ),
        tmp_path / "documents.parquet",
    )
    row = q_dedup_blocking_stats(str(tmp_path)).take_all()[0]
    assert row["n_docs"] == 4
    assert row["n_verified_pairs"] == 3
    assert 3 <= row["n_candidate_pairs"] <= 6
    assert row["reduction_ppm"] == row["n_candidate_pairs"] * 1_000_000 // 6
    assert (
        row["precision_ppm"]
        == 3 * 1_000_000 // row["n_candidate_pairs"]
    )


def test_token_entropy_exact_and_interpretable(ray_session):
    """token_entropy: fixed-point ent_sum_e9 equals the brute-force int
    reference exactly; entropy_bits is 0 for a one-token-type doc and
    log2(k) for k equally-frequent types (up to the 1e-9 quantization)."""
    import math

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.functions.textstats import (
        token_entropy,
    )

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "spam spam spam spam",          # H = 0
                "a b c d a b c d",              # 4 types, equal → H = 2
                "x x y z",                      # mixed
            ],
        }
    )
    out = {
        r["doc_id"]: r
        for r in ray.data.from_arrow(docs)
        .map_batches(token_entropy, batch_format="pyarrow")
        .take_all()
    }
    assert out[1]["entropy_bits"] == 0.0
    assert abs(out[2]["entropy_bits"] - 2.0) < 1e-8
    # brute-force fixed-point reference for doc 3: counts {x:2, y:1, z:1}
    s = int(math.floor(2.0 * math.log2(2.0) * 1e9))  # c=1 terms add 0
    assert out[3]["ent_sum_e9"] == s
    assert out[3]["n_tokens"] == 4 and out[3]["n_distinct"] == 3
    want = math.log2(4.0) - s / (1e9 * 4.0)
    assert out[3]["entropy_bits"] == want


def test_kmeans_fixed_assignments_recover_blobs(ray_session):
    """kmeans_fixed_assignments: exact-arithmetic Lloyd's recovers
    planted separated blobs (same contract as the float path) and is
    layout-independent (same labels after repartition)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.similarity import (
        kmeans_fixed_assignments,
    )

    rng = np.random.default_rng(7)
    centers = np.array([[5.0, 0, 0, 0], [-5.0, 0, 0, 0], [0, 8.0, 0, 0]])
    rows, labels = [], []
    for i in range(90):
        c = i % 3
        rows.append(centers[c] + rng.normal(0, 0.1, 4))
        labels.append(c)
    t = pa.table(
        {
            "vec_id": pa.array(range(90), pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in rows], pa.list_(pa.float64())
            ),
        }
    )
    a1 = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_fixed_assignments(
            ray.data.from_arrow(t), k=3, iters=4
        ).take_all()
    }
    a2 = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_fixed_assignments(
            ray.data.from_arrow(t).repartition(7), k=3, iters=4
        ).take_all()
    }
    assert a1 == a2  # block-layout independence
    # the REAL contract is bit-exactness: replay the algorithm in pure
    # Python (quantize → md5-60 seeds → rational Lloyd's with
    # cross-multiplied compares) and demand identical labels
    import hashlib
    import math

    Q = 10**6
    xq = {
        i: [int(math.floor(v * Q + 0.5)) for v in rows[i]]
        for i in range(90)
    }
    seeds = sorted(
        range(90),
        key=lambda i: int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16),
    )[:3]
    s = [list(xq[i]) for i in seeds]
    n = [1, 1, 1]

    def _assign_all():
        out = {}
        for i in range(90):
            best, bD, bN2 = 0, None, None
            for j in range(3):
                D = sum(
                    (n[j] * xi - sj) ** 2 for xi, sj in zip(xq[i], s[j])
                )
                if bD is None or D * bN2 < bD * n[j] * n[j]:
                    best, bD, bN2 = j, D, n[j] * n[j]
            out[i] = best
        return out

    for _ in range(4):
        a = _assign_all()
        for j in range(3):
            mem = [i for i in a if a[i] == j]
            if mem:
                s[j] = [
                    sum(xq[i][d] for i in mem) for d in range(4)
                ]
                n[j] = len(mem)
    want = _assign_all()
    assert a1 == want


def test_embedding_lsh_fine_threshold_no_int64_wrap(ray_session):
    """A fine-grained threshold Fraction (0.405 → den=200) used to wrap
    the int64 cross-multiplied cosine bound den²·dot² at the repo's own
    documented magnitudes (dim 64, coords ~0.53) and reject IDENTICAL
    vectors — the comparison must promote to exact big-int arithmetic
    (ADVICE r4 medium)."""
    v = [0.53] * 64
    mat = np.array([v, v, [-x for x in v]])
    ds = _emb_ds(mat)
    got = _collect(
        dedup.embedding_dup_pairs_lsh(ds, threshold=0.405, n_tables=64)
    )
    pairs = set(zip(got["vec_a"], got["vec_b"]))
    assert (0, 1) in pairs  # identical vectors: cos = 1.0 ≥ 0.405
    # opposite vectors (cos = −1) never pass
    assert not any({a, b} == {0, 2} or {a, b} == {1, 2} for a, b in pairs)


def test_md5_vectorized_parity():
    """schema.md5_60 / md5_hex (vectorized through in-process DuckDB,
    ADVICE r4) must be byte-identical to the per-value hashlib form for
    every supported dtype, and fall back to the exact hashlib loop for
    dtypes DuckDB's VARCHAR cast could format differently."""
    import hashlib

    from joint_entity_and_relation_extraction_ray.schema import (
        md5_60,
        md5_hex,
    )

    cases = [
        np.array([f"doc{i}" for i in range(500)]),          # U strings
        np.array([f"x\x1fy{i}" for i in range(100)], dtype=object),
        np.arange(-50, 50),                                  # ints
        pa.array([f"s{i}" for i in range(100)]),             # arrow strings
        [1.5, 2.25, None, "a", 10**30],                      # fallback path
        np.array(["ünïcödé", "", "a b"]),                    # non-ascii
    ]
    for vals in cases:
        as_obj = (
            vals.to_pylist()
            if isinstance(vals, pa.Array)
            else np.asarray(vals, dtype=object)
        )
        exp60 = [
            int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)
            for v in as_obj
        ]
        exph = [hashlib.md5(str(v).encode()).hexdigest() for v in as_obj]
        assert md5_60(vals).tolist() == exp60
        assert md5_hex(vals).to_pylist() == exph


def test_exact_topk_tie_break_layout_independent(ray_session):
    """Integer-score TIES at the top-k boundary (identical vectors →
    identical PQ codes → exactly equal scores) must resolve by the
    total order (score asc, neighbor_id asc) regardless of block
    layout — a bare argpartition truncation picked arbitrary tied
    members per block (review r5)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    # 30 IDENTICAL vectors + 4 distinct: every query's candidate list
    # ties 29-deep at the boundary
    base = [0.3] * 16
    vecs = [base] * 30 + [[0.3 + 0.01 * j] * 16 for j in range(1, 5)]
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    queries = tbl.slice(0, 3)

    def _run(nparts, fn):
        emb = ray.data.from_arrow(tbl).repartition(nparts)
        df = fn(emb).to_pandas()
        return df.sort_values(["query_id", "rank"]).reset_index(drop=True)

    for fn in (
        lambda e: similarity.l2_topk_int(queries=queries, emb=e, k=5),
        lambda e: similarity.pq_ann_topk_exact(
            e, queries, k=5, m=4, ksub=8, iters=2
        ),
    ):
        a, b = _run(3, fn), _run(9, fn)
        assert a.equals(b), "tied top-k depends on block layout"
    # l2 ground truth: tied distances resolve to the SMALLEST ids
    out = _run(4, lambda e: similarity.l2_topk_int(queries=queries, emb=e, k=5))
    q0 = out[out.query_id == 0]
    assert list(q0.neighbor_id) == [1, 2, 3, 4, 5]  # ids 1..5, not arbitrary


def test_pq_exact_small_corpus_clamps_ksub(ray_session):
    """Corpus smaller than ksub must clamp instead of IndexError (the
    float pq_train shape-derives the same way — review r5)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(10, 16)) * 0.3
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(10, dtype=np.int64)),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }
    )
    emb = ray.data.from_arrow(tbl).repartition(3)
    out = similarity.pq_ann_topk_exact(
        emb, tbl.slice(0, 2), k=3, m=4, ksub=16, iters=2
    ).to_pandas()
    assert len(out) == 6  # 2 queries x k=3, no crash
