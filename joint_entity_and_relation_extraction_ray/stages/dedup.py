"""Deduplication operators over a (doc_id, text) / (vec_id, embedding)
corpus — the training-data-pipeline family (driver brief): exact,
MinHash+LSH, SimHash, n-gram Jaccard and containment, edit distance,
embedding-cosine.

Every blocking join here has the same shape — map rows to int64
``(key, id)`` POSTINGS, pair the ids that share a key, verify the pairs
exactly — and shares one core for it:

- :func:`_co_posting_pairs` — the blocking core: one key-bucketed
  shuffle whose reducer sorts its postings by ``(key, id)`` and turns
  every key's id list into its upper triangle in one loop-free pass
  (:func:`_group_pairs`: exact by default, oversized lists logged,
  ``max_bucket`` truncates with a log line), then one ``a``-bucketed
  shuffle (:func:`_distinct_pairs`) that makes the pairs distinct and
  counts ``c`` = the keys a pair co-occurs on. MinHash bands
  (:func:`_minhash_postings`), n-gram shingle hashes
  (:func:`_pair_intersection_counts`, where ``c`` = |A ∩ B|),
  hyperplane-LSH buckets and SymSpell deletion variants all block
  through it, and the SimHash band reducer pairs through the same
  :func:`_group_pairs`; only 16-byte int rows shuffle, never text.
  Both shingle-set preludes hash the ``list<string>`` column straight
  from its Arrow buffers (``textstats.shingle_hashes_arrow``);
- :func:`_map_shingle_sets` — the candidate shingle-set fetch of the
  string-set verifiers (:func:`verify_jaccard_pairs`,
  :func:`containment_pairs`): a broadcast LUT of the candidate docs
  when the pair set fits on the driver, hash joins above that;
- :func:`_pair_graph_labels` — connected components of a pair graph
  (:func:`dedup_apply`, :func:`dedup_cluster_sizes`).

Scale design notes (10^12-row framing):

- exact dedup = hash fingerprint (map) + groupby(digest) min — one shuffle
  whose payload is (digest, doc_id), never the text;
- MinHash LSH = shingle→signature (map, vectorized, perm-major) →
  (key, id) band postings → the blocking core → n-gram Jaccard verify
  on the candidate docs' string shingle sets. Shingle-less docs are
  skipped at banding so they never collide on a sentinel signature;
- SimHash = 64-bit fingerprint (map) + groupby(fingerprint); near-dup
  variant blocks on 4×16-bit bands (pigeonhole: hamming ≤ 3 ⇒ ≥ 1 band
  equal) then verifies exact hamming distance (vectorized popcount)
  inside its own bucket reducer;
- embedding near-dup baseline = brute-force cosine against a broadcast
  normalized matrix (exact; fine to ~1e6×D on a worker); the scale path
  is multi-table random-hyperplane LSH through the blocking core +
  join-side exact-cosine verify.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Min

from ..functions import textstats
from ..functions.joins import (
    BROADCAST_THRESHOLD_ROWS,
    dataset_to_table,
    join_auto,
)
from ..functions.shuffle import bucket_group_apply

log = logging.getLogger(__name__)

# Pair generation per posting list is exact by default (no silent
# truncation — a dropped pair would diverge from the all-pairs oracle).
# Lists above BUCKET_WARN are counted in one log line per reducer call;
# callers at scale can pass max_bucket to bound the quadratic explicitly
# (each truncation is then logged too).
BUCKET_WARN = 200

_I64 = pa.int64()


def _warn_long_lists(sizes: np.ndarray, label: str) -> None:
    """One warning for a reducer call's posting lists over
    ``BUCKET_WARN`` ids: how many, and the largest."""
    over = sizes[sizes > BUCKET_WARN]
    if len(over):
        log.warning(
            "%s: %d posting lists over %d ids, largest %d (quadratic "
            "pair-gen)", label, len(over), BUCKET_WARN, int(over.max()),
        )


def _group_pairs(
    keys: np.ndarray, *, max_bucket: int | None, label: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every in-group position pair ``(i, j)``, ``i < j``, of a SORTED
    key array — each run of equal keys is one posting list — yielded in
    slices of at most about 8M pairs so the temporaries stay bounded.

    Loop-free over the lists: position ``p`` of a list ending at ``e``
    pairs with ``p + 1 .. e - 1``, so one ``repeat``/``cumsum`` pass
    emits every list's upper triangle at once. With ``max_bucket`` set
    each longer list keeps its first ``max_bucket`` positions (each
    truncation logged, never silent); lists over ``BUCKET_WARN`` give
    one warning per call (:func:`_warn_long_lists`)."""
    n = len(keys)
    if n < 2:
        return
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, n])
    _warn_long_lists(sizes, label)
    kept = sizes
    if max_bucket is not None:
        for m in sizes[sizes > max_bucket].tolist():
            log.warning(
                "%s: truncating bucket %d -> %d ids (max_bucket)",
                label, m, max_bucket,
            )
        kept = np.minimum(sizes, max_bucket)
    # partners of each position: up to the end of its list's kept prefix
    cnt = np.repeat(starts + kept, sizes) - np.arange(n, dtype=np.int64) - 1
    rows = np.flatnonzero(cnt > 0)
    cnt = cnt[rows]
    cum = np.cumsum(cnt)
    lo = 0
    while lo < len(rows):
        done = int(cum[lo] - cnt[lo])
        hi = max(int(np.searchsorted(cum, done + (1 << 23), "right")), lo + 1)
        r, c = rows[lo:hi], cnt[lo:hi]
        # pair k of row r (its pairs start at slice offset cum - c - done)
        # is (r, r + 1 + k - that offset)
        shift = np.repeat(cum[lo:hi] - c - done - r - 1, c)
        yield np.repeat(r, c), np.arange(len(shift), dtype=np.int64) - shift
        lo = hi


def _share(x):
    """A zero-argument getter of ``x`` for worker-side functions: ``x`` is
    put in the object store once when a Ray session is up (each call
    then reads it from the local store), else held by the closure."""
    if not ray.is_initialized():
        return lambda: x
    ref = ray.put(x)
    return lambda: ray.get(ref)


def _distinct_pairs(
    pairs: ray.data.Dataset,
    cols: tuple[str, str],
    *,
    count: bool = False,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """The ``a``-bucketed pair reducer: distinct ``cols`` pairs, with
    ``c`` = each pair's number of copies when ``count``. Every copy of a
    pair hashes to the bucket of its first column, so the count there is
    final."""
    names = [*cols, "c"] if count else list(cols)
    schema = pa.schema([(n, _I64) for n in names])

    def _reduce(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by(list(cols))
            .agg(pl.len().cast(pl.Int64).alias("c"))
            .select(names)
            .to_arrow()
            .cast(schema)
        )

    return bucket_group_apply(pairs, cols[0], _reduce, num_buckets=num_buckets)


def _co_posting_pairs(
    postings: ray.data.Dataset,
    *,
    cols: tuple[str, str] = ("doc_a", "doc_b"),
    count: bool = False,
    max_bucket: int | None = None,
    label: str,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """The blocking core: int64 ``(key, id)`` postings → distinct
    ``(a < b)`` pairs of ids that share a key, named ``cols``, plus
    ``c`` = the number of postings the pair co-occurs on when ``count``.

    Two shuffles: postings bucket by ``key`` and each reducer emits the
    upper triangle of every key's sorted id list in one pass
    (:func:`_posting_list_pairs`), so its cost follows the pairs, not
    the number of lists; the pairs then bucket by ``a``
    (:func:`_distinct_pairs`). Postings are not made distinct first: an
    id posted twice under one key (a 64-bit hash collision) pairs with
    each co-posted id once per posting, so a collision can only add to
    ``c``. Self-pairs are dropped."""
    pairs = bucket_group_apply(
        postings,
        "key",
        partial(
            _posting_list_pairs, cols=cols, max_bucket=max_bucket, label=label
        ),
        num_buckets=num_buckets,
    )
    return _distinct_pairs(pairs, cols, count=count, num_buckets=num_buckets)


def _posting_list_pairs(
    t: pa.Table, *, cols: tuple[str, str], max_bucket: int | None, label: str
) -> pa.Table:
    """The key reducer of :func:`_co_posting_pairs`: ``(key, id)``
    postings sorted by ``(key, id)`` → the upper triangle of every key's
    id list in one pass (:func:`_group_pairs`, truncated at
    ``max_bucket``), self-pairs dropped."""
    import polars as pl

    a, b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    if t.num_rows:
        df = pl.from_arrow(t.select(["key", "id"])).sort(["key", "id"])
        ids = df["id"].to_numpy()
        for i, j in _group_pairs(
            df["key"].to_numpy(), max_bucket=max_bucket, label=label
        ):
            x, y = ids[i], ids[j]
            keep = x != y
            a.append(x[keep])
            b.append(y[keep])
    return pa.table(
        {
            cols[0]: pa.array(np.concatenate(a), _I64),
            cols[1]: pa.array(np.concatenate(b), _I64),
        }
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Keep-first (min doc_id) per identical text → (doc_id, n_dups).

    Shuffle key is the md5 digest — hash-partition + per-group first
    (groupby min), text bytes never move.
    """
    fp = docs.map_batches(
        textstats.fingerprint, batch_format="pyarrow", zero_copy_batch=True
    )
    agg = fp.groupby("digest").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_dups": pc.cast(t["n_dups"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def dedup_rows(
    ds: ray.data.Dataset,
    key: str,
    *,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Generic keep-one-per-key distinct (D2): one bucketed shuffle; the
    survivor is deterministic — rows sort by ALL columns inside each
    bucket before keep-first, so the result is independent of block
    arrival order. For scalar-column schemas (sorting list columns is not
    supported); duplicate mention rows from overlapping decode or dirty
    reruns are the canonical use (``dedup_rows(mentions, "mention_id")``).
    """

    def _d(t: pa.Table) -> pa.Table:
        import polars as pl

        if not t.num_rows:
            return t
        df = pl.from_arrow(t)
        out = (
            df.sort(df.columns)
            .unique(subset=[key], keep="first", maintain_order=True)
            .to_arrow()
        )
        return pa.Table.from_arrays(
            [out[n].cast(t.schema.field(n).type) for n in t.schema.names],
            schema=t.schema,
        )

    return bucket_group_apply(ds, key, _d, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup pairs, verified by true n-gram Jaccard
# ---------------------------------------------------------------------------


def shingle_docs(docs: ray.data.Dataset, *, k: int = 3) -> ray.data.Dataset:
    """(doc_id, text) → (doc_id, shingles list<string>, n_shingles)."""

    def _sh(t: pa.Table) -> pa.Table:
        sh = [textstats.word_shingles(x, k) for x in t["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "shingles": pa.array(sh, pa.list_(pa.string())),
                "n_shingles": pa.array([len(s) for s in sh], pa.int64()),
            }
        )

    return docs.map_batches(_sh, batch_format="pyarrow", zero_copy_batch=True)


def _band_keys(
    sigs: np.ndarray, doc_ids: np.ndarray, rows_per_band: int
) -> pa.Table:
    """Band signatures → int64 ``(key, id)`` band postings, fully
    vectorized.

    The key is a splitmix-style MIX of the band's signature values + the
    band index — 8 bytes through the shuffle instead of a ~45-byte string,
    no per-row Python. Equal band signatures always produce equal keys
    (recall is exact); a rare mix collision only MERGES two buckets, which
    adds candidate pairs that the exact-Jaccard verify removes."""
    n_docs, num_perm = sigs.shape
    n_bands = num_perm // rows_per_band
    banded = sigs.reshape(n_docs, n_bands, rows_per_band)
    with np.errstate(over="ignore"):
        h = np.full((n_docs, n_bands), 0x243F6A8885A308D3, dtype=np.uint64)
        for r in range(rows_per_band):
            h ^= banded[:, :, r]
            h *= np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(29)
        h ^= np.arange(n_bands, dtype=np.uint64)[None, :] * np.uint64(
            0xBF58476D1CE4E5B9
        )
    keys = h.reshape(-1).view(np.int64)
    dids = np.repeat(np.asarray(doc_ids, dtype=np.int64), n_bands)
    return pa.table({"key": pa.array(keys, _I64), "id": pa.array(dids, _I64)})


def _minhash_postings(
    shingled: ray.data.Dataset, *, num_perm: int, rows_per_band: int, seed: int
) -> ray.data.Dataset:
    """MinHash banding: ``(doc_id, shingles)`` → ``(key, id)`` band
    postings (:func:`_band_keys`).

    Docs with ZERO shingles are skipped: they cannot reach any positive
    Jaccard (the SQL oracle's NULL shingles likewise never match), and
    without the skip they would all share the identical sentinel
    signature and pile into one quadratic bucket."""

    def _bands(t: pa.Table) -> pa.Table:
        hs, offs = textstats.shingle_hashes_arrow(t["shingles"])
        keep = np.flatnonzero(np.diff(offs))
        sigs = textstats.minhash_from_hashes(
            hs, offs, num_perm=num_perm, seed=seed
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return _band_keys(sigs[keep], ids[keep], rows_per_band)

    return shingled.map_batches(_bands, batch_format="pyarrow", zero_copy_batch=True)


def minhash_candidate_pairs(
    shingled: ray.data.Dataset,
    *,
    num_perm: int = 128,
    rows_per_band: int = 2,
    seed: int = 7,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """LSH banding → distinct candidate (doc_a < doc_b) pairs: the band
    postings (:func:`_minhash_postings`) through the blocking core."""
    bands = _minhash_postings(
        shingled, num_perm=num_perm, rows_per_band=rows_per_band, seed=seed
    )
    return _co_posting_pairs(bands, max_bucket=max_bucket, label="minhash")


def _shingle_set(s: str | None) -> set:
    """A ``\\x1f``-joined shingle string back to its set."""
    return set(s.split("\x1f")) if s else set()


def _map_shingle_sets(
    pairs: ray.data.Dataset,
    shingled: ray.data.Dataset,
    cols: tuple[str, str],
    fn,
) -> ray.data.Dataset:
    """The candidate shingle-set fetch: ``fn(t, sh_a, sh_b)`` over every
    batch ``t`` of ``pairs`` whose two ``cols`` ids are both docs of
    ``shingled``, with ``sh_a``/``sh_b`` the parallel serialized shingle
    sets of those ids (one ``\\x1f``-joined string per doc — hash joins
    don't take list-typed payload columns, and shingles are \\S+ tokens
    + spaces, never ``\\x1f``; :func:`_shingle_set` splits one). ``fn``
    returns the output table; ``t`` may carry extra columns.

    A pair set of at most ``BROADCAST_THRESHOLD_ROWS`` rows takes the
    driver-side path: the candidate doc-id set is broadcast, the corpus
    filters to those docs before serializing, and their shingle strings
    broadcast once as an id-sorted LUT that one stateless map probes —
    zero joins, zero actor pools, only candidate docs ever move. Above
    it, the serialized shingle table is hash-joined onto both ends
    (``join_auto``: broadcast or shuffle per side size) — no driver
    collect."""
    a, b = cols
    pairs = pairs.materialize()

    if pairs.count() > BROADCAST_THRESHOLD_ROWS:
        def _ser(t: pa.Table, col: str, sh: str) -> pa.Table:
            return pa.table(
                {col: t["doc_id"], sh: pc.binary_join(t["shingles"], "\x1f")}
            )

        j = pairs
        for col, sh in ((a, "sh_a"), (b, "sh_b")):
            side = shingled.map_batches(
                lambda t, col=col, sh=sh: _ser(t, col, sh),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            j = join_auto(j, side, on=(col,))
        return j.map_batches(
            lambda t: fn(t, t["sh_a"].to_pylist(), t["sh_b"].to_pylist()),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    ptbl = dataset_to_table(pairs)
    want = _share(
        np.unique(
            np.concatenate(
                [
                    ptbl[a].to_numpy(zero_copy_only=False),
                    ptbl[b].to_numpy(zero_copy_only=False),
                ]
            )
        )
        if ptbl.num_rows
        else np.empty(0, dtype=np.int64)
    )

    def _candidate_docs(t: pa.Table) -> pa.Table:
        keep = np.isin(t["doc_id"].to_numpy(zero_copy_only=False), want())
        f = t.filter(pa.array(keep))
        return pa.table(
            {"doc_id": f["doc_id"], "sh": pc.binary_join(f["shingles"], "\x1f")}
        )

    red = dataset_to_table(
        shingled.map_batches(
            _candidate_docs, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    )
    lut_ids = red["doc_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(lut_ids)
    lut = _share(
        (lut_ids[order], np.asarray(red["sh"].to_pylist(), dtype=object)[order])
    )

    def _probe(t: pa.Table) -> pa.Table:
        sids, sh = lut()
        x = t[a].to_numpy(zero_copy_only=False)
        y = t[b].to_numpy(zero_copy_only=False)
        ix = np.clip(np.searchsorted(sids, x), 0, max(len(sids) - 1, 0))
        iy = np.clip(np.searchsorted(sids, y), 0, max(len(sids) - 1, 0))
        if len(sids):  # a pair id missing from the corpus has no set
            ok = np.flatnonzero((sids[ix] == x) & (sids[iy] == y))
        else:
            ok = np.empty(0, dtype=np.int64)
        return fn(t.take(ok), sh[ix[ok]], sh[iy[ok]])

    return pairs.map_batches(_probe, batch_format="pyarrow", zero_copy_batch=True)


def verify_jaccard_pairs(
    pairs: ray.data.Dataset,
    shingled: ray.data.Dataset,
    *,
    threshold: float,
) -> ray.data.Dataset:
    """Exact set-Jaccard verification of candidate pairs (J = |∩|/|∪|):
    the candidate docs' string shingle sets (:func:`_map_shingle_sets`)
    and one set test per pair."""

    def _jaccard(t: pa.Table, sh_a, sh_b) -> pa.Table:
        keep = []
        for sa, sb in zip(sh_a, sh_b):
            A, B = _shingle_set(sa), _shingle_set(sb)
            union = len(A | B)
            keep.append(bool(union) and len(A & B) / union >= threshold)
        return t.filter(pa.array(keep, pa.bool_())).select(["doc_a", "doc_b"])

    return _map_shingle_sets(pairs, shingled, ("doc_a", "doc_b"), _jaccard)


def minhash_dedup_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    k: int = 3,
    num_perm: int = 128,
    rows_per_band: int = 2,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """Full near-dup pipeline: shingle → MinHash → LSH bucket groupby →
    exact n-gram-Jaccard verify → (doc_a, doc_b) pairs with J ≥ threshold.

    At 128 perms / 2-row bands the probability of missing a pair AT the 0.5
    threshold is (1 - 0.5²)^64 ≈ 1e-8, vanishing further above it — the
    verified output equals the exact all-pairs answer for any corpus whose
    near-dup pairs sit above the threshold (the driver corpus' pairs are
    all ≥ 0.8).
    """
    shingled = shingle_docs(docs, k=k).materialize()
    cand = minhash_candidate_pairs(
        shingled,
        num_perm=num_perm,
        rows_per_band=rows_per_band,
        max_bucket=max_bucket,
    )
    return verify_jaccard_pairs(cand, shingled, threshold=threshold)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard similarity join (inverted-index decomposition)
# ---------------------------------------------------------------------------


def _pair_intersection_counts(
    shingled: ray.data.Dataset,
    *,
    max_posting: int | None,
    label: str,
) -> ray.data.Dataset:
    """Shared prelude of the exact inverted-index similarity joins
    (:func:`ngram_jaccard_pairs`, :func:`containment_pairs`): shingle
    sets → ``(shingle_hash, doc_id)`` postings → the blocking core's
    per-pair counts ``c`` = |A ∩ B| → ``(doc_a, doc_b, c, n_a, n_b)``
    with each end's TRUE shingle-set size. Only 16-byte int rows ever
    shuffle; hash collisions (2⁻⁶⁴) can only ADD to ``c``, so any
    filter on ``c`` keeps a superset of the true qualifying pairs —
    callers re-verify survivors against the exact string shingle sets.

    The sizes broadcast as an id-sorted LUT when the corpus has at most
    ``BROADCAST_THRESHOLD_ROWS`` docs, else join onto both ends through
    ``join_auto`` — never a driver collect at catalog scale."""

    def _postings(t: pa.Table) -> pa.Table:
        hs, offs = textstats.shingle_hashes_arrow(t["shingles"])
        ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), np.diff(offs))
        return pa.table(
            {"key": pa.array(hs.view(np.int64), _I64), "id": pa.array(ids, _I64)}
        )

    counts = _co_posting_pairs(
        shingled.map_batches(_postings, batch_format="pyarrow", zero_copy_batch=True),
        count=True,
        max_bucket=max_posting,
        label=label,
    )

    sz = shingled.select_columns(["doc_id", "n_shingles"])
    if sz.count() > BROADCAST_THRESHOLD_ROWS:
        for end in ("a", "b"):
            counts = join_auto(
                counts,
                sz.map_batches(
                    lambda t, e=end: t.rename_columns([f"doc_{e}", f"n_{e}"]),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                ),
                on=(f"doc_{end}",),
            )
        return counts

    tbl = dataset_to_table(sz)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    sizes = _share(
        (ids[order], tbl["n_shingles"].to_numpy(zero_copy_only=False)[order])
    )

    def _sizes(t: pa.Table) -> pa.Table:
        ids, ns = sizes()
        for end in ("a", "b"):
            pos = np.searchsorted(ids, t[f"doc_{end}"].to_numpy(zero_copy_only=False))
            t = t.append_column(f"n_{end}", pa.array(ns[pos], _I64))
        return t

    return counts.map_batches(_sizes, batch_format="pyarrow", zero_copy_batch=True)


def ngram_jaccard_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    k: int = 3,
    max_posting: int | None = None,
) -> ray.data.Dataset:
    """EXACT all-pairs n-gram Jaccard join → (doc_a, doc_b) with J ≥ t.

    Unlike :func:`minhash_dedup_pairs` (probabilistic recall), this is the
    exact similarity join via the classic inverted-index decomposition —
    never all-pairs over the corpus:

    1. shingle each doc (word k-grams, distinct);
    2. explode to (shingle_hash:int64, doc_id) postings — 16 bytes/row
       through the shuffle, never the shingle strings;
    3. bucket-shuffle by shingle hash; per posting list emit co-occurring
       (doc_a < doc_b) pairs (J > 0 ⇔ the docs share ≥ 1 shingle, so
       recall is exact);
    4. second bucket-shuffle by doc_a sums per-pair counts = |A ∩ B|
       (estimated via 64-bit hashes);
    5. J = c / (n_a + n_b − c) with TRUE per-doc shingle counts joined in;
    6. survivors re-verified against the exact string shingle sets
       (:func:`verify_jaccard_pairs`), so a 2⁻⁶⁴ hash collision can only
       cost a spurious candidate (removed), never a wrong survivor.

    Steps 2–5 are :func:`_pair_intersection_counts`.

    Skew: a stop-shingle shared by millions of docs makes one posting list
    quadratic — ``max_posting`` bounds it with LOGGED truncation (an
    ultra-frequent shingle carries almost no similarity signal); default
    is exact, oversized lists are warned via BUCKET_WARN.
    """
    shingled = shingle_docs(docs, k=k).materialize()
    counts = _pair_intersection_counts(
        shingled, max_posting=max_posting, label="jaccard"
    )

    def _jfilter(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        union = (
            t["n_a"].to_numpy(zero_copy_only=False)
            + t["n_b"].to_numpy(zero_copy_only=False)
            - c
        )
        keep = (union > 0) & (c >= threshold * union)
        return t.filter(pa.array(keep)).select(["doc_a", "doc_b"])

    cand = counts.map_batches(_jfilter, batch_format="pyarrow", zero_copy_batch=True)
    return verify_jaccard_pairs(cand, shingled, threshold=threshold)


def containment_pairs(
    docs: ray.data.Dataset,
    *,
    threshold_num: int = 4,
    threshold_den: int = 5,
    k: int = 3,
    max_posting: int | None = None,
) -> ray.data.Dataset:
    """EXACT directed n-gram CONTAINMENT join → ``(doc_sub, doc_sup,
    inter, n_sub)`` where ``|sub ∩ sup| / |sub| ≥ num/den`` (default
    0.8) and sub ≠ sup.

    The asymmetric near-dup Jaccard misses: a short doc embedded in a
    long one (quote, excerpt, boilerplate wrapper, truncated re-crawl)
    has HIGH containment but LOW Jaccard because the union is dominated
    by the long side — the standard sub/superset-duplicate detector in
    LLM-corpus curation, run next to the symmetric Jaccard join.

    Same inverted-index decomposition as :func:`ngram_jaccard_pairs`
    (shared :func:`_pair_intersection_counts` core — int postings, no
    all-pairs); each undirected candidate then fans out to the
    directions whose side passes the EXACT integer cross-multiplication
    ``den·c ≥ num·n_sub`` (float-free, mirrors the SQL oracle), and
    survivors are re-verified against the exact string shingle sets
    (:func:`_map_shingle_sets`, the fetch :func:`verify_jaccard_pairs`
    uses) so 64-bit hash collisions can only cost a discarded
    candidate, never a wrong pair."""
    shingled = shingle_docs(docs, k=k).materialize()
    counts = _pair_intersection_counts(
        shingled, max_posting=max_posting, label="containment"
    )

    def _directed(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False)
        b = t["doc_b"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        na = t["n_a"].to_numpy(zero_copy_only=False)
        nb = t["n_b"].to_numpy(zero_copy_only=False)
        ka = (threshold_den * c >= threshold_num * na) & (na > 0)
        kb = (threshold_den * c >= threshold_num * nb) & (nb > 0)
        return pa.table(
            {
                "doc_sub": pa.array(np.concatenate([a[ka], b[kb]]), _I64),
                "doc_sup": pa.array(np.concatenate([b[ka], a[kb]]), _I64),
            }
        )

    cand = counts.map_batches(_directed, batch_format="pyarrow", zero_copy_batch=True)

    def _contained(t: pa.Table, sh_sub, sh_sup) -> pa.Table:
        keep, inter, n_sub = [], [], []
        for s, p in zip(sh_sub, sh_sup):
            A, B = _shingle_set(s), _shingle_set(p)
            c = len(A & B)
            ok = bool(A) and threshold_den * c >= threshold_num * len(A)
            keep.append(ok)
            if ok:
                inter.append(c)
                n_sub.append(len(A))
        f = t.filter(pa.array(keep, pa.bool_()))
        return pa.table(
            {
                "doc_sub": f["doc_sub"],
                "doc_sup": f["doc_sup"],
                "inter": pa.array(inter, _I64),
                "n_sub": pa.array(n_sub, _I64),
            }
        )

    return _map_shingle_sets(
        cand, shingled, ("doc_sub", "doc_sup"), _contained
    ).sort(["doc_sub", "doc_sup"])


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_fingerprints(docs: ray.data.Dataset) -> ray.data.Dataset:
    def _sh(t: pa.Table) -> pa.Table:
        sig = textstats.simhash64(t["text"].to_pylist())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "simhash": pa.array(sig.astype(np.int64), pa.int64()),
            }
        )

    return docs.map_batches(_sh, batch_format="pyarrow", zero_copy_batch=True)


def simhash_dedup(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Keep-first per identical 64-bit SimHash → (doc_id, n_dups)."""
    fp = simhash_fingerprints(docs)
    agg = fp.groupby("simhash").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "n_dups": pc.cast(t["n_dups"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def simhash_near_pairs(
    docs: ray.data.Dataset, *, max_hamming: int = 3, max_bucket: int | None = None
) -> ray.data.Dataset:
    """Near-dup (doc_a, doc_b, hamming) pairs with hamming ≤ max_hamming.

    Blocking: 4 × 16-bit bands — any pair within hamming ≤ 3 matches on at
    least one band (pigeonhole), so candidate generation is exact. Each
    reducer sorts its distinct ``(band_key, doc_id, simhash)`` rows and
    pairs every band-equal list in one pass (:func:`_group_pairs`); the
    pairs are verified by true popcount.
    """
    fp = simhash_fingerprints(docs)

    def _bands(t: pa.Table) -> pa.Table:
        # int64 band keys (band_idx << 16 | 16-bit slice), fully vectorized
        sim = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keys = np.concatenate(
            [
                (
                    ((sim >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                        np.int64
                    )
                    | (b << 16)
                )
                for b in range(4)
            ]
        )
        return pa.table(
            {
                "band_key": pa.array(keys, pa.int64()),
                "doc_id": pa.array(np.tile(ids, 4), pa.int64()),
                "simhash": pa.array(
                    np.tile(sim, 4).view(np.int64), pa.int64()
                ),
            }
        )

    bands = fp.map_batches(_bands, batch_format="pyarrow", zero_copy_batch=True)

    def _pairs_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        a, b, hd = ([np.empty(0, np.int64)] for _ in range(3))
        if t.num_rows:
            df = (
                pl.from_arrow(t.select(["band_key", "doc_id", "simhash"]))
                .unique()
                .sort(["band_key", "doc_id", "simhash"])
            )
            ids = df["doc_id"].to_numpy()
            sims = df["simhash"].to_numpy().view(np.uint64)
            for i, j in _group_pairs(
                df["band_key"].to_numpy(), max_bucket=max_bucket,
                label="simhash",
            ):
                h = textstats.hamming64(sims[i], sims[j])
                keep = (h <= max_hamming) & (ids[i] != ids[j])
                a.append(ids[i][keep])
                b.append(ids[j][keep])
                hd.append(h[keep].astype(np.int64))
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(a), pa.int64()),
                "doc_b": pa.array(np.concatenate(b), pa.int64()),
                "hamming": pa.array(np.concatenate(hd), pa.int64()),
            }
        )

    cand = bucket_group_apply(bands, "band_key", _pairs_bucket)

    def _min_h(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by(["doc_a", "doc_b"])
            .agg(pl.col("hamming").min())
            .to_arrow()
            .cast(
                pa.schema(
                    [("doc_a", pa.int64()), ("doc_b", pa.int64()),
                     ("hamming", pa.int64())]
                )
            )
        )

    return bucket_group_apply(cand, "doc_a", _min_h)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def _normalized_matrix(emb: ray.data.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (vec_ids, L2-normalized float64 matrix) — broadcast side."""
    t = dataset_to_table(emb.select_columns(["vec_id", "embedding"]))
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, m / norms


def embedding_dup_pairs(
    emb: ray.data.Dataset, *, threshold: float = 0.8
) -> ray.data.Dataset:
    """Exact brute-force cosine near-dup: (vec_a < vec_b, cos ≥ threshold).

    The right side is broadcast once (``ray.put``); each batch does one
    float64 matmul against it — the documented exact baseline. For corpora
    whose normalized matrix exceeds worker memory use
    :func:`embedding_dup_pairs_lsh`.
    """
    emb = emb.materialize()
    matrix = _share(_normalized_matrix(emb))

    def _scan(t: pa.Table) -> pa.Table:
        rids, rmat = matrix()
        q = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        q = q / qn
        qids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        scores = q @ rmat.T  # (B, N)
        bi, ni = np.nonzero(scores >= threshold)
        a, b = qids[bi], rids[ni]
        keep = a < b  # dedup + self-pair removal
        return pa.table(
            {
                "vec_a": pa.array(a[keep], pa.int64()),
                "vec_b": pa.array(b[keep], pa.int64()),
            }
        )

    return emb.map_batches(_scan, batch_format="pyarrow", zero_copy_batch=True)


def embedding_dup_pairs_lsh(
    emb: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    n_planes: int = 6,
    n_tables: int = 32,
    seed: int = 11,
    num_buckets: int = 64,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """Scale path: multi-table random-hyperplane LSH candidate generation +
    exact-cosine verification via joins. Approximate (a pair missed by all
    ``n_tables`` tables is lost) — hence rows-only in the driver contract.

    Dataflow (never ships the embedding matrix through the LSH shuffle):

    1. map: per table ``l``, bucket key = ``l·2^b + bits`` from that
       table's ``b = n_planes`` hyperplanes → (bucket, vec_id) INT
       postings;
    2. the blocking core (:func:`_co_posting_pairs`) → distinct candidate
       pairs (a pair can collide in many tables), exact pair-gen with
       logged/capped oversized buckets;
    3. verify: join each side's embedding (serialized float64 bytes — hash
       joins don't take list columns) and keep exact cosine ≥ threshold.

    Recall = 1 − (1 − p^b)^L with p = 1 − θ/π: defaults (b=6, L=32) give
    ≈0.92 at cos 0.45 and ≈0.999 at cos 0.8; raise ``n_planes`` at high
    thresholds to prune harder.

    EXACT end to end since r4: hyperplanes are md5-derived ±1 sign
    vectors (the embed_rp construction — signed random projection is
    the classic SimHash hyperplane family), coordinates quantize once to
    int64 (``floor(x·1000 + 0.5)``), so every signature bit is the sign
    of an INTEGER dot product, and the cosine verification is the
    cross-multiplied integer rule ``den²·dot² ≥ num²·‖a‖²‖b‖²`` (with
    threshold as an exact fraction) — no float anywhere a reduction
    order or a boundary ulp could flip, which is what makes the driver
    oracle replay the candidate set AND the verification exactly.
    """
    from fractions import Fraction

    from ..schema import md5_60

    QUANT = 1000
    frac = Fraction(str(threshold))
    t_num, t_den = frac.numerator, frac.denominator

    def _sig(t: pa.Table) -> pa.Table:
        q = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        nrows = len(t)
        if not nrows:
            return pa.table({"key": pa.array([], _I64), "id": pa.array([], _I64)})
        dim = q.shape[1]
        cols = n_planes * n_tables
        signs = 1 - 2 * (
            md5_60(
                [
                    f"{seed}:{c}:{d}"
                    for d in range(dim)
                    for c in range(cols)
                ]
            )
            % 2
        )
        planes = signs.reshape(dim, cols).astype(np.int64)
        qi = np.floor(q * QUANT + 0.5).astype(np.int64)
        bits = (qi @ planes) > 0  # (n, b*L) — integer dot, exact sign
        bits = bits.reshape(nrows, n_tables, n_planes)
        keys = (bits * (1 << np.arange(n_planes))).sum(axis=2)  # (n, L)
        keys = keys + (np.arange(n_tables) << n_planes)[None, :]
        ids = np.repeat(
            np.asarray(t["vec_id"].to_pylist(), dtype=np.int64), n_tables
        )
        return pa.table(
            {"key": pa.array(keys.reshape(-1), _I64), "id": pa.array(ids, _I64)}
        )

    cand = _co_posting_pairs(
        emb.map_batches(_sig, batch_format="pyarrow", zero_copy_batch=True),
        cols=("vec_a", "vec_b"),
        max_bucket=max_bucket,
        label="emb-lsh",
        num_buckets=num_buckets,
    )

    def _ser(t: pa.Table, side: str) -> pa.Table:
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        mi = np.floor(m * QUANT + 0.5).astype(np.int64)
        return pa.table(
            {
                f"vec_{side}": t["vec_id"],
                f"e_{side}": pa.array(
                    [row.tobytes() for row in mi], pa.binary()
                ),
            }
        )

    e_a = emb.map_batches(
        lambda t: _ser(t, "a"), batch_format="pyarrow", zero_copy_batch=True
    )
    e_b = emb.map_batches(
        lambda t: _ser(t, "b"), batch_format="pyarrow", zero_copy_batch=True
    )
    j = join_auto(cand, e_a, on=("vec_a",))
    j = join_auto(j, e_b, on=("vec_b",))

    def _verify(t: pa.Table) -> pa.Table:
        if not len(t):
            return pa.table(
                {"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64())}
            )
        ea = np.frombuffer(b"".join(t["e_a"].to_pylist()), dtype=np.int64)
        eb = np.frombuffer(b"".join(t["e_b"].to_pylist()), dtype=np.int64)
        ea = ea.reshape(len(t), -1)
        eb = eb.reshape(len(t), -1)
        # cos ≥ num/den ⟺ dot ≥ 0 ∧ den²·dot² ≥ num²·‖a‖²‖b‖² — int64
        # at QUANT=1000 for the DEFAULT thresholds (dot ≤ 64·530² ≈
        # 1.8e7; den²·dot² ≲ 1.3e17), but threshold is a public float
        # knob and a fine-grained Fraction denominator (e.g. 0.405 →
        # den=200 → 4e4·(1.8e7)² > 2⁶³) silently WRAPS int64 and flips
        # verdicts — promote to Python big ints whenever the worst case
        # of either side doesn't provably fit (ADVICE r4 medium)
        dot = np.einsum("ij,ij->i", ea, eb)
        na = np.einsum("ij,ij->i", ea, ea)
        nb = np.einsum("ij,ij->i", eb, eb)
        lhs_max = t_den * t_den * int(np.abs(dot).max(initial=0)) ** 2
        rhs_max = t_num * t_num * int(na.max(initial=0)) * int(
            nb.max(initial=0)
        )
        if max(lhs_max, rhs_max) < 2**63:
            bound_ok = t_den * t_den * dot * dot >= t_num * t_num * na * nb
        else:
            do, nao, nbo = (
                x.astype(object) for x in (dot, na, nb)
            )  # elementwise Python-int arithmetic: exact, no wrap
            bound_ok = (
                (t_den * t_den * do * do >= t_num * t_num * nao * nbo)
                .astype(bool)
            )
        keep = pa.array((na > 0) & (nb > 0) & (dot >= 0) & bound_ok)
        out = t.filter(keep)
        return pa.table({"vec_a": out["vec_a"], "vec_b": out["vec_b"]})

    return j.map_batches(_verify, batch_format="pyarrow", zero_copy_batch=True)


def _pair_graph_labels(
    pairs: ray.data.Dataset, pair_cols: tuple[str, str]
) -> ray.data.Dataset | None:
    """``(node, label)`` connected components of the pair graph (nodes =
    ids in some pair), or None for an empty pair set — an empty edge
    Dataset would materialize as 0-column blocks downstream."""
    from .canonical import connected_components

    a, b = pair_cols
    pairs = pairs.materialize()  # consumed twice: count guard + edges
    if pairs.count() == 0:
        return None
    return connected_components(
        pairs.map_batches(
            lambda t: pa.table({"src": t[a], "dst": t[b]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def dedup_apply(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    pair_cols: tuple[str, str] = ("doc_a", "doc_b"),
    num_buckets: int = 32,
    broadcast_threshold: int = BROADCAST_THRESHOLD_ROWS,
) -> ray.data.Dataset:
    """Materialize the DEDUPLICATED corpus from a near-dup pair set — the
    step a training-data pipeline actually consumes: connected components
    over the pair graph (transitive closure: a~b, b~c ⇒ one cluster),
    survivor = min id per component, everything else dropped.

    Scale shape: CC runs only on the pair graph (nodes = docs that appear
    in ANY pair — a small fraction of the corpus); the drop set is
    ``members - survivors``, broadcast to a stateless filter when small
    (the common case), else removed with a co-bucketed hash anti-join —
    the corpus itself never shuffles in either path.
    """
    labels = _pair_graph_labels(pairs, pair_cols)
    if labels is None:  # clean corpus: nothing to merge, nothing to drop
        return docs
    dropped = labels.filter(expr="node != label").select_columns(["node"])

    if dropped.count() <= broadcast_threshold:
        drop = _share(dataset_to_table(dropped)["node"].combine_chunks())

        def _filter(t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(pc.is_in(t[id_col].combine_chunks(), value_set=drop()))
            )

        return docs.map_batches(
            _filter, batch_format="pyarrow", zero_copy_batch=True
        )

    # catalog-scale drop set: co-bucketed anti-join, corpus never sorted
    import polars as pl

    from ..functions.shuffle import cobucket_apply

    def _anti(dt: pa.Table, rt: pa.Table) -> pa.Table:
        ddf = pl.from_arrow(dt)
        rdf = pl.from_arrow(rt).rename({"node": id_col})
        return ddf.join(rdf, on=id_col, how="anti").to_arrow().cast(dt.schema)

    return cobucket_apply(
        docs,
        dropped,
        lambda t: t[id_col].combine_chunks(),
        lambda t: t["node"].combine_chunks(),
        _anti,
        num_buckets=num_buckets,
    )


# --- fuzzy (edit-distance) matching -----------------------------------------


def _dist_le1(a: str, b: str) -> int | None:
    """Exact Levenshtein distance IF ≤ 1 else None — O(len), no DP table
    (the bounded-distance check a verify pass needs; SQL mirror is
    ``levenshtein(a,b) <= 1``)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    d = la - lb
    if d > 1 or d < -1:
        return None
    if d == 0:  # one substitution?
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return None
                seen = True
        return 1
    if d > 0:  # make a the shorter
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def fuzzy_match_pairs(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    col: str,
    num_buckets: int = 32,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """Edit-distance ≤ 1 similarity SELF-join → (id_a, id_b, dist) with
    id_a < id_b — the fuzzy alias/entity matcher (typo'd surface forms,
    OCR slips) a KG-construction pipeline runs over its surface
    dictionary. SQL mirror: ``levenshtein(a, b) <= 1`` over a self-join.

    SymSpell deletion-neighborhood decomposition — never all-pairs:

    1. each string emits itself + every 1-deletion variant as an int64
       hash posting (key, id) — strings never enter the shuffle;
    2. bucket by key; co-posted ids become candidate pairs (complete for
       d ≤ 1: equal strings share themselves; ins/del pairs share the
       shorter string; substitution pairs share the deletion at the
       differing position);
    3. pairs dedup on a second int-keyed shuffle (a pair can share
       several variants) — steps 2–3 are the blocking core
       (:func:`_co_posting_pairs`);
    4. names join back via ``join_auto`` (broadcast small / co-bucketed
       big) and an exact O(len) bounded-distance check keeps true pairs —
       a hash collision can only add a candidate, never a survivor.

    Skew: a hub variant shared by g strings emits g²/2 candidates;
    ``max_bucket`` bounds it with LOGGED truncation (default exact)."""
    from ..schema import stable_hash64

    names = ds.select_columns([id_col, col]).materialize()

    def _postings(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        strs = t[col].to_pylist()
        out_s, out_i = [], []
        for i, s in zip(ids, strs):
            vs = {s}
            for j in range(len(s)):
                vs.add(s[:j] + s[j + 1 :])
            out_s.extend(vs)
            out_i.extend([i] * len(vs))
        keys = stable_hash64(np.asarray(out_s, dtype=object)).view(np.int64)
        ids = np.asarray(out_i, dtype=np.int64)
        return pa.table({"key": pa.array(keys, _I64), "id": pa.array(ids, _I64)})

    cand = _co_posting_pairs(
        names.map_batches(_postings, batch_format="pyarrow", zero_copy_batch=True),
        cols=("id_a", "id_b"),
        max_bucket=max_bucket,
        label="fuzzy",
        num_buckets=num_buckets,
    )

    # join_auto renames the right key onto the left key, so each join
    # contributes exactly one extra column: the name
    with_a = join_auto(
        cand, names, on=("id_a",), right_on=(id_col,), num_partitions=num_buckets
    ).map_batches(
        lambda t: t.rename_columns(
            ["name_a" if c == col else c for c in t.schema.names]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    with_b = join_auto(
        with_a, names, on=("id_b",), right_on=(id_col,), num_partitions=num_buckets
    )

    def _verify(t: pa.Table) -> pa.Table:
        ida = t["id_a"].to_pylist()
        idb = t["id_b"].to_pylist()
        na = t["name_a"].to_pylist()
        nb = t[col].to_pylist()
        oa, ob, od = [], [], []
        for i, j, x, y in zip(ida, idb, na, nb):
            d = _dist_le1(x, y)
            if d is not None:
                oa.append(i)
                ob.append(j)
                od.append(d)
        return pa.table(
            {
                "id_a": pa.array(oa, pa.int64()),
                "id_b": pa.array(ob, pa.int64()),
                "dist": pa.array(od, pa.int64()),
            }
        )

    return with_b.map_batches(
        _verify, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# incremental (cross-corpus) near-dup join
# ---------------------------------------------------------------------------


def minhash_cross_pairs(
    old_docs: ray.data.Dataset,
    new_docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    k: int = 3,
    num_perm: int = 128,
    rows_per_band: int = 2,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """Incremental dedup: near-dups of NEW docs against the OLD corpus —
    ``(doc_a, doc_b)`` with ``doc_a`` old, ``doc_b`` new, exact-Jaccard
    verified at ``threshold``. Old–old and new–new pairs are NEVER
    generated: the per-band pair space is g_old × g_new, not C(g, 2) —
    the production shape of continuous ingestion, where the old corpus'
    band keys are the standing index and each arriving shard only joins
    buckets against it (never re-pairs history with itself).

    Doc ids must be globally unique across the two sides (same contract
    as any cross-corpus key join)."""
    import polars as pl

    def _side(shingled: ray.data.Dataset, side: int) -> ray.data.Dataset:
        return _minhash_postings(
            shingled,
            num_perm=num_perm,
            rows_per_band=rows_per_band,
            seed=7,
        ).map_batches(
            lambda t: t.append_column("side", pa.repeat(side, t.num_rows)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def _cross_bucket(t: pa.Table) -> pa.Table:
        grp = (
            pl.from_arrow(t)
            .unique()
            .group_by("key")
            .agg(
                pl.col("id").filter(pl.col("side") == 0).alias("old"),
                pl.col("id").filter(pl.col("side") == 1).alias("new"),
            )
            .filter((pl.col("old").list.len() > 0) & (pl.col("new").list.len() > 0))
        )
        a, b = [], []
        for olds, news in zip(grp["old"].to_list(), grp["new"].to_list()):
            o = np.unique(np.asarray(olds, dtype=np.int64))
            n = np.unique(np.asarray(news, dtype=np.int64))
            if max_bucket and len(o) * len(n) > max_bucket:
                log.warning(
                    "cross bucket truncated: %d x %d > max_bucket=%d",
                    len(o), len(n), max_bucket,
                )
                o = o[: max(1, max_bucket // max(len(n), 1))]
            a.append(np.repeat(o, len(n)))
            b.append(np.tile(n, len(o)))
        a = np.concatenate(a) if a else np.empty(0, dtype=np.int64)
        b = np.concatenate(b) if b else np.empty(0, dtype=np.int64)
        return pa.table({"doc_a": pa.array(a, _I64), "doc_b": pa.array(b, _I64)})

    sh_old, sh_new = (
        shingle_docs(d, k=k).materialize() for d in (old_docs, new_docs)
    )
    bands = _side(sh_old, 0).union(_side(sh_new, 1))
    cand = _distinct_pairs(
        bucket_group_apply(bands, "key", _cross_bucket), ("doc_a", "doc_b")
    )
    return verify_jaccard_pairs(
        cand, sh_old.union(sh_new), threshold=threshold
    )


CLUSTER_SIZES = pa.schema(
    [("cluster_size", pa.int64()), ("n_clusters", pa.int64())]
)


def dedup_cluster_sizes(
    pairs: ray.data.Dataset,
    *,
    pair_cols: tuple[str, str] = ("doc_a", "doc_b"),
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Near-dup cluster-size histogram: ``(cluster_size, n_clusters)``
    over the connected components of the pair graph — the curation
    diagnostic that distinguishes "dedup is trimming isolated pairs"
    from "one boilerplate template collapsed half the crawl" (the giant
    clusters are where aggressive keep-one dedup silently deletes
    coverage, so they get eyeballed before `dedup_apply` runs).

    Scale shape: CC runs on the pair graph only (nodes = docs appearing
    in ≥1 pair); sizes are one label-bucketed count shuffle over the
    (node, label) int64 table — each label lands in exactly one bucket,
    so per-label counts are final, not partial — and the histogram is a
    second tiny shuffle over the distinct sizes. The corpus itself is
    never read, let alone shuffled.
    """
    import polars as pl

    labels = _pair_graph_labels(pairs, pair_cols)
    if labels is None:
        return ray.data.from_arrow(CLUSTER_SIZES.empty_table())
    labels = labels.select_columns(["label"])

    def _sizes(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("label")
            .agg(pl.len().cast(pl.Int64).alias("cluster_size"))
            .to_arrow()
        )

    sizes = bucket_group_apply(labels, "label", _sizes, num_buckets=num_buckets)

    def _hist(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("cluster_size")
            .agg(pl.len().cast(pl.Int64).alias("n_clusters"))
            .select(["cluster_size", "n_clusters"])
            .to_arrow()
            .cast(CLUSTER_SIZES)
        )

    return bucket_group_apply(
        sizes.select_columns(["cluster_size"]),
        "cluster_size",
        _hist,
        num_buckets=4,
    )


def minhash_blocking_stats(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    k: int = 3,
    num_perm: int = 128,
    rows_per_band: int = 2,
    max_bucket: int | None = None,
) -> ray.data.Dataset:
    """Blocking-quality report for the MinHash+LSH pipeline — the two
    numbers every entity-resolution / dedup deployment tunes against,
    as ONE exact-integer row:

    - ``reduction_ppm``: candidate pairs as ppm of all n·(n-1)/2
      pairs — how much work LSH saved vs the quadratic join (lower is
      better; the blocking literature's reduction ratio);
    - ``precision_ppm``: verified pairs as ppm of candidates — how
      much of the shuffled candidate volume was real (higher is
      better; low precision means bands are too wide for the corpus).

    Pure reuse of the verified pipeline stages (`shingle_docs` →
    `minhash_candidate_pairs` → `verify_jaccard_pairs`); the three
    counts are streamed Dataset counts, nothing new materializes on
    the driver. Rows-only by design: the candidate set depends on the
    MinHash permutations, which have no SQL mirror (the VERIFIED set
    does — that is the dedup_minhash query)."""
    shingled = shingle_docs(docs, k=k).materialize()
    cand = minhash_candidate_pairs(
        shingled,
        num_perm=num_perm,
        rows_per_band=rows_per_band,
        max_bucket=max_bucket,
    ).materialize()
    verified = verify_jaccard_pairs(cand, shingled, threshold=threshold)
    n_docs = docs.count()
    n_cand = cand.count()
    n_ver = verified.count()
    total_pairs = n_docs * (n_docs - 1) // 2
    return ray.data.from_arrow(
        pa.table(
            {
                "n_docs": pa.array([n_docs], pa.int64()),
                "n_candidate_pairs": pa.array([n_cand], pa.int64()),
                "n_verified_pairs": pa.array([n_ver], pa.int64()),
                "reduction_ppm": pa.array(
                    [n_cand * 1_000_000 // total_pairs if total_pairs else 0],
                    pa.int64(),
                ),
                "precision_ppm": pa.array(
                    [n_ver * 1_000_000 // n_cand if n_cand else 0],
                    pa.int64(),
                ),
            }
        )
    )
