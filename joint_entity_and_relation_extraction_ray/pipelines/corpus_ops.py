"""Training-data corpus operators over the driver's `documents` and
`embeddings` parquet tables (driver brief: dedup / similarity search /
text analysis / multimodal — first-class alongside the KG pipeline).

Each public ``q_*`` takes an ``sf_dir`` and returns a lazy
``ray.data.Dataset``; `__ray_entry__.queries()` exposes them and (where
SQL-expressible) `oracle_sql()` carries the DuckDB equivalent.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions import textstats
from ..schema import md5_60, md5_hex
from ..stages import dedup, multimodal, similarity

N_ANN_QUERIES = 10
ANN_K = 5
# driver-corpus embeddings are not clustered (max pairwise cos ≈ 0.51);
# 0.45 keeps the oracle-checked result non-trivial at every sf
COSINE_DUP_THRESHOLD = 0.45
JACCARD_THRESHOLD = 0.5


def read_documents(
    sf_dir: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Column-pruned read: only the requested columns leave storage
    (default (doc_id, text))."""
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns or ["doc_id", "text"]
    )


def read_embeddings(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def read_embeddings_labeled(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )


# --- text analysis ---------------------------------------------------------


def q_doc_stats(sf_dir: str) -> ray.data.Dataset:
    return read_documents(sf_dir).map_batches(
        textstats.doc_stats, batch_format="pyarrow", zero_copy_batch=True
    )


def q_token_dispersion(sf_dir: str) -> ray.data.Dataset:
    """Per-term burstiness sufficient statistics (exact integers) — see
    `stages/curation.token_dispersion`."""
    from ..stages.curation import token_dispersion

    return token_dispersion(read_documents(sf_dir), min_occ=10)


def q_doc_entropy(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token Shannon entropy (hash-exact fixed-point ent_sum_e9
    + one deterministic float expression) — see
    `functions/textstats.token_entropy`."""
    return read_documents(sf_dir).map_batches(
        textstats.token_entropy, batch_format="pyarrow", zero_copy_batch=True
    )


def q_lang_id(sf_dir: str) -> ray.data.Dataset:
    return read_documents(sf_dir).map_batches(
        textstats.lang_id, batch_format="pyarrow", zero_copy_batch=True
    )


def q_doc_fingerprint(sf_dir: str) -> ray.data.Dataset:
    return read_documents(sf_dir).map_batches(
        textstats.fingerprint, batch_format="pyarrow", zero_copy_batch=True
    )


def q_doc_winnow(sf_dir: str) -> ray.data.Dataset:
    """Winnowing rolling-hash fingerprints, EXPLODED to one row per
    (doc_id, selected hash) — hash-exact against the SQL mirror of the
    md5-60-bit k-gram hash + min-per-window selection (see
    `functions/textstats.winnow`)."""

    def _explode(t: pa.Table) -> pa.Table:
        w = textstats.winnow_batch(t)
        import polars as pl

        return (
            pl.from_arrow(w).explode("winnow").rename({"winnow": "h"})
            .to_arrow()
        )

    return read_documents(sf_dir).map_batches(
        _explode, batch_format="pyarrow", zero_copy_batch=True
    )


def q_token_counts(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Corpus token frequencies, top-k (vocabulary building) — see
    `stages/curation.token_counts` for the combiner → bucket-merge shape."""
    from ..stages.curation import token_counts

    return token_counts(read_documents(sf_dir), k=k)


def q_token_topk_cms(sf_dir: str) -> ray.data.Dataset:
    """Heavy hitters via count-min sketch (rows-only: the candidate set
    is per-block-local by design; estimates are layout-independent and
    the ≥-true guarantee + exact-head recovery are pytest-pinned) — see
    `stages/curation.token_topk_approx`."""
    from ..stages.curation import token_topk_approx

    return token_topk_approx(read_documents(sf_dir), k=25)


POSTING_TERMS = ["hash", "join", "scan", "vector"]


def q_term_postings(sf_dir: str) -> ray.data.Dataset:
    """Inverted-index posting lists for a fixed query vocabulary — see
    `stages/curation.term_postings`."""
    from ..stages.curation import term_postings

    return term_postings(read_documents(sf_dir), POSTING_TERMS)


def q_embedding_dim_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-dimension min/max/count over the embedding corpus — see
    `stages/similarity.embedding_dim_stats`."""
    return similarity.embedding_dim_stats(read_embeddings(sf_dir))


def q_embed_cov_stats(sf_dir: str) -> ray.data.Dataset:
    """Exact int64 covariance sufficient statistics of the first 4
    embedding dims (one pass, dims² partials per block — the PCA scale
    path) — see `stages/similarity.embedding_cov_stats`."""
    return similarity.embedding_cov_stats(read_embeddings(sf_dir), dims=4)


def q_quality_filter(sf_dir: str) -> ray.data.Dataset:
    """Quality gate over integer doc statistics: keep docs with ≥5 tokens,
    max token length ≤40 and punctuation ≤10% of chars — the standard
    pretraining-corpus heuristic filter, integer-only so the oracle
    compare is float-free."""

    def _f(t: pa.Table) -> pa.Table:
        s = textstats.doc_stats(t)
        keep = pa.compute.and_(
            pa.compute.and_(
                pa.compute.greater_equal(s["n_tokens"], 5),
                pa.compute.less_equal(s["max_token_len"], 40),
            ),
            pa.compute.less_equal(
                pa.compute.multiply(s["n_punct"], 10), s["n_chars"]
            ),
        )
        return s.filter(keep).select(["doc_id", "n_tokens"])

    return read_documents(sf_dir).map_batches(
        _f, batch_format="pyarrow", zero_copy_batch=True
    )


# --- dedup -----------------------------------------------------------------


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    return dedup.exact_dedup(read_documents(sf_dir))


def q_dedup_minhash(sf_dir: str) -> ray.data.Dataset:
    return dedup.minhash_dedup_pairs(
        read_documents(sf_dir), threshold=JACCARD_THRESHOLD
    )


def q_dedup_minhash_apply(sf_dir: str) -> ray.data.Dataset:
    """The deduplicated corpus itself: MinHash near-dup pairs → connected
    components (transitive closure) → keep the min doc_id per cluster."""
    docs = read_documents(sf_dir)
    pairs = dedup.minhash_dedup_pairs(docs, threshold=JACCARD_THRESHOLD)
    return dedup.dedup_apply(docs.select_columns(["doc_id"]), pairs)


def q_dedup_cluster_sizes(sf_dir: str) -> ray.data.Dataset:
    """Near-dup cluster-size histogram over the MinHash pair graph —
    see `stages/dedup.dedup_cluster_sizes` (CC on the pair graph only;
    the corpus is never read)."""
    pairs = dedup.minhash_dedup_pairs(
        read_documents(sf_dir), threshold=JACCARD_THRESHOLD
    )
    return dedup.dedup_cluster_sizes(pairs)


def q_dedup_incremental(sf_dir: str) -> ray.data.Dataset:
    """Incremental near-dup join: near-dups of the 'arriving' shard (odd
    doc_ids) against the 'standing' corpus (even doc_ids) — old-old and
    new-new pairs never generated. See `stages/dedup.minhash_cross_pairs`."""
    docs = read_documents(sf_dir)

    def _parity(want: int):
        def _f(t: pa.Table) -> pa.Table:
            pc_ = pa.compute
            return t.filter(
                pc_.equal(pc_.bit_wise_and(t["doc_id"], 1), want)
            )

        return _f

    old = docs.map_batches(
        _parity(0), batch_format="pyarrow", zero_copy_batch=True
    )
    new = docs.map_batches(
        _parity(1), batch_format="pyarrow", zero_copy_batch=True
    )
    return dedup.minhash_cross_pairs(old, new, threshold=JACCARD_THRESHOLD)


def q_fuzzy_match(sf_dir: str) -> ray.data.Dataset:
    """Edit-distance ≤ 1 fuzzy self-match over customer names (SymSpell
    deletion-neighborhood decomposition — never all-pairs; the oracle IS
    the all-pairs ``levenshtein(a,b) <= 1`` self-join)."""
    names = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    return dedup.fuzzy_match_pairs(names, id_col="c_custkey", col="c_name")


def q_dedup_ngram_jaccard(sf_dir: str) -> ray.data.Dataset:
    """EXACT n-gram Jaccard similarity join (inverted-index decomposition,
    no MinHash approximation anywhere in the recall path)."""
    return dedup.ngram_jaccard_pairs(
        read_documents(sf_dir), threshold=JACCARD_THRESHOLD
    )


def q_dedup_containment(sf_dir: str) -> ray.data.Dataset:
    """EXACT directed n-gram containment join (|sub∩sup|/|sub| ≥ 0.8):
    the asymmetric sub/superset-duplicate detector Jaccard misses —
    excerpts, quotes, truncated re-crawls (`stages/dedup.py
    containment_pairs`, shared inverted-index core, integer-exact
    threshold, string-set re-verify)."""
    return dedup.containment_pairs(read_documents(sf_dir))


def q_dedup_simhash(sf_dir: str) -> ray.data.Dataset:
    return dedup.simhash_dedup(read_documents(sf_dir))


def q_dedup_simhash_near(sf_dir: str) -> ray.data.Dataset:
    """Hamming ≤ 3 near-dup pairs (rows-only: simhash not SQL-computable)."""
    return dedup.simhash_near_pairs(read_documents(sf_dir))


def q_dedup_embedding(sf_dir: str) -> ray.data.Dataset:
    return dedup.embedding_dup_pairs(
        read_embeddings(sf_dir), threshold=COSINE_DUP_THRESHOLD
    )


def q_dedup_embedding_lsh(sf_dir: str) -> ray.data.Dataset:
    """Approximate hyperplane-LSH variant — still approximate (cross-
    bucket pairs can be missed by construction) but oracle-backed since
    r4: md5-derived ±1 planes over int64-quantized coords plus the
    cross-multiplied integer cosine rule make the candidate set and the
    verification bit-reproducible."""
    return dedup.embedding_dup_pairs_lsh(
        read_embeddings(sf_dir), threshold=COSINE_DUP_THRESHOLD
    )


# --- similarity search -----------------------------------------------------


def _query_vectors(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return t.filter(pa.compute.less(t["vec_id"], N_ANN_QUERIES))


def q_ann_topk(sf_dir: str) -> ray.data.Dataset:
    return similarity.ann_topk(
        read_embeddings(sf_dir), _query_vectors(sf_dir), k=ANN_K
    )


def q_ann_recall(sf_dir: str) -> ray.data.Dataset:
    """Index-quality monitor: per-query recall@k of the IVF index vs the
    exact top-k, as pure integers (n_hits, k) — oracle-backed since r4
    (the IVF probe set IS SQL-computable now that sampling/seeding is
    md5-60); the nprobe=n_centroids ≡ exact invariant stays pinned in
    pytest."""
    return similarity.ann_recall(
        read_embeddings(sf_dir), _query_vectors(sf_dir), k=ANN_K
    )


def q_retrieval_fusion(sf_dir: str) -> ray.data.Dataset:
    """Reciprocal-rank fusion of the exact cosine and Euclidean
    rankings (hybrid retrieval's standard merge) — integer RRF points,
    top-10 fused per query (`stages/similarity.rrf_fusion`)."""
    return similarity.rrf_fusion(
        read_embeddings(sf_dir), _query_vectors(sf_dir)
    )


def q_knn_label(sf_dir: str) -> ray.data.Dataset:
    """kNN classification: majority label among each query's exact top-5
    cosine neighbors (max count, min label tiebreak)."""
    return similarity.knn_label(
        read_embeddings_labeled(sf_dir), _query_vectors(sf_dir), k=ANN_K
    )


def q_ann_topk_ivf(sf_dir: str) -> ray.data.Dataset:
    """IVF-probed approximate ANN — oracle-backed since r4: the md5-60
    sample/seed ordering makes centroids, buckets and probe sets
    SQL-computable, and the integer-only (query, neighbor, rank) output
    hashes exactly under stable cosine ranking (ann_topk precedent)."""
    return similarity.ann_topk_ivf(
        read_embeddings(sf_dir), _query_vectors(sf_dir), k=ANN_K
    )


def q_pq_topk(sf_dir: str) -> ray.data.Dataset:
    """Product-quantization ADC top-k — ORACLE-EXACT since r5 (VERDICT
    r4 #3): exact-integer PQ (`stages/similarity.pq_ann_topk_exact`,
    m=32, ksub=32, 4 Lloyd rounds) — rational sub-codebook centroids,
    cross-multiplied integer code assignment, common-scale floored ADC
    LUT — so codes, scores and ranks are bit-reproducible and the
    DuckDB oracle replays the whole index build + scan in HUGEINT. The
    driver corpus is deliberately UNclustered (max pairwise cos ≈
    0.51), the adversarial case, and still holds recall@5 ≈ 0.74 vs
    exact (measured; the clustered case is pytest-pinned ≥ 0.9 on the
    float path, and the exact path is pinned alongside it). The float
    pq_ann_topk stays as the raw-throughput mode."""
    return similarity.pq_ann_topk_exact(
        read_embeddings(sf_dir),
        _query_vectors(sf_dir),
        k=ANN_K,
        m=32,
        ksub=32,
        iters=4,
    )


def q_pq_recall(sf_dir: str) -> ray.data.Dataset:
    """Integer recall@k monitor of the exact-integer PQ index vs the
    exact integer-L2 top-k — ORACLE-EXACT since r5 (both sides
    deterministic; `stages/similarity.pq_recall_exact`): the
    index-quality dashboard row for `q_pq_topk`."""
    return similarity.pq_recall_exact(
        read_embeddings(sf_dir),
        _query_vectors(sf_dir),
        k=ANN_K,
        m=32,
        ksub=32,
        iters=4,
    )


def q_embed_probe_assign(sf_dir: str) -> ray.data.Dataset:
    """Nearest-fixed-centroid (codebook) assignment: every vector routed
    to its best ±1 probe direction over int64-quantized coordinates —
    EXACT integer arithmetic end-to-end, so the oracle is hash-exact in
    any engine (see `stages/similarity.fixed_probe_assign`)."""
    return similarity.fixed_probe_assign(read_embeddings(sf_dir))


def q_embed_kmeans(sf_dir: str) -> ray.data.Dataset:
    """Distributed Lloyd's k-means assignments (k=4, 3 rounds, broadcast
    state, per-block integer partials — the corpus never shuffles) in
    EXACT arithmetic: rational (Σ, n) centroids, cross-multiplied
    integer nearest-centroid compares, md5-60 seeding — oracle-backed
    (the DuckDB oracle unrolls the same rounds in HUGEINT); the float
    path's cluster-recovery quality stays pytest-pinned
    (tests/test_corpus_ops.py). See
    `stages/similarity.kmeans_fixed_assignments`."""
    return similarity.kmeans_fixed_assignments(
        read_embeddings(sf_dir), k=4, iters=3
    )


# --- multimodal (stubbed decode, real plumbing) ----------------------------


def _media_of(sf_dir: str) -> ray.data.Dataset:
    """documents.text encoded as an opaque binary payload (MEDIA_SCHEMA)."""

    def _to_media(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        return pa.table(
            {
                "media_id": t["doc_id"],
                "media_type": pa.array(["image"] * len(texts), pa.string()),
                "payload": pa.array(
                    [x.encode("utf-8") for x in texts], pa.binary()
                ),
            }
        )

    return read_documents(sf_dir).map_batches(
        _to_media, batch_format="pyarrow", zero_copy_batch=True
    )


def q_multimodal_features(sf_dir: str) -> ray.data.Dataset:
    """Binary payload → actor-pool featurizer. Query output is the
    SQL-checkable part (n_bytes, sha256); the fake feature vector is
    exercised in pytest."""
    return multimodal.featurize(_media_of(sf_dir)).select_columns(
        ["media_id", "n_bytes", "digest"]
    )


def q_multimodal_resize(sf_dir: str) -> ray.data.Dataset:
    """Actor-pool resize stage; the aspect-preserving integer geometry is
    oracle-checked (the pixel decode itself is the stubbed codec seam)."""
    return multimodal.resize(_media_of(sf_dir)).select_columns(
        ["media_id", "width", "height", "out_width", "out_height"]
    )


def q_multimodal_frames(sf_dir: str) -> ray.data.Dataset:
    """Actor-pool frame sampler (flat-map: one video row → K frame rows);
    uniform-stride sampling math is oracle-checked."""
    return multimodal.sample_frames(_media_of(sf_dir)).select_columns(
        ["media_id", "frame_idx", "n_frames"]
    )


# --- event-stream ops (windowed / sessionized aggregates) ------------------


def q_sessionize(sf_dir: str) -> ray.data.Dataset:
    from ..stages import events

    return events.sessionize(events.read_events(sf_dir, ["user_id", "ts"]))


def q_event_anomalies(sf_dir: str) -> ray.data.Dataset:
    """Monitoring/alerting over the event stream: days whose event count
    deviates > 2σ from that event type's own daily distribution
    (population moments over the type's observed days). The float-free
    formulation: (x−μ)² > 4σ² with μ=S/D, σ²=(DQ−S²)/D² cross-multiplies
    to **(D·x − S)² > 4(DQ − S²)** — pure int64 on both engines, so the
    boundary days are decided exactly (int64 is safe to ~3·10⁹ daily
    events × 10³ days; beyond that widen to int128 partials).

    One shuffle of tiny (type, day, n) per-block partials; each type's
    days land in one bucket, so the merge computes D/S/Q AND applies the
    filter in the same vectorized pass — raw events never shuffle."""
    from ..stages import events

    ev = events.read_events(sf_dir, ["event_type", "ts"])
    return daily_anomalies_over(ev)


def daily_anomalies_over(ds: ray.data.Dataset) -> ray.data.Dataset:
    """The reusable core of q_event_anomalies: input columns
    (event_type, ts) → per-type >2σ days via the exact-integer
    (D·x − S)² > 4(DQ − S²) inequality. Re-instantiated on the KG
    assertion stream (kg_pred_anomalies) by projection alone."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    part_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.date32()),
            ("n", pa.int64()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return part_schema.empty_table()
        return (
            pl.from_arrow(t)
            .with_columns(pl.col("ts").dt.date().alias("day"))
            .group_by(["event_type", "day"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .select(["event_type", "day", "n"])
            .to_arrow()
            .cast(part_schema)
        )

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.date32()),
            ("n_events", pa.int64()),
        ]
    )

    def _flag(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return out_schema.empty_table()
        daily = (
            pl.from_arrow(t)
            .group_by(["event_type", "day"])
            .agg(pl.col("n").sum())
        )
        st = daily.group_by("event_type").agg(
            pl.len().cast(pl.Int64).alias("d"),
            pl.col("n").sum().alias("s"),
            (pl.col("n") * pl.col("n")).sum().alias("q"),
        )
        j = daily.join(st, on="event_type")
        dev = pl.col("d") * pl.col("n") - pl.col("s")
        return (
            j.filter(
                dev * dev
                > 4 * (pl.col("d") * pl.col("q") - pl.col("s") * pl.col("s"))
            )
            .select(
                pl.col("event_type"),
                pl.col("day"),
                pl.col("n").alias("n_events"),
            )
            .to_arrow()
            .cast(out_schema)
        )

    partials = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partials, "event_type", _flag, num_buckets=8
    )


def q_events_daily(sf_dir: str) -> ray.data.Dataset:
    from ..stages import events

    return events.daily_rollup(
        events.read_events(sf_dir, ["event_type", "ts", "user_id", "value"])
    )


def q_events_daily_approx(sf_dir: str) -> ray.data.Dataset:
    """HLL-sketched daily rollup — oracle-backed: the md5-60 registers
    and exact-integer estimator (functions/sketch.py) are replayed
    bit-for-bit by the DuckDB oracle; n_users_approx stays a ±1.6%
    ESTIMATE of the true distinct count (accuracy pytest-asserted vs
    the exact rollup), but the estimate itself is hash-exact."""
    from ..stages import events

    return events.daily_rollup_approx(
        events.read_events(sf_dir, ["event_type", "ts", "user_id", "value"])
    )


# --- corpus curation (decontamination / redaction / vocabulary) ------------

DECONTAM_NGRAM = 8
BENCH_MODULUS = 20  # docs with doc_id % 20 == 0 play the held-out benchmark
REDACT_PATTERN = r"\b(customer|order)\b"
REDACT_REPLACEMENT = "<PII>"
VOCAB_SIZE = 100


def q_decontaminate(sf_dir: str) -> ray.data.Dataset:
    """Benchmark decontamination: flag corpus docs (doc_id % 20 != 0)
    sharing any distinct word-8-gram with the held-out benchmark slice
    (doc_id % 20 == 0). Benchmark gram set broadcast once; corpus streams."""
    from ..stages.curation import decontaminate

    def _mod_filter(is_bench: bool):
        def _f(t: pa.Table) -> pa.Table:
            import numpy as np

            rem = t["doc_id"].to_numpy(zero_copy_only=False) % BENCH_MODULUS
            keep = rem == 0 if is_bench else rem != 0
            return t.filter(pa.array(keep))

        return _f

    docs = read_documents(sf_dir)
    bench = docs.map_batches(
        _mod_filter(True), batch_format="pyarrow", zero_copy_batch=True
    )
    corpus = docs.map_batches(
        _mod_filter(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return decontaminate(corpus, bench, n=DECONTAM_NGRAM)


def q_redact(sf_dir: str) -> ray.data.Dataset:
    """PII-style regex scrub (vectorized replace + match count)."""
    from ..stages.curation import redact

    return redact(
        read_documents(sf_dir), REDACT_PATTERN, REDACT_REPLACEMENT
    )


SEGMENT_WIDTH = 3
SEGMENT_MIN_DOCS = 2

# PII-miner shape demo patterns over the word-stream corpus: emails/
# phones don't exist in this vocab, so mine word shapes instead (the op
# itself is the generic email/phone/URL miner; patterns must be
# group-free + backref-free — Rust regex and RE2 agree on those)
MINE_PATTERNS = {
    "a_word": r"\ba[a-z]*\b",
    "long_word": r"\b[a-z]{6,}\b",
}


def q_extract_patterns(sf_dir: str) -> ray.data.Dataset:
    """Structured regex mining (the PII/URL-miner shape): every named
    pattern's matches per doc with occurrence counts — doc-local, no
    shuffle (`stages/curation.extract_patterns`)."""
    from ..stages.curation import extract_patterns

    return extract_patterns(read_documents(sf_dir), MINE_PATTERNS)


def q_pattern_stats(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide leak report: per (kind, hit) total matches + distinct
    docs, via per-block partials and one (kind·hit)-bucketed shuffle
    (`stages/curation.pattern_stats`)."""
    from ..stages.curation import pattern_stats

    return pattern_stats(read_documents(sf_dir), MINE_PATTERNS)


def q_boilerplate_segments(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide boilerplate table: every 3-word window occurring in
    ≥2 distinct docs, with its distinct-doc count (the counting half of
    CCNet-style segment dedup — `stages/curation.boilerplate_segments`)."""
    from ..stages.curation import boilerplate_segments

    return boilerplate_segments(
        read_documents(sf_dir),
        width=SEGMENT_WIDTH,
        min_docs=SEGMENT_MIN_DOCS,
    )


def q_segment_dedup(sf_dir: str) -> ray.data.Dataset:
    """CCNet-style boilerplate removal at word-window granularity:
    drop every corpus-repeated 3-word segment from every doc, rejoin
    the survivors in original order → (doc_id, clean_text, n_segs,
    n_dropped). One counting shuffle + a broadcast-set streaming
    rewrite (`stages/curation.segment_dedup`)."""
    from ..stages.curation import segment_dedup

    return segment_dedup(
        read_documents(sf_dir),
        width=SEGMENT_WIDTH,
        min_docs=SEGMENT_MIN_DOCS,
    )


BPE_NUM_MERGES = 24


def q_bpe_merges(sf_dir: str) -> ray.data.Dataset:
    """Learn a BPE merge table from the corpus (rank, left, right,
    pair_count). Distributed exact word-frequency pass → merge learning
    on the collapsed vocabulary (`stages/curation.bpe_fit`) —
    oracle-backed: the recursive-CTE oracle SIMULATES the Sennrich loop
    round-by-round (argmax pair with (count desc, lex asc) ties;
    left-to-right non-overlapping replacement via the run-parity rule);
    also pinned by closed-form Sennrich-example and determinism
    tests."""
    from ..stages.curation import bpe_fit

    return bpe_fit(read_documents(sf_dir), num_merges=BPE_NUM_MERGES)


def q_bpe_encode(sf_dir: str) -> ray.data.Dataset:
    """Fit BPE on the corpus, then tokenize the corpus with the learned
    merges → per-doc subword counts (doc_id, n_subwords). Merge table
    broadcasts once; corpus streams through a memoizing actor pool
    (`stages/curation.bpe_encode`). Oracle-backed: a second recursion
    re-tokenizes the vocabulary (lowest-rank-then-leftmost merge per
    word per round) and joins the word multiset."""
    from ..stages.curation import bpe_encode, bpe_fit

    docs = read_documents(sf_dir)
    return bpe_encode(docs, bpe_fit(docs, num_merges=BPE_NUM_MERGES))


def q_vocab_encode(sf_dir: str) -> ray.data.Dataset:
    """Tokenizer-vocabulary encode: distributed top-100 vocab build →
    broadcast → per-doc in-vocab/unk token counts."""
    from ..stages.curation import vocab_encode

    return vocab_encode(read_documents(sf_dir), vocab_size=VOCAB_SIZE)


def q_token_bpe(sf_dir: str) -> ray.data.Dataset:
    """Per-doc BPE-ish-pretokenizer token counts (subword cost estimate)."""
    from ..stages.curation import token_counts_bpe

    return token_counts_bpe(read_documents(sf_dir))


# --- sampling (O3) ---------------------------------------------------------


def _md5_prefix2(col) -> pa.Array:
    """Vectorized 2-hex-char md5(doc_id) prefix — the shared primitive
    of every hash sampler / split rule (same digests as the old per-row
    hashlib listcomps, C-speed via schema.md5_hex — ADVICE r4)."""
    return pc.utf8_slice_codeunits(md5_hex(col), 0, 2)


def _split_labels(col) -> pa.Array:
    """Vectorized deterministic split rule: md5 prefix < 'e6' → train,
    < 'f3' → val, else test (pure VARCHAR ordering, SQL-mirrored)."""
    pfx = _md5_prefix2(col)
    return pc.if_else(
        pc.less(pfx, pa.scalar("e6")),
        pa.scalar("train"),
        pc.if_else(
            pc.less(pfx, pa.scalar("f3")),
            pa.scalar("val"),
            pa.scalar("test"),
        ),
    )


def hash_sample_block(t: pa.Table, threshold: str = "1a") -> pa.Table:
    """Per-block deterministic hash sampler: keep rows whose md5(doc_id)
    lowercase-hex 2-char prefix sorts below `threshold` (VARCHAR order).

    Fully vectorized (digest via schema.md5_hex, compare + filter in
    Arrow) — the old per-row hashlib listcomp was the one remaining
    per-row Python on a corpus-sized path (review r4). An empty-sample
    block falls out of `filter` as a typed empty table (the round-1/2
    driver crash was an untyped empty take index)."""
    keep = pc.less(_md5_prefix2(t["doc_id"]), pa.scalar(threshold))
    return t.select(["doc_id"]).filter(keep)


def q_sample_hash(sf_dir: str) -> ray.data.Dataset:
    """Deterministic ~10% hash sample: md5(doc_id) hex prefix < '1a'
    (26/256 ≈ 10.2%).

    Hash-based (not systematic) so the sample is unbiased w.r.t. id order,
    yet reproducible across runs/engines — mirrored exactly in SQL. The
    comparison is pure VARCHAR ordering on the lowercase hex digest (no
    hex→int cast on either side), so neither engine's evaluation can throw
    mid-comparison.
    """
    return read_documents(sf_dir).map_batches(
        hash_sample_block, batch_format="pyarrow", zero_copy_batch=True
    )


def q_sample_bottomk(sf_dir: str) -> ray.data.Dataset:
    """EXACT fixed-size uniform sample: the 50 docs with the smallest
    md5(doc_id) — reservoir sampling's deterministic, engine-reproducible
    replacement (bottom-k by hash IS a uniform sample of fixed size k,
    and unlike a reservoir it has an exact SQL mirror). Distributed as
    `group_topk` ascending with a constant group: per-block bottom-k
    combiner → one single-bucket merge; ≤ blocks×k rows ever move."""
    from ..stages.relational import group_topk

    def _h(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "h": md5_hex(t["doc_id"]),
                "g": pa.array([0] * t.num_rows, pa.int32()),
            }
        )

    ds = (
        read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(_h, batch_format="pyarrow", zero_copy_batch=True)
    )
    top = group_topk(
        ds, by="g", sort_col="h", k=50, descending=False, num_buckets=1
    )
    return top.select_columns(["doc_id"])


def _sample_priority(t: pa.Table) -> pa.Table:
    """``(doc_id, n_chars)`` → the Efraimidis–Spirakis priority ``prio =
    u ** (1 / max(w, 1))`` of :func:`q_sample_weighted`, null ``w`` → 1,
    with ``u = (md5_60(doc_id) + 1) / (2^60 + 1)``; the +1 happens in
    int64 BEFORE the float conversion (at 2^60 magnitudes fl(h) + 1.0 ≠
    fl(h + 1)).

    The power is ``math.pow`` per row: it calls libm ``pow``, as DuckDB's
    ``pow`` does, so the priorities and the oracle's order are
    bit-identical. numpy's vectorized ``**`` is not libm's: on about a
    third of random ``(u, w)`` pairs it differs by 1 ulp."""
    import math

    import numpy as np

    u = (md5_60(t["doc_id"]) + 1).astype(np.float64) / float((1 << 60) + 1)
    w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
    w = np.maximum(np.nan_to_num(w, nan=1.0), 1.0)
    prios = [math.pow(x, 1.0 / y) for x, y in zip(u.tolist(), w.tolist())]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "weight": pc.cast(t["n_chars"], pa.int64()),
            "prio": pa.array(prios, pa.float64()),
            "g": pa.array([0] * t.num_rows, pa.int32()),
        }
    )


def q_sample_weighted(sf_dir: str) -> ray.data.Dataset:
    """EXACT weighted sample without replacement, 50 docs with
    probability ∝ n_chars — Efraimidis–Spirakis priority sampling
    (top-k by u^(1/w)) with the uniform u derived from md5(doc_id), so
    the draw is deterministic AND SQL-mirrorable (the rare weighted
    sampler with an exact oracle; cf. "Streaming Weighted Sampling over
    Join Queries", EDBT 2023). Distributed exactly like sample_bottomk:
    per-block top-k combiner → one single-bucket merge; floats exist
    only inside the priority key, the output is (doc_id, weight) ints."""
    from ..stages.relational import group_topk

    ds = read_documents(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        _sample_priority, batch_format="pyarrow", zero_copy_batch=True
    )
    top = group_topk(
        ds,
        by="g",
        sort_col="prio",
        k=50,
        descending=True,
        tiebreak="doc_id",
        num_buckets=1,
    )
    return top.select_columns(["doc_id", "weight"])


def q_split_leakage(sf_dir: str) -> ray.data.Dataset:
    """Train/test LEAKAGE audit: near-duplicate document pairs whose
    members land in DIFFERENT splits → (doc_a, doc_b, split_a, split_b)
    — the contamination report every training-data pipeline must run
    after splitting (a test doc with a train near-dup inflates eval).
    Composition of two driver-green ops: the exact MinHash+LSH pair set
    and the deterministic md5 split rule, applied stateless to both
    pair sides (no join — the split of an id is a pure function)."""
    pairs = dedup.minhash_dedup_pairs(
        read_documents(sf_dir), threshold=JACCARD_THRESHOLD
    )

    def _tag(t: pa.Table) -> pa.Table:
        sa = _split_labels(t["doc_a"]).to_pylist()
        sb = _split_labels(t["doc_b"]).to_pylist()
        keep = [x != y for x, y in zip(sa, sb)]
        tt = pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "split_a": pa.array(sa, pa.string()),
                "split_b": pa.array(sb, pa.string()),
            }
        )
        return tt.filter(pa.array(keep, pa.bool_()))

    return pairs.map_batches(
        _tag, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["doc_a", "doc_b"])


def q_sample_random(sf_dir: str) -> ray.data.Dataset:
    """Seeded ``random_sample`` (rows-only: Ray's sampler isn't
    SQL-reproducible; determinism for a fixed block layout only)."""
    return read_documents(sf_dir).select_columns(["doc_id"]).random_sample(
        0.1, seed=42
    )


def q_pack_sequences(sf_dir: str) -> ray.data.Dataset:
    """Token-budget sequence packing of the document corpus —
    oracle-backed: the recursive-CTE oracle SIMULATES the deterministic
    FFD loop (md5-60 buckets, (n_tokens desc, id asc) order, first-
    open-bin rule) move-for-move; invariants additionally pinned in
    tests/test_corpus_ops.py."""
    import polars as pl

    from ..stages.packing import pack_sequences

    def _count(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = df.select(
            pl.col("doc_id"),
            pl.col("text")
            .str.extract_all(r"\S+")
            .list.len()
            .cast(pl.Int64)
            .alias("n_tokens"),
        )
        return out.to_arrow()

    docs = read_documents(sf_dir).map_batches(
        _count, batch_format="pyarrow", zero_copy_batch=True
    )
    return pack_sequences(docs, budget=512, num_buckets=16)


def q_sample_stratified(sf_dir: str) -> ray.data.Dataset:
    """Stratified deterministic sample: the 5 docs with the smallest
    md5(doc_id) digests PER LANGUAGE — the class-balancing sampler a
    training pipeline uses to cap dominant classes. Composition of the
    hash-rank map and group_topk (per-block combiner pre-truncation →
    one bucket shuffle), reproducible across runs and engines."""
    from ..stages.relational import group_topk

    def _with_digest(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": t["lang"],
                "doc_id": t["doc_id"],
                "digest": md5_hex(t["doc_id"]),
            }
        )

    docs = read_documents(sf_dir, ["doc_id", "lang"]).map_batches(
        _with_digest, batch_format="pyarrow", zero_copy_batch=True
    )
    out = group_topk(
        docs,
        by="lang",
        sort_col="digest",
        k=5,
        descending=False,
        tiebreak="doc_id",
        num_buckets=8,
    )
    return out.select_columns(["lang", "doc_id", "rank"])


# --- relational ops Ray Data lacks (as-of join, group top-k, quantiles) ----


QUANTILE_QS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def q_asof_join(sf_dir: str) -> ray.data.Dataset:
    """Backward as-of join: each 'click' event picks the latest prior
    'purchase' by the same user (by=user_id, on=ts). No pre-reduction
    shuffle: asof_join's tie rule (the LAST right row in ascending
    (on, right_cols) sort order wins) picks the max r_value among
    equal-ts purchases — exactly the DuckDB oracle's
    max(value)-per-(user_id, ts) pre-reduction, in the same single
    co-bucketed shuffle."""
    from ..stages.events import read_events
    from ..stages.relational import asof_join

    ev = read_events(sf_dir, ["event_id", "user_id", "event_type", "ts", "value"])
    left = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"]
    )

    def _with_r_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "r_ts": t["ts"],
                "r_value": t["value"],
            }
        )

    right = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["user_id", "ts", "value"]
    ).map_batches(_with_r_cols, batch_format="pyarrow", zero_copy_batch=True)
    return asof_join(
        left,
        right,
        by="user_id",
        on="ts",
        right_cols=["r_ts", "r_value"],
        num_buckets=16,
    )


def q_group_topk(sf_dir: str) -> ray.data.Dataset:
    """Top-3 orders per customer by total price (rank 1-based, ties
    broken by o_orderkey) — per-block combiner pre-truncation, one
    bucket shuffle."""
    from ..stages.relational import group_topk

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    return group_topk(
        orders,
        by="o_custkey",
        sort_col="o_totalprice",
        k=3,
        descending=True,
        tiebreak="o_orderkey",
        num_buckets=16,
    )


def q_events_json(sf_dir: str) -> ray.data.Dataset:
    """JSON scalar extraction + decomposable rollup over events.props."""
    from ..stages.events import json_props_rollup, read_events

    return json_props_rollup(
        read_events(sf_dir, ["event_type", "props"])
    )


def q_range_join(sf_dir: str) -> ray.data.Dataset:
    """Interval join: every ('click', 'purchase') event pair by the same
    user with the purchase in the hour before (inclusive) the click —
    the canonical band join, one co-bucketed shuffle + per-bucket sorted
    sweep."""
    from ..stages.events import read_events
    from ..stages.relational import range_join

    ev = read_events(sf_dir, ["event_id", "user_id", "event_type", "ts"])
    hour = 3_600_000_000  # µs
    return range_join(
        ev.filter(expr="event_type == 'click'"),
        ev.filter(expr="event_type == 'purchase'"),
        by="user_id",
        left_on="ts",
        right_on="ts",
        lower_offset=-hour,
        upper_offset=0,
        left_cols=["event_id"],
        right_cols=["event_id"],
        num_buckets=16,
    )


def q_rolling_window(sf_dir: str) -> ray.data.Dataset:
    """Per-event trailing-hour window per user (count + max value) —
    SQL RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW."""
    from ..stages.events import read_events
    from ..stages.relational import rolling_window

    ev = read_events(sf_dir, ["event_id", "user_id", "ts", "value"])
    return rolling_window(
        ev,
        by="user_id",
        on="ts",
        aggs={"n_1h": ("value", "count"), "max_1h": ("value", "max")},
        period_us=3_600_000_000,
        carry_cols=["event_id"],
        num_buckets=16,
    ).select_columns(["event_id", "user_id", "ts", "n_1h", "max_1h"])


def q_value_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact discrete quantiles of lineitem quantity via the
    decomposable (value, count) histogram — raw rows never shuffle."""
    from ..stages.relational import value_quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity"]
    )
    return value_quantiles(li, "l_quantity", QUANTILE_QS, num_buckets=8)


def q_group_mad(sf_dir: str) -> ray.data.Dataset:
    """Robust spread: discrete median + MAD of lineitem quantity per
    return flag — see `stages/relational.group_mad`."""
    from ..stages.relational import group_mad

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    return group_mad(li, by="l_returnflag", col="l_quantity", num_buckets=8)


def q_group_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-group quantiles (quantile_disc semantics) of lineitem
    quantity per return flag — per-group (value, count) histograms."""
    from ..stages.relational import group_quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    return group_quantiles(
        li, by="l_returnflag", col="l_quantity", qs=QUANTILE_QS, num_buckets=8
    )


def q_semi_join(sf_dir: str) -> ray.data.Dataset:
    """Distributed SEMI join: customers with at least one finished
    ('F'-status) order. The order side reduces to distinct custkeys
    before anything moves; customers stream through a broadcast
    membership filter (shuffle fallback above the size guard)."""
    from ..stages.relational import membership_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'F'")
    return membership_join(cust, ords, on="c_custkey", right_on="o_custkey")


def q_anti_join(sf_dir: str) -> ray.data.Dataset:
    """Distributed ANTI join (NOT EXISTS): customers with NO finished
    order — same machinery as q_semi_join, inverted mask."""
    from ..stages.relational import membership_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'F'")
    return membership_join(
        cust, ords, on="c_custkey", right_on="o_custkey", anti=True
    )


def q_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q1-shaped grouped aggregate over lineitem: per-block partial
    aggregation (combiner) → tiny merge shuffle. Money is summed as
    integer cents (rounded per row on BOTH sides) so the oracle compare
    is float-free."""
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
        ],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": pc_.cast(pc_.round(t["l_quantity"]), pa.int64()),
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    prep = li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_summary(
        prep,
        by=["l_returnflag", "l_linestatus"],
        aggs={
            "n_rows": ("qty", "count"),
            "sum_qty": ("qty", "sum"),
            "sum_price_cents": ("cents", "sum"),
        },
    )


def q_ngram_counts(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Corpus word-bigram frequencies, top-k (collocation mining) —
    see `stages/curation.ngram_counts`."""
    from ..stages.curation import ngram_counts

    return ngram_counts(read_documents(sf_dir), n=2, k=k)


def q_collocations(sf_dir: str) -> ray.data.Dataset:
    """PMI-style collocation mining: the 100 highest-LIFT corpus word
    bigrams with support ≥ 5 → ``(w1, w2, c, n_left, n_right,
    lift_e6)``. Raw frequency (`ngram_counts`) surfaces stop-word
    pairs; LIFT — how much more often w2 follows w1 than the unigram
    margins predict — surfaces true collocations, the phrase-mining
    score behind word2phrase/Gensim's Phrases.

    A corpus bigram table IS a weighted word graph (w1 → w2, weight =
    count), so the score reuses :func:`stages.graph.edge_lift`
    verbatim: one combiner collapses each block's bigrams before the
    single bucketed merge (the corpus never shuffles), the margins
    re-aggregate the collapsed table, and the fixed-point
    ``c·N·10⁶ // (n_left·n_right)`` is float-free on both engines.
    Masses are computed over ALL bigrams; the support filter applies
    only to the emitted rows (so lift values are corpus-true)."""
    import polars as pl

    from ..stages.graph import edge_lift
    from ..stages.relational import grouped_summary

    def _bigrams(t: pa.Table) -> pa.Table:
        toks = (
            pl.from_arrow(t.select(["doc_id", "text"]))
            .select(
                pl.col("doc_id"),
                pl.col("text").str.extract_all(r"\S+").alias("tok"),
            )
            .explode("tok")
            .drop_nulls("tok")
        )
        grams = toks.with_columns(
            nxt=pl.col("tok").shift(-1).over("doc_id")
        ).drop_nulls("nxt")
        per = grams.group_by(["tok", "nxt"]).agg(
            pl.len().cast(pl.Int64).alias("weight")
        )
        return per.select(
            pl.col("tok").alias("subj_id"),
            pl.lit("", dtype=pl.String).alias("pred"),
            pl.col("nxt").alias("obj_id"),
            pl.col("weight"),
        ).to_arrow()

    partials = read_documents(sf_dir).map_batches(
        _bigrams, batch_format="pyarrow", zero_copy_batch=True
    )
    edges = grouped_summary(
        partials,
        by=["subj_id", "pred", "obj_id"],
        aggs={"weight": ("weight", "sum")},
        num_buckets=8,
    )
    scored = edge_lift(edges)  # sorted (lift_e6 DESC, w1, w2) already

    def _shape(t: pa.Table) -> pa.Table:
        f = t.filter(pc.greater_equal(t["weight"], 5))
        return pa.table(
            {
                "w1": f["subj_id"],
                "w2": f["obj_id"],
                "c": f["weight"],
                "n_left": f["n_s"],
                "n_right": f["n_o"],
                "lift_e6": f["lift_e6"],
            }
        )

    return scored.map_batches(
        _shape, batch_format="pyarrow", zero_copy_batch=True
    ).limit(100)


def q_above_nation_avg(sf_dir: str) -> ray.data.Dataset:
    """Correlated-subquery shape: customers whose AVERAGE order value
    exceeds their NATION's average order value — the "compare each row
    to its group's aggregate" pattern SQL writes as a correlated
    subquery and a distributed engine writes as two aggregate passes +
    one broadcast.

    Exactness: both averages are ratios of int64 cents, and the
    comparison cross-multiplies (cs·nn > ns·cn) so NO float division is
    ever compared — boundary customers are decided in exact integer
    arithmetic on both engines.

    Dataflow: orders collapse per customer in a combiner (one tiny
    custkey shuffle); customer's nationkey rides a `join_auto`; nation
    totals re-aggregate the per-customer partials (second tiny shuffle);
    the ~25-row nation table broadcasts back onto the per-customer rows
    for the filter. Output (c_custkey, n_orders, sum_cents) for
    qualifying customers."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    part_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("n_orders", pa.int64()),
            ("sum_cents", pa.int64()),
        ]
    )

    def _cust_partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return part_schema.empty_table()
        pc_ = pa.compute
        cents = pc_.cast(
            pc_.round(pc_.multiply(t["o_totalprice"], 100.0)), pa.int64()
        )
        return (
            pl.from_arrow(
                pa.table({"o_custkey": t["o_custkey"], "cents": cents})
            )
            .group_by("o_custkey")
            .agg(
                pl.len().cast(pl.Int64).alias("n_orders"),
                pl.col("cents").sum().alias("sum_cents"),
            )
            .to_arrow()
            .cast(part_schema)
        )

    def _cust_merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return part_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("o_custkey")
            .agg(pl.col("n_orders").sum(), pl.col("sum_cents").sum())
            .to_arrow()
            .cast(part_schema)
        )

    per_cust = bucket_group_apply(
        orders.map_batches(
            _cust_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "o_custkey",
        _cust_merge,
        num_buckets=16,
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    with_nation = join_auto(
        per_cust, cust, on=("o_custkey",), right_on=("c_custkey",)
    )

    # nation totals re-aggregate the per-customer rows (tiny input) and
    # the ~25-row result broadcasts back for the integer filter
    nat = (
        with_nation.map_batches(
            lambda t: t.select(["c_nationkey", "n_orders", "sum_cents"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .map_batches(
            lambda t: pl.from_arrow(t)
            .group_by("c_nationkey")
            .agg(
                pl.col("n_orders").sum().alias("nn"),
                pl.col("sum_cents").sum().alias("ns"),
            )
            .to_arrow(),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .to_arrow_refs()
    )
    import ray as _ray

    nat_tbl = pa.concat_tables([_ray.get(r) for r in nat])
    nat_df = (
        pl.from_arrow(nat_tbl)
        .group_by("c_nationkey")
        .agg(pl.col("nn").sum(), pl.col("ns").sum())
    )
    nat_ref = _ray.put(nat_df.to_arrow())

    def _filter(t: pa.Table, ref=nat_ref) -> pa.Table:
        if not t.num_rows:
            return pa.schema(
                [
                    ("c_custkey", pa.int64()),
                    ("n_orders", pa.int64()),
                    ("sum_cents", pa.int64()),
                ]
            ).empty_table()
        nd = pl.from_arrow(_get_broadcast(ref))
        df = pl.from_arrow(t).join(nd, on="c_nationkey", how="inner")
        out = df.filter(
            pl.col("sum_cents") * pl.col("nn")
            > pl.col("ns") * pl.col("n_orders")
        ).select(
            pl.col("o_custkey").alias("c_custkey"),
            pl.col("n_orders"),
            pl.col("sum_cents"),
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("c_custkey", pa.int64()),
                    ("n_orders", pa.int64()),
                    ("sum_cents", pa.int64()),
                ]
            )
        )

    return with_nation.map_batches(
        _filter, batch_format="pyarrow", zero_copy_batch=True
    )


def _get_broadcast(ref):
    import ray as _ray

    return _ray.get(ref)


def q_revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """Star-schema join + aggregate (the TPC-H-Q5 shape): revenue per
    EUROPE nation. Join-strategy composition end to end:

    - lineitem first collapses per orderkey with a `grouped_summary`
      combiner (the fact table shrinks ~4x BEFORE any join),
    - per-order revenue ⋈ orders and ⋈ customer go through `join_auto`
      (broadcast at this sf; degrades to the co-partitioned hash join
      above the threshold — both are big at 100 TB),
    - nation⋈region is a driver-small dim pre-join; the region filter
      rides the broadcast INNER join (acts as filter + lookup in one
      map-side pass).

    Money is exact integers end to end: revenue in cent-basis-points =
    round(price*100) * (100 - round(disc*100)) — no float product ever
    crosses a rounding boundary, so the oracle compare is float-free."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        ext = pc_.cast(
            pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        )
        disc = pc_.cast(
            pc_.round(pc_.multiply(t["l_discount"], 100.0)), pa.int64()
        )
        rev = pc_.multiply(ext, pc_.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    per_order = grouped_summary(
        li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_orderkey"],
        aggs={"revenue_cbp": ("rev", "sum")},
        num_buckets=32,
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    with_cust = join_auto(
        per_order, orders, on=("l_orderkey",), right_on=("o_orderkey",)
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    with_nat = join_auto(
        with_cust, cust, on=("o_custkey",), right_on=("c_custkey",)
    )

    nation = ray.data.read_parquet(f"{sf_dir}/nation.parquet")
    region = ray.data.read_parquet(f"{sf_dir}/region.parquet")
    dim = join_auto(
        nation, region, on=("n_regionkey",), right_on=("r_regionkey",)
    ).filter(expr="r_name == 'EUROPE'")
    dim = dim.select_columns(["n_nationkey", "n_name"])

    joined = join_auto(
        with_nat, dim, on=("c_nationkey",), right_on=("n_nationkey",)
    )
    return grouped_summary(
        joined,
        by=["n_name"],
        aggs={
            "n_orders": ("l_orderkey", "count"),
            "revenue_cbp": ("revenue_cbp", "sum"),
        },
        num_buckets=4,
    )


def q_profit_by_nation_brand(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q9 shape: revenue per (supplier nation, part brand) —
    the three-dimension star join the Q5-shaped revenue_by_nation
    doesn't exercise (supplier AND part dims on the same fact row).

    Fact collapses FIRST: lineitem reduces to per-(suppkey, partkey)
    integer cent-basis-point partials (one combiner shuffle), then the
    supplier and part dims ride `join_auto` broadcasts, nation is a
    driver-small pre-join, and a tiny (nation, brand) merge finishes.
    Money stays exact integers end to end (same convention as
    revenue_by_nation)."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_extendedprice", "l_discount"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        ext = pc_.cast(
            pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        )
        disc = pc_.cast(
            pc_.round(pc_.multiply(t["l_discount"], 100.0)), pa.int64()
        )
        rev = pc_.multiply(
            ext, pc_.subtract(pa.scalar(100, pa.int64()), disc)
        )
        return pa.table(
            {
                "l_suppkey": t["l_suppkey"],
                "l_partkey": t["l_partkey"],
                "rev": rev,
            }
        )

    per_sp = grouped_summary(
        li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_suppkey", "l_partkey"],
        aggs={"n_lines": ("rev", "count"), "revenue_cbp": ("rev", "sum")},
        num_buckets=16,
    )

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    sdim = join_auto(
        supp, nation, on=("s_nationkey",), right_on=("n_nationkey",)
    ).select_columns(["s_suppkey", "n_name"])

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )

    j = join_auto(
        join_auto(per_sp, sdim, on=("l_suppkey",), right_on=("s_suppkey",)),
        part,
        on=("l_partkey",),
        right_on=("p_partkey",),
    )
    return grouped_summary(
        j,
        by=["n_name", "p_brand"],
        aggs={
            "n_lines": ("n_lines", "sum"),
            "revenue_cbp": ("revenue_cbp", "sum"),
        },
        num_buckets=4,
    )


def q_event_pivot(sf_dir: str) -> ray.data.Dataset:
    """Per-user event-type count pivot (conditional aggregates) — see
    `stages/relational.pivot_counts`. Category values discovered with a
    guarded distinct pass."""
    from ..stages.events import read_events
    from ..stages.relational import pivot_counts

    return pivot_counts(
        read_events(sf_dir, columns=["user_id", "event_type"]),
        index="user_id",
        col="event_type",
    )


def q_group_moments(sf_dir: str) -> ray.data.Dataset:
    """Per-group decomposable second moments (the corr/covariance
    partial-aggregation pattern): per l_returnflag the exact integer
    sums n, Σq, Σp, Σq², Σp², Σqp over q=round(quantity),
    p=round(extendedprice in whole dollars). Pearson r / covariance
    derive from these on the driver (float math happens once, on G
    rows, never inside the shuffle) — see test_relational for the
    numpy cross-check."""
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute

        def _dollars(col) -> pa.Array:
            # round-to-cents is exact on 2-decimal data; whole dollars
            # then come from integer half-up division — identical on
            # both sides, immune to the half-to-even vs half-away split
            cents = pc_.cast(pc_.round(pc_.multiply(col, 100.0)), pa.int64())
            return pc_.divide(pc_.add(cents, 50), 100)

        q = _dollars(t["l_quantity"])
        p = _dollars(t["l_extendedprice"])
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "q": q,
                "p": p,
                "qq": pc_.multiply(q, q),
                "pp": pc_.multiply(p, p),
                "qp": pc_.multiply(q, p),
            }
        )

    return grouped_summary(
        li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_returnflag"],
        aggs={
            "n": ("q", "count"),
            "sum_q": ("q", "sum"),
            "sum_p": ("p", "sum"),
            "sum_qq": ("qq", "sum"),
            "sum_pp": ("pp", "sum"),
            "sum_qp": ("qp", "sum"),
        },
        num_buckets=4,
    )


def q_set_intersect(sf_dir: str) -> ray.data.Dataset:
    """SQL INTERSECT: custkeys holding BOTH a finished ('F') and an open
    ('O') order — see `stages/relational.set_intersect`."""
    from ..stages.relational import set_intersect

    f = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'F'")
    o = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'O'")
    return set_intersect(f, o, on="o_custkey")


def q_set_except(sf_dir: str) -> ray.data.Dataset:
    """SQL EXCEPT: custkeys with a finished order but NO open order."""
    from ..stages.relational import set_except

    f = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'F'")
    o = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
    ).filter(expr="o_orderstatus == 'O'")
    return set_except(f, o, on="o_custkey")


def q_user_gaps(sf_dir: str) -> ray.data.Dataset:
    """Per-user inter-event-gap rollup (the LAG window family) — see
    `stages/events.gap_rollup`."""
    from ..stages.events import gap_rollup, read_events

    return gap_rollup(read_events(sf_dir, columns=["user_id", "ts"]))


def q_pricing_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP (l_returnflag, l_linestatus): detail + per-flag
    subtotal + grand total in one corpus scan — see
    `stages/relational.grouped_rollup`."""
    from ..stages.relational import grouped_rollup

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    return grouped_rollup(
        li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_returnflag", "l_linestatus"],
        aggs={
            "n_rows": ("cents", "count"),
            "sum_price_cents": ("cents", "sum"),
        },
    )


def q_order_grouping_sets(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY GROUPING SETS ((o_orderpriority), (o_orderstatus), ()):
    an explicit non-rollup, non-cube set list — two independent 1-D cuts
    plus the grand total from ONE corpus scan, SQL GROUPING() bitmask
    included — see `stages/relational.grouped_sets`."""
    from ..stages.relational import grouped_sets

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "o_orderstatus": t["o_orderstatus"],
                "cents": pc.cast(
                    pc.round(pc.multiply(t["o_totalprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    return grouped_sets(
        od.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["o_orderpriority", "o_orderstatus"],
        sets=[["o_orderpriority"], ["o_orderstatus"], []],
        aggs={
            "n_orders": ("cents", "count"),
            "sum_total_cents": ("cents", "sum"),
        },
    )


def q_order_count_distribution(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q13 shape — the count-of-counts distribution: how many
    customers placed exactly N orders, INCLUDING the zero-order
    customers the naive inner join silently drops. Composition of
    existing primitives: per-customer combiner rollup (one tiny
    shuffle), a distributed anti-join for the zero bucket, then a
    second tiny histogram rollup — the orders fact never moves twice."""
    from ..stages.relational import grouped_summary, membership_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    per_cust = grouped_summary(
        orders,
        by=["o_custkey"],
        aggs={"n_orders": ("o_custkey", "count")},
    )
    custs = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    zeros = membership_join(
        custs, per_cust, on="c_custkey", right_on="o_custkey", anti=True
    ).map_batches(
        lambda t: pa.table(
            {"n_orders": pa.array([0] * t.num_rows, pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    counted = per_cust.map_batches(
        lambda t: t.select(["n_orders"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).union(zeros)
    return grouped_summary(
        counted,
        by=["n_orders"],
        aggs={"n_customers": ("n_orders", "count")},
        num_buckets=1,
    )


def q_pricing_cube(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY CUBE (l_returnflag, l_linestatus): all four grouping sets
    with a SQL GROUPING() bitmask, one corpus scan — see
    `stages/relational.grouped_cube`."""
    from ..stages.relational import grouped_cube

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    return grouped_cube(
        li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_returnflag", "l_linestatus"],
        aggs={
            "n_rows": ("cents", "count"),
            "sum_price_cents": ("cents", "sum"),
        },
    )


def q_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-event running total of `value` per user (the cumulative-sum
    window shape) — see `stages/events.running_total`."""
    from ..stages.events import read_events, running_total

    return running_total(read_events(sf_dir))


def q_value_histogram(sf_dir: str, width_cents: int = 5_000) -> ray.data.Dataset:
    """Fixed-width histogram of event `value` ($50 bins): the binned
    aggregate is just `grouped_summary` over an integer bin key —
    per-block partials, one tiny merge."""
    from ..stages.events import read_events
    from ..stages.relational import grouped_summary

    ev = read_events(sf_dir, columns=["value"])

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        cents = pc_.cast(
            pc_.round(pc_.multiply(t["value"], 100.0)), pa.int64()
        )
        return pa.table(
            {"bin": pc_.divide(cents, width_cents), "cents": cents}
        )

    return grouped_summary(
        ev.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True),
        by=["bin"],
        aggs={"n": ("cents", "count"), "sum_cents": ("cents", "sum")},
        num_buckets=4,
    )


def q_customer_order_counts(sf_dir: str) -> ray.data.Dataset:
    """LEFT OUTER join shape: every customer with their order count,
    zero included. Orders collapse per custkey through the combiner
    first; customers stream through the left-outer `join_auto`
    (broadcast here, hash join at scale); null counts coalesce to 0."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    per_cust = grouped_summary(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey"]
        ),
        by=["o_custkey"],
        aggs={"n_orders": ("o_custkey", "count")},
        num_buckets=16,
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    joined = join_auto(
        cust,
        per_cust,
        on=("c_custkey",),
        right_on=("o_custkey",),
        join_type="left_outer",
    )

    def _coalesce(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        n = pc_.fill_null(t["n_orders"], pa.scalar(0, pa.int64()))
        return t.set_column(
            t.column_names.index("n_orders"), "n_orders", n
        )

    return joined.map_batches(
        _coalesce, batch_format="pyarrow", zero_copy_batch=True
    )


def q_funnel(sf_dir: str) -> ray.data.Dataset:
    """signup → purchase conversion within 7 days — see
    `stages/events.funnel`."""
    from ..stages.events import funnel, read_events

    return funnel(
        read_events(sf_dir, columns=["user_id", "event_type", "ts"]),
        step1="signup",
        step2="purchase",
        window_us=7 * 86_400_000_000,
    )


def q_doc_hash_features(sf_dir: str) -> ray.data.Dataset:
    """Feature-hashing-trick doc vectors (signed token counts routed by
    md5 into 8 dims, exact ints) — see `functions/textstats.hash_features`."""
    from ..functions.textstats import hash_features

    return read_documents(sf_dir).map_batches(
        hash_features, batch_format="pyarrow", zero_copy_batch=True
    )


def q_embed_rp(sf_dir: str) -> ray.data.Dataset:
    """Signed random projection of the embeddings to 8 dims in exact
    int64 arithmetic (md5-derived ±1 signs) — see
    `stages/similarity.random_projection`."""
    from ..stages.similarity import random_projection

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return random_projection(emb, k=8, scale=1000)


def q_event_rules(sf_dir: str) -> ray.data.Dataset:
    """Association rules over per-user distinct-event-type baskets
    (support / confidence / lift in exact integer ppm) — see
    `stages/events.association_rules`."""
    from ..stages.events import association_rules, read_events

    return association_rules(
        read_events(sf_dir, columns=["user_id", "event_type"])
    )


def q_attribution(sf_dir: str) -> ray.data.Dataset:
    """Last-touch attribution: purchases credited to the user's latest
    preceding non-purchase event within 7 days — see
    `stages/events.attribute_conversions` (windowed as-of self-join in
    one user-bucketed shuffle)."""
    from ..stages.events import attribute_conversions, read_events

    return attribute_conversions(
        read_events(
            sf_dir, columns=["user_id", "event_id", "ts", "event_type", "value"]
        ),
        conversion="purchase",
        window_us=7 * 86_400_000_000,
    )


def q_retention(sf_dir: str) -> ray.data.Dataset:
    """Cohort retention (distinct users per first-seen-day × day-offset)
    — see `stages/events.retention_cohorts`."""
    from ..stages.events import read_events, retention_cohorts

    return retention_cohorts(read_events(sf_dir, columns=["user_id", "ts"]))


def q_event_quartiles(sf_dir: str) -> ray.data.Dataset:
    """NTILE(4) of `value` within each event_type (event_id breaks
    value ties so the assignment is a total order) — see
    `stages/relational.ntile_window`."""
    from ..stages.events import read_events
    from ..stages.relational import ntile_window

    return ntile_window(
        read_events(sf_dir, columns=["event_id", "event_type", "value"]),
        by="event_type",
        order_cols=["value", "event_id"],
        k=4,
        keep_cols=["event_id"],
        out_col="quartile",
        num_buckets=8,
    )


def q_event_melt(sf_dir: str) -> ray.data.Dataset:
    """UNPIVOT round-trip: the per-user event-type pivot melted back to
    long form (user_id, event_type, n) — zeros kept, so the oracle is
    the users × types cross join with coalesce."""
    from ..stages.relational import melt

    wide = q_event_pivot(sf_dir).drop_columns(["n_total"])
    names = ["n_click", "n_error", "n_purchase", "n_signup", "n_view"]
    long = melt(
        wide,
        id_cols=["user_id"],
        value_cols=names,
        var_name="event_type",
        value_name="n",
    )

    def _strip(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        et = pc_.utf8_replace_slice(t["event_type"], 0, 2, "")
        return pa.table(
            {"user_id": t["user_id"], "event_type": et, "n": t["n"]}
        )

    return long.map_batches(
        _strip, batch_format="pyarrow", zero_copy_batch=True
    )


def q_event_share(sf_dir: str) -> ray.data.Dataset:
    """Ratio-to-report: each event_type's share of all events in exact
    integer parts-per-million. The grouped counts are by definition tiny
    (G rows), so the share division happens once on the collected
    result — the corpus itself only ever feeds the count combiner."""
    from ..functions.joins import dataset_to_table
    from ..stages.events import read_events
    from ..stages.relational import grouped_summary

    counts = grouped_summary(
        read_events(sf_dir, columns=["event_type"]),
        by=["event_type"],
        aggs={"n": ("event_type", "count")},
        num_buckets=4,
    ).materialize()
    tbl = dataset_to_table(counts)
    total = pa.compute.sum(tbl["n"]).as_py() or 0
    share = pa.compute.divide(
        pa.compute.multiply(tbl["n"], pa.scalar(1_000_000, pa.int64())),
        pa.scalar(total, pa.int64()),
    )
    return ray.data.from_arrow(tbl.append_column("share_ppm", share))


def q_tfidf(sf_dir: str) -> ray.data.Dataset:
    """Per-doc top-5 TF-IDF terms — oracle-backed: DuckDB's ln, polars'
    .log() and libm agree bitwise on this platform, so the float scores
    hash-exact; ranking additionally verified vs a numpy reference in
    pytest — see `stages/curation.tfidf_top_terms`."""
    from ..stages.curation import tfidf_top_terms

    return tfidf_top_terms(read_documents(sf_dir), k=5)


def q_user_mode(sf_dir: str) -> ray.data.Dataset:
    """Per-group MODE (most frequent value, ties → smallest value) as a
    pure composition of existing operators: distributed (user,
    event_type) counts via `grouped_summary`, then `group_topk` k=1 on
    (count desc, value asc) — the counts table is already tiny, so the
    top-1 pass is free."""
    from ..stages.events import read_events
    from ..stages.relational import group_topk, grouped_summary

    counts = grouped_summary(
        read_events(sf_dir, columns=["user_id", "event_type"]),
        by=["user_id", "event_type"],
        aggs={"n": ("event_type", "count")},
        num_buckets=16,
    )
    return group_topk(
        counts,
        by="user_id",
        sort_col="n",
        k=1,
        descending=True,
        tiebreak="event_type",
        num_buckets=8,
    )


def q_semi_join_bloom(sf_dir: str) -> ray.data.Dataset:
    """Bloom-prefiltered EXACT semi join — the big-big path: lineitems
    of URGENT orders. The orders side reduces to distinct keys, folds
    into a broadcast Bloom filter that culls non-matching lineitems
    BEFORE the shuffle, and the survivors go through the co-bucketed
    exact membership stage (forced here via broadcast_threshold=0 so
    the driver exercises the full scale path; false positives die in
    the exact stage, so the result equals plain membership_join)."""
    from ..stages.relational import bloom_membership_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).filter(expr="o_orderpriority == '1-URGENT'")
    return bloom_membership_join(
        li, ords, on="l_orderkey", right_on="o_orderkey",
        broadcast_threshold=0,
    )


def q_anti_join_bloom(sf_dir: str) -> ray.data.Dataset:
    """Bloom-prefiltered EXACT anti join: lineitems of non-URGENT
    orders. Bloom definite-misses are kept for free pre-shuffle; only
    maybe-members pay the exact co-bucketed anti stage."""
    from ..stages.relational import bloom_membership_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).filter(expr="o_orderpriority == '1-URGENT'")
    return bloom_membership_join(
        li, ords, on="l_orderkey", right_on="o_orderkey", anti=True,
        broadcast_threshold=0,
    )


def q_split_assign(sf_dir: str) -> ray.data.Dataset:
    """Deterministic train/val/test split assignment — THE first
    operation of every training-data pipeline. md5(doc_id) hex-prefix
    ranges: < 'e6' train (230/256 ≈ 89.8%), < 'f3' val (13/256 ≈ 5.1%),
    rest test. Pure VARCHAR ordering on the lowercase digest (the
    sample_hash rule: no hex→int cast on either side), stateless per
    batch — reproducible across runs, engines and block layouts."""

    def _assign(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "split": _split_labels(t["doc_id"])}
        )

    return read_documents(sf_dir).map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )


def q_kfold_assign(sf_dir: str) -> ray.data.Dataset:
    """Deterministic 5-fold cross-validation assignment — split_assign's
    companion for eval protocols. Same engine-portable rule: md5(doc_id)
    2-hex-char prefix compared against the VARCHAR boundaries
    '33'/'66'/'9a'/'cd' (51-51-52-51-51 of the 256 prefixes), stateless
    per batch, reproducible across engines and block layouts."""
    import numpy as np

    def _assign(t: pa.Table) -> pa.Table:
        pfx = _md5_prefix2(t["doc_id"]).to_numpy(zero_copy_only=False)
        folds = np.searchsorted(
            np.array(["33", "66", "9a", "cd"], dtype=object),
            pfx,
            side="right",
        ).astype(np.int64)
        return pa.table(
            {"doc_id": t["doc_id"], "fold": pa.array(folds, pa.int64())}
        )

    return read_documents(sf_dir).map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )


def q_curate_corpus(sf_dir: str) -> ray.data.Dataset:
    """The COMPOSITE curation pipeline every pretraining corpus goes
    through, end-to-end ORACLE-EXACT: quality gate (integer heuristics)
    → near-dup clustering on the survivors (MinHash pairs → CC closure
    → keep min doc_id per cluster) → deterministic train/val/test
    assignment. Rows (doc_id, split).

    Each stage is the already-verified operator; the composition stays
    exact because every stage is (quality filter: stateless map; dedup:
    verified-pair closure; split: stateless hash map). The filtered
    corpus is materialized once and feeds both the pair generator and
    the survivor filter — at production scale that seam is a
    `state/checkpoint.py run_partitioned` stage boundary."""
    docs = read_documents(sf_dir)

    def _qf(t: pa.Table) -> pa.Table:
        s = textstats.doc_stats(t)
        keep = pa.compute.and_(
            pa.compute.and_(
                pa.compute.greater_equal(s["n_tokens"], 5),
                pa.compute.less_equal(s["max_token_len"], 40),
            ),
            pa.compute.less_equal(
                pa.compute.multiply(s["n_punct"], 10), s["n_chars"]
            ),
        )
        return t.filter(keep)

    ok = docs.map_batches(
        _qf, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    pairs = dedup.minhash_dedup_pairs(ok, threshold=JACCARD_THRESHOLD)
    kept = dedup.dedup_apply(ok.select_columns(["doc_id"]), pairs)

    def _assign(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "split": _split_labels(t["doc_id"])}
        )

    return kept.map_batches(
        _assign, batch_format="pyarrow", zero_copy_batch=True
    )


def q_value_quantiles_cont(sf_dir: str) -> ray.data.Dataset:
    """Exact INTERPOLATED quantiles (percentile_cont, R-7 rule) of
    lineitem price cents at the quarter grid, returned ×4 so the oracle
    compare is integer — see `stages/relational.value_quantiles_cont`."""
    from ..stages.relational import value_quantiles_cont

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t["l_extendedprice"], 100.0)
                    ),
                    pa.int64(),
                )
            }
        )

    prep = li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return value_quantiles_cont(prep, "cents", [0, 1, 2, 3, 4], num_buckets=8)


def q_value_mad(sf_dir: str) -> ray.data.Dataset:
    """Exact median absolute deviation of lineitem price cents — robust
    dispersion from ONE histogram pass; see `stages/relational.value_mad`."""
    from ..stages.relational import value_mad

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t["l_extendedprice"], 100.0)
                    ),
                    pa.int64(),
                )
            }
        )

    prep = li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return value_mad(prep, "cents", num_buckets=8)


def q_group_quantiles_cont(sf_dir: str) -> ray.data.Dataset:
    """percentile_cont PER GROUP (interpolated quartiles of lineitem
    price cents per return flag), exact as ×4 integers — see
    `stages/relational.group_quantiles_cont`."""
    from ..stages.relational import group_quantiles_cont

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t["l_extendedprice"], 100.0)
                    ),
                    pa.int64(),
                ),
            }
        )

    prep = li.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return group_quantiles_cont(
        prep, by="l_returnflag", col="cents", quarters=[1, 2, 3],
        num_buckets=8,
    )


def q_event_disorder(sf_dir: str) -> ray.data.Dataset:
    """Out-of-order-arrival monitor: per user (n_events, n_late,
    max_late_us) with arrival order = event_id — the watermark-sizing
    statistic; see `stages/events.disorder_rollup`."""
    from ..stages.events import disorder_rollup, read_events

    return disorder_rollup(
        read_events(sf_dir, columns=["user_id", "event_id", "ts"])
    )


def q_event_intervals(sf_dir: str) -> ray.data.Dataset:
    """SCD-2 validity intervals over each user's event stream: valid_to
    = the next event's ts (NULL on the current row) — see
    `stages/relational.scd2_intervals`."""
    from ..stages.events import read_events
    from ..stages.relational import scd2_intervals

    ev = read_events(
        sf_dir, columns=["user_id", "event_id", "ts", "event_type"]
    )
    return scd2_intervals(
        ev, key="user_id", order_by="ts", tiebreak="event_id", num_buckets=8
    )


def q_latest_event(sf_dir: str) -> ray.data.Dataset:
    """CDC compaction: each user's newest event (max ts, min event_id on
    ties) — see `stages/relational.latest_by_key`. Only per-block winners
    shuffle; the event stream never does."""
    from ..stages.events import read_events
    from ..stages.relational import latest_by_key

    ev = read_events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type"]
    )
    return latest_by_key(
        ev, key="user_id", order_by="ts", tiebreak="event_id", num_buckets=8
    )


def q_user_top_event(sf_dir: str) -> ray.data.Dataset:
    """Each user's dominant event type (deterministic mode: count desc,
    type asc) with its count and the user's total events — see
    `stages/relational.group_mode`."""
    from ..stages.events import read_events
    from ..stages.relational import group_mode

    return group_mode(
        read_events(sf_dir, columns=["user_id", "event_type"]),
        by="user_id",
        col="event_type",
    )


def q_event_ranks(sf_dir: str) -> ray.data.Dataset:
    """Exact RANK / CUME_DIST integer counts per distinct value cents
    within each event_type — see `stages/relational.group_ranks`."""
    from ..stages.events import read_events
    from ..stages.relational import group_ranks

    ev = read_events(sf_dir, columns=["event_type", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "event_type": t["event_type"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        )

    prep = ev.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return group_ranks(prep, by="event_type", col="cents", num_buckets=8)


def q_profile_orders(sf_dir: str) -> ray.data.Dataset:
    """Data-quality profile of the orders table (per-column row / null /
    exact distinct counts in one pass) — see
    `stages/relational.profile_columns`."""
    from ..stages.relational import profile_columns

    cols = [
        "o_orderkey",
        "o_custkey",
        "o_orderstatus",
        "o_totalprice",
        "o_orderpriority",
    ]
    od = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)
    return profile_columns(od, cols, num_buckets=8)


def q_profile_orders_sketch(sf_dir: str) -> ray.data.Dataset:
    """The profiler's near-unique-column SCALE path forced on: a tiny
    ``value_cap`` makes every block overflow for the high-cardinality
    columns, so their ``n_distinct`` is the merged-HLL ±1.6% estimate
    (``distinct_exact=false``) and only sketch bytes shuffle, while the
    low-cardinality o_orderstatus stays exact. Rows-only by design (the
    estimate has no SQL mirror); the error bound is pytest-pinned
    (tests/test_relational.py)."""
    from ..stages.relational import profile_columns

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]
    od = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)
    return profile_columns(od, cols, num_buckets=8, value_cap=256)


def q_order_key_agg(sf_dir: str) -> ray.data.Dataset:
    """string_agg shape: each customer's order keys, ascending, joined
    with ',' — see `stages/relational.group_string_agg`."""
    from ..stages.relational import group_string_agg

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey"]
    )
    return group_string_agg(
        od, by="o_custkey", col="o_orderkey", num_buckets=8
    )


def q_moving_sum(sf_dir: str) -> ray.data.Dataset:
    """ROWS-frame moving sum: each event's value cents summed with its
    user's 2 preceding events (ts, event_id order) — see
    `stages/relational.frame_window`."""
    from ..stages.events import read_events
    from ..stages.relational import frame_window

    ev = read_events(sf_dir, columns=["event_id", "ts", "user_id", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        t = t.filter(pc_.is_valid(t["value"]))
        return pa.table(
            {
                "event_id": t["event_id"],
                "ts": t["ts"],
                "user_id": t["user_id"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        )

    prep = ev.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return frame_window(
        prep,
        by="user_id",
        order_cols=["ts", "event_id"],
        col="cents",
        k=3,
        out_col="moving_cents",
        keep_cols=["event_id"],
        num_buckets=8,
    )


def q_kg_degree_hist(sf_dir: str) -> ray.data.Dataset:
    """Degree distribution of the undirected KG — see
    `stages/graph.degree_histogram`."""
    from ..stages.graph import degree_histogram
    from . import kg

    return degree_histogram(kg.stage(sf_dir, "edges"), num_buckets=16)


def q_kg_bfs(sf_dir: str) -> ray.data.Dataset:
    """BFS hop distances from the lexicographic-min entity over the
    undirected KG (≤ 6 hops) — see `stages/graph.bfs_distances`."""
    from ..stages.graph import bfs_distances
    from . import kg

    return bfs_distances(kg.stage(sf_dir, "edges"), max_hops=6)


def q_value_quantiles_sketch(sf_dir: str) -> ray.data.Dataset:
    """Approximate lineitem price quantiles via the deterministic MRL
    sketch, with the rank-error certificate in the output — rows-only
    (sketch results are block-layout-dependent by contract; exactness
    bounds are pinned in tests/test_qsketch.py) — see
    `stages/relational.value_quantiles_approx`."""
    from ..stages.relational import value_quantiles_approx

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return value_quantiles_approx(
        li, "l_extendedprice", [0.25, 0.5, 0.75, 0.99]
    )


def q_user_daily_dense(sf_dir: str) -> ray.data.Dataset:
    """Date-spine gap filling: dense per-user daily event counts (0 for
    idle days between first and last activity) — see
    `stages/events.fill_date_gaps`."""
    from ..stages.events import fill_date_gaps, read_events

    return fill_date_gaps(
        read_events(sf_dir, columns=["user_id", "ts"]), num_buckets=8
    )


def q_user_active_time(sf_dir: str) -> ray.data.Dataset:
    """Union-of-intervals active time per user (10-minute activity
    window per event, overlaps merged, exact integer µs) — see
    `stages/events.interval_coverage`."""
    from ..stages.events import interval_coverage, read_events

    return interval_coverage(
        read_events(sf_dir, columns=["user_id", "ts"]),
        length_us=600_000_000,
        num_buckets=8,
    )


def q_locf_fill(sf_dir: str) -> ray.data.Dataset:
    """LOCF gap repair: null event values take the user's most recent
    non-null value cents — see `stages/events.locf_fill`."""
    from ..stages.events import locf_fill, read_events

    return locf_fill(
        read_events(sf_dir, columns=["event_id", "ts", "user_id", "value"]),
        num_buckets=8,
    )


def q_active_users_7d(sf_dir: str) -> ray.data.Dataset:
    """EXACT trailing-7-day distinct active users per observed day —
    see `stages/events.sliding_active_users` (per-user coverage-interval
    explosion; disjoint distincts sum exactly across user buckets)."""
    from ..stages.events import read_events, sliding_active_users

    return sliding_active_users(
        read_events(sf_dir, columns=["user_id", "ts"]),
        window_days=7,
        num_buckets=8,
    )


def q_top_orders_ties(sf_dir: str) -> ray.data.Dataset:
    """Top-3 orders per customer by price cents WITH TIES (SQL RANK
    semantics) — see `stages/relational.group_topk_rank`."""
    from ..stages.relational import group_topk_rank

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "o_orderkey": t["o_orderkey"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["o_totalprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    prep = od.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return group_topk_rank(
        prep, by="o_custkey", sort_col="cents", k=3, num_buckets=8
    )


def q_users_vs_customers(sf_dir: str) -> ray.data.Dataset:
    """FULL OUTER join shape: per-user event counts ⟗ per-customer
    order counts on the shared id domain, orphans on BOTH sides kept
    with zero counts — see `stages/relational.full_outer_join`."""
    from ..stages.events import read_events
    from ..stages.relational import full_outer_join, grouped_summary

    ue = grouped_summary(
        read_events(sf_dir, columns=["user_id"]),
        by=["user_id"],
        aggs={"n_events": ("user_id", "count")},
        num_buckets=8,
    )
    oc = grouped_summary(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey"]
        ),
        by=["o_custkey"],
        aggs={"n_orders": ("o_custkey", "count")},
        num_buckets=8,
    )
    j = full_outer_join(
        ue, oc, on="user_id", right_on="o_custkey", key_out="id",
        num_buckets=8,
    )

    def _zero(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        z = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "id": t["id"],
                "n_events": pc_.fill_null(t["n_events"], z),
                "n_orders": pc_.fill_null(t["n_orders"], z),
            }
        )

    return j.map_batches(_zero, batch_format="pyarrow", zero_copy_batch=True)


def q_winsorize(sf_dir: str) -> ray.data.Dataset:
    """Winsorized event values: cents clipped to the exact [p01, p99]
    discrete quantiles — see `stages/relational.winsorize_values`."""
    from ..stages.relational import winsorize_values

    from ..stages.events import read_events

    ev = read_events(sf_dir, columns=["event_id", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        t = t.filter(pc_.is_valid(t["value"]))
        return pa.table(
            {
                "event_id": t["event_id"],
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        )

    prep = ev.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return winsorize_values(
        prep, "cents", keep_cols=["event_id"], out_col="clipped_cents"
    )


def q_time_weighted(sf_dir: str) -> ray.data.Dataset:
    """Per-user time-weighted value integral (step function, exact
    integers) — see `stages/events.time_weighted_value`."""
    from ..stages.events import read_events, time_weighted_value

    return time_weighted_value(
        read_events(sf_dir, columns=["event_id", "ts", "user_id", "value"]),
        num_buckets=8,
    )


def q_multi_grain(sf_dir: str) -> ray.data.Dataset:
    """Event counts at day/week/month grains in one pass — see
    `stages/events.multi_grain_counts`."""
    from ..stages.events import multi_grain_counts, read_events

    return multi_grain_counts(
        read_events(sf_dir, columns=["ts"]), num_buckets=4
    )


def q_user_streaks(sf_dir: str) -> ray.data.Dataset:
    """Longest consecutive-day activity streak per user — see
    `stages/events.user_streaks`."""
    from ..stages.events import read_events, user_streaks

    return user_streaks(
        read_events(sf_dir, columns=["user_id", "ts"]), num_buckets=8
    )


def q_event_journeys(sf_dir: str) -> ray.data.Dataset:
    """Top-50 user-journey trigrams (length-3 event-type windows per
    user stream, deterministic (n desc, path asc) cut) — see
    `stages/events.event_journeys`."""
    from ..stages.events import event_journeys, read_events

    return event_journeys(
        read_events(sf_dir, columns=["user_id", "ts", "event_id", "event_type"]),
        k=3,
        top=50,
        num_buckets=8,
    )


def q_event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Markov event-type transition counts per user sequence — see
    `stages/events.event_transitions`."""
    from ..stages.events import event_transitions, read_events

    return event_transitions(
        read_events(sf_dir, columns=["user_id", "ts", "event_id", "event_type"]),
        num_buckets=8,
    )


def q_event_cooccurrence(sf_dir: str) -> ray.data.Dataset:
    """Temporal co-occurrence: ordered same-user event-type pairs within
    1 hour — see `stages/events.event_cooccurrence`."""
    from ..stages.events import event_cooccurrence, read_events

    return event_cooccurrence(
        read_events(sf_dir, columns=["user_id", "ts", "event_id", "event_type"]),
        window_us=3_600_000_000,
        num_buckets=8,
    )


def q_order_global_rank(sf_dir: str) -> ray.data.Dataset:
    """Exact GLOBAL row_number + ntile(8) of every order by total price —
    the TeraSort shape (range-partition by sampled boundaries, per-range
    counts → prefix-sum offsets, per-range local sort), no single-reducer
    global sort anywhere. See `stages/relational.global_rank`."""
    from ..stages.relational import global_rank

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return global_rank(
        orders, order_col="o_totalprice", tie_col="o_orderkey", k=8
    )


def q_supplier_ranks(sf_dir: str) -> ray.data.Dataset:
    """Exact RANK / CUME_DIST integers of supplier account-balance cents
    within each nation — `stages/relational.group_ranks` over the
    supplier dimension table."""
    from ..stages.relational import group_ranks

    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    )

    def _prep(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        return pa.table(
            {
                "s_nationkey": pc_.cast(t["s_nationkey"], pa.int64()),
                "cents": pc_.cast(
                    pc_.round(pc_.multiply(t["s_acctbal"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    prep = sup.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return group_ranks(prep, by="s_nationkey", col="cents", num_buckets=4)


Q3_CUTOFF = "1998-06-01"


def q_q3_top_orders(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q3 shape: top-10 open orders by revenue for one market
    segment — a THREE-table composition where the fact side collapses
    through a combiner before any join. Revenue is the exact integer
    Σ price_cents·(10000 − discount_bp); the two big sides never meet
    raw: lineitem pre-aggregates to (orderkey, revenue) partials, the
    customer segment reduces to a broadcast key set that semi-filters
    orders, and eligible orderkeys semi-filter the aggregated revenue."""
    import datetime as dt

    from ..stages.relational import grouped_summary, membership_join

    cut = dt.datetime.fromisoformat(Q3_CUTOFF)

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def _rev(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        t = t.filter(pc_.greater(t["l_shipdate"], pa.scalar(cut)))
        cents = pc_.cast(
            pc_.round(pc_.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        )
        bp = pc_.cast(
            pc_.round(pc_.multiply(t["l_discount"], 10000.0)), pa.int64()
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "rev": pc_.multiply(cents, pc_.subtract(10000, bp)),
            }
        )

    li_rev = grouped_summary(
        li.map_batches(_rev, batch_format="pyarrow", zero_copy_batch=True),
        by=["l_orderkey"],
        aggs={"revenue": ("rev", "sum")},
        num_buckets=8,
    )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: t.filter(
            pa.compute.equal(t["c_mktsegment"], "BUILDING")
        ).select(["c_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t: t.filter(
            pa.compute.less(t["o_orderdate"], pa.scalar(cut))
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    elig = membership_join(orders, cust, on="o_custkey", right_on="c_custkey")
    top = membership_join(
        li_rev, elig, on="l_orderkey", right_on="o_orderkey"
    )
    return top.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(
        10
    )


def q_q6_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q6 shape: fully decomposable filtered revenue — one row,
    exact integer Σ price_cents·discount_bp over a predicate band
    (shipdate year, discount band, quantity cap). The read prunes to 4
    columns and every block reduces to one partial sum; the only
    'shuffle' is a single-row merge."""
    import datetime as dt

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo = dt.datetime(1996, 1, 1)
    hi = dt.datetime(1997, 1, 1)

    def _partial(t: pa.Table) -> pa.Table:
        pc_ = pa.compute
        bp = pc_.cast(
            pc_.round(pc_.multiply(t["l_discount"], 10000.0)), pa.int64()
        )
        keep = pc_.and_(
            pc_.and_(
                pc_.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc_.less(t["l_shipdate"], pa.scalar(hi)),
            ),
            pc_.and_(
                pc_.and_(
                    pc_.greater_equal(bp, 300), pc_.less_equal(bp, 700)
                ),
                pc_.less(t["l_quantity"], 24.0),
            ),
        )
        t2 = t.filter(keep)
        bp2 = pc_.cast(
            pc_.round(pc_.multiply(t2["l_discount"], 10000.0)), pa.int64()
        )
        cents = pc_.cast(
            pc_.round(pc_.multiply(t2["l_extendedprice"], 100.0)), pa.int64()
        )
        s = pc_.sum(pc_.multiply(cents, bp2)).as_py() or 0
        return pa.table(
            {
                "revenue_micros": pa.array([s], pa.int64()),
                "_one": pa.array([1], pa.int32()),
            }
        )

    from ..functions.shuffle import bucket_group_apply

    partials = li.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def _merge(t: pa.Table) -> pa.Table:
        s = pa.compute.sum(t["revenue_micros"]).as_py() or 0
        return pa.table({"revenue_micros": pa.array([s], pa.int64())})

    return bucket_group_apply(partials, "_one", _merge, num_buckets=1)


def q_monthly_revenue_delta(sf_dir: str) -> ray.data.Dataset:
    """Month-over-month order revenue deltas — per-block (month, cents)
    combiner partials, one tiny merge, then the lag window runs on the
    month-level result (a few dozen rows; first month's delta is NULL)."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    od = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.with_columns(
                month=pl.col("o_orderdate").dt.truncate("1mo").dt.date(),
                cents=(pl.col("o_totalprice") * 100).round(0).cast(pl.Int64),
            )
            .group_by("month")
            .agg(pl.col("cents").sum().alias("revenue_cents"))
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .group_by("month")
            .agg(pl.col("revenue_cents").sum())
            .sort("month")
        )
        return df.with_columns(
            delta_cents=pl.col("revenue_cents")
            - pl.col("revenue_cents").shift(1)
        ).to_arrow()

    partials = od.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "month", _merge, num_buckets=1)


def q_part_top_brands(sf_dir: str) -> ray.data.Dataset:
    """Top-3 brands per part type by part count (row_number semantics,
    brand tiebreak) — `grouped_summary` combiner counts feeding
    `group_topk`; dimension-table coverage of the top-k family."""
    from ..stages.relational import group_topk, grouped_summary

    pt = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_type", "p_brand"]
    )
    counts = grouped_summary(
        pt,
        by=["p_type", "p_brand"],
        aggs={"n": ("p_brand", "count")},
        num_buckets=8,
    )
    return group_topk(
        counts,
        by="p_type",
        sort_col="n",
        k=3,
        descending=True,
        tiebreak="p_brand",
        num_buckets=8,
    )


def q_hourly_activity(sf_dir: str) -> ray.data.Dataset:
    """Hour-of-day activity histogram over the event stream (0–23) —
    per-block combiner partials, one tiny merge."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..stages.events import read_events

    ev = read_events(sf_dir, columns=["ts"])

    def _partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(hour=pl.col("ts").dt.hour().cast(pl.Int64))
            .group_by("hour")
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t).group_by("hour").agg(pl.col("n").sum()).to_arrow()
        )

    partials = ev.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "hour", _merge, num_buckets=2)


def q_session_summary(sf_dir: str) -> ray.data.Dataset:
    """Per-user session behaviour rollup composed ON TOP of the
    verified sessionizer: session count, total events, largest session
    and total in-session dwell µs — exact integers (sessionize's own
    shuffle is the only one; the summary is a vectorized per-bucket
    second aggregate over its bounded per-user output)."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..stages.events import read_events, sessionize

    sess = sessionize(
        read_events(sf_dir, columns=["user_id", "ts"]), gap_minutes=30
    )

    def _sum(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.with_columns(
                dwell=pl.col("session_end").cast(pl.Int64)
                - pl.col("session_start").cast(pl.Int64)
            )
            .group_by("user_id")
            .agg(
                pl.len().cast(pl.Int64).alias("n_sessions"),
                pl.col("n_events").sum().alias("n_events"),
                pl.col("n_events").max().alias("max_session_events"),
                pl.col("dwell").sum().alias("dwell_us"),
            )
            .to_arrow()
        )

    return bucket_group_apply(sess, "user_id", _sum, num_buckets=8)


def q_weekday_heatmap(sf_dir: str) -> ray.data.Dataset:
    """Weekday × event-type activity heatmap counts (ISO weekday,
    Monday=1 on both engines) — per-block combiner partials, tiny
    merge."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..stages.events import read_events

    ev = read_events(sf_dir, columns=["ts", "event_type"])

    def _partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(
                dow=pl.col("ts").dt.weekday().cast(pl.Int64),
                event_type=pl.col("event_type"),
            )
            .group_by(["dow", "event_type"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
        )

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["dow", "event_type"])
            .agg(pl.col("n").sum())
            .to_arrow()
        )

    partials = ev.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, "event_type", _merge, num_buckets=2)


def q_above_avg_orders(sf_dir: str) -> ray.data.Dataset:
    """Correlated-subquery shape: orders strictly above their
    customer's average order value — exact integers (n·v > S, no
    division), one custkey-bucketed shuffle, group cardinality
    unbounded — see `stages/relational.above_group_mean`."""
    from ..stages.relational import above_group_mean

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "price_cents": pa.compute.cast(
                    pa.compute.round(
                        pa.compute.multiply(t["o_totalprice"], 100.0)
                    ),
                    pa.int64(),
                ),
            }
        )

    prep = ords.map_batches(_prep, batch_format="pyarrow", zero_copy_batch=True)
    return above_group_mean(
        prep,
        by="o_custkey",
        col="price_cents",
        keep=["o_orderkey", "o_custkey", "price_cents"],
        num_buckets=32,
    )


def q_doc_repetition(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition quality signals per doc (token count,
    distinct tokens, top-token share ppm) — stateless map, no shuffle;
    see `functions/textstats.repetition_stats`."""
    from ..functions.textstats import repetition_stats

    return read_documents(sf_dir).map_batches(
        repetition_stats, batch_format="pyarrow", zero_copy_batch=True
    )


def q_doc_chunks(sf_dir: str) -> ray.data.Dataset:
    """RAG-style 50-token chunking of every document (pre-embedding
    segmentation) — stateless vectorized flat-map; see
    `functions/textstats.chunk_tokens`."""
    from functools import partial

    from ..functions.textstats import chunk_tokens

    return read_documents(sf_dir).map_batches(
        partial(chunk_tokens, chunk_size=50),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_users_cumulative(sf_dir: str) -> ray.data.Dataset:
    """Cumulative distinct users per day — exact via the first-seen-day
    decomposition (no user set ever held anywhere); see
    `stages/events.cumulative_users`."""
    from ..stages.events import cumulative_users, read_events

    return cumulative_users(read_events(sf_dir, columns=["user_id", "ts"]))


def q_group_outliers(sf_dir: str) -> ray.data.Dataset:
    """Per-event-type >2σ high outliers in exact integer arithmetic —
    see `stages/events.group_outliers` (isqrt threshold trick)."""
    from ..stages.events import group_outliers, read_events

    return group_outliers(read_events(sf_dir), sigma=2)


def q_session_overlap(sf_dir: str) -> ray.data.Dataset:
    """Interval-overlap join demo: per user, browsing sessions
    (click/view, 24 h gap) that overlap transactional sessions
    (purchase/error, same gap) → one row per overlapping session pair
    with both spans and the exact overlap length in µs.

    Two sessionize passes (each one user-bucketed shuffle) feed
    `relational.interval_join` — the interval×interval sibling of
    range_join: candidates via two searchsorteds over right starts
    widened by the bucket max right length, exact end-bound filter
    after. All arithmetic is int64 microseconds."""
    from ..stages.events import read_events, sessionize
    from ..stages.relational import interval_join

    ev = read_events(sf_dir, columns=["user_id", "ts", "event_type"])

    def _only(types: tuple[str, ...]):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.is_in(t["event_type"], value_set=pa.array(types))
            return t.filter(keep).select(["user_id", "ts"])

        return f

    browse = sessionize(
        ev.map_batches(
            _only(("click", "view")),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        gap_minutes=24 * 60,
    )
    txn = sessionize(
        ev.map_batches(
            _only(("purchase", "error")),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        gap_minutes=24 * 60,
    )

    pairs = interval_join(
        browse,
        txn,
        by="user_id",
        left_span=("session_start", "session_end"),
        right_span=("session_start", "session_end"),
        left_cols=["user_id", "session_start", "session_end"],
        right_cols=["session_start", "session_end"],
        num_buckets=32,
    )

    def _shape(t: pa.Table) -> pa.Table:
        bs = t["l_session_start"].combine_chunks().cast(pa.int64())
        be = t["l_session_end"].combine_chunks().cast(pa.int64())
        ts_ = t["r_session_start"].combine_chunks().cast(pa.int64())
        te = t["r_session_end"].combine_chunks().cast(pa.int64())
        ov = pc.subtract(pc.min_element_wise(be, te), pc.max_element_wise(bs, ts_))
        return pa.table(
            {
                "user_id": t["l_user_id"],
                "b_start": t["l_session_start"],
                "b_end": t["l_session_end"],
                "t_start": t["r_session_start"],
                "t_end": t["r_session_end"],
                "overlap_us": ov,
            }
        )

    return pairs.map_batches(
        _shape, batch_format="pyarrow", zero_copy_batch=True
    )


# --- TPC-H join-shape compositions (Q4/Q14/Q15/Q17/Q18/Q22) ----------------
#
# Adapted to the driver tables' columns (no commitdate/receiptdate/partsupp),
# each exercises a DIFFERENT distributed-join composition than the Q1/Q3/Q6/
# Q9/Q13 shapes above. Money/quantity stay exact int64 (cents / basis points)
# end to end so every one is hash-exact against its DuckDB oracle.


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


def _bp(col: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.cast(pc.round(pc.multiply(col, 10000.0)), pa.int64())


def q_q4_order_priority(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q4 shape: EXISTS-semi-join into a grouped count — orders in
    one quarter having at least one RETURNED lineitem, counted per
    priority. The fact side never joins raw: returned lineitems reduce
    to a distinct orderkey set (membership_join builds it distributed
    and broadcasts under its guard), the date window prunes orders at
    the read, and the surviving rows collapse through the Q1-style
    per-block combiner."""
    import datetime as dt

    from ..stages.relational import grouped_summary, membership_join

    lo, hi = dt.datetime(1997, 1, 1), dt.datetime(1997, 4, 1)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        ).select(["o_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    returned = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["l_returnflag"], "R")).select(
            ["l_orderkey"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    hit = membership_join(orders, returned, on="o_orderkey", right_on="l_orderkey")
    out = grouped_summary(
        hit,
        by=["o_orderpriority"],
        aggs={"order_count": ("o_orderkey", "count")},
        num_buckets=4,
    )
    return out.sort("o_orderpriority")


def q_q14_promo_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q14 shape: conditional-vs-total revenue split over a
    fact⋈dim join for one ship month — the dim attribute (p_type)
    decides which bucket each fact row lands in, so the join cannot be
    pre-aggregated away. `join_auto` broadcasts the 2-column part dim
    (shuffle join above its guard); both sums reduce per block to one
    partial row, so the post-join exchange is O(blocks)."""
    import datetime as dt

    from ..functions.joins import join_auto

    lo, hi = dt.datetime(1997, 9, 1), dt.datetime(1997, 10, 1)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        ).select(["l_partkey", "l_extendedprice", "l_discount"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    joined = join_auto(li, part, on=("l_partkey",), right_on=("p_partkey",))

    def _partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(10000, pa.int64()), _bp(t["l_discount"])),
        )
        promo = pc.if_else(
            pc.equal(t["p_type"], "PROMO"), rev, pa.scalar(0, pa.int64())
        )
        return pa.table(
            {
                "promo_rev": pa.array(
                    [pc.sum(promo).as_py() or 0], pa.int64()
                ),
                "total_rev": pa.array([pc.sum(rev).as_py() or 0], pa.int64()),
            }
        )

    def _merge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "promo_rev": pa.array(
                    [pc.sum(t["promo_rev"]).as_py() or 0], pa.int64()
                ),
                "total_rev": pa.array(
                    [pc.sum(t["total_rev"]).as_py() or 0], pa.int64()
                ),
            }
        )

    partials = joined.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.repartition(1).map_batches(
        _merge, batch_format="pyarrow", zero_copy_batch=True
    )


def q_q15_top_supplier(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q15 shape: argmax-by-group against a GLOBAL scalar — the
    supplier(s) whose half-year revenue equals the maximum. Revenue per
    supplier is one combiner shuffle (output is supplier-dim-sized,
    so materializing it to take the max is a documented tiny
    reduction, not a corpus collect); ties survive exactly because the
    filter is integer equality."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    lo, hi = dt.datetime(1997, 1, 1), dt.datetime(1997, 7, 1)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_suppkey": (
                    f := t.filter(
                        pc.and_(
                            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                            pc.less(t["l_shipdate"], pa.scalar(hi)),
                        )
                    )
                )["l_suppkey"],
                "rev": pc.multiply(
                    _cents(f["l_extendedprice"]),
                    pc.subtract(
                        pa.scalar(10000, pa.int64()), _bp(f["l_discount"])
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    rev = grouped_summary(
        li,
        by=["l_suppkey"],
        aggs={"total_revenue": ("rev", "sum")},
        num_buckets=8,
    ).materialize()  # supplier-dim-sized (|suppliers| rows)
    best = rev.max("total_revenue")
    top = rev.filter(expr=f"total_revenue == {best}")
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = join_auto(supp, top, on=("s_suppkey",), right_on=("l_suppkey",))
    return out.select_columns(["s_suppkey", "s_name", "total_revenue"]).sort(
        "s_suppkey"
    )


def q_q17_small_qty_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q17 shape: correlated per-group average on the FACT side —
    revenue of one brand's lineitems whose quantity is below 20% of
    that part's own average quantity. The brand's partkeys semi-filter
    lineitem (broadcast key set), the per-part (count, sum-qty) is one
    combiner shuffle over the filtered subset, and the comparison is
    the exact integer cross-multiplication 5·qty·cnt < sum_qty — no
    float division anywhere. Output: one row, total revenue in cents."""
    from ..functions.joins import join_auto
    from ..stages.relational import membership_join

    brand_parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["p_brand"], "Brand#4")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    lp = membership_join(li, brand_parts, on="l_partkey", right_on="p_partkey")

    def _qty_int(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
                "price_cents": _cents(t["l_extendedprice"]),
            }
        )

    lp = lp.map_batches(_qty_int, batch_format="pyarrow", zero_copy_batch=True)

    from ..stages.relational import grouped_summary

    ag = grouped_summary(
        lp,
        by=["l_partkey"],
        aggs={"cnt": ("qty", "count"), "sum_qty": ("qty", "sum")},
        num_buckets=4,
    )
    joined = join_auto(lp, ag, on=("l_partkey",))

    def _partial(t: pa.Table) -> pa.Table:
        lhs = pc.multiply(
            pc.multiply(pa.scalar(5, pa.int64()), t["qty"]), t["cnt"]
        )
        keep = pc.less(lhs, t["sum_qty"])
        s = pc.sum(pc.if_else(keep, t["price_cents"], pa.scalar(0, pa.int64())))
        return pa.table({"revenue_cents": pa.array([s.as_py() or 0], pa.int64())})

    partials = joined.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.repartition(1).map_batches(
        lambda t: pa.table(
            {
                "revenue_cents": pa.array(
                    [pc.sum(t["revenue_cents"]).as_py() or 0], pa.int64()
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_q18_volume_customers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q18 shape: HAVING-filtered grouped fact joined back into
    two dims — orders whose total lineitem quantity exceeds 170 units,
    with their customer names. The per-order quantity rollup is one
    combiner shuffle; only the qualifying (rare) orders join the orders
    and customer dims via `join_auto`, so the big fact never meets a
    dim raw."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    per_order = grouped_summary(
        li,
        by=["l_orderkey"],
        aggs={"total_qty": ("qty", "sum")},
        num_buckets=8,
    ).filter(expr="total_qty > 170")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    with_orders = join_auto(
        orders, per_order, on=("o_orderkey",), right_on=("l_orderkey",)
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    out = join_auto(with_orders, cust, on=("o_custkey",), right_on=("c_custkey",))
    return out.select_columns(
        ["c_name", "o_custkey", "o_orderkey", "o_orderdate", "total_qty"]
    ).sort(["total_qty", "o_orderkey"], descending=[True, False])


def q_q22_idle_customers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q22 shape: global-scalar threshold + NOT-EXISTS anti-join —
    per market segment, the count and balance of above-average-balance
    customers with no orders since 2000. The positive-balance average
    is an exact integer cross-multiplication (bal·n_pos > sum_pos, no
    division); the anti side reduces recent orders to a distinct
    custkey set inside `membership_join(anti=True)`. One tiny combiner
    finishes per segment."""
    import datetime as dt

    from ..stages.relational import grouped_summary, membership_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    ).map_batches(
        lambda t: pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_mktsegment": t["c_mktsegment"],
                "bal_cents": _cents(t["c_acctbal"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _pos_partial(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["bal_cents"], 0))
        return pa.table(
            {
                "n": pa.array([pos.num_rows], pa.int64()),
                "s": pa.array(
                    [pc.sum(pos["bal_cents"]).as_py() or 0], pa.int64()
                ),
            }
        )

    stats = (
        cust.map_batches(
            _pos_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .repartition(1)
        .map_batches(
            lambda t: pa.table(
                {
                    "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                    "s": pa.array([pc.sum(t["s"]).as_py() or 0], pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()  # one row: global (n_pos, sum_pos) — broadcast scalars
    )
    n_pos, sum_pos = stats[0]["n"], stats[0]["s"]

    rich = cust.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.multiply(t["bal_cents"], pa.scalar(n_pos, pa.int64())),
                pa.scalar(sum_pos, pa.int64()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    cut = dt.datetime(2000, 1, 1)
    recent = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["o_orderdate"], pa.scalar(cut))
        ).select(["o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    idle = membership_join(
        rich, recent, on="c_custkey", right_on="o_custkey", anti=True
    )
    out = grouped_summary(
        idle,
        by=["c_mktsegment"],
        aggs={
            "numcust": ("c_custkey", "count"),
            "totacctbal_cents": ("bal_cents", "sum"),
        },
        num_buckets=4,
    )
    return out.sort("c_mktsegment")


def q_q10_returned_items(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q10 shape: four-table composition ranking customers by
    revenue lost to RETURNED items in one quarter. The fact collapses
    per orderkey through the combiner BEFORE meeting orders (so the
    biggest join ships one row per order, not per lineitem), the
    quarter prunes orders at the read, the per-customer rollup is a
    second tiny combiner, and the customer + nation dims ride
    `join_auto` broadcasts. Top 20 by exact integer revenue."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": (
                    f := t.filter(pc.equal(t["l_returnflag"], "R"))
                )["l_orderkey"],
                "rev": pc.multiply(
                    _cents(f["l_extendedprice"]),
                    pc.subtract(
                        pa.scalar(10000, pa.int64()), _bp(f["l_discount"])
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    per_order = grouped_summary(
        li, by=["l_orderkey"], aggs={"rev": ("rev", "sum")}, num_buckets=8
    )

    lo, hi = dt.datetime(1996, 1, 1), dt.datetime(1996, 4, 1)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    in_window = join_auto(
        per_order, orders, on=("l_orderkey",), right_on=("o_orderkey",)
    )
    per_cust = grouped_summary(
        in_window,
        by=["o_custkey"],
        aggs={"revenue": ("rev", "sum")},
        num_buckets=8,
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    with_cust = join_auto(
        per_cust, cust, on=("o_custkey",), right_on=("c_custkey",)
    )
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    out = join_auto(
        with_cust, nation, on=("c_nationkey",), right_on=("n_nationkey",)
    )
    return (
        out.map_batches(
            lambda t: pa.table(
                {
                    # join_auto keeps the LEFT key name; restore the dim's
                    "c_custkey": t["o_custkey"],
                    "c_name": t["c_name"],
                    "n_name": t["n_name"],
                    "revenue": t["revenue"],
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(["revenue", "c_custkey"], descending=[True, False])
        .limit(20)
    )


def q_q16_supplier_counts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q16 shape: COUNT(DISTINCT supplier) per part attribute
    with a NOT-IN supplier blocklist — the exact-distinct-after-joins
    composition. The blocklist (negative-balance suppliers) anti-
    filters the fact via `membership_join(anti=True)`; small parts
    semi-filter it; the part dim broadcasts attributes; then distinct
    (brand, type, suppkey) triples reduce per block and merge in ONE
    brand-bucketed shuffle where the distinct count is exact — the
    decomposition that keeps COUNT(DISTINCT) off a single reducer."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from ..stages.relational import membership_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    bad_supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).map_batches(
        lambda t: t.filter(pc.less(t["s_acctbal"], 0.0)).select(
            ["s_suppkey"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = membership_join(
        li, bad_supp, on="l_suppkey", right_on="s_suppkey", anti=True
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).map_batches(
        lambda t: t.filter(pc.less_equal(t["p_size"], 10)).select(
            ["p_partkey", "p_brand", "p_type"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    joined = join_auto(li, part, on=("l_partkey",), right_on=("p_partkey",))

    def _distinct(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["p_brand", "p_type", "l_suppkey"]))
            .unique()
            .to_arrow()
        )

    def _count(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("p_brand", pa.string()),
                ("p_type", pa.string()),
                ("supplier_cnt", pa.int64()),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .unique()
            .group_by(["p_brand", "p_type"])
            .agg(
                pl.col("l_suppkey")
                .n_unique()
                .cast(pl.Int64)
                .alias("supplier_cnt")
            )
            .to_arrow()
            .cast(out_schema)
        )

    partial = joined.map_batches(
        _distinct, batch_format="pyarrow", zero_copy_batch=True
    )
    out = bucket_group_apply(partial, "p_brand", _count, num_buckets=8)
    return out.sort(
        ["supplier_cnt", "p_brand", "p_type"], descending=[True, False, False]
    )


def q_q2_min_cost_shipper(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q2 shape: groupwise ARGMIN through a join — per part type,
    the lowest-balance supplier among the suppliers that actually
    shipped that type (ties break on suppkey). Distinct (type, supp)
    pairs reduce per block and merge in one type-bucketed shuffle, the
    supplier dim broadcasts its balance, and `group_topk(k=1)` finishes
    — the fact never meets the dim raw."""
    import polars as pl

    from ..functions.joins import join_auto
    from ..functions.shuffle import bucket_group_apply
    from ..stages.relational import group_topk

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    joined = join_auto(li, part, on=("l_partkey",), right_on=("p_partkey",))

    def _distinct(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["p_type", "l_suppkey"]))
            .unique()
            .to_arrow()
        )

    def _uniq(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        return pl.from_arrow(t).unique().to_arrow()

    pairs = bucket_group_apply(
        joined.map_batches(
            _distinct, batch_format="pyarrow", zero_copy_batch=True
        ),
        "p_type",
        _uniq,
        num_buckets=8,
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).map_batches(
        lambda t: pa.table(
            {
                "s_suppkey": t["s_suppkey"],
                "acctbal_cents": _cents(t["s_acctbal"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    withbal = join_auto(
        pairs, supp, on=("l_suppkey",), right_on=("s_suppkey",)
    )
    best = group_topk(
        withbal,
        by="p_type",
        sort_col="acctbal_cents",
        k=1,
        descending=False,
        tiebreak="l_suppkey",
        num_buckets=4,
    )
    return best.map_batches(
        lambda t: pa.table(
            {
                "p_type": t["p_type"],
                "s_suppkey": t["l_suppkey"],
                "acctbal_cents": t["acctbal_cents"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).sort("p_type")


def q_event_bursts(sf_dir: str) -> ray.data.Dataset:
    """Peak-load detector: per user, the MAXIMUM number of events in
    any sliding 1-hour window (anchored at each event) → (user_id,
    max_burst). One user-bucketed shuffle; inside a bucket the window
    count is a vectorized two-sided searchsorted over the sorted int64
    µs timestamps — never the O(n²) self-join the SQL mirror spells."""
    import numpy as np
    import polars as pl

    from ..functions.shuffle import bucket_group_apply
    from ..stages.events import read_events

    HOUR_US = 3_600_000_000
    OUT = pa.schema([("user_id", pa.int64()), ("max_burst", pa.int64())])

    def _per_user(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        df = (
            pl.from_arrow(t.select(["user_id", "ts"]))
            .with_columns(ts_us=pl.col("ts").cast(pl.Int64))
            .sort(["user_id", "ts_us"])
        )
        users = df["user_id"].to_numpy()
        ts = df["ts_us"].to_numpy()
        starts = np.flatnonzero(
            np.concatenate(([True], users[1:] != users[:-1]))
        )
        ends = np.concatenate((starts[1:], [len(users)]))
        out_u, out_b = [], []
        for s, e in zip(starts, ends):
            seg = ts[s:e]
            hi = np.searchsorted(seg, seg + HOUR_US, side="right")
            lo = np.arange(len(seg))
            out_u.append(users[s])
            out_b.append(int((hi - lo).max()))
        return pa.table(
            {
                "user_id": pa.array([int(u) for u in out_u], pa.int64()),
                "max_burst": pa.array(out_b, pa.int64()),
            }
        )

    ev = read_events(sf_dir, columns=["user_id", "ts"])
    return bucket_group_apply(ev, "user_id", _per_user, num_buckets=32).sort(
        "user_id"
    )


def q_q7_nation_volume(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q7 shape: shipping volume between two nations per order
    year — the widest composition in the suite (lineitem + orders +
    customer + supplier + nation×2). The nation predicate pushes ALL
    the way down: the two nations' supplier/customer key sets broadcast
    as semi-filters on the fact and on orders BEFORE any attribute
    join, the fact collapses per (orderkey, suppkey) through the
    combiner, and the surviving rows (two nations' trade only) ride
    broadcast attribute joins. Exact int64 revenue."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary, membership_join

    NA, NB = "NATION_12", "NATION_13"
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t["n_name"], value_set=pa.array([NA, NB]))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    supp = join_auto(
        ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        ),
        nation.map_batches(
            lambda t: t.rename_columns(["s_nk", "supp_nation"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("s_nationkey",),
        right_on=("s_nk",),
    )
    cust = join_auto(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        ),
        nation.map_batches(
            lambda t: t.rename_columns(["c_nk", "cust_nation"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("c_nationkey",),
        right_on=("c_nk",),
    )

    lo, hi = dt.datetime(1996, 1, 1), dt.datetime(1998, 1, 1)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": (
                    f := t.filter(
                        pc.and_(
                            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                            pc.less(t["l_shipdate"], pa.scalar(hi)),
                        )
                    )
                )["l_orderkey"],
                "l_suppkey": f["l_suppkey"],
                "rev": pc.multiply(
                    _cents(f["l_extendedprice"]),
                    pc.subtract(
                        pa.scalar(10000, pa.int64()), _bp(f["l_discount"])
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = membership_join(li, supp, on="l_suppkey", right_on="s_suppkey")
    per_os = grouped_summary(
        li,
        by=["l_orderkey", "l_suppkey"],
        aggs={"rev": ("rev", "sum")},
        num_buckets=8,
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    orders = membership_join(orders, cust, on="o_custkey", right_on="c_custkey")
    w_ord = join_auto(
        per_os, orders, on=("l_orderkey",), right_on=("o_orderkey",)
    )
    w_cn = join_auto(w_ord, cust, on=("o_custkey",), right_on=("c_custkey",))
    w_sn = join_auto(w_cn, supp, on=("l_suppkey",), right_on=("s_suppkey",))

    def _year(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["supp_nation"], t["cust_nation"])
        f = t.filter(keep)
        return pa.table(
            {
                "supp_nation": f["supp_nation"],
                "cust_nation": f["cust_nation"],
                "yr": pc.cast(pc.year(f["o_orderdate"]), pa.int64()),
                "rev": f["rev"],
            }
        )

    shaped = w_sn.map_batches(
        _year, batch_format="pyarrow", zero_copy_batch=True
    )
    out = grouped_summary(
        shaped,
        by=["supp_nation", "cust_nation", "yr"],
        aggs={"revenue": ("rev", "sum")},
        num_buckets=4,
    )
    return out.sort(["supp_nation", "cust_nation", "yr"])


def q_q19_disjunctive_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q19 shape: revenue under a DISJUNCTION of brand × size ×
    quantity bands — the predicate that cannot be pushed as one
    conjunctive filter; the whole OR evaluates vectorized in one pass
    over the joined batch. Part dim broadcasts 3 columns; every block
    reduces to one int64 partial."""
    from ..functions.joins import join_auto

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    joined = join_auto(li, part, on=("l_partkey",), right_on=("p_partkey",))

    BANDS = [("Brand#4", 1, 15, 1, 10), ("Brand#2", 10, 25, 1, 25),
             ("Brand#19", 20, 35, 1, 40)]

    def _partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        mask = None
        for brand, qlo, qhi, slo, shi in BANDS:
            m = pc.and_(
                pc.and_(
                    pc.equal(t["p_brand"], brand),
                    pc.and_(
                        pc.greater_equal(qty, qlo), pc.less_equal(qty, qhi)
                    ),
                ),
                pc.and_(
                    pc.greater_equal(t["p_size"], slo),
                    pc.less_equal(t["p_size"], shi),
                ),
            )
            mask = m if mask is None else pc.or_(mask, m)
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(10000, pa.int64()), _bp(t["l_discount"])),
        )
        s = pc.sum(pc.if_else(mask, rev, pa.scalar(0, pa.int64())))
        return pa.table({"revenue": pa.array([s.as_py() or 0], pa.int64())})

    return (
        joined.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(
            lambda t: pa.table(
                {
                    "revenue": pa.array(
                        [pc.sum(t["revenue"]).as_py() or 0], pa.int64()
                    )
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def q_q12_late_shipments(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q12 shape (adapted: no commitdate column): per order
    priority, how many lineitems shipped LATE (> 90 days after the
    order date) vs total — the cross-table date comparison that only
    exists after the fact⋈orders join. The fact prunes to 2 columns,
    the join is the one big-big exchange (`join_auto` co-buckets at
    scale), and both counts reduce per block to priority-sized
    partials. Pure int64 day arithmetic on µs timestamps."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    joined = join_auto(li, orders, on=("l_orderkey",), right_on=("o_orderkey",))

    NINETY_US = 90 * 86_400_000_000

    def _flag(t: pa.Table) -> pa.Table:
        ship = pc.cast(t["l_shipdate"], pa.int64())
        odate = pc.cast(t["o_orderdate"], pa.int64())
        late = pc.greater(pc.subtract(ship, odate), NINETY_US)
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "late": pc.cast(late, pa.int64()),
                "one": pa.array([1] * t.num_rows, pa.int64()),
            }
        )

    flagged = joined.map_batches(
        _flag, batch_format="pyarrow", zero_copy_batch=True
    )
    out = grouped_summary(
        flagged,
        by=["o_orderpriority"],
        aggs={"n_late": ("late", "sum"), "n_total": ("one", "count")},
        num_buckets=4,
    )
    return out.sort("o_orderpriority")


def q_q8_market_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q8 shape: one nation's share of a market — per order year,
    revenue shipped BY NATION_12's suppliers TO NATION_13's customers
    vs ALL suppliers' revenue to those customers. The within-group
    conditional/total sum pair stays exact int64 (the share is consumer
    arithmetic); the market (customer nation) semi-filters orders
    before the fact joins, the supplier nation rides a broadcast flag."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary, membership_join

    market_cust = join_auto(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        ),
        ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        ).map_batches(
            lambda t: t.filter(pc.equal(t["n_name"], "NATION_13")).select(
                ["n_nationkey"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("c_nationkey",),
        right_on=("n_nationkey",),
    )
    home_supp = join_auto(
        ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        ),
        ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        ).map_batches(
            lambda t: t.filter(pc.equal(t["n_name"], "NATION_12")).select(
                ["n_nationkey"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=("s_nationkey",),
        right_on=("n_nationkey",),
    )

    lo, hi = dt.datetime(1996, 1, 1), dt.datetime(1998, 1, 1)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": (
                    f := t.filter(
                        pc.and_(
                            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                            pc.less(t["l_shipdate"], pa.scalar(hi)),
                        )
                    )
                )["l_orderkey"],
                "l_suppkey": f["l_suppkey"],
                "rev": pc.multiply(
                    _cents(f["l_extendedprice"]),
                    pc.subtract(
                        pa.scalar(10000, pa.int64()), _bp(f["l_discount"])
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = membership_join(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ),
        market_cust,
        on="o_custkey",
        right_on="c_custkey",
    )
    in_market = join_auto(
        li, orders, on=("l_orderkey",), right_on=("o_orderkey",)
    )
    flagged = membership_join(
        in_market, home_supp, on="l_suppkey", right_on="s_suppkey"
    ).map_batches(
        lambda t: pa.table(
            {
                "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "home_rev": t["rev"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    total = in_market.map_batches(
        lambda t: pa.table(
            {
                "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "total_rev": t["rev"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    home_g = grouped_summary(
        flagged, by=["yr"], aggs={"home_rev": ("home_rev", "sum")}, num_buckets=2
    )
    total_g = grouped_summary(
        total, by=["yr"], aggs={"total_rev": ("total_rev", "sum")}, num_buckets=2
    )
    out = join_auto(
        total_g, home_g, on=("yr",), join_type="left_outer"
    ).map_batches(
        lambda t: pa.table(
            {
                "yr": t["yr"],
                "home_rev": pc.fill_null(t["home_rev"], 0),
                "total_rev": t["total_rev"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return out.sort("yr")


def q_fk_audit(sf_dir: str) -> ray.data.Dataset:
    """Referential-integrity audit across the warehouse's four foreign
    keys → one row per FK: ``(fk, n_rows, n_orphans)``. Each check is a
    decomposable row count plus a distributed ANTI membership join (the
    dim reduces to a distinct key set, broadcast under the guard) — the
    fact tables stream, nothing joins raw. The first report a data
    platform runs after every load."""
    from ..stages.relational import membership_join

    def _audit(fk, fact, fcol, dim, dcol):
        f = ray.data.read_parquet(f"{sf_dir}/{fact}.parquet", columns=[fcol])
        d = ray.data.read_parquet(f"{sf_dir}/{dim}.parquet", columns=[dcol])
        n_rows = f.count()
        n_orphans = membership_join(
            f, d, on=fcol, right_on=dcol, anti=True
        ).count()
        return {"fk": fk, "n_rows": n_rows, "n_orphans": n_orphans}

    checks = [
        ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
        ("lineitem.l_partkey->part", "lineitem", "l_partkey",
         "part", "p_partkey"),
        ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey",
         "supplier", "s_suppkey"),
        ("orders.o_custkey->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
    ]
    rows = [_audit(*c) for c in checks]
    return ray.data.from_arrow(
        pa.table(
            {
                "fk": pa.array([r["fk"] for r in rows], pa.string()),
                "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
                "n_orphans": pa.array(
                    [r["n_orphans"] for r in rows], pa.int64()
                ),
            }
        )
    )


def q_q11_important_parts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q11 shape (important stock): grouped value rollup kept
    only above a GLOBAL-scalar threshold — per-part shipped value from
    region-0 suppliers, keeping parts worth more than 2× the average
    part value. Completes the Q11 slot without a partsupp table: the
    value rollup runs over lineitem, the supplier⋈nation region filter
    is a tiny semi-join membership set, and the (total, n_parts)
    scalars come from re-aggregating the ALREADY-GROUPED per-part
    result (|parts| rows, never the fact), broadcast back as an exact
    integer cross-multiplication ``value·n > 2·total`` — no division,
    so the oracle compare is float-free."""
    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary, membership_join

    nations = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).filter(expr="n_regionkey == 0")
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    region_supp = join_auto(
        supp, nations, on=("s_nationkey",), right_on=("n_nationkey",)
    ).select_columns(["s_suppkey"])

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    ).map_batches(
        lambda t: pa.table(
            {
                "l_partkey": t["l_partkey"],
                "l_suppkey": t["l_suppkey"],
                "value_cents": _cents(t["l_extendedprice"]),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = membership_join(li, region_supp, on="l_suppkey", right_on="s_suppkey")
    per_part = grouped_summary(
        li,
        by=["l_partkey"],
        aggs={"value_cents": ("value_cents", "sum")},
        num_buckets=8,
    )

    def _partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "t": pa.array(
                    [pc.sum(t["value_cents"]).as_py() or 0], pa.int64()
                ),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    stats = (
        per_part.map_batches(
            _partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .repartition(1)
        .map_batches(
            lambda t: pa.table(
                {
                    "t": pa.array([pc.sum(t["t"]).as_py() or 0], pa.int64()),
                    "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()  # one row: (total value, n parts) — broadcast scalars
    )
    total, n_parts = stats[0]["t"], stats[0]["n"]

    keep = per_part.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.multiply(t["value_cents"], pa.scalar(n_parts, pa.int64())),
                pa.scalar(2 * total, pa.int64()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return keep.sort(
        ["value_cents", "l_partkey"], descending=[True, False]
    )


def q_q20_dominant_suppliers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q20 shape (excess-stock suppliers): nested
    correlated-aggregate semi-join — suppliers who, for SOME 'small *'
    part, shipped more than half that part's total 1997 quantity. The
    correlated inner aggregate (per-part total) is a re-aggregation of
    the already-grouped (part, supplier) rollup, so the fact is
    grouped once; the threshold join moves |parts| rows; the final
    DISTINCT supplier set is |suppliers|-sized before it ever meets
    the supplier dim. Exact integer doubling ``2·q > total`` keeps the
    oracle float-free."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary, membership_join

    small_parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda t: t.filter(
            pc.starts_with(t["p_name"], "small ")
        ).select(["p_partkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    lo, hi = dt.datetime(1997, 1, 1), dt.datetime(1998, 1, 1)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(
        lambda t: (
            lambda f: pa.table(
                {
                    "l_partkey": f["l_partkey"],
                    "l_suppkey": f["l_suppkey"],
                    "qty": pc.cast(pc.round(f["l_quantity"]), pa.int64()),
                }
            )
        )(
            t.filter(
                pc.and_(
                    pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)),
                )
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = membership_join(li, small_parts, on="l_partkey", right_on="p_partkey")
    sq = grouped_summary(
        li,
        by=["l_partkey", "l_suppkey"],
        aggs={"q": ("qty", "sum")},
        num_buckets=8,
    )
    pt = grouped_summary(
        sq, by=["l_partkey"], aggs={"tq": ("q", "sum")}, num_buckets=4
    )
    dominant = join_auto(sq, pt, on=("l_partkey",)).map_batches(
        lambda t: t.filter(
            pc.greater(pc.multiply(t["q"], pa.scalar(2, pa.int64())), t["tq"])
        ).select(["l_suppkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    distinct_supp = grouped_summary(
        dominant,
        by=["l_suppkey"],
        aggs={"n": ("l_suppkey", "count")},
        num_buckets=4,
    ).select_columns(["l_suppkey"])
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = join_auto(
        supp, distinct_supp, on=("s_suppkey",), right_on=("l_suppkey",)
    )
    return out.select_columns(["s_suppkey", "s_name"]).sort("s_suppkey")


def q_q21_waiting_suppliers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q21 shape (suppliers who kept orders waiting): the
    double-correlated EXISTS / NOT-EXISTS self-join on the fact —
    suppliers whose lineitem shipped >90 days after the order date on
    a finished ('F') order where OTHER suppliers shipped on time
    (multi-supplier order, exactly one late supplier). No
    commit/receipt dates in this corpus, so "late" is
    ``l_shipdate > o_orderdate + 90 days``; the EXISTS/NOT-EXISTS pair
    collapses into one (order → distinct-supplier, late-supplier)
    rollup: two grouped_summary passes over (order, supplier) partials
    replace the reference's two correlated subqueries, so the fact
    shuffles once. ``max(suppkey WHERE late)`` is THE late supplier
    whenever ``n_late = 1`` — the only rows kept."""
    import datetime as dt

    from ..functions.joins import join_auto
    from ..stages.relational import grouped_summary

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(
        lambda t: t.filter(
            pc.equal(t["o_orderstatus"], "F")
        ).select(["o_orderkey", "o_orderdate"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    joined = join_auto(li, orders, on=("l_orderkey",), right_on=("o_orderkey",))

    grace = dt.timedelta(days=90)

    def _flag(t: pa.Table) -> pa.Table:
        late = pc.cast(
            pc.greater(
                t["l_shipdate"], pc.add(t["o_orderdate"], pa.scalar(grace))
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_suppkey": t["l_suppkey"],
                "late": late,
                "late_supp": pc.if_else(
                    pc.equal(late, 1),
                    t["l_suppkey"],
                    pa.nulls(t.num_rows, pa.int64()),
                ),
            }
        )

    flagged = joined.map_batches(
        _flag, batch_format="pyarrow", zero_copy_batch=True
    )
    lo = grouped_summary(
        flagged,
        by=["l_orderkey", "l_suppkey"],
        aggs={"late": ("late", "max"), "late_supp": ("late_supp", "max")},
        num_buckets=8,
    )
    per_order = grouped_summary(
        lo,
        by=["l_orderkey"],
        aggs={
            "n_supp": ("l_suppkey", "count"),
            "n_late": ("late", "sum"),
            "late_supp": ("late_supp", "max"),
        },
        num_buckets=8,
    )
    waiting = per_order.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater(t["n_supp"], 1), pc.equal(t["n_late"], 1)
            )
        ).select(["late_supp"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    counts = grouped_summary(
        waiting,
        by=["late_supp"],
        aggs={"numwait": ("late_supp", "count")},
        num_buckets=4,
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = join_auto(supp, counts, on=("s_suppkey",), right_on=("late_supp",))
    return out.select_columns(["s_suppkey", "s_name", "numwait"]).sort(
        ["numwait", "s_name"], descending=[True, False]
    )


# --- bench subset ----------------------------------------------------------


def bench_ops():
    """Headline corpus ops timed by bench.py (names → fn(sf_dir))."""

    def _consume(fn):
        def run(sf_dir: str):
            ds = fn(sf_dir)
            return ds.count()

        return run

    return {
        "doc_stats": _consume(q_doc_stats),
        "dedup_exact": _consume(q_dedup_exact),
        "dedup_minhash": _consume(q_dedup_minhash),
        "ann_topk": _consume(q_ann_topk),
        "rolling_window": _consume(q_rolling_window),
        "pricing_summary": _consume(q_pricing_summary),
        "semi_join_bloom": _consume(q_semi_join_bloom),
        "revenue_by_nation": _consume(q_revenue_by_nation),
        "curate_corpus": _consume(q_curate_corpus),
        "segment_dedup": _consume(q_segment_dedup),
        "profile_orders": _consume(q_profile_orders),
        "latest_event": _consume(q_latest_event),
    }


def q_event_trends(sf_dir: str) -> ray.data.Dataset:
    """Exact-integer least-squares trend of daily volume per event type
    (`stages/events.event_trends`): slope kept as the un-divided
    num/den pair so the oracle comparison is bit-exact."""
    from ..stages import events

    return events.event_trends(
        events.read_events(sf_dir, ["event_type", "ts"])
    )


def q_value_bins(sf_dir: str) -> ray.data.Dataset:
    """Equi-depth histogram of order totals: global ntile(8) boundaries
    with per-bin count/min/max (`stages/relational.equidepth_histogram`
    — global_rank reuse, no single-reducer sort)."""
    from ..stages.relational import equidepth_histogram

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return equidepth_histogram(
        orders, value_col="o_totalprice", tie_col="o_orderkey", k=8
    )


def q_phrase_search(sf_dir: str) -> ray.data.Dataset:
    """Exact phrase search: every document containing the corpus's most
    frequent word bigram (ties to the lexicographic min — the
    `ngram_counts` top-1, a documented one-row driver reduction), with
    its occurrence count. The positional-retrieval primitive: stage 1
    mines the phrase distributed, stage 2 is a stateless vectorized
    scan counting adjacent-token matches — the corpus never shuffles."""
    import polars as pl

    from ..stages.curation import ngram_counts

    docs = read_documents(sf_dir)
    top = ngram_counts(docs, n=2, k=1).take_all()  # ≤ one row
    if not top:  # no doc has 2+ tokens: no bigram, empty result (as SQL)
        return ray.data.from_arrow(
            pa.schema(
                [("doc_id", pa.int64()), ("n_hits", pa.int64())]
            ).empty_table()
        )
    phrase = top[0]["gram"]

    def _count(t: pa.Table) -> pa.Table:
        toks = (
            pl.from_arrow(t.select(["doc_id", "text"]))
            .select(
                pl.col("doc_id"),
                pl.col("text").str.extract_all(r"\S+").alias("tok"),
            )
            .explode("tok")
            .drop_nulls("tok")
        )
        hits = (
            toks.with_columns(
                pl.concat_str(
                    [pl.col("tok"), pl.col("tok").shift(-1).over("doc_id")],
                    separator=" ",
                ).alias("gram")
            )
            .filter(pl.col("gram") == phrase)
            .group_by("doc_id")
            .agg(pl.len().cast(pl.Int64).alias("n_hits"))
        )
        return hits.select(["doc_id", "n_hits"]).to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())])
        )

    return docs.map_batches(
        _count, batch_format="pyarrow", zero_copy_batch=True
    )


def q_group_corr(sf_dir: str) -> ray.data.Dataset:
    """Exact-integer Pearson partials per return flag: does discount
    track quantity? (`stages/relational.group_corr_parts` — un-divided
    moments, sign(r) = sign(corr_num).)"""
    from ..stages.relational import group_corr_parts

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )
    return group_corr_parts(
        li,
        by="l_returnflag",
        x_col="l_quantity",
        y_col="l_discount",
        x_scale=1,
        y_scale=100,
    )


def q_group_wmedian(sf_dir: str) -> ray.data.Dataset:
    """Quantity-weighted median price (exact cents) per return flag —
    `stages/relational.group_weighted_median`."""
    from ..stages.relational import group_weighted_median

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )
    return group_weighted_median(
        li,
        by="l_returnflag",
        value_col="l_extendedprice",
        weight_col="l_quantity",
        value_scale=100,
    )


def q_dedup_blocking_stats(sf_dir: str) -> ray.data.Dataset:
    """One-row LSH blocking-quality report (reduction + precision in
    exact ppm) — `stages/dedup.minhash_blocking_stats`. Rows-only: the
    candidate set depends on MinHash permutations (no SQL mirror); the
    verified-set count it contains IS oracle-checked via dedup_minhash."""
    return dedup.minhash_blocking_stats(
        read_documents(sf_dir), threshold=JACCARD_THRESHOLD
    )


def q_decontaminate_bloom(sf_dir: str) -> ray.data.Dataset:
    """Unguarded Bloom-filter decontamination over the same
    benchmark/corpus split as q_decontaminate — oracle-backed: the HLL
    sizing, md5 double-hash positions and every bloom decision (false
    positives included) are replayed exactly by the DuckDB oracle; the
    superset contract vs the exact scan stays pytest-pinned. See
    `stages/curation.decontaminate_bloom`."""
    from ..stages.curation import decontaminate_bloom

    def _mod_filter(is_bench: bool):
        def _f(t: pa.Table) -> pa.Table:
            import numpy as np

            rem = t["doc_id"].to_numpy(zero_copy_only=False) % BENCH_MODULUS
            keep = rem == 0 if is_bench else rem != 0
            return t.filter(pa.array(keep))

        return _f

    docs = read_documents(sf_dir)
    bench = docs.map_batches(
        _mod_filter(True), batch_format="pyarrow", zero_copy_batch=True
    )
    corpus = docs.map_batches(
        _mod_filter(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return decontaminate_bloom(corpus, bench, n=DECONTAM_NGRAM)
