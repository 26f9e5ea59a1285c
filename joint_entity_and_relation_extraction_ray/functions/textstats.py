"""Vectorized text-analysis kernels for the `documents` table.

Token counting, quality counters, marker-based language ID, exact
fingerprints (md5), winnowing rolling-hash fingerprints, word-shingles,
MinHash signatures and SimHash — the text side of the training-data ops
(driver brief: "text analysis" + "deduplication" families).

All column kernels are polars/numpy vectorized (no per-row Python in the
counting paths); per-row Python appears only where the work itself is
hashing (C-speed hashlib/blake2b).

Every quality metric is an INTEGER count (ratios are derivable) so the
driver's value-hash comparison vs DuckDB is float-free.
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

# Tokens are maximal \S+ runs == DuckDB regexp_split_to_array(trim(text),'\s+')
# on non-empty text — the oracle uses exactly that definition.
_TOKEN_RE = r"\S+"
_PUNCT_RE = r"[^A-Za-z0-9\s]"

STOPWORDS = ("the", "a")

# marker tokens per language; prediction = argmax count, ties broken by
# alphabetical language code, all-zero -> "und" (mirrored 1:1 in oracle SQL)
LANG_MARKERS = {
    "de": ("der", "die", "das", "und"),
    "en": ("the", "a"),
    "es": ("el", "los", "y"),
    "fr": ("le", "la", "et"),
}


def doc_stats(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → integer quality/statistics columns."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = pl.col("text").str.extract_all(_TOKEN_RE)
    out = df.select(
        pl.col("doc_id"),
        pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
        toks.list.len().cast(pl.Int64).alias("n_tokens"),
        toks.list.n_unique().cast(pl.Int64).alias("n_distinct_tokens"),
        toks.list.eval(pl.element().str.len_chars())
        .list.max()
        .cast(pl.Int64)
        .alias("max_token_len"),
        toks.list.eval(pl.element().is_in(list(STOPWORDS)))
        .list.sum()
        .cast(pl.Int64)
        .alias("n_stopwords"),
        pl.col("text")
        .str.count_matches(_PUNCT_RE)
        .cast(pl.Int64)
        .alias("n_punct"),
    )
    return out.to_arrow()


def token_entropy(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → per-doc token Shannon entropy, EXACTLY:
    ``(doc_id, n_tokens, n_distinct, ent_sum_e9, entropy_bits)`` with
    H = log2(n) − (Σ c·log2 c)/n computed so every term is
    deterministic — ``ent_sum_e9 = Σ floor(c·log2(c)·1e9)`` is an
    integer sum (order-independent; log2 per INTEGER count via
    math.log2, the same libm DuckDB's log2 calls), and ``entropy_bits``
    is one fixed-order float expression over (n, ent_sum_e9). The
    burstiness/diversity quality signal (low entropy = repetitive
    boilerplate) with a hash-exact SQL oracle. Token-less docs emit no
    row."""
    import math

    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    tf = (
        df.select(
            pl.col("doc_id"),
            pl.col("text").str.extract_all(_TOKEN_RE).alias("term"),
        )
        .explode("term")
        .drop_nulls("term")
        .group_by(["doc_id", "term"])
        .agg(pl.len().cast(pl.Int64).alias("c"))
    )
    c = tf["c"].to_numpy()
    # exact per-count weights: math.log2 over the few DISTINCT counts
    u, inv = np.unique(c, return_inverse=True)
    l2 = np.array([math.log2(int(x)) for x in u], np.float64)[inv]
    e = np.floor(c.astype(np.float64) * l2 * 1e9).astype(np.int64)
    agg = (
        tf.with_columns(pl.Series("e", e))
        .group_by("doc_id")
        .agg(
            pl.col("c").sum().alias("n_tokens"),
            pl.len().cast(pl.Int64).alias("n_distinct"),
            pl.col("e").sum().alias("ent_sum_e9"),
        )
    )
    n = agg["n_tokens"].to_numpy()
    s = agg["ent_sum_e9"].to_numpy()
    ul, invl = np.unique(n, return_inverse=True)
    log2n = np.array([math.log2(int(x)) for x in ul], np.float64)[invl]
    bits = log2n - s.astype(np.float64) / (1e9 * n.astype(np.float64))
    return (
        agg.with_columns(pl.Series("entropy_bits", bits))
        .select(
            ["doc_id", "n_tokens", "n_distinct", "ent_sum_e9",
             "entropy_bits"]
        )
        .to_arrow()
    )


def lang_id(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, pred_lang) via marker-token argmax."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = pl.col("text").str.extract_all(_TOKEN_RE)
    counts = df.select(
        pl.col("doc_id"),
        *[
            toks.list.eval(pl.element().is_in(list(markers)))
            .list.sum()
            .cast(pl.Int64)
            .alias(f"c_{lang}")
            for lang, markers in LANG_MARKERS.items()
        ],
    )
    langs = sorted(LANG_MARKERS)  # alphabetical tie-break order
    best = pl.max_horizontal([pl.col(f"c_{l}") for l in langs])
    expr = pl.lit("und")
    for lang in reversed(langs):
        expr = (
            pl.when(pl.col(f"c_{lang}") == best)
            .then(pl.lit(lang))
            .otherwise(expr)
        )
    out = counts.select(
        pl.col("doc_id"),
        pl.when(best == 0).then(pl.lit("und")).otherwise(expr).alias("pred_lang"),
    )
    return out.to_arrow()


def fingerprint(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, digest): md5 hex of UTF-8 bytes (exact-dup
    key; DuckDB ``md5(text)`` parity)."""
    texts = batch["text"].to_pylist()
    digests = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    return pa.table(
        {"doc_id": batch["doc_id"], "digest": pa.array(digests, pa.string())}
    )


# ---------------------------------------------------------------------------
# winnowing rolling-hash fingerprint (Schleimer et al., SIGMOD 2003)
# ---------------------------------------------------------------------------


def winnow(text: str, k: int = 5, window: int = 4) -> list[int]:
    """Winnowing fingerprint: min rolling hash per window of k-gram hashes.

    Deterministic; returns sorted distinct selected hashes. The k-gram
    hash is the first 15 hex chars of md5 (60 bits, always a positive
    int64) — chosen over blake2b precisely because SQL can mirror it
    (``('0x' || substr(md5(g), 1, 15))::BIGINT``), which is what turns
    the doc_winnow driver query from rows-only into hash-exact.
    """
    n = len(text)
    if n < k:
        grams = [text]
    else:
        grams = [text[i : i + k] for i in range(n - k + 1)]
    hs = np.fromiter(
        (
            int(hashlib.md5(g.encode("utf-8")).hexdigest()[:15], 16)
            for g in grams
        ),
        dtype=np.int64,
        count=len(grams),
    )
    if len(hs) <= window:
        return sorted({int(hs.min())})
    sel = {
        int(hs[i : i + window].min()) for i in range(len(hs) - window + 1)
    }
    return sorted(sel)


def winnow_batch(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "winnow": pa.array(
                [winnow(t) for t in batch["text"].to_pylist()],
                pa.list_(pa.int64()),
            ),
        }
    )


# ---------------------------------------------------------------------------
# shingles / MinHash / SimHash
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def word_shingles(text: str, k: int = 3) -> list[str]:
    """Distinct word k-gram shingles (DuckDB-mirrorable: tokens are \\S+ runs,
    shingles joined by single space). Docs with < k tokens get no shingles
    (the oracle's NULL shingle likewise never matches)."""
    toks = text.split()
    if len(toks) < k:
        return []
    return sorted({" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)})


def shingle_hashes(shingles: list[str]) -> np.ndarray:
    """Stable 64-bit base hashes for a shingle set (blake2b prefix)."""
    if not shingles:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(
        b"".join(
            hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest()
            for s in shingles
        ),
        dtype="<u8",
    )


def shingle_hashes_arrow(
    col: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`shingle_hashes` of every row of a ``list<string>`` column
    at once → ``(flat uint64 hashes, int64 row offsets)``: row ``i``'s
    hashes are ``flat[offsets[i]:offsets[i + 1]]``; null and empty lists
    are 0-width. Chunked and sliced columns are read as they are.

    Byte-for-byte :func:`shingle_hashes`: blake2b runs over
    ``memoryview`` slices of the flattened string array's data buffer
    (UTF-8, as ``str.encode`` gives), so no per-shingle ``str`` is
    built."""
    hs = [np.empty(0, dtype=np.uint64)]
    lens = [np.empty(0, dtype=np.int64)]
    for arr in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        lens.append(
            pc.list_value_length(arr)
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        # flatten() honours the slice offset and skips null lists
        hs.append(_string_hashes(arr.flatten()))
    n = np.concatenate(lens)
    offsets = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=offsets[1:])
    return np.concatenate(hs), offsets


def _string_hashes(strs: pa.Array) -> np.ndarray:
    """blake2b-8 of each string of a (large_)string array, read from its
    offsets and data buffers."""
    if not len(strs):
        return np.empty(0, dtype=np.uint64)
    _, obuf, dbuf = strs.buffers()
    odt = np.int64 if pa.types.is_large_string(strs.type) else np.int32
    offs = np.frombuffer(
        obuf, dtype=odt, count=len(strs) + 1,
        offset=strs.offset * np.dtype(odt).itemsize,
    ).tolist()
    data = memoryview(dbuf if dbuf is not None else b"")
    blake = hashlib.blake2b
    return np.frombuffer(
        b"".join(
            blake(data[s:e], digest_size=8).digest()
            for s, e in zip(offs[:-1], offs[1:])
        ),
        dtype="<u8",
    )


def minhash_signatures(
    shingle_lists: list[list[str]], num_perm: int = 128, seed: int = 7
) -> np.ndarray:
    """Batch MinHash: (n_docs, num_perm) uint64 over Python shingle
    lists — :func:`shingle_hashes` of the flattened lists, then
    :func:`minhash_from_hashes`. Columnar callers hash a ``list<string>``
    column with :func:`shingle_hashes_arrow` instead."""
    flat: list[str] = []
    offsets = [0]
    for sl in shingle_lists:
        flat.extend(sl)
        offsets.append(len(flat))
    return minhash_from_hashes(
        shingle_hashes(flat), np.asarray(offsets, dtype=np.int64),
        num_perm=num_perm, seed=seed,
    )


def minhash_from_hashes(
    base: np.ndarray, offsets: np.ndarray, num_perm: int = 128, seed: int = 7
) -> np.ndarray:
    """MinHash signatures, (n_docs, num_perm) uint64, of the shingle
    hash segments ``base[offsets[i]:offsets[i + 1]]`` (``offsets[0] == 0``,
    ``offsets[-1] == len(base)``). A doc with no shingles keeps the
    all-max sentinel.

    Permutation family: multiply-add in native uint64 (wraparound = mod
    2^64) over blake2b base hashes — a standard minwise family; pure
    uint64 numpy (the exact mod-p variant needed object-dtype bigints and
    was ~100× slower).

    Perm-major: one permutation at a time into one reused 1-D buffer
    (``multiply``/``add`` with ``out=``), then a contiguous 1-D
    ``minimum.reduceat`` over the non-empty segments — no
    (n_shingles × perms) product matrix is ever written, so the working
    set is one column of hashes. Same uint64 wraparound arithmetic, so
    the signatures are bit-identical to the one-shot product-matrix
    form (oracle contract). Empty docs are excluded from ``starts``;
    consecutive non-empty starts span exactly the non-empty segments
    (empty segments are 0-width)."""
    a, b = _perm_params(num_perm, seed)
    offs = np.asarray(offsets, dtype=np.int64)
    ne = np.diff(offs) > 0
    starts = offs[:-1][ne]
    sig = np.empty((num_perm, len(starts)), dtype=np.uint64)
    if len(starts):
        buf = np.empty(len(base), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(num_perm):
                np.multiply(base, a[p], out=buf)
                np.add(buf, b[p], out=buf)
                np.minimum.reduceat(buf, starts, out=sig[p])
    if ne.all():
        return sig.T
    out = np.full(
        (len(ne), num_perm), np.iinfo(np.uint64).max, dtype=np.uint64
    )
    out[ne] = sig.T
    return out


def simhash64(texts: list[str], k: int = 2) -> np.ndarray:
    """64-bit SimHash over word k-gram features (counted), per text."""
    out = np.empty(len(texts), dtype=np.uint64)
    bit_cols = np.arange(64, dtype=np.uint64)
    for i, t in enumerate(texts):
        toks = t.split()
        feats: dict[str, int] = {}
        if len(toks) < k:
            feats[t] = 1
        else:
            for j in range(len(toks) - k + 1):
                f = " ".join(toks[j : j + k])
                feats[f] = feats.get(f, 0) + 1
        if not feats:
            out[i] = 0
            continue
        # md5-based 64-bit feature hash — SQL-mirrorable
        # (('0x' || substr(md5(f), 1, 16))::UBIGINT), which is what lets
        # the driver verify dedup_simhash* hash-exact against DuckDB
        hs = np.fromiter(
            (
                int(hashlib.md5(f.encode("utf-8")).hexdigest()[:16], 16)
                for f in feats
            ),
            dtype=np.uint64,
            count=len(feats),
        )
        w = np.fromiter(feats.values(), dtype=np.int64, count=len(feats))
        bits = ((hs[:, None] >> bit_cols[None, :]) & np.uint64(1)).astype(
            np.int64
        )
        v = ((bits * 2 - 1) * w[:, None]).sum(axis=0)
        out[i] = np.uint64(
            int("".join("1" if x > 0 else "0" for x in v[::-1]), 2)
        )
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    # popcount via unpackbits on the byte view
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def repetition_stats(batch: pa.Table) -> pa.Table:
    """Gopher-style within-document repetition signals: token count,
    distinct-token count, and the most-frequent token's share in ppm —
    the standard gate against degenerate/boilerplate docs. Integer-only
    (ppm via floor division) so the oracle compare is float-free.
    Stateless per block — a pure map, no shuffle."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    toks = df.select(
        "doc_id",
        tok=pl.col("text").str.strip_chars().str.extract_all(_TOKEN_RE),
    )
    base = toks.select(
        "doc_id",
        n_tokens=pl.col("tok").list.len().cast(pl.Int64),
        n_distinct=pl.col("tok").list.unique().list.len().cast(pl.Int64),
    )
    top = (
        toks.explode("tok")
        .drop_nulls("tok")  # empty docs explode to a null row
        .group_by("doc_id", "tok")
        .len()
        .group_by("doc_id")
        .agg(pl.col("len").max().alias("top_n"))
    )
    out = (
        base.join(top, on="doc_id", how="left")
        .with_columns(
            top_share_ppm=(
                pl.col("top_n").fill_null(0)
                * 1_000_000
                // pl.col("n_tokens").clip(lower_bound=1)
            ).cast(pl.Int64)
        )
        .select(["doc_id", "n_tokens", "n_distinct", "top_share_ppm"])
    )
    return out.to_arrow()


def chunk_tokens(batch: pa.Table, *, chunk_size: int = 50) -> pa.Table:
    """RAG-style fixed-size token chunking: explode each document into
    ``ceil(n/chunk_size)`` rows of ``chunk_size`` whitespace tokens (last
    chunk ragged), with the chunk text re-joined single-spaced — the
    standard pre-embedding segmentation step. Stateless per block (a
    flat-map), fully vectorized (no per-row Python); empty docs emit no
    chunks. Token rule = maximal ``\\S+`` runs, the house definition the
    oracle mirrors with regexp_split_to_array."""
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    out = (
        df.select(
            "doc_id",
            tok=pl.col("text").str.strip_chars().str.extract_all(_TOKEN_RE),
        )
        .with_columns(n=pl.col("tok").list.len().cast(pl.Int64))
        .filter(pl.col("n") > 0)
        .with_columns(
            chunk_idx=pl.int_ranges(
                0, (pl.col("n") + chunk_size - 1) // chunk_size
            )
        )
        .explode("chunk_idx")
        .with_columns(
            chunk_idx=pl.col("chunk_idx").cast(pl.Int64),
            n_tokens=pl.min_horizontal(
                pl.lit(chunk_size),
                pl.col("n") - pl.col("chunk_idx") * chunk_size,
            ).cast(pl.Int64),
            chunk_text=pl.col("tok")
            .list.slice(pl.col("chunk_idx") * chunk_size, chunk_size)
            .list.join(" "),
        )
        .select(["doc_id", "chunk_idx", "n_tokens", "chunk_text"])
    )
    return out.to_arrow()


HASH_FEATURES = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("dim", pa.int64()),
        ("value", pa.int64()),
    ]
)


def hash_features(batch: pa.Table, *, k: int = 8) -> pa.Table:
    """The hashing trick (Weinberger et al. 2009): sparse bag-of-words →
    a k-dim signed-count integer vector, long format ``(doc_id, dim,
    value)`` with all-zero dims omitted. Token routing is md5-derived so
    any engine reproduces it exactly: ``dim = hexdigit_0(md5(tok)) // (16/k)``
    (range split of the hash space — no modulus, so a SQL mirror needs
    only substr+strpos), ``sign = +1`` iff hexdigit_1 is even. Tokens are
    maximal \\S+ runs, same as every token op in this module.

    Stateless vectorized-ish map (md5 per DISTINCT token per batch,
    memoized in a dict — Zipf makes the memo hit rate high); no shuffle.
    The dense companion for embeddings is
    `stages/similarity.random_projection`.
    """
    import hashlib

    if 16 % k:
        raise ValueError("k must divide 16 (range-split of one hex digit)")
    span = 16 // k
    hexpos = "0123456789abcdef"
    memo: dict[str, tuple[int, int]] = {}
    ids, dims, vals = [], [], []
    for did, text in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        acc = [0] * k
        for tok in (text or "").split():
            hit = memo.get(tok)
            if hit is None:
                h = hashlib.md5(tok.encode()).hexdigest()
                hit = (
                    hexpos.index(h[0]) // span,
                    1 if h[1] in "02468ace" else -1,
                )
                memo[tok] = hit
            acc[hit[0]] += hit[1]
        for j, v in enumerate(acc):
            if v:
                ids.append(did)
                dims.append(j)
                vals.append(v)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "dim": pa.array(dims, pa.int64()),
            "value": pa.array(vals, pa.int64()),
        }
    )
