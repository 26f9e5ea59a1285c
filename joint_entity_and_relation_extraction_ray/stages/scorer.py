"""TripleScorer — the batched-inference stage (SURVEY.md §2.2 A1).

The reference runs a BERT/BiLSTM encoder with a multi-head
tagging/selection head per sentence (SURVEY.md §2.1 R5–R8). torch is not
installed in this sandbox (SURVEY.md §0.2), so the encoder is a
deterministic surrogate (gazetteer longest-match tagger + connective
-pattern relation scorer) behind the same interface; the DECODE path (BIO
decode, sigmoid-threshold multi-head selection anchored on entity last
tokens, triple assembly) is the reference's exact semantics and lives in
``functions.decode``. A real warm-model replica drops in by replacing
``SurrogateEncoder`` without touching pipeline code (SURVEY.md §7.6).

Ray mapping: a callable CLASS → actor pool via
``ds.map_batches(TripleScorer, concurrency=N, batch_size=B,
batch_format="pyarrow", zero_copy_batch=True, fn_constructor_kwargs=...)``.
Model state (the alias gazetteer here; BERT weights in production) is
broadcast once with ``ray.put`` and fetched in ``__init__`` — once per
actor, never per batch (BASELINE.json:6 "GPU actor pool holding warm model
replicas"; ``num_gpus`` is a config knob on the stage, unused on CPU).

The scorer runs ONCE per turn, emitting a combined Arrow table with a
``kind`` column ("mention" | "triple"); cheap filters split it into T1/T2
(SURVEY.md §3.2) so the expensive model never runs twice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.decode import assemble_triples, bio_decode, threshold_heads
from ..functions.text import normalize_surface, split_units, tokenize_with_offsets
from ..schema import TRIPLES, mention_id

# M4 length cap: one mega-turn must not blow up a whole scorer batch
# (SURVEY §4.3); far above normal turn lengths so clean corpora never split
MAX_UNIT_CHARS = 8192

# Combined scorer output (split into T1 MENTIONS / T2 TRIPLES by `kind`).
COMBINED = pa.schema(
    [
        ("kind", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("mention_id", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("surface", pa.string()),
        ("ent_type", pa.string()),
        ("subj_mention_id", pa.string()),
        ("obj_mention_id", pa.string()),
        ("subj_surface", pa.string()),
        ("pred", pa.string()),
        ("obj_surface", pa.string()),
        ("score", pa.float32()),
        ("ts", pa.timestamp("us")),
    ]
)

# Connective patterns the surrogate relation head recognizes, with the type
# signature the multi-head selection layer would have learned ([MHS] §3.2).
REL_PATTERNS: dict[str, tuple[str, tuple[str, str]]] = {
    " works for ": ("Work_For", ("Peop", "Org")),
    " lives in ": ("Live_In", ("Peop", "Loc")),
    " is based in ": ("OrgBased_In", ("Org", "Loc")),
    " is located in ": ("Located_In", ("Loc", "Loc")),
    " killed ": ("Kill", ("Peop", "Peop")),
}
_POS_SCORE, _NEG_SCORE = 0.9, 0.1


class SurrogateEncoder:
    """Deterministic stand-in for the BERT/BiLSTM + heads forward pass.

    Produces exactly what the real model's forward produces: per-token BIO
    tag sequence and per-token-pair relation scores anchored on span last
    tokens. Tagging = greedy longest match against the (casefolded)
    gazetteer; relation score = connective-pattern + type-signature match.
    """

    def __init__(self, gazetteer: list[tuple[str, str]]):
        """gazetteer: [(casefolded surface, ent_type)] — from the alias
        dictionary (FIXTURES.md F2)."""
        self._by_first: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        self.max_len = 1
        for surface, etype in gazetteer:
            toks = tuple(surface.split())
            self.max_len = max(self.max_len, len(toks))
            # first token → candidates, longest first (greedy longest match)
            self._by_first.setdefault(toks[0], []).append((toks, etype))
        for cands in self._by_first.values():
            cands.sort(key=lambda c: -len(c[0]))

    _norm_cache: dict[str, str] = {}
    _NORM_CACHE_MAX = 1 << 17  # bounded: surfaces repeat heavily in chat

    @classmethod
    def _norm(cls, tok: str) -> str:
        c = cls._norm_cache
        v = c.get(tok)
        if v is None:
            if len(c) >= cls._NORM_CACHE_MAX:
                c.clear()
            v = c[tok] = normalize_surface(tok)
        return v

    def forward(self, text: str):
        """→ (tokens_with_offsets, bio_tags, pair_scores)."""
        toks = tokenize_with_offsets(text)
        _n = self._norm
        norm = [_n(t) for t, _, _ in toks]
        tags = ["O"] * len(toks)
        # spans built inline during matching (identical to bio_decode(tags)
        # by construction — matches ARE the B-/I- runs); skips a decode pass
        spans: list[tuple[int, int, str]] = []
        by_first = self._by_first
        i = 0
        n_toks = len(toks)
        while i < n_toks:
            matched = 0
            cands = by_first.get(norm[i])
            if cands is not None:
                for cand, etype in cands:  # longest first
                    n = len(cand)
                    if tuple(norm[i : i + n]) == cand:
                        tags[i] = f"B-{etype}"
                        for k in range(i + 1, i + n):
                            tags[k] = f"I-{etype}"
                        spans.append((i, i + n, etype))
                        matched = n
                        break
            i += matched if matched else 1

        pair_scores: dict[tuple[int, int, str], float] = {}
        if len(spans) < 2:
            return toks, tags, pair_scores
        for a in range(len(spans)):
            for b in range(len(spans)):
                if a == b:
                    continue
                s_a, s_b = spans[a], spans[b]
                if s_a[1] > s_b[0]:  # subject must precede object in text
                    continue
                gap = text[toks[s_a[1] - 1][2] : toks[s_b[0]][1]]
                hit = REL_PATTERNS.get(gap)
                anchor = (s_a[1] - 1, s_b[1] - 1)
                if hit is not None:
                    rel, (ta, tb) = hit
                    ok = s_a[2] == ta and s_b[2] == tb
                    pair_scores[(*anchor, rel)] = _POS_SCORE if ok else _NEG_SCORE
        return toks, tags, pair_scores


class AllCapsEncoder:
    """Minimal second Encoder demonstrating the model seam's contract
    (SURVEY.md §7.6): ``factory(gazetteer) -> encoder`` with
    ``forward(text) -> (tokens_with_offsets, bio_tags, pair_scores)``.
    Tags every ALL-CAPS alphabetic token as a Misc entity and emits no
    relations — deliberately different behavior from
    :class:`SurrogateEncoder`, so a swap is observable end-to-end.
    Defined in the library (not a test module) because actor-pool workers
    deserialize the factory BY REFERENCE and must be able to import it."""

    def __init__(self, gazetteer):
        self.n_aliases = len(gazetteer)  # state loads once per actor

    def forward(self, text: str):
        toks = tokenize_with_offsets(text)
        tags = [
            "B-Misc" if t.isupper() and t.isalpha() else "O"
            for t, _, _ in toks
        ]
        return toks, tags, {}


class TripleScorer:
    """Actor-pool batch scorer: T0 pyarrow batch → COMBINED pyarrow batch.

    State (the gazetteer / model weights) loads ONCE per actor in
    ``__init__``; ``__call__`` only does per-batch work. Pass the gazetteer
    either as an ``ray.ObjectRef`` (broadcast: ``ray.put`` once on the
    driver) or as a plain list (tests without Ray).
    """

    def __init__(
        self,
        gazetteer_ref=None,
        max_unit_chars: int = MAX_UNIT_CHARS,
        encoder_factory=None,
        checkpoint_path: str | None = None,
    ):
        """``encoder_factory`` is the model seam (SURVEY.md §7.6): any
        callable ``factory(gazetteer) -> encoder`` whose encoder exposes
        ``forward(text) -> (tokens_with_offsets, bio_tags, pair_scores)``
        drops in — a warm torch BERT replica in production, the
        deterministic surrogate here. Constructed ONCE per actor.

        ``checkpoint_path`` (R12) loads the model state from a saved
        checkpoint directory instead of a broadcast gazetteer — digest-
        verified in :func:`load_model_checkpoint`, once per actor."""
        if checkpoint_path is not None:
            ck = load_model_checkpoint(checkpoint_path)
            gazetteer_ref = ck["gazetteer"]
            max_unit_chars = ck["config"].get(
                "max_unit_chars", max_unit_chars
            )
        else:
            try:
                import ray

                if isinstance(gazetteer_ref, ray.ObjectRef):
                    gazetteer_ref = ray.get(gazetteer_ref)
            except ImportError:  # pure unit tests
                pass
        factory = encoder_factory or SurrogateEncoder
        self.encoder = factory(gazetteer_ref)
        self.max_unit_chars = max_unit_chars

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv_ids = batch["conv_id"].to_pylist()
        turn_idxs = batch["turn_idx"].to_pylist()
        texts = batch["text"].to_pylist()
        ts = batch["ts"].cast(pa.int64()).to_pylist()

        # columnar accumulation, mentions and triples in separate flat
        # lists with DIRECT appends (the kwargs-dict emit closure was ~20%
        # of scorer wall); the two groups concatenate into COMBINED at the
        # end with typed null runs for the other kind's columns
        m_conv, m_turn, m_ts = [], [], []
        m_id, m_start, m_end, m_surf, m_type = [], [], [], [], []
        t_conv, t_turn, t_ts = [], [], []
        t_sid, t_oid, t_ssurf, t_pred, t_osurf, t_score = (
            [], [], [], [], [], [],
        )
        forward = self.encoder.forward
        max_chars = self.max_unit_chars

        for conv, turn, text, t_us in zip(conv_ids, turn_idxs, texts, ts):
            # M4: bounded model units; offsets stay relative to the
            # ORIGINAL text via the unit's base offset (split_units splits
            # only at whitespace, so token offsets shift exactly)
            for base, sub in split_units(text, max_chars):
                toks, tags, pair_scores = forward(sub)
                spans = bio_decode(tags)
                heads = threshold_heads(pair_scores)
                triples = assemble_triples(spans, heads)

                span_char = {}
                for (s, e, etype) in spans:
                    c0, c1 = toks[s][1] + base, toks[e - 1][2] + base
                    span_char[(s, e)] = (c0, c1)
                    m_conv.append(conv)
                    m_turn.append(turn)
                    m_ts.append(t_us)
                    m_id.append(mention_id(conv, turn, c0, c1))
                    m_start.append(c0)
                    m_end.append(c1)
                    m_surf.append(text[c0:c1])
                    m_type.append(etype)
                for (subj, rel, obj) in triples:
                    sc = span_char[(subj[0], subj[1])]
                    oc = span_char[(obj[0], obj[1])]
                    t_conv.append(conv)
                    t_turn.append(turn)
                    t_ts.append(t_us)
                    t_sid.append(mention_id(conv, turn, *sc))
                    t_oid.append(mention_id(conv, turn, *oc))
                    t_ssurf.append(text[sc[0]:sc[1]])
                    t_pred.append(rel)
                    t_osurf.append(text[oc[0]:oc[1]])
                    t_score.append(
                        pair_scores[(subj[1] - 1, obj[1] - 1, rel)]
                    )

        nm, nt = len(m_conv), len(t_conv)

        def _col(m_vals, t_vals, typ):
            # None runs for the other kind's columns (same layout as the
            # per-row emit produced)
            return pa.array(
                (m_vals if m_vals is not None else [None] * nm)
                + (t_vals if t_vals is not None else [None] * nt),
                typ,
            )

        arrays = [
            _col(["mention"] * nm, ["triple"] * nt, pa.string()),
            _col(m_conv, t_conv, pa.string()),
            _col(m_turn, t_turn, pa.int32()),
            _col(m_id, None, pa.string()),
            _col(m_start, None, pa.int32()),
            _col(m_end, None, pa.int32()),
            _col(m_surf, None, pa.string()),
            _col(m_type, None, pa.string()),
            _col(None, t_sid, pa.string()),
            _col(None, t_oid, pa.string()),
            _col(None, t_ssurf, pa.string()),
            _col(None, t_pred, pa.string()),
            _col(None, t_osurf, pa.string()),
            _col([_POS_SCORE] * nm, t_score, pa.float32()),
            _col(m_ts, t_ts, pa.int64()).cast(pa.timestamp("us")),
        ]
        return pa.Table.from_arrays(arrays, schema=COMBINED)


def split_triples(combined: pa.Table) -> pa.Table:
    t = combined.filter(pc.equal(combined["kind"], "triple"))
    return t.select(TRIPLES.names).cast(TRIPLES)


MODEL_FORMAT_VERSION = 1


def save_model_checkpoint(
    path,
    gazetteer: list[tuple[str, str]],
    *,
    max_unit_chars: int = MAX_UNIT_CHARS,
    extra_config: dict | None = None,
) -> str:
    """R12 model-checkpoint SAVE: persist the scorer's model state (the
    gazetteer here; tokenizer + weight blobs for a real encoder) as a
    directory — ``gazetteer.parquet`` + ``model.json`` with a content
    digest. Returns the digest. The layout is the swap-in point for a
    torch checkpoint: weights would sit beside the parquet as an opaque
    blob named in ``model.json``."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    gaz = pa.table(
        {
            "surface": pa.array([g[0] for g in gazetteer], pa.string()),
            "ent_type": pa.array([g[1] for g in gazetteer], pa.string()),
        }
    )
    gpath = os.path.join(path, "gazetteer.parquet")
    pq.write_table(gaz, gpath)
    digest = hashlib.sha256()
    with open(gpath, "rb") as f:
        digest.update(f.read())
    config = {
        "format_version": MODEL_FORMAT_VERSION,
        "max_unit_chars": max_unit_chars,
        "encoder": "SurrogateEncoder",
        **(extra_config or {}),
    }
    digest.update(json.dumps(config, sort_keys=True).encode())
    config["digest"] = digest.hexdigest()
    tmp = os.path.join(path, "model.json.tmp")
    with open(tmp, "w") as f:
        json.dump(config, f, sort_keys=True, indent=1)
    os.replace(tmp, os.path.join(path, "model.json"))  # atomic publish
    return config["digest"]


def load_model_checkpoint(path) -> dict:
    """R12 model-checkpoint LOAD: verify the content digest, return
    ``{"gazetteer": [...], "config": {...}}``. Raises ``ValueError`` on a
    corrupt or version-incompatible checkpoint — an actor must die loudly
    rather than score with half a model. Each actor calls this ONCE in
    ``__init__`` (model artifacts live on shared storage at scale)."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    with open(os.path.join(path, "model.json")) as f:
        config = json.load(f)
    if config.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model checkpoint format {config.get('format_version')!r} "
            f"!= supported {MODEL_FORMAT_VERSION}"
        )
    want = config.pop("digest", None)
    digest = hashlib.sha256()
    gpath = os.path.join(path, "gazetteer.parquet")
    with open(gpath, "rb") as f:
        digest.update(f.read())
    digest.update(json.dumps(config, sort_keys=True).encode())
    if digest.hexdigest() != want:
        raise ValueError(f"model checkpoint digest mismatch under {path}")
    gaz = pq.read_table(gpath)
    return {
        "gazetteer": list(
            zip(gaz["surface"].to_pylist(), gaz["ent_type"].to_pylist())
        ),
        "config": config,
    }


def gazetteer_from_alias_table(aliases: pa.Table) -> list[tuple[str, str]]:
    """Alias dictionary (ALIASES schema) → the (surface, type) list the
    encoder matches against. Deduplicated, deterministic order."""
    seen: dict[str, str] = {}
    for alias, etype in zip(
        aliases["alias"].to_pylist(), aliases["ent_type"].to_pylist()
    ):
        seen.setdefault(alias, etype)
    return sorted(seen.items())
