"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own: the gazetteer, the sentence
templates, the transcript layout and the document corpus do not come from
the program, so a change in the program cannot silently change a
workload. The same ``(spec, seed)`` always produces byte-identical
tables: every random draw comes from ``numpy.random.default_rng`` seeded
with ``(seed, stream)``, and nothing depends on the wall clock or on
Python's salted ``hash()``.

Transcripts follow the F1 shape (conv_id, turn_idx, role, text, tool, ts)
and come with their golden mentions and triples; the document corpus has
(doc_id, text) rows with planted near-duplicate chains.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 2  # bump when the generated data changes shape
EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
TURN_STEP_US = 60_000_000  # one turn per minute of corpus time

TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)
ALIASES = pa.schema(
    [
        ("alias", pa.string()),
        ("entity_id", pa.string()),
        ("ent_type", pa.string()),
        ("prior", pa.float32()),
    ]
)
ENTITIES = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical_name", pa.string()),
        ("ent_type", pa.string()),
    ]
)
GOLDEN_MENTIONS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("surface", pa.string()),
        ("ent_type", pa.string()),
        ("entity_id", pa.string()),  # the entity the generator meant
    ]
)
GOLDEN_TRIPLES = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("subj_surface", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj_surface", pa.string()),
        ("obj_type", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)
DOCS = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

# Relation clauses use the connectives the relation head is specified to
# recognize; distractor clauses put two entities side by side without one.
REL_TEMPLATES = [
    ("{A} works for {B} .", "Peop", "Org", "Work_For"),
    ("{A} lives in {B} .", "Peop", "Loc", "Live_In"),
    ("{A} is based in {B} .", "Org", "Loc", "OrgBased_In"),
    ("{A} is located in {B} .", "Loc", "Loc", "Located_In"),
    ("{A} killed {B} .", "Peop", "Peop", "Kill"),
]
DISTRACTORS = [
    ("{A} met {B} yesterday .", "Peop", "Peop", None),
    ("{A} called {B} about it .", "Peop", "Org", None),
]
FILLERS = [
    "can you check the numbers again ?",
    "sure , give me a moment .",
    "that sounds right to me .",
    "please send the summary when ready .",
    "i will look into it today .",
    "thanks , that helps a lot .",
    "what is the status of the ticket ?",
    "the build finished without errors .",
]
ROLES = ("user", "assistant", "tool")
TOOLS = ("search", "code")
ORG_SUFFIXES = ("Works", "Partners", "Foundry", "Collective")
# gazetteer: persons take one of N_FIRST × N_LAST name pairs
N_FIRST, N_LAST, N_PEOP, N_ORG, N_LOC = 50, 80, 300, 150, 150
ZIPF_S = 1.2  # entity popularity within a type
_SYL = [
    "ka", "lu", "mi", "zo", "re", "ta", "vi", "no", "sa", "pe", "qu", "xa",
    "bo", "di", "fe", "gu", "ha", "jo", "wy", "ze",
]


@dataclass(frozen=True)
class KGSpec:
    """Shape of a transcript corpus."""

    n_convs: int
    min_turns: int
    max_turns: int
    filler_share: float
    min_clauses: int
    max_clauses: int
    distractor_share: float
    n_files: int


@dataclass(frozen=True)
class DocSpec:
    """Shape of a document corpus."""

    n_docs: int
    words_per_doc: int
    vocab: int
    dup_share: float  # share of documents that sit in a near-dup chain
    max_chain: int
    max_edits: int
    n_files: int


# ---------------------------------------------------------------------------
# gazetteer and alias dictionary
# ---------------------------------------------------------------------------


def _names(rng: np.random.Generator, n: int, used: set[str]) -> list[str]:
    """``n`` distinct invented capitalized words, disjoint from ``used``."""
    out: list[str] = []
    while len(out) < n:
        k = int(rng.integers(2, 4))
        w = "".join(_SYL[i] for i in rng.integers(0, len(_SYL), k)).capitalize()
        if w not in used:
            used.add(w)
            out.append(w)
    return out


def gazetteer(seed: int) -> list[tuple[str, str, str, tuple[str, ...]]]:
    """[(entity_id, canonical_name, ent_type, surface variants)].

    Persons draw first and last names from small pools, so the abbreviated
    variants ("K. Last", "Dr. Last") are shared by several persons: these
    are the ambiguous aliases the linker has to resolve.
    """
    rng = np.random.default_rng([seed, 1])
    used = {w.capitalize() for f in FILLERS for w in f.split()}
    firsts = _names(rng, N_FIRST, used)
    lasts = _names(rng, N_LAST, used)
    org_words = _names(rng, N_ORG, used)
    loc_words = _names(rng, N_LOC, used)
    pairs = rng.choice(N_FIRST * N_LAST, N_PEOP, replace=False)
    ents = []
    n = 0
    for p in pairs.tolist():
        f, l = firsts[p // N_LAST], lasts[p % N_LAST]
        ents.append((f"E{n:06d}", f"{f} {l}", "Peop", (f"{f} {l}", f"{f[0]}. {l}", f"Dr. {l}")))
        n += 1
    for k, w in enumerate(org_words):
        full = f"{w} {ORG_SUFFIXES[k % len(ORG_SUFFIXES)]}"
        ents.append((f"E{n:06d}", full, "Org", (full, w)))
        n += 1
    for w in loc_words:
        ents.append((f"E{n:06d}", w, "Loc", (w,)))
        n += 1
    return ents


def alias_rows(ents, seed: int) -> pa.Table:
    """Every surface variant → its entity, casefolded, with a prior drawn
    from ten levels so that equal priors (and the entity-id tie-break)
    occur."""
    rng = np.random.default_rng([seed, 2])
    rows = {"alias": [], "entity_id": [], "ent_type": [], "prior": []}
    for eid, _, etype, surfaces in ents:
        for s in surfaces:
            rows["alias"].append(s.casefold())
            rows["entity_id"].append(eid)
            rows["ent_type"].append(etype)
            rows["prior"].append(int(rng.integers(1, 11)) / 10)
    return pa.table(rows, schema=ALIASES)


# ---------------------------------------------------------------------------
# transcripts with golden mentions and triples
# ---------------------------------------------------------------------------


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def transcripts(spec: KGSpec, seed: int, ents) -> dict[str, pa.Table]:
    """The transcript table plus its golden mentions and triples.

    Random draws are made in bulk per corpus; only the string assembly
    walks the clauses one by one."""
    rng = np.random.default_rng([seed, 3])
    templates = REL_TEMPLATES + DISTRACTORS
    types = ("Peop", "Org", "Loc")

    # entity popularity: a seeded permutation of a Zipf law within each type
    pools = {}
    for t in types:
        idx = np.asarray([i for i, e in enumerate(ents) if e[2] == t])
        cum = np.cumsum(_zipf_probs(len(idx), ZIPF_S))
        pools[t] = (idx[rng.permutation(len(idx))], np.minimum(cum, 1.0 - 1e-12))

    n_turns = rng.integers(spec.min_turns, spec.max_turns + 1, spec.n_convs)
    n_total = int(n_turns.sum())
    conv_of = np.repeat(np.arange(spec.n_convs), n_turns)
    turn_of = np.arange(n_total) - np.repeat(np.cumsum(n_turns) - n_turns, n_turns)
    filler = rng.random(n_total) < spec.filler_share
    filler_pick = rng.integers(0, len(FILLERS), n_total)
    n_clauses = np.where(
        filler, 0, rng.integers(spec.min_clauses, spec.max_clauses + 1, n_total)
    )
    n_cl = int(n_clauses.sum())
    tpl = np.where(
        rng.random(n_cl) < spec.distractor_share,
        len(REL_TEMPLATES) + rng.integers(0, len(DISTRACTORS), n_cl),
        rng.integers(0, len(REL_TEMPLATES), n_cl),
    )
    slot_ent = np.empty((n_cl, 2), dtype=np.int64)
    for side in (0, 1):
        u = rng.random(n_cl)
        slot_type = np.asarray([templates[k][1 + side] for k in tpl.tolist()])
        for t in types:
            m = slot_type == t
            order, cum = pools[t]
            slot_ent[m, side] = order[np.searchsorted(cum, u[m])]
    n_var = np.asarray([len(e[3]) for e in ents])
    slot_var = (rng.random((n_cl, 2)) * n_var[slot_ent]).astype(np.int64)

    conv_ids = [f"conv-{seed:04d}-{c:07d}" for c in range(spec.n_convs)]
    ts_all = EPOCH_US + TURN_STEP_US * np.arange(n_total, dtype=np.int64)
    split = [
        (text.split("{A}")[0], *text.split("{A}")[1].split("{B}"), ta, tb, rel)
        for text, ta, tb, rel in templates
    ]
    texts: list[str] = []
    m_cols = {k: [] for k in GOLDEN_MENTIONS.names}
    g_cols = {k: [] for k in GOLDEN_TRIPLES.names}
    cl = 0
    for i, k in enumerate(n_clauses.tolist()):
        if not k:
            texts.append(FILLERS[filler_pick[i]])
            continue
        conv, turn, ts = conv_ids[conv_of[i]], int(turn_of[i]), int(ts_all[i])
        parts: list[str] = []
        pos = 0
        for j in range(cl, cl + k):
            head, mid, tail, ta, tb, rel = split[tpl[j]]
            ea, eb = ents[slot_ent[j, 0]], ents[slot_ent[j, 1]]
            sa, sb = ea[3][slot_var[j, 0]], eb[3][slot_var[j, 1]]
            if parts:
                pos += 1  # the joining space
            a0 = pos + len(head)
            b0 = a0 + len(sa) + len(mid)
            clause = head + sa + mid + sb + tail
            pos += len(clause)
            parts.append(clause)
            for s0, surf, et, eid in ((a0, sa, ta, ea[0]), (b0, sb, tb, eb[0])):
                m_cols["conv_id"].append(conv)
                m_cols["turn_idx"].append(turn)
                m_cols["start"].append(s0)
                m_cols["end"].append(s0 + len(surf))
                m_cols["surface"].append(surf)
                m_cols["ent_type"].append(et)
                m_cols["entity_id"].append(eid)
            if rel is not None:
                g_cols["conv_id"].append(conv)
                g_cols["turn_idx"].append(turn)
                g_cols["subj_surface"].append(sa)
                g_cols["subj_type"].append(ta)
                g_cols["pred"].append(rel)
                g_cols["obj_surface"].append(sb)
                g_cols["obj_type"].append(tb)
                g_cols["ts"].append(ts)
        cl += k
        texts.append(" ".join(parts))
    role = np.asarray(ROLES, dtype=object)[turn_of % 3]
    tool = np.where(role == "tool", np.asarray(TOOLS, dtype=object)[turn_of % 2], None)
    return {
        "transcripts": pa.table(
            {
                "conv_id": np.asarray(conv_ids, dtype=object)[conv_of],
                "turn_idx": turn_of.astype(np.int32),
                "role": role,
                "text": texts,
                "tool": tool,
                "ts": ts_all,
            },
            schema=TRANSCRIPTS,
        ),
        "golden_mentions": pa.table(m_cols, schema=GOLDEN_MENTIONS),
        "golden_triples": pa.table(g_cols, schema=GOLDEN_TRIPLES),
    }


# ---------------------------------------------------------------------------
# document corpus with planted near-duplicate chains
# ---------------------------------------------------------------------------


def vocabulary(n: int) -> np.ndarray:
    """``n`` distinct lowercase words (fixed, seed-independent)."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out = []
    for i in range(n):
        w, k = [], i
        while True:
            w.append(letters[k % 26])
            k //= 26
            if not k:
                break
        out.append("".join(w) + "o")  # the suffix keeps 1-letter words out
    return np.asarray(out, dtype=object)


def doc_word_ids(spec: DocSpec, seed: int) -> np.ndarray:
    """(n_docs, words_per_doc) int32 word ids, row i is doc_id i.

    About ``dup_share`` of the rows form chains: each chain member is the
    previous one with 1..max_edits words replaced, so members a few steps
    apart straddle a 0.5 Jaccard threshold. Chain members are scattered
    over the doc-id range."""
    rng = np.random.default_rng([seed, 4])
    ids = rng.integers(0, spec.vocab, (spec.n_docs, spec.words_per_doc), dtype=np.int32)
    n_dup = int(spec.n_docs * spec.dup_share)
    slots = rng.permutation(spec.n_docs)[:n_dup]
    i = 0
    while i < n_dup:
        length = int(rng.integers(2, spec.max_chain + 1))
        chain = slots[i : i + length]
        i += length
        for prev, cur in zip(chain[:-1], chain[1:]):
            row = ids[prev].copy()
            k = int(rng.integers(1, spec.max_edits + 1))
            row[rng.choice(spec.words_per_doc, k, replace=False)] = rng.integers(0, spec.vocab, k)
            ids[cur] = row
    return ids


def docs_table(word_ids: np.ndarray, vocab: np.ndarray) -> pa.Table:
    words = vocab[word_ids]
    text = [" ".join(r) for r in words.tolist()]
    return pa.table(
        {"doc_id": pa.array(np.arange(len(text), dtype=np.int64)), "text": text},
        schema=DOCS,
    )


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------


def _write_files(table: pa.Table, out: Path, n_files: int) -> None:
    out.mkdir(parents=True)
    step = -(-table.num_rows // n_files)
    for k in range(n_files):
        pq.write_table(table.slice(k * step, step), out / f"part-{k:03d}.parquet")


def ensure(cache_root: Path, name: str, spec, seed: int) -> Path:
    """Generate the inputs for ``(name, spec, seed)`` once, atomically."""
    key = f"{name}-s{seed}-v{GEN_VERSION}"
    final = cache_root / key
    if (final / "spec.json").exists():
        if json.loads((final / "spec.json").read_text()) == asdict(spec):
            return final
        shutil.rmtree(final)
    tmp = cache_root / f"{key}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    if isinstance(spec, KGSpec):
        ents = gazetteer(seed)
        pq.write_table(alias_rows(ents, seed), tmp / "aliases.parquet")
        pq.write_table(
            pa.table(
                {
                    "entity_id": [e[0] for e in ents],
                    "canonical_name": [e[1] for e in ents],
                    "ent_type": [e[2] for e in ents],
                },
                schema=ENTITIES,
            ),
            tmp / "entities.parquet",
        )
        tables = transcripts(spec, seed, ents)
        _write_files(tables["transcripts"], tmp / "transcripts", spec.n_files)
        pq.write_table(tables["golden_mentions"], tmp / "golden_mentions.parquet")
        pq.write_table(tables["golden_triples"], tmp / "golden_triples.parquet")
    else:
        word_ids = doc_word_ids(spec, seed)
        np.save(tmp / "word_ids.npy", word_ids)
        _write_files(docs_table(word_ids, vocabulary(spec.vocab)), tmp / "docs", spec.n_files)
    (tmp / "spec.json").write_text(json.dumps(asdict(spec)))
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)
    return final
