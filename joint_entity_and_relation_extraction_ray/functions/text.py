"""Tokenization and text normalization (pure, no Ray).

The reference family whitespace-tokenizes corpus sentences before wordpiece
alignment (SURVEY.md §2.1 R3, recon). Offsets here are char offsets into the
ORIGINAL ``text`` — the per-turn text-equality invariant (BASELINE.json:15)
forbids mutating `text`, so normalized forms live in scratch columns only.
"""

from __future__ import annotations

import re
import unicodedata

_TOKEN_RE = re.compile(r"\S+")


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Whitespace tokens with [start, end) char offsets into `text`."""
    return [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def split_units(text: str, max_chars: int) -> list[tuple[int, str]]:
    """M4 turn splitter: cap the model-unit length (SURVEY.md §2.2 M4,
    §4.3 "giant conversations") → [(base_offset, sub_text)].

    Cut preference inside each window: last SENTENCE boundary
    (punctuation + whitespace), else last whitespace, else a hard cut (one
    giant token). Cuts at whitespace never split a token, so for any unit
    the tokenizer's offsets + ``base_offset`` are exact offsets into the
    ORIGINAL ``text`` — the per-turn text-equality invariant holds
    unchanged; cuts at sentence boundaries also never split an
    intra-sentence entity/relation. Only a relation whose subject/object
    straddle a non-sentence cut is lost — the standard bounded-unit
    tradeoff; ``max_chars`` defaults far above normal turn lengths so only
    pathological mega-turns split at all.
    """
    n = len(text)
    if n <= max_chars:
        return [(0, text)]
    units: list[tuple[int, str]] = []
    start = 0
    while start < n:
        if n - start <= max_chars:
            units.append((start, text[start:]))
            break
        window_end = start + max_chars
        cut = -1
        for m in _SENT_RE.finditer(text, start + 1, window_end):
            cut = m.end()  # the whitespace after sentence punctuation
        if cut <= start:
            for m in _WS_RE.finditer(text, start + 1, window_end + 1):
                cut = m.start()
        if cut <= start:
            cut = window_end  # one giant token: hard cut, keep progress
        units.append((start, text[start:cut]))
        start = cut
    return units


_WS_RE = re.compile(r"\s")
_SENT_RE = re.compile(r"[.!?](?=\s)")


def normalize_surface(s: str) -> str:
    """NFC + casefold — the alias-dictionary key normalization
    (FIXTURES.md F2). Never applied to the `text` column itself."""
    return unicodedata.normalize("NFC", s).casefold()


def normalize_surface_array(arr):
    """Vectorized NFC + lowercase over an Arrow string array (the hot-path
    variant for grouping keys: Python-per-row normalize over 10^7 rows was
    a top-3 pipeline cost).

    Uses simple lowercase (pc.utf8_lower == str.lower) rather than full
    casefold; identical for ASCII and for all simple-case scripts — and it
    matches the DuckDB oracle's ``lower()``. Grouping only requires the
    SAME normalization on every path, which stages/canonical.py and
    stages/fused.py guarantee by both calling this function.

    NFC runs through :mod:`unicodedata` on the non-ASCII rows only (ASCII
    is already NFC): pyarrow 16's ``utf8_normalize`` returns the
    DECOMPOSED form for ``form="NFC"`` ("é" → "e" + U+0301), which would
    never match an NFC alias key.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    non_ascii = pc.invert(pc.fill_null(pc.string_is_ascii(arr), True))
    if pc.any(non_ascii).as_py():
        composed = [
            unicodedata.normalize("NFC", s) for s in arr.filter(non_ascii).to_pylist()
        ]
        arr = pc.replace_with_mask(arr, non_ascii, pa.array(composed, arr.type))
    return pc.utf8_lower(arr)
