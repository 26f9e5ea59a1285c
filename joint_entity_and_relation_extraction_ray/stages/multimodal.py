"""Multimodal columns: image/audio/video as opaque ``binary`` payloads with
typed metadata, processed by actor-pool map_batches stages.

The container has no image/audio codecs, so the decode kernels are STUBBED
(driver brief: "STUB the decode step ... make the Ray-side plumbing real
and tested"):

- :class:`PayloadFeaturizer` — REAL plumbing: actor-pool stage, binary
  batches in, fixed-schema features out (byte length, sha256, an 8-dim
  deterministic fake feature vector derived from the digest).
- :func:`decode_image` / :func:`decode_audio` — the real-codec seams;
  they raise ``NotImplementedError`` unless the deterministic fake is
  requested explicitly.

Batch sizing note (at-scale): binary payloads dominate block size — run
this stage with a small ``batch_size`` (e.g. 32–128) and let Ray's
dynamic block splitting keep blocks under ``target_max_block_size``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from .linker import default_pool_size

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
    ]
)

FEATURE_DIM = 8


def decode_image(payload: bytes, *, fake: bool = False, codec=None) -> np.ndarray:
    """Seam for a real image decoder (PIL/cv2 not installed here).

    ``codec`` is the injection point: any ``codec(payload: bytes) ->
    np.ndarray`` (e.g. ``lambda p: np.asarray(PIL.Image.open(BytesIO(p)))``)
    plugs the real library in without touching pipeline code — contract
    pinned by tests/test_corpus_ops.py."""
    if codec is not None:
        return np.asarray(codec(payload))
    if not fake:
        raise NotImplementedError(
            "no image codec in this environment; pass fake=True for the "
            "deterministic surrogate or codec=<fn> for a real decoder"
        )
    return _fake_features(payload)


def decode_audio(payload: bytes, *, fake: bool = False, codec=None) -> np.ndarray:
    """Seam for a real audio decoder (soundfile/librosa not installed).
    ``codec`` injects the real library — see :func:`decode_image`."""
    if codec is not None:
        return np.asarray(codec(payload))
    if not fake:
        raise NotImplementedError(
            "no audio codec in this environment; pass fake=True for the "
            "deterministic surrogate or codec=<fn> for a real decoder"
        )
    return _fake_features(payload)


def pooled_features(decoded: np.ndarray) -> np.ndarray:
    """Decoded array (any shape/dtype a codec emits) → unit-norm
    ``FEATURE_DIM`` pooling: flatten, zero-pad to a multiple of
    FEATURE_DIM, chunk-mean. The post-decode half of the featurizer —
    closed-form so codec-injection tests can assert exact values."""
    flat = np.asarray(decoded, dtype=np.float64).ravel()
    pad = (-len(flat)) % FEATURE_DIM
    if pad:
        flat = np.concatenate([flat, np.zeros(pad)])
    v = flat.reshape(FEATURE_DIM, -1).mean(axis=1)
    n = np.linalg.norm(v)
    return v / (n if n else 1.0)


def _fake_features(payload: bytes) -> np.ndarray:
    """Deterministic 8-dim feature from the payload digest (unit-norm)."""
    d = hashlib.sha256(payload).digest()
    v = np.frombuffer(d[: FEATURE_DIM * 4], dtype="<u4").astype(np.float64)
    v = v / np.float64(2**32)
    n = np.linalg.norm(v)
    return v / (n if n else 1.0)


class PayloadFeaturizer:
    """Actor-pool stage: binary payload → (n_bytes, digest, feature).

    A real deployment loads the codec/model once here in ``__init__``
    (warm replica per actor) — exactly the TripleScorer pattern.
    """

    def __init__(self, use_fake_decoder: bool = True, decoder=None):
        """``decoder`` is the real-codec injection seam: any
        ``decoder(payload: bytes) -> np.ndarray`` (decoded pixels /
        samples); its output is pooled with :func:`pooled_features`.
        Loaded once per actor — a heavyweight codec/model initializes
        here, exactly the TripleScorer warm-replica pattern."""
        self.use_fake = use_fake_decoder
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        if self.decoder is not None:
            feats = [pooled_features(self.decoder(p)) for p in payloads]
        elif self.use_fake:
            feats = [_fake_features(p) for p in payloads]
        else:
            feats = [decode_image(p) for p in payloads]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
                "digest": pa.array(
                    [hashlib.sha256(p).hexdigest() for p in payloads],
                    pa.string(),
                ),
                "feature": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float64())
                ),
            }
        )


def featurize(
    media: ray.data.Dataset,
    *,
    concurrency: int | None = None,
    batch_size: int = 64,
    decoder=None,
) -> ray.data.Dataset:
    """Run the featurizer actor pool over a MEDIA_SCHEMA dataset.
    ``decoder`` injects a real codec (see :class:`PayloadFeaturizer`).
    The pool defaults to ``default_pool_size()``: a fixed size as large
    as the session's CPU count starves the read tasks feeding it."""
    kwargs = {}
    if decoder is not None:
        kwargs["fn_constructor_kwargs"] = {"decoder": decoder}
    return media.map_batches(
        PayloadFeaturizer,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency or default_pool_size(),
        **kwargs,
    )


class ImageResizer:
    """Actor-pool resize stage: payload in → bounded-dimension payload out.

    The codec seam is stubbed (no image libs here): the surrogate derives
    source dimensions DETERMINISTICALLY from the payload byte length
    (w₀ = 64 + n%512, h₀ = 64 + (n//7)%512 — chosen to be SQL-mirrorable
    so the geometry is oracle-checked), and "resizes" with the real
    aspect-preserving integer math a production resizer uses:
    out = dim × max_dim // max(w₀, h₀) when the max exceeds ``max_dim``.
    The output payload stays a real binary column (marker + digest) so
    downstream plumbing handles bytes, not placeholders.
    """

    def __init__(self, max_dim: int = 256, use_fake_decoder: bool = True):
        if not use_fake_decoder:
            raise NotImplementedError(
                "no image codec in this environment; use the deterministic "
                "surrogate (use_fake_decoder=True)"
            )
        self.max_dim = max_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        n = np.array([len(p) for p in payloads], dtype=np.int64)
        w0 = 64 + n % 512
        h0 = 64 + (n // 7) % 512
        m = np.maximum(w0, h0)
        scale = m > self.max_dim
        out_w = np.where(scale, w0 * self.max_dim // m, w0)
        out_h = np.where(scale, h0 * self.max_dim // m, h0)
        out_payload = [
            b"RSZ0" + hashlib.sha256(p).digest()[:16] for p in payloads
        ]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(w0, pa.int64()),
                "height": pa.array(h0, pa.int64()),
                "out_width": pa.array(out_w, pa.int64()),
                "out_height": pa.array(out_h, pa.int64()),
                "payload": pa.array(out_payload, pa.binary()),
            }
        )


def resize(
    media: ray.data.Dataset,
    *,
    max_dim: int = 256,
    concurrency: int = 4,
    batch_size: int = 64,
) -> ray.data.Dataset:
    return media.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"max_dim": max_dim},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


class FrameSampler:
    """Actor-pool frame-sampling stage (video → frame rows, flat-map
    semantics: one input row becomes ``ceil(n_frames/stride)`` rows).

    Codec seam stubbed: the surrogate derives the frame count from the
    payload length (n_frames = 1 + n%60, SQL-mirrorable) and samples
    every ``stride = max(1, n_frames // target_frames)``-th frame — the
    real uniform-sampling math. Frame payloads are real binary rows
    (marker + digest + frame index)."""

    def __init__(self, target_frames: int = 8, use_fake_decoder: bool = True):
        if not use_fake_decoder:
            raise NotImplementedError(
                "no video codec in this environment; use the deterministic "
                "surrogate (use_fake_decoder=True)"
            )
        self.target_frames = target_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        n = np.array([len(p) for p in payloads], dtype=np.int64)
        n_frames = 1 + n % 60
        stride = np.maximum(1, n_frames // self.target_frames)
        counts = (n_frames + stride - 1) // stride  # ceil division
        out_ids = np.repeat(ids, counts)
        out_nf = np.repeat(n_frames, counts)
        # frame_idx = 0, stride, 2*stride, ... per row — vectorized ranges
        total = int(counts.sum())
        ends = np.cumsum(counts)
        starts = ends - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        out_idx = within * np.repeat(stride, counts)
        digests = [hashlib.sha256(p).digest()[:16] for p in payloads]
        frame_payloads = [
            b"FRM0" + digests[row] + int(fi).to_bytes(4, "little")
            for row, fi in zip(np.repeat(np.arange(len(n)), counts), out_idx)
        ]
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.int64()),
                "frame_idx": pa.array(out_idx, pa.int64()),
                "n_frames": pa.array(out_nf, pa.int64()),
                "payload": pa.array(frame_payloads, pa.binary()),
            }
        )


def sample_frames(
    media: ray.data.Dataset,
    *,
    target_frames: int = 8,
    concurrency: int = 4,
    batch_size: int = 64,
) -> ray.data.Dataset:
    return media.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"target_frames": target_frames},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )
