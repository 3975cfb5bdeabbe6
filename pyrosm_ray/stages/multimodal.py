"""Multimodal (image/audio/video) columns: opaque binary + typed metadata.

Decode is REAL for the stdlib-decodable containers — PNG / BMP / PPM
images and integer-PCM WAV audio (:mod:`pyrosm_ray.stages.codecs`,
pure zlib/wave/numpy) — dispatched by payload magic bytes. Formats that
need an external codec (JPEG, MP3, video) fall through to PIL/soundfile
when importable, else to a deterministic fake (clearly marked) so the
Ray-side plumbing stays exercised: schema contract, actor-pool stage
shape (decoder state built once per actor), small-batch sizing for wide
binary rows, and the output layout.

Contract: a media table is ``(id:int64, payload:binary, media_type:string,
meta: map<string,string>)``. Stages append typed feature columns and never
mutate ``payload``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages import codecs
from pyrosm_ray.stages.blocks import unreserved

MEDIA_SCHEMA = pa.schema([
    ("id", pa.int64()),
    ("payload", pa.binary()),
    ("media_type", pa.string()),
    ("meta", pa.map_(pa.string(), pa.string())),
])


def _fake_decode_image(payload: bytes) -> np.ndarray:
    """DETERMINISTIC FAKE decoder (no image libs in this container): derives
    a small pseudo-image from the payload digest. Replace the body with
    ``PIL.Image.open`` when Pillow is available — the stage contract
    (batch in, HxWx3 uint8 out) is unchanged."""
    h = hashlib.blake2b(payload, digest_size=16).digest()
    rng = np.random.default_rng(np.frombuffer(h, dtype=np.uint64))
    hgt, wid = 8 + h[0] % 56, 8 + h[1] % 56
    return rng.integers(0, 256, size=(hgt, wid, 3), dtype=np.uint8)


class ImageFeatureExtractor:
    """Actor-pool stage: decode + feature-extract image payloads.

    ``__init__`` loads the decoder once per actor (the import-try is the
    'model load'); ``__call__`` processes one small batch (wide binary rows
    -> keep ``batch_size`` small, e.g. 64-256)."""

    def __init__(self, resize_to: int | None = None):
        self.resize_to = resize_to
        try:  # pragma: no cover - not present in this container
            from PIL import Image  # noqa: F401
            self._backend = "pillow"
        except ImportError:
            self._backend = "fake"

    def _decode(self, payload: bytes) -> np.ndarray:
        if codecs.sniff_media(payload) in ("png", "bmp", "ppm"):
            img = codecs.decode_image(payload)  # REAL stdlib decode
            if img.shape[2] == 1:               # gray -> RGB
                img = np.repeat(img, 3, axis=2)
            elif img.shape[2] == 2:             # gray+alpha -> RGB
                img = np.repeat(img[:, :, :1], 3, axis=2)
            elif img.shape[2] == 4:             # drop alpha
                img = img[:, :, :3]
            return img
        if self._backend == "pillow":  # pragma: no cover
            import io

            from PIL import Image
            return np.asarray(Image.open(io.BytesIO(payload)).convert("RGB"))
        return _fake_decode_image(payload)

    def _resize(self, img: np.ndarray, size: int) -> np.ndarray:
        """Nearest-neighbour resize (numpy index sampling — real, not stub)."""
        h, w = img.shape[:2]
        yi = (np.arange(size) * h // size).clip(0, h - 1)
        xi = (np.arange(size) * w // size).clip(0, w - 1)
        return img[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        hgt = np.zeros(len(payloads), dtype=np.int64)
        wid = np.zeros(len(payloads), dtype=np.int64)
        mean_i = np.zeros(len(payloads), dtype=np.float64)
        thumbs: list[bytes | None] = []
        for i, p in enumerate(payloads):
            if p is None:
                thumbs.append(None)
                continue
            img = self._decode(p)
            hgt[i], wid[i] = img.shape[0], img.shape[1]
            mean_i[i] = float(img.mean())
            if self.resize_to:
                img = self._resize(img, self.resize_to)
            thumbs.append(np.ascontiguousarray(img).tobytes())
        batch = batch.append_column("height", pa.array(hgt, pa.int64()))
        batch = batch.append_column("width", pa.array(wid, pa.int64()))
        batch = batch.append_column("mean_intensity",
                                    pa.array(np.round(mean_i, 4),
                                             pa.float64()))
        return batch.append_column("decoded", pa.array(thumbs, pa.binary()))


def extract_image_features(media_ds, resize_to: int | None = 32,
                           batch_size: int = 128, concurrency=(1, 8)):
    """Actor-pool map_batches over a media table (small batches: rows are
    payload-wide, so batch bytes — not row count — bound worker heap)."""
    return media_ds.map_batches(
        ImageFeatureExtractor,
        fn_constructor_kwargs={"resize_to": resize_to},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash of an HxWx3 uint8 image: integer luma
    ((299R+587G+114B)//1000), nearest-neighbour sample to an 8x9 grid
    (the same index rule as ``ImageFeatureExtractor._resize``), bit
    (i,j) = right neighbour brighter. Deterministic — no float rounding
    anywhere — so the pytest twin reproduces it from the closed-form
    fixture pixels."""
    h, w = img.shape[:2]
    luma = ((299 * img[:, :, 0].astype(np.int64)
             + 587 * img[:, :, 1].astype(np.int64)
             + 114 * img[:, :, 2].astype(np.int64)) // 1000)
    yi = (np.arange(8) * h // 8).clip(0, h - 1)
    xi = (np.arange(9) * w // 9).clip(0, w - 1)
    g = luma[np.ix_(yi, xi)]
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    return int(np.uint64(
        (bits.astype(np.uint64)
         << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)))


class ImageDHasher(ImageFeatureExtractor):
    """Actor-pool stage: per-image 64-bit dHash (decoder state inherited
    — built once per actor in ``__init__``)."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        hashes = np.zeros(batch.num_rows, dtype=np.uint64)
        for i, p in enumerate(batch["payload"].to_pylist()):
            if p is not None:
                hashes[i] = dhash64(self._decode(p))
        return pa.table({
            "id": batch["id"],
            "dhash": pa.array(hashes.view(np.int64), pa.int64()),
        })


def image_dhash(media_ds, batch_size: int = 128, concurrency=(1, 8)):
    """(id, dhash:int64) per image — the perceptual-hash signature stage."""
    return media_ds.map_batches(
        ImageDHasher, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def image_near_dup(media_ds, max_hamming: int = 4,
                   batch_size: int = 128, concurrency=(1, 8),
                   num_partitions: int | None = None):
    """Exact Hamming-<=k pairs over image dHashes: perceptual near-dup
    for image corpora (re-encodes, slight crops/brightness shifts keep a
    close dHash; distinct photos diverge). Candidate generation +
    popcount verify ride :func:`pyrosm_ray.stages.dedup.hamming_pairs`
    (complete pigeonhole banding — same machinery as the text simhash
    route, so scale behavior is already characterised)."""
    from pyrosm_ray.stages.dedup import hamming_pairs
    sig = unreserved(image_dhash(media_ds, batch_size=batch_size,
                                 concurrency=concurrency).materialize())
    return hamming_pairs(sig, id_col="id", hash_col="dhash",
                         max_hamming=max_hamming,
                         num_partitions=num_partitions)


class FrameSampler:
    """Video-like payloads: sample every k-th 'frame'.

    STUB decode (``NotImplementedError`` for real codecs); the fake treats
    the payload as a concatenation of fixed-size frame blocks so the
    plumbing (1 row -> n frame rows, frame_index column) is real."""

    def __init__(self, frame_bytes: int = 256, every: int = 4):
        self.frame_bytes = frame_bytes
        self.every = every

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, fidx = [], [], []
        id_np = np.asarray(batch["id"].to_numpy(zero_copy_only=False))
        for i, p in enumerate(batch["payload"].to_pylist()):
            if p is None:
                continue
            n_frames = max(1, len(p) // self.frame_bytes)
            for f in range(0, n_frames, self.every):
                ids.append(int(id_np[i]))
                frames.append(p[f * self.frame_bytes:(f + 1)
                                * self.frame_bytes])
                fidx.append(f)
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "frame_index": pa.array(fidx, pa.int64()),
            "frame": pa.array(frames, pa.binary()),
        })


def sample_frames(media_ds, every: int = 4, batch_size: int = 64,
                  concurrency=(1, 4)):
    return media_ds.map_batches(
        FrameSampler, fn_constructor_kwargs={"every": every},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def _fake_decode_audio(payload: bytes, rate: int = 16_000):
    """DETERMINISTIC FAKE decoder (no audio libs in this container):
    derives a pseudo-waveform from the payload digest; length scales with
    payload size so duration/feature plumbing behaves like real media.
    Replace the body with ``soundfile.read`` when available — the stage
    contract (payload in, (float32 mono waveform, sample rate) out) is
    unchanged."""
    h = hashlib.blake2b(payload, digest_size=16).digest()
    rng = np.random.default_rng(np.frombuffer(h, dtype=np.uint64))
    n = max(rate // 100, min(len(payload) * 4, rate * 30))
    return rng.standard_normal(n).astype(np.float32) * 0.1, rate


class AudioFeatureExtractor:
    """Actor-pool stage: decode + feature-extract audio payloads
    (duration, RMS level, zero-crossing rate). Same shape as
    :class:`ImageFeatureExtractor`: decoder resolved once per actor in
    ``__init__``, small payload-wide batches in ``__call__``."""

    def __init__(self, target_rate: int = 16_000):
        self.target_rate = target_rate
        try:  # pragma: no cover - not present in this container
            import soundfile  # noqa: F401
            self._backend = "soundfile"
        except ImportError:
            self._backend = "fake"

    def _decode(self, payload: bytes):
        if codecs.sniff_media(payload) == "wav":
            return codecs.decode_wav(payload)  # REAL stdlib decode
        if self._backend == "soundfile":  # pragma: no cover
            import io

            import soundfile
            wav, rate = soundfile.read(io.BytesIO(payload), dtype="float32")
            if wav.ndim > 1:
                wav = wav.mean(axis=1)
            return wav, rate
        return _fake_decode_audio(payload, self.target_rate)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        dur = np.zeros(len(payloads), dtype=np.float64)
        rms = np.zeros(len(payloads), dtype=np.float64)
        zcr = np.zeros(len(payloads), dtype=np.float64)
        for i, p in enumerate(payloads):
            if p is None:
                continue
            wav, rate = self._decode(p)
            if not len(wav):
                continue
            dur[i] = len(wav) / rate
            rms[i] = float(np.sqrt(np.mean(wav ** 2)))
            zcr[i] = float(np.mean(np.signbit(wav[1:])
                                   != np.signbit(wav[:-1])))
        batch = batch.append_column(
            "duration_s", pa.array(np.round(dur, 4), pa.float64()))
        batch = batch.append_column(
            "rms", pa.array(np.round(rms, 6), pa.float64()))
        return batch.append_column(
            "zero_crossing_rate", pa.array(np.round(zcr, 6), pa.float64()))


def extract_audio_features(media_ds, batch_size: int = 128,
                           concurrency=(1, 8)):
    return media_ds.map_batches(
        AudioFeatureExtractor,
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def audio_fingerprint64(wav: np.ndarray) -> int:
    """64-bit energy-envelope fingerprint: the waveform splits into 65
    equal windows, window energy = sum of squares, bit i = energy rises
    from window i to i+1 (the sign-of-delta rule — the same robustness
    idea as image dHash: re-encodes and level shifts preserve the
    envelope SHAPE). Waveforms shorter than 65 samples zero-pad."""
    n = max(len(wav), 65)
    buf = np.zeros(n, np.float64)
    buf[:len(wav)] = np.asarray(wav, np.float64)
    edges = (np.arange(66) * n) // 65
    sq = np.zeros(n + 1, np.float64)
    np.cumsum(buf * buf, out=sq[1:])
    energy = sq[edges[1:]] - sq[edges[:-1]]
    bits = energy[1:] > energy[:-1]
    return int(np.uint64(
        (bits.astype(np.uint64)
         << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)))


class AudioFingerprinter(AudioFeatureExtractor):
    """Actor-pool stage: per-clip 64-bit envelope fingerprint (decoder
    state inherited — resolved once per actor)."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        fps = np.zeros(batch.num_rows, dtype=np.uint64)
        for i, p in enumerate(batch["payload"].to_pylist()):
            if p is not None:
                wav, _ = self._decode(p)
                fps[i] = audio_fingerprint64(wav)
        return pa.table({
            "id": batch["id"],
            "afp": pa.array(fps.view(np.int64), pa.int64()),
        })


def audio_fingerprints(media_ds, batch_size: int = 128,
                       concurrency=(1, 8)):
    """(id, afp:int64) per clip — the audio signature stage."""
    return media_ds.map_batches(
        AudioFingerprinter, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency)


def audio_near_dup(media_ds, max_hamming: int = 4,
                   batch_size: int = 128, concurrency=(1, 8),
                   num_partitions: int | None = None):
    """Exact Hamming-<=k pairs over audio envelope fingerprints — the
    audio twin of :func:`image_near_dup`, riding the same complete
    pigeonhole :func:`pyrosm_ray.stages.dedup.hamming_pairs` banding."""
    from pyrosm_ray.stages.dedup import hamming_pairs
    sig = unreserved(audio_fingerprints(media_ds, batch_size=batch_size,
                                        concurrency=concurrency).materialize())
    return hamming_pairs(sig, id_col="id", hash_col="afp",
                         max_hamming=max_hamming,
                         num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# deterministic media synthesis (oracle-checkable REAL decode pipelines)
# ---------------------------------------------------------------------------
# Pixel/sample laws are closed-form over doc_id so the whole
# encode -> decode -> feature chain is verifiable in ANSI SQL
# (generate_series recomputes the exact integer pixel/PCM sums).

def _image_dims(doc_id: int) -> tuple[int, int]:
    return 16 + doc_id % 17, 16 + (doc_id * 7) % 13  # (height, width)


def synth_image_media(docs_ds, batch_size: int = 256):
    """documents(doc_id) -> media table with REAL PNG payloads whose pixels
    follow ``px[k] = (doc_id*31 + k*7919) % 256`` over k < h*w*3."""
    from pyrosm_ray.stages import codecs

    def build(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        payloads = []
        for d in ids:
            h, w = _image_dims(int(d))
            k = np.arange(h * w * 3, dtype=np.int64)
            px = ((int(d) * 31 + k * 7919) % 256).astype(np.uint8)
            payloads.append(codecs.encode_png(px.reshape(h, w, 3)))
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image"] * len(ids), pa.string()),
            "meta": pa.array([[]] * len(ids),
                             pa.map_(pa.string(), pa.string())),
        })

    return docs_ds.map_batches(build, batch_format="pyarrow",
                               batch_size=batch_size)


def synth_audio_media(docs_ds, rate: int = 8_000, batch_size: int = 256):
    """documents(doc_id) -> media table with REAL 16-bit PCM WAV payloads:
    ``pcm[k] = (doc_id*13 + k*31) % 4096 - 2048`` over
    k < 800 + (doc_id % 5) * 160."""
    from pyrosm_ray.stages import codecs

    def build(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        payloads = []
        for d in ids:
            n = 800 + (int(d) % 5) * 160
            k = np.arange(n, dtype=np.int64)
            pcm = (int(d) * 13 + k * 31) % 4096 - 2048
            payloads.append(codecs.encode_wav_pcm16(
                pcm.astype(np.float64) / 32768.0, rate))
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["audio"] * len(ids), pa.string()),
            "meta": pa.array([[]] * len(ids),
                             pa.map_(pa.string(), pa.string())),
        })

    return docs_ds.map_batches(build, batch_format="pyarrow",
                               batch_size=batch_size)
