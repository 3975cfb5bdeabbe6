"""Trained text-quality classifier (the CCNet / fastText curation stage).

Modern curation pipelines gate documents with a TRAINED linear
classifier over hashed bag-of-words features (CCNet's fastText LID +
quality models; RefinedWeb / Dolma reuse the recipe). This module
implements that stage Ray-Data-first:

* :func:`train_text_classifier` — binary logistic regression by
  full-batch gradient descent in the broadcast-partials shape
  (:func:`pyrosm_ray.stages.similarity.kmeans_fit`'s contract): weights
  go out once per iteration via ``ray.put``; one stateless
  ``map_batches`` pass computes each block's EXACT gradient
  contribution (sparse: per-word hashed-bucket scatter, one sigmoid per
  doc) and emits ONE (bkey, n, gradient-blob) row per block; the driver
  reduces the ~num_blocks dense vectors in DETERMINISTIC (bkey) order
  and takes the step. Labels come from a column predicate
  (``target_col == target_value``), the same supervision DSIR uses.
* :func:`score_text_classifier` — one stateless pass appending the
  logit and probability per doc (weights broadcast once).

Features: words hash into ``feature_buckets`` md5-tail buckets
(:func:`~pyrosm_ray.stages.hashing.word_hashes` — the repo's
oracle-stable hash), per-doc values
are binary PRESENCE (a rare marker word contributes one full unit, not
1/n_tokens — the signal shape a linear text gate wants), plus an
intercept. Training
is deterministic for a fixed blocking (sorted reduce); on ONE block it
is bit-identical to the plain numpy twin (pinned in
tests/test_classifier.py), and block-split invariance holds to float
associativity (allclose-pinned). The iterative float loop is genuinely
non-SQL-expressible, so the driver records a rows-only check for
q_quality_classifier; the pytest twin is the exactness gate.

No reference equivalent; the public recipe is Joulin et al. 2016
(fastText) simplified to its linear-classifier core.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pyrosm_ray.stages.blocks import unreserved
from pyrosm_ray.stages.hashing import word_hashes


def _doc_features(texts, buckets: int):
    """Per-doc sparse PRESENCE features (binary hashed BoW — the strong
    per-token signal a linear text gate wants; a rare marker word is one
    full unit, not 1/n_tokens): returns (flat unique bucket ids per doc,
    doc offsets)."""
    h, counts = word_hashes(texts)
    idx = (h % np.uint64(buckets)).astype(np.int64)
    row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # per-doc unique buckets via one combined-key unique (row-major, so
    # offsets rebuild from the row counts)
    key = np.unique(row * np.int64(buckets) + idx)
    urow = key // buckets
    idx_u = key % buckets
    per_doc = np.bincount(urow, minlength=len(counts)).astype(np.int64)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(per_doc, out=off[1:])
    return idx_u, off


def _logits(idx, off, w: np.ndarray, buckets: int) -> np.ndarray:
    """z = Σ_{present bucket} w[bucket] + intercept, vectorised via the
    cumsum-over-gathered-weights trick."""
    gw = w[idx]
    cs = np.zeros(len(gw) + 1, dtype=np.float64)
    np.cumsum(gw, out=cs[1:])
    return cs[off[1:]] - cs[off[:-1]] + w[buckets]


def train_text_classifier(ds, target_col: str = "lang",
                          target_value: str = "en",
                          text_col: str = "text",
                          id_col: str = "doc_id",
                          feature_buckets: int = 4096,
                          iters: int = 20, lr: float = 2.0) -> np.ndarray:
    """Returns the learned weight vector (``feature_buckets`` bucket
    weights + intercept at index -1). See module docstring."""
    import ray

    import pyarrow.compute as pc

    B = feature_buckets
    ds = unreserved(ds.materialize())
    w = np.zeros(B + 1, dtype=np.float64)
    for _ in range(iters):
        ref = ray.put(np.ascontiguousarray(w))

        def grad(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"bkey": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64()),
                                 "g": pa.array([], pa.binary())})
            wv = ray.get(ref)
            y = np.asarray(pc.equal(batch[target_col], target_value)
                           .to_numpy(zero_copy_only=False), np.float64)
            idx, off = _doc_features(batch[text_col], B)
            z = _logits(idx, off, wv, B)
            p = 1.0 / (1.0 + np.exp(-z))
            r = p - y                      # dL/dz per doc
            g = np.zeros(B + 1, dtype=np.float64)
            per_feat = np.repeat(r, np.diff(off))
            np.add.at(g, idx, per_feat)
            g[B] = r.sum()
            bkey = int(np.min(np.asarray(
                batch[id_col].to_numpy(zero_copy_only=False))))
            return pa.table({
                "bkey": pa.array([bkey], pa.int64()),
                "n": pa.array([batch.num_rows], pa.int64()),
                "g": pa.array([g.tobytes()], pa.binary())})

        parts = ds.map_batches(grad, batch_format="pyarrow").to_pandas()
        if not len(parts):
            break
        parts = parts.sort_values("bkey", kind="stable")
        total = np.zeros(B + 1, dtype=np.float64)
        for buf in parts["g"]:
            total += np.frombuffer(buf, dtype=np.float64)
        n = max(int(parts["n"].sum()), 1)
        w = w - lr * (total / n)
    return w


def score_text_classifier(ds, weights: np.ndarray,
                          text_col: str = "text",
                          id_col: str = "doc_id",
                          threshold: float = 0.5):
    """Append ``logit``, ``prob`` and the keep flag ``is_target`` per
    doc (weights broadcast once, one stateless pass)."""
    import ray

    B = len(weights) - 1
    ref = ray.put(np.ascontiguousarray(np.asarray(weights, np.float64)))

    def score(batch: pa.Table) -> pa.Table:
        wv = ray.get(ref)
        idx, off = _doc_features(batch[text_col], B)
        z = _logits(idx, off, wv, B)
        p = 1.0 / (1.0 + np.exp(-z))
        return pa.table({
            id_col: batch[id_col],
            "logit": pa.array(z, pa.float64()),
            "prob": pa.array(p, pa.float64()),
            "is_target": pa.array(p >= threshold, pa.bool_()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
