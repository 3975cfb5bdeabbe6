"""Distributed BPE vocabulary learning and encoding.

Byte-pair-encoding subword vocabularies (Sennrich, Haddow & Birch 2016,
"Neural Machine Translation of Rare Words with Subword Units" — the public
recipe every modern tokenizer trainer follows) learned over the corpus and
applied back to it:

* :func:`bpe_learn` — ONE distributed pass aggregates word frequencies
  (the shuffle is bounded by the vocabulary, not the token stream —
  :func:`pyrosm_ray.stages.blocks.keyed_sum_fold` pays per partition);
  the merge loop then runs on the driver over the compact
  ``(word, count)`` table. This split is the standard trainer shape
  (HuggingFace tokenizers aggregates word counts before its merge loop
  too): the loop is O(num_merges × vocab) over a Zipf-bounded ~10⁵-10⁶
  row table REGARDLESS of corpus size, so it never touches the token
  stream. ``max_words`` prunes to the top-M words (count desc, word asc)
  — the documented knob when the vocabulary itself is adversarial
  (URLs, UUIDs, code identifiers).
* :func:`bpe_encode` — applies a learned merge table back to the corpus
  as an actor-pool ``map_batches`` stage: the rank table builds ONCE per
  actor from a broadcast ref (``__init__``), encoded word → token-count
  results memoise per actor (Zipf makes the hit rate ~the dedup ratio of
  the word stream), batches encode by unique word.

Determinism contract: merge ties break on the lexicographically smallest
``(left, right)`` pair, so the learned table is a pure function of the
corpus — replicable by the naive reference implementation in
tests/test_bpe.py. The iterative argmax-and-rewrite loop is genuinely
non-SQL-expressible, so the driver records a rows-only check for the BPE
queries; exactness is pinned by the independent-implementation parity
test instead.

No reference equivalent (pyrosm has no text operators — SURVEY.md §2.6);
the aggregate→driver-loop→broadcast shape follows stages/text.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

END = "</w>"

MERGES_SCHEMA = pa.schema([
    ("rank", pa.int64()),
    ("left", pa.string()),
    ("right", pa.string()),
    ("merged", pa.string()),
    ("pair_count", pa.int64()),
])


def word_counts(ds, text_col: str = "text",
                num_partitions: int | None = None):
    """Corpus word frequencies as a Dataset of ``(word, n)`` — batch-local
    partial counts, one coarse keyed fold."""
    import pandas as pd


    def partial(batch: pa.Table) -> pa.Table:
        words: list[str] = []
        for t in batch[text_col].to_pylist():
            words.extend((t or "").lower().split())
        if not words:
            return pa.table({"word": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(words, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    from pyrosm_ray.stages.blocks import keyed_sum_auto
    return keyed_sum_auto(ds.map_batches(partial, batch_format="pyarrow"),
                          "word", ["n"], num_partitions=num_partitions)


def merges_from_counts(words: list[str], counts: np.ndarray,
                       num_merges: int) -> pa.Table:
    """The classic merge loop over an aggregated ``(word, count)`` vocab.

    Each word is a symbol sequence (its characters + the ``</w>`` end
    marker); every round counts weighted adjacent pairs, merges the most
    frequent (ties → lexicographically smallest pair) everywhere, and
    records the merge. Stops early when no pair occurs twice.

    Incremental trainer shape: pair counts and a pair→words index build
    once; each merge rewrites ONLY the words containing the merged pair
    and patches counts by (subtract old word pairs, add new). Per round
    the argmax scan is O(live pairs) and the rewrite is O(touched
    symbols) — the loop never re-reads untouched vocabulary.
    """
    seqs: list[tuple[str, ...]] = [tuple(w) + (END,) for w in words]
    cnts = [int(c) for c in counts]
    pair_n: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], set[int]] = {}
    for i, (seq, c) in enumerate(zip(seqs, cnts)):
        for j in range(len(seq) - 1):
            p = (seq[j], seq[j + 1])
            pair_n[p] = pair_n.get(p, 0) + c
            where.setdefault(p, set()).add(i)
    out_rank: list[int] = []
    out_l: list[str] = []
    out_r: list[str] = []
    out_n: list[int] = []

    def _drop(seq: tuple[str, ...], i: int, c: int) -> None:
        for j in range(len(seq) - 1):
            p = (seq[j], seq[j + 1])
            left = pair_n[p] - c
            if left:
                pair_n[p] = left
            else:
                del pair_n[p]
                where.pop(p, None)
        for j in range(len(seq) - 1):
            w = where.get((seq[j], seq[j + 1]))
            if w is not None:
                w.discard(i)

    def _add(seq: tuple[str, ...], i: int, c: int) -> None:
        for j in range(len(seq) - 1):
            p = (seq[j], seq[j + 1])
            pair_n[p] = pair_n.get(p, 0) + c
            where.setdefault(p, set()).add(i)

    for rank in range(num_merges):
        if not pair_n:
            break
        (left, right), n = min(pair_n.items(),
                               key=lambda kv: (-kv[1], kv[0]))
        if n < 2:
            break
        joined = left + right
        for i in sorted(where.get((left, right), ())):
            seq, c = seqs[i], cnts[i]
            js, j = [], 0
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == left \
                        and seq[j + 1] == right:
                    js.append(joined)
                    j += 2
                else:
                    js.append(seq[j])
                    j += 1
            new = tuple(js)
            _drop(seq, i, c)
            _add(new, i, c)
            seqs[i] = new
        out_rank.append(rank)
        out_l.append(left)
        out_r.append(right)
        out_n.append(n)
    return pa.table({
        "rank": pa.array(out_rank, pa.int64()),
        "left": pa.array(out_l, pa.string()),
        "right": pa.array(out_r, pa.string()),
        "merged": pa.array([a + b for a, b in zip(out_l, out_r)],
                           pa.string()),
        "pair_count": pa.array(out_n, pa.int64()),
    })


def bpe_learn(ds, num_merges: int = 64, text_col: str = "text",
              max_words: int | None = None,
              num_partitions: int | None = None) -> pa.Table:
    """Learn a BPE merge table from the corpus (see module docstring for
    the distributed/driver split). Returns the merge table
    ``(rank, left, right, merged, pair_count)`` — a small driver-side
    artifact, like every trained-tokenizer file."""
    freq = word_counts(ds, text_col, num_partitions)
    words_l, counts_l = [], []
    for b in freq.iter_batches(batch_format="pyarrow"):
        words_l.append(np.asarray(b["word"].to_pylist(), dtype=object))
        counts_l.append(b["n"].to_numpy(zero_copy_only=False))
    if not words_l:
        return MERGES_SCHEMA.empty_table()
    vw = np.concatenate(words_l)
    vc = np.concatenate(counts_l).astype(np.int64)
    # deterministic order regardless of fold partitioning; max_words
    # prunes best-first
    order = np.lexsort((vw, -vc))
    vw, vc = vw[order], vc[order]
    if max_words is not None:
        vw, vc = vw[:max_words], vc[:max_words]
    return merges_from_counts(list(vw), vc, num_merges)


def _encode_len(word: str, rank: dict[tuple[str, str], int]) -> int:
    """Token count of one word under the learned merges — repeatedly
    merge the present pair with the lowest rank (the standard BPE
    apply rule)."""
    seq = list(word) + [END]
    while len(seq) > 1:
        best_j, best_r = -1, None
        for j in range(len(seq) - 1):
            r = rank.get((seq[j], seq[j + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_j, best_r = j, r
        if best_r is None:
            break
        seq[best_j:best_j + 2] = [seq[best_j] + seq[best_j + 1]]
    return len(seq)


class BpeEncode:
    """Actor-pool encode stage: rank table from the broadcast merges ref
    once per actor; per-word token lengths memoise across batches."""

    def __init__(self, merges_ref, text_col: str = "text",
                 id_col: str = "doc_id"):
        import ray

        m = ray.get(merges_ref)
        self.rank = {(l, r): k for k, l, r in
                     zip(m["rank"].to_pylist(), m["left"].to_pylist(),
                         m["right"].to_pylist())}
        self.text_col, self.id_col = text_col, id_col
        self.memo: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        texts = batch[self.text_col].to_pylist()
        words: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            words.extend(ws)
            counts[i] = len(ws)
        if words:
            codes, uniq = pd.factorize(np.asarray(words, dtype=object))
            lens = np.empty(len(uniq), dtype=np.int64)
            for u, w in enumerate(uniq):
                n = self.memo.get(w)
                if n is None:
                    n = _encode_len(w, self.rank)
                    self.memo[w] = n
                lens[u] = n
            per = lens[codes]
        else:
            per = np.empty(0, dtype=np.int64)
        off = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        cs = np.zeros(len(per) + 1, dtype=np.int64)
        np.cumsum(per, out=cs[1:])
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_words": pa.array(counts, pa.int64()),
            "n_bpe_tokens": pa.array(cs[off[1:]] - cs[off[:-1]],
                                     pa.int64()),
        })


def bpe_encode(ds, merges: pa.Table, text_col: str = "text",
               id_col: str = "doc_id", concurrency=None):
    """Apply a learned merge table: per-doc BPE token counts
    ``(doc_id, n_words, n_bpe_tokens)`` via the actor-pool stage.

    ``concurrency`` defaults to an autoscaling pool FLOORED at half the
    cluster: the per-batch work after the memo warms is too light for
    Ray's lazy (1, N) pool to ever scale up (measured 3.2 s autoscaled
    vs 2.05 s pre-started on a 500 k-doc corpus at 8 CPUs), while a
    FIXED full-cluster pool holds every CPU and starves the upstream
    read tasks outright (a 16-CPU session deadlocks: an actor pool must
    leave the map side CPUs). Half pre-started, cluster-capped, keeps
    both properties."""
    import ray

    if concurrency is None:
        from pyrosm_ray.stages.blocks import _cluster_cpus
        cpus = _cluster_cpus()
        concurrency = (max(1, cpus // 2), cpus)
    ref = ray.put(merges)
    return ds.map_batches(BpeEncode, batch_format="pyarrow",
                          concurrency=concurrency,
                          fn_constructor_kwargs={
                              "merges_ref": ref, "text_col": text_col,
                              "id_col": id_col})
