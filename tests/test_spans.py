import numpy as np
import pyarrow as pa
import ray.data as rd

from pyrosm_ray.stages import blocks, spans


def _tbl(docs):
    return pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array([docs[k] for k in docs], pa.string()),
    })


def _brute(docs, w):
    from collections import Counter
    wins = {i: [" ".join((t or "").lower().split()[j:j + w])
                for j in range(max(len((t or "").lower().split())
                                   - w + 1, 0))]
            for i, t in docs.items()}
    tot = Counter(x for ws in wins.values() for x in ws)
    return {i: (len(ws), sum(1 for x in ws if tot[x] >= 2))
            for i, ws in wins.items() if ws}


def test_dup_span_stats_matches_brute_force(ray_session):
    docs = {
        1: "a b c d e f g h i j",          # shares the abcd window w/ 2
        2: "a b c d x y z q r s",
        3: "unique words only here nothing repeats at all ok",
        4: "p p p p p p p p",              # within-doc repeats: all dup
        5: "too short",                     # < w tokens: absent
    }
    w = 4
    got = spans.dup_span_stats(rd.from_arrow(_tbl(docs)),
                               window=w).to_pandas()
    expect = _brute(docs, w)
    got_m = {i: (nw, nd) for i, nw, nd in
             zip(got.doc_id, got.n_windows, got.n_dup_windows)}
    assert got_m == expect
    assert 5 not in got_m                  # no windows -> absent
    assert got_m[4] == (5, 5)              # every window repeats in-doc
    assert got_m[1][1] == 1 and got_m[2][1] == 1  # one shared window


def test_dup_span_fingerprint_order_sensitivity():
    # same multiset of tokens, different order -> different fingerprint
    c_lo, c_hi = spans._window_constants(3)
    r1, lo1, hi1 = spans._window_fingerprints(["a b c"], 3, c_lo, c_hi)
    r2, lo2, hi2 = spans._window_fingerprints(["c b a"], 3, c_lo, c_hi)
    assert len(lo1) == len(lo2) == 1
    assert (lo1[0], hi1[0]) != (lo2[0], hi2[0])


def test_dup_span_no_cross_doc_window_bleed(ray_session):
    # windows never span doc boundaries: tail of doc A + head of doc B
    docs = {1: "x1 x2 x3", 2: "x4 x5 x6", 3: "x2 x3 x4"}
    got = spans.dup_span_stats(rd.from_arrow(_tbl(docs)),
                               window=3).to_pandas()
    assert int(got.n_dup_windows.sum()) == 0


def test_dup_span_route_parity(ray_session, monkeypatch):
    """One-task folds (``nb=None`` within the ceiling) and split folds
    (ceiling forced to 0) produce identical stats."""
    docs = {i: f"w{i % 4} common phrase tail t{i} extra pad words here"
            for i in range(1, 30)}
    fast = spans.dup_span_stats(rd.from_arrow(_tbl(docs)),
                                window=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    dist = spans.dup_span_stats(rd.from_arrow(_tbl(docs)),
                                window=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert fast.equals(dist)
    assert int(fast.n_dup_windows.sum()) > 0


def test_dup_span_stats_executes_upstream_once(ray_session):
    """Both folds stream the upstream plan once: no pre-gate count of an
    unmaterialized Dataset runs it a second time."""
    import ray

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    c = Counter.remote()

    def tagged(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    docs = {i: f"w{i % 4} common phrase tail t{i}" for i in range(1, 30)}
    ds = rd.from_arrow(_tbl(docs)).repartition(3).map_batches(
        tagged, batch_format="pyarrow")
    got = spans.dup_span_stats(ds, window=4).to_pandas()
    assert len(got) == len(_brute(docs, 4))
    assert ray.get(c.get.remote()) == 3
