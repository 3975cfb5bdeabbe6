"""Edge inputs on the operators whose driver twin is gone.

``keyed_sum_auto``, ``group_quantiles``, ``group_quantiles_continuous``,
``exact_dedup``, ``incremental_dedup`` and ``dup_span_stats`` now run
every input through ``blocks.fold``/``exchange`` with ``nb=None``, and
the near-dup operators (``minhash_dedup``, ``hamming_pairs``,
``ngram_jaccard_pairs``, ``similarity_join``) take their candidates from
one such fold. Each case runs with the fold ceiling lowered to ``N``
rows, so "at the ceiling" and "one row more" take the one-task and the
split route; the near-dup operators run each case on both verify routes
(``PAIRS_BROADCAST_MAX`` at its default and at 0). The expected values
come from brute-force references of the documented semantics, and the
result schema must be typed even when it has no rows."""

import itertools
import math

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from pyrosm_ray.stages import blocks, dedup, quantiles, spans

N = 48  # the lowered KEYED_FOLD_DRIVER_MAX

_CASES = ["empty", "zero_row_blocks", "one_key", "all_one_key",
          "at_ceiling", "above_ceiling"]


def _keys(case: str) -> list[int]:
    return {"empty": [], "zero_row_blocks": [i % 5 for i in range(12)],
            "one_key": [7], "all_one_key": [7] * 30,
            "at_ceiling": [i % 13 for i in range(N)],
            "above_ceiling": [i % 13 for i in range(N + 1)]}[case]


def _dataset(case: str, t: pa.Table):
    """``t`` as a Dataset; the zero-row-blocks case puts typed zero-row
    blocks before, between and after two row blocks."""
    if case == "zero_row_blocks":
        half = t.num_rows // 2
        return rd.from_arrow([t.slice(0, 0), t.slice(0, half), t.slice(0, 0),
                              t.slice(half), t.slice(0, 0)])
    if t.num_rows > 1:
        return rd.from_arrow(t).repartition(3)
    return rd.from_arrow(t)


def _rows(out) -> list[dict]:
    """Every output row, read block by block (``to_pandas`` drops the
    columns of an all-empty result)."""
    return [r for b in out.iter_internal_ref_bundles()
            for ref, _ in b.blocks for r in ray.get(ref).to_pylist()]


def _disc(vals: list, q: float):
    vals = sorted(vals)
    return vals[max(math.ceil(q * len(vals)) - 1, 0)]


def _keyed_sum(keys):
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array([3 * i - 20 for i in range(len(keys))],
                                pa.int64())})
    want: dict = {}
    for k, v in zip(t["k"].to_pylist(), t["v"].to_pylist()):
        want[k] = want.get(k, 0) + v
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    def run(ds):
        return blocks.keyed_sum_auto(
            ds.map_batches(lambda b: b, batch_format="pyarrow"), "k", ["v"])
    return t, run, sorted(want.items()), schema, \
        lambda rows: sorted((r["k"], r["v"]) for r in rows)


def _quantile_case(keys, continuous: bool):
    vals = [(i * 37) % 23 + (0.25 if continuous else 0)
            for i in range(len(keys))]
    t = pa.table({"g": pa.array([f"g{k}" for k in keys], pa.string()),
                  "x": pa.array(vals, pa.float64() if continuous
                                else pa.int64())})
    groups: dict = {}
    for g, x in zip(t["g"].to_pylist(), vals):
        groups.setdefault(g, []).append(x)
    want = sorted((g, _disc(xs, 0.5), _disc(xs, 0.9))
                  for g, xs in groups.items())
    qtype = pa.float64() if continuous else pa.int64()
    schema = pa.schema([("group", pa.string()), ("q0", qtype),
                        ("q1", qtype)])
    op = quantiles.group_quantiles_continuous if continuous \
        else quantiles.group_quantiles

    def run(ds):
        return op(ds, "g", "x", [0.5, 0.9])
    return t, run, want, schema, \
        lambda rows: sorted((r["group"], r["q0"], r["q1"]) for r in rows)


def _docs(keys, first_id: int = 1) -> pa.Table:
    return pa.table({
        "doc_id": pa.array(range(first_id, first_id + len(keys)),
                           pa.int64()),
        "text": pa.array([f"Text  {k} body" for k in keys], pa.string())})


_DOC_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _exact(keys):
    t = _docs(keys)
    first: dict = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        first.setdefault(" ".join(x.lower().split()), i)
    want = sorted(first.values())
    return t, dedup.exact_dedup, want, _DOC_SCHEMA, \
        lambda rows: sorted(r["doc_id"] for r in rows)


def _incremental(keys):
    t = _docs(keys)
    ref = _docs([0, 3, 7, 99], first_id=10_000)
    seen = {" ".join(x.lower().split()) for x in ref["text"].to_pylist()}
    first: dict = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        first.setdefault(" ".join(x.lower().split()), i)
    want = sorted(i for x, i in first.items() if x not in seen)

    def run(ds):
        return dedup.incremental_dedup(ds, rd.from_arrow(ref))
    return t, run, want, _DOC_SCHEMA, \
        lambda rows: sorted(r["doc_id"] for r in rows)


def _spans(keys):
    t = _docs(keys)
    wins = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        ws = x.lower().split()
        wins[i] = [tuple(ws[j:j + 2]) for j in range(len(ws) - 1)]
    tot: dict = {}
    for ws in wins.values():
        for w in ws:
            tot[w] = tot.get(w, 0) + 1
    want = sorted((i, len(ws), sum(tot[w] >= 2 for w in ws))
                  for i, ws in wins.items() if ws)
    schema = pa.schema([("doc_id", pa.int64()), ("n_windows", pa.int64()),
                        ("n_dup_windows", pa.int64())])

    def run(ds):
        return spans.dup_span_stats(ds, window=2)
    return t, run, want, schema, lambda rows: sorted(
        (r["doc_id"], r["n_windows"], r["n_dup_windows"]) for r in rows)


def _signed_docs(keys) -> pa.Table:
    """Documents whose ids run through zero into the negatives."""
    return _docs(keys, first_id=-(len(keys) // 2))


def _minhash(keys):
    """Each text is one 3-word shingle, so two docs' Jaccard is 1 or 0
    and banding finds every pair; all-identical docs exceed
    ``bucket_cap`` and take the chain rule."""
    t = _signed_docs(keys)
    first: dict = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        first.setdefault(tuple(x.lower().split()), i)
    want = sorted((i, first[tuple(x.lower().split())])
                  for i, x in zip(t["doc_id"].to_pylist(),
                                  t["text"].to_pylist()))
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("dup_of", pa.int64())])

    def run(ds):
        return dedup.minhash_dedup(ds, bucket_cap=8)
    return t, run, want, schema, \
        lambda rows: sorted((r["doc_id"], r["dup_of"]) for r in rows)


def _hamming(keys):
    ids = _signed_docs(keys)["doc_id"].to_pylist()
    hs = [~k if k % 3 == 0 else k for k in keys]  # some signatures < 0
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "simhash": pa.array(hs, pa.int64())})
    want = sorted((a, b, d) for (a, x), (b, y) in itertools.combinations(
        sorted(zip(ids, hs)), 2)
        if (d := bin((x ^ y) & (2 ** 64 - 1)).count("1")) <= 3)
    schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                        ("hamming", pa.int64())])

    def run(ds):
        return dedup.hamming_pairs(ds, max_hamming=3)
    return t, run, want, schema, \
        lambda rows: sorted((r["a"], r["b"], r["hamming"]) for r in rows)


_NGRAM_T = 0.52
_NGRAM_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                           ("jaccard", pa.float64())])


def _grams(text: str) -> set:
    t = " ".join(text.lower().split()).ljust(3)
    return {t[i:i + 3] for i in range(len(t) - 2)}


def _ngram_pairs(left, right, same_side: bool) -> list:
    out = []
    for (a, x), (b, y) in itertools.product(left, right):
        if same_side and a >= b:
            continue
        ga, gb = _grams(x), _grams(y)
        j = len(ga & gb) / len(ga | gb)
        if j >= _NGRAM_T:
            out.append((a, b, round(j, 6)))
    return sorted(out)


def _ngram_rows(rows) -> list:
    return sorted((r["a"], r["b"], round(r["jaccard"], 6)) for r in rows)


def _ngram(keys):
    t = _signed_docs(keys)
    docs = list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    def run(ds):
        return dedup.ngram_jaccard_pairs(ds, threshold=_NGRAM_T)
    return t, run, _ngram_pairs(docs, docs, True), _NGRAM_SCHEMA, \
        _ngram_rows


def _simjoin(keys):
    """The case's corpus joined with itself (ids stay >= 0: the
    operator's contract)."""
    t = _docs(keys)
    docs = list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    def run(ds):
        return dedup.similarity_join(ds, ds, threshold=_NGRAM_T)
    return t, run, _ngram_pairs(docs, docs, False), _NGRAM_SCHEMA, \
        _ngram_rows


_OPS = {
    "keyed_sum_auto": _keyed_sum,
    "group_quantiles": lambda keys: _quantile_case(keys, False),
    "group_quantiles_continuous": lambda keys: _quantile_case(keys, True),
    "exact_dedup": _exact,
    "incremental_dedup": _incremental,
    "dup_span_stats": _spans,
    "minhash_dedup": _minhash,
    "hamming_pairs": _hamming,
    "ngram_jaccard_pairs": _ngram,
    "similarity_join": _simjoin,
}
_NEAR_DUP = {"minhash_dedup", "hamming_pairs", "ngram_jaccard_pairs",
             "similarity_join"}


@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("op", list(_OPS))
def test_detwinned_operator_edge_inputs(ray_session, monkeypatch, op, case):
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", N)
    t, run, want, schema, rows_of = _OPS[op](_keys(case))
    routes = [dedup.PAIRS_BROADCAST_MAX, 0] if op in _NEAR_DUP else [None]
    for pairs_max in routes:
        if pairs_max is not None:
            monkeypatch.setattr(dedup, "PAIRS_BROADCAST_MAX", pairs_max)
        out = run(_dataset(case, t))
        got = _rows(out)
        assert rows_of(got) == want, pairs_max
        sch = out.schema()
        assert sch is not None, "untyped result"
        assert list(sch.names) == schema.names
        assert list(sch.types) == schema.types


# ---------------------------------------------------------------------------
# negative ids and keys on every two-sided fold
# ---------------------------------------------------------------------------

def _neg_incremental():
    new = pa.table({"doc_id": pa.array([-3, 5, -8, 2], pa.int64()),
                    "text": pa.array(["a", "b", "c", "A"], pa.string())})
    ref = pa.table({"doc_id": pa.array([-1], pa.int64()),
                    "text": pa.array(["c"], pa.string())})
    out = dedup.incremental_dedup(rd.from_arrow(new), rd.from_arrow(ref))
    assert sorted(r["doc_id"] for r in _rows(out)) == [-3, 5]


def _neg_triangles(monkeypatch, driver_max):
    from pyrosm_ray.stages import triangles
    if driver_max is not None:
        monkeypatch.setattr(triangles, "TRI_DRIVER_MAX", driver_max)
    edges = [(-7, 1), (1, 2), (2, -7), (-7, -9), (-9, 1), (3, -9), (1, -7)]
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {v: sum(1 for x, y in itertools.combinations(sorted(adj[v]), 2)
                  if y in adj[x]) for v in adj}
    t = pa.table({"src": pa.array([a for a, _ in edges], pa.int64()),
                  "dst": pa.array([b for _, b in edges], pa.int64())})
    out = triangles.triangle_counts(rd.from_arrow(t).repartition(2))
    assert sorted((r["node"], r["n_triangles"], r["deg"])
                  for r in _rows(out)) == sorted(
        (v, tri[v], len(adj[v])) for v in adj)
    assert tri[-7] == 2


def _points(n: int, seed: int):
    import numpy as np
    rng = np.random.RandomState(seed)
    return 24.9 + rng.uniform(0, 0.05, n), 60.15 + rng.uniform(0, 0.03, n)


def _neg_pois():
    import numpy as np
    lon, lat = _points(40, 5)
    pois = pa.table({"id": pa.array(np.arange(40) - 20, pa.int64()),
                     "lon": pa.array(lon), "lat": pa.array(lat)})
    plon, plat = _points(30, 6)
    pages = pa.table({"url": pa.array([f"u{i}" for i in range(30)]),
                      "lon": pa.array(plon), "lat": pa.array(plat)})
    return pages, pois


def _neg_radius():
    from pyrosm_ray.stages import spatial
    pages, pois = _neg_pois()
    want = spatial.radius_join(rd.from_arrow(pages), rd.from_arrow(pois),
                               radius_m=900.0).to_pandas()
    got = spatial.radius_join_partitioned(
        rd.from_arrow(pages).repartition(2),
        rd.from_arrow(pois).repartition(2), radius_m=900.0,
        num_partitions=4).to_pandas()
    assert (want.poi_id < 0).any() and len(want) > 20
    assert sorted(zip(got.url, got.poi_id, got.distance_m)) == sorted(
        zip(want.url, want.poi_id, want.distance_m))


def _neg_knn():
    from pyrosm_ray.stages import spatial
    pages, pois = _neg_pois()
    want = spatial.knn_join(rd.from_arrow(pages), rd.from_arrow(pois),
                            k=3).to_pandas()
    got = spatial.knn_join_partitioned(
        rd.from_arrow(pages).repartition(2),
        rd.from_arrow(pois).repartition(2), k=3, num_partitions=4,
        sweep_max_pairs=0, join_payload=False).to_pandas()
    assert (want.poi_id < 0).any()
    cols = ["url", "poi_id", "knn_rank", "distance_m"]
    assert sorted(zip(*(got[c] for c in cols))) == sorted(
        zip(*(want[c] for c in cols)))


def _neg_pip():
    import numpy as np

    from pyrosm_ray.geom import wkb
    from pyrosm_ray.stages import spatial
    pages = rd.from_arrow(pa.table({"url": pa.array(
        [f"https://x.test/p/{i}" for i in range(400)])}))
    cx, cy = _points(8, 7)
    geoms = []
    for i, (x, y) in enumerate(zip(cx, cy)):
        r = 0.004 * (i + 1)
        ang = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        ring = np.column_stack([x + r * np.cos(ang), y + r * np.sin(ang)])
        geoms.append(wkb.polygon_wkb([np.vstack([ring, ring[:1]])]))
    polys = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(8) - 5, pa.int64()),
        "geometry": pa.array(geoms, pa.binary())}))
    bc = spatial.pip_join(spatial.geocode_pages(pages), polys).to_pandas()
    want = sorted(zip(bc.url, bc.polygon_id))
    assert any(p < 0 for _, p in want)
    for budget in (0, 16384):  # stage 2 for every polygon, then none
        sh = spatial.pip_join_partitioned(
            pages, polys, num_partitions=4, join_payload=False,
            geom_inline_budget=budget).to_pandas()
        assert sorted(zip(sh.url, sh.polygon_id)) == want


def _neg_windows():
    from pyrosm_ray.stages.windows import asof_join, band_join
    us = 1_000_000
    lk, lt = [-4, -4, -1, 3, -4], [10, 25, 5, 7, 3]
    rk, rt = [-4, -4, -4, -1, 3, -2], [8, 10, 30, 6, 7, 1]
    left = pa.table({"event_id": pa.array([-10, -11, -12, -13, -14]),
                     "user_id": pa.array(lk, pa.int64()),
                     "ts": pa.array([t * us for t in lt],
                                    pa.timestamp("us"))})
    right = pa.table({"event_id": pa.array([-20, -21, -22, -23, -24, -25]),
                      "user_id": pa.array(rk, pa.int64()),
                      "ts": pa.array([t * us for t in rt],
                                     pa.timestamp("us"))})
    rows = list(zip(rk, rt, right["event_id"].to_pylist()))
    want_asof, want_band = [], []
    for i, k, t in zip(left["event_id"].to_pylist(), lk, lt):
        prior = [(rt_, ri) for k_, rt_, ri in rows if k_ == k and rt_ <= t]
        m = max(prior) if prior else None
        want_asof.append((i, k, m and m[1], m and (t - m[0]) * us))
        want_band.append((i, k, sum(1 for k_, rt_, _ in rows
                                    if k_ == k and t - 5 <= rt_ <= t)))
    la, ra = rd.from_arrow(left).repartition(2), rd.from_arrow(right)
    assert sorted((r["event_id"], r["user_id"], r["matched_id"],
                   r["lag_us"]) for r in _rows(asof_join(la, ra))) == sorted(
        want_asof)
    assert sorted((r["event_id"], r["user_id"], r["n_in_band"])
                  for r in _rows(band_join(la, ra, band_s=5))) == sorted(
        want_band)


def _neg_snapshot():
    old = pa.table({"doc_id": pa.array([-5, -2, 0, 4], pa.int64()),
                    "text": pa.array(["a", "b", "c", "d"])})
    new = pa.table({"doc_id": pa.array([-9, -2, 0, 4], pa.int64()),
                    "text": pa.array(["x", "b", "C", "d"])})
    out = dedup.snapshot_diff(rd.from_arrow(old), rd.from_arrow(new))
    assert sorted((r["doc_id"], r["status"]) for r in _rows(out)) == [
        (-9, "added"), (-5, "removed"), (-2, "same"), (0, "changed"),
        (4, "same")]


_NEGATIVE = {
    "incremental_dedup": lambda mp: _neg_incremental(),
    "triangle_counts": lambda mp: _neg_triangles(mp, None),
    "triangle_counts_distributed": lambda mp: _neg_triangles(mp, 0),
    "radius_join_partitioned": lambda mp: _neg_radius(),
    "knn_join_partitioned": lambda mp: _neg_knn(),
    "pip_join_partitioned": lambda mp: _neg_pip(),
    "asof_band_join": lambda mp: _neg_windows(),
    "snapshot_diff": lambda mp: _neg_snapshot(),
}


@pytest.mark.parametrize("op", list(_NEGATIVE))
def test_negative_ids(ray_session, monkeypatch, op):
    """Negative ids and keys are ordinary values on every route: no
    operator may read one as a side tag or a sentinel."""
    _NEGATIVE[op](monkeypatch)


# ---------------------------------------------------------------------------
# folds with several outputs
# ---------------------------------------------------------------------------

_EVEN = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
_ODD = pa.table({"k": pa.array([], pa.int64()),
                 "tag": pa.array([], pa.string())})


def _split_parity():
    """The kernel of two outputs: the even-``v`` rows, and the odd-``v``
    rows' keys with a string column. ``None`` when the even side has no
    rows, and a zero-row table without columns for the odd side of a
    partition whose values are all even. (Built here, so it pickles by
    value: the workers cannot import this module.)"""
    def kernel(t: pa.Table):
        import pyarrow.compute as pc

        odd = pc.equal(pc.bit_wise_and(t["v"], 1), 1)
        even = t.filter(pc.invert(odd)).select(["k", "v"])
        rest = t.filter(odd)
        return (even if even.num_rows else None,
                pa.table({"k": rest["k"],
                          "tag": pa.array(["o"] * rest.num_rows,
                                          pa.string())})
                if rest.num_rows else pa.table({}))
    return kernel


def _blocks_of(ds) -> list[pa.Table]:
    return [ray.get(ref) for b in ds.iter_internal_ref_bundles()
            for ref in b.block_refs]


@pytest.mark.parametrize("ceiling", [None, N])
@pytest.mark.parametrize("case", _CASES)
def test_two_output_fold(ray_session, monkeypatch, ceiling, case):
    """A fold with a tuple ``empty`` returns one Dataset per output:
    every block of each is typed by its ``empty`` (empty partitions and
    None or zero-row ``fn`` outputs included), and each output equals
    a single-output fold over the same kernel."""
    if ceiling is not None:
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", ceiling)
    keys = _keys(case)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array([(i * 7) % 5 for i in range(len(keys))],
                                pa.int64())})
    for nb in (None, 3):
        kernel = _split_parity()
        even, odd = blocks.fold(_dataset(case, t), "k", kernel, nb,
                                (_EVEN, _ODD))
        for out, empty, j in ((even, _EVEN, 0), (odd, _ODD, 1)):
            got = _blocks_of(out)
            assert got, (case, nb, j)
            assert all(b.schema == empty.schema for b in got), (case, nb, j)
            one = blocks.fold(_dataset(case, t), "k",
                              lambda x, j=j: kernel(x)[j] or None,
                              nb, empty)
            assert sorted(map(tuple, (r.values() for b in got
                                      for r in b.to_pylist()))) == \
                sorted(map(tuple, (r.values() for r in _rows(one)))), \
                (case, nb, j)
        want_even = sorted((k, v) for k, v in zip(t["k"].to_pylist(),
                                                  t["v"].to_pylist())
                           if v % 2 == 0)
        assert sorted((r["k"], r["v"]) for r in _rows(even)) == want_even


def test_two_output_fold_two_sides_empty_partitions(ray_session):
    """Two sides, two outputs, more partitions than keys: the
    partitions no key reaches return both typed empties."""
    left = rd.from_arrow(pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                                   "v": pa.array([1, 2, 3], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([2, 9], pa.int64()),
                                    "w": pa.array([10, 20], pa.int64())}))

    def kernel(lt: pa.Table, rt: pa.Table):
        return (lt.select(["k", "v"]),
                pa.table({"k": rt["k"],
                          "tag": pa.array(["r"] * rt.num_rows)}))

    a, b = blocks.fold((left, right), "k", kernel, 8, (_EVEN, _ODD))
    ga, gb = _blocks_of(a), _blocks_of(b)
    assert len(ga) == len(gb) == 8
    assert sum(not x.num_rows for x in ga) >= 6
    assert all(x.schema == _EVEN.schema for x in ga)
    assert all(x.schema == _ODD.schema for x in gb)
    assert sorted(r["v"] for r in _rows(a)) == [1, 2, 3]
    assert sorted(r["k"] for r in _rows(b)) == [2, 9]


# ---------------------------------------------------------------------------
# held-block (Blocks) sides
# ---------------------------------------------------------------------------

def _tables(case: str, t: pa.Table) -> list[pa.Table]:
    """``t`` as the blocks of a case: zero-row blocks before, between
    and after two row blocks for ``zero_row_blocks``, else three
    slices."""
    if case == "zero_row_blocks":
        half = t.num_rows // 2
        return [t.slice(0, 0), t.slice(0, half), t.slice(0, 0),
                t.slice(half), t.slice(0, 0)]
    cut = [0, t.num_rows // 3, 2 * t.num_rows // 3, t.num_rows]
    return [t.slice(a, b - a) for a, b in zip(cut[:-1], cut[1:])]


def _held(tables: list[pa.Table], schema: pa.Schema) -> blocks.Blocks:
    """``tables`` as held refs, each after a zero-row ref of another
    schema: a fold must skip that ref by its count, as reading it
    would break the side's columns."""
    bogus = ray.put(pa.table({"bogus": pa.array([], pa.string())}))
    refs, counts = [], []
    for x in tables:
        refs += [bogus, ray.put(x)]
        counts += [0, x.num_rows]
    return blocks.Blocks(refs, counts, schema)


def _sorted_rows(out) -> list[tuple]:
    return sorted(tuple(r.values()) for r in _rows(out))


@pytest.mark.parametrize("case", _CASES)
def test_blocks_side_folds_like_its_dataset(ray_session, monkeypatch, case):
    """A ``Blocks`` side gives the rows the Dataset side of the same
    blocks gives, with the fold ceiling lowered to ``N`` (``nb=None``:
    one task at the ceiling, split past it) and at an explicit ``nb``,
    with one output and with two; every output block is typed."""
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", N)
    keys = _keys(case)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array([(i * 7) % 5 for i in range(len(keys))],
                                pa.int64())})
    tables = _tables(case, t)
    kernel = _split_parity()
    for nb in (None, 3):
        for empty, fn in (((_EVEN, _ODD), kernel),
                          (_EVEN, lambda x: kernel(x)[0])):
            want = blocks.fold(rd.from_arrow(tables), "k", fn, nb, empty)
            got = blocks.fold(_held(tables, t.schema), "k", fn, nb, empty)
            if not isinstance(empty, tuple):
                empty, want, got = (empty,), (want,), (got,)
            for e, w, g in zip(empty, want, got):
                assert all(b.schema == e.schema for b in _blocks_of(g)), \
                    (case, nb)
                assert _sorted_rows(g) == _sorted_rows(w), (case, nb)


@pytest.mark.parametrize("nb", [None, 3])
def test_blocks_side_without_rows_is_typed(ray_session, monkeypatch, nb):
    """A ``Blocks`` side that sends a partition no rows arrives as a
    zero-row table typed by the ``Blocks`` schema, whether it holds no
    refs or only zero-row ones (a zero-row ref of another schema
    included)."""
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", N)
    right = pa.schema([("k", pa.int64()), ("w", pa.string())])
    left = pa.table({"k": pa.array(range(60), pa.int64())})
    out_empty = pa.table({"k": pa.array([], pa.int64()),
                          "typed": pa.array([], pa.bool_())})

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"k": lt["k"], "typed": pa.array(
            [rt.num_rows == 0 and rt.schema == right] * lt.num_rows)})

    for side in (blocks.Blocks([], [], right),
                 _held([right.empty_table()], right)):
        got = blocks.fold((_held(_tables("above_ceiling", left),
                                 left.schema), side), "k", kernel, nb,
                          out_empty)
        rows = _rows(got)
        assert sorted(r["k"] for r in rows) == list(range(60))
        assert all(r["typed"] for r in rows)


def test_fold_blocks_counts_and_map_blocks(ray_session):
    """``fold_blocks`` returns each output's row counts and schema;
    ``map_blocks`` maps the non-empty blocks of a Dataset or a
    ``Blocks`` and returns the counts and schema of its tables."""
    t = pa.table({"k": pa.array([1, 1, 2, 3, 4, 4, 4], pa.int64()),
                  "v": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64())})
    even, odd = blocks.fold_blocks(_held(_tables("zero_row_blocks", t),
                                         t.schema), "k", _split_parity(),
                                   3, (_EVEN, _ODD))
    for out, e in ((even, _EVEN), (odd, _ODD)):
        got = ray.get(out.refs)
        assert out.schema == e.schema and len(out.refs) == 3
        assert out.counts == [x.num_rows for x in got]
    assert even.num_rows == 3 and odd.num_rows == 4
    for src in (rd.from_arrow(_tables("zero_row_blocks", t)).materialize(),
                _held(_tables("zero_row_blocks", t), t.schema)):
        m = blocks.map_blocks(src, lambda x: x.select(["v"]))
        assert len(m.refs) == 2 and m.counts == [3, 4]
        assert m.schema == pa.schema([("v", pa.int64())])
        assert sorted(v for x in ray.get(m.refs)
                      for v in x["v"].to_pylist()) == list(range(1, 8))
