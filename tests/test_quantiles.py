"""Exact distributed quantiles (stages/quantiles.py) vs DuckDB
quantile_disc — the operator's semantic contract."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from pyrosm_ray.stages import quantiles as Q


def test_quantile_disc_index_matches_duckdb_exhaustive():
    con = duckdb.connect()
    rng = np.random.default_rng(3)
    for n in [1, 2, 3, 4, 5, 7, 10, 33]:
        vals = np.sort(rng.integers(0, 50, size=n))
        lst = ", ".join(str(v) for v in vals)
        for q in [0.1, 0.2, 0.25, 0.33, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0]:
            want = con.execute(
                f"SELECT quantile_disc(x, {q!r}) FROM "
                f"(SELECT unnest([{lst}]) AS x)").fetchone()[0]
            got = int(vals[Q.quantile_disc_index(n, q)])
            assert got == want, (n, q, vals)


def test_group_quantiles_multi_q(ray_session):
    t = pa.table({
        "g": ["a"] * 4 + ["b"] * 5,
        "v": pa.array([4, 1, 3, 2, 50, 10, 40, 30, 20], pa.int64()),
    })
    out = Q.group_quantiles(rd.from_arrow(t), "g", "v", [0.25, 0.5, 0.75]) \
        .to_pandas().set_index("group").sort_index()
    # a=[1,2,3,4]: q.25->1 q.5->2 q.75->3 ; b=[10..50]: 20/30/40
    assert out.loc["a"].tolist() == [1, 2, 3]
    assert out.loc["b"].tolist() == [20, 30, 40]


def test_group_quantiles_duplicate_values_merge(ray_session):
    # duplicates split across input blocks must merge before the cumsum
    a = pa.table({"g": ["x"] * 3, "v": pa.array([5, 5, 1], pa.int64())})
    b = pa.table({"g": ["x"] * 2, "v": pa.array([5, 9], pa.int64())})
    ds = rd.from_arrow(a).union(rd.from_arrow(b))
    out = Q.group_quantiles(ds, "g", "v", 0.5).to_pandas()
    # sorted [1,5,5,5,9], median idx ceil(2.5)-1=2 -> 5
    assert out["q0"].tolist() == [5]


@pytest.mark.parametrize("keep,expect", [
    ("ge", [2, 3, 4]), ("gt", [3, 4]), ("le", [1, 2]), ("lt", [1])])
def test_quantile_filter_keep_modes(ray_session, keep, expect):
    t = pa.table({"g": ["a"] * 4, "v": pa.array([1, 2, 3, 4], pa.int64()),
                  "id": pa.array([1, 2, 3, 4], pa.int64())})
    out = Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.5, keep=keep) \
        .to_pandas()
    assert sorted(out["id"]) == expect


def test_quantile_filter_random_vs_duckdb(ray_session):
    rng = np.random.default_rng(17)
    n = 500
    t = pa.table({
        "g": pa.array(rng.choice(["de", "en", "fr"], size=n)),
        "v": pa.array(rng.integers(0, 40, size=n), pa.int64()),
        "id": pa.array(np.arange(n), pa.int64()),
    })
    got = Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.25) \
        .to_pandas().sort_values("id")
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("""
        WITH th AS (SELECT g, quantile_disc(v, 0.25) AS thr
                    FROM t GROUP BY g)
        SELECT t.id FROM t JOIN th ON t.g = th.g
        WHERE t.v >= th.thr ORDER BY t.id""").fetch_df()
    assert got["id"].tolist() == want["id"].tolist()


def test_quantile_filter_bad_keep(ray_session):
    t = pa.table({"g": ["a"], "v": pa.array([1], pa.int64())})
    with pytest.raises(ValueError):
        Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.5, keep="eq")


def test_quantile_bins_vs_duckdb(ray_session):
    rng = np.random.default_rng(23)
    n = 400
    t = pa.table({
        "g": pa.array(rng.choice(["a", "b"], size=n)),
        "v": pa.array(rng.integers(0, 30, size=n), pa.int64()),
        "id": pa.array(np.arange(n), pa.int64()),
    })
    got = Q.quantile_bins(rd.from_arrow(t), "g", "v", [0.25, 0.5, 0.75]) \
        .to_pandas().sort_values("id")
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("""
        WITH e AS (SELECT g, quantile_disc(v, 0.25) AS q0,
                          quantile_disc(v, 0.5) AS q1,
                          quantile_disc(v, 0.75) AS q2 FROM t GROUP BY g)
        SELECT t.id, CASE WHEN v <= e.q0 THEN 0 WHEN v <= e.q1 THEN 1
                          WHEN v <= e.q2 THEN 2 ELSE 3 END AS bin
        FROM t JOIN e ON t.g = e.g ORDER BY t.id""").fetch_df()
    assert got["bin"].tolist() == want["bin"].tolist()


def test_quantile_bins_duplicate_edges(ray_session):
    # all-equal values collapse every edge to the same number; every row
    # must land in bin 0 on both sides of the contract
    t = pa.table({"g": ["x"] * 5, "v": pa.array([7] * 5, pa.int64()),
                  "id": pa.array(range(5), pa.int64())})
    out = Q.quantile_bins(rd.from_arrow(t), "g", "v", [0.25, 0.5, 0.75]) \
        .to_pandas()
    assert out["bin"].tolist() == [0] * 5


def test_group_quantiles_continuous_exact_vs_duckdb(ray_session):
    """Two-pass radix-bin route: exact quantile_disc parity with DuckDB on
    an all-distinct continuous metric, with shuffle rows measured >=10x
    below the corpus row count (the point of the route — the one-pass
    histogram would shuffle ~n rows for continuous values)."""
    import duckdb
    import ray.data as rd

    from pyrosm_ray.stages.quantiles import group_quantiles_continuous

    rng = np.random.RandomState(31)
    n = 100_000
    langs = np.array(["en", "fi", "de", "sv"])[rng.randint(0, 4, n)]
    # mixed scales exercise multiple binades; all values distinct
    vals = np.exp(rng.uniform(-3, 8, n)) + np.arange(n) * 1e-9
    t = pa.table({"lang": pa.array(langs), "score": pa.array(vals)})
    stats: dict = {}
    got = group_quantiles_continuous(
        rd.from_arrow(t).repartition(8), "lang", "score",
        [0.25, 0.5, 0.9], stats=stats).to_pandas() \
        .sort_values("group").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("""
        SELECT lang AS "group",
               quantile_disc(score, 0.25) AS q0,
               quantile_disc(score, 0.5)  AS q1,
               quantile_disc(score, 0.9)  AS q2
        FROM t GROUP BY lang ORDER BY lang""").fetchdf()
    assert list(got["group"]) == list(want["group"])
    for c in ("q0", "q1", "q2"):
        assert list(got[c]) == list(want[c])  # bit-exact element pick
    shuffled = stats["pass1_rows"] + stats["pass2_rows"]
    assert shuffled * 10 <= n, (stats, n)


def test_quantile_filter_and_bins_route_float(ray_session):
    """quantile_filter / quantile_bins auto-route float metrics through
    the continuous plan and agree with DuckDB."""
    import duckdb
    import ray.data as rd

    from pyrosm_ray.stages.quantiles import quantile_bins, quantile_filter

    rng = np.random.RandomState(7)
    n = 4_000
    g = np.array(["a", "b"])[rng.randint(0, 2, n)]
    v = rng.normal(0, 10, n)
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "grp": pa.array(g), "score": pa.array(v)})
    con = duckdb.connect()
    con.register("t", t)
    kept = quantile_filter(rd.from_arrow(t), "grp", "score", 0.8) \
        .to_pandas()
    want = con.execute("""
        WITH e AS (SELECT grp, quantile_disc(score, 0.8) AS q0
                   FROM t GROUP BY grp)
        SELECT t.doc_id FROM t JOIN e USING (grp)
        WHERE t.score >= e.q0 ORDER BY doc_id""").fetchdf()
    assert sorted(kept.doc_id) == list(want.doc_id)
    binned = quantile_bins(rd.from_arrow(t), "grp", "score",
                           [0.25, 0.75]).to_pandas()
    wantb = con.execute("""
        WITH e AS (SELECT grp, quantile_disc(score, 0.25) AS q0,
                          quantile_disc(score, 0.75) AS q1
                   FROM t GROUP BY grp)
        SELECT t.doc_id,
               CASE WHEN score <= e.q0 THEN 0
                    WHEN score <= e.q1 THEN 1 ELSE 2 END AS bin
        FROM t JOIN e USING (grp) ORDER BY doc_id""").fetchdf()
    got = binned.sort_values("doc_id").reset_index(drop=True)
    assert list(got.bin) == list(wantb.bin)


def test_group_quantiles_continuous_rejects_nan(ray_session):
    import pytest
    import ray.data as rd

    from pyrosm_ray.stages.quantiles import group_quantiles_continuous

    t = pa.table({"g": pa.array(["a", "a"]),
                  "v": pa.array([1.0, float("nan")])})
    with pytest.raises(Exception, match="NaN"):
        group_quantiles_continuous(rd.from_arrow(t), "g", "v",
                                   0.5).to_pandas()


def test_group_quantiles_continuous_route_parity(ray_session, monkeypatch):
    """Driver fast paths and the group-keyed fold routes produce
    identical continuous quantiles (ceiling forced to 0 for the fold
    legs)."""
    import ray.data as rd

    from pyrosm_ray.stages import blocks, quantiles

    rng = np.random.RandomState(11)
    n = 6_000
    t = pa.table({"g": pa.array(np.array(["x", "y", "z"])[
        rng.randint(0, 3, n)]),
        "v": pa.array(rng.normal(50, 20, n))})
    fast = quantiles.group_quantiles_continuous(
        rd.from_arrow(t).repartition(4), "g", "v",
        [0.1, 0.5, 0.99]).to_pandas().sort_values("group") \
        .reset_index(drop=True)
    monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", 0)
    slow = quantiles.group_quantiles_continuous(
        rd.from_arrow(t).repartition(4), "g", "v",
        [0.1, 0.5, 0.99]).to_pandas().sort_values("group") \
        .reset_index(drop=True)
    assert list(fast["group"]) == list(slow["group"])
    for c in ("q0", "q1", "q2"):
        assert list(fast[c]) == list(slow[c])


@pytest.mark.parametrize("values", [
    pa.array([1, 100, 2, 200], pa.int64()),
    pa.array([1.5, 100.5, 2.5, 200.5], pa.float64())])
@pytest.mark.parametrize("driver_max", [None, 0])
def test_group_quantiles_null_group_keys(ray_session, monkeypatch, values,
                                         driver_max):
    """Rows with a null group key belong to no group, on every route
    (integer and continuous plans; driver folds and, with the ceiling
    forced to 0, the distributed folds). They used to fold into the last
    real group: pd.factorize codes nulls -1 and uniq[-1] picked 'fi'."""
    from pyrosm_ray.stages import blocks

    if driver_max is not None:
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", driver_max)
    t = pa.table({"g": pa.array(["en", None, "fi", None], pa.string()),
                  "v": values})
    route = Q.group_quantiles_continuous \
        if pa.types.is_floating(values.type) else Q.group_quantiles
    out = route(rd.from_arrow(t), "g", "v", 0.5).to_pandas()
    got = dict(zip(out["group"], out["q0"]))
    assert got == {"en": values[0].as_py(), "fi": values[2].as_py()}
    kept = Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.5).to_pandas()
    assert sorted(kept["g"]) == ["en", "fi"]


@pytest.mark.parametrize("driver_max", [None, 0])
def test_quantile_bins_null_group_rows(ray_session, monkeypatch, driver_max):
    """Rows with a null group get a null bin on the driver fold and, with
    the ceiling forced to 0, on the distributed fold; real groups keep
    their bins."""
    from pyrosm_ray.stages import blocks

    if driver_max is not None:
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", driver_max)
    t = pa.table({"g": pa.array(["a", None, "a", "b", None, "b"]),
                  "v": pa.array([1, 7, 3, 10, 9, 30], pa.int64())})
    out = pa.concat_tables(Q.quantile_bins(
        rd.from_arrow(t), "g", "v", [0.5]).iter_batches(
        batch_format="pyarrow"))
    got = sorted(zip(out["g"].to_pylist(), out["v"].to_pylist(),
                     out["bin"].to_pylist()), key=repr)
    assert got == sorted([("a", 1, 0), ("a", 3, 1), ("b", 10, 0),
                          ("b", 30, 1), (None, 7, None), (None, 9, None)],
                         key=repr)


def _duckdb_quantiles(t: pa.Table, qs: list[float]) -> dict:
    """DuckDB ``quantile_disc`` per non-null group; a group whose values
    are all null has no quantile (the engine drops such rows)."""
    con = duckdb.connect()
    con.register("t", t)
    sel = ", ".join(f"quantile_disc(v, {q!r})" for q in qs)
    return {row[0]: list(row[1:]) for row in con.execute(
        f"SELECT g, {sel} FROM t WHERE g IS NOT NULL GROUP BY g "
        "HAVING count(v) > 0").fetchall()}


def _quantile_cases() -> dict[str, pa.Table]:
    rng = np.random.default_rng(41)
    n = 600
    names = np.array(["en", "日本語", "ñandú", "Ελληνικά", "x"])
    g = names[rng.integers(0, len(names), n)].astype(object)
    g[rng.random(n) < 0.08] = None
    v = rng.integers(-6, 6, n)
    v[rng.random(n) < 0.2] += np.iinfo(np.int64).max - 10
    v_null = rng.random(n) < 0.03
    mixed = pa.table({"g": pa.array(g, pa.string()),
                      "v": pa.array(v, pa.int64(), mask=v_null)})
    # group sizes 4, 8, 10 and 20: q*n is an exact integer for every q
    # below; values come in a shuffled order
    sizes = {"a": 4, "b": 8, "c": 10, "d": 20}
    gi = np.concatenate([[k] * s for k, s in sizes.items()])
    vi = np.concatenate([rng.permutation(s) - 3 for s in sizes.values()])
    order = rng.permutation(len(gi))
    integral = pa.table({"g": pa.array(gi[order], pa.string()),
                         "v": pa.array(vi[order], pa.int64())})
    return {
        "mixed": mixed,
        "integral": integral,
        "one_group": pa.table({"g": pa.array(["só"] * 9),
                               "v": pa.array(rng.integers(-3, 3, 9),
                                             pa.int64())}),
        "one_value": pa.table({"g": pa.array(["k", "k", None] * 5),
                               "v": pa.array([7] * 15, pa.int64())}),
    }


@pytest.mark.parametrize("case", ["mixed", "integral", "one_group",
                                  "one_value"])
@pytest.mark.parametrize("driver_max", [None, 0])
def test_group_quantiles_property_vs_duckdb(ray_session, monkeypatch, case,
                                            driver_max):
    """``group_quantiles`` equals DuckDB ``quantile_disc`` on the driver
    fold and, with the ceiling forced to 0, on the compound-key merge and
    the split threshold fold: null groups and null values, one group,
    every row on one value, negative and near-int64-max values,
    non-ASCII names, q in {0, 1}, q*n exactly integral, and every group's
    values (and repeated (group, value) pairs) spread over four
    blocks."""
    from pyrosm_ray.stages import blocks

    if driver_max is not None:
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", driver_max)
    t = _quantile_cases()[case]
    qs = [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0]
    out = Q.group_quantiles(rd.from_arrow(t).repartition(4), "g", "v", qs) \
        .to_pandas()
    got = {row["group"]: [int(row[f"q{j}"]) for j in range(len(qs))]
           for _, row in out.iterrows()}
    assert len(out) == len(got)
    assert got == _duckdb_quantiles(t, qs)


def test_group_quantiles_executes_upstream_once(ray_session, monkeypatch,
                                                count_executions):
    """Over a lazy four-block input, ``group_quantiles`` runs one Ray Data
    execution (the input's read with the histogram map fused in) before
    its result is read, and the upstream UDF runs once per block, on the
    compound-merge route too."""
    import ray

    from pyrosm_ray.stages import blocks

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    c = Counter.remote()

    def counted(b: pa.Table) -> pa.Table:
        ray.get(c.bump.remote())
        return b

    t = pa.table({"g": pa.array(["a", "b", "c"] * 20),
                  "v": pa.array(range(60), pa.int64())})
    for ceiling in (blocks.KEYED_FOLD_DRIVER_MAX, 0):
        ds = rd.from_arrow(t).repartition(4).map_batches(
            counted, batch_format="pyarrow")
        monkeypatch.setattr(blocks, "KEYED_FOLD_DRIVER_MAX", ceiling)
        count_executions.clear()
        out = Q.group_quantiles(ds, "g", "v", 0.5)
        assert len(count_executions) == 1
        got = dict(zip(*out.to_pandas()[["group", "q0"]].T.values))
        assert got == {"a": 27, "b": 28, "c": 29}
    assert ray.get(c.get.remote()) == 8


@pytest.mark.parametrize("values", [
    pa.array([5, 1, 9, 3, 7], pa.int64()),
    pa.array([5.5, 1.5, 9.5, 3.5, 7.5], pa.float64())])
def test_quantile_filter_and_bins_one_group_and_null_groups(ray_session,
                                                            values):
    """The broadcast threshold lookup (each row's group by dictionary
    code) on one real group next to null groups: the group's rows are
    filtered and binned against its own quantile, null-group rows are
    dropped by the filter and get a null bin."""
    t = pa.table({"g": pa.array([None, "en", "en", None, "en"]),
                  "v": values})
    kept = Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.5).to_pandas()
    v = values.to_pylist()
    assert sorted(kept["v"]) == sorted([v[2], v[4]])  # median v[4]
    out = pa.concat_tables(Q.quantile_bins(
        rd.from_arrow(t), "g", "v", [0.5]).iter_batches(
        batch_format="pyarrow"))
    got = sorted(zip(out["v"].to_pylist(), out["bin"].to_pylist()),
                 key=repr)
    assert got == sorted([(v[0], None), (v[1], 0), (v[2], 1),
                          (v[3], None), (v[4], 0)], key=repr)


def test_quantile_bins_group_without_edges(ray_session):
    """A group whose values are all null has no quantile, so its rows
    get a null bin like a null group's (they used to raise KeyError)."""
    t = pa.table({"g": pa.array(["en", "fi", "en", None]),
                  "v": pa.array([1, None, 3, 2], pa.int64())})
    out = pa.concat_tables(Q.quantile_bins(
        rd.from_arrow(t), "g", "v", [0.5]).iter_batches(
        batch_format="pyarrow"))
    got = sorted(zip(out["g"].to_pylist(), out["bin"].to_pylist()),
                 key=repr)
    assert got == sorted([("en", 0), ("en", 1), ("fi", None),
                          (None, None)], key=repr)


def test_quantile_filter_and_bins_integer_groups(ray_session):
    """An integer group column finds its thresholds, which the quantile
    table keys by the group's string form (the filter used to keep no
    row and the bins to raise)."""
    t = pa.table({"g": pa.array([1, 1, 2, 2, 2], pa.int64()),
                  "v": pa.array([1, 5, 2, 4, 9], pa.int64())})
    kept = Q.quantile_filter(rd.from_arrow(t), "g", "v", 0.5).to_pandas()
    assert sorted(zip(kept["g"], kept["v"])) == [(1, 1), (1, 5), (2, 4),
                                                (2, 9)]
    out = Q.quantile_bins(rd.from_arrow(t), "g", "v", [0.5]).to_pandas()
    assert sorted(zip(out["v"], out["bin"])) == [(1, 0), (2, 0), (4, 0),
                                                 (5, 1), (9, 1)]
