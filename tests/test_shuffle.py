"""shuffle.by_bucket — the one bucketed shuffle every sink and per-key
operator runs on, on a Dataset and in-process on a Table — its two-sided
form shuffle.co_bucket, which every join runs on, and the grouped top-k
shuffle.top_k, called directly for a string and an integer key; plus the
one-execution block reader shuffle.blocks_of."""

import numpy as np
import pyarrow as pa
import pytest

from virtuoso_quad_log_ray.numerics import hash128
from virtuoso_quad_log_ray.stages.shuffle import by_bucket

N_BUCKETS = 61  # not a power of two: a signed % would bucket negatives elsewhere
N_ROWS = 40


def _keys(kind: str) -> pa.Array:
    if kind == "string":
        return pa.array([f"http://example.org/site{i % 29}/page{i}" for i in range(N_ROWS)])
    edge = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1, -65, 65]
    vals = edge + [(-1) ** i * (i * 7919 + 3) for i in range(N_ROWS - len(edge))]
    return pa.array(vals, type=pa.int64())


def _expected_buckets(keys: pa.Array, n_buckets: int = N_BUCKETS) -> np.ndarray:
    """The documented keying: hash128 for strings, uint64(key) for ints."""
    if pa.types.is_integer(keys.type):
        h = keys.to_numpy().astype(np.int64).view(np.uint64)
    else:
        h = hash128(keys)[0].view(np.uint64)
    return (h % np.uint64(n_buckets)).astype(np.int64)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["string", "int64", "null_keys", "one_bucket"])
def test_by_bucket_routes_every_row_once_to_its_bucket(kind):
    """Both executors call ``fn`` once per bucket that holds rows or is
    named in ``also``, with exactly that bucket's rows. A row with a null
    key is data like any other, also next to ``also``'s marker rows; one
    bucket is one range (Ray samples the boundaries of a sort given
    none)."""
    import ray.data

    n_buckets = 1 if kind == "one_bucket" else N_BUCKETS
    keys = _keys("int64" if kind == "int64" else "string")
    if kind == "null_keys":
        keys = pa.array([None if i % 7 == 3 else k for i, k in enumerate(keys.to_pylist())])
    rows = pa.table({"k": keys, "rid": pa.array(range(N_ROWS), type=pa.int64())})
    expected = _expected_buckets(keys, n_buckets)
    hit = set(expected.tolist())
    # buckets no row hashes to; with one bucket, a marker in a bucket that holds rows
    also = [b for b in range(n_buckets) if b not in hit][:3] or [0]

    def fn(bucket: int, got: pa.Table) -> pa.Table:
        return pa.table(
            {
                "called": pa.array([bucket], type=pa.int64()),
                "rids": pa.array([got["rid"].to_pylist()], type=pa.list_(pa.int64())),
                "cols": pa.array([",".join(got.column_names)]),
            }
        )

    ds = ray.data.from_arrow([rows.slice(i, 10) for i in range(0, N_ROWS, 10)])
    dataset_calls = by_bucket(
        ds, "k", n_buckets, fn, schema=rows.schema, also=also
    ).take_all()
    # the in-process executor: same calls, in ascending bucket order
    table_calls = by_bucket(
        rows, "k", n_buckets, fn, schema=rows.schema, also=also
    ).to_pylist()
    assert [c["called"] for c in table_calls] == sorted(hit | set(also))

    for calls in (dataset_calls, table_calls):
        seen = sorted(r for c in calls for r in c["rids"])
        assert seen == list(range(N_ROWS)), "a row was lost or reached fn twice"
        for c in calls:
            assert c["cols"] == "k,rid", "the bucket column reached fn"
            assert all(int(expected[r]) == c["called"] for r in c["rids"])
        buckets = [c["called"] for c in calls]
        assert len(buckets) == len(set(buckets)), "one bucket got two calls"
        for b in set(also) - hit:
            assert [c["rids"] for c in calls if c["called"] == b] == [[]], b
        assert set(buckets) == hit | set(also)


def _blocks(t: pa.Table, size: int):
    import ray.data

    return ray.data.from_arrow([t.slice(i, size) for i in range(0, len(t), size)])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["string", "int64"])
def test_co_bucket_routes_every_row_once_with_typed_sides(kind):
    """Every row of each side reaches ``fn`` exactly once, in the bucket
    ``_bucket_of`` gives it; a side with no rows in a bucket arrives with
    zero rows and its own columns."""
    from virtuoso_quad_log_ray.stages.shuffle import blocks_of, co_bucket

    keys = _keys(kind)
    expected = _expected_buckets(keys)
    left = pa.table({"k": keys, "lid": pa.array(range(N_ROWS), type=pa.int64())})
    # the right side holds rows in only a few buckets
    few = [i for i in range(N_ROWS) if int(expected[i]) in set(expected[:3].tolist())]
    right = pa.table(
        {"k": keys.take(few), "rid": pa.array(few, type=pa.int32()), "w": [1.5] * len(few)}
    )

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lids": pa.array([lt["lid"].to_pylist()], type=pa.list_(pa.int64())),
                "rids": pa.array([rt["rid"].to_pylist()], type=pa.list_(pa.int64())),
                "lcols": [",".join(f"{f.name}:{f.type}" for f in lt.schema)],
                "rcols": [",".join(f"{f.name}:{f.type}" for f in rt.schema)],
            }
        )

    calls = pa.concat_tables(
        blocks_of(co_bucket(_blocks(left, 10), _blocks(right, 4), "k", N_BUCKETS, fn))
    ).to_pylist()

    assert sorted(i for c in calls for i in c["lids"]) == list(range(N_ROWS))
    assert sorted(i for c in calls for i in c["rids"]) == few
    buckets = []
    for c in calls:
        assert c["lcols"] == f"k:{keys.type},lid:int64"
        assert c["rcols"] == f"k:{keys.type},rid:int32,w:double"
        here = {int(expected[i]) for i in c["lids"] + c["rids"]}
        assert len(here) <= 1, "one call mixed two buckets"
        buckets.extend(here)
    assert len(buckets) == len(set(buckets)), "one bucket got two calls"
    # the left side has rows, so it reaches every bucket: one call each
    assert len(calls) == N_BUCKETS
    assert sum(1 for c in calls if not c["rids"]) == N_BUCKETS - len(set(expected[:3].tolist()))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["string", "int64"])
@pytest.mark.parametrize("join_type", ["inner", "left anti", "left outer"])
def test_co_bucket_joins_equal_one_table_join(kind, join_type):
    """Per-bucket ``arrow_join`` equals one whole-table ``pa.Table.join``,
    duplicate keys, unmatched keys and suffixed column clashes included."""
    from virtuoso_quad_log_ray.stages.shuffle import arrow_join, blocks_of, co_bucket

    keys = _keys(kind)
    left = pa.table({"k": keys, "v": pa.array(range(N_ROWS), type=pa.int64())})
    # duplicate right keys, and only every third left key has a match
    idx = [i for i in range(0, N_ROWS, 3)] * 2
    right = pa.table({"k": keys.take(idx), "v": pa.array([i * 10 for i in range(len(idx))])})
    kw = {"left_suffix": "_l", "right_suffix": "_r"}
    want = left.join(right, keys="k", join_type=join_type, **kw)
    fn = arrow_join("k", join_type, **kw)
    got = blocks_of(co_bucket(_blocks(left, 7), _blocks(right, 5), "k", N_BUCKETS, fn))
    got = pa.concat_tables(got).select(want.column_names)
    order = [(c, "ascending") for c in want.column_names]
    assert got.sort_by(order).equals(want.sort_by(order))


@pytest.mark.usefixtures("ray_session")
def test_a_range_over_the_block_size_limit_reaches_fn_whole():
    """A bucket range far bigger than ``target_max_block_size`` still
    reaches ``fn`` as one call per bucket holding all of the bucket's
    rows: the sort's reduce writes each range as one block."""
    import ray.data

    n_rows, n_buckets = 4000, 16
    keys = pa.array(np.arange(n_rows) % 50, type=pa.int64())
    rows = pa.table({"k": keys, "pad": pa.array(["x" * 200] * n_rows)})
    ctx = ray.data.DataContext.get_current()
    limit = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # a range holds ~100 KB
    try:
        calls = by_bucket(
            _blocks(rows, 500),
            "k",
            n_buckets,
            lambda b, t: pa.table({"bucket": [b], "n": [len(t)]}),
        ).take_all()
    finally:
        ctx.target_max_block_size = limit
    want = np.bincount(_expected_buckets(keys, n_buckets), minlength=n_buckets)
    assert sorted((c["bucket"], c["n"]) for c in calls) == [
        (b, int(n)) for b, n in enumerate(want) if n
    ]


@pytest.mark.usefixtures("ray_session")
def test_exchanges_output_one_block_per_range_not_per_input_block():
    """``co_bucket`` and ``bucket_aggregate`` over 32-block inputs output
    at most ``n_buckets`` blocks, and the right rows."""
    from virtuoso_quad_log_ray.stages.shuffle import arrow_join, bucket_aggregate, co_bucket

    n_buckets = 8
    t = pa.table({"k": pa.array(np.arange(320) % 50, type=pa.int64()), "v": np.arange(320)})
    left, right = _blocks(t, 10), _blocks(t.slice(0, 64), 2)

    def n_blocks(ds) -> int:
        return sum(len(bundle.blocks) for bundle in ds.iter_internal_ref_bundles())

    assert left.materialize().num_blocks() == right.materialize().num_blocks() == 32
    joined = co_bucket(left, right, "k", n_buckets, arrow_join("k", right_suffix="_r"))
    summed = bucket_aggregate(left, ["k"], [("v", "sum")], n_buckets=n_buckets)
    assert n_blocks(joined) <= n_buckets and n_blocks(summed) <= n_buckets
    assert joined.count() == len(t.join(t.slice(0, 64), keys="k", right_suffix="_r"))
    assert summed.count() == 50


TOP_K = 4
GROUP_SIZES = [1, 2, 3, 5, 9, 20]  # groups smaller and larger than TOP_K; sums to N_ROWS


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["string", "int64"])
def test_top_k_equals_one_sort_plus_rank(kind):
    """``top_k`` over several blocks equals one whole-table sort by (key,
    order) with a per-key ``row_number() <= k``: a descending order, ties
    broken by a second order column, groups smaller and larger than k."""
    import ray.data

    from virtuoso_quad_log_ray.stages.shuffle import blocks_of, top_k

    group = np.repeat(np.arange(len(GROUP_SIZES)), GROUP_SIZES)
    perm = np.random.default_rng(7).permutation(N_ROWS)  # every block mixes groups
    rows = pa.table(
        {
            "k": _keys(kind).take(pa.array(group[perm])),
            "score": pa.array(perm % 3, type=pa.int64()),  # many ties
            "rid": pa.array(perm, type=pa.int64()),
        }
    )
    order = [("score", "descending"), ("rid", "ascending")]
    want = []
    for r in rows.sort_by([("k", "ascending"), *order]).to_pylist():
        rank = want[-1]["rank"] + 1 if want and want[-1]["k"] == r["k"] else 1
        want.append(r | {"rank": rank})
    want = [r for r in want if r["rank"] <= TOP_K]

    got = pa.concat_tables(blocks_of(top_k(_blocks(rows, 7), "k", order, TOP_K)))
    assert got.column_names == ["k", "score", "rid", "rank"]
    assert got.sort_by([("k", "ascending"), ("rank", "ascending")]).to_pylist() == want
    assert len(want) == sum(min(n, TOP_K) for n in GROUP_SIZES)

    empty = ray.data.from_arrow(rows.schema.empty_table())
    assert blocks_of(top_k(empty, "k", order, TOP_K)) == []


@pytest.mark.usefixtures("ray_session")
def test_to_arrow_runs_each_block_once(tmp_path):
    """``conftest.to_arrow`` (``shuffle.blocks_of``) executes a lazy
    pipeline once: one UDF call per block. ``Dataset.to_arrow_refs`` runs
    it a second time for its schema fetch."""
    import ray.data

    from tests.conftest import to_arrow

    log = tmp_path / "calls"

    def udf(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return b

    ds = ray.data.range(80, override_num_blocks=8).map_batches(
        udf, batch_format="pyarrow", batch_size=None
    )
    assert len(to_arrow(ds)) == 80
    assert log.read_text().count("call") == 8


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("empty_side", ["prev", "new"])
def test_diff_quads_against_an_empty_side(empty_side):
    """A quad set diffed against an empty one: every quad is a '+' record
    (empty prev) or a '-' record (empty new)."""
    import ray.data

    from tests.conftest import to_arrow
    from virtuoso_quad_log_ray.pipelines.changelog import diff_quads
    from virtuoso_quad_log_ray.stages.extract_triples import QUADS_SCHEMA

    quads = pa.table(
        {
            "s": [f"s{i}" for i in range(N_ROWS)],
            "p": ["p"] * N_ROWS,
            "o": [f"o{i % 7}" for i in range(N_ROWS)],
            "g": [f"http://example.org/g{i % 11}" for i in range(N_ROWS)],
        },
        schema=QUADS_SCHEMA,
    )
    v = _blocks(quads, 9)
    empty = ray.data.from_arrow(QUADS_SCHEMA.empty_table())
    log = to_arrow(diff_quads(empty, v) if empty_side == "prev" else diff_quads(v, empty))
    assert set(log["op"].to_pylist()) == {"+" if empty_side == "prev" else "-"}
    order = [(c, "ascending") for c in QUADS_SCHEMA.names]
    assert log.select(QUADS_SCHEMA.names).sort_by(order).equals(quads.sort_by(order))
