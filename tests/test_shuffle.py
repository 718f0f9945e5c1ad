"""shuffle.by_bucket — the one bucketed shuffle every sink and per-key
operator runs on — called directly, for a string and an integer key."""

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


def _expected_buckets(keys: pa.Array) -> np.ndarray:
    """The documented keying: hash128 for strings, uint64(key) for ints."""
    if pa.types.is_integer(keys.type):
        h = keys.to_numpy().astype(np.int64).view(np.uint64)
    else:
        h = hash128(keys)[0].view(np.uint64)
    return (h % np.uint64(N_BUCKETS)).astype(np.int64)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["string", "int64"])
def test_by_bucket_routes_every_row_once_to_its_bucket(kind):
    import ray.data

    keys = _keys(kind)
    rows = pa.table({"k": keys, "rid": pa.array(range(N_ROWS), type=pa.int64())})
    expected = _expected_buckets(keys)
    hit = set(expected.tolist())
    also = [b for b in range(N_BUCKETS) if b not in hit][:3]
    assert also, "every bucket is hit; widen N_BUCKETS"

    def fn(bucket: int, got: pa.Table) -> pa.Table:
        return pa.table(
            {
                "called": pa.array([bucket], type=pa.int64()),
                "rids": pa.array([got["rid"].to_pylist()], type=pa.list_(pa.int64())),
                "cols": pa.array([",".join(got.column_names)]),
            }
        )

    ds = ray.data.from_arrow([rows.slice(i, 10) for i in range(0, N_ROWS, 10)])
    calls = by_bucket(ds, "k", N_BUCKETS, fn, schema=rows.schema, also=also).take_all()

    seen = sorted(r for c in calls for r in c["rids"])
    assert seen == list(range(N_ROWS)), "a row was lost or reached fn twice"
    for c in calls:
        assert c["cols"] == "k,rid", "the bucket column reached fn"
        assert all(int(expected[r]) == c["called"] for r in c["rids"])
    buckets = [c["called"] for c in calls]
    assert len(buckets) == len(set(buckets)), "one bucket got two calls"
    for b in also:
        assert [c["rids"] for c in calls if c["called"] == b] == [[]], b
    assert set(buckets) == hit | set(also)
