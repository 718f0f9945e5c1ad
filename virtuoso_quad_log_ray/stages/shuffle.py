"""The engine's one owner of bucketing and shuffle sizing.

Bucketed shuffle. :func:`by_bucket` keys every row by ``bucket(row[key])
% n`` and calls ``fn(bucket, rows)`` once per bucket, so all of a
bucket's keys are handled in one vectorized call (the graph-splitter's
repartition by graph, split-graphs.sh:73-141, generalized to bounded
fan-out). Both executors run one per-bucket loop: a ``pa.Table`` in the
calling process, for inputs too small to pay Ray's fixed cost per
execution (``runs.IN_PROCESS_BYTES``), and a Dataset once per bucket range
of ONE fixed-boundary sort, so an exchange outputs one block per range. The
bucket comes from the key column's type (:func:`_bucket_of`): a string
key is hashed with ``numerics.hash128``, an integer key is its own hash,
``uint64(key) % n``. Every keyed exchange in the engine runs through it:
the file sinks (snapshot, patch, JSONL, WARC), ``kg.chunk_plan``,
:func:`bucket_aggregate` and its users, :func:`top_k`, the per-key merges
(relational latest/sessions/as-of/range/quantiles, the HLL register
merge, ``textstats.pack_plan``, ``textstats.shuffle_shards``, the
MinHash-LSH band exchange). The only other all-to-alls are the two sorts
whose output IS a global order (``canonicalize._rank_nodes`` and
``relational.top_orders``). Bucket counts: :func:`default_n_buckets` for
on-disk layouts and corpus-sized exchanges, :func:`merge_buckets` for
per-key merges, aggregates and joins.

Grouped top-k. :func:`top_k` keeps the first ``k`` rows per key in a
given order: a per-block combiner cuts each key to ``k`` rows before the
exchange, and one :func:`by_bucket` pass cuts again and ranks.

Joins. :func:`co_bucket` is the two-sided form of the same exchange:
both inputs are keyed by the same ``_bucket_of(row[key], n)``, and
``fn(left_rows, right_rows)`` runs once per bucket, so a join is one
pyarrow ``Table.join`` per bucket task (co-partition, then join locally,
as in *CPU and GPU Hash Joins on Skewed Data*, ICDE 2024). A self-join is
:func:`by_bucket` with ``fn`` joining the bucket to itself, so its
upstream runs once. The changelog's prior/new pairing runs on it too. No
join starts aggregator actors, so none holds a core and every join
finishes on a 1-CPU cluster.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def cluster_cpus(default: int = 4) -> int:
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def actor_kwargs(*, batch_size: int = 2048, max_pool: int | None = None) -> dict[str, Any]:
    """kwargs for actor-pool ``map_batches`` stages.

    Every actor requests 0.5 CPU: a pipeline stacking several actor-pool
    stages must never reserve every core, or the task-pool operators
    feeding the actors (reads, the bucketed shuffle's map and reduce tasks)
    starve and the pipeline deadlocks (observed at num_cpus=4: 4/4 CPU held
    by actors, read tasks pending forever). Fractional actors keep >= 1
    core schedulable for tasks at any pool size; pool max scales with the
    cluster. The actor pools are the only actors the engine starts.

    The pool MIN also scales with the cluster (cpus/2 actors = cpus/4
    reserved CPUs): an autoscaling pool starting at 1 actor ramps ~1 actor/s,
    so a pool that must grow from 1 throttles the whole pipeline via
    backpressure for the first minute — measured: the headline stage showed
    ZERO speedup from 2 to 8 CPUs until the floor was raised, and average
    actor concurrency stayed at ~2 of 7 with a floor of cpus/4.
    """
    cpus = cluster_cpus()
    hi = max_pool or max(2, cpus - 1)
    # floor cpus//2 (not cpus-1): pipelines stacking TWO actor pools at
    # small cpu counts must leave >= 1 whole CPU of headroom for task
    # operators or they deadlock.
    lo = min(max(1, cpus // 2), hi)
    return {
        "concurrency": (lo, hi),
        "batch_size": batch_size,
        "num_cpus": 0.5,
        "batch_format": "pyarrow",
        "zero_copy_batch": True,
    }


def default_n_buckets() -> int:
    """Adaptive bucket count: ~16 buckets per live CPU, floor 64, cap 4096.

    Measured at 35.8M quads / 32 CPUs: 64 buckets = 16-38s (high variance —
    large sort-reduce partitions spill), 512 buckets = 9-10s stable. Small
    buckets keep each sort-exchange reduce partition in memory and give
    fine-grained per-partition resume; on a real cluster size buckets by
    target bytes (~1-4 GB each) instead.
    """
    return min(4096, max(64, cluster_cpus() * 16))


def merge_buckets() -> int:
    """Bucket count of the per-key merges (latest event, sessions, as-of,
    range window, top-k), of :func:`bucket_aggregate` and of the joins:
    2 per live CPU, floor 8."""
    return max(8, cluster_cpus() * 2)


def _bucket_of(key: pa.ChunkedArray | pa.Array, n_buckets: int) -> pa.Array:
    """Run-stable bucket id per key, fully vectorized.

    An integer key is its own hash: ``uint64(key) % n_buckets`` (int64
    two's complement, so negative keys spread like the rest). Any other
    key, in practice a string such as a graph IRI, is hashed with the
    128-bit ``numerics.hash128`` (process-stable within a polars
    version); with graph = url the graph column is ~all-unique, so a
    per-unique Python hash loop would be an O(corpus) scalar loop in the
    WRITE path. Resume note: string bucket ids are stable within an
    engine install; a polars major upgrade could re-key them, which the
    per-epoch resume check tolerates (different epoch -> full rewrite).
    """
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    if pa.types.is_integer(key.type):
        h1 = key.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    else:
        from virtuoso_quad_log_ray.numerics import hash128

        h1, _ = hash128(key)
    return pa.array((h1.view(np.uint64) % np.uint64(n_buckets)).view(np.int64))


def by_bucket(
    ds: ray.data.Dataset | pa.Table,
    key: str,
    n_buckets: int,
    fn,
    *,
    schema: pa.Schema | None = None,
    also=(),
) -> ray.data.Dataset | pa.Table:
    """The one bucketed shuffle: rows keyed by :func:`_bucket_of`
    ``(row[key], n_buckets)`` and ``fn(bucket, rows)`` once per bucket
    (``rows`` without the bucket column) returning an Arrow table.

    Both executors run one loop, ``fn`` in ascending bucket order over
    :func:`_split`'s slices: a ``pa.Table`` in the calling process,
    returning one ``pa.Table``; a Dataset once per block of ONE sort on
    the bucket with fixed boundaries into ``k = min(n_buckets,
    merge_buckets())`` ranges, returning k lazy blocks (a range with no
    rows stays an empty block with no columns: Ray runs no UDF on it).

    ``schema`` projects and casts rows before keying. ``also`` names
    bucket ids that get a zero-row call when no row hashes there (a sync
    must emit the '-' records of a bucket that emptied). On a Dataset one
    marker row of ``schema`` per id takes its range to a task; a
    ``marker`` column, not a null key, tells it from the data."""

    def keyed(b: pa.Table) -> pa.Table:
        if schema is not None:
            b = b.select(schema.names).cast(schema)
        return b.append_column("bucket", _bucket_of(b[key], n_buckets))

    def each_bucket(rows: pa.Table, wanted) -> pa.Table:
        slices = _split(rows.drop_columns(["bucket"]), rows["bucket"].to_numpy(), n_buckets)
        outs = [fn(b, t) for b, t in enumerate(slices) if len(t) or b in wanted]
        outs = [t for t in outs if t.num_columns]
        return pa.concat_tables(outs, promote_options="permissive") if outs else pa.table({})

    if isinstance(ds, pa.Table):
        return each_bucket(keyed(ds), set(also))

    def run(rows: pa.Table) -> pa.Table:
        if not also:
            return each_bucket(rows, ())
        marked = set(pc.filter(rows["bucket"], rows["marker"]).to_pylist())
        return each_bucket(rows.filter(pc.invert(rows["marker"])).drop_columns(["marker"]), marked)

    ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    if also:
        ids = sorted(set(also))
        markers = pa.table(
            {f.name: pa.nulls(len(ids), f.type) for f in schema}
            | {"bucket": pa.array(ids, type=pa.int64()), "marker": [True] * len(ids)}
        )
        unmarked = ds.add_column(
            "marker", lambda b: pa.array(np.zeros(len(b), bool)), batch_format="pyarrow"
        )
        ds = unmarked.union(ray.data.from_arrow(markers))
    k = min(n_buckets, merge_buckets())
    bounds = [n_buckets * i // k for i in range(1, k)]
    # Ray samples the boundaries of a sort given none: one range is a repartition
    ranges = ds.sort("bucket", boundaries=bounds) if bounds else ds.repartition(1)
    return ranges.map_batches(run, batch_size=None, batch_format="pyarrow", zero_copy_batch=True)


def _split(rows: pa.Table, bucket: np.ndarray, n_buckets: int) -> list[pa.Table]:
    """``rows`` cut into one slice per bucket id ``0 .. n_buckets - 1``
    (zero-row slices included) by a stable sort on ``bucket``."""
    rows = rows.take(pa.array(np.argsort(bucket, kind="stable")))
    counts = np.bincount(bucket, minlength=n_buckets)
    starts = np.cumsum(counts) - counts
    return [rows.slice(a, n) for a, n in zip(starts.tolist(), counts.tolist())]


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def co_bucket(
    left: ray.data.Dataset, right: ray.data.Dataset, key: str, n_buckets: int, fn
) -> ray.data.Dataset:
    """The two-sided bucketed exchange: the rows of ``left`` and ``right``
    keyed by the same :func:`_bucket_of` ``(row[key], n_buckets)``, and
    ``fn(left_rows, right_rows)`` once per bucket, returning an Arrow
    table. Lazy: the caller executes it.

    Each non-empty block of either side is cut into one slice per bucket,
    empty slices included, and each slice rides :func:`by_bucket` as an
    Arrow IPC payload on its integer bucket id. So an input with at least
    one row reaches EVERY bucket as a typed table (its blocks' slices
    concatenated), with zero rows where it has none there, and no schema
    is ever asked of a Dataset. An input with no rows at all reaches
    ``fn`` as None; when both have none, no bucket task runs. Like any
    :func:`by_bucket` result, the output has one block per bucket range."""

    def cut(side: int):
        def run(b: pa.Table) -> pa.Table:
            slices = _split(b, _bucket_of(b[key], n_buckets).to_numpy(), n_buckets)
            return pa.table(
                {
                    "part": pa.array(np.arange(n_buckets, dtype=np.int64)),
                    "side": pa.array(np.full(n_buckets, side, dtype=np.int8)),
                    "payload": pa.array([_ipc(t) for t in slices], type=pa.large_binary()),
                }
            )

        return run

    def run(_, rows: pa.Table) -> pa.Table:
        sides = ([], [])
        for side, payload in zip(rows["side"].to_pylist(), rows["payload"]):
            sides[side].append(pa.ipc.open_stream(payload.as_buffer()).read_all())
        left_rows, right_rows = (
            pa.concat_tables(t, promote_options="permissive") if t else None for t in sides
        )
        return fn(left_rows, right_rows)

    slices = [
        ds.map_batches(cut(side), batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        for side, ds in enumerate((left, right))
    ]
    return by_bucket(slices[0].union(slices[1]), "part", n_buckets, run)


def arrow_join(keys, join_type: str = "inner", **suffixes):
    """:func:`co_bucket` ``fn`` of one pyarrow ``Table.join`` per bucket
    (``join_type`` and ``suffixes`` as ``Table.join`` takes them). A side
    that is None, an input with no rows at all, joins as an empty table:
    a left anti join keeps every left row, an inner join has no rows."""

    def run(left: pa.Table | None, right: pa.Table | None) -> pa.Table:
        if right is None and join_type == "left anti":
            return left
        if left is None or right is None:
            return pa.table({})
        return left.join(right, keys=keys, join_type=join_type, **suffixes)

    return run


def bucket_aggregate(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: list[tuple[str, str]],
    *,
    hash_col: str | None = None,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Hash-bucketed groupby-aggregate with a VECTORIZED combine.

    Ray's native ``groupby().aggregate()`` sorts, then combines row by row
    in Python — measured ~100us/row on 2-int64-key Sum+Min aggregates (the
    n-gram pair phase burned ~160 CPU-seconds aggregating ~2M rows; this
    path does the same work in ~3s wall). Rows go through :func:`by_bucket`
    into ``n_buckets`` coarse buckets (each key lands wholly in one bucket,
    so per-bucket aggregation is globally correct), and each bucket runs
    ONE pyarrow ``Table.group_by().aggregate()`` — C++ hash aggregation.
    Same exchange volume as the native path, vectorized combine cost.
    A bucket range holding no row is an EMPTY block with an EMPTY schema
    (zero columns); it holds no rows, so no map UDF, no
    :func:`co_bucket` and no :func:`blocks_of` ever sees it.

    ``hash_col`` names an integer column uniformly distributed across keys
    (e.g. a 64-bit content hash that determines the key); defaults to
    keys[0]. ``n_buckets`` defaults to :func:`merge_buckets`. Output
    columns: keys + pyarrow's "{col}_{fn}" names.
    """
    nb = n_buckets or merge_buckets()
    return by_bucket(
        ds, hash_col or keys[0], nb, lambda _, rows: rows.group_by(keys).aggregate(aggs)
    )


def top_k(
    ds: ray.data.Dataset, key: str, order: list[tuple[str, str]], k: int, *, rank: str = "rank"
) -> ray.data.Dataset:
    """Grouped top-k: the first ``k`` rows of every ``key`` in ``order``
    (``(column, "ascending" | "descending")`` pairs, the tie-breaks
    included), with their 1-based position in a ``rank`` column appended
    (SQL's ``row_number() OVER (PARTITION BY key ORDER BY order) <= k``).

    Each block first keeps at most ``k`` rows per key (the combiner), so
    at most ``k`` x |keys| rows per block cross the exchange, never a
    corpus-sized group; one :func:`by_bucket` pass then cuts every key of
    a bucket the same way and ranks it. Lazy: the caller executes it."""
    sort_keys = [(key, "ascending"), *order]

    def cut(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
        t = t.sort_by(sort_keys)
        keys = t[key].to_numpy(zero_copy_only=False)
        change = np.empty(len(keys), dtype=bool)
        change[:1] = True
        change[1:] = keys[1:] != keys[:-1]
        pos = np.arange(len(keys)) - np.flatnonzero(change)[np.cumsum(change) - 1]
        keep = pos < k
        return t.filter(pa.array(keep)), pos[keep]

    def ranked(_, rows: pa.Table) -> pa.Table:
        t, pos = cut(rows)
        return t.append_column(rank, pa.array(pos + 1, type=pa.int64()))

    partial = ds.map_batches(lambda b: cut(b)[0], batch_format="pyarrow", zero_copy_batch=True)
    return by_bucket(partial, key, merge_buckets(), ranked)


def blocks_of(ds: ray.data.Dataset) -> list[pa.Table]:
    """The non-empty blocks of ``ds`` as Arrow tables, from ONE execution.

    ``Dataset.to_arrow_refs`` executes the pipeline and then asks for its
    schema, which executes it a second time (Ray 2.49); this reads the
    blocks straight from the execution's ref bundles. Zero-row blocks are
    skipped by their metadata, so the schemaless blocks of empty bucket
    ranges (:func:`by_bucket`) never reach the caller."""
    from ray.data.block import BlockAccessor

    refs = [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]
    tables = (BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs))
    return [t for t in tables if t.num_rows]
