"""The engine's one owner of bucketing and shuffle sizing.

Bucketed shuffle. :func:`by_bucket` keys every row by ``bucket(row[key])
% n``, runs ONE ``groupby(bucket).map_groups`` and calls ``fn(bucket,
rows)`` once per bucket, so all of a bucket's keys are handled in one
vectorized call (the graph-splitter's repartition by graph,
split-graphs.sh:73-141, generalized to bounded fan-out). The bucket comes
from the key column's type (:func:`_bucket_of`): a string key is hashed
with ``numerics.hash128``, an integer key is its own hash,
``uint64(key) % n``. Every hash-bucket groupby in the engine runs through
it: the file sinks (snapshot, patch, JSONL, WARC), the changelog's paired
shuffle, ``kg.chunk_plan``, :func:`bucket_aggregate`, and the per-key
merges (relational latest/sessions/as-of/range, the top-k merge,
``textstats.pack_plan``, the MinHash-LSH band exchange). Bucket counts:
:func:`default_n_buckets` for on-disk layouts and corpus-sized exchanges,
:func:`merge_buckets` for per-key merges.

Join sizing. Ray Data's hash join spawns one aggregator ACTOR per
partition (default 1 logical CPU each). Two failure modes if sized
naively:

  * partitions > free cores  -> the aggregators never all schedule and the
    pipeline deadlocks silently (observed in this sandbox at 4-8 CPUs);
  * partitions << cores      -> the join is under-parallelized at scale.

Policy: partitions = min(configured cap, live cluster CPUs / 2), floor 2,
and the aggregator fleet together requests at most CPUs - 1 (each
aggregator min(0.5, (CPUs - 1) / partitions)), so upstream map/read tasks
always keep a whole core to make progress on. From 2 CPUs up that is 0.5
per aggregator; on a 1-CPU cluster the aggregators request 0 CPU, where
the 2-partition floor at 0.5 each would hold the only core and hang the
join. On a 256-node cluster the cap (EngineConfig.num_shuffle_partitions)
dominates; on a small host the CPU count does.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig


def cluster_cpus(default: int = 4) -> int:
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def join_partitions(cfg: EngineConfig = DEFAULT_CONFIG) -> int:
    return max(2, min(cfg.num_shuffle_partitions, cluster_cpus() // 2))


def join_kwargs(cfg: EngineConfig = DEFAULT_CONFIG, *, small: bool = False) -> dict[str, Any]:
    """kwargs for Dataset.join: partition count + fractional-CPU aggregators.

    ``small=True`` is for joins whose probe side is metadata-sized (e.g.
    verified candidate pairs — proportional to the duplicate set, not the
    corpus): each partition is an aggregator ACTOR with startup latency, so
    a 16-way fleet on a thousand-row join is pure overhead.
    """
    parts = max(2, join_partitions(cfg) // 4) if small else join_partitions(cfg)
    return {
        "num_partitions": parts,
        "aggregator_ray_remote_args": {"num_cpus": min(0.5, max(0, cluster_cpus() - 1) / parts)},
    }


def actor_kwargs(*, batch_size: int = 2048, max_pool: int | None = None) -> dict[str, Any]:
    """kwargs for actor-pool ``map_batches`` stages.

    Every actor requests 0.5 CPU: a pipeline stacking several actor-pool
    stages plus join/shuffle aggregators must never reserve every core, or
    the task-pool operators feeding the actors starve and the pipeline
    deadlocks (observed at num_cpus=4: 4/4 CPU held by actors, read tasks
    pending forever). Fractional actors keep >= 1 core schedulable for
    tasks at any pool size; pool max scales with the cluster.

    The pool MIN also scales with the cluster (cpus/2 actors = cpus/4
    reserved CPUs): an autoscaling pool starting at 1 actor ramps ~1 actor/s,
    so a pool that must grow from 1 throttles the whole pipeline via
    backpressure for the first minute — measured: the headline stage showed
    ZERO speedup from 2 to 8 CPUs until the floor was raised, and average
    actor concurrency stayed at ~2 of 7 with a floor of cpus/4.
    """
    cpus = cluster_cpus()
    hi = max_pool or max(2, cpus - 1)
    # floor cpus//2 (not cpus-1): pipelines stacking TWO actor pools plus
    # join aggregators at small cpu counts must leave >= 1 whole CPU of
    # headroom for task operators or they deadlock (see module docstring).
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
    range window, top-k): 2 per live CPU, floor 8."""
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
    ds: ray.data.Dataset,
    key: str,
    n_buckets: int,
    fn,
    *,
    schema: pa.Schema | None = None,
    also=(),
) -> ray.data.Dataset:
    """The one bucketed shuffle: rows keyed by :func:`_bucket_of`
    ``(row[key], n_buckets)``, ONE ``groupby(bucket).map_groups``, and
    ``fn(bucket, rows)`` per bucket (``rows`` without the bucket column)
    returning an Arrow table. Lazy: the caller executes it.

    ``schema`` projects and casts rows before keying. ``also`` names
    bucket ids that must get a task even when no row hashes there (a sync
    must emit the '-' records of a bucket that emptied): one null-key
    marker row of ``schema`` per id is unioned in before the groupby and
    dropped before ``fn`` sees the rows."""

    def keyed(b: pa.Table) -> pa.Table:
        if schema is not None:
            b = b.select(schema.names).cast(schema)
        return b.append_column("bucket", _bucket_of(b[key], n_buckets))

    def run(group: pa.Table) -> pa.Table:
        bucket = int(group["bucket"][0].as_py())
        rows = group.drop_columns(["bucket"])
        if also:
            rows = rows.filter(pc.is_valid(rows[key]))
        return fn(bucket, rows)

    ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    if also:
        ids = sorted(set(also))
        markers = pa.table(
            {f.name: pa.nulls(len(ids), f.type) for f in schema}
            | {"bucket": pa.array(ids, type=pa.int64())}
        )
        ds = ds.union(ray.data.from_arrow(markers))
    return ds.groupby("bucket").map_groups(run, batch_format="pyarrow")


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
    Sort partitions holding no bucket still emit EMPTY blocks with an
    EMPTY schema (zero columns); see scrub_empty_blocks below for why that
    matters to downstream joins.

    ``hash_col`` names an integer column uniformly distributed across keys
    (e.g. a 64-bit content hash that determines the key); defaults to
    keys[0]. Output columns: keys + pyarrow's "{col}_{fn}" names.
    """
    nb = n_buckets or max(4, cluster_cpus())
    return by_bucket(
        ds, hash_col or keys[0], nb, lambda _, rows: rows.group_by(keys).aggregate(aggs)
    )


def scrub_empty_blocks(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Drop the zero-column empty blocks a sort-shuffle emits for empty
    partitions. Required between a groupby/``bucket_aggregate`` and a hash
    JOIN consuming its output.

    Ray's groupby sort-shuffle materializes one block per partition; a
    partition that received no keys yields an empty block with an EMPTY
    schema (zero columns — pa.schema([])). Those blocks skip every
    map_batches UDF (Ray never calls fn on zero-row blocks) and survive to
    a downstream hash join, where a join hash-partition whose input happens
    to be all-schemaless concatenates to a zero-column table and acero
    fails loudly: "No match or multiple matches for key field reference".
    Observed at sf0.1 / 32 CPUs (vocabulary < bucket count) in
    tfidf_top_terms; any aggregate whose key cardinality can fall below the
    bucket count is exposed.

    A streaming ``repartition()`` also merges the empties away, but it adds
    an AllToAll barrier that DEADLOCKS low-CPU clusters when stacked
    against join aggregator actors (observed hang at num_cpus=4 in
    embedding_neardup_pairs: join actors reserve the cores the extra
    barrier's tasks need). Instead this materializes — the input must be
    aggregate/key-sized, same contract as ``self_join_input`` — and
    rebuilds the dataset from the surviving block REFS: blocks never leave
    the object store, no driver transit, and the downstream join starts
    from clean typed blocks.

    Every streaming alternative was evaluated and ruled out on Ray 2.49
    (round 5):

      * a retyping ``map_batches`` can NEVER fix an empty block — Ray does
        not invoke map UDFs on zero-row blocks at all (pinned by
        ``test_dedup.py::test_ray_skips_udfs_on_empty_blocks``; if a Ray
        upgrade changes this, that test flags the streaming fix as newly
        possible);
      * seeding the aggregate with one sentinel row per bucket types every
        BUCKET's output, but the sort-shuffle's range boundaries are
        sampled from the row distribution, so key-skewed inputs still leave
        rangeless partitions emitting schemaless blocks;
      * ``repartition(keys=...)`` (true hash partitioning) requires the
        global ``DataContext.shuffle_strategy = HASH_SHUFFLE``, and under
        that strategy the whole suite DEADLOCKS at num_cpus=4 — 16
        HashShuffleAggregator actors sat idle holding the cores the
        upstream map tasks needed (observed; the same hazard class this
        function's materialize exists to avoid).
    """
    m = ds.materialize()
    refs = []
    for bundle in m.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
    if not refs:  # fully empty aggregate: keep the original (callers guard)
        return m
    return ray.data.from_arrow_refs(refs)


def self_join_input(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Materialize a dataset that feeds BOTH sides of a self-join.

    Ray Data has no common-subexpression reuse: ``ds.join(ds, ...)`` executes
    the upstream twice (two read+compute chains, two actor pools). For the
    compact signature/bucket tables feeding our self-joins this is pure
    waste, so pin the blocks once in the object store. At 100 TB the analog
    is checkpointing the signature table to Parquet and reading it twice —
    either way the exploded/raw input is never materialized, only the
    key table.
    """
    return ds.materialize()
