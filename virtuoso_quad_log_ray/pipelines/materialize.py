"""Canonical quad materialization: sorted Parquet adjacency partitions.

north_star: "Canonical (subj, pred, obj, graph=url) quads are materialized
as sorted Parquet adjacency partitions". Layout decisions for 10^12-doc
scale:

- Partition key = ``bucket = hash64(g) % n_buckets`` — NOT the raw graph
  IRI: one directory per graph would mean millions of directories; hash
  buckets bound the partition count while keeping every graph's quads
  co-located in exactly one partition (the graph-splitter's dir-per-graph
  layout, split-graphs.sh:73-141, generalized to bounded fan-out).
- Quads are sorted (g, s, p, o) WITHIN each bucket partition — adjacency
  order for graph-local scans; no global sort (the reference's
  ``ORDER BY ?g``, dump_nquads.sql:44-49, is unnecessary under hashing).
- One ``groupby(bucket).map_groups`` shuffle does partitioning + sorting +
  writing; only file metadata returns to the driver, which commits a
  manifest last (resumable: a re-run skips buckets already committed).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.state.manifest import (
    FileEntry,
    RunManifest,
    commit_manifest,
    load_manifest,
)


def _bucket_of(g: pa.ChunkedArray | pa.Array, n_buckets: int) -> pa.Array:
    """Run-stable bucket id per graph IRI, fully vectorized.

    With graph = url the graph column is ~all-unique, so a per-unique
    Python hash loop is an O(corpus) scalar loop in the WRITE path; the
    vectorized 128-bit hash (numerics-backed, process-stable within a
    polars version) removes it. Resume note: bucket ids are stable within
    an engine install; a polars major upgrade could re-key them, which the
    per-epoch resume check tolerates (different epoch -> full rewrite).
    """
    import numpy as np

    from virtuoso_quad_log_ray.numerics import hash128

    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    h1, _ = hash128(g)
    return pa.array((h1.view(np.uint64) % np.uint64(n_buckets)).view(np.int64))


def default_n_buckets() -> int:
    """Adaptive bucket count: ~16 buckets per live CPU, floor 64, cap 4096.

    Measured at 35.8M quads / 32 CPUs: 64 buckets = 16-38s (high variance —
    large sort-reduce partitions spill), 512 buckets = 9-10s stable. Small
    buckets keep each sort-exchange reduce partition in memory and give
    fine-grained per-partition resume; on a real cluster size buckets by
    target bytes (~1-4 GB each) instead.
    """
    from virtuoso_quad_log_ray.stages.shuffle import cluster_cpus

    return min(4096, max(64, cluster_cpus() * 16))


def materialize_quads(
    quads: ray.data.Dataset,
    out_root: str,
    *,
    epoch: str,
    n_buckets: int | None = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> RunManifest:
    """quads (s, p, o, g) -> ``out_root/bucket=K/part.parquet`` sorted
    adjacency partitions + committed manifest. Skips buckets already in a
    committed manifest with the same epoch (per-partition resume)."""
    if n_buckets is None:
        n_buckets = default_n_buckets()
    import time as _time

    from virtuoso_quad_log_ray.numerics import hash_fingerprint

    t_run0 = _time.perf_counter()
    os.makedirs(out_root, exist_ok=True)
    # Same-epoch resume trusts persisted bucket ids, which depend on the
    # hash128 implementation (polars version / md5 fallback). If the
    # environment's hash fingerprint changed since the committed manifest,
    # bucket contents may have moved — rewrite everything instead of
    # skipping buckets (ADVICE r2: silent missing/duplicated quads).
    # n_buckets guard (ADVICE r4): default_n_buckets() is CPU-adaptive, so
    # resuming the same epoch on a different-sized host would re-key rows
    # to different buckets while bucket=K names collide with stale output.
    hash_fp = hash_fingerprint()
    prev = load_manifest(out_root)
    done: set[str] = (
        {e.name for e in prev.files}
        if prev
        and prev.epoch == epoch
        and prev.hash_fp == hash_fp
        and prev.n_buckets == n_buckets
        else set()
    )

    def keyed(b: pa.Table) -> pa.Table:
        return b.append_column("bucket", _bucket_of(b["g"], n_buckets))

    def write_bucket(group: pa.Table) -> pa.Table:
        rel = bucket_rel(int(group["bucket"][0].as_py()))
        if rel in done:  # committed by a prior run of this epoch
            return _meta_table(rel, group, skipped=True)
        return _meta_table(rel, write_snapshot_bucket(group, out_root, rel), skipped=False)

    def _meta_table(rel: str, t: pa.Table, *, skipped: bool) -> pa.Table:
        return pa.table(
            {
                "name": pa.array([rel], type=pa.string()),
                "amount": pa.array([len(t)], type=pa.int64()),
                "skipped": pa.array([skipped]),
            }
        )

    meta = (
        quads.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .take_all()
    )
    return commit_materialized(
        out_root,
        [(r["name"], int(r["amount"])) for r in meta],
        epoch=epoch,
        n_buckets=n_buckets,
        t_run0=t_run0,
    )


def bucket_rel(bucket: int) -> str:
    """Path of bucket ``bucket``'s shard, relative to the snapshot dir."""
    return f"bucket={bucket:05d}/part.parquet"


def bucket_id(rel: str) -> int:
    """Inverse of :func:`bucket_rel`."""
    return int(rel.split("/", 1)[0].partition("=")[2])


def write_snapshot_bucket(quads: pa.Table, out_root: str, rel: str) -> pa.Table:
    """Sort one bucket's quads by (g, s, p, o) and write them atomically to
    ``out_root/rel``; returns the sorted (s, p, o, g) table as written."""
    import pyarrow.parquet as pq

    order = pc.sort_indices(
        quads,
        sort_keys=[(c, "ascending") for c in ("g", "s", "p", "o")],
    )
    t = quads.take(order).select(["s", "p", "o", "g"])
    path = os.path.join(out_root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".part"
    pq.write_table(t, tmp)
    os.replace(tmp, path)
    return t


def commit_materialized(
    out_root: str,
    shards: list[tuple[str, int]],
    *,
    epoch: str,
    n_buckets: int,
    t_run0: float,
) -> RunManifest:
    """Commit the manifest of a snapshot whose shards (``(rel, quads)``
    pairs) are already on disk; ``t_run0`` (perf_counter) marks the run's
    start for the throughput fields."""
    import time as _time

    from virtuoso_quad_log_ray.numerics import hash_fingerprint

    files = sorted((FileEntry(rel, "", n, "", 0) for rel, n in shards), key=lambda e: e.name)
    elapsed = _time.perf_counter() - t_run0
    quad_count = sum(e.amount for e in files)
    manifest = RunManifest(
        epoch=epoch,
        checkpoint="",
        kind="materialize",
        quad_count=quad_count,
        file_count=len(files),
        files=files,
        elapsed_s=round(elapsed, 3),
        quads_per_sec=round(quad_count / elapsed, 1) if elapsed > 0 else 0.0,
        hash_fp=hash_fingerprint(),
        n_buckets=n_buckets,
    )
    commit_manifest(out_root, manifest)
    return manifest


def read_materialized(out_root: str) -> ray.data.Dataset:
    """Committed adjacency partitions -> quad Dataset (manifest-listed).

    Explicit columns= keeps the hive-style ``bucket=K`` directory from being
    inferred back as a partition column (it is layout, not data)."""
    manifest = load_manifest(out_root)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest under {out_root}")
    paths = [os.path.join(out_root, e.name) for e in manifest.files]
    return ray.data.read_parquet(paths, columns=["s", "p", "o", "g"])
