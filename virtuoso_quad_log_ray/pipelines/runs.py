"""Run orchestration: dump + incremental sync micro-batch runs (T1/T2/T7/T8).

The reference's operational loop (quad-logger/entrypoint.sh:14-17 →
generate-rdfpatch.sh:407-427) alternates between one initial full dump and
repeated incremental syncs gated by a checkpoint cursor. This module is that
loop's body for the new engine — each call is one bounded Dataset execution
(the ``ray job submit`` unit):

  run_dump   no dump-info yet (C4/C5 analog: committed manifest absent) ->
             full quad build, all '+' ops, checkpoint ts 00000000000000
             (generate-rdfpatch.sh:210-217), epoch signed (T2), cursor
             written AFTER the manifest commits (T1).
  run_sync   cursor present -> changelog = anti-join(prev snapshot quads,
             current snapshot quads) (J1), written as a sync run with the
             new checkpoint; cursor advances only after commit — a crashed
             run replays idempotently from the old cursor (T5 semantics).

Bucket-aligned snapshot sync: with a ``snapshot_root`` (which
``run_sync_quads``/``run_sync_pages`` require) a dump or sync is ONE
``groupby(bucket).map_groups`` pass, bucket = ``hash(g) % n_buckets`` —
the partitioning the stored snapshot and the patch sink already share.
Each bucket task sorts and writes its shard of the new snapshot, reads the
prior snapshot's shard of the same bucket straight from disk, takes both
anti-join directions locally (``changelog.diff_bucket``) and writes that
bucket's +/- patch files (``publish.write_patch_files``). Only file
metadata returns to the calling process, which commits in order: snapshot
manifest, patch manifest, cursor, SNAPSHOT pointer (a dump, which no
older snapshot depends on, swings the pointer before its patch manifest).
No join aggregators, no second read of either snapshot, no second
shuffle. Without a ``snapshot_root`` ``run_dump``/``run_sync`` recompute
both crawl states and diff them with ``changelog.diff_quads`` (the same
per-bucket ``diff_bucket`` over one shuffle of both states) before
``write_rdfpatch``; that plain sink is the reference the snapshot-backed
sinks are tested against.

State layout under ``out_root`` (all via state/manifest + state/checkpoint):
  MANIFEST + manifest-*.json   committed files + counters (A1/A3)
  cursor.ts14                  last fully-processed input watermark
  epoch.ts14                   run-lineage handshake token
  <b64(graph)>/rdf_out_*       the published patch files
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.pipelines.changelog import diff_quads, quads_version, with_op
from virtuoso_quad_log_ray.pipelines.publish import (
    commit_patch_run,
    wall_clock,
    write_rdfpatch,
)
from virtuoso_quad_log_ray.rdfpatch import TS14_ZERO
from virtuoso_quad_log_ray.state import checkpoint as ckpt
from virtuoso_quad_log_ray.state.manifest import (
    FileEntry,
    RunManifest,
    load_manifest,
    write_durable,
)


def _with_op(quads: ray.data.Dataset, op: str) -> ray.data.Dataset:
    def add(b: pa.Table) -> pa.Table:
        return with_op(b, op)

    return quads.map_batches(add, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Snapshot checkpoints (north_star: "resumable from per-partition
# checkpoints"): each run can persist its canonical quad set as the bucketed
# sorted-Parquet layout (pipelines/materialize.py), and the next sync diffs
# against the STORED prior snapshot instead of recomputing it from source —
# at 100 TB recomputing the previous crawl's extraction is not an option.
# Layout: <snapshot_root>/at-<ts14>/bucket=K/part.parquet + a SNAPSHOT
# pointer file (atomic rename) naming the current snapshot dir; the two most
# recent snapshots are retained for rollback, older ones pruned.
# ---------------------------------------------------------------------------

SNAPSHOT_POINTER = "SNAPSHOT"


def _snapshot_dir(root: str, checkpoint: str) -> str:
    return os.path.join(root, f"at-{checkpoint}")


def current_snapshot(root: str) -> str | None:
    """Name of the committed snapshot dir the SNAPSHOT pointer names, or None."""
    ptr = os.path.join(root, SNAPSHOT_POINTER)
    if not os.path.exists(ptr):
        return None
    with open(ptr) as f:
        return f.read().strip()


def read_snapshot(root: str) -> ray.data.Dataset | None:
    """Quad Dataset of the current committed snapshot, or None."""
    from virtuoso_quad_log_ray.pipelines.materialize import read_materialized

    name = current_snapshot(root)
    return None if name is None else read_materialized(os.path.join(root, name))


def materialize_snapshot(
    root: str, quads: ray.data.Dataset, *, checkpoint: str, epoch: str
) -> str:
    """Phase 1 of a snapshot write: materialize the quad set under
    ``at-<checkpoint>`` WITHOUT swinging the SNAPSHOT pointer. Returns the
    snapshot dir name for :func:`commit_snapshot`.

    The split exists because a sync must not make the new state the
    "current snapshot" until its patch manifest + cursor have committed —
    a crash in between would leave the cursor at the old checkpoint but the
    pointer at the new state, so the retry diffs new-vs-new and silently
    drops the old->new delta from the patch stream (ADVICE r2, high).
    """
    from virtuoso_quad_log_ray.pipelines.materialize import materialize_quads

    os.makedirs(root, exist_ok=True)
    name = f"at-{checkpoint}"
    materialize_quads(quads, os.path.join(root, name), epoch=epoch)
    return name


def commit_snapshot(root: str, name: str) -> None:
    """Phase 2: atomically swing the SNAPSHOT pointer to ``name`` and prune
    all but the two most recent snapshot dirs."""
    import shutil

    write_durable(os.path.join(root, SNAPSHOT_POINTER), name)
    snaps = sorted(d for d in os.listdir(root) if d.startswith("at-"))
    for stale in snaps[:-2]:
        shutil.rmtree(os.path.join(root, stale), ignore_errors=True)


def write_snapshot(root: str, quads: ray.data.Dataset, *, checkpoint: str, epoch: str):
    """Materialize + commit in one step — safe only when there is no
    in-flight patch run depending on the PREVIOUS snapshot (dump/bootstrap
    paths). Syncs must use the two-phase form."""
    name = materialize_snapshot(root, quads, checkpoint=checkpoint, epoch=epoch)
    commit_snapshot(root, name)


# ---------------------------------------------------------------------------
# Bucket-aligned snapshot pass (see the module docstring): write the new
# snapshot, diff it against the prior one and write the patch files in ONE
# groupby(bucket) shuffle. Shared by every snapshot-backed dump and sync.
# ---------------------------------------------------------------------------


def _bucket_pass(
    new_quads: ray.data.Dataset,
    snap_dir: str,
    out_root: str,
    *,
    checkpoint: str,
    n_buckets: int,
    cfg: EngineConfig,
    prev_dir: str | None = None,
    prev_buckets: tuple[int, ...] = (),
) -> tuple[list[FileEntry], list[FileEntry]]:
    """One shuffle: new quads keyed by ``hash(g) % n_buckets`` -> per bucket
    the sorted snapshot shard under ``snap_dir`` and the patch files under
    ``out_root``. Returns ``(shards, patch_entries)`` for the caller's
    commits. ``prev_dir`` None = dump (every quad is '+'); otherwise its
    shards MUST be keyed by the same hash and ``n_buckets`` — the caller
    checks the prior snapshot's manifest (:func:`_aligned_snapshot`).

    A bucket that held prior quads but receives no new ones still needs a
    task to emit its '-' records: every prior bucket id is passed to
    ``by_bucket`` as ``also``.
    """
    import pyarrow.parquet as pq

    from virtuoso_quad_log_ray.pipelines.changelog import QUAD_COLS, diff_bucket
    from virtuoso_quad_log_ray.pipelines.materialize import (
        bucket_rel,
        by_bucket,
        entries_table,
        entry_of,
        write_snapshot_bucket,
    )
    from virtuoso_quad_log_ray.pipelines.publish import write_patch_files
    from virtuoso_quad_log_ray.stages.extract_triples import QUADS_SCHEMA

    maxq = cfg.max_quads_per_file
    prev_set = set(prev_buckets)
    os.makedirs(snap_dir, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)

    def sync_bucket(bucket: int, new: pa.Table) -> pa.Table:
        rel = bucket_rel(bucket)
        shards = []
        if len(new):
            new = write_snapshot_bucket(new, os.path.join(snap_dir, rel))
            shards.append(FileEntry(rel, "", len(new), "", 0))
        if bucket in prev_set:
            prev = pq.read_table(os.path.join(prev_dir, rel), columns=QUAD_COLS)
            log = diff_bucket(prev.cast(QUADS_SCHEMA), new)
        else:
            log = with_op(new, "+")
        patches = write_patch_files(log, out_root, checkpoint=checkpoint, maxq=maxq)
        flags = pa.array([True] * len(shards) + [False] * len(patches))
        return entries_table(shards + patches).append_column("shard", flags)

    meta = by_bucket(
        new_quads, "g", n_buckets, sync_bucket, schema=QUADS_SCHEMA, also=prev_set
    ).take_all()
    shards = [entry_of(r) for r in meta if r["shard"]]
    return shards, [entry_of(r) for r in meta if not r["shard"]]


def _snapshot_dump(
    quad_set: ray.data.Dataset,
    out_root: str,
    snapshot_root: str,
    *,
    epoch: str,
    cfg: EngineConfig,
    last_source: str,
) -> RunManifest:
    """Snapshot-backed dump body: one bucket pass writes snapshot
    ``at-<0>`` and the '+' patch files; commits snapshot manifest, pointer
    (no patch run depends on an older snapshot yet), then patch manifest.
    The caller writes epoch + cursor."""
    from virtuoso_quad_log_ray.pipelines.materialize import commit_materialized, default_n_buckets

    t_run0, started = time.perf_counter(), wall_clock()
    name = f"at-{TS14_ZERO}"
    snap_dir = os.path.join(snapshot_root, name)
    n_buckets = default_n_buckets()
    shards, patches = _bucket_pass(
        quad_set, snap_dir, out_root, checkpoint=TS14_ZERO, n_buckets=n_buckets, cfg=cfg
    )
    commit_materialized(
        snap_dir, shards, kind="materialize", epoch=epoch, n_buckets=n_buckets, t_run0=t_run0
    )
    commit_snapshot(snapshot_root, name)
    return commit_patch_run(
        out_root,
        patches,
        epoch=epoch,
        checkpoint=TS14_ZERO,
        kind="dump",
        run_index=0,
        last_source=last_source,
        t_run0=t_run0,
        started=started,
    )


def _aligned_snapshot(root: str) -> tuple[str, RunManifest]:
    """The current snapshot's dir + manifest, re-keyed first if its shards
    were keyed by a different hash implementation or an unknown bucket
    count (pre-field manifest): diffing buckets keyed by different hashes
    would emit spurious '-'/'+' pairs for every moved graph. The re-keyed
    copy replaces the pointer (same state, same checkpoint), so the
    re-key runs once, not on every sync."""
    from virtuoso_quad_log_ray.numerics import hash_fingerprint
    from virtuoso_quad_log_ray.pipelines.materialize import (
        default_n_buckets,
        materialize_quads,
        read_materialized,
    )

    name = current_snapshot(root)
    man = load_manifest(os.path.join(root, name))
    if man is None:
        raise FileNotFoundError(f"no committed manifest under {os.path.join(root, name)}")
    if man.hash_fp == hash_fingerprint() and man.n_buckets > 0:
        return os.path.join(root, name), man
    rekeyed = name + ".rekey"
    man = materialize_quads(
        read_materialized(os.path.join(root, name)),
        os.path.join(root, rekeyed),
        epoch=man.epoch,
        n_buckets=man.n_buckets or default_n_buckets(),
    )
    commit_snapshot(root, rekeyed)
    return os.path.join(root, rekeyed), man


def _snapshot_sync(
    new_quads: ray.data.Dataset,
    out_root: str,
    snapshot_root: str,
    *,
    checkpoint: str,
    run_index: int,
    cfg: EngineConfig,
    last_source: str,
) -> RunManifest:
    """Snapshot-backed sync body: one bucket pass against the current
    (bucket-aligned) snapshot, then the commits in crash-safe order —
    snapshot manifest of the pending ``at-<checkpoint>``, patch manifest,
    cursor, and only then the SNAPSHOT pointer (see run_sync). A retry
    after a crash before the patch manifest commits rewrites the pending
    dir, which no reader sees until the pointer swings."""
    from virtuoso_quad_log_ray.pipelines.materialize import bucket_id, commit_materialized

    t_run0, started = time.perf_counter(), wall_clock()
    epoch = ckpt.read_epoch(out_root) or ""
    prev_dir, prev = _aligned_snapshot(snapshot_root)
    pending = f"at-{checkpoint}"
    snap_dir = os.path.join(snapshot_root, pending)
    shards, patches = _bucket_pass(
        new_quads,
        snap_dir,
        out_root,
        checkpoint=checkpoint,
        n_buckets=prev.n_buckets,
        cfg=cfg,
        prev_dir=prev_dir,
        prev_buckets=tuple(bucket_id(e.name) for e in prev.files),
    )
    commit_materialized(
        snap_dir, shards, kind="materialize", epoch=epoch, n_buckets=prev.n_buckets, t_run0=t_run0
    )
    manifest = commit_patch_run(
        out_root,
        patches,
        epoch=epoch,
        checkpoint=checkpoint,
        kind="sync",
        run_index=run_index,
        last_source=last_source,
        t_run0=t_run0,
        started=started,
    )
    ckpt.write_cursor(out_root, checkpoint)
    commit_snapshot(snapshot_root, pending)
    return manifest


def _committed_dump(out_root: str) -> RunManifest | None:
    """Idempotent-dump gate: the committed dump manifest, or None.

    Crash-window repair: the manifest commits BEFORE cursor/epoch are
    written, so a crash between leaves a committed dump with no cursor —
    a sync would then fail forever ("no dump committed yet"). Backfill the
    missing state instead of returning blind."""
    existing = load_manifest(out_root)
    if existing is None or existing.kind != "dump":
        return None
    if ckpt.read_epoch(out_root) is None:
        ckpt.write_epoch(out_root, existing.epoch)
    if ckpt.read_cursor(out_root) is None:
        ckpt.write_cursor(out_root, TS14_ZERO)
    return existing


def _sync_gate(
    out_root: str, checkpoint: str, snapshot_root: str | None, dump_call: str
) -> tuple[RunManifest | None, bool]:
    """Cursor gate of a sync: ``(prev_manifest, already_committed)``.

    Crash-window repair (VERDICT r3 #1, T1/T3): if the manifest for THIS
    checkpoint already committed, only the cursor write (and possibly the
    snapshot-pointer swing) was lost — backfill them and report the run as
    committed instead of double-publishing."""
    cursor = ckpt.read_cursor(out_root)
    if cursor is None:
        raise RuntimeError(f"no dump committed yet: {dump_call} first")
    prev_manifest = load_manifest(out_root)
    if (
        prev_manifest is not None
        and checkpoint == prev_manifest.checkpoint
        and checkpoint > cursor
    ):
        ckpt.write_cursor(out_root, checkpoint)
        if snapshot_root is not None and os.path.isdir(_snapshot_dir(snapshot_root, checkpoint)):
            commit_snapshot(snapshot_root, f"at-{checkpoint}")
        return prev_manifest, True
    if checkpoint <= cursor:
        raise RuntimeError(f"checkpoint {checkpoint} not after cursor {cursor}")
    return prev_manifest, False


def run_dump(
    sf_dir: str,
    out_root: str,
    *,
    epoch: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    version: int = 1,
    snapshot_root: str | None = None,
) -> RunManifest:
    """Initial full dump: all quads as '+' records at checkpoint 0.

    Idempotent: if a committed dump manifest exists (the vql_rdfdump_info
    marker analog, generate-rdfpatch.sh:277-297), returns it unchanged.
    """
    from virtuoso_quad_log_ray.state.validate import snapshot_probe, validate_input, validate_sink

    validate_input(sf_dir)
    validate_sink(out_root)
    existing = _committed_dump(out_root)
    if existing is not None:
        return existing
    probe = snapshot_probe(sf_dir)
    quad_set = quads_version(sf_dir, version, cfg)
    last_source = f"{sf_dir}#v{version}"
    if snapshot_root is not None:
        # checkpoint the canonical quad set in the same pass that writes
        # the patch files — the next sync diffs against storage, never a
        # recomputation of this crawl
        manifest = _snapshot_dump(
            quad_set, out_root, snapshot_root, epoch=epoch, cfg=cfg, last_source=last_source
        )
    else:
        manifest = write_rdfpatch(
            _with_op(quad_set, "+"),
            out_root,
            epoch=epoch,
            checkpoint=TS14_ZERO,
            kind="dump",
            cfg=cfg,
            run_index=0,
            last_source=last_source,
        )
    # T6 write-quiescence assertion: immutable Parquet makes serializable
    # fencing free, but assert the input really was unchanged during the run
    probe.assert_unchanged(snapshot_probe(sf_dir))
    ckpt.write_epoch(out_root, epoch)
    # cursor written AFTER the manifest commit: crash before this line is
    # repaired by the idempotent early-return above, which backfills the
    # missing cursor/epoch from the committed manifest.
    ckpt.write_cursor(out_root, TS14_ZERO)
    return manifest


def run_sync(
    sf_dir: str,
    out_root: str,
    *,
    checkpoint: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    prev_version: int = 1,
    new_version: int = 2,
    snapshot_root: str | None = None,
) -> RunManifest:
    """One incremental sync: +/- changelog between the prev and current
    snapshots, appended to the sink under the new checkpoint ts.

    Requires a committed dump (cursor present — parse_trx_logs cursor gate,
    generate-rdfpatch.sh:348-351). With ``snapshot_root`` the PREV side is
    the stored snapshot checkpoint (no recomputation of the prior crawl),
    and the new state is checkpointed in the same bucket pass as the diff.

    Crash-window semantics (ordering is manifest -> cursor -> snapshot
    pointer):

    * crash between manifest commit and cursor write: the retry at the SAME
      checkpoint is repaired below — the committed manifest is authoritative
      (``max_processed_checkpoint``), so the run backfills the cursor (and
      the pending snapshot pointer) and returns without re-publishing
      (VERDICT r3 #1: re-publishing would double-list every file).
    * crash between cursor write and snapshot-pointer swing: the next sync
      diffs the OLD snapshot against a NEWER state and re-emits the
      old->new ops under a new checkpoint — at-least-once duplicates in the
      patch stream, never a lost delta (ADVICE r3). Consumers must apply
      +/- records idempotently (set-semantics apply, as
      ``changelog.apply_changelog`` does); duplicates were chosen over the prior
      ordering's silently DROPPED deltas (ADVICE r2, high).
    """
    from virtuoso_quad_log_ray.state.validate import validate_input, validate_sink

    validate_input(sf_dir)
    validate_sink(out_root)
    prev_manifest, committed = _sync_gate(out_root, checkpoint, snapshot_root, "run_dump")
    if committed:
        return prev_manifest
    run_index = (prev_manifest.run_index + 1) if prev_manifest else 1
    last_source = f"{sf_dir}#v{new_version}"
    new_quads = quads_version(sf_dir, new_version, cfg)
    if snapshot_root is not None:
        if current_snapshot(snapshot_root) is None:
            # Bootstrap (ADVICE r2, low): the dump ran without snapshot_root,
            # so no snapshot exists. Materialize the committed prev state as
            # the snapshot now (full commit — it IS the cursor's state) so
            # snapshotting starts paying off instead of silently recomputing
            # the prior crawl on every sync forever.
            write_snapshot(
                snapshot_root,
                quads_version(sf_dir, prev_version, cfg),
                checkpoint=ckpt.read_cursor(out_root),
                epoch=ckpt.read_epoch(out_root) or "",
            )
        return _snapshot_sync(
            new_quads,
            out_root,
            snapshot_root,
            checkpoint=checkpoint,
            run_index=run_index,
            cfg=cfg,
            last_source=last_source,
        )
    log = diff_quads(quads_version(sf_dir, prev_version, cfg), new_quads, cfg)
    manifest = write_rdfpatch(
        log,
        out_root,
        epoch=ckpt.read_epoch(out_root) or "",
        checkpoint=checkpoint,
        kind="sync",
        cfg=cfg,
        run_index=run_index,
        last_source=last_source,
    )
    ckpt.write_cursor(out_root, checkpoint)
    return manifest


# ---------------------------------------------------------------------------
# Production loop over a REAL pages table (input_hint schema): the dump
# checkpoints the canonical quad set; every sync re-extracts the CURRENT
# table and diffs it against the stored snapshot — the prior crawl is never
# recomputed. These are the quad-set-generic forms of run_dump/run_sync
# (which keep the sandbox's deterministic v1/v2 snapshot-pair semantics).
# ---------------------------------------------------------------------------


def run_dump_quads(
    quad_set: ray.data.Dataset,
    out_root: str,
    *,
    epoch: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    snapshot_root: str | None = None,
    last_source: str = "",
) -> RunManifest:
    """Initial dump of an arbitrary quad Dataset (idempotent, T1/T2/T5
    semantics identical to run_dump)."""
    from virtuoso_quad_log_ray.state.validate import validate_sink

    validate_sink(out_root)
    existing = _committed_dump(out_root)
    if existing is not None:
        return existing
    if snapshot_root is not None:
        manifest = _snapshot_dump(
            quad_set, out_root, snapshot_root, epoch=epoch, cfg=cfg, last_source=last_source
        )
    else:
        manifest = write_rdfpatch(
            _with_op(quad_set, "+"),
            out_root,
            epoch=epoch,
            checkpoint=TS14_ZERO,
            kind="dump",
            cfg=cfg,
            run_index=0,
            last_source=last_source,
        )
    ckpt.write_epoch(out_root, epoch)
    ckpt.write_cursor(out_root, TS14_ZERO)
    return manifest


def run_sync_quads(
    new_quads: ray.data.Dataset,
    out_root: str,
    *,
    checkpoint: str,
    snapshot_root: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    last_source: str = "",
) -> RunManifest:
    """Incremental sync of an arbitrary quad Dataset against the STORED
    snapshot (snapshot_root is required — there is no recompute fallback
    for a mutable real-world source). Crash-window semantics identical to
    :func:`run_sync` (see its docstring): same-checkpoint retry after a
    manifest-committed/cursor-lost crash is repaired without re-publishing;
    a cursor-committed/pointer-lost crash yields at-least-once duplicate
    +/- ops on the NEXT sync, never a lost delta."""
    from virtuoso_quad_log_ray.state.validate import validate_sink

    validate_sink(out_root)
    prev_manifest, committed = _sync_gate(out_root, checkpoint, snapshot_root, "run_dump_quads")
    if committed:
        return prev_manifest
    if current_snapshot(snapshot_root) is None:
        raise RuntimeError("no snapshot checkpoint: dump with snapshot_root first")
    return _snapshot_sync(
        new_quads,
        out_root,
        snapshot_root,
        checkpoint=checkpoint,
        run_index=(prev_manifest.run_index + 1) if prev_manifest else 1,
        cfg=cfg,
        last_source=last_source,
    )


def _pages_quads(pages_path: str, cfg: EngineConfig) -> ray.data.Dataset:
    from virtuoso_quad_log_ray.pipelines.kg import quads_from_pages
    from virtuoso_quad_log_ray.sources.pages import read_pages_parquet

    return quads_from_pages(read_pages_parquet(pages_path), cfg)


def run_dump_pages(
    pages_path: str,
    out_root: str,
    *,
    epoch: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    snapshot_root: str | None = None,
) -> RunManifest:
    """Initial dump over a REAL pages Parquet table (input_hint schema)."""
    return run_dump_quads(
        _pages_quads(pages_path, cfg),
        out_root,
        epoch=epoch,
        cfg=cfg,
        snapshot_root=snapshot_root,
        last_source=pages_path,
    )


def run_sync_pages(
    pages_path: str,
    out_root: str,
    *,
    checkpoint: str,
    snapshot_root: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> RunManifest:
    """Incremental sync: re-extract the CURRENT pages table, diff against
    the stored snapshot, publish the +/- changelog, advance the cursor."""
    return run_sync_quads(
        _pages_quads(pages_path, cfg),
        out_root,
        checkpoint=checkpoint,
        snapshot_root=snapshot_root,
        cfg=cfg,
        last_source=pages_path,
    )


def _version_of(last_source: str) -> int:
    """'<sf_dir>#vN' -> N (the snapshot version a committed run last saw)."""
    _, _, tag = last_source.rpartition("#v")
    return int(tag) if tag.isdigit() else 1


def run_loop(
    sf_dir: str,
    out_root: str,
    *,
    interval_s: float = 0.0,
    max_runs: int | None = None,
    epoch: str | None = None,
    current_version: int = 2,
    cfg: EngineConfig = DEFAULT_CONFIG,
    snapshot_root: str | None = None,
    sleep=None,
    now=None,
) -> list[RunManifest]:
    """T8 poll loop — the reference's operational heartbeat
    (quad-logger/entrypoint.sh:14-17: ``while true; do run; sleep
    RUN_INTERVAL; done``), bounded for the sandbox by ``max_runs``.

    Each iteration is one bounded run (the ``ray job submit`` unit):
    no cursor -> initial dump of snapshot v1; cursor present -> incremental
    sync from the last committed snapshot version to ``current_version``
    (a re-poll with no upstream change diffs vN against vN: zero records,
    cursor still advances — the reference likewise writes nothing when the
    trx log has no new quads). ``sleep``/``now`` are injectable for tests;
    checkpoints come from wall-clock ts14 (strictly increasing, enforced by
    run_sync's cursor gate).
    """
    import datetime as _dt
    import time as _time

    from virtuoso_quad_log_ray.rdfpatch import ts14

    sleep = sleep or _time.sleep
    now = now or (lambda: _dt.datetime.now(_dt.timezone.utc))
    manifests: list[RunManifest] = []
    i = 0
    while max_runs is None or i < max_runs:
        if i:
            sleep(interval_s)
        cursor = ckpt.read_cursor(out_root)
        if cursor is None:
            man = run_dump(
                sf_dir,
                out_root,
                epoch=epoch or ts14(now()),
                cfg=cfg,
                version=1,
                snapshot_root=snapshot_root,
            )
        else:
            prev = load_manifest(out_root)
            prev_version = _version_of(prev.last_source) if prev else 1
            man = run_sync(
                sf_dir,
                out_root,
                checkpoint=ts14(now()),
                cfg=cfg,
                prev_version=prev_version,
                new_version=current_version,
                snapshot_root=snapshot_root,
            )
        manifests.append(man)
        i += 1
    return manifests
