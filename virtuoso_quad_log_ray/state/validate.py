"""Startup validation (C1-C6 analog) + snapshot-consistency probe (S4/T6).

The reference asserts its preconditions before any run: Virtuoso config
flags + readable trx log (vql_assert_configuration, utils.sql:3-19), stored
procedures present and un-drifted (generate-rdfpatch.sh:106-159), dump
markers / clean dirs (generate-rdfpatch.sh:184-192, 280-286), and the
single-zip-end invariant (zipsynchronizer.py:244-247). The new engine's
equivalents:

  validate_input   input table exists and carries the expected columns /
                   types (schema is the engine's 'configuration')
  validate_sink    manifest pointer resolves, the newest run's files exist
                   with the recorded sizes (older runs' files were checked
                   by the runs after them, so a run checks its delta, not
                   the history), cursor/epoch tokens well-formed; in the
                   publish dir no committed file is in two zips and every
                   run zip's files lie in the open chunk (the successor of
                   the single-zip-end invariant)
  snapshot_probe   (count, max warc_ts) of the input — recorded at run
                   start and re-checked at the end: immutable Parquet makes
                   the reference's serializable-dump fencing free, but the
                   ASSERTION is kept (T6: dump_nquads.sql:22-37, 60-78)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow.parquet as pq

from virtuoso_quad_log_ray.state import checkpoint as ckpt
from virtuoso_quad_log_ray.state.manifest import RunManifest, load_manifest

REQUIRED_DOC_COLUMNS = {"doc_id", "text", "lang", "source"}


class ValidationError(RuntimeError):
    pass


def validate_input(sf_dir: str) -> None:
    """C1 analog: the input 'store' must be readable and shaped right."""
    path = os.path.join(sf_dir, "documents.parquet")
    if not os.path.exists(path):
        raise ValidationError(f"input table missing: {path}")
    schema = pq.read_schema(path)
    missing = REQUIRED_DOC_COLUMNS - set(schema.names)
    if missing:
        raise ValidationError(f"input schema missing columns: {sorted(missing)}")


def validate_sink(
    root: str, pub: str | None = None, *, manifest: RunManifest | None = None
) -> None:
    """C2/C4/C6 analog: committed state must be internally consistent.
    ``pub`` is the publish dir whose zips are checked (default: ``root``).
    ``manifest`` is the sink's committed manifest when the caller has
    loaded it already (None: load it here).

    Only the newest run's files are stat'd: the committed files whose
    ``rdf_out_<ts14>`` checkpoint equals ``manifest.checkpoint`` (a name
    without one counts as the dump's). ``commit_patch_run`` appends each
    run's files at the end of the list, so they are its trailing files.
    Files a ``move_resources`` Bundler sealed and removed from the sink
    (``publish.moved_count``) are not looked for."""
    from virtuoso_quad_log_ray.pipelines.publish import bundle_problems, moved_count, ts14_of
    from virtuoso_quad_log_ray.rdfpatch import TS14_ZERO

    manifest = load_manifest(root) if manifest is None else manifest
    files = manifest.files if manifest is not None else []
    start = len(files)
    while start and (ts14_of(files[start - 1].name) or TS14_ZERO) == manifest.checkpoint:
        start -= 1
    for e in files[max(start, moved_count(root, files)) :]:
        try:
            size = os.stat(os.path.join(root, e.name)).st_size
        except FileNotFoundError:
            raise ValidationError(f"manifest lists missing file: {e.name}") from None
        if e.length and size != e.length:
            raise ValidationError(f"size drift for {e.name}: {size} != recorded {e.length}")
    cursor = ckpt.read_cursor(root)
    if cursor is not None and not (len(cursor) == 14 and cursor.isdigit()):
        raise ValidationError(f"malformed ts14 cursor: {cursor!r}")
    epoch = ckpt.read_epoch(root)
    if epoch is not None and not epoch.strip():
        raise ValidationError("empty epoch token")
    if os.path.isdir(pub or root):
        problems = bundle_problems(files, pub or root)
        if problems:
            raise ValidationError(problems[0])


@dataclass(frozen=True)
class SnapshotProbe:
    n_rows: int
    max_doc_id: int

    def assert_unchanged(self, other: "SnapshotProbe") -> None:
        if self != other:
            raise ValidationError(
                f"input changed during run: {self} -> {other} "
                "(the reference aborts the dump on concurrent writes, "
                "dump_nquads.sql:60-78)"
            )


def snapshot_probe(sf_dir: str) -> SnapshotProbe:
    """Cheap input-version probe from Parquet metadata + one column scan."""
    path = os.path.join(sf_dir, "documents.parquet")
    md = pq.read_metadata(path)
    t = pq.read_table(path, columns=["doc_id"])
    import pyarrow.compute as pc

    return SnapshotProbe(
        n_rows=md.num_rows, max_doc_id=int(pc.max(t["doc_id"]).as_py())
    )
