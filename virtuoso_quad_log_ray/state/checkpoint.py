"""Checkpoint cursor + epoch handshake (T1/T2).

- Cursor: the max input ``warc_ts`` fully processed, persisted as ts14 —
  the analog of ``vql_lastlogsuffix.txt`` (generate-rdfpatch.sh:44-45,
  250-251, 372-373). An incremental run filters input partitions to
  ``warc_ts > cursor`` (F5, parse_trx_logs.sql:58) and advances the cursor
  only after its manifest commits.
- Epoch handshake: a run-lineage token equal to the dump start ts — the
  analog of ``vql_started_at.txt`` (generate-rdfpatch.sh:51,230). Downstream
  sinks record the epoch they were built from; on mismatch they must be
  wiped and rebuilt (split-graphs.sh:153-184, syncdirector.py:188-231) —
  guarded so only files this engine owns are deleted (``is_our_file``,
  syncdirector.py:251-261).
"""

from __future__ import annotations

import os
import shutil

from virtuoso_quad_log_ray.state.manifest import POINTER, write_durable

CURSOR_FILE = "cursor.ts14"
EPOCH_FILE = "epoch.ts14"

# Filenames this engine owns and may delete on epoch rebuild (F9 guard).
_OURS_PREFIXES = (
    "rdf_out_", "manifest-", POINTER, CURSOR_FILE, EPOCH_FILE, "part_def_", "part_run_", "vql_",
)


def read_cursor(root: str) -> str | None:
    p = os.path.join(root, CURSOR_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return f.read().strip()


def write_cursor(root: str, ts14: str) -> None:
    os.makedirs(root, exist_ok=True)
    write_durable(os.path.join(root, CURSOR_FILE), ts14)


def read_epoch(root: str) -> str | None:
    p = os.path.join(root, EPOCH_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return f.read().strip()


def write_epoch(root: str, epoch: str) -> None:
    os.makedirs(root, exist_ok=True)
    write_durable(os.path.join(root, EPOCH_FILE), epoch)


def is_our_file(name: str) -> bool:
    """Ownership predicate guarding destructive cleanup (F9,
    syncdirector.py:251-261): base64 graph dirs and engine-prefixed files."""
    base = os.path.basename(name.rstrip("/"))
    if base.startswith(_OURS_PREFIXES) or base.endswith((".json", ".json.tmp", ".xml", ".zip")):
        return True
    # base64 graph directory names decode cleanly
    import base64

    try:
        base64.b64decode(base.encode("ascii"), validate=True)
        return True
    except Exception:
        return False


def verify_handshake(sink_root: str, source_epoch: str) -> bool:
    """True if the sink is in the source's epoch. On mismatch: wipe-and-
    rebuild semantics (T2) — delete only files we own, then sign the new
    epoch. Returns False when a rebuild happened (callers re-publish all)."""
    current = read_epoch(sink_root)
    if current == source_epoch:
        return True
    if os.path.isdir(sink_root):
        for entry in os.listdir(sink_root):
            path = os.path.join(sink_root, entry)
            if not is_our_file(entry):
                continue  # never delete foreign data (guarded cleanup)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    write_epoch(sink_root, source_epoch)
    return False

