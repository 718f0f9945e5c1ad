"""Traced round: the production round re-composed from public calls.

Each layer's call is wrapped in a span from this file, and its Dataset is
``.materialize()``-d at the layer boundary so the span holds that layer's
work (lazy Ray Data plans otherwise run every stage inside the final write).
The call sequence and arguments mirror ``pipelines.runs.run_dump_quads`` /
``run_sync_quads`` over ``quads_from_pages``, followed by the Bundler, so
the traced lineage must commit the same files as the untraced one.

Spans and counts stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

# per-layer metric -> unit; times are medians over rounds, as are counts
PER_LAYER = {
    "pages.read_s": "s",
    "pages.rows": "count",
    "pages.bytes_in": "bytes",
    "extract_text.s": "s",
    "extract_triples.s": "s",
    "extract_triples.quads": "count",
    "materialize.write_s": "s",
    "materialize.read_s": "s",
    "materialize.snapshot_bytes": "bytes",
    "materialize.bucket_skew": "ratio",
    "changelog.diff_s": "s",
    "changelog.records": "count",
    "changelog.useful_ratio": "ratio",
    "publish.patch_write_s": "s",
    "publish.patch_files": "count",
    "publish.patch_bytes": "bytes",
    "publish.bundle_s": "s",
    "publish.zips_written": "count",
    "publish.metadata_s": "s",
    "publish.metadata_docs": "count",
    "manifest.bytes": "bytes",
    "manifest.load_s": "s",
    "validate.sink_s": "s",
}


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(root) for n in names
    )


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, round_id: int):
        idx = len(self.spans)
        rec = {
            "name": name,
            "round": round_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _dur(self, round_id: int, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["round"] == round_id and s["name"] == name)

    def round(self, lin, pages_path: str, checkpoint: str | None, epoch: str, k: int) -> float:
        """Run one traced round on lineage ``lin``; returns its wall seconds."""
        from virtuoso_quad_log_ray.config import DEFAULT_CONFIG as cfg
        from virtuoso_quad_log_ray.pipelines.changelog import diff_quads
        from virtuoso_quad_log_ray.pipelines.materialize import read_materialized
        from virtuoso_quad_log_ray.pipelines.publish import write_rdfpatch
        from virtuoso_quad_log_ray.pipelines.runs import (
            _with_op,
            commit_snapshot,
            materialize_snapshot,
            read_snapshot,
            write_snapshot,
        )
        from virtuoso_quad_log_ray.rdfpatch import TS14_ZERO
        from virtuoso_quad_log_ray.sources.pages import read_pages_parquet
        from virtuoso_quad_log_ray.stages.extract_text import extract_text
        from virtuoso_quad_log_ray.stages.extract_triples import extract_triples
        from virtuoso_quad_log_ray.state import checkpoint as ckpt
        from virtuoso_quad_log_ray.state.manifest import POINTER, load_manifest
        from virtuoso_quad_log_ray.state.validate import validate_sink

        dump = checkpoint is None
        c: dict = {"round": k}
        with self.span("round", k):
            with self.span("validate.sink", k):
                validate_sink(lin.sink)
            with self.span("manifest.load", k):
                prev_manifest = load_manifest(lin.sink)
            with self.span("pages.read", k):
                pages = read_pages_parquet(pages_path).materialize()
            with self.span("extract_text", k):
                text = extract_text(
                    pages, batch_size=cfg.pages_batch_size, extractor=cfg.extractor
                ).materialize()
            with self.span("extract_triples", k):
                quads = extract_triples(text, batch_size=cfg.quads_batch_size).materialize()
            if dump:
                with self.span("materialize.write", k):
                    write_snapshot(lin.snap, quads, checkpoint=TS14_ZERO, epoch=epoch)
                    snap_dir = os.path.join(lin.snap, f"at-{TS14_ZERO}")
                with self.span("materialize.read", k):
                    new_q = read_snapshot(lin.snap).materialize()
                    prev_n = 0
                with self.span("changelog.diff", k):
                    log = _with_op(new_q, "+").materialize()
            else:
                prev_q = read_snapshot(lin.snap)
                with self.span("materialize.write", k):
                    pending = materialize_snapshot(
                        lin.snap, quads, checkpoint=checkpoint, epoch=ckpt.read_epoch(lin.sink) or ""
                    )
                    snap_dir = os.path.join(lin.snap, pending)
                with self.span("materialize.read", k):
                    new_q = read_materialized(snap_dir).materialize()
                    prev_q = prev_q.materialize()
                    prev_n = prev_q.count()
                with self.span("changelog.diff", k):
                    log = diff_quads(prev_q, new_q, cfg).materialize()
            with self.span("publish.patch_write", k):
                man = write_rdfpatch(
                    log,
                    lin.sink,
                    epoch=epoch if dump else ckpt.read_epoch(lin.sink) or "",
                    checkpoint=TS14_ZERO if dump else checkpoint,
                    kind="dump" if dump else "sync",
                    cfg=cfg,
                    run_index=0 if dump else (prev_manifest.run_index + 1 if prev_manifest else 1),
                    last_source=pages_path,
                )
                if dump:
                    ckpt.write_epoch(lin.sink, epoch)
                    ckpt.write_cursor(lin.sink, TS14_ZERO)
                else:
                    ckpt.write_cursor(lin.sink, checkpoint)
                    commit_snapshot(lin.snap, pending)
            bundler = lin.bundler()
            zips_before = {
                n: os.stat(os.path.join(lin.pub, n)).st_mtime_ns
                for n in (os.listdir(lin.pub) if os.path.isdir(lin.pub) else [])
                if n.endswith(".zip")
            }
            with self.span("publish.bundle", k):
                bundler.publish()
            with self.span("publish.metadata", k):
                docs = bundler.publish_metadata()

        new_n = new_q.count()
        records = log.count()
        snap_man = load_manifest(snap_dir)
        amounts = [e.amount for e in snap_man.files]
        with open(os.path.join(lin.sink, POINTER)) as f:
            manifest_path = os.path.join(lin.sink, f.read().strip())
        c.update(
            {
                "pages.rows": pages.count(),
                "pages.bytes_in": os.path.getsize(pages_path),
                "extract_triples.quads": quads.count(),
                "materialize.snapshot_bytes": _dir_bytes(snap_dir),
                "materialize.bucket_skew": max(amounts) / statistics.mean(amounts),
                "changelog.records": records,
                "changelog.useful_ratio": records / (prev_n + new_n),
                "publish.patch_files": man.file_count,
                "publish.patch_bytes": sum(e.length for e in man.files[-man.file_count :]),
                "publish.zips_written": sum(
                    1
                    for n in os.listdir(lin.pub)
                    if n.endswith(".zip")
                    and zips_before.get(n) != os.stat(os.path.join(lin.pub, n)).st_mtime_ns
                ),
                "publish.metadata_docs": len(docs),
                "manifest.bytes": os.path.getsize(manifest_path),
            }
        )
        self.counts.append(c)
        return self._dur(k, "round")

    def metrics(self) -> dict[str, tuple[float, str]]:
        rounds = [c["round"] for c in self.counts]
        out = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                span = name[: -len("_s")] if name.endswith("_s") else name[: -len(".s")]
                vals = [self._dur(k, span) for k in rounds]
            else:
                vals = [c[name] for c in self.counts]
            out[name] = (statistics.median(vals), unit)
        return out

    def dump(self, out_dir: str, workload: str, seed: int) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f, indent=1)
        return path
