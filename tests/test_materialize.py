"""Sorted Parquet adjacency partitions: layout, sort order, resume skip."""

import os

import pyarrow.parquet as pq
import pytest

from tests.conftest import RESUMABLE_SINKS, SF_SMALL, resumable_sink, to_arrow
from virtuoso_quad_log_ray.pipelines import kg
from virtuoso_quad_log_ray.pipelines.materialize import (
    materialize_quads,
    read_materialized,
)


@pytest.mark.usefixtures("ray_session")
class TestMaterialize:
    def test_write_read_roundtrip_sorted(self, tmp_path):
        root = str(tmp_path / "adj")
        quads = kg.dedup_quads(kg.build_quads(SF_SMALL))
        expected = quads.count()
        quads = kg.dedup_quads(kg.build_quads(SF_SMALL))  # count() consumed the plan
        m = materialize_quads(quads, root, epoch="E1", n_buckets=8)
        assert m.file_count <= 8
        assert m.quad_count == expected

        # each partition file is sorted by (g, s, p, o)
        for e in m.files:
            t = pq.read_table(os.path.join(root, e.name))
            rows = list(zip(*[t[c].to_pylist() for c in ("g", "s", "p", "o")]))
            assert rows == sorted(rows), e.name

        # every graph lives in exactly one partition
        graph_to_files = {}
        for e in m.files:
            t = pq.read_table(os.path.join(root, e.name), columns=["g"])
            for g in set(t["g"].to_pylist()):
                graph_to_files.setdefault(g, set()).add(e.name)
        assert all(len(v) == 1 for v in graph_to_files.values())

        back = to_arrow(read_materialized(root))
        assert len(back) == m.quad_count

    def test_resume_skips_committed_buckets(self, tmp_path):
        root = str(tmp_path / "adj")
        quads = kg.dedup_quads(kg.build_quads(SF_SMALL))
        materialize_quads(quads, root, epoch="E1", n_buckets=4)
        mtimes = {
            e: os.path.getmtime(os.path.join(root, e))
            for e in os.listdir(root)
            if e.startswith("bucket=")
        }
        from virtuoso_quad_log_ray.state.manifest import load_manifest

        m1 = load_manifest(root)
        quads2 = kg.dedup_quads(kg.build_quads(SF_SMALL))
        m2 = materialize_quads(quads2, root, epoch="E1", n_buckets=4)
        # same epoch: all buckets skipped, files untouched, totals unchanged
        for e in mtimes:
            assert os.path.getmtime(os.path.join(root, e)) == mtimes[e]
        assert m2.quad_count == m1.quad_count
        assert m2.file_count == m1.file_count == 4

        # a committed shard that went missing is rewritten, not echoed
        lost = m1.files[0].name
        os.remove(os.path.join(root, lost))
        quads3 = kg.dedup_quads(kg.build_quads(SF_SMALL))
        m3 = materialize_quads(quads3, root, epoch="E1", n_buckets=4)
        assert os.path.exists(os.path.join(root, lost))
        assert [(e.name, e.amount) for e in m3.files] == [(e.name, e.amount) for e in m1.files]
        assert read_materialized(root).count() == m1.quad_count

    def test_resume_invalidated_on_hash_fp_mismatch(self, tmp_path):
        self._check_resume_invalidated_on_hash_fp_mismatch(tmp_path, "materialize")

    @pytest.mark.parametrize("sink", [s for s in RESUMABLE_SINKS if s != "materialize"])
    def test_export_resume_invalidated_on_hash_fp_mismatch(self, tmp_path, sink):
        self._check_resume_invalidated_on_hash_fp_mismatch(tmp_path, sink)

    def _check_resume_invalidated_on_hash_fp_mismatch(self, tmp_path, sink):
        """ADVICE r2: same-epoch resume must not trust bucket ids keyed by a
        DIFFERENT hash128 implementation — a tampered/stale fingerprint in
        the committed manifest forces a full rewrite instead of skipping."""
        import json
        import time

        write, rows, _, _ = resumable_sink(sink)
        root = str(tmp_path / "adj")
        m1 = write(rows(), root, epoch="E1", n_buckets=4)
        from virtuoso_quad_log_ray.numerics import hash_fingerprint

        assert m1.hash_fp == hash_fingerprint() and m1.hash_fp
        # simulate a polars upgrade: rewrite the committed manifest with a
        # different fingerprint
        with open(os.path.join(root, "MANIFEST")) as f:
            name = f.read().strip()
        with open(os.path.join(root, name)) as f:
            doc = json.load(f)
        doc["hash_fp"] = "polars-0.0.0:deadbeef"
        with open(os.path.join(root, name), "w") as f:
            json.dump(doc, f)
        parts = sorted(e.name for e in m1.files)
        mtimes = {p: os.path.getmtime(os.path.join(root, p)) for p in parts}
        time.sleep(0.05)
        m2 = write(rows(), root, epoch="E1", n_buckets=4)
        assert m2.hash_fp == hash_fingerprint()
        assert m2.quad_count == m1.quad_count
        # every bucket rewritten (no skips against an untrusted layout)
        assert any(
            os.path.getmtime(os.path.join(root, p)) != mtimes[p] for p in parts
        )
        rewritten = sum(
            os.path.getmtime(os.path.join(root, p)) != mtimes[p] for p in parts
        )
        assert rewritten == len(parts)
