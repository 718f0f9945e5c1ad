"""Dump + incremental sync orchestration (pipelines/runs.py): cursor gating,
idempotence, manifest counters, and end-to-end patch-file correctness."""

import os

import pyarrow as pa
import pytest

from tests.conftest import SF_SMALL
from virtuoso_quad_log_ray.config import EngineConfig
from virtuoso_quad_log_ray.pipelines import runs
from virtuoso_quad_log_ray.pipelines.materialize import bucket_id, bucket_rel
from virtuoso_quad_log_ray.pipelines.publish import Bundler
from virtuoso_quad_log_ray.rdfpatch import TS14_ZERO, parse_patch_text
from virtuoso_quad_log_ray.state import checkpoint as ckpt
from virtuoso_quad_log_ray.state.manifest import load_manifest
from virtuoso_quad_log_ray.state.validate import validate_sink

CFG = EngineConfig(max_quads_per_file=5000)


def _reference_sink(root, checkpoint, v1=None, v2=None):
    """The sink a dump of v1 and a sync to v2 at ``checkpoint`` must
    publish, written without the runs: ``write_rdfpatch`` of every v1 quad
    as '+' at TS14_ZERO, then of ``diff_quads(v1, v2)`` at ``checkpoint``,
    each with the run fields ``run_dump``/``run_sync`` commit. v1 and v2
    default to the sandbox's quad versions; quad tables are accepted too.
    Returns the dump's and the sync's manifests."""
    import ray.data

    from virtuoso_quad_log_ray.pipelines.changelog import diff_quads, quads_version, with_op
    from virtuoso_quad_log_ray.pipelines.publish import write_rdfpatch

    v1 = quads_version(SF_SMALL, 1, CFG) if v1 is None else v1
    v2 = quads_version(SF_SMALL, 2, CFG) if v2 is None else v2
    v1, v2 = (ray.data.from_arrow(v) if isinstance(v, pa.Table) else v for v in (v1, v2))
    dump = write_rdfpatch(
        v1.map_batches(lambda b: with_op(b, "+"), batch_format="pyarrow"),
        root, epoch="E1", checkpoint=TS14_ZERO, kind="dump", cfg=CFG,
        run_index=0, last_source=f"{SF_SMALL}#v1",
    )
    sync = write_rdfpatch(
        diff_quads(v1, v2), root, epoch="E1", checkpoint=checkpoint, kind="sync", cfg=CFG,
        run_index=1, last_source=f"{SF_SMALL}#v2",
    )
    return dump, sync


def _carried(snaps, prior, new):
    """{shard name: whether it is the prior snapshot's file} for every
    shard of snapshot ``at-<new>``, against snapshot ``at-<prior>``."""
    a, b = (os.path.join(snaps, f"at-{c}") for c in (prior, new))

    def same(name):
        old = os.path.join(a, name)
        return os.path.exists(old) and os.path.samefile(old, os.path.join(b, name))

    return {e.name: same(e.name) for e in load_manifest(b).files}


def _published_at(sink, checkpoint):
    """(name, md5) of the committed patch files of the run at ``checkpoint``."""
    files = load_manifest(sink).files
    return {(f.name, f.md5) for f in files if f"rdf_out_{checkpoint}-" in f.name}


@pytest.mark.usefixtures("ray_session")
class TestRuns:
    def test_dump_then_sync_lifecycle(self, tmp_path):
        root = str(tmp_path / "sink")

        # --- dump run ---
        m0 = runs.run_dump(SF_SMALL, root, epoch="E1", cfg=CFG)
        assert m0.kind == "dump"
        assert m0.checkpoint == TS14_ZERO
        assert m0.quad_count > 0
        assert ckpt.read_cursor(root) == TS14_ZERO
        assert ckpt.read_epoch(root) == "E1"

        # dump is idempotent (vql_rdfdump_info marker analog)
        m0b = runs.run_dump(SF_SMALL, root, epoch="E2", cfg=CFG)
        assert m0b.quad_count == m0.quad_count
        assert ckpt.read_epoch(root) == "E1"  # untouched

        # sync before/at cursor is rejected
        with pytest.raises(RuntimeError):
            runs.run_sync(SF_SMALL, root, checkpoint=TS14_ZERO, cfg=CFG)

        # --- sync run ---
        m1 = runs.run_sync(SF_SMALL, root, checkpoint="20240101010101", cfg=CFG)
        assert m1.kind == "sync"
        assert m1.run_index == 1
        assert ckpt.read_cursor(root) == "20240101010101"
        # totals accumulate across runs (A3 counters)
        assert m1.total_quads == m0.quad_count + m1.quad_count
        assert m1.total_files == m0.file_count + m1.file_count
        # changelog contains both ops
        sync_files = [f for f in m1.files if f.name not in {x.name for x in m0.files}]
        ops = set()
        for fe in sync_files[:20]:
            with open(os.path.join(root, fe.name)) as fh:
                quads, meta = parse_patch_text(fh.read())
            assert meta["at checkpoint"] == "20240101010101"
            ops.update(q["op"] for q in quads)
        assert ops <= {"+", "-"} and ops
        # the sink owns the snapshot the sync diffed against and committed
        assert runs.current_snapshot(os.path.join(root, "snapshots")) == "at-20240101010101"
        validate_sink(root)

        # --- publish over the committed manifest ---
        pub = str(tmp_path / "pub")
        st = Bundler(root, pub, max_files=50).publish()
        assert st.def_count + st.run_count >= 1
        man = load_manifest(root)
        assert man.run_index == 1
        validate_sink(root, pub)

    def test_run_loop_dump_then_syncs(self, tmp_path):
        """T8 poll loop (entrypoint.sh:14-17): dump first, then interval
        syncs; cursor advances per run; empty-diff re-poll commits 0 records;
        sleep happens BETWEEN runs only."""
        import datetime

        root = str(tmp_path / "sink")
        sleeps: list[float] = []
        times = iter(
            datetime.datetime(2025, 1, 1, 0, 0, i, tzinfo=datetime.timezone.utc)
            for i in range(10)
        )
        mans = runs.run_loop(
            SF_SMALL,
            root,
            interval_s=5.0,
            max_runs=3,
            cfg=CFG,
            sleep=sleeps.append,
            now=lambda: next(times),
        )
        assert [m.kind for m in mans] == ["dump", "sync", "sync"]
        assert mans[0].quad_count > 0
        assert mans[1].quad_count > 0  # v1 -> v2: real changes
        assert mans[2].quad_count == 0  # v2 -> v2: no upstream change
        assert sleeps == [5.0, 5.0]
        assert [m.run_index for m in mans] == [0, 1, 2]
        # cursor advanced to the last sync's checkpoint
        assert ckpt.read_cursor(root) == mans[2].checkpoint
        assert mans[1].checkpoint < mans[2].checkpoint
        # the re-poll touched no bucket: every shard carried forward by link
        snaps = os.path.join(root, runs.SNAPSHOTS_DIR)
        assert set(_carried(snaps, mans[1].checkpoint, mans[2].checkpoint).values()) == {True}

    def test_snapshot_checkpoint_sync(self, tmp_path):
        """Snapshot-backed sync: run_dump materializes the quad set, run_sync
        diffs against the STORED snapshot (no recompute of the prior crawl)
        and publishes the exact changelog of the reference sink; the
        SNAPSHOT pointer advances; manifests carry throughput metrics."""
        ref, snap = str(tmp_path / "ref"), str(tmp_path / "snap")
        snaps = str(tmp_path / "snapshots")
        ref_dump, _ = _reference_sink(ref, "20240101010101")

        m_snap = runs.run_dump(SF_SMALL, snap, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert m_snap.quad_count == ref_dump.quad_count
        assert _published_at(snap, TS14_ZERO) == _published_at(ref, TS14_ZERO)
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-" + TS14_ZERO
        s1 = runs.run_sync(
            SF_SMALL, snap, checkpoint="20240101010101", cfg=CFG, snapshot_root=snaps
        )
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-20240101010101"
        # identical changelog vs the reference (same files, same md5s)
        want = _published_at(ref, "20240101010101")
        assert _published_at(snap, "20240101010101") == want and want
        assert s1.elapsed_s > 0 and s1.quads_per_sec >= 0

        # a re-dump after a sync is a no-op: it returns the sync's manifest
        # and rewinds neither cursor, epoch, snapshot nor manifest pointer
        state = self._sink_state(snap, snaps)
        again = runs.run_dump(SF_SMALL, snap, epoch="E2", snapshot_root=snaps)
        assert (again.kind, again.checkpoint) == ("sync", "20240101010101")
        assert again.files == s1.files
        assert self._sink_state(snap, snaps) == state

    @staticmethod
    def _sink_state(sink, snaps):
        """cursor, epoch, SNAPSHOT and MANIFEST pointers of a sink."""
        from virtuoso_quad_log_ray.state.manifest import POINTER

        with open(os.path.join(sink, POINTER)) as f:
            pointer = f.read().strip()
        return (
            ckpt.read_cursor(sink),
            ckpt.read_epoch(sink),
            runs.current_snapshot(snaps),
            pointer,
        )

    def test_pointer_swing_crash_publishes_no_duplicates(self, tmp_path, monkeypatch):
        """A crash after the cursor write but before the SNAPSHOT pointer
        swing: the next run repairs the pointer from the committed patch
        manifest, so a later sync over the same state publishes nothing,
        where diffing the stale snapshot re-published the whole delta. A
        dump commits in the same order: a crash at its pointer swing leaves
        a committed dump, which the next run_dump repairs and returns."""
        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snapshots")
        real = runs.commit_snapshot
        crash = {"at-" + TS14_ZERO, "at-20240101010101"}

        def crashing_commit(root, name):
            if name in crash:
                crash.discard(name)
                raise RuntimeError(f"simulated crash before swinging to {name}")
            return real(root, name)

        monkeypatch.setattr(runs, "commit_snapshot", crashing_commit)

        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_dump(SF_SMALL, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        dumped = load_manifest(sink)
        assert dumped is not None and dumped.kind == "dump"  # committed before the swing
        assert runs.current_snapshot(snaps) is None
        m0 = runs.run_dump(SF_SMALL, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert m0.files == dumped.files
        assert runs.current_snapshot(snaps) == "at-" + TS14_ZERO
        assert ckpt.read_cursor(sink) == TS14_ZERO and ckpt.read_epoch(sink) == "E1"

        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_sync(
                SF_SMALL, sink, checkpoint="20240101010101", cfg=CFG, snapshot_root=snaps
            )
        assert ckpt.read_cursor(sink) == "20240101010101"
        assert runs.current_snapshot(snaps) == "at-" + TS14_ZERO  # swing lost

        # same v2 state at a later checkpoint: no change to publish
        m2 = runs.run_sync(
            SF_SMALL, sink, checkpoint="20240101010102", cfg=CFG, snapshot_root=snaps
        )
        assert m2.quad_count == 0
        assert runs.current_snapshot(snaps) == "at-20240101010102"
        assert ckpt.read_cursor(sink) == "20240101010102"

    def test_sync_crash_before_patch_commit_replays_full_delta(
        self, tmp_path, monkeypatch
    ):
        """ADVICE r2 (high): a crash AFTER the new snapshot materializes but
        BEFORE the patch manifest commits must leave the SNAPSHOT pointer at
        the prior state, so the retry re-diffs old-vs-new and publishes the
        full delta (not an empty new-vs-new changelog). The crash fires at
        the patch-manifest commit of the bucket pass, i.e. after the new
        snapshot's shards, its manifest and the patch files are written."""
        snap = str(tmp_path / "sink")
        snaps = str(tmp_path / "snapshots")
        runs.run_dump(SF_SMALL, snap, epoch="E1", cfg=CFG, snapshot_root=snaps)

        calls = {"n": 0}
        real = runs.commit_patch_run

        def crashing_commit(*a, **k):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated crash before patch commit")
            return real(*a, **k)

        monkeypatch.setattr(runs, "commit_patch_run", crashing_commit)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_sync(
                SF_SMALL, snap, checkpoint="20240101010101", cfg=CFG,
                snapshot_root=snaps,
            )
        # the new snapshot was written before the crash, but stays pending
        assert load_manifest(os.path.join(snaps, "at-20240101010101")).quad_count > 0
        # pointer must still name the OLD snapshot; cursor unmoved
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-" + TS14_ZERO
        assert ckpt.read_cursor(snap) == TS14_ZERO

        # retry replays idempotently and emits the real delta
        m = runs.run_sync(
            SF_SMALL, snap, checkpoint="20240101010101", cfg=CFG,
            snapshot_root=snaps,
        )
        assert m.quad_count > 0  # v1 -> v2 delta, NOT empty
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-20240101010101"
        assert ckpt.read_cursor(snap) == "20240101010101"
        # delta identical to the reference sink's
        ref = str(tmp_path / "ref")
        _reference_sink(ref, "20240101010101")
        want = _published_at(ref, "20240101010101")
        assert _published_at(snap, "20240101010101") == want and want

    def test_sync_crash_between_manifest_and_cursor_no_duplicates(
        self, tmp_path, monkeypatch
    ):
        """VERDICT r3 #1 (T1/T3): a crash AFTER the patch manifest commits
        but BEFORE the cursor write must NOT double-list the run's files on
        retry. The retry at the same checkpoint is repaired from the
        manifest-authoritative checkpoint: cursor + snapshot pointer are
        backfilled, nothing is re-published, totals stay exact, and
        read_rdfpatch ingests every quad exactly once."""
        from tests.conftest import to_arrow
        from virtuoso_quad_log_ray.sources.rdfpatch_files import read_rdfpatch

        sink = str(tmp_path / "sink")
        snaps = str(tmp_path / "snapshots")
        runs.run_dump(SF_SMALL, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)

        real_write = ckpt.write_cursor
        calls = {"n": 0}

        def crashing_cursor(root, ts):
            if ts == "20240101010101" and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("simulated crash after manifest commit")
            return real_write(root, ts)

        monkeypatch.setattr(runs.ckpt, "write_cursor", crashing_cursor)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_sync(
                SF_SMALL, sink, checkpoint="20240101010101", cfg=CFG,
                snapshot_root=snaps,
            )
        # the crash window: manifest committed, cursor + pointer stale
        committed = load_manifest(sink)
        assert committed.checkpoint == "20240101010101"
        assert ckpt.read_cursor(sink) == TS14_ZERO
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-" + TS14_ZERO

        # retry at the same checkpoint repairs instead of re-publishing
        m = runs.run_sync(
            SF_SMALL, sink, checkpoint="20240101010101", cfg=CFG,
            snapshot_root=snaps,
        )
        names = [f.name for f in m.files]
        assert len(names) == len(set(names))  # no duplicate manifest entries
        assert m.quad_count == committed.quad_count
        assert m.total_quads == sum(f.amount for f in m.files)
        assert m.total_files == len(m.files)
        assert m.run_index == committed.run_index  # same committed run
        assert ckpt.read_cursor(sink) == "20240101010101"
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-20240101010101"
        # every published quad is ingested exactly once
        back = to_arrow(read_rdfpatch(sink))
        assert len(back) == m.total_quads
        # exact parity with the reference sink
        _, mp = _reference_sink(str(tmp_path / "ref"), "20240101010101")
        assert {(f.name, f.md5) for f in m.files} == {
            (f.name, f.md5) for f in mp.files
        }
        assert m.total_quads == mp.total_quads

    def test_sync_against_an_empty_snapshot_root_raises(self, tmp_path):
        """A sync whose snapshot_root holds no committed snapshot has no
        prior state to diff against: it raises and commits nothing."""
        from virtuoso_quad_log_ray.state.manifest import POINTER

        sink = str(tmp_path / "sink")
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        runs.run_dump(SF_SMALL, sink, epoch="E1", cfg=CFG)  # sink-owned snapshot

        def state():
            with open(os.path.join(sink, POINTER)) as f:
                pointer = f.read().strip()
            return pointer, ckpt.read_cursor(sink), ckpt.read_epoch(sink), load_manifest(sink).files

        before = state()
        with pytest.raises(RuntimeError, match="no committed snapshot"):
            runs.run_sync(
                SF_SMALL, sink, checkpoint="20240101010101", cfg=CFG, snapshot_root=empty
            )
        assert state() == before
        written = [n for _, _, names in os.walk(sink) for n in names if "20240101010101" in n]
        assert written == [] and os.listdir(empty) == []

    def test_roundtrip_read_back(self, tmp_path):
        """write_rdfpatch -> read_rdfpatch reproduces the quad multiset
        (publication-surface round-trip; apply() semantics live in
        test_rdfpatch)."""
        from tests.conftest import to_arrow
        from virtuoso_quad_log_ray.pipelines.changelog import quads_version
        from virtuoso_quad_log_ray.sources.rdfpatch_files import read_rdfpatch

        root = str(tmp_path / "sink")
        m = runs.run_dump(SF_SMALL, root, epoch="E1", cfg=CFG)
        back = to_arrow(read_rdfpatch(root))
        assert len(back) == m.quad_count
        assert set(back["op"].to_pylist()) == {"+"}
        # same quad set as the v1 snapshot the dump ran over
        quads = to_arrow(quads_version(SF_SMALL, 1, CFG))
        want = set(zip(*[quads[c].to_pylist() for c in ("s", "p", "o", "g")]))
        got = set(zip(*[back[c].to_pylist() for c in ("s", "p", "o", "g")]))
        assert got == want

    def test_sync_requires_dump(self, tmp_path):
        with pytest.raises(RuntimeError):
            runs.run_sync(SF_SMALL, str(tmp_path / "x"), checkpoint="20240101010101", cfg=CFG)


class TestValidation:
    """C1-C6 analog startup checks (state/validate.py)."""

    def test_missing_input_table(self, tmp_path):
        from virtuoso_quad_log_ray.state.validate import ValidationError, validate_input

        with pytest.raises(ValidationError):
            validate_input(str(tmp_path))

    def test_input_schema_ok(self):
        from virtuoso_quad_log_ray.state.validate import validate_input

        validate_input(SF_SMALL)  # no raise

    def test_sink_size_drift_detected(self, tmp_path):
        from virtuoso_quad_log_ray.state.manifest import FileEntry, RunManifest, commit_manifest
        from virtuoso_quad_log_ray.state.validate import ValidationError, validate_sink

        root = str(tmp_path / "sink")
        os.makedirs(root)
        with open(os.path.join(root, "rdf_out_x"), "w") as f:
            f.write("short")
        commit_manifest(
            root,
            RunManifest(
                epoch="E", checkpoint="00000000000000", kind="dump",
                files=[FileEntry("rdf_out_x", "g", 1, "m", 9999)],
            ),
        )
        with pytest.raises(ValidationError):
            validate_sink(root)

    def test_malformed_cursor_detected(self, tmp_path):
        from virtuoso_quad_log_ray.state import checkpoint as ckpt
        from virtuoso_quad_log_ray.state.validate import ValidationError, validate_sink

        root = str(tmp_path / "s")
        ckpt.write_cursor(root, "not-a-ts14")
        with pytest.raises(ValidationError):
            validate_sink(root)

    def test_snapshot_probe_detects_change(self):
        from virtuoso_quad_log_ray.state.validate import SnapshotProbe, ValidationError

        a = SnapshotProbe(n_rows=10, max_doc_id=9)
        a.assert_unchanged(SnapshotProbe(n_rows=10, max_doc_id=9))  # ok
        with pytest.raises(ValidationError):
            a.assert_unchanged(SnapshotProbe(n_rows=11, max_doc_id=10))


class TestRealPagesRuns:
    """Production loop over a real pages table: dump checkpoints the quad
    set, sync digests the CURRENT table and extracts and diffs the changed
    buckets against the stored snapshot (no recompute of the prior crawl)."""

    def test_dump_then_sync_over_mutated_pages(self, tmp_path):
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.rdfpatch import TS14_ZERO
        from virtuoso_quad_log_ray.sources.pages import read_pages

        pages = (
            __import__("tests.conftest", fromlist=["to_arrow"]).to_arrow(
                read_pages(SF_SMALL, include_html=True)
            )
        )
        path = str(tmp_path / "pages.parquet")
        pq.write_table(pages, path)
        sink = str(tmp_path / "sink")
        snaps = str(tmp_path / "snaps")

        m0 = runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert m0.kind == "dump" and m0.quad_count > 0
        assert ckpt.read_cursor(sink) == TS14_ZERO

        # mutate the source: drop one page, change another's text
        urls = pages["url"].to_pylist()
        keep = pc.not_equal(pages["url"], urls[0])
        mutated = pages.filter(keep)
        text = pc.if_else(
            pc.equal(mutated["url"], urls[1]),
            pc.binary_join_element_wise(mutated["text"], " changed", ""),
            mutated["text"],
        )
        mutated = mutated.set_column(
            mutated.schema.get_field_index("text"), "text", text
        )
        pq.write_table(mutated, path)

        m1 = runs.run_sync_pages(
            path, sink, checkpoint="20250101000000", snapshot_root=snaps, cfg=CFG
        )
        assert m1.kind == "sync" and m1.quad_count > 0  # deletions + changes
        assert ckpt.read_cursor(sink) == "20250101000000"
        # the changelog must contain '-' records for the dropped page's quads
        sync_files = [f for f in m1.files if "20250101000000" in f.name]
        ops = set()
        for fe in sync_files[:20]:
            import os as _os

            with open(_os.path.join(sink, fe.name)) as fh:
                rows, _ = parse_patch_text(fh.read())
            ops.update(r["op"] for r in rows)
        assert "-" in ops

        # unchanged re-poll: empty changelog, cursor still advances
        m2 = runs.run_sync_pages(
            path, sink, checkpoint="20250101000001", snapshot_root=snaps, cfg=CFG
        )
        assert m2.quad_count == 0
        assert ckpt.read_cursor(sink) == "20250101000001"


def _except_changelog(prev, new):
    """The changelog a sync must publish: DuckDB EXCEPT in both directions."""
    import duckdb

    con = duckdb.connect()
    con.register("prev_q", prev)
    con.register("new_q", new)
    return con.sql(
        "SELECT '+' AS op, * FROM (SELECT s, p, o, g FROM new_q EXCEPT SELECT s, p, o, g FROM prev_q) "
        "UNION ALL "
        "SELECT '-' AS op, * FROM (SELECT s, p, o, g FROM prev_q EXCEPT SELECT s, p, o, g FROM new_q)"
    ).arrow()


def _records(t, checkpoint=None):
    """Sorted (op, s, p, o, g) rows of a changelog table, optionally only
    the rows published under ``checkpoint``."""
    import pyarrow.compute as pc

    if checkpoint is not None:
        t = t.filter(pc.equal(t["checkpoint"], checkpoint))
    return sorted(zip(*[t[c].to_pylist() for c in ("op", "s", "p", "o", "g")]))


@pytest.mark.usefixtures("ray_session")
class TestBucketAlignedSync:
    """The snapshot-backed sync diffs bucket K of the new state against
    bucket K of the stored snapshot, so both sides must be keyed by the
    same hash and bucket count, and a bucket that empties must still emit
    its '-' records. The published changelog must equal the EXCEPT."""

    CKPT = "20240101010101"

    def _quads(self, version):
        from tests.conftest import to_arrow
        from virtuoso_quad_log_ray.pipelines.changelog import quads_version

        return to_arrow(quads_version(SF_SMALL, version, CFG)).select(["s", "p", "o", "g"])

    def _sync_and_check(self, sink, snaps, prev, new):
        import ray.data

        from tests.conftest import to_arrow
        from virtuoso_quad_log_ray.pipelines.changelog import apply_changelog
        from virtuoso_quad_log_ray.sources.rdfpatch_files import read_rdfpatch

        m = runs.run_sync_quads(
            ray.data.from_arrow(new), sink, checkpoint=self.CKPT, snapshot_root=snaps, cfg=CFG
        )
        want = _except_changelog(prev, new)
        got = to_arrow(read_rdfpatch(sink))
        assert _records(got, self.CKPT) == _records(want)
        assert m.quad_count == len(want) > 0
        replayed = apply_changelog(prev, want)
        assert sorted(zip(*replayed.to_pydict().values())) == sorted(zip(*new.to_pydict().values()))
        with open(os.path.join(snaps, "SNAPSHOT")) as f:
            assert f.read().strip() == "at-" + self.CKPT
        return m

    def test_emptied_bucket_emits_its_deletes(self, tmp_path):
        import pyarrow.compute as pc
        import ray.data

        from virtuoso_quad_log_ray.stages.shuffle import _bucket_of

        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        prev, new = self._quads(1), self._quads(2)
        runs.run_dump_quads(ray.data.from_arrow(prev), sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        snap = load_manifest(os.path.join(snaps, "at-" + TS14_ZERO))
        # drop every new quad of one bucket that held prior quads
        emptied = int(_bucket_of(prev["g"], snap.n_buckets)[0].as_py())
        new = new.filter(pc.not_equal(_bucket_of(new["g"], snap.n_buckets), emptied))
        self._sync_and_check(sink, snaps, prev, new)
        shards = {e.name for e in load_manifest(os.path.join(snaps, "at-" + self.CKPT)).files}
        assert bucket_rel(emptied) not in shards

    def test_one_shuffle_per_run_no_join_no_snapshot_read(self, tmp_path, monkeypatch):
        """A snapshot-backed dump or sync is ONE shuffle, by_bucket's range
        sort: no Ray join, and the stored snapshot is never read through
        Ray."""
        import ray.data

        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        prev, new = self._quads(1), self._quads(2)
        shuffles = []
        real_sort = ray.data.Dataset.sort

        def counting_sort(ds, *a, **k):
            shuffles.append(a)
            return real_sort(ds, *a, **k)

        def forbidden(*a, **k):
            raise AssertionError("snapshot-backed run used a Ray join or read")

        monkeypatch.setattr(ray.data.Dataset, "sort", counting_sort)
        monkeypatch.setattr(ray.data.Dataset, "join", forbidden)
        monkeypatch.setattr(ray.data, "read_parquet", forbidden)
        runs.run_dump_quads(ray.data.from_arrow(prev), sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert len(shuffles) == 1
        self._sync_and_check(sink, snaps, prev, new)
        assert len(shuffles) == 2

    @pytest.mark.parametrize("foreign_hash", [True, False], ids=["hash_fp", "n_buckets_0"])
    def test_misaligned_prior_snapshot_is_rekeyed(self, tmp_path, foreign_hash):
        """A prior snapshot keyed by another hash implementation (or with a
        pre-field manifest, n_buckets 0) is re-keyed once before the pass;
        diffing it as stored would emit spurious -/+ pairs."""
        import shutil

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data

        from virtuoso_quad_log_ray.numerics import hash_fingerprint
        from virtuoso_quad_log_ray.sources.pages import pa_mod
        from virtuoso_quad_log_ray.state.manifest import FileEntry, RunManifest, commit_manifest

        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        prev, new = self._quads(1), self._quads(2)
        runs.run_dump_quads(ray.data.from_arrow(prev), sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        # rewrite the stored snapshot as another hash would have keyed it
        snap_dir = os.path.join(snaps, "at-" + TS14_ZERO)
        n = load_manifest(snap_dir).n_buckets
        shutil.rmtree(snap_dir)
        foreign = pc.cast(pc.utf8_length(prev["g"]), pa.int64())
        files = []
        for k in range(n):
            part = prev.filter(pc.equal(pa_mod(foreign, n), k))
            if len(part):
                rel = f"bucket={k:05d}/part.parquet"
                os.makedirs(os.path.dirname(os.path.join(snap_dir, rel)), exist_ok=True)
                pq.write_table(part, os.path.join(snap_dir, rel))
                files.append(FileEntry(rel, "", len(part), "", 0))
        commit_manifest(
            snap_dir,
            RunManifest(
                epoch="E1", checkpoint="", kind="materialize",
                quad_count=len(prev), file_count=len(files), files=files,
                hash_fp="other-hash:0" if foreign_hash else hash_fingerprint(),
                n_buckets=n if foreign_hash else 0,
            ),
        )
        self._sync_and_check(sink, snaps, prev, new)
        new_snap = load_manifest(os.path.join(snaps, "at-" + self.CKPT))
        assert new_snap.hash_fp == hash_fingerprint() and new_snap.n_buckets > 0
        assert new_snap.quad_count == len(new)


@pytest.fixture(scope="module")
def small_pages(ray_session):
    """The sandbox's small crawl as one pages table, sorted by url."""
    from tests.conftest import to_arrow
    from virtuoso_quad_log_ray.sources.pages import read_pages

    return to_arrow(read_pages(SF_SMALL, include_html=True)).sort_by("url")


def _set(pages, urls, col, fn):
    """``pages`` with column ``col`` replaced by ``fn(pages)`` in the rows
    whose url is in ``urls``."""
    import pyarrow.compute as pc

    mask = pc.is_in(pages["url"], value_set=pa.array(list(urls), type=pa.string()))
    col_type = pages.schema.field(col).type
    new = pc.if_else(mask, pc.cast(fn(pages), col_type), pages[col])
    return pages.set_column(pages.schema.get_field_index(col), col, new)


def _edit_text(pages, urls, suffix=" spark edited"):
    """``pages`` with ``suffix`` appended to the article text of ``urls``."""
    import pyarrow.compute as pc

    from virtuoso_quad_log_ray.sources.pages import HTML_PREFIX, HTML_SUFFIX

    pages = _set(pages, urls, "text", lambda p: pc.binary_join_element_wise(p["text"], suffix, ""))
    return _set(
        pages,
        urls,
        "html",
        lambda p: pc.binary_join_element_wise(HTML_PREFIX, p["text"], HTML_SUFFIX, ""),
    )


def _bucket_of_urls(urls, n_buckets):
    from virtuoso_quad_log_ray.stages.shuffle import _bucket_of

    return set(_bucket_of(pa.array(list(urls), type=pa.string()), n_buckets).to_pylist())


@pytest.mark.usefixtures("ray_session")
class TestPageDelta:
    """A pages run stores a source digest per shard, and the next pages
    sync extracts, diffs and rewrites only the buckets whose digest moved;
    every other shard is hard-linked forward. Each published changelog
    must equal the full diff (``_reference_sink``)."""

    CKPTS = ("20250101000000", "20250101000001", "20250101000002")

    def _runs(self, tmp_path, crawls):
        """``run_dump_pages`` of ``crawls[0]``, then ``run_sync_pages`` of
        each later crawl at ``CKPTS``, all in-process; returns (sink,
        snaps, manifests)."""
        import pyarrow.parquet as pq

        path = str(tmp_path / "pages.parquet")
        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        mans = []
        for k, pages in enumerate(crawls):
            pq.write_table(pages, path)
            assert runs.runs_in_process(path)
            if k == 0:
                m = runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
            else:
                m = runs.run_sync_pages(
                    path, sink, checkpoint=self.CKPTS[k - 1], snapshot_root=snaps, cfg=CFG
                )
            mans.append(m)
        return sink, snaps, mans

    def _assert_full_diff(self, tmp_path, sink, prev, new, checkpoint):
        """The files published at ``checkpoint`` are the full diff of the
        quads of crawl ``prev`` against crawl ``new``."""
        from virtuoso_quad_log_ray.pipelines.kg import pages_to_quads

        ref = str(tmp_path / f"ref-{checkpoint}")
        _reference_sink(ref, checkpoint, pages_to_quads(prev, CFG), pages_to_quads(new, CFG))
        assert _published_at(sink, checkpoint) == _published_at(ref, checkpoint)

    @staticmethod
    def _ops(sink, checkpoint):
        ops = []
        for name, _ in _published_at(sink, checkpoint):
            with open(os.path.join(sink, name)) as fh:
                ops += [r["op"] for r in parse_patch_text(fh.read())[0]]
        return ops

    def test_work_follows_the_touched_buckets(self, tmp_path, monkeypatch, small_pages):
        """A 1%-change sync writes and reads the shards of the touched
        buckets once each and extracts only their rows; every other shard
        is the prior file. An identical re-sync writes nothing."""
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.pipelines import kg, materialize

        pages = small_pages
        edited = pages["url"].to_pylist()[::100]
        sink, snaps, _ = self._runs(tmp_path, [pages])
        n = load_manifest(os.path.join(snaps, "at-" + TS14_ZERO)).n_buckets
        touched = _bucket_of_urls(edited, n)
        writes, reads, extracted = [], [], []

        def bucket_of_path(path):
            return bucket_id(os.path.basename(str(path)))

        real_write, real_read, real_extract = (
            materialize.write_snapshot_bucket,
            materialize.read_snapshot_bucket,
            kg.extract_triples_batch,
        )

        def write(quads, path):
            writes.append(bucket_of_path(path))
            return real_write(quads, path)

        def read(path, *a, **k):
            if str(path).startswith(snaps):
                reads.append(bucket_of_path(path))
            return real_read(path, *a, **k)

        def extract(texts):
            extracted.append(texts["url"].to_pylist())
            return real_extract(texts)

        monkeypatch.setattr(materialize, "write_snapshot_bucket", write)
        monkeypatch.setattr(materialize, "read_snapshot_bucket", read)
        monkeypatch.setattr(kg, "extract_triples_batch", extract)
        path = str(tmp_path / "pages.parquet")
        pq.write_table(_edit_text(pages, edited), path)
        m1 = runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG)
        assert m1.quad_count > 0
        assert sorted(writes) == sorted(reads) == sorted(touched)
        assert len(extracted) == 1  # one vectorized extraction, not one per bucket
        assert set(edited) <= set(extracted[0])
        assert _bucket_of_urls(extracted[0], n) == touched
        carried = _carried(snaps, TS14_ZERO, self.CKPTS[0])
        assert {name for name, same in carried.items() if not same} == {
            bucket_rel(b) for b in touched
        }

        writes.clear(), reads.clear(), extracted.clear()
        m2 = runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[1], snapshot_root=snaps, cfg=CFG)
        assert (m2.quad_count, m2.file_count) == (0, 0)
        assert writes == reads == extracted == []
        assert set(_carried(snaps, self.CKPTS[0], self.CKPTS[1]).values()) == {True}

    def test_removed_page_emits_only_deletes(self, tmp_path, small_pages):
        import pyarrow.compute as pc

        pages = small_pages
        gone = pages["url"][7].as_py()
        kept = pages.filter(pc.not_equal(pages["url"], gone))
        sink, snaps, mans = self._runs(tmp_path, [pages, kept])
        assert mans[1].quad_count > 0
        assert set(self._ops(sink, self.CKPTS[0])) == {"-"}
        self._assert_full_diff(tmp_path, sink, pages, kept, self.CKPTS[0])
        n = load_manifest(os.path.join(snaps, "at-" + TS14_ZERO)).n_buckets
        (bucket,) = _bucket_of_urls([gone], n)
        carried = _carried(snaps, TS14_ZERO, self.CKPTS[0])
        assert {name for name, same in carried.items() if not same} <= {bucket_rel(bucket)}

    def test_lang_only_edit_is_published(self, tmp_path, small_pages):
        pages = small_pages
        url = pages["url"][3].as_py()
        relang = _set(pages, [url], "lang", lambda p: pa.array(["xx"] * len(p)))
        sink, _, mans = self._runs(tmp_path, [pages, relang])
        assert mans[1].quad_count == 2  # the old lang quad out, the new one in
        self._assert_full_diff(tmp_path, sink, pages, relang, self.CKPTS[0])

    def test_url_held_twice_then_once_then_gone(self, tmp_path, small_pages):
        """Bag semantics: a duplicated row counts twice in its bucket's
        digest, so dropping one copy rewrites the shard and the later
        removal retracts exactly the copy left."""
        import pyarrow.compute as pc

        pages = small_pages
        url = pages["url"][11].as_py()
        twice = pa.concat_tables([pages, pages.slice(11, 1)])
        gone = pages.filter(pc.not_equal(pages["url"], url))
        sink, snaps, mans = self._runs(tmp_path, [twice, pages, gone])
        assert mans[1].quad_count == 0 and mans[2].quad_count > 0
        self._assert_full_diff(tmp_path, sink, twice, pages, self.CKPTS[0])
        self._assert_full_diff(tmp_path, sink, pages, gone, self.CKPTS[1])
        assert set(self._ops(sink, self.CKPTS[1])) == {"-"}

    def test_boilerplate_only_html_edit_publishes_nothing(self, tmp_path, small_pages):
        import pyarrow.compute as pc

        pages = small_pages
        urls = pages["url"].to_pylist()[::10]

        def renav(p):
            html = pc.cast(p["html"], pa.string())
            nav = "<nav>home | about | contact</nav>"
            return pc.replace_substring(html, nav, "<nav>home</nav>")

        edited = _set(pages, urls, "html", renav)
        assert not edited["html"].equals(pages["html"])
        sink, snaps, mans = self._runs(tmp_path, [pages, edited])
        assert (mans[1].quad_count, mans[1].file_count) == (0, 0)
        self._assert_full_diff(tmp_path, sink, pages, edited, self.CKPTS[0])
        assert set(_carried(snaps, TS14_ZERO, self.CKPTS[0]).values()) == {True}

    @pytest.mark.parametrize("change", ["fingerprint", "excluded_graphs"])
    def test_extraction_change_rebuilds_every_bucket(
        self, tmp_path, monkeypatch, change, small_pages
    ):
        """A changed extractor (its fingerprint moves with it) or a changed
        excluded-graphs filter touches every bucket, so the unchanged crawl
        publishes the full diff of the old extraction against the new."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.pipelines import kg
        from virtuoso_quad_log_ray.pipelines.kg import pages_to_quads

        pages = small_pages
        sink, snaps, _ = self._runs(tmp_path, [pages])
        old = pages_to_quads(pages, CFG)
        cfg = CFG
        if change == "fingerprint":
            real = kg.extract_triples_batch

            def no_token_counts(texts):
                q = real(texts)
                return q.filter(pc.invert(pc.match_substring(q["p"], "tokenCount")))

            monkeypatch.setattr(kg, "extract_triples_batch", no_token_counts)
            monkeypatch.setattr(kg, "source_fingerprint", lambda cfg: "another extractor")
        else:
            cfg = EngineConfig(max_quads_per_file=5000, excluded_graphs=(pages["url"][5].as_py(),))
        path = str(tmp_path / "pages.parquet")
        pq.write_table(pages, path)
        m = runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=cfg)
        assert m.quad_count > 0 and set(self._ops(sink, self.CKPTS[0])) == {"-"}
        ref = str(tmp_path / "ref")
        _reference_sink(ref, self.CKPTS[0], old, pages_to_quads(pages, cfg))
        assert _published_at(sink, self.CKPTS[0]) == _published_at(ref, self.CKPTS[0])
        assert set(_carried(snaps, TS14_ZERO, self.CKPTS[0]).values()) == {False}

    def test_digests_cover_each_column_every_copy_and_nulls(self):
        """One bucket, so every row lands in the same digest: it changes
        with any column, with a null against an empty string, with the
        copy count of a row, and two rows held twice do not cancel as a
        XOR would. Null rows digest the same every time, on a Dataset's
        worker processes too."""
        import ray.data

        from virtuoso_quad_log_ray.pipelines.kg import bucket_digests

        base = pa.table(
            {"url": ["u1", "u2", None], "text": ["a b", None, "c"], "lang": [None, "en", "de"]}
        )

        def digest(t):
            return bucket_digests(t, 1, CFG)[0]

        def row(url, text, lang):
            return pa.table({"url": [url], "text": [text], "lang": [lang]}, schema=base.schema)

        d = digest(base)
        assert d == digest(base) == bucket_digests(ray.data.from_arrow(base), 1, CFG)[0]
        variants = [
            base.slice(0, 2),
            pa.concat_tables([base, base.slice(0, 1)]),  # a row twice
            pa.concat_tables([base.slice(1), row("u1", "a b", "")]),  # null -> ""
            pa.concat_tables([base.slice(1), row("u1", "a b", "xx")]),  # lang only
            pa.concat_tables([base.slice(1), row("u1", "a c", None)]),  # text only
            pa.concat_tables([base.slice(0, 2), row("", "c", "de")]),  # null url -> ""
            pa.concat_tables([base.slice(0, 1), row("u2", "en", None), base.slice(2)]),  # swap
            # two rows held twice: a XOR would cancel both and equal base
            pa.concat_tables([base, row("x", "t", "l"), row("x", "t", "l")]),
            pa.concat_tables([base, row("y", "t", "l"), row("y", "t", "l")]),
        ]
        digests = [digest(v) for v in variants]
        assert len(set(digests + [d])) == len(variants) + 1

    def test_digest_partials_match_a_python_integer_loop(self):
        """The vectorized uint64 sums wrap as Python integers reduced
        mod 2**64 do, bucket by bucket."""
        from virtuoso_quad_log_ray.numerics import hash128
        from virtuoso_quad_log_ray.pipelines.kg import TEXT_COLS, _ROW_MULS, digest_partials
        from virtuoso_quad_log_ray.stages.shuffle import _bucket_of

        n = 8
        t = pa.table(
            {
                "url": [f"https://example.org/s/{i}" for i in range(200)] + [None],
                "text": [f"t {i % 7}" for i in range(200)] + ["x"],
                "lang": [None if i % 5 == 0 else "en" for i in range(201)],
            }
        )
        words = [[int(w) % 2**64 for w in h] for c in TEXT_COLS for h in hash128(t[c])]
        muls = [int(m) for m in _ROW_MULS.reshape(-1)]
        want = {}
        for i, b in enumerate(_bucket_of(t["url"], n).to_pylist()):
            s1 = sum(words[2 * c][i] * muls[2 * c] for c in range(3))
            s2 = sum(words[2 * c + 1][i] * muls[2 * c + 1] for c in range(3))
            a1, a2, k = want.get(b, (0, 0, 0))
            want[b] = ((a1 + s1) % 2**64, (a2 + s2) % 2**64, k + 1)
        got = digest_partials(t, n).to_pylist()
        assert {r["bucket"]: (r["s1"], r["s2"], r["n"]) for r in got} == want


    def _count_extraction(self, monkeypatch):
        """Record the urls of every page row whose text is extracted, and
        the rows the text extractor itself is called on."""
        from virtuoso_quad_log_ray.pipelines import kg
        from virtuoso_quad_log_ray.stages.extract_text import ArticleRuleExtractor

        urls, rows = [], []
        real_texts, real_call = kg.page_texts, ArticleRuleExtractor.__call__

        def page_texts(pages, *a, **k):
            urls.extend(pages["url"].to_pylist())
            return real_texts(pages, *a, **k)

        def call(self, html):
            rows.append(len(html))
            return real_call(self, html)

        monkeypatch.setattr(kg, "page_texts", page_texts)
        monkeypatch.setattr(ArticleRuleExtractor, "__call__", call)
        return urls, rows

    def test_text_extraction_follows_the_raw_digests(self, tmp_path, monkeypatch, small_pages):
        """The text extractor runs only on the rows of the buckets whose raw
        digest moved: a 1% edit extracts its buckets, an identical re-sync
        extracts no row, and a boilerplate-only html edit extracts its
        buckets and rewrites no shard."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        pages = small_pages
        sink, snaps, _ = self._runs(tmp_path, [pages])
        n = load_manifest(os.path.join(snaps, "at-" + TS14_ZERO)).n_buckets
        path = str(tmp_path / "pages.parquet")
        urls, rows = self._count_extraction(monkeypatch)

        def sync(crawl, k):
            urls.clear(), rows.clear()
            pq.write_table(crawl, path)
            return runs.run_sync_pages(
                path, sink, checkpoint=self.CKPTS[k], snapshot_root=snaps, cfg=CFG
            )

        edited = pages["url"].to_pylist()[::100]
        in_buckets = _bucket_of_urls(edited, n)
        assert len(in_buckets) < n // 2
        m = sync(_edit_text(pages, edited), 0)
        assert m.quad_count > 0
        assert _bucket_of_urls(urls, n) == in_buckets and set(edited) <= set(urls)
        assert sum(rows) == len(urls) < len(pages) // 2

        assert sync(_edit_text(pages, edited), 1).quad_count == 0
        assert urls == [] and sum(rows) == 0

        renav = pages["url"].to_pylist()[1::100]
        html = pc.replace_substring(
            pc.cast(pages["html"], pa.string()), "<nav>home | about | contact</nav>", "<nav>home</nav>"
        )
        boiler = _set(_edit_text(pages, edited), renav, "html", lambda p: html)
        m = sync(boiler, 2)
        assert (m.quad_count, m.file_count) == (0, 0)
        assert _bucket_of_urls(urls, n) == _bucket_of_urls(renav, n)
        assert sum(rows) == len(urls) > 0
        assert set(_carried(snaps, self.CKPTS[1], self.CKPTS[2]).values()) == {True}
        raw = {
            c: load_manifest(os.path.join(snaps, "at-" + c)).raw_digests for c in self.CKPTS[1:]
        }
        moved = {bucket_id(k) for k, d in raw[self.CKPTS[2]].items() if raw[self.CKPTS[1]][k] != d}
        assert moved == _bucket_of_urls(renav, n)

    def test_another_extractor_rebuilds_every_bucket(self, tmp_path, small_pages):
        """The raw digests are salted with the text extractor's identity:
        after an ``article`` dump, a ``tag_strip`` sync of the unchanged
        crawl extracts and rebuilds every bucket and publishes the full
        diff of the two extractions."""
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.pipelines.kg import pages_to_quads

        pages = small_pages
        sink, snaps, _ = self._runs(tmp_path, [pages])
        tag_strip = EngineConfig(max_quads_per_file=5000, extractor="tag_strip")
        path = str(tmp_path / "pages.parquet")
        pq.write_table(pages, path)
        m = runs.run_sync_pages(
            path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=tag_strip
        )
        assert m.quad_count > 0
        ref = str(tmp_path / "ref")
        _reference_sink(
            ref, self.CKPTS[0], pages_to_quads(pages, CFG), pages_to_quads(pages, tag_strip)
        )
        assert _published_at(sink, self.CKPTS[0]) == _published_at(ref, self.CKPTS[0])
        assert set(_carried(snaps, TS14_ZERO, self.CKPTS[0]).values()) == {False}

    def test_snapshot_of_the_nested_layout_without_raw_digests(
        self, tmp_path, monkeypatch, small_pages
    ):
        """A snapshot written before shards were flat (``bucket=K/part.parquet``)
        and before raw digests were stored syncs to the patch bytes a fresh
        lineage publishes: its first sync extracts every bucket once and
        rewrites only the buckets whose text digest moved. An identical
        re-sync after it extracts nothing."""
        import dataclasses

        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.state.manifest import commit_manifest

        pages = small_pages
        edited = _edit_text(pages, pages["url"].to_pylist()[::50])
        sides = {}
        for name in ("old", "fresh"):
            os.makedirs(tmp_path / name)
            sides[name] = self._runs(tmp_path / name, [pages])[:2]
        snap_dir = os.path.join(sides["old"][1], "at-" + TS14_ZERO)
        man = load_manifest(snap_dir)
        files = []
        for e in man.files:
            rel = f"bucket={bucket_id(e.name):05d}/part.parquet"
            os.makedirs(os.path.join(snap_dir, os.path.dirname(rel)))
            os.replace(os.path.join(snap_dir, e.name), os.path.join(snap_dir, rel))
            files.append(dataclasses.replace(e, name=rel))
        commit_manifest(snap_dir, dataclasses.replace(man, files=files, raw_digests={}))
        assert load_manifest(snap_dir).raw_digests == {}
        path = str(tmp_path / "pages.parquet")
        urls, _ = self._count_extraction(monkeypatch)
        rewritten = {}
        for name, (sink, snaps) in sides.items():
            urls.clear()
            pq.write_table(edited, path)
            runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG)
            prior, new = (os.path.join(snaps, "at-" + c) for c in (TS14_ZERO, self.CKPTS[0]))
            old_names = {bucket_id(e.name): e.name for e in load_manifest(prior).files}
            rewritten[name] = {
                e.name
                for e in load_manifest(new).files
                if not os.path.samefile(
                    os.path.join(prior, old_names[bucket_id(e.name)]), os.path.join(new, e.name)
                )
            }
            # the old snapshot extracts every row once, the fresh one its edits
            assert urls and (len(urls) == len(pages)) == (name == "old")
        assert rewritten["old"] == rewritten["fresh"] and rewritten["old"]
        published = {}
        for name, (sink, _) in sides.items():
            published[name] = {}
            for n5, md5 in _published_at(sink, self.CKPTS[0]):
                with open(os.path.join(sink, n5), "rb") as f:
                    published[name][n5] = (md5, f.read())
        assert published["old"] == published["fresh"] and published["old"]

        sink, snaps = sides["old"]
        urls.clear()
        m = runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[1], snapshot_root=snaps, cfg=CFG)
        assert m.quad_count == 0 and urls == []
        shards = load_manifest(os.path.join(snaps, "at-" + self.CKPTS[1])).files
        assert all(e.name == bucket_rel(bucket_id(e.name)) for e in shards)

    def test_a_sync_makes_no_dir_but_its_snapshot_dir(self, tmp_path, monkeypatch, small_pages):
        """Shards are flat files: a sync creates one dir under the snapshot
        root, ``at-<ckpt>``, and pruning a snapshot removes one dir."""
        import pyarrow.parquet as pq

        pages = small_pages
        sink, snaps, _ = self._runs(tmp_path, [pages])
        real_mkdir, real_rmdir = os.mkdir, os.rmdir
        made, removed = [], []

        def mkdir(p, *a, **k):
            real_mkdir(p, *a, **k)
            made.append(str(p))

        def rmdir(p, *a, **k):
            real_rmdir(p, *a, **k)
            removed.append(str(p))

        path = str(tmp_path / "pages.parquet")
        for k, c in enumerate(self.CKPTS):
            pq.write_table(_edit_text(pages, pages["url"].to_pylist()[k::30]), path)
            made.clear(), removed.clear()
            monkeypatch.setattr(os, "mkdir", mkdir)
            monkeypatch.setattr(os, "rmdir", rmdir)
            runs.run_sync_pages(path, sink, checkpoint=c, snapshot_root=snaps, cfg=CFG)
            monkeypatch.undo()
            assert [p for p in made if p.startswith(snaps)] == [os.path.join(snaps, "at-" + c)]
            pruned = [os.path.join(snaps, "at-" + ([TS14_ZERO] + list(self.CKPTS))[k - 1])] if k else []
            assert [p for p in removed if p.startswith(snaps)] == pruned
        for d in os.listdir(snaps):
            if d.startswith("at-"):
                assert all(e.is_file() for e in os.scandir(os.path.join(snaps, d)))


def _crawl_rounds():
    """A small crawl and its next two crawls: round 1 edits one page's
    text and removes every page of one bucket (so that bucket empties and
    only the ``also`` path reaches it), round 2 re-crawls round 1
    unchanged."""
    import pyarrow.compute as pc

    from tests.conftest import to_arrow
    from virtuoso_quad_log_ray.sources.pages import read_pages
    from virtuoso_quad_log_ray.stages.shuffle import _bucket_of, default_n_buckets

    pages = to_arrow(read_pages(SF_SMALL, include_html=True)).sort_by("url")
    bucket = _bucket_of(pages["url"], default_n_buckets())
    gone = bucket[0]
    kept = pages.filter(pc.not_equal(bucket, gone))
    edited = kept["url"][0]
    html = pc.if_else(
        pc.equal(kept["url"], edited),
        pc.binary_join_element_wise(
            pc.cast(kept["html"], pa.string()), " <article>Berlin edited</article>", ""
        ),
        pc.cast(kept["html"], pa.string()),
    )
    html = html.cast(kept["html"].type)
    kept = kept.set_column(kept.schema.get_field_index("html"), "html", html)
    return pages, kept, kept


def _sink_state(sink, snaps):
    """Everything a run commits, minus its timings: the patch manifest's
    files, the current snapshot's name and manifest, cursor and epoch."""
    man = load_manifest(sink)
    snap = runs.current_snapshot(snaps)
    smap = load_manifest(os.path.join(snaps, snap))
    return {
        "files": [(e.name, e.amount, e.md5, e.length) for e in man.files],
        "totals": (man.checkpoint, man.run_index, man.quad_count, man.total_quads),
        "snapshot": snap,
        "shards": [(e.name, e.amount) for e in smap.files],
        "snap_meta": (smap.quad_count, smap.n_buckets, smap.hash_fp, smap.epoch),
        "cursor": ckpt.read_cursor(sink),
        "epoch": ckpt.read_epoch(sink),
    }


@pytest.mark.usefixtures("ray_session")
class TestExecutors:
    """``shuffle.by_bucket`` runs the bucket pass in-process on a
    ``pa.Table`` and as one Ray Data range sort on a Dataset; both run the
    same per-bucket loop over the same ``sync_bucket``, so they must
    commit the same bytes."""

    CKPTS = ("20250101000000", "20250101000001")

    def _runs(self, tmp_path, name, wrap):
        from virtuoso_quad_log_ray.pipelines.kg import pages_to_quads

        sink, snaps = str(tmp_path / name / "sink"), str(tmp_path / name / "snaps")
        crawls = [pages_to_quads(p, CFG) for p in _crawl_rounds()]
        runs.run_dump_quads(wrap(crawls[0]), sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        states, counts = [_sink_state(sink, snaps)], []
        for quads, checkpoint in zip(crawls[1:], self.CKPTS):
            m = runs.run_sync_quads(
                wrap(quads), sink, checkpoint=checkpoint, snapshot_root=snaps, cfg=CFG
            )
            states.append(_sink_state(sink, snaps))
            counts.append(m.quad_count)
        return states, counts

    def test_table_and_dataset_inputs_commit_identical_runs(self, tmp_path, monkeypatch):
        import ray.data

        dataset_states, dataset_counts = self._runs(tmp_path, "ray", ray.data.from_arrow)

        def forbidden(*a, **k):
            raise AssertionError("the in-process executor ran a Ray Data shuffle")

        monkeypatch.setattr(ray.data.Dataset, "groupby", forbidden)
        monkeypatch.setattr(ray.data.Dataset, "sort", forbidden)
        table_states, table_counts = self._runs(tmp_path, "table", lambda t: t)
        assert table_counts == dataset_counts
        assert table_counts[0] > 0 and table_counts[1] == 0  # unchanged re-crawl: 0 records
        assert table_states == dataset_states
        from virtuoso_quad_log_ray.rdfpatch import graph_b64

        synced = table_states[1]["files"][len(table_states[0]["files"]) :]
        ops = set()
        for name, *_ in synced:
            with open(os.path.join(tmp_path, "table", "sink", name)) as fh:
                ops.update(r["op"] for r in parse_patch_text(fh.read())[0])
        assert ops == {"+", "-"}  # the edit and the emptied bucket
        pages, kept, _ = _crawl_rounds()
        removed = set(pages["url"].to_pylist()) - set(kept["url"].to_pylist())
        dirs = {n.rpartition("/")[0] for n, *_ in synced}  # a graph's base64 may hold "/"
        assert removed and {graph_b64(u) for u in removed} <= dirs

    def test_crossover_decision(self, tmp_path, monkeypatch):
        import pyarrow.parquet as pq
        import ray.data

        from tests.conftest import to_arrow
        from virtuoso_quad_log_ray.sources.pages import read_pages

        def sized(name, n):
            path = str(tmp_path / name)
            with open(path, "wb") as f:
                f.write(b"\0" * n)
            return path

        limit = runs.IN_PROCESS_BYTES
        assert runs.runs_in_process(sized("below", limit - 1))
        assert not runs.runs_in_process(sized("at", limit))
        assert not runs.runs_in_process(sized("above", limit + 1))
        parts = tmp_path / "dir"
        parts.mkdir()
        for k in range(2):  # a directory counts the bytes of all its files
            os.replace(sized(f"p{k}", limit // 2), parts / f"p{k}")
        assert not runs.runs_in_process(str(parts))
        os.remove(parts / "p1")
        assert runs.runs_in_process(str(parts))
        assert not runs.runs_in_process("s3://bucket/pages")

        # a small pages table runs its dump with no Ray Data execution
        path = str(tmp_path / "pages.parquet")
        pq.write_table(to_arrow(read_pages(SF_SMALL, include_html=True)), path)
        assert runs.runs_in_process(path)

        def forbidden(*a, **k):
            raise AssertionError("a small run started Ray Data")

        monkeypatch.setattr(ray.data, "read_parquet", forbidden)
        monkeypatch.setattr(ray.data.Dataset, "groupby", forbidden)
        monkeypatch.setattr(ray.data.Dataset, "sort", forbidden)
        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        m = runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert m.quad_count > 0

    def test_crash_inside_the_bucket_loop_leaves_the_prior_state(self, tmp_path, monkeypatch):
        """A sync that raises at bucket k of the in-process loop makes
        nothing visible; its retry publishes the bytes a sync that never
        crashed publishes."""
        from virtuoso_quad_log_ray.pipelines import publish
        from virtuoso_quad_log_ray.pipelines.kg import pages_to_quads

        crawls = [pages_to_quads(p, CFG) for p in _crawl_rounds()[:2]]
        sides = {}
        for name in ("clean", "crashed"):
            sink, snaps = str(tmp_path / name / "sink"), str(tmp_path / name / "snaps")
            runs.run_dump_quads(crawls[0], sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
            sides[name] = sink, snaps
        sink, snaps = sides["crashed"]
        before = _sink_state(sink, snaps)
        calls = {"n": 0}
        real = publish.write_patch_files

        def crashing(*a, **k):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated crash at bucket 3")
            return real(*a, **k)

        monkeypatch.setattr(publish, "write_patch_files", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_sync_quads(
                crawls[1], sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG
            )
        monkeypatch.undo()
        assert _sink_state(sink, snaps) == before  # cursor, epoch, SNAPSHOT and manifest
        assert runs.current_snapshot(snaps) == "at-" + TS14_ZERO

        published = {}
        for name, (sink, snaps) in sides.items():
            runs.run_sync_quads(
                crawls[1], sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG
            )
            files = {}
            for e in load_manifest(sink).files:
                if self.CKPTS[0] in e.name:
                    with open(os.path.join(sink, e.name), "rb") as f:
                        files[e.name] = (e.md5, f.read())
            published[name] = files
        assert published["crashed"] == published["clean"] and published["clean"]
        assert _sink_state(*sides["crashed"]) == _sink_state(*sides["clean"])


    def test_pages_runs_publish_identical_bytes_on_both_executors(self, tmp_path, monkeypatch):
        """The page-delta pass on a Ray Data read (digest partials per
        block, folded in the calling process) commits what the in-process
        pass commits, source digests included."""
        import pyarrow.parquet as pq

        def lineage(name):
            path = str(tmp_path / name / "pages.parquet")
            sink, snaps = str(tmp_path / name / "sink"), str(tmp_path / name / "snaps")
            os.makedirs(os.path.dirname(path))
            states = []
            for k, pages in enumerate(_crawl_rounds()):
                pq.write_table(pages, path)
                if k == 0:
                    runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
                else:
                    runs.run_sync_pages(
                        path, sink, checkpoint=self.CKPTS[k - 1], snapshot_root=snaps, cfg=CFG
                    )
                snap = os.path.join(snaps, runs.current_snapshot(snaps))
                digests = [(e.name, e.md5) for e in load_manifest(snap).files]
                states.append((_sink_state(sink, snaps), digests))
            return states

        table = lineage("table")
        monkeypatch.setattr(runs, "IN_PROCESS_BYTES", 0)
        dataset = lineage("ray")
        assert table == dataset
        assert table[0][1] and all(len(d) == 32 for _, d in table[0][1])
        assert table[1][0]["totals"][2] > 0 and table[2][0]["totals"][2] == 0

    @pytest.mark.parametrize("retry", ["same", "reverted"])
    def test_crash_after_links_and_shard_writes_leaves_the_prior_state(
        self, tmp_path, monkeypatch, retry, small_pages
    ):
        """A page-delta sync that crashes after it linked the untouched
        shards and wrote some touched ones into ``at-<ckpt>`` makes nothing
        visible; its retry meets those files and publishes the bytes of a
        sync that never crashed. ``reverted``: the crawl went back to the
        prior one before the retry, so the retry links every shard,
        over the ones the crashed attempt wrote too."""
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.pipelines import publish

        pages = small_pages
        edited = _edit_text(pages, pages["url"].to_pylist()[::40])
        sides = {}
        for name in ("clean", "crashed"):
            path = str(tmp_path / name / "pages.parquet")
            sink, snaps = str(tmp_path / name / "sink"), str(tmp_path / name / "snaps")
            os.makedirs(os.path.dirname(path))
            pq.write_table(pages, path)
            runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
            pq.write_table(edited, path)
            sides[name] = path, sink, snaps
        path, sink, snaps = sides["crashed"]
        before = _sink_state(sink, snaps)
        calls = {"n": 0}
        real = publish.write_patch_files

        def crashing(*a, **k):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated crash at the third touched bucket")
            return real(*a, **k)

        monkeypatch.setattr(publish, "write_patch_files", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG)
        monkeypatch.undo()
        assert _sink_state(sink, snaps) == before  # cursor, epoch, SNAPSHOT and manifest
        assert runs.current_snapshot(snaps) == "at-" + TS14_ZERO
        prior, left = (os.path.join(snaps, f"at-{c}") for c in (TS14_ZERO, self.CKPTS[0]))
        shards = [e.name for e in load_manifest(prior).files]
        linked = [n for n in shards if os.path.exists(os.path.join(left, n))
                  and os.path.samefile(os.path.join(prior, n), os.path.join(left, n))]
        written = [n for n in shards if os.path.exists(os.path.join(left, n)) and n not in linked]
        assert linked and len(written) >= 2 and load_manifest(left) is None

        published = {}
        for name, (path, sink, snaps) in sides.items():
            if retry == "reverted":
                pq.write_table(pages, path)
            runs.run_sync_pages(path, sink, checkpoint=self.CKPTS[0], snapshot_root=snaps, cfg=CFG)
            files = {}
            for e in load_manifest(sink).files:
                if self.CKPTS[0] in e.name:
                    with open(os.path.join(sink, e.name), "rb") as f:
                        files[e.name] = (e.md5, f.read())
            snap = os.path.join(snaps, runs.current_snapshot(snaps))
            published[name] = files, [(e.name, e.md5) for e in load_manifest(snap).files]
        assert published["crashed"] == published["clean"]
        assert bool(published["clean"][0]) == (retry == "same")
        assert _sink_state(*sides["crashed"][1:]) == _sink_state(*sides["clean"][1:])
        if retry == "reverted":
            assert set(_carried(snaps, TS14_ZERO, self.CKPTS[0]).values()) == {True}
        # the prior snapshot's shards were never written through a link
        for n in shards:
            assert pq.read_table(os.path.join(prior, n)).num_rows > 0


ONE_CPU_SCRIPT = """
import os, sys
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray, ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
from tests.conftest import SF_SMALL, to_arrow
from virtuoso_quad_log_ray.pipelines import runs
from virtuoso_quad_log_ray.sources.pages import read_pages

work = sys.argv[1]
pages = to_arrow(read_pages(SF_SMALL, include_html=True))
path = os.path.join(work, "pages.parquet")
pq.write_table(pages, path)
sink, snaps = os.path.join(work, "sink"), os.path.join(work, "snaps")
runs.run_dump_pages(path, sink, epoch="E1", snapshot_root=snaps)
pq.write_table(pages.filter(pc.not_equal(pages["url"], pages["url"][0])), path)
m1 = runs.run_sync_pages(path, sink, checkpoint="20250101000000", snapshot_root=snaps)
m2 = runs.run_sync_pages(path, sink, checkpoint="20250101000001", snapshot_root=snaps)
# the same dump and first sync on Dataset inputs: the Ray executor
from virtuoso_quad_log_ray.pipelines.kg import quads_from_pages
sink, snaps = os.path.join(work, "ray-sink"), os.path.join(work, "ray-snaps")
runs.run_dump_quads(quads_from_pages(ray.data.from_arrow(pages)), sink, epoch="E1",
                    snapshot_root=snaps)
kept = pages.filter(pc.not_equal(pages["url"], pages["url"][0]))
m3 = runs.run_sync_quads(quads_from_pages(ray.data.from_arrow(kept)), sink,
                         checkpoint="20250101000000", snapshot_root=snaps)
print("RESULT", m1.quad_count, m2.quad_count, m3.quad_count, flush=True)
ray.shutdown()
"""


def _kill_sid(sid: int) -> None:
    import signal

    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getsid(int(pid)) == sid:
                os.kill(int(pid), signal.SIGKILL)
        except OSError:
            continue


def _run_at_one_cpu(script: str, work, what: str, timeout: float = 240) -> tuple[str, str]:
    """Run ``script`` (which starts its own 1-CPU Ray cluster) in a fresh
    process with ``work`` as its argument, under a timeout that kills every
    process the child started. Returns ``(stdout, report)``: ``report`` is
    stdout plus the tail of the child's stderr, for failure messages."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    child = subprocess.Popen(
        [sys.executable, "-c", script, str(work)],
        cwd=repo,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def report(out: str, err: str) -> str:
        return f"stdout:\n{out}\nstderr (tail):\n{err[-4000:]}"

    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_sid(child.pid)
        out, err = child.communicate()
        pytest.fail(f"{what} hung at num_cpus=1\n{report(out, err)}")
    finally:
        _kill_sid(child.pid)  # Ray processes the child left behind
    assert child.returncode == 0, report(out, err)
    return out, report(out, err)


def test_snapshot_runs_finish_at_one_cpu(tmp_path):
    """A snapshot-backed dump + two syncs must finish on a 1-CPU Ray
    cluster. A shuffle join there needs two 0.5-CPU aggregator actors that
    hold the only CPU, so the join-based sync hung forever; the bucket
    pass starts no aggregators. The small pages runs take the in-process
    executor, so the script repeats the dump and first sync on Dataset
    inputs to drive the Ray executor too; both publish the same delta."""
    out, report = _run_at_one_cpu(ONE_CPU_SCRIPT, tmp_path, "snapshot-backed runs")
    result = [line.split() for line in out.splitlines() if line.startswith("RESULT")]
    assert result and int(result[0][1]) > 0 and int(result[0][2]) == 0, report
    assert int(result[0][3]) == int(result[0][1]), report


ONE_CPU_RECOMPUTE_SCRIPT = """
import os, sys
import ray, ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
from tests.conftest import SF_SMALL
from virtuoso_quad_log_ray.pipelines import changelog as cl
from virtuoso_quad_log_ray.pipelines import relational as rel
from virtuoso_quad_log_ray.pipelines import runs
from virtuoso_quad_log_ray.stages import canonicalize as cz
from virtuoso_quad_log_ray.stages import dedup as dd

print("changelog", cl.changelog(SF_SMALL).count(), flush=True)
print("replay_state", cl.replay_state(SF_SMALL).count(), flush=True)
sink = os.path.join(sys.argv[1], "sink")
runs.run_dump(SF_SMALL, sink, epoch="E1")
print("run_sync", runs.run_sync(SF_SMALL, sink, checkpoint="20240101010101").quad_count, flush=True)
print("customers_no_urgent_orders", rel.customers_no_urgent_orders(SF_SMALL).count(), flush=True)
pairs = dd.ngram_jaccard_pairs(SF_SMALL)
print("ngram_jaccard_pairs", pairs.count(), flush=True)
# driver_threshold=0 forces the distributed fixpoint: every round joins
components = cz.connected_components(pairs, driver_threshold=0)
print("connected_components", components.count(), flush=True)
ray.shutdown()
"""


def test_recompute_paths_finish_at_one_cpu(tmp_path, oracle):
    """The recompute changelog (``changelog``, ``replay_state``), a
    ``run_dump`` + ``run_sync`` (snapshot-backed like every run, on the
    Dataset executor: ``quads_version`` yields a Dataset), a relational
    ``left anti`` join, the n-gram self-join and the forced
    connected-components fixpoint must finish on a 1-CPU Ray cluster with
    oracle-equal row counts: every one of them, joins included, runs on
    the bucketed shuffle, and no join starts aggregator actors that could
    hold the only CPU."""
    from virtuoso_quad_log_ray.config import DEFAULT_CONFIG as cfg
    from virtuoso_quad_log_ray.pipelines import changelog as cl
    from virtuoso_quad_log_ray.pipelines import relational as rel
    from virtuoso_quad_log_ray.stages import dedup as dd

    def n(sql: str) -> int:
        return oracle.sql(f"SELECT count(*) FROM ({sql})").fetchone()[0]

    n_log = n(cl.changelog_sql())
    jp = dd.ngram_jaccard_sql(cfg.jaccard_threshold, cfg.shingle_size)
    want = {
        "changelog": n_log,
        "replay_state": n(cl.replay_state_sql()),
        "run_sync": n_log,
        "customers_no_urgent_orders": n(rel.CUSTOMERS_NO_URGENT_SQL),
        "ngram_jaccard_pairs": n(jp),
        "connected_components": n(
            f"SELECT url_a FROM ({jp}) UNION SELECT url_b FROM ({jp})"
        ),
    }
    out, report = _run_at_one_cpu(ONE_CPU_RECOMPUTE_SCRIPT, tmp_path, "recompute paths")
    got = {}
    for line in out.splitlines():
        step, _, value = line.partition(" ")
        if step in want:
            got[step] = int(value)
    assert got == want, report


@pytest.mark.usefixtures("ray_session")
class TestPublishedSinks:
    CKPT = "20250101000000"

    def test_sync_after_move_resources_commits_the_same_patches(self, tmp_path, small_pages):
        """A ``move_resources`` Bundler removes the sealed files of the dump
        from the sink; the next sync validates, runs and commits the patch
        files a sync of an unmoved sink commits."""
        import pyarrow.parquet as pq

        v1, v2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
        pq.write_table(small_pages, v1)
        pq.write_table(_edit_text(small_pages, small_pages["url"].to_pylist()[:3]), v2)
        states = {}
        for move in (False, True):
            sink, snaps, pub = (str(tmp_path / f"{n}-{move}") for n in ("sink", "snaps", "pub"))
            runs.run_dump_pages(v1, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
            Bundler(sink, pub, max_files=10, move_resources=move).publish()
            dumped = load_manifest(sink).files
            gone = [e for e in dumped if not os.path.exists(os.path.join(sink, e.name))]
            assert len(gone) == (len(dumped) // 10 * 10 if move else 0)  # the sealed chunks
            runs.run_sync_pages(v2, sink, checkpoint=self.CKPT, snapshot_root=snaps, cfg=CFG)
            validate_sink(sink)
            Bundler(sink, pub, max_files=10, move_resources=move).publish()
            validate_sink(sink, pub)
            states[move] = _sink_state(sink, snaps)
        assert states[True] == states[False]
        assert len(dumped) >= 10 and _published_at(str(tmp_path / "sink-True"), self.CKPT)

    @pytest.mark.parametrize("executor", ["in_process", "ray"])
    def test_null_lang_drops_only_the_lang_quad(self, tmp_path, monkeypatch, small_pages, executor):
        """A page with a null ``lang`` dumps without its lang quad, on
        both executors and in the DuckDB quads CTE; restoring the lang
        syncs exactly that quad."""
        import duckdb
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.pipelines.kg import QUADS_SQL_CTE, page_texts, pages_to_quads

        if executor == "ray":
            monkeypatch.setattr(runs, "IN_PROCESS_BYTES", 0)
        url = small_pages["url"][0].as_py()
        nulled = _set(small_pages, [url], "lang", lambda p: pa.nulls(len(p), pa.string()))
        quads = pages_to_quads(nulled, CFG)
        pages = page_texts(nulled, CFG)  # noqa: F841 (the CTE's pages table)
        sql = duckdb.sql(f"WITH {QUADS_SQL_CTE} SELECT s, p, o, g FROM quads").arrow()
        assert sorted(sql.to_pylist(), key=str) == sorted(quads.to_pylist(), key=str)
        mine = [q["p"] for q in quads.to_pylist() if q["g"] == url]
        assert "<http://example.org/vocab#lang>" not in mine and mine

        path = str(tmp_path / "pages.parquet")
        sink, snaps = str(tmp_path / "sink"), str(tmp_path / "snaps")
        pq.write_table(nulled, path)
        dump = runs.run_dump_pages(path, sink, epoch="E1", cfg=CFG, snapshot_root=snaps)
        assert dump.quad_count == len(quads)
        pq.write_table(small_pages, path)
        sync = runs.run_sync_pages(path, sink, checkpoint=self.CKPT, snapshot_root=snaps, cfg=CFG)
        (name, _), = _published_at(sink, self.CKPT)
        with open(os.path.join(sink, name)) as f:
            records = parse_patch_text(f.read())[0]
        assert sync.quad_count == 1 and [(r["op"], r["p"]) for r in records] == [
            ("+", "<http://example.org/vocab#lang>")
        ]
