"""Publication layer: manifest-commit atomicity, epoch handshake, rdfpatch
file sink, and the 4 incremental-bundling scenarios mirrored from the
reference's only real test suite
(resourcesync-generator/oai-rs/test/test_zipsynchronizer.py:25-94)."""

import os

import pyarrow as pa
import pytest
import ray.data

from virtuoso_quad_log_ray.config import EngineConfig
from virtuoso_quad_log_ray.pipelines.publish import Bundler, write_rdfpatch
from virtuoso_quad_log_ray.rdfpatch import graph_b64, parse_patch_text
from virtuoso_quad_log_ray.state import checkpoint as ckpt
from virtuoso_quad_log_ray.state.manifest import (
    FileEntry,
    RunManifest,
    commit_manifest,
    load_manifest,
)
from virtuoso_quad_log_ray.state.validate import ValidationError, validate_sink


def _mk_manifest(root, n_files, epoch="20240101000000"):
    """Commit a manifest of n synthetic committed files (bodies on disk)."""
    files = []
    os.makedirs(root, exist_ok=True)
    for i in range(n_files):
        rel = f"g/rdf_out_00000000000000-{i:014d}"
        os.makedirs(os.path.join(root, "g"), exist_ok=True)
        body = f"# at checkpoint  00000000000000\n+ <s{i}> <p> \"o\" <http://g> .\n"
        with open(os.path.join(root, rel), "w") as f:
            f.write(body)
        files.append(FileEntry(rel, "http://g", 1, "x", len(body)))
    m = RunManifest(epoch=epoch, checkpoint="00000000000000", kind="dump", files=files,
                    quad_count=n_files, file_count=n_files)
    commit_manifest(root, m)
    return m


class TestManifest:
    def test_commit_and_load_roundtrip(self, tmp_path):
        root = str(tmp_path / "sink")
        m = _mk_manifest(root, 3)
        loaded = load_manifest(root)
        assert loaded is not None
        assert [f.name for f in loaded.files] == [f.name for f in m.files]
        assert loaded.quad_count == 3

    def test_uncommitted_invisible(self, tmp_path):
        root = str(tmp_path / "sink")
        os.makedirs(root)
        # data file exists but no manifest pointer -> reader sees nothing
        with open(os.path.join(root, "rdf_out_x"), "w") as f:
            f.write("+ <s> <p> \"o\" <g> .\n")
        assert load_manifest(root) is None


    def test_to_json_matches_asdict_and_roundtrips(self):
        """to_json builds shallow field dicts; its bytes must equal the
        asdict deep-copy rendering it replaced, and load back equal."""
        import json
        from dataclasses import asdict

        files = [
            FileEntry(f"g{i % 3}/rdf_out_20240101000000-{i:014d}", f"http://g{i % 3}",
                      i + 1, f"{i:032x}", 100 + i)
            for i in range(7)
        ]
        m = RunManifest(epoch="E1", checkpoint="20240101000000", kind="sync",
                        quad_count=28, file_count=7, run_index=3, last_source="trx#3",
                        total_quads=40, total_files=9, files=files, elapsed_s=0.25,
                        quads_per_sec=112.0, hash_fp="fp", n_buckets=8)
        assert m.to_json() == json.dumps(asdict(m), indent=1, sort_keys=True)
        assert RunManifest.from_json(m.to_json()) == m

    def test_to_json_escapes_entries_as_json_dumps_does(self):
        """The per-entry template escapes strings as json.dumps does, and
        a header value that reads like the file list does not move the
        splice point."""
        import json
        from dataclasses import asdict

        odd = ['say "hi"', "back\\slash\\", "ctl\x00\x1f\t\n\r\x7f", "Grüße ☃ 𝄞", ""]
        files = [
            FileEntry(f"{o}/rdf_out_{i:014d}", o, i * 7, o[::-1], 10**12 + i)
            for i, o in enumerate(odd)
        ]
        for m in (
            RunManifest(epoch="E1", checkpoint="C", kind="sync", files=files,
                        last_source='x\n "files": [],\n "files": []',
                        raw_digests={"bucket=00001.parquet": "a" * 32, 'k"\\': "é"}),
            RunManifest(epoch="E1", checkpoint="C", kind="dump", last_source='"files": []'),
        ):
            assert m.to_json() == json.dumps(asdict(m), indent=1, sort_keys=True)
            assert RunManifest.from_json(m.to_json()) == m


class TestHandshake:
    def test_same_epoch_noop(self, tmp_path):
        root = str(tmp_path / "sink")
        ckpt.write_epoch(root, "E1")
        with open(os.path.join(root, "rdf_out_a"), "w") as f:
            f.write("x")
        assert ckpt.verify_handshake(root, "E1") is True
        assert os.path.exists(os.path.join(root, "rdf_out_a"))

    def test_epoch_mismatch_wipes_only_ours(self, tmp_path):
        """T2 wipe-and-rebuild with the F9 ownership guard
        (split-graphs.sh:153-184; syncdirector.py:251-261)."""
        root = str(tmp_path / "sink")
        ckpt.write_epoch(root, "E1")
        ours = os.path.join(root, "rdf_out_a")
        ours_dir = os.path.join(root, graph_b64("http://example.org/g"))
        foreign = os.path.join(root, "keepme.txt")
        os.makedirs(ours_dir)
        for p in (ours, foreign):
            with open(p, "w") as f:
                f.write("x")
        assert ckpt.verify_handshake(root, "E2") is False
        assert not os.path.exists(ours)
        assert not os.path.exists(ours_dir)
        assert os.path.exists(foreign)  # never delete foreign data
        assert ckpt.read_epoch(root) == "E2"

    def test_epoch_mismatch_wipes_run_zips(self, tmp_path):
        """A run zip, its sidecar and a staged ``.part`` of one are ours: an
        epoch wipe leaves none of them for the next epoch's bundles."""
        root = str(tmp_path / "pub")
        ckpt.write_epoch(root, "E1")
        run = "part_run_00004_20240101000000.zip"
        for n in (run, run + ".meta.json", run + ".part", "keepme.txt"):
            with open(os.path.join(root, n), "w") as f:
                f.write("x")
        assert ckpt.is_our_file(run + ".part")
        assert ckpt.verify_handshake(root, "E2") is False
        assert sorted(os.listdir(root)) == ["epoch.ts14", "keepme.txt"]

    def test_cursor_roundtrip(self, tmp_path):
        root = str(tmp_path / "s")
        assert ckpt.read_cursor(root) is None
        ckpt.write_cursor(root, "20240101010101")
        assert ckpt.read_cursor(root) == "20240101010101"


@pytest.mark.usefixtures("ray_session")
class TestRdfpatchSink:
    def test_write_chunked_files_and_manifest(self, tmp_path):
        root = str(tmp_path / "out")
        rows = {
            "op": ["+"] * 7,
            "s": [f"<http://s/{i}>" for i in range(7)],
            "p": ["<http://p>"] * 7,
            "o": ['"v"'] * 7,
            "g": ["http://hot"] * 5 + ["http://cold"] * 2,
        }
        ds = ray.data.from_arrow(pa.table(rows))
        cfg = EngineConfig(max_quads_per_file=2)
        m = write_rdfpatch(ds, root, epoch="E1", checkpoint="20240101000000", cfg=cfg)
        # hot graph: 5 quads / maxq 2 -> 3 files; cold: 1 file
        assert m.file_count == 4
        assert m.quad_count == 7
        hot_dir = os.path.join(root, graph_b64("http://hot"))
        assert len(os.listdir(hot_dir)) == 3
        # parse a file back: header + body round-trip
        first = sorted(os.listdir(hot_dir))[0]
        with open(os.path.join(hot_dir, first)) as f:
            quads, meta = parse_patch_text(f.read())
        assert meta["graph"] == "http://hot"
        assert meta["at checkpoint"] == "20240101000000"
        assert int(meta["amount"]) == len(quads) == 2
        # manifest is the committed view
        loaded = load_manifest(root)
        assert loaded.file_count == 4
        assert {e.graph for e in loaded.files} == {"http://hot", "http://cold"}


class TestBundlerResolution:
    """§2.9 extension surface: BUILDER_CLASS-style dynamic loading."""

    def test_default(self):
        from virtuoso_quad_log_ray.pipelines.publish import resolve_bundler

        assert resolve_bundler() is Bundler

    def test_by_spec(self):
        from virtuoso_quad_log_ray.pipelines.publish import resolve_bundler

        cls = resolve_bundler("virtuoso_quad_log_ray.pipelines.publish:Bundler")
        assert cls is Bundler

    def test_rejects_non_bundler(self):
        from virtuoso_quad_log_ray.pipelines.publish import resolve_bundler

        with pytest.raises((TypeError, AttributeError)):
            resolve_bundler("os.path:join")


class TestBundlerScenarios:
    """The 4 reference scenarios (test_zipsynchronizer.py:25-94)."""

    def test_publish_zero_resources(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        os.makedirs(src)
        st = Bundler(src, pub, max_files=2).publish()
        assert os.path.isdir(pub)  # sink created
        assert (st.def_count, st.run_count) == (0, 0)  # nothing published

    def test_not_publish_uncommitted_file(self, tmp_path):
        """Reference: the single (possibly in-flight) file is not published;
        here: a file outside the committed manifest is invisible."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        os.makedirs(src)
        with open(os.path.join(src, "rdf_out_00000000000000-00000000000000"), "w") as f:
            f.write("+ <s> <p> \"o\" <g> .\n")  # no manifest commit
        st = Bundler(src, pub, max_files=2).publish()
        assert (st.def_count, st.run_count) == (0, 0)

    def test_publish_dump_files(self, tmp_path):
        """3 committed files of one run, max_files large -> exactly one
        run zip holding all 3."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        _mk_manifest(src, 3)
        st = Bundler(src, pub, max_files=5).publish()
        assert (st.def_count, st.run_count) == (0, 1)

    def test_publish_incremental_zips(self, tmp_path):
        """max_files=2; grow source 4 -> 5 -> 6 files: def/end transition
        2/0 -> 2/1 -> 3/0 (a sealed chunk replaces its run zips)."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        _mk_manifest(src, 4)
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 0)
        _mk_manifest(src, 5)
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 1)
        _mk_manifest(src, 6)
        st = b.publish()
        assert (st.def_count, st.run_count) == (3, 0)

    def test_publish_metadata_documents(self, tmp_path):
        """S8: resource-dump.xml is a Resource Dump Index whose per-chunk
        pages list every zip with md5/length; capability list + source
        description exist (zipsynchronizer.py:175-232)."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        _mk_manifest(src, 5)
        b.publish()
        written = b.publish_metadata()
        from virtuoso_quad_log_ray.pipelines.publish import source_part

        parts = {
            os.path.join(".well-known", f"resourcesync-{source_part(d):02d}.xml") for d in ("", "g")
        }
        dump_pages = {f"resource-dump-{n:05d}.xml" for n in range(3)}  # chunks 0, 1 and 2
        assert set(written) == {
            "resource-dump.xml",
            "capability-list.xml",
            os.path.join("g", "capability-list.xml"),  # one per graph dir (S8)
            os.path.join(".well-known", "resourcesync"),
        } | parts | dump_pages  # one dump run, no sync run: no ChangeList
        import xml.etree.ElementTree as ET

        ns = {
            "sm": "http://www.sitemaps.org/schemas/sitemap/0.9",
            "rs": "http://www.openarchives.org/rs/terms/",
        }
        index = ET.parse(os.path.join(pub, "resource-dump.xml")).getroot()
        assert index.tag == f"{{{ns['sm']}}}sitemapindex"
        assert index.find("rs:md", ns).attrib == {"capability": "resourcedump"}  # no at
        page_locs = [u.find("sm:loc", ns).text for u in index.findall("sm:sitemap", ns)]
        assert [loc.split("/pub/", 1)[1] for loc in page_locs] == sorted(dump_pages)
        locs = []
        for rel in sorted(dump_pages):
            root = ET.parse(os.path.join(pub, rel)).getroot()
            assert root.find("rs:ln", ns).attrib == {
                "rel": "index", "href": "http://example.org/pub/resource-dump.xml"
            }
            for u in root.findall("sm:url", ns):
                locs.append(u.find("sm:loc", ns).text.split("/pub/", 1)[1])
                md = u.find("rs:md", ns)
                assert md.get("hash", "").startswith("md5:")
                assert int(md.get("length")) > 0
                # per-resource lastmod from the rdf_out_<ts14> names (S8)
                assert u.find("sm:lastmod", ns).text == "0000-00-00T00:00:00Z"
            # the chunk's max lastmod rides the page's rs:md (synchronizer.py:168-170)
            assert root.find("rs:md", ns).get("at") == "0000-00-00T00:00:00Z"
        zips = sorted(n for n in os.listdir(pub) if n.endswith(".zip"))
        assert locs == zips and len(zips) == 3  # 2 sealed + 1 run zip, one page each
        # the source description is an index over parts that register the
        # top-level and the per-graph capability lists
        src_desc = ET.parse(os.path.join(pub, ".well-known", "resourcesync")).getroot()
        part_locs = [u.find("sm:loc", ns).text for u in src_desc.findall("sm:sitemap", ns)]
        assert sorted(loc.split("/pub/", 1)[1] for loc in part_locs) == sorted(parts)
        cap_locs = [
            u.find("sm:loc", ns).text
            for rel in parts
            for u in ET.parse(os.path.join(pub, rel)).getroot().findall("sm:url", ns)
        ]
        assert sorted(loc.split("/pub/", 1)[1] for loc in cap_locs) == [
            "capability-list.xml",
            "g/capability-list.xml",
        ]
        # the top-level capability list points at capability documents only
        top = ET.parse(os.path.join(pub, "capability-list.xml")).getroot()
        assert [u.find("sm:loc", ns).text for u in top.findall("sm:url", ns)] == [
            "http://example.org/pub/resource-dump.xml"
        ]

    def test_per_graph_capability_list_enumerates_own_files(self, tmp_path):
        """VERDICT r2 #2: each graph dir's capability list names exactly that
        dir's committed files with md5/length/lastmod from the manifest
        (reference per-dir ResourceList, synchronizer.py:152-177)."""
        import xml.etree.ElementTree as ET

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        m = _mk_manifest(src, 5)
        b.publish()
        b.publish_metadata()
        ns = {
            "sm": "http://www.sitemaps.org/schemas/sitemap/0.9",
            "rs": "http://www.openarchives.org/rs/terms/",
        }
        root = ET.parse(os.path.join(pub, "g", "capability-list.xml")).getroot()
        by_loc = {}
        for u in root.findall("sm:url", ns):
            loc = u.find("sm:loc", ns).text
            if loc.endswith("resource-dump.xml"):
                continue  # the capability pointer entry
            by_loc[loc.split("/pub/", 1)[1]] = u
        assert set(by_loc) == {e.name for e in m.files}  # exactly g's files
        for e in m.files:
            u = by_loc[e.name]
            md = u.find("rs:md", ns)
            assert md.get("hash") == f"md5:{e.md5}"
            assert int(md.get("length")) == e.length
            assert u.find("sm:lastmod", ns).text == "0000-00-00T00:00:00Z"
        # a dir with no committed files never appears
        assert not os.path.exists(os.path.join(pub, "h", "capability-list.xml"))

    def test_per_graph_capability_list_bytes(self, tmp_path):
        """The per-graph list keeps its exact bytes (one pointer to the
        resource dump, then one <url> per committed file)."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        m = _mk_dirs_manifest(src, {"h": 1})
        b = Bundler(src, pub, max_files=2)
        b.publish()
        b.publish_metadata()
        (e,) = m.files
        with open(os.path.join(pub, "h", "capability-list.xml")) as f:
            assert f.read() == (
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
                'xmlns:rs="http://www.openarchives.org/rs/terms/">\n'
                '  <rs:md capability="capabilitylist"/>\n'
                '  <url><loc>http://example.org/pub/resource-dump.xml</loc>'
                '<rs:md capability="resourcedump"/></url>\n'
                "  <url>\n"
                f"    <loc>http://example.org/pub/{e.name}</loc>\n"
                "    <lastmod>0000-00-00T00:00:00Z</lastmod>\n"
                f'    <rs:md hash="md5:{e.md5}" length="{e.length}"/>\n'
                "  </url>\n"
                "</urlset>\n"
            )

    def test_publish_metadata_transactional_on_failure(self, tmp_path, monkeypatch):
        """VERDICT r2 #6: an exception mid-publish_metadata leaves the
        PREVIOUS doc set fully intact (all docs staged to .part, promoted
        together — reference purges the XML set as a unit,
        zipsynchronizer.py:69-109)."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        _mk_manifest(src, 3)
        b.publish()
        written = b.publish_metadata()
        before = {}
        for rel in written:
            with open(os.path.join(pub, rel)) as f:
                before[rel] = f.read()

        # change the state so a successful rewrite WOULD alter every doc
        _mk_manifest(src, 5)
        b.publish()

        import builtins

        import virtuoso_quad_log_ray.pipelines.publish as pubmod

        def failing_open(path, *a, **k):
            if str(path).endswith(pubmod.STAMP + ".part"):  # the LAST doc of the set
                raise OSError("simulated disk failure")
            return builtins.open(path, *a, **k)

        monkeypatch.setattr(pubmod, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="simulated"):
            b.publish_metadata()
        monkeypatch.undo()

        # previous doc set intact, no .part litter
        for rel, body in before.items():
            with open(os.path.join(pub, rel)) as f:
                assert f.read() == body, rel
        for dirpath, _, names in os.walk(pub):
            assert not [n for n in names if n.endswith(".part")], dirpath

        # and a clean retry succeeds and updates the set
        after = b.publish_metadata()
        assert set(after) >= set(written)
        with open(os.path.join(pub, "resource-dump.xml")) as f:
            assert f.read() != before["resource-dump.xml"]

    def test_move_resources_seals_sources(self, tmp_path):
        """MOVE_RESOURCES (zipsynchronizer.py:142-148): sources sealed into
        def zips are removed; the remainder stays; re-publish is a no-op."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2, move_resources=True)
        m = _mk_manifest(src, 5)
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 1)
        on_disk = {e.name for e in m.files if os.path.exists(os.path.join(src, e.name))}
        sealed = {e.name for e in m.files[:4]}
        assert on_disk.isdisjoint(sealed)  # sealed sources removed
        assert on_disk == {m.files[4].name}  # open chunk kept (run zip source)
        st2 = b.publish()  # idempotent: sealed zips never re-read
        assert (st2.def_count, st2.run_count) == (2, 1)

    def test_unchanged_remainder_not_rewritten(self, tmp_path):
        """is_same skip (zipsynchronizer.py:149): same open chunk -> its run
        zip is not recreated."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        _mk_manifest(src, 3)
        b.publish()
        run = [n for n in os.listdir(pub) if n.startswith("part_run_") and n.endswith(".zip")][0]
        mtime = os.path.getmtime(os.path.join(pub, run))
        b.publish()
        assert os.path.getmtime(os.path.join(pub, run)) == mtime


class TestBundleByteBound:
    """VERDICT r3 missing #1: the sitemap 50 MB document bound
    (zipsynchronizer.py:26-32) — bundles seal on cumulative source bytes as
    well as file count."""

    def test_oversized_files_seal_into_size_bounded_zips(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        m = _mk_manifest(src, 6)
        entry_len = m.files[0].length
        # byte bound = 2 entries' worth: count bound (10) never trips, so
        # chunking is driven purely by bytes -> 2-file sealed zips
        b = Bundler(src, pub, max_files=10, max_bytes=2 * entry_len)
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 1)
        # each sealed zip's SOURCE payload is within the byte bound
        for zname in sorted(
            n
            for n in os.listdir(pub)
            if n.startswith("part_def_") and n.endswith(".zip")
        ):
            contents = b._zip_contents(zname)
            assert len(contents) == 2
            total = sum(e.length for e in m.files if e.name in contents)
            assert total <= 2 * entry_len

    def test_single_file_larger_than_bound_gets_own_chunk(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        m = _mk_manifest(src, 3)
        b = Bundler(src, pub, max_files=10, max_bytes=1)  # every file oversize
        st = b.publish()
        # each file chunks alone; the last one stays in the open chunk
        assert (st.def_count, st.run_count) == (2, 1)

    def test_chunking_stable_as_files_append(self, tmp_path):
        """Sealed zips are immutable: growing the manifest never re-chunks
        the committed prefix."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        m = _mk_manifest(src, 4)
        entry_len = m.files[0].length
        b = Bundler(src, pub, max_files=3, max_bytes=2 * entry_len)
        b.publish()
        sealed_before = {
            n: b._zip_contents(n)
            for n in os.listdir(pub)
            if n.startswith("part_def_") and n.endswith(".zip")
        }
        _mk_manifest(src, 7)
        b.publish()
        for n, contents in sealed_before.items():
            assert b._zip_contents(n) == contents

    def test_sitemap_item_limit_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="50000"):
            Bundler(str(tmp_path / "s"), str(tmp_path / "p"), max_files=50_001)


def _mk_dirs_manifest(root, counts, epoch="20240101000000"):
    """Commit a manifest whose graph dir ``d`` holds ``counts[d]`` files."""
    import hashlib

    files = []
    for d, n in counts.items():
        os.makedirs(os.path.join(root, d), exist_ok=True)
        for i in range(n):
            rel = f"{d}/rdf_out_00000000000000-{i:014d}"
            body = f"# at checkpoint  00000000000000\n+ <s{i}> <p> \"o\" <http://{d}> .\n"
            with open(os.path.join(root, rel), "w") as f:
                f.write(body)
            files.append(FileEntry(rel, f"http://{d}", 1, hashlib.md5(body.encode()).hexdigest(),
                                   len(body)))
    m = RunManifest(epoch=epoch, checkpoint="00000000000000", kind="dump", files=files,
                    quad_count=len(files), file_count=len(files))
    commit_manifest(root, m)
    return m


def _stat_ids(root, rels=None):
    """(inode, mtime_ns) per file under ``root`` (or of the given rels)."""
    if rels is None:
        rels = [
            os.path.relpath(os.path.join(d, n), root)
            for d, _, names in os.walk(root)
            for n in names
        ]
    stats = {rel: os.stat(os.path.join(root, rel)) for rel in rels}
    return {rel: (st.st_ino, st.st_mtime_ns) for rel, st in stats.items()}


class TestWriteIfChangedMetadata:
    """publish_metadata renders the whole doc set but writes only the docs
    whose bytes differ from the file on disk: an unchanged doc keeps its
    inode and mtime, so a destination polling by lastmod refetches only
    what changed."""

    def test_unchanged_state_replaces_no_file(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        _mk_dirs_manifest(src, {"g": 3, "h": 2})
        b.publish()
        docs = b.publish_metadata()
        before = _stat_ids(pub)
        b.publish()
        assert b.publish_metadata() == docs  # the full current doc set
        assert _stat_ids(pub) == before  # docs, zips and sidecars untouched

    def test_only_docs_of_changed_dirs_are_replaced(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=100)
        _mk_dirs_manifest(src, {"g": 2, "h": 2})
        b.publish()
        docs = b.publish_metadata()
        before = _stat_ids(pub, docs)

        _mk_dirs_manifest(src, {"g": 3, "h": 2})  # one new file in g
        b.publish()
        assert b.publish_metadata() == docs
        after = _stat_ids(pub, docs)
        g_cap = os.path.join("g", "capability-list.xml")
        h_cap = os.path.join("h", "capability-list.xml")
        well_known = [rel for rel in docs if rel.startswith(".well-known")]
        assert after[g_cap] != before[g_cap]
        # the rewritten run zip is on the open chunk's page; the index
        # names the same pages
        assert after["resource-dump-00000.xml"] != before["resource-dump-00000.xml"]
        assert after["resource-dump.xml"] == before["resource-dump.xml"]
        # the top-level list names capability documents, not resources
        assert after["capability-list.xml"] == before["capability-list.xml"]
        assert after[h_cap] == before[h_cap]
        for rel in well_known:  # same graph dirs
            assert after[rel] == before[rel], rel

        from virtuoso_quad_log_ray.pipelines.publish import source_part

        _mk_dirs_manifest(src, {"g": 3, "h": 2, "k": 1})  # a new graph dir
        b.publish()
        docs = b.publish_metadata()
        assert os.path.join("k", "capability-list.xml") in docs
        final = _stat_ids(pub, docs)
        k_part = os.path.join(".well-known", f"resourcesync-{source_part('k'):02d}.xml")
        index = os.path.join(".well-known", "resourcesync")
        # only k's part of the source description is written, and the
        # index only when that part is new
        for rel in well_known:
            if rel not in (k_part, index):
                assert final[rel] == after[rel], rel
        assert after.get(k_part) != final[k_part]
        assert (final[index] != after[index]) == (k_part not in after)
        assert final[h_cap] == before[h_cap]

    def test_written_docs_equal_a_from_scratch_render(self, tmp_path):
        """After a sequence of publishes (seals, run-zip swaps, a new dir, a
        hand-edited doc and a deleted one), every doc equals what a fresh
        publish_metadata renders from the same zips and sidecars."""
        import shutil

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=2)
        for counts in ({"g": 1}, {"g": 3}, {"g": 3, "h": 1}, {"g": 4, "h": 2}, {"g": 5, "h": 2}):
            _mk_dirs_manifest(src, counts)
            b.publish()
            b.publish_metadata()
        # a stale doc of the same size and a missing doc are repaired
        g_cap = os.path.join(pub, "g", "capability-list.xml")
        with open(g_cap, "rb") as f:
            body = f.read()
        with open(g_cap, "wb") as f:
            f.write(body.replace(b"md5:", b"md4:", 1))
        os.remove(os.path.join(pub, "h", "capability-list.xml"))
        docs = b.publish_metadata()

        fresh = str(tmp_path / "fresh")
        os.makedirs(fresh)
        for n in os.listdir(pub):
            if n.endswith(".zip") or n.endswith(".zip.meta.json"):
                shutil.copy2(os.path.join(pub, n), fresh)
        assert Bundler(src, fresh, max_files=2).publish_metadata() == docs
        for rel in docs:
            with open(os.path.join(pub, rel), "rb") as f, open(os.path.join(fresh, rel), "rb") as g:
                assert f.read() == g.read(), rel
        for dirpath, _, names in os.walk(pub):
            assert not [n for n in names if n.endswith(".part")], dirpath

    def test_graph_dir_holding_a_slash_gets_its_own_list(self, tmp_path):
        """A graph whose base64 holds "/" is published two dirs deep. Its
        capability list sits in that full dir and lists only its files;
        it is neither filed under the first path component nor mixed into
        the list of the graph whose dir shares that prefix."""
        import re

        from virtuoso_quad_log_ray.pipelines.publish import source_part

        base = "http://example.org/pub"
        mirror = graph_b64("https://example.org/src10/250?mirror=1")
        plain = graph_b64("https://example.org/src10/250")
        assert "/" in mirror and mirror.partition("/")[0] + "=" == plain
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        m = _mk_dirs_manifest(src, {mirror: 2, plain: 1})
        b = Bundler(src, pub, max_files=100)
        b.publish()
        docs = b.publish_metadata(base)

        def listed(rel):
            with open(os.path.join(pub, rel)) as f:
                return set(re.findall(r"<loc>([^<]*)</loc>", f.read()))

        dump = {f"{base}/resource-dump.xml"}
        for d in (mirror, plain):
            rel = f"{d}/capability-list.xml"
            assert rel in docs
            own = {f"{base}/{e.name}" for e in m.files if e.name.rpartition("/")[0] == d}
            assert len(own) == (2 if d == mirror else 1)
            assert listed(rel) == own | dump, d
            part = os.path.join(".well-known", f"resourcesync-{source_part(d):02d}.xml")
            assert f"{base}/{rel}" in listed(part)
        misfiled = f"{mirror.partition('/')[0]}/capability-list.xml"
        assert misfiled not in docs
        assert not os.path.exists(os.path.join(pub, misfiled))


class TestZipSidecarCrashWindow:
    """A zip becomes visible only with its complete sidecar. ``publish``
    never rewrites a zip that exists (sealed zips are skipped, an unchanged
    run zip too), so a zip left without its sidecar would make every later
    ``publish_metadata`` fail."""

    @staticmethod
    def _check_sidecars(pub):
        import hashlib
        import json

        zips = [n for n in os.listdir(pub) if n.endswith(".zip")]
        assert zips
        for n in zips:
            with open(os.path.join(pub, n), "rb") as f:
                data = f.read()
            with open(os.path.join(pub, n + ".meta.json")) as f:
                meta = json.load(f)
            assert (meta["md5"], meta["length"]) == (hashlib.md5(data).hexdigest(), len(data)), n

    def test_failure_at_each_write_step_recovers_on_retry(self, tmp_path, monkeypatch):
        import builtins
        import zipfile

        src = str(tmp_path / "src")
        _mk_manifest(src, 5)  # max_files=2: two sealed zips + one run zip
        real = {
            "open": builtins.open,
            "replace": os.replace,
            "write": zipfile.ZipFile.write,
            "writestr": zipfile.ZipFile.writestr,
        }

        def writes(file, mode="r", *a, **k):
            return any(c in mode for c in "wax+")

        step = 0
        while True:
            pub = str(tmp_path / f"pub{step}")
            b = Bundler(src, pub, max_files=2)
            seen = [0]

            def failing(fn, counts=lambda *a, **k: True):
                def wrapped(*a, **k):
                    if counts(*a, **k):
                        seen[0] += 1
                        if seen[0] == step + 1:
                            raise OSError(f"simulated crash at write step {step}")
                    return fn(*a, **k)

                return wrapped

            monkeypatch.setattr(builtins, "open", failing(real["open"], writes))
            monkeypatch.setattr(os, "replace", failing(real["replace"]))
            monkeypatch.setattr(zipfile.ZipFile, "write", failing(real["write"]))
            monkeypatch.setattr(zipfile.ZipFile, "writestr", failing(real["writestr"]))
            try:
                b.publish()
                crashed = False
            except OSError as e:
                assert "simulated" in str(e)
                crashed = True
            finally:
                monkeypatch.undo()
            st = b.publish()
            assert (st.def_count, st.run_count) == (2, 1), step
            b.publish_metadata()
            self._check_sidecars(pub)
            if not crashed:
                break
            step += 1
        assert step >= 3 * 3  # every zip's content, sidecar and rename steps


def _commit_runs(root, runs, epoch="20240101000000"):
    """Commit a manifest of ``runs``, a list of (checkpoint, dirs): each run
    writes one patch file per dir, appended in name order the way
    ``commit_patch_run`` appends a run."""
    import hashlib

    from virtuoso_quad_log_ray.rdfpatch import patch_file_name

    files = []
    for ckpt, dirs in runs:
        run = []
        for d in dirs:
            rel = f"{d}/{patch_file_name(ckpt, 0)}"
            body = f"# at checkpoint  {ckpt}\n+ <s> <p> \"{d}\" <http://{d}> .\n"
            os.makedirs(os.path.join(root, d), exist_ok=True)
            with open(os.path.join(root, rel), "w") as f:
                f.write(body)
            run.append(FileEntry(rel, f"http://{d}", 1, hashlib.md5(body.encode()).hexdigest(), len(body)))
        files += sorted(run, key=lambda e: e.name)
    last = runs[-1][0]
    m = RunManifest(epoch=epoch, checkpoint=last, kind="dump" if len(runs) == 1 else "sync",
                    files=files, run_index=len(runs) - 1)
    commit_manifest(root, m)
    return m


def _zip_members(pub):
    """{zip name: member files} of every zip in the publish dir."""
    import zipfile

    out = {}
    for n in sorted(os.listdir(pub)):
        if n.endswith(".zip"):
            with zipfile.ZipFile(os.path.join(pub, n)) as z:
                out[n] = [m for m in z.namelist() if m != "manifest.json"]
    return out


T0, TA, TB, TC, TD = "00000000000000", "20240101000000", "20240102000000", "20240103000000", "20240104000000"
# max_files=4: the dump seals chunk 0 and opens chunk 1, sync A adds to it,
# sync B fills and seals it, sync C opens chunk 2, sync D seals chunk 2 and
# spills one file into chunk 3.
RUNS = [
    (T0, ["a", "b", "c", "d", "e", "f"]),
    (TA, ["a"]),
    (TB, ["b"]),
    (TC, ["c", "g"]),
    (TD, ["a", "d", "h"]),
]


class TestRunZips:
    """The open chunk is one immutable run zip per run; a round writes only
    its own files, and a sealed chunk's part_def zip replaces its run zips."""

    def test_each_round_zips_only_its_own_files(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=4)
        _commit_runs(src, RUNS[:1])
        st = b.publish()
        assert (st.def_count, st.run_count) == (1, 1)
        dump_run = f"part_run_00001_{T0}.zip"
        assert _zip_members(pub)[dump_run] == ["e/rdf_out_00000000000000-00000000000000",
                                               "f/rdf_out_00000000000000-00000000000000"]
        kept = _stat_ids(pub, ["part_def_00000.zip", dump_run, dump_run + ".meta.json"])

        _commit_runs(src, RUNS[:2])
        st = b.publish()
        assert (st.def_count, st.run_count) == (1, 2)
        assert _zip_members(pub)[f"part_run_00001_{TA}.zip"] == [f"a/rdf_out_{TA}-00000000000000"]
        assert _stat_ids(pub, list(kept)) == kept  # earlier zips untouched

        _commit_runs(src, RUNS[:3])  # chunk 1 fills and seals
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 0)
        assert not [n for n in os.listdir(pub) if n.startswith("part_run_")]  # sidecars too
        assert _stat_ids(pub, ["part_def_00000.zip"]) == {"part_def_00000.zip": kept["part_def_00000.zip"]}

        _commit_runs(src, RUNS)  # C opens chunk 2, D seals it and spills into chunk 3
        st = b.publish()
        assert (st.def_count, st.run_count) == (3, 1)
        members = _zip_members(pub)
        assert members["part_def_00002.zip"] == [
            f"c/rdf_out_{TC}-00000000000000", f"g/rdf_out_{TC}-00000000000000",
            f"a/rdf_out_{TD}-00000000000000", f"d/rdf_out_{TD}-00000000000000",
        ]
        assert members[f"part_run_00003_{TD}.zip"] == [f"h/rdf_out_{TD}-00000000000000"]
        validate_sink(src, pub)

    def test_changelists_and_index_pages(self, tmp_path):
        import xml.etree.ElementTree as ET

        ns = {
            "sm": "http://www.sitemaps.org/schemas/sitemap/0.9",
            "rs": "http://www.openarchives.org/rs/terms/",
        }
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=4)
        _commit_runs(src, RUNS[:2])
        b.publish()
        docs = b.publish_metadata()
        assert "changelist/" + T0 + ".xml" not in docs  # the dump has no ChangeList
        assert [d for d in docs if d.startswith("changelist")] == [
            "changelist-00001.xml", f"changelist/{TA}.xml",
        ]
        cl = ET.parse(os.path.join(pub, "changelist", f"{TA}.xml")).getroot()
        assert cl.find("rs:md", ns).get("capability") == "changelist"
        (u,) = cl.findall("sm:url", ns)
        m = load_manifest(src)
        e = [f for f in m.files if f.name.startswith("a/") and TA in f.name][0]
        assert u.find("sm:loc", ns).text == f"http://example.org/pub/{e.name}"
        assert u.find("sm:lastmod", ns).text == "2024-01-01T00:00:00Z"
        md = u.find("rs:md", ns)
        assert (md.get("change"), md.get("hash"), md.get("length")) == ("created", f"md5:{e.md5}", str(e.length))
        top = ET.parse(os.path.join(pub, "capability-list.xml")).getroot()
        assert [u.find("sm:loc", ns).text.rsplit("/", 1)[1] for u in top.findall("sm:url", ns)] == [
            "resource-dump.xml", "changelist-00001.xml",
        ]

        _commit_runs(src, RUNS[:3])  # B starts in chunk 1 and seals it
        b.publish()
        b.publish_metadata()
        page1 = ET.parse(os.path.join(pub, "changelist-00001.xml")).getroot()
        assert [s.find("sm:loc", ns).text.rsplit("/", 1)[1] for s in page1.findall("sm:sitemap", ns)] == [
            f"{TA}.xml", f"{TB}.xml",
        ]
        frozen = _stat_ids(pub, ["changelist-00001.xml", f"changelist/{TA}.xml", f"changelist/{TB}.xml"])
        _commit_runs(src, RUNS)
        b.publish()
        docs = b.publish_metadata()
        assert _stat_ids(pub, list(frozen)) == frozen  # chunk 1 sealed: its page is final
        assert "changelist-00002.xml" in docs and "changelist-00003.xml" not in docs  # D starts in chunk 2

    def test_crash_between_seal_and_run_zip_removal_repairs(self, tmp_path, monkeypatch):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=4)
        _commit_runs(src, RUNS[:2])
        b.publish()
        _commit_runs(src, RUNS[:3])

        def crash(path):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "remove", crash)
        with pytest.raises(OSError, match="simulated"):
            b.publish()
        monkeypatch.undo()
        with pytest.raises(ValidationError, match="two zips"):
            validate_sink(src, pub)  # sealed, and the run zips still there
        st = b.publish()
        assert (st.def_count, st.run_count) == (2, 0)
        validate_sink(src, pub)


class TestValidateBundles:
    """validate_sink: no committed file in two zips; every run zip's files
    lie in the open chunk."""

    def test_consistent_state_passes(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        b = Bundler(src, pub, max_files=4)
        for k in range(1, len(RUNS) + 1):
            _commit_runs(src, RUNS[:k])
            b.publish()
            validate_sink(src, pub)

    def test_file_in_two_zips_rejected(self, tmp_path):
        import shutil

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        _commit_runs(src, RUNS[:2])
        Bundler(src, pub, max_files=4).publish()
        run = f"part_run_00001_{TA}.zip"
        shutil.copy(os.path.join(pub, run), os.path.join(pub, f"part_run_00001_{TB}.zip"))
        with pytest.raises(ValidationError, match="two zips"):
            validate_sink(src, pub)

    def test_run_zip_outside_open_chunk_rejected(self, tmp_path):
        import shutil

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        _commit_runs(src, RUNS[:2])
        Bundler(src, pub, max_files=4).publish()
        run = f"part_run_00001_{TA}.zip"
        os.replace(os.path.join(pub, run), os.path.join(pub, f"part_run_00002_{TA}.zip"))
        with pytest.raises(ValidationError, match="open chunk"):
            validate_sink(src, pub)
        # a run zip holding a sealed file
        os.replace(os.path.join(pub, f"part_run_00002_{TA}.zip"), os.path.join(pub, run))
        validate_sink(src, pub)
        shutil.copy(os.path.join(pub, "part_def_00000.zip"), os.path.join(pub, "part_def_00001.zip"))
        with pytest.raises(ValidationError):
            validate_sink(src, pub)


class TestResourceDumpPages:
    """The resource dump is an index over one page per chunk: a round
    rewrites only the open chunk's page, and a seal rewrites the sealing
    chunk's page and adds the next chunk's page to the index."""

    @staticmethod
    def _round(src, pub, k):
        _commit_runs(src, RUNS[:k])
        b = Bundler(src, pub, max_files=4)
        b.publish()
        docs = b.publish_metadata()
        return _stat_ids(pub, [d for d in docs if d.startswith("resource-dump")])

    @staticmethod
    def _index(pub):
        import xml.etree.ElementTree as ET

        sm = "{http://www.sitemaps.org/schemas/sitemap/0.9}"
        root = ET.parse(os.path.join(pub, "resource-dump.xml")).getroot()
        return [u.find(f"{sm}loc").text.rsplit("/", 1)[1] for u in root.iter(f"{sm}sitemap")]

    @staticmethod
    def _page_zips(pub, page):
        import xml.etree.ElementTree as ET

        sm = "{http://www.sitemaps.org/schemas/sitemap/0.9}"
        root = ET.parse(os.path.join(pub, page)).getroot()
        return [u.find(f"{sm}loc").text.rsplit("/", 1)[1] for u in root.iter(f"{sm}url")]

    def test_rounds_rewrite_only_the_open_page(self, tmp_path):
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        page = "resource-dump-{:05d}.xml".format
        dump = self._round(src, pub, 1)  # chunk 0 sealed, chunk 1 open
        assert set(dump) == {"resource-dump.xml", page(0), page(1)}
        assert self._index(pub) == [page(0), page(1)]
        sync_a = self._round(src, pub, 2)  # no seal
        changed = {rel for rel in sync_a if sync_a[rel] != dump.get(rel)}
        assert changed == {page(1)}  # the sealed page and the index keep inode and mtime
        runs = [f"part_run_00001_{T0}.zip", f"part_run_00001_{TA}.zip"]
        assert self._page_zips(pub, page(1)) == runs
        for k in (3, 4):
            before = self._round(src, pub, k)
        sync_d = self._round(src, pub, 5)  # seals chunk 2 and spills into chunk 3
        changed = {rel for rel in sync_d if sync_d[rel] != before.get(rel)}
        assert changed == {"resource-dump.xml", page(2), page(3)}
        assert self._index(pub) == [page(n) for n in range(4)]
        assert self._page_zips(pub, page(2)) == ["part_def_00002.zip"]
        assert self._page_zips(pub, page(3)) == [f"part_run_00003_{TD}.zip"]


class TestPublishCrashPoints:
    """Every write, rename and remove that ``publish`` + ``publish_metadata``
    do is a crash point. For each stage of dump -> 3 syncs -> seal
    (``RUNS``, max_files=4) and each step i of that stage's publish, the
    publish crashes at step i (a raised OSError) on a copy of the previous
    stage's publish dir, and then runs again. Right after the crash, every
    file published before is still in a zip whose sidecar matches it; after
    the re-run every committed file is in exactly one zip, every sidecar
    matches its zip, nothing is left staged, and every doc equals a
    from-scratch render."""

    @staticmethod
    def _crashing(monkeypatch, crash_at):
        """Patch the file operations; returns the step counter. Step
        ``crash_at`` (0-based) raises; None only counts."""
        import builtins
        import zipfile

        seen = [0]

        def step():
            if seen[0] == crash_at:
                raise OSError(f"simulated crash at step {crash_at}")
            seen[0] += 1

        def wrap(fn, counts=lambda *a, **k: True):
            def wrapped(*a, **k):
                if counts(*a, **k):
                    step()
                return fn(*a, **k)

            return wrapped

        def writes(file, mode="r", *a, **k):
            return any(c in mode for c in "wax+")

        monkeypatch.setattr(builtins, "open", wrap(builtins.open, writes))
        monkeypatch.setattr(os, "replace", wrap(os.replace))
        monkeypatch.setattr(os, "remove", wrap(os.remove))
        monkeypatch.setattr(zipfile.ZipFile, "write", wrap(zipfile.ZipFile.write))
        monkeypatch.setattr(zipfile.ZipFile, "writestr", wrap(zipfile.ZipFile.writestr))
        return seen

    @staticmethod
    def _sidecars_match(pub):
        import hashlib
        import json

        for n in os.listdir(pub):
            if n.endswith(".zip"):
                with open(os.path.join(pub, n), "rb") as f:
                    data = f.read()
                with open(os.path.join(pub, n + ".meta.json")) as f:
                    meta = json.load(f)
                assert (meta["md5"], meta["length"]) == (hashlib.md5(data).hexdigest(), len(data)), n

    @staticmethod
    def _publish(src, pub):
        b = Bundler(src, pub, max_files=4)
        b.publish()
        return b.publish_metadata()

    def test_crash_at_every_step_of_every_stage(self, tmp_path, monkeypatch):
        import shutil

        src, base = str(tmp_path / "src"), str(tmp_path / "base")
        os.makedirs(base)
        crashes = 0
        for k in range(1, len(RUNS) + 1):
            _commit_runs(src, RUNS[:k])
            published = {m for ms in _zip_members(base).values() for m in ms}
            committed = [e.name for e in load_manifest(src).files]
            count = str(tmp_path / "count")
            shutil.copytree(base, count)
            seen = self._crashing(monkeypatch, None)
            self._publish(src, count)
            monkeypatch.undo()
            shutil.rmtree(count)
            n_steps = seen[0]
            for i in range(n_steps):
                pub = str(tmp_path / f"s{k}-{i}")
                shutil.copytree(base, pub)
                self._crashing(monkeypatch, i)
                with pytest.raises(OSError, match="simulated"):
                    self._publish(src, pub)
                monkeypatch.undo()
                crashes += 1
                # nothing published before the crash is lost
                still = {m for ms in _zip_members(pub).values() for m in ms}
                assert published <= still, (k, i)
                self._sidecars_match(pub)

                docs = self._publish(src, pub)
                members = _zip_members(pub)
                held = [m for ms in members.values() for m in ms]
                assert sorted(held) == sorted(committed), (k, i)  # each file in exactly one zip
                self._sidecars_match(pub)
                validate_sink(src, pub)
                for d, _, names in os.walk(pub):
                    assert not [n for n in names if n.endswith(".part")], (k, i, d)
                    for n in names:
                        if n.endswith(".zip.meta.json"):
                            assert n[: -len(".meta.json")] in names, (k, i, n)
                fresh = str(tmp_path / "fresh")
                os.makedirs(fresh)
                for n in os.listdir(pub):
                    if n.endswith(".zip") or n.endswith(".zip.meta.json"):
                        shutil.copy2(os.path.join(pub, n), fresh)
                assert Bundler(src, fresh, max_files=4).publish_metadata() == docs
                for rel in docs:
                    with open(os.path.join(pub, rel), "rb") as f, open(os.path.join(fresh, rel), "rb") as g:
                        assert f.read() == g.read(), (k, i, rel)
                shutil.rmtree(fresh)
                shutil.rmtree(pub)
            self._publish(src, base)
        print("crash points", crashes)
        assert crashes >= 5 * 10


@pytest.mark.usefixtures("ray_session")
class TestRunReport:
    """VERDICT r3 missing #2: the trailer report file (vql_rdfdump_info.txt
    analog, dump_nquads.sql:58-83 / parse_trx_logs.sql:69-73) is written per
    run and round-trips through parse_patch_text."""

    def _changelog(self, n=3, op="+"):
        return ray.data.from_arrow(
            pa.table(
                {
                    "op": [op] * n,
                    "s": [f"<http://s/{i}>" for i in range(n)],
                    "p": ["<http://p>"] * n,
                    "o": ['"v"'] * n,
                    "g": ["http://g"] * n,
                }
            )
        )

    def test_dump_report_fields(self, tmp_path):
        root = str(tmp_path / "out")
        m = write_rdfpatch(
            self._changelog(), root, epoch="E1", checkpoint="00000000000000",
            kind="dump",
        )
        with open(os.path.join(root, "vql_rdfdump_info.txt")) as f:
            _, meta = parse_patch_text(f.read())
        assert meta["at checkpoint"] == "00000000000000"
        assert int(meta["quad count"]) == m.quad_count == 3
        assert int(meta["file count"]) == m.file_count == 1
        assert "dump started" in meta and "dump completed" in meta
        assert meta["dump started"] <= meta["dump completed"]

    def test_sync_report_fields(self, tmp_path):
        root = str(tmp_path / "out")
        write_rdfpatch(
            self._changelog(), root, epoch="E1", checkpoint="00000000000000",
            kind="dump",
        )
        m = write_rdfpatch(
            self._changelog(2, "-"), root, epoch="E1",
            checkpoint="20240101000000", kind="sync", run_index=1,
            last_source="trx#v2",
        )
        with open(os.path.join(root, "vql_syncinfo.txt")) as f:
            _, meta = parse_patch_text(f.read())
        assert meta["at checkpoint"] == "20240101000000"
        assert meta["last trx log"] == "trx#v2"
        assert int(meta["quad count"]) == m.quad_count == 2
        assert int(meta["file count"]) == m.file_count == 1

    def test_report_owned_by_engine(self):
        assert ckpt.is_our_file("vql_rdfdump_info.txt")
        assert ckpt.is_our_file("vql_syncinfo.txt")


@pytest.mark.usefixtures("ray_session")
class TestReplayMergeByName:
    """VERDICT r3 #1 (belt-and-braces under the runs.py gate): a replayed
    write_rdfpatch at the same checkpoint re-publishes byte-identical files;
    the manifest must list each name once with exact totals."""

    def test_same_checkpoint_replay_lists_each_file_once(self, tmp_path):
        root = str(tmp_path / "out")
        rows = pa.table(
            {
                "op": ["+"] * 5,
                "s": [f"<http://s/{i}>" for i in range(5)],
                "p": ["<http://p>"] * 5,
                "o": ['"v"'] * 5,
                "g": ["http://g"] * 5,
            }
        )
        cfg = EngineConfig(max_quads_per_file=2)
        m1 = write_rdfpatch(
            ray.data.from_arrow(rows), root, epoch="E1",
            checkpoint="20240101000000", cfg=cfg,
        )
        m2 = write_rdfpatch(
            ray.data.from_arrow(rows), root, epoch="E1",
            checkpoint="20240101000000", cfg=cfg,
        )
        names = [f.name for f in m2.files]
        assert sorted(names) == sorted(set(names))
        assert m2.total_quads == m1.total_quads == 5
        assert m2.total_files == m1.total_files == 3
        assert {(f.name, f.md5) for f in m2.files} == {
            (f.name, f.md5) for f in m1.files
        }


def _fresh_render(src, pub, fresh, max_files, base="http://example.org/pub"):
    """The doc set a from-scratch publish_metadata renders into ``fresh``
    from ``pub``'s zips and sidecars."""
    import shutil

    os.makedirs(fresh)
    for n in os.listdir(pub):
        if n.endswith(".zip") or n.endswith(".zip.meta.json"):
            shutil.copy2(os.path.join(pub, n), fresh)
    return Bundler(src, fresh, max_files=max_files).publish_metadata(base)


def _assert_docs_equal(pub, fresh, docs):
    for rel in docs:
        with open(os.path.join(pub, rel), "rb") as f, open(os.path.join(fresh, rel), "rb") as g:
            assert f.read() == g.read(), rel


class TestDeltaMetadata:
    """With a matching stamp, publish_metadata reads, renders and writes
    a per-graph list or a ChangeList only when its dir or run gained files,
    its file is missing, or it was modified after the stamp."""

    def test_source_parts_follow_new_dirs(self, tmp_path, monkeypatch):
        """With a matching stamp, a source-description part is rendered
        only when it gains a dir, and the source index only when a part
        appears; the others are not even read. Every doc still equals a
        from-scratch render."""
        import builtins

        import virtuoso_quad_log_ray.pipelines.publish as pubmod

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        runs = [(T0, [f"d{i:03d}" for i in range(40)])]
        _commit_runs(src, runs)
        b = Bundler(src, pub, max_files=250)
        b.publish()
        b.publish_metadata()
        used = {pubmod.source_part(d) for d in [""] + runs[0][1]}
        in_used = next(f"n{i}" for i in range(1000) if pubmod.source_part(f"n{i}") in used)
        in_new = next(f"m{i}" for i in range(1000) if pubmod.source_part(f"m{i}") not in used)
        real_open, real_part, real_index = (
            builtins.open, pubmod._source_part_xml, pubmod._source_index_xml
        )
        for step, (ckpt, d, index) in enumerate(
            [(TA, "d001", False), (TB, in_used, False), (TC, in_new, True)]
        ):
            runs.append((ckpt, [d]))
            _commit_runs(src, runs)
            b.publish()
            reads, parts, indexes = [], [], []

            def counting_open(file, mode="r", *a, **k):
                if "r" in mode and str(file).startswith(pub):
                    reads.append(os.path.relpath(str(file), pub))
                return real_open(file, mode, *a, **k)

            def part(base, rels):
                parts.append(rels)
                return real_part(base, rels)

            def index_xml(base, ks):
                indexes.append(ks)
                return real_index(base, ks)

            monkeypatch.setattr(builtins, "open", counting_open)
            monkeypatch.setattr(pubmod, "_source_part_xml", part)
            monkeypatch.setattr(pubmod, "_source_index_xml", index_xml)
            docs = b.publish_metadata()
            monkeypatch.undo()
            new = [] if d == "d001" else [f"{d}/capability-list.xml"]
            assert [r for r in parts if set(new) & set(r)] == parts and len(parts) == len(new)
            assert len(indexes) == int(index), step
            assert len([r for r in reads if r.startswith(".well-known")]) <= len(parts) + index
            fresh = str(tmp_path / f"fresh{step}")
            assert _fresh_render(src, pub, fresh, 250) == docs
            _assert_docs_equal(pub, fresh, docs)

    def test_publish_metadata_reuses_the_manifest_publish_loaded(self, tmp_path, monkeypatch):
        """A round of publish + publish_metadata on one Bundler loads the
        sink manifest once; a commit between the two calls is seen."""
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        loads = []
        real = RunManifest.from_json

        def counting(text):
            loads.append(1)
            return real(text)

        monkeypatch.setattr(RunManifest, "from_json", staticmethod(counting))
        _commit_runs(src, RUNS[:2])
        b = Bundler(src, pub, max_files=4)
        b.publish()
        b.publish_metadata()
        assert len(loads) == 1
        _commit_runs(src, RUNS[:3])
        b.publish()
        _commit_runs(src, RUNS[:4])  # commits between the two calls
        docs = b.publish_metadata()
        assert len(loads) == 3 and f"changelist/{TC}.xml" in docs
        with open(os.path.join(pub, f"changelist/{TC}.xml")) as f:
            assert "/c/rdf_out_" in f.read()
        b.publish()
        docs = b.publish_metadata()
        assert len(loads) == 3
        monkeypatch.undo()
        fresh = str(tmp_path / "fresh")
        assert _fresh_render(src, pub, fresh, 4) == docs
        _assert_docs_equal(pub, fresh, docs)

    def test_one_new_file_touches_one_dir_of_a_thousand(self, tmp_path, monkeypatch):
        import builtins

        from virtuoso_quad_log_ray.pipelines.publish import STAMP

        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        dirs = [f"d{i:04d}" for i in range(1000)]
        _commit_runs(src, [(T0, dirs), (TA, ["d0001"])])
        b = Bundler(src, pub, max_files=250)
        b.publish()
        docs = b.publish_metadata()
        assert os.path.exists(os.path.join(pub, STAMP))
        m = _commit_runs(src, [(T0, dirs), (TA, ["d0001"]), (TB, ["d0005"])])
        b.publish()
        new_file = os.path.join(src, m.files[-1].name)

        real_open, real_mkdir, real_stat = builtins.open, os.mkdir, os.stat
        reads, mkdirs, stats = [], [], []

        def counting_open(file, mode="r", *a, **k):
            if not any(c in mode for c in "wax+"):
                reads.append(os.path.relpath(str(file), pub))
            return real_open(file, mode, *a, **k)

        def counting_mkdir(path, *a, **k):
            mkdirs.append(os.path.relpath(str(path), pub))
            return real_mkdir(path, *a, **k)

        def counting_stat(path, *a, **k):
            stats.append(str(path))
            return real_stat(path, *a, **k)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        after = b.publish_metadata()
        monkeypatch.setattr(os, "stat", counting_stat)
        validate_sink(src)
        monkeypatch.undo()

        cap = os.path.join("d0005", "capability-list.xml")
        assert set(after) == set(docs) | {f"changelist/{TB}.xml"}
        fresh = str(tmp_path / "fresh")
        assert _fresh_render(src, pub, fresh, 250) == after  # the full doc list
        _assert_docs_equal(pub, fresh, after)
        lazy = {d for d in after if d.endswith("/capability-list.xml") or d.startswith("changelist/")}
        top = set(after) - lazy
        pub_reads = {r for r in reads if not r.startswith("..")}
        assert pub_reads - top - {STAMP} <= {cap} | {
            n for n in pub_reads if n.endswith(".zip.meta.json")
        }
        assert mkdirs == []  # no doc lands in a missing dir
        # no dir is new, so no source-description doc is read
        assert not [r for r in pub_reads if r.startswith(".well-known")]
        with open(os.path.join(pub, cap)) as f:
            assert m.files[-1].name in f.read()
        assert [p for p in stats if p.startswith(src + os.sep) and "rdf_out_" in p] == [new_file]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tampering_always_ends_in_a_from_scratch_render(self, tmp_path, seed):
        """Between publishes a seeded sequence commits runs and, at
        random, tampers a doc at the same size, deletes a doc, deletes or
        edits the stamp, or changes ``base_uri``. After every call every doc
        equals a from-scratch render."""
        import json
        import random
        import shutil

        from virtuoso_quad_log_ray.pipelines.publish import STAMP

        rng = random.Random(seed)
        src, pub = str(tmp_path / "src"), str(tmp_path / "pub")
        pool = [f"d{i}" for i in range(12)]
        runs = [(T0, pool[:6])]
        bases = ["http://example.org/pub", "http://example.org/other"]
        base, docs = bases[0], []
        for step in range(30):
            action = rng.choice(["commit", "commit", "tamper", "delete", "stamp", "base"])
            if action == "commit" or not docs:
                ckpt = f"2024{step + 1:02d}01000000"
                runs.append((ckpt, sorted(rng.sample(pool, rng.randint(1, 3)))))
                _commit_runs(src, runs)
            elif action in ("tamper", "delete"):
                path = os.path.join(pub, rng.choice(docs))
                if action == "delete":
                    os.remove(path)
                else:
                    with open(path, "rb") as f:
                        data = bytearray(f.read())
                    i = rng.randrange(len(data))
                    data[i] = ord("X") if data[i] != ord("X") else ord("Y")
                    with open(path, "wb") as f:
                        f.write(bytes(data))
            elif action == "stamp":
                stamp = os.path.join(pub, STAMP)
                if rng.random() < 0.5:
                    os.remove(stamp)
                else:
                    with open(stamp) as f:
                        rec = json.load(f)
                    rec[rng.choice(["count", "last", "code", "epoch"])] = 0
                    with open(stamp, "w") as f:
                        json.dump(rec, f)
            else:
                base = bases[1] if base == bases[0] else bases[0]
            b = Bundler(src, pub, max_files=4)
            b.publish()
            docs = b.publish_metadata(base)
            fresh = str(tmp_path / f"fresh{step}")
            assert _fresh_render(src, pub, fresh, 4, base) == docs, (step, action)
            _assert_docs_equal(pub, fresh, docs)
            shutil.rmtree(fresh)
