"""KG pipeline correctness vs the DuckDB oracle at sf0.001 (the same
comparison the driver runs at sf0.01), plus changelog properties."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tests.conftest import (
    RESUMABLE_SINKS,
    SF_SMALL,
    assert_matches_oracle,
    resumable_sink,
    to_arrow,
)
from virtuoso_quad_log_ray.pipelines import changelog as cl
from virtuoso_quad_log_ray.pipelines import kg


@pytest.mark.usefixtures("ray_session")
class TestKgOracle:
    def test_quads(self, oracle):
        assert_matches_oracle(kg.build_quads(SF_SMALL), oracle, kg.QUADS_SQL, ["s", "p", "o", "g"])

    def test_extract_text_byte_identical(self, oracle):
        assert_matches_oracle(
            kg.extracted_text(SF_SMALL), oracle, kg.EXTRACTED_TEXT_SQL, ["url"]
        )

    def test_entity_links(self, oracle):
        assert_matches_oracle(
            kg.entity_links(SF_SMALL), oracle, kg.ENTITY_LINKS_SQL, ["url", "surface", "canon"]
        )

    def test_graph_stats(self, oracle):
        assert_matches_oracle(kg.graph_stats(SF_SMALL), oracle, kg.GRAPH_STATS_SQL, ["g"])

    def test_dedup(self, oracle):
        assert_matches_oracle(
            kg.dedup_quads(kg.build_quads(SF_SMALL)), oracle, kg.DEDUP_QUADS_SQL, ["s", "p", "o", "g"]
        )

    def test_chunk_plan(self, oracle):
        assert_matches_oracle(
            kg.chunk_plan(SF_SMALL, max_quads_per_file=5),
            oracle,
            kg.chunk_plan_sql(5),
            ["g", "s", "p", "o"],
        )

    def test_rdfpatch_lines(self, oracle):
        assert_matches_oracle(
            kg.rdfpatch_lines(SF_SMALL), oracle, kg.RDFPATCH_LINES_SQL, ["line"]
        )

    def test_changelog(self, oracle):
        assert_matches_oracle(
            cl.changelog(SF_SMALL), oracle, cl.changelog_sql(), ["op", "s", "p", "o", "g"]
        )

    def test_entity_cooccur(self, oracle):
        assert_matches_oracle(
            kg.entity_cooccur(SF_SMALL),
            oracle,
            kg.ENTITY_COOCCUR_SQL,
            ["canon_a", "canon_b"],
        )

    def test_replay_state_equals_fresh_v2(self, oracle):
        # the strongest closure contract: replay(v1, changelog) == fresh v2
        assert_matches_oracle(
            cl.replay_state(SF_SMALL), oracle, cl.replay_state_sql(), ["s", "p", "o", "g"]
        )


@pytest.mark.usefixtures("ray_session")
class TestChangelogProperties:
    def test_apply_changelog_reaches_v2(self):
        """apply(quads_v1, changelog) == quads_v2 as sets — the RDF-patch
        assert/retract semantics (MOTIVATION.md:40-71; FIXTURES.md F7)."""
        v1 = to_arrow(cl.quads_version(SF_SMALL, 1))
        v2 = to_arrow(cl.quads_version(SF_SMALL, 2))
        log = to_arrow(cl.changelog(SF_SMALL))
        applied = cl.apply_changelog(v1, log)

        def key_set(t):
            return set(
                pc.binary_join_element_wise(t["s"], t["p"], t["o"], t["g"], "\x1f").to_pylist()
            )

        assert key_set(applied) == key_set(v2)

    def test_apply_changelog_keys_on_quad_columns(self):
        """A '-' record retracts only the quad equal on all four columns,
        not another quad whose columns join to the same U+001F-packed
        string (ADVICE r1 packed-key hazard)."""
        prev = pa.table({"s": ["a\x1fb"], "p": ["c"], "o": ["o"], "g": ["g"]})
        log = pa.table({"op": ["-"], "s": ["a"], "p": ["b\x1fc"], "o": ["o"], "g": ["g"]})
        assert cl.apply_changelog(prev, log).to_pylist() == prev.to_pylist()

    def test_changelog_stats_typed_on_empty_buckets(self, tmp_path):
        """A 30-document corpus leaves most of the shuffle's buckets empty.
        Every changelog block, empty ones included, carries the typed
        (op, s, p, o, g) schema, the tally equals the DuckDB oracle, and
        no ``count()`` bundle with an empty schema is logged (the tally
        runs no Ray aggregate)."""
        import logging

        import duckdb
        import pyarrow.parquet as pq
        import ray

        docs = pq.read_table(f"{SF_SMALL}/documents.parquet").slice(0, 30)
        pq.write_table(docs, str(tmp_path / "documents.parquet"))
        sf = str(tmp_path)

        blocks = ray.get(cl.changelog(sf).to_arrow_refs())
        assert any(b.num_rows == 0 for b in blocks)  # the corpus does leave buckets empty
        assert all(b.column_names == ["op", "s", "p", "o", "g"] for b in blocks)

        warnings: list[str] = []

        class Collect(logging.Handler):
            def emit(self, record):
                warnings.append(record.getMessage())

        handler = Collect(level=logging.WARNING)
        logger = logging.getLogger("ray.data")
        logger.addHandler(handler)
        try:
            got = to_arrow(cl.changelog_stats(sf))
        finally:
            logger.removeHandler(handler)
        assert not [w for w in warnings if "count()" in w], warnings

        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
        want = con.sql(cl.changelog_stats_sql()).arrow()
        assert sorted(got.to_pylist(), key=str) == sorted(want.to_pylist(), key=str)

    def test_changelog_empty_on_identical_snapshots(self):
        v1 = cl.quads_version(SF_SMALL, 1)
        v1b = cl.quads_version(SF_SMALL, 1)
        assert cl.diff_quads(v1, v1b).count() == 0

    def test_excluded_graphs_filter(self):
        """F1 — dump_nquads.sql:44-49 semantics."""
        from virtuoso_quad_log_ray.config import EngineConfig

        all_quads = to_arrow(kg.build_quads(SF_SMALL))
        some_graph = all_quads["g"][0].as_py()
        cfg = EngineConfig(excluded_graphs=(some_graph,))
        filtered = to_arrow(kg.build_quads(SF_SMALL, cfg))
        assert pc.sum(pc.equal(filtered["g"], some_graph)).as_py() in (0, None)
        n_graph = pc.sum(pc.equal(all_quads["g"], some_graph)).as_py()
        assert len(filtered) == len(all_quads) - n_graph


@pytest.mark.usefixtures("ray_session")
def test_chunk_plan_respects_maxq():
    """G4 — no (g, file_seq) chunk exceeds MAX_QUADS_PER_FILE
    (buffer_nquads.sql:24-27)."""
    plan = to_arrow(kg.chunk_plan(SF_SMALL, max_quads_per_file=5))
    counts = plan.group_by(["g", "file_seq"]).aggregate([("s", "count")])
    assert pc.max(counts["s_count"]).as_py() <= 5
    # hot-graph multi-file: at least one graph must have chunked into >1 file
    assert pc.max(plan["file_seq"]).as_py() >= 1


class TestRealPagesInput:
    """The input_hint contract: the engine must run over an ACTUAL pages
    Parquet table (url, warc_ts, html, text, lang), not only the sandbox's
    synthesized documents. Round-trip: persist the synthesized pages as a
    real pages.parquet, read it back via read_pages_parquet, and assert the
    source-agnostic pipeline yields the identical quad set."""

    def test_quads_from_real_pages_parquet(self, tmp_path):
        import pyarrow.parquet as pq
        import ray

        from virtuoso_quad_log_ray.sources.pages import read_pages, read_pages_parquet

        pages_tbl = to_arrow(read_pages(SF_SMALL, include_html=True))
        path = str(tmp_path / "pages.parquet")
        pq.write_table(pages_tbl, path)

        real = read_pages_parquet(path, include_html=True)
        got = to_arrow(kg.quads_from_pages(real)).sort_by(
            [(c, "ascending") for c in ("s", "p", "o", "g")]
        )
        expect = to_arrow(kg.build_quads(SF_SMALL)).sort_by(
            [(c, "ascending") for c in ("s", "p", "o", "g")]
        )
        assert got.equals(expect) and len(got) > 0

    def test_read_pages_parquet_prunes_html(self, tmp_path):
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.sources.pages import read_pages, read_pages_parquet

        path = str(tmp_path / "pages.parquet")
        pq.write_table(to_arrow(read_pages(SF_SMALL, include_html=True)), path)
        ds = read_pages_parquet(path, include_html=False)
        assert "html" not in ds.schema().names  # pruned AT THE READ
        assert "warc_ts" in ds.schema().names


class TestWarcSource:
    """WARC round-trip (the native Common-Crawl interchange format):
    pages -> write_warc -> read_pages_warc preserves url/warc_ts/html
    byte-exactly, and the downstream extract_text contract (byte-identical
    text per url) holds over WARC-sourced pages."""

    def test_warc_roundtrip_and_extraction(self, tmp_path):
        import pyarrow as pa

        from virtuoso_quad_log_ray.sources.pages import read_pages
        from virtuoso_quad_log_ray.sources.warc import read_pages_warc, write_warc
        from virtuoso_quad_log_ray.stages.extract_text import extract_text

        pages_tbl = to_arrow(read_pages(SF_SMALL, include_html=True)).sort_by("url")
        # split across two WARC files (files parse in parallel)
        half = len(pages_tbl) // 2
        p1, p2 = str(tmp_path / "a.warc"), str(tmp_path / "b.warc")
        n1 = write_warc(p1, pages_tbl.slice(0, half))
        n2 = write_warc(p2, pages_tbl.slice(half))
        assert n1 + n2 == len(pages_tbl)

        back = to_arrow(read_pages_warc([p1, p2])).sort_by("url")
        assert back["url"].to_pylist() == pages_tbl["url"].to_pylist()
        assert back["warc_ts"].to_pylist() == pages_tbl["warc_ts"].to_pylist()
        assert back["html"].to_pylist() == pages_tbl["html"].to_pylist()
        assert set(back["lang"].to_pylist()) == {"und"}  # raw crawl: no labels

        # byte-identical text per url over the WARC-sourced pages
        text = to_arrow(extract_text(read_pages_warc([p1, p2]))).sort_by("url")
        assert text["text"].to_pylist() == pages_tbl["text"].to_pylist()

    def test_warc_corpus_distributed_roundtrip(self, tmp_path):
        """VERDICT r2 #7: write_warc_corpus shards the corpus into bucketed
        WARC files via one by_bucket exchange with a committed manifest;
        read_warc_corpus (-> read_pages_warc) restores the exact page set."""
        from virtuoso_quad_log_ray.sources.pages import read_pages
        from virtuoso_quad_log_ray.sources.warc import read_warc_corpus, write_warc_corpus
        from virtuoso_quad_log_ray.state.manifest import load_manifest

        root = str(tmp_path / "warc_out")
        pages = read_pages(SF_SMALL, include_html=True)
        pages_tbl = to_arrow(pages).sort_by("url")
        man = write_warc_corpus(pages, root, epoch="E1", n_buckets=4)
        assert man.kind == "warc"
        assert man.quad_count == len(pages_tbl)
        assert man.file_count >= 2  # really sharded
        assert all(e.name.endswith(".warc") for e in man.files)
        # files match the manifest's md5/length (resumable-output contract)
        import hashlib as _hl
        import os as _os

        for e in man.files:
            data = open(_os.path.join(root, e.name), "rb").read()
            assert _hl.md5(data).hexdigest() == e.md5 and len(data) == e.length
        back = to_arrow(read_warc_corpus(root)).sort_by("url")
        assert back["url"].to_pylist() == pages_tbl["url"].to_pylist()
        assert back["warc_ts"].to_pylist() == pages_tbl["warc_ts"].to_pylist()
        assert back["html"].to_pylist() == pages_tbl["html"].to_pylist()
        assert load_manifest(root).file_count == man.file_count

    def test_warc_render_parse_property(self, tmp_path):
        """Property: render -> parse is the identity for arbitrary binary
        payloads — including payloads that CONTAIN record separators
        (\\r\\n\\r\\n) or header-like text (Content-Length framing must win
        over any content sniffing)."""
        import datetime as dt

        import pyarrow as pa
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from virtuoso_quad_log_ray.sources.warc import _render_warc_bytes, parse_warc_bytes

        payloads = st.lists(
            st.one_of(
                st.binary(max_size=200),
                st.just(b"\r\n\r\nWARC/1.0\r\nWARC-Type: response\r\n\r\n"),
                st.just(b"Content-Length: 99\r\n\r\nx"),
            ),
            min_size=1,
            max_size=8,
        )

        @settings(max_examples=40, deadline=None)
        @given(payloads=payloads, ts0=st.integers(min_value=0, max_value=2**31 - 1))
        def check(payloads, ts0):
            # HTTP/-prefixed payloads are reserved for real HTTP blocks (the
            # parser unwraps them by contract), so mask that prefix off
            payloads = [b"x" + p if p.startswith(b"HTTP/") else p for p in payloads]
            t = pa.table(
                {
                    "url": pa.array([f"https://x/{i}" for i in range(len(payloads))]),
                    "warc_ts": pa.array(
                        [
                            dt.datetime.fromtimestamp(
                                (ts0 + i) % 2**31, tz=dt.timezone.utc
                            ).replace(tzinfo=None)
                            for i in range(len(payloads))
                        ],
                        type=pa.timestamp("s"),
                    ),
                    "html": pa.array(payloads, type=pa.binary()),
                }
            )
            recs = parse_warc_bytes(_render_warc_bytes(t))
            assert [r["url"] for r in recs] == t["url"].to_pylist()
            assert [r["html"] for r in recs] == payloads
            want_ts = [
                int(v.replace(tzinfo=dt.timezone.utc).timestamp())
                for v in t["warc_ts"].to_pylist()
            ]
            assert [r["warc_ts"] for r in recs] == want_ts

        check()

    def test_warc_http_payload_and_foreign_records(self, tmp_path):
        """HTTP-wrapped payloads are unwrapped; non-response records skip."""
        from virtuoso_quad_log_ray.sources.warc import parse_warc_bytes

        body = b"<html><article>hi</article></html>"
        http = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + body
        rec = (
            b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://x/1\r\n"
            b"WARC-Date: 2024-01-01T00:00:42Z\r\n"
            b"Content-Length: " + str(len(http)).encode() + b"\r\n\r\n" + http + b"\r\n\r\n"
        )
        info = (
            b"WARC/1.0\r\nWARC-Type: warcinfo\r\n"
            b"Content-Length: 4\r\n\r\nmeta\r\n\r\n"
        )
        recs = parse_warc_bytes(info + rec)
        assert len(recs) == 1
        assert recs[0]["url"] == "https://x/1"
        assert recs[0]["warc_ts"] == 1704067242
        assert recs[0]["html"] == body


class TestJsonlSource:
    """C4/Pile-style JSONL corpus -> pages schema -> identical quad set via
    the text-first (from_html=False) pipeline."""

    def test_jsonl_roundtrip_quads(self, tmp_path):
        import json

        from virtuoso_quad_log_ray.sources.pages import read_pages, read_pages_jsonl

        pages_tbl = to_arrow(read_pages(SF_SMALL, include_html=False))
        path = str(tmp_path / "corpus.jsonl")
        with open(path, "w") as f:
            for url, ts, text, lang in zip(
                pages_tbl["url"].to_pylist(),
                pages_tbl["warc_ts"].to_pylist(),
                pages_tbl["text"].to_pylist(),
                pages_tbl["lang"].to_pylist(),
            ):
                f.write(
                    json.dumps(
                        {
                            "url": url,
                            "warc_ts": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                            "text": text,
                            "lang": lang,
                        }
                    )
                    + "\n"
                )
        back = to_arrow(read_pages_jsonl(path)).sort_by("url")
        want = pages_tbl.sort_by("url")
        assert back["url"].to_pylist() == want["url"].to_pylist()
        assert back["text"].to_pylist() == want["text"].to_pylist()
        assert back["lang"].to_pylist() == want["lang"].to_pylist()
        assert back["warc_ts"].to_pylist() == want["warc_ts"].to_pylist()

        got = to_arrow(
            kg.quads_from_pages(read_pages_jsonl(path), from_html=False)
        ).sort_by([(c, "ascending") for c in ("s", "p", "o", "g")])
        expect = to_arrow(kg.build_quads(SF_SMALL, from_html=False)).sort_by(
            [(c, "ascending") for c in ("s", "p", "o", "g")]
        )
        assert got.equals(expect) and len(got) > 0


@pytest.mark.usefixtures("ray_session")
class TestJsonlSink:
    """Distributed JSONL export: bucketed shards + committed manifest;
    read_jsonl_corpus restores the exact page set (minus html, which JSON
    cannot carry)."""

    def test_jsonl_corpus_distributed_roundtrip(self, tmp_path):
        import hashlib
        import os

        from virtuoso_quad_log_ray.sources.pages import (
            read_jsonl_corpus,
            read_pages,
            write_jsonl_corpus,
        )

        root = str(tmp_path / "jsonl_out")
        pages = read_pages(SF_SMALL, include_html=False)
        pages_tbl = to_arrow(pages).sort_by("url")
        man = write_jsonl_corpus(pages, root, epoch="E1", n_buckets=4)
        assert man.kind == "jsonl"
        assert man.quad_count == len(pages_tbl)
        assert man.file_count >= 2  # really sharded
        assert all(e.name.endswith(".jsonl") for e in man.files)
        for e in man.files:  # resumable-output contract: md5/length honest
            blob = open(os.path.join(root, e.name), "rb").read()
            assert hashlib.md5(blob).hexdigest() == e.md5
            assert len(blob) == e.length

        # a stray uncommitted .part shard must be invisible to the reader
        with open(os.path.join(root, "shard-99999.jsonl.part"), "w") as f:
            f.write('{"url": "bogus", "text": "x"}\n')

        back = to_arrow(read_jsonl_corpus(root)).sort_by("url")
        assert back["url"].to_pylist() == pages_tbl["url"].to_pylist()
        assert back["warc_ts"].to_pylist() == pages_tbl["warc_ts"].to_pylist()
        assert back["text"].to_pylist() == pages_tbl["text"].to_pylist()
        assert back["lang"].to_pylist() == pages_tbl["lang"].to_pylist()

    def test_jsonl_escaping_roundtrip(self, tmp_path):
        """Quotes, backslashes, newlines and raw control bytes in text must
        survive the write -> read cycle byte-for-byte."""
        import ray.data

        from virtuoso_quad_log_ray.sources.pages import (
            read_jsonl_corpus,
            write_jsonl_corpus,
        )

        nasty = [
            'he said "hi" \\ and left',
            "line1\nline2\ttab\rcr",
            "ctl:\x01\x02\x1f end",
            "unicode: é中�",
        ]
        t = pa.table(
            {
                "url": pa.array([f"https://n/{i}" for i in range(len(nasty))]),
                "warc_ts": pa.array([1700000000 + i for i in range(len(nasty))], type=pa.timestamp("s")),
                "text": pa.array(nasty),
                "lang": pa.array(["en"] * len(nasty)),
            }
        )
        root = str(tmp_path / "nasty_out")
        write_jsonl_corpus(ray.data.from_arrow(t), root, epoch="E1", n_buckets=2)
        back = to_arrow(read_jsonl_corpus(root)).sort_by("url")
        assert back["text"].to_pylist() == nasty
        assert back["warc_ts"].to_pylist() == t["warc_ts"].to_pylist()

    def test_cli_export_jsonl(self, tmp_path):
        """CLI writes shards + manifest from a real pages Parquet table."""
        import pyarrow.parquet as pq

        from virtuoso_quad_log_ray.__main__ import main
        from virtuoso_quad_log_ray.sources.pages import read_pages

        src = str(tmp_path / "pages.parquet")
        pq.write_table(to_arrow(read_pages(SF_SMALL, include_html=True)), src)
        out = str(tmp_path / "cli_jsonl")
        assert main(["export-jsonl", "--pages", src, "--out", out, "--buckets", "3"]) == 0
        from virtuoso_quad_log_ray.state.manifest import load_manifest

        man = load_manifest(out)
        assert man is not None and man.kind == "jsonl" and man.file_count >= 2


@pytest.mark.usefixtures("ray_session")
class TestExportResume:
    """Same-epoch re-runs of the export sinks echo committed buckets from
    the manifest without touching shard files (the shared per-bucket
    resume gate, materialize.reusable_entries); a different epoch
    rewrites."""

    def test_jsonl_same_epoch_resume_skips_io(self, tmp_path):
        import os

        from virtuoso_quad_log_ray.sources.pages import read_pages, write_jsonl_corpus

        root = str(tmp_path / "resume_jsonl")
        pages = read_pages(SF_SMALL, include_html=False)
        man1 = write_jsonl_corpus(pages, root, epoch="E1", n_buckets=4)
        mtimes = {
            e.name: os.stat(os.path.join(root, e.name)).st_mtime_ns
            for e in man1.files
        }
        man2 = write_jsonl_corpus(pages, root, epoch="E1", n_buckets=4)
        assert [ (e.name, e.amount, e.md5, e.length) for e in man2.files ] == [
            (e.name, e.amount, e.md5, e.length) for e in man1.files
        ]
        for e in man2.files:  # no shard was rewritten
            assert os.stat(os.path.join(root, e.name)).st_mtime_ns == mtimes[e.name]

        man3 = write_jsonl_corpus(pages, root, epoch="E2", n_buckets=4)
        assert any(
            os.stat(os.path.join(root, e.name)).st_mtime_ns != mtimes[e.name]
            for e in man3.files
        )  # a new epoch re-renders

    def test_jsonl_bucket_count_change_rerenders(self, tmp_path):
        self._check_bucket_count_change_rerenders(tmp_path, "jsonl")

    @pytest.mark.parametrize("sink", [s for s in RESUMABLE_SINKS if s != "jsonl"])
    def test_bucket_count_change_rerenders(self, tmp_path, sink):
        self._check_bucket_count_change_rerenders(tmp_path, sink)

    def _check_bucket_count_change_rerenders(self, tmp_path, sink):
        """ADVICE r4: same epoch with a DIFFERENT n_buckets must not echo
        stale shards — default_n_buckets() is CPU-adaptive, so resuming on a
        different-sized host re-keys rows while shard names collide.
        The resume guard requires prev.n_buckets == nb; a mismatch rewrites
        everything and the union of shard rows stays equal to the input."""
        import os

        write, rows, shard, keys = resumable_sink(sink)
        root = str(tmp_path / "resume_nb")
        man1 = write(rows(), root, epoch="E1", n_buckets=4)
        assert man1.n_buckets == 4
        # Resume the same epoch keyed to 2 buckets: the bucket 0/1 names
        # collide with the 4-bucket layout but hold different row sets.
        man2 = write(rows(), root, epoch="E1", n_buckets=2)
        assert man2.n_buckets == 2
        assert {e.name for e in man2.files} == {shard(0), shard(1)}
        stored = set()
        for e in man2.files:
            stored.update(keys(os.path.join(root, e.name)))
        assert len(stored) == rows().count()  # no row lost to a stale echo

    def test_warc_same_epoch_resume_skips_io(self, tmp_path):
        import os

        from virtuoso_quad_log_ray.sources.pages import read_pages
        from virtuoso_quad_log_ray.sources.warc import write_warc_corpus

        root = str(tmp_path / "resume_warc")
        pages = read_pages(SF_SMALL, include_html=True)
        man1 = write_warc_corpus(pages, root, epoch="E1", n_buckets=3)
        mtimes = {
            e.name: os.stat(os.path.join(root, e.name)).st_mtime_ns
            for e in man1.files
        }
        man2 = write_warc_corpus(pages, root, epoch="E1", n_buckets=3)
        assert [e.md5 for e in man2.files] == [e.md5 for e in man1.files]
        for e in man2.files:
            assert os.stat(os.path.join(root, e.name)).st_mtime_ns == mtimes[e.name]


@pytest.mark.usefixtures("ray_session")
class TestExtractorSeam:
    """VERDICT r4 #5: the text extractor is a pluggable protocol. The frozen
    <article> rule stays the default (byte-identical M11 contract, pinned by
    the kg_extract_text oracle test); a swapped extractor changes bytes by
    design while every bit of plumbing — schema, url/ts passthrough, html
    projection — is identical."""

    def test_default_matches_explicit_article_rule(self):
        from virtuoso_quad_log_ray.sources.pages import read_pages
        from virtuoso_quad_log_ray.stages.extract_text import (
            ArticleRuleExtractor,
            extract_text,
        )

        pages = read_pages(SF_SMALL)
        default = to_arrow(extract_text(pages)).sort_by("url")
        explicit = to_arrow(
            extract_text(pages, extractor=ArticleRuleExtractor())
        ).sort_by("url")
        by_name = to_arrow(extract_text(pages, extractor="article")).sort_by("url")
        assert default.equals(explicit) and default.equals(by_name)

    def test_swapped_extractor_same_plumbing_different_bytes(self):
        from virtuoso_quad_log_ray.sources.pages import read_pages
        from virtuoso_quad_log_ray.stages.extract_text import extract_text

        pages = read_pages(SF_SMALL)
        article = to_arrow(extract_text(pages)).sort_by("url")
        stripped = to_arrow(extract_text(pages, extractor="tag_strip")).sort_by("url")
        assert stripped.schema.equals(article.schema)
        assert stripped["url"].equals(article["url"])
        assert stripped["warc_ts"].equals(article["warc_ts"])
        # the synthesized pages carry nav/footer text outside <article>: the
        # tag-strip extractor keeps it, the article rule drops it
        a = article["text"].to_pylist()
        s = stripped["text"].to_pylist()
        assert any(x != y for x, y in zip(a, s))
        for x, y in zip(a, s):
            assert x.strip() == "" or x in y  # article body survives the strip

    def test_extractor_protocol_runtime_checkable(self):
        from virtuoso_quad_log_ray.stages.extract_text import (
            EXTRACTORS,
            ArticleRuleExtractor,
            Extractor,
            TagStripExtractor,
        )

        assert isinstance(ArticleRuleExtractor(), Extractor)
        assert isinstance(TagStripExtractor(), Extractor)
        assert set(EXTRACTORS) >= {"article", "tag_strip"}


@pytest.mark.usefixtures("ray_session")
def test_config_selects_extractor_end_to_end():
    """EngineConfig.extractor reaches the extraction stage: quads built under
    the tag_strip extractor see the nav/footer text the article rule drops,
    so the extracted text (and downstream token counts) differ while the
    pipeline shape is identical."""
    from virtuoso_quad_log_ray.config import EngineConfig

    art = to_arrow(kg.extracted_text(SF_SMALL)).sort_by("url")
    strip = to_arrow(
        kg.extracted_text(SF_SMALL, EngineConfig(extractor="tag_strip"))
    ).sort_by("url")
    assert art["url"].equals(strip["url"])
    assert any(a != s for a, s in zip(art["text"].to_pylist(), strip["text"].to_pylist()))
