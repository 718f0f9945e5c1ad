"""CLI lifecycle: dump -> sync -> publish -> validate via __main__.main().

main() reuses the session fixture's Ray (guarded init, ownership-aware
shutdown), so the in-process calls exercise the exact CLI code paths.
"""

import os

import pytest

from tests.conftest import SF_SMALL
from virtuoso_quad_log_ray.__main__ import main


@pytest.mark.usefixtures("ray_session")
def test_cli_lifecycle(tmp_path, capsys):
    sink = str(tmp_path / "sink")
    pub = str(tmp_path / "pub")

    assert main(["dump", "--sf", SF_SMALL, "--out", sink, "--epoch", "20240101000000"]) == 0
    out = capsys.readouterr().out
    assert "dump:" in out and "files @ 00000000000000" in out

    assert main(["sync", "--sf", SF_SMALL, "--out", sink, "--checkpoint", "20250101000000"]) == 0
    assert "sync:" in capsys.readouterr().out

    # a dump on a sink that has synced returns the committed sync and says so
    assert main(["dump", "--sf", SF_SMALL, "--out", sink, "--epoch", "20240101000000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sync: ") and " records in " in out and "@ 20250101000000" in out

    assert main(["publish", "--src", sink, "--pub", pub, "--max-files", "100"]) == 0
    out = capsys.readouterr().out
    zips = sorted(n for n in os.listdir(pub) if n.endswith(".zip"))
    n_def = sum(n.startswith("part_def_") for n in zips)
    n_run = sum(n.startswith("part_run_") for n in zips)
    assert n_def and n_run  # the dump sealed chunks; the open one holds run zips
    assert f"sealed={n_def} runs={n_run} " in out
    assert os.path.exists(os.path.join(pub, "resource-dump.xml"))

    assert main(["validate", "--sf", SF_SMALL, "--out", sink]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    import ray

    assert ray.is_initialized()  # CLI must not tear down a session it didn't start


@pytest.mark.usefixtures("ray_session")
def test_cli_run_loop(tmp_path, capsys):
    """T8: the `run` subcommand drives >= 2 bounded iterations, and its
    sync leaves the sink-owned snapshot pointer on its own checkpoint."""
    from virtuoso_quad_log_ray.state.validate import validate_sink

    sink = str(tmp_path / "sink")
    assert (
        main(["run", "--sf", SF_SMALL, "--out", sink, "--interval", "0", "--max-runs", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert "dump[0]:" in out and "sync[1]:" in out
    synced = [line for line in out.splitlines() if line.startswith("sync[1]:")]
    checkpoint = synced[0].rpartition("@ ")[2]
    with open(os.path.join(sink, "snapshots", "SNAPSHOT")) as f:
        assert f.read().strip() == f"at-{checkpoint}"
    validate_sink(sink)


def test_cli_export_warc(tmp_path, capsys):
    """export-warc: pages parquet -> bucketed WARC shards + manifest that
    round-trip through the corpus reader."""
    import pyarrow.parquet as pq

    from tests.conftest import to_arrow
    from virtuoso_quad_log_ray.__main__ import main
    from virtuoso_quad_log_ray.sources.pages import read_pages
    from virtuoso_quad_log_ray.sources.warc import read_warc_corpus

    pages = to_arrow(read_pages(SF_SMALL, include_html=True))
    src = str(tmp_path / "pages.parquet")
    pq.write_table(pages, src)
    out = str(tmp_path / "warc")
    assert main(["export-warc", "--pages", src, "--out", out, "--buckets", "4"]) == 0
    assert f"{len(pages)} records" in capsys.readouterr().out
    back = to_arrow(read_warc_corpus(out))
    assert sorted(back["url"].to_pylist()) == sorted(pages["url"].to_pylist())


def test_cli_extractor_flag_reaches_config():
    """--extractor maps into EngineConfig.extractor (the dump path over
    SYNTHESIZED documents runs on post-extraction text by design, so the
    behavioral swap is pinned end-to-end in
    test_kg_pipeline.test_config_selects_extractor_end_to_end over
    html-bearing pages; here we pin the CLI plumbing + registry guard)."""
    import argparse

    from virtuoso_quad_log_ray.__main__ import _cfg
    from virtuoso_quad_log_ray.stages.extract_text import EXTRACTORS

    ns = argparse.Namespace(extractor="tag_strip")
    cfg = _cfg(ns)
    assert cfg.extractor == "tag_strip" and cfg.extractor in EXTRACTORS
    default = _cfg(argparse.Namespace(extractor=None))
    assert default.extractor == "article"


@pytest.mark.usefixtures("ray_session")
def test_cli_materialize_honors_extractor(tmp_path, capsys):
    """materialize is the CLI command whose pipeline actually runs html
    extraction (build_quads over synthesized html pages); --extractor must
    reach it. tag_strip keeps nav/footer words, so tokenCount literals in
    the materialized quads differ from the article rule."""
    from virtuoso_quad_log_ray.pipelines.materialize import read_materialized
    from tests.conftest import to_arrow

    a = str(tmp_path / "mat_article")
    b = str(tmp_path / "mat_strip")
    assert main(["materialize", "--sf", SF_SMALL, "--out", a, "--epoch", "E1"]) == 0
    assert (
        main(
            ["--extractor", "tag_strip", "materialize", "--sf", SF_SMALL, "--out", b, "--epoch", "E1"]
        )
        == 0
    )
    capsys.readouterr()

    def tokencounts(root):
        t = to_arrow(read_materialized(root))
        mask = [p.endswith("tokenCount>") for p in t["p"].to_pylist()]
        return {s: o for s, o, m in zip(t["s"].to_pylist(), t["o"].to_pylist(), mask) if m}

    ta, tb = tokencounts(a), tokencounts(b)
    assert set(ta) == set(tb) and ta != tb
