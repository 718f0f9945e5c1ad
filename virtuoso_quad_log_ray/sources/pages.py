"""Common-Crawl-style pages source.

The engine's primary input is a Parquet table of web pages
``(url:string, warc_ts:timestamp[s], html:binary, text:string, lang:string)``
(authoritative shape per BASELINE.json input_hint; FIXTURES.md F1).

The sandbox test data has no pages table, so pages are synthesized
DETERMINISTICALLY from ``documents.parquet`` (doc_id, text, lang, source,
n_chars) — a pure, seedless function of the input rows, reproduced 1:1 by the
``PAGES_SQL_CTE`` DuckDB expression below so the correctness oracle sees the
exact same table. No wall-clock, no randomness (north rule: "no external
data", deterministic at small scale).

Synthesis rules (keep Python and SQL in lockstep — tests assert equality):
  url      = https://example.org/{source}/{doc_id}
  warc_ts  = 2024-01-01T00:00:00Z + doc_id seconds
  html     = fixed boilerplate template wrapping text in an <article> element
  text/lang pass through
  clone rows (near-dup corpus, FIXTURES.md F1 "duplicate pages"):
    doc_id % 25 == 0  -> extra row url + '?mirror=1' (byte-identical html)
    doc_id % 31 == 1  -> extra row url + '?v=2' with text + ' extra' (near-dup)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def pa_mod(arr: pa.Array | pa.ChunkedArray, m: int) -> pa.Array:
    """Vectorized integer modulo (pyarrow 16 has no mod kernel; numpy view is
    zero-copy for non-null int arrays)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pa.array(arr.to_numpy(zero_copy_only=False) % m)

EPOCH_2024 = 1704067200  # 2024-01-01T00:00:00Z

HTML_PREFIX = (
    "<html><head><title>example.org</title></head><body>"
    "<nav>home | about | contact</nav><article>"
)
HTML_SUFFIX = "</article><footer>(c) example.org crawl corpus</footer></body></html>"

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("s")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)
# the columns a JSONL shard carries, in line order
JSONL_SCHEMA = PAGES_SCHEMA.remove(PAGES_SCHEMA.get_field_index("html"))

# DuckDB CTE mirroring the synthesis 1:1 (documents is a pre-registered view).
PAGES_SQL_CTE = """
pages AS (
    SELECT 'https://example.org/' || source || '/' || doc_id AS url,
           TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id) AS warc_ts,
           text, lang
    FROM documents
    UNION ALL
    SELECT 'https://example.org/' || source || '/' || doc_id || '?mirror=1',
           TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id), text, lang
    FROM documents WHERE doc_id % 25 = 0
    UNION ALL
    SELECT 'https://example.org/' || source || '/' || doc_id || '?v=2',
           TIMESTAMP '2024-01-01 00:00:00' + to_seconds(doc_id), text || ' extra', lang
    FROM documents WHERE doc_id % 31 = 1
)
""".strip()


def _synth_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> pages batch (vectorized, incl. clone rows)."""
    doc_id_str = pc.cast(batch["doc_id"], pa.string())
    base_url = pc.binary_join_element_wise(
        "https://example.org/", batch["source"], "/", doc_id_str, ""
    )
    warc_ts = pc.cast(pc.add(pc.cast(batch["doc_id"], pa.int64()), EPOCH_2024), pa.timestamp("s"))

    def build(url, ts, text, lang):
        html = pc.binary_join_element_wise(HTML_PREFIX, text, HTML_SUFFIX, "")
        return pa.table(
            {"url": url, "warc_ts": ts, "html": pc.cast(html, pa.binary()), "text": text, "lang": lang}
        )

    parts = [build(base_url, warc_ts, batch["text"], batch["lang"])]

    for modulus, residue, suffix, text_suffix in ((25, 0, "?mirror=1", None), (31, 1, "?v=2", " extra")):
        mask = pc.equal(pa_mod(batch["doc_id"], modulus), residue)
        if not pc.any(mask).as_py():
            continue
        idx = pc.indices_nonzero(mask)
        text = pc.take(batch["text"], idx)
        if text_suffix is not None:
            text = pc.binary_join_element_wise(text, text_suffix, "")
        parts.append(
            build(
                pc.binary_join_element_wise(pc.take(base_url, idx), suffix, ""),
                pc.take(warc_ts, idx),
                text,
                pc.take(batch["lang"], idx),
            )
        )

    out = pa.concat_tables(parts)
    return out.cast(PAGES_SCHEMA)


PAGES_PARQUET_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]  # input_hint


def read_pages_parquet(path: str, *, include_html: bool = True) -> ray.data.Dataset:
    """Read a REAL pages Parquet table/directory with the authoritative
    input schema ``(url, warc_ts, html, text, lang)`` (BASELINE.json
    input_hint) — the production entrypoint when the corpus already exists
    as pages rather than the sandbox's synthesized documents.

    Column-pruned at the read (html is only loaded when the pipeline starts
    from raw html); block count forced wide so a few large files still
    parallelize the extraction chain.
    """
    from virtuoso_quad_log_ray.stages.shuffle import cluster_cpus

    cols = [c for c in PAGES_PARQUET_COLUMNS if include_html or c != "html"]
    return ray.data.read_parquet(
        path,
        columns=cols,
        override_num_blocks=max(16, cluster_cpus() * 2),
    )


def read_pages_jsonl(
    paths: str | list[str], *, default_lang: str = "und"
) -> ray.data.Dataset:
    """Read a text-first JSONL corpus (the C4/Pile-style interchange format:
    one JSON object per line with ``url``, ``text``, optional ``lang`` and
    ``warc_ts`` as epoch seconds or ISO-8601) into the pages schema.

    JSON cannot carry raw bytes, so ``html`` is empty — run the pipelines
    with ``from_html=False`` (the text is already extracted upstream).
    """

    ds = ray.data.read_json(paths)

    def shape(b: pa.Table) -> pa.Table:
        names = set(b.column_names)
        n = len(b)
        url = pc.cast(b["url"], pa.string())
        text = pc.cast(b["text"], pa.string())
        lang = (
            pc.cast(b["lang"], pa.string())
            if "lang" in names
            else pa.array([default_lang] * n, type=pa.string())
        )
        if "warc_ts" in names:
            ts_col = b["warc_ts"]
            if pa.types.is_timestamp(ts_col.type):  # Arrow JSON infers ISO dates
                ts = pc.cast(ts_col, pa.timestamp("s"))
            elif pa.types.is_integer(ts_col.type) or pa.types.is_floating(ts_col.type):
                ts = pc.cast(pc.cast(ts_col, pa.int64()), pa.timestamp("s"))
            else:
                ts = pc.cast(
                    pc.strptime(pc.cast(ts_col, pa.string()), format="%Y-%m-%dT%H:%M:%SZ", unit="s"),
                    pa.timestamp("s"),
                )
        else:
            ts = pa.array([0] * n, type=pa.timestamp("s"))
        return pa.table(
            {
                "url": url,
                "warc_ts": ts,
                "html": pa.array([b""] * n, type=pa.binary()),
                "text": text,
                "lang": lang,
            }
        ).cast(PAGES_SCHEMA)

    return ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)


def read_pages(
    sf_dir: str, *, include_html: bool = True, replicate: int = 1
) -> ray.data.Dataset:
    """Pages Dataset for a scale-factor dir.

    Reads only the needed document columns (prune at the read — the 100 TB
    analog is read_parquet(pages, columns=[...]) with row filters). With
    ``include_html=False`` the wide binary column is never materialized at
    all, for pipelines that start from pre-extracted text (SURVEY.md §7.4:
    "keep html out of post-extraction datasets").
    """
    from virtuoso_quad_log_ray.stages.shuffle import cluster_cpus

    if replicate > 1:
        # Benchmark-scale corpus inflation (deterministic): R distinct
        # crawls of every document under distinct urls. Queries/oracles
        # never use this; bench.py does. Layout: the DATASET is a table of
        # (replica, row-range) shard descriptors and the 3 MB base table is
        # broadcast ONCE via ray.put (fetched zero-copy per worker) — no
        # serial read task, evenly-sized tasks, replica-sized working set
        # per batch (a concat-all inflate measured 5x slower per core from
        # allocator thrash; a single read task serialized the whole chain).
        import pyarrow.parquet as pq

        base = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
        ).combine_chunks()
        base_ref = ray.put(base)
        rows_per_shard = 1024
        descs = [
            {"k": k, "start": s, "n": min(rows_per_shard, len(base) - s)}
            for k in range(replicate)
            for s in range(0, len(base), rows_per_shard)
        ]
        ds = ray.data.from_items(
            descs, override_num_blocks=max(16, cluster_cpus() * 4)
        )

        def expand(batch: pa.Table):
            t = ray.get(base_ref)
            src_idx = t.schema.get_field_index("source")
            for k, s, n in zip(
                batch["k"].to_pylist(), batch["start"].to_pylist(), batch["n"].to_pylist()
            ):
                shard = t.slice(s, n)
                yield shard.set_column(
                    src_idx,
                    "source",
                    pc.binary_join_element_wise(shard["source"], f"-r{k}", ""),
                )

        ds = ds.map_batches(
            expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
    else:
        # The sandbox sf dirs hold ONE parquet file per table; a single
        # input file means a single read block, which would serialize every
        # fused map stage downstream. Force enough blocks that the heavy
        # extraction chain parallelizes across the cluster (at 100 TB the
        # input is thousands of files/row-groups and this is a no-op).
        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang", "source"],
            override_num_blocks=max(16, cluster_cpus() * 2),
        )
    # batch_size=None: process whole blocks. The default (1024) makes Ray
    # BUNDLE blocks smaller than the batch into one task, collapsing
    # parallelism (measured: 16 read blocks -> 4 fused tasks -> 4-way
    # pipeline no matter how many CPUs).
    ds = ds.map_batches(
        _synth_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    if not include_html:
        ds = ds.drop_columns(["html"])
    return ds


def write_jsonl_corpus(
    pages: ray.data.Dataset,
    out_root: str,
    *,
    epoch: str,
    n_buckets: int | None = None,
) -> "RunManifest":
    """Distributed JSONL export — the C4/Pile-style delivery format a
    curated LLM training corpus actually ships in (one JSON object per
    line: url, warc_ts as epoch seconds, text, lang).

    One ``shard-K.jsonl`` per bucket of ``hash(url) % n_buckets``, written
    and committed by ``materialize.write_bucketed`` (the shared bucketed
    sink: ``.part`` + rename, same-epoch per-bucket resume, manifest
    committed last). Rows are sorted by (url, warc_ts) for deterministic
    bytes. Rendering is polars ``write_ndjson`` — one vectorized Rust pass
    with full JSON string escaping, no per-row Python. Round-trips through
    ``read_pages_jsonl`` (epoch-int ts path).
    """
    from virtuoso_quad_log_ray.pipelines.materialize import write_atomic, write_bucketed

    def write(rows: pa.Table, path: str) -> tuple[str, int]:
        import io
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")  # see numerics.py:74
        import polars as pl

        order = pc.sort_indices(rows, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")])
        t = rows.take(order)
        t = t.set_column(1, "warc_ts", pc.cast(t["warc_ts"], pa.int64()))
        buf = io.BytesIO()
        pl.from_arrow(t).write_ndjson(buf)
        return write_atomic(path, buf.getvalue())

    return write_bucketed(
        pages,
        out_root,
        key="url",
        kind="jsonl",
        epoch=epoch,
        n_buckets=n_buckets,
        shard=lambda bucket: f"shard-{bucket:05d}.jsonl",
        write=write,
        schema=JSONL_SCHEMA,
    )


def read_jsonl_corpus(out_root: str, *, default_lang: str = "und") -> ray.data.Dataset:
    """Committed JSONL shards -> pages Dataset (manifest-listed; uncommitted
    ``.part`` shards are invisible — the sham-sentinel visibility contract,
    generate-rdfpatch.sh:259-261)."""
    import os

    from virtuoso_quad_log_ray.state.manifest import load_manifest

    manifest = load_manifest(out_root)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest under {out_root}")
    paths = [os.path.join(out_root, e.name) for e in manifest.files]
    return read_pages_jsonl(paths, default_lang=default_lang)


def corpus_num_rows(sf_dir: str) -> int:
    """Documents-table row count from the Parquet FOOTER — metadata only,
    no data read, no pipeline execution. ``dedup_incremental_bloom`` uses
    it to return a typed empty result over an empty corpus without paying
    an extra corpus-sized count() pass on the non-empty path."""
    import os

    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    if os.path.isdir(path):  # sharded layout: sum footer counts
        return sum(
            pq.read_metadata(os.path.join(path, f)).num_rows
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
    return pq.read_metadata(path).num_rows
