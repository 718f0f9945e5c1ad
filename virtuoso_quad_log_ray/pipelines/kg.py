"""KG construction pipeline: pages -> canonical quads (+ dump-mode shaping).

Ray-Data-first re-expression of the reference's dump path
(quad-logger/sql-proc/dump_nquads.sql:11-84):

  read pages -> extract text (M11) -> extract+link triples (M12/E1)
    -> excluded-graphs filter (F1, dump_nquads.sql:44-49)
    -> exact dedup (D1, the table-id echo filter analog, parse_trx_logs.sql:102-109)
    -> per-graph grouping + maxq chunk plan (G2/G4, buffer_nquads.sql:8-29)

The reference needed a GLOBAL ``ORDER BY ?g`` (dump_nquads.sql:49) or an
unbounded in-server dict buffer (documented OOM, buffer_nquads.sql:7) to get
graph-homogeneous files; here one exchange bucketed by ``hash(g)`` does it with
bounded memory — exactly the skew/memory bug Ray Data's shuffle fixes
(SURVEY.md §4).

Each pipeline function has a lockstep DuckDB oracle SQL builder used by
__ray_entry__.oracle_sql(); keep them in sync (tests assert equality).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.sources.pages import PAGES_SQL_CTE, read_pages
from virtuoso_quad_log_ray.stages.extract_text import extract_text, resolve_extractor
from virtuoso_quad_log_ray.stages.extract_triples import (
    ALIAS_PAIRS,
    ENTITY_NS,
    VOCAB,
    XSD_INTEGER,
    extract_triples_batch,
)
from virtuoso_quad_log_ray.stages.shuffle import (
    arrow_join,
    bucket_aggregate,
    by_bucket,
    co_bucket,
    default_n_buckets,
    merge_buckets,
)

# ---------------------------------------------------------------------------
# Shared SQL fragments (lockstep with the vectorized stages)
# ---------------------------------------------------------------------------

ALIASES_SQL_VALUES = ",\n        ".join(f"('{s}', '{c}')" for s, c in ALIAS_PAIRS)

# quads CTE over the pages CTE — mirrors TripleExtractor exactly.
QUADS_SQL_CTE = f"""
aliases(surface, canon) AS (VALUES
        {ALIASES_SQL_VALUES}),
toks AS (
    SELECT url, unnest(string_split(text, ' ')) AS tok FROM pages
),
mentions AS (
    SELECT DISTINCT t.url, a.canon FROM toks t JOIN aliases a ON a.surface = t.tok
),
quads AS (
    SELECT '<' || url || '>' AS s, '<{VOCAB}lang>' AS p,
           '"' || lang || '"' AS o, url AS g FROM pages WHERE lang IS NOT NULL
    UNION ALL
    SELECT '<' || url || '>', '<{VOCAB}source>',
           '"' || regexp_extract(url, 'https://example\\.org/([^/]+)/', 1) || '"', url FROM pages
    UNION ALL
    SELECT '<' || url || '>', '<{VOCAB}tokenCount>',
           '"' || len(string_split(text, ' ')) || '"^^<{XSD_INTEGER}>', url FROM pages
           WHERE text IS NOT NULL
    UNION ALL
    SELECT '<' || url || '>', '<{VOCAB}mentions>',
           '<{ENTITY_NS}' || canon || '>', url FROM mentions
)
""".strip()


def sql_with_pages(body: str, extra_cte: str = "") -> str:
    """WITH pages [, quads][, extra] AS (...) <body>."""
    ctes = [PAGES_SQL_CTE]
    if extra_cte:
        ctes.append(extra_cte)
    return "WITH " + ",\n".join(ctes) + "\n" + body


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


TEXT_COLS = ["url", "text", "lang"]  # what TripleExtractor reads of a page
HTML_COLS = ["url", "html", "lang"]  # what text extraction and then TripleExtractor read
TEXTS_SCHEMA = pa.schema([(c, pa.string()) for c in TEXT_COLS])


def page_cols(from_html: bool) -> list[str]:
    """The columns of a page that decide its quads: :data:`HTML_COLS` when
    its text is extracted from html, else :data:`TEXT_COLS`."""
    return HTML_COLS if from_html else TEXT_COLS


def page_texts(
    pages: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG, *, from_html: bool = True
) -> pa.Table:
    """A pages table holding at least :func:`page_cols` -> its
    :data:`TEXT_COLS`, the text extracted from html first when
    ``from_html``."""
    if not from_html:
        return pages.select(TEXT_COLS)
    text = resolve_extractor(cfg.extractor)(pc.cast(pages["html"], pa.string()))
    return pa.table({"url": pages["url"], "text": text, "lang": pages["lang"]})


def texts_to_quads(texts: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """(url, text, lang) rows -> their (s, p, o, g) quads: ``TripleExtractor``,
    then the F1 excluded-graphs filter (dump_nquads.sql:44-49, a tiny
    IN-list evaluated vectorized)."""
    quads = extract_triples_batch(texts)
    if cfg.excluded_graphs:
        excluded = pa.array(list(cfg.excluded_graphs), type=pa.string())
        quads = quads.filter(pc.invert(pc.is_in(quads["g"], value_set=excluded)))
    return quads


def pages_to_quads(
    pages: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG, *, from_html: bool = True
) -> pa.Table:
    """One pages table -> its quads: :func:`page_texts`, then
    :func:`texts_to_quads`. :func:`quads_from_pages` maps it over blocks."""
    return texts_to_quads(page_texts(pages, cfg, from_html=from_html), cfg)


# ---------------------------------------------------------------------------
# Per-bucket digests: the two-level page-delta gate of the pages runs
# (pipelines/runs.py). With g = url, bucket ``hash(url) % n`` of the quads
# is a function of the page rows hashed to it. The raw digest, over the
# columns the text extractor reads (:func:`page_cols`), decides which
# buckets are text-extracted at all; the text digest, over the extracted
# (url, text, lang) rows, decides which of those are rewritten, so a
# boilerplate-only html edit still keeps its shard.
# ---------------------------------------------------------------------------

# one odd multiplier per (column, word): a row's two words weigh its
# columns' hash128 words differently, so swapping values between columns
# changes the row hash
_ROW_MULS = np.array(
    [
        [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F],
        [0x165667B19E3779F9, 0xD6E8FEB86659FD93],
        [0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
    ],
    dtype=np.uint64,
)
DIGEST_SCHEMA = pa.schema(
    [("bucket", pa.int64()), ("s1", pa.uint64()), ("s2", pa.uint64()), ("n", pa.uint64())]
)


@functools.cache
def _module_md5(name: str) -> str:
    """md5 of a module's source file, "" for a module without one. Cached:
    a process runs the code it imported, whatever the file holds later."""
    import hashlib
    import importlib

    path = getattr(importlib.import_module(name), "__file__", None)
    if not path:
        return ""
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def source_fingerprint(cfg: EngineConfig = DEFAULT_CONFIG) -> str:
    """What, besides a bucket's (url, text, lang) rows, decides its quads:
    the triple extractor's code, the excluded graphs, the hash that keys
    buckets and the Arrow version. Every digest is salted with it, so a
    change to any of them moves every digest and rebuilds every shard."""
    import json

    from virtuoso_quad_log_ray.numerics import hash_fingerprint

    code = _module_md5("virtuoso_quad_log_ray.stages.extract_triples")
    return json.dumps([code, sorted(cfg.excluded_graphs), hash_fingerprint(), pa.__version__])


def raw_fingerprint(source_fp: str, cfg: EngineConfig = DEFAULT_CONFIG, *, from_html: bool) -> str:
    """The salt of the raw digests: ``source_fp`` (:func:`source_fingerprint`)
    plus, when the text is extracted from html, the text extractor's
    identity (its class and the md5 of its module's source), so another
    extractor moves every raw digest. An extractor whose output also
    depends on its constructor arguments must differ in class or module to
    be told apart."""
    import json

    ex = type(resolve_extractor(cfg.extractor)) if from_html else None
    who = [ex.__module__, ex.__qualname__, _module_md5(ex.__module__)] if ex else "text"
    return json.dumps([source_fp, who])


def _bucket_sums(bucket: np.ndarray, words: np.ndarray, n_buckets: int) -> pa.Table:
    """Wrapping uint64 sums of ``words`` (rows x (s1, s2, n)) per bucket,
    one :data:`DIGEST_SCHEMA` row per bucket with n > 0."""
    sums = np.zeros((n_buckets, 3), dtype=np.uint64)
    np.add.at(sums, bucket, words)
    held = np.flatnonzero(sums[:, 2])
    cols = [pa.array(held.astype(np.int64))] + [pa.array(sums[held, i]) for i in range(3)]
    return pa.Table.from_arrays(cols, schema=DIGEST_SCHEMA)


def digest_partials(rows: pa.Table, n_buckets: int, cols: list[str] = TEXT_COLS) -> pa.Table:
    """(bucket, s1, s2, n) partial sums of one block of rows over the three
    ``cols``, keyed by the first (the url). A row hashes to two uint64
    words, the multiplier-weighted sums of its columns' ``hash128`` words
    (nulls hash to their own value), and a bucket sums its rows' words: a
    sum, not a XOR, so a duplicated row counts twice as
    ``changelog.diff_bucket``'s bag semantics need, and the fold over
    blocks is associative (:func:`bucket_digests`)."""
    from virtuoso_quad_log_ray.numerics import hash128
    from virtuoso_quad_log_ray.stages.shuffle import _bucket_of

    words = np.zeros((len(rows), 3), dtype=np.uint64)
    words[:, 2] = 1
    for col, muls in zip(cols, _ROW_MULS):
        for i, h in enumerate(hash128(rows[col])):
            words[:, i] += h.view(np.uint64) * muls[i]
    return _bucket_sums(_bucket_of(rows[cols[0]], n_buckets).to_numpy(), words, n_buckets)


def bucket_digests(
    rows: ray.data.Dataset | pa.Table,
    n_buckets: int,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    cols: list[str] = TEXT_COLS,
    salt: str | None = None,
) -> dict[int, str]:
    """{bucket: digest} of every bucket that holds a row: the md5 of
    ``salt`` and the bucket's (s1, s2, n) sums over ``cols``. The defaults
    give the text digest, salted with :func:`source_fingerprint`; the raw
    digest passes :func:`page_cols` and :func:`raw_fingerprint`. A
    Dataset's blocks each emit their :func:`digest_partials` and the
    calling process folds them, so no exchange runs."""
    import hashlib

    from virtuoso_quad_log_ray.stages.shuffle import blocks_of

    if isinstance(rows, pa.Table):
        partials = [digest_partials(rows, n_buckets, cols)]
    else:
        partials = blocks_of(
            rows.map_batches(
                lambda b: digest_partials(b, n_buckets, cols),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    parts = pa.concat_tables([DIGEST_SCHEMA.empty_table(), *partials])
    words = np.column_stack([parts[c].to_numpy() for c in ("s1", "s2", "n")])
    salt = source_fingerprint(cfg) if salt is None else salt
    return {
        r["bucket"]: hashlib.md5(f"{salt}|{r['s1']}|{r['s2']}|{r['n']}".encode()).hexdigest()
        for r in _bucket_sums(parts["bucket"].to_numpy(), words, n_buckets).to_pylist()
    }


def _in_buckets(rows: ray.data.Dataset | pa.Table, n_buckets: int, wanted, fn, **kwargs):
    """``fn`` over the rows of ``rows`` whose url's bucket is in ``wanted``:
    once on a table, else once per block (``kwargs`` go to map_batches)."""
    from virtuoso_quad_log_ray.stages.shuffle import _bucket_of

    wanted = pa.array(sorted(wanted), type=pa.int64())

    def each(b: pa.Table) -> pa.Table:
        return fn(b.filter(pc.is_in(_bucket_of(b["url"], n_buckets), value_set=wanted)))

    if isinstance(rows, pa.Table):
        return each(rows)
    return rows.map_batches(each, batch_format="pyarrow", zero_copy_batch=True, **kwargs)


def bucket_texts(
    pages: ray.data.Dataset | pa.Table,
    n_buckets: int,
    wanted,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    from_html: bool = True,
) -> ray.data.Dataset | pa.Table:
    """The :data:`TEXT_COLS` of the page rows whose bucket is in ``wanted``:
    the text extractor runs on those rows only, one vectorized
    :func:`page_texts` per block (the whole table in-process). A Dataset's
    result is materialized: the bucket pass reads it twice, for its text
    digests and its touched quads. No wanted bucket: no extraction, and
    an empty table."""
    if not wanted:
        return TEXTS_SCHEMA.empty_table()
    texts = _in_buckets(
        pages,
        n_buckets,
        wanted,
        lambda b: page_texts(b, cfg, from_html=from_html),
        batch_size=cfg.pages_batch_size,
    )
    return texts if isinstance(texts, pa.Table) else texts.materialize()


def touched_quads(
    texts: ray.data.Dataset | pa.Table,
    n_buckets: int,
    touched,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> ray.data.Dataset | pa.Table:
    """The quads of the (url, text, lang) rows whose bucket is in
    ``touched``: one vectorized :func:`texts_to_quads` per block (the
    whole table in-process), never one per bucket."""
    return _in_buckets(texts, n_buckets, touched, lambda b: texts_to_quads(b, cfg))


def quads_from_pages(
    pages: ray.data.Dataset, cfg: EngineConfig = DEFAULT_CONFIG, *, from_html: bool = True
) -> ray.data.Dataset:
    """pages Dataset (url, warc_ts, [html,] text, lang) -> (s, p, o, g)
    quads — the source-agnostic extraction pipeline, :func:`pages_to_quads`
    over each block. Feed it either the sandbox's synthesized pages
    (``read_pages``) or a REAL pages Parquet table
    (``sources.pages.read_pages_parquet``, the input_hint schema).

    ``from_html=True`` runs the real path (html -> text extraction first);
    the html column never survives past the first stage.
    """
    return pages.map_batches(
        lambda b: pages_to_quads(b, cfg, from_html=from_html),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=cfg.pages_batch_size,
    )


def build_quads(
    sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG, *, from_html: bool = True
) -> ray.data.Dataset:
    """Full extraction pipeline over the sandbox sf_dir (synthesized pages);
    see ``quads_from_pages`` for the source-agnostic form."""
    pages = read_pages(sf_dir, include_html=from_html)
    return quads_from_pages(pages, cfg, from_html=from_html)


QUADS_SQL = sql_with_pages("SELECT s, p, o, g FROM quads", QUADS_SQL_CTE)


def dedup_quads(quads: ray.data.Dataset, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """D1 exact dedup on quad identity.

    The reference deduplicates multi-index trx echoes with a table-id filter
    (parse_trx_logs.sql:102-109); generically this is distinct-by-key. The
    quad identity is the MULTI-COLUMN group key (s,p,o,g) — no packed
    separator key: the escape chain (faithful to the reference's
    vql_escape_chars) passes U+001F through, so any single-char-separator
    packing would silently corrupt literals containing it (ADVICE r1).
    An in-batch combiner collapses duplicates BEFORE the ``bucket_aggregate``
    exchange, so only distinct quads move. Never map_groups over millions of
    single-row groups.
    """
    from virtuoso_quad_log_ray.stages.dedup import _hash128
    def keyed(b: pa.Table) -> pa.Table:
        # in-batch combiner: collapse duplicate quads before the shuffle
        t = b.select(["s", "p", "o", "g"]).group_by(["s", "p", "o", "g"]).aggregate([])
        if len(t) == 0:
            return t.append_column("hv", pa.array([], type=pa.int64()))
        # bucketing hash over the packed terms — ONLY a distribution aid:
        # grouping is on the real columns, so a 0x1f inside a literal can
        # at worst skew a bucket, never corrupt a group (ADVICE r1 safe)
        packed = pc.binary_join_element_wise(t["s"], t["p"], t["o"], t["g"], "\x1f")
        if isinstance(packed, pa.ChunkedArray):
            packed = packed.combine_chunks()
        h1, _ = _hash128(packed)
        return t.append_column("hv", pa.array(h1))

    keyed_ds = quads.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    agg = bucket_aggregate(keyed_ds, ["s", "p", "o", "g"], [("g", "count")], hash_col="hv")
    return agg.select_columns(["s", "p", "o", "g"])


DEDUP_QUADS_SQL = sql_with_pages("SELECT DISTINCT s, p, o, g FROM quads", QUADS_SQL_CTE)


def graph_stats(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """A1/A6 — per-graph quad counts (the '# amount' header field and the
    quad_count/file_count report counters, buffer_nquads.sql:14-15,52-58).
    Each block counts its graphs first (graph = url, so a block's quads
    collapse to one row per page), and ``bucket_aggregate`` sums the
    partials."""

    def counts(b: pa.Table) -> pa.Table:
        part = b.select(["g"]).group_by("g").aggregate([([], "count_all")])
        return pa.table({"g": part["g"], "n": part["count_all"]})

    quads = build_quads(sf_dir, cfg).map_batches(
        counts, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_aggregate(quads, ["g"], [("n", "sum")]).map_batches(
        lambda b: pa.table({"g": b["g"], "n_quads": b["n_sum"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


GRAPH_STATS_SQL = sql_with_pages(
    "SELECT g, count(*) AS n_quads FROM quads GROUP BY g", QUADS_SQL_CTE
)


def chunk_plan(
    sf_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    max_quads_per_file: int | None = None,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """G2/G4 — deterministic per-graph file chunking.

    Assigns every quad its output file sequence number: quads of one graph,
    ordered by (s, p, o), are packed maxq per file (MAX_QUADS_PER_FILE
    semantics, buffer_nquads.sql:24-27; default generate-rdfpatch.sh:15-16).

    The shuffle key is ``hash(g) % n_buckets``, not g: with graph = url the
    graph space has corpus cardinality and a per-graph map_groups schedules
    one task per page (VERDICT r1 scale-killer). Each bucket task sorts by
    (g, s, p, o) once and derives every contained graph's file_seq from
    segment-relative positions — vectorized, many graphs per task. No
    global sort (the reference's ORDER BY ?g, dump_nquads.sql:49, is
    unnecessary under hashing).
    """
    maxq = max_quads_per_file or cfg.max_quads_per_file

    def assign(bucket: int, group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group,
            sort_keys=[
                ("g", "ascending"),
                ("s", "ascending"),
                ("p", "ascending"),
                ("o", "ascending"),
            ],
        )
        t = group.take(order).select(["s", "p", "o", "g"])
        g_np = t["g"].to_numpy(zero_copy_only=False)
        n = len(t)
        _, starts = np.unique(g_np, return_index=True)  # ascending (g sorted)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        seq = (np.arange(n, dtype=np.int64) - seg_start) // maxq
        return t.append_column("file_seq", pa.array(seq))

    return by_bucket(build_quads(sf_dir, cfg), "g", n_buckets or default_n_buckets(), assign)


def chunk_plan_sql(maxq: int) -> str:
    return sql_with_pages(
        "SELECT s, p, o, g, "
        f"       CAST((row_number() OVER (PARTITION BY g ORDER BY s, p, o) - 1) // {maxq} AS BIGINT) AS file_seq "
        "FROM quads",
        QUADS_SQL_CTE,
    )


def extracted_text(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """M11 surface: the byte-identical per-url text contract
    (BASELINE.json input_hint)."""
    return extract_text(
        read_pages(sf_dir), batch_size=cfg.pages_batch_size, extractor=cfg.extractor
    ).select_columns(["url", "text", "lang"])


EXTRACTED_TEXT_SQL = sql_with_pages("SELECT url, text, lang FROM pages")


def entity_links(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """E1 surface: distinct (url, surface, canonical) alias-dictionary links."""
    pages = read_pages(sf_dir, include_html=False)

    surfaces = pa.array([s for s, _ in ALIAS_PAIRS], type=pa.string())
    canonicals = pa.array([c for _, c in ALIAS_PAIRS], type=pa.string())

    def link(batch: pa.Table) -> pa.Table:
        url = batch["url"]
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        tokens = pc.split_pattern(batch["text"], " ")
        flat = pc.list_flatten(tokens)
        parents = pc.list_parent_indices(tokens)
        hit = pc.is_in(flat, value_set=surfaces)
        flat_h = pc.filter(flat, hit)
        par_h = pc.filter(parents, hit)
        canon = pc.take(canonicals, pc.index_in(flat_h, surfaces))
        distinct = (
            pa.table({"i": par_h, "surface": flat_h, "canon": canon})
            .group_by(["i", "surface", "canon"])
            .aggregate([])
        )
        return pa.table(
            {
                "url": pc.take(url, distinct["i"]),
                "surface": distinct["surface"],
                "canon": distinct["canon"],
            }
        )

    return pages.map_batches(link, batch_format="pyarrow", zero_copy_batch=True)


ENTITY_LINKS_SQL = sql_with_pages(
    "SELECT DISTINCT t.url AS url, a.surface AS surface, a.canon AS canon\n"
    "FROM toks t JOIN aliases a ON a.surface = t.tok",
    QUADS_SQL_CTE,
)


def entity_degree(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """Per-entity degree over the link graph: link rows, distinct pages and
    distinct surface forms per canonical entity — the node-degree accounting
    a KG build reports (the graph-level analog of A1's per-graph quad
    counters, dump_nquads.sql:37-44).

    Distributed shape: ``entity_links`` emits per-page-distinct triples and
    a page never splits across blocks, so each (url, surface, canon) row is
    GLOBALLY distinct and per-block (canon, url) pairs are globally
    distinct too — n_links and n_pages reduce to per-block C++ partials
    summed by one ``bucket_aggregate`` (|canons| rows per block). Only
    n_surfaces needs a global distinct, over the alias-dictionary-sized
    (canon, surface) set. One canon-keyed join of two entity-sized tables.
    """
    from virtuoso_quad_log_ray.numerics import hash128 as _h128

    links = entity_links(sf_dir, cfg)

    def count_partial(b: pa.Table) -> pa.Table:
        # rows in this block are globally distinct triples; urls are local
        # to the block -> exact per-block partials for both counters
        g = (
            b.select(["canon", "url"])
            .group_by(["canon", "url"])
            .aggregate([("url", "count")])
        )
        g2 = (
            pa.table({"canon": g["canon"], "links_p": g["url_count"]})
            .group_by(["canon"])
            .aggregate([("links_p", "sum"), ("links_p", "count")])
        )
        h1, _ = _h128(g2["canon"])
        return pa.table(
            {
                "canon": g2["canon"],
                "h1": pa.array(h1),
                "links_p": pc.cast(g2["links_p_sum"], pa.int64()),
                "pages_p": pc.cast(g2["links_p_count"], pa.int64()),
            }
        )

    counts = bucket_aggregate(
        links.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["canon"],
        [("links_p", "sum"), ("pages_p", "sum")],
        hash_col="h1",
    ).map_batches(
        lambda b: pa.table(
            {
                "canon": b["canon"],
                "n_links": pc.cast(b["links_p_sum"], pa.int64()),
                "n_pages": pc.cast(b["pages_p_sum"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def surface_pairs(b: pa.Table) -> pa.Table:
        g = b.select(["canon", "surface"]).group_by(["canon", "surface"]).aggregate([])
        h1, _ = _h128(g["canon"])
        return g.append_column("h1", pa.array(h1))

    distinct_surfaces = bucket_aggregate(
        links.map_batches(surface_pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["canon", "surface"],
        [("surface", "count")],
        hash_col="h1",
    )

    def surface_counts(b: pa.Table) -> pa.Table:
        g = b.select(["canon"]).group_by(["canon"]).aggregate([("canon", "count")])
        h1, _ = _h128(g["canon"])
        return pa.table(
            {
                "canon": g["canon"],
                "h1": pa.array(h1),
                "s_p": pc.cast(g["canon_count"], pa.int64()),
            }
        )

    surfaces = bucket_aggregate(
        distinct_surfaces.map_batches(surface_counts, batch_format="pyarrow", zero_copy_batch=True),
        ["canon"],
        [("s_p", "sum")],
        hash_col="h1",
    ).map_batches(
        lambda b: pa.table(
            {"canon": b["canon"], "n_surfaces": pc.cast(b["s_p_sum"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    out = co_bucket(counts, surfaces, "canon", merge_buckets(), arrow_join("canon"))
    return out.map_batches(
        lambda b: b.select(["canon", "n_links", "n_pages", "n_surfaces"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


ENTITY_DEGREE_SQL = sql_with_pages(
    "SELECT canon,\n"
    "       count(*)::BIGINT AS n_links,\n"
    "       count(DISTINCT url)::BIGINT AS n_pages,\n"
    "       count(DISTINCT surface)::BIGINT AS n_surfaces\n"
    "FROM (SELECT DISTINCT t.url AS url, a.surface AS surface, a.canon AS canon\n"
    "      FROM toks t JOIN aliases a ON a.surface = t.tok)\n"
    "GROUP BY canon",
    QUADS_SQL_CTE,
)


def entity_cooccur(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """Entity co-occurrence edges: unordered (canon_a < canon_b) pairs of
    canonical entities mentioned on the SAME page, with the page count per
    pair — the co-mention graph every KG build derives right after entity
    linking (edge weights feed disambiguation and embedding training).

    Distributed shape: ``entity_links`` keeps a page's links inside one
    block, so pair GENERATION is block-local — sort the block's distinct
    (url, canon) rows, then one vectorized repeat/offset construction emits
    every within-page (i < j) pair with no shuffle and no Python loop. A
    per-block C++ groupby combines pairs before the exchange, so only
    |distinct pairs per block| rows cross the wire (bounded by the alias
    dictionary squared, NOT by the corpus), and one ``bucket_aggregate``
    sums the partials. Hot pairs (popular entity combinations) are pure
    count accumulation — no per-key state, no skew blowup; pages mentioning
    k entities emit C(k,2) <= C(|dict|,2) pairs, so a boilerplate page
    cannot explode a block.
    """
    from virtuoso_quad_log_ray.numerics import hash128 as _h128
    links = entity_links(sf_dir, cfg)

    def pair_partial(b: pa.Table) -> pa.Table:
        # distinct (url, canon) within the block (drop multi-surface repeats),
        # sorted so each page's canons are contiguous and ascending
        d = (
            b.select(["url", "canon"])
            .group_by(["url", "canon"])
            .aggregate([])
            .sort_by([("url", "ascending"), ("canon", "ascending")])
        )
        n = len(d)
        empty = pa.table(
            {
                "canon_a": pa.array([], type=pa.string()),
                "canon_b": pa.array([], type=pa.string()),
                "h1": pa.array([], type=pa.int64()),
                "n_pages": pa.array([], type=pa.int64()),
            }
        )
        if n == 0:
            return empty
        url = d["url"]
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        codes = url.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = codes[1:] != codes[:-1]
        group_id = np.cumsum(change) - 1
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        local = np.arange(n, dtype=np.int64) - starts[group_id]
        reps = sizes[group_id] - 1 - local  # pairs led by each row
        total = int(reps.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(n, dtype=np.int64), reps)
        run_start = np.cumsum(reps) - reps
        offset = np.arange(total, dtype=np.int64) - np.repeat(run_start, reps) + 1
        b_idx = a_idx + offset
        canon = d["canon"]
        if isinstance(canon, pa.ChunkedArray):
            canon = canon.combine_chunks()
        pairs = pa.table(
            {
                "canon_a": pc.take(canon, pa.array(a_idx)),
                "canon_b": pc.take(canon, pa.array(b_idx)),
            }
        )
        part = pairs.group_by(["canon_a", "canon_b"]).aggregate([("canon_a", "count")])
        key = pc.binary_join_element_wise(part["canon_a"], part["canon_b"], "\x1f")
        h1, _ = _h128(key)
        return pa.table(
            {
                "canon_a": part["canon_a"],
                "canon_b": part["canon_b"],
                "h1": pa.array(h1),
                "n_pages": pc.cast(part["canon_a_count"], pa.int64()),
            }
        )

    # batch_size=None: whole blocks (the repo convention — pages.py,
    # extract_text.py). pair_partial is only correct if ALL of a page's
    # link rows arrive in ONE batch; entity_links emits each page's links
    # inside one block, and batch_size=None makes that the batch boundary
    # too. An explicit batch_size (or a future Ray default change) could
    # split a page across batches and silently drop cross-split pairs
    # (ADVICE r4).
    partials = links.map_batches(
        pair_partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = bucket_aggregate(
        partials, ["canon_a", "canon_b"], [("n_pages", "sum")], hash_col="h1"
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "canon_a": b["canon_a"],
                "canon_b": b["canon_b"],
                "n_pages": pc.cast(b["n_pages_sum"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


ENTITY_COOCCUR_SQL = sql_with_pages(
    "SELECT a.canon AS canon_a, b.canon AS canon_b, count(*)::BIGINT AS n_pages\n"
    "FROM mentions a JOIN mentions b ON a.url = b.url AND a.canon < b.canon\n"
    "GROUP BY 1, 2",
    QUADS_SQL_CTE,
)


def entity_pagerank(
    sf_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    iters: int = 20,
    damping: float = 0.85,
    **kwargs,
) -> ray.data.Dataset:
    """Entity salience: weighted PageRank over the co-occurrence graph —
    the node-importance score a KG build attaches to each canonical entity
    (disambiguation priors, salience-weighted page sampling). Rows-only on
    the driver (an iterative fixpoint is not ANSI-SQL-expressible); pinned
    in pytest against an independent dense power iteration and against the
    forced-distributed path. See ``stages/graph.py`` for the scale shape.
    """
    from virtuoso_quad_log_ray.stages.graph import pagerank

    ranks = pagerank(
        entity_cooccur(sf_dir, cfg),
        cfg,
        a_col="canon_a",
        b_col="canon_b",
        weight_col="n_pages",
        iters=iters,
        damping=damping,
        **kwargs,
    )
    return ranks.map_batches(
        lambda b: pa.table({"canon": b["node"], "rank": b["rank"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def rdfpatch_lines(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """M1-M4 surface: fully rendered `+ s p o <g> .` patch lines
    (vql_create_nquad, utils.sql:23-30)."""
    from virtuoso_quad_log_ray.rdfpatch import render_patch_lines

    quads = build_quads(sf_dir, cfg)

    def render(batch: pa.Table) -> pa.Table:
        n = len(batch)
        op = pa.array(["+"] * n, type=pa.string())
        line = render_patch_lines(op, batch["s"], batch["p"], batch["o"], batch["g"])
        return pa.table({"line": line})

    return quads.map_batches(render, batch_format="pyarrow", zero_copy_batch=True)


RDFPATCH_LINES_SQL = sql_with_pages(
    "SELECT '+ ' || s || ' ' || p || ' ' || o || ' <' || g || '> .' AS line FROM quads",
    QUADS_SQL_CTE,
)
