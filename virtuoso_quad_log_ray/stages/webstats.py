"""Per-site corpus statistics and a capped inverted-index sample.

Web-crawl account-keeping over the synthetic pages corpus (the engine's
analog of the reference's per-graph quad/file counters, dump_nquads.sql's
graph accounting re-expressed at the crawl layer):

* ``web_domain_stats`` — per-site page counts, distinct-content counts and
  byte totals: the first dashboard of any crawl ("which hosts dominate the
  corpus, how much of each is duplicated").
* ``text_postings`` — term -> document-frequency plus a lexicographic
  first-k posting sample: the bounded form of inverted-index construction.
  The cap is the scale contract: a hot term's full posting list is
  corpus-sized (every doc contains "the"), so only k urls per term per
  block ever cross the exchange — one ``shuffle.top_k``, as in
  relational.top_orders_by_priority.

Both compose the engine's proven distributed shapes: per-block C++ partial
aggregates, `bucket_aggregate` (vectorized bucketed combine), and one
`co_bucket` join of two key-sized sides (a pyarrow join per bucket task).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.sources.pages import PAGES_SQL_CTE, read_pages
from virtuoso_quad_log_ray.stages.dedup import _hash128
from virtuoso_quad_log_ray.stages.shuffle import (
    arrow_join,
    bucket_aggregate,
    co_bucket,
    merge_buckets,
    top_k,
)

SITE_REGEX = r"^https?://([^/]+/[^/?#]+)"
POSTINGS_SAMPLE_K = 5


def _site_of(url: pa.Array) -> pa.Array:
    """url -> host + first path segment ("example.org/web"); RE2 both sides."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    m = pc.extract_regex(url, r"^https?://(?P<site>[^/]+/[^/?#]+)")
    return pc.struct_field(m, "site")


def web_domain_stats(
    sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """Per-site page count, distinct-text count and total text bytes.

    Distributed shape (nothing corpus-sized crosses a shuffle):
      1. counts/bytes: one C++ group_by per block -> (site, pages_p,
         bytes_p) partials (|sites| rows per block), summed by
         ``bucket_aggregate``.
      2. distinct texts: per-block distinct (site, text-hash128) -> global
         distinct via ``bucket_aggregate`` on the 128-bit key -> per-block
         count partials per site -> summed. The text itself never leaves
         the extraction block; 24 bytes/row ride the exchange.
      3. one site-keyed ``co_bucket`` join (both sides key-sized).
    """
    pages = read_pages(sf_dir, include_html=False)

    def count_partial(b: pa.Table) -> pa.Table:
        site = _site_of(b["url"])
        nbytes = pc.binary_length(b["text"])
        g = (
            pa.table({"site": site, "b": nbytes})
            .group_by(["site"])
            .aggregate([("b", "sum"), ("b", "count")])
        )
        h1, _ = _hash128(g["site"])
        return pa.table(
            {
                "site": g["site"],
                "h1": pa.array(h1),
                "bytes_p": pc.cast(g["b_sum"], pa.int64()),
                "pages_p": pc.cast(g["b_count"], pa.int64()),
            }
        )

    totals = bucket_aggregate(
        pages.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["site"],
        [("pages_p", "sum"), ("bytes_p", "sum")],
        hash_col="h1",
    ).map_batches(
        lambda b: pa.table(
            {
                "site": b["site"],
                "n_pages": pc.cast(b["pages_p_sum"], pa.int64()),
                "total_text_bytes": pc.cast(b["bytes_p_sum"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def text_keys(b: pa.Table) -> pa.Table:
        site = _site_of(b["url"])
        k1, k2 = _hash128(b["text"])
        # in-block combiner: same text repeated within a block collapses here
        g = (
            pa.table({"site": site, "k1": pa.array(k1), "k2": pa.array(k2)})
            .group_by(["site", "k1", "k2"])
            .aggregate([])
        )
        return g

    distinct = bucket_aggregate(
        pages.map_batches(text_keys, batch_format="pyarrow", zero_copy_batch=True),
        ["site", "k1", "k2"],
        [("k2", "count")],
        hash_col="k1",
    )

    def distinct_partial(b: pa.Table) -> pa.Table:
        g = b.select(["site"]).group_by(["site"]).aggregate([("site", "count")])
        h1, _ = _hash128(g["site"])
        return pa.table(
            {
                "site": g["site"],
                "h1": pa.array(h1),
                "d_p": pc.cast(g["site_count"], pa.int64()),
            }
        )

    distinct_counts = bucket_aggregate(
        distinct.map_batches(distinct_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["site"],
        [("d_p", "sum")],
        hash_col="h1",
    ).map_batches(
        lambda b: pa.table(
            {"site": b["site"], "n_distinct_texts": pc.cast(b["d_p_sum"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    joined = co_bucket(totals, distinct_counts, "site", merge_buckets(), arrow_join("site"))
    return joined.map_batches(
        lambda b: b.select(
            ["site", "n_pages", "n_distinct_texts", "total_text_bytes"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


WEB_DOMAIN_STATS_SQL = (
    "WITH " + PAGES_SQL_CTE + "\n"
    "SELECT regexp_extract(url, '" + SITE_REGEX + "', 1) AS site,\n"
    "       count(*)::BIGINT AS n_pages,\n"
    "       count(DISTINCT text)::BIGINT AS n_distinct_texts,\n"
    "       sum(strlen(text))::BIGINT AS total_text_bytes\n"
    "FROM pages GROUP BY site"
)


def text_postings(
    sf_dir: str, k: int = POSTINGS_SAMPLE_K, cfg: EngineConfig = DEFAULT_CONFIG
) -> ray.data.Dataset:
    """term -> (n_docs, comma-joined lexicographic first-k urls).

    The bounded inverted-index build: ``shuffle.top_k`` keeps the first k
    urls per term (per block first, so a stop-word's posting sample costs
    k rows per block, never a corpus-sized list). n_docs is the exact
    document frequency via the tfidf DF shape. The ``co_bucket`` join with
    it renders each term's ranked urls as one comma-joined string inside
    the bucket task, so the sample costs no exchange of its own.
    """
    pages = read_pages(sf_dir, include_html=False)

    def tf_distinct(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        tokens = pc.split_pattern(text, " ")
        g = (
            pa.table(
                {"i": pc.list_parent_indices(tokens), "term": pc.list_flatten(tokens)}
            )
            .group_by(["i", "term"])
            .aggregate([])
        )
        return pa.table({"url": pc.take(b["url"], g["i"]), "term": g["term"]})

    tf = pages.map_batches(tf_distinct, batch_format="pyarrow", zero_copy_batch=True)

    # exact document frequency (the tfidf df shape: per-block partials,
    # 8-byte hash bucket key, one C++ sum per bucket)
    def df_partial(b: pa.Table) -> pa.Table:
        g = b.select(["term"]).group_by(["term"]).aggregate([("term", "count")])
        h1, _ = _hash128(g["term"])
        return pa.table(
            {
                "term": g["term"],
                "h1": pa.array(h1),
                "dfp": pc.cast(g["term_count"], pa.int64()),
            }
        )

    df = bucket_aggregate(
        tf.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["term"],
        [("dfp", "sum")],
        hash_col="h1",
    ).map_batches(
        lambda b: pa.table(
            {"term": b["term"], "n_docs": pc.cast(b["dfp_sum"], pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    ranked = top_k(tf, "term", [("url", "ascending")], k)

    def attach_sample(d: pa.Table | None, r: pa.Table | None) -> pa.Table:
        if d is None or r is None:
            return pa.table({})
        lists = (
            r.sort_by([("term", "ascending"), ("rank", "ascending")])
            .group_by("term", use_threads=False)  # keeps the rank order
            .aggregate([("url", "list")])
        )
        sample = pa.table(
            {"term": lists["term"], "sample_urls": pc.binary_join(lists["url_list"], ",")}
        )
        return d.join(sample, "term").select(["term", "n_docs", "sample_urls"])

    return co_bucket(df, ranked, "term", merge_buckets(), attach_sample)


def text_postings_sql(k: int = POSTINGS_SAMPLE_K) -> str:
    return (
        "WITH " + PAGES_SQL_CTE + ",\n"
        "words AS (SELECT url, unnest(string_split(text, ' ')) AS term FROM pages),\n"
        "tf AS (SELECT DISTINCT url, term FROM words),\n"
        "df AS (SELECT term, count(*)::BIGINT AS n_docs FROM tf GROUP BY term),\n"
        "ranked AS (SELECT term, url,\n"
        "           row_number() OVER (PARTITION BY term ORDER BY url) AS rn FROM tf)\n"
        "SELECT d.term, d.n_docs,\n"
        "       string_agg(r.url, ',' ORDER BY r.url) AS sample_urls\n"
        f"FROM df d JOIN ranked r USING (term) WHERE r.rn <= {k}\n"
        "GROUP BY d.term, d.n_docs"
    )
