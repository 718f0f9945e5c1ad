"""Near-dup canonicalization: connected components over dup pairs (D2).

The north_star requires "MinHash-LSH + union-find canonicalization executed
as groupby-aggregate shuffles". Union-find is inherently sequential, so the
distributed form is the standard iterative **min-label propagation**
fixpoint: every node starts labeled with itself; each round every node takes
the min label among itself and its neighbors; at fixpoint each connected
component carries its lexicographically-smallest url as the canonical id.
Convergence is bounded by the component diameter (near-dup clusters are
shallow — usually 1-2 rounds).

Dataflow per round (all shuffles, no driver-side graph):

    messages = edges ⋈ labels (on src)        -> (node=dst, candidate label)
    labels'  = (messages ∪ labels) groupby(node) min(label)
    changed  = labels' ⋈ labels, count(label' != label)   [fixpoint test]

``labels`` is materialized each round — an iterative algorithm must pin its
frontier or every round re-executes the whole lineage. The edge list is the
near-dup pair set (tiny relative to the corpus: only pages with a duplicate
appear), so the loop shuffles only the duplicate subgraph; the full corpus
is touched exactly once at the end by a left join attaching canon=self to
singleton pages.

Skew note (north_rule hazard): a viral page duplicated across millions of
urls makes one giant component whose min-label groupby key is hot. The
min-label aggregate (``_min_label``) combines per block BEFORE the shuffle
(one row per node leaves each block) — the salting-free mitigation for
associative aggregates — and the post-shuffle combine is one vectorized
C++ hash aggregation per bucket (shuffle.bucket_aggregate).

Reference analog: none — the reference's only dedup is the trx-echo filter
(quad-logger/sql-proc/parse_trx_logs.sql:102-109); this is the new-engine
capability the north_star adds on top.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.sources.pages import read_pages
from virtuoso_quad_log_ray.stages.dedup import _hash128, ngram_jaccard_pairs, ngram_jaccard_sql
from virtuoso_quad_log_ray.stages.shuffle import (
    arrow_join,
    blocks_of,
    bucket_aggregate,
    co_bucket,
    merge_buckets,
)


def _min_label(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(node, label) rows -> one (node, min label) row per node.

    Bucketed vectorized aggregate (shuffle.bucket_aggregate): when nodes
    are url strings a vectorized 64-bit content hash column provides the
    bucket key; for int64 node ids (the fixpoint's internal form, see
    connected_components) the id itself is the bucket key. The combine is
    one C++ hash aggregation per bucket — Ray's native Min aggregate
    combines per row in Python (measured ~100us/row).
    """

    def add_h(b: pa.Table) -> pa.Table:
        node_t = b.schema.field("node").type
        if len(b) == 0:
            return pa.table(
                {
                    "node": pa.array([], type=node_t),
                    "label": pa.array([], type=b.schema.field("label").type),
                    "nh": pa.array([], type=pa.int64()),
                }
            )
        # map-side combiner: one row per node leaves each block — the
        # hot-key (giant component) mitigation for an associative min
        g = b.select(["node", "label"]).group_by(["node"]).aggregate([("label", "min")])
        t = pa.table({"node": g["node"], "label": g["label_min"]})
        if pa.types.is_integer(node_t):
            nh = pc.cast(t["node"], pa.int64())
        else:
            h1, _ = _hash128(t["node"])
            nh = pa.array(h1)
        return t.append_column("nh", nh)

    keyed = ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True)
    agg = bucket_aggregate(keyed, ["node"], [("label", "min")], hash_col="nh")
    return agg.map_batches(
        lambda b: pa.table({"node": b["node"], "label": b["label_min"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _rank_nodes(distinct_nodes: ray.data.Dataset) -> ray.data.Dataset:
    """(node) string Dataset -> (node, nid) with nid = dense 0-based rank
    in ascending node order — a distributed zip-with-index.

    Rank order == url order, so ``min nid`` over a component IS its min
    url: the fixpoint can propagate 8-byte ids and still produce the
    lexicographic canon. Ray Data has no scan/rank operator, so this drops
    to raw tasks for exactly the part the Dataset API can't express: after
    a sort, each block's row COUNT comes from its ref bundle's metadata, a
    cumsum on the driver turns the counts into block offsets, and one tiny
    task per block appends offset+arange. Block payloads never touch the
    driver. Zero-row blocks (empty sort partitions, which carry no schema)
    are skipped by their metadata, as in ``shuffle.blocks_of``."""
    import numpy as np

    blocks = [
        (ref, meta.num_rows)
        for bundle in distinct_nodes.sort("node").iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]

    @ray.remote(num_cpus=0.25)
    def _with_ids(t: pa.Table, off: int) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "nid": pa.array(np.arange(off, off + t.num_rows, dtype=np.int64)),
            }
        )

    offsets = np.cumsum([0] + [n for _, n in blocks[:-1]])
    return ray.data.from_arrow_refs(
        [_with_ids.remote(ref, int(off)) for (ref, _), off in zip(blocks, offsets)]
    )


def _ids_as(node_ids: ray.data.Dataset, node: str, nid: str) -> ray.data.Dataset:
    """The (node, nid) table of :func:`_rank_nodes` with its two columns
    renamed to ``node`` and ``nid``, the join side of an id translation."""
    return node_ids.map_batches(
        lambda b: pa.table({node: b["node"], nid: b["nid"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def connected_components(
    pairs: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    max_rounds: int = 25,
    driver_threshold: int = 2_000_000,
) -> ray.data.Dataset:
    """(url_a, url_b) pair Dataset -> (url, canon) for every url in a pair.

    canon = min url of the connected component (deterministic).

    Adaptive execution: the near-dup PAIR set is tiny relative to the corpus
    (only pages with a duplicate appear), so when it fits comfortably on the
    driver (<= driver_threshold edges) a local union-find finishes in
    milliseconds — every shuffle round saved. Larger graphs run the
    distributed min-label-propagation fixpoint below. This is the standard
    production hybrid (e.g. GraphFrames/Spark CC ends with a local solve);
    both paths produce identical output (asserted in tests).
    """
    # consumed 2-3x below (count + either path): materialize once
    pairs = pairs.materialize()
    n_edges = pairs.count()
    if n_edges <= driver_threshold:
        edges = [
            (a, b)
            for t in blocks_of(pairs)
            for a, b in zip(t["url_a"].to_pylist(), t["url_b"].to_pylist())
        ]
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by label order keeps canon = component min
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        nodes = sorted(set(parent) | {u for edge in edges for u in edge})
        table = pa.table(
            {
                "url": pa.array(nodes, type=pa.string()),
                "canon": pa.array([find(u) for u in nodes], type=pa.string()),
            }
        )
        return ray.data.from_arrow(table)

    # ---- int-id translation (round-4): the fixpoint below shuffles its
    # edge+label rows EVERY round, so node identity is first densely
    # re-keyed to an int64 rank in url order (_rank_nodes): exchange rows
    # shrink from two ~100-byte urls to 16 bytes, joins and group_bys key
    # on fixed-width ints, and — because rank order == url order —
    # ``min nid`` still yields the lexicographic canon url. Strings cross
    # a shuffle exactly three times total (two edge-translation joins in,
    # one label-translation join out), independent of round count. Every
    # join is a ``co_bucket`` exchange over ``merge_buckets()`` buckets.
    def endpoint_nodes(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [
                b["url_a"].combine_chunks().cast(pa.string()),
                b["url_b"].combine_chunks().cast(pa.string()),
            ]
        )
        return pa.table({"node": nodes, "label": nodes})

    distinct_nodes = _min_label(
        pairs.map_batches(endpoint_nodes, batch_format="pyarrow", zero_copy_batch=True)
    ).map_batches(
        lambda b: b.select(["node"]), batch_format="pyarrow", zero_copy_batch=True
    )
    node_ids = _rank_nodes(distinct_nodes).materialize()  # (node, nid)

    nb = merge_buckets()
    with_a = co_bucket(
        pairs, _ids_as(node_ids, "url_a", "aid"), "url_a", nb, arrow_join("url_a")
    )
    int_pairs = co_bucket(
        with_a, _ids_as(node_ids, "url_b", "bid"), "url_b", nb, arrow_join("url_b")
    )

    def symmetrize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        b["aid"].combine_chunks().cast(pa.int64()),
                        b["bid"].combine_chunks().cast(pa.int64()),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        b["bid"].combine_chunks().cast(pa.int64()),
                        b["aid"].combine_chunks().cast(pa.int64()),
                    ]
                ),
            }
        )

    # reused every round: pin once
    edges = int_pairs.map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # labels0: every endpoint labeled with itself (distinct via groupby)
    labels = _min_label(
        edges.map_batches(
            lambda b: pa.table({"node": b["src"], "label": b["src"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    ).materialize()

    for _ in range(max_rounds):
        # propagate: neighbor labels flow along edges (src's label -> dst)
        messages = co_bucket(
            edges,
            labels.map_batches(
                lambda b: pa.table({"src": b["node"], "label": b["label"]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            "src",
            nb,
            arrow_join("src"),
        ).map_batches(
            lambda b: pa.table({"node": b["dst"], "label": b["label"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        new_labels = _min_label(messages.union(labels)).materialize()
        # fixpoint test: any label decreased this round?
        changed = (
            co_bucket(
                new_labels,
                labels.map_batches(
                    lambda b: pa.table({"node": b["node"], "old": b["label"]}),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                ),
                "node",
                nb,
                arrow_join("node"),
            )
            .map_batches(
                lambda b: b.filter(pc.not_equal(b["label"], b["old"])),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .count()
        )
        labels = new_labels
        if changed == 0:
            break

    # translate (nid, min nid) back to (url, canon url): one join per side
    # against the metadata-sized id table
    with_url = co_bucket(
        labels, _ids_as(node_ids, "node_url", "node"), "node", nb, arrow_join("node")
    )
    return (
        co_bucket(
            with_url, _ids_as(node_ids, "canon", "label"), "label", nb, arrow_join("label")
        )
        .map_batches(
            lambda b: pa.table({"url": b["node_url"], "canon": b["canon"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def canonicalize_pages(
    sf_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    max_shingle_freq: int | None = None,
) -> ray.data.Dataset:
    """(url, canon_url) for EVERY page: component-min url for pages in a
    near-dup cluster (n-gram Jaccard >= threshold; identical texts have J=1
    so exact mirrors cluster too), canon=self for singletons.

    The full corpus is touched once, by the final left join; only the dup
    subgraph iterates. ``max_shingle_freq`` passes the hot-shingle
    document-frequency cap through to the pair miner — the skew mitigation
    for boilerplate-heavy corpora (see ngram_jaccard_pairs; exercised
    end-to-end in tests/test_dedup.py::TestSkewCap)."""
    pairs = ngram_jaccard_pairs(sf_dir, cfg, max_shingle_freq=max_shingle_freq)
    comp = connected_components(pairs, cfg).materialize()

    pages = read_pages(sf_dir, include_html=False).map_batches(
        lambda b: b.select(["url"]), batch_format="pyarrow", zero_copy_batch=True
    )

    # Attach canon to the full corpus. The component map covers only pages
    # WITH a duplicate — small — so broadcast it (ray.put once, vectorized
    # index_in per batch) instead of shuffling the whole corpus through a
    # left join; fall back to the bucketed join if it ever outgrows the
    # driver.
    if comp.count() <= 2_000_000:
        blocks = blocks_of(comp)
        map_ref = ray.put(
            tuple(
                pa.chunked_array([t[c] for t in blocks], type=pa.string()).combine_chunks()
                for c in ("url", "canon")
            )
        )

        def finish_bcast(b: pa.Table) -> pa.Table:
            keys, vals = ray.get(map_ref)
            idx = pc.index_in(b["url"], keys)
            canon = pc.coalesce(pc.take(vals, idx), b["url"])
            return pa.table({"url": b["url"], "canon_url": canon})

        return pages.map_batches(finish_bcast, batch_format="pyarrow", zero_copy_batch=True)

    joined = co_bucket(pages, comp, "url", merge_buckets(), arrow_join("url", "left outer"))

    def finish(b: pa.Table) -> pa.Table:
        canon = pc.coalesce(b["canon"], b["url"])
        return pa.table({"url": b["url"], "canon_url": canon})

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def canonicalize_sql(threshold: float, shingle_size: int) -> str:
    """DuckDB oracle: transitive closure by recursive CTE, canon = min
    reachable url (UNION-dedup recursion terminates on the closure)."""
    jp = ngram_jaccard_sql(threshold, shingle_size)
    return (
        "WITH RECURSIVE jp AS (\n" + jp + "\n),\n"
        "edges AS (SELECT url_a AS a, url_b AS b FROM jp\n"
        "          UNION ALL SELECT url_b, url_a FROM jp),\n"
        "allpages AS (" + _PAGES_URLS_SQL + "),\n"
        "reach(u, r) AS (\n"
        "    SELECT url, url FROM allpages\n"
        "    UNION\n"
        "    SELECT e.b, reach.r FROM reach JOIN edges e ON e.a = reach.u\n"
        ")\n"
        "SELECT u AS url, min(r) AS canon_url FROM reach GROUP BY u"
    )


# all page urls (the pages CTE is embedded inside the jp subquery, so restate
# the url synthesis here; keep lockstep with sources/pages.py)
_PAGES_URLS_SQL = (
    "SELECT 'https://example.org/' || source || '/' || doc_id AS url FROM documents\n"
    "    UNION ALL\n"
    "    SELECT 'https://example.org/' || source || '/' || doc_id || '?mirror=1' FROM documents WHERE doc_id % 25 = 0\n"
    "    UNION ALL\n"
    "    SELECT 'https://example.org/' || source || '/' || doc_id || '?v=2' FROM documents WHERE doc_id % 31 = 1"
)
