"""Graph analytics over entity/page graphs: weighted PageRank.

The reference stops at emitting the quad stream; a KG build consuming that
stream immediately wants node-importance scores over the derived entity
graph (entity ranking for disambiguation, salience-weighted sampling of
training pages). This module adds the standard one — PageRank over the
weighted co-occurrence graph — with the same adaptive execution shape as
``canonicalize.connected_components``: the edge set of a real corpus is
alias-dictionary-sized, tiny relative to the corpus, so when it fits on the
driver a dense numpy power iteration finishes in milliseconds; larger
graphs run a distributed join/aggregate fixpoint whose per-round exchange
carries only 16-byte (int64 nid, float64 rank) rows. Both paths produce
the same scores (asserted in tests against an independent dense reference).

Undirected weighted semantics: each edge (a, b, w) contributes in BOTH
directions, so the random walk is over the symmetrized graph and there are
no dangling nodes by construction (every node in an edge has out-weight).
Isolated nodes never enter the edge list and are excluded, matching the
co-occurrence source (an entity mentioned alone on every page has no
co-mention evidence to rank with).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.stages.shuffle import (
    arrow_join,
    blocks_of,
    bucket_aggregate,
    co_bucket,
    merge_buckets,
)


def _driver_pagerank(
    edges_t: pa.Table, iters: int, damping: float
) -> pa.Table:
    """Dense power iteration on the driver — edge table already symmetric."""
    src = edges_t["node_a"].combine_chunks()
    dst = edges_t["node_b"].combine_chunks()
    w = edges_t["w"].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
    both = pa.concat_arrays([src.cast(pa.string()), dst.cast(pa.string())])
    d = both.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False)
    n_edges = len(src)
    s_idx, d_idx = codes[:n_edges], codes[n_edges:]
    # symmetrize: contributions flow a->b and b->a
    s_all = np.concatenate([s_idx, d_idx])
    d_all = np.concatenate([d_idx, s_idx])
    w_all = np.concatenate([w, w])
    n = len(d.dictionary)
    out_w = np.zeros(n, dtype=np.float64)
    np.add.at(out_w, s_all, w_all)
    share = w_all / out_w[s_all]
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    base = (1.0 - damping) / n
    for _ in range(iters):
        contrib = np.zeros(n, dtype=np.float64)
        np.add.at(contrib, d_all, share * rank[s_all])
        rank = base + damping * contrib
    # deterministic output order: node-name ascending
    order = pc.array_sort_indices(d.dictionary)
    return pa.table(
        {
            "node": pc.take(d.dictionary, order),
            "rank": pa.array(rank[order.to_numpy(zero_copy_only=False)]),
        }
    )


def pagerank(
    pairs: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    a_col: str = "node_a",
    b_col: str = "node_b",
    weight_col: str = "w",
    iters: int = 20,
    damping: float = 0.85,
    driver_threshold: int = 2_000_000,
) -> ray.data.Dataset:
    """Weighted undirected PageRank: (a, b, w) pair Dataset -> (node, rank).

    Distributed path (edge count > ``driver_threshold``): node ids are
    densely re-keyed to int64 ranks once (``canonicalize._rank_nodes`` — the
    distributed zip-with-index), the symmetric edge table is joined to its
    per-source out-weight ONCE and pinned with precomputed transition shares,
    and each of the ``iters`` rounds is one ``co_bucket`` join (edges x
    ranks on src)
    plus one ``bucket_aggregate`` sum keyed on dst — the exchange carries
    (int64, float64) rows only, never node strings. Strings cross a shuffle
    exactly three times total (two edge-translation joins in, one
    label-translation join out), independent of iteration count — the same
    contract as connected_components.
    """
    from virtuoso_quad_log_ray.stages.canonicalize import _ids_as, _min_label, _rank_nodes

    def normed(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node_a": b[a_col].combine_chunks().cast(pa.string())
                if isinstance(b[a_col], pa.ChunkedArray)
                else b[a_col].cast(pa.string()),
                "node_b": b[b_col].combine_chunks().cast(pa.string())
                if isinstance(b[b_col], pa.ChunkedArray)
                else b[b_col].cast(pa.string()),
                "w": pc.cast(b[weight_col], pa.float64()),
            }
        )

    # consumed 2-3x below (count + either path): materialize once
    pairs = pairs.map_batches(normed, batch_format="pyarrow", zero_copy_batch=True).materialize()
    n_edges = pairs.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        )
    if n_edges <= driver_threshold:
        edges_t = pa.concat_tables(blocks_of(pairs))
        return ray.data.from_arrow(_driver_pagerank(edges_t, iters, damping))

    # ---- distributed fixpoint ----
    def endpoint_nodes(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [b["node_a"].combine_chunks(), b["node_b"].combine_chunks()]
        )
        return pa.table({"node": nodes, "label": nodes})

    distinct_nodes = _min_label(
        pairs.map_batches(endpoint_nodes, batch_format="pyarrow", zero_copy_batch=True)
    ).map_batches(
        lambda b: b.select(["node"]), batch_format="pyarrow", zero_copy_batch=True
    )
    node_ids = _rank_nodes(distinct_nodes).materialize()  # (node, nid)
    n_nodes = node_ids.count()

    nb = merge_buckets()
    with_a = co_bucket(
        pairs, _ids_as(node_ids, "node_a", "aid"), "node_a", nb, arrow_join("node_a")
    )
    int_pairs = co_bucket(
        with_a, _ids_as(node_ids, "node_b", "bid"), "node_b", nb, arrow_join("node_b")
    )

    def symmetrize(b: pa.Table) -> pa.Table:
        aid = b["aid"].combine_chunks().cast(pa.int64())
        bid = b["bid"].combine_chunks().cast(pa.int64())
        w = b["w"].combine_chunks()
        ww = pa.concat_arrays([w, w])
        return pa.table(
            {
                "src": pa.concat_arrays([aid, bid]),
                "dst": pa.concat_arrays([bid, aid]),
                "w": ww,
            }
        )

    sym = int_pairs.map_batches(symmetrize, batch_format="pyarrow", zero_copy_batch=True)
    out_w = bucket_aggregate(sym, ["src"], [("w", "sum")])

    def share_fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": b["src"],
                "dst": b["dst"],
                "share": pc.divide(b["w"], b["w_sum"]),
            }
        )

    edges = (
        co_bucket(sym, out_w, "src", nb, arrow_join("src"))
        .map_batches(share_fn, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # reused every round; pin the share table once
    )

    base = (1.0 - damping) / n_nodes

    def init_rank(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": b["nid"].combine_chunks().cast(pa.int64())
                if isinstance(b["nid"], pa.ChunkedArray)
                else b["nid"].cast(pa.int64()),
                "rank": pa.array(
                    np.full(len(b), 1.0 / n_nodes, dtype=np.float64)
                ),
            }
        )

    ranks = node_ids.map_batches(
        init_rank, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    for _ in range(iters):
        def contrib_fn(b: pa.Table) -> pa.Table:
            return pa.table(
                {"dst": b["dst"], "c": pc.multiply(b["share"], b["rank"])}
            )

        contrib = bucket_aggregate(
            co_bucket(edges, ranks, "src", nb, arrow_join("src")).map_batches(
                contrib_fn, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["dst"],
            [("c", "sum")],
        )

        def new_rank(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": b["dst"],
                    "rank": pc.add(
                        pc.multiply(b["c_sum"], damping), pa.scalar(base)
                    ),
                }
            )

        # symmetric graph: every node is some edge's dst, so the aggregate
        # covers all n_nodes and no outer-join backfill round is needed
        ranks = contrib.map_batches(
            new_rank, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "rank": b["rank"]})

    by_nid = ranks.map_batches(
        lambda b: pa.table({"nid": b["src"], "rank": b["rank"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return co_bucket(by_nid, node_ids, "nid", nb, arrow_join("nid")).map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True
    )
