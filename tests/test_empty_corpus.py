"""Empty-corpus behavior: every corpus-facing operator must yield an empty
result (correct schema, no crash). A pair miner that finds no pair returns
a typed empty table (``dedup._typed_pairs``), so it still exposes its
output schema."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import to_arrow

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


EMB_SCHEMA = pa.schema(
    [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float64()))]
)


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("empty_sf"))
    pq.write_table(DOC_SCHEMA.empty_table(), os.path.join(d, "documents.parquet"))
    pq.write_table(EMB_SCHEMA.empty_table(), os.path.join(d, "embeddings.parquet"))
    return d


@pytest.mark.usefixtures("ray_session")
def test_empty_corpus_operators(empty_sf):
    from virtuoso_quad_log_ray.pipelines import kg
    from virtuoso_quad_log_ray.stages import dedup as dd
    from virtuoso_quad_log_ray.stages import textstats as tx
    from virtuoso_quad_log_ray.stages import webstats as ws

    cases = {
        "quads": kg.build_quads(empty_sf),
        "graph_stats": kg.graph_stats(empty_sf),
        "dedup_exact": dd.dedup_pages_exact(empty_sf),
        "ngram": dd.ngram_jaccard_pairs(empty_sf),
        "minhash": dd.minhash_lsh_pairs(empty_sf),
        "simhash": dd.simhash_pairs(empty_sf),
        "lang_id": tx.lang_id(empty_sf),
        "winnow": tx.winnow_fingerprints(empty_sf),
        "quality": tx.text_quality(empty_sf),
        "tfidf_top_terms": tx.tfidf_top_terms(empty_sf),
        "sample_group_k": tx.sample_group_k(empty_sf),
        "corpus_stats_by_lang": tx.corpus_stats_by_lang(empty_sf),
        "text_postings": ws.text_postings(empty_sf),
    }
    for name, ds in cases.items():
        t = to_arrow(ds)
        assert len(t) == 0, name


@pytest.mark.usefixtures("ray_session")
def test_empty_embeddings_operators(empty_sf):
    """Zero-row embeddings table: every similarity entry point yields an
    empty result with its real schema (the dim probe reads no rows)."""
    from virtuoso_quad_log_ray.stages import similarity as sim

    assert sim._emb_dim(os.path.join(empty_sf, "embeddings.parquet")) == 0
    topk = to_arrow(sim.ann_topk(empty_sf))
    assert len(topk) == 0 and topk.column_names == ["query_id", "rank", "neighbor_id"]
    ivf = to_arrow(sim.ann_topk_ivf(empty_sf))
    assert len(ivf) == 0 and ivf.column_names == ["query_id", "rank", "neighbor_id"]
    cl = to_arrow(sim.embedding_clusters(empty_sf))
    assert len(cl) == 0 and cl.column_names == ["vec_id", "cluster"]
    nd = to_arrow(sim.embedding_neardup_pairs(empty_sf))
    assert len(nd) == 0 and nd.column_names == ["vec_a", "vec_b", "cos_ppm"]


@pytest.mark.usefixtures("ray_session")
def test_empty_pair_schemas(empty_sf):
    """Short-circuited pair miners still expose their real output schema."""
    from virtuoso_quad_log_ray.stages import dedup as dd

    assert to_arrow(dd.ngram_jaccard_pairs(empty_sf)).column_names == [
        "url_a",
        "url_b",
        "jaccard_ppm",
    ]
    assert to_arrow(dd.minhash_lsh_pairs(empty_sf)).column_names == [
        "url_a",
        "url_b",
        "est_jaccard_ppm",
    ]


@pytest.mark.usefixtures("ray_session")
def test_empty_corpus_round4_operators(empty_sf):
    """The late-round-4 operators hold the same empty-corpus contract."""
    from virtuoso_quad_log_ray.pipelines import changelog as cl
    from virtuoso_quad_log_ray.pipelines import kg
    from virtuoso_quad_log_ray.stages import dedup as dd
    from virtuoso_quad_log_ray.stages import sketches as sk
    from virtuoso_quad_log_ray.stages import textstats as tx

    cases = {
        "entity_cooccur": kg.entity_cooccur(empty_sf),
        "entity_pagerank": kg.entity_pagerank(empty_sf),
        "state_replay": cl.replay_state(empty_sf),
        "changelog": cl.changelog(empty_sf),
        "dedup_incremental": dd.dedup_incremental(empty_sf),
        "heavy_hitters": sk.heavy_hitters(empty_sf),
        "shuffle_shards": tx.shuffle_shards(empty_sf),
        "corpus_curate": tx.corpus_curate(empty_sf),
    }
    for name, ds in cases.items():
        t = to_arrow(ds)
        assert len(t) == 0, name
