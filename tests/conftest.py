import duckdb
import pytest
import ray
import ray.data

SF_SMALL = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def oracle():
    """DuckDB connection with the testdata tables registered as views
    (mirrors the driver's correctness harness)."""
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings".split()
    ):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_SMALL}/{t}.parquet'")
    yield con
    con.close()


def to_arrow(result):
    """Normalize a Dataset / DataFrame / Table to a pyarrow Table."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        from virtuoso_quad_log_ray.stages.shuffle import blocks_of

        # one execution; zero-row blocks (aggregate stages can emit them
        # with an empty schema) are skipped, as to_pandas/take_all do
        tables = blocks_of(result)
        if not tables:  # fully empty dataset: recover the schema if any
            sch = result.schema()
            base = getattr(sch, "base_schema", None) if sch is not None else None
            return base.empty_table() if base is not None else pa.table({})
        return pa.concat_tables(tables).combine_chunks()
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    return result


def assert_matches_oracle(ray_result, con, sql, sort_cols):
    """Row-for-row equality against the DuckDB oracle (column-name aligned,
    order-insensitive) — the driver's comparison, strengthened."""
    a_t = to_arrow(ray_result)
    b_t = con.sql(sql).arrow()
    assert sorted(a_t.column_names) == sorted(b_t.column_names), (
        a_t.column_names,
        b_t.column_names,
    )
    a = a_t.to_pandas().sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    b = b_t.to_pandas().sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    assert len(a) == len(b), f"row count {len(a)} != {len(b)}"
    for c in sorted(a_t.column_names):
        av, bv = a[c].astype(str).values, b[c].astype(str).values
        bad = av != bv
        assert not bad.any(), f"col {c}: {av[bad][:3]} != {bv[bad][:3]}"


RESUMABLE_SINKS = ["materialize", "jsonl", "warc"]


def resumable_sink(name):
    """``(write, rows, shard, keys)`` of a sink with same-epoch per-bucket
    resume: its writer, a fresh input Dataset, the file name of bucket K
    and the row keys stored in one shard file."""
    import json

    import pyarrow.parquet as pq

    from virtuoso_quad_log_ray.pipelines import kg
    from virtuoso_quad_log_ray.pipelines.materialize import bucket_rel, materialize_quads
    from virtuoso_quad_log_ray.sources.pages import read_pages, write_jsonl_corpus
    from virtuoso_quad_log_ray.sources.warc import parse_warc_bytes, write_warc_corpus

    def quad_keys(path):
        t = pq.read_table(path)
        return list(zip(*[t[c].to_pylist() for c in ("s", "p", "o", "g")]))

    def jsonl_keys(path):
        with open(path) as f:
            return [json.loads(line)["url"] for line in f]

    def warc_keys(path):
        with open(path, "rb") as f:
            return [r["url"] for r in parse_warc_bytes(f.read())]

    return {
        "materialize": (
            materialize_quads,
            lambda: kg.dedup_quads(kg.build_quads(SF_SMALL)),
            bucket_rel,
            quad_keys,
        ),
        "jsonl": (
            write_jsonl_corpus,
            lambda: read_pages(SF_SMALL, include_html=False),
            lambda k: f"shard-{k:05d}.jsonl",
            jsonl_keys,
        ),
        "warc": (
            write_warc_corpus,
            lambda: read_pages(SF_SMALL, include_html=True),
            lambda k: f"shard-{k:05d}.warc",
            warc_keys,
        ),
    }[name]
