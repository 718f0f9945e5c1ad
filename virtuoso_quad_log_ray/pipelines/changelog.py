"""Quad changelog: rdfpatch +/- records via anti-join of snapshots.

The reference gets its changelog for free from Virtuoso's transaction log
(opcode decode -> '+'/'-', quad-logger/sql-proc/parse_trx_logs.sql:88-101).
The new engine derives it explicitly (north_rule): given the quad set at the
prior checkpoint and the quad set now,

    added   = new  LEFT-ANTI prev   -> op '+'
    deleted = prev LEFT-ANTI new    -> op '-'

on the multi-column quad key (s,p,o,g). Both directions are local Arrow
hash joins over ONE bucket (``diff_bucket``): prior and new quads are
keyed by the same ``hash(g) % n_buckets``, so every quad of a graph meets
its counterpart in the same bucket task and the diff needs no join
exchange. Work per bucket is bounded by that bucket, not by the corpus.
Two callers feed the buckets:

* every sync (pipelines/runs.py): inside the ONE bucket task that
  writes the new snapshot's shard, the prior
  snapshot's shard for the same bucket is read straight from disk;
* ``diff_quads`` and ``replay_state``: two arbitrary quad Datasets are
  co-partitioned by graph in one ``shuffle.co_bucket`` exchange
  (``_paired``), the co-partitioning that turns a shuffle join into local
  per-partition joins.

Ordering within a patch file is (warc-ts-free) deterministic: ('-' before
'+', then s, p, o, g), mirroring retract-then-assert RDF-patch application
semantics (MOTIVATION.md:40-71) and the reference's ascending trx-log
order (parse_trx_logs.sql:53-64).

Snapshot construction for tests/oracle: two deterministic "crawl states" of
the pages table (v1 = earlier crawl missing some docs; v2 = current crawl
with some docs deleted and some re-crawled with mutated content) — the
FIXTURES.md F7 scenario, expressed as pure filters/mutations of the same
input so the DuckDB oracle reproduces both sides exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig
from virtuoso_quad_log_ray.pipelines.kg import QUADS_SQL_CTE
from virtuoso_quad_log_ray.sources.pages import PAGES_SQL_CTE, pa_mod
from virtuoso_quad_log_ray.stages.extract_triples import QUADS_SCHEMA, extract_triples

# v1: docs with doc_id % 13 == 3 not yet crawled.
# v2: docs with doc_id % 17 == 5 dropped; doc_id % 10 == 0 re-crawled with
#     ' delta spark' appended (changes tokenCount, may add a Spark mention).
V1_DOC_FILTER = "doc_id % 13 <> 3"
V2_DOC_FILTER = "doc_id % 17 <> 5"
V2_MUTATION_PRED = "doc_id % 10 = 0"
V2_TEXT_SUFFIX = " delta spark"


def _pages_version(sf_dir: str, version: int) -> ray.data.Dataset:
    """Deterministic snapshot v1/v2 of the pages table (no html — changelog
    runs on post-extraction text)."""
    import ray.data as rd

    from virtuoso_quad_log_ray.sources.pages import _synth_batch

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"])

    def prepare(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"]
        if version == 1:
            keep = pc.not_equal(pa_mod(doc_id, 13), 3)
            return batch.filter(keep)
        keep = pc.not_equal(pa_mod(doc_id, 17), 5)
        batch = batch.filter(keep)
        mutate = pc.equal(pa_mod(batch["doc_id"], 10), 0)
        text = pc.if_else(
            mutate,
            pc.binary_join_element_wise(batch["text"], V2_TEXT_SUFFIX, ""),
            batch["text"],
        )
        return batch.set_column(batch.schema.get_field_index("text"), "text", text)

    pages = docs.map_batches(prepare, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        _synth_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return pages.drop_columns(["html"])


def quads_version(sf_dir: str, version: int, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    return extract_triples(_pages_version(sf_dir, version), batch_size=cfg.quads_batch_size)


QUAD_COLS = ["s", "p", "o", "g"]


def with_op(quads: pa.Table, op: str) -> pa.Table:
    """(s, p, o, g) table -> (op, s, p, o, g) changelog rows of one op."""
    t = quads.select(QUAD_COLS)
    return t.add_column(0, "op", pa.array([op] * len(t), type=pa.string()))


def diff_bucket(prev: pa.Table, new: pa.Table) -> pa.Table:
    """Changelog (op, s, p, o, g) of ONE bucket whose prior and new quads
    were keyed by the same ``hash(g) % n_buckets`` (see the module
    docstring). Duplicate rows survive (bag semantics: a quad held twice
    on one side and absent on the other is emitted twice); null keys
    never match."""
    added = new.join(prev, keys=QUAD_COLS, join_type="left anti")
    deleted = prev.join(new, keys=QUAD_COLS, join_type="left anti")
    return pa.concat_tables([with_op(deleted, "-"), with_op(added, "+")])


def _paired(prev: ray.data.Dataset, new: ray.data.Dataset, fn) -> ray.data.Dataset:
    """Co-partition two quad Datasets by graph and run ``fn(prev_rows,
    new_rows)`` (two (s, p, o, g) tables) once per bucket of ONE
    ``co_bucket`` exchange — no join aggregators, so it runs on a 1-CPU
    cluster. A side with no rows at all is the empty quad table; when
    both are empty the result is an empty Dataset."""
    from virtuoso_quad_log_ray.stages.shuffle import co_bucket, default_n_buckets

    def quads(rows: pa.Table | None) -> pa.Table:
        if rows is None:
            return QUADS_SCHEMA.empty_table()
        return rows.select(QUADS_SCHEMA.names).cast(QUADS_SCHEMA)

    return co_bucket(
        prev, new, "g", default_n_buckets(), lambda p, n: fn(quads(p), quads(n))
    )


# ``cfg`` is read by nothing; feedbench/traced.py is the only caller that passes it.
def diff_quads(
    prev: ray.data.Dataset,
    new: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> ray.data.Dataset:
    """(prev, new) quad sets -> changelog (op, s, p, o, g): ``diff_bucket``
    per graph bucket of one shared shuffle (:func:`_paired`). ``cfg`` is
    accepted for call-site compatibility; the bucket count follows the
    live cluster (``shuffle.default_n_buckets``)."""
    return _paired(prev, new, diff_bucket)


def changelog(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """The v1 -> v2 changelog over the deterministic snapshot pair."""
    return diff_quads(quads_version(sf_dir, 1, cfg), quads_version(sf_dir, 2, cfg), cfg)


def changelog_stats(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """A2 — insert/delete tally over the changelog (the reference counts
    +/- RDF_QUAD rows per trx file as its consistency probe,
    dump_nquads.sql:98-143).

    Each bucket task of :func:`changelog`'s shuffle tallies its own
    changelog into one row per op, and the per-bucket tallies are summed
    in one block, so no Ray aggregate runs. A ``groupby("op").count()``
    over the changelog turned empty blocks into schemaless partial counts
    and warned that a ``count()`` bundle had an empty schema."""
    tallies = _paired(
        quads_version(sf_dir, 1, cfg),
        quads_version(sf_dir, 2, cfg),
        lambda prev, new: _tally(diff_bucket(prev, new)),
    )
    return tallies.repartition(1).map_batches(_sum_tallies, batch_format="pyarrow", batch_size=None)


def _tally(rows: pa.Table) -> pa.Table:
    """(op, n_records) with one row per op of a changelog block, or the
    sum of such tallies; an op without records counts 0."""
    if "n_records" in rows.column_names:
        n = rows["n_records"]
    else:
        n = pa.array(np.ones(len(rows), dtype=np.int64))
    counts = [pc.sum(pc.filter(n, pc.equal(rows["op"], op))).as_py() or 0 for op in ("-", "+")]
    return pa.table({"op": ["-", "+"], "n_records": pa.array(counts, type=pa.int64())})


def _sum_tallies(tallies: pa.Table) -> pa.Table:
    """The changelog's tally: ops with no records are left out, as the
    SQL ``GROUP BY op`` leaves them out."""
    total = _tally(tallies)
    return total.filter(pc.greater(total["n_records"], 0))


def changelog_stats_sql() -> str:
    return (
        "SELECT op, count(*) AS n_records FROM (\n"
        + changelog_sql()
        + "\n) GROUP BY op"
    )


def apply_changelog(prev: pa.Table, log: pa.Table) -> pa.Table:
    """RDF-patch application semantics (retract then assert):
    apply(quads_v1, changelog) == quads_v2 as sets (FIXTURES.md F7).
    Retraction is an Arrow left-anti join on the four quad columns — never
    a packed separator key, which would let a '-' record retract a
    different quad whose columns concatenate to the same string."""
    minus = log.filter(pc.equal(log["op"], "-")).select(QUAD_COLS)
    plus = log.filter(pc.equal(log["op"], "+")).select(QUAD_COLS)
    retained = prev.select(QUAD_COLS).join(minus, keys=QUAD_COLS, join_type="left anti")
    return pa.concat_tables([retained, plus])


def replay_state(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """Distributed rdfpatch APPLY — the CONSUMER side of the changelog.

    The reference's patch files exist so a downstream quad store can replay
    them (+/- retract-then-assert, MOTIVATION.md:40-71; the sample consumer
    applies rdfpatch files in checkpoint order). This is that application
    run over the corpus-sized prior snapshot v1: per graph bucket of ONE
    shared shuffle (:func:`_paired`), the bucket's changelog is derived
    (``diff_bucket``) and applied to the bucket's v1 quads
    (``apply_changelog``). v1 is extracted once and shuffled once; the
    changelog never leaves its bucket task.

    The correctness contract is the strongest one available: the oracle
    recomputes snapshot v2 by FRESH extraction, so replay(v1, log) must
    equal re-crawl-and-re-extract row for row (FIXTURES.md F7 closure
    property).
    """
    return _paired(
        quads_version(sf_dir, 1, cfg),
        quads_version(sf_dir, 2, cfg),
        lambda prev, new: apply_changelog(prev, diff_bucket(prev, new)),
    )


def replay_state_sql() -> str:
    """Oracle: the replayed state must equal a FRESH v2 extraction."""
    return _quads_select(2)


# ---------------------------------------------------------------------------
# Lockstep DuckDB oracle
# ---------------------------------------------------------------------------

def _versioned_pages_cte(version: int) -> str:
    """pages CTE for snapshot v1/v2 (documents filtered/mutated, then the
    standard synthesis incl. clone rows — lockstep with _pages_version)."""
    if version == 1:
        docs = f"SELECT doc_id, text, lang, source FROM documents WHERE {V1_DOC_FILTER}"
    else:
        docs = (
            "SELECT doc_id, "
            f"       CASE WHEN {V2_MUTATION_PRED} THEN text || '{V2_TEXT_SUFFIX}' ELSE text END AS text, "
            "       lang, source "
            f"FROM documents WHERE {V2_DOC_FILTER}"
        )
    body = PAGES_SQL_CTE.replace("FROM documents", "FROM docs")
    return f"docs AS ({docs}),\n{body}"


def versioned_pages_cte_renamed(version: int) -> str:
    """``_versioned_pages_cte`` with CTE names suffixed ``_v{version}`` so
    two snapshot versions can coexist in one WITH clause (the shape every
    incremental-dedup oracle needs)."""
    return (
        _versioned_pages_cte(version)
        .replace("docs", f"docs_v{version}")
        .replace("pages AS", f"pages_v{version} AS")
    )


def _quads_select(version: int) -> str:
    """Standalone SELECT (with its own nested WITH) producing a snapshot's
    quad set — embedded as a CTE body in changelog_sql."""
    return f"WITH {_versioned_pages_cte(version)},\n{QUADS_SQL_CTE}\nSELECT s, p, o, g FROM quads"


def changelog_sql() -> str:
    return (
        f"WITH quads_v1 AS ({_quads_select(1)}),\n"
        f"quads_v2 AS ({_quads_select(2)})\n"
        "SELECT '+' AS op, s, p, o, g FROM (SELECT s, p, o, g FROM quads_v2 EXCEPT SELECT s, p, o, g FROM quads_v1)\n"
        "UNION ALL\n"
        "SELECT '-' AS op, s, p, o, g FROM (SELECT s, p, o, g FROM quads_v1 EXCEPT SELECT s, p, o, g FROM quads_v2)"
    )
