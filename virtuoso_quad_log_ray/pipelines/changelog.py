"""Quad changelog: rdfpatch +/- records via anti-join of snapshots.

The reference gets its changelog for free from Virtuoso's transaction log
(opcode decode -> '+'/'-', quad-logger/sql-proc/parse_trx_logs.sql:88-101).
The new engine derives it explicitly (north_rule): given the quad set at the
prior checkpoint and the quad set now,

    added   = new  LEFT-ANTI prev   -> op '+'
    deleted = prev LEFT-ANTI new    -> op '-'

on the multi-column quad key (s,p,o,g). Two forms compute it:

* ``diff_bucket`` — the snapshot-backed sync (pipelines/runs.py). The
  stored snapshot, the new snapshot and the patch sink share one
  partitioning, ``hash(g) % n_buckets``, so the diff needs no exchange:
  inside the ONE ``groupby(bucket)`` task that writes the new snapshot's
  shard, the prior snapshot's shard for the same bucket is read straight
  from disk and both anti-join directions run as local Arrow hash joins.
  Work per bucket is bounded by that bucket, not by the corpus.
* ``diff_quads`` — the recompute path and the oracle diff: ONE
  ``full_outer`` Ray Data hash-shuffle join of two arbitrary quad Datasets
  (no shared partitioning assumed), with both directions falling out of
  presence markers.

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
from virtuoso_quad_log_ray.stages.shuffle import join_kwargs
from virtuoso_quad_log_ray.sources.pages import PAGES_SQL_CTE, pa_mod
from virtuoso_quad_log_ray.stages.extract_triples import extract_triples

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
    were keyed by the same ``hash(g) % n_buckets`` — the exchange-free
    form of :func:`diff_quads` (see the module docstring). Duplicate rows
    survive like in the ``full_outer`` form; null keys never match."""
    added = new.join(prev, keys=QUAD_COLS, join_type="left anti")
    deleted = prev.join(new, keys=QUAD_COLS, join_type="left anti")
    return pa.concat_tables([with_op(deleted, "-"), with_op(added, "+")])


def diff_quads(
    prev: ray.data.Dataset,
    new: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> ray.data.Dataset:
    """(prev, new) quad sets -> changelog (op, s, p, o, g).

    ONE full_outer hash-shuffle join on the (s,p,o,g) multi-column key with
    presence markers on each side — both anti-join directions fall out of a
    single shuffle (rows missing on the right are '+', missing on the left
    are '-'). The partition count is sized to
    the live cluster: each join partition is a 1-CPU aggregator actor, so
    asking for more partitions than cores deadlocks a small cluster and
    oversubscribes a big one.
    """

    def keyed(marker: str):
        def fn(b: pa.Table) -> pa.Table:
            # multi-column join key (s,p,o,g) — never a packed separator key:
            # U+001F survives the escape chain, so packing would corrupt
            # literals containing it (ADVICE r1, kg.py quad_key finding)
            return pa.table(
                {
                    "s": b["s"],
                    "p": b["p"],
                    "o": b["o"],
                    "g": b["g"],
                    marker: pa.array(np.ones(len(b), dtype=np.int8)),
                }
            )

        return fn

    new_k = new.map_batches(keyed("in_new"), batch_format="pyarrow", zero_copy_batch=True)
    prev_k = prev.map_batches(keyed("in_prev"), batch_format="pyarrow", zero_copy_batch=True)
    joined = new_k.join(
        prev_k, join_type="full_outer", on=("s", "p", "o", "g"), **join_kwargs(cfg)
    )

    def to_changelog(batch: pa.Table) -> pa.Table:
        added = pc.is_null(batch["in_prev"])
        deleted = pc.is_null(batch["in_new"])
        changed = batch.filter(pc.or_(added, deleted))
        op = pc.if_else(
            pc.is_null(changed["in_prev"]),
            pa.scalar("+", type=pa.string()),
            pa.scalar("-", type=pa.string()),
        )
        return pa.table(
            {
                "op": op,
                "s": changed["s"],
                "p": changed["p"],
                "o": changed["o"],
                "g": changed["g"],
            }
        )

    return joined.map_batches(to_changelog, batch_format="pyarrow", zero_copy_batch=True)


def _empty_quads(with_op: bool = False) -> ray.data.Dataset:
    cols: dict = {"op": pa.array([], type=pa.string())} if with_op else {}
    cols.update({c: pa.array([], type=pa.string()) for c in ("s", "p", "o", "g")})
    return ray.data.from_arrow(pa.table(cols))


def changelog(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """The v1 -> v2 changelog over the deterministic snapshot pair."""
    from virtuoso_quad_log_ray.sources.pages import corpus_num_rows

    if corpus_num_rows(sf_dir) == 0:
        # footer-metadata probe (no extra pipeline pass): Ray's hash join
        # cannot resolve key fields over a fully empty, schemaless input
        return _empty_quads(with_op=True)
    return diff_quads(quads_version(sf_dir, 1, cfg), quads_version(sf_dir, 2, cfg), cfg)


def changelog_stats(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """A2 — insert/delete tally over the changelog (the reference counts
    +/- RDF_QUAD rows per trx file as its consistency probe,
    dump_nquads.sql:98-143)."""
    return (
        changelog(sf_dir, cfg)
        .groupby("op")
        .count()
        .rename_columns({"count()": "n_records"})
    )


def changelog_stats_sql() -> str:
    return (
        "SELECT op, count(*) AS n_records FROM (\n"
        + changelog_sql()
        + "\n) GROUP BY op"
    )


def apply_changelog(prev: pa.Table, log: pa.Table) -> pa.Table:
    """RDF-patch application semantics (retract then assert) for property
    tests: apply(quads_v1, changelog) == quads_v2 as sets (FIXTURES.md F7)."""
    def keys(t: pa.Table) -> pa.Array:
        return pc.binary_join_element_wise(t["s"], t["p"], t["o"], t["g"], "\x1f")

    minus = log.filter(pc.equal(log["op"], "-"))
    plus = log.filter(pc.equal(log["op"], "+"))
    retained = prev.filter(pc.invert(pc.is_in(keys(prev), value_set=keys(minus).combine_chunks())))
    added = plus.select(["s", "p", "o", "g"])
    return pa.concat_tables([retained.select(["s", "p", "o", "g"]), added])


def replay_state(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> ray.data.Dataset:
    """Distributed rdfpatch APPLY — the CONSUMER side of the changelog.

    The reference's patch files exist so a downstream quad store can replay
    them (+/- retract-then-assert, MOTIVATION.md:40-71; the sample consumer
    applies rdfpatch files in checkpoint order). This is that application
    run as a Dataset pipeline over the corpus-sized prior snapshot:

        retained = snapshot_v1  LEFT-ANTI  deletes('-')   # one hash join on
                                                          # the (s,p,o,g) key
        replayed = retained  UNION  inserts('+')

    and the correctness contract is the strongest one available: the oracle
    recomputes snapshot v2 by FRESH extraction, so replay(v1, log) must equal
    re-crawl-and-re-extract row for row (FIXTURES.md F7 closure property —
    the driver-side pa.Table twin is ``apply_changelog`` above).

    Scale shape: the snapshot is corpus-sized but streams through the anti
    join's hash exchange; the changelog is delta-sized, so it is pinned once
    (``self_join_input``) and feeds both the retract and assert branches —
    at 100 TB the production form checkpoints the patch run to Parquet (the
    publish sink already does) and reads it twice, never re-deriving it.
    """
    from virtuoso_quad_log_ray.sources.pages import corpus_num_rows
    from virtuoso_quad_log_ray.stages.shuffle import self_join_input

    if corpus_num_rows(sf_dir) == 0:  # see changelog(): empty-join guard
        return _empty_quads()

    prev = quads_version(sf_dir, 1, cfg)
    log = self_join_input(changelog(sf_dir, cfg))

    def only(opch: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["op"], opch)).select(["s", "p", "o", "g"])

        return fn

    deletes = log.map_batches(only("-"), batch_format="pyarrow", zero_copy_batch=True)
    inserts = log.map_batches(only("+"), batch_format="pyarrow", zero_copy_batch=True)
    retained = prev.join(
        deletes, join_type="left_anti", on=("s", "p", "o", "g"), **join_kwargs(cfg)
    )
    return retained.union(inserts)


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
