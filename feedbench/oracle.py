"""Correctness checks, run after each round and never inside a timed region.

* The quads a crawl should yield are re-derived in DuckDB from the generated
  table's ``text`` column with the engine's own lockstep SQL
  (``pipelines.kg.QUADS_SQL_CTE``), so the engine's html -> text -> quads
  path is checked against an independent derivation.
* A dump must commit exactly that many quads.
* A sync must commit as many records as the EXCEPT of the previous and the
  current expected quad sets holds, and, read back through
  ``sources.rdfpatch_files.read_rdfpatch``, exactly those ``+``/``-``
  records under its checkpoint. The read-back costs a Ray job, so it runs once
  after the last round and checks every round's checkpoint.
* After every publish, each committed file lies in exactly one zip and each
  zip's sidecar md5 and length match the zip.

Each check returns a list of problems; an empty list means the round passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import replace

import duckdb
import pyarrow as pa

from virtuoso_quad_log_ray.pipelines.kg import QUADS_SQL_CTE
from virtuoso_quad_log_ray.state.manifest import commit_manifest, load_manifest


class Oracle:
    """DuckDB side of the checks; keeps the last expected quad set."""

    def __init__(self):
        self.con = duckdb.connect()
        self.con.execute("SET threads = 1")
        self.has_prev = False

    def close(self) -> None:
        self.con.close()

    def expect(self, pages_path: str) -> int:
        """Derive the expected quads of a crawl table into ``exp_new``
        (the previous one, if any, moves to ``exp_prev``); returns the count."""
        con = self.con
        con.execute("DROP TABLE IF EXISTS exp_prev")
        if self.has_prev:
            con.execute("ALTER TABLE exp_new RENAME TO exp_prev")
        con.execute(
            "CREATE OR REPLACE VIEW pages AS SELECT url, text, lang "
            f"FROM read_parquet('{pages_path}')"
        )
        con.execute(
            f"CREATE TABLE exp_new AS WITH {QUADS_SQL_CTE} SELECT s, p, o, g FROM quads"
        )
        self.has_prev = True
        return con.execute("SELECT count(*) FROM exp_new").fetchone()[0]

    def keep_delta(self, checkpoint: str) -> int:
        """Store the EXCEPT of the two most recent expected quad sets as the
        delta expected under ``checkpoint``; returns its size."""
        name = f"delta_{checkpoint}"
        self.con.execute(f"CREATE TABLE {name} AS {_DELTA_SQL}")
        return self.con.execute(f"SELECT count(*) FROM {name}").fetchone()[0]

    def check_delta(self, checkpoint: str, records: pa.Table) -> list[str]:
        """``records`` (op, s, p, o, g) published under ``checkpoint`` must
        equal the delta kept for it, as a multiset."""
        con = self.con
        con.register("got", records.select(["op", "s", "p", "o", "g"]))
        try:
            missing, extra = con.execute(
                f"""
                SELECT (SELECT count(*) FROM (SELECT * FROM delta_{checkpoint} EXCEPT ALL SELECT * FROM got)),
                       (SELECT count(*) FROM (SELECT * FROM got EXCEPT ALL SELECT * FROM delta_{checkpoint}))
                """
            ).fetchone()
        finally:
            con.unregister("got")
        if missing or extra:
            return [f"records read back at {checkpoint}: {missing} missing, {extra} unexpected"]
        return []


_DELTA_SQL = """
SELECT '+' AS op, * FROM (SELECT * FROM exp_new EXCEPT SELECT * FROM exp_prev)
UNION ALL
SELECT '-' AS op, * FROM (SELECT * FROM exp_prev EXCEPT SELECT * FROM exp_new)
"""


def check_dump(manifest, expected_quads: int) -> list[str]:
    if manifest.quad_count != expected_quads:
        return [f"dump committed {manifest.quad_count} quads, expected {expected_quads}"]
    return []


def check_sync(manifest, checkpoint: str, expected_records: int) -> list[str]:
    if manifest.checkpoint != checkpoint or manifest.quad_count != expected_records:
        return [
            f"sync at {manifest.checkpoint} committed {manifest.quad_count} records, "
            f"expected {expected_records} at {checkpoint}"
        ]
    return []


def check_read_back(
    oracle: Oracle, sink: str, checkpoints: list[str], view: str
) -> dict[str, list[str]]:
    """Read the files committed under ``checkpoints`` back through
    ``read_rdfpatch`` and compare each checkpoint's records with the delta
    kept for it. ``view`` becomes a sink holding hard links to just those
    files and a manifest listing them, so the read skips the dump's files."""
    import pyarrow.compute as pc
    import ray

    from virtuoso_quad_log_ray.sources.rdfpatch_files import READ_SCHEMA, read_rdfpatch

    manifest = load_manifest(sink)
    wanted = set(checkpoints)
    files = [e for e in manifest.files if e.name.rpartition("rdf_out_")[2][:14] in wanted]
    for e in files:
        os.makedirs(os.path.dirname(os.path.join(view, e.name)), exist_ok=True)
        os.link(os.path.join(sink, e.name), os.path.join(view, e.name))
    commit_manifest(view, replace(manifest, files=files))
    blocks = [b for b in ray.get(read_rdfpatch(view).to_arrow_refs()) if b.num_columns]
    t = pa.concat_tables(blocks) if blocks else READ_SCHEMA.empty_table()
    return {
        cp: oracle.check_delta(cp, t.filter(pc.equal(t["checkpoint"], cp)))
        for cp in checkpoints
    }


def check_bundles(sink: str, pub: str) -> list[str]:
    """Every committed file in exactly one zip; sidecars match their zips."""
    problems: list[str] = []
    committed = [e.name for e in load_manifest(sink).files]
    seen: dict[str, int] = {}
    for name in sorted(os.listdir(pub)):
        if not name.endswith(".zip"):
            continue
        path = os.path.join(pub, name)
        with zipfile.ZipFile(path) as z:
            for member in z.namelist():
                if member != "manifest.json":
                    seen[member] = seen.get(member, 0) + 1
        with open(path + ".meta.json") as f:
            meta = json.load(f)
        with open(path, "rb") as f:
            digest = hashlib.md5(f.read()).hexdigest()
        if meta["md5"] != digest or meta["length"] != os.path.getsize(path):
            problems.append(f"sidecar of {name} does not match the zip")
    not_once = [n for n in committed if seen.get(n) != 1]
    if not_once:
        problems.append(f"{len(not_once)} committed files not in exactly one zip, e.g. {not_once[0]}")
    stray = set(seen) - set(committed)
    if stray:
        problems.append(f"{len(stray)} zipped files not committed")
    return problems


def manifest_files(sink: str) -> list[tuple[str, str]]:
    """(name, md5) of every committed file: the identity of a sink's output."""
    return [(e.name, e.md5) for e in load_manifest(sink).files]
