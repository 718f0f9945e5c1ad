"""WARC source/sink: the native Common-Crawl interchange format.

Common Crawl ships crawls as WARC files (ISO 28500); a user pointing this
engine at raw CC data starts here instead of a pages Parquet table.
``read_pages_warc`` turns WARC response records into the engine's pages
schema (url, warc_ts, html, text, lang) so every downstream stage —
extract_text, quads_from_pages, dedup, textstats — runs unchanged;
``write_warc`` is the inverse (pages -> WARC bytes), used for round-trip
tests and for exporting a corpus back to the interchange format.

Scale shape: one WARC file = one read task (``read_binary_files`` streams
file blobs through the object store); parsing is record-sequential WITHIN a
file by format necessity (records are length-prefixed by Content-Length),
but files parse in parallel across the cluster — the same parallelism model
Common Crawl processing always has (thousands of ~1 GB WARC files).

Supported records: WARC-Type: response, with either a raw payload or an
HTTP response block (headers stripped when the payload starts with
``HTTP/``). ``text`` is left empty and ``lang`` set to ``default_lang`` —
raw crawls carry neither; extract_text fills text from html downstream and
stages/textstats.lang_id provides language labels.
"""

from __future__ import annotations

import datetime

import pyarrow as pa
import ray.data

from virtuoso_quad_log_ray.sources.pages import PAGES_SCHEMA

# the columns a WARC shard carries
WARC_SCHEMA = pa.schema([PAGES_SCHEMA.field(c) for c in ("url", "warc_ts", "html")])

_CRLF = b"\r\n"
_SEP = b"\r\n\r\n"


def _render_warc_bytes(pages: pa.Table) -> bytes:
    """pages columns (url, warc_ts, html) -> WARC/1.0 file bytes, rendered
    fully in Arrow: one ``binary_join_element_wise`` builds every record,
    one ``binary_join`` concatenates the file — no per-record Python."""
    import pyarrow.compute as pc

    n = len(pages)
    if n == 0:
        return b""
    html = pages["html"]
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    url = pc.cast(pages["url"], pa.binary())
    date = pc.cast(
        pc.strftime(
            pc.cast(pages["warc_ts"], pa.timestamp("s")), format="%Y-%m-%dT%H:%M:%SZ"
        ),
        pa.binary(),
    )
    clen = pc.cast(pc.cast(pc.binary_length(html), pa.string()), pa.binary())
    recs = pc.binary_join_element_wise(
        b"WARC/1.0" + _CRLF + b"WARC-Type: response" + _CRLF + b"WARC-Target-URI: ",
        url,
        _CRLF + b"WARC-Date: ",
        date,
        _CRLF + b"Content-Type: text/html" + _CRLF + b"Content-Length: ",
        clen,
        _SEP,
        html,
        _SEP,
        b"",  # last arg = element-wise separator
    )
    if isinstance(recs, pa.ChunkedArray):
        recs = recs.combine_chunks()
    joined = pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array([0, n], type=pa.int64()), recs), b""
    )
    return joined[0].as_py()


def write_warc(path: str, pages: pa.Table) -> int:
    """pages table (url, warc_ts, html) -> one WARC/1.0 file; returns record
    count. Each page becomes a ``response`` record with a raw html payload.
    Single-file utility (round-trip tests, small exports); corpus-scale
    export is :func:`write_warc_corpus`."""
    with open(path, "wb") as f:
        f.write(_render_warc_bytes(pages))
    return len(pages)


def write_warc_corpus(
    pages: ray.data.Dataset,
    out_root: str,
    *,
    epoch: str,
    n_buckets: int | None = None,
) -> "RunManifest":
    """Distributed WARC export (VERDICT r2 #7): one ``shard-K.warc`` per
    bucket of ``hash(url) % n_buckets``, written and committed by
    ``pipelines.materialize.write_bucketed`` (the shared bucketed sink:
    ``.part`` + rename, same-epoch per-bucket resume, manifest committed
    last). Rows are sorted (url, warc_ts) within a shard for deterministic
    output."""
    import pyarrow.compute as pc

    from virtuoso_quad_log_ray.pipelines.materialize import write_atomic, write_bucketed

    def write(rows: pa.Table, path: str) -> tuple[str, int]:
        order = pc.sort_indices(rows, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")])
        return write_atomic(path, _render_warc_bytes(rows.take(order)))

    return write_bucketed(
        pages,
        out_root,
        key="url",
        kind="warc",
        epoch=epoch,
        n_buckets=n_buckets,
        shard=lambda bucket: f"shard-{bucket:05d}.warc",
        write=write,
        schema=WARC_SCHEMA,
    )


def read_warc_corpus(out_root: str, *, default_lang: str = "und") -> ray.data.Dataset:
    """Committed WARC shards -> pages Dataset (manifest-listed; uncommitted
    ``.part`` shards are invisible)."""
    import os

    from virtuoso_quad_log_ray.state.manifest import load_manifest

    manifest = load_manifest(out_root)
    if manifest is None:
        raise FileNotFoundError(f"no committed manifest under {out_root}")
    paths = [os.path.join(out_root, e.name) for e in manifest.files]
    return read_pages_warc(paths, default_lang=default_lang)


def parse_warc_bytes(blob: bytes) -> list[dict]:
    """One WARC file's bytes -> list of response-record dicts
    (url, warc_ts:int seconds, html:bytes). Sequential by format necessity
    (Content-Length prefixes); skips non-response records."""
    out: list[dict] = []
    pos = 0
    n = len(blob)
    while pos < n:
        if blob.startswith(_CRLF, pos):  # inter-record padding
            pos += 2
            continue
        head_end = blob.find(_SEP, pos)
        if head_end < 0:
            break
        headers: dict[str, str] = {}
        lines = blob[pos:head_end].split(_CRLF)
        if not lines or not lines[0].startswith(b"WARC/"):
            break  # not a record boundary: stop rather than misparse
        for line in lines[1:]:
            k, _, v = line.partition(b":")
            headers[k.decode().strip().lower()] = v.decode().strip()
        length = int(headers.get("content-length", "0"))
        payload = blob[head_end + 4 : head_end + 4 + length]
        pos = head_end + 4 + length
        if blob.startswith(_SEP, pos):
            pos += 4
        if headers.get("warc-type") != "response":
            continue
        url = headers.get("warc-target-uri", "")
        date = headers.get("warc-date", "1970-01-01T00:00:00Z")
        ts = int(
            datetime.datetime.strptime(date, "%Y-%m-%dT%H:%M:%SZ")
            .replace(tzinfo=datetime.timezone.utc)
            .timestamp()
        )
        if payload.startswith(b"HTTP/"):  # HTTP response block: strip headers
            body_at = payload.find(_SEP)
            payload = payload[body_at + 4 :] if body_at >= 0 else b""
        out.append({"url": url, "warc_ts": ts, "html": payload})
    return out


def read_pages_warc(
    paths: str | list[str], *, default_lang: str = "und"
) -> ray.data.Dataset:
    """WARC file(s)/dir -> pages Dataset (engine schema). Files parse in
    parallel (one read task per file); text/lang are placeholders for the
    downstream extract_text / lang_id stages."""
    files = ray.data.read_binary_files(paths)

    def parse(batch: dict) -> pa.Table:
        urls: list[str] = []
        ts: list[int] = []
        htmls: list[bytes] = []
        for blob in batch["bytes"]:
            for rec in parse_warc_bytes(bytes(blob)):
                urls.append(rec["url"])
                ts.append(rec["warc_ts"])
                htmls.append(rec["html"])
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array(ts, type=pa.timestamp("s")),
                "html": pa.array(htmls, type=pa.binary()),
                "text": pa.array([""] * len(urls), type=pa.string()),
                "lang": pa.array([default_lang] * len(urls), type=pa.string()),
            }
        ).cast(PAGES_SCHEMA)

    return files.map_batches(parse, batch_format="numpy", batch_size=None)
