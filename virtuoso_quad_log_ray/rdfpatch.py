"""rdfpatch codec: vectorized rendering + parsing of RDF-patch lines and files.

Re-expresses (from scratch, over Arrow arrays) the reference's text layer:

- line = ``<op> <s> <p> <o> <g> .`` built by ``vql_create_nquad``
  (quad-logger/sql-proc/utils.sql:23-30);
- IRI vs blank-node rendering per ``vql_format_iri`` (utils.sql:35-43) — here
  blank nodes are model-level strings starting with ``_:`` rather than
  Virtuoso 64-bit iri-ids, but the rendered form is identical;
- literal rendering per ``vql_format_object`` (utils.sql:48-65): quoted +
  escaped value, ``@lang`` wins over ``^^<datatype>``, and
  ``xsd:string`` datatype is suppressed;
- the 8-rule, order-sensitive escape chain of ``vql_escape_chars``
  (utils.sql:92-103): backslash FIRST, then BEL BS TAB LF FF CR ``"``.
  The documented lossy cases (``\\'``, ``\\uXXXX`` — utils.sql:68-91) are
  lossy here too by construction: we never emit them.
- per-file header block per ``vql_print_graph``
  (quad-logger/sql-proc/buffer_nquads.sql:43-63): ``# at checkpoint``,
  ``# graph``, ``# base64``, ``# amount`` (column-aligned), and the run
  trailer block of ``vql_dump_nquads`` (dump_nquads.sql:58-83).

Everything row-parallel is pyarrow.compute (no Python loop over rows); the
scalar parser exists for tests / file re-ingest only (not a hot path — the
canonical interchange format of the engine is Parquet, text files are the
publication surface).
"""

from __future__ import annotations

import base64
import re

import pyarrow as pa
import pyarrow.compute as pc

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

# Order matters: backslash must be escaped first (utils.sql:92-103).
_ESCAPE_RULES: list[tuple[str, str]] = [
    ("\\", "\\\\"),
    ("\x07", "\\a"),
    ("\x08", "\\b"),
    ("\t", "\\t"),
    ("\n", "\\n"),
    ("\x0c", "\\f"),
    ("\r", "\\r"),
    ('"', '\\"'),
]
# Reverse order for unescaping (backslash last).
_UNESCAPE_RULES: list[tuple[str, str]] = [(esc, raw) for raw, esc in reversed(_ESCAPE_RULES)]


def escape_literal(arr: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Vectorized N-Quads literal escaping (utils.sql:92-103 semantics)."""
    for raw, esc in _ESCAPE_RULES:
        arr = pc.replace_substring(arr, pattern=raw, replacement=esc)
    return arr


def unescape_literal_scalar(s: str) -> str:
    """Scalar inverse of escape_literal; resolves ``\\\\`` before shorter rules.

    A straight replace-chain is wrong for inputs like ``\\\\t`` (an escaped
    backslash followed by 't'), so we tokenize on escape sequences.
    """
    out: list[str] = []
    i = 0
    mapping = {"\\": "\\", "a": "\x07", "b": "\x08", "t": "\t", "n": "\n", "f": "\x0c", "r": "\r", '"': '"'}
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s) and s[i + 1] in mapping:
            out.append(mapping[s[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def format_iri(arr: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """IRI string -> ``<iri>``; blank-node label ``_:x`` passes through.

    Mirrors vql_format_iri (utils.sql:35-43): Virtuoso branches on the 64-bit
    bnode iri-id threshold; our model-level convention is that blank nodes are
    already ``_:``-prefixed strings.
    """
    is_bnode = pc.starts_with(arr, "_:")
    wrapped = pc.binary_join_element_wise("<", arr, ">", "")
    return pc.if_else(is_bnode, arr, wrapped)


def format_object(
    o_value: pa.Array | pa.ChunkedArray,
    o_is_iri: pa.Array | pa.ChunkedArray,
    o_lang: pa.Array | pa.ChunkedArray,
    o_datatype: pa.Array | pa.ChunkedArray,
) -> pa.Array | pa.ChunkedArray:
    """Vectorized object rendering per vql_format_object (utils.sql:48-65).

    - IRI / blank node -> format_iri
    - else quoted escaped literal; ``@lang`` if lang nonempty; else
      ``^^<datatype>`` if datatype nonempty and != xsd:string.
    """
    o_lang = pc.fill_null(o_lang, "")
    o_datatype = pc.fill_null(o_datatype, "")
    quoted = pc.binary_join_element_wise('"', escape_literal(o_value), '"', "")
    with_lang = pc.binary_join_element_wise(quoted, "@", o_lang, "")
    with_dt = pc.binary_join_element_wise(quoted, "^^<", o_datatype, ">", "")
    has_lang = pc.not_equal(o_lang, "")
    has_dt = pc.and_(pc.not_equal(o_datatype, ""), pc.not_equal(o_datatype, XSD_STRING))
    literal = pc.if_else(has_lang, with_lang, pc.if_else(has_dt, with_dt, quoted))
    return pc.if_else(o_is_iri, format_iri(o_value), literal)


def render_patch_lines(
    op: pa.Array | pa.ChunkedArray,
    s: pa.Array | pa.ChunkedArray,
    p: pa.Array | pa.ChunkedArray,
    o: pa.Array | pa.ChunkedArray,
    g: pa.Array | pa.ChunkedArray,
    *,
    pre_rendered: bool = True,
) -> pa.Array | pa.ChunkedArray:
    """``op s p o g .`` line per vql_create_nquad (utils.sql:23-30).

    With ``pre_rendered=True`` the s/p/o columns already hold their N-Quads
    text form (the engine's canonical quad table stores rendered terms, like
    the reference's patch lines store text); g is the bare graph IRI and gets
    wrapped here (utils.sql:23-30 formats g via vql_format_iri).
    """
    if not pre_rendered:
        s, p = format_iri(s), format_iri(p)
    g_wrapped = format_iri(g)
    return pc.binary_join_element_wise(op, s, p, o, g_wrapped, ".", " ")


def graph_b64(iri: str) -> str:
    """Graph IRI -> directory-safe base64 name.

    Reference: ``base64 -w 0`` in graph-splitter/split-graphs.sh:90-97 (its
    comment block rejects Virtuoso's line-wrapping encode_base64); decoded at
    resourcesync-generator/oai-rs/zipsynchronizer.py:219.
    """
    return base64.b64encode(iri.encode("utf-8")).decode("ascii")


def graph_unb64(name: str) -> str:
    return base64.b64decode(name.encode("ascii")).decode("utf-8")


# ---------------------------------------------------------------------------
# File-level format: headers, trailer report, naming (publication surface)
# ---------------------------------------------------------------------------

TS14_ZERO = "00000000000000"  # initial-dump timestamp (generate-rdfpatch.sh:210-217)
SHAM_NAME = "rdf_out_99999999999999-99999999999999"  # sentinel (generate-rdfpatch.sh:53-54)


def patch_file_name(ts14: str, serial: int) -> str:
    """``rdf_out_<ts14>-<serial14>`` (generate-rdfpatch.sh:210-217, 324-330)."""
    return f"rdf_out_{ts14}-{serial:014d}"


def render_file_header(checkpoint_ts14: str, graph_iri: str, amount: int) -> str:
    """Per-file header block (buffer_nquads.sql:53-58, column-aligned)."""
    return (
        f"# at checkpoint  {checkpoint_ts14}\n"
        f"# graph          {graph_iri}\n"
        f"# base64         {graph_b64(graph_iri)}\n"
        f"# amount         {amount}\n"
    )


def render_dump_trailer(checkpoint_ts14: str, started: str, completed: str, quad_count: int, file_count: int) -> str:
    """Dump run trailer (dump_nquads.sql:58-83), written per run as the
    ``vql_rdfdump_info.txt`` report (generate-rdfpatch.sh:240-248). Values
    align at column 19 — the byte layout of the reference's own emitted
    report (sample/rdf_out_99999999999999-99999999999999), which also keeps
    every key ≥2 spaces from its value so ``parse_patch_text`` round-trips."""
    return (
        f"# at checkpoint   {checkpoint_ts14}\n"
        f"# dump started    {started}\n"
        f"# dump completed  {completed}\n"
        f"# quad count      {quad_count}\n"
        f"# file count      {file_count}\n"
    )


def render_sync_trailer(checkpoint_ts14: str, last_source: str, quad_count: int, file_count: int) -> str:
    """Sync run trailer (parse_trx_logs.sql:69-73); same column-19 value
    alignment as :func:`render_dump_trailer`."""
    return (
        f"# at checkpoint   {checkpoint_ts14}\n"
        f"# last trx log    {last_source}\n"
        f"# quad count      {quad_count}\n"
        f"# file count      {file_count}\n"
    )


_HEADER_RE = re.compile(r"^# ([a-z0-9 ]+?) {2,}(.*)$")
# term = IRI | blank node | literal (with optional @lang / ^^<dt>)
_TERM_RE = r'(?:<[^>]*>|_:\S+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?)'
_LINE_RE = re.compile(rf"^([+-]) ({_TERM_RE}) ({_TERM_RE}) ({_TERM_RE}) ({_TERM_RE}) \.$")


def parse_patch_text(text: str) -> tuple[list[dict[str, str]], dict[str, str]]:
    """Parse an rdfpatch file body -> (quad rows, header/trailer fields).

    Inverse of the renderers above; used for round-trip tests and re-ingest of
    published files (graph-splitter header parse analog, split-graphs.sh:78-80
    / synchronizer.py:116-140). Scalar on purpose — see module docstring.
    """
    rows: list[dict[str, str]] = []
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                meta[m.group(1).strip()] = m.group(2).strip()
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"unparseable rdfpatch line: {line!r}")
        op, s, p, o, g = m.groups()
        rows.append({"op": op, "s": s, "p": p, "o": o, "g": g.strip("<>")})
    return rows, meta


def ts14(dt) -> str:
    """datetime -> yyyymmddhhmmss (the reference's ts14 tokens, e.g.
    generate-rdfpatch.sh:210-217); inverse of synchronizer.py:72-87."""
    return dt.strftime("%Y%m%d%H%M%S")


def ts14_to_w3c(t: str) -> str:
    """'20160613082341' -> '2016-06-13T08:23:41Z' (synchronizer.py:72-87)."""
    return f"{t[0:4]}-{t[4:6]}-{t[6:8]}T{t[8:10]}:{t[10:12]}:{t[12:14]}Z"
