"""Run manifests — the commit/visibility protocol.

Replaces the reference's flat-file state + sham-sentinel atomicity:

- sham file ``rdf_out_99999999999999-99999999999999`` gating consumption of
  the last file (generate-rdfpatch.sh:53-54, 259-261; consumer skip logic
  synchronizer.py:157-163, split-graphs.sh:127-133)  ->  readers list a
  COMMITTED manifest, never the directory; uncommitted files are invisible.
- ``vql_lastlogsuffix.txt`` cursor / ``vql_started_at.txt`` epoch /
  ``vql_nquads_count.txt`` totals (generate-rdfpatch.sh:44-63)  ->  fields of
  the manifest + a tiny pointer file updated by atomic rename.

A manifest commit is: write ``manifest-<n>.json.tmp`` -> fsync-rename ->
rename pointer ``MANIFEST`` to the new name (single-file atomic swap). A
crashed run leaves ``*.tmp`` and orphan data files that the next run ignores
(T5 rollback semantics, zipsynchronizer.py:69-109, for free).
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii


@dataclass
class FileEntry:
    """One committed rdfpatch file (ResourceList record analog,
    synchronizer.py:152-177: uri, md5, length, lastmod), or one snapshot
    shard. A shard's ``md5`` is no file checksum but its text digest: of
    the (url, text, lang) rows a pages run extracted the shard from
    (``kg.bucket_digests``), or "" where no digest was taken; its
    ``length`` is 0."""

    name: str  # path relative to the sink root, e.g. "<b64(g)>/rdf_out_...-00000000000000"
    graph: str
    amount: int
    md5: str
    length: int


@dataclass
class RunManifest:
    epoch: str  # handshake token (vql_started_at analog)
    checkpoint: str  # ts14 the run is 'at' (vql_lastlogsuffix analog)
    kind: str  # 'dump' | 'sync'
    quad_count: int = 0
    file_count: int = 0
    run_index: int = 0
    last_source: str = ""  # '# last trx log' analog (max input warc_ts seen)
    total_quads: int = 0  # running totals across runs (A3 counters)
    total_files: int = 0
    files: list[FileEntry] = field(default_factory=list)
    # lineage + throughput metrics (north_star: "resumable from
    # per-partition checkpoints with lineage and throughput metrics");
    # defaults keep pre-metric manifests loadable.
    elapsed_s: float = 0.0
    quads_per_sec: float = 0.0
    # fingerprint of the hash128 implementation that keyed persisted bucket
    # ids (materialize layout); same-epoch resume is only valid when it
    # matches the current environment's fingerprint (ADVICE r2).
    hash_fp: str = ""
    # bucket count the committed shards were keyed with; same-epoch resume
    # is only valid when it matches the resuming run's bucket count —
    # default_n_buckets() is CPU-adaptive, so the same epoch on a
    # different-sized host re-keys rows to different buckets while shard
    # names collide (ADVICE r4). 0 = pre-field manifest, never resumable.
    n_buckets: int = 0
    # a pages run's snapshot: {shard name: raw digest} of the page rows the
    # text extractor read for the shard (kg.bucket_digests). Empty on patch
    # manifests and on snapshots written without it.
    raw_digests: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        # Same bytes as json.dumps(asdict(self), indent=1, sort_keys=True),
        # without its pure-Python indent encoder over the file list, which
        # every run commits whole: json.dumps renders the header, a
        # template each FileEntry.
        d = dict(vars(self))
        d["files"] = []
        head = json.dumps(d, indent=1, sort_keys=True)
        if not self.files:
            return head
        # raw newlines come only from the indentation, so this is the key
        at = head.index('\n "files": []') + len('\n "files": [')
        values = [v for e in self.files for v in _entry_values(e)]
        body = ",".join([_ENTRY_JSON] * len(self.files)) % tuple(map(_json_scalar, values))
        return f"{head[:at]}{body}\n {head[at:]}"

    @staticmethod
    def from_json(s: str) -> "RunManifest":
        d = json.loads(s)
        d["files"] = [FileEntry(**f) for f in d["files"]]
        return RunManifest(**d)


_ENTRY_KEYS = sorted(f.name for f in fields(FileEntry))
_entry_values = operator.attrgetter(*_ENTRY_KEYS)
# one FileEntry as json.dumps(indent=1) renders it inside the files list
_ENTRY_JSON = "\n  {\n" + ",\n".join(f'   "{k}": %s' for k in _ENTRY_KEYS) + "\n  }"
_SCALAR_JSON = {str: encode_basestring_ascii, int: int.__repr__}


def _json_scalar(v) -> str:
    """``v`` as json.dumps renders it: strings ASCII-escaped, ints as
    ``int.__repr__``, any other value through json.dumps itself."""
    enc = _SCALAR_JSON.get(type(v))
    return enc(v) if enc else json.dumps(v)


POINTER = "MANIFEST"


def write_durable(path: str, text: str) -> None:
    """Replace the small state file ``path`` with ``text``: write
    ``path.tmp``, fsync, rename. A crash leaves the old or the new
    content, never a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def commit_manifest(root: str, manifest: RunManifest) -> str:
    """Atomically publish a manifest: temp write + rename, then pointer swap.
    Readers that load via load_manifest never observe a partial state."""
    os.makedirs(root, exist_ok=True)
    name = f"manifest-{manifest.run_index:06d}.json"
    write_durable(os.path.join(root, name), manifest.to_json())
    write_durable(os.path.join(root, POINTER), name)
    return name


def load_manifest(root: str) -> RunManifest | None:
    """The committed view of a sink dir; None if never committed."""
    ptr = os.path.join(root, POINTER)
    if not os.path.exists(ptr):
        return None
    with open(ptr) as f:
        name = f.read().strip()
    with open(os.path.join(root, name)) as f:
        return RunManifest.from_json(f.read())
