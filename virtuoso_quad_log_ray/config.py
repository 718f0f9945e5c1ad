"""Engine configuration.

Single dataclass replacing the reference's ~15 env vars
(quad-logger/generate-rdfpatch.sh:7-35, DEPLOY.md:161-320).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # Max quads per emitted patch file / chunk.
    # Reference: MAX_QUADS_PER_FILE default 100000 (generate-rdfpatch.sh:15-16).
    max_quads_per_file: int = 100_000

    # Graph IRIs excluded from dumps.
    # Reference: EXCLUDED_GRAPHS (dump_nquads.sql:44-49, generate-rdfpatch.sh:21-28).
    excluded_graphs: tuple[str, ...] = ()

    # Rows per Arrow batch in map_batches stages. None = whole blocks: a
    # batch_size smaller than the upstream block makes Ray bundle blocks
    # into one task and lose block-level parallelism; block size is already
    # bounded at the read (override_num_blocks / file splits), and pages
    # project the wide binary `html` away at the first stage.
    pages_batch_size: int | None = None
    quads_batch_size: int | None = None

    # Near-dup thresholds (north_star: MinHash-LSH canonicalization).
    minhash_num_perm: int = 64
    minhash_bands: int = 16  # 16 bands x 4 rows: recall ~1 for J >= 0.9
    jaccard_threshold: float = 0.8
    shingle_size: int = 3  # word 3-grams

    # Hot-key skew (north_rule's named hazard: popular entities, duplicate
    # pages) is handled structurally rather than by a salt knob:
    #   - associative aggregates (count/min/sum) pre-aggregate per block
    #     before the shuffle (per-block combiners), so a hot key ships
    #     one row per upstream block;
    #   - quadratic join keys use a document-frequency cap
    #     (dedup.ngram_jaccard_pairs max_shingle_freq);
    #   - partition fan-out is bounded by hash-bucketing, not per-key dirs
    #     (pipelines/materialize.py).
    # Shuffle sizing has no knob either: every aggregate and join runs on the
    # one bucketed exchange (stages/shuffle.py), whose bucket counts follow
    # the live cluster (default_n_buckets, merge_buckets).

    # MinHash-LSH band-bucket member cap (VERDICT r4 #1). A cluster of F
    # near-identical pages (mirror farms, boilerplate) collides in EVERY
    # band; uncapped, each band bucket emits O(F^2) candidate pairs. Runs
    # larger than this emit STAR edges only (every member paired with the
    # run's min url — linear; connectivity-preserving for the target
    # near-identical mega-cluster case, a documented recall trade for
    # heterogeneous over-cap buckets — see minhash_lsh_pairs); runs at or
    # under it emit all (i < j) pairs, so pair-level output is unchanged
    # wherever buckets are sane.
    lsh_band_bucket_cap: int = 256

    # Oracle parity vs production hashing (VERDICT r4 #4). True (default):
    # content-addressed sampling/sharding/fingerprint keys use per-row
    # hashlib.md5 so they match the DuckDB oracles byte-for-byte. False
    # (the 100 TB path): the same keys come from the vectorized 128-bit
    # hash (numerics.hash128 / hash128_fsb) — no per-row Python on any
    # corpus-cardinality path. Selections differ between modes (both are
    # deterministic, content-addressed, and uniform); flip only wholesale
    # per deployment, never mid-corpus.
    oracle_mode: bool = True

    # Text-extractor registry name (stages/extract_text.py EXTRACTORS;
    # VERDICT r4 #5). "article" is the frozen rule the byte-identical M11
    # oracle pins; swap for a real extractor at deployment without touching
    # any pipeline (the reference's BUILDER_CLASS extension surface,
    # resourcesync-generator).
    extractor: str = "article"


DEFAULT_CONFIG = EngineConfig()
