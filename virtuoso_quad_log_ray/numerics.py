"""Shared numeric helpers for oracle-exact integer emission.

DuckDB's round() rounds half AWAY from zero; numpy's np.round is banker's
(half-to-even). Every cents/ppm column the driver value-hashes must use the
same rule on both sides, so all scaled-integer emission goes through
half_away_int64 (ADVICE round 1, relational.py:87 finding).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def half_away_int64(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (DuckDB round() semantics) -> int64.

    NaN (a null float upstream) would cast to a platform-dependent garbage
    int64; fail loudly instead — callers must drop/fill nulls first.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("half_away_int64: NaN input (null upstream?) — fill or drop nulls first")
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def scaled_int_array(arr, scale: float) -> pa.Array:
    """Arrow column * scale -> int64 Arrow array with half-away rounding."""
    vals = pc.cast(arr, pa.float64()).to_numpy(zero_copy_only=False)
    return pa.array(half_away_int64(vals * scale))


def fsb_from_matrix(mat: np.ndarray) -> pa.Array:
    """(n, k) numpy matrix -> fixed_size_binary(k*itemsize) Arrow array.

    Zero-loop row packing. fixed_size_binary survives Ray's hash join as a
    payload column (Arrow list types do not, as of Ray 2.49), so fixed-width
    vector/signature columns ride joins in this form.
    """
    mat = np.ascontiguousarray(mat)
    return pa.Array.from_buffers(
        pa.binary(mat.shape[1] * mat.itemsize),
        mat.shape[0],
        [None, pa.py_buffer(mat.tobytes())],
    )


def matrix_from_fsb(col, n_cols: int, dtype) -> np.ndarray:
    """fixed_size_binary column -> (n, n_cols) matrix, offset-aware, no copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    raw = np.frombuffer(col.buffers()[1], dtype=dtype)
    start = col.offset * n_cols
    return raw[start : start + len(col) * n_cols].reshape(-1, n_cols)


def list_matrix(col, dim: int | None = None, dtype=np.float64) -> np.ndarray:
    """Fixed-length list<number> column -> (n, dim) matrix via flatten+reshape
    (no to_pylist round-trip). dim=None infers it from the first row."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if dim is None:
        dim = len(flat) // len(col) if len(col) else 0
    if dim == 0:
        return np.zeros((len(col), 0), dtype=dtype)
    return np.ascontiguousarray(flat.reshape(-1, dim).astype(dtype, copy=False))


try:  # vectorized 64-bit string hashing; md5 fallback keeps the path portable
    import os as _os

    # polars spins up its own rayon pool sized to ALL visible cores; inside
    # Ray workers that oversubscribes the per-worker CPU budget (measured:
    # 2->8-core scaling efficiency fell 0.91 -> 0.74 once the write path
    # hashed via polars). One thread is plenty for per-batch hash kernels.
    _os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as _pl
except ImportError:  # pragma: no cover
    _pl = None


def hash_fingerprint() -> str:
    """Identity of the hash128 implementation actually in effect.

    hash128 values feed PERSISTED bucket ids (shuffle._bucket_of), and
    the same-epoch per-partition resume trusts those ids. A polars upgrade
    (seeded-hash output is version-dependent) or a worker without polars
    (md5 fallback) would silently re-key every bucket. Manifests record
    this fingerprint so resume can detect the mismatch and rewrite instead
    of skipping buckets whose contents moved (ADVICE r2, numerics.py:78).
    """
    sentinel = pa.array(["vql-hash-sentinel"])
    h1, h2 = hash128(sentinel)
    impl = f"polars-{_pl.__version__}" if _pl is not None else "md5-fallback"
    mask = (1 << 64) - 1
    return f"{impl}:{int(h1[0]) & mask:016x}{int(h2[0]) & mask:016x}"


def hash128(arr: "pa.Array | pa.ChunkedArray") -> "tuple[np.ndarray, np.ndarray]":
    """128-bit content hash of a string array -> two int64 numpy columns.

    For internal group/bucket keys only (never oracle-compared): needs
    determinism within a run + 128-bit collision odds. Two independently
    seeded vectorized polars hashes (measured process-stable), or an md5
    loop as fallback.
    """
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if _pl is not None:
        s = _pl.from_arrow(arr)
        h1 = s.hash(seed=0x9E3779B9).to_numpy().view(np.int64)
        h2 = s.hash(seed=0x85EBCA6B).to_numpy().view(np.int64)
        return h1, h2
    buf = b"".join(  # pragma: no cover
        hashlib.md5(v.encode() if isinstance(v, str) else v).digest()
        for v in arr.to_pylist()
    )
    h = np.frombuffer(buf, dtype=np.uint64).reshape(-1, 2)  # pragma: no cover
    return h[:, 0].view(np.int64), h[:, 1].view(np.int64)  # pragma: no cover


_HEX_LUT = np.array([f"{i:02x}" for i in range(256)])


def hash128_fsb(arr: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """128-bit content hash -> fixed_size_binary(16) Arrow array (the two
    hash128 words packed little-endian). The production-scale replacement
    for per-row md5 digests on join/index keys (VERDICT r4 #4): one
    vectorized pass, no Python loop."""
    h1, h2 = hash128(arr)
    packed = np.column_stack([h1.view(np.uint64), h2.view(np.uint64)])
    packed = np.ascontiguousarray(packed, dtype="<u8")
    n = packed.shape[0]
    return pa.Array.from_buffers(
        pa.binary(16), n, [None, pa.py_buffer(packed.tobytes())]
    )


def fsb_hex(col: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """fixed_size_binary(k) -> lowercase hex string array, fully vectorized:
    one LUT take per byte position + one binary_join — no per-row Python.

    Nulls are rejected loudly (same convention as half_away_int64): the
    data buffer holds undefined bytes for null slots, so rendering them
    would fabricate a fingerprint shared by every null row."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("fsb_hex: null input — drop or fill nulls first")
    k = col.type.byte_width
    n = len(col)
    raw = np.frombuffer(
        col.buffers()[1], dtype=np.uint8, count=n * k, offset=col.offset * k
    ).reshape(n, k)
    parts = [pa.array(_HEX_LUT[raw[:, j]]) for j in range(k)]
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "")


# ---------------------------------------------------------------------------
# Oracle-mode hashing + SQL fragments shared by the hash-exact DuckDB oracles
# (dedup MinHash/SimHash/Bloom, HLL sketch). These encode the numpy
# wraparound/endianness contracts in ONE place — an edit here changes the
# engine and every SQL re-derivation together.
# ---------------------------------------------------------------------------

U64_MOD = 1 << 64


def md5_u64(dictionary: "pa.Array") -> np.ndarray:
    """Unique-string array -> uint64 of the FIRST 8 md5 digest bytes read
    little-endian — exactly ``np.frombuffer(md5(s).digest()[:8], '<u8')``.
    The oracle-mode base hash for MinHash/SimHash; its SQL mirror is
    ``sql_md5_le64``. Per-row hashlib on a dictionary-distinct column is
    the established oracle-path trade (production uses hash128)."""
    import hashlib

    return np.array(
        [
            np.frombuffer(hashlib.md5(s.encode()).digest()[:8], dtype=np.uint64)[0]
            for s in dictionary.to_pylist()
        ],
        dtype=np.uint64,
    )


def sql_hex_le64(hex_expr: str, start: int = 1) -> str:
    """SQL for the little-endian uint64 at hex offset ``start`` of an
    already-computed hex-digest column/expression (start=1 -> digest bytes
    0-7, start=17 -> bytes 8-15): byte-reversed hex cast to UBIGINT,
    matching ``np.frombuffer(digest, '<u8')``."""
    parts = "||".join(
        f"substr({hex_expr},{start + 2 * b},2)" for b in reversed(range(8))
    )
    return f"CAST(('0x' || {parts}) AS UBIGINT)"


def sql_md5_le64(expr: str, start: int = 1) -> str:
    """``sql_hex_le64`` over ``md5(expr)`` — the SQL mirror of ``md5_u64``.
    When the md5 hex is reused (both halves, or also emitted as a column),
    compute it once in a CTE and pass that column to ``sql_hex_le64``."""
    return sql_hex_le64(f"md5({expr})", start)


def sql_mulmod64(expr: str, c) -> str:
    """SQL for ``expr * c mod 2**64`` without INT128 overflow: the
    multiplier is split into 32-bit halves (as literals when ``c`` is an
    int, as column references when it is a '(lo, hi)' name pair), so each
    partial product stays under 2**96 — HUGEINT holds 2**127."""
    if isinstance(c, int):
        lo, hi = c & 0xFFFFFFFF, c >> 32
    else:
        lo, hi = c
    return (
        f"((CAST({expr} AS HUGEINT) * {lo}) % {U64_MOD} + "
        f"((CAST({expr} AS HUGEINT) * {hi}) % 4294967296) * 4294967296) % {U64_MOD}"
    )
