"""Deterministic 64-bit hashing, engine-side (numpy) AND oracle-side (SQL).

Every dedup/similarity operator that feeds a DuckDB oracle uses exactly two
primitives, each with a bit-identical SQL rendering:

* :func:`stable64` — md5 of the UTF-8 string, last 8 digest bytes read
  little-endian. This IS DuckDB's ``md5_number_lower``, so the oracle can
  hash shingles/words with a single builtin call.
* :func:`hash64` — an xorshift-multiply mix (splitmix/murmur-style
  avalanche) over uint64 with wrapping arithmetic. :func:`hash64_sql`
  renders the identical computation in SQL: XOR/shift run in the UBIGINT
  domain, and each wrapping 64-bit multiply is expressed as HUGEINT modular
  arithmetic split at 32 bits (a*b mod 2^64 =
  ((hi(a)*b mod 2^32) << 32 + lo(a)*b) mod 2^64 — every intermediate fits
  a 128-bit HUGEINT).

:func:`md5_halves` computes the md5 of every value of an Arrow string
array straight from its buffers; :func:`stable64_many` wraps it for
inputs with repeats (one digest per distinct value).

Python's builtin ``hash()`` is salted per process and DuckDB's ``hash()``
is version-dependent; these two are the process- and engine-stable
replacements.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MASK64 = (1 << 64) - 1
_MUL1 = 0xFF51AFD7ED558CCD
_MUL2 = 0xC4CEB9FE1A85EC53
_SEED_MUL = 0x9E3779B97F4A7C15


def stable64(s: str) -> int:
    """Process-stable 64-bit string hash == DuckDB ``md5_number_lower``."""
    return int.from_bytes(
        hashlib.md5(s.encode("utf-8")).digest()[8:], "little")


def _flat(arr) -> pa.Array:
    """One Arrow string array of ``arr``: chunks combined, a Python
    sequence or an all-null column converted to ``string``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not isinstance(arr, pa.Array):
        return pa.array(arr, pa.string())
    return arr.cast(pa.string()) if pa.types.is_null(arr.type) else arr


def md5_halves(arr) -> tuple[np.ndarray, np.ndarray]:
    """Both 64-bit halves of each value's md5 digest, for an Arrow
    ``string``/``large_string`` array (sliced or chunked): ``(lo, hi)``
    uint64 arrays, digest bytes 0:8 and 8:16 read little-endian, so
    ``hi`` is :func:`stable64`. Each value hashes straight from a
    ``memoryview`` slice of the data buffer at its offsets: no Python
    string, no encode. A null hashes to ``(0, 0)``, not as any string's
    digest; callers that keep SQL NULL semantics read the validity."""
    arr = _flat(arr)
    n = len(arr)
    if not n:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    _, offsets, data = arr.buffers()[:3]
    width = 8 if pa.types.is_large_string(arr.type) else 4
    off = np.frombuffer(offsets, f"<i{width}", n + 1,
                        arr.offset * width).tolist()
    view = memoryview(data if data is not None else b"")
    md5 = hashlib.md5
    both = np.frombuffer(b"".join([
        md5(view[a:b]).digest() for a, b in zip(off, off[1:])]), "<u8")
    lo, hi = both[0::2].copy(), both[1::2].copy()
    if arr.null_count:
        null = np.asarray(arr.is_null())
        lo[null] = hi[null] = 0
    return lo, hi


def stable64_many(strings) -> np.ndarray:
    """Vectorised :func:`stable64` of an Arrow array or a sequence of
    strings, bit-identical to DuckDB ``md5_number_lower`` (the oracle
    contract): one digest per distinct value (a ``dictionary_encode``),
    taken back by dictionary code. A null is 0."""
    enc = pc.dictionary_encode(_flat(strings))
    # a null's code points past the dictionary, at a 0 slot
    codes = np.asarray(pc.fill_null(enc.indices, len(enc.dictionary)))
    return np.append(md5_halves(enc.dictionary)[1], np.uint64(0))[codes]


def word_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stable64` of every word of each text of an Arrow string
    column (or a sequence of strings), in order, and each text's word
    count. The words are ``text.lower().split()``; a null text has none.
    ``utf8_split_whitespace`` splits as ``str.split()`` does (minus its
    zero-length tokens); the DISTINCT words are lowercased with
    ``str.lower`` (``utf8_lower`` differs on U+0130 and a final sigma, and
    no whitespace carries a final-sigma context) and md5-hashed once
    each, by dictionary code."""
    col = _flat(texts)
    tokens = pc.utf8_split_whitespace(col)
    words = tokens.flatten()
    parent = pc.list_parent_indices(tokens)
    real = pc.greater(pc.binary_length(words), 0)
    words, parent = words.filter(real), parent.filter(real)
    counts = np.bincount(np.asarray(parent, np.int64), minlength=len(col))
    enc = pc.dictionary_encode(words)
    lower = pa.array([w.lower() for w in enc.dictionary.to_pylist()],
                     pa.string())
    return md5_halves(lower)[1][np.asarray(enc.indices)], counts


_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_C3 = 0x165667B19E3779F9


def combine3(h1: np.ndarray, h2: np.ndarray, h3: np.ndarray) -> np.ndarray:
    """64-bit hash of an ordered triple of 64-bit hashes: weighted wrapping
    sum (distinct odd multipliers keep order significant) + one
    :func:`hash64` avalanche. Lets a k-word shingle hash be computed from
    per-WORD md5 hashes entirely in numpy — no shingle strings are ever
    built — while :func:`combine3_sql` renders the identical value for the
    DuckDB oracle."""
    with np.errstate(over="ignore"):
        acc = h1.astype(np.uint64)
        acc *= np.uint64(_C1)
        tmp = h2.astype(np.uint64)
        tmp *= np.uint64(_C2)
        acc += tmp
        np.multiply(h3.astype(np.uint64, copy=False), np.uint64(_C3),
                    out=tmp)
        acc += tmp
    return hash64(acc, 1)


def _addmod_sql(a: str, b: str) -> str:
    return (f"CAST((CAST({a} AS HUGEINT) + CAST({b} AS HUGEINT))"
            f" % 18446744073709551616 AS UBIGINT)")


def combine3_sql(h1: str, h2: str, h3: str) -> str:
    """SQL rendering of :func:`combine3`; inputs must be UBIGINT exprs."""
    m1 = _mulmod_sql(f"CAST({h1} AS HUGEINT)", _C1)
    m2 = _mulmod_sql(f"CAST({h2} AS HUGEINT)", _C2)
    m3 = _mulmod_sql(f"CAST({h3} AS HUGEINT)", _C3)
    acc = _addmod_sql(_addmod_sql(m1, m2), m3)
    return hash64_sql(acc, 1)


def hash64(arr: np.ndarray, seed: int) -> np.ndarray:
    """Vectorised xorshift-multiply mix of uint64 -> uint64.

    Two allocations total (ufunc ``out=`` reuse) — naive chaining allocates
    a fresh temporary per op and large-array page faults then dominate the
    arithmetic by ~5x."""
    s33 = np.uint64(33)
    with np.errstate(over="ignore"):
        x = arr.astype(np.uint64)           # the only data copy
        x += np.uint64((seed * _SEED_MUL or 1) & MASK64)
        tmp = np.right_shift(x, s33)
        x ^= tmp
        x *= np.uint64(_MUL1)
        np.right_shift(x, s33, out=tmp)
        x ^= tmp
        x *= np.uint64(_MUL2)
        np.right_shift(x, s33, out=tmp)
        x ^= tmp
    return x


def _mulmod_sql(x: str, c: int) -> str:
    """(x * c) mod 2^64 with every intermediate inside HUGEINT range."""
    return (f"CAST((((({x} >> 32) * {c}::HUGEINT) % 4294967296) * 4294967296"
            f" + ({x} & 4294967295) * {c}::HUGEINT) % 18446744073709551616"
            f" AS UBIGINT)")


def hash64_sql(expr: str, seed: int) -> str:
    """SQL rendering of ``hash64(expr, seed)``; ``expr`` must be UBIGINT."""
    add = (seed * _SEED_MUL or 1) & MASK64
    # wrapping add in HUGEINT, back to UBIGINT
    x = (f"CAST((CAST({expr} AS HUGEINT) + {add}::HUGEINT)"
         f" % 18446744073709551616 AS UBIGINT)")
    x = f"xor({x}, {x} >> 33)"
    x = _mulmod_sql(f"CAST({x} AS HUGEINT)", _MUL1)
    x = f"xor({x}, {x} >> 33)"
    x = _mulmod_sql(f"CAST({x} AS HUGEINT)", _MUL2)
    x = f"xor({x}, {x} >> 33)"
    return x


def _mulmod_sql_expr(x: str, c: str) -> str:
    """(x * c) mod 2^64 where ``c`` is a SQL expression (HUGEINT, < 2^64)."""
    return (f"CAST((((({x} >> 32) * ({c})) % 4294967296) * 4294967296"
            f" + ({x} & 4294967295) * ({c})) % 18446744073709551616"
            f" AS UBIGINT)")


def hash64_sql_dynamic(expr: str, seed_expr: str) -> str:
    """SQL rendering of ``hash64(expr, seed)`` where the seed is itself a
    SQL expression (BIGINT >= 1; the ``or 1`` zero-seed escape never
    triggers for positive seeds)."""
    add = _mulmod_sql_expr(f"CAST({seed_expr} AS HUGEINT)",
                           f"{_SEED_MUL}::HUGEINT")
    x = (f"CAST((CAST({expr} AS HUGEINT) + CAST({add} AS HUGEINT))"
         f" % 18446744073709551616 AS UBIGINT)")
    x = f"xor({x}, {x} >> 33)"
    x = _mulmod_sql(f"CAST({x} AS HUGEINT)", _MUL1)
    x = f"xor({x}, {x} >> 33)"
    x = _mulmod_sql(f"CAST({x} AS HUGEINT)", _MUL2)
    x = f"xor({x}, {x} >> 33)"
    return x


def to_int64(arr: np.ndarray) -> np.ndarray:
    """uint64 -> int64 two's-complement wrap (Arrow-friendly dtype)."""
    return arr.astype(np.uint64).view(np.int64)


def to_int64_sql(expr: str) -> str:
    """SQL rendering of the uint64 -> int64 wrap for a UBIGINT ``expr``."""
    return (f"CAST(CASE WHEN {expr} >= 9223372036854775808"
            f" THEN CAST({expr} AS HUGEINT) - 18446744073709551616"
            f" ELSE CAST({expr} AS HUGEINT) END AS BIGINT)")
