"""Sparse multi-index arithmetic and the coarse/fine block-matching relation.

A multi-index is a finite tuple of non-negative integers, canonically stored
with trailing zeros removed.  The empty tuple is the zero index.  Multi-indexes
select Hermite orders per increment slot of a uniform time grid; a fine-grid
index matches a coarse one when each coarse entry equals the sum of its block
of N1 fine entries.

Index sets are held as tables: read-only integer arrays with one row per
index, padded with zeros to the number of slots.  The enumerators stream a
table's rows as canonical tuples, and coefficient code reads the same tables
to compute a whole degree (or matching set) at once.  A table's size is
checked before it is allocated.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]


def canonical(entries) -> MultiIndex:
    """Trim trailing zeros and validate non-negative integer entries."""
    a = tuple(int(x) for x in entries)
    if any(x < 0 for x in a):
        raise ValueError(f"multi-index entries must be non-negative: {a}")
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def length(a: MultiIndex) -> int:
    """Total degree |a| = sum of entries."""
    return sum(a)


def factorial(a: MultiIndex) -> int:
    """Product of entry factorials, prod_i a_i! (exact integer)."""
    out = 1
    for x in a:
        out *= math.factorial(x)
    return out


def log_factorial(a: MultiIndex) -> float:
    """log(prod_i a_i!), safe for |a| well beyond exact-float range."""
    return sum(math.lgamma(x + 1) for x in a)


def log_factorial_table(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, each from ``math.lgamma`` as in :func:`log_factorial`."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def log_factorial_rows(table: np.ndarray, log_factorials: np.ndarray) -> np.ndarray:
    """:func:`log_factorial` of every row of an index table.

    Summed column by column, left to right from 0.0, which is the order
    :func:`log_factorial` adds in (trailing zeros add 0.0), so every entry is
    bit-equal to it.  ``log_factorials`` is a :func:`log_factorial_table`
    reaching the table's largest entry.
    """
    out = np.zeros(len(table))
    for column in table.T:
        out += log_factorials[column]
    return out


def last_nonzero(a: MultiIndex) -> Optional[Tuple[int, int]]:
    """(position, value) of the last nonzero entry, 1-based; None for zero index."""
    a = canonical(a)
    if not a:
        return None
    return len(a), a[-1]


def coarsen(a_fine: MultiIndex, n0: int, n1: int) -> MultiIndex:
    """Block sums: a_i = sum of fine entries in ((i-1)*n1, i*n1]."""
    a_fine = canonical(a_fine)
    if len(a_fine) > n0 * n1:
        raise ValueError(
            f"fine index of length {len(a_fine)} exceeds {n0}*{n1} slots"
        )
    padded = a_fine + (0,) * (n0 * n1 - len(a_fine))
    return canonical(
        sum(padded[i * n1 : (i + 1) * n1]) for i in range(n0)
    )


def matches(a_fine: MultiIndex, a_coarse: MultiIndex, n0: int, n1: int) -> bool:
    """True iff the fine index block-sums to the coarse one."""
    a_coarse = canonical(a_coarse)
    if len(a_coarse) > n0:
        raise ValueError(f"coarse index of length {len(a_coarse)} exceeds {n0} slots")
    return coarsen(a_fine, n0, n1) == a_coarse


#: bytes of the largest index set held as a table; larger ones are refused
MAX_TABLE_BYTES = 1 << 24
#: composition tables kept, and clark_ocone's tail-mass tables; refine reads
#: one composition table per block entry value
TABLE_CACHE_SIZE = 64
#: table rows turned into tuples at a time
ROW_CHUNK = 4096


class IndexSetTooLarge(ValueError):
    """An index table would exceed MAX_TABLE_BYTES; raised before allocating."""


def _check_size(rows: int, width: int, max_entry: int) -> None:
    size = rows * width * np.dtype(_dtype(max_entry)).itemsize
    if size > MAX_TABLE_BYTES:
        raise IndexSetTooLarge(
            f"index set of {rows} indexes on {width} slots needs {size} bytes "
            f"as a table, above the limit of {MAX_TABLE_BYTES} bytes"
        )


class PathBatchTooLarge(ValueError):
    """An array sized by the input would exceed physical memory; raised before allocating.

    Path batches and their results, block buffers, the slot-sized tables of
    occupation norms and tail masses, Gauss rules and the Hermite tables of
    terminal expansions are checked this way.
    """


def _check_fits(n_bytes: int, what: str) -> None:
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_bytes > physical:
        raise PathBatchTooLarge(
            f"{what} need {n_bytes} bytes, more than the {physical} bytes of physical memory"
        )


def _dtype(total: int) -> type:
    """int8 or int16 for entries up to ``total``; int64 beyond."""
    return np.int8 if total < 128 else np.int16 if total < 32768 else np.int64


def composition_table(total: int, parts: int) -> np.ndarray:
    """All ways to write ``total`` as an ordered sum of ``parts`` non-negative ints.

    One row per composition, C(total + parts - 1, parts - 1) rows in
    lexicographic order, as a read-only int8/int16 array shared by every
    caller.  The size is checked before anything is allocated; building it
    takes a few integer arrays with one entry per row besides the table.
    """
    if total < 0 or parts < 0:
        raise ValueError(f"composition table needs total, parts >= 0: {total}, {parts}")
    if parts:
        _check_size(math.comb(total + parts - 1, parts - 1), parts, total)
    return _composition_table(total, parts)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _composition_table(total: int, parts: int) -> np.ndarray:
    rows = math.comb(total + parts - 1, parts - 1) if parts else int(total == 0)
    table = np.empty((rows, parts), _dtype(total))
    # The recursion on the first entry, unrolled column by column.  Rows that
    # share their first entries form a run, with ``left`` still to place;
    # entry f of the next column starts a block of C(left - f + rest - 1,
    # rest - 1) rows, rest being the number of columns after it.
    left = np.array([total])
    for column in range(parts - 1):
        rest = parts - column - 1
        block_rows = np.array([math.comb(r + rest - 1, rest - 1) for r in range(total + 1)])
        choices = left + 1
        first = np.arange(choices.sum()) - np.repeat(np.cumsum(choices) - choices, choices)
        left = np.repeat(left, choices) - first
        table[:, column] = np.repeat(first, block_rows[left])
    if parts:
        # one row per run is left: its last entry is what remains
        table[:, -1] = left
    table.flags.writeable = False
    return table


def matching_table(a_coarse: MultiIndex, n0: int, n1: int) -> np.ndarray:
    """Fine indexes on n0*n1 slots matching ``a_coarse``, one padded row each.

    Block i of a row is a row of composition_table(a_i, n1); the blocks are
    combined in ``itertools.product`` order, so the last block varies
    fastest.  prod_i C(a_i + n1 - 1, n1 - 1) rows, read-only.
    """
    a_coarse = canonical(a_coarse)
    if len(a_coarse) > n0:
        raise ValueError(f"coarse index of length {len(a_coarse)} exceeds {n0} slots")
    return _matching_table(a_coarse, n0, n1)


#: refine reads each coarse index's table twice: for its keys and its weights
@lru_cache(maxsize=16)
def _matching_table(a_coarse: MultiIndex, n0: int, n1: int) -> np.ndarray:
    padded = a_coarse + (0,) * (n0 - len(a_coarse))
    rows = math.prod(math.comb(ai + n1 - 1, n1 - 1) if n1 else int(ai == 0)
                     for ai in padded)
    _check_size(rows, n0 * n1, max(padded, default=0))
    blocks = [composition_table(ai, n1) for ai in padded]
    table = np.empty((rows, n0 * n1), _dtype(max(padded, default=0)))
    outer = 1
    for i, block in enumerate(blocks):
        inner = rows // (outer * len(block)) if rows else 0
        view = table.reshape(outer, len(block), inner, n0 * n1)
        view[:, :, :, i * n1 : (i + 1) * n1] = block[:, None, :]
        outer *= len(block)
    table.flags.writeable = False
    return table


def check_refinement_size(coarse_keys: Iterable[MultiIndex], n0: int, n1: int) -> None:
    """Refuse refining ``coarse_keys`` by n1 before any fine index is built.

    The fine indexes, sum_a prod_i C(a_i + n1 - 1, n1 - 1) of them on n0*n1
    slots, are checked against MAX_TABLE_BYTES as one table, as the keys of
    a single fine expansion.
    """
    rows = top = 0
    for a in coarse_keys:
        rows += math.prod(math.comb(ai + n1 - 1, n1 - 1) for ai in a)
        top = max(top, max(a, default=0))
    _check_size(rows, n0 * n1, top)


def row_lengths(table: np.ndarray) -> np.ndarray:
    """Canonical length of each row: the 1-based slot of its last nonzero entry."""
    width = table.shape[1]
    if not width:
        return np.zeros(len(table), dtype=np.intp)
    nonzero = table[:, ::-1] != 0
    return np.where(nonzero.any(axis=1), width - nonzero.argmax(axis=1), 0)


def _canonical_rows(table: np.ndarray) -> Iterator[MultiIndex]:
    """Each row of ``table`` as a tuple with its trailing zeros trimmed."""
    for lo in range(0, len(table), ROW_CHUNK):
        chunk = table[lo : lo + ROW_CHUNK]
        for row, n in zip(chunk.tolist(), row_lengths(chunk).tolist()):
            yield tuple(row[:n])


def enumerate_matching(a_coarse: MultiIndex, n0: int, n1: int) -> Iterator[MultiIndex]:
    """All fine indexes on n0*n1 slots matching ``a_coarse``, each exactly once.

    The rows of :func:`matching_table`, in its order; the stream has
    prod_i C(a_i + n1 - 1, n1 - 1) elements.
    """
    yield from _canonical_rows(matching_table(a_coarse, n0, n1))


def check_upto_size(dimension: int, max_degree: int) -> None:
    """Refuse the index set of :func:`enumerate_upto` before anything is built for it."""
    _check_size(math.comb(dimension + max_degree, max_degree), dimension, max_degree)


def enumerate_upto(dimension: int, max_degree: int) -> Iterator[MultiIndex]:
    """All indexes with canonical length <= dimension and |a| <= max_degree.

    Graded lexicographic order: by total degree, then lexicographic on the
    padded tuple, so the output is deterministic.  Degree m is the rows of
    composition_table(m, dimension), built when the stream reaches it; the
    C(dimension + max_degree, max_degree) rows are checked against
    MAX_TABLE_BYTES (:func:`check_upto_size`) before the first one.
    """
    check_upto_size(dimension, max_degree)
    for deg in range(max_degree + 1):
        yield from _canonical_rows(composition_table(deg, dimension))


def format_multiindex(a: MultiIndex) -> str:
    """Canonical textual form "a1,a2,...,ak"; the zero index prints as "()"."""
    return format_canonical(canonical(a))


def format_canonical(a: MultiIndex) -> str:
    """:func:`format_multiindex` of an index already in canonical form."""
    return ",".join(map(str, a)) if a else "()"


def parse_multiindex(text: str) -> MultiIndex:
    """Inverse of :func:`format_multiindex`; accepts "" and "()" for zero."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return canonical(int(part) for part in text.split(","))
