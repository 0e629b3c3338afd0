"""The hot kernels of the vectorized engine, as plain NumPy functions.

Every hot loop of :class:`~repro.core.vectorized
.VectorizedTriangleCounter`, :class:`~repro.core.watch_index.WatchIndex`
and :class:`~repro.streaming.batch.BatchContext` -- sorted lookups,
range expansion, packed-key index sorts, edge-key packing, wedge
geometry, phi-from-draws and the step-2 totals -- lives here as one
named function with a documented output contract. All randomness stays
in the engine's own NumPy generator: kernels only consume
already-drawn arrays, with exact integer arithmetic and IEEE-754
float64 operations (multiply then C-truncation to int64), so the
golden-state fingerprints and the hypothesis ``sparse == dense`` suites
pin their behaviour end to end. ``tests/test_backend.py`` pins them
kernel by kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "expand_ranges",
    "lookup_sorted",
    "pack2_index_sort",
    "pack_edge_keys",
    "pack_index_sort",
    "pack_sort_pairs",
    "packed_range_lookup",
    "phi_from_draws",
    "set_backend",
    "sorted_range_lookup",
    "step2_totals",
    "tail_probe",
    "wedge_geometry",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: Above this many queries, sort them first: binary search with sorted
#: queries streams through the reference array instead of thrashing it
#: (measured ~4-6x on 10^5-scale query sets).
_SORTED_QUERY_MIN = 8192


def lookup_sorted(queries, sorted_ref, values, offset=0):
    """``values[i] + offset`` where ``sorted_ref[i] == query`` else 0.

    ``sorted_ref`` must be non-empty; duplicate reference keys resolve
    to the first (the ``searchsorted`` left side).
    """
    n = queries.shape[0]
    top = sorted_ref.shape[0] - 1
    if n >= _SORTED_QUERY_MIN:
        order = np.argsort(queries)
        sorted_queries = queries[order]
        pos = np.minimum(np.searchsorted(sorted_ref, sorted_queries), top)
        found = sorted_ref[pos] == sorted_queries
        result = np.where(found, values[pos] + offset, 0)
        out = np.empty(n, dtype=np.int64)
        out[order] = result
        return out
    pos = np.minimum(np.searchsorted(sorted_ref, queries), top)
    found = sorted_ref[pos] == queries
    return np.where(found, values[pos] + offset, 0)


def expand_ranges(lo, hi):
    """Expand per-query ranges into ``(positions, query indices)``.

    Concatenates ``arange(lo[i], hi[i])`` for every query ``i`` (in
    query order) and pairs each produced position with ``i``.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    query_idx = np.arange(lo.shape[0], dtype=np.int64)
    nonempty = counts > 0
    if not nonempty.all():
        lo = lo[nonempty]
        counts = counts[nonempty]
        query_idx = query_idx[nonempty]
    starts = np.cumsum(counts) - counts
    positions = np.repeat(lo - starts, counts) + np.arange(total, dtype=np.int64)
    return positions, np.repeat(query_idx, counts)


def packed_range_lookup(packed, shift, queries):
    """Slots of all ``packed`` entries whose key is in sorted ``queries``.

    ``packed`` holds sorted ``(key << shift) | slot`` values; returns
    ``(slots, query_indices)`` in query-major order.
    """
    lo = np.searchsorted(packed, queries << shift)
    hi = np.searchsorted(packed, (queries + 1) << shift)
    span, qidx = expand_ranges(lo, hi)
    if span.shape[0] == 0:
        return _EMPTY, _EMPTY
    return packed[span] & ((np.int64(1) << shift) - 1), qidx


def sorted_range_lookup(sorted_keys, queries):
    """Positions of all ``sorted_keys`` entries matching sorted ``queries``.

    Returns ``(positions, query_indices)`` in query-major order; the
    caller gathers its parallel value array at ``positions``.
    """
    lo = np.searchsorted(sorted_keys, queries, side="left")
    hi = np.searchsorted(sorted_keys, queries, side="right")
    return expand_ranges(lo, hi)


def tail_probe(queries, tail_keys):
    """Match each tail key against sorted unique ``queries``.

    Returns ``(tail_indices, query_indices)`` for the tail entries whose
    key occurs in ``queries`` (tail order). ``queries`` must be
    non-empty.
    """
    q = queries.shape[0]
    pos = np.searchsorted(queries, tail_keys)
    np.minimum(pos, q - 1, out=pos)
    hit = queries[pos] == tail_keys
    return np.flatnonzero(hit), pos[hit]


def pack_index_sort(values, shift):
    """Sorted ``(values[i] << shift) | i`` -- the stable-sort-by-pack trick.

    ``shift`` must exceed ``bit_length(len(values) - 1)`` so the index
    bits never collide; the result is then a stable (value, position)
    order in one quicksort.
    """
    packed = (values << shift) | np.arange(values.shape[0], dtype=np.int64)
    packed.sort()
    return packed


def pack2_index_sort(hi_vals, lo_vals, lo_shift, idx_shift):
    """Sorted ``(((hi << lo_shift) | lo) << idx_shift) | i`` packing."""
    packed = (((hi_vals << lo_shift) | lo_vals) << idx_shift) | np.arange(
        hi_vals.shape[0], dtype=np.int64
    )
    packed.sort()
    return packed


def pack_sort_pairs(keys, slots, shift):
    """Sorted ``(keys << shift) | slots`` (key-major, slot-minor)."""
    packed = (keys << shift) | slots
    packed.sort()
    return packed


def pack_edge_keys(a, b):
    """Canonical packed edge keys ``(min << 32) | max`` per pair."""
    return (np.minimum(a, b) << np.int64(32)) | np.maximum(a, b)


def wedge_geometry(r1u, r1v, r2u, r2v):
    """Shared vertex, outer endpoints, and closing key of each wedge.

    The shared vertex is the endpoint ``r1`` and ``r2`` have in common;
    the two outer endpoints form the closing edge, returned packed as
    a canonical int64 key.
    """
    shared = np.where((r1u == r2u) | (r1u == r2v), r1u, r1v)
    out1 = r1u + r1v - shared
    out2 = r2u + r2v - shared
    keys = (np.minimum(out1, out2) << np.int64(32)) | np.maximum(out1, out2)
    return shared, out1, out2, keys


def phi_from_draws(draws, totals):
    """Algorithm 3's ``randInt(1, total)`` from uniform float64 draws.

    ``1 + int64(draw * total)`` clamped to ``total`` -- the clamp closes
    the rounding hole where a draw close to 1 against a large total
    rounds the product up to ``total`` itself (see the phi-clamp
    regression tests). Exact float64 multiply + C truncation, so the
    result is reproducible bit for bit.
    """
    phi = 1 + (draws * totals).astype(np.int64)
    np.minimum(phi, totals, out=phi)
    return phi


def step2_totals(deg_bx, deg_by, beta_x, beta_y, c_minus):
    """Observation 3.6's candidate counts: ``(a, c_plus, total)``.

    ``a`` is the new-candidate count on the ``x`` side, ``c_plus`` the
    total new candidates, ``total = c_minus + c_plus`` the updated
    running count.
    """
    a = deg_bx - beta_x
    c_plus = a + (deg_by - beta_y)
    return a, c_plus, c_minus + c_plus


def set_backend(name: str | None) -> None:
    """Accept ``None`` and do nothing: there is one kernel implementation.

    Kept for callers written when a second one could be selected; any
    other value raises :class:`~repro.errors.InvalidParameterError`.
    """
    if name is not None:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; the NumPy kernels are the "
            "only ones"
        )
