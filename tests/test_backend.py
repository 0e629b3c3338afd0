"""The NumPy hot kernels of :mod:`repro.core.backend`, one by one.

Each test pins one kernel's documented output contract on a small
input. The end-to-end halves of the contract (golden fingerprints,
sparse == dense) live in ``tests/test_vectorized_sparse.py``.
"""

import numpy as np
import pytest

from repro.core import backend as kb
from repro.errors import InvalidParameterError


class TestNumpyKernelContracts:
    """Each kernel's output contract, pinned on small inputs."""

    def test_lookup_sorted_hits_misses_offset(self):
        ref = np.array([2, 5, 9], dtype=np.int64)
        vals = np.array([10, 20, 30], dtype=np.int64)
        queries = np.array([5, 3, 9, 2, 11], dtype=np.int64)
        assert kb.lookup_sorted(queries, ref, vals, 0).tolist() == [20, 0, 30, 10, 0]
        assert kb.lookup_sorted(queries, ref, vals, 1).tolist() == [21, 0, 31, 11, 0]

    def test_lookup_sorted_large_query_path_matches_small(self):
        """Past the sorted-query threshold the strategy switches; the
        answers must not."""
        rng = np.random.default_rng(0)
        ref = np.unique(rng.integers(0, 5000, 700).astype(np.int64))
        vals = rng.integers(1, 1 << 40, ref.shape[0]).astype(np.int64)
        queries = rng.integers(0, 5000, kb._SORTED_QUERY_MIN + 17).astype(np.int64)
        got = kb.lookup_sorted(queries, ref, vals, 3)
        table = dict(zip(ref.tolist(), vals.tolist()))
        assert got.tolist() == [table.get(int(q), -3) + 3 for q in queries]

    def test_expand_ranges_mixed_empties(self):
        lo = np.array([3, 7, 7, 0], dtype=np.int64)
        hi = np.array([5, 7, 9, 1], dtype=np.int64)
        positions, qidx = kb.expand_ranges(lo, hi)
        assert positions.tolist() == [3, 4, 7, 8, 0]
        assert qidx.tolist() == [0, 0, 2, 2, 3]

    def test_expand_ranges_all_empty(self):
        bound = np.array([4, 4], dtype=np.int64)
        positions, qidx = kb.expand_ranges(bound, bound)
        assert positions.shape == (0,) and qidx.shape == (0,)

    def test_packed_range_lookup(self):
        shift = np.int64(4)
        packed = np.sort(
            np.array([(1 << 4) | 2, (1 << 4) | 5, (3 << 4) | 0], dtype=np.int64)
        )
        queries = np.array([0, 1, 3], dtype=np.int64)
        slots, qidx = kb.packed_range_lookup(packed, shift, queries)
        assert slots.tolist() == [2, 5, 0]
        assert qidx.tolist() == [1, 1, 2]

    def test_sorted_range_lookup_duplicates(self):
        keys = np.array([1, 1, 2, 5, 5, 5], dtype=np.int64)
        queries = np.array([1, 4, 5], dtype=np.int64)
        positions, qidx = kb.sorted_range_lookup(keys, queries)
        assert positions.tolist() == [0, 1, 3, 4, 5]
        assert qidx.tolist() == [0, 0, 2, 2, 2]

    def test_tail_probe(self):
        queries = np.array([2, 6, 9], dtype=np.int64)
        tail = np.array([6, 1, 9, 2, 6], dtype=np.int64)
        tail_idx, qidx = kb.tail_probe(queries, tail)
        assert tail_idx.tolist() == [0, 2, 3, 4]
        assert qidx.tolist() == [1, 2, 0, 1]

    def test_pack_index_sort_is_a_stable_argsort(self):
        values = np.array([5, 1, 5, 0], dtype=np.int64)
        packed = kb.pack_index_sort(values, np.int64(2))
        assert (packed >> 2).tolist() == [0, 1, 5, 5]
        assert (packed & 3).tolist() == [3, 1, 0, 2]  # ties keep input order

    def test_pack2_index_sort_orders_hi_then_lo(self):
        hi = np.array([2, 1, 2], dtype=np.int64)
        lo = np.array([0, 9, 0], dtype=np.int64)
        packed = kb.pack2_index_sort(hi, lo, np.int64(4), np.int64(2))
        assert (packed & 3).tolist() == [1, 0, 2]

    def test_pack_sort_pairs(self):
        keys = np.array([7, 3, 7], dtype=np.int64)
        slots = np.array([1, 2, 0], dtype=np.int64)
        packed = kb.pack_sort_pairs(keys, slots, np.int64(2))
        assert (packed >> 2).tolist() == [3, 7, 7]
        assert (packed & 3).tolist() == [2, 0, 1]

    def test_pack_edge_keys_canonicalizes(self):
        a = np.array([5, 2], dtype=np.int64)
        c = np.array([2, 9], dtype=np.int64)
        assert kb.pack_edge_keys(a, c).tolist() == [(2 << 32) | 5, (2 << 32) | 9]

    def test_wedge_geometry(self):
        r1u = np.array([0, 3], dtype=np.int64)
        r1v = np.array([1, 4], dtype=np.int64)
        r2u = np.array([1, 5], dtype=np.int64)
        r2v = np.array([2, 3], dtype=np.int64)
        shared, out1, out2, keys = kb.wedge_geometry(r1u, r1v, r2u, r2v)
        assert shared.tolist() == [1, 3]
        assert out1.tolist() == [0, 4]
        assert out2.tolist() == [2, 5]
        assert keys.tolist() == [(0 << 32) | 2, (4 << 32) | 5]

    def test_phi_clamps_the_rounding_boundary(self):
        total = np.array([1 << 60], dtype=np.int64)
        assert kb.phi_from_draws(np.array([1.0]), total).tolist() == [1 << 60]
        assert kb.phi_from_draws(np.array([0.0]), total).tolist() == [1]

    def test_step2_totals(self):
        a, c_plus, total = kb.step2_totals(
            np.array([5], dtype=np.int64),
            np.array([4], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([10], dtype=np.int64),
        )
        assert (a.tolist(), c_plus.tolist(), total.tolist()) == ([3], [6], [16])


def test_set_backend_accepts_only_none():
    """The no-op shim left for callers that still select a backend."""
    assert kb.set_backend(None) is None
    for name in ("numpy", "auto", "jit"):
        with pytest.raises(InvalidParameterError, match="only ones"):
            kb.set_backend(name)
