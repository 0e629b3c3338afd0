"""Tests for wedge counting and transitivity estimation (Section 3.5)."""

import pytest

from repro.core.transitivity import TransitivityEstimator, WedgeCounter
from repro.errors import EmptyStreamError, InvalidParameterError
from repro.exact import count_wedges, transitivity_coefficient
from repro.generators import complete_graph, star_graph
from tests.conftest import assert_mean_close


class TestWedgeCounter:
    def test_unbiased_on_star(self):
        # Star with 12 leaves: zeta = C(12, 2) = 66, no triangles.
        edges = star_graph(12)
        counter = WedgeCounter(30_000, seed=0)
        counter.update_batch(edges)
        assert_mean_close(list(counter.estimates()), 66)

    def test_unbiased_on_social_graph(self, small_social_graph):
        edges, _ = small_social_graph
        zeta = count_wedges(edges)
        counter = WedgeCounter(20_000, seed=1)
        counter.update_batch(edges)
        assert abs(counter.estimate() - zeta) / zeta < 0.05

    def test_single_edge_has_no_wedges(self):
        counter = WedgeCounter(100, seed=2)
        counter.update((0, 1))
        assert counter.estimate() == 0.0

    def test_api_counters(self):
        counter = WedgeCounter(10, seed=3)
        counter.update_batch([(0, 1), (1, 2)])
        assert counter.edges_seen == 2
        assert counter.num_estimators == 10


class TestTransitivityEstimator:
    def test_requires_positive_pool(self):
        with pytest.raises(InvalidParameterError):
            TransitivityEstimator(0)

    def test_requires_positive_wedge_pool(self):
        """A wedge pool of 0 is rejected, not replaced by the triangle
        pool size."""
        with pytest.raises(InvalidParameterError, match="num_wedge_estimators"):
            TransitivityEstimator(100, 0)

    def test_wedge_pool_defaults_to_triangle_pool(self):
        est = TransitivityEstimator(100, seed=1)
        assert est._wedges.num_estimators == 100

    def test_complete_graph_transitivity_one(self):
        edges = complete_graph(12)
        est = TransitivityEstimator(8_000, seed=4)
        est.update_batch(edges)
        assert est.estimate() == pytest.approx(1.0, abs=0.15)

    def test_star_raises_without_triangles_but_wedges_ok(self):
        est = TransitivityEstimator(5_000, seed=5)
        est.update_batch(star_graph(10))
        assert est.estimate() == pytest.approx(0.0, abs=1e-9)

    def test_no_wedge_estimate_raises(self):
        est = TransitivityEstimator(50, seed=6)
        est.update((0, 1))  # single edge: zeta estimate is 0
        with pytest.raises(EmptyStreamError):
            est.estimate()

    def test_matches_exact_on_social_graph(self, small_social_graph):
        edges, _ = small_social_graph
        kappa = transitivity_coefficient(edges)
        est = TransitivityEstimator(25_000, 5_000, seed=7)
        est.update_batch(edges)
        assert est.estimate() == pytest.approx(kappa, rel=0.25)

    def test_component_estimates_accessible(self, small_social_graph):
        edges, _ = small_social_graph
        est = TransitivityEstimator(5_000, seed=8)
        est.update_batch(edges)
        assert est.triangle_estimate() > 0
        assert est.wedge_estimate() > 0
        assert est.edges_seen == len(edges)

    def test_separate_pools_are_independent(self):
        """The wedge pool can be much smaller than the triangle pool."""
        est = TransitivityEstimator(1_000, 100, seed=9)
        est.update_batch(complete_graph(8))
        assert est._wedges.num_estimators == 100
        assert est._triangles.num_estimators == 1_000

    def test_per_edge_update_path(self):
        est = TransitivityEstimator(200, seed=10)
        for e in complete_graph(6):
            est.update(e)
        assert est.edges_seen == 15
