"""Integration tests for the scalability harness (DES + analytic model)."""

import pytest

from repro.dssp import StrategyClass
from repro.simulation import (
    CacheBehavior,
    SimulationParams,
    find_scalability,
    measure_cache_behavior,
    predict_p90,
    simulate_users,
    sweep,
)
from repro.simulation.sweep import SweepTask


def deploy(name: str, strategy: StrategyClass, scale=0.2, seed=1):
    return sweep.deploy(SweepTask(name, strategy, scale=scale, data_seed=seed))


@pytest.fixture(scope="module")
def toy_behavior():
    node, home, sampler = deploy("bookstore", StrategyClass.MVIS)
    return measure_cache_behavior(node, home, sampler, pages=300, seed=2)


class TestMeasurement:
    def test_behavior_accounting_consistent(self, toy_behavior):
        b = toy_behavior
        assert b.hits_per_page + b.misses_per_page == pytest.approx(
            b.queries_per_page
        )
        assert 0.0 <= b.hit_rate <= 1.0
        assert b.updates_per_page > 0

    def test_mvis_beats_mbs_on_hit_rate(self):
        rates = {}
        for strategy in (StrategyClass.MVIS, StrategyClass.MBS):
            node, home, sampler = deploy("bookstore", strategy)
            behavior = measure_cache_behavior(node, home, sampler, 300, seed=2)
            rates[strategy] = behavior.hit_rate
        assert rates[StrategyClass.MVIS] > rates[StrategyClass.MBS]


class TestAnalyticModel:
    def test_p90_monotone_in_users(self, toy_behavior):
        params = SimulationParams()
        values = [
            predict_p90(users, params, toy_behavior)
            for users in (1, 50, 200, 800)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_p90_infinite_past_saturation(self, toy_behavior):
        params = SimulationParams()
        assert predict_p90(10**7, params, toy_behavior) == float("inf")

    def test_search_finds_sla_crossing(self, toy_behavior):
        params = SimulationParams()
        users = find_scalability(params, behavior=toy_behavior)
        assert users > 0
        assert predict_p90(users, params, toy_behavior) <= params.sla_seconds
        assert predict_p90(users + 1, params, toy_behavior) > params.sla_seconds

    def test_search_needs_exactly_one_mode(self, toy_behavior):
        with pytest.raises(ValueError):
            find_scalability(SimulationParams())
        with pytest.raises(ValueError):
            find_scalability(
                SimulationParams(),
                behavior=toy_behavior,
                des_probe=lambda users: None,
            )

    def test_zero_when_single_user_misses_sla(self):
        behavior = CacheBehavior(
            pages=100,
            queries_per_page=30.0,
            hits_per_page=0.0,
            misses_per_page=30.0,
            updates_per_page=2.0,
            invalidations_per_update=10.0,
        )
        # 32 WAN round trips of >0.2 s each can never fit in 2 s.
        assert find_scalability(SimulationParams(), behavior=behavior) == 0


class TestVarianceFix:
    """Regression: the model's dispersion term must be a true variance.

    The seed plugged the raw second moment E[X²] into the p90 formula,
    which double-counts the mean — a page made of identical ops got a
    2.28× inflated p90 even though its time is deterministic.
    """

    @staticmethod
    def _behavior(hits=0.0, misses=0.0, updates=0.0):
        return CacheBehavior(
            pages=100,
            queries_per_page=hits + misses,
            hits_per_page=hits,
            misses_per_page=misses,
            updates_per_page=updates,
            invalidations_per_update=1.0 if updates else 0.0,
        )

    def test_homogeneous_page_has_no_dispersion(self):
        # One cache hit per page: the page time is (almost) deterministic,
        # so p90 ≈ mean = client RTT + DSSP lookup, not 2.28× that.
        params = SimulationParams()
        client_rt = params.client_dssp.round_trip(
            params.request_bytes, params.response_bytes
        )
        p90 = predict_p90(1, params, self._behavior(hits=1.0))
        assert client_rt < p90 < client_rt + 2 * params.dssp_lookup_s

    def test_homogeneous_page_scales_linearly_in_ops(self):
        # With zero mixture variance the p90 is the mean, which is linear
        # in the per-page op count.  The raw-second-moment bug broke this:
        # its sqrt term grew as sqrt(n)·t, not n·t.
        params = SimulationParams()
        one = predict_p90(1, params, self._behavior(hits=1.0))
        four = predict_p90(1, params, self._behavior(hits=4.0))
        assert four == pytest.approx(4 * one, rel=1e-3)

    def test_mixed_page_pays_a_dispersion_premium(self):
        # Replacing a hit with a (slower) miss raises the mean AND adds
        # genuine variance, so p90 exceeds the all-hit page by more than
        # the mean shift alone.
        params = SimulationParams()
        wan_rt = params.dssp_home.round_trip(
            params.request_bytes, params.response_bytes
        )
        all_hits = predict_p90(1, params, self._behavior(hits=2.0))
        mixed = predict_p90(1, params, self._behavior(hits=1.0, misses=1.0))
        mean_shift_upper = wan_rt + 2 * params.home_query_s
        assert mixed > all_hits + mean_shift_upper


class TestBracketOvershoot:
    """Regression: when the doubling bracket overshoots ``max_users``, the
    seed returned ``max_users`` without ever probing it — overstating
    scalability whenever the true SLA crossing lay inside the bracket."""

    class _Report:
        def __init__(self, ok):
            self._ok = ok

        def meets_sla(self, params):
            return self._ok

    def _probe(self, threshold):
        return lambda users: self._Report(users <= threshold)

    def test_crossing_inside_overshot_bracket(self):
        # Bracket reaches 16 → 32 > 25; the crossing at 20 must be found
        # by searching [16, 25], not papered over by returning 25.
        params = SimulationParams()
        users = find_scalability(params, des_probe=self._probe(20), max_users=25)
        assert users == 20

    def test_crossing_just_below_ceiling(self):
        params = SimulationParams()
        users = find_scalability(params, des_probe=self._probe(24), max_users=25)
        assert users == 24

    def test_ceiling_returned_only_when_it_meets_sla(self):
        params = SimulationParams()
        users = find_scalability(params, des_probe=self._probe(100), max_users=25)
        assert users == 25


class TestDes:
    def test_small_run_produces_pages(self):
        node, home, sampler = deploy("bookstore", StrategyClass.MVIS)
        params = SimulationParams(duration_s=60.0)
        report = simulate_users(node, home, sampler, users=5, params=params, seed=4)
        assert report.pages_completed > 10
        assert report.latency.count > 0
        assert report.p90 < 2.0  # 5 users cannot saturate anything

    def test_des_latency_grows_with_users(self):
        """Past home-server saturation, queueing dominates page latency."""
        params = SimulationParams(duration_s=45.0)
        node, home, sampler = deploy("bookstore", StrategyClass.MBS, scale=0.2)
        few = simulate_users(node, home, sampler, users=3, params=params, seed=4)
        node2, home2, sampler2 = deploy("bookstore", StrategyClass.MBS, scale=0.2)
        many = simulate_users(
            node2, home2, sampler2, users=600, params=params, seed=4
        )
        assert many.p90 > 1.5 * few.p90
        assert many.home_utilization > few.home_utilization

    def test_des_vs_analytic_agree_on_strategy_ordering(self):
        """Cross-validation: both evaluation paths rank MVIS above MBS."""
        params = SimulationParams(duration_s=45.0)
        p90 = {}
        scal = {}
        for strategy in (StrategyClass.MVIS, StrategyClass.MBS):
            node, home, sampler = deploy("bookstore", strategy)
            behavior = measure_cache_behavior(node, home, sampler, 250, seed=2)
            scal[strategy] = find_scalability(params, behavior=behavior)
            node2, home2, sampler2 = deploy("bookstore", strategy)
            report = simulate_users(
                node2, home2, sampler2, users=40, params=params, seed=4
            )
            p90[strategy] = report.p90
        assert scal[StrategyClass.MVIS] >= scal[StrategyClass.MBS]
        assert p90[StrategyClass.MVIS] <= p90[StrategyClass.MBS]

    def test_cold_start_each_run(self):
        node, home, sampler = deploy("bookstore", StrategyClass.MVIS)
        params = SimulationParams(duration_s=30.0)
        simulate_users(node, home, sampler, users=3, params=params, seed=4)
        before = len(node.cache)
        assert before > 0
        simulate_users(node, home, sampler, users=3, params=params, seed=4)
        # second run started cold (cache cleared at entry)
        assert node.stats.misses > 0
