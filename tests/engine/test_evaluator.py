"""Equivalence and memoisation tests for the group-evaluation engine.

The batched engine must be numerically indistinguishable from the scalar
reference path: same estimated rates for every candidate group, same
transmission SINRs, and — run inside the full WLAN simulation — the same
trajectory for every concurrency selector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import ChannelSet
from repro.engine import BatchedGroupEvaluator
from repro.mac.association import LeaderAP
from repro.phy.channel.model import rayleigh_channel
from repro.sim.wlan import WLANConfig, WLANSimulation

from reference.evaluator import ScalarGroupEvaluator, StaticChannelSource

APS = (0, 1, 2)
CLIENTS = (100, 101, 102, 103)
GROUP = (100, 101, 102)

#: Batched and scalar paths run the same LAPACK kernels in a different
#: stacking; agreement is to rounding, not literally bit-for-bit.
TIGHT = dict(rtol=1e-9, atol=1e-12)


def downlink_channels(seed, n_antennas=2, clients=CLIENTS):
    rng = np.random.default_rng(seed)
    return ChannelSet(
        {
            (a, c): rayleigh_channel(n_antennas, n_antennas, rng)
            for a in APS
            for c in clients
        }
    )


def true_band(channels, group=GROUP):
    """The ``(1, 3, 3, M, M)`` one-bin true band of ``group``."""
    return np.array([[[channels.h(a, c) for c in group] for a in APS]])


def make_pair(seed, n_antennas=2):
    source = StaticChannelSource(downlink_channels(seed, n_antennas), APS)
    return (
        ScalarGroupEvaluator(source, APS),
        BatchedGroupEvaluator(source, APS),
    )


class TestNumericalEquivalence:
    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_group_rate(self, seed, n_antennas):
        scalar, batched = make_pair(seed, n_antennas)
        assert np.isclose(batched.evaluate(GROUP), scalar.evaluate(GROUP), **TIGHT)

    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    def test_all_candidate_orderings(self, n_antennas):
        """Every AP assignment (group order) matches, not just one."""
        import itertools

        scalar, batched = make_pair(7, n_antennas)
        groups = [tuple(p) for p in itertools.permutations(GROUP)]
        np.testing.assert_allclose(
            batched.evaluate_many(groups), scalar.evaluate_many(groups), **TIGHT
        )

    @given(seed=st.integers(0, 2**32 - 1), n_antennas=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_property_random_channels(self, seed, n_antennas):
        """Property: batched == scalar on arbitrary random channel sets."""
        scalar, batched = make_pair(seed, n_antennas)
        assert np.isclose(batched.evaluate(GROUP), scalar.evaluate(GROUP), **TIGHT)

    @pytest.mark.parametrize("noise_power", [1.0, 0.01, 10.0])
    def test_non_default_noise_power(self, noise_power):
        """Both engines rank eigenvector candidates at the same noise."""
        source = StaticChannelSource(downlink_channels(0), APS)
        scalar = ScalarGroupEvaluator(source, APS, noise_power=noise_power)
        batched = BatchedGroupEvaluator(source, APS, noise_power=noise_power)
        assert np.isclose(batched.evaluate(GROUP), scalar.evaluate(GROUP), **TIGHT)

    def test_transmit_sinrs_match(self):
        """Stale-estimate transmission: same actual and genie SINRs."""
        scalar, batched = make_pair(5)
        rng = np.random.default_rng(99)
        true = true_band(downlink_channels(5, clients=GROUP).perturbed(0.2, rng))
        actual_s, ideal_s = scalar.transmit_sinrs(GROUP, true)
        actual_b, ideal_b = batched.transmit_sinrs(GROUP, true)
        assert actual_b.shape == ideal_b.shape == (1, 3)
        np.testing.assert_allclose(actual_b, actual_s, **TIGHT)
        np.testing.assert_allclose(ideal_b, ideal_s, **TIGHT)

    @pytest.mark.parametrize("algorithm", ["fifo", "best2", "brute"])
    def test_full_simulation_trajectory(self, algorithm):
        """All selectors: scalar and batched sims walk the same path."""
        def run(scalar_oracle):
            config = WLANConfig(
                n_clients=6, rho=0.98, seed=13, algorithm=algorithm,
                engine="reference",
            )
            sim = WLANSimulation(config)
            if scalar_oracle:
                # No engine value selects the scalar evaluator: it is a
                # test-only oracle, swapped into a reference simulation.
                sim.evaluator = ScalarGroupEvaluator(sim.leader, sim.evaluator.aps)
            return sim.run(15)

        scalar, batched = run(True), run(False)
        assert batched.drift_reports == scalar.drift_reports
        assert batched.update_bytes == scalar.update_bytes
        assert np.isclose(batched.staleness_loss_db, scalar.staleness_loss_db,
                          rtol=1e-9, atol=1e-9)
        for client, rate in scalar.per_client_rate.items():
            assert np.isclose(batched.per_client_rate[client], rate,
                              rtol=1e-9, atol=1e-12)


class TestMemoisation:
    def test_static_source_hits_after_first_solve(self):
        _, batched = make_pair(0)
        first = batched.evaluate(GROUP)
        assert batched.cache_info() == {"hits": 0, "misses": 1, "entries": 1}
        second = batched.evaluate(GROUP)
        assert second == first  # cached value returned verbatim
        assert batched.cache_info()["hits"] == 1

    def test_duplicate_groups_in_one_probe_solved_once(self):
        _, batched = make_pair(0)
        rates = batched.evaluate_many([GROUP, GROUP, GROUP])
        assert rates[0] == rates[1] == rates[2]
        assert batched.cache_info()["entries"] == 1

    def test_leader_version_bump_invalidates(self):
        """A drift report for a member client forces a re-solve."""
        leader = LeaderAP(ap_id=0, ap_ids=list(APS))
        rng = np.random.default_rng(21)
        leader.handle_associations(GROUP, APS, [
            [rayleigh_channel(2, 2, rng) for _ in APS] for _ in GROUP
        ])
        evaluator = BatchedGroupEvaluator(leader, APS)
        before = evaluator.evaluate(GROUP)
        assert evaluator.evaluate(GROUP) == before
        assert evaluator.cache_info()["misses"] == 1

        from repro.mac.association import ChannelUpdate

        version = leader.channel_version(GROUP[1])
        leader.handle_update(
            ChannelUpdate(ap_id=1, client_id=GROUP[1], h=rayleigh_channel(2, 2, rng))
        )
        assert leader.channel_version(GROUP[1]) == version + 1
        after = evaluator.evaluate(GROUP)
        assert evaluator.cache_info()["misses"] == 2
        assert after != before  # new channels, new solution

    def test_a_record_planned_before_a_drift_report_is_not_read(self):
        """A driver's plan taken before the epoch moved is walked again:
        the scoring reads the re-solved group, never the stale entry."""
        from repro.mac.association import ChannelUpdate

        leader = LeaderAP(ap_id=0, ap_ids=list(APS))
        rng = np.random.default_rng(21)
        leader.handle_associations(GROUP, APS, [
            [rayleigh_channel(2, 2, rng) for _ in APS] for _ in GROUP
        ])
        evaluator = BatchedGroupEvaluator(leader, APS)
        stale = evaluator.evaluate(GROUP)
        evaluator.plan([GROUP])  # a hit on the entry about to go stale
        leader.handle_update(
            ChannelUpdate(ap_id=1, client_id=GROUP[1], h=rayleigh_channel(2, 2, rng))
        )
        rate = evaluator.evaluate_many([GROUP])[0]
        assert rate != stale
        assert rate == BatchedGroupEvaluator(leader, APS).evaluate(GROUP)
        assert evaluator.cache_info() == {"hits": 1, "misses": 2, "entries": 1}

    def test_static_simulation_mostly_cache_hits(self):
        """With static channels the distinct-group space is finite, so
        misses are bounded while hits keep accruing every slot."""
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=1.0, seed=3))
        sim.run(100)
        info = sim.evaluator.cache_info()
        assert info["hits"] > info["misses"]
        assert info["entries"] <= 6 * 5 * 4  # ordered 3-subsets of 6 clients


class TestInterface:
    def test_short_group_scores_zero(self):
        _, batched = make_pair(0)
        assert batched.evaluate((100,)) == 0.0
        assert batched.evaluate((100, 101)) == 0.0

    def test_oversized_group_rejected(self):
        _, batched = make_pair(0)
        with pytest.raises(ValueError):
            batched.evaluate(tuple(CLIENTS))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_both_engines_run_the_batched_evaluator(self, engine):
        sim = WLANSimulation(WLANConfig(engine=engine, alignment="flat_anchor"))
        assert type(sim.evaluator) is BatchedGroupEvaluator
        assert sim.evaluator.alignment == "flat_anchor"

    def test_short_group_cannot_be_solved(self):
        _, batched = make_pair(0)
        with pytest.raises(ValueError, match="3 clients"):
            batched.transmit_sinrs((100, 101), true_band(downlink_channels(0)))

    def test_needs_three_aps(self):
        source = StaticChannelSource(downlink_channels(0), APS)
        with pytest.raises(ValueError):
            BatchedGroupEvaluator(source, (0, 1))
