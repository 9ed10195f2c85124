"""Tests for the integrated WLAN simulation."""

import numpy as np
import pytest

from repro.sim.wlan import WLANConfig, WLANSimulation


@pytest.fixture(scope="module")
def static_stats():
    sim = WLANSimulation(WLANConfig(n_clients=6, rho=1.0, seed=3))
    return sim.run(40)


class TestStaticEnvironment:
    def test_all_clients_served(self, static_stats):
        assert all(rate > 0 for rate in static_stats.per_client_rate.values())

    def test_no_staleness_loss_when_static(self, static_stats):
        """With rho=1 the associated estimates never go stale."""
        assert static_stats.staleness_loss_db < 1.0

    def test_total_rate_positive(self, static_stats):
        assert static_stats.total_rate > 0


class TestMobileEnvironment:
    def test_tracking_reports_drift(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=0.97, seed=4))
        stats = sim.run(40, track=True)
        assert stats.drift_reports > 0
        assert stats.update_bytes > 0

    def test_tracking_beats_no_tracking_under_mobility(self):
        """The §7.1(c)/§8a machinery earns its keep when channels move."""
        tracked = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5)).run(
            60, track=True
        )
        stale = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5)).run(
            60, track=False
        )
        assert tracked.total_rate > stale.total_rate

    def test_static_needs_no_reports_after_association(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=1.0, drift_threshold=0.2, seed=6))
        stats = sim.run(30, track=True)
        assert stats.drift_reports == 0


class TestValidation:
    def test_needs_three_aps(self):
        with pytest.raises(ValueError, match=r"n_aps must be >= 3 .*got 2"):
            WLANSimulation(WLANConfig(n_aps=2))

    def test_needs_enough_clients(self):
        with pytest.raises(ValueError, match=r"n_clients must be >= n_aps .*got 2"):
            WLANSimulation(WLANConfig(n_aps=3, n_clients=2))

    def test_unknown_algorithm_names_the_knob(self):
        with pytest.raises(ValueError, match="algorithm='bogus'"):
            WLANSimulation(WLANConfig(algorithm="bogus"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            WLANSimulation(WLANConfig(engine="quantum"))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize(
        "knob, value",
        [("ack_period", 0), ("ack_period", -2), ("n_antennas", 0), ("n_antennas", -1)],
    )
    def test_knob_below_one_rejected(self, engine, knob, value):
        with pytest.raises(ValueError, match=knob):
            WLANSimulation(WLANConfig(engine=engine, **{knob: value}))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_fractional_ack_period_rejected(self, engine):
        """Regression: ``ack_period=2.5`` sounded every 5 slots on the
        reference engine and died mid-run in the fast engine's span
        skipping (``range`` of a float)."""
        with pytest.raises(ValueError, match="ack_period must be an integer"):
            WLANConfig(
                n_clients=6, ack_period=2.5, engine=engine, traffic="poisson",
                traffic_params={"rate_per_client": 0.05},
            )

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("knob, value", [
        ("n_aps", 3.5), ("n_clients", 6.5), ("n_antennas", 2.5),
        ("ack_period", float("nan")), ("n_taps", 2.5), ("n_fft", 64.5),
        ("n_bins", 2.5), ("seed", 0.5), ("n_clients", True),
        ("n_antennas", "2"), ("n_taps", float("inf")),
    ])
    def test_every_integer_knob_rejects_a_non_integer(self, engine, knob, value):
        """A fraction ran truncated (``n_fft``), rounded up (``n_taps``)
        or died with a ``TypeError`` naming no knob (``n_clients``)."""
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            WLANConfig(engine=engine, channel="wideband", **{knob: value})

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_integral_knob_values_run_unchanged(self, engine):
        """Integral floats and numpy integers become plain ``int``s, and
        the run is the one the ``int`` values give."""
        spelled = WLANConfig(engine=engine, n_clients=np.int64(6),
                             ack_period=2.0, seed=np.int32(3))
        assert (spelled.n_clients, spelled.ack_period, spelled.seed) == (6, 2, 3)
        assert all(type(v) is int for v in (spelled.n_clients, spelled.seed))
        plain = WLANConfig(engine=engine, n_clients=6, ack_period=2, seed=3)
        got = WLANSimulation(spelled).run(12)
        assert got.digest() == WLANSimulation(plain).run(12).digest()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mean_gain_rejected(self, engine, value):
        with pytest.raises(ValueError, match="mean_gain_db"):
            WLANSimulation(WLANConfig(engine=engine, mean_gain_db=value))

    @pytest.mark.parametrize("channel", ["flat", "wideband"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    def test_a_gain_beyond_float_range_is_rejected(self, channel, engine, value):
        """Regression: 4000 dB overflowed to an infinite linear gain and
        -4000 dB underflowed to zero; both ran on NaN channels or died
        in LAPACK instead of naming the knob."""
        with pytest.raises(ValueError, match="mean_gain_db"):
            WLANSimulation(WLANConfig(
                engine=engine, channel=channel, mean_gain_db=value,
            ))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.1]
    )
    def test_bad_drift_threshold_rejected(self, engine, value):
        """Regression: a NaN or infinite threshold silently turned off
        every §7.1(c) drift report instead of failing."""
        with pytest.raises(ValueError, match="drift_threshold"):
            WLANSimulation(WLANConfig(engine=engine, drift_threshold=value))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("n_slots", [0, -1])
    def test_run_needs_a_slot(self, engine, n_slots):
        sim = WLANSimulation(WLANConfig(engine=engine))
        for run in (sim.run, sim.run_reference):
            with pytest.raises(ValueError, match="n_slots"):
                run(n_slots)
        # Nothing was simulated.
        assert sim.stats.slots == 0

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.5]
    )
    def test_bad_interference_floor_rejected(self, value):
        """Regression: a NaN or negative floor was silently dropped and
        an infinite one accepted."""
        sim = WLANSimulation(WLANConfig())
        sim.set_interference_floor({101: 0.5})
        with pytest.raises(ValueError, match=r"client 103 .*" + repr(value)):
            sim.set_interference_floor({102: 0.25, 103: value})
        # The rejected call changed nothing.
        assert sim._interference == {101: 0.5}

    def test_zero_interference_floors_are_dropped(self):
        sim = WLANSimulation(WLANConfig())
        sim.set_interference_floor({101: 0.0, 102: -0.0, 103: 2})
        assert sim._interference == {103: 2.0}
        sim.set_interference_floor()
        assert sim._interference == {}


class TestConfigIsolation:
    def test_default_config_is_not_shared(self):
        """Regression: the old ``config=WLANConfig()`` default was one
        module-level instance shared by every simulation."""
        first = WLANSimulation()
        second = WLANSimulation()
        assert first.config is not second.config
        first.config.ack_period = 999
        assert second.config.ack_period == WLANConfig().ack_period == 4

    def test_explicit_config_is_used(self):
        config = WLANConfig(n_clients=5, seed=8)
        assert WLANSimulation(config).config is config


class TestRepeatedRuns:
    def test_stats_accumulate_like_one_long_run(self):
        """Regression: ``per_client_rate`` used to be overwritten with only
        the latest call's totals divided by the latest ``n_slots``."""
        for engine in ("fast", "reference"):
            config = dict(n_clients=6, rho=0.98, seed=11, engine=engine)
            split = WLANSimulation(WLANConfig(**config))
            split.run(20)
            split_stats = split.run(20)
            whole_stats = WLANSimulation(WLANConfig(**config)).run(40)

            assert split_stats.slots == whole_stats.slots == 40
            assert split_stats.digest() == whole_stats.digest(), engine

    def test_mean_staleness_loss_normalises_by_slots(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5))
        stats = sim.run(30)
        assert stats.mean_staleness_loss_db == pytest.approx(
            stats.staleness_loss_db / 30
        )

    def test_mean_staleness_loss_defaults_to_zero(self):
        from repro.sim.wlan import WLANStats

        assert WLANStats().mean_staleness_loss_db == 0.0


class TestEngineEquivalenceInSim:
    def test_default_engine_is_fast(self):
        assert WLANConfig().engine == "fast"

    def test_retired_engine_values_rejected(self):
        """The pre-collapse engine names get no aliases: each fails at
        config construction, naming the knob and the two valid values."""
        for engine in ("scalar", "batched", "columnar", "event"):
            with pytest.raises(ValueError, match=r"engine.*'reference' or 'fast'"):
                WLANConfig(engine=engine)

    def test_reference_and_fast_walk_the_same_trajectory(self):
        def run(engine):
            config = WLANConfig(n_clients=6, rho=0.98, seed=3, engine=engine)
            return WLANSimulation(config).run(20)

        assert run("fast").digest() == run("reference").digest()
