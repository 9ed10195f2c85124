"""The evaluator's memo counters read the same on both WLAN engines.

``BatchedGroupEvaluator.cache_info()`` is what the end-to-end
benchmark's ``engine.cache_hit_ratio`` reads.  The ``fast`` engine walks
the memo in a wave's pooled solve and the ``reference`` engine in the
selector's scoring call, and each counts once per candidate group of a
probe plus once for the winner's transmit; this suite pins that the two
counts agree on every case of the event-kernel grid and on saturated
cells of every selector, static and slowly fading.  A probe's record
lives for its slot only: no slot is served with one still held.
"""

import pytest

from repro.sim.wlan import WLANConfig, WLANSimulation
from test_columnar_equivalence import config
from test_event_equivalence import EVENT_ALL_CASES, N_SLOTS


def _cache_info(cfg: WLANConfig, n_slots: int) -> dict:
    sim = WLANSimulation(cfg)
    sim.run(n_slots)
    return sim.evaluator.cache_info()


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_grid_counters_equal_across_engines(name, monkeypatch):
    overrides = EVENT_ALL_CASES[name]
    serve = WLANSimulation._serve

    def serve_without_a_record(sim, served, slot):
        # Every slot path (aligned, fallback, short group, p2p) has let
        # go of its probe record by the time its clients are served.
        assert sim.evaluator._probe is None, slot
        serve(sim, served, slot)

    monkeypatch.setattr(WLANSimulation, "_serve", serve_without_a_record)
    fast = _cache_info(config(**overrides, engine="fast"), N_SLOTS)
    reference = _cache_info(config(**overrides, engine="reference"), N_SLOTS)
    assert fast == reference


#: Saturated 17-client cells (the Fig. 15 deployment); brute force scores
#: 240 candidates a slot, so it runs fewer slots.
SATURATED = [
    (algorithm, rho, n_slots)
    for algorithm, n_slots in (("best2", 200), ("brute", 40), ("fifo", 200))
    for rho in (1.0, 0.998)
]


@pytest.mark.parametrize("algorithm,rho,n_slots", SATURATED)
def test_saturated_counters_equal_across_engines(algorithm, rho, n_slots):
    infos = [
        _cache_info(
            WLANConfig(n_clients=17, rho=rho, seed=3, algorithm=algorithm,
                       engine=engine),
            n_slots,
        )
        for engine in ("fast", "reference")
    ]
    assert infos[0] == infos[1]
    assert infos[0]["hits"] + infos[0]["misses"] > 0


def test_saturated_best2_counts_are_pinned():
    """One absolute count, so a change of what is counted cannot hide
    behind both engines moving together."""
    for engine in ("fast", "reference"):
        info = _cache_info(
            WLANConfig(n_clients=17, rho=0.998, seed=3, algorithm="best2",
                       engine=engine),
            200,
        )
        assert info == {"hits": 202, "misses": 748, "entries": 693}, engine
