"""Fast-engine bit-identity suite.

The ``fast`` engine is the event-driven kernel (:mod:`repro.sim.events`)
over the columnar slot path, and it is only allowed to exist because it
is *exactly* the slot loop with the idle slots fast-forwarded.  This
suite pins that contract in its strongest form:

* ``WLANSimulation.run`` under ``engine="fast"`` (the kernel's
  :func:`~repro.sim.events.run_event`) produces a ``WLANStats`` whose
  **every field, including the event log,** equals the scalar slot loop
  :meth:`~repro.sim.wlan.WLANSimulation.run_reference` bit for bit on
  the same config and seed;
* the kernel's digest equals the columnar slot path's with skipping
  off (``run_per_slot``) for the same config;
* the subordinate APs' smoothed channel estimates, which no digest
  sees, equal the scalar loop's after a run (the kernel defers those
  writes to run end);
* long runs, split runs and the multicell layer under ``engine="fast"``
  match ``engine="reference"`` (the kernel's resume path rebuilds state
  exactly).
* a run settles its rates once, at its end: one decode and one
  eigenmode call per run (or shard round), one more per 1,024 pooled
  slots, and no reference cycle keeps a finished simulation alive;
* a run tracks its ack slots' drift once per reader, not once per ack:
  one tracking call at each proposing slot, churn slot and run end that
  finds acks waiting, one more per 64 waiting acks; a wave of many
  cells tracks all its proposing cells in one call, each cell as if
  alone.

The case grid is the columnar suite's (every traffic model, churn,
mobility, wideband, p2p, every fault cocktail) plus the event-specific
regimes: sparse Poisson loads where skipping dominates, sounding
periods bracketing the ack cadence, and sparse faulted cells, which
idle but never skip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import events
from repro.sim.columnar import ColumnarFadingNetwork
from repro.sim.events import CellStepper, SharedRun, run_waves
from repro.sim.golden import GOLDEN_WLAN
from repro.sim.wlan import WLANConfig, WLANSimulation
from test_columnar_equivalence import ALL_CASES, FAULT_CASES, config, run_per_slot

N_SLOTS = 40

#: Event-specific regimes on top of the columnar grid: sparse arrivals
#: (long idle gaps — the whole point of the kernel) and sounding
#: cadences on both sides of the default.
EVENT_CASES = {
    "poisson_sparse": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.05},
    },
    "poisson_very_sparse": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.005},
    },
    "sparse_ack_every_slot": {
        "ack_period": 1,
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.02},
    },
    "sparse_ack_rare": {
        "ack_period": 16,
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.02},
    },
    "sparse_churn_mobility": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.05},
        "churn_params": {"p_leave": 0.05, "p_join": 0.1},
        "mobility_params": {"p_start": 0.2, "p_stop": 0.3, "rho_moving": 0.9},
    },
    "bursty_quiet": {
        "traffic": "bursty",
        "traffic_params": {"rate_on": 0.6, "p_on": 0.02, "p_off": 0.5},
    },
}


def poisson(rate):
    return {"traffic": "poisson", "traffic_params": {"rate_per_client": rate}}


#: Sparse faulted regimes: every ``FAULT_CASES`` entry is saturated and
#: never idles, so these are the faulted cells with idle slots — delayed
#: frames maturing, a leader crash and faulted ack slots all land inside
#: what would be an idle span on a fault-free cell.  The very sparse ones
#: idle across a delayed frame's maturity and an off-cadence crash slot
#: (slot 10, between ack slots): a faulted cell that skipped without
#: waking there would fail them.
for prefix, rate, names in (
    ("sparse", 0.05, ("bp_delay", "leader_crash_4ap", "full_cocktail")),
    ("very_sparse", 0.005, ("bp_delay", "leader_crash_3ap")),
):
    EVENT_CASES.update({
        f"{prefix}_{name}": {**FAULT_CASES[name], **poisson(rate)}
        for name in names
    })

EVENT_ALL_CASES = {**ALL_CASES, **EVENT_CASES}

#: Long-trajectory subset: cases whose interesting dynamics (churn
#: evictions, fault windows, drift reports) need room to unfold.
LONG_CASES = (
    "sparse_churn_mobility",
    "sparse_ack_every_slot",
    "full_cocktail",
    "poisson_sparse",
)


def assert_same_trackers(got, want):
    """Each subordinate's smoothed estimates: same clients, same bits."""
    for a in want.ap_ids:
        got_est = got.subordinates[a]._tracker._estimates
        want_est = want.subordinates[a]._tracker._estimates
        assert got_est.keys() == want_est.keys(), a
        for c, estimate in want_est.items():
            assert np.array_equal(got_est[c], estimate), (a, c)


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_event_equals_scalar_reference(name):
    """Full-WLANStats equality: every counter, rate, and event."""
    overrides = EVENT_ALL_CASES[name]
    event = WLANSimulation(config(**overrides)).run(N_SLOTS)
    reference = WLANSimulation(config(**overrides)).run_reference(N_SLOTS)
    assert event.to_dict() == reference.to_dict()
    assert event.events == reference.events
    assert event.digest() == reference.digest()


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_event_digest_equals_columnar(name):
    """Skipping idle spans lands on the columnar slot path's bits."""
    overrides = EVENT_ALL_CASES[name]
    event = WLANSimulation(config(**overrides)).run(N_SLOTS)
    columnar = run_per_slot(WLANSimulation(config(**overrides)), N_SLOTS)
    assert event.digest() == columnar.digest()


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_tracker_estimates_equal_reference(name):
    """The deferred tracker writes leave the scalar loop's estimates:
    no churned client resurrected, no stale estimate left behind."""
    overrides = EVENT_ALL_CASES[name]
    fast = WLANSimulation(config(**overrides))
    fast.run(N_SLOTS)
    reference = WLANSimulation(config(**overrides))
    reference.run_reference(N_SLOTS)
    assert_same_trackers(fast, reference)


@pytest.mark.parametrize("name", LONG_CASES)
def test_event_long_trajectory(name):
    """200-slot runs: enough room for churn/fault/drift interleavings."""
    overrides = EVENT_ALL_CASES[name]
    fast = WLANSimulation(config(**overrides)).run(200)
    reference = WLANSimulation(config(engine="reference", **overrides)).run(200)
    assert fast.to_dict() == reference.to_dict()
    assert fast.events == reference.events


def test_event_split_run_equals_single_run():
    """run(70) + run(130) rebuilds kernel state onto the same bits."""
    overrides = EVENT_ALL_CASES["sparse_churn_mobility"]
    split = WLANSimulation(config(**overrides))
    split.run(70)
    stats = split.run(130)
    whole = WLANSimulation(config(engine="reference", **overrides))
    assert stats.digest() == whole.run(200).digest()
    assert_same_trackers(split, whole)


#: The churn, Poisson, mobility and fault cases: an interleaving must
#: carry the queue, accounting, trackers and fault state across engines.
MIXED_CASES = sorted(
    name for name, o in EVENT_ALL_CASES.items()
    if o.get("traffic") == "poisson"
    or {"churn_params", "mobility_params", "fault_params"} & o.keys()
)


@pytest.mark.parametrize("name", MIXED_CASES)
def test_mixed_engine_runs_equal_one_reference_run(name):
    """``run(a)`` -> ``run_reference(b)`` -> ``run(c)`` on one fast
    deployment walks the reference engine's ``run(a + b + c)``: both
    slot paths read and write the same per-client state."""
    overrides = EVENT_ALL_CASES[name]
    mixed = WLANSimulation(config(**overrides))
    mixed.run(15)
    mixed.run_reference(12)
    stats = mixed.run(13)
    whole = WLANSimulation(config(engine="reference", **overrides))
    assert stats.digest() == whole.run(40).digest()
    assert_same_trackers(mixed, whole)


#: The golden corpus's fast single-cell cases plus a sparse churn case:
#: saturated, Poisson, churn, mobility, wideband and faulted cells.
MIRROR_CASES = sorted(
    name for name, spec in GOLDEN_WLAN.items()
    if spec["config"]["engine"] == "fast"
) + ["sparse_churn_mobility"]


def mirror_case(name, engine):
    if name in GOLDEN_WLAN:
        return WLANConfig(**{**GOLDEN_WLAN[name]["config"], "engine": engine})
    return config(engine=engine, **EVENT_ALL_CASES[name])


def assert_same_run(got_sim, got, want_sim, want):
    assert got.to_dict() == want.to_dict()
    assert got.events == want.events
    assert_same_trackers(got_sim, want_sim)


def mirror_array(sim):
    """The kept tracking mirror's ``T``; None for a cell that never takes
    the fast-track path (faulted or wideband), which keeps no mirror."""
    fast_track = sim.injector is None and isinstance(sim.fading, ColumnarFadingNetwork)
    assert (sim._track_mirror is not None) == fast_track
    return sim._track_mirror[2] if fast_track else None


@pytest.mark.parametrize("name", MIRROR_CASES)
def test_kept_mirror_across_runs_equals_one_reference_run(name):
    """``run(a); run(b)``: the second run adopts the first one's
    tracking mirror and still walks the reference trajectory."""
    kept = WLANSimulation(mirror_case(name, "fast"))
    kept.run(15)
    mirror = mirror_array(kept)
    stats = kept.run(25)
    if mirror is not None:
        assert mirror_array(kept) is mirror
    whole = WLANSimulation(mirror_case(name, "reference"))
    assert_same_run(kept, stats, whole, whole.run(40))


@pytest.mark.parametrize("name", MIRROR_CASES)
def test_reference_run_between_fast_runs_rebuilds_the_mirror(name):
    """``run(a); run_reference(b); run(c)``: the reference slots write the
    trackers behind the mirror's back, so the next fast run re-reads."""
    mixed = WLANSimulation(mirror_case(name, "fast"))
    mixed.run(15)
    mirror = mirror_array(mixed)
    mixed.run_reference(12)
    stats = mixed.run(13)
    if mirror is not None:
        assert mirror_array(mixed) is not mirror
    whole = WLANSimulation(mirror_case(name, "reference"))
    assert_same_run(mixed, stats, whole, whole.run(40))


@pytest.mark.parametrize("name", MIRROR_CASES)
def test_direct_observe_between_fast_runs_is_seen(name):
    """``run(a)``, one ``observe`` on a subordinate, ``run(b)``: the
    observed estimate (not the mirror's older copy) is what the next
    run smooths from, exactly as on the reference engine."""
    sims = {e: WLANSimulation(mirror_case(name, e)) for e in ("fast", "reference")}
    for sim in sims.values():
        sim.run(15)
        ap, client = sim.ap_ids[-1], sim.active_clients[0]
        subordinate = sim.subordinates[ap]
        subordinate.observe(client, 1.5 * subordinate.channel_to(client))
    got, want = (sim.run(25) for sim in sims.values())
    assert_same_run(sims["fast"], got, sims["reference"], want)


def test_event_summary_accounts_for_every_slot():
    """processed + skipped == n_slots; saturation, faulted cells and
    wideband cells never skip."""
    sparse = WLANSimulation(
        config(traffic="poisson", traffic_params={"rate_per_client": 0.02})
    )
    sparse.run(200)
    summary = sparse.last_event_summary
    assert summary["processed_slots"] + summary["skipped_slots"] == 200
    assert summary["skipped_slots"] > 0

    for overrides in ({}, EVENT_CASES["sparse_bp_delay"],
                      {**ALL_CASES["wideband"], **poisson(0.05)}):
        sim = WLANSimulation(config(**overrides))
        sim.run(50)
        assert sim.last_event_summary == {
            "processed_slots": 50,
            "skipped_slots": 0,
        }, overrides


def test_waves_over_every_case_equal_each_run_alone():
    """One ``run_waves`` over the whole grid: each cell as if alone.

    The grid mixes every traffic model, selector, service discipline,
    wideband and fault cocktail, so a wave holds pooled solves, deferred
    and immediate proposals, flat p2p pauses and cells that never pause
    at all; split into two rounds, so the second resumes stepper state.
    """
    names = sorted(EVENT_ALL_CASES)
    pooled = [WLANSimulation(config(**EVENT_ALL_CASES[n])) for n in names]
    alone = [WLANSimulation(config(**EVENT_ALL_CASES[n])) for n in names]
    for n_slots in (25, 15):
        stats = run_waves([CellStepper(sim, n_slots) for sim in pooled])
        for name, sim, got in zip(names, alone, stats):
            want = sim.run(n_slots)
            assert got.digest() == want.digest(), name
        for name, a, b in zip(names, pooled, alone):
            assert a.last_event_summary == b.last_event_summary, name
            assert a.evaluator.cache_info() == b.evaluator.cache_info(), name


def _count_kernel_calls(monkeypatch):
    """Record the pool size of every decode and eigenmode kernel call."""
    from repro.sim import columnar

    calls = {"decode": [], "p2p": []}

    def counting(name, kernel):
        def counted(h, *args):
            calls[name].append(len(h))
            return kernel(h, *args)
        return counted

    monkeypatch.setattr(columnar, "downlink_transmit_sinrs_cached", counting(
        "decode", columnar.downlink_transmit_sinrs_cached))
    monkeypatch.setattr(columnar, "best_ap_eigenmode_rates", counting(
        "p2p", columnar.best_ap_eigenmode_rates))
    return calls


def test_a_run_settles_its_rates_in_one_decode_and_one_eigenmode_call(
    monkeypatch,
):
    """A run's rates only feed its accounting, so every aligned slot of
    the run shares one decode call and every point-to-point slot one
    eigenmode call, at the run's end; the stats stay the reference's."""
    overrides = {"traffic": "poisson", "traffic_params": {"rate_per_client": 0.3}}
    calls = _count_kernel_calls(monkeypatch)
    got = WLANSimulation(config(**overrides)).run(60)
    monkeypatch.undo()
    assert len(calls["decode"]) == 1 and len(calls["p2p"]) == 1, calls
    assert calls["decode"][0] > 1 and calls["p2p"][0] > 1, calls
    want = WLANSimulation(config(**overrides)).run_reference(60)
    assert got.digest() == want.digest()


def test_a_shard_round_decodes_every_cell_in_one_call(monkeypatch):
    """Saturated cells transmit an aligned group every slot: one
    ``run_waves`` round over four of them is one decode of every slot of
    every cell, and each cell still gets its standalone trajectory."""
    calls = _count_kernel_calls(monkeypatch)
    seeds = (3, 5, 8, 13)
    pooled = [WLANSimulation(config(seed=s)) for s in seeds]
    n_slots = 12
    stats = run_waves([CellStepper(sim, n_slots) for sim in pooled])
    monkeypatch.undo()
    assert calls == {"decode": [len(seeds) * n_slots], "p2p": []}
    for seed, got in zip(seeds, stats):
        want = WLANSimulation(config(seed=seed)).run_reference(n_slots)
        assert got.digest() == want.digest(), seed


@pytest.mark.parametrize("kernel, overrides", [
    ("decode", {}),
    ("p2p", {"service": "p2p"}),
])
def test_a_run_past_the_pool_cap_flushes_every_1024_slots(
    monkeypatch, kernel, overrides,
):
    """A pool runs its kernel whenever 1,024 slots wait on it, so a
    saturated run of n > 1024 slots makes ceil(n / 1024) calls, with
    the reference's digest."""
    n_slots = 1030
    calls = _count_kernel_calls(monkeypatch)
    got = WLANSimulation(config(**overrides)).run(n_slots)
    monkeypatch.undo()
    assert calls[kernel] == [1024, n_slots - 1024]
    assert len(calls[kernel]) == -(-n_slots // 1024)
    want = WLANSimulation(config(**overrides)).run_reference(n_slots)
    assert got.digest() == want.digest()


def _count_track_calls(monkeypatch):
    """Record the number of ack slots of every one-cell ``_track_acks``
    call."""
    calls = []
    track = events._track_acks

    def counted(flushes):
        (_, _, _, ack_h), = flushes
        calls.append(len(ack_h))
        return track(flushes)

    monkeypatch.setattr(events, "_track_acks", counted)
    return calls


def test_sparse_run_tracks_its_acks_once_per_reader(monkeypatch):
    """Only the group choice reads a drift report, so a sparse Poisson
    run with an ack every slot tracks once at each proposing slot (its
    own ack included) and once at the run's end, however many acks wait
    across the point-to-point and idle slots between; every tracked
    estimate and the digest stay the reference's."""
    overrides = {"ack_period": 1, "traffic": "poisson",
                 "traffic_params": {"rate_per_client": 0.12}}
    n_slots = 60  # below the cap: only readers flush
    assert n_slots < events._ACK_CAP
    calls = _count_track_calls(monkeypatch)
    fast = WLANSimulation(config(**overrides))
    proposed = []
    propose = fast.selector.propose

    def counted_propose(queue):
        proposed.append(fast._slot - 1)
        return propose(queue)

    fast.selector.propose = counted_propose
    got = fast.run(n_slots)
    monkeypatch.undo()
    assert sum(calls) == n_slots
    assert 0 < len(proposed) < n_slots // 4, proposed
    assert len(calls) == len(proposed) + (proposed[-1] != n_slots - 1)
    reference = WLANSimulation(config(engine="reference", **overrides))
    want = reference.run(n_slots)
    assert got.digest() == want.digest()
    assert got.drift_reports == want.drift_reports > 0
    assert_same_trackers(fast, reference)


def test_a_run_that_never_proposes_tracks_every_64_acks(monkeypatch):
    """A saturated point-to-point run never makes a group choice, so its
    acks wait on the cap alone: n acks make ceil(n / 64) calls, with the
    reference's digest."""
    overrides = {"service": "p2p", "ack_period": 1}
    n_slots = 150
    cap = events._ACK_CAP
    calls = _count_track_calls(monkeypatch)
    got = WLANSimulation(config(**overrides)).run(n_slots)
    monkeypatch.undo()
    assert calls == [cap, cap, n_slots - 2 * cap]
    assert len(calls) == -(-n_slots // cap)
    want = WLANSimulation(config(engine="reference", **overrides)).run(n_slots)
    assert got.digest() == want.digest()


#: Cells whose acks wait in different numbers when their slots propose:
#: churn flushes alone at its churn slots, a p2p cell never proposes, a
#: saturated cell proposes every slot and the sparse cells pause at p2p
#: and idle slots between proposals, at two ack cadences.
POOLED_TRACKING_CASES = {
    "churn": {**poisson(0.4), "churn_params": {"p_leave": 0.1, "p_join": 0.2}},
    "p2p": {**poisson(0.4), "service": "p2p", "ack_period": 1},
    "saturated": {},
    "sparse_ack_2": {**poisson(0.15), "ack_period": 2},
    "sparse_ack_2_seed_5": {**poisson(0.15), "ack_period": 2, "seed": 5},
    "sparse_ack_3": {**poisson(0.15), "ack_period": 3, "seed": 7},
    "sparse_mobility": {
        **poisson(0.2),
        "ack_period": 1,
        "mobility_params": {"p_start": 0.3, "p_stop": 0.3, "rho_moving": 0.9},
    },
}


def _record_track_calls(monkeypatch):
    """Record the ack count of each cell of every ``_track_acks`` call."""
    calls = []
    track = events._track_acks

    def counted(flushes):
        calls.append([len(ack_h) for _, _, _, ack_h in flushes])
        return track(flushes)

    monkeypatch.setattr(events, "_track_acks", counted)
    return calls


def test_pooled_tracking_equals_each_cell_tracked_alone(monkeypatch):
    """One ``run_waves`` tracks the waiting acks of a wave's cells in one
    pass, pooling cells whose ack counts match and splitting those that
    do not.  Each cell still ends where it ends alone: same digest,
    drift reports, update bytes, tracker estimates and evaluator cache,
    over two rounds (the second resumes the kept mirrors)."""
    names = sorted(POOLED_TRACKING_CASES)
    pooled = [WLANSimulation(config(**POOLED_TRACKING_CASES[n])) for n in names]
    alone = [WLANSimulation(config(**POOLED_TRACKING_CASES[n])) for n in names]
    calls = _record_track_calls(monkeypatch)
    for n_slots in (30, 20):
        stats = run_waves([CellStepper(sim, n_slots) for sim in pooled])
        for name, sim, got in zip(names, alone, stats):
            want = sim.run(n_slots)
            assert got.digest() == want.digest(), name
            assert got.drift_reports == want.drift_reports, name
            assert got.update_bytes == want.update_bytes, name
    monkeypatch.undo()
    for name, a, b in zip(names, pooled, alone):
        assert_same_trackers(a, b)
        assert a.evaluator.cache_info() == b.evaluator.cache_info(), name
    # Some pass pooled several cells, also with different ack counts.
    assert any(len(cells) > 1 for cells in calls), calls
    assert any(len(set(cells)) > 1 for cells in calls), calls
    # And the grid really drifts: the comparison is not of empty reports.
    assert all(sim.stats.drift_reports for sim in pooled)


def test_pooled_tracking_equals_the_reference():
    """The pooled pass against the scalar loop itself, not the fast
    engine alone."""
    names = sorted(POOLED_TRACKING_CASES)
    pooled = [WLANSimulation(config(**POOLED_TRACKING_CASES[n])) for n in names]
    stats = run_waves([CellStepper(sim, 40) for sim in pooled])
    for name, sim, got in zip(names, pooled, stats):
        reference = WLANSimulation(
            config(engine="reference", **POOLED_TRACKING_CASES[name])
        )
        assert got.digest() == reference.run(40).digest(), name
        assert_same_trackers(sim, reference)


def test_a_city_round_tracks_once_per_wave(monkeypatch):
    """A round of N busy cells tracks its acks in at most one pass per
    wave plus one at the end, however many cells hold acks: today's
    per-cell flushes would make one call per cell and reader."""
    n_cells, n_slots = 8, 12
    cells = [
        WLANSimulation(config(seed=seed, **poisson(0.5)))
        for seed in range(n_cells)
    ]
    calls = _record_track_calls(monkeypatch)
    waves = []
    solve = events.solve_wave
    monkeypatch.setattr(
        events, "solve_wave", lambda paused: (waves.append(1), solve(paused))
    )
    stats = run_waves([CellStepper(sim, n_slots) for sim in cells])
    monkeypatch.undo()
    assert 0 < len(calls) <= len(waves) + 1, (calls, len(waves))
    # Every ack slot of every cell is tracked exactly once (ack_period 4).
    assert sum(map(sum, calls)) == n_cells * len(range(0, n_slots, 4))
    assert max(map(len, calls)) > 1
    for seed, got in enumerate(stats):
        want = WLANSimulation(
            config(seed=seed, engine="reference", **poisson(0.5))
        ).run(n_slots)
        assert got.digest() == want.digest(), seed


def test_process_streams_are_the_seed_sequence_children():
    """Each process stream is built alone, only when its process exists,
    and draws what ``SeedSequence(seed).spawn(4)`` gave it: traffic 0,
    churn 1, mobility 2, faults 3."""
    from repro.faults import FaultInjector

    seed = 1234
    sim = WLANSimulation(config(
        seed=seed,
        churn_params={"p_leave": 0.1, "p_join": 0.1},
        mobility_params={"p_start": 0.1, "p_stop": 0.1, "rho_moving": 0.9},
        fault_params={"backplane_loss_rate": 0.5, "csi_corrupt_rate": 0.5},
    ))
    children = np.random.SeedSequence(seed).spawn(4)
    for child, rng in zip(children, (
        sim._traffic_rng, sim._churn_rng, sim._mobility_rng,
    )):
        want = np.random.default_rng(child).random(8)
        assert np.array_equal(rng.random(8), want)
    twin = FaultInjector(sim.fault_plan, children[3])
    for name in ("_loss_rng", "_delay_rng", "_corrupt_rng", "_stale_rng"):
        got = getattr(sim.injector, name).random(8)
        assert np.array_equal(got, getattr(twin, name).random(8)), name
    plain = WLANSimulation(config(seed=seed))
    assert plain._churn_rng is None and plain._mobility_rng is None
    assert plain.injector is None


def test_fast_cell_builds_without_per_link_fading_objects(monkeypatch):
    """The fast engine's flat network is stacked from birth: building a
    cell makes no ``GaussMarkovFading`` and draws no per-link
    ``rayleigh_channel``."""
    from repro.phy.channel import timevarying

    def forbidden(*args, **kwargs):
        raise AssertionError("per-link fading on the fast path")

    monkeypatch.setattr(timevarying, "GaussMarkovFading", forbidden)
    monkeypatch.setattr(timevarying, "rayleigh_channel", forbidden)
    sim = WLANSimulation(config())
    sim.run(5)
    with pytest.raises(AssertionError, match="per-link fading"):
        WLANSimulation(config(engine="reference"))


def test_shared_run_serves_each_cell_its_own_stats():
    names = ("poisson", "p2p", "saturated_best2")
    shared = [WLANSimulation(config(**ALL_CASES[n])) for n in names]
    with SharedRun(shared, 20):
        # A run that does not match the shared round is refused.
        with pytest.raises(ValueError, match="n_slots=19"):
            shared[0].run(19)
        got = [sim.run(20) for sim in shared[:2]]
    # Leaving the block detaches the cell whose run was never called.
    assert all(sim._shared_run is None for sim in shared)
    for name, stats in zip(names, got):
        want = WLANSimulation(config(**ALL_CASES[name])).run(20)
        assert stats.digest() == want.digest(), name


def test_multicell_cells_can_run_event_engine():
    """Per-cell fast engines match the multicell reference digest."""
    from repro.sim.multicell import MultiCellConfig, MultiCellSimulation

    def run(engine):
        sim = MultiCellSimulation(
            MultiCellConfig(
                n_cells=4,
                clients_per_cell=4,
                engine=engine,
                traffic="poisson",
                load=0.1,
                seed=5,
            )
        )
        return sim.run(30)

    assert run("fast").digest() == run("reference").digest()


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_clients=st.integers(min_value=4, max_value=10),
    load=st.sampled_from([0.01, 0.05, 0.2, 0.6]),
    ack_period=st.sampled_from([1, 4, 16]),
    churn_params=st.none() | st.fixed_dictionaries({
        "p_leave": st.sampled_from([0.02, 0.1, 0.3]),
        "p_join": st.sampled_from([0.05, 0.3]),
    }),
    mobility_params=st.none() | st.fixed_dictionaries({
        "p_start": st.sampled_from([0.05, 0.3]),
        "p_stop": st.sampled_from([0.1, 0.5]),
        "rho_moving": st.sampled_from([0.9, 0.97]),
    }),
)
def test_event_equivalence_property(
    seed, n_clients, load, ack_period, churn_params, mobility_params,
):
    """Any (seed, population, load, cadence, churn, mobility): same
    digest as reference.  Churn covers a drift report still waiting to
    be tracked when its client leaves or re-joins."""
    overrides = dict(
        seed=seed,
        n_clients=n_clients,
        ack_period=ack_period,
        traffic="poisson",
        traffic_params={"rate_per_client": load},
        churn_params=churn_params,
        mobility_params=mobility_params,
    )
    fast = WLANSimulation(config(**overrides)).run(25)
    reference = WLANSimulation(config(engine="reference", **overrides)).run(25)
    assert fast.digest() == reference.digest()


@pytest.mark.parametrize("cells, overrides", [
    (1, {}),
    (1, {"traffic": "poisson", "traffic_params": {"rate_per_client": 0.3}}),
    (4, {}),
])
def test_a_finished_run_frees_its_simulation_by_reference_count(
    cells, overrides,
):
    """No reference cycle outlives a run: with the cyclic collector off,
    dropping the last reference frees each simulation at once (a cycle
    would hold every finished deployment until the collector runs).
    Four cells run as one shard round."""
    import gc
    import weakref

    sims = [WLANSimulation(config(seed=s, **overrides)) for s in range(cells)]
    gc.collect()
    gc.disable()
    try:
        if cells == 1:
            sims[0].run(30)
        else:
            with SharedRun(sims, 30):
                for sim in sims:
                    sim.run(30)
            del sim
        refs = [weakref.ref(sim) for sim in sims]
        del sims
        assert [ref() for ref in refs] == [None] * cells
    finally:
        gc.enable()
