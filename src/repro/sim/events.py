"""The event-driven slot kernel: skip the slots where nothing happens.

:func:`run_event` executes ``WLANSimulation.run`` by advancing simulated
time in jumps.  A slot-synchronous loop pays for every slot even when
the queue is empty and no process fires — exactly the regime dynamic,
non-saturated workloads live in.  This kernel instead finds the next
*wake-up point* — the earliest of the run end and the first packet
arrival, churn join/leave or mobility transition its stream scans find —
and skips the idle span before it in one vectorised batch.  Every woken
slot runs the full columnar per-slot path
(:func:`repro.sim.columnar._begin_slot` /
:func:`~repro.sim.columnar._resolve_slot` /
:meth:`CellStepper.serve`), which stays the single source of
intra-slot ordering truth.

**The contract is bit-identity**, the repo's strictest:
``WLANStats.digest()`` — every counter, rate and event-log entry — must
equal the slot-loop reference for every (seed, config, fault plan),
pinned by ``tests/sim/test_event_equivalence.py`` and the golden-digest
corpus.  Skipping is therefore an exercise in RNG-stream bookkeeping,
built on one lemma: numpy ``Generator`` output buffers fill
element-by-element in C order, so *one blocked draw of n slots' worth
consumes the bitstream identically to n sequential per-slot draws*.
Concretely, per idle span:

* **Scan** — each stochastic stream (traffic, churn, mobility) is
  checkpointed (``rng.bit_generator.state``), block-drawn
  ``(B, width)`` slots ahead, and scanned for its first eventful slot
  (the models' ``scan_quiet`` hooks encode the exact per-model
  predicates — e.g. a zero-budget churn slot cannot produce leaves no
  matter what it draws).  Block sizes double geometrically
  (:data:`_BLOCK_MIN` → :data:`_BLOCK_MAX`), bounded by the run end.
* **Rollback** — when a stream's scan overdraws past the earliest
  event, its checkpoint is restored and the same ``scan_quiet`` re-runs
  over exactly ``j`` slots (all quiet, so the count is discarded),
  leaving the stream positioned exactly where the per-slot loop would
  have left it.
* **Fading** — drawn *after* the jump width is known: the shared
  fading/selector stream is only touched by fading during idle slots
  (the selector never runs), so
  :meth:`~repro.sim.columnar.ColumnarFadingNetwork.step_block` draws
  the whole span in one call and folds the AR(1) recurrence at two
  ndarray ops per slot, no rollback needed.
* **Sounding** — an ack slot is never a wake-up point: ``step_block``
  snapshots the tracked (client, AP) rows at each ack slot inside a
  span, as a woken ack slot copies its own, and the snapshots wait on
  the stepper.  The waiting acks are tracked, in ack order, at the
  first point that reads their output, in one
  :func:`~repro.sim.columnar._track_acks` call per wave for all the
  cells whose slot proposed (see :class:`CellStepper`).
* **Clocks** — a skipping cell has no Ethernet hub (only fault
  injection builds one), so the slot counter and the fading stack are
  the only clocks a span moves.

Because every woken slot replays the *full* per-slot path, the kernel
only decides *when* to wake, never what order intra-slot work runs in,
so the wake-up point is just the minimum of those slots.

Only a fault-free flat cell skips.  A faulted cell's ack slots draw
fault RNG, its hub delivers delayed frames at fixed ticks and its
leader crashes at a fixed slot, so its spans held at most
``ack_period - 1`` slots and saved nothing; a wideband cell has no
stacked fading to draw a span from.  Both take the per-slot path every
slot — ``fast`` on a wideband channel *is* the per-slot path — and
still pool their solves with a shard's other cells (:func:`run_waves`).
Saturated traffic never idles, and a non-scannable traffic state (a
bursty chain with an ON client) wakes every slot — slower, never
wrong.

**Steppers and waves.**  :class:`CellStepper` is one cell's run — its
span skipping and its tracking mirror in one object — paused
at the two points where a slot needs a kernel: after the selector's
``propose`` (the candidate groups still need their alignment solved),
and at a flat point-to-point slot (the head client still needs its
best-AP eigenmode rate).  :func:`run_waves` drives cells' steppers in
lock-step waves: each wave pools every paused cell's cache-missing
groups into one solve (:func:`~repro.sim.columnar.solve_wave`).  The
rates settle once, at the end of the run: no decision of the run reads
a slot's rate, only its throughput accounting, so every p2p slot's
channels and every transmitted group's channels and filters are pooled
as the slot runs, and one eigenmode kernel
(:func:`~repro.sim.columnar.p2p_wave`) and one decode
(:func:`~repro.sim.columnar.transmit_wave`) rate them all when the run
(or shard round) ends, or whenever 1,024 slots wait on one.  Each
stepper's ledger then credits the rates in slot order, so every sum
runs in the scalar loop's order.  All three kernels are
batch-invariant, so a cell's trajectory never depends on its
wave- or pool-mates.  :func:`run_event` is ``run_waves`` over one stepper; a
multi-cell shard reaches the waves through :class:`SharedRun`, behind
each cell's own ``run`` call.

This kernel *is* the ``fast`` engine: ``WLANSimulation.run`` dispatches
here under ``engine="fast"``.  Equivalence contract: ``run_event(sim,
n)`` must equal ``sim.run_reference(n)`` (a fresh sim either way) field
for field — pinned by ``tests/sim/test_event_equivalence.py`` and the
``engine-pair`` lint rule (``run_reference`` pairs with ``run``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

# Nothing here calls this; the name stays only because
# ``perfbench/layers.py`` lists ``repro.sim.events.frobenius_norms`` as a
# ``phy.channel.estimation`` trace site.
from repro.phy.channel.estimation import frobenius_norms  # noqa: F401
from repro.sim.columnar import (
    ColumnarFadingNetwork,
    _begin_slot,
    _Pending,
    _resolve_slot,
    _track_acks,
    p2p_entry,
    p2p_wave,
    solve_wave,
    transmit_entry,
    transmit_wave,
)

__all__ = [
    "CellStepper",
    "SharedRun",
    "run_event",
    "run_waves",
]

#: Geometric scan-block bounds: start small (an event in the first few
#: slots must not pay for a huge overdraw), double while quiet.
_BLOCK_MIN = 8
_BLOCK_MAX = 4096

_NO_ROWS = np.empty(0, dtype=np.intp)

#: A pooled rate kernel runs early once this many slots wait on it.
_POOL_CAP = 1024

#: Deferred ack slots are tracked early once this many wait (a run that
#: never proposes, such as ``service="p2p"``, would otherwise buffer
#: every ack snapshot until it ends).
_ACK_CAP = 64


def _tracker_stamp(sim) -> tuple:
    """Every subordinate tracker's write count: equal stamps, no writes between."""
    return tuple((a, sim.subordinates[a]._tracker.writes) for a in sim.ap_ids)


class CellStepper:
    """One cell's ``run(n_slots, track)``, paused wherever a slot needs a kernel.

    The stepper is the whole per-run state of one ``fast`` cell: the
    span-skipping counter (only a fault-free flat cell, ``fast_track``,
    skips), the (client, AP) -> fading-row map
    ``row_ca`` and the tracking mirror (``T``, ``T_valid``, ``tracked``,
    ``alpha``, ``drift_threshold``).  Everything else per client (queue,
    accounting) is the simulation's own; mirror rows follow its
    ``_row``.  A fresh mirror reads every active client's rows from the
    subordinates' trackers in one gather when the stepper is built (a
    row churn invalidates is re-read at its next ack), and only the
    deferred tracker writes are folded back, by :meth:`finish`.  The
    mirror then outlives the run: :meth:`finish` parks ``row_ca``,
    ``T`` and ``T_valid`` on the simulation
    (``sim._track_mirror``) with a stamp of every tracker's ``writes``
    count, and the next stepper adopts them while the stamp still
    matches.  Any other tracker write in between (``run_reference``, a
    direct ``observe``, association) moves the stamp, and that stepper
    builds a fresh mirror, so interleaving ``run`` and
    ``run_reference`` calls on one deployment stays correct.  A city
    shard's later barrier rounds thus re-read no estimate.

    Drift tracking itself is deferred to its next reader.  An ack slot
    only snapshots the tracked rows (:meth:`defer_acks`), and the
    waiting acks are tracked at the flush points.  :func:`run_waves`
    hands them over (:meth:`take_acks`) after a slot's ``propose`` and
    before the wave's solve — the group choice is the only reader of a
    drift report, and the solve, ``resolve``, quarantine check and
    transmit after it read the leader's channel map and versions — and
    once more before :meth:`finish`, pooling every such cell into one
    :func:`~repro.sim.columnar._track_acks` call.  :meth:`flush_acks`
    tracks this cell alone before a churn slot (a leave disassociates
    its client at the leader, a join re-sounds it and a churned row's
    resync reads the trackers) and once :data:`_ACK_CAP` acks wait.
    The lemma: on the fault-free flat path nothing
    between an ack and the next flush point reads a drift report, the
    mirror or a tracker — ``propose``, mobility, arrivals, idle spans
    and point-to-point service work from snapshots already taken or
    touch none of them — and the active population is fixed between
    flush points, because churn flushes first.  So the late reports are
    the eager ones, bit for bit.

    :meth:`advance` runs slots — skipping idle spans — until one stops
    at a kernel point, and returns that paused slot (a
    :class:`~repro.sim.columnar._Pending`), or ``None`` once the run is
    over.  There are two stop points: right after the selector's
    ``propose`` (the candidate groups still need solving) and at a flat
    point-to-point slot (the head client still needs its best-AP
    eigenmode rate).  :func:`run_waves` completes the paused slot with
    :meth:`serve`, which does its queue work at once and records
    ``(served, rates)`` in the stepper's ledger; a pooled slot's rate
    dict is still empty then, and is filled in when ``run_waves`` runs
    its kernel.  :meth:`finish` credits the ledger in slot order (the rates
    settle at the end of the run), closes the run and returns its stats.

    Between ``advance`` and ``serve`` nothing in the cell moves but the
    slot's own resolution, so a driver may pool the kernel work of many
    cells' paused slots (:func:`run_waves`) without changing any cell's
    trajectory.  The pools belong to ``run_waves``, never to a stepper, so
    no reference cycle keeps a finished simulation alive.
    """

    __slots__ = (
        "sim", "n_slots", "end_slot", "track", "fast_track",
        "skipped_slots", "alpha", "drift_threshold", "row_ca", "T",
        "T_valid", "tracked", "ledger", "acks", "n_acks", "ack_clients",
    )

    def __init__(self, sim, n_slots: int, track: bool = True):
        self.sim = sim
        self.n_slots = n_slots
        self.end_slot = sim._slot + n_slots
        self.track = track
        #: Span skipping, vectorised ack-slot tracking, fancy-indexed
        #: true channels at transmit and the pooled p2p kernel need the
        #: stacked flat fading (``step_block``) and no fault injection
        #: (ack loss, corruption, quarantine refresh, the lossy hub and a
        #: leader crash re-seating the transmit APs all stay on the
        #: scalar reference path).  Any other cell runs every slot.
        self.fast_track = (
            isinstance(sim.fading, ColumnarFadingNetwork) and sim.injector is None
        )
        self.skipped_slots = 0
        #: ``(served, rates)`` of every served slot, in slot order
        #: (a pooled slot's rates arrive when its kernel runs).
        self.ledger: List[tuple] = []
        #: Clients whose tracker-dict writes are deferred to
        #: :meth:`finish`.  The scalar loop overwrites a client's
        #: estimate at every ack slot, so only the last one is
        #: observable, and on the fast-track path nothing reads a
        #: subordinate tracker mid-run except the resync of a row
        #: invalidated by churn — and a churned client leaves this set
        #: at its churn slot, before that slot's ack can re-add it.
        self.tracked: set = set()
        #: Ack-slot snapshots waiting for :meth:`flush_acks`: ``(K, P, M,
        #: M)`` blocks in ack order, ``n_acks`` slots in all, over the
        #: ``(active, rows)`` of ``ack_clients``.
        self.acks: List[np.ndarray] = []
        self.n_acks = 0
        self.ack_clients: tuple = ((), ())
        if self.fast_track:
            tracker = sim.subordinates[sim.ap_ids[0]]._tracker
            self.alpha = tracker.alpha
            self.drift_threshold = tracker.drift_threshold
            # Taken, not shared: a run that never finishes leaves no
            # half-updated mirror behind.
            mirror, sim._track_mirror = sim._track_mirror, None
            if mirror is not None and mirror[0] == _tracker_stamp(sim):
                _, self.row_ca, self.T, self.T_valid = mirror
            else:
                rows = sim.fading.rows
                self.row_ca = np.array(
                    [[rows[(a, c)] for a in sim.ap_ids] for c in sim.client_ids]
                )
                n, a = len(sim.client_ids), len(sim.ap_ids)
                m = sim.config.n_antennas
                self.T = np.zeros((n, a, m, m), dtype=complex)
                self.T_valid = np.zeros((n, a), dtype=bool)
                # Every active client's estimates in one gather; a row
                # churn touches later is invalidated and re-read then.
                active = sorted(sim._active)
                if active:
                    aps = [sim.subordinates[a] for a in sim.ap_ids]
                    mirror_rows = [sim._row[c] for c in active]
                    self.T[mirror_rows] = np.concatenate(
                        [ap.channel_to(c) for c in active for ap in aps]
                    ).reshape(len(active), a, m, m)
                    self.T_valid[mirror_rows] = True

    def advance(self) -> Optional[_Pending]:
        """Run to the next paused slot (returned) or to the run's end."""
        sim = self.sim
        while sim._slot < self.end_slot:
            self.skip_idle()
            if sim._slot >= self.end_slot:
                break
            pending = _begin_slot(self)
            if pending is not None:
                return pending
        return None

    def defer_acks(self, active: List[int], rows: List[int],
                   ack_h: np.ndarray) -> None:
        """Queue ``ack_h``'s ack slots until their drift tracking is read.

        ``ack_h`` is a ``(K, P, M, M)`` snapshot of the tracked (client,
        AP) rows at K ack slots, over the sorted ``active`` population and
        its mirror ``rows``; both stay fixed until the next
        :meth:`flush_acks`, because churn flushes first.
        """
        self.acks.append(ack_h)
        self.ack_clients = (active, rows)
        self.n_acks += len(ack_h)
        if self.n_acks >= _ACK_CAP:
            self.flush_acks()

    def take_acks(self) -> tuple:
        """Hand over the waiting ack slots: ``(self, active, rows, ack_h)``,
        one :func:`~repro.sim.columnar._track_acks` entry."""
        acks = self.acks
        ack_h = acks[0] if len(acks) == 1 else np.concatenate(acks)
        self.acks = []
        self.n_acks = 0
        return (self, *self.ack_clients, ack_h)

    def flush_acks(self) -> None:
        """Track every waiting ack slot of this cell alone, in one
        :func:`~repro.sim.columnar._track_acks` call; its recurrence and
        reports run ack by ack either way."""
        _track_acks([self.take_acks()])

    def serve(self, served, rates, slot: int) -> None:
        """Complete a slot's queue work now; its rates are credited in :meth:`finish`."""
        self.ledger.append((served, rates))
        self.sim._serve(served, slot)

    def finish(self):
        """Credit the ledger, write the deferred tracker estimates back, close.

        Every pooled kernel and every waiting ack has run by now
        (:func:`run_waves`), so each rate dict is complete and the
        mirror current; crediting in slot order keeps the scalar loop's
        sums.
        The estimates are stored as views of one fresh copy of the
        mirror rows, never of the mirror itself: the scalar contract is
        that an estimate stays frozen for whoever holds it.  The mirror
        is then parked on the simulation for the next run, stamped with
        the trackers' write counts as they stand after the fold-back.
        """
        sim = self.sim
        for served, rates in self.ledger:
            sim._credit(served, rates)
        if self.tracked:
            clients = sorted(self.tracked)
            snapshot = self.T[[sim._row[c] for c in clients]]
            for j, a in enumerate(sim.ap_ids):
                sim.subordinates[a]._tracker.store(clients, snapshot[:, j])
        if self.fast_track:
            sim._track_mirror = (
                _tracker_stamp(sim), self.row_ca, self.T, self.T_valid,
            )
        sim.last_event_summary = {
            "processed_slots": self.n_slots - self.skipped_slots,
            "skipped_slots": self.skipped_slots,
        }
        return sim._close_run(self.n_slots)

    # ------------------------------ spans ----------------------------- #

    def skip_idle(self) -> None:
        """Jump ``sim._slot`` to the next wake-up point, if any gap exists.

        A no-op unless the current slot is skippable: a fault-free flat
        cell (``fast_track``), empty queue, scannable traffic state.  On
        return the simulation's RNG streams, fading stack, tracker state
        and stats are exactly as if the scalar loop had executed every
        skipped slot (each of which it would have found idle).
        """
        sim = self.sim
        if not self.fast_track or len(sim.queue):
            return
        active = sorted(sim._active)
        if not sim.traffic.can_scan(active):
            return
        t = sim._slot
        wake = self.end_slot
        # Scan the stochastic streams across [t, wake) in doubling
        # blocks; the first eventful slot found is the wake-up point.
        inactive = [c for c in sim.client_ids if c not in sim._active]
        cursor = t
        block = _BLOCK_MIN
        while cursor < wake:
            n = min(block, wake - cursor)
            off = self._scan_block(n, active, inactive)
            if off is not None:
                wake = cursor + off
                break
            cursor += n
            block = min(block * 2, _BLOCK_MAX)
        if wake > t:
            self._skip(t, wake, active)

    def _scan_block(
        self, n: int, active: List[int], inactive: List[int],
    ) -> Optional[int]:
        """Scan every stochastic stream ``n`` slots ahead.

        Returns ``None`` when all streams are quiet for the whole block
        (each consumed exactly ``n`` slots' worth), else the offset ``j``
        of the earliest event — with every stream positioned exactly at
        slot ``start + j``: an overdrawn stream is checkpoint-restored
        and re-scanned ``j`` slots, which consumes exactly ``j`` quiet
        slots' worth (the count it returns is discarded).

        Traffic scans first and short-circuits: an arrival at offset 0
        (the common case under load) returns before the churn/mobility
        streams are touched at all.
        """
        sim = self.sim
        scanned = []  # (rng, checkpoint, scan_quiet, args, width_scanned)
        j = n

        def scan(rng, scan_quiet, args):
            nonlocal j
            width = j  # never scan past the current minimum
            if not width:
                return
            ck = rng.bit_generator.state
            j = min(j, scan_quiet(width, *args, rng))
            scanned.append((rng, ck, scan_quiet, args, width))

        scan(sim._traffic_rng, sim.traffic.scan_quiet, (active,))
        if j and sim.churn is not None:
            scan(sim._churn_rng, sim.churn.scan_quiet, (active, inactive))
        if j and sim.mobility is not None:
            scan(sim._mobility_rng, sim.mobility.scan_quiet, (active,))
        if j == n:
            return None
        for rng, ck, scan_quiet, args, width in scanned:
            if width != j:
                # Overdrawn: unwind, then re-consume exactly j slots.
                rng.bit_generator.state = ck
                scan_quiet(j, *args, rng)
        return j

    def _skip(self, t: int, wake: int, active: List[int]) -> None:
        """Execute the jump: ``[t, wake)`` verified all-idle, all-quiet.

        The fading block snapshots the tracked rows at each of the
        span's ack slots, and the snapshots wait on the stepper
        (:meth:`defer_acks`) with those of earlier acks.
        """
        sim = self.sim
        j = wake - t
        acks: List[int] = []
        if self.track:
            period = sim.config.ack_period
            acks = list(range((-t) % period, j, period))
        rows = [sim._row[c] for c in active] if acks else []
        keep_rows = self.row_ca[rows].reshape(-1) if rows else _NO_ROWS
        m = sim.config.n_antennas
        ack_h = np.empty((len(acks), len(keep_rows), m, m), dtype=complex)
        sim.fading.step_block(j, acks, keep_rows, ack_h)
        if acks:
            self.defer_acks(active, rows, ack_h)
        sim.stats.idle_slots += j
        # queue_depth_total accrues zero per empty slot; max unchanged.
        sim._slot = wake
        self.skipped_slots += j


def run_event(sim, n_slots: int, track: bool = True):
    """Event-driven execution of ``sim.run(n_slots, track)``.

    Same trajectory, same RNG stream consumption, bit-identical
    :class:`~repro.sim.wlan.WLANStats`; ``WLANSimulation.run``
    dispatches here under ``engine="fast"``.  The cell runs as a
    one-stepper :func:`run_waves` — unless it is attached to a
    :class:`SharedRun`, which steps it alongside its shard-mates.  The
    processed/skipped slot split of the last run is left on
    ``sim.last_event_summary`` for the benchmark harness.
    """
    if sim._shared_run is not None:
        return sim._shared_run.run(sim, n_slots, track)
    return run_waves([CellStepper(sim, n_slots, track)])[0]


class SharedRun:
    """One round of several cells, stepped in waves behind their own ``run``.

    A multi-cell shard attaches its ``fast`` cells for one round, then
    calls each cell's ``sim.run(n_slots)`` as it always has.  The first
    of those calls drives every attached cell's :class:`CellStepper`
    through :func:`run_waves` to the end of the round; each call
    returns its own cell's stats and detaches that cell.  So every cell
    still runs through its own ``WLANSimulation.run`` call, which is what
    callers and tracers of that method see, while the kernels are pooled
    across the whole shard.  Use it as a context manager: leaving the
    block detaches any cell whose ``run`` was never called.
    """

    def __init__(self, sims: Sequence, n_slots: int):
        self.sims = list(sims)
        self.n_slots = n_slots
        self._stats: Optional[dict] = None

    def __enter__(self) -> "SharedRun":
        for sim in self.sims:
            sim._shared_run = self
        return self

    def __exit__(self, *exc) -> None:
        for sim in self.sims:
            sim._shared_run = None

    def run(self, sim, n_slots: int, track: bool):
        """``sim``'s stats for the round, stepping every cell on first use."""
        if n_slots != self.n_slots or not track:
            raise ValueError(
                f"a shared run steps every cell {self.n_slots} tracked "
                f"slots; got n_slots={n_slots}, track={track}"
            )
        if self._stats is None:
            stats = run_waves([CellStepper(s, n_slots) for s in self.sims])
            self._stats = {id(s): st for s, st in zip(self.sims, stats)}
        sim._shared_run = None
        return self._stats[id(sim)]


def _pool(pool: List[tuple], entry: tuple, kernel) -> None:
    """Add ``entry`` to ``pool``; run ``kernel`` over the pool once it is full."""
    pool.append(entry)
    if len(pool) >= _POOL_CAP:
        kernel(pool)
        pool.clear()


def _flush_wave(steppers: Sequence[CellStepper]) -> None:
    """Track the waiting acks of every cell in ``steppers`` in one
    :func:`~repro.sim.columnar._track_acks` call (none if none wait)."""
    flushes = [st.take_acks() for st in steppers if st.acks]
    if flushes:
        _track_acks(flushes)


def run_waves(steppers: Sequence[CellStepper]) -> list:
    """Drive many cells' steppers in waves; each one's stats, in order.

    A wave first tracks the waiting acks of every cell whose paused slot
    proposed, in one :func:`~repro.sim.columnar._track_acks` call, then
    pools the alignment solves of every paused cell into one
    :func:`~repro.sim.columnar.solve_wave`.  Then each paused slot
    resolves its group, pools its rate-kernel input, is served
    (:meth:`CellStepper.serve`) and advances to its next pause.  The
    rates settle at the end of the run: each pool's kernel
    (:func:`~repro.sim.columnar.p2p_wave`,
    :func:`~repro.sim.columnar.transmit_wave`) runs once then, or
    whenever :data:`_POOL_CAP` slots wait on it; the acks still waiting
    are tracked in one more pooled call, and each stepper credits its
    ledger in :meth:`CellStepper.finish`.  Each cell's
    trajectory is the one :func:`run_event` gives it alone (the kernels
    are batch-invariant), and so is its ``last_event_summary``.  The
    pools are locals here, so a run that raises leaves nothing behind.
    """
    paused = [(st, st.advance()) for st in steppers]
    paused = [(st, p) for st, p in paused if p is not None]
    n_slots = max((st.n_slots for st in steppers), default=0)
    p2p: List[tuple] = []
    decode: List[tuple] = []
    # A cell pauses at most once per slot and each wave resumes every
    # paused cell, so n_slots waves finish every run.  The loop is per
    # wave, not per slot of one cell: each turn pools all cells' kernels.
    for _ in range(n_slots):  # repro-lint: ignore[no-python-slot-loop]
        if not paused:
            break
        # From here on a proposing slot reads the leader's drift reports
        # (the solve, ``resolve``, the quarantine check and the decode):
        # every such cell's waiting acks are tracked first, in one pass.
        _flush_wave([st for st, p in paused if p.proposal is not None])
        solve_wave([
            (st, p) for st, p in paused
            if p.proposal is not None and p.proposal.groups
        ])
        resumed = []
        for st, p in paused:
            if p.client is not None:
                _pool(p2p, p2p_entry(st, p), p2p_wave)
            elif _resolve_slot(st, p):
                _pool(decode, transmit_entry(st, p), transmit_wave)
            st.serve(p.served, p.rates, p.slot)
            p = st.advance()
            if p is not None:
                resumed.append((st, p))
        paused = resumed
    if p2p:
        p2p_wave(p2p)
    if decode:
        transmit_wave(decode)
    _flush_wave(steppers)
    return [st.finish() for st in steppers]
