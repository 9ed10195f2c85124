"""The columnar slot path: ``WLANSimulation.run`` without the Python loop.

This module is the slot path of the ``fast`` engine (the event kernel of
:mod:`repro.sim.events` runs every slot it does not skip through it);
its oracle is
:meth:`repro.sim.wlan.WLANSimulation.run_reference`, the bit-exact
scalar loop.  Per-client state lives in ndarrays, the per-slot work that
used to be many small Python/numpy calls is batched into a handful of
vectorised ones, and *nothing* about the simulated trajectory changes —
same RNG stream consumption, same event log, same
:meth:`~repro.sim.wlan.WLANStats.digest` for every (seed, config, fault
plan).  Concretely:

* **Fading** (:class:`ColumnarFadingNetwork`): every Gauss-Markov link
  is a row of one ``(L, M, M)`` ndarray from birth — no per-link
  objects.  Construction is one ``standard_normal((L, 2, M, M))`` draw
  and a slot step one more plus one broadcast AR(1) update (the C-order
  fill reproduces the per-link real-block-then-imaginary-block order
  exactly), instead of ``L`` tiny per-link draws each.
* **Drift tracking** (:func:`_track_acks`): the (client, AP) smoothing
  and relative-Frobenius drift decisions of K ack slots in one batched
  pass via :func:`repro.phy.channel.estimation.frobenius_norms` (whose
  pinned sequential accumulation makes the stacked norms equal the
  scalar ones to the last ulp); only drifted pairs walk the scalar
  report path (``LeaderAP.handle_update``), so bookkeeping stays exact.
  It runs at the first reader of its output, not at each ack: a woken
  ack slot (:func:`_begin_slot`) and an idle span of the event kernel
  only snapshot the tracked rows onto the stepper.  One call then
  tracks the waiting acks of every cell of a wave whose slot proposed,
  after ``propose`` and before the wave's solve
  (:func:`repro.sim.events.run_waves`), and one more those left at the
  run's end, pooling the numeric core over cells; a cell's churn slot,
  or 64 waiting acks, flushes that cell alone.
* **Evaluation** (:class:`repro.engine.BatchedGroupEvaluator`, the one
  evaluator of both engines): believed channels mirrored in one ndarray
  and refreshed *incrementally* — a row is re-gathered only when that
  client's channel-map version moved.  Its ``plan``/``install`` split
  lets :func:`solve_wave` pool the solves of many cells.
* **Point-to-point service** (:func:`p2p_wave`): a degenerate slot's
  head client is rated by one stacked SVD + vectorised waterfill over
  its true channels from every AP, gathered through the stepper's
  (client, AP) -> fading-row map ``row_ca``, instead of a
  ``ChannelSet``, three ``Eigenmodes`` and a ``Dot11Link``.
* **Transmission** (:func:`transmit_wave`): each transmitted group's
  true channels are gathered straight from its cell's fading stack
  through the same ``row_ca`` (its first three columns are the
  transmit APs) instead of a :class:`~repro.core.plans.ChannelSet`
  round-trip, and decoded with the memoised encodings and
  believed-design filters of its solve.
* **Pooled kernels** (:func:`solve_wave`, :func:`p2p_wave`,
  :func:`transmit_wave`): a slot is split at the points where it needs
  a kernel (``_begin_slot`` returns a :class:`_Pending`;
  ``_resolve_slot`` picks a solved proposal's group; the stepper's
  ``serve`` completes the slot), so one loop can serve many cells'
  paused slots with one solve per wave
  (:func:`repro.sim.events.run_waves`).  Rates settle at the end of
  the run: a slot's rate only feeds throughput accounting, so the slot
  hands its kernel input (:func:`p2p_entry`, :func:`transmit_entry`)
  to a pool, and one eigenmode call and one decode rate every pooled
  slot when the run (or shard round) ends, or whenever 1,024 slots
  wait; the stepper credits the rates in slot order as the run
  finishes.  Every slot piece takes the cell's
  :class:`~repro.sim.events.CellStepper`, the one object that holds a
  run's per-run state: the tracking mirror, the row map, the
  skipped-slot counter and the rate ledger.  The mirror and the row
  map outlive the run, parked on the simulation until a tracker write
  from outside the ``fast`` path makes them stale.
* **Accounting**: none of its own.  Arrivals, service, rate credits
  and the run's close are the simulation's ``_apply_arrivals``,
  ``_serve``, ``_credit`` and ``_close_run``, which write the
  per-client ndarrays both engines share
  (``WLANSimulation._cum_rate``/``_lat_sum``/``_lat_n``, indexed by
  ``_row``); the slot asks the queue how many clients are waiting.

What stays scalar, deliberately: the FIFO queue (its packet order *is*
the trajectory), the selectors (their RNG draws are the trajectory),
stats counters that the scalar loop accumulates sequentially (pairwise
``np.sum`` would change rounding), and every fault-injection path
(faulted runs fall back to the reference helpers per slot — correctness
over speed on the rare path).

Equivalence contract: the ``fast`` engine's ``run(n)`` must equal
``sim.run_reference(n)`` (a fresh sim either way) field for field, also
with the event kernel's span skipping off so that every slot takes this
path, and ``WLANConfig(engine="fast")`` must equal ``engine="reference"``
digest for digest — pinned by ``tests/sim/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batched import (
    downlink_transmit_sinrs_cached,
    solve_downlink_three_batch,
)
from repro.engine.evaluator import solver_rows
from repro.mac.association import ChannelUpdate
from repro.phy.channel.estimation import frobenius_norms
from repro.phy.channel.provider import ChannelProvider
from repro.phy.mimo.eigenmode import best_ap_eigenmode_rates
from repro.utils.rng import default_rng

__all__ = ["ColumnarFadingNetwork"]


class ColumnarFadingNetwork(ChannelProvider):
    """Every Gauss-Markov link of a deployment in one stacked ndarray.

    The stacked twin of :class:`~repro.phy.channel.timevarying.FadingNetwork`
    (which stays the readable per-link oracle): the same pair dedup, gains
    lookup, validation and min-of-endpoints mobility rule, and the same
    draws from the same shared generator, but no per-link objects.  Link
    ``(min(a, b), max(a, b))`` is row :attr:`rows` ``[key]`` of one
    ``(L, M, M)`` array :attr:`stack`, and its AR(1) coefficients are rows
    of ``_rho_vec`` and ``_scale_vec``.

    Numpy generators fill an output buffer element by element in C order,
    so one blocked draw consumes the stream exactly as the per-link loop's
    sequence of ``(M, M)`` draws does when its axes follow that loop:
    construction is one ``standard_normal((L, 2, M, M))`` call (link 0's
    real block, link 0's imaginary block, link 1's real block, ...), and
    ``step(n)`` is one ``(L, n, 2, M, M)`` call (the per-link network
    draws all of link 0's n innovations before link 1's).  Every scaling
    is the elementwise expression the per-link code evaluates, so
    matrices and the generator's state stay bit-identical to
    ``FadingNetwork`` (pinned by ``tests/phy/test_fading_equivalence.py``).

    Each step builds a **new** stack rather than updating in place: a
    channel read (:meth:`channel`) is a view of the stack at that instant,
    and the trackers and the leader's table hold such views as frozen
    estimates, exactly as they hold the per-link network's superseded
    matrices.
    """

    def __init__(self, pairs, n_antennas: int, rho: float = 0.995,
                 gains=None, rng=None):
        self._rng = default_rng(rng)
        self._m = int(n_antennas)
        self._base_rho = rho
        #: Per-node rho overrides (mobility), as in ``PairedFadingNetwork``.
        self._node_rho: Dict[int, float] = {}
        #: Link key ``(min(a, b), max(a, b))`` -> row in :attr:`stack`.
        self.rows: Dict[Tuple[int, int], int] = dict(zip(
            dict.fromkeys(
                (a, b) if a < b else (b, a) for a, b in pairs if a != b
            ),
            itertools.count(),
        ))
        #: Node -> ``(row, key)`` of each link touching it, built by the
        #: first :meth:`set_node_rho` (mobility is its only reader).
        self._node_links: Optional[Dict[int, list]] = None
        n_links = len(self.rows)
        if n_links and not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if gains is None:
            gain = np.ones(n_links)
        else:
            gain = np.array([
                gains[key] if key in gains
                else gains.get((key[1], key[0]), 1.0)
                for key in self.rows
            ], dtype=float)
        bad = gain[~((gain > 0) & (gain < np.inf))]  # NaN fails both
        if bad.size:
            raise ValueError(
                f"gain must be positive and finite, got {float(bad[0])!r}"
            )
        self._gain_scale = np.sqrt(gain / 2.0)[:, None, None]
        self._rho_vec = np.full((n_links, 1, 1), rho, dtype=float)
        self._scale_vec = np.full(
            (n_links, 1, 1), np.sqrt(1.0 - rho**2), dtype=float
        )
        m = self._m
        draw = self._rng.standard_normal((n_links, 2, m, m))
        self.stack = self._gain_scale * (draw[:, 0] + 1j * draw[:, 1])

    # ------------------------------------------------------------------ #

    @property
    def n_bins(self) -> int:
        return 1

    def channel(self, tx: int, rx: int) -> np.ndarray:
        key = (min(tx, rx), max(tx, rx))
        h = self.stack[self.rows[key]]
        return h if (tx, rx) == key else h.T

    def channel_bins(self, tx: int, rx: int) -> np.ndarray:
        """The flat channel as a one-bin ``(1, n_rx, n_tx)`` band."""
        return self.channel(tx, rx)[None]

    def channel_grid(self, tx: Sequence[int], rx: Sequence[int]) -> np.ndarray:
        """:meth:`ChannelProvider.channel_grid` as one gather of the stack."""
        rows = self.rows
        h = self.stack[[rows[(a, b) if a < b else (b, a)] for b in rx for a in tx]]
        h = h.reshape((len(rx), len(tx)) + h.shape[1:])
        if len(tx) and len(rx) and max(tx) > min(rx):
            # A link keyed the other way round reads as its transpose.
            flip = np.less.outer(rx, tx)
            h[flip] = h[flip].swapaxes(-1, -2)
        return h

    def node_rho(self, node: int) -> float:
        return self._node_rho.get(node, self._base_rho)

    def link_rho(self, tx: int, rx: int) -> float:
        """The per-slot correlation of the (tx, rx) link."""
        return float(self._rho_vec[self.rows[(min(tx, rx), max(tx, rx))], 0, 0])

    def set_node_rho(self, node: int, rho: float) -> None:
        """Re-tune every link touching ``node`` to its endpoints' minimum rho.

        The innovation scales are evaluated per link with the per-link
        network's expression (``np.sqrt(1.0 - rho**2)`` on the link's
        rho), so later steps stay bit-identical to it.
        """
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        self._node_rho[node] = rho
        if self._node_links is None:
            self._node_links = {}
            for key, row in self.rows.items():
                for end in key:
                    self._node_links.setdefault(end, []).append((row, key))
        links = self._node_links.get(node)
        if not links:
            return
        rows = [row for row, _ in links]
        link = [min(self.node_rho(a), self.node_rho(b)) for _, (a, b) in links]
        self._rho_vec[rows, 0, 0] = link
        self._scale_vec[rows, 0, 0] = [np.sqrt(1.0 - r**2) for r in link]

    def _innovations(self, draws: np.ndarray) -> np.ndarray:
        """Scaled AR(1) innovations of a ``(..., L, 2, M, M)`` normal draw.

        ``sqrt(1 - rho^2) * (sqrt(gain / 2) * (re + 1j im))`` per link,
        evaluated in the per-link code's order: ``(..., L, M, M)``.
        """
        return self._scale_vec * (
            self._gain_scale
            * (draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
        )

    def step(self, n: int = 1) -> None:
        """Advance every link ``n`` slots: one draw, then ``n`` AR(1) folds.

        The draw is link-major, ``(L, n, 2, M, M)``, because the per-link
        network draws all of link 0's innovations before link 1's.
        """
        if n < 0:
            raise ValueError("cannot step backwards")
        m = self._m
        draws = self._rng.standard_normal((len(self.stack), n, 2, m, m))
        rho = self._rho_vec
        stack = self.stack
        for i in range(n):
            stack = rho * stack + self._innovations(draws[:, i])
        self.stack = stack

    def step_block(
        self,
        n: int,
        keep: List[int],
        keep_rows: np.ndarray,
        snap_out: np.ndarray,
    ) -> None:
        """Advance ``n`` slots with one blocked draw, snapshotting some rows.

        Bit-identical to ``n`` successive :meth:`step` calls: the
        ``(n, L, 2, M, M)`` draw fills in C order (slot-major), so it
        consumes the shared stream exactly as ``n`` per-slot draws
        would, and the scaled innovations are precomputed with the same
        elementwise expressions ``step`` uses — only the inherently
        sequential AR(1) fold (two ndarray ops per slot; floating-point
        non-associativity forbids compressing it) stays in the loop.
        The fold runs through two ping-pong scratch buffers
        (``np.multiply``/``np.add`` with ``out=`` — the same ufuncs, the
        same rounding), which is what makes long idle spans cheap.
        ``keep`` is a sorted list of offsets in ``[0, n)`` (the event
        kernel's ack-slot offsets): after each, the stack rows
        ``keep_rows`` (the tracked (client, AP) links) are taken straight
        into the next ``(len(keep_rows), M, M)`` slice of the
        preallocated ``snap_out``.  Callers must hold ``rho`` fixed
        across the block — the kernel ends spans at mobility events.
        """
        if n < 0:
            raise ValueError("cannot step backwards")
        if not n:
            return
        m = self._m
        L = len(self.stack)
        rho = self._rho_vec
        stack = self.stack
        mul, add = np.multiply, np.add
        take = np.take
        bufs = (np.empty_like(stack), np.empty_like(stack))
        keep_iter = iter(keep)
        want = next(keep_iter, None)
        kept = 0
        # Draw and scale in bounded chunks so the innovation block stays
        # cache-resident through the fold.  Sequential chunked draws
        # consume the shared stream exactly as one blocked draw does (the
        # same C-order fill lemma), so this is invisible to the bitstream.
        chunk = 256
        for c0 in range(0, n, chunk):
            cn = min(chunk, n - c0)
            sw = self._innovations(
                self._rng.standard_normal((cn, L, 2, m, m))
            )
            for i in range(cn):
                nxt = bufs[(c0 + i) & 1]
                mul(rho, stack, out=nxt)
                add(nxt, sw[i], out=nxt)
                stack = nxt
                if want == c0 + i:
                    take(stack, keep_rows, axis=0, out=snap_out[kept])
                    kept += 1
                    want = next(keep_iter, None)
        # Detach the live stack from the scratch buffers.
        self.stack = stack.copy()


class _Pending:
    """A slot paused at one of the two points where it needs a kernel.

    Either after the selector's ``propose`` (``proposal`` is set: the
    candidate groups still need scoring), or at a flat point-to-point
    slot (``client`` is set: that client still needs its best-AP
    eigenmode rate).  The wave fills in ``served`` before the slot
    resumes; ``rates`` is filled then too, or later by a pooled kernel.
    """

    __slots__ = ("slot", "proposal", "client", "served", "rates")

    def __init__(self, slot, proposal=None, client=None):
        self.slot = slot
        self.proposal = proposal
        self.client = client
        self.served: Tuple[int, ...] = ()
        self.rates: Dict[int, float] = {}


# --------------------------------------------------------------------- #
# Vectorised slot pieces
# --------------------------------------------------------------------- #


def _track_acks(flushes: Sequence[tuple]) -> None:
    """The waiting ack slots of one or more cells, batched over every (client, AP).

    Bit-equivalent, per cell, to K calls of
    :meth:`WLANSimulation._track_channels` on the fault-free flat path,
    over the tracking mirror of its
    :class:`~repro.sim.events.CellStepper`.  ``flushes`` holds one
    ``(stepper, active, rows, ack_h)`` per cell
    (:meth:`~repro.sim.events.CellStepper.take_acks`): ``active`` is the
    sorted active population (unchanged across the K acks), ``rows`` its
    mirror rows, and ``ack_h`` a ``(K, P, M, M)`` buffer of the tracked
    (client, AP) fading rows at each ack slot, client-major (it may be
    consumed in place).  The K acks are every ack the stepper deferred
    since its last flush, so the reports reach the leader late, but
    before anything reads them.

    Only the numeric core is pooled, over the concatenated (client, AP)
    rows of every cell that shares K, ``M``, ``alpha`` and
    ``drift_threshold`` (:func:`_drifts`); each of its statistics is
    elementwise per row, so a cell's values do not depend on its
    pool-mates.  The rest stays per cell: the resync of mirror rows
    invalidated by churn, the drifted pairs' walk of the scalar report
    path (``LeaderAP.handle_update`` — version bump, update-byte and
    quarantine bookkeeping included) in exact (ack, client, AP) order,
    the mirror write-back and ``update_bytes``.  Tracker-dict stores are
    deferred to :meth:`~repro.sim.events.CellStepper.finish`
    (``stepper.tracked``).
    """
    pools: Dict[tuple, list] = {}
    for flush in flushes:
        stepper, active, rows, ack_h = flush
        if not active:
            continue
        sim = stepper.sim
        T = stepper.T
        # Resync mirror rows invalidated by churn (fresh association state).
        if not stepper.T_valid[rows].all():
            for c, r in zip(active, rows):
                if not stepper.T_valid[r].all():
                    for j, a in enumerate(sim.ap_ids):
                        T[r, j] = sim.subordinates[a].channel_to(c)
                    stepper.T_valid[r] = True
        key = (len(ack_h), ack_h.shape[-1], stepper.alpha,
               stepper.drift_threshold)
        pools.setdefault(key, []).append(flush)
    for (_, m, alpha, threshold), cells in pools.items():
        S, drifted = _drifts(
            [stepper.T[rows] for stepper, _, rows, _ in cells],
            cells[0][3] if len(cells) == 1
            else np.concatenate([flush[3] for flush in cells], axis=1),
            alpha, threshold,
        )
        start = 0
        for stepper, active, rows, _ in cells:
            sim = stepper.sim
            ap_ids = sim.ap_ids
            n_aps = len(ap_ids)
            stop = start + len(rows) * n_aps
            # Row-major, so in (ack, client, AP) order.
            ks, ps = np.nonzero(drifted[:, start:stop])
            if len(ps):
                # The reported estimates: one fresh copy, frozen for the leader.
                reports = S[1:, start:stop][ks, ps]
                handle_update = sim.leader.handle_update
                for p, h in zip(ps.tolist(), reports):
                    handle_update(ChannelUpdate(
                        ap_id=ap_ids[p % n_aps],
                        client_id=active[p // n_aps],
                        h=h,
                    ))
                sim.stats.drift_reports += len(ps)
            stepper.T[rows] = S[-1, start:stop].reshape(len(rows), n_aps, m, m)
            stepper.tracked.update(active)
            start = stop
    for stepper, *_ in flushes:
        # The scalar ack path refreshes update_bytes every ack slot; only
        # the value after the last ack is observable.
        sim = stepper.sim
        sim.stats.update_bytes = sim._update_bytes_base + sim.leader.update_bytes


def _drifts(priors: List[np.ndarray], ack_h: np.ndarray, alpha: float,
            threshold: float) -> Tuple[np.ndarray, np.ndarray]:
    """The smoothing trajectory and drift verdicts of K acks over P rows.

    ``priors`` are the mirror's ``(n, A, M, M)`` blocks whose ``n·A``
    rows, in order, are the P columns of ``ack_h`` (``(K, P, M, M)``,
    scaled in place).  Returns ``S``, ``(K+1, P, M, M)`` with the priors
    at ``S[0]`` and ack k's smoothed rows at ``S[k+1]``, and the
    ``(K, P)`` verdicts ``|S[k+1] - S[k]| / |S[k]| > threshold``.  The
    recurrence is inherently sequential across acks, but everything
    around it is not: one in-place scale covers all K acks (``alpha`` is
    a scalar, so pre-scaling is elementwise-identical to scaling inside
    the loop), each ack is two ``out=`` ufunc calls, and all K verdicts
    go through one pinned-order :func:`frobenius_norms` call for the
    numerators and one for the denominators.
    """
    K, P, m = ack_h.shape[:3]
    alpha_h = np.multiply(alpha, ack_h, out=ack_h)
    beta = 1.0 - alpha
    S = np.empty((K + 1, P, m, m), dtype=alpha_h.dtype)
    np.concatenate([p.reshape(-1, m, m) for p in priors], out=S[0])
    cur = S[0]
    for k in range(K):
        nxt = S[k + 1]
        np.multiply(beta, cur, out=nxt)
        np.add(alpha_h[k], nxt, out=nxt)
        cur = nxt
    num = frobenius_norms(S[1:] - S[:-1], batch_ndim=2)
    den = frobenius_norms(S[:-1], batch_ndim=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den == 0, np.inf, num / den)
    return S, ratio > threshold


# --------------------------------------------------------------------- #
# The slot, split where it needs a kernel
# --------------------------------------------------------------------- #


def _begin_slot(stepper) -> Optional[_Pending]:
    """Everything up to the slot's kernel: ``propose`` or a flat p2p slot.

    Returns a :class:`_Pending` when the slot needs group scoring or a
    fast-path point-to-point rate, and ``None`` when the slot completed
    here (idle, or point-to-point service on the scalar path: faulted,
    wideband or backplane-degraded).
    """
    sim = stepper.sim
    slot = sim._slot
    sim._slot += 1
    if sim.hub is not None:
        sim.hub.tick()
    if (
        sim.injector is not None
        and sim.injector.crash_due(slot)
        and len(sim.ap_ids) > 1
    ):
        sim._crash_leader(slot)
    sim.fading.step()
    if sim.churn is not None:
        # A leave disassociates its client at the leader and a join
        # re-sounds it: every ack before them is tracked first.
        if stepper.acks:
            stepper.flush_acks()
        n_events = len(sim.stats.events)
        sim._apply_churn(slot)
        if stepper.fast_track:
            # A churned client's mirror rows must be re-read and its
            # deferred tracker write dropped: the scalar loop forgot its
            # estimate (a leave) or re-sounded it (a join).  A later ack
            # re-adds it after a fresh resync.
            for event in sim.stats.events[n_events:]:
                stepper.T_valid[sim._row[event.client]] = False
                stepper.tracked.discard(event.client)
    if sim.mobility is not None:
        sim._apply_mobility(slot)
    if stepper.track:
        if not stepper.fast_track:
            sim._track_channels(slot)
        elif not slot % sim.config.ack_period:
            active = sorted(sim._active)
            rows = [sim._row[c] for c in active]
            ack_h = sim.fading.stack[stepper.row_ca[rows].reshape(-1)]
            stepper.defer_acks(active, rows, ack_h[None])
    if not sim.traffic.saturated:
        sim._apply_arrivals(slot)
    depth = len(sim.queue)
    sim.stats.queue_depth_total += depth
    if depth > sim.stats.max_queue_depth:
        sim.stats.max_queue_depth = depth
    if not depth:
        sim.stats.idle_slots += 1
        return None
    p2p_only = sim.config.service == "p2p" or sim._degraded
    if not p2p_only and len(sim.queue.clients_in_order()) >= 3:
        if sim.injector is not None and not sim._backplane_data_ready():
            sim.stats.fallback_slots += 1
            head = sim.queue.head().client_id
            stepper.serve((head,), sim._serve_head_alone(head), slot)
            return None
        # The group choice reads the leader's channel map and versions,
        # but ``propose`` does not: ``run_waves`` tracks the waiting acks
        # of every proposing cell in one pass before the wave's solve.
        return _Pending(slot, sim.selector.propose(sim.queue))
    if sim._degraded and sim.config.service == "iac":
        sim.stats.fallback_slots += 1
    head = sim.queue.head().client_id
    if stepper.fast_track:
        return _Pending(slot, client=head)
    stepper.serve((head,), sim._serve_head_alone(head), slot)
    return None


def _resolve_slot(stepper, pending: _Pending) -> bool:
    """Pick a proposal slot's group once its candidates are solved.

    Returns True when the aligned group waits for the run's pooled
    decode (:func:`transmit_wave`, the fault-free flat path).  Otherwise
    the slot's rates are settled here: a quarantine fallback to
    point-to-point service, or the scalar transmit of a short group or
    of a faulted or wideband cell.
    """
    sim = stepper.sim
    served = tuple(sim.selector.resolve(pending.proposal, sim.evaluator))
    if any(sim.leader.is_quarantined(c) for c in served):
        sim.stats.fallback_slots += 1
        pending.served = (sim.queue.head().client_id,)
        pending.rates = sim._serve_head_alone(pending.served[0])
        return False
    pending.served = served
    if len(served) < 3 or not stepper.fast_track:
        pending.rates = sim._transmit_group(served)
        return False
    return True


# --------------------------------------------------------------------- #
# Kernels pooled across paused slots
# --------------------------------------------------------------------- #


def solve_wave(paused) -> None:
    """One alignment solve for the missing candidate groups of many slots.

    ``paused`` holds ``(stepper, pending)`` pairs of slots paused after
    the selector's ``propose``, one per cell of a shard (cells of one
    shard share the antenna count and the noise power).  Each cell's
    :class:`~repro.engine.BatchedGroupEvaluator` plans the groups its
    ``resolve`` would solve (gathered from its believed-channel mirror,
    every bin of a wideband cell a row of its own); the plans' rows are
    stacked into one :func:`solve_downlink_three_batch` call, and each
    slice goes back into its own evaluator's cache.  The solver is
    batch-invariant, so every cache entry is the one the cell would have
    solved alone, and ``resolve`` then finds every group cached.
    """
    plans = []
    for stepper, pending in paused:
        evaluator = stepper.sim.evaluator
        plan = evaluator.plan(pending.proposal.groups)
        if plan is not None:
            plans.append((evaluator, plan))
    if not plans:
        return
    # A one-cell wave (every slot of a one-cell run) hands its gathered
    # rows over as they are.  Cells may differ in bin count and alignment
    # mode, so a pooled wave stacks rows in the solver's layout.
    rows = [solver_rows(plan.rows) for _, plan in plans]
    solved = solve_downlink_three_batch(
        rows[0] if len(rows) == 1 else np.concatenate(rows),
        plans[0][0].noise_power, return_filters=True,
    )
    start = 0
    for (evaluator, plan), cell_rows in zip(plans, rows):
        stop = start + len(cell_rows)
        evaluator.install(
            plan, [out[start:stop] for out in solved], presolved=True
        )
        start = stop


def p2p_entry(stepper, pending: _Pending) -> tuple:
    """A p2p slot's :func:`p2p_wave` input: ``(sim, client, rates, h)``.

    ``h`` is the client's true channels from every AP, copied out of
    this slot's fading stack; ``rates`` is the slot's empty rate dict.
    """
    sim = stepper.sim
    client = pending.client
    pending.served = (client,)
    h = sim.fading.stack[stepper.row_ca[sim._row[client]]]
    return sim, client, pending.rates, h


def transmit_entry(stepper, pending: _Pending) -> tuple:
    """An aligned slot's :func:`transmit_wave` input.

    ``(sim, group, rates, h_true, v, w_bel)``: the true channels copied
    out of this slot's fading stack (the transmit APs are the first
    three), and the memoised encodings and believed-design filters,
    read now so the evaluator's cache moves as at an immediate decode.
    """
    sim = stepper.sim
    group = pending.served
    cols = [sim._row[c] for c in group]
    h_true = sim.fading.stack[stepper.row_ca[cols, :3].T]
    encodings, filters = sim.evaluator.transmit_filters(group)
    # A fast-track cell is flat: its one bin.
    return sim, group, pending.rates, h_true, encodings[0], filters[0]


def p2p_wave(pool: List[tuple]) -> None:
    """Best-AP eigenmode rates of many point-to-point slots in one kernel.

    ``pool`` holds :func:`p2p_entry` tuples of a run's (or a shard
    round's) slots.  One
    :func:`~repro.phy.mimo.eigenmode.best_ap_eigenmode_rates` call rates
    them all — bit-identical to ``WLANSimulation._serve_head_alone``'s
    ``best_ap_link(...).rate`` before the interference derate — and
    fills each slot's rate dict.
    """
    rates = best_ap_eigenmode_rates(np.stack([e[3] for e in pool]))[0].tolist()
    for (sim, client, out, _), rate in zip(pool, rates):
        out[client] = sim._derate(rate, client)


def transmit_wave(pool: List[tuple]) -> None:
    """Decode the aligned groups of many slots in one kernel call.

    ``pool`` holds :func:`transmit_entry` tuples of a run's (or a shard
    round's) slots, in slot order within each cell.  One
    :func:`~repro.engine.batched.downlink_transmit_sinrs_cached` call
    decodes every group; the decode is batch-invariant, so each slice is
    what the cell would have decoded alone.  Each entry then gets the
    accounting of :meth:`WLANSimulation._transmit_group`, as the same
    expressions over its group's ``(3,)`` SINRs: the interference-floor
    scaling (fixed for a run), its cell's staleness loss (the only
    source of it on this path, so summed in slot order) and the rates.
    """
    _, _, _, h_true, v, w_bel = zip(*pool)
    # Cells of one shard share the noise power.
    actual, ideal = downlink_transmit_sinrs_cached(
        np.array(h_true), np.array(v), np.array(w_bel),
        pool[0][0].evaluator.noise_power,
    )
    for (sim, group, out, *_), act, gen in zip(pool, actual, ideal):
        if sim._interference:
            scale = np.array(
                [1.0 + sim._interference.get(int(c), 0.0) for c in group]
            )
            act = act / scale
            gen = gen / scale
        sim.stats.staleness_loss_db += max(
            0.0, 10 * np.log10((1 + gen.min()) / (1 + act.min()))
        )
        # One vectorised log2 over the group (elementwise-identical to
        # the scalar path's per-client ``np.log2``).
        out.update(zip(group, np.log2(1.0 + act).tolist()))
