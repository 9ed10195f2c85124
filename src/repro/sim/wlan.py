"""End-to-end WLAN simulation: every layer of IAC working together.

This is the integration piece the individual experiments factor out: a
simulated deployment that runs, slot by slot,

1. **association** -- clients join, all APs sound their channels, the
   leader registers them (:mod:`repro.mac.association`);
2. **channel evolution** -- Gauss-Markov fading behind the
   :class:`~repro.phy.channel.provider.ChannelProvider` contract: flat
   (:mod:`repro.phy.channel.timevarying`) or frequency-selective
   wideband (:class:`~repro.phy.channel.provider.WidebandFadingNetwork`,
   per-subcarrier estimates and alignment -- the paper's §6c conjecture
   as an operating mode); subordinate APs track their estimates from
   client acks and report significant drift to the leader;
3. **workload dynamics** -- an arrival process feeds the leader's FIFO
   (:mod:`repro.sim.traffic`), clients churn (leave, re-associate) and
   move (per-client Doppler via ``FadingNetwork.set_node_rho``); the
   default ``saturated`` model reproduces the paper's infinite-demand
   downlink bit-for-bit;
4. **scheduling** -- the leader's concurrency algorithm forms downlink
   transmission groups from the backlog (:mod:`repro.mac.concurrency`);
   an empty backlog idles the slot, a backlog with fewer than three
   distinct clients serves the head client point-to-point;
5. **transmission** -- each group is solved and decoded at rate level with
   the leader's (possibly stale) channel estimates against the *true*
   current channels, so stale estimates genuinely cost SINR; per-client
   cross-cell interference floors (injected by the multi-cell layer via
   :meth:`WLANSimulation.set_interference_floor`) raise the noise floor
   of boundary clients;
6. **accounting** -- per-client goodput and queueing latency, queue
   depth, idle slots, Jain fairness, churn/mobility event log, control
   bytes, estimate staleness.

The dynamic scenarios (``fig15_dynamic``, ``load_latency``,
``churn_throughput``) and the ``repro sweep`` engine drive it across
workload grids; ``fig15_dynamic``'s claims check the §8a tracking loop
(no drift reports in a static cell, reports under mobility), and
``tests/sim/test_wlan.py`` shows that switching tracking off hurts under
mobility.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.dot11_mimo import best_ap_link
from repro.core.plans import BandedChannelSet, ChannelSet
from repro.engine.evaluator import ALIGNMENT_MODES, BatchedGroupEvaluator
from repro.faults import FaultInjector, FaultPlan
from repro.mac.association import (
    ChannelUpdate,
    LeaderAP,
    SubordinateAP,
    elect_leader,
)
from repro.mac.concurrency import SELECTORS, make_selector
from repro.mac.queueing import QueuedPacket, TransmissionQueue
from repro.net.ethernet import EthernetHub, HubFrame
from repro.phy.channel.provider import ChannelProvider, WidebandFadingNetwork
from repro.phy.channel.timevarying import FadingNetwork
from repro.sim.traffic import TRAFFIC_MODELS, ClientChurn, MobilityModel, TrafficModel, make_traffic
from repro.utils.db import db_to_linear
from repro.utils.knobs import check_integer_fields
from repro.utils.rng import default_rng

#: Every value :attr:`WLANConfig.engine` accepts.  Doc-sync tests use
#: this to require each engine be documented in EXPERIMENTS.md.
WLAN_ENGINES: Tuple[str, ...] = ("reference", "fast")

#: Every value :attr:`WLANConfig.channel` accepts.
WLAN_CHANNELS: Tuple[str, ...] = ("flat", "wideband")

#: The vocabulary of each :class:`WLANConfig` knob that takes a name: the
#: ``choices`` of every scenario built on the WLAN simulation.
WLAN_CHOICES: Mapping[str, Collection[str]] = {
    "algorithm": SELECTORS,
    "alignment": ALIGNMENT_MODES,
    "channel": WLAN_CHANNELS,
    "engine": WLAN_ENGINES,
    "traffic": TRAFFIC_MODELS,
}


def _check_n_slots(n_slots: int) -> None:
    # Zero slots would divide the per-client rates by zero; negative
    # ones would report negative slot counts.
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")


def check_engine(engine: str) -> None:
    """Reject any ``engine`` value outside :data:`WLAN_ENGINES`."""
    if engine not in WLAN_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (expected 'reference' or 'fast')"
        )


@dataclass
class WLANConfig:
    """Deployment parameters."""

    n_aps: int = 3
    n_clients: int = 8
    n_antennas: int = 2
    #: Per-slot channel correlation (1.0 = static environment).
    rho: float = 0.998
    #: Mean pair SNR in dB (noise power is 1).
    mean_gain_db: float = 15.0
    #: Subordinate APs report drift beyond this relative change.
    drift_threshold: float = 0.15
    #: Concurrency algorithm for group formation.
    algorithm: str = "best2"
    #: Clients re-sound the channel (ack overheard) every ``ack_period`` slots.
    ack_period: int = 4
    #: Execution engine: ``"fast"`` (default; the event-driven kernel of
    #: :mod:`repro.sim.events` over the columnar slot path of
    #: :mod:`repro.sim.columnar` — stacked fading steps, vectorised drift
    #: tracking, idle-span skipping) or ``"reference"`` (the scalar slot
    #: loop :meth:`WLANSimulation.run_reference` over per-link fading
    #: objects; the bit-identity oracle).  The engine picks the fading
    #: network and the slot loop; both score groups with the same memoised
    #: :class:`~repro.engine.BatchedGroupEvaluator` and produce the same
    #: :meth:`WLANStats.digest`.
    engine: str = "fast"
    #: Arrival process (:func:`repro.sim.traffic.make_traffic` name):
    #: ``"saturated"`` (the paper's infinite-demand regime, default),
    #: ``"poisson"``, ``"bursty"`` or ``"heterogeneous"``, parameterised
    #: by ``traffic_params``.
    traffic: str = "saturated"
    traffic_params: Optional[Dict[str, Any]] = None
    #: Client churn (:class:`repro.sim.traffic.ClientChurn` kwargs);
    #: ``None`` disables churn.
    churn_params: Optional[Dict[str, Any]] = None
    #: Mobility (:class:`repro.sim.traffic.MobilityModel` kwargs);
    #: ``None`` keeps every client at the base ``rho``.
    mobility_params: Optional[Dict[str, Any]] = None
    #: Channel substrate: ``"flat"`` (the paper's narrowband regime,
    #: :class:`~repro.phy.channel.timevarying.FadingNetwork`) or
    #: ``"wideband"`` (frequency-selective
    #: :class:`~repro.phy.channel.provider.WidebandFadingNetwork`; the
    #: §6c per-subcarrier operating mode).  A single-tap wideband channel
    #: with ``n_bins=1`` reproduces the flat run bit-identically.
    channel: str = "flat"
    #: Wideband knobs (ignored under ``channel="flat"``): taps of the
    #: exponential power-delay profile, its RMS delay spread in samples,
    #: the OFDM FFT size and the number of evaluated subcarriers.
    n_taps: int = 8
    delay_spread: float = 0.0
    n_fft: int = 64
    n_bins: int = 4
    #: Wideband alignment strategy (:data:`repro.engine.ALIGNMENT_MODES`):
    #: ``"per_subcarrier"`` solves every evaluated bin independently,
    #: ``"flat_anchor"`` reuses one band-centre solution band-wide (the
    #: paper's baseline worry).
    alignment: str = "per_subcarrier"
    #: Fault-injection plan (:class:`repro.faults.FaultPlan` fields as a
    #: flat dict): backplane loss/delay, CSI corruption/staleness, leader
    #: crash.  ``None`` (default) disables the fault path entirely — the
    #: backplane is the implicit lossless wire of the original model and
    #: the simulation's trajectory is bit-identical to pre-fault builds.
    fault_params: Optional[Dict[str, Any]] = None
    #: Service discipline: ``"iac"`` (aligned three-client groups, the
    #: paper's system) or ``"p2p"`` (always serve the queue head alone at
    #: its best AP — the point-to-point floor that faulted runs degrade
    #: toward; the selector never runs, so its RNG stream is untouched).
    service: str = "iac"
    seed: int = 0

    def __post_init__(self):
        check_engine(self.engine)
        check_integer_fields(self)


@dataclass(frozen=True)
class WLANEvent:
    """One entry of the simulation's event log.

    ``kind`` is one of ``"join"``, ``"leave"``, ``"start_move"``,
    ``"stop_move"``, ``"leader_crash"`` (``client`` then carries the
    crashed AP's id); ``slot`` is the absolute slot index (persistent
    across repeated ``run()`` calls).
    """

    slot: int
    kind: str
    client: int


@dataclass
class WLANStats:
    """Simulation outcome, cumulative over every ``run()`` call."""

    slots: int = 0
    #: Per-client average rate over all ``slots`` simulated so far.
    per_client_rate: Dict[int, float] = field(default_factory=dict)
    drift_reports: int = 0
    update_bytes: int = 0
    #: Total rate-level SINR loss (dB) due to estimate staleness, summed
    #: over slots; see :attr:`mean_staleness_loss_db` for the per-slot mean.
    staleness_loss_db: float = 0.0
    #: Slots in which the downlink queue was empty (dynamic traffic only;
    #: always 0 under the saturated model).
    idle_slots: int = 0
    #: Packets enqueued by the arrival process (0 under saturation —
    #: demand is infinite, not enumerable).
    offered_packets: int = 0
    #: Packets served (popped from the queue by a transmission).
    delivered_packets: int = 0
    #: Packets purged because their owner left (churn).
    dropped_packets: int = 0
    joins: int = 0
    leaves: int = 0
    #: Sum over delivered packets of (service slot - arrival slot).
    latency_slots_total: float = 0.0
    #: Mean queueing latency per client, in slots (delivered packets only).
    per_client_latency: Dict[int, float] = field(default_factory=dict)
    #: Sum over simulated slots of the queue length at selection time.
    queue_depth_total: int = 0
    max_queue_depth: int = 0
    #: Join/leave/mobility transitions, in slot order.
    events: List[WLANEvent] = field(default_factory=list)
    # ---- fault/degradation counters (all 0 without fault injection) --- #
    #: Backplane frames the faulted Ethernet hub lost outright.
    frames_lost_backplane: int = 0
    #: Backplane frames the faulted hub delayed past their slot.
    frames_delayed_backplane: int = 0
    #: Drift reports the leader's corrupt-CSI guard rejected.
    csi_rejections: int = 0
    #: Group-capable slots degraded to point-to-point service (lost
    #: backplane data, quarantined CSI in the selected group, or a
    #: post-crash deployment with too few APs left to align).
    fallback_slots: int = 0
    #: Leader re-elections after a leader-AP crash.
    re_elections: int = 0

    @property
    def total_rate(self) -> float:
        # Summed in sorted client order: the dict's insertion order
        # reflects service history, and float addition is neither
        # commutative nor associative at the ulp level, so a canonical
        # order keeps the summary invariant under permutations of
        # bit-identical per-client values.
        return float(
            sum(self.per_client_rate[c] for c in sorted(self.per_client_rate))
        )

    @property
    def fallback_fraction(self) -> float:
        """Fraction of simulated slots degraded to point-to-point."""
        return self.fallback_slots / self.slots if self.slots else 0.0

    @property
    def mean_staleness_loss_db(self) -> float:
        """Mean per-slot rate-level SINR loss (dB) due to staleness."""
        return self.staleness_loss_db / self.slots if self.slots else 0.0

    @property
    def mean_latency_slots(self) -> float:
        """Mean queueing latency of delivered packets, in slots."""
        if not self.delivered_packets:
            return 0.0
        return self.latency_slots_total / self.delivered_packets

    @property
    def mean_queue_depth(self) -> float:
        return self.queue_depth_total / self.slots if self.slots else 0.0

    @property
    def idle_fraction(self) -> float:
        return self.idle_slots / self.slots if self.slots else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain's index over per-client average rates (1.0 = perfectly fair)."""
        # Sorted client order for the same permutation-invariance reason
        # as :attr:`total_rate`.
        rates = [self.per_client_rate[c] for c in sorted(self.per_client_rate)]
        if not rates:
            return 1.0
        square_sum = sum(r * r for r in rates)
        if square_sum == 0.0:
            return 1.0
        total = sum(rates)
        return (total * total) / (len(rates) * square_sum)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form: every counter, rate and event.

        Float values serialise via ``repr`` (shortest round-trip), so two
        stats objects produce the same dict iff every field is
        bit-identical — the representation :meth:`digest` hashes.
        """
        return {
            "slots": self.slots,
            "per_client_rate": {
                str(c): self.per_client_rate[c]
                for c in sorted(self.per_client_rate)
            },
            "drift_reports": self.drift_reports,
            "update_bytes": self.update_bytes,
            "staleness_loss_db": self.staleness_loss_db,
            "idle_slots": self.idle_slots,
            "offered_packets": self.offered_packets,
            "delivered_packets": self.delivered_packets,
            "dropped_packets": self.dropped_packets,
            "joins": self.joins,
            "leaves": self.leaves,
            "latency_slots_total": self.latency_slots_total,
            "per_client_latency": {
                str(c): self.per_client_latency[c]
                for c in sorted(self.per_client_latency)
            },
            "queue_depth_total": self.queue_depth_total,
            "max_queue_depth": self.max_queue_depth,
            "events": [[e.slot, e.kind, e.client] for e in self.events],
            "frames_lost_backplane": self.frames_lost_backplane,
            "frames_delayed_backplane": self.frames_delayed_backplane,
            "csi_rejections": self.csi_rejections,
            "fallback_slots": self.fallback_slots,
            "re_elections": self.re_elections,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (the bit-identity pin).

        The reference/fast equivalence contract and the golden-digest
        corpus (``tests/baselines/digests.json``) both compare runs by
        this value; it changes iff any stats field changes by even one
        ulp or the event log differs anywhere.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class WLANSimulation:
    """A running IAC WLAN (downlink traffic, saturated or dynamic).

    ``traffic``, ``churn`` and ``mobility`` instances override the
    config's string/params spelling (handy for tests and bespoke
    models); each process draws from its own RNG stream spawned from
    ``config.seed``, so enabling one never perturbs the fading, the
    selector or the other processes.
    """

    def __init__(
        self,
        config: Optional[WLANConfig] = None,
        *,
        traffic: Optional[TrafficModel] = None,
        churn: Optional[ClientChurn] = None,
        mobility: Optional[MobilityModel] = None,
    ):
        config = WLANConfig() if config is None else config
        if config.n_aps < 3:
            raise ValueError(
                f"n_aps must be >= 3 (IAC downlink groups need three APs), "
                f"got {config.n_aps}"
            )
        if config.n_clients < config.n_aps:
            raise ValueError(
                f"n_clients must be >= n_aps ({config.n_aps}): need at least as "
                f"many clients as APs, got {config.n_clients}"
            )
        if config.service not in ("iac", "p2p"):
            raise ValueError(
                f"unknown service discipline {config.service!r} "
                "(expected 'iac' or 'p2p')"
            )
        if config.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {config.n_antennas}")
        if config.ack_period < 1:
            raise ValueError(f"ack_period must be >= 1, got {config.ack_period}")
        if not np.isfinite(config.mean_gain_db):
            raise ValueError(
                f"mean_gain_db must be finite, got {config.mean_gain_db}"
            )
        self.config = config
        #: The fault plan, or None — parsed up front so a bad
        #: ``fault_params`` dict fails at construction, not mid-run.
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan.from_params(config.fault_params)
            if config.fault_params is not None
            else None
        )
        self.rng = default_rng(config.seed)

        self.ap_ids = list(range(config.n_aps))
        self.client_ids = list(range(100, 100 + config.n_clients))
        pairs = [(a, c) for a in self.ap_ids for c in self.client_ids]
        gain = db_to_linear(config.mean_gain_db)
        gains = {(min(a, c), max(a, c)): gain for a, c in pairs}
        #: The channel substrate, behind the ChannelProvider contract.
        self.fading: ChannelProvider
        if config.channel == "flat":
            # The fast engine swaps in a stacked fading network: the same
            # draws as the per-link reference (same RNG stream, same
            # order), but construction and every step are one vectorised
            # draw over all links, and no per-link objects exist.
            if config.engine == "fast":
                from repro.sim.columnar import ColumnarFadingNetwork

                fading_cls = ColumnarFadingNetwork
            else:
                fading_cls = FadingNetwork
            self.fading = fading_cls(
                pairs, n_antennas=config.n_antennas, rho=config.rho,
                gains=gains, rng=self.rng,
            )
        elif config.channel == "wideband":
            self.fading = WidebandFadingNetwork(
                pairs, n_antennas=config.n_antennas, rho=config.rho,
                gains=gains, rng=self.rng,
                n_taps=config.n_taps, delay_spread=config.delay_spread,
                n_fft=config.n_fft, n_bins=config.n_bins,
            )
        else:
            raise ValueError(
                f"unknown channel substrate {config.channel!r} "
                f"(expected one of {WLAN_CHANNELS})"
            )
        #: Whether sounding/tracking/solving carry per-subcarrier bands.
        self._banded = self.fading.n_bins > 1

        leader_id = elect_leader(self.ap_ids)
        #: The corrupt-CSI guard only arms under fault injection; without
        #: it the leader trusts every report (pre-fault behaviour).
        self._csi_guard = (
            self.fault_plan.csi_guard_threshold
            if self.fault_plan is not None
            else None
        )
        self.leader = LeaderAP(
            ap_id=leader_id, ap_ids=self.ap_ids, csi_guard=self._csi_guard
        )
        self.subordinates = {
            ap: SubordinateAP(ap_id=ap, drift_threshold=config.drift_threshold)
            for ap in self.ap_ids
        }
        # Association: every AP sounds every client once (paper §8a).
        self._associate(*self.client_ids)

        self.selector = make_selector(config.algorithm, group_size=3, rng=self.rng)
        #: The APs that transmit an aligned group (first three, leader
        #: included); rebuilt on leader crash from the survivors.
        self._transmit_aps = tuple(self.ap_ids[:3])
        #: Scores candidate groups against the leader's believed channels,
        #: memoising solutions on the leader's per-client channel-map
        #: versions (see :mod:`repro.engine`).
        self.evaluator = BatchedGroupEvaluator(
            self.leader, self._transmit_aps, alignment=config.alignment
        )

        # ---- dynamic-workload wiring (all default-off / saturated) ---- #
        self.traffic = (
            traffic
            if traffic is not None
            else make_traffic(config.traffic, **(config.traffic_params or {}))
        )
        # The association backlog: under saturation every client starts
        # with a queued packet (and is replenished forever); a finite
        # arrival process starts from an empty queue and fills it itself.
        # The permutation is drawn either way so the selector's stream
        # stays aligned with the pre-dynamic simulation's.
        order = list(self.rng.permutation(self.client_ids))
        self.queue = TransmissionQueue(
            QueuedPacket(client_id=int(c), seq=i) for i, c in enumerate(order)
        ) if self.traffic.saturated else TransmissionQueue()
        self._seq = len(order)
        self.stats = WLANStats()
        #: Per-client accounting of both engines, one row per client of
        #: the fixed universe (churn never changes the ids): cumulative
        #: rate, and latency sum and count of delivered packets.
        self._row = {c: i for i, c in enumerate(self.client_ids)}
        self._cum_rate = np.zeros(config.n_clients)
        self._lat_sum = np.zeros(config.n_clients)
        self._lat_n = np.zeros(config.n_clients, dtype=np.int64)
        if churn is not None:
            self.churn: Optional[ClientChurn] = churn
        elif config.churn_params is not None:
            self.churn = ClientChurn(**config.churn_params)
        else:
            self.churn = None
        if mobility is not None:
            self.mobility: Optional[MobilityModel] = mobility
        elif config.mobility_params is not None:
            self.mobility = MobilityModel(**config.mobility_params)
        else:
            self.mobility = None
        # Dedicated streams: spawned from the config seed, independent of
        # ``self.rng`` so the saturated default draws the exact sequence
        # the pre-dynamic simulation drew.  SeedSequence children are
        # keyed by sequential spawn index, so growing spawn(3) to
        # spawn(4) leaves the first three streams bit-identical.
        traffic_seq, churn_seq, mobility_seq, fault_seq = np.random.SeedSequence(
            config.seed
        ).spawn(4)
        self._traffic_rng = np.random.default_rng(traffic_seq)
        self._churn_rng = np.random.default_rng(churn_seq)
        self._mobility_rng = np.random.default_rng(mobility_seq)
        # ---- fault wiring (all None without fault_params) ------------- #
        self.injector: Optional[FaultInjector] = None
        self.hub: Optional[EthernetHub] = None
        if self.fault_plan is not None:
            self.injector = FaultInjector(self.fault_plan, fault_seq)
            # The explicit backplane: CSI annotations and the leader's
            # per-slot data frames to the other transmit APs cross this
            # hub and are subject to the injector's loss/delay.  Without
            # faults the wire stays implicit (and lossless), exactly as
            # before.
            self.hub = EthernetHub(faults=self.injector)
            for ap in self.ap_ids:
                self.hub.attach(
                    ap,
                    lambda frame, port=ap: self._on_backplane_frame(port, frame),
                )
        #: True once a leader crash leaves fewer than three APs: every
        #: subsequent non-idle slot is point-to-point (permanent fallback).
        self._degraded = False
        #: update_bytes accumulated by leaders that have since crashed.
        self._update_bytes_base = 0
        self._active = set(self.client_ids)
        #: Extra interference power per client (in noise units), injected
        #: by an enclosing multi-cell simulation at slot barriers; empty
        #: means the original single-cell behaviour, bit for bit.
        self._interference: Dict[int, float] = {}
        #: The :class:`repro.sim.events.SharedRun` a multi-cell shard
        #: attached this cell to for one round, or None (run alone).
        self._shared_run = None
        #: The ``fast`` engine's tracking mirror, kept between runs
        #: (see :class:`repro.sim.events.CellStepper`); None until the
        #: first fast-track run.
        self._track_mirror = None
        #: Absolute slot counter, persistent across ``run()`` calls (the
        #: ack cadence and packet timestamps never reset mid-deployment).
        self._slot = 0

    # ------------------------------------------------------------------ #

    @property
    def active_clients(self) -> List[int]:
        """Currently associated clients, in id order."""
        return sorted(self._active)

    def set_interference_floor(
        self, floors: Optional[Mapping[int, float]] = None
    ) -> None:
        """Set per-client cross-cell interference power, in noise units.

        The hook a :class:`~repro.sim.multicell.MultiCellSimulation`
        uses to inject boundary interference at slot barriers: a client
        with floor ``f`` sees every SINR (aligned groups and degenerate
        point-to-point service alike) divided by ``1 + f`` — its noise
        floor rises from 1 to ``1 + f``.  An empty or all-zero mapping
        restores the exact single-cell trajectory (the floors touch no
        RNG stream, so setting and clearing them is side-effect free).
        A floor that is negative, NaN or infinite raises ``ValueError``.
        """
        interference = {}
        for c, v in (floors or {}).items():
            f = float(v)
            if not 0.0 <= f < np.inf:
                raise ValueError(
                    f"interference floor of client {c} must be finite and "
                    f">= 0, got {v!r}"
                )
            if f:
                interference[int(c)] = f
        self._interference = interference

    def _derate(self, rate: float, client: int) -> float:
        """A point-to-point rate under the client's interference floor."""
        floor = self._interference.get(int(client), 0.0)
        if not floor:
            return float(rate)
        return float(np.log2(1.0 + (2.0**rate - 1.0) / (1.0 + floor)))

    def _sound(self, ap: int, client: int) -> np.ndarray:
        """One sounding: the flat matrix, or the per-subcarrier band.

        Wideband deployments estimate every evaluated subcarrier from the
        OFDM preamble, so association, tracking and drift reports all
        carry ``(n_bins, M, M)`` stacks; the flat path (and the wideband
        ``n_bins=1`` limit) carries the plain ``(M, M)`` matrix, keeping
        its computation — and its update-byte accounting — unchanged.
        """
        if self._banded:
            return self.fading.channel_bins(ap, client)
        return self.fading.channel(ap, client)

    def _associate(self, *clients: int) -> None:
        """§8a association of ``clients``, in one pass.

        All APs sound each client's current channel, the leader registers
        it, and every subordinate starts tracking it from that sounding.
        The one association path: start-up passes every client, a churn
        re-join one.  The leave path forgets the subordinates' trackers,
        so each sounding is genuinely fresh, not a smoothed blend.
        """
        aps = self.ap_ids
        subordinates = [self.subordinates[a] for a in aps]
        sound = self._sound
        for c in clients:
            estimates = {a: sound(a, c) for a in aps}
            self.leader.handle_association(c, estimates)
            for a, subordinate in zip(aps, subordinates):
                subordinate.associate(c, estimates[a])

    def _true_channels(self, group: Tuple[int, ...]):
        if self._banded:
            return BandedChannelSet(
                {
                    (a, c): self.fading.channel_bins(a, c)
                    for a in self.ap_ids
                    for c in group
                }
            )
        return ChannelSet(
            {(a, c): self.fading.channel(a, c) for a in self.ap_ids for c in group}
        )

    def _transmit_group(self, group: Tuple[int, ...]) -> Dict[int, float]:
        """Solve with believed channels, decode against the true ones."""
        group = tuple(group)
        if len(group) < 3:
            return {c: 0.0 for c in group}
        # The selector just scored this group, so the engine reuses its
        # memoised solution instead of re-solving from scratch.
        actual, ideal = self.evaluator.transmit_sinrs(group, self._true_channels(group))
        if self._interference:
            # Boundary interference raises the noise floor from 1 to
            # 1 + f for both the achieved and the genie SINR (it is not
            # staleness), uniformly across subcarriers.
            scale = np.array(
                [1.0 + self._interference.get(int(c), 0.0) for c in group]
            )
            actual = actual / scale
            ideal = ideal / scale
        self.stats.staleness_loss_db += max(
            0.0, 10 * np.log10((1 + ideal.min()) / (1 + actual.min()))
        )
        if actual.ndim == 1:
            return {c: float(np.log2(1.0 + actual[i])) for i, c in enumerate(group)}
        # Banded: per-client goodput is the band-averaged spectral
        # efficiency — the sum over evaluated subcarriers divided by the
        # band width, so flat and wideband rates stay comparable.
        return {
            c: float(np.mean(np.log2(1.0 + actual[:, i])))
            for i, c in enumerate(group)
        }

    def _serve_head_alone(self, client: int) -> Dict[int, float]:
        """Degenerate backlog (< 3 distinct clients): point-to-point slot.

        With too few clients to align, the leader falls back to plain
        802.11 service of the head-of-queue client at its best AP's
        eigenmode rate over the *true* current channels — the same
        degenerate-group rule the Fig.-15 rate cache applies.  Wideband
        deployments average the per-subcarrier eigenmode rate over the
        evaluated band.
        """
        if self._banded:
            bands = {a: self.fading.channel_bins(a, client) for a in self.ap_ids}
            rates = []
            for b in range(self.fading.n_bins):
                channels = ChannelSet(
                    {(a, client): bands[a][b] for a in self.ap_ids}
                )
                rates.append(
                    self._derate(
                        best_ap_link(
                            channels, client, self.ap_ids,
                            noise_power=1.0, direction="downlink",
                        ).rate,
                        client,
                    )
                )
            return {client: float(np.mean(rates))}
        channels = ChannelSet(
            {(a, client): self.fading.channel(a, client) for a in self.ap_ids}
        )
        rate = best_ap_link(
            channels, client, self.ap_ids, noise_power=1.0, direction="downlink"
        ).rate
        return {client: self._derate(rate, client)}

    def _track_channels(self, slot: int) -> None:
        """Clients ack; every AP re-estimates and reports drift (§7.1(c)).

        Wideband: the ack covers the whole OFDM band, so the smoothed
        estimate, the drift norm and the reported annotation all span the
        per-subcarrier stack (a drift report costs ``n_bins`` times the
        flat annotation bytes — the §6c price on the Ethernet).

        Under fault injection three things change: an AP can miss the
        ack outright (forced staleness — that sounding never happens); a
        subordinate's report crosses the lossy Ethernet hub and may be
        lost, delayed or corrupted in transit (the subordinate's *own*
        tracker stays clean — the wire is what fails); and a quarantined
        client forces a full refresh report from every subordinate at
        the next ack, bypassing the drift threshold, so recovery doesn't
        wait for the channel to drift again.
        """
        if slot % self.config.ack_period:
            return
        for c in sorted(self._active):
            for a in self.ap_ids:
                if self.injector is not None and self.injector.ack_missed():
                    continue
                update = self.subordinates[a].observe(c, self._sound(a, c))
                if (
                    update is None
                    and self.injector is not None
                    and a != self.leader.ap_id
                    and self.leader.is_quarantined(c)
                ):
                    update = ChannelUpdate(
                        ap_id=a, client_id=c, h=self.subordinates[a].channel_to(c)
                    )
                if update is None:
                    continue
                if self.hub is not None and a != self.leader.ap_id:
                    # The report rides the backplane as an annotation;
                    # what the leader sees is the (possibly corrupted)
                    # wire copy, applied by _on_backplane_frame on
                    # delivery — this slot, later (delay), or never.
                    wire = ChannelUpdate(
                        ap_id=a,
                        client_id=c,
                        h=self.injector.corrupt_report(update.h),
                    )
                    self.hub.broadcast(
                        HubFrame(
                            src_port=a,
                            payload_bytes=0,
                            annotation_bytes=update.nbytes(),
                            kind="csi-update",
                            data=wire,
                        )
                    )
                else:
                    # The leader's own tracker reports never cross the
                    # wire (and the fault-free path keeps its original
                    # direct call, bit for bit).
                    self.leader.handle_update(update)
                    self.stats.drift_reports += 1
        self.stats.update_bytes = self._update_bytes_base + self.leader.update_bytes

    # ------------------------------------------------------------------ #
    # Fault handling (never reached without ``fault_params``)
    # ------------------------------------------------------------------ #

    def _on_backplane_frame(self, port: int, frame: HubFrame) -> None:
        """Hub delivery callback for AP ``port``.

        Only CSI annotations arriving at the *current* leader's port
        carry state; data frames (and frames addressed to a crashed
        ex-leader's port) are inert on arrival.
        """
        if frame.kind != "csi-update" or port != self.leader.ap_id:
            return
        update: ChannelUpdate = frame.data
        if update.client_id not in self.leader.table:
            # Delivered after the client churned away (a delayed frame);
            # a §8a re-association would re-sound from scratch anyway.
            return
        if self.leader.handle_update(update):
            self.stats.drift_reports += 1
        else:
            self.stats.csi_rejections += 1

    def _backplane_data_ready(self) -> bool:
        """Ship the slot's data frames to the other transmit APs.

        "Every decoded packet is broadcast only once to all APs"
        (§7.1(d)): before an aligned slot the leader pushes one payload
        frame per non-leader transmit AP across the hub.  Any loss or
        delay means that AP has nothing to precode — the slot must fall
        back to point-to-point service.  Called *before* the selector
        runs, so a lost backplane never costs selector RNG draws (at
        loss 1.0 the trajectory equals the ``service="p2p"`` floor).
        """
        delivered_all = True
        for ap in self._transmit_aps:
            if ap == self.leader.ap_id:
                continue
            delivered = self.hub.broadcast(
                HubFrame(
                    src_port=self.leader.ap_id,
                    payload_bytes=1500,
                    kind="decoded-packet",
                )
            )
            delivered_all = delivered_all and delivered
        return delivered_all

    def _crash_leader(self, slot: int) -> None:
        """Kill the leader AP; re-elect and rebuild from the survivors.

        The dead AP leaves the deployment entirely (its subordinate
        tracker dies with it).  The new leader is elected by the same
        lowest-id rule and rebuilds its association table and channel
        map from the *surviving* subordinates' tracked estimates — the
        distributed state the paper's design already maintains (§7.1(c)),
        so no re-sounding round is needed.  With fewer than three APs
        left the deployment can no longer align: it serves every
        remaining slot point-to-point (counted in ``fallback_slots``).
        """
        dead = self.leader.ap_id
        self.stats.events.append(WLANEvent(slot, "leader_crash", dead))
        self.stats.re_elections += 1
        self._update_bytes_base += self.leader.update_bytes
        self.ap_ids = [a for a in self.ap_ids if a != dead]
        del self.subordinates[dead]
        new_leader = LeaderAP(
            ap_id=elect_leader(self.ap_ids),
            ap_ids=self.ap_ids,
            csi_guard=self._csi_guard,
        )
        for c in sorted(self._active):
            estimates = {
                a: self.subordinates[a].channel_to(c) for a in self.ap_ids
            }
            new_leader.handle_association(c, estimates)
        self.leader = new_leader
        if len(self.ap_ids) >= 3:
            self._transmit_aps = tuple(self.ap_ids[:3])
            self.evaluator = BatchedGroupEvaluator(
                new_leader, self._transmit_aps, alignment=self.config.alignment
            )
        else:
            self._degraded = True

    # ------------------------------------------------------------------ #
    # Dynamic-workload steps (no-ops under the default configuration)
    # ------------------------------------------------------------------ #

    def _apply_churn(self, slot: int) -> None:
        inactive = [c for c in self.client_ids if c not in self._active]
        events = self.churn.step(sorted(self._active), inactive, self._churn_rng)
        for c in events.leaves:
            self._active.discard(c)
            self.stats.dropped_packets += self.queue.remove_client(c)
            self.leader.handle_disassociation(c)
            # Subordinates drop their smoothed estimates too: a later
            # re-association must start from the fresh sounding, not
            # blend it with the pre-departure channel.
            for a in self.ap_ids:
                self.subordinates[a].forget(c)
            self.stats.leaves += 1
            self.stats.events.append(WLANEvent(slot, "leave", c))
        for c in events.joins:
            self._active.add(c)
            # A join re-triggers association: all APs sound the channel
            # afresh and the leader re-registers the client (§8a).
            self._associate(c)
            self.stats.joins += 1
            self.stats.events.append(WLANEvent(slot, "join", c))
            if self.traffic.saturated:
                self._seq += 1
                self.queue.push(
                    QueuedPacket(client_id=int(c), seq=self._seq, enqueued_slot=slot)
                )

    def _apply_mobility(self, slot: int) -> None:
        changed = self.mobility.step(sorted(self._active), self._mobility_rng)
        for c, rho in changed.items():
            self.fading.set_node_rho(c, rho)
            kind = "start_move" if self.mobility.is_moving(c) else "stop_move"
            self.stats.events.append(WLANEvent(slot, kind, c))

    def _apply_arrivals(self, slot: int) -> None:
        """Enqueue this slot's arrivals, in sorted client order."""
        active = sorted(self._active)
        counts = self.traffic.arrival_counts(slot, active, self._traffic_rng)
        total = int(counts.sum())
        if not total:
            return
        push = self.queue.push
        for c, k in zip(active, counts.tolist()):
            for _ in range(k):
                self._seq += 1
                push(QueuedPacket(client_id=c, seq=self._seq, enqueued_slot=slot))
        self.stats.offered_packets += total

    def _serve(self, served, slot: int) -> None:
        """Pop, account and (under saturation) replenish each served client.

        Rates are credited apart (:meth:`_credit`): the ``fast`` engine
        settles them at the end of its run.
        """
        queue = self.queue
        for c in served:
            packet = queue.pop_client(c)
            i = self._row[c]
            self.stats.delivered_packets += 1
            if packet is not None:
                waited = float(slot - packet.enqueued_slot)
                self.stats.latency_slots_total += waited
                self._lat_sum[i] += waited
                self._lat_n[i] += 1
            if self.traffic.saturated:
                self._seq += 1
                queue.push(
                    QueuedPacket(client_id=int(c), seq=self._seq,
                                 enqueued_slot=slot + 1)
                )

    def _credit(self, served, rates: Mapping[int, float]) -> None:
        """Add one slot's rates to each served client's running total."""
        for c in served:
            self._cum_rate[self._row[c]] += rates.get(c, 0.0)

    def _close_run(self, n_slots: int) -> WLANStats:
        """Close a run of ``n_slots``: slot count, hub counters, averages."""
        stats = self.stats
        stats.slots += n_slots
        if self.hub is not None:
            stats.frames_lost_backplane = self.hub.frames_lost
            stats.frames_delayed_backplane = self.hub.frames_delayed
        stats.per_client_rate = dict(
            zip(self.client_ids, (self._cum_rate / stats.slots).tolist())
        )
        rows = np.flatnonzero(self._lat_n)
        stats.per_client_latency = dict(zip(
            [self.client_ids[i] for i in rows],
            (self._lat_sum[rows] / self._lat_n[rows]).tolist(),
        ))
        return stats

    # ------------------------------------------------------------------ #

    def run(self, n_slots: int, track: bool = True) -> WLANStats:
        """Simulate ``n_slots`` downlink slots; returns the statistics.

        Statistics are cumulative: repeated calls keep extending the same
        deployment, and ``stats.per_client_rate`` always averages over
        every slot simulated so far.

        Under ``engine="fast"`` the loop is executed by
        :func:`repro.sim.events.run_event`, which skips idle spans
        between wake-up points and runs every other slot on the columnar
        slot path — same trajectory, same RNG stream consumption,
        bit-identical :class:`WLANStats` (pinned by
        ``tests/sim/test_event_equivalence.py`` and
        ``tests/sim/test_columnar_equivalence.py``).
        ``engine="reference"`` runs :meth:`run_reference`.
        """
        _check_n_slots(n_slots)
        if self.config.engine == "fast":
            from repro.sim.events import run_event

            return run_event(self, n_slots, track=track)
        return self.run_reference(n_slots, track)

    def run_reference(self, n_slots: int, track: bool = True) -> WLANStats:
        """The scalar slot loop — the fast engine's bit-identity oracle.

        Callable on a simulation of either engine: on a ``fast`` one it
        runs the same loop over the fast engine's fading network, which
        is how the equivalence suites compare the two slot paths with the
        fading network held fixed (both engines share one evaluator).
        """
        _check_n_slots(n_slots)
        for _ in range(n_slots):
            slot = self._slot
            self._slot += 1
            if self.hub is not None:
                # Matured delayed frames (late CSI) land at slot start.
                self.hub.tick()
            if (
                self.injector is not None
                and self.injector.crash_due(slot)
                and len(self.ap_ids) > 1
            ):
                self._crash_leader(slot)
            self.fading.step()
            if self.churn is not None:
                self._apply_churn(slot)
            if self.mobility is not None:
                self._apply_mobility(slot)
            if track:
                self._track_channels(slot)
            if not self.traffic.saturated:
                self._apply_arrivals(slot)
            depth = len(self.queue)
            self.stats.queue_depth_total += depth
            self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
            if not self.queue:
                self.stats.idle_slots += 1
                continue
            # The selector only runs when a full group can form: invoking
            # it on a 1-2 client backlog would let BestOfTwo reset the
            # fairness credits of companions that never get served (and
            # solve candidate groups the degenerate slot then ignores).
            # Under ``service="p2p"`` — or after a crash left too few APs
            # to align — it never runs at all, so its RNG stream (shared
            # with the fading substrate) is consumed identically by a
            # faulted run falling back every slot and its p2p twin.
            p2p_only = self.config.service == "p2p" or self._degraded
            if not p2p_only and len(self.queue.clients_in_order()) >= 3:
                if self.injector is not None and not self._backplane_data_ready():
                    # Backplane data lost or late: the other transmit APs
                    # have nothing to precode this slot.  Decided before
                    # the selector runs, so a lossy wire costs zero
                    # selector draws (at loss 1.0 the trajectory is the
                    # p2p floor, bit for bit).
                    self.stats.fallback_slots += 1
                    served = (self.queue.head().client_id,)
                    rates = self._serve_head_alone(served[0])
                else:
                    served = tuple(self.selector.select(self.queue, self.evaluator))
                    if any(self.leader.is_quarantined(c) for c in served):
                        # Aligning against distrusted CSI would null the
                        # wrong subspace for every client in the group:
                        # degrade the slot instead of transmitting on it.
                        self.stats.fallback_slots += 1
                        served = (self.queue.head().client_id,)
                        rates = self._serve_head_alone(served[0])
                    else:
                        rates = self._transmit_group(served)
            else:
                if self._degraded and self.config.service == "iac":
                    # Post-crash permanent degradation (< 3 APs left):
                    # every served slot is a fallback.  A configured p2p
                    # floor is *service*, not degradation — not counted.
                    self.stats.fallback_slots += 1
                served = (self.queue.head().client_id,)
                rates = self._serve_head_alone(served[0])
            self._serve(served, slot)
            self._credit(served, rates)
        return self._close_run(n_slots)
