"""Dynamic workloads for the WLAN simulation: arrivals, churn, mobility.

The paper's §10-§11 WLAN results assume a *saturated* downlink: every
client always has a packet queued, so the concurrency algorithm never
sees an empty position.  That regime hides everything interesting about
the MAC under real traffic — queueing delay, idle slots, unfairness
under bursts, the cost of re-association after churn, stale estimates
under mobility.  This module supplies those dynamics as small composable
processes that :class:`repro.sim.wlan.WLANSimulation` drives once per
slot:

* **Arrival processes** (:class:`TrafficModel`): how many packets each
  active client enqueues per slot.  ``saturated`` reproduces the paper's
  infinite-demand regime bit-for-bit; ``poisson``, ``bursty`` (ON/OFF
  Markov-modulated) and ``heterogeneous`` (per-client rates) open the
  dynamic-load regimes.
* **Client churn** (:class:`ClientChurn`): clients leave and re-join a
  fixed universe; a join re-triggers association (all APs re-sound the
  channel, the leader re-registers the client — paper §8a), a leave
  purges the client's queue and disassociates it.
* **Mobility** (:class:`MobilityModel`): clients toggle between a
  static and a moving state; the simulation wires the per-client
  Doppler into :meth:`repro.phy.channel.timevarying.FadingNetwork.set_node_rho`,
  so moving clients genuinely decorrelate their channels and stress the
  drift-tracking machinery.

All processes draw exclusively from the RNG handed to them by the
simulation (one dedicated stream per process, spawned from the config
seed), so a dynamic run is exactly as reproducible as a saturated one.

The event-driven kernel (:mod:`repro.sim.events`) additionally needs to
*look ahead*: it skips runs of slots where nothing happens, but the
bit-identity contract requires every skipped slot to consume exactly the
RNG draws the per-slot loop would have made.  Each process therefore
exposes one lookahead method built on one lemma: ``Generator`` output
buffers fill element-by-element in C order, so a single blocked draw of
``n`` slots' worth consumes the bitstream identically to ``n``
sequential per-slot draws.  ``scan_quiet(n, ...)`` draws ``n`` slots
blocked and reports how many leading slots are event-free.  To unwind
an overdrawn scan, the kernel restores a checkpoint
(``rng.bit_generator.state``) and calls ``scan_quiet(j, ...)`` again
for the ``j`` quiet slots: it consumes exactly ``j`` slots' worth, as
``j`` per-slot calls would (pinned by ``tests/sim/test_traffic.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "TrafficModel",
    "SaturatedTraffic",
    "PoissonTraffic",
    "BurstyTraffic",
    "HeterogeneousTraffic",
    "ClientChurn",
    "MobilityModel",
    "make_traffic",
]


def _check_rate(name: str, rate: float) -> None:
    """Reject a rate that is not finite and >= 0, naming its knob."""
    if not 0.0 <= rate < np.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {rate!r}")


def _leading_quiet(busy: np.ndarray, n_slots: int) -> int:
    """Index of the first eventful slot in a scan block (or ``n_slots``)."""
    if not busy.any():
        return n_slots
    return int(np.argmax(busy))


class TrafficModel(ABC):
    """Per-slot packet arrivals for the active clients.

    ``arrival_counts(slot, clients, rng)`` returns this slot's packet
    count of each client, as an int64 array aligned with ``clients``.
    The ``saturated`` model is special-cased by the simulation — it
    keeps the legacy pop-and-replenish loop — and signals that via
    :attr:`saturated`.
    """

    #: True only for the infinite-demand model.
    saturated: bool = False

    @abstractmethod
    def arrival_counts(
        self, slot: int, clients: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Packets arriving for each of ``clients`` during ``slot``."""

    def can_scan(self, clients: Sequence[int]) -> bool:
        """Whether this model supports blocked lookahead *right now*.

        ``False`` forces the event kernel onto the per-slot path (still
        bit-identical, no skipping).  Stateful models may answer
        per-state — bursty traffic is scannable only while every given
        client's chain is OFF, because an ON client draws a variable
        number of values per slot.
        """
        return False

    def scan_quiet(
        self, n_slots: int, clients: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        """Draw ``n_slots`` of stream blocked; count leading quiet slots.

        A quiet slot is one :meth:`arrival_counts` would have returned
        all zeros for (and, for stateful models, left the model state
        unchanged).
        Consumes exactly ``n_slots`` slots' worth of the stream; to
        position it mid-block the caller restores a checkpoint of the
        generator and scans again over the quiet prefix.
        """
        raise NotImplementedError


class SaturatedTraffic(TrafficModel):
    """Infinite demand: every client is always backlogged (paper §10.3).

    The simulation never consults :meth:`arrival_counts`; a served
    packet is immediately replaced, exactly as the pre-dynamic
    ``WLANSimulation`` did, so this model is the bit-identical limiting
    case every dynamic scenario collapses to.
    """

    saturated = True

    def arrival_counts(self, slot, clients, rng) -> np.ndarray:
        return np.zeros(len(clients), dtype=np.int64)


@dataclass
class PoissonTraffic(TrafficModel):
    """Independent Poisson arrivals at ``rate_per_client`` packets/slot.

    An offered-load fraction ``load`` of the system's service capacity
    (up to ``group_size`` packets per slot across all clients) maps to
    ``rate_per_client = load * group_size / n_clients``; the
    ``load_latency`` scenario does that conversion.
    """

    rate_per_client: float = 0.25

    def __post_init__(self):
        _check_rate("rate_per_client", self.rate_per_client)

    def arrival_counts(self, slot, clients, rng) -> np.ndarray:
        return np.asarray(
            rng.poisson(self.rate_per_client, size=len(clients)),
            dtype=np.int64,
        )

    def can_scan(self, clients) -> bool:
        return True

    def scan_quiet(self, n_slots, clients, rng) -> int:
        if not len(clients):
            return n_slots
        counts = rng.poisson(self.rate_per_client,
                             size=(n_slots, len(clients)))
        return _leading_quiet(counts.any(axis=1), n_slots)


@dataclass
class BurstyTraffic(TrafficModel):
    """ON/OFF Markov-modulated arrivals (bursty sources).

    Each client carries a two-state chain: OFF -> ON with probability
    ``p_on``, ON -> OFF with ``p_off``, per slot.  While ON it emits
    Poisson(``rate_on``) packets per slot; while OFF, nothing.  The
    long-run mean rate is ``rate_on * p_on / (p_on + p_off)``.
    """

    rate_on: float = 1.0
    p_on: float = 0.05
    p_off: float = 0.15

    def __post_init__(self):
        _check_rate("rate_on", self.rate_on)
        for name in ("p_on", "p_off"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self._on: Dict[int, bool] = {}

    def mean_rate(self) -> float:
        denom = self.p_on + self.p_off
        return self.rate_on * (self.p_on / denom) if denom else 0.0

    def arrival_counts(self, slot, clients, rng) -> np.ndarray:
        counts = np.zeros(len(clients), dtype=np.int64)
        flips = rng.random(len(clients))
        for i, (c, flip) in enumerate(zip(clients, flips)):
            on = self._on.get(c, False)
            if flip < (self.p_off if on else self.p_on):
                on = not on
            self._on[c] = on
            if on:
                counts[i] = rng.poisson(self.rate_on)
        return counts

    def can_scan(self, clients) -> bool:
        # An ON client draws an extra Poisson per slot (variable stream
        # consumption) and usually emits — only the all-OFF state has a
        # fixed per-slot draw shape the blocked scan can reproduce.
        return not any(self._on.get(c, False) for c in clients)

    def scan_quiet(self, n_slots, clients, rng) -> int:
        # All chains OFF: a quiet slot consumes len(clients) uniforms
        # and flips nobody ON (every flip draw >= p_on).
        if not len(clients):
            return n_slots
        flips = rng.random((n_slots, len(clients)))
        return _leading_quiet((flips < self.p_on).any(axis=1), n_slots)


@dataclass
class HeterogeneousTraffic(TrafficModel):
    """Per-client Poisson rates: a few heavy hitters over a light base.

    ``rates`` pins exact per-client rates; clients not listed fall back
    to ``base_rate``.  Alternatively ``heavy_fraction``/``heavy_rate``
    designates the first ``ceil(heavy_fraction * n)`` active clients (in
    sorted id order, so the choice is deterministic) as heavy.
    """

    base_rate: float = 0.1
    heavy_rate: float = 1.0
    heavy_fraction: float = 0.0
    rates: Optional[Mapping[int, float]] = None

    def __post_init__(self):
        _check_rate("base_rate", self.base_rate)
        _check_rate("heavy_rate", self.heavy_rate)
        for client, rate in (self.rates or {}).items():
            _check_rate(f"rates[{client!r}]", rate)
        if not 0.0 <= self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must be in [0, 1]")

    def _heavy_set(self, clients: Sequence[int]) -> frozenset:
        if self.heavy_fraction <= 0.0:
            return frozenset()
        n_heavy = int(np.ceil(self.heavy_fraction * len(clients)))
        return frozenset(sorted(clients)[:n_heavy])

    def rate_of(self, client: int, clients: Sequence[int]) -> float:
        if self.rates is not None and client in self.rates:
            return float(self.rates[client])
        if client in self._heavy_set(clients):
            return self.heavy_rate
        return self.base_rate

    def _lam(self, clients: Sequence[int]) -> np.ndarray:
        # One heavy-set computation per slot, not per client.
        heavy = self._heavy_set(clients)
        pinned = self.rates or {}
        return np.array([
            float(pinned[c]) if c in pinned
            else (self.heavy_rate if c in heavy else self.base_rate)
            for c in clients
        ])

    def arrival_counts(self, slot, clients, rng) -> np.ndarray:
        lam = self._lam(clients)
        counts = rng.poisson(lam) if len(lam) else np.empty(0, dtype=int)
        return np.asarray(counts, dtype=np.int64)

    def can_scan(self, clients) -> bool:
        return True

    def scan_quiet(self, n_slots, clients, rng) -> int:
        # Mirrors arrival_counts(): with no clients the per-slot path skips the
        # poisson call entirely, so the scan must consume nothing either.
        lam = self._lam(clients)
        if not len(lam):
            return n_slots
        counts = rng.poisson(lam, size=(n_slots, len(lam)))
        return _leading_quiet(counts.any(axis=1), n_slots)


#: Every ``traffic`` name :func:`make_traffic` accepts.
TRAFFIC_MODELS: Dict[str, type] = {
    "saturated": SaturatedTraffic,
    "poisson": PoissonTraffic,
    "bursty": BurstyTraffic,
    "heterogeneous": HeterogeneousTraffic,
}


def make_traffic(name: str, **params) -> TrafficModel:
    """Factory used by scenario params: a :data:`TRAFFIC_MODELS` name +
    keyword knobs.

    Unknown keyword arguments raise ``TypeError`` (dataclass
    constructors), so sweep grids fail loudly on typos.
    """
    if name not in TRAFFIC_MODELS:
        raise ValueError(
            f"unknown traffic model {name!r} (expected {'/'.join(TRAFFIC_MODELS)})"
        )
    if name == "saturated" and params:
        raise TypeError("saturated traffic takes no parameters")
    return TRAFFIC_MODELS[name](**params)


# --------------------------------------------------------------------- #
# Churn and mobility
# --------------------------------------------------------------------- #


@dataclass
class ClientChurn:
    """Join/leave dynamics over a fixed client universe.

    Every slot, each *active* client leaves with probability ``p_leave``
    (never dropping below ``min_active``) and each *departed* client
    re-joins with probability ``p_join``.  The simulation translates a
    join into a fresh association (all APs re-sound the channel, the
    leader re-registers — §8a) and a leave into a disassociation plus a
    purge of the client's queued packets.
    """

    p_leave: float = 0.01
    p_join: float = 0.05
    min_active: int = 3

    def __post_init__(self):
        for name in ("p_leave", "p_join"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.min_active < 0:
            raise ValueError("min_active must be non-negative")

    def step(
        self,
        active: Sequence[int],
        inactive: Sequence[int],
        rng: np.random.Generator,
    ) -> "ChurnEvents":
        """One slot of churn: who leaves and who joins (deterministic order)."""
        leaves: List[int] = []
        joins: List[int] = []
        budget = len(active) - self.min_active
        for c, draw in zip(sorted(active), rng.random(len(active))):
            if budget <= 0:
                break
            if draw < self.p_leave:
                leaves.append(c)
                budget -= 1
        for c, draw in zip(sorted(inactive), rng.random(len(inactive))):
            if draw < self.p_join:
                joins.append(c)
        return ChurnEvents(leaves=leaves, joins=joins)

    def scan_quiet(
        self,
        n_slots: int,
        active: Sequence[int],
        inactive: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        """Leading slots of a block where :meth:`step` returns no events.

        :meth:`step` draws ``random(len(active))`` then
        ``random(len(inactive))`` unconditionally — both arrays
        materialise before the loops — so one
        ``random((n, na + ni))`` block consumes the identical bitstream.
        A slot is eventful iff some inactive draw clears ``p_join``, or
        the leave budget is positive *and* some active draw clears
        ``p_leave`` (with a zero budget the leave loop breaks before
        recording anything, whatever the draws say).
        """
        na, ni = len(active), len(inactive)
        if not na + ni:
            return n_slots
        u = rng.random((n_slots, na + ni))
        busy = np.zeros(n_slots, dtype=bool)
        if na and len(active) - self.min_active > 0:
            busy |= (u[:, :na] < self.p_leave).any(axis=1)
        if ni:
            busy |= (u[:, na:] < self.p_join).any(axis=1)
        return _leading_quiet(busy, n_slots)


@dataclass(frozen=True)
class ChurnEvents:
    """One slot's churn outcome."""

    leaves: List[int] = field(default_factory=list)
    joins: List[int] = field(default_factory=list)


@dataclass
class MobilityModel:
    """Two-state pause/move mobility driving per-client fading rates.

    Each client alternates between *paused* (channel correlation
    ``rho_static``) and *moving* (``rho_moving < rho_static``), toggling
    with probabilities ``p_start`` / ``p_stop`` per slot — a discrete
    random-waypoint pause/travel cycle.  On every transition the
    simulation pushes the new per-client rho into the fading network
    (:meth:`~repro.phy.channel.timevarying.FadingNetwork.set_node_rho`),
    so a moving client's links decorrelate faster and its estimates go
    stale unless the tracking machinery keeps up.
    """

    rho_static: float = 0.999
    rho_moving: float = 0.97
    p_start: float = 0.02
    p_stop: float = 0.1

    def __post_init__(self):
        for name in ("rho_static", "rho_moving"):
            rho = getattr(self, name)
            if not 0.0 <= rho <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("p_start", "p_stop"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self._moving: Dict[int, bool] = {}

    def is_moving(self, client: int) -> bool:
        return self._moving.get(client, False)

    def step(
        self, clients: Sequence[int], rng: np.random.Generator
    ) -> Dict[int, float]:
        """Advance every client's state; return {client: new_rho} transitions."""
        changed: Dict[int, float] = {}
        draws = rng.random(len(clients))
        for c, draw in zip(sorted(clients), draws):
            moving = self._moving.get(c, False)
            if draw < (self.p_stop if moving else self.p_start):
                moving = not moving
                self._moving[c] = moving
                changed[c] = self.rho_moving if moving else self.rho_static
        return changed

    def scan_quiet(
        self, n_slots: int, clients: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        """Leading slots of a block where :meth:`step` transitions nobody.

        The per-slot draw is one ``random(len(clients))`` zipped against
        ``sorted(clients)``, so the per-client toggle threshold
        (``p_stop`` while moving, ``p_start`` while paused — frozen for
        the span, since any transition ends it) lines up column-wise
        with a ``(n, len(clients))`` block.
        """
        n = len(clients)
        if not n:
            return n_slots
        thresh = np.array([
            self.p_stop if self._moving.get(c, False) else self.p_start
            for c in sorted(clients)
        ])
        u = rng.random((n_slots, n))
        return _leading_quiet((u < thresh).any(axis=1), n_slots)
