"""The channel-provider contract: flat and wideband fading behind one API.

Every layer above the PHY (association sounding, drift tracking, the
group-evaluation engine, the WLAN simulation) consumes channels through
the :class:`ChannelProvider` interface instead of a concrete fading
model.  The contract is deliberately *banded*: a provider exposes its
channels as a stacked ``(n_bins, n_rx, n_tx)`` ndarray, one flat matrix
per evaluated OFDM subcarrier — and a narrowband channel is simply the
``n_bins == 1`` special case.  That single design move is what lets the
paper's §6c conjecture (align independently per subcarrier on
frequency-selective channels) run through the *entire* stack rather
than only the isolated :mod:`repro.core.ofdm_alignment` ablation: the
group evaluator (:mod:`repro.engine.evaluator`) mirrors every link as a
bin stack and solves each bin as one row of a single solver batch, so
flat and wideband cells take one route.

Two implementations ship:

* :class:`~repro.phy.channel.timevarying.FadingNetwork` — the flat
  Gauss-Markov network the paper's USRP regime corresponds to
  (``n_bins == 1``);
* :class:`WidebandFadingNetwork` (here) — per-link *multi-tap* channels
  whose tap matrices each evolve as independent Gauss-Markov processes
  over an exponential power-delay profile; ``channel_bins`` is the
  per-subcarrier frequency response at a fixed evaluation grid.

RNG-stream determinism (see docs/ARCHITECTURE.md §2): in the flat limit
(one non-zero tap, i.e. ``delay_spread == 0`` or ``n_taps == 1``) the
wideband network draws *exactly* the sequence of normals the flat
:class:`FadingNetwork` draws — same link order, same real-then-imaginary
block per link, same innovation per step — so a single-tap wideband WLAN
run is bit-identical to the flat run, which the test-suite pins.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.phy.channel.selective import exponential_pdp
from repro.utils.rng import default_rng


def evaluation_bins(n_fft: int, n_bins: int) -> np.ndarray:
    """The evenly-spaced subcarrier grid a provider evaluates.

    Matches the grid of :func:`repro.core.ofdm_alignment.conjecture_experiment`
    (``linspace(1, n_fft - 1, n_bins)``, DC bin excluded as 802.11 does);
    ``n_bins == 1`` picks the band centre — the anchor subcarrier of the
    flat-approximation mode.
    """
    if n_fft < 2:
        raise ValueError("need at least a 2-point FFT")
    if not 1 <= n_bins <= n_fft - 1:
        raise ValueError(f"n_bins must be in [1, {n_fft - 1}], got {n_bins}")
    if n_bins == 1:
        return np.array([n_fft // 2], dtype=int)
    return np.linspace(1, n_fft - 1, n_bins, dtype=int)


class ChannelProvider(ABC):
    """What the MAC/engine/simulation layers require of a channel model.

    A provider owns a set of node-pair links that evolve in lock-step
    (:meth:`step`) and honour per-node mobility overrides
    (:meth:`set_node_rho`).  Channels are read either as the stacked
    per-subcarrier band (:meth:`channel_bins`, the native form) or as a
    single flat matrix (:meth:`channel` — the whole channel when
    ``n_bins == 1``, the band-centre anchor otherwise).  Reciprocity
    holds per bin: ``channel_bins(b, a)`` is the per-bin transpose of
    ``channel_bins(a, b)``.
    """

    @property
    @abstractmethod
    def n_bins(self) -> int:
        """Number of evaluated subcarriers (1 = narrowband/flat)."""

    @abstractmethod
    def channel(self, tx: int, rx: int) -> np.ndarray:
        """Flat ``(n_rx, n_tx)`` view: the channel itself when
        ``n_bins == 1``, the band-centre anchor bin otherwise."""

    @abstractmethod
    def channel_bins(self, tx: int, rx: int) -> np.ndarray:
        """Stacked ``(n_bins, n_rx, n_tx)`` per-subcarrier channels."""

    @abstractmethod
    def set_node_rho(self, node: int, rho: float) -> None:
        """Override one terminal's per-slot correlation (mobility)."""

    @abstractmethod
    def node_rho(self, node: int) -> float:
        """The per-slot correlation currently assigned to ``node``."""

    @abstractmethod
    def step(self, n: int = 1) -> None:
        """Advance every link by ``n`` slots."""


class PairedFadingNetwork(ChannelProvider):
    """Shared link management for pairwise Gauss-Markov networks.

    Owns exactly the machinery the flat and wideband networks have in
    common — undirected-pair dedup, the (possibly asymmetric-keyed)
    gains lookup, the per-node mobility overrides with the
    min-of-endpoints rule, and lock-step stepping — so the two engines
    cannot drift apart on it (the single-tap bit-identity contract
    depends on the loops matching draw for draw).  Subclasses provide
    :meth:`_make_link` (a link object with ``set_rho``/``step``) and the
    channel accessors.
    """

    def __init__(
        self,
        pairs,
        n_antennas: int,
        rho: float = 0.995,
        gains: Optional[Dict[Tuple[int, int], float]] = None,
        rng=None,
    ):
        rng = default_rng(rng)
        self._base_rho = rho
        #: Per-node rho overrides (mobility); links take the minimum of
        #: their endpoints' values, so the faster terminal dominates.
        self._node_rho: Dict[int, float] = {}
        self._links: Dict[Tuple[int, int], object] = {}
        seen = set()
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key in seen or a == b:
                continue
            seen.add(key)
            gain = 1.0 if gains is None else gains.get(key, gains.get((key[1], key[0]), 1.0))
            self._links[key] = self._make_link(n_antennas, rho, gain, rng)

    def _make_link(self, n_antennas: int, rho: float, gain: float, rng):
        """Construct one undirected link (draws its initial state now)."""
        raise NotImplementedError

    def set_node_rho(self, node: int, rho: float) -> None:
        """Set one terminal's per-slot correlation (mobility hook).

        Every link touching ``node`` is re-tuned to the minimum of its
        two endpoints' rho values (a link decorrelates as fast as its
        fastest-moving end); nodes without an override keep the
        network's base rho.  Used by the WLAN simulation's mobility
        model when a client starts or stops moving.
        """
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        self._node_rho[node] = rho
        for (a, b), link in self._links.items():
            if node in (a, b):
                link.set_rho(
                    min(
                        self._node_rho.get(a, self._base_rho),
                        self._node_rho.get(b, self._base_rho),
                    )
                )

    def node_rho(self, node: int) -> float:
        """The per-slot correlation currently assigned to ``node``."""
        return self._node_rho.get(node, self._base_rho)

    def link_rho(self, tx: int, rx: int) -> float:
        """The per-slot correlation of the (tx, rx) link."""
        return self._links[(min(tx, rx), max(tx, rx))].rho

    def step(self, n: int = 1) -> None:
        """Advance every link by ``n`` slots."""
        if n < 0:
            raise ValueError("cannot step backwards")
        for link in self._links.values():
            link.step(n)


class _WidebandLink:
    """One undirected link: a Gauss-Markov process per non-zero tap.

    Tap ``k`` evolves as ``H_k[t+1] = rho H_k[t] + sqrt(1-rho^2) W_k``
    with ``W_k`` i.i.d. CN(0, gain * pdp[k]) — each tap keeps its own
    stationary power, so the power-delay profile (and hence the delay
    spread and coherence bandwidth) is preserved for all t.  Zero-power
    taps never draw from the RNG, which is what makes the single-tap
    flat limit consume exactly the flat network's stream.
    """

    def __init__(
        self,
        n_antennas: int,
        pdp: np.ndarray,
        rho: float,
        gain: float,
        rng: np.random.Generator,
    ):
        self.rho = float(rho)
        self._rng = rng
        active = np.flatnonzero(pdp > 0)
        #: Tap indices with power (delay positions into the FFT phase grid).
        self.active = active
        #: Per-active-tap innovation scale sqrt(gain * pdp[k] / 2).
        self._scales = np.sqrt(gain * pdp[active] / 2.0)[:, None, None]
        self.taps = self._draw(n_antennas)

    def _draw(self, n_antennas: Optional[int] = None) -> np.ndarray:
        """One CN(0, gain*pdp) draw per active tap, flat-stream compatible:
        a real block then an imaginary block, exactly like
        :func:`~repro.phy.channel.model.rayleigh_channel` per matrix."""
        if n_antennas is None:
            n_antennas = self.taps.shape[-1]
        shape = (self.active.size, n_antennas, n_antennas)
        return (
            self._rng.standard_normal(shape) + 1j * self._rng.standard_normal(shape)
        ) * self._scales

    def set_rho(self, rho: float) -> None:
        self.rho = float(rho)

    def step(self, n: int = 1) -> None:
        innovation_scale = np.sqrt(1.0 - self.rho**2)
        for _ in range(n):
            self.taps = self.rho * self.taps + innovation_scale * self._draw()


class WidebandFadingNetwork(PairedFadingNetwork):
    """Frequency-selective Gauss-Markov links keyed by (tx, rx).

    The wideband counterpart of
    :class:`~repro.phy.channel.timevarying.FadingNetwork`: every link is
    a multi-tap FIR channel (exponential power-delay profile of RMS
    ``delay_spread`` samples over ``n_taps`` taps) whose tap matrices
    evolve as independent AR(1) processes, stepped together.
    ``channel_bins`` returns the link's frequency response at the
    provider's fixed evaluation grid (``n_bins`` evenly-spaced
    subcarriers of an ``n_fft``-point OFDM system) — the stacked
    ``(n_bins, n_rx, n_tx)`` band the group evaluator mirrors, one solver
    row per bin.  Over-the-air reciprocity holds per bin.

    With ``delay_spread == 0`` (or ``n_taps == 1``) only tap 0 carries
    power and every bin equals that tap: the network is then a flat
    :class:`FadingNetwork` drawing the identical RNG stream.
    """

    def __init__(
        self,
        pairs,
        n_antennas: int,
        rho: float = 0.995,
        gains: Optional[Dict[Tuple[int, int], float]] = None,
        rng=None,
        *,
        n_taps: int = 8,
        delay_spread: float = 0.0,
        n_fft: int = 64,
        n_bins: int = 4,
    ):
        if n_taps > n_fft:
            raise ValueError("FFT shorter than the channel impulse response")
        self.n_fft = int(n_fft)
        self.delay_spread = float(delay_spread)
        self.pdp = exponential_pdp(n_taps, delay_spread)
        self.bins = evaluation_bins(n_fft, n_bins)
        super().__init__(pairs, n_antennas, rho=rho, gains=gains, rng=rng)
        if not self._links:
            raise ValueError("need at least one node pair")
        first = next(iter(self._links.values()))
        # Phase grid: phases[b, k] = exp(-2j pi bins[b] active[k] / n_fft),
        # so H(bin b) = sum_k taps[k] * phases[b, k] in one tensordot.
        self._phases = np.exp(
            -2j * np.pi * np.outer(self.bins, first.active) / self.n_fft
        )

    def _make_link(self, n_antennas: int, rho: float, gain: float, rng) -> _WidebandLink:
        return _WidebandLink(
            n_antennas=n_antennas, pdp=self.pdp, rho=rho, gain=gain, rng=rng
        )

    # ------------------------------------------------------------------ #

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    def _link_bins(self, key: Tuple[int, int]) -> np.ndarray:
        link = self._links[key]
        # (B, K) x (K, M, M) -> (B, M, M); a single active tap at delay 0
        # has phase 1 everywhere, so every bin is exactly that tap matrix.
        return np.tensordot(self._phases, link.taps, axes=(1, 0))

    def channel_bins(self, tx: int, rx: int) -> np.ndarray:
        key = (min(tx, rx), max(tx, rx))
        h = self._link_bins(key)
        return h if (tx, rx) == key else h.transpose(0, 2, 1)

    def channel(self, tx: int, rx: int) -> np.ndarray:
        """The anchor (band-centre) bin — what a flat-approximation
        consumer believes the whole band looks like."""
        return self.channel_bins(tx, rx)[len(self.bins) // 2]

    def taps_of(self, tx: int, rx: int) -> np.ndarray:
        """Current ``(n_active_taps, n_rx, n_tx)`` tap stack (directional)."""
        key = (min(tx, rx), max(tx, rx))
        taps = self._links[key].taps
        return taps if (tx, rx) == key else taps.transpose(0, 2, 1)

