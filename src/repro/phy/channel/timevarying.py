"""Time-varying channels: first-order Gauss-Markov fading evolution.

The paper's environments are "static ... the channel is relatively stable
and can be easily tracked" (§8a) -- but the tracking machinery (estimate
from every ack, report drift to the leader) only earns its keep when the
channel actually moves.  This module provides the standard discrete
Gauss-Markov (AR(1)) fading process used to model slowly-moving terminals:

    H[t+1] = rho * H[t] + sqrt(1 - rho^2) * W[t]

with ``W`` i.i.d. Rayleigh innovation of the same average gain.  ``rho``
maps to terminal speed via the Clarke/Jakes zeroth-order Bessel
autocorrelation, ``rho = J0(2 pi f_D T)`` for Doppler ``f_D`` and slot
duration ``T``.

The process is stationary: ``E[|H[t]|^2]`` stays at the configured gain
for all t, so long simulations do not drift in SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.phy.channel.model import rayleigh_channel
from repro.phy.channel.provider import PairedFadingNetwork
from repro.utils.rng import default_rng


@dataclass
class GaussMarkovFading:
    """An evolving MIMO channel matrix with AR(1) dynamics.

    Parameters
    ----------
    n_rx, n_tx:
        Antenna counts.
    rho:
        Per-step correlation in ``[0, 1]`` (1 = static).
    gain:
        Average per-path power (stationary variance of each entry).
    rng:
        Seed or generator for the initial draw and innovations.
    """

    n_rx: int
    n_tx: int
    rho: float = 0.995
    gain: float = 1.0
    rng: object = None

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 < self.gain < np.inf:
            raise ValueError(
                f"gain must be positive and finite, got {self.gain!r}"
            )
        self.rng = default_rng(self.rng)
        self._h = rayleigh_channel(self.n_rx, self.n_tx, self.rng, gain=self.gain)

    @property
    def current(self) -> np.ndarray:
        """The channel matrix at the current time step."""
        return self._h

    def set_rho(self, rho: float) -> None:
        """Change the per-step correlation (the terminal sped up/stopped).

        Takes effect from the next :meth:`step`; the current matrix and
        the stationary gain are untouched, so mobility changes never
        cause an SNR discontinuity.
        """
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        self.rho = rho

    def step(self, n: int = 1) -> np.ndarray:
        """Advance the process ``n`` slots and return the new matrix."""
        if n < 0:
            raise ValueError("cannot step backwards")
        innovation_scale = np.sqrt(1.0 - self.rho**2)
        for _ in range(n):
            w = rayleigh_channel(self.n_rx, self.n_tx, self.rng, gain=self.gain)
            self._h = self.rho * self._h + innovation_scale * w
        return self._h


class FadingNetwork(PairedFadingNetwork):
    """A set of Gauss-Markov links keyed by (tx, rx), stepped together.

    Keeps over-the-air reciprocity at every instant: the (b, a) channel is
    the transpose of (a, b).

    This is the narrowband :class:`~repro.phy.channel.provider.ChannelProvider`:
    ``n_bins == 1`` and :meth:`channel_bins` stacks the flat matrix as a
    one-bin band, so every consumer of the banded contract handles the
    paper's flat regime as the ``n_bins = 1`` special case.  The wideband
    counterpart is
    :class:`~repro.phy.channel.provider.WidebandFadingNetwork`; both
    share the pair/gains/mobility machinery of
    :class:`~repro.phy.channel.provider.PairedFadingNetwork`.
    """

    def _make_link(self, n_antennas: int, rho: float, gain: float, rng) -> GaussMarkovFading:
        return GaussMarkovFading(
            n_rx=n_antennas, n_tx=n_antennas, rho=rho, gain=gain, rng=rng
        )

    @property
    def n_bins(self) -> int:
        return 1

    def channel(self, tx: int, rx: int) -> np.ndarray:
        key = (min(tx, rx), max(tx, rx))
        h = self._links[key].current
        return h if (tx, rx) == key else h.T

    def channel_bins(self, tx: int, rx: int) -> np.ndarray:
        """The flat channel as a one-bin ``(1, n_rx, n_tx)`` band."""
        return self.channel(tx, rx)[None]
