"""Data model for IAC transmissions: packets, channels, solutions, schedules.

An IAC round is described by three pieces (paper §4):

* a set of :class:`PacketSpec` -- who transmits each packet and which node
  is responsible for decoding it;
* a :class:`ChannelSet` -- the channel matrix between every transmitter and
  every receiver involved;
* an :class:`AlignmentSolution` -- the per-packet encoding vectors plus the
  ordered :class:`DecodeStage` schedule stating which receiver decodes which
  packets at each step (earlier stages' packets are cancelled before later
  stages decode).

The same types describe uplink (clients transmit, APs decode successively
over the Ethernet) and downlink (APs transmit, every client decodes alone --
all stages are then independent, see :attr:`AlignmentSolution.cooperative`).

A :class:`ChannelSet` is one flat matrix per link.  Wideband channels have
no set type of their own: they travel as plain ``(n_bins, n_rx, n_tx)``
stacks (:meth:`~repro.phy.channel.provider.ChannelProvider.channel_bins`),
and the batched evaluator lays every bin out as a row of its solver batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.linalg import normalize


@dataclass(frozen=True)
class PacketSpec:
    """One concurrent packet: its transmitter and its responsible decoder.

    ``tx`` and ``rx`` are opaque node identifiers (ints by convention:
    client index on the uplink, AP index on the downlink).
    """

    packet_id: int
    tx: int
    rx: int


class ChannelSet:
    """Channel matrices between transmitter and receiver node identifiers.

    Stores ``H[tx, rx]`` as an ``(n_rx_antennas, n_tx_antennas)`` complex
    matrix.  The same structure serves uplink (tx=client, rx=AP) and
    downlink (tx=AP, rx=client).
    """

    def __init__(self, channels: Mapping[Tuple[int, int], np.ndarray]):
        if not channels:
            raise ValueError("channel set cannot be empty")
        self._channels: Dict[Tuple[int, int], np.ndarray] = {}
        for key, h in channels.items():
            h = np.asarray(h, dtype=complex)
            if h.ndim != 2:
                raise ValueError(f"channel {key} is not a matrix")
            self._channels[key] = h

    def h(self, tx: int, rx: int) -> np.ndarray:
        """Channel matrix from node ``tx`` to node ``rx``."""
        try:
            return self._channels[(tx, rx)]
        except KeyError:
            raise KeyError(f"no channel from node {tx} to node {rx}") from None

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._channels

    def pairs(self) -> List[Tuple[int, int]]:
        return list(self._channels)

    def tx_antennas(self, tx: int) -> int:
        """Antenna count of transmitter ``tx`` (from any stored channel)."""
        for (t, _), h in self._channels.items():
            if t == tx:
                return h.shape[1]
        raise KeyError(f"node {tx} does not appear as a transmitter")

    def rx_antennas(self, rx: int) -> int:
        """Antenna count of receiver ``rx`` (from any stored channel)."""
        for (_, r), h in self._channels.items():
            if r == rx:
                return h.shape[0]
        raise KeyError(f"node {rx} does not appear as a receiver")

    def perturbed(self, relative_error: float, rng: np.random.Generator) -> "ChannelSet":
        """Return a copy with i.i.d. complex Gaussian estimation error.

        ``relative_error`` is the per-entry error standard deviation relative
        to the RMS entry magnitude of each matrix; used to study IAC's
        sensitivity to channel-estimate inaccuracy (paper §8a: "slight
        inaccuracy ... only means that the interference is not fully
        eliminated").
        """
        out = {}
        for key, h in self._channels.items():
            rms = np.sqrt(np.mean(np.abs(h) ** 2))
            noise = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) / np.sqrt(2)
            out[key] = h + relative_error * rms * noise
        return ChannelSet(out)


@dataclass(frozen=True)
class DecodeStage:
    """One step of the successive decoding schedule.

    ``rx`` decodes every packet in ``packet_ids`` after subtracting all
    packets decoded in earlier stages (which arrive over the Ethernet on the
    uplink).  On the downlink every stage stands alone -- clients cannot
    cancel for each other (paper §4d).
    """

    rx: int
    packet_ids: Tuple[int, ...]

    def __post_init__(self):
        if not self.packet_ids:
            raise ValueError("a decode stage must decode at least one packet")


@dataclass
class AlignmentSolution:
    """Encoding vectors plus decode schedule for one IAC transmission group.

    Attributes
    ----------
    packets:
        The concurrent packets this solution covers.
    encoding:
        ``packet_id ->`` unit-norm encoding vector at its transmitter.
    schedule:
        Ordered decode stages.  With ``cooperative=True`` (uplink) each
        stage may cancel all packets decoded by earlier stages; with
        ``cooperative=False`` (downlink) stages are independent receivers.
    cooperative:
        Whether decoded packets propagate between stages (wired backplane).
    meta:
        Free-form solver diagnostics (residuals, iterations, ...).
    """

    packets: Sequence[PacketSpec]
    encoding: Dict[int, np.ndarray]
    schedule: List[DecodeStage]
    cooperative: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [p.packet_id for p in self.packets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate packet ids")
        missing = set(ids) - set(self.encoding)
        if missing:
            raise ValueError(f"missing encoding vectors for packets {sorted(missing)}")
        scheduled = [pid for stage in self.schedule for pid in stage.packet_ids]
        if sorted(scheduled) != sorted(ids):
            raise ValueError("schedule must decode every packet exactly once")
        self.encoding = {pid: normalize(v) for pid, v in self.encoding.items()}

    def packet(self, packet_id: int) -> PacketSpec:
        for p in self.packets:
            if p.packet_id == packet_id:
                return p
        raise KeyError(f"unknown packet id {packet_id}")

    def tx_of(self, packet_id: int) -> int:
        return self.packet(packet_id).tx

    def packets_of_tx(self, tx: int) -> List[int]:
        """Packet ids transmitted by node ``tx`` (for power splitting)."""
        return [p.packet_id for p in self.packets if p.tx == tx]

    def received_direction(self, channels: ChannelSet, packet_id: int, rx: int) -> np.ndarray:
        """Direction ``H v`` along which ``rx`` receives this packet."""
        spec = self.packet(packet_id)
        return channels.h(spec.tx, rx) @ self.encoding[packet_id]

    def tx_amplitude(self, packet_id: int, total_power: float = 1.0) -> float:
        """Per-packet transmit amplitude under an equal split of the
        transmitter's power budget across its concurrent packets."""
        n = len(self.packets_of_tx(self.tx_of(packet_id)))
        return float(np.sqrt(total_power / n))
