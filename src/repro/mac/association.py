"""Client association and channel-state signalling (paper §7.1, §8).

Covers the control-plane pieces around the data path:

* **Association**: "the first time a client broadcasts an association
  message, all APs estimate the channel from that client to themselves"
  (§8a).  The leader assigns the client id used in DATA+Poll frames.
* **Channel updates**: "the subordinate APs need to tell the leader AP
  whenever ... channel coefficients to a client change by more than a
  threshold value" (§7.1(c)); updates ride as annotations on Ethernet
  frames (byte-accounted here).
* **Leader election**: deterministic lowest-id rule; "only the leader AP
  makes decisions, while other APs are dumb transmitters/receivers".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.channel.estimation import ChannelTracker
from repro.phy.channel.model import rayleigh_channel


def elect_leader(ap_ids: Sequence[int]) -> int:
    """Deterministic leader election: the lowest AP id wins."""
    if not ap_ids:
        raise ValueError("no APs to elect from")
    return min(ap_ids)


@dataclass
class AssociationRecord:
    """State the leader keeps per associated client."""

    client_id: int
    association_id: int
    #: Last known channel estimate per AP: ``ap_id -> (M, M)`` matrix in
    #: a narrowband deployment, ``ap_id -> (n_bins, M, M)`` per-subcarrier
    #: stack when sounding covers a wideband (OFDM) channel.
    channels: Dict[int, np.ndarray] = field(default_factory=dict)


class AssociationTable:
    """The leader AP's registry of associated clients.

    Association ids are small dense integers reused after disassociation,
    since they index the DATA+Poll metadata entries (Fig. 10).
    """

    def __init__(self):
        self._records: Dict[int, AssociationRecord] = {}
        self._free_ids: List[int] = []
        self._next_id = 0

    def associate(self, client_id: int) -> AssociationRecord:
        """Register a client; idempotent for already-associated clients."""
        if client_id in self._records:
            return self._records[client_id]
        if self._free_ids:
            assoc_id = self._free_ids.pop(0)
        else:
            assoc_id = self._next_id
            self._next_id += 1
        record = AssociationRecord(client_id=client_id, association_id=assoc_id)
        self._records[client_id] = record
        return record

    def disassociate(self, client_id: int) -> None:
        record = self._records.pop(client_id, None)
        if record is None:
            raise KeyError(f"client {client_id} is not associated")
        self._free_ids.append(record.association_id)
        self._free_ids.sort()

    def record(self, client_id: int) -> AssociationRecord:
        return self._records[client_id]

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def clients(self) -> List[int]:
        return sorted(self._records)


@dataclass
class ChannelUpdate:
    """A subordinate AP's channel-change report to the leader.

    ``h`` is the tracked estimate: a flat ``(M, M)`` matrix, or the full
    ``(n_bins, M, M)`` per-subcarrier stack in a wideband deployment —
    the annotation then carries every bin, so the §6c operating mode
    pays ``n_bins`` times the flat report on the Ethernet (accounted by
    :meth:`nbytes`, asserted in the WLAN overhead stats).
    """

    ap_id: int
    client_id: int
    h: np.ndarray

    def nbytes(self) -> int:
        """Annotation size: ids plus 8 bytes per complex entry."""
        return 4 + 8 * int(np.asarray(self.h).size)


class SubordinateAP:
    """A non-leader AP: tracks channels, reports significant drift.

    Wraps a :class:`~repro.phy.channel.estimation.ChannelTracker`; every
    overheard ack/data frame refreshes the estimate and a report is
    emitted only when the smoothed estimate moved by more than the
    threshold -- keeping the Ethernet annotation traffic small.

    Estimates may be flat matrices or per-subcarrier ``(n_bins, M, M)``
    stacks (wideband sounding): smoothing is elementwise and the drift
    norm spans the whole band, so one report refreshes every bin at
    once — per-bin staleness ages together, exactly like the flat case.
    """

    def __init__(self, ap_id: int, drift_threshold: float = 0.1):
        self.ap_id = ap_id
        self._tracker = ChannelTracker(drift_threshold=drift_threshold)

    def observe(self, client_id: int, h_estimate: np.ndarray) -> Optional[ChannelUpdate]:
        """Fold in a fresh estimate; return a report if drift is large."""
        drifted = self._tracker.update(client_id, h_estimate)
        if not drifted:
            return None
        return ChannelUpdate(
            ap_id=self.ap_id, client_id=client_id, h=self._tracker.get(client_id)
        )

    def associate(
        self, client_ids: Sequence[int], h_estimates: Sequence[np.ndarray]
    ) -> None:
        """Start tracking newly associated clients from their §8a soundings.

        The leader registers the same soundings itself, so unlike a first
        :meth:`observe` this emits no report.  Each client must be
        untracked: it never associated, or :meth:`forget` dropped it.
        """
        self._tracker.store(client_ids, h_estimates)

    def channel_to(self, client_id: int) -> np.ndarray:
        return self._tracker.get(client_id)

    def forget(self, client_id: int) -> None:
        """Drop the client's tracked estimate (it disassociated), so a
        later re-association starts from the fresh sounding rather than
        blending it with pre-departure state."""
        self._tracker.forget(client_id)


class LeaderAP:
    """The leader: association registry plus the global channel map.

    The concurrency algorithm reads :meth:`channel_map` to build the
    :class:`~repro.core.plans.ChannelSet` for each candidate group.
    """

    def __init__(
        self,
        ap_id: int,
        ap_ids: Sequence[int],
        csi_guard: Optional[float] = None,
    ):
        if ap_id != elect_leader(ap_ids):
            raise ValueError(f"AP {ap_id} is not the elected leader of {sorted(ap_ids)}")
        self.ap_id = ap_id
        self.ap_ids = sorted(ap_ids)
        self.table = AssociationTable()
        self.update_bytes = 0
        #: Corrupt-CSI guard: reject a drift report whose relative
        #: Frobenius change versus the believed estimate exceeds this
        #: (or that carries non-finite entries), and quarantine the
        #: client until a plausible report arrives.  ``None`` (default)
        #: trusts every report — the pre-fault behaviour, bit for bit.
        self.csi_guard = csi_guard
        #: Per-client channel-map version, bumped on association and on
        #: every applied drift report.  The group-evaluation engine
        #: (:mod:`repro.engine`) keys its memoised solutions on these.
        self._channel_versions: Dict[int, int] = {}
        #: Bumped alongside *every* per-client version bump.  The engine's
        #: evaluators check this one counter to revalidate memoised group
        #: solutions without polling every member's version each probe —
        #: epoch unchanged implies no version changed, so the hit/miss
        #: decisions (and therefore the simulated trajectory) are
        #: identical to comparing version tuples.
        self.version_epoch = 0
        self._quarantined: set = set()

    def handle_associations(
        self,
        client_ids: Sequence[int],
        ap_ids: Sequence[int],
        soundings: Sequence[Sequence[np.ndarray]],
    ) -> None:
        """Register a §8a sounding pass heard by all APs: ``soundings[i][j]``
        is ``ap_ids[j]``'s estimate of ``client_ids[i]``.

        One check that the pass covers every AP with one estimate per
        (client, AP); then, per client in order, its record and
        estimates, and a version and epoch bump.  A pass that fails the
        check registers nobody.
        """
        missing = set(self.ap_ids) - set(ap_ids)
        if missing:
            raise ValueError(f"association must carry estimates from all APs; missing {sorted(missing)}")
        if len(soundings) != len(client_ids) or any(
            len(heard) != len(ap_ids) for heard in soundings
        ):
            raise ValueError("a sounding pass needs one estimate per (client, AP)")
        versions = self._channel_versions
        for client_id, heard in zip(client_ids, soundings):
            self.table.associate(client_id).channels.update(
                zip(ap_ids, [np.asarray(h, dtype=complex) for h in heard])
            )
            # A fresh association is a full re-sounding (§8a): any CSI
            # quarantine from a previous life of this client id is moot.
            self._quarantined.discard(client_id)
            versions[client_id] = versions.get(client_id, 0) + 1
            self.version_epoch += 1

    def handle_disassociation(self, client_id: int) -> None:
        """Deregister a departing client (churn).

        The association id returns to the free pool and the client's
        channel-map version is bumped, so any group solution memoised by
        the engine for a group containing this client is invalidated —
        a later re-association re-sounds the channels (§8a) rather than
        resurrecting stale state.
        """
        self.table.disassociate(client_id)
        self._quarantined.discard(client_id)
        self._channel_versions[client_id] = (
            self._channel_versions.get(client_id, 0) + 1
        )
        self.version_epoch += 1

    def _plausible(self, update: ChannelUpdate) -> bool:
        """Whether a report passes the corrupt-CSI guard.

        Non-finite entries are always implausible.  Otherwise the report
        must not move the believed estimate by more than ``csi_guard``
        times its Frobenius norm — honest Gauss-Markov drift between two
        acks is a small fraction of the channel magnitude, while wire
        corruption (``csi_corrupt_sigma`` ≫ 1) lands far outside it.  A
        first report (no prior estimate from this AP) is trusted.
        """
        h = np.asarray(update.h)
        if not np.all(np.isfinite(h)):
            return False
        prev = self.table.record(update.client_id).channels.get(update.ap_id)
        if prev is None:
            return True
        prev = np.asarray(prev)
        reference = float(np.linalg.norm(prev))
        if reference == 0.0:
            return True
        return float(np.linalg.norm(h - prev)) <= self.csi_guard * reference

    def handle_update(self, update: ChannelUpdate) -> bool:
        """Apply a subordinate's drift report; account its bytes.

        Returns whether the report was accepted.  With ``csi_guard``
        set, an implausible report is *rejected*: the believed channel
        map and its version stay untouched (the engine keeps using the
        last good estimate) and the client is quarantined — the WLAN
        layer keeps it out of aligned groups until a plausible report
        clears it.  Bytes are accounted either way: the wire carried the
        annotation whether or not the leader believes it.
        """
        if update.client_id not in self.table:
            raise KeyError(f"update for unassociated client {update.client_id}")
        self.update_bytes += update.nbytes()
        if self.csi_guard is not None and not self._plausible(update):
            self._quarantined.add(update.client_id)
            return False
        self.table.record(update.client_id).channels[update.ap_id] = update.h
        self._quarantined.discard(update.client_id)
        self._channel_versions[update.client_id] = (
            self._channel_versions.get(update.client_id, 0) + 1
        )
        self.version_epoch += 1
        return True

    def is_quarantined(self, client_id: int) -> bool:
        """Whether the client's CSI is currently distrusted."""
        return client_id in self._quarantined

    def quarantined_clients(self) -> List[int]:
        """Clients under CSI quarantine, in id order."""
        return sorted(self._quarantined)

    def channel_map(self, client_id: int) -> Dict[int, np.ndarray]:
        return dict(self.table.record(client_id).channels)

    def channel_version(self, client_id: int) -> int:
        """Version counter of the client's believed channel map.

        Changes exactly when :meth:`handle_associations` or
        :meth:`handle_update` touches the client's channels, which makes it
        the engine's memoisation key (see :mod:`repro.engine`).
        """
        return self._channel_versions.get(client_id, 0)
