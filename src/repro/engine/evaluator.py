"""The memoised batched group evaluator behind the §7.2 concurrency algorithm.

:class:`BatchedGroupEvaluator` scores candidate transmission groups
against the leader's *believed* channels — the quantity the concurrency
selectors of :mod:`repro.mac.concurrency` maximise — and gives the
per-packet SINRs of the group that actually transmits.  It is the
evaluator of both WLAN engines, on flat and wideband channels alike: it
gathers all not-yet-cached groups of a probe from a believed-channel
mirror into one ndarray batch (:mod:`repro.engine.batched`) and
memoises per-group solutions keyed on the channel-map versions of the
group's clients, so unchanged groups are never re-solved between drift
reports.

A probe walks the memo once, in :meth:`~BatchedGroupEvaluator.plan`,
where its hits and misses are counted; the scoring and the winner's
transmit read its :class:`Probe` record.  The plan/install split lets
the columnar slot path pool the solves of many cells into one call.

The pre-engine scalar path (one
:func:`~repro.core.alignment.solve_downlink_three_packets` +
:func:`~repro.core.decoder.decode_rate_level` per probe) survives only as
the test suite's oracle, ``tests/reference/evaluator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

# Not called here: the name stays importable from this module because the
# end-to-end benchmark's tracer patches it as a solve site.
from repro.core.alignment import solve_downlink_three_packets  # noqa: F401
from repro.engine.batched import (
    GROUP_SIZE,
    downlink_sinrs_batch,
    downlink_transmit_sinrs_cached,
    solve_downlink_three_batch,
)

Group = Tuple[int, ...]

#: How a wideband (banded) evaluator aligns across the subcarrier grid:
#: ``"per_subcarrier"`` solves every bin independently (the §6c
#: conjecture's operating mode); ``"flat_anchor"`` solves once at the
#: band-centre bin and reuses those encoding vectors band-wide (the
#: paper's baseline worry — alignment decays as the band decorrelates).
#: Receivers always decode each bin against that bin's own channels.
ALIGNMENT_MODES = ("per_subcarrier", "flat_anchor")


@dataclass
class _CacheEntry:
    versions: Tuple[int, ...]
    rate: float
    #: Per-bin unit-norm encoding vectors, ``(B, 3, M)`` (a flat source
    #: is ``B = 1``; in flat-anchor mode every bin holds the anchor's).
    encodings: np.ndarray
    sinrs: np.ndarray  # (B, 3)
    #: Per-bin believed-design max-SINR receive filters ``(B, 3, M)`` of
    #: the cached encodings — reused by the transmit decode via
    #: :func:`~repro.engine.batched.downlink_transmit_sinrs_cached` so it
    #: skips redesigning them.
    w_bel: np.ndarray
    #: Source ``version_epoch`` at which ``versions`` was last confirmed
    #: current (``-1`` when the source has no epoch counter).  Epoch
    #: unchanged implies *no* client's version changed, so revalidation
    #: can skip polling every member — same hit/miss decisions, cheaper.
    validated_epoch: int = -1


class Probe:
    """One probe's memo walk (:meth:`BatchedGroupEvaluator.plan`).

    ``groups`` are the candidates in probe order; ``entries`` maps each
    distinct full one to its live cache entry, or to ``None`` while it
    waits in ``missing`` for its solve.  ``versions``, ``band`` and
    ``rows`` are the missing groups' version keys and believed rows:
    ``band`` is the ``(G, 3, B, 3, M, M)`` client-major gather
    (``band[g, j, b, i]`` is bin ``b`` from ``aps[i]`` to client ``j``)
    and ``rows`` the bins the solver gets (all of them, or the anchor bin
    alone in flat-anchor mode).  :meth:`~BatchedGroupEvaluator.install`
    fills the entries in and drops both arrays.  ``epoch`` is the
    source's ``version_epoch`` at the walk (``None`` without one), and
    ``scored`` whether :meth:`~BatchedGroupEvaluator.evaluate_many` has
    read the rates.
    """

    __slots__ = ("groups", "entries", "missing", "versions", "band", "rows",
                 "epoch", "scored")

    def __init__(self, groups, entries, missing, epoch):
        self.groups: Tuple[Group, ...] = groups
        self.entries: Dict[Group, "_CacheEntry | None"] = entries
        self.missing: List[Group] = missing
        self.versions: List[Tuple[int, ...]] = []
        self.band = self.rows = None
        self.epoch = epoch
        self.scored = False


def solver_rows(rows: np.ndarray) -> np.ndarray:
    """Client-major ``(G, 3, B, 3, M, M)`` rows in the solver's
    ``(G·B, 3, 3, M, M)`` layout (``h[g·B + b, i, j]``: AP ``i`` to client
    ``j``); a view for ``B = 1``.  The solver's gufuncs buffer per slice,
    so a view is fine."""
    g, _, b = rows.shape[:3]
    return rows.transpose(0, 2, 3, 1, 4, 5).reshape(
        (g * b, rows.shape[3], rows.shape[1]) + rows.shape[4:]
    )


class BatchedGroupEvaluator:
    """Batched + memoised evaluation of candidate downlink groups.

    All groups of one :meth:`evaluate_many` probe that are not already
    cached are solved in a single stacked ``np.linalg`` pass.  Cache key:
    the ordered client tuple; cache validity: the tuple of the clients'
    channel-map versions at solve time.  A drift report bumps one client's
    version and thereby invalidates exactly the cached groups containing
    that client — everything else stays warm across slots.

    A probe walks the memo once, in :meth:`plan`, which counts each full
    candidate occurrence as a hit (its entry is current) or a miss (a
    duplicate of a missing group is a miss again) and returns a
    :class:`Probe` record.  :meth:`install` fills it in from the solver's
    outputs, :meth:`evaluate_many` reads the rates from it, and the
    winner's transmit (:meth:`transmit_filters`) reads its encodings and
    filters from it as one more hit while the source's ``version_epoch``
    has not moved.  Only the latest record is kept, and only for its
    slot: the transmit drops it, and a slot that transmits no aligned
    group drops it with :meth:`release`.  A record taken before the
    epoch moved is never read; a group no probe scored (a FIFO or
    fallback pick) walks the memo alone.

    The believed channels are mirrored in one ``(capacity, B, 3, M, M)``
    ndarray indexed by a per-client row (a flat source is ``B = 1``); a
    row is refreshed **only** when the client's channel-map version
    changed since the last sync (a drift report touches exactly one
    row).  Stacking a probe's missing groups is then one gather,
    and the gathered values are byte-for-byte the leader's believed
    matrices.  Every bin of every group is one row of the same solver
    batch (:func:`solver_rows`), so a band solves in the call that
    solves a flat probe, and a one-bin band *is* the flat probe.

    A driver may pool many evaluators' solves: it stacks their records'
    ``rows`` into one solver call and hands each slice to :meth:`install`
    (:func:`repro.sim.columnar.solve_wave`).

    The order of a group's clients encodes the AP assignment: packet ``i``
    goes from ``aps[i]`` to ``group[i]``.  Groups with fewer than three
    clients cannot align and score 0.0 (the selector still transmits them,
    the solver just has nothing to batch); they are not counted.

    ``source`` is where believed channels and their versions come from:
    ``source.channel_map(client)`` returns ``{ap_id: (M, M) matrix}`` — or,
    for a wideband deployment whose sounding carries per-subcarrier
    estimates, ``{ap_id: (B, M, M) stack}`` (a flat matrix is the
    ``B = 1`` case) — and ``source.channel_version(client)`` a counter that
    changes whenever that client's map changes (the memoisation key).  An
    optional global ``source.version_epoch`` that moves on any change lets
    revalidation skip the per-client polls.  The leader AP
    (:class:`repro.mac.association.LeaderAP`) is the source in every
    simulation.
    """

    def __init__(
        self,
        source,
        aps: Sequence[int],
        noise_power: float = 1.0,
        alignment: str = "per_subcarrier",
    ):
        if len(aps) != GROUP_SIZE:
            raise ValueError(f"downlink groups use exactly {GROUP_SIZE} APs")
        if alignment not in ALIGNMENT_MODES:
            raise ValueError(
                f"unknown alignment mode {alignment!r} (expected one of {ALIGNMENT_MODES})"
            )
        self.source = source
        self.aps = tuple(aps)
        self.noise_power = float(noise_power)
        #: Wideband alignment strategy; irrelevant when the source is flat
        #: (one bin *is* its own anchor).
        self.alignment = alignment
        self._cache: Dict[Group, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        #: The latest probe's record (:class:`Probe`), until the winner's
        #: transmit reads it or :meth:`release` drops it.
        self._probe: "Probe | None" = None
        self._rows: Dict[int, int] = {}
        self._bel: np.ndarray | None = None  # (capacity, B, 3, M, M) mirror
        #: Per-row channel-map version the mirror row holds (-1 = empty).
        self._bel_versions: List[int] = []
        #: Source ``version_epoch`` at which each row was last confirmed
        #: fresh (-1 = never): lets :meth:`_sync` skip even the per-client
        #: version poll while the leader's table is globally unchanged.
        self._row_epochs: List[int] = []

    def cache_info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        """The rates of ``groups``: read from the record of their probe.

        When the latest record is an unscored probe of these groups taken
        at the source's current ``version_epoch`` (a driver planned and
        maybe solved it), its rates are read as they stand, solving first
        what is still missing; otherwise this runs the probe itself:
        :meth:`plan`, one solve of the missing groups, :meth:`install`.
        """
        groups = tuple(map(tuple, groups))
        probe = self._probe
        if not self._current(probe) or probe.scored or probe.groups != groups:
            probe = self.plan(groups)
        if probe.rows is not None:
            self.install(probe, solve_downlink_three_batch(
                solver_rows(probe.rows), self.noise_power, return_filters=True
            ))
        probe.scored = True
        entries = probe.entries
        return [
            entries[g].rate if len(g) == GROUP_SIZE else 0.0 for g in groups
        ]

    def evaluate(self, group: Group) -> float:
        return self.evaluate_many([tuple(group)])[0]

    def transmit_sinrs(
        self, group: Group, h_true: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bin, per-packet SINRs of transmitting ``group``.

        ``h_true`` is the ``(B, 3, 3, M, M)`` true band: ``h_true[b, i,
        j]`` is bin ``b`` from ``aps[i]`` to ``group[j]``.  Returns
        ``(actual, ideal)``, two ``(B, 3)`` arrays: receive filters
        designed from the believed channels vs. from the true ones (the
        genie bound), both measured against ``h_true``.  Packet ``i`` is
        decoded at client ``group[i]``.

        Uses the memoised per-bin encodings and believed-design receive
        filters (:meth:`transmit_filters`) and designs only the genie
        filters, in one vectorised pass over bins and receivers — see
        :func:`repro.engine.batched.downlink_transmit_sinrs_cached`.
        """
        encodings, w_bel = self.transmit_filters(group)
        return downlink_transmit_sinrs_cached(
            h_true, encodings, w_bel, self.noise_power
        )

    def transmit_filters(self, group: Group) -> Tuple[np.ndarray, np.ndarray]:
        """The memoised ``(B, 3, M)`` encodings and believed-design filters.

        What a transmit decode of ``group`` needs from the solve.  The
        winner of a current record reads them from it, one hit; any
        other group walks the memo alone, solving on a miss.  Either way
        the record is dropped.  The columnar slot path gathers the true
        channels itself and decodes every aligned slot of a run in one
        :func:`~repro.engine.batched.downlink_transmit_sinrs_cached` call
        (:func:`repro.sim.columnar.transmit_wave`).
        """
        group = tuple(group)
        if len(group) != GROUP_SIZE:
            raise ValueError(f"group {group} does not have {GROUP_SIZE} clients")
        probe, self._probe = self._probe, None
        entry = probe.entries.get(group) if self._current(probe) else None
        if entry is not None:
            self.hits += 1
        else:
            self.evaluate_many((group,))
            entry, self._probe = self._probe.entries[group], None
        return entry.encodings, entry.w_bel

    def release(self) -> None:
        """Drop the latest record: its slot transmits no aligned group."""
        self._probe = None

    def _current(self, probe: "Probe | None") -> bool:
        """Whether ``probe`` was walked at the source's current
        ``version_epoch`` (never, for a source without one)."""
        return probe is not None and probe.epoch is not None and (
            probe.epoch == getattr(self.source, "version_epoch", None)
        )

    # -------------------------- mirror plumbing ----------------------- #

    def _grow(self, row: int, cmap: Mapping[int, np.ndarray]) -> None:
        """Make room for ``row`` (capacity 8, doubling as clients join)."""
        if self._bel is None:
            h = np.asarray(next(iter(cmap.values())))
            n_bins = h.shape[0] if h.ndim == 3 else 1
            m = h.shape[-1]
            self._bel = np.zeros((0, n_bins, len(self.aps), m, m), dtype=complex)
        n = self._bel.shape[0]
        if row >= n:
            pad = max(8, 2 * n, row + 1) - n
            self._bel = np.concatenate(
                [self._bel, np.zeros((pad,) + self._bel.shape[1:], dtype=complex)]
            )
            self._bel_versions += [-1] * pad
            self._row_epochs += [-1] * pad

    def _sync(self, client: int, epoch: "int | None") -> int:
        """Row of ``client`` in the mirror, refreshed iff its version moved.

        ``epoch`` is the source's ``version_epoch`` (``None`` without one).
        """
        row = self._rows.get(client)
        if row is not None and epoch is not None and self._row_epochs[row] == epoch:
            # Global epoch unchanged since this row was confirmed fresh:
            # the client's version cannot have moved either.
            return row
        version = self.source.channel_version(client)
        if row is not None and self._bel_versions[row] == version:
            if epoch is not None:
                self._row_epochs[row] = epoch
            return row
        cmap = self.source.channel_map(client)
        if row is None:
            row = len(self._rows)
            self._rows[client] = row
            self._grow(row, cmap)
        h = [cmap[ap] for ap in self.aps]
        if h[0].ndim == 2:
            # The three AP-major ``(M, M)`` matrices into the one bin.
            self._bel[row, 0] = h
        else:
            # ``(3, B, M, M)`` bands swap to the row's ``(B, 3, M, M)``.
            self._bel[row] = np.array(h).swapaxes(0, 1)
        self._bel_versions[row] = version
        if epoch is not None:
            self._row_epochs[row] = epoch
        return row

    # ------------------------- plan / install ------------------------- #

    def plan(self, groups: Sequence[Group]) -> Probe:
        """Walk the memo for a probe of ``groups``; its :class:`Probe` record.

        The one memo walk of a probe, and where its hits and misses are
        counted.  The record becomes this evaluator's latest; its
        ``rows`` (``None`` if nothing is missing) are the solver input of
        the missing groups, which a driver may stack with other
        evaluators' into one
        :func:`~repro.engine.batched.solve_downlink_three_batch` call (the
        solver is batch-invariant, so each group's outputs do not depend
        on its batch-mates) before handing each slice to :meth:`install`.
        """
        groups = tuple(map(tuple, groups))
        entries: Dict[Group, "_CacheEntry | None"] = {}
        missing: List[Group] = []
        hits = misses = 0
        cache_get = self._cache.get
        epoch = getattr(self.source, "version_epoch", None)
        channel_version = self.source.channel_version
        for group in groups:
            if len(group) != GROUP_SIZE:
                if len(group) > GROUP_SIZE:
                    raise ValueError(f"group {group} exceeds {GROUP_SIZE} clients")
                continue
            if group in entries:  # a duplicate within this probe
                if entries[group] is None:
                    misses += 1
                else:
                    hits += 1
                continue
            entry = cache_get(group)
            if entry is not None and (
                (epoch is not None and entry.validated_epoch == epoch)
                or entry.versions == tuple([channel_version(c) for c in group])
            ):
                if epoch is not None:
                    entry.validated_epoch = epoch
                entries[group] = entry
                hits += 1
            else:
                entries[group] = None
                missing.append(group)
                misses += 1
        self.hits += hits
        self.misses += misses
        probe = self._probe = Probe(groups, entries, missing, epoch)
        if missing:
            # Sync each distinct client once, in first-appearance order:
            # ``_sync`` is idempotent between source mutations.
            sync = self._sync
            memo: Dict[int, int] = {}
            rows = []
            for group in missing:
                for c in group:
                    row = memo.get(c)
                    if row is None:
                        row = memo[c] = sync(c, epoch)
                    rows.append(row)
            versions = self._bel_versions
            # Each group's version key: consecutive triples of ``rows``.
            keys = iter([versions[r] for r in rows])
            probe.versions = list(zip(*[keys] * GROUP_SIZE))
            bel = self._bel
            band = probe.band = bel.take(rows, axis=0).reshape(
                (len(missing), GROUP_SIZE) + bel.shape[1:]
            )
            n_bins = band.shape[2]
            if self.alignment == "flat_anchor" and n_bins > 1:
                anchor = n_bins // 2
                probe.rows = band[:, :, anchor:anchor + 1]
            else:
                probe.rows = band
        return probe

    def install(self, probe: Probe, solved: Sequence[np.ndarray]) -> None:
        """Fill ``probe``'s missing entries from the solver outputs of its rows.

        ``solved`` is the ``(encodings, rates, sinrs, filters)`` of
        :func:`~repro.engine.batched.solve_downlink_three_batch` with
        ``return_filters=True``, one row per (group, solved bin).  A
        flat-anchor probe's anchor solutions are scored here on every bin
        of the band.  The group's rate is its per-bin sum rate averaged
        over the band (b/s/Hz, comparable across bin counts).  Each entry
        goes into the cache and into the record, whose rows are dropped.
        """
        encodings, rates, sinrs, w_bel = solved
        n_groups, _, n_bins = probe.band.shape[:3]
        m = encodings.shape[-1]
        if probe.rows is not probe.band:
            # Flat anchor: the anchor's encodings, scored on every bin.
            encodings = np.repeat(encodings, n_bins, axis=0)
            sinrs, w_bel = downlink_sinrs_batch(
                solver_rows(probe.band), encodings, self.noise_power,
                return_filters=True,
            )
            rates = np.log2(1.0 + sinrs).sum(axis=-1)
        encodings = encodings.reshape(n_groups, n_bins, GROUP_SIZE, m)
        sinrs = sinrs.reshape(n_groups, n_bins, GROUP_SIZE)
        w_bel = w_bel.reshape(n_groups, n_bins, GROUP_SIZE, m)
        if n_bins > 1:  # a one-bin mean is the bin's rate itself
            rates = rates.reshape(n_groups, n_bins).mean(axis=-1)
        epoch = getattr(self.source, "version_epoch", -1)
        cache, entries = self._cache, probe.entries
        for group, versions, rate, v, s, w in zip(
            probe.missing, probe.versions, rates.tolist(), encodings, sinrs, w_bel
        ):
            cache[group] = entries[group] = _CacheEntry(
                versions, rate, v, s, w, epoch
            )
        probe.band = probe.rows = None
