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
reports.  Its
:meth:`~BatchedGroupEvaluator.plan` / :meth:`~BatchedGroupEvaluator.install`
split lets the columnar slot path pool the solves of many cells into one
call.

The pre-engine scalar path (one
:func:`~repro.core.alignment.solve_downlink_three_packets` +
:func:`~repro.core.decoder.decode_rate_level` per probe) survives only as
the test suite's oracle, ``tests/reference/evaluator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

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


class Plan(NamedTuple):
    """The solve a probe needs (:meth:`BatchedGroupEvaluator.plan`)."""

    #: The distinct groups to solve, in probe order.
    groups: Sequence[Group]
    #: Their channel-map version keys.
    versions: List[Tuple[int, ...]]
    #: ``(G, 3, B, 3, M, M)`` client-major believed rows from the mirror:
    #: ``band[g, j, b, i]`` is bin ``b`` from ``aps[i]`` to client ``j``.
    band: np.ndarray
    #: The bins of ``band`` the solver gets: all of them, or the anchor
    #: bin alone (``(G, 3, 1, 3, M, M)``, flat-anchor mode).
    rows: np.ndarray


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

    The believed channels are mirrored in one ``(capacity, B, 3, M, M)``
    ndarray indexed by a per-client row (a flat source is ``B = 1``); a
    row is refreshed **only** when the client's channel-map version
    changed since the last sync (a drift report touches exactly one
    row).  Stacking a probe's candidate groups is then one fancy-index
    gather, and the gathered values are byte-for-byte the leader's
    believed matrices.  Every bin of every group is one row of the same
    solver batch (:func:`solver_rows`), so a band solves in the call
    that solves a flat probe, and a one-bin band *is* the flat probe.

    The solve is split into :meth:`plan` (the groups a probe would
    solve, gathered) and :meth:`install` (cache the solver's outputs), so
    a driver can pool the plans of many evaluators into one solver call
    (:func:`repro.sim.columnar.solve_wave`).

    The order of a group's clients encodes the AP assignment: packet ``i``
    goes from ``aps[i]`` to ``group[i]``.  Groups with fewer than three
    clients cannot align and score 0.0 (the selector still transmits them,
    the solver just has nothing to batch).

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
        #: Groups installed ahead of the probe that scores them (a pooled
        #: solve across cells); that probe counts them as misses, so the
        #: counters read as if this evaluator had solved them itself.
        self._presolved: set = set()
        self._rows: Dict[int, int] = {}
        self._bel: np.ndarray | None = None  # (capacity, B, 3, M, M) mirror
        self._bel_versions: np.ndarray | None = None  # (capacity,) int64
        #: Source ``version_epoch`` at which each row was last confirmed
        #: fresh (-1 = never): lets :meth:`_sync` skip even the per-client
        #: version poll while the leader's table is globally unchanged.
        self._row_epochs: np.ndarray | None = None  # (capacity,) int64

    def cache_info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def _lookup(self, group: Group) -> "_CacheEntry | None":
        """Cached entry for ``group`` if still current, else ``None``.

        Fast path: when the source exposes a global ``version_epoch`` and
        it hasn't moved since this entry was last validated, no client's
        version can have changed, so the per-member version poll is
        skipped — the hit/miss decision is identical either way.
        """
        entry = self._cache.get(group)
        if entry is None:
            return None
        epoch = getattr(self.source, "version_epoch", None)
        if epoch is not None and entry.validated_epoch == epoch:
            return entry
        versions = tuple(self.source.channel_version(c) for c in group)
        if entry.versions == versions:
            if epoch is not None:
                entry.validated_epoch = epoch
            return entry
        return None

    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        groups = [tuple(g) for g in groups]
        rates: List[float] = [0.0] * len(groups)
        missing: List[Group] = []
        missing_idx: List[List[int]] = []
        position: Dict[Group, int] = {}
        # Inline of :meth:`_lookup` with the epoch and the version
        # accessor hoisted out of the loop (this runs on every probe).
        # Decisions are identical.
        cache_get = self._cache.get
        epoch = getattr(self.source, "version_epoch", None)
        channel_version = self.source.channel_version
        for i, group in enumerate(groups):
            if len(group) < GROUP_SIZE:
                continue
            if len(group) > GROUP_SIZE:
                raise ValueError(f"group {group} exceeds {GROUP_SIZE} clients")
            entry = cache_get(group)
            if entry is not None:
                if epoch is not None and entry.validated_epoch == epoch:
                    rates[i] = entry.rate
                    self.hits += 1
                    continue
                if entry.versions == tuple(channel_version(c) for c in group):
                    if epoch is not None:
                        entry.validated_epoch = epoch
                    rates[i] = entry.rate
                    self.hits += 1
                    continue
            self.misses += 1
            if group in position:  # duplicate within this probe
                missing_idx[position[group]].append(i)
            else:
                position[group] = len(missing)
                missing.append(group)
                missing_idx.append([i])
        if missing:
            self._solve_batch(missing)
            for group, idxs in zip(missing, missing_idx):
                rate = self._cache[group].rate
                for i in idxs:
                    rates[i] = rate
        if self._presolved:
            # Each occurrence was counted as a hit above; alone, it would
            # have been a miss.
            n = sum(group in self._presolved for group in groups)
            self.hits -= n
            self.misses += n
            self._presolved.clear()
        return rates

    def _solve_batch(self, groups: Sequence[Group]) -> None:
        plan = self._plan(groups)
        self.install(plan, solve_downlink_three_batch(
            solver_rows(plan.rows), self.noise_power, return_filters=True
        ))

    def _cached_entry(self, group: Group) -> _CacheEntry:
        if len(group) != GROUP_SIZE:
            raise ValueError(f"group {group} does not have {GROUP_SIZE} clients")
        entry = self._lookup(group)
        if entry is None:
            self.misses += 1
            self._solve_batch([group])
            return self._cache[group]
        self.hits += 1
        return entry

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
        filters (the selector just scored this group) and designs only
        the genie filters, in one vectorised pass over bins and
        receivers — see
        :func:`repro.engine.batched.downlink_transmit_sinrs_cached`.
        """
        entry = self._cached_entry(tuple(group))
        return downlink_transmit_sinrs_cached(
            h_true, entry.encodings, entry.w_bel, self.noise_power
        )

    def transmit_filters(self, group: Group) -> Tuple[np.ndarray, np.ndarray]:
        """The memoised ``(B, 3, M)`` encodings and believed-design filters.

        What a transmit decode of ``group`` needs from the solve (the
        selector just scored it, so this is a cache hit).  The columnar
        slot path gathers the true channels itself and decodes every
        aligned slot of a run in one
        :func:`~repro.engine.batched.downlink_transmit_sinrs_cached` call
        (:func:`repro.sim.columnar.transmit_wave`).
        """
        entry = self._cached_entry(tuple(group))
        return entry.encodings, entry.w_bel

    # -------------------------- mirror plumbing ----------------------- #

    def _grow(self, row: int, cmap: Mapping[int, np.ndarray]) -> None:
        """Make room for ``row`` (capacity 8, doubling as clients join)."""
        if self._bel is None:
            h = np.asarray(next(iter(cmap.values())))
            n_bins = h.shape[0] if h.ndim == 3 else 1
            m = h.shape[-1]
            self._bel = np.zeros((0, n_bins, len(self.aps), m, m), dtype=complex)
            self._bel_versions = np.zeros(0, dtype=np.int64)
            self._row_epochs = np.zeros(0, dtype=np.int64)
        n = self._bel.shape[0]
        if row >= n:
            pad = max(8, 2 * n, row + 1) - n
            self._bel = np.concatenate(
                [self._bel, np.zeros((pad,) + self._bel.shape[1:], dtype=complex)]
            )
            self._bel_versions = np.append(self._bel_versions, np.full(pad, -1))
            self._row_epochs = np.append(self._row_epochs, np.full(pad, -1))

    def _sync(self, client: int) -> int:
        """Row of ``client`` in the mirror, refreshed iff its version moved."""
        row = self._rows.get(client)
        epoch = getattr(self.source, "version_epoch", None)
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
        for i, ap in enumerate(self.aps):
            # A flat (M, M) matrix broadcasts over the one bin.
            self._bel[row, :, i] = cmap[ap]
        self._bel_versions[row] = version
        if epoch is not None:
            self._row_epochs[row] = epoch
        return row

    def _plan(self, groups: Sequence[Group]) -> Plan:
        """Gather ``groups``' believed rows and version keys.

        Sync each distinct client once, in first-appearance order:
        ``_sync`` is idempotent between source mutations, so this is
        observationally identical to calling it per (group, member).
        """
        sync = self._sync
        memo = {c: sync(c) for c in dict.fromkeys(c for g in groups for c in g)}
        rows = np.array([[memo[c] for c in g] for g in groups])
        versions = [tuple(v) for v in self._bel_versions[rows].tolist()]
        band = self._bel[rows]
        n_bins = band.shape[2]
        if self.alignment == "flat_anchor" and n_bins > 1:
            anchor = n_bins // 2
            return Plan(groups, versions, band, band[:, :, anchor:anchor + 1])
        return Plan(groups, versions, band, band)

    # ------------------------- plan / install ------------------------- #

    def plan(self, groups: Sequence[Group]) -> "Plan | None":
        """The solve a probe of ``groups`` needs, or ``None`` if it needs none.

        The :class:`Plan` of the distinct groups :meth:`evaluate_many`
        would solve (in its order).  Nothing is counted.  A driver stacks
        the ``rows`` of many evaluators' plans into one
        :func:`~repro.engine.batched.solve_downlink_three_batch` call (the
        solver is batch-invariant, so each group's outputs do not depend
        on its batch-mates), then hands each slice to :meth:`install`.
        """
        missing: List[Group] = []
        for group in dict.fromkeys(tuple(g) for g in groups):
            if len(group) == GROUP_SIZE and self._lookup(group) is None:
                missing.append(group)
        if not missing:
            return None
        return self._plan(missing)

    def install(
        self,
        plan: Plan,
        solved: Sequence[np.ndarray],
        presolved: bool = False,
    ) -> None:
        """Cache the solver outputs ``solved`` of ``plan.rows``.

        ``solved`` is the ``(encodings, rates, sinrs, filters)`` of
        :func:`~repro.engine.batched.solve_downlink_three_batch` with
        ``return_filters=True``, one row per (group, solved bin).  A
        flat-anchor plan's anchor solutions are scored here on every bin
        of the band.  The group's rate is its per-bin sum rate averaged
        over the band (b/s/Hz, comparable across bin counts).
        ``presolved`` marks groups installed ahead of the probe that
        scores them, so that probe counts them as misses.
        """
        encodings, rates, sinrs, w_bel = solved
        n_groups, _, n_bins = plan.band.shape[:3]
        m = encodings.shape[-1]
        if plan.rows is not plan.band:
            # Flat anchor: the anchor's encodings, scored on every bin.
            encodings = np.repeat(encodings, n_bins, axis=0)
            sinrs, w_bel = downlink_sinrs_batch(
                solver_rows(plan.band), encodings, self.noise_power,
                return_filters=True,
            )
            rates = np.log2(1.0 + sinrs).sum(axis=-1)
        encodings = encodings.reshape(n_groups, n_bins, GROUP_SIZE, m)
        sinrs = sinrs.reshape(n_groups, n_bins, GROUP_SIZE)
        w_bel = w_bel.reshape(n_groups, n_bins, GROUP_SIZE, m)
        if n_bins > 1:  # a one-bin mean is the bin's rate itself
            rates = rates.reshape(n_groups, n_bins).mean(axis=-1)
        epoch = getattr(self.source, "version_epoch", -1)
        for g, group in enumerate(plan.groups):
            self._cache[group] = _CacheEntry(
                versions=plan.versions[g],
                rate=float(rates[g]),
                encodings=encodings[g],
                sinrs=sinrs[g],
                w_bel=w_bel[g],
                validated_epoch=epoch,
            )
        if presolved:
            self._presolved.update(plan.groups)
