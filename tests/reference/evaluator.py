"""The scalar group evaluator: the oracle of the batched engine.

:class:`ScalarGroupEvaluator` is the pre-engine path: one
:func:`~repro.core.alignment.solve_downlink_three_packets` +
:func:`~repro.core.decoder.decode_rate_level` per probed group and
subcarrier, exactly what ``WLANSimulation`` inlined before
:mod:`repro.engine` existed.  It has the interface of
:class:`repro.engine.BatchedGroupEvaluator` that a simulation calls
(``evaluate_many``/``evaluate``/``transmit_sinrs``), so a test can swap
it into a ``reference``-engine simulation.  :class:`StaticChannelSource`
serves a frozen channel table to either evaluator.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.alignment import solve_downlink_three_packets
from repro.core.decoder import decode_rate_level
from repro.core.plans import AlignmentSolution, ChannelSet
from repro.engine import ALIGNMENT_MODES
from repro.engine.batched import GROUP_SIZE

Group = Tuple[int, ...]


class StaticChannelSource:
    """A frozen downlink channel table as an evaluator's channel source:
    a flat :class:`ChannelSet`, or a plain ``{(ap, client): (B, M, M)}``
    dict of per-subcarrier stacks."""

    def __init__(self, channels, aps: Sequence[int]):
        self._channels = channels
        self._aps = tuple(aps)

    def channel_map(self, client_id: int) -> Dict[int, np.ndarray]:
        if isinstance(self._channels, ChannelSet):
            return {ap: self._channels.h(ap, client_id) for ap in self._aps}
        return {ap: self._channels[(ap, client_id)] for ap in self._aps}

    def channel_version(self, client_id: int) -> int:
        return 0


def _bins(channels: Mapping[Tuple[int, int], np.ndarray]) -> List[ChannelSet]:
    """One flat :class:`ChannelSet` per subcarrier of a ``{pair: H}`` table
    (a flat ``(M, M)`` entry is a one-bin band)."""
    stacks = {
        pair: h if h.ndim == 3 else h[None]
        for pair, h in ((pair, np.asarray(h)) for pair, h in channels.items())
    }
    n_bins = next(iter(stacks.values())).shape[0]
    return [
        ChannelSet({pair: h[b] for pair, h in stacks.items()}) for b in range(n_bins)
    ]


class ScalarGroupEvaluator:
    """Re-solve every probe from scratch, one subcarrier at a time.

    Every evaluated subcarrier is its own flat problem — one
    :func:`solve_downlink_three_packets` + :func:`decode_rate_level` per
    bin (a flat source is one bin) — against which the batched engine is
    equivalence-tested.
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
            raise ValueError(f"unknown alignment mode {alignment!r}")
        self.source = source
        self.aps = tuple(aps)
        self.noise_power = float(noise_power)
        self.alignment = alignment

    def evaluate(self, group: Group) -> float:
        return self.evaluate_many([tuple(group)])[0]

    def release(self) -> None:
        """The end of a slot's probe: the oracle keeps no record to drop."""

    # ------------------------------------------------------------------ #

    def _believed(self, group: Group) -> List[ChannelSet]:
        """The per-bin believed channels of ``group``."""
        return _bins({
            (ap, c): h
            for c in group
            for ap, h in self.source.channel_map(c).items()
        })

    def _solve(self, group: Group, channels: ChannelSet) -> AlignmentSolution:
        return solve_downlink_three_packets(
            channels, aps=self.aps, clients=group, noise_power=self.noise_power
        )

    def _solutions(
        self, group: Group, believed: List[ChannelSet]
    ) -> List[AlignmentSolution]:
        """One alignment solution per bin (the anchor's, repeated, in
        flat-anchor mode)."""
        if self.alignment == "flat_anchor":
            return [self._solve(group, believed[len(believed) // 2])] * len(believed)
        return [self._solve(group, bin_channels) for bin_channels in believed]

    # ------------------------------------------------------------------ #

    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        rates = []
        for group in groups:
            group = tuple(group)
            if len(group) < GROUP_SIZE:
                rates.append(0.0)
                continue
            believed = self._believed(group)
            rates.append(float(np.mean([
                decode_rate_level(sol, bel, noise_power=self.noise_power).total_rate
                for sol, bel in zip(self._solutions(group, believed), believed)
            ])))
        return rates

    def transmit_sinrs(
        self, group: Group, h_true: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bin, per-packet ``(actual, ideal)`` SINRs of transmitting
        ``group`` over the ``(B, 3, 3, M, M)`` true band ``h_true``
        (``h_true[b, i, j]``: bin ``b`` from ``aps[i]`` to ``group[j]``).

        ``decode_rate_level`` twice per bin: receive filters designed from
        the believed channels vs. from the true ones (the genie bound),
        both measured against that bin's true channels.
        """
        group = tuple(group)
        believed = self._believed(group)
        true = _bins({
            (ap, c): h_true[:, i, j]
            for i, ap in enumerate(self.aps)
            for j, c in enumerate(group)
        })
        actual = np.empty((len(believed), GROUP_SIZE))
        ideal = np.empty((len(believed), GROUP_SIZE))
        for b, sol in enumerate(self._solutions(group, believed)):
            report = decode_rate_level(
                sol, true[b], self.noise_power, estimated_channels=believed[b]
            )
            genie = decode_rate_level(sol, true[b], self.noise_power)
            actual[b] = [r.sinr for r in report.results]
            ideal[b] = [r.sinr for r in genie.results]
        return actual, ideal
