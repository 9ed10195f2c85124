"""Per-figure experiment runners (paper §10).

Each function reproduces one evaluation experiment at the rate level (the
paper's metric is the achievable rate computed from measured SNRs, Eq. 9;
our rate-level decoder computes the same quantity from the post-projection
SINRs).  The sample-accurate pipeline is no longer too slow for sweeps:
since it was vectorized (block phase tracking, batched Viterbi — see the
``signal`` case of ``BENCH.json``) the registered
``fig12_signal``/``fig13b_signal`` scenarios
(:mod:`repro.experiments.signal_scenarios`) run thousand-trial
scatter experiments at the signal level; the rate-level runners here
remain the cheap analytic path the signal level is validated against.

Runners:

* :func:`uplink_2x2_trial` -- Fig. 12 (2 clients, 2 APs, 3 packets).
* :func:`uplink_3x3_trial` -- Fig. 13a (3 clients, 3 APs, 4 packets).
* :func:`downlink_3x3_trial` -- Fig. 13b (3 clients, 3 APs, 3 packets).
* :func:`diversity_trial` -- Fig. 14 (1 client, 2 APs).
* :func:`large_network_experiment` -- Fig. 15 (17 clients, 3 APs,
  concurrency algorithms, per-client gain CDFs).
* :func:`reciprocity_pair_trial` -- Fig. 16 (calibrated reciprocity error
  of one client-AP pair).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.dot11_mimo import best_ap_link, per_client_rates
from repro.core.alignment import (
    solve_downlink_three_packets,
    solve_uplink_four_packets,
    solve_uplink_three_packets,
)
from repro.core.decoder import decode_rate_level
from repro.core.plans import AlignmentSolution, ChannelSet, DecodeStage, PacketSpec
from repro.mac.concurrency import make_selector
from repro.mac.queueing import QueuedPacket, TransmissionQueue
from repro.phy.channel.model import rayleigh_channel
from repro.phy.channel.reciprocity import (
    ReciprocityCalibrator,
    fractional_error,
    observed_downlink,
    observed_uplink,
)
from repro.phy.mimo.eigenmode import eigenmode_link
from repro.sim.metrics import GainCDF, RatePair
from repro.sim.testbed import Testbed
from repro.utils.rng import default_rng

#: Every ``direction`` the testbed experiments accept.
DIRECTIONS: Tuple[str, ...] = ("uplink", "downlink")

# --------------------------------------------------------------------- #
# Scatter trials (Figs. 12-14)
# --------------------------------------------------------------------- #


def uplink_2x2_trial(testbed: Testbed, clients: Sequence[int], aps: Sequence[int], rng) -> RatePair:
    """One Fig.-12 point: 2 clients upload to 2 APs.

    802.11-MIMO: clients alternate on the medium, each at its best AP with
    two eigenmode streams.  IAC: three concurrent packets, alternating
    which client uploads two (§10.1); the reported rates average the two
    configurations.
    """
    rng = default_rng(rng)
    noise = testbed.noise_power
    channels = testbed.channel_set(clients, aps)

    dot11 = float(
        np.mean(
            [best_ap_link(channels, c, aps, noise, direction="uplink").rate for c in clients]
        )
    )

    iac_rates = []
    for first in range(2):
        ordered = (clients[first], clients[1 - first])
        solution = solve_uplink_three_packets(channels, clients=ordered, aps=tuple(aps), rng=rng)
        iac_rates.append(decode_rate_level(solution, channels, noise).total_rate)
    return RatePair(dot11=dot11, iac=float(np.mean(iac_rates)))


def uplink_3x3_trial(testbed: Testbed, clients: Sequence[int], aps: Sequence[int], rng) -> RatePair:
    """One Fig.-13a point: 3 clients upload 4 concurrent packets to 3 APs.

    "We choose the client that transmits the two packets in each timeslot
    in a round robin manner" -- the IAC rate averages the three rotations.
    """
    rng = default_rng(rng)
    noise = testbed.noise_power
    channels = testbed.channel_set(clients, aps)

    dot11 = float(
        np.mean(
            [best_ap_link(channels, c, aps, noise, direction="uplink").rate for c in clients]
        )
    )

    iac_rates = []
    for rotation in range(3):
        ordered = tuple(clients[(rotation + i) % 3] for i in range(3))
        solution = solve_uplink_four_packets(channels, clients=ordered, aps=tuple(aps), rng=rng)
        iac_rates.append(decode_rate_level(solution, channels, noise).total_rate)
    return RatePair(dot11=dot11, iac=float(np.mean(iac_rates)))


def downlink_3x3_trial(
    testbed: Testbed, clients: Sequence[int], aps: Sequence[int], rng
) -> RatePair:
    """One Fig.-13b point: 3 APs deliver 3 concurrent downlink packets.

    The AP-to-client assignment is fixed (AP i serves client i), matching
    the paper's §10.1 experiment where the concurrency algorithm is not in
    play -- assignment optimisation is studied separately in Fig. 15.
    """
    rng = default_rng(rng)
    noise = testbed.noise_power
    channels = testbed.channel_set(aps, clients)

    dot11 = float(
        np.mean(
            [best_ap_link(channels, c, aps, noise, direction="downlink").rate for c in clients]
        )
    )

    solution = solve_downlink_three_packets(
        channels, aps=tuple(aps), clients=tuple(clients), rng=rng
    )
    iac = decode_rate_level(solution, channels, noise).total_rate
    return RatePair(dot11=dot11, iac=iac)


def _split_downlink_solution(
    channels: ChannelSet, client: int, aps: Sequence[int]
) -> AlignmentSolution:
    """One packet from each of two APs to the same client (Fig.-14 option).

    Encoding vectors are each AP's dominant eigenmode toward the client;
    the 2-antenna client separates the two streams with its MMSE receiver.
    """
    a0, a1 = aps
    packets = [PacketSpec(0, a0, client), PacketSpec(1, a1, client)]
    encoding = {}
    for pid, ap in ((0, a0), (1, a1)):
        h = channels.h(ap, client)
        _, _, vh = np.linalg.svd(h)
        encoding[pid] = np.conj(vh[0])
    return AlignmentSolution(
        packets=packets,
        encoding=encoding,
        schedule=[DecodeStage(rx=client, packet_ids=(0, 1))],
        cooperative=False,
    )


def diversity_trial(
    testbed: Testbed, clients: Sequence[int], aps: Sequence[int], rng
) -> RatePair:
    """One Fig.-14 point: a single client downloads from 2 cooperating APs.

    802.11-MIMO picks the better AP (selection diversity).  IAC's leader
    additionally considers transmitting one packet from each AP and picks
    whichever option estimates best (§10.2): diversity across the four
    antennas of the two APs.

    ``clients`` holds the single active client, keeping the signature
    identical to the other scatter trials.
    """
    (client,) = clients
    rng = default_rng(rng)
    noise = testbed.noise_power
    channels = testbed.channel_set(aps, [client])

    per_ap = [
        eigenmode_link(channels.h(ap, client), noise, total_power=1.0).rate() for ap in aps
    ]
    dot11 = max(per_ap)

    split = _split_downlink_solution(channels, client, aps)
    split_rate = decode_rate_level(split, channels, noise).total_rate
    iac = max(max(per_ap), split_rate)
    return RatePair(dot11=dot11, iac=iac)


# --------------------------------------------------------------------- #
# Large-network concurrency experiment (Fig. 15)
# --------------------------------------------------------------------- #


class GroupRateCache:
    """Memoised group evaluation: ordered client tuple -> rates.

    The channels are static for a testbed, so each ordered group needs to
    be solved only once; this is what makes the brute-force selector
    tractable in simulation.
    """

    def __init__(
        self,
        testbed: Testbed,
        aps: Sequence[int],
        direction: str,
        rng,
    ):
        if direction not in DIRECTIONS:
            raise ValueError("direction must be 'uplink' or 'downlink'")
        self.testbed = testbed
        self.aps = tuple(aps)
        self.direction = direction
        self.rng = default_rng(rng)
        self._cache: Dict[Tuple[int, ...], Tuple[float, Dict[int, float]]] = {}

    def total_rate(self, group: Tuple[int, ...]) -> float:
        return self.evaluate(group)[0]

    def evaluate(self, group: Tuple[int, ...]) -> Tuple[float, Dict[int, float]]:
        """Return (total rate, per-client rate) for an ordered group."""
        group = tuple(group)
        if group in self._cache:
            return self._cache[group]
        noise = self.testbed.noise_power
        if len(group) < 3:
            # Degenerate group: single client served point-to-point.
            channels = (
                self.testbed.channel_set(group, self.aps)
                if self.direction == "uplink"
                else self.testbed.channel_set(self.aps, group)
            )
            rate = best_ap_link(
                channels, group[0], self.aps, noise, direction=self.direction
            ).rate
            out = (rate, {group[0]: rate})
            self._cache[group] = out
            return out

        if self.direction == "downlink":
            channels = self.testbed.channel_set(self.aps, group)
            solution = solve_downlink_three_packets(
                channels, aps=self.aps, clients=group, rng=self.rng
            )
            report = decode_rate_level(solution, channels, noise)
            per_client = {
                solution.packet(r.packet_id).rx: r.rate for r in report.results
            }
        else:
            channels = self.testbed.channel_set(group, self.aps)
            solution = solve_uplink_four_packets(
                channels, clients=group, aps=self.aps, rng=self.rng
            )
            report = decode_rate_level(solution, channels, noise)
            per_client: Dict[int, float] = {}
            for r in report.results:
                tx = solution.packet(r.packet_id).tx
                per_client[tx] = per_client.get(tx, 0.0) + r.rate
        out = (report.total_rate, per_client)
        self._cache[group] = out
        return out


def large_network_experiment(
    testbed: Testbed,
    algorithm: str,
    direction: str,
    n_slots: int = 1000,
    n_clients: int = 17,
    n_aps: int = 3,
    seed=0,
    group_size: int = 3,
) -> GainCDF:
    """Fig. 15: per-client gains of an IAC concurrency algorithm.

    Every client has infinite demand.  802.11-MIMO serves one client per
    slot round-robin at its best-AP eigenmode rate; IAC serves a
    transmission group per slot, chosen by ``algorithm`` ("brute", "fifo"
    or "best2").  The gain of a client is the ratio of its IAC average
    rate to its 802.11-MIMO average rate.
    """
    rng = default_rng(seed)
    nodes = testbed.pick_nodes(n_clients + n_aps, rng)
    aps, clients = nodes[:n_aps], nodes[n_aps:]

    channels = (
        testbed.channel_set(clients, aps)
        if direction == "uplink"
        else testbed.channel_set(aps, clients)
    )
    dot11 = per_client_rates(
        channels, clients, aps, testbed.noise_power, direction=direction
    )
    dot11_per_slot = {c: dot11[c] / n_clients for c in clients}

    cache = GroupRateCache(testbed, aps, direction, rng)
    selector = make_selector(algorithm, group_size=group_size, rng=rng)

    # Initial queue: one packet per client in random arrival order.
    order = list(rng.permutation(clients))
    queue = TransmissionQueue(
        QueuedPacket(client_id=c, seq=i) for i, c in enumerate(order)
    )
    seq = len(order)

    iac_totals = {c: 0.0 for c in clients}
    for _slot in range(n_slots):
        group = selector.select(queue, cache.total_rate)
        _, per_client = cache.evaluate(group)
        for cid in group:
            iac_totals[cid] += per_client.get(cid, 0.0)
            queue.pop_client(cid)
            seq += 1
            queue.push(QueuedPacket(client_id=cid, seq=seq))  # infinite demand

    gains = {
        c: (iac_totals[c] / n_slots) / dot11_per_slot[c] for c in clients
    }
    return GainCDF(gains=gains, label=f"{algorithm}/{direction}")


# --------------------------------------------------------------------- #
# Reciprocity experiment (Fig. 16)
# --------------------------------------------------------------------- #


def reciprocity_pair_trial(
    testbed: Testbed,
    client_node: int,
    ap_node: int,
    n_moves: int = 5,
    estimate_snr_db: float = 25.0,
    rng=None,
) -> float:
    """Fig.-16 measurement for one client-AP pair.

    Measure uplink and downlink channels once (with estimation noise),
    solve the calibration matrices (Eq. 8), then *move the client*
    (redraw the over-the-air channel) ``n_moves`` times; after each move
    the AP estimates the downlink channel from a fresh noisy uplink
    measurement.  Returns the pair's average fractional error against the
    true downlink channel.
    """
    rng = default_rng(rng)
    m = testbed.config.n_antennas
    estimate_noise = 10 ** (-estimate_snr_db / 20.0)

    def measure(h: np.ndarray) -> np.ndarray:
        """A noisy channel measurement at the configured estimation SNR."""
        scale = estimate_noise * np.sqrt(np.mean(np.abs(h) ** 2) / 2.0)
        return h + scale * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))

    client_hw = testbed.hardware[client_node]
    ap_hw = testbed.hardware[ap_node]

    h_air = testbed.channel(client_node, ap_node)
    calibrator = ReciprocityCalibrator()
    calibrator.calibrate(
        measure(observed_uplink(h_air, client_hw, ap_hw)),
        measure(observed_downlink(h_air, client_hw, ap_hw)),
    )

    pair_errors = []
    for _move in range(n_moves):
        # The client moved: fresh propagation, same hardware chains.
        h_air_new = rayleigh_channel(m, m, rng, gain=np.mean(np.abs(h_air) ** 2))
        h_up_measured = measure(observed_uplink(h_air_new, client_hw, ap_hw))
        h_down_true = observed_downlink(h_air_new, client_hw, ap_hw)
        h_down_predicted = calibrator.downlink_from_uplink(h_up_measured)
        pair_errors.append(fractional_error(h_down_true, h_down_predicted))
    return float(np.mean(pair_errors))


def sample_distinct_pairs(n_nodes: int, n_pairs: int, rng) -> List[Tuple[int, int]]:
    """Draw ``n_pairs`` distinct ordered node pairs without replacement."""
    total = n_nodes * (n_nodes - 1)
    if n_pairs > total:
        raise ValueError(f"only {total} ordered pairs exist among {n_nodes} nodes")
    rng = default_rng(rng)
    pairs = []
    for flat in rng.choice(total, size=n_pairs, replace=False):
        a, off = divmod(int(flat), n_nodes - 1)
        pairs.append((a, off + 1 if off >= a else off))
    return pairs

