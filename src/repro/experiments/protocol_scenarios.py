"""The paper's analytic claims as scenarios: Lemmas 5.1/5.2 and overhead.

``lemmas``
    Constructs the alignment solution of §5 for ``m`` antennas per node
    and checks Lemma 5.2 (uplink, 2M packets with 3 APs) or Lemma 5.1
    (downlink, max(2M-2, floor(3M/2)) packets): the packet count, every
    packet decodable at high SNR, and the multiplexing gain read off the
    rate-vs-SNR slope (C(SNR) = d log SNR + o(log SNR), §1.1).
``overhead``
    The protocol's byte accounting: the leader's DATA+Poll metadata
    against 1440-byte payloads (§7.1(e), statically and through a live
    PCF run), virtual MIMO's raw-sample Ethernet rate against IAC's
    decoded packets (§2(a)), and the wire bytes of a signal-level
    session and of a hub broadcast (§7.1(d)).
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

from repro.core import (
    ChannelSet,
    SignalConfig,
    run_session,
    solve_uplink_three_packets,
)
from repro.core.decoder import decode_rate_level
from repro.core.dof import downlink_max_packets, uplink_max_packets
from repro.core.general import solve_downlink_general, solve_uplink_general
from repro.experiments.registry import (
    Claim,
    TrialContext,
    get_scenario,
    over,
    register_scenario,
    under,
)
from repro.experiments.results import ExperimentResult
from repro.mac.concurrency import FifoGrouping
from repro.mac.frames import DataPollMetadata, GroupEntry
from repro.mac.pcf import PCFConfig, PCFCoordinator
from repro.mac.queueing import TransmissionQueue
from repro.net.ethernet import EthernetHub, HubFrame, virtual_mimo_sample_bytes
from repro.phy.channel.model import rayleigh_channel
from repro.phy.mimo.capacity import multiplexing_slope
from repro.phy.packet import Packet

# --------------------------------------------------------------------- #
# lemmas -- the multiplexing-gain table (§5)
# --------------------------------------------------------------------- #

_LEMMAS = {"uplink": uplink_max_packets, "downlink": downlink_max_packets}


def _lemma_solution(direction: str, m: int, rng: np.random.Generator):
    if direction == "uplink":
        clients, aps = list(range(3 if m == 2 else m)), [100, 101, 102]
        chans = ChannelSet(
            {(c, a): rayleigh_channel(m, m, rng) for c in clients for a in aps}
        )
        # Tight tolerance: residual leakage floors the post-projection SINR,
        # which would flatten the high-SNR slope measured below.
        solution = solve_uplink_general(
            chans, clients=clients, aps=aps, rng=rng,
            max_iterations=1500, tolerance=1e-12,
        )
        return solution, chans
    aps, clients = ([0, 1, 2], [10, 11, 12]) if m == 2 else (list(range(m - 1)), [10, 11])
    chans = ChannelSet(
        {(a, k): rayleigh_channel(m, m, rng) for a in aps for k in clients}
    )
    return solve_downlink_general(chans, aps=aps, clients=clients, rng=rng), chans


def _format_lemmas(result: ExperimentResult, quiet: bool = False) -> str:
    lines = [
        "Lemmas 5.1/5.2: concurrent packets vs antennas",
        "  M   uplink (2M)   downlink max(2M-2, floor(3M/2))",
    ]
    for m in range(2, 9):
        lines.append(f"  {m}   {uplink_max_packets(m):11d}   {downlink_max_packets(m):8d}")
    direction, m = result.params["direction"], result.params["m"]
    for r in result.records:
        metrics = r.metrics
        lines.append(
            f"  constructed {direction} M={m} (trial {r.index}): "
            f"{metrics['packets']:.0f} packets (lemma {_LEMMAS[direction](m)}), "
            f"DoF slope {metrics['dof_slope']:.2f}, "
            f"min SINR {metrics['min_sinr']:.3g} at 90 dB"
        )
    return "\n".join(lines)


def _lemma_claims(direction: str, m: int, seed: int):
    packets = _LEMMAS[direction](m)
    claim = functools.partial(
        Claim, params={"direction": direction, "m": m}, seed=seed
    )
    return (
        claim("packets", str(packets), (packets, packets)),
        claim("min_sinr", "decodable", (over(1e3), np.inf)),
        claim("dof_slope", str(packets), (over(packets - 1.0), np.inf)),
    )


@register_scenario(
    "lemmas",
    figure="Lemma 5.1/5.2",
    description="constructive multiplexing gain: packets, decodability, DoF slope",
    claims=tuple(
        claim
        for direction, ms, base_seed in (
            ("uplink", (2, 3, 4), 520),
            ("downlink", (2, 3, 4, 5), 510),
        )
        for m in ms
        for claim in _lemma_claims(direction, m, base_seed + m)
    ),
    default_params={"direction": "uplink", "m": 2},
    default_trials=1,
    tags=("analytic", "dof"),
    formatter=_format_lemmas,
    choices={"direction": _LEMMAS},
)
def lemmas_trial(ctx: TrialContext) -> Dict[str, float]:
    """One alignment construction for ``m`` antennas, checked three ways.

    Trial ``i`` draws its channels from ``default_rng(seed + i)``, not
    from ``ctx.rng``: a lemma run pins one construction per seed, so the
    ledger's claims name the exact constructions they check.
    """
    direction, m = ctx.params["direction"], ctx.params["m"]
    solution, chans = _lemma_solution(
        direction, m, np.random.default_rng(ctx.seed + ctx.index)
    )
    snrs_db = np.array([30.0, 40.0, 50.0])
    rates = [
        decode_rate_level(solution, chans, noise_power=10 ** (-s / 10)).total_rate
        for s in snrs_db
    ]
    return {
        "packets": float(len(solution.packets)),
        "min_sinr": decode_rate_level(solution, chans, noise_power=1e-9).min_sinr,
        "dof_slope": multiplexing_slope(snrs_db, rates),
    }


# --------------------------------------------------------------------- #
# overhead -- MAC metadata (§7.1(e)) and Ethernet traffic (§2(a), §7.1(d))
# --------------------------------------------------------------------- #

#: The §7.1(e) payload size, and the §7.1(d) per-packet comparison's.
_METADATA_PAYLOAD = 1440
_PACKET_BYTES = 1500


#: The leader's broadcast for one 3-client group of 2-antenna nodes.
_GROUP_METADATA = DataPollMetadata(
    frame_id=1,
    n_aps=3,
    entries=tuple(
        GroupEntry(client_id=i, ap_id=i, encoding=(0j, 0j), decoding=(0j, 0j))
        for i in range(3)
    ),
)


def _protocol_overhead() -> Dict[str, float]:
    """Metadata and all-control overhead of a 50-round, 9-client PCF run."""
    coord = PCFCoordinator(
        downlink=TransmissionQueue(),
        uplink=TransmissionQueue(),
        selector=FifoGrouping(group_size=3),
        evaluate=lambda group: float(len(group)),
        transmit=lambda direction, group: {cid: 20.0 for cid in group},
        config=PCFConfig(payload_bytes=_METADATA_PAYLOAD),
    )
    for _ in range(50):
        for c in range(9):
            coord.enqueue_downlink(c)
            coord.enqueue_uplink(c)
        coord.run_round()
    stats = coord.stats
    return {
        "protocol_metadata": stats.metadata_bytes / stats.payload_bytes_delivered,
        "control_overhead": stats.overhead_fraction(),
    }


def _session_wire_bytes(rng: np.random.Generator) -> Dict[str, float]:
    """Wire bytes of one signal-level 3-packet uplink session: only the
    decoded packets a later cancellation stage needs cross the hub."""
    chans = ChannelSet(
        {(c, a): rayleigh_channel(2, 2, rng) for c in (0, 1) for a in (0, 1)}
    )
    solution = solve_uplink_three_packets(chans, rng=rng)
    payloads = {i: Packet.random(rng, _PACKET_BYTES, src=i, seq=i) for i in range(3)}
    report = run_session(
        solution, chans, payloads, SignalConfig(noise_power=1e-4), rng=rng
    )
    return {
        "wire_to_wireless": report.ethernet_bytes / (3 * _PACKET_BYTES),
        "delivered": float(report.delivery_count),
    }


def _format_overhead(result: ExperimentResult, quiet: bool = False) -> str:
    meta = _GROUP_METADATA
    lines = [
        "overhead: MAC metadata (§7.1(e)) and Ethernet traffic (§2(a), §7.1(d))",
        f"  DATA+Poll metadata: {meta.nbytes()} bytes for 3 client-AP pairs",
    ]
    for payload in (100, 500, _METADATA_PAYLOAD, _PACKET_BYTES):
        lines.append(
            f"  @ {payload:4d}-byte payloads: {meta.metadata_overhead(payload) * 100:5.2f}%"
        )
    lines.append(f"  (paper: {get_scenario('overhead').paper} at 1440 bytes)")
    for r in result.records:
        m = r.metrics
        lines += [
            f"  PCF run: metadata {m['protocol_metadata'] * 100:.2f}%, "
            f"all control {m['control_overhead'] * 100:.2f}% of delivered payload",
            f"  virtual MIMO, 3 APs x 4 antennas: {m['virtual_mimo_gbps']:.1f} Gb/s "
            f"on the Ethernet; {m['vm_to_iac_bytes']:.0f}x IAC's bytes per packet",
            f"  IAC session: wire/wireless bytes {m['wire_to_wireless']:.2f}; "
            f"hub carries {m['hub_bytes']:.0f} bytes per {_PACKET_BYTES}-byte packet",
        ]
    return "\n".join(lines)


@register_scenario(
    "overhead",
    figure="§2(a)/§7.1",
    description="MAC metadata and Ethernet bytes: IAC vs virtual MIMO",
    claims=(
        Claim("metadata_overhead", "1-2%", (0.005, 0.025)),
        Claim("protocol_metadata", "1-2%", (-np.inf, under(0.025))),
        Claim("control_overhead", "few %", (-np.inf, under(0.06))),
        Claim("virtual_mimo_gbps", "6 Gb/s", (over(3.0), under(12.0))),
        Claim("vm_to_iac_bytes", ">>1", (over(20.0), np.inf)),
        Claim("wire_to_wireless", "<= ~1", (-np.inf, 1.0)),
        Claim("delivered", "3", (3.0, 3.0)),
        Claim("hub_bytes", "1500", (1500.0, 1500.0)),
    ),
    default_trials=1,
    tags=("analytic", "mac", "ethernet"),
    formatter=_format_overhead,
)
def overhead_trial(ctx: TrialContext) -> Dict[str, float]:
    """Every overhead figure; only the signal-level session draws randomness."""
    hub = EthernetHub()
    for port in range(6):
        hub.attach(port)
    hub.broadcast(HubFrame(src_port=0, payload_bytes=_PACKET_BYTES))
    # The paper's example: 3 APs, 4 antennas, 20 MHz -> 40 Msamples/s.
    per_second = virtual_mimo_sample_bytes(n_aps=3, n_antennas=4, n_samples=40_000_000)
    # One delivered 1500-byte BPSK packet (12000 samples), 2 APs x 2 antennas.
    per_packet = virtual_mimo_sample_bytes(n_aps=2, n_antennas=2, n_samples=12_000)
    return {
        "metadata_overhead": _GROUP_METADATA.metadata_overhead(_METADATA_PAYLOAD),
        **_protocol_overhead(),
        "virtual_mimo_gbps": per_second * 8 / 1e9,
        "vm_to_iac_bytes": per_packet / _PACKET_BYTES,
        **_session_wire_bytes(ctx.rng),
        "hub_bytes": float(hub.total_bytes),
    }
