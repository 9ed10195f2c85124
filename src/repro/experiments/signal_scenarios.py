"""Signal-level scatter scenarios: sample-accurate sweeps as experiments.

The rate-level scatter scenarios (``fig12``/``fig13b``) compute achievable
rates from post-projection SINRs.  These scenarios instead push every trial
through the *sample-accurate* pipeline the paper's GNU-Radio prototype ran
(:func:`repro.core.run_session`): FEC-encode, modulate, superimpose, mix
through the channel with CFO and timing offsets, then synchronise, cancel,
phase-track, demodulate and CRC-check — the IAC rate comes from the
*measured* per-packet EVM SNRs of delivered packets (Eq. 9 over measured
SNRs, exactly how the paper's Figs. 12-14 were produced).  The 802.11
baseline stays the rate-level best-AP eigenmode link, as in the rate-level
trials, so gains are comparable across the two scenario families.
``fig12_signal`` trials also report ``iac_rate``, the rate-level
prediction for the same alignment solution, so its claims can check the
two paths against each other.

Registered here (imported by ``repro.experiments``):

============== ========================================================
name           experiment
============== ========================================================
fig12_signal   Fig. 12 at signal level: 3 concurrent uplink packets
               from 2 clients to 2 APs per trial
fig13b_signal  Fig. 13b at signal level: 3 concurrent downlink packets
               from 3 APs to 3 clients per trial
============== ========================================================

These sweeps only became practical when the pipeline was vectorized
(block phase tracking, batched Viterbi — see the ``signal`` case of
``BENCH.json``); the ``engine`` parameter still accepts ``"reference"``
to run a sweep on the scalar path for validation.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines.dot11_mimo import best_ap_link
from repro.core import (
    SignalConfig,
    decode_rate_level,
    run_session,
    solve_downlink_three_packets,
    solve_uplink_three_packets,
)
from repro.core.session import FEC_CODES, SIGNAL_ENGINES
from repro.experiments.registry import (
    Claim,
    TrialContext,
    over,
    paper_band,
    register_scenario,
    under,
)
from repro.experiments.scenarios import _format_scatter
from repro.phy.packet import Packet

#: Modest payload: large enough for meaningful BER statistics, small
#: enough that a thousand-trial sweep stays interactive.
DEFAULT_PAYLOAD_BYTES = 60

_SIGNAL_DEFAULTS = {
    "payload_bytes": DEFAULT_PAYLOAD_BYTES,
    "modulation": "bpsk",  # the prototype's scheme (§10b)
    "fec": "conv",
    "cfo_spread": 5e-5,
    "max_timing_offset": 16,
    "engine": "fast",
}

#: The signal knobs with a fixed vocabulary (modulation names are open:
#: ``ofdm-<inner>`` nests any scheme).
_SIGNAL_CHOICES = {"fec": FEC_CODES, "engine": SIGNAL_ENGINES}

#: The signal-vs-rate agreement run: 150-byte QPSK payloads, no CFO or
#: timing offsets, so the two paths differ only by decoding.
_AGREEMENT_RUN = {
    "payload_bytes": 150,
    "modulation": "qpsk",
    "cfo_spread": 0.0,
    "max_timing_offset": 0,
}


def _signal_config(ctx: TrialContext) -> SignalConfig:
    p = ctx.params
    return SignalConfig(
        modulation=p["modulation"],
        fec=p["fec"],
        noise_power=ctx.testbed.noise_power,
        cfo_spread=p["cfo_spread"],
        max_timing_offset=p["max_timing_offset"],
        engine=p["engine"],
    )


def _signal_metrics(report, dot11: float) -> Dict[str, float]:
    iac = report.total_rate
    return {
        "dot11": dot11,
        "iac": iac,
        "gain": iac / dot11 if dot11 > 0 else 0.0,
        "delivered": float(report.delivery_count),
        "n_packets": float(len(report.outcomes)),
    }


@register_scenario(
    "fig12_signal",
    figure="Fig. 12",
    description="2-client/2-AP uplink, sample-accurate",
    # The rate-level cross-check: 8 QPSK trials with unimpaired timing.
    claims=tuple(
        Claim(metric, paper, band, params=_AGREEMENT_RUN, trials=8, seed=88)
        for metric, paper, band in (
            ("iac/dot11", "1.5x", (over(1.0), np.inf)),
            ("iac_rate/dot11", "1.5x", paper_band(1.5)),
            # |signal - rate| / rate < 0.35, on the two paths' gains.
            ("iac/iac_rate", "agree", (over(0.65), under(1.35))),
            # int(0.8 * 24) = 19 of the 24 packets, per trial.
            ("delivered", "3", (19 / 8, np.inf)),
        )
    ),
    default_params={"n_clients": 2, "n_aps": 2, **_SIGNAL_DEFAULTS},
    optional={"fec": str},  # fec=null sends the payload uncoded
    choices=_SIGNAL_CHOICES,
    default_trials=25,
    tags=("scatter", "uplink", "signal"),
    formatter=_format_scatter,
)
def fig12_signal_trial(ctx: TrialContext) -> Dict[str, float]:
    """Fig. 12 through the sample-level pipeline.

    One alignment solution per trial (the first drawn client sends two
    packets); the rate-level scenario averages both orderings, which at
    signal level would double the per-trial cost for the same statistic
    in expectation.
    """
    n_clients, n_aps = ctx.params["n_clients"], ctx.params["n_aps"]
    nodes = ctx.testbed.pick_nodes(n_clients + n_aps, ctx.rng)
    clients, aps = nodes[:n_clients], nodes[n_clients:]
    noise = ctx.testbed.noise_power
    channels = ctx.testbed.channel_set(clients, aps)

    dot11 = float(
        np.mean(
            [
                best_ap_link(channels, c, aps, noise, direction="uplink").rate
                for c in clients
            ]
        )
    )
    solution = solve_uplink_three_packets(
        channels, clients=tuple(clients), aps=tuple(aps), rng=ctx.rng
    )
    payload_bytes = ctx.params["payload_bytes"]
    payloads = {
        p.packet_id: Packet.random(ctx.rng, payload_bytes, src=p.tx, seq=p.packet_id)
        for p in solution.packets
    }
    report = run_session(solution, channels, payloads, _signal_config(ctx), rng=ctx.rng)
    iac_rate = decode_rate_level(solution, channels, noise).total_rate
    return {**_signal_metrics(report, dot11), "iac_rate": iac_rate}


@register_scenario(
    "fig13b_signal",
    figure="Fig. 13b",
    description="3-client/3-AP downlink, sample-accurate "
    "(the rate level's 1.4x minus implementation loss)",
    default_params={"n_clients": 3, "n_aps": 3, **_SIGNAL_DEFAULTS},
    optional={"fec": str},
    choices=_SIGNAL_CHOICES,
    default_trials=25,
    tags=("scatter", "downlink", "signal"),
    formatter=_format_scatter,
)
def fig13b_signal_trial(ctx: TrialContext) -> Dict[str, float]:
    """Fig. 13b through the sample-level pipeline (AP i serves client i)."""
    n_clients, n_aps = ctx.params["n_clients"], ctx.params["n_aps"]
    nodes = ctx.testbed.pick_nodes(n_clients + n_aps, ctx.rng)
    clients, aps = nodes[:n_clients], nodes[n_clients:]
    noise = ctx.testbed.noise_power
    channels = ctx.testbed.channel_set(aps, clients)

    dot11 = float(
        np.mean(
            [
                best_ap_link(channels, c, aps, noise, direction="downlink").rate
                for c in clients
            ]
        )
    )
    solution = solve_downlink_three_packets(
        channels, aps=tuple(aps), clients=tuple(clients), rng=ctx.rng
    )
    payload_bytes = ctx.params["payload_bytes"]
    payloads = {
        p.packet_id: Packet.random(ctx.rng, payload_bytes, src=p.tx, seq=p.packet_id)
        for p in solution.packets
    }
    report = run_session(solution, channels, payloads, _signal_config(ctx), rng=ctx.rng)
    return _signal_metrics(report, dot11)


SIGNAL_SCENARIOS = ["fig12_signal", "fig13b_signal"]
