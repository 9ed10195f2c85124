"""Wideband (per-subcarrier) scenarios: the §6c conjecture as workloads.

The paper conjectures (§6c) that on frequency-selective channels "one
can still do the alignment separately in each OFDM subcarrier without
trying to synchronize the transmitters" — and could not test it on
USRP1 hardware.  Two registered scenarios test it here, at two scales:

``ofdm_subcarrier``
    The isolated ablation: a 2-client/2-AP uplink over multi-tap
    channels, per-subcarrier alignment vs a single band-centre
    (flat-approximation) alignment, over a configurable delay spread.
    ``repro sweep ofdm_subcarrier --grid delay_spread=0,0.5,1,2,4``
    runs the ablation's sweep; the ledger (``repro check``) checks the
    moderate-spread point.
``fig_ofdm_dynamic``
    The Fig.-15 WLAN regime on a
    :class:`~repro.phy.channel.provider.WidebandFadingNetwork`: per-bin
    sounding/tracking/alignment through the full stack
    (:mod:`repro.sim.wlan` with ``channel="wideband"``), gains against a
    band-aware 802.11 round-robin baseline.  Sweeping
    ``delay_spread x alignment`` (and the mobility knobs) shows
    per-subcarrier alignment holding the IAC gain while the
    flat-anchor approximation decays with dispersion — §6c, end to end.

Both share the flat JSON-scalar parameter vocabulary of the dynamic
scenarios, so every knob is a ``repro sweep`` axis.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

from repro.baselines.dot11_mimo import per_client_rates
from repro.core.alignment import solve_uplink_three_packets
from repro.core.ofdm_alignment import conjecture_experiment
from repro.core.plans import ChannelSet
from repro.experiments.dynamic_scenarios import (
    _CLIENT_GAIN_PREFIX,
    _DYNAMIC_DEFAULTS,
    _dynamic_metrics,
    _sim_seed,
    build_wlan_config,
    canonical_dynamic_params,
)
from repro.experiments.registry import (
    Claim,
    TrialContext,
    over,
    register_scenario,
    under,
)
from repro.experiments.results import ExperimentResult
from repro.phy.channel.selective import MultiTapChannel, exponential_pdp
from repro.sim.wlan import WLAN_CHOICES, WLANSimulation


# --------------------------------------------------------------------- #
# ofdm_subcarrier — the §6c ablation on the registry
# --------------------------------------------------------------------- #


def _format_ofdm_subcarrier(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"ofdm_subcarrier (delay spread {p['delay_spread']} samples, "
        f"{p['n_bins']} of {p['n_fft']} bins):"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: per-subcarrier {m['per_subcarrier_rate']:.2f} "
            f"b/s/Hz, flat-approx {m['flat_rate']:.2f} "
            f"(ratio {m['flat_ratio']:.2f}), "
            f"coherence {m['coherence_bins']:.0f} bins"
        )
    if result.records:
        ratios = result.metric("flat_ratio")
        lines.append(
            f"  mean flat/per-subcarrier ratio: {ratios.mean():.2f} "
            "(1.0 = flat approximation costs nothing)"
        )
    return "\n".join(lines)


@register_scenario(
    "ofdm_subcarrier",
    figure="§6c",
    description="per-subcarrier vs band-wide alignment on selective channels",
    # §6c: "nearby subcarriers typically have similar frequency response".
    claims=(
        Claim("flat_ratio", "acceptable", (over(0.7), np.inf),
              params={"delay_spread": 0.5}, seed=68),
    ),
    default_params={
        "delay_spread": 1.0,
        "n_taps": 8,
        "n_fft": 64,
        "n_bins": 12,
        "n_antennas": 2,
        "noise_power": 1e-3,
        "n_candidates": 2,
    },
    default_trials=3,
    tags=("ofdm", "wideband", "ablation", "uplink"),
    formatter=_format_ofdm_subcarrier,
)
def ofdm_subcarrier_trial(ctx: TrialContext) -> Dict[str, float]:
    """One §6c ablation draw: both strategies over a fresh selective scene.

    Metrics: the band rates of both strategies (``per_subcarrier_rate``,
    ``flat_rate``, their ``flat_ratio``), the worst evaluated bin of each,
    and the channel's coherence bandwidth in bins — the quantity the
    conjecture's "nearby subcarriers" wording leans on.
    """
    p = ctx.params
    m = p["n_antennas"]
    pdp = exponential_pdp(p["n_taps"], p["delay_spread"])
    selective = {
        (c, a): MultiTapChannel.random(m, m, pdp, ctx.rng)
        for c in (0, 1)
        for a in (0, 1)
    }
    solver = functools.partial(
        solve_uplink_three_packets,
        rng=ctx.rng,
        n_candidates=p["n_candidates"],
    )
    results = conjecture_experiment(
        selective,
        solver,
        n_fft=p["n_fft"],
        n_bins=p["n_bins"],
        noise_power=p["noise_power"],
    )
    per_sc = results["per_subcarrier"]
    flat = results["flat_approximation"]
    return {
        "per_subcarrier_rate": per_sc.total_rate,
        "flat_rate": flat.total_rate,
        "flat_ratio": flat.total_rate / per_sc.total_rate,
        "per_subcarrier_worst_bin": per_sc.worst_bin_rate,
        "flat_worst_bin": flat.worst_bin_rate,
        "coherence_bins": float(
            selective[(0, 0)].coherence_bandwidth_bins(p["n_fft"])
        ),
    }


# --------------------------------------------------------------------- #
# fig_ofdm_dynamic — the wideband Fig.-15 WLAN regime
# --------------------------------------------------------------------- #


def _dot11_round_robin_band(sim: WLANSimulation) -> Dict[int, float]:
    """Band-aware 802.11-MIMO baseline: per-bin best-AP rate, averaged
    over the evaluated subcarriers, divided by the population size.

    The wideband counterpart of the flat round-robin baseline used by
    ``fig15_dynamic``: the baseline discipline also transmits OFDM, so
    it too earns the *band-averaged* eigenmode rate of its best AP —
    gains stay an IAC-vs-802.11 comparison, not a wideband-vs-flat one.
    """
    n_bins = sim.fading.n_bins
    bands = {
        (a, c): sim.fading.channel_bins(a, c)
        for a in sim.ap_ids
        for c in sim.client_ids
    }
    rates = {c: 0.0 for c in sim.client_ids}
    for b in range(n_bins):
        channels = ChannelSet(
            {pair: band[b] for pair, band in bands.items()}
        )
        bin_rates = per_client_rates(
            channels, sim.client_ids, sim.ap_ids,
            noise_power=1.0, direction="downlink",
        )
        for c, rate in bin_rates.items():
            rates[c] += rate
    n = len(sim.client_ids)
    return {c: rate / (n_bins * n) for c, rate in rates.items()}


def _format_fig_ofdm_dynamic(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"fig_ofdm_dynamic ({p['alignment']}, delay spread {p['delay_spread']}, "
        f"{p['n_bins']} bins): {p['n_clients']} clients, {p['n_slots']} slots, "
        f"{p['algorithm']}"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: mean gain {m['mean_gain']:.2f}x, "
            f"worst client {m['min_gain']:.2f}x, "
            f"staleness {m['mean_staleness_loss_db']:.2f} dB/slot, "
            f"Jain {m['jain_fairness']:.2f}"
        )
    if not quiet and result.records:
        gains = sorted(
            v
            for name, v in result.records[0].metrics.items()
            if name.startswith(_CLIENT_GAIN_PREFIX)
        )
        lines.append(
            "  per-client gains (trial 0): " + " ".join(f"{g:.2f}" for g in gains)
        )
    return "\n".join(lines)


@register_scenario(
    "fig_ofdm_dynamic",
    figure="§6c",
    description="Fig.-15 WLAN on wideband channels: per-subcarrier IAC holds "
    "the fig15 gain, the flat anchor decays with dispersion",
    # Not numbers of the paper (§6c could not test the conjecture): at the
    # default delay spread of 2 samples, per-subcarrier alignment keeps
    # the Fig.-15 gain (1.56-1.61x over seeds 0-5) and one band-centre
    # solution loses it (0.93-0.98x).
    claims=(
        Claim("mean_gain", "-", (over(1.4), under(1.8))),
        Claim("mean_gain", "-", (over(0.8), under(1.1)),
              params={"alignment": "flat_anchor"}),
    ),
    default_params={
        **_DYNAMIC_DEFAULTS,
        "n_clients": 17,
        "n_slots": 400,
        "rho": 1.0,
        "channel": "wideband",
        "n_taps": 8,
        "delay_spread": 2.0,
        "n_fft": 64,
        "n_bins": 4,
        "alignment": "per_subcarrier",
    },
    default_trials=1,
    tags=("wlan", "wideband", "ofdm", "dynamic", "concurrency"),
    formatter=_format_fig_ofdm_dynamic,
    canonicalize=canonical_dynamic_params,
    choices=WLAN_CHOICES,
)
def fig_ofdm_dynamic_trial(ctx: TrialContext) -> Dict[str, float]:
    """One wideband Fig.-15 run: per-bin IAC against the band baseline.

    With ``delay_spread=0``/``n_bins=1`` this collapses to the flat
    ``fig15_dynamic`` regime bit-for-bit (same RNG streams, same
    simulation trajectory).  Sweeping ``delay_spread`` with
    ``alignment=flat_anchor`` reproduces the §6c decay at full-stack
    scale; ``alignment=per_subcarrier`` holds the gain.
    """
    p = ctx.params
    sim = WLANSimulation(build_wlan_config(p, _sim_seed(ctx)))
    baseline = _dot11_round_robin_band(sim)
    stats = sim.run(p["n_slots"])
    gains = {
        c: stats.per_client_rate.get(c, 0.0) / baseline[c] for c in sim.client_ids
    }
    values = np.array(list(gains.values()))
    metrics = {
        "mean_gain": float(values.mean()),
        "min_gain": float(values.min()),
        "fraction_below_1x": float(np.mean(values < 1.0)),
        **_dynamic_metrics(stats),
    }
    for c, g in gains.items():
        metrics[f"{_CLIENT_GAIN_PREFIX}{c}"] = g
    return metrics
