"""Dynamic-traffic WLAN scenarios: load, churn and mobility regimes.

The paper's Fig. 15 evaluates the concurrency algorithms under a
*saturated*, fixed-population downlink.  These scenarios run the full
WLAN integration sim (:mod:`repro.sim.wlan`) under the dynamic
workloads of :mod:`repro.sim.traffic` instead:

``fig15_dynamic``
    The Fig.-15 setup (17 clients, 3 APs, a concurrency algorithm)
    with a pluggable arrival process, churn and mobility.  With its
    defaults (``traffic="saturated"``, no churn, no mobility) it *is*
    the saturated experiment — the per-client rates are bit-identical
    to a plain ``WLANSimulation`` run — so the paper's regime is the
    exact limiting case of the dynamic one.
``load_latency``
    Offered load vs queueing latency: Poisson (or bursty /
    heterogeneous) arrivals at a fraction ``load`` of the 3-packet/slot
    service capacity.  The headline sweep axis for ``repro sweep``.
``churn_throughput``
    Saturated demand with clients leaving and re-joining; measures what
    re-association and purged backlogs cost in throughput and fairness.

All three share a flat parameter vocabulary (every value JSON-scalar),
so any knob can be a ``repro sweep`` grid axis.  Each trial derives its
simulation seed from ``ctx.rng``, keeping the worker-count-invariance
contract of the experiment runner.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.baselines.dot11_mimo import per_client_rates
from repro.core.plans import ChannelSet
from repro.experiments.registry import Claim, TrialContext, over, register_scenario
from repro.experiments.results import ExperimentResult
from repro.sim.wlan import WLAN_CHOICES, WLANConfig, WLANSimulation, WLANStats
from repro.utils.knobs import field_knobs

#: Downlink groups carry up to three packets per slot (Lemma 5.2, M=2).
_SERVICE_CAPACITY = 3

_CLIENT_GAIN_PREFIX = "client_gain_"

#: Cross-trial stacking is gone, so nothing calls this; the name stays
#: only because ``perfbench/layers.py`` still lists it as a trace site.
run_stacked = None


def canonical_dynamic_params(p: Mapping[str, Any]) -> Mapping[str, Any]:
    """Strip workload knobs that are inert under the current switches.

    The sweep engine hashes a cell's parameters into its RNG seed; a
    knob the trial never reads (a Poisson ``load`` while traffic is
    saturated, churn probabilities with ``churn=False``) must therefore
    not enter the identity, or sweeping it would present pure seed
    noise as an effect.
    """
    q = dict(p)
    traffic = q["traffic"]
    if traffic == "saturated":
        q.pop("load", None)
    if traffic != "bursty":
        q.pop("p_on", None)
        q.pop("p_off", None)
    if traffic != "heterogeneous":
        q.pop("heavy_fraction", None)
    if not q["churn"]:
        for knob in ("p_leave", "p_join", "min_active"):
            q.pop(knob, None)
    if not q["mobility"]:
        for knob in ("rho_moving", "p_start", "p_stop"):
            q.pop(knob, None)
    if q.get("channel") != "wideband":
        # Wideband knobs never reach a flat FadingNetwork.
        for knob in ("n_taps", "delay_spread", "n_fft", "n_bins", "alignment"):
            q.pop(knob, None)
    else:
        if q["delay_spread"] == 0:
            # A zero-spread profile has one non-zero tap whatever the tap
            # count; extra taps draw no RNG and shape no response.
            q.pop("n_taps", None)
        if q["n_bins"] == 1:
            # One bin is its own anchor: both alignment modes run the
            # identical flat route.
            q.pop("alignment", None)
    # The execution engines are bit-identical (pinned by the equivalence
    # suites and the golden corpus), so an ``engine`` override affects
    # timing only — never the numbers — and stays out of the identity.
    q.pop("engine", None)
    return q


#: The workload vocabulary every dynamic scenario shares.  Declared in
#: full on each scenario (``run_sweep`` validates grid axes against
#: ``default_params``, so every sweepable knob must appear here);
#: per-scenario dicts below override the handful that differ.
_DYNAMIC_DEFAULTS = {
    "algorithm": "best2",
    "n_clients": 8,
    "n_slots": 300,
    "rho": 0.998,
    "n_antennas": 2,
    "mean_gain_db": 15.0,
    "traffic": "saturated",
    "load": 0.9,
    "p_on": 0.05,
    "p_off": 0.15,
    "heavy_fraction": 0.25,
    "churn": False,
    "p_leave": 0.02,
    "p_join": 0.1,
    "min_active": 3,
    "mobility": False,
    "rho_moving": 0.97,
    "p_start": 0.02,
    "p_stop": 0.1,
}


def _traffic_params(p: Mapping[str, Any]) -> Optional[Dict[str, float]]:
    """The ``traffic_params`` of the flat ``traffic``/``load`` params.

    ``load`` is the offered fraction of the system's 3-packet/slot
    service capacity; each model's knobs are derived so its *mean*
    per-client arrival rate equals ``load * 3 / n_clients``.
    """
    name = p["traffic"]
    if name == "saturated":
        return None
    load = p["load"]
    if not 0.0 <= load < np.inf:
        raise ValueError(f"load must be finite and non-negative, got {load!r}")
    n_clients = p["n_clients"]
    rate = load * _SERVICE_CAPACITY / n_clients
    if name == "poisson":
        return {"rate_per_client": rate}
    if name == "bursty":
        p_on, p_off = p["p_on"], p["p_off"]
        if p_on <= 0.0:
            raise ValueError("bursty traffic needs p_on > 0 (sources never turn on)")
        duty = p_on / (p_on + p_off)
        return {"rate_on": rate / duty, "p_on": p_on, "p_off": p_off}
    if name == "heterogeneous":
        heavy_fraction = p["heavy_fraction"]
        # heavy clients get 5x the base rate; solve the base so the
        # population mean matches the requested load, using the *actual*
        # heavy count (ceil, matching HeterogeneousTraffic.rate_of).
        n_heavy = int(np.ceil(heavy_fraction * n_clients))
        base = rate / (1.0 + 4.0 * n_heavy / n_clients)
        return {
            "base_rate": base,
            "heavy_rate": 5.0 * base,
            "heavy_fraction": heavy_fraction,
        }
    raise ValueError(
        f"traffic must be saturated, poisson, bursty or heterogeneous, got {name!r}"
    )


def build_wlan_config(p: Mapping[str, Any], seed: int) -> WLANConfig:
    """A ``WLANConfig`` from a resolved dynamic-scenario parameter map.

    Knobs named like a config field (``n_clients``, ``rho``, ``engine``,
    the wideband knobs, ...) pass as they are; an absent one keeps the
    config's default.  The traffic, churn and mobility knobs become the
    config's parameter dicts.
    """
    churn_params = None
    if p["churn"]:
        churn_params = {k: p[k] for k in ("p_leave", "p_join", "min_active")}
    mobility_params = None
    if p["mobility"]:
        mobility_params = {
            "rho_static": p["rho"],
            **{k: p[k] for k in ("rho_moving", "p_start", "p_stop")},
        }
    return WLANConfig(
        **field_knobs(WLANConfig, p),
        traffic_params=_traffic_params(p),
        churn_params=churn_params,
        mobility_params=mobility_params,
        seed=seed,
    )


def _dynamic_metrics(stats: WLANStats) -> Dict[str, float]:
    """The flat metric block every dynamic scenario shares."""
    return {
        "total_rate": stats.total_rate,
        "idle_fraction": stats.idle_fraction,
        "mean_latency_slots": stats.mean_latency_slots,
        "mean_queue_depth": stats.mean_queue_depth,
        "max_queue_depth": float(stats.max_queue_depth),
        "jain_fairness": stats.jain_fairness,
        "delivered": float(stats.delivered_packets),
        "offered": float(stats.offered_packets),
        "dropped": float(stats.dropped_packets),
        "joins": float(stats.joins),
        "leaves": float(stats.leaves),
        "drift_reports": float(stats.drift_reports),
        "mean_staleness_loss_db": stats.mean_staleness_loss_db,
    }


def _sim_seed(ctx: TrialContext) -> int:
    """Per-trial simulation seed, drawn from the trial's own stream."""
    return int(ctx.rng.integers(2**31 - 1))


def _dot11_round_robin(sim: WLANSimulation) -> Dict[int, float]:
    """The 802.11-MIMO baseline: per-slot best-AP rate / population.

    Computed from the channels at association time (the same true
    channels the leader sounded), matching the Fig.-15 convention where
    the baseline serves one client per slot round-robin at its best AP's
    eigenmode rate.
    """
    channels = ChannelSet(
        {
            (a, c): sim.fading.channel(a, c)
            for a in sim.ap_ids
            for c in sim.client_ids
        }
    )
    rates = per_client_rates(
        channels, sim.client_ids, sim.ap_ids, noise_power=1.0, direction="downlink"
    )
    n = len(sim.client_ids)
    return {c: rate / n for c, rate in rates.items()}


# --------------------------------------------------------------------- #
# fig15_dynamic
# --------------------------------------------------------------------- #


def _format_fig15_dynamic(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"fig15_dynamic ({p['traffic']}/{p['algorithm']}): "
        f"{p['n_clients']} clients, {p['n_slots']} slots"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: mean gain {m['mean_gain']:.2f}x, "
            f"worst client {m['min_gain']:.2f}x, "
            f"idle {m['idle_fraction'] * 100:.0f}%, "
            f"latency {m['mean_latency_slots']:.1f} slots, "
            f"Jain {m['jain_fairness']:.2f}"
        )
    if not quiet and result.records:
        gains = sorted(
            v
            for name, v in result.records[0].metrics.items()
            if name.startswith(_CLIENT_GAIN_PREFIX)
        )
        lines.append("  per-client gains (trial 0): " + " ".join(f"{g:.2f}" for g in gains))
    return "\n".join(lines)


@register_scenario(
    "fig15_dynamic",
    figure="Fig. 15",
    description="Fig.-15 WLAN under dynamic load/churn/mobility "
    "(saturated static limit ~ fig15 downlink)",
    # §8a channel tracking on an 8-client, 80-slot deployment.
    claims=(
        Claim("drift_reports", "0", (0.0, 0.0),
              params={"n_clients": 8, "n_slots": 80, "rho": 1.0}, seed=9),
        Claim("drift_reports", "> 0", (over(0.0), np.inf),
              params={"n_clients": 8, "n_slots": 80, "rho": 0.97}, seed=9),
    ),
    default_params={
        **_DYNAMIC_DEFAULTS,
        "n_clients": 17,
        "n_slots": 400,
        # The paper's environments are static (§8a); rho < 1 opens the
        # mobility regime where staleness genuinely costs SINR.
        "rho": 1.0,
    },
    default_trials=1,
    tags=("wlan", "dynamic", "mac", "concurrency"),
    formatter=_format_fig15_dynamic,
    canonicalize=canonical_dynamic_params,
    choices=WLAN_CHOICES,
)
def fig15_dynamic_trial(ctx: TrialContext) -> Dict[str, float]:
    """One dynamic-workload run of the Fig.-15 WLAN deployment.

    Gains are per-client IAC average rate over the 802.11-MIMO
    round-robin baseline (best-AP eigenmode rate at association time /
    population size).  With the default saturated traffic and no
    churn/mobility this *is* the paper's regime: the underlying
    ``WLANSimulation`` trajectory is bit-identical to the pre-dynamic
    simulation's.
    """
    p = ctx.params
    sim = WLANSimulation(build_wlan_config(p, _sim_seed(ctx)))
    baseline = _dot11_round_robin(sim)
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


# --------------------------------------------------------------------- #
# load_latency
# --------------------------------------------------------------------- #


def _format_load_latency(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"load_latency ({p['traffic']}, load {p['load']}): "
        f"{p['n_clients']} clients, {p['n_slots']} slots, {p['algorithm']}"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: latency {m['mean_latency_slots']:.2f} slots, "
            f"throughput {m['throughput_per_slot']:.2f} b/s/Hz/slot, "
            f"idle {m['idle_fraction'] * 100:.0f}%, "
            f"queue mean/max {m['mean_queue_depth']:.1f}/{m['max_queue_depth']:.0f}, "
            f"delivered {m['delivered']:.0f}/{m['offered']:.0f}"
        )
    if result.records:
        lat = result.metric("mean_latency_slots")
        lines.append(
            f"  mean over trials: latency {lat.mean():.2f} slots, "
            f"Jain {result.metric('jain_fairness').mean():.2f}"
        )
    return "\n".join(lines)


@register_scenario(
    "load_latency",
    figure="dynamic",
    description="offered load vs queueing latency: the knee as load -> 1",
    default_params={
        **_DYNAMIC_DEFAULTS,
        "traffic": "poisson",
        "load": 0.6,
    },
    default_trials=3,
    tags=("wlan", "dynamic", "traffic"),
    formatter=_format_load_latency,
    canonicalize=canonical_dynamic_params,
    choices=WLAN_CHOICES,
)
def load_latency_trial(ctx: TrialContext) -> Dict[str, float]:
    """One finite-load run: arrivals at ``load`` x the 3-packet capacity.

    ``throughput_per_slot`` is the delivered sum-rate per slot (equal to
    ``total_rate``); at low load it tracks the offered load, at high
    load it saturates while ``mean_latency_slots`` blows up — the
    classic throughput/latency knee the saturated experiments cannot
    show.
    """
    p = ctx.params
    stats = WLANSimulation(build_wlan_config(p, _sim_seed(ctx))).run(p["n_slots"])
    # The offered load is deliberately NOT echoed as a metric: the row's
    # parameters already carry it, and a cached/shared cell relabeled
    # under a different (inert) load value would contradict itself.
    metrics = _dynamic_metrics(stats)
    metrics["throughput_per_slot"] = stats.total_rate
    return metrics


# --------------------------------------------------------------------- #
# churn_throughput
# --------------------------------------------------------------------- #


def _format_churn(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"churn_throughput (p_leave {p['p_leave']}, p_join {p['p_join']}): "
        f"{p['n_clients']} clients, {p['n_slots']} slots"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: rate {m['total_rate']:.2f}, "
            f"{m['leaves']:.0f} leaves / {m['joins']:.0f} joins, "
            f"dropped {m['dropped']:.0f}, Jain {m['jain_fairness']:.2f}"
        )
    if result.records:
        lines.append(
            f"  mean rate {result.metric('total_rate').mean():.2f} "
            f"(saturated no-churn baseline is the load=saturated limit)"
        )
    return "\n".join(lines)


@register_scenario(
    "churn_throughput",
    figure="dynamic",
    description="client churn vs throughput/fairness: graceful degradation",
    default_params={
        **_DYNAMIC_DEFAULTS,
        "n_clients": 12,
        "churn": True,
    },
    default_trials=3,
    tags=("wlan", "dynamic", "churn"),
    formatter=_format_churn,
    canonicalize=canonical_dynamic_params,
    choices=WLAN_CHOICES,
)
def churn_throughput_trial(ctx: TrialContext) -> Dict[str, float]:
    """One churning saturated run: leaves purge backlog, joins re-sound.

    The interesting outputs are ``total_rate`` (how much the shrinking
    population and re-association churn cost against the saturated
    limit), ``jain_fairness`` over the client universe, and the
    ``joins``/``leaves``/``dropped`` accounting.
    """
    p = ctx.params
    stats = WLANSimulation(build_wlan_config(p, _sim_seed(ctx))).run(p["n_slots"])
    metrics = _dynamic_metrics(stats)
    metrics["n_events"] = float(len(stats.events))
    return metrics
