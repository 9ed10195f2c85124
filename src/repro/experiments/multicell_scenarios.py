"""City-scale multi-cell scenario: hundreds of APs, thousands of clients.

``city_scale`` runs the sharded multi-cell simulation
(:mod:`repro.sim.multicell`): ``n_cells`` interference neighbourhoods on
a grid, each with its own elected leader, coupled through slot-barrier
boundary-interference exchange.  It is the §11 clustering conjecture
evaluated at deployment scale — the regime of the Push-and-Track /
cellular-offloading literature — and the scale-out rung of the
ROADMAP's "millions of users" ladder.

The parameter vocabulary is flat and JSON-scalar, so every knob —
including ``n_cells``, ``aps_per_cell``, ``clients_per_cell`` and
``workers`` — can be a ``repro sweep`` grid axis.  ``workers`` is an
*execution* knob: the multi-cell run is bit-identical for any worker
count (each cell's seed is an identity hash and boundary floors are
computed centrally at each barrier), so the canonicalizer strips it
from the sweep identity alongside ``engine``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.experiments.registry import TrialContext, register_scenario
from repro.experiments.results import ExperimentResult
from repro.sim.multicell import MultiCellConfig, MultiCellSimulation
from repro.sim.wlan import WLAN_CHOICES
from repro.utils.knobs import field_knobs


def canonical_city_params(p: Mapping[str, Any]) -> Mapping[str, Any]:
    """Strip knobs that cannot change the computed numbers.

    ``workers`` shards the same deterministic trajectory; ``engine``
    picks between bit-identical engines; ``load`` is unread
    under saturated traffic.  None of them may enter a sweep cell's
    identity hash, or sweeping them would present seed noise as effect.
    """
    q = dict(p)
    q.pop("workers", None)
    q.pop("engine", None)
    if q["traffic"] == "saturated":
        q.pop("load", None)
    return q


def build_multicell_config(p: Mapping[str, Any], seed: int) -> MultiCellConfig:
    """A ``MultiCellConfig`` from a resolved city parameter map.

    Knobs named like a config field pass as they are; an absent one
    keeps the config's default.
    """
    return MultiCellConfig(**field_knobs(MultiCellConfig, p), seed=seed)


_CITY_DEFAULTS = {
    "n_cells": 64,
    "aps_per_cell": 3,
    "clients_per_cell": 16,
    "n_slots": 60,
    "workers": 1,
    "n_antennas": 2,
    "rho": 0.998,
    "mean_gain_db": 15.0,
    "algorithm": "best2",
    "traffic": "poisson",
    "load": 0.7,
    "coupling_gain_db": -10.0,
    "edge_fraction": 0.5,
    "barrier_slots": 20,
}


def _format_city(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    n_clients = p["n_cells"] * p["clients_per_cell"]
    lines = [
        f"city_scale: {p['n_cells']} cells x "
        f"({p['aps_per_cell']} APs + {p['clients_per_cell']} clients) "
        f"= {n_clients} clients, {p['n_slots']} slots, "
        f"{p['workers']} worker(s)"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: network {m['network_rate']:.1f} b/s/Hz "
            f"({m['mean_cell_rate']:.2f}/cell), Jain {m['jain_fairness']:.2f}, "
            f"latency {m['mean_latency_slots']:.1f} slots, "
            f"edge floor mean/max {m['mean_interference_floor']:.3f}/"
            f"{m['max_interference_floor']:.3f}"
        )
    if result.records:
        lines.append(
            f"  mean network rate {result.metric('network_rate').mean():.1f} "
            f"b/s/Hz over {len(result.records)} trial(s)"
        )
    return "\n".join(lines)


@register_scenario(
    "city_scale",
    figure="§11 at scale",
    description="sharded multi-cell city: per-cell IAC gains persist under "
    "cross-cell interference",
    default_params=_CITY_DEFAULTS,
    default_trials=1,
    tags=("wlan", "multicell", "scale"),
    formatter=_format_city,
    canonicalize=canonical_city_params,
    choices=WLAN_CHOICES,
)
def city_scale_trial(ctx: TrialContext) -> Dict[str, float]:
    """One city run: every cell simulated ``n_slots`` slots, merged stats.

    The simulation seed is drawn from the trial's own stream (the
    runner's worker-count-invariance contract); the multi-cell
    ``workers`` knob below it shards *cells* and is itself invariant —
    the same metrics come back for any value.
    """
    p = ctx.params
    sim = MultiCellSimulation(build_multicell_config(p, int(ctx.rng.integers(2**31 - 1))))
    stats = sim.run(p["n_slots"], workers=p["workers"])
    return {
        "network_rate": stats.network_rate,
        "mean_cell_rate": stats.mean_cell_rate,
        "jain_fairness": stats.jain_fairness,
        "mean_latency_slots": stats.mean_latency_slots,
        "idle_fraction": stats.idle_fraction,
        "delivered": float(stats.delivered_packets),
        "offered": float(stats.offered_packets),
        "dropped": float(stats.dropped_packets),
        "drift_reports": float(stats.drift_reports),
        "mean_interference_floor": stats.mean_interference_floor,
        "max_interference_floor": stats.max_interference_floor,
        "n_clients": float(stats.n_clients),
    }
