"""Golden-digest corpus: pinned end-to-end simulation trajectories.

``tests/baselines/digests.json`` commits the ``WLANStats.digest()`` /
``MultiCellStats.digest()`` of a dozen (seed, scenario) pairs spanning
every execution engine, the dynamic workloads, fault injection and the
multi-cell layer.  The corpus turns "the simulation still computes the
same numbers" into a one-file diff:

* an *intentional* numerical change (a new solver, a reordered
  accumulation) shows up as a reviewed update to the JSON, regenerated
  with ``python -m repro digest --update``;
* an *accidental* one (a refactor that reorders a reduction, an engine
  fast path that drifts by one ulp) fails ``repro digest`` and the
  corpus test in CI.

``wlan_reference_saturated`` and ``wlan_fast_saturated`` run the same
(seed, workload) under both engines, so the cross-engine bit-identity
contract is visible in the artifact itself (their committed digests are
equal by construction, and :mod:`tests.baselines.test_digests` asserts
it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping

#: The committed corpus, relative to the repository root.
DEFAULT_BASELINE = (
    Path(__file__).resolve().parents[3] / "tests" / "baselines" / "digests.json"
)

#: Single-cell cases: ``WLANConfig`` kwargs + slot count.  Keep entries
#: cheap — the whole corpus recomputes inside the tier-1 suite.
GOLDEN_WLAN: Dict[str, Dict[str, Any]] = {
    "wlan_reference_saturated": {
        "config": {"n_clients": 8, "seed": 11, "engine": "reference"},
        "n_slots": 40,
    },
    "wlan_fast_saturated": {
        "config": {"n_clients": 8, "seed": 11, "engine": "fast"},
        "n_slots": 40,
    },
    "wlan_fast_big12": {
        "config": {"n_clients": 12, "rho": 0.99, "seed": 7, "engine": "fast"},
        "n_slots": 40,
    },
    "wlan_fast_churn": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "churn_params": {"p_leave": 0.05, "p_join": 0.1},
        },
        "n_slots": 40,
    },
    "wlan_fast_mobility": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "mobility_params": {"p_start": 0.2, "p_stop": 0.3, "rho_moving": 0.9},
        },
        "n_slots": 40,
    },
    "wlan_fast_wideband": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "channel": "wideband",
            "n_bins": 2,
        },
        "n_slots": 40,
    },
    # ``wlan_fast_wideband`` runs at zero delay spread (every bin is the
    # same matrix); these three run a dispersive band, where the bins
    # differ and the two alignment modes part ways.
    "wlan_fast_wideband_dispersive": {
        "config": {
            "n_clients": 8,
            "rho": 0.99,
            "seed": 11,
            "engine": "fast",
            "channel": "wideband",
            "n_bins": 4,
            "n_taps": 4,
            "delay_spread": 1.0,
        },
        "n_slots": 40,
    },
    "wlan_fast_wideband_dispersive_anchor": {
        "config": {
            "n_clients": 8,
            "rho": 0.99,
            "seed": 11,
            "engine": "fast",
            "channel": "wideband",
            "n_bins": 4,
            "n_taps": 4,
            "delay_spread": 1.0,
            "alignment": "flat_anchor",
        },
        "n_slots": 40,
    },
    "wlan_reference_wideband_dispersive": {
        "config": {
            "n_clients": 8,
            "rho": 0.99,
            "seed": 11,
            "engine": "reference",
            "channel": "wideband",
            "n_bins": 4,
            "n_taps": 4,
            "delay_spread": 1.0,
        },
        "n_slots": 40,
    },
    "wlan_fast_sparse_poisson": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "traffic": "poisson",
            "traffic_params": {"rate_per_client": 0.05},
        },
        "n_slots": 40,
    },
    "wlan_fast_sparse_ack1": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "ack_period": 1,
            "traffic": "poisson",
            "traffic_params": {"rate_per_client": 0.02},
        },
        "n_slots": 40,
    },
    "wlan_fast_churn_mobility": {
        "config": {
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "traffic": "poisson",
            "traffic_params": {"rate_per_client": 0.05},
            "churn_params": {"p_leave": 0.05, "p_join": 0.1},
            "mobility_params": {"p_start": 0.2, "p_stop": 0.3, "rho_moving": 0.9},
        },
        "n_slots": 40,
    },
    "wlan_fast_full_cocktail_poisson": {
        "config": {
            "n_aps": 4,
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "traffic": "poisson",
            "traffic_params": {"rate_per_client": 0.1},
            "fault_params": {
                "backplane_loss_rate": 0.1,
                "burst_enter": 0.05,
                "burst_exit": 0.3,
                "backplane_delay_rate": 0.1,
                "backplane_delay_max": 2,
                "csi_corrupt_rate": 0.1,
                "csi_stale_rate": 0.1,
                "leader_crash_slot": 20,
            },
        },
        "n_slots": 40,
    },
    "wlan_fast_full_cocktail_saturated": {
        "config": {
            "n_aps": 4,
            "n_clients": 8,
            "seed": 11,
            "engine": "fast",
            "fault_params": {
                "backplane_loss_rate": 0.1,
                "burst_enter": 0.05,
                "burst_exit": 0.3,
                "backplane_delay_rate": 0.1,
                "backplane_delay_max": 2,
                "csi_corrupt_rate": 0.1,
                "csi_stale_rate": 0.1,
                "leader_crash_slot": 20,
            },
        },
        "n_slots": 40,
    },
}

#: Multi-cell cases: ``MultiCellConfig`` kwargs + slot count (one worker
#: — worker-count invariance is pinned by ``tests/sim/test_multicell.py``).
GOLDEN_MULTICELL: Dict[str, Dict[str, Any]] = {
    "multicell_small": {
        "config": {
            "n_cells": 4,
            "aps_per_cell": 3,
            "clients_per_cell": 6,
            "barrier_slots": 10,
            "seed": 7,
        },
        "n_slots": 20,
    },
    "multicell_faulted": {
        "config": {
            "n_cells": 4,
            "aps_per_cell": 4,
            "clients_per_cell": 6,
            "barrier_slots": 10,
            "seed": 7,
            "fault_params": {
                "backplane_loss_rate": 0.1,
                "csi_corrupt_rate": 0.05,
                "leader_crash_slot": 10,
            },
        },
        "n_slots": 20,
    },
}


def golden_case_names() -> List[str]:
    """Every corpus entry id, sorted (the JSON's key set)."""
    return sorted(list(GOLDEN_WLAN) + list(GOLDEN_MULTICELL))


def compute_digest(name: str) -> str:
    """Run one corpus case from scratch and return its digest."""
    # Deferred imports: the corpus definition stays importable without
    # pulling the whole simulation stack.
    if name in GOLDEN_WLAN:
        from repro.sim.wlan import WLANConfig, WLANSimulation

        spec = GOLDEN_WLAN[name]
        sim = WLANSimulation(WLANConfig(**spec["config"]))
        return sim.run(spec["n_slots"]).digest()
    if name in GOLDEN_MULTICELL:
        from repro.sim.multicell import MultiCellConfig, MultiCellSimulation

        spec = GOLDEN_MULTICELL[name]
        sim = MultiCellSimulation(MultiCellConfig(**spec["config"]))
        return sim.run(spec["n_slots"], workers=1).digest()
    raise KeyError(f"unknown golden case {name!r}")


def compute_digests() -> Dict[str, str]:
    """The whole corpus, recomputed from scratch in name order."""
    return {name: compute_digest(name) for name in golden_case_names()}


def load_baseline(path: "Path | str" = DEFAULT_BASELINE) -> Dict[str, str]:
    """The committed corpus; ``FileNotFoundError`` if never generated."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {str(k): str(v) for k, v in doc.items()}


def write_baseline(
    digests: Mapping[str, str], path: "Path | str" = DEFAULT_BASELINE
) -> None:
    """Write the corpus as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(digests), indent=2, sort_keys=True) + "\n")


def compare(
    computed: Mapping[str, str], baseline: Mapping[str, str]
) -> List[str]:
    """Human-readable mismatch list (empty = corpus intact).

    Reports changed digests, cases missing from the committed file, and
    stale committed entries whose case no longer exists.
    """
    problems: List[str] = []
    for name in sorted(computed):
        if name not in baseline:
            problems.append(f"{name}: not in baseline (run --update)")
        elif computed[name] != baseline[name]:
            problems.append(
                f"{name}: digest changed "
                f"(baseline {baseline[name][:12]}..., "
                f"computed {computed[name][:12]}...)"
            )
    for name in sorted(baseline):
        if name not in computed:
            problems.append(f"{name}: stale baseline entry (case removed)")
    return problems
