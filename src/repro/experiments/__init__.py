"""Unified scenario/experiment API (the paper's §10-§11 evaluation).

This package replaces the hand-wired per-figure dispatch with one
declarative surface:

* :mod:`repro.experiments.registry` — the :class:`Scenario` dataclass,
  its typed paper :class:`Claim` records, the ``@register_scenario``
  decorator, the table naming the module of each built-in scenario
  (imported on first lookup) and registry queries;
* :mod:`repro.experiments.ledger` — evaluates every claim, running each
  distinct run once (``python -m repro check``);
* :mod:`repro.experiments.runner` — :class:`ExperimentRunner` and the
  :func:`run_experiment` convenience wrapper (parallel via
  ``concurrent.futures``, bit-for-bit deterministic for any worker
  count);
* :mod:`repro.experiments.results` — structured
  :class:`TrialRecord`/:class:`ExperimentResult` with JSON round-trip;
* :mod:`repro.experiments.scenarios` — the seven registered figures;
* :mod:`repro.experiments.signal_scenarios` — sample-accurate scatter
  scenarios (``fig12_signal``/``fig13b_signal``) running the vectorized
  signal pipeline per trial;
* :mod:`repro.experiments.dynamic_scenarios` — dynamic-traffic WLAN
  scenarios (``fig15_dynamic``/``load_latency``/``churn_throughput``)
  over the arrival/churn/mobility processes of :mod:`repro.sim.traffic`;
* :mod:`repro.experiments.ofdm_scenarios` — wideband (§6c) scenarios:
  the ``ofdm_subcarrier`` ablation and the full-stack
  ``fig_ofdm_dynamic`` per-subcarrier WLAN regime;
* :mod:`repro.experiments.multicell_scenarios` — the ``city_scale``
  scenario over the sharded multi-cell layer
  (:mod:`repro.sim.multicell`): K interference neighbourhoods with
  per-cell leaders and slot-barrier boundary exchange;
* :mod:`repro.experiments.protocol_scenarios` — the analytic claims:
  ``lemmas`` (Lemmas 5.1/5.2) and ``overhead`` (§2(a), §7.1(d)/(e));
* :mod:`repro.experiments.fault_scenarios` — robustness scenarios
  (``fault_resilience``/``backplane_loss_sweep``) driving the seeded
  fault-injection layer (:mod:`repro.faults`): lossy backplane,
  corrupt/stale CSI, mid-run leader crash, graceful p2p degradation;
* :mod:`repro.experiments.store` — the append-only JSON-lines
  :class:`ResultStore` (schema'd header, keyed records, O(1) appends,
  torn-tail recovery, legacy-blob sniffing) the sweep cache sits on;
* :mod:`repro.experiments.sweep` — the resumable parameter-grid sweep
  engine behind ``python -m repro sweep`` (:func:`run_sweep`,
  per-cell RNG streams, store-backed cell cache,
  :class:`SweepResult` tables).

Quickstart::

    >>> from repro.experiments import run_experiment
    >>> result = run_experiment("fig12", n_trials=4, workers=2)
    >>> round(result.mean_gain, 2) > 1.0
    True
    >>> text = result.to_json()  # archive / diff / plot offline
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "registry": (
        "Claim",
        "Scenario",
        "TrialContext",
        "get_scenario",
        "list_scenarios",
        "register_scenario",
        "scenario_names",
        "scenarios_by_tag",
        "unregister_scenario",
    ),
    "results": ("ExperimentResult", "TrialRecord"),
    "runner": ("ExperimentRunner", "run_experiment"),
    "store": ("CorruptStore", "ResultStore", "StoreSchemaTooNew"),
    "sweep": ("QuarantinedCell", "SweepCache", "SweepCell", "SweepResult", "grid_cells", "run_sweep"),
    "scenarios": ("gain_cdf_from_record", "scatter_result"),
})
