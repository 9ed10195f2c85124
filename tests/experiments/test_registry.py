"""Tests for the scenario registry (repro.experiments.registry)."""

import math

import pytest

from repro.experiments import (
    ExperimentRunner,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_experiment,
    scenario_names,
    scenarios_by_tag,
    unregister_scenario,
)
from repro.utils.knobs import KNOB_TYPES


class TestBuiltinScenarios:
    def test_all_seven_figures_registered(self):
        names = scenario_names()
        for figure in ("fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16", "fig17"):
            assert figure in names
        assert len(names) >= 7

    def test_list_get_roundtrip(self):
        for scenario in list_scenarios():
            assert get_scenario(scenario.name) is scenario

    def test_list_is_sorted(self):
        names = [s.name for s in list_scenarios()]
        assert names == sorted(names)

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="fig12"):
            get_scenario("fig99")

    def test_tag_queries(self):
        scatter = {s.name for s in scenarios_by_tag("scatter")}
        assert scatter == {
            "fig12", "fig13a", "fig13b", "fig14", "fig12_signal", "fig13b_signal",
        }
        uplink = {s.name for s in scenarios_by_tag("uplink")}
        assert "fig12" in uplink and "fig13b" not in uplink
        assert scenarios_by_tag("no-such-tag") == []

    def test_scenarios_carry_paper_reference(self):
        """Every figure's paper number is a typed claim; scenarios that
        reproduce none say what to expect in their description."""
        for scenario in list_scenarios():
            assert scenario.figure and scenario.description
            assert scenario.default_trials >= 1
            assert scenario.paper == (
                scenario.claims[0].paper if scenario.claims else "-"
            )
            for claim in scenario.claims:
                assert claim.paper and set(claim.params) <= set(scenario.default_params)
        for name in ("fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16",
                     "fig17", "lemmas", "overhead"):
            assert get_scenario(name).claims, name

    def test_wlan_scenarios_run_the_fast_engine_by_default(
        self, monkeypatch, small_testbed
    ):
        """No scenario default names an engine, so every WLAN and city
        config a trial builds resolves to ``fast``."""
        import repro.sim.multicell as multicell
        import repro.sim.wlan as wlan

        seen = []
        monkeypatch.setattr(wlan, "check_engine", seen.append)
        monkeypatch.setattr(multicell, "check_engine", seen.append)
        runner = ExperimentRunner(small_testbed)
        tiny = {"n_slots": 2, "n_clients": 6, "n_cells": 2,
                "clients_per_cell": 4, "barrier_slots": 2}
        for scenario in scenarios_by_tag("wlan"):
            assert "engine" not in scenario.default_params, scenario.name
            seen.clear()
            params = {k: v for k, v in tiny.items() if k in scenario.default_params}
            runner.run(scenario.name, n_trials=1, params=params)
            assert seen and set(seen) == {"fast"}, scenario.name


class TestRegistration:
    def test_register_and_unregister(self):
        @register_scenario(
            "tmp-registry-test",
            figure="custom",
            description="throwaway",
            default_trials=2,
            tags=("tmp",),
        )
        def tmp_trial(ctx):
            return {"one": 1.0}

        try:
            scenario = get_scenario("tmp-registry-test")
            assert isinstance(scenario, Scenario)
            assert scenario.trial is tmp_trial  # decorator returns it unchanged
            assert scenario.tags == ("tmp",)
        finally:
            unregister_scenario("tmp-registry-test")
        with pytest.raises(KeyError):
            get_scenario("tmp-registry-test")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(
                "fig12", figure="x", description="dup"
            )(lambda ctx: {})

    def test_default_params_read_only(self):
        scenario = get_scenario("fig12")
        with pytest.raises(TypeError):
            scenario.default_params["n_clients"] = 99


#: Wrong values for a knob of each type; each must fail naming the knob.
_WRONG = {
    int: [2.5, math.nan, True],
    float: [math.nan, math.inf, "x", True],
    bool: ["no", 0],
    str: [3],
}


class TestSchema:
    """Every knob has its default's type, checked once by ``resolve``."""

    @pytest.mark.parametrize("name, knob", [
        (scenario.name, knob)
        for scenario in list_scenarios()
        for knob in scenario.default_params
    ])
    def test_wrong_value_fails_naming_the_knob(self, name, knob):
        scenario = get_scenario(name)
        kind = scenario.knob_type(knob)
        assert kind in KNOB_TYPES
        for value in _WRONG[kind]:
            with pytest.raises(ValueError, match=rf"^{knob} must be "):
                scenario.resolve({knob: value})
        default = scenario.default_params[knob]
        assert scenario.resolve({knob: default})[knob] is default

    @pytest.mark.parametrize("name, knob", [
        (scenario.name, knob)
        for scenario in list_scenarios()
        for knob in scenario.choices
        if knob in scenario.default_params
    ])
    def test_choice_knobs_take_exactly_the_library_names(self, name, knob):
        scenario = get_scenario(name)
        names = scenario.choices[knob]
        assert scenario.default_params[knob] in names
        for value in names:
            assert scenario.resolve({knob: value})[knob] == value
        for value in ("fractal", next(iter(names)).upper()):
            with pytest.raises(ValueError, match=rf"^{knob} must be one of "):
                scenario.resolve({knob: value})

    def test_execution_knobs_are_checked_by_name(self):
        """``engine`` has no default to type it; its vocabulary checks it."""
        for name in ("fig15_dynamic", "city_scale", "fault_resilience"):
            assert get_scenario(name).resolve({"engine": "reference"})["engine"] == "reference"
            with pytest.raises(ValueError, match="^engine must be one of"):
                get_scenario(name).resolve({"engine": "turbo"})

    def test_optional_knobs_take_none(self):
        assert get_scenario("fig17").resolve({"topology_seed": None})["topology_seed"] is None
        assert get_scenario("fig17").resolve({"topology_seed": 3.0})["topology_seed"] == 3
        assert get_scenario("fig12_signal").resolve({"fec": None})["fec"] is None
        with pytest.raises(ValueError, match="^fec must be a string"):
            get_scenario("fig12_signal").resolve({"fec": 1})

    def test_resolved_map_is_typed_and_read_only(self):
        resolved = get_scenario("load_latency").resolve({"n_slots": 40.0, "rho": 1})
        assert type(resolved["n_slots"]) is int and resolved["n_slots"] == 40
        assert type(resolved["rho"]) is int  # an int computes the same number
        with pytest.raises(TypeError):
            resolved["n_slots"] = 41

    def test_integral_float_runs_as_its_int(self):
        params = {"n_clients": 6, "load": 0.3}
        as_float = run_experiment(
            "load_latency", n_trials=1, seed=4, params={**params, "n_slots": 40.0}
        )
        as_int = run_experiment(
            "load_latency", n_trials=1, seed=4, params={**params, "n_slots": 40}
        )
        assert type(as_float.params["n_slots"]) is int
        assert as_float.to_json() == as_int.to_json()
