"""Lint fixture standing in for repro/experiments/registry.py: the
scenario-name -> module table ``get_scenario`` imports from."""

from types import MappingProxyType

SCENARIO_MODULES = MappingProxyType({
    "reachable": "repro.experiments.registered",
    "moved": "repro.experiments.registered",  # expect: scenario-registration
    "ghost": "repro.experiments.vanished",  # expect: scenario-registration
})
