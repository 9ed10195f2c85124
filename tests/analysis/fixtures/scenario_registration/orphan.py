"""Lint fixture: registrations the fake table does not list (violating)."""

from repro.experiments.registry import register_scenario

NAME = "computed"


@register_scenario("unreachable", figure="-", description="not in the table")  # expect: scenario-registration
def unreachable(ctx):
    return {}


@register_scenario("moved", figure="-", description="table names another module")  # expect: scenario-registration
def moved(ctx):
    return {}


@register_scenario(NAME, figure="-", description="no literal name to list")  # expect: scenario-registration
def computed(ctx):
    return {}
