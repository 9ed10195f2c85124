"""Lint fixture: a scenario module the fake table lists (clean)."""

from repro.experiments.registry import register_scenario


@register_scenario("reachable", figure="-", description="listed in the table")
def reachable(ctx):
    return {}
