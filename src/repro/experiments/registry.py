"""Declarative scenario registry.

A :class:`Scenario` is everything the harness needs to reproduce one of
the paper's experiments: a name, the figure it corresponds to, a trial
callable with the *normalised* signature
``trial(ctx: TrialContext) -> Mapping[str, float]``, the default
parameters / trial count, and the paper's numbers as typed
:class:`Claim` records.  Scenarios register themselves with
:func:`register_scenario`; the CLI, the runner, the sweep engine and
the claims ledger (:mod:`repro.experiments.ledger`, ``repro check``)
all discover them through :func:`get_scenario` / :func:`list_scenarios`
instead of hand-wired dispatch tables.

A built-in scenario's module is imported on demand: :data:`SCENARIO_MODULES`
names the module that registers each one, so :func:`get_scenario` loads
only the module it needs, while the listing queries load them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.testbed import Testbed
from repro.utils.knobs import check_choice, check_knob

#: A trial returns a flat mapping of metric name -> value.
Metrics = Mapping[str, float]


@dataclass(frozen=True)
class TrialContext:
    """Everything a single trial may depend on.

    ``rng`` is a per-trial stream spawned from the experiment seed, so a
    trial's draws are independent of execution order and worker count.
    ``params`` is the scenario's resolved parameter map
    (:meth:`Scenario.resolve`, read-only): the defaults with the caller's
    overrides merged in, each knob holding a value of its default's
    type, so a trial reads it without a cast.  ``seed`` is the
    *experiment-level* seed —
    trials that must coordinate across the whole run (e.g. sampling
    without replacement by index) can derive a shared stream from it.
    """

    testbed: Testbed
    rng: np.random.Generator
    index: int
    params: Mapping[str, Any]
    seed: int = 0


@dataclass(frozen=True)
class Claim:
    """One number of the paper, checked against one run of its scenario.

    The measured value is ``stat`` (``mean``/``min``/``max``) of a
    per-trial ``metric`` over a run of ``trials`` trials at ``seed``
    with ``params`` over the scenario defaults.  A ratio metric
    ``"a/b"`` is the mean of ``a`` over the mean of ``b`` (the paper's
    average-rate gain).  The claim holds when the value is finite and
    lies in the closed ``band``; a strict bound is the float next to its
    round number (:func:`over`, :func:`under`).  A claim with a
    ``deviates`` note records a known deviation: it is expected on the
    ``side`` (``"above"``/``"below"``) of its band that the note
    describes; landing inside makes the note stale, and landing on the
    other side fails.
    """

    metric: str
    #: The paper's value as shown, e.g. ``"1.5x"`` or ``"~0.1"``.
    paper: str
    band: Tuple[float, float]
    stat: str = "mean"
    params: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    deviates: str = ""
    side: str = ""

    def __post_init__(self):
        if self.stat not in ("mean", "min", "max"):
            raise ValueError(f"claim stat must be mean/min/max, got {self.stat!r}")
        if "/" in self.metric and self.stat != "mean":
            raise ValueError(f"ratio metric {self.metric!r} is a ratio of means")
        if not self.band[0] <= self.band[1]:
            raise ValueError(f"claim band {self.band} is empty")
        if self.side not in (("above", "below") if self.deviates else ("",)):
            raise ValueError(
                f"a deviates note needs side above/below, got side={self.side!r}"
            )
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def label(self) -> str:
        """``iac/dot11`` for a ratio metric, else ``stat(metric)``."""
        return self.metric if "/" in self.metric else f"{self.stat}({self.metric})"

    @property
    def band_text(self) -> str:
        """``= 3``, ``> 1``, ``<= 0.2``, ``(1.2, 1.8)``, ``[0.005, 0.025]``."""
        (low_open, low), (high_open, high) = _edge(self.band[0]), _edge(self.band[1])
        if low == high:
            return f"= {low:g}"
        if low == -math.inf:
            return f"{'<' if high_open else '<='} {high:g}"
        if high == math.inf:
            return f"{'>' if low_open else '>='} {low:g}"
        return f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"

    @property
    def params_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.params.items())) or "default"


def over(value: float) -> float:
    """The band edge that admits everything strictly above ``value``."""
    return float(np.nextafter(value, math.inf))


def under(value: float) -> float:
    """The band edge that admits everything strictly below ``value``."""
    return float(np.nextafter(value, -math.inf))


def _edge(bound: float) -> Tuple[bool, float]:
    """``(open, shown value)`` of a band edge: an edge one float off a
    number with at most 12 decimals is :func:`over`/:func:`under` of it."""
    for neighbour in (under(bound), over(bound)):
        if round(bound, 12) != bound and round(neighbour, 12) == neighbour:
            return True, neighbour
    return False, bound


def paper_band(value: float) -> Tuple[float, float]:
    """The band of a paper value no benchmark ever bounded: +/-15%."""
    return (round(value * 0.85, 6), round(value * 1.15, 6))


#: Renders an ExperimentResult for humans; ``quiet`` suppresses plots.
Formatter = Callable[..., str]

#: Maps a merged parameter map to its *effective* form: knobs that are
#: inert under the current configuration (e.g. a Poisson rate while the
#: traffic model is saturated) are dropped, so two configurations that
#: compute identical numbers share one identity.  Consumed by the sweep
#: engine when deriving cell keys/seeds.
Canonicalizer = Callable[[Mapping[str, Any]], Mapping[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """A registered, reproducible experiment.

    ``default_params`` is also the scenario's parameter schema: each knob
    has its default's type (``int``, ``float``, ``bool`` or ``str``), and
    ``optional`` names the knobs that also take ``None``, with the type
    of their other values.  ``choices`` gives a knob with a fixed
    vocabulary the name list of the library code that reads it.
    :meth:`resolve` checks every override against them once, so a bad
    value fails naming its knob.
    """

    name: str
    figure: str
    description: str
    trial: Callable[[TrialContext], Metrics]
    default_params: Mapping[str, Any] = field(default_factory=dict)
    default_trials: int = 25
    tags: Tuple[str, ...] = ()
    #: Optional human-readable renderer: ``formatter(result, quiet=False)``.
    formatter: Optional[Formatter] = None
    #: Optional parameter canonicalizer (see :data:`Canonicalizer`).
    canonicalize: Optional[Canonicalizer] = None
    #: The paper's numbers this scenario reproduces; ``claims[0]`` is the
    #: headline that ``repro list`` and the formatter show.
    claims: Tuple[Claim, ...] = ()
    #: Knobs that also take ``None``: name -> the type of their other values.
    optional: Mapping[str, type] = field(default_factory=dict)
    #: Knobs with a fixed vocabulary: name -> every value they take.
    choices: Mapping[str, Collection[str]] = field(default_factory=dict)

    @property
    def paper(self) -> str:
        """The headline claim's paper value (``"-"`` without claims)."""
        return self.claims[0].paper if self.claims else "-"

    def canonical_params(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        """``params`` with configuration-inert knobs stripped (identity
        when the scenario declares no canonicalizer)."""
        return params if self.canonicalize is None else self.canonicalize(params)

    def knob_type(self, name: str) -> type:
        """The type of knob ``name``: its ``optional`` type, else its default's."""
        return self.optional.get(name) or type(self.default_params[name])

    def resolve(self, overrides: Mapping[str, Any]) -> Mapping[str, Any]:
        """The parameter map a trial reads: ``default_params`` with
        ``overrides`` merged in, each override checked against its knob's
        type by :func:`~repro.utils.knobs.check_knob` and, for a knob in
        ``choices``, against its vocabulary by
        :func:`~repro.utils.knobs.check_choice` (a bad value raises
        ``ValueError`` naming the knob; ``n_slots=40.0`` becomes ``40``).

        Unknown keys fail first, all named.  A trial reads its
        ``default_params`` keys, plus each execution knob (``engine``)
        that its canonicalizer strips from the sweep identity: stripping
        a knob declares that the trial takes it but computes the same
        numbers either way.  Such a knob has no default to take a type
        from; only its ``choices`` entry checks it here.  Any other key
        would be silently ignored while still entering a sweep cell's
        identity.
        """
        unknown = sorted(
            k for k in overrides
            if k not in self.default_params
            and k in self.canonical_params({**self.default_params, k: overrides[k]})
        )
        if unknown:
            known = ", ".join(sorted(self.default_params)) or "<none>"
            raise ValueError(
                f"unknown parameter(s) for scenario {self.name!r}: "
                f"{', '.join(unknown)}; known knobs: {known}"
            )
        resolved = dict(self.default_params)
        for name, value in overrides.items():
            optional = name in self.optional
            if name in self.default_params:
                value = check_knob(name, value, self.knob_type(name), optional)
            if name in self.choices and not (value is None and optional):
                value = check_choice(name, value, self.choices[name])
            resolved[name] = value
        return MappingProxyType(resolved)


_REGISTRY: Dict[str, Scenario] = {}

#: Built-in scenario name -> the module whose import registers it.  The
#: ``scenario-registration`` lint rule keeps this table and the modules'
#: ``@register_scenario`` calls in step, both ways.
SCENARIO_MODULES: Mapping[str, str] = MappingProxyType({
    "backplane_loss_sweep": "repro.experiments.fault_scenarios",
    "churn_throughput": "repro.experiments.dynamic_scenarios",
    "city_scale": "repro.experiments.multicell_scenarios",
    "fault_resilience": "repro.experiments.fault_scenarios",
    "fig12": "repro.experiments.scenarios",
    "fig12_signal": "repro.experiments.signal_scenarios",
    "fig13a": "repro.experiments.scenarios",
    "fig13b": "repro.experiments.scenarios",
    "fig13b_signal": "repro.experiments.signal_scenarios",
    "fig14": "repro.experiments.scenarios",
    "fig15": "repro.experiments.scenarios",
    "fig15_dynamic": "repro.experiments.dynamic_scenarios",
    "fig16": "repro.experiments.scenarios",
    "fig17": "repro.experiments.scenarios",
    "fig_ofdm_dynamic": "repro.experiments.ofdm_scenarios",
    "lemmas": "repro.experiments.protocol_scenarios",
    "load_latency": "repro.experiments.dynamic_scenarios",
    "ofdm_subcarrier": "repro.experiments.ofdm_scenarios",
    "overhead": "repro.experiments.protocol_scenarios",
})


def register_scenario(
    name: str,
    *,
    figure: str,
    description: str,
    claims: Tuple[Claim, ...] = (),
    default_params: Optional[Mapping[str, Any]] = None,
    default_trials: int = 25,
    tags: Tuple[str, ...] = (),
    formatter: Optional[Formatter] = None,
    canonicalize: Optional[Canonicalizer] = None,
    optional: Optional[Mapping[str, type]] = None,
    choices: Optional[Mapping[str, Collection[str]]] = None,
) -> Callable[[Callable[[TrialContext], Metrics]], Callable[[TrialContext], Metrics]]:
    """Decorator: register the decorated trial callable as ``name``.

    The callable is returned unchanged so it stays directly importable
    and testable.  Registering a duplicate name raises ``ValueError``.
    """

    def decorator(trial: Callable[[TrialContext], Metrics]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = Scenario(
            name=name,
            figure=figure,
            description=description,
            trial=trial,
            default_params=MappingProxyType(dict(default_params or {})),
            default_trials=default_trials,
            tags=tuple(tags),
            formatter=formatter,
            canonicalize=canonicalize,
            claims=tuple(claims),
            optional=MappingProxyType(dict(optional or {})),
            choices=MappingProxyType(dict(choices or {})),
        )
        return trial

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a scenario (used by tests registering throwaway entries)."""
    _REGISTRY.pop(name, None)


def _load_all() -> Dict[str, Scenario]:
    """The registry with every built-in scenario's module imported."""
    for module in sorted(set(SCENARIO_MODULES.values())):
        __import__(module)
    return _REGISTRY


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, importing only the module that
    registers it; ``KeyError`` lists what exists."""
    if name not in _REGISTRY and name in SCENARIO_MODULES:
        __import__(SCENARIO_MODULES[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_load_all())) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    registry = _load_all()
    return [registry[name] for name in sorted(registry)]


def scenario_names() -> List[str]:
    return sorted(_load_all())


def scenarios_by_tag(tag: str) -> List[Scenario]:
    """Scenarios carrying ``tag`` (e.g. ``"scatter"``, ``"uplink"``)."""
    return [s for s in list_scenarios() if tag in s.tags]
