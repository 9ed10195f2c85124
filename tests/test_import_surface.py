"""The import layout: lazy package surfaces and the scenario table.

A command imports only the modules it runs.  The package ``__init__``s
resolve their public names on first access (``repro.utils.lazy``), and
``get_scenario`` imports only the module that registers the scenario it
looks up (``SCENARIO_MODULES``).  These tests pin what a fresh
interpreter loads, and that the lazy surfaces still export every name.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.core
import repro.sim
from repro.analysis import lint_sources
from repro.experiments.registry import SCENARIO_MODULES

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.engine",
    "repro.experiments",
    "repro.faults",
    "repro.mac",
    "repro.net",
    "repro.phy",
    "repro.phy.channel",
    "repro.phy.fec",
    "repro.phy.mimo",
    "repro.phy.modulation",
    "repro.sim",
    "repro.utils",
]


def fresh(code):
    """The JSON value a fresh interpreter running ``code`` prints last."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, check=True,
        capture_output=True, text=True, env=ENV,
    ).stdout
    return json.loads(out.splitlines()[-1])


def fresh_modules(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    return set(fresh(code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )))


class TestWhatACommandLoads:
    def test_one_wlan_scenario_loads_only_its_own_stack(self):
        loaded = fresh_modules(
            "import repro.cli\n"
            "from repro.experiments import get_scenario\n"
            "get_scenario('fig15_dynamic')\n"
        )
        assert "repro.experiments.dynamic_scenarios" in loaded
        assert "repro.sim.wlan" in loaded
        never = {
            "repro.core.session",
            "repro.experiments.sweep",
            "repro.phy.fec",
            "repro.sim.multicell",
        } | set(SCENARIO_MODULES.values()) - {"repro.experiments.dynamic_scenarios"}
        assert loaded & never == set()

    def test_the_city_loads_the_multicell_layer_but_not_the_signal_pipeline(self):
        loaded = fresh_modules(
            "from repro.experiments import get_scenario\n"
            "get_scenario('city_scale')\n"
        )
        assert "repro.sim.multicell" in loaded
        assert "repro.core.session" not in loaded

    def test_importing_the_package_loads_next_to_nothing(self):
        assert fresh_modules("import repro") == {"repro", "repro.utils", "repro.utils.lazy"}

    def test_listing_loads_every_scenario_module(self):
        loaded = fresh_modules(
            "from repro.experiments import scenario_names\nscenario_names()\n"
        )
        assert set(SCENARIO_MODULES.values()) <= loaded


class TestLazySurfaces:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        assert module.__all__
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="repro.sim.*no_such_name"):
            repro.sim.no_such_name  # noqa: B018
        assert not hasattr(repro.core, "no_such_name")

    def test_from_imports_of_names_and_submodules(self):
        from repro import run_experiment
        from repro.core import ChannelSet
        from repro.core.plans import ChannelSet as planned
        from repro.sim import golden

        assert ChannelSet is planned
        assert callable(run_experiment)
        assert golden.__name__ == "repro.sim.golden"


class TestScenarioTable:
    def test_the_table_is_what_the_scenario_modules_register(self):
        """Importing every module of the experiments package registers
        exactly the table's names, each from the module it names."""
        code = (
            "import importlib, json, pkgutil\n"
            "import repro.experiments as pkg\n"
            "from repro.experiments import registry\n"
            "for info in pkgutil.iter_modules(pkg.__path__):\n"
            "    importlib.import_module('repro.experiments.' + info.name)\n"
            "print(json.dumps({name: s.trial.__module__"
            " for name, s in registry._REGISTRY.items()}))\n"
        )
        assert fresh(code) == dict(SCENARIO_MODULES)

    def test_lint_flags_a_registration_the_table_drops(self):
        package = SRC / "repro" / "experiments"
        sources = {
            f"repro/experiments/{path.name}": path.read_text(encoding="utf-8")
            for path in package.glob("*.py")
        }
        assert [f for f in lint_sources(sources) if f.rule == "scenario-registration"] == []
        registry = sources["repro/experiments/registry.py"]
        entry = '    "fig12": "repro.experiments.scenarios",\n'
        assert entry in registry
        sources["repro/experiments/registry.py"] = registry.replace(entry, "")
        flagged = [
            (f.path, f.rule) for f in lint_sources(sources)
            if f.rule == "scenario-registration"
        ]
        assert flagged == [("repro/experiments/scenarios.py", "scenario-registration")]
