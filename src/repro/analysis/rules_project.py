"""Cross-file rules: engine pairing and scenario registration.

These invariants live between modules, so they run once over the whole
file set (:class:`~repro.analysis.base.ProjectRule`):

* **engine-pair** — every ``*_reference`` callable is the slow bit-exact
  twin of a fast engine (``WLANSimulation.run_reference`` pairs with
  ``run``).  A reference without a fast counterpart is dead weight; one
  never named in a test is an equivalence check that silently stopped
  existing.
* **scenario-registration** — ``@register_scenario`` only registers a
  scenario when its module is imported, and ``get_scenario`` imports the
  module that ``SCENARIO_MODULES`` in ``repro/experiments/registry.py``
  names for it.  A registration the table does not list is a scenario
  the CLI can never see; a table entry whose module does not register
  its name is a lookup that always fails.

One advisory file rule rides along: **no-python-slot-loop**, scoped to
the columnar modules, where a per-slot Python loop is the exact cost the
module exists to remove — the top-level drivers waive theirs explicitly.
"""

from __future__ import annotations

import ast
import posixpath
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import (
    FileContext,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    dotted_name,
    register_rule,
)


def _top_level_defs(
    tree: ast.Module,
) -> List[Tuple[str, ast.AST]]:
    """Module- and class-level function defs (nested closures excluded).

    Closures are implementation detail, not engine surface; the pairing
    contract applies to callables another module (or a test) can reach.
    """
    defs: List[Tuple[str, ast.AST]] = []
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.body)
    return defs


@register_rule
class EnginePair(ProjectRule):
    """``*_reference`` engines must have a fast twin and a test mention."""

    rule_id = "engine-pair"
    summary = (
        "every *_reference callable needs a same-module fast counterpart "
        "and must be named in at least one test (the equivalence contract)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        suffix = project.config.reference_suffix
        for ctx in project.files:
            names = _top_level_defs(ctx.tree)
            defined = {name for name, _ in names}
            for name, node in names:
                if not name.endswith(suffix) or name == suffix:
                    continue
                counterpart = name[: -len(suffix)]
                if counterpart not in defined:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{name} has no fast counterpart {counterpart}() in "
                        "the same module — a reference engine pairs with "
                        "the engine it checks",
                    )
                if not project.name_in_tests(name):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{name} is never named in any test — the "
                        "fast/reference equivalence check does not exist",
                    )


@register_rule
class NoPythonSlotLoop(Rule):
    """Advisory: per-slot Python loops in columnar modules need a waiver."""

    rule_id = "no-python-slot-loop"
    summary = (
        "columnar modules must not iterate slots in Python — vectorise "
        "the work, or waive the driver loop explicitly with "
        "# repro-lint: ignore[no-python-slot-loop]"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel_path not in ctx.config.columnar_modules:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_slot_range(node.iter):
                yield self.finding(
                    ctx,
                    node,
                    "per-slot Python loop in a columnar module — the cost "
                    "this module exists to amortise; vectorise or waive",
                )


def _is_slot_range(node: ast.AST) -> bool:
    """``range(...)`` whose argument expression mentions a slot count."""
    if not isinstance(node, ast.Call):
        return False
    if dotted_name(node.func) != "range":
        return False
    return any("slot" in ast.unparse(arg).lower() for arg in node.args)


#: The registry's scenario-name -> module table.
_TABLE = "SCENARIO_MODULES"


def _registrations(tree: ast.Module) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """``(name, decorator)`` of each ``@register_scenario`` usage; the name
    is ``None`` unless it is a string literal (the first argument)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            name = dotted_name(decorator.func if call else decorator)
            if name is None or name.split(".")[-1] != "register_scenario":
                continue
            first = call.args[0] if call and call.args else None
            literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
            yield (first.value if literal else None), decorator


def _scenario_table(tree: ast.Module) -> Optional[Dict[str, Tuple[str, ast.AST]]]:
    """``name -> (module, key node)`` of the registry's ``SCENARIO_MODULES``
    dict literal (bare or wrapped in one call), or ``None`` without one."""
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if not (isinstance(target, ast.Name) and target.id == _TABLE):
            continue
        value = node.value
        if isinstance(value, ast.Call) and len(value.args) == 1:
            value = value.args[0]
        if not isinstance(value, ast.Dict):
            return None
        return {
            key.value: (module.value, key)
            for key, module in zip(value.keys, value.values)
            if isinstance(key, ast.Constant) and isinstance(module, ast.Constant)
        }
    return None


@register_rule
class ScenarioRegistration(ProjectRule):
    """``SCENARIO_MODULES`` and the ``@register_scenario`` calls agree."""

    rule_id = "scenario-registration"
    summary = (
        "every @register_scenario name in repro/experiments must be listed "
        "in the registry's SCENARIO_MODULES table under its module, and "
        "every table entry's module must register that name"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        package = project.config.experiments_package
        registry_path = posixpath.join(package, "registry.py")
        registry = next((c for c in project.files if c.rel_path == registry_path), None)
        table = _scenario_table(registry.tree) if registry is not None else None
        registered: Set[Tuple[str, str]] = set()
        for ctx in project.files:
            directory, filename = posixpath.split(ctx.rel_path)
            if directory != package:
                continue
            module = ctx.rel_path[: -len(".py")].replace("/", ".")
            for name, usage in _registrations(ctx.tree):
                if name is None:
                    yield ctx.finding(
                        self.rule_id, usage,
                        f"register_scenario in {module} needs a string-literal "
                        f"name, or {_TABLE} cannot list it",
                    )
                    continue
                registered.add((name, module))
                if table is None:
                    yield ctx.finding(
                        self.rule_id, usage,
                        f"{registry_path} defines no {_TABLE} table, so "
                        f"get_scenario({name!r}) never imports {module}",
                    )
                elif table.get(name, (None,))[0] != module:
                    yield ctx.finding(
                        self.rule_id, usage,
                        f"scenario {name!r} is registered in {module} but "
                        f"{_TABLE} does not map it there; get_scenario and "
                        "the CLI will not find it",
                    )
        for name, (module, key) in sorted((table or {}).items()):
            if (name, module) not in registered:
                yield registry.finding(
                    self.rule_id, key,
                    f"{_TABLE} maps {name!r} to {module}, which does not "
                    "register it; get_scenario will fail",
                )
