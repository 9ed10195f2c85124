"""Rule framework for the contract linter (:mod:`repro.analysis`).

A *rule* encodes one of the repo's documented invariants as an AST
check.  File rules (:class:`Rule`) see one parsed module at a time;
project rules (:class:`ProjectRule`) see every module plus the test
sources, for invariants that span files (engine pairing, scenario
registration).  Rules register themselves with :func:`register_rule`,
which is how the CLI's ``--rule`` filter, the docs-sync test and the
suppression checker discover them.

Every violation is a :class:`Finding` — path, line, rule id, message,
plus the stripped source text of the offending line.  The text is the
baseline fingerprint: grandfathered findings keep matching when the
file shifts by a few lines, but stop matching (and fail the gate) the
moment the offending code itself changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type, Union

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "dotted_name",
    "register_rule",
    "rule_ids",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation: where, which rule, and why."""

    path: str  #: Lint-root-relative posix path (e.g. ``repro/sim/wlan.py``).
    line: int
    rule: str
    message: str
    #: Stripped source of the offending line — the baseline fingerprint.
    text: str = ""

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-number-free identity used for baseline matching."""
        return (self.path, self.rule, self.text)

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
            text=str(data.get("text", "")),
        )

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Where each contract applies — the repo's layout, as data.

    Paths are lint-root-relative posix paths.  The defaults encode this
    repository's documented contracts (see docs/ARCHITECTURE.md
    §"Enforced contracts"); tests build ad-hoc configs to lint fixture
    trees.
    """

    #: Files allowed to read wall clocks (timing harnesses only).
    wallclock_allowed: Tuple[str, ...] = ("repro/engine/bench.py",)
    #: Files whose set/dict-view iterations must be explicitly ordered
    #: (the sharded hot paths where ordering is the determinism contract).
    ordered_files: Tuple[str, ...] = (
        "repro/sim/multicell.py",
        "repro/experiments/sweep.py",
    )
    #: Files allowed to ``print`` / use bare ``except`` (the CLI surface).
    print_allowed: Tuple[str, ...] = ("repro/cli.py",)
    #: Package whose ``@register_scenario`` calls must match the
    #: ``SCENARIO_MODULES`` table of its ``registry`` module.
    experiments_package: str = "repro/experiments"
    #: Suffix naming the slow bit-exact twin of a fast engine.
    reference_suffix: str = "_reference"
    #: Columnar fast-path modules: per-slot Python loops inside them
    #: need an explicit waiver (``no-python-slot-loop``).
    columnar_modules: Tuple[str, ...] = (
        "repro/sim/columnar.py",
        "repro/sim/events.py",
    )
    #: Package prefixes where heap pushes and time-based sort keys must
    #: be ``(time, seq, ...)`` tuples (``event-key-total-order``): the
    #: discrete-event layer, where a raw float key makes pop order
    #: ill-defined under ties.
    event_key_packages: Tuple[str, ...] = ("repro/sim",)


class FileContext:
    """One parsed module presented to the rules."""

    def __init__(
        self,
        rel_path: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
    ):
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.config = config
        self._lines = source.splitlines()

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self._lines):
            return self._lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, where: Union[int, ast.AST], message: str
    ) -> Finding:
        line = where if isinstance(where, int) else getattr(where, "lineno", 0)
        return Finding(
            path=self.rel_path,
            line=int(line),
            rule=rule,
            message=message,
            text=self.line_text(int(line)),
        )


class ProjectContext:
    """Every linted module plus the test sources, for cross-file rules."""

    def __init__(
        self,
        files: List[FileContext],
        config: LintConfig,
        test_sources: Optional[Mapping[str, str]] = None,
    ):
        self.files = files
        self.config = config
        self.test_sources = dict(test_sources or {})

    def name_in_tests(self, name: str) -> bool:
        return any(name in text for text in self.test_sources.values())


class Rule:
    """A single-file AST check.  Subclass, set the ids, yield findings."""

    rule_id: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, where: Union[int, ast.AST], message: str
    ) -> Finding:
        return ctx.finding(self.rule_id, where, message)


class ProjectRule(Rule):
    """A check over the whole file set (runs once, after the file rules)."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    if not cls.summary:
        raise ValueError(f"rule {cls.rule_id!r} has no summary")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    return sorted(_REGISTRY)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
