"""Rule liveness: every rule fires on its fixture and only where marked.

Each fixture module under ``fixtures/`` carries ``# expect: <rule-id>``
markers on the lines the linter must flag.  The tests lint the fixture
text (fixtures are never imported) and require the findings to match
the markers *exactly* — a rule that stops firing fails its fixture, and
a rule that over-fires (flagging clean or suppressed variants) fails
the same assertion from the other side.
"""

import pathlib
import re

import pytest

from repro.analysis import lint_sources, rule_ids

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

_EXPECT = re.compile(r"#\s*expect:\s*([a-z][a-z\-]*(?:\s*,\s*[a-z][a-z\-]*)*)")


def expected_markers(path, rel_path):
    """``(rel_path, line, rule-id)`` triples from ``# expect:`` comments."""
    expected = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _EXPECT.search(line)
        if match is None:
            continue
        for rule_id in match.group(1).split(","):
            expected.append((rel_path, lineno, rule_id.strip()))
    return expected


def lint_fixture(filename, rel_path, **kwargs):
    path = FIXTURES / filename
    findings = lint_sources(
        {rel_path: path.read_text(encoding="utf-8")}, **kwargs
    )
    return findings, expected_markers(path, rel_path)


#: fixture file -> the rel_path it is linted under (scoping matters for
#: the wallclock / print / ordering rules).
FILE_RULE_FIXTURES = {
    "event_key_total_order.py": "repro/sim/events.py",
    "no_global_rng.py": "repro/phy/fake.py",
    "no_bare_default_rng.py": "repro/utils/fake.py",
    "no_mutable_default.py": "repro/sim/fake.py",
    "no_wallclock.py": "repro/sim/fake.py",
    "no_print_in_library.py": "repro/sim/fake.py",
    "no_unordered_iteration.py": "repro/sim/multicell.py",
    "no_naked_recv.py": "repro/sim/fake.py",
    "unused_suppression.py": "repro/sim/fake.py",
}


class TestFixtureLiveness:
    @pytest.mark.parametrize("filename", sorted(FILE_RULE_FIXTURES))
    def test_findings_match_markers_exactly(self, filename):
        rel_path = FILE_RULE_FIXTURES[filename]
        findings, expected = lint_fixture(filename, rel_path)
        got = sorted((f.path, f.line, f.rule) for f in findings)
        assert got == sorted(expected), (
            f"{filename}: linter findings diverge from # expect markers"
        )
        assert expected, f"{filename} has no # expect markers"

    def test_engine_pair_fixture(self):
        tests = {
            "tests/test_fake.py": (
                "def test_equivalence():\n"
                "    assert solve_reference is not None\n"
                "    assert orphan_reference is not None\n"
                "    assert Decoder().decode_reference([]) == []\n"
            )
        }
        findings, expected = lint_fixture(
            "engine_pair.py", "repro/engine/fake.py", test_sources=tests
        )
        got = sorted((f.path, f.line, f.rule) for f in findings)
        assert got == sorted(expected)

    def test_columnar_fastpath_fixture(self):
        """The slot-loop advisory, with engine-pair quiet on a paired
        and test-named oracle inside a columnar module."""
        tests = {
            "tests/test_fake.py": (
                "def test_columnar_equivalence():\n"
                "    assert run_checked_reference is not None\n"
            )
        }
        findings, expected = lint_fixture(
            "columnar_fastpath.py", "repro/sim/columnar.py", test_sources=tests
        )
        got = sorted((f.path, f.line, f.rule) for f in findings)
        assert got == sorted(expected)
        assert expected, "columnar_fastpath.py has no # expect markers"

    def test_columnar_rules_scoped_to_columnar_modules(self):
        """The identical source is clean outside LintConfig.columnar_modules
        — except its waiver, which then counts as stale."""
        findings, _ = lint_fixture(
            "columnar_fastpath.py", "repro/sim/other.py",
            test_sources={"tests/test_fake.py": "run_checked_reference\n"},
        )
        assert [
            f for f in findings
            if f.rule in ("engine-pair", "no-python-slot-loop")
        ] == []
        assert any(f.rule == "unused-suppression" for f in findings)

    @staticmethod
    def scenario_registration_sources(*filenames):
        sources, expected = {}, []
        for filename in filenames:
            path = FIXTURES / "scenario_registration" / filename
            rel_path = f"repro/experiments/{filename}"
            sources[rel_path] = path.read_text(encoding="utf-8")
            expected.extend(expected_markers(path, rel_path))
        return sources, expected

    def test_scenario_registration_fixture(self):
        """Both directions: registrations the table misses (orphan.py),
        and table entries whose module does not register them
        (registry.py)."""
        sources, expected = self.scenario_registration_sources(
            "registry.py", "registered.py", "orphan.py"
        )
        findings = lint_sources(sources)
        got = sorted((f.path, f.line, f.rule) for f in findings)
        assert got == sorted(expected)
        assert {path for path, _, _ in expected} == {
            "repro/experiments/registry.py", "repro/experiments/orphan.py"
        }

    def test_scenario_registration_without_a_table(self):
        """With no registry table, every registration is unreachable."""
        sources, _ = self.scenario_registration_sources("registered.py")
        findings = lint_sources(sources)
        assert [(f.path, f.rule) for f in findings] == [
            ("repro/experiments/registered.py", "scenario-registration")
        ]
        assert "SCENARIO_MODULES" in findings[0].message


class TestScopeExemptions:
    """The same violating code is clean inside its sanctioned files."""

    def test_wallclock_allowed_in_bench(self):
        findings, _ = lint_fixture("no_wallclock.py", "repro/engine/bench.py")
        assert [f for f in findings if f.rule == "no-wallclock"] == []

    def test_print_allowed_in_cli(self):
        findings, _ = lint_fixture("no_print_in_library.py", "repro/cli.py")
        assert [f for f in findings if f.rule == "no-print-in-library"] == []

    def test_event_key_rule_only_in_sim(self):
        findings, _ = lint_fixture(
            "event_key_total_order.py", "repro/experiments/fake.py"
        )
        scoped = [f for f in findings if f.rule == "event-key-total-order"]
        assert scoped == []
        # ... but the waiver inside the fixture now counts as stale.
        assert any(f.rule == "unused-suppression" for f in findings)

    def test_ordering_rule_only_in_hot_paths(self):
        findings, _ = lint_fixture(
            "no_unordered_iteration.py", "repro/sim/other.py"
        )
        ordered = [f for f in findings if f.rule == "no-unordered-iteration"]
        assert ordered == []
        # ... but the waiver inside the fixture now counts as stale.
        assert any(f.rule == "unused-suppression" for f in findings)

    def test_every_contract_rule_has_a_fixture(self):
        covered = set()
        for filename in FILE_RULE_FIXTURES:
            covered.update(
                rule
                for _, _, rule in expected_markers(
                    FIXTURES / filename, "x.py"
                )
            )
        # Rules whose fixtures need test_sources / multi-file setups live
        # in dedicated test methods above, not FILE_RULE_FIXTURES.
        covered.update(
            {"engine-pair", "scenario-registration", "no-python-slot-loop"}
        )
        synthetic = {"parse-error"}
        assert covered >= set(rule_ids()) - synthetic
