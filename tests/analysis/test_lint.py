"""Per-rule fixture tests for the repo-specific AST lint rules.

Each test writes a small snippet under ``tmp_path/repro/...`` with an
``__init__.py`` in every package directory — module names anchor at
the outermost package, exactly as for the shipped library, so the
fixtures land in the same rule scopes — and asserts exactly which
rules fire through ``run_analysis``, as ``analyze --rules lint`` runs it.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import DEFAULT_RULES, run_analysis
from repro.cli import main

from .flow.conftest import write_package

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_paths(paths):
    """Unwaived lint findings, as ``analyze --rules lint`` reports them."""
    return run_analysis(paths, rulesets=("lint",)).blocking


def lint_snippet(tmp_path, relpath, source):
    return lint_paths([write_package(tmp_path, {relpath: source})])


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestFloatEquality:
    def test_flags_equality_against_float_literal(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(lam: float) -> bool:
                return lam == 0.0
            """,
        )
        assert rules_of(findings) == ["exact-float"]
        assert findings[0].line == 3

    def test_flags_not_equal_and_negative_literals(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/model/snippet.py",
            """
            def f(x: float) -> bool:
                return x != -1.0
            """,
        )
        assert rules_of(findings) == ["exact-float"]

    def test_int_literal_comparison_is_fine(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(n: int) -> bool:
                return n == 0
            """,
        )
        assert findings == []

    def test_out_of_scope_module_not_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            def f(x: float) -> bool:
                return x == 0.5
            """,
        )
        assert findings == []

    def test_waiver_on_same_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(x: float) -> bool:
                return x == 0.0  # lint: exact-float
            """,
        )
        assert findings == []

    def test_waiver_on_line_above(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(x: float) -> bool:
                # lint: exact-float
                return x == 0.0
            """,
        )
        assert findings == []

    def test_waive_all_star(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(x: float) -> bool:
                return x == 0.0  # lint: *
            """,
        )
        assert findings == []


class TestBareAssert:
    def test_flags_assert_in_runtime_code(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            def f(x: int) -> int:
                assert x > 0
                return x
            """,
        )
        assert rules_of(findings) == ["bare-assert"]

    def test_code_outside_repro_package_is_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "plain/snippet.py",
            """
            def f(x):
                assert x > 0
                print(x == 0.5)
            """,
        )
        assert findings == []


class TestPagerAccessRetirement:
    """The syntactic rule was retired in favour of the call-graph-aware
    io-through-pool contract (repro.analysis.flow)."""

    def test_not_in_default_rules(self):
        assert "pager-access" not in {r.name for r in DEFAULT_RULES}

    def test_default_lint_no_longer_flags_pager_access(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/index/snippet.py",
            """
            def f(tree: object) -> object:
                return tree.pager.read(0)
            """,
        )
        assert findings == []


class TestMutableDefault:
    def test_flags_list_literal_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            def f(items: list = []) -> list:
                return items
            """,
        )
        assert rules_of(findings) == ["mutable-default"]

    def test_flags_constructor_call_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            from collections import Counter

            def f(*, counts: Counter = Counter()) -> Counter:
                return counts
            """,
        )
        assert rules_of(findings) == ["mutable-default"]

    def test_none_default_is_fine(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            from typing import Optional

            def f(items: Optional[list] = None) -> list:
                return items if items is not None else []
            """,
        )
        assert findings == []


class TestPublicAnnotations:
    def test_flags_unannotated_public_function(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/model/snippet.py",
            """
            def score(a, b):
                return a + b
            """,
        )
        assert rules_of(findings) == ["public-annotations"]
        assert len(findings) == 2  # parameters + return

    def test_init_is_covered_despite_underscores(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/index/snippet.py",
            """
            class Thing:
                def __init__(self, tree) -> None:
                    self.tree = tree
            """,
        )
        assert rules_of(findings) == ["public-annotations"]

    def test_private_and_nested_functions_are_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/model/snippet.py",
            """
            def _helper(a, b):
                return a + b

            def public(x: int) -> int:
                def inner(y):
                    return y + 1
                return inner(x)
            """,
        )
        assert findings == []

    def test_out_of_scope_package_not_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/experiments/snippet.py",
            """
            def run(a, b):
                return a
            """,
        )
        assert findings == []


class TestNoPrint:
    def test_flags_print_in_library_code(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/index/snippet.py",
            """
            def f(x: int) -> None:
                print(x)
            """,
        )
        assert rules_of(findings) == ["no-print"]

    def test_cli_and_reporting_are_exempt(self, tmp_path):
        for relpath in ("repro/cli.py", "repro/experiments/reporting.py"):
            findings = lint_snippet(
                tmp_path,
                relpath,
                """
                def f(x: int) -> None:
                    print(x)
                """,
            )
            assert findings == [], relpath


class TestEngine:
    def test_syntax_error_becomes_a_report_error(self, tmp_path, capsys):
        root = write_package(
            tmp_path, {"repro/core/broken.py": "def f(:\n    pass\n"}
        )
        report = run_analysis([root], rulesets=("lint",))
        (error,) = report.errors
        assert "broken.py" in error
        assert main(["analyze", "--rules", "lint", str(root)]) == 2
        assert "error: " in capsys.readouterr().out

    def test_directory_expansion_and_sorting(self, tmp_path):
        source = "def f(x: float) -> bool:\n    return x == 0.5\n"
        root = write_package(
            tmp_path,
            {"repro/core/b.py": source, "repro/core/a.py": source},
        )
        findings = lint_paths([root])
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]

    def test_default_rule_names_are_unique(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(names) == len(set(names))

    def test_finding_format_is_path_line_col_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/snippet.py",
            """
            def f(x: float) -> bool:
                return x == 0.0
            """,
        )
        text = findings[0].format()
        assert "[exact-float]" in text
        assert text.startswith(findings[0].path + ":3:")


def test_library_tree_is_lint_clean():
    """The shipped library must carry zero unwaived findings — the same
    gate CI enforces, kept in-suite so it cannot rot locally."""
    findings = lint_paths([REPO_SRC])
    assert findings == [], "\n".join(f.format() for f in findings)
