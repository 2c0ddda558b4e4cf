"""One front end, one fixed point.

``run_analysis`` parses and tokenizes every analysed file exactly once
(the call graph keeps both the tree and the waiver comments) and builds
every function's CFG exactly once (the graph caches it for every
layer), and
``analyze --all --json`` reports exactly the checked-in golden findings
— per ruleset, in order, every field — for the seeded fixture and for
the shipped library.

The golden files store paths relative to the repository root.  When a
change to ``src/repro`` moves or adds a waived finding on purpose,
regenerate ``golden/src_repro.json`` from ``python -m repro.cli analyze
--all src/repro --baseline flow-baseline.json --json`` passed through
:func:`normalise`.
"""

from __future__ import annotations

import ast
import json
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import cfg, dataflow, run_analysis
from repro.analysis.callgraph import iter_python_files
from repro.cli import main

from .flow.conftest import SEEDED_REGRESSION, write_package

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "flow-baseline.json"
GOLDEN = Path(__file__).parent / "golden"


def normalise(payload):
    """The per-ruleset finding lists with repository-relative paths."""
    prefix = str(REPO_ROOT) + "/"
    out = {}
    for ruleset, findings in sorted(payload["findings"].items()):
        rows = []
        for finding in findings:
            row = dict(finding)
            row["path"] = str(Path(row["path"]).resolve().relative_to(REPO_ROOT))
            if "chain" in row:
                row["chain"] = [hop.replace(prefix, "") for hop in row["chain"]]
            rows.append(row)
        out[ruleset] = rows
    return out


@pytest.mark.parametrize(
    "golden, argv, exit_code",
    [
        ("seeded_regression", [str(SEEDED_REGRESSION)], 1),
        ("src_repro", [str(SRC), "--baseline", str(BASELINE)], 0),
    ],
)
def test_findings_match_golden(golden, argv, exit_code, capsys):
    code = main(["analyze", "--all", "--json", *argv])
    payload = json.loads(capsys.readouterr().out)
    expected = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    assert normalise(payload) == expected
    assert payload["errors"] == []
    assert code == exit_code


def test_each_file_parsed_and_tokenized_once(monkeypatch):
    parsed = Counter()
    tokenized = []
    real_parse, real_tokens = ast.parse, tokenize.generate_tokens

    def parse(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":  # string annotations parse in "eval" mode
            parsed[filename] += 1
        return real_parse(source, filename, mode, **kwargs)

    def generate_tokens(readline):
        tokenized.append(readline)
        return real_tokens(readline)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(tokenize, "generate_tokens", generate_tokens)
    report = run_analysis([str(SEEDED_REGRESSION)])
    files = iter_python_files([SEEDED_REGRESSION])
    assert report.n_modules == len(files)
    assert parsed == Counter({str(path): 1 for path in files})
    assert len(tokenized) == len(files)


def test_each_function_cfg_built_once(monkeypatch):
    built = Counter()
    real_build = cfg.build_cfg

    def build_cfg(func_node):
        built[id(func_node)] += 1
        return real_build(func_node)

    monkeypatch.setattr(cfg, "build_cfg", build_cfg)
    report = run_analysis([str(SEEDED_REGRESSION)])
    assert len(built) == report.n_functions
    assert set(built.values()) == {1}


def test_fixpoint_bound_is_a_report_error(monkeypatch, capsys):
    # One evaluation per function cannot settle a graph whose callees'
    # summaries change after their callers were first solved.
    monkeypatch.setattr(dataflow, "MAX_ROUNDS", 1)
    report = run_analysis([str(SEEDED_REGRESSION)], rulesets=("flow", "taint"))
    assert [error.split(":")[0] for error in report.errors] == ["flow", "taint"]
    assert main(["analyze", "--rules", "flow,taint", str(SEEDED_REGRESSION)]) == 2
    assert "error: flow: " in capsys.readouterr().out


def test_second_file_under_one_module_name_is_an_error(tmp_path, capsys):
    source = "def f(x: float) -> bool:\n    return x == 0.5\n"
    first = write_package(tmp_path / "a", {"repro/core/m.py": source})
    second = write_package(tmp_path / "b", {"repro/core/m.py": source})
    report = run_analysis([first, second], rulesets=("lint",))
    assert any("module repro.core.m already read from" in e for e in report.errors)
    assert [Path(f.path).parts[-4] for f in report.findings] == ["a"]
    assert main(["analyze", "--rules", "lint", str(first), str(second)]) == 2
    capsys.readouterr()
