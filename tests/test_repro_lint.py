"""Tests for repro-lint: rules, suppressions, reporters, CLI.

Each rule has a violating/clean fixture pair under ``tests/lint_fixtures/``.
Violating fixtures tag every line that must be caught with a trailing
``# LINT: <rule-id>`` marker; the tests assert the rule reports *exactly*
the tagged (rule, line) set — right rule id, right line number, nothing
extra — and that the clean twin yields nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.base import NearestPeerAlgorithm
from repro.lint import all_rules, lint_source, run_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import Suppressions
from repro.lint.reporters import render_json
from repro.lint.rules import COUNTED_CHANNELS

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

_MARKER = re.compile(r"#\s*LINT:\s*([a-z\-]+)")

#: rule id -> (fixture stem, pretend repo-relative path for scoping)
RULE_FIXTURES = {
    "rng-discipline": ("rng_discipline", "src/repro/algorithms/fixture.py"),
    "no-wall-clock": ("wall_clock", "src/repro/service/fixture.py"),
    "counted-probes": ("counted_probes", "src/repro/algorithms/fixture.py"),
    "plan-purity": ("plan_purity", "src/repro/algorithms/fixture.py"),
    "ordered-iteration": ("ordered_iteration", "src/repro/service/fixture.py"),
    "frozen-specs": ("frozen_specs", "src/repro/harness/fixture.py"),
    "obs-passivity": ("obs_passivity", "src/repro/obs/fixture.py"),
}


def rule_by_id(rule_id: str):
    (rule,) = [r for r in all_rules() if r.rule_id == rule_id]
    return rule


def tagged_lines(source: str, rule_id: str) -> set[int]:
    lines = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(line)
        if match:
            assert match.group(1) == rule_id, (
                f"fixture tags foreign rule {match.group(1)} on line {lineno}"
            )
            lines.add(lineno)
    return lines


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_catches_every_tagged_line(rule_id):
    stem, pretend = RULE_FIXTURES[rule_id]
    source = (FIXTURES / f"{stem}_bad.py").read_text()
    expected = tagged_lines(source, rule_id)
    assert expected, "violating fixture must tag at least one line"
    report = lint_source(source, pretend, rules=[rule_by_id(rule_id)])
    got = {f.line for f in report.findings}
    assert got == expected
    assert {f.rule for f in report.findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_clean_fixture_is_clean(rule_id):
    stem, pretend = RULE_FIXTURES[rule_id]
    source = (FIXTURES / f"{stem}_ok.py").read_text()
    report = lint_source(source, pretend, rules=[rule_by_id(rule_id)])
    assert report.findings == []
    assert report.suppressed == []


# -- scoping ----------------------------------------------------------------


def test_rules_respect_path_scope():
    # Wall-clock reads are fine in benchmarks; set iteration is fine in
    # measurement/; oracle calls are fine in the topology definitions.
    wall = (FIXTURES / "wall_clock_bad.py").read_text()
    assert lint_source(wall, "benchmarks/perf/bench_x.py").findings == []
    ordered = (FIXTURES / "ordered_iteration_bad.py").read_text()
    assert (
        lint_source(
            ordered, "src/repro/measurement/fixture.py",
            rules=[rule_by_id("ordered-iteration")],
        ).findings
        == []
    )
    probes = (FIXTURES / "counted_probes_bad.py").read_text()
    assert (
        lint_source(
            probes, "src/repro/topology/fixture.py",
            rules=[rule_by_id("counted-probes")],
        ).findings
        == []
    )
    # algorithms/base.py hosts the counted helpers: exempt from R3.
    assert (
        lint_source(
            probes, "src/repro/algorithms/base.py",
            rules=[rule_by_id("counted-probes")],
        ).findings
        == []
    )
    # Rng draws and oracle calls are the *point* of the algorithm layer;
    # obs-passivity only polices src/repro/obs/.
    passivity = (FIXTURES / "obs_passivity_bad.py").read_text()
    assert (
        lint_source(
            passivity, "src/repro/algorithms/fixture.py",
            rules=[rule_by_id("obs-passivity")],
        ).findings
        == []
    )


def test_counted_channels_name_the_base_class_methods():
    """The measurement rules share one list; it must name real methods."""
    for name, _ in COUNTED_CHANNELS:
        assert callable(getattr(NearestPeerAlgorithm, name)), name
    assert {channel for _, channel in COUNTED_CHANNELS} == {
        "query",
        "aux",
        "index",
    }


def test_unseeded_default_rng_allowed_only_in_util_rng():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert lint_source(source, "src/repro/util/rng.py").findings == []
    findings = lint_source(source, "src/repro/service/daemon.py").findings
    assert [f.rule for f in findings] == ["rng-discipline"]


# -- suppressions ------------------------------------------------------------


def test_inline_suppression_silences_one_line():
    source = (
        "import time\n"
        "a = time.time()  # repro-lint: allow(no-wall-clock)\n"
        "b = time.time()\n"
    )
    report = lint_source(source, "src/repro/service/fixture.py")
    assert [f.line for f in report.findings] == [3]
    assert [f.line for f in report.suppressed] == [2]


def test_comment_line_suppression_covers_next_line():
    source = (
        "import time\n"
        "# repro-lint: allow(no-wall-clock) -- operator telemetry only\n"
        "a = time.time()\n"
    )
    report = lint_source(source, "src/repro/service/fixture.py")
    assert report.findings == []
    assert [f.line for f in report.suppressed] == [3]


def test_suppression_is_per_rule():
    source = "import time\na = time.time()  # repro-lint: allow(counted-probes)\n"
    report = lint_source(source, "src/repro/service/fixture.py")
    assert [f.rule for f in report.findings] == ["no-wall-clock"]


def test_allow_file_suppresses_whole_file():
    source = (
        "# repro-lint: allow-file(no-wall-clock)\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.perf_counter()\n"
    )
    report = lint_source(source, "src/repro/service/fixture.py")
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_suppression_parser_multiple_rules():
    sup = Suppressions.parse(
        ["x = 1  # repro-lint: allow(no-wall-clock, rng-discipline)"]
    )
    assert sup.by_line[1] == {"no-wall-clock", "rng-discipline"}


# -- reporters ---------------------------------------------------------------


def test_json_report_schema():
    run = run_paths(["src/repro/lint"], root=REPO_ROOT)
    payload = json.loads(render_json(run, all_rules()))
    assert set(payload) == {
        "version",
        "tool",
        "checked_files",
        "rules",
        "findings",
        "suppressed",
        "exit_code",
    }
    assert payload["version"] == 2
    assert payload["tool"] == "repro-lint"
    assert payload["checked_files"] > 0
    assert {r["id"] for r in payload["rules"]} == {
        "counted-probes",
        "frozen-specs",
        "no-wall-clock",
        "obs-passivity",
        "ordered-iteration",
        "plan-purity",
        "rng-discipline",
    }
    for rule in payload["rules"]:
        assert rule["description"] and rule["invariant"]
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message", "line_text"}
    assert payload["exit_code"] in (0, 1)
    # The linter lints itself clean.
    assert payload["findings"] == []


# -- the committed tree is clean --------------------------------------------


def test_committed_tree_lints_clean():
    """`python -m repro.lint src/ tests/ benchmarks/` exits 0 (acceptance)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_reports_injected_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "service" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nnow = time.time()\n")
    rc = lint_main([str(bad), "--root", str(tmp_path)])
    assert rc == 1


def test_cli_select_unknown_rule_is_usage_error(tmp_path):
    assert lint_main(["--root", str(tmp_path), "--select", "nope"]) == 2
