"""Tests for the extension experiment and the run-all orchestration."""

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis.compare import Comparison, ShapeCheck
from repro.experiments import ext_condition_extent, runner
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import ALL_EXPERIMENTS, RunReport, run_all


class TestConditionExtentExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_condition_extent.run(ExperimentScale())

    def test_fractions_are_probabilities(self, result):
        assert 0.0 <= result.true_affected_fraction <= 1.0
        assert 0.0 <= result.estimated_affected_fraction <= 1.0
        assert 0.0 <= result.pipeline_recall <= 1.0

    def test_pipeline_underestimates(self, result):
        """The headline extension finding: responsiveness filtering and
        single-router clustering hide most of the condition's true extent."""
        assert result.estimated_affected_fraction < result.true_affected_fraction

    def test_shape_checks_hold(self, result):
        for check in result.shape_checks():
            assert check.evaluate(), check.claim

    def test_render_and_comparisons(self, result):
        assert "extent" in result.render().lower()
        assert result.comparisons()


class TestChurnResilienceExtension:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_churn_resilience

        return ext_churn_resilience.run(ExperimentScale())

    def test_every_scheme_reports_a_record(self, result):
        assert [r.scheme for r in result.records] == [
            "random-probe", "beaconing", "meridian",
        ]
        for record in result.records:
            assert record.maintenance_by_event.shape == (
                record.n_churn_events,
            )
            assert 0.0 <= record.exact_rate <= 1.0

    def test_common_random_numbers_across_schemes(self, result):
        """compare() must give every scheme the identical event and query
        streams: same targets, same membership sizes."""
        a, b = result.records[0], result.records[-1]
        assert (a.targets == b.targets).all()
        assert (a.membership_size == b.membership_size).all()

    def test_shape_checks_hold(self, result):
        for check in result.shape_checks():
            assert check.evaluate(), check.claim

    def test_render_and_comparisons(self, result):
        assert "churn" in result.render().lower()
        assert result.comparisons()


class TestRunner:
    def test_experiment_registry_covers_the_paper(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert names[0] == "Table 1"
        for figure in range(3, 12):
            assert f"Fig {figure}" in names
        assert "Ext (churn)" in names

    def test_run_subset(self):
        report = run_all(ExperimentScale(), only=("Table 1",))
        assert list(report.renders) == ["Table 1"]
        assert report.all_shapes_hold
        assert report.durations["Table 1"] >= 0

    def test_report_renders(self):
        report = run_all(ExperimentScale(), only=("Table 1",))
        text = report.render()
        assert "Paper vs measured" in text
        assert "Shape checks" in text


@dataclass(frozen=True)
class _StubResult:
    """A fake experiment result with one comparison and one shape check."""

    name: str
    holds: bool = True

    def render(self) -> str:
        return f"rendered {self.name}"

    def comparisons(self) -> list[Comparison]:
        return [Comparison(self.name, "quantity", "paper", "measured")]

    def shape_checks(self) -> list[ShapeCheck]:
        return [ShapeCheck(self.name, f"{self.name} claim", lambda: self.holds)]


@dataclass
class _StubModule:
    name: str
    holds: bool = True
    calls: list = field(default_factory=list)

    def run(self, scale):
        self.calls.append(scale)
        return _StubResult(self.name, self.holds)


class TestRunnerFiltering:
    """run_all(only=...) and RunReport, isolated from real experiments."""

    @pytest.fixture
    def stubs(self, monkeypatch):
        modules = (_StubModule("A"), _StubModule("B"), _StubModule("C"))
        monkeypatch.setattr(
            runner, "ALL_EXPERIMENTS", tuple((m.name, m) for m in modules)
        )
        return modules

    def test_only_filters_to_named_experiments(self, stubs):
        a, b, c = stubs
        report = run_all(ExperimentScale(), only=("A", "C"))
        assert list(report.renders) == ["A", "C"]
        assert len(a.calls) == 1 and len(c.calls) == 1
        assert b.calls == []

    def test_only_none_runs_everything(self, stubs):
        report = run_all(ExperimentScale())
        assert list(report.renders) == ["A", "B", "C"]
        assert len(report.comparisons) == 3
        assert len(report.shape_checks) == 3

    def test_scale_is_threaded_through(self, stubs):
        scale = ExperimentScale(seed=99)
        run_all(scale, only=("B",))
        assert stubs[1].calls == [scale]

    def test_render_includes_sections_and_durations(self, stubs):
        report = run_all(ExperimentScale(), only=("A",))
        text = report.render()
        assert "## A" in text
        assert "rendered A" in text
        assert "Paper vs measured" in text
        assert "Shape checks" in text
        assert report.durations["A"] >= 0

    def test_all_shapes_hold_true_and_false(self, stubs, monkeypatch):
        assert run_all(ExperimentScale()).all_shapes_hold
        failing = _StubModule("F", holds=False)
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", (("F", failing),))
        report = run_all(ExperimentScale())
        assert not report.all_shapes_hold
        assert "FAIL" in report.render()

    def test_cli_exit_status_follows_the_shape_checks(
        self, stubs, monkeypatch, capsys
    ):
        assert runner.main([]) == 0
        assert "all shape checks hold: True" in capsys.readouterr().out
        failing = _StubModule("F", holds=False)
        monkeypatch.setattr(
            runner, "ALL_EXPERIMENTS", (("A", stubs[0]), ("F", failing))
        )
        assert runner.main([]) == 1
        assert "all shape checks hold: False" in capsys.readouterr().out

    def test_empty_report(self):
        report = RunReport()
        assert report.all_shapes_hold  # vacuously true
        assert "Paper vs measured" in report.render()

    def test_unknown_experiment_name_rejected(self, stubs):
        """A typo'd name must fail loudly, not 'pass' with an empty report."""
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="Nope"):
            run_all(ExperimentScale(), only=("A", "Nope"))

    def test_cli_main_only_filter(self, stubs, capsys):
        runner.main(["--only", "B"])
        out = capsys.readouterr().out
        assert "rendered B" in out
        assert "rendered A" not in out
        assert "all shape checks hold: True" in out

    def test_cli_main_rejects_bad_workers(self, stubs, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--workers", "0"])
        assert "--workers must be >= 1" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    """``python -m repro.experiments.runner`` (the README's main command)
    must not import the runner twice: that prints a RuntimeWarning, which
    ``-W error`` turns into a failed start."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.experiments.runner", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
