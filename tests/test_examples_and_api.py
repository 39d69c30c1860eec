"""Smoke tests: the public API surface and the example scripts."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_documented_quickstart_works(self):
        """The README/quickstart snippet must stay runnable."""
        from repro import NearestPeerFinder, SyntheticInternet
        from repro.topology.internet import InternetConfig

        internet = SyntheticInternet.generate(
            InternetConfig(
                n_isps=2,
                pops_per_isp_low=2,
                pops_per_isp_high=2,
                en_per_pop_low=6,
                en_per_pop_high=12,
            ),
            seed=7,
        )
        finder = NearestPeerFinder(internet, mechanisms=("registry", "ucl"), seed=7)
        finder.join_all(internet.peer_ids[:30])
        result = finder.find(internet.peer_ids[30])
        assert result.stage in ("registry", "ucl", "fallback")


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "assumption_audit.py",
        "churn_lifecycle.py",
        "trace_a_query.py",
        "service_daemon.py",
        "swarm_locality.py",
        "gaming_matchmaking.py",
    ],
)
def test_example_scripts_run(script, capsys):
    """Every example but ``measurement_study.py`` executes end to end.
    That one re-runs Table 1 and Figs 3-7 at default scale, which
    ``tests/test_experiments.py`` already pins figure by figure."""
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200
