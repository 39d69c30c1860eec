"""The repository's benchmark: three long daemon workloads, measured end to
end with tracing off and split into the ``src/repro/`` layers by a separate
traced pass.  ``python3 perfbench/run.py --help`` runs it; see README.md.

``SPEC`` is ``BENCHMARK.json``: the one list of workloads and of metric
names, units and directions.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
