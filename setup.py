"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs cannot build; this shim lets ``pip install -e .`` fall back to the
classic ``setup.py develop`` path.  The package metadata lives here; there
is no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-lint=repro.lint.cli:main",
            "repro-trace=repro.obs.cli:main",
        ],
    },
)
