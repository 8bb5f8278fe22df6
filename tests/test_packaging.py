"""Packaging and import surface: what `pip install` declares, what a start loads.

Two promises are checked here rather than left to prose.  The project
metadata names NumPy as the only runtime dependency and wires the
``repro-analyze`` command every document mentions; and importing any entry
point of the package loads no SciPy module — the contracts rule
``import-discipline`` proves that statically for the source tree, this file
proves it for the interpreter that actually starts.  Nothing is built,
downloaded or installed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Ceiling on ``len(sys.modules)`` after importing one entry point in a
#: fresh interpreter.  Measured when SciPy left the runtime: ``repro.cli``
#: 283, ``repro.engine`` 280, ``repro.serve.daemon`` 340 (asyncio), against
#: 1006 / 1005 / 1045 before, 490 of them ``scipy.*`` and ~230 more pulled
#: in by SciPy (``numpy.testing``, ``unittest``, ...).  450 leaves room for
#: a NumPy upgrade or a few more stdlib modules and none for a heavy
#: third-party package.
MODULE_CEILING = 450

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(sys.modules)))
"""


def test_pyproject_declares_numpy_only_and_the_entry_point():
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    project = config["project"]
    assert project["dependencies"] == ["numpy"]
    assert {"pytest", "hypothesis", "scipy"} <= set(
        project["optional-dependencies"]["test"]
    )
    assert config["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]

    module_name, _, attribute = project["scripts"]["repro-analyze"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attribute))


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.serve.daemon", "repro.engine"]
)
def test_entry_point_import_loads_no_scipy(module):
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = json.loads(done.stdout)
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert len(loaded) < MODULE_CEILING, f"{module} loads {len(loaded)} modules"
