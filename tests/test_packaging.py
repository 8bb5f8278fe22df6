"""Packaging and import surface: what `pip install` declares, what a start loads.

Two promises are checked here rather than left to prose.  The project
metadata names NumPy as the only runtime dependency and wires the
``repro-analyze`` command every document mentions; and importing any entry
point of the package loads no SciPy module — the contracts rule
``import-discipline`` proves that statically for the source tree, this file
proves it for the interpreter that actually starts.  A third: every module
of the package is reachable from a door, or is on the short list of
library surface kept on the record.  Nothing is built, downloaded or
installed.
"""

from __future__ import annotations

import ast
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


# ---------------------------------------------------------------------------
# Module reachability (ROADMAP item 7a, decided at module level)
# ---------------------------------------------------------------------------
ENTRY_POINTS = ("repro.cli", "repro.serve.daemon", "repro.engine")

#: The modules no door imports, kept on purpose as library surface: the
#: paper's §2 failure curves fitted from fleet telemetry and its §4 sampled
#: quorums.  Their examples (``examples/telemetry_to_deployment.py``,
#: ``examples/probability_native_store.py``), ``bench_sampled_quorums.py``
#: and their tests are their door.  The set is exact: a new module that
#: nothing imports fails here, and so does wiring one of these in without
#: taking it off the list.
LIBRARY_ONLY_MODULES = {
    "repro.sim.sampled",
    "repro.sim.sampled.node",
    "repro.telemetry",
    "repro.telemetry.datasets",
    "repro.telemetry.fleet",
    "repro.telemetry.ingest",
}


def _package_modules() -> dict[str, Path]:
    source_root = REPO_ROOT / "src"
    modules = {}
    for path in (source_root / "repro").rglob("*.py"):
        parts = path.relative_to(source_root).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _imported_modules(name: str, modules: dict[str, Path]) -> set[str]:
    """Every package module ``name`` imports, function-local imports and the
    parent packages an import executes on the way included."""
    path = modules[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = {name}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: package.count(".") + 2 - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            targets.add(base)
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    found = set()
    for target in targets:
        parts = target.split(".")
        found.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return found & set(modules)


def test_every_module_is_reachable_from_a_door_or_listed():
    modules = _package_modules()
    reached: set[str] = set()
    frontier = list(ENTRY_POINTS)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(_imported_modules(name, modules))
    assert set(modules) - reached == LIBRARY_ONLY_MODULES


# ---------------------------------------------------------------------------
# Layering: the simulator sits below the fault model
# ---------------------------------------------------------------------------
#: What no module under ``repro.sim`` may import, not even function-locally
#: or for typing: faults reach a cluster only as the ``CompiledFaults`` that
#: ``repro.injection.compile_faults`` makes of a fault plan.
LAYERS_ABOVE_THE_SIMULATOR = ("repro.analysis", "repro.faults", "repro.injection", "repro.engine")


def test_simulator_imports_no_layer_above_it():
    modules = _package_modules()
    leaks = {}
    for name in modules:
        if name == "repro.sim" or name.startswith("repro.sim."):
            above = sorted(
                module
                for module in _imported_modules(name, modules)
                if any(module == layer or module.startswith(layer + ".")
                       for layer in LAYERS_ABOVE_THE_SIMULATOR)
            )
            if above:
                leaks[name] = above
    assert leaks == {}
