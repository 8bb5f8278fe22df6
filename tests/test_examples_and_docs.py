"""Keep documentation honest: run doctests and every example script."""

from __future__ import annotations

import doctest
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
BENCHMARKS_DIR = ROOT / "benchmarks"


class TestDoctests:
    def test_package_docstring_examples(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 2  # the quickstart snippet is exercised


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        sorted(path.name for path in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_runs_clean(self, script):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip(), f"{script} produced no output"

    def test_expected_example_set_present(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 4  # quickstart + ≥3 scenario scripts


class TestLegacyBenchmarks:
    def test_every_bench_script_imports(self):
        """``benchmarks/bench_*.py`` never matches the ``test_*.py``
        pattern, so removing an API one of them uses would break nothing
        visible; one interpreter imports them all and names every failure."""
        names = sorted(path.stem for path in BENCHMARKS_DIR.glob("bench_*.py"))
        assert names
        code = (
            "import importlib, sys, traceback\n"
            f"sys.path[:0] = [{str(BENCHMARKS_DIR)!r}, {str(ROOT / 'src')!r}]\n"
            "failed = 0\n"
            "for name in sys.argv[1:]:\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except Exception:\n"
            "        failed += 1\n"
            "        print(name, traceback.format_exc(limit=-1))\n"
            "sys.exit(1 if failed else 0)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code, *names],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]
