"""Provenance of a recorded run, the noise guard, and the history file."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HISTORY = Path(__file__).resolve().parent / "history.jsonl"


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path) -> dict:
    """Where and on what a run was taken (host fingerprint + commit)."""
    import numpy

    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "argv": sys.argv[1:],
    }


def too_noisy(prov: dict) -> bool:
    """A host whose 1-minute load already fills its cores cannot be timed."""
    return prov["loadavg_1m"] >= prov["nproc"]


def summary_line(result: dict) -> dict:
    """What ``history.jsonl`` keeps of a run: enough for ``compare``."""
    return {
        key: result[key]
        for key in (
            "recorded_at",
            "provenance",
            "noisy",
            "seed",
            "end_to_end",
            "counts",
            "answers_sha256",
        )
    }


def append_history(result: dict) -> None:
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(summary_line(result), sort_keys=True) + "\n")


def load_runs(path: Path) -> list[dict]:
    """One result JSON, or a JSON-lines file of several (a history slice)."""
    text = path.read_text()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
