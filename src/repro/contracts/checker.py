"""Lint driver: walk sources, run rules, apply allowlists and baselines.

Two-pass by design: every file is parsed first (so cross-file rules like
``lock-order`` and ``cache-key-coverage`` see the whole project), then
each rule runs over the :class:`~repro.contracts.core.Project`, reading
each file's nodes from the one traversal its
:class:`~repro.contracts.core.FileContext` makes.
Findings are filtered through the config's path allowlists and inline
``# repro: allow[rule-id]`` suppressions, and optionally compared against
a committed baseline so only *new* violations fail CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.contracts.config import DEFAULT_CONFIG, LintConfig, path_matches
from repro.contracts.core import FileContext, Finding, Project, registered_rules
from repro.errors import ReproError


class ContractViolationError(ReproError, RuntimeError):
    """Raised by callers that want new findings to be fatal (pre-commit)."""


@dataclass(frozen=True)
class LintResult:
    """Findings of one lint run, split against the baseline (if any)."""

    findings: Tuple[Finding, ...]
    new: Tuple[Finding, ...]
    baselined: Tuple[Finding, ...]
    #: Baseline entries no current finding matches — fixed violations whose
    #: baseline rows should be deleted (kept non-fatal: stale entries are
    #: hygiene, not regressions).
    stale_baseline: Tuple[Tuple[str, str, str], ...] = ()
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.new


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _package_base(root: Path) -> Path:
    """First ancestor that is not itself a Python package.

    Reported paths stay anchored at the package root (``repro/engine/...``)
    no matter how deep the lint was invoked, so the config's ``*repro/...``
    allowlist patterns match identically for ``lint src/repro`` and
    ``lint src/repro/engine``.
    """
    base = root.resolve()
    while (base / "__init__.py").exists():
        base = base.parent
    return base


def _relative(path: Path, roots: Sequence[Path]) -> str:
    for root in roots:
        base = _package_base(root if root.is_dir() else root.parent)
        try:
            return path.resolve().relative_to(base).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def lint_sources(
    sources: Dict[str, str],
    *,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint in-memory sources (path -> text).  The test-suite front door."""
    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path, text in sorted(sources.items()):
        if path_matches(path, config.exclude):
            continue
        try:
            contexts.append(FileContext.from_source(path, text))
        except SyntaxError as error:
            findings.append(
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    rule="parse-error",
                    message=f"file does not parse: {error.msg}",
                )
            )
    project = Project(contexts)
    by_path = project.by_path()
    wanted = None if rules is None else set(rules)
    for rule_id, rule in sorted(registered_rules().items()):
        if wanted is not None and rule_id not in wanted:
            continue
        for finding in rule.check_project(project, config):
            if config.allowed(rule_id, finding.path):
                continue
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings


def lint_paths(
    paths: Sequence[Path | str],
    *,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Path | str] = None,
) -> LintResult:
    """Lint files/directories; compare against ``baseline`` when given."""
    roots = [Path(p) for p in paths]
    files = _collect_files(roots)
    sources: Dict[str, str] = {}
    for file_path in files:
        rel = _relative(file_path, roots)
        sources[rel] = file_path.read_text(encoding="utf-8")
    findings = lint_sources(sources, config=config, rules=rules)
    new, baselined, stale = split_against_baseline(
        findings, load_baseline(baseline) if baseline is not None else []
    )
    return LintResult(
        findings=tuple(findings),
        new=tuple(new),
        baselined=tuple(baselined),
        stale_baseline=tuple(stale),
        files_checked=len(sources),
    )


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
BASELINE_VERSION = 1


def load_baseline(path: Path | str) -> List[Tuple[str, str, str]]:
    """Read a committed baseline file into (path, rule, message) keys."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ContractViolationError(
            f"baseline {path} is not a version-{BASELINE_VERSION} contracts baseline"
        )
    keys = []
    for row in data.get("findings", []):
        keys.append((str(row["path"]), str(row["rule"]), str(row["message"])))
    return keys


def save_baseline(findings: Iterable[Finding], path: Path | str) -> None:
    """Write the current findings as the new committed baseline.

    Every entry should carry an inline justification in review — a
    baseline is a debt ledger, not an allowlist.
    """
    rows = [
        {"path": f.path, "rule": f.rule, "message": f.message}
        for f in sorted(findings)
    ]
    payload = {"version": BASELINE_VERSION, "findings": rows}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def split_against_baseline(
    findings: Sequence[Finding], baseline_keys: Sequence[Tuple[str, str, str]]
) -> Tuple[List[Finding], List[Finding], List[Tuple[str, str, str]]]:
    """Partition findings into (new, baselined); also return stale entries.

    Matching is by multiset of line-independent keys: two identical
    violations in one file need two baseline entries, so adding a second
    copy of a baselined bug still fails.
    """
    budget: Dict[Tuple[str, str, str], int] = {}
    for key in baseline_keys:
        budget[key] = budget.get(key, 0) + 1
    new: List[Finding] = []
    baselined: List[Finding] = []
    for finding in findings:
        key = finding.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    stale = [key for key, count in budget.items() for _ in range(count)]
    return new, baselined, sorted(stale)
