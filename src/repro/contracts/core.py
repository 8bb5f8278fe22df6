"""Core types of the contract checker: findings, rules, file/project context.

The checker is a plain :mod:`ast` pass — no new dependencies, no runtime
imports of the code under analysis.  Each file is walked once
(:meth:`FileContext.nodes_of` serves every rule from that one traversal);
each :class:`Rule` reads the nodes it judges and yields
:class:`Finding`\\ s; the driver in
:mod:`repro.contracts.checker` applies the path-scoped allowlist
(:mod:`repro.contracts.config`), inline ``# repro: allow[rule-id]``
suppressions and an optional committed baseline before anything reaches a
reporter.

Rules carry their own documentation — ``rationale`` (why the contract
exists, pointing at the PR that motivated it) plus minimal
``bad_example``/``good_example`` snippets — so ``repro-analyze lint
--explain RULE-ID`` and baseline entries are self-explanatory.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple

#: Inline suppression grammar: ``# repro: allow[rule-id]`` (comma-separated
#: ids; ``*`` allows every rule).  A suppression applies to findings on its
#: own line or, when written on a line of its own, to the line below.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at a source location."""

    path: str  # posix path relative to the lint root
    line: int
    col: int
    rule: str
    message: str

    def baseline_key(self) -> Tuple[str, str, str]:
        """Line-independent identity used for baseline matching.

        Unrelated edits move line numbers constantly; a baselined finding
        stays recognised as long as the file, rule and message hold.
        """
        return (self.path, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def parse_suppressions(source: str) -> Dict[int, frozenset]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    allows: Dict[int, frozenset] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        ids = frozenset(part.strip() for part in match.group(1).split(",") if part.strip())
        if ids:
            allows[lineno] = ids
    return allows


@dataclass
class FileContext:
    """One parsed source file plus everything rules need to judge it."""

    path: str  # posix, relative to the lint root
    source: str
    tree: ast.Module
    suppressions: Dict[int, frozenset] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            suppressions=parse_suppressions(source),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        """Inline-allowed on the finding's line or the full-comment line above."""
        for lineno in (finding.line, finding.line - 1):
            ids = self.suppressions.get(lineno)
            if ids and (finding.rule in ids or "*" in ids):
                return True
        return False

    # -- the file's one traversal -----------------------------------------
    @cached_property
    def _by_class(self) -> Dict[type, List[Tuple[int, ast.AST]]]:
        """Every node of the file under its class, each with its position
        in :func:`ast.walk`'s breadth-first order — built by the one
        whole-module walk a lint run makes of this file."""
        index: Dict[type, List[Tuple[int, ast.AST]]] = {}
        for position, node in enumerate(ast.walk(self.tree)):
            index.setdefault(type(node), []).append((position, node))
        return index

    def nodes_of(self, *classes: type) -> List[ast.AST]:
        """The file's nodes of exactly these classes, in ``ast.walk`` order.

        What ``[n for n in ast.walk(ctx.tree) if isinstance(n, classes)]``
        returns, read off the shared index instead of re-walking: rules
        judging whole files ask here; only a walk of one function, class
        or handler body is a rule's own.
        """
        found = [pair for cls in classes for pair in self._by_class.get(cls, ())]
        if len(classes) > 1:
            found.sort(key=itemgetter(0))
        return [node for _, node in found]

    # -- import-alias resolution ------------------------------------------
    @cached_property
    def import_aliases(self) -> Dict[str, str]:
        """Local name -> fully qualified name, from every import statement.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
        import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
        Relative imports resolve against nothing (level > 0 keeps the bare
        module path) — good enough for contract checks, which only care
        about absolute stdlib/numpy targets.
        """
        aliases: Dict[str, str] = {}
        for node in self.nodes_of(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    aliases[local] = target
            elif node.module:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    aliases[local] = f"{node.module}.{item.name}"
        return aliases

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted absolute name.

        Returns ``None`` when the chain does not start at an imported
        module/object (e.g. a method on a local variable) — callers treat
        that as "not ours to judge".
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.import_aliases.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


@dataclass
class Project:
    """Every parsed file of one lint invocation, for cross-file rules."""

    files: List[FileContext]

    def by_path(self) -> Dict[str, FileContext]:
        return {ctx.path: ctx for ctx in self.files}


class Rule:
    """Base class: one contract family.

    Subclasses set the class attributes and implement either
    :meth:`check_file` (per-file rules) or :meth:`check_project`
    (cross-file rules such as cache-key coverage).
    """

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    bad_example: ClassVar[str] = ""
    good_example: ClassVar[str] = ""

    def check_project(self, project: Project, config) -> Iterator[Finding]:
        for ctx in project.files:
            yield from self.check_file(ctx, project, config)

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        return iter(())

    def explain(self) -> str:
        return (
            f"{self.id} — {self.summary}\n\n"
            f"{self.rationale.strip()}\n\n"
            f"Bad:\n{_indent(self.bad_example)}\n\n"
            f"Good:\n{_indent(self.good_example)}\n\n"
            f"Suppress one confirmed-safe site with "
            f"`# repro: allow[{self.id}] -- <justification>`."
        )


def _indent(snippet: str) -> str:
    return "\n".join("    " + line for line in snippet.strip().splitlines())


_RULES: Dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and publish a rule under its id."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} must define a non-empty id")
    _RULES[cls.id] = cls()
    return cls


def registered_rules() -> Dict[str, Rule]:
    """All rules, keyed by id (import-time registrations included)."""
    # Importing the rule modules here (not at module import) avoids a cycle:
    # the rule modules import Rule/register_rule from this module.
    from repro.contracts import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_structure,
    )

    return dict(_RULES)


# ---------------------------------------------------------------------------
# Lockset walker (shared by the rules_concurrency families)
# ---------------------------------------------------------------------------
#: Names that read as locks even without a visible constructor.  Matched
#: case-insensitively anywhere in the identifier, so ``_lock``,
#: ``_JOURNAL_LOCKS_GUARD``, ``cache_mutex`` and ``_journal_lock`` all
#: qualify.  Constructor-based detection (``threading.Lock()`` et al.)
#: covers unconventional names.
_LOCKISH_NAME_RE = re.compile(r"lock|mutex", re.IGNORECASE)

#: Bare constructor names whose assignment declares a lock object.
_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def is_lockish_name(name: str) -> bool:
    return bool(_LOCKISH_NAME_RE.search(name))


def is_lock_constructor_call(node: ast.AST) -> bool:
    """Whether an expression is ``threading.Lock()`` / ``Lock()`` / etc."""
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    return name in _LOCK_CONSTRUCTORS


@dataclass(frozen=True, order=True)
class LockToken:
    """Identity of one acquired lock, as far as syntax can tell.

    ``kind`` is ``"self"`` (``with self._lock:`` — instance state, later
    qualified by class name for the project-wide order graph),
    ``"global"`` (``with _REGISTRY_LOCK:`` — a module-level lock object)
    or ``"call"`` (``with _journal_lock(path):`` — a factory returning a
    lock; identity approximated by the factory's name).
    """

    kind: str
    name: str

    def render(self) -> str:
        if self.kind == "self":
            return f"self.{self.name}"
        if self.kind == "call":
            return f"{self.name}(...)"
        return self.name


def lock_token(expr: ast.AST, declared_attrs: frozenset = frozenset()) -> Optional[LockToken]:
    """The lock a ``with``-item context expression acquires, if any.

    ``declared_attrs`` holds attribute names the enclosing class assigned
    a lock constructor to, so ``with self.guard:`` is recognised even
    when the name alone would not be.  Non-lock contexts (files, pools,
    ``contextlib`` helpers) return ``None``.
    """
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and (
            expr.attr in declared_attrs or is_lockish_name(expr.attr)
        ):
            return LockToken("self", expr.attr)
        return None
    if isinstance(expr, ast.Name):
        if is_lockish_name(expr.id):
            return LockToken("global", expr.id)
        return None
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name is not None and name not in _LOCK_CONSTRUCTORS and is_lockish_name(name):
            return LockToken("call", name)
    return None


def with_lock_tokens(
    node: ast.AST, declared_attrs: frozenset = frozenset()
) -> List[LockToken]:
    """Lock tokens acquired by one ``with``/``async with`` statement."""
    tokens: List[LockToken] = []
    for item in getattr(node, "items", ()):
        token = lock_token(item.context_expr, declared_attrs)
        if token is not None:
            tokens.append(token)
    return tokens


def walk_lock_regions(
    func: ast.AST, declared_attrs: frozenset = frozenset()
) -> Iterator[Tuple[ast.AST, frozenset]]:
    """Yield ``(node, held_locks)`` for every node in a function body.

    ``held_locks`` is the frozenset of :class:`LockToken`\\ s lexically
    held at that node — extended inside ``with <lock>:`` bodies, which is
    exact for the idiomatic ``with`` discipline this repository uses
    (manual ``acquire``/``release`` pairs are out of scope).  ``with``
    context expressions themselves are visited with the *outer* lockset:
    ``with self._lock:`` does not guard its own acquisition, and a lock
    factory called in the item runs before the lock is held.  Nested
    ``def``/``lambda``/``class`` bodies are not descended into — they
    execute at call time, not where the lock is held; callers analyse
    them as separate scopes.
    """

    def visit(node: ast.AST, held: frozenset) -> Iterator[Tuple[ast.AST, frozenset]]:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            return
        yield node, held
        if isinstance(node, (ast.With, ast.AsyncWith)):
            tokens = with_lock_tokens(node, declared_attrs)
            for item in node.items:
                yield from visit(item.context_expr, held)
                if item.optional_vars is not None:
                    yield from visit(item.optional_vars, held)
            inner = held | frozenset(tokens)
            for child in node.body:
                yield from visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            yield from visit(child, held)

    for stmt in getattr(func, "body", ()):
        yield from visit(stmt, frozenset())


def call_name(call: ast.Call) -> Optional[str]:
    """Bare callable name of a call (``foo(...)`` or ``obj.foo(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def decorator_names(node: ast.AST) -> Iterable[str]:
    """Bare names of every decorator on a def/class (calls unwrapped)."""
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is not None:
            yield name
