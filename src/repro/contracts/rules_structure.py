"""Structural rules: pool safety, cache-key coverage, exception hygiene,
import discipline.

These families guard the engine's execution and caching contracts: workers
handed to process pools must survive pickling, memo keys must cover every
field that changes an answer, worker errors must be attributed or
re-raised, and the package imports nothing beyond the standard library and
NumPy.
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.contracts.config import path_matches
from repro.contracts.core import (
    FileContext,
    Finding,
    Project,
    Rule,
    call_name,
    decorator_names,
    register_rule,
)


@register_rule
class PoolSafetyRule(Rule):
    id = "pool-safety"
    summary = "pool workers must be module-level callables (picklable)"
    rationale = """
``run_supervised`` fans payloads over thread *or* process pools
depending on the :class:`ExecutionPolicy`; a lambda or closure
worker happens to work under threads, then fails to pickle (or silently
captures stale state) the first time a user passes ``mode="process"`` —
exactly the class of late failure PR 6 hardened the runtime against.
Workers must be module-level functions or picklable callable instances;
closures belong in the *payloads*, which are built in the parent.
"""
    bad_example = """
run_supervised(lambda payload: simulate(spec, payload), payloads, jobs=4)
"""
    good_example = """
def _simulate_chunk(payload):          # module level: pickles cleanly
    return simulate(*payload)

run_supervised(_simulate_chunk, payloads, jobs=4)
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        entry_points = set(config.pool_entry_points)
        for call in ctx.nodes_of(ast.Call):
            worker = self._worker_arg(call, entry_points)
            if worker is not None:
                yield from self._judge(ctx, call, worker)

    @staticmethod
    def _worker_arg(call: ast.Call, entry_points: Set[str]) -> Optional[ast.AST]:
        name = call_name(call)
        if name in entry_points and call.args:
            return call.args[0]
        # executor.submit(lambda: ...) — only the obviously-wrong shape.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"
            and call.args
            and isinstance(call.args[0], ast.Lambda)
        ):
            return call.args[0]
        return None

    @staticmethod
    def _closures_around(ctx: FileContext, call: ast.Call) -> Dict[str, str]:
        """What each closure name of the functions or lambdas enclosing
        ``call`` is bound to — a nested def (``"nested function"``) or a
        lambda (``"lambda"``), from the POV of a pool call made there."""
        names: Dict[str, str] = {}
        for scope in ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
            inner = list(ast.walk(scope))
            if not any(node is call for node in inner):
                continue
            for node in inner:
                if node is scope:
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[node.name] = "nested function"
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                    node.value, ast.Lambda
                ):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            names[target.id] = "lambda"
        return names

    def _judge(
        self, ctx: FileContext, call: ast.Call, worker: ast.AST
    ) -> Iterator[Finding]:
        if any(isinstance(sub, ast.Lambda) for sub in ast.walk(worker)):
            reason = "a lambda"
        elif isinstance(worker, ast.Name) and worker.id in (
            closures := self._closures_around(ctx, call)
        ):
            reason = f"the {closures[worker.id]} `{worker.id}`"
        else:
            return
        yield Finding(
            path=ctx.path,
            line=worker.lineno,
            col=worker.col_offset,
            rule=self.id,
            message=(
                f"pool worker is {reason} — process pools cannot pickle it; "
                "hoist to module level and move captured state into the payload"
            ),
        )


# ---------------------------------------------------------------------------
# Cache-key field coverage
# ---------------------------------------------------------------------------
#: Calls that read every dataclass field generically.
_FULL_COVERAGE_CALLS = frozenset({"fields", "asdict", "encode_fields"})


class _ClassInfo:
    """Fields and methods of one dataclass, extracted syntactically."""

    def __init__(self, ctx: FileContext, node: ast.ClassDef):
        self.ctx = ctx
        self.node = node
        self.name = node.name
        self.base_names = [
            base.id for base in node.bases if isinstance(base, ast.Name)
        ]
        self.is_dataclass = "dataclass" in set(decorator_names(node))
        self.methods: Dict[str, ast.FunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        #: What ``self.<name>`` can resolve to: own methods, plus inherited
        #: ones once :func:`_class_index` has seen the whole project.
        self.helpers: Dict[str, ast.FunctionDef] = dict(self.methods)
        self.own_fields: Tuple[str, ...] = tuple(
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and not item.target.id.startswith("_")
            and "ClassVar" not in ast.dump(item.annotation)
        )

    def reads_of(self, method_name: str, seen: Optional[Set[str]] = None) -> Set[str]:
        """Names read as ``self.<name>`` by a method, helpers included.

        Reading ``self.helper`` (attribute or call) unions the helper
        method's own reads — inherited helpers included — so
        ``cache_key -> self.fleet_key()`` covers the fields ``fleet_key``
        touches; a call of a ``_FULL_COVERAGE_CALLS`` helper on ``self``
        covers everything (returned as ``{"*"}``).
        """
        seen = set() if seen is None else seen
        if method_name in seen:
            return set()
        seen.add(method_name)
        method = self.helpers.get(method_name)
        if method is None:
            return set()
        reads: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                fn = call_name(node)
                if fn in _FULL_COVERAGE_CALLS and any(
                    isinstance(arg, ast.Name) and arg.id == "self"
                    for arg in node.args
                ):
                    return {"*"}
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                reads.add(node.attr)
                if node.attr in self.helpers:
                    nested = self.reads_of(node.attr, seen)
                    if "*" in nested:
                        return {"*"}
                    reads |= nested
        return reads


def _class_index(project: Project) -> Dict[str, _ClassInfo]:
    index: Dict[str, _ClassInfo] = {}
    for ctx in project.files:
        for node in ctx.nodes_of(ast.ClassDef):
            index[node.name] = _ClassInfo(ctx, node)
    for info in index.values():
        for ancestor in _lineage(info, index):
            for name, method in ancestor.methods.items():
                info.helpers.setdefault(name, method)
    return index


def _lineage(info: _ClassInfo, index: Dict[str, _ClassInfo]) -> Iterator[_ClassInfo]:
    """The class, then its ancestors (base classes resolved by name)."""
    stack = [info]
    seen = set()
    while stack:
        current = stack.pop()
        if current.name in seen:
            continue
        seen.add(current.name)
        yield current
        stack.extend(index[base] for base in current.base_names if base in index)


def _all_fields(info: _ClassInfo, index: Dict[str, _ClassInfo]) -> Tuple[str, ...]:
    """Own plus inherited dataclass fields."""
    names = [name for current in _lineage(info, index) for name in current.own_fields]
    return tuple(dict.fromkeys(names))


@register_rule
class CacheKeyCoverageRule(Rule):
    id = "cache-key-coverage"
    summary = "every dataclass field must flow into to_dict and cache_key"
    rationale = """
The engine memoises answers by frozen-value keys; a field added to a
query/scenario/plan but forgotten in ``cache_key`` makes two *different*
questions share one cache entry — the
``behaviour_build`` drift PR 5's review caught by hand, now caught
statically.  The same goes for ``to_dict``: a field missing from the
codec silently drops on the first JSON round-trip.  Provenance-only
fields are exempted in the lint config, with the justification recorded
next to the exemption.
"""
    bad_example = """
@dataclass(frozen=True)
class Plan:
    events: tuple
    adversary: str = "none"            # new field...

    def cache_key(self):
        return (self.events,)          # ...not keyed: stale cache hits
"""
    good_example = """
    def cache_key(self):
        return (self.events, self.adversary)
"""

    def check_project(self, project: Project, config) -> Iterator[Finding]:
        index = _class_index(project)
        for info in index.values():
            if not info.is_dataclass:
                continue
            if not path_matches(info.ctx.path, tuple(config.cache_key_modules)):
                continue
            required = _all_fields(info, index)
            if not required:
                continue
            for method_name in ("to_dict", "cache_key"):
                if method_name not in info.methods:
                    continue
                yield from self._coverage_findings(
                    info,
                    required,
                    info.reads_of(method_name),
                    where=f"{info.name}.{method_name}",
                    site=info.methods[method_name],
                    config=config,
                )

    def _coverage_findings(
        self, info, required, reads, *, where, site, config
    ) -> Iterator[Finding]:
        if "*" in reads:
            return
        for field_name in required:
            if field_name in reads:
                continue
            if config.exempt_field(info.name, field_name):
                continue
            yield Finding(
                path=info.ctx.path,
                line=site.lineno,
                col=site.col_offset,
                rule=self.id,
                message=(
                    f"{where} does not cover field `{field_name}` of "
                    f"{info.name} — key/codec drift; include it or exempt it "
                    "with a justification in the lint config"
                ),
            )


# ---------------------------------------------------------------------------
# Exception hygiene
# ---------------------------------------------------------------------------
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@register_rule
class ExceptionHygieneRule(Rule):
    id = "except-hygiene"
    summary = "broad except must attribute or re-raise, never drop the error"
    rationale = """
A worker error swallowed by ``except Exception: pass`` turns a failing
shard into silently-missing data — PR 6 had to fix exactly this in the
sharded dispatcher (worker exceptions are now propagated with their
original traceback, or attributed to a shard in the ``RunReport``).  A
broad handler is legal only if it re-raises or *uses* the bound
exception (logging it into a report counts); a bare ``except:`` is never
legal — it eats ``KeyboardInterrupt``.
"""
    bad_example = """
try:
    value = worker(payload)
except Exception:
    value = None                       # error evaporates
"""
    good_example = """
try:
    value = worker(payload)
except Exception as error:
    report.attribute(shard, error)     # or: raise ShardExecutionError(...) from error
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        for node in ctx.nodes_of(ast.ExceptHandler):
            if node.type is None:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message="bare `except:` — it even eats KeyboardInterrupt; "
                    "catch the narrowest type that can actually occur",
                )
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_error(node):
                continue
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.id,
                message=(
                    "broad `except "
                    + (ast.unparse(node.type) if hasattr(ast, "unparse") else "Exception")
                    + "` drops the error — re-raise, or bind it and attribute "
                    "it (report/RunReport/log)"
                ),
            )

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names = []
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            if isinstance(node, ast.Name):
                names.append(node.id)
        return any(name in _BROAD_EXCEPTIONS for name in names)

    @staticmethod
    def _handles_error(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# Import discipline
# ---------------------------------------------------------------------------
#: Top-level packages the runtime may import: the standard library, NumPy
#: and the package itself.
_RUNTIME_IMPORT_ROOTS = sys.stdlib_module_names | {"numpy", "repro"}


@register_rule
class ImportDisciplineRule(Rule):
    id = "import-discipline"
    summary = "runtime imports resolve to the stdlib, numpy or repro"
    rationale = """
The ground rule "dependencies stay stdlib + NumPy" was prose until PR 19:
ten SciPy import sites (four module-top, on the path of every command)
cost each process ~1 s and ~60 MB to reach six small functions.  Those
now live in ``repro._stats`` and SciPy is a test-only oracle.  A
function-local import is no loophole — it defers the bill to the first
call and makes the footprint depend on which query arrived — so the rule
reads every ``import``/``from ... import`` statement, nested or not.
"""
    bad_example = """
def binomial_tail(n, p, at_most):
    from scipy import stats            # function-local: still a dependency
    return float(stats.binom.cdf(at_most, n, p))
"""
    good_example = """
from repro._stats import binom_cdf     # stdlib math + numpy underneath
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        for node in ctx.nodes_of(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                modules = [item.name for item in node.names]
            elif node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in _RUNTIME_IMPORT_ROOTS:
                    continue
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"import of `{module}` — the runtime depends on the "
                        "standard library and numpy only; use repro._stats or "
                        "move the dependency behind the tests"
                    ),
                )
