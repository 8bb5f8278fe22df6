"""Concurrency rules: lockset inference, lock ordering, asyncio hygiene,
journal durability.

PR 8 fixed three real concurrency bugs by hand — an unguarded LRU memo
in the engine, a journal truncation race, torn-line handling — and then
added ``repro.serve``, a threaded+asyncio daemon that is the exact code
shape those bugs breed in.  These four families catch that bug class
mechanically:

- ``lock-guard``: infer, per class, which ``self.*`` attributes the
  class's own lock discipline protects (attributes *written* while a
  lock is held), then flag accesses on paths where no protecting lock is
  held — including through private helper methods that are only ever
  called under the lock.  Its fan-out form covers state with no class
  around it: one fresh mutable container placed in every payload of a
  pool call is shared by every thread-mode worker, and must travel with
  a lock or a written reason.
- ``lock-order``: build a project-wide acquired-while-holding graph over
  named locks and report cycles as potential deadlocks.
- ``async-hygiene``: inside ``async def``, ban blocking calls
  (``time.sleep``, ``os.fsync``, engine runs — direct, or one hop away
  through a sync method of the same class — file I/O, ``subprocess``)
  unless routed through ``run_in_executor`` / ``asyncio.to_thread``,
  and flag coroutine calls and ``create_task`` results whose value is
  silently discarded.
- ``journal-durability``: in checkpoint/journal modules, every write on
  a journal handle must be followed by ``os.fsync`` on the same handle
  before the guarding lock is released (``flush()`` is not durability).

All analysis is lexical ``with``-block lockset tracking from
:func:`repro.contracts.core.walk_lock_regions` — exact for the
``with lock:`` discipline this repository uses; manual
``acquire``/``release`` pairs are out of scope by design.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.contracts.config import path_matches
from repro.contracts.core import (
    FileContext,
    Finding,
    LockToken,
    Project,
    Rule,
    call_name,
    is_lock_constructor_call,
    is_lockish_name,
    register_rule,
    walk_lock_regions,
    with_lock_tokens,
)

#: Construction-phase methods: no other thread can hold a reference yet,
#: so unguarded writes there are neither lock evidence nor violations.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__del__"})

#: Container-mutating method names: ``self.attr.append(...)`` writes the
#: attribute's state just as surely as ``self.attr = ...`` rebinds it.
_MUTATOR_CALLS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


#: Constructors of a fresh, empty-or-copied mutable container.
_CONTAINER_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _fresh_container(value: ast.AST) -> Optional[str]:
    """``{}`` / ``[]`` / ``set()`` / ``dict(...)`` ... -> its kind, else ``None``."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = call_name(value)
        if name in _CONTAINER_CONSTRUCTORS:
            return name
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _class_lock_attrs(cls: ast.ClassDef) -> frozenset:
    """Attributes the class assigns a lock constructor to (``self.guard =
    threading.Lock()``) — recognised as locks even with unconventional
    names."""
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not is_lock_constructor_call(value):
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                attrs.add(attr)
    return frozenset(attrs)


def _methods_of(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class _MethodFacts:
    """Lock-relative events observed in one method body."""

    def __init__(self) -> None:
        #: (attr, held, node) for every ``self.X`` occurrence.
        self.accesses: List[Tuple[str, frozenset, ast.AST]] = []
        #: (attr, held, node) for rebinds, item-stores and mutator calls.
        self.writes: List[Tuple[str, frozenset, ast.AST]] = []
        #: (callee, held) for every ``self.m(...)`` call.
        self.self_calls: List[Tuple[str, frozenset]] = []


def _scan_method(method: ast.AST, lock_attrs: frozenset) -> _MethodFacts:
    facts = _MethodFacts()
    for node, held in walk_lock_regions(method, lock_attrs):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _MUTATOR_CALLS:
                    target = _self_attr(func.value)
                    if target is not None:
                        facts.writes.append((target, held, node))
                if isinstance(func.value, ast.Name) and func.value.id == "self":
                    facts.self_calls.append((func.attr, held))
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            target = _self_attr(node.value)
            if target is not None:
                facts.writes.append((target, held, node))
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                facts.accesses.append((attr, held, node))
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    facts.writes.append((attr, held, node))
    return facts


@register_rule
class LockGuardRule(Rule):
    id = "lock-guard"
    summary = "attributes written under a lock must never be touched without it"
    rationale = """
If a class writes ``self.attr`` inside ``with self._lock:`` anywhere, the
lock *is* the discipline for that attribute — an access on any lock-free
path races the guarded writers.  This is exactly the pre-PR-8 engine
memo bug (``move_to_end`` on an LRU dict another thread was evicting
from) and the journal ``_stale`` flag flipped outside the journal lock.
The rule infers the guarded set from writes (reads of config-like
attributes under a lock don't make them shared state) and credits
private helpers that are only ever called with the lock held — the
``_load_locked`` idiom needs no annotation.  Construction
(``__init__``-family methods) is exempt: no other thread has a
reference yet.

The fan-out form needs no class: a function that builds one fresh
mutable container (``{}``, ``[]``, ``set()``, ``dict(...)`` ...) and
puts that same object into every payload of a pool entry point
(``run_supervised``) has handed every thread-mode worker a reference to
it — and every process-mode worker a silent private copy.  The finding
lands on the line that creates the container.  Build one per payload,
send a lock along in the same payload tuple, or write down on that line
why unlocked sharing is harmless (a campaign's replica-reuse table is:
racing writers store equal values).
"""
    bad_example = """
class Cache:
    def put(self, key, value):
        with self._lock:
            self._entries[key] = value   # guarded write: _entries is shared

    def get(self, key):
        return self._entries.get(key)    # lock-free read races put()

def fan_out(shards):
    seen = {}                            # one dict ...
    run_supervised(_work, [(shard, seen) for shard in shards], jobs=4)
"""
    good_example = """
    def get(self, key):
        with self._lock:
            return self._entries.get(key)

def fan_out(shards):
    run_supervised(_work, [(shard, {}) for shard in shards], jobs=4)
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        # Only a file that names a pool entry point can fan out through one.
        entry_points = frozenset(
            name
            for name in getattr(config, "pool_entry_points", ())
            if name in ctx.source
        )
        for cls in ctx.nodes_of(ast.ClassDef):
            yield from self._check_class(ctx, cls)
        if entry_points:
            for func in ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef):
                yield from self._check_fan_out(ctx, func, entry_points)

    def _check_fan_out(
        self, ctx: FileContext, func: ast.AST, entry_points: frozenset
    ) -> Iterator[Finding]:
        """One fresh container in every payload of a pool call in ``func``."""
        own = list(_own_nodes(func))
        pool_calls = [
            node
            for node in own
            if isinstance(node, ast.Call)
            and call_name(node) in entry_points
            and len(node.args) >= 2
        ]
        if not pool_calls:
            return
        #: name -> the assignment that binds it by plain name in this body.
        assigned: Dict[str, ast.AST] = {}
        for node in own:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            if isinstance(target, ast.Name):
                assigned[target.id] = node
        builders = {
            item.name: item
            for item in ast.walk(func)
            if item is not func and isinstance(item, ast.FunctionDef)
        }

        def payload_names(expr: ast.AST, depth: int = 0) -> Iterator[str]:
            """Outer names that are direct elements of the payload tuples."""
            if depth > 4:
                return
            if isinstance(expr, ast.Name) and expr.id in assigned:
                yield from payload_names(assigned[expr.id].value, depth + 1)
            elif isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
                yield from payload_names(expr.elt, depth + 1)
            elif isinstance(expr, ast.List):
                for element in expr.elts:
                    yield from payload_names(element, depth + 1)
            elif isinstance(expr, ast.Tuple):
                for element in expr.elts:
                    if isinstance(element, ast.Name):
                        yield element.id
            elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
                builder = builders.get(expr.func.id)
                if builder is None:
                    return
                # ``def build(bounds, table=table)``: a defaulted parameter
                # is the outer object its default names.
                args = builder.args
                positional = args.posonlyargs + args.args
                defaults = (
                    [None] * (len(positional) - len(args.defaults))
                    + args.defaults
                    + args.kw_defaults
                )
                outer = {
                    param.arg: default.id if isinstance(default, ast.Name) else None
                    for param, default in zip(positional + args.kwonlyargs, defaults)
                }
                for node in _own_nodes(builder):
                    if isinstance(node, ast.Return) and node.value is not None:
                        for name in payload_names(node.value, depth + 1):
                            resolved = outer.get(name, name)
                            if resolved is not None:
                                yield resolved

        for call in pool_calls:
            names = list(payload_names(call.args[1]))
            if any(is_lockish_name(name) for name in names):
                continue  # a lock rides in the same payload
            for name in sorted(set(names)):
                site = assigned.get(name)
                kind = _fresh_container(site.value) if site is not None else None
                if kind is None:
                    continue
                yield Finding(
                    path=ctx.path,
                    line=site.lineno,
                    col=site.col_offset,
                    rule=self.id,
                    message=(
                        f"`{name}` is one {kind} placed in every payload of "
                        f"`{call_name(call)}(...)` in `{func.name}` — thread-mode "
                        "workers share it with no lock (process-mode workers "
                        "each get a copy); build one per payload, send a lock "
                        "with it, or justify the lock-free sharing inline"
                    ),
                )

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        lock_attrs = _class_lock_attrs(cls)
        methods = _methods_of(cls)
        facts = {
            name: _scan_method(method, lock_attrs)
            for name, method in methods.items()
            if name not in _INIT_METHODS
        }

        # Held-only inference for private helpers: a ``_name`` method whose
        # intra-class call sites all hold a lock inherits the intersection
        # of those locksets — the ``_load_locked`` idiom.  Public methods
        # are callable from outside the class, so they inherit nothing.
        call_sites: Dict[str, List[Tuple[str, frozenset]]] = {}
        for caller, fact in facts.items():
            for callee, held in fact.self_calls:
                call_sites.setdefault(callee, []).append((caller, held))
        entry_cache: Dict[str, frozenset] = {}

        def entry_held(name: str, stack: frozenset = frozenset()) -> frozenset:
            if name in entry_cache:
                return entry_cache[name]
            sites = call_sites.get(name, ())
            if (
                not sites
                or name in stack
                or not name.startswith("_")
                or name.startswith("__")
            ):
                return frozenset()
            held_sets = [
                held | entry_held(caller, stack | {name}) for caller, held in sites
            ]
            result = frozenset.intersection(*held_sets)
            entry_cache[name] = result
            return result

        # Guarded set: attributes written while at least one lock is held.
        guard_locks: Dict[str, Set[LockToken]] = {}
        for name, fact in facts.items():
            inherited = entry_held(name)
            for attr, held, _node in fact.writes:
                effective = held | inherited
                if effective and attr not in lock_attrs:
                    guard_locks.setdefault(attr, set()).update(effective)

        for name in sorted(facts):
            inherited = entry_held(name)
            for attr, held, node in facts[name].accesses:
                locks = guard_locks.get(attr)
                if not locks:
                    continue
                if (held | inherited) & locks:
                    continue
                lock_names = ", ".join(
                    sorted(token.render() for token in locks)
                )
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"`self.{attr}` is written under {lock_names} elsewhere "
                        f"in `{cls.name}` but accessed here with no lock held — "
                        "take the lock, or justify the lock-free path inline"
                    ),
                )


# ---------------------------------------------------------------------------
# Lock-order deadlock detection
# ---------------------------------------------------------------------------
def _qualify(token: LockToken, class_name: Optional[str]) -> str:
    """Project-wide identity of a lock token.

    ``self`` locks are per-class (``Engine._lock``); module-level names
    and lock-factory calls merge by bare name across files — locks are
    module-private in practice, and merging aliases of a shared lock is
    the conservative direction for deadlock detection.
    """
    if token.kind == "self":
        return f"{class_name}.{token.name}" if class_name else f"self.{token.name}"
    if token.kind == "call":
        return f"{token.name}()"
    return token.name


class _Scope:
    """One function/method: its acquisitions, edges and outgoing calls."""

    def __init__(self, key: str, ctx: FileContext, class_name: Optional[str]):
        self.key = key
        self.ctx = ctx
        self.class_name = class_name
        self.acquires: Set[str] = set()
        #: (held_lock, acquired_lock, site) observed directly in the body.
        self.edges: List[Tuple[str, str, ast.AST]] = []
        #: (callee_key, held_locks, site) for resolvable calls.
        self.calls: List[Tuple[str, frozenset, ast.AST]] = []


@register_rule
class LockOrderRule(Rule):
    id = "lock-order"
    summary = "locks must be acquired in one global order — cycles can deadlock"
    rationale = """
Two threads taking the same pair of locks in opposite orders deadlock the
first time their schedules interleave badly — and nothing fails in
single-threaded tests.  The rule builds a project-wide
acquired-while-holding graph (``with b:`` inside ``with a:`` adds the
edge ``a -> b``, including through calls into same-class methods and
same-file functions) and reports every cycle.  Self-edges are ignored:
re-entering the same lock is the documented ``RLock`` idiom, not an
ordering bug.
"""
    bad_example = """
def transfer(src, dst):
    with src_lock:
        with dst_lock: ...             # thread 1: src -> dst

def audit():
    with dst_lock:
        with src_lock: ...             # thread 2: dst -> src — deadlock
"""
    good_example = """
def transfer(src, dst):
    first, second = sorted([src_lock, dst_lock], key=id)
    with first:
        with second: ...               # one global order everywhere
"""

    def check_project(self, project: Project, config) -> Iterator[Finding]:
        scopes = self._collect_scopes(project)
        transitive_cache: Dict[str, Set[str]] = {}

        def transitive(key: str, stack: frozenset = frozenset()) -> Set[str]:
            if key in transitive_cache:
                return transitive_cache[key]
            if key in stack or key not in scopes:
                return set()
            scope = scopes[key]
            acquired = set(scope.acquires)
            for callee, _held, _site in scope.calls:
                acquired |= transitive(callee, stack | {key})
            transitive_cache[key] = acquired
            return acquired

        graph: Dict[str, Set[str]] = {}
        sites: Dict[Tuple[str, str], Tuple[FileContext, ast.AST]] = {}

        def add_edge(a: str, b: str, ctx: FileContext, node: ast.AST) -> None:
            if a == b:
                return  # RLock re-entry, not an ordering bug
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
            sites.setdefault((a, b), (ctx, node))

        for key in sorted(scopes):
            scope = scopes[key]
            for a, b, node in scope.edges:
                add_edge(a, b, scope.ctx, node)
            for callee, held, node in scope.calls:
                if not held:
                    continue
                for acquired in sorted(transitive(callee)):
                    for holder in sorted(held):
                        add_edge(holder, acquired, scope.ctx, node)

        for component in self._cycles(graph):
            cycle = sorted(component)
            edge = min(
                (
                    (a, b)
                    for (a, b) in sites
                    if a in component and b in component
                ),
                key=lambda pair: (
                    sites[pair][0].path,
                    sites[pair][1].lineno,
                    pair,
                ),
            )
            ctx, node = sites[edge]
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.id,
                message=(
                    "potential deadlock: locks {"
                    + ", ".join(cycle)
                    + "} are acquired in inconsistent order (here `"
                    + edge[1]
                    + "` is taken while holding `"
                    + edge[0]
                    + "`; the opposite order exists elsewhere)"
                ),
            )

    def _collect_scopes(self, project: Project) -> Dict[str, _Scope]:
        scopes: Dict[str, _Scope] = {}
        for ctx in project.files:
            class_of: Dict[int, ast.ClassDef] = {}
            class_locks: Dict[int, frozenset] = {}
            for cls in ctx.nodes_of(ast.ClassDef):
                class_locks[id(cls)] = _class_lock_attrs(cls)
                for item in cls.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        class_of[id(item)] = cls
            for node in ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef):
                cls = class_of.get(id(node))
                class_name = cls.name if cls is not None else None
                lock_attrs = (
                    class_locks[id(cls)] if cls is not None else frozenset()
                )
                key = self._scope_key(ctx.path, class_name, node.name)
                scope = _Scope(key, ctx, class_name)
                self._scan_scope(scope, node, lock_attrs)
                scopes[key] = scope
        return scopes

    @staticmethod
    def _scope_key(path: str, class_name: Optional[str], func: str) -> str:
        middle = f"{class_name}." if class_name else ""
        return f"{path}::{middle}{func}"

    def _scan_scope(
        self, scope: _Scope, func: ast.AST, lock_attrs: frozenset
    ) -> None:
        for node, held in walk_lock_regions(func, lock_attrs):
            held_q = frozenset(_qualify(t, scope.class_name) for t in held)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for token in with_lock_tokens(node, lock_attrs):
                    acquired = _qualify(token, scope.class_name)
                    scope.acquires.add(acquired)
                    for holder in sorted(held_q):
                        scope.edges.append((holder, acquired, node))
            elif isinstance(node, ast.Call):
                callee = self._resolve_call(scope, node)
                if callee is not None:
                    scope.calls.append((callee, held_q, node))

    def _resolve_call(self, scope: _Scope, call: ast.Call) -> Optional[str]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and scope.class_name is not None
        ):
            return self._scope_key(scope.ctx.path, scope.class_name, func.attr)
        if isinstance(func, ast.Name):
            return self._scope_key(scope.ctx.path, None, func.id)
        return None

    @staticmethod
    def _cycles(graph: Dict[str, Set[str]]) -> List[Set[str]]:
        """Strongly connected components of size >= 2 (Tarjan)."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[Set[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ not in index:
                    strongconnect(succ)
                    low[node] = min(low[node], low[succ])
                elif succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if low[node] == index[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) >= 2:
                    components.append(component)

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return components


# ---------------------------------------------------------------------------
# Asyncio hygiene
# ---------------------------------------------------------------------------
#: Dotted calls that block the event loop outright.
_BLOCKING_QUALIFIED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.system",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Path/file convenience methods — each one is synchronous disk I/O.
_BLOCKING_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Engine entry points: a direct call runs a full batch computation on
#: the event loop thread.  ``answer_inline`` (a memo hit, or a miss
#: ``INLINE_MAX_N`` bounds; ``None`` for the rest) is deliberately absent:
#: it holds the engine lock for dict operations only and is the one
#: engine call allowed on the loop.
_ENGINE_RUN_METHODS = frozenset({"run", "run_query", "run_queries"})

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a function's own body — nested ``def``/``lambda``/``class``
    bodies excluded (they may legitimately run in an executor thread)."""

    def visit(node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            return
        yield node
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    for stmt in getattr(func, "body", ()):
        yield from visit(stmt)


def _engineish(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Name):
        return "engine" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "engine" in expr.attr.lower()
    return False


def _engine_run(call: ast.Call) -> Optional[str]:
    """``engine.run(...)``-style call -> the method name; else ``None``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _ENGINE_RUN_METHODS
        and _engineish(func.value)
    ):
        return func.attr
    return None


def _engine_runners(cls: ast.ClassDef) -> Dict[str, str]:
    """Sync methods of ``cls`` whose own body runs the engine directly,
    each mapped to the engine method it calls: what an ``async def`` of
    the class may not call inline."""
    runners: Dict[str, str] = {}
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        for node in _own_nodes(item):
            if isinstance(node, ast.Call) and (method := _engine_run(node)):
                runners[item.name] = method
                break
    return runners


@register_rule
class AsyncHygieneRule(Rule):
    id = "async-hygiene"
    summary = "async def must not block the loop or drop coroutines/tasks"
    rationale = """
One blocking call inside ``async def`` stalls *every* request the daemon
is serving — the event loop has exactly one thread.  ``time.sleep``,
``os.fsync``, file I/O, ``subprocess`` and direct engine runs belong in
``asyncio.to_thread``/``run_in_executor`` (handing the *function* to the
executor, never calling it inline) — and so does a sync method of the
same class whose body runs the engine: calling it from ``async def`` is
one hop from the same stall, and is flagged at the call site.  One
engine call is allowed on the loop: ``engine.answer_inline(...)``, a
memo hit or a miss whose work the engine bounds (``INLINE_MAX_N``: a
stock counting, exact or Markov row of small ``n``, under a
millisecond); it returns ``None`` for every other row, which then goes
to the executor.  The rule also flags coroutine calls
whose result is discarded (the coroutine never runs — Python only warns
at garbage-collection time) and ``create_task``/``ensure_future``
results that are neither stored nor awaited (the task is eligible for GC
mid-flight and its exception is silently dropped).  Nested ``def``\\ s
are exempt: they typically *are* the executor payload.
"""
    bad_example = """
async def handle(self, request):
    answers = self.engine.run(queries)     # blocks the whole event loop
    answer = self._compute(query)          # a sync method that runs the engine
    asyncio.create_task(self._audit())     # task dropped: GC + lost errors
"""
    good_example = """
async def handle(self, request):
    answer = self.engine.answer_inline(query)  # a hit or a bounded miss
    if answer is None:                          # anything else: the executor
        answer = await asyncio.to_thread(self._compute, query)
    self._audit_task = asyncio.create_task(self._audit())
"""

    def check_project(self, project: Project, config) -> Iterator[Finding]:
        # A bare name is "a coroutine function" only if every definition of
        # that name in the project is async — `thread.start()` stays legal
        # even though an unrelated async `start` exists, as long as a sync
        # `start` exists too.
        async_names: Set[str] = set()
        sync_names: Set[str] = set()
        for ctx in project.files:
            async_names.update(f.name for f in ctx.nodes_of(ast.AsyncFunctionDef))
            sync_names.update(f.name for f in ctx.nodes_of(ast.FunctionDef))
        coroutine_names = async_names - sync_names
        for ctx in project.files:
            # Methods of a class with an async method: the sync ones that
            # run the engine may not be called from it inline.
            runners_of: Dict[int, Dict[str, str]] = {}
            for cls in ctx.nodes_of(ast.ClassDef):
                async_methods = [
                    item for item in cls.body if isinstance(item, ast.AsyncFunctionDef)
                ]
                runners = _engine_runners(cls) if async_methods else {}
                for method in async_methods:
                    runners_of[id(method)] = runners
            for func in ctx.nodes_of(ast.AsyncFunctionDef):
                yield from self._check_async_def(
                    ctx, func, coroutine_names, runners_of.get(id(func), {})
                )

    def _check_async_def(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        coroutine_names: Set[str],
        runners: Dict[str, str],
    ) -> Iterator[Finding]:
        for node in _own_nodes(func):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                yield from self._check_discard(ctx, node.value, coroutine_names)
            if isinstance(node, ast.Call):
                yield from self._check_blocking(ctx, node, runners)

    def _check_blocking(
        self, ctx: FileContext, call: ast.Call, runners: Dict[str, str]
    ) -> Iterator[Finding]:
        qualified = ctx.qualified_name(call.func)
        reason = None
        if qualified in _BLOCKING_QUALIFIED:
            reason = f"`{qualified}` blocks the event loop"
        elif isinstance(call.func, ast.Name) and call.func.id == "open":
            reason = "`open()` is synchronous file I/O"
        elif isinstance(call.func, ast.Attribute):
            method = _engine_run(call)
            helper = _self_attr(call.func)
            if call.func.attr in _BLOCKING_IO_METHODS:
                reason = f"`.{call.func.attr}()` is synchronous file I/O"
            elif method is not None:
                reason = (
                    f"direct `.{method}()` on an engine runs a full "
                    "batch computation on the event loop thread (only "
                    "`.answer_inline()`, which computes nothing past the "
                    "engine's bound, may run there)"
                )
            elif helper in runners:
                reason = (
                    f"`self.{helper}()` runs the engine (its body calls "
                    f"`.{runners[helper]}()`) on the event loop thread"
                )
        if reason is None:
            return
        yield Finding(
            path=ctx.path,
            line=call.lineno,
            col=call.col_offset,
            rule=self.id,
            message=(
                f"{reason} inside `async def` — route it through "
                "asyncio.to_thread/run_in_executor"
            ),
        )

    def _check_discard(
        self, ctx: FileContext, call: ast.Call, coroutine_names: Set[str]
    ) -> Iterator[Finding]:
        name = call_name(call)
        if name in _TASK_SPAWNERS:
            yield Finding(
                path=ctx.path,
                line=call.lineno,
                col=call.col_offset,
                rule=self.id,
                message=(
                    f"`{name}(...)` result is discarded — the task can be "
                    "garbage-collected mid-flight and its exception is lost; "
                    "store the task and handle/await it"
                ),
            )
        elif name in coroutine_names:
            yield Finding(
                path=ctx.path,
                line=call.lineno,
                col=call.col_offset,
                rule=self.id,
                message=(
                    f"coroutine `{name}(...)` is neither awaited nor stored — "
                    "it will never run"
                ),
            )


# ---------------------------------------------------------------------------
# Journal durability
# ---------------------------------------------------------------------------
def _is_open_call(expr: ast.AST, ctx: FileContext) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    if isinstance(expr.func, ast.Name) and expr.func.id == "open":
        return True
    if isinstance(expr.func, ast.Attribute) and expr.func.attr == "open":
        return True
    return ctx.qualified_name(expr.func) == "os.open"


def _fsync_key(call: ast.Call) -> Optional[str]:
    """``os.fsync(fd)`` / ``os.fsync(handle.fileno())`` -> handle name."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Name):
        return arg.id
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "fileno"
        and isinstance(arg.func.value, ast.Name)
    ):
        return arg.func.value.id
    return None


@register_rule
class JournalDurabilityRule(Rule):
    id = "journal-durability"
    summary = "journal writes must fsync before the guarding lock is released"
    rationale = """
The crash-recovery contract (PR 6/8) is "a crash loses at most the shard
being recorded" — which holds only if every journal ``write`` reaches
the disk before the writer drops the journal lock and lets a reader (or
a resuming daemon) believe the record is durable.  ``flush()`` moves
bytes to the OS page cache, not to disk; only ``os.fsync`` on the same
descriptor counts.  The rule matches write/fsync pairs per handle inside
each lock region (or the whole function when the path is lock-free) in
the modules declared as journal/checkpoint paths in the lint config.
"""
    bad_example = """
def record(self, entry):
    with _journal_lock(self.path):
        fd = os.open(self.path, os.O_APPEND | os.O_WRONLY)
        os.write(fd, entry)
        os.close(fd)                   # lock released, bytes still in cache
"""
    good_example = """
        os.write(fd, entry)
        os.fsync(fd)                   # durable before anyone can read it
        os.close(fd)
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        patterns = tuple(getattr(config, "journal_paths", ()))
        if not path_matches(ctx.path, patterns):
            return
        for func in ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        events = list(walk_lock_regions(func))
        handles: Set[str] = set()
        for node, _held in events:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _is_open_call(item.context_expr, ctx) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        handles.add(item.optional_vars.id)
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_open_call(node.value, ctx)
            ):
                handles.add(node.targets[0].id)

        writes: List[Tuple[str, frozenset, ast.Call]] = []
        fsyncs: List[Tuple[str, frozenset, int]] = []
        for node, held in events:
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified == "os.write" and node.args and isinstance(
                node.args[0], ast.Name
            ):
                writes.append((node.args[0].id, held, node))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in handles
            ):
                writes.append((node.func.value.id, held, node))
            elif qualified in ("os.fsync", "os.fdatasync"):
                key = _fsync_key(node)
                if key is not None:
                    fsyncs.append((key, held, node.lineno))

        for handle, held, node in writes:
            durable = any(
                key == handle and held <= fsync_held and lineno >= node.lineno
                for key, fsync_held, lineno in fsyncs
            )
            if durable:
                continue
            boundary = (
                "the guarding lock is released" if held else "the function returns"
            )
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.id,
                message=(
                    f"journal write via `{handle}` has no os.fsync on the same "
                    f"handle before {boundary} — a crash can lose a record the "
                    "journal already claims to hold"
                ),
            )
