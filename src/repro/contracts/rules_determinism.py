"""Determinism rules: RNG discipline, wall-clock hygiene, iteration order.

These three families guard the seed-stream contracts every PR leans on:
answers must be a pure function of ``(inputs, seed)``, so library code may
neither mint its own entropy, nor read clocks into results, nor let
hash-ordering leak into serialized/hashed output.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.contracts.core import FileContext, Finding, Project, Rule, register_rule

#: Qualified-name prefixes whose *calls* construct or advance ambient
#: randomness.  ``numpy.random.*`` covers both the modern constructors
#: (default_rng, Generator, SeedSequence, PCG64, ...) and the legacy
#: module-level sampling functions (rand, randint, shuffle, ...), all of
#: which either mint entropy or mutate hidden global state.
_RNG_PREFIXES = ("numpy.random.", "random.", "secrets.")

#: Wall-clock / ambient-entropy reads banned in deterministic paths.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


@register_rule
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    summary = "no ambient RNG construction outside repro._rng and declared boundaries"
    rationale = """
Every estimator, simulator and injector draws from a stream the caller
threads in (an ``rng=``/``seed=`` parameter, ultimately a
``SeedSequence.spawn`` child — the PR 3 contract that makes campaign
answers invariant to worker count).  A stray ``np.random.default_rng()``
or ``random.random()`` inside library code silently re-seeds from OS
entropy, and the bit-identity tests can't see it until someone writes the
exact regression (PR 6's review found one in engine.chaos).  Construction
is legal only in ``repro._rng`` and the declared shard/trajectory stream
boundaries (``analysis/kernels.py``, ``markov/simulate.py``).
"""
    bad_example = """
def sample(spec, trials):
    rng = np.random.default_rng()      # ambient entropy
    return rng.random(trials)
"""
    good_example = """
def sample(spec, trials, *, rng):      # caller threads the stream
    return rng.random(trials)
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        for node in ctx.nodes_of(ast.Call):
            name = ctx.qualified_name(node.func)
            if name is None:
                continue
            if any(
                name.startswith(prefix) or name == prefix.rstrip(".")
                for prefix in _RNG_PREFIXES
            ):
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"ambient RNG use `{name}` — construct streams in "
                        "repro._rng / a declared boundary module and thread "
                        "an rng=/seed= parameter instead"
                    ),
                )


@register_rule
class WallClockRule(Rule):
    id = "wall-clock"
    summary = "no wall-clock or ambient-entropy reads in deterministic paths"
    rationale = """
Estimator, simulator and injection code must produce the same answer for
the same ``(inputs, seed)`` on every run and every host.  ``time.time``,
``datetime.now``, ``perf_counter``, ``os.urandom`` and ``uuid`` reads
break that the moment their value flows into a result, a cache key or a
trace.  Supervision genuinely needs deadlines (``repro.runtime``), the
daemon measures request latency (``repro.serve``) and spans are
timestamped through one shim (``repro.obs``) — those are the declared
clock boundaries in the config; everywhere else sim-time comes from the
event scheduler, not the host clock, and what a computation cost is read
off its span, never stored in its answer.
"""
    bad_example = """
def audit(trace):
    stamp = time.time()                # host clock into a result
    return Verdict(at=stamp, ok=check(trace))
"""
    good_example = """
def audit(trace, now):                 # sim-time threaded by the scheduler
    return Verdict(at=now, ok=check(trace))
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        for node in ctx.nodes_of(ast.Call):
            name = ctx.qualified_name(node.func)
            if name in _CLOCK_CALLS:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"wall-clock/entropy read `{name}` in a deterministic "
                        "path — thread sim-time/identity in, or declare the "
                        "module a clock boundary in the lint config"
                    ),
                )


#: Consumers whose output does not depend on input order: iterating an
#: unordered collection directly into one of these is safe.
_ORDER_NEUTRAL_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)


#: Where iteration order is decided: ``for`` statements and comprehensions.
_ITERATION_SITES = (ast.For, ast.AsyncFor, ast.comprehension)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


@register_rule
class IterationOrderRule(Rule):
    id = "iter-order"
    summary = "no unsorted set/dict-view iteration feeding serialized or hashed output"
    rationale = """
Set iteration order depends on insertion history and — for strings — on
the per-process hash seed, so a set iterated into a ``to_dict`` payload,
a ``cache_key`` tuple or a JSON file can differ between two runs of the
same seed.  Sets are flagged everywhere (wrap in ``sorted()`` or consume
order-neutrally); raw ``.keys()/.values()/.items()`` iteration is flagged
inside codec methods (``to_dict``/``cache_key``/...), where insertion
order is an accident of construction rather than a declared contract —
``_freeze`` in injection/plan.py shows the sorted idiom.
"""
    bad_example = """
def cache_key(self):
    return tuple(self.members)         # self.members is a set
"""
    good_example = """
def cache_key(self):
    return tuple(sorted(self.members))
"""

    def check_file(
        self, ctx: FileContext, project: Project, config
    ) -> Iterator[Finding]:
        neutral = self._order_neutral_nodes(ctx)
        codec_sites = self._codec_sites(ctx, config)
        for site in ctx.nodes_of(*_ITERATION_SITES):
            iter_node = site.iter
            in_codec = id(site) in codec_sites
            if id(iter_node) in neutral:
                continue
            if _is_set_expr(iter_node):
                what = "a set"
            elif in_codec and _is_dict_view(iter_node):
                what = f"dict .{iter_node.func.attr}()"
            else:
                continue
            yield Finding(
                path=ctx.path,
                line=iter_node.lineno,
                col=iter_node.col_offset,
                rule=self.id,
                message=(
                    f"iterating {what} without sorted() "
                    + (
                        "inside a codec method — ordering leaks into "
                        "serialized/hashed output"
                        if in_codec
                        else "— set order is hash/insertion dependent; "
                        "wrap in sorted() or consume order-neutrally"
                    )
                ),
            )

    @staticmethod
    def _codec_sites(ctx: FileContext, config) -> Set[int]:
        """ids of the for/comprehension nodes inside a codec method."""
        names = set(config.codec_methods)
        return {
            id(site)
            for func in ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef)
            if func.name in names
            for site in ast.walk(func)
            if isinstance(site, _ITERATION_SITES)
        }

    @staticmethod
    def _order_neutral_nodes(ctx: FileContext) -> Set[int]:
        """ids of iterable expressions consumed order-neutrally.

        ``sorted(x)`` neutralizes ``x``; ``sorted(f(v) for v in x)``
        neutralizes the generator *and* its source iterables.
        """
        neutral: Set[int] = set()
        for node in ctx.nodes_of(ast.Call):
            if not isinstance(node.func, ast.Name):
                continue
            if node.func.id not in _ORDER_NEUTRAL_CALLS:
                continue
            for arg in node.args:
                neutral.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    for gen in arg.generators:
                        neutral.add(id(gen.iter))
        return neutral
