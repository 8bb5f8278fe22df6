"""``repro.contracts`` — static determinism & concurrency contract checks.

Every landed PR leans on the same invariants: seed-stream discipline
(``SeedSequence.spawn`` children, never ambient RNG), jobs-invariance,
picklable process-pool workers, cache keys that cover every field that
changes an answer, and worker errors that are attributed instead of
swallowed.  Until now these were enforced only *dynamically*, by
bit-identity tests that can't see a violation until someone writes the
exact regression.  This package enforces the statically-detectable
classes at the AST level — stdlib :mod:`ast`, no new dependencies, one
traversal per file shared by every rule — and runs in tier-1
(``tests/test_contracts_self.py``) so a violation fails ``pytest -x -q``
before it can ship.

Rule families (``repro-analyze lint --explain RULE-ID`` for details):

``rng-discipline``
    No ``np.random.default_rng``/``SeedSequence``/``random.*`` calls
    outside ``repro._rng`` and the declared stream boundaries — library
    code threads ``rng``/``seed`` parameters (the PR 3 spawn contract).
``wall-clock``
    No ``time.time``/``datetime.now``/``perf_counter``/``os.urandom``/
    ``uuid`` in deterministic paths; supervision (``repro.runtime``),
    the daemon (``repro.serve``) and the tracer's clock shim
    (``repro.obs``) are the declared clock boundaries.
``iter-order``
    No unsorted set iteration anywhere; no raw dict-view iteration inside
    codec methods (``to_dict``/``cache_key``/...) — hash order must never
    leak into serialized or hashed output.
``pool-safety``
    Workers handed to ``run_supervised`` must be module-level callables
    — lambdas/closures break process-pool pickling only at runtime
    (PR 3/PR 6).
``cache-key-coverage``
    Every field of the frozen query/scenario/plan dataclasses must flow
    into both ``to_dict`` and the class's ``cache_key`` (helper methods,
    inherited ones included, are followed) — the ``behaviour_build``
    drift class from PR 5's review, caught statically.
``except-hygiene``
    No bare ``except:``; a broad ``except Exception`` must re-raise or
    use the bound error (attribution into a ``RunReport`` counts) — the
    swallowed-worker-error class PR 6 fixed by hand.
``import-discipline``
    Every ``import``/``from ... import`` — module-top or function-local —
    resolves to the standard library, ``numpy`` or ``repro``; SciPy is a
    test-only oracle (PR 19's ``repro._stats``).
``lock-guard``
    Attributes a class writes under a lock are shared state — accesses on
    lock-free paths race the guarded writers (the pre-PR-8 engine memo
    and journal ``_stale`` bugs, found by lockset inference).
``lock-order``
    One global lock order, enforced over a project-wide
    acquired-while-holding graph — a cycle is a potential deadlock that
    single-threaded tests can never hit.
``async-hygiene``
    No blocking calls (``time.sleep``, ``os.fsync``, file I/O,
    ``subprocess``, direct engine runs) inside ``async def`` unless
    routed through an executor; no discarded coroutines or
    ``create_task`` results (PR 8's asyncio daemon).
``journal-durability``
    Every journal/checkpoint write must ``os.fsync`` the same handle
    before its guarding lock is released — ``flush()`` is page cache,
    not durability (PR 6's crash-loses-at-most-one-shard contract).

Single-site escapes are inline ``# repro: allow[rule-id] -- reason``
comments; whole-module boundaries live in the
:data:`~repro.contracts.config.DEFAULT_CONFIG` allowlist, each entry with
its justification.  Pre-existing debt can be carried in a committed
baseline file (``repro-analyze lint --baseline FILE``) — new findings
still fail.
"""

from __future__ import annotations

from repro.contracts.checker import (
    ContractViolationError,
    LintResult,
    lint_paths,
    lint_sources,
    load_baseline,
    save_baseline,
    split_against_baseline,
)
from repro.contracts.config import DEFAULT_CONFIG, LintConfig
from repro.contracts.core import Finding, Rule, register_rule, registered_rules
from repro.contracts.report import render_json, render_sarif, render_text

__all__ = [
    "ContractViolationError",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "lint_paths",
    "lint_sources",
    "load_baseline",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "save_baseline",
    "split_against_baseline",
]
