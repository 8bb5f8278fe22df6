"""Path-scoped allowlist configuration for the contract checker.

A :class:`LintConfig` declares, per rule, *where* otherwise-banned
constructs are legitimate — the boundary modules that are allowed to
construct RNGs, the supervision/metrology modules that may read wall
clocks, which functions hand workers to pools, and which frozen
dataclasses must keep ``to_dict``/``cache_key`` field coverage in sync.

:data:`DEFAULT_CONFIG` encodes this repository's contracts.  Every
allowlist entry is a *justified* hole: the comment next to it says why
the path is exempt, exactly like an inline ``# repro: allow[...]``
comment justifies a single site.  Paths are matched with
:func:`fnmatch.fnmatch` against posix paths relative to the lint root,
so the same config works whether the checker is pointed at ``src/``,
``src/repro/`` or a temp tree in a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Mapping, Tuple


def path_matches(path: str, patterns: Tuple[str, ...]) -> bool:
    """Whether a root-relative posix path matches any allowlist pattern."""
    return any(fnmatch(path, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about one codebase's contracts."""

    #: Files never linted (globs against root-relative posix paths).
    exclude: Tuple[str, ...] = ()

    #: rule id -> path globs where the rule does not apply at all.
    rule_allow: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    #: Function names (worker-arg position 0) that hand callables to
    #: thread/process pools — workers must be module-level for pickling.
    pool_entry_points: Tuple[str, ...] = ("run_supervised",)

    #: Method names whose bodies feed serialized/hashed output; unsorted
    #: dict-view iteration inside them is an ordering hazard.
    codec_methods: Tuple[str, ...] = (
        "to_dict",
        "to_dicts",
        "to_json",
        "cache_key",
        "fleet_key",
        "chain_key",
        "fault_key",
        "behaviour_key",
        "grouping_key",
        "baseline_key",
    )

    #: Globs of modules whose frozen dataclasses must keep
    #: ``to_dict``/``cache_key`` field coverage complete.
    cache_key_modules: Tuple[str, ...] = ()

    #: "ClassName.field" -> justification for exemption from coverage.
    #: Provenance-only fields (labels, display hints) belong here.
    field_exemptions: Mapping[str, str] = field(default_factory=dict)

    #: Globs of modules holding checkpoint/journal write paths, where the
    #: journal-durability rule demands an ``os.fsync`` for every write
    #: before the guarding lock is released.  Scoped because ordinary file
    #: output (reports, plots) legitimately trades durability for speed.
    journal_paths: Tuple[str, ...] = (
        "*repro/runtime.py",  # CampaignCheckpoint journals (PR 6)
        "*chaos.py",  # chaos-harness crash markers piggyback on the journal
        "*journal*",
        "*checkpoint*",
    )

    def allowed(self, rule_id: str, path: str) -> bool:
        return path_matches(path, tuple(self.rule_allow.get(rule_id, ())))

    def exempt_field(self, class_name: str, field_name: str) -> bool:
        return f"{class_name}.{field_name}" in self.field_exemptions


#: The contracts of this repository.  Each allowlist entry is a declared,
#: justified boundary — everything else must thread ``rng``/``seed``
#: parameters, stay clock-free, and keep its keys covered.
DEFAULT_CONFIG = LintConfig(
    exclude=(
        # Generated/cache artifacts; tests and benchmarks are linted only
        # when explicitly pointed at (the self-lint scope is src/repro).
        "*/__pycache__/*",
    ),
    rule_allow={
        "rng-discipline": (
            # The seed-coercion module itself: the single place ambient
            # construction is the job.
            "*repro/_rng.py",
            # Shard-stream boundary: SeedSequence.spawn children are minted
            # and rebuilt into generators here (PR 3's worker-count-
            # independent plans); everything downstream receives streams.
            "*repro/analysis/kernels.py",
            # Per-trajectory spawn streams for batched Gillespie runs
            # (PR 4); the module is the declared trajectory-stream boundary.
            "*repro/markov/simulate.py",
        ),
        "wall-clock": (
            # Supervision reads real deadlines/backoff clocks by design;
            # no estimator output flows from them (PR 6).
            "*repro/runtime.py",
            # The serving daemon measures request latency and uptime —
            # wall-clock by nature (PR 8); no answer value flows from
            # either, which tests/test_serve.py proves by bit-comparing
            # daemon answers against direct engine runs.
            "*repro/serve/*",
            # Tracing/profiling is metrology by definition: repro.obs
            # reads clocks through its single declared shim
            # (obs/clock.py) to timestamp spans, and no answer value
            # flows from any reading — tests/test_obs.py pins answers
            # bit-identical with tracing disabled, enabled, and
            # exporting (PR 10).
            "*repro/obs/*",
        ),
    },
    cache_key_modules=(
        "*repro/engine/scenario.py",
        "*repro/engine/query.py",
        "*repro/injection/plan.py",
    ),
    field_exemptions={
        # Estimator *name* is resolved before keying: a row is keyed on
        # the concrete resolved method (see Scenario.cache_key docstring).
        "Scenario.method": "cache_key takes the post-'auto' resolved_method",
        # The base class opts out of the memo; each concrete kind that
        # opts in builds its own key, and that key is checked in full.
        "Query.scenario": "the base cache_key is None: never reusable",
        # Provenance-only metadata: never influences estimator output.
        "Scenario.label": "display-only provenance",
        "Scenario.window_hours": "display-only provenance (horizon stamp)",
    },
)
