"""Tests for the contract checker itself (repro.contracts).

Every rule family is proven both to fire on a minimal bad snippet and to
stay quiet on the corresponding good snippet — a lint rule that cannot
demonstrate both is either dead or noisy.  Suppression comments, path
allowlists, baseline semantics and the JSON report schema are covered
here too; the self-lint of ``src/repro`` lives in test_contracts_self.py.
"""

import json
import textwrap

import pytest

from repro.contracts import (
    DEFAULT_CONFIG,
    LintConfig,
    LintResult,
    lint_sources,
    load_baseline,
    registered_rules,
    render_json,
    render_text,
    save_baseline,
    split_against_baseline,
)
from repro.contracts.core import Finding

pytestmark = pytest.mark.lint


def run(source, *, path="app/mod.py", rules=None, config=None):
    """Lint one dedented in-memory module and return its findings."""
    findings = lint_sources(
        {path: textwrap.dedent(source)},
        config=DEFAULT_CONFIG if config is None else config,
        rules=rules,
    )
    return findings


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------
class TestRngDiscipline:
    def test_fires_on_ambient_default_rng(self):
        findings = run(
            """
            import numpy as np

            def sample(trials):
                rng = np.random.default_rng()
                return rng.random(trials)
            """,
            rules=["rng-discipline"],
        )
        assert rule_ids(findings) == ["rng-discipline"]
        assert "numpy.random.default_rng" in findings[0].message

    def test_fires_on_from_import_and_stdlib_random(self):
        findings = run(
            """
            import random
            from numpy.random import SeedSequence

            def jitter():
                seq = SeedSequence()
                return random.random() + random.randint(0, 3)
            """,
            rules=["rng-discipline"],
        )
        assert rule_ids(findings) == ["rng-discipline"] * 3

    def test_quiet_when_stream_is_threaded(self):
        findings = run(
            """
            def sample(trials, *, rng):
                return rng.random(trials)

            def spawn(seed, rng_factory):
                return rng_factory(seed)
            """,
            rules=["rng-discipline"],
        )
        assert findings == []

    def test_boundary_module_is_allowlisted(self):
        source = """
        import numpy as np

        def as_generator(seed):
            return np.random.default_rng(seed)
        """
        inside = run(source, path="repro/_rng.py", rules=["rng-discipline"])
        outside = run(source, path="repro/analysis/spec.py", rules=["rng-discipline"])
        assert inside == []
        assert rule_ids(outside) == ["rng-discipline"]


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_fires_on_clock_and_entropy_reads(self):
        findings = run(
            """
            import os
            import time
            import uuid
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now(), uuid.uuid4(), os.urandom(8)
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(findings) == ["wall-clock"] * 4

    def test_quiet_on_sleep_and_threaded_time(self):
        findings = run(
            """
            import time

            def audit(trace, now):
                time.sleep(0.01)
                return (now, len(trace))
            """,
            rules=["wall-clock"],
        )
        assert findings == []

    def test_supervision_boundary_is_allowlisted(self):
        source = """
        import time

        def deadline(budget):
            return time.monotonic() + budget
        """
        inside = run(source, path="repro/runtime.py", rules=["wall-clock"])
        outside = run(source, path="repro/sim/cluster.py", rules=["wall-clock"])
        assert inside == []
        assert rule_ids(outside) == ["wall-clock"]


# ---------------------------------------------------------------------------
# iter-order
# ---------------------------------------------------------------------------
class TestIterationOrder:
    def test_fires_on_set_iteration(self):
        findings = run(
            """
            def labels(nodes):
                out = []
                for node in {n.strip() for n in nodes}:
                    out.append(node)
                return out
            """,
            rules=["iter-order"],
        )
        assert rule_ids(findings) == ["iter-order"]

    def test_fires_on_dict_view_in_codec_method(self):
        findings = run(
            """
            class Plan:
                def to_dict(self):
                    return [self.data[k] for k in self.data.keys()]
            """,
            rules=["iter-order"],
        )
        assert rule_ids(findings) == ["iter-order"]
        assert "codec" in findings[0].message

    def test_dict_view_quiet_outside_codec_methods(self):
        findings = run(
            """
            class Plan:
                def describe(self):
                    return [self.data[k] for k in self.data.keys()]
            """,
            rules=["iter-order"],
        )
        assert findings == []

    def test_sorted_and_order_neutral_consumers_are_quiet(self):
        findings = run(
            """
            def cache_key(self):
                total = sum(v for v in self.weights)
                names = tuple(sorted({n for n in self.members}))
                return (total, names, sorted(self.data.items()))
            """,
            rules=["iter-order"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# pool-safety
# ---------------------------------------------------------------------------
class TestPoolSafety:
    def test_fires_on_lambda_worker(self):
        findings = run(
            """
            def campaign(payloads):
                return run_supervised(lambda p: p * 2, payloads, jobs=4)
            """,
            rules=["pool-safety"],
        )
        assert rule_ids(findings) == ["pool-safety"]
        assert "lambda" in findings[0].message

    def test_fires_on_nested_function_worker(self):
        findings = run(
            """
            def campaign(spec, payloads):
                def worker(payload):
                    return spec, payload
                return run_supervised(worker, payloads)
            """,
            rules=["pool-safety"],
        )
        assert rule_ids(findings) == ["pool-safety"]
        assert "worker" in findings[0].message

    def test_fires_on_lambda_bound_to_a_name(self):
        findings = run(
            """
            def group(crash, ranges, jobs):
                sweep = lambda bounds: crash[bounds[0] : bounds[1]]
                return run_supervised(sweep, ranges, jobs=jobs, mode="process")
            """,
            rules=["pool-safety"],
        )
        assert rule_ids(findings) == ["pool-safety"]
        assert "lambda `sweep`" in findings[0].message

    def test_quiet_on_module_level_worker_named_like_a_local_lambda(self):
        findings = run(
            """
            def sweep(bounds):
                return bounds

            def elsewhere(items):
                sweep = lambda bounds: bounds
                return [sweep(item) for item in items]

            def group(ranges, jobs):
                return run_supervised(sweep, ranges, jobs=jobs, mode="process")
            """,
            rules=["pool-safety"],
        )
        assert findings == []

    def test_fires_on_submit_lambda(self):
        findings = run(
            """
            def fan_out(executor, items):
                return [executor.submit(lambda: item) for item in items]
            """,
            rules=["pool-safety"],
        )
        assert rule_ids(findings) == ["pool-safety"]

    def test_quiet_on_module_level_worker(self):
        findings = run(
            """
            def _chunk_worker(payload):
                return payload * 2

            def campaign(payloads):
                return run_supervised(_chunk_worker, payloads, jobs=4)
            """,
            rules=["pool-safety"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# cache-key-coverage
# ---------------------------------------------------------------------------
def coverage_config(**kwargs):
    return LintConfig(cache_key_modules=("*keyed.py",), **kwargs)


class TestCacheKeyCoverage:
    def test_fires_on_missing_field(self):
        findings = run(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                events: tuple
                adversary: str = "none"

                def cache_key(self):
                    return (self.events,)
            """,
            path="app/keyed.py",
            rules=["cache-key-coverage"],
            config=coverage_config(),
        )
        assert rule_ids(findings) == ["cache-key-coverage"]
        assert "adversary" in findings[0].message

    def test_quiet_on_full_coverage_and_helper_chasing(self):
        findings = run(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                events: tuple
                adversary: str = "none"

                def fault_key(self):
                    return (self.events,)

                def cache_key(self):
                    return self.fault_key() + (self.adversary,)

                def to_dict(self):
                    return {"events": self.events, "adversary": self.adversary}
            """,
            path="app/keyed.py",
            rules=["cache-key-coverage"],
            config=coverage_config(),
        )
        assert findings == []

    def test_fields_call_counts_as_full_coverage(self):
        findings = run(
            """
            from dataclasses import dataclass, fields

            @dataclass(frozen=True)
            class Plan:
                events: tuple
                adversary: str = "none"

                def to_dict(self):
                    return {f.name: getattr(self, f.name) for f in fields(self)}
            """,
            path="app/keyed.py",
            rules=["cache-key-coverage"],
            config=coverage_config(),
        )
        assert findings == []

    def test_inherited_fields_are_required(self):
        findings = run(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Base:
                scenario: str = ""

            @dataclass(frozen=True)
            class Child(Base):
                extra: int = 0

                def cache_key(self):
                    return (self.extra,)
            """,
            path="app/keyed.py",
            rules=["cache-key-coverage"],
            config=coverage_config(),
        )
        assert rule_ids(findings) == ["cache-key-coverage"]
        assert "scenario" in findings[0].message

    def test_exempt_field_is_quiet(self):
        findings = run(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                events: tuple
                label: str = ""

                def cache_key(self):
                    return (self.events,)
            """,
            path="app/keyed.py",
            rules=["cache-key-coverage"],
            config=coverage_config(
                field_exemptions={"Plan.label": "display-only provenance"}
            ),
        )
        assert findings == []

    def test_in_class_campaign_key_catches_drift(self):
        """The campaign key moved from a bound module-level function onto
        ``SimulationQuery.cache_key``; the ordinary in-class pass must
        still catch a field the key forgot — through helper methods the
        class inherits, too."""
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Query:
                scenario: str = ""

                def seed_key(self):
                    return (self.scenario,)

            @dataclass(frozen=True)
            class Campaign(Query):
                replicas: int = 1
                duration: float = 1.0
                faults: tuple = ()

                def fault_key(self):
                    return self.faults

                def cache_key(self, shard_trials):
                    return ("campaign", self.seed_key(), self.replicas, {tail})
        """
        kwargs = dict(
            path="app/keyed.py", rules=["cache-key-coverage"], config=coverage_config()
        )
        findings = run(source.format(tail="self.fault_key()"), **kwargs)
        assert rule_ids(findings) == ["cache-key-coverage"]
        assert "Campaign.cache_key does not cover field `duration`" in (
            findings[0].message
        )
        assert run(source.format(tail="self.duration, self.fault_key()"), **kwargs) == []


# ---------------------------------------------------------------------------
# except-hygiene
# ---------------------------------------------------------------------------
class TestExceptHygiene:
    def test_fires_on_bare_except(self):
        findings = run(
            """
            def safe(worker, payload):
                try:
                    return worker(payload)
                except:
                    return None
            """,
            rules=["except-hygiene"],
        )
        assert rule_ids(findings) == ["except-hygiene"]
        assert "bare" in findings[0].message

    def test_fires_on_dropped_broad_exception(self):
        findings = run(
            """
            def safe(worker, payload):
                try:
                    return worker(payload)
                except Exception:
                    return None
            """,
            rules=["except-hygiene"],
        )
        assert rule_ids(findings) == ["except-hygiene"]

    def test_quiet_when_error_is_attributed_or_reraised(self):
        findings = run(
            """
            def attributed(worker, payload, report):
                try:
                    return worker(payload)
                except Exception as error:
                    report.attribute(payload, error)
                    return None

            def reraised(worker, payload):
                try:
                    return worker(payload)
                except (Exception,):
                    raise RuntimeError("shard failed")
            """,
            rules=["except-hygiene"],
        )
        assert findings == []

    def test_narrow_handlers_are_quiet(self):
        findings = run(
            """
            def parse(text):
                try:
                    return int(text)
                except ValueError:
                    return None
            """,
            rules=["except-hygiene"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# import-discipline
# ---------------------------------------------------------------------------
class TestImportDiscipline:
    def test_fires_on_module_top_third_party_imports(self):
        findings = run(
            """
            import scipy.optimize
            from scipy import stats
            import requests as http
            """,
            rules=["import-discipline"],
        )
        assert rule_ids(findings) == ["import-discipline"] * 3
        assert "scipy.optimize" in findings[0].message

    def test_fires_on_function_local_import(self):
        findings = run(
            """
            def binomial_tail(n, p, at_most):
                from scipy import stats
                return float(stats.binom.cdf(at_most, n, p))
            """,
            rules=["import-discipline"],
        )
        assert rule_ids(findings) == ["import-discipline"]
        assert findings[0].line == 3

    def test_quiet_on_stdlib_numpy_repro_and_relative_imports(self):
        findings = run(
            """
            from __future__ import annotations

            import math, os.path
            import numpy.linalg
            import numpy as np
            from numpy.random import SeedSequence
            from statistics import NormalDist
            from repro._stats import binom_cdf
            from . import sibling
            from .sibling import helper
            from ..errors import ReproError

            def late():
                import resource
                return resource
            """,
            path="repro/pkg/mod.py",
            rules=["import-discipline"],
        )
        assert findings == []

    def test_default_config_has_no_allow_entry(self):
        # The rule is unconditional: a boundary module for third-party
        # imports is exactly what it exists to prevent.
        assert "import-discipline" not in DEFAULT_CONFIG.rule_allow


# ---------------------------------------------------------------------------
# Suppressions, parse errors, config scoping
# ---------------------------------------------------------------------------
class TestSuppressions:
    SOURCE = """
    import time

    def stamp():{same_line}
        return time.time(){marker}
    """

    def test_marker_on_finding_line(self):
        findings = run(
            self.SOURCE.format(
                same_line="", marker="  # repro: allow[wall-clock] -- test"
            ),
            rules=["wall-clock"],
        )
        assert findings == []

    def test_marker_on_line_above(self):
        findings = run(
            """
            import time

            def stamp():
                # repro: allow[wall-clock] -- metrology only
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert findings == []

    def test_wildcard_marker_allows_all_rules(self):
        findings = run(
            """
            import time

            def stamp():
                return time.time()  # repro: allow[*]
            """,
            rules=["wall-clock"],
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = run(
            self.SOURCE.format(
                same_line="", marker="  # repro: allow[rng-discipline]"
            ),
            rules=["wall-clock"],
        )
        assert rule_ids(findings) == ["wall-clock"]

    def test_marker_two_lines_above_is_out_of_range(self):
        findings = run(
            """
            import time

            def stamp():
                # repro: allow[wall-clock] -- too far away
                x = 1
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(findings) == ["wall-clock"]


def test_syntax_error_becomes_parse_error_finding():
    findings = run("def broken(:\n    pass\n")
    assert rule_ids(findings) == ["parse-error"]
    assert "does not parse" in findings[0].message


def test_excluded_paths_are_skipped():
    config = LintConfig(exclude=("*/generated/*",))
    findings = lint_sources(
        {"app/generated/mod.py": "import time\nstamp = time.time()\n"},
        config=config,
        rules=["wall-clock"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Baseline semantics
# ---------------------------------------------------------------------------
def finding(path="a.py", line=1, rule="wall-clock", message="m"):
    return Finding(path=path, line=line, col=0, rule=rule, message=message)


class TestBaseline:
    def test_split_new_baselined_and_stale(self):
        current = [finding(line=3, message="m1"), finding(line=9, message="m2")]
        baseline = [("a.py", "wall-clock", "m1"), ("b.py", "wall-clock", "gone")]
        new, baselined, stale = split_against_baseline(current, baseline)
        assert [f.message for f in new] == ["m2"]
        assert [f.message for f in baselined] == ["m1"]
        assert stale == [("b.py", "wall-clock", "gone")]

    def test_matching_is_line_independent(self):
        new, baselined, _ = split_against_baseline(
            [finding(line=999, message="m1")], [("a.py", "wall-clock", "m1")]
        )
        assert new == [] and len(baselined) == 1

    def test_duplicate_findings_need_duplicate_entries(self):
        # One baseline row buys exactly one copy of the violation: a second
        # identical site is still a new finding.
        current = [finding(line=1, message="dup"), finding(line=2, message="dup")]
        new, baselined, _ = split_against_baseline(
            current, [("a.py", "wall-clock", "dup")]
        )
        assert len(baselined) == 1 and len(new) == 1

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([finding(message="kept")], path)
        assert load_baseline(path) == [("a.py", "wall-clock", "kept")]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99}')
        with pytest.raises(Exception):
            load_baseline(path)


# ---------------------------------------------------------------------------
# Report schema and explain text
# ---------------------------------------------------------------------------
class TestReports:
    def result(self):
        new = finding(message="fresh")
        old = finding(line=5, message="known")
        return LintResult(
            findings=(new, old),
            new=(new,),
            baselined=(old,),
            stale_baseline=(("b.py", "wall-clock", "gone"),),
            files_checked=2,
        )

    def test_json_schema_is_stable(self):
        data = json.loads(render_json(self.result()))
        assert sorted(data) == [
            "counts",
            "files_checked",
            "findings",
            "ok",
            "stale_baseline",
            "version",
        ]
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["counts"] == {"total": 2, "new": 1, "baselined": 1}
        row = data["findings"][0]
        assert sorted(row) == ["baselined", "col", "line", "message", "path", "rule"]
        flags = {r["message"]: r["baselined"] for r in data["findings"]}
        assert flags == {"fresh": False, "known": True}

    def test_text_report_mentions_new_findings_and_stale_rows(self):
        text = render_text(self.result())
        assert "fresh" in text
        assert "FAIL" in text
        assert "stale" in text.lower()
        ok_text = render_text(
            LintResult(findings=(), new=(), baselined=(), files_checked=3)
        )
        assert "ok" in ok_text

    def test_every_rule_has_a_complete_explain(self):
        rules = registered_rules()
        assert set(rules) == {
            "rng-discipline",
            "wall-clock",
            "iter-order",
            "pool-safety",
            "cache-key-coverage",
            "except-hygiene",
            "import-discipline",
            "lock-guard",
            "lock-order",
            "async-hygiene",
            "journal-durability",
        }
        for rule_id, rule in rules.items():
            text = rule.explain()
            assert rule_id in text
            assert "Bad:" in text and "Good:" in text
            assert "repro: allow[" in text
