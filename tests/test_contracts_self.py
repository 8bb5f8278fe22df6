"""Tier-1 self-lint: the contract checker run over this repository.

The baseline at ``tests/data/contracts_baseline.json`` is empty on
purpose — every historical violation was either fixed (ambient RNG
construction in engine.chaos / engine.backends) or justified in place
(path allowlists in :data:`repro.contracts.DEFAULT_CONFIG`, inline
``# repro: allow[...]`` markers).  A new violation anywhere in
``src/repro`` therefore fails ``pytest -x -q`` with the offending
file:line, and ``repro-analyze lint`` exits non-zero with the same list.

One dynamic check rides along: every query class in the engine's kind
table must round-trip through its dict codec and build a hashable cache
key.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.contracts import DEFAULT_CONFIG, lint_paths

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "tests" / "data" / "contracts_baseline.json"


@pytest.fixture(scope="module")
def package_lint_run():
    """One lint of all of ``src/repro``, shared by the tests that read it,
    with every whole-module ``ast.walk`` it made recorded beside it."""
    real_walk = ast.walk
    module_walks = []

    def recording_walk(node):
        if isinstance(node, ast.Module):
            module_walks.append(node)
        return real_walk(node)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "walk", recording_walk)
        result = lint_paths([PACKAGE_ROOT], baseline=BASELINE)
    return result, module_walks


@pytest.fixture(scope="module")
def package_lint(package_lint_run):
    return package_lint_run[0]


def test_package_is_contract_clean(package_lint):
    assert package_lint.files_checked > 50, "lint scope collapsed — wrong root?"
    rendered = "\n".join(f.render() for f in package_lint.new)
    assert package_lint.ok, f"new contract violations in src/repro:\n{rendered}"


def test_baseline_has_no_stale_entries(package_lint):
    # Fixed violations must be deleted from the baseline, not left as
    # standing permission to regress.
    assert package_lint.stale_baseline == ()


def test_each_file_is_walked_exactly_once(package_lint_run):
    """Every rule reads ``FileContext.nodes_of``: one whole-module
    ``ast.walk`` per file checked, however many rules run.  Walks of one
    function, class or handler body are a rule's own and are not counted."""
    result, module_walks = package_lint_run
    assert len(module_walks) == result.files_checked
    assert len({id(tree) for tree in module_walks}) == result.files_checked


def test_seeded_violation_is_caught(tmp_path):
    """An ambient ``default_rng()`` added under analysis/ must fail the lint.

    This is the end-to-end proof the self-lint has teeth: the tmp tree
    mirrors the package layout (so the DEFAULT_CONFIG path allowlists
    apply exactly as they would in ``src/repro``) and the seeded file is
    *not* one of the declared stream-boundary modules.
    """
    bad = tmp_path / "repro" / "analysis" / "ambient.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """
            import numpy as np

            def sample(trials):
                return np.random.default_rng().random(trials)
            """
        ),
        encoding="utf-8",
    )
    result = lint_paths([tmp_path], baseline=BASELINE)
    assert not result.ok
    assert [f.rule for f in result.new] == ["rng-discipline"]
    assert result.new[0].path == "repro/analysis/ambient.py"

    # The same construct in a declared boundary module stays legal.
    boundary = tmp_path / "repro" / "analysis" / "kernels.py"
    boundary.write_text(bad.read_text(encoding="utf-8"), encoding="utf-8")
    bad.unlink()
    assert lint_paths([tmp_path], baseline=BASELINE).ok


def test_subtree_lint_agrees_with_full_tree():
    # Path anchoring: linting a subpackage must apply the same allowlists
    # as the full-tree run (findings are reported package-relative).
    result = lint_paths([PACKAGE_ROOT / "engine"])
    rendered = "\n".join(f.render() for f in result.new)
    assert result.new == (), f"engine subtree lint disagrees:\n{rendered}"


def test_engine_core_reads_no_clock():
    """The whole engine package — memo, kind router, planner, backends —
    is clock-free: no wall-clock allowlist entry names anything under
    ``engine/`` (spans time what runs; no answer stores a duration)."""
    allow = DEFAULT_CONFIG.rule_allow["wall-clock"]
    assert sorted(allow) == ["*repro/obs/*", "*repro/runtime.py", "*repro/serve/*"]
    assert not any("engine" in pattern for pattern in allow)
    result = lint_paths([PACKAGE_ROOT / "engine"], rules=["wall-clock"])
    assert result.files_checked >= 10 and result.new == ()


def test_every_query_kind_round_trips_and_keys():
    import repro.engine.backends  # noqa: F401

    from repro.engine.query import query_from_dict
    from repro.engine.registry import _KINDS
    from repro.engine.scenario import Scenario
    from repro.faults.mixture import uniform_fleet
    from repro.protocols.raft import RaftSpec

    scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01), seed=7)
    extras = {
        "availability": {"failure_rate_per_hour": 0.1, "repair_rate_per_hour": 1.0},
        "mttf": {"failure_rate_per_hour": 0.1, "repair_rate_per_hour": 1.0},
    }
    for kind, (cls, _backend) in sorted(_KINDS.items()):
        query = cls(scenario=scenario, **extras.get(kind, {}))
        rebuilt = query_from_dict(query.to_dict())
        assert type(rebuilt) is cls
        # Specs compare by identity, so round-trip equality is asserted on
        # the codec form — a dropped field would change the second dict.
        assert rebuilt.to_dict() == query.to_dict(), (
            f"{kind} does not round-trip through to_dict"
        )
        key = query.cache_key(None)
        assert key is not None and hash(key) == hash(
            rebuilt.cache_key(None)
        ), f"{kind} cache_key unstable across the codec"
