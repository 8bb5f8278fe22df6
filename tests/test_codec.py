"""The field codec (``repro._codec``): its type rules, the bytes it writes
and a fuzz of the parser it feeds.

``CANONICAL`` holds the canonical JSON key of one query of every kind and
of one campaign per fault-event kind, recorded before the codec replaced
the hand-written per-class coercions.  The daemon single-flights on that
key and campaign checkpoint directories (``campaign-<digest>``) are
named by its digest, so an edit that moves one byte of it fails here.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._codec import (
    decode_fields,
    encode_fields,
    finite_float,
    finite_int,
    json_bool,
    reader,
)
from repro._rng import SeedLike
from repro.analysis.config import FaultKind
from repro.engine import (
    AvailabilityQuery,
    MTTFQuery,
    QuerySet,
    ReliabilityQuery,
    Scenario,
    SimulationQuery,
    query_from_dict,
    register_spec_codec,
)
from repro.engine.query import canonical_query_key
from repro.engine.scenario import (
    _SPEC_CODECS,
    _SPEC_CODECS_BY_TYPE,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import InvalidConfigurationError, InvalidProbabilityError
from repro.faults.mixture import byzantine_fleet, uniform_fleet
from repro.injection import (
    Adversary,
    CorrelatedBurst,
    CrashStop,
    DelayBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
)
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec

RAFT = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.1), seed=11, label="raft-3")
PBFT = Scenario(
    spec=PBFTSpec(4),
    fleet=byzantine_fleet(4, 0.05),
    method="monte-carlo",
    trials=2000,
    seed=3,
    window_hours=720.0,
    label="pbft-4",
)


def _campaign(scenario, *events, **plan) -> SimulationQuery:
    return SimulationQuery(
        scenario, replicas=4, duration=6.0, commands=2, faults=FaultPlan(events=events, **plan)
    )


PINNED = {
    "reliability": ReliabilityQuery(PBFT),
    "reliability/flexraft": ReliabilityQuery(
        Scenario(
            spec=FlexibleRaftSpec(3, 3, 1),
            fleet=uniform_fleet(3, 0.02, byzantine_fraction=0.5),
            method="exact",
        )
    ),
    "availability": AvailabilityQuery.from_afr(
        RAFT, afr=0.08, mttr_hours=24.0, window_hours=12.0, quorum_size=2
    ),
    "mttf": MTTFQuery.from_afr(
        RAFT, afr=0.05, mttr_hours=48.0, repair_slots=2, persistence_quorum=3
    ),
    "simulation": SimulationQuery(
        RAFT, replicas=8, duration=5.0, commands=3, crash_window=(0.1, 0.5)
    ),
    "crash": _campaign(
        RAFT,
        CrashStop(node=2, at=1.5, recover_at=3.0),
        CrashStop(node=1, at=0.5, mean_time_to_repair=2.0),
    ),
    "partition": _campaign(RAFT, PartitionEvent(groups=((0,), (1, 2)), at=2.0, heal_at=3.0)),
    "loss-burst": _campaign(RAFT, LossBurst(at=3.5, until=4.5, drop_probability=0.2)),
    "delay-burst": _campaign(RAFT, DelayBurst(at=1.0, until=2.5, extra_delay=0.05)),
    "correlated-burst": _campaign(
        RAFT,
        CorrelatedBurst(members=(0, 1), at=4.0, probability=0.5, mean_time_to_repair=1.0),
        mean_time_to_repair=2.0,
    ),
    "adversary": _campaign(
        PBFT, adversary=Adversary(nodes=(0, 2), behaviour="silent"), sample_faults=False
    ),
}

CANONICAL = {
    'reliability': (
        '{"kind": "reliability",'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.05,'
        ' "p_crash": 0.0}, {"p_byzantine": 0.05, "p_crash": 0.0},'
        ' {"p_byzantine": 0.05, "p_crash": 0.0}, {"p_byzantine": 0.05,'
        ' "p_crash": 0.0}]}, "label": "pbft-4", "method": "monte-carlo",'
        ' "seed": 3, "spec": {"n": 4, "protocol": "pbft", "q_eq": 3,'
        ' "q_per": 3, "q_vc": 3, "q_vc_t": 2}, "trials": 2000,'
        ' "window_hours": 720.0}}'
    ),
    'reliability/flexraft': (
        '{"kind": "reliability",'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.01,'
        ' "p_crash": 0.01}, {"p_byzantine": 0.01, "p_crash": 0.01},'
        ' {"p_byzantine": 0.01, "p_crash": 0.01}]}, "method": "exact",'
        ' "spec": {"n": 3, "protocol": "flexraft", "q_per": 3, "q_vc": 1}}}'
    ),
    'availability': (
        '{"failure_rate_per_hour": 9.511933486088417e-06,'
        ' "kind": "availability", "quorum_size": 2,'
        ' "repair_rate_per_hour": 0.041666666666666664,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}, "window_hours": 12.0}'
    ),
    'mttf': (
        '{"failure_rate_per_hour": 5.851391100564743e-06, "kind": "mttf",'
        ' "persistence_quorum": 3,'
        ' "repair_rate_per_hour": 0.020833333333333332, "repair_slots": 2,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'simulation': (
        '{"commands": 3, "crash_window": [0.1, 0.5], "duration": 5.0,'
        ' "kind": "simulation", "replicas": 8,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'crash': (
        '{"commands": 2, "duration": 6.0, "faults": {"events": [{"at": 1.5,'
        ' "kind": "crash", "node": 2, "recover_at": 3.0}, {"at": 0.5,'
        ' "kind": "crash", "mean_time_to_repair": 2.0, "node": 1}]},'
        ' "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'partition': (
        '{"commands": 2, "duration": 6.0, "faults": {"events": [{"at": 2.0,'
        ' "groups": [[0], [1, 2]], "heal_at": 3.0, "kind": "partition"}]},'
        ' "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'loss-burst': (
        '{"commands": 2, "duration": 6.0, "faults": {"events": [{"at": 3.5,'
        ' "drop_probability": 0.2, "kind": "loss-burst", "until": 4.5}]},'
        ' "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'delay-burst': (
        '{"commands": 2, "duration": 6.0, "faults": {"events": [{"at": 1.0,'
        ' "extra_delay": 0.05, "kind": "delay-burst", "until": 2.5}]},'
        ' "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'correlated-burst': (
        '{"commands": 2, "duration": 6.0, "faults": {"events": [{"at": 4.0,'
        ' "kind": "correlated-burst", "mean_time_to_repair": 1.0,'
        ' "members": [0, 1], "probability": 0.5}],'
        ' "mean_time_to_repair": 2.0}, "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.0,'
        ' "p_crash": 0.1}, {"p_byzantine": 0.0, "p_crash": 0.1},'
        ' {"p_byzantine": 0.0, "p_crash": 0.1}]}, "label": "raft-3",'
        ' "method": "auto", "seed": 11, "spec": {"n": 3, "protocol": "raft",'
        ' "q_per": 2, "q_vc": 2}}}'
    ),
    'adversary': (
        '{"commands": 2, "duration": 6.0,'
        ' "faults": {"adversary": {"behaviour": "silent", "nodes": [0, 2]},'
        ' "sample_faults": false}, "kind": "simulation", "replicas": 4,'
        ' "scenario": {"fleet": {"nodes": [{"p_byzantine": 0.05,'
        ' "p_crash": 0.0}, {"p_byzantine": 0.05, "p_crash": 0.0},'
        ' {"p_byzantine": 0.05, "p_crash": 0.0}, {"p_byzantine": 0.05,'
        ' "p_crash": 0.0}]}, "label": "pbft-4", "method": "monte-carlo",'
        ' "seed": 3, "spec": {"n": 4, "protocol": "pbft", "q_eq": 3,'
        ' "q_per": 3, "q_vc": 3, "q_vc_t": 2}, "trials": 2000,'
        ' "window_hours": 720.0}}'
    ),
}


class TestCanonicalForms:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_canonical_key_is_the_pinned_bytes(self, name):
        assert canonical_query_key(PINNED[name]) == CANONICAL[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_dict_form_round_trips(self, name):
        """``from_dict(to_dict(x))`` is ``x``.  Specs compare by identity,
        so a query is compared by its dict form and its memo key."""
        query = PINNED[name]
        rebuilt = query_from_dict(json.loads(json.dumps(query.to_dict())))
        assert type(rebuilt) is type(query)
        assert rebuilt.to_dict() == query.to_dict()
        assert rebuilt.cache_key(None) == query.cache_key(None)
        if isinstance(query, SimulationQuery):
            assert rebuilt.faults == query.faults
            assert rebuilt.fault_key() == query.fault_key()


class TestTypeRules:
    @pytest.mark.parametrize(
        "value", [True, False, 2.5, math.nan, math.inf, 10**400, "3", None, [1]], ids=repr
    )
    def test_int_refuses(self, value):
        with pytest.raises(InvalidConfigurationError, match="^x must be a finite integer"):
            finite_int("x", value)

    def test_int_accepts_integral_numbers(self):
        assert finite_int("x", -5) == -5
        assert finite_int("x", 1e4) == 10_000 and type(finite_int("x", 1e4)) is int
        assert finite_int("x", np.int64(3)) == 3 and type(finite_int("x", np.int64(3))) is int

    @pytest.mark.parametrize(
        "value", [True, "0.5", math.nan, math.inf, -math.inf, 10**400, None, {}], ids=repr
    )
    def test_float_refuses(self, value):
        with pytest.raises(InvalidConfigurationError, match="^x must be a finite number"):
            finite_float("x", value)

    def test_float_reads_integers_as_floats(self):
        assert finite_float("x", 2) == 2.0 and type(finite_float("x", 2)) is float

    @pytest.mark.parametrize("value", [1, 0, "false", None])
    def test_bool_refuses(self, value):
        with pytest.raises(InvalidConfigurationError, match="JSON boolean"):
            json_bool("x", value)

    def test_composite_rules(self):
        assert reader(int | None)("x", None) is None
        assert reader(tuple[int, ...])("x", [1, 2.0]) == (1, 2)
        assert reader(tuple[tuple[int, ...], ...])("x", [[0], [1, 2]]) == ((0,), (1, 2))
        with pytest.raises(InvalidConfigurationError, match=r"x\[\] must be a finite integer"):
            reader(tuple[int, ...])("x", [True])
        with pytest.raises(InvalidConfigurationError, match="list of 2 values"):
            reader(tuple[float, float])("x", [1.0])
        with pytest.raises(InvalidConfigurationError, match="list of integers"):
            reader(tuple[int, ...])("x", {"0": 1})
        # Members JSON cannot carry drop out of a union: a seed is an
        # integer or null.
        assert reader(SeedLike)("seed", 7) == 7
        with pytest.raises(InvalidConfigurationError, match="seed must be a finite integer"):
            reader(SeedLike)("seed", "7")
        assert reader(FaultKind)("kind", "Byzantine") is FaultKind.BYZANTINE
        assert reader(object) is None

    def test_unknown_and_missing_fields_are_refused_by_name(self):
        with pytest.raises(InvalidConfigurationError, match=r"unknown crash event fields \['fnord'\]"):
            CrashStop.from_dict({"kind": "crash", "fnord": 1})
        with pytest.raises(InvalidConfigurationError, match="needs a 'scenario' field"):
            ReliabilityQuery.from_dict({"kind": "reliability"})
        with pytest.raises(InvalidConfigurationError, match=r"unknown scenario fields \['sede'\]"):
            Scenario.from_dict(dict(RAFT.to_dict(), sede=1))
        with pytest.raises(InvalidConfigurationError, match="correlation cannot be given"):
            Scenario.from_dict(dict(RAFT.to_dict(), correlation={"n": 3}))

    def test_spec_parameters_are_typed_and_named(self):
        with pytest.raises(InvalidConfigurationError, match=r"unknown pbft spec fields \['q_fnord'\]"):
            spec_from_dict({"protocol": "pbft", "n": 4, "q_fnord": 1})
        with pytest.raises(InvalidConfigurationError, match="needs a 'q_vc' field"):
            spec_from_dict({"protocol": "flexraft", "n": 3, "q_per": 2})
        with pytest.raises(InvalidConfigurationError, match="q_vc_t must be a finite integer"):
            spec_from_dict({"protocol": "pbft", "n": 4, "q_vc_t": "2"})
        spec = spec_from_dict({"protocol": "pbft", "n": 4.0, "q_per": None})
        assert (spec.n, spec.q_per) == (4, 3) and type(spec.n) is int

    def test_an_unannotated_spec_codec_reads_parameters_as_given(self):
        codec, by_type = _SPEC_CODECS.get("test-unannotated"), dict(_SPEC_CODECS_BY_TYPE)
        try:
            register_spec_codec(
                "test-unannotated", RaftSpec, lambda n, q: RaftSpec(n, q_per=q), lambda s: {}
            )
            assert spec_from_dict({"protocol": "test-unannotated", "n": 3, "q": 3}).q_per == 3
            with pytest.raises(InvalidConfigurationError, match="needs a 'q' field"):
                spec_from_dict({"protocol": "test-unannotated", "n": 3})
        finally:
            _SPEC_CODECS.pop("test-unannotated")
            _SPEC_CODECS_BY_TYPE.clear()
            _SPEC_CODECS_BY_TYPE.update(by_type)
        assert codec is None

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(InvalidConfigurationError, match="seed must be a non-negative"):
            Scenario.from_dict(dict(RAFT.to_dict(), seed=-1))

    def test_a_numpy_integer_seed_is_the_int_seed(self):
        """Its memo key always was ``seed=5``'s; its canonical key (the
        journal name and single-flight key) and its JSON now are too."""
        as_int = ReliabilityQuery(replace(RAFT, method="monte-carlo", seed=5))
        as_numpy = ReliabilityQuery(replace(RAFT, method="monte-carlo", seed=np.int64(5)))
        assert canonical_query_key(as_numpy) == canonical_query_key(as_int)
        assert QuerySet.build([as_numpy]).to_json() == QuerySet.build([as_int]).to_json()

    @pytest.mark.parametrize(
        "spec, form",
        [
            (RaftSpec(5, q_per=4), '{"protocol": "raft", "n": 5, "q_per": 4, "q_vc": 3}'),
            (FlexibleRaftSpec(5, 4, 2), '{"protocol": "flexraft", "n": 5, "q_per": 4, "q_vc": 2}'),
            (BenOrSpec(5), '{"protocol": "benor", "n": 5}'),
            (ByzantineBenOrSpec(6), '{"protocol": "byz-benor", "n": 6}'),
            (PBFTSpec(7, q_vc_t=2),
             '{"protocol": "pbft", "n": 7, "q_eq": 5, "q_per": 5, "q_vc": 5, "q_vc_t": 2}'),
        ],
        ids=["raft", "flexraft", "benor", "byz-benor", "pbft"],
    )
    def test_a_built_in_spec_writes_its_constructor_parameters_in_order(self, spec, form):
        assert json.dumps(spec_to_dict(spec)) == form
        assert spec_from_dict(json.loads(form)).grouping_key() == spec.grouping_key()

    def test_encode_writes_every_field_off_its_default_in_order(self):
        event = CorrelatedBurst(members=(2, 0), at=1.0, lethality=0.5)
        assert encode_fields(event) == {"members": [2, 0], "at": 1.0, "lethality": 0.5}
        assert decode_fields(CorrelatedBurst, encode_fields(event), "burst") == event


# ---------------------------------------------------------------------------
# Parser fuzz: any JSON value in any one field parses or is refused
# ---------------------------------------------------------------------------
#: Raw JSON tokens ``json.dumps`` cannot write: spliced into the text.
_RAW = {'"@1e400@"': "1e400", '"@-1e400@"': "-1e400"}

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 2**63, 10**300, 10**400, -(10**400)])
    | st.floats()
    | st.sampled_from(sorted(_RAW)).map(json.loads)
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key and list index of a row, inside its fleet too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        path = prefix + (key,)
        yield path
        if isinstance(child, (dict, list)):
            yield from _paths(child, path)


def _replace(row, path, value):
    for key in path[:-1]:
        row = row[key]
    row[path[-1]] = value


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_json_value_in_any_field_parses_or_is_refused(data):
    """One valid row per query kind and fault-event kind, one field at a
    time replaced by any JSON value: the parser either builds a query
    whose dict form round-trips or raises ``InvalidConfigurationError`` —
    never another exception (a daemon 500).  Inside a fleet, an
    out-of-range probability is ``NodeModel``'s ``InvalidProbabilityError``."""
    row = PINNED[data.draw(st.sampled_from(sorted(PINNED)), label="row")].to_dict()
    path = data.draw(st.sampled_from(list(_paths(row))), label="field")
    _replace(row, path, data.draw(_JSON, label="value"))
    text = json.dumps({"queries": [row]})
    for placeholder, token in _RAW.items():
        text = text.replace(placeholder, token)
    refused = (
        (InvalidConfigurationError, InvalidProbabilityError)
        if "fleet" in path
        else InvalidConfigurationError
    )
    try:
        (query,) = QuerySet.from_json(text)
    except refused:
        return
    form = query.to_dict()
    rebuilt = query_from_dict(json.loads(json.dumps(form)))
    assert type(rebuilt) is type(query)
    assert rebuilt.to_dict() == form
