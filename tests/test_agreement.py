"""One query, one answer, through every door.

The paper's guarantee is a number, so the number must not depend on which
door it was asked through.  For one query of every kind — counting, exact,
seeded monte-carlo, seeded importance, availability, MTTF and a seeded
simulation campaign — the ``answer`` payload is byte-equal across the
library under the serial, thread and process policies, ``repro-analyze
query --json`` with ``--jobs`` unset and set, and the daemon's
``POST /v1/query`` (plain and streamed).
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.cli import main
from repro.engine import ExecutionPolicy, QuerySet, ReliabilityEngine, default_engine
from repro.serve import BackgroundServer, ServiceConfig

_SCENARIO = {
    "spec": {"protocol": "raft", "n": 5},
    "fleet": {"uniform": {"n": 5, "p_fail": 0.05}},
}
_RATES = {"failure_rate_per_hour": 1e-5, "repair_rate_per_hour": 0.04}

PAYLOAD = json.dumps(
    {
        "queries": [
            {**_SCENARIO, "method": "counting", "label": "counting"},
            {**_SCENARIO, "method": "exact", "label": "exact"},
            {
                **_SCENARIO,
                "method": "monte-carlo",
                "trials": 20_000,
                "seed": 7,
                "label": "monte-carlo",
            },
            {
                **_SCENARIO,
                "method": "importance",
                "trials": 8_000,
                "seed": 7,
                "label": "importance",
            },
            {
                "kind": "availability",
                "scenario": {**_SCENARIO, "label": "availability"},
                **_RATES,
                "window_hours": 720,
            },
            {"kind": "mttf", "scenario": {**_SCENARIO, "label": "mttf"}, **_RATES},
            {
                "kind": "simulation",
                "scenario": {
                    "spec": {"protocol": "raft", "n": 3},
                    "fleet": {"uniform": {"n": 3, "p_fail": 0.2}},
                    "seed": 7,
                    "label": "campaign",
                },
                "replicas": 6,
                "duration": 6.0,
                "commands": 2,
            },
        ]
    }
)


def _payloads(rows) -> str:
    return json.dumps([row["answer"] for row in rows], sort_keys=True)


def _library(policy) -> str:
    answers = ReliabilityEngine().run(QuerySet.from_json(PAYLOAD), policy=policy)
    return _payloads([answer.to_dict() for answer in answers])


def _cli(capsys, path, *flags) -> str:
    default_engine().cache_clear()  # every door answers cold
    assert main(["query", str(path), "--json", *flags]) == 0
    return _payloads(json.loads(capsys.readouterr().out))


def _post(port: int, path: str) -> list[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=PAYLOAD)
        response = conn.getresponse()
        assert response.status == 200
        return [json.loads(line) for line in response.read().decode().splitlines()]
    finally:
        conn.close()


def test_every_door_gives_the_same_bytes(capsys, tmp_path):
    reference = _library(None)
    doors = {
        "library thread x1": _library(ExecutionPolicy(mode="thread", jobs=1)),
        "library thread x4": _library(ExecutionPolicy(mode="thread", jobs=4)),
        "library process x2": _library(ExecutionPolicy(mode="process", jobs=2)),
    }
    path = tmp_path / "questions.json"
    path.write_text(PAYLOAD)
    doors["cli --jobs unset"] = _cli(capsys, path)
    doors["cli --jobs 2"] = _cli(capsys, path, "--jobs", "2")
    # Two daemons: each door answers cold, never from the other's memo.
    with BackgroundServer(ServiceConfig(port=0)) as daemon:
        (body,) = _post(daemon.port, "/v1/query")
        doors["POST /v1/query"] = _payloads(body["answers"])
    with BackgroundServer(ServiceConfig(port=0)) as daemon:
        lines = _post(daemon.port, "/v1/query?stream=1")
        assert lines[-1]["done"] is True and lines[-1]["errors"] == 0
        rows = sorted(lines[:-1], key=lambda row: row["index"])
        doors["POST /v1/query?stream=1"] = _payloads(rows)

    assert len(json.loads(reference)) == 7
    for door, served in doors.items():
        assert served == reference, f"{door} disagrees with the serial library"


def test_worker_error_is_the_same_exception_at_any_jobs():
    """An estimator's own error reaches the caller unwrapped under a pool."""
    from repro.engine import Scenario
    from repro.errors import InvalidConfigurationError
    from repro.faults.mixture import uniform_fleet
    from repro.protocols.raft import RaftSpec

    no_trials = [
        Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="monte-carlo",
            trials=0,
            seed=seed,
        )
        for seed in (1, 2)
    ]
    for policy in (
        None,
        ExecutionPolicy(mode="thread", jobs=2),
        ExecutionPolicy(mode="process", jobs=2),
    ):
        with pytest.raises(InvalidConfigurationError, match="trials must be positive"):
            ReliabilityEngine().run(no_trials, policy=policy)
