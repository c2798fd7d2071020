"""The benchmark's recorded answers, checked on every test run.

Every request of the benchmark's hull, census and session pools that has a
recorded answer (all but the malformed inputs, which are held to the error
contract instead) is replayed through ``cli.run``.  Its exit status must
equal the entry in ``bench/reference.json``; on exit 0 so must the sha256 of
its stdout, which pins every document's key order, and on exit 2 or 3 the
``code`` of its one-line stderr error.  The benchmark files are only read.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from wellpoised import cli  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["requests"]


def recorded(code: int, out: str, err: str) -> dict:
    """A replay in the shape of its ``reference.json`` entry."""
    if code == 0:
        return {"exit": code, "sha256": workloads.digest(out)}
    return {"exit": code, "code": workloads.error_code(err)}


@pytest.mark.parametrize("workload", ["hull", "census", "session"])
def test_requests_print_the_recorded_answers(workload, capsys):
    requests = [r for r in workloads.pool(workload) if not r.contract_only]
    assert len(requests) > 40
    differ = []
    for req in requests:
        code = cli.run(list(req.argv))
        captured = capsys.readouterr()
        if recorded(code, captured.out, captured.err) != REFERENCE[req.key]:
            differ.append(req.key)
    assert differ == []


def test_every_command_has_a_recorded_answer():
    commands = {
        r.argv[0]
        for workload in ("hull", "census", "session")
        for r in workloads.pool(workload)
        if not r.contract_only
    }
    _, parsers = cli._parsers()
    assert commands == set(parsers)
    for name, parser in parsers.items():
        assert parser.get_default("handler") is getattr(cli, f"_cmd_{name}")
