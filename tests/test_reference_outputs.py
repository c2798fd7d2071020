"""The benchmark's recorded answers, checked on every test run.

Every ``polytope`` request of the benchmark's hull and census pools is
replayed through ``cli.run``; its exit status and the sha256 of its stdout
must equal the entry in ``bench/reference.json``.  The benchmark files are
only read.
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


@pytest.mark.parametrize("workload", ["hull", "census"])
def test_polytope_requests_print_the_recorded_bytes(workload, capsys):
    requests = [r for r in workloads.pool(workload) if r.argv[0] == "polytope"]
    assert len(requests) > 100
    differ = []
    for req in requests:
        code = cli.run(list(req.argv))
        out = capsys.readouterr().out
        ref = REFERENCE[req.key]
        if (code, workloads.digest(out)) != (ref["exit"], ref.get("sha256")):
            differ.append(req.key)
    assert differ == []
