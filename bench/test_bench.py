"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wellpoised import cli, geometry  # noqa: E402

REFS = child.load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = workloads.requests(workload, 7)
    assert first == workloads.requests(workload, 7)
    assert first != workloads.requests(workload, 8)
    assert len(first) >= 100
    assert all(r.contract_only or r.key in REFS for r in first)


def _gate(argv, refs=REFS):
    req = workloads.Request(tuple(argv), "test")
    code, out, err, _ = child.send(cli, argv)
    return workloads.verdict(req, refs.get(req.key), code, out, err)


def test_recorded_answers_pass_the_gate():
    reqs = workloads.requests("census", 1)
    results = [child.send(cli, r.argv) for r in reqs]
    checked = child.check_pass(reqs, REFS, results)
    assert checked["failures"] == [] and checked["problems"] == [] and checked["wrong"] == 0


def test_corrupted_reference_digest_is_a_failure():
    argv = workloads.README_EXAMPLES[0]
    key = workloads.Request(argv, "test").key
    assert _gate(argv) is None
    corrupted = {key: dict(REFS[key], sha256="0" * 64)}
    assert _gate(argv, corrupted) == "stdout differs from reference"

    req = workloads.Request(argv, "readme")
    checked = child.check_pass([req], corrupted, [child.send(cli, argv)])
    assert checked["wrong"] == 1 and len(checked["failures"]) == 1


def test_error_code_must_match_reference():
    argv = ("check", "x+", "--vars", "x")
    req = workloads.Request(argv, "test")
    code, out, err, _ = child.send(cli, argv)
    assert code == 2
    assert workloads.verdict(req, {"exit": 2, "code": "parse_error"}, code, out, err) is None
    assert workloads.verdict(req, {"exit": 2, "code": "validation_error"}, code, out, err)
    assert workloads.verdict(req, {"exit": 0, "sha256": "0" * 64}, code, out, err)


def test_malformed_inputs_are_held_to_the_error_contract():
    req = workloads.Request(workloads.MALFORMED[0], "malformed", contract_only=True)
    line = json.dumps({"error": {"code": "parse_error", "message": "p/0"}}) + "\n"
    assert workloads.verdict(req, None, 2, "", line) is None
    assert workloads.verdict(req, None, 3, "", line) is None
    assert workloads.verdict(req, None, 2, "", line + line)
    assert workloads.verdict(req, None, 0, "{}", "")
    assert workloads.verdict(req, None, ZeroDivisionError(), "", "")


@pytest.mark.parametrize("argv", workloads.MALFORMED)
def test_malformed_inputs_fail_at_this_commit(argv):
    # Both escape as tracebacks today.  Once the error contract holds for
    # them, this test turns round: they must then pass the gate.
    assert _gate(argv) is not None


def test_counts_are_distinct_requests_whatever_the_passes():
    reqs = [workloads.Request(argv, "malformed", contract_only=True) for argv in workloads.MALFORMED]
    reqs.append(workloads.Request(workloads.README_EXAMPLES[0], "readme"))
    result = child.measure(cli, reqs, REFS, 0.0)
    assert result["passes"] >= child.MIN_PASSES
    assert (result["attempted"], result["failed"], result["wrong"]) == (3, 2, 0)
    assert result["wall_s"] > 0


def test_del_pezzo_reference_is_the_library_count():
    argv = ("graded", "--eq-rows", workloads.DEL_PEZZO_ROWS, "--eq-targets", "0,6", "--dim", "5")
    code, out, _, _ = child.send(cli, argv)
    assert code == 0 and json.loads(out)["count"] == 34
    assert _gate(argv) is None


def test_invariants_catch_wrong_answers():
    reqs = [r for r in workloads.requests("census", 1) if r.kind == "graded"]
    outputs = [child.send(cli, r.argv)[1] for r in reqs]
    assert workloads.check_invariants(reqs, outputs) == []
    doctored = [json.loads(o) for o in outputs]
    doctored[-1]["count"] += 1
    problems = workloads.check_invariants(reqs, [json.dumps(d) for d in doctored])
    assert problems


def test_oracles():
    assert [workloads.del_pezzo_quotient(n) for n in (1, 2)] == [19, 61]
    assert workloads.simplex_census((2, 3, 5)) == 3
    assert workloads.simplex_census((2, 2)) == 3
    assert workloads.monotone_chain([(0, 0), (2, 0), (1, 0), (1, 1), (0, 2)]) == [
        (0, 0), (0, 2), (2, 0)
    ]


def test_tracer_counts_and_restores():
    original = geometry.in_convex_hull
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geometry.in_convex_hull is not original
        child.send(cli, ("polytope", "x^2+y^3+x*y", "--vars", "x,y", "--lattice"))
    finally:
        tracer.uninstall()
    assert geometry.in_convex_hull is original
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["cli.calls"] >= 2 and metrics["geometry.in_convex_hull.calls"] > 0
    assert metrics["geometry.lattice_points.box"] == 12
    assert metrics["geometry.lattice_points.kept"] == 3
    assert metrics["serialize.dumps.bytes"] > 0
    assert tracer.span_parent[0] == -1


def test_compare_flags_changed_answers(tmp_path, capsys):
    def save(path, rows):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    def row(seed, wall, digest="d"):
        return {"workload": "hull", "seed": seed, "trace": 0, "output_digest": digest,
                "metrics": {"wall_s": wall}}

    before = save(tmp_path / "a.jsonl", [row(s, 2.0 + s / 100) for s in range(10)])
    after = save(tmp_path / "b.jsonl", [row(s, 1.0 + s / 100) for s in range(10)])
    assert compare.main([before, after]) == 0
    assert "won 10/10, GAIN" in capsys.readouterr().out
    changed = save(tmp_path / "c.jsonl", [row(s, 3.0, "e" if s == 4 else "d") for s in range(10)])
    assert compare.main([before, changed]) == 1
    out = capsys.readouterr().out
    assert "ANSWERS CHANGED on seed 4" in out and "REGRESSION" in out
