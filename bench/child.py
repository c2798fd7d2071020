"""One workload in a fresh interpreter: set up, run timed passes, check.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints ``ready``
once the program is imported and the inputs are built, then one JSON line
with the run's results.  Each pass sends every request of the run's list
through ``cli.run`` in turn (a closed loop with one client), and passes repeat
while the next one is expected to end within ``--seconds``, three passes at
least.  Answers are checked after each pass, outside the timed region.

Request times are scaled to a reference speed (see ``speed.py``): the
calibration loop runs between requests, and each request is scaled by the
loops just before and after it.  Each request's time is then the median of
its scaled times over the passes.

``attempted`` and ``failed`` count the run's distinct requests: a request
fails when any of its passes fails the gate, so the counts do not depend on
how many passes the machine's speed allowed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["requests"]


def send(cli, argv) -> tuple[object, str, str, float]:
    """One request through ``cli.run``: (exit or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(list(argv))
        except (Exception, SystemExit) as exc:  # a raise is a failed request
            code = exc
        took = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), took


def run_pass(cli, reqs, tracer=None):
    """Send every request once; returns (wall seconds, per-request results).

    The last field of each result is the request's time scaled to the
    reference speed (seconds).
    """
    results = []
    start = perf_counter()
    before = speed.calibrate()
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        code, out, err, took = send(cli, req.argv)
        after = speed.calibrate()
        results.append((code, out, err, speed.scaled(took, before, after)))
        before = after
    return perf_counter() - start, results


def check_pass(reqs, refs, results) -> dict:
    """Gate every answer and the workload invariants.

    ``failed`` holds the indexes of the failed requests, ``failures`` why.
    """
    failed, failures, wrong, outputs = [], [], 0, []
    trail = hashlib.sha256()
    for i, (req, (code, out, err, _)) in enumerate(zip(reqs, results)):
        reason = workloads.verdict(req, refs.get(req.key), code, out, err)
        if reason:
            failed.append(i)
            failures.append(f"{reason}: {req.key}")
            wrong += not req.contract_only
        ok = reason is None and code == 0
        outputs.append(out if ok else None)
        shown = workloads.digest(out) if code == 0 else workloads.error_code(err)
        trail.update(f"{req.key}\0{code!r}\0{shown}\n".encode())
    problems = workloads.check_invariants(reqs, outputs)
    return {
        "failed": failed,
        "failures": failures,
        "wrong": wrong + len(problems),
        "problems": problems,
        "digest": trail.hexdigest(),
    }


def typical_times(passes) -> list[float]:
    """Each request's median time over the passes (seconds)."""
    return [statistics.median(times) for times in zip(*passes)]


def measure(cli, reqs, refs, seconds: float, tracer=None) -> dict:
    # Per-pass request times, untraced and traced.
    plain, traced, walls, layer_runs = [], [], [], []
    # Failed requests by index, and violated invariants, each counted once.
    failures: dict[int, str] = {}
    problems: dict[str, None] = {}
    digest = None
    deadline = perf_counter() + seconds
    while True:
        # Traced runs alternate untraced and traced passes.
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            wall, results = run_pass(cli, reqs, tracer if tracing else None)
        finally:
            if tracing:
                tracer.uninstall()
                tracer.keep_spans = False
        if tracing:
            traced.append([r[3] for r in results])
            layer_runs.append(tracer.metrics())
        else:
            plain.append([r[3] for r in results])
            walls.append(wall)
        verdict = check_pass(reqs, refs, results)
        for i, why in zip(verdict["failed"], verdict["failures"]):
            failures.setdefault(i, why)
        problems.update(dict.fromkeys(verdict["problems"]))
        if digest is not None and verdict["digest"] != digest:
            problems["answers differ between passes"] = None
        digest = verdict["digest"]
        # Stop when the next pass (as long as the last) would end past the deadline.
        left = deadline - perf_counter()
        enough = len(plain) >= MIN_PASSES and (tracer is None or traced)
        if enough and left < wall:
            break
    typical = typical_times(plain)
    deciles = statistics.quantiles([t * 1000 for t in typical], n=10)
    wrong = sum(not reqs[i].contract_only for i in failures) + len(problems)
    out = {
        "passes": len(plain),
        "requests_per_pass": len(reqs),
        "attempted": len(reqs),
        "failed": len(failures) + len(problems),
        "wrong": wrong,
        "failures": list(failures.values())[:10],
        "problems": list(problems)[:10],
        "output_digest": digest,
        "pass_walls": walls,
        "wall_s": sum(typical),
        "req_ms_p50": deciles[4],
        "req_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        layers["trace_overhead_s"] = sum(typical_times(traced)) - out["wall_s"]
        out["layers"] = layers
    return out


def record() -> None:
    """Write ``reference.json`` from the answers the program gives now."""
    from wellpoised import cli

    entries = {}
    for workload in workloads.WORKLOADS:
        for req in workloads.pool(workload):
            if req.contract_only or req.key in entries:
                continue
            code, out, err, _ = send(cli, req.argv)
            if code == 0:
                entries[req.key] = {"exit": 0, "sha256": workloads.digest(out)}
            elif code in (2, 3) and workloads.error_code(err):
                entries[req.key] = {"exit": code, "code": workloads.error_code(err)}
            else:
                raise SystemExit(f"cannot record {req.key}: {code!r} {err}")
    doc = {"pool_seed": workloads.POOL_SEED, "requests": dict(sorted(entries.items()))}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} answers in {REFERENCE.name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the first traced pass's spans here")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record:
        record()
        return 0

    from wellpoised import cli

    reqs = workloads.requests(args.workload, args.seed)
    refs = load_reference()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(cli, reqs, refs, args.seconds, tracer)
    if tracer is not None and args.spans:
        result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
