"""Seeded end-to-end benchmark of the ``wellpoised`` CLI, with a traced mode.

Run from the root of a checkout:

    python3 bench/run.py --workload hull --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload census --save a.jsonl   # keep the result
    python3 bench/run.py --compare a.jsonl b.jsonl          # two result sets
    python3 bench/run.py --record                           # rewrite reference.json

Each workload runs in a fresh interpreter (``child.py``) with ``src`` on
``PYTHONPATH`` and ``WELLPOISED_WORKERS`` removed, so the program runs with
its defaults.  This process times the interpreter's set-up from the outside,
several times, and times a series of ``python -m wellpoised.cli`` calls for
start-up; both are scaled to the reference speed of ``speed.py`` by the
start of a bare interpreter just before and after each.  It prints each
metric on its own line and, as the last line, one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from
the spans of a traced pass with ``--trace 1``.  Exit status is 0 when a
result was printed, 1 when the run could not finish, and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10
STARTUP_CALLS = 16
BUDGET_S = 170.0  # the whole run, set-up and start-up probes included

END_TO_END = {
    "wall_s": "s",
    "req_ms_p50": "ms",
    "req_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "startup_ms": "ms",
}


class RunError(RuntimeError):
    """The run could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("WELLPOISED_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(root: Path, deadline: float, *args: str) -> tuple[float, str]:
    """Start ``child.py``; returns (seconds until it was ready, its last line)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, bufsize=0)
    try:
        head = b""
        while b"\n" not in head:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise RunError("child did not get ready within the time budget")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            head += chunk
        setup = perf_counter() - start
        first, _, extra = head.partition(b"\n")
        if first.strip() != b"ready":
            raise RunError(f"child did not get ready: {first!r}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise RunError("child ran past the time budget") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"child exited with {proc.returncode}")
    lines = (extra + rest).decode().strip().splitlines()
    return setup, lines[-1] if lines else ""


def pin_to_one_core() -> None:
    """Keep this process and every child on one core.

    The calibrations and the work they scale then see the same core, and no
    request moves between cores while it runs.  Only one of the processes
    works at a time, so nothing waits for the core.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def call(root: Path, deadline: float, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds one interpreter takes to run ``args`` and exit, and how it ended."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=max(0.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args} ran past the time budget") from exc
    return perf_counter() - start, proc


def startup_call(root: Path, deadline: float, refs: dict) -> tuple[float, bool]:
    """Seconds of one ``python -m wellpoised.cli`` call, and whether it failed."""
    req = workloads.Request(workloads.STARTUP_ARGV, "startup")
    took, proc = call(root, deadline, "-m", "wellpoised.cli", *req.argv)
    reason = workloads.verdict(req, refs.get(req.key), proc.returncode, proc.stdout, proc.stderr)
    return took, reason is not None


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl.gz"
        _, line = spawn(root, deadline, *common, "--trace", "1", "--spans", str(spans))
        result = json.loads(line)
        result["metrics"] = result["layers"]
    else:
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["requests"]
        setups, calls = [], []

        def bare() -> float:
            return call(root, deadline, "-c", "pass")[0]

        def probes() -> None:
            # Half the probes run before the timed passes and half after, so
            # that a short slow spell of the machine touches few of them.
            # Each is scaled by the bare interpreter starts around it.
            before = bare()
            for i in range(STARTUP_CALLS // 2):
                if i < SETUP_PROBES // 2:
                    took = spawn(root, deadline, *common, "--setup-only")[0]
                    after = bare()
                    setups.append(speed.scaled(took, before, after, speed.INTERPRETER_S))
                    before = after
                took, bad = startup_call(root, deadline, refs)
                after = bare()
                calls.append((speed.scaled(took, before, after, speed.INTERPRETER_S) * 1000, bad))
                before = after

        probes()
        _, line = spawn(root, deadline, *common)
        probes()
        result = json.loads(line)
        failed = sum(bad for _, bad in calls)
        result["attempted"] += len(calls)
        result["failed"] += failed
        result["wrong"] += failed
        attempted = result["attempted"]
        result["metrics"] = {
            "wall_s": result["wall_s"],
            "req_ms_p50": result["req_ms_p50"],
            "req_ms_p90": result["req_ms_p90"],
            "ok_ratio": (attempted - result["failed"]) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "startup_ms": statistics.median(ms for ms, _ in calls),
        }
    result["correct"] = result["wrong"] == 0
    return result


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END
    import tracing

    return {**tracing.metric_units(), "trace_overhead_s": "s"}


def report(workload: str, seed: int, result: dict, trace: bool) -> None:
    print(
        f"# {workload} seed {seed}: {result['passes']} passes of {result['requests_per_pass']} "
        "requests; pass walls (s): " + ", ".join(f"{w:.3f}" for w in result["pass_walls"])
    )
    for name, unit in units(trace).items():
        print(f"{workload}.{name} {result['metrics'][name]:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    share = failed / attempted
    print(f"{workload}.fail_ratio {share:.6g} ratio ({failed} of {attempted} attempted)")
    print(f"{workload}.output_digest {result['output_digest']}")
    for line in result["failures"] + result["problems"]:
        print(f"# failed: {line}")


def result_line(results: dict, trace: bool) -> dict:
    """The contract's last line; metric names get a workload prefix when several ran."""
    table = units(trace)
    prefix = len(results) > 1
    metrics = {}
    for workload, result in results.items():
        for name, unit in table.items():
            key = f"{workload}.{name}" if prefix else name
            metrics[key] = {"value": result["metrics"][name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the wellpoised CLI.")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each workload's result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare)
    root = Path.cwd()
    if not (root / "src" / "wellpoised" / "cli.py").is_file():
        print("bench: run from the root of a checkout holding src/wellpoised", file=sys.stderr)
        return 2
    if args.record:
        return subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--record"], cwd=root, env=child_env(root)
        ).returncode
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_core()
    results = {}
    try:
        for workload in chosen:
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            report(workload, args.seed, result, bool(args.trace))
            results[workload] = result
            if args.save:
                record = {
                    "workload": workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "output_digest": result["output_digest"], "metrics": result["metrics"],
                }
                with open(args.save, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    except (RunError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
