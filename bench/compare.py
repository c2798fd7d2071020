"""Compare two sets of saved benchmark results.

    python3 bench/run.py --compare before.jsonl after.jsonl

Each file holds the JSON lines ``run.py --save`` appends, one per workload
run.  For every workload and metric this prints each side's median and
quartiles, and how many of the paired runs the second side won (a run of
one side is paired with the run of the other side on the same seed; ties
count for neither).  A gain is marked only when the second side won at
least nine tenths of the pairs and the medians differ by more than the
first side's quartile spread.  An end-to-end metric whose median got worse
by more than its bound is marked as a regression, or as unresolved when the
first side's own spread is wider than the bound.  Any workload whose answers
changed on a seed both sides ran is flagged, and then the exit status is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """workload (with ", traced" for traced runs) -> saved records, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"] + (", traced" if record["trace"] else "")].append(record)
    return runs


def metric_specs() -> dict:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def paired(a: list, b: list) -> list[tuple[dict, dict]]:
    """Runs on the same seed, matched in the order they were made."""
    by_seed = defaultdict(list)
    for record in b:
        by_seed[record["seed"]].append(record)
    pairs = []
    for record in a:
        if by_seed[record["seed"]]:
            pairs.append((record, by_seed[record["seed"]].pop(0)))
    return pairs


def verdict(spec, a_values, b_values, pairs, name) -> str:
    lower = spec.get("better", "lower") == "lower"
    med_a, q1_a, q3_a = summary(a_values)
    med_b = summary(b_values)[0]
    sign = 1 if lower else -1
    wins = sum(sign * (y["metrics"][name] - x["metrics"][name]) < 0 for x, y in pairs)
    notes = [f"won {wins}/{len(pairs)}"]
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
        notes.append("GAIN")
    bound = spec.get("bound")
    if bound is not None and med_a:
        worse = sign * (med_b - med_a) / abs(med_a)
        if (q3_a - q1_a) / abs(med_a) > bound:
            notes.append("unresolved: spread above bound")
        elif worse > bound:
            notes.append(f"REGRESSION beyond bound {bound}")
    return ", ".join(notes)


def main(argv) -> int:
    before, after = (load(path) for path in argv)
    specs = metric_specs()
    changed = False
    for workload in sorted(set(before) & set(after)):
        a, b = before[workload], after[workload]
        pairs = paired(a, b)
        print(f"# {workload}: {len(a)} vs {len(b)} runs, {len(pairs)} pairs on shared seeds")
        for x, y in pairs:
            if x["output_digest"] != y["output_digest"]:
                changed = True
                print(f"{workload} ANSWERS CHANGED on seed {x['seed']}")
        names = [n for n in a[0]["metrics"] if all(n in r["metrics"] for r in a + b)]
        for name in names:
            a_values = [r["metrics"][name] for r in a]
            b_values = [r["metrics"][name] for r in b]
            med_a, q1_a, q3_a = summary(a_values)
            med_b, q1_b, q3_b = summary(b_values)
            note = verdict(specs.get(name, {}), a_values, b_values, pairs, name)
            print(
                f"{workload}.{name}  before {med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}]  "
                f"after {med_b:.6g} [{q1_b:.6g}, {q3_b:.6g}]  {note}"
            )
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
