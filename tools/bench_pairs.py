"""Summarize alternating parent/change benchmark runs into BENCH_<label>.json.

    python3 tools/bench_pairs.py --label LABEL --parent SHA --change SHA
        [--note TEXT ...] DIR

DIR holds one file per (workload, seed, side), named
<workload>-<seed>-<side>.json with side "parent" or "change", whose last
line is the JSON object that perfbench/run.py prints last.  Each seed
with both sides present is one pair.  For every end-to-end metric the
output gives both sides' median and quartiles (inclusive method), the
change's median relative to the parent's, the number of pairs the change
wins (strictly better in the direction BENCHMARK.json gives), and every
run in seed order.  Two fields give the verdict of the rules the benchmark
is judged by: within_bound says the change's median is worse than the
parent's by no more than the metric's BENCHMARK.json bound (a fraction of
the parent's median); meets_claim_rule says the change wins at least 9 of
every 10 pairs and its median is better than the parent's by more than the
parent's interquartile distance (q3 - q1).  Each --note (for example a wall time measured outside
the benchmark) goes into a "notes" list.  The Python version and core
count written are those of the machine that runs this script, so run it
where the benchmark ran.

Compile both trees' bytecode (python3 -m compileall -q src in each) or
clear both src/**/__pycache__ directories before the timed runs.  Where
PYTHONDONTWRITEBYTECODE=1 is set, a tree whose .pyc files are stale
recompiles the package in each of setup_s's nine fresh interpreters, so
setup_s reads higher on that tree only (0.08 -> 0.11 s in one
comparison, equal again once both trees were compiled).
Bad input ends in a one-line error and exit code 1.
"""

import argparse
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>.+)-(?P<seed>\d+)-(?P<side>parent|change)\.json$")
SIDES = ("parent", "change")
FIELDS = {"correct", "attempted", "failed", "metrics"}
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0"
METHOD = ("one run per side and seed; odd seeds run the parent first, "
          "even seeds the change first")


def load_runs(directory: Path) -> dict:
    """{workload: {seed: {side: run.py result}}} from the files in DIR."""
    runs: dict = {}
    for path in sorted(directory.iterdir()):
        m = NAME.match(path.name)
        if m is None:
            continue
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if not isinstance(result, dict) or not FIELDS <= result.keys():
            raise ValueError(f"{path.name}: last line is not a run.py result")
        runs.setdefault(m["workload"], {}).setdefault(
            int(m["seed"]), {})[m["side"]] = result
    if not runs:
        raise ValueError(f"no <workload>-<seed>-<side>.json files in {directory}")
    return runs


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdicts(parent: list, change: list, lower: bool, bound: float,
             wins: int) -> dict:
    """within_bound and meets_claim_rule of one metric (module docstring)."""
    sign = 1 if lower else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else [p_med] * 3)
    gain = sign * (p_med - c_med)  # > 0: the change is better
    return {"within_bound": -gain <= bound * abs(p_med),
            "meets_claim_rule": 10 * wins >= 9 * len(parent)
            and gain > q3 - q1}


def summarize(by_seed: dict, spec: dict) -> dict:
    """One workload's block: its pairs are the seeds run on both sides;
    spec holds BENCHMARK.json's end-to-end metrics by name."""
    seeds = sorted(s for s, sides in by_seed.items() if len(sides) == 2)
    if not seeds:
        raise ValueError("a workload has no seed run on both sides")
    pairs = [by_seed[s] for s in seeds]
    metrics = {}
    for name, info in pairs[0]["parent"]["metrics"].items():
        if name not in spec:
            raise ValueError(f"metric {name} is not an end-to-end metric "
                             "of BENCHMARK.json")
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        better = spec[name]["better"]
        lower = better == "lower"
        parent_median = statistics.median(vals["parent"])
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "unit": info["unit"], "better": better,
            "parent": spread(vals["parent"]),
            "change": spread(vals["change"]),
            "change_vs_parent_median": round(
                statistics.median(vals["change"]) / parent_median - 1, 4)
            if parent_median else None,
            "change_wins": wins,
            **verdicts(vals["parent"], vals["change"], lower,
                       spec[name]["bound"], wins),
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]],
        }
    return {
        "pairs": len(seeds), "seeds": seeds,
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs)
                      for side in SIDES},
        "metrics": metrics,
    }


def dump(obj, depth: int = 0) -> str:
    """json with one-space indents, lists of numbers kept on one line."""
    pad = " " * (depth + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return json.dumps(obj)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("directory", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="parent commit sha")
    ap.add_argument("--change", required=True, help="change commit sha")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        order = [w["name"] for w in spec["workloads"]]
        runs = load_runs(args.directory)
        out = {"parent": args.parent, "change": args.change,
               "python": platform.python_version(), "cores": os.cpu_count(),
               "command": COMMAND, "method": METHOD,
               "workloads": {wl: summarize(runs[wl], metrics) for wl in sorted(
                   runs, key=lambda w: order.index(w) if w in order
                   else len(order))}}
        if args.note:
            out["notes"] = args.note
        path = args.out_dir / f"BENCH_{args.label}.json"
        path.write_text(dump(out) + "\n")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
