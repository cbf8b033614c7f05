"""Benchmark for linset-lab: one workload per run, answers checked.

    python3 perfbench/run.py --workload search-2-4 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ./src.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
makes untraced rounds for half of --seconds, then the workload's fixed
number of traced rounds, and prints the per-layer metrics, the tracing
overhead and the gf kernel figures.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Result files and span
files go to perfbench/results/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9

import calibrate  # noqa: E402
import program  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import() -> program.Lib:
    """Import linsetlab anew from ./src, dropping any earlier import."""
    for key in [k for k in sys.modules
                if k == "linsetlab" or k.startswith("linsetlab.")]:
        del sys.modules[key]
    lib = program.Lib()
    if Path(lib.package.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"linsetlab was not imported from {SRC}")
    return lib


def timed_set_ups(wl, inputs, probe):
    """SETUP_REPEATS set-ups, each in a fresh interpreter (setup_child.py),
    timed from before the process starts until the set-up is done, minus
    the child's own reading of the benchmark's modules and inputs.  The
    probe pauses while a child runs on the pinned core.  Returns, per
    set-up, the perf_counter() readings (start, done, (own start, own
    end)); perf_counter is one clock for every process of the machine."""
    data = json.dumps(wl.plain(inputs)).encode("ascii")
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC.resolve()),
           wl.name]
    times = []
    for _ in range(SETUP_REPEATS):
        with probe.paused():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, input=data, capture_output=True,
                                  check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n"
                               + proc.stderr.decode(errors="replace"))
        out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        times.append((t0, out["done"], out["own"]))
        # a few samples between two set-ups, for their conversion
        time.sleep(2 * probe.period)
    return times


def set_up(wl, inputs):
    """The set-up the rounds of this process use (untimed)."""
    lib = fresh_import()
    return lib, wl.prepare(lib, json.loads(json.dumps(wl.plain(inputs))))


class Checker:
    """Checks each result as soon as its call returns, then drops it;
    keeps the failure messages and, for search reports, the figures the
    traced counters are compared with."""

    def __init__(self, wl, inputs, expected):
        self.wl, self.inputs, self.expected = wl, inputs, expected
        self.problems = []
        self.checked = Counter()
        self.reported = {"visited": 0, "scanned": 0, "pair_count": 0,
                         "reports": 0}

    def __call__(self, k, result) -> None:
        self.checked[k] += 1
        try:
            self.wl.check(self.inputs, self.expected, k, result)
        except workloads.Failure as exc:
            self.problems.append(str(exc))
        if hasattr(result, "scanned"):
            self.reported["visited"] += result.params["visited"]
            self.reported["scanned"] += result.scanned
            self.reported["pair_count"] += result.pair_count
            self.reported["reports"] += 1

    def final(self, lib, calls: int) -> bool:
        """True when every one of the round's `calls` positions gave at
        least one checked result and no check failed."""
        unchecked = [k for k in range(calls) if not self.checked[k]]
        if unchecked:
            self.problems.append(f"no checked result from calls {unchecked[:5]}"
                                 f" of {calls} in a round")
        try:
            self.wl.final_check(lib)
        except workloads.Failure as exc:
            self.problems.append(str(exc))
        except Exception as exc:  # noqa: BLE001 -- a crash is a failed check
            self.problems.append(f"final check raised {exc!r}")
        for msg in self.problems[:5]:
            print(f"check failed: {msg}", file=sys.stderr)
        return not self.problems


def run_rounds(wl, lib, prepared, check, seconds=None, rounds=None):
    """Whole rounds of the workload's calls, until `seconds` have passed
    or `rounds` are done; check(k, result) sees each result of call k of
    a round.  Returns (spans, items, failed, rounds): spans are the
    (start, end) of every call, failed ones included."""
    ops = wl.ops(lib, prepared)
    spans = []
    items = failed = done = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for k, op in enumerate(ops):
            t0 = clock()
            try:
                res = op()
            except Exception:  # a failed call counts, the run goes on
                spans.append((t0, clock()))
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            spans.append((t0, clock()))
            items += wl.items(res)
            check(k, res)
            del res
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif clock() - start >= seconds:
            break
    return spans, items, failed, done


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its ended pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(wl, inputs, seconds):
    """Set-up and timed rounds, in reference seconds (calibrate.py)."""
    check = Checker(wl, inputs, wl.expect(inputs))
    with calibrate.SpeedProbe() as probe:
        setups = timed_set_ups(wl, inputs, probe)
        lib, prepared = set_up(wl, inputs)
        spans, items, failed, rounds = run_rounds(
            wl, lib, prepared, check, seconds=seconds)
    rss = peak_rss_mb()
    ref = [probe.reference_seconds(t0, t1) for t0, t1 in spans]
    metrics = {
        "setup_s": (statistics.median(
            probe.reference_seconds(t0, done) - probe.reference_seconds(*own)
            for t0, done, own in setups), "s"),
        "items_per_s": (items / sum(ref), "1/s"),
        "op_ms_p50": (statistics.median(ref) * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    walls = [t1 - t0 for t0, t1 in spans]
    raw = {"rounds": rounds,
           "wall_setup_s": statistics.median(done - t0 - (own[1] - own[0])
                                             for t0, done, own in setups),
           "wall_items_per_s": items / sum(walls),
           "wall_op_ms_p50": statistics.median(walls) * 1000.0,
           "ref_loop_ms_p50": statistics.median(
               d for _, d in probe.samples) * 1000.0,
           "ref_loop_samples": len(probe.samples)}
    calls = len(wl.ops(lib, prepared))
    return check.final(lib, calls), len(spans), failed, metrics, raw


def counter_checks(layer, reported) -> dict:
    """Traced counters against the reports they describe: name -> (traced,
    reported).  Only the search workloads have reports to compare."""
    if not reported["reports"]:
        return {}
    return {
        "scan_ids == visited": (layer["classify.scan_ids"],
                                reported["visited"]),
        "scan_fingerprinted == scanned": (layer["classify.scan_fingerprinted"],
                                          reported["scanned"]),
        "pairs_by_canonical_form + pairs_by_core == pair_count": (
            layer["classify.pairs_by_canonical_form"]
            + layer["classify.pairs_by_core"], reported["pair_count"]),
    }


def traced(wl, inputs, seed, seconds):
    """Untraced rounds for half of `seconds`, then wl.trace_rounds traced
    rounds; per-layer metrics.  The traced rounds are a fixed number, so
    every count is the same on a fast and on a slow machine."""
    expected = wl.expect(inputs)
    lib, prepared = set_up(wl, inputs)
    calls = len(wl.ops(lib, prepared))
    plain_check = Checker(wl, inputs, expected)
    check = Checker(wl, inputs, expected)
    tracer = tracing.Tracer(lib.modules())
    with calibrate.SpeedProbe() as probe:
        plain_spans, _, failed_a, plain_rounds = run_rounds(
            wl, lib, prepared, plain_check, seconds=seconds / 2.0)
        tracer.install()
        try:
            traced_spans, _, failed_b, _ = run_rounds(
                wl, lib, prepared, check, rounds=wl.trace_rounds)
        finally:
            tracer.uninstall()
    layer = tracer.layer_metrics()
    # time per round in reference seconds, so that a drift of the
    # machine's speed between the two halves does not pass for overhead
    plain_s = sum(probe.reference_seconds(*span) for span in plain_spans)
    traced_s = sum(probe.reference_seconds(*span) for span in traced_spans)
    overhead = ((traced_s / wl.trace_rounds) / (plain_s / plain_rounds)
                - 1.0) * 100.0
    ok = plain_check.final(lib, calls) and check.final(lib, calls)
    for name, (got, want) in counter_checks(layer, check.reported).items():
        if got != want:
            print(f"trace counters: {name} fails: {got} != {want}",
                  file=sys.stderr)
            ok = False
    kernel = tracing.gf_kernel_ns(lib.gf, seed)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{wl.name}-seed{seed}.jsonl",
                 {"workload": wl.name, "seed": seed, "layer": layer,
                  "overhead_pct": overhead, "gf": kernel})
    metrics = {}
    for name, value in layer.items():
        metrics[name] = (value, layer_unit(name))
    for name, value in kernel.items():
        metrics[name] = (value, "ns")
    metrics["trace.overhead_pct"] = (overhead, "%")
    attempted = len(plain_spans) + len(traced_spans)
    raw = {"untraced_ref_s": plain_s, "traced_ref_s": traced_s,
           "untraced_rounds": plain_rounds, "traced_rounds": wl.trace_rounds}
    return ok, attempted, failed_a + failed_b, metrics, raw


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name in ("classify.scan_yield", "linalg.det_per_fingerprint"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    src = str(SRC.resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        fresh_import()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    if args.trace:
        ok, attempted, failed, metrics, raw = traced(wl, inputs, args.seed,
                                                     args.seconds)
    else:
        ok, attempted, failed, metrics, raw = end_to_end(wl, inputs,
                                                         args.seconds)
    out = {"correct": ok, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="ascii") as fh:
        json.dump(dict(out, raw=raw), fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
