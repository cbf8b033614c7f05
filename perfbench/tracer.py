"""Call tracing for the per-layer metrics, done from outside the program.

Tracer.install() replaces functions of the linsetlab modules with timing
wrappers and uninstall() puts the originals back; nothing in the program
changes.  Each wrapped call records its name, start, end, self time (its
duration minus that of the wrapped calls inside it) and the wrapped call
that caused it.  Calls of the *span* functions (public calls and worker
chunks) are also kept one by one in memory and written out at the end;
the many leaf calls (det, fingerprint, ...) are only summed, per name
and per enclosing span function, so a traced search stays small.

Tracing only sees calls made in this process, so traced searches run
with workers=1.
"""

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

CASES = ("multiple", "perp_multiple", "pseudoregulus",
         "generalized_pseudoregulus", "generalized_perp")

# (defining module, function, kept as spans)
TARGETS = (
    ("classify", "bucket_search", True),
    ("classify", "_scan_worker", True),
    ("classify", "_classify_worker", True),
    ("classify", "verify_club_uniqueness", True),
    ("classify", "_club_worker", True),
    ("classify", "classify_pair", True),
    ("classify", "replay_verdict", True),
    ("classify", "_classify_core", True),
    ("classify", "_twist_canonical_form", False),
    ("linset", "set_linearity", False),
    ("linset", "linear_set", False),
    ("linpoly", "poly_from_id", False),
    ("linalg", "det", False),
    ("linalg", "rref", False),
)
METHODS = (
    ("dickson", "DicksonMatrix", "fingerprint"),
    ("dickson", "DicksonMatrix", "digest"),
    ("dickson", "DicksonMatrix", "diag_similar"),
)
# every module that defines or imports a traced function by name; each of
# its names bound to a traced function is rebound to the one wrapper
ALIASES = ("classify", "linset", "dickson", "linpoly", "linalg", "gf",
           "package")


class Tracer:
    def __init__(self, lib_modules: Dict[str, object]):
        self.mods = lib_modules
        self.stack: List[list] = []
        # name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, list] = defaultdict(lambda: [0, 0, 0])
        # (name, enclosing span name) -> calls
        self.calls_in: Dict[tuple, int] = defaultdict(int)
        # (name, caller name) -> calls
        self.calls_by_parent: Dict[tuple, int] = defaultdict(int)
        self.core_ns_by_case: Dict[str, int] = defaultdict(int)
        self.scan_ids = 0
        self.classify_pairs = 0
        self.spans: List[tuple] = []
        self._next_id = 1
        self._undo: List[tuple] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            # frame: name, span id, child ns, nearest enclosing span name
            frame = [name, sid, 0,
                     name if span else (parent[3] if parent else None)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tot = tracer.totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    tracer.calls_by_parent[name, parent[0]] += 1
                tracer.calls_in[name, parent[3] if parent else None] += 1
                if span:
                    tracer.spans.append((sid, parent[1] if parent else None,
                                         name, t0, t1, dur - frame[2]))
            tracer._observe(name, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result, dur):
        if name == "classify._scan_worker":
            _desc, lo, hi, ids, _twist = args[0]
            self.scan_ids += len(ids) if ids is not None else hi - lo
        elif name == "classify._classify_worker":
            items = args[0][1]
            self.classify_pairs += sum(len(ids) * (len(ids) - 1) // 2
                                       for _key, ids in items)
        elif name == "classify._classify_core":
            matched = result[0]
            self.core_ns_by_case[matched[0] if matched else "unknown"] += dur

    def install(self) -> None:
        wrapped = {}
        for mod_name, attr, span in TARGETS:
            mod = self.mods[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            w = self._wrap(f"{mod_name}.{attr}", fn, span)
            wrapped[id(fn)] = w
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(self.mods[mod_name], cls_name)
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{mod_name}.{attr}", fn, False))
        for mod_name in ALIASES:
            mod = self.mods[mod_name]
            for attr, val in list(vars(mod).items()):
                w = wrapped.get(id(val))
                if w is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def seconds(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] / 1e9 if name in self.totals else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer figures, named as in BENCHMARK.json."""
        c, s = self.calls, self.seconds
        fp_calls = c("dickson.fingerprint")
        scan_fp = self.calls_in["dickson.fingerprint", "classify._scan_worker"]
        group_fp = self.calls_in["dickson.fingerprint", "classify.bucket_search"]
        core_in_search = self.calls_in["classify._classify_core",
                                       "classify._classify_worker"]
        det_in_fp = self.calls_by_parent["linalg.det", "dickson.fingerprint"]
        out = {
            "classify.scan_s": s("classify._scan_worker"),
            "classify.scan_ids": self.scan_ids,
            "classify.scan_fingerprinted": scan_fp,
            "classify.scan_yield": scan_fp / self.scan_ids if self.scan_ids else 0.0,
            "classify.group_s": max(0.0, s("classify.bucket_search")
                                    - s("classify._scan_worker")
                                    - s("classify._classify_worker")),
            "classify.group_fingerprints": group_fp,
            "classify.classify_s": s("classify._classify_worker"),
            "classify.twist_canonical_calls": c("classify._twist_canonical_form"),
            "classify.twist_canonical_s": s("classify._twist_canonical_form"),
            "classify.pairs_by_canonical_form": self.classify_pairs - core_in_search,
            "classify.pairs_by_core": core_in_search,
            "classify.core_calls": c("classify._classify_core"),
            "classify.core_s": s("classify._classify_core"),
            "classify.replay_s": s("classify.replay_verdict"),
            "classify.verify_scan_s": s("classify._club_worker"),
            "classify.verify_check_s": max(0.0, s("classify.verify_club_uniqueness")
                                           - s("classify._club_worker")),
            "dickson.fingerprint_calls": fp_calls,
            "dickson.fingerprint_s": s("dickson.fingerprint"),
            "dickson.digest_extra_s": self.self_seconds("dickson.digest"),
            "dickson.diag_similar_calls": c("dickson.diag_similar"),
            "dickson.diag_similar_s": s("dickson.diag_similar"),
            "linalg.det_calls": c("linalg.det"),
            "linalg.det_s": s("linalg.det"),
            "linalg.det_per_fingerprint": det_in_fp / fp_calls if fp_calls else 0.0,
            "linalg.rref_calls": c("linalg.rref"),
            "linalg.rref_s": s("linalg.rref"),
            "linset.set_linearity_calls": c("linset.set_linearity"),
            "linset.set_linearity_s": s("linset.set_linearity"),
            "linset.linear_set_s": s("linset.linear_set"),
            "linpoly.poly_from_id_calls": c("linpoly.poly_from_id"),
        }
        for case in CASES:
            out[f"classify.core_s.{case}"] = self.core_ns_by_case[case] / 1e9
        return out

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, t0, t1, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1,
                                     "self_ns": self_ns}) + "\n")
            fh.write(json.dumps({
                "totals": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                           for k, v in sorted(self.totals.items())},
                **(extra or {})}) + "\n")


def gf_kernel_ns(lib_gf, seed: int, reps: int = 5, n_ops: int = 20000) -> Dict[str, float]:
    """ns per call of the tower kernel's mul, add and frobenius, median of
    reps passes over n_ops seeded operand pairs, on three towers."""
    import random
    import statistics
    out = {}
    for p, e, n in ((2, 1, 4), (5, 1, 3), (2, 1, 10)):
        t = lib_gf.build_tower(p, e, n)
        rng = random.Random(seed * 1000 + p * 100 + n)
        xs = [rng.randrange(t.order) for _ in range(n_ops)]
        ys = [rng.randrange(t.order) for _ in range(n_ops)]
        js = [rng.randrange(1, n) for _ in range(n_ops)]
        tag = f"{p}-{e}-{n}"
        for op, args in (("mul", ys), ("add", ys), ("frobenius", js)):
            fn = getattr(t, op)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                for a, b in zip(xs, args):
                    fn(a, b)
                times.append((time.perf_counter_ns() - t0) / n_ops)
            out[f"gf.{op}_ns.{tag}"] = statistics.median(times)
    return out
