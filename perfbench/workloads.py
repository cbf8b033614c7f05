"""The four workloads: inputs from a seed, the timed calls, and the checks.

Each workload has these parts:

* generate(seed): plain data only (moduli, coefficient lists), drawn by
  the benchmark's own code with random.Random(seed);
* expect(inputs): the figures the checks compare against, computed by
  ownfield before anything is timed, never a stored copy of an earlier
  output;
* plain(inputs): the part of the inputs that prepare() reads, as data
  that JSON carries unchanged, so that a fresh interpreter can set up;
* prepare(lib, plain): turns that data into program objects (towers and
  their tables, twist tables, polynomials) -- the set-up that setup_s
  times;
* ops(lib, prepared): the calls of one round, all at workers=1;
* trace_rounds: how many rounds a traced run makes, fixed per workload
  so that the per-layer counts do not depend on the machine's speed;
* check(inputs, expected, k, result): run on each result as soon as call
  k of a round returns, so that no result outlives its check and the
  peak memory does not depend on how many rounds fit in a run;
* final_check(lib): what needs the program once more after the timed
  rounds (only the pool check of twist-5-3).
"""

import json
import random
from collections import Counter
from typing import Dict

import ownfield


class Failure(Exception):
    """A check that a program output failed."""


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

class SearchWorkload:
    """One full bucket_search at (p^e, n) over a seeded choice of modulus."""

    trace_rounds = 1

    def __init__(self, name, p, e, n, budget=None,
                 modulo_twist=False, members_checked=True, pool_check=None):
        self.name = name
        self.pool_check = pool_check
        self.p, self.e, self.n = p, e, n
        self.budget = budget
        self.modulo_twist = modulo_twist
        self.members_checked = members_checked
        self.total_ids = (p ** (e * n)) ** n

    def generate(self, seed: int) -> dict:
        moduli = ownfield.irreducible_moduli(self.p, self.e * self.n)
        return {"modulus": random.Random(seed).choice(moduli)}

    def plain(self, inputs) -> dict:
        return {"modulus": list(inputs["modulus"])}

    def prepare(self, lib, plain) -> dict:
        tower = lib.gf.build_tower(self.p, self.e, self.n, plain["modulus"])
        twist_tables = getattr(lib.classify, "_twist_tables", None)
        if twist_tables is not None:
            twist_tables(tower)
        return {"modulus": plain["modulus"]}

    def ops(self, lib, prepared):
        def search():
            return lib.classify.bucket_search(
                self.p, self.e, self.n, self.budget, workers=1,
                modulo_twist=self.modulo_twist, modulus=prepared["modulus"])
        return [search]

    def items(self, result) -> int:
        return self.total_ids

    def expect(self, inputs) -> dict:
        q, n = self.p ** self.e, self.n
        tower = ownfield.Tower(self.p, self.e, n, inputs["modulus"])
        expected = {"scanned": (ownfield.twist_orbit_count(q, n)
                                if self.modulo_twist
                                else ownfield.gcd_filter_count(q, n))}
        if self.modulo_twist:
            expected["shape"] = ownfield.orbit_partition_shape(tower)
        if self.members_checked:
            expected["masks"] = ownfield.id_slope_masks(
                tower, range(self.total_ids))
        return expected

    def check(self, inputs, expected, k, rep) -> None:
        n = self.n
        _expect(rep.params["visited"] == self.total_ids,
                f"visited {rep.params['visited']} != {self.total_ids}")
        _expect(list(rep.params["modulus"]) == list(inputs["modulus"]),
                "report names another modulus")
        want = expected["scanned"]
        _expect(rep.scanned == want,
                f"scanned {rep.scanned}, independent count {want}")
        sizes = [b["size"] for b in rep.buckets.values()]
        _expect(sum(sizes) == rep.scanned, "bucket sizes miss ids")
        _expect(rep.pair_count == sum(s * (s - 1) // 2 for s in sizes),
                "pair_count is not the sum of C(size, 2) over buckets")
        _expect(not rep.anomalies, f"anomalies: {rep.anomalies[:3]}")
        _expect(not rep.alerts, f"alerts: {rep.alerts[:3]}")
        n_prime = n >= 2 and all(n % d for d in range(2, n))
        if n <= 4 or (n_prime and n < 5):
            extra = set(rep.histogram) - {"multiple", "perp_multiple"}
            _expect(not extra, f"cases {sorted(extra)} at n = {n}")
        if self.modulo_twist:
            count, shape = expected["shape"]
            _expect(rep.bucket_count == count,
                    f"{rep.bucket_count} buckets, {count} slope sets")
            _expect(Counter(sizes) == shape,
                    "bucket sizes differ from the slope-set partition")
        if self.members_checked:
            _check_members(rep, expected["masks"])

    def final_check(self, lib) -> None:
        if self.pool_check is not None:
            _check_pool(lib, *self.pool_check)


def _check_pool(lib, p, e, n) -> None:
    """The process pool, checked but not timed: a small modulo_twist
    search through two workers gives the inline path's report bytes and
    the independently counted orbits and slope-set partition."""
    reports = [lib.classify.bucket_search(p, e, n, workers=w,
                                          modulo_twist=True)
               for w in (1, 2)]
    blobs = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    _expect(blobs[0] == blobs[1],
            f"bucket_search({p},{e},{n}) differs between 1 and 2 workers")
    rep = reports[1]
    _expect(rep.scanned == ownfield.twist_orbit_count(p ** e, n),
            f"pool search at ({p},{e},{n}) scanned {rep.scanned} ids")
    count, shape = ownfield.orbit_partition_shape(
        ownfield.Tower(p, e, n, rep.params["modulus"]))
    _expect(rep.bucket_count == count
            and Counter(b["size"] for b in rep.buckets.values()) == shape,
            f"pool search at ({p},{e},{n}): buckets differ from slope sets")


def _check_members(rep, masks) -> None:
    """One slope set per bucket, a different one for each bucket."""
    seen = set()
    for key, bucket in rep.buckets.items():
        ids = bucket.get("members")
        _expect(ids is not None, "report lists no bucket members")
        bucket_masks = {masks.get(pid) for pid in ids}
        _expect(None not in bucket_masks, f"bucket {key}: unknown member")
        _expect(len(bucket_masks) == 1, f"bucket {key}: several slope sets")
        mask = bucket_masks.pop()
        _expect(mask not in seen, f"bucket {key}: slope set of another bucket")
        seen.add(mask)


class VerifyWorkload:
    """verify_club_uniqueness over a seeded choice of modulus."""

    trace_rounds = 3

    def __init__(self, name, p, e, n):
        self.name = name
        self.p, self.e, self.n = p, e, n
        self.total_ids = (p ** (e * n)) ** n

    def generate(self, seed: int) -> dict:
        moduli = ownfield.irreducible_moduli(self.p, self.e * self.n)
        return {"modulus": random.Random(seed).choice(moduli)}

    def plain(self, inputs) -> dict:
        return {"modulus": list(inputs["modulus"])}

    def prepare(self, lib, plain) -> dict:
        lib.gf.build_tower(self.p, self.e, self.n, plain["modulus"])
        return {"modulus": plain["modulus"]}

    def ops(self, lib, prepared):
        def verify():
            return lib.classify.verify_club_uniqueness(
                self.p, self.e, self.n, workers=1,
                modulus=prepared["modulus"])
        return [verify]

    def items(self, result) -> int:
        return self.total_ids

    def expect(self, inputs) -> dict:
        return {}

    def check(self, inputs, expected, k, ok) -> None:
        _expect(ok is True, f"verify_club_uniqueness returned {ok!r}")

    def final_check(self, lib) -> None:
        pass


# ---------------------------------------------------------------------------
# equal-set pairs
# ---------------------------------------------------------------------------

# (construction, (p, n), count) per round; the case each construction may
# be classified as is in ALLOWED.
PAIR_PLAN = (
    ("multiple", (2, 4), 4), ("multiple", (3, 3), 4), ("multiple", (2, 5), 4),
    ("multiple", (3, 5), 4), ("multiple", (2, 6), 4),
    ("perp_multiple", (2, 4), 4), ("perp_multiple", (3, 3), 4),
    ("perp_multiple", (2, 5), 4), ("perp_multiple", (3, 5), 4),
    ("perp_multiple", (2, 6), 4),
    ("pseudoregulus_monomial", (2, 5), 3), ("pseudoregulus_binomial", (2, 5), 3),
    ("pseudoregulus_monomial", (3, 5), 3), ("pseudoregulus_binomial", (3, 5), 3),
    ("generalized_perp", (2, 6), 6),
    ("generalized_pseudoregulus", (2, 10), 4),
)
# Drawn pairs are rejected when a twist (or adjoint twist) relates them
# and the construction means something else, so the first matching case
# in the classifier's order is the construction's own.
ALLOWED = {
    "multiple": {"multiple"},
    "perp_multiple": {"perp_multiple"},
    "pseudoregulus_monomial": {"pseudoregulus"},
    "pseudoregulus_binomial": {"pseudoregulus"},
    "generalized_perp": {"generalized_perp"},
    "generalized_pseudoregulus": {"generalized_pseudoregulus"},
}
GENERALIZED_D = {(2, 6): 3, (2, 10): 5}


def _nonzero(rng, tower):
    return tower.field.exp[rng.randrange(tower.onum)]


def _draw_pair(kind, tower, rng):
    F, n, q = tower.field, tower.n, tower.q
    if kind in ("multiple", "perp_multiple"):
        while True:
            f = [rng.randrange(tower.order) for _ in range(n)]
            if not any(f[1:]):
                continue
            lam = _nonzero(rng, tower)
            if F.pow(lam, q - 1) == 1:
                continue  # a scalar of F_q leaves f unchanged
            if kind == "multiple":
                return f, tower.twist(f, lam)
            adj = tower.adjoint(f)
            if not tower.twist_related(f, adj):
                return f, tower.twist(adj, lam)
    if kind.startswith("pseudoregulus"):
        coprime = [i for i in range(1, n) if _gcd(i, n) == 1]
        i = rng.choice(coprime)
        j = rng.choice([k for k in coprime if k not in (i, n - i)])
        a = _nonzero(rng, tower)
        # b = a * w^(q-1) has the norm of a
        b = F.mul(a, F.pow(_nonzero(rng, tower), q - 1))
        c = _nonzero(rng, tower) if kind.endswith("binomial") else 0
        f, g = [0] * n, [0] * n
        f[0] = g[0] = c
        f[i], g[j] = a, b
        return f, g
    d = GENERALIZED_D[tower.p, n]
    sub = [F.exp[k * (tower.onum // (q ** d - 1))] for k in range(q ** d - 1)]
    while True:
        # f = f' + sum_i b_i Tr_(q^n/q^d)(a x)^(q^i), f' on multiples of d
        a = _nonzero(rng, tower)
        fprime = [rng.randrange(tower.order) if k % d == 0 else 0
                  for k in range(n)]
        bs = [0] * d
        if kind == "generalized_perp":
            for i in range(1, d):
                bs[i] = rng.choice([0] + sub)
            if not any(bs):
                continue
            # the partner carries the inner adjoint b'_k = b_(d-k)^(q^k)
            cs = [tower.frob(bs[(d - k) % d], k) if k else 0
                  for k in range(d)]
        else:
            coprime = [i for i in range(1, d) if _gcd(i, d) == 1]
            i = rng.choice(coprime)
            j = rng.choice([k for k in coprime if k not in (i, d - i)])
            bs[i] = rng.choice(sub)
            cs = [0] * d
            cs[j] = bs[i]
        f = [F.add(fprime[k], F.mul(bs[k % d], tower.frob(a, k)))
             for k in range(n)]
        g = [F.add(fprime[k], F.mul(cs[k % d], tower.frob(a, k)))
             for k in range(n)]
        if (tower.twist_related(f, g)
                or tower.twist_related(tower.adjoint(f), g)):
            continue
        return f, g


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class PairsWorkload:
    """classify_pair then replay_verdict over a seeded batch of pairs."""

    trace_rounds = 20

    def __init__(self, name):
        self.name = name

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        towers: Dict[tuple, ownfield.Tower] = {}
        pairs = []
        for kind, (p, n), count in PAIR_PLAN:
            if (p, n) not in towers:
                # one fixed modulus per field keeps the cost of a round
                # from depending on the seed through the field's tables
                modulus = ownfield.irreducible_moduli(p, n)[0]
                towers[p, n] = ownfield.Tower(p, 1, n, modulus)
            tower = towers[p, n]
            for _ in range(count):
                f, g = _draw_pair(kind, tower, rng)
                pairs.append({"kind": kind, "p": p, "n": n, "f": f, "g": g})
        return {"pairs": pairs, "towers": towers}

    def plain(self, inputs) -> dict:
        return {"pairs": inputs["pairs"],
                "moduli": [[p, n, list(t.field._modulus)]
                           for (p, n), t in inputs["towers"].items()]}

    def prepare(self, lib, plain) -> dict:
        Poly = lib.linpoly.LinearizedPolynomial
        towers = {(p, n): lib.gf.build_tower(p, 1, n, m)
                  for p, n, m in plain["moduli"]}
        return {"pairs": [(Poly(towers[pr["p"], pr["n"]], pr["f"]),
                           Poly(towers[pr["p"], pr["n"]], pr["g"]))
                          for pr in plain["pairs"]]}

    def ops(self, lib, prepared):
        classify_pair = lib.classify.classify_pair
        replay = lib.classify.replay_verdict

        def make(f, g):
            def op():
                verdict = classify_pair(f, g)
                return verdict.case, replay(f, g, verdict) is True
            return op
        return [make(f, g) for f, g in prepared["pairs"]]

    def items(self, result) -> int:
        return 1

    def expect(self, inputs) -> dict:
        """Whether each drawn pair really has one slope set."""
        return {"equal": [
            inputs["towers"][pr["p"], pr["n"]].slope_mask(pr["f"])
            == inputs["towers"][pr["p"], pr["n"]].slope_mask(pr["g"])
            for pr in inputs["pairs"]]}

    def check(self, inputs, expected, k, result) -> None:
        pr = inputs["pairs"][k]
        case, replayed = result
        _expect(expected["equal"][k], f"pair {k} ({pr['kind']}): the sets differ")
        _expect(case != "unknown", f"pair {k}: verdict unknown")
        _expect(replayed, f"pair {k}: verdict {case} does not replay")
        _expect(case in ALLOWED[pr["kind"]],
                f"pair {k}: {pr['kind']} pair classified as {case}")

    def final_check(self, lib) -> None:
        pass


def _expect(cond, message) -> None:
    if not cond:
        raise Failure(message)


WORKLOADS = {
    "search-2-4": SearchWorkload("search-2-4", 2, 1, 4),
    # two workers on the shared two-core build machine spread 17% from
    # run to run, so the pool is checked at (3,3) but not timed
    "twist-5-3": SearchWorkload("twist-5-3", 5, 1, 3,
                                budget=5 ** 9, modulo_twist=True,
                                members_checked=False, pool_check=(3, 1, 3)),
    "pairs-mixed": PairsWorkload("pairs-mixed"),
    "verify-3-3": VerifyWorkload("verify-3-3", 3, 1, 3),
}
