"""Tests of the benchmark itself: its independent checker, its tracer's
counters, and the names it prints.  Run with `python3 -m pytest perfbench`.
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

import calibrate
import ownfield
import run
import tracer as tracing
import workloads

BENCH = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.fresh_import()


def _coeffs(pid, order, n):
    out = []
    for _ in range(n):
        pid, c = divmod(pid, order)
        out.append(c)
    return out


def _passes_gcd(coeffs, n):
    g = n
    for i, c in enumerate(coeffs[1:], start=1):
        if c:
            g = math.gcd(g, i)
    return g == 1


# -- the independent checker ------------------------------------------------------

def test_irreducible_moduli_counts():
    # Gauss's count of monic irreducibles: (1/m) sum_(d|m) mu(d) p^(m/d)
    assert len(ownfield.irreducible_moduli(2, 4)) == 3
    assert len(ownfield.irreducible_moduli(3, 3)) == 8
    assert len(ownfield.irreducible_moduli(5, 3)) == 40
    assert len(ownfield.irreducible_moduli(2, 10)) == 99


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2)])
def test_support_and_burnside_counts_match_brute_force(p, e, n):
    q = p ** e
    tower = ownfield.Tower(p, e, n, ownfield.irreducible_moduli(p, e * n)[0])
    order = tower.order
    kept = [c for c in (_coeffs(pid, order, n) for pid in range(order ** n))
            if _passes_gcd(c, n)]
    assert ownfield.gcd_filter_count(q, n) == len(kept)
    seen, orbits = set(), 0
    for c in kept:
        if tuple(c) in seen:
            continue
        orbits += 1
        for k in range(tower.onum):
            seen.add(tuple(tower.twist(c, tower.field.exp[k])))
    assert ownfield.twist_orbit_count(q, n) == orbits


def test_slope_masks_match_the_programs_point_sets(lib):
    # the checker and the program agree on which small graphs share a set
    t = lib.gf.build_tower(2, 1, 3)
    own = ownfield.Tower(2, 1, 3, t.modulus)
    by_mask, by_points = {}, {}
    for pid in range(t.order ** 3):
        f = lib.linpoly.poly_from_id(t, pid)
        pts = lib.linset.linear_set(lib.linset.graph_subspace(f)).point_set()
        by_mask.setdefault(own.slope_mask(f.coeffs), set()).add(pid)
        by_points.setdefault(pts, set()).add(pid)
    assert sorted(map(sorted, by_mask.values())) == \
        sorted(map(sorted, by_points.values()))


def test_translate_adds_a_constant_to_every_slope():
    tower = ownfield.Tower(3, 1, 3, ownfield.irreducible_moduli(3, 3)[0])
    F = tower.field
    f = [0, 5, 11]
    mask = tower.slope_mask(f)
    for c in (1, 7, 26):
        shifted = {F.add(s, c) for s in range(F.order) if mask >> s & 1}
        assert F.translate(mask, c) == sum(1 << s for s in shifted)
        assert F.translate(mask, c) == tower.slope_mask([c] + f[1:])


def test_orbit_partition_shape_matches_a_twist_search(lib):
    t = lib.gf.build_tower(2, 1, 3)
    rep = lib.classify.bucket_search(2, 1, 3, modulo_twist=True)
    count, shape = ownfield.orbit_partition_shape(
        ownfield.Tower(2, 1, 3, t.modulus))
    assert rep.bucket_count == count
    assert Counter(b["size"] for b in rep.buckets.values()) == shape


def test_search_check_rejects_a_wrong_report(lib):
    wl = workloads.SearchWorkload("t", 2, 1, 3)
    inputs = wl.generate(0)
    expected = wl.expect(inputs)
    rep = lib.classify.bucket_search(2, 1, 3, modulus=inputs["modulus"])
    wl.check(inputs, expected, 0, rep)
    # move one member to another bucket: sizes and counts stay plausible
    # only if the checker misses it
    keys = [k for k, b in rep.buckets.items() if b["size"] > 1]
    a, b = rep.buckets[keys[0]], rep.buckets[keys[1]]
    a["members"][0], b["members"][0] = b["members"][0], a["members"][0]
    with pytest.raises(workloads.Failure):
        wl.check(inputs, expected, 0, rep)


def test_pairs_are_seeded_and_equal_sets():
    wl = workloads.WORKLOADS["pairs-mixed"]
    one, again = wl.generate(7), wl.generate(7)
    assert [p["f"] for p in one["pairs"]] == [p["f"] for p in again["pairs"]]
    assert [p["g"] for p in one["pairs"]] != \
        [p["g"] for p in wl.generate(8)["pairs"]]
    for pr in one["pairs"]:
        tower = one["towers"][pr["p"], pr["n"]]
        assert tower.slope_mask(pr["f"]) == tower.slope_mask(pr["g"])
    kinds = Counter(pr["kind"] for pr in one["pairs"])
    assert set(kinds) == set(workloads.ALLOWED)


def test_pairs_check_rejects_a_wrong_case():
    wl = workloads.WORKLOADS["pairs-mixed"]
    inputs = wl.generate(1)
    expected = wl.expect(inputs)
    assert all(expected["equal"])
    assert inputs["pairs"][0]["kind"] == "multiple"
    wl.check(inputs, expected, 0, ("multiple", True))
    for bad in (("perp_multiple", True), ("multiple", False),
                ("unknown", True)):
        with pytest.raises(workloads.Failure):
            wl.check(inputs, expected, 0, bad)


# -- the tracer ----------------------------------------------------------------------

def _traced(lib, fn):
    tr = tracing.Tracer(lib.modules())
    tr.install()
    try:
        result = fn()
    finally:
        tr.uninstall()
    return tr, result


@pytest.mark.parametrize("kwargs", [{}, {"modulo_twist": True}])
def test_traced_search_counters_add_up(lib, kwargs):
    n = 3
    tr, rep = _traced(lib, lambda: lib.classify.bucket_search(2, 1, n, **kwargs))
    layer = tr.layer_metrics()
    assert layer["classify.scan_ids"] == rep.params["visited"]
    assert layer["classify.scan_fingerprinted"] == rep.scanned
    assert (layer["classify.pairs_by_canonical_form"]
            + layer["classify.pairs_by_core"]) == rep.pair_count
    assert layer["linalg.det_calls"] == \
        layer["dickson.fingerprint_calls"] * (2 ** n - 1)
    reported = {"visited": rep.params["visited"], "scanned": rep.scanned,
                "pair_count": rep.pair_count, "reports": 1}
    checks = run.counter_checks(layer, reported)
    assert checks and all(got == want for got, want in checks.values())


def test_tracer_restores_the_program(lib):
    before = (lib.linalg.det, lib.classify.bucket_search,
              lib.dickson.DicksonMatrix.fingerprint, lib.classify.linear_set,
              lib.package.bucket_search)
    tr, _ = _traced(lib, lambda: lib.classify.verify_club_uniqueness(2, 1, 3))
    assert tr.calls("classify._club_worker") >= 1
    assert tr.layer_metrics()["classify.verify_scan_s"] > 0
    after = (lib.linalg.det, lib.classify.bucket_search,
             lib.dickson.DicksonMatrix.fingerprint, lib.classify.linear_set,
             lib.package.bucket_search)
    assert before == after


def test_traced_pair_attributes_core_time_by_case(lib):
    t = lib.gf.build_tower(2, 1, 5)
    Poly = lib.linpoly.LinearizedPolynomial
    f, g = Poly.monomial(t, 1, 1), Poly.monomial(t, 1, 2)
    tr, v = _traced(lib, lambda: lib.classify.classify_pair(f, g))
    layer = tr.layer_metrics()
    assert v.case == "pseudoregulus"
    assert layer["classify.core_calls"] == 1
    assert layer["classify.core_s.pseudoregulus"] == layer["classify.core_s"] > 0


def test_traced_counts_are_a_fixed_number_of_rounds(capsys):
    wl = workloads.WORKLOADS["pairs-mixed"]
    assert run.main(["--workload", "pairs-mixed", "--seed", "2",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is True
    calls = len(wl.generate(2)["pairs"])
    assert out["metrics"]["classify.core_calls"]["value"] == \
        calls * wl.trace_rounds
    # the untraced half of 0.005 s is one whole round
    assert out["attempted"] == calls * (1 + wl.trace_rounds)


# -- the run's own rules ---------------------------------------------------------------

def test_checker_refuses_a_round_without_checked_results(lib):
    wl = workloads.WORKLOADS["verify-3-3"]
    assert run.Checker(wl, {}, {}).final(lib, 1) is False
    check = run.Checker(wl, {}, {})
    check(0, True)
    assert check.final(lib, 1) is True


def test_checker_turns_a_crash_of_the_final_check_into_a_failure(lib):
    wl = workloads.SearchWorkload("t", 2, 1, 3, pool_check=(2, 1, 3))
    check = run.Checker(wl, {}, {})
    check.checked[0] = 1

    class Broken:
        classify = None  # bucket_search cannot be found
    assert check.final(Broken(), 1) is False
    assert "raised" in check.problems[-1]


def test_reference_seconds_integrate_a_change_of_speed():
    probe = calibrate.SpeedProbe()
    ref = calibrate.REFERENCE_LOOP_S
    # 10 s at the reference speed, then 10 s at half of it
    probe.samples = [(0.05 + 0.1 * i, ref if i < 100 else 2 * ref)
                     for i in range(200)]
    probe.index()
    assert probe.reference_seconds(0.0, 20.0) == pytest.approx(15.0, rel=1e-3)
    assert probe.reference_seconds(10.0, 20.0) == pytest.approx(5.0, rel=1e-2)
    # a short stretch takes the speed of its nine nearest samples
    assert probe.reference_seconds(2.0, 2.3) == pytest.approx(0.3)


# -- printed names -------------------------------------------------------------------

def test_printed_layer_names_are_the_declared_ones(lib):
    tr = tracing.Tracer(lib.modules())
    names = set(tr.layer_metrics()) | set(tracing.gf_kernel_ns(lib.gf, 0, reps=1, n_ops=10))
    names.add("trace.overhead_pct")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert names == set(declared)
    for name in tr.layer_metrics():
        assert run.layer_unit(name) == declared[name]


def test_end_to_end_run_prints_the_declared_metrics(capsys):
    assert run.main(["--workload", "verify-3-3", "--seed", "3",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_pool_check_passes_and_sees_a_wrong_report(monkeypatch):
    # a fresh import: pool workers unpickle the functions of the modules
    # now in sys.modules, which an earlier run.main() has replaced
    lib = run.fresh_import()
    workloads._check_pool(lib, 2, 1, 3)
    real = lib.classify.bucket_search

    def short_by_one(*args, **kwargs):
        rep = real(*args, **kwargs)
        if kwargs.get("workers") == 2:
            rep.scanned -= 1
        return rep
    monkeypatch.setattr(lib.classify, "bucket_search", short_by_one)
    with pytest.raises(workloads.Failure):
        workloads._check_pool(lib, 2, 1, 3)
