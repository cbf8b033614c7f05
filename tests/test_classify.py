"""Tests for pair classification, verdict replay, and bucket searches."""

import functools
import gc
import itertools
import json
import math
import os
import random
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from linsetlab import classify, dickson, gf, linalg, linset
from linsetlab.classify import (
    PairVerdict,
    _detect_generalized,
    bucket_search,
    classify_pair,
    is_club_coeffs,
    replay_verdict,
    verify_club_uniqueness,
)
from linsetlab.dickson import DicksonMatrix
from linsetlab.errors import (
    AmbientMismatchError,
    BadParametersError,
    BudgetExceededError,
    NotEqualSetsError,
    TooLargeError,
    ZeroParameterError,
)
from linsetlab.gf import build_tower
from linsetlab.linpoly import (
    LinearizedPolynomial,
    _adjoint_coeffs,
    _twist_coeffs,
    poly_from_id,
    poly_to_id,
)
from linsetlab.linset import (
    Subspace,
    construct_club,
    construct_generalized,
    generalized_partner,
    graph_subspace,
    linear_set,
    perp,
    pseudoregulus_witness,
    sets_equal,
)


def coeffs_of_id(t, pid):
    v, out = pid, []
    for _ in range(t.n):
        v, c = divmod(v, t.order)
        out.append(c)
    return out


def random_poly(t, rng):
    return LinearizedPolynomial(
        t, [rng.randrange(t.order) for _ in range(t.n)])


# -- helpers ---------------------------------------------------------------------


def test_detect_generalized_round_trip():
    rng = random.Random(7)
    t = build_tower(2, 1, 6)
    for d in (2, 3):
        subs = [s for s in t.subfield_elements(d) if s]
        for _ in range(10):
            a = rng.randrange(1, t.order)
            bs = [0] * d
            bs[1] = rng.choice(subs)
            if d == 3 and rng.random() < 0.5:
                bs[2] = rng.choice(subs)
            fprime = LinearizedPolynomial.monomial(t, rng.randrange(1, t.order), d)
            U = construct_generalized(fprime, bs, a, d)
            f = U.as_graph_poly()
            det = _detect_generalized(t, f.coeffs, d)
            assert det is not None
            a2, lam, bs2 = det
            # the detected reading must rebuild the same trace coefficients
            for i in range(1, d):
                for j in range(t.n // d):
                    pos = j * d + i
                    assert f.coeffs[pos] == t.mul(
                        lam, t.mul(bs2[i], t.pow(a2, t.q ** pos)))
            assert all(t.in_subfield(b, d) for b in bs2)
    # no trace part means no detection
    assert _detect_generalized(t, (0, 0, 1, 0, 0, 0), 2) is None
    assert _detect_generalized(t, (5, 0, 0, 9, 0, 0), 3) is None


# -- classify_pair ---------------------------------------------------------------


def test_classify_multiple_and_replay():
    rng = random.Random(1)
    for (p, e, n) in [(2, 1, 5), (3, 1, 3), (2, 2, 3)]:
        t = build_tower(p, e, n)
        for _ in range(5):
            f = random_poly(t, rng)
            if f.is_zero():
                continue
            lam = rng.randrange(2, t.order)
            g = f.twist(lam)
            v = classify_pair(f, g)
            assert v.case == "multiple"
            assert graph_subspace(g) == graph_subspace(f).scale(
                v.witness["lambda"])
            assert replay_verdict(f, g, v)
            assert v.certificate


def test_classify_perp_multiple_and_replay():
    rng = random.Random(2)
    t = build_tower(2, 1, 5)
    for _ in range(5):
        f = random_poly(t, rng)
        if f.is_zero():
            continue
        g = f.adjoint()
        v = classify_pair(f, g)
        if v.case == "multiple":
            continue  # self-adjoint up to twist
        assert v.case == "perp_multiple"
        assert graph_subspace(g) == perp(graph_subspace(f)).scale(
            v.witness["lambda"])
        assert replay_verdict(f, g, v)


def test_classify_pseudoregulus():
    t = build_tower(2, 1, 5)
    f = LinearizedPolynomial.monomial(t, 1, 1)
    g = LinearizedPolynomial.monomial(t, 1, 2)
    v = classify_pair(f, g)
    assert v.case == "pseudoregulus"
    assert v.witness["i"] == 1 and v.witness["j"] == 2
    assert v.witness["f_v0"] == (1, 0) and v.witness["f_v1"] == (0, 1)
    assert replay_verdict(f, g, v)
    assert sets_equal(graph_subspace(f), graph_subspace(g))
    # at q = 3 the coefficient norms must agree
    t3 = build_tower(3, 1, 5)
    a = next(c for c in range(2, t3.order)
             if t3.norm_to(c, 1) != 1 and t3.norm_to(c, 1) != 0)
    f3 = LinearizedPolynomial.monomial(t3, a, 1)
    g3 = LinearizedPolynomial.monomial(t3, 1, 2)
    with pytest.raises(NotEqualSetsError):
        classify_pair(f3, g3)
    b = next(c for c in range(2, t3.order)
             if t3.norm_to(c, 1) == t3.norm_to(a, 1))
    g3 = LinearizedPolynomial.monomial(t3, b, 2)
    v3 = classify_pair(f3, g3)
    assert v3.case == "pseudoregulus"
    assert replay_verdict(f3, g3, v3)


def two_generator_vectors(t, i, v0, v1):
    """All of {lam*v0 + lam^(q^i)*v1}, enumerated one lam at a time."""
    out = set()
    for lam in range(t.order):
        lq = t.frobenius(lam, i)
        out.add((t.add(t.mul(lam, v0[0]), t.mul(lq, v1[0])),
                 t.add(t.mul(lam, v0[1]), t.mul(lq, v1[1]))))
    return out


def test_pseudoregulus_witness_regenerates_the_graph():
    t = build_tower(2, 1, 5)
    # monomials and translated binomials c*x + b*x^(q^i) all carry witnesses
    for coeffs in ([0, 3, 0, 0, 0], [0, 0, 0, 7, 0], [5, 1, 0, 0, 0],
                   [14, 0, 1, 0, 0], [9, 0, 0, 0, 6], [1, 0, 0, 1, 0]):
        f = LinearizedPolynomial(t, coeffs)
        w = pseudoregulus_witness(f)
        assert w is not None
        assert math.gcd(w["i"], t.n) == 1
        span = two_generator_vectors(t, w["i"], w["v0"], w["v1"])
        assert span == {(x, f.evaluate(x)) for x in range(t.order)}


def test_pseudoregulus_witness_rejects_other_shapes():
    t = build_tower(2, 1, 5)
    # scalars, the trace map, binomials missing the x term, triple supports
    for coeffs in ([3, 0, 0, 0, 0], [1, 1, 1, 1, 1],
                   [0, 1, 1, 0, 0], [0, 1, 0, 1, 1]):
        assert pseudoregulus_witness(LinearizedPolynomial(t, coeffs)) is None
    # scattered binomials whose lower coefficient is not a norm fail too
    t3 = build_tower(3, 1, 5)
    delta = next(c for c in range(2, t3.order)
                 if t3.norm_to(c, 1) not in (0, 1))
    assert pseudoregulus_witness(
        LinearizedPolynomial(t3, [0, delta, 0, 0, 1])) is None


def test_classify_translated_binomial_family():
    # for fixed c != 0 the graphs of c*x + x^(q^i) all cut out one point set;
    # exponent pairs outside {i, n - i} must still settle as pseudoregulus
    t = build_tower(2, 1, 5)
    for c in (1, 14):
        polys = []
        for i in range(1, 5):
            coeffs = [0] * 5
            coeffs[0], coeffs[i] = c, 1
            polys.append(LinearizedPolynomial(t, coeffs))
        base_points = linear_set(graph_subspace(polys[0])).point_set()
        for f in polys[1:]:
            assert linear_set(graph_subspace(f)).point_set() == base_points
        for a in range(4):
            for b in range(a + 1, 4):
                f, g = polys[a], polys[b]
                v = classify_pair(f, g)
                want = "perp_multiple" if a + b == 3 else "pseudoregulus"
                assert v.case == want, (a + 1, b + 1, v.case)
                assert replay_verdict(f, g, v)


def test_pseudoregulus_case_needs_n_at_least_5():
    # at n = 4 the coprime exponents pair up through the adjoint, and the
    # two-generator case stays out of the verdict even when asked for all
    t = build_tower(2, 1, 4)
    f = LinearizedPolynomial(t, [7, 1, 0, 0])
    g = LinearizedPolynomial(t, [7, 0, 0, 1])
    v = classify_pair(f, g, exhaustive=True)
    assert v.case == "perp_multiple"
    assert "pseudoregulus" not in v.matched
    assert replay_verdict(f, g, v)


def test_classify_dense_two_generator_graphs():
    # over q = 3 a two-generator space with both x-parts nonzero is still a
    # graph when s*y + t*y^(q^i) is invertible; its polynomial has wide
    # support, yet every coprime exponent sweeps out the same point set
    t = build_tower(3, 1, 5)
    s, u, w = 1, 4, 7
    tv = next(c for c in range(2, t.order)
              if t.norm_to(c, 1) == 1 and t.sub(w, t.mul(c, u)))
    polys = []
    for i in (1, 2):
        vecs = []
        for k in range(t.n):
            lam = t.from_q_coords([1 if j == k else 0 for j in range(t.n)])
            lq = t.frobenius(lam, i)
            vecs.append((t.add(t.mul(lam, s), t.mul(lq, tv)),
                         t.add(t.mul(lam, u), t.mul(lq, w))))
        U = Subspace(t, 2, vecs)
        f = U.as_graph_poly()
        assert len(f.support) > 2
        wit = pseudoregulus_witness(f)
        assert wit is not None
        span = two_generator_vectors(t, wit["i"], wit["v0"], wit["v1"])
        assert span == {(x, f.evaluate(x)) for x in range(t.order)}
        polys.append(f)
    f, g = polys
    v = classify_pair(f, g)
    assert v.case == "pseudoregulus"
    assert replay_verdict(f, g, v)


def test_classify_exhaustive_lists_every_case():
    t = build_tower(2, 1, 6)
    f = LinearizedPolynomial(t, [0, 1, 0, 0, 0, 1])  # self-adjoint
    assert f.adjoint() == f
    v = classify_pair(f, f, exhaustive=True)
    assert v.case == "multiple"
    assert "perp_multiple" in v.matched


def test_classify_ambient_mismatch():
    f = LinearizedPolynomial.monomial(build_tower(2, 1, 4), 1, 1)
    g = LinearizedPolynomial.monomial(build_tower(2, 1, 5), 1, 1)
    with pytest.raises(AmbientMismatchError):
        classify_pair(f, g)


def criterion_seven_pair():
    """A generalized-perp pair at (2,6), d=3 that no earlier case matches."""
    t = build_tower(2, 1, 6)
    zeta = next(v for v in range(2, t.order) if not t.in_subfield(v, 3))
    fprime = LinearizedPolynomial.monomial(t, zeta, 3)
    U = construct_generalized(fprime, [0, 1, 0], 1, 3)
    W = generalized_partner(U, 3, 1, mode="perp_d")
    return t, U, W


def test_classify_generalized_perp():
    t, U, W = criterion_seven_pair()
    f, g = U.as_graph_poly(), W.as_graph_poly()
    assert sets_equal(U, W, verify=True)
    v = classify_pair(f, g, exhaustive=True)
    assert v.case == "generalized_perp"
    assert "multiple" not in v.matched
    assert "perp_multiple" not in v.matched
    assert v.witness["d"] == 3
    assert v.witness["inner_case"] == "perp_multiple"
    assert replay_verdict(f, g, v)
    # the tag is symmetric in the pair
    v2 = classify_pair(g, f)
    assert v2.case == "generalized_perp"
    assert replay_verdict(g, f, v2)


def test_classify_generalized_pseudoregulus():
    t = build_tower(2, 1, 10)
    U = construct_generalized(LinearizedPolynomial.zero(t), [0, 1, 0, 0, 0], 1, 5)
    W = generalized_partner(U, 5, 1, mode="pseudoregulus", j=2)
    f, g = U.as_graph_poly(), W.as_graph_poly()
    assert f.support == (1, 6) and g.support == (2, 7)
    v = classify_pair(f, g, exhaustive=True)
    assert v.case == "generalized_pseudoregulus"
    assert "multiple" not in v.matched
    assert "perp_multiple" not in v.matched
    iw = v.witness["inner_witness"]
    assert iw["i"] == 1 and iw["j"] == 2
    assert iw["b_v0"] == (1, 0) and iw["b_v1"] == (0, 1)
    assert replay_verdict(f, g, v)
    v2 = classify_pair(g, f)
    assert v2.case == "generalized_pseudoregulus"
    assert replay_verdict(g, f, v2)


def test_replay_rejects_tampered_witnesses():
    t = build_tower(2, 1, 5)
    f = LinearizedPolynomial.monomial(t, 1, 1)
    v = classify_pair(f, f.twist(3))
    bad = PairVerdict(v.case, v.matched,
                      {"lambda": t.mul(v.witness["lambda"], 2)},
                      v.certificate)
    assert not replay_verdict(f, f.twist(3), bad)

    g = LinearizedPolynomial.monomial(t, 1, 2)
    v = classify_pair(f, g)
    bad = PairVerdict(v.case, v.matched, dict(v.witness, f_v1=(0, 2)),
                      v.certificate)
    assert not replay_verdict(f, g, bad)
    bad = PairVerdict(v.case, v.matched, dict(v.witness, j=3),
                      v.certificate)
    assert not replay_verdict(f, g, bad)

    _, U, W = criterion_seven_pair()
    fU, gW = U.as_graph_poly(), W.as_graph_poly()
    v = classify_pair(fU, gW)
    bad = PairVerdict(v.case, v.matched,
                      dict(v.witness, inner_c=list(v.witness["inner_b"])),
                      v.certificate)
    assert not replay_verdict(fU, gW, bad)


def test_replay_of_a_scalar_claim_checks_dimension_and_lambda():
    # a multiple or perp_multiple claim W = lam*V replays as equal
    # dimensions plus lam*v in W for each basis vector v of V: a wrong lam
    # fails, lam = 0 raises, and so does a lam outside the field; the
    # whole plane holds every lam*v, so only the dimension refuses it
    t = build_tower(3, 1, 3)
    f = LinearizedPolynomial(t, [5, 7, 11])
    g = f.twist(10)
    U, W = graph_subspace(f), graph_subspace(g)
    assert U != W and f.linearity_gcd() == 1
    v = classify_pair(f, g)
    assert v.case == "multiple" and replay_verdict(f, g, v)
    lam = v.witness["lambda"]
    for wrong in (1, t.mul(lam, 10), t.inv(lam)):
        assert not replay_verdict(f, g, PairVerdict(
            "multiple", ("multiple",), {"lambda": wrong}, ()))
    for bad, error in ((0, ZeroParameterError), (t.order, ValueError),
                       (1.0, BadParametersError)):
        with pytest.raises(error):
            replay_verdict(f, g, PairVerdict(
                "multiple", ("multiple",), {"lambda": bad}, ()))
    plane = Subspace(t, 2, [(b, 0) for b in t.power_basis]
                     + [(0, b) for b in t.power_basis])
    assert plane.m == 2 * t.n
    for case, V in (("multiple", U), ("perp_multiple", perp(U))):
        verdict = PairVerdict(case, (case,), {"lambda": 1}, ())
        assert classify._replay(verdict, U, V, perp)
        assert not classify._replay(verdict, U, plane, perp)


def test_verdict_json_shape():
    t = build_tower(2, 1, 5)
    v = classify_pair(LinearizedPolynomial.monomial(t, 1, 1),
                      LinearizedPolynomial.monomial(t, 1, 2))
    blob = v.to_json()
    assert blob["case"] == "pseudoregulus"
    assert blob["matched"] == ["pseudoregulus"]
    assert isinstance(blob["certificate"], list) and blob["certificate"]
    json.dumps(blob)  # must be serializable


# -- club detection --------------------------------------------------------------


def test_is_club_coeffs_matches_spectrum_oracle():
    rng = random.Random(3)
    for (p, n) in [(2, 4), (3, 3)]:
        t = build_tower(p, 1, n)
        club_spectrum = {1: t.q ** (n - 1), n - 1: 1}
        seen_club = 0
        for _ in range(150):
            pid = rng.randrange(t.order ** n)
            coeffs = coeffs_of_id(t, pid)
            f = LinearizedPolynomial(t, coeffs)
            spec = linear_set(graph_subspace(f)).spectrum()
            is_club_shape = spec == club_spectrum
            assert is_club_coeffs(t, coeffs) == is_club_shape
            seen_club += is_club_shape
        # force some positives through the known construction
        for _ in range(10):
            a = rng.randrange(t.order)
            b = rng.randrange(1, t.order)
            lam = rng.randrange(1, t.order)
            U = construct_club(t.element(a), t.element(b), t.element(lam))
            f = U.as_graph_poly()
            assert is_club_coeffs(t, f.coeffs)
            assert is_club_coeffs(t, f.twist(rng.randrange(1, t.order)).coeffs)


def test_is_club_coeffs_needs_n_at_least_three():
    t = build_tower(2, 1, 2)
    with pytest.raises(ValueError):
        is_club_coeffs(t, (0, 1))


# -- the twist filter against brute force ----------------------------------------


def twist_form(t, coeffs):
    """Brute force: the lexicographically smallest of the _twist_coeffs
    images of coeffs over every lam in F^*.  Every twist fixes a_0, so the
    tail the twist filter keeps for an orbit is the tail of twist_form(t,
    [0] + tail)."""
    return min(tuple(_twist_coeffs(t, coeffs, lam))
               for lam in range(1, t.order))


def support_gcd(t, coeffs):
    """gcd of n and the tail indices i >= 1 with a_i != 0."""
    return math.gcd(t.n, *(i for i, c in enumerate(coeffs) if i and c))


def tail_id_of(t, coeffs):
    return poly_to_id(LinearizedPolynomial(t, [0] + list(coeffs[1:]))) \
        // t.order


def check_filters(t, coeffs, low):
    """_tail_filtered against brute force on the tail of coeffs, whose
    smallest twist is low: without the twist filter it keeps the tails of
    linearity gcd 1, with it those that are also their smallest twist."""
    tail = list(coeffs[1:])
    coprime = support_gcd(t, coeffs) == 1
    assert coprime == (LinearizedPolynomial(t, coeffs).linearity_gcd() == 1)
    tid = tail_id_of(t, coeffs)
    assert classify._tail_filtered(t, tid, False) == (tail if coprime
                                                      else None)
    assert classify._tail_filtered(t, tid, True) == (
        tail if coprime and tuple(tail) == tuple(low[1:]) else None)


def test_twist_canonical_one_per_orbit():
    # the twist filter keeps one id per twist orbit of linearity gcd 1
    for (p, e, n) in [(2, 1, 3), (3, 1, 2)]:
        t = build_tower(p, e, n)

        def twist_id(pid, lam):
            cs = coeffs_of_id(t, pid)
            out = [t.mul(cs[i], t.pow(lam, t.q ** i - 1)) for i in range(n)]
            v = 0
            for c in reversed(out):
                v = v * t.order + c
            return v

        orbits = set()
        kept = []
        for pid in range(t.order ** n):
            if support_gcd(t, coeffs_of_id(t, pid)) == 1:
                orbits.add(min(twist_id(pid, lam)
                               for lam in range(1, t.order)))
            if classify._tail_filtered(t, pid // t.order, True) is not None:
                kept.append(pid)
        assert len(kept) == len(orbits)
        # each kept id sits in a distinct orbit
        reps = {min(twist_id(pid, lam) for lam in range(1, t.order))
                for pid in kept}
        assert len(reps) == len(kept)


@pytest.mark.parametrize("pen,count", [((2, 1, 3), None), ((3, 1, 3), None),
                                       ((2, 1, 4), None), ((5, 1, 3), 50000),
                                       ((2, 2, 3), 50000)])
def test_is_twist_canonical_is_the_fixed_points_of_the_form(pen, count):
    """The twist filter keeps an id exactly when its tail has linearity gcd
    1 and is the smallest twist of itself."""
    t = build_tower(*pen)
    total = t.order ** t.n
    ids = (range(total) if count is None
           else random.Random(total).sample(range(total), count))
    # the filters read the tail alone, so each tail of the ids is checked
    # once
    _check_smallest_twists(t, [coeffs_of_id(t, tid * t.order) for tid in
                               sorted({pid // t.order for pid in ids})])


def test_twist_canonical_form_is_orbit_invariant():
    # of each orbit, the filter keeps exactly the smallest twist when the
    # linearity gcd is 1 and no member otherwise, whichever member is drawn
    for (p, e, n) in [(2, 1, 3), (3, 1, 2), (2, 1, 4)]:
        t = build_tower(p, e, n)
        rng = random.Random(17 * n + p)
        for _ in range(120):
            f = random_poly(t, rng)
            if not any(f.coeffs[1:]):
                continue
            orbit = {f.twist(lam).coeffs for lam in range(1, t.order)}
            kept = [g for g in orbit if classify._tail_filtered(
                t, tail_id_of(t, g), True) is not None]
            assert kept == ([twist_form(t, f.coeffs)]
                            if f.linearity_gcd() == 1 else [])
            assert twist_form(t, f.coeffs) in orbit


def _check_smallest_twists(t, coeff_lists):
    # _tail_filtered, with and without the twist filter, against the
    # lexicographic minimum of the distinct _twist_coeffs images over every
    # lam in F^*, one orbit at a time; returns how many tails have several
    # twists that take the leading coefficient to its residue minimum, so
    # that a later coefficient breaks the tie
    smallest, ties = {}, 0
    for cs in coeff_lists:
        key = tuple(cs)
        if key not in smallest:
            orbit = {tuple(_twist_coeffs(t, cs, lam))
                     for lam in range(1, t.order)}
            low = min(orbit)
            i0 = next((i for i in range(1, t.n) if low[i]), 0)
            reach = sum(o[i0] == low[i0] for o in orbit)
            smallest.update(dict.fromkeys(orbit, (low, reach)))
        low, reach = smallest[key]
        check_filters(t, cs, low)
        ties += reach > 1
    return ties


@pytest.mark.parametrize("pen", [(2, 1, 4), (3, 1, 3), (5, 1, 3)])
def test_twist_form_is_the_smallest_twist_of_every_tail(pen):
    t = build_tower(*pen)
    _check_smallest_twists(t, (coeffs_of_id(t, tid * t.order)
                               for tid in range(t.order ** (t.n - 1))))


def test_twist_form_breaks_ties_over_the_whole_coset():
    # at (3,1,4) a_1 = 0 puts the leading coefficient at i0 = 2 (almost
    # always), where gcd(3^2 - 1, 3^4 - 1) = 8 > q - 1: eight lam, four
    # twists as lam in F_3^* fixes tails, take a_2 to its residue minimum,
    # and a_3 decides between them (1,952 of the 2,000 tails): the second
    # level of the residue chain, d = 2
    t = build_tower(3, 1, 4)
    assert len(classify._residue_minima(t, 4, 2)) == 8
    rng = random.Random(41)
    tails = [[rng.randrange(t.order), 0] + [rng.randrange(t.order)
                                            for _ in range(2)]
             for _ in range(2000)]
    assert _check_smallest_twists(t, tails) == 1952


def test_twist_filter_on_every_a1_zero_tail_at_3_1_4():
    # all 6,561 tails (0, a_2, a_3) at (3,1,4), where the ties sit: a_3
    # breaks one for each of the 80 x 80 tails with a_2 and a_3 nonzero
    t = build_tower(3, 1, 4)
    tails = [[0, 0, a2, a3] for a2 in range(t.order) for a3 in range(t.order)]
    assert _check_smallest_twists(t, tails) == 6400


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (3, 1, 4), (2, 1, 6), (2, 2, 4), (3, 1, 6)]),
       smallest=st.booleans())
def test_residue_chain_keeps_the_smallest_twist(data, pen, smallest):
    # the residue chain of _tail_filtered is the greedy lexicographic
    # minimum over the twists; zeros come often, so that later nonzero
    # coefficients meet a stabilizer F_(q^d)^* with 1 < d < n.  Half the
    # draws are replaced by their smallest twist, which must be kept
    # whenever its linearity gcd is 1
    t = build_tower(*pen)
    coeff = st.just(0) | st.integers(1, t.order - 1)
    cs = [0] + data.draw(st.lists(coeff, min_size=t.n - 1, max_size=t.n - 1))
    low = twist_form(t, cs)
    check_filters(t, low if smallest else cs, low)


def test_twist_classes_settle_the_pairs_of_the_per_pair_forms():
    # one form and one adjoint form per class against one of each per
    # member: canon[x] == canon[y] is multiple, canon_adj[x] == canon[y]
    # is perp_multiple, and every other pair is left over in (x, y) order
    t = build_tower(2, 1, 5)
    rng = random.Random(23)
    units = range(1, t.order)
    for _ in range(25):
        polys = []
        for f in (random_poly(t, rng) for _ in range(3)):
            polys += [f, f.twist(rng.choice(units)),
                      f.adjoint().twist(rng.choice(units))]
        polys = rng.sample(polys, rng.randrange(2, len(polys) + 1))
        canon = [twist_form(t, f.coeffs) for f in polys]
        # and a bucket of smallest twists alone, one per orbit
        reps = [LinearizedPolynomial(t, c) for c in dict.fromkeys(canon)]
        for members in (polys, reps):
            canon = [twist_form(t, f.coeffs) for f in members]
            canon_adj = [twist_form(t, f.adjoint().coeffs) for f in members]
            cases, pending = {}, []
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    if canon[x] == canon[y]:
                        cases["multiple"] = cases.get("multiple", 0) + 1
                    elif canon_adj[x] == canon[y]:
                        cases["perp_multiple"] = \
                            cases.get("perp_multiple", 0) + 1
                    else:
                        pending.append((x, y))
            ids = [poly_to_id(f) for f in members]
            assert classify._twist_classes(t, ids) == (cases, pending)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (5, 1, 3), (3, 1, 4), (2, 2, 3), (2, 1, 6)]))
def test_twist_forms_depend_on_the_tail_only(data, pen):
    # a_0 is fixed by every twist and by the adjoint, which is what lets
    # the scan filter a tail once for every a_0 and the classify phase
    # label one orbit and one adjoint orbit per tail
    t = build_tower(*pen)
    coeff = st.just(0) | st.integers(1, t.order - 1)  # zeros often
    c0 = data.draw(coeff)
    tail = data.draw(st.lists(coeff, min_size=t.n - 1, max_size=t.n - 1))
    for op in (list, lambda cs: _adjoint_coeffs(t, cs)):
        form = twist_form(t, op([c0] + tail))
        assert form == (c0,) + twist_form(t, op([0] + tail))[1:]
        check_filters(t, op([c0] + tail), form)


def test_full_search_takes_one_twist_form_per_tail(monkeypatch):
    # the classify phase names twist classes by orbit walks, so it filters
    # no tail in any search: full, modulo_twist or sampled.  A full scan
    # filters each of its candidate tails once: 306 at (2,1,4), of which
    # the twist filter keeps 272, one per orbit of the 4,080 kept tails
    t = build_tower(2, 1, 4)
    filtered = classify._tail_filtered
    calls, inside = {"_scan_worker": 0, "_classify_worker": 0}, [None]
    seen = []

    def counting_filter(tower, tid, twist):
        if inside[0] is not None:
            calls[inside[0]] += 1
            seen.append(tid)
        return filtered(tower, tid, twist)

    def tracked(name):
        worker = getattr(classify, name)

        def run(args):
            inside[0] = name
            try:
                return worker(args)
            finally:
                inside[0] = None
        return run

    monkeypatch.setattr(classify, "_tail_filtered", counting_filter)
    for name in calls:
        monkeypatch.setattr(classify, name, tracked(name))
    rep = bucket_search(2, 1, 4)
    tails = {pid // t.order for b in rep.buckets.values()
             for pid in b["members"]}
    assert calls["_classify_worker"] == 0
    candidates = list(classify._candidate_tails(t, 0, t.order ** (t.n - 1)))
    assert sorted(seen) == candidates and len(candidates) == 306
    assert len(tails) == 4080
    assert sum(filtered(t, tid, True) is not None for tid in tails) == 272
    for kwargs in ({"modulo_twist": True}, {"sample": 20000}):
        rep = bucket_search(2, 1, 4, **kwargs)
        assert rep.pair_count > 0 and calls["_classify_worker"] == 0


# -- bucket search ---------------------------------------------------------------


def test_bucket_search_small_fields_confirm_theorem():
    for (p, e, n) in [(2, 1, 2), (2, 1, 3), (3, 1, 2)]:
        rep = bucket_search(p, e, n)
        assert rep.theorem_confirmed
        assert not rep.anomalies
        assert set(rep.histogram) <= {"multiple", "perp_multiple"}
        assert sum(b["size"] for b in rep.buckets.values()) == rep.scanned
        blob = rep.to_json()
        assert blob["bucket_count"] == rep.bucket_count
        assert blob["theorem_confirmed"]


def test_bucket_search_gcd_filter():
    # ids whose support gcd with n exceeds 1 never enter the scan
    rep = bucket_search(2, 1, 3)
    ids = [pid for members in
           (b["members"] for b in rep.buckets.values()) for pid in members]
    t = build_tower(2, 1, 3)
    assert rep.scanned == len(ids) == 504
    for pid in random.Random(4).sample(ids, 50):
        f = poly_from_id(t, pid)
        assert f.linearity_gcd() == 1
    assert 0 not in ids  # the zero map is filtered with the rest


def test_bucket_search_workers_byte_identical(monkeypatch):
    # small chunks, so that both phases have several and really use a pool
    monkeypatch.setattr(classify, "SCAN_CHUNK", 64)
    monkeypatch.setattr(classify, "CLASSIFY_CHUNK", 4)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    started = []

    class RecordingPool(classify.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(classify, "ProcessPoolExecutor", RecordingPool)
    r1 = bucket_search(2, 1, 3, workers=1)
    r2 = bucket_search(2, 1, 3, workers=2)
    assert started == [2, 2]
    assert json.dumps(r1.to_json(), sort_keys=True) == \
        json.dumps(r2.to_json(), sort_keys=True)


def test_run_chunks_bounds_the_pool(monkeypatch):
    started = []

    class StubPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(classify, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 3)
    square = lambda x: x * x  # noqa: E731
    for chunks, workers, pool in ((10, 500, [3]), (2, 500, [2]), (10, 2, [2]),
                                  (1, 500, []), (10, 1, [])):
        started.clear()
        out = list(classify._run_chunks(square, iter(range(chunks)), chunks,
                                        workers))
        assert out == [k * k for k in range(chunks)]
        assert started == pool
    monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
    started.clear()
    assert list(classify._run_chunks(square, [1, 2, 3], 3, 4)) == [1, 4, 9]
    assert started == []
    # one scan chunk and one classify chunk: no pool at all, same report
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 3)
    started.clear()
    rep = bucket_search(2, 1, 3, workers=500)
    assert started == []
    assert json.dumps(rep.to_json(), sort_keys=True) == \
        json.dumps(bucket_search(2, 1, 3).to_json(), sort_keys=True)


def test_bucket_search_budget_and_sample(monkeypatch):
    with pytest.raises(BudgetExceededError):
        bucket_search(2, 1, 6, budget=1000)
    r1 = bucket_search(2, 1, 6, budget=1000, sample=300)
    r2 = bucket_search(2, 1, 6, budget=1000, sample=300)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    assert r1.params["visited"] == 300
    assert r1.total_ids == 64 ** 6
    # order 2^22 has no log tables, so no residue minima: a sample whose
    # buckets are all single needs none, and the twist filter says in one
    # line that it needs them, not with a TypeError.  It says so before
    # it reads a tail, so also when every id has the zero tail, which the
    # residue chain never looks up
    r3 = bucket_search(2, 11, 2, sample=50)
    assert r3.scanned == r3.bucket_count == 50
    with pytest.raises(TooLargeError, match="log tables"):
        bucket_search(2, 11, 2, sample=50, modulo_twist=True)
    t = build_tower(2, 11, 2)
    with pytest.raises(TooLargeError, match="log tables"):
        classify._scan_worker(((2, 11, 2, t.modulus), 0, 0, [0, 1, 2], True))
    # the budget bounds the min(sample, order^n) ids a search visits, and
    # is checked, after workers, before the sample is drawn
    assert bucket_search(2, 1, 3, budget=512, sample=10 ** 9).params[
        "visited"] == 512

    def no_draw(*args):
        raise AssertionError("sample drawn before the checks")

    monkeypatch.setattr(classify, "random", types.SimpleNamespace(Random=no_draw))
    with pytest.raises(BudgetExceededError, match="^1001 candidate"):
        bucket_search(2, 1, 6, budget=1000, sample=1001)
    with pytest.raises(BadParametersError, match="workers"):
        bucket_search(2, 1, 6, budget=1000, sample=1001, workers=0)


def test_orbit_walk_without_log_tables_is_a_too_large_error(monkeypatch):
    # a plain sample walks orbits only in buckets of several members; 300
    # ids at (2,2,3), order 64, make some, on a fresh tower without tables
    assert max(b["size"] for b in bucket_search(
        2, 2, 3, sample=300).buckets.values()) > 1
    monkeypatch.setattr(gf, "_TABLE_CAP", 32)
    monkeypatch.setattr(gf, "_tower_cache", {})
    assert not build_tower(2, 2, 3).has_tables
    with pytest.raises(TooLargeError, match="log tables"):
        bucket_search(2, 2, 3, sample=300)


def test_set_linearity_runs_on_every_bucket_only_at_small_orders():
    # order 8; one member per twist orbit leaves 56 singleton buckets
    small = bucket_search(2, 1, 3, modulo_twist=True)
    assert any(b["size"] == 1 for b in small.buckets.values())
    assert all("set_linearity" in b for b in small.buckets.values())
    large = bucket_search(2, 1, 6, budget=1000, sample=300)  # order 64
    assert large.buckets
    assert not any("set_linearity" in b for b in large.buckets.values())


def test_set_linearity_settles_every_2_1_4_bucket_by_counting(monkeypatch):
    # the (2,1,4) sets of 9 and 13 points would need F_4-subspaces of rank
    # 6 > (r-1)n = 4, so no bucket reaches the refutation search
    calls = {"lin": 0, "search": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classify, "set_linearity",
                        counted("lin", classify.set_linearity))
    monkeypatch.setattr(linset, "_search_fqd_subspace",
                        counted("search", linset._search_fqd_subspace))
    # translates along a_0 share their member tails, and the 166 tail
    # tuples of the 2,656 buckets fall in 9 scaling x Frobenius orbits,
    # which take one call each
    rep = bucket_search(2, 1, 4)
    tails = {tuple(pid // 16 for pid in b["members"])
             for b in rep.buckets.values()}
    assert (len(tails), len(rep.buckets)) == (166, 2656)
    assert calls == {"lin": 9, "search": 0}
    assert all(b["linearity_exact"] for b in rep.buckets.values())


def test_bucket_search_modulo_twist_collapses_orbits():
    rep = bucket_search(2, 1, 3, modulo_twist=True)
    assert rep.scanned == 72  # one representative per twist orbit
    assert rep.theorem_confirmed
    full = bucket_search(2, 1, 3)
    assert rep.bucket_count == full.bucket_count


def test_bucket_search_paranoid_replays_clean():
    rep = bucket_search(2, 1, 3, paranoid=True)
    assert rep.theorem_confirmed
    assert not rep.anomalies


def two_sort_naming(digests, groups):
    """Reference naming: digests ascending, then the groups of one digest
    by ascending member list, suffixed -1, -2, ...; collisions count the
    digests that several groups share."""
    by_digest = {}
    for digest, ids in zip(digests, groups):
        by_digest.setdefault(digest, []).append(ids)
    members = [(f"{digest:016x}" + (f"-{idx}" if idx else ""), ids)
               for digest in sorted(by_digest)
               for idx, ids in enumerate(sorted(by_digest[digest]))]
    return members, sum(len(v) > 1 for v in by_digest.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_name_buckets_equals_the_two_sort_naming(data):
    # distinct digests, and the (digest, members) sort that a repeated
    # digest takes, name as the reference does: zero, one or many groups
    # with disjoint ascending member lists, digests from a small range
    # (repeats are common) or from all 64-bit values, groups given as a
    # list or as a dict's values; the mapping holds the groups in their
    # given order, each as the list object it came as
    top = data.draw(st.sampled_from([0, 2, 30, (1 << 64) - 1]))
    sizes = data.draw(st.lists(st.integers(1, 4), max_size=40))
    ids = data.draw(st.lists(st.integers(0, 10 ** 6), unique=True,
                             min_size=sum(sizes), max_size=sum(sizes)))
    cuts = list(itertools.accumulate([0] + sizes))
    groups = [sorted(ids[a:b]) for a, b in zip(cuts, cuts[1:])]
    digests = data.draw(st.lists(st.integers(0, top), min_size=len(groups),
                                 max_size=len(groups)))
    want, want_collisions = two_sort_naming(digests, groups)
    for given_groups in (groups, dict(enumerate(groups)).values()):
        named, collisions = classify._name_buckets(digests, given_groups)
        assert (named, collisions) == (dict(want), want_collisions)
        assert list(map(id, named.values())) == list(map(id, groups))


def test_name_buckets_of_zero_and_one_group():
    assert classify._name_buckets([], []) == ({}, 0)
    assert classify._name_buckets([255], [[7, 9]]) == (
        {"00000000000000ff": [7, 9]}, 0)
    named, collisions = classify._name_buckets([3, 3], [[8], [2, 5]])
    assert list(named.items()) == [("0000000000000003-1", [8]),
                                   ("0000000000000003", [2, 5])]
    assert collisions == 1


def test_bucket_records_share_no_cases_dict():
    # translates share one memoized classification, so each bucket record
    # must hold its own copy of the cases: no two records hold the same
    # dict, and emptying every cases dict of one report leaves a repeat
    # search's report byte-identical
    for pen, kwargs in (((2, 1, 4), {}),
                        ((5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True})):
        rep = bucket_search(*pen, **kwargs)
        text = json.dumps(rep.to_json(), sort_keys=True)
        assert len({id(b["cases"]) for b in rep.buckets.values()}) == \
            rep.bucket_count > 1
        assert rep.histogram and any(b["cases"] for b in rep.buckets.values())
        for b in rep.buckets.values():
            b["cases"].clear()
            b["cases"]["unknown"] = -1
        assert json.dumps(bucket_search(*pen, **kwargs).to_json(),
                          sort_keys=True) == text


def test_search_parameters_must_be_ints():
    # floats, bools and strings are refused with BadParametersError: a
    # float or a string used to end in a bare TypeError, and a bool or a
    # float workers ran, a bool e writing "e": true into the params
    for kwargs in ({"sample": 2.5}, {"sample": True}, {"workers": "2"},
                   {"workers": 1.5}, {"workers": True},
                   {"budget": "100000"}, {"budget": 1e5}, {"budget": True}):
        with pytest.raises(BadParametersError):
            bucket_search(2, 1, 3, **kwargs)
        if "sample" not in kwargs:
            with pytest.raises(BadParametersError):
                verify_club_uniqueness(2, 1, 3, **kwargs)
    for pen in ((2, 1, 3.0), (2, True, 3), (2.0, 1, 3), ("2", 1, 3),
                (2, 1, "3"), (2, 1, True)):
        for call in (build_tower, bucket_search, verify_club_uniqueness):
            with pytest.raises(BadParametersError):
                call(*pen)
    # ints are taken as before
    rep = bucket_search(2, 1, 3, 10 ** 5, workers=1, sample=5)
    assert rep.params["e"] == 1 and type(rep.params["e"]) is int
    assert rep.params["visited"] == 5
    assert verify_club_uniqueness(2, 1, 3, 10 ** 5, workers=1)


def test_search_flags_must_be_bools():
    # paranoid="no" ran a paranoid search, and a non-bool flag was written
    # into the report's params as given
    for kwargs in ({"paranoid": "no"}, {"modulo_twist": 1}, {"paranoid": 0},
                   {"modulo_twist": None}):
        with pytest.raises(BadParametersError):
            bucket_search(2, 1, 3, **kwargs)
    rep = bucket_search(2, 1, 3, modulo_twist=True, paranoid=False)
    assert rep.params["modulo_twist"] is True
    assert rep.params["paranoid"] is False


def test_progress_must_be_none_or_callable(monkeypatch):
    # progress=5 was taken, then raised a bare TypeError at the first tick
    monkeypatch.setattr(classify, "PROGRESS_EVERY", 1)
    for call in (bucket_search, verify_club_uniqueness):
        for progress in (5, "tick"):
            with pytest.raises(BadParametersError):
                call(2, 1, 3, progress=progress)
        ticks = []
        call(2, 1, 3, progress=lambda done, total: ticks.append(done))
        assert ticks


@pytest.mark.parametrize("pen, kwargs", [
    ((2, 1, 4), {}), ((5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True})])
def test_report_lines_stay_in_key_order(monkeypatch, pen, kwargs):
    # buckets reach the records in scan order, so the lines that name a
    # bucket are sorted by key at the end.  Forced lines: three pairs left
    # open per bucket, (last, first), (first, first) and (first, last),
    # with _classify_core finding no case for two members (two anomalies,
    # in an order that is not sorted) and generalized_perp for a member
    # with itself (an alert where n is prime), and set_linearity (2, True)
    # (a flag per bucket at (2,1,4)).  The lists equal a reference built
    # bucket by bucket in key order
    t = build_tower(*pen)
    small = t.order <= classify.LINEARITY_CHECK_ORDER
    twist_classes = classify._twist_classes

    def three_left(tower, ids):
        cases, pending = twist_classes(tower, ids)
        return cases, pending + [(len(ids) - 1, 0), (0, 0), (0, len(ids) - 1)]

    monkeypatch.setattr(classify, "_twist_classes", three_left)
    monkeypatch.setattr(classify, "_classify_core", lambda f, g, *rest: (
        ["generalized_perp"] if f is g else [], {}))
    monkeypatch.setattr(classify, "set_linearity", lambda sub: (2, True))
    monkeypatch.setattr(classify, "MEMBER_DUMP_LIMIT", 1 << 16)
    rep = bucket_search(*pen, **kwargs)
    assert list(rep.buckets) != sorted(rep.buckets)
    anomalies, flags, alerts = [], [], []
    for key in sorted(rep.buckets):
        ids = rep.buckets[key]["members"]
        if len(ids) == 1 and not small:
            continue
        (cases, anoms, lin, _), = classify._classify_worker(
            ((*pen, t.modulus), [(key, ids)], False, False))
        anomalies += [{"bucket": key, "pair": [x, y], "reason": why}
                      for x, y, why in anoms]
        if lin is not None:
            flags.append({"bucket": key, "rep": ids[0], "set_linearity": 2,
                          "exact": True})
        alerts += [f"bucket {key}: case {case} at prime n={t.n} (bug or "
                   "counterexample)" for case in cases
                   if t.n == 3 and case.startswith("generalized")]
    classify._CLASSIFIED.clear()
    assert len(anomalies) == 2 * sum(len(b["members"]) > 1
                                     for b in rep.buckets.values()) > 0
    assert bool(flags) == small and bool(alerts) == (t.n == 3)
    assert (rep.anomalies, rep.linearity_flags, rep.alerts) == \
        (anomalies, flags, alerts)
    keys = [line["bucket"] for line in rep.anomalies + rep.linearity_flags]
    keys += [text.split(":")[0][len("bucket "):] for text in rep.alerts]
    lines = (len(rep.anomalies), len(rep.linearity_flags), len(rep.alerts))
    for a, b in itertools.pairwise(itertools.accumulate((0,) + lines)):
        assert keys[a:b] == sorted(keys[a:b])
    for a, b in zip(rep.anomalies[::2], rep.anomalies[1::2]):
        assert a["bucket"] == b["bucket"] and a["pair"] == b["pair"][::-1]
        assert a["pair"][0] > a["pair"][1]


@pytest.mark.parametrize("pen, kwargs", [
    ((2, 1, 4), {}), ((3, 1, 3), {}), ((2, 2, 2), {}),
    ((5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True})])
def test_full_scan_keeps_translates_together(monkeypatch, pen, kwargs):
    # (x, y) -> (x, y + gamma*x) moves a bucket onto one with the same
    # member tails, and a full scan makes the order translates of each new
    # bucket one after another.  So in the classify phase's items equal
    # member tails form one run of exactly order consecutive items, and
    # no chunk splits a run, at the default CLASSIFY_CHUNK and at one
    # small enough for several chunks everywhere
    t = build_tower(*pen)
    classify_worker, chunks = classify._classify_worker, []

    def tracked(args):
        chunks.append(args[1])
        return classify_worker(args)

    monkeypatch.setattr(classify, "_classify_worker", tracked)
    for size in (classify.CLASSIFY_CHUNK, 20):
        monkeypatch.setattr(classify, "CLASSIFY_CHUNK", size)
        chunks.clear()
        bucket_search(*pen, **kwargs)
        tails = [tuple(pid // t.order for pid in ids)
                 for chunk in chunks for _, ids in chunk]
        runs = [(tt, len(list(run))) for tt, run in itertools.groupby(tails)]
        assert len(runs) == len({tt for tt, _ in runs}) > 1
        assert {length for _, length in runs} == {t.order}
        cuts = list(itertools.accumulate(map(len, chunks)))[:-1]
        assert all(tails[k - 1] != tails[k] for k in cuts)
    assert len(chunks) > 1


def test_pooled_search_classifies_each_translate_class_once(monkeypatch,
                                                            tmp_path):
    # the classify chunks hold whole translate classes, so a pool of two,
    # whose children keep memos of their own, makes as many
    # _classify_bucket calls as one process; each process counts its
    # calls into a file of its own
    classify_bucket, counts = classify._classify_bucket, {}

    def counting(tower, ids, paranoid):
        with open(run_dir / str(os.getpid()), "a") as out:
            out.write(".")
        return classify_bucket(tower, ids, paranoid)

    monkeypatch.setattr(classify, "_classify_bucket", counting)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        run_dir = tmp_path / str(workers)
        run_dir.mkdir()
        report = bucket_search(5, 1, 3, 5 ** 9, workers=workers,
                               modulo_twist=True).to_json()
        counts[workers] = [len(path.read_text())
                           for path in run_dir.iterdir()]
        assert report == (counts.get("report") or report)
        counts["report"] = report
    assert sum(counts[1]) == sum(counts[2]) == 190
    assert len(counts[1]) == 1 and len(counts[2]) == 2


def test_paranoid_replays_build_each_members_graph_once(monkeypatch):
    # a paranoid bucket replays each of its pairs, and every replay and
    # the point-set check reuse one graph per member and at most one perp
    # per member: graph_subspace runs at most 2*members + 1 times per
    # bucket (the graphs, perp's own cross-check against the adjoint's
    # graph, and set_linearity's), where replays that built their own
    # graphs made about two per pair
    counts, sizes = [], []

    def counting_graph(f):
        counts[-1] += 1
        return graph_subspace(f)

    def tracked_bucket(tower, ids, paranoid):
        counts.append(0)
        sizes.append(len(ids))
        return classify_bucket(tower, ids, paranoid)

    classify_bucket = classify._classify_bucket
    monkeypatch.setattr(classify, "graph_subspace", counting_graph)
    monkeypatch.setattr(linset, "graph_subspace", counting_graph)
    monkeypatch.setattr(classify, "_classify_bucket", tracked_bucket)
    rep = bucket_search(2, 1, 3, paranoid=True)
    assert rep.theorem_confirmed and rep.histogram["perp_multiple"]
    assert len(counts) == rep.bucket_count and max(sizes) >= 3
    assert all(c <= 2 * m + 1 for c, m in zip(counts, sizes))


def test_bucket_search_digest_collisions_resolved(monkeypatch):
    # squash the naming digests to force collisions; fingerprints must still
    # separate, keys, their -k order and the collision count follow the
    # reference naming, and the buckets keep the scan's order
    true_digests = classify.fingerprint_digests
    monkeypatch.setattr(classify, "fingerprint_digests",
                        lambda t, fps: [d % 64 for d in true_digests(t, fps)])
    true_name, named = classify._name_buckets, []

    def name(digests, groups):
        groups = list(groups)
        named.append((digests, groups, true_name(digests, groups)))
        return named[-1][2]

    monkeypatch.setattr(classify, "_name_buckets", name)
    squashed = bucket_search(2, 1, 3)
    monkeypatch.undo()
    full = bucket_search(2, 1, 3)
    (digests, groups, (members, collisions)), = named
    want, want_collisions = two_sort_naming(digests, groups)
    assert (members, collisions) == (dict(want), want_collisions)
    assert list(map(id, members.values())) == list(map(id, groups))
    assert any(key.endswith("-2") for key in members)
    assert squashed.params["digest_collisions"] == collisions > 0
    assert [(key, b["members"]) for key, b in squashed.buckets.items()] == \
        list(members.items())
    assert sorted(b["size"] for b in squashed.buckets.values()) == \
        sorted(b["size"] for b in full.buckets.values())
    assert squashed.histogram == full.histogram
    assert squashed.theorem_confirmed
    # every exact fingerprint keeps a bucket key of its own
    assert sorted(b["members"] for b in squashed.buckets.values()) == \
        sorted(b["members"] for b in full.buckets.values())


def test_paranoid_search_checks_every_name_against_the_byte_route(
        monkeypatch):
    # the digests that named the buckets are the ones checked: one batch
    # per search, each digest against the byte route
    true_digests, batches = classify.fingerprint_digests, []

    def digests(t, fps):
        batches.append(len(fps))
        return [d ^ 1 for d in true_digests(t, fps)]

    monkeypatch.setattr(classify, "fingerprint_digests", digests)
    assert not bucket_search(2, 1, 3).alerts
    rep = bucket_search(2, 1, 3, paranoid=True)
    assert len(rep.alerts) == rep.bucket_count > 1
    assert not rep.theorem_confirmed
    assert batches == [rep.bucket_count] * 2
    monkeypatch.undo()
    assert bucket_search(2, 1, 3, paranoid=True).theorem_confirmed


@pytest.mark.parametrize("p, modulo_twist", [(2, False), (3, True)])
def test_bucket_keys_are_exact_fingerprints(p, modulo_twist):
    t = build_tower(p, 1, 3)
    rep = bucket_search(p, 1, 3, modulo_twist=modulo_twist)
    key_of = {}
    for key, bucket in rep.buckets.items():
        for pid in bucket["members"]:
            fp = DicksonMatrix.from_poly(poly_from_id(t, pid)).fingerprint()
            key_of.setdefault(fp, set()).add(key)
    # one key per fingerprint and one fingerprint per key
    assert all(len(keys) == 1 for keys in key_of.values())
    assert len(key_of) == rep.bucket_count


@pytest.mark.parametrize("pen", [(2, 1, 3), (3, 1, 3), (2, 1, 4)])
def test_buckets_are_the_slope_set_classes(pen):
    # two scanned graphs share a bucket exactly when their linear sets
    # coincide; a graph's set is read off its slopes f(x)/x, x != 0, with
    # no fingerprint on this side.  f(x)/x = c0 + g(x)/x for the tail g,
    # so each tail's slopes are computed once and translated per c0
    t = build_tower(*pen)
    _, groups = classify._scan_buckets(t, None, False, 1, None)
    members = list(groups.items())
    tail_slopes = {}
    by_slopes = {}
    for _, ids in members:
        for pid in ids:
            tid, c0 = divmod(pid, t.order)
            if tid not in tail_slopes:
                g = poly_from_id(t, tid * t.order)
                tail_slopes[tid] = [t.div(g.evaluate(x), x)
                                    for x in range(1, t.order)]
            slopes = frozenset(t.add(c0, v) for v in tail_slopes[tid])
            by_slopes.setdefault(slopes, []).append(pid)
    assert len(members) > 1
    assert sorted(ids for _, ids in members) == sorted(by_slopes.values())


@pytest.mark.parametrize("pen, modulo_twist", [
    ((2, 1, 3), False), ((3, 1, 3), False), ((2, 1, 4), False),
    ((2, 2, 2), False), ((2, 1, 4), True)])
def test_buckets_translate_along_a0(pen, modulo_twist):
    # (x, y) -> (x, y + gamma*x) maps the graph of f to that of f + gamma*x
    # and fixes the twist and the adjoint, so the ids (c0 + gamma, tail) of
    # a bucket's members are exactly the members of one bucket, with equal
    # cases and set_linearity
    t = build_tower(*pen)
    rep = bucket_search(*pen, modulo_twist=modulo_twist)
    rest = {tuple(b["members"]): {k: v for k, v in b.items() if k != "members"}
            for b in rep.buckets.values()}
    assert len(rest) > 1 and all("set_linearity" in b for b in rest.values())
    for gamma in (1, 2, t.order - 1):
        moved = {tuple(sorted(pid - pid % t.order + t.add(pid % t.order, gamma)
                              for pid in members)): b
                 for members, b in rest.items()}
        assert moved == rest


@pytest.mark.parametrize("pen", [(2, 1, 3), (3, 1, 3), (2, 1, 4), (2, 2, 2)])
def test_buckets_are_invariant_under_scaling_and_frobenius(pen):
    # (x, y) -> (x, beta*y) maps the graph of f to that of beta*f, and the
    # collineation x -> x^p maps it to the graph of f with every coefficient
    # raised to the p; both are in GammaL(2, q^n) and keep the gcd filter's
    # support, so each image of a bucket's members is exactly the members of
    # one bucket, with equal cases and set_linearity (Csajbok, Marino and
    # Polverino, JCTA 157 (2018))
    t = build_tower(*pen)
    rep = bucket_search(*pen)
    rest = {tuple(b["members"]): {k: v for k, v in b.items() if k != "members"}
            for b in rep.buckets.values()}
    assert len(rest) > 1 and all("set_linearity" in b for b in rest.values())
    maps = [functools.partial(t.mul, beta) for beta in (2, 3, t.order - 1)]
    for image in maps + [lambda a: t.pow(a, t.p)]:
        moved = {tuple(sorted(poly_to_id(LinearizedPolynomial(
            t, [image(a) for a in coeffs_of_id(t, pid)])) for pid in members)): b
            for members, b in rest.items()}
        assert moved == rest


@pytest.mark.parametrize("pen, modulo_twist, sample", [
    ((2, 1, 4), False, None), ((3, 1, 3), False, None),
    ((2, 1, 4), True, None), ((2, 1, 4), False, 20000)])
def test_sharing_results_among_translates_changes_nothing(monkeypatch, pen,
                                                          modulo_twist,
                                                          sample):
    # _classify_worker over CLASSIFY_CHUNK slices of the buckets in key
    # order, which scatters translates over the chunks, where a
    # bucket whose member tails repeat an earlier bucket's, in any chunk,
    # takes that bucket's results, against one bucket per call on an empty
    # memo.  _image_tails yields nothing, so only translates share.  One
    # pair per bucket is forced to "unknown", so every multi-member bucket
    # has an anomaly on its own ids.  A sample has buckets that share
    # their first tail but not all tails
    t = build_tower(*pen)
    ids = None if sample is None else sorted(
        random.Random(0).sample(range(t.order ** t.n), sample))
    _, groups = classify._scan_buckets(t, ids, modulo_twist, 1, None)
    items = sorted(classify._name_buckets(
        classify.fingerprint_digests(t, list(groups)), groups.values())[0].items())
    twist_classes, lin_calls = classify._twist_classes, []

    def one_left(tower, ids):
        cases, pending = twist_classes(tower, ids)
        return cases, pending + [(0, len(ids) - 1)]

    def counted_set_linearity(sub):
        lin_calls.append(sub)
        return linset.set_linearity(sub)

    monkeypatch.setattr(classify, "_twist_classes", one_left)
    monkeypatch.setattr(classify, "_classify_core", lambda *args: ([], {}))
    monkeypatch.setattr(classify, "set_linearity", counted_set_linearity)
    monkeypatch.setattr(classify, "_image_tails", lambda tower, tails: ())
    descriptor, whole = (*pen, t.modulus), not modulo_twist and sample is None
    step = classify.CLASSIFY_CHUNK

    def run(chunks, paranoid, fresh):
        lin_calls.clear()
        out = []
        for chunk in chunks:
            out += classify._classify_worker((descriptor, chunk, paranoid,
                                              whole))
            if fresh:
                classify._CLASSIFIED.clear()
        classify._CLASSIFIED.clear()
        return out

    chunks = [items[k:k + step] for k in range(0, len(items), step)]
    shared = run(chunks, False, False)
    tails = {tuple(pid // t.order for pid in ids) for _, ids in items}
    assert len(lin_calls) == len(tails) < len(items)
    assert shared == run([[item] for item in items], False, True)
    assert sum(len(anoms) for _, anoms, _, _ in shared) == \
        sum(len(ids) > 1 for _, ids in items) > 0
    assert not any(clash for *_, clash in shared)
    # paranoid shares nothing: one set_linearity per bucket, and no clash,
    # though the second chunk meets translates of the first's buckets
    # (outside a sample)
    first, second = ({tuple(pid // t.order for pid in ids) for _, ids in c}
                     for c in chunks[:2])
    assert first & second or sample
    shared = run(chunks[:2], True, False)
    assert len(lin_calls) == len(chunks[0]) + len(chunks[1])
    assert shared == run([[item] for item in chunks[0] + chunks[1]], True,
                         True)
    assert not any(clash for *_, clash in shared)


@pytest.mark.parametrize("pen, kwargs, classes, calls", [
    ((2, 1, 4), {}, 166, 9), ((3, 1, 3), {}, 41, 3), ((2, 2, 3), {}, 129, 3),
    ((2, 1, 4), {"modulo_twist": True}, 166, 166),
    ((2, 2, 3), {"modulo_twist": True}, 66, 66),
    ((2, 1, 4), {"sample": 2000}, 1286, 1286),
    ((3, 1, 3), {"sample": 3000}, 965, 965)])
def test_whole_class_searches_classify_one_bucket_per_orbit(
        monkeypatch, pen, kwargs, classes, calls):
    # a full search classifies one bucket per scaling x Frobenius orbit of
    # its a_0 = 0 classes (the distinct member-tail tuples of its classify
    # items).  modulo_twist and sampled scans keep no whole classes, so
    # they share among translates only: one call per tail tuple
    t, seen = build_tower(*pen), []
    classify_bucket = classify._classify_bucket

    def counting(tower, ids, paranoid):
        seen.append(tuple(pid // tower.order for pid in ids))
        return classify_bucket(tower, ids, paranoid)

    monkeypatch.setattr(classify, "_classify_bucket", counting)
    monkeypatch.setattr(classify, "MEMBER_DUMP_LIMIT", 1 << 14)
    rep = bucket_search(*pen, **kwargs)
    tails = {tuple(pid // t.order for pid in b["members"])
             for b in rep.buckets.values()
             if b["size"] > 1 or t.order <= classify.LINEARITY_CHECK_ORDER}
    assert len(tails) == classes
    assert len(seen) == len(set(seen)) == calls


@pytest.mark.parametrize("pen", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 2, 3)])
def test_orbit_sharing_reports_equal_translate_sharing(monkeypatch, pen):
    # results stored under each bucket's scaling x Frobenius images change
    # no byte of a report, inline or in a pool of two whose children each
    # keep their own memo; _image_tails yielding nothing leaves the
    # sharing among translates alone
    monkeypatch.setattr(classify, "SCAN_CHUNK", 64)
    monkeypatch.setattr(classify, "CLASSIFY_CHUNK", 8)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    started = []

    class RecordingPool(classify.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(classify, "ProcessPoolExecutor", RecordingPool)
    shared = [json.dumps(bucket_search(*pen, workers=w).to_json(),
                         sort_keys=True) for w in (1, 2)]
    assert started == [2, 2]
    monkeypatch.setattr(classify, "_image_tails", lambda tower, tails: ())
    alone = json.dumps(bucket_search(*pen).to_json(), sort_keys=True)
    assert shared == [alone, alone]


def test_results_with_anomalies_are_not_shared_along_orbits(monkeypatch):
    # anomalies name pairs by member position, which an orbit image does
    # not keep, so a result with anomalies is stored under the bucket's
    # own tails only, and one without under each of its images too
    t = build_tower(2, 1, 4)
    _, groups = classify._scan_buckets(t, None, False, 1, None)
    for ids in sorted(groups.values(), key=len, reverse=True):
        tails = tuple(pid // t.order for pid in ids)
        images = set(classify._image_tails(t, tails))
        if len(images) > 1:  # the largest buckets are their own images
            break
    assert tails in images and len(ids) > 1
    for anomalies, stored in (([(0, 1, "forced")], {tails}), ([], images)):
        monkeypatch.setattr(classify, "_classify_bucket",
                            lambda tower, ids, paranoid: ({}, anomalies, None))
        classify._classify_worker(((2, 1, 4, t.modulus), [("k", ids)], False,
                                   True))
        assert set(classify._CLASSIFIED[t]) == stored
        classify._CLASSIFIED.clear()


def test_search_clears_its_classified_memo(monkeypatch):
    bucket_search(2, 1, 4)
    assert not classify._CLASSIFIED
    classify_bucket, held = classify._classify_bucket, []

    def failing(tower, ids, paranoid):
        held.append(sum(map(len, classify._CLASSIFIED.values())))
        if len(held) == 3:
            raise RuntimeError("classify fails")
        return classify_bucket(tower, ids, paranoid)

    monkeypatch.setattr(classify, "_classify_bucket", failing)
    with pytest.raises(RuntimeError, match="classify fails"):
        bucket_search(2, 1, 4)
    assert held[-1] > 2 and not classify._CLASSIFIED


@functools.lru_cache(maxsize=None)
def full_scan_buckets(pen):
    """The member ids of a full scan's buckets: a sorted list and a set."""
    _, groups = classify._scan_buckets(build_tower(*pen), None, False, 1,
                                       None)
    buckets = sorted(map(tuple, groups.values()))
    return buckets, frozenset(buckets)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 2, 3)]))
def test_scaling_frobenius_image_of_a_bucket_is_a_bucket(data, pen):
    # what lets a whole-class search store a result under each of its
    # _image_tails: f -> beta*f^(p^k) maps a bucket onto a bucket, and the
    # two, each classified directly, have equal cases and set_linearity
    t = build_tower(*pen)
    buckets, bucket_set = full_scan_buckets(pen)
    ids = data.draw(st.sampled_from(buckets))
    beta = data.draw(st.integers(1, t.order - 1))
    k = data.draw(st.integers(0, t.e * t.n - 1))
    image = tuple(sorted(poly_to_id(LinearizedPolynomial(t, [
        t.mul(beta, t.pow(a, t.p ** k)) for a in coeffs_of_id(t, pid)]))
        for pid in ids))
    assert image in bucket_set
    assert tuple(pid // t.order for pid in image) in set(classify._image_tails(
        t, tuple(pid // t.order for pid in ids)))
    (cases, anoms, lin), (icases, ianoms, ilin) = (
        classify._classify_bucket(t, list(m), False) for m in (ids, image))
    assert not anoms and not ianoms
    assert (cases, lin) == (icases, ilin)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 3)]))
def test_image_tails_are_the_scaled_frobenius_images(data, pen):
    # _image_tails walks log b_i = p^k*log a_i + L, L < q^n - 1, by the
    # _log_walk of _orbit_tails: for every k < e*n and beta in F^* it must
    # yield the sorted tail ids of beta*a_i^(p^k), computed directly.
    # Zeros come often, so that zero coefficients stay zero
    t = build_tower(*pen)
    coeff = st.just(0) | st.integers(1, t.order - 1)
    tails = data.draw(st.lists(st.lists(coeff, min_size=t.n - 1,
                                        max_size=t.n - 1),
                               min_size=1, max_size=3))

    def tail_id(tail):
        return poly_to_id(LinearizedPolynomial(t, [0] + tail)) // t.order

    direct = [tuple(sorted(tail_id([t.mul(beta, t.pow(a, t.p ** k))
                                    for a in tail]) for tail in tails))
              for k in range(t.e * t.n) for beta in range(1, t.order)]
    walked = list(classify._image_tails(t, tuple(map(tail_id, tails))))
    assert sorted(walked) == sorted(direct)


def test_paranoid_alerts_when_a_shared_result_differs(monkeypatch):
    # paranoid classifies every bucket and compares it with the result a
    # translate or an orbit image stored under its tails.  A mutated
    # _image_tails stores the first bucket's result under every bucket's
    # tails: each bucket whose own cases or set_linearity differ is named
    # in an alert, and the rest of the report is the paranoid one
    t = build_tower(2, 1, 3)
    clean = bucket_search(2, 1, 3, paranoid=True)
    assert not clean.alerts
    every = [tuple(pid // t.order for pid in b["members"])
             for b in clean.buckets.values()]
    first = clean.buckets[min(clean.buckets)]
    differ = sorted(key for key, b in clean.buckets.items()
                    if (b["cases"], b["set_linearity"])
                    != (first["cases"], first["set_linearity"]))
    monkeypatch.setattr(classify, "_image_tails", lambda tower, tails: every)
    rep = bucket_search(2, 1, 3, paranoid=True)
    assert differ and rep.alerts == [
        f"bucket {key}: cases or set_linearity differ from another bucket "
        "of its orbit" for key in differ]
    assert not rep.theorem_confirmed
    assert (rep.buckets, rep.histogram, rep.anomalies) == (
        clean.buckets, clean.histogram, clean.anomalies)
    # outside paranoid the mutation goes unseen: every bucket takes the
    # first one's result
    assert bucket_search(2, 1, 3).histogram != clean.histogram


@pytest.mark.parametrize("pen", [(2, 1, 3), (3, 1, 3), (2, 1, 4)])
def test_scan_takes_one_det_per_necklace_per_kept_twist_orbit(monkeypatch, pen):
    # every id is a diagonal shift of its tail's matrix, and twisting the
    # tail conjugates that matrix by a diagonal one, so the scan's
    # determinants are one fingerprint's per twist orbit of the tails that
    # pass the gcd filter: one per necklace (3 at n = 3, 5 at n = 4)
    necklaces, orbits = {(2, 1, 3): (3, 9), (3, 1, 3): (3, 56),
                         (2, 1, 4): (5, 272)}[pen]
    t = build_tower(*pen)
    scan_worker, det = classify._scan_worker, linalg.det
    inside, calls = [False], [0]

    def counting_det(*args):
        calls[0] += inside[0]
        return det(*args)

    def tracked_scan(args):
        inside[0] = True
        try:
            return scan_worker(args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "det", counting_det)
    monkeypatch.setattr(classify, "_scan_worker", tracked_scan)
    bucket_search(*pen)
    kept = [f for f in (poly_from_id(t, tid * t.order)
                        for tid in range(t.order ** (t.n - 1)))
            if f.linearity_gcd() == 1]
    found = {min(poly_to_id(f.twist(lam)) for lam in range(1, t.order))
             for f in kept}
    assert len(found) == orbits < len(kept)
    assert calls[0] == necklaces * orbits


@pytest.mark.parametrize("pen, kwargs, tables", [
    ((2, 1, 4), {}, 166), ((3, 1, 3), {}, 41),
    ((5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True}, 314)])
def test_full_scan_builds_one_shift_table_per_a0_zero_fingerprint(
        monkeypatch, pen, kwargs, tables):
    # a shift table is read off B's principal minors alone, and the kept
    # tails whose zero-diagonal matrices share them (twists, adjoints)
    # share one table: 166 for 272 kept orbits at (2,1,4), 41 for 56 at
    # (3,1,3), 314 for 504 kept tails at (5,1,3) modulo_twist.  Each one
    # names a class of order buckets, its translates along a_0.  The
    # tables last one scan: none is left after a search or a club check
    t = build_tower(*pen)
    built, diagonal_terms = [], DicksonMatrix._diagonal_terms

    def counting_terms(self):
        built.append(self._principal_minors())
        return diagonal_terms(self)

    kept = [tail for tid in range(t.order ** (t.n - 1))
            if (tail := classify._tail_filtered(
                t, tid, kwargs.get("modulo_twist", False))) is not None]
    at_zero = {DicksonMatrix(t, [0] + tail).fingerprint() for tail in kept}
    monkeypatch.setattr(DicksonMatrix, "_diagonal_terms", counting_terms)
    classify._SHIFT_TABLES.clear()  # direct _scan_worker calls leave theirs
    rep = bucket_search(*pen, **kwargs)
    assert sorted(built) == sorted(at_zero) and len(at_zero) == tables
    assert rep.bucket_count == tables * t.order
    assert not classify._SHIFT_TABLES
    verify_club_uniqueness(*pen, budget=kwargs.get("budget"))
    assert not classify._SHIFT_TABLES


def test_scan_workers_share_shift_tables_only_within_a_tower():
    # the shared tables are keyed by tower as well as by minors: (3,1,3)
    # and (5,1,3) tails can share minors, and a (3,1,3) table must not
    # serve a (5,1,3) chunk.  Direct calls in a row, which keep their
    # tables, give the groups that fresh processes would
    chunks = []
    for pen in ((3, 1, 3), (5, 1, 3)):
        t = build_tower(*pen)
        step = max(classify.SCAN_CHUNK // t.order, 1) * t.order
        chunks.append(((*pen, t.modulus), 0, step, None, False))
    fresh = []
    for args in chunks:
        classify._SHIFT_TABLES.clear()
        fresh.append(classify._scan_worker(args))
    classify._SHIFT_TABLES.clear()
    try:
        assert [classify._scan_worker(args) for args in chunks] == fresh
    finally:
        classify._SHIFT_TABLES.clear()


@pytest.mark.parametrize("pen, modulo_twist", [
    ((2, 1, 3), False), ((3, 1, 3), False), ((2, 2, 2), False),
    ((2, 1, 4), False), ((2, 1, 4), True)])
def test_full_scan_chunks_key_each_kept_id_once(monkeypatch, pen,
                                                modulo_twist):
    # a full scan's chunk emits the ids of whole twist orbits, most outside
    # its own range: over the real chunk list every kept id must come out
    # exactly once, under the key its own matrix gives by the determinant
    # route, and the merged buckets must list their ids in ascending order
    t = build_tower(*pen)
    scan_worker, results = classify._scan_worker, []

    def recording_scan(args):
        res = scan_worker(args)
        results.append(res)
        return res

    monkeypatch.setattr(classify, "_scan_worker", recording_scan)
    _, groups = classify._scan_buckets(t, None, modulo_twist, 1, None)
    assert len(results) > 1 or t.order ** t.n <= classify.SCAN_CHUNK
    kept = [pid for pid in range(t.order ** t.n)
            if classify._tail_filtered(t, pid // t.order, modulo_twist)
            is not None]
    emitted = sorted(pid for res in results for ids in res.values()
                     for pid in ids)
    assert emitted == kept
    for res in results:
        for fp, ids in res.items():
            for pid in ids:
                f = poly_from_id(t, pid)
                assert DicksonMatrix.from_poly(f).fingerprint() == fp
    assert all(ids == sorted(set(ids)) for ids in groups.values())
    assert sum(map(len, groups.values())) == len(kept)


@pytest.mark.parametrize("pen, chunks", [
    ((3, 1, 3), None), ((2, 2, 2), None), ((5, 1, 3), 2), ((2, 1, 4), None)])
def test_orbit_members_from_log_tables_are_the_distinct_twists(pen, chunks):
    # _orbit_tails reaches an orbit's members through log b_i = log a_i +
    # L*(q^i - 1), L < (q^n - 1)/(q - 1): each twist-filtered tail of a
    # chunk's range must get exactly the distinct _twist_coeffs images over
    # lam in F^*, itself first and each member once; q > 2 is where F_q^*
    # fixes tails.  The chunk emits every c0 of every member, no other id.
    # At (5,1,3), above the default budget, the first chunks stand for all
    t = build_tower(*pen)
    order = t.order
    step = max(classify.SCAN_CHUNK // order, 1) * order
    for lo in list(range(0, order ** t.n, step))[:chunks]:
        hi = min(lo + step, order ** t.n)
        groups = classify._scan_worker(
            ((*pen, t.modulus), lo, hi, None, False))
        canon = [tid for tid in range(lo // order, hi // order)
                 if classify._tail_filtered(t, tid, True) is not None]
        assert canon
        emitted = []
        for c in canon:
            coeffs = poly_from_id(t, c * order).coeffs
            twists = {poly_to_id(LinearizedPolynomial(
                t, _twist_coeffs(t, coeffs, lam))) // order
                for lam in range(1, order)}
            members = classify._orbit_tails(t, coeffs[1:])
            assert members[0] == c and sorted(members) == sorted(twists)
            assert len(members) == (order - 1) // (t.q - 1)
            emitted += [m * order + c0 for m in members for c0 in range(order)]
        assert sorted(pid for ids in groups.values() for pid in ids) == \
            sorted(emitted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (3, 1, 3), (5, 1, 3), (2, 2, 3), (3, 1, 4)]),
    partner=st.sampled_from(["fresh", "twist", "adjoint", "twisted adjoint"]))
def test_orbit_labels_are_the_twist_forms(data, pen, partner):
    # _twist_classes names a class by the smallest tail id of its
    # _orbit_tails walk: two tails get one label exactly when they get one
    # smallest twist.  The partner is a fresh tail, a twist, an adjoint or a
    # twisted adjoint; zeros come often, so that supports the gcd filter
    # drops and leading indices with a larger stabilizer come up
    t = build_tower(*pen)
    coeff = st.just(0) | st.integers(1, t.order - 1)
    tails = st.lists(coeff, min_size=t.n - 1, max_size=t.n - 1)
    f = [0] + data.draw(tails)
    g = [0] + data.draw(tails) if partner == "fresh" else list(f)
    if "adjoint" in partner:
        g = _adjoint_coeffs(t, g)
    if "twist" in partner:
        g = _twist_coeffs(t, g, data.draw(st.integers(1, t.order - 1)))

    def tail_id(cs):
        return poly_to_id(LinearizedPolynomial(t, cs)) // t.order

    def label(cs):
        orbit = classify._orbit_tails(t, cs[1:])
        assert orbit[0] == tail_id(cs)
        return min(orbit)

    assert label(f) == min(tail_id(_twist_coeffs(t, f, lam))
                           for lam in range(1, t.order))
    assert (label(f) == label(g)) == (twist_form(t, f) == twist_form(t, g))
    if partner == "twist":
        assert label(f) == label(g)


def residue_minimum_tails(t):
    """Brute force, without _residue_minima: the tail ids whose leading
    coefficient a_i0 is the smallest of {a_i0 * lam^(q^i0 - 1)}, and the
    zero tail."""
    order, smallest = t.order, {}
    for i0 in range(1, t.n):
        powers = {t.pow(lam, t.q ** i0 - 1) for lam in range(1, order)}
        smallest[i0] = {a for a in range(1, order)
                        if a == min(t.mul(a, h) for h in powers)}
    out = []
    for tid in range(order ** (t.n - 1)):
        v, i0 = tid, 1
        while v and not v % order:
            v, i0 = v // order, i0 + 1
        if not v or v % order in smallest[i0]:
            out.append(tid)
    return out


@pytest.mark.parametrize("pen", [(2, 1, 1), (2, 1, 3), (3, 1, 3), (2, 2, 2),
                                 (2, 1, 4), (5, 1, 3), (2, 2, 3), (3, 1, 4)])
def test_candidate_tails_are_the_residue_minimum_tails(pen):
    # a full scan decodes only the tails _candidate_tails computes: for
    # every chunk split they must be the brute-force candidates, ascending
    # and inside the chunk, and the tails _tail_filtered keeps among them
    # must be those it keeps among all tails.  n = 1 keeps its zero tail;
    # (3,1,4) has tails whose leading coefficient ties over the stabilizer
    t = build_tower(*pen)
    total = t.order ** (t.n - 1)
    brute = residue_minimum_tails(t)
    for step in (1, 7, 131, total):
        los = range(0, total, step)
        if step == 1 and total > 1 << 14:
            # one call per tail of (3,1,4) takes seconds; its first and
            # last 8,192 tails hold ids of every leading position
            los = [*los[:1 << 13], *los[-(1 << 13):]]
        got = []
        for lo in los:
            chunk = list(classify._candidate_tails(t, lo, min(lo + step,
                                                              total)))
            assert all(lo <= tid < lo + step for tid in chunk)
            got += chunk
        starts = set(los)
        assert got == [tid for tid in brute if tid // step * step in starts]
    kept = [tid for tid in brute
            if classify._tail_filtered(t, tid, True) is not None]
    assert kept == [tid for tid in range(total)
                    if classify._tail_filtered(t, tid, True) is not None]
    assert (pen == (2, 1, 1)) == (kept == [0])


def test_candidate_tails_at_2_1_5():
    # n = 5 is prime and gcd(2^i - 1, 31) = 1, so each leading coefficient
    # has one minimum and no tie: the 33,825 tails a (2,1,5) modulo_twist
    # search keeps, and the zero tail
    t = build_tower(2, 1, 5)
    assert sum(1 for _ in classify._candidate_tails(t, 0, 32 ** 4)) == 33826


def test_only_paranoid_buckets_ask_diag_similar(monkeypatch):
    # outside paranoid the twist classes settle every scalar and perp pair,
    # so the pairs left for _classify_core need no diag_similar; paranoid
    # keeps both calls (A, B and A, B^T) for every pair, as classify_pair
    # does, and both routes count the same cases
    t, U, W = criterion_seven_pair()
    f, g = U.as_graph_poly(), W.as_graph_poly()
    lam = next(v for v in range(2, t.order) if not t.in_subfield(v, 1))
    ids = sorted({poly_to_id(f), poly_to_id(f.twist(lam)), poly_to_id(g),
                  poly_to_id(LinearizedPolynomial(
                      t, _adjoint_coeffs(t, f.coeffs)))})
    diag_similar, calls = DicksonMatrix.diag_similar, [0]

    def counting(self, other):
        calls[0] += 1
        return diag_similar(self, other)

    monkeypatch.setattr(DicksonMatrix, "diag_similar", counting)
    results = {}
    for paranoid in (False, True):
        calls[0] = 0
        cases, anomalies, _ = classify._classify_bucket(t, ids, paranoid)
        results[paranoid] = (cases, anomalies, calls[0])
    pairs = len(ids) * (len(ids) - 1) // 2
    assert results[False][2] == 0 and results[True][2] == 2 * pairs
    assert results[False][:2] == results[True][:2]
    assert results[False][0]["generalized_perp"] > 0
    assert sum(results[False][0].values()) == pairs
    calls[0] = 0
    classify_pair(f, g)
    assert calls[0] == 2


def test_sampled_scan_expands_only_tails_shared_by_several_ids(monkeypatch):
    # a lone id of a sampled scan takes the determinant route; only a tail
    # that several ids share builds the expansion terms, once.  Either way
    # each kept tail costs one determinant per necklace of Z_n, and the
    # keys are the ids' own fingerprints; under modulo_twist the run is
    # filtered with the twist filter on.  On the table-less (2,11,2)
    # tower a run of two ids takes the determinant route on each shifted
    # matrix, so it costs two determinants per necklace and no expansion.
    # The keys are the given id objects, which the search's id list holds
    # already, not equal ints made anew (5 MB more at (2,1,5) sample=200000)
    det, terms = linalg.det, DicksonMatrix._diagonal_terms
    dets, expanded = [0], [0]

    def counting_det(*args):
        dets[0] += 1
        return det(*args)

    def counting_terms(self):
        expanded[0] += 1
        return terms(self)

    def scan(t, ids, modulo_twist):
        dets[0] = expanded[0] = 0
        monkeypatch.setattr(linalg, "det", counting_det)
        monkeypatch.setattr(DicksonMatrix, "_diagonal_terms", counting_terms)
        groups = classify._scan_worker(
            ((t.p, t.e, t.n, t.modulus), 0, 0, ids, modulo_twist))
        monkeypatch.undo()
        assert {id(pid) for members in groups.values() for pid in members} \
            <= set(map(id, ids))
        return {pid: fp for fp, members in groups.items() for pid in members}

    def own_fingerprints(t, ids):
        return {pid: DicksonMatrix.from_poly(poly_from_id(t, pid)).fingerprint()
                for pid in ids}

    for pen, size, modulo_twist in (((2, 1, 4), 600, False),
                                    ((3, 1, 3), 2000, True),
                                    ((2, 2, 3), 10000, True),
                                    ((5, 1, 3), 20000, True)):
        t = build_tower(*pen)
        ids = sorted(random.Random(3).sample(range(t.order ** t.n), size))
        runs = {}
        for pid in ids:
            runs.setdefault(pid // t.order, []).append(pid)
        kept = {tid: r for tid, r in runs.items()
                if classify._tail_filtered(t, tid, modulo_twist) is not None}
        shared = sum(len(r) > 1 for r in kept.values())
        assert 0 < shared < len(kept)
        keys = scan(t, ids, modulo_twist)
        assert expanded[0] == shared
        assert dets[0] == len(dickson._necklaces(t.n)) * len(kept)
        assert keys == own_fingerprints(t, [pid for r in kept.values()
                                            for pid in r])
    t = build_tower(2, 11, 2)
    assert not t.has_tables
    ids = [5 * t.order + 3, 5 * t.order + 1000]
    assert classify._tail_filtered(t, 5, False) == [5]
    assert scan(t, ids, False) == own_fingerprints(t, ids)
    assert expanded[0] == 0 and dets[0] == 2 * len(dickson._necklaces(2))


@pytest.mark.parametrize("pen, kwargs", [
    ((2, 1, 3), {}),
    ((3, 1, 3), {"modulo_twist": True}),
    ((2, 1, 6), {"budget": 1000, "sample": 300}),
    ((2, 1, 4), {}),
    ((5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True}),
])
def test_scan_fingerprints_exactly_the_ids_whose_tail_passes(monkeypatch, pen,
                                                             kwargs):
    # the scan filters once per tail (coefficients 1..n-1) but must still
    # fingerprint every kept id once; the sample case changes tail inside
    # a chunk at almost every id.  The classify phase gets one (key, ids)
    # item per classified bucket, so C(len(ids), 2) over its items adds up
    # to pair_count.  The benchmark's traced runs count these three
    # figures; the full (2,1,4) case is the shape of its main search
    t = build_tower(*pen)
    scan_worker, fingerprint = classify._scan_worker, DicksonMatrix.fingerprint
    classify_worker, items = classify._classify_worker, []
    visited, inside, calls = [], [False], [0]

    def counting_fingerprint(self, *args):
        calls[0] += inside[0]
        return fingerprint(self, *args)

    def tracked_scan(args):
        _, lo, hi, ids, _ = args
        visited.extend(ids if ids is not None else range(lo, hi))
        inside[0] = True
        try:
            return scan_worker(args)
        finally:
            inside[0] = False

    def tracked_classify(args):
        items.extend(args[1])
        return classify_worker(args)

    monkeypatch.setattr(DicksonMatrix, "fingerprint", counting_fingerprint)
    monkeypatch.setattr(classify, "_scan_worker", tracked_scan)
    monkeypatch.setattr(classify, "_classify_worker", tracked_classify)
    rep = bucket_search(*pen, **kwargs)
    assert calls[0] == rep.scanned
    assert all(len(item) == 2 and isinstance(item[0], str)
               and isinstance(item[1], list) for item in items)
    assert sum(len(ids) * (len(ids) - 1) // 2 for _, ids in items) \
        == rep.pair_count
    assert len(visited) == rep.params["visited"]

    smallest = {}  # tail -> whether it is the smallest of its twist orbit

    def passes(tid):
        f = poly_from_id(t, tid * t.order)
        tail = f.coeffs[1:]
        if kwargs.get("modulo_twist") and tail not in smallest:
            orbit = {tuple(_twist_coeffs(t, f.coeffs, lam))[1:]
                     for lam in range(1, t.order)}
            low = min(orbit)
            smallest.update((m, m == low) for m in orbit)
        return f.linearity_gcd() == 1 and (
            not kwargs.get("modulo_twist") or smallest[tail])

    # both filters read the tail alone, so each visited tail is judged once
    assert rep.scanned == sum(count for tid, count in Counter(
        pid // t.order for pid in visited).items() if passes(tid)) > 0


def test_bucket_search_rejects_bad_workers_and_sample():
    for workers in (0, -3):
        with pytest.raises(BadParametersError):
            bucket_search(2, 1, 3, workers=workers)
        with pytest.raises(BadParametersError):
            verify_club_uniqueness(2, 1, 3, workers=workers)
    for sample in (0, -1):
        with pytest.raises(BadParametersError):
            bucket_search(2, 1, 3, sample=sample)
    # a sample is honoured even when the whole space fits the budget
    rep = bucket_search(2, 1, 3, sample=5)
    assert rep.params["visited"] == 5 and rep.params["sample"] == 5
    # random.sample draws only from fewer than 2^63 ids: (2,7,3) has 2^63,
    # (2,1,8) 2^64 and (2,1,13) 2^169; (2,5,3), with 2^45, still draws
    for pen in ((2, 7, 3), (2, 1, 8), (2, 1, 13)):
        with pytest.raises(BadParametersError, match="2\\^63"):
            bucket_search(*pen, sample=300)
    assert bucket_search(2, 5, 3, sample=5).params["visited"] == 5


def test_bucket_search_progress_and_csv(monkeypatch):
    monkeypatch.setattr(classify, "PROGRESS_EVERY", 100)
    ticks = []
    rep = bucket_search(2, 1, 3, progress=lambda done, total: ticks.append((done, total)))
    assert ticks and all(total == 512 for _, total in ticks)
    assert [d for d, _ in ticks] == sorted(d for d, _ in ticks)
    csv = rep.summary_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "case,count"
    assert len(lines) == 1 + len(rep.histogram)


def test_bucket_search_alternate_modulus_same_shape():
    # representation independence: bucket sizes and verdicts agree across moduli
    base = bucket_search(2, 1, 3)
    alt = bucket_search(2, 1, 3, modulus=[1, 0, 1, 1])
    assert alt.params["modulus"] == [1, 0, 1, 1]
    assert base.histogram == alt.histogram
    assert sorted(b["size"] for b in base.buckets.values()) == \
        sorted(b["size"] for b in alt.buckets.values())


def test_search_restores_the_callers_collector_state(monkeypatch):
    tower = build_tower(2, 1, 3)
    desc = (2, 1, 3, tower.modulus)
    seen = []  # gc.isenabled() inside each worker and progress tick

    def watch(fn):
        return lambda *args: seen.append(gc.isenabled()) or fn(*args)

    def tick(done, total):
        seen.append(gc.isenabled())
        raise RuntimeError(f"tick at {done} of {total}")

    monkeypatch.setattr(classify, "_tail_filtered",
                        watch(classify._tail_filtered))
    monkeypatch.setattr(classify, "_classify_bucket",
                        watch(classify._classify_bucket))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            bucket_search(2, 1, 3)
            assert gc.isenabled() is enabled
            bucket_search(2, 1, 4, workers=2)
            assert gc.isenabled() is enabled
            # a (5,1,3) twist search ticks once, at the first chunk end
            # past 2^20 of its 5^9 ids
            with pytest.raises(RuntimeError, match="^tick at 1064375 of"):
                bucket_search(5, 1, 3, budget=5 ** 9, modulo_twist=True,
                              progress=tick)
            assert gc.isenabled() is enabled
            assert not classify._SHIFT_TABLES  # the raise cleared them too
            groups = classify._scan_worker((desc, 0, 512, None, False))
            assert gc.isenabled() is enabled
            classify._classify_worker((desc, [
                (str(k), sorted(ids)) for k, ids in enumerate(
                    groups.values())], False, True))
            classify._CLASSIFIED.clear()  # a direct call leaves its results
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the workers and the tick ran paused, whatever the caller's setting
    assert seen and not any(seen)


def test_search_leaves_no_reference_cycles():
    # the premise that makes pausing the collector safe: nothing a search
    # or a club check leaves behind needs it.  The paranoid search runs at
    # (2,1,3), as one at (3,1,3) replays pairs for most of a minute
    runs = (lambda: bucket_search(5, 1, 3, budget=5 ** 9, modulo_twist=True),
            lambda: bucket_search(2, 1, 4, workers=2),
            lambda: bucket_search(2, 1, 3, paranoid=True),
            lambda: verify_club_uniqueness(3, 1, 3))
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- club uniqueness -------------------------------------------------------------


def test_verify_club_uniqueness_small(monkeypatch):
    assert verify_club_uniqueness(2, 1, 3)
    with pytest.raises(ValueError):
        verify_club_uniqueness(2, 1, 2)
    with pytest.raises(BudgetExceededError):
        verify_club_uniqueness(2, 1, 6, budget=1000)
    # as in a full scan: workers before the budget, and the budget against
    # all order^n ids, although only the a_0 = 0 ids are scanned
    with pytest.raises(BadParametersError, match="workers"):
        verify_club_uniqueness(2, 1, 6, budget=1000, workers=0)
    with pytest.raises(BudgetExceededError, match="^65536 candidate"):
        verify_club_uniqueness(2, 1, 4, budget=16 ** 4 - 1)
    assert verify_club_uniqueness(2, 1, 4, budget=16 ** 4)
    monkeypatch.setenv("LINSETLAB_BUDGET", "junk")
    with pytest.raises(BadParametersError, match="LINSETLAB_BUDGET"):
        verify_club_uniqueness(2, 1, 3)


def test_verify_club_uniqueness_catches_a_mixed_bucket(monkeypatch):
    # flag every graph with a full tail as a club: some such bucket then
    # holds graphs from more than one twist orbit
    monkeypatch.setattr(classify, "is_club_coeffs",
                        lambda t, coeffs: all(coeffs[1:]))
    assert verify_club_uniqueness(3, 1, 3) is False


def test_verify_club_uniqueness_tests_each_tail_once(monkeypatch):
    # being a club reads only a_1 .. a_(n-1), so the check makes one
    # is_club_coeffs call per distinct tail of a shared bucket, not one per
    # member (11,232 members at (3,1,3), against 3^6 = 729 tails)
    t = build_tower(3, 1, 3)
    is_club, tails = classify.is_club_coeffs, []

    def counting_is_club(tower, coeffs):
        tails.append(tuple(coeffs[1:]))
        return is_club(tower, coeffs)

    monkeypatch.setattr(classify, "is_club_coeffs", counting_is_club)
    assert verify_club_uniqueness(3, 1, 3)
    assert 0 < len(tails) == len(set(tails)) <= t.order ** (t.n - 1)


@pytest.mark.parametrize("pen, canonical", [((3, 1, 3), 56),
                                            ((2, 1, 4), 272)])
def test_club_check_fingerprints_canonical_tails_at_a0_zero(monkeypatch, pen,
                                                           canonical):
    # one determinant-route fingerprint per canonical kept tail: no shift
    # table and no twist-orbit walk; progress counts the a_0 = 0 ids of
    # the candidate tails (leading coefficient a residue minimum, or zero)
    t = build_tower(*pen)
    calls = {"fingerprint": 0, "_shift_table": 0, "_orbit_tails": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def run(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, run)

    for owner, name in ((DicksonMatrix, "fingerprint"),
                        (DicksonMatrix, "_shift_table"),
                        (classify, "_orbit_tails")):
        counting(owner, name)
    monkeypatch.setattr(classify, "PROGRESS_EVERY", 16)
    ticks = []
    assert verify_club_uniqueness(*pen, progress=lambda done, total:
                                  ticks.append(total))
    assert calls == {"fingerprint": canonical, "_shift_table": 0,
                     "_orbit_tails": 0}
    assert ticks and set(ticks) == {len(residue_minimum_tails(t))}


@pytest.mark.parametrize("pen, alone, canonical", [
    ((2, 1, 3), 7, 9), ((3, 1, 3), 26, 56), ((2, 1, 4), 60, 272),
    ((2, 2, 3), 63, 195)])
def test_club_scan_groups_are_the_twist_classes_of_full_buckets(pen, alone,
                                                                 canonical):
    # the club check's old reading: a canonical kept tail's a_0 = 0 bucket
    # of the full scan holds one twist class; its new one: the tail is
    # alone in its group of the a_0 = 0 scan with the twist filter.  Both
    # sides name an orbit by its smallest tail id
    t = build_tower(*pen)
    order = t.order

    def label(pid):
        return min(classify._orbit_tails(t, coeffs_of_id(t, pid)[1:]))

    _, full = classify._scan_buckets(t, None, False, 1, None)
    one_class = {}
    for ids in full.values():
        if ids[0] % order == 0:
            classes = set(map(label, ids))
            one_class.update(dict.fromkeys(classes, len(classes) == 1))
    _, groups = classify._scan_buckets(
        t, range(0, order ** t.n, order), True, 1, None)
    is_alone = {label(pid): len(ids) == 1
                for ids in groups.values() for pid in ids}
    assert is_alone == one_class
    assert (sum(is_alone.values()), len(is_alone)) == (alone, canonical)


@pytest.mark.parametrize("p", [2, 3])
def test_gcd_filtered_ids_never_share_a_club_fingerprint(p):
    t = build_tower(p, 1, 3)
    club_fps, dropped_fps = set(), set()
    for pid in range(t.order ** 3):
        coeffs = coeffs_of_id(t, pid)
        kept = classify._tail_filtered(t, pid // t.order, False) is not None
        if kept and not is_club_coeffs(t, coeffs):
            continue
        fp = DicksonMatrix(t, coeffs).fingerprint()
        (club_fps if kept else dropped_fps).add(fp)
    assert club_fps and dropped_fps
    assert not club_fps & dropped_fps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from([(2, 1, 4), (3, 1, 3), (5, 1, 3)]),
       twisted=st.booleans())
def test_twist_canonical_form_agrees_with_diag_similar(data, pen, twisted):
    t = build_tower(*pen)
    # zeros often, so that leading tail indices with a nontrivial
    # stabilizer come up
    coeff = st.just(0) | st.integers(1, t.order - 1)
    f = data.draw(st.lists(coeff, min_size=t.n, max_size=t.n))
    if twisted:
        lam = data.draw(st.integers(1, t.order - 1))
        g = [t.mul(c, t.pow(lam, t.q ** i - 1)) for i, c in enumerate(f)]
    else:
        g = data.draw(st.lists(coeff, min_size=t.n, max_size=t.n))
    same_form = twist_form(t, f) == twist_form(t, g)
    similar = DicksonMatrix(t, f).diag_similar(DicksonMatrix(t, g)) is not None
    assert same_form == similar
    if twisted:
        assert same_form
