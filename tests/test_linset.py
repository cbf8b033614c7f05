"""Unit tests for subspaces, linear sets, constructions, and r >= 3 tools.

Weights, set equalities, and decomposition claims are recomputed here by
brute-force vector enumeration, independent of the library's own paths."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from linsetlab import gf, linalg, linset
from linsetlab.classify import bucket_search
from linsetlab.dickson import FINGERPRINT_BOUND, DicksonMatrix
from linsetlab.errors import (
    AmbientMismatchError,
    BadExponentError,
    BadModeError,
    BadParametersError,
    DecompositionFailedError,
    NotADivisorError,
    NotMaxRankError,
    TooLargeError,
    VertexNotInSetError,
    ZeroParameterError,
)
from linsetlab.linpoly import LinearizedPolynomial, poly_from_id
from linsetlab.linset import (
    GeneralizedDecomposition,
    LinearSet,
    Subspace,
    canonical_point,
    construct_club,
    construct_generalized,
    construct_pseudoregulus,
    decompose,
    fqd_lines,
    generalized_partner,
    graph_subspace,
    is_cone_r3,
    linear_set,
    multi_coeffs,
    normalize_off_infinity,
    perp,
    sets_equal,
    set_linearity,
    subspace_from_json,
    weight,
)


def random_poly(tower, rng):
    return LinearizedPolynomial(
        tower, [rng.randrange(tower.order) for _ in range(tower.n)])


def all_vectors(U):
    """Brute-force enumeration of U's q^m vectors."""
    t = U.tower
    f_q = t.subfield_elements(1)
    vecs = [(0,) * U.r]
    for bv in U.basis:
        vecs = [tuple(t.add(a, t.mul(c, b)) for a, b in zip(v, bv))
                for c in f_q for v in vecs]
    return set(vecs)


def oracle_weight(U, point):
    t = U.tower
    members = all_vectors(U)
    count = sum(1 for lam in range(1, t.order)
                if tuple(t.mul(lam, c) for c in point) in members)
    w = round(math.log(count + 1, t.q))
    assert t.q ** w == count + 1
    return w


# ---------------------------------------------------------------------------
# Subspace basics
# ---------------------------------------------------------------------------

def test_subspace_echelon_and_equality():
    t = gf.build_tower(2, 1, 3)
    U = Subspace(t, 2, [(1, 0), (t.x_int, 0), (1, 1)])
    V = Subspace(t, 2, [(1, 1), (t.add(1, t.x_int), 0), (1, 0)])
    assert U.m == 3 and U == V and hash(U) == hash(V)
    # dependent generators collapse
    W = Subspace(t, 2, [(1, 0), (1, 0)])
    assert W.m == 1
    assert W.contains_vector((1, 0)) and not W.contains_vector((0, 1))
    with pytest.raises(ValueError):
        Subspace(t, 2, [(1, 0, 0)])


def test_subspace_scale_and_transform():
    t = gf.build_tower(2, 1, 3)
    f = LinearizedPolynomial(t, [3, 5, 0])
    U = graph_subspace(f)
    lam = 6
    V = U.scale(lam)
    assert all_vectors(V) == {tuple(t.mul(lam, c) for c in v) for v in all_vectors(U)}
    swap = ((0, 1), (1, 0))
    W = U.transform(swap)
    assert all_vectors(W) == {(b, a) for a, b in all_vectors(U)}
    with pytest.raises(ZeroParameterError):
        U.scale(0)


def test_subspace_json_roundtrip():
    t = gf.build_tower(3, 1, 2)
    U = Subspace(t, 3, [(1, 2, 0), (0, 1, 5)])
    assert subspace_from_json(t, U.to_json()) == U


def test_contains_vector_checks_its_input():
    t = gf.build_tower(2, 1, 3)
    U = graph_subspace(LinearizedPolynomial.monomial(t, 1, 1))  # x^q
    x = t.x_int
    assert U.contains_vector((x, t.mul(x, x))) and U.contains_vector((0, 0))
    assert U.contains_vector((t.element(x), t.element(t.mul(x, x))))
    assert not U.contains_vector((1, x))
    for wrong_length in [(1,), (1, 1, 5), ()]:
        with pytest.raises(AmbientMismatchError):
            U.contains_vector(wrong_length)
    for out_of_range in [(9, 0), (-1, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            U.contains_vector(out_of_range)
    for not_an_int in [(True, 1), (1.0, 1)]:
        with pytest.raises(BadParametersError):
            U.contains_vector(not_an_int)


ECHELON_TOWERS = [(2, 1, 4), (3, 1, 3), (5, 1, 3), (2, 2, 3), (3, 2, 2),
                  (2, 11, 2)]  # the last has no log tables


@st.composite
def _echelon_inputs(draw):
    """A tower, r, generators with zero, repeated and dependent vectors
    drawn often, and a probe vector (often in their span)."""
    t = gf.build_tower(*draw(st.sampled_from(ECHELON_TOWERS)))
    r = draw(st.integers(1, 3))
    elem = st.integers(0, t.order - 1)
    fq = elem.map(lambda v: t.q_coord(v, 0))  # an F_q scalar

    def combo(vecs):
        out = (0,) * r
        for v in vecs:
            c = draw(fq)
            out = tuple(t.add(a, t.mul(c, b)) for a, b in zip(out, v))
        return out

    vecs = []
    for _ in range(draw(st.integers(0, 2 * t.n + 1))):
        kind = draw(st.sampled_from(("zero", "repeat", "dependent", "random")))
        if kind == "zero" or (kind != "random" and not vecs):
            vecs.append((0,) * r)
        elif kind == "repeat":
            vecs.append(draw(st.sampled_from(vecs)))
        elif kind == "dependent":
            vecs.append(combo(vecs))
        else:
            vecs.append(tuple(draw(elem) for _ in range(r)))
    probe = (combo(vecs) if draw(st.booleans())
             else tuple(draw(elem) for _ in range(r)))
    return t, r, vecs, probe


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_echelon_inputs())
def test_packed_echelon_equals_the_flattened_rref(case):
    t, r, vecs, probe = case
    U = Subspace(t, r, vecs)
    pivots, rows = linalg.rref(t, [linset._flatten(t, v) for v in vecs])
    assert U._pivots == tuple(pivots)
    assert U.basis == tuple(linset._unflatten(t, row, r) for row in rows)
    assert U.flat_rows() == tuple(tuple(row) for row in rows)
    assert U.contains_vector(probe) == (
        Subspace(t, r, U.basis + (probe,)).m == U.m)


# ---------------------------------------------------------------------------
# graphs and weights
# ---------------------------------------------------------------------------

def test_graph_subspace_shape():
    t = gf.build_tower(2, 1, 3)
    f = LinearizedPolynomial.monomial(t, 1, 1)
    U = graph_subspace(f)
    vecs = all_vectors(U)
    assert len(vecs) == 8 and sum(1 for v in vecs if any(v)) == 7
    assert vecs == {(x, f.evaluate(x)) for x in range(t.order)}
    assert weight(U, (0, 1)) == 0  # P_infinity avoids every graph
    zero_graph = graph_subspace(LinearizedPolynomial.zero(t))
    L = linear_set(zero_graph)
    assert L.point_set() == {(1, 0)} and L.weight_of((1, 0)) == t.n


@pytest.mark.parametrize("pen", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2),
                                 (2, 11, 2)])
def test_graph_subspace_rows_are_their_echelon_form(pen):
    # graph_subspace takes the rows (x^j, f(x^j)) as the reduced echelon
    # form without reducing them, as q_coords(x^j) = e_j: the _echelon
    # route gives the same basis and pivots, also for e > 1 and on the
    # tower without log tables
    t = gf.build_tower(*pen)
    rng = random.Random(sum(pen))
    polys = [LinearizedPolynomial.zero(t), LinearizedPolynomial.monomial(
        t, 1, 1)] + [LinearizedPolynomial(
            t, [rng.randrange(t.order) for _ in range(t.n)])
            for _ in range(10)]
    for f in polys:
        U = graph_subspace(f)
        pivots, basis = linset._echelon(
            t, 2, [(xj, f.evaluate(xj)) for xj in t.power_basis])
        assert U.basis == tuple(basis) and U._pivots == tuple(pivots)
        assert U == Subspace(t, 2, U.basis) and U.as_graph_poly() is f


def test_weight_matches_bruteforce_oracle():
    rng = random.Random(2026)
    for p, e, n in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        t = gf.build_tower(p, e, n)
        for _ in range(15):
            f = random_poly(t, rng)
            U = graph_subspace(f)
            for a in range(t.order):
                assert weight(U, (1, a)) == oracle_weight(U, (1, a))
            assert weight(U, (0, 1)) == oracle_weight(U, (0, 1))
        # non-graph subspaces of various dimensions
        for m in (1, 2, n + 1):
            vecs = [tuple(rng.randrange(t.order) for _ in range(2))
                    for _ in range(m)]
            U = Subspace(t, 2, vecs)
            for _ in range(8):
                pt = (rng.randrange(t.order), rng.randrange(t.order))
                if any(pt):
                    assert weight(U, pt) == oracle_weight(U, pt)
    with pytest.raises(ValueError):
        weight(U, (0, 0))


def test_weight_examples():
    t = gf.build_tower(2, 1, 4)
    a0 = 9
    U = graph_subspace(LinearizedPolynomial(t, [a0]))
    assert weight(U, (1, a0)) == t.n
    assert weight(U, (1, a0 ^ 1)) == 0
    t5 = gf.build_tower(2, 1, 5)
    U5 = graph_subspace(LinearizedPolynomial.monomial(t5, 1, 1))
    for v in range(1, t5.order):
        if t5.norm_to(v, 1) == 1:
            assert weight(U5, (1, v)) == 1


def test_linear_set_pseudoregulus_and_club_examples():
    t5 = gf.build_tower(2, 1, 5)
    L = linear_set(graph_subspace(LinearizedPolynomial.monomial(t5, 1, 1)))
    assert len(L) == 31
    assert all(w == 1 for w in L.points.values())
    assert L.point_set() == {(1, v) for v in range(1, t5.order)
                             if t5.norm_to(v, 1) == 1}
    t4 = gf.build_tower(2, 1, 4)
    club = construct_club(t4.zero(), t4.one(), t4.one())
    Lc = linear_set(club)
    assert len(Lc) == 9
    assert Lc.spectrum() == {1: 8, 3: 1}
    assert Lc.weight_of((1, 0)) == 3


def test_linear_set_spectrum_identity_random():
    rng = random.Random(31)
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for m in (1, 2, 3, n):
            vecs = [tuple(rng.randrange(t.order) for _ in range(2))
                    for _ in range(m)]
            U = Subspace(t, 2, vecs)
            L = linear_set(U)
            assert sum(t.q ** w - 1 for w in L.points.values()) == t.q ** U.m - 1


def test_linear_set_budget(monkeypatch):
    t = gf.build_tower(2, 1, 5)
    U = graph_subspace(LinearizedPolynomial.monomial(t, 1, 1))
    monkeypatch.setenv("LINSETLAB_BUDGET", "16")
    with pytest.raises(TooLargeError):
        linear_set(U)


def test_linear_set_json_and_csv():
    t = gf.build_tower(2, 1, 4)
    L = linear_set(construct_club(t.zero(), t.one(), t.one()))
    blob = L.to_json()
    assert len(blob["points"]) == 9
    assert blob["spectrum"] == [8, 0, 1, 0]
    assert all(set(p) == {"coords", "weight"} for p in blob["points"])
    csv = L.spectrum_csv()
    assert csv.splitlines()[0] == "weight,count"
    assert "1,8" in csv and "3,1" in csv


# ---------------------------------------------------------------------------
# set equality
# ---------------------------------------------------------------------------

def test_sets_equal_basics_and_dual_route():
    t = gf.build_tower(2, 1, 4)
    rng = random.Random(4)
    for _ in range(25):
        f = random_poly(t, rng)
        U = graph_subspace(f)
        assert sets_equal(U, U, verify=True)
        lam = rng.randrange(1, t.order)
        assert sets_equal(U, U.scale(lam), verify=True)
        g = random_poly(t, rng)
        W = graph_subspace(g)
        fast = sets_equal(U, W)
        slow = linear_set(U).point_set() == linear_set(W).point_set()
        assert fast == slow
        assert sets_equal(U, W, verify=True) == slow
    with pytest.raises(AmbientMismatchError):
        sets_equal(U, Subspace(gf.build_tower(2, 1, 3), 2, [(1, 0)]))


def test_sets_equal_pseudoregulus_pair():
    t = gf.build_tower(2, 1, 5)
    U = construct_pseudoregulus(t.one(), 1)
    W = construct_pseudoregulus(t.one(), 2)
    assert U != W
    assert sets_equal(U, W, verify=True)


def test_max_rank_weight_transfer_is_asserted():
    # equal max-rank sets always pass the pointwise weight check
    t = gf.build_tower(2, 1, 4)
    U = construct_club(t.zero(), t.one(), t.one())
    lam = 7
    assert sets_equal(U, U.scale(lam), verify=True)


# ---------------------------------------------------------------------------
# perp
# ---------------------------------------------------------------------------

def test_perp_properties():
    rng = random.Random(11)
    for p, e, n in [(2, 1, 3), (2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(10):
            f = random_poly(t, rng)
            U = graph_subspace(f)
            V = perp(U)
            assert V == graph_subspace(f.adjoint())
            assert perp(V) == U
            assert sets_equal(U, V, verify=True)  # L_U = L_{U perp}
        # non-graph subspaces: dimension and double-perp
        for m in (1, 2, n):
            vecs = [tuple(rng.randrange(t.order) for _ in range(2))
                    for _ in range(m)]
            U = Subspace(t, 2, vecs)
            V = perp(U)
            assert V.m == 2 * n - U.m
            assert perp(V) == U
    t3 = gf.build_tower(2, 1, 3)
    a0 = 5
    U = graph_subspace(LinearizedPolynomial(t3, [a0]))
    assert perp(U) == U
    with pytest.raises(ValueError):
        perp(Subspace(t3, 3, [(1, 0, 0)]))


# ---------------------------------------------------------------------------
# normalization off the point at infinity
# ---------------------------------------------------------------------------

def test_normalize_off_infinity():
    t = gf.build_tower(2, 1, 4)
    rng = random.Random(17)
    f = random_poly(t, rng)
    U = graph_subspace(f)
    g, M, V = normalize_off_infinity(U)
    assert M == ((1, 0), (0, 1)) and g == f and V == U
    # the vertical line swaps onto the graph of 0
    vert = Subspace(t, 2, [(0, t.pow(t.x_int, j)) for j in range(t.n)])
    g, M, V = normalize_off_infinity(vert)
    assert M == ((0, 1), (1, 0))
    assert g == LinearizedPolynomial.zero(t)
    # random max-rank subspaces normalize and the transform checks out
    tries = 0
    while tries < 10:
        vecs = [tuple(rng.randrange(t.order) for _ in range(2))
                for _ in range(t.n)]
        U = Subspace(t, 2, vecs)
        if U.m != t.n:
            continue
        tries += 1
        g, M, V = normalize_off_infinity(U)
        assert V == U.transform(M)
        assert weight(V, (0, 1)) == 0
        assert V == graph_subspace(g)
    with pytest.raises(NotMaxRankError):
        normalize_off_infinity(Subspace(t, 2, [(1, 0)]))


# ---------------------------------------------------------------------------
# club and pseudoregulus constructions
# ---------------------------------------------------------------------------

def test_construct_club():
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        rng = random.Random(23)
        for _ in range(10):
            a = t.element(rng.randrange(t.order))
            b = t.element(rng.randrange(1, t.order))
            lam = t.element(rng.randrange(1, t.order))
            U = construct_club(a, b, lam)
            assert weight(U, (1, a.val)) == n - 1
            L = linear_set(U)
            assert L.spectrum() == {1: t.q ** (n - 1), n - 1: 1}
            # the shifted Dickson matrix has rank exactly 1
            f = U.as_graph_poly()
            shifted = DicksonMatrix(
                t, (t.sub(f.coeffs[0], a.val),) + f.coeffs[1:])
            assert shifted.rank_leading() == 1
    t = gf.build_tower(2, 1, 4)
    with pytest.raises(ZeroParameterError):
        construct_club(t.zero(), t.zero(), t.one())
    with pytest.raises(ZeroParameterError):
        construct_club(t.zero(), t.one(), t.zero())


def test_construct_pseudoregulus():
    t = gf.build_tower(3, 1, 4)
    U = construct_pseudoregulus(t.element(5), 1)
    L = linear_set(U)
    assert all(w == 1 for w in L.points.values())
    assert len(L) == (t.q ** t.n - 1) // (t.q - 1)
    with pytest.raises(BadExponentError):
        construct_pseudoregulus(t.one(), 2)  # gcd(2,4) = 2
    with pytest.raises(ZeroParameterError):
        construct_pseudoregulus(t.zero(), 1)


def test_pseudoregulus_norm_criterion():
    t = gf.build_tower(3, 1, 5)
    by_norm = {}
    rng = random.Random(5)
    samples = [rng.randrange(1, t.order) for _ in range(6)]
    for a in samples:
        for i in (1, 2, 3, 4):
            by_norm.setdefault(t.norm_to(a, 1), []).append(
                construct_pseudoregulus(t.element(a), i))
    for norm, subs in by_norm.items():
        base = subs[0]
        for other in subs[1:]:
            assert sets_equal(base, other)
    norms = list(by_norm)
    if len(norms) >= 2:
        assert not sets_equal(by_norm[norms[0]][0], by_norm[norms[1]][0])


# ---------------------------------------------------------------------------
# generalized construction, decomposition, partners
# ---------------------------------------------------------------------------

def _generalized_example(t, d, with_fprime=False):
    n = t.n
    fprime = (LinearizedPolynomial.monomial(t, 1, d) if with_fprime
              else LinearizedPolynomial.zero(t))
    bs = [0] * d
    bs[1] = 1
    if d >= 3:
        bs[2] = 1
    return construct_generalized(fprime, bs, t.one(), d)


def test_construct_generalized_validation_and_shape():
    t = gf.build_tower(2, 1, 6)
    U = _generalized_example(t, 3)
    assert U.m == 6  # echelon rank check
    f = U.as_graph_poly()
    # support avoids no multiple of d beyond f', includes the trace terms
    assert f is not None
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.zero(t), [0, 1, 1], t.one(), 4)
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.zero(t), [0, 0, 0], t.one(), 3)
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.zero(t), [0, 1, 1], t.zero(), 3)
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.monomial(t, 1, 1),
                              [0, 1, 1], t.one(), 3)  # f' not F_(q^d)-linear
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.zero(t),
                              [0, t.x_int, 0], t.one(), 3)  # b_1 outside F_(q^d)
    with pytest.raises(BadParametersError):
        construct_generalized(LinearizedPolynomial.zero(t), [0] * 6, t.one(), 6)
    # coefficient layout: b_i Tr(a x)^(q^i) scatters to indices jd+i
    sub = t.subfield_elements(3)
    b1 = sub[2]
    U2 = construct_generalized(LinearizedPolynomial.zero(t), [0, b1, 0], t.one(), 3)
    f2 = U2.as_graph_poly()
    for k in range(6):
        if k % 3 == 1:
            assert f2.coeffs[k] == t.mul(b1, t.frobenius(1, k))
        else:
            assert f2.coeffs[k] == 0


def test_generalized_loewy_witness():
    t = gf.build_tower(2, 1, 6)
    U = _generalized_example(t, 3)
    A = DicksonMatrix.from_poly(U.as_graph_poly())
    alpha = (0, 3)
    beta = (1, 2, 4, 5)
    from linsetlab import linalg
    ab = A.submatrix(alpha, beta)
    ba = A.submatrix(beta, alpha)
    assert linalg.rank(t, ab) == 1 and linalg.rank(t, ba) == 1
    assert A.loewy_partition() is not None


def test_decompose_roundtrip_and_weights():
    t = gf.build_tower(2, 1, 6)
    for d, with_fprime in [(3, False), (3, True), (2, False)]:
        if d == 2:
            U = construct_generalized(
                LinearizedPolynomial.zero(t), [0, 1], t.one(), 2)
        else:
            U = _generalized_example(t, d, with_fprime)
        dec = decompose(U, d, t.one())
        u_d, xi, u_xi = dec
        assert u_d.m == t.n - d and u_xi.m == d
        assert Subspace(t, 2, list(u_d.basis) + list(u_xi.basis)) == U
        # xi is the first element with relative trace 1
        want_xi = next(v for v in range(t.order)
                       if t.trace_to(t.mul(1, v), d) == 1)
        assert xi == want_xi
        # U_xi vectors are (xi*y, f(xi*y))
        f = U.as_graph_poly()
        for (x, y) in u_xi.basis:
            assert y == f.evaluate(x)
        # every point of L_{U_d} has weight divisible by d
        for w in linear_set(u_d).points.values():
            assert w % d == 0
    with pytest.raises(DecompositionFailedError):
        decompose(construct_pseudoregulus(t.one(), 1), 3, t.one())
    with pytest.raises(DecompositionFailedError):
        decompose(_generalized_example(t, 3), 3, t.zero())


def test_generalized_partner_modes():
    t = gf.build_tower(2, 1, 6)
    U = _generalized_example(t, 3)
    assert generalized_partner(U, 3, t.one(), "trivial") == U
    W = generalized_partner(U, 3, t.one(), "perp_d")
    assert sets_equal(U, W, verify=True)
    # pseudoregulus mode needs a single inner monomial
    with pytest.raises(BadModeError):
        generalized_partner(U, 3, t.one(), "pseudoregulus", j=2)
    U1 = construct_generalized(LinearizedPolynomial.zero(t), [0, 1, 0],
                               t.one(), 3)
    W1 = generalized_partner(U1, 3, t.one(), "pseudoregulus", j=2)
    assert sets_equal(U1, W1, verify=True)
    with pytest.raises(BadModeError):
        generalized_partner(U1, 3, t.one(), "pseudoregulus", j=3)
    with pytest.raises(BadModeError):
        generalized_partner(U1, 3, t.one(), "nonsense")


def test_hyperplane_restriction_property():
    # equal sets + equal trace-hyperplane restrictions force W = (a/b) U
    t = gf.build_tower(2, 1, 4)
    rng = random.Random(3)
    for _ in range(10):
        f = random_poly(t, rng)
        U = graph_subspace(f)
        lam = rng.randrange(1, t.order)
        W = U.scale(lam)
        a = rng.randrange(1, t.order)
        b = t.div(a, lam)
        xs = [t.pow(t.x_int, j) for j in range(t.n)]

        def restrict(S, c):
            g = S.as_graph_poly()
            if g is None:
                vecs = [v for v in all_vectors(S)
                        if any(v) and t.trace_to(t.mul(c, v[0]), 1) == 0]
                return Subspace(t, 2, vecs)
            kern = [x for x in range(t.order)
                    if t.trace_to(t.mul(c, x), 1) == 0]
            return Subspace(t, 2, [(x, g.evaluate(x)) for x in kern])

        Up = restrict(U, a)
        Wp = restrict(W, b)
        assert Up.m == t.n - 1 and Wp.m == t.n - 1
        if sets_equal(U, W) and linear_set(Up).point_set() == linear_set(Wp).point_set():
            assert W == U.scale(t.div(a, b))


# ---------------------------------------------------------------------------
# F_{q^d}-lines
# ---------------------------------------------------------------------------

def test_fqd_lines():
    t = gf.build_tower(2, 1, 4)
    zero_graph = graph_subspace(LinearizedPolynomial.zero(t))
    lines = fqd_lines(zero_graph, 2)
    assert ((1, 0), 1) in lines
    # pseudoregulus: weights all 1, no F_{q^d}-line fits
    P = construct_pseudoregulus(t.one(), 1)
    assert fqd_lines(P, 2) == []
    with pytest.raises(NotADivisorError):
        fqd_lines(P, 3)
    with pytest.raises(NotADivisorError):
        fqd_lines(P, 1)
    # generalized construction: all heavy points of L_{U_d} show up
    t6 = gf.build_tower(2, 1, 6)
    U = _generalized_example(t6, 3)
    dec = decompose(U, 3, t6.one())
    found = {p for p, lam in fqd_lines(U, 3)}
    for p, w in linear_set(dec.u_d).points.items():
        if w >= 3:
            assert p in found
    # witnesses actually work
    for p, lam in fqd_lines(U, 3):
        members = all_vectors(U)
        for mu in t6.subfield_elements(3):
            scaled = tuple(t6.mul(t6.mul(lam, mu), c) for c in p)
            assert scaled in members


def test_dlinear_transfer_property():
    # if sets are equal and U has an F_{q^d}-line, so does the partner
    t = gf.build_tower(2, 1, 6)
    U = _generalized_example(t, 3)
    W = generalized_partner(U, 3, t.one(), "perp_d")
    assert sets_equal(U, W)
    if fqd_lines(U, 3):
        assert fqd_lines(W, 3)


# ---------------------------------------------------------------------------
# r = 3: multi-matrix coefficients and cones
# ---------------------------------------------------------------------------

def r3_graph(t, f0, f1):
    vecs = []
    xj = 1
    for _ in range(t.n):
        vecs.append((xj, 0, f0.evaluate(xj)))
        vecs.append((0, xj, f1.evaluate(xj)))
        xj = t.mul(xj, t.x_int)
    return Subspace(t, 3, vecs)


def test_multi_coeffs_r2_reduces_to_fingerprint():
    t = gf.build_tower(2, 1, 3)
    A = DicksonMatrix(t, [3, 5, 6])
    mc = multi_coeffs([A])
    fp = A.fingerprint()
    assert mc[(0, ())] == 1
    for mask in range(1, 8):
        size = bin(mask).count("1")
        assert mc[(mask, (0,) * size)] == fp[mask]
    assert len(mc) == 8


def test_multi_coeffs_equality_matches_point_sets_r3():
    t = gf.build_tower(2, 1, 2)
    rng = random.Random(7)
    pairs_seen = {True: 0, False: 0}
    for _ in range(60):
        f0, f1 = random_poly(t, rng), random_poly(t, rng)
        g0, g1 = random_poly(t, rng), random_poly(t, rng)
        U = r3_graph(t, f0, f1)
        W = r3_graph(t, g0, g1)
        mcU = multi_coeffs([DicksonMatrix.from_poly(f0),
                            DicksonMatrix.from_poly(f1)])
        mcW = multi_coeffs([DicksonMatrix.from_poly(g0),
                            DicksonMatrix.from_poly(g1)])
        same_sets = linear_set(U).point_set() == linear_set(W).point_set()
        assert (mcU == mcW) == same_sets
        pairs_seen[same_sets] += 1
    assert pairs_seen[False] > 0  # the sample distinguishes something
    with pytest.raises(TooLargeError):
        multi_coeffs([DicksonMatrix(t, [1, 1])] * 4)
    big = gf.build_tower(2, 1, FINGERPRINT_BOUND + 1)
    with pytest.raises(TooLargeError):
        multi_coeffs([DicksonMatrix(big, [1] * big.n)])


def test_is_cone_r3():
    t = gf.build_tower(2, 1, 3)
    # U = {(x, y, x^q + c y)}: cone with vertex (0, 1, c)
    for c in (1, 3):
        vecs = []
        xj = 1
        for _ in range(t.n):
            vecs.append((xj, 0, t.frobenius(xj, 1)))
            vecs.append((0, xj, t.mul(c, xj)))
            xj = t.mul(xj, t.x_int)
        U = Subspace(t, 3, vecs)
        L = linear_set(U)
        assert is_cone_r3(L, (0, 1, c))
    # generic r = 3 graph is not a cone from a generic point of the set
    W = r3_graph(t, LinearizedPolynomial.monomial(t, 1, 1),
                 LinearizedPolynomial.monomial(t, 1, 2))
    Lw = linear_set(W)
    results = {is_cone_r3(Lw, p) for p in Lw.sorted_points()}
    assert False in results
    with pytest.raises(VertexNotInSetError):
        is_cone_r3(Lw, (0, 0, 1)) if (0, 0, 1) not in Lw.point_set() \
            else is_cone_r3(Lw, (1, 1, 1) if (1, 1, 1) not in Lw.point_set() else (0, 1, 0))
    with pytest.raises(ValueError):
        is_cone_r3(linear_set(graph_subspace(LinearizedPolynomial.zero(t))), (1, 0))


# ---------------------------------------------------------------------------
# set-level field of linearity
# ---------------------------------------------------------------------------

def test_set_linearity():
    t = gf.build_tower(2, 1, 4)
    # x^(q^2) is F_(q^2)-linear: the subspace is closed under F_4 scalars
    U2 = graph_subspace(LinearizedPolynomial.monomial(t, 1, 2))
    assert set_linearity(U2) == (2, True)
    # x^q is strictly F_q-linear, and no F_4- or F_16-subspace can match
    U1 = graph_subspace(LinearizedPolynomial.monomial(t, 1, 1))
    assert set_linearity(U1) == (1, True)
    # scalar graphs are whole lines: d = n, exact
    U4 = graph_subspace(LinearizedPolynomial(t, [5]))
    assert set_linearity(U4) == (4, True)


def test_set_linearity_lower_bound_paths(monkeypatch):
    t = gf.build_tower(2, 1, 11)
    U = graph_subspace(LinearizedPolynomial.monomial(t, 1, 1))
    d, exact = set_linearity(U)
    assert d == 1 and exact is False  # field too big for the refutation search
    t4 = gf.build_tower(2, 1, 4)
    # 5 points fit an F_4-subspace of rank 4, so only the search refutes d = 2
    U5 = Subspace(t4, 2, [(15, 12), (6, 3), (15, 0)])
    assert len(linear_set(U5).points) == 5
    assert set_linearity(U5) == (1, True)
    monkeypatch.setattr(linset, "_REFUTE_NODE_BUDGET", 1)
    U5 = Subspace(t4, 2, [(15, 12), (6, 3), (15, 0)])
    d, exact = set_linearity(U5)
    assert d == 1 and exact is False  # budget too small to refute d = 2
    # the club's 9 points need rank 6 > (r-1)n = 4: refuted for any budget
    U1 = construct_club(t4.element(0), t4.element(1), t4.element(1))
    assert set_linearity(U1) == (1, True)


def _sum_feasible(q, d, n, npts):
    """The rank test without the (r-1)n bound: some multiple m of d with
    q^m - 1 a sum of npts terms q^(k*d) - 1, k*d <= n."""
    levels = [q ** (k * d) - 1 for k in range(1, n // d + 1)]
    m = d
    while q ** m - 1 <= npts * levels[-1]:
        sums = {0}
        for _ in range(npts):
            sums = {s + lv for s in sums for lv in levels if s + lv <= q ** m - 1}
        if q ** m - 1 in sums:
            return True
        m += d
    return False


RANK_BOUND_CASES = [((2, 1, 4), 2), ((2, 1, 6), 2), ((3, 1, 4), 2),
                    ((2, 1, 3), 3), ((2, 1, 4), 3)]


@st.composite
def _random_subspaces(draw):
    (p, e, n), r = draw(st.sampled_from(RANK_BOUND_CASES))
    t = gf.build_tower(p, e, n)
    # ranks near (r-1)n, where the bound and the sum test part ways
    k = draw(st.integers((r - 1) * n - 1, (r - 1) * n + 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return Subspace(t, r, [[rng.randrange(t.order) for _ in range(r)]
                           for _ in range(k)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_random_subspaces())
def test_rank_bound_refutes_only_what_the_search_refutes(U):
    t, r = U.tower, U.r
    L = linear_set(U)
    for d in linset._divisors(t.n)[1:]:
        npts = len(L.points)
        if _sum_feasible(t.q, d, t.n, npts) and not linset._rank_feasible(
                t.q, d, t.n, r, npts):
            assert linset._search_fqd_subspace(
                U, L, d, linset._REFUTE_NODE_BUDGET) is False


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_random_subspaces())
def test_rank_bound_keeps_every_fqd_subspace(U):
    # close a random F_q-subspace under F_(q^d) scalars: the bound must
    # still admit the linear set of the F_(q^d)-subspace it spans
    assume(U.m > 0)  # the rank test counts nonzero candidates only
    t, r = U.tower, U.r
    for d in linset._divisors(t.n)[1:]:
        etas = t.powers(t.subfield_generator(d), d)
        V = Subspace(t, r, [tuple(t.mul(eta, c) for c in v)
                            for v in U.basis for eta in etas])
        assert linset._rank_feasible(t.q, d, t.n, r, len(linear_set(V).points))


def test_fqn_shortcut_leaves_fqn_linear_sets_alone():
    # one point and the whole line are F_8-linear sets that U does not
    # span over F_8: the search must find the larger subspace
    t = gf.build_tower(2, 1, 3)
    point = Subspace(t, 2, [(1, 0)])
    line = Subspace(t, 2, [(xj, 0) for xj in t.power_basis] + [(0, 1)])
    assert len(linear_set(line).points) == t.order + 1
    assert set_linearity(point) == set_linearity(line) == (1, False)


def _bucket_reps(p, e, n):
    t = gf.build_tower(p, e, n)
    return [graph_subspace(poly_from_id(t, b["members"][0]))
            for b in bucket_search(p, e, n).buckets.values()]


@pytest.mark.parametrize("p, e, n", [(2, 1, 3), (3, 1, 3)])
def test_fqn_shortcut_agrees_with_enumeration(monkeypatch, p, e, n):
    reps = _bucket_reps(p, e, n)
    enumerated = []
    with monkeypatch.context() as m:
        m.setattr(linset, "linear_set",
                  lambda U: enumerated.append(U) or linear_set(U))
        fast = [set_linearity(U) for U in reps]
    fired = sum(linset._fqn_excluded(U, d) for U, (d, _) in zip(reps, fast))
    # at prime n every bucket is settled without enumerating its points
    assert fired == len(reps) and not enumerated
    monkeypatch.setattr(linset, "_fqn_excluded", lambda U, lower: False)
    assert fast == [set_linearity(U) for U in reps]


def test_canonical_point():
    t = gf.build_tower(2, 1, 3)
    assert canonical_point(t, (0, 5, 3)) == (0, 1, t.div(3, 5))
    assert canonical_point(t, (1, 4, 0)) == (1, 4, 0)
    with pytest.raises(ValueError):
        canonical_point(t, (0, 0))
