"""Unit tests for the field-tower kernel.

Expected values are produced by small self-contained oracles written here
(naive polynomial arithmetic, trial-division irreducibility, exhaustive
enumeration), not by the library under test.
"""

import itertools
import random

import pytest

from linsetlab import gf, linalg
from linsetlab.classify import bucket_search
from linsetlab.errors import (
    AmbientMismatchError,
    BadParametersError,
    NonPrimeError,
    NotADivisorError,
    TooLargeError,
)


# ---------------------------------------------------------------------------
# local oracles
# ---------------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _trim(prod)


def poly_mod(a, mod, p):
    """a mod (monic) mod, naive long division."""
    r = list(a)
    dm = len(mod) - 1
    while len(_trim(r)) - 1 >= dm:
        r = _trim(r)
        c = r[-1]
        shift = len(r) - 1 - dm
        for j, mj in enumerate(mod):
            r[shift + j] = (r[shift + j] - c * mj) % p
    return _trim(r)


def naive_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not poly_mod(poly, div, p):
                return False
    return True


def oracle_first_irreducible(p, m):
    """First monic irreducible of degree m, constant term nonzero, in
    low-to-high-degree lexicographic coefficient order."""
    for tail in itertools.product(range(p), repeat=m):
        if tail[0] == 0:
            continue
        poly = list(tail) + [1]
        if naive_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("oracle found no irreducible")


def oracle_mul(tower, a, b):
    """Field product recomputed from scratch via naive polynomial reduction."""
    pa = _trim(tower.coeffs_of(a))
    pb = _trim(tower.coeffs_of(b))
    red = poly_mod(poly_mul(pa, pb, tower.p), list(tower.modulus), tower.p)
    red += [0] * (tower.m - len(red))
    v = 0
    for d in reversed(red):
        v = v * tower.p + d
    return v


# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------

CANONICAL_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                   (3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,m", CANONICAL_CASES)
def test_canonical_modulus_matches_bruteforce_oracle(p, m):
    assert gf.canonical_modulus(p, m) == oracle_first_irreducible(p, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_modulus_walks_the_same_order_from_constant_term_one(p):
    # the search starts at constant term 1 instead of stepping over the
    # p^(m-1) tuples with constant term 0, and finds the same polynomial
    def one_at_a_time(p, m):
        for tail in itertools.product(range(p), repeat=m):
            if tail[0] and gf._poly_is_irreducible(list(tail) + [1], p):
                return tuple(tail) + (1,)

    for m in range(1, 7):
        assert gf.canonical_modulus(p, m) == one_at_a_time(p, m)


def test_canonical_modulus_of_a_large_degree_is_quick():
    # (2,15,2) needs a degree-30 modulus, 2^29 tuples past constant term 0
    rep = bucket_search(2, 15, 2, sample=5)
    assert rep.params["visited"] == 5
    assert gf.build_tower(2, 15, 2).modulus == gf.canonical_modulus(2, 30)


def test_degree_one_canonical_modulus_is_x_plus_one():
    # the nonzero-constant-term rule excludes x itself
    assert gf.canonical_modulus(2, 1) == (1, 1)
    assert gf.canonical_modulus(3, 1) == (1, 1)
    assert gf.canonical_modulus(5, 1) == (1, 1)


def test_constructor_validation():
    with pytest.raises(NonPrimeError):
        gf.FieldTower(4, 1, 2)
    with pytest.raises(NonPrimeError):
        gf.FieldTower(1, 1, 2)
    with pytest.raises(ValueError):
        gf.FieldTower(2, 0, 2)
    with pytest.raises(TooLargeError):
        gf.FieldTower(2, 1, 65)
    with pytest.raises(ValueError):
        gf.FieldTower(2, 1, 4, modulus=(1, 1, 0, 0, 2))  # not monic
    with pytest.raises(ValueError):
        gf.FieldTower(2, 1, 4, modulus=(1, 0, 0, 0, 1))  # (x+1)^4, reducible
    with pytest.raises(ValueError):
        gf.FieldTower(2, 1, 4, modulus=(1, 1, 1))  # wrong degree


def test_modulus_digits_outside_the_prime_field_are_refused():
    # reduced mod p, 3,1,1 would pass at p = 2 as x^2 + x + 1, and a
    # leading 4 (or a digit -1) at p = 3 as x^2 + 2x + 2, monic
    for p, modulus in ((2, (3, 1, 1)), (3, (2, 2, 4)), (3, (-1, 2, 1))):
        with pytest.raises(BadParametersError, match="digits"):
            gf.FieldTower(p, 1, 2, modulus=modulus)
        with pytest.raises(BadParametersError, match="digits"):
            gf.build_tower(p, 1, 2, modulus=modulus)
    assert gf.build_tower(3, 1, 2, modulus=(2, 2, 1)).modulus == (2, 2, 1)


@pytest.mark.parametrize("digits", [
    [1.5, 1, 0, 1],  # int() would read x^3 + x + 1
    [1.0, 1, 0, 1],
    [True, True, False, True],
    ["1", "1", "0", "1"],
    "1101",
])
def test_modulus_digits_must_be_integers(digits):
    # a modulus digit is an int: floats, booleans and strings are refused,
    # not truncated or read, by the tower and by build_tower's cache key
    with pytest.raises(BadParametersError, match="integers"):
        gf.FieldTower(2, 1, 3, modulus=digits)
    with pytest.raises(BadParametersError, match="integers"):
        gf.build_tower(2, 1, 3, modulus=digits)
    assert gf.build_tower(2, 1, 3, modulus=[1, 1, 0, 1]).modulus == (1, 1, 0, 1)


def test_custom_modulus_arithmetic():
    t = gf.build_tower(2, 1, 4, modulus=(1, 1, 0, 0, 1))  # x^4 + x + 1
    x = t.x_int
    assert t.pow(x, 4) == t.add(x, 1)
    for a in range(1, 16):
        assert t.mul(a, t.inv(a)) == 1


# ---------------------------------------------------------------------------
# ring structure against the polynomial oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_multiplication_matches_polynomial_oracle_exhaustively(p, e, n):
    t = gf.build_tower(p, e, n)
    for a in range(t.order):
        for b in range(t.order):
            assert t.mul(a, b) == oracle_mul(t, a, b)


@pytest.mark.parametrize("p,e,n", [(2, 1, 8), (3, 1, 5), (3, 1, 7), (5, 1, 3)])
def test_multiplication_matches_polynomial_oracle_sampled(p, e, n):
    t = gf.build_tower(p, e, n)
    rng = random.Random(20260814)
    for _ in range(300):
        a = rng.randrange(t.order)
        b = rng.randrange(t.order)
        assert t.mul(a, b) == oracle_mul(t, a, b)


def test_addition_paths_agree_with_digitwise_oracle():
    rng = random.Random(7)
    for p, e, n in [(2, 1, 6), (3, 1, 3), (3, 1, 7), (5, 1, 2)]:
        t = gf.build_tower(p, e, n)
        for _ in range(200):
            a = rng.randrange(t.order)
            b = rng.randrange(t.order)
            expect = t._undigits([(x + y) % p
                                  for x, y in zip(t._digits(a), t._digits(b))])
            assert t.add(a, b) == expect
            assert t.add(t.neg(a), a) == 0
            assert t.sub(a, b) == t.add(a, t.neg(b))


@pytest.mark.parametrize("pen", [(3, 1, 3), (5, 1, 3), (3, 2, 2), (3, 1, 1),
                                 (5, 1, 1), (7, 1, 2), (3, 1, 5), (31, 1, 2)])
def test_add_rows_agree_with_the_digit_route_on_every_pair(pen):
    # odd p at order up to _ADD_TABLE_CAP stores a + b as _add_rows[a][b],
    # which the shift tables also read: every pair (every 7th row at
    # (31,1,2)), both operations, and every negation; the rows share at
    # most order int objects
    t, step = gf.build_tower(*pen), 7 if pen == (31, 1, 2) else 1
    assert t.add == t._add_table and len(t._add_rows) == t.order
    for a in range(0, t.order, step):
        assert len(t._add_rows[a]) == t.order
        for b in range(t.order):
            assert t._add_table(a, b) == t._add_digits(a, b)
            assert t._sub_table(a, b) == t._sub_digits(a, b)
    assert [t._neg_table(a) for a in range(t.order)] == \
        [t._neg_digits(a) for a in range(t.order)]
    assert len({id(v) for row in t._add_rows for v in row}) <= t.order


def test_towers_above_the_add_table_cap_keep_the_digit_route():
    t = gf.build_tower(3, 1, 7)
    assert t.order > gf._ADD_TABLE_CAP and t._add_rows is None
    assert (t.add, t.sub, t.neg) == (t._add_digits, t._sub_digits, t._neg_digits)
    assert t.add(t.neg(1234), 1234) == 0 and (t.add(1, 2), t.add(3, 4)) == (0, 7)


def test_division_and_inverses():
    t = gf.build_tower(3, 1, 3)
    for a in range(1, t.order):
        assert t.mul(a, t.inv(a)) == 1
    for a in range(t.order):
        for b in range(1, t.order):
            assert t.mul(t.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        t.inv(0)
    with pytest.raises(ZeroDivisionError):
        t.div(5, 0)


def test_pow_edge_cases_and_consistency():
    t = gf.build_tower(2, 1, 4)
    assert t.pow(0, 0) == 1
    assert t.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        t.pow(0, -1)
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randrange(1, t.order)
        k = rng.randrange(0, 40)
        acc = 1
        for _ in range(k):
            acc = t.mul(acc, a)
        assert t.pow(a, k) == acc
        assert t.mul(t.pow(a, -k), acc) == 1
    # exponents reduce mod order-1 on nonzero elements
    assert all(t.pow(a, t.order - 1) == 1 for a in range(1, t.order))


# ---------------------------------------------------------------------------
# Frobenius, trace, norm, subfields
# ---------------------------------------------------------------------------

def test_frobenius_is_an_automorphism_of_order_n():
    for p, e, n in [(2, 1, 4), (2, 2, 3), (3, 1, 4)]:
        t = gf.build_tower(p, e, n)
        rng = random.Random(3)
        for _ in range(150):
            a = rng.randrange(t.order)
            b = rng.randrange(t.order)
            assert t.frobenius(t.add(a, b), 1) == t.add(t.frobenius(a, 1),
                                                        t.frobenius(b, 1))
            assert t.frobenius(t.mul(a, b), 1) == t.mul(t.frobenius(a, 1),
                                                        t.frobenius(b, 1))
            assert t.frobenius(a, n) == a
            j, k = rng.randrange(2 * n), rng.randrange(2 * n)
            assert t.frobenius(t.frobenius(a, j), k) == t.frobenius(a, j + k)
            assert t.frobenius(a, 1) == t.pow(a, t.q)


def test_frobenius_fixed_points_are_exactly_the_base_subfield():
    t = gf.build_tower(2, 2, 3)  # q = 4, big field of order 64
    fixed = [a for a in range(t.order) if t.frobenius(a, 1) == a]
    assert len(fixed) == t.q
    assert sorted(fixed) == list(t.subfield_elements(1))


def test_trace_values_kernel_and_linearity():
    t = gf.build_tower(2, 1, 4)
    values = [t.trace_to(a, 1) for a in range(t.order)]
    assert set(values) <= {0, 1}
    assert values.count(0) == t.order // t.q  # kernel has size q^(n-1)
    t2 = gf.build_tower(2, 2, 2)  # q = 4
    f_q = t2.subfield_elements(1)
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randrange(t2.order)
        b = rng.randrange(t2.order)
        assert t2.trace_to(a, 1) in f_q
        assert t2.trace_to(t2.add(a, b), 1) == t2.add(t2.trace_to(a, 1),
                                                      t2.trace_to(b, 1))
        c = rng.choice(f_q)
        assert t2.trace_to(t2.mul(c, a), 1) == t2.mul(c, t2.trace_to(a, 1))
    # intermediate trace lands in the intermediate field
    t3 = gf.build_tower(2, 1, 6)
    for a in range(t3.order):
        assert t3.in_subfield(t3.trace_to(a, 2), 2)
        assert t3.in_subfield(t3.trace_to(a, 3), 3)
    with pytest.raises(NotADivisorError):
        t3.trace_to(1, 4)


def test_norm_kernel_size_and_multiplicativity():
    t = gf.build_tower(2, 2, 2)  # q = 4, norm onto F_4
    kernel = [a for a in range(1, t.order) if t.norm_to(a, 1) == 1]
    assert len(kernel) == (t.q ** t.n - 1) // (t.q - 1)  # 5 here
    f_q = set(t.subfield_elements(1))
    rng = random.Random(17)
    for _ in range(100):
        a = rng.randrange(t.order)
        b = rng.randrange(t.order)
        assert t.norm_to(a, 1) in f_q
        assert t.norm_to(t.mul(a, b), 1) == t.mul(t.norm_to(a, 1), t.norm_to(b, 1))
    assert t.norm_to(0, 1) == 0


def test_subfield_enumeration_and_generators():
    t = gf.build_tower(2, 1, 6)
    for d in (1, 2, 3, 6):
        els = t.subfield_elements(d)
        assert len(els) == t.q ** d
        assert list(els) == sorted(els)
        # independent characterization: fixed points of x -> x^(q^d)
        assert set(els) == {a for a in range(t.order) if t.frobenius(a, d) == a}
        # closure
        sub = set(els)
        for a in list(els)[:8]:
            for b in list(els)[:8]:
                assert t.add(a, b) in sub and t.mul(a, b) in sub
        g = t.subfield_generator(d)
        seen = set()
        cur = 1
        for _ in range(t.q ** d - 1):
            seen.add(cur)
            cur = t.mul(cur, g)
        assert cur == 1 and len(seen) == t.q ** d - 1
    with pytest.raises(NotADivisorError):
        t.subfield_elements(4)


# ---------------------------------------------------------------------------
# F_q-coordinates
# ---------------------------------------------------------------------------

def test_q_coords_roundtrip_and_linearity():
    rng = random.Random(23)
    for p, e, n in [(2, 1, 5), (3, 1, 3), (2, 2, 3), (3, 2, 2)]:
        t = gf.build_tower(p, e, n)
        f_q = t.subfield_elements(1)
        for _ in range(80):
            v = rng.randrange(t.order)
            w = rng.randrange(t.order)
            cv = t.q_coords(v)
            assert len(cv) == n
            assert all(c in set(f_q) for c in cv)
            assert t.from_q_coords(cv) == v
            cw = t.q_coords(w)
            assert t.q_coords(t.add(v, w)) == tuple(t.add(a, b)
                                                    for a, b in zip(cv, cw))
            c = rng.choice(f_q)
            assert t.q_coords(t.mul(c, v)) == tuple(t.mul(c, a) for a in cv)
    # prime-field case: coordinates are just base-p digits
    t = gf.build_tower(3, 1, 3)
    for v in range(t.order):
        assert t.q_coords(v) == tuple(t._digits(v))


@pytest.mark.parametrize("pen", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2),
                                 (2, 11, 2)])
def test_q_coord_is_one_entry_of_q_coords(pen):
    t = gf.build_tower(*pen)
    if t.has_tables:
        vals = range(t.order)
    else:  # (2,11,2): order 2^22, above the log-table cap
        vals = random.Random(29).sample(range(t.order), 200)
    for v in vals:
        coords = t.q_coords(v)
        assert all(t.q_coord(v, j) == coords[j] for j in range(t.n))


def test_subfield_generator_without_log_tables():
    t = gf.build_tower(2, 11, 2)
    assert not t.has_tables
    g = t.subfield_generator(1)
    size = t.q - 1  # 2047 = 23 * 89
    assert t.frobenius(g, 1) == g
    assert t.pow(g, size) == 1
    assert t.pow(g, size // 23) != 1 and t.pow(g, size // 89) != 1
    with pytest.raises(TooLargeError):
        t.subfield_generator(2)


def test_q_coords_of_power_basis():
    t = gf.build_tower(2, 2, 3)
    xj = 1
    for j in range(t.n):
        coords = t.q_coords(xj)
        assert coords == tuple(1 if i == j else 0 for i in range(t.n))
        xj = t.mul(xj, t.x_int)
    for (p, e, n) in [(2, 1, 5), (2, 2, 3), (3, 2, 2)]:
        t = gf.build_tower(p, e, n)
        units = tuple(t.from_q_coords([int(i == j) for i in range(n)])
                      for j in range(n))
        assert t.power_basis == units


def test_span_of_independent_basis_has_q_to_the_k_elements():
    rng = random.Random(5)
    for (p, e, n) in [(2, 1, 4), (3, 1, 3), (2, 2, 3)]:
        t = gf.build_tower(p, e, n)
        for k in range(n + 1):
            basis = []
            while len(basis) < k:
                cand = rng.randrange(1, t.order)
                if gf.is_independent(basis + [cand], t):
                    basis.append(cand)
            span = t.span(basis)
            assert len(span) == len(set(span)) == t.q ** k
            assert 0 in span and all(b in span for b in basis)


def test_kth_roots_match_exhaustive_search():
    for (p, e, n) in [(2, 1, 4), (3, 1, 2)]:
        t = gf.build_tower(p, e, n)
        for k in (1, 2, 3, t.q ** 2 - 1, t.order - 1):
            for value in range(t.order):
                roots = t.kth_roots(value, k)
                brute = {x for x in range(1, t.order) if t.pow(x, k) == value}
                assert len(roots) == len(set(roots)) and set(roots) == brute
    # roots inside a proper subfield F_(q^d), as diag_similar asks for them
    t = gf.build_tower(2, 1, 6)
    for d in (2, 3):
        units = [x for x in t.subfield_elements(d) if x]
        for k in (1, 3, t.q ** (d - 1) - 1, t.q ** d - 1):
            for value in range(t.order):
                roots = t.kth_roots(value, k, d)
                brute = {x for x in units if t.pow(x, k) == value}
                assert len(roots) == len(set(roots)) and set(roots) == brute
    with pytest.raises(NotADivisorError):
        t.kth_roots(1, 1, 4)


# ---------------------------------------------------------------------------
# enumeration budget
# ---------------------------------------------------------------------------

def test_elements_budget(monkeypatch):
    t = gf.build_tower(2, 1, 4)
    monkeypatch.setenv("LINSETLAB_BUDGET", "10")
    with pytest.raises(TooLargeError):
        list(t.elements())
    monkeypatch.setenv("LINSETLAB_BUDGET", "16")
    els = list(t.elements())
    assert len(els) == 16 and els[0].val == 0 and els[-1].val == 15
    monkeypatch.delenv("LINSETLAB_BUDGET")
    assert gf.enumeration_budget() == gf.DEFAULT_ENUM_BUDGET


# ---------------------------------------------------------------------------
# FieldElement wrapper
# ---------------------------------------------------------------------------

def test_field_element_operators():
    t = gf.build_tower(2, 1, 2)
    x = t.x()
    one = t.one()
    assert x * x == x + one          # the canonical degree-2 modulus is x^2+x+1
    assert (x + 1) * x == 1          # and so x * (x+1) = x^2 + x = 1
    assert x ** 3 == one
    assert (x / x) == 1
    assert -x == x                   # characteristic 2
    assert bool(t.zero()) is False and bool(x) is True
    assert 1 + x == x + 1
    assert int is not type(x + 1)
    assert hash(x) == hash(t.element(x.val))
    assert x.inverse() * x == one
    with pytest.raises(AttributeError):
        x.val = 3


def test_field_element_tower_mismatch():
    a = gf.build_tower(2, 1, 2).x()
    b = gf.build_tower(2, 1, 3).x()
    with pytest.raises(AmbientMismatchError):
        _ = a + b


def test_field_element_json_roundtrip():
    t = gf.build_tower(3, 1, 3)
    for v in (0, 1, 5, 26):
        el = t.element(v)
        assert gf.element_from_json(t, el.to_json()) == el


def test_from_coeffs_and_descriptor():
    t = gf.build_tower(2, 1, 4)
    assert t.from_coeffs([1, 0, 1]).val == 5
    assert t.from_coeffs([]).val == 0
    with pytest.raises(ValueError):
        t.from_coeffs([1] * 5)
    # digits outside [0, p) are rejected, not reduced mod p
    for digits in ([2], [1, -1], [0, 0, 0, 7]):
        with pytest.raises(BadParametersError):
            t.from_coeffs(digits)
    # and digits that are not ints are refused, not truncated or read
    for digits in ([1.9, 0, 1], [1.0], [True], [False, True], ["1"], "101"):
        with pytest.raises(BadParametersError, match="integers"):
            t.from_coeffs(digits)
    d = t.descriptor()
    assert d == {"p": 2, "e": 1, "n": 4, "modulus": list(t.modulus)}
    assert gf.build_tower(d["p"], d["e"], d["n"], d["modulus"]) is t


# ---------------------------------------------------------------------------
# linear independence (dual-route)
# ---------------------------------------------------------------------------

def _oracle_rank_gf2(vectors):
    """Row rank of 0/1 tuples, computed locally."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a ^ b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_is_independent_against_local_rank_oracle():
    t = gf.build_tower(2, 1, 4)
    x = t.x()
    assert gf.is_independent([t.one(), x, x * x])
    assert not gf.is_independent([t.one(), x, x + 1])
    assert gf.is_independent([x ** j for j in range(4)])
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randrange(1, 5)
        vals = [rng.randrange(1, t.order) for _ in range(k)]
        got = gf.is_independent([t.element(v) for v in vals])
        want = _oracle_rank_gf2([t._digits(v) for v in vals]) == k
        assert got == want
    with pytest.raises(ValueError):
        gf.is_independent([])
    with pytest.raises(ValueError):
        gf.is_independent([t.one()] * 5)


def test_is_independent_refuses_values_that_are_not_field_elements():
    # int() read [1.5, 2.0] as [1, 2]; 99 ended in an IndexError
    t = gf.build_tower(2, 1, 4)
    for bad in ([1.5, 2.0], [True, 2], ["3", 2]):
        with pytest.raises(BadParametersError, match="not an int"):
            gf.is_independent(bad, t)
    for bad in ([99, 2], [2, t.order], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            gf.is_independent(bad, t)
    with pytest.raises(BadParametersError, match="not an int"):
        gf.is_independent([t.one(), 1.5])
    assert gf.is_independent([1, 2], t)
    assert gf.is_independent([1, t.x()])
    assert not gf.is_independent([t.order - 1, t.x(), t.order - 1])


def test_is_independent_over_nonprime_base():
    t = gf.build_tower(2, 2, 3)  # q = 4
    x = t.x()
    assert gf.is_independent([t.one(), x])
    # an F_4-multiple of 1 is dependent on 1 even though it is not an F_2-multiple
    u = t.element(t.subfield_generator(1))
    assert not gf.is_independent([t.one(), u])


# ---------------------------------------------------------------------------
# exact linear algebra helper module
# ---------------------------------------------------------------------------

def test_linalg_det_rank_nullspace_solve():
    t = gf.build_tower(3, 1, 2)
    # 2x2 determinant oracle: ad - bc
    rng = random.Random(41)
    for _ in range(200):
        a, b, c, d = (rng.randrange(t.order) for _ in range(4))
        want = t.sub(t.mul(a, d), t.mul(b, c))
        assert linalg.det(t, [[a, b], [c, d]]) == want
    # singular matrix has nontrivial nullspace and det 0
    rows = [[1, 2], [2, 4 % t.order]]
    assert linalg.det(t, [[1, 2], [2, t.mul(2, 2)]]) == t.sub(t.mul(1, t.mul(2, 2)), t.mul(2, 2))
    ns = linalg.nullspace(t, [[1, 1], [1, 1]], 2)
    assert len(ns) == 1
    v = ns[0]
    assert t.add(v[0], v[1]) == 0 and any(v)
    # solve
    sol = linalg.solve(t, [[1, 1], [0, 1]], [2, 1])
    assert sol is not None
    assert t.add(sol[0], sol[1]) == 2 and sol[1] == 1
    assert linalg.solve(t, [[1, 1], [1, 1]], [1, 2]) is None
    assert linalg.det(t, []) == 1
    assert linalg.rank(t, [[0, 0], [0, 0]]) == 0
