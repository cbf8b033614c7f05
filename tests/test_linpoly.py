"""Unit tests for linearized polynomials, checked against direct evaluation
oracles and exhaustive enumeration in small fields."""

import math
import random

import pytest

from linsetlab import gf
from linsetlab.errors import (
    AmbientMismatchError,
    BadParametersError,
    ZeroScalarError,
)
from linsetlab.linpoly import (
    LinearizedPolynomial,
    _adjoint_coeffs,
    _twist_coeffs,
    from_json,
    poly_from_id,
    poly_to_id,
)


def oracle_eval(tower, coeffs, v):
    """sum a_i * v^(q^i), recomputed with plain powers."""
    acc = 0
    for i, a in enumerate(coeffs):
        term = tower.mul(a, tower.pow(v, tower.q ** i))
        acc = tower.add(acc, term)
    return acc


def random_poly(tower, rng):
    return LinearizedPolynomial(
        tower, [rng.randrange(tower.order) for _ in range(tower.n)])


def test_evaluation_matches_power_oracle():
    rng = random.Random(101)
    for p, e, n in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
        t = gf.build_tower(p, e, n)
        for _ in range(40):
            f = random_poly(t, rng)
            for v in range(t.order):
                assert f.evaluate(v) == oracle_eval(t, f.coeffs, v)


def test_induced_map_is_fq_linear():
    t = gf.build_tower(2, 2, 2)  # q = 4
    rng = random.Random(5)
    f_q = t.subfield_elements(1)
    for _ in range(30):
        f = random_poly(t, rng)
        for _ in range(30):
            x = rng.randrange(t.order)
            y = rng.randrange(t.order)
            c = rng.choice(f_q)
            assert f.evaluate(t.add(x, y)) == t.add(f.evaluate(x), f.evaluate(y))
            assert f.evaluate(t.mul(c, x)) == t.mul(c, f.evaluate(x))


def test_map_rank_counts_kernel_exhaustively():
    rng = random.Random(13)
    for p, e, n in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
        t = gf.build_tower(p, e, n)
        for _ in range(60):
            f = random_poly(t, rng)
            zeros = sum(1 for v in range(t.order) if f.evaluate(v) == 0)
            assert zeros == t.q ** f.kernel_dim()
            assert f.map_rank() + f.kernel_dim() == n
        zero = LinearizedPolynomial.zero(t)
        assert zero.map_rank() == 0 and zero.kernel_dim() == n
        ident = LinearizedPolynomial.identity(t)
        assert ident.map_rank() == n


def test_kernel_elements_are_exactly_the_roots():
    rng = random.Random(29)
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(25):
            f = random_poly(t, rng)
            want = sorted(v for v in range(t.order) if f.evaluate(v) == 0)
            assert f.kernel_elements() == want


def test_adjoint_trace_pairing_identity():
    for p, e, n in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
        t = gf.build_tower(p, e, n)
        rng = random.Random(7)
        for _ in range(25):
            f = random_poly(t, rng)
            fa = f.adjoint()
            for _ in range(40):
                x = rng.randrange(t.order)
                y = rng.randrange(t.order)
                lhs = t.trace_to(t.mul(y, f.evaluate(x)), 1)
                rhs = t.trace_to(t.mul(fa.evaluate(y), x), 1)
                assert lhs == rhs
            assert fa.adjoint() == f  # involution


def test_adjoint_coefficient_formula_spot_check():
    t = gf.build_tower(2, 1, 4)
    f = LinearizedPolynomial(t, [3, 5, 0, 7])
    fa = f.adjoint()
    n = t.n
    for k in range(n):
        assert fa.coeffs[k] == t.frobenius(f.coeffs[(n - k) % n], k)


def test_compose_agrees_with_pointwise_composition():
    rng = random.Random(19)
    for p, e, n in [(2, 1, 3), (3, 1, 2), (2, 1, 5)]:
        t = gf.build_tower(p, e, n)
        for _ in range(40):
            f = random_poly(t, rng)
            g = random_poly(t, rng)
            h = f.compose(g)
            for v in range(t.order):
                assert h.evaluate(v) == f.evaluate(g.evaluate(v))
    # adjoint is an antihomomorphism for composition
    t = gf.build_tower(2, 1, 4)
    f, g = random_poly(t, rng), random_poly(t, rng)
    assert f.compose(g).adjoint() == g.adjoint().compose(f.adjoint())


def test_twist_scales_the_graph():
    t = gf.build_tower(2, 1, 3)
    rng = random.Random(3)
    for _ in range(25):
        f = random_poly(t, rng)
        lam = rng.randrange(1, t.order)
        g = f.twist(lam)
        il = t.inv(lam)
        graph_g = {(v, g.evaluate(v)) for v in range(t.order)}
        scaled = {(t.mul(il, v), t.mul(il, f.evaluate(v))) for v in range(t.order)}
        assert graph_g == scaled
    with pytest.raises(ZeroScalarError):
        f.twist(0)
    # twisting by 1 is the identity operation; twists compose multiplicatively
    f = random_poly(t, rng)
    assert f.twist(1) == f
    a, b = 3, 5
    assert f.twist(a).twist(b) == f.twist(t.mul(a, b))


@pytest.mark.parametrize("pen", [(2, 1, 6), (2, 2, 3)])
def test_twist_and_adjoint_coeffs_on_every_length_dividing_n(pen):
    t = gf.build_tower(*pen)
    rng = random.Random(sum(pen))
    for s in (d for d in range(1, t.n + 1) if t.n % d == 0):
        sub = t.subfield_elements(s)
        for _ in range(30):
            cs = [rng.choice(sub) if rng.random() < 0.8 else 0 for _ in range(s)]
            lam = rng.choice(sub[1:])
            assert _twist_coeffs(t, cs, lam) == [
                t.mul(a, t.pow(lam, t.q ** i - 1)) for i, a in enumerate(cs)]
            adj = _adjoint_coeffs(t, cs)
            assert adj == [t.pow(cs[(s - k) % s], t.q ** k) for k in range(s)]
            assert all(t.in_subfield(b, s) for b in adj)
            assert _adjoint_coeffs(t, adj) == cs


def test_linearity_gcd_examples_and_meaning():
    t6 = gf.build_tower(2, 1, 6)
    f = LinearizedPolynomial(t6, [0, 0, 1, 0, 1, 0])  # x^(q^2) + x^(q^4)
    assert f.linearity_gcd() == 2
    assert LinearizedPolynomial(t6, [0, 0, 0, 1, 0, 0]).linearity_gcd() == 3
    assert LinearizedPolynomial(t6, [0, 1, 0, 0, 0, 0]).linearity_gcd() == 1
    assert LinearizedPolynomial(t6, [5, 0, 0, 0, 0, 0]).linearity_gcd() == 6
    assert LinearizedPolynomial.zero(t6).linearity_gcd() == 6
    # meaning: f commutes with scalars of F_{q^d} exactly when d | linearity_gcd
    t = gf.build_tower(2, 1, 6)
    f = LinearizedPolynomial(t, [0, 0, 3, 0, 7, 0])
    d = f.linearity_gcd()
    for c in t.subfield_elements(d):
        for v in (1, 5, 9, 44):
            assert f.evaluate(t.mul(c, v)) == t.mul(c, f.evaluate(v))


def test_arithmetic_and_validation():
    t = gf.build_tower(2, 1, 3)
    f = LinearizedPolynomial(t, [1, 2])
    g = LinearizedPolynomial(t, [0, 2, 5])
    assert (f + g).coeffs == (1, 0, 5)
    assert (f - g).coeffs == (1, 0, 5)  # characteristic 2
    assert (-f) == f
    assert f.scale(3).evaluate(4) == t.mul(3, f.evaluate(4))
    assert f.support == (0, 1) and g.support == (1, 2)
    assert LinearizedPolynomial.monomial(t, 5, 2).coeffs == (0, 0, 5)
    assert not f.is_monomial() and LinearizedPolynomial.monomial(t, 5, 2).is_monomial()
    with pytest.raises(ValueError):
        LinearizedPolynomial(t, [1, 2, 3, 4])
    other = gf.build_tower(2, 1, 4)
    with pytest.raises(AmbientMismatchError):
        f.add(LinearizedPolynomial(other, [1]))
    with pytest.raises(AmbientMismatchError):
        f(other.x())


def test_field_element_coefficients_and_call():
    t = gf.build_tower(2, 1, 3)
    x = t.x()
    f = LinearizedPolynomial(t, [x, t.one()])
    assert f.coeffs == (t.x_int, 1)[:2] + (0,)
    val = f(x)
    assert isinstance(val, gf.FieldElement)
    assert val.val == f.evaluate(t.x_int)


def test_packed_values_must_be_ints_or_field_elements():
    # int() would read 1.5 as 1, True as 1 and "3" as 3
    t = gf.build_tower(2, 1, 3)
    for bad in (1.5, True, "3"):
        with pytest.raises(BadParametersError, match="not an int"):
            LinearizedPolynomial(t, [1, bad])
        with pytest.raises(BadParametersError, match="not an int"):
            LinearizedPolynomial.monomial(t, bad, 1)
    assert LinearizedPolynomial(t, [t.x(), 0, 3]).coeffs == (t.x_int, 0, 3)
    assert LinearizedPolynomial.monomial(t, t.x(), 1).coeffs == (0, t.x_int, 0)
    assert LinearizedPolynomial.monomial(t, 7, 2).coeffs == (0, 0, 7)


def test_call_refuses_values_that_are_not_field_elements():
    # int() read 1.5 and True as 1 and "3" as 3; 99 ended in an IndexError
    t = gf.build_tower(2, 1, 4)
    f = LinearizedPolynomial.monomial(t, 1, 1)  # x^q
    for bad in (1.5, True, "3"):
        with pytest.raises(BadParametersError, match="not an int"):
            f(bad)
    for bad in (99, t.order, -1):
        with pytest.raises(ValueError, match="out of range"):
            f(bad)
    with pytest.raises(AmbientMismatchError):
        f(gf.build_tower(2, 1, 3).x())
    assert [f(v) for v in range(t.order)] == [t.mul(v, v) for v in range(t.order)]
    assert f(t.x()) == t.x() * t.x()


def test_json_and_id_roundtrips():
    t = gf.build_tower(3, 1, 2)
    rng = random.Random(43)
    for _ in range(50):
        f = random_poly(t, rng)
        assert from_json(t, f.to_json()) == f
        assert poly_from_id(t, poly_to_id(f)) == f
    # id encoding is little-endian in the coefficient index
    f = poly_from_id(t, 5 + 7 * t.order)
    assert f.coeffs == (5, 7)
    assert poly_to_id(f) == 5 + 7 * t.order
    with pytest.raises(ValueError):
        poly_from_id(t, t.order ** t.n)
