"""Tests for the twist's inverse _twist_scalar, against the reference scan
DicksonMatrix.diag_similar_scan and a loop over every unit of F_(q^s)."""

from hypothesis import given, settings, strategies as st

from linsetlab.dickson import DicksonMatrix
from linsetlab.gf import build_tower
from linsetlab.orbits import _twist_coeffs, _twist_scalar

# (p, e, n) and the length s | n of the coefficient vectors
CASES = [((2, 1, 6), 2), ((2, 1, 6), 3), ((2, 1, 6), 6), ((3, 1, 4), 2),
         ((3, 1, 4), 4), ((2, 2, 3), 3), ((5, 1, 3), 3)]


def unit_loop(t, a, b, s):
    """The first unit mu of F_(q^s), ascending, that twists a into b."""
    return next((mu for mu in t.subfield_elements(s)
                 if mu and _twist_coeffs(t, a, mu) == list(b)), None)


def check_against_references(t, a, b, s):
    lam = _twist_scalar(t, a, b)
    assert lam == unit_loop(t, a, b, s)
    if any(a) or any(b):  # the scan answers 1 for two zero vectors
        assert lam == DicksonMatrix(t, a).diag_similar_scan(DicksonMatrix(t, b))
    if lam is not None:
        assert lam and t.in_subfield(lam, s)
        assert _twist_coeffs(t, a, lam) == list(b)
    return lam


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), case=st.sampled_from(CASES),
       kind=st.sampled_from(["twist", "altered", "support", "scalar"]))
def test_twist_scalar_matches_the_scan_and_the_unit_loop(data, case, kind):
    # zeros come often, so that supports in dZ_s give stabilizers F_(q^d)^*
    # larger than F_q^* and the smallest of several roots must be chosen
    pen, s = case
    t = build_tower(*pen)
    units = [v for v in t.subfield_elements(s) if v]
    coeff = st.just(0) | st.sampled_from(units)
    if kind == "scalar":  # a = c*x: every lam fixes it
        a = [data.draw(st.sampled_from(units))] + [0] * (s - 1)
        b = [a[0] if data.draw(st.booleans())
             else data.draw(st.sampled_from(units))] + [0] * (s - 1)
        assert check_against_references(t, a, b, s) == (
            1 if b[0] == a[0] else None)
        return
    a = data.draw(st.lists(coeff, min_size=s, max_size=s))
    lam0 = data.draw(st.sampled_from(units))
    b = _twist_coeffs(t, a, lam0)
    if kind == "twist":
        lam = check_against_references(t, a, b, s)
        assert lam is not None and lam <= lam0
        return
    support = [i for i, c in enumerate(a) if c]
    if kind == "support":  # one coefficient switched on or off
        j = data.draw(st.integers(0, s - 1))
        b[j] = 0 if b[j] else data.draw(st.sampled_from(units))
        assert check_against_references(t, a, b, s) is None
        return
    # altered: one coefficient past the first index i >= 1 of the support,
    # which pins lam, gets another nonzero value; at index 0 no twist fits
    pivot = next((i for i in support if i), None)
    rest = [i for i in support if i != pivot]
    if not rest:
        return
    j = data.draw(st.sampled_from(rest))
    b[j] = data.draw(st.sampled_from([u for u in units if u != b[j]]))
    lam = check_against_references(t, a, b, s)
    assert lam is None or j > 0


def test_twist_scalar_support_cases():
    t = build_tower(2, 1, 6)
    assert _twist_scalar(t, [0] * 6, [0] * 6) == 1
    assert _twist_scalar(t, [5, 0, 0, 0, 0, 0], [5, 0, 0, 0, 0, 0]) == 1
    assert _twist_scalar(t, [5, 0, 0, 0, 0, 0], [6, 0, 0, 0, 0, 0]) is None
    assert _twist_scalar(t, [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]) is None
    # x^(q^2) + x^(q^4) is linear over F_(q^2): its twist by lam is also
    # its twist by every lam * F_4^*, and the smallest of those comes back
    a = [0, 0, 1, 0, 1, 0]
    for lam in range(1, t.order):
        got = _twist_scalar(t, a, _twist_coeffs(t, a, lam))
        assert got == min(t.mul(lam, u) for u in t.subfield_elements(2) if u)
