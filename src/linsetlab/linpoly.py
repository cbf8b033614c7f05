"""Linearized (q-)polynomials over F_{q^n}.

A linearized polynomial f(x) = sum_{i<n} a_i x^(q^i) with a_i in F_{q^n}
induces an F_q-linear map of F_{q^n} to itself, and every such map arises
from exactly one coefficient vector of length n.  Coefficients are stored
as packed element integers of the ambient FieldTower.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from . import linalg
from .errors import AmbientMismatchError, BadParametersError, ZeroScalarError
from .gf import FieldElement, FieldTower
from .orbits import _adjoint_coeffs, _id_coeffs, _support_gcd, _twist_coeffs


def _unwrap(tower: FieldTower, c) -> int:
    if isinstance(c, FieldElement):
        if c.tower != tower:
            raise AmbientMismatchError("value from a different tower")
        return c.val
    if type(c) is not int:  # int() would read 1.5, True and "3"
        raise BadParametersError(f"packed value {c!r} is not an int")
    if not 0 <= c < tower.order:
        raise ValueError(f"packed value {c} out of range [0, {tower.order})")
    return c


class LinearizedPolynomial:
    """f(x) = sum of coeffs[i] * x^(q^i), indices mod n."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Iterable = ()):
        vals = [_unwrap(tower, c) for c in coeffs]
        if len(vals) > tower.n:
            raise ValueError(f"at most n = {tower.n} coefficients allowed")
        vals += [0] * (tower.n - len(vals))
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, *a):
        raise AttributeError("LinearizedPolynomial is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def monomial(cls, tower: FieldTower, a, i: int) -> "LinearizedPolynomial":
        coeffs = [0] * tower.n
        coeffs[i % tower.n] = _unwrap(tower, a)
        return cls(tower, coeffs)

    @classmethod
    def zero(cls, tower: FieldTower) -> "LinearizedPolynomial":
        return cls(tower, ())

    @classmethod
    def identity(cls, tower: FieldTower) -> "LinearizedPolynomial":
        return cls.monomial(tower, 1, 0)

    # -- basic queries ---------------------------------------------------------

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_monomial(self) -> bool:
        return len(self.support) == 1

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, v: int) -> int:
        """Value at a packed element."""
        t = self.tower
        add, frob, mul = t.add, t.frobenius, t.mul
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a:
                acc = add(acc, mul(a, frob(v, i)))
        return acc

    def __call__(self, x: Union[FieldElement, int]) -> Union[FieldElement, int]:
        v = self.evaluate(_unwrap(self.tower, x))
        return FieldElement(self.tower, v) if isinstance(x, FieldElement) else v

    # -- the induced F_q-linear map ----------------------------------------------

    def map_rank(self) -> int:
        """Rank over F_q of the induced linear map of F_{q^n}."""
        t = self.tower
        rows = [t.q_coords(self.evaluate(xj)) for xj in t.power_basis]
        return linalg.rank(t, rows)

    def kernel_dim(self) -> int:
        return self.tower.n - self.map_rank()

    def kernel_elements(self) -> List[int]:
        """All packed roots of f (an F_q-subspace of F_{q^n})."""
        t = self.tower
        # columns indexed by basis x^j, rows by coordinates of the images
        cols = [t.q_coords(self.evaluate(xj)) for xj in t.power_basis]
        rows = [[cols[j][i] for j in range(t.n)] for i in range(t.n)]
        basis = linalg.nullspace(t, rows, t.n)
        return sorted(t.span([t.from_q_coords(vec) for vec in basis]))

    # -- structural operations ------------------------------------------------------

    def adjoint(self) -> "LinearizedPolynomial":
        """The trace-dual polynomial: Tr(y * f(x)) = Tr(adjoint(f)(y) * x)."""
        return LinearizedPolynomial(
            self.tower, _adjoint_coeffs(self.tower, self.coeffs))

    def compose(self, other: "LinearizedPolynomial") -> "LinearizedPolynomial":
        """self after other, reduced by x^(q^n) = x."""
        t = self.tower
        if other.tower != t:
            raise AmbientMismatchError("operands from different towers")
        n = t.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    k = (i + j) % n
                    out[k] = t.add(out[k], t.mul(a, t.frobenius(b, i)))
        return LinearizedPolynomial(t, out)

    def twist(self, lam) -> "LinearizedPolynomial":
        """Coefficient-wise scaling g_i = a_i * lam^(q^i - 1), so that the
        graph of g is the graph of f scaled by 1/lam on both coordinates."""
        t = self.tower
        lv = _unwrap(t, lam)
        if lv == 0:
            raise ZeroScalarError("twist scalar must be nonzero")
        return LinearizedPolynomial(t, _twist_coeffs(t, self.coeffs, lv))

    def linearity_gcd(self) -> int:
        """Largest divisor d of n with f linear over F_{q^d}: the gcd of n
        and all nonzero support indices >= 1 (n when the support is in {0})."""
        return _support_gcd(self.coeffs)

    # -- ring-ish arithmetic ------------------------------------------------------------

    def add(self, other: "LinearizedPolynomial") -> "LinearizedPolynomial":
        t = self.tower
        if other.tower != t:
            raise AmbientMismatchError("operands from different towers")
        return LinearizedPolynomial(
            t, [t.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def sub(self, other: "LinearizedPolynomial") -> "LinearizedPolynomial":
        t = self.tower
        if other.tower != t:
            raise AmbientMismatchError("operands from different towers")
        return LinearizedPolynomial(
            t, [t.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "LinearizedPolynomial":
        """Left scalar multiple (c*f)(x) = c * f(x)."""
        t = self.tower
        cv = _unwrap(t, c)
        return LinearizedPolynomial(t, [t.mul(cv, a) for a in self.coeffs])

    __add__ = add
    __sub__ = sub

    def __neg__(self) -> "LinearizedPolynomial":
        t = self.tower
        return LinearizedPolynomial(t, [t.neg(a) for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearizedPolynomial)
                and self.tower == other.tower and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.tower.order))

    # -- serialization --------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [list(self.tower.coeffs_of(a)) for a in self.coeffs]}

    def __repr__(self) -> str:
        t = self.tower
        body = " + ".join(f"{list(t.coeffs_of(a))}*x^(q^{i})" if i else
                          f"{list(t.coeffs_of(a))}*x"
                          for i, a in enumerate(self.coeffs) if a) or "0"
        return f"LinearizedPolynomial({body})"


def from_json(tower: FieldTower, obj: dict) -> LinearizedPolynomial:
    return LinearizedPolynomial(
        tower, [tower.from_coeffs(c).val for c in obj["coeffs"]])


def poly_from_id(tower: FieldTower, poly_id: int) -> LinearizedPolynomial:
    return LinearizedPolynomial(tower, _id_coeffs(tower, poly_id))


def poly_to_id(f: LinearizedPolynomial) -> int:
    o = f.tower.order
    v = 0
    for a in reversed(f.coeffs):
        v = v * o + a
    return v
