"""Exact arithmetic in a tower of finite fields F_p <= F_q <= F_{q^d} <= F_{q^n}.

One "big" field of order p^(e*n) hosts the whole tower; q = p^e, and each
intermediate field F_{q^d} (d | n) is the fixed set of x -> x^(q^d).  An
element is stored as a plain integer packing its little-endian base-p
coefficient vector with respect to the power basis of a fixed monic
irreducible modulus over F_p.  The integer kernel (FieldTower methods on
ints) is what search loops use; FieldElement is a thin value wrapper with
operator overloading for everyday work.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import linalg
from .errors import (
    AmbientMismatchError,
    BadParametersError,
    NonPrimeError,
    NotADivisorError,
    TooLargeError,
)

DEFAULT_ENUM_BUDGET = 2 ** 20
ARITHMETIC_CAP = 2 ** 64
_TABLE_CAP = 2 ** 20
_ADD_TABLE_CAP = 2 ** 10


def enumeration_budget() -> int:
    """Element-enumeration budget; override with env var LINSETLAB_BUDGET."""
    raw = os.environ.get("LINSETLAB_BUDGET")
    try:
        budget = int(raw) if raw else DEFAULT_ENUM_BUDGET
    except ValueError:
        budget = 0
    if budget < 1:
        raise BadParametersError(
            f"LINSETLAB_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _int_digits(values: Iterable, what: str) -> Tuple[int, ...]:
    """values as a tuple; floats, bools and strings are refused, not read."""
    digs = tuple(values)
    if not all(type(c) is int for c in digs):
        raise BadParametersError(f"{what} digits {list(digs)} must be integers")
    return digs


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def _prime_factors(n: int) -> List[int]:
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Bootstrap polynomial arithmetic over F_p (dense little-endian coefficient
# lists), used only to find and validate the modulus.
# ---------------------------------------------------------------------------

def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: List[int], b: List[int], mod: List[int], p: int) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    dm = len(mod) - 1
    for k in range(len(prod) - 1, dm - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(dm):
                prod[k - dm + j] = (prod[k - dm + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_powmod(base: List[int], exp: int, mod: List[int], p: int) -> List[int]:
    result = [1]
    cur = list(base)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        exp >>= 1
    return result


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [(c * inv) % p for c in b]
        # a mod monic
        r = list(a)
        while len(r) >= len(monic) and _poly_trim(r):
            if r[-1] == 0:
                r.pop()
                continue
            shift = len(r) - len(monic)
            c = r[-1]
            for j, mj in enumerate(monic):
                r[shift + j] = (r[shift + j] - c * mj) % p
            _poly_trim(r)
        a, b = monic, r
    return a


def _poly_is_irreducible(poly: List[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    m = len(poly) - 1
    if m < 1:
        return False
    x = _poly_mulmod([0, 1], [1], poly, p)  # x reduced mod poly (matters at m = 1)
    xqm = _poly_powmod(x, p ** m, poly, p)
    if _poly_trim(list((a - b) % p for a, b in itertools.zip_longest(xqm, x, fillvalue=0))):
        return False
    for r in _prime_factors(m):
        xe = _poly_powmod(x, p ** (m // r), poly, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(xe, x, fillvalue=0)]
        if len(_poly_gcd(diff, poly, p)) - 1 > 0:
            return False
    return True


def canonical_modulus(p: int, m: int) -> Tuple[int, ...]:
    """First monic irreducible of degree m over F_p in low-to-high-degree
    lexicographic order of coefficients, restricted to nonzero constant term
    (which excludes only x itself, at degree 1)."""
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        poly = list(tail) + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# The tower
# ---------------------------------------------------------------------------

class FieldTower:
    """The chain F_p <= F_q = F_{p^e} <= F_{q^d} <= F_{q^n} inside one field.

    All integer-kernel methods (add, mul, frobenius, ...) take and return
    packed element integers in [0, order).  0 and 1 pack to themselves.
    """

    def __init__(self, p: int, e: int, n: int,
                 modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        if e < 1 or n < 1:
            raise BadParametersError("e and n must be positive integers")
        self.p = p
        self.e = e
        self.n = n
        self.m = e * n
        self.q = p ** e
        self.order = p ** self.m
        if self.order > ARITHMETIC_CAP:
            raise TooLargeError(
                f"field order p^(e*n) = {p}^{self.m} exceeds the arithmetic cap 2^64")
        if modulus is None:
            modulus = canonical_modulus(p, self.m)
        else:
            modulus = _int_digits(modulus, "modulus")
            if not all(0 <= c < p for c in modulus):
                raise BadParametersError(
                    f"modulus digits {list(modulus)} must lie in [0, {p})")
            if len(modulus) != self.m + 1 or modulus[-1] != 1:
                raise BadParametersError(
                    f"modulus must be monic of degree e*n = {self.m}")
            if not _poly_is_irreducible(list(modulus), p):
                raise BadParametersError("modulus is not irreducible over F_p")
        self.modulus: Tuple[int, ...] = tuple(modulus)
        self._neg_tail = tuple((-c) % p for c in self.modulus[:-1])
        self._mod_int = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else None
        self.x_int = (-self.modulus[0]) % p if self.m == 1 else p
        self._onum = self.order - 1
        self._exp: Optional[List[int]] = None
        self._log: Optional[List[int]] = None
        self._frob_exp: Optional[List[int]] = None
        self._subfield_cache = {}
        self._coeffs_json_cache = {}
        self._qcoord_cache = None
        self._add_rows: Optional[List[List[int]]] = None
        # fast add/sub/neg dispatch
        if p == 2:
            self.add = self._add2
            self.sub = self._add2
            self.neg = self._neg2
        elif self.order <= _ADD_TABLE_CAP:
            self._build_small_add_tables()
            self.add = self._add_table
            self.sub = self._sub_table
            self.neg = self._neg_table
        else:
            self.add = self._add_digits
            self.sub = self._sub_digits
            self.neg = self._neg_digits
        if self.order <= _TABLE_CAP:
            self._build_log_tables()
        self.power_basis: Tuple[int, ...] = self.powers(self.x_int, n)

    # -- representation helpers --------------------------------------------

    def _digits(self, v: int) -> List[int]:
        p = self.p
        out = []
        for _ in range(self.m):
            v, r = divmod(v, p)
            out.append(r)
        return out

    def _undigits(self, digs: Sequence[int]) -> int:
        v = 0
        for d in reversed(digs):
            v = v * self.p + d
        return v

    # -- addition family ----------------------------------------------------

    def _add2(self, a: int, b: int) -> int:
        return a ^ b

    @staticmethod
    def _neg2(a: int) -> int:
        return a

    def _build_small_add_tables(self) -> None:
        o, p = self.order, self.p
        neg = [self._undigits([(-d) % p for d in self._digits(v)]) for v in range(o)]
        rows = [[0] * o for _ in range(o)]
        for a in range(o):
            da, row = self._digits(a), rows[a]
            for b in range(a, o):
                s = self._undigits([(x + y) % p for x, y in zip(da, self._digits(b))])
                row[b] = s
                rows[b][a] = s
        self._neg_t = neg
        self._add_rows = rows  # a + b is rows[a][b]

    def _add_table(self, a: int, b: int) -> int:
        return self._add_rows[a][b]

    def _sub_table(self, a: int, b: int) -> int:
        return self._add_rows[a][self._neg_t[b]]

    def _neg_table(self, a: int) -> int:
        return self._neg_t[a]

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        return self._undigits([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def _sub_digits(self, a: int, b: int) -> int:
        p = self.p
        return self._undigits([(x - y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def _neg_digits(self, a: int) -> int:
        p = self.p
        return self._undigits([(-d) % p for d in self._digits(a)])

    def smul(self, c: int, v: int) -> int:
        """Multiple of v by the prime-field scalar c in [0, p)."""
        if self.p == 2:
            return v if c & 1 else 0
        p = self.p
        return self._undigits([(c * d) % p for d in self._digits(v)])

    # -- multiplication family ----------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.p == 2:
            acc = 0
            x = a
            while b:
                if b & 1:
                    acc ^= x
                x <<= 1
                b >>= 1
            m, mod_int = self.m, self._mod_int
            top = acc.bit_length()
            while top > m:
                acc ^= mod_int << (top - 1 - m)
                top = acc.bit_length()
            return acc
        p, m = self.p, self.m
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        neg_tail = self._neg_tail
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                base = k - m
                for j, t in enumerate(neg_tail):
                    if t:
                        prod[base + j] = (prod[base + j] + c * t) % p
        return self._undigits(prod[:m])

    def _pow_raw(self, a: int, k: int) -> int:
        result = 1
        cur = a
        while k:
            if k & 1:
                result = self._mul_raw(result, cur)
            cur = self._mul_raw(cur, cur)
            k >>= 1
        return result

    def _find_generator(self, size: int) -> int:
        """The first cand^((order - 1)/size), cand = 2, 3, ..., of order size:
        a generator of the multiplicative subgroup of that order."""
        if size == 1:
            return 1
        step, facs = self._onum // size, _prime_factors(size)
        for cand in range(2, self.order):
            g = self._pow_raw(cand, step)
            if all(self._pow_raw(g, size // r) != 1 for r in facs):
                return g
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def _build_log_tables(self) -> None:
        g = self._find_generator(self._onum)
        o = self._onum
        exp = [0] * o
        log = [-1] * self.order
        cur = 1
        for k in range(o):
            exp[k] = cur
            log[cur] = k
            cur = self._mul_raw(cur, g)
        self._exp = exp
        self._log = log
        self._frob_exp = [pow(self.q, j, o) if o > 1 else 0 for j in range(self.n)]

    @property
    def has_tables(self) -> bool:
        return self._exp is not None

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % self._onum]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in the field")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % self._onum]
        return self._pow_raw(a, self._onum - 1)

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in the field")
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] - self._log[b]) % self._onum]
        return self._mul_raw(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        o = self._onum
        if o == 0:
            return a  # order-1 group is trivial only when order == 1 (impossible)
        if self._exp is not None:
            return self._exp[(self._log[a] * k) % o]
        return self._pow_raw(a, k % o)

    def frobenius(self, a: int, j: int) -> int:
        """a^(q^j); j taken mod n."""
        if a == 0 or a == 1:
            return a
        j %= self.n
        if j == 0:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] * self._frob_exp[j]) % self._onum]
        return self._pow_raw(a, pow(self.q, j, self._onum))

    # -- tower maps ----------------------------------------------------------

    def _check_divisor(self, d: int) -> None:
        if d < 1 or self.n % d != 0:
            raise NotADivisorError(f"d = {d} does not divide n = {self.n}")

    def trace_to(self, a: int, d: int) -> int:
        """Relative trace onto F_{q^d}: a + a^(q^d) + ... + a^(q^(n-d))."""
        self._check_divisor(d)
        add, frob = self.add, self.frobenius
        s = 0
        cur = a
        for _ in range(self.n // d):
            s = add(s, cur)
            cur = frob(cur, d)
        return s

    def norm_to(self, a: int, d: int) -> int:
        """Relative norm onto F_{q^d}: a^((q^n-1)/(q^d-1))."""
        self._check_divisor(d)
        if a == 0:
            return 0
        s = self._onum // (self.q ** d - 1)
        return self.pow(a, s)

    def in_subfield(self, a: int, d: int) -> bool:
        """True iff a lies in F_{q^d}, i.e. a^(q^d) = a."""
        self._check_divisor(d)
        return self.frobenius(a, d) == a

    def subfield_elements(self, d: int) -> Tuple[int, ...]:
        """All elements of F_{q^d}, ascending packed order (needs log tables)."""
        self._check_divisor(d)
        cached = self._subfield_cache.get(d)
        if cached is not None:
            return cached
        if d == self.n:
            els = tuple(range(self.order))
        else:
            if self._exp is None:
                raise TooLargeError(
                    "subfield enumeration needs log tables (order above table cap)")
            size = self.q ** d - 1
            step = self._onum // size
            els = tuple(sorted([0] + [self._exp[k * step] for k in range(size)]))
        self._subfield_cache[d] = els
        return els

    def subfield_generator(self, d: int) -> int:
        """A multiplicative generator of F_{q^d}^* (1 when that group is
        trivial); without log tables only for d < n, found by search."""
        self._check_divisor(d)
        size = self.q ** d - 1
        if size == 1:
            return 1
        if self._exp is not None:
            return self._exp[self._onum // size]
        if d == self.n:
            raise TooLargeError("a generator of the whole field needs log tables")
        return self._find_generator(size)  # size < 2^32: q^d <= sqrt(order)

    def powers(self, g: int, k: int) -> Tuple[int, ...]:
        """(1, g, g^2, ..., g^(k-1)); with g = x this is the power basis,
        with a generator of F_(q^d) and k = d a basis of that subfield."""
        out = []
        cur = 1
        for _ in range(k):
            out.append(cur)
            cur = self.mul(cur, g)
        return tuple(out)

    def span(self, basis: Sequence[int]) -> List[int]:
        """All elements of the F_q-span of basis, in base-q counter order."""
        f_q = self.subfield_elements(1)
        vals = [0]
        for b in basis:
            scaled = [self.mul(c, b) for c in f_q]
            vals = [self.add(v, s) for s in scaled for v in vals]
        return vals

    def kth_roots(self, value: int, k: int, d: Optional[int] = None) -> List[int]:
        """Every lambda in F_(q^d)^* (the whole field when d is None) with
        lambda^k = value, read off the log tables; the first one listed has
        the smallest discrete logarithm."""
        d = self.n if d is None else d
        self._check_divisor(d)
        if self._exp is None:
            raise TooLargeError("root extraction needs log tables")
        if value == 0:
            return []
        group = self.q ** d - 1
        step = self._onum // group  # embeds Z_(q^d-1) into the big cyclic group
        vlog = self._log[value]
        if vlog % step:
            return []
        rhs = vlog // step
        g = math.gcd(k, group)
        if rhs % g:
            return []
        red = group // g
        t0 = (rhs // g) * pow(k // g, -1, red) % red if red > 1 else 0
        return [self._exp[(t0 + j * red) * step] for j in range(g)]

    # -- F_q-coordinates -----------------------------------------------------

    def q_coords(self, v: int) -> Tuple[int, ...]:
        """Coordinates of v over F_q w.r.t. the basis {x^j : j < n} of F_{q^n};
        each coordinate is itself a packed element lying in F_q."""
        dig = self._digits(v)
        if self.e == 1:
            return tuple(dig)
        return tuple(self._q_coord_of_digits(dig, j) for j in range(self.n))

    def q_coord(self, v: int, j: int) -> int:
        """q_coords(v)[j] alone: digit j when e = 1, else from the e rows
        of the coordinate matrix that coordinate j needs."""
        if self.e == 1:
            return v // self.p ** j % self.p
        return self._q_coord_of_digits(self._digits(v), j)

    def _q_coord_of_digits(self, dig: Sequence[int], j: int) -> int:
        T, u_pows = self._qcoord_setup()
        e, p = self.e, self.p
        acc = 0
        for Trow, u in zip(T[j * e:(j + 1) * e], u_pows):
            t = sum(x * d for x, d in zip(Trow, dig)) % p
            if t:
                acc = self.add(acc, self.smul(t, u))
        return acc

    def from_q_coords(self, coords: Sequence[int]) -> int:
        """Inverse of q_coords: sum of coords[j] * x^j."""
        acc = 0
        for c, xj in zip(coords, self.power_basis):
            if c:
                acc = self.add(acc, self.mul(c, xj))
        return acc

    def _qcoord_setup(self):
        if self._qcoord_cache is not None:
            return self._qcoord_cache
        m = self.m
        u_pows = self.powers(self.subfield_generator(1), self.e)
        cols = [self._digits(self.mul(ua, xj))
                for xj in self.power_basis for ua in u_pows]
        # invert the m x m matrix whose columns are cols: [M | I] -> [I | M^-1]
        aug = [[cols[c][r] for c in range(m)] + [int(i == r) for i in range(m)]
               for r in range(m)]
        _, red = linalg.rref(self, aug)
        T = [row[m:] for row in red]
        self._qcoord_cache = (T, u_pows)
        return self._qcoord_cache

    # -- element constructors and iteration ----------------------------------

    def element(self, v: int) -> "FieldElement":
        if not 0 <= v < self.order:
            raise ValueError(f"packed value {v} out of range [0, {self.order})")
        return FieldElement(self, v)

    def from_coeffs(self, coeffs: Iterable[int]) -> "FieldElement":
        digs = list(_int_digits(coeffs, "coefficient"))
        if not all(0 <= d < self.p for d in digs):
            raise BadParametersError(
                f"coefficient digits {digs} must lie in [0, {self.p})")
        if len(digs) > self.m:
            raise ValueError(f"coefficient vector longer than e*n = {self.m}")
        digs += [0] * (self.m - len(digs))
        return FieldElement(self, self._undigits(digs))

    def from_int(self, k: int) -> int:
        """Embed a rational integer as a prime-field element (packed)."""
        return k % self.p

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def x(self) -> "FieldElement":
        """The residue class of the modulus variable."""
        return FieldElement(self, self.x_int)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in ascending packed order (budget-checked)."""
        if self.order > enumeration_budget():
            raise TooLargeError(
                f"enumerating {self.order} elements exceeds the budget "
                f"{enumeration_budget()} (set LINSETLAB_BUDGET to raise)")
        for v in range(self.order):
            yield FieldElement(self, v)

    # -- misc -----------------------------------------------------------------

    def coeffs_of(self, v: int) -> Tuple[int, ...]:
        return tuple(self._digits(v))

    def coeffs_json(self, v: int) -> bytes:
        """coeffs_of(v) as a compact JSON array in ASCII, cached per element."""
        out = self._coeffs_json_cache.get(v)
        if out is None:
            out = ("[" + ",".join(map(str, self._digits(v))) + "]").encode("ascii")
            self._coeffs_json_cache[v] = out
        return out

    def descriptor(self) -> dict:
        return {"p": self.p, "e": self.e, "n": self.n, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldTower)
                and (self.p, self.e, self.n, self.modulus)
                == (other.p, other.e, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n})"


_tower_cache = {}


def build_tower(p: int, e: int, n: int,
                modulus: Optional[Sequence[int]] = None) -> FieldTower:
    """Build (or fetch a cached) tower; deterministic for fixed inputs."""
    if not all(type(x) is int for x in (p, e, n)):  # no bool, float or string
        raise BadParametersError(f"p, e and n must be ints, got {p!r}, {e!r}, {n!r}")
    key = (p, e, n, None if modulus is None else _int_digits(modulus, "modulus"))
    tower = _tower_cache.get(key)
    if tower is None:
        tower = FieldTower(p, e, n, modulus)
        _tower_cache[key] = tower
        _tower_cache.setdefault((p, e, n, tower.modulus), tower)
    return tower


class FieldElement:
    """Immutable element of a FieldTower's big field, with operator sugar."""

    __slots__ = ("tower", "val")

    def __init__(self, tower: FieldTower, val: int):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.tower != self.tower:
                raise AmbientMismatchError("elements from different towers")
            return other.val
        if isinstance(other, int):
            return self.tower.from_int(other)
        return NotImplemented

    def _wrap(self, v: int) -> "FieldElement":
        return FieldElement(self.tower, v)

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.div(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else self._wrap(self.tower.div(v, self.val))

    def __pow__(self, k: int):
        return self._wrap(self.tower.pow(self.val, k))

    def __neg__(self):
        return self._wrap(self.tower.neg(self.val))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.tower == other.tower and self.val == other.val
        if isinstance(other, int):
            return self.val == self.tower.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.val, self.tower.order))

    def __bool__(self) -> bool:
        return self.val != 0

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return self.tower.coeffs_of(self.val)

    def frobenius(self, j: int = 1) -> "FieldElement":
        return self._wrap(self.tower.frobenius(self.val, j))

    def trace_to(self, d: int = 1) -> "FieldElement":
        return self._wrap(self.tower.trace_to(self.val, d))

    def norm_to(self, d: int = 1) -> "FieldElement":
        return self._wrap(self.tower.norm_to(self.val, d))

    def in_subfield(self, d: int) -> bool:
        return self.tower.in_subfield(self.val, d)

    def inverse(self) -> "FieldElement":
        return self._wrap(self.tower.inv(self.val))

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)})"


def element_from_json(tower: FieldTower, obj: dict) -> FieldElement:
    return tower.from_coeffs(obj["coeffs"])


def is_independent(elems: Sequence[Union[FieldElement, int]],
                   tower: Optional[FieldTower] = None) -> bool:
    """True iff the elements are F_q-linearly independent.

    Computed both ways — Moore-matrix determinant det(elems_i^(q^j)) and
    echelon reduction of F_q-coordinate rows — which must agree.
    """
    elems = list(elems)
    if not elems:
        raise ValueError("need at least one element")
    vals = []
    for x in elems:
        if isinstance(x, FieldElement):
            if tower is None:
                tower = x.tower
            elif tower != x.tower:
                raise AmbientMismatchError("elements from different towers")
            vals.append(x.val)
        else:
            vals.append(int(x))
    if tower is None:
        raise ValueError("pass FieldElement values or an explicit tower")
    k = len(vals)
    if k > tower.n:
        raise ValueError(f"at most n = {tower.n} elements can be independent")
    moore = [[tower.frobenius(v, j) for j in range(k)] for v in vals]
    by_moore = linalg.det(tower, moore) != 0
    rows = [tower.q_coords(v) for v in vals]
    by_echelon = linalg.rank(tower, rows) == k
    if by_moore != by_echelon:
        raise AssertionError("Moore-determinant and echelon independence disagree")
    return by_echelon
