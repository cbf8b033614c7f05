"""The benchmark's own finite-field arithmetic, for checking answers.

Nothing here imports linsetlab: every check the benchmark makes on a
program output is computed by this module from first principles, so a
fault in the program's kernel, fingerprints or point enumeration cannot
hide behind the same fault in its checker.

Elements use the program's documented packing (digit i of the base-p
expansion is the coefficient of x^i modulo the tower's modulus), so the
ids and coefficient lists in a report can be read directly.

The graph {(x, f(x))} of a q-polynomial f spans the points <(1, f(x)/x)>
of PG(1, q^n), so two graphs span one linear set exactly when their
*slope sets* {f(x)/x : x != 0} coincide.  Slope sets are kept as bit
masks over packed field elements; adding a constant to every slope is a
permutation of bit positions done one base-p digit at a time.
"""

import math
from collections import Counter
from itertools import combinations
from typing import Dict, List, Sequence, Tuple


def _prime_factors(n: int) -> List[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible_moduli(p: int, m: int) -> List[Tuple[int, ...]]:
    """Every monic irreducible polynomial of degree m over F_p, as
    little-endian coefficient tuples, in ascending order of their digits.

    A degree-m polynomial is irreducible exactly when it has no factor of
    degree <= m/2; the test divides by every monic polynomial of those
    degrees, which is cheap at the sizes the benchmark uses.
    """
    def polys(deg):
        for k in range(p ** deg):
            digs = []
            for _ in range(deg):
                k, r = divmod(k, p)
                digs.append(r)
            yield digs + [1]

    def divides(d, f):
        r = list(f)
        for top in range(len(r) - 1, len(d) - 2, -1):
            c = r[top]
            if c:
                for j, dj in enumerate(d):
                    r[top - len(d) + 1 + j] = (r[top - len(d) + 1 + j]
                                               - c * dj) % p
        return not any(r[:len(d) - 1])

    small = [d for deg in range(1, m // 2 + 1) for d in polys(deg)]
    return [tuple(f) for f in polys(m)
            if f[0] and not any(divides(d, f) for d in small)]


class OwnField:
    """F_(p^m) = F_p[x]/(modulus) with log/exp tables, built from scratch."""

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.p, self.m = p, m
        self.order = p ** m
        self.onum = self.order - 1
        self._modulus = modulus
        gen = self._find_generator()
        exp = [0] * self.onum
        log = [-1] * self.order
        cur = 1
        for k in range(self.onum):
            exp[k] = cur
            log[cur] = k
            cur = self._mul_poly(cur, gen)
        if cur != 1 or -1 in log[1:]:
            raise ArithmeticError("generator search failed")
        self.exp, self.log = exp, log
        if p == 2:
            self._add = None
        else:
            o = self.order
            self._add = [self._add_digits(a, b) for a in range(o)
                         for b in range(o)]
        # masks for adding t to digit j of every bit position (see translate)
        self._digit_masks = {}
        for j in range(m):
            stride = p ** j
            for t in range(1, p):
                low = high = 0
                for v in range(self.order):
                    if (v // stride) % p < p - t:
                        low |= 1 << v
                    else:
                        high |= 1 << v
                self._digit_masks[j, t] = (low, high, t * stride,
                                           (p - t) * stride)

    # -- raw polynomial arithmetic ------------------------------------------

    def _digits(self, v: int) -> List[int]:
        out = []
        for _ in range(self.m):
            v, r = divmod(v, self.p)
            out.append(r)
        return out

    def _pack(self, digs: Sequence[int]) -> int:
        v = 0
        for d in reversed(digs):
            v = v * self.p + d
        return v

    def _add_digits(self, a: int, b: int) -> int:
        return self._pack([(x + y) % self.p
                           for x, y in zip(self._digits(a), self._digits(b))])

    def _mul_poly(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * m)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * m - 1, m - 1, -1):
            c = prod[top]
            if c:
                for j, mj in enumerate(self._modulus):
                    prod[top - m + j] = (prod[top - m + j] - c * mj) % p
        return self._pack(prod[:m])

    def _pow_poly(self, a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self._mul_poly(out, a)
            a = self._mul_poly(a, a)
            k >>= 1
        return out

    def _find_generator(self) -> int:
        if self.onum == 1:
            return 1
        facs = _prime_factors(self.onum)
        for g in range(2, self.order):
            if all(self._pow_poly(g, self.onum // r) != 1 for r in facs):
                return g
        raise ArithmeticError("modulus is not irreducible")

    # -- table arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is None:
            return a ^ b
        return self._add[a * self.order + b]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.onum]

    def pow(self, a: int, k: int) -> int:
        if not a:
            return 0 if k else 1
        return self.exp[(self.log[a] * k) % self.onum]

    def translate(self, mask: int, c: int) -> int:
        """The mask of {s + c : s in mask}: add c one base-p digit at a time."""
        for j, t in enumerate(self._digits(c)):
            if t:
                low, high, up, down = self._digit_masks[j, t]
                mask = ((mask & low) << up) | ((mask & high) >> down)
        return mask


class Tower:
    """F_q = F_(p^e) inside F_(q^n) = OwnField(p, e*n), with q-polynomial maps."""

    def __init__(self, p: int, e: int, n: int, modulus: Sequence[int]):
        self.field = OwnField(p, e * n, modulus)
        self.p, self.e, self.n = p, e, n
        self.q = p ** e
        self.order = self.field.order
        self.onum = self.field.onum

    def frob(self, a: int, i: int) -> int:
        return self.field.pow(a, self.q ** (i % self.n))

    def twist(self, coeffs: Sequence[int], lam: int) -> List[int]:
        """Coefficients c_i * lam^(q^i - 1): the graph scaled by 1/lam."""
        F = self.field
        return [F.mul(c, F.pow(lam, self.q ** i - 1))
                for i, c in enumerate(coeffs)]

    def adjoint(self, coeffs: Sequence[int]) -> List[int]:
        """Coefficients of the trace-dual map: c_(n-k)^(q^k)."""
        n = self.n
        return [self.frob(coeffs[(n - k) % n], k) for k in range(n)]

    def twist_related(self, f: Sequence[int], g: Sequence[int]) -> bool:
        """True when g is f twisted by some nonzero lambda."""
        return any(self.twist(f, self.field.exp[k]) == list(g)
                   for k in range(self.onum))

    def slope_mask(self, coeffs: Sequence[int]) -> int:
        """Bit mask of the slope set {f(x)/x : x != 0} of f = sum c_i x^(q^i)."""
        F = self.field
        o, exp, log = self.onum, F.exp, F.log
        terms = [(log[c], self.q ** i - 1) for i, c in enumerate(coeffs) if c]
        mask = 0
        add = F.add
        for k in range(o):
            s = 0
            for lc, ex in terms:
                s = add(s, exp[(lc + k * ex) % o])
            mask |= 1 << s
        return mask


# ---------------------------------------------------------------------------
# counts derived from supports alone
# ---------------------------------------------------------------------------

def _passing_supports(n: int):
    """Tail supports T of {1..n-1} with gcd(n, T) = 1 (the scan's filter)."""
    for size in range(1, n):
        for tail in combinations(range(1, n), size):
            g = n
            for i in tail:
                g = math.gcd(g, i)
            if g == 1:
                yield tail


def gcd_filter_count(q: int, n: int) -> int:
    """Coefficient vectors over F_(q^n) whose tail support has gcd 1 with n:
    the constant coefficient is free, each support position is nonzero."""
    o = q ** n - 1
    return (o + 1) * sum(o ** len(tail) for tail in _passing_supports(n))


def twist_orbit_count(q: int, n: int) -> int:
    """Twist orbits among the vectors gcd_filter_count counts, by Burnside.

    lambda = g^t fixes a vector of support S exactly when lambda^(q^i-1) = 1
    for every i in S, i.e. when o / gcd(o, q^i - 1) divides t (o = q^n - 1).
    So o / L_S of the o group elements fix each of the o^|S| vectors of
    support S, with L_S the lcm of those orders, and the orbit count is
    sum over S of o^|S| / L_S.
    """
    o = q ** n - 1
    total = 0
    for tail in _passing_supports(n):
        lcm = 1
        for i in tail:
            step = o // math.gcd(o, q ** i - 1)
            lcm = lcm * step // math.gcd(lcm, step)
        for with_const in (False, True):
            size = len(tail) + with_const
            total += o ** size // lcm
    return total


def tail_orbit_reps(tower: Tower) -> List[Tuple[int, ...]]:
    """One member of each twist orbit of the filtered tails
    (c_1, ..., c_(n-1)), found by walking every orbit once."""
    F, n, q = tower.field, tower.n, tower.q
    factors = [[F.pow(F.exp[k], q ** i - 1) for i in range(1, n)]
               for k in range(tower.onum)]
    allowed = set(_passing_supports(n))
    seen = set()
    reps = []
    o = tower.order
    for code in range(o ** (n - 1)):
        tail = []
        v = code
        for _ in range(n - 1):
            v, c = divmod(v, o)
            tail.append(c)
        tail = tuple(tail)
        if tail in seen:
            continue
        if tuple(i + 1 for i, c in enumerate(tail) if c) not in allowed:
            continue
        seen.update(tuple(F.mul(c, f) for c, f in zip(tail, fac))
                    for fac in factors)
        reps.append(tail)
    return reps


def orbit_partition_shape(tower: Tower) -> Tuple[int, Counter]:
    """Bucket count and bucket-size histogram, counted in twist orbits, of
    the slope-set partition of every filtered vector.

    A twist keeps the slope set (f_lam(x)/x = f(lam x)/(lam x)) and the
    constant coefficient, so each orbit has one slope set, and adding c_0
    translates it: the mask of (c_0, tail) is translate(mask(tail), c_0).
    """
    F = tower.field
    sizes: Dict[int, int] = {}
    for tail in tail_orbit_reps(tower):
        base = tower.slope_mask((0,) + tail)
        for c0 in range(tower.order):
            key = F.translate(base, c0)
            sizes[key] = sizes.get(key, 0) + 1
    return len(sizes), Counter(sizes.values())


def id_slope_masks(tower: Tower, ids: Sequence[int]) -> Dict[int, int]:
    """Slope-set mask of each enumeration id (digits base order = coeffs)."""
    F, o, n = tower.field, tower.order, tower.n
    tail_cache: Dict[tuple, int] = {}
    out = {}
    for pid in ids:
        coeffs = []
        v = pid
        for _ in range(n):
            v, c = divmod(v, o)
            coeffs.append(c)
        tail = tuple(coeffs[1:])
        base = tail_cache.get(tail)
        if base is None:
            base = tower.slope_mask((0,) + tail)
            tail_cache[tail] = base
        out[pid] = F.translate(base, coeffs[0])
    return out
