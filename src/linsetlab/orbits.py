"""The ΓL(2, q^n) maps that keep a linear set (Csajbók, Marino and
Polverino, JCTA 157, 2018) on coefficient vectors of any length s | n, on
tails and on enumeration ids; _twist_scalar inverts the twist."""

import functools
import itertools
import math
from typing import List, Optional, Sequence

from .errors import TooLargeError
from .gf import FieldTower


def _twist_coeffs(tower: FieldTower, coeffs: Sequence[int], lam: int) -> List[int]:
    """b_i = a_i * lam^(q^i - 1): the twist of sum a_i x^(q^i) by lam, for
    any length s | n with lam in F_(q^s)^*."""
    mul, div, frob = tower.mul, tower.div, tower.frobenius
    return [mul(a, div(frob(lam, i), lam)) if a else 0
            for i, a in enumerate(coeffs)]


def _adjoint_coeffs(tower: FieldTower, coeffs: Sequence[int]) -> List[int]:
    """b_k = a_(-k mod s)^(q^k): the adjoint of sum a_i x^(q^i) over
    F_(q^s), s = len(coeffs), which is also the Dickson transpose."""
    s, frob = len(coeffs), tower.frobenius
    return [frob(coeffs[-k % s], k) for k in range(s)]


def _id_coeffs(tower: FieldTower, poly_id: int) -> List[int]:
    """The packed coefficients of the enumeration id sum(packed(a_i) *
    order^i); ids run over [0, order^n)."""
    coeffs = []
    for _ in range(tower.n):
        poly_id, c = divmod(poly_id, tower.order)
        coeffs.append(c)
    if poly_id:
        raise ValueError("polynomial id out of range")
    return coeffs


def _support_gcd(coeffs: Sequence[int]) -> int:
    """gcd of s = len(coeffs) and every index i >= 1 with a_i nonzero: the
    largest d | s with the support in dZ_s (s when it lies in {0})."""
    return math.gcd(len(coeffs), *(i for i, a in enumerate(coeffs) if i and a))


def _twist_scalar(tower: FieldTower, a: Sequence[int],
                  b: Sequence[int]) -> Optional[int]:
    """Smallest lam in F_(q^s)^* (packed order), s = len(a), with b the
    twist of a by lam, i.e. b_i = a_i * lam^(q^i - 1) for every i; None if
    there is none.  The first nonzero a_i, i >= 1, pins lam^(q^i - 1); its
    roots are checked on every coefficient.  A support in {0} is fixed by
    every lam, so the answer is then 1."""
    support = [i for i, c in enumerate(a) if c]
    if support != [i for i, c in enumerate(b) if c]:
        return None
    i = next((i for i in support if i), None)
    if i is None:
        return 1 if a[0] == b[0] else None
    s, b = len(a), list(b)
    target = tower.div(b[i], a[i])
    if not tower.in_subfield(target, s):
        return None
    return min((lam for lam in tower.kth_roots(target, tower.q ** i - 1, s)
                if _twist_coeffs(tower, a, lam) == b), default=None)


def _need_log_tables(tower: FieldTower) -> None:
    if not tower.has_tables:
        raise TooLargeError("twist orbits need log tables (order above table cap)")


@functools.lru_cache(maxsize=None)
def _residue_minima(tower: FieldTower, d: int, g: int) -> tuple:
    """Smallest packed value of each class of discrete logs modulo
    (q^n - 1)/(q^d - 1) * (q^g - 1): a twist by lam in F_(q^d)^* moves
    log a_i, gcd(i, d) = g, by exactly the multiples of that modulus."""
    _need_log_tables(tower)
    exp, onum = tower._exp, tower._onum
    m = onum // (tower.q ** d - 1) * (tower.q ** g - 1)
    return tuple(min(exp[r::m]) for r in range(m))


def _log_walk(tower: FieldTower, tail: Sequence[int], m: int,
              steps: Sequence[int], count: int) -> List[int]:
    """Tail ids of b for L = 0 .. count-1, where b_i = exp[(m*log a_i +
    L*steps[i]) mod (q^n - 1)] for each nonzero a_i of tail and b_i = 0
    for each zero one: a ΓL(2, q^n) orbit of tails, walked by logs."""
    _need_log_tables(tower)
    exp, log, onum, order = tower._exp, tower._log, tower._onum, tower.order
    members = [0] * count
    for i, (a, step) in enumerate(zip(tail, steps)):
        if a:
            la, w = m * log[a] % onum, order ** i
            members = [b + w * exp[(la + L * step) % onum]
                       for L, b in enumerate(members)]
    return members


def _orbit_tails(tower: FieldTower, tail: Sequence[int]) -> List[int]:
    """Tail ids of the twists of tail (coefficients 1..n-1), itself first.
    The twist b_i = a_i*lam^(q^i - 1) conjugates the Dickson matrix by
    diag(lam, lam^q, ...), so an orbit shares its principal minors for
    every a_0.  For lam = g^L, log b_i = log a_i + L*(q^i - 1), and lam in
    F_q^* fixes every tail, so L < (q^n - 1)/(q - 1) reaches every member;
    past the gcd filter (on the support, so on whole orbits) F_q^* is the
    whole stabilizer and each member comes once."""
    q = tower.q
    return _log_walk(tower, tail, 1, [q ** i - 1 for i in range(1, tower.n)],
                     (tower.order - 1) // (q - 1))


def _tail_filtered(tower: FieldTower, tail_id: int,
                   twist: bool) -> Optional[List[int]]:
    """Coefficients 1..n-1 shared by every id pid with pid // order ==
    tail_id, or None when the gcd filter or (given twist) the twist filter
    drops them; neither reads coefficient 0.  The twist filter keeps the
    lexicographically smallest tail of each twist orbit: with d = gcd(n,
    the earlier nonzero indices), the twists fixing every earlier nonzero
    a_j are lam in F_(q^d)^*, so the greedy minimum takes each later a_i
    to the smallest value of its _residue_minima class."""
    v, order, n = tail_id, tower.order, tower.n
    tail, d = [], n
    for i in range(1, n):
        v, c = divmod(v, order)
        tail.append(c)
        if c:
            if twist and d > 1:
                mins = _residue_minima(tower, d, math.gcd(i, d))
                if mins[tower._log[c] % len(mins)] != c:
                    return None
            d = math.gcd(d, i)
    return tail if d == 1 else None


def _candidate_tails(tower: FieldTower, lo: int, hi: int):
    """Tail ids in [lo, hi), ascending, whose leading tail coefficient a_i0
    passes the first level of _tail_filtered's residue chain, plus the zero
    tail: every tail the twist filter keeps is one.  Such ids are
    a*order^(i0-1) + k*order^i0, computed without decoding a tail."""
    n = tower.n
    runs = [range(lo, min(hi, 1))]
    for i0 in range(1, n):
        w, step = tower.order ** (i0 - 1), tower.order ** i0
        runs += [range(max(a * w, lo + (a * w - lo) % step), hi, step)
                 for a in _residue_minima(tower, n, math.gcd(i0, n))]
    yield from sorted(itertools.chain.from_iterable(runs))


def _image_tails(tower: FieldTower, tails: Sequence[int]):
    """Sorted member tails of the images of a bucket with member tails
    tails under f -> beta*f^(p^k), beta in F_(q^n)^*, 0 <= k < e*n.
    Scaling (x, y) -> (x, beta*y) and the Frobenius map each fingerprint
    class onto one (minor_I(beta*f) = beta^(sum_(i in I) q^i)*minor_I(f),
    minor_I(f^sigma) = minor_I(f)^sigma), keep every pair's case and keep
    the support, so the gcd filter: in a scan of whole classes the image
    of a bucket is a bucket.  By the _log_walk of _orbit_tails, b_i =
    exp[p^k*log a_i + L] for beta = g^L."""
    order, units = tower.order, [1] * (tower.n - 1)
    coeffs = [_id_coeffs(tower, tid * order)[1:] for tid in tails]
    for k in range(tower.e * tower.n):
        yield from (tuple(sorted(image)) for image in zip(*[
            _log_walk(tower, tail, tower.p ** k, units, order - 1)
            for tail in coeffs]))
