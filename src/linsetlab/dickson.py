"""Dickson matrices of linearized polynomials.

The Dickson matrix of f(x) = sum a_i x^(q^i) has (i,j)-entry a_{(j-i) mod s}
raised to the q^i, where s is the matrix size.  Principal minors indexed by
subsets of Z_s form the minor fingerprint; equality of fingerprints is the
point-set equality criterion for graphs of linearized polynomials in rank 2.
The entry rule A[i+1][j+1] = A[i][j]^q gives minor(I+1 mod s) = minor(I)^q,
so one determinant per cyclic orbit of index sets yields the whole
fingerprint.

Only the diagonal of A depends on the coefficient a_0.  For A = B - D with
D = diag(a, a^q, ..., a^(q^(s-1))) and c = -a, the classical expansion

    det(B_I - D_I) = sum over J in I of c^(e_J) * det B_(I-J),
    e_J = sum over i in J of q^i,

gives every principal minor of A from those of B (det B_{} = 1).  On a
tower with log tables, B._shift_table() evaluates the expansion for every
nonzero c at once: with c = g^L each term is exp[L*e_J + log det B_(I-J)],
one C-level gather over all L per term, and row L of the table is the
fingerprint of B - D for that c.  B.fingerprint(c) is the fingerprint of
f + c*x, read from that row, so B's determinants and gathers are paid
once however many of its shifts are fingerprinted.  The table reads
nothing of B but its minors: the search scan shares one table per tower
and a_0 = 0 fingerprint for the length of a scan (classify._SHIFT_TABLES).
A column sums its terms by xor at p = 2, else by the tower's rows of sums
(_add_rows[a][b] = a + b) where it has them, else by t.add.

A matrix may have size s < n provided s | n and every coefficient lies in
the intermediate field F_{q^s}; its fingerprint, transpose and
diag_similar then work inside F_{q^s} while the arithmetic stays in the
big field.

Bucket names are FNV-1a digests.  A step h <- (h xor b)*P mod 2^64 with an
ASCII byte b < 128 maps h + 128m to its image of h plus 128m*P (the xor
touches only the low 7 bits), so hashing k ASCII bytes s takes any state h
to h*P^k + C_s[h mod 128] mod 2^64, C_s[x] being the hash of s from x minus
x*P^k: one step per fingerprint entry.  A value gets its table C_s when it
recurs, and each entry is filled when first read; past _DIGEST_VALUES
values a tower hashes new ones by the byte route.  Each tower memoizes the
state after a fingerprint's first three entries, 1, a_0, a_0^q (capped alike);
fingerprint_digests walks a batch from there one entry position at a time.
"""

from __future__ import annotations

import operator
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import linalg
from .errors import (
    AmbientMismatchError,
    EmptyIndexSetError,
    TooLargeError,
    TooSmallError,
    ZeroPolynomialError,
)
from .gf import FieldTower
from .linpoly import LinearizedPolynomial, _unwrap
from .orbits import _adjoint_coeffs, _support_gcd, _twist_coeffs, _twist_scalar

FINGERPRINT_BOUND = 12

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_DIGESTS: Dict[FieldTower, tuple] = {}
_DIGEST_VALUES = 1024  # per tower; no tower of order up to 1024 fills it


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash from state h; deterministic across processes."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _as_indices(size: int, index_set: Union[int, Iterable[int]]) -> Tuple[int, ...]:
    """Normalize an index set (bitmask or iterable) to an ascending tuple."""
    if isinstance(index_set, int):
        if not 0 <= index_set < (1 << size):
            raise ValueError(f"mask {index_set} out of range for size {size}")
        return tuple(i for i in range(size) if index_set >> i & 1)
    idx = sorted(set(int(i) for i in index_set))
    if idx and not 0 <= idx[0] <= idx[-1] < size:
        raise ValueError(f"indices {idx} out of range for size {size}")
    return tuple(idx)


_NECKLACES: Dict[int, tuple] = {}


def _necklaces(size: int):
    """Cyclic orbits of the non-empty subsets of Z_size, as pairs (indices
    of the smallest mask, masks I, I+1, I+2, ... of the orbit)."""
    cached = _NECKLACES.get(size)
    if cached is not None:
        return cached
    full = (1 << size) - 1
    seen = [False] * (1 << size)
    orbits = []
    for rep in range(1, 1 << size):
        if seen[rep]:
            continue
        masks = []
        mask = rep
        while not seen[mask]:
            seen[mask] = True
            masks.append(mask)
            mask = ((mask << 1) | (mask >> (size - 1))) & full
        orbits.append((_as_indices(size, rep), tuple(masks)))
    cached = _NECKLACES[size] = tuple(orbits)
    return cached


_GATHERS: Dict[FieldTower, tuple] = {}


def _tower_gathers(tower: FieldTower) -> tuple:
    """Per tower with log tables: the exp table twice over, the table of
    v -> v^q, and a dict e -> gather that fills as used.  The gather for e
    maps exp2[lm : lm + onum] to (exp[(L*e + lm) mod onum] for every L),
    onum = q^n - 1; a one-index itemgetter would return a bare value, so
    at onum = 1 it keeps the one-entry slice as it is."""
    cached = _GATHERS.get(tower)
    if cached is None:
        frob = [tower.frobenius(v, 1) for v in range(tower.order)]
        cached = _GATHERS[tower] = (tower._exp * 2, frob, {})
    return cached


class DicksonMatrix:
    """Immutable s x s Dickson matrix over a FieldTower (s | n)."""

    __slots__ = ("tower", "coeffs", "size", "_rows", "_minors", "_table")

    def __init__(self, tower: FieldTower, coeffs: Iterable):
        vals = tuple(_unwrap(tower, c) for c in coeffs)
        size = len(vals)
        if size < 1:
            raise ValueError("need at least one coefficient")
        if tower.n % size != 0:
            raise ValueError(f"matrix size {size} must divide n = {tower.n}")
        if size < tower.n:
            for v in vals:
                if not tower.in_subfield(v, size):
                    raise ValueError(
                        f"size-{size} matrix needs coefficients in F_(q^{size})")
        put = object.__setattr__
        put(self, "tower", tower)
        put(self, "coeffs", vals)
        put(self, "size", size)
        for slot in ("_rows", "_minors", "_table"):
            put(self, slot, None)

    def __setattr__(self, *a):
        raise AttributeError("DicksonMatrix is immutable")

    @classmethod
    def from_poly(cls, f: LinearizedPolynomial) -> "DicksonMatrix":
        return cls(f.tower, f.coeffs)

    def to_poly(self) -> LinearizedPolynomial:
        if self.size != self.tower.n:
            raise ValueError("only a full-size matrix converts to a polynomial")
        return LinearizedPolynomial(self.tower, self.coeffs)

    # -- entries ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        s = self.size
        return self.tower.frobenius(self.coeffs[(j - i) % s], i)

    def rows(self) -> List[List[int]]:
        if self._rows is None:
            t, s, cf = self.tower, self.size, self.coeffs
            frob = t.frobenius
            rows = [[frob(cf[(j - i) % s], i) for j in range(s)] for i in range(s)]
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def submatrix(self, row_set: Union[int, Iterable[int]],
                  col_set: Union[int, Iterable[int]]) -> List[List[int]]:
        ri = _as_indices(self.size, row_set)
        ci = _as_indices(self.size, col_set)
        if not ri or not ci:
            raise EmptyIndexSetError("row and column index sets must be non-empty")
        rows = self.rows()
        return [[rows[i][j] for j in ci] for i in ri]

    # -- minors and fingerprint ---------------------------------------------------

    def minor(self, index_set: Union[int, Iterable[int]]) -> int:
        """det A[I|I] (packed); I must be non-empty."""
        sub = self.submatrix(index_set, index_set)
        return linalg.det(self.tower, sub)

    def determinant(self) -> int:
        return linalg.det(self.tower, self.rows())

    def fingerprint(self, shift: int = 0) -> Tuple[int, ...]:
        """All 2^s principal minors of the matrix of f + shift*x, indexed by
        subset bitmask ascending; the empty-set entry is fixed to 1.

        Only the smallest mask of each cyclic orbit of index sets is
        computed directly; the rest of the orbit follows from
        minor(I+1 mod s) = minor(I)^q, which also holds for s < n because
        every coefficient then satisfies a^(q^s) = a.  A nonzero shift on
        a tower with log tables reads its row of self._shift_table() (see
        the module docstring); otherwise the shifted matrix takes one
        determinant per orbit."""
        t, s, table = self.tower, self.size, self._table
        if table is not None and 0 < shift < t.order and (
                s == t.n or t.in_subfield(shift, s)):
            return table[t._log[shift]]
        if s > FINGERPRINT_BOUND:
            raise TooLargeError(
                f"fingerprint needs 2^{s} minors, above 2^{FINGERPRINT_BOUND}")
        if not 0 <= shift < t.order:
            raise ValueError(f"shift {shift} is not a field element")
        if not shift:
            return self._principal_minors()
        if s < t.n and not t.in_subfield(shift, s):
            raise ValueError(f"size-{s} matrix needs coefficients in F_(q^{s})")
        if t.has_tables:
            return self._shift_table()[t._log[shift]]
        return self._shifted(t.neg(shift))._principal_minors()

    def _principal_minors(self) -> Tuple[int, ...]:
        """The fingerprint by one determinant per necklace, cached."""
        if self._minors is None:
            t = self.tower
            rows = self.rows()
            det = linalg.det
            reps = [det(t, [[rows[i][j] for j in idx] for i in idx])
                    for idx, _ in _necklaces(self.size)]
            object.__setattr__(self, "_minors", self._fill_orbits(reps))
        return self._minors

    def _fill_orbits(self, reps: Sequence[int]) -> Tuple[int, ...]:
        """The 2^s minors from the minor of each necklace's smallest mask."""
        frob = self.tower.frobenius
        out = [1] * (1 << self.size)
        for v, (_, masks) in zip(reps, _necklaces(self.size)):
            out[masks[0]] = v
            for mask in masks[1:]:
                v = frob(v, 1)
                out[mask] = v
        return tuple(out)

    def _diagonal_terms(self) -> List[List[Tuple[int, int]]]:
        """Per necklace with smallest mask I, the pairs (e_J, log det B_(I-J))
        over the subsets J of I whose minor det B_(I-J) is nonzero; e_J is
        sum_{i in J} q^i mod q^n - 1."""
        t, s = self.tower, self.size
        minors, log, qpow = self._principal_minors(), t._log, t._frob_exp
        exps = [sum(qpow[i] for i in range(s) if mask >> i & 1)
                for mask in range(1 << s)]
        terms = []
        for _, masks in _necklaces(s):
            rep, row, sub = masks[0], [], masks[0]
            while True:
                m = minors[rep & ~sub]
                if m:
                    row.append((exps[sub], log[m]))
                if not sub:
                    break
                sub = (sub - 1) & rep
            terms.append(row)
        return terms

    def _shift_table(self) -> List[Tuple[int, ...]]:
        """Row L is the fingerprint of f + c*x, i.e. of
        self + diag(c, c^q, ...), for c = g^L, L = 0 .. q^n - 2, each minor
        summed over the terms of _diagonal_terms by one gather per term.
        Cached."""
        if self._table is None:
            t, s = self.tower, self.size
            onum = t._onum
            exp2, frob, gathers = _tower_gathers(t)
            add, add_rows = operator.xor if t.p == 2 else t.add, t._add_rows
            cols: List[Sequence[int]] = [(1,) * onum] * (1 << s)
            for row, (_, masks) in zip(self._diagonal_terms(), _necklaces(s)):
                col = None
                for e, lm in row:
                    gather = gathers.get(e)
                    if gather is None:
                        gather = gathers[e] = tuple if onum == 1 else \
                            operator.itemgetter(*[L * e % onum
                                                  for L in range(onum)])
                    term = gather(exp2[lm:lm + onum])
                    col = term if col is None else list(
                        map(add, col, term) if add_rows is None else
                        map(list.__getitem__, map(add_rows.__getitem__, col), term))
                cols[masks[0]] = col
                for mask in masks[1:]:
                    col = cols[mask] = list(map(frob.__getitem__, col))
            object.__setattr__(self, "_table", list(zip(*cols)))
        return self._table

    def digest(self) -> int:
        """64-bit FNV-1a digest of the serialized fingerprint (collisions
        must be resolved by comparing full fingerprints)."""
        return fingerprint_digest(self.tower, self.fingerprint())

    # -- characteristic function ---------------------------------------------------

    def _shifted(self, a: int) -> "DicksonMatrix":
        """The matrix of f - a*x, i.e. A - diag(a, a^q, ..., a^(q^(s-1)))."""
        t = self.tower
        return DicksonMatrix(t, (t.sub(self.coeffs[0], a),) + self.coeffs[1:])

    def char_value(self, lam0) -> int:
        """det(A - diag(lam0, lam0^q, ..., lam0^(q^(s-1))))."""
        return self._shifted(_unwrap(self.tower, lam0)).determinant()

    def rank_leading(self) -> int:
        """max k with det of the leading k x k principal submatrix nonzero
        (0 when every leading minor vanishes); equals the rank of the
        induced map for genuine Dickson matrices."""
        t = self.tower
        rows = self.rows()
        best = 0
        for k in range(1, self.size + 1):
            sub = [r[:k] for r in rows[:k]]
            if linalg.det(t, sub) != 0:
                best = k
        return best

    def root_multiplicity(self, a) -> int:
        """Multiplicity of a as a root of the characteristic function:
        1 + q + ... + q^(w-1) with w = s - rank_leading(A - diag(a, ...))."""
        w = self.size - self._shifted(_unwrap(self.tower, a)).rank_leading()
        q = self.tower.q
        return (q ** w - 1) // (q - 1)

    # -- structure -------------------------------------------------------------------

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_reducible(self) -> Optional[int]:
        """Largest d > 1 such that the coefficient support lies in dZ_s
        (equivalently: the partition {dZ_s, rest} has zero off-blocks);
        none when that gcd is 1."""
        if self.is_zero():
            raise ZeroPolynomialError("reducibility needs a nonzero matrix")
        g = _support_gcd(self.coeffs)
        return g if g > 1 else None

    def loewy_partition(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """First partition (alpha, beta) of Z_s, among the canonical
        candidates alpha = dZ_s (divisors ascending) then alpha = {0, i},
        whose two off-diagonal blocks both have rank exactly 1."""
        s = self.size
        if s < 4:
            raise TooSmallError("partitions with both sides of size >= 2 need s >= 4")
        t = self.tower
        rows = self.rows()
        candidates: List[Tuple[int, ...]] = []
        for d in range(2, s):
            if s % d == 0 and s // d >= 2 and s - s // d >= 2:
                candidates.append(tuple(range(0, s, d)))
        for i in range(1, s):
            candidates.append((0, i))
        for alpha in candidates:
            aset = set(alpha)
            beta = tuple(j for j in range(s) if j not in aset)
            block_ab = [[rows[i][j] for j in beta] for i in alpha]
            block_ba = [[rows[i][j] for j in alpha] for i in beta]
            if linalg.rank(t, block_ab) == 1 and linalg.rank(t, block_ba) == 1:
                return (alpha, beta)
        return None

    def transpose(self) -> "DicksonMatrix":
        """The transpose, which is again a Dickson matrix (of the adjoint)."""
        return DicksonMatrix(self.tower, _adjoint_coeffs(self.tower, self.coeffs))

    # -- diagonal similarity -----------------------------------------------------------

    def diag_similar(self, other: "DicksonMatrix") -> Optional[int]:
        """Smallest lambda in F_(q^s)^* (packed order) with
        other = D^-1 * self * D for D = diag(lambda, lambda^q, ...), i.e.
        b_i = a_i * lambda^(q^i - 1) for every i; none if no such lambda."""
        t = self.tower
        if not isinstance(other, DicksonMatrix) or other.tower != t:
            raise AmbientMismatchError("matrices from different towers")
        if other.size != self.size:
            raise AmbientMismatchError("matrices of different size")
        return _twist_scalar(t, self.coeffs, other.coeffs)

    def diag_similar_scan(self, other: "DicksonMatrix") -> Optional[int]:
        """Reference implementation: full ascending scan of F_(q^s)^*."""
        t = self.tower
        if other.tower != t or other.size != self.size:
            raise AmbientMismatchError("matrices from different towers or sizes")
        if not any(self.coeffs) and not any(other.coeffs):
            return 1
        for lam in t.subfield_elements(self.size):
            if lam and _twist_coeffs(t, self.coeffs, lam) == list(other.coeffs):
                return lam
        return None

    # -- value semantics -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, DicksonMatrix) and self.tower == other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.tower.order))

    def to_json(self) -> dict:
        return {"coeffs": [list(self.tower.coeffs_of(a)) for a in self.coeffs]}

    def __repr__(self) -> str:
        return f"DicksonMatrix(size={self.size}, coeffs={list(self.coeffs)})"


def fingerprint_to_bytes(tower: FieldTower, fingerprint: Sequence[int]) -> bytes:
    """Canonical serialization: JSON array of coefficient-digit arrays in
    mask order, compact separators."""
    return b"[" + b",".join(map(tower.coeffs_json, fingerprint)) + b"]"


def fingerprint_digest(tower: FieldTower, fingerprint: Sequence[int]) -> int:
    """fnv1a64(fingerprint_to_bytes(tower, fingerprint)) by the tables."""
    return fingerprint_digests(tower, [fingerprint])[0]


def fingerprint_digests(tower: FieldTower, fingerprints: list) -> List[int]:
    """fingerprint_digest of each of the equal-length fingerprints, from its
    head's memoized state one entry position at a time per block of 1024."""
    if len(set(map(len, fingerprints))) > 1:
        raise ValueError("fingerprints of different lengths")
    if not fingerprints or not fingerprints[0]:
        return [fnv1a64(b"[]")] * len(fingerprints)
    heads, steps = _DIGESTS.get(tower) or _DIGESTS.setdefault(tower, ({}, {}))
    json, get, mask, out = tower.coeffs_json, steps.get, _MASK64, []
    head = operator.itemgetter(0, 1, 2) if len(fingerprints[0]) > 3 else tuple
    for lo in range(0, len(fingerprints), 1024):  # a block's columns stay in cache
        block = fingerprints[lo:lo + 1024]
        hs = [heads.get(v) or _digest_head(heads, json, v)
              for v in map(head, block)]
        for k in range(3, len(block[0])):
            hs = [(h * s[0] + c) & mask if (c := (s := get(v)) and s[1][h & 127])
                  else _digest_step(steps, json, h, v)
                  for h, v in zip(hs, map(operator.itemgetter(k), block))]
        out += [((h ^ 0x5D) * _FNV_PRIME) & mask for h in hs]  # the closing "]"
    return out


def _digest_head(heads: dict, json, head: tuple) -> int:
    """The state after "[" and head's entries, by bytes; kept below the cap."""
    h = fnv1a64(b"[" + b",".join(map(json, head)))
    if len(heads) < _DIGEST_VALUES:
        heads[head] = h
    return h


def _digest_step(steps: dict, json, h: int, v: int) -> int:
    """h after "," + json(v): bytes for v's first two steps, the second making
    its table (past the cap, new values get none); then the table, filled as read."""
    step = steps.get(v)
    if not step:
        data = b"," + json(v)
        if step is not None or len(steps) < _DIGEST_VALUES:
            steps[v] = () if step is None else (
                pow(_FNV_PRIME, len(data), 1 << 64),
                array("Q", bytes(1024)), data)
        return fnv1a64(data, h)
    pk, c, data = step
    x = h & 127
    if not c[x]:
        c[x] = (fnv1a64(data, x) - x * pk) & _MASK64
    return (h * pk + c[x]) & _MASK64
