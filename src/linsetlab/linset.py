"""F_q-subspaces of F_{q^n}^r and their linear sets of projective points.

A Subspace holds a canonical (reduced-echelon over F_q) basis of vectors
with packed-integer coordinates, reduced on the packed vectors themselves
(see _echelon), so nothing is flattened to F_q digits and rebuilt;
flat_rows() flattens on first read.  Its linear set is the multiset-free set
of projective points spanned by nonzero vectors, each carrying a weight
w(P) = log_q |{lambda : lambda*P in U}|.  The module provides the graph
construction for linearized polynomials, weights and spectra, the perp
duality on the line, the club / pseudoregulus / generalized constructions
with their decompositions and partners, F_{q^d}-line detection, the
multi-matrix coefficient maps used for r >= 3, cones in PG(2, q^n), and a
verified lower bound for the set-level field of linearity.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .dickson import FINGERPRINT_BOUND, DicksonMatrix
from .errors import (
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
from .gf import FieldElement, FieldTower, enumeration_budget
from .linpoly import LinearizedPolynomial, _adjoint_coeffs, _unwrap

Vector = Tuple[int, ...]
Point = Tuple[int, ...]


def canonical_point(tower: FieldTower, vec: Sequence[int]) -> Point:
    """Scale by the inverse of the first nonzero coordinate (left to right)."""
    lead = next((v for v in vec if v), None)
    if lead is None:
        raise ValueError("the zero vector spans no projective point")
    if lead == 1:
        return tuple(vec)
    inv = tower.inv(lead)
    return tuple(tower.mul(inv, v) for v in vec)


def _flatten(tower: FieldTower, vec: Sequence[int]) -> List[int]:
    out: List[int] = []
    for v in vec:
        out.extend(tower.q_coords(v))
    return out


def _unflatten(tower: FieldTower, row: Sequence[int], r: int) -> Vector:
    n = tower.n
    return tuple(tower.from_q_coords(row[i * n:(i + 1) * n]) for i in range(r))


def _echelon(tower: FieldTower, r: int,
             vectors: Sequence[Vector]) -> Tuple[List[int], List[Vector]]:
    """Reduced echelon form over F_q of packed vectors: (pivots, rows).

    Flat column i*n + j is F_q-coordinate j of component i, read with
    q_coord; rows are scaled and subtracted by F_q scalars.  As q_coords is
    F_q-linear and the reduced form unique, this is linalg.rref of the
    flattened rows, unflattened."""
    n = tower.n
    q_coord, mul, sub, inv = tower.q_coord, tower.mul, tower.sub, tower.inv
    mat = [list(v) for v in vectors]
    pivots: List[int] = []
    for col in range(r * n):
        rank = len(pivots)
        if rank == len(mat):
            break
        i, j = divmod(col, n)
        piv = next((k for k in range(rank, len(mat))
                    if mat[k][i] and q_coord(mat[k][i], j)), None)
        if piv is None:
            continue
        prow = mat[piv]
        mat[piv] = mat[rank]
        c = q_coord(prow[i], j)
        if c != 1:
            c = inv(c)
            prow = [mul(c, v) for v in prow]
        mat[rank] = prow
        for k, row in enumerate(mat):
            f = k != rank and row[i] and q_coord(row[i], j)
            if f:
                mat[k] = list(map(sub, row, prow if f == 1
                                  else [mul(f, b) for b in prow]))
        pivots.append(col)
    return pivots, [tuple(row) for row in mat[:len(pivots)]]


class Subspace:
    """An F_q-subspace of F_{q^n}^r with canonical echelonized basis."""

    __slots__ = ("tower", "r", "basis", "m", "_pivots", "_flat",
                 "_graph_poly", "_points")

    def __init__(self, tower: FieldTower, r: int, vectors: Iterable[Sequence]):
        if r < 1:
            raise ValueError("ambient dimension r must be positive")
        raw = []
        for vec in vectors:
            vals = tuple(_unwrap(tower, c) for c in vec)
            if len(vals) != r:
                raise ValueError(f"vector length {len(vals)} != r = {r}")
            raw.append(vals)
        self._set_echelon(tower, r, *_echelon(tower, r, raw))

    def _set_echelon(self, tower: FieldTower, r: int, pivots: Iterable[int],
                     basis: Iterable[Vector], graph_poly=0) -> "Subspace":
        """Fill the slots from a reduced echelon form over F_q; __init__ and
        graph_subspace build every Subspace through this."""
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "m", len(self.basis))
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_flat", None)  # flattened on first read
        object.__setattr__(self, "_graph_poly", graph_poly)  # 0 = not computed
        object.__setattr__(self, "_points", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    # -- basic structure ---------------------------------------------------------

    def flat_rows(self) -> Tuple[Tuple[int, ...], ...]:
        if self._flat is None:
            object.__setattr__(self, "_flat", tuple(
                tuple(_flatten(self.tower, v)) for v in self.basis))
        return self._flat

    def contains_vector(self, vec: Sequence) -> bool:
        t = self.tower
        v = [_unwrap(t, c) for c in vec]
        if len(v) != self.r:
            raise AmbientMismatchError(
                f"vector has {len(v)} coordinates, r = {self.r}")
        q_coord, mul, sub = t.q_coord, t.mul, t.sub
        for col, row in zip(self._pivots, self.basis):
            i, j = divmod(col, t.n)
            c = v[i] and q_coord(v[i], j)
            if c:
                v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
        return not any(v)

    def same_ambient(self, other: "Subspace") -> bool:
        return self.tower == other.tower and self.r == other.r

    def scale(self, lam) -> "Subspace":
        t = self.tower
        lv = _unwrap(t, lam)
        if lv == 0:
            raise ZeroParameterError("scaling by zero collapses the subspace")
        return Subspace(t, self.r,
                        [tuple(t.mul(lv, c) for c in v) for v in self.basis])

    def transform(self, matrix: Sequence[Sequence]) -> "Subspace":
        """Right action v -> v*M on row vectors."""
        t = self.tower
        M = [[_unwrap(t, c) for c in row] for row in matrix]
        if len(M) != self.r or any(len(row) != self.r for row in M):
            raise ValueError(f"transform must be {self.r}x{self.r}")
        new = []
        for v in self.basis:
            new.append(tuple(
                _sum_terms(t, (t.mul(v[k], M[k][i]) for k in range(self.r)))
                for i in range(self.r)))
        return Subspace(t, self.r, new)

    # -- graph recovery ------------------------------------------------------------

    def as_graph_poly(self) -> Optional[LinearizedPolynomial]:
        """The f with self = {(x, f(x))}, or None if self is not a graph."""
        if self._graph_poly != 0:
            return self._graph_poly if self._graph_poly is not None else None
        result = self._recover_graph_poly()
        object.__setattr__(self, "_graph_poly", result)
        return result

    def _recover_graph_poly(self) -> Optional[LinearizedPolynomial]:
        t = self.tower
        if self.r != 2 or self.m != t.n:
            return None
        if weight(self, (0, 1)) != 0:
            return None
        # the projection to the first coordinate is bijective: solve, for each
        # power-basis element x^j, the combination of basis vectors hitting it
        first = [t.q_coords(v[0]) for v in self.basis]
        columns = [[first[k][i] for k in range(self.m)] for i in range(t.n)]
        images = []
        for xj in t.power_basis:
            combo = linalg.solve(t, columns, list(t.q_coords(xj)))
            if combo is None:
                return None  # unreachable once the weight test passed
            y = _sum_terms(t, (t.mul(c, v[1])
                               for c, v in zip(combo, self.basis)))
            images.append(y)
        # Moore system: sum_i a_i (x^j)^(q^i) = images[j]
        moore = [[t.frobenius(x, i) for i in range(t.n)] for x in t.power_basis]
        coeff = linalg.solve(t, moore, images)
        if coeff is None:
            return None
        f = LinearizedPolynomial(t, coeff)
        return f

    # -- value semantics --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.tower == other.tower
                and self.r == other.r and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.r, self.basis, self.tower.order))

    def to_json(self) -> dict:
        t = self.tower
        return {"r": self.r,
                "basis": [[list(t.coeffs_of(c)) for c in v] for v in self.basis]}

    def __repr__(self) -> str:
        return f"Subspace(r={self.r}, m={self.m})"


def subspace_from_json(tower: FieldTower, obj: dict) -> Subspace:
    vectors = [[tower.from_coeffs(c).val for c in vec] for vec in obj["basis"]]
    return Subspace(tower, int(obj["r"]), vectors)


def _sum_terms(tower: FieldTower, terms: Iterable[int]) -> int:
    acc = 0
    add = tower.add
    for v in terms:
        acc = add(acc, v)
    return acc


# ---------------------------------------------------------------------------
# linear sets
# ---------------------------------------------------------------------------

class LinearSet:
    """Projective point set with weights; immutable once built."""

    __slots__ = ("tower", "r", "m", "points")

    def __init__(self, tower: FieldTower, r: int, m: int,
                 points: Dict[Point, int]):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "points", dict(points))
        q = tower.q
        total = sum(q ** w - 1 for w in self.points.values())
        if total != q ** m - 1:
            raise AssertionError(
                f"spectrum identity violated: {total} != q^m - 1 = {q ** m - 1}")

    def __setattr__(self, *a):
        raise AttributeError("LinearSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: Point) -> bool:
        return tuple(point) in self.points

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    def weight_of(self, point: Sequence[int]) -> int:
        return self.points.get(tuple(point), 0)

    def spectrum(self) -> Dict[int, int]:
        """weight -> number of points of that weight."""
        out: Dict[int, int] = {}
        for w in self.points.values():
            out[w] = out.get(w, 0) + 1
        return dict(sorted(out.items()))

    def sorted_points(self) -> List[Point]:
        return sorted(self.points)

    def to_json(self) -> dict:
        t = self.tower
        pts = [{"coords": [list(t.coeffs_of(c)) for c in p],
                "weight": self.points[p]} for p in self.sorted_points()]
        spectrum = [self.spectrum().get(j, 0) for j in range(1, t.n + 1)]
        return {"points": pts, "spectrum": spectrum}

    def spectrum_csv(self) -> str:
        lines = ["weight,count"]
        for w, c in self.spectrum().items():
            lines.append(f"{w},{c}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"LinearSet({len(self.points)} points, m={self.m})"


def graph_subspace(f: LinearizedPolynomial) -> Subspace:
    """The n-dimensional subspace {(x, f(x)) : x in F_{q^n}} of F_{q^n}^2.
    Its rows (x^j, f(x^j)) are already the reduced echelon form, pivots
    0..n-1, as q_coords(x^j) is the unit vector e_j."""
    t = f.tower
    return object.__new__(Subspace)._set_echelon(
        t, 2, range(t.n), [(xj, f.evaluate(xj)) for xj in t.power_basis], f)


def weight(U: Subspace, point: Sequence) -> int:
    """log_q of the number of lambda with lambda*point in U."""
    t = U.tower
    vec = tuple(_unwrap(t, c) for c in point)
    if len(vec) != U.r:
        raise AmbientMismatchError(f"point has {len(vec)} coordinates, r = {U.r}")
    if not any(vec):
        raise ValueError("the zero vector is not a projective point")
    return len(_lambda_space(U, vec))


def _lambda_space(U: Subspace, point: Vector) -> List[int]:
    """Basis (packed field elements) of {lambda : lambda*point in U}."""
    t = U.tower
    n, m = t.n, U.m
    colcount = n + m
    rows: List[List[int]] = [[0] * colcount for _ in range(U.r * n)]
    for j, xj in enumerate(t.power_basis):
        col = _flatten(t, tuple(t.mul(xj, c) for c in point))
        for i in range(U.r * n):
            rows[i][j] = col[i]
    flat = U.flat_rows()
    for k in range(m):
        for i in range(U.r * n):
            rows[i][n + k] = t.neg(flat[k][i])
    kernel = linalg.nullspace(t, rows, colcount)
    out = []
    for vec in kernel:
        lam = t.from_q_coords(vec[:n])
        if lam:
            out.append(lam)
    return out


def linear_set(U: Subspace) -> LinearSet:
    """All projective points spanned by U's nonzero vectors, with weights."""
    t = U.tower
    q = t.q
    if U._points is not None:
        return U._points
    size = q ** U.m
    if size > enumeration_budget():
        raise TooLargeError(
            f"enumerating q^m = {size} vectors exceeds the budget "
            f"{enumeration_budget()} (set LINSETLAB_BUDGET to raise)")
    counts: Dict[Point, int] = {}
    for v in zip(*(t.span([bv[i] for bv in U.basis]) for i in range(U.r))):
        if not any(v):
            continue
        p = canonical_point(t, v)
        counts[p] = counts.get(p, 0) + 1
    points: Dict[Point, int] = {}
    for p, c in counts.items():
        w, qw = 0, 1
        while qw < c + 1:
            w, qw = w + 1, qw * q
        if qw != c + 1:
            raise AssertionError("point multiplicity is not q^w - 1")
        points[p] = w
    ls = LinearSet(t, U.r, U.m, points)
    object.__setattr__(U, "_points", ls)
    return ls


def _is_max_rank(U: Subspace) -> bool:
    return U.m == (U.r - 1) * U.tower.n


def sets_equal(U: Subspace, W: Subspace, verify: bool = False) -> bool:
    """Point-set equality of the two linear sets (weights ignored).

    For graphs on the line the default path compares Dickson-matrix
    fingerprints; verification mode additionally enumerates both sets,
    insists the two routes agree, and asserts the max-rank pointwise
    weight transfer whenever the sets coincide.
    """
    if not U.same_ambient(W):
        raise AmbientMismatchError("subspaces live in different ambients")
    fast: Optional[bool] = None
    if U.r == 2:
        fu, fw = U.as_graph_poly(), W.as_graph_poly()
        if fu is not None and fw is not None:
            fast = (DicksonMatrix.from_poly(fu).fingerprint()
                    == DicksonMatrix.from_poly(fw).fingerprint())
    if fast is not None and not verify:
        return fast
    lu, lw = linear_set(U), linear_set(W)
    enum = lu.point_set() == lw.point_set()
    if fast is not None and fast != enum:
        raise AssertionError(
            "fingerprint criterion disagrees with enumeration")
    if enum and _is_max_rank(U) and _is_max_rank(W):
        for p, w in lu.points.items():
            if lw.points[p] != w:
                raise AssertionError(
                    "max-rank sets coincide but weights differ at a point")
    return enum


# ---------------------------------------------------------------------------
# perp duality on the line
# ---------------------------------------------------------------------------

def perp(U: Subspace) -> Subspace:
    """Orthogonal complement w.r.t. b((x1,y1),(x2,y2)) = Tr(x1 y2 - x2 y1).

    Computed by solving the F_q-linear system; for graph subspaces the
    result is checked against the graph of the adjoint polynomial.
    """
    if U.r != 2:
        raise ValueError("perp is defined on the projective line (r = 2)")
    t = U.tower
    n = t.n
    rows = []
    for (u1, u2) in U.basis:
        row = [t.neg(t.trace_to(t.mul(u2, xj), 1)) for xj in t.power_basis]
        cols2 = [t.trace_to(t.mul(u1, xj), 1) for xj in t.power_basis]
        rows.append(row + cols2)
    kernel = linalg.nullspace(t, rows, 2 * n)
    vectors = [_unflatten(t, vec, 2) for vec in kernel]
    result = Subspace(t, 2, vectors)
    f = U.as_graph_poly()
    if f is not None:
        via_adjoint = graph_subspace(f.adjoint())
        if result != via_adjoint:
            raise AssertionError(
                "perp via linear algebra disagrees with graph of the adjoint")
        return via_adjoint
    return result


def normalize_off_infinity(U: Subspace):
    """Move U off the point (0,1) by a deterministic projective transform.

    Tries the identity, the coordinate swap, then shears (x,y) -> (x+cy, y)
    for c in ascending packed order; returns (f, transform, transformed)
    for the first transform making the image a graph subspace.
    """
    t = U.tower
    if U.r != 2:
        raise ValueError("normalization is defined on the line (r = 2)")
    if U.m != t.n:
        raise NotMaxRankError(f"need m = n, got m = {U.m}")
    candidates = [((1, 0), (0, 1)), ((0, 1), (1, 0))]
    for c in range(t.order):
        candidates.append(((1, 0), (c, 1)))
    for M in candidates:
        V = U.transform(M) if M != ((1, 0), (0, 1)) else U
        if weight(V, (0, 1)) == 0:
            f = V.as_graph_poly()
            if f is None:
                raise AssertionError("graph recovery failed after (0,1) left the set")
            return f, M, V
    raise AssertionError("no normalizing transform found; the sweep must succeed")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def construct_club(a, b, lam) -> Subspace:
    """Graph of f(x) = a*x + lam*Tr_{q^n|q}(b*x); the point (1,a) gets
    weight n-1 and every other point weight 1."""
    t = _common_tower(a, b, lam)
    av, bv, lv = (_unwrap(t, v) for v in (a, b, lam))
    if bv == 0 or lv == 0:
        raise ZeroParameterError("club parameters b and lambda must be nonzero")
    coeffs = [t.add(av, t.mul(lv, bv))]
    for i in range(1, t.n):
        coeffs.append(t.mul(lv, t.frobenius(bv, i)))
    f = LinearizedPolynomial(t, coeffs)
    return graph_subspace(f)


def construct_pseudoregulus(a, i: int) -> Subspace:
    """Graph of f(x) = a*x^(q^i) with gcd(i, n) = 1 and a nonzero."""
    t = _common_tower(a)
    av = _unwrap(t, a)
    if av == 0:
        raise ZeroParameterError("the leading coefficient must be nonzero")
    if math.gcd(i % t.n, t.n) != 1:
        raise BadExponentError(f"gcd(i, n) must be 1; got i = {i}, n = {t.n}")
    return graph_subspace(LinearizedPolynomial.monomial(t, av, i))


def _two_generator_witness(tower: FieldTower, coeffs: Sequence[int],
                           d: int) -> Optional[dict]:
    """Witness that sum_k coeffs[k]*y^(q^k), k < d, has a two-generator
    graph {lam*v0 + lam^(q^i)*v1} with gcd(i, d) = 1.

    The coefficients must lie in the degree-d subfield (d = n covers the
    whole tower).  Writing the graph that way is the same as the identity
    f(s*y + tv*y^(q^i)) = u*y + w*y^(q^i) with v0 = (s, u), v1 = (tv, w):
    the composition must kill every exponent outside {0, i}.  Raising the
    exponent-m condition to the power q^(d-m) turns the system into plain
    linear equations in (s, T) with T = tv^(q^(d-i)), so any nonzero row
    pins the solution up to scale.  Returns {"i", "v0", "v1"} with v0, v1
    independent over the subfield, or None when no exponent works.
    """
    t = tower
    for i in range(1, d):
        if math.gcd(i, d) != 1:
            continue
        rows = []
        for m in range(d):
            if m == 0 or m == i:
                continue
            rows.append((t.frobenius(coeffs[m], d - m),
                         t.frobenius(coeffs[(m - i) % d], d - m)))
        pivot = next(((al, be) for (al, be) in rows if al or be), None)
        if pivot is None:
            # unconstrained only when the support is inside {0, i}; scalar
            # maps then fail the independence check below
            cands = [(1, 0), (0, 1)]
        else:
            al, be = pivot
            cands = [(be, t.sub(0, al))]
        for s, cap in cands:
            if any(t.add(t.mul(al, s), t.mul(be, cap)) for (al, be) in rows):
                continue
            tv = t.frobenius(cap, i)
            comp = [t.add(t.mul(coeffs[m], t.frobenius(s, m)),
                          t.mul(coeffs[(m - i) % d],
                                t.frobenius(tv, (m - i) % d)))
                    for m in range(d)]
            if any(comp[m] for m in range(d) if m not in (0, i)):
                continue
            u, w = comp[0], comp[i]
            if t.sub(t.mul(s, w), t.mul(tv, u)) == 0:
                continue
            return {"i": i, "v0": (s, u), "v1": (tv, w)}
    return None


def pseudoregulus_witness(f: LinearizedPolynomial) -> Optional[dict]:
    """Two generators carrying the graph of f, when they exist.

    Finds an exponent i coprime to n and independent vectors v0, v1 in
    F_{q^n}^2 with graph(f) = {lam*v0 + lam^(q^i)*v1 : lam in F_{q^n}},
    the defining shape of the spaces that sweep out a scattered linear set
    from a single Frobenius power.  Monomials a*x^(q^i) (v0 = (1,0),
    v1 = (0,a)) and translates c*x + b*x^(q^i) (v0 = (1,c), v1 = (0,b))
    are the basic examples; the inverse maps of such binomials qualify as
    well.  Returns {"i", "v0", "v1"} or None.
    """
    return _two_generator_witness(f.tower, f.coeffs, f.tower.n)


def _common_tower(*vals) -> FieldTower:
    for v in vals:
        if isinstance(v, FieldElement):
            return v.tower
    raise TypeError("pass at least one FieldElement so the tower is known")


def _trace_form_coeffs(t: FieldTower, bs: Sequence[int], a: int,
                       d: int) -> List[int]:
    """Coefficients of sum_{0<i<d} b_i * Tr_{q^n|q^d}(a*x)^(q^i): b_i * a^(q^k)
    at k = j*d + i, and 0 at the multiples of d (bs[0] is ignored)."""
    mul, frob = t.mul, t.frobenius
    return [mul(bs[k % d], frob(a, k)) if k % d else 0 for k in range(t.n)]


def construct_generalized(fprime: LinearizedPolynomial, bs: Sequence,
                          a, d: int) -> Subspace:
    """Graph of f(x) = f'(x) + sum_{i=1}^{d-1} b_i * Tr_{q^n|q^d}(a*x)^(q^i).

    Requires d | n with 1 < d < n, f' linear over F_{q^d}, the b_i in
    F_{q^d} and not all zero (index 0 is ignored), and a nonzero.
    """
    t = fprime.tower
    n = t.n
    if not (1 < d < n) or n % d != 0:
        raise BadParametersError(f"need a divisor 1 < d < n; got d = {d}, n = {n}")
    av = _unwrap(t, a)
    if av == 0:
        raise BadParametersError("parameter a must be nonzero")
    if fprime.linearity_gcd() % d != 0:
        raise BadParametersError("f' must be F_(q^d)-linear")
    bvals = [_unwrap(t, b) for b in bs]
    if len(bvals) != d:
        raise BadParametersError(f"need exactly d = {d} inner coefficients")
    for bvi in bvals:
        if not t.in_subfield(bvi, d):
            raise BadParametersError("inner coefficients must lie in F_(q^d)")
    if not any(bvals[1:]):
        raise BadParametersError("inner coefficients b_1..b_(d-1) cannot all vanish")
    trace = LinearizedPolynomial(t, _trace_form_coeffs(t, bvals, av, d))
    return graph_subspace(fprime + trace)


class GeneralizedDecomposition:
    """The pieces of U = U_d + U_xi for a generalized construction.

    bs holds the coefficients of the inner polynomial
    g_0(y) = sum b_i y^(q^i) that presents U_xi as {y*v0 + g_0(y)*v1} in
    the frame v0 = (xi, f'(xi)), v1 = (0, 1).
    """

    __slots__ = ("u_d", "xi", "u_xi", "fprime", "bs", "a", "d", "tower")

    def __init__(self, u_d, xi, u_xi, fprime, bs, a, d, tower):
        for name, val in (("u_d", u_d), ("xi", xi), ("u_xi", u_xi),
                          ("fprime", fprime), ("bs", bs), ("a", a),
                          ("d", d), ("tower", tower)):
            object.__setattr__(self, name, val)

    def __setattr__(self, *a):
        raise AttributeError("GeneralizedDecomposition is immutable")

    def __iter__(self):
        return iter((self.u_d, self.xi, self.u_xi))


def decompose(U: Subspace, d: int, a) -> GeneralizedDecomposition:
    """Split a generalized-construction graph into U_d (+) U_xi.

    U_d = {(x, f'(x)) : Tr_{q^n|q^d}(a x) = 0} has F_q-dimension n - d;
    U_xi = {(xi*y, f(xi*y)) : y in F_{q^d}} has dimension d, where xi is
    the first element (packed order) with Tr_{q^n|q^d}(a xi) = 1.
    """
    t = U.tower
    n = t.n
    f = U.as_graph_poly()
    if f is None:
        raise DecompositionFailedError("subspace is not a graph")
    if not (1 < d < n) or n % d != 0:
        raise DecompositionFailedError(f"d = {d} is not a proper divisor of n = {n}")
    av = _unwrap(t, a)
    if av == 0:
        raise DecompositionFailedError("parameter a must be nonzero")
    # recover f' (support on multiples of d) and the inner coefficients
    coeffs = f.coeffs
    bs = [0] * d
    for i in range(1, d):
        bs[i] = t.div(coeffs[i], t.frobenius(av, i))
        if not t.in_subfield(bs[i], d):
            raise DecompositionFailedError(
                "recovered inner coefficient leaves F_(q^d)")
    if not any(bs[1:]):
        raise DecompositionFailedError("inner coefficients all vanish")
    fprime = LinearizedPolynomial(
        t, [c if k % d == 0 else 0 for k, c in enumerate(coeffs)])
    if fprime + LinearizedPolynomial(t, _trace_form_coeffs(t, bs, av, d)) != f:
        raise DecompositionFailedError(
            "coefficients do not match the generalized construction")
    # U_d: kernel of x -> Tr_d(a x), carried through the graph
    trace_rows = [t.q_coords(t.trace_to(t.mul(av, xj), d)) for xj in t.power_basis]
    cols = [[trace_rows[j][i] for j in range(n)] for i in range(n)]
    kernel = linalg.nullspace(t, cols, n)
    kd_vectors = []
    for vec in kernel:
        x = t.from_q_coords(vec)
        kd_vectors.append((x, fprime.evaluate(x)))
    u_d = Subspace(t, 2, kd_vectors)
    if u_d.m != n - d:
        raise DecompositionFailedError("U_d has the wrong dimension")
    xi = next((v for v in range(t.order)
               if t.trace_to(t.mul(av, v), d) == 1), None)
    if xi is None:
        raise DecompositionFailedError("no element of trace 1 found")
    xys = [t.mul(xi, y) for y in t.powers(t.subfield_generator(d), d)]
    u_xi = Subspace(t, 2, [(xy, f.evaluate(xy)) for xy in xys])
    if u_xi.m != d:
        raise DecompositionFailedError("U_xi has the wrong dimension")
    total = Subspace(t, 2, list(u_d.basis) + list(u_xi.basis))
    if total != U or total.m != n:
        raise DecompositionFailedError("U_d + U_xi fails to rebuild U")
    return GeneralizedDecomposition(u_d, xi, u_xi, fprime, tuple(bs), av, d, t)


def generalized_partner(U: Subspace, d: int, a, mode: str,
                        j: Optional[int] = None) -> Subspace:
    """Partner W = U_d (+) W_xi with the same linear set as U.

    mode "perp_d": the inner polynomial is replaced by its adjoint over
    the inner d-term structure.  mode "pseudoregulus": the inner
    polynomial must be a single monomial b*y^(q^i) with gcd(i, d) = 1, and
    is replaced by b*y^(q^j) with gcd(j, d) = 1.  mode "trivial": W = U.
    """
    dec = decompose(U, d, a)
    t = dec.tower
    bs = list(dec.bs)
    if mode == "trivial":
        inner = bs
    elif mode == "perp_d":
        inner = _adjoint_coeffs(t, bs)
    elif mode == "pseudoregulus":
        support = [i for i, b in enumerate(bs) if b]
        if len(support) != 1 or support[0] == 0:
            raise BadModeError(
                "pseudoregulus mode needs a single inner monomial of positive index")
        i = support[0]
        if math.gcd(i, d) != 1:
            raise BadModeError(f"inner exponent i = {i} must be coprime to d = {d}")
        if j is None or math.gcd(j % d, d) != 1:
            raise BadModeError(f"target exponent j must be coprime to d = {d}")
        inner = [0] * d
        inner[j % d] = bs[i]
    else:
        raise BadModeError(f"unknown mode {mode!r}")
    f_at_xi = dec.fprime.evaluate(dec.xi)
    g = LinearizedPolynomial(t, inner)
    w_vectors = [(t.mul(dec.xi, y), t.add(t.mul(f_at_xi, y), g.evaluate(y)))
                 for y in t.powers(t.subfield_generator(d), d)]
    return Subspace(t, 2, list(dec.u_d.basis) + w_vectors)


# ---------------------------------------------------------------------------
# F_{q^d}-lines inside a subspace
# ---------------------------------------------------------------------------

def fqd_lines(U: Subspace, d: int) -> List[Tuple[Point, int]]:
    """Points P with lambda*F_{q^d}*P inside U for some lambda (one witness
    lambda per point, the first in span order)."""
    t = U.tower
    if d <= 1 or t.n % d != 0:
        raise NotADivisorError(f"need a divisor d > 1 of n = {t.n}; got {d}")
    etas = t.powers(t.subfield_generator(d), d)
    out = []
    for p in linear_set(U).sorted_points():
        basis = _lambda_space(U, p)
        if len(basis) < d:
            continue
        span = t.span(basis)
        members = set(span)
        witness = None
        for lam in span:
            if not lam:
                continue
            if all(t.mul(lam, e) in members for e in etas):
                witness = lam
                break
        if witness is not None:
            out.append((p, witness))
    return out


# ---------------------------------------------------------------------------
# r >= 3: multi-matrix coefficient maps and cones
# ---------------------------------------------------------------------------

def multi_coeffs(mats: Sequence[DicksonMatrix]):
    """Map (index-set mask, psi) -> det of the mixed-column matrix whose
    column j uses matrix psi(j); equality of two maps is the point-set
    equality criterion for graphs in PG(r-1, q^n) avoiding P_infinity."""
    if not mats:
        raise ValueError("need at least one matrix")
    t = mats[0].tower
    s = mats[0].size
    r = len(mats) + 1
    if r > 4:
        raise TooLargeError("combinatorial growth limits r to 4")
    if s > FINGERPRINT_BOUND:
        raise TooLargeError(f"size {s} exceeds the bound {FINGERPRINT_BOUND}")
    for M in mats[1:]:
        if M.tower != t or M.size != s:
            raise AmbientMismatchError("matrices must share tower and size")
    rows = [M.rows() for M in mats]
    out = {(0, ()): 1}
    for mask in range(1, 1 << s):
        idx = [i for i in range(s) if mask >> i & 1]
        for psi in itertools.product(range(r - 1), repeat=len(idx)):
            sub = [[rows[psi[jj]][i][j] for jj, j in enumerate(idx)]
                   for i in idx]
            out[(mask, psi)] = linalg.det(t, sub)
    return out


def is_cone_r3(L: LinearSet, vertex: Sequence) -> bool:
    """True iff L (in PG(2, q^n)) is the union of the full projective lines
    joining the vertex to each of its other points."""
    if L.r != 3:
        raise ValueError("cone detection is for r = 3")
    t = L.tower
    v = canonical_point(t, tuple(_unwrap(t, c) for c in vertex))
    pts = L.point_set()
    if v not in pts:
        raise VertexNotInSetError("the vertex does not belong to the set")
    for p in pts:
        if p == v:
            continue
        for s in range(t.order):
            joined = tuple(t.add(pc, t.mul(s, vc)) for pc, vc in zip(p, v))
            if canonical_point(t, joined) not in pts:
                return False
    return True


# ---------------------------------------------------------------------------
# set-level field of linearity (verified lower bound)
# ---------------------------------------------------------------------------

def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]

_REFUTE_NODE_BUDGET = 50000


class _BudgetOut(Exception):
    pass


def set_linearity(U: Subspace) -> Tuple[int, bool]:
    """(d, exact): the largest divisor d of n with U closed under F_{q^d}
    scalars, plus an exactness flag for the set-level notion.

    A scalar multiple lambda*U is closed under F_{q^d}-scaling exactly when
    U is, so the lambda-sweep collapses to a single closure test.  The flag
    is True when d = n, or when (only for q^n <= 2^10) counting or a
    budgeted exhaustive search refutes every larger divisor; otherwise the
    value is only a verified lower bound.  Counting: no candidate rank
    exceeds (r-1)n (_rank_feasible); and an F_{q^n}-subspace spans 0, 1,
    q^n + 1, ... points, while a U of rank m <= n whose basis meets two
    points spans 2 to (q^m - 1)/(q - 1) < q^n + 1 of them.
    """
    t = U.tower
    n = t.n
    lower = 1
    for d in sorted(_divisors(n), reverse=True):
        if d == 1:
            break
        eta = t.subfield_generator(d)
        if all(U.contains_vector(tuple(t.mul(eta, c) for c in v))
               for v in U.basis):
            lower = d
            break
    if lower == n:
        return lower, True
    if t.order > 2 ** 10:
        return lower, False
    if _fqn_excluded(U, lower):
        return lower, True
    L = linear_set(U)
    for d in _divisors(n):
        if d <= lower:
            continue
        if not _rank_feasible(t.q, d, n, U.r, len(L.points)):
            continue  # no candidate rank fits, so d is refuted outright
        found = _search_fqd_subspace(U, L, d, _REFUTE_NODE_BUDGET)
        if found is None or found:
            # budget exhausted or an actual larger subspace exists
            return lower, False
    return lower, True


def _fqn_excluded(U: Subspace, lower: int) -> bool:
    """n is the only divisor above lower, and the point count rules it out."""
    t = U.tower
    return ([d for d in _divisors(t.n) if d > lower] == [t.n] and U.m <= t.n
            and len({canonical_point(t, v) for v in U.basis}) > 1)


def _rank_feasible(q: int, d: int, n: int, r: int, npts: int) -> bool:
    """Can any F_{q^d}-subspace V of F_{q^n}^r span exactly npts points?

    The nonzero vectors of V split over the points with weights that are
    positive multiples of d (and at most n), so q^dim(V) - 1 must be a sum
    of npts terms q^(k*d) - 1.  A V of rank m > (r-1)n meets each point (an
    n-dimensional F_q-space in rn dimensions), so L_V is all of PG(r-1, q^n)
    and npts = (q^(rn)-1)/(q^n-1).  False refutes every candidate V at once.
    """
    levels = [q ** (k * d) - 1 for k in range(1, n // d + 1)]
    hi = npts * levels[-1]
    top = n * (r if npts == (q ** (r * n) - 1) // (q ** n - 1) else r - 1)
    m = d
    while m <= top:
        total = q ** m - 1
        if total > hi:
            return False
        sums = {0}
        for _ in range(npts):
            sums = {s + lv for s in sums for lv in levels if s + lv <= total}
            if not sums:
                break
        if total in sums:
            return True
        m += d
    return False


def _search_fqd_subspace(U: Subspace, L: LinearSet, d: int,
                         budget: int) -> Optional[bool]:
    """Does some F_{q^d}-subspace V (of any rank) satisfy L_V = L?

    Returns True/False, or None when the node budget runs out.  V is grown
    point by point: each step adjoins the F_{q^d}-line of a witness vector
    for the first uncovered point, pruning when the span leaves the cone
    over L.
    """
    t = U.tower
    pts = L.sorted_points()
    target = set(pts)
    etas = t.powers(t.subfield_generator(d), d)
    # two witness vectors on the same F_{q^d}-line span the same candidate,
    # so one scalar per coset of F_{q^d}^* is enough
    sub_units = [u for u in t.subfield_elements(d) if u]
    coset_reps, seen = [], set()
    for lam in range(1, t.order):
        if lam in seen:
            continue
        coset_reps.append(lam)
        seen.update(t.mul(lam, u) for u in sub_units)
    f_q = [c for c in t.subfield_elements(1) if c]
    zero = (0,) * U.r
    nodes = [0]

    def grow(span, covered):
        # span holds every vector of the current subspace, covered its points
        nodes[0] += 1
        if nodes[0] > budget:
            raise _BudgetOut
        if covered == target:
            return True
        missing = next(p for p in pts if p not in covered)
        for lam in coset_reps:
            cand = tuple(t.mul(lam, c) for c in missing)
            new_span = set(span)
            new_cov = set(covered)
            ok = True
            for e in etas:
                bv = tuple(t.mul(e, c) for c in cand)
                if bv in new_span:
                    continue
                fresh = []
                for c in f_q:
                    shifted = tuple(t.mul(c, x) for x in bv)
                    for v in new_span:
                        w = tuple(t.add(a, b) for a, b in zip(v, shifted))
                        p = canonical_point(t, w)
                        if p not in target:
                            ok = False  # left the cone
                            break
                        new_cov.add(p)
                        fresh.append(w)
                    if not ok:
                        break
                if not ok:
                    break
                new_span.update(fresh)
            if ok and grow(new_span, new_cov):
                return True
        return False

    try:
        return grow({zero}, set())
    except _BudgetOut:
        return None
