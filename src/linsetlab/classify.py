"""Classification of equal-set graph pairs and exhaustive bucket searches.

classify_pair tests a pair of graph subspaces with equal principal-minor
fingerprints against a five-way case list: scalar multiple, perp multiple,
pseudoregulus, generalized pseudoregulus, generalized perp.  bucket_search
scans the full coefficient space at small (q, n), groups graphs by exact
fingerprint into buckets named by the fingerprint's 64-bit digest, and
classifies every intra-bucket pair; reports are byte-identical for any
worker count.
"""

import contextlib
import functools
import gc
import itertools
import math
import operator
import os
import random
from collections import Counter
from typing import (Callable, Collection, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import dickson, linalg
from .dickson import DicksonMatrix, fingerprint_digests
from .errors import (
    AmbientMismatchError,
    BadParametersError,
    BudgetExceededError,
    DecompositionFailedError,
    NotEqualSetsError,
    ZeroParameterError,
)
from .gf import FieldTower, build_tower, enumeration_budget
from .linpoly import LinearizedPolynomial, _unwrap, poly_from_id, poly_to_id
from .linset import (
    Subspace,
    _divisors,
    _trace_form_coeffs,
    _two_generator_witness,
    decompose,
    graph_subspace,
    linear_set,
    perp,
    pseudoregulus_witness,
    set_linearity,
)
from .orbits import (  # noqa: F401  (callers read these names from here)
    _adjoint_coeffs, _candidate_tails, _id_coeffs, _image_tails, _log_walk,
    _need_log_tables, _orbit_tails, _residue_minima, _tail_filtered,
    _twist_coeffs, _twist_scalar)

CASES = ("multiple", "perp_multiple", "pseudoregulus",
         "generalized_pseudoregulus", "generalized_perp")

SCAN_CHUNK = 1 << 14
CLASSIFY_CHUNK = 64
PROGRESS_EVERY = 1 << 20
MEMBER_DUMP_LIMIT = 4096
# bucket_search runs set_linearity on every bucket at field orders up to this
LINEARITY_CHECK_ORDER = 32


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector, which a search gives nothing to find
    (it leaves no reference cycles), and restore the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class PairVerdict(NamedTuple):
    """Outcome of classifying one equal-set pair.

    case is the first matching case in test order; matched lists every case
    that was tested and found to hold (the cases are not mutually
    exclusive); witness carries the data needed to replay the claim.
    """

    case: str
    matched: Tuple[str, ...]
    witness: Dict[str, object]
    certificate: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"case": self.case, "matched": list(self.matched),
                "witness": self.witness,
                "certificate": list(self.certificate)}


# ---------------------------------------------------------------------------
# small field helpers
# ---------------------------------------------------------------------------

def _inner_point_tags(tower: FieldTower, coeffs: Sequence[int], d: int) -> frozenset:
    """Slopes of the inner graph over the nonzero subfield scalars."""
    g = LinearizedPolynomial(tower, coeffs)
    return frozenset(tower.div(g.evaluate(y), y)
                     for y in tower.subfield_elements(d) if y)


# ---------------------------------------------------------------------------
# generalized-form detection
# ---------------------------------------------------------------------------

def _detect_generalized(tower: FieldTower, coeffs: Sequence[int],
                        d: int) -> Optional[Tuple[int, int, Tuple[int, ...]]]:
    """Match coefficients against f' + lam * sum_i b_i Tr_d(a x)^(q^i).

    Returns (a, lam, bs) with every b_i in F_(q^d) and bs[0] = 0, or None
    when no such reading exists.  The multiples-of-d positions are free
    (they form the F_(q^d)-linear part); every other position must carry
    the trace form, so each residue class is either all zero or
    proportional to the Frobenius orbit of a.
    """
    n = tower.n
    i0 = next((i for i in range(1, d) if coeffs[i]), None)
    if i0 is None:
        return None
    # the ratio of consecutive entries pins a up to F_(q^d) scalars
    ratio = tower.div(coeffs[i0 + d], coeffs[i0])
    roots = tower.kth_roots(ratio, tower.q ** d - 1) if tower.has_tables else []
    if not roots:
        return None
    a = tower.frobenius(roots[0], n - i0)
    ks = [0] + [tower.div(coeffs[i], tower.frobenius(a, i)) for i in range(1, d)]
    trace = _trace_form_coeffs(tower, ks, a, d)
    if any(coeffs[k] != trace[k] for k in range(n) if k % d):
        return None
    lam = ks[i0]
    bs = tuple(tower.div(k_i, lam) for k_i in ks)
    if not all(tower.in_subfield(b, d) for b in bs):
        return None
    return a, lam, bs


def _match_inner(tower: FieldTower, dec, g: LinearizedPolynomial, tau: int,
                 d: int) -> Optional[Tuple[str, dict, Tuple[int, ...]]]:
    """Compare the inner graphs on the subline after scaling W by 1/tau."""
    gp = g.twist(tau)
    for (v1, v2) in dec.u_d.basis:
        if gp.evaluate(v1) != v2:
            return None
    fpxi = dec.fprime.evaluate(dec.xi)
    powers = tower.powers(tower.subfield_generator(d), d)
    # the scaled partner must meet the subline plane in a full inner graph
    rhs = []
    for y in powers:
        z = tower.sub(gp.evaluate(tower.mul(dec.xi, y)), tower.mul(fpxi, y))
        if not tower.in_subfield(z, d):
            return None
        rhs.append(z)
    rows = [[tower.frobenius(y, k) for k in range(d)] for y in powers]
    cs = linalg.solve(tower, rows, rhs)
    if cs is None or any(not tower.in_subfield(c, d) for c in cs):
        return None
    bs = dec.bs
    if _inner_point_tags(tower, bs, d) != _inner_point_tags(tower, cs, d):
        return None
    # scalars on the subline come from its own field, so the inner multiple
    # and perp-multiple tests are twists by units of F_(q^d)
    for target, case in ((cs, "multiple"),
                         (_adjoint_coeffs(tower, cs), "perp_multiple")):
        mu = _twist_scalar(tower, bs, target)
        if mu is not None:
            return case, {"mu": mu}, tuple(cs)
    # the inner sets agree (point tags above), so a two-generator shape on
    # both sides settles the subline pair the same way the outer case does
    if d >= 5:
        bw = _two_generator_witness(tower, bs, d)
        cw = _two_generator_witness(tower, cs, d) if bw is not None \
            else None
        if bw is not None and cw is not None:
            return ("pseudoregulus",
                    {"i": bw["i"], "j": cw["i"],
                     "b_v0": bw["v0"], "b_v1": bw["v1"],
                     "c_v0": cw["v0"], "c_v1": cw["v1"]}, tuple(cs))
    return None


def _attempt_generalized(f: LinearizedPolynomial, g: LinearizedPolynomial,
                         d: int, note: Callable[[str], None]):
    """Try the divisor-d exotic match with f supplying the decomposition."""
    t = f.tower
    det = _detect_generalized(t, f.coeffs, d)
    if det is None:
        note(f"divisor {d}: no trace form detected")
        return None
    a, lam, _bs = det
    u_scale = t.inv(lam)
    a1 = t.mul(a, lam)
    try:  # the twist's graph is f's graph scaled by u_scale
        dec = decompose(graph_subspace(f.twist(lam)), d, a1)
    except DecompositionFailedError:
        note(f"divisor {d}: decomposition failed after rescaling")
        return None
    # taus with tau * U_d inside the partner, via the stacked F_q-linear
    # conditions g(tau v1) = tau v2 over a basis of U_d
    n = t.n
    rows = []
    for (v1, v2) in dec.u_d.basis:
        cols = [t.q_coords(t.sub(g.evaluate(t.mul(bk, v1)), t.mul(bk, v2)))
                for bk in t.power_basis]
        for r in range(n):
            rows.append([cols[k][r] for k in range(n)])
    kernel = linalg.nullspace(t, rows, n)
    taus = [x for x in t.span([t.from_q_coords(v) for v in kernel]) if x]
    if not taus:
        note(f"divisor {d}: no scaling carries U_d into the partner")
        return None
    sub_units = [s for s in t.subfield_elements(d) if s]
    seen = set()
    for tau in taus:
        if tau in seen:
            continue
        for mu in sub_units:
            seen.add(t.mul(tau, mu))
        res = _match_inner(t, dec, g, tau, d)
        if res is None:
            continue
        inner_case, inner_witness, cs = res
        note(f"divisor {d}: matched with tau={tau}, inner case {inner_case}")
        if inner_case == "multiple":
            # an inner scalar match collapses the whole pair to a scalar
            # match: mu * tau^-1 * W equals u_scale * U piece by piece
            lam = t.div(t.mul(tau, u_scale), inner_witness["mu"])
            return "multiple", {"lambda": lam}
        tag = ("generalized_perp" if inner_case == "perp_multiple"
               else "generalized_pseudoregulus")
        witness = {"d": d, "a": a1, "u_scale": u_scale,
                   "w_scale": t.inv(tau), "xi": dec.xi,
                   "inner_b": list(dec.bs),
                   "inner_c": list(cs), "inner_case": inner_case,
                   "inner_witness": inner_witness}
        return tag, witness
    note(f"divisor {d}: inner comparison failed for every scaling")
    return None


# ---------------------------------------------------------------------------
# pair classification
# ---------------------------------------------------------------------------

def _classify_core(f: LinearizedPolynomial, g: LinearizedPolynomial,
                   A: Optional[DicksonMatrix], B: Optional[DicksonMatrix],
                   exhaustive: bool, certificate: Optional[List[str]]):
    """Cases that hold for a pair whose fingerprints A and B are equal; the
    caller guarantees that equality (classify_pair checks it, and bucket
    members share an exact fingerprint key).  A and B None: the caller has
    ruled out the scalar and perp cases, so diag_similar is not asked."""
    t = f.tower
    note = certificate.append if certificate is not None else (lambda s: None)
    matched: List[str] = []
    witnesses: Dict[str, dict] = {}

    if A is not None:
        lam = A.diag_similar(B)
        note(f"diag_similar(A, B): {lam}")
        if lam is not None:
            matched.append("multiple")
            witnesses["multiple"] = {"lambda": t.inv(lam)}

        lam2 = A.diag_similar(B.transpose())
        note(f"diag_similar(A, B^T): {lam2}")
        if lam2 is not None:
            matched.append("perp_multiple")
            witnesses["perp_multiple"] = {"lambda": lam2}

    # a common set swept out by a single Frobenius power: both graphs must
    # take the two-generator form {lam*v0 + lam^(q^i)*v1}, which covers the
    # monomials a*x^(q^i) as well as their translates and inverses
    if t.n >= 5:
        fw = pseudoregulus_witness(f)
        gw = pseudoregulus_witness(g) if fw is not None else None
        if fw is not None and gw is not None:
            matched.append("pseudoregulus")
            witnesses["pseudoregulus"] = {
                "i": fw["i"], "j": gw["i"],
                "f_v0": fw["v0"], "f_v1": fw["v1"],
                "g_v0": gw["v0"], "g_v1": gw["v1"]}
            note(f"two-generator graphs: i={fw['i']}, j={gw['i']}")
        else:
            note("two-generator graphs: not applicable")
    else:
        note("two-generator graphs: need n >= 5")

    if exhaustive or not matched:
        for d in _divisors(t.n)[1:-1]:
            hit = _attempt_generalized(f, g, d, note)
            if hit is None:
                swapped = _attempt_generalized(g, f, d, note)
                if swapped is not None:
                    hit = (swapped[0], {**swapped[1], "orientation": "swapped"})
            if hit is not None:
                tag, wit = hit
                if tag not in matched:
                    matched.append(tag)
                    witnesses[tag] = wit
                if not exhaustive:
                    break
    return matched, witnesses


def classify_pair(f: LinearizedPolynomial, g: LinearizedPolynomial,
                  exhaustive: bool = False) -> PairVerdict:
    """Classify a pair of graphs whose linear sets coincide.

    Cases are tested in a fixed order (multiple, perp multiple,
    pseudoregulus, then divisor forms); the verdict's case is the first
    match and matched lists every case found.  With exhaustive=True the
    divisor forms are probed even after an early match.
    """
    if f.tower != g.tower:
        raise AmbientMismatchError("pair must live in one tower")
    A = DicksonMatrix.from_poly(f)
    B = DicksonMatrix.from_poly(g)
    if A.fingerprint() != B.fingerprint():
        raise NotEqualSetsError(
            "fingerprints differ, so the linear sets are not equal")
    certificate = ["fingerprints: equal"]
    matched, witnesses = _classify_core(f, g, A, B, exhaustive, certificate)
    case = matched[0] if matched else "unknown"
    return PairVerdict(case, tuple(matched), witnesses.get(case, {}),
                       tuple(certificate))


def _two_generator_span(tower: FieldTower, i: int, v0, v1) -> Subspace:
    """The F_q-space {lam*v0 + lam^(q^i)*v1} built vector by vector."""
    vecs = []
    for lam in tower.power_basis:
        lq = tower.frobenius(lam, i)
        vecs.append((tower.add(tower.mul(lam, v0[0]), tower.mul(lq, v1[0])),
                     tower.add(tower.mul(lam, v0[1]), tower.mul(lq, v1[1]))))
    return Subspace(tower, 2, vecs)


def _independent(tower: FieldTower, v0, v1) -> bool:
    return tower.mul(v0[0], v1[1]) != tower.mul(v0[1], v1[0])


def _two_generator_holds(tower: FieldTower, coeffs: Sequence[int], d: int,
                         i: int, v0, v1) -> bool:
    """Coefficientwise re-check of f(s*y + tv*y^(q^i)) = u*y + w*y^(q^i)."""
    if not _independent(tower, v0, v1):
        return False
    (s, u), (tv, w) = v0, v1
    for m in range(d):
        cm = tower.add(tower.mul(coeffs[m], tower.frobenius(s, m)),
                       tower.mul(coeffs[(m - i) % d],
                                 tower.frobenius(tv, (m - i) % d)))
        if cm != (u if m == 0 else w if m == i else 0):
            return False
    return True


def replay_verdict(f: LinearizedPolynomial, g: LinearizedPolynomial,
                   verdict: PairVerdict) -> bool:
    """Re-verify a verdict's witness by direct subspace computations.

    This is intentionally separate code from the classification search:
    a scalar claim W = lam*U is checked as equal dimensions plus lam*v in
    W for each basis vector v of U, a perp claim the same way against the
    bilinear-form complement of U, and divisor claims by rebuilding the
    partner from the stored decomposition data.
    """
    return _replay(verdict, graph_subspace(f), graph_subspace(g), perp)


def _replay(verdict: PairVerdict, U: Subspace, W: Subspace,
            perp_of: Callable[[Subspace], Subspace]) -> bool:
    """replay_verdict on the graphs U of f and W of g; perp_of(V) is perp(V)."""
    t = U.tower
    case = verdict.case
    wit = dict(verdict.witness)
    if case == "unknown":
        return not verdict.matched
    if wit.pop("orientation", None) == "swapped":
        U, W = W, U
    if case in ("multiple", "perp_multiple"):
        V = U if case == "multiple" else perp_of(U)
        lam = _unwrap(t, wit["lambda"])
        if not lam:
            raise ZeroParameterError("scaling by zero collapses the subspace")
        return W.m == V.m and all(W.contains_vector([t.mul(lam, c) for c in v])
                                  for v in V.basis)
    if case == "pseudoregulus":
        i, j = wit["i"], wit["j"]
        return (t.n >= 5
                and math.gcd(i, t.n) == 1 and math.gcd(j, t.n) == 1
                and _independent(t, wit["f_v0"], wit["f_v1"])
                and _independent(t, wit["g_v0"], wit["g_v1"])
                and _two_generator_span(t, i, wit["f_v0"], wit["f_v1"]) == U
                and _two_generator_span(t, j, wit["g_v0"], wit["g_v1"]) == W
                and linear_set(U).point_set() == linear_set(W).point_set())
    if case in ("generalized_pseudoregulus", "generalized_perp"):
        d = wit["d"]
        try:
            dec = decompose(U.scale(wit["u_scale"]), d, wit["a"])
        except DecompositionFailedError:
            return False
        if dec.xi != wit["xi"]:
            return False
        bs = list(dec.bs)
        cs = list(wit["inner_c"])
        if bs != list(wit["inner_b"]):
            return False
        wp = W.scale(wit["w_scale"])
        # the scaled partner is U_d plus the claimed inner graph
        fpxi = dec.fprime.evaluate(dec.xi)
        inner = LinearizedPolynomial(t, cs)
        vecs = list(dec.u_d.basis)
        for y in t.powers(t.subfield_generator(d), d):
            vecs.append((t.mul(dec.xi, y),
                         t.add(t.mul(fpxi, y), inner.evaluate(y))))
        if wp != Subspace(t, 2, vecs):
            return False
        if _inner_point_tags(t, bs, d) != _inner_point_tags(t, cs, d):
            return False
        iw = wit["inner_witness"]
        if wit["inner_case"] == "multiple":
            mu = iw["mu"]
            return all(cs[k] == t.mul(bs[k], t.pow(mu, t.q ** k - 1))
                       for k in range(d))
        if wit["inner_case"] == "perp_multiple":
            mu = iw["mu"]
            return all(t.frobenius(cs[(d - k) % d], k)
                       == t.mul(bs[k], t.pow(mu, t.q ** k - 1))
                       for k in range(d))
        if wit["inner_case"] == "pseudoregulus":
            i, j = iw["i"], iw["j"]
            return (d >= 5
                    and math.gcd(i, d) == 1 and math.gcd(j, d) == 1
                    and _two_generator_holds(t, bs, d, i,
                                             iw["b_v0"], iw["b_v1"])
                    and _two_generator_holds(t, cs, d, j,
                                             iw["c_v0"], iw["c_v1"]))
        return False
    return False


# ---------------------------------------------------------------------------
# bucket search
# ---------------------------------------------------------------------------

# (tower, principal minors) -> zero-diagonal matrix, whose shift table is shared
_SHIFT_TABLES: Dict[tuple, DicksonMatrix] = {}


@_gc_paused()
def _scan_worker(args):
    """fingerprint -> ids of one chunk's kept candidates, unsorted.  A run
    of ids (c0, tail) is every c0 of one of the range's _candidate_tails
    in a full scan (ids None), the given ids of one tail in a sampled one,
    kept as the objects the search's id list holds; it passes
    _tail_filtered once, with the twist filter on in a full scan or under
    modulo_twist.  A lone id takes the determinant route, cheaper than a
    shift table; a longer run keys each id as the shift f + c0*x of its
    tail's zero-diagonal matrix (in a full scan without modulo_twist, every
    id of each of its _orbit_tails, most outside the range).  A shift
    table reads only the principal minors, so a full scan shares one
    matrix among tails of equal minors through _SHIFT_TABLES, for one
    _scan_buckets call (a pool child's, the pool's life)."""
    descriptor, lo, hi, ids, modulo_twist = args
    tower = build_tower(*descriptor)
    order = tower.order
    full = ids is None
    if twist := modulo_twist or full:
        _need_log_tables(tower)
    runs = (((tid, range(tid * order, (tid + 1) * order))
             for tid in _candidate_tails(tower, lo // order, hi // order))
            if full else ((tid, list(run)) for tid, run in
                          itertools.groupby(ids, order.__rfloordiv__)))
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for tid, run in runs:
        tail = _tail_filtered(tower, tid, twist)
        if tail is None:
            continue
        if len(run) == 1:
            fp = DicksonMatrix(tower, [run[0] % order] + tail).fingerprint()
            groups.setdefault(fp, []).append(run[0])
            continue
        base = DicksonMatrix(tower, [0] + tail)
        if full:
            base = _SHIFT_TABLES.setdefault((tower, base._principal_minors()),
                                            base)
        for m in _orbit_tails(tower, tail) if full and not modulo_twist \
                else [tid]:
            for pid in run if m == tid else range(m * order, (m + 1) * order):
                groups.setdefault(base.fingerprint(pid % order),
                                  []).append(pid)
    return groups


def _twist_classes(tower: FieldTower, ids: Sequence[int]):
    """Settle the scalar and perp pairs of one bucket by twist class.

    Members (ids) are twists of one another exactly when they share a_0
    (every twist fixes it) and their tails share a twist orbit, so each
    class gives C(c, 2) multiple pairs; the adjoint of a twist is a twist
    of the adjoint, and fixes a_0 too, so the adjoint of one member per
    class finds the classes whose c_A * c_B cross pairs are perp_multiple.
    A class is named by a_0 and the smallest tail id of its orbit; one
    _orbit_tails walk labels every member of an orbit.  Returns (case
    counts, pairs (x, y) left for the full classifier, x < y)."""
    order = tower.order
    labels: Dict[int, int] = {}

    def label(tid: int) -> int:
        if tid not in labels:
            orbit = _orbit_tails(tower, _id_coeffs(tower, tid * order)[1:])
            labels.update(dict.fromkeys(orbit, min(orbit)))
        return labels[tid]

    cls: List[int] = []
    classes: Dict[int, int] = {}
    adj_ids: List[int] = []
    for pid in ids:
        tid, c0 = divmod(pid, order)
        k = classes.setdefault(c0 + label(tid) * order, len(classes))
        if k == len(adj_ids):
            adj = poly_to_id(LinearizedPolynomial(tower, _adjoint_coeffs(
                tower, _id_coeffs(tower, tid * order)))) // order
            adj_ids.append(c0 + label(adj) * order)
        cls.append(k)
    sizes = Counter(cls)
    adj = [classes.get(a) for a in adj_ids]
    # the adjoint map is an involution on the classes, so each related
    # pair of classes is met once with a > k
    related = [(k, a) for k, a in enumerate(adj) if a is not None and a > k]
    cases = {"multiple": sum(c * (c - 1) // 2 for c in sizes.values()),
             "perp_multiple": sum(sizes[k] * sizes[a] for k, a in related)}
    m = len(ids)
    pending = [] if sum(cases.values()) == m * (m - 1) // 2 else [
        (x, y) for x in range(m) for y in range(x + 1, m)
        if cls[x] != cls[y] and adj[cls[x]] != cls[y]]
    return {k: v for k, v in cases.items() if v}, pending


def _classify_bucket(tower: FieldTower, ids: Sequence[int], paranoid: bool):
    """(case counts in case-name order, anomalies (x, y, reason) by member
    position, set_linearity or None) of the bucket with members ids."""
    cases: Dict[str, int] = {}
    anomalies: List[Tuple[int, int, str]] = []
    pending: List[Tuple[int, int]] = []
    if paranoid:
        pending = [(x, y) for x in range(len(ids))
                   for y in range(x + 1, len(ids))]
    elif len(ids) > 1:
        # scalar and perp pairs are exactly the twist-orbit matches, so
        # the twist classes settle them without the quadratic
        # diagonal-similarity sweep
        cases, pending = _twist_classes(tower, ids)
    need = range(len(ids)) if paranoid else {k for xy in pending for k in xy}
    polys = {x: poly_from_id(tower, ids[x]) for x in need}
    # paranoid replays and point sets reuse one graph, and one perp, per member
    graphs = {x: graph_subspace(f) for x, f in polys.items()} \
        if paranoid and len(ids) > 1 else {}
    if pending:
        # outside paranoid, pending holds only the pairs the twist classes
        # left open, which are neither twists nor adjoint twists
        mats = {x: DicksonMatrix.from_poly(f)
                for x, f in polys.items()} if paranoid else {}
        perp_of = functools.lru_cache(maxsize=None)(perp)
        for x, y in pending:
            matched, wits = _classify_core(polys[x], polys[y], mats.get(x),
                                           mats.get(y), False, None)
            case = matched[0] if matched else "unknown"
            cases[case] = cases.get(case, 0) + 1
            if case == "unknown":
                anomalies.append((x, y, "unclassified pair"))
            elif paranoid:
                verdict = PairVerdict(case, tuple(matched),
                                      wits.get(case, {}), ())
                if not _replay(verdict, graphs[x], graphs[y], perp_of):
                    anomalies.append((x, y, f"replay of case {case} failed"))
    if graphs:
        base = linear_set(graphs[0]).point_set()
        for k in range(1, len(ids)):
            if linear_set(graphs[k]).point_set() != base:
                anomalies.append((0, k, "point sets differ inside a bucket"))
    lin = set_linearity(graph_subspace(poly_from_id(tower, ids[0]))) \
        if tower.order <= LINEARITY_CHECK_ORDER else None
    return dict(sorted(cases.items())), anomalies, lin


# (tower, member tails) -> _classify_bucket result, for one bucket_search
_CLASSIFIED: Dict[FieldTower, Dict[Tuple[int, ...], tuple]] = {}


@_gc_paused()
def _classify_worker(args):
    """(cases, anomalies (id, id, reason), set_linearity, clash) per item.
    (x, y) -> (x, y + gamma*x) maps the graph of f to that of f + gamma*x,
    commuting with the twist and the adjoint, and bucket members share a_0,
    so buckets with equal member tails have equal results, anomalies moved
    to their ids.  A result is stored in _CLASSIFIED under its tails and,
    in a scan of whole fingerprint classes (whole: no sample and no
    modulo_twist) when it has no anomalies, under each of its
    _image_tails.  Outside paranoid a bucket whose tails are stored takes
    that result; paranoid classifies every bucket, and clash says that its
    cases or set_linearity differ from the stored ones.  _CLASSIFIED lasts
    one bucket_search (a pool child's, the pool's life)."""
    descriptor, items, paranoid, whole = args
    tower = build_tower(*descriptor)
    memo = _CLASSIFIED.setdefault(tower, {})
    results = []
    for _key, ids in items:
        tails = tuple(map(tower.order.__rfloordiv__, ids))
        known = memo.get(tails)
        res = known if known is not None and not paranoid \
            else _classify_bucket(tower, ids, paranoid)
        cases, anomalies, lin = res
        if known is None:
            memo[tails] = res
            if whole and not anomalies:
                for image in _image_tails(tower, tails):
                    memo.setdefault(image, res)
        clash = paranoid and known is not None \
            and (known[0], known[2]) != (cases, lin)
        results.append((cases, tuple(
            (ids[x], ids[y], why) for x, y, why in anomalies)
            if anomalies else (), lin, clash))
    return results


class BucketReport:
    """Aggregated outcome of a fingerprint-bucket search."""

    def __init__(self, params: dict, total_ids: int, scanned: int,
                 buckets: Dict[str, dict], histogram: Dict[str, int],
                 anomalies: List[dict], linearity_flags: List[dict],
                 alerts: List[str]):
        self.params = params
        self.total_ids = total_ids
        self.scanned = scanned
        self.buckets = buckets
        self.histogram = histogram
        self.anomalies = anomalies
        self.linearity_flags = linearity_flags
        self.alerts = alerts
        assert sum(b["size"] for b in buckets.values()) == scanned

    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    @property
    def pair_count(self) -> int:
        return sum(self.histogram.values())

    @property
    def theorem_confirmed(self) -> bool:
        return not self.anomalies and not self.alerts

    def to_json(self) -> dict:
        out = {"params": self.params, "total_ids": self.total_ids,
               "scanned": self.scanned, "bucket_count": self.bucket_count,
               "pair_count": self.pair_count,
               "verdict_histogram": dict(sorted(self.histogram.items())),
               "anomalies": self.anomalies,
               "linearity_flags": self.linearity_flags,
               "alerts": self.alerts,
               "theorem_confirmed": self.theorem_confirmed}
        if self.bucket_count <= MEMBER_DUMP_LIMIT:
            out["buckets"] = {k: self.buckets[k]
                              for k in sorted(self.buckets)}
        return out

    def summary_csv(self) -> str:
        lines = ["case,count"]
        for case in sorted(self.histogram):
            lines.append(f"{case},{self.histogram[case]}")
        return "\n".join(lines) + "\n"


def _run_chunks(worker, chunk_args: Iterable, count: int, workers: int):
    """Yield the results of the count chunks in submission order, inline
    or via a pool of at most one process per chunk and per CPU.  Inline,
    each chunk's args are taken from chunk_args only as it is reached."""
    workers = min(workers, count, os.cpu_count() or 1)
    if workers <= 1:
        for args in chunk_args:
            yield worker(args)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, chunk_args)


def _check_scan(budget: Optional[int], workers: int, count: int) -> None:
    """Refuse a non-int budget or workers, workers below 1, then count over budget."""
    if type(workers) is not int or workers < 1 or type(budget) not in (int, type(None)):
        raise BadParametersError("workers must be an int >= 1 and budget None or "
                                 f"an int, got workers={workers!r}, budget={budget!r}")
    limit = enumeration_budget() if budget is None else budget
    if count > limit:
        raise BudgetExceededError(
            f"{count} candidate polynomials exceed the budget {limit}")


def _scan_buckets(tower: FieldTower, id_list: Optional[List[int]],
                  modulo_twist: bool, workers: int,
                  progress: Optional[Callable[[int, int], None]]):
    """Scan id_list (every id when None) and bucket the kept candidates by
    exact fingerprint; returns (visited, {fingerprint: ascending ids})."""
    if not (progress is None or callable(progress)):
        raise BadParametersError(f"progress must be None or callable, got {progress!r}")
    total = tower.order ** tower.n
    descriptor = (tower.p, tower.e, tower.n, tower.modulus)
    if id_list is None:
        # whole tails per chunk, so no tail's minors are computed twice
        step = max(SCAN_CHUNK // tower.order, 1) * tower.order
        chunk_args = [(descriptor, lo, min(lo + step, total), None,
                       modulo_twist) for lo in range(0, total, step)]
    else:
        step = SCAN_CHUNK
        chunk_args = [(descriptor, 0, 0, id_list[k:k + step], modulo_twist)
                      for k in range(0, len(id_list), step)]
    visited = total if id_list is None else len(id_list)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    next_tick = PROGRESS_EVERY
    try:
        for k, res in enumerate(_run_chunks(
                _scan_worker, chunk_args, len(chunk_args), workers)):
            for fp, ids in res.items():
                groups.setdefault(fp, []).extend(ids)
            done = min((k + 1) * step, visited)
            if progress is not None and done >= next_tick:
                progress(done, visited)
                next_tick += PROGRESS_EVERY
    finally:  # no later search reads this one's tables
        _SHIFT_TABLES.clear()
    for ids in groups.values():  # a full scan's orbits cross the chunks
        ids.sort()
    return visited, groups


def _name_buckets(digests: Sequence[int], groups: Collection[List[int]]):
    """({key: ids} in the order of groups, digest_collisions): a key is the
    digest as 16 hex digits; the groups of a repeated digest, ranked by
    ascending ids, take -1, -2, ... after the first, from a (digest, ids)
    sort of all groups, which no unrepeated digest needs."""
    named = dict(zip(map("%016x".__mod__, digests), groups))
    if len(named) == len(digests):
        return named, 0
    keys, collisions, last, idx = [""] * len(digests), 0, None, 0
    for digest, _ids, k in sorted(zip(digests, groups, itertools.count())):
        idx, last = (idx + 1 if digest == last else 0), digest
        collisions += idx == 1
        keys[k] = f"{digest:016x}" + (f"-{idx}" if idx else "")
    return dict(zip(keys, groups)), collisions


@_gc_paused()
def bucket_search(p: int, e: int, n: int, budget: Optional[int] = None, *,
                  workers: int = 1, modulo_twist: bool = False,
                  paranoid: bool = False,
                  sample: Optional[int] = None,
                  modulus: Optional[Sequence[int]] = None,
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> BucketReport:
    """Scan every linearized polynomial at (q, n), bucket by exact
    fingerprint, and classify all intra-bucket pairs.

    Candidates whose function-level field of linearity exceeds F_q are
    filtered out; with modulo_twist only the member of each twist orbit
    with the lexicographically smallest tail is kept; with sample=k only a
    deterministic random sample of k ids is scanned.  The report is
    independent of the worker count: the id space is cut into fixed
    chunks and merged in order.  Buckets stay in scan order, where a full
    scan's translate classes are runs of order buckets, each classify
    chunk holding whole runs; only the lines naming a bucket (anomalies,
    flags, alerts) are sorted by bucket key.
    """
    tower = build_tower(p, e, n, modulus)
    total = tower.order ** n
    if sample is not None and (type(sample) is not int or sample < 1):
        raise BadParametersError(f"sample must be an int >= 1, got {sample!r}")
    if sample is not None and total >= 1 << 63:  # beyond random.sample
        raise BadParametersError(f"sample needs under 2^63 ids, got {total}")
    if type(modulo_twist) is not bool or type(paranoid) is not bool:
        raise BadParametersError("modulo_twist and paranoid must be bools, got "
                                 f"{modulo_twist!r} and {paranoid!r}")
    drawn = total if sample is None else min(sample, total)
    _check_scan(budget, workers, drawn)

    id_list = None if sample is None else sorted(random.Random(0).sample(
        range(total), drawn))
    visited, groups = _scan_buckets(tower, id_list, modulo_twist, workers,
                                    progress)
    digests = fingerprint_digests(tower, list(groups))
    bucket_members, collisions = _name_buckets(digests, groups.values())
    alerts: List[str] = []
    if paranoid:  # every name's digest against the byte route
        alerts += [f"bucket of id {ids[0]}: name is not its fingerprint's digest"
                   for (fp, ids), d in zip(groups.items(), digests) if d
                   != dickson.fnv1a64(dickson.fingerprint_to_bytes(tower, fp))]
    del groups, digests  # free them before the classify phase
    small = tower.order <= LINEARITY_CHECK_ORDER
    work_items = [item for item in bucket_members.items()
                  if len(item[1]) > 1 or small]
    # whole runs of translates per chunk, so a pool classifies each once
    step = max(CLASSIFY_CHUNK // tower.order, 1) * tower.order
    chunks = range(0, len(work_items), step)
    cls_args = (((p, e, n, tower.modulus), work_items[k:k + step],
                 paranoid, sample is None and not modulo_twist)
                for k in chunks)
    try:
        results = itertools.chain.from_iterable(list(_run_chunks(
            _classify_worker, cls_args, len(chunks), workers)))
    finally:  # no later search reads this one's results
        _CLASSIFIED.clear()
    # one record per bucket in scan order, each with its own copy of cases
    buckets: Dict[str, dict] = {}
    histogram: Dict[str, int] = {}
    anomalies: List[dict] = []
    linearity_flags: List[dict] = []
    bucket_alerts: List[Tuple[str, str]] = []
    n_is_prime = len(_divisors(n)) == 2
    dump, scanned = len(bucket_members) <= MEMBER_DUMP_LIMIT, 0
    lone = ({}, (), None, False)  # the result of a bucket not classified
    for key, ids in bucket_members.items():
        cases, bucket_anoms, lin, clash = next(results) \
            if len(ids) > 1 or small else lone
        scanned += len(ids)
        record = buckets[key] = {"size": len(ids), "cases": cases.copy()}
        if clash:
            bucket_alerts.append((key, f"bucket {key}: cases or set_linearity "
                                  "differ from another bucket of its orbit"))
        for case, count in cases.items():
            histogram[case] = histogram.get(case, 0) + count
            if n_is_prime and case.startswith("generalized"):
                bucket_alerts.append((key, f"bucket {key}: case {case} at "
                                      f"prime n={n} (bug or counterexample)"))
        if bucket_anoms:
            anomalies += [{"bucket": key, "pair": [ida, idb], "reason": why}
                          for ida, idb, why in bucket_anoms]
        if lin is not None:
            dlin, exact = record["set_linearity"], record["linearity_exact"] = lin
            if dlin > 1 or not exact:
                linearity_flags.append(
                    {"bucket": key, "rep": ids[0],
                     "set_linearity": dlin, "exact": exact})
        if dump:
            record["members"] = ids
    # the lines that name a bucket, in key order (stable: each bucket's own
    # lines keep their order), after the name checks
    by_key = operator.itemgetter("bucket")
    anomalies.sort(key=by_key)
    linearity_flags.sort(key=by_key)
    alerts += [text for _, text in sorted(bucket_alerts,
                                          key=operator.itemgetter(0))]

    params = {"p": p, "e": e, "n": n, "q": tower.q,
              "modulus": list(tower.modulus), "modulo_twist": modulo_twist,
              "paranoid": paranoid, "sample": sample, "visited": visited,
              "digest_collisions": collisions}
    return BucketReport(params, total, scanned, buckets, histogram,
                        anomalies, linearity_flags, alerts)


# ---------------------------------------------------------------------------
# club uniqueness
# ---------------------------------------------------------------------------

def is_club_coeffs(tower: FieldTower, coeffs: Sequence[int]) -> bool:
    """Detect the one-heavy-point shape directly from coefficients: every
    tail coefficient nonzero, consecutive ratios a_(i+1)/a_i^q constant,
    and that constant of norm one."""
    n = tower.n
    if n < 3:
        raise ValueError("club detection needs n >= 3")
    tail = coeffs[1:]
    if not all(tail):
        return False
    c = tower.div(coeffs[2], tower.frobenius(coeffs[1], 1))
    for i in range(2, n - 1):
        if tower.div(coeffs[i + 1], tower.frobenius(coeffs[i], 1)) != c:
            return False
    return tower.norm_to(c, 1) == 1


def verify_club_uniqueness(p: int, e: int, n: int,
                           budget: Optional[int] = None, *,
                           workers: int = 1,
                           modulus: Optional[Sequence[int]] = None,
                           progress: Optional[Callable[[int, int], None]] = None
                           ) -> bool:
    """Check that every bucket containing a club holds only twist-equivalent
    members: equal fingerprints force W = lambda U when L_U is a club.
    (x, y) -> (x, y + gamma*x) carries buckets onto buckets with the same
    tails, and buckets are unions of twist orbits, which keep clubs
    (b_(i+1)/b_i^q = c*lambda^(q-1) has norm one): so no a_0 = 0 club's
    kept tail may share its fingerprint with another kept tail.
    The budget bounds all order^n ids; the scan and progress count the a_0
    = 0 ids of the _candidate_tails."""
    tower = build_tower(p, e, n, modulus)
    if n < 3:
        raise BadParametersError("club uniqueness needs n >= 3")
    _check_scan(budget, workers, tower.order ** n)
    # the scan's gcd filter drops only F_(q^d)-linear graphs (d > 1), whose
    # sets have at most (q^n-1)/(q^d-1) < q^(n-1)+1 points, fewer than a club
    _, groups = _scan_buckets(
        tower, [tid * tower.order for tid in _candidate_tails(
            tower, 0, tower.order ** (n - 1))], True, workers, progress)
    return not any(len(ids) > 1 and any(is_club_coeffs(
        tower, _id_coeffs(tower, pid)) for pid in ids)
        for ids in groups.values())
