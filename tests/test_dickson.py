"""Unit tests for Dickson matrices: entry conventions, minors/fingerprints,
characteristic values, rank, reducibility, partitions, diagonal similarity.

Derived expectations are recomputed here by brute force (kernel counting,
all-partitions search, full lambda scans) rather than trusted."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from linsetlab import dickson, gf, linalg
from linsetlab.dickson import (
    DicksonMatrix,
    FINGERPRINT_BOUND,
    fingerprint_digest,
    fingerprint_digests,
    fingerprint_to_bytes,
    fnv1a64,
)
from linsetlab.errors import (
    AmbientMismatchError,
    BadParametersError,
    EmptyIndexSetError,
    TooLargeError,
    TooSmallError,
    ZeroPolynomialError,
)
from linsetlab.linpoly import LinearizedPolynomial
from linsetlab.orbits import _twist_coeffs


def random_poly(tower, rng):
    return LinearizedPolynomial(
        tower, [rng.randrange(tower.order) for _ in range(tower.n)])


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

def test_entry_convention():
    t = gf.build_tower(2, 1, 4)
    # zero polynomial -> zero matrix
    Z = DicksonMatrix.from_poly(LinearizedPolynomial.zero(t))
    assert all(v == 0 for row in Z.rows() for v in row)
    # f = a_0 x -> diag(a_0, a_0^q, ...)
    a0 = 5
    D = DicksonMatrix.from_poly(LinearizedPolynomial(t, [a0]))
    for i in range(4):
        for j in range(4):
            want = t.frobenius(a0, i) if i == j else 0
            assert D.entry(i, j) == want
    # f = a x^(q^i): one nonzero entry per row at column (row+i) mod n
    for i in range(1, 4):
        M = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 7, i))
        for r in range(4):
            for c in range(4):
                if c == (r + i) % 4:
                    assert M.entry(r, c) == t.frobenius(7, r)
                else:
                    assert M.entry(r, c) == 0


def test_shift_covariance_of_entries_and_minors():
    rng = random.Random(2)
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(20):
            A = DicksonMatrix.from_poly(random_poly(t, rng))
            for i in range(n):
                for j in range(n):
                    assert A.entry((i + 1) % n, (j + 1) % n) == t.frobenius(A.entry(i, j), 1)
            for mask in range(1, 1 << n):
                idx = [k for k in range(n) if mask >> k & 1]
                shifted = [(k + 1) % n for k in idx]
                assert A.minor(shifted) == t.frobenius(A.minor(idx), 1)


def test_submatrix_and_minor_basics():
    t = gf.build_tower(2, 1, 3)
    A = DicksonMatrix(t, [3, 5, 6])
    assert A.submatrix((1 << 3) - 1, (1 << 3) - 1) == A.rows()
    assert A.submatrix([0], [0]) == [[3]]
    assert A.minor([0]) == 3
    assert A.minor({1}) == t.frobenius(3, 1)
    assert A.minor((1 << 3) - 1) == A.determinant()
    with pytest.raises(EmptyIndexSetError):
        A.submatrix([], [0])
    with pytest.raises(EmptyIndexSetError):
        A.minor(0)
    # mask and iterable forms agree
    assert A.submatrix(0b101, 0b011) == A.submatrix([0, 2], [0, 1])


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def test_fingerprint_shape_and_edges():
    t = gf.build_tower(2, 1, 3)
    A = DicksonMatrix(t, [1, 2, 3])
    fp = A.fingerprint()
    assert len(fp) == 8 and fp[0] == 1
    assert fp[-1] == A.determinant()
    for mask in range(1, 8):
        assert fp[mask] == A.minor(mask)
    for shift in (-1, t.order):  # not a field element
        with pytest.raises(ValueError):
            A.fingerprint(shift)
    big = gf.build_tower(2, 1, FINGERPRINT_BOUND + 1)
    with pytest.raises(TooLargeError):
        DicksonMatrix(big, [1] * big.n).fingerprint()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (3, 1, 3), (5, 1, 3), (2, 1, 5), (2, 1, 6), (2, 2, 3)]))
def test_fingerprint_equals_every_principal_minor(data, pen):
    # the necklace rule minor(I+1) = minor(I)^q against one det per mask,
    # on full-size matrices and on size-s matrices over F_(q^s), s | n;
    # the same fingerprint reached as a shift of a zero-diagonal matrix B
    # and of a nonzero-diagonal one, B.fingerprint(c), reads its row of
    # B's shift table.  Each B's shifts and table rows are also checked
    # against the determinant route for every diagonal c0 in F_(q^s),
    # c0 = 0 included; at s = n those rows are the whole table
    t = gf.build_tower(*pen)
    s = data.draw(st.sampled_from([d for d in range(1, t.n + 1) if t.n % d == 0]))
    subfield = t.subfield_elements(s)
    coeff = st.just(0) | st.sampled_from(subfield[1:])  # zeros often
    A = DicksonMatrix(t, data.draw(st.lists(coeff, min_size=s, max_size=s)))
    minors = [A.minor(mask) for mask in range(1, 1 << s)]
    by_det = {c0: DicksonMatrix(t, (c0,) + A.coeffs[1:]).fingerprint()
              for c0 in subfield}
    fps = [A.fingerprint()]
    for b0 in (0, data.draw(st.sampled_from(subfield[1:]))):
        B = DicksonMatrix(t, (b0,) + A.coeffs[1:])
        fps.append(B.fingerprint(t.sub(A.coeffs[0], b0)))
        table = B._shift_table()
        assert len(table) == t.order - 1
        for c0 in subfield:
            c = t.sub(c0, b0)
            assert B.fingerprint(c) == by_det[c0]
            if c:
                assert table[t._log[c]] == by_det[c0]
    for fp in fps:
        assert fp[0] == 1
        assert list(fp[1:]) == minors


def test_shift_without_log_tables_takes_one_det_per_necklace(monkeypatch):
    t = gf.build_tower(2, 11, 2)  # order 2^22, above the log-table cap
    assert not t.has_tables
    A, S = DicksonMatrix(t, [0, 12345]), DicksonMatrix(t, [777, 12345])
    det, calls = linalg.det, []

    def counting_det(*args):
        calls.append(args)
        return det(*args)

    monkeypatch.setattr(linalg, "det", counting_det)
    assert A.fingerprint(777) == (1, S.minor(1), S.minor(2), S.minor(3))
    assert len(calls) == 2 + 3  # two necklaces, then the three minor() calls
    # a shift outside the field, or on a size-1 matrix outside F_q, is refused
    assert not t.in_subfield(12345, 1)
    for M, shift in ((A, -1), (A, t.order), (DicksonMatrix(t, [1]), 12345)):
        with pytest.raises(ValueError):
            M.fingerprint(shift)
    # in odd characteristic the shift is f + c*x, not f - c*x
    t = gf.build_tower(3, 7, 2)
    assert not t.has_tables
    assert (DicksonMatrix(t, [0, 12345]).fingerprint(777)
            == DicksonMatrix(t, [777, 12345]).fingerprint())


def test_shift_table_without_an_add_table_sums_by_the_field_add():
    # odd p above _ADD_TABLE_CAP has log tables but no add rows, so the
    # shift table sums its columns by t.add; p = 2 sums by xor.  Every row
    # must be the determinant route's fingerprint of f + c*x
    assert gf.build_tower(2, 1, 4)._add_rows is None
    t = gf.build_tower(7, 1, 4)
    assert t.order > gf._ADD_TABLE_CAP and t.has_tables
    assert t._add_rows is None
    rng = random.Random(23)
    for tail in ([rng.randrange(1, t.order) for _ in range(3)],
                 [rng.randrange(1, t.order), 0, rng.randrange(1, t.order)]):
        table = DicksonMatrix(t, [0] + tail)._shift_table()
        for c in range(1, t.order):
            assert table[t._log[c]] == \
                DicksonMatrix(t, [c] + tail)._principal_minors()


@pytest.mark.parametrize("pen, dets", [((2, 1, 3), 3), ((2, 1, 4), 5),
                                       ((3, 1, 5), 7), ((2, 1, 10), 107)])
def test_fingerprint_takes_one_det_per_necklace(monkeypatch, pen, dets):
    t = gf.build_tower(*pen)
    A = DicksonMatrix.from_poly(random_poly(t, random.Random(4)))
    det, calls = linalg.det, []

    def counting_det(*args):
        calls.append(args)
        return det(*args)

    monkeypatch.setattr(linalg, "det", counting_det)
    A.fingerprint()
    assert len(calls) == dets


def test_fingerprint_invariances():
    rng = random.Random(8)
    t = gf.build_tower(2, 1, 4)
    for _ in range(15):
        f = random_poly(t, rng)
        A = DicksonMatrix.from_poly(f)
        lam = rng.randrange(1, t.order)
        B = DicksonMatrix.from_poly(f.twist(lam))
        assert A.fingerprint() == B.fingerprint()  # diagonal similarity
        assert A.fingerprint() == A.transpose().fingerprint()


def test_pseudoregulus_fingerprints_coincide():
    t = gf.build_tower(2, 1, 5)
    A = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 1))
    B = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 2))
    assert A.fingerprint() == B.fingerprint()


def test_monomial_minors_vanish_except_full():
    # gcd(i, n) = 1: every proper principal minor is 0 and det is the norm
    # up to the sign of the n-cycle
    for p, e, n, a, i in [(2, 1, 5, 3, 2), (3, 1, 4, 5, 1), (3, 1, 4, 7, 3)]:
        t = gf.build_tower(p, e, n)
        assert math.gcd(i, n) == 1
        A = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, a, i))
        fp = A.fingerprint()
        for mask in range(1, (1 << n) - 1):
            assert fp[mask] == 0
        norm = t.norm_to(a, 1)
        sign_is_even = (n - 1) % 2 == 0
        want = norm if sign_is_even else t.neg(norm)
        assert fp[-1] == want


def test_fingerprint_digest_is_deterministic_fnv():
    t = gf.build_tower(2, 1, 3)
    A = DicksonMatrix(t, [1, 2, 3])
    fp = A.fingerprint()
    assert A.digest() == fnv1a64(fingerprint_to_bytes(t, fp))
    assert A.digest() == fingerprint_digest(t, fp)
    assert A.digest() == A.digest()
    B = DicksonMatrix(t, [1, 2, 4])
    assert A.digest() != B.digest()
    # the byte form is the compact JSON of the coefficient-digit arrays
    rng = random.Random(6)
    for pen in [(5, 1, 3), (2, 2, 3)]:
        t = gf.build_tower(*pen)
        for _ in range(20):
            fp = DicksonMatrix.from_poly(random_poly(t, rng)).fingerprint()
            want = json.dumps([list(t.coeffs_of(v)) for v in fp],
                              separators=(",", ":"))
            assert fingerprint_to_bytes(t, fp) == want.encode("ascii")
    # pinned reference so serialization stays stable across versions
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), pen=st.sampled_from(
    [(2, 1, 4), (5, 1, 3), (3, 1, 4), (2, 2, 3), (2, 11, 2)]))
def test_table_digest_equals_the_byte_route(data, pen):
    # one table step per entry against FNV-1a over the JSON bytes, on any
    # value sequence up to a fingerprint's length and on batches of 0 to 5
    # sequences of one length: the first entry is not forced to 1, zeros
    # come often, and (2,11,2) has no log tables
    t = gf.build_tower(*pen)
    value = st.just(0) | st.integers(0, t.order - 1)
    vals = data.draw(st.lists(value, max_size=1 << t.n))
    for seq in (vals, tuple(vals), ()):
        assert fingerprint_digest(t, seq) == fnv1a64(fingerprint_to_bytes(t, seq))
    length = data.draw(st.integers(0, 1 << t.n))
    batch = data.draw(st.lists(st.lists(value, min_size=length,
                                        max_size=length), max_size=5))
    assert fingerprint_digests(t, batch) == \
        [fnv1a64(fingerprint_to_bytes(t, seq)) for seq in batch]


def test_batch_digest_refuses_mixed_lengths():
    t = gf.build_tower(2, 1, 3)
    for batch in ([[1, 2], [1]], [[], [0]], [(1,) * 8, (1,) * 8, (1,) * 4]):
        with pytest.raises(ValueError):
            fingerprint_digests(t, batch)
    assert fingerprint_digests(t, []) == []
    assert fingerprint_digests(t, [[], ()]) == [fnv1a64(b"[]")] * 2
    # a batch of several blocks, and a short fingerprint in a later block
    rng = random.Random(3)
    fps = [[rng.randrange(t.order) for _ in range(8)] for _ in range(2500)]
    assert fingerprint_digests(t, fps) == \
        [fnv1a64(fingerprint_to_bytes(t, fp)) for fp in fps]
    with pytest.raises(ValueError):
        fingerprint_digests(t, fps + [fps[0][:4]])


def test_table_digest_fills_at_most_one_entry_per_step(monkeypatch):
    # a first digest costs no more byte steps than the byte route, in a
    # field of any order: each step fills at most one table entry, and a
    # value gets a table only when it recurs.  The batch gets the sequence
    # cut into rows of 8, which it walks one column at a time
    t = gf.build_tower(3, 1, 6)
    rng = random.Random(5)
    seq = rng.sample(range(t.order), 40)
    seq += seq[:8] * 3
    for rows in ([seq], [seq[k:k + 8] for k in range(0, len(seq), 8)]):
        monkeypatch.setattr(dickson, "_DIGESTS", {})
        assert fingerprint_digests(t, rows) == \
            [fnv1a64(fingerprint_to_bytes(t, row)) for row in rows]
        (_, steps), = dickson._DIGESTS.values()
        tables = [step[1] for step in steps.values() if step]
        assert 0 < len(tables) <= 8
        assert 0 < sum(x != 0 for c in tables for x in c) \
            <= len(seq) - len(rows)


def test_digest_tables_stop_at_the_cap(monkeypatch):
    # with the cap set low, a tower's entry holds at most that many values,
    # and the values past it take the byte route with the same digest; a
    # value seen before the cap filled still gets its table when it recurs,
    # which the batch's column order needs.  The real cap sits above every
    # value of the benchmarked towers
    assert gf.build_tower(5, 1, 3).order < dickson._DIGEST_VALUES
    monkeypatch.setattr(dickson, "_DIGEST_VALUES", 6)
    t = gf.build_tower(3, 1, 3)
    rng = random.Random(7)
    fps = [DicksonMatrix(t, [rng.randrange(t.order) for _ in range(3)])
           .fingerprint() for _ in range(60)]
    want = [fnv1a64(fingerprint_to_bytes(t, fp)) for fp in fps]
    for batched in (False, True):
        monkeypatch.setattr(dickson, "_DIGESTS", {})
        for _ in range(2):
            assert (fingerprint_digests(t, fps) if batched else
                    [fingerprint_digest(t, fp) for fp in fps]) == want
        (_, steps), = dickson._DIGESTS.values()
        assert len(steps) == 6 < len({v for fp in fps for v in fp[1:]})
        assert all(steps.values())


def test_digest_head_memo_equals_the_byte_route(monkeypatch):
    # each tower memoizes the state after a fingerprint's first three
    # entries: fingerprints that share them and differ after them, a batch
    # and a single digest that start from a filled memo, and sequences of
    # length 0 to 3, against FNV-1a over the JSON bytes
    t = gf.build_tower(5, 1, 3)
    rng = random.Random(11)
    byte = lambda seq: fnv1a64(fingerprint_to_bytes(t, seq))
    monkeypatch.setattr(dickson, "_DIGESTS", {})
    head = (1, 7, t.frobenius(7, 1))
    batch = [head + tuple(rng.randrange(t.order) for _ in range(5))
             for _ in range(50)]
    assert len(set(batch)) == 50
    assert fingerprint_digests(t, batch) == [byte(fp) for fp in batch]
    (heads, _), = dickson._DIGESTS.values()
    assert list(heads) == [head]
    later = [list(head) + [0] * 5, head + (1, 2, 3, 4, 5)]
    assert fingerprint_digests(t, later) == [byte(fp) for fp in later]
    assert fingerprint_digest(t, later[0]) == byte(later[0])
    assert list(heads) == [head]
    for length in range(4):
        seqs = [[rng.randrange(t.order) for _ in range(length)]
                for _ in range(5)]
        for batch in (seqs, seqs + [tuple(seq) for seq in seqs]):
            assert fingerprint_digests(t, batch) == [byte(s) for s in batch]
    # real fingerprints open with 1, a_0, a_0^q: one head per a_0
    fps = [DicksonMatrix(t, [rng.randrange(t.order) for _ in range(3)])
           .fingerprint() for _ in range(400)]
    monkeypatch.setattr(dickson, "_DIGESTS", {})
    assert fingerprint_digests(t, fps) == [byte(fp) for fp in fps]
    (heads, _), = dickson._DIGESTS.values()
    assert set(heads) == {fp[:3] for fp in fps}
    assert len(heads) == len({fp[1] for fp in fps}) <= t.order
    # random heads fill the memo to its cap and no further, and those past
    # it take the byte route with the same digest
    rand = [[rng.randrange(t.order) for _ in range(8)]
            for _ in range(3 * dickson._DIGEST_VALUES)]
    for _ in range(2):
        assert fingerprint_digests(t, rand) == [byte(s) for s in rand]
        assert len(heads) == dickson._DIGEST_VALUES


# ---------------------------------------------------------------------------
# characteristic values and multiplicities
# ---------------------------------------------------------------------------

def expand_char_from_fingerprint(t, A, lam0):
    """Oracle: sum over I of (-1)^|I| (prod_{i in I} lam0^(q^i)) det A[Z\\I|Z\\I]."""
    n = A.size
    fp = A.fingerprint()
    full = (1 << n) - 1
    total = 0
    for mask_i in range(1 << n):
        idx = [i for i in range(n) if mask_i >> i & 1]
        term = 1
        for i in idx:
            term = t.mul(term, t.frobenius(lam0, i))
        comp = full & ~mask_i
        term = t.mul(term, fp[comp])
        if len(idx) % 2:
            term = t.neg(term)
        total = t.add(total, term)
    return total


def test_char_value_matches_fingerprint_expansion():
    rng = random.Random(12)
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(10):
            A = DicksonMatrix.from_poly(random_poly(t, rng))
            for _ in range(6):
                lam0 = rng.randrange(t.order)
                assert A.char_value(lam0) == expand_char_from_fingerprint(t, A, lam0)


def test_char_value_zero_exactly_on_eigenvalue_directions():
    rng = random.Random(3)
    t = gf.build_tower(2, 1, 4)
    for _ in range(25):
        f = random_poly(t, rng)
        A = DicksonMatrix.from_poly(f)
        for a in range(t.order):
            # brute-force kernel of f - a*x
            w = sum(1 for v in range(t.order)
                    if f.evaluate(v) == t.mul(a, v))
            has_root = w > 1
            assert (A.char_value(a) == 0) == has_root


def test_values_outside_the_field_are_refused():
    t = gf.build_tower(2, 1, 4)
    for bad in (-4, t.order):
        with pytest.raises(ValueError):
            DicksonMatrix(t, [1, 2, 3, bad])
    for bad in (1.5, True, "3"):  # refused, not read through int()
        with pytest.raises(BadParametersError, match="not an int"):
            DicksonMatrix(t, [1, 2, 3, bad])
    assert DicksonMatrix(t, [1, t.x(), 3, 4]).coeffs == (1, t.x_int, 3, 4)
    A = DicksonMatrix(t, [1, 2, 3, 4])
    for bad in (-1, t.order):
        with pytest.raises(ValueError):
            A.char_value(bad)
        with pytest.raises(ValueError):
            A.root_multiplicity(bad)


def test_out_of_range_coefficient_never_reaches_the_kernel(monkeypatch):
    # without log tables FieldTower.add returns -1 for add(0, -1), and a
    # fingerprint holding it does not finish: the check comes first
    t = gf.build_tower(2, 11, 2)
    assert not t.has_tables

    def unreachable(*args):
        raise AssertionError("FieldTower arithmetic reached")

    for op in ("add", "sub"):
        monkeypatch.setattr(t, op, unreachable)
    for bad in (-1, t.order):
        with pytest.raises(ValueError):
            DicksonMatrix(t, [0, bad])
        with pytest.raises(ValueError):
            DicksonMatrix(t, [0, 1]).char_value(bad)


def test_root_multiplicity_matches_kernel_count():
    rng = random.Random(9)
    for p, e, n in [(2, 1, 3), (2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(30):
            f = random_poly(t, rng)
            A = DicksonMatrix.from_poly(f)
            total = 0
            for a in range(t.order):
                kernel = sum(1 for v in range(t.order)
                             if f.evaluate(v) == t.mul(a, v))
                w = kernel.bit_length() - 1 if p == 2 and e == 1 else round(
                    math.log(kernel, t.q))
                want = (t.q ** w - 1) // (t.q - 1)
                got = A.root_multiplicity(a)
                assert got == want
                total += got
            assert total == (t.q ** n - 1) // (t.q - 1)


def test_root_multiplicity_examples():
    t = gf.build_tower(2, 1, 3)
    A = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 1))
    assert sum(A.root_multiplicity(a) for a in range(t.order)) == 7
    # f = a_0 x: the single root a_0 carries full multiplicity
    B = DicksonMatrix.from_poly(LinearizedPolynomial(t, [6]))
    assert B.root_multiplicity(6) == (t.q ** 3 - 1) // (t.q - 1)
    assert B.root_multiplicity(5) == 0


@pytest.mark.parametrize("pen, s", [((2, 1, 4), 2), ((3, 1, 3), 1)])
def test_fingerprint_reads_a_built_table_behind_its_checks(pen, s):
    # once _shift_table() is built, fingerprint(c0) reads its row first:
    # every c0 must still give the determinant route's minors, and a shift
    # out of range, or outside F_(q^s) on a size-s < n matrix, must still
    # be refused rather than read as a row
    t = gf.build_tower(*pen)
    rng = random.Random(11)
    for _ in range(12):
        tail = [rng.randrange(t.order) for _ in range(t.n - 1)]
        B = DicksonMatrix(t, [0] + tail)
        B._shift_table()
        for c0 in range(t.order):
            assert B.fingerprint(c0) == \
                DicksonMatrix(t, [c0] + tail)._principal_minors()
        for shift in (-1, t.order):
            with pytest.raises(ValueError):
                B.fingerprint(shift)
    sub = t.subfield_elements(s)
    small = DicksonMatrix(t, [0] + [sub[-1]] * (s - 1))
    small._shift_table()
    for shift in range(-1, t.order + 1):
        if shift in sub:
            assert small.fingerprint(shift) == DicksonMatrix(
                t, [shift] + list(small.coeffs[1:]))._principal_minors()
        else:
            with pytest.raises(ValueError):
                small.fingerprint(shift)


@pytest.mark.parametrize("pen, s", [((2, 1, 4), 2), ((2, 1, 6), 3),
                                    ((3, 1, 4), 2), ((2, 2, 3), 1)])
def test_size_s_shift_refuses_values_outside_the_subfield(pen, s):
    # char_value, root_multiplicity and fingerprint shift a size-s matrix
    # by lam0; a lam0 outside F_(q^s) would put a foreign coefficient on
    # its diagonal
    t = gf.build_tower(*pen)
    sub = t.subfield_elements(s)
    A = DicksonMatrix(t, [sub[-1]] + [sub[1]] * (s - 1))
    for lam0 in range(t.order):
        if lam0 in sub:
            A.char_value(lam0)
            A.root_multiplicity(lam0)
            A.fingerprint(lam0)
            continue
        with pytest.raises(ValueError):
            A.char_value(lam0)
        with pytest.raises(ValueError):
            A.root_multiplicity(lam0)
        with pytest.raises(ValueError):
            A.fingerprint(lam0)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_leading_equals_map_rank_exhaustive_small():
    t = gf.build_tower(2, 1, 3)
    for cid in range(t.order ** 3):
        coeffs = [cid % 8, (cid // 8) % 8, (cid // 64) % 8]
        f = LinearizedPolynomial(t, coeffs)
        assert DicksonMatrix.from_poly(f).rank_leading() == f.map_rank()


def test_rank_leading_examples():
    for p, e, n in [(2, 1, 4), (3, 1, 4), (2, 2, 3)]:
        t = gf.build_tower(p, e, n)
        assert DicksonMatrix.from_poly(LinearizedPolynomial.zero(t)).rank_leading() == 0
        for i in range(n):
            f = LinearizedPolynomial.monomial(t, 1, i)
            assert DicksonMatrix.from_poly(f).rank_leading() == n
        trace = LinearizedPolynomial(t, [1] * n)
        A = DicksonMatrix.from_poly(trace)
        assert A.rank_leading() == 1 == trace.map_rank()


# ---------------------------------------------------------------------------
# reducibility and partitions
# ---------------------------------------------------------------------------

def test_is_reducible():
    t5 = gf.build_tower(2, 1, 5)
    assert DicksonMatrix.from_poly(
        LinearizedPolynomial.monomial(t5, 1, 1)).is_reducible() is None
    assert DicksonMatrix.from_poly(
        LinearizedPolynomial(t5, [9])).is_reducible() == 5
    t6 = gf.build_tower(2, 1, 6)
    A = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t6, 1, 3))
    assert A.is_reducible() == 3
    # the witnessing partition has zero off-blocks
    alpha = [0, 3]
    beta = [1, 2, 4, 5]
    assert all(v == 0 for row in A.submatrix(alpha, beta) for v in row)
    assert all(v == 0 for row in A.submatrix(beta, alpha) for v in row)
    with pytest.raises(ZeroPolynomialError):
        DicksonMatrix.from_poly(LinearizedPolynomial.zero(t6)).is_reducible()


def brute_force_loewy(t, A):
    """All partitions with both sides of size >= 2."""
    n = A.size
    rows = A.rows()
    for mask in range(1, 1 << n):
        alpha = [i for i in range(n) if mask >> i & 1]
        beta = [i for i in range(n) if not mask >> i & 1]
        if len(alpha) < 2 or len(beta) < 2:
            continue
        ab = [[rows[i][j] for j in beta] for i in alpha]
        ba = [[rows[i][j] for j in alpha] for i in beta]
        if linalg.rank(t, ab) == 1 and linalg.rank(t, ba) == 1:
            return (tuple(alpha), tuple(beta))
    return None


def test_loewy_partition_against_all_partitions():
    rng = random.Random(77)
    for p, e, n in [(2, 1, 4), (2, 1, 5), (2, 1, 6)]:
        t = gf.build_tower(p, e, n)
        found_any = 0
        for _ in range(60):
            A = DicksonMatrix.from_poly(random_poly(t, rng))
            canonical = A.loewy_partition()
            brute = brute_force_loewy(t, A)
            assert (canonical is None) == (brute is None)
            if canonical is not None:
                found_any += 1
                alpha, beta = canonical
                rows = A.rows()
                ab = [[rows[i][j] for j in beta] for i in alpha]
                ba = [[rows[i][j] for j in alpha] for i in beta]
                assert linalg.rank(t, ab) == 1 and linalg.rank(t, ba) == 1
        # pseudoregulus always gives a pair witness
        P = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 1))
        w = P.loewy_partition()
        assert w is not None and len(w[0]) == 2 and w[0][0] == 0


def test_loewy_too_small():
    t = gf.build_tower(2, 1, 3)
    with pytest.raises(TooSmallError):
        DicksonMatrix(t, [1, 2, 3]).loewy_partition()


# ---------------------------------------------------------------------------
# transpose
# ---------------------------------------------------------------------------

def test_transpose_is_adjoint_and_entrywise():
    rng = random.Random(4)
    for p, e, n in [(2, 1, 4), (3, 1, 3)]:
        t = gf.build_tower(p, e, n)
        for _ in range(25):
            f = random_poly(t, rng)
            A = DicksonMatrix.from_poly(f)
            At = A.transpose()
            assert At == DicksonMatrix.from_poly(f.adjoint())
            for i in range(n):
                for j in range(n):
                    assert At.entry(i, j) == A.entry(j, i)
            assert At.transpose() == A
    # diagonal matrices are symmetric
    t = gf.build_tower(2, 1, 4)
    D = DicksonMatrix(t, [9, 0, 0, 0])
    assert D.transpose() == D


# ---------------------------------------------------------------------------
# diagonal similarity
# ---------------------------------------------------------------------------

def test_diag_similar_construct_and_recover():
    rng = random.Random(55)
    for p, e, n in [(2, 1, 5), (3, 1, 3), (2, 2, 2)]:
        t = gf.build_tower(p, e, n)
        for _ in range(40):
            f = random_poly(t, rng)
            if f.is_zero():
                continue
            lam0 = rng.randrange(1, t.order)
            A = DicksonMatrix.from_poly(f)
            B = DicksonMatrix.from_poly(f.twist(lam0))
            lam = A.diag_similar(B)
            assert lam is not None
            assert B.coeffs == tuple(_twist_coeffs(t, A.coeffs, lam))
            # unique modulo the subfield fixed by the linearity gcd
            d = f.linearity_gcd()
            assert t.in_subfield(t.div(lam, lam0), d)
            assert A.diag_similar(A) == 1


def test_diag_similar_none_cases():
    t = gf.build_tower(2, 1, 5)
    A = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 1))
    B = DicksonMatrix.from_poly(LinearizedPolynomial.monomial(t, 1, 2))
    assert A.diag_similar(B) is None  # supports differ
    C = DicksonMatrix(t, [3, 0, 0, 0, 0])
    D = DicksonMatrix(t, [5, 0, 0, 0, 0])
    assert C.diag_similar(D) is None  # a_0-only case requires equality
    assert C.diag_similar(C) == 1
    with pytest.raises(AmbientMismatchError):
        A.diag_similar(DicksonMatrix(gf.build_tower(2, 1, 3), [1, 1, 1]))


def test_diag_similar_fast_equals_full_scan():
    rng = random.Random(21)
    for p, e, n in [(2, 1, 4), (3, 1, 2), (2, 1, 5)]:
        t = gf.build_tower(p, e, n)
        for _ in range(60):
            f = random_poly(t, rng)
            g = random_poly(t, rng)
            A, B = DicksonMatrix.from_poly(f), DicksonMatrix.from_poly(g)
            assert A.diag_similar(B) == A.diag_similar_scan(B)
            if not f.is_zero():
                B2 = DicksonMatrix.from_poly(f.twist(rng.randrange(1, t.order)))
                assert A.diag_similar(B2) == A.diag_similar_scan(B2)


def test_rank_one_shift_implies_diag_similar_on_equal_fingerprints():
    # matrices whose shift by some diagonal has rank 1: here f = a x + Tr(b x)
    t = gf.build_tower(2, 1, 4)
    rng = random.Random(6)
    for _ in range(20):
        a = rng.randrange(t.order)
        b = rng.randrange(1, t.order)
        coeffs = [t.add(a, b)] + [t.frobenius(b, i) for i in range(1, 4)]
        A = DicksonMatrix(t, coeffs)
        shifted = DicksonMatrix(t, [t.sub(coeffs[0], a)] + coeffs[1:])
        assert shifted.rank_leading() == 1
        lam0 = rng.randrange(1, t.order)
        B = DicksonMatrix.from_poly(A.to_poly().twist(lam0))
        assert A.fingerprint() == B.fingerprint()
        assert A.diag_similar(B) is not None


# ---------------------------------------------------------------------------
# small (sub-size) matrices
# ---------------------------------------------------------------------------

def test_inner_matrix_validation_and_similarity():
    t = gf.build_tower(2, 1, 4)
    sub = t.subfield_elements(2)
    u = sub[2]  # a nontrivial element of F_(q^2)
    A = DicksonMatrix(t, [u, sub[3]])
    assert A.size == 2
    assert A.entry(0, 1) == sub[3]
    assert A.entry(1, 0) == t.frobenius(sub[3], 1)
    with pytest.raises(ValueError):
        DicksonMatrix(t, [t.x_int, 1])  # x is not in F_(q^2) here
    with pytest.raises(ValueError):
        DicksonMatrix(t, [1, 1, 1])  # 3 does not divide 4
    # twist by a subfield scalar, then recover within the subfield
    lam0 = sub[3]
    twisted = [A.coeffs[0]]
    twisted.append(t.mul(A.coeffs[1], t.div(t.frobenius(lam0, 1), lam0)))
    B = DicksonMatrix(t, twisted)
    lam = A.diag_similar(B)
    assert lam is not None and t.in_subfield(lam, 2)
    assert A.diag_similar(B) == A.diag_similar_scan(B)
    fp = A.fingerprint()
    assert len(fp) == 4 and fp[0] == 1


def test_json_roundtrip():
    t = gf.build_tower(3, 1, 2)
    A = DicksonMatrix(t, [4, 7])
    blob = A.to_json()
    B = DicksonMatrix(t, [t.from_coeffs(c).val for c in blob["coeffs"]])
    assert A == B
