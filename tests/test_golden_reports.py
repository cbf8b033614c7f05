"""Byte-identity of reports, verdicts, witnesses and certificates.

Each case hashes json.dumps(..., sort_keys=True) with SHA-256 and compares
it with a pinned value, so a refactor that moves any byte of a search
report or of a classify_pair verdict fails here.  Update a hash only when
the change to the output is intended; `python tests/test_golden_reports.py`
with `src` on PYTHONPATH prints the current values.
"""

import hashlib
import json
import random

import pytest

from linsetlab.classify import (
    bucket_search,
    classify_pair,
    replay_verdict,
    verify_club_uniqueness,
)
from linsetlab.gf import build_tower
from linsetlab.linpoly import LinearizedPolynomial
from linsetlab.linset import construct_generalized, generalized_partner

SEARCHES = {
    "2-1-3": ((2, 1, 3), {}),
    "3-1-3": ((3, 1, 3), {}),
    # e > 1 with whole classes: the Frobenius x -> x^2 moves F_4, and the
    # classify phase shares results along scaling x Frobenius orbits
    "2-2-3": ((2, 2, 3), {}),
    "3-1-3-twist": ((3, 1, 3), {"modulo_twist": True}),
    "2-2-3-twist": ((2, 2, 3), {"modulo_twist": True}),
    "2-1-3-paranoid": ((2, 1, 3), {"paranoid": True}),
    "2-1-3-twist-workers2": ((2, 1, 3), {"modulo_twist": True, "workers": 2}),
    "2-1-6-sample": ((2, 1, 6), {"budget": 1000, "sample": 300}),
    # twist searches whose residue chain reaches a second level (n = 6
    # and n = 4 have proper divisors above 1)
    "2-1-6-twist-sample":
        ((2, 1, 6), {"modulo_twist": True, "sample": 20000}),
    "3-1-4-twist-sample":
        ((3, 1, 4), {"modulo_twist": True, "sample": 20000}),
    # towers where q^n - 1 is 1, 2 or 3: the shift table has one, two or
    # three rows, and n = 1 leaves every id with the empty tail
    "2-1-1": ((2, 1, 1), {}),
    "3-1-1": ((3, 1, 1), {}),
    "2-1-2": ((2, 1, 2), {}),
    "2-2-1": ((2, 2, 1), {}),
}

SEARCH_HASHES = {
    "2-1-3":
        "cdad3d29c4d22a6e0e741d51bb869f5b46705bc77874c1128c963bee36ce8aba",
    "3-1-3":
        "0cd48bdeae780bf289a6fb90128f82af2068d46c1541268588ee822385c389bf",
    "2-2-3":
        "697a59c27f97a1090c6396026c79b5233bf2979dcdab31355b13a0ed49bd8d2b",
    "3-1-3-twist":
        "2990c176481e42c78c058443d0d1d095250bdefaf5fe380ae1243ddb0e577b53",
    "2-2-3-twist":
        "462d4d3a64afd02983d235e3fddca2ecce71c7ab709b9507ecb7c13f8155da31",
    "2-1-3-paranoid":
        "9fc36a0d05cd3997630fed68536448df6d77f39f825ff3375de50a2470824e64",
    "2-1-3-twist-workers2":
        "e0352e5dabc95915c14a6bbd13326a02215d87eb3c9355fb5c3c6f928ae5a976",
    "2-1-6-sample":
        "a749d6d66863720900da112b1b0f51c16812f82c957c923e6fe4ee6a2c02e6c0",
    "2-1-6-twist-sample":
        "6f279423c1fe2a75c719d5dc2d0a9e1c6904069a23ae51e8a104fb97f6360b7f",
    "3-1-4-twist-sample":
        "5e661934ed95832b70292a4bc509beded246b636e3880361b06eef59d6fd0417",
    "2-1-1":
        "df4aadf01b1c61ca02a28bc4c4ee852288b6dd2bdfc33b556c85286a2ca80415",
    "3-1-1":
        "c357a59aae18f3f90d63ddbd1a46c250413aecfdff7fa942cefcd823a807250c",
    "2-1-2":
        "a818c90783b403ddf3021ee46ca46c859df2b24fabd9fe257e9507c4523469a2",
    "2-2-1":
        "2c5670bc9d97b0c73c050d44924a87a6d51eb836032c38cd85d7df10d7ee66c6",
}

PAIR_HASHES = {
    (2, "perp_d"):
        "fa7a4a9fe543fc0973591243f54ad7220468b2aa4013eb0df986437da34951e3",
    (2, "trivial"):
        "77f92ce738d7a824e47ba38f3ac130def9dfe79eeffbf16430511f02324b20c3",
    (3, "perp_d"):
        "3706dddb3e03c2a945970d6a1c7a91dbf8c8995b4ddc35e39e6cb707ea5cc205",
    (3, "trivial"):
        "9ac02638b34e79b645274bd50ad47ddf9c1e6e4b7381f21fa79d13266b9a34ca",
}

PAIRS_PER_GROUP = 12


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def generalized_pairs(d, mode, count=PAIRS_PER_GROUP):
    """Seeded (f, g) at (2,1,6): f a generalized construction for d, g the
    graph of its partner in the given mode scaled by a random lambda."""
    t = build_tower(2, 1, 6)
    rng = random.Random(1000 * d + len(mode))
    subs = [s for s in t.subfield_elements(d) if s]
    pairs = []
    while len(pairs) < count:
        fprime = LinearizedPolynomial(
            t, [rng.randrange(t.order) if k % d == 0 else 0
                for k in range(t.n)])
        bs = [0] + [rng.choice((0,) + tuple(subs)) for _ in range(d - 1)]
        if not any(bs):
            continue
        a = rng.randrange(1, t.order)
        U = construct_generalized(fprime, bs, a, d)
        W = generalized_partner(U, d, a, mode).scale(rng.randrange(1, t.order))
        pairs.append((U.as_graph_poly(), W.as_graph_poly()))
    return pairs


def search_digest(name) -> str:
    (p, e, n), kwargs = SEARCHES[name]
    return _sha(bucket_search(p, e, n, **kwargs).to_json())


def pair_digest(d, mode) -> str:
    out = []
    for f, g in generalized_pairs(d, mode):
        for exhaustive in (False, True):
            v = classify_pair(f, g, exhaustive=exhaustive)
            out.append([v.to_json(), replay_verdict(f, g, v)])
    return _sha(out)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_bucket_search_report_is_pinned(name):
    assert search_digest(name) == SEARCH_HASHES[name]


@pytest.mark.parametrize("d,mode", sorted(PAIR_HASHES))
def test_generalized_verdicts_are_pinned(d, mode):
    assert pair_digest(d, mode) == PAIR_HASHES[d, mode]


def test_club_uniqueness_holds():
    assert verify_club_uniqueness(2, 1, 3)
    assert verify_club_uniqueness(3, 1, 3)


if __name__ == "__main__":
    for name in sorted(SEARCHES):
        print(f"    {name!r}: {search_digest(name)!r},")
    for key in sorted(PAIR_HASHES):
        print(f"    {key!r}: {pair_digest(*key)!r},")
