"""Exact arithmetic for F_q-linear sets of the projective line PG(1, q^n).

The package builds finite-field towers F_p < F_q < F_{q^d} < F_{q^n},
represents F_q-linear maps as linearized polynomials and Dickson matrices,
compares linear sets through principal-minor fingerprints, classifies
equal-set pairs against a five-case list, and runs exhaustive searches
over whole coefficient spaces.
"""

from .classify import (
    BucketReport,
    PairVerdict,
    bucket_search,
    classify_pair,
    is_club_coeffs,
    replay_verdict,
    verify_club_uniqueness,
)
from .dickson import DicksonMatrix, fingerprint_digest
from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DecompositionFailedError,
    LinsetError,
    NotEqualSetsError,
    NotMaxRankError,
    TooLargeError,
)
from .gf import FieldElement, FieldTower, build_tower, enumeration_budget
from .linpoly import LinearizedPolynomial, poly_from_id, poly_to_id
from .linset import (
    GeneralizedDecomposition,
    LinearSet,
    Subspace,
    construct_club,
    construct_generalized,
    construct_pseudoregulus,
    decompose,
    fqd_lines,
    generalized_partner,
    graph_subspace,
    is_cone_r3,
    linear_set,
    multi_coeffs,
    normalize_off_infinity,
    perp,
    pseudoregulus_witness,
    sets_equal,
    set_linearity,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "BucketReport",
    "BudgetExceededError",
    "DecompositionFailedError",
    "DicksonMatrix",
    "FieldElement",
    "FieldTower",
    "GeneralizedDecomposition",
    "LinearSet",
    "LinearizedPolynomial",
    "LinsetError",
    "NotEqualSetsError",
    "NotMaxRankError",
    "PairVerdict",
    "Subspace",
    "TooLargeError",
    "bucket_search",
    "build_tower",
    "classify_pair",
    "construct_club",
    "construct_generalized",
    "construct_pseudoregulus",
    "decompose",
    "enumeration_budget",
    "fingerprint_digest",
    "fqd_lines",
    "generalized_partner",
    "graph_subspace",
    "is_club_coeffs",
    "is_cone_r3",
    "linear_set",
    "multi_coeffs",
    "normalize_off_infinity",
    "perp",
    "poly_from_id",
    "poly_to_id",
    "pseudoregulus_witness",
    "replay_verdict",
    "sets_equal",
    "set_linearity",
    "verify_club_uniqueness",
    "weight",
]
