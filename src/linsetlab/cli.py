"""Command-line front end: construct, inspect, compare, classify, search.

Machine-readable results go to stdout (JSON by default, CSV where noted),
progress and errors go to stderr.  Exit codes: 0 on success or a confirmed
search, 2 when a search reports an anomaly or a dual-route check disagrees,
1 on usage or runtime errors.
"""

import argparse
import json
import re
import sys
from typing import List, Optional

from .classify import (
    bucket_search,
    classify_pair,
    is_club_coeffs,
    replay_verdict,
    verify_club_uniqueness,
)
from .dickson import DicksonMatrix
from .errors import LinsetError
from .gf import FieldTower, build_tower, enumeration_budget
from .linpoly import LinearizedPolynomial
from .linpoly import from_json as poly_from_json
from .linset import (
    construct_club,
    construct_generalized,
    construct_pseudoregulus,
    graph_subspace,
    linear_set,
    sets_equal,
)

_MONO_RE = re.compile(r"^x(?:\^q(?:\^(\d+))?)?$")


class CliError(LinsetError):
    """Bad command-line input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# input grammar
# ---------------------------------------------------------------------------

def parse_coeff(tower: FieldTower, text: str) -> int:
    """A field coefficient: base-p digit list like [1,0,1] (little-endian)
    or a decimal packed value in [0, order)."""
    text = text.strip()
    if text.startswith("["):
        try:
            digits = json.loads(text)
        except json.JSONDecodeError as ex:
            raise CliError(f"bad digit list {text!r}: {ex}") from None
        if (not isinstance(digits, list)
                or not all(type(d) is int and 0 <= d < tower.p for d in digits)
                or len(digits) > tower.m):
            raise CliError(
                f"digit list {text!r} must hold at most {tower.m} "
                f"base-{tower.p} digits")
        return tower.from_coeffs(digits).val
    try:
        v = int(text)
    except ValueError:
        raise CliError(f"bad coefficient {text!r}") from None
    if not 0 <= v < tower.order:
        raise CliError(f"coefficient {v} outside [0, {tower.order})")
    return v


def parse_poly(tower: FieldTower, text: str) -> LinearizedPolynomial:
    """Sum of terms c*x^q^i; c as in parse_coeff and optional.

    Accepted monomials: x (exponent 0), x^q (exponent 1), x^q^i.  A bare
    coefficient is the exponent-0 term.  @path loads a polynomial JSON
    file.  Repeated exponents add up.
    """
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            try:
                return poly_from_json(tower, json.load(fh))
            except (ValueError, KeyError, TypeError) as ex:
                raise CliError(f"bad polynomial file {text[1:]!r}: {ex!r}") from None
    coeffs = [0] * tower.n
    if text == "0":
        return LinearizedPolynomial(tower, coeffs)
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise CliError(f"empty term in polynomial {text!r}")
        if "*" in term:
            c_text, mono = (part.strip() for part in term.split("*", 1))
        elif term.startswith("x"):
            c_text, mono = "1", term
        else:
            c_text, mono = term, "x"
        match = _MONO_RE.match(mono)
        if match is None:
            raise CliError(f"bad monomial {mono!r} (use x, x^q, or x^q^i)")
        if mono == "x":
            i = 0
        elif match.group(1) is None:
            i = 1
        else:
            i = int(match.group(1))
        if not 0 <= i < tower.n:
            raise CliError(f"exponent q^{i} outside [q^0, q^{tower.n - 1}]")
        coeffs[i] = tower.add(coeffs[i], parse_coeff(tower, c_text))
    return LinearizedPolynomial(tower, coeffs)


def parse_int_list(text: str) -> List[int]:
    text = text.strip()
    try:
        if text.startswith("["):
            out = json.loads(text)
        else:
            out = [int(part) for part in text.split(",")]
    except (json.JSONDecodeError, ValueError) as ex:
        raise CliError(f"bad integer list {text!r}: {ex}") from None
    if not isinstance(out, list) or not all(type(v) is int for v in out):
        raise CliError(f"bad integer list {text!r}")
    return out


def _tower_of(args) -> FieldTower:
    modulus = parse_int_list(args.modulus) if args.modulus else None
    return build_tower(args.p, args.e, args.n, modulus)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(payload, out_path: Optional[str]) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _progress(done: int, total: int) -> None:
    print(f"progress: {done}/{total} candidates scanned", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_field_info(args) -> int:
    t = _tower_of(args)
    payload = {"p": t.p, "e": t.e, "n": t.n, "q": t.q, "order": t.order,
               "modulus": list(t.modulus),
               "log_tables": t.has_tables,
               "enumeration_budget": enumeration_budget()}
    _emit(payload, args.out)
    return 0


def _cmd_construct(args) -> int:
    t = _tower_of(args)
    if args.family == "club":
        if args.b is None or args.lam is None:
            raise CliError("club needs --a, --b and --lam")
        U = construct_club(t.element(parse_coeff(t, args.a or "0")),
                           t.element(parse_coeff(t, args.b)),
                           t.element(parse_coeff(t, args.lam)))
    elif args.family == "pseudoregulus":
        if args.a is None or args.i is None:
            raise CliError("pseudoregulus needs --a and --i")
        U = construct_pseudoregulus(t.element(parse_coeff(t, args.a)), args.i)
    else:
        if args.bs is None or args.d is None:
            raise CliError("generalized needs --fprime, --bs, --a and --d")
        fprime = parse_poly(t, args.fprime or "0")
        bs = [parse_coeff(t, str(b)) for b in parse_int_list(args.bs)]
        U = construct_generalized(fprime, bs,
                                  parse_coeff(t, args.a or "1"), args.d)
    f = U.as_graph_poly()
    payload = {"family": args.family, "subspace": U.to_json(),
               "graph_coeffs": list(f.coeffs)}
    if args.spectrum:
        payload["spectrum"] = {str(w): c
                               for w, c in linear_set(U).spectrum().items()}
    _emit(payload, args.out)
    return 0


def _cmd_show(args) -> int:
    t = _tower_of(args)
    f = parse_poly(t, args.f)
    U = graph_subspace(f)
    if args.spectrum:
        _emit(linear_set(U).spectrum_csv(), args.out)
        return 0
    mat = DicksonMatrix.from_poly(f)
    payload = {"coeffs": list(f.coeffs),
               "coeff_digits": [list(t.coeffs_of(c)) for c in f.coeffs],
               "support": list(f.support),
               "map_rank": f.map_rank(),
               "linearity_gcd": f.linearity_gcd(),
               "adjoint_coeffs": list(f.adjoint().coeffs)}
    if t.n >= 3:
        payload["is_club"] = is_club_coeffs(t, f.coeffs)
    if args.fingerprint:
        payload["fingerprint"] = list(mat.fingerprint())
        payload["digest"] = f"{mat.digest():016x}"
    if args.points:
        L = linear_set(U)
        payload["points"] = [list(pt) for pt in L.sorted_points()]
        payload["spectrum"] = {str(w): c for w, c in L.spectrum().items()}
    _emit(payload, args.out)
    return 0


def _cmd_compare(args) -> int:
    t = _tower_of(args)
    f = parse_poly(t, args.f)
    g = parse_poly(t, args.g)
    U, W = graph_subspace(f), graph_subspace(g)
    equal = sets_equal(U, W)
    payload = {"equal": equal}
    code = 0
    if args.enumerate:
        by_points = (linear_set(U).point_set() == linear_set(W).point_set())
        payload["enumeration_agrees"] = by_points == equal
        if by_points != equal:
            code = 2  # the two routes disagree: report loudly
    if equal:
        verdict = classify_pair(f, g)
        payload["verdict"] = verdict.case
        payload["matched"] = list(verdict.matched)
        payload["witness"] = verdict.witness
    _emit(payload, args.out)
    return code


def _cmd_classify(args) -> int:
    t = _tower_of(args)
    f = parse_poly(t, args.f)
    g = parse_poly(t, args.g)
    verdict = classify_pair(f, g, exhaustive=args.exhaustive)
    payload = verdict.to_json()
    payload["replay"] = replay_verdict(f, g, verdict)
    _emit(payload, args.out)
    return 0 if payload["replay"] else 2


def _cmd_search(args) -> int:
    modulus = parse_int_list(args.modulus) if args.modulus else None
    report = bucket_search(args.p, args.e, args.n, budget=args.budget,
                           workers=args.workers,
                           modulo_twist=args.modulo_twist,
                           paranoid=args.paranoid,
                           sample=args.sample,
                           modulus=modulus,
                           progress=_progress)
    _emit(report.summary_csv() if args.csv else report.to_json(), args.out)
    return 0 if report.theorem_confirmed else 2


def _cmd_verify(args) -> int:
    modulus = parse_int_list(args.modulus) if args.modulus else None
    ok = verify_club_uniqueness(args.p, args.e, args.n, budget=args.budget,
                                workers=args.workers, modulus=modulus,
                                progress=_progress)
    _emit({"p": args.p, "e": args.e, "n": args.n, "club_uniqueness": ok},
          args.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="linset-lab",
        description="Exact computations with linear sets of PG(1, q^n): "
                    "construct examples, compare and classify equal-set "
                    "pairs, and run exhaustive fingerprint searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def field_args(p):
        p.add_argument("--p", type=int, required=True, help="characteristic")
        p.add_argument("--e", type=int, required=True,
                       help="q = p^e is the base field order")
        p.add_argument("--n", type=int, required=True,
                       help="extension degree over F_q")
        p.add_argument("--modulus",
                       help="base-p digit list of the tower modulus "
                            "(default: canonical)")
        p.add_argument("--out", help="write the result here, not stdout")

    p = sub.add_parser("field-info", help="describe the field tower")
    field_args(p)
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("construct", help="build a named example subspace")
    field_args(p)
    p.add_argument("--family", required=True,
                   choices=["club", "pseudoregulus", "generalized"])
    p.add_argument("--a", help="coefficient parameter")
    p.add_argument("--b", help="club direction coefficient")
    p.add_argument("--lam", help="club scale coefficient")
    p.add_argument("--i", type=int, help="pseudoregulus Frobenius exponent")
    p.add_argument("--d", type=int, help="divisor of n for generalized")
    p.add_argument("--fprime", help="outer summand polynomial")
    p.add_argument("--bs", help="inner coefficients, e.g. [0,1,0]")
    p.add_argument("--spectrum", action="store_true",
                   help="include the weight spectrum")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("show", help="inspect one polynomial's graph")
    field_args(p)
    p.add_argument("--f", required=True, help="polynomial, e.g. \"x^q + 3*x^q^2\"")
    p.add_argument("--spectrum", action="store_true",
                   help="print the weight spectrum as CSV")
    p.add_argument("--fingerprint", action="store_true",
                   help="include principal-minor fingerprint and digest")
    p.add_argument("--points", action="store_true",
                   help="include the full point list")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("compare", help="do two graphs span the same linear set?")
    field_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check the fingerprint route by enumeration")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("classify", help="full verdict for an equal-set pair")
    field_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="test every case, not just the first match")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("search", help="fingerprint-bucket search of all polynomials")
    field_args(p)
    p.add_argument("--budget", type=int, help="candidate cap override")
    p.add_argument("--sample", type=int,
                   help="scan a deterministic random sample of this size")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--modulo-twist", action="store_true",
                   help="scan one representative per twist orbit")
    p.add_argument("--paranoid", action="store_true",
                   help="re-verify buckets by point enumeration and replay")
    p.add_argument("--csv", action="store_true",
                   help="print the verdict histogram as CSV")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="club uniqueness sweep at (q, n)")
    field_args(p)
    p.add_argument("--budget", type=int, help="candidate cap override")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (LinsetError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
