"""Command-line surface: hulls, pattern checks, Poincare polynomials, interval
counts, number tables and the self-verification sweeps.

Each method calls one library route: `poincare` builds a polynomial and
--at-one reads it at q = 1; `count` sizes a coset interval by the recurrence.
`--method brute` enumerates the interval by the rank-count criterion alone, so
it refuses n above a fixed limit (10, or 6 for type B) as an input error
before the enumeration starts.

Structured output goes to stdout, diagnostics to stderr.  Exit codes: 0 on
success, 2 on input errors (any ValueError, from the arguments or from the
library's own checks), 3 on pattern-violation errors, 1 when a verification
sweep fails, 4 on an internal error (an unexpected exception, reported as
one line on stderr).  Polynomials are serialized as
{"min_exp": e, "coeffs": ["c_e", ...]} with decimal-string coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .boards import left_hull, right_hull
from .intervals import (
    CosetRepA,
    PatternViolationError,
    count_lower_interval_dp,
    max_coset_rep_A,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    theoremA_poincare,
    theoremB_poincare,
    theorem8_counts,
)
from .permutations import Permutation, bruhat_interval, poincare_brute
from .qalgebra import LaurentPoly, poly_bernoulli, q_stirling
from .verify import SUITES, run_suite

__all__ = [
    "main",
    "cmd_hull",
    "cmd_check",
    "cmd_poincare",
    "cmd_count",
    "cmd_qstirling",
    "cmd_polybernoulli",
    "cmd_table",
    "cmd_verify",
]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_PATTERN = 3
EXIT_INTERNAL = 4

# --method brute searches the prefixes of S_n for the type-A and pair routes
# and scans the signed permutations of B_n for type B.  The limits keep a run
# under about 3 s on a 2-core VM (count --n 10 --k 5: 2.5 s; --type B --n 6:
# 0.9 s).
_BRUTE_MAX_N = 10
_BRUTE_MAX_N_B = 6


def _check_brute_size(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"--method brute is limited to n <= {limit}, got n = {n}")


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def cmd_hull(args) -> int:
    p = Permutation.from_text(args.perm)
    board = right_hull(p) if args.side == "right" else left_hull(p)
    print(board.to_text())
    return EXIT_OK


def cmd_check(args) -> int:
    p = Permutation.from_text(args.perm)
    hit = p.find_forbidden()
    if hit is None:
        _emit({"avoids": True, "violating_pattern": None, "positions": None})
    else:
        pattern, positions = hit
        _emit(
            {
                "avoids": False,
                "violating_pattern": pattern.to_text(),
                "positions": list(positions),
            }
        )
    return EXIT_OK


def _poincare_pair(args) -> LaurentPoly:
    u = Permutation.from_text(args.u)
    w = Permutation.from_text(args.w)
    method = args.method or "rook"
    if method == "rook":
        return poincare_via_rook(u, w)
    if method == "brute":
        _check_brute_size(w.size, _BRUTE_MAX_N)
        return poincare_brute(u, w)
    raise ValueError(f"method {method!r} is not valid for a permutation pair")


def _poincare_A(args) -> LaurentPoly:
    if args.n is None or args.k is None:
        raise ValueError("--type A requires --n and --k")
    n, k = args.n, args.k
    method = args.method or "formula"
    if method == "formula":
        return theoremA_poincare(n, k)
    if method == "rook":
        return poincare_via_rook(Permutation.identity(n), max_coset_rep_A(n, k).w)
    _check_brute_size(n, _BRUTE_MAX_N)
    return poincare_brute(Permutation.identity(n), max_coset_rep_A(n, k).w)


def _poincare_B(args) -> LaurentPoly:
    if args.n is None:
        raise ValueError("--type B requires --n")
    if args.k is not None:
        raise ValueError("--type B does not take --k")
    method = args.method or "formula"
    if method == "formula":
        return theoremB_poincare(args.n)
    if method == "rook":
        return poincare_B_via_rook(args.n)
    _check_brute_size(args.n, _BRUTE_MAX_N_B)
    return poincare_B_brute(args.n)


def cmd_poincare(args) -> int:
    pair = args.u is not None or args.w is not None
    if pair and (args.u is None or args.w is None):
        raise ValueError("--u and --w must be given together")
    if pair and (args.type, args.n, args.k) != (None, None, None):
        raise ValueError("--type, --n and --k cannot be combined with --u/--w")
    if pair:
        poly = _poincare_pair(args)
    elif args.type == "A":
        poly = _poincare_A(args)
    elif args.type == "B":
        poly = _poincare_B(args)
    else:
        raise ValueError("give either --type A/B or a --u/--w pair")
    if args.at_one:
        print(poly.evaluate_at_one())
    else:
        _emit(poly.to_json_dict())
    return EXIT_OK


def cmd_count(args) -> int:
    if args.word is not None:
        if args.k is None:
            raise ValueError("--word requires --k")
        if args.n is not None:
            raise ValueError("--n cannot be combined with --word")
        w = Permutation.from_text(args.word)
        rep = CosetRepA(w.size, args.k, w)
    else:
        if args.n is None or args.k is None:
            raise ValueError("give --n and --k, or --word and --k")
        rep = max_coset_rep_A(args.n, args.k)
    if args.method == "brute":
        _check_brute_size(rep.n, _BRUTE_MAX_N)
        count = len(bruhat_interval(Permutation.identity(rep.n), rep.w))
    else:
        count = count_lower_interval_dp(rep)
    print(count)
    return EXIT_OK


def cmd_qstirling(args) -> int:
    if args.n < 0:
        raise ValueError("need n >= 0")
    row = [q_stirling(args.n, k).to_json_dict() for k in range(1, args.n + 1)]
    _emit(row)
    return EXIT_OK


def cmd_polybernoulli(args) -> int:
    if args.n < 0 or args.k < 0:
        raise ValueError("need n, k >= 0")
    print(poly_bernoulli(args.n, -args.k))
    return EXIT_OK


def _table_rows(kind: str, max_n: int, max_k: Optional[int]):
    if kind == "qstirling":
        for n in range(max_n + 1):
            yield [str(n)] + [str(q_stirling(n, k)) for k in range(n + 1)]
    elif kind == "polybernoulli":
        top = max_n if max_k is None else max_k
        for n in range(max_n + 1):
            yield [str(n)] + [str(poly_bernoulli(n, -k)) for k in range(top + 1)]
    else:
        for n in range(2, max_n + 1):
            for k in range(1, n):
                a, b, c = theorem8_counts(n, k)
                yield [str(n), str(k), str(a), str(b), str(c)]


def cmd_table(args) -> int:
    if args.max_n < 0:
        raise ValueError("need --max-n >= 0")
    if args.kind == "theorem8" and args.max_n < 2:
        raise ValueError("theorem8 table needs --max-n >= 2")
    if args.max_k is not None and args.kind != "polybernoulli":
        raise ValueError("--max-k applies to --kind polybernoulli only")
    if args.max_k is not None and args.max_k < 0:
        raise ValueError("need --max-k >= 0")
    rows = list(_table_rows(args.kind, args.max_n, args.max_k))
    if args.format == "json":
        _emit(rows)
    else:
        for row in rows:
            print("\t".join(row))
    return EXIT_OK


def cmd_verify(args) -> int:
    results, warnings = run_suite(args.suite, args.max_n)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status} {r.name}: {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrook",
        description="Bruhat intervals and q-rook polynomials on skew boards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="print the right or left hull of a permutation")
    p.add_argument("perm")
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("check", help="test the four-pattern avoidance condition")
    p.add_argument("perm")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("poincare", help="Poincare polynomial of a Bruhat interval")
    p.add_argument("--type", choices=("A", "B"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--u")
    p.add_argument("--w")
    p.add_argument("--method", choices=("formula", "rook", "brute"))
    p.add_argument("--at-one", action="store_true", dest="at_one")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("count", help="size of the lower interval of a coset representative")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--word", help="explicit representative word instead of the maximal one")
    p.add_argument("--method", choices=("dp", "brute"), default="dp")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("qstirling", help="row n of the q-Stirling triangle, k = 1..n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_qstirling)

    p = sub.add_parser("polybernoulli", help="the poly-Bernoulli number B_n^(-k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_polybernoulli)

    p = sub.add_parser("table", help="emit a whole table as TSV or JSON")
    p.add_argument("--kind", choices=("qstirling", "polybernoulli", "theorem8"), required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--max-k", type=int, dest="max_k")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the self-verification sweeps")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PatternViolationError as e:
        print(f"pattern violation: {e}", file=sys.stderr)
        return EXIT_PATTERN
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
