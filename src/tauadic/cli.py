"""Command-line interface.

Commands
--------
expand     recode one element (GLS or tau-NAF) and print the digit string
enumerate  list all elements with squared norm below a bound; refuses (status
           2) before any work when the predicted count B*B*2053 // 10000
           (pi^2 B^2 / (2 sqrt 578)) exceeds MAX_COUNT, 5,000,000
tables     reproduce the existence tables and compare with the fixtures
census     recompute the GLS non-uniqueness census and compare with fixtures
check      run a seeded randomized property suite

Exit status: 0 on success, 1 on a verification mismatch or failed check,
2 on a usage error, 3 on a fixture or I/O error, 4 on an internal error (a
bug; one ``error: internal error ...`` line and no traceback).  A reader
that closes stdout early (``tauadic enumerate ... | head -1``) is not an
error: the command stops quietly with the status 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, tables
from .expand import CSV_HEADER, expand_gls, expand_tnaf
from .normform import enumerate_short_vectors
from .ring import mu_from_curve_coeff, parse_element

USAGE_ERROR = 2
FIXTURE_ERROR = 3
INTERNAL_ERROR = 4
MAX_COUNT = 5_000_000


class UsageError(ValueError):
    pass


def _add_mu_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=int, choices=(1, -1),
                   help="sign parameter of the characteristic equation")
    p.add_argument("--a", type=int, choices=(0, 1),
                   help="curve coefficient; mu = (-1)**(1-a)")


def _resolve_mu(args: argparse.Namespace) -> int:
    if (args.mu is None) == (args.a is None):
        raise UsageError("give exactly one of --mu or --a")
    return args.mu if args.mu is not None else mu_from_curve_coeff(args.a)


def _digit_set(args: argparse.Namespace) -> int | None:
    j = args.digit_set
    if j is not None and not 1 <= j <= 16:
        raise UsageError(f"--digit-set must be in 1..16, got {j}")
    return j


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauadic",
        description="tau-adic recodings over the quartic Frobenius ring")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="recode one ring element")
    _add_mu_options(p)
    p.add_argument("--method", choices=("gls", "tnaf"), required=True)
    p.add_argument("--digit-set", type=int, metavar="J",
                   help="tau-NAF digit set index 1..16 (tnaf only)")
    p.add_argument("--element", required=True, metavar="s,t,u,v")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("enumerate", help="list elements with norm_sq <= bound")
    _add_mu_options(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("tables", help="reproduce and verify the reference tables")
    _add_mu_options(p)
    p.add_argument("--digit-set", type=int, metavar="J",
                   help="check a single digit set instead of all 16")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("census", help="verify the GLS non-uniqueness census")
    _add_mu_options(p)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("check", help="run a randomized property suite")
    p.add_argument("--suite", choices=checks.SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("quick", "full"), default="quick")

    return parser


def cmd_expand(args: argparse.Namespace) -> int:
    mu = _resolve_mu(args)
    try:
        element = parse_element(args.element)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    j = _digit_set(args)
    if args.method == "tnaf":
        if j is None:
            raise UsageError("--method tnaf requires --digit-set")
        expansion = expand_tnaf(element, mu, j)
    else:
        if j is not None:
            raise UsageError("--method gls does not take --digit-set")
        expansion = expand_gls(element, mu)
    if args.format == "json":
        print(expansion.to_json())
    elif args.format == "csv":
        print(CSV_HEADER)
        print(expansion.csv_row())
    else:
        print(expansion.display())
        print(f"length: {expansion.length}")
        print(f"weight: {expansion.weight}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    mu = _resolve_mu(args)
    if args.bound < 0:
        raise UsageError("--bound must be >= 0")
    predicted = args.bound * args.bound * 2053 // 10000
    if predicted > MAX_COUNT:
        raise UsageError(f"--bound {args.bound} would list about {predicted:,} elements, "
                         f"more than the cap of {MAX_COUNT:,}")
    found = enumerate_short_vectors(mu, args.bound, include_zero=args.include_zero)
    found.write(sys.stdout, args.format)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    mus = (_resolve_mu(args),) if (args.mu is not None or args.a is not None) else (1, -1)
    j = _digit_set(args)
    js = (j,) if j is not None else None
    results = tables.run_table_checks(mus=mus, js=js)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps([{"name": r.name, "passed": r.passed, "detail": r.detail}
                          for r in results], separators=(",", ":")))
    elif args.format == "csv":
        print("name,passed")
        for r in results:
            print(f"{r.name},{int(r.passed)}")
    else:
        for r in results:
            print(r.describe())
        print(f"{len(results) - len(failed)}/{len(results)} table checks passed")
    return 1 if failed else 0


def cmd_census(args: argparse.Namespace) -> int:
    mus = (_resolve_mu(args),) if (args.mu is not None or args.a is not None) else (1, -1)
    status = 0
    for mu in mus:
        witnesses = tables.gls_nonuniqueness_census(mu)
        results = tables.check_census(mu, witnesses)
        # machine formats keep stdout parseable; verification goes to stderr
        if args.format == "json":
            print(tables.census_to_json(witnesses))
        elif args.format == "csv":
            sys.stdout.write(tables.census_to_csv(witnesses))
        for r in results:
            print(r.describe(),
                  file=sys.stderr if args.format != "text" else sys.stdout)
        if any(not r.passed for r in results):
            status = 1
    return status


def cmd_check(args: argparse.Namespace) -> int:
    results = checks.run_suite(args.suite, seed=args.seed, scale=args.scale)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.describe())
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(suite={args.suite}, seed={args.seed}, scale={args.scale})")
    return 1 if failed else 0


_COMMANDS = {
    "expand": cmd_expand,
    "enumerate": cmd_enumerate,
    "tables": cmd_tables,
    "census": cmd_census,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at shutdown cannot
        # raise again (the SIGPIPE note in the docs of Python's signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, UnicodeDecodeError, tables.FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FIXTURE_ERROR
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
