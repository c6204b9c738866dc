"""Command-line front end: modsym, paramodular and ledger subcommands.

Every input is parsed and checked once, where it enters: here, or in
the library function that first receives it (`build_report`,
`parse_external`, `dim_S3`, `cuspidal_coverage`, `winding_pairing`,
`hecke_matrix`); the code behind trusts it.  A Hecke prime l is checked
by `modsym._check_hecke_primes` at every entry point, so its error is
always `l is not prime` or `l divides the level N`.  A level and a
weight are checked by `modsym._check_space`, which `build_space` calls
too; the `modsym` subcommand calls it before the Hecke primes are
checked and the space is built, so its errors read as the library's.

Exit codes: 0 success, 2 usage or validation error, 1 computation
error.  Each error declares its kind where it is defined: an
`InputError`, raised by an entry check, exits 2; a `ComputationError`,
or any other `ValueError` or `ArithmeticError`, comes from behind those
checks and exits 1.  All numeric output is exact;
values that may exceed 2**53 travel as decimal strings so JSON
consumers cannot lose precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import compress
from math import isqrt
from typing import Optional

from .exactlin import ComputationError, FieldContext, InputError, frac_str
from .ledger import (
    FormatError,
    build_report,
    canonical_json,
    compare_external,
    load_sl3_csv,
    parse_external,
    report_to_json,
)
from .modsym import (
    _check_hecke_primes,
    _check_space,
    build_space,
    eigensystems,
    eigensystems_csv,
    space_summary,
)
from .paramodular import complement_dims, load_gritsenko_csv

ENV_FIELD_PRIME = "HECKE_FIELD_PRIME"

USAGE_ERROR = 2
COMPUTE_ERROR = 1


class UsageError(InputError):
    pass


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable one is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _parse_primes(text: str) -> list[int]:
    try:
        primes = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise UsageError(f"bad --primes value {text!r}: {exc}") from exc
    if not primes:
        raise UsageError("--primes must list at least one prime")
    return primes


def _parse_tscale(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --tscale value {text!r}: {exc}") from exc


def _field_prime(args) -> Optional[int]:
    """The `--field-prime` flag, or else `$HECKE_FIELD_PRIME`, or None."""
    text = os.environ.get(ENV_FIELD_PRIME)
    if args.field_prime is not None or not text:
        return args.field_prime
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"bad {ENV_FIELD_PRIME}: {exc}") from exc


def _context(args) -> Optional[FieldContext]:
    """The working field pair for `_field_prime(args)`; None keeps the default."""
    prime = _field_prime(args)
    return None if prime is None else FieldContext.default(prime)


# ---------------------------------------------------------------------------
# modsym


def cmd_modsym(args) -> int:
    context = _context(args)
    k = args.weight - 1
    _check_space(args.level, k)
    primes = _parse_primes(args.primes) if args.primes else []
    _check_hecke_primes(args.level, primes)
    space = build_space(args.level, k, context=context)
    summary = space_summary(space)
    systems = eigensystems(space, primes) if primes else []
    if args.format == "json":
        obj = {
            "summary": summary,
            "eigensystems": [
                {
                    "level": s.level,
                    "weight": s.weight,
                    "dim": s.dim,
                    "cuspidal": s.cuspidal,
                    "eigenvalues": {str(l): frac_str(v) for l, v in s.eigenvalues.items()},
                }
                for s in systems
            ],
        }
        sys.stdout.write(canonical_json(obj))
    elif args.format == "csv":
        sys.stdout.write(eigensystems_csv(systems))
    else:
        sys.stdout.write(
            "level {level}  k {k}  quotient {quotient_dim}  cuspidal {cuspidal_dim}"
            "  eisenstein {eisenstein_dim}\n".format(**summary)
        )
        if primes:
            sys.stdout.write(eigensystems_csv(systems))
    return 0


# ---------------------------------------------------------------------------
# paramodular


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError as exc:
        raise UsageError(f"bad --range value {text!r}, expected like 2..100") from exc
    if lo > hi:
        raise UsageError(f"bad --range value {text!r}, its start exceeds its end")
    return lo, hi


def _primes_in(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi]: a sieve of Eratosthenes on that segment,
    crossing out the multiples of each prime up to isqrt(hi)."""
    lo = max(lo, 2)
    if lo > hi:
        return []
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    segment = bytearray([1]) * (hi - lo + 1)
    for q in range(2, root + 1):
        if small[q]:
            small[q * q::q] = bytes(len(range(q * q, root + 1, q)))
            first = max(q * q, -(-lo // q) * q) - lo
            segment[first::q] = bytes(len(range(first, len(segment), q)))
    return list(compress(range(lo, hi + 1), segment))


def _load_gritsenko(path: Optional[str]) -> Optional[dict[int, int]]:
    return load_gritsenko_csv(_read_text(path)) if path else None


def cmd_paramodular(args) -> int:
    _field_prime(args)  # a bad $HECKE_FIELD_PRIME is still an error; no field is used
    gritsenko = _load_gritsenko(args.gritsenko)
    # `dim_S3` refuses a composite --prime, as an InputError
    ps = [args.prime] if args.prime is not None else _primes_in(*_parse_range(args.range))
    rows = [complement_dims(p, gritsenko.get(p) if gritsenko else None) for p in ps]
    if args.format == "json":
        obj = {
            "dims": [
                {
                    "p": d.p,
                    "dim_S3": d.dim_S3,
                    "dim_gritsenko": d.dim_gritsenko,
                    "dim_nonGritsenko": d.dim_nonGritsenko,
                }
                for d in rows
            ]
        }
        sys.stdout.write(canonical_json(obj))
    else:
        sys.stdout.write("p,dim_S3,dim_gritsenko,dim_nonGritsenko\n")
        for d in rows:
            g = "" if d.dim_gritsenko is None else d.dim_gritsenko
            ng = "" if d.dim_nonGritsenko is None else d.dim_nonGritsenko
            sys.stdout.write(f"{d.p},{d.dim_S3},{g},{ng}\n")
    return 0


# ---------------------------------------------------------------------------
# ledger


def cmd_ledger(args) -> int:
    """Always writes JSON: the report, or the `--compare` summary."""
    context = _context(args)
    primes = _parse_primes(args.primes)
    tscale = _parse_tscale(args.tscale) if args.tscale else None
    sl3_data = load_sl3_csv(_read_text(args.sl3)) if args.sl3 else None
    gritsenko = _load_gritsenko(args.gritsenko)
    external = None
    if args.compare:
        try:
            external = parse_external(json.loads(_read_text(args.compare)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{args.compare}: {exc}") from exc
    report = build_report(
        args.level,
        primes,
        sl3_data=sl3_data,
        gritsenko=gritsenko,
        context=context,
    )
    if args.compare:
        summary = compare_external(report, external, tscale=tscale)
        sys.stdout.write(canonical_json(summary))
        return 0
    sys.stdout.write(report_to_json(report))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeledger",
        description="Exact modular-symbol eigensystems, lift polynomials, "
        "paramodular dimensions and the prime-level decomposition ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, format_help):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       help=format_help)
        p.add_argument("--field-prime", type=int, default=None,
                       help=f"override the working field prime (or ${ENV_FIELD_PRIME})")

    p_mod = sub.add_parser("modsym", help="modular symbol space and Hecke eigensystems")
    p_mod.add_argument("--level", type=int, required=True, help="the level N")
    p_mod.add_argument("--weight", type=int, required=True,
                       help="modular forms weight (k+1); even weights only")
    p_mod.add_argument("--primes", default="",
                       help="comma-separated Hecke primes, e.g. 2,3,5")
    add_common(p_mod, "output format (default text)")
    p_mod.set_defaults(func=cmd_modsym)

    p_par = sub.add_parser("paramodular", help="weight-3 paramodular dimensions")
    group = p_par.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int, help="a single prime level")
    group.add_argument("--range", help="an inclusive prime range, e.g. 2..100")
    p_par.add_argument("--gritsenko", help="CSV file `p,dim_gritsenko`")
    add_common(p_par, "json writes JSON; csv and text (the default) both write "
                      "the same CSV")
    p_par.set_defaults(func=cmd_paramodular)

    p_led = sub.add_parser("ledger", help="decomposition ledger at a prime level")
    p_led.add_argument("--level", type=int, required=True, help="prime level N")
    p_led.add_argument("--primes", required=True,
                       help="comma-separated Hecke primes, e.g. 2,3")
    p_led.add_argument("--sl3", help="CSV file `level,prime,gamma,gamma_prime`")
    p_led.add_argument("--gritsenko", help="CSV file `p,dim_gritsenko`")
    p_led.add_argument("--compare", help="external polynomial JSON to compare against")
    p_led.add_argument("--tscale",
                       help="change-of-variable hook: rewrite external data by T -> s*T")
    add_common(p_led, "accepted for symmetry with the other subcommands; ledger "
                      "always writes JSON (the report or the --compare summary)")
    p_led.set_defaults(func=cmd_ledger)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ComputationError, ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
