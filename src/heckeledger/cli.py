"""Command-line front end: modsym, paramodular and ledger subcommands.

Exit codes: 0 success, 2 usage or validation error, 1 computation
error.  All numeric output is exact; values that may exceed 2**53
travel as decimal strings so JSON consumers cannot lose precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional

from .exactlin import FieldContext, NonCommuting, NotInvariant, _is_prime, frac_str
from .ledger import (
    FormatError,
    build_report,
    compare_external,
    load_sl3_csv,
    report_to_json,
)
from .modsym import (
    BadPrime,
    MultiPrimeMismatch,
    UnsupportedWeight,
    build_space,
    eigensystems,
    eigensystems_csv,
    space_summary,
)
from .paramodular import (
    GritsenkoExceedsTotal,
    NonIntegralResult,
    complement_dims,
    load_gritsenko_csv,
)

ENV_FIELD_PRIME = "HECKE_FIELD_PRIME"

USAGE_ERROR = 2
COMPUTE_ERROR = 1


@dataclass
class Config:
    """Resolved invocation settings shared by the subcommands."""

    field_prime: Optional[int] = None
    output_format: str = "text"
    data_paths: dict = dataclass_field(default_factory=dict)

    def context(self) -> Optional[FieldContext]:
        if self.field_prime is None:
            return None
        return FieldContext.default(self.field_prime)


class UsageError(Exception):
    pass


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


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


def _config_from_args(args) -> Config:
    prime = getattr(args, "field_prime", None)
    if prime is None and os.environ.get(ENV_FIELD_PRIME):
        try:
            prime = int(os.environ[ENV_FIELD_PRIME])
        except ValueError as exc:
            raise UsageError(f"bad {ENV_FIELD_PRIME}: {exc}") from exc
    cfg = Config(
        field_prime=prime,
        output_format=getattr(args, "format", "text"),
    )
    if getattr(args, "sl3", None):
        cfg.data_paths["sl3"] = args.sl3
    if getattr(args, "gritsenko", None):
        cfg.data_paths["gritsenko"] = args.gritsenko
    return cfg


# ---------------------------------------------------------------------------
# modsym


def cmd_modsym(args) -> int:
    cfg = _config_from_args(args)
    weight = args.weight
    k = weight - 1
    if k < 1 or k % 2 == 0:
        raise UsageError(
            f"weight {weight} means k = {k}, which is not supported (even weights only)"
        )
    primes = _parse_primes(args.primes) if args.primes else []
    try:
        space = build_space(args.level, k, context=cfg.context())
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    summary = space_summary(space)
    systems = eigensystems(space, primes) if primes else []
    if cfg.output_format == "json":
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
        sys.stdout.write(_dump_json(obj))
    elif cfg.output_format == "csv":
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


def _load_gritsenko(cfg: Config) -> Optional[dict[int, int]]:
    path = cfg.data_paths.get("gritsenko")
    if not path:
        return None
    text = _read_text(path)
    try:
        return load_gritsenko_csv(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_paramodular(args) -> int:
    cfg = _config_from_args(args)
    gritsenko = _load_gritsenko(cfg)
    if args.prime is not None:
        ps = [args.prime]
    else:
        lo, hi = _parse_range(args.range)
        ps = [p for p in range(max(lo, 2), hi + 1) if _is_prime(p)]
    rows = []
    for p in ps:
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
        dims = complement_dims(p, gritsenko.get(p) if gritsenko else None)
        rows.append(dims)
    if cfg.output_format == "json":
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
        sys.stdout.write(_dump_json(obj))
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
    cfg = _config_from_args(args)
    primes = _parse_primes(args.primes)
    tscale = _parse_tscale(args.tscale) if args.tscale else None
    sl3_data = None
    if cfg.data_paths.get("sl3"):
        sl3_data = load_sl3_csv(_read_text(cfg.data_paths["sl3"]))
    gritsenko = _load_gritsenko(cfg)
    external = None
    if args.compare:
        try:
            external = json.loads(_read_text(args.compare))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{args.compare}: {exc}") from exc
    try:
        report = build_report(
            args.level,
            primes,
            sl3_data=sl3_data,
            gritsenko=gritsenko,
            context=cfg.context(),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.compare:
        summary = compare_external(report, external, tscale=tscale)
        sys.stdout.write(_dump_json(summary))
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

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       help="output format (default text)")
        p.add_argument("--field-prime", type=int, default=None,
                       help=f"override the working field prime (or ${ENV_FIELD_PRIME})")

    p_mod = sub.add_parser("modsym", help="modular symbol space and Hecke eigensystems")
    p_mod.add_argument("--level", type=int, required=True, help="the level N")
    p_mod.add_argument("--weight", type=int, required=True,
                       help="modular forms weight (k+1); even weights only")
    p_mod.add_argument("--primes", default="",
                       help="comma-separated Hecke primes, e.g. 2,3,5")
    add_common(p_mod)
    p_mod.set_defaults(func=cmd_modsym)

    p_par = sub.add_parser("paramodular", help="weight-3 paramodular dimensions")
    group = p_par.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int, help="a single prime level")
    group.add_argument("--range", help="an inclusive prime range, e.g. 2..100")
    p_par.add_argument("--gritsenko", help="CSV file `p,dim_gritsenko`")
    add_common(p_par)
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
    add_common(p_led)
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
    except (UsageError, UnsupportedWeight, BadPrime, GritsenkoExceedsTotal,
            FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NonIntegralResult, MultiPrimeMismatch, NotInvariant, NonCommuting,
            ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
