"""The decomposition ledger: predicted constituents of H^5 at prime level.

For a prime level N the report enumerates the expected constituents:
two classes for every weight-2 newform, one class for every weight-4
newform whose central value vanishes (two-prime winding certificate),
two classes for every ingested rank-3 cuspidal datum, and twice the
non-Gritsenko paramodular dimension.  Multiplicities are encoded as
constants next to their source; the composed tally is labelled a
reconstruction because no single closed formula for it exists.

Missing ingredients (rank-3 data, Gritsenko dimensions, irrational
eigensystems) degrade to caveat lines, never to silent omissions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional, Sequence

from . import heckepoly
from .exactlin import FieldContext, InputError, _is_prime, frac_str
from .heckepoly import HeckePolynomial, LiftClass, SL3Datum, poly_to_json
from .modsym import (
    BadLevel,
    BadPrime,
    CuspidalSplit,
    EigenSystem,
    build_space,
    cuspidal_coverage,
    space_summary,
    winding_pairing,
)
from .paramodular import complement_dims

__all__ = [
    "RangeTable",
    "Constituent",
    "LedgerReport",
    "CuspRangeUnknown",
    "FormatError",
    "BadLevel",
    "range_table",
    "build_report",
    "compare_external",
    "parse_external",
    "load_sl3_csv",
    "report_to_json",
    "report_families",
]


class CuspRangeUnknown(InputError):
    """Cuspidal range is only tabulated for ranks 2 through 9."""


class FormatError(InputError):
    """External polynomial data does not parse as the documented format."""


# Tabulated cuspidal range (top, bottom) for subgroups of SL_n(Z), n = 2..9.
_CUSP_RANGE = {
    2: (1, 1),
    3: (3, 2),
    4: (5, 4),
    5: (8, 6),
    6: (11, 9),
    7: (15, 12),
    8: (19, 16),
    9: (24, 20),
}


@dataclass(frozen=True)
class RangeTable:
    """Symmetric-space dimension, vcd and cuspidal range for SL_n."""

    n: int
    dim_X: int
    vcd: int
    cusp_top: Optional[int]
    cusp_bottom: Optional[int]

    def cusp_range(self) -> tuple[int, int]:
        if self.cusp_top is None or self.cusp_bottom is None:
            raise CuspRangeUnknown(f"cuspidal range not tabulated for n = {self.n}")
        return (self.cusp_bottom, self.cusp_top)


def range_table(n: int) -> RangeTable:
    """dim X = n(n+1)/2 - 1 and vcd = dim X - (n - 1) for any n >= 2;
    the cuspidal range columns are tabulated for 2 <= n <= 9 only."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    dim_x = n * (n + 1) // 2 - 1
    vcd = dim_x - (n - 1)
    top, bottom = _CUSP_RANGE.get(n, (None, None))
    return RangeTable(n, dim_x, vcd, top, bottom)


# ---------------------------------------------------------------------------
# Report structure


@dataclass(frozen=True)
class Constituent:
    """One predicted summand with its polynomial families."""

    kind: str  # weight2 | weight4 | sl3 | paramodular
    source: str
    multiplicity: int
    families: dict[str, dict[int, HeckePolynomial]]


@dataclass
class LedgerReport:
    level: int
    primes: list[int]
    field_primes: tuple[int, int]
    constituents: list[Constituent]
    excluded: list[dict]
    dim_eisenstein_predicted: int
    dim_predicted_nonEisenstein: Optional[int]
    counts: dict
    spaces: dict
    caveats: list[str] = dataclass_field(default_factory=list)


EISENSTEIN_KINDS = ("weight2", "weight4", "sl3")


def _system_id(kind: str, system: EigenSystem) -> str:
    vals = ",".join(f"a{l}={frac_str(v)}" for l, v in sorted(system.eigenvalues.items()))
    return f"{kind}-N{system.level}-{vals}"


def _constituent(kind: str, source: str, multiplicity: int,
                 families: dict[str, dict[int, HeckePolynomial]]) -> Constituent:
    # LiftClass construction re-checks every family against its forced
    # linear factors; a failure here is an implementation bug.
    for name, fam in families.items():
        LiftClass(name, source, fam)
    return Constituent(kind, source, multiplicity, families)


def _weight2_constituent(system: EigenSystem, primes: Sequence[int]) -> Constituent:
    fam_a: dict[int, HeckePolynomial] = {}
    fam_b: dict[int, HeckePolynomial] = {}
    for l in primes:
        a, b = heckepoly.weight2_lifts(l, system.eigenvalues[l])
        fam_a[l] = a
        fam_b[l] = b
    mult = 2 * max(1, system.dim // 2)
    return _constituent(
        "weight2",
        _system_id("w2", system),
        mult,
        {heckepoly.WEIGHT2_A: fam_a, heckepoly.WEIGHT2_B: fam_b},
    )


def _weight4_constituent(system: EigenSystem, primes: Sequence[int]) -> Constituent:
    fam = {l: heckepoly.weight4_lift(l, system.eigenvalues[l]) for l in primes}
    mult = max(1, system.dim // 2)
    return _constituent("weight4", _system_id("w4", system), mult, {heckepoly.WEIGHT4: fam})


def _sl3_constituent(datum: SL3Datum, primes: Sequence[int], index: int,
                     caveats: list[str]) -> Constituent:
    fam_a: dict[int, HeckePolynomial] = {}
    fam_b: dict[int, HeckePolynomial] = {}
    for l in primes:
        if l not in datum.eigenvalues:
            caveats.append(
                f"sl3 datum #{index} at level {datum.level} has no eigenvalues at l={l}"
            )
            continue
        g, gp = datum.pair(l)
        a, b = heckepoly.sl3_lifts(l, g, gp)
        fam_a[l] = a
        fam_b[l] = b
    return _constituent(
        "sl3",
        f"sl3-N{datum.level}-{index}",
        2,
        {heckepoly.SL3_A: fam_a, heckepoly.SL3_B: fam_b},
    )


def _other_causes(weight: int, cov: CuspidalSplit) -> list[str]:
    """One caveat naming the unresolved cuspidal dimensions of `cov` that
    are not explained by irrational eigensystems, or none."""
    causes = [
        f"{cov.unresolved[key]} {what}"
        for key, what in (
            ("defective", "defective at the primary prime"),
            ("prime_disagreement", "not confirmed at the second prime"),
        )
        if cov.unresolved[key]
    ]
    if not causes:
        return []
    return [
        f"weight {weight}: of {cov.cuspidal_dim} cuspidal dimensions, "
        f"{' and '.join(causes)}; these carry no constituent entry"
    ]


def build_report(
    level: int,
    primes: Sequence[int],
    sl3_data: Optional[Sequence[SL3Datum]] = None,
    gritsenko: Optional[dict[int, int]] = None,
    *,
    context: Optional[FieldContext] = None,
) -> LedgerReport:
    """Run the full pipeline at weight 2 and weight 4 and compose the report.

    `sl3_data` and `gritsenko` are ingested, never computed; passing
    None produces the corresponding caveat and leaves the affected
    tallies reduced or unknown.
    """
    if not _is_prime(level):
        raise BadLevel(f"level {level} is not prime")
    primes = sorted(set(int(l) for l in primes))
    if not primes:
        raise BadPrime("need at least one Hecke prime")

    caveats: list[str] = []
    constituents: list[Constituent] = []
    excluded: list[dict] = []

    def analyze(k: int):
        space = build_space(level, k, context=context)
        return space, cuspidal_coverage(space, primes)

    space1, cov1 = analyze(1)
    space3, cov3 = analyze(3)

    for system in cov1.systems:
        constituents.append(_weight2_constituent(system, primes))
        if system.dim != 2:
            caveats.append(
                f"weight-2 system {_system_id('w2', system)} has eigenspace dim "
                f"{system.dim}; multiplicity counted as {2 * max(1, system.dim // 2)}"
            )
    if cov1.unresolved["no_bounded_integer_root"]:
        caveats.append(
            f"weight 2: {cov1.unresolved['no_bounded_integer_root']} of "
            f"{cov1.cuspidal_dim} cuspidal dimensions belong to non-rational "
            "eigensystems and carry no constituent entry"
        )
    caveats += _other_causes(2, cov1)

    for system in cov3.systems:
        pairing = winding_pairing(space3, system)
        if pairing == 0:
            constituents.append(_weight4_constituent(system, primes))
        else:
            excluded.append(
                {
                    "kind": "weight4",
                    "source": _system_id("w4", system),
                    "reason": "nonvanishing central value",
                    "winding": frac_str(pairing),
                }
            )
    if cov3.unresolved["no_bounded_integer_root"]:
        caveats.append(
            f"weight 4: {cov3.unresolved['no_bounded_integer_root']} of "
            f"{cov3.cuspidal_dim} cuspidal dimensions belong to non-rational "
            "eigensystems; their winding analysis is not available"
        )
    caveats += _other_causes(4, cov3)

    if sl3_data is None:
        caveats.append("no sl3 data supplied; sl3 constituents omitted")
        sl3_here: list[SL3Datum] = []
    else:
        sl3_here = [d for d in sl3_data if d.level == level]
        for idx, datum in enumerate(sl3_here):
            constituents.append(_sl3_constituent(datum, primes, idx, caveats))

    if gritsenko is None or level not in gritsenko:
        if gritsenko is None:
            caveats.append("no Gritsenko data supplied; paramodular split unknown")
        else:
            caveats.append(
                f"Gritsenko data has no entry for level {level}; paramodular split unknown"
            )
        dims = complement_dims(level, None)
        non_eis: Optional[int] = None
    else:
        dims = complement_dims(level, gritsenko[level])
        non_eis = 2 * dims.dim_nonGritsenko
        constituents.append(
            Constituent(
                "paramodular",
                f"param-N{level}-S3nG",
                2 * dims.dim_nonGritsenko,
                {},
            )
        )

    constituents.sort(key=lambda c: (c.kind, c.source))
    eis_total = sum(c.multiplicity for c in constituents if c.kind in EISENSTEIN_KINDS)

    counts = {
        "dim_s2": cov1.cuspidal_dim // 2,
        "dim_s4": cov3.cuspidal_dim // 2,
        "weight2_systems": len(cov1.systems),
        "weight4_systems": len(cov3.systems),
        "weight2_eisenstein_from_dim_s2": cov1.cuspidal_dim,
        "sl3_systems": len(sl3_here),
        "dim_s3_paramodular": dims.dim_S3,
        "dim_gritsenko": dims.dim_gritsenko,
        "dim_non_gritsenko": dims.dim_nonGritsenko,
    }
    ctx = space1.context
    return LedgerReport(
        level=level,
        primes=list(primes),
        field_primes=(ctx.primary.p, ctx.secondary.p),
        constituents=constituents,
        excluded=excluded,
        dim_eisenstein_predicted=eis_total,
        dim_predicted_nonEisenstein=non_eis,
        counts=counts,
        spaces={"weight2": space_summary(space1), "weight4": space_summary(space3)},
        caveats=caveats,
    )


# ---------------------------------------------------------------------------
# Serialization


def canonical_json(obj) -> str:
    """Canonical JSON: sorted keys, compact separators, LF-terminated,
    so equal objects serialize byte-identically."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def report_to_json(report: LedgerReport) -> str:
    """The report as canonical JSON; big integers travel as decimal
    strings."""
    obj = {
        "schema": "ledger/1",
        "label": "predicted (reconstructed)",
        "level": report.level,
        "primes": report.primes,
        "field_primes": [str(p) for p in report.field_primes],
        "constituents": [
            {
                "kind": c.kind,
                "source": c.source,
                "multiplicity": c.multiplicity,
                "families": {
                    name: {str(l): poly_to_json(poly)["coeffs"] for l, poly in fam.items()}
                    for name, fam in c.families.items()
                },
            }
            for c in report.constituents
        ],
        "excluded": report.excluded,
        "eisenstein_predicted": report.dim_eisenstein_predicted,
        "non_eisenstein_predicted": report.dim_predicted_nonEisenstein,
        "counts": report.counts,
        "spaces": report.spaces,
        "caveats": report.caveats,
    }
    return canonical_json(obj)


def report_families(report: LedgerReport) -> list[dict]:
    """The report's polynomial families in the external-comparison format."""
    out = []
    for c in report.constituents:
        for name, fam in sorted(c.families.items()):
            for l, poly in sorted(fam.items()):
                out.append(
                    {
                        "source": c.source,
                        "kind": name,
                        "l": l,
                        "coeffs": poly_to_json(poly)["coeffs"],
                    }
                )
    return out


def _exact(value) -> bool:
    """An int that is not a bool, or a string; a float or a bool is never exact."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def parse_external(external) -> list[tuple[tuple, list[Fraction]]]:
    """Validate `{"families": [{source, kind, l, coeffs}, ...]}` into
    `((source, kind, l), coeffs)` entries: `l` an integer or a string holding
    one, `coeffs` a list of decimal strings or integers.  Any other shape or
    value, a float, a bool or a zero denominator included, is a FormatError."""
    if not isinstance(external, dict) or "families" not in external:
        raise FormatError("external data must be an object with a `families` list")
    fams = external["families"]
    if not isinstance(fams, list):
        raise FormatError("`families` must be a list")
    entries = []
    for entry in fams:
        try:
            l, coeffs = entry["l"], entry["coeffs"]
            if not _exact(l):
                raise TypeError("`l` must be an integer")
            if not isinstance(coeffs, list) or not all(_exact(c) for c in coeffs):
                raise TypeError("`coeffs` must be a list of strings or integers")
            key = (entry["source"], entry["kind"], int(l))
            hash(key)  # a list or object as source or kind cannot key the comparison
            coeffs = [Fraction(c) for c in coeffs]
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise FormatError(f"malformed family entry {entry!r}: {exc}") from exc
        entries.append((key, coeffs))
    return entries


def compare_external(report: LedgerReport, entries: Sequence[tuple], *,
                     tscale: Optional[Fraction] = None) -> dict:
    """Exact coefficient comparison against `parse_external` entries.

    `tscale` is the documented change-of-variable hook: external
    polynomials are rewritten by T -> tscale * T before comparison, for
    data normalized with a different spin factor.  Returns per-family
    match/mismatch lists with both sides printed on mismatch.
    """
    ours = {(f["source"], f["kind"], int(f["l"])): f["coeffs"] for f in report_families(report)}
    matched, mismatched, unknown = [], [], []
    for key, coeffs in entries:
        if tscale is not None:
            coeffs = [c * tscale**k for k, c in enumerate(coeffs)]
        norm = [frac_str(c) for c in coeffs]
        mine = ours.get(key)
        if mine is None:
            unknown.append({"key": list(key)})
        elif mine == norm:
            matched.append({"key": list(key)})
        else:
            mismatched.append({"key": list(key), "report": mine, "external": norm})
    return {"matched": matched, "mismatched": mismatched, "unknown": unknown}


# ---------------------------------------------------------------------------
# SL3 data ingestion


def load_sl3_csv(text: str) -> list[SL3Datum]:
    """Parse `level,prime,gamma,gamma_prime` rows (rationals as a/b).

    Consecutive rows with the same level extend one datum; a repeated
    (level, prime) pair starts a new class at that level.  A malformed
    row, a zero denominator included, raises FormatError naming its line.
    """
    staged: dict[int, list[dict[int, tuple[Fraction, Fraction]]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().replace(" ", "") == "level,prime,gamma,gamma_prime":
            continue
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != 4:
            raise FormatError(f"line {lineno}: expected 4 fields, got {raw!r}")
        try:
            level = int(parts[0])
            l = int(parts[1])
            g = Fraction(parts[2])
            gp = Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        maps = staged.setdefault(level, [{}])
        if l in maps[-1]:
            maps.append({})
        maps[-1][l] = (g, gp)
    out = []
    for level in sorted(staged):
        for eigmap in staged[level]:
            out.append(SL3Datum(level, eigmap))
    return out
