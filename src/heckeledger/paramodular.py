"""Ibukiyama's dimension formula for weight-3 paramodular cusp forms.

Everything is exact: the fractional summands, each times their common
denominator 2880, are summed as integers, which must cancel to a
nonnegative multiple of 2880, and a failure to do so raises instead of
rounding.  Gritsenko-lift dimensions are data, not a formula, so they
are ingested from a CSV file.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exactlin import ComputationError, InputError, Record, _is_prime

__all__ = [
    "ParamodularDims",
    "NonIntegralResult",
    "GritsenkoExceedsTotal",
    "kronecker_euler",
    "dim_S3",
    "complement_dims",
    "load_gritsenko_csv",
]


class NonIntegralResult(ComputationError):
    """The rational total failed to cancel to a nonnegative integer."""


class GritsenkoExceedsTotal(InputError):
    """Ingested Gritsenko dimension exceeds the total dimension."""


def kronecker_euler(a: int, p: int) -> int:
    """(a/p) by Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _f_2880(p: int) -> int:
    """2880 f(p)."""
    if p == 5:
        return 576
    return 1152 if p % 5 in (2, 3) else 0


def _g_2880(p: int) -> int:
    """2880 g(p)."""
    return 480 if p % 12 == 5 else 0


def dim_S3(p: int) -> int:
    """dim of the weight-3 paramodular cusp forms at prime level p.

    Zero for p = 2 and 3; for p >= 5 the six-term rational sum plus
    f(p) + g(p) - 1.  Every denominator divides 2880, so the sum is
    taken as the integer 2880 times it.  The summands always cancel to a
    nonnegative integer; NonIntegralResult flags the implementation bug
    (or a misread formula) if they ever do not.
    """
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    if p in (2, 3):
        return 0
    k1 = kronecker_euler(-1, p)
    k3 = kronecker_euler(-3, p)
    k2 = kronecker_euler(2, p)
    total = (
        p * p - 1                          # (p^2 - 1) / 2880
        + 45 * (p + 1) * (1 - k1)          # (p + 1)(1 - (-1/p)) / 64
        + 75 * (p - 1) * (1 + k1)          # 5 (p - 1)(1 + (-1/p)) / 192
        + 40 * (p + 1) * (1 - k3)          # (p + 1)(1 - (-3/p)) / 72
        + 80 * (p - 1) * (1 + k3)          # (p - 1)(1 + (-3/p)) / 36
        + 360 * (1 - k2)                   # (1 - (2/p)) / 8
        + _f_2880(p)
        + _g_2880(p)
        - 2880
    )
    if total % 2880 or total < 0:
        raise NonIntegralResult(f"dim S3({p}) evaluated to {Fraction(total, 2880)}")
    return total // 2880


class ParamodularDims(Record):
    """The dimension split at one prime; None marks unknown data."""

    __slots__ = ("p", "dim_S3", "dim_gritsenko", "dim_nonGritsenko")
    p: int
    dim_S3: int
    dim_gritsenko: Optional[int]
    dim_nonGritsenko: Optional[int]

    def __init__(self, p: int, dim_S3: int, dim_gritsenko: Optional[int],
                 dim_nonGritsenko: Optional[int]):
        if dim_gritsenko is not None and dim_nonGritsenko is not None:
            if dim_S3 != dim_gritsenko + dim_nonGritsenko:
                raise ValueError("dimension split does not add up")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim_S3", dim_S3)
        object.__setattr__(self, "dim_gritsenko", dim_gritsenko)
        object.__setattr__(self, "dim_nonGritsenko", dim_nonGritsenko)


def complement_dims(p: int, gritsenko: Optional[int]) -> ParamodularDims:
    """Split dim S3(p) into the Gritsenko part and its Hecke complement."""
    total = dim_S3(p)
    if gritsenko is None:
        return ParamodularDims(p, total, None, None)
    if gritsenko < 0 or gritsenko > total:
        raise GritsenkoExceedsTotal(
            f"Gritsenko dimension {gritsenko} incompatible with dim S3({p}) = {total}"
        )
    return ParamodularDims(p, total, gritsenko, total - gritsenko)


def load_gritsenko_csv(text: str) -> dict[int, int]:
    """Parse the `p,dim_gritsenko` file; `#` starts a comment line.

    Validates primality of p, through `dim_S3`'s own test, and the bound
    dim_gritsenko <= dim S3(p); each error is an `InputError` (a
    `GritsenkoExceedsTotal` for the bound) that names its line.
    """
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().replace(" ", "") == "p,dim_gritsenko":
            continue
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected `p,dim_gritsenko`, got {raw!r}")
        try:
            p, g = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        try:
            complement_dims(p, g)
        except InputError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        out[p] = g
    return out
