"""Hecke polynomials in T with exact rational coefficients.

The degree-n polynomial of the eigenvalues a(l,k) is

    sum_k (-1)^k l^(k(k-1)/2) a(l,k) T^k,    a(l,0) = 1,

normalized so that under T = l^(-s) the functional equation relates s
and n - s.  The lift families for weight-2, weight-4 and rank-3
cuspidal sources are stored expanded; their factored shapes are
checked by exact evaluation at each forced root, never by floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import frac_str

__all__ = [
    "HeckePolynomial",
    "LiftClass",
    "SL3Datum",
    "WEIGHT2_A",
    "WEIGHT2_B",
    "WEIGHT4",
    "SL3_A",
    "SL3_B",
    "LIFT_KINDS",
    "weight2_lifts",
    "weight4_lift",
    "sl3_lifts",
    "poly_mul",
    "linear_factor",
    "check_factor_shape",
    "poly_to_json",
]

WEIGHT2_A = "weight2_a"
WEIGHT2_B = "weight2_b"
WEIGHT4 = "weight4"
SL3_A = "sl3_a"
SL3_B = "sl3_b"

# Exponents e of the forced linear factors (1 - l^e T) per kind.
LIFT_KINDS: dict[str, tuple[int, ...]] = {
    WEIGHT2_A: (2, 3),
    WEIGHT2_B: (0, 1),
    WEIGHT4: (1, 2),
    SL3_A: (3,),
    SL3_B: (0,),
}


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_mul(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


def linear_factor(l: int, e: int) -> list[Fraction]:
    """The factor 1 - l^e T."""
    return [Fraction(1), Fraction(-(l**e))]


@dataclass(frozen=True)
class HeckePolynomial:
    """A polynomial in T, constant coefficient 1, attached to a prime l."""

    prime_l: int
    coeffs: tuple[Fraction, ...]
    n: int

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("Hecke polynomials are normalized with constant term 1")
        if len(self.coeffs) - 1 > self.n:
            raise ValueError("degree exceeds the rank parameter")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _poly(l: int, coeffs: Sequence, n: int) -> HeckePolynomial:
    return HeckePolynomial(l, tuple(_frac(c) for c in coeffs), n)


def weight2_lifts(l: int, alpha) -> tuple[HeckePolynomial, HeckePolynomial]:
    """Both degree-4 families attached to a weight-2 newform, expanded.

    (1 - l^2 T)(1 - l^3 T)(1 - alpha T + l T^2)  and
    (1 - T)(1 - l T)(1 - l^2 alpha T + l^5 T^2).
    """
    alpha = _frac(alpha)
    first = poly_mul(
        poly_mul(linear_factor(l, 2), linear_factor(l, 3)),
        [Fraction(1), -alpha, Fraction(l)],
    )
    second = poly_mul(
        poly_mul(linear_factor(l, 0), linear_factor(l, 1)),
        [Fraction(1), -(l**2) * alpha, Fraction(l**5)],
    )
    return _poly(l, first, 4), _poly(l, second, 4)


def weight4_lift(l: int, beta) -> HeckePolynomial:
    """(1 - l T)(1 - l^2 T)(1 - beta T + l^3 T^2), expanded.

    Meaningful for a weight-4 newform whose central value vanishes;
    checking that condition is the caller's job.
    """
    beta = _frac(beta)
    out = poly_mul(
        poly_mul(linear_factor(l, 1), linear_factor(l, 2)),
        [Fraction(1), -beta, Fraction(l**3)],
    )
    return _poly(l, out, 4)


def sl3_lifts(l: int, gamma, gamma_prime) -> tuple[HeckePolynomial, HeckePolynomial]:
    """Both degree-4 families attached to a rank-3 cuspidal class.

    (1 - l^3 T)(1 - gamma T + l gamma' T^2 - l^3 T^3)  and
    (1 - T)(1 - l gamma T + l^3 gamma' T^2 - l^6 T^3).
    """
    gamma = _frac(gamma)
    gamma_prime = _frac(gamma_prime)
    first = poly_mul(
        linear_factor(l, 3),
        [Fraction(1), -gamma, l * gamma_prime, Fraction(-(l**3))],
    )
    second = poly_mul(
        linear_factor(l, 0),
        [Fraction(1), -l * gamma, l**3 * gamma_prime, Fraction(-(l**6))],
    )
    return _poly(l, first, 4), _poly(l, second, 4)


def check_factor_shape(kind: str, poly: HeckePolynomial) -> bool:
    """Whether every forced linear factor 1 - l^e T of the kind divides
    the polynomial, for a prime l.

    1 - L T divides sum_i c_i T^i exactly when T = 1/L is a root, that
    is when sum_i c_i L^(deg - i) = 0, which Horner's rule gives from
    the constant term up.  The exponents of each kind are distinct, so
    for l >= 2 the roots 1/l^e are too, and the factors divide
    together exactly when each one does.
    """
    if kind not in LIFT_KINDS:
        raise ValueError(f"unknown lift kind {kind!r}")
    for e in LIFT_KINDS[kind]:
        inv_root = poly.prime_l**e
        value = 0
        for c in poly.coeffs:
            value = value * inv_root + c
        if value:
            return False
    return True


@dataclass(frozen=True)
class SL3Datum:
    """Hecke data of one rank-3 cuspidal class: l -> (gamma, gamma')."""

    level: int
    eigenvalues: dict[int, tuple[Fraction, Fraction]]

    def pair(self, l: int) -> tuple[Fraction, Fraction]:
        return self.eigenvalues[l]


@dataclass(frozen=True)
class LiftClass:
    """One polynomial family of a lift, tagged with its kind and source."""

    kind: str
    source: str
    polynomial_family: dict[int, HeckePolynomial]

    def __post_init__(self):
        for poly in self.polynomial_family.values():
            if not check_factor_shape(self.kind, poly):
                raise ValueError(
                    f"{self.kind} polynomial at l={poly.prime_l} fails its factor shape"
                )


# -- wire format -------------------------------------------------------------


def poly_to_json(poly: HeckePolynomial) -> dict:
    """Exact wire form: coefficients as decimal strings."""
    return {"l": poly.prime_l, "coeffs": [frac_str(c) for c in poly.coeffs]}
