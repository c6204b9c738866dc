import random
from fractions import Fraction

import pytest

from heckeledger.heckepoly import (
    LIFT_KINDS,
    SL3_A,
    SL3_B,
    WEIGHT2_A,
    WEIGHT2_B,
    WEIGHT4,
    HeckePolynomial,
    LiftClass,
    SL3Datum,
    check_factor_shape,
    linear_factor,
    poly_divmod,
    poly_to_json,
    sl3_lifts,
    weight2_lifts,
    weight4_lift,
)


def convolve(f, g):
    """Independent expansion oracle."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def expand_factors(*factors):
    out = [Fraction(1)]
    for f in factors:
        out = convolve(out, f)
    return out


def assemble(n, l, a, central=1):
    """The degree-n Hecke polynomial from eigenvalues a(l,1..n-1): the
    coefficient of T^k is (-1)^k l^(k(k-1)/2) a(l,k), with a(l,0) = 1
    and a(l,n) the central value (1 for the special linear group)."""
    assert len(a) == n - 1
    values = [Fraction(1)] + [Fraction(x) for x in a] + [Fraction(central)]
    return HeckePolynomial(
        l, tuple((-1) ** k * Fraction(l) ** (k * (k - 1) // 2) * values[k] for k in range(n + 1)), n)


def functional_dual(poly):
    """l^6 T^4 P(1/(l^3 T)) for a degree-4 polynomial.  The footnote
    normalization pairs each family with its contragredient: the
    weight-4 family is its own dual, the two weight-2 families are each
    other's, and the two rank-3 families are dual up to swapping gamma
    and gamma'."""
    assert poly.degree == 4
    l = poly.prime_l
    return HeckePolynomial(
        l, tuple(poly.coeffs[4 - j] * Fraction(l) ** (3 * j - 6) for j in range(5)), 4)


def evaluate(poly, t):
    """poly at T = t, by Horner."""
    out = Fraction(0)
    for c in reversed(poly.coeffs):
        out = out * t + c
    return out


# -- assemble ----------------------------------------------------------------


def test_assemble_rank2_classical_factor():
    for l, alpha in [(2, -2), (3, 5), (7, 0)]:
        poly = assemble(2, l, (alpha,), 1)
        assert list(poly.coeffs) == [1, -alpha, l]


def test_assemble_rank2_alpha_zero():
    poly = assemble(2, 2, (0,), 1)
    assert list(poly.coeffs) == [1, 0, 2]


def test_assemble_rank4_exponents():
    # exponents k(k-1)/2 = 0, 1, 3, 6 at l = 2
    a1, a2, a3 = 3, -5, 7
    poly = assemble(4, 2, (a1, a2, a3), 1)
    assert list(poly.coeffs) == [1, -a1, 2 * a2, -8 * a3, 64]


def test_assemble_requires_constant_one():
    with pytest.raises(ValueError):
        HeckePolynomial(2, (Fraction(2), Fraction(1)), 1)


def test_assemble_matches_weight2_cuspidal_factor():
    for l, alpha in [(2, -2), (5, 1)]:
        inner = assemble(2, l, (alpha,), 1)
        first, _ = weight2_lifts(l, alpha)
        assert poly_divmod(first.coeffs, inner.coeffs)[1] == []


# -- weight 2 ----------------------------------------------------------------


def test_weight2_level11_expansion():
    # Independently re-expanded by convolution: with l = 2, alpha = -2,
    # (1-4T)(1-8T)(1+2T+2T^2) = 1 - 10T + 10T^2 + 40T^3 + 64T^4.
    first, second = weight2_lifts(2, -2)
    oracle = expand_factors([1, -4], [1, -8], [1, 2, 2])
    assert list(first.coeffs) == oracle == [1, -10, 10, 40, 64]
    oracle2 = expand_factors([1, -1], [1, -2], [1, 8, 32])
    assert list(second.coeffs) == oracle2


def test_weight2_alpha_zero_second_family():
    _, second = weight2_lifts(2, 0)
    assert list(second.coeffs) == expand_factors([1, -1], [1, -2], [1, 0, 32])


def test_weight2_root_at_inverse_l_squared():
    for l in (2, 3, 5):
        first, _ = weight2_lifts(l, 1)
        assert evaluate(first, Fraction(1, l**2)) == 0


# -- weight 4 ----------------------------------------------------------------


def test_weight4_beta_zero():
    poly = weight4_lift(2, 0)
    assert list(poly.coeffs) == [1, -6, 16, -48, 64]


def test_weight4_root_and_leading():
    for l, beta in [(2, -4), (3, 2), (5, 10)]:
        poly = weight4_lift(l, beta)
        assert evaluate(poly, Fraction(1, l)) == 0
        assert poly.coeffs[4] == l**6


# -- rank 3 ------------------------------------------------------------------


def test_sl3_zero_eigenvalues():
    first, second = sl3_lifts(2, 0, 0)
    assert list(first.coeffs) == [1, -8, 0, -8, 64]
    assert list(second.coeffs) == expand_factors([1, -1], [1, 0, 0, -64])


def test_sl3_convolution_identity():
    rng = random.Random(9)
    for _ in range(20):
        l = rng.choice([2, 3, 5, 7])
        g = Fraction(rng.randint(-9, 9))
        gp = Fraction(rng.randint(-9, 9))
        first, _ = sl3_lifts(l, g, gp)
        oracle = convolve([1, -(l**3)], [1, -g, l * gp, -(l**3)])
        assert list(first.coeffs) == oracle


# -- shared structure --------------------------------------------------------


def test_forced_linear_factors_random_inputs():
    rng = random.Random(10)
    for _ in range(100):
        l = rng.choice([2, 3, 5, 7, 11])
        alpha, beta, g, gp = (rng.randint(-50, 50) for _ in range(4))
        w2a, w2b = weight2_lifts(l, alpha)
        w4 = weight4_lift(l, beta)
        s3a, s3b = sl3_lifts(l, g, gp)
        for kind, poly in [
            (WEIGHT2_A, w2a),
            (WEIGHT2_B, w2b),
            (WEIGHT4, w4),
            (SL3_A, s3a),
            (SL3_B, s3b),
        ]:
            assert check_factor_shape(kind, poly)
            for e in LIFT_KINDS[kind]:
                q, r = poly_divmod(poly.coeffs, linear_factor(l, e))
                assert not r


def test_factor_shape_needs_the_second_forced_factor():
    # (1 - 4T)(1 + T): the first weight2_a factor (1 - 2^2 T) divides,
    # the second (1 - 2^3 T) does not.
    poly = HeckePolynomial(2, tuple(Fraction(c) for c in (1, -3, -4)), 4)
    assert poly_divmod(poly.coeffs, linear_factor(2, 2))[1] == []
    assert not check_factor_shape(WEIGHT2_A, poly)


def test_division_recovers_cofactor():
    l, alpha = 3, -1
    first, _ = weight2_lifts(l, alpha)
    q, r = poly_divmod(first.coeffs, linear_factor(l, 2))
    q, r2 = poly_divmod(q, linear_factor(l, 3))
    assert not r and not r2
    assert q == [1, 1, 3]  # 1 - alpha T + l T^2


def test_integrality():
    rng = random.Random(11)
    for _ in range(50):
        l = rng.choice([2, 3, 5])
        vals = [rng.randint(-20, 20) for _ in range(4)]
        for poly in (
            *weight2_lifts(l, vals[0]),
            weight4_lift(l, vals[1]),
            *sl3_lifts(l, vals[2], vals[3]),
        ):
            assert all(c.denominator == 1 for c in poly.coeffs)


def test_functional_equation_weight4_selfdual():
    for l, beta in [(2, 0), (2, -4), (3, 2), (5, -7)]:
        poly = weight4_lift(l, beta)
        assert functional_dual(poly) == poly
        # coefficientwise: c_{4-j} = l^(6-3j) c_j
        for j in range(5):
            assert poly.coeffs[4 - j] == Fraction(l) ** (6 - 3 * j) * poly.coeffs[j]


def test_functional_equation_pairs_weight2_families():
    for l, alpha in [(2, -2), (3, 0), (5, 4)]:
        first, second = weight2_lifts(l, alpha)
        assert functional_dual(first) == second
        assert functional_dual(second) == first


def test_functional_equation_pairs_sl3_with_swap():
    for l, g, gp in [(2, 3, -1), (3, 0, 5)]:
        first, second = sl3_lifts(l, g, gp)
        first_dual, second_dual = sl3_lifts(l, gp, g)
        assert functional_dual(first) == second_dual
        assert functional_dual(second) == first_dual


def test_rational_inputs_accepted():
    first, _ = weight2_lifts(2, Fraction(1, 2))
    assert first.coeffs[1] == Fraction(-12) - Fraction(1, 2) + 0  # -(4+8) - 1/2


def test_lift_class_validates_shape():
    fam = {l: weight4_lift(l, 0) for l in (2, 3)}
    LiftClass(WEIGHT4, "test", fam)  # fine
    bad = {2: weight2_lifts(2, 1)[0]}
    with pytest.raises(ValueError):
        LiftClass(WEIGHT4, "test", bad)


def test_sl3_datum():
    d = SL3Datum(53, {2: (Fraction(1), Fraction(2))})
    assert d.pair(2) == (1, 2)


# -- wire format --------------------------------------------------------------


def test_json_roundtrip():
    poly = weight4_lift(2, -4)
    obj = poly_to_json(poly)
    assert obj["l"] == 2
    assert obj["coeffs"][0] == "1"
    assert all(isinstance(s, str) for s in obj["coeffs"])
    assert tuple(Fraction(s) for s in obj["coeffs"]) == poly.coeffs


def test_json_fraction_coeffs():
    poly = HeckePolynomial(2, (Fraction(1), Fraction(1, 3)), 1)
    obj = poly_to_json(poly)
    assert obj["coeffs"] == ["1", "1/3"]
