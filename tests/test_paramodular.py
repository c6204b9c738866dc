import random
from fractions import Fraction

import pytest

from heckeledger import paramodular
from heckeledger.exactlin import InputError
from heckeledger.paramodular import (
    GritsenkoExceedsTotal,
    NonIntegralResult,
    ParamodularDims,
    complement_dims,
    dim_S3,
    kronecker_euler,
    load_gritsenko_csv,
)

from oracles import dim_jacobi, legendre_via_squares, primes_upto


def kronecker_reciprocity(a, p):
    """Reference (a/p) by quadratic reciprocity and the supplementary laws."""
    acc = 1
    b = p
    while True:
        a %= b
        if a == 0:
            return 0
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                acc = -acc
        if a == 1:
            return acc
        if a % 4 == 3 and b % 4 == 3:
            acc = -acc
        a, b = b, a


def f_term(p):
    """f(p) as a Fraction, read through the package's integer 2880 f(p)."""
    return Fraction(paramodular._f_2880(p), 2880)


def g_term(p):
    """g(p) as a Fraction, read through the package's integer 2880 g(p)."""
    return Fraction(paramodular._g_2880(p), 2880)


# -- Kronecker symbol --------------------------------------------------------


def test_kronecker_one():
    for p in (3, 5, 7, 11, 97):
        assert kronecker_euler(1, p) == 1


def test_kronecker_minus_one_mod5():
    assert kronecker_euler(-1, 5) == 1  # 5 = 1 mod 4


def test_kronecker_two_mod5():
    assert kronecker_euler(2, 5) == -1  # squares mod 5 are 1, 4


def test_kronecker_zero():
    assert kronecker_euler(10, 5) == 0


def test_euler_and_reciprocity_agree():
    rng = random.Random(12)
    ps = [p for p in primes_upto(500) if p > 2]
    for _ in range(10**4):
        p = rng.choice(ps)
        a = rng.randint(-10**6, 10**6)
        assert kronecker_euler(a, p) == kronecker_reciprocity(a, p)


def test_against_brute_force_squares():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(-20, 21):
            assert kronecker_euler(a, p) == legendre_via_squares(a, p)


def test_multiplicativity():
    rng = random.Random(13)
    for _ in range(500):
        p = rng.choice([3, 5, 7, 11, 13, 101, 997])
        a, b = rng.randint(-999, 999), rng.randint(-999, 999)
        assert kronecker_euler(a * b, p) == kronecker_euler(a, p) * kronecker_euler(b, p)


def test_symbol_object():
    assert kronecker_euler(-1, 5) == 1


# -- the f and g corrections -------------------------------------------------


def test_f_term():
    assert f_term(5) == Fraction(1, 5)
    assert f_term(7) == Fraction(2, 5)
    assert f_term(11) == Fraction(0)
    assert f_term(13) == Fraction(2, 5)


def test_g_term():
    assert g_term(5) == Fraction(1, 6)
    assert g_term(7) == Fraction(0)
    assert g_term(17) == Fraction(1, 6)


# -- the dimension formula ---------------------------------------------------


def test_anchor_values():
    assert dim_S3(2) == 0
    assert dim_S3(3) == 0


def test_dim_five_by_hand():
    # Independent re-derivation in plain rational arithmetic:
    # 1/120 + 5/24 + 1/6 + 1/4 + 1/5 + 1/6 - 1 = 0.
    by_hand = (
        Fraction(1, 120)
        + Fraction(5, 24)
        + Fraction(1, 6)
        + Fraction(1, 4)
        + Fraction(1, 5)
        + Fraction(1, 6)
        - 1
    )
    assert by_hand == 0
    assert dim_S3(5) == 0


def test_rejects_composite():
    with pytest.raises(ValueError):
        dim_S3(4)


def ref_dim_S3(p):
    """Ibukiyama's sum in Fractions, term by term, for a prime p >= 5."""
    k1, k3, k2 = ((1 if pow(a, (p - 1) // 2, p) == 1 else -1) for a in (-1, -3, 2))
    f = Fraction(1, 5) if p == 5 else Fraction(2, 5) if p % 5 in (2, 3) else Fraction(0)
    g = Fraction(1, 6) if p % 12 == 5 else Fraction(0)
    return (Fraction(p * p - 1, 2880) + Fraction((p + 1) * (1 - k1), 64)
            + Fraction(5 * (p - 1) * (1 + k1), 192) + Fraction((p + 1) * (1 - k3), 72)
            + Fraction((p - 1) * (1 + k3), 36) + Fraction(1 - k2, 8) + f + g - 1)


def test_dim_matches_fraction_reference():
    for p in primes_upto(10**4):
        if p >= 5:
            assert dim_S3(p) == ref_dim_S3(p), p


def test_non_integral_sum_raises(monkeypatch):
    monkeypatch.setattr(paramodular, "_g_2880", lambda p: 1)
    # 2880 g(5) = 480 becomes 1: the sum is -479/2880
    with pytest.raises(NonIntegralResult, match="dim S3\\(5\\) evaluated to -479/2880"):
        dim_S3(5)


def test_integrality_sweep_small():
    for p in primes_upto(2000):
        assert dim_S3(p) >= 0


def test_growth_envelope():
    # Sanity envelope, not a claim from the source material: the
    # formula is p^2/2880 + O(p) over the tested range.
    for p in primes_upto(5000):
        if p < 5:
            continue
        assert abs(dim_S3(p) - p * p / 2880) <= 1.0 * p


def test_known_nonzero_value():
    # First computed by this implementation, kept as a regression anchor
    # after checking integrality and the growth envelope.
    assert dim_S3(37) == 4


# dim_S3(p) - dim J_{3,p} for 61 <= p < 200: a difference of two
# formulas, computed here and pinned as that, not taken from the
# literature.
JACOBI_EXCESS = {61: 1, 73: 1, 79: 1, 89: 1, 97: 2, 101: 2, 103: 2, 109: 3, 113: 1,
                 127: 3, 131: 2, 137: 2, 139: 4, 149: 4, 151: 5, 157: 7, 163: 4, 167: 4,
                 173: 6, 179: 4, 181: 10, 191: 6, 193: 10, 197: 7, 199: 10}


def test_dim_bounded_below_by_jacobi_forms():
    # Gritsenko's lift embeds the Jacobi cusp forms J_{3,p} into S_3(K(p)),
    # so dim S_3(K(p)) >= dim J_{3,p}; the Jacobi count shares nothing
    # with Ibukiyama's sum.
    excess = {}
    for p in primes_upto(10**4):
        if p >= 5:
            excess[p] = dim_S3(p) - dim_jacobi(3, p)
            assert excess[p] >= 0, p
    assert all(excess[p] == 0 for p in excess if p < 61)
    assert {p: d for p, d in excess.items() if 61 <= p < 200 and d} == JACOBI_EXCESS
    # dim_S3(37) = 4 is the Jacobi count with no excess.
    assert dim_jacobi(3, 37) == 4 and excess[37] == 0


# -- the complement split ----------------------------------------------------


def test_complement_all_zero():
    assert complement_dims(5, 0) == ParamodularDims(5, 0, 0, 0)
    assert complement_dims(2, 0) == ParamodularDims(2, 0, 0, 0)


def test_complement_full_lift():
    total = dim_S3(37)
    dims = complement_dims(37, total)
    assert dims.dim_nonGritsenko == 0


def test_complement_unknown():
    dims = complement_dims(37, None)
    assert dims.dim_gritsenko is None and dims.dim_nonGritsenko is None
    assert dims.dim_S3 == 4


def test_complement_rejects_excess():
    with pytest.raises(GritsenkoExceedsTotal):
        complement_dims(5, 1)


def test_dims_invariant():
    with pytest.raises(ValueError):
        ParamodularDims(37, 4, 1, 1)


# -- data ingestion ----------------------------------------------------------


def test_load_gritsenko():
    text = "# paramodular lift data\np,dim_gritsenko\n2,0\n37,4\n"
    assert load_gritsenko_csv(text) == {2: 0, 37: 4}


def test_load_gritsenko_rejects_composite():
    with pytest.raises(ValueError):
        load_gritsenko_csv("4,0\n")


def test_load_gritsenko_rejects_excess():
    with pytest.raises(GritsenkoExceedsTotal):
        load_gritsenko_csv("5,3\n")


def test_load_gritsenko_tests_each_prime_once(monkeypatch):
    # dim_S3 tests each line's p, and the loader does not test it again
    calls = []

    def counted(n, _is_prime=paramodular._is_prime):
        calls.append(n)
        return _is_prime(n)

    monkeypatch.setattr(paramodular, "_is_prime", counted)
    text = "# data\np,dim_gritsenko\n2,0\n\n37,4\n101,0\n"
    assert load_gritsenko_csv(text) == {2: 0, 37: 4, 101: 0}
    assert calls == [2, 37, 101]


@pytest.mark.parametrize("row, p", [("4,0", 4), ("1,0", 1), ("-7,0", -7), ("91,1", 91)])
def test_load_gritsenko_names_the_line_of_a_non_prime(row, p):
    with pytest.raises(InputError) as info:
        load_gritsenko_csv(f"p,dim_gritsenko\n2,0\n{row}\n")
    assert type(info.value) is InputError
    assert str(info.value) == f"line 3: {p} is not prime"


@pytest.mark.parametrize("row, message", [
    ("5,0,1", "expected `p,dim_gritsenko`, got '5,0,1'"),
    ("5", "expected `p,dim_gritsenko`, got '5'"),
    ("5,one", "invalid literal for int() with base 10: 'one'"),
    ("x,0", "invalid literal for int() with base 10: 'x'"),
])
def test_load_gritsenko_names_the_line_of_a_malformed_row(row, message):
    with pytest.raises(InputError) as info:
        load_gritsenko_csv(f"p,dim_gritsenko\n2,0\n{row}\n")
    assert type(info.value) is InputError
    assert str(info.value) == f"line 3: {message}"


def test_load_gritsenko_names_the_line_of_an_excess():
    with pytest.raises(GritsenkoExceedsTotal, match="^line 2: Gritsenko dimension 3 "):
        load_gritsenko_csv("2,0\n5,3\n")
