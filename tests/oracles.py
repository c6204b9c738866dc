"""Independent first-principles oracles for the test suite.

Nothing here imports the package under test.  Dimensions of modular
form spaces come from the classical index/elliptic-point/cusp counts
for X_0(N); eigenvalues of the level-11 weight-2 form come from point
counts on a stored Weierstrass equation; traces of Hecke operators come
from the Eichler-Selberg trace formula, with class numbers counted from
reduced binary quadratic forms; dimensions of Jacobi forms come from
Eichler and Zagier's floor sums over level-one modular forms.
"""

from fractions import Fraction
from math import gcd, isqrt


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def legendre_via_squares(a: int, p: int) -> int:
    """(a/p) by brute enumeration of squares; p odd prime."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def index_gamma0(n: int) -> int:
    mu = n
    for p in prime_factors(n):
        mu = mu // p * (p + 1)
    return mu


def nu2(n: int) -> int:
    if n % 4 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        if p == 2:
            continue
        out *= 1 + (1 if p % 4 == 1 else -1)
    return out


def nu3(n: int) -> int:
    if n % 9 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        if p == 3:
            continue
        out *= 1 + (1 if p % 3 == 1 else -1)
    return out


def num_cusps(n: int) -> int:
    return sum(euler_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)


def genus_x0(n: int) -> int:
    g = (
        1
        + Fraction(index_gamma0(n), 12)
        - Fraction(nu2(n), 4)
        - Fraction(nu3(n), 3)
        - Fraction(num_cusps(n), 2)
    )
    assert g.denominator == 1
    return int(g)


def dim_cusp_forms(n: int, weight: int) -> int:
    """dim S_weight(Gamma0(n)) for even weight >= 2."""
    assert weight >= 2 and weight % 2 == 0
    g = genus_x0(n)
    if weight == 2:
        return g
    return (
        (weight - 1) * (g - 1)
        + (weight // 2 - 1) * num_cusps(n)
        + (weight // 4) * nu2(n)
        + (weight // 3) * nu3(n)
    )


def dim_eisenstein(n: int, weight: int) -> int:
    assert weight >= 2 and weight % 2 == 0
    if weight == 2:
        return num_cusps(n) - 1
    return num_cusps(n)


def dim_modular_forms_level1(weight: int) -> int:
    """dim M_weight(SL2(Z)): 0 for odd, negative or weight 2."""
    if weight < 0 or weight % 2 or weight == 2:
        return 0
    return weight // 12 + (weight % 12 != 2)


def dim_jacobi(k: int, m: int) -> int:
    """dim J_{k,m} for odd k and index m >= 1 (Eichler and Zagier, The
    Theory of Jacobi Forms, 1985): the sum over 1 <= j <= m - 1 of
    dim M_{k+2j-1}(SL2(Z)) - ceil(j^2 / 4m)."""
    assert k % 2 == 1 and m >= 1
    return sum(dim_modular_forms_level1(k + 2 * j - 1) - -(-j * j // (4 * m))
               for j in range(1, m))


# Weierstrass equations:
#   11a1: y^2 + y = x^3 - x^2 - 10x - 20
#   14a1: y^2 + xy + y = x^3 + 4x - 6
CURVE_11A = (0, -1, 1, -10, -20)
CURVE_14A = (1, 0, 1, 4, -6)


def curve_ap(curve: tuple[int, int, int, int, int], l: int) -> int:
    """a_l = l + 1 - #E(F_l) by direct point counting at a good prime l."""
    a1, a2, a3, a4, a6 = curve
    count = 1  # the point at infinity
    for x in range(l):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % l
        for y in range(l):
            if (y * y + a1 * x * y + a3 * y) % l == rhs:
                count += 1
    return l + 1 - count


def curve11_ap(l: int) -> int:
    return curve_ap(CURVE_11A, l)


def sl2_lift(c: int, d: int, n: int) -> tuple[int, int, int, int]:
    """(a, b, c1, d1) with a d1 - b c1 = 1 and (c1, d1) = (c, d) mod n,
    for gcd(c, d, n) = 1: shift d by multiples of n until it is prime
    to c1, then a = d1^-1 mod c1."""
    c1 = c % n or n
    d1 = d % n
    while gcd(c1, d1) != 1:
        d1 += n
    a = pow(d1, -1, c1) if c1 > 1 else 0
    b = (a * d1 - 1) // c1
    return a, b, c1, d1


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


# -- Eichler-Selberg trace formula -------------------------------------------
# In H. Cohen's form, "Trace des operateurs de Hecke sur Gamma0(N)",
# Seminaire de Theorie des Nombres de Bordeaux (1976-77); also W. Stein,
# Modular Forms: A Computational Approach (2007), Section 10.


def class_number_weighted(d: int) -> Fraction:
    """h(d) / (w(d) / 2) for a negative discriminant d, by counting the
    reduced primitive forms (a, b, c), b^2 - 4ac = d; the forms
    a(x^2 + y^2) and a(x^2 + xy + y^2) count 1/2 and 1/3."""
    assert d < 0 and d % 4 in (0, 1)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def hecke_trace(n: int, level: int, weight: int) -> int:
    """tr T_n on S_weight(Gamma0(level)) with trivial character, for
    even weight >= 2 and gcd(n, level) = 1: A1 + A2 + A3 + A4."""
    assert weight >= 2 and weight % 2 == 0 and gcd(n, level) == 1
    big_n, k = level, weight
    psi = index_gamma0(big_n)
    r = isqrt(n)
    # A1: the identity term, only for square n.
    a1 = Fraction(n ** (k // 2 - 1) * (k - 1) * psi, 12) if r * r == n else Fraction(0)
    # A2: elliptic terms, t^2 < 4n.
    a2 = Fraction(0)
    for t in range(-isqrt(4 * n), isqrt(4 * n) + 1):
        disc = t * t - 4 * n
        if disc >= 0:
            continue
        u0, u1 = 0, 1  # (rho^(k-1) - rhobar^(k-1)) / (rho - rhobar) by recurrence
        for _ in range(k - 2):
            u0, u1 = u1, t * u1 - n * u0
        inner = Fraction(0)
        for f in range(1, isqrt(-disc) + 1):
            if disc % (f * f) or (disc // (f * f)) % 4 not in (0, 1):
                continue
            n_f = gcd(big_n, f)
            roots = sum(1 for x in range(big_n) if (x * x - t * x + n) % (big_n * n_f) == 0)
            mu = Fraction(psi, index_gamma0(big_n // n_f)) * roots
            inner += class_number_weighted(disc // (f * f)) * mu
        a2 -= Fraction(u1) * inner / 2
    # A3: hyperbolic terms, one per divisor pair d <= n/d; the divisor
    # d = sqrt(n) is counted half.
    a3 = Fraction(0)
    for d in _divisors(n):
        e = n // d
        if d > e:
            continue
        cusps = sum(
            euler_phi(gcd(tau, big_n // tau))
            for tau in _divisors(big_n)
            if (e - d) % gcd(tau, big_n // tau) == 0
        )
        a3 -= Fraction(d ** (k - 1) * cusps, 2 if d == e else 1)
    # A4: weight 2 only.
    a4 = sum(_divisors(n)) if k == 2 else 0
    total = a1 + a2 + a3 + a4
    assert total.denominator == 1
    return int(total)
