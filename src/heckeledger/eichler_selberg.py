"""Dimensions of the cusp forms S_w(Gamma0(N)) from the classical formula.

For even w >= 2, with mu the index of Gamma0(N) in SL2(Z), nu2 and nu3
its elliptic points of orders 2 and 3, c its cusps and
g = 1 + mu/12 - nu2/4 - nu3/3 - c/2 the genus of X0(N),

    dim S_w = (w - 1)(g - 1) + (w/2 - 1) c + floor(w/4) nu2 + floor(w/3) nu3 + [w = 2]

(Diamond-Shurman, A First Course in Modular Forms, Thm 3.5.1; Stein,
Modular Forms: A Computational Approach, ch. 6).  It is the trace of
T_1 in the Eichler-Selberg trace formula.  Nothing here touches modular
symbols or linear algebra, so it checks the presentations independently.
"""

from __future__ import annotations

__all__ = ["dim_cusp_forms", "num_cusps"]


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def num_cusps(n: int) -> int:
    """Cusps of X0(n): the sum of phi(gcd(d, n/d)) over d | n, a product
    over the prime powers p^e || n of the sum of phi(p^min(i, e - i))."""
    total = 1
    for p, e in _factor(n).items():
        phi = [1] + [p ** m - p ** (m - 1) for m in range(1, e // 2 + 1)]
        total *= sum(phi[min(i, e - i)] for i in range(e + 1))
    return total


def dim_cusp_forms(n: int, w: int) -> int:
    """dim S_w(Gamma0(n)) for n >= 1 and even w >= 2."""
    if n < 1 or w < 2 or w % 2:
        raise ValueError(f"need a level n >= 1 and an even weight w >= 2, got n = {n}, w = {w}")
    mu, nu2, nu3 = n, int(n % 4 != 0), int(n % 9 != 0)
    for p in _factor(n):
        mu = mu // p * (p + 1)
        nu2 *= 1 if p == 2 else 1 + (-1) ** ((p - 1) // 2)   # 1 + (-1/p)
        nu3 *= 1 if p == 3 else (2 if p % 3 == 1 else 0)     # 1 + (-3/p)
    cusps = num_cusps(n)
    genus = (12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps) // 12
    return (w - 1) * (genus - 1) + (w // 2 - 1) * cusps + (w // 4) * nu2 + (w // 3) * nu3 + (w == 2)
