"""Modular symbols for Gamma0(N) with polynomial coefficients.

The cohomology H^1(Gamma0(N); E_k) is presented on Manin generators
indexed by P^1(Z/N) x {monomials X^i Y^(k-1-i)}, modulo the orientation
relation (from the order-4 element S) and the triangle relation (from
the order-3 element sigma).  The presentation is the two-term quotient
first (each S pair of generators collapses to one representative, or
to zero) followed by one set of three-term relations per sigma-orbit
of P^1(Z/N), echelonized on the representatives; its free generators
and their expressions are those of the full relation matrix.
Hecke operators act on Manin symbols directly through Merel's
Heilbronn matrices; continued fractions are used only to write an
arbitrary symbol on the Manin generators (`project_symbol`).
Everything is computed over a large prime field.  A rational Hecke
eigenvalue a_l (l prime to N) is an integer with a_l^2 <= 4 l^(w-1)
(Deligne), so only roots whose signed lift meets that bound are found
and split off; they are lifted back to Z and only reported when two
independent primes agree.  The census runs on the two sign quotients
V/(iota -+ 1)V of the star involution iota = [[-1, 0], [0, 1]], which
commutes with every T_l: each is a Manin presentation with one more
two-term relation, about half the size of V, and their cuspidal parts
are isomorphic Hecke modules (Stein, Modular Forms, ch. 8; Cremona,
Algorithms for Modular Elliptic Curves, ch. II), so they are split in
lockstep and their counts are summed.  Each cuspidal part is one copy
of S_w(Gamma0(N)), which the classical dimension formula of
`eichler_selberg` checks.  `build_space` returns the whole space, which
is presented only when something reads it: its dimensions, its Hecke
matrices or the value of a nonzero winding pairing.

Conventions, fixed once and used everywhere:

* a matrix g in SL2(Z) acts on a cusp x/y through its columns,
  g.(x/y) = (a x + b y)/(c x + d y);
* g acts on a coefficient polynomial by substituting the adjugate,
  (g.P)(X, Y) = P(d X - b Y, -c X + a Y), so that for determinant-l
  matrices no denominators appear and the boundary eigenvalue at
  weight 2 is l + 1;
* the Manin generator (P, (c:d)) stands for g.(P tensor [0, oo])
  for any lift g of (c:d), which is well defined in the coinvariants.

Only odd k (even weight k+1) is supported: for odd k the evaluation
pairing at a cusp is insensitive to the sign of its (num, den)
representative, which is what makes the boundary map well defined
without half-integral bookkeeping.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

from .eichler_selberg import dim_cusp_forms, num_cusps
from .exactlin import (
    FieldContext,
    FieldMatrix,
    PrimeField,
    _is_prime,
    echelonize,
    eigen_step,
    frac_str,
    rank_and_kernel,
    rational_reconstruct,
    restrict_operator,
    signed_lift,
    split_eigenspaces,
)

__all__ = [
    "Cusp",
    "HomogeneousPoly",
    "CoefficientModule",
    "ModularSymbol",
    "ProjectiveLine",
    "ManinBasisSpace",
    "EigenSystem",
    "CuspidalSplit",
    "UnsupportedWeight",
    "BadPrime",
    "NoCentralMonomial",
    "MultiPrimeMismatch",
    "HalvesMismatch",
    "determinant",
    "unimodularize",
    "transform",
    "build_space",
    "hecke_operator",
    "eigensystems",
    "cuspidal_coverage",
    "winding_pairing",
    "space_summary",
    "eigensystems_csv",
]


class UnsupportedWeight(Exception):
    """Raised for coefficient modules this implementation does not cover."""


class BadPrime(ValueError):
    """Hecke operator requested at a prime dividing the level, or not prime."""


class NoCentralMonomial(Exception):
    """Winding pairing needs odd k so the central monomial X^m Y^m exists."""


class MultiPrimeMismatch(Exception):
    """The two working primes disagree; the result cannot be certified."""


class HalvesMismatch(Exception):
    """The sign quotients are not halves of the dimensions that the
    classical formula gives the whole space, or the whole space pairs
    the winding symbol to zero where its sign quotient does not."""


# Height bound for lifting winding pairings back to Q; only the winding
# pairing uses it.  Far below sqrt(p/2) for every accepted field prime.
RECONSTRUCT_BOUND = 10**6

_DEFAULT_CONTEXT: Optional[FieldContext] = None


def _default_context() -> FieldContext:
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = FieldContext.default()
    return _DEFAULT_CONTEXT


# ---------------------------------------------------------------------------
# Cusps


class Cusp:
    """A point of P^1(Q): num/den in lowest terms, den >= 0, oo = 1/0."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den == 0 and num == 0:
            raise ValueError("0/0 is not a cusp")
        g = gcd(num, den)
        if g:
            num //= g
            den //= g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Cusp is immutable")

    @classmethod
    def infinity(cls) -> "Cusp":
        return cls(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    def apply(self, a: int, b: int, c: int, d: int) -> "Cusp":
        """Image under the Moebius action of the integer matrix [[a,b],[c,d]]."""
        return Cusp(a * self.num + b * self.den, c * self.num + d * self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cusp) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"{self.num}/{self.den}"


def _cusp_key(den: int, inv: int, level: int) -> tuple[int, int]:
    """(d, u) with d = gcd(den, level), equal exactly for Gamma0(level)-
    equivalent cusps x/den, where inv = x^-1 mod den (any value when
    den = 0).

    Cremona's criterion (Algorithms for Modular Elliptic Curves,
    Prop. 2.2.3): x1/y1 ~ x2/y2 iff s1 y2 = s2 y1 mod gcd(y1 y2, level),
    s = x^-1 mod y; equivalent cusps share d.  With y = d a and
    g = gcd(d, level/d), a is prime to g, the modulus is d g, and the
    test reads s1 / a1 = s2 / a2 mod g: u = s / a mod g.  The key reads
    den modulo level and inv modulo g, and -x/y has the key of
    (den, -inv).
    """
    d = gcd(den, level)
    g = gcd(d, level // d)
    if g == 1:
        return d, 0
    return d, inv * pow(den // d, -1, g) % g


# ---------------------------------------------------------------------------
# Coefficient polynomials


class HomogeneousPoly:
    """Homogeneous polynomial of degree k-1 in X, Y; coeffs[i] on X^i Y^(k-1-i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int | Fraction]):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("HomogeneousPoly is immutable")

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @classmethod
    def monomial(cls, k: int, i: int) -> "HomogeneousPoly":
        coeffs = [0] * k
        coeffs[i] = 1
        return cls(coeffs)

    def subst(self, a, b, c, d) -> "HomogeneousPoly":
        """P(aX + bY, cX + dY), expanded on the monomial basis."""
        deg = len(self.coeffs) - 1
        pow1 = [[1]]
        pow2 = [[1]]
        for m in range(deg):
            prev1, prev2 = pow1[m], pow2[m]
            nxt1 = [0] * (m + 2)
            nxt2 = [0] * (m + 2)
            for j in range(m + 1):
                nxt1[j] += b * prev1[j]
                nxt1[j + 1] += a * prev1[j]
                nxt2[j] += d * prev2[j]
                nxt2[j + 1] += c * prev2[j]
            pow1.append(nxt1)
            pow2.append(nxt2)
        out = [0] * (deg + 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            first = pow1[i]
            second = pow2[deg - i]
            for j1, v1 in enumerate(first):
                if not v1:
                    continue
                civ1 = ci * v1
                for j2, v2 in enumerate(second):
                    if v2:
                        out[j1 + j2] += civ1 * v2
        return HomogeneousPoly(out)

    def cleared(self) -> tuple["HomogeneousPoly", int]:
        """Integer polynomial plus the common denominator that was cleared."""
        den = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) if isinstance(c, Fraction) else c * den for c in self.coeffs]
        return HomogeneousPoly(ints), den

    def __eq__(self, other) -> bool:
        return isinstance(other, HomogeneousPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"HomogeneousPoly({list(self.coeffs)})"


@dataclass(frozen=True)
class CoefficientModule:
    """The k-dimensional module of degree k-1 polynomials (weight k+1 forms)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def weight(self) -> int:
        return self.k + 1

    def monomials(self) -> list[HomogeneousPoly]:
        return [HomogeneousPoly.monomial(self.k, i) for i in range(self.k)]


@dataclass(frozen=True)
class ModularSymbol:
    """The geometric generator [q1, q2] tensor a coefficient polynomial."""

    q1: Cusp
    q2: Cusp
    coeff: HomogeneousPoly


def determinant(s: ModularSymbol) -> int:
    """n(xi) = |a1 b2 - a2 b1| on reduced endpoint fractions; 1 iff unimodular."""
    return abs(s.q1.num * s.q2.den - s.q2.num * s.q1.den)


def _adj(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    return d, -b, -c, a


def transform(s: ModularSymbol, g: Sequence[Sequence[int]]) -> ModularSymbol:
    """g.s for g in SL2(Z): Moebius on endpoints, adjugate substitution on coeff."""
    (a, b), (c, d) = g
    if a * d - b * c != 1:
        raise ValueError("transform expects a determinant-1 integer matrix")
    return ModularSymbol(s.q1.apply(a, b, c, d), s.q2.apply(a, b, c, d), s.coeff.subst(*_adj(a, b, c, d)))


# ---------------------------------------------------------------------------
# Manin's continued-fraction reduction


def _nearest_quotient(a: int, b: int) -> int:
    # round(a/b) with ties toward -inf; b > 0
    return -((b - 2 * a) // (2 * b))


def _convergent_chain(q: Cusp) -> list[Cusp]:
    """Cusps [oo, c_0, ..., q]: consecutive pairs are unimodular.

    Centered (nearest-integer) continued fraction: remainders at least
    halve at every step, so the chain has length <= log2(den) + 2.
    """
    if q.is_infinity:
        return [q]
    quots: list[tuple[int, int]] = []
    a, b = q.num, q.den
    sign = 1
    while b:
        quot = _nearest_quotient(a, b)
        r = a - quot * b
        quots.append((quot, sign))
        sign = 1 if r >= 0 else -1
        a, b = b, abs(r)
    chain = [Cusp.infinity()]
    pm2, qm2 = 0, 1
    pm1, qm1 = 1, 0
    for quot, s in quots:
        pc = quot * pm1 + s * pm2
        qc = quot * qm1 + s * qm2
        chain.append(Cusp(pc, qc))
        pm2, qm2, pm1, qm1 = pm1, qm1, pc, qc
    return chain


def unimodularize(s: ModularSymbol) -> list[ModularSymbol]:
    """Write s as a telescoping chain of determinant-1 symbols.

    The chain runs from s.q1 to s.q2 through the convergents of both
    endpoints, with the shared initial segment through oo cancelled
    (such a cancelled pair sums to zero by the orientation relation).
    Every output symbol carries the coefficient of s unchanged: the
    triangle relation splits [q1, q2] as [q1, c] + [c, q2] with the
    same polynomial on both parts.
    """
    if s.q1 == s.q2:
        return []
    if determinant(s) == 1:
        return [s]
    left = list(reversed(_convergent_chain(s.q1)))
    right = _convergent_chain(s.q2)
    j = 0
    while len(left) >= 2 and j + 1 < len(right) and left[-2] == right[j + 1]:
        left.pop()
        j += 1
    path = left[:-1] + right[j:]
    return [ModularSymbol(path[i], path[i + 1], s.coeff) for i in range(len(path) - 1)]


# ---------------------------------------------------------------------------
# P^1(Z/N)


class ProjectiveLine:
    """Canonical representatives and index lookup for P^1(Z/N).

    The canonical point is that of the standard algorithm (Stein,
    Algorithm 8.29): scale by a unit so the first coordinate becomes
    g = gcd(c, N), then minimize the second coordinate over the units
    t = 1 mod N/g, which fix g.  Both steps are tabulated once per
    level, so `index` is two list lookups and one product mod N.
    """

    def __init__(self, level: int):
        if level < 1:
            raise ValueError("level must be positive")
        self.level = n = level
        # For each divisor g, the index of the point (g : v) that every
        # second coordinate reduces to, or None when gcd(g, v) != 1; the
        # orbit of v under the units t = 1 mod N/g is filled from its
        # smallest element, so the points come out sorted.  (c : d) with
        # c = 0 is (0 : 1), point 0.
        self.points: list[tuple[int, int]] = [(0, 1)]
        tables: dict[int, list] = {n: [0 if gcd(v, n) == 1 else None for v in range(n)]}
        for g in range(1, n):
            if n % g:
                continue
            units = [t for t in range(1, n, n // g) if gcd(t, n) == 1]
            table: list = [None] * n
            for v in range(n):
                if table[v] is None and gcd(g, v) == 1:
                    idx = len(self.points)
                    self.points.append((g, v))
                    for t in units:
                        table[v * t % n] = idx
            tables[g] = table
        # For each residue c: a unit s with s c = g (mod N), and the
        # table for g = gcd(c, N).
        self._scale: list[tuple[int, list]] = [(1, tables[n])]
        for c in range(1, n):
            g = gcd(c, n)
            s = pow(c // g, -1, n // g)
            while gcd(s, n) != 1:
                s += n // g
            self._scale.append((s, tables[g]))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, c: int, d: int) -> int:
        """The position in `points` of the point (c : d)."""
        n = self.level
        s, table = self._scale[c % n]
        idx = table[s * d % n]
        if idx is None:
            raise ValueError(f"({c % n}:{d % n}) is not a point of P^1(Z/{n})")
        return idx


# Right action of the standard torsion elements on bottom rows (c, d),
# plus the corresponding inverse substitution on coefficients:
#   S = [[0,-1],[1,0]]           (c,d) -> (d,-c)    P -> P(-Y, X)
#   sigma = [[-1,-1],[1,0]]      (c,d) -> (d-c,-c)  P -> P(-X-Y, X)
#   sigma^2 = [[0,1],[-1,-1]]    (c,d) -> (-d,c-d)  P -> P(Y, -X-Y)


def _heilbronn(n: int) -> list[tuple[int, int, int, int]]:
    """Merel's set X_n: all (a, b, e, f) with a > b >= 0, f > e >= 0 and
    af - be = n.  Since be <= (a-1)(f-1), a + f <= n + 1."""
    out = []
    for a in range(1, n + 1):
        for f in range(-(-n // a), n + 2 - a):
            m = a * f - n
            if m == 0:
                out += [(a, 0, e, f) for e in range(f)]
                out += [(a, b, 0, f) for b in range(1, a)]
            else:
                out += [(a, b, m // b, f) for b in range(1, a) if m % b == 0 and m // b < f]
    return out


# ---------------------------------------------------------------------------
# The Manin basis space


@dataclass(frozen=True)
class EigenSystem:
    """A two-prime-confirmed rational Hecke eigensystem."""

    level: int
    weight: int
    eigenvalues: dict[int, Fraction]
    cuspidal: bool
    dim: int


@dataclass
class CuspidalSplit:
    """Eigensystem census of the cuspidal subspace at a list of primes.

    `systems` carry eigenvalues confirmed at both working primes.
    `unresolved_dim` counts the cuspidal dimension not covered by any
    confirmed system; nothing is ever silently dropped.  `unresolved`
    splits it by cause, and its values sum to `unresolved_dim`:

    * `no_bounded_integer_root`: no integer eigenvalue within Deligne's
      bound at the primary prime (irrational eigensystems);
    * `defective`: generalized eigenvectors that are not eigenvectors
      at the primary prime (T_l is semisimple, so a bug or an unlucky
      prime);
    * `prime_disagreement`: eigenspaces of the primary prime that the
      second prime did not confirm.
    """

    systems: list[EigenSystem]
    cuspidal_dim: int
    unresolved_dim: int
    primes: list[int]
    unresolved: dict[str, int]


class ManinBasisSpace:
    """The quotient presentation of H^1(Gamma0(N); E_k) over one prime field.

    `sign` None is the whole space V; sign e in {+1, -1} gives the sign
    quotient V_e = V/(iota - e)V of the star involution
    iota (X^i Y^(k-1-i), (c:d)) = (-1)^i (X^i Y^(k-1-i), (-c:d)), which
    commutes with every T_l.  As p is odd, V_e is isomorphic to the
    e-eigenspace of iota, so the two quotients' dimensions, cuspidal
    parts and Hecke eigenvalues add up to those of V.  The presentation
    is built on first use (`__getattr__`), and Hecke matrices are cached
    per operator index.
    """

    def __init__(self, level: int, module: CoefficientModule, field: PrimeField,
                 context: FieldContext, sign: Optional[int] = None,
                 p1: Optional[ProjectiveLine] = None):
        if sign not in (None, 1, -1):
            raise ValueError("sign must be None, 1 or -1")
        self.level = level
        self.module = module
        self.field = field
        self.context = context
        self.sign = sign
        self.p1 = p1 if p1 is not None else ProjectiveLine(level)
        self._hecke_cache: dict[int, FieldMatrix] = {}
        self._partner: Optional["ManinBasisSpace"] = None
        self._quotients: dict[int, "ManinBasisSpace"] = {}

    # -- presentation ---------------------------------------------------

    _PRESENTATION = frozenset(
        {"free_columns", "_free_cols", "_rep_of", "_rep_expr", "boundary_matrix",
         "cuspidal_subspace"})

    def __getattr__(self, name: str):
        """Present the space the first time one of `_PRESENTATION` is read:
        the relation echelon, the boundary map and the cuspidal kernel,
        in one step, after which they are plain instance attributes."""
        if name not in ManinBasisSpace._PRESENTATION:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.free_columns, self._free_cols, self._rep_of, self._rep_expr = self._present()
        self.boundary_matrix = self._build_boundary()
        _, self.cuspidal_subspace = rank_and_kernel(self.boundary_matrix)
        return self.__dict__[name]

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    @property
    def cuspidal_dim(self) -> int:
        return self.cuspidal_subspace.dim

    @property
    def eisenstein_dim(self) -> int:
        return self.dim - self.cuspidal_dim

    def _present(self) -> tuple[list[int], list[int], dict[int, tuple[int, int]],
                                dict[int, dict[int, int]]]:
        """Free generators; their representative columns; (representative
        column, +-1) of every generator that survives the two-term
        relations; and the expression table: each representative column's
        reduced relation row without its pivot entry, {t: p - 1} for a
        free column t, so that every representative is minus its row read
        at the free columns.

        For odd k (all that `build_space` accepts) the two-term relations
        are x_g = (-1)^(i+1) x_(S g), S g = (k-1-i, (d:-c)) for
        g = (i, (c:d)), and on a sign quotient also x_g = e (-1)^i x_(iota g),
        iota g = (i, (-c:d)), hence x_g = -e x_(iota S g).  Each orbit
        (at most 4 generators) is written on its largest index, or killed
        when it reaches a generator with both signs.
        The triangle relations are then echelonized on the representatives,
        k rows for one point j of each sigma-orbit {j, sigma.j, sigma^2.j}
        of P^1, since the rows at the three points span the same space.
        Reduced echelon form depends only on the row space and every
        non-representative has an orbit partner of larger index, so the
        free generators are those of the full relation matrix, the greedy
        basis taken from the right, and the sign times its
        representative's expression is each generator's expression there.
        For the same reason the triangle rows may go in in any order; they
        are sorted by last column, descending, which cuts the fill-in of
        the echelon (a fifth fewer multiply-adds than in sigma-orbit
        order).
        """
        k = self.module.k
        p = self.field.p
        sign = self.sign
        p1 = self.p1
        npts = len(p1)
        monos = self.module.monomials()
        u_img = [m.subst(-1, -1, 1, 0) for m in monos]      # P(-X-Y, X)
        u2_img = [m.subst(0, 1, -1, -1) for m in monos]     # P(Y, -X-Y)

        # Two-term quotient: generator -> (representative, sign); the
        # killed generators are absent.
        s_pt = [p1.index(d, -c) for c, d in p1.points]
        i_pt = [p1.index(-c, d) for c, d in p1.points]
        rep: dict[int, tuple[int, int]] = {}
        for i in range(k):
            base, flip, c_s = i * npts, (k - 1 - i) * npts, (-1) ** (i + 1)
            for j in range(npts):
                if base + j in rep:
                    continue
                orbit = [(base + j, 1), (flip + s_pt[j], c_s)]  # (h, c): x_g = c x_h
                if sign is not None:
                    orbit += [(base + i_pt[j], -sign * c_s), (flip + i_pt[s_pt[j]], -sign)]
                coef = dict(orbit)
                if len(coef) == len(set(orbit)):  # no generator reached with both signs
                    r = max(coef)
                    for h, c in coef.items():
                        rep[h] = (r, c * coef[r])
        reps = sorted({r for r, _ in rep.values()})
        col_of = {r: t for t, r in enumerate(reps)}
        rep = {g: (col_of[r], c) for g, (r, c) in rep.items()}

        # Triangle relations on representative columns, one orbit at a time.
        rows: list[dict[int, int]] = []
        seen = [False] * npts
        for j, (c, d) in enumerate(p1.points):
            if seen[j]:
                continue
            j_u = p1.index(d - c, -c)
            j_u2 = p1.index(-d, c - d)
            seen[j] = seen[j_u] = seen[j_u2] = True
            for i in range(k):
                terms = [(i * npts + j, 1)]
                terms += [(m * npts + j_u, cm) for m, cm in enumerate(u_img[i].coeffs) if cm]
                terms += [(m * npts + j_u2, cm) for m, cm in enumerate(u2_img[i].coeffs) if cm]
                row: dict[int, int] = {}
                for g, v in terms:
                    r = rep.get(g)
                    if r is None:
                        continue
                    col, s = r
                    row[col] = (row.get(col, 0) + v * s) % p
                row = {col: v for col, v in row.items() if v}
                if row:
                    rows.append(row)
        rows.sort(key=max, reverse=True)
        pivots, reduced = echelonize(FieldMatrix(self.field, len(rows), len(reps), rows))

        # The reduced rows, without their pivot entries, are the expressions.
        table = dict(zip(pivots, reduced))
        for t, row in table.items():
            del row[t]
        free_cols = [t for t in range(len(reps)) if t not in table]
        table.update((t, {t: p - 1}) for t in free_cols)
        return [reps[t] for t in free_cols], free_cols, rep, table

    def _build_boundary(self) -> FieldMatrix:
        """Boundary of each free generator on Gamma0(N)-classes of cusps.

        For the Manin generator (X^i Y^(k-1-i), (c:d)) the boundary is
        e[g.oo] when i = k-1 minus e[g.0] when i = 0, for any lift
        g = [[a, b], [c, d]] in SL2(Z); the middle monomials evaluate to
        zero at both endpoints.  As a = d^-1 mod c and b = -c^-1 mod d,
        g.oo = a/c and g.0 = b/d have the `_cusp_key`s of (c, d) and
        (d, -c), read off the point itself.  On a sign quotient the
        class [x/y] is identified with e [-x/y] (iota negates the cusps
        of a boundary), and killed when [-x/y] = [x/y] and e = -1.
        """
        k = self.module.k
        sign = self.sign
        level = self.level
        npts = len(self.p1)
        classes: dict[tuple[int, int], Optional[tuple[int, int]]] = {}  # key -> (row, sign)
        nrows = 0
        entries = []
        for pos, col in enumerate(self.free_columns):
            i, j = divmod(col, npts)
            c, d = self.p1.points[j]
            for den, inv, v in [(c, d, 1)] * (i == k - 1) + [(d, -c, -1)] * (i == 0):
                key = _cusp_key(den, inv, level)
                if key not in classes:
                    mirror = _cusp_key(den, -inv, level)
                    if sign is not None and mirror in classes:
                        row, s = classes[mirror]
                        classes[key] = (row, s * sign)
                    else:
                        classes[key] = None if sign == -1 and mirror == key else (nrows, 1)
                        nrows += classes[key] is not None
                if classes[key] is not None:
                    entries.append((classes[key][0], pos, v * classes[key][1]))
        return FieldMatrix.from_entries(self.field, nrows, self.dim, entries)

    # -- projection to quotient coordinates ------------------------------

    def project_generator(self, gen: int) -> dict[int, int]:
        """Quotient coordinates of one Manin generator ({} if killed), as a
        new dict: minus its sign times its representative's row of the
        expression table, read at the free columns."""
        rep = self._rep_of.get(gen)
        if rep is None:
            return {}
        h, sign = rep
        row = self._rep_expr[h]
        p = self.field.p
        c = -sign % p
        return {pos: w * c % p for pos, f in enumerate(self._free_cols) if (w := row.get(f))}

    def _accumulate_manin(self, vec: dict[int, int], q1: Cusp, q2: Cusp,
                          poly: HomogeneousPoly, scale: int) -> None:
        """Add scale * (the Manin expansion of poly tensor [q1, q2]) to vec."""
        p = self.field.p
        npts = len(self.p1)
        for piece in unimodularize(ModularSymbol(q1, q2, poly)):
            x1, y1 = piece.q1.num, piece.q1.den
            x2, y2 = piece.q2.num, piece.q2.den
            det = x2 * y1 - x1 * y2
            if det == -1:
                x2, y2 = -x2, -y2
            elif det != 1:
                raise AssertionError("non-unimodular piece from unimodularize")
            transported = piece.coeff.subst(x2, x1, y2, y1)
            cls_idx = self.p1.index(y2, y1)
            for i, ci in enumerate(transported.coeffs):
                if not ci:
                    continue
                c = ci * scale % p
                if not c:
                    continue
                for pos, w in self.project_generator(i * npts + cls_idx).items():
                    vec[pos] = (vec.get(pos, 0) + c * w) % p

    def project_symbol(self, s: ModularSymbol) -> dict[int, int]:
        """Quotient coordinates of an arbitrary modular symbol.

        Rational coefficients are cleared to a common denominator first;
        the denominator must be a unit modulo the working prime.
        """
        if s.coeff.k != self.module.k:
            raise ValueError("coefficient polynomial has the wrong degree")
        ints, den = s.coeff.cleared()
        if den % self.field.p == 0:
            raise ArithmeticError("coefficient denominator vanishes in the field")
        scale = pow(den, -1, self.field.p)
        vec: dict[int, int] = {}
        self._accumulate_manin(vec, s.q1, s.q2, ints, scale)
        return {k2: v for k2, v in vec.items() if v}

    # -- Hecke action -----------------------------------------------------

    def hecke_matrix(self, n: int) -> FieldMatrix:
        """Matrix of T_n on the quotient basis, n coprime to the level.

        Merel's formula acts on Manin symbols directly, with no
        continued fractions:

            T_n (P, (c:d)) = sum over h = [[a, b], [e, f]] in X_n of
                             (P(aX + bY, eX + fY), (ca + de : cb + df)),

        where X_n = {a > b >= 0, f > e >= 0, af - be = n} (Merel,
        LNM 1585, 1994; Stein, Modular Forms, Section 8.3).  The image
        of each free generator is accumulated as integers on Manin
        generators; each distinct generator's value v, times its sign,
        then adds -v times its representative's row of the expression
        table into one list over the representative columns, and the
        column of the matrix is that list read at the free columns.
        """
        if gcd(n, self.level) != 1:
            raise BadPrime(f"T_{n} undefined: {n} shares a factor with level {self.level}")
        cached = self._hecke_cache.get(n)
        if cached is not None:
            return cached
        p = self.field.p
        half = p // 2
        p1 = self.p1
        npts = len(p1)
        heil = _heilbronn(n)
        # images[i][t]: the nonzero (m, coefficient) of X^i Y^(k-1-i) under
        # heil[t], for the monomials i of the free generators only
        monos = self.module.monomials()
        images = {
            i: [[(m, cm) for m, cm in enumerate(monos[i].subst(*h).coeffs) if cm] for h in heil]
            for i in {col // npts for col in self.free_columns}
        }
        dim = self.dim
        rep_of, rep_expr, free_cols = self._rep_of, self._rep_expr, self._free_cols
        ncols = len(rep_expr)
        targets: dict[int, list[int]] = {}
        rows: list[dict[int, int]] = [{} for _ in range(dim)]
        for pos, col in enumerate(self.free_columns):
            i, j = divmod(col, npts)
            pts = targets.get(j)
            if pts is None:
                c, d = p1.points[j]
                pts = targets[j] = [p1.index(c * a + d * e, c * b + d * f) for a, b, e, f in heil]
            acc: dict[int, int] = {}
            for img, t in zip(images[i], pts):
                for m, cm in img:
                    g = m * npts + t
                    acc[g] = acc.get(g, 0) + cm
            out = [0] * ncols
            for g, v in acc.items():
                rep = rep_of.get(g)
                if rep is None:
                    continue
                h, sign = rep
                v = -v * sign % p
                if not v:
                    continue
                if v > half:
                    v -= p  # a small signed residue keeps v * w short
                for f, w in rep_expr[h].items():
                    out[f] += v * w
            for r, f in enumerate(free_cols):
                v = out[f]
                if v:
                    v %= p
                    if v:
                        rows[r][pos] = v
        mat = FieldMatrix(self.field, dim, dim, rows)
        self._hecke_cache[n] = mat
        return mat

    # -- the partner space and the sign quotients ------------------------

    def partner(self) -> "ManinBasisSpace":
        """The same presentation, with the same sign, rebuilt modulo the
        other working prime."""
        if self._partner is None:
            other = (
                self.context.secondary
                if self.field == self.context.primary
                else self.context.primary
            )
            twin = ManinBasisSpace(self.level, self.module, other, self.context, self.sign, self.p1)
            twin._partner = self
            self._partner = twin
        return self._partner

    def sign_quotient(self, sign: int) -> "ManinBasisSpace":
        """V/(iota - sign)V over the same field, built once and sharing P^1."""
        if self.sign is not None:
            raise ValueError("a sign quotient has no further sign quotient")
        if sign not in self._quotients:
            self._quotients[sign] = ManinBasisSpace(self.level, self.module, self.field,
                                                    self.context, sign, self.p1)
        return self._quotients[sign]


def build_space(level: int, k: int, *,
                context: Optional[FieldContext] = None) -> ManinBasisSpace:
    """Presentation of H^1(Gamma0(level); E_k) over the working prime field.

    k is the dimension of the coefficient module (weight k+1 forms);
    only odd k is implemented, so weights 2 and 4 are k = 1 and k = 3.
    """
    if level < 1:
        raise ValueError("level must be positive")
    if k % 2 == 0:
        raise UnsupportedWeight(
            f"k = {k} (weight {k + 1}) not supported: only odd k is implemented"
        )
    ctx = context if context is not None else _default_context()
    return ManinBasisSpace(level, CoefficientModule(k), ctx.primary, ctx)


def _check_hecke_primes(level: int, primes: Iterable[int]) -> None:
    """BadPrime unless every l in primes is a prime not dividing level."""
    for l in primes:
        if not _is_prime(l):
            raise BadPrime(f"{l} is not prime")
        if level % l == 0:
            raise BadPrime(f"{l} divides the level {level}")


def hecke_operator(space: ManinBasisSpace, l: int) -> FieldMatrix:
    """T_l for a prime l not dividing the level."""
    _check_hecke_primes(space.level, [l])
    return space.hecke_matrix(l)


# ---------------------------------------------------------------------------
# Eigensystems, two-prime confirmation, winding pairing


def _checked_sign_quotients(space: ManinBasisSpace) -> list[ManinBasisSpace]:
    """The sign quotients [V+, V-] of the whole space, checked against
    the classical dimensions of S_w(Gamma0(N)) and its cusps.

    Each quotient's cuspidal part is one copy of S_w, and V+ + V- has
    V's dimension, 2 dim S_w plus that of the Eisenstein part (one per
    cusp, less one at w = 2).  HalvesMismatch unless both hold: the
    formula shares no code with the presentations it checks.
    """
    quotients = [space.sign_quotient(sign) for sign in (1, -1)]
    w = space.module.weight
    cusp = dim_cusp_forms(space.level, w)
    total = 2 * cusp + num_cusps(space.level) - (w == 2)
    dims = [q.dim for q in quotients]
    cusp_dims = [q.cuspidal_dim for q in quotients]
    if cusp_dims != [cusp, cusp] or sum(dims) != total:
        raise HalvesMismatch(
            f"sign quotients of dims {dims} and cuspidal dims {cusp_dims} are not halves "
            f"of dim {total} with dim S_{w}(Gamma0({space.level})) = {cusp} in each"
        )
    return quotients


def cuspidal_coverage(space: ManinBasisSpace, primes: Sequence[int]) -> CuspidalSplit:
    """Two-prime-confirmed eigensystems plus the dimension left unresolved.

    Both primes run the same first step on the sign quotients V+ and V-
    (see `ManinBasisSpace`), each about half the size of the whole
    space: every T_l restricted to each one's own cuspidal subspace
    (NotInvariant unless stable).  Their cuspidal parts are isomorphic
    Hecke modules (Eichler-Shimura) with V's as direct sum, so each must
    have the dimension of S_w(Gamma0(N)) (else HalvesMismatch); the
    whole space is never presented.

    At the primary prime the restricted T_l are split at the integers
    within Deligne's bound |a_l| <= 2 l^((w-1)/2), and each eigenspace's
    values are lifted to signed integers: the candidates.
    `split_eigenspaces` refines both quotients in lockstep: one
    charpoly per quotient and node, which must agree (else
    FamilyMismatch), one root finding, and each bounded root's kernel
    in both.  Dimensions and causes are summed over the quotients, so
    every count is that of splitting the whole cuspidal space.

    At the partner prime each candidate's values are followed down by
    `eigen_step` in each quotient's partner: the kernel of the first
    restricted T_l - a_l, the other T_l restricted to it (NotInvariant
    unless stable), and so on, in each node's own coordinates.  Only the
    two final dimensions are kept, and summed.  An integer tuple has one
    residue tuple there, so comparing that sum with the candidate's
    dimension is the same test as splitting there and intersecting the
    two census lists; a wrong signed lift (possible only when twice the
    bound reaches p) fails it.  The unresolved dimension is broken down
    by cause in `CuspidalSplit.unresolved`.
    """
    primes = sorted(set(primes))
    _check_hecke_primes(space.level, primes)
    quotients = _checked_sign_quotients(space)
    cuspidal_dim = sum(q.cuspidal_dim for q in quotients)

    def cuspidal_ops(q: ManinBasisSpace) -> list[FieldMatrix]:
        return restrict_operator([q.hecke_matrix(l) for l in primes], q.cuspidal_subspace)

    def eigenspace_dim(ops: list[FieldMatrix], values: Iterable[int]) -> int:
        for lam in values:
            kernel, ops = eigen_step(ops, lam)
        return kernel.dim

    plus, minus = (cuspidal_ops(q) for q in quotients)
    w = space.module.weight
    split = split_eigenspaces(plus, [isqrt(4 * l ** (w - 1)) for l in primes], [minus])
    p = space.field.p
    candidates = [
        (tuple(Fraction(signed_lift(v, p)) for v in eig.values), eig.dim)
        for eig in split.eigenspaces
    ]
    confirmed = []
    if candidates:  # the partners are built only when there is something to confirm
        twins = [q.partner() for q in quotients]
        twin_ops = [cuspidal_ops(t) for t in twins]
        confirmed = sorted(
            (fracs, dim) for fracs, dim in candidates
            if dim == sum(eigenspace_dim(ops, [t.field.elem(f) for f in fracs])
                          for t, ops in zip(twins, twin_ops))
        )
    covered = sum(dim for _, dim in confirmed)
    return CuspidalSplit(
        systems=[EigenSystem(space.level, w, dict(zip(primes, fracs)), cuspidal=True, dim=dim)
                 for fracs, dim in confirmed],
        cuspidal_dim=cuspidal_dim,
        unresolved_dim=cuspidal_dim - covered,
        primes=list(primes),
        unresolved={
            "no_bounded_integer_root": split.unsplit_dim,
            "defective": sum(dim for _, dim in split.defective),
            "prime_disagreement": sum(dim for _, dim in candidates) - covered,
        },
    )


def eigensystems(space: ManinBasisSpace, primes: Sequence[int]) -> list[EigenSystem]:
    """One EigenSystem per simultaneous eigenspace of the T_l on the
    cuspidal subspace with integer eigenvalues within Deligne's bound,
    confirmed at the second prime."""
    return cuspidal_coverage(space, primes).systems


def _winding_pairings(space: ManinBasisSpace, system: EigenSystem,
                      primes: Sequence[int]) -> list[list[int]]:
    """Pairings of the winding symbol with the canonical left eigenbasis
    of `system` on space and on its partner; MultiPrimeMismatch unless
    both primes find the eigenspace and agree on its dimension and on
    vanishing.

    The left eigenspace is followed down by `eigen_step` on the
    transposed T_l (NotInvariant unless each kernel is stable), and the
    winding vector w is carried down as its pairings with each node's
    basis: B_1 w, then C_2 (B_1 w), and so on.  C_t ... C_2 B_1 is the
    reduced echelon basis of the left eigenspace, so the last list holds
    w's pairings with that basis.
    """
    m = (space.module.k - 1) // 2
    values: list[list[int]] = []
    for sp in (space, space.partner()):
        p = sp.field.p
        target = tuple(sp.field.elem(system.eigenvalues[l]) for l in primes)
        # The winding symbol is the Manin generator (X^m Y^m, (0:1)).
        winding = sp.project_generator(m * len(sp.p1) + sp.p1.index(0, 1))
        pairings = [winding.get(i, 0) for i in range(sp.dim)]
        ops = [sp.hecke_matrix(l).transpose() for l in primes]
        for lam in target:
            kernel, ops = eigen_step(ops, lam)
            pairings = [sum(v * pairings[j] for j, v in u.items()) % p for u in kernel.basis]
        if not pairings:
            raise MultiPrimeMismatch(f"no left eigenspace with eigenvalues {target} mod {p}")
        values.append(pairings)
    if len(values[0]) != len(values[1]):
        raise MultiPrimeMismatch("left eigenspace dimensions differ between primes")
    if any(values[0]) != any(values[1]):
        raise MultiPrimeMismatch("winding pairing vanishes at one prime only")
    return values


def winding_pairing(space: ManinBasisSpace, system: EigenSystem) -> Fraction:
    """Pairing of the eigensystem against the winding symbol [0, oo] X^m Y^m.

    Returns an exact rational that vanishes if and only if the
    component of the winding symbol in the eigenspace vanishes, the
    exact surrogate for central L-value vanishing.  The value is the
    sum of squares of the pairings against the canonical (reduced
    echelon) left eigenbasis, carried down the `eigen_step`s of the
    transposed T_l (see `_winding_pairings`); it is well defined only up
    to a fixed positive rational per system, which does not affect the
    vanishing test.  Zero is declared only when the pairing is zero at
    both working primes.

    Vanishing is decided on the sign quotient V_e, e = (-1)^m, as
    w = (X^m Y^m, (0:1)) has iota w = e w: w pairs to zero with the left
    eigenspace iff w lies in sum_l im(T_l - a_l), which holds on V iff on
    V_e, since V = V+ + V- with T_l-stable summands.  Only a nonzero
    value, which depends on V's canonical left eigenbasis, is computed
    on the whole space and its partner; HalvesMismatch if it vanishes
    there.  Each pairing is lifted to Q at height RECONSTRUCT_BOUND at
    each prime, and the two lifts must agree (MultiPrimeMismatch); a
    pairing that fails to lift at either prime raises NoReconstruction.
    """
    if space.module.k % 2 == 0:
        raise NoCentralMonomial("even k has no central monomial X^m Y^m")
    if not system.cuspidal:
        raise ValueError("winding pairing is defined for cuspidal systems")
    primes = sorted(system.eigenvalues)
    _check_hecke_primes(space.level, primes)
    m = (space.module.k - 1) // 2
    if not any(_winding_pairings(space.sign_quotient((-1) ** m), system, primes)[0]):
        return Fraction(0)
    values = _winding_pairings(space, system, primes)
    if not any(values[0]):
        raise HalvesMismatch("the winding pairing vanishes on the whole space "
                             "but not on its sign quotient")
    total = Fraction(0)
    p1, p2 = space.field.p, space.partner().field.p
    for va, vb in zip(values[0], values[1]):
        ra = rational_reconstruct(va, RECONSTRUCT_BOUND, p1)
        rb = rational_reconstruct(vb, RECONSTRUCT_BOUND, p2)
        if ra != rb:
            raise MultiPrimeMismatch(f"winding pairing reconstructs to {ra} and {rb}")
        total += ra * ra
    return total


# ---------------------------------------------------------------------------
# Exports


def space_summary(space: ManinBasisSpace) -> dict:
    """The whole space's dimensions, read off its checked sign quotients."""
    quotients = _checked_sign_quotients(space)
    dim = sum(q.dim for q in quotients)
    cuspidal_dim = sum(q.cuspidal_dim for q in quotients)
    return {
        "level": space.level,
        "k": space.module.k,
        "quotient_dim": dim,
        "cuspidal_dim": cuspidal_dim,
        "eisenstein_dim": dim - cuspidal_dim,
    }


def eigensystems_csv(systems: Iterable[EigenSystem]) -> str:
    """CSV export, one row per (system, prime)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "weight", "dim", "prime", "eigenvalue"])
    for sys_ in systems:
        for l in sorted(sys_.eigenvalues):
            writer.writerow([sys_.level, sys_.weight, sys_.dim, l, frac_str(sys_.eigenvalues[l])])
    return buf.getvalue()
