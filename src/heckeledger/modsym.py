"""Modular symbols for Gamma0(N) with polynomial coefficients.

The cohomology H^1(Gamma0(N); E_k) is presented on Manin generators
indexed by P^1(Z/N) x {monomials X^i Y^(k-1-i)}, modulo the orientation
relation (from the order-4 element S) and the triangle relation (from
the order-3 element sigma).  The presentation is the two-term quotient
first (each S pair of generators collapses to one representative, or
to zero) followed by one set of three-term relations per sigma-orbit
of P^1(Z/N), brought to row echelon form over Z on the representatives
(`echelonize`: fraction-free, each row divided by its content, the
forward phase only, no back-substitution); its free generators are
those of the full relation matrix, and each pivot's row, negated, is a
list of integer pushes to free columns and to later pivots, which,
scaled by the inverse of the pivot's lead mod p and followed in
ascending pivot order, give the expressions of the full relation
matrix.  The two-term quotient, the echelon and the Heilbronn images of
the free generators are integers that do not depend on the prime (the
prime-free quotient): a space and its partner at the other working
prime share them, and each prime only checks that it divides none of
the echelon's leads (`UnluckyPrime`).
Every projection onto the quotient basis is one call of
`ManinBasisSpace._project`, which pushes integer combinations of Manin
generators, one per column, through the pushes together: one transposed
triangular solve.  Hecke operators T_l at primes l act on Manin symbols
directly through Cremona's Heilbronn matrices, and the images of all
free generators are its columns; continued fractions are used only to
write an arbitrary symbol on the Manin generators (`project_symbol`).
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
`eichler_selberg` checks.  `build_space` returns the whole space, whose
`presentation` is built only when something reads it: its dimensions,
its Hecke matrices or the value of a nonzero winding pairing; its
`cuspidal_subspace`, the boundary map's kernel, only when that is read.

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
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional, Sequence

from .eichler_selberg import dim_cusp_forms, num_cusps
from .exactlin import (
    ComputationError,
    FieldContext,
    FieldMatrix,
    InputError,
    NoReconstruction,
    PrimeField,
    Record,
    Subspace,
    _is_prime,
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
    "BadLevel",
    "BadPrime",
    "MultiPrimeMismatch",
    "HalvesMismatch",
    "UnluckyPrime",
    "determinant",
    "unimodularize",
    "build_space",
    "hecke_operator",
    "eigensystems",
    "cuspidal_coverage",
    "winding_pairing",
    "space_summary",
    "eigensystems_csv",
]


class UnsupportedWeight(InputError):
    """Raised for coefficient modules this implementation does not cover."""


class BadLevel(InputError):
    """A level that is not positive, or, for the ledger, not prime."""


class BadPrime(InputError):
    """Hecke operator requested at a prime dividing the level, or not
    prime, or a ledger asked for with no Hecke prime."""


class MultiPrimeMismatch(ComputationError):
    """The two working primes disagree; the result cannot be certified."""


class HalvesMismatch(ComputationError):
    """The sign quotients are not halves of the dimensions that the
    classical formula gives the whole space, or the whole space pairs
    the winding symbol to zero where its sign quotient does not."""


class UnluckyPrime(ComputationError):
    """The working prime divides a lead of the integer relation echelon,
    so the echelon's row operations are not invertible modulo it."""


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


class CoefficientModule(Record):
    """The k-dimensional module of degree k-1 polynomials (weight k+1 forms)."""

    __slots__ = ("k",)
    k: int

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        object.__setattr__(self, "k", k)

    @property
    def weight(self) -> int:
        return self.k + 1

    def monomials(self) -> list[HomogeneousPoly]:
        return [HomogeneousPoly.monomial(self.k, i) for i in range(self.k)]


class ModularSymbol(NamedTuple):
    """The geometric generator [q1, q2] tensor a coefficient polynomial."""

    q1: Cusp
    q2: Cusp
    coeff: HomogeneousPoly


def determinant(s: ModularSymbol) -> int:
    """n(xi) = |a1 b2 - a2 b1| on reduced endpoint fractions; 1 iff unimodular."""
    return abs(s.q1.num * s.q2.den - s.q2.num * s.q1.den)


# ---------------------------------------------------------------------------
# Manin's continued-fraction reduction


def _nearest_quotient(a: int, b: int) -> int:
    # round(a/b) with ties toward -inf; b > 0
    return -((b - 2 * a) // (2 * b))


def _nearest_even(a: int, b: int) -> int:
    # round(a/b) with ties to even; b != 0
    if b < 0:
        a, b = -a, -b
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q % 2 else q


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


def _heilbronn(l: int) -> list[tuple[int, int, int, int]]:
    """Cremona's Heilbronn matrices (a, b, e, f), af - be = l, for T_l at a
    prime l (Algorithms for Modular Elliptic Curves, 2.4): Merel's X_2 at
    2; at odd l, [[1, 0], [0, l]] and, for each |r| <= (l-1)/2, every
    step of the nearest-integer continued fraction of -l/r."""
    if l == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    out = [(1, 0, 0, l)]
    for r in range(-(l // 2), l // 2 + 1):
        x1, x2, y1, y2, a, b = l, -r, 0, 1, -l, r
        out.append((x1, x2, y1, y2))
        while b:
            q = _nearest_even(a, b)
            a, b, x1, x2, y1, y2 = -b, a - q * b, x2, q * x2 - x1, y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


# ---------------------------------------------------------------------------
# The Manin basis space


class EigenSystem(NamedTuple):
    """A two-prime-confirmed rational Hecke eigensystem."""

    level: int
    weight: int
    eigenvalues: dict[int, Fraction]
    cuspidal: bool
    dim: int


class CuspidalSplit(NamedTuple):
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


def echelonize(rows: Sequence[dict[int, int]]) -> tuple[list[int], list[dict[int, int]],
                                                      list[int]]:
    """(pivots, echelon, leads): a row echelon form over Z of the integer
    rows, which are left unmodified, by fraction-free elimination with
    each row's content removed (integer-preserving elimination: Bareiss,
    Math. Comp. 22, 1968).

    Rows go in one at a time.  Pivot columns are cleared smallest first,
    as in `exactlin.echelonize`: at pivot column c, whose row has lead u,
    a working row with entry v there becomes (u/g) row - (v/g) (pivot
    row), g = gcd(u, v).  A row that survives is divided by the gcd of
    its entries, signed so that its lead is positive, and its leftmost
    column becomes a new pivot; the lead stays as it is.  Nothing is
    reduced modulo a prime and no inverse is taken.  `pivots` ascend,
    `echelon[i]` is the primitive row of pivots[i], a new dict, and
    `leads[i]` is its lead before the content was removed.

    Every scale factor u/g and every content divides some such lead, so
    modulo a prime p that divides none of `leads` every step is an
    invertible row operation: the pivots are those at p, and each row,
    divided by its lead mod p, is the row `exactlin.echelonize` gives at
    p for the same rows in the same order.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    raw_leads: dict[int, int] = {}
    for src in rows:
        acc = dict(src)
        heap = [j for j in acc if j in pivot_rows]
        heapify(heap)
        while heap:
            col = heappop(heap)
            v = acc[col]
            if not v:
                continue
            row = pivot_rows[col]
            u = row[col]
            g = gcd(u, v)
            if g != u:
                scale = u // g
                acc = {j: scale * x for j, x in acc.items()}
            m = v // g
            for j, w in row.items():
                x = acc.get(j)
                if x is None:
                    acc[j] = -m * w
                    if j in pivot_rows:
                        heappush(heap, j)
                else:
                    acc[j] = x - m * w
        acc = {j: x for j, x in acc.items() if x}
        if acc:
            lead = min(acc)
            g = gcd(*acc.values())
            if acc[lead] < 0:
                g = -g
            raw_leads[lead] = acc[lead]
            pivot_rows[lead] = acc if g == 1 else {j: x // g for j, x in acc.items()}
    pivots = sorted(pivot_rows)
    return pivots, [pivot_rows[c] for c in pivots], [raw_leads[c] for c in pivots]


class Presentation(NamedTuple):
    """A space's presentation at its prime (`ManinBasisSpace._present`).

    The first five fields are the prime-free quotient
    (`ManinBasisSpace._quotient`), the same objects at both primes, valid
    at every working prime that divides none of `guard_leads`: the free
    generators, in the order of the quotient basis; the position of each
    free representative column among them; (representative column, +-1)
    of every generator that survives the two-term relations; for each
    pivot column, ascending, its primitive echelon row's lead u > 0 and
    its integer pushes to free positions and to later pivots,
    x_c = (1/u) (sum of the pushes' m x_j); and the distinct leads other
    than 1 that the echelon's rows had before their content was removed.
    Last comes the inverse mod p of each pivot lead other than 1.  The
    boundary map and its kernel are not part of it: they are
    `ManinBasisSpace.cuspidal_subspace`, built when first read.
    """

    free_columns: list[int]
    free_pos: dict[int, int]
    rep_of: dict[int, tuple[int, int]]
    pushes: dict[int, tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]
    guard_leads: tuple[int, ...]
    inverse: dict[int, int]


class PrimeFreeCache:
    """The prime-free half of the presentations of a space and its partner,
    one object both hold: the prime-free quotient (key "quotient") and
    the image columns of T_l (key (l, free columns)).  The first space to
    need an entry builds it and, while `keep` holds (on a sign quotient, whose
    partner the census may build, or once a partner exists), keeps it for
    the other, which takes it out; `release` keeps nothing more."""

    def __init__(self, keep: bool):
        self.keep = keep
        self.entries: dict = {}

    def take(self, key, build):
        value = self.entries.pop(key, None)
        if value is None:
            value = build()
            if self.keep:
                self.entries[key] = value
        return value

    def release(self) -> None:
        self.keep = False
        self.entries.clear()


class ManinBasisSpace:
    """The quotient presentation of H^1(Gamma0(N); E_k) over one prime field.

    `sign` None is the whole space V; sign e in {+1, -1} gives the sign
    quotient V_e = V/(iota - e)V of the star involution
    iota (X^i Y^(k-1-i), (c:d)) = (-1)^i (X^i Y^(k-1-i), (-c:d)), which
    commutes with every T_l.  As p is odd, V_e is isomorphic to the
    e-eigenspace of iota, so the two quotients' dimensions, cuspidal
    parts and Hecke eigenvalues add up to those of V.  `presentation` and
    `cuspidal_subspace` (the boundary map's kernel, which no Hecke matrix
    needs) are each built the first time they are read, and Hecke
    matrices are cached per operator index.  The space and its partner
    share P^1 and one `PrimeFreeCache` (`prime_free`) for the prime-free
    quotient, relation echelon included, and the Hecke image columns;
    the lead inverses, the boundary, the cuspidal kernel and every
    projection are taken at each space's own prime.
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
        self.prime_free = PrimeFreeCache(keep=sign is not None)
        self._hecke_cache: dict[int, FieldMatrix] = {}
        self._partner: Optional["ManinBasisSpace"] = None
        self._quotients: dict[int, "ManinBasisSpace"] = {}

    # -- presentation ---------------------------------------------------

    @cached_property
    def presentation(self) -> Presentation:
        return self._present()

    @property
    def dim(self) -> int:
        return len(self.presentation.free_columns)

    @cached_property
    def cuspidal_subspace(self) -> Subspace:
        """The kernel of the boundary map (`_build_boundary`) on the
        quotient basis."""
        return rank_and_kernel(self._build_boundary())[1]

    @property
    def cuspidal_dim(self) -> int:
        return self.cuspidal_subspace.dim

    def _integer_relations(self) -> tuple[dict[int, tuple[int, int]], list[int],
                                          list[dict[int, int]]]:
        """The prime-free half of the presentation, as small integers:
        (representative column, +-1) of every generator that survives the
        two-term relations, the representative generator of each column,
        and the triangle rows on representative columns, in echelon order.

        For odd k (all that `build_space` accepts) the two-term relations
        are x_g = (-1)^(i+1) x_(S g), S g = (k-1-i, (d:-c)) for
        g = (i, (c:d)), and on a sign quotient also x_g = e (-1)^i x_(iota g),
        iota g = (i, (-c:d)), hence x_g = -e x_(iota S g).  Each orbit
        (at most 4 generators) is written on its largest index, or killed
        when it reaches a generator with both signs, that is when a
        generator fixed by S, iota or iota S has the coefficient -1 there.
        Going up the generators, each one that is the largest of its orbit
        and not killed is the next representative column, and its orbit is
        written on it.
        The triangle relations follow, k rows for one point j of each
        sigma-orbit {j, sigma.j, sigma^2.j} of P^1, since the rows at the
        three points span the same space: x_(i, j) plus the images of
        X^i Y^(k-1-i) under sigma and sigma^2 at their points, each
        monomial's images tabulated once as (m #P^1, coefficient) terms.
        The leads of any echelon form are those of the reduced form, which
        depends only on the row space, and every non-representative has an
        orbit partner of larger index, so the free generators are those of
        the full relation matrix, the greedy basis taken from the right.
        Leads and expressions depend only on the row space, so the
        triangle rows may go in in any order; they go shortest first, then
        by last column and first column, both descending (a Markowitz-style
        order: the sparsest rows become pivot rows first), which costs
        fewer multiply-adds, in the echelon and in the pushes, than sorting
        by last column alone.
        """
        k = self.module.k
        sign = self.sign
        p1 = self.p1
        npts = len(p1)
        index = p1.index
        s_pt = [index(d, -c) for c, d in p1.points]
        s_gen = [(k - 1 - i) * npts + t for i in range(k) for t in s_pt]
        if sign is not None:
            i_pt = [index(-c, d) for c, d in p1.points]
            i_gen = [i * npts + t for i in range(k) for t in i_pt]

        # Two-term quotient: generator -> (representative column, sign); the
        # killed generators are absent.
        rep: dict[int, tuple[int, int]] = {}
        reps: list[int] = []
        for g, h in enumerate(s_gen):
            c_s = 1 if g // npts % 2 else -1  # x_g = c_s x_h
            if sign is None:
                if h > g or (h == g and c_s < 0):
                    continue
                rep[h] = (len(reps), c_s)
            else:
                h_i, h_is = i_gen[g], i_gen[h]
                if (h > g or h_i > g or h_is > g or (h == g and c_s < 0)
                        or (h_i == g and sign == c_s) or (h_is == g and sign > 0)):
                    continue
                t = len(reps)
                rep[h_is] = (t, -sign)
                rep[h_i] = (t, -sign * c_s)
                rep[h] = (t, c_s)
            rep[g] = (len(reps), 1)
            reps.append(g)

        # Triangle relations on representative columns, one orbit at a time:
        # terms[i] holds the (m #P^1, coefficient) terms of X^i Y^(k-1-i) at
        # j, sigma.j and sigma^2.j.
        terms = [([(i * npts, 1)],
                  [(m * npts, cm) for m, cm in enumerate(mono.subst(-1, -1, 1, 0).coeffs) if cm],
                  [(m * npts, cm) for m, cm in enumerate(mono.subst(0, 1, -1, -1).coeffs) if cm])
                 for i, mono in enumerate(self.module.monomials())]  # P(-X-Y, X), P(Y, -X-Y)
        get = rep.get
        rows: list[dict[int, int]] = []
        seen = bytearray(npts)
        for j, (c, d) in enumerate(p1.points):
            if seen[j]:
                continue
            pts = (j, index(d - c, -c), index(-d, c - d))
            for t in pts:
                seen[t] = 1
            for orbit_terms in terms:
                row: dict[int, int] = {}
                cancelled = False
                for t, ts in zip(pts, orbit_terms):
                    for off, v in ts:
                        r = get(off + t)
                        if r is not None:
                            col, s = r
                            x = row.get(col)
                            if x is None:
                                row[col] = v * s
                            else:
                                row[col] = x = x + v * s
                                cancelled = cancelled or not x
                if cancelled:
                    row = {col: v for col, v in row.items() if v}
                if row:
                    rows.append(row)
        rows.sort(key=lambda r: (len(r), -max(r), -min(r)))
        return rep, reps, rows

    def _quotient(self) -> tuple:
        """The prime-free quotient, the first five fields of `Presentation`:
        the integer relations and their echelon over Z (`echelonize`).
        Pivot c's primitive row, u > 0 at c and u_j at columns j > c,
        gives the pushes (free position, -u_j) and (later pivot column,
        -u_j), so u x_c = sum of -u_j x_j, and following them in
        ascending pivot order ends on the free columns.
        """
        rep, reps, rows = self._integer_relations()
        pivots, echelon, leads = echelonize(rows)
        del rows  # freed before the pushes are built, for peak memory
        pivot_set = set(pivots)
        free_cols = [t for t in range(len(reps)) if t not in pivot_set]
        free_pos = {t: pos for pos, t in enumerate(free_cols)}
        pushes = {}
        for c, row in zip(pivots, echelon):
            to_free, to_pivots = [], []
            for j, u in row.items():
                if j != c:
                    pos = free_pos.get(j)
                    if pos is None:
                        to_pivots.append((j, -u))
                    else:
                        to_free.append((pos, -u))
            pushes[c] = (row[c], to_free, to_pivots)
        guard_leads = tuple(sorted({abs(u) for u in leads} - {1}))
        return [reps[t] for t in free_cols], free_pos, rep, pushes, guard_leads

    def _present(self) -> Presentation:
        """The presentation at this space's prime: the prime-free quotient
        from `prime_free`, which a partner may have built, then the
        inverses of its pivot leads.  UnluckyPrime if the prime divides
        one of the echelon's leads, where its integer row operations are
        not invertible.
        """
        quotient = self.prime_free.take("quotient", self._quotient)
        _, _, _, pushes, guard_leads = quotient
        p = self.field.p
        for u in guard_leads:
            if u % p == 0:
                raise UnluckyPrime(
                    f"the field prime {p} divides the relation echelon lead {u} at level "
                    f"{self.level}, weight {self.module.weight}")
        inverse = {u: pow(u, -1, p) for u in {u for u, _, _ in pushes.values()} - {1}}
        return Presentation(*quotient, inverse)

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
        free_columns = self.presentation.free_columns
        classes: dict[tuple[int, int], Optional[tuple[int, int]]] = {}  # key -> (row, sign)
        nrows = 0
        entries = []
        for pos, col in enumerate(free_columns):
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
        return FieldMatrix.from_entries(self.field, nrows, len(free_columns), entries)

    # -- projection to quotient coordinates ------------------------------

    def _project(self, columns: Sequence[dict[int, int]]) -> FieldMatrix:
        """Quotient coordinates of integer combinations of Manin
        generators, one {generator: integer} dict per column, as the
        columns of a dim x len(columns) matrix over the field.

        Each generator's value, times its sign, goes to its representative,
        for all columns at once: a free representative's straight into the
        matrix, kept as dense columns, a pivot's into a sparse
        {column: value} accumulator (killed generators drop out).  The
        pivots are then visited in ascending order, and each accumulator
        is pushed along its row of the expression table, after it is
        scaled by u^-1 mod p to signed residues, u the pivot's lead, or,
        when u = 1, reduced to signed residues if an earlier pivot pushed
        into it; each of its columns takes the whole row's pushes to free
        positions in one dense column.  That is
        M = A_F - U_PF^T (U_PP^-T A_P) for the echelon rows U and the
        coefficients A on the free (F) and pivot (P) columns: one
        transposed triangular solve (Stein, Modular Forms, 8.3), each
        echelon entry read once.
        """
        p = self.field.p
        half = p // 2
        pres = self.presentation
        rep_of, free_pos, inverse = pres.rep_of, pres.free_pos, pres.inverse
        dim = len(pres.free_columns)
        dense = [[0] * dim for _ in columns]  # dense[pos][r]: column pos, row r
        pending: dict[int, dict[int, int]] = {}  # pivot column -> {column: value}
        for pos, (column, acc) in enumerate(zip(dense, columns)):
            for g, v in acc.items():
                rep = rep_of.get(g)
                if rep is None or not v:
                    continue
                h, sign = rep
                r = free_pos.get(h)
                if r is not None:
                    column[r] += v * sign
                elif h in pending:
                    a = pending[h]
                    x = a.get(pos, 0) + v * sign
                    if x:
                        a[pos] = x
                    else:
                        del a[pos]
                else:
                    pending[h] = {pos: v * sign}
        pushed = set()
        for c, (u, to_free, to_pivots) in pres.pushes.items():
            a = pending.pop(c, None)
            if a is None:
                continue
            if u != 1:
                w = inverse[u]
                a = {pos: v - p if v > half else v for pos, x in a.items() if (v := x * w % p)}
            elif c in pushed:
                a = {pos: v - p if v > half else v for pos, x in a.items() if (v := x % p)}
            for pos, v in a.items():
                column = dense[pos]
                for r, m in to_free:
                    column[r] += m * v
            for j, m in to_pivots:
                t = pending.get(j)
                if t is None:
                    pending[j] = {pos: m * v for pos, v in a.items()}
                else:
                    for pos, v in a.items():
                        t[pos] = t.get(pos, 0) + m * v
                pushed.add(j)
        rows = [{pos: x for pos, v in enumerate(row) if v and (x := v % p)} for row in zip(*dense)]
        return FieldMatrix(self.field, dim, len(columns), rows)

    def project_symbol(self, s: ModularSymbol) -> dict[int, int]:
        """Quotient coordinates of an arbitrary modular symbol.

        Rational coefficients are cleared to a common denominator first;
        the denominator must be a unit modulo the working prime.  Each
        unimodular piece of the symbol is one Manin generator per monomial
        of its transported coefficient; their integer coefficients are
        gathered into one column, projected once by `_project`, and
        divided by the denominator.
        """
        if s.coeff.k != self.module.k:
            raise ValueError("coefficient polynomial has the wrong degree")
        ints, den = s.coeff.cleared()
        p = self.field.p
        if den % p == 0:
            raise ArithmeticError("coefficient denominator vanishes in the field")
        scale = pow(den, -1, p)
        npts = len(self.p1)
        column: dict[int, int] = {}
        for piece in unimodularize(ModularSymbol(s.q1, s.q2, ints)):
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
                g = i * npts + cls_idx
                column[g] = column.get(g, 0) + ci
        return {r: row[0] * scale % p for r, row in enumerate(self._project([column]).rows) if row}

    # -- Hecke action -----------------------------------------------------

    def hecke_matrix(self, l: int) -> FieldMatrix:
        """Matrix of T_l on the quotient basis; BadPrime unless l is a
        prime not dividing the level.  The integer image columns
        (`_hecke_images`) come from `prime_free` under (l, free columns),
        so the partner's are read only when its free generators are the
        same, and are projected together by `_project`.
        """
        cached = self._hecke_cache.get(l)
        if cached is not None:
            return cached
        _check_hecke_primes(self.level, [l])
        key = (l, tuple(self.presentation.free_columns))
        mat = self._project(self.prime_free.take(key, lambda: self._hecke_images(l)))
        self._hecke_cache[l] = mat
        return mat

    def _hecke_images(self, l: int) -> list[dict[int, int]]:
        """The image of each free generator under T_l, as a {Manin
        generator: integer} dict.  Cremona's Heilbronn matrices H_l =
        `_heilbronn(l)` act on Manin symbols directly, with no continued
        fractions (Merel, LNM 1585, 1994; Stein, Modular Forms, 8.3):

            T_l (P, (c:d)) = sum over h = [[a, b], [e, f]] in H_l of
                             (P(aX + bY, eX + fY), (ca + de : cb + df)).
        """
        p1 = self.p1
        npts = len(p1)
        free_columns = self.presentation.free_columns
        heil = _heilbronn(l)
        # images[i][t]: the nonzero (m, coefficient) of X^i Y^(k-1-i) under
        # heil[t], for the monomials i of the free generators only
        monos = self.module.monomials()
        images = {
            i: [[(m, cm) for m, cm in enumerate(monos[i].subst(*h).coeffs) if cm] for h in heil]
            for i in {col // npts for col in free_columns}
        }
        targets: dict[int, list[int]] = {}
        columns = []
        for col in free_columns:
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
            columns.append(acc)
        return columns

    # -- the partner space and the sign quotients ------------------------

    def partner(self) -> "ManinBasisSpace":
        """The same space, with the same sign, over the other working
        prime, built once: it holds this space's P^1 and its `prime_free`
        cache, which keeps from then on what one of the two builds for the
        other, and presents itself at its own prime."""
        if self._partner is None:
            other = (
                self.context.secondary
                if self.field == self.context.primary
                else self.context.primary
            )
            twin = ManinBasisSpace(self.level, self.module, other, self.context, self.sign, self.p1)
            self.prime_free.keep = True
            twin.prime_free = self.prime_free
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
    _check_space(level, k)
    ctx = context if context is not None else _default_context()
    return ManinBasisSpace(level, CoefficientModule(k), ctx.primary, ctx)


def _check_space(level: int, k: int) -> None:
    """BadLevel unless level is positive, then UnsupportedWeight unless
    k is odd and positive (an even weight k + 1)."""
    if level < 1:
        raise BadLevel("level must be positive")
    if k < 1 or k % 2 == 0:
        raise UnsupportedWeight(
            f"weight {k + 1} means k = {k}, which is not supported (even weights only)"
        )


def _check_hecke_primes(level: int, primes: Iterable[int]) -> None:
    """BadPrime unless every l in primes is a prime not dividing level."""
    for l in primes:
        if not _is_prime(l):
            raise BadPrime(f"{l} is not prime")
        if level % l == 0:
            raise BadPrime(f"{l} divides the level {level}")


def hecke_operator(space: ManinBasisSpace, l: int) -> FieldMatrix:
    """T_l for a prime l not dividing the level (BadPrime otherwise)."""
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
    for q in quotients:  # both primes are done, or no partner was built
        q.prime_free.release()
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
        winding = sp._project([{m * len(sp.p1) + sp.p1.index(0, 1): 1}])
        pairings = [row.get(0, 0) for row in winding.rows]
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
    pairing that fails to lift at either prime raises NoReconstruction,
    naming the level, the weight, the eigenvalues and that prime.
    """
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

    def lift(v: int, p: int) -> Fraction:
        try:
            return rational_reconstruct(v, RECONSTRUCT_BOUND, p)
        except NoReconstruction as exc:
            eigen = ", ".join(f"a_{l} = {frac_str(a)}" for l, a in sorted(system.eigenvalues.items()))
            raise NoReconstruction(f"winding pairing at level {system.level}, weight "
                                   f"{system.weight} ({eigen}), prime {p}: {exc}") from exc

    total = Fraction(0)
    p1, p2 = space.field.p, space.partner().field.p
    for va, vb in zip(values[0], values[1]):
        ra, rb = lift(va, p1), lift(vb, p2)
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
