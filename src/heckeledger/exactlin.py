"""Exact sparse linear algebra over a large word-sized prime field.

All arithmetic happens on plain Python integers reduced modulo a fixed
word-sized prime (default 2**61 - 1).  Integer eigenvalues come back to
Z as signed residues; other values of moderate height are recovered
exactly by rational reconstruction.
Nothing here is floating point and nothing here is randomized:
identical inputs give bit-identical outputs.

The main objects are :class:`FieldMatrix` (sparse, row-major dicts)
and :class:`Subspace` (its reduced row echelon basis, as sparse
vectors).  On top of those sit one row-insertion reduced row echelon
form for every matrix, sparse or dense, rank and kernel, joint kernels
of shifted operators (the eigenvectors for a known eigenvalue tuple),
restriction of an operator to an invariant subspace by reading the
images at the basis's pivot coordinates, simultaneous eigenspace
splitting of a commuting family at bounded integer eigenvalues, and
rational reconstruction of field elements.  Matrix products, the
charpoly expansion and the squarings of modular powers run on
packed-integer (Kronecker) kernels: a row or a coefficient list becomes
one Python int with fixed-width slots, so one big-int product does a
whole row's worth of multiply-adds.  Roots are found modulo the
squarefree part of a polynomial, by gcd with x^p - x and then
equal-degree splitting; a modular power packs and unpacks twice per
squaring and multiplies by its (usually linear) base term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "PrimeField",
    "FieldMatrix",
    "Subspace",
    "EchelonForm",
    "Eigenspace",
    "SplitResult",
    "FieldContext",
    "NotInvariant",
    "NonCommuting",
    "NoReconstruction",
    "DEFAULT_PRIME",
    "rank_and_kernel",
    "joint_kernel",
    "restrict_operator",
    "split_eigenspaces",
    "rational_reconstruct",
    "signed_lift",
    "frac_str",
    "charpoly",
    "distinct_roots",
    "next_field_prime",
]


class NotInvariant(Exception):
    """An operator maps a vector of the subspace outside its span."""


class NonCommuting(Exception):
    """Two operators handed to the eigenspace splitter do not commute."""


class NoReconstruction(Exception):
    """No rational of the requested height lifts the field element."""


# Fixed Mersenne prime, the default primary working prime.
DEFAULT_PRIME = (1 << 61) - 1

# Every field prime must exceed this floor.  The lifts back to Q need it:
# the winding pairing reconstructs rationals of height 10**6 at each prime
# (2 * 10**12 < p) and otherwise CRT-combines both primes and reconstructs
# at height 2**59 (2**119 < p1 * p2).  The census's signed integer lifts
# need no floor of their own; a wrong one fails the second-prime check.
FIELD_PRIME_FLOOR = 1 << 60

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_field_prime(start: int) -> int:
    """Smallest prime >= start that satisfies the PrimeField invariants."""
    n = max(start, FIELD_PRIME_FLOOR + 1)
    if n % 2 == 0:
        n += 1
    while not _is_prime(n):
        n += 2
    return n


class PrimeField:
    """The field Z/p for a word-sized prime p > FIELD_PRIME_FLOOR = 2**60.

    Elements are plain ints in [0, p).  Primality is checked at
    construction so a typo in a configured modulus fails loudly.
    """

    __slots__ = ("p",)

    def __init__(self, modulus: int):
        if not _is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        if modulus <= FIELD_PRIME_FLOOR:
            raise ValueError(f"modulus {modulus} too small, need > 2**60")
        self.p = modulus

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def elem(self, x: int | Fraction) -> int:
        """Reduce an integer or Fraction into the field."""
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in the field")
            return x.numerator % self.p * pow(den, -1, self.p) % self.p
        return x % self.p

    def inv(self, x: int) -> int:
        return pow(x, -1, self.p)


@dataclass(frozen=True)
class FieldContext:
    """The pair of working primes for the multi-prime protocol.

    Every eigenvalue the package reports has been computed modulo both
    primes and lifts to the same integer at both.
    """

    primary: PrimeField
    secondary: PrimeField

    @classmethod
    def default(cls, primary_modulus: int | None = None) -> "FieldContext":
        p = primary_modulus if primary_modulus is not None else DEFAULT_PRIME
        primary = PrimeField(p)
        secondary = PrimeField(next_field_prime(p + 1))
        return cls(primary, secondary)


# ---------------------------------------------------------------------------
# Packed-integer (Kronecker) kernels.  A vector of field elements becomes
# one nonnegative int with fixed-width little-endian slots, so a single
# big-int product or multiply-add does a whole vector's worth of field
# multiply-adds in C.  Slots are wide enough that no sum carries into
# the next slot; each slot is reduced mod p once, on unpacking.


def _slot_bytes(p: int, terms: int) -> int:
    """Slot width, in whole bytes, that holds a sum of `terms` products of
    two elements of [0, p) with a spare bit."""
    return (2 * p.bit_length() + terms.bit_length() + 1 + 7) // 8


def _pack(values: Sequence[int], nb: int) -> int:
    """Elements of [0, p) as the nb-byte slots of one int, first lowest."""
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]), "little")


def _unpack(x: int, count: int, nb: int, p: int) -> list[int]:
    """The `count` slots of x, each reduced mod p; x must fit in them."""
    data = x.to_bytes(count * nb, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + nb], "little") % p for i in range(0, count * nb, nb)]


def _dense_row(row: dict[int, int], n: int) -> list[int]:
    out = [0] * n
    for j, v in row.items():
        out[j] = v
    return out


# Fraction of populated cells beyond which the right factor of a
# product is packed into dense rows (see FieldMatrix.matmul).
DENSE_THRESHOLD = 0.20


class FieldMatrix:
    """Sparse matrix over a PrimeField, rows stored as {col: value} dicts.

    No stored value is zero.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(
        self,
        field: PrimeField,
        nrows: int,
        ncols: int,
        rows: Optional[list[dict[int, int]]] = None,
    ):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        self.rows = rows

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_entries(
        cls,
        field: PrimeField,
        nrows: int,
        ncols: int,
        entries: Iterable[tuple[int, int, int | Fraction]],
    ) -> "FieldMatrix":
        m = cls(field, nrows, ncols)
        for i, j, v in entries:
            m.add_at(i, j, v)
        return m

    @classmethod
    def from_dense(cls, field: PrimeField, data: Sequence[Sequence[int]]) -> "FieldMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(field, nrows, ncols)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                m.add_at(i, j, v)
        return m

    # -- mutation (only used while assembling) ------------------------

    def add_at(self, i: int, j: int, v: int | Fraction) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        row = self.rows[i]
        w = (row.get(j, 0) + self.field.elem(v)) % self.field.p
        if w:
            row[j] = w
        else:
            row.pop(j, None)

    # -- queries ------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.rows[i].get(j, 0)

    def iter_entries(self) -> Iterator[tuple[int, int, int]]:
        for i in range(self.nrows):
            for j in sorted(self.rows[i]):
                yield i, j, self.rows[i][j]

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"<FieldMatrix {self.nrows}x{self.ncols} nnz={self.nnz} mod {self.field.p}>"

    # -- arithmetic ---------------------------------------------------

    def matvec(self, vec: dict[int, int]) -> dict[int, int]:
        p = self.field.p
        out: dict[int, int] = {}
        for i, row in enumerate(self.rows):
            s = 0
            if len(row) <= len(vec):
                for j, v in row.items():
                    w = vec.get(j)
                    if w:
                        s += v * w
            else:
                for j, w in vec.items():
                    v = row.get(j)
                    if v:
                        s += v * w
            s %= p
            if s:
                out[i] = s
        return out

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        """self * other.

        When `other` is denser than DENSE_THRESHOLD, each of its rows is
        packed into one int (see :func:`_pack`) and output row i is
        sum_j a_ij * packed_j, unpacked and reduced: one big-int
        multiply-add per stored entry of self.  A sparser `other` is
        multiplied entry by entry, which never touches its empty slots.
        """
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        p = self.field.p
        out_rows: list[dict[int, int]] = []
        if other.density <= DENSE_THRESHOLD:
            for row in self.rows:
                acc: dict[int, int] = {}
                for j, v in row.items():
                    for k, w in other.rows[j].items():
                        acc[k] = acc.get(k, 0) + v * w
                out_rows.append({k: r for k, w in acc.items() if (r := w % p)})
            return FieldMatrix(self.field, self.nrows, other.ncols, out_rows)
        k = other.ncols
        nb = _slot_bytes(p, max((len(r) for r in self.rows), default=0))
        packed = [_pack(_dense_row(r, k), nb) if r else 0 for r in other.rows]
        for row in self.rows:
            acc = sum(map(mul, row.values(), map(packed.__getitem__, row)))
            out_rows.append(
                {c: r for c, r in enumerate(_unpack(acc, k, nb, p)) if r} if acc else {}
            )
        return FieldMatrix(self.field, self.nrows, other.ncols, out_rows)

    def add_scaled(self, other: "FieldMatrix", c: int) -> "FieldMatrix":
        """self + c * other."""
        p = self.field.p
        c %= p
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            acc = dict(ra)
            for j, v in rb.items():
                w = (acc.get(j, 0) + c * v) % p
                if w:
                    acc[j] = w
                else:
                    acc.pop(j, None)
            rows.append(acc)
        return FieldMatrix(self.field, self.nrows, self.ncols, rows)

    def sub(self, other: "FieldMatrix") -> "FieldMatrix":
        return self.add_scaled(other, -1)

    def scale(self, c: int) -> "FieldMatrix":
        p = self.field.p
        c %= p
        rows = []
        for r in self.rows:
            rows.append({j: v * c % p for j, v in r.items()} if c else {})
        return FieldMatrix(self.field, self.nrows, self.ncols, rows)

    def transpose(self) -> "FieldMatrix":
        rows: list[dict[int, int]] = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                rows[j][i] = v
        return FieldMatrix(self.field, self.ncols, self.nrows, rows)


@dataclass
class EchelonForm:
    """Reduced row echelon form plus pivot bookkeeping."""

    matrix: FieldMatrix
    pivots: list[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _reduced(row: dict[int, int], heap: list[int], pivot_rows: dict[int, dict[int, int]],
             p: int) -> dict[int, int]:
    """row with the pivot columns on the heap cleared, as a new dict.

    Columns go smallest-first.  A pivot row has no entry left of its
    pivot, so a subtraction only adds columns to the right of the one
    it clears, and each pivot column it adds joins the heap.  Entries
    are reduced mod p once, at the end.
    """
    acc = dict(row)
    heapify(heap)
    while heap:
        col = heappop(heap)
        v = acc[col] % p
        if not v:
            continue
        c = p - v
        for j, w in pivot_rows[col].items():
            x = acc.get(j)
            if x is None:
                acc[j] = c * w
                if j in pivot_rows:
                    heappush(heap, j)
            else:
                acc[j] = x + c * w
    return {j: x for j, v in acc.items() if (x := v % p)}


def echelonize(m: FieldMatrix) -> EchelonForm:
    """Reduced row echelon form of m, which is left unmodified.

    One row-insertion elimination for every matrix, sparse or dense.
    Rows go in one at a time; each is reduced against the pivot rows
    found so far, and its leftmost surviving column becomes a new pivot
    with entry 1.  Back-substitution, right to left, then clears every
    pivot column from the rows above its pivot.  The pivot columns are
    the leftmost independent columns, and a reduced echelon form
    depends only on the row space, never on the elimination order; this
    keeps quotient bases stable when the same integer matrix is reduced
    modulo two different primes.  The result has m.nrows rows: the
    pivot rows by pivot column, then zero rows.
    """
    p = m.field.p
    pivot_rows: dict[int, dict[int, int]] = {}
    for src in m.rows:
        row = _reduced(src, [j for j in src if j in pivot_rows], pivot_rows, p)
        if row:
            lead = min(row)
            inv = pow(row[lead], -1, p)
            pivot_rows[lead] = {j: v * inv % p for j, v in row.items()} if inv != 1 else row
    pivots = sorted(pivot_rows)
    for col in reversed(pivots):
        row = pivot_rows[col]
        pivot_rows[col] = _reduced(row, [j for j in row if j != col and j in pivot_rows],
                                   pivot_rows, p)
    rows = [pivot_rows[c] for c in pivots] + [{} for _ in range(m.nrows - len(pivots))]
    return EchelonForm(FieldMatrix(m.field, m.nrows, m.ncols, rows), pivots)


@dataclass(frozen=True)
class Subspace:
    """The span of independent sparse vectors, kept as its reduced
    echelon basis.

    `Subspace(ambient_dim, vectors, field)` runs one echelon, which both
    checks that the vectors are independent (ValueError if not) and
    replaces them by the reduced echelon basis of their span.  That
    basis depends only on the subspace, not on the vectors handed in,
    so bases are comparable when the same computation is repeated
    modulo a second prime.  The coordinates of a vector of the subspace
    are its entries at the pivot columns.
    """

    ambient_dim: int
    basis: tuple[dict[int, int], ...]
    field: PrimeField

    def __post_init__(self):
        vectors = list(self.basis)
        ech = echelonize(FieldMatrix(self.field, len(vectors), self.ambient_dim, vectors))
        if ech.rank != len(vectors):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", tuple(ech.matrix.rows[:ech.rank]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def full(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(n, tuple({i: 1} for i in range(n)), field)


def rank_and_kernel(m: FieldMatrix) -> tuple[int, Subspace]:
    """Rank of m and a canonical (reduced echelon) basis of its kernel.

    The empty matrix is allowed; its kernel is the full column space.
    """
    ech = echelonize(m)
    pivset = set(ech.pivots)
    free_cols = [j for j in range(m.ncols) if j not in pivset]
    basis = []
    for f in free_cols:
        vec = {f: 1}
        for r, c in enumerate(ech.pivots):
            v = ech.matrix.rows[r].get(f)
            if v:
                vec[c] = (-v) % m.field.p
        basis.append(vec)
    return ech.rank, Subspace(m.ncols, basis, m.field)


def joint_kernel(ops: Sequence[FieldMatrix], values: Sequence[int],
                 extra: Sequence[FieldMatrix] = ()) -> Subspace:
    """Canonical (reduced echelon) basis of the joint eigenvectors.

    The common kernel of every op - value*I and every matrix in
    `extra`: {v : op v = value v for each pair, m v = 0 for each m}.
    One echelon of the stacked rows; the family need not commute and
    no invariant subspace is needed.
    """
    if len(ops) != len(values):
        raise ValueError("need one value per operator")
    mats = list(ops) + list(extra)
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].ncols
    field = mats[0].field
    for m in mats:
        if m.ncols != n or m.field != field:
            raise ValueError("matrices must share one column space")
    rows: list[dict[int, int]] = []
    for op, lam in zip(ops, values):
        if op.nrows != n:
            raise ValueError("operators must be square")
        rows.extend(op.add_scaled(FieldMatrix.identity(field, n), -lam).rows)
    for m in extra:
        rows.extend(m.rows)
    return rank_and_kernel(FieldMatrix(field, len(rows), n, rows))[1]


def restrict_operator(op: FieldMatrix, s: Subspace) -> FieldMatrix:
    """Matrix of op in the basis of s; NotInvariant if s is not op-stable.

    With B the basis of s as columns, the images op B are computed once.
    The basis is in reduced echelon form, so the coordinates of an image
    that lies in s are its entries at the pivot columns: row i of the
    result is row pivot_i of op B.  B times the result agrees with op B
    on the pivot rows by construction, and on the other rows exactly
    when every image lies in the span of B.
    """
    n = s.ambient_dim
    if op.ncols != n or op.nrows != n:
        raise ValueError("operator and subspace ambient dimension mismatch")
    pivots = [min(v) for v in s.basis]
    b = FieldMatrix(s.field, s.dim, n, list(s.basis)).transpose()
    images = op.matmul(b)
    result = FieldMatrix(s.field, s.dim, s.dim, [images.rows[c] for c in pivots])
    pivset = set(pivots)
    rest = [i for i in range(n) if i not in pivset]
    spanned = FieldMatrix(s.field, len(rest), s.dim, [b.rows[i] for i in rest]).matmul(result)
    if any(row != images.rows[i] for row, i in zip(spanned.rows, rest)):
        raise NotInvariant("image leaves the span of the subspace basis")
    return result


# ---------------------------------------------------------------------------
# Dense polynomial helpers modulo p, used for characteristic polynomials.
# Coefficient lists are low degree first.


def poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_sub(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return poly_trim(out)


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q g + r and deg r < deg g, both reduced mod p and trimmed."""
    f = poly_trim([a % p for a in f])
    g = poly_trim([b % p for b in g])
    if not g:
        raise ZeroDivisionError("poly division by zero")
    q = [0] * max(0, len(f) - len(g) + 1)
    ginv = pow(g[-1], -1, p)
    while len(f) >= len(g) and f:
        c = f[-1] * ginv % p
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
        poly_trim(f)
    return poly_trim(q), f


def poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    f = poly_trim([a % p for a in f])
    g = poly_trim([b % p for b in g])
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _series_inverse(h: list[int], n: int, p: int) -> list[int]:
    """h^-1 mod x^n, for h[0] invertible mod p."""
    inv0 = pow(h[0], -1, p)
    g = [inv0] if n > 0 else []
    for i in range(1, n):
        g.append(-sum(map(mul, h[1:i + 1], g[::-1])) * inv0 % p)
    return g


def poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base**e modulo the polynomial `mod`, coefficients mod p.

    Left-to-right square-and-multiply against mod made monic, of degree
    d.  A squaring is two packed stages with division-free reduction
    (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1).  With
    inv = rev(mod)^-1 mod x^(d-1), computed once, the top d - 1 slots of
    s = r^2 times inv reversed, shifted down by d - 1 slots, are the
    quotient q; the low d slots of s + q * (x^d - mod) are the
    remainder.  Slots of 3 bitlen(p) + 2 bitlen(d) + 1 bits hold the
    quotient's unreduced sums, below d^2 p^3, so a squaring packs and
    unpacks twice.  The multiply step is a schoolbook product with the
    base and one long-division step per coefficient above degree d - 1:
    O(d) for the linear bases of the root finder.
    """
    if e == 0:
        return [1]
    mod = poly_trim([c % p for c in mod])
    base = poly_divmod(base, mod, p)[1]
    if not base:
        return []
    lead = pow(mod[-1], -1, p)
    d = len(mod) - 1
    neg = [(-c) * lead % p for c in mod[:d]]  # x^d = neg(x) modulo mod
    nb = (3 * p.bit_length() + 2 * d.bit_length() + 1 + 7) // 8
    width = 8 * nb
    # Leading zero slot: the quotient sits in the top d - 1 slots of a
    # d-slot shift, for every d >= 1.
    inv = _pack([0] + _series_inverse([c * lead % p for c in mod[::-1]], d - 1, p)[::-1], nb)
    pneg = _pack(neg, nb)
    low = (1 << (width * d)) - 1
    result = base
    for bit in bin(e)[3:]:
        s = _pack(result, nb) ** 2
        q = _unpack((s >> (width * d)) * inv >> (width * (d - 1)), d - 1, nb, p)
        result = poly_trim(_unpack((s & low) + _pack(q, nb) * pneg & low, d, nb, p))
        if bit == "1":
            n = len(result)
            c = [0] * (n + len(base) - 1)
            for i, b in enumerate(base):
                c[i:i + n] = [x + b * a for x, a in zip(c[i:i + n], result)]
            for k in range(len(c) - 1, d - 1, -1):
                t = c[k] % p
                c[k - d:k] = [x + t * a for x, a in zip(c[k - d:k], neg)]
            result = poly_trim([x % p for x in c[:d]])
    return result


def charpoly(m: FieldMatrix) -> list[int]:
    """Characteristic polynomial det(xI - m), low degree first, monic.

    Reduces to Hessenberg form by similarity transforms, then expands
    along the last column of each leading block.  O(n^3) field ops,
    done as whole-row list operations and packed multiply-adds.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    p = m.field.p
    if n == 0:
        return [1]
    h = [_dense_row(row, n) for row in m.rows]
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if h[i][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for row in h:
                row[col + 1], row[piv] = row[piv], row[col + 1]
        prow = h[col + 1]
        inv = pow(prow[col], -1, p)
        tail = prow[col:]
        factors = []
        for row in h[col + 2:]:
            f = row[col] * inv % p
            factors.append(f)
            if f:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
        # The elimination's inverse on the right: column col+1 gains
        # f_i times column i.  The row operations share the pivot row
        # col+1, which none of them changes, so they commute and can all
        # go first.
        if any(factors):
            for row in h:
                row[col + 1] = (row[col + 1] + sum(map(mul, factors, row[col + 2:]))) % p
    # charpoly of the leading k x k Hessenberg blocks by recurrence, each
    # kept packed so that the sum along the last column is one big-int
    # multiply-add per term
    nb = _slot_bytes(p, n + 1)
    packed = [1]
    for k in range(1, n + 1):
        prev = packed[k - 1]
        acc = (prev << (8 * nb)) + (-h[k - 1][k - 1]) % p * prev
        run = 1
        for i in range(k - 2, -1, -1):
            run = run * h[i + 1][i] % p
            if not run:
                break
            c = h[i][k - 1] * run % p
            if c:
                acc += (p - c) * packed[i]
        coeffs = _unpack(acc, k + 1, nb, p)
        packed.append(_pack(coeffs, nb))
    return coeffs


def distinct_roots(f: list[int], p: int) -> list[int]:
    """All roots of f in Z/p, each once, sorted ascending.

    f is first replaced by its squarefree part f / gcd(f, f'), which has
    the same roots at half the degree or less when every root is
    repeated (von zur Gathen and Gerhard, 14.3); this needs p > deg f,
    and a smaller p raises ValueError.  Then gcd with x^p - x isolates
    the linear part, and the splitting uses quadratic-residue filters
    (x + t)^((p-1)/2) - 1 with t = 0, 1, 2, ... in order, so the
    computation is deterministic.
    """
    f = poly_trim([c % p for c in f])
    if len(f) > p:
        raise ValueError(f"degree {len(f) - 1} is not below the prime {p}")
    if len(f) <= 1:
        return []
    df = [i * c % p for i, c in enumerate(f)][1:]
    f = poly_divmod(f, poly_gcd(f, df, p), p)[0]
    # A linear squarefree part is its own root; no need to power x.
    g = f if len(f) == 2 else poly_gcd(poly_sub(poly_powmod([0, 1], p, f, p), [0, 1], p), f, p)
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if len(h) <= 1:
            continue
        if len(h) == 2:
            roots.append((-h[0]) * pow(h[1], -1, p) % p)
            continue
        t = 0
        while True:
            probe = poly_powmod([t, 1], (p - 1) // 2, h, p)
            d = poly_gcd(poly_sub(probe, [1], p), h, p)
            if 0 < len(d) - 1 < len(h) - 1:
                stack.append(d)
                stack.append(poly_divmod(h, d, p)[0])
                break
            t += 1
    return sorted(roots)


def root_multiplicity(f: list[int], lam: int, p: int) -> int:
    count = 0
    lin = [(-lam) % p, 1]
    while len(f) > 1:
        q, r = poly_divmod(f, lin, p)
        if r:
            break
        f = q
        count += 1
    return count


@dataclass(frozen=True)
class Eigenspace:
    """A simultaneous eigenspace with its tuple of eigenvalues."""

    values: tuple[int, ...]
    space: Subspace


@dataclass
class SplitResult:
    """Outcome of a simultaneous eigenspace split.

    `eigenspaces` hold only genuine simultaneous eigenvectors.
    Directions that are generalized eigenvectors without being
    eigenvectors are tallied in `defective` (eigenvalue prefix, lost
    dimension); directions whose characteristic factor has no root in
    the field, or only roots whose signed lift exceeds the operator's
    bound, are tallied in `unsplit_dim`.
    """

    eigenspaces: list[Eigenspace]
    defective: list[tuple[tuple[int, ...], int]] = dataclass_field(default_factory=list)
    unsplit_dim: int = 0

    def total_dim(self) -> int:
        return sum(e.space.dim for e in self.eigenspaces)


def _lift_to_ambient(s: Subspace, coords: Subspace) -> Subspace:
    """Map vectors given in the basis of s back to ambient coordinates."""
    p = s.field.p
    lifted = []
    for vec in coords.basis:
        acc: dict[int, int] = {}
        for idx, c in vec.items():
            for j, w in s.basis[idx].items():
                acc[j] = (acc.get(j, 0) + c * w) % p
        lifted.append({j: v for j, v in acc.items() if v})
    return Subspace(s.ambient_dim, lifted, s.field)


def signed_lift(x: int, p: int) -> int:
    """The integer of least absolute value congruent to x mod p."""
    x %= p
    return x - p if 2 * x > p else x


def split_eigenspaces(ops: Sequence[FieldMatrix], bounds: Sequence[int]) -> SplitResult:
    """Common eigenspace decomposition of a commuting family at bounded
    integer eigenvalues.

    Refines the full space one operator at a time.  A root of an
    operator's characteristic polynomial gets a kernel, a multiplicity
    and a place in the refinement only when its `signed_lift` a has
    |a| <= that operator's entry of `bounds`; every other root is
    counted in `unsplit_dim`.  A bound of p // 2 keeps every root.
    Eigenvalue tuples come out in ascending lexicographic order of their
    field representatives, so the result is deterministic.
    """
    if not ops:
        raise ValueError("need at least one operator")
    if len(bounds) != len(ops):
        raise ValueError("need one bound per operator")
    n = ops[0].nrows
    field = ops[0].field
    for op in ops:
        if op.nrows != n or op.ncols != n or op.field != field:
            raise ValueError("operators must share one square ambient space")
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if ops[a].matmul(ops[b]) != ops[b].matmul(ops[a]):
                raise NonCommuting(f"operators {a} and {b} do not commute")

    p = field.p
    result = SplitResult(eigenspaces=[])
    current: list[tuple[tuple[int, ...], Subspace]] = [((), Subspace.full(field, n))]
    for op, bound in zip(ops, bounds):
        refined: list[tuple[tuple[int, ...], Subspace]] = []
        for prefix, s in current:
            if s.dim == 0:
                continue
            m = restrict_operator(op, s)
            f = charpoly(m)
            covered = 0
            for lam in distinct_roots(f, p):
                if abs(signed_lift(lam, p)) > bound:
                    continue
                ker = joint_kernel([m], [lam])
                geo = ker.dim
                alg = root_multiplicity(list(f), lam, p)
                covered += alg
                if geo < alg:
                    result.defective.append((prefix + (lam,), alg - geo))
                refined.append((prefix + (lam,), _lift_to_ambient(s, ker)))
            result.unsplit_dim += s.dim - covered
        current = refined
    result.eigenspaces = [
        Eigenspace(tup, s) for tup, s in sorted(current, key=lambda t: t[0]) if s.dim > 0
    ]
    return result


def rational_reconstruct(x: int, bound: int, field: PrimeField | int) -> Fraction:
    """The unique rational a/b with |a|, |b| <= bound and a = x*b mod p.

    Requires 2 * bound**2 < p so the answer is unique when it exists.
    Raises NoReconstruction otherwise.  Standard half-extended
    Euclidean lattice walk.
    """
    p = field.p if isinstance(field, PrimeField) else field
    if bound <= 0 or 2 * bound * bound >= p:
        raise ValueError("need 0 < 2*bound^2 < modulus")
    x %= p
    r0, t0 = p, 0
    r1, t1 = x, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        raise NoReconstruction(f"no rational of height {bound} lifts {x} mod {p}")
    num = r1 if t1 > 0 else -r1
    den = abs(t1)
    frac = Fraction(num, den)
    if frac.denominator > bound or abs(frac.numerator) > bound:
        raise NoReconstruction(f"no rational of height {bound} lifts {x} mod {p}")
    if (frac.numerator - x * frac.denominator) % p != 0:
        raise NoReconstruction(f"no rational of height {bound} lifts {x} mod {p}")
    return frac


def frac_str(x: Fraction) -> str:
    """Exact decimal string of a rational: `n`, or `n/d` with d > 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
