"""Exact sparse linear algebra over a large word-sized prime field.

All arithmetic happens on plain Python integers reduced modulo a fixed
word-sized prime (default 2**61 - 1).  Integer eigenvalues come back to
Z as signed residues; other values of moderate height are recovered
exactly by rational reconstruction.
Nothing here is floating point and nothing here is randomized:
identical inputs give bit-identical outputs.

The main objects are :class:`FieldMatrix` (sparse, row-major dicts)
and :class:`Subspace` (its reduced row echelon basis, as sparse
vectors).  On top of those sit one row-insertion elimination for every
matrix, sparse or dense, in two steps: its forward phase gives a row
echelon form (`echelonize`) and back-substitution finishes it to the
reduced form (`reduced_echelon`).  The forward phase reads any integer
representatives and carries signed least residues, in (-p/2, p/2), so
small coefficients stay small integers and a lead of -1 costs a
negation.  The Manin relations are not echelonized here: they have an
echelon of their own, over Z and for every prime at once
(`modsym.echelonize`).
Only the forward echelon rows are signed: back-substitution, and so
every reduced form, kernel basis and `Subspace`, is in [0, p).  Then come
rank and a kernel basis that one reduced echelon gives already
reduced, restriction of operators to an invariant subspace by reading
the images at the basis's pivot coordinates, one step down a joint
eigenspace (`eigen_step`: the kernel of one operator minus a value,
with the other operators restricted to it, so that a tuple of values
is followed down without leaving the current node's coordinates),
simultaneous eigenspace splitting at bounded integer eigenvalues of a
commuting family, or of several isomorphic families in lockstep with
one root finding per refinement node (each node takes that step, and
only eigenvalues and dimensions come out), and rational
reconstruction of field elements.
The dense kernels run on packed integers (Kronecker substitution; von
zur Gathen and Gerhard, Modern Computer Algebra, 8.4): a row, a column
or a coefficient list becomes one Python int with fixed-width slots,
so one big-int multiply-add does a whole vector's worth of field
multiply-adds.  That covers the restriction's images and its
invariance residuals, the commutators of the split's guard, the
Hessenberg reduction of the charpoly (on packed columns) and its
expansion, and the squarings of modular powers; each guard checks that
a packed row combination vanishes, with one exact division per row.
The commutation guard checks only the pairs with the family's head when
the head's Hessenberg form is unreduced (the head is then
nonderogatory, and whatever commutes with it is a polynomial in it),
and every pair otherwise.  Only
roots whose signed lift is within a bound B are found: by evaluating
the polynomial at the 2B + 1 integers in [-B, B] when
2B + 1 <= 16 bitlen(p), and otherwise modulo its squarefree part, by
gcd with x^p - x and then equal-degree splitting down to factors of
degree at most 2, which are solved in closed form (a Tonelli-Shanks
square root of the discriminant); a modular power packs and unpacks
twice per squaring and multiplies by its (usually linear) base term by
term.

Every error the package defines is of one of two kinds, both defined
here, as every module imports this one: an `InputError` refuses an
input at the check where it enters, and a `ComputationError` is a
failed check behind those, which leaves a result uncertified.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Iterable, Optional, Sequence

__all__ = [
    "PrimeField",
    "FieldMatrix",
    "Subspace",
    "Eigenspace",
    "SplitResult",
    "FieldContext",
    "InputError",
    "ComputationError",
    "NotInvariant",
    "NonCommuting",
    "FamilyMismatch",
    "NoReconstruction",
    "DEFAULT_PRIME",
    "rank_and_kernel",
    "restrict_operator",
    "eigen_step",
    "split_eigenspaces",
    "rational_reconstruct",
    "signed_lift",
    "frac_str",
    "charpoly",
    "distinct_roots",
    "next_field_prime",
]


class InputError(ValueError):
    """An input refused where it enters: a usage error, exit code 2."""


class ComputationError(Exception):
    """A failed check behind the input checks: exit code 1."""


class NotInvariant(ComputationError):
    """An operator maps a vector of the subspace outside its span."""


class NonCommuting(ComputationError):
    """Two operators handed to the eigenspace splitter do not commute."""


class FamilyMismatch(ComputationError):
    """Families split in lockstep have different characteristic polynomials."""


class NoReconstruction(ComputationError):
    """No rational of the requested height lifts the field element."""


# Fixed Mersenne prime, the default primary working prime.
DEFAULT_PRIME = (1 << 61) - 1

# Every field prime must exceed this floor.  The lifts back to Q need it:
# the winding pairing reconstructs rationals of height 10**6 at each prime
# (2 * 10**12 < p) and compares the two lifts.  The census's signed integer
# lifts need no floor of their own; a wrong one fails the second-prime check.
FIELD_PRIME_FLOOR = 1 << 60

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to the first t bases (OEIS A014233)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first t prime bases, t least with n < psi_t:
    deterministic below psi_13 = 3317044064679887385961981 (Sorenson and
    Webster), since below psi_t the first t bases admit no composite;
    psi_12, strong to 2..37, is caught by 41.  Above psi_13 it is a
    strong probable-prime test to all 13 bases 2..41."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for a in _MR_BASES[:bisect_right(_MR_PSI, n) + 1]:
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

    Elements are plain ints in [0, p), except in the forward echelon
    rows of `echelonize`, which hold signed least residues in
    (-p/2, p/2).  Primality is checked at construction so a typo in a
    configured modulus fails loudly.
    """

    __slots__ = ("p",)

    def __init__(self, modulus: int):
        if not _is_prime(modulus):
            raise InputError(f"modulus {modulus} is not prime")
        if modulus <= FIELD_PRIME_FLOOR:
            raise InputError(f"modulus {modulus} too small, need > 2**60")
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
# the next slot; each slot is reduced mod p once, on unpacking, or
# tested for zero mod p all at once (`_vanishes`).


def _slot_bytes(p: int, terms: int) -> int:
    """Slot width, in whole bytes, that holds a sum of `terms` products of
    two elements of [0, p) with a spare bit.

    The spare bit is load-bearing: it keeps every such sum below
    2^(w-1) for a slot of w bits, which `_vanishes` needs."""
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


def _packed_rows(m: "FieldMatrix", nb: int) -> list[int]:
    """Every row of m packed into nb-byte slots, an empty row as 0."""
    return [_pack(_dense_row(r, m.ncols), nb) if r else 0 for r in m.rows]


def _combination(row: dict[int, int], packed: list[int]) -> int:
    """sum_j row[j] packed[j]: one big-int multiply-add per entry of row."""
    return sum(map(mul, row.values(), map(packed.__getitem__, row)))


def _slot_high(p: int, count: int, nb: int) -> int:
    """The top bitlen(p) bits of each of `count` nb-byte slots."""
    w = 8 * nb
    return ((1 << w) - (1 << (w - p.bit_length()))) * ((1 << (w * count)) - 1) // ((1 << w) - 1)


def _vanishes(x: int, row: dict[int, int], packed: list[int], high: int, p: int) -> bool:
    """Whether x - sum_j row[j] packed[j] is 0 mod p in every slot, for
    w-bit slots in which x + sum_j (p - row[j]) packed[j] stays below
    2^(w-1) (the spare bit of `_slot_bytes`); `high` is `_slot_high`'s
    mask for them.

    The difference is formed as x + sum_j (p - row[j]) packed[j], so
    every slot stays nonnegative, and one exact division tests them all:
    each slot is a multiple of p exactly when q, r = divmod(difference,
    p) has r = 0 and q & high = 0.  If each slot is p t, then
    t < 2^(w-1) / p < 2^(w - bitlen p), so q has those t as its slots,
    clear of `high`; conversely, when both hold, p q is written with
    slots p t < 2^w and no carry, and that slot form of the difference
    is unique."""
    x += sum(map(mul, map(p.__sub__, row.values()), map(packed.__getitem__, row)))
    q, r = divmod(x, p)
    return not r and not q & high


# Fraction of populated cells above which a matrix counts as dense.  No
# code path depends on it; perfbench/layers.py tallies echelon calls by it.
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

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

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

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        """self * other, entry by entry: each stored entry of self meets
        the stored entries of one row of other, never its empty slots."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        p = self.field.p
        out_rows: list[dict[int, int]] = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for j, v in row.items():
                for k, w in other.rows[j].items():
                    acc[k] = acc.get(k, 0) + v * w
            out_rows.append({k: r for k, w in acc.items() if (r := w % p)})
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

    def transpose(self) -> "FieldMatrix":
        rows: list[dict[int, int]] = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                rows[j][i] = v
        return FieldMatrix(self.field, self.ncols, self.nrows, rows)


def _reduced(row: dict[int, int], heap: list[int], pivot_rows: dict[int, dict[int, int]],
             p: int) -> dict[int, int]:
    """row with the pivot columns on the heap cleared, as a new dict of
    signed least residues, in (-p/2, p/2).

    Columns go smallest-first.  A pivot row has no entry left of its
    pivot, so a subtraction only adds columns to the right of the one
    it clears, and each pivot column it adds joins the heap.  Any
    integer representatives may come in; each multiplier is a signed
    least residue, so small entries stay small integers, and entries are
    reduced mod p once, at the end.
    """
    half = p >> 1
    acc = dict(row)
    heapify(heap)
    while heap:
        col = heappop(heap)
        v = acc[col] % p
        if not v:
            continue
        c = p - v if v > half else -v
        for j, w in pivot_rows[col].items():
            x = acc.get(j)
            if x is None:
                acc[j] = c * w
                if j in pivot_rows:
                    heappush(heap, j)
            else:
                acc[j] = x + c * w
    return {j: x - p if x > half else x for j, v in acc.items() if (x := v % p)}


def echelonize(m: FieldMatrix) -> tuple[list[int], list[dict[int, int]]]:
    """(pivots, rows): a row echelon form of m, which is left unmodified.

    The forward phase of one row-insertion elimination for every matrix,
    sparse or dense.  Rows go in one at a time; each is reduced against
    the pivot rows found so far, and its leftmost surviving column
    becomes a new pivot with entry 1.  m's entries may be any integer
    representatives, and every returned entry is a nonzero signed least
    residue, in (-p/2, p/2): a row with lead +-1 is normalized by at
    most a negation, and only other leads pay for an inverse.  Each
    returned row is 1 at its pivot and zero left of it; it may be
    nonzero at pivots found after it.  The pivots are the leftmost
    independent columns, the pivots of the reduced form, whatever the
    row order; the rows themselves depend on the row order.  `pivots`
    ascend and `rows[i]` is the row of pivots[i], a new dict; the zero
    rows are not returned.  `reduced_echelon` finishes the same
    elimination.
    """
    p = m.field.p
    half = p >> 1
    pivot_rows: dict[int, dict[int, int]] = {}
    for src in m.rows:
        row = _reduced(src, [j for j in src if j in pivot_rows], pivot_rows, p)
        if row:
            lead = min(row)
            u = row[lead]
            if u == -1:
                row = {j: -v for j, v in row.items()}
            elif u != 1:
                inv = pow(u, -1, p)
                row = {j: x - p if (x := v * inv % p) > half else x for j, v in row.items()}
            pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    return pivots, [pivot_rows[c] for c in pivots]


def _back_substitute(pivots: list[int], rows: list[dict[int, int]],
                     p: int) -> list[dict[int, int]]:
    """The reduced rows of the row echelon form (pivots, rows), which is
    left unmodified, with every entry in [0, p).

    Right to left, every pivot column is cleared from the rows above its
    pivot, in one pass over the row's pivot columns to its right: their
    rows are already fully reduced, so subtracting one never brings in
    another pivot column, and each multiplier is the row's own entry
    there.  The forward rows may hold any integer representatives
    (`echelonize` gives signed ones); the output rows are reduced to
    [0, p), the contract of `reduced_echelon` and of `Subspace`.
    """
    pivot_rows = dict(zip(pivots, rows))
    for col in reversed(pivots):
        row = pivot_rows[col]
        acc = dict(row)
        for h in row:
            if h != col and h in pivot_rows:
                c = -row[h]
                for j, w in pivot_rows[h].items():
                    acc[j] = acc.get(j, 0) + c * w
        pivot_rows[col] = {j: x for j, v in acc.items() if (x := v % p)}
    return [pivot_rows[c] for c in pivots]


def reduced_echelon(m: FieldMatrix) -> tuple[list[int], list[dict[int, int]]]:
    """(pivots, rows): the reduced row echelon form of m, which is left
    unmodified: `echelonize`'s forward phase, then back-substitution.

    A reduced echelon form depends only on the row space, never on the
    row order or the elimination order (the row order changes only the
    fill-in); this keeps kernel bases stable when the same integer
    matrix is reduced modulo two different primes.  `rows[i]` is the
    reduced row of pivots[i]: 1 there, 0 at every other pivot.
    """
    pivots, rows = echelonize(m)
    return pivots, _back_substitute(pivots, rows, m.field.p)


def _is_reduced_echelon(vectors: Sequence[dict[int, int]], n: int, p: int) -> bool:
    """Whether vectors already form a reduced echelon basis in F_p^n, in
    O(nnz): distinct ascending leads, each with entry 1, no other vector
    nonzero at a lead, every entry in [1, p) and every index in range."""
    leads = [min(v, default=-1) for v in vectors]
    lead_set = set(leads)
    return all(a < b for a, b in zip(leads, leads[1:])) and all(
        lead >= 0 and v[lead] == 1 and max(v) < n
        and all(0 < x < p and (j == lead or j not in lead_set) for j, x in v.items())
        for lead, v in zip(leads, vectors))


@dataclass(frozen=True)
class Subspace:
    """The span of independent sparse vectors, kept as its reduced
    echelon basis.

    `Subspace(ambient_dim, basis, field)` only checks: a basis that
    fails the O(nnz) check `_is_reduced_echelon` (not reduced,
    dependent, or out of range) raises ValueError, and nothing is
    echelonized.  The one constructor in the package, `rank_and_kernel`,
    builds its bases reduced by construction, and this check enforces
    that.  A reduced echelon basis depends only on the subspace, so
    bases are comparable when the same computation is repeated modulo a
    second prime.  The coordinates of a vector of the subspace are its
    entries at the pivot columns.
    """

    ambient_dim: int
    basis: tuple[dict[int, int], ...]
    field: PrimeField

    def __post_init__(self):
        basis = tuple(self.basis)
        if not _is_reduced_echelon(basis, self.ambient_dim, self.field.p):
            raise ValueError("basis is not the reduced echelon basis of independent vectors")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def rank_and_kernel(m: FieldMatrix) -> tuple[int, Subspace]:
    """Rank of m and the reduced echelon basis of its kernel.

    m is brought to reduced echelon form (`reduced_echelon`) with its
    columns reversed (j -> n-1-j), so the pivots are the rightmost
    independent columns and the reduced row of pivot c is 1 at c and
    otherwise nonzero only at free columns left of c.  The kernel vector of free column f, 1 at f and minus row c's
    entry at f at each pivot c, is then 0 at every other free column and
    nonzero only at pivots right of f: in ascending f these vectors are
    already the reduced echelon basis, which the Subspace constructor
    checks and keeps as it is.  The empty matrix is allowed; its kernel
    is the full column space.
    """
    p = m.field.p
    last = m.ncols - 1
    flipped = [{last - j: v for j, v in r.items()} for r in m.rows]
    pivots, rows = reduced_echelon(FieldMatrix(m.field, m.nrows, m.ncols, flipped))
    pivset = {last - c for c in pivots}
    kernel = {f: {f: 1} for f in range(m.ncols) if f not in pivset}
    for c, row in zip(pivots, rows):
        for j, v in row.items():
            if j != c:
                kernel[last - j][last - c] = p - v
    return len(pivots), Subspace(m.ncols, list(kernel.values()), m.field)


def restrict_operator(ops: Sequence[FieldMatrix], s: Subspace) -> list[FieldMatrix]:
    """The matrix of each op in the basis of s; NotInvariant unless s is
    stable under every one.

    With B the basis of s as columns (n x d), each row of B is packed
    once for all the ops (see :func:`_pack`), and each op's images op B
    are formed packed, one multiply-add per stored entry of op.  The
    basis is in reduced echelon form, so the coordinates of an image
    that lies in s are its entries at the pivot columns: row t of a
    result is row pivot_t of op B, unpacked (the only unpacks, d per
    op).  B times the result agrees with op B on the pivot rows by
    construction, and on every other row i exactly when the packed
    residual (op B)_i + sum_t (p - b_it) result_t vanishes in every
    slot, which one exact division tests (`_vanishes`); that holds for
    all of them exactly when every image lies in the span of B.  A
    subspace that is the whole space has the identity as its basis,
    and the ops themselves are the answer.
    """
    n = s.ambient_dim
    if any(op.ncols != n or op.nrows != n for op in ops):
        raise ValueError("operator and subspace ambient dimension mismatch")
    if s.dim == n or not ops:
        return list(ops)
    p, d = s.field.p, s.dim
    pivots = [min(v) for v in s.basis]
    pivset = set(pivots)
    b = FieldMatrix(s.field, d, n, list(s.basis)).transpose()
    nb = _slot_bytes(p, n + d)  # an image's n terms plus a residual's d
    packed_b = _packed_rows(b, nb)
    high = _slot_high(p, d, nb)
    restricted = []
    for op in ops:
        images = [_combination(row, packed_b) for row in op.rows]
        result = [_unpack(images[c], d, nb, p) for c in pivots]
        packed_result = [_pack(r, nb) for r in result]
        for i, coords in enumerate(b.rows):
            if i not in pivset and not _vanishes(images[i], coords, packed_result, high, p):
                raise NotInvariant("image leaves the span of the subspace basis")
        restricted.append(FieldMatrix(s.field, d, d,
                                      [{c: v for c, v in enumerate(r) if v} for r in result]))
    return restricted


def eigen_step(ops: Sequence[FieldMatrix], value: int) -> tuple[Subspace, list[FieldMatrix]]:
    """(K, rest): K the kernel of ops[0] - value, as its reduced echelon
    basis, and rest the matrices of ops[1:] in that basis
    (`restrict_operator`: NotInvariant unless K is stable under each).

    One step down a joint eigenspace.  Following it down a tuple of
    values, each step on the previous step's rest, reaches the joint
    eigenspace without leaving the coordinates of the node it is at:
    the basis of K_t in ambient coordinates would be C_t ... C_2 B_1,
    each C a step's basis, and that product is the reduced echelon
    basis of the joint eigenspace, since each factor is reduced.  A
    vector's pairings with that basis are carried down the same way:
    B_1 w, then C_2 (B_1 w), and so on.
    """
    if not ops:
        raise ValueError("need at least one operator")
    head = ops[0]
    if head.nrows != head.ncols:
        raise ValueError("operators must be square")
    kernel = rank_and_kernel(head.add_scaled(FieldMatrix.identity(head.field, head.ncols),
                                             -value))[1]
    return kernel, restrict_operator(ops[1:], kernel)


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


def charpoly(m: FieldMatrix) -> tuple[list[int], bool]:
    """(coeffs, cyclic): the characteristic polynomial det(xI - m), low
    degree first, monic, and whether the Hessenberg form found on the
    way is unreduced.

    Reduces to Hessenberg form h by similarity transforms (Cohen, A
    Course in Computational Algebraic Number Theory, 2.2.4), then
    expands along the last column of each leading block.  When every
    subdiagonal entry h[j+1][j] is nonzero, h^k e_0 is nonzero at e_k
    and zero below it, so e_0, h e_0, ..., h^(n-1) e_0 are a basis: e_0
    is a cyclic vector of h, and m, similar to h, is nonderogatory (the
    transforms below touch only indices >= 1, so e_0 is cyclic for m
    too).  `cyclic` is that test, and nothing more: a nonderogatory m
    may still meet a zero subdiagonal entry and read False.

    The reduction runs on packed columns: G[r] holds column r of h with
    row i in slot i.  Step `col` unpacks the pivot column G[col], swaps
    a pivot into row col+1 if needed (two slots in every column right
    of col, which are zero in the columns left of it, then two
    columns), and with f_i = h[i][col] / h[col+1][col] packed into
    F at the slots i >= col+2, does
      - the row operations R_i -= f_i R_(col+1) as one multiply-add per
        column r > col, G[r] += (p - h[col+1][r]) F, reading h[col+1][r]
        from slot col+1 of G[r];
      - their inverse on the right, C_(col+1) += sum f_i C_i, as
        n - col - 2 multiply-adds into G[col+1].
    Column col is then final: its slots below col+1 are zero.  The row
    operations share the pivot row col+1, which none of them changes,
    so they commute and can all go before the column operation.

    Slots stay unreduced until their column is the pivot column.  Every
    entry starts below p, and a column gains less than p^2 per step
    from the row operations (a factor below p times a reduced entry), so
    a column that is a source of the column operation holds less than
    p + n p^2 in each slot.  Column col+1 is the target once, at step
    col, gaining sum_i f_i C_i < n p (p + n p^2); its slots stay below
    2 n^2 p^3, and the next step unpacks it as the pivot column, after
    which it is never a source again.  So slots of 3 bitlen(p) +
    2 bitlen(n) + 2 bits never carry.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    p = m.field.p
    if n == 0:
        return [1], True
    nb = (3 * p.bit_length() + 2 * n.bit_length() + 2 + 7) // 8
    width = 8 * nb
    mask = (1 << width) - 1
    cols = _packed_rows(m.transpose(), nb)
    h: list[list[int]] = []  # h[j] = column j of the Hessenberg form down to row j+1
    for col in range(n - 2):
        column = _unpack(cols[col], n, nb, p)
        piv = next((i for i in range(col + 1, n) if column[i]), None)
        if piv is not None and piv != col + 1:
            s, t = width * (col + 1), width * piv
            for r in range(col + 1, n):
                g = cols[r]
                d = (g >> t & mask) - (g >> s & mask)
                cols[r] = g + (d << s) - (d << t)
            cols[col + 1], cols[piv] = cols[piv], cols[col + 1]
            column[col + 1], column[piv] = column[piv], column[col + 1]
        h.append(column[:col + 2])
        if piv is None:
            continue
        inv = pow(column[col + 1], -1, p)
        factors = [x * inv % p for x in column[col + 2:]]
        if not any(factors):
            continue
        f = _pack(factors, nb) << (width * (col + 2))
        s = width * (col + 1)
        for r in range(col + 1, n):
            c = (cols[r] >> s & mask) % p
            if c:
                cols[r] += (p - c) * f
        cols[col + 1] += sum(map(mul, factors, cols[col + 2:]))
    h += [_unpack(g, n, nb, p) for g in cols[len(h):]]
    # charpoly of the leading k x k Hessenberg blocks by recurrence, each
    # kept packed so that the sum along the last column is one big-int
    # multiply-add per term
    nb = _slot_bytes(p, n + 1)
    packed = [1]
    for k in range(1, n + 1):
        prev = packed[k - 1]
        last = h[k - 1]
        acc = (prev << (8 * nb)) + (-last[k - 1]) % p * prev
        run = 1
        for i in range(k - 2, -1, -1):
            run = run * h[i][i + 1] % p
            if not run:
                break
            c = last[i] * run % p
            if c:
                acc += (p - c) * packed[i]
        coeffs = _unpack(acc, k + 1, nb, p)
        packed.append(_pack(coeffs, nb))
    return coeffs, all(h[j][j + 1] for j in range(n - 1))


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks with the smallest quadratic non-residue, so the
    answer is deterministic; for p = 3 mod 4 it is a^((p+1)/4).
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _small_roots(h: list[int], p: int) -> list[int]:
    """The roots of a trimmed squarefree h of degree at most 2, in closed form.

    A squarefree quadratic a x^2 + b x + c has a nonzero discriminant; it
    has roots exactly when that is a square (Euler's criterion), and then
    they are (-b +- sqrt(disc)) / 2a.
    """
    if len(h) <= 1:
        return []
    if len(h) == 2:
        return [(-h[0]) * pow(h[1], -1, p) % p]
    c, b, a = h
    disc = (b * b - 4 * a * c) % p
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    root = _sqrt_mod(disc, p)
    inv = pow(2 * a, -1, p)
    return [(-b + root) * inv % p, (-b - root) * inv % p]


def distinct_roots(f: list[int], p: int, bound: int) -> list[int]:
    """The roots r of f in Z/p with |signed_lift(r, p)| <= bound, each
    once, sorted ascending; a bound of p // 2 keeps every root.  Raises
    ValueError unless deg f < p.

    When 2 bound + 1 <= 16 bitlen(p), f is evaluated (Horner over Z,
    one reduction) at every integer in [-bound, bound]: (2 bound + 1)
    deg f multiply-adds, against about bitlen(p) packed squarings modulo
    the squarefree part below.  Both grow about linearly in the degree,
    so the crossover is a multiple of bitlen(p) alone; measured at
    degrees 3 to 104 with two linear factors, at 61 and 90 bits, it lies
    between 18 and 99 times bitlen(p).  So the bounds at weight 4 and
    l <= 5 (at most 22) and at weight 12 and l = 2 (90) evaluate, and
    those at weight 12 and l >= 3 power.

    Otherwise f is replaced by its squarefree part f / gcd(f, f'), which
    has the same roots at half the degree or less when every root is
    repeated (von zur Gathen and Gerhard, 14.3; this needs p > deg f).
    A part of degree at most 2 is solved in closed form.  Otherwise gcd
    with x^p - x isolates the linear part, whose factors of degree 3 or
    more are split by the quadratic-residue filters (x + t)^((p-1)/2) - 1
    with t = 0, 1, 2, ... in order, down to factors of degree at most 2,
    which are again solved in closed form; the roots beyond the bound
    are then dropped.  Both paths are deterministic and agree.
    """
    f = poly_trim([c % p for c in f])
    if len(f) > p:
        raise ValueError(f"degree {len(f) - 1} is not below the prime {p}")
    if len(f) <= 1:
        return []
    if 2 * bound + 1 <= 16 * p.bit_length():
        found = set()
        for a in range(-bound, bound + 1):
            v = 0
            for c in reversed(f):
                v = v * a + c
            if v % p == 0:
                found.add(a % p)
        return sorted(found)
    df = [i * c % p for i, c in enumerate(f)][1:]
    f = poly_divmod(f, poly_gcd(f, df, p), p)[0]
    g = f if len(f) <= 3 else poly_gcd(poly_sub(poly_powmod([0, 1], p, f, p), [0, 1], p), f, p)
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if len(h) <= 3:
            roots += _small_roots(h, p)
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
    return sorted(r for r in roots if abs(signed_lift(r, p)) <= bound)


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
    """A simultaneous eigenspace: its tuple of eigenvalues and its
    dimension in each family that was split (see split_eigenspaces)."""

    values: tuple[int, ...]
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(self.dims)


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


def signed_lift(x: int, p: int) -> int:
    """The integer of least absolute value congruent to x mod p."""
    x %= p
    return x - p if 2 * x > p else x


def _check_commuting(family: Sequence[FieldMatrix], p: int, cyclic: bool) -> None:
    """NonCommuting unless every pair of the square operators commutes.

    Row i of AB - BA is sum_j a_ij B_j - sum_j b_ij A_j.  With every
    operator's rows packed once, that is one packed combination per row
    and pair, of 2n terms, which must vanish in every slot: one exact
    division each (`_vanishes`), and nothing is unpacked.

    `cyclic` says that the head A = family[0] is nonderogatory (see
    `charpoly`), and then only the pairs (0, b) are checked.  Every
    matrix that commutes with a nonderogatory A is a polynomial in A
    (Horn and Johnson, Matrix Analysis, 3.2.4.2): with v a cyclic
    vector of A and Bv = q(A) v, B A^i v = A^i B v = q(A) A^i v for
    every i, and the A^i v span the space.  So once A commutes with
    every other operator, they are all polynomials in A and commute
    with each other.
    """
    n = family[0].nrows
    nb = _slot_bytes(p, 2 * n)
    high = _slot_high(p, n, nb)
    packed = [_packed_rows(op, nb) for op in family]
    for a in range(1 if cyclic else len(family)):
        for b in range(a + 1, len(family)):
            if not all(_vanishes(_combination(ra, packed[b]), rb, packed[a], high, p)
                       for ra, rb in zip(family[a].rows, family[b].rows)):
                raise NonCommuting(f"operators {a} and {b} do not commute")


def split_eigenspaces(ops: Sequence[FieldMatrix], bounds: Sequence[int],
                      others: Sequence[Sequence[FieldMatrix]] = ()) -> SplitResult:
    """Common eigenspace decomposition of a commuting family at bounded
    integer eigenvalues.

    Refines the whole space one operator at a time.  A refinement node
    holds its eigenvalue prefix, its dimension in each family, and each
    family's operators not yet split, as matrices in the node's own
    basis; the root holds the operators as given.  A root of an
    operator's characteristic polynomial gets a kernel, a multiplicity
    and a child node only when its `signed_lift` a has |a| <= that
    operator's entry of `bounds`: `distinct_roots` returns only those
    roots, and every other root is counted in `unsplit_dim`.  A bound of
    p // 2 keeps every root.  The child is one `eigen_step` from the
    node: the kernel of the node's first matrix minus the root, and the
    node's remaining matrices restricted to it, NotInvariant unless the
    kernel is stable under each (the node's subspace is, so this is the
    child subspace's stability too).  The last operator's children keep
    only their dimensions, and nothing is lifted back to the ambient
    space.
    Eigenvalue tuples come out in ascending lexicographic order of their
    field representatives, so the result is deterministic.

    `others` holds further families, each matching `ops` operator for
    operator on its own space, that are isomorphic to `ops` as modules
    over the family (such as the two halves of an involution commuting
    with it).  All families are refined in lockstep.  Each is checked
    to commute on every row, as packed commutator rows (NonCommuting
    otherwise; see `_check_commuting`): only its head's pairs when the
    head's Hessenberg form, from its characteristic polynomial, is
    unreduced, since every operator commuting with a nonderogatory head
    is a polynomial in it, and every pair otherwise.  At each
    refinement node every family's matrix gets its own characteristic
    polynomial (the root's are those the guard computed), and
    FamilyMismatch is raised unless they are equal; every family is
    guarded before the root's are compared.
    The roots of that one polynomial are found once, and each bounded
    root takes its kernel in every family.  Dimensions, multiplicities,
    `defective` and `unsplit_dim` are summed over the families, so the
    result counts exactly what splitting the direct sum of the families
    would.
    """
    families = [list(ops)] + [list(f) for f in others]
    if not ops:
        raise ValueError("need at least one operator")
    if any(len(family) != len(bounds) for family in families):
        raise ValueError("need one bound per operator")
    field = ops[0].field
    p = field.p
    root_polys = []
    for family in families:
        n = family[0].nrows
        for op in family:
            if op.nrows != n or op.ncols != n or op.field != field:
                raise ValueError("operators must share one square ambient space")
        f, cyclic = charpoly(family[0])
        _check_commuting(family, p, cyclic)
        root_polys.append(f)

    result = SplitResult(eigenspaces=[])
    current = [((), tuple(family[0].nrows for family in families), families)]
    for t, bound in enumerate(bounds):
        refined = []
        for prefix, dims, mats in current:
            polys = root_polys if t == 0 else [charpoly(m[0])[0] for m in mats]
            f = polys[0]
            if any(g != f for g in polys[1:]):
                raise FamilyMismatch(f"operator {t} has different characteristic "
                                     f"polynomials at eigenvalues {prefix}")
            covered = 0
            for lam in distinct_roots(f, p, bound):
                steps = [eigen_step(m, lam) for m in mats]
                geo = sum(ker.dim for ker, _ in steps)
                alg = root_multiplicity(f, lam, p) * len(families)
                covered += alg
                if geo < alg:
                    result.defective.append((prefix + (lam,), alg - geo))
                refined.append((prefix + (lam,), tuple(ker.dim for ker, _ in steps),
                                [rest for _, rest in steps]))
            result.unsplit_dim += sum(dims) - covered
        current = refined
    result.eigenspaces = [Eigenspace(values, dims) for values, dims, _ in sorted(
        current, key=lambda node: node[0])]
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
