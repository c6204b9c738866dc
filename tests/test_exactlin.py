import operator
import random
from fractions import Fraction

import pytest

from heckeledger import exactlin
from heckeledger.exactlin import (
    DEFAULT_PRIME,
    FieldContext,
    FieldMatrix,
    NoReconstruction,
    NonCommuting,
    NotInvariant,
    PrimeField,
    Subspace,
    charpoly,
    distinct_roots,
    echelonize,
    joint_kernel,
    next_field_prime,
    rank_and_kernel,
    rational_reconstruct,
    restrict_operator,
    split_eigenspaces,
)
from heckeledger.modsym import build_space, hecke_operator

F = PrimeField(DEFAULT_PRIME)
P = F.p


def dense(data):
    return FieldMatrix.from_dense(F, data)


def test_prime_field_rejects_composite_and_small():
    with pytest.raises(ValueError):
        PrimeField(2**61 - 3)
    with pytest.raises(ValueError):
        PrimeField(101)


def test_default_prime_is_prime_and_word_sized():
    assert DEFAULT_PRIME == 2**61 - 1
    PrimeField(DEFAULT_PRIME)  # does not raise
    ctx = FieldContext.default()
    assert ctx.primary.p != ctx.secondary.p
    assert ctx.secondary.p > 2**61


def test_next_field_prime():
    q = next_field_prime(DEFAULT_PRIME + 1)
    assert q > DEFAULT_PRIME
    PrimeField(q)


# -- rank and kernel --------------------------------------------------------


def test_rank_kernel_identity():
    rank, ker = rank_and_kernel(FieldMatrix.identity(F, 2))
    assert rank == 2
    assert ker.dim == 0


def test_rank_kernel_one_one():
    # [1, 1] has kernel spanned by (1, p-1)
    rank, ker = rank_and_kernel(dense([[1, 1]]))
    assert rank == 1
    assert ker.dim == 1
    assert ker.basis[0] == {0: 1, 1: P - 1}


def test_rank_kernel_empty_matrix():
    rank, ker = rank_and_kernel(FieldMatrix.zero(F, 0, 5))
    assert rank == 0
    assert ker.dim == 5


def test_rank_of_known_rank_product():
    # Rank oracle: a 50x80 product of full-rank 50x30 and 30x80 factors.
    rng = random.Random(7)
    while True:
        a = dense([[rng.randrange(P) for _ in range(30)] for _ in range(50)])
        b = dense([[rng.randrange(P) for _ in range(80)] for _ in range(30)])
        if echelonize(a).rank == 30 and echelonize(b).rank == 30:
            break
    m = a.matmul(b)
    rank, ker = rank_and_kernel(m)
    assert rank == 30
    assert ker.dim == 50
    for v in ker.basis:
        assert m.matvec(v) == {}


def test_kernel_vectors_annihilated_entrywise():
    rng = random.Random(21)
    m = FieldMatrix.zero(F, 12, 20)
    for _ in range(40):
        m.add_at(rng.randrange(12), rng.randrange(20), rng.randrange(P))
    rank, ker = rank_and_kernel(m)
    assert rank + ker.dim == 20
    for v in ker.basis:
        assert m.matvec(v) == {}


def test_rank_invariant_under_permutation():
    rng = random.Random(3)
    m = FieldMatrix.zero(F, 10, 14)
    for _ in range(35):
        m.add_at(rng.randrange(10), rng.randrange(14), rng.randrange(1, P))
    base_rank = echelonize(m).rank
    for _ in range(5):
        rows = list(range(10))
        cols = list(range(14))
        rng.shuffle(rows)
        rng.shuffle(cols)
        perm = FieldMatrix.zero(F, 10, 14)
        for i, j, v in m.iter_entries():
            perm.add_at(rows[i], cols[j], v)
        assert echelonize(perm).rank == base_rank


def test_canonical_subspace():
    rng = random.Random(5)
    vecs = [{j: rng.randrange(1, P) for j in rng.sample(range(12), 5)} for _ in range(4)]
    s = Subspace(12, vecs, F)
    assert s.dim == 4
    # Reduced echelon: leading entries 1, in increasing columns, alone
    # in their columns.
    leads = [min(v) for v in s.basis]
    assert leads == sorted(set(leads))
    for i, v in enumerate(s.basis):
        assert v[leads[i]] == 1
        assert all(leads[i] not in w for t, w in enumerate(s.basis) if t != i)
    # Any other basis of the same span gives the same canonical basis.
    mixed = [dict(v) for v in vecs]
    for j, v in vecs[1].items():
        mixed[0][j] = (mixed[0].get(j, 0) + 3 * v) % P
    mixed[0] = {j: v for j, v in mixed[0].items() if v}
    for _ in range(3):
        other = [{j: v * c % P for j, v in vec.items()}
                 for vec, c in zip(rng.sample(mixed, 4), (2, P - 1, 12345, 7))]
        assert Subspace(12, other, F) == s
    assert Subspace(12, [], F).dim == 0
    with pytest.raises(ValueError):
        Subspace(12, vecs + [mixed[0]], F)
    with pytest.raises(ValueError):
        Subspace(12, [vecs[0], {j: 5 * v % P for j, v in vecs[0].items()}], F)


# -- restriction ------------------------------------------------------------


def test_restrict_identity():
    s = Subspace(4, ({0: 1, 2: 3}, {1: 5}), F)
    r = restrict_operator(FieldMatrix.identity(F, 4), s)
    assert r == FieldMatrix.identity(F, 2)


def test_restrict_diagonal_to_eigenplane():
    op = dense([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    plane = Subspace(3, ({1: 1}, {2: 1}), F)
    r = restrict_operator(op, plane)
    assert r == FieldMatrix.identity(F, 2).scale(3)


def test_restrict_raises_not_invariant():
    op = dense([[0, 1], [1, 0]])
    line = Subspace(2, ({0: 1},), F)
    with pytest.raises(NotInvariant):
        restrict_operator(op, line)


# -- eigenspace splitting ---------------------------------------------------


def test_split_identity():
    res = split_eigenspaces([FieldMatrix.identity(F, 3)], [P // 2])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (1,)
    assert res.eigenspaces[0].space.dim == 3
    assert res.unsplit_dim == 0
    assert res.defective == []


def test_split_diag_1_2():
    res = split_eigenspaces([dense([[1, 0], [0, 2]])], [P // 2])
    assert [(e.values, e.space.dim) for e in res.eigenspaces] == [((1,), 1), ((2,), 1)]


def test_split_rejects_noncommuting():
    a = dense([[0, 1], [0, 0]])
    b = dense([[1, 0], [0, 2]])
    with pytest.raises(NonCommuting):
        split_eigenspaces([a, b], [P // 2] * 2)


def test_split_simultaneous_pair():
    # Block diag: eigenvalues (1,5) on a 2-dim block and (2,5), (3,7) lines.
    a = dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    b = dense([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    res = split_eigenspaces([a, b], [P // 2] * 2)
    got = [(e.values, e.space.dim) for e in res.eigenspaces]
    assert got == [((1, 5), 2), ((2, 5), 1), ((3, 7), 1)]
    for e in res.eigenspaces:
        for v in e.space.basis:
            for op, lam in zip((a, b), e.values):
                got_vec = op.matvec(v)
                want = {k: (lam * x) % P for k, x in v.items() if (lam * x) % P}
                assert got_vec == want


def test_joint_kernel_matches_split_and_respects_extra():
    a = dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    b = dense([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    for e in split_eigenspaces([a, b], [P // 2] * 2).eigenspaces:
        assert joint_kernel([a, b], e.values).basis == e.space.basis
    assert joint_kernel([a, b], (1, 7)).dim == 0
    # The extra row x0 = 0 cuts the (1, 5) plane down to a line.
    cut = dense([[1, 0, 0, 0]])
    assert joint_kernel([a, b], (1, 5), extra=[cut]).basis == ({1: 1},)


def test_split_reports_jordan_block_separately():
    m = dense([[2, 1], [0, 2]])
    res = split_eigenspaces([m], [P // 2])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (2,)
    assert res.eigenspaces[0].space.dim == 1
    assert res.defective == [((2,), 1)]


def test_split_counts_unsplit_quadratic_factor():
    # Rotation-like matrix: x^2 + 1 has no root mod p when p = 3 mod 4.
    assert P % 4 == 3
    m = dense([[0, P - 1], [1, 0]])
    res = split_eigenspaces([m], [P // 2])
    assert res.eigenspaces == []
    assert res.unsplit_dim == 2


def test_split_skips_roots_beyond_bound():
    # Signed lifts 1, 7 and -2: only 7 exceeds the bound 2.
    m = dense([[1, 0, 0], [0, 7, 0], [0, 0, P - 2]])
    res = split_eigenspaces([m], [2])
    assert [(e.values, e.space.dim) for e in res.eigenspaces] == [((1,), 1), ((P - 2,), 1)]
    assert res.unsplit_dim == 1
    assert res.defective == []


def test_split_dims_bounded_by_ambient():
    rng = random.Random(13)
    d = dense([[rng.randrange(5) for _ in range(4)] for _ in range(4)])
    sym = d.add_scaled(d.transpose(), 1)
    res = split_eigenspaces([sym], [P // 2])
    assert res.total_dim() + res.unsplit_dim + sum(x for _, x in res.defective) == 4


def test_multi_prime_pipeline_reconstructs_identically():
    # The same integer matrix reduced at two primes gives one rational answer.
    ctx = FieldContext.default()
    ints = [[3, 1, 0], [1, 3, 0], [0, 0, -2]]
    answers = []
    for fld in (ctx.primary, ctx.secondary):
        m = FieldMatrix.from_dense(fld, ints)
        res = split_eigenspaces([m], [fld.p // 2])
        vals = sorted(
            rational_reconstruct(e.values[0], 10**6, fld) for e in res.eigenspaces
        )
        answers.append(vals)
    assert answers[0] == answers[1] == [Fraction(-2), Fraction(2), Fraction(4)]


# -- characteristic polynomials and roots -----------------------------------


def test_charpoly_known():
    m = dense([[2, 1], [1, 2]])
    f = charpoly(m)
    # (x-1)(x-3) = 3 - 4x + x^2
    assert f == [3, (P - 4) % P, 1]


def test_charpoly_matches_trace_det_random():
    rng = random.Random(17)
    for _ in range(10):
        a, b, c, d = (rng.randrange(100) for _ in range(4))
        f = charpoly(dense([[a, b], [c, d]]))
        assert f[2] == 1
        assert f[1] == (-(a + d)) % P
        assert f[0] == (a * d - b * c) % P


def test_distinct_roots():
    # (x-2)(x-5)^2
    f = [(-50) % P, (45) % P, (-12) % P, 1]
    assert distinct_roots(f, P) == [2, 5]


def test_distinct_roots_linear_squarefree_part_needs_no_power(monkeypatch):
    # (x - 5)^3 has the squarefree part x - 5, whose root is read off.
    def no_power(*args):
        raise AssertionError("x^p was powered modulo a linear factor")

    monkeypatch.setattr(exactlin, "poly_powmod", no_power)
    assert distinct_roots([-125 % P, 75, -15 % P, 1], P) == [5]


def test_charpoly_cayley_hamilton():
    rng = random.Random(29)
    for n in (3, 4, 5):
        m = dense([[rng.randrange(50) for _ in range(n)] for _ in range(n)])
        f = charpoly(m)
        assert len(f) == n + 1 and f[-1] == 1
        acc = FieldMatrix.zero(F, n, n)
        power = FieldMatrix.identity(F, n)
        for c in f:
            acc = acc.add_scaled(power, c)
            power = power.matmul(m)
        assert acc.is_zero()


# -- packed kernels against schoolbook references ---------------------------
#
# The package multiplies matrices and polynomials through packed-integer
# (Kronecker) kernels whose slot width depends on p.  The references
# below are schoolbook: entry-by-entry matrix products, convolution one
# coefficient at a time, long division, and the Hessenberg routine that
# updates one entry at a time.  They run at the default prime, its
# partner and a prime above 2**89, whose elements do not fit in 64 bits.

KERNEL_PRIMES = (
    DEFAULT_PRIME,
    FieldContext.default().secondary.p,
    next_field_prime(2**89),
)


def ref_matmul(a, b):
    p = a.field.p
    rows = []
    for row in a.rows:
        acc = {}
        for j, v in row.items():
            for k, w in b.rows[j].items():
                acc[k] = acc.get(k, 0) + v * w
        rows.append({k: r for k, x in acc.items() if (r := x % p)})
    return rows


def ref_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def ref_poly_mul(f, g, p):
    """Schoolbook product: coefficient k is sum_i f[i] * g[k - i]."""
    if not f or not g:
        return []
    rg = g[::-1]
    out = []
    for k in range(len(f) + len(g) - 1):
        lo = max(0, k - len(g) + 1)
        out.append(sum(map(operator.mul, f[lo:k + 1], rg[len(g) - 1 - k + lo:])) % p)
    return ref_trim(out)


def ref_poly_rem(f, g, p):
    """Long division, leading term first, reducing mod p only the
    coefficient each step divides by."""
    f = list(f)
    n = len(g)
    inv = pow(g[-1], -1, p)
    for d in range(len(f) - n, -1, -1):
        c = f[d + n - 1] % p * inv % p
        f[d:d + n] = [a - c * b for a, b in zip(f[d:d + n], g)]
    return ref_trim([c % p for c in f[:n - 1]])


def ref_poly_powmod(base, e, mod, p):
    """Square-and-multiply from the top bit.  A product, of degree at
    most 2d - 2 for d = deg mod, is reduced through a table of
    x^i mod `mod` for d <= i <= 2d - 2, each row one long-division step
    from the row before."""
    d = len(mod) - 1
    table = [ref_poly_rem([0] * d + [1], mod, p)]
    while len(table) < d - 1:
        table.append(ref_poly_rem([0] + table[-1], mod, p))
    cols = [[row[j] if j < len(row) else 0 for row in table] for j in range(d)]

    def rem(a):
        if len(a) <= d:
            return ref_trim(a)
        hi = a[d:]
        return ref_trim([(a[j] + sum(map(operator.mul, hi, cols[j]))) % p for j in range(d)])

    base = ref_poly_rem(base, mod, p)
    result = [1]
    for bit in bin(e)[2:]:
        result = rem(ref_poly_mul(result, result, p))
        if bit == "1":
            result = rem(ref_poly_mul(result, base, p))
    return result


def ref_charpoly(m):
    """The per-entry Hessenberg reduction and expansion."""
    n, p = m.nrows, m.field.p
    if n == 0:
        return [1]
    h = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for i in range(n):
                h[i][col + 1], h[i][piv] = h[i][piv], h[i][col + 1]
        inv = pow(h[col + 1][col], -1, p)
        for i in range(col + 2, n):
            f = h[i][col] * inv % p
            if not f:
                continue
            for j in range(col, n):
                h[i][j] = (h[i][j] - f * h[col + 1][j]) % p
            for j in range(n):
                h[j][col + 1] = (h[j][col + 1] + f * h[j][i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        term = ref_poly_mul(polys[k - 1], [(-h[k - 1][k - 1]) % p, 1], p)
        run = 1
        for i in range(k - 2, -1, -1):
            run = run * h[i + 1][i] % p
            if not run:
                break
            c = h[i][k - 1] * run % p
            if c:
                sub = [x * c % p for x in polys[i]]
                sub += [0] * (len(term) - len(sub))
                term = ref_trim([(a - b) % p for a, b in zip(term, sub)])
        polys.append(term)
    return polys[n]


def random_matrix(fld, rng, nrows, ncols, density):
    return FieldMatrix.from_entries(
        fld, nrows, ncols,
        [(i, j, rng.randrange(fld.p)) for i in range(nrows) for j in range(ncols)
         if rng.random() < density],
    )


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_matmul_matches_reference(p):
    fld = PrimeField(p)
    rng = random.Random(p % 1000)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1),
              (4, 7, 3), (7, 4, 9), (12, 12, 12), (30, 25, 40)]
    for density in (0.0, 0.1, 0.5, 1.0):
        for n, m, k in shapes:
            a = random_matrix(fld, rng, n, m, density)
            b = random_matrix(fld, rng, m, k, density)
            if n:
                a.rows[0] = {}  # an empty row among full ones
            got = a.matmul(b)
            assert (got.nrows, got.ncols) == (n, k)
            assert got.rows == ref_matmul(a, b)
    # The largest possible entries, in every slot of a long full row.
    top = FieldMatrix.from_dense(fld, [[p - 1] * 50 for _ in range(50)])
    assert top.matmul(top).rows == ref_matmul(top, top)
    with pytest.raises(ValueError):
        top.matmul(FieldMatrix.zero(fld, 49, 2))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_poly_powmod_matches_reference(p):
    rng = random.Random(p % 991)
    for degree in (1, 2, 30, 120):
        mod = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        x, x_plus_t = [0, 1], [rng.randrange(p), 1]
        long_base = [rng.randrange(p) for _ in range(degree + 3)]
        cases = [(base, e) for base in (x, x_plus_t, long_base) for e in (0, 1, 2)]
        # The root finder's calls: x^p and (x + t)^((p-1)/2).  A long
        # base at the large exponents too, except at degree 120 where
        # the reference takes seconds.
        cases += [(x, p), (x_plus_t, (p - 1) // 2)]
        if degree < 120:
            cases += [(long_base, p), (long_base, (p - 1) // 2)]
        for base, e in cases:
            got = exactlin.poly_powmod(base, e, mod, p)
            assert got == ref_poly_powmod(base, e, mod, p), (degree, base, e)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_poly_powmod_slot_boundaries(p):
    # The slot width grows with bitlen(d), which changes between each
    # pair of degrees; a modulus of all p - 1 gives the largest residues.
    for degree in (3, 4, 7, 8, 15, 16, 31, 32):
        for top in (1, p - 1):
            mod = [p - 1] * degree + [top]
            for base, e in (([0, 1], p), ([p - 1, 1], (p - 1) // 2)):
                got = exactlin.poly_powmod(base, e, mod, p)
                assert got == ref_poly_powmod(base, e, mod, p), (degree, top, e)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_distinct_roots_matches_construction(p):
    # f = c * prod (x - r)^m * prod (x^2 - n) with every n a non-residue,
    # so the roots are exactly the r, whatever their multiplicities.
    rng = random.Random(p % 977)
    nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    for trial in range(12):
        roots = {rng.randrange(-5, 6) for _ in range(rng.randrange(4))}
        roots |= {rng.randrange(p) for _ in range(rng.randrange(4))}
        f = [rng.randrange(2, p)]
        for r in roots:
            for _ in range(rng.randrange(1, 5)):
                f = ref_poly_mul(f, [-r % p, 1], p)
        for _ in range(rng.randrange(3)):
            n = nonresidue * rng.randrange(1, p) ** 2 % p
            f = ref_poly_mul(f, [-n % p, 0, 1], p)
        if trial % 3 == 0:
            f = [c + p for c in f]  # unreduced coefficients
        assert distinct_roots(f, p) == sorted({r % p for r in roots}), (trial, roots)
    assert distinct_roots([p + 7], p) == []
    assert distinct_roots([], p) == []
    # x^4 - 1 has all four roots mod 5; the squarefree step needs q > deg f.
    assert distinct_roots([-1, 0, 0, 0, 1], 5) == [1, 2, 3, 4]
    for q, f in ((5, [0, -1, 0, 0, 0, 1]), (3, [0, 1, 0, 1]), (2, [1, 1, 1])):
        with pytest.raises(ValueError):
            distinct_roots(f, q)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_poly_divmod_and_gcd_normalize_inputs(p):
    # A zero or unreduced dividend below the divisor's degree comes back
    # reduced and trimmed; a divisor with a zero leading entry is trimmed
    # before its leading coefficient is inverted.
    assert exactlin.poly_divmod([0], [0, 1], p) == ([], [])
    assert exactlin.poly_divmod([p + 5], [0, 1], p) == ([], [5])
    assert exactlin.poly_divmod([1, 2, 3], [1, 0], p) == ([1, 2, 3], [])
    assert exactlin.poly_gcd([0, 1], [0], p) == [0, 1]
    with pytest.raises(ZeroDivisionError):
        exactlin.poly_divmod([1, 2], [0, p], p)
    f, g = [p + 1, -3, 2 * p + 4, 7], [-1, 2, p]
    q, r = exactlin.poly_divmod(f, g, p)  # g trims to degree 1
    assert len(r) <= 1
    qg_plus_r = [(x + (r[i] if i < len(r) else 0)) % p for i, x in enumerate(ref_poly_mul(q, g, p))]
    assert ref_trim(qg_plus_r) == ref_trim([a % p for a in f])


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_charpoly_matches_reference(p):
    fld = PrimeField(p)
    rng = random.Random(p % 983)
    mats = [FieldMatrix.zero(fld, 0, 0), FieldMatrix.zero(fld, 5, 5),
            FieldMatrix.identity(fld, 6),
            FieldMatrix.from_dense(fld, [[p - 1] * 30 for _ in range(30)])]
    for n in (1, 2, 3, 8, 25, 40):
        for density in (0.15, 0.5, 1.0):
            mats.append(random_matrix(fld, rng, n, n, density))
    # Zero first column below the diagonal, then a pivot two rows down:
    # the reduction must skip a column and swap.
    mats.append(FieldMatrix.from_dense(
        fld, [[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 1, 0, 2]]))
    mats.append(FieldMatrix.from_dense(
        fld, [[1, 2, 3, 4], [5, 0, 6, 7], [0, 0, 8, 9], [0, 1, 0, 2]]))
    for m in mats:
        assert charpoly(m) == ref_charpoly(m)


# -- reduced echelon form against textbook Gauss-Jordan ----------------------


def ref_rref(rows, ncols, p):
    """(pivot columns, reduced rows) by Gauss-Jordan on dense lists."""
    a = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return pivots, a


def ref_dense_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def commuting_stack(fld, rng, n):
    """[A - lam I; B - mu I] for A = S D S^-1, B = S E S^-1 with diagonal
    D, E: rank n - 2, since D = lam and E = mu together at two places."""
    p = fld.p
    nil = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [[(x + y) % p for x, y in zip(r, e)] for r, e in zip(nil, eye)]
    s_inv, power = eye, eye
    for _ in range(n - 1):  # (I + N)^-1 = sum of (-N)^k, N nilpotent
        power = ref_dense_mul(power, [[-x % p for x in r] for r in nil], p)
        s_inv = [[(x + y) % p for x, y in zip(r, t)] for r, t in zip(s_inv, power)]
    lam, mu = 3, p - 4
    d = [lam, lam, lam, 2, 5, 7, 11, 13][:n]
    e = [mu, mu, 9, mu, mu, 6, 8, 10][:n]
    rows = []
    for diag, shift in ((d, lam), (e, mu)):
        a = ref_dense_mul(ref_dense_mul(s, [[x * diag[j] for j, x in enumerate(r)] for r in eye], p),
                          s_inv, p)
        rows += [[(x - shift * (i == j)) % p for j, x in enumerate(r)] for i, r in enumerate(a)]
    return FieldMatrix.from_dense(fld, rows)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_echelonize_matches_reference(p):
    fld = PrimeField(p)
    rng = random.Random(p % 991)
    cases = []
    for density in (0.0, 0.1, 0.5, 1.0):
        for nrows, ncols in ((0, 5), (5, 0), (1, 1), (6, 20), (25, 8)):
            cases.append(random_matrix(fld, rng, nrows, ncols, density))
        # tall, every row repeated several times
        base = random_matrix(fld, rng, 5, 9, density)
        cases.append(FieldMatrix(fld, 20, 9, [dict(base.rows[rng.randrange(5)]) for _ in range(20)]))
    stack = commuting_stack(fld, rng, 8)
    cases.append(stack)
    for m in cases:
        before = [dict(r) for r in m.rows]
        ech = echelonize(m)
        pivots, ref = ref_rref([[r.get(j, 0) for j in range(m.ncols)] for r in m.rows], m.ncols, p)
        assert ech.pivots == pivots
        assert (ech.matrix.nrows, ech.matrix.ncols) == (m.nrows, m.ncols)
        # pivot rows by column, then zero rows
        assert ech.matrix.rows == [{j: v for j, v in enumerate(r) if v} for r in ref]
        assert m.rows == before
    assert echelonize(stack).rank == 6


# -- restriction against the echelon of [B | op B] ---------------------------


def ref_restrict(op, s):
    """op in the basis of s by Gauss-Jordan on [B | op B], B the basis as
    columns: every image lies in the span exactly when no pivot falls in
    the right block, and the right block of the pivot rows is the answer."""
    p, n, d = op.field.p, op.nrows, s.dim
    b = [[vec.get(i, 0) for vec in s.basis] for i in range(n)]
    images = [[sum(op.entry(i, j) * b[j][t] for j in op.rows[i]) % p for t in range(d)]
              for i in range(n)]
    pivots, rref = ref_rref([x + y for x, y in zip(b, images)], 2 * d, p)
    if any(c >= d for c in pivots):
        raise NotInvariant("image leaves the span")
    return [{j: v for j, v in enumerate(rref[r][d:]) if v} for r in range(d)]


def invariant_pair(fld, rng, n, d):
    """A random d-dimensional subspace W of F^n, as independent rows, and a
    random operator mapping W into itself: sum_t w_t l_t + sum_s y_s k_s
    with random l_t, y_s and the k_s a basis of the annihilator of W."""
    p = fld.p
    while True:
        basis = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)]
                 for _ in range(d)]
        pivots, rref = ref_rref(basis, n, p)
        if len(pivots) == d:
            break
    free = [j for j in range(n) if j not in pivots]
    annihilator = []
    for f in free:
        k = [0] * n
        k[f] = 1
        for r, c in enumerate(pivots):
            k[c] = -rref[r][f] % p
        annihilator.append(k)
    left = basis + [[rng.randrange(p) for _ in range(n)] for _ in annihilator]
    right = [[rng.randrange(p) for _ in range(n)] for _ in basis] + annihilator
    op = [[sum(left[t][i] * right[t][j] for t in range(n)) % p for j in range(n)]
          for i in range(n)]
    return [{j: v for j, v in enumerate(row) if v} for row in basis], op


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_restrict_matches_reference(p):
    fld = PrimeField(p)
    rng = random.Random(p % 997)
    checked = 0
    # T_l on the cuspidal subspace and on the eigenspaces of the split.
    for level, k in ((11, 1), (23, 1), (37, 1), (35, 1), (67, 1), (13, 3), (17, 3), (1, 11),
                     (7, 5)):
        space = build_space(level, k, field=fld)
        primes = [l for l in (2, 3, 5, 7) if level % l][:2]
        ops = [hecke_operator(space, l) for l in primes]
        cusp = space.cuspidal_subspace
        restricted = []
        for op in ops:
            got = restrict_operator(op, cusp)
            assert got.rows == ref_restrict(op, cusp), (level, k)
            restricted.append(got)
        for e in split_eigenspaces(restricted, [p // 2] * len(restricted)).eigenspaces:
            for op in restricted:
                assert restrict_operator(op, e.space).rows == ref_restrict(op, e.space)
                checked += 1
    assert checked >= 30
    # Random invariant subspaces, from a point to the whole space.
    for n, d in ((1, 1), (5, 0), (5, 2), (8, 3), (12, 7), (9, 9)):
        vectors, dense_op = invariant_pair(fld, rng, n, d)
        s = Subspace(n, vectors, fld)
        op = FieldMatrix.from_dense(fld, dense_op)
        got = restrict_operator(op, s)
        assert (got.nrows, got.ncols) == (d, d)
        assert got.rows == ref_restrict(op, s), (n, d)
        # A change to one non-pivot row of op that moves some basis vector
        # off the span: the pivot coordinates, and so the restricted
        # matrix, are untouched, and only the check of the non-pivot
        # rows can see it.
        pivots = [min(v) for v in s.basis]
        rest = [i for i in range(n) if i not in pivots]
        if d and rest:
            i = rng.choice(rest)
            j = min(s.basis[0])
            bad = FieldMatrix.from_dense(fld, dense_op)
            bad.add_at(i, j, 1)
            assert [bad.rows[c] for c in pivots] == [op.rows[c] for c in pivots]
            with pytest.raises(NotInvariant):
                ref_restrict(bad, s)
            with pytest.raises(NotInvariant):
                restrict_operator(bad, s)


# -- rational reconstruction ------------------------------------------------


def test_reconstruct_small_integer():
    assert rational_reconstruct(5, 10, F) == Fraction(5)


def test_reconstruct_negative():
    assert rational_reconstruct(P - 2, 10, F) == Fraction(-2)


def test_reconstruct_third():
    x = pow(3, -1, P)
    frac = rational_reconstruct(x, 10, F)
    assert frac == Fraction(1, 3)
    assert (3 * x) % P == 1


def test_reconstruct_failure():
    # A "random" residue has no tiny rational lift.
    with pytest.raises(NoReconstruction):
        rational_reconstruct(123456789123456789, 10, F)


def test_reconstruct_roundtrip_random():
    rng = random.Random(23)
    for _ in range(200):
        num = rng.randrange(-1000, 1001)
        den = rng.randrange(1, 1000)
        fr = Fraction(num, den)
        x = fr.numerator % P * pow(fr.denominator, -1, P) % P
        assert rational_reconstruct(x, 1000, F) == fr
