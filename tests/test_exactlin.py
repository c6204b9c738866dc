import math
import operator
import random
from fractions import Fraction

import pytest

from heckeledger import exactlin, modsym
from heckeledger.exactlin import (
    DEFAULT_PRIME,
    FamilyMismatch,
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
    eigen_step,
    next_field_prime,
    rank_and_kernel,
    rational_reconstruct,
    reduced_echelon,
    restrict_operator,
    split_eigenspaces,
)
from heckeledger.modsym import build_space, hecke_operator
from heckeledger.modsym import echelonize as echelonize_z

from conftest import span
from oracles import primes_upto

F = PrimeField(DEFAULT_PRIME)
P = F.p


def from_dense(fld, data):
    """The matrix whose rows are the integer lists in data."""
    entries = [(i, j, v) for i, row in enumerate(data) for j, v in enumerate(row)]
    return FieldMatrix.from_entries(fld, len(data), len(data[0]) if data else 0, entries)


def dense(data):
    return from_dense(F, data)


def matvec(m, vec):
    """m times the sparse vector vec, as a sparse vector."""
    out = {i: sum(v * vec.get(j, 0) for j, v in row.items()) % m.field.p
           for i, row in enumerate(m.rows)}
    return {i: v for i, v in out.items() if v}


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


# psi_t, the least strong pseudoprime to every one of the first t prime
# bases (OEIS A014233), t = 1..12, with its factors.
STRONG_PSEUDOPRIMES = [
    (2047, [23, 89]),
    (1373653, [829, 1657]),
    (25326001, [2251, 11251]),
    (3215031751, [151, 751, 28351]),
    (2152302898747, [6763, 10627, 29947]),
    (3474749660383, [1303, 16927, 157543]),
    (341550071728321, [10670053, 32010157]),  # psi_7 = psi_8
    (341550071728321, [10670053, 32010157]),
    (3825123056546413051, [149491, 747451, 34233211]),  # psi_9 = psi_10 = psi_11
    (3825123056546413051, [149491, 747451, 34233211]),
    (3825123056546413051, [149491, 747451, 34233211]),
    (318665857834031151167461, [399165290221, 798330580441]),
]


@pytest.mark.parametrize("t", range(1, 13))
def test_is_prime_rejects_every_psi(t):
    n, factors = STRONG_PSEUDOPRIMES[t - 1]
    assert math.prod(factors) == n
    assert not exactlin._is_prime(n)


def test_is_prime_matches_sieve_below_1e5():
    # Below psi_1 = 2047 one base decides, below psi_2 two do; the trial
    # division of primes_upto shares no code with Miller-Rabin.
    assert [n for n in range(10**5) if exactlin._is_prime(n)] == primes_upto(10**5 - 1)


def test_is_prime_accepts_primes():
    for q in (DEFAULT_PRIME, 2**89 - 1, FieldContext.default().secondary.p, 399165290221):
        assert exactlin._is_prime(q)


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
    rank, ker = rank_and_kernel(FieldMatrix(F, 0, 5))
    assert rank == 0
    assert ker.dim == 5


def test_rank_of_known_rank_product():
    # Rank oracle: a 50x80 product of full-rank 50x30 and 30x80 factors.
    rng = random.Random(7)
    while True:
        a = dense([[rng.randrange(P) for _ in range(30)] for _ in range(50)])
        b = dense([[rng.randrange(P) for _ in range(80)] for _ in range(30)])
        if len(reduced_echelon(a)[0]) == 30 and len(reduced_echelon(b)[0]) == 30:
            break
    m = a.matmul(b)
    rank, ker = rank_and_kernel(m)
    assert rank == 30
    assert ker.dim == 50
    for v in ker.basis:
        assert matvec(m, v) == {}


def test_kernel_vectors_annihilated_entrywise():
    rng = random.Random(21)
    m = FieldMatrix(F, 12, 20)
    for _ in range(40):
        m.add_at(rng.randrange(12), rng.randrange(20), rng.randrange(P))
    rank, ker = rank_and_kernel(m)
    assert rank + ker.dim == 20
    for v in ker.basis:
        assert matvec(m, v) == {}


def test_rank_invariant_under_permutation():
    rng = random.Random(3)
    m = FieldMatrix(F, 10, 14)
    for _ in range(35):
        m.add_at(rng.randrange(10), rng.randrange(14), rng.randrange(1, P))
    base_rank = len(reduced_echelon(m)[0])
    for _ in range(5):
        rows = list(range(10))
        cols = list(range(14))
        rng.shuffle(rows)
        rng.shuffle(cols)
        perm = FieldMatrix(F, 10, 14)
        for i, row in enumerate(m.rows):
            for j, v in row.items():
                perm.add_at(rows[i], cols[j], v)
        assert len(reduced_echelon(perm)[0]) == base_rank


def test_canonical_subspace(monkeypatch):
    rng = random.Random(5)
    vecs = [{j: rng.randrange(1, P) for j in rng.sample(range(12), 5)} for _ in range(4)]
    s = span(12, vecs, F)
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
        assert span(12, other, F) == s
    with pytest.raises(ValueError):
        span(12, vecs + [mixed[0]], F)
    with pytest.raises(ValueError):
        span(12, [vecs[0], {j: 5 * v % P for j, v in vecs[0].items()}], F)
    # The constructor keeps the reduced basis as given and rejects the
    # raw vectors, independent or not, without an echelon.
    calls = []
    monkeypatch.setattr(exactlin, "echelonize", lambda m: calls.append(m))
    assert Subspace(12, list(s.basis), F) == s
    assert Subspace(12, [], F).dim == 0
    for vectors in (vecs, vecs + [mixed[0]], list(s.basis) + [s.basis[0]]):
        with pytest.raises(ValueError):
            Subspace(12, vectors, F)
    assert calls == []


def test_subspace_keeps_a_reduced_basis_without_echelon(monkeypatch):
    # A basis that passes the O(nnz) check is kept as it is; any input
    # that fails it raises ValueError.  Neither runs an echelon.
    reduced = [{0: 1, 2: 5, 4: P - 1}, {1: 1, 2: 7}, {3: 1, 4: 2}]
    calls = []
    monkeypatch.setattr(exactlin, "echelonize", lambda m: calls.append(m))
    assert Subspace(6, reduced, F).basis == tuple(reduced)
    assert Subspace(6, [], F).dim == 0
    assert Subspace(6, [{5: 1}], F).basis == ({5: 1},)
    near_misses = [
        [{0: 2, 2: 5}, {1: 1}],            # lead entry not 1
        [{1: 1}, {0: 1}],                  # leads not ascending
        [{0: 1, 1: 3}, {1: 1}],            # nonzero at another vector's lead
        [{0: 1, 2: P}, {1: 1}],            # entry not reduced
        [{0: 1, 2: 0}, {1: 1}],            # stored zero
        [{0: 1}, {0: 1, 1: 1}],            # repeated lead
        [{0: 1}, {}],                      # dependent: a zero vector
        [{0: 1, 1: 2}, {0: 2, 1: 4}],      # dependent: proportional
        [{0: 1, 6: 1}],                    # index out of range
    ]
    for vectors in near_misses:
        with pytest.raises(ValueError):
            Subspace(6, vectors, F)
    assert calls == []


# -- restriction ------------------------------------------------------------


def test_restrict_identity():
    s = span(4, ({0: 1, 2: 3}, {1: 5}), F)
    (r,) = restrict_operator([FieldMatrix.identity(F, 4)], s)
    assert r == FieldMatrix.identity(F, 2)


def test_restrict_diagonal_to_eigenplane():
    op = dense([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    plane = Subspace(3, ({1: 1}, {2: 1}), F)
    (r,) = restrict_operator([op], plane)
    assert r == dense([[3, 0], [0, 3]])


def test_restrict_raises_not_invariant():
    op = dense([[0, 1], [1, 0]])
    line = Subspace(2, ({0: 1},), F)
    with pytest.raises(NotInvariant):
        restrict_operator([op], line)


def test_restrict_packs_the_basis_once(monkeypatch):
    # Several operators restricted to one subspace share one packing of
    # its basis, and each comes out as it would alone.
    space = build_space(37, 3)
    ops = [hecke_operator(space, l) for l in (2, 3, 5)]
    cusp = space.presentation.cuspidal_subspace
    packed = []
    packed_rows = exactlin._packed_rows

    def counted(m, nb):
        packed.append(m.nrows)
        return packed_rows(m, nb)

    monkeypatch.setattr(exactlin, "_packed_rows", counted)
    together = restrict_operator(ops, cusp)
    assert packed == [space.dim]
    assert together == [restrict_operator([op], cusp)[0] for op in ops]
    assert restrict_operator([], cusp) == []


# -- eigenspace splitting ---------------------------------------------------


def test_split_identity():
    res = split_eigenspaces([FieldMatrix.identity(F, 3)], [P // 2])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (1,)
    assert res.eigenspaces[0].dim == 3
    assert res.unsplit_dim == 0
    assert res.defective == []


def test_split_diag_1_2():
    res = split_eigenspaces([dense([[1, 0], [0, 2]])], [P // 2])
    assert [(e.values, e.dim) for e in res.eigenspaces] == [((1,), 1), ((2,), 1)]


def test_split_rejects_noncommuting():
    a = dense([[0, 1], [0, 0]])
    b = dense([[1, 0], [0, 2]])
    with pytest.raises(NonCommuting):
        split_eigenspaces([a, b], [P // 2] * 2)


def commutes_but_last_row(p):
    """(A, B, B') at n = 8 with entries at p - 1: B = A^2 commutes with A,
    and B' = B + e_7 e_0^T does not.  Column 7 of A is (p - 1) e_7, so
    AB' - B'A = (p - 1) e_7 e_0^T - e_7 (row 0 of A) is zero except in
    its last row: only the last row's check can see it."""
    n = 8
    a = [[p - 1] * (n - 1) + [0] for _ in range(n)]
    a[n - 1][n - 1] = p - 1
    b = ref_dense_mul(a, a, p)
    bad = [list(r) for r in b]
    bad[n - 1][0] = (bad[n - 1][0] + 1) % p
    fld = PrimeField(p)
    return from_dense(fld, a), from_dense(fld, b), from_dense(fld, bad)


@pytest.mark.parametrize("p", (P, next_field_prime(2**89)))
def test_split_checks_every_commutator_row(p):
    a, b, bad = commutes_but_last_row(p)
    bounds = [p // 2] * 2
    split_eigenspaces([a, b], bounds, [[a, b]])
    with pytest.raises(NonCommuting):
        split_eigenspaces([a, bad], bounds)
    with pytest.raises(NonCommuting):
        split_eigenspaces([a, b], bounds, [[a, bad]])


def test_split_simultaneous_pair():
    # Block diag: eigenvalues (1,5) on a 2-dim block and (2,5), (3,7) lines.
    a = dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    b = dense([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    res = split_eigenspaces([a, b], [P // 2] * 2)
    got = [(e.values, e.dims) for e in res.eigenspaces]
    assert got == [((1, 5), (2,)), ((2, 5), (1,)), ((3, 7), (1,))]
    for e in res.eigenspaces:
        for v in ref_joint_kernel([a, b], e.values):
            for op, lam in zip((a, b), e.values):
                got_vec = matvec(op, v)
                want = {k: (lam * x) % P for k, x in v.items() if (lam * x) % P}
                assert got_vec == want


def test_joint_kernel_matches_split():
    # Each eigenspace of the split, reached again by eigen_step down its
    # values, has the split's dimension; (1, 7) empties at the second step.
    a = dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    b = dense([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    split = split_eigenspaces([a, b], [P // 2] * 2).eigenspaces
    assert [(e.values, e.dims) for e in split] == [
        (e.values, (len(descend([a, b], e.values)[0]),)) for e in split]
    assert descend([a, b], (1, 7))[1] == [2, 0]


def test_eigen_step_raises_when_the_kernel_is_not_stable():
    # ker(A - 1) = <e0, e1>, and B e0 = e2 leaves it (A and B do not
    # commute); ker(A - 2) = <e2> is B-stable, as B e2 = 0.
    a = dense([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    b = dense([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(NotInvariant):
        eigen_step([a, b], 1)
    kernel, rest = eigen_step([a, b], 2)
    assert list(kernel.basis) == [{2: 1}]
    assert rest == [FieldMatrix(F, 1, 1)]


def test_split_reports_jordan_block_separately():
    m = dense([[2, 1], [0, 2]])
    res = split_eigenspaces([m], [P // 2])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (2,)
    assert res.eigenspaces[0].dim == 1
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
    assert [(e.values, e.dim) for e in res.eigenspaces] == [((1,), 1), ((P - 2,), 1)]
    assert res.unsplit_dim == 1
    assert res.defective == []


def test_split_dims_bounded_by_ambient():
    rng = random.Random(13)
    d = dense([[rng.randrange(5) for _ in range(4)] for _ in range(4)])
    sym = d.add_scaled(d.transpose(), 1)
    res = split_eigenspaces([sym], [P // 2])
    assert sum(e.dim for e in res.eigenspaces) + res.unsplit_dim + sum(x for _, x in res.defective) == 4


def block_diag(a, b):
    """The block-diagonal matrix diag(a, b)."""
    rows = [dict(r) for r in a.rows] + [{a.ncols + j: v for j, v in r.items()} for r in b.rows]
    return FieldMatrix(a.field, a.nrows + b.nrows, a.ncols + b.ncols, rows)


def lockstep_family(seven=7):
    """A commuting pair on a 7-dimensional space whose split has every
    kind of count: a Jordan block at 2 (defective), x^2 + 1 (no root,
    P = 3 mod 4), and the lines 1, `seven` and -2, where 7 exceeds the
    first bound 2."""
    a = dense([[2, 1, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0], [0, 0, 0, P - 1, 0, 0, 0],
               [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, seven, 0],
               [0, 0, 0, 0, 0, 0, P - 2]])
    return [a, a.matmul(a)], [2, P // 2]


def test_split_lockstep_matches_block_diagonal():
    ops, bounds = lockstep_family()
    others = conjugates(ops, 5)
    lockstep = split_eigenspaces(ops, bounds, [others])
    whole = split_eigenspaces([block_diag(a, b) for a, b in zip(ops, others)], bounds)
    got = [(e.values, e.dim) for e in lockstep.eigenspaces]
    assert got == [(e.values, e.dim) for e in whole.eigenspaces]
    assert got == [((1, 1), 2), ((2, 4), 2), ((P - 2, 4), 2)]
    assert lockstep.defective == whole.defective == [((2,), 2)]
    assert lockstep.unsplit_dim == whole.unsplit_dim == 6
    for e in lockstep.eigenspaces:
        assert e.dims == (1, 1)
        for family in (ops, others):
            space = ref_joint_kernel(family, e.values)
            assert len(space) == 1
            for op, lam in zip(family, e.values):
                for v in space:
                    assert matvec(op, v) == {k: lam * x % P for k, x in v.items()}


def test_split_lockstep_rejects_mismatched_family():
    ops, bounds = lockstep_family()
    # The first operator's charpoly differs (7 -> 8): caught at the root.
    with pytest.raises(FamilyMismatch):
        split_eigenspaces(ops, bounds, [conjugates(lockstep_family(seven=8)[0], 7)])
    # The second operator's charpoly agrees on the whole space but not on
    # the eigenlines of 1 and -2, where its values are swapped.
    swapped = ops[0].matmul(ops[0])
    swapped.rows[4], swapped.rows[6] = {4: 4}, {6: 1}
    with pytest.raises(FamilyMismatch):
        split_eigenspaces(ops, bounds, [conjugates([ops[0], swapped], 7)])
    shift = dense([[int(j == i + 1) for j in range(7)] for i in range(7)])
    with pytest.raises(NonCommuting):
        split_eigenspaces(ops, bounds, [[conjugates(ops, 7)[0], shift]])


def census_families(level, k, primes):
    """(plus, Deligne bounds, minus): each sign quotient's T_l on its
    cuspidal subspace, as the census splits them."""
    space = build_space(level, k)
    plus, minus = (restrict_operator([q.hecke_matrix(l) for l in primes],
                                     q.presentation.cuspidal_subspace)
                   for q in (space.sign_quotient(1), space.sign_quotient(-1)))
    return plus, [math.isqrt(4 * l ** k) for l in primes], minus


@pytest.mark.parametrize("case", [None, (37, 1), (67, 1), (89, 1), (13, 3), (53, 3), (89, 3)],
                         ids=lambda case: "lockstep" if case is None else f"{case[0]}-{case[1]}")
def test_split_dims_match_stacked_kernels(case):
    # Each family's dimension of each eigenspace is that of its joint
    # eigenspace in the whole space, found by one stacked Gauss-Jordan.
    if case is None:
        ops, bounds = lockstep_family()
        others = conjugates(ops, 5)
    else:
        ops, bounds, others = census_families(*case, [2, 3])
    res = split_eigenspaces(ops, bounds, [others])
    assert res.eigenspaces
    for e in res.eigenspaces:
        assert e.dims == tuple(len(ref_joint_kernel(family, e.values)) for family in (ops, others))
        assert e.dim == sum(e.dims)


def test_split_multiplies_no_matrices(monkeypatch):
    # Two levels of lockstep refinement: each node works in its own
    # basis, so no product lifts a kernel back to the ambient space.
    ops, bounds = lockstep_family()
    others = conjugates(ops, 5)
    calls = []
    matmul = FieldMatrix.matmul

    def counted(self, other):
        calls.append((self.nrows, other.ncols))
        return matmul(self, other)

    monkeypatch.setattr(FieldMatrix, "matmul", counted)
    res = split_eigenspaces(ops, bounds, [others])
    assert calls == []
    assert [(e.values, e.dim) for e in res.eigenspaces] == [((1, 1), 2), ((2, 4), 2),
                                                            ((P - 2, 4), 2)]


def test_multi_prime_pipeline_reconstructs_identically():
    # The same integer matrix reduced at two primes gives one rational answer.
    ctx = FieldContext.default()
    ints = [[3, 1, 0], [1, 3, 0], [0, 0, -2]]
    answers = []
    for fld in (ctx.primary, ctx.secondary):
        m = from_dense(fld, ints)
        res = split_eigenspaces([m], [fld.p // 2])
        vals = sorted(
            rational_reconstruct(e.values[0], 10**6, fld) for e in res.eigenspaces
        )
        answers.append(vals)
    assert answers[0] == answers[1] == [Fraction(-2), Fraction(2), Fraction(4)]


# -- characteristic polynomials and roots -----------------------------------


def test_charpoly_known():
    m = dense([[2, 1], [1, 2]])
    f, _ = charpoly(m)
    # (x-1)(x-3) = 3 - 4x + x^2
    assert f == [3, (P - 4) % P, 1]


def test_charpoly_matches_trace_det_random():
    rng = random.Random(17)
    for _ in range(10):
        a, b, c, d = (rng.randrange(100) for _ in range(4))
        f, _ = charpoly(dense([[a, b], [c, d]]))
        assert f[2] == 1
        assert f[1] == (-(a + d)) % P
        assert f[0] == (a * d - b * c) % P


def test_distinct_roots():
    # (x-2)(x-5)^2
    f = [(-50) % P, (45) % P, (-12) % P, 1]
    assert distinct_roots(f, P, P // 2) == [2, 5]


def test_distinct_roots_linear_squarefree_part_needs_no_power(monkeypatch):
    # (x - 5)^3 has the squarefree part x - 5, whose root is read off.
    def no_power(*args):
        raise AssertionError("x^p was powered modulo a linear factor")

    monkeypatch.setattr(exactlin, "poly_powmod", no_power)
    assert distinct_roots([-125 % P, 75, -15 % P, 1], P, P // 2) == [5]


def test_charpoly_cayley_hamilton():
    rng = random.Random(29)
    for n in (3, 4, 5):
        m = dense([[rng.randrange(50) for _ in range(n)] for _ in range(n)])
        f, _ = charpoly(m)
        assert len(f) == n + 1 and f[-1] == 1
        acc = FieldMatrix(F, n, n)
        power = FieldMatrix.identity(F, n)
        for c in f:
            acc = acc.add_scaled(power, c)
            power = power.matmul(m)
        assert not any(acc.rows)


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
    h = [[m.rows[i].get(j, 0) for j in range(n)] for i in range(n)]
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
    top = from_dense(fld, [[p - 1] * 50 for _ in range(50)])
    assert top.matmul(top).rows == ref_matmul(top, top)
    with pytest.raises(ValueError):
        top.matmul(FieldMatrix(fld, 49, 2))


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


# A prime above the floor with 2**41 dividing p - 1, where a square root
# runs the whole Tonelli-Shanks loop; at both working primes, which are
# 3 mod 4, it is a single power.
TWO_ADIC_PRIME = 1048578 * 2**40 + 1
ROOT_PRIMES = KERNEL_PRIMES + (TWO_ADIC_PRIME,)


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_distinct_roots_quadratic_needs_no_power(p, monkeypatch):
    # A squarefree part of degree 2 is solved from its discriminant.
    def no_power(*args):
        raise AssertionError("x^p was powered modulo a quadratic")

    monkeypatch.setattr(exactlin, "poly_powmod", no_power)
    rng = random.Random(p % 971)
    nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    for _ in range(25):
        r, s, c = rng.randrange(p), rng.randrange(p), rng.randrange(1, p)
        lin_r, lin_s = [-r % p, 1], [-s % p, 1]
        f = ref_poly_mul([c], ref_poly_mul(lin_r, lin_s, p), p)
        assert distinct_roots(f, p, p // 2) == sorted({r, s})
        # c (x - r)^2 (x - s)^3 has the squarefree part (x - r)(x - s)
        g = ref_poly_mul(ref_poly_mul(f, f, p), lin_s, p)
        assert distinct_roots(g, p, p // 2) == sorted({r, s})
        # c ((x + t)^2 - n) with n a non-residue has no root
        t, n = rng.randrange(p), nonresidue * rng.randrange(1, p) ** 2 % p
        assert distinct_roots([c * (t * t - n) % p, 2 * c * t % p, c], p, p // 2) == []
    assert distinct_roots([4, 4, 1], p, p // 2) == [p - 2]  # (x + 2)^2


@pytest.mark.parametrize("p", ROOT_PRIMES)
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
        assert distinct_roots(f, p, p // 2) == sorted({r % p for r in roots}), (trial, roots)
    assert distinct_roots([p + 7], p, p // 2) == []
    assert distinct_roots([], p, p // 2) == []
    # x^4 - 1 has all four roots mod 5; the squarefree step needs q > deg f.
    assert distinct_roots([-1, 0, 0, 0, 1], 5, 5 // 2) == [1, 2, 3, 4]
    for q, f in ((5, [0, -1, 0, 0, 0, 1]), (3, [0, 1, 0, 1]), (2, [1, 1, 1])):
        with pytest.raises(ValueError):
            distinct_roots(f, q, q // 2)


def ref_bounded(roots, p, bound):
    """The distinct residues of roots whose least absolute lift is at most bound."""
    residues = {r % p for r in roots}
    return sorted(r for r in residues if min(r, p - r) <= bound)


def from_roots(roots, p, rng, nonresidue, quadratics=0):
    """c * prod (x - r)^m (m = 1..3) * prod (x^2 - n) with every n a non-residue."""
    f = [rng.randrange(1, p)]
    for r in roots:
        for _ in range(rng.randrange(1, 4)):
            f = ref_poly_mul(f, [-r % p, 1], p)
    for _ in range(quadratics):
        n = nonresidue * rng.randrange(1, p) ** 2 % p
        f = ref_poly_mul(f, [-n % p, 0, 1], p)
    return f


@pytest.mark.parametrize("p", KERNEL_PRIMES + (5, 7))
def test_distinct_roots_bounded_matches_reference(p):
    # Roots at exactly +-B, at 0 and just outside +-B, repeated or not,
    # on both sides of the rule 2B + 1 <= 16 bitlen(p) that picks
    # evaluation at the 2B + 1 integers over powering x^p.
    rng = random.Random(p % 983)
    nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    evaluates = (16 * p.bit_length() - 1) // 2  # the largest bound that evaluates
    if p > 7:
        bounds = [0, 1, 3, 22, evaluates, evaluates + 1, 1000, p // 2]
    else:  # 2B + 1 = p at B = p // 2; the last bound powers and keeps every root
        bounds = list(range(p // 2 + 1)) + [evaluates + 1]
    for bound in bounds:
        edges = [bound, -bound, 0, bound + 1, -bound - 1]
        for trial in range(6):
            if p > 7:
                roots = set(rng.sample(edges, rng.randrange(1, 6)))
                roots |= {rng.randrange(p) for _ in range(rng.randrange(3))}
                f = from_roots(roots, p, rng, nonresidue, rng.randrange(3))
            else:  # any f of degree below p; its roots by trying every residue
                f = [rng.randrange(p) for _ in range(rng.randrange(1, p))] + [rng.randrange(1, p)]
                if trial == 0:
                    f = ref_poly_mul(ref_poly_mul([-2 % p, 1], [-2 % p, 1], p), [2, 1], p)
                roots = {r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0}
            want = ref_bounded(roots, p, bound)
            assert distinct_roots(f, p, bound) == want, (bound, trial, roots)
            if p > 7:
                assert ref_bounded(distinct_roots(f, p, p // 2), p, bound) == want
        # no roots, a constant and the empty polynomial
        assert distinct_roots(from_roots([], p, rng, nonresidue, 2 if p > 7 else 1), p, bound) == []
        assert distinct_roots([p + 7], p, bound) == []
        assert distinct_roots([], p, bound) == []
        if p <= 7:
            with pytest.raises(ValueError):
                distinct_roots([1] * (p + 1), p, bound)


def test_distinct_roots_small_bound_needs_no_power(monkeypatch):
    # Deligne's bound 22 (l = 5 at weight 4) at degree 52, the bound 90
    # (l = 2 at weight 12) and the largest bound with 2B + 1 <= 16
    # bitlen(p) are found by evaluation.
    def no_power(*args):
        raise AssertionError("x^p was powered at a small bound")

    monkeypatch.setattr(exactlin, "poly_powmod", no_power)
    rng = random.Random(52)
    roots = [22, -22, 0, 23, -23, 90, -91, rng.randrange(P)]
    f = [1]
    for r in roots:
        f = ref_poly_mul(f, [-r % P, 1], P)
    f = ref_poly_mul(f, [rng.randrange(P) for _ in range(52 - len(roots))] + [1], P)
    assert len(f) == 53
    for bound in (22, math.isqrt(4 * 2**11), (16 * P.bit_length() - 1) // 2):
        assert distinct_roots(f, P, bound) == ref_bounded(roots, P, bound)


@pytest.mark.parametrize("bound", [(16 * P.bit_length() + 1) // 2, math.isqrt(4 * 13**11), P // 2])
def test_distinct_roots_large_bound_powers(bound, monkeypatch):
    # The smallest bound with 2B + 1 > 16 bitlen(p), weight 12 at l = 13,
    # and the bound that keeps every root take the powering path.
    calls = []
    power = exactlin.poly_powmod

    def counting(*args):
        calls.append(args[1])
        return power(*args)

    monkeypatch.setattr(exactlin, "poly_powmod", counting)
    roots = [3, -bound, bound + 1, P // 3]
    f = [5]
    for r in roots:
        f = ref_poly_mul(f, [-r % P, 1], P)
    assert distinct_roots(f, P, bound) == ref_bounded(roots, P, bound)
    assert P in calls


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
    mats = [FieldMatrix(fld, 0, 0), FieldMatrix(fld, 5, 5),
            FieldMatrix.identity(fld, 6),
            from_dense(fld, [[p - 1] * 30 for _ in range(30)])]
    for n in (1, 2, 3, 8, 25, 40):
        for density in (0.15, 0.5, 1.0):
            mats.append(random_matrix(fld, rng, n, n, density))
    # Zero first column below the diagonal, then a pivot two rows down:
    # the reduction must skip a column and swap.
    mats.append(from_dense(
        fld, [[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 1, 0, 2]]))
    mats.append(from_dense(
        fld, [[1, 2, 3, 4], [5, 0, 6, 7], [0, 0, 8, 9], [0, 1, 0, 2]]))
    # Every entry p - 1: the widest sums the packed columns hold.
    for n in (31, 60):
        mats.append(from_dense(fld, [[p - 1] * n for _ in range(n)]))
    # Every step a skip or a swap, alternately, at n = 11.  Below the
    # diagonal only (3, 1) and (2k + 3, 2k) for k >= 1 are nonzero, and
    # above it (2k, 2k + 1) is zero: column 0 has nothing to eliminate,
    # column 1 finds its pivot two rows down, and each swap of rows and
    # columns 2k and 2k + 1 hands the next step a column that is zero
    # below its diagonal and the one after a pivot two rows down again.
    n = 11
    below = {(3, 1)} | {(2 * k + 3, 2 * k) for k in range(1, n)}
    mats.append(from_dense(fld, [
        [rng.randrange(1, p) if (i <= j and not (j == i + 1 and i and i % 2 == 0))
         or (i, j) in below else 0 for j in range(n)]
        for i in range(n)]))
    for m in mats:
        assert charpoly(m)[0] == ref_charpoly(m)


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


def unipotent(p, rng, n):
    """(S, S^-1) as dense lists, S = I + N with N random strictly upper."""
    nil = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [[(x + y) % p for x, y in zip(r, e)] for r, e in zip(nil, eye)]
    s_inv, power = eye, eye
    for _ in range(n - 1):  # (I + N)^-1 = sum of (-N)^k, N nilpotent
        power = ref_dense_mul(power, [[-x % p for x in r] for r in nil], p)
        s_inv = [[(x + y) % p for x, y in zip(r, t)] for r, t in zip(s_inv, power)]
    return s, s_inv


def conjugates(mats, seed):
    """S m S^-1 for every m, with one random unipotent S."""
    p, n = mats[0].field.p, mats[0].nrows
    s, s_inv = unipotent(p, random.Random(seed), n)
    return [from_dense(m.field, ref_dense_mul(ref_dense_mul(
        s, [[r.get(j, 0) for j in range(n)] for r in m.rows], p), s_inv, p)) for m in mats]


def commuting_stack(fld, rng, n):
    """[A - lam I; B - mu I] for A = S D S^-1, B = S E S^-1 with diagonal
    D, E: rank n - 2, since D = lam and E = mu together at two places."""
    p = fld.p
    s, s_inv = unipotent(p, rng, n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    lam, mu = 3, p - 4
    d = [lam, lam, lam, 2, 5, 7, 11, 13][:n]
    e = [mu, mu, 9, mu, mu, 6, 8, 10][:n]
    rows = []
    for diag, shift in ((d, lam), (e, mu)):
        a = ref_dense_mul(ref_dense_mul(s, [[x * diag[j] for j, x in enumerate(r)] for r in eye], p),
                          s_inv, p)
        rows += [[(x - shift * (i == j)) % p for j, x in enumerate(r)] for i, r in enumerate(a)]
    return from_dense(fld, rows)


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
        got_pivots, rows = reduced_echelon(m)
        pivots, ref = ref_rref([[r.get(j, 0) for j in range(m.ncols)] for r in m.rows], m.ncols, p)
        assert got_pivots == pivots
        # the pivot rows by column; Gauss-Jordan's zero rows are not returned
        assert rows == [{j: v for j, v in enumerate(r) if v} for r in ref[:len(pivots)]]
        assert m.rows == before
    assert len(reduced_echelon(stack)[0]) == 6


def reordered(m):
    """m with its rows reversed, shuffled, and sorted by last column
    descending (the order of the Manin triangle rows)."""
    rng = random.Random(m.nrows * 31 + m.ncols)
    shuffled = list(m.rows)
    rng.shuffle(shuffled)
    by_last = sorted(m.rows, key=lambda r: max(r, default=-1), reverse=True)
    return [FieldMatrix(m.field, m.nrows, m.ncols, [dict(r) for r in rows])
            for rows in (m.rows[::-1], shuffled, by_last)]


def relation_rows(monkeypatch):
    """The integer triangle rows that the Manin presentations echelonize
    over Z through `modsym.echelonize`: the whole space and both sign
    quotients, at k in {1, 3, 5} and six composite levels, with the rows
    in the order the presentation hands them over."""
    seen = []

    def recorded(rows):
        seen.append([dict(r) for r in rows])
        return echelonize_z(rows)

    monkeypatch.setattr(modsym, "echelonize", recorded)
    for k in (1, 3, 5):
        for level in (12, 18, 20, 30, 36, 45):
            space = build_space(level, k)
            for s in (space, space.sign_quotient(1), space.sign_quotient(-1)):
                s.dim
    monkeypatch.undo()
    assert len(seen) == 3 * 6 * 3
    return seen


def as_matrix(rows, p):
    """Integer rows as a FieldMatrix mod p, as wide as their last column."""
    ncols = 1 + max((max(r) for r in rows), default=-1)
    return FieldMatrix(PrimeField(p), len(rows), ncols, [dict(r) for r in rows])


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_echelonize_independent_of_row_order(p):
    # Kernel bases are compared across primes and computations, which is
    # only sound if the reduced echelon form depends on the row space
    # alone: every reordering must give the same (pivots, rows).
    fld = PrimeField(p)
    rng = random.Random(p % 997)
    cases = []
    for density in (0.1, 0.3, 0.6, 1.0):
        for nrows, ncols in ((6, 20), (25, 8), (15, 15)):
            cases.append(random_matrix(fld, rng, nrows, ncols, density))
        base = random_matrix(fld, rng, 5, 12, density)
        cases.append(FieldMatrix(fld, 18, 12, [dict(base.rows[rng.randrange(5)]) for _ in range(18)]))
    # Unit upper triangular and dense: every row is back-substituted
    # against every pivot to its right, and the echelon is the identity.
    n = 30
    upper = FieldMatrix(fld, n, n, [{i: 1, **{j: rng.randrange(1, p) for j in range(i + 1, n)}}
                                    for i in range(n)])
    assert reduced_echelon(upper) == (list(range(n)), [{i: 1} for i in range(n)])
    cases.append(upper)
    for m in cases:
        want = reduced_echelon(m)
        for other in reordered(m):
            assert reduced_echelon(other) == want


def test_relation_echelon_independent_of_row_order(monkeypatch):
    # Over Z the pivots, and the row space the echelon rows span, depend
    # only on the triangle rows' span: every reordering gives the same
    # pivots, and its echelon rows the same reduced form at p.
    for rows in relation_rows(monkeypatch):
        m = as_matrix(rows, DEFAULT_PRIME)
        want = reduced_echelon(m)
        assert want[0]
        for other in reordered(m):
            pivots, echelon, _ = echelonize_z(other.rows)
            assert pivots == want[0]
            assert reduced_echelon(FieldMatrix(m.field, len(echelon), m.ncols, echelon)) == want


def check_row_echelon(m):
    """`echelonize(m)` against its contract, with Gauss-Jordan's rref as
    the reference: each row is 1 at its lead and zero left of it, every
    entry is a nonzero signed least residue, the leads are the reduced
    form's pivots, back-substitution gives exactly the reduced rows, and
    neither step modifies its input."""
    p = m.field.p
    before = [dict(r) for r in m.rows]
    pivots, rows = echelonize(m)
    ref_pivots, ref = ref_rref([[r.get(j, 0) for j in range(m.ncols)] for r in m.rows], m.ncols, p)
    assert pivots == ref_pivots
    for c, row in zip(pivots, rows, strict=True):
        assert min(row) == c and row[c] == 1
        assert max(row) < m.ncols and all(v and abs(2 * v) < p for v in row.values())
    forward = [dict(r) for r in rows]
    reduced = exactlin._back_substitute(pivots, rows, p)
    assert reduced == [{j: v for j, v in enumerate(r) if v} for r in ref[:len(pivots)]]
    assert rows == forward
    assert m.rows == before
    return rows


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_row_echelon_form_contract(p):
    fld = PrimeField(p)
    rng = random.Random(p % 983)
    cases = []
    for density in (0.0, 0.1, 0.3, 0.6, 1.0):
        for nrows, ncols in ((0, 5), (5, 0), (1, 1), (6, 20), (25, 8), (15, 15)):
            cases.append(random_matrix(fld, rng, nrows, ncols, density))
        base = random_matrix(fld, rng, 5, 12, density)
        cases.append(FieldMatrix(fld, 18, 12, [dict(base.rows[rng.randrange(5)]) for _ in range(18)]))
    cases.append(commuting_stack(fld, rng, 8))
    # Unit upper triangular and dense: the forward phase keeps every row
    # as it is, and back-substitution clears everything right of the
    # diagonal.
    n = 30
    upper = FieldMatrix(fld, n, n, [{i: 1, **{j: rng.randrange(1, p) for j in range(i + 1, n)}}
                                    for i in range(n)])
    assert [{j: v % p for j, v in r.items()} for r in check_row_echelon(upper)] == upper.rows
    cases.append(upper)
    for m in cases:
        for other in [m, *reordered(m)]:
            check_row_echelon(other)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_echelonize_reads_any_integer_representatives(p):
    # The Manin presentation hands `echelonize` small signed integers, not
    # residues in [0, p): entries given as v, v - p or v + 3p must give
    # the same pivots and rows, and the reduced forms built on it must
    # still come out in [0, p).
    fld = PrimeField(p)
    rng = random.Random(p % 971)
    cases = [random_matrix(fld, rng, nrows, ncols, density)
             for density in (0.1, 0.4, 1.0) for nrows, ncols in ((6, 20), (25, 8), (15, 15))]
    # leads of +-1 and +-2; the first row's -1 is the only entry in column 0
    cases.append(FieldMatrix(fld, 13, 10, [{0: p - 1, 4: 2}] + [
        {j: rng.choice((1, 2, p - 1, p - 2)) for j in rng.sample(range(1, 10), 3)} for _ in range(12)]))
    for m in cases:
        want = echelonize(m)
        want_reduced = reduced_echelon(m)
        want_kernel = rank_and_kernel(m)
        for shifts in ((-p,), (3 * p,), (0, -p, 3 * p)):
            other = FieldMatrix(fld, m.nrows, m.ncols,
                                [{j: v + rng.choice(shifts) for j, v in r.items()} for r in m.rows])
            assert echelonize(other) == want
            check_row_echelon(other)
            assert reduced_echelon(other) == want_reduced
            assert rank_and_kernel(other) == want_kernel
        assert all(0 < v < p for r in want_reduced[1] for v in r.values())
        assert all(0 < v < p for r in want_kernel[1].basis for v in r.values())


def test_relation_row_echelon_contract(monkeypatch):
    # The triangle rows' echelon over Z is the presentation's expression
    # table at every working prime: each row is primitive, positive at
    # its lead and zero left of it, its lead before the content came out
    # is a multiple of its lead, and divided by its lead mod p it is the
    # row `exactlin.echelonize` gives at p (whose own contract
    # `check_row_echelon` checks against Gauss-Jordan at the default
    # prime).  Rows that differ from their reduced rows are what the
    # pushes to later pivots follow.
    chained = 0
    for rows in relation_rows(monkeypatch):
        before = [dict(r) for r in rows]
        pivots, echelon, leads = echelonize_z(rows)
        assert rows == before
        assert pivots == sorted(set(pivots)) and len(echelon) == len(leads) == len(pivots)
        for c, row, raw in zip(pivots, echelon, leads):
            assert min(row) == c and row[c] > 0 and 0 not in row.values()
            assert math.gcd(*row.values()) == 1
            assert raw % row[c] == 0
        for p in KERNEL_PRIMES:
            assert all(raw % p for raw in leads)
            m = as_matrix(rows, p)
            want = check_row_echelon(m) if p == DEFAULT_PRIME else echelonize(m)[1]
            assert echelonize(m)[0] == pivots
            half = p // 2
            normalized = []
            for c, row in zip(pivots, echelon):
                inv = pow(row[c], -1, p)
                normalized.append({j: x - p if x > half else x
                                   for j, v in row.items() if (x := v * inv % p)})
            assert normalized == want, p
        pivot_set = set(pivots)
        chained += sum(len(pivot_set.intersection(r)) > 1 for r in echelon)
    assert chained


def ref_kernel(m):
    """(rank, reduced echelon basis of the kernel) of m by Gauss-Jordan:
    one kernel vector per free column of rref(m), then the rref of those."""
    p, n = m.field.p, m.ncols
    pivots, rref = ref_rref([[r.get(j, 0) for j in range(n)] for r in m.rows], n, p)
    vectors = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f] % p
        vectors.append(v)
    kernel_pivots, basis = ref_rref(vectors, n, p)
    return len(pivots), [{j: x for j, x in enumerate(r) if x} for r in basis[:len(kernel_pivots)]]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_is_reduced_by_construction(p, monkeypatch):
    # rank_and_kernel hands Subspace exactly the basis Subspace keeps, so
    # the constructor's echelon has nothing to eliminate.
    fld = PrimeField(p)
    rng = random.Random(p % 977)
    handed = []

    def recording(ambient_dim, vectors, field):
        handed.append([dict(v) for v in vectors])
        return Subspace(ambient_dim, vectors, field)

    monkeypatch.setattr(exactlin, "Subspace", recording)
    cases = [FieldMatrix(fld, 0, 0), FieldMatrix(fld, 0, 5), FieldMatrix(fld, 5, 0),
             FieldMatrix(fld, 4, 6), FieldMatrix.identity(fld, 7),
             from_dense(fld, [[p - 1] * 9 for _ in range(9)]),
             commuting_stack(fld, rng, 8)]
    for density in (0.1, 0.3, 1.0):
        for nrows, ncols in ((1, 1), (3, 12), (12, 12), (20, 9), (9, 40)):
            cases.append(random_matrix(fld, rng, nrows, ncols, density))
    full_rank = 0
    for m in cases:
        handed.clear()
        rank, ker = rank_and_kernel(m)
        assert handed == [list(ker.basis)]
        assert (rank, list(ker.basis)) == ref_kernel(m)
        assert ker.dim == m.ncols - rank
        full_rank += m.nrows > 0 and rank == min(m.nrows, m.ncols)
    assert full_rank >= 5


def ref_lift(s, coords):
    """The coordinate vectors of coords, combined from s's basis vectors
    one entry at a time."""
    p = s.field.p
    lifted = []
    for vec in coords.basis:
        acc = {}
        for idx, c in vec.items():
            for j, w in s.basis[idx].items():
                acc[j] = (acc.get(j, 0) + c * w) % p
        lifted.append({j: v for j, v in acc.items() if v})
    return lifted


def descend(ops, values):
    """Follow eigen_step down values: the joint eigenspace's basis in
    ambient coordinates, each step's kernel lifted by ref_lift, and the
    dimension after each step.  Subspace checks that every lifted basis
    is already reduced."""
    fld, n = ops[0].field, ops[0].ncols
    lifted = Subspace(n, [{i: 1} for i in range(n)], fld)
    dims = []
    for lam in values:
        kernel, ops = eigen_step(ops, lam)
        lifted = Subspace(n, ref_lift(lifted, kernel), fld)
        dims.append(kernel.dim)
    return list(lifted.basis), dims


def ref_joint_kernel(ops, values):
    """The reduced echelon basis of the joint eigenspace of ops at values,
    by Gauss-Jordan on the rows of [op_1 - v_1 I; op_2 - v_2 I; ...] stacked."""
    fld, n = ops[0].field, ops[0].ncols
    eye = FieldMatrix.identity(fld, n)
    rows = [r for op, v in zip(ops, values) for r in op.add_scaled(eye, -v).rows]
    return ref_kernel(FieldMatrix(fld, len(rows), n, rows))[1]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_joint_kernel_matches_stacked_reference(p):
    # eigen_step followed down the values, one operator at a time in each
    # node's coordinates, reaches the basis that Gauss-Jordan on all the
    # rows stacked, [op_1 - v_1 I; op_2 - v_2 I; ...], gives.
    fld = PrimeField(p)
    rng = random.Random(p % 967)
    n = 8
    stack = commuting_stack(fld, rng, n)  # A - 3 I over B - (p - 4) I
    eye = FieldMatrix.identity(fld, n)
    a = FieldMatrix(fld, n, n, stack.rows[:n]).add_scaled(eye, 3)
    b = FieldMatrix(fld, n, n, stack.rows[n:]).add_scaled(eye, p - 4)
    cases = [
        ([a], [3]),                           # dim 3
        ([a, b], [3, p - 4]),                 # dim 2
        ([b, a], [p - 4, 3]),                 # dim 2, the other order
        ([a, b], [2, p - 4]),                 # dim 1
        ([a, b, b, a], [3, p - 4, 9, 3]),     # empties at the third matrix
        ([a, b], [1, p - 4]),                 # empty from the start
        ([eye, b], [1, 9]),                   # the whole space, then dim 1
    ]
    dims = []
    for ops, values in cases:
        basis, steps = descend(ops, values)
        assert basis == ref_joint_kernel(ops, values)
        dims.append(steps)
    assert dims == [[3], [3, 2], [4, 2], [1, 1], [3, 2, 0, 0], [0, 0], [8, 1]]
    for ops in ([], [random_matrix(fld, rng, 3, n, 0.5)], [a, FieldMatrix.identity(fld, 3)]):
        with pytest.raises(ValueError):
            eigen_step(ops, 3)


# -- restriction against the echelon of [B | op B] ---------------------------


def ref_restrict(op, s):
    """op in the basis of s by Gauss-Jordan on [B | op B], B the basis as
    columns: every image lies in the span exactly when no pivot falls in
    the right block, and the right block of the pivot rows is the answer."""
    p, n, d = op.field.p, op.nrows, s.dim
    b = [[vec.get(i, 0) for vec in s.basis] for i in range(n)]
    images = [[sum(v * b[j][t] for j, v in op.rows[i].items()) % p for t in range(d)]
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
        space = build_space(level, k, context=FieldContext.default(p))
        primes = [l for l in (2, 3, 5, 7) if level % l][:2]
        ops = [hecke_operator(space, l) for l in primes]
        cusp = space.presentation.cuspidal_subspace
        restricted = restrict_operator(ops, cusp)
        for op, got in zip(ops, restricted):
            assert got.rows == ref_restrict(op, cusp), (level, k)
        for e in split_eigenspaces(restricted, [p // 2] * len(restricted)).eigenspaces:
            space = Subspace(cusp.dim, ref_joint_kernel(restricted, e.values), fld)
            assert (space.dim,) == e.dims
            for op, got in zip(restricted, restrict_operator(restricted, space)):
                assert got.rows == ref_restrict(op, space)
                checked += 1
    assert checked >= 30
    # Random invariant subspaces, from a point to the whole space.
    for n, d in ((1, 1), (5, 0), (5, 2), (8, 3), (12, 7), (9, 9)):
        vectors, dense_op = invariant_pair(fld, rng, n, d)
        s = span(n, vectors, fld)
        op = from_dense(fld, dense_op)
        (got,) = restrict_operator([op], s)
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
            bad = from_dense(fld, dense_op)
            bad.add_at(i, j, 1)
            assert [bad.rows[c] for c in pivots] == [op.rows[c] for c in pivots]
            with pytest.raises(NotInvariant):
                ref_restrict(bad, s)
            with pytest.raises(NotInvariant):
                restrict_operator([bad], s)
            with pytest.raises(NotInvariant):
                restrict_operator([op, bad], s)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_restrict_checks_the_last_non_pivot_row(p):
    # s has pivots 0..4 and p - 1 at every free coordinate; every column
    # of op is a combination of the basis with coefficients p - 1, so s
    # is op-stable.  Adding 1 at a pivot column of the last row, which
    # is not a pivot row, moves one image off the span there only.
    fld = PrimeField(p)
    n, d = 12, 5
    basis = [{t: 1, **{j: p - 1 for j in range(d, n)}} for t in range(d)]
    s = Subspace(n, basis, fld)
    op = from_dense(fld, [[sum(vec.get(i, 0) * (p - 1) for vec in basis) % p] * n
                          for i in range(n)])
    assert restrict_operator([op], s)[0].rows == ref_restrict(op, s)
    bad = from_dense(fld, [[op.rows[i].get(j, 0) for j in range(n)] for i in range(n)])
    bad.add_at(n - 1, 0, 1)
    with pytest.raises(NotInvariant):
        ref_restrict(bad, s)
    with pytest.raises(NotInvariant):
        restrict_operator([bad], s)


# -- the packed zero test ----------------------------------------------------
#
# Both guards ask whether a packed combination is 0 mod p in every slot,
# and `_vanishes` answers with one exact division.  The reference below
# reads the slots by shifting and masking and reduces each one.


def slots_of(x, count, w):
    return [x >> (w * i) & ((1 << w) - 1) for i in range(count)]


def packed_from(slots, w):
    return sum(v << (w * i) for i, v in enumerate(slots))


def ref_vanishes(x, row, vectors, count, w, p):
    """Whether x - sum_j row[j] vectors[j] is 0 mod p in every slot,
    computed slot by slot."""
    diff = [s - sum(c * vectors[j][i] for j, c in row.items())
            for i, s in enumerate(slots_of(x, count, w))]
    return all(v % p == 0 for v in diff)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_vanishes_matches_slotwise_reference(p):
    # x's slots stay below (terms - 3) (p - 1)^2 and row has up to 3
    # entries, so every slot of the difference fits as in the guards.
    # Cases: vanishing, one slot off by a nonzero residue, x at random.
    rng = random.Random(p % 1009)
    seen = set()
    for count in (1, 2, 7, 30, 60):
        for terms in (4, 2 * count + 4):
            nb = exactlin._slot_bytes(p, terms)
            w = 8 * nb
            high = exactlin._slot_high(p, count, nb)
            top = (terms - 3) * (p - 1) ** 2  # x's slots stay at or below this
            for _ in range(20):
                vectors = [[rng.randrange(p) for _ in range(count)] for _ in range(3)]
                row = {j: rng.randrange(1, p) for j in rng.sample(range(3), rng.randint(0, 3))}
                target = [sum(c * vectors[j][i] for j, c in row.items()) % p
                          for i in range(count)]
                xs = [t + p * rng.randrange((top - t) // p) for t in target]
                case = rng.randrange(3)
                if case == 1:
                    xs[rng.randrange(count)] += rng.randrange(1, p)
                elif case == 2:
                    xs = [rng.randrange(top) for _ in range(count)]
                x = packed_from(xs, w)
                packed = [packed_from(v, w) for v in vectors]
                want = ref_vanishes(x, row, vectors, count, w, p)
                assert exactlin._vanishes(x, row, packed, high, p) == want, (count, terms, case)
                seen.add((case, want))
    assert {(0, True), (1, False), (2, False)} <= seen


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_vanishes_rejects_a_carry_across_slots(p):
    # p divides x as a whole while its slots, each below 2^(w-1), are not
    # each multiples of p: x / p has bits in some slot's top bitlen(p).
    rng = random.Random(p % 1013)
    for count in (2, 5, 40):
        nb = exactlin._slot_bytes(p, 2 * count)
        w = 8 * nb
        high = exactlin._slot_high(p, count, nb)
        for first in [1] + [rng.randrange(1, 1 << (w - 1)) for _ in range(10)]:
            rest = [first] + [rng.randrange(1 << (w - 1)) for _ in range(count - 2)]
            upper = packed_from(rest, w) << w
            x = upper + (-upper) % p
            assert x % p == 0 and all(v < 1 << (w - 1) for v in slots_of(x, count, w))
            assert not ref_vanishes(x, {}, [], count, w, p)
            assert not exactlin._vanishes(x, {}, [], high, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_vanishes_at_the_largest_multiple_below_the_spare_bit(p):
    for count in (1, 3, 60):
        for terms in (1, 2 * count):
            nb = exactlin._slot_bytes(p, terms)
            w = 8 * nb
            high = exactlin._slot_high(p, count, nb)
            largest = ((1 << (w - 1)) - 1) // p * p
            x = packed_from([largest] * count, w)
            assert exactlin._vanishes(x, {}, [], high, p)
            for i in range(count):
                assert not exactlin._vanishes(x + (1 << (w * i)), {}, [], high, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_guards_unpack_only_the_values_they_return(p, monkeypatch):
    # The commutation guard unpacks nothing; a restriction unpacks its d
    # result rows per operator and tests every other row by division.
    fld = PrimeField(p)
    calls = []
    unpack = exactlin._unpack

    def counted(x, count, nb, q):
        calls.append(count)
        return unpack(x, count, nb, q)

    monkeypatch.setattr(exactlin, "_unpack", counted)
    n = 8
    family = conjugates([from_dense(fld, [[v[i] * (i == j) for j in range(n)] for i in range(n)])
                         for v in ([1, 1, 2, 3, 5, 8, 13, 21], [4, 4, 4, 9, 9, 1, 0, 2],
                                   [p - 1] * 4 + [7] * 4)], p % 997)
    exactlin._check_commuting(family, p, False)
    bad = from_dense(fld, [[family[2].rows[i].get(j, 0) for j in range(n)] for i in range(n)])
    bad.add_at(n - 1, 0, 1)
    with pytest.raises(NonCommuting):
        exactlin._check_commuting(family[:2] + [bad], p, False)
    assert calls == []
    rng = random.Random(p % 991)
    for d in (1, 3, 6):
        basis, op = invariant_pair(fld, rng, 9, d)
        s = span(9, basis, fld)
        ops = [from_dense(fld, op), from_dense(fld, ref_dense_mul(op, op, p))]
        calls.clear()
        assert [r.rows for r in restrict_operator(ops, s)] == [ref_restrict(m, s) for m in ops]
        assert calls == [d] * (2 * d)


# -- the commutation guard with a nonderogatory head --------------------------
#
# When the head's Hessenberg form is unreduced, `charpoly` flags it cyclic,
# and every operator commuting with the head is a polynomial in it, so the
# guard checks only the head's pairs.  The tests below check the flag
# against the Krylov vectors of e_0, which the Hessenberg reduction fixes,
# and count the guard's rows by wrapping `_vanishes`.


def krylov_rank(m):
    """The rank of e_0, m e_0, ..., m^(n-1) e_0, by Gauss-Jordan."""
    n, p = m.nrows, m.field.p
    v = [int(i == 0) for i in range(n)]
    vectors = []
    for _ in range(n):
        vectors.append(v)
        v = [sum(x * v[j] for j, x in row.items()) % p for row in m.rows]
    return len(ref_rref(vectors, n, p)[0])


def companion(fld, coeffs):
    """The companion matrix of x^n + sum_i coeffs[i] x^i: ones below the
    diagonal and -coeffs in the last column."""
    n, p = len(coeffs), fld.p
    return from_dense(fld, [[int(i == j + 1) + (j == n - 1) * (-coeffs[i] % p) for j in range(n)]
                            for i in range(n)])


def diagonal(fld, values):
    return from_dense(fld, [[v * (i == j) for j, v in enumerate(values)]
                            for i in range(len(values))])


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_charpoly_cyclic_flag_means_a_cyclic_e0(p):
    fld = PrimeField(p)
    rng = random.Random(p % 977)
    # Flagged cyclic: companion matrices (the nilpotent x^6 is one Jordan
    # block), their unipotent conjugates and dense random matrices.
    cyclic = [companion(fld, [rng.randrange(p) for _ in range(n)]) for n in (1, 2, 5, 12)]
    cyclic.append(companion(fld, [0] * 6))
    cyclic += [conjugates([m], 3)[0] for m in cyclic[1:]]
    cyclic += [random_matrix(fld, rng, n, n, 1.0) for n in (3, 9, 20)]
    for m in cyclic:
        coeffs, flag = charpoly(m)
        assert flag, m
        assert krylov_rank(m) == m.nrows
    for m in cyclic[:5]:  # a companion matrix's own polynomial
        assert charpoly(m)[0] == [(-m.rows[i].get(m.ncols - 1, 0)) % p
                                  for i in range(m.nrows)] + [1]
    # Derogatory, so never flagged: an eigenvalue with two Jordan blocks.
    derogatory = [FieldMatrix.identity(fld, n) for n in (2, 3, 7)]
    derogatory += [FieldMatrix(fld, 4, 4), diagonal(fld, [1, 1, 2])]
    derogatory += [conjugates([diagonal(fld, [5, 5, 5, 1, 2, 3])], 4)[0],
                   conjugates([block_diag(companion(fld, [1, 1]), companion(fld, [1, 1]))], 5)[0]]
    for m in derogatory:
        assert not charpoly(m)[1], m
        assert krylov_rank(m) < m.nrows
    # Nonderogatory (eigenvalues 1 and 2) but flagged False, which is
    # allowed: e_0 is an eigenvector, so the subdiagonal entry is 0.
    m = from_dense(fld, [[1, 1], [0, 2]])
    assert charpoly(m) == ([2, p - 3, 1], False)
    assert krylov_rank(m) == 1
    # The flag's claim over every matrix of the reference test, flagged or not.
    for n in (0, 1, 2, 3, 8, 25):
        for density in (0.0, 0.15, 0.5, 1.0):
            m = random_matrix(fld, rng, n, n, density)
            if charpoly(m)[1]:
                assert krylov_rank(m) == n


def test_split_checks_every_pair_when_the_head_is_derogatory():
    # A = diag(1, 1, 2): B and C act on its plane of 1 by blocks that do
    # not commute, so each commutes with A but not with the other.
    a = diagonal(F, [1, 1, 2])
    b = dense([[0, 1, 0], [0, 0, 0], [0, 0, 3]])
    c = dense([[1, 0, 0], [0, 2, 0], [0, 0, 5]])
    family = conjugates([a, b, c], 11)
    assert not charpoly(family[0])[1]
    bounds = [P // 2] * 3
    for ops, others in (([a, b, c], []), (family, []), ([a, b, b], [family])):
        with pytest.raises(NonCommuting, match="^operators 1 and 2 do not commute$"):
            split_eigenspaces(ops, bounds, others)


def counted_vanishes(monkeypatch):
    """A list that gets one entry per `_vanishes` call from now on."""
    calls = []
    vanishes = exactlin._vanishes

    def counted(*args):
        calls.append(1)
        return vanishes(*args)

    monkeypatch.setattr(exactlin, "_vanishes", counted)
    return calls


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_guard_of_a_cyclic_head_checks_only_its_pairs(p, monkeypatch):
    # (A, A^2, A^3 + 2A) commute, and no eigenvalue is 0, so at bound 0
    # no kernel is taken and every `_vanishes` call is a guard row: n per
    # pair, 2n per family for a cyclic head and 3n for a derogatory one.
    fld = PrimeField(p)
    rng = random.Random(p % 967)
    n = 8
    heads = {True: companion(fld, [rng.randrange(1, p) for _ in range(n)]),
             False: diagonal(fld, [1, 1, 2, 3, 4, 5, 6, 7])}
    calls = counted_vanishes(monkeypatch)
    for cyclic, head in heads.items():
        a = [[head.rows[i].get(j, 0) for j in range(n)] for i in range(n)]
        a2 = ref_dense_mul(a, a, p)
        c = [[(x + 2 * y) % p for x, y in zip(r, s)] for r, s in zip(ref_dense_mul(a2, a, p), a)]
        family = conjugates([from_dense(fld, m) for m in (a, a2, c)], 9)
        assert charpoly(family[0])[1] == cyclic
        calls.clear()
        res = split_eigenspaces(family, [0] * 3, [conjugates(family, 10)])
        assert len(calls) == 2 * (2 if cyclic else 3) * n
        assert res.eigenspaces == [] and res.unsplit_dim == 2 * n


@pytest.mark.parametrize("level, k", [(211, 3), (601, 1)])
def test_coverage_guard_skips_only_the_pairs_it_settles(level, k, monkeypatch):
    # Every sign quotient's T_2 here has an unreduced Hessenberg form, so
    # of the pairs of (T_2, T_3, T_5) the guard skips (T_3, T_5): n rows
    # per quotient, the cuspidal dimension in all.  The census equals the
    # one whose guard checks every pair, with each flag forced off.
    calls = counted_vanishes(monkeypatch)
    space = build_space(level, k)
    got = modsym.cuspidal_coverage(space, [2, 3, 5])
    head_pairs = len(calls)
    charpoly_ = exactlin.charpoly
    monkeypatch.setattr(exactlin, "charpoly", lambda m: (charpoly_(m)[0], False))
    calls.clear()
    want = modsym.cuspidal_coverage(space, [2, 3, 5])
    assert got == want
    assert len(calls) - head_pairs == space.cuspidal_dim


def test_split_guards_every_family_before_comparing_charpolys():
    # The second family's head has another characteristic polynomial
    # (7 -> 8), and the third family does not commute: NonCommuting,
    # because every family is guarded before the root compares them.
    ops, bounds = lockstep_family()
    mismatched = conjugates(lockstep_family(seven=8)[0], 7)
    shift = dense([[int(j == i + 1) for j in range(7)] for i in range(7)])
    with pytest.raises(FamilyMismatch):
        split_eigenspaces(ops, bounds, [mismatched])
    with pytest.raises(NonCommuting, match="^operators 0 and 1 do not commute$"):
        split_eigenspaces(ops, bounds, [mismatched, [conjugates(ops, 9)[0], shift]])
    # One family that both mismatches and fails to commute.
    with pytest.raises(NonCommuting, match="^operators 0 and 1 do not commute$"):
        split_eigenspaces(ops, bounds, [[mismatched[0], shift]])


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
