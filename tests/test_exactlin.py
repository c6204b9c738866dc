import random
from fractions import Fraction

import pytest

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
    read_matrix_text,
    replay_log,
    restrict_operator,
    split_eigenspaces,
    write_matrix_text,
)

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


def test_dense_and_sparse_paths_agree():
    rng = random.Random(11)
    data = [[rng.randrange(P) if rng.random() < 0.6 else 0 for _ in range(9)] for _ in range(7)]
    m = dense(data)
    assert m.density > 0.2
    dense_ech = echelonize(m)
    sparse_ech = None
    # Force the sparse path on the same matrix by calling the internals.
    from heckeledger.exactlin import _echelon_sparse

    sparse_ech = _echelon_sparse(m, None)
    assert dense_ech.matrix == sparse_ech.matrix
    assert dense_ech.pivots == sparse_ech.pivots


def test_basis_log_replays_exactly():
    rng = random.Random(5)
    for nnz in (12, 40):  # below and above the dense threshold
        m = FieldMatrix.zero(F, 8, 11)
        for _ in range(nnz):
            m.add_at(rng.randrange(8), rng.randrange(11), rng.randrange(P))
        ech = echelonize(m, track=True)
        assert ech.matrix.basis_log is not None
        replayed = replay_log(m, ech.matrix.basis_log)
        assert replayed.rows == ech.matrix.rows


# -- restriction ------------------------------------------------------------


def test_restrict_identity():
    s = Subspace.from_vectors(F, 4, [{0: 1, 2: 3}, {1: 5}])
    r = restrict_operator(FieldMatrix.identity(F, 4), s)
    assert r == FieldMatrix.identity(F, 2)


def test_restrict_diagonal_to_eigenplane():
    op = dense([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    plane = Subspace.from_vectors(F, 3, [{1: 1}, {2: 1}])
    r = restrict_operator(op, plane)
    assert r == FieldMatrix.identity(F, 2).scale(3)


def test_restrict_raises_not_invariant():
    op = dense([[0, 1], [1, 0]])
    line = Subspace.from_vectors(F, 2, [{0: 1}])
    with pytest.raises(NotInvariant):
        restrict_operator(op, line)


# -- eigenspace splitting ---------------------------------------------------


def test_split_identity():
    res = split_eigenspaces([FieldMatrix.identity(F, 3)])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (1,)
    assert res.eigenspaces[0].space.dim == 3
    assert res.unsplit_dim == 0
    assert res.defective == []


def test_split_diag_1_2():
    res = split_eigenspaces([dense([[1, 0], [0, 2]])])
    assert [(e.values, e.space.dim) for e in res.eigenspaces] == [((1,), 1), ((2,), 1)]


def test_split_rejects_noncommuting():
    a = dense([[0, 1], [0, 0]])
    b = dense([[1, 0], [0, 2]])
    with pytest.raises(NonCommuting):
        split_eigenspaces([a, b])


def test_split_simultaneous_pair():
    # Block diag: eigenvalues (1,5) on a 2-dim block and (2,5), (3,7) lines.
    a = dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    b = dense([[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    res = split_eigenspaces([a, b])
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
    for e in split_eigenspaces([a, b]).eigenspaces:
        assert joint_kernel([a, b], e.values).basis == e.space.basis
    assert joint_kernel([a, b], (1, 7)).dim == 0
    # The extra row x0 = 0 cuts the (1, 5) plane down to a line.
    cut = dense([[1, 0, 0, 0]])
    assert joint_kernel([a, b], (1, 5), extra=[cut]).basis == ({1: 1},)


def test_split_reports_jordan_block_separately():
    m = dense([[2, 1], [0, 2]])
    res = split_eigenspaces([m])
    assert len(res.eigenspaces) == 1
    assert res.eigenspaces[0].values == (2,)
    assert res.eigenspaces[0].space.dim == 1
    assert res.defective == [((2,), 1)]


def test_split_counts_unsplit_quadratic_factor():
    # Rotation-like matrix: x^2 + 1 has no root mod p when p = 3 mod 4.
    assert P % 4 == 3
    m = dense([[0, P - 1], [1, 0]])
    res = split_eigenspaces([m])
    assert res.eigenspaces == []
    assert res.unsplit_dim == 2


def test_split_dims_bounded_by_ambient():
    rng = random.Random(13)
    d = dense([[rng.randrange(5) for _ in range(4)] for _ in range(4)])
    sym = d.add_scaled(d.transpose(), 1)
    res = split_eigenspaces([sym])
    assert res.total_dim() + res.unsplit_dim + sum(x for _, x in res.defective) == 4


def test_multi_prime_pipeline_reconstructs_identically():
    # The same integer matrix reduced at two primes gives one rational answer.
    ctx = FieldContext.default()
    ints = [[3, 1, 0], [1, 3, 0], [0, 0, -2]]
    answers = []
    for fld in (ctx.primary, ctx.secondary):
        m = FieldMatrix.from_dense(fld, ints)
        res = split_eigenspaces([m])
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


# -- serialization ----------------------------------------------------------


def test_matrix_text_roundtrip():
    m = FieldMatrix.from_entries(F, 3, 4, [(0, 0, 1), (1, 3, 7), (2, 2, P - 1)])
    text = write_matrix_text(m)
    assert text.splitlines()[0] == "3 4 3"
    back = read_matrix_text(F, text)
    assert back == m


def test_matrix_text_rejects_bad_count():
    with pytest.raises(ValueError):
        read_matrix_text(F, "1 1 2\n0 0 1\n")
