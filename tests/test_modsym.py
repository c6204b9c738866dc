import math
import random
from fractions import Fraction

import pytest

from heckeledger.exactlin import (
    FieldContext,
    FieldMatrix,
    echelonize,
    NoReconstruction,
    rational_reconstruct,
    restrict_operator,
    split_eigenspaces,
)
from heckeledger.modsym import (
    RECONSTRUCT_BOUND,
    BadPrime,
    Cusp,
    HomogeneousPoly,
    ModularSymbol,
    MultiPrimeMismatch,
    ProjectiveLine,
    UnsupportedWeight,
    _heilbronn,
    _left_eigenbasis,
    build_space,
    cuspidal_coverage,
    determinant,
    eigensystems,
    eigensystems_csv,
    hecke_matrix,
    hecke_operator,
    space_summary,
    transform,
    unimodularize,
    winding_pairing,
)

from oracles import curve11_ap, dim_cusp_forms, dim_eisenstein, hecke_trace, primes_upto

ONE = HomogeneousPoly((1,))


def sym(n1, d1, n2, d2, coeff=ONE):
    return ModularSymbol(Cusp(n1, d1), Cusp(n2, d2), coeff)


# -- cusps -------------------------------------------------------------------


def test_cusp_canonical_form():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(3, 0) == Cusp.infinity()
    assert Cusp(-5, 0) == Cusp.infinity()
    with pytest.raises(ValueError):
        Cusp(0, 0)


def test_cusp_moebius():
    # [[1,1],[0,1]] translates by one
    assert Cusp(1, 2).apply(1, 1, 0, 1) == Cusp(3, 2)
    assert Cusp.infinity().apply(0, -1, 1, 0) == Cusp(0, 1)


# -- determinant -------------------------------------------------------------


def test_determinant_standard_symbol():
    assert determinant(sym(0, 1, 1, 0)) == 1


def test_determinant_examples():
    assert determinant(sym(0, 1, 2, 5)) == 2
    assert determinant(sym(1, 2, 3, 5)) == 1


def test_determinant_sl2_invariance():
    rng = random.Random(42)
    count = 0
    while count < 100:
        a, b = rng.randint(-31, 31), rng.randint(-31, 31)
        # complete (a, b) to a determinant-1 matrix when possible
        if math.gcd(a, b) != 1:
            continue
        # solve a*d - b*c = 1
        g, x, y = _xgcd(a, b)
        if g < 0:
            x, y = -x, -y
        d, c = x, -y
        assert a * d - b * c == 1
        if max(abs(a), abs(b), abs(c), abs(d)) > 1000:
            continue
        s = sym(rng.randint(-99, 99), rng.randint(1, 99), rng.randint(-99, 99), rng.randint(1, 99))
        moved = transform(s, ((a, b), (c, d)))
        assert determinant(moved) == determinant(s)
        count += 1


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# -- unimodularize -----------------------------------------------------------


def test_unimodularize_already_unimodular():
    s = sym(0, 1, 1, 0)
    assert unimodularize(s) == [s]


def test_unimodularize_two_fifths():
    out = unimodularize(sym(0, 1, 2, 5))
    assert [(t.q1, t.q2) for t in out] == [
        (Cusp(0, 1), Cusp(1, 2)),
        (Cusp(1, 2), Cusp(2, 5)),
    ]


def test_unimodularize_degenerate():
    assert unimodularize(sym(1, 2, 1, 2)) == []


def test_unimodularize_random_properties():
    rng = random.Random(1)
    for _ in range(300):
        q1 = Cusp(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        q2 = Cusp(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if q1 == q2:
            continue
        out = unimodularize(ModularSymbol(q1, q2, ONE))
        assert out[0].q1 == q1
        assert out[-1].q2 == q2
        for a, b in zip(out, out[1:]):
            assert a.q2 == b.q1
        for t in out:
            assert determinant(t) == 1
            assert t.coeff == ONE


def test_unimodularize_anchored_length_bound():
    # For a symbol anchored at 0 or oo the chain length is bounded by
    # the number of centered continued-fraction convergents of the
    # moving endpoint: at most 2 + log2(height).
    rng = random.Random(2)
    for _ in range(500):
        q = Cusp(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for anchor in (Cusp(0, 1), Cusp.infinity()):
            if q == anchor:
                continue
            out = unimodularize(ModularSymbol(anchor, q, ONE))
            assert len(out) <= 2 + math.log2(10**6)


def test_unimodularize_sum_in_quotient():
    # The decomposition must sum to the original symbol in the quotient:
    # compare against a second decomposition route (swapped orientation,
    # which flips the sign of the projection).
    space = build_space(13, 1)
    rng = random.Random(3)
    p = space.field.p
    for _ in range(40):
        q1 = Cusp(rng.randint(-300, 300), rng.randint(1, 300))
        q2 = Cusp(rng.randint(-300, 300), rng.randint(1, 300))
        if q1 == q2:
            continue
        forward = space.project_symbol(ModularSymbol(q1, q2, ONE))
        backward = space.project_symbol(ModularSymbol(q2, q1, ONE))
        assert forward == {k: (-v) % p for k, v in backward.items()}


def test_projection_roundtrip_on_free_generators():
    space = build_space(11, 3)
    for pos, col in enumerate(space.free_columns):
        i, j = space.generators[col]
        a, b, c, d = space.p1.lift_to_sl2(j)
        mono = HomogeneousPoly.monomial(space.module.k, i)
        coeff = mono.subst(d, -b, -c, a)  # g acting on the monomial
        s = ModularSymbol(Cusp(b, d), Cusp(a, c), coeff)
        assert space.project_symbol(s) == {pos: 1}


# -- the projective line -----------------------------------------------------


def test_projective_line_sizes():
    assert len(ProjectiveLine(1)) == 1
    assert len(ProjectiveLine(11)) == 12
    assert len(ProjectiveLine(4)) == 6
    assert len(ProjectiveLine(6)) == 12


def test_projective_line_reduce_scaling():
    pl = ProjectiveLine(12)
    rng = random.Random(4)
    for _ in range(200):
        c, d = rng.randrange(12), rng.randrange(12)
        if math.gcd(math.gcd(c, d), 12) != 1:
            continue
        u = rng.choice([1, 5, 7, 11])
        assert pl.reduce(c, d) == pl.reduce(u * c, u * d)


def test_projective_line_lifts():
    for n in (1, 2, 11, 12, 45):
        pl = ProjectiveLine(n)
        for idx, (c, d) in enumerate(pl.points):
            a, b, cc, dd = pl.lift_to_sl2(idx)
            assert a * dd - b * cc == 1
            assert pl.reduce(cc, dd) == (c, d)


def stein_reduce(n, c, d):
    """Stein's Algorithm 8.29 step by step: scale c to gcd(c, n) by a
    unit, then take the least second coordinate over the units that
    fix it."""
    if n == 1:
        return (0, 1)
    c %= n
    d %= n
    if math.gcd(math.gcd(c, d), n) != 1:
        raise ValueError
    if c == 0:
        return (0, 1)
    g = math.gcd(c, n)
    n0 = n // g
    s = pow(c // g, -1, n0)
    while math.gcd(s, n) != 1:
        s += n0
    v = s * d % n
    if g == 1:
        return (1, v)
    return (g, min(v * t % n for t in range(1, n, n0) if math.gcd(t, n) == 1))


def test_reduce_matches_stein_reference():
    for n in range(1, 61):
        pl = ProjectiveLine(n)
        for c in range(n):
            for d in range(n):
                try:
                    want = stein_reduce(n, c, d)
                except ValueError:
                    with pytest.raises(ValueError):
                        pl.reduce(c, d)
                    continue
                assert pl.reduce(c, d) == want, (n, c, d)


def test_projective_line_points_match_brute_force():
    for n in range(4, 61):
        if n in primes_upto(60):
            continue
        pl = ProjectiveLine(n)
        pairs = [(c, d) for c in range(n) for d in range(n) if math.gcd(math.gcd(c, d), n) == 1]
        assert pl.points == sorted({pl.reduce(c, d) for c, d in pairs}), n
        # Independently of reduce: the classes are the orbits of the
        # units, each holds exactly one listed point, and index finds it.
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        listed = set(pl.points)
        classes = {}
        for c, d in pairs:
            if (c, d) not in classes:
                orbit = {(u * c % n, u * d % n) for u in units}
                (point,) = orbit & listed
                for pt in orbit:
                    classes[pt] = point
            assert pl.index(c, d) == pl.points.index(classes[(c, d)]), (n, c, d)
        assert len(set(classes.values())) == len(pl), n


def reference_presentation(space):
    """Free generators and pivot expressions from the full relation matrix.

    Every generator (i, j) = X^i Y^(k-1-i) at the j-th point contributes
    its S row, x + (S.x) = 0, and its triangle row,
    x + (sigma.x) + (sigma^2.x) = 0, and all 2 k |P^1| rows are
    echelonized in one piece.
    """
    p1, k, fld = space.p1, space.module.k, space.field
    npts = len(p1)
    entries = []
    nrows = 0
    for j, (c, d) in enumerate(p1.points):
        s_pt = p1.index(d, -c)
        u_pt = p1.index(d - c, -c)
        u2_pt = p1.index(-d, c - d)
        for i in range(k):
            mono = HomogeneousPoly.monomial(k, i)
            for images in ([(mono.subst(0, -1, 1, 0), s_pt)],
                           [(mono.subst(-1, -1, 1, 0), u_pt), (mono.subst(0, 1, -1, -1), u2_pt)]):
                entries.append((nrows, i * npts + j, 1))
                for img, pt in images:
                    entries += [(nrows, m * npts + pt, cm) for m, cm in enumerate(img.coeffs) if cm]
                nrows += 1
    ech = echelonize(FieldMatrix.from_entries(fld, nrows, k * npts, entries))
    pivots = set(ech.pivots)
    free = [g for g in range(k * npts) if g not in pivots]
    free_pos = {g: t for t, g in enumerate(free)}
    expr = {
        c: {free_pos[g]: (fld.p - v) % fld.p for g, v in ech.matrix.rows[r].items() if g != c}
        for r, c in enumerate(ech.pivots)
    }
    return free, expr


@pytest.mark.parametrize("k", [1, 3, 5])
def test_presentation_matches_full_relation_echelon(k):
    # Prime levels with and without fixed points of S (p = 1 mod 4) and
    # of sigma (p = 1 mod 3), prime powers and products.
    levels = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 19, 25, 27, 30, 36, 37, 40]
    ctx = FieldContext.default()
    for fld in (ctx.primary, ctx.secondary):
        for n in levels:
            space = build_space(n, k, field=fld)
            free, expr = reference_presentation(space)
            assert space.free_columns == free, (n, k, fld.p)
            assert space._pivot_expr == expr, (n, k, fld.p)


# -- space dimensions (Eichler-Shimura cross-check) --------------------------


@pytest.mark.parametrize("level,k,quotient,cuspidal", [
    (1, 1, 0, 0),
    (11, 1, 3, 2),
    (37, 1, 5, 4),
    (1, 3, 1, 0),
    (5, 3, 4, 2),
    (11, 3, 6, 4),
])
def test_known_dimensions(level, k, quotient, cuspidal):
    space = build_space(level, k)
    assert space.dim == quotient
    assert space.cuspidal_dim == cuspidal


def test_dimension_oracle_small_composite_levels():
    # The presentation is for all N >= 1, not only prime levels.
    for level in (2, 3, 4, 6, 9, 12, 15):
        space = build_space(level, 1)
        assert space.cuspidal_dim == 2 * dim_cusp_forms(level, 2)
        assert space.eisenstein_dim == dim_eisenstein(level, 2)
    for level in (4, 6, 9, 10):
        space = build_space(level, 3)
        assert space.cuspidal_dim == 2 * dim_cusp_forms(level, 4)
        assert space.eisenstein_dim == dim_eisenstein(level, 4)


def test_even_k_rejected():
    with pytest.raises(UnsupportedWeight):
        build_space(11, 2)


# -- Hecke operators ---------------------------------------------------------


def test_hecke_identity_coset():
    space = build_space(11, 1)
    assert space.hecke_matrix(1) == FieldMatrix.identity(space.field, space.dim)


def test_heilbronn_matches_brute_force():
    # a > b >= 0, f > e >= 0 and af - be = n, searched well past a, f <= n.
    brute = {n: [] for n in range(1, 31)}
    for a in range(1, 40):
        for f in range(1, 40):
            for b in range(a):
                for e in range(f):
                    if 0 < a * f - b * e <= 30:
                        brute[a * f - b * e].append((a, b, e, f))
    assert [len(_heilbronn(n)) for n in range(1, 6)] == [1, 4, 7, 13, 15]
    for n in range(1, 31):
        got = _heilbronn(n)
        assert len(set(got)) == len(got), n
        assert sorted(got) == sorted(brute[n]), n


def reference_hecke_matrix(space, n):
    """T_n by the symbol-level action and continued-fraction reduction.

    The free generator (X^i Y^(k-1-i), g) goes to the sum over the cosets
    [[a, b], [0, d]] (ad = n, 0 <= b < d) of h0 = coset * g acting on
    X^i Y^(k-1-i) tensor [0, oo], each image projected by project_symbol.
    """
    cosets = [(a, b, 0, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(n // a)]
    columns = []
    for col in space.free_columns:
        i, j = space.generators[col]
        mono = HomogeneousPoly.monomial(space.module.k, i)
        g11, g12, g21, g22 = space.p1.lift_to_sl2(j)
        column = {}
        for ca, cb, cc, cd in cosets:
            h11, h12 = ca * g11 + cb * g21, ca * g12 + cb * g22
            h21, h22 = cc * g11 + cd * g21, cc * g12 + cd * g22
            image = ModularSymbol(Cusp(h12, h22), Cusp(h11, h21),
                                  mono.subst(h22, -h12, -h21, h11))
            for r, v in space.project_symbol(image).items():
                column[r] = (column.get(r, 0) + v) % space.field.p
        columns.append({r: v for r, v in column.items() if v})
    return FieldMatrix.from_entries(
        space.field, space.dim, len(columns),
        [(r, j, v) for j, column in enumerate(columns) for r, v in column.items()])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_hecke_matches_continued_fraction_reference(k):
    levels = [1, 2, 5, 6, 9, 11, 13, 16, 25, 30, 35, 37, 40] if k < 5 else [1, 2, 7, 11, 15]
    ctx = FieldContext.default()
    for fld in (ctx.primary, ctx.secondary):
        for level in levels:
            space = build_space(level, k, field=fld)
            for n in (1, 2, 3, 4, 5, 6, 7, 9):
                if math.gcd(n, level) == 1:
                    assert space.hecke_matrix(n) == reference_hecke_matrix(space, n), \
                        (level, k, n, fld.p)


def test_bad_prime_rejected():
    space = build_space(11, 1)
    with pytest.raises(BadPrime):
        hecke_operator(space, 11)
    with pytest.raises(BadPrime):
        hecke_operator(space, 4)


def test_level11_cuspidal_scalars_match_point_counts():
    space = build_space(11, 1)
    p = space.field.p
    for l in (2, 3, 5, 7, 13):
        t = restrict_operator(hecke_operator(space, l), space.cuspidal_subspace)
        want = FieldMatrix.identity(space.field, 2).scale(curve11_ap(l) % p)
        assert t == want


def test_restrict_to_eigenline_is_1x1():
    # T_2 restricted to a line inside its eigenspace is the 1x1 matrix [-2].
    space = build_space(11, 1)
    p = space.field.p
    t2 = hecke_operator(space, 2)
    line_vec = space.cuspidal_subspace.basis[0]
    from heckeledger.exactlin import Subspace

    line = Subspace(space.dim, (line_vec,), space.field)
    r = restrict_operator(t2, line)
    assert r.nrows == 1 and r.entry(0, 0) == (p - 2)


def test_hecke_commutativity_small():
    for level, k in [(11, 1), (11, 3), (14, 1)]:
        space = build_space(level, k)
        ops = [hecke_operator(space, l) for l in (2, 3) if level % l]
        ops.append(hecke_operator(space, 5))
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                assert ops[a].matmul(ops[b]) == ops[b].matmul(ops[a])


def test_cuspidal_subspace_hecke_stable():
    for level, k in [(11, 1), (37, 1), (5, 3)]:
        space = build_space(level, k)
        for l in (2, 3):
            # would raise NotInvariant on failure
            restrict_operator(hecke_operator(space, l), space.cuspidal_subspace)


@pytest.mark.parametrize(
    "weight, levels",
    [
        (2, range(1, 41)),
        (4, range(1, 41)),
        (2, [n for n in primes_upto(100) if n > 40]),
        (6, range(1, 21)),
        (12, [1]),
    ],
    ids=["w2-N<=40", "w4-N<=40", "w2-prime-N<=100", "w6-N<=20", "w12-N=1"],
)
def test_hecke_trace_matches_eichler_selberg(weight, levels):
    # The cuspidal part of H^1 is S_w twice over (plus and minus
    # symbols), so tr T_l there is twice the Eichler-Selberg trace; the
    # trace formula shares no code with Merel's Hecke matrices.
    for level in levels:
        space = build_space(level, weight - 1)
        p = space.field.p
        for l in (2, 3, 5, 7):
            if level % l == 0:
                continue
            t = restrict_operator(hecke_operator(space, l), space.cuspidal_subspace)
            got = sum(t.entry(i, i) for i in range(t.nrows)) % p
            assert got == 2 * hecke_trace(l, level, weight) % p, (level, weight, l)


def test_eisenstein_boundary_eigenvalue():
    # T_l acts by l + 1 on the weight-2 boundary image: the boundary of
    # T_l v equals (l + 1) times the boundary of v for every v.
    for level in (11, 14, 15):
        space = build_space(level, 1)
        for l in (2, 3, 5, 7):
            if level % l == 0:
                continue
            t = hecke_operator(space, l)
            assert space.boundary_matrix.matmul(t) == space.boundary_matrix.scale(l + 1)


# -- eigensystems ------------------------------------------------------------


def test_level11_eigensystem():
    space = build_space(11, 1)
    systems = eigensystems(space, [2, 3, 5])
    assert len(systems) == 1
    s = systems[0]
    assert s.dim == 2  # the +/- pair of eigenclasses of one newform
    assert s.eigenvalues == {2: Fraction(-2), 3: Fraction(-1), 5: Fraction(1)}
    assert s.cuspidal and s.level == 11 and s.weight == 2


def test_level1_no_cusp_forms():
    for k in (1, 3, 5, 7, 9):
        space = build_space(1, k)
        assert eigensystems(space, [2, 3]) == []


def test_level14_composite_eigensystem_matches_point_counts():
    # Composite level end to end: genus(X_0(14)) = 1 and the unique
    # newform matches point counts on the stored conductor-14 curve.
    from oracles import CURVE_14A, curve_ap

    space = build_space(14, 1)
    systems = eigensystems(space, [3, 5, 11, 13])
    assert len(systems) == 1
    s = systems[0]
    for l in (3, 5, 11, 13):
        assert s.eigenvalues[l] == Fraction(curve_ap(CURVE_14A, l))


def test_level37_two_systems():
    space = build_space(37, 1)
    systems = eigensystems(space, [2, 3])
    assert len(systems) == 2
    assert sorted(s.eigenvalues[2] for s in systems) == [Fraction(-2), Fraction(0)]
    assert all(s.dim == 2 for s in systems)


def test_weight4_level5_system_and_recursion():
    space = build_space(5, 3)
    cov = cuspidal_coverage(space, [2, 3])
    assert cov.unresolved_dim == 0
    assert len(cov.systems) == 1
    s = cov.systems[0]
    assert s.eigenvalues[2] == Fraction(-4)
    assert s.eigenvalues[3] == Fraction(2)
    # Hecke recursion at weight 4: T_4 = T_2^2 - 8 on the cuspidal part.
    t2 = restrict_operator(hecke_matrix(space, 2), space.cuspidal_subspace)
    t4 = restrict_operator(hecke_matrix(space, 4), space.cuspidal_subspace)
    shift = FieldMatrix.identity(space.field, t2.nrows).scale(8)
    assert t4 == t2.matmul(t2).sub(shift)


def test_weight4_level11_irrational_orbit():
    # The level-11 weight-4 orbit has a_2 satisfying x^2 - 2x - 2 = 0,
    # so no rational eigensystem exists; the census must say so rather
    # than report garbage.  The Hecke recursion still holds exactly as
    # a matrix identity over the field.
    space = build_space(11, 3)
    cov = cuspidal_coverage(space, [2])
    assert cov.systems == []
    assert cov.unresolved_dim == 4
    t2 = restrict_operator(hecke_matrix(space, 2), space.cuspidal_subspace)
    t4 = restrict_operator(hecke_matrix(space, 4), space.cuspidal_subspace)
    shift = FieldMatrix.identity(space.field, t2.nrows).scale(8)
    assert t4 == t2.matmul(t2).sub(shift)
    from heckeledger.exactlin import charpoly

    f = charpoly(t2)
    p = space.field.p
    # (x^2 - 2x - 2)^2
    sq = [4 % p, 8 % p, 0, (p - 4) % p, 1]
    assert f == sq


def test_eigenvalue_integrality_prime_levels():
    for level in primes_upto(50):
        space = build_space(level, 1)
        primes = [l for l in (2, 3, 5, 7) if level % l][:2]
        for s in eigensystems(space, primes):
            for val in s.eigenvalues.values():
                assert val.denominator == 1


def test_level61_rank_one_curve_system():
    # One rational newform (the rank-one conductor-61 curve) sits next
    # to a cubic orbit; the census returns exactly the rational one and
    # accounts for the rest.  Internal cross-check: a_4 = a_2^2 - 2.
    space = build_space(61, 1)
    cov = cuspidal_coverage(space, [2, 3, 5])
    assert len(cov.systems) == 1
    s = cov.systems[0]
    assert s.eigenvalues == {2: Fraction(-1), 3: Fraction(-2), 5: Fraction(-3)}
    assert cov.unresolved_dim == 6 and cov.cuspidal_dim == 8
    t2 = restrict_operator(hecke_matrix(space, 2), space.cuspidal_subspace)
    t4 = restrict_operator(hecke_matrix(space, 4), space.cuspidal_subspace)
    shift = FieldMatrix.identity(space.field, t2.nrows).scale(2)
    assert t4 == t2.matmul(t2).sub(shift)


def test_level199_all_orbits_irrational():
    # No integer in the weight-2 Ramanujan range at l = 2 is an
    # eigenvalue modulo either working prime, certifying that every
    # orbit at level 199 is irrational and the empty census is honest.
    from heckeledger.exactlin import charpoly

    space = build_space(199, 1)
    for sp in (space, space.partner()):
        t2 = restrict_operator(sp.hecke_matrix(2), sp.cuspidal_subspace)
        f = charpoly(t2)
        p = sp.field.p
        for a in range(-2, 3):
            acc = 0
            for c in reversed(f):
                acc = (acc * (a % p) + c) % p
            assert acc != 0
    assert eigensystems(space, [2]) == []


def test_discriminant_form_tau_values():
    # Level 1, weight 12: the one cusp form is the discriminant form.
    # tau(2), tau(3), tau(5) are classical constants, and tau(4) is
    # pinned internally by the recursion tau(4) = tau(2)^2 - 2^11.
    space = build_space(1, 11)
    (system,) = eigensystems(space, [2, 3, 5])
    assert system.eigenvalues == {
        2: Fraction(-24),
        3: Fraction(252),
        5: Fraction(4830),
    }
    t2 = restrict_operator(hecke_matrix(space, 2), space.cuspidal_subspace)
    t4 = restrict_operator(hecke_matrix(space, 4), space.cuspidal_subspace)
    shift = FieldMatrix.identity(space.field, t2.nrows).scale(2**11)
    assert t4 == t2.matmul(t2).sub(shift)


def _delta_coefficients(n):
    """[tau(1), ..., tau(n)] from the q-expansion of q prod (1 - q^m)^24."""
    eta24 = [1] + [0] * (n - 1)  # prod (1 - q^m)^24 up to q^(n-1)
    for m in range(1, n):
        for _ in range(24):
            for i in range(n - 1, m - 1, -1):
                eta24[i] -= eta24[i - m]
    return eta24


def test_discriminant_form_tau_beyond_reconstruction_height():
    # tau(97) is far above 10**6 and within Deligne's bound 2 * 97**5.5.
    tau = _delta_coefficients(97)
    assert (tau[1], tau[96]) == (-24, 75013568546)
    cov = cuspidal_coverage(build_space(1, 11), [2, 97])
    got = [(s.tuple_at([2, 97]), s.dim) for s in cov.systems]
    assert got == [((Fraction(tau[1]), Fraction(tau[96])), 2)]
    assert cov.unresolved_dim == 0


def test_level17_weight12_discriminant_oldform():
    # Delta(z) and Delta(17z) span the old space; T_31 acts on both by tau(31).
    tau = _delta_coefficients(31)
    assert tau[30] == -52843168
    systems = eigensystems(build_space(17, 11), [31])
    old = [s for s in systems if s.eigenvalues[31] == tau[30]]
    assert [s.dim for s in old] == [4]


def test_weight6_level5():
    space = build_space(5, 5)
    assert (space.dim, space.cuspidal_dim) == (4, 2)
    (system,) = eigensystems(space, [2, 3])
    assert system.eigenvalues == {2: Fraction(2), 3: Fraction(-4)}


def test_two_prime_consistency_is_exercised():
    # The partner space lives at a different prime and reproduces the
    # same reconstructed eigenvalues; this is implicit in eigensystems,
    # so just check the partner wiring.
    space = build_space(11, 1)
    twin = space.partner()
    assert twin.field.p != space.field.p
    assert twin.dim == space.dim
    assert twin.partner() is space


def _shift_partner_t2(space):
    """Replace the partner prime's T_2 by T_2 + I, so the primes disagree."""
    twin = space.partner()
    shifted = twin.hecke_matrix(2).add_scaled(FieldMatrix.identity(twin.field, twin.dim), 1)
    twin._hecke_cache[2] = shifted


def test_partner_disagreement_confirms_nothing():
    space = build_space(11, 1)
    _shift_partner_t2(space)
    cov = cuspidal_coverage(space, [2, 3])
    assert cov.systems == []
    assert cov.unresolved_dim == cov.cuspidal_dim == 2


def test_unresolved_causes():
    # Level 199: T_2 has no integer eigenvalue in [-2, 2] on the cusp forms.
    cov = cuspidal_coverage(build_space(199, 1), [2, 3])
    assert cov.unresolved == {
        "no_bounded_integer_root": cov.cuspidal_dim,
        "defective": 0,
        "prime_disagreement": 0,
    }
    space = build_space(11, 1)
    _shift_partner_t2(space)
    cov = cuspidal_coverage(space, [2, 3])
    assert cov.unresolved == {
        "no_bounded_integer_root": 0,
        "defective": 0,
        "prime_disagreement": 2,
    }


def test_winding_partner_disagreement_raises():
    space = build_space(13, 3)
    (system,) = cuspidal_coverage(space, [2]).systems
    _shift_partner_t2(space)
    with pytest.raises(MultiPrimeMismatch):
        winding_pairing(space, system)


# -- reference: the full split at both primes --------------------------------
#
# The census splits only at the primary prime and confirms each rational
# candidate at the partner prime by one joint kernel; the winding pairing
# takes its left eigenbasis as a joint kernel too.  The references below
# split everything instead, using public exactlin calls only.


def _reference_coverage(space, primes):
    """Split the cuspidal family at both primes and intersect the censuses."""
    censuses = []
    for sp in (space, space.partner()):
        ops = [restrict_operator(hecke_operator(sp, l), sp.cuspidal_subspace) for l in primes]
        census = set()
        for eig in split_eigenspaces(ops, [sp.field.p // 2] * len(ops)).eigenspaces:
            try:
                fracs = tuple(
                    rational_reconstruct(v, RECONSTRUCT_BOUND, sp.field) for v in eig.values
                )
            except NoReconstruction:
                continue
            census.add((fracs, eig.space.dim))
        censuses.append(census)
    return sorted(censuses[0] & censuses[1])


def _reference_left_eigenbases(space, primes):
    """Split the transposed ambient family: eigenvalue tuple -> basis."""
    ops = [hecke_operator(space, l).transpose() for l in primes]
    return {
        eig.values: [dict(v) for v in eig.space.basis]
        for eig in split_eigenspaces(ops, [space.field.p // 2] * len(ops)).eigenspaces
    }


@pytest.mark.parametrize(
    "k, level",
    [(k, level) for k in (1, 3) for level in (11, 13, 37, 89, 35, 55)]
    + [(5, 11), (5, 13)],
)
def test_coverage_matches_split_reference(level, k):
    primes = [2, 3]
    space = build_space(level, k)
    cov = cuspidal_coverage(space, primes)
    got = [(s.tuple_at(primes), s.dim) for s in cov.systems]
    assert got == _reference_coverage(space, primes)
    assert cov.unresolved_dim == space.cuspidal_dim - sum(dim for _, dim in got)
    assert sum(cov.unresolved.values()) == cov.unresolved_dim


@pytest.mark.parametrize("level", [13, 89])
def test_left_eigenbasis_matches_split_reference(level):
    primes = [2, 3]
    space = build_space(level, 3)
    systems = cuspidal_coverage(space, primes).systems
    assert systems
    for sp in (space, space.partner()):
        reference = _reference_left_eigenbases(sp, primes)
        for system in systems:
            target = tuple(sp.field.elem(system.eigenvalues[l]) for l in primes)
            assert _left_eigenbasis(sp, primes, target) == reference[target]


# -- winding pairing ---------------------------------------------------------


def test_winding_weight4_level5_nonzero():
    # Regression value, first computed by this implementation at two
    # primes; only the nonvanishing is meaningful.
    space = build_space(5, 3)
    (system,) = eigensystems(space, [2, 3])
    value = winding_pairing(space, system)
    assert value != 0
    assert value == Fraction(65, 16)


def test_winding_weight2_level11_nonzero():
    # L(f_11, 1) != 0 (rank zero curve): the winding component is nonzero.
    space = build_space(11, 1)
    (system,) = eigensystems(space, [2, 3])
    assert winding_pairing(space, system) != 0


def test_winding_weight2_level37_rank_one_vanishes():
    # 37a is the classical rank-one curve: L(f, 1) = 0, so the winding
    # symbol pairs to zero against that system and not against 37b.
    space = build_space(37, 1)
    systems = eigensystems(space, [2, 3, 5])
    by_a2 = {s.eigenvalues[2]: s for s in systems}
    assert winding_pairing(space, by_a2[Fraction(-2)]) == 0
    assert winding_pairing(space, by_a2[Fraction(0)]) != 0


def test_winding_weight4_level13_certified_zero():
    # 13.4.a.a has odd functional equation: the winding component
    # vanishes, certified at both working primes.
    space = build_space(13, 3)
    cov = cuspidal_coverage(space, [2])
    (system,) = cov.systems
    assert system.eigenvalues[2] == Fraction(-5)
    assert winding_pairing(space, system) == 0


def test_winding_even_k_rejected():
    space = build_space(11, 1)
    (system,) = eigensystems(space, [2])
    fake = system.__class__(
        level=11, weight=2, eigenvalues=system.eigenvalues, cuspidal=False, dim=2
    )
    with pytest.raises(ValueError):
        winding_pairing(space, fake)


# -- exports -----------------------------------------------------------------


def test_space_summary():
    space = build_space(11, 1)
    assert space_summary(space) == {
        "level": 11,
        "k": 1,
        "quotient_dim": 3,
        "cuspidal_dim": 2,
        "eisenstein_dim": 1,
    }


def test_eigensystem_csv():
    space = build_space(11, 1)
    systems = eigensystems(space, [2, 3])
    text = eigensystems_csv(systems)
    lines = text.strip().split("\n")
    assert lines[0] == "level,weight,dim,prime,eigenvalue"
    assert lines[1] == "11,2,2,2,-2"
    assert lines[2] == "11,2,2,3,-1"
