import math
import random
from fractions import Fraction

import pytest

from heckeledger.exactlin import (
    FamilyMismatch,
    FieldContext,
    FieldMatrix,
    InputError,
    NonCommuting,
    NotInvariant,
    Subspace,
    charpoly,
    frac_str,
    NoReconstruction,
    rank_and_kernel,
    rational_reconstruct,
    reduced_echelon,
    restrict_operator,
    signed_lift,
    split_eigenspaces,
)
from heckeledger import modsym
from heckeledger.modsym import (
    BadLevel,
    BadPrime,
    Cusp,
    HalvesMismatch,
    HomogeneousPoly,
    ModularSymbol,
    MultiPrimeMismatch,
    ProjectiveLine,
    UnluckyPrime,
    UnsupportedWeight,
    _cusp_key,
    _heilbronn,
    build_space,
    cuspidal_coverage,
    determinant,
    eigensystems,
    eigensystems_csv,
    hecke_operator,
    space_summary,
    unimodularize,
    winding_pairing,
)

from conftest import span
from oracles import (
    curve11_ap, dim_cusp_forms, dim_eisenstein, hecke_trace, num_cusps, primes_upto, sl2_lift,
)

ONE = HomogeneousPoly((1,))


def sym(n1, d1, n2, d2, coeff=ONE):
    return ModularSymbol(Cusp(n1, d1), Cusp(n2, d2), coeff)


def project_generator(space, gen):
    """Quotient coordinates of one Manin generator ({} if killed), as a
    new dict: a one-column `_project`."""
    return {r: row[0] for r, row in enumerate(space._project([{gen: 1}]).rows) if row}


def replace_presentation(space, **fields):
    """Give space its presentation with some fields replaced, to set off a guard."""
    space.presentation = space.presentation._replace(**fields)


def push_bits(space):
    """The widest integer push of space's relation echelon, in bits."""
    return max((abs(m).bit_length() for _, to_free, to_pivots in space.presentation.pushes.values()
                for _, m in to_free + to_pivots), default=0)


def moebius(q, a, b, c, d):
    """The image of the cusp q under the integer matrix [[a, b], [c, d]]."""
    return Cusp(a * q.num + b * q.den, c * q.num + d * q.den)


def transform(s, g):
    """g.s for g in SL2(Z): Moebius on the ends, and the coefficient
    substituted by the adjugate of g (the module docstring's action)."""
    (a, b), (c, d) = g
    assert a * d - b * c == 1
    return ModularSymbol(moebius(s.q1, a, b, c, d), moebius(s.q2, a, b, c, d),
                         s.coeff.subst(d, -b, -c, a))


def scaled(m, c):
    """c times the matrix m."""
    return FieldMatrix(m.field, m.nrows, m.ncols).add_scaled(m, c)


# -- cusps -------------------------------------------------------------------


def test_cusp_canonical_form():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(3, 0) == Cusp.infinity()
    assert Cusp(-5, 0) == Cusp.infinity()
    with pytest.raises(ValueError):
        Cusp(0, 0)


def cusps_equivalent(c1, c2, level):
    """Gamma0(level) equivalence of cusps, Cremona's criterion: x1/y1 and
    x2/y2 are equivalent iff s1 y2 = s2 y1 mod gcd(y1 y2, level), where
    s x = 1 mod y."""
    s1, s2 = (pow(c.num, -1, c.den) if c.den else 1 for c in (c1, c2))
    modulus = math.gcd(level, c1.den * c2.den)
    return (s1 * c2.den - s2 * c1.den) % modulus == 0 if modulus else True


def cusp_key(c, level):
    """`_cusp_key` of the cusp c = x/y, from (y, x^-1 mod y)."""
    return _cusp_key(c.den, pow(c.num, -1, c.den) if c.den else 1, level)


def assert_keys_are_classes(keyed, n):
    """Each cusp is equivalent to the first cusp of its key, and the
    first cusps of distinct keys are pairwise inequivalent."""
    first = {}
    for c, key in keyed:
        assert cusps_equivalent(c, first.setdefault(key, c), n), (n, c, key)
    firsts = list(first.values())
    for i, a in enumerate(firsts):
        assert not any(cusps_equivalent(a, b, n) for b in firsts[i + 1:]), (n, a)


def test_cusp_key_matches_cremona_criterion():
    # Every class has a cusp a/d with d | N; the small numerators add
    # denominators that do not divide N.  Equal keys must mean
    # equivalent cusps and unequal keys inequivalent ones: checked on
    # every pair up to N = 30, and above that by comparing each cusp with
    # its key's first cusp and the first cusps of distinct keys pairwise.
    for n in range(1, 101):
        cusps = [Cusp.infinity()]
        cusps += [Cusp(a, d) for d in range(1, n + 1) if n % d == 0 for a in range(d + 1)
                  if math.gcd(a, d) == 1]
        cusps += [Cusp(a, d) for d in range(1, 2 * n + 1) for a in (-3, -2, -1, 1, 2, 5)
                  if math.gcd(a, d) == 1]
        keys = [cusp_key(c, n) for c in cusps]
        assert len(set(keys)) == num_cusps(n), n
        # -c, the key of (den, -inv), has the key (d, -u mod gcd(d, N/d)).
        for c, (d, u) in zip(cusps, keys):
            assert cusp_key(Cusp(-c.num, c.den), n) == (d, -u % math.gcd(d, n // d))
        if n <= 30:
            for a, ka in zip(cusps, keys):
                for b, kb in zip(cusps, keys):
                    assert (ka == kb) == cusps_equivalent(a, b, n), (n, a, b)
            continue
        assert_keys_are_classes(zip(cusps, keys), n)


def test_cusp_keys_read_off_projective_line():
    # The boundary's two keys of each point (c : d), (c, d) for g.oo and
    # (d, -c) for g.0, and their mirrors (c, -d) and (d, c) for -g.oo and
    # -g.0, name the classes of the cusps of an SL2(Z) lift g; every
    # class is some g.oo.
    for n in range(1, 201):
        keyed = []
        for c, d in ProjectiveLine(n).points:
            a, b, c1, d1 = sl2_lift(c, d, n)
            keyed += [(Cusp(a, c1), _cusp_key(c, d, n)), (Cusp(b, d1), _cusp_key(d, -c, n)),
                      (Cusp(-a, c1), _cusp_key(c, -d, n)), (Cusp(-b, d1), _cusp_key(d, c, n))]
        assert len({key for _, key in keyed[::4]}) == num_cusps(n), n
        assert_keys_are_classes(keyed, n)


def test_cusp_moebius():
    # [[1,1],[0,1]] translates by one
    assert moebius(Cusp(1, 2), 1, 1, 0, 1) == Cusp(3, 2)
    assert moebius(Cusp.infinity(), 0, -1, 1, 0) == Cusp(0, 1)


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
    for pos, col in enumerate(space.presentation.free_columns):
        i, j = divmod(col, len(space.p1))
        a, b, c, d = sl2_lift(*space.p1.points[j], space.level)
        mono = HomogeneousPoly.monomial(space.module.k, i)
        coeff = mono.subst(d, -b, -c, a)  # g acting on the monomial
        s = ModularSymbol(Cusp(b, d), Cusp(a, c), coeff)
        assert space.project_symbol(s) == {pos: 1}


def _random_symbols(rng, k, count):
    """count symbols between random cusps, each on a random monomial."""
    out = []
    while len(out) < count:
        q1 = Cusp(rng.randint(-200, 200), rng.randint(0, 200) or 1)
        q2 = Cusp(rng.randint(-200, 200) or 1, rng.randint(0, 200))
        if q1 != q2:
            out.append(ModularSymbol(q1, q2, HomogeneousPoly.monomial(k, rng.randrange(k))))
    return out


def test_project_symbol_rational_coefficient_scales_the_integer_projection():
    # (1/3) X^i Y^(k-1-i) tensor [q1, q2] is (1/3 mod p) times the
    # projection of the integer symbol, on V and on both sign quotients.
    rng = random.Random(29)
    whole = build_space(11, 3)
    for space in (whole, whole.sign_quotient(1), whole.sign_quotient(-1)):
        p = space.field.p
        third = pow(3, -1, p)
        for s in _random_symbols(rng, space.module.k, 15):
            scaled = ModularSymbol(s.q1, s.q2, HomogeneousPoly([Fraction(c, 3) for c in s.coeff.coeffs]))
            want = {r: v * third % p for r, v in space.project_symbol(s).items()}
            assert space.project_symbol(scaled) == want, (space.sign, s)


def test_project_symbol_agrees_at_both_field_primes():
    # The quotient coordinates of a symbol with rational coefficients are
    # rationals of small height; both field primes must give the same ones.
    rng = random.Random(31)
    for level, k in ((11, 1), (37, 1), (11, 3)):
        space = build_space(level, k)
        twin = space.partner()
        assert space.presentation.free_columns == twin.presentation.free_columns
        for s in _random_symbols(rng, k, 10):
            coeff = HomogeneousPoly([Fraction(c * rng.choice((1, -2, 5)), rng.choice((1, 3, 7)))
                                     for c in s.coeff.coeffs])
            s = ModularSymbol(s.q1, s.q2, coeff)
            coords = [sp.project_symbol(s) for sp in (space, twin)]
            assert coords[0].keys() == coords[1].keys(), (level, k, s)
            for r, v in coords[0].items():
                assert (rational_reconstruct(v, 10**8, space.field)
                        == rational_reconstruct(coords[1][r], 10**8, twin.field)), (level, k, s, r)


def test_project_symbol_rejects_wrong_degree_and_vanishing_denominator():
    space = build_space(11, 3)
    p = space.field.p
    with pytest.raises(ValueError, match="wrong degree"):
        space.project_symbol(sym(0, 1, 1, 0, ONE))
    with pytest.raises(ArithmeticError, match="denominator"):
        space.project_symbol(sym(0, 1, 1, 0, HomogeneousPoly((0, Fraction(1, p), 0))))


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
        assert pl.index(c, d) == pl.index(u * c, u * d)


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
                        pl.index(c, d)
                    continue
                assert pl.points[pl.index(c, d)] == want, (n, c, d)


def test_projective_line_points_match_brute_force():
    for n in range(4, 61):
        if n in primes_upto(60):
            continue
        pl = ProjectiveLine(n)
        pairs = [(c, d) for c in range(n) for d in range(n) if math.gcd(math.gcd(c, d), n) == 1]
        assert pl.points == sorted({pl.points[pl.index(c, d)] for c, d in pairs}), n
        # Independently of the canonical form: the classes are the orbits of the
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
    x + (sigma.x) + (sigma^2.x) = 0; on a sign quotient with sign e it
    also contributes its star row x - e (-1)^i x_(i, (-c:d)) = 0.  All
    the rows are brought to reduced echelon form in one piece.
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
            if space.sign is not None:
                entries.append((nrows, i * npts + j, 1))
                entries.append((nrows, i * npts + p1.index(-c, d), -space.sign * (-1) ** i))
                nrows += 1
    pivots, rows = reduced_echelon(FieldMatrix.from_entries(fld, nrows, k * npts, entries))
    pivset = set(pivots)
    free = [g for g in range(k * npts) if g not in pivset]
    free_pos = {g: t for t, g in enumerate(free)}
    expr = {
        c: {free_pos[g]: (fld.p - v) % fld.p for g, v in row.items() if g != c}
        for c, row in zip(pivots, rows)
    }
    return free, expr


@pytest.mark.parametrize("k", [1, 3, 5])
def test_presentation_matches_full_relation_echelon(k):
    # Prime levels with and without fixed points of S (p = 1 mod 4) and
    # of sigma (p = 1 mod 3), prime powers and products; the whole space
    # and both sign quotients, at both primes.
    levels = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 19, 25, 27, 30, 36, 37, 40]
    for n in levels:
        whole = build_space(n, k)
        for primary in (whole, whole.sign_quotient(1), whole.sign_quotient(-1)):
            for space in (primary, primary.partner()):
                fld = space.field
                free, expr = reference_presentation(space)
                assert space.presentation.free_columns == free, (n, k, fld.p, space.sign)
                expr.update({g: {t: 1} for t, g in enumerate(free)})
                for g in range(k * len(space.p1)):
                    assert project_generator(space, g) == expr[g], (n, k, fld.p, space.sign, g)



def reference_relations(space):
    """The integer relations, built orbit by orbit: (rep, reps, rows) as
    `ManinBasisSpace._integer_relations` returns them.

    Each two-term orbit of <S> (or <S, iota> on a sign quotient) is
    listed with its coefficients and written on its largest generator,
    or killed when a generator occurs in it with both signs.  Each
    sigma-orbit's k triangle rows are summed term by term on the
    representative columns, zero entries dropped, and all the rows are
    sorted by (len, -max, -min).
    """
    k, sign, p1 = space.module.k, space.sign, space.p1
    npts = len(p1)
    monos = space.module.monomials()
    u_img = [m.subst(-1, -1, 1, 0) for m in monos]
    u2_img = [m.subst(0, 1, -1, -1) for m in monos]
    s_pt = [p1.index(d, -c) for c, d in p1.points]
    i_pt = [p1.index(-c, d) for c, d in p1.points]
    rep = {}
    for i in range(k):
        base, flip, c_s = i * npts, (k - 1 - i) * npts, (-1) ** (i + 1)
        for j in range(npts):
            if base + j in rep:
                continue
            orbit = [(base + j, 1), (flip + s_pt[j], c_s)]  # (h, c): x_g = c x_h
            if sign is not None:
                orbit += [(base + i_pt[j], -sign * c_s), (flip + i_pt[s_pt[j]], -sign)]
            coef = dict(orbit)
            if len(coef) == len(set(orbit)):
                r = max(coef)
                for h, c in coef.items():
                    rep[h] = (r, c * coef[r])
    reps = sorted({r for r, _ in rep.values()})
    col_of = {r: t for t, r in enumerate(reps)}
    rep = {g: (col_of[r], c) for g, (r, c) in rep.items()}
    rows = []
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
            row = {}
            for g, v in terms:
                if g in rep:
                    col, s = rep[g]
                    row[col] = row.get(col, 0) + v * s
            row = {col: v for col, v in row.items() if v}
            if row:
                rows.append(row)
    rows.sort(key=lambda r: (len(r), -max(r), -min(r)))
    return rep, reps, rows


@pytest.mark.parametrize("k", [1, 3, 5])
def test_integer_relations_match_orbit_by_orbit_reference(k):
    # The same representatives, signs and triangle rows, in the same row
    # order (which fixes the echelon's rows), on V, V+ and V-.
    for n in range(1, 61):
        whole = build_space(n, k)
        for space in (whole, whole.sign_quotient(1), whole.sign_quotient(-1)):
            rep, reps, rows = space._integer_relations()
            want_rep, want_reps, want_rows = reference_relations(space)
            assert rep == want_rep, (n, k, space.sign)
            assert reps == want_reps, (n, k, space.sign)
            assert rows == want_rows, (n, k, space.sign)
            assert [list(r) for r in rows] == [list(r) for r in want_rows], (n, k, space.sign)


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
        assert space.dim - space.cuspidal_dim == dim_eisenstein(level, 2)
    for level in (4, 6, 9, 10):
        space = build_space(level, 3)
        assert space.cuspidal_dim == 2 * dim_cusp_forms(level, 4)
        assert space.dim - space.cuspidal_dim == dim_eisenstein(level, 4)


def test_even_k_rejected():
    with pytest.raises(UnsupportedWeight):
        build_space(11, 2)


@pytest.mark.parametrize("k", [2, 0, -1, -2])
def test_unsupported_k_is_an_input_error(k):
    # Every k below 1 as well as every even k, with the CLI's message.
    with pytest.raises(UnsupportedWeight) as info:
        build_space(11, k)
    assert isinstance(info.value, InputError)
    assert str(info.value) == (
        f"weight {k + 1} means k = {k}, which is not supported (even weights only)")


@pytest.mark.parametrize("level", [0, -11])
def test_nonpositive_level_is_an_input_error(level):
    with pytest.raises(BadLevel, match="^level must be positive$") as info:
        build_space(level, 1)
    assert isinstance(info.value, InputError)


# -- Hecke operators ---------------------------------------------------------


def merel_heilbronn(n):
    """Merel's set X_n: all (a, b, e, f) with a > b >= 0, f > e >= 0 and
    af - be = n (LNM 1585, 1994).  Since be <= (a-1)(f-1), a + f <= n + 1."""
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


def heilbronn_hecke_matrix(space, heil, project=None):
    """The matrix of sum over h in heil of h acting on Manin symbols (the
    `hecke_matrix` formula), each image generator projected on its own by
    `project` (`project_generator` by default).  With merel_heilbronn(n)
    it is T_n for every n prime to the level."""
    project = project or (lambda g: project_generator(space, g))
    npts = len(space.p1)
    p = space.field.p
    monos = space.module.monomials()
    entries = []
    for pos, col in enumerate(space.presentation.free_columns):
        i, j = divmod(col, npts)
        c, d = space.p1.points[j]
        column = {}
        for a, b, e, f in heil:
            t = space.p1.index(c * a + d * e, c * b + d * f)
            for m, cm in enumerate(monos[i].subst(a, b, e, f).coeffs):
                for r, v in project(m * npts + t).items():
                    column[r] = (column.get(r, 0) + cm * v) % p
        entries += [(r, pos, v) for r, v in column.items() if v]
    return FieldMatrix.from_entries(space.field, space.dim, space.dim, entries)


def test_hecke_identity_coset():
    space = build_space(11, 1)
    assert heilbronn_hecke_matrix(space, merel_heilbronn(1)) == \
        FieldMatrix.identity(space.field, space.dim)


def test_heilbronn_matches_brute_force():
    # a > b >= 0, f > e >= 0 and af - be = n, searched well past a, f <= n.
    brute = {n: [] for n in range(1, 31)}
    for a in range(1, 40):
        for f in range(1, 40):
            for b in range(a):
                for e in range(f):
                    if 0 < a * f - b * e <= 30:
                        brute[a * f - b * e].append((a, b, e, f))
    assert [len(merel_heilbronn(n)) for n in range(1, 6)] == [1, 4, 7, 13, 15]
    for n in range(1, 31):
        got = merel_heilbronn(n)
        assert len(set(got)) == len(got), n
        assert sorted(got) == sorted(brute[n]), n


def test_cremona_heilbronn_sizes_and_determinants():
    # At l = 2 Cremona's list is Merel's X_2; at odd l it is shorter.
    assert sorted(_heilbronn(2)) == sorted(merel_heilbronn(2))
    for l, size in [(2, 4), (3, 6), (5, 12), (7, 18), (11, 30), (13, 38)]:
        got = _heilbronn(l)
        assert len(got) == size, l
        assert len(set(got)) == size, l
        assert all(a * f - b * e == l for a, b, e, f in got), l


def fraction_heilbronn(l):
    """`_heilbronn` with each nearest-integer quotient taken as
    round(Fraction(a, b)), ties to even: the reference form."""
    if l == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    out = [(1, 0, 0, l)]
    for r in range(-(l // 2), l // 2 + 1):
        x1, x2, y1, y2, a, b = l, -r, 0, 1, -l, r
        out.append((x1, x2, y1, y2))
        while b:
            q = round(Fraction(a, b))
            a, b, x1, x2, y1, y2 = -b, a - q * b, x2, q * x2 - x1, y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


def test_cremona_heilbronn_matches_the_fraction_form():
    # Integer rounding gives the very lists of round(Fraction(a, b)) at
    # every prime below 2000; ties occur (at r = +-2, -l/2 is a
    # half-integer), and both round them to even.
    for l in primes_upto(1999):
        assert _heilbronn(l) == fraction_heilbronn(l), l


def test_every_cremona_heilbronn_matrix_counts(monkeypatch):
    # Dropping any one matrix of the list changes T_l on one of three
    # spaces, so a list that lost a matrix cannot pass for T_l.
    spaces = [build_space(level, k) for level, k in [(37, 3), (11, 1), (13, 3)]]
    lists = {l: _heilbronn(l) for l in (3, 5, 7, 11)}
    wants = {l: [sp.hecke_matrix(l) if sp.level % l else None for sp in spaces] for l in lists}
    for l, full in lists.items():
        want = wants[l]
        for drop in range(len(full)):
            monkeypatch.setattr(modsym, "_heilbronn", lambda _l: full[:drop] + full[drop + 1:])
            changed = False
            for sp, t in zip(spaces, want):
                if t is None:
                    continue
                del sp._hecke_cache[l]
                changed = changed or sp.hecke_matrix(l) != t
                sp._hecke_cache[l] = t
            assert changed, (l, full[drop])


def reference_hecke_matrix(space, n):
    """T_n by the symbol-level action and continued-fraction reduction.

    The free generator (X^i Y^(k-1-i), g) goes to the sum over the cosets
    [[a, b], [0, d]] (ad = n, 0 <= b < d) of h0 = coset * g acting on
    X^i Y^(k-1-i) tensor [0, oo], each image projected by project_symbol.
    """
    cosets = [(a, b, 0, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(n // a)]
    columns = []
    for col in space.presentation.free_columns:
        i, j = divmod(col, len(space.p1))
        mono = HomogeneousPoly.monomial(space.module.k, i)
        g11, g12, g21, g22 = sl2_lift(*space.p1.points[j], space.level)
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
    for level in levels:
        whole = build_space(level, k)
        for primary in (whole, whole.sign_quotient(1), whole.sign_quotient(-1)):
            for space in (primary, primary.partner()):
                fld = space.field
                for n in (1, 2, 3, 4, 5, 6, 7, 9):
                    if math.gcd(n, level) != 1:
                        continue
                    # Cremona's matrices at a prime, Merel's at any other n
                    got = (space.hecke_matrix(n) if n in (2, 3, 5, 7)
                           else heilbronn_hecke_matrix(space, merel_heilbronn(n)))
                    assert got == reference_hecke_matrix(space, n), (level, k, space.sign, n, fld.p)


@pytest.mark.parametrize("level,k,l", [(90, 3, 7), (84, 3, 5), (96, 3, 5), (78, 3, 5)])
def test_hecke_follows_long_push_chains(level, k, l):
    # The heaviest presentation-sparse items, where the expression table
    # chains pivot to pivot nine to fourteen deep, through pivots whose
    # integer leads are not 1 and are inverted at each prime on the way.
    # The reference acts by Merel's Heilbronn matrices and projects each
    # image generator by the reduced echelon of the full relation matrix,
    # sharing no code with the pushes; at N = 84 also on both sign
    # quotients at both field primes.
    whole = build_space(level, k)
    spaces = [whole]
    if level == 84:
        spaces += [s for e in (1, -1) for s in (whole.sign_quotient(e), whole.sign_quotient(e).partner())]
    for space in spaces:
        pushes = space.presentation.pushes
        depth, scaled = {}, {}
        for c, (u, _, to_pivots) in reversed(pushes.items()):
            depth[c] = 1 + max((depth[j] for j, _ in to_pivots), default=0)
            scaled[c] = u != 1 or any(scaled[j] for j, _ in to_pivots)
        assert max(depth.values()) >= 4, (level, space.sign)
        assert sum(scaled.values()) > len(pushes) // 4, (level, space.sign)
        assert space.presentation.inverse == {
            u: pow(u, -1, space.field.p) for u, _, _ in pushes.values() if u != 1}
        free, expr = reference_presentation(space)
        expr.update({g: {t: 1} for t, g in enumerate(free)})
        want = heilbronn_hecke_matrix(space, merel_heilbronn(l), expr.__getitem__)
        assert space.hecke_matrix(l) == want, (level, k, l, space.sign, space.field.p)


@pytest.mark.parametrize("level,k,l", [(26, 9, 3), (29, 11, 2)])
def test_hecke_with_pushes_wider_than_the_field_prime(level, k, l):
    # At high weight the exact echelon rows grow: here the whole space
    # has pushes of 77 bits, wider than either working prime.  T_l on V
    # and on both sign quotients, at both primes, still equals the
    # reference by Merel's Heilbronn matrices and the full relation
    # matrix's reduced echelon.
    whole = build_space(level, k)
    assert push_bits(whole) > max(whole.context.primary.p, whole.context.secondary.p).bit_length()
    spaces = [whole, whole.partner()] + [
        s for e in (1, -1) for s in (whole.sign_quotient(e), whole.sign_quotient(e).partner())]
    for space in spaces:
        free, expr = reference_presentation(space)
        assert space.presentation.free_columns == free, (level, space.sign)
        expr.update({g: {t: 1} for t, g in enumerate(free)})
        want = heilbronn_hecke_matrix(space, merel_heilbronn(l), expr.__getitem__)
        assert space.hecke_matrix(l) == want, (level, k, l, space.sign, space.field.p)


def test_a_lead_divisible_by_the_prime_is_unlucky(monkeypatch):
    # The integer row operations are invertible mod p only when p divides
    # none of the echelon's leads.  With one lead made a multiple of the
    # primary prime, a space presented at that prime raises UnluckyPrime;
    # at the secondary prime the same quotient is sound, and the partner
    # that takes it presents as a space built fresh there does.
    echelonize = modsym.echelonize

    def spoilt(rows):
        pivots, echelon, leads = echelonize(rows)
        leads[len(leads) // 2] *= modsym._default_context().primary.p
        return pivots, echelon, leads

    monkeypatch.setattr(modsym, "echelonize", spoilt)
    primary = build_space(37, 3).sign_quotient(1)
    twin = primary.partner()
    with pytest.raises(UnluckyPrime, match="divides the relation echelon lead"):
        primary.presentation
    got = twin.hecke_matrix(2)
    monkeypatch.undo()
    ref = build_space(37, 3, context=FieldContext.default(twin.field.p)).sign_quotient(1)
    assert got == ref.hecke_matrix(2)
    assert twin.cuspidal_subspace == ref.cuspidal_subspace


def test_projected_generator_is_a_copy():
    # project_generator hands out a new dict, and `_project` new rows:
    # mutating either must not reach the presentation that a later Hecke
    # matrix reads.
    for sign in (None, 1, -1):
        space, ref = (s if sign is None else s.sign_quotient(sign)
                      for s in (build_space(37, 3), build_space(37, 3)))
        for g in range(space.module.k * len(space.p1)):
            coords = project_generator(space, g)
            assert coords == project_generator(ref, g)
            for pos in list(coords):
                coords[pos] = 12345
            coords[space.dim] = 1
            for row in space._project([{g: 1}]).rows:
                for pos in list(row):
                    row[pos] = 12345
                row[1] = 1
        assert space.presentation == ref.presentation
        assert space.hecke_matrix(2) == ref.hecke_matrix(2)
        assert space.hecke_matrix(2) == reference_hecke_matrix(space, 2)


def test_bad_prime_rejected():
    space = build_space(11, 1)
    with pytest.raises(BadPrime, match="11 divides the level 11"):
        hecke_operator(space, 11)
    with pytest.raises(BadPrime, match="4 is not prime"):
        hecke_operator(space, 4)
    for n in (1, 4, 9):
        with pytest.raises(BadPrime, match=f"{n} is not prime"):
            space.hecke_matrix(n)
    with pytest.raises(BadPrime, match="11 divides the level 11"):
        space.hecke_matrix(11)


def test_level11_cuspidal_scalars_match_point_counts():
    space = build_space(11, 1)
    p = space.field.p
    for l in (2, 3, 5, 7, 13):
        t = restrict_operator([hecke_operator(space, l)],
                              space.cuspidal_subspace)[0]
        want = scaled(FieldMatrix.identity(space.field, 2), curve11_ap(l) % p)
        assert t == want


def test_restrict_to_eigenline_is_1x1():
    # T_2 restricted to a line inside its eigenspace is the 1x1 matrix [-2].
    space = build_space(11, 1)
    p = space.field.p
    t2 = hecke_operator(space, 2)
    line_vec = space.cuspidal_subspace.basis[0]
    from heckeledger.exactlin import Subspace

    line = Subspace(space.dim, (line_vec,), space.field)
    r = restrict_operator([t2], line)[0]
    assert r.nrows == 1 and r.rows[0].get(0, 0) == (p - 2)


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
            restrict_operator([hecke_operator(space, l)], space.cuspidal_subspace)[0]


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
    # trace formula shares no code with the Heilbronn Hecke matrices.
    for level in levels:
        space = build_space(level, weight - 1)
        p = space.field.p
        # 11 and 13: Cremona's list has 30 and 38 matrices, Merel's 49 and 63
        for l in (2, 3, 5, 7, 11, 13):
            if level % l == 0:
                continue
            t = restrict_operator([hecke_operator(space, l)],
                                  space.cuspidal_subspace)[0]
            got = sum(t.rows[i].get(i, 0) for i in range(t.nrows)) % p
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
            boundary = space._build_boundary()
            assert boundary.matmul(t) == scaled(boundary, l + 1)


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


def merel_t4(space):
    """T_4 from Merel's X_4: Cremona's list serves primes only."""
    return heilbronn_hecke_matrix(space, merel_heilbronn(4))


def test_weight4_level5_system_and_recursion():
    space = build_space(5, 3)
    cov = cuspidal_coverage(space, [2, 3])
    assert cov.unresolved_dim == 0
    assert len(cov.systems) == 1
    s = cov.systems[0]
    assert s.eigenvalues[2] == Fraction(-4)
    assert s.eigenvalues[3] == Fraction(2)
    # Hecke recursion at weight 4: T_4 = T_2^2 - 8 on the cuspidal part.
    t2, t4 = restrict_operator([space.hecke_matrix(2), merel_t4(space)],
                               space.cuspidal_subspace)
    assert t4 == t2.matmul(t2).add_scaled(FieldMatrix.identity(space.field, t2.nrows), -8)


def test_weight4_level11_irrational_orbit():
    # The level-11 weight-4 orbit has a_2 satisfying x^2 - 2x - 2 = 0,
    # so no rational eigensystem exists; the census must say so rather
    # than report garbage.  The Hecke recursion still holds exactly as
    # a matrix identity over the field.
    space = build_space(11, 3)
    cov = cuspidal_coverage(space, [2])
    assert cov.systems == []
    assert cov.unresolved_dim == 4
    t2, t4 = restrict_operator([space.hecke_matrix(2), merel_t4(space)],
                               space.cuspidal_subspace)
    assert t4 == t2.matmul(t2).add_scaled(FieldMatrix.identity(space.field, t2.nrows), -8)
    from heckeledger.exactlin import charpoly

    f, _ = charpoly(t2)
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
    t2, t4 = restrict_operator([space.hecke_matrix(2), merel_t4(space)],
                               space.cuspidal_subspace)
    assert t4 == t2.matmul(t2).add_scaled(FieldMatrix.identity(space.field, t2.nrows), -2)


def test_level199_all_orbits_irrational():
    # No integer in the weight-2 Ramanujan range at l = 2 is an
    # eigenvalue modulo either working prime, certifying that every
    # orbit at level 199 is irrational and the empty census is honest.
    from heckeledger.exactlin import charpoly

    space = build_space(199, 1)
    for sp in (space, space.partner()):
        t2 = restrict_operator([sp.hecke_matrix(2)], sp.cuspidal_subspace)[0]
        f, _ = charpoly(t2)
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
    t2, t4 = restrict_operator([space.hecke_matrix(2), merel_t4(space)],
                               space.cuspidal_subspace)
    assert t4 == t2.matmul(t2).add_scaled(FieldMatrix.identity(space.field, t2.nrows), -2**11)


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
    got = [(tuple(s.eigenvalues[l] for l in (2, 97)), s.dim) for s in cov.systems]
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
    """Replace T_2 at the partner prime of both sign quotients, which the
    census and the winding vanishing test use, by T_2 + I, so the primes
    disagree."""
    for sign in (1, -1):
        twin = space.sign_quotient(sign).partner()
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


# -- the sign quotients against independent references ----------------------


@pytest.mark.parametrize(
    "levels, k",
    [(range(1, 101), k) for k in (1, 3, 5)] + [([1, 17], 11)],
    ids=["k1-N<=100", "k3-N<=100", "k5-N<=100", "k11-N=1,17"],
)
def test_sign_quotients_match_dimension_and_trace_formulas(levels, k):
    # Each sign quotient's cuspidal part is one copy of S_(k+1)(Gamma0(N)),
    # so its dimension and its traces come from formulas that share no
    # code with the presentation or the Heilbronn Hecke matrices.  The summary,
    # read off the quotients, gives the whole presentation's dimensions.
    for level in levels:
        space = build_space(level, k)
        summary = space_summary(space)
        assert (summary["quotient_dim"], summary["cuspidal_dim"], summary["eisenstein_dim"]) == (
            space.dim, space.cuspidal_dim, space.dim - space.cuspidal_dim), (level, k)
        quotients = [space.sign_quotient(sign) for sign in (1, -1)]
        for q in quotients:
            assert q.cuspidal_dim == dim_cusp_forms(level, k + 1), (level, k, q.sign)
            p = q.field.p
            for l in (2, 3, 5, 7, 11, 13):
                if level % l == 0:
                    continue
                t = restrict_operator([q.hecke_matrix(l)], q.cuspidal_subspace)[0]
                got = sum(t.rows[i].get(i, 0) for i in range(t.nrows)) % p
                assert got == hecke_trace(l, level, k + 1) % p, (level, k, q.sign, l)


def test_sign_quotient_is_cached_and_keeps_its_sign():
    space = build_space(11, 3)
    plus = space.sign_quotient(1)
    assert space.sign_quotient(1) is plus and plus.p1 is space.p1
    twin = plus.partner()
    assert (twin.sign, twin.field) == (1, space.context.secondary)
    assert twin.partner() is plus
    with pytest.raises(ValueError):
        plus.sign_quotient(-1)
    with pytest.raises(ValueError):
        space.sign_quotient(0)


# -- reference: the census on the halves of the star involution ---------------
#
# Before the census ran on the sign quotients it ran on the two halves
# H+- = ker(iota -+ 1) of the cuspidal subspace of the whole space: every
# whole-space T_l restricted to both halves, split in lockstep, and each
# candidate confirmed at the partner prime by one whole-space kernel of
# the boundary rows stacked under every T_l - a_l.  The references below
# keep that computation.


def _star_involution(space):
    """The star involution iota = [[-1, 0], [0, 1]] on the quotient basis.

    It sends the Manin generator (X^i Y^(k-1-i), (c:d)) to
    (-1)^i (X^i Y^(k-1-i), (-c:d)); column t is the projected image of
    free generator t.
    """
    p = space.field.p
    p1 = space.p1
    npts = len(p1)
    rows = [{} for _ in range(space.dim)]
    for pos, col in enumerate(space.presentation.free_columns):
        i, j = divmod(col, npts)
        c, d = p1.points[j]
        sign = 1 if i % 2 == 0 else p - 1
        for r, w in project_generator(space, i * npts + p1.index(-c, d)).items():
            rows[r][pos] = w * sign % p
    return FieldMatrix(space.field, space.dim, space.dim, rows)


def _stacked_kernel(ops, values, boundary):
    """The common kernel of the boundary map and every op - value I, by
    one echelon of all their rows stacked."""
    eye = FieldMatrix.identity(boundary.field, boundary.ncols)
    rows = [r for op, v in zip(ops, values) for r in op.add_scaled(eye, -v).rows]
    rows += boundary.rows
    return rank_and_kernel(FieldMatrix(boundary.field, len(rows), boundary.ncols, rows))[1]


def _star_halves(space):
    star = _star_involution(space)
    return [_stacked_kernel([star], [sign], space._build_boundary()) for sign in (1, -1)]


def _halves_coverage(space, primes):
    """(systems, unresolved) of the census on the star-involution halves."""
    primes = sorted(primes)
    ops = [hecke_operator(space, l) for l in primes]
    plus, minus = (restrict_operator(ops, h) for h in _star_halves(space))
    w = space.module.weight
    split = split_eigenspaces(plus, [math.isqrt(4 * l ** (w - 1)) for l in primes], [minus])
    p = space.field.p
    candidates = [(tuple(Fraction(signed_lift(v, p)) for v in eig.values), eig.dim)
                  for eig in split.eigenspaces]
    twin = space.partner()
    twin_ops = [hecke_operator(twin, l) for l in primes]
    confirmed = sorted(
        (fracs, dim) for fracs, dim in candidates
        if _stacked_kernel(twin_ops, [twin.field.elem(f) for f in fracs],
                           twin._build_boundary()).dim == dim
    )
    covered = sum(dim for _, dim in confirmed)
    return confirmed, {
        "no_bounded_integer_root": split.unsplit_dim,
        "defective": sum(dim for _, dim in split.defective),
        "prime_disagreement": sum(dim for _, dim in candidates) - covered,
    }


@pytest.mark.parametrize(
    "level, k",
    [(level, k) for level in (11, 35, 37, 55, 64, 89) for k in (1, 3)] + [(1, 11), (17, 11)],
)
def test_star_involution_halves(level, k):
    # iota is an involution commuting with the T_l, and each half
    # H+- = ker(iota -+ 1) in the cuspidal subspace of the whole space is
    # isomorphic, as a Hecke module, to the cuspidal part of the sign
    # quotient V/(iota -+ 1)V: same dimension, same characteristic
    # polynomial of every T_l.
    space = build_space(level, k)
    star = _star_involution(space)
    assert star.matmul(star) == FieldMatrix.identity(space.field, space.dim)
    for l in (2, 3, 5, 7):
        if level % l:
            t = hecke_operator(space, l)
            assert star.matmul(t) == t.matmul(star), l
    for sign, half in zip((1, -1), _star_halves(space)):
        quotient = space.sign_quotient(sign)
        assert half.dim == quotient.cuspidal_dim
        eye = FieldMatrix.identity(space.field, space.dim)
        assert rank_and_kernel(star.add_scaled(eye, -sign))[1].dim == quotient.dim
        for l in (2, 3, 5, 7):
            if level % l:
                on_half = restrict_operator([hecke_operator(space, l)], half)[0]
                on_quotient = restrict_operator([quotient.hecke_matrix(l)],
                                                quotient.cuspidal_subspace)[0]
                assert charpoly(on_half)[0] == charpoly(on_quotient)[0], l


def _coverage_cases():
    """The 54-case sweep of three levels, six weights and three prime
    lists (two with a large Deligne bound), then every case of the split
    reference test."""
    cases = [pytest.param(level, k, primes, id=f"{level}-{k}-{'.'.join(map(str, primes))}")
             for level in (17, 29, 37) for k in (1, 3, 5, 7, 9, 11)
             for primes in ([2, 3, 5, 7], [13], [31])]
    cases += [pytest.param(level, k, [2, 3], id=f"{level}-{k}-2.3")
              for k in (1, 3) for level in (11, 13, 37, 89, 35, 55)]
    cases += [pytest.param(level, 5, [2, 3], id=f"{level}-5-2.3") for level in (11, 13)]
    return cases


@pytest.mark.parametrize("level, k, primes", _coverage_cases())
def test_coverage_matches_halves_reference(level, k, primes):
    space = build_space(level, k)
    cov = cuspidal_coverage(space, primes)
    got = [(tuple(s.eigenvalues[l] for l in primes), s.dim) for s in cov.systems]
    assert (got, cov.unresolved) == _halves_coverage(space, primes)


def _shrink_cuspidal(quotient, by):
    """Drop the last `by` basis vectors of a quotient's cuspidal subspace."""
    cusp = quotient.cuspidal_subspace
    quotient.cuspidal_subspace = Subspace(cusp.ambient_dim, cusp.basis[:cusp.dim - by], cusp.field)


def test_star_halves_are_checked():
    # One quotient's cuspidal dimension off: the halves no longer add up.
    space = build_space(37, 1)
    _shrink_cuspidal(space.sign_quotient(-1), 1)
    with pytest.raises(HalvesMismatch):
        cuspidal_coverage(space, [2])
    # Equal dimensions but different Hecke modules: T_2 + I on one side.
    space = build_space(37, 1)
    minus = space.sign_quotient(-1)
    minus._hecke_cache[2] = minus.hecke_matrix(2).add_scaled(
        FieldMatrix.identity(minus.field, minus.dim), 1)
    with pytest.raises(FamilyMismatch):
        cuspidal_coverage(space, [2])


def test_quotient_operator_guards_fire():
    # A T_2 on the plus quotient that moves a cuspidal vector off the
    # cuspidal subspace, then a T_3 that keeps it but no longer
    # commutes with T_2: the census restricts and splits each quotient's
    # own operators, so each guard fires there.
    space = build_space(37, 1)
    plus = space.sign_quotient(1)
    lead = min(plus.cuspidal_subspace.basis[0])
    off = next(j for row in plus._build_boundary().rows for j in row)
    bent = scaled(plus.hecke_matrix(2), 1)
    bent.add_at(off, lead, 1)
    plus._hecke_cache[2] = bent
    with pytest.raises(NotInvariant):
        cuspidal_coverage(space, [2])
    space = build_space(37, 1)
    plus = space.sign_quotient(1)
    first, second = plus.cuspidal_subspace.basis
    bent = scaled(plus.hecke_matrix(3), 1)
    for r, v in first.items():  # + first * (coordinate at second's lead)
        bent.add_at(r, min(second), v)
    plus._hecke_cache[3] = bent
    with pytest.raises(NonCommuting):
        cuspidal_coverage(space, [2, 3])


def test_partner_cuspidal_subspace_must_be_stable():
    # The partner prime restricts each quotient's T_l to its cuspidal
    # subspace as the primary prime does, so a partner T_2 that moves a
    # cuspidal vector off that subspace raises NotInvariant there instead
    # of counting as a prime disagreement.
    space = build_space(11, 1)
    twin = space.sign_quotient(1).partner()
    lead = min(twin.cuspidal_subspace.basis[0])
    off = next(j for row in twin._build_boundary().rows for j in row)
    bent = scaled(twin.hecke_matrix(2), 1)
    bent.add_at(off, lead, 1)
    twin._hecke_cache[2] = bent
    with pytest.raises(NotInvariant):
        cuspidal_coverage(space, [2])


def test_sign_quotient_halves_must_be_equal():
    # The quotients' cuspidal dimensions add up to the whole space's, but
    # one is 3 and the other 1 (the plus quotient's cuspidal subspace
    # grows by an Eisenstein vector, the minus one loses a vector): only
    # the check of cusp+ = cusp- tells that they are not halves.  It
    # takes over from the check that iota squares to 1, which guarded a
    # column-space step the census no longer has.
    space = build_space(37, 1)
    plus = space.sign_quotient(1)
    eisenstein = {next(j for row in plus._build_boundary().rows for j in row): 1}
    cusp = plus.cuspidal_subspace
    plus.cuspidal_subspace = span(cusp.ambient_dim, list(cusp.basis) + [eisenstein], cusp.field)
    _shrink_cuspidal(space.sign_quotient(-1), 1)
    assert plus.cuspidal_dim + space.sign_quotient(-1).cuspidal_dim == space.cuspidal_dim
    with pytest.raises(HalvesMismatch, match="halves"):
        cuspidal_coverage(space, [2])


def test_space_summary_checks_the_halves(monkeypatch):
    # The summary reads the whole space's dimensions off the sign
    # quotients, so it runs the same check as the census: a plus
    # quotient whose cuspidal subspace gains an Eisenstein vector ...
    space = build_space(37, 1)
    plus = space.sign_quotient(1)
    eisenstein = {next(j for row in plus._build_boundary().rows for j in row): 1}
    cusp = plus.cuspidal_subspace
    plus.cuspidal_subspace = span(cusp.ambient_dim, list(cusp.basis) + [eisenstein], cusp.field)
    with pytest.raises(HalvesMismatch, match="halves"):
        space_summary(space)
    # ... and quotients whose dimensions do not add up to 2 dim S_w plus
    # the Eisenstein dimension (here: one cusp too many in the formula).
    space = build_space(37, 1)
    monkeypatch.setattr(modsym, "num_cusps", lambda n: num_cusps(n) + 1)
    with pytest.raises(HalvesMismatch, match="halves"):
        space_summary(space)
    with pytest.raises(HalvesMismatch, match="halves"):
        cuspidal_coverage(space, [2])


def test_census_does_not_present_the_whole_space(presentations):
    space = build_space(211, 3)
    cov = cuspidal_coverage(space, [2, 3, 5])
    assert presentations[None] == 0 and presentations[1] == presentations[-1] > 0
    assert space_summary(space)["cuspidal_dim"] == cov.cuspidal_dim
    assert presentations[None] == 0
    # The first read of the whole space presents it once, and its
    # presentation is then a plain instance attribute.
    assert space.cuspidal_dim == cov.cuspidal_dim
    assert space.dim == space.cuspidal_dim + num_cusps(211)
    assert presentations[None] == 1
    assert vars(space)["presentation"] is space.presentation
    with pytest.raises(AttributeError):
        space.not_an_attribute


def test_a_hecke_matrix_builds_no_boundary(cuspidal_builds):
    # T_l on the whole space needs only its quotient: the boundary map
    # and the cuspidal kernel are built once, when the cuspidal subspace
    # is first read, and not again.
    space = build_space(37, 3)
    space.hecke_matrix(2)
    assert "presentation" in vars(space)
    assert cuspidal_builds == {}
    once = {(None, space.field.p): 1, "rank_and_kernel": 1}
    assert space.cuspidal_dim == 2 * dim_cusp_forms(37, 4)
    assert cuspidal_builds == once
    assert space.cuspidal_dim == 2 * dim_cusp_forms(37, 4)
    assert cuspidal_builds == once


@pytest.mark.parametrize("level, partners", [(11, True), (23, False)])
def test_census_builds_one_cuspidal_kernel_per_quotient_and_prime(level, partners,
                                                                   cuspidal_builds):
    # Weight 2: at level 11 the census confirms 11a at the partner prime,
    # at level 23 (a_2 irrational) it has no candidate and no partner.
    space = build_space(level, 1)
    assert bool(cuspidal_coverage(space, [2, 3]).systems) == partners
    primes = [space.context.primary.p] + [space.context.secondary.p] * partners
    want = {(sign, p): 1 for sign in (1, -1) for p in primes}
    assert cuspidal_builds == {**want, "rank_and_kernel": len(want)}


def test_winding_pairing_builds_no_cuspidal_kernel(cuspidal_builds):
    # A nonzero pairing presents the whole space and its partner, and
    # reads their Hecke matrices only.
    space = build_space(11, 1)
    (system,) = eigensystems(space, [2, 3])
    cuspidal_builds.clear()
    assert winding_pairing(space, system) != 0
    assert "presentation" in vars(space) and "presentation" in vars(space.partner())
    assert cuspidal_builds == {}


_READS = {
    "dim": lambda sp: sp.dim,
    "cuspidal_dim": lambda sp: sp.cuspidal_dim,
    "hecke_matrix": lambda sp: sp.hecke_matrix(2),
    "_project": lambda sp: sp._project([{sp.p1.index(0, 1): 1}]),  # the winding symbol
}


@pytest.mark.parametrize("first", list(_READS))
def test_a_space_is_presented_once_whatever_reads_it_first(first, presentations):
    # Whichever read comes first presents the space, and no other read
    # presents it again; a partner holds the very cache of its primary.
    whole = build_space(11, 1)
    for space in (whole, whole.sign_quotient(-1), whole.sign_quotient(-1).partner()):
        before = sum(presentations.values())
        _READS[first](space)
        assert sum(presentations.values()) == before + 1, (first, space.sign)
        for read in _READS.values():
            read(space)
        assert sum(presentations.values()) == before + 1, (first, space.sign)
    assert whole.partner().prime_free is whole.prime_free
    assert whole.sign_quotient(-1).partner().prime_free is whole.sign_quotient(-1).prime_free


@pytest.mark.parametrize("level, partners", [(11, True), (23, False)])
def test_census_releases_the_quotients_prime_free_cache(level, partners):
    # Weight 2: the census confirms 11a and builds the partners, while at
    # level 23 a_2 is irrational and no partner is built.  Either way the
    # quotients' cache is empty afterwards and keeps nothing more.
    space = build_space(level, 1)
    assert bool(cuspidal_coverage(space, [2, 3]).systems) == partners
    for sign in (1, -1):
        q = space.sign_quotient(sign)
        assert (q._partner is not None) == partners
        q.hecke_matrix(5)
        assert q.prime_free.entries == {}, (level, sign)
        if partners:
            assert q.partner().prime_free is q.prime_free


@pytest.mark.parametrize("level", [11, 37, 89])
def test_partner_shares_the_integer_relations(level, builds):
    # A partner presented after its primary builds nothing: it takes the
    # very same prime-free quotient, relation echelon included (its
    # representative table is the primary's object) and the primary's
    # T_2 and T_3 image columns out of the cache they share, which then
    # keeps nothing.  Its T_2, T_3 and cuspidal subspace are those of a
    # space built fresh at the partner prime.
    for k in (1, 3):
        whole = build_space(level, k)
        fresh = build_space(level, k, context=FieldContext.default(whole.context.secondary.p))
        for sign in (1, -1):
            primary = whole.sign_quotient(sign)
            for l in (2, 3):
                primary.hecke_matrix(l)
            twin = primary.partner()
            builds.clear()
            got = [twin.hecke_matrix(l) for l in (2, 3)]
            assert builds == {}, (level, k, sign)
            assert twin.presentation.rep_of is primary.presentation.rep_of
            assert twin.prime_free is primary.prime_free and primary.prime_free.entries == {}
            ref = fresh.sign_quotient(sign)
            assert twin.field == ref.field
            assert got == [ref.hecke_matrix(l) for l in (2, 3)], (level, k, sign)
            assert (twin.cuspidal_subspace
                    == ref.cuspidal_subspace), (level, k, sign)


def test_partner_presents_first_without_presenting_its_primary(builds):
    # Whichever space presents first builds the prime-free quotient, and
    # with it the one relation echelon of the pair; the other takes it
    # when it is presented, and not before.
    primary = build_space(37, 3).sign_quotient(-1)
    twin = primary.partner()
    twin.hecke_matrix(2)
    assert "presentation" in vars(twin) and "presentation" not in vars(primary)
    assert set(primary.prime_free.entries) == {
        "quotient", (2, tuple(twin.presentation.free_columns))}
    got = primary.hecke_matrix(2)
    assert builds == {"_integer_relations": 1, "echelonize": 1, "_hecke_images": 1}
    assert primary.presentation.rep_of is twin.presentation.rep_of
    assert primary.prime_free.entries == {}
    assert got == build_space(37, 3).sign_quotient(-1).hecke_matrix(2)


@pytest.mark.parametrize("level,k", [(37, 3), (61, 3), (26, 9)])
def test_partner_presentation_equals_a_fresh_space_at_its_prime(level, k):
    # The partner presents from its primary's prime-free quotient and
    # runs no echelon of its own; its presentation, field by field, and
    # its Hecke matrices equal those of a space built directly at the
    # secondary prime with a cache of its own.  At (26, 9) the pushes are
    # wider than either prime.
    whole = build_space(level, k)
    fresh = build_space(level, k, context=FieldContext.default(whole.context.secondary.p))
    for sign in (None, 1, -1):
        primary = whole if sign is None else whole.sign_quotient(sign)
        ref = fresh if sign is None else fresh.sign_quotient(sign)
        twin = primary.partner()
        primary.hecke_matrix(5)
        assert twin.field == ref.field and twin.prime_free is primary.prime_free
        assert twin.presentation == ref.presentation, (level, k, sign)
        assert twin.cuspidal_subspace == ref.cuspidal_subspace, (level, k, sign)
        assert twin.presentation.pushes is primary.presentation.pushes
        for l in (5, 7, 11):
            assert twin.hecke_matrix(l) == ref.hecke_matrix(l), (level, k, sign, l)


def test_partner_builds_its_own_images_when_its_free_generators_differ(builds, monkeypatch):
    # Image columns are shared under their free generators.  Here the
    # primary's free generators are made to differ from the partner's and
    # the T_2 images it keeps under them are spoilt, so the partner must
    # not read them but build its own.
    primary = build_space(37, 3).sign_quotient(1)
    free = primary.presentation.free_columns
    other = next(g for g in range(primary.module.k * len(primary.p1)) if g not in free)
    replace_presentation(primary, free_columns=free[:-1] + [other])
    monkeypatch.setattr(primary, "_hecke_images", lambda l: [{} for _ in free])
    primary.hecke_matrix(2)
    twin = primary.partner()
    builds.clear()
    got = twin.hecke_matrix(2)
    assert builds == {"_hecke_images": 1}
    assert (2, tuple(primary.presentation.free_columns)) in primary.prime_free.entries
    ref = build_space(37, 3, context=FieldContext.default(twin.field.p)).sign_quotient(1)
    assert got == ref.hecke_matrix(2)


def test_prime_free_results_are_kept_only_for_a_partner_that_may_take_them():
    # A whole space keeps no quotient or image columns without a
    # partner, and keeps them once it has one (the winding pairing builds
    # the whole space's partner before presenting it); a sign quotient
    # keeps them for the partner the census may build, and a census that
    # confirms nothing (level 23, weight 2: a_2 is irrational) builds no
    # partner and releases them.
    whole = build_space(37, 3)
    whole.hecke_matrix(2)
    assert whole.prime_free.entries == {}
    whole = build_space(37, 3)
    twin = whole.partner()
    whole.hecke_matrix(2)
    assert set(whole.prime_free.entries) == {
        "quotient", (2, tuple(whole.presentation.free_columns))}
    twin.hecke_matrix(2)
    assert whole.prime_free.entries == {}
    quotient = build_space(37, 3).sign_quotient(1)
    quotient.hecke_matrix(2)
    assert set(quotient.prime_free.entries) == {
        "quotient", (2, tuple(quotient.presentation.free_columns))}
    space = build_space(23, 1)
    assert cuspidal_coverage(space, [2, 3]).systems == []
    for sign in (1, -1):
        q = space.sign_quotient(sign)
        assert q._partner is None and q.prime_free.entries == {}


# -- reference: the full split at both primes --------------------------------
#
# The census splits only at the primary prime and confirms each rational
# candidate at the partner prime by one joint kernel; the winding pairing
# takes its left eigenbasis as a joint kernel too.  The references below
# split everything instead, and take each left eigenbasis from one echelon
# of every shifted operator stacked, using public exactlin calls only.


def _reference_coverage(space, primes):
    """Split the cuspidal family at both primes and intersect the censuses.

    Eigenvalues are lifted by rational reconstruction at the largest
    height the field allows, which covers Deligne's bound at weight 12,
    l = 31; a root of an irrational factor that reconstructs at one
    prime does not reconstruct to the same rational at the other.
    """
    censuses = []
    for sp in (space, space.partner()):
        ops = restrict_operator([hecke_operator(sp, l) for l in primes],
                                sp.cuspidal_subspace)
        height = math.isqrt(sp.field.p // 2)
        census = set()
        for eig in split_eigenspaces(ops, [sp.field.p // 2] * len(ops)).eigenspaces:
            try:
                fracs = tuple(rational_reconstruct(v, height, sp.field) for v in eig.values)
            except NoReconstruction:
                continue
            census.add((fracs, eig.dim))
        censuses.append(census)
    return sorted(censuses[0] & censuses[1])


def _reference_left_eigenbasis(space, primes, target):
    """The left eigenspace with the given values, by one echelon of the
    shifted transposes' rows stacked, [T_2^t - a_2 I; T_3^t - a_3 I; ...]."""
    eye = FieldMatrix.identity(space.field, space.dim)
    rows = [r for l, a in zip(primes, target)
            for r in hecke_operator(space, l).transpose().add_scaled(eye, -a).rows]
    return list(rank_and_kernel(FieldMatrix(space.field, len(rows), space.dim, rows))[1].basis)


def _reference_winding_pairings(space, primes, target):
    """The winding symbol's pairings with the stacked reference's left
    eigenbasis, one dot product per basis vector."""
    m = (space.module.k - 1) // 2
    winding = project_generator(space, m * len(space.p1) + space.p1.index(0, 1))
    return [sum(v * winding.get(i, 0) for i, v in u.items()) % space.field.p
            for u in _reference_left_eigenbasis(space, primes, target)]


@pytest.mark.parametrize(
    "k, level, primes",
    [pytest.param(k, level, [2, 3], id=f"{k}-{level}")
     for k in (1, 3) for level in (11, 13, 37, 89, 35, 55)]
    + [pytest.param(5, level, [2, 3], id=f"5-{level}") for level in (11, 13)]
    # weight 12, where Deligne's bound at l = 31 exceeds 10**8; at l = 2
    # (bound 90) the roots are found by evaluation, at l = 13 and 31 by powering
    + [pytest.param(11, level, [l], id=f"11-{level}-{l}") for level in (17, 37) for l in (13, 31)]
    + [pytest.param(11, 17, [2], id="11-17-2")],
)
def test_coverage_matches_split_reference(level, k, primes):
    space = build_space(level, k)
    cov = cuspidal_coverage(space, primes)
    got = [(tuple(s.eigenvalues[l] for l in primes), s.dim) for s in cov.systems]
    assert got == _reference_coverage(space, primes)
    assert cov.unresolved_dim == space.cuspidal_dim - sum(dim for _, dim in got)
    # The causes are those of one split of the whole cuspidal space.
    w = space.module.weight
    whole = split_eigenspaces(
        restrict_operator([hecke_operator(space, l) for l in primes],
                          space.cuspidal_subspace),
        [math.isqrt(4 * l ** (w - 1)) for l in primes],
    )
    assert cov.unresolved == {
        "no_bounded_integer_root": whole.unsplit_dim,
        "defective": sum(dim for _, dim in whole.defective),
        "prime_disagreement": sum(e.dim for e in whole.eigenspaces) - sum(dim for _, dim in got),
    }
    assert sum(cov.unresolved.values()) == cov.unresolved_dim


@pytest.mark.parametrize("level", [13, 89])
def test_left_eigenbasis_matches_split_reference(level):
    # The pairings that _winding_pairings carries down the eigen_steps of
    # the transposes are the winding symbol's pairings with the left
    # eigenbasis of one stacked echelon, at both primes, and there are as
    # many as the split of the transposes finds.
    primes = [2, 3]
    space = build_space(level, 3)
    systems = cuspidal_coverage(space, primes).systems
    assert systems
    for system in systems:
        pairings = modsym._winding_pairings(space, system, primes)
        for sp, got in zip((space, space.partner()), pairings):
            ops = [hecke_operator(sp, l).transpose() for l in primes]
            dims = {e.values: e.dim
                    for e in split_eigenspaces(ops, [sp.field.p // 2] * len(ops)).eigenspaces}
            target = tuple(sp.field.elem(system.eigenvalues[l]) for l in primes)
            assert got == _reference_winding_pairings(sp, primes, target)
            assert dims[target] == len(got)


# -- winding pairing ---------------------------------------------------------


def test_winding_weight4_level5_nonzero():
    # Regression value, first computed by this implementation at two
    # primes; only the nonvanishing is meaningful.
    space = build_space(5, 3)
    (system,) = eigensystems(space, [2, 3])
    value = winding_pairing(space, system)
    assert value != 0
    assert value == Fraction(65, 16)


@pytest.mark.parametrize("level, primes, want", [
    (44, [3, 5], [(4, "0"), (2, "0"), (4, "15865/256"), (4, "2150249739/268934432")]),
    (66, [5, 7], [(4, "0"), (4, "0"), (4, "0"), (4, "40798962/32205625"), (2, "1769261/38416"),
                  (4, "547973/88200"), (2, "50225/64"), (4, "2960185/13456")]),
])
def test_winding_values_on_eigenspaces_of_dimension_above_one(level, primes, want):
    # Regression values, first computed by this implementation at two
    # primes.  On an eigenspace of dimension above 1 the value depends on
    # the left eigenbasis, so these pin the canonical (reduced echelon) one.
    space = build_space(level, 3)
    got = [(s.dim, frac_str(winding_pairing(space, s))) for s in eigensystems(space, primes)]
    assert got == want


def test_winding_pairing_above_the_height_raises(monkeypatch):
    # The level-5 weight-4 pairings are -2 and -1/4 (65/16 = 4 + 1/16);
    # at height 3 the second lifts at neither prime, and no taller lift
    # stands in for it.
    space = build_space(5, 3)
    (system,) = eigensystems(space, [2, 3])
    monkeypatch.setattr(modsym, "RECONSTRUCT_BOUND", 3)
    with pytest.raises(NoReconstruction, match="height 3") as err:
        winding_pairing(space, system)
    # The error names the system and the prime it failed at.
    eigen = ", ".join(f"a_{l} = {a}" for l, a in sorted(system.eigenvalues.items()))
    assert str(err.value).startswith(
        f"winding pairing at level 5, weight 4 ({eigen}), prime {space.field.p}: "
        "no rational of height 3 lifts ")


def test_winding_vanishing_on_whole_space_only_raises(monkeypatch):
    # The sign quotient V_e decides vanishing and the whole space V must
    # agree with it: a V that pairs to zero at both primes where V_e does
    # not is a fault, not a vanishing certificate.
    space = build_space(5, 3)
    (system,) = eigensystems(space, [2, 3])
    real = modsym._winding_pairings

    def zero_on_whole_space(sp, sys_, primes):
        values = real(sp, sys_, primes)
        return [[0] * len(v) for v in values] if sp.sign is None else values

    monkeypatch.setattr(modsym, "_winding_pairings", zero_on_whole_space)
    with pytest.raises(HalvesMismatch):
        winding_pairing(space, system)


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


def _whole_space_winding_vanishes(space, system):
    """Whether the winding symbol pairs to zero with every left
    eigenvector of the whole space, at the primary prime."""
    primes = sorted(system.eigenvalues)
    target = [space.field.elem(system.eigenvalues[l]) for l in primes]
    pairings = _reference_winding_pairings(space, primes, target)
    assert pairings
    return not any(pairings)


@pytest.mark.parametrize(
    "level, k",
    [(level, 3) for level in primes_upto(89) if level >= 11]
    + [(5, 3), (11, 1), (37, 1)],
)
def test_winding_vanishing_on_sign_quotient_matches_whole_space(level, k):
    # The census's systems at the ledger's primes: the sign-quotient
    # decision must agree with the whole-space pairing, system by system.
    space = build_space(level, k)
    systems = cuspidal_coverage(space, [2, 3]).systems
    for system in systems:
        assert (winding_pairing(space, system) == 0) == _whole_space_winding_vanishes(
            space, system), (level, k, system.eigenvalues)


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
