from collections import Counter

import pytest

from heckeledger.exactlin import FieldMatrix, Subspace, reduced_echelon
from heckeledger import modsym
from heckeledger.modsym import ManinBasisSpace


def span(ambient_dim, vectors, field):
    """The Subspace spanned by independent vectors: their reduced echelon
    basis, from one reduced echelon; ValueError if they are dependent."""
    pivots, rows = reduced_echelon(FieldMatrix(field, len(vectors), ambient_dim,
                                               [dict(v) for v in vectors]))
    if len(pivots) != len(vectors):
        raise ValueError("vectors are linearly dependent")
    return Subspace(ambient_dim, rows, field)


@pytest.fixture
def presentations(monkeypatch):
    """Counts of `ManinBasisSpace._present` calls by sign (None: the whole
    space), one per presentation built while the test runs."""
    calls = Counter()
    present = ManinBasisSpace._present

    def counted(space):
        calls[space.sign] += 1
        return present(space)

    monkeypatch.setattr(ManinBasisSpace, "_present", counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Counts of the prime-free builds made while the test runs, by name:
    `ManinBasisSpace._integer_relations`, the relation echelon
    `modsym.echelonize` and `ManinBasisSpace._hecke_images`."""
    calls = Counter()
    for owner, name in ((ManinBasisSpace, "_integer_relations"), (modsym, "echelonize"),
                        (ManinBasisSpace, "_hecke_images")):
        def counted(*args, _name=name, _build=getattr(owner, name)):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def cuspidal_builds(monkeypatch):
    """Counts of the cuspidal subspaces built while the test runs:
    `ManinBasisSpace._build_boundary` calls by (sign, field prime), and
    `modsym.rank_and_kernel` calls under "rank_and_kernel"."""
    calls = Counter()
    boundary, kernel = ManinBasisSpace._build_boundary, modsym.rank_and_kernel

    def counted_boundary(space):
        calls[space.sign, space.field.p] += 1
        return boundary(space)

    def counted_kernel(matrix):
        calls["rank_and_kernel"] += 1
        return kernel(matrix)

    monkeypatch.setattr(ManinBasisSpace, "_build_boundary", counted_boundary)
    monkeypatch.setattr(modsym, "rank_and_kernel", counted_kernel)
    return calls
