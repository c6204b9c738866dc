from collections import Counter

import pytest

from heckeledger.modsym import ManinBasisSpace


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
