import ast
from pathlib import Path

import pytest

from heckeledger import eichler_selberg
from heckeledger.eichler_selberg import dim_cusp_forms, num_cusps

import oracles


def test_matches_oracles():
    # The package formula and the test oracle are separate code: the
    # oracle counts cusps over every divisor and the genus from the
    # Riemann-Hurwitz terms, the package multiplies local factors.
    for n in range(1, 1001):
        cusps = num_cusps(n)
        assert cusps == oracles.num_cusps(n), n
        for w in range(2, 13, 2):
            assert dim_cusp_forms(n, w) == oracles.dim_cusp_forms(n, w), (n, w)
            assert cusps - (w == 2) == oracles.dim_eisenstein(n, w), (n, w)


@pytest.mark.parametrize("n, w", [(0, 2), (11, 0), (11, 3), (11, -2)])
def test_rejects_bad_arguments(n, w):
    with pytest.raises(ValueError):
        dim_cusp_forms(n, w)


def test_imports_no_modular_symbols():
    # The formula checks the presentations, so it must not share their code.
    tree = ast.parse(Path(eichler_selberg.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported
                if any(part in ("modsym", "exactlin") for part in name.split("."))}
