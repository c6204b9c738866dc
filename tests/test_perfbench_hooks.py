"""perfbench's hook table must keep resolving against the package.

`perfbench/layers.py` patches names of `heckeledger` from outside; a
renamed or removed name is reported as missing only when the benchmark
runs.  This test installs the hooks in process, runs one Hecke operator
under them, and checks that uninstalling puts every binding back.
"""

import importlib
import sys
from pathlib import Path

import heckeledger.cli  # noqa: F401  (every hooked module must be imported)
import heckeledger.heckepoly  # noqa: F401
import heckeledger.ledger  # noqa: F401
import heckeledger.paramodular  # noqa: F401
from heckeledger.modsym import build_space, hecke_operator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings() -> dict[tuple[str, str], object]:
    """Every name bound in a heckeledger module, and every attribute of
    the classes those modules define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "heckeledger" and not name.startswith("heckeledger."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, v in vars(value).items():
                    out[name, f"{key}.{attr}"] = v
    return out


def test_hooks_resolve_count_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    space = build_space(11, 3)  # sets the package's default field context first
    before = _bindings()
    tracer = layers.Tracer()
    undo = layers.install(tracer)
    try:
        assert tracer.missing == []
        patched = [key for key, value in _bindings().items() if value is not before[key]]
        assert patched
        hecke_operator(space, 2)
        assert tracer.count_errors == set()
        assert tracer.counts["modsym.hecke_matrix.nnz"] > 0
    finally:
        layers.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
