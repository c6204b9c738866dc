"""Layer spans recorded from outside the package, by patching its names.

The hook table below is the single list of patch points.  Each row maps
a ``(module, attribute)`` of ``heckeledger`` to a span name.  The object
found there is wrapped once and the wrapper is bound in every namespace
of the package that binds the same object (``exactlin.split_eigenspaces``
is also ``modsym.split_eigenspaces``).  A row whose object is already
claimed by an earlier row wraps the earlier wrapper in its own
namespace only, which is how ``modsym.relation_echelon`` (the
``echelonize`` that ``modsym`` calls) nests around ``exactlin.echelonize``.

A row whose target no longer exists is reported as missing; the run
goes on without it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

LEDGER, COVERAGE, PRESENTATION = "ledger-sweep", "coverage-dense", "presentation-sparse"
ALL = (LEDGER, COVERAGE, PRESENTATION)
SPLIT = (LEDGER, COVERAGE)


def _mul_adds(c, args, result):
    a, b = args[0], args[1]
    c["exactlin.matmul.mul_adds"] += sum(
        len(b.rows[j]) for row in a.rows for j in row
    )


def _degree(c, args, result):
    c["exactlin.charpoly.degree_sum"] += args[0].nrows


def _roots(c, args, result):
    c["exactlin.distinct_roots.roots"] += len(result)


def _restrict_dim(c, args, result):
    c["exactlin.restrict_operator.dim_sum"] += args[1].dim


def _density(c, args, result):
    m = args[0]
    dense = m.density > sys.modules["heckeledger.exactlin"].DENSE_THRESHOLD
    c["exactlin.echelonize.dense_calls" if dense else "exactlin.echelonize.sparse_calls"] += 1


def _nnz(c, args, result):
    c["modsym.hecke_matrix.nnz"] += sum(len(r) for r in result.rows)


def _pieces(c, args, result):
    c["modsym.unimodularize.pieces"] += len(result)


def _split_dim(c, args, result):
    c["split_dim"] += args[0][0].nrows


def _cuspidal_dim(c, args, result):
    c["cuspidal_dim"] += args[0].cuspidal_dim


def _reconstructed(c, args, result):
    c["reconstruct_ok"] += 1


def _json_bytes(c, args, result):
    c["ledger.report_to_json.bytes"] += len(result.encode("utf-8"))


@dataclass(frozen=True)
class Hook:
    """One patch point.  `span` None means count only, no span.

    Every call adds one to ``counts[hook.key]``; `count(counts, args,
    result)` then runs after each call that returned.
    """

    module: str
    attr: str  # "name" or "Class.method"
    span: Optional[str]
    expected: tuple[str, ...]  # workloads that must call it
    count: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS: tuple[Hook, ...] = (
    Hook("exactlin", "FieldMatrix.matmul", "exactlin.matmul", SPLIT, _mul_adds),
    Hook("exactlin", "charpoly", "exactlin.charpoly", SPLIT, _degree),
    Hook("exactlin", "distinct_roots", "exactlin.distinct_roots", SPLIT, _roots),
    Hook("exactlin", "poly_powmod", "exactlin.poly_powmod", SPLIT),
    Hook("exactlin", "restrict_operator", "exactlin.restrict_operator", SPLIT, _restrict_dim),
    Hook("exactlin", "rank_and_kernel", "exactlin.rank_and_kernel", ALL),
    Hook("exactlin", "echelonize", "exactlin.echelonize", ALL, _density),
    Hook("exactlin", "split_eigenspaces", "exactlin.split_eigenspaces", SPLIT, _split_dim),
    Hook("exactlin", "rational_reconstruct", None, SPLIT, _reconstructed),
    Hook("modsym", "echelonize", "modsym.relation_echelon", ALL),
    Hook("modsym", "rank_and_kernel", "modsym.cuspidal_kernel", ALL),
    Hook("modsym", "ProjectiveLine", "modsym.ProjectiveLine", ALL),
    Hook("modsym", "ManinBasisSpace.hecke_matrix", "modsym.hecke_matrix", ALL, _nnz),
    Hook("modsym", "unimodularize", None, ALL, _pieces),
    Hook("modsym", "ManinBasisSpace.partner", "modsym.partner", SPLIT),
    Hook("modsym", "cuspidal_coverage", "modsym.cuspidal_coverage", SPLIT, _cuspidal_dim),
    Hook("modsym", "winding_pairing", "modsym.winding_pairing", (LEDGER,)),
    Hook("heckepoly", "weight2_lifts", "heckepoly.lifts", (LEDGER,)),
    Hook("heckepoly", "weight4_lift", "heckepoly.lifts", (LEDGER,)),
    Hook("heckepoly", "sl3_lifts", "heckepoly.lifts", (LEDGER,)),
    Hook("heckepoly", "LiftClass", "heckepoly.LiftClass", (LEDGER,)),
    Hook("paramodular", "dim_S3", "paramodular.dim_S3", (LEDGER,)),
    Hook("paramodular", "complement_dims", "paramodular.complement_dims", (LEDGER,)),
    Hook("ledger", "build_report", "ledger.build_report", (LEDGER,)),
    Hook("ledger", "report_to_json", "ledger.report_to_json", (LEDGER,), _json_bytes),
    Hook("cli", "main", "cli.main", (LEDGER,)),
)

SPAN_NAMES = tuple(dict.fromkeys(h.span for h in HOOKS if h.span))

# Counts reported as they are, next to the spans' calls/ms/self_ms.
COUNT_NAMES = (
    "exactlin.matmul.mul_adds",
    "exactlin.charpoly.degree_sum",
    "exactlin.distinct_roots.roots",
    "exactlin.restrict_operator.dim_sum",
    "exactlin.echelonize.dense_calls",
    "exactlin.echelonize.sparse_calls",
    "modsym.hecke_matrix.nnz",
    "modsym.unimodularize.pieces",
    "ledger.report_to_json.bytes",
)



def derived_counts(c) -> dict[str, tuple[float, str]]:
    """Counts that need more than one counter, with their units."""
    attempts = c["exactlin.rational_reconstruct"]
    return {
        "modsym.unimodularize.calls": (c["modsym.unimodularize"], "count"),
        "modsym.split_dim_per_cuspidal_dim":
            (c["split_dim"] / c["cuspidal_dim"] if c["cuspidal_dim"] else 0.0, "ratio"),
        "exactlin.rational_reconstruct.ok_ratio":
            (c["reconstruct_ok"] / attempts if attempts else 0.0, "ratio"),
    }


def uncalled(counts, workload: str, missing: list[str]) -> list[str]:
    """Hooks present and expected on the workload that nothing called."""
    return [h.key for h in HOOKS
            if workload in h.expected and h.key not in missing and not counts[h.key]]


class Tracer:
    """Spans as [name, start, end, parent index, item id], kept in memory."""

    def __init__(self):
        self.item = None
        self.missing: list[str] = []  # hooks whose target is gone
        self.count_errors: set[str] = set()  # hooks whose count failed
        self.reset()

    def reset(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, hook: Hook, fn):
    span, count, key = hook.span, hook.count, hook.key

    def traced(*args, **kwargs):
        tracer.counts[key] += 1
        idx = tracer.begin(span) if span else None
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if idx is not None:
                tracer.end(idx)
            raise
        if idx is not None:
            tracer.end(idx)
        if count is not None:
            try:
                count(tracer.counts, args, result)
            except (AttributeError, TypeError, LookupError):
                # The package changed shape under the counter; report it
                # instead of failing the item.
                tracer.count_errors.add(key)
        return result

    traced.__wrapped__ = fn
    return traced


def _resolve(module, attr: str):
    """(owner, name) for a plain or dotted attribute, or None if absent."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def install(tracer: Tracer):
    """Patch every hook that resolves and return the undo list; the hooks
    that do not resolve go to `tracer.missing`."""
    package = sys.modules["heckeledger"]
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "heckeledger" or n.startswith("heckeledger.")]
    undo: list[tuple[object, str, object]] = []
    tracer.missing = []
    claimed: set[int] = set()  # ids of the objects already wrapped

    def patch(owner, name, new):
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    for hook in HOOKS:
        module = getattr(package, hook.module, None)
        found = _resolve(module, hook.attr) if module is not None else None
        if found is None:
            tracer.missing.append(hook.key)
            continue
        owner, name = found
        current = vars(owner)[name]
        original = getattr(current, "__wrapped__", current)
        if id(original) in claimed:
            # Already wrapped everywhere; add this row's span here only.
            patch(owner, name, _wrap(tracer, hook, current))
            continue
        wrapper = _wrap(tracer, hook, original)
        claimed.add(id(original))
        if "." in hook.attr:
            patch(owner, name, wrapper)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    patch(ns, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def layer_totals(spans: list[list], seconds: Callable[[float, float], float]) -> dict[str, dict[str, float]]:
    """calls, total ms and self ms per span name; `seconds(start, end)`
    is a span's duration."""
    length = [seconds(start, end) for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += length[i]
    out = {n: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for n in SPAN_NAMES}
    for i, (name, _, _, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["ms"] += length[i] * 1e3
        row["self_ms"] += (length[i] - child[i]) * 1e3
    return out


def top_level_seconds(spans: list[list], seconds: Callable[[float, float], float]) -> float:
    return sum(seconds(start, end) for _, start, end, parent, _ in spans if parent < 0)
