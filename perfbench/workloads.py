"""The three workloads: inputs made from the seed, and the output checks.

The seed shuffles item order and generates the ingested CSV rows; the
set of items, and so the work, is fixed.  Every item returns its output
to a check that runs outside the timed region and shares no code with
the package: dimensions come from ``tests/oracles.py``, everything else
from digests pinned in ``expected.json`` or from the benchmark's own
expansion of the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

LEDGER_LEVELS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)
LEDGER_PRIMES = (2, 3)
PARAMODULAR_RANGE = (2, 10000)
COVERAGE_ITEMS = ((211, 3), (601, 1))
COVERAGE_PRIMES = (2, 3, 5)
PRESENTATION_ITEMS = tuple((n, k) for n in range(2, 101) for k in (1, 3))

# One item per workload, always the same, for slowest_item_s.
SLOWEST = {
    "ledger-sweep": "ledger:N=89",
    "coverage-dense": "coverage:N=211,k=3",
    "presentation-sparse": "presentation:N=90,k=3",
}

# One cheap item per workload that still reaches every layer the
# workload is expected to call; used by the self-check.
SELF_CHECK = {
    "ledger-sweep": "ledger:N=17",
    "coverage-dense": "coverage:N=601,k=1",
    "presentation-sparse": "presentation:N=37,k=3",
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Item:
    """`check` lists what is wrong with an output; `digest` is compared
    with the value pinned under the item's id in expected.json."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]


def verify(item: Item, out, expected) -> list[str]:
    bad = item.check(out)
    if not bad and item.digest(out) != expected["digests"].get(item.id):
        bad.append("output digest differs from the pinned one")
    return bad


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_digest(m) -> str:
    """Digest of a sparse matrix read from its rows, in (i, j, v) order."""
    rows = [[[j, row[j]] for j in sorted(row)] for row in m.rows]
    return _sha([m.nrows, m.ncols, rows])


def coverage_digest(cov) -> str:
    systems = sorted(
        [s.dim, [[l, str(v)] for l, v in sorted(s.eigenvalues.items())]] for s in cov.systems
    )
    return _sha([systems, cov.unresolved_dim, cov.cuspidal_dim])


def _smallest_prime_not_dividing(n: int) -> int:
    l = 2
    while n % l == 0 or any(l % d == 0 for d in range(2, l)):
        l += 1
    return l


# ---------------------------------------------------------------------------
# ledger-sweep


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def sl3_families(l: int, g: Fraction, gp: Fraction) -> dict:
    """(1 - l^3 T)(1 - g T + l g' T^2 - l^3 T^3) and
    (1 - T)(1 - l g T + l^3 g' T^2 - l^6 T^3), as decimal strings."""
    a = _poly_mul([1, -l**3], [1, -g, l * gp, -(l**3)])
    b = _poly_mul([1, -1], [1, -l * g, l**3 * gp, -(l**6)])
    return {"sl3_a": [str(Fraction(c)) for c in a], "sl3_b": [str(Fraction(c)) for c in b]}


_SEED_DEPENDENT_COUNTS = ("sl3_systems", "dim_gritsenko", "dim_non_gritsenko")


def report_core(obj: dict) -> dict:
    """The part of a ledger report that does not depend on the CSV rows."""
    core = {k: v for k, v in obj.items()
            if k not in ("eisenstein_predicted", "non_eisenstein_predicted")}
    core["constituents"] = [c for c in obj["constituents"] if c["kind"] in ("weight2", "weight4")]
    core["counts"] = {k: v for k, v in obj["counts"].items() if k not in _SEED_DEPENDENT_COUNTS}
    return core


def _check_report(text: str, level: int, sl3: dict, grit: int, s3: int, oracles) -> list[str]:
    bad = []
    obj = json.loads(text)
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    if text != canonical:
        bad.append("report is not canonical JSON")
    counts = obj["counts"]
    if counts["dim_s2"] != oracles.dim_cusp_forms(level, 2):
        bad.append(f"dim_s2 {counts['dim_s2']} != oracle")
    if counts["dim_s4"] != oracles.dim_cusp_forms(level, 4):
        bad.append(f"dim_s4 {counts['dim_s4']} != oracle")
    kinds = [c["kind"] for c in obj["constituents"]]
    if set(kinds) - {"weight2", "weight4", "sl3", "paramodular"}:
        bad.append(f"unexpected constituent kinds {sorted(set(kinds))}")
    sl3_rows = [c for c in obj["constituents"] if c["kind"] == "sl3"]
    want_fams = {name: {} for name in ("sl3_a", "sl3_b")}
    for l, (g, gp) in sl3.items():
        for name, coeffs in sl3_families(l, g, gp).items():
            want_fams[name][str(l)] = coeffs
    want_sl3 = [{"kind": "sl3", "source": f"sl3-N{level}-0", "multiplicity": 2,
                 "families": want_fams}]
    if sl3_rows != want_sl3:
        bad.append("sl3 constituent differs from the expanded input")
    param = [c for c in obj["constituents"] if c["kind"] == "paramodular"]
    want_param = [{"kind": "paramodular", "source": f"param-N{level}-S3nG",
                   "multiplicity": 2 * (s3 - grit), "families": {}}]
    if param != want_param:
        bad.append("paramodular constituent differs")
    want_counts = {"sl3_systems": 1, "dim_gritsenko": grit, "dim_non_gritsenko": s3 - grit,
                   "dim_s3_paramodular": s3}
    if any(counts.get(k) != v for k, v in want_counts.items()):
        bad.append("gritsenko or sl3 counts differ")
    if obj["non_eisenstein_predicted"] != 2 * (s3 - grit):
        bad.append("non_eisenstein_predicted differs")
    eis = sum(c["multiplicity"] for c in obj["constituents"]
              if c["kind"] in ("weight2", "weight4", "sl3"))
    if obj["eisenstein_predicted"] != eis:
        bad.append("eisenstein_predicted is not the sum of its constituents")
    return bad


def _check_paramodular(text: str, grit: dict, primes) -> list[str]:
    dims = json.loads(text)["dims"]
    bad = []
    if [d["p"] for d in dims] != primes:
        return ["paramodular range lists other primes than the oracle"]
    for d in dims:
        g = grit.get(d["p"])
        want = (None, None) if g is None else (g, d["dim_S3"] - g)
        if (d["dim_gritsenko"], d["dim_nonGritsenko"]) != want:
            bad.append(f"paramodular split at p={d['p']} differs")
    return bad


def _cli_item(cli, argv) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return run


def _exit_ok(check):
    def wrapped(out):
        code, text = out
        return [f"exit code {code}"] if code != 0 else check(text)
    return wrapped


def _report_digest(out) -> str:
    return _sha(report_core(json.loads(out[1])))


def _paramodular_digest(out) -> str:
    return _sha([[d["p"], d["dim_S3"]] for d in json.loads(out[1])["dims"]])


def ledger_sweep(pkg, rng: random.Random, scratch: Path, oracles, expected) -> list[Item]:
    cli = pkg.cli
    sl3: dict[int, dict[int, tuple[Fraction, Fraction]]] = {}
    grit: dict[int, int] = {}
    sl3_lines = ["level,prime,gamma,gamma_prime"]
    grit_lines = ["# generated", "p,dim_gritsenko"]
    for n in LEDGER_LEVELS:
        sl3[n] = {}
        for l in LEDGER_PRIMES:
            g = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            gp = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            sl3[n][l] = (g, gp)
            sl3_lines.append(f"{n},{l},{g},{gp}")
        grit[n] = rng.randint(0, expected["dim_S3"][str(n)])
        grit_lines.append(f"{n},{grit[n]}")
    sl3_path = scratch / "sl3.csv"
    grit_path = scratch / "gritsenko.csv"
    sl3_path.write_text("\n".join(sl3_lines) + "\n", encoding="utf-8")
    grit_path.write_text("\n".join(grit_lines) + "\n", encoding="utf-8")
    primes_arg = ",".join(map(str, LEDGER_PRIMES))

    items = []
    for n in LEDGER_LEVELS:
        argv = ["ledger", "--level", str(n), "--primes", primes_arg, "--sl3", str(sl3_path),
                "--gritsenko", str(grit_path), "--format", "json"]
        s3 = expected["dim_S3"][str(n)]
        check = _exit_ok(lambda text, n=n, s3=s3: _check_report(text, n, sl3[n], grit[n], s3, oracles))
        items.append(Item(f"ledger:N={n}", _cli_item(cli, argv), check, _report_digest))
    lo, hi = PARAMODULAR_RANGE
    primes = oracles.primes_upto(hi)
    argv = ["paramodular", "--range", f"{lo}..{hi}", "--gritsenko", str(grit_path),
            "--format", "json"]
    check = _exit_ok(lambda text: _check_paramodular(text, grit, primes))
    items.append(Item(f"paramodular:{lo}..{hi}", _cli_item(cli, argv), check, _paramodular_digest))
    return items


# ---------------------------------------------------------------------------
# coverage-dense and presentation-sparse


def _check_dims(space, n: int, k: int, oracles) -> list[str]:
    cusp = 2 * oracles.dim_cusp_forms(n, k + 1)
    if space.cuspidal_dim != cusp or space.dim != cusp + oracles.dim_eisenstein(n, k + 1):
        return [f"dims ({space.dim}, {space.cuspidal_dim}) disagree with the oracle"]
    return []


def coverage_dense(pkg, rng, scratch, oracles, expected) -> list[Item]:
    modsym = pkg.modsym
    items = []
    for n, k in COVERAGE_ITEMS:

        def run(n=n, k=k):
            space = modsym.build_space(n, k)
            return space, modsym.cuspidal_coverage(space, list(COVERAGE_PRIMES))

        def check(out, n=n, k=k):
            return _check_dims(out[0], n, k, oracles)

        items.append(Item(f"coverage:N={n},k={k}", run, check, lambda out: coverage_digest(out[1])))
    return items


def presentation_sparse(pkg, rng, scratch, oracles, expected) -> list[Item]:
    modsym = pkg.modsym
    items = []
    for n, k in PRESENTATION_ITEMS:
        l = _smallest_prime_not_dividing(n)

        def run(n=n, k=k, l=l):
            space = modsym.build_space(n, k)
            return space, modsym.hecke_operator(space, l)

        def check(out, n=n, k=k):
            return _check_dims(out[0], n, k, oracles)

        items.append(Item(f"presentation:N={n},k={k}", run, check, lambda out: matrix_digest(out[1])))
    return items


WORKLOADS = {
    "ledger-sweep": ledger_sweep,
    "coverage-dense": coverage_dense,
    "presentation-sparse": presentation_sparse,
}


def make_items(name: str, seed: int, pkg, scratch: Path, oracles, expected) -> list[Item]:
    """The workload's items in the order the seed gives."""
    rng = random.Random(f"{name}:{seed}")
    items = WORKLOADS[name](pkg, rng, scratch, oracles, expected)
    rng.shuffle(items)
    return items
