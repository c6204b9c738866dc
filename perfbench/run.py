"""Benchmark of heckeledger: one process, one thread, three workloads.

    python3 perfbench/run.py --workload ledger-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout.  A run repeats whole passes over
the workload's items until the next pass would end after --seconds.
Times are scaled to a nominal host speed (see speed.py).  With --trace 0
it prints the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

FIELD_PRIME_ENV = "HECKE_FIELD_PRIME"
SETUP_REPEATS = 15
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import heckeledger\n"
    "ctx = heckeledger.FieldContext.default()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speed\n"
    "print(t1 - t0, speed.burst(9)[0], ctx.primary.p, ctx.secondary.p)\n"
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def measure_setup(env) -> tuple[float, list[int]]:
    """Median over fresh interpreters of import + FieldContext.default(),
    each scaled by the reference time measured right after it."""
    times, primes = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(HERE)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref, p1, p2 = proc.stdout.split()
        primes = [int(p1), int(p2)]
        if i:  # the first one may compile bytecode
            times.append(float(seconds) * speed.NOMINAL_S / float(ref))
    return statistics.median(times), primes


def load_oracles():
    """tests/oracles.py as a module, read without writing bytecode."""
    path = ROOT / "tests" / "oracles.py"
    module = types.ModuleType("oracles")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heckeledger").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Pass:
    """Per-item wall and CPU seconds of one pass, raw and scaled to the
    nominal host speed (both without the reference calls, see speed.py),
    its failures and, when traced, its spans and counts."""

    def __init__(self):
        self.raw_wall: dict[str, float] = {}
        self.raw_cpu: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.failures: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sampler: speed.Sampler | None = None


def run_pass(items, expected, tracer=None) -> Pass:
    """One pass over the items, with the host speed sampled throughout."""
    result = Pass()
    if tracer is not None:
        tracer.reset()
        result.spans, result.counts = tracer.spans, tracer.counts
    spans = {}
    with speed.Sampler() as sampler:
        for item in items:
            # Spaces and their partners form cycles; free the last item's
            # before timing the next, so that peak RSS and the time an item
            # spends collecting do not depend on the item order.
            gc.collect()
            if tracer is not None:
                tracer.item = item.id
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = item.run()
            except Exception as exc:  # a failing item is counted, the run goes on
                result.failures.append(f"{item.id}: {type(exc).__name__}: {exc}")
                out = None
            finally:
                w1, c1 = time.perf_counter(), time.process_time()
                spans[item.id] = (w0, w1, c1 - c0)
            if out is not None:
                problems = workloads.verify(item, out, expected)
                if problems:
                    result.failures.append(f"{item.id}: {'; '.join(problems)}")
                del out
    for i, (w0, w1, cpu) in spans.items():
        in_wall, in_cpu = sampler.inside(w0, w1)
        wall_factor, cpu_factor = sampler.factors(w0, w1)
        result.raw_wall[i], result.raw_cpu[i] = w1 - w0 - in_wall, cpu - in_cpu
        result.wall[i] = result.raw_wall[i] * wall_factor
        result.cpu[i] = result.raw_cpu[i] * cpu_factor
    result.sampler = sampler
    return result


def run_passes(items, expected, seconds, tracer=None) -> tuple[list[Pass], list[Pass]]:
    """Whole passes, at least one, until the next would end after `seconds`.

    With a tracer, every round is an untraced pass followed by a traced
    one, so that both see the same host conditions; returns (untraced,
    traced)."""
    started = time.perf_counter()
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(items, expected))
        if tracer is not None:
            undo = layers.install(tracer)
            try:
                traced.append(run_pass(items, expected, tracer))
            finally:
                layers.uninstall(undo)
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            return plain, traced


def per_item(passes, field, pick=statistics.median) -> dict[str, float]:
    """Each item's time over the passes, by default their median."""
    ids = getattr(passes[0], field).keys()
    return {i: pick([getattr(p, field)[i] for p in passes]) for i in ids}


def end_to_end(passes, slowest_id: str) -> dict[str, float]:
    wall = per_item(passes, "wall")
    cpu = per_item(passes, "cpu")
    ms = sorted(v * 1e3 for v in wall.values())
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "slowest_item_s": wall[slowest_id],
    }


E2E_UNITS = {
    "wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "slowest_item_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer(traced: list[Pass], overhead: float) -> dict[str, tuple]:
    """Per-pass layer metrics, the median over the traced passes."""
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def add(name, value, unit):
        samples.setdefault(name, []).append(value)
        units[name] = unit

    for p in traced:
        spans, counts = p.spans, p.counts

        def span_seconds(start, end, sampler=p.sampler):
            return end - start - sampler.inside(start, end)[0]

        for name, row in layers.layer_totals(spans, span_seconds).items():
            add(f"{name}.calls", row["calls"], "count")
            add(f"{name}.ms", row["ms"], "ms")
            add(f"{name}.self_ms", row["self_ms"], "ms")
        for name in layers.COUNT_NAMES:
            add(name, counts[name], "count")
        for name, (value, unit) in layers.derived_counts(counts).items():
            add(name, value, unit)
        item_wall = sum(p.raw_wall.values())
        add("trace.unattributed_share",
            1 - layers.top_level_seconds(spans, span_seconds) / item_wall, "ratio")
    out = {}
    for name, vals in samples.items():
        # median_low keeps a count a whole number
        mid = statistics.median_low if units[name] == "count" else statistics.median
        out[name] = (mid(vals), units[name])
    out["trace.overhead"] = (overhead, "ratio")
    return out


def write_spans(path: Path, traced) -> None:
    names = list(layers.SPAN_NAMES)
    index = {n: i for i, n in enumerate(names)}
    passes = []
    for spans in (p.spans for p in traced):
        t0 = spans[0][1] if spans else 0.0
        passes.append([[index[n], round((s - t0) * 1e6), round((e - t0) * 1e6), parent, item]
                       for n, s, e, parent, item in spans])
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": names, "fields": ["name", "start_us", "end_us", "parent", "item"],
                   "passes": passes}, fh)


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("heckeledger")
    importlib.import_module("heckeledger.cli")
    return pkg


def metric_names_match(traced: Pass) -> list[str]:
    """Differences between the metrics printed and those in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    for kind, printed in (("end_to_end", set(E2E_UNITS)),
                          ("per_layer", set(per_layer([traced], 1.0)))):
        names = {m["name"] for m in declared[kind]}
        if names != printed:
            bad.append(f"{kind}: {sorted(names ^ printed)}")
    return bad


def self_check(expected) -> int:
    """One item per workload, traced, with output checks and hook checks."""
    pkg = import_package()
    oracles = load_oracles()
    tracer = layers.Tracer()
    scratch = HERE / "out" / f"self-check-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name in workloads.WORKLOADS:
            items = workloads.make_items(name, 0, pkg, scratch, oracles, expected)
            item = next(i for i in items if i.id == workloads.SELF_CHECK[name])
            undo = layers.install(tracer)
            try:
                result = run_pass([item], expected, tracer)
            finally:
                layers.uninstall(undo)
            silent = layers.uncalled(result.counts, name, tracer.missing)
            errors = sorted(tracer.count_errors)
            status = "ok" if not (result.failures or silent or errors) else "FAIL"
            ok &= status == "ok"
            print(f"{status} {name} {item.id} {sum(result.wall.values()):.2f}s"
                  f" missing={tracer.missing} uncalled={silent} count_errors={errors}"
                  f" failures={result.failures}")
        mismatch = metric_names_match(result)
        ok &= not mismatch
        print(f"{'FAIL' if mismatch else 'ok'} metric names match BENCHMARK.json {mismatch}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heckeledger" / "__init__.py").is_file():
        return fail(f"no heckeledger sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no {ROOT / 'tests' / 'oracles.py'}")
    if not workloads.EXPECTED_PATH.is_file():
        return fail(f"no pinned digests at {workloads.EXPECTED_PATH}")
    expected = json.loads(workloads.EXPECTED_PATH.read_text(encoding="utf-8"))
    # A non-default field prime would change every digest.
    env_prime = os.environ.pop(FIELD_PRIME_ENV, None)
    if args.self_check:
        return self_check(expected)
    if args.workload is None:
        parser.error("--workload is required")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup_s, field_primes = measure_setup(env)
    pkg = import_package()
    oracles = load_oracles()
    scratch = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.make_items(args.workload, args.seed, pkg, scratch, oracles, expected)
        tracer = layers.Tracer() if args.trace else None
        plain, traced = run_passes(items, expected, args.seconds, tracer)
        passes = plain + traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ctx = pkg.FieldContext.default()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": len(items), "passes": len(passes),
        "pass_wall_s": [round(sum(p.wall.values()), 3) for p in passes],
        "pass_raw_wall_s": [round(sum(p.raw_wall.values()), 3) for p in passes],
        "raw_wall_s": {"median": round(sum(per_item(passes, "raw_wall").values()), 4),
                       "min": round(sum(per_item(passes, "raw_wall", min).values()), 4)},
        "field_primes": [ctx.primary.p, ctx.secondary.p],
        "setup_field_primes": field_primes,
        "cleared_env": {FIELD_PRIME_ENV: env_prime} if env_prime is not None else {},
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }
    failures = [f for p in passes for f in p.failures]

    if args.trace:
        untraced_wall = end_to_end(plain, workloads.SLOWEST[args.workload])["wall_s"]
        traced_wall = end_to_end(traced, workloads.SLOWEST[args.workload])["wall_s"]
        metrics = per_layer(traced, traced_wall / untraced_wall)
        info["missing_hooks"] = tracer.missing
        info["count_errors"] = sorted(tracer.count_errors)
        info["uncalled_hooks"] = layers.uncalled(traced[-1].counts, args.workload, tracer.missing)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
        write_spans(spans_path, traced)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(plain, workloads.SLOWEST[args.workload])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}

    attempted = sum(len(p.wall) for p in passes)
    info["failed_ratio"] = len(failures) / attempted
    info["failures"] = failures[:20]
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and field_primes == info["field_primes"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
