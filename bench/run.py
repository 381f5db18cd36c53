"""Benchmark for loophom: end-to-end metrics, or per-layer ones from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --write-goldens NAME

Run from a checkout: the package is imported from ``src/`` next to this
directory, and the benchmark exits with code 2 when it is not there.
Workloads (see ``workloads.py``; each runs single-threaded in its own
process):

* ``check-product``: ``run_checks`` on the generated sphere:2 x cpn:2
  presentation at window 1, where ring arithmetic is the bottleneck.
* ``check-builtins``: ``run_checks`` on 9 built-in models x 2 seeds at
  window 24, where time spreads over surface, coproduct and bracket laws.
* ``query-mix``: a closed loop with one client sending 1250
  ``eval``/``tqft``/``basis`` requests (the whole catalog, in seeded
  order) through ``loophom.cli.main``.

A run repeats cycles while the next is expected to end within
``--seconds`` (at least one).  A cycle imports ``loophom`` afresh and
sets the workload up, then runs one pass over it.  Every output is
checked after the run, outside the timed regions.

Pass times are the best over a run's repeats.  On a shared machine other
tenants slow a process by up to half, in bursts and in phases of
minutes; the fastest of many short repeats moves far less from run to
run than their median does.

* ``setup_s``: median over the set-ups of a run, one after each pass,
  each in a fresh interpreter (``setup_probe.py``): import ``loophom``, build or parse the models and
  enumerate their basis windows.
* ``query_p50_ms``, ``query_p99_ms``: each query's fastest latency over
  the passes, then the percentiles over the queries of a pass (1250
  requests on ``query-mix``, 18 ``run_checks`` calls on
  ``check-builtins``, one on ``check-product``).
* ``wall_s``: one pass with every query at its fastest, i.e. the sum of
  those latencies.
* ``queries_per_s``: queries in a pass over ``wall_s``.
* ``peak_rss_mb``: peak resident memory of the process through its first
  set-up and pass, so that it does not depend on how many passes fit.

``failed_frac`` (failed operations over attempted ones) is carried by the
``failed`` and ``attempted`` keys of the result.

With ``--trace 1`` the run spends up to a third of its time on untraced
passes, then runs passes with every public ``loophom`` function wrapped
(``tracer.py``) and reports per-layer self time and counts for one
pass, all taken from the traced pass of median wall time.
``trace.wall_s`` is that pass's wall time, which its busy times add up
to once the tracer's own cost per wrapped call (measured on a no-op) is
added back; ``trace.untraced_wall_s`` is the median untraced pass and
``trace.overhead_s`` the difference of the two; ``trace.catchall_frac`` is the share of traced
wall time left in the catch-all frames (the benchmark's own ``bench``
frame and ``cli.main``'s self time).  Spans go to ``bench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import typing
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = [
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

LAWS = (
    "normal-form-idempotent", "normal-form-order-independence", "ring-unit-law",
    "ring-associativity", "ring-distributivity", "graded-commutativity",
    "mul-oracle-agreement", "torsion-identity", "bracket-unit", "bracket-antisymmetry",
    "bracket-torsion", "delta-squared", "delta-bv-residual", "coproduct-symmetry",
    "coproduct-forms-agree", "coproduct-concentration", "coproduct-frobenius",
    "coproduct-coassociativity", "coproduct-delta-factorwise",
    "coproduct-kills-geometric-brackets", "surface-closed-vs-pants",
    "surface-functoriality", "surface-degree-shift", "surface-certificate-sew",
    "model-round-trip",
)

_UNITS = {"busy_s": "s", "build_s": "s", "wall_s": "s", "untraced_wall_s": "s",
          "overhead_s": "s", "ns_per_pair": "ns", "yield": "terms/pair",
          "catchall_frac": "fraction"}

PER_LAYER_NAMES = [
    "algebra.mul.calls", "algebra.mul.pairs", "algebra.mul.busy_s",
    "algebra.mul.ns_per_pair", "algebra.mul.yield",
    "algebra.normal_form.calls", "algebra.normal_form.busy_s",
    "algebra.add_scale.busy_s",
    "algebra.modulus.calls", "algebra.modulus.busy_s",
    "algebra.basis.calls", "algebra.basis.monomials", "algebra.basis.busy_s",
    "algebra.validate.busy_s", "algebra.bracket.busy_s", "algebra.delta.busy_s",
    "coalgebra.psi.calls", "coalgebra.psi.busy_s",
    "coalgebra.tensor.busy_s", "coalgebra.tensor.terms_out",
    "coalgebra.apply_psi.busy_s", "coalgebra.delta_factorwise.busy_s",
    "coalgebra.contract.busy_s",
    "tqft.closed.calls", "tqft.closed.busy_s", "tqft.pants.calls", "tqft.pants.busy_s",
    "checks.run.busy_s",
    *(f"checks.law.{law}.{field}" for law in LAWS for field in ("busy_s", "cases")),
    "checks.oracle.build_s", "checks.oracle.multiply_calls", "checks.oracle.busy_s",
    "expr.parse.calls", "expr.parse.busy_s", "expr.evaluate.busy_s",
    "modelfile.parse.calls", "modelfile.parse.busy_s", "modelfile.print.busy_s",
    "modelfile.load.busy_s", "cli.main.busy_s", "bench.busy_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.catchall_frac", "trace.spans",
]
PER_LAYER = [(n, _UNITS.get(n.rsplit(".", 1)[1], "count")) for n in PER_LAYER_NAMES]


# -- helpers ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fresh_import():
    """Import ``loophom`` from ``src/`` anew, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "loophom" or n.startswith("loophom.")]:
        del sys.modules[name]
    # typing's caches would otherwise keep the dropped modules alive
    for clear in getattr(typing, "_cleanups", []):
        clear()
    lh = importlib.import_module("loophom")
    if Path(lh.__file__).resolve().parent != SRC / "loophom":
        raise SystemExit(f"bench: imported loophom from {lh.__file__}, not from {SRC}")
    return lh


class Tally:
    """Each query position's best latency over the passes, and every
    outcome, checked once per distinct outcome."""

    def __init__(self, workload):
        self.workload = workload
        self.counts: dict[tuple, int] = {}
        self.best: list[float] = []
        self.queries = 0
        self.peak_rss_mb: float | None = None  # after the first set-up and pass

    def add(self, records):
        if not self.best:
            self.best = [float("inf")] * len(records)
        for i, (key, latency, outcome) in enumerate(records):
            self.best[i] = min(self.best[i], latency)
            self.counts[(key, outcome)] = self.counts.get((key, outcome), 0) + 1
        self.queries += len(records)

    def verify(self) -> dict:
        attempted = failed = golden_hits = 0
        problems = []
        for (key, outcome), n in self.counts.items():
            ops, bad, problem, golden = self.workload.verify(key, outcome)
            attempted += ops * n
            failed += bad * n
            golden_hits += golden * n
            if problem:
                problems.append(problem)
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "queries": self.queries, "per_pass": len(self.best), "golden_queries": golden_hits}


def setup_probe(workload_name: str, seed: int) -> float:
    """One set-up timed in a fresh interpreter (``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, tally: Tally, budget: float, walls: list, setups: list | None = None,
               tracer=None, snapshots: list | None = None):
    """Set up and run passes while the next is expected to end within
    ``budget`` seconds from now; always at least one.

    Every pass starts from a fresh import on a collected heap, so all
    passes meet the same cold caches.  With ``setups``, each pass is
    followed by a set-up probe in a fresh interpreter, so the probes spread
    over the run like the passes.
    With a ``tracer`` it is installed around each pass only, and each
    pass's stats are appended to ``snapshots``.
    """
    start = perf_counter()
    cycles = []
    while True:
        gc.collect()  # drop the previous pass's modules and garbage
        t0 = perf_counter()
        lh = fresh_import()
        workload.setup(lh)
        run_pass = lambda: workload.run_pass(lh)  # noqa: E731
        if tracer is not None:
            tracer.install()
            run_pass = tracer.wrap("bench", run_pass, span=True, roots=True)
        try:
            t1 = perf_counter()
            records = run_pass()
            t2 = perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(t2 - t1)
        if tracer is not None:
            snapshots.append(tracer.take())
        tally.add(records)
        if tally.peak_rss_mb is None:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if setups is not None:
            setups.append(setup_probe(workload.name, workload.seed))
        cycles.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(cycles) > budget:
            return


# -- one run ----------------------------------------------------------------------


def measure(workload, seconds: float) -> tuple[dict, dict]:
    tally, setups, walls = Tally(workload), [], []
    run_passes(workload, tally, seconds, walls, setups)
    best_pass = sum(tally.best)
    metrics = {
        "wall_s": best_pass,
        "query_p50_ms": percentile(tally.best, 0.50) * 1e3,
        "query_p99_ms": percentile(tally.best, 0.99) * 1e3,
        "queries_per_s": len(tally.best) / best_pass,
        "peak_rss_mb": tally.peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    info = tally.verify()
    info["passes"] = len(walls)
    info["setups"] = len(setups)
    return metrics, info


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from tracer import Stat, Tracer

    start = perf_counter()
    tally, untraced, traced = Tally(workload), [], []
    run_passes(workload, tally, seconds / 3, untraced)
    tracer, snapshots = Tracer(), []
    tracer.calibrate()
    run_passes(workload, tally, seconds - (perf_counter() - start), traced, tracer=tracer, snapshots=snapshots)

    # every per-layer figure comes from the traced pass of median wall time
    n = len(traced)
    mid = sorted(range(n), key=traced.__getitem__)[n // 2]
    stats, wall = snapshots[mid], traced[mid]

    def st(name: str) -> Stat:
        return stats.get(name) or Stat()

    mul = st("algebra.mul")
    pairs = mul.counters.get("pairs", 0)
    special = {
        "algebra.mul.ns_per_pair": mul.busy * 1e9 / pairs if pairs else 0.0,
        "algebra.mul.yield": mul.counters.get("terms_out", 0) / pairs if pairs else 0.0,
        "checks.oracle.build_s": st("checks.oracle.build").busy,
        "checks.oracle.multiply_calls": st("checks.oracle").calls,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.overhead_s": wall - statistics.median(untraced),
        "trace.catchall_frac": (st("bench").busy + st("cli.main").busy) / wall,
        "trace.spans": len(tracer.spans) / n,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            s = st(layer)
            value = s.busy if field == "busy_s" else s.calls if field == "calls" else s.counters.get(field, 0)
        metrics[name] = value

    unknown = set(stats) - {n.rsplit(".", 1)[0] for n, _ in PER_LAYER} - {"checks.oracle.build"}
    if unknown:
        raise RuntimeError(f"traced layers without a metric: {sorted(unknown)}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    t_base = min((s[4] for s in tracer.spans), default=0.0)
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "root", "name", "start_s", "end_s"],
        "spans": [[i, p, r, name, t0 - t_base, t1 - t_base] for i, p, r, name, t0, t1 in tracer.spans],
    }))
    info = tally.verify()
    info["passes"] = n
    info["untraced_passes"] = len(untraced)
    info["tracer_cost_s"] = tracer.cost_in + tracer.cost_out
    # self times plus the tracer's own cost, over the traced wall time
    wrapped_calls = sum(s.calls for s in stats.values())
    info["accounted"] = (sum(s.busy for s in stats.values()) + wrapped_calls * info["tracer_cost_s"]) / wall
    return metrics, info


def result_line(metrics: dict, units: list[tuple[str, str]], info: dict) -> str:
    out = {
        "correct": info["failed"] == 0 and info["attempted"] > 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            name: {"value": int(metrics[name]) if unit == "count" and float(metrics[name]).is_integer()
                   else metrics[name], "unit": unit}
            for name, unit in units
        },
    }
    return json.dumps(out)


def run(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        metrics, info = measure_traced(workload, args.seconds, spans_path)
        units = PER_LAYER
    else:
        metrics, info = measure(workload, args.seconds)
        units = END_TO_END
    frac = info["failed"] / info["attempted"] if info["attempted"] else 1.0
    print(f"{args.workload} seed {args.seed}: {info['passes']} passes, "
          f"{info['queries']} queries ({info['golden_queries']} with a golden; "
          f"percentiles over the {info['per_pass']} queries of a pass), "
          f"{info['attempted']} operations, {info['failed']} failed, failed_frac {frac}")
    if not args.trace:
        print(f"setup_s is the median of {info['setups']} set-ups, each in a fresh interpreter")
    if args.trace:
        print(f"traced {info['passes']} passes after {info['untraced_passes']} untraced; "
              f"overhead {metrics['trace.overhead_s']:.4f} s per pass; "
              f"tracer cost {1e9 * info['tracer_cost_s']:.0f} ns per wrapped call; self times and "
              f"that cost add up to {info['accounted']:.4f} of traced wall, {metrics['trace.catchall_frac']:.4f} in catch-all frames; "
              f"spans in {spans_path.relative_to(ROOT)}")
    for problem in info["problems"][:10]:
        print(f"problem: {problem}")
    print(result_line(metrics, units, info))
    return 0


# -- goldens and self-test ----------------------------------------------------------


def write_goldens(name: str) -> int:
    from workloads import GOLDEN_DIR, GOLDEN_SEEDS, QueryMix

    cls = WORKLOADS[name]
    lh = fresh_import()
    entries: dict = {}
    if cls is QueryMix:
        entries.update(cls(0).golden_entries(lh))
    else:
        for seed in range(GOLDEN_SEEDS):
            entries.update(cls(seed).golden_entries(lh))
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} goldens to {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-goldens", metavar="WORKLOAD", choices=list(WORKLOADS))
    args = parser.parse_args(argv)

    if not (SRC / "loophom" / "__init__.py").is_file():
        print(f"bench: no loophom package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.write_goldens:
        return write_goldens(args.write_goldens)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
