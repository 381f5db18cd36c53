"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload makes its inputs from the seed in ``__init__``, builds what
it needs from a freshly imported ``loophom`` in ``setup`` (timed as
set-up), and runs one pass in ``run_pass``.  A pass returns one record
``(key, latency_s, outcome)`` per query: one ``run_checks`` call on the
``check-*`` workloads, one CLI request on ``query-mix``.  ``verify``
turns an outcome into ``(operations, failed, problem)``: an operation is
one law result or one request, and it fails if it raised, exited with an
unexpected code, reported ``fail`` or disagreed with its golden.

Goldens live in ``goldens/<workload>.json``.  Where a key has no golden,
the gate falls back to what can be checked without one: the report
passed and ``mul-oracle-agreement`` passed, or a query's output re-parses
and evaluates to itself.  That fallback gate also runs where a golden
exists.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import genmodel

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"
WORK_DIR = BENCH_DIR / "out" / "work"

# Seeds 0 .. GOLDEN_SEEDS-1 of every workload have committed goldens.
GOLDEN_SEEDS = 32


def load_goldens(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- check-* ---------------------------------------------------------------------


class CheckWorkload:
    """``run_checks`` plus ``render_json`` (what ``check --json`` prints)
    over a list of (model, seed) jobs at one window."""

    name = ""
    window = 0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.goldens = load_goldens(self.name)
        self.jobs: list[tuple[str, object, int]] = []

    def check_seeds(self) -> list[int]:
        """The ``run_checks`` seeds of a pass; the first one when small."""
        k = self.seeds_per_pass
        seeds = [k * self.seed + i for i in range(k)]
        return seeds[:1] if self.small else seeds

    def golden_key(self, model: str, seed: int) -> str:
        return f"{model}|{self.window}|{seed}"

    def run_pass(self, lh):
        run_checks = lh.run_checks
        records = []
        for key, doc, seed in self.jobs:
            t0 = perf_counter()
            try:
                outcome = ("ok", run_checks(doc, self.window, seed).render_json())
            except Exception as exc:  # counted as failed operations
                outcome = ("raised", repr(exc))
            records.append((key, perf_counter() - t0, outcome))
        return records

    def verify(self, key: str, outcome) -> tuple[int, int, str | None, bool]:
        """(operations, failed, problem, whether a golden was used)."""
        kind, text = outcome
        if kind != "ok":
            return self.n_laws, self.n_laws, f"{key}: {text}", False
        report = json.loads(text)
        results = report["results"]
        failed = sum(r["status"] not in ("pass", "skip") for r in results)
        problem = None
        if failed:
            problem = f"{key}: {failed} laws failed"
        oracle = [r["status"] for r in results if r["law"] == "mul-oracle-agreement"]
        if not report["passed"] or oracle != ["pass"]:
            failed = max(failed, 1)
            problem = problem or f"{key}: report not passed or oracle law not run"
        golden = self.goldens.get(key)
        if golden is not None and sha256(text) != golden:
            # the golden digests the whole report, so every law counts
            failed = len(results)
            problem = f"{key}: report differs from its golden"
        return len(results), failed, problem, golden is not None

    def golden_entries(self, lh) -> dict:
        self.setup(lh)
        out = {}
        for key, doc, seed in self.jobs:
            out[key] = sha256(lh.run_checks(doc, self.window, seed).render_json())
        return out


class CheckProduct(CheckWorkload):
    """``run_checks`` on the sphere:2 x cpn:2 presentation at window 1."""

    name = "check-product"
    window = 1
    seeds_per_pass = 1
    factors = ("sphere:2", "cpn:2")

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.text = genmodel.product_of(*self.factors)
        self.label = " x ".join(self.factors)

    def setup(self, lh):
        self.n_laws = len(lh.checks._LAWS)
        doc = lh.parse_model(self.text, provenance=self.label)
        doc.model.basis_window(self.window)
        self.jobs = [(self.golden_key(self.label, s), doc, s) for s in self.check_seeds()]


class CheckBuiltins(CheckWorkload):
    """``run_checks`` on every built-in family at window 24, two seeds."""

    name = "check-builtins"
    window = 24
    seeds_per_pass = 2
    models = (
        "sphere:2", "sphere:3", "sphere:4", "sphere:5",
        "cpn:1", "cpn:2", "cpn:3", "cpn:4", "toy:bv0",
    )

    def setup(self, lh):
        self.n_laws = len(lh.checks._LAWS)
        self.jobs = []
        for name in self.models:
            doc = lh.load_model(name)
            doc.model.basis_window(self.window)
            for s in self.check_seeds():
                self.jobs.append((self.golden_key(name, s), doc, s))


# -- query-mix -------------------------------------------------------------------

# Built-in models with a few base expressions over their generators.
_BUILTIN_BASES = {
    "sphere:2": ["v", "a+v", "b+v", "a*v+b", "2*v-a", "a+b+v"],
    "sphere:4": ["v", "a+v", "b+v", "a*v+b", "3*v-b"],
    "sphere:3": ["v", "b+v", "b*v+v", "2*v-b"],
    "cpn:1": ["u", "c+u", "w+u", "c*u-w"],
    "cpn:2": ["u", "c+u", "w+u", "c*u-w", "u+c+w", "2*u+3*c"],
    "cpn:3": ["u", "c+u", "w+c+u", "c^2*u-w"],
}
_TOY_BASES = ["y", "z", "y+z", "y*z", "2*y-z", "1+y", "1+y*z"]
# Model files made by the benchmark: sphere:2 x cpn:2 and sphere:3 x cpn:1.
_FILE_MODELS = {
    "product-s2-cp2.model": (("sphere:2", "cpn:2"), ["v+u", "a+c+u", "b+w+v", "v*u+c", "u+v+a*c"]),
    "product-s3-cp1.model": (("sphere:3", "cpn:1"), ["v+u", "b+c+u", "w+v", "v*u-c"]),
}
_SURFACES = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 1, 2), (0, 2, 2), (1, 1, 1), (0, 2, 3), (2, 2, 1)]
_BASIS_LINE = re.compile(r"(\S+)  Z(?:/\d+)?\Z")


def _file_path(name: str) -> str:
    return str((WORK_DIR / name).relative_to(BENCH_DIR.parent))


def build_catalog() -> dict[str, list[list[str]]]:
    """Every request of the stream, by category: a fixed grammar over the
    built-in and file models, each request once as text and once with
    ``--json`` (1250 in all)."""
    models = {name: (bases, False) for name, bases in _BUILTIN_BASES.items()}
    for fname, (_, bases) in _FILE_MODELS.items():
        models[_file_path(fname)] = (bases, True)
    cat: dict[str, list[list[str]]] = {k: [] for k in ("power", "psi", "mu", "bv", "tqft", "basis")}
    for model, (bases, is_file) in models.items():
        top = 4 if is_file else 6
        for b in bases:
            for k in range(2, top + 1):
                cat["power"].append(["eval", "--model", model, f"({b})^{k}"])
            for k in range(3):
                cat["psi"].append(["eval", "--model", model, f"psi(({b})^{k})"])
        for i, (g, p, q) in enumerate(_SURFACES):
            args = [bases[(i + j) % len(bases)] for j in range(p)]
            cat["mu"].append(["eval", "--model", model, f"mu({g},{p},{q}; {', '.join(args)})"])
            for shift in range(2):
                args = [f"({bases[(i + j + shift) % len(bases)]})^{j + 1}" for j in range(p)]
                cat["tqft"].append(
                    ["tqft", "--model", model, "--genus", str(g), "--in", str(p), "--out", str(q), *args]
                )
        degrees = range(8, 41, 4) if is_file else range(100, 601, 50)
        for d in degrees:
            cat["basis"].append(["basis", "--model", model, "--degree", str(d)])
    for x in _TOY_BASES:
        cat["bv"].append(["eval", "--model", "toy:bv0", f"delta({x})"])
        for y in _TOY_BASES:
            cat["bv"].append(["eval", "--model", "toy:bv0", f"bracket({x}, {y})"])
        cat["bv"].append(["eval", "--model", "toy:bv0", f"delta(({x})*({x}+z))"])
    # every request is asked for both as text and as --json
    for reqs in cat.values():
        reqs += [[argv[0], "--json", *argv[1:]] for argv in reqs]
    return cat


class QueryMix:
    """A closed loop with one client sending ``eval``, ``tqft`` and
    ``basis`` requests through ``loophom.cli.main`` in process."""

    name = "query-mix"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.goldens = load_goldens(self.name)
        self.catalog = build_catalog()
        # The stream is the whole catalog in a seeded order, so every seed
        # sends the same requests and no category gets a weight of its own;
        # the small stream keeps every 25th request of each category.
        self.stream = [argv for reqs in self.catalog.values() for argv in (reqs[::25] if small else reqs)]
        random.Random(seed).shuffle(self.stream)
        self.keys = [" ".join(argv) for argv in self.stream]
        self.argv = dict(zip(self.keys, self.stream))
        self._models: dict[str, object] = {}
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        for fname, (factors, _) in _FILE_MODELS.items():
            (WORK_DIR / fname).write_text(genmodel.product_of(*factors))

    def setup(self, lh):
        import loophom.cli

        self.cli = loophom.cli
        self.lh = lh
        used = sorted({argv[argv.index("--model") + 1] for argv in self.stream})
        for spec in used:
            lh.load_model(spec).model.basis_window(8)

    def run_pass(self, lh):
        cli = self.cli
        records = []
        for key, argv in zip(self.keys, self.stream):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # counted as a failed request
                    rc = f"raised {exc!r}"
                t1 = perf_counter()
            records.append((key, t1 - t0, (rc, out.getvalue(), err.getvalue())))
        return records

    # -- checking ---------------------------------------------------------

    def _model(self, spec: str):
        if spec not in self._models:
            self._models[spec] = self.lh.load_model(spec).model
        return self._models[spec]

    def _round_trips(self, model, text: str) -> bool:
        return str(self.lh.run_expr(model, text)) == text

    def self_consistent(self, argv: list[str], stdout: str) -> bool:
        """The output re-parses and evaluates to itself (basis monomials
        also land in the requested degree)."""
        model = self._model(argv[argv.index("--model") + 1])
        as_json = "--json" in argv
        if argv[0] == "basis":
            degree = int(argv[argv.index("--degree") + 1])
            if as_json:
                monos = [entry["monomial"] for entry in json.loads(stdout)["basis"]]
            else:
                lines = [_BASIS_LINE.match(line) for line in stdout.splitlines()]
                if not all(lines):
                    return False
                monos = [m.group(1) for m in lines]
            return all(
                self._round_trips(model, m)
                and model.degree_of(self.lh.run_expr(model, m)) == degree
                for m in monos
            )
        value = json.loads(stdout)["value"] if as_json else stdout.rstrip("\n")
        return self._round_trips(model, value)

    def verify(self, key: str, outcome) -> tuple[int, int, str | None, bool]:
        rc, stdout, stderr = outcome
        golden = self.goldens.get(key)
        if rc != 0 or stderr:
            return 1, 1, f"{key}: exit {rc} {stderr.strip()}", golden is not None
        if golden is not None and golden != [rc, stdout]:
            return 1, 1, f"{key}: output differs from its golden", True
        try:
            consistent = self.self_consistent(self.argv[key], stdout)
        except Exception as exc:  # e.g. the output does not parse
            consistent = False
            stdout = f"{stdout!r} ({exc!r})"
        if not consistent:
            return 1, 1, f"{key}: output {stdout!r} does not re-evaluate to itself", golden is not None
        return 1, 0, None, golden is not None

    def golden_entries(self, lh) -> dict:
        self.setup(lh)
        out = {}
        for reqs in self.catalog.values():
            for argv in reqs:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = self.cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"request failed with exit {rc}: {argv}")
                out[" ".join(argv)] = [rc, buf.getvalue()]
        return out


WORKLOADS = {w.name: w for w in (CheckProduct, CheckBuiltins, QueryMix)}
