"""Self-test of the benchmark: ``python3 bench/run.py --self-test``.

Runs every workload at a small size, untraced and traced, and confirms
that the metric names and units match ``BENCHMARK.json``, that every
output met its golden, and that the gate rejects a corrupted output.  It
also checks the model generator against the built-in models.
"""

from __future__ import annotations

import json

import genmodel
import run
from workloads import WORKLOADS


class _Failures(list):
    def check(self, ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.append(what)


def _check_generator(lh, fails: _Failures):
    for name in ("sphere:2", "sphere:3", "sphere:4", "cpn:1", "cpn:2", "cpn:3"):
        mine = lh.print_model(lh.parse_model(genmodel.factor(name).text()).model)
        fails.check(mine == lh.print_model(lh.builtin_model(name)), f"factor text of {name} matches the built-in")
    model = lh.parse_model(genmodel.product_of("sphere:2", "cpn:2")).model
    torsion = sorted({rel.coeff for rel in model.relations} - {1})
    fails.check(
        (len(model.generators), model.dim, model.euler, str(model.c0), torsion) == (6, 6, 6, "a*c^2", [2, 3]),
        "sphere:2 x cpn:2 has 6 generators, dim 6, euler 6, c0 = a*c^2, Z/2 and Z/3 torsion",
    )
    for pair in (("cpn:1", "sphere:2"), ("sphere:2", "sphere:4")):
        try:
            genmodel.product_of(*pair)
            refused = False
        except ValueError:
            refused = True
        fails.check(refused, f"product {' x '.join(pair)} is refused (shared torsion prime or names)")


def _check_spec(fails: _Failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        fails.check(listed == table, f"BENCHMARK.json {key} lists the metrics the benchmark prints")
    fails.check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the workloads the benchmark runs",
    )


def _corrupt(outcome):
    if outcome[0] == "ok":  # a check report
        return ("ok", outcome[1].replace('"passed": true', '"passed": false'))
    rc, stdout, stderr = outcome
    return (rc, stdout.rstrip("\n") + " + 1\n", stderr)


def _check_workload(name: str, fails: _Failures):
    for trace in (0, 1):
        workload = WORKLOADS[name](0, small=True)
        if trace:
            metrics, info = run.measure_traced(workload, 1.0, run.OUT_DIR / f"spans-{name}-selftest.json")
            units = run.PER_LAYER
        else:
            metrics, info = run.measure(workload, 1.0)
            units = run.END_TO_END
        line = json.loads(run.result_line(metrics, units, info))
        what = f"{name} trace {trace}"
        fails.check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
        fails.check(
            [(k, v["unit"]) for k, v in line["metrics"].items()] == units, f"{what}: metric names and units"
        )
        fails.check(line["correct"] and line["failed"] == 0, f"{what}: every operation passed")
        fails.check(
            info["golden_queries"] == info["queries"] > 0, f"{what}: every query met a golden ({info['queries']})"
        )
        if trace:
            negative = [k for k, v in metrics.items() if k.endswith("busy_s") and v < 0]
            fails.check(not negative, f"{what}: no busy time goes negative once the tracer's cost is taken out")
            if name != "query-mix":  # there cli.main's own argument parsing and printing dominate
                frac = metrics["trace.catchall_frac"]
                fails.check(frac < 0.5, f"{what}: most traced time lies in tracked layers ({frac:.4f} in catch-all)")
    # the gate rejects a corrupted output, with and without its golden
    workload = WORKLOADS[name](0, small=True)
    lh = run.fresh_import()
    workload.setup(lh)
    key, _, outcome = workload.run_pass(lh)[0]
    fails.check(workload.verify(key, _corrupt(outcome))[1] > 0, f"{name}: a corrupted output fails its golden")
    workload.goldens = {}
    fails.check(workload.verify(key, _corrupt(outcome))[1] > 0, f"{name}: a corrupted output fails the fallback gate")
    fails.check(workload.verify(key, outcome)[1] == 0, f"{name}: the true output passes the fallback gate")


def self_test() -> int:
    fails = _Failures()
    _check_spec(fails)
    lh = run.fresh_import()
    fails.check(tuple(law for law, _ in lh.checks._LAWS) == run.LAWS, "the law list matches checks._LAWS")
    _check_generator(lh, fails)
    for name in WORKLOADS:
        _check_workload(name, fails)
    print(f"self-test: {len(fails)} failed")
    return 1 if fails else 0
