"""The benchmark's tracer (``bench/tracer.py``) must find every function
it wraps in the package and put each one back afterwards."""

import sys
from pathlib import Path

import loophom.cli  # noqa: F401  (the tracer patches it too)
from loophom import DenseOracle, LoopModel, checks, load_model, run_checks
from loophom.checks import CheckReport

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    """Every attribute the tracer may patch, as (owner, name) -> value."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "loophom" or name.startswith("loophom."):
            out.update(((name, key), value) for key, value in vars(module).items())
    for cls in (LoopModel, DenseOracle, CheckReport):
        out.update(((cls.__name__, key), value) for key, value in vars(cls).items())
    out.update((("_LAWS", i), entry) for i, entry in enumerate(checks._LAWS))
    return out


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("LoopModel", "mul") in changed
        assert ("loophom.expr", "evaluate_scalar") in changed
        assert all(("_LAWS", i) in changed for i in range(len(checks._LAWS)))
        report = run_checks(load_model("sphere:2"), max_abs_degree=2, seed=0)
        assert report.passed
        assert tracer.stats["algebra.mul"].calls > 0
        assert tracer.stats["checks.law.ring-associativity"].counters["cases"] > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
