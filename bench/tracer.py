"""Self-time tracer that wraps the public functions of ``loophom``.

``Tracer.install`` swaps each tracked function for a timing wrapper
everywhere it is reachable: the module attribute, every ``from ...
import`` binding in the other ``loophom`` modules, the ``LoopModel`` and
``DenseOracle`` methods, and the law entries of ``checks._LAWS``.
``uninstall`` puts the originals back.

Each wrapper charges its call's self time (its duration minus the time of
tracked calls nested inside it) to one layer name.  The wrapper's own
cost, measured on a no-op by ``calibrate``, is taken out of both the
call's self time and its caller's, so the busy times of all layers, the
benchmark's own ``bench`` frame included, add up to the traced wall time
less the tracer's cost.  Coarse boundaries (a pass, a request, a ``run_checks``
call, a law) also record a span ``(id, parent, root, name, start, end)``;
the hot leaves such as ``mul`` and ``modulus`` only aggregate counts and
busy time, so millions of calls cost no memory.
"""

from __future__ import annotations

import itertools
import re
import statistics
import sys
from time import perf_counter

_CASES_RE = re.compile(r"^(\d+) cases")


class Stat:
    __slots__ = ("calls", "busy", "counters")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        # one child-time accumulator per open tracked call
        self._child: list[float] = [0.0]
        # (span id, root id for its children) of the open spans
        self._open: list[tuple[int | None, int | None]] = [(None, None)]
        self._ids = itertools.count()
        self._patches: list[tuple[object, object, object]] = []
        self.cost_in = self.cost_out = 0.0  # see calibrate

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, after=None, roots: bool = False):
        """Timing wrapper charging ``fn``'s self time to ``name``.

        With ``span`` each call also records a span; with ``roots`` the
        spans opened inside it each start a request of their own.
        ``after(stat, args, result)`` updates counters from a call; its
        time is charged to no layer.
        """
        st = self.stat(name)
        child, spans, opened, ids = self._child, self.spans, self._open, self._ids
        cost_in, cost_out = self.cost_in, self.cost_out

        def wrapper(*args, **kwargs):
            if span:
                parent, parent_root = opened[-1]
                sid = next(ids)
                root = sid if parent_root is None else parent_root
                opened.append((sid, None if roots else root))
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                st.busy += dur - child.pop() - cost_in
                st.calls += 1
                child[-1] += dur + cost_out
                if span:
                    opened.pop()
                    spans.append((sid, parent, root, name, t0, t1))
            if after is not None:
                ta = perf_counter()
                after(st, args, result)
                child[-1] += perf_counter() - ta  # not the caller's time either
            return result

        return wrapper

    def calibrate(self, calls: int = 20000, rounds: int = 7):
        """Measure the wrapper's own cost per call on a no-op taking three
        arguments, like ``mul(self, x, y)``: ``cost_in`` falls inside the
        wrapped call's timed window, ``cost_out`` outside it, in the
        caller's.  ``wrap`` subtracts both, so busy times leave the tracer
        out; each is the median of several rounds."""
        probe = Tracer()
        noop = lambda a, b, c: None  # noqa: E731
        wrapped = probe.wrap("noop", noop)
        st = probe.stats["noop"]
        inside, total = [], []
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                noop(1, 2, 3)
            t1 = perf_counter()
            st.busy = 0.0
            for _ in range(calls):
                wrapped(1, 2, 3)
            t2 = perf_counter()
            bare = (t1 - t0) / calls
            inside.append(st.busy / calls - bare)
            total.append((t2 - t1) / calls - bare)
        self.cost_in = max(statistics.median(inside), 0.0)
        self.cost_out = max(statistics.median(total) - self.cost_in, 0.0)

    def take(self) -> dict[str, Stat]:
        """The stats gathered since the last call, zeroing them."""
        out = {}
        for name, st in self.stats.items():
            out[name] = copy = Stat()
            copy.calls, copy.busy, copy.counters = st.calls, st.busy, st.counters
            st.calls, st.busy, st.counters = 0, 0.0, {}
        return out

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from loophom import algebra, checks, cli, coalgebra, expr, modelfile, tqft

        LoopModel, DenseOracle = algebra.LoopModel, checks.DenseOracle

        def mul_after(st, args, result):
            _, x, y = args
            st.count("pairs", len(x.terms) * len(y.terms))
            st.count("terms_out", len(result.terms))

        def basis_after(st, args, result):
            st.count("monomials", len(result))

        def tensor_after(st, args, result):
            st.count("terms_out", len(result.terms))

        def law_after(st, args, result):
            m = _CASES_RE.match(result.detail or "")
            st.count("cases", int(m.group(1)) if m else 0)

        methods = [
            (LoopModel, "mul", "algebra.mul", mul_after),
            (LoopModel, "normal_form", "algebra.normal_form", None),
            (LoopModel, "modulus", "algebra.modulus", None),
            (LoopModel, "add", "algebra.add_scale", None),
            (LoopModel, "scale", "algebra.add_scale", None),
            (LoopModel, "enumerate_basis", "algebra.basis", basis_after),
            (LoopModel, "bracket", "algebra.bracket", None),
            (LoopModel, "delta", "algebra.delta", None),
            (DenseOracle, "__init__", "checks.oracle.build", None),
            (DenseOracle, "multiply", "checks.oracle", None),
            (checks.CheckReport, "render_json", "checks.run", None),
        ]
        for cls, attr, name, after in methods:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), after=after))

        functions = [
            (algebra, "validate_model", "algebra.validate", None, False),
            (coalgebra, "tensor", "coalgebra.tensor", tensor_after, False),
            (coalgebra, "tensor_add", "coalgebra.tensor", tensor_after, False),
            (coalgebra, "tensor_scale", "coalgebra.tensor", tensor_after, False),
            (coalgebra, "tensor_zero", "coalgebra.tensor", tensor_after, False),
            (coalgebra, "twist", "coalgebra.tensor", tensor_after, False),
            (coalgebra, "psi", "coalgebra.psi", None, False),
            (coalgebra, "psi_mirror", "coalgebra.psi", None, False),
            (coalgebra, "psi_split", "coalgebra.psi", None, False),
            (coalgebra, "apply_psi", "coalgebra.apply_psi", None, False),
            (coalgebra, "apply_delta_factorwise", "coalgebra.delta_factorwise", None, False),
            (coalgebra, "contract", "coalgebra.contract", None, False),
            (tqft, "string_operation", "tqft.closed", None, False),
            (tqft, "string_operation_via_pants", "tqft.pants", None, False),
            (checks, "run_checks", "checks.run", None, True),
            (expr, "parse_expr", "expr.parse", None, False),
            (expr, "evaluate", "expr.evaluate", None, False),
            (expr, "evaluate_scalar", "expr.evaluate", None, False),
            (modelfile, "parse_model", "modelfile.parse", None, False),
            (modelfile, "print_model", "modelfile.print", None, False),
            (modelfile, "load_model", "modelfile.load", None, False),
            (cli, "main", "cli.main", None, True),
        ]
        modules = [m for n, m in list(sys.modules.items()) if n == "loophom" or n.startswith("loophom.")]
        for module, attr, name, after, span in functions:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, span=span, after=after)
            for mod in modules:  # the home module and every re-export or import binding
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

        laws = checks._LAWS
        for i, (law, fn) in enumerate(list(laws)):
            wrapped = self.wrap(f"checks.law.{law}", fn, span=True, after=law_after)
            self._patches.append((laws, i, laws[i]))
            laws[i] = (law, wrapped)

    def uninstall(self):
        while self._patches:
            owner, key, old = self._patches.pop()
            if isinstance(owner, list):
                owner[key] = old
            else:
                setattr(owner, key, old)
