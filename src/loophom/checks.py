"""Named law suite over a model, plus an independent multiplication oracle.

``run_checks`` evaluates every structural law the package promises
(ring laws, coproduct laws, surface-operation laws) over a degree window
and a seeded stream of random elements, and returns a deterministic
report: same model, window and seed always give byte-identical output.

``DenseOracle`` recomputes products from the raw presentation by direct
exponent-vector arithmetic (counted odd-odd inversions for signs,
relation scans for moduli).  It shares no code with the normal-form
engine, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from math import gcd, inf
from operator import add, le, mul
from typing import Callable, Iterator

from .algebra import Element, LoopModel, Monomial, Record
from .coalgebra import (
    apply_delta_factorwise,
    apply_psi,
    psi,
    psi_mirror,
    psi_split,
    tensor,
    twist,
)
from .modelfile import ModelDoc, parse_model, print_model
from .tqft import (
    Surface,
    VanishingReason,
    sew,
    string_operation,
    string_operation_via_pants,
    vanishing_certificate,
)

_CHI_ZERO_TAG = "vanishes identically (chi = 0)"
_INCONSISTENT_TAG = "model is inconsistent with string topology"


class CheckResult(Record):
    """One law's outcome; ``status`` is ``"pass"``, ``"fail"``, ``"skip"``
    or ``"error"``."""

    __slots__ = ("law", "status", "detail", "witness")
    _defaults = ("", None)


class CheckReport(Record):
    """The results of every law, a tuple in report order."""

    __slots__ = ("model_name", "window", "seed", "results")

    @property
    def passed(self) -> bool:
        return all(r.status in ("pass", "skip") for r in self.results)

    def render_text(self) -> str:
        lines = [f"model: {self.model_name}", f"window: {self.window}", f"seed: {self.seed}"]
        for r in self.results:
            head = r.status.upper()
            line = f"{head} {r.law}"
            if r.detail:
                line += f" ({r.detail})"
            if r.witness:
                line += f" witness: {r.witness}"
            lines.append(line)
        np = sum(1 for r in self.results if r.status == "pass")
        nf = sum(1 for r in self.results if r.status in ("fail", "error"))
        ns = sum(1 for r in self.results if r.status == "skip")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({np} passed, {nf} failed, {ns} skipped)")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "window": self.window,
            "seed": self.seed,
            "passed": self.passed,
            "results": [
                {
                    "law": r.law,
                    "status": r.status,
                    "detail": r.detail,
                    "witness": r.witness,
                }
                for r in self.results
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# -- independent multiplication oracle -----------------------------------------


class DenseOracle:
    """Structure constants recomputed from the raw presentation.

    Basis enumeration scans plain exponent boxes, moduli come from a
    direct divisibility scan over the relation list (plus this class's
    own square-kill rule for odd generators), and product signs count
    the odd-odd inversions between the two exponent vectors.
    """

    def __init__(self, model: LoopModel, max_abs_degree: int):
        self.window = max_abs_degree
        self.degrees = [g.degree for g in model.generators]
        self.odd = [g.degree % 2 != 0 for g in model.generators]
        self.relations = [
            (rel.coeff, list(rel.monomial)) for rel in model.relations
        ]
        n = len(self.degrees)
        for i in range(n):
            if self.odd[i]:
                self.relations.append((1, [2 if j == i else 0 for j in range(n)]))
        self._moduli: dict[tuple[int, ...], int] = {}
        self.basis = self._enumerate()

    def _bound(self, i: int) -> int:
        # exponent bound for generator i inside the window
        if self.odd[i]:
            return 1
        # the modulus of a pure power changes only at the exponents of the
        # pure-power relations; the first that kills it bounds the exponent
        n = len(self.degrees)
        for e in sorted(
            {exps[i] for _, exps in self.relations if exps[i] and sum(exps) == exps[i]}
        ):
            if self.modulus([e if j == i else 0 for j in range(n)]) == 1:
                return e - 1
        d = self.degrees[i]
        if d <= 0:
            raise ValueError("oracle needs nilpotent non-positive generators")
        neg_room = sum(
            -self.degrees[j] * self._bound(j)
            for j in range(len(self.degrees))
            if self.degrees[j] < 0 and j != i
        )
        return (self.window + neg_room) // d

    def _enumerate(self) -> dict[int, list[tuple[int, ...]]]:
        # product() runs in lexicographic order, so each degree's list is sorted
        bounds = [range(self._bound(i) + 1) for i in range(len(self.degrees))]
        out: dict[int, list[tuple[int, ...]]] = {}
        for exps in itertools.product(*bounds):
            deg = sum(map(mul, exps, self.degrees))
            if abs(deg) <= self.window and self.modulus(exps) != 1:
                out.setdefault(deg, []).append(exps)
        return out

    def modulus(self, exps) -> int:
        # each exponent vector is scanned once; _bound passes lists
        key = tuple(exps)
        mod = self._moduli.get(key)
        if mod is None:
            mod = 0
            for k, rexps in self.relations:
                if all(map(le, rexps, key)):
                    mod = gcd(mod, k)
            self._moduli[key] = mod
        return mod

    def sign(self, exps1, exps2) -> int:
        # sorting the letter word of exps1 followed by that of exps2 swaps
        # exactly the letter pairs (i from exps1, j from exps2) with i > j,
        # as each half is already sorted; count the odd-odd ones
        swaps = odd_before = 0
        for odd, e1, e2 in zip(self.odd, exps1, exps2):
            if odd:
                swaps += e1 * odd_before
                odd_before += e2
        return -1 if swaps % 2 else 1

    def multiply(self, exps1, exps2) -> tuple[int, tuple[int, ...]] | None:
        """Canonical (coefficient, exponents) of the product of two basis
        monomials, or None when it dies."""
        combined = tuple(map(add, exps1, exps2))
        mod = self.modulus(combined)
        if mod == 1:
            return None
        # a sign of +-1 is a unit, so it survives any modulus >= 2
        coeff = self.sign(exps1, exps2)
        return (coeff % mod if mod else coeff), combined

    def reduce(self, raw_terms) -> dict[tuple[int, ...], int]:
        """Canonical form of a list of (coefficient, exponent-vector)."""
        acc: dict[tuple[int, ...], int] = {}
        for c, exps in raw_terms:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + c
        out = {}
        for key, c in acc.items():
            mod = self.modulus(key)
            if mod:
                c %= mod
            if c:
                out[key] = c
        return out


# -- law implementations ---------------------------------------------------------


class _Ctx:
    def __init__(self, model: LoopModel, window: int, seed: int):
        self.model = model
        self.window = window
        self.seed = seed
        # (degree, monomial, element) for each basis monomial of the window
        self.basis = [(d, m, model.mono_elem(m)) for d, m, _ in model.basis_window(window)]
        self.chi_zero = model.euler == 0
        self.values = [model.zero()]  # the value of each id; id 0 is zero
        self.ids: dict[frozenset, int] = {}

    def intern(self, p: Element) -> int:
        """The id of ``p``: 0 for zero, else one per set of terms."""
        i = self.ids.setdefault(frozenset(p.terms.items()), len(self.values)) if p else 0
        if i == len(self.values):
            self.values.append(p)
        return i

    @functools.cached_property
    def products(self) -> list[list[int]]:
        """The table of ids with ``values[table[i][j]]`` basis monomial
        ``i`` times ``j``: one ``mul`` per ordered pair of the window, made
        on first use so an error in ``mul`` is a law's ``error``.  The ids
        come from ``intern``: equal products share one, so ids compare as
        their values do."""
        elems = [x for _, _, x in self.basis]
        return [[self.intern(self.model.mul(x, y)) for y in elems] for x in elems]

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def random_element(self, rng: random.Random, max_terms: int = 3) -> Element:
        """Up to ``max_terms`` drawn ``(coefficient, basis monomial)``
        pairs with coefficients in ``-4..4``, summed; the basis monomials
        are canonical already."""
        acc: dict[Monomial, int] = {}
        for _ in range(rng.randint(0, max_terms)):
            c = rng.randint(-4, 4)
            m = rng.choice(self.basis)[1]
            acc[m] = acc.get(m, 0) + c
        return self.model.from_raw(acc)

    def fmt(self, m: Monomial) -> str:
        return self.model.format_monomial(m)


class _Fail(Exception):
    """A law's counterexample, with an optional detail for the report."""

    def __init__(self, witness: str, detail: str = ""):
        super().__init__(witness)
        self.witness = witness
        self.detail = detail


# data a law needs: (present on the model?, reason to skip without it)
_NEEDS: dict[str, tuple[Callable[[LoopModel], bool], str]] = {
    "bracket": (lambda m: m.bracket_on_generators is not None, "no bracket data"),
    "delta": (lambda m: m.delta_on_generators is not None, "no BV-operator data"),
    "geometric": (lambda m: any(g.geometric for g in m.generators), "no geometric generators"),
}

_LAWS: list[tuple[str, Callable[[_Ctx], CheckResult]]] = []


def _law(name: str, needs: tuple[str, ...] = (), chi_tag: bool = False):
    """Declare a law: append ``(name, run)`` to ``_LAWS``, so the report
    lists laws in declaration order.

    The decorated function is a generator over the context: it yields
    the number of cases it has just settled (checked, or passed by proof)
    and raises :class:`_Fail` with a witness at the first failing case.
    ``run`` drives it and builds the result: it skips the law when the
    model lacks an entry of ``needs`` (checked in order), reports the sum
    of the yields as ``N cases`` on a pass, tagged when ``chi_tag`` is set
    and the Euler characteristic is 0, and turns any other exception, even
    one raised after some yields, into status ``error`` with ``Type:
    message`` as the witness, so one broken law does not abort the report.
    """

    def register(fn: Callable[[_Ctx], Iterator[int]]):
        def run(ctx: _Ctx) -> CheckResult:
            for need in needs:
                present, reason = _NEEDS[need]
                if not present(ctx.model):
                    return CheckResult(name, "skip", reason)
            try:
                cases = sum(fn(ctx))
            except _Fail as fail:
                return CheckResult(name, "fail", fail.detail, fail.witness)
            except Exception as exc:  # reported; the other laws still run
                return CheckResult(name, "error", witness=f"{type(exc).__name__}: {exc}")
            detail = f"{cases} cases"
            if chi_tag and ctx.chi_zero:
                detail += f"; {_CHI_ZERO_TAG}"
            return CheckResult(name, "pass", detail)

        _LAWS.append((name, run))
        return fn

    return register


@_law("normal-form-idempotent")
def _check_normal_form_idempotent(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for _ in range(60):
        x = ctx.random_element(rng)
        again = model.normal_form([(c, m) for m, c in x.terms.items()])
        if again != x:
            raise _Fail(f"{x} renormalized to {again}")
        yield 1


@_law("normal-form-order-independence")
def _check_normal_form_order(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for _ in range(40):
        raw = [
            (rng.randint(-6, 6), rng.choice(ctx.basis)[1]) for _ in range(rng.randint(0, 6))
        ]
        ref = model.normal_form(list(raw))
        for _ in range(3):
            rng.shuffle(raw)
            if model.normal_form(list(raw)) != ref:
                raise _Fail(f"reordering changed the normal form of {raw}")
        yield 1


@_law("ring-unit-law")
def _check_ring_unit(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    one = model.unit()
    for _, m, x in ctx.basis:
        if model.mul(one, x) != x or model.mul(x, one) != x:
            raise _Fail(f"unit law fails on {ctx.fmt(m)}")
        yield 1


@_law("ring-associativity")
def _check_ring_associativity(ctx: _Ctx) -> Iterator[int]:
    """Exhaustive over the ``|deg| <= 4`` monomials, then random elements.

    The basis is sorted by degree, so those monomials are a slice ``[lo,
    hi)`` of it, read in place in ``ctx.products``.  Products are held as
    ids, 0 for zero; equal products share one id, so ids compare as values.

    Skip rule: ``LoopModel.mul`` returns zero when an operand is zero, so
    a side with a zero factor is zero and is not multiplied; a triple
    with ``x*y = 0`` and ``y*z = 0`` passes without any product, and is
    counted with its row.

    Reuse: ``(x*y)*z`` is computed once per value of ``x*y`` and ``z`` (for
    every ``z`` when the value first heads a row, as the row checks every
    ``z``), and ``x*(y*z)`` once per ``x`` and value of ``y*z``, kept for
    the current ``x`` only.  That is at most ``2*D*n`` products past the
    table for ``n`` monomials with ``D`` distinct nonzero products.
    ``mul`` depends only on the model and its operands' terms, so a
    memoised value is exactly what a plain triple loop computes, and the
    comparisons keep its ``x, y, z`` order: the first failing triple, the
    witness and the case count are the same.
    """
    model, rng = ctx.model, ctx.rng()
    table, values, intern = ctx.products, ctx.values, ctx.intern
    lo = sum(d < -4 for d, _, _ in ctx.basis)
    hi = len(ctx.basis) - sum(d > 4 for d, _, _ in ctx.basis)
    small = [x for _, _, x in ctx.basis[lo:hi]]
    # per y, the z with y*z != 0, paired with the id of y*z
    live = [[(z, yz) for z, yz in zip(small, row[lo:hi]) if yz] for row in table[lo:hi]]
    left: dict[int, list[int]] = {}  # id of x*y -> id of (x*y)*z for each z
    for x, xy_row in zip(small, table[lo:hi]):
        right: dict[int, int] = {}  # id of y*z -> id of x*(y*z)

        def x_times(yz: int) -> int:
            if yz not in right:
                right[yz] = intern(model.mul(x, values[yz]))
            return right[yz]

        for y, xy, yz_row, yz_live in zip(small, xy_row[lo:hi], table[lo:hi], live):
            if xy:
                if xy not in left:
                    left[xy] = [intern(model.mul(values[xy], z)) for z in small]
                for z, yz, xy_z in zip(small, yz_row[lo:hi], left[xy]):
                    if xy_z != (x_times(yz) if yz else 0):
                        raise _Fail(f"({x})*({y})*({z})")
            else:
                for z, yz in yz_live:
                    if x_times(yz):
                        raise _Fail(f"({x})*({y})*({z})")
            yield len(small)
    for _ in range(80):
        x, y, z = (ctx.random_element(rng, max_terms=2) for _ in range(3))
        if model.mul(model.mul(x, y), z) != model.mul(x, model.mul(y, z)):
            raise _Fail(f"({x})*({y})*({z})")
        yield 1


@_law("ring-distributivity")
def _check_ring_distributivity(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for _ in range(80):
        x, y, z = (ctx.random_element(rng, max_terms=2) for _ in range(3))
        if model.mul(x, y + z) != model.mul(x, y) + model.mul(x, z):
            raise _Fail(f"({x})*(({y})+({z}))")
        yield 1


@_law("graded-commutativity")
def _check_graded_commutativity(ctx: _Ctx) -> Iterator[int]:
    """``x*y = (-1)^(|x||y|) y*x`` on every ordered pair of basis monomials,
    read from ``ctx.products``.

    Skip rule: each pair ``i <= j`` is checked once, in the order of a
    plain double loop, and counted in both orders.  With a sign ``s =
    +-1`` symmetric in ``a`` and ``b``, ``f(a, b) == s * f(b, a)`` fails
    exactly when it fails for ``(b, a)``: multiply both sides by ``s``.
    So if ``(j, i)`` with ``j > i`` fails, ``(i, j)`` came before it in
    the plain loop and fails too: that loop's first failing pair, the
    witness, has ``i <= j`` and is the first failing pair here.
    """
    table, values = ctx.products, ctx.values
    pairs = itertools.combinations_with_replacement(enumerate(ctx.basis), 2)
    for (i, (d1, m1, _)), (j, (d2, m2, _)) in pairs:
        sign = -1 if (d1 * d2) % 2 else 1
        if values[table[i][j]] != values[table[j][i]].scaled(sign):
            raise _Fail(f"{ctx.fmt(m1)} * {ctx.fmt(m2)}")
        yield 1 if i == j else 2


@_law("mul-oracle-agreement")
def _check_mul_oracle(ctx: _Ctx) -> Iterator[int]:
    """``DenseOracle.multiply`` on every ordered pair of basis monomials
    with ``|deg| <= min(window, 6)``, then the engine's basis of those
    degrees against the oracle's, moduli included.

    The engine's products are read from ``ctx.products``, so the sweep
    covers only the engine's monomials.  The closing comparison fails the
    law unless they are exactly the oracle's, so a pass means no oracle
    pair went unread.  Both bases are sorted by (degree, monomial), so on a
    pass the pairs came in the oracle's order and the law counts its
    ``M^2`` pairs; the comparison adds no case.  Its witness is the first
    monomial in that order that differs.
    """
    model = ctx.model
    oracle = DenseOracle(model, min(ctx.window, 6))
    table, values = ctx.products, ctx.values
    rows = [(i, d, m) for i, (d, m, _) in enumerate(ctx.basis) if abs(d) <= oracle.window]
    for i, _, m1 in rows:
        for j, _, m2 in rows:
            got = values[table[i][j]]
            want = oracle.multiply(m1, m2)
            expected = {} if want is None else {want[1]: want[0]}
            if got.terms != expected:
                raise _Fail(f"{ctx.fmt(m1)} * {ctx.fmt(m2)}: engine {got}, oracle {expected}")
            yield 1
    engine_basis = [(d, m, model.moduli[m]) for _, d, m in rows]
    oracle_basis = [
        (d, m, oracle.modulus(m)) for d, ms in sorted(oracle.basis.items()) for m in ms
    ]
    # past the end of a list, a side reads as lacking every monomial left
    for e, o in itertools.zip_longest(engine_basis, oracle_basis, fillvalue=(inf,)):
        if e != o:
            d, m, mod = min(e, o)
            if e[:2] == o[:2]:
                where = f"has modulus {e[2]} in the engine, {o[2]} in the oracle"
            elif e < o:
                where = f"is in the engine (modulus {mod}) but not in the oracle"
            else:
                where = f"is in the oracle (modulus {mod}) but not in the engine"
            raise _Fail(f"basis in degree {d}: {ctx.fmt(m)} {where}")


@_law("torsion-identity", chi_tag=True)
def _check_torsion_identity(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    # degree 0 and chi = 0 hold trivially, and count as cases
    for deg, m, x in ctx.basis:
        if deg and not ctx.chi_zero:
            value = model.mul(model.c0, x).scaled(model.euler)
            if value:
                raise _Fail(f"chi*c0*{ctx.fmt(m)} = {value} != 0", _INCONSISTENT_TAG)
        yield 1


@_law("bracket-unit", needs=("bracket",))
def _check_bracket_unit(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    one = model.unit()
    for _, m, x in ctx.basis:
        if model.bracket(one, x) or model.bracket(x, one):
            raise _Fail(f"bracket with 1 on {ctx.fmt(m)}")
        yield 1


@_law("bracket-antisymmetry", needs=("bracket",))
def _check_bracket_antisymmetry(ctx: _Ctx) -> Iterator[int]:
    """``{x, y} = -(-1)^((|x|+1)(|y|+1)) {y, x}`` on every ordered pair of
    basis monomials; each unordered pair is checked once and counted in
    both orders (see :func:`_check_graded_commutativity` for the proof)."""
    model = ctx.model
    pairs = itertools.combinations_with_replacement(enumerate(ctx.basis), 2)
    for (i, (d1, m1, x)), (j, (d2, m2, y)) in pairs:
        sign = 1 if ((d1 + 1) * (d2 + 1)) % 2 else -1
        if model.bracket(x, y) != model.bracket(y, x).scaled(sign):
            raise _Fail(f"bracket({ctx.fmt(m1)}, {ctx.fmt(m2)})")
        yield 1 if i == j else 2


@_law("bracket-torsion", needs=("bracket",), chi_tag=True)
def _check_bracket_torsion(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    if ctx.chi_zero:  # every case holds trivially
        yield len(ctx.basis)
        return
    excluded = {-1} if model.simply_connected else {0, -1}
    for deg, m, x in ctx.basis:
        if deg in excluded:
            continue
        value = model.bracket(model.c0, x).scaled(model.euler)
        if value:
            raise _Fail(f"chi*bracket(c0, {ctx.fmt(m)}) = {value} != 0")
        yield 1


@_law("delta-squared", needs=("delta",))
def _check_delta_squared(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for _, m, x in ctx.basis:
        value = model.delta(model.delta(x))
        if value:
            raise _Fail(f"delta(delta({ctx.fmt(m)})) = {value} != 0", "BV data is inconsistent")
        yield 1


@_law("delta-bv-residual", needs=("delta",))
def _check_delta_bv_residual(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    # the sign needs a homogeneous x; other draws are not cases
    for _ in range(60):
        x = ctx.random_element(rng, max_terms=2)
        y = ctx.random_element(rng, max_terms=2)
        dx = model.degree_of(x)
        if not isinstance(dx, int):
            continue
        sign = -1 if dx % 2 else 1
        residual = (
            model.delta(model.mul(x, y))
            - model.mul(model.delta(x), y)
            - (model.mul(x, model.delta(y)) + model.bracket(x, y)).scaled(sign)
        )
        if residual:
            raise _Fail(f"x={x}, y={y}: residual {residual}")
        yield 1


@_law("coproduct-symmetry", chi_tag=True)
def _check_coproduct_symmetry(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for _, m, x in ctx.basis:
        value = psi(model, x)
        if twist(value) != value:
            raise _Fail(f"psi({ctx.fmt(m)}) = {value}")
        yield 1


@_law("coproduct-forms-agree", chi_tag=True)
def _check_coproduct_forms_agree(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for _, m, x in ctx.basis:
        value, mirror = psi(model, x), psi_mirror(model, x)
        if value != mirror:
            raise _Fail(f"psi({ctx.fmt(m)}): {value} vs {mirror}", _INCONSISTENT_TAG)
        yield 1


def _integer_multiple_of(t, base):
    """k with t == k * base, or None.

    Each key of ``base``, with coefficient ``c`` there and ``v`` in ``t``,
    asks ``k*c = v`` modulo the key's modulus, the gcd of its factors'.
    A free key (modulus 0) fixes ``k``.  Otherwise each congruence is
    solved for ``k`` and the solutions are combined by the Chinese
    remainder theorem into ``k = r`` modulo ``n``: every ``k`` that fits
    the keys of ``base`` is ``r`` plus a multiple of ``n``, and gives the
    same ``k * base``.  A congruence with no solution, or a key of ``t``
    that ``base`` lacks, fails the closing comparison."""
    modulus = base.model.modulus
    r, n = 0, 1
    for key, c in base.terms.items():
        v = t.terms.get(key, 0)
        mod = gcd(*map(modulus, key))
        if not mod:
            r = v // c
            break
        g = gcd(c, mod)
        mod //= g
        r2 = v // g * pow(c // g, -1, mod) % mod  # k = r2 modulo mod
        g = gcd(n, mod)
        r += n * ((r2 - r) // g * pow(n // g, -1, mod // g) % (mod // g))
        n = n // g * mod
    return r if t == base.scaled(r) else None


@_law("coproduct-concentration", chi_tag=True)
def _check_coproduct_concentration(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    c0c0 = tensor([model.c0, model.c0])
    psi_one = c0c0.scaled(model.euler)  # the definition, chi * (c0*1) (x) c0
    for deg, m, x in ctx.basis:
        value = psi(model, x)
        if deg != 0:
            if value:
                raise _Fail(
                    f"psi({ctx.fmt(m)}) = {value} != 0 in degree {deg}", _INCONSISTENT_TAG
                )
        elif _integer_multiple_of(value, c0c0) is None:
            raise _Fail(f"psi({ctx.fmt(m)}) = {value} is not a multiple of c0 (x) c0")
        elif not any(m) and value != psi_one:
            raise _Fail(f"psi(1) = {value}, not chi * c0 (x) c0 = {psi_one}")
        yield 1


@_law("coproduct-frobenius", chi_tag=True)
def _check_coproduct_frobenius(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for _ in range(50):
        p = rng.randint(0, 4)
        factors = [rng.choice(ctx.basis)[2] for _ in range(p)]
        values = [psi_split(model, factors, ell) for ell in range(p + 1)]
        for ell in range(1, p + 1):
            if values[ell] != values[0]:
                names = ", ".join(str(f) for f in factors)
                raise _Fail(
                    f"psi_split([{names}], {ell}) = {values[ell]} "
                    f"differs from split 0 = {values[0]}",
                    _INCONSISTENT_TAG,
                )
        yield 1


@_law("coproduct-coassociativity", chi_tag=True)
def _check_coproduct_coassociativity(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for _, m, x in ctx.basis:
        value = psi(model, x)
        if apply_psi(value, 1) != apply_psi(value, 2):
            raise _Fail(f"on {ctx.fmt(m)}")
        yield 1


@_law("coproduct-delta-factorwise", needs=("delta",), chi_tag=True)
def _check_coproduct_delta_factorwise(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for _, m, x in ctx.basis:
        value = apply_delta_factorwise(psi(model, x))
        if value:
            raise _Fail(f"factorwise delta of psi({ctx.fmt(m)}) = {value}")
        yield 1


@_law("coproduct-kills-geometric-brackets", needs=("bracket", "geometric"), chi_tag=True)
def _check_coproduct_kills_geometric_brackets(ctx: _Ctx) -> Iterator[int]:
    model = ctx.model
    for name in [g.name for g in model.generators if g.geometric]:
        g = model.gen(name)
        for _, m, x in ctx.basis:
            value = psi(model, model.bracket(g, x))
            if value:
                raise _Fail(f"psi(bracket({name}, {ctx.fmt(m)})) = {value}")
            yield 1


def _small_surfaces():
    """Every surface with genus <= 2 and 1 to 3 inputs and outputs."""
    for g, p, q in itertools.product(range(3), range(1, 4), range(1, 4)):
        yield Surface(g, p, q)


@_law("surface-closed-vs-pants")
def _check_surface_closed_vs_pants(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for s in _small_surfaces():
        for _ in range(12):
            inputs = [rng.choice(ctx.basis)[2] for _ in range(s.inputs)]
            closed = string_operation(model, s, inputs)
            pants = string_operation_via_pants(model, s, inputs)
            if closed != pants:
                names = ", ".join(map(str, inputs))
                raise _Fail(f"{s} on [{names}]: closed {closed}, pants {pants}")
            yield 1


def _random_sewable_pair(rng: random.Random) -> tuple[Surface, Surface]:
    s1 = Surface(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3))
    return s1, Surface(rng.randint(0, 2), s1.outputs, rng.randint(1, 3))


@_law("surface-functoriality")
def _check_surface_functoriality(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    for _ in range(30):
        s1, s2 = _random_sewable_pair(rng)
        glued = sew(s1, s2)
        for _ in range(5):
            inputs = [rng.choice(ctx.basis)[2] for _ in range(s1.inputs)]
            composed = string_operation(model, s2, string_operation(model, s1, inputs))
            if composed != string_operation(model, glued, inputs):
                names = ", ".join(map(str, inputs))
                raise _Fail(f"{s1} then {s2} vs {glued} on [{names}]")
            yield 1


@_law("surface-degree-shift")
def _check_surface_degree_shift(ctx: _Ctx) -> Iterator[int]:
    model, rng = ctx.model, ctx.rng()
    d = model.dim
    for s in _small_surfaces():
        for _ in range(6):
            picks = [rng.choice(ctx.basis) for _ in range(s.inputs)]
            in_h = sum(deg + d for deg, _, _ in picks)
            for ms in string_operation(model, s, [x for _, _, x in picks]).terms:
                out_h = sum(model.monomial_degree(m) + d for m in ms)
                if out_h != in_h + s.euler_char * d:
                    raise _Fail(
                        f"{s}: output degree {out_h}, expected {in_h + s.euler_char * d}"
                    )
            yield 1


@_law("surface-certificate-sew")
def _check_surface_certificate_sew(ctx: _Ctx) -> Iterator[int]:
    rng = ctx.rng()
    for _ in range(60):
        s1, s2 = _random_sewable_pair(rng)
        if s1.genus >= 1 or s2.genus >= 1:
            if vanishing_certificate(sew(s1, s2)) is not VanishingReason.GENUS_AT_LEAST_ONE:
                raise _Fail(f"{s1} sewn to {s2}")
        yield 1


@_law("model-round-trip")
def _check_model_round_trip(ctx: _Ctx) -> Iterator[int]:
    text = print_model(ctx.model)
    if print_model(parse_model(text).model) != text:
        raise _Fail("printout changed after reparse")
    yield 1


def run_checks(doc, max_abs_degree: int = 8, seed: int = 0) -> CheckReport:
    """Run every law over the degree window; deterministic for fixed inputs."""
    if max_abs_degree < 0:
        raise ValueError(f"window must be a non-negative integer, got {max_abs_degree}")
    if isinstance(doc, ModelDoc):
        model, name = doc.model, doc.provenance
    else:
        model, name = doc, "<model>"
    ctx = _Ctx(model, max_abs_degree, seed)
    return CheckReport(name, max_abs_degree, seed, tuple(run(ctx) for _, run in _LAWS))
