"""Law suite: pass/fail behaviour, determinism, and the dense oracle."""

import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    CheckReport,
    CheckResult,
    DenseOracle,
    LoopModel,
    Monomial,
    checks,
    coalgebra,
    load_model,
    parse_model,
    print_model,
    run_checks,
    tensor,
)
from loophom.cli import main

CHECK_DETAILS = Path(__file__).parent / "data" / "check_details_w24_seed0.json"
README = Path(__file__).parents[1] / "README.md"


def test_all_builtins_pass():
    for name in ("sphere:2", "sphere:3", "sphere:4", "cpn:1", "cpn:2", "toy:bv0"):
        report = run_checks(load_model(name), max_abs_degree=8, seed=0)
        failed = [r.law for r in report.results if r.status == "fail"]
        assert report.passed, (name, failed)


def test_readme_coverage_table_names_every_law():
    # README "What `check` covers": one row per claim, with its laws and
    # one coverage class; a new law cannot land without a row
    section = README.read_text(encoding="utf-8").split("### What `check` covers\n", 1)[1]
    lines = section.split("\n\n| Claim |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    classes = (
        "exhaustive over the window",
        r"exhaustive over `\|deg\| <= 4`",
        "exhaustive on generators",
        "sampled, ",
        "holds at construction",
        "not checked",
    )
    named = set()
    for line in lines:
        _, laws, coverage = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1])
        assert coverage.startswith(classes), line
        assert not coverage.startswith("sampled") or re.match(r"sampled, \d+ ", coverage), line
        named |= set(re.findall(r"`([a-z-]+)`", laws))
    assert len(lines) >= 20
    assert named == {name for name, _ in checks._LAWS}


def test_sphere_window_twelve_passes():
    report = run_checks(load_model("sphere:4"), max_abs_degree=12, seed=0)
    assert report.passed


def test_corrupted_model_fails_torsion_identity(corrupted_s4):
    report = run_checks(corrupted_s4, max_abs_degree=8, seed=0)
    assert not report.passed
    by_law = {r.law: r for r in report.results}
    bad = by_law["torsion-identity"]
    assert bad.status == "fail"
    assert "2*a*v" in bad.witness
    assert "inconsistent with string topology" in bad.detail


def test_chi_zero_model_tagged():
    report = run_checks(load_model("sphere:3"), max_abs_degree=8, seed=0)
    assert report.passed
    by_law = {r.law: r for r in report.results}
    assert "vanishes identically (chi = 0)" in by_law["torsion-identity"].detail
    assert "vanishes identically (chi = 0)" in by_law["coproduct-concentration"].detail


def test_skips_without_optional_data():
    report = run_checks(load_model("sphere:4"), max_abs_degree=6, seed=0)
    by_law = {r.law: r for r in report.results}
    assert by_law["bracket-antisymmetry"].status == "skip"
    assert by_law["delta-squared"].status == "skip"


def test_bv_laws_run_on_toy_model():
    report = run_checks(load_model("toy:bv0"), max_abs_degree=8, seed=0)
    by_law = {r.law: r for r in report.results}
    for law in (
        "bracket-unit",
        "bracket-antisymmetry",
        "bracket-torsion",
        "delta-squared",
        "delta-bv-residual",
        "coproduct-delta-factorwise",
        "coproduct-kills-geometric-brackets",
    ):
        assert by_law[law].status == "pass", law


def test_reports_are_deterministic():
    doc = load_model("cpn:2")
    a = run_checks(doc, max_abs_degree=8, seed=7).render_text()
    b = run_checks(doc, max_abs_degree=8, seed=7).render_text()
    assert a == b
    ja = run_checks(doc, max_abs_degree=8, seed=7).render_json()
    assert ja == run_checks(doc, max_abs_degree=8, seed=7).render_json()
    payload = json.loads(ja)
    assert payload["passed"] is True
    assert payload["model"] == "cpn:2"
    assert {r["law"] for r in payload["results"]} >= {"torsion-identity", "ring-unit-law"}


def test_inconsistent_bv_data_reported_not_accepted():
    # passes validation (delta of c0 vanishes) but delta^2(x*y) = -delta(z) != 0
    model = LoopModel(
        dim=1,
        euler=0,
        generators=[("x", -1), ("y", -1), ("z", -1)],
        c0={"x": 1},
        delta={"x": 0, "y": 0, "z": 1},
        bracket={("x", "y"): {"z": 1}},
    )
    xy = model.mul(model.gen("x"), model.gen("y"))
    assert model.delta(model.delta(xy)) != 0
    report = run_checks(model, max_abs_degree=6, seed=0)
    by_law = {r.law: r for r in report.results}
    assert by_law["delta-squared"].status == "fail"
    assert "inconsistent" in by_law["delta-squared"].detail
    assert not report.passed


def test_seed_changes_sampling_not_verdict():
    doc = load_model("sphere:4")
    for seed in (0, 1, 99):
        assert run_checks(doc, max_abs_degree=6, seed=seed).passed


# -- the independent multiplication oracle ----------------------------------------


def test_oracle_signs_match_engine_on_odd_generators(toy):
    oracle = DenseOracle(toy, 4)
    y = (1, 0)
    z = (0, 1)
    assert oracle.multiply(z, y) == (-1, (1, 1))
    assert oracle.multiply(y, z) == (1, (1, 1))
    assert oracle.multiply(y, y) is None


def test_oracle_agrees_on_three_odd_generators():
    # richer sign paths than any built-in: products move letters past two
    # odd letters at once
    model = LoopModel(
        dim=3,
        euler=0,
        generators=[("x", -1), ("y", -1), ("z", -1)],
        c0={"x": 1, "y": 1, "z": 1},
    )
    oracle = DenseOracle(model, 4)
    monos = [e for vs in oracle.basis.values() for e in vs]
    assert len(monos) == 8
    for e1 in monos:
        for e2 in monos:
            got = model.mul(model.mono_elem(Monomial(e1)), model.mono_elem(Monomial(e2)))
            want = oracle.multiply(e1, e2)
            expected = {} if want is None else {Monomial(want[1]): want[0]}
            assert got.terms == expected, (e1, e2)
    yz = model.mono_elem({"y": 1, "z": 1})
    x = model.gen("x")
    xyz = model.mono_elem({"x": 1, "y": 1, "z": 1})
    assert model.mul(yz, x) == xyz  # two odd-odd transpositions cancel


def test_checks_pass_with_four_interleaved_odd_generators(odd_interleaved):
    report = run_checks(odd_interleaved, max_abs_degree=1, seed=0)
    by_law = {r.law: r for r in report.results}
    assert report.passed, [r.law for r in report.results if r.status == "fail"]
    assert by_law["mul-oracle-agreement"].detail == "2304 cases"


@settings(max_examples=200)
@given(data=st.data())
def test_product_sign_matches_oracle(odd_interleaved, data):
    model = odd_interleaved
    oracle = DenseOracle(model, 0)
    # odd generators and a (a^2 = 0) take exponent 0 or 1, v is free
    vec = st.tuples(*(st.integers(0, 5 if g.name == "v" else 1) for g in model.generators))
    e1, e2 = data.draw(vec), data.draw(vec)
    got = model.mul(model.mono_elem(Monomial(e1)), model.mono_elem(Monomial(e2)))
    combined = tuple(a + b for a, b in zip(e1, e2))
    if oracle.modulus(combined) == 1:
        assert got.terms == {}
    else:
        assert got.terms == {Monomial(combined): oracle.sign(e1, e2)}


def _plain_associativity_witness(model, window):
    # the exhaustive sweep as a plain triple loop, every product recomputed
    small = [model.mono_elem(m) for _, m, _ in model.basis_window(min(window, 4))]
    for x in small:
        for y in small:
            for z in small:
                if model.mul(model.mul(x, y), z) != model.mul(x, model.mul(y, z)):
                    return f"({x})*({y})*({z})"
    return None


def _corrupt_products(monkeypatch, model, name, pairs):
    # model.<name>(left, right) gains the unit for each (left, right) in
    # pairs; every other call is exact
    real = getattr(model, name)

    def corrupted(a, b):
        out = real(a, b)
        if any(a == left and b == right for left, right in pairs):
            return out + model.unit()
        return out

    monkeypatch.setattr(model, name, corrupted)


@pytest.mark.parametrize(
    "triples, witness",
    [
        # each entry lists corrupted products (left, right), and each of
        # them breaks one triple: for odd generators p after q in
        # declaration order, p*q = -q*p is the only product of two
        # coefficient-1 monomials with that value, so corrupting (p*q)*r
        # breaks exactly the triple (p, q, r)
        ([(("t", "x"), "y")], "(t)*(x)*(y)"),
        (
            [(("t", "x"), "y"), (("y", "x"), "t"), (("t", "y"), "x")],
            "(t)*(y)*(x)",
        ),
        # t*(t*x) breaks only (t, t, x), a triple with x*y = t*t = 0 and
        # y*z = t*x != 0: a sweep that skipped every row with x*y = 0
        # would pass it
        ([("t", ("t", "x"))], "(t)*(t)*(x)"),
    ],
)
def test_associativity_reports_the_first_corrupted_triple(
    odd_interleaved, monkeypatch, triples, witness
):
    model = odd_interleaved
    real_mul = model.mul

    def operand(spec):
        # a generator name, or a pair of names standing for their product
        if isinstance(spec, str):
            return model.gen(spec)
        return real_mul(model.gen(spec[0]), model.gen(spec[1]))

    bad = [(operand(left), operand(right)) for left, right in triples]
    assert all(left and right for left, right in bad)
    _corrupt_products(monkeypatch, model, "mul", bad)
    report = run_checks(model, max_abs_degree=1, seed=0)
    result = next(r for r in report.results if r.law == "ring-associativity")
    assert result.status == "fail"
    assert result.witness == witness
    assert result.witness == _plain_associativity_witness(model, 1)


def _law_result(model, law, window):
    return dict(checks._LAWS)[law](checks._Ctx(model, window, 0))


@pytest.mark.parametrize(
    "side, witness",
    [
        # (c^2, a), (a, c^2), (a*c, c) and (c, a*c) all give a*c^2, and
        # (c^2, a) comes first: its row fills the memo of (a*c^2)*z
        ("left", "(c^2)*(a)*(a*c)"),
        # x = a*c meets y*z = a*c^2 first at (c^2, a)
        ("right", "(a*c)*(c^2)*(a)"),
    ],
)
def test_associativity_memo_reports_a_shared_corrupted_value(
    s2_cp2, monkeypatch, side, witness
):
    # p*q = q*p for the even monomials p = a*c and q = c; their product
    # has degree -6, outside the |deg| <= 4 sub-window, so only the
    # (x*y)*z and x*(y*z) memos ever multiply it; at window 8 it is in
    # the window, and the shared product table holds the corrupted value
    # too, but the sweep reads only the sub-window's rows and columns
    model = s2_cp2
    p, q = model.mono_elem({"a": 1, "c": 1}), model.gen("c")
    pq, r = model.mul(p, q), p
    assert pq == model.mul(q, p)
    _corrupt_products(monkeypatch, model, "mul", [(pq, r) if side == "left" else (r, pq)])
    for window in (4, 8):
        result = _law_result(model, "ring-associativity", window)
        assert (result.status, result.witness) == ("fail", witness)
        assert result.witness == _plain_associativity_witness(model, window)


@pytest.mark.parametrize(
    "fixture, window", [("s2_cp2", 1), ("s2_cp2", 4), ("odd_interleaved", 1), ("s2_cp2", 8)]
)
def test_associativity_multiplies_each_distinct_value_once(
    request, count_mul, fixture, window
):
    # N^2 products for the table, which covers the whole window of N
    # monomials (N = n up to window 4), then at most D*n for (x*y)*z and
    # D*n for x*(y*z) over the n monomials with |deg| <= 4, D the number
    # of their distinct nonzero products; the 80 random triples take four
    # products each
    model = request.getfixturevalue(fixture)
    basis = model.basis_window(window)
    small = [model.mono_elem(m) for d, m, _ in basis if abs(d) <= 4]
    big_n, n = len(basis), len(small)
    distinct = {frozenset(model.mul(x, y).terms.items()) for x in small for y in small}
    d = len(distinct - {frozenset()})
    calls = count_mul(model)
    result = _law_result(model, "ring-associativity", window)
    assert result.detail == f"{n**3 + 80} cases"
    assert calls[0] <= big_n * big_n + 2 * d * n + 4 * 80


def test_graded_commutativity_reads_the_shared_product_table(s2_cp2, count_mul):
    # at window 8 the basis has N = 190 monomials and the |deg| <= 4
    # sub-window of ring-associativity 98; the law that runs first fills
    # the context's table of the N^2 ordered products, and
    # graded-commutativity only reads it
    laws = dict(checks._LAWS)
    ctx = checks._Ctx(s2_cp2, 8, 0)
    small = [x for d, _, x in ctx.basis if abs(d) <= 4]
    big_n, n = len(ctx.basis), len(small)
    assert (big_n, n) == (190, 98)
    distinct = {frozenset(s2_cp2.mul(x, y).terms.items()) for x in small for y in small}
    d = len(distinct - {frozenset()})
    calls = count_mul(s2_cp2)
    assert laws["ring-associativity"](ctx).status == "pass"
    assert calls[0] <= big_n * big_n + 2 * d * n + 4 * 80
    calls[0] = 0
    assert laws["graded-commutativity"](ctx).status == "pass"
    assert calls[0] == 0
    assert laws["mul-oracle-agreement"](ctx).status == "pass"
    assert calls[0] == 0
    # run alone on a fresh context, it builds the table: one product per
    # ordered pair, not two per unordered pair
    assert laws["graded-commutativity"](checks._Ctx(s2_cp2, 8, 0)).status == "pass"
    assert calls[0] == big_n * big_n


def test_equal_products_share_one_id(s2_cp2):
    # ring-associativity compares ids, so an id must stand for a value,
    # whatever order its terms were inserted in
    model = s2_cp2
    ctx = checks._Ctx(model, 4, 0)
    v, u = model.monomial({"v": 1}), model.monomial({"u": 1})
    p, q = model.from_raw({v: 1, u: 2}), model.from_raw({u: 2, v: 1})
    assert p == q and list(p.terms) != list(q.terms)
    i = ctx.intern(p)
    assert i != 0 and ctx.intern(q) == i
    assert ctx.values[i] == p
    other = model.from_raw({v: 1, u: 1})
    j = ctx.intern(other)
    assert j not in (0, i) and ctx.values[j] == other
    assert ctx.intern(model.zero()) == 0 and ctx.values[0] == model.zero()


def test_associativity_reads_the_shared_table_in_place(s2_cp2):
    # with the table built, the law holds only its memos of ids: it keeps
    # no copy of the 98^2 sub-window of the 190^2 table and no element memo
    ctx = checks._Ctx(s2_cp2, 8, 0)
    ctx.products
    tracemalloc.start()
    try:
        result = dict(checks._LAWS)["ring-associativity"](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak < 800 * 1024


def test_laws_yield_the_number_of_cases_they_settled(s2_cp2, bv_model):
    # ring-associativity yields once per (x, y) row and once per random
    # triple, so the triples passed by proof cost nothing to count
    ctx = checks._Ctx(s2_cp2, 4, 0)
    n = sum(1 for d, _, _ in ctx.basis if abs(d) <= 4)
    counts = list(checks._check_ring_associativity(ctx))
    assert len(counts) <= n * n + 80
    assert sum(counts) == n**3 + 80
    # with chi = 0 every bracket-torsion case holds, counted in one yield
    ctx = checks._Ctx(bv_model, 4, 0)
    assert bv_model.euler == 0
    assert list(checks._check_bracket_torsion(ctx)) == [len(ctx.basis)]


@pytest.mark.parametrize("fixture", ["s2", "odd_interleaved"])
def test_random_elements_are_drawn_as_by_normal_form(request, fixture):
    # the same rng calls in the same order as normal_form over drawn pairs
    model = request.getfixturevalue(fixture)
    ctx = checks._Ctx(model, 4, 7)
    rng, ref = ctx.rng(), ctx.rng()
    for i in range(300):
        max_terms = 2 + i % 2
        k = ref.randint(0, max_terms)
        want = model.normal_form(
            [(ref.randint(-4, 4), ref.choice(ctx.basis)[1]) for _ in range(k)]
        )
        assert ctx.random_element(rng, max_terms=max_terms) == want
    assert rng.getstate() == ref.getstate()


def test_integer_multiple_of_solves_modulo_each_key():
    # a, b and c are 4-, 6- and 9-torsion: the keys of base ask k mod 4,
    # 2*k mod 6 (so k mod 3) and k mod 9, which combine to k mod 36
    model = LoopModel(
        dim=2,
        euler=0,
        generators=[("a", -2), ("b", -2), ("c", -2)],
        relations=[(1, {"a": 2}), (1, {"b": 2}), (1, {"c": 2}), (4, {"a": 1}), (6, {"b": 1}), (9, {"c": 1})],
        c0={"a": 1},
    )
    a, b, c, one = model.gen("a"), model.gen("b"), model.gen("c"), model.unit()
    base = tensor([a + 2 * b + c, one])
    for k in range(-40, 41):
        found = checks._integer_multiple_of(base.scaled(k), base)
        assert found is not None and base.scaled(found) == base.scaled(k)
    # 2*k = 1 mod 6; k = 1 mod 3 against k = 0 mod 9; a key that base lacks
    for t in (tensor([b, one]), tensor([2 * b, one]), base + tensor([b, b])):
        assert checks._integer_multiple_of(t, base) is None
    # only zero is a multiple of a zero base, and its k is 0
    zero = tensor([model.zero(), one])
    assert checks._integer_multiple_of(zero, zero) == 0
    for t in (base, tensor([a, a])):
        assert checks._integer_multiple_of(t, zero) is None


def test_oracle_memo_does_not_hide_an_engine_modulus(s4, monkeypatch):
    # a fresh model, so the corrupted cache entry reaches no shared basis
    model = parse_model(print_model(s4)).model
    av = model.monomial({"a": 1, "v": 1})
    assert _law_result(model, "mul-oracle-agreement", 6).status == "pass"
    monkeypatch.setitem(model.moduli, av, 1)
    result = _law_result(model, "mul-oracle-agreement", 6)
    assert result.status == "fail"
    assert result.witness.startswith("a * v: engine 0, oracle {(0, 1, 1): 1}")


@pytest.mark.parametrize(
    "name, dropped, witness",
    [
        ("sphere:2", 2, "v^2 is in the oracle (modulus 0) but not in the engine"),
        ("cpn:2", 2, "u is in the oracle (modulus 0) but not in the engine"),
        ("cpn:3", 1, "c*u is in the oracle (modulus 0) but not in the engine"),
        ("s2_cp2", 10, "u is in the oracle (modulus 0) but not in the engine"),
        ("sphere:4", 0, None),
        ("toy:bv0", 0, None),
    ],
)
def test_a_lossy_engine_basis_fails_check(request, monkeypatch, name, dropped, witness):
    # every law sweeps the engine's basis, and mul-oracle-agreement reads
    # the engine's products of it: only its comparison with the oracle's
    # basis sees a monomial that the enumeration leaves out
    model = request.getfixturevalue(name) if name == "s2_cp2" else load_model(name).model
    real = LoopModel._basis_between
    lost = []

    def lossy(self, lo, hi):
        out = real(self, lo, hi)
        lost[:] = [t for t in out if t[0] == 4 and t[1][-1]]
        return [t for t in out if t not in lost]

    monkeypatch.setattr(LoopModel, "_basis_between", lossy)
    report = run_checks(model, max_abs_degree=6, seed=0)
    assert len(lost) == dropped
    result = next(r for r in report.results if r.law == "mul-oracle-agreement")
    if witness is None:
        assert report.passed and result.status == "pass"
    else:
        assert not report.passed
        assert (result.status, result.witness) == ("fail", f"basis in degree 4: {witness}")


def test_oracle_law_names_a_modulus_the_engine_basis_gets_wrong(s4, monkeypatch):
    # unit * a*v has coefficient 1 under either modulus, so the product
    # sweep passes and the basis comparison reports the modulus
    model = parse_model(print_model(s4)).model
    av = model.monomial({"a": 1, "v": 1})
    monkeypatch.setitem(model.moduli, av, 4)
    result = _law_result(model, "mul-oracle-agreement", 6)
    assert (result.status, result.witness) == (
        "fail", "basis in degree 2: a*v has modulus 4 in the engine, 2 in the oracle"
    )


def test_oracle_law_names_a_monomial_only_the_engine_basis_has(s2, monkeypatch):
    # a dead a^2 in the engine's basis multiplies to 0 on both sides, so
    # only the basis comparison sees it; every other law passes
    real = LoopModel._basis_between
    a2 = s2.monomial({"a": 2})

    def padded(self, lo, hi):
        out = real(self, lo, hi)
        return sorted(out + [(-4, a2, 1)]) if lo <= -4 <= hi else out

    monkeypatch.setattr(LoopModel, "_basis_between", padded)
    report = run_checks(s2, max_abs_degree=4, seed=0)
    failed = {r.law: r.witness for r in report.results if r.status in ("fail", "error")}
    assert failed == {
        "mul-oracle-agreement": "basis in degree -4: a^2 is in the engine (modulus 1) but not in the oracle"
    }


def test_one_corrupted_table_entry_fails_every_product_law(s2_cp2):
    # the three product laws read one table: a wrong id in it is seen by each
    laws = dict(checks._LAWS)
    ctx = checks._Ctx(s2_cp2, 4, 0)
    table = ctx.products
    i, j = next((i, j) for i, row in enumerate(table) for j, p in enumerate(row) if p and i != j)
    table[i][j] = 1 if table[i][j] != 1 else 2
    witnesses = {
        "ring-associativity": "(c^2)*(a)*(1)",
        "graded-commutativity": "c^2 * a",
        "mul-oracle-agreement": "c^2 * a: engine b*c^2, oracle {(0, 1, 0, 0, 2, 0): 1}",
    }
    for law, witness in witnesses.items():
        result = laws[law](ctx)
        assert (result.status, result.witness) == ("fail", witness), law


def test_oracle_modulus_takes_a_list_or_a_tuple(odd_interleaved, cp2):
    for model in (odd_interleaved, cp2):
        by_list, by_tuple = DenseOracle(model, 4), DenseOracle(model, 4)
        exps = [e for vs in by_list.basis.values() for e in vs]
        exps += [tuple(k + 1 for k in e) for e in exps]
        for e in exps:
            assert by_list.modulus(list(e)) == by_tuple.modulus(e)
        for e in reversed(exps):
            assert by_list.modulus(e) == by_tuple.modulus(list(e))


def _plain_pair_witness(model, window, op, sign):
    # a pair law as a plain ordered double loop over the basis window
    basis = [(d, model.mono_elem(m)) for d, m, _ in model.basis_window(window)]
    for d1, x in basis:
        for d2, y in basis:
            if op(x, y) != op(y, x).scaled(sign(d1, d2)):
                return x, y
    return None


@pytest.mark.parametrize(
    "fixture, op, law, window, sign, earlier, later, witness",
    [
        # t sorts before x in the basis: same degree, smaller exponent tuple
        (
            "odd_interleaved", "mul", "graded-commutativity", 1,
            lambda d1, d2: -1 if (d1 * d2) % 2 else 1,
            "t", "x", "t * x",
        ),
        # a (degree -3) sorts before v (degree 2)
        (
            "bv_model", "bracket", "bracket-antisymmetry", 4,
            lambda d1, d2: 1 if ((d1 + 1) * (d2 + 1)) % 2 else -1,
            "a", "v", "bracket(a, v)",
        ),
    ],
    ids=["graded-commutativity", "bracket-antisymmetry"],
)
def test_pair_laws_report_the_earlier_ordered_pair(
    request, monkeypatch, fixture, op, law, window, sign, earlier, later, witness
):
    # corrupt only op(later, earlier); a plain double loop meets the pair
    # first as (earlier, later), so that is the witness
    model = request.getfixturevalue(fixture)
    p, q = model.gen(earlier), model.gen(later)
    _corrupt_products(monkeypatch, model, op, [(q, p)])
    report = run_checks(model, max_abs_degree=window, seed=0)
    result = next(r for r in report.results if r.law == law)
    assert (result.status, result.witness) == ("fail", witness)
    assert _plain_pair_witness(model, window, getattr(model, op), sign) == (p, q)


def test_case_counts_on_builtins_at_window_24():
    expected = json.loads(CHECK_DETAILS.read_text())
    for name, details in expected.items():
        report = run_checks(load_model(name), max_abs_degree=24, seed=0)
        assert {r.law: r.detail for r in report.results} == details, name


def test_oracle_enumeration_matches_engine(s4, cp2):
    for model in (s4, cp2):
        oracle = DenseOracle(model, 8)
        for degree in range(-8, 9):
            engine = model.enumerate_basis(degree)
            got = [(e, oracle.modulus(e)) for e in oracle.basis.get(degree, [])]
            assert engine == got


def test_engine_mul_agrees_with_oracle(s4, cp2):
    for model in (s4, cp2):
        oracle = DenseOracle(model, 6)
        monos = [e for vs in oracle.basis.values() for e in vs]
        for e1 in monos:
            x = model.mono_elem(Monomial(e1))
            for e2 in monos:
                got = model.mul(x, model.mono_elem(Monomial(e2)))
                want = oracle.multiply(e1, e2)
                expected = {} if want is None else {Monomial(want[1]): want[0]}
                assert got.terms == expected


def test_normal_form_agrees_with_oracle_reduce(s4):
    import random

    rng = random.Random(13)
    oracle = DenseOracle(s4, 8)
    monos = [e for vs in oracle.basis.values() for e in vs]
    for _ in range(60):
        raw = [(rng.randint(-9, 9), rng.choice(monos)) for _ in range(rng.randint(0, 5))]
        engine = s4.normal_form([(c, Monomial(e)) for c, e in raw])
        want = oracle.reduce(raw)
        assert engine.terms == want


# The only nilpotence relation on a is the gcd of 2*a^2 and 3*a^3.
GCD_NILPOTENT_TEXT = """\
dim = 2
euler = 0
generator a deg = -2
relation 2 * a^2
relation 3 * a^3
c0 = a
"""


def test_oracle_bounds_gcd_nilpotent_generator(tmp_path, capsys):
    path = tmp_path / "gcd.model"
    path.write_text(GCD_NILPOTENT_TEXT)
    assert main(["check", "--model", str(path), "--window", "4"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS (18 passed, 0 failed, 7 skipped)\n")
    oracle = DenseOracle(load_model(str(path)).model, 4)
    assert oracle.basis == {0: [(0,)], -2: [(1,)], -4: [(2,)]}
    report = run_checks(load_model(str(path)), max_abs_degree=4, seed=0)
    result = next(r for r in report.results if r.law == "mul-oracle-agreement")
    assert (result.status, result.detail) == ("pass", "9 cases")


@pytest.mark.parametrize(
    "name, witness",
    [
        ("toy:bv0", "psi(1) = 4*(y*z (x) y*z), not chi * c0 (x) c0 = 2*(y*z (x) y*z)"),
        ("cpn:2", "psi(1) = 6*(c^2 (x) c^2), not chi * c0 (x) c0 = 3*(c^2 (x) c^2)"),
    ],
    ids=["toy:bv0", "cpn:2"],
)
def test_a_doubled_coproduct_fails_concentration(monkeypatch, name, witness):
    # twice the coproduct is still symmetric, equal to its mirror form and
    # a multiple of c0 (x) c0: only psi(1) against its definition sees it
    split = coalgebra.psi_split
    monkeypatch.setattr(coalgebra, "psi_split", lambda *args: split(*args).scaled(2))
    report = run_checks(load_model(name), max_abs_degree=8, seed=0)
    failed = [(r.law, r.status, r.witness) for r in report.results if r.status not in ("pass", "skip")]
    assert failed == [("coproduct-concentration", "fail", witness)]


def test_law_that_raises_is_reported_as_error(monkeypatch, capsys):
    def broken_twist(t):
        raise RuntimeError("twist is broken")

    monkeypatch.setattr(checks, "twist", broken_twist)
    report = run_checks(load_model("sphere:2"), max_abs_degree=4, seed=0)
    assert len(report.results) == 25
    errors = [r for r in report.results if r.status == "error"]
    assert [(r.law, r.witness) for r in errors] == [
        ("coproduct-symmetry", "RuntimeError: twist is broken")
    ]
    assert not report.passed
    assert "ERROR coproduct-symmetry witness: RuntimeError: twist is broken\n" in report.render_text()
    assert report.render_text().endswith("result: FAIL (17 passed, 1 failed, 7 skipped)\n")
    assert json.loads(report.render_json())["passed"] is False
    assert main(["check", "--model", "sphere:2", "--window", "4"]) == 1
    assert "ERROR coproduct-symmetry" in capsys.readouterr().out


def test_law_that_raises_after_some_cases_is_reported_as_error(monkeypatch):
    real_twist = checks.twist
    calls = []

    def twist_failing_on_third_call(t):
        calls.append(t)
        if len(calls) == 3:
            raise RuntimeError("twist is broken")
        return real_twist(t)

    monkeypatch.setattr(checks, "twist", twist_failing_on_third_call)
    report = run_checks(load_model("sphere:2"), max_abs_degree=4, seed=0)
    result = next(r for r in report.results if r.law == "coproduct-symmetry")
    assert (result.status, result.detail, result.witness) == (
        "error",
        "",
        "RuntimeError: twist is broken",
    )
    assert len(calls) == 3


def test_check_records_are_frozen_and_hashable():
    first = CheckResult("law", "pass", "x")
    second = CheckResult(law="l2", status="fail", witness="w")
    report = CheckReport("m", 4, 0, (first, second))
    assert repr(report) == (
        "CheckReport(model_name='m', window=4, seed=0, results=("
        "CheckResult(law='law', status='pass', detail='x', witness=None), "
        "CheckResult(law='l2', status='fail', detail='', witness='w')))"
    )
    assert report == CheckReport(model_name="m", window=4, seed=0, results=(first, second))
    assert CheckResult("a", "pass") != ("a", "pass", "", None)
    with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
        report.seed = 1
    with pytest.raises(AttributeError, match="cannot assign to field 'status'"):
        first.status = "fail"
    with pytest.raises(AttributeError, match="cannot delete field 'results'"):
        del report.results
    assert (report.seed, first.status) == (0, "pass")
    assert hash(report) == hash(CheckReport("m", 4, 0, (first, second)))
    assert hash(first) == hash(("law", "pass", "x", None))
    with pytest.raises(TypeError):
        CheckReport("m", 4, 0)
    # run_checks hands over its results as one tuple, and to_dict a list
    report = run_checks(load_model("toy:bv0"), max_abs_degree=2)
    assert type(report.results) is tuple and len(report.results) == len(checks._LAWS)
    assert report.to_dict()["results"] == [
        {"law": r.law, "status": r.status, "detail": r.detail, "witness": r.witness}
        for r in report.results
    ]


# Four presentations whose details no built-in reaches: bracket data with
# chi = 0, brackets on a model that is not simply connected, a c0 of
# coefficient 2 on a 5-torsion class, where psi(1) = 2*(2a (x) 2a) is
# 3*(a (x) a): 2 times c0 (x) c0 modulo 5, not over Z, and the same c0 on
# a 4-torsion class, where c0 (x) c0 = 4*(a (x) a) = 0 and psi(1) = 0 is
# its multiple.
BV_DATA_TEXT = """\
dim = 3
euler = 0
generator a deg = -3 geometric
generator v deg = 2
c0 = a
flag simply_connected
delta a = 0
delta v = 2*a*v^3
bracket [a,v] = 1
"""

BV_DATA_REPORT = """\
window: 6
seed: 0
PASS normal-form-idempotent (60 cases)
PASS normal-form-order-independence (40 cases)
PASS ring-unit-law (9 cases)
PASS ring-associativity (423 cases)
PASS ring-distributivity (80 cases)
PASS graded-commutativity (81 cases)
PASS mul-oracle-agreement (81 cases)
PASS torsion-identity (9 cases; vanishes identically (chi = 0))
PASS bracket-unit (9 cases)
PASS bracket-antisymmetry (81 cases)
PASS bracket-torsion (9 cases; vanishes identically (chi = 0))
FAIL delta-squared (BV data is inconsistent) witness: delta(delta(a*v^2)) = -4*a*v^3 != 0
PASS delta-bv-residual (25 cases)
PASS coproduct-symmetry (9 cases; vanishes identically (chi = 0))
PASS coproduct-forms-agree (9 cases; vanishes identically (chi = 0))
PASS coproduct-concentration (9 cases; vanishes identically (chi = 0))
PASS coproduct-frobenius (50 cases; vanishes identically (chi = 0))
PASS coproduct-coassociativity (9 cases; vanishes identically (chi = 0))
PASS coproduct-delta-factorwise (9 cases; vanishes identically (chi = 0))
PASS coproduct-kills-geometric-brackets (9 cases; vanishes identically (chi = 0))
PASS surface-closed-vs-pants (324 cases)
PASS surface-functoriality (150 cases)
PASS surface-degree-shift (162 cases)
PASS surface-certificate-sew (60 cases)
PASS model-round-trip (1 cases)
result: FAIL (24 passed, 1 failed, 0 skipped)
"""

TOY_NOT_SIMPLY_CONNECTED_TEXT = """\
dim = 2
euler = 2
generator y deg = -1 geometric
generator z deg = -1 geometric
c0 = y*z
delta y = 0
delta z = 0
bracket [y,z] = 0
"""

TOY_NOT_SIMPLY_CONNECTED_REPORT = """\
window: 6
seed: 0
PASS normal-form-idempotent (60 cases)
PASS normal-form-order-independence (40 cases)
PASS ring-unit-law (4 cases)
PASS ring-associativity (144 cases)
PASS ring-distributivity (80 cases)
PASS graded-commutativity (16 cases)
PASS mul-oracle-agreement (16 cases)
PASS torsion-identity (4 cases)
PASS bracket-unit (4 cases)
PASS bracket-antisymmetry (16 cases)
PASS bracket-torsion (1 cases)
PASS delta-squared (4 cases)
PASS delta-bv-residual (31 cases)
PASS coproduct-symmetry (4 cases)
PASS coproduct-forms-agree (4 cases)
PASS coproduct-concentration (4 cases)
PASS coproduct-frobenius (50 cases)
PASS coproduct-coassociativity (4 cases)
PASS coproduct-delta-factorwise (4 cases)
PASS coproduct-kills-geometric-brackets (8 cases)
PASS surface-closed-vs-pants (324 cases)
PASS surface-functoriality (150 cases)
PASS surface-degree-shift (162 cases)
PASS surface-certificate-sew (60 cases)
PASS model-round-trip (1 cases)
result: PASS (25 passed, 0 failed, 0 skipped)
"""

TORSION_C0_TEXT = """\
dim = 2
euler = 2
generator a deg = -2
generator v deg = 2
relation 1 * a^2
relation 5 * a
relation 1 * a*v
c0 = 2*a
"""

TORSION_C0_REPORT = """\
window: 6
seed: 0
PASS normal-form-idempotent (60 cases)
PASS normal-form-order-independence (40 cases)
PASS ring-unit-law (5 cases)
PASS ring-associativity (144 cases)
PASS ring-distributivity (80 cases)
PASS graded-commutativity (25 cases)
PASS mul-oracle-agreement (25 cases)
PASS torsion-identity (5 cases)
SKIP bracket-unit (no bracket data)
SKIP bracket-antisymmetry (no bracket data)
SKIP bracket-torsion (no bracket data)
SKIP delta-squared (no BV-operator data)
SKIP delta-bv-residual (no BV-operator data)
PASS coproduct-symmetry (5 cases)
PASS coproduct-forms-agree (5 cases)
PASS coproduct-concentration (5 cases)
PASS coproduct-frobenius (50 cases)
PASS coproduct-coassociativity (5 cases)
SKIP coproduct-delta-factorwise (no BV-operator data)
SKIP coproduct-kills-geometric-brackets (no bracket data)
PASS surface-closed-vs-pants (324 cases)
PASS surface-functoriality (150 cases)
PASS surface-degree-shift (162 cases)
PASS surface-certificate-sew (60 cases)
PASS model-round-trip (1 cases)
result: PASS (18 passed, 0 failed, 7 skipped)
"""

ZERO_C0_SQUARE_TEXT = TORSION_C0_TEXT.replace("relation 5 * a", "relation 4 * a")

ZERO_C0_SQUARE_REPORT = """\
window: 4
seed: 0
PASS normal-form-idempotent (60 cases)
PASS normal-form-order-independence (40 cases)
PASS ring-unit-law (4 cases)
PASS ring-associativity (144 cases)
PASS ring-distributivity (80 cases)
PASS graded-commutativity (16 cases)
PASS mul-oracle-agreement (16 cases)
PASS torsion-identity (4 cases)
SKIP bracket-unit (no bracket data)
SKIP bracket-antisymmetry (no bracket data)
SKIP bracket-torsion (no bracket data)
SKIP delta-squared (no BV-operator data)
SKIP delta-bv-residual (no BV-operator data)
PASS coproduct-symmetry (4 cases)
PASS coproduct-forms-agree (4 cases)
PASS coproduct-concentration (4 cases)
PASS coproduct-frobenius (50 cases)
PASS coproduct-coassociativity (4 cases)
SKIP coproduct-delta-factorwise (no BV-operator data)
SKIP coproduct-kills-geometric-brackets (no bracket data)
PASS surface-closed-vs-pants (324 cases)
PASS surface-functoriality (150 cases)
PASS surface-degree-shift (162 cases)
PASS surface-certificate-sew (60 cases)
PASS model-round-trip (1 cases)
result: PASS (18 passed, 0 failed, 7 skipped)
"""


@pytest.mark.parametrize(
    "text, report, code",
    [
        (BV_DATA_TEXT, BV_DATA_REPORT, 1),
        (TOY_NOT_SIMPLY_CONNECTED_TEXT, TOY_NOT_SIMPLY_CONNECTED_REPORT, 0),
        (TORSION_C0_TEXT, TORSION_C0_REPORT, 0),
        (ZERO_C0_SQUARE_TEXT, ZERO_C0_SQUARE_REPORT, 0),
    ],
    ids=[
        "bv-data-chi-zero",
        "toy-bv0-not-simply-connected",
        "c0-coefficient-on-torsion",
        "c0-square-zero-on-torsion",
    ],
)
def test_check_text_pinned_where_no_builtin_reaches(tmp_path, capsys, text, report, code):
    path = tmp_path / "pinned.model"
    path.write_text(text)
    window = report.split("\n", 1)[0].removeprefix("window: ")
    argv = ["check", "--model", str(path), "--window", window, "--seed", "0"]
    assert main(argv) == code
    assert capsys.readouterr().out == f"model: {path}\n{report}"


def _plus_unit(model, name, when=lambda *args: True):
    """A patch of ``model.<name>`` that adds the unit where ``when`` holds."""
    real = getattr(model, name)

    def patched(*args):
        out = real(*args)
        return out + model.unit() if when(*args) else out

    return name, patched


def _plus_tensor(name, arity, when=lambda *args: True):
    """A patch of ``checks.<name>`` that adds ``1 (x) ... (x) 1`` of the
    given arity where ``when`` holds."""
    real = getattr(checks, name)

    def patched(*args):
        out = real(*args)
        if not when(*args):
            return out
        return out + tensor([out.model.unit()] * arity)

    return name, patched


def _multi_term(*xs):
    return any(len(x.terms) > 1 for x in xs)


# law -> (patch of one function the law calls, start of its witness); a
# patch is ``(name, fn)`` set on the model when ``fn`` comes from the
# model's own method, else on ``checks``
_BROKEN_LAWS = {
    "normal-form-idempotent": (
        lambda m: _plus_unit(m, "normal_form"),
        "2*y + 2*y*z renormalized to 1 + 2*y + 2*y*z",
    ),
    "normal-form-order-independence": (
        lambda m: _plus_unit(m, "normal_form", lambda raw: len(raw) > 1 and raw[0][0] % 2),
        "reordering changed the normal form of [",
    ),
    "ring-unit-law": (lambda m: ("unit", lambda real=m.unit: 2 * real()), "unit law fails on y*z"),
    # only random elements have two terms, so the exhaustive sweep passes
    "ring-associativity": (lambda m: _plus_unit(m, "mul", _multi_term), "(-3*y + 3*y*z)*(2*y)*(-1 + 3*y)"),
    "ring-distributivity": (lambda m: _plus_unit(m, "mul", _multi_term), "(-3*y + 3*y*z)*((2*y)+(-1 + 3*y))"),
    "bracket-unit": (lambda m: _plus_unit(m, "bracket"), "bracket with 1 on y*z"),
    "bracket-torsion": (lambda m: _plus_unit(m, "bracket"), "chi*bracket(c0, y*z) = 2 != 0"),
    "delta-bv-residual": (lambda m: _plus_unit(m, "bracket"), "x=2*y*z, y=4: residual -1"),
    "coproduct-coassociativity": (
        lambda m: _plus_tensor("apply_psi", 3, lambda t, slot: slot == 2),
        "on y*z",
    ),
    "coproduct-delta-factorwise": (
        lambda m: _plus_tensor("apply_delta_factorwise", 2),
        "factorwise delta of psi(y*z) = (1 (x) 1)",
    ),
    "coproduct-kills-geometric-brackets": (
        lambda m: _plus_tensor("psi", 2),
        "psi(bracket(y, y*z)) = (1 (x) 1)",
    ),
    # a degree-0 input gets a key that c0 (x) c0 lacks
    "coproduct-concentration": (
        lambda m: _plus_tensor("psi", 2, lambda model, x: model.degree_of(x) == 0),
        "psi(1) = (1 (x) 1) + 2*(y*z (x) y*z) is not a multiple of c0 (x) c0",
    ),
    "surface-functoriality": (
        lambda m: ("sew", lambda s1, s2: checks.Surface(s1.genus, s1.inputs, s2.outputs + 1)),
        "(g=1, in=2, out=1) then (g=1, in=1, out=3) vs (g=1, in=2, out=4) on [1, 1]",
    ),
    "surface-degree-shift": (
        lambda m: ("monomial_degree", lambda mono, real=m.monomial_degree: real(mono) + 1),
        "(g=0, in=1, out=1): output degree 3, expected 2",
    ),
    "surface-certificate-sew": (
        lambda m: ("vanishing_certificate", lambda s: checks.VanishingReason.NOT_A_PRIORI),
        "(g=1, in=2, out=1) sewn to (g=1, in=1, out=3)",
    ),
    "model-round-trip": (
        lambda m: ("parse_model", lambda text, real=checks.parse_model: real(text.replace("euler = 2", "euler = 4"))),
        "printout changed after reparse",
    ),
}


@pytest.mark.parametrize("law", list(_BROKEN_LAWS))
def test_each_law_fails_when_a_function_it_calls_is_broken(monkeypatch, law):
    # a fresh copy of toy:bv0, so that patches on the model touch no shared
    # one: it has bracket and BV data, geometric generators and chi = 2
    model = parse_model(print_model(load_model("toy:bv0").model)).model
    assert _law_result(model, law, 6).status == "pass"
    make_patch, witness = _BROKEN_LAWS[law]
    name, fn = make_patch(model)
    monkeypatch.setattr(model if hasattr(model, name) else checks, name, fn)
    result = _law_result(model, law, 6)
    assert result.status == "fail", result
    assert result.witness.startswith(witness), result.witness
