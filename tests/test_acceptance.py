"""Acceptance criteria: exact integer identities, one pass/fail line each.

Every assertion is an identity over the integers (tolerance zero),
evaluated over explicit degree windows and seeded random draws so the
whole module is reproducible and finishes in seconds.
"""

import itertools
import random

from loophom import (
    DenseOracle,
    Monomial,
    Surface,
    apply_delta_factorwise,
    apply_psi,
    load_model,
    projective_space,
    psi,
    psi_split,
    sew,
    sphere,
    string_operation,
    tensor,
    tensor_scale,
    toy_bv0,
    twist,
)

CHI_NONZERO_BUILTINS = [
    "sphere:2",
    "sphere:4",
    "sphere:6",
    "cpn:1",
    "cpn:2",
    "cpn:3",
    "cpn:4",
    "toy:bv0",
]
ALL_BUILTINS = CHI_NONZERO_BUILTINS + ["sphere:3", "sphere:5"]


def finish(name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance {name}: {status}")
    assert not problems, problems[:5]


def window_tuples(model, arity, window):
    """All tuples of basis monomials with total |degree| <= window."""
    monos = [(d, m) for d, m, _ in model.basis_window(window)]
    out = []
    for combo in itertools.product(monos, repeat=arity):
        if abs(sum(d for d, _ in combo)) <= window:
            out.append(tuple(m for _, m in combo))
    return out


def test_01_coproduct_values():
    problems = []
    for n in (2, 4, 6):
        model = sphere(n)
        a = model.gen("a")
        want = tensor_scale(2, tensor([a, a]))
        if psi(model, model.unit()) != want:
            problems.append(f"sphere:{n}")
    for n in range(1, 5):
        model = projective_space(n)
        cn = model.mono_elem({"c": n})
        want = tensor_scale(n + 1, tensor([cn, cn]))
        if psi(model, model.unit()) != want:
            problems.append(f"cpn:{n}")
    finish("01 coproduct-values", problems)


def test_02_higher_genus_and_many_outputs_vanish():
    problems = []
    shapes = [(g, q) for g in (1, 2, 3) for q in (1, 2, 3, 4)]
    shapes += [(0, q) for q in (3, 4)]
    for name in ("sphere:4", "cpn:2"):
        model = load_model(name).model
        for p in (1, 2, 3):
            inputs = [
                tensor([model.mono_elem(m) for m in monos])
                for monos in window_tuples(model, p, 12)
            ]
            inputs = [t for t in inputs if t]
            for g, q in shapes:
                s = Surface(g, p, q)
                for t in inputs:
                    if string_operation(model, s, t) != 0:
                        problems.append(f"{name} {s}")
                        break
    finish("02 vanishing-for-genus>=1-or-outputs>=3", problems)


def test_03_torsion_identity():
    problems = []
    for name in CHI_NONZERO_BUILTINS:
        model = load_model(name).model
        assert model.euler != 0
        for deg, mono, _ in model.basis_window(16):
            if deg == 0:
                continue
            value = model.scale(model.euler, model.mul(model.c0, model.mono_elem(mono)))
            if value != 0:
                problems.append(f"{name}: chi*c0*{model.format_monomial(mono)} = {value}")
    finish("03 torsion-identity", problems)


def test_04_concentration_and_unit_coefficient():
    problems = []
    for name in CHI_NONZERO_BUILTINS:
        model = load_model(name).model
        c0c0 = tensor([model.c0, model.c0])
        for deg, mono, _ in model.basis_window(12):
            value = psi(model, model.mono_elem(mono))
            if deg != 0:
                if value != 0:
                    problems.append(f"{name}: psi({model.format_monomial(mono)}) != 0")
            elif value != 0:
                key = min(value.terms)
                k = value.terms[key] // c0c0.terms[key]
                if value != tensor_scale(k, c0c0):
                    problems.append(f"{name}: psi({model.format_monomial(mono)}) not diagonal")
    # unit-plus-decomposable inputs land on k * chi * c0 (x) c0
    cp2 = projective_space(2)
    c2u = cp2.mono_elem({"c": 2, "u": 1})
    diag = tensor([cp2.c0, cp2.c0])
    for k in (-2, 0, 1, 3):
        for j in (-1, 0, 2):
            x = cp2.add(cp2.scale(k, cp2.unit()), cp2.scale(j, c2u))
            if psi(cp2, x) != tensor_scale(k * 3, diag):
                problems.append(f"cpn:2: psi({k}*1 + {j}*c^2*u)")
    finish("04 coproduct-concentration", problems)


def test_05_split_independence():
    problems = []
    for name in ALL_BUILTINS:
        model = load_model(name).model
        monos = [m for _, m, _ in model.basis_window(8)]
        rng = random.Random(2024)
        for _ in range(200):
            p = rng.randint(0, 4)
            factors = [model.mono_elem(rng.choice(monos)) for _ in range(p)]
            ref = psi_split(model, factors, 0)
            for ell in range(1, p + 1):
                if psi_split(model, factors, ell) != ref:
                    problems.append(f"{name}: split {ell} of {[str(f) for f in factors]}")
                    break
    finish("05 split-independence", problems)


def test_06_symmetry_and_coassociativity():
    problems = []
    for name in ALL_BUILTINS:
        model = load_model(name).model
        for _, mono, _ in model.basis_window(12):
            value = psi(model, model.mono_elem(mono))
            if twist(value) != value:
                problems.append(f"{name}: twist on {model.format_monomial(mono)}")
            left, right = apply_psi(value, 1), apply_psi(value, 2)
            if left != right or left != 0:
                problems.append(f"{name}: coassociativity on {model.format_monomial(mono)}")
    finish("06 symmetry-and-coassociativity", problems)


def test_07_functoriality_and_degree_shift():
    problems = []
    for name in ("sphere:4", "cpn:2"):
        model = load_model(name).model
        d = model.dim
        monos = [m for _, m, _ in model.basis_window(6)]
        rng = random.Random(777)
        for _ in range(100):
            s1 = Surface(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3))
            s2 = Surface(rng.randint(0, 2), s1.outputs, rng.randint(1, 3))
            glued = sew(s1, s2)
            for _ in range(3):
                picked = [rng.choice(monos) for _ in range(s1.inputs)]
                inputs = [model.mono_elem(m) for m in picked]
                stepwise = string_operation(model, s2, string_operation(model, s1, inputs))
                direct = string_operation(model, glued, inputs)
                if stepwise != direct:
                    problems.append(f"{name}: {s1} then {s2}")
                in_h = sum(model.monomial_degree(m) + d for m in picked)
                for ms in direct.terms:
                    out_h = sum(model.monomial_degree(m) + d for m in ms)
                    if out_h != in_h + glued.euler_char * d:
                        problems.append(f"{name}: degree shift for {glued}")
    finish("07 functoriality-and-degree-shift", problems)


def test_08_chi_zero_coproduct_vanishes():
    model = sphere(3)
    problems = []
    for _, mono, _ in model.basis_window(16):
        if psi(model, model.mono_elem(mono)) != 0:
            problems.append(model.format_monomial(mono))
    finish("08 chi-zero-vanishing", problems)


def test_09_oracle_equivalence():
    problems = []
    rng = random.Random(99)
    for name in ("sphere:4", "cpn:2"):
        model = load_model(name).model
        oracle = DenseOracle(model, 8)
        monos = [e for vs in oracle.basis.values() for e in vs]
        for e1 in monos:
            x = model.mono_elem(Monomial(e1))
            for e2 in monos:
                got = model.mul(x, model.mono_elem(Monomial(e2)))
                want = oracle.multiply(e1, e2)
                expected = {} if want is None else {Monomial(want[1]): want[0]}
                if got.terms != expected:
                    problems.append(f"{name}: {e1} * {e2}")
        for _ in range(100):
            raw = [
                (rng.randint(-9, 9), rng.choice(monos))
                for _ in range(rng.randint(0, 5))
            ]
            engine = model.normal_form([(c, Monomial(e)) for c, e in raw])
            if engine.terms != oracle.reduce(raw):
                problems.append(f"{name}: normal form of {raw}")
    finish("09 oracle-equivalence", problems)


def test_10_bv_plumbing():
    model = toy_bv0()
    problems = []
    one = model.unit()
    basis = model.basis_window(12)
    for _, mono, _ in basis:
        x = model.mono_elem(mono)
        if model.delta(model.delta(x)) != 0:
            problems.append(f"delta^2 on {model.format_monomial(mono)}")
        if model.bracket(one, x) != 0 or model.bracket(x, one) != 0:
            problems.append(f"bracket with 1 on {model.format_monomial(mono)}")
        if apply_delta_factorwise(psi(model, x)) != 0:
            problems.append(f"factorwise delta on {model.format_monomial(mono)}")
    for d1, m1, _ in basis:
        x = model.mono_elem(m1)
        sign = -1 if d1 % 2 else 1
        for _, m2, _ in basis:
            y = model.mono_elem(m2)
            residual = model.delta(model.mul(x, y))
            residual -= model.mul(model.delta(x), y)
            residual -= model.scale(sign, model.mul(x, model.delta(y)))
            residual -= model.scale(sign, model.bracket(x, y))
            if residual != 0:
                problems.append(f"BV residual on {m1}, {m2}")
    geometric = [g.name for g in model.generators if g.geometric]
    if not geometric:
        problems.append("toy model has no geometric generators")
    for gname in geometric:
        g = model.gen(gname)
        for _, mono, _ in basis:
            if psi(model, model.bracket(g, model.mono_elem(mono))) != 0:
                problems.append(f"psi of bracket({gname}, {model.format_monomial(mono)})")
    finish("10 bv-plumbing", problems)
