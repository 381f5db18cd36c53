"""Core algebra engine: validation, normal forms, ring laws, grading."""

import inspect
import subprocess
import sys
from math import gcd, log2
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loophom import (
    INHOMOGENEOUS,
    ZERO,
    DenseOracle,
    GeneratorSpec,
    LoopModel,
    ModelError,
    Relation,
    algebra,
    load_model,
    parse_model,
    print_model,
    tensor,
    validate_model,
)

from strategies import elements, models, window_monomials


# -- validation ----------------------------------------------------------------


def test_sphere_presentation_accepted(s4):
    assert [g.name for g in s4.generators] == ["b", "a", "v"]
    assert [g.degree for g in s4.generators] == [-1, -4, 6]
    assert s4.euler == 2 and s4.dim == 4
    assert s4.degree_of(s4.c0) == -4


def test_generator_parity_is_derived(s4):
    assert [g.is_odd for g in s4.generators] == [True, False, False]


def test_odd_dimension_with_nonzero_euler_rejected():
    with pytest.raises(ModelError, match="odd dimension"):
        LoopModel(
            dim=3,
            euler=2,
            generators=[("b", -1), ("a", -3), ("v", 4)],
            relations=[(1, {"a": 2})],
            c0={"a": 1},
        )


def test_c0_with_wrong_degree_rejected():
    # constant-loop class must sit in degree -dim; c^(n-1) misses it
    with pytest.raises(ModelError, match="degree -4"):
        LoopModel(
            dim=4,
            euler=3,
            generators=[("w", -1), ("c", -2), ("u", 4)],
            relations=[(1, {"c": 3}), (3, {"c": 2, "u": 1}), (1, {"w": 1, "c": 2})],
            c0={"c": 1},
        )


def test_missing_c0_rejected():
    with pytest.raises(ModelError, match="c0 required"):
        LoopModel(dim=2, euler=2, generators=[("a", -2)], relations=[(1, {"a": 2})])


def test_relation_with_unknown_generator_rejected():
    with pytest.raises(ModelError, match="unknown generator"):
        LoopModel(
            dim=2,
            euler=2,
            generators=[("a", -2)],
            relations=[(1, {"q": 2})],
            c0={"a": 1},
        )


def test_non_nilpotent_negative_generator_rejected():
    with pytest.raises(ModelError, match="not nilpotent"):
        LoopModel(dim=2, euler=2, generators=[("a", -2)], c0={"a": 1})


def test_non_nilpotent_degree_zero_generator_rejected():
    with pytest.raises(ModelError, match="not nilpotent"):
        LoopModel(
            dim=2,
            euler=2,
            generators=[("a", -2), ("t", 0)],
            relations=[(1, {"a": 2})],
            c0={"a": 1},
        )


def test_duplicate_generator_rejected():
    with pytest.raises(ModelError, match="duplicate generator"):
        LoopModel(
            dim=2, euler=2, generators=[("a", -2), ("a", 2)], c0={"a": 1}
        )


def test_reserved_generator_name_rejected():
    with pytest.raises(ModelError, match="reserved"):
        LoopModel(dim=2, euler=2, generators=[("psi", -2)], c0={"psi": 1})


_MALFORMED = [
    ({"c0": "a"}, ("c0",), "(coefficient, monomial) pairs"),
    ({"c0": 3.5}, ("c0",), "(coefficient, monomial) pairs"),
    ({"c0": [("a",)]}, ("c0",), "(coefficient, monomial) pairs"),
    ({"delta": {"a": "x"}, "bracket": {}}, ("delta", "a"), "(coefficient, monomial) pairs"),
    ({"bracket": {("a", "a"): 2.0}}, ("bracket", "a", "a"), "(coefficient, monomial) pairs"),
    ({"relations": [(1, 5)]}, ("relation", 1), "sequence of exponents, got 5"),
    ({"c0": [(1, 5)]}, ("c0",), "sequence of exponents, got 5"),
    ({"delta": {"a": [(1, 7)]}, "bracket": {}}, ("delta", "a"), "sequence of exponents, got 7"),
    ({"relations": [5]}, ("relation", 1), "relation must be (coefficient, monomial), got 5"),
    (
        {"relations": [(1, {"a": 2}), (1, 2, 3)]},
        ("relation", 2),
        "relation must be (coefficient, monomial), got (1, 2, 3)",
    ),
    ({"c0": [(1, (1, 0))]}, ("c0",), "monomial has 2 exponents, expected 1"),
    ({"c0": [(1, (-1,))]}, ("c0",), "exponents must be non-negative integers, got (-1,)"),
    ({"c0": [(1.5, {"a": 1})]}, ("c0",), "coefficient must be an integer, got 1.5"),
]


@pytest.mark.parametrize(
    "data, where, fragment",
    _MALFORMED,
    ids=[f"data{i}-where{i}" for i in range(len(_MALFORMED))],
)
def test_malformed_data_value_is_a_problem(data, where, fragment):
    with pytest.raises(ModelError) as info:
        LoopModel(
            dim=2,
            euler=2,
            generators=[("a", -2)],
            **{"relations": [(1, {"a": 2})], "c0": {"a": 1}, **data},
        )
    [(got, message)] = info.value.problems
    assert got == where and fragment in message


@pytest.mark.parametrize(
    "data, where, message",
    [
        ({"euler": "2"}, ("model",), "euler must be an integer, got '2'"),
        ({"generators": [("a",)]}, ("generator", "('a',)"), "bad generator spec ('a',)"),
        (
            {"generators": [("a", -2, False, 1)]},
            ("generator", "('a', -2, False, 1)"),
            "bad generator spec ('a', -2, False, 1)",
        ),
        ({"generators": [("a", -2), 5]}, ("generator", "5"), "bad generator spec 5"),
        ({"generators": [("1a", -2)]}, ("generator", "1a"), "generator name '1a' is not an identifier"),
        ({"generators": [("a", -2.0)]}, ("generator", "a"), "degree of 'a' must be an integer"),
    ],
    ids=["euler", "spec-short", "spec-long", "spec-int", "name", "degree"],
)
def test_malformed_presentation_is_a_problem(data, where, message):
    with pytest.raises(ModelError) as info:
        LoopModel(
            **{"dim": 2, "euler": 2, "generators": [("a", -2)], "c0": {"a": 1}, **data},
            relations=[(1, {"a": 2})],
        )
    assert info.value.problems == [(where, message)]


def test_arithmetic_refuses_another_model_and_a_non_integer_scalar(s4):
    s2 = load_model("sphere:2").model
    with pytest.raises(ModelError, match="^elements belong to different models$"):
        s4.gen("a") + s2.gen("a")
    with pytest.raises(ModelError, match=r"^scalar must be an integer, got 1\.5$"):
        s4.gen("a").scaled(1.5)


def _logged(calls, tag, value):
    """A callable data value that logs ``tag`` and returns ``value``, or
    raises it when it is an exception."""

    def build(model):
        calls.append(tag)
        if isinstance(value, Exception):
            raise value
        return value

    return build


def test_callable_values_run_once_in_check_order():
    # each value is read where it is checked: c0, then the bracket values,
    # then the delta values, each in its mapping's order
    calls = []
    model = LoopModel(
        dim=3,
        euler=0,
        generators=[("a", -3), ("v", 2)],
        c0=_logged(calls, "c0", {"a": 1}),
        delta={"v": _logged(calls, "delta v", 0), "a": _logged(calls, "delta a", 0)},
        bracket={("a", "v"): _logged(calls, "[a,v]", 1), ("v", "v"): _logged(calls, "[v,v]", 0)},
    )
    assert calls == ["c0", "[a,v]", "[v,v]", "delta v", "delta a"]
    assert model.bracket(model.gen("a"), model.gen("v")) == 1
    # a ValueError raised by one is a problem under its where-tag, in the
    # same order, and the other values are still read
    calls = []
    with pytest.raises(ModelError) as info:
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0=_logged(calls, "c0", ValueError("no c0")),
            delta={"v": _logged(calls, "delta v", ModelError("no delta"))},
            bracket={("a", "v"): _logged(calls, "[a,v]", ValueError("no bracket"))},
        )
    assert calls == ["c0", "[a,v]", "delta v"]
    assert info.value.problems == [
        (("c0",), "no c0"),
        (("bracket", "a", "v"), "no bracket"),
        (("delta", "v"), "no delta"),
    ]


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"bracket": {"abc": None}}, (("bracket", "abc"), "bad bracket key 'abc'")),
        ({"bracket": {("a", "zz"): None}}, (("bracket", "a", "zz"), "unknown generator 'zz'")),
        ({"bracket": {}, "delta": {"zz": None}}, (("delta", "zz"), "unknown generator 'zz'")),
        ({"delta": {"a": None}}, (("delta",), "delta data requires bracket data")),
    ],
    ids=["bad-bracket-key", "bracket-unknown-generator", "delta-unknown-generator", "delta-without-bracket"],
)
def test_a_refused_entry_is_never_evaluated(data, problem):
    calls = []
    for table in data.values():
        for key in table:
            table[key] = _logged(calls, key, 0)
    with pytest.raises(ModelError) as info:
        LoopModel(
            dim=2, euler=2, generators=[("a", -2)], relations=[(1, {"a": 2})], c0={"a": 1}, **data
        )
    assert info.value.problems == [problem]
    assert calls == []


def test_nonpositive_relation_coefficient_rejected():
    with pytest.raises(ModelError, match="positive integer"):
        LoopModel(
            dim=2,
            euler=2,
            generators=[("a", -2)],
            relations=[(0, {"a": 2})],
            c0={"a": 1},
        )


def test_validate_is_idempotent(s4):
    assert validate_model(s4) is s4


def test_generator_spec_from_tuples_and_specs():
    m = LoopModel(
        dim=2,
        euler=2,
        generators=[GeneratorSpec("a", -2, True), ("v", 2)],
        relations=[(1, {"a": 2})],
        c0={"a": 1},
    )
    assert m.generators[0].geometric and not m.generators[1].geometric


# -- normal forms ------------------------------------------------------------


def brute_modulus(model, exps):
    """Ideal-membership by direct scan: gcd of relation coefficients over
    the declared relations dividing the monomial, plus odd squares."""
    rels = [(r.coeff, r.monomial) for r in model.relations]
    for i, g in enumerate(model.generators):
        if g.degree % 2:
            rels.append((1, tuple(2 if j == i else 0 for j in range(len(model.generators)))))
    mod = 0
    for k, rexps in rels:
        if all(re <= e for re, e in zip(rexps, exps)):
            mod = gcd(mod, k)
    return mod


def test_torsion_coefficient_wraps(s4):
    # 3*(a*v) + 1*(a*v) has coefficient 4 over a 2-torsion monomial
    av = s4.monomial({"a": 1, "v": 1})
    assert s4.normal_form([(3, av), (1, av)]) == 0


def test_unit_normal_form(s4):
    one = s4.normal_form([(1, {})])
    assert one == s4.unit()
    assert str(one) == "1"


def test_torsion_monomial_above_relation(s4):
    # oracle first: a*v^2 is divisible by a*v only, so its modulus is 2
    exps = s4.monomial({"a": 1, "v": 2})
    assert brute_modulus(s4, exps) == 2
    x = s4.normal_form([(1, {"a": 1, "v": 2})])
    assert len(x.terms) == 1
    ((mono, coeff),) = x.terms.items()
    assert coeff == 1
    assert s4.modulus(mono) == 2


def test_dead_monomials_are_dropped(s4):
    assert s4.normal_form([(1, {"a": 2})]) == 0
    assert s4.normal_form([(5, {"a": 1, "b": 1})]) == 0
    assert s4.normal_form([(1, {"b": 2})]) == 0  # implicit exterior square


def test_moduli_against_brute_scan(s4, cp2):
    for model in (s4, cp2):
        for _, mono, mod in model.basis_window(10):
            assert mod == brute_modulus(model, mono)


def test_a_moduli_entry_reaches_every_reader(s4, monkeypatch):
    # a fresh model, so the corrupted entry reaches no shared one
    model = parse_model(print_model(s4)).model
    a, v = model.gen("a"), model.gen("v")
    (ma,) = a.terms
    assert (model.modulus(ma), model.from_raw({ma: 1})) == (0, a)
    assert tensor([a, v]) != 0
    monkeypatch.setitem(model.moduli, ma, 1)
    assert model.modulus(ma) == 1
    assert model.from_raw({ma: 1}) == 0
    assert tensor([a, v]) == 0


def test_the_moduli_fill_on_lookup(s4):
    model = parse_model(print_model(s4)).model
    m = model.monomial({"a": 1, "v": 7})
    assert m not in model.moduli
    assert str(model.from_raw({m: 3})) == "a*v^7"
    # dict.get does not fill: the entry was stored by the lookup above
    assert dict.get(model.moduli, m) == brute_modulus(model, m) == 2


@settings(max_examples=60)
@given(data=st.data())
def test_normal_form_insertion_order_irrelevant(s4, data):
    basis = window_monomials(s4, 8)
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(-8, 8), st.sampled_from(basis)), max_size=6
        )
    )
    ref = s4.normal_form(list(pairs))
    perm = data.draw(st.permutations(pairs))
    assert s4.normal_form(perm) == ref


def test_normal_form_idempotent(s4):
    x = s4.normal_form([(3, {"v": 1}), (1, {"a": 1, "v": 1}), (2, {"b": 1})])
    assert s4.normal_form(x) == x


# -- add / scale ----------------------------------------------------------------


def test_add_torsion_cancels(s4):
    av = s4.mono_elem({"a": 1, "v": 1})
    assert s4.add(av, av) == 0


def test_scale_gives_additive_inverse(s4):
    x = s4.normal_form([(2, {"v": 1}), (1, {"b": 1})])
    assert s4.add(x, s4.scale(-1, x)) == 0
    assert x - x == 0


def test_projective_torsion_scale(cp2):
    c2u = cp2.mono_elem({"c": 2, "u": 1})
    assert cp2.scale(3, c2u) == 0
    assert 2 * c2u != 0


def test_mixed_model_operations_rejected(s4, cp2):
    with pytest.raises(ModelError, match="different models"):
        s4.add(s4.unit(), cp2.unit())
    with pytest.raises(ModelError, match="different models"):
        s4.mul(s4.unit(), cp2.unit())


# -- mul -------------------------------------------------------------------------


def test_squares_of_sphere_class_vanish(s2, s4, s6):
    for model in (s2, s4, s6):
        a = model.gen("a")
        assert model.mul(a, a) == 0


def test_unit_law(s4):
    for _, mono, _ in s4.basis_window(8):
        x = s4.mono_elem(mono)
        assert s4.mul(s4.unit(), x) == x
        assert s4.mul(x, s4.unit()) == x


def test_koszul_sign_on_odd_swap(toy):
    y, z = toy.gen("y"), toy.gen("z")
    assert toy.mul(z, y) == toy.scale(-1, toy.mul(y, z))
    assert toy.mul(y, z) != 0


def test_mul_ba_dies(s4):
    assert s4.mul(s4.gen("b"), s4.gen("a")) == 0


def test_exterior_square_in_product(toy):
    y, z = toy.gen("y"), toy.gen("z")
    yz = toy.mul(y, z)
    assert toy.mul(yz, y) == 0


def test_graded_commutativity_exact(s4, cp2, toy):
    for model in (s4, cp2, toy):
        basis = model.basis_window(8)
        for d1, m1, _ in basis:
            for d2, m2, _ in basis:
                x, y = model.mono_elem(m1), model.mono_elem(m2)
                sign = -1 if (d1 * d2) % 2 else 1
                assert model.mul(x, y) == model.scale(sign, model.mul(y, x))


@settings(max_examples=60)
@given(data=st.data())
def test_mul_associative_and_distributive(cp2, data):
    x = data.draw(elements(cp2))
    y = data.draw(elements(cp2))
    z = data.draw(elements(cp2))
    assert cp2.mul(cp2.mul(x, y), z) == cp2.mul(x, cp2.mul(y, z))
    assert cp2.mul(x, cp2.add(y, z)) == cp2.add(cp2.mul(x, y), cp2.mul(x, z))


def _assert_mul_matches_references(model, x, y):
    # the oracle's term-by-term sum, reduced once
    oracle = DenseOracle(model, 0)
    raw = []
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            want = oracle.multiply(m1, m2)
            if want is not None:
                raw.append((want[0] * c1 * c2, want[1]))
    got = model.mul(x, y)
    assert got.terms == oracle.reduce(raw)
    return got


def test_mul_of_multi_term_elements(odd_interleaved):
    model = odd_interleaved
    x, a, y, v, z, t = (model.gen(g.name) for g in model.generators)
    # odd letters anticommute, so the cross terms cancel: (x+y)^2 = 0
    assert _assert_mul_matches_references(model, x + y, x + y) == 0
    # a^2 = 0, and a*v - v*a cancels
    assert _assert_mul_matches_references(model, a + v, a - v) == -(v * v)
    # four odd generators: signs of several inversions at once
    left = x * t + 2 * y * v - 3 * z + a * x
    right = y * z - t + 5 * x * v * v + 1
    for p, q in ((left, right), (right, left), (left, left), (right * right, left)):
        _assert_mul_matches_references(model, p, q)


@settings(max_examples=60, deadline=None)
@given(models(euler=st.integers(-3, 3)), st.data())
def test_mul_of_multi_term_elements_on_random_models(model, data):
    x = data.draw(elements(model, window=4, max_terms=5))
    y = data.draw(elements(model, window=4, max_terms=5))
    _assert_mul_matches_references(model, x, y)
    # (p + q)(q - s*p) with q*p = s*p*q: the two cross terms cancel
    basis = window_monomials(model, 4)
    p, q = (model.mono_elem(data.draw(st.sampled_from(basis))) for _ in range(2))
    s = -1 if model.monomial_degree(*p.terms) * model.monomial_degree(*q.terms) % 2 else 1
    _assert_mul_matches_references(model, p + q, q - s * p)


def test_power_operator(cp2):
    c = cp2.gen("c")
    assert c**2 == cp2.mul(c, c)
    assert c**0 == cp2.unit()
    assert c**3 == 0
    with pytest.raises(ValueError):
        c ** (-1)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 1000, 2**20 - 1, 100_000_000])
def test_power_by_squaring(s4, monkeypatch, k):
    calls = []
    real_mul = s4.mul

    def counting_mul(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(s4, "mul", counting_mul)
    assert s4.gen("v") ** k == s4.mono_elem({"v": k})
    assert len(calls) <= 2 * log2(k) + 2


def test_monomial_keys_are_plain_exponent_tuples(s4, cp2):
    m = s4.monomial({"a": 1, "v": 2})
    assert type(m) is tuple and m == (0, 1, 2)
    for model in (s4, cp2):
        x = model.unit() + sum(model.gen(g.name) for g in model.generators)
        keys = [*x.terms, *(x * x).terms]
        keys += [m for degree in range(-8, 9) for m, _ in model.enumerate_basis(degree)]
        assert keys and all(type(k) is tuple for k in keys)


# -- grading --------------------------------------------------------------------


def test_degree_of_product_class(s2, s4, s6):
    for model, n in ((s2, 1), (s4, 2), (s6, 3)):
        av = model.mul(model.gen("a"), model.gen("v"))
        assert model.degree_of(av) == 2 * n - 2


def test_degree_of_unit_and_special_values(s4):
    assert s4.degree_of(s4.unit()) == 0
    assert s4.degree_of(s4.zero()) == ZERO
    mixed = s4.add(s4.gen("a"), s4.gen("v"))
    assert s4.degree_of(mixed) == INHOMOGENEOUS


def test_h_degree_conversion(s4):
    assert s4.h_degree(0) == 4
    assert s4.h_degree(-4) == 0
    with pytest.raises(TypeError):
        s4.h_degree(ZERO)


# -- basis enumeration -------------------------------------------------------------


def brute_basis(model, degree, bounds):
    """Exhaustive exponent-vector enumeration over explicit bounds."""
    import itertools

    out = []
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(e * g.degree for e, g in zip(exps, model.generators)) != degree:
            continue
        mod = brute_modulus(model, exps)
        if mod != 1:
            out.append((exps, mod))
    return sorted(out)


def test_basis_sphere_degree_two(s4):
    # oracle first: exhaustive enumeration with e_b <= 1, e_a <= 1, e_v <= 2
    assert brute_basis(s4, 2, [1, 1, 2]) == [((0, 1, 1), 2)]
    assert s4.enumerate_basis(2) == [((0, 1, 1), 2)]


def test_basis_sphere_degree_zero(s4):
    assert [(s4.format_monomial(m), mod) for m, mod in s4.enumerate_basis(0)] == [("1", 0)]


def test_basis_projective_degree_zero(cp2):
    # oracle first: exhaustive enumeration on -e_w - 2e_c + 4e_u = 0
    assert brute_basis(cp2, 0, [1, 2, 2]) == [((0, 0, 0), 0), ((0, 2, 1), 3)]
    got = [(cp2.format_monomial(m), mod) for m, mod in cp2.enumerate_basis(0)]
    assert got == [("1", 0), ("c^2*u", 3)]


def test_basis_matches_brute_enumeration_across_window(s4, cp2):
    for model, bounds in ((s4, [1, 1, 3]), (cp2, [1, 2, 4])):
        for degree in range(-10, 11):
            brute = brute_basis(model, degree, bounds)
            got = sorted(model.enumerate_basis(degree))
            assert got == brute, (model, degree)


def test_basis_matches_brute_enumeration_to_degree_24(cp2):
    # two positive generators; the last one, w, is capped at w^2 by a
    # pure-power relation, so its directly solved exponent meets the cap
    capped = LoopModel(
        dim=3,
        euler=0,
        generators=[("b", -1), ("a", -2), ("u", 2), ("w", 6)],
        relations=[(1, {"a": 2}), (1, {"w": 3}), (3, {"u": 2, "w": 1})],
        c0={"a": 1, "b": 1},
    )
    # the brute bounds reach past every cap and past degree 24
    for model, bounds in ((cp2, [2, 3, 8]), (capped, [2, 2, 14, 5])):
        for degree in range(-24, 25):
            assert model.enumerate_basis(degree) == brute_basis(model, degree, bounds), (
                model,
                degree,
            )


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 6))
@example(
    # a degree-0 generator, the capped positive u, and a non-positive part
    # reaching degree -5 past the window
    LoopModel(
        dim=4,
        euler=0,
        generators=[("b", -1), ("z", 0), ("a", -4), ("u", 2), ("w", 3), ("v", 6)],
        relations=[(1, {"z": 2}), (1, {"a": 2}), (1, {"u": 3}), (2, {"a": 1, "v": 1})],
        c0={"a": 1},
    ),
    3,
)
def test_basis_window_is_the_single_degrees_in_order(model, window):
    got = model.basis_window(window)
    assert got == [
        (d, m, mod) for d in range(-window, window + 1) for m, mod in model.enumerate_basis(d)
    ]
    oracle = DenseOracle(model, window)
    assert got == [
        (d, m, oracle.modulus(m)) for d in sorted(oracle.basis) for m in oracle.basis[d]
    ]


@settings(max_examples=100, deadline=None)
@given(models(euler=st.integers(-3, 3)), st.integers(0, 4))
@example(
    # four of the eight degree-4 monomials, a*u*v among them, hold the
    # last generator v, and the 2-torsion of a*v reaches each of them
    LoopModel(
        dim=4,
        euler=2,
        generators=[("b", -1), ("z", 0), ("a", -4), ("u", 2), ("w", 3), ("v", 6)],
        relations=[(1, {"z": 2}), (1, {"a": 2}), (1, {"u": 3}), (2, {"a": 1, "v": 1})],
        c0={"a": 1},
    ),
    4,
)
def test_engine_matches_the_dense_oracle_on_drawn_models(model, window):
    # the basis by degree with its moduli, and the product of every
    # ordered pair of basis monomials
    oracle = DenseOracle(model, window)
    got: dict[int, list] = {}
    for d, m, mod in model.basis_window(window):
        got.setdefault(d, []).append((m, mod))
    assert got == {d: [(m, oracle.modulus(m)) for m in ms] for d, ms in oracle.basis.items()}
    monos = [m for ms in oracle.basis.values() for m in ms]
    for m1 in monos:
        for m2 in monos:
            want = oracle.multiply(m1, m2)
            product = model.mul(model.mono_elem(m1), model.mono_elem(m2))
            assert product.terms == ({} if want is None else {want[1]: want[0]})


@pytest.mark.parametrize(
    "spec, lo, hi, steps",
    [("sphere:4", 99999996, 99999996, 8), ("cpn:3", -80, 80, 127), ("sphere:2", -24, 24, 61)],
)
def test_basis_enumeration_counts_its_steps(monkeypatch, spec, lo, hi, steps):
    # every step is counted: the limit at the count passes, one below refuses
    model = load_model(spec).model
    monkeypatch.setattr(algebra, "MAX_BASIS_STEPS", steps)
    assert model._basis_between(lo, hi)
    monkeypatch.setattr(algebra, "MAX_BASIS_STEPS", steps - 1)
    with pytest.raises(ValueError, match=f"^basis of degrees {lo} to {hi} takes more than {steps - 1} steps"):
        model._basis_between(lo, hi)


def test_basis_deterministic(cp2):
    assert cp2.enumerate_basis(0) == cp2.enumerate_basis(0)


def test_empty_degree(s4):
    assert s4.enumerate_basis(1) == []


# -- printing --------------------------------------------------------------------


def test_element_rendering(s4):
    assert str(s4.zero()) == "0"
    assert str(s4.unit()) == "1"
    assert str(s4.scale(-2, s4.unit())) == "-2"
    # terms sort by exponent vector in declaration order
    x = s4.normal_form([(1, {"a": 1, "v": 1}), (3, {"v": 1})])
    assert str(x) == "3*v + a*v"
    y = s4.normal_form([(-1, {"b": 1}), (2, {"v": 2})])
    assert str(y) == "2*v^2 - b"


# -- record classes ----------------------------------------------------------------


def test_generator_spec_and_relation_records():
    spec = GeneratorSpec(name="a", degree=-2, geometric=True)
    assert repr(spec) == "GeneratorSpec(name='a', degree=-2, geometric=True)"
    assert repr(GeneratorSpec("v", 2)) == "GeneratorSpec(name='v', degree=2, geometric=False)"
    assert spec == GeneratorSpec("a", -2, True)
    assert hash(spec) == hash(GeneratorSpec("a", -2, True))
    assert spec != ("a", -2, True) and spec != GeneratorSpec("a", -2)
    rel = Relation(2, (1, 0, 1))
    assert repr(rel) == "Relation(coeff=2, monomial=(1, 0, 1))"
    assert rel == Relation(coeff=2, monomial=(1, 0, 1))
    assert hash(rel) == hash(Relation(2, (1, 0, 1)))
    assert rel != (2, (1, 0, 1))
    for record, field in ((spec, "name"), (rel, "coeff")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1


# Each record without an ``__init__`` of its own, with the parameters its
# hand-written constructor took: the fields in order, the last with defaults.
_COMPILED_CONSTRUCTORS = {
    "GeneratorSpec": "(name, degree, geometric=False)",
    "Relation": "(coeff, monomial)",
    "Lit": "(value)",
    "Name": "(ident)",
    "Neg": "(operand)",
    "BinOp": "(op, left, right)",
    "Pow": "(base, exponent)",
    "Call": "(func, args)",
    "MuCall": "(genus, inputs, outputs, args)",
    "TensorExpr": "(factors)",
    "ModelDoc": "(model, provenance='<string>')",
    "CheckResult": "(law, status, detail='', witness=None)",
    "CheckReport": "(model_name, window, seed, results)",
}


def test_record_constructors_take_their_fields_in_order():
    import loophom.checks  # the law suite, and its records, load on first use

    def records(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from records(sub)

    found = {cls.__name__: cls for cls in records(algebra.Record)}
    for name, signature in _COMPILED_CONSTRUCTORS.items():
        cls = found[name]
        assert str(inspect.signature(cls)) == signature, name
        fields = cls.__slots__
        record = cls(*fields)
        assert [getattr(record, f) for f in fields] == list(fields), name
        assert cls(**dict(zip(fields, fields))) == record, name
    # Surface checks its fields before it sets them: it keeps its own
    # constructor, the others run one compiled from text
    compiled = {n for n, cls in found.items() if cls.__init__.__code__.co_filename == "<string>"}
    assert compiled == set(_COMPILED_CONSTRUCTORS)
    assert set(found) - compiled == {"Surface"}


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as each command-line call is; -B writes no bytecode
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import loophom; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
