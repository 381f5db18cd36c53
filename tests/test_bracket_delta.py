"""Loop bracket and BV operator: Leibniz extension, signs, consistency."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import LoopModel, ModelError, evaluate, parse_expr

from strategies import models

BV_POWERS = Path(__file__).parent / "data" / "bv_powers.json"


def test_bracket_requires_data(s4):
    with pytest.raises(ModelError, match="bracket data"):
        s4.bracket(s4.unit(), s4.gen("a"))


def test_delta_requires_data(s4):
    with pytest.raises(ModelError, match="BV-operator data"):
        s4.delta(s4.gen("a"))


def test_bracket_with_unit_vanishes(toy, bv_model):
    for model in (toy, bv_model):
        one = model.unit()
        for _, mono, _ in model.basis_window(8):
            x = model.mono_elem(mono)
            assert model.bracket(one, x) == 0
            assert model.bracket(x, one) == 0


def test_zero_bracket_model_brackets_vanish(toy):
    y, z = toy.gen("y"), toy.gen("z")
    assert toy.bracket(y, z) == 0
    assert toy.bracket(toy.mul(y, z), z) == 0


def test_generator_bracket_values(bv_model):
    a, v = bv_model.gen("a"), bv_model.gen("v")
    assert bv_model.bracket(a, v) == bv_model.unit()
    # antisymmetric completion of the stored pair
    assert bv_model.bracket(v, a) == -bv_model.unit()


def test_bracket_leibniz_powers(bv_model):
    # {a, v^k} = k v^(k-1), worked out from the one-slot Leibniz rule
    a, v = bv_model.gen("a"), bv_model.gen("v")
    for k in (2, 3, 4):
        assert bv_model.bracket(a, v**k) == bv_model.scale(k, v ** (k - 1))


def test_bracket_first_slot_values(bv_model):
    a, v = bv_model.gen("a"), bv_model.gen("v")
    av = bv_model.mul(a, v)
    assert bv_model.bracket(av, v) == v
    assert bv_model.bracket(v, av) == -v
    assert bv_model.bracket(av, av) == 0


def test_bracket_antisymmetry_on_window(toy, bv_model):
    for model in (toy, bv_model):
        basis = model.basis_window(8)
        for d1, m1, _ in basis:
            for d2, m2, _ in basis:
                x, y = model.mono_elem(m1), model.mono_elem(m2)
                sign = 1 if ((d1 + 1) * (d2 + 1)) % 2 else -1
                assert model.bracket(x, y) == model.scale(sign, model.bracket(y, x))


def test_bracket_degree_shift(bv_model):
    basis = bv_model.basis_window(8)
    for d1, m1, _ in basis:
        for d2, m2, _ in basis:
            value = bv_model.bracket(bv_model.mono_elem(m1), bv_model.mono_elem(m2))
            if value:
                assert bv_model.degree_of(value) == d1 + d2 + 1


def test_bracket_bilinear(bv_model):
    a, v = bv_model.gen("a"), bv_model.gen("v")
    x = a + 2 * v
    y = v**2 - v
    expected = (
        bv_model.bracket(a, v**2)
        - bv_model.bracket(a, v)
        + 2 * bv_model.bracket(v, v**2)
        - 2 * bv_model.bracket(v, v)
    )
    assert bv_model.bracket(x, y) == expected


# -- BV operator ------------------------------------------------------------------


def test_delta_of_unit_and_zero(toy, bv_model):
    for model in (toy, bv_model):
        assert model.delta(model.unit()) == 0
        assert model.delta(model.zero()) == 0


def test_delta_vanishes_with_zero_data(toy):
    y, z = toy.gen("y"), toy.gen("z")
    assert toy.delta(toy.mul(y, z)) == 0
    assert toy.delta(y) == 0


def test_delta_values(bv_model):
    # delta(a v^k) = -k v^(k-1), delta(v^k) = 0
    a, v = bv_model.gen("a"), bv_model.gen("v")
    assert bv_model.delta(bv_model.mul(a, v)) == -bv_model.unit()
    for k in (1, 2, 3):
        assert bv_model.delta(bv_model.mul(a, v**k)) == bv_model.scale(-k, v ** (k - 1))
        assert bv_model.delta(v**k) == 0


def test_delta_raises_degree_by_one(bv_model):
    for d, mono, _ in bv_model.basis_window(8):
        value = bv_model.delta(bv_model.mono_elem(mono))
        if value:
            assert bv_model.degree_of(value) == d + 1


def test_delta_squared_zero_on_window(toy, bv_model):
    for model in (toy, bv_model):
        for _, mono, _ in model.basis_window(10):
            assert model.delta(model.delta(model.mono_elem(mono))) == 0


def test_bv_residual_vanishes(toy, bv_model):
    # delta(xy) - delta(x)y - (-1)^|x| x delta(y) - (-1)^|x| {x,y} == 0
    for model in (toy, bv_model):
        basis = model.basis_window(8)
        for d1, m1, _ in basis:
            for _, m2, _ in basis:
                x, y = model.mono_elem(m1), model.mono_elem(m2)
                sign = -1 if d1 % 2 else 1
                residual = model.delta(model.mul(x, y))
                residual -= model.mul(model.delta(x), y)
                residual -= model.scale(sign, model.mul(x, model.delta(y)))
                residual -= model.scale(sign, model.bracket(x, y))
                assert residual == 0, (m1, m2)


# -- validation of the optional data ------------------------------------------------


def test_delta_without_bracket_rejected():
    with pytest.raises(ModelError, match="requires bracket data"):
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0={"a": 1},
            delta={"a": 0, "v": 0},
        )


def test_delta_on_constant_loop_class_must_vanish():
    # c0 = x with delta(x) = u forces delta(c0) != 0
    with pytest.raises(ModelError, match="constant-loop class must vanish"):
        LoopModel(
            dim=1,
            euler=0,
            generators=[("x", -1), ("u", 0)],
            relations=[(1, {"u": 2})],
            c0={"x": 1},
            delta={"x": {"u": 1}, "u": 0},
            bracket={("x", "u"): 0},
        )


def test_inhomogeneous_delta_value_rejected():
    with pytest.raises(ModelError, match="homogeneous of degree"):
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0={"a": 1},
            delta={"a": {"v": 1}, "v": 0},  # degree 2, needs -2
            bracket={("a", "v"): 0},
        )


def test_inhomogeneous_bracket_value_rejected():
    with pytest.raises(ModelError, match="homogeneous of degree"):
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0={"a": 1},
            bracket={("a", "v"): {"v": 1}},  # degree 2, needs 0
        )


def test_conflicting_bracket_orders_rejected():
    with pytest.raises(ModelError, match="antisymmetry"):
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0={"a": 1},
            bracket={("a", "v"): 1, ("v", "a"): 1},
        )


def test_consistent_bracket_orders_accepted():
    model = LoopModel(
        dim=3,
        euler=0,
        generators=[("a", -3), ("v", 2)],
        c0={"a": 1},
        bracket={("a", "v"): 1, ("v", "a"): -1},
    )
    assert model.bracket(model.gen("a"), model.gen("v")) == model.unit()


def test_bracket_unknown_generator_rejected():
    with pytest.raises(ModelError, match="unknown generator"):
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            c0={"a": 1},
            bracket={("a", "q"): 0},
        )


def test_bracket_must_vanish_on_a_relation():
    # {a, v} = 1 would give {a, 2*v} = 2, but 2*v = 0
    with pytest.raises(ModelError) as exc:
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2)],
            relations=[(2, {"v": 1})],
            c0={"a": 1},
            bracket={("a", "v"): 1},
        )
    assert exc.value.problems == [
        (("relation", 1), "bracket with 'a' does not vanish on relation 2 * v: got 2")
    ]


def test_delta_must_vanish_on_a_relation():
    with pytest.raises(ModelError) as exc:
        LoopModel(
            dim=3,
            euler=0,
            generators=[("a", -3), ("v", 2), ("w", 3)],
            relations=[(2, {"v": 1})],
            c0={"a": 1},
            delta={"v": {"w": 1}},
            bracket={("a", "v"): 0},
        )
    assert exc.value.problems == [
        (("relation", 1), "delta does not vanish on relation 2 * v: got 2*w")
    ]


def test_odd_self_bracket_must_vanish_with_bv_data():
    # g*g = 0 allows a 2-torsion {g, g}; with BV data
    # {g, g} = D(g)*g - g*D(g) - D(g*g) = 0
    presentation = dict(
        dim=1,
        euler=0,
        generators=[("x", -1), ("g", 1), ("w", 3)],
        relations=[(2, {"w": 1})],
        c0={"x": 1},
        bracket={("g", "g"): {"w": 1}},
    )
    model = LoopModel(**presentation)
    g = model.gen("g")
    assert model.bracket(g, g) == model.gen("w")
    with pytest.raises(ModelError) as exc:
        LoopModel(**presentation, delta={"g": 0})
    assert exc.value.problems == [
        (("bracket", "g", "g"), "self-bracket of odd generator 'g' must vanish with BV data, got w")
    ]
    bv = LoopModel(**dict(presentation, bracket={("g", "g"): 0}), delta={"g": 0})
    assert bv.bracket(bv.gen("g"), bv.gen("g")) == 0


def _bv_data_model():
    """The ``bv_model`` presentation with a nonzero BV operator on ``v``."""
    return LoopModel(
        dim=3,
        euler=0,
        generators=[("a", -3, True), ("v", 2)],
        c0={"a": 1},
        delta={"a": 0, "v": [(2, {"a": 1, "v": 3})]},
        bracket={("a", "v"): 1},
        simply_connected=True,
    )


def test_bv_and_bracket_of_powers_match_pinned_values(toy):
    # delta(x^k) and bracket(x^k, y) for k <= 12, recorded from the
    # recursive Leibniz extension, whose stack grew with the exponent
    got = {}
    for name, model, xs, ys in (
        ("toy", toy, ["y", "z", "y+z", "1+y", "1+y*z", "2*y-z"], ["y", "z"]),
        ("bv", _bv_data_model(), ["v", "a+v", "a*v", "1+v"], ["a", "v"]),
    ):
        for x in xs:
            for k in range(13):
                text = f"({x})^{k}"
                value = evaluate(model, parse_expr(text, model))
                got[f"{name} delta({text})"] = str(model.delta(value))
                for y in ys:
                    got[f"{name} bracket({text}, {y})"] = str(model.bracket(value, model.gen(y)))
    assert got == json.loads(BV_POWERS.read_text())


def test_high_powers_do_not_grow_the_stack():
    model = _bv_data_model()
    a, v = model.gen("a"), model.gen("v")
    for n in (3000, 10**6):
        assert model.bracket(a, v**n) == model.scale(n, v ** (n - 1))
        assert model.bracket(v**n, a * v) == model.scale(-n, v**n)
        # D(a v^n) = -(a D(v^n) + {a, v^n}) and a * a = 0
        assert model.delta(a * v**n) == model.scale(-n, v ** (n - 1))
    # the closed forms keep no entry per exponent
    assert len(model.moduli) < 100


def test_clear_caches_empties_them_and_keeps_values():
    model = _bv_data_model()
    a, v = model.gen("a"), model.gen("v")
    powers = [v**k for k in range(1, 41)]
    deltas = [model.delta(x) for x in powers]
    brackets = [model.bracket(x, y) for x in powers for y in (a, v)]
    assert model.moduli
    model.moduli.clear()
    assert not model.moduli
    assert [model.delta(x) for x in powers] == deltas
    assert [model.bracket(x, y) for x in powers for y in (a, v)] == brackets


# -- closed forms against a word-level Leibniz expansion ---------------------------


def _word(m):
    """The letters of a monomial in declaration order, as generator indices."""
    return [i for i, e in enumerate(m) for _ in range(e)]


def _word_ops(model):
    """Bracket and BV operator on words of generators, expanded letter by
    letter from the Leibniz rules; only the loop product is trusted."""
    names = [g.name for g in model.generators]
    degs = [g.degree for g in model.generators]
    data, dvals = model.bracket_on_generators, model.delta_on_generators

    def sign(p):
        return -1 if p % 2 else 1

    def prod(*factors):
        out = model.unit()
        for f in factors:
            out = model.mul(out, f)
        return out

    def letters(w):
        return prod(*(model.gen(names[i]) for i in w))

    def deg(w):
        return sum(degs[i] for i in w)

    def gen_bracket(i, j):
        if (names[i], names[j]) in data:
            return data[(names[i], names[j])]
        if (names[j], names[i]) in data:
            # {x, y} = -(-1)^((|x| + 1)(|y| + 1)) {y, x}
            return sign((degs[i] + 1) * (degs[j] + 1) + 1) * data[(names[j], names[i])]
        return model.zero()

    def bracket(u, w):
        # {u_1..u_n, z} = sum_i (-1)^((|z|+1)|u_>i|) u_<i {u_i, z} u_>i
        # {x, w_1..w_p} = sum_j (-1)^((|x|+1)|w_<j|) w_<j {x, w_j} w_>j
        out = model.zero()
        for a, i in enumerate(u):
            s_u = sign((deg(w) + 1) * deg(u[a + 1:]))
            for b, j in enumerate(w):
                s_w = sign((degs[i] + 1) * deg(w[:b]))
                inner = prod(letters(w[:b]), gen_bracket(i, j), letters(w[b + 1:]))
                out += s_u * s_w * prod(letters(u[:a]), inner, letters(u[a + 1:]))
        return out

    def delta(u):
        # D(g r) = D(g) r + (-1)^|g| (g D(r) + {g, r}), unrolled over u
        out = model.zero()
        for a, i in enumerate(u):
            dg = dvals.get(names[i], model.zero())
            step = prod(dg, letters(u[a + 1:])) + sign(degs[i]) * bracket([i], u[a + 1:])
            out += sign(deg(u[:a])) * prod(letters(u[:a]), step)
        return out

    return bracket, delta


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closed_forms_match_the_word_level_leibniz_expansion(data):
    model = data.draw(models())
    word_bracket, word_delta = _word_ops(model)

    def monomials():
        caps = [1 if d % 2 else (6 if cap is None else min(cap, 6)) for d, cap in zip(model._degrees, model._caps)]
        return st.tuples(*(st.integers(0, c) for c in caps)).map(model.mono_elem)

    for _ in range(4):
        x, y = data.draw(monomials()), data.draw(monomials())
        expected = model.zero()
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                expected += c1 * c2 * word_bracket(_word(m1), _word(m2))
        assert model.bracket(x, y) == expected, (x, y)
        expected = model.zero()
        for m, c in x.terms.items():
            expected += c * word_delta(_word(m))
        assert model.delta(x) == expected, x


def test_closed_forms_match_the_word_level_leibniz_expansion_on_a_window():
    # every sign path on every pair of basis monomials: odd-odd, odd-even
    # and even self-brackets, nonzero D on an odd and an even generator;
    # once with 3-torsion, whose relation the values must vanish on, and
    # once torsion-free, where D(y) and {y, v} need no factor x
    def window_model(relations, dy, yv):
        return LoopModel(
            dim=1,
            euler=0,
            generators=[("x", -1), ("v", 2), ("y", 1)],
            relations=relations,
            c0={"x": 1},
            delta={"y": dy, "v": [(1, {"y": 1, "v": 1}), (-1, {"x": 1, "v": 2})]},
            bracket={
                ("x", "y"): {"y": 1},
                ("v", "x"): {"v": 1},
                ("y", "v"): [(2, yv)],
                ("v", "v"): {"y": 1, "v": 2},
            },
        )

    for model in (
        window_model([(3, {"y": 1, "v": 2})], {"x": 1, "y": 1, "v": 1}, {"x": 1, "y": 1, "v": 2}),
        window_model([], {"v": 1}, {"v": 2}),
    ):
        word_bracket, word_delta = _word_ops(model)
        monomials = [m for _, m, _ in model.basis_window(7)]
        for m1 in monomials:
            x = model.mono_elem(m1)
            assert model.delta(x) == word_delta(_word(m1)), m1
            for m2 in monomials:
                assert model.bracket(x, model.mono_elem(m2)) == word_bracket(_word(m1), _word(m2)), (m1, m2)
