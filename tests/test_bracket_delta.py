"""Loop bracket and BV operator: Leibniz extension, signs, consistency."""

import json
from pathlib import Path

import pytest

from loophom import LoopModel, ModelError, evaluate, parse_expr

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
    n = 3000
    assert model.bracket(a, v**n) == model.scale(n, v ** (n - 1))
    assert model.bracket(v**n, a * v) == model.scale(-n, v**n)
    # D(a v^n) = -(a D(v^n) + {a, v^n}) and a * a = 0
    assert model.delta(a * v**n) == model.scale(-n, v ** (n - 1))


def test_clear_caches_empties_them_and_keeps_values():
    model = _bv_data_model()
    a, v = model.gen("a"), model.gen("v")
    powers = [v**k for k in range(1, 41)]
    deltas = [model.delta(x) for x in powers]
    brackets = [model.bracket(x, y) for x in powers for y in (a, v)]
    caches = (model._modulus_cache, model._bracket_cache, model._delta_cache)
    assert all(caches)
    model.clear_caches()
    assert not any(caches)
    assert [model.delta(x) for x in powers] == deltas
    assert [model.bracket(x, y) for x in powers for y in (a, v)] == brackets
