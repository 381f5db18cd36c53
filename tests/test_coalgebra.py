"""Tensor elements and the loop coproduct."""

import pytest

from loophom import (
    Element,
    LoopModel,
    ModelError,
    coalgebra,
    apply_delta_factorwise,
    apply_psi,
    contract,
    projective_space,
    psi,
    psi_mirror,
    psi_split,
    tensor,
    tensor_add,
    tensor_scale,
    tensor_zero,
    twist,
)


# -- tensor construction ---------------------------------------------------------


def test_tensor_of_units(s4):
    t = tensor([s4.unit(), s4.unit()])
    assert t.arity == 2
    assert str(t) == "(1 (x) 1)"


def test_zero_factor_annihilates(s4):
    assert tensor([s4.gen("a"), s4.zero()]) == 0
    assert tensor([s4.gen("a"), s4.zero()]) == tensor_zero(s4, 2)


def test_tensor_add_doubles(s4):
    a = s4.gen("a")
    t = tensor([a, a])
    assert tensor_add(t, t) == tensor_scale(2, t)
    assert str(tensor_add(t, t)) == "2*(a (x) a)"


def test_empty_factor_list_rejected(s4):
    with pytest.raises(ValueError, match="at least one factor"):
        tensor([])


def test_zero_arity_rejected(s4):
    with pytest.raises(ValueError) as exc:
        tensor_zero(s4, 0)
    assert str(exc.value) == "tensor arity must be at least 1"


def test_mixed_model_tensor_rejected(s4, cp2):
    with pytest.raises(ModelError, match="different models"):
        tensor([s4.unit(), cp2.unit()])


@pytest.mark.parametrize("first", [3, None, "a"], ids=["int", "none", "str"])
def test_non_element_first_factor_rejected(s4, first):
    # the first factor is checked like the others, before its model is read
    for factors in ([first], [first, s4.unit()]):
        with pytest.raises(ModelError) as exc:
            tensor(factors)
        assert str(exc.value) == "tensor factors belong to different models"


def test_arity_mismatch_add_rejected(s4):
    with pytest.raises(ValueError, match="arity"):
        tensor_add(tensor([s4.unit()]), tensor([s4.unit(), s4.unit()]))


def test_arity_one_interconversion(s4):
    x = s4.normal_form([(2, {"v": 1}), (1, {"b": 1})])
    t = tensor([x])
    assert t.arity == 1
    assert t.as_element() == x
    with pytest.raises(ValueError, match="arity-2"):
        tensor([x, x]).as_element()


def test_tensor_size_limit(s4, monkeypatch):
    # the limit bounds the product of the factors' term counts: 2*4 = 8 is
    # built, 3*3 = 9 is refused
    monkeypatch.setattr(coalgebra, "MAX_TENSOR_TERMS", 8)
    v = [s4.mono_elem({"v": k}) for k in range(1, 5)]
    two, three, four = v[0] + v[1], v[0] + v[1] + v[2], v[0] + v[1] + v[2] + v[3]
    nine = sum(s4.mono_elem({"v": k}) for k in range(1, 10))
    # c0 = a + b + c: psi of each term is a 3x3 tensor, refused even at chi = 0
    three_c0 = LoopModel(
        dim=2,
        euler=0,
        generators=[("a", -2), ("b", -2), ("c", -2)],
        relations=[(1, {"a": 2}), (1, {"b": 2}), (1, {"c": 2})],
        c0=[(1, {"a": 1}), (1, {"b": 1}), (1, {"c": 1})],
    )
    assert len(tensor([two, four]).terms) == 8
    for refused in (
        lambda: tensor([three, three]),
        lambda: tensor([nine]),
        lambda: apply_psi(tensor([three_c0.unit()]), 1),
    ):
        with pytest.raises(ValueError) as exc:
            refused()
        assert str(exc.value) == "tensor of 9 terms exceeds the limit of 8"


def test_tensor_multilinear_expansion(s4):
    b, v = s4.gen("b"), s4.gen("v")
    t = tensor([b + v, v])
    assert t == tensor_add(tensor([b, v]), tensor([v, v]))


def test_torsion_moves_across_tensor(s4):
    # 2*(a (x) a*v) dies because a*v is 2-torsion
    a = s4.gen("a")
    av = s4.mul(a, s4.gen("v"))
    assert tensor_scale(2, tensor([a, av])) == 0
    assert tensor([s4.scale(2, a), av]) == 0


# -- twist -----------------------------------------------------------------------


def test_twist_fixes_even_square(s4):
    t = tensor([s4.gen("a"), s4.gen("a")])
    assert twist(t) == t


def test_twist_odd_odd_sign(toy):
    y, z = toy.gen("y"), toy.gen("z")
    assert twist(tensor([y, z])) == tensor_scale(-1, tensor([z, y]))


def test_twist_involution(s4, toy):
    for model in (s4, toy):
        basis = model.basis_window(6)
        for _, m1, _ in basis:
            for _, m2, _ in basis:
                t = tensor([model.mono_elem(m1), model.mono_elem(m2)])
                assert twist(twist(t)) == t


def test_twist_needs_arity_two(s4):
    with pytest.raises(ValueError, match="arity-2"):
        twist(tensor([s4.unit()]))


# -- contract ---------------------------------------------------------------------


def test_contract_squares_die(s2, s4):
    for model in (s2, s4):
        a = model.gen("a")
        assert contract(tensor([a, a]), 1) == 0


def test_contract_unit_law(s4):
    x = s4.normal_form([(1, {"v": 1}), (1, {"b": 1})])
    t = contract(tensor([s4.unit(), x]), 1)
    assert t.arity == 1 and t.as_element() == x


def test_contract_projective_top_power(cp1, cp2):
    for model, n in ((cp1, 1), (cp2, 2)):
        cn = model.mono_elem({"c": n})
        assert contract(tensor([cn, cn]), 1) == 0


def test_contract_slot_range(s4):
    t = tensor([s4.unit(), s4.unit()])
    with pytest.raises(ValueError, match="out of range"):
        contract(t, 0)
    with pytest.raises(ValueError, match="out of range"):
        contract(t, 2)


def test_contract_matches_mul_on_pairs(s4):
    basis = s4.basis_window(6)
    for _, m1, _ in basis:
        for _, m2, _ in basis:
            x, y = s4.mono_elem(m1), s4.mono_elem(m2)
            got = contract(tensor([x, y]), 1)
            want = s4.mul(x, y)
            assert (got.as_element() if got else s4.zero()) == want


# -- the coproduct -----------------------------------------------------------------


def test_psi_of_unit_spheres(s2, s4, s6):
    for model in (s2, s4, s6):
        a = model.gen("a")
        assert psi(model, model.unit()) == tensor_scale(2, tensor([a, a]))


def test_psi_of_unit_projective():
    for n in range(1, 5):
        model = projective_space(n)
        cn = model.mono_elem({"c": n})
        assert psi(model, model.unit()) == tensor_scale(n + 1, tensor([cn, cn]))


def test_psi_kills_positive_classes(s2, s4, s6):
    for model in (s2, s4, s6):
        assert psi(model, model.gen("v")) == 0
        assert psi(model, model.gen("b")) == 0


def test_psi_linear(s4):
    x = s4.normal_form([(3, {}), (1, {"v": 1})])
    assert psi(s4, x) == tensor_scale(3, psi(s4, s4.unit()))


def test_psi_forms_agree_on_window(s2, s4, cp1, cp2, toy):
    for model in (s2, s4, cp1, cp2, toy):
        for _, mono, _ in model.basis_window(10):
            x = model.mono_elem(mono)
            assert psi(model, x) == psi_mirror(model, x)


# -- psi_split ----------------------------------------------------------------------


def test_split_of_empty_product(s4):
    a = s4.gen("a")
    assert psi_split(s4, [], 0) == tensor_scale(2, tensor([a, a]))


def test_split_independence_single_factor(s2, s4):
    for model in (s2, s4):
        v = model.gen("v")
        assert psi_split(model, [v], 0) == psi_split(model, [v], 1)
        assert psi_split(model, [v], 0) == 0


def test_split_projective_values(cp2):
    one = cp2.unit()
    c2u = cp2.mono_elem({"c": 2, "u": 1})
    cn = cp2.mono_elem({"c": 2})
    for ell in range(3):
        assert psi_split(cp2, [one, c2u], ell) == 0
    for ell in range(3):
        assert psi_split(cp2, [one, one], ell) == tensor_scale(3, tensor([cn, cn]))


def test_split_range_checked(s4):
    with pytest.raises(ValueError, match="out of range"):
        psi_split(s4, [s4.unit()], 2)
    with pytest.raises(ValueError, match="out of range"):
        psi_split(s4, [s4.unit()], -1)


def test_split_independence_random_products(s4, cp2):
    import random

    rng = random.Random(11)
    for model in (s4, cp2):
        monos = [m for _, m, _ in model.basis_window(8)]
        for _ in range(100):
            p = rng.randint(0, 4)
            factors = [model.mono_elem(rng.choice(monos)) for _ in range(p)]
            ref = psi_split(model, factors, 0)
            for ell in range(1, p + 1):
                assert psi_split(model, factors, ell) == ref


# -- coproduct laws ------------------------------------------------------------------


def test_symmetry_on_window(s2, s4, cp1, cp2, toy):
    for model in (s2, s4, cp1, cp2, toy):
        for _, mono, _ in model.basis_window(10):
            value = psi(model, model.mono_elem(mono))
            assert twist(value) == value


def test_concentration_on_window(s2, s4, cp1, cp2, toy):
    for model in (s2, s4, cp1, cp2, toy):
        for deg, mono, _ in model.basis_window(10):
            value = psi(model, model.mono_elem(mono))
            if deg != 0:
                assert value == 0


def test_degree_zero_image_is_multiple_of_diagonal(s2, s4, cp2):
    for model in (s2, s4, cp2):
        c0c0 = tensor([model.c0, model.c0])
        for deg, mono, _ in model.basis_window(10):
            if deg != 0:
                continue
            value = psi(model, model.mono_elem(mono))
            if not value:
                continue
            # solve for the integer multiple and verify exactly
            key = min(value.terms)
            k = value.terms[key] // c0c0.terms[key]
            assert value == tensor_scale(k, c0c0)


def test_coassociativity_both_zero(s2, s4, cp1, cp2, toy):
    for model in (s2, s4, cp1, cp2, toy):
        for _, mono, _ in model.basis_window(10):
            value = psi(model, model.mono_elem(mono))
            left = apply_psi(value, 1)
            right = apply_psi(value, 2)
            assert left == right
            assert left == 0


def test_chi_zero_coproduct_vanishes(s3, bv_model):
    for model in (s3, bv_model):
        for _, mono, _ in model.basis_window(12):
            assert psi(model, model.mono_elem(mono)) == 0


# -- interplay with the BV operator ---------------------------------------------------


def test_factorwise_delta_kills_coproduct(toy, bv_model):
    for model in (toy, bv_model):
        for _, mono, _ in model.basis_window(10):
            value = psi(model, model.mono_elem(mono))
            assert apply_delta_factorwise(value) == 0


def _delta_factorwise_by_prefix_sums(t):
    # each slot's sign re-sums the degrees of the factors before it
    model = t.model
    out = tensor_zero(model, t.arity)
    for ms, c in t.terms.items():
        for slot in range(t.arity):
            sign = -1 if sum(model.monomial_degree(m) for m in ms[:slot]) % 2 else 1
            factors = [Element(model, {m: 1}) for m in ms]
            factors[slot] = model.delta(factors[slot])
            out = out + tensor(factors).scaled(sign * c)
    return out


def test_factorwise_delta_nontrivial_case(bv_model):
    # sanity that the operator itself is not identically zero
    a, v = bv_model.gen("a"), bv_model.gen("v")
    t = tensor([bv_model.mul(a, v), v])
    assert apply_delta_factorwise(t) == tensor_scale(-1, tensor([bv_model.unit(), v]))
    # arity 3 with two odd factors a*v: the third slot passes a*v and v, so -1
    av, one = bv_model.mul(a, v), bv_model.unit()
    t = tensor([av, v, av])
    assert apply_delta_factorwise(t) == tensor([av, v, one]) - tensor([one, v, av])
    for t in (t, tensor([av, av + v, 2 * v - av]), tensor([a, av + 3 * a, av])):
        assert apply_delta_factorwise(t) == _delta_factorwise_by_prefix_sums(t)


def test_coproduct_kills_geometric_brackets(toy, bv_model):
    for model in (toy, bv_model):
        geometric = [g.name for g in model.generators if g.geometric]
        assert geometric
        for name in geometric:
            g = model.gen(name)
            for _, mono, _ in model.basis_window(8):
                value = psi(model, model.bracket(g, model.mono_elem(mono)))
                assert value == 0


def _apply_psi_by_terms(t, slot):
    # psi of each term's factor, spliced in with the term's coefficient
    model = t.model
    out = tensor_zero(model, t.arity + 1)
    for ms, c in t.terms.items():
        for (p1, p2), pc in psi(model, Element(model, {ms[slot - 1]: 1})).terms.items():
            factors = ms[: slot - 1] + (p1, p2) + ms[slot:]
            out = out + tensor([model.mono_elem(m) for m in factors]).scaled(c * pc)
    return out


def test_apply_psi_on_a_two_term_c0_with_torsion():
    # a*v is 4-torsion and b*v 6-torsion; a*(b*v) = b*(a*v) meet in one key
    model = LoopModel(
        dim=2,
        euler=2,
        generators=[("a", -2), ("b", -2), ("v", 2)],
        relations=[(1, {"a": 2}), (1, {"b": 2}), (4, {"a": 1, "v": 1}), (6, {"b": 1, "v": 1})],
        c0=[(1, {"a": 1}), (2, {"b": 1})],
    )
    a, b, v = model.gen("a"), model.gen("b"), model.gen("v")
    x = 1 + v + 3 * a * v + 5 * b * v - v * v
    t = tensor([x, v + 2 * b]) + tensor([a * v + b * v, v * v]).scaled(3)
    assert apply_psi(tensor([x]), 1) == psi(model, x) != 0
    for slot in (1, 2):
        assert apply_psi(t, slot) == _apply_psi_by_terms(t, slot) != 0
    assert apply_psi(psi(model, x), 1) == _apply_psi_by_terms(psi(model, x), 1)


def test_apply_psi_slot_range(s4):
    t = tensor([s4.unit()])
    with pytest.raises(ValueError, match="out of range"):
        apply_psi(t, 2)
