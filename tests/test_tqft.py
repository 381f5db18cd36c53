"""Surface bookkeeping and the operation attached to a cobordism type."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import tqft
from loophom import (
    ModelError,
    Surface,
    VanishingReason,
    contract,
    psi_split,
    sew,
    string_operation,
    string_operation_via_pants,
    tensor,
    tensor_scale,
    tensor_zero,
    vanishing_certificate,
)
from strategies import elements, models


# -- surfaces --------------------------------------------------------------------


def test_euler_characteristics():
    assert Surface(0, 2, 1).euler_char == -1
    assert Surface(1, 1, 1).euler_char == -2
    assert Surface(0, 1, 3).euler_char == -2


def test_surface_field_validation():
    with pytest.raises(ValueError, match="outputs"):
        Surface(0, 1, 0)
    with pytest.raises(ValueError, match="genus"):
        Surface(-1, 1, 1)
    with pytest.raises(ValueError, match="inputs"):
        Surface(0, -1, 1)


def test_sew_examples():
    assert sew(Surface(0, 2, 1), Surface(0, 1, 2)) == Surface(0, 2, 2)
    # two pairs of pants glued along both circles close up into a torus
    assert sew(Surface(0, 1, 2), Surface(0, 2, 1)) == Surface(1, 1, 1)
    assert sew(Surface(1, 1, 1), Surface(1, 1, 1)) == Surface(2, 1, 1)


def test_sew_additivity_of_euler_characteristic():
    rng = random.Random(5)
    for _ in range(50):
        s1 = Surface(rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3))
        s2 = Surface(rng.randint(0, 3), s1.outputs, rng.randint(1, 3))
        assert sew(s1, s2).euler_char == s1.euler_char + s2.euler_char


def test_sew_mismatch_rejected():
    with pytest.raises(ValueError, match="cannot sew"):
        sew(Surface(0, 2, 1), Surface(0, 2, 1))


def test_vanishing_certificate():
    assert vanishing_certificate(Surface(2, 3, 1)) is VanishingReason.GENUS_AT_LEAST_ONE
    assert vanishing_certificate(Surface(0, 1, 4)) is VanishingReason.THREE_OR_MORE_OUTPUTS
    assert vanishing_certificate(Surface(0, 3, 2)) is VanishingReason.NOT_A_PRIORI


def test_certificate_after_sewing_genus():
    rng = random.Random(7)
    for _ in range(60):
        s1 = Surface(rng.randint(0, 2), rng.randint(0, 3), rng.randint(1, 3))
        s2 = Surface(rng.randint(0, 2), s1.outputs, rng.randint(1, 3))
        if s1.genus >= 1 or s2.genus >= 1:
            glued = sew(s1, s2)
            assert vanishing_certificate(glued) is VanishingReason.GENUS_AT_LEAST_ONE


# -- string operations ----------------------------------------------------------


def test_pair_of_pants_is_the_product(s4):
    a, v = s4.gen("a"), s4.gen("v")
    out = string_operation(s4, Surface(0, 2, 1), [a, v])
    assert out.as_element() == s4.mul(a, v)


def test_torus_operation_vanishes(s4, cp2):
    for model in (s4, cp2):
        for _, mono, _ in model.basis_window(10):
            out = string_operation(model, Surface(1, 1, 1), [model.mono_elem(mono)])
            assert out == 0


def test_reverse_pants_is_the_coproduct(s2, s4, s6):
    for model in (s2, s4, s6):
        a = model.gen("a")
        out = string_operation(model, Surface(0, 1, 2), [model.unit()])
        assert out == tensor_scale(2, tensor([a, a]))


def test_three_outputs_vanish(s4):
    for _, mono, _ in s4.basis_window(10):
        out = string_operation(s4, Surface(0, 1, 3), [s4.mono_elem(mono)])
        assert out == 0
        assert out.arity == 3


def test_cylinder_is_identity(s4):
    for _, mono, _ in s4.basis_window(10):
        x = s4.mono_elem(mono)
        out = string_operation(s4, Surface(0, 1, 1), [x])
        assert out.as_element() == x


def test_arity_mismatch_rejected(s4):
    with pytest.raises(ValueError, match="arity mismatch"):
        string_operation(s4, Surface(0, 2, 1), [s4.unit()])


def test_input_tensor_of_another_model_rejected(s4, cp2):
    with pytest.raises(ValueError) as exc:
        string_operation(s4, Surface(0, 1, 1), tensor([cp2.unit()]))
    assert str(exc.value) == "input tensor belongs to a different model"


_FOREIGN = "tensor factors belong to different models"
_NO_BOUNDARY = (
    "operations with no incoming boundary are not defined; "
    "pass the unit as an explicit input instead"
)


@pytest.mark.parametrize(
    "s",
    [Surface(1, 2, 1), Surface(0, 2, 3), Surface(0, 2, 1)],
    ids=lambda s: f"g{s.genus}p{s.inputs}q{s.outputs}",
)
def test_input_checks_do_not_depend_on_vanishing(s4, cp2, s):
    """A surface that vanishes a priori (the first two) refuses a bad input
    with the same exception, text and precedence as one that does not:
    no incoming boundary, then the factors, then the arity."""
    u, w = s4.unit(), cp2.unit()
    cases = [
        ([u, w], ModelError, _FOREIGN),
        ([w, u], ModelError, _FOREIGN),
        ([u, 3], ModelError, _FOREIGN),
        ([u, w, u], ModelError, _FOREIGN),
        ([], ValueError, "tensor needs at least one factor"),
        ([u], ValueError, "arity mismatch: surface expects 2 inputs, got 1"),
        ([u, u, u], ValueError, "arity mismatch: surface expects 2 inputs, got 3"),
        (tensor([w, w]), ValueError, "input tensor belongs to a different model"),
        (tensor([w]), ValueError, "input tensor belongs to a different model"),
    ]
    for inputs, kind, text in cases:
        with pytest.raises(ValueError) as exc:
            string_operation(s4, s, inputs)
        assert type(exc.value) is kind and str(exc.value) == text, inputs
    for inputs in ([u], [], [u, w], tensor([w])):
        with pytest.raises(ValueError) as exc:
            string_operation(s4, Surface(s.genus, 0, s.outputs), inputs)
        assert type(exc.value) is ValueError and str(exc.value) == _NO_BOUNDARY


@pytest.mark.parametrize(
    "s",
    [Surface(0, 1, 1), Surface(0, 2, 1), Surface(0, 1, 2), Surface(1, 2, 1), Surface(0, 2, 3)],
    ids=lambda s: f"g{s.genus}p{s.inputs}q{s.outputs}",
)
def test_factors_of_another_model_rejected(s4, cp2, s):
    """Factors that all belong to one other model, or that are not
    elements, are refused by both routes: the factors are checked against
    the model of the surface operation, not against the first factor."""
    for inputs in ([cp2.gen("u")] * s.inputs, [3] * s.inputs):
        for route in (string_operation, string_operation_via_pants):
            with pytest.raises(ModelError) as exc:
                route(s4, s, inputs)
            assert str(exc.value) == _FOREIGN


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 3), q=st.integers(1, 2))
def test_reduce_once_matches_reduced_products(data, p, q):
    """The closed form multiplies with ``LoopModel.mul``, which reduces
    after every product; the pants route and ``contract`` reduce once, at
    the end.  The drawn relation coefficients 2, 3, 4 and 6 give moduli
    whose gcds differ.  A drawn model need not satisfy the coproduct laws,
    so for two outputs each route is compared with the split it uses: the
    closed form with split 0, the pants route (merge, then ``psi``) with
    split 1."""
    model = data.draw(models(euler=st.integers(-3, 3)))
    xs = [data.draw(elements(model, window=4, max_terms=4)) for _ in range(p)]
    product = functools.reduce(model.mul, xs)
    closed = tensor([product]) if q == 1 else psi_split(model, [product], 0)
    pants = tensor([product]) if q == 1 else psi_split(model, [product], 1)
    assert string_operation(model, Surface(0, p, q), xs) == closed
    assert string_operation_via_pants(model, Surface(0, p, q), xs) == pants
    for k in range(1, p):
        merged = xs[: k - 1] + [model.mul(xs[k - 1], xs[k])] + xs[k + 1 :]
        assert contract(tensor(xs), k) == tensor(merged)


def test_zero_inputs_rejected(s4):
    with pytest.raises(ValueError, match="incoming"):
        string_operation(s4, Surface(0, 0, 1), tensor([s4.unit()]))


def test_tensor_input_accepted(s4):
    a, v = s4.gen("a"), s4.gen("v")
    direct = string_operation(s4, Surface(0, 2, 1), tensor([a, v]))
    assert direct == string_operation(s4, Surface(0, 2, 1), [a, v])


def multi_term_factors(model, count):
    """``count`` factors of several terms each, cycling through three
    combinations of the unit and the generators."""
    g0, g1, g2 = (model.gen(g.name) for g in model.generators)
    one = model.unit()
    cycle = [one + g0 + 2 * g2, 3 * g1 - g2 + one, 2 * one + g2 - g0]
    return [cycle[i % 3] for i in range(count)]


def test_list_input_is_multiplied_not_expanded(s4, cp2, monkeypatch):
    """A list input never reaches ``tensor`` as its whole p-fold tensor:
    every call gets one factor, and the value is the pants route's."""
    cases = [(m, Surface(0, p, q)) for m in (s4, cp2) for p in (2, 3) for q in (1, 2)]
    expected = [string_operation_via_pants(m, s, multi_term_factors(m, s.inputs)) for m, s in cases]
    widths = []
    monkeypatch.setattr(tqft, "tensor", lambda factors: widths.append(len(factors)) or tensor(factors))
    for (model, s), want in zip(cases, expected):
        assert string_operation(model, s, multi_term_factors(model, s.inputs)) == want
    assert widths and max(widths) == 1


@pytest.mark.parametrize("model_name", ["s4", "cp2"])
@pytest.mark.parametrize(
    "s",
    [Surface(0, 2, 1), Surface(0, 2, 2), Surface(0, 3, 2), Surface(1, 2, 1), Surface(0, 1, 3)],
    ids=lambda s: f"g{s.genus}p{s.inputs}q{s.outputs}",
)
def test_operation_linear_in_tensor_terms(request, model_name, s):
    model = request.getfixturevalue(model_name)
    factors = multi_term_factors(model, s.inputs)
    assert all(len(f.terms) >= 2 for f in factors)
    out = string_operation(model, s, tensor(factors))
    parts = tensor_zero(model, s.outputs)
    for choice in itertools.product(*(f.sorted_terms() for f in factors)):
        coeff = math.prod(c for _, c in choice)
        pure = [model.mono_elem(m) for m, _ in choice]
        parts = parts + coeff * string_operation(model, s, pure)
    assert out == parts


# -- the decomposition route ------------------------------------------------------


def surfaces_upto(gmax, pmax, qmax):
    return [
        Surface(g, p, q)
        for g in range(gmax + 1)
        for p in range(1, pmax + 1)
        for q in range(1, qmax + 1)
    ]


def test_closed_form_matches_pants_route(s4, cp2, toy):
    rng = random.Random(23)
    for model in (s4, cp2, toy):
        monos = [m for _, m, _ in model.basis_window(8)]
        for s in surfaces_upto(2, 3, 3):
            for _ in range(10):
                inputs = [
                    model.mono_elem(rng.choice(monos)) for _ in range(s.inputs)
                ]
                closed = string_operation(model, s, inputs)
                pants = string_operation_via_pants(model, s, inputs)
                assert closed == pants, (model, s, inputs)


def test_functoriality_on_random_pairs(s4, cp2):
    rng = random.Random(41)
    for model in (s4, cp2):
        monos = [m for _, m, _ in model.basis_window(6)]
        for _ in range(60):
            s1 = Surface(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3))
            s2 = Surface(rng.randint(0, 2), s1.outputs, rng.randint(1, 3))
            glued = sew(s1, s2)
            inputs = [model.mono_elem(rng.choice(monos)) for _ in range(s1.inputs)]
            stepwise = string_operation(model, s2, string_operation(model, s1, inputs))
            assert stepwise == string_operation(model, glued, inputs)


def test_degree_shift_of_nonzero_outputs(s4, cp2):
    rng = random.Random(57)
    for model in (s4, cp2):
        d = model.dim
        monos = [m for _, m, _ in model.basis_window(8)]
        for s in surfaces_upto(1, 3, 3):
            for _ in range(8):
                picked = [rng.choice(monos) for _ in range(s.inputs)]
                in_h = sum(model.monomial_degree(m) + d for m in picked)
                out = string_operation(model, s, [model.mono_elem(m) for m in picked])
                for ms in out.terms:
                    out_h = sum(model.monomial_degree(m) + d for m in ms)
                    assert out_h == in_h + s.euler_char * d


def test_surface_is_a_frozen_record():
    s = Surface(0, 2, 1)
    assert repr(s) == "Surface(genus=0, inputs=2, outputs=1)"
    assert str(s) == "(g=0, in=2, out=1)"
    assert s == Surface(genus=0, inputs=2, outputs=1) and hash(s) == hash(Surface(0, 2, 1))
    assert s != (0, 2, 1) and s != Surface(0, 1, 2)
    assert len({Surface(0, 2, 1), Surface(0, 2, 1), Surface(1, 1, 1)}) == 2
    with pytest.raises(AttributeError):
        s.genus = 1
    with pytest.raises(AttributeError):
        s.extra = 1
