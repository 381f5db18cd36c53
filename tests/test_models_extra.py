"""User-defined models beyond the built-ins, and linearity edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    LoopModel,
    Surface,
    psi,
    psi_split,
    run_checks,
    string_operation,
    tensor,
    tensor_add,
    tensor_scale,
    twist,
)

from strategies import elements


@pytest.fixture(scope="module")
def genus2():
    """Exterior algebra on two odd classes with euler = -2, the shape of a
    closed hyperbolic surface."""
    return LoopModel(
        dim=2,
        euler=-2,
        generators=[("e", -1), ("f", -1)],
        c0={"e": 1, "f": 1},
    )


def test_negative_euler_coproduct(genus2):
    ef = genus2.mono_elem({"e": 1, "f": 1})
    assert psi(genus2, genus2.unit()) == tensor_scale(-2, tensor([ef, ef]))


def test_negative_euler_model_passes_checks(genus2):
    report = run_checks(genus2, max_abs_degree=8, seed=0)
    assert report.passed


def test_negative_euler_torsion_identity(genus2):
    for deg, mono, _ in genus2.basis_window(8):
        if deg != 0:
            value = genus2.scale(-2, genus2.mul(genus2.c0, genus2.mono_elem(mono)))
            assert value == 0


def test_psi_extends_linearly_over_mixed_degrees(s4):
    # inhomogeneous input: the formula is applied term by term
    x = s4.add(s4.scale(5, s4.unit()), s4.gen("v"))
    assert psi(s4, x) == tensor_add(
        tensor_scale(5, psi(s4, s4.unit())), psi(s4, s4.gen("v"))
    )


def test_string_operation_on_inhomogeneous_input(genus2):
    e, f = genus2.gen("e"), genus2.gen("f")
    out = string_operation(genus2, Surface(0, 2, 1), [e + f, f])
    assert out.as_element() == genus2.mul(e + f, f)


def test_split_independence_on_user_model(genus2):
    e, f = genus2.gen("e"), genus2.gen("f")
    for factors in ([], [e], [f, e], [e, f, genus2.unit()]):
        ref = psi_split(genus2, factors, 0)
        for ell in range(1, len(factors) + 1):
            assert psi_split(genus2, factors, ell) == ref


# -- tensor laws under random elements ------------------------------------------


@settings(max_examples=50)
@given(data=st.data())
def test_tensor_bilinearity(s4, data):
    x = data.draw(elements(s4))
    y = data.draw(elements(s4))
    z = data.draw(elements(s4))
    assert tensor([x + y, z]) == tensor_add(tensor([x, z]), tensor([y, z]))
    assert tensor([x, y + z]) == tensor_add(tensor([x, y]), tensor([x, z]))


@settings(max_examples=50)
@given(data=st.data(), k=st.integers(-6, 6))
def test_tensor_scale_moves_through_factors(s4, data, k):
    x = data.draw(elements(s4))
    y = data.draw(elements(s4))
    assert tensor([s4.scale(k, x), y]) == tensor_scale(k, tensor([x, y]))
    assert tensor([x, s4.scale(k, y)]) == tensor_scale(k, tensor([x, y]))


@settings(max_examples=50)
@given(data=st.data())
def test_twist_respects_addition(s4, data):
    x = data.draw(elements(s4))
    y = data.draw(elements(s4))
    lhs = twist(tensor_add(tensor([x, y]), tensor([y, x])))
    rhs = tensor_add(twist(tensor([x, y])), twist(tensor([y, x])))
    assert lhs == rhs


@settings(max_examples=50)
@given(data=st.data())
def test_tensor_add_commutative_associative(s4, data):
    ts = [
        tensor([data.draw(elements(s4)), data.draw(elements(s4))]) for _ in range(3)
    ]
    t1, t2, t3 = ts
    assert tensor_add(t1, t2) == tensor_add(t2, t1)
    assert tensor_add(tensor_add(t1, t2), t3) == tensor_add(t1, tensor_add(t2, t3))
