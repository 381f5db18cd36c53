"""Surface types, sewing, and the string operation attached to a surface.

Every oriented connected cobordism of genus g with p inputs and q >= 1
outputs acts on tensor powers of the loop homology.  The operation is
evaluated through closed forms: for g >= 1 or q >= 3 it checks its input,
expands nothing and is zero.  Otherwise a list input is multiplied with
``LoopModel.mul`` and never expanded; a tensor input is contracted.  The
product is the value for q = 1, and ``psi_split`` takes it for q = 2.
``string_operation_via_pants`` evaluates the same operation by composing
pair-of-pants pieces instead and exists so the two routes can be compared.
"""

from __future__ import annotations

import enum
import functools
from typing import Sequence, Union

from .algebra import Element, LoopModel, Record, _set_field
from .coalgebra import TensorElement, apply_psi, check_factors, contract, psi_split, tensor, tensor_zero


class VanishingReason(enum.Enum):
    """Why an operation is zero before looking at any input."""

    GENUS_AT_LEAST_ONE = "genus >= 1"
    THREE_OR_MORE_OUTPUTS = "outputs >= 3"
    NOT_A_PRIORI = "not a priori"


class Surface(Record):
    """Topological type of an oriented connected cobordism."""

    __slots__ = ("genus", "inputs", "outputs")

    def __init__(self, genus: int, inputs: int, outputs: int):
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        if inputs < 0:
            raise ValueError(f"inputs must be >= 0, got {inputs}")
        if outputs < 1:
            raise ValueError(f"outputs must be >= 1, got {outputs}")
        _set_field(self, "genus", genus)
        _set_field(self, "inputs", inputs)
        _set_field(self, "outputs", outputs)

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.genus - self.inputs - self.outputs

    def __str__(self) -> str:
        return f"(g={self.genus}, in={self.inputs}, out={self.outputs})"


def sew(s1: Surface, s2: Surface) -> Surface:
    """Glue all outputs of ``s1`` to all inputs of ``s2``."""
    if s1.outputs != s2.inputs:
        raise ValueError(
            f"cannot sew: {s1} has {s1.outputs} outputs but {s2} has {s2.inputs} inputs"
        )
    genus = s1.genus + s2.genus + s1.outputs - 1
    out = Surface(genus, s1.inputs, s2.outputs)
    assert out.euler_char == s1.euler_char + s2.euler_char
    return out


def vanishing_certificate(s: Surface) -> VanishingReason:
    if s.genus >= 1:
        return VanishingReason.GENUS_AT_LEAST_ONE
    if s.outputs >= 3:
        return VanishingReason.THREE_OR_MORE_OUTPUTS
    return VanishingReason.NOT_A_PRIORI


InputLike = Union[TensorElement, Sequence[Element]]


def _checked_input(model: LoopModel, s: Surface, inputs: InputLike) -> InputLike:
    """``inputs`` after the checks every surface makes, not yet expanded."""
    if s.inputs == 0:
        raise ValueError(
            "operations with no incoming boundary are not defined; "
            "pass the unit as an explicit input instead"
        )
    if isinstance(inputs, TensorElement):
        if inputs.model is not model:
            raise ValueError("input tensor belongs to a different model")
        arity = inputs.arity
    else:
        inputs = list(inputs)
        check_factors(model, inputs)
        arity = len(inputs)
    if arity != s.inputs:
        raise ValueError(f"arity mismatch: surface expects {s.inputs} inputs, got {arity}")
    return inputs


def string_operation(model: LoopModel, s: Surface, inputs: InputLike) -> TensorElement:
    """Evaluate the operation of ``s`` on an arity-p input, by closed form."""
    inputs = _checked_input(model, s, inputs)
    if vanishing_certificate(s) is not VanishingReason.NOT_A_PRIORI:
        return tensor_zero(model, s.outputs)
    if isinstance(inputs, TensorElement):
        for _ in range(s.inputs - 1):
            inputs = contract(inputs, 1)
        inputs = [inputs.as_element()]
    if s.outputs == 1:
        return tensor([functools.reduce(model.mul, inputs)])
    return psi_split(model, inputs, 0)


def string_operation_via_pants(model: LoopModel, s: Surface, inputs: InputLike) -> TensorElement:
    """Evaluate the same operation through its pair-of-pants decomposition:
    merge the inputs, run each handle as coproduct-then-product, then split
    off the outputs."""
    t = _checked_input(model, s, inputs)
    t = t if isinstance(t, TensorElement) else tensor(t)
    for _ in range(s.inputs - 1):
        t = contract(t, 1)
    for _ in range(s.genus):
        t = contract(apply_psi(t, 1), 1)
    for _ in range(s.outputs - 1):
        t = apply_psi(t, 1)
    return t
