"""Tensor powers of a model and the loop coproduct.

A :class:`TensorElement` is an integer combination of pure q-fold tensors
of basis monomials.  The coefficient of a pure tensor is canonical modulo
the gcd of the factors' effective moduli (the tensor product of cyclic
modules), which is what makes identities like the split-independence of
the coproduct hold on the nose for torsion classes.

An operator of odd degree picks up a Koszul prefactor when it slides
past earlier tensor factors.  ``contract`` applies the product, of degree
0, and needs none.  ``apply_psi`` needs none either: the coproduct has
degree -d in the homological grading, and odd d forces the Euler
characteristic chi = 0, so psi = 0.  Only ``apply_delta_factorwise``, for
the BV operator of degree 1, applies the prefactor.

Each public call reduces once, at the end: ``tensor``, ``contract``
(which multiplies monomials with ``LoopModel._add_product``) and
``apply_psi`` (which adds ``chi * c * c1 * c2`` for each term ``c`` of
its input, ``c1`` of ``c0*m`` and ``c2`` of ``c0``, in place of the
reduced coefficient of the key of ``psi(m)``) add raw coefficients.
This is exact.  A relation ``k*m' = 0`` dividing a monomial divides its
products, so a product's modulus divides its factors' moduli; a pure
tensor's modulus, the gcd over its factors, divides each of theirs (0 is
free, and every integer divides 0).  So the modulus N of a final key
divides the modulus M of all it came from, and ``(c mod M) mod N = c mod
N``.  As N != 1 on a surviving key, M != 1 on each of its monomials,
where coefficient 1 is canonical.  The same holds with N = M: the tensor
of one element, by 1, keeps that element's terms, as a monomial's
modulus is its 1-tensor's.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Sequence

from .algebra import Combination, Element, LoopModel, ModelError, Monomial


class TensorElement(Combination):
    """Integer combination of pure q-fold tensors over one model."""

    __slots__ = ("arity",)

    def __init__(self, model: LoopModel, arity: int, terms: dict[tuple[Monomial, ...], int]):
        self.model, self.arity, self.terms = model, arity, terms

    def _make(self, acc: dict[tuple[Monomial, ...], int]) -> "TensorElement":
        return _from_raw(self.model, self.arity, acc)

    def _format_term(self, c_abs: int, ms: tuple[Monomial, ...]) -> str:
        body = "(" + " (x) ".join(self.model.format_monomial(m) for m in ms) + ")"
        return body if c_abs == 1 else f"{c_abs}*{body}"

    def as_element(self) -> Element:
        """Convert an arity-1 tensor back to a plain element; its terms are
        already reduced modulo each monomial's modulus."""
        if self.arity != 1:
            raise ValueError(f"cannot convert arity-{self.arity} tensor to an element")
        return Element(self.model, {ms[0]: c for ms, c in self.terms.items()})


def tensor_zero(model: LoopModel, arity: int) -> TensorElement:
    if arity < 1:
        raise ValueError("tensor arity must be at least 1")
    return TensorElement(model, arity, {})


def _from_raw(model: LoopModel, arity: int, acc: dict[tuple[Monomial, ...], int]) -> TensorElement:
    """The tensor of a raw key dict, each coefficient reduced once."""
    moduli = model.moduli
    terms: dict[tuple[Monomial, ...], int] = {}
    for ms, c in acc.items():
        mod = 0
        for m in ms:
            mod = gcd(mod, moduli[m])
        if mod:
            c %= mod
        if c:
            terms[ms] = c
    return TensorElement(model, arity, terms)


def check_factors(model: LoopModel, factors: Sequence[Element]) -> None:
    """Refuse no factors, or a factor that is not an element of ``model``."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    for f in factors:
        if not isinstance(f, Element) or f.model is not model:
            raise ModelError("tensor factors belong to different models")


def tensor(factors: Sequence[Element]) -> TensorElement:
    """Pure tensor of elements, expanded multilinearly into monomial terms."""
    model = factors[0].model if factors and isinstance(factors[0], Element) else None
    check_factors(model, factors)
    return _expand(model, factors, 1)


#: The most terms a tensor may expand into; ``_expand`` checks before building.
MAX_TENSOR_TERMS = 10**6


def _check_size(size: int) -> None:
    """Refuse a tensor of more than ``MAX_TENSOR_TERMS`` terms."""
    if size > MAX_TENSOR_TERMS:
        raise ValueError(f"tensor of {size} terms exceeds the limit of {MAX_TENSOR_TERMS}")


def _expand(model: LoopModel, factors: Sequence[Element], k: int) -> TensorElement:
    """``k`` times the pure tensor of ``factors``; its keys are distinct."""
    _check_size(prod(len(f.terms) for f in factors))
    if k == 1 and len(factors) == 1:
        # a monomial's modulus is its 1-tensor's: the terms stay canonical
        return TensorElement(model, 1, {(m,): c for m, c in factors[0].terms.items()})
    acc: dict[tuple[Monomial, ...], int] = {(): k}  # type: ignore[dict-item]
    for f in factors:
        acc = {ms + (m,): c * cf for ms, c in acc.items() for m, cf in f.terms.items()}
    return _from_raw(model, len(factors), acc)


def tensor_add(t1: TensorElement, t2: TensorElement) -> TensorElement:
    return t1 + t2


def tensor_scale(k: int, t: TensorElement) -> TensorElement:
    return t.scaled(k)


def twist(t: TensorElement) -> TensorElement:
    """Switch the two factors of an arity-2 tensor with the Koszul sign."""
    if t.arity != 2:
        raise ValueError(f"twist needs an arity-2 tensor, got arity {t.arity}")
    deg = t.model.monomial_degree
    swapped = {(m2, m1): -c if deg(m1) * deg(m2) % 2 else c for (m1, m2), c in t.terms.items()}
    return _from_raw(t.model, 2, swapped)


def contract(t: TensorElement, slot: int) -> TensorElement:
    """Multiply factors ``slot`` and ``slot+1`` together (1-indexed).

    No extra sign in the loop-algebra grading; see the module docstring.
    """
    if not 1 <= slot < t.arity:
        raise ValueError(f"slot {slot} out of range for arity {t.arity}")
    add_product = t.model._add_product
    acc: dict[tuple[Monomial, ...], int] = {}
    for ms, c in t.terms.items():
        product: dict[Monomial, int] = {}
        add_product(product, c, ms[slot - 1], {ms[slot]: 1})
        for m, cm in product.items():
            key = ms[: slot - 1] + (m,) + ms[slot + 1 :]
            acc[key] = acc.get(key, 0) + cm
    return _from_raw(t.model, t.arity - 1, acc)


def psi(model: LoopModel, a: Element) -> TensorElement:
    """Loop coproduct: ``chi * (c0 * a) (x) c0``, extended linearly.

    The mirror form ``chi * c0 (x) (c0 * a)`` is equal on any model that
    is consistent with string topology; check mode compares both.
    """
    return psi_split(model, [a], 1)


def psi_mirror(model: LoopModel, a: Element) -> TensorElement:
    """The other closed form of the coproduct, ``chi * c0 (x) (c0 * a)``."""
    return psi_split(model, [a], 0)


def psi_split(model: LoopModel, factors: Sequence[Element], ell: int = 0) -> TensorElement:
    """Coproduct of a product, split after the first ``ell`` factors:

        chi * (c0 * a_1 ... a_ell) (x) (c0 * a_(ell+1) ... a_p)

    Both sides start from ``c0`` and multiply the factors on in order, so
    the unit is never multiplied in.  Every choice of ``ell`` gives the
    same value on a consistent model; that independence is a checked
    property, not an assumption.
    """
    factors = list(factors)
    if not 0 <= ell <= len(factors):
        raise ValueError(f"split point {ell} out of range for {len(factors)} factors")
    left = right = model.c0
    for f in factors[:ell]:
        left = model.mul(left, f)
    for f in factors[ell:]:
        right = model.mul(right, f)
    return _expand(model, [left, right], model.euler)


def apply_psi(t: TensorElement, slot: int) -> TensorElement:
    """Apply the coproduct to one factor, raising the arity by 1: each
    term's factor ``m`` becomes ``chi * (c0*m) (x) c0``, as in :func:`psi`,
    and the sum is reduced once."""
    if not 1 <= slot <= t.arity:
        raise ValueError(f"slot {slot} out of range for arity {t.arity}")
    model = t.model
    c0 = model.c0
    acc: dict[tuple[Monomial, ...], int] = {}
    for ms, c in t.terms.items():
        left = model.mul(c0, Element(model, {ms[slot - 1]: 1}))
        _check_size(len(left.terms) * len(c0.terms))
        head, tail, k = ms[: slot - 1], ms[slot:], model.euler * c
        for p1, c1 in left.terms.items():
            for p2, c2 in c0.terms.items():
                key = head + (p1, p2) + tail
                acc[key] = acc.get(key, 0) + k * c1 * c2
    return _from_raw(model, t.arity + 1, acc)


def apply_delta_factorwise(t: TensorElement) -> TensorElement:
    """Sum of the BV operator over the factors, with the Koszul sign of
    sliding a degree-1 operator past the preceding factors."""
    model = t.model
    acc: dict[tuple[Monomial, ...], int] = {}
    for ms, c in t.terms.items():
        for slot, m in enumerate(ms):
            head, tail = ms[:slot], ms[slot + 1 :]
            for dm, dc in model.delta(Element(model, {m: 1})).terms.items():
                key = head + (dm,) + tail
                acc[key] = acc.get(key, 0) + c * dc
            if model.monomial_degree(m) % 2:  # the operator has slid past m
                c = -c
    return _from_raw(model, t.arity, acc)
