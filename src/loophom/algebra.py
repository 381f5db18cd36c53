"""Finitely presented graded-commutative algebra engine over the integers.

A :class:`LoopModel` presents the loop-homology ring of a closed oriented
d-manifold: named generators with integer degrees, monomial torsion
relations ``k*m = 0``, and the distinguished data (dimension, Euler
characteristic, constant-loop class, optional BV operator and bracket
values on generators) consumed by the coproduct and surface operations
built on top.

Degrees are loop-algebra degrees throughout: the homological grading is
shifted down by d, so the product has degree 0, the unit sits in degree 0
and the constant-loop class in degree -d.  ``LoopModel.h_degree`` converts
back to plain homological degree.

Normal forms: the *effective modulus* of a monomial is the gcd of the
coefficients k over all relations ``k*m' = 0`` whose monomial divides it
(gcd over the empty set is 0, a free coefficient).  Coefficients are
stored reduced into ``{0, ..., modulus-1}`` when the modulus is positive,
so modulus 1 kills a monomial outright.  Odd-degree generators square to
zero; the implicit relations are appended when the model is built.

Monomials are plain exponent tuples in generator declaration order
(``Monomial`` is ``tuple``), so hashing, equality and ordering run in C
and monomials serve directly as dict keys.  Element terms are always in
normal form, hence every odd generator appears with exponent 0 or 1.
Each linear map (sum, bracket, BV operator) adds its pieces into one raw
dict and reduces it once.

Product signs: every monomial product (``mul``, ``contract`` and the
closed forms below) goes through ``LoopModel._add_product``, whose one
scan of the odd generators finds the Koszul sign.

Bracket and BV operator in closed form: the bracket is a biderivation and
the BV operator ``D`` is second order, so both follow from ``B_kl =
{g_k, g_l}`` and ``D_k = D(g_k)``.  With ``|x|`` the degree, ``e_k``
(``f_l``) the exponent of ``g_k`` in ``m`` (of ``g_l`` in ``y``), ``m_<k``
and ``m_>k`` the parts of ``m`` on the generators before and after
``g_k``, ``m/g_k`` the monomial ``m`` with ``e_k`` lowered by one, and
every product the loop product::

    {g_k, y} = sum_l f_l (-1)^((|g_k|+1)|y_<l| + (|g_k|+|g_l|+1)|y_>l|) (y/g_l) B_kl
    {m, y}   = sum_k e_k (-1)^(|g_k| |m_>k|) (m/g_k) {g_k, y}
    D(m)     = sum_k (-1)^|m_<k| [ e_k (-1)^((|g_k|+1)|m_>k|) (m/g_k) D_k
               + (-1)^|g_k| ( e_k (m_<k g_k^(e_k-1)) {g_k, m_>k}
                              + C(e_k,2) (-1)^|m_>k| (m/g_k^2) B_kk ) ]

These unroll the one-letter Leibniz rule over the letters of ``m`` in
declaration order (the ``e_k`` letters of an even generator give equal
terms; an odd generator has exponent at most 1), so the work does not
grow with the exponents.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from math import gcd
from operator import add, attrgetter, le
from typing import Callable, Iterable, Sequence, Union

#: ``degree_of`` result for the zero element.
ZERO = "zero"
#: ``degree_of`` result for an element with terms in several degrees.
INHOMOGENEOUS = "inhomogeneous"

#: Identifiers reserved by the expression language.
RESERVED_NAMES = frozenset({"psi", "delta", "bracket", "mu"})

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")

#: The most steps one basis enumeration may take (see ``_basis_between``).
MAX_BASIS_STEPS = 10**6

#: Most bits a coefficient may take: an integer power ``n^k``, a product, a
#: tensor or a ``mu(...)`` in an expression, or a product of an element
#: power whose coefficients may reach more is refused before it is computed.
MAX_COEFF_BITS = 2**20

#: Most term pairs one product of an element power may multiply.
MAX_POWER_PAIRS = 10**6


def coeff_bits(value) -> int:
    """The bit length of an integer, or of a combination's largest
    coefficient."""
    if isinstance(value, int):
        return abs(value).bit_length()
    return max(map(abs, value.terms.values()), default=0).bit_length()


def parse_int(text: str) -> int:
    """``int(text)`` of decimal digits, with a leading ``-`` where the
    caller's grammar allows one.  More digits than Python converts (4,300
    by default) is a ValueError that counts them, in no words of Python's;
    the caller adds its column, line or name."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer literal of {len(text.lstrip('-'))} digits is too long") from None


class ModelError(ValueError):
    """A presentation, or an operation on one, violates a constraint.

    ``problems`` is a list of ``(where, message)`` pairs; ``where`` is a
    tag such as ``("generator", "a")``, ``("relation", 2)``, ``("c0",)``
    or ``("model",)`` so that file-based frontends can attach locations.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [(("model",), problems)]
        self.problems = list(problems)
        super().__init__("; ".join(msg for _, msg in self.problems))


#: Sets a record's field, past the record's ``__setattr__``.
_set_field = object.__setattr__


class Record:
    """Base of the package's plain value classes, declared by ``__slots__``
    (the fields, in order) and ``_defaults`` (the values of the last ones).
    A subclass whose body defines no ``__init__`` gets one compiled for it
    that takes the fields in order, by position or keyword; a hand-written
    one sets the fields with ``_set_field``.  Instances are immutable:
    assigning or deleting any attribute raises ``AttributeError``.  They
    compare equal only to instances of the same class with equal fields,
    hash by their field values and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__slots__
        # ``cls._values(record)``: the field values in one C call, as a
        # tuple, or the value itself for a lone field
        cls._values = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            # one ``_set_field`` call per field, compiled, so the
            # constructor runs what a hand-written one would
            body = "".join(f"\n    _set_field(self, {f!r}, {f})" for f in fields)
            namespace = {"_set_field": _set_field}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            init = cls.__init__ = namespace["__init__"]
            init.__defaults__ = cls._defaults
            init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GeneratorSpec(Record):
    """A named generator with its loop-algebra degree.

    ``geometric`` flags classes coming from the homology of the manifold
    itself (via the constant-loop map); it is consulted only by the
    bracket-related consistency checks.
    """

    __slots__ = ("name", "degree", "geometric")
    _defaults = (False,)

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


#: A monomial: its exponent tuple over a model's generators, in declaration order.
Monomial = tuple


class Relation(Record):
    """The relation ``coeff * monomial = 0`` with ``coeff >= 1``."""

    __slots__ = ("coeff", "monomial")


MonomialLike = Union[Mapping[str, int], Sequence[int]]
RawTerms = Union[
    "Element",
    int,
    Mapping[str, int],
    Iterable[tuple[int, MonomialLike]],
    Callable[["LoopModel"], "Element"],
]


class Combination:
    """An integer combination of keys over one model: the term core shared
    by :class:`Element` (keys are monomials) and ``TensorElement`` (keys
    are tuples of monomials, one per tensor factor).

    ``terms`` maps each key to a nonzero coefficient reduced into the
    canonical range of the key's modulus, so instances are canonical;
    they are also immutable.  Two combinations are equal iff they have
    the same type, model, arity and terms; comparing with the integer 0
    tests for zero.  Keys are exponent tuples (or tuples of them), and
    their natural order fixes the printing order.

    A subclass supplies ``_make`` (reduce a raw key-to-coefficient dict
    to a canonical combination of its own type and arity) and
    ``_format_term`` (the text of one term with a positive coefficient).
    """

    __slots__ = ("model", "terms")
    __hash__ = None

    def __init__(self, model: "LoopModel", terms: dict):
        self.model = model
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple]:
        """``(key, coefficient)`` pairs in printing order."""
        return sorted(self.terms.items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return not self.terms
            return self == other * self.model.unit()
        return (
            self.model is other.model
            and self.terms == other.terms
            and self.arity == other.arity
        )

    def _plus(self, other, sign: int):
        # an integer stands for that multiple of the unit, which only an
        # Element can be added to
        if isinstance(other, int):
            other = other * self.model.unit()
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.model is not self.model:
            raise ModelError("elements belong to different models")
        if other.arity != self.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return self._sum(((1, self), (sign, other)))

    def _sum(self, pieces):
        """The sum of ``k * piece`` over ``(k, piece)`` pairs, reduced once;
        ``self`` fixes only the type, model and arity of the result."""
        acc: dict = {}
        for k, piece in pieces:
            for key, c in piece.terms.items():
                acc[key] = acc.get(key, 0) + k * c
        return self._make(acc)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def scaled(self, k: int):
        """``k`` times this combination."""
        if not isinstance(k, int):
            raise ModelError(f"scalar must be an integer, got {k!r}")
        if k == 1:  # values are immutable, so one can stand for its copy
            return self
        return self._make({key: k * c for key, c in self.terms.items()})

    def __neg__(self):
        return self.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        out = ""
        for key, c in self.sorted_terms():
            try:
                body = self._format_term(abs(c), key)
            except ValueError:  # the interpreter's limit on integer text
                raise ValueError(
                    f"the coefficient of {self._format_term(1, key)} has more than "
                    f"{sys.get_int_max_str_digits()} digits, too many to print"
                ) from None
            if not out:
                out = "-" + body if c < 0 else body
            else:
                out += f" {'-' if c < 0 else '+'} {body}"
        return out or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Element(Combination):
    """An integer combination of normal-form monomials of one model."""

    __slots__ = ()
    arity = 1

    def _make(self, acc: dict[Monomial, int]) -> "Element":
        return self.model.from_raw(acc)

    def _format_term(self, c_abs: int, m: Monomial) -> str:
        if not any(m):
            return str(c_abs)
        body = self.model.format_monomial(m)
        return body if c_abs == 1 else f"{c_abs}*{body}"

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.model.mul(self, other)
        return Combination.__mul__(self, other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        # square-and-multiply: at most 2*log2(k) + 2 products, each checked
        # against the limits first; a step checks its square before its
        # product, so a power its square refuses runs no product first
        model, base = self.model, self

        def check(x, y):
            pairs = len(x.terms) * len(y.terms)
            if pairs > MAX_POWER_PAIRS:
                raise ValueError(
                    f"element power takes a product of {pairs} term pairs, "
                    f"more than the limit of {MAX_POWER_PAIRS}"
                )
            bits = coeff_bits(x) + coeff_bits(y)
            if bits > MAX_COEFF_BITS:
                raise ValueError(
                    f"element power may take coefficients of {bits} bits, "
                    f"more than the limit of {MAX_COEFF_BITS}"
                )

        out = model.unit()
        while k:
            if k > 1:
                check(base, base)
            if k & 1:
                check(out, base)
                out = model.mul(out, base)
            k >>= 1
            if k:
                base = model.mul(base, base)
        return out


def _sign(exponent: int) -> int:
    """``(-1) ** exponent``."""
    return -1 if exponent & 1 else 1


def _lowered(m: Monomial, k: int, times: int = 1) -> Monomial:
    """``m / g_k^times``: ``m`` with its ``k``-th exponent lowered."""
    return (*m[:k], m[k] - times, *m[k + 1:])


class _Moduli(dict):
    """The effective modulus of each monomial met, filled on lookup: the gcd
    of the coefficients of the relations (odd squares included) dividing it."""

    __slots__ = ("relations",)

    def __init__(self, relations: tuple[Relation, ...]):
        self.relations = relations

    def __missing__(self, m: Monomial) -> int:
        mod = 0
        for rel in self.relations:
            if all(map(le, rel.monomial, m)):
                mod = gcd(mod, rel.coeff)
                if mod == 1:
                    break
        self[m] = mod
        return mod


class LoopModel:
    """Presentation of a loop-homology ring with its string-topology data.

    The constructor checks every input, so every instance is a valid
    model; models are immutable and safe for concurrent read-only use.
    """

    def __init__(
        self,
        dim: int,
        euler: int,
        generators: Sequence,
        relations: Sequence[tuple[int, MonomialLike]] = (),
        c0: RawTerms | None = None,
        delta: Mapping[str, RawTerms] | None = None,
        bracket: Mapping[tuple[str, str], RawTerms] | None = None,
        simply_connected: bool = False,
    ):
        """Build a model, raising :class:`ModelError` that lists every
        problem found.

        ``generators`` are :class:`GeneratorSpec` values or
        ``(name, degree[, geometric])`` tuples; each relation
        ``(k, monomial)`` imposes ``k * monomial = 0``.  ``c0`` is the
        constant-loop class, ``delta`` maps generator names to BV-operator
        values and ``bracket`` maps generator-name pairs to bracket
        values.  Each of these values is an element, an integer, a
        monomial mapping, a list of ``(coefficient, monomial)`` pairs, or
        a callable ``f(model) -> Element`` that builds the value in the
        model being defined.  Each value is read once, where it is
        checked, so callables run in check order: c0, then each bracket
        value, then each delta value.  A ``ValueError`` one raises, like a
        value of none of these forms, is recorded as a problem under that
        value's where-tag.  A value whose entry is refused first (a bad
        bracket key, an unknown generator, delta data without bracket
        data) is never evaluated.

        Problems in the generators, then in the relations, then in the
        nilpotence caps end the check early; the other data are checked
        in full.
        """
        self.dim = dim
        self.euler = euler
        self.simply_connected = bool(simply_connected)
        self.c0: Element | None = None
        self.delta_on_generators: dict[str, Element] | None = None
        self.bracket_on_generators: dict[tuple[str, str], Element] | None = None
        # the nonzero brackets {g_k, g_l} by index pair, both orders, and
        # the nonzero D(g_k) by index
        self._brackets: dict[tuple[int, int], Element] = {}
        self._deltas: dict[int, Element] = {}
        self._set_presentation(generators, relations)
        self._set_data(c0, delta, bracket)

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.generators) or "?"
        return f"<LoopModel dim={self.dim} euler={self.euler} generators=[{names}]>"

    # -- validation ------------------------------------------------------

    def _set_presentation(self, generators: Sequence, relations: Sequence) -> None:
        """Generators, relations and nilpotence caps."""
        problems: list = []
        if not isinstance(self.dim, int) or self.dim < 1:
            problems.append((("model",), f"dim must be a positive integer, got {self.dim!r}"))
        if not isinstance(self.euler, int):
            problems.append((("model",), f"euler must be an integer, got {self.euler!r}"))
        elif isinstance(self.dim, int) and self.dim % 2 == 1 and self.euler != 0:
            problems.append(
                (("model",), f"odd dimension {self.dim} forces euler = 0, got {self.euler}")
            )

        gens: list[GeneratorSpec] = []
        for item in generators:
            if isinstance(item, GeneratorSpec):
                spec = item
            else:
                try:
                    spec = GeneratorSpec(*item)
                except TypeError:
                    problems.append((("generator", repr(item)), f"bad generator spec {item!r}"))
                    continue
            gens.append(spec)
        seen: set[str] = set()
        for spec in gens:
            if not isinstance(spec.name, str) or not _NAME_RE.match(spec.name):
                problems.append(
                    (("generator", str(spec.name)), f"generator name {spec.name!r} is not an identifier")
                )
                continue
            if spec.name in RESERVED_NAMES:
                problems.append(
                    (("generator", spec.name), f"generator name '{spec.name}' is reserved")
                )
            if spec.name in seen:
                problems.append(
                    (("generator", spec.name), f"duplicate generator '{spec.name}'")
                )
            seen.add(spec.name)
            if not isinstance(spec.degree, int):
                problems.append(
                    (("generator", spec.name), f"degree of '{spec.name}' must be an integer")
                )
        if problems:
            raise ModelError(problems)

        self.generators: tuple[GeneratorSpec, ...] = tuple(gens)
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        # descending, for the sign scan of ``_add_product``
        self._odd_idx = tuple(i for i in reversed(range(len(gens))) if gens[i].is_odd)

        rels: list[Relation] = []
        for pos, item in enumerate(relations, 1):
            try:
                coeff, raw = item
            except (TypeError, ValueError):
                problems.append((("relation", pos), f"relation must be (coefficient, monomial), got {item!r}"))
                continue
            if not isinstance(coeff, int) or coeff < 1:
                problems.append(
                    (("relation", pos), f"relation coefficient must be a positive integer, got {coeff!r}")
                )
                continue
            try:
                mono = self.monomial(raw)
            except ModelError as exc:
                problems.append((("relation", pos), str(exc)))
                continue
            rels.append(Relation(coeff, mono))
        if problems:
            raise ModelError(problems)
        self.relations: tuple[Relation, ...] = tuple(rels)

        n = len(gens)
        implicit = (Relation(1, tuple(2 if j == i else 0 for j in range(n))) for i in self._odd_idx)
        self.moduli = _Moduli(self.relations + tuple(implicit))

        caps: list[int | None] = []
        for i, g in enumerate(gens):
            # g^t = 0 from the first exponent t of a relation on a power of
            # g (t = 0 for a relation on 1) at which g^t is dead
            powers = {r.monomial[i] for r in self.moduli.relations if sum(r.monomial) == r.monomial[i]}
            cap = None
            for t in sorted(powers):
                if self.moduli[(0,) * i + (t,) + (0,) * (n - i - 1)] == 1:
                    cap = max(t - 1, 0)
                    break
            if cap is None and g.degree <= 0:
                problems.append(
                    (
                        ("generator", g.name),
                        f"generator '{g.name}' of degree {g.degree} is not nilpotent; "
                        "graded pieces would be infinite-dimensional",
                    )
                )
            caps.append(cap)
        if problems:
            raise ModelError(problems)
        self._caps = tuple(caps)
        # elements are immutable, so ``gen`` hands out one per generator
        self._gens = {g.name: self.mono_elem({g.name: 1}) for g in gens}

    def _set_data(self, c0, delta, bracket) -> None:
        """The constant-loop class, bracket and BV-operator values."""
        problems: list = []
        if c0 is None:
            problems.append((("c0",), "c0 required"))
        else:
            self.c0 = self._checked(
                c0, ("c0",), "constant-loop class", -self.dim, problems, zero_ok=False
            )

        if bracket is not None:
            table: dict[tuple[str, str], Element] = {}
            for key, raw in bracket.items():
                try:
                    g1, g2 = key
                except (TypeError, ValueError):
                    problems.append((("bracket", str(key)), f"bad bracket key {key!r}"))
                    continue
                bad = False
                for name in (g1, g2):
                    if name not in self._index:
                        problems.append((("bracket", g1, g2), f"unknown generator '{name}'"))
                        bad = True
                if bad:
                    continue
                want = self._degrees[self._index[g1]] + self._degrees[self._index[g2]] + 1
                value = self._checked(raw, ("bracket", g1, g2), f"bracket [{g1},{g2}]", want, problems)
                if value is not None:
                    table[(g1, g2)] = value
            for (g1, g2), val in sorted(table.items()):
                i, j = self._index[g1], self._index[g2]
                # {x, y} = -(-1)^((deg x + 1)(deg y + 1)) {y, x}; an even
                # self-bracket is its own flip
                flipped = val if (self._degrees[i] + 1) * (self._degrees[j] + 1) % 2 else -val
                if i == j and self._degrees[i] % 2 == 1:
                    # g*g = 0 makes {g, g} 2-torsion; with BV data it is
                    # D(g)*g - g*D(g) - D(g*g) = 0, as D(g) is even
                    if 2 * val:
                        problems.append(
                            (
                                ("bracket", g1, g2),
                                f"self-bracket of odd generator '{g1}' must be 2-torsion",
                            )
                        )
                    elif val and delta is not None:
                        msg = f"self-bracket of odd generator '{g1}' must vanish with BV data, got {val}"
                        problems.append((("bracket", g1, g2), msg))
                elif (g2, g1) in table and table[(g2, g1)] != flipped:
                    problems.append(
                        (
                            ("bracket", g1, g2),
                            f"bracket [{g1},{g2}] conflicts with bracket [{g2},{g1}] under antisymmetry",
                        )
                    )
                if val:
                    self._brackets[(i, j)] = val
                    self._brackets.setdefault((j, i), flipped)
            self.bracket_on_generators = table

        if delta is not None:
            if bracket is None:
                problems.append((("delta",), "delta data requires bracket data"))
            else:
                dtable: dict[str, Element] = {}
                for name, raw in delta.items():
                    if name not in self._index:
                        problems.append((("delta", name), f"unknown generator '{name}'"))
                        continue
                    want = self._degrees[self._index[name]] + 1
                    value = self._checked(raw, ("delta", name), f"delta {name}", want, problems)
                    if value is not None:
                        dtable[name] = value
                self.delta_on_generators = dtable
                self._deltas = {self._index[name]: v for name, v in dtable.items() if v}
                if self.c0 is not None and not problems:
                    dc0 = self.delta(self.c0)
                    if dc0:
                        problems.append(
                            (("delta",), f"delta of the constant-loop class must vanish, got {dc0}")
                        )

        # both operations are defined on the quotient only when they vanish
        # on every relation k*m = 0: k*{g, m} = 0 for each generator g, and
        # k*D(m) = 0; a monomial with an odd generator squared is zero
        if not problems and (self._brackets or self._deltas):
            unit = (0,) * len(self.generators)
            for pos, rel in enumerate(self.relations, 1):
                k, m = rel.coeff, rel.monomial
                if any(m[i] > 1 for i in self._odd_idx):
                    continue
                where, text = ("relation", pos), f"relation {k} * {self.format_monomial(m)}"
                for i, g in enumerate(self.generators):
                    acc: dict[Monomial, int] = {}
                    self._add_gen_bracket(acc, k, unit, i, m)
                    if value := self.from_raw(acc):
                        msg = f"bracket with '{g.name}' does not vanish on {text}: got {value}"
                        problems.append((where, msg))
                if self.delta_on_generators is not None:
                    acc = {}
                    self._add_delta(acc, k, m)
                    if value := self.from_raw(acc):
                        problems.append((where, f"delta does not vanish on {text}: got {value}"))

        if problems:
            raise ModelError(problems)

    def _checked(self, raw, where, what, want, problems, zero_ok=True) -> Element | None:
        """``raw``, called first when it is callable, as an element
        homogeneous of degree ``want`` (or zero, when ``zero_ok``); None
        once a problem, such as a ``ValueError`` raised on the way, is
        recorded under ``where``."""
        try:
            if callable(raw):
                raw = raw(self)
            if isinstance(raw, int):
                value = raw * self.unit()
            elif isinstance(raw, Mapping):
                value = self.mono_elem(raw)
            else:
                value = self.normal_form(raw)
        except ValueError as exc:
            problems.append((where, str(exc)))
            return None
        deg = self.degree_of(value)
        if deg != want and (value or not zero_ok):
            problems.append((where, f"{what} must be homogeneous of degree {want}, got {deg}"))
            return None
        return value

    def _check_same(self, *xs: Element):
        for x in xs:
            if not isinstance(x, Element) or x.model is not self:
                raise ModelError("elements belong to different models")

    # -- monomial and element construction --------------------------------

    def monomial(self, raw: MonomialLike) -> Monomial:
        n = len(self.generators)
        if isinstance(raw, Mapping):
            vec = [0] * n
            for name, e in raw.items():
                if name not in self._index:
                    raise ModelError(f"unknown generator '{name}'")
                vec[self._index[name]] += e
            exps = tuple(vec)
        else:
            try:
                exps = tuple(raw)
            except TypeError:
                raise ModelError(f"monomial must be a mapping or a sequence of exponents, got {raw!r}") from None
            if len(exps) != n:
                raise ModelError(f"monomial has {len(exps)} exponents, expected {n}")
        if any(not isinstance(e, int) or e < 0 for e in exps):
            raise ModelError(f"exponents must be non-negative integers, got {exps}")
        return exps

    def mono_elem(self, raw: MonomialLike) -> Element:
        """The element ``1 * monomial`` in normal form."""
        return self.from_raw({self.monomial(raw): 1})

    def gen(self, name: str) -> Element:
        try:
            return self._gens[name]
        except KeyError:
            raise ModelError(f"unknown generator '{name}'") from None

    def unit(self) -> Element:
        return self.from_raw({(0,) * len(self.generators): 1})

    def zero(self) -> Element:
        return Element(self, {})

    # -- normal forms ------------------------------------------------------

    def modulus(self, m: Monomial) -> int:
        """Effective modulus of a monomial (0 = free, 1 = dead)."""
        return self.moduli[m]

    def from_raw(self, acc: dict[Monomial, int]) -> Element:
        """The element of a raw monomial dict, each coefficient reduced once."""
        moduli = self.moduli
        terms: dict[Monomial, int] = {}
        for m, c in acc.items():
            if mod := moduli[m]:
                c %= mod
            if c:
                terms[m] = c
        return Element(self, terms)

    def normal_form(self, raw: Element | Iterable[tuple[int, MonomialLike]]) -> Element:
        """Canonical element of an element or of a formal integer
        combination given as ``(coefficient, monomial)`` pairs."""
        if isinstance(raw, Element):
            self._check_same(raw)
            return self.from_raw(dict(raw.terms))
        try:
            pairs = [(coeff, mono_raw) for coeff, mono_raw in raw]
        except (TypeError, ValueError):
            raise ModelError(
                f"expected an element or (coefficient, monomial) pairs, got {raw!r}"
            ) from None
        acc: dict[Monomial, int] = {}
        for coeff, mono_raw in pairs:
            if not isinstance(coeff, int):
                raise ModelError(f"coefficient must be an integer, got {coeff!r}")
            m = self.monomial(mono_raw)
            acc[m] = acc.get(m, 0) + coeff
        return self.from_raw(acc)

    # -- module and ring operations ---------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        self._check_same(x, y)
        return x + y

    def scale(self, k: int, x: Element) -> Element:
        self._check_same(x)
        return x.scaled(k)

    def _add_product(self, acc: dict, c: int, m: Monomial, terms: dict) -> None:
        """Add ``c * m * terms`` to the raw sum ``acc``: the one monomial
        product, with its Koszul sign.

        Sorting the letters of ``m`` and a term back into declaration order
        moves each odd letter of the term past the odd letters of ``m`` with
        a larger index, at -1 a swap (even letters commute).  So one scan of
        the odd generators, last declared first, keeps the parity of ``m``'s
        odd letters seen so far: the product dies at an odd generator in
        both factors (it squares), and the sign flips at each odd letter of
        the term while that parity is odd."""
        odd_idx = self._odd_idx
        for m2, c2 in terms.items():
            k = c * c2
            left_odd = False
            for i in odd_idx:
                if m[i]:
                    if m2[i]:
                        break
                    left_odd = not left_odd
                elif left_odd and m2[i]:
                    k = -k
            else:
                p = tuple(map(add, m, m2))
                acc[p] = acc.get(p, 0) + k

    def mul(self, x: Element, y: Element) -> Element:
        """Loop product: ``_add_product`` per term of ``x``, reduced once."""
        if not (
            isinstance(x, Element)
            and x.model is self
            and isinstance(y, Element)
            and y.model is self
        ):
            raise ModelError("elements belong to different models")
        xt, yt = x.terms, y.terms
        if not xt or not yt:
            return Element(self, {})
        acc: dict[Monomial, int] = {}
        for m, c in xt.items():
            self._add_product(acc, c, m, yt)
        return self.from_raw(acc)

    # -- grading ------------------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self._degrees))

    def degree_of(self, x: Element):
        """Loop-algebra degree of ``x``; ``ZERO`` or ``INHOMOGENEOUS`` when
        no single degree applies."""
        self._check_same(x)
        if not x.terms:
            return ZERO
        degrees = {self.monomial_degree(m) for m in x.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return INHOMOGENEOUS

    def h_degree(self, degree: int) -> int:
        """Convert a loop-algebra degree to a homological degree."""
        if not isinstance(degree, int):
            raise TypeError(f"expected an integer degree, got {degree!r}")
        return degree + self.dim

    # -- basis enumeration ---------------------------------------------------

    def enumerate_basis(self, degree: int) -> list[tuple[Monomial, int]]:
        """All surviving monomials of the given degree with their moduli,
        sorted: the interval ``[degree, degree]`` of :meth:`_basis_between`,
        where the last positive exponent is solved directly."""
        return [(m, mod) for _, m, mod in self._basis_between(degree, degree)]

    def basis_window(self, max_abs_degree: int) -> list[tuple[int, Monomial, int]]:
        """All basis monomials with ``|degree| <= max_abs_degree`` as sorted
        ``(degree, monomial, modulus)`` triples: one pass of
        :meth:`_basis_between` over ``[-max_abs_degree, max_abs_degree]``."""
        return self._basis_between(-max_abs_degree, max_abs_degree)

    def _basis_between(self, lo: int, hi: int) -> list[tuple[int, Monomial, int]]:
        """Sorted ``(degree, monomial, modulus)`` for every surviving
        monomial with ``lo <= degree <= hi``.

        One recursion sets the exponents generator by generator: first the
        non-positive generators, each up to its nilpotence cap, then the
        positive ones, each up to its cap and to the degree left below
        ``hi``.  The last positive exponent takes only the values that land
        the degree in ``[lo, hi]``, so the work is one step per choice of
        the other exponents plus one per monomial found.  Each step is
        counted, and a ValueError refuses an enumeration that takes more
        than ``MAX_BASIS_STEPS`` of them."""
        degs, caps, moduli = self._degrees, self._caps, self.moduli
        order = sorted(range(len(degs)), key=lambda i: degs[i] > 0)
        last = len(order) - 1
        vec = [0] * len(degs)
        out: list[tuple[int, Monomial, int]] = []
        steps = 0

        def visit(pos: int, deg: int) -> None:
            nonlocal steps
            steps += 1
            if steps > MAX_BASIS_STEPS:
                raise ValueError(
                    f"basis of degrees {lo} to {hi} takes more than {MAX_BASIS_STEPS} steps to enumerate"
                )
            if pos > last:
                if lo <= deg <= hi:
                    m = tuple(vec)
                    if (mod := moduli[m]) != 1:
                        out.append((deg, m, mod))
                return
            i = order[pos]
            d, first, top = degs[i], 0, caps[i]
            if d > 0:
                room = (hi - deg) // d
                top = room if top is None else min(top, room)
                if pos == last:
                    first = max(0, -((deg - lo) // d))
            for e in range(first, top + 1):
                vec[i] = e
                visit(pos + 1, deg + e * d)

        visit(0, 0)
        out.sort()
        return out

    # -- bracket and BV operator ---------------------------------------------

    def _add_gen_bracket(self, acc: dict, c: int, left: Monomial, k: int, y: Monomial) -> None:
        """Add ``c * left * {g_k, y}`` to ``acc``: one term per generator
        ``g_l`` of ``y`` with a nonzero bracket ``B_kl``."""
        degs, dk = self._degrees, self._degrees[k]
        below, above = 0, self.monomial_degree(y)
        for l, f in enumerate(y):
            if f:
                above -= f * degs[l]
                b = self._brackets.get((k, l))
                if b is not None:
                    sign = _sign((dk + 1) * below + (dk + degs[l] + 1) * above)
                    factor: dict[Monomial, int] = {}
                    self._add_product(factor, c * f * sign, left, {_lowered(y, l): 1})
                    for p, cp in factor.items():
                        self._add_product(acc, cp, p, b.terms)
                below += f * degs[l]

    def _add_bracket(self, acc: dict, c: int, m: Monomial, y: Monomial) -> None:
        """Add ``c * {m, y}`` to ``acc``: one term per generator of ``m``."""
        degs = self._degrees
        above = self.monomial_degree(m)
        for k, e in enumerate(m):
            if e:
                above -= e * degs[k]
                self._add_gen_bracket(acc, c * e * _sign(degs[k] * above), _lowered(m, k), k, y)

    def bracket(self, x: Element, y: Element) -> Element:
        """Loop bracket: the biderivation with the given values on generator
        pairs; raises when the model carries no bracket data."""
        self._check_same(x, y)
        if self.bracket_on_generators is None:
            raise ModelError("model carries no bracket data")
        acc: dict[Monomial, int] = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                self._add_bracket(acc, c1 * c2, m1, m2)
        return self.from_raw(acc)

    def _add_delta(self, acc: dict, c: int, m: Monomial) -> None:
        """Add ``c * D(m)`` to ``acc``: up to three terms per generator of ``m``."""
        degs, n = self._degrees, len(m)
        below, above = 0, self.monomial_degree(m)
        for k, e in enumerate(m):
            if not e:
                continue
            dk = degs[k]
            above -= e * dk
            d = self._deltas.get(k)
            if d is not None:
                self._add_product(acc, c * e * _sign(below + (dk + 1) * above), _lowered(m, k), d.terms)
            head = (*m[:k], e - 1) + (0,) * (n - k - 1)
            tail = (0,) * (k + 1) + m[k + 1:]
            self._add_gen_bracket(acc, c * e * _sign(below + dk), head, k, tail)
            b = self._brackets.get((k, k))
            if e > 1 and b is not None:
                ck = c * (e * (e - 1) // 2) * _sign(below + dk + above)
                self._add_product(acc, ck, _lowered(m, k, 2), b.terms)
            below += e * dk

    def delta(self, x: Element) -> Element:
        """BV operator: degree +1, second order with the bracket as its
        failure to be a derivation; raises when the data is absent."""
        self._check_same(x)
        if self.delta_on_generators is None or self.bracket_on_generators is None:
            raise ModelError("model carries no BV-operator data")
        acc: dict[Monomial, int] = {}
        for m, c in x.terms.items():
            self._add_delta(acc, c, m)
        return self.from_raw(acc)

    # -- printing --------------------------------------------------------------

    def format_monomial(self, m: Monomial) -> str:
        if not any(m):
            return "1"
        parts = []
        for g, e in zip(self.generators, m):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts)


def validate_model(model: LoopModel) -> LoopModel:
    """Return ``model`` unchanged: the constructor has checked it already."""
    return model
