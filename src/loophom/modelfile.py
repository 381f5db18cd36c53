"""Line-oriented model files.

A file is read as UTF-8, whatever the locale.  One statement per line;
``#`` starts a comment; blank lines are ignored; statement order does
not matter (generators are collected first):

    dim = INT                      manifold dimension d        (required)
    euler = INT                    Euler characteristic        (required)
    generator NAME deg = INT [geometric]
    relation INT * MONOMIAL        imposes INT * MONOMIAL = 0
    c0 = EXPR                      constant-loop class         (required)
    flag simply_connected
    delta NAME = EXPR              BV-operator value on a generator
    bracket [NAME,NAME] = EXPR     loop-bracket value on a generator pair

MONOMIAL is a ``*``-joined product of ``NAME`` or ``NAME^INT`` factors,
or the literal ``1``.  EXPR uses the calculator grammar restricted to
generators, integers, ``+ - * ^`` and parentheses.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

from .algebra import GeneratorSpec, LoopModel, ModelError, Record, parse_int
from .builtins import builtin_model
from .expr import evaluate_scalar, parse_expr


class ModelParseError(Exception):
    """One or more problems in a model file.

    ``errors`` is a list of ``(line, message)`` pairs; ``line`` is 1-based
    or None for file-level problems.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            "; ".join(
                f"line {line}: {msg}" if line else msg for line, msg in self.errors
            )
        )


class ModelDoc(Record):
    """A parsed model together with its provenance."""

    __slots__ = ("model", "provenance")
    _defaults = ("<string>",)


_DIM_RE = re.compile(r"^(dim|euler)\s*=\s*(-?\d+)\Z")
_GEN_RE = re.compile(r"^generator\s+(\w+)\s+deg\s*=\s*(-?\d+)(\s+geometric)?\Z")
_REL_RE = re.compile(r"^relation\s+(-?\d+)\s*\*\s*(.+)\Z")
_C0_RE = re.compile(r"^c0\s*=\s*(.+)\Z")
_FLAG_RE = re.compile(r"^flag\s+(\w+)\Z")
_DELTA_RE = re.compile(r"^delta\s+(\w+)\s*=\s*(.+)\Z")
_BRACKET_RE = re.compile(r"^bracket\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.+)\Z")
_FACTOR_RE = re.compile(r"^(\w+)(?:\^(\d+))?\Z")


def _parse_monomial_text(text: str) -> dict[str, int]:
    exps: dict[str, int] = {}
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad monomial factor {factor!r}")
        name, power = m.group(1), m.group(2)
        exps[name] = exps.get(name, 0) + (parse_int(power) if power else 1)
    return exps


def parse_model(text: str, provenance: str = "<string>") -> ModelDoc:
    """Parse a model file, validate it, and return the document.

    Raises :class:`ModelParseError` listing every problem found, each with
    its line number where one applies.
    """
    errors: list[tuple[int | None, str]] = []
    # where-tag -> line of the statement that claimed it: a second claim is
    # a duplicate, and the constructor reports its problems under these tags
    lines: dict[tuple, int] = {}
    dim = euler = c0 = None
    gens: list[GeneratorSpec] = []
    rels: list[tuple[int, dict[str, int]]] = []
    deltas: dict[str, str] = {}
    brackets: dict[tuple[str, str], str] = {}

    def claim(tag: tuple, what: str, first_on: str = "first on") -> bool:
        """Record the current line under ``tag``; False, with the duplicate
        error, if an earlier line has it."""
        first = lines.setdefault(tag, lineno)
        if first != lineno:
            errors.append((lineno, f"duplicate {what} ({first_on} line {first})"))
        return first == lineno

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if m := _DIM_RE.match(line):
                key = m.group(1)
                if claim((key,), f"'{key}'"):
                    if key == "dim":
                        dim = parse_int(m.group(2))
                    else:
                        euler = parse_int(m.group(2))
            elif m := _GEN_RE.match(line):
                name = m.group(1)
                if claim(("generator", name), f"generator '{name}'", "first declared on"):
                    gens.append(GeneratorSpec(name, parse_int(m.group(2)), bool(m.group(3))))
            elif m := _REL_RE.match(line):
                coeff = parse_int(m.group(1))
                if coeff < 1:
                    raise ValueError(f"relation coefficient must be positive, got {coeff}")
                rels.append((coeff, _parse_monomial_text(m.group(2))))
                lines[("relation", len(rels))] = lineno
            elif m := _C0_RE.match(line):
                if claim(("c0",), "'c0'"):
                    c0 = m.group(1)
            elif m := _FLAG_RE.match(line):
                if m.group(1) != "simply_connected":
                    errors.append((lineno, f"unknown flag '{m.group(1)}'"))
                else:
                    claim(("flag",), "flag")
            elif m := _DELTA_RE.match(line):
                name = m.group(1)
                if claim(("delta", name), f"delta for '{name}'"):
                    deltas[name] = m.group(2)
                    lines.setdefault(("delta",), lineno)
            elif m := _BRACKET_RE.match(line):
                g1, g2 = m.group(1), m.group(2)
                if claim(("bracket", g1, g2), f"bracket for [{g1},{g2}]"):
                    brackets[(g1, g2)] = m.group(3)
            else:
                errors.append((lineno, f"unrecognized statement: {line!r}"))
        except ValueError as exc:
            errors.append((lineno, str(exc)))

    # a dim or euler line whose value failed has its error already
    if ("dim",) not in lines:
        errors.append((None, "dim required"))
    if ("euler",) not in lines:
        errors.append((None, "euler required"))
    if c0 is None:
        errors.append((None, "c0 required"))
    if errors and (dim is None or euler is None):
        raise ModelParseError(errors)
    lines[("model",)] = lines[("dim",)]  # whole-model problems go on the dim line

    def rhs(text: str):
        # evaluated by the constructor in the ring being defined
        return lambda model: evaluate_scalar(model, parse_expr(text, model))

    try:
        model = LoopModel(
            dim=dim,
            euler=euler,
            generators=gens,
            relations=rels,
            c0=rhs(c0) if c0 is not None else None,
            delta={name: rhs(text) for name, text in deltas.items()} if deltas else None,
            bracket={key: rhs(text) for key, text in brackets.items()} if brackets else None,
            simply_connected=("flag",) in lines,
        )
    except ModelError as exc:
        reported = set(errors)  # a missing c0 is reported by the line pass too
        for where, msg in exc.problems:
            entry = (lines.get(where), msg)
            if entry not in reported:
                errors.append(entry)
    if errors:
        raise ModelParseError(errors)
    return ModelDoc(model=model, provenance=provenance)


def print_model(model: LoopModel) -> str:
    """Canonical text for a model; parsing it back gives an
    equivalent model whose printout is identical.  An empty BV or bracket
    table prints as one zero entry on the first generator, so that the
    text still carries the table."""
    lines = [f"dim = {model.dim}", f"euler = {model.euler}"]
    for g in model.generators:
        suffix = " geometric" if g.geometric else ""
        lines.append(f"generator {g.name} deg = {g.degree}{suffix}")
    for rel in model.relations:
        lines.append(f"relation {rel.coeff} * {model.format_monomial(rel.monomial)}")
    lines.append(f"c0 = {model.c0}")
    if model.simply_connected:
        lines.append("flag simply_connected")
    first = model.generators[0].name  # c0 has a nonzero degree, so there is one
    deltas = model.delta_on_generators
    if deltas is not None:
        entries = [f"delta {g.name} = {deltas[g.name]}" for g in model.generators if g.name in deltas]
        lines += entries or [f"delta {first} = 0"]
    brackets = model.bracket_on_generators
    if brackets is not None:
        order = {g.name: i for i, g in enumerate(model.generators)}
        entries = [
            f"bracket [{g1},{g2}] = {brackets[(g1, g2)]}"
            for g1, g2 in sorted(brackets, key=lambda k: (order[k[0]], order[k[1]]))
        ]
        lines += entries or [f"bracket [{first},{first}] = 0"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=16)  # parse_model is pure and a model immutable, bar its moduli
def _model_of_text(text: str) -> LoopModel:
    return parse_model(text).model


def load_model(spec: str) -> ModelDoc:
    """Load a built-in model by name or a model file by path.  A file is
    read on every call but parsed once per distinct content: the models of
    the last 16 texts are kept and shared by text; a failure is not kept."""
    try:
        model = builtin_model(spec)
    except ValueError as exc:
        raise ModelParseError([(None, str(exc))]) from exc
    if model is not None:
        return ModelDoc(model=model, provenance=spec)
    path = Path(spec)
    if not path.is_file():
        raise ModelParseError(
            [(None, f"unknown model '{spec}': not a built-in name or a readable file")]
        )
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as parse_model does: split the text before the byte,
        # with "x" standing in for the byte
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ModelParseError([(line, f"byte 0x{data[exc.start]:02x} is not UTF-8")]) from None
    return ModelDoc(model=_model_of_text(text), provenance=str(path))
