"""Expression language for the calculator.

Grammar, loosest binding first:

    tensor   :=  sum ( "(x)" sum )*          flat; arity = factor count
    sum      :=  ["+"|"-"] product ( ("+"|"-") product )*
    product  :=  power ( "*" power )*
    power    :=  atom [ "^" INT ]
    atom     :=  INT | NAME | "(" tensor ")"
              |  "psi" "(" tensor ")"
              |  "delta" "(" tensor ")"
              |  "bracket" "(" tensor "," tensor ")"
              |  "mu" "(" INT "," INT "," INT ";" tensor ("," tensor)* ")"

The three-character sequence ``(x)`` is always the tensor constructor; to
parenthesize a generator that happens to be named ``x`` write ``( x )``.
``psi``, ``delta``, ``bracket`` and ``mu`` are reserved.  The literal
``1`` doubles as the unit of the algebra: bare integers evaluate to
integer multiples of the unit.
"""

from __future__ import annotations

from typing import Union

from . import algebra
from .algebra import RESERVED_NAMES, Element, LoopModel, Record, coeff_bits, parse_int
from .coalgebra import TensorElement, psi, tensor
from .tqft import Surface, string_operation


class ExprError(ValueError):
    """Syntax or resolution error, with a 1-based column."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


class EvalError(ValueError):
    """The expression parsed but cannot be evaluated in this model."""


# -- AST ---------------------------------------------------------------------


class Lit(Record):
    __slots__ = ("value",)


class Name(Record):
    __slots__ = ("ident",)


class Neg(Record):
    __slots__ = ("operand",)


class BinOp(Record):
    """``left op right``, where ``op`` is ``"+"``, ``"-"`` or ``"*"``."""

    __slots__ = ("op", "left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")


class Call(Record):
    """``func(*args)``, where ``func`` is ``"psi"``, ``"delta"`` or ``"bracket"``."""

    __slots__ = ("func", "args")


class MuCall(Record):
    __slots__ = ("genus", "inputs", "outputs", "args")


class TensorExpr(Record):
    __slots__ = ("factors",)


ExprAst = Union[Lit, Name, Neg, BinOp, Pow, Call, MuCall, TensorExpr]


# -- tokenizer ----------------------------------------------------------------

_OP_CHARS = "+-*^(),;"


def _tokenize(text: str) -> list[tuple[str, int]]:
    """``(text, offset)`` pairs ending in ``("", len(text))``.  A token is
    ``(x)``, a run of decimal digits, a name, or one of ``_OP_CHARS``."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        j = i + 1
        if text.startswith("(x)", i):
            j = i + 3
        elif c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif "\udc80" <= c <= "\udcff":  # a byte decoded with surrogateescape
            raise ExprError(f"byte 0x{ord(c) - 0xDC00:02x} is not UTF-8", i + 1)
        elif c not in _OP_CHARS:
            raise ExprError(f"unexpected character {c!r}", i + 1)
        tokens.append((text[i:j], i))
        i = j
    tokens.append(("", n))
    return tokens


# -- parser --------------------------------------------------------------------


#: Most parentheses and calls an expression may nest.  Parsing and
#: evaluating recurse once per level, so this keeps both well inside
#: Python's recursion limit; deeper input is refused at the column of the
#: token that opens level ``MAX_NESTING + 1``.
MAX_NESTING = 150


class _Parser:
    """Recursive descent over token text: ``(x)`` is the tensor sign, text
    starting with a digit an integer, with a letter or ``_`` a name, and
    anything else one operator character; ``""`` is the end."""

    def __init__(self, tokens: list[tuple[str, int]], names: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.depth = 0  # parentheses and calls open at the current token

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def at(self, *texts: str) -> bool:
        # a tuple, not a string: "" is in every string
        return self.tokens[self.pos][0] in texts

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def fail(self, message: str):
        raise ExprError(message, self.tokens[self.pos][1] + 1)

    def expect(self, text: str) -> int:
        """Consume ``text``; its 1-based column."""
        if not self.at(text):
            self.fail(f"expected '{text}'")
        self.pos += 1
        return self.tokens[self.pos - 1][1] + 1

    def parse(self) -> ExprAst:
        ast = self.tensor()
        if self.peek():
            self.fail(f"unexpected trailing input '{self.peek()}'")
        return ast

    def tensor(self) -> ExprAst:
        factors = [self.sum()]
        while self.at("(x)"):
            self.next()
            factors.append(self.sum())
        return factors[0] if len(factors) == 1 else TensorExpr(tuple(factors))

    def sum(self) -> ExprAst:
        sign = self.next() if self.at("+", "-") else "+"
        node = self.product()
        if sign == "-":
            node = Neg(node)
        while self.at("+", "-"):
            op = self.next()
            node = BinOp(op, node, self.product())
        return node

    def product(self) -> ExprAst:
        node = self.power()
        while self.at("*"):
            self.next()
            node = BinOp("*", node, self.power())
        return node

    def int_literal(self, message: str = "expected an integer") -> int:
        text = self.peek()
        if not text[:1].isdecimal():
            self.fail(message)
        try:
            value = parse_int(text)
        except ValueError as exc:
            self.fail(str(exc))
        self.pos += 1
        return value

    def power(self) -> ExprAst:
        """An atom and its optional exponent, in one frame, so that each
        level of nesting costs the stack as little as it can."""
        text = self.peek()
        if text[:1].isdecimal():
            node = Lit(self.int_literal())
        elif text == "(" or text in RESERVED_NAMES:
            if self.depth == MAX_NESTING:
                self.fail(f"more than {MAX_NESTING} nested parentheses and calls")
            self.depth += 1
            if text == "(":
                self.next()
                node = self.tensor()
                self.expect(")")
            else:
                node = self.call()
            self.depth -= 1
        elif text[:1].isalpha() or text[:1] == "_":
            if text not in self.names:
                self.fail(f"unknown generator '{text}'")
            node = Name(self.next())
        else:
            self.fail(f"expected a value, got '{text or 'end of input'}'")
        if self.at("^"):
            self.next()
            node = Pow(node, self.int_literal("exponent must be a non-negative integer literal"))
        return node

    def call(self) -> ExprAst:
        func = self.next()
        self.expect("(")
        if func == "mu":
            genus = self.int_literal()
            self.expect(",")
            inputs = self.int_literal()
            self.expect(",")
            outputs = self.int_literal()
            self.expect(";")
        # only mu may take no arguments
        args = [] if func == "mu" and self.at(")") else [self.tensor()]
        while self.at(","):
            self.next()
            args.append(self.tensor())
        close = self.expect(")")
        if func == "mu":
            if len(args) != inputs:
                raise ExprError(f"mu declared {inputs} inputs but got {len(args)} arguments", close)
            return MuCall(genus, inputs, outputs, tuple(args))
        want = 2 if func == "bracket" else 1
        if len(args) != want:
            raise ExprError(
                f"{func} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}", close
            )
        return Call(func, tuple(args))


def parse_expr(text: str, model: LoopModel) -> ExprAst:
    """Parse an expression, resolving identifiers against the model's
    generators."""
    return _Parser(_tokenize(text), {g.name for g in model.generators}).parse()


# -- evaluation -----------------------------------------------------------------

Value = Union[int, Element, TensorElement]


def _lift(model: LoopModel, v: Value) -> Element | TensorElement:
    """An integer as that multiple of the unit; other values unchanged."""
    return v * model.unit() if isinstance(v, int) else v


def _as_element(model: LoopModel, v: Value, what: str) -> Element:
    if isinstance(v, TensorElement):
        raise EvalError(f"{what} must be a scalar element, got an arity-{v.arity} tensor")
    return _lift(model, v)


def _eval_add(left: Value, right: Value, op: str) -> Value:
    if isinstance(left, TensorElement) != isinstance(right, TensorElement):
        raise EvalError("cannot add a tensor and a scalar element")
    if isinstance(left, TensorElement) and left.arity != right.arity:
        raise EvalError(f"cannot add tensors of arity {left.arity} and {right.arity}")
    return left + right if op == "+" else left - right


def _check_bits(what: str, values) -> None:
    """Refuse an operation whose operands' coefficient bits add up past
    ``algebra.MAX_COEFF_BITS``, before it multiplies them."""
    bits, limit = sum(map(coeff_bits, values)), algebra.MAX_COEFF_BITS
    if bits > limit:
        raise EvalError(f"{what} may take coefficients of {bits} bits, more than the limit of {limit}")


def _check_pairs(what: str, left: Value, right: Value) -> None:
    """Refuse a product of two elements past ``algebra.MAX_POWER_PAIRS``
    term pairs, before it multiplies them."""
    if isinstance(left, Element) and isinstance(right, Element):
        pairs, limit = len(left.terms) * len(right.terms), algebra.MAX_POWER_PAIRS
        if pairs > limit:
            raise EvalError(f"{what} takes {pairs} term pairs, more than the limit of {limit}")


def _eval_mul(left: Value, right: Value) -> Value:
    if (isinstance(left, TensorElement) and not isinstance(right, int)) or (
        isinstance(right, TensorElement) and not isinstance(left, int)
    ):
        raise EvalError("cannot multiply by an arity >= 2 tensor")
    _check_bits("product", (left, right))
    _check_pairs("product", left, right)
    return left * right


def _eval(model: LoopModel, ast: ExprAst, allow_calls: bool) -> Value:
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Name):
        return model.gen(ast.ident)
    if isinstance(ast, Neg):
        return -_eval(model, ast.operand, allow_calls)
    if isinstance(ast, BinOp):
        # fold the left-deep chain a op b op c ... in a loop, left to right,
        # so a long flat sum or product does not grow the stack
        chain = []
        while isinstance(ast, BinOp):
            chain.append(ast)
            ast = ast.left
        value = _eval(model, ast, allow_calls)
        for node in reversed(chain):
            right = _eval(model, node.right, allow_calls)
            if node.op == "*":
                value = _eval_mul(value, right)
            else:
                value = _eval_add(value, right, node.op)
        return value
    if isinstance(ast, Pow):
        base = _eval(model, ast.base, allow_calls)
        if isinstance(base, TensorElement):
            base = _as_element(model, base, "power base")
        elif isinstance(base, int) and abs(base) > 1:
            bits, limit = ast.exponent * abs(base).bit_length(), algebra.MAX_COEFF_BITS
            if bits > limit:
                raise EvalError(f"integer power may take {bits} bits, more than the limit of {limit}")
        return base**ast.exponent
    if isinstance(ast, TensorExpr):
        if not allow_calls:
            raise EvalError("tensor values are not allowed here")
        factors = [
            _as_element(model, _eval(model, f, allow_calls), "tensor factor")
            for f in ast.factors
        ]
        _check_bits("tensor", factors)
        return tensor(factors)
    if isinstance(ast, Call):
        if not allow_calls:
            raise EvalError(f"{ast.func}(...) is not allowed here")
        args = [
            _as_element(model, _eval(model, a, allow_calls), f"argument of {ast.func}")
            for a in ast.args
        ]
        if ast.func == "psi":
            return psi(model, args[0])
        if ast.func == "delta":
            return model.delta(args[0])
        _check_bits("bracket", args)
        _check_pairs("bracket", *args)
        return model.bracket(*args)
    if isinstance(ast, MuCall):
        if not allow_calls:
            raise EvalError("mu(...) is not allowed here")
        try:
            surface = Surface(ast.genus, ast.inputs, ast.outputs)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc
        args = [
            _as_element(model, _eval(model, a, allow_calls), "surface input")
            for a in ast.args
        ]
        _check_bits("mu(...)", args)
        try:
            value = string_operation(model, surface, args)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc
        # a single output is a plain element
        return value.as_element() if value.arity == 1 else value
    raise TypeError(f"unknown AST node {ast!r}")


def evaluate(model: LoopModel, ast: ExprAst) -> Element | TensorElement:
    """Evaluate an AST to a canonical element or tensor."""
    return _lift(model, _eval(model, ast, allow_calls=True))


def evaluate_scalar(model: LoopModel, ast: ExprAst) -> Element:
    """Evaluate an AST restricted to plain ring arithmetic (used for the
    right-hand sides in model files)."""
    return _lift(model, _eval(model, ast, allow_calls=False))


def run_expr(model: LoopModel, text: str) -> Element | TensorElement:
    """Parse and evaluate in one go."""
    return evaluate(model, parse_expr(text, model))
