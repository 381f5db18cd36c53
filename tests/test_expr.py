"""Expression grammar: parsing, precedence, evaluation, print round trips."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import (
    Element,
    EvalError,
    ExprError,
    ModelError,
    TensorElement,
    algebra,
    cli,
    evaluate,
    load_model,
    parse_expr,
    psi,
    run_expr,
    tensor,
    tensor_scale,
)
from loophom.expr import BinOp, Call, Lit, MuCall, Name, Pow, TensorExpr

from strategies import elements, models


# -- parsing -----------------------------------------------------------------


def test_parse_call_with_arithmetic(s4):
    ast = parse_expr("psi(a*v + 3*v^2)", s4)
    assert isinstance(ast, Call) and ast.func == "psi"


def test_parse_mu_call(s4):
    ast = parse_expr("mu(1,1,1; a)", s4)
    assert ast == MuCall(1, 1, 1, (Name("a"),))


def test_psi_arity_error(s4):
    with pytest.raises(ExprError, match=r"takes 1 argument, got 2 \(column 8\)"):
        parse_expr("psi(a,b)", s4)


def test_bracket_arity_error(s4):
    with pytest.raises(ExprError, match=r"takes 2 arguments, got 1 \(column 10\)"):
        parse_expr("bracket(a)", s4)


def test_mu_arity_mismatch(s4):
    with pytest.raises(ExprError, match=r"declared 2 inputs but got 1 arguments \(column 12\)"):
        parse_expr("mu(0,2,1; a)", s4)


def test_unknown_generator_rejected(s4):
    with pytest.raises(ExprError, match="unknown generator 'q'"):
        parse_expr("a + q", s4)


def test_syntax_error_reports_column(s4):
    with pytest.raises(ExprError) as exc:
        parse_expr("a + * v", s4)
    assert exc.value.column == 5


def test_precedence_shape(s4):
    # a + v*b^2 parses as a + (v*(b^2))
    ast = parse_expr("a + v*b^2", s4)
    assert ast == BinOp("+", Name("a"), BinOp("*", Name("v"), Pow(Name("b"), 2)))


def test_tensor_is_flat_and_lowest(s4):
    ast = parse_expr("a (x) b (x) 1", s4)
    assert ast == TensorExpr((Name("a"), Name("b"), Lit(1)))
    ast = parse_expr("a + v (x) b", s4)
    assert isinstance(ast, TensorExpr) and len(ast.factors) == 2


def test_parenthesized_tensor_nests(s4):
    ast = parse_expr("(a (x) b) (x) v", s4)
    assert isinstance(ast, TensorExpr)
    assert isinstance(ast.factors[0], TensorExpr)


def test_exponent_must_be_literal(s4):
    with pytest.raises(ExprError, match="exponent"):
        parse_expr("a^v", s4)
    with pytest.raises(ExprError, match="exponent"):
        parse_expr("a^-2", s4)


def test_non_decimal_digits_are_located(s4):
    # '²'.isdigit() holds, but int('²') fails; other decimal digits are integers
    with pytest.raises(ExprError) as exc:
        parse_expr("v^²", s4)
    assert str(exc.value) == "unexpected character '²' (column 3)"
    assert run_expr(s4, "v^\u0663") == s4.gen("v") ** 3


@pytest.mark.parametrize(
    "text, column", [("1" * 5000, 1), ("v^" + "9" * 5000, 3), ("mu(0," + "1" * 5000 + ",1;a)", 6)]
)
def test_over_long_integer_literal_is_located(s4, text, column):
    # more digits than Python converts to an int
    with pytest.raises(ExprError) as exc:
        parse_expr(text, s4)
    assert str(exc.value) == f"integer literal of 5000 digits is too long (column {column})"


def test_eval_exits_two_on_an_over_long_literal(capsys):
    assert cli.main(["eval", "--model", "sphere:4", "1" * 5000]) == 2
    assert capsys.readouterr().err == (
        "loophom: error: integer literal of 5000 digits is too long (column 1)\n"
    )


def test_trailing_garbage_rejected(s4):
    with pytest.raises(ExprError, match="trailing"):
        parse_expr("a v", s4)


def test_unary_minus(s4):
    assert run_expr(s4, "-a") == -s4.gen("a")
    assert run_expr(s4, "-2*v + v") == -s4.gen("v")


# -- evaluation ---------------------------------------------------------------


def test_eval_psi_of_unit_prints(s4):
    value = run_expr(s4, "psi(1)")
    assert isinstance(value, TensorElement)
    assert str(value) == "2*(a (x) a)"


def test_eval_torsion_product_prints_zero(s4):
    assert str(run_expr(s4, "2*a*v")) == "0"


def test_eval_mu_pair_of_pants(cp2):
    value = run_expr(cp2, "mu(0,2,1; c, c)")
    assert isinstance(value, Element)
    assert str(value) == "c^2"


def test_eval_integers_become_unit_multiples(s4):
    value = run_expr(s4, "3")
    assert value == s4.scale(3, s4.unit())
    assert run_expr(s4, "2^3") == s4.scale(8, s4.unit())
    assert run_expr(s4, "v - v") == 0
    assert run_expr(s4, "1 + 1") == s4.scale(2, s4.unit())


def test_eval_scalar_mixed_with_elements(s4):
    assert run_expr(s4, "a + 3") == s4.gen("a") + 3
    assert run_expr(s4, "3*(a + v)") == 3 * (s4.gen("a") + s4.gen("v"))


def test_eval_tensor_constructor(s4):
    value = run_expr(s4, "a (x) a")
    assert value == tensor([s4.gen("a"), s4.gen("a")])
    doubled = run_expr(s4, "(a (x) a) + (a (x) a)")
    assert doubled == tensor_scale(2, value)


def test_eval_tensor_scaling(s4):
    assert run_expr(s4, "2*(a (x) v)") == tensor_scale(2, tensor([s4.gen("a"), s4.gen("v")]))


def test_eval_rejects_tensor_factor_of_tensor(s4):
    with pytest.raises(EvalError, match="scalar element"):
        run_expr(s4, "psi(1) (x) a")


def test_eval_rejects_adding_tensor_to_scalar(s4):
    with pytest.raises(EvalError):
        run_expr(s4, "psi(1) + a")


@pytest.mark.parametrize(
    "text, error",
    [
        ("(a (x) b)^2", "power base must be a scalar element, got an arity-2 tensor"),
        ("(a (x) b) + (a (x) b (x) v)", "cannot add tensors of arity 2 and 3"),
        ("(a (x) b) * v", "cannot multiply by an arity >= 2 tensor"),
        (
            "mu(0,0,1;)",
            "operations with no incoming boundary are not defined; "
            "pass the unit as an explicit input instead",
        ),
    ],
    ids=["tensor-power", "add-arities", "tensor-times-element", "mu-no-inputs"],
)
def test_eval_error_text(s4, text, error):
    with pytest.raises(EvalError) as exc:
        run_expr(s4, text)
    assert str(exc.value) == error


def test_eval_delta_and_bracket_need_data(s4, toy):
    with pytest.raises(ModelError, match="bracket data"):
        run_expr(s4, "bracket(a, v)")
    with pytest.raises(ModelError, match="BV-operator data"):
        run_expr(s4, "delta(a)")
    assert run_expr(toy, "delta(y*z)") == 0
    assert run_expr(toy, "bracket(y, z)") == 0


def test_eval_mu_surface_errors(s4):
    with pytest.raises(EvalError, match="outputs"):
        run_expr(s4, "mu(0,1,0; a)")


def test_arity_one_results_are_elements(s4):
    value = run_expr(s4, "mu(0,1,1; b)")
    assert isinstance(value, Element) and value == s4.gen("b")


def test_reserved_name_without_call(s4):
    with pytest.raises(ExprError, match="expected '\\('"):
        parse_expr("psi + 1", s4)


# -- long and deep input -------------------------------------------------------------


def test_flat_chains_of_any_length_evaluate(s4, capsys):
    text = " + ".join(["a"] * 3000)
    assert str(run_expr(s4, text)) == "3000*a"
    assert str(run_expr(s4, "*".join(["v"] * 3000))) == "v^3000"
    assert cli.main(["eval", "--model", "sphere:4", text]) == 0
    assert capsys.readouterr().out == "3000*a\n"


def test_nesting_up_to_the_limit_evaluates(s4, toy):
    assert str(run_expr(s4, "(" * 150 + "a" + ")" * 150)) == "a"
    assert str(run_expr(toy, "delta(" * 150 + "y" + ")" * 150)) == "0"
    assert str(run_expr(toy, "(bracket(y, " * 75 + "z" + "))" * 75)) == "0"


@pytest.mark.parametrize(
    "model, opening, atom, column",
    [("s4", "(", "a", 151), ("toy", "delta(", "y", 901), ("toy", "(bracket(y, ", "z", 901)],
)
def test_nesting_past_the_limit_is_located(request, model, opening, atom, column):
    model = request.getfixturevalue(model)
    for depth in (151, 300):
        text = opening * depth + atom + ")" * (depth * opening.count("("))
        with pytest.raises(ExprError, match=rf"^more than 150 nested .* \(column {column}\)$"):
            parse_expr(text, model)


@pytest.mark.parametrize(
    "text, bits",
    [("9^999999999", 3999999996), ("3^9999999", 19999998), ("(-2)^524289", 1048578), ("(2^1000000)^2", 2000000)],
)
def test_integer_powers_past_the_bit_limit_are_refused(s4, text, bits):
    # refused before the power is computed: 9^999999999 would run for minutes
    with pytest.raises(EvalError) as exc:
        run_expr(s4, text)
    assert str(exc.value) == f"integer power may take {bits} bits, more than the limit of 1048576"


def test_integer_powers_within_the_bit_limit_evaluate(s4):
    assert run_expr(s4, "(-2)^524288") == (1 << 524288) * s4.unit()
    assert str(run_expr(s4, "3^20000*a*v")) == "a*v"
    for base, value in (("1", 1), ("(-1)", -1), ("(0-1)", -1), ("0", 0)):
        assert run_expr(s4, f"{base}^99999999999") == value
    # an element power is not an integer power
    assert str(run_expr(s4, "v^99999999999")) == "v^99999999999"


_BIG = "(" + " + ".join(f"v^{k}" for k in range(1001)) + ")"
_HUGE_200 = ", ".join(["2^500000"] * 200)


@pytest.mark.parametrize(
    "model, text, error",
    [
        (
            "s4",
            "(3*v)^99999999",
            "element power may take coefficients of 1661954 bits, more than the limit of 1048576",
        ),
        ("s4", f"{_BIG}^2", "element power takes a product of 1002001 term pairs, more than the limit of 1000000"),
        ("s4", f"{_BIG}*{_BIG}", "product takes 1002001 term pairs, more than the limit of 1000000"),
        ("bv_model", f"bracket(a*{_BIG}, {_BIG})", "bracket takes 1002001 term pairs, more than the limit of 1000000"),
        (
            "s4",
            "*".join(["(2^500000)"] * 400) + "*a",
            "product may take coefficients of 1500002 bits, more than the limit of 1048576",
        ),
        (
            "s4",
            "*".join(["(2^500000*v)"] * 200),
            "product may take coefficients of 1500002 bits, more than the limit of 1048576",
        ),
        ("s4", "2^524287*2^524288", "product may take coefficients of 1048577 bits, more than the limit of 1048576"),
        (
            "s4",
            f"mu(0,200,1; {_HUGE_200})",
            "mu(...) may take coefficients of 100000200 bits, more than the limit of 1048576",
        ),
        (
            "s4",
            f"mu(0,200,2; {_HUGE_200})",
            "mu(...) may take coefficients of 100000200 bits, more than the limit of 1048576",
        ),
        (
            "s4",
            f"mu(1,200,1; {_HUGE_200})",
            "mu(...) may take coefficients of 100000200 bits, more than the limit of 1048576",
        ),
        (
            "s4",
            " (x) ".join(["2^500000"] * 200),
            "tensor may take coefficients of 100000200 bits, more than the limit of 1048576",
        ),
        (
            "bv_model",
            "bracket(2^500000*a*v, " * 140 + "v^200" + ")" * 140,
            "bracket may take coefficients of 1500017 bits, more than the limit of 1048576",
        ),
    ],
    ids=[
        "power-bits",
        "power-pairs",
        "product-pairs",
        "bracket-pairs",
        "int-product",
        "element-product",
        "product-edge",
        "mu-product",
        "mu-coproduct",
        "mu-vanishing",
        "tensor",
        "nested-bracket",
    ],
)
def test_products_past_a_limit_are_refused(request, model, text, error):
    # refused before the product is computed
    with pytest.raises(ValueError) as exc:
        run_expr(request.getfixturevalue(model), text)
    assert str(exc.value) == error


def test_coefficient_and_pair_limits_hold_at_the_edge(s4, bv_model, monkeypatch):
    assert run_expr(s4, "2^524287*2^524287") == (1 << 1048574) * s4.unit()
    assert run_expr(s4, "2^524287 (x) 2^524287") == (1 << 1048574) * tensor([s4.unit(), s4.unit()])
    assert run_expr(s4, "mu(0,2,1; 2^524287, 2^524287)") == (1 << 1048574) * s4.unit()
    assert run_expr(bv_model, "bracket(2^524287*a, 2^524287*v)") == (1 << 1048574) * bv_model.unit()
    with pytest.raises(EvalError, match="^bracket may take coefficients of 1048577 bits, more than the limit of 1048576$"):
        run_expr(bv_model, "bracket(2^524288*a, 2^524287*v)")
    # (1+v)^4 squares 2 terms, then 3, then multiplies 1 term by 5: 9 pairs
    monkeypatch.setattr(algebra, "MAX_POWER_PAIRS", 9)
    assert str(run_expr(s4, "(1+v)^4")) == "1 + 4*v + 6*v^2 + 4*v^3 + v^4"
    monkeypatch.setattr(algebra, "MAX_POWER_PAIRS", 8)
    with pytest.raises(ValueError, match="^element power takes a product of 9 term pairs, more than the limit of 8$"):
        run_expr(s4, "(1+v)^4")
    # products and brackets of two elements read the pair limit too
    with pytest.raises(EvalError, match="^product takes 9 term pairs, more than the limit of 8$"):
        run_expr(s4, "(1+v+v^2)*(1+v+v^2)")
    assert str(run_expr(s4, "(1+v)*(1+v+v^2+v^3)")) == "1 + 2*v + 2*v^2 + 2*v^3 + v^4"
    with pytest.raises(EvalError, match="^bracket takes 9 term pairs, more than the limit of 8$"):
        run_expr(bv_model, "bracket(a*(1+v+v^2), 1+v+v^2)")
    # (2*v)^4 squares 2-bit, then 3-bit coefficients, then multiplies 1 by 16
    monkeypatch.setattr(algebra, "MAX_COEFF_BITS", 6)
    assert str(run_expr(s4, "(2*v)^4")) == "16*v^4"
    monkeypatch.setattr(algebra, "MAX_COEFF_BITS", 5)
    with pytest.raises(ValueError, match="^element power may take coefficients of 6 bits, more than the limit of 5$"):
        run_expr(s4, "(2*v)^4")
    # products, tensors, mu(...) inputs and brackets read the limit where they check it
    for text, what in (("4*4", "product"), ("4 (x) 4", "tensor"), ("mu(0,2,1; 4, 4)", "mu(...)")):
        with pytest.raises(EvalError, match=rf"^{re.escape(what)} may take coefficients of 6 bits, more than the limit of 5$"):
            run_expr(s4, text)
    with pytest.raises(EvalError, match=r"^bracket may take coefficients of 6 bits, more than the limit of 5$"):
        run_expr(bv_model, "bracket(4*a, 4*v)")
    assert run_expr(bv_model, "bracket(4*a, 2*v)") == 8 * bv_model.unit()
    with pytest.raises(EvalError, match="^integer power may take 6 bits, more than the limit of 5$"):
        run_expr(s4, "2^3")
    assert run_expr(s4, "4*2") == 8


def test_eval_exits_two_past_the_nesting_limit(capsys):
    argv = ["eval", "--model", "sphere:4", "(" * 300 + "a" + ")" * 300]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "loophom: error: more than 150 nested parentheses and calls (column 151)\n"
    )


# -- print/reparse/re-evaluate -----------------------------------------------------


def roundtrip(model, text):
    value = run_expr(model, text)
    printed = str(value)
    again = run_expr(model, printed)
    assert str(again) == printed
    assert again == value or (not value and not again)
    return printed


def test_print_reparse_reevaluate_identity(s4, cp2, toy):
    cases = [
        (s4, "psi(1)"),
        (s4, "2*a*v"),
        (s4, "a*v + 3*v - b"),
        (s4, "(a (x) a) + 2*(v (x) b)"),
        (s4, "-b^2 + v^2"),
        (cp2, "mu(0,2,1; c, c)"),
        (cp2, "psi(c^2*u)"),
        (cp2, "c*u - 3*w"),
        (toy, "psi(1)"),
        (toy, "y*z (x) y"),
    ]
    for model, text in cases:
        roundtrip(model, text)


def test_print_reparse_random_elements(s4):
    import random

    rng = random.Random(3)
    monos = [m for _, m, _ in s4.basis_window(8)]
    for _ in range(50):
        pairs = [
            (rng.randint(-5, 5), rng.choice(monos)) for _ in range(rng.randint(0, 4))
        ]
        value = s4.normal_form(pairs)
        assert run_expr(s4, str(value)) == value


@settings(max_examples=60, deadline=None)
@given(models(euler=st.integers(-3, 3)), st.data())
def test_print_round_trip_on_drawn_models(model, data):
    x, y = (data.draw(elements(model, window=4)) for _ in range(2))
    for value in (x, tensor([x, y]), psi(model, x)):
        again = run_expr(model, str(value))
        # a zero tensor prints as 0, which evaluates to a zero element
        assert again == value or (not value and not again)


# -- one-edit corpus -----------------------------------------------------------------

# The ``eval`` expressions the benchmark's query-mix sends to built-in
# models ("bases"), and one-edit variants of each with the outcome each had
# before the parser and evaluator were simplified: the printed value, or
# the error class and message.
EXPR_CORPUS = Path(__file__).parent / "data" / "expr_corpus.json"


def expr_variants(text):
    """Delete each character, replace each integer with 0, 3 and 7, replace
    each identifier with ``zz``."""
    out = [text[:i] + text[i + 1 :] for i in range(len(text))]
    for m in re.finditer(r"\d+", text):
        out += [text[: m.start()] + r + text[m.end() :] for r in ("0", "3", "7")]
    for m in re.finditer(r"[A-Za-z_]\w*", text):
        out.append(text[: m.start()] + "zz" + text[m.end() :])
    return out


def test_expr_corpus_is_the_one_edit_variants_of_the_bases():
    corpus = json.loads(EXPR_CORPUS.read_text())
    variants = [(model, v) for model, text in corpus["bases"] for v in expr_variants(text)]
    entries = [(e["model"], e["text"]) for e in corpus["entries"]]
    assert entries == list(dict.fromkeys(variants))
    assert (len(corpus["bases"]), len(entries)) == (343, 5728)


def test_expr_corpus_outcomes_unchanged():
    models = {}
    for entry in json.loads(EXPR_CORPUS.read_text())["entries"]:
        if entry["model"] not in models:
            models[entry["model"]] = load_model(entry["model"]).model
        model = models[entry["model"]]
        try:
            outcome = {"value": str(evaluate(model, parse_expr(entry["text"], model)))}
        except (ExprError, EvalError, ModelError) as exc:
            outcome = {"error": [type(exc).__name__, str(exc)]}
        assert {"model": entry["model"], "text": entry["text"], **outcome} == entry


# -- AST records -------------------------------------------------------------------


def test_ast_nodes_are_frozen_records(s4):
    ast = parse_expr("-a*v^2 + psi(1) (x) bracket(a, v) (x) mu(0, 2, 1; a, v) - 3", s4)
    assert repr(ast) == (
        "TensorExpr(factors=(BinOp(op='+', left=Neg(operand=BinOp(op='*', left=Name(ident='a'), "
        "right=Pow(base=Name(ident='v'), exponent=2))), right=Call(func='psi', args=(Lit(value=1),))), "
        "Call(func='bracket', args=(Name(ident='a'), Name(ident='v'))), "
        "BinOp(op='-', left=MuCall(genus=0, inputs=2, outputs=1, args=(Name(ident='a'), Name(ident='v'))), "
        "right=Lit(value=3))))"
    )
    again = parse_expr("-a*v^2 + psi(1) (x) bracket(a, v) (x) mu(0, 2, 1; a, v) - 3", s4)
    assert ast == again and ast is not again and hash(ast) == hash(again)
    assert Name("a") != Lit("a") and Name("a") == Name(ident="a")
    assert MuCall(genus=0, inputs=1, outputs=2, args=()) == MuCall(0, 1, 2, ())
    assert Pow(Name("v"), 2) != Pow(Name("v"), 3)
    with pytest.raises(AttributeError):
        ast.factors = ()
    with pytest.raises(AttributeError):
        Lit(1).value = 2
