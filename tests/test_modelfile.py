"""Model file format: parsing, validation with line numbers, round trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from loophom import (
    LoopModel,
    ModelDoc,
    ModelParseError,
    load_model,
    parse_model,
    print_model,
    psi,
    run_checks,
    tensor,
    tensor_scale,
)

from strategies import models

S4_TEXT = """\
# loop homology of the 4-sphere
dim = 4
euler = 2
generator b deg = -1
generator a deg = -4
generator v deg = 6
relation 1 * a^2
relation 1 * a*b
relation 2 * a*v
c0 = a
"""


def test_parse_sphere_text():
    doc = parse_model(S4_TEXT)
    m = doc.model
    assert [g.name for g in m.generators] == ["b", "a", "v"]
    assert m.dim == 4 and m.euler == 2
    assert m.c0 == m.gen("a")
    a = m.gen("a")
    assert psi(m, m.unit()) == tensor_scale(2, tensor([a, a]))


def test_long_flat_sum_in_a_value_loads():
    sum_text = " + ".join(["a"] + ["0"] * 2999)
    doc = parse_model(S4_TEXT.replace("c0 = a", f"c0 = {sum_text}"))
    assert doc.model.c0 == doc.model.gen("a")


def test_missing_c0_reported():
    text = "\n".join(l for l in S4_TEXT.splitlines() if not l.startswith("c0"))
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert any("c0 required" in msg for _, msg in exc.value.errors)


def test_duplicate_generator_reports_both_lines():
    text = S4_TEXT + "generator a deg = -4\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    (line, msg), = exc.value.errors
    assert line == 11
    assert "duplicate generator 'a'" in msg
    assert "line 5" in msg


def test_syntax_error_has_line_number():
    with pytest.raises(ModelParseError) as exc:
        parse_model("dim = 2\neuler = 2\nwibble 3\nc0 = a\n")
    assert (3, "unrecognized statement: 'wibble 3'") in exc.value.errors


def test_validation_error_carries_c0_line():
    text = S4_TEXT.replace("c0 = a", "c0 = v")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    (line, msg), = exc.value.errors
    assert line == 10 and "degree -4" in msg


def test_odd_self_bracket_with_bv_data_is_located():
    text = "\n".join(
        [
            "dim = 1",
            "euler = 0",
            "generator x deg = -1",
            "generator g deg = 1",
            "generator w deg = 3",
            "relation 2 * w",
            "c0 = x",
            "delta g = 0",
            "bracket [g,g] = w",
        ]
    )
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert exc.value.errors == [
        (9, "self-bracket of odd generator 'g' must vanish with BV data, got w")
    ]
    # without BV data the 2-torsion self-bracket is allowed
    parse_model(text.replace("delta g = 0", ""))


_ODD_SELF_BRACKET_TEXT = """\
dim = 1
euler = 0
generator x deg = -1
generator g deg = 1
generator w deg = 3
c0 = x
bracket [g,g] = w
"""
_A4_TEXT = "dim = 4\neuler = 2\ngenerator a deg = -4\nrelation 1 * a^2\nc0 = a\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (_ODD_SELF_BRACKET_TEXT, "line 7: self-bracket of odd generator 'g' must be 2-torsion"),
        (_A4_TEXT.replace("c0 = a", "c0 = a (x) a"), "line 5: tensor values are not allowed here"),
        (_A4_TEXT.replace("c0 = a", "c0 = mu(0,1,1; a)"), "line 5: mu(...) is not allowed here"),
    ],
    ids=["odd-self-bracket", "tensor-value", "mu-value"],
)
def test_value_diagnostic_text(text, error):
    parse_model(_A4_TEXT)  # valid: only the replaced line is at fault
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert str(exc.value) == error


def test_relation_with_unknown_generator_line():
    text = S4_TEXT + "relation 1 * q^2\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    (line, msg), = exc.value.errors
    assert line == 11 and "unknown generator 'q'" in msg


def test_bad_monomial_reported():
    text = S4_TEXT + "relation 2 * a^*\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert any("bad monomial factor" in msg for _, msg in exc.value.errors)


def test_unknown_name_in_c0_expression():
    text = S4_TEXT.replace("c0 = a", "c0 = zz")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    (line, msg), = exc.value.errors
    assert line == 10 and "unknown generator 'zz'" in msg


def test_non_decimal_digit_in_a_value_is_located():
    text = S4_TEXT.replace("c0 = a", "c0 = a^²")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert exc.value.errors == [(10, "unexpected character '²' (column 3)")]


def test_integer_power_past_the_bit_limit_in_a_value_is_located():
    text = S4_TEXT.replace("c0 = a", "c0 = 9^999999999*a")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert exc.value.errors == [
        (10, "integer power may take 3999999996 bits, more than the limit of 1048576")
    ]


@pytest.mark.parametrize(
    "c0, error",
    [
        (
            "a*(3*v)^99999999",
            "element power may take coefficients of 1661954 bits, more than the limit of 1048576",
        ),
        ("2^524288*2^524288*a", "product may take coefficients of 1048578 bits, more than the limit of 1048576"),
    ],
    ids=["element-power", "product"],
)
def test_coefficient_limit_in_a_value_is_located(c0, error):
    with pytest.raises(ModelParseError) as exc:
        parse_model(S4_TEXT.replace("c0 = a", f"c0 = {c0}"))
    assert exc.value.errors == [(10, error)]


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("dim = 4", "dim = " + "1" * 5000, id="dim"),
        pytest.param("euler = 2", "euler = -" + "1" * 5000, id="euler"),
        pytest.param("generator v deg = 6", "generator v deg = " + "1" * 5000, id="degree"),
        pytest.param("relation 2 * a*v", "relation " + "1" * 5000 + " * a*v", id="coefficient"),
        pytest.param("relation 2 * a*v", "relation 2 * a*v^" + "1" * 5000, id="exponent"),
        pytest.param("c0 = a", "c0 = " + "1" * 5000 + "*a", id="c0"),
    ],
)
def test_over_long_integer_is_located(old, new):
    # more digits than Python converts to an int
    text = S4_TEXT.replace(old, new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    column = " (column 1)" if new.startswith("c0") else ""
    assert exc.value.errors[0] == (line, f"integer literal of 5000 digits is too long{column}")
    assert not any("required" in msg for _, msg in exc.value.errors)


def test_calls_not_allowed_in_model_files():
    text = S4_TEXT.replace("c0 = a", "c0 = psi(a)")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert any("not allowed" in msg for _, msg in exc.value.errors)


def test_duplicate_scalar_rejected():
    with pytest.raises(ModelParseError) as exc:
        parse_model("dim = 2\ndim = 3\neuler = 2\nc0 = a\ngenerator a deg = -2\nrelation 1 * a^2\n")
    assert any("duplicate 'dim'" in msg for _, msg in exc.value.errors)


def test_multiple_errors_collected():
    text = "dim = 4\neuler = 2\ngenerator a deg = -4\nrelation 1 * a^2\nrelation 0 * a\nc0 = a\nbogus\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    lines = sorted(line for line, _ in exc.value.errors)
    assert lines == [5, 7]


def test_flag_and_bv_lines(toy):
    text = print_model(toy)
    doc = parse_model(text)
    assert doc.model.simply_connected
    assert doc.model.delta_on_generators == {
        "y": doc.model.zero(),
        "z": doc.model.zero(),
    }
    assert set(doc.model.bracket_on_generators) == {("y", "z")}
    assert [g.geometric for g in doc.model.generators] == [True, True]


@pytest.mark.parametrize(
    "delta, bracket",
    [({"g": 0}, {}), (None, {}), ({}, {}), ({}, {("g", "g"): 0})],
    ids=["delta-only", "empty-bracket", "both-empty", "empty-delta"],
)
def test_empty_bv_and_bracket_tables_survive_printing(delta, bracket):
    model = LoopModel(
        dim=1,
        euler=0,
        generators=[("c", -1), ("g", 1)],
        c0={"c": 1},
        delta=delta,
        bracket=bracket,
    )
    text = print_model(model)
    again = parse_model(text).model
    assert print_model(again) == text
    # an empty table stays present, so check runs the laws that need it
    assert (again.delta_on_generators is None) == (delta is None)
    assert again.bracket_on_generators is not None


def test_unknown_flag_rejected():
    with pytest.raises(ModelParseError) as exc:
        parse_model(S4_TEXT + "flag shiny\n")
    assert any("unknown flag" in msg for _, msg in exc.value.errors)


def test_comments_and_blank_lines_ignored():
    doc = parse_model("\n\n# header\n" + S4_TEXT + "\n  # trailing\n")
    assert doc.model.dim == 4


def test_round_trip_fixed_point():
    for name in ("sphere:2", "sphere:3", "sphere:4", "cpn:1", "cpn:2", "toy:bv0"):
        doc = load_model(name)
        text = print_model(doc.model)
        again = parse_model(text)
        assert print_model(again.model) == text, name


def test_parse_print_parse_same_values():
    doc = parse_model(S4_TEXT)
    doc2 = parse_model(print_model(doc.model))
    m1, m2 = doc.model, doc2.model
    assert print_model(m1) == print_model(m2)
    assert [r for r in m1.relations] == [r for r in m2.relations]


@settings(max_examples=30, deadline=None)
@given(models())
def test_drawn_models_round_trip_and_check_without_error(model):
    text = print_model(model)
    assert print_model(parse_model(text).model) == text
    # a law may fail on random data, but none may raise
    report = run_checks(model, 2, 0)
    assert [r.law for r in report.results if r.status == "error"] == []


def test_load_model_builtin_and_unknown(tmp_path):
    doc = load_model("sphere:4")
    assert doc.provenance == "sphere:4"
    with pytest.raises(ModelParseError, match="unknown model"):
        load_model("nonexistent.model")
    with pytest.raises(ModelParseError, match="toy:bv0"):
        load_model("toy:bv9")
    path = tmp_path / "m.model"
    path.write_text(S4_TEXT)
    doc = load_model(str(path))
    assert doc.provenance == str(path)
    assert doc.model.dim == 4


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_a_byte_that_is_not_utf8_is_located(tmp_path, newline):
    lines = S4_TEXT.encode().splitlines()
    lines[2] += b" \xff"
    path = tmp_path / "m.model"
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(ModelParseError) as exc:
        load_model(str(path))
    assert exc.value.errors == [(3, "byte 0xff is not UTF-8")]
    assert str(exc.value) == "line 3: byte 0xff is not UTF-8"


def test_load_model_shares_one_model_per_file_text(tmp_path):
    first, second = tmp_path / "a.model", tmp_path / "b.model"
    first.write_text(S4_TEXT)
    second.write_text(S4_TEXT)
    docs = [load_model(str(first)), load_model(str(first)), load_model(str(second))]
    assert docs[0].model is docs[1].model is docs[2].model
    assert [doc.provenance for doc in docs] == [str(first), str(first), str(second)]
    # parse_model itself is not memoised
    assert parse_model(S4_TEXT).model is not parse_model(S4_TEXT).model


def test_load_model_reads_the_file_on_every_call(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(S4_TEXT)
    old = load_model(str(path)).model
    cpn2_text = print_model(load_model("cpn:2").model)
    path.write_text(cpn2_text)
    new = load_model(str(path)).model
    assert new is not old
    assert print_model(new) == cpn2_text
    # a byte that is not UTF-8 is found before the memo is consulted
    path.write_bytes(S4_TEXT.encode().replace(b"euler = 2", b"euler = 2 \xff"))
    with pytest.raises(ModelParseError) as exc:
        load_model(str(path))
    assert exc.value.errors == [(3, "byte 0xff is not UTF-8")]


def test_a_model_file_that_fails_to_parse_is_not_kept(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(S4_TEXT.replace("c0 = a", "c0 = q"))
    raised = []
    for _ in range(2):
        with pytest.raises(ModelParseError) as exc:
            load_model(str(path))
        raised.append((exc.value.errors, str(exc.value)))
    assert raised[0] == raised[1]
    assert [line for line, _ in raised[0][0]] == [10]
    path.write_text(S4_TEXT)
    assert load_model(str(path)).model.dim == 4


def test_model_files_are_read_as_utf8_in_any_locale(tmp_path):
    path = tmp_path / "m.model"
    path.write_bytes(S4_TEXT.replace("4-sphere", "4-sph\u00e8re").encode())
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "loophom", "eval", "--model", str(path), "psi(1)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2*(a (x) a)\n", "")


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
def test_expressions_on_the_command_line_are_read_as_utf8_in_any_locale(utf8_mode):
    # the C locale decodes argv as ASCII; UTF-8 mode decodes it as UTF-8
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(
        os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8=utf8_mode, PYTHONPATH=str(src)
    )
    # stderr escapes what the C locale cannot encode
    char = "'\\xb2'" if utf8_mode == "0" else "'\u00b2'"
    cases = [
        (["eval", "v^\u00b2".encode()], f"unexpected character {char} (column 3)"),
        (["eval", b"v\xff"], "byte 0xff is not UTF-8 (column 2)"),
        (
            ["tqft", "--genus", "0", "--in", "2", "--out", "1", "a", b"v\xff"],
            "byte 0xff is not UTF-8 (column 2)",
        ),
    ]
    for (command, *args), message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "loophom", command, "--model", "sphere:4", *args],
            capture_output=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, b""), args
        assert proc.stderr.decode("utf-8") == f"loophom: error: {message}\n", args


def test_relation_on_unit_monomial_parses():
    # degenerate but expressible; rejected because c0 collapses to zero
    text = "dim = 2\neuler = 2\ngenerator a deg = -2\nrelation 1 * a^2\nrelation 1 * 1\nc0 = a\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert any("must be homogeneous" in msg for _, msg in exc.value.errors)


# One-edit variants of the built-in printouts with the outcome each had
# before models were built in one step: the printout when it parsed, else
# the ModelParseError list.
CORPUS = Path(__file__).parent / "data" / "modelfile_corpus.json"
CORPUS_MODELS = ("sphere:2", "sphere:3", "sphere:4", "cpn:1", "cpn:2", "toy:bv0")


def one_edit_variants(text):
    """Delete each line, duplicate each line, replace each integer with 0,
    -1, 3 and 7, replace each identifier with ``zz``, append ``bogus``."""
    lines = text.splitlines()
    out = ["\n".join(lines[:i] + lines[i + 1 :]) + "\n" for i in range(len(lines))]
    out += ["\n".join(lines[: i + 1] + lines[i:]) + "\n" for i in range(len(lines))]
    for m in re.finditer(r"-?\d+", text):
        out += [text[: m.start()] + r + text[m.end() :] for r in ("0", "-1", "3", "7")]
    for m in re.finditer(r"[A-Za-z]+", text):
        out.append(text[: m.start()] + "zz" + text[m.end() :])
    out.append(text + "bogus\n")
    return out


def test_corpus_is_the_one_edit_variants_of_the_builtins():
    texts = []
    for name in CORPUS_MODELS:
        texts += one_edit_variants(print_model(load_model(name).model))
    corpus = json.loads(CORPUS.read_text())
    assert [entry["text"] for entry in corpus] == list(dict.fromkeys(texts))
    assert (len(corpus), sum(entry["errors"] is not None for entry in corpus)) == (458, 352)


def test_corpus_outcomes_unchanged():
    # Building the model in one step checks every value even after a
    # right-hand side or a line fails, so a few files gain true problems
    # at the end of their list (an unknown generator on the delta and
    # bracket lines, a delta without a bracket line).
    extended = 0
    for entry in json.loads(CORPUS.read_text()):
        try:
            doc = parse_model(entry["text"])
        except ModelParseError as exc:
            assert entry["errors"] is not None, entry["text"]
            before = [tuple(e) for e in entry["errors"]]
            assert exc.errors[: len(before)] == before, entry["text"]
            extended += len(exc.errors) > len(before)
        else:
            assert print_model(doc.model) == entry["printout"], entry["text"]
    assert extended == 11


def test_model_doc_is_a_frozen_record():
    model = load_model("sphere:4")
    doc = ModelDoc(model=model, provenance="sphere:4")
    assert repr(doc) == f"ModelDoc(model={model!r}, provenance='sphere:4')"
    assert repr(ModelDoc(1)) == "ModelDoc(model=1, provenance='<string>')"
    assert doc == ModelDoc(model, "sphere:4") and hash(doc) == hash(ModelDoc(model, "sphere:4"))
    assert doc != ModelDoc(model) and doc != (model, "sphere:4")
    assert parse_model(S4_TEXT, "s4.model").provenance == "s4.model"
    with pytest.raises(AttributeError):
        doc.provenance = "x"
