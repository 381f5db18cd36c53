"""Command-line interface: subcommands, exit codes, JSON output."""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import algebra, cli, print_model
from strategies import models

S4_TEXT = """\
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

CORRUPTED_TEXT = S4_TEXT.replace("relation 2 * a*v\n", "")


DEEP_BV_TEXT = """\
dim = 3
euler = 0
generator b deg = -3
generator v deg = 2
c0 = b
delta v = 0
delta b = 0
bracket [b,v] = 0
"""

# {a, v} = 1 is not defined on the quotient by 2*v = 0
TORSION_BRACKET_TEXT = """\
dim = 3
euler = 0
generator a deg = -3
generator v deg = 2
relation 2 * v
c0 = a
bracket [a,v] = 1
"""


# Python converts integers of at most 4,300 digits to text by default
_TOO_LONG = "the coefficient of {} has more than 4300 digits, too many to print"

# 1 + v + ... + v^200: its third tensor power has 201^3 terms
_X201 = "+".join(["1"] + [f"v^{k}" for k in range(1, 201)])


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "loophom", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_eval_prints_coproduct():
    out = run_cli("eval", "--model", "sphere:4", "psi(1)")
    assert out.returncode == 0
    assert out.stdout.strip() == "2*(a (x) a)"


def test_eval_prints_zero():
    out = run_cli("eval", "--model", "sphere:4", "2*a*v")
    assert out.returncode == 0
    assert out.stdout.strip() == "0"


def test_eval_json():
    out = run_cli("eval", "--model", "cpn:2", "--json", "psi(1)")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["kind"] == "tensor"
    assert payload["value"] == "3*(c^2 (x) c^2)"
    assert payload["terms"] == [{"coefficient": 3, "factors": ["c^2", "c^2"]}]


def test_eval_json_element():
    out = run_cli("eval", "--model", "sphere:4", "--json", "3*a*v + v")
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout) == {
        "expr": "3*a*v + v",
        "kind": "element",
        "model": "sphere:4",
        "terms": [
            {"coefficient": 1, "modulus": 0, "monomial": "v"},
            {"coefficient": 1, "modulus": 2, "monomial": "a*v"},
        ],
        "value": "v + a*v",
    }


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["eval", "--model", "sphere:4", "psi(1) + (a (x) a (x) a)"],
            "cannot add tensors of arity 2 and 3",
        ),
        (["eval", "--model", "sphere:4", "psi(1)*psi(1)"], "cannot multiply by an arity >= 2 tensor"),
        (
            ["eval", "--model", "sphere:4", "psi(1)^2"],
            "power base must be a scalar element, got an arity-2 tensor",
        ),
        (
            ["tqft", "--model", "sphere:4", "--genus", "0", "--in", "1", "--out", "1", "psi(1)"],
            "surface input must be a scalar element, got an arity-2 tensor",
        ),
        (
            ["check", "--model", "sphere:4", "--window", "-1"],
            "window must be a non-negative integer, got -1",
        ),
        (["eval", "--model", "sphere:1", "1"], "sphere:1 is not supported (need N >= 2)"),
        (["eval", "--model", "cpn:0", "1"], "cpn:0 is not supported (need N >= 1)"),
        (["eval", "--model", "cpn:x", "1"], "bad parameter in 'cpn:x': expected an integer"),
        (["eval", "--model", "sphere:²", "1"], "bad parameter in 'sphere:²': expected an integer"),
        (
            ["eval", "--model", "sphere:" + "1" * 5000, "1"],
            f"bad parameter in 'sphere:{'1' * 5000}': integer literal of 5000 digits is too long",
        ),
        (["eval", "--model", "toy:bv1", "1"], "unknown toy model 'toy:bv1' (try toy:bv0)"),
        (["eval", "--model", "sphere:4", "2^20000"], _TOO_LONG.format("1")),
        (["eval", "--model", "sphere:4", "--json", "2^20000"], _TOO_LONG.format("1")),
        (
            ["tqft", "--model", "sphere:4", "--genus", "0", "--in", "1", "--out", "2", "2^20000"],
            _TOO_LONG.format("(a (x) a)"),
        ),
        (
            ["eval", "--model", "sphere:4", " (x) ".join([_X201] * 3)],
            "tensor of 8120601 terms exceeds the limit of 1000000",
        ),
        (
            ["eval", "--model", "sphere:4", "9^999999999"],
            "integer power may take 3999999996 bits, more than the limit of 1048576",
        ),
        (
            ["tqft", "--model", "sphere:4", "--genus", "0", "--in", "2", "--out", "1", "a"],
            "surface expects 2 inputs but 1 expressions were given",
        ),
        (
            ["tqft", "--model", "sphere:4", "--genus", "0", "--in", "200", "--out", "1"] + ["2^500000"] * 200,
            "mu(...) may take coefficients of 100000200 bits, more than the limit of 1048576",
        ),
    ],
    ids=[
        "add-arities",
        "tensor-product",
        "tensor-power",
        "tqft-tensor-input",
        "negative-window",
        "sphere-1",
        "cpn-0",
        "cpn-x",
        "sphere-superscript-two",
        "sphere-5000-digits",
        "toy-bv1",
        "print-huge-coefficient",
        "json-huge-coefficient",
        "tqft-huge-coefficient",
        "tensor-too-large",
        "integer-power-too-large",
        "tqft-input-count",
        "tqft-coefficient-bits",
    ],
)
def test_error_paths_exit_two_with_one_line(argv, error):
    out = run_cli(*argv)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"loophom: error: {error}\n"


def test_eval_parse_error_exits_two():
    out = run_cli("eval", "--model", "sphere:4", "psi(a,b)")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_eval_non_decimal_digit_exits_two_with_a_column():
    out = run_cli("eval", "--model", "sphere:4", "v^²")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "loophom: error: unexpected character '²' (column 3)\n"


def test_eval_unknown_model_exits_two():
    out = run_cli("eval", "--model", "no-such-model", "1")
    assert out.returncode == 2


def test_basis_text_and_json():
    out = run_cli("basis", "--model", "cpn:2", "--degree", "0")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["1  Z", "c^2*u  Z/3"]
    out = run_cli("basis", "--model", "sphere:4", "--degree", "2", "--json")
    payload = json.loads(out.stdout)
    assert payload["basis"] == [{"monomial": "a*v", "modulus": 2}]


def test_basis_negative_degree():
    out = run_cli("basis", "--model", "sphere:4", "--degree", "-4")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["a  Z"]


def test_tqft_pair_of_pants():
    out = run_cli(
        "tqft", "--model", "sphere:4", "--genus", "0", "--in", "2", "--out", "1", "a", "v"
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "a*v"


def test_tqft_input_count_mismatch():
    out = run_cli(
        "tqft", "--model", "sphere:4", "--genus", "0", "--in", "2", "--out", "1", "a"
    )
    assert out.returncode == 2


def test_tqft_json():
    out = run_cli(
        "tqft",
        "--model",
        "sphere:4",
        "--genus",
        "0",
        "--in",
        "1",
        "--out",
        "2",
        "--json",
        "1",
    )
    payload = json.loads(out.stdout)
    assert payload["value"] == "2*(a (x) a)"
    assert payload["genus"] == 0 and payload["outputs"] == 2


def test_check_passes_builtin():
    out = run_cli("check", "--model", "sphere:4", "--window", "8", "--seed", "3")
    assert out.returncode == 0
    assert "result: PASS" in out.stdout


def test_check_fails_on_corrupted_model(tmp_path):
    path = tmp_path / "broken.model"
    path.write_text(CORRUPTED_TEXT)
    out = run_cli("check", "--model", str(path))
    assert out.returncode == 1
    assert "FAIL torsion-identity" in out.stdout
    assert "2*a*v" in out.stdout


def test_check_negative_window_is_usage_error():
    out = run_cli("check", "--model", "sphere:4", "--window", "-1")
    assert out.returncode == 2
    assert out.stderr.startswith("loophom: error: ")
    assert "window" in out.stderr
    assert "Traceback" not in out.stderr


def test_eval_huge_power():
    out = run_cli("eval", "--model", "sphere:4", "v^100000000")
    assert out.returncode == 0
    assert out.stdout.strip() == "v^100000000"


def test_check_deterministic_output():
    a = run_cli("check", "--model", "cpn:1", "--window", "6", "--seed", "5")
    b = run_cli("check", "--model", "cpn:1", "--window", "6", "--seed", "5")
    assert a.stdout == b.stdout == a.stdout
    assert a.returncode == b.returncode == 0


def test_check_json_shape():
    out = run_cli("check", "--model", "toy:bv0", "--json")
    payload = json.loads(out.stdout)
    assert payload["passed"] is True
    assert payload["seed"] == 0 and payload["window"] == 8
    statuses = {r["status"] for r in payload["results"]}
    assert statuses <= {"pass", "fail", "skip"}


def test_model_file_eval(tmp_path):
    path = tmp_path / "s4.model"
    path.write_text(S4_TEXT)
    out = run_cli("eval", "--model", str(path), "psi(1)")
    assert out.returncode == 0
    assert out.stdout.strip() == "2*(a (x) a)"


def test_model_file_with_errors_exits_two(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(S4_TEXT.replace("c0 = a", "c0 = v"))
    out = run_cli("eval", "--model", str(path), "1")
    assert out.returncode == 2
    assert "line 9" in out.stderr


def test_bracket_that_ignores_a_relation_is_rejected(tmp_path):
    path = tmp_path / "torsion.model"
    path.write_text(TORSION_BRACKET_TEXT)
    for expr in ("bracket(a, v)", "bracket(a, 3*v)", "bracket(a, 2*v)"):
        out = run_cli("eval", "--model", str(path), expr)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "loophom: error: line 5: bracket with 'a' does not vanish on relation 2 * v: got 2\n"
        )


def test_usage_error_exits_two():
    out = run_cli("eval", "--model")
    assert out.returncode == 2


def test_package_runs_on_the_standard_library_alone():
    # -I -S: no site-packages, no user site, no PYTHONPATH; -I also ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps bytecode out of src/
    src = Path(__file__).resolve().parent.parent / "src"
    names = sorted(p.stem for p in (src / "loophom").glob("*.py") if p.stem != "__main__")
    script = f"""
import contextlib, importlib, io, json, sys
sys.path.insert(0, {str(src)!r})
for name in {names!r}:
    importlib.import_module("loophom" if name == "__init__" else "loophom." + name)
from loophom import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["eval", "--model", "sphere:4", "psi(1)"])
print(json.dumps([code, out.getvalue(), sorted({{m.split('.')[0] for m in sys.modules}})]))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, out, loaded = json.loads(proc.stdout)
    assert (code, out) == (0, "2*(a (x) a)\n")
    assert "loophom" in loaded
    outside = set(loaded) - set(sys.stdlib_module_names) - {"__main__", "loophom"}
    assert not outside


def test_eval_does_not_load_the_law_suite():
    # only ``check`` needs loophom.checks (and, through it, random); the
    # package still resolves the law-suite names on first use
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"""
import contextlib, io, sys
sys.path.insert(0, {str(src)!r})
from loophom import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["eval", "--model", "sphere:4", "psi(1)"])
print(code, sorted({{"loophom.checks", "random"}} & set(sys.modules)))
from loophom import run_checks, DenseOracle
import loophom
print(run_checks is loophom.checks.run_checks, DenseOracle.__module__)
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 []\nTrue loophom.checks\n"


def run_in_process(argv):
    """``cli.main(argv)`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "genus, n_in, n_out, inputs",
    [
        (0, 1, 1, ["a + v"]),
        (0, 2, 1, ["a", "v"]),
        (0, 3, 1, ["1 + v", "v^2", "3"]),
        (0, 1, 2, ["1"]),
        (0, 2, 2, ["v", "v^2"]),
        (1, 1, 1, ["v"]),
        (0, 1, 3, ["1"]),
        (0, 1, 0, ["v"]),
        (0, 1, 1, ["psi(1)"]),
        (1, 2, 1, ["a (x) v", "v"]),
        (0, 1, 2, ["2^20000"]),
    ],
    ids=[
        "cylinder",
        "pants",
        "three-in",
        "coproduct",
        "two-in-two-out",
        "torus",
        "three-out",
        "no-outputs",
        "tensor-input",
        "tensor-input-vanishing",
        "huge-coefficient",
    ],
)
def test_tqft_is_eval_of_mu(genus, n_in, n_out, inputs):
    # the same value or error, as text, and as the same terms with --json
    mu = f"mu({genus},{n_in},{n_out}; {', '.join(inputs)})"
    tqft = ["tqft", "--model", "sphere:4", "--genus", str(genus), "--in", str(n_in), "--out", str(n_out)]
    assert run_in_process([*tqft, *inputs]) == run_in_process(["eval", "--model", "sphere:4", mu])
    code, out, _ = run_in_process([*tqft, "--json", *inputs])
    if code:
        return
    got = json.loads(out)
    assert (got.pop("genus"), got.pop("inputs"), got.pop("outputs")) == (genus, n_in, n_out)
    want = json.loads(run_in_process(["eval", "--model", "sphere:4", "--json", mu])[1])
    assert want.pop("expr") == mu
    assert got == want


# every path through main: each subcommand, --json before and after a plain
# call, usage errors (argparse's SystemExit) and an expression parse error
REUSE_CALLS = [
    ["eval", "--model", "sphere:4", "--json", "psi(1)"],
    ["eval", "--model", "sphere:4", "psi(1)"],
    ["basis", "--model", "cpn:2", "--degree", "0"],
    ["basis", "--model", "sphere:4", "--degree", "2", "--json"],
    ["tqft", "--model", "sphere:4", "--genus", "0", "--in", "2", "--out", "1", "a", "v"],
    ["check", "--model", "sphere:2", "--window", "2"],
    ["eval", "psi(1)"],
    ["frobnicate", "--model", "sphere:4"],
    ["eval", "--model", "sphere:4", "psi(a,b)"],
]


def test_repeated_main_matches_fresh_processes(monkeypatch):
    # argparse wraps usage text to the terminal width; pin it here and in
    # the subprocesses, which inherit the environment
    monkeypatch.setenv("COLUMNS", "80")
    fresh = {}
    for argv in REUSE_CALLS:
        proc = run_cli(*argv)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert [fresh[tuple(argv)][0] for argv in REUSE_CALLS] == [0, 0, 0, 0, 0, 0, 2, 2, 2]
    # the plain eval prints text, so --json from the call before it did not leak
    assert fresh[tuple(REUSE_CALLS[1])] == (0, "2*(a (x) a)\n", "")
    for calls in (REUSE_CALLS, REUSE_CALLS[::-1]):
        for argv in calls:
            assert run_in_process(argv) == fresh[tuple(argv)], argv


def test_reused_parser_returns_a_fresh_namespace():
    first = cli._PARSER.parse_args(["eval", "--model", "sphere:4", "--json", "1"])
    second = cli._PARSER.parse_args(["basis", "--model", "cpn:2", "--degree", "0"])
    assert first is not second
    assert first.json and not second.json
    assert not hasattr(second, "expr")


def test_bv_operator_and_bracket_on_high_powers(tmp_path):
    path = tmp_path / "deep.model"
    path.write_text(DEEP_BV_TEXT)
    for expr in ("delta(v^1000)", "bracket(v^1000, b)"):
        out = run_cli("eval", "--model", str(path), expr)
        assert (out.returncode, out.stdout, out.stderr) == (0, "0\n", ""), expr


def test_basis_in_a_huge_degree_is_solved_directly():
    out = run_cli("basis", "--model", "sphere:4", "--degree", "99999996", timeout=20)
    assert (out.returncode, out.stdout, out.stderr) == (0, "v^16666666  Z\n", "")
    out = run_cli("basis", "--model", "sphere:4", "--degree", "100000000", timeout=20)
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")


# generators of degree -2 with caps of 2999 and one of degree 2: no
# monomial has an odd degree, but finding that out visits 3000^3 exponent
# choices
DEEP_BASIS_TEXT = """\
dim = 2
euler = 0
generator a deg = -2
generator b deg = -2
generator c deg = -2
generator v deg = 2
relation 1 * a^3000
relation 1 * b^3000
relation 1 * c^3000
c0 = a
"""


def test_basis_past_the_step_limit_exits_two(tmp_path):
    path = tmp_path / "deep.model"
    path.write_text(DEEP_BASIS_TEXT)
    out = run_cli("basis", "--model", str(path), "--degree", "1", timeout=20)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "loophom: error: basis of degrees 1 to 1 takes more than 1000000 steps to enumerate\n"


def test_check_past_the_basis_step_limit_exits_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "deep.model"
    path.write_text(DEEP_BASIS_TEXT)
    monkeypatch.setattr(algebra, "MAX_BASIS_STEPS", 10**4)
    assert cli.main(["check", "--model", str(path), "--window", "8"]) == 2
    assert capsys.readouterr() == (
        "",
        "loophom: error: basis of degrees -8 to 8 takes more than 10000 steps to enumerate\n",
    )


def test_console_script_entry_point_runs_main():
    # the function pyproject.toml installs as the ``loophom`` command
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, func = re.search(r'^loophom = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = (
        "import sys; from importlib import import_module; "
        "sys.argv = ['loophom', 'eval', '--model', 'sphere:4', 'psi(1)']; "
        f"import_module({module!r}).{func}()"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "2*(a (x) a)\n", "")


def test_in_process_expressions_are_not_decoded_again():
    # an argv list is taken as given: these two lone surrogates, the bytes
    # of "\u00e9" as the C locale decodes them, stay two bytes
    assert run_in_process(["eval", "--model", "sphere:4", "v^\udcc3\udca9"]) == (
        2,
        "",
        "loophom: error: byte 0xc3 is not UTF-8 (column 3)\n",
    )


# each built-in with its generator names; a drawn model file has c and
# g0, g1, ..., and the bad names and the missing path get the 2-sphere's
_BUILTINS = {
    "sphere:2": "bav",
    "sphere:3": "bv",
    "sphere:4": "bav",
    "cpn:1": "wcu",
    "cpn:2": "wcu",
    "toy:bv0": "yz",
}
_BAD_NAMES = ["sphere:x", "cpn:0", "klein:2"]
# the grammar's tokens, and two characters that no name may hold
_TOKENS = [*"0127+-*^(),; ", "(x)", "psi(", "delta(", "bracket(", "mu(", "\u00b2", "\u00e9"]


def _expressions(names):
    """Token soup, and well-formed expressions that get past the parser."""
    atoms = st.sampled_from([*names, "1", "2"])
    grammatical = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
            st.builds("({}) (x) ({})".format, inner, inner),
            st.builds("({})^{}".format, inner, st.sampled_from("0123")),
            st.builds("{}({})".format, st.sampled_from(["psi", "delta"]), inner),
            st.builds("bracket({}, {})".format, inner, inner),
            st.builds("mu({}, 2, {}; {}, {})".format, st.sampled_from("01"), st.sampled_from("123"),
                      inner, inner),
        ),
        max_leaves=6,
    )
    soup = st.lists(st.sampled_from([*names, *_TOKENS]), max_size=12).map("".join)
    return st.one_of(soup, grammatical)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_argv_ends_in_exit_0_1_or_2(tmp_path_factory, data):
    """Every subcommand on a built-in, a bad built-in name, a missing path
    or a drawn model file ends in exit 0, 1 or 2, and raises nothing."""
    tmp = tmp_path_factory.getbasetemp()
    command = data.draw(st.sampled_from(["eval", "basis", "tqft", "check"]))
    source = data.draw(st.sampled_from([*_BUILTINS, *_BAD_NAMES, "missing", "file"]))
    names = _BUILTINS.get(source, "bav")
    if source == "missing":
        source = str(tmp / "missing.model")
    elif source == "file":
        path = tmp / "drawn.model"
        path.write_text(print_model(data.draw(models(euler=st.integers(0, 4)))))
        source, names = str(path), ["c", "g0", "g1", "g2"]
    argv = [command, "--model", source]
    small = st.integers(-1, 3).map(str)
    if command == "eval":
        argv.append(data.draw(_expressions(names)))
    elif command == "basis":
        argv += ["--degree", str(data.draw(st.integers(-8, 8)))]
    elif command == "tqft":
        exprs = data.draw(st.lists(_expressions(names), max_size=3))
        n_in = data.draw(st.sampled_from([str(len(exprs)), "-1", "2"]))
        argv += ["--genus", data.draw(small), "--in", n_in, "--out", data.draw(small), *exprs]
    else:
        argv += ["--window", str(data.draw(st.integers(0, 2))), "--seed", data.draw(small)]
    if data.draw(st.booleans()):
        argv.append("--json")
    code, _, _ = run_in_process(argv)
    assert code in (0, 1, 2), argv
