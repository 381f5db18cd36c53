"""Command-line interface.

Subcommands:

    eval  --model M [--json] EXPR
    basis --model M --degree K [--json]
    tqft  --model M --genus G --in P --out Q [--json] EXPR [EXPR ...]
    check --model M [--window W] [--seed S] [--json]

M is a built-in name (sphere:N, cpn:N, toy:bv0) or a model-file path.
Exit codes: 0 success / all checks pass, 1 check failures, 2 usage or
parse errors.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import Element
from .expr import EvalError, MuCall, evaluate, parse_expr, run_expr
from .modelfile import ModelParseError, load_model


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="loophom",
        description="exact calculator for loop-homology rings and their surface operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression in a model")
    p_eval.add_argument("--model", required=True, help="built-in name or model file")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.add_argument("expr", help="expression to evaluate")

    p_basis = sub.add_parser("basis", help="list the monomial basis in one degree")
    p_basis.add_argument("--model", required=True)
    p_basis.add_argument("--degree", required=True, type=int, help="loop-algebra degree")
    p_basis.add_argument("--json", action="store_true")

    p_tqft = sub.add_parser("tqft", help="evaluate the operation of a surface")
    p_tqft.add_argument("--model", required=True)
    p_tqft.add_argument("--genus", required=True, type=int)
    p_tqft.add_argument("--in", dest="n_in", required=True, type=int, metavar="P")
    p_tqft.add_argument("--out", dest="n_out", required=True, type=int, metavar="Q")
    p_tqft.add_argument("--json", action="store_true")
    p_tqft.add_argument("exprs", nargs="+", metavar="EXPR", help="one expression per input")

    p_check = sub.add_parser("check", help="run the law suite against a model")
    p_check.add_argument("--model", required=True)
    p_check.add_argument("--window", type=int, default=8, help="max |degree| (default 8)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", action="store_true")
    return parser, dict(sub.choices)


# Built once per process: ``parse_args`` returns a fresh namespace on every
# call, so ``main`` may be called repeatedly in one process.  ``_parse``
# hands an argv that starts with a command name to that command's parser.
_PARSER, _COMMANDS = _build_parser()


def _print_value(args, value, payload: dict) -> int:
    """Print a value, or with ``--json`` the payload plus its terms."""
    if not args.json:
        print(value)
        return 0
    model = value.model
    if isinstance(value, Element):
        terms = [
            {
                "coefficient": c,
                "monomial": model.format_monomial(m),
                "modulus": model.modulus(m),
            }
            for m, c in value.sorted_terms()
        ]
        payload.update(kind="element", value=str(value), terms=terms)
    else:
        terms = [
            {
                "coefficient": c,
                "factors": [model.format_monomial(m) for m in ms],
            }
            for ms, c in value.sorted_terms()
        ]
        payload.update(kind="tensor", arity=value.arity, value=str(value), terms=terms)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    doc = load_model(args.model)
    value = run_expr(doc.model, args.expr)
    return _print_value(args, value, {"model": doc.provenance, "expr": args.expr})


def _cmd_basis(args) -> int:
    doc = load_model(args.model)
    basis = doc.model.enumerate_basis(args.degree)
    if args.json:
        payload = {
            "model": doc.provenance,
            "degree": args.degree,
            "basis": [
                {"monomial": doc.model.format_monomial(m), "modulus": mod}
                for m, mod in basis
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for m, mod in basis:
            ring = "Z" if mod == 0 else f"Z/{mod}"
            print(f"{doc.model.format_monomial(m)}  {ring}")
    return 0


def _cmd_tqft(args) -> int:
    doc = load_model(args.model)
    if len(args.exprs) != args.n_in:
        raise EvalError(
            f"surface expects {args.n_in} inputs but {len(args.exprs)} expressions were given"
        )
    inputs = tuple(parse_expr(text, doc.model) for text in args.exprs)
    value = evaluate(doc.model, MuCall(args.genus, args.n_in, args.n_out, inputs))
    payload = {
        "model": doc.provenance,
        "genus": args.genus,
        "inputs": args.n_in,
        "outputs": args.n_out,
    }
    return _print_value(args, value, payload)


def _cmd_check(args) -> int:
    # imported here so that the other subcommands never load the law suite
    from .checks import run_checks

    doc = load_model(args.model)
    report = run_checks(doc, max_abs_degree=args.window, seed=args.seed)
    if args.json:
        sys.stdout.write(report.render_json())
    else:
        sys.stdout.write(report.render_text())
    return 0 if report.passed else 1


_HANDLERS = {"eval": _cmd_eval, "basis": _cmd_basis, "tqft": _cmd_tqft, "check": _cmd_check}


def _as_utf8(text: str) -> str:
    """Command-line text read as UTF-8 in any locale, as a model file is:
    ``os.fsencode`` gives back the bytes Python decoded in the locale's
    encoding.  A byte that is not UTF-8 stays a lone surrogate, which the
    tokenizer reports."""
    return os.fsencode(text).decode("utf-8", "surrogateescape")


def _parse(argv: list):
    """``_PARSER.parse_args(argv)`` in one scan of argv.  Its one positional
    takes everything after a command name and hands it to that command's
    ``parse_known_args``, so that parser is called directly and the top
    level only reports what it leaves; help, a missing or unknown command
    and an option first still go to ``_PARSER``."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if extras:
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
        return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if argv is None:  # --model stays as decoded: a path must name the same file
        if args.command == "eval":
            args.expr = _as_utf8(args.expr)
        elif args.command == "tqft":
            args.exprs = [_as_utf8(text) for text in args.exprs]
    try:
        return _HANDLERS[args.command](args)
    except (ModelParseError, ValueError, OSError) as exc:
        print(f"loophom: error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
