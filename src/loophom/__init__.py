"""Exact calculator for loop-homology rings and their surface operations.

Models are finitely presented graded-commutative algebras over the
integers with the extra string-topology data (dimension, Euler
characteristic, constant-loop class, optional BV operator and bracket);
on top sit the loop product and coproduct, tensor powers, and the
operation attached to any oriented cobordism type.
"""

from .algebra import (
    INHOMOGENEOUS,
    ZERO,
    Element,
    GeneratorSpec,
    LoopModel,
    ModelError,
    Monomial,
    Relation,
    validate_model,
)
from .builtins import builtin_model, projective_space, sphere, toy_bv0
from .coalgebra import (
    TensorElement,
    apply_delta_factorwise,
    apply_psi,
    contract,
    psi,
    psi_mirror,
    psi_split,
    tensor,
    tensor_add,
    tensor_scale,
    tensor_zero,
    twist,
)
from .expr import EvalError, ExprError, evaluate, parse_expr, run_expr
from .modelfile import ModelDoc, ModelParseError, load_model, parse_model, print_model
from .tqft import (
    Surface,
    VanishingReason,
    sew,
    string_operation,
    string_operation_via_pants,
    vanishing_certificate,
)

__version__ = "0.1.0"

# The law suite is loaded on first use (PEP 562), so that importing the
# package for eval, basis or tqft does not load it.
_CHECKS_NAMES = frozenset({"checks", "CheckReport", "CheckResult", "DenseOracle", "run_checks"})


def __getattr__(name):
    if name in _CHECKS_NAMES:
        from importlib import import_module

        checks = import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "INHOMOGENEOUS",
    "ZERO",
    "CheckReport",
    "CheckResult",
    "DenseOracle",
    "Element",
    "EvalError",
    "ExprError",
    "GeneratorSpec",
    "LoopModel",
    "ModelDoc",
    "ModelError",
    "ModelParseError",
    "Monomial",
    "Relation",
    "Surface",
    "TensorElement",
    "VanishingReason",
    "apply_delta_factorwise",
    "apply_psi",
    "builtin_model",
    "contract",
    "evaluate",
    "load_model",
    "parse_expr",
    "parse_model",
    "print_model",
    "projective_space",
    "psi",
    "psi_mirror",
    "psi_split",
    "run_checks",
    "run_expr",
    "sew",
    "sphere",
    "string_operation",
    "string_operation_via_pants",
    "tensor",
    "tensor_add",
    "tensor_scale",
    "tensor_zero",
    "toy_bv0",
    "twist",
    "validate_model",
    "vanishing_certificate",
]
