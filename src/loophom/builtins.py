"""Built-in models addressable by name.

``sphere:N``   loop homology of the N-sphere, N >= 2.  Even N uses the
               presentation Lambda(b) (x) Z[a,v] / (a^2, a*b, 2*a*v) with
               b in degree -1, a in degree -N, v in degree 2N-2, euler
               characteristic 2 and constant-loop class a.  Odd N ships
               the rank-one exterior-times-polynomial presentation
               Lambda(b) (x) Z[v] with euler characteristic 0, purely to
               exercise the chi = 0 behaviour of the coproduct.
``cpn:N``      loop homology of complex projective N-space, N >= 1:
               Lambda(w) (x) Z[c,u] / (c^(N+1), (N+1)*c^N*u, w*c^N) with
               w: -1, c: -2, u: 2N, euler characteristic N+1 and
               constant-loop class c^N.
``toy:bv0``    two odd degree -1 generators with zero BV operator and
               zero brackets; plumbing for the bracket/BV code paths.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .algebra import LoopModel, parse_int

_BUILTIN_RE = re.compile(r"^(sphere|cpn|toy):(.+)\Z")


@lru_cache(maxsize=None)
def sphere(n: int) -> LoopModel:
    """Loop homology of the n-sphere, n >= 2."""
    if n < 2:
        raise ValueError(f"sphere:{n} is not supported (need N >= 2)")
    if n % 2 == 0:
        return LoopModel(
            dim=n,
            euler=2,
            generators=[("b", -1), ("a", -n), ("v", 2 * n - 2)],
            relations=[
                (1, {"a": 2}),
                (1, {"a": 1, "b": 1}),
                (2, {"a": 1, "v": 1}),
            ],
            c0={"a": 1},
            simply_connected=True,
        )
    return LoopModel(
        dim=n,
        euler=0,
        generators=[("b", -n), ("v", n - 1)],
        c0={"b": 1},
        simply_connected=True,
    )


@lru_cache(maxsize=None)
def projective_space(n: int) -> LoopModel:
    """Loop homology of complex projective n-space, n >= 1."""
    if n < 1:
        raise ValueError(f"cpn:{n} is not supported (need N >= 1)")
    return LoopModel(
        dim=2 * n,
        euler=n + 1,
        generators=[("w", -1), ("c", -2), ("u", 2 * n)],
        relations=[
            (1, {"c": n + 1}),
            (n + 1, {"c": n, "u": 1}),
            (1, {"w": 1, "c": n}),
        ],
        c0={"c": n},
        simply_connected=True,
    )


@lru_cache(maxsize=None)
def toy_bv0() -> LoopModel:
    """Two odd generators with zero BV data; c0 is their product."""
    return LoopModel(
        dim=2,
        euler=2,
        generators=[("y", -1, True), ("z", -1, True)],
        c0={"y": 1, "z": 1},
        delta={"y": 0, "z": 0},
        bracket={("y", "z"): 0},
        simply_connected=True,
    )


def builtin_model(name: str) -> LoopModel | None:
    """Resolve a built-in model name; None when the name is not built-in
    shaped, ValueError when it is but the parameter is bad."""
    m = _BUILTIN_RE.match(name)
    if not m:
        return None
    kind, arg = m.groups()
    if kind == "toy":
        if arg != "bv0":
            raise ValueError(f"unknown toy model 'toy:{arg}' (try toy:bv0)")
        return toy_bv0()
    if not arg.isdecimal():
        raise ValueError(f"bad parameter in '{name}': expected an integer")
    try:
        n = parse_int(arg)
    except ValueError as exc:
        raise ValueError(f"bad parameter in '{name}': {exc}") from None
    return sphere(n) if kind == "sphere" else projective_space(n)
