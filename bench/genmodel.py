"""Model-file text for the benchmark's scale models.

The factors are written out here from the presentations the README
documents for the built-in families, so the benchmark does not ask the
program under test to describe its own inputs.  ``product`` forms the
tensor product of two presentations: the union of generators and
relations, dimensions added, Euler characteristics multiplied and
``c0 = c0 (x) c0``.  By Cohen-Jones the tensor-product ring is the loop
homology of ``M x N``; over the integers that holds only when no torsion
prime is shared (otherwise the Kuenneth Tor terms are missing), so such
factors are refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Presentation:
    dim: int
    euler: int
    generators: tuple[tuple[str, int], ...]  # (name, degree)
    relations: tuple[tuple[int, str], ...]  # (coefficient, monomial)
    c0: str
    simply_connected: bool = True

    def text(self) -> str:
        lines = [f"dim = {self.dim}", f"euler = {self.euler}"]
        lines += [f"generator {name} deg = {deg}" for name, deg in self.generators]
        lines += [f"relation {k} * {m}" for k, m in self.relations]
        lines.append(f"c0 = {self.c0}")
        if self.simply_connected:
            lines.append("flag simply_connected")
        return "\n".join(lines) + "\n"


def sphere(n: int) -> Presentation:
    """Presentation of ``sphere:N``."""
    if n < 2:
        raise ValueError(f"sphere:{n} needs N >= 2")
    if n % 2 == 0:
        return Presentation(
            n, 2, (("b", -1), ("a", -n), ("v", 2 * n - 2)), ((1, "a^2"), (1, "a*b"), (2, "a*v")), "a"
        )
    return Presentation(n, 0, (("b", -n), ("v", n - 1)), (), "b")


def cpn(n: int) -> Presentation:
    """Presentation of ``cpn:N``."""
    if n < 1:
        raise ValueError(f"cpn:{n} needs N >= 1")
    return Presentation(
        2 * n, n + 1, (("w", -1), ("c", -2), ("u", 2 * n)),
        ((1, f"c^{n + 1}"), (n + 1, f"c^{n}*u"), (1, f"w*c^{n}")), f"c^{n}",
    )


def factor(name: str) -> Presentation:
    """A factor given as ``sphere:N`` or ``cpn:N``."""
    kind, _, arg = name.partition(":")
    builders = {"sphere": sphere, "cpn": cpn}
    if kind not in builders or not arg.isdigit():
        raise ValueError(f"unknown factor {name!r} (use sphere:N or cpn:N)")
    return builders[kind](int(arg))


def _primes(k: int) -> set[int]:
    out, d = set(), 2
    while d * d <= k:
        while k % d == 0:
            out.add(d)
            k //= d
        d += 1
    if k > 1:
        out.add(k)
    return out


def torsion_primes(p: Presentation) -> set[int]:
    primes: set[int] = set()
    for coeff, _ in p.relations:
        primes |= _primes(coeff)
    return primes


def _factor_of_c0(c0: str) -> str:
    return c0 if re.fullmatch(r"[\w^*]+", c0) else f"({c0})"


def product(a: Presentation, b: Presentation) -> Presentation:
    """The tensor product of two presentations."""
    clash = {name for name, _ in a.generators} & {name for name, _ in b.generators}
    if clash:
        raise ValueError(f"factors share generator names {sorted(clash)}")
    shared = torsion_primes(a) & torsion_primes(b)
    if shared:
        raise ValueError(
            f"factors share torsion primes {sorted(shared)}: the tensor product "
            "misses the Kuenneth Tor terms there"
        )
    return Presentation(
        a.dim + b.dim, a.euler * b.euler, a.generators + b.generators, a.relations + b.relations,
        f"{_factor_of_c0(a.c0)}*{_factor_of_c0(b.c0)}", a.simply_connected and b.simply_connected,
    )


def product_of(*names: str) -> str:
    """Model-file text of the product of named factors, e.g.
    ``product_of("sphere:2", "cpn:2")``."""
    p = factor(names[0])
    for name in names[1:]:
        p = product(p, factor(name))
    return f"# {' x '.join(names)}\n" + p.text()
