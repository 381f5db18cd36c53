"""Hypothesis strategies shared by the tests.

:func:`models` draws presentations that ``LoopModel`` accepts by
construction, so no draw is thrown away.  Its generators are central,
with every bracket and BV value zero, or active.  The constant-loop class
``c`` and every even generator of degree <= 0, which needs a cap, are
central; the others are drawn central or active.  Every relation ``k*m``,
caps included, has ``m`` in central generators only, and ``m`` is
neither ``1`` nor ``c``, so ``c0 = c`` survives.  In the closed forms of
the ``loophom.algebra`` docstring each term of ``{g, m}`` and of ``D(m)``
carries a ``B_kl`` or a ``D_k`` with ``g_k`` a letter of ``m``, which is
zero; so ``k*{g, m} = 0``, ``k*D(m) = 0`` and, likewise, ``D(c0) = 0``.
Each unordered pair of generators has one bracket entry, so antisymmetry
cannot conflict, and an odd self-bracket is zero, as BV data requires.  Torsion still reaches the bracket: with ``3*z = 0`` the value
``{g, z*s} = ±z*{g, s}`` is reduced mod 3.
"""

from hypothesis import strategies as st

from loophom import LoopModel


def window_monomials(model, window):
    return [m for _, m, _ in model.basis_window(window)]


def elements(model, window=6, max_terms=3, max_coeff=5):
    """Hypothesis strategy for random elements of a model."""
    basis = window_monomials(model, window)
    pair = st.tuples(st.integers(-max_coeff, max_coeff), st.sampled_from(basis))
    return st.lists(pair, max_size=max_terms).map(model.normal_form)


def _value(draw, want):
    """A combination of basis monomials of degree ``want``, picked by
    position once the model's basis is known; zero if there are none."""
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])
    picks = draw(st.lists(st.tuples(coeffs, st.integers(0, 99)), min_size=1, max_size=3))

    def build(model):
        basis = model.enumerate_basis(want)
        return model.normal_form([(c, basis[k % len(basis)][0]) for c, k in picks if basis])

    return build


@st.composite
def models(draw, euler=st.just(0)):
    """A random model: ``c`` of degree ``-dim`` and two to five generators
    of degree -3 to 5 in a drawn declaration order, caps, torsion
    relations, and a bracket value on every pair and a BV value on every
    generator, zero unless all of its generators are active.  The Euler
    characteristic is drawn from ``euler`` when ``dim`` is even and is 0
    otherwise; a nonzero one need not satisfy the coproduct laws."""
    dim = draw(st.integers(1, 4))
    drawn = draw(st.lists(st.integers(-3, 5), min_size=2, max_size=5))
    degrees = {"c": -dim, **{f"g{i}": d for i, d in enumerate(drawn)}}
    central, relations = [], []
    for name, d in degrees.items():
        if name == "c" or d <= 0 and d % 2 == 0 or draw(st.integers(0, 3)) == 3:
            central.append(name)
            if d % 2 == 0 and (d <= 0 or draw(st.booleans())):
                relations.append((1, {name: draw(st.integers(1 + (name == "c"), 3))}))
    for _ in range(draw(st.integers(1, 2))):
        mono = {name: e for name in central if (e := draw(st.integers(0, 2)))}
        if mono and mono != {"c": 1}:
            relations.append((draw(st.sampled_from([2, 3, 4, 6])), mono))
    names = list(degrees)
    bracket = {}
    for i, g in enumerate(names):
        for h in names[i:]:
            key = (g, h) if draw(st.booleans()) else (h, g)
            live = g not in central and h not in central and (g != h or degrees[g] % 2 == 0)
            bracket[key] = _value(draw, degrees[g] + degrees[h] + 1) if live else 0
    return LoopModel(
        dim=dim,
        euler=draw(euler) if dim % 2 == 0 else 0,
        generators=draw(st.permutations(list(degrees.items()))),
        relations=relations,
        c0={"c": 1},
        delta={g: 0 if g in central else _value(draw, d + 1) for g, d in degrees.items()},
        bracket=bracket,
    )
