import pytest

from loophom import LoopModel, projective_space, sphere, toy_bv0


@pytest.fixture(scope="session")
def s2():
    return sphere(2)


@pytest.fixture(scope="session")
def s4():
    return sphere(4)


@pytest.fixture(scope="session")
def s6():
    return sphere(6)


@pytest.fixture(scope="session")
def s3():
    return sphere(3)


@pytest.fixture(scope="session")
def cp1():
    return projective_space(1)


@pytest.fixture(scope="session")
def cp2():
    return projective_space(2)


@pytest.fixture(scope="session")
def toy():
    return toy_bv0()


@pytest.fixture(scope="session")
def bv_model():
    """Exterior-times-polynomial algebra with a nonzero bracket, used to
    exercise the Leibniz extension and every sign path; chi = 0 because
    the dimension is odd."""
    return LoopModel(
        dim=3,
        euler=0,
        generators=[("a", -3, True), ("v", 2)],
        c0={"a": 1},
        delta={"a": 0, "v": 0},
        bracket={("a", "v"): 1},
        simply_connected=True,
    )


@pytest.fixture(scope="session")
def odd_interleaved():
    """Four odd generators interleaved with even ones, so that product
    signs count several inversions at once; chi = 0 because the dimension
    is odd."""
    return LoopModel(
        dim=3,
        euler=0,
        generators=[("x", -1), ("a", -2), ("y", -1), ("v", 2), ("z", -3), ("t", -1)],
        relations=[(1, {"a": 2})],
        c0={"z": 1},
    )


@pytest.fixture(scope="session")
def corrupted_s4():
    """The sphere:4 presentation with its torsion relation dropped; valid
    as an algebra but inconsistent with string topology."""
    return LoopModel(
        dim=4,
        euler=2,
        generators=[("b", -1), ("a", -4), ("v", 6)],
        relations=[(1, {"a": 2}), (1, {"a": 1, "b": 1})],
        c0={"a": 1},
    )


@pytest.fixture(scope="session")
def s2_cp2():
    """The sphere:2 x cpn:2 presentation: two factors with the coprime
    torsion primes 2 and 3, and four even generators."""
    return LoopModel(
        dim=6,
        euler=6,
        generators=[("b", -1), ("a", -2), ("v", 2), ("w", -1), ("c", -2), ("u", 4)],
        relations=[
            (1, {"a": 2}),
            (1, {"a": 1, "b": 1}),
            (2, {"a": 1, "v": 1}),
            (1, {"c": 3}),
            (3, {"c": 2, "u": 1}),
            (1, {"w": 1, "c": 2}),
        ],
        c0={"a": 1, "c": 2},
        simply_connected=True,
    )


@pytest.fixture
def count_mul(monkeypatch):
    """``count_mul(model)`` wraps ``model.mul`` for this test and returns
    a one-item list holding the number of calls made since."""

    def wrap(model):
        calls = [0]
        real = model.mul

        def counted(a, b):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(model, "mul", counted)
        return calls

    return wrap
