"""Shared fixtures: the three reference groups and their backends, and the
closest-point reference ``ball_minimizers``.

Session scope keeps the expensive BFS tables (notably ``zxz2_bfs8``, the
radius-8 ball of Z * Z^2) shared across test modules.
"""

import pytest

from periproj import (
    BfsBackend,
    ConedOffBackend,
    CyclicFactor,
    ExactBackend,
    FreeAbelianRank2Factor,
    GroupSpec,
    InfiniteCyclicFactor,
    coset_of,
    inv,
    mul,
    parse_element,
)


def ball_minimizers(bfs, P, x):
    """(d(x, P), the points x*g of P at that distance) read off the
    exhaustive ball of the BFS backend ``bfs``: g runs over the nearest ball
    members of the coset x^-1 P, which are the true minimizers because the
    ball holds every element within its radius.  None when that coset has
    no ball member."""
    spec, table = bfs.spec, bfs.table
    index = table.cosets(P.factor_index)
    key = table.coset_key(coset_of(spec, mul(spec, inv(spec, x), P.rep), P.factor_index).rep)
    d = index.distance(key)
    if d < 0:
        return None
    return d, [mul(spec, x, g) for g in index.nearest(key)]


@pytest.fixture(scope="session")
def c2c3():
    return GroupSpec(
        [CyclicFactor(2, "a", peripheral=True), CyclicFactor(3, "b", peripheral=True)],
        name="c2c3",
    )


@pytest.fixture(scope="session")
def zxz2():
    return GroupSpec(
        [InfiniteCyclicFactor("t"), FreeAbelianRank2Factor("u", "v", peripheral=True)],
        name="zxz2",
    )


@pytest.fixture(scope="session")
def c2c3_ext(c2c3):
    factors = [
        CyclicFactor(2, "a", peripheral=True),
        CyclicFactor(3, "b", peripheral=True),
    ]
    ab = parse_element(c2c3, "a b")
    return GroupSpec(factors, extra_generators=[("ab", ab)], name="c2c3-ext")


@pytest.fixture(scope="session")
def c2c3_exact(c2c3):
    return ExactBackend(c2c3)


@pytest.fixture(scope="session")
def zxz2_exact(zxz2):
    return ExactBackend(zxz2)


@pytest.fixture(scope="session")
def c2c3_bfs10(c2c3):
    return BfsBackend(c2c3, 10)


@pytest.fixture(scope="session")
def zxz2_bfs6(zxz2):
    return BfsBackend(zxz2, 6)


@pytest.fixture(scope="session")
def zxz2_bfs8(zxz2):
    return BfsBackend(zxz2, 8)


@pytest.fixture(scope="session")
def ext_bfs8(c2c3_ext):
    return BfsBackend(c2c3_ext, 8)


@pytest.fixture(scope="session")
def zxz2_hat5(zxz2):
    return ConedOffBackend(zxz2, radius=5)


@pytest.fixture(scope="session")
def c2c3_hat5(c2c3):
    return ConedOffBackend(c2c3, radius=5)


@pytest.fixture(scope="session")
def ext_hat8(c2c3_ext):
    return ConedOffBackend(c2c3_ext, radius=8)
