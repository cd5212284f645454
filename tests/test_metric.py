"""Exact vs. BFS metrics, geodesics, quasi-geodesic fitting, enumeration."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periproj import (
    BfsBackend,
    CyclicFactor,
    ExactBackend,
    GroupSpec,
    OutOfRangeError,
    TableFactor,
    UnsupportedMetricError,
    VertexPath,
    ball,
    enumerate_geodesics,
    inv,
    mul,
    parse_element,
    quasigeodesic_constants,
    random_element,
)
from periproj.group import IDENTITY
from periproj.peripheral import coset_member, coset_of, cosets_meeting_ball
from periproj.verify import triangle_sample


def test_dist_exact_example(zxz2, zxz2_exact, zxz2_bfs6):
    y = parse_element(zxz2, "t u^3 v^-2")
    assert zxz2_exact.distance(IDENTITY, y) == 6
    assert zxz2_bfs6.distance(IDENTITY, y) == 6


def test_dist_self_zero(zxz2, zxz2_exact):
    x = parse_element(zxz2, "t u^3")
    assert zxz2_exact.distance(x, x) == 0


def test_dist_a_b(c2c3, c2c3_exact, c2c3_bfs10):
    a, b = parse_element(c2c3, "a"), parse_element(c2c3, "b")
    assert c2c3_exact.distance(a, b) == 2
    assert c2c3_bfs10.distance(a, b) == 2


def test_oracle_equivalence_small(c2c3, c2c3_exact, c2c3_bfs10):
    elems = list(ball(c2c3, 3))
    for x in elems:
        for y in elems:
            assert c2c3_exact.distance(x, y) == c2c3_bfs10.distance(x, y)


def test_exact_mode_rejects_extended(c2c3_ext):
    with pytest.raises(UnsupportedMetricError):
        ExactBackend(c2c3_ext).distance(IDENTITY, IDENTITY)


def test_geodesic_example(zxz2):
    y = parse_element(zxz2, "t u^2")
    path = ExactBackend(zxz2).geodesic(IDENTITY, y)
    assert path.vertices == [
        IDENTITY,
        parse_element(zxz2, "t"),
        parse_element(zxz2, "t u"),
        y,
    ]


def test_geodesic_trivial(zxz2):
    x = parse_element(zxz2, "t")
    path = ExactBackend(zxz2).geodesic(x, x)
    assert path.vertices == [x] and len(path) == 0


def test_geodesic_through_identity(c2c3):
    a, b = parse_element(c2c3, "a"), parse_element(c2c3, "b")
    path = ExactBackend(c2c3).geodesic(a, b)
    assert path.vertices == [a, IDENTITY, b]


def test_geodesic_steps_are_generators(zxz2, zxz2_exact):
    rng = random.Random(3)
    moves = dict(zxz2.moves())
    for _ in range(25):
        x = random_element(zxz2, rng, 4, 3)
        y = random_element(zxz2, rng, 4, 3)
        path = zxz2_exact.geodesic(x, y)
        assert len(path) == zxz2_exact.distance(x, y)
        for a, b, label in zip(path.vertices, path.vertices[1:], path.edges):
            assert mul(zxz2, a, moves[label]) == b


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_metric_axioms_hypothesis(zxz2, zxz2_exact, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_element(zxz2, rng, 4, 4)
    y = random_element(zxz2, rng, 4, 4)
    z = random_element(zxz2, rng, 4, 4)
    g = random_element(zxz2, rng, 3, 3)
    d = zxz2_exact.distance
    dxy = d(x, y)
    assert dxy == d(y, x)
    assert dxy >= 0 and (dxy == 0) == (x == y)
    assert dxy <= d(x, z) + d(z, y)
    assert d(mul(zxz2, g, x), mul(zxz2, g, y)) == dxy


def test_bfs_out_of_range(zxz2, zxz2_bfs6):
    far = parse_element(zxz2, "t u^9")
    with pytest.raises(OutOfRangeError):
        zxz2_bfs6.distance(IDENTITY, far)


def test_bfs_geodesic_matches_distance(zxz2_bfs6, zxz2):
    x = parse_element(zxz2, "t^-1 v")
    y = parse_element(zxz2, "u^2 t")
    path = zxz2_bfs6.geodesic(x, y)
    assert len(path) == zxz2_bfs6.distance(x, y)
    assert path.start == x and path.end == y


def test_extended_distance(ext_bfs8, c2c3_ext):
    assert ext_bfs8.distance(IDENTITY, parse_element(c2c3_ext, "a b")) == 1


def test_quasigeodesic_geodesic_is_1_0(zxz2, zxz2_exact):
    y = parse_element(zxz2, "t u^3 v^-2")
    path = zxz2_exact.geodesic(IDENTITY, y)
    assert quasigeodesic_constants(path, zxz2_exact) == (1, 0)


def test_quasigeodesic_backtracking(c2c3, c2c3_exact):
    a, b = parse_element(c2c3, "a"), parse_element(c2c3, "b")
    path = VertexPath([IDENTITY, a, IDENTITY, b])
    lam, mu = quasigeodesic_constants(path, c2c3_exact)
    # oracle: worst deficit over all vertex pairs by direct scan
    verts = path.vertices
    worst = max(
        (j - i) - c2c3_exact.distance(verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
    )
    assert lam == 1 and mu == worst == 2


def test_enumerate_geodesics_flat_pair(zxz2, zxz2_exact):
    y = parse_element(zxz2, "u v")
    paths, truncated = enumerate_geodesics(zxz2_exact, IDENTITY, y, 10)
    assert not truncated and len(paths) == 2
    for p in paths:
        assert len(p) == 2 and p.start == IDENTITY and p.end == y
    # deterministic order: the u-first route comes before the v-first route
    assert paths[0].vertices[1] == parse_element(zxz2, "u")


def test_enumerate_geodesics_cap(zxz2, zxz2_exact):
    y = parse_element(zxz2, "u^2 v^2")
    paths, truncated = enumerate_geodesics(zxz2_exact, IDENTITY, y, 3)
    assert truncated and len(paths) == 3


@pytest.fixture(scope="module")
def s3c2_exact():
    # a non-abelian peripheral factor, where s*h and h*s differ
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    s3 = TableFactor(table, {"s": index[(1, 0, 2)], "r": index[(1, 2, 0)]}, peripheral=True)
    return ExactBackend(GroupSpec([s3, CyclicFactor(2, "c")], name="s3c2"))


@pytest.mark.parametrize(
    "name, sample_radius",
    [("c2c3_exact", 4), ("s3c2_exact", 4), ("zxz2_exact", 4), ("ext_bfs8", 6), ("zxz2_bfs6", 3)],
)
def test_coset_distances_match_scalar(request, name, sample_radius):
    # distance_block from a ball to the points at factor levels 0-4 of each
    # coset meeting ball(3) equals the scalar distance on every certified
    # pair, and reads -1 exactly where the scalar path refuses; S3 * C2 is
    # the case where s*h and h*s differ
    backend = request.getfixturevalue(name)
    spec = backend.spec
    xs = list(ball(spec, sample_radius))
    refused = 0
    for P in cosets_meeting_ball(spec, ball(spec, 3)):
        f = spec.factors[P.factor_index]
        points = [coset_member(spec, P, h) for level in range(5) for h in f.elements_of_length(level)]
        block = backend.distance_block(xs, points)
        assert block.shape == (len(xs), len(points)) and block.dtype.name == "int32"
        for x, row in zip(xs, block.tolist()):
            for p, got in zip(points, row):
                try:
                    expected = backend.distance(x, p)
                except OutOfRangeError:
                    expected = -1
                    refused += 1
                assert got == expected
    assert (refused > 0) == isinstance(backend, BfsBackend)


PROJECT_CASES = [
    ("c2c3_exact", 4), ("s3c2_exact", 4), ("zxz2_exact", 4), ("ext_bfs8", 6), ("zxz2_bfs6", 4),
]


@pytest.mark.parametrize("name, sample_radius", PROJECT_CASES, ids=[n for n, _ in PROJECT_CASES])
def test_project_block_matches_scalar(request, name, sample_radius):
    # project_block equals project over every coset meeting ball(3) and the
    # whole sample ball, with None exactly where project refuses; in exact
    # mode the gate is read off the syllables, so S3 * C2, where s*h and h*s
    # differ, checks the prefix test
    backend = request.getfixturevalue(name)
    spec = backend.spec
    xs = list(ball(spec, sample_radius))
    refused = 0
    for P in cosets_meeting_ball(spec, ball(spec, 3)):
        for x, got in zip(xs, backend.project_block(P, xs), strict=True):
            try:
                assert got == backend.project(P, x)
            except OutOfRangeError:
                assert got is None
                refused += 1
    assert (refused > 0) == isinstance(backend, BfsBackend)


def _scalar_block(fn, rows, cols):
    """fn over rows x cols, -1 where it raises OutOfRangeError."""
    out = []
    for r in rows:
        line = []
        for c in cols:
            try:
                line.append(fn(r, c))
            except OutOfRangeError:
                line.append(-1)
        out.append(line)
    return out


def _mixed_inputs(spec, radius):
    """Rectangular block inputs besides balls: long-syllable triangle
    vertices, every syllable prefix of them, and ball elements on both
    sides, so the block holds equal pairs and pairs where one element is a
    proper prefix of the other."""
    rng = random.Random(5)
    long = [v for tri in triangle_sample(spec, rng, 8, exhaustive_radius=0) for v in tri]
    prefixes = list(dict.fromkeys(v[:j] for v in long for j in range(len(v))))
    xs = list(ball(spec, radius - 1)) + long
    ys = prefixes + list(ball(spec, 1))[::-1] + long[::2]
    assert len(xs) != len(ys) and set(xs) & set(ys)
    assert any(x != y and y[: len(x)] == x for x in xs for y in ys)
    assert any(x != y and x[: len(y)] == y for x in xs for y in ys)
    assert max(len(v) for v in long) >= 3
    return xs, ys


BLOCK_CASES = [
    ("c2c3_exact", 4), ("s3c2_exact", 4), ("zxz2_exact", 4), ("ext_bfs8", 6), ("zxz2_bfs6", 4),
]


@pytest.mark.parametrize("name, radius", BLOCK_CASES)
def test_distance_block_matches_scalar(request, name, radius):
    # the block equals the scalar distance on every certified pair of the
    # ball and of rectangular mixed inputs, and reads -1 exactly where the
    # scalar path refuses; empty inputs give empty blocks of the right shape
    backend = request.getfixturevalue(name)
    spec = backend.spec
    ball_xs = list(ball(spec, radius))
    refused = 0
    for xs, ys in ((ball_xs, ball_xs), _mixed_inputs(spec, radius)):
        block = backend.distance_block(xs, ys)
        assert block.shape == (len(xs), len(ys)) and block.dtype.name == "int32"
        expected = _scalar_block(backend.distance, xs, ys)
        assert block.tolist() == expected
        if xs is ball_xs:
            refused = sum(row.count(-1) for row in expected)
    assert (refused > 0) == isinstance(backend, BfsBackend)
    assert backend.distance_block([], ball_xs).shape == (0, len(ball_xs))
    assert backend.distance_block(ball_xs, []).shape == (len(ball_xs), 0)


@pytest.mark.parametrize("name, radius", BLOCK_CASES)
def test_coset_distance_block_matches_scalar(request, name, radius):
    # d(x, P) over cosets meeting a ball and cosets through long-syllable
    # elements and their prefixes, against the scalar coset_distance
    backend = request.getfixturevalue(name)
    spec = backend.spec
    xs, ys = _mixed_inputs(spec, radius)
    xs = list(ball(spec, radius)) + xs
    cosets = list(dict.fromkeys(
        cosets_meeting_ball(spec, ball(spec, 2))
        + [coset_of(spec, v, i) for v in ys for i in spec.peripheral_indices]
    ))
    block = backend.coset_distance_block(cosets, xs)
    assert block.shape == (len(cosets), len(xs)) and block.dtype.name == "int32"
    expected = _scalar_block(backend.coset_distance, cosets, xs)
    assert block.tolist() == expected
    assert (min(map(min, expected)) < 0) == isinstance(backend, BfsBackend)
    assert backend.coset_distance_block([], xs).shape == (0, len(xs))
    assert backend.coset_distance_block(cosets, []).shape == (len(cosets), 0)


def _dict_distance_block(backend, xs, ys):
    """The dict loop that the walk replaced: one product and one lookup of
    x^-1 y per cell, -1 outside the ball."""
    spec, table = backend.spec, dict(backend.table.items())
    out = np.empty((len(xs), len(ys)), dtype=np.int32)
    for k, x in enumerate(xs):
        xi = inv(spec, x)
        out[k] = [table.get(mul(spec, xi, y), -1) for y in ys]
    return out


def _dict_coset_distance_block(backend, cosets, xs):
    """The dict loop that the coset index replaced: d(x, P) is the distance
    of the first ball member, in BFS order, of the coset x^-1 P; -1 when the
    coset misses the ball."""
    spec, table = backend.spec, dict(backend.table.items())
    members = {}
    for g in table:
        for i in spec.peripheral_indices:
            members.setdefault(coset_of(spec, g, i), []).append(g)
    out = np.full((len(cosets), len(xs)), -1, dtype=np.int32)
    for r, P in enumerate(cosets):
        for c, x in enumerate(xs):
            Q = coset_of(spec, mul(spec, inv(spec, x), P.rep), P.factor_index)
            if Q in members:
                out[r, c] = table[members[Q][0]]
    return out


@pytest.fixture(scope="module")
def c3c5_offball_bfs3():
    # the intermediate products of the word moves leave nodes off the ball
    # that prefix ball elements, so some coset keys lie past the ball
    factors = [CyclicFactor(3, "a", peripheral=True), CyclicFactor(5, "b", peripheral=True)]
    base = GroupSpec(factors)
    words = [("p", parse_element(base, "a b a b")), ("q", parse_element(base, "a b^2 a"))]
    return BfsBackend(GroupSpec(factors, extra_generators=words, name="c3c5-pq"), 3)


@pytest.mark.parametrize("name", ["ext_bfs8", "zxz2_bfs6", "c2c3_bfs10", "c3c5_offball_bfs3"])
def test_bfs_blocks_match_dict_loop(request, name):
    # the walks against the dict loops on an exhaustive ball past half the
    # radius plus elements outside the ball, where a walk leaves the ball
    # in cells whose value is still certified
    backend = request.getfixturevalue(name)
    spec, table = backend.spec, backend.table
    if name == "c3c5_offball_bfs3":
        assert any(table.cosets(i).key.max() >= len(table) for i in spec.peripheral_indices)
    outside = [w for w in ball(spec, backend.radius + 1) if w not in table][:25]
    xs = list(ball(spec, backend.radius // 2 + 1)) + outside
    starts = [table.id_of(inv(spec, x)) for x in xs]

    expected = _dict_distance_block(backend, xs, xs)
    assert np.array_equal(backend.distance_block(xs, xs), expected)
    left = table.walk(starts, [table.id_of(y) for y in xs]) < 0
    assert (left & (expected >= 0)).any() and (left & (expected < 0)).any()

    cosets = list(dict.fromkeys(coset_of(spec, x, i) for x in xs for i in spec.peripheral_indices))
    expected = _dict_coset_distance_block(backend, cosets, xs)
    assert np.array_equal(backend.coset_distance_block(cosets, xs), expected)
    left = table.walk(starts, [table.id_of(P.rep) for P in cosets]).T < 0
    assert (left & (expected >= 0)).any() and (left & (expected < 0)).any()


def test_exact_distance_block_overflow_raises(zxz2, zxz2_exact):
    # two syllables of length 2^30: the distance 2^31 does not fit the int32
    # block, which must refuse it rather than wrap
    x = ((0, 2**30), (1, (2**30, 0)))
    assert zxz2_exact.distance(IDENTITY, x) == 2**31
    with pytest.raises(OverflowError):
        zxz2_exact.distance_block([IDENTITY], [x])


def _greedy_bfs_geodesic(backend, x, y):
    """The hand-written greedy loop that ``greedy_moves`` replaced: from
    x^-1 y, the first move g (generating-set order) with g^-1 w one ball
    level lower, until the identity."""
    spec, table = backend.spec, backend.table
    moves = [(label, g, inv(spec, g)) for label, g in spec.moves()]
    w = mul(spec, inv(spec, x), y)
    d = table.get(w)
    if d is None:
        raise OutOfRangeError("outside the ball")
    vertices, labels, cur = [x], [], x
    while w:
        for label, g, g_inv in moves:
            nw = mul(spec, g_inv, w)
            if table.get(nw) == d - 1:
                break
        cur = mul(spec, cur, g)
        vertices.append(cur)
        labels.append(label)
        w, d = nw, d - 1
    return vertices, labels


@pytest.mark.parametrize(
    "name, start", [("ext_bfs8", "a"), ("ext_bfs8", "b a b"), ("zxz2_bfs6", "t u v")],
)
def test_bfs_geodesic_matches_greedy_reference(request, name, start):
    # the same vertices and labels as the old loop for every target of
    # ball(4), from the identity and from a non-identity start; from "t u v"
    # some zxz2 targets lie past radius 6, and both refuse them
    backend = request.getfixturevalue(name)
    spec = backend.spec
    refused = 0
    for x in (IDENTITY, parse_element(spec, start)):
        for y in ball(spec, 4):
            try:
                expected = _greedy_bfs_geodesic(backend, x, y)
            except OutOfRangeError:
                refused += 1
                with pytest.raises(OutOfRangeError):
                    backend.geodesic(x, y)
                continue
            path = backend.geodesic(x, y)
            assert (path.vertices, path.edges) == expected
    assert (refused > 0) == (name == "zxz2_bfs6")


@pytest.mark.parametrize("name", ["c2c3_exact", "s3c2_exact", "zxz2_exact"])
def test_exact_blocks_on_equal_and_prefix_pairs(request, name):
    # the shared-prefix count of the exact blocks: x = y (the equality mask
    # runs on past both ends) and x a proper syllable prefix of y or y of x
    # (it stops at the shorter end), against the scalar paths
    backend = request.getfixturevalue(name)
    spec = backend.spec
    rng = random.Random(3)
    words = [random_element(spec, rng, 6, 4) for _ in range(10)]
    pts = list(dict.fromkeys(w[:j] for w in words for j in range(len(w) + 1)))
    assert any(len(p) >= 4 for p in pts)
    for xs in ([p] for p in pts):
        assert backend.distance_block(xs, xs).tolist() == [[0]]
    block = backend.distance_block(pts, pts)
    assert block.tolist() == _scalar_block(backend.distance, pts, pts)
    assert not np.diagonal(block).any()
    cosets = list(dict.fromkeys(coset_of(spec, p, i) for p in pts for i in spec.peripheral_indices))
    assert any(P.rep == p for P in cosets for p in pts)
    expected = _scalar_block(backend.coset_distance, cosets, pts)
    assert backend.coset_distance_block(cosets, pts).tolist() == expected
