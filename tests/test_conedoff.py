"""Coned-off distances, geodesics, lifts, enumeration, and penetration checks."""

import itertools
import random
from collections import deque

import pytest

from periproj import (
    BfsBackend,
    ConedOffBackend,
    Coset,
    CyclicFactor,
    ExactBackend,
    GroupSpec,
    InfiniteCyclicFactor,
    FreeAbelianRank2Factor,
    OutOfRangeError,
    TableFactor,
    UnsupportedMetricError,
    VertexPath,
    ball,
    check_bcp,
    inv,
    lift,
    mul,
    parse_element,
    quasigeodesic_constants,
    random_element,
)
from periproj.conedoff import (
    _coset_geodesic,
    _translate,
    path_crossings,
)
from periproj.group import IDENTITY, sort_key
from periproj.peripheral import contains, coset_of


def test_dist_hat_example(zxz2, zxz2_hat5):
    y = parse_element(zxz2, "t u^3 v^-2")
    assert ConedOffBackend(zxz2).distance(IDENTITY, y) == 2


def test_dist_hat_self(zxz2):
    x = parse_element(zxz2, "t u")
    assert ConedOffBackend(zxz2).distance(x, x) == 0


def test_dist_hat_all_peripheral(c2c3):
    y = parse_element(c2c3, "a b a b")
    assert ConedOffBackend(c2c3).distance(IDENTITY, y) == 4


def test_hat_formula_equals_bfs_exhaustive(c2c3, zxz2, c2c3_hat5, zxz2_hat5):
    for spec, hb in ((c2c3, c2c3_hat5), (zxz2, zxz2_hat5)):
        for w in hb.gtable:
            assert hb.window_distance(IDENTITY, w) == ConedOffBackend(spec).distance(IDENTITY, w)


def test_hat_is_lipschitz(zxz2, zxz2_exact):
    rng = random.Random(12)
    for _ in range(60):
        x = random_element(zxz2, rng, 5, 5)
        y = random_element(zxz2, rng, 5, 5)
        assert ConedOffBackend(zxz2).distance(x, y) <= zxz2_exact.distance(x, y)


def test_geodesic_hat_example(zxz2):
    y = parse_element(zxz2, "t u^5")
    path = ConedOffBackend(zxz2).geodesic(IDENTITY, y)
    assert len(path) == 2
    assert path.edges[0] == "t"
    assert isinstance(path.edges[1], Coset)
    assert path.edges[1].rep == parse_element(zxz2, "t")


def test_geodesic_hat_trivial(zxz2):
    x = parse_element(zxz2, "t")
    path = ConedOffBackend(zxz2).geodesic(x, x)
    assert len(path) == 0 and path.vertices == [x]


def test_geodesic_hat_tie_breaks_to_cayley(zxz2):
    path = ConedOffBackend(zxz2).geodesic(IDENTITY, parse_element(zxz2, "u"))
    assert path.edges == ["u"]


def test_cone_edges_join_coset_members(zxz2):
    rng = random.Random(3)
    for _ in range(30):
        x = random_element(zxz2, rng, 4, 5)
        y = random_element(zxz2, rng, 4, 5)
        path = ConedOffBackend(zxz2).geodesic(x, y)
        assert len(path) == ConedOffBackend(zxz2).distance(x, y)
        for edge, u, v in zip(path.edges, path.vertices, path.vertices[1:]):
            if isinstance(edge, Coset):
                assert u != v
                assert contains(zxz2, edge, u) and contains(zxz2, edge, v)


def test_lift_example(zxz2, zxz2_exact):
    y = parse_element(zxz2, "t u^5")
    lifted = lift(zxz2, ConedOffBackend(zxz2).geodesic(IDENTITY, y))
    assert len(lifted) == 6 == zxz2_exact.distance(IDENTITY, y)
    assert lifted.start == IDENTITY and lifted.end == y


def test_lift_all_cayley_identity(zxz2):
    path = ConedOffBackend(zxz2).geodesic(IDENTITY, parse_element(zxz2, "t^3"))
    assert all(isinstance(edge, str) for edge in path.edges)
    lifted = lift(zxz2, path)
    assert lifted.vertices == path.vertices


def test_lifts_are_geodesics_exact(zxz2, zxz2_exact):
    rng = random.Random(8)
    for _ in range(25):
        x = random_element(zxz2, rng, 4, 5)
        y = random_element(zxz2, rng, 4, 5)
        lifted = lift(zxz2, ConedOffBackend(zxz2).geodesic(x, y))
        assert quasigeodesic_constants(lifted, zxz2_exact) == (1, 0)


@pytest.mark.parametrize(
    "k, labels",
    [(1, ["b"]), (2, ["b", "b"]), (3, ["w"]), (4, ["w^-1"]), (5, ["b", "w^-1"]), (6, ["b^-1"])],
)
def test_lift_uses_in_factor_extra_generators(k, labels):
    # a cone edge in a factor that holds an extra generator (w = b^3) lifts
    # to a geodesic of the coset graph over b and w, found by the in-coset BFS
    factors = [CyclicFactor(7, "b", peripheral=True), CyclicFactor(2, "a", peripheral=True)]
    spec = GroupSpec(factors, extra_generators=[("w", parse_element(GroupSpec(factors), "b^3"))])
    x = parse_element(spec, "a")
    y = parse_element(spec, f"a b^{k}")
    lifted = lift(spec, VertexPath([x, y], [coset_of(spec, x, 0)]))
    assert lifted.edges == labels
    assert lifted.start == x and lifted.end == y
    assert all(contains(spec, coset_of(spec, x, 0), v) for v in lifted.vertices)


def _coset_geodesic_bfs(spec, i, h1, h2):
    """The in-coset BFS that lifts ran before ``greedy_moves`` replaced it:
    the factor's moves, then each extra generator in factor i and its
    inverse, and a BFS from h1 with parent pointers."""
    f = spec.factors[i]
    extras = [
        (name, w[0][1]) for name, w in spec.extra_generators if len(w) == 1 and w[0][0] == i
    ]
    moves = list(f.moves())
    for name, g in extras:
        for lab, coord in ((name, g), (name + "^-1", f.inv(g))):
            if all(coord != c for _, c in moves):
                moves.append((lab, coord))
    prev = {h1: None}
    frontier = deque([h1])
    while frontier:
        cur = frontier.popleft()
        if cur == h2:
            break
        for lab, g in moves:
            nxt = f.mul(cur, g)
            if nxt not in prev:
                prev[nxt] = (cur, (lab, g))
                frontier.append(nxt)
    steps = []
    cur = h2
    while prev[cur] is not None:
        cur, step = prev[cur]
        steps.append(step)
    return steps[::-1]


def _sym_table(n):
    """Sym(n) as a multiplication table; composition left to right."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[j]] for j in range(n))] for q in perms] for p in perms]
    return table, index


def _in_factor_cases():
    """(spec, factor index, coordinates) with extra generators in that factor."""
    for n in range(5, 13):
        factors = [CyclicFactor(2, "a", peripheral=True), CyclicFactor(n, "b", peripheral=True)]
        base = GroupSpec(factors)
        for k in range(2, n - 1):
            w = ("w", parse_element(base, f"b^{k}"))
            for extras in ([w], [("ab", parse_element(base, "a b")), w]):
                yield GroupSpec(factors, extra_generators=extras), 1, range(n)
    s3, i3 = _sym_table(3)
    s4, i4 = _sym_table(4)
    for table, index, gens in (
        (s3, i3, {"s": i3[(1, 0, 2)], "r": i3[(1, 2, 0)]}),
        (s4, i4, {"s": i4[(1, 0, 2, 3)], "r": i4[(1, 2, 3, 0)]}),
    ):
        factors = [TableFactor(table, gens, peripheral=True), CyclicFactor(2, "c")]
        others = [x for x in range(len(table)) if x != factors[0].identity]
        chosen = [[x] for x in others] + [list(p) for p in itertools.combinations(others[:6], 2)]
        for extra in chosen:
            extras = [(f"w{j}", ((0, x),)) for j, x in enumerate(extra)]
            yield GroupSpec(factors, extra_generators=extras), 0, range(len(table))


def test_coset_geodesic_matches_bfs_reference():
    # both walkers return the shortlex-least geodesic word over the same
    # ordered moves: every (h1, h2) of C5..C12 with an extra b^k (with and
    # without the word extra ab listed first), and of S3 and S4 with one or
    # two extras in the table factor
    pairs = 0
    for spec, i, coords in _in_factor_cases():
        for h1 in coords:
            for h2 in coords:
                assert _coset_geodesic(spec, i, h1, h2) == _coset_geodesic_bfs(spec, i, h1, h2)
                pairs += 1
    assert pairs > 18_000


def test_coset_geodesic_budget():
    # an extra generator in an infinite peripheral factor: a direct lift
    # reaches the factor, and a far target exhausts the search budget
    factors = [InfiniteCyclicFactor("t", peripheral=True), CyclicFactor(2, "a")]
    spec = GroupSpec(factors, extra_generators=[("w", parse_element(GroupSpec(factors), "t^3"))])
    near = parse_element(spec, "t^8")
    assert _coset_geodesic(spec, 0, 0, 8) == _coset_geodesic_bfs(spec, 0, 0, 8)
    cone = [coset_of(spec, IDENTITY, 0)]
    assert lift(spec, VertexPath([IDENTITY, near], cone)).edges == ["t", "t", "w", "w"]
    far = parse_element(spec, "t^1000000")
    with pytest.raises(OutOfRangeError):
        lift(spec, VertexPath([IDENTITY, far], cone))


def test_enumerate_geodesics_deterministic(zxz2, zxz2_hat5):
    w = parse_element(zxz2, "u")
    first, _ = zxz2_hat5.enumerate_geodesics(IDENTITY, w, 50)
    second, _ = zxz2_hat5.enumerate_geodesics(IDENTITY, w, 50)
    assert [p.edges for p in first] == [p.edges for p in second]
    # parallel Cayley and cone edges both count, Cayley first
    assert len(first) == 2
    assert isinstance(first[0].edges[0], str) and isinstance(first[1].edges[0], Coset)


def test_enumerate_geodesics_translated(zxz2, zxz2_hat5):
    x = parse_element(zxz2, "t")
    y = parse_element(zxz2, "t u^3")
    paths, _ = zxz2_hat5.enumerate_geodesics(x, y, 10)
    assert paths
    for p in paths:
        assert p.start == x and p.end == y


def test_enumeration_needs_window(zxz2):
    backend = ConedOffBackend(zxz2)  # exact formula only
    with pytest.raises(UnsupportedMetricError):
        backend.enumerate_geodesics(IDENTITY, parse_element(zxz2, "u"), 10)


def test_window_out_of_range(zxz2, zxz2_hat5):
    far = parse_element(zxz2, "t u^9")
    with pytest.raises(OutOfRangeError):
        zxz2_hat5.window_distance(IDENTITY, far)


def test_extended_infinite_peripheral_rejected():
    z = InfiniteCyclicFactor("t")
    z2 = FreeAbelianRank2Factor("u", "v", peripheral=True)
    base = GroupSpec([z, z2])
    extra = parse_element(base, "t u")
    spec = GroupSpec([z, z2], extra_generators=[("w", extra)])
    with pytest.raises(UnsupportedMetricError):
        ConedOffBackend(spec, radius=4)


def test_extended_certified_distance(c2c3_ext, ext_hat8):
    assert ext_hat8.distance(IDENTITY, parse_element(c2c3_ext, "a b")) == 1


def _dict_window(spec, radius):
    """The dict BFS of the window that the level-by-level BFS replaced: the
    coned-off distances and the predecessor function over them."""
    gtable = dict(ball(spec, radius).items())
    members = {}
    for g in gtable:
        for i in spec.peripheral_indices:
            members.setdefault(coset_of(spec, g, i), []).append(g)
    for lst in members.values():
        lst.sort(key=lambda p: sort_key(spec, p))
    moves = [(label, g, inv(spec, g)) for label, g in spec.moves()]
    hat = {IDENTITY: 0}
    frontier = deque([IDENTITY])
    while frontier:
        v = frontier.popleft()
        for _, g, _ in moves:
            u = mul(spec, v, g)
            if u in gtable and u not in hat:
                hat[u] = hat[v] + 1
                frontier.append(u)
        for i in spec.peripheral_indices:
            for u in members[coset_of(spec, v, i)]:
                if u not in hat:
                    hat[u] = hat[v] + 1
                    frontier.append(u)

    def predecessors(v, d):
        out = []
        for label, _, g_inv in moves:
            u = mul(spec, v, g_inv)
            if hat.get(u) == d - 1:
                out.append((u, label))
        for i in spec.peripheral_indices:
            coset = coset_of(spec, v, i)
            for u in members[coset]:
                if u != v and hat.get(u) == d - 1:
                    out.append((u, coset))
        return out

    return hat, predecessors


@pytest.fixture(scope="module")
def c3c5_ext():
    # two cone predecessors in one coset whose BFS order differs from their
    # sort_key order occur here (not in the bundled groups), so this window
    # pins the cone-edge order of _predecessors
    factors = [CyclicFactor(3, "a", peripheral=True), CyclicFactor(5, "b", peripheral=True)]
    aba = parse_element(GroupSpec(factors), "a b a")
    return GroupSpec(factors, extra_generators=[("w", aba)], name="c3c5-ext")


@pytest.mark.parametrize(
    "group, radius",
    [("zxz2", 6), ("c2c3", 6), ("c2c3_ext", 8), ("c2c3_ext", 12), ("c3c5_ext", 6)],
)
def test_window_matches_dict_bfs(request, group, radius):
    # coned-off distances and predecessor lists of every window element, and
    # the geodesics enumerated to every radius-4 target, against the dict BFS
    spec = request.getfixturevalue(group)
    hb = ConedOffBackend(spec, radius=radius)
    hat, predecessors = _dict_window(spec, radius)
    assert dict(zip(hb.gtable, hb._hat)) == hat
    for v, d in hat.items():
        assert hb._predecessors(v, d) == predecessors(v, d)
    targets = list(ball(spec, 4))
    got = [_refused_or(hb.enumerate_geodesics, IDENTITY, w, 10_000) for w in targets]
    hb._window_value, hb._predecessors = lambda w: _dict_value(hat, w), predecessors
    expected = [_refused_or(hb.enumerate_geodesics, IDENTITY, w, 10_000) for w in targets]
    assert got == expected
    assert any(found != "refused" and len(found[0]) > 1 for found in got)


def _dict_value(hat, w):
    """``_window_value`` read from the dict BFS: refused outside the window."""
    if w not in hat:
        raise OutOfRangeError("target outside the window")
    return hat[w]


def _walk_back(hb, x, y):
    """The first-path loop that extended-mode ``geodesic`` ran before it
    read the first enumerated geodesic: certified by ``distance`` first,
    then the first predecessor at each level from x^-1 y down to the
    identity, reversed and translated by x."""
    spec = hb.spec
    hb.distance(x, y)
    v = mul(spec, inv(spec, x), y)
    vertices, edges = [v], []
    d = hb._window_value(v)
    while d > 0:
        v, edge = hb._predecessors(v, d)[0]
        vertices.append(v)
        edges.append(edge)
        d -= 1
    return _translate(spec, VertexPath(vertices[::-1], edges[::-1]), x)


@pytest.mark.parametrize(
    "group, radius", [("c2c3_ext", 8), ("c2c3_ext", 12), ("c3c5_ext", 6)]
)
def test_window_geodesic_matches_walk_back(request, group, radius):
    # the windowed geodesic, the first enumerated path, is the walk along
    # first predecessors, and both refuse the same targets
    spec = request.getfixturevalue(group)
    hb = ConedOffBackend(spec, radius=radius)
    got = []
    for x in (IDENTITY, parse_element(spec, "a b")):
        for w in ball(spec, 4):
            y = mul(spec, x, w)
            got.append(_refused_or(hb.geodesic, x, y))
            assert got[-1] == _refused_or(_walk_back, hb, x, y)
    assert any(path != "refused" and len(path) > 1 for path in got)


def test_path_crossings_records_edges_in_coset(zxz2):
    y = parse_element(zxz2, "t u^5 t")
    path = ConedOffBackend(zxz2).geodesic(IDENTITY, y)
    crossings = path_crossings(zxz2, path)
    t = parse_element(zxz2, "t")
    P = [c for c in crossings if c.rep == t]
    assert len(P) == 1
    entry, exit_ = crossings[P[0]]
    assert entry == t and exit_ == parse_element(zxz2, "t u^5")


def test_bcp_trivial_pair(zxz2, zxz2_hat5, zxz2_exact):
    report = check_bcp(zxz2, zxz2_hat5, zxz2_exact, IDENTITY, IDENTITY, 100)
    assert report.samples == 0
    assert report.max_clause1 == 0 and report.max_clause2 == 0


def test_bcp_exact_small_sweep(zxz2, zxz2_hat5, zxz2_exact):
    for w in ball(zxz2, 4):
        report = check_bcp(zxz2, zxz2_hat5, zxz2_exact, IDENTITY, w, 1000)
        assert report.max_clause1 <= 1 and report.max_clause2 <= 1
        assert not report.truncated


def test_bcp_extended_finite(c2c3_ext, ext_hat8, ext_bfs8):
    worst = 0
    for w in ball(c2c3_ext, 3):
        report = check_bcp(c2c3_ext, ext_hat8, ext_bfs8, IDENTITY, w, 2000)
        worst = max(worst, report.max_clause1, report.max_clause2)
    assert worst <= 2  # finite, small; measured value 1


def test_bcp_cap_flags_truncation(zxz2, zxz2_hat5, zxz2_exact):
    w = parse_element(zxz2, "u v")
    report = check_bcp(zxz2, zxz2_hat5, zxz2_exact, IDENTITY, w, 1)
    assert report.truncated


def _pairwise_bcp(spec, hat_backend, metric_backend, x, y, enumeration_cap):
    """Reference for ``check_bcp``: compare every pair of enumerated geodesics.

    Returns ``(samples, max_clause1, max_clause2, geodesic_count, truncated)``.
    """
    geos, truncated = hat_backend.enumerate_geodesics(x, y, enumeration_cap)
    crossings = [path_crossings(spec, g) for g in geos]
    max_c1 = 0
    max_c2 = 0
    samples = 0
    for ca, cb in itertools.combinations(crossings, 2):
        samples += 1
        for P, (pa, qa) in ca.items():
            if P in cb:
                pb, qb = cb[P]
                d = max(metric_backend.distance(pa, pb), metric_backend.distance(qa, qb))
                max_c2 = max(max_c2, d)
            else:
                max_c1 = max(max_c1, metric_backend.distance(pa, qa))
        for P, (pb, qb) in cb.items():
            if P not in ca:
                max_c1 = max(max_c1, metric_backend.distance(pb, qb))
    return samples, max_c1, max_c2, len(geos), truncated


def _bcp_tuple(spec, hat_backend, metric_backend, x, y, enumeration_cap):
    report = check_bcp(spec, hat_backend, metric_backend, x, y, enumeration_cap)
    return (report.samples, report.max_clause1, report.max_clause2,
            report.geodesic_count, report.truncated)


def _refused_or(fn, *args):
    try:
        return fn(*args)
    except OutOfRangeError:
        return "refused"


@pytest.mark.parametrize(
    "group, backend, hat_radius, sample_radius, refused",
    [
        ("c2c3", None, 6, 4, 0),
        ("zxz2", None, 6, 4, 0),
        ("c2c3_ext", 8, 8, 6, 0),
        ("c2c3_ext", 0, 8, 6, 125),
    ],
    ids=["c2c3_exact", "zxz2_exact_hat6", "ext_bfs8_hat8", "ext_bfs0_hat8"],
)
def test_bcp_matches_pairwise(request, group, backend, hat_radius, sample_radius, refused):
    # the bundled configs' bcp targets, plus a BFS radius whose refusals skip
    # most of them: same constants, and the same targets refused
    spec = request.getfixturevalue(group)
    metric = ExactBackend(spec) if backend is None else BfsBackend(spec, backend)
    hat = (request.getfixturevalue("ext_hat8") if group == "c2c3_ext"
           else ConedOffBackend(spec, radius=hat_radius))
    outcomes = [
        (_refused_or(_bcp_tuple, spec, hat, metric, IDENTITY, w, 10_000),
         _refused_or(_pairwise_bcp, spec, hat, metric, IDENTITY, w, 10_000))
        for w in ball(spec, min(sample_radius, hat_radius))
    ]
    assert all(fast == ref for fast, ref in outcomes)
    assert sum(fast == "refused" for fast, _ in outcomes) == refused


def test_bcp_distance_calls_per_coset_not_per_pair(c2c3_ext, ext_hat8, ext_bfs8):
    # 192 geodesics give 18,336 pairs (152,800 pairwise distance calls); the
    # per-coset entry and exit sets need 10
    calls = []

    class Counting:
        def distance(self, u, v):
            calls.append((u, v))
            return ext_bfs8.distance(u, v)

    w = parse_element(c2c3_ext, "b a b^2 a b a b^2")
    report = check_bcp(c2c3_ext, ext_hat8, Counting(), IDENTITY, w, 10_000)
    assert (report.geodesic_count, report.samples) == (192, 18_336)
    assert len(calls) <= 50


def test_large_gap_forces_coset_edge(zxz2, zxz2_hat5, zxz2_exact):
    # whenever the projection gap on a coset is >= 1 (exact regime), every
    # enumerated coned-off geodesic between the pair contains an edge in it
    from periproj import separating_cosets

    for w in ball(zxz2, 4):
        geos, _ = zxz2_hat5.enumerate_geodesics(IDENTITY, w, 500)
        for P in separating_cosets(zxz2, IDENTITY, w):
            gap = zxz2_exact.distance(
                ExactBackend(zxz2).project(P, IDENTITY),
                ExactBackend(zxz2).project(P, w),
            )
            assert gap >= 1
            for g in geos:
                assert P in path_crossings(zxz2, g)
