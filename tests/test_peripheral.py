"""Cosets, the three projection routes, and separating-coset enumeration."""

import random

import pytest

from periproj import (
    BfsBackend,
    ExactBackend,
    GroupSpec,
    InvalidFactorError,
    OutOfRangeError,
    UnsupportedMetricError,
    ball,
    coset_of,
    coset_str,
    cosets_meeting_ball,
    dist_to_coset,
    parse_element,
    proj_conedoff,
    proj_entrypoint,
    projection,
    separating_cosets,
)
from periproj import group, metric
from periproj.factor import CyclicFactor
from periproj.group import IDENTITY, inv, mul, sort_key
from periproj.peripheral import contains

from conftest import ball_minimizers


def test_coset_of_strips_trailing(zxz2):
    x = parse_element(zxz2, "t u^3")
    assert coset_of(zxz2, x, 1).rep == parse_element(zxz2, "t")


def test_coset_of_identity(zxz2):
    assert coset_of(zxz2, IDENTITY, 1).rep == IDENTITY


def test_coset_of_no_trailing(zxz2):
    x = parse_element(zxz2, "t u t")
    assert coset_of(zxz2, x, 1).rep == x


def test_coset_of_non_peripheral_index(zxz2):
    with pytest.raises(InvalidFactorError):
        coset_of(zxz2, IDENTITY, 0)


def test_coset_serialization_roundtrip(zxz2):
    P = coset_of(zxz2, parse_element(zxz2, "t u^2"), 1)
    assert coset_str(zxz2, P) == "H1 @ t^1"


def test_gate_example(zxz2, zxz2_bfs8):
    P = coset_of(zxz2, parse_element(zxz2, "t"), 1)
    x = parse_element(zxz2, "t u^2 t u")
    gate = ExactBackend(zxz2).project(P, x)
    assert gate == parse_element(zxz2, "t u^2")
    # oracle: the exhaustive ball's minimizing set is the same unique point
    assert frozenset(ball_minimizers(zxz2_bfs8, P, x)[1]) == frozenset([gate])


def test_gate_fixes_coset_points(zxz2):
    x = parse_element(zxz2, "t u^4")
    P = coset_of(zxz2, x, 1)
    assert ExactBackend(zxz2).project(P, x) == x


def test_gate_subgroup_example(zxz2, zxz2_bfs8):
    P = coset_of(zxz2, IDENTITY, 1)
    x = parse_element(zxz2, "t u^5")
    assert ExactBackend(zxz2).project(P, x) == IDENTITY
    assert frozenset(ball_minimizers(zxz2_bfs8, P, x)[1]) == frozenset([IDENTITY])


def test_gate_rejects_extended(c2c3_ext):
    P = coset_of(c2c3_ext, IDENTITY, 1)
    with pytest.raises(UnsupportedMetricError):
        metric.ExactBackend(c2c3_ext).project(P, IDENTITY)


def test_bruteforce_in_coset(zxz2, zxz2_bfs8):
    x = parse_element(zxz2, "t u^2")
    P = coset_of(zxz2, x, 1)
    assert ball_minimizers(zxz2_bfs8, P, x) == (0, [x])


def test_bruteforce_bfs_backend_agrees(zxz2, zxz2_exact, zxz2_bfs6):
    # d(x, P) <= 3 + 2 here, so the radius-6 ball holds every minimizer
    rng = random.Random(9)
    elems = list(ball(zxz2, 3))
    cosets = cosets_meeting_ball(zxz2, ball(zxz2, 2))
    for _ in range(60):
        x = elems[rng.randrange(len(elems))]
        P = cosets[rng.randrange(len(cosets))]
        d, bfs_pts = ball_minimizers(zxz2_bfs6, P, x)
        assert frozenset(bfs_pts) == frozenset([zxz2_exact.project(P, x)])
        assert d == zxz2_exact.coset_distance(P, x)


def test_extended_minimizing_set_diameter(c2c3_ext, ext_bfs8):
    # canonical projection: least minimizer; the whole set has diameter <= 2C
    # for the measured projection constant C = 1 of this group
    C = 1
    P = coset_of(c2c3_ext, IDENTITY, 1)
    x = parse_element(c2c3_ext, "a")
    _, pts = ball_minimizers(ext_bfs8, P, x)
    assert projection(c2c3_ext, ext_bfs8, P, x) in pts
    diam = max(
        (ext_bfs8.distance(p, q) for p in pts for q in pts),
        default=0,
    )
    assert diam <= 2 * C


def _shell_scan_reference(spec, backend, cosets, x):
    """The scan the coset index replaced, run for many cosets at once: walk
    the ball's distance shells around x in BFS order; each coset's minimizers
    are its points x*g in the first shell that meets it.  Returns
    {coset: (d, points)} for the cosets met within the ball."""
    shells = [[] for _ in range(backend.radius + 1)]
    for g, d in backend.table.items():
        shells[d].append(g)
    wanted = set(cosets)
    first = {}
    for d, shell in enumerate(shells):
        hits = {}
        for g in shell:
            p = mul(spec, x, g)
            # contains(spec, P, p) for every wanted P, one lookup per factor
            for i in spec.peripheral_indices:
                P = coset_of(spec, p, i)
                if P in wanted:
                    hits.setdefault(P, []).append(p)
        for P, points in hits.items():
            first.setdefault(P, (d, points))
    return first


@pytest.mark.parametrize("name", ["ext_bfs8", "zxz2_bfs6"])
def test_bfs_coset_points_match_scan(request, name):
    # finite C2/C3 cosets and infinite Z^2 cosets: the ball's members of
    # each coset, in BFS order
    backend = request.getfixturevalue(name)
    spec = backend.spec
    for P in cosets_meeting_ball(spec, ball(spec, 3)):
        assert backend.coset_points(P, 0) == [
            g for g in backend.table if contains(spec, P, g)
        ]


def _projection_case(request, name):
    """(fresh BFS backend, sample points, cosets) for the projection test.
    A fresh spec keeps the ball's last level unrecorded (a shared ball is
    completed by the coned-off window), so walks through it fall back.  On
    C2 * C5 * C2 with w = a b^2, ball(3) has walks that pass through its
    last level and come back, and an off-ball coset key with no member:
    a c b^3 is the syllable prefix of ball elements but lies off the ball,
    and so does every point of a c b^3 H_c."""
    rng = random.Random(11)
    if name == "c2c5c2+ab2":
        base = GroupSpec([CyclicFactor(2, "a", True), CyclicFactor(5, "b", True),
                          CyclicFactor(2, "c", True)])
        spec = GroupSpec(base.factors, [("w", parse_element(base, "a b^2"))])
        backend = BfsBackend(spec, 3)
        xs = list(ball(spec, 2))
        extra = [coset_of(spec, parse_element(spec, "a c b^3"), 2)]
    else:
        fixture = request.getfixturevalue(name)
        old = fixture.spec
        spec = GroupSpec(old.factors, old.extra_generators, name=old.name)
        backend = BfsBackend(spec, fixture.radius)
        xs = list(ball(spec, 6 if name == "ext_bfs8" else 1))
        if name == "zxz2_bfs6":
            xs += rng.sample(list(ball(spec, 4)), 30)
        extra = []
    return backend, xs, cosets_meeting_ball(spec, ball(spec, 3)) + extra


@pytest.mark.parametrize("name", ["ext_bfs8", "zxz2_bfs6", "c2c5c2+ab2"])
def test_bfs_projections_match_shell_scan(request, name):
    # project, project_block and coset_distance against the shell scan: the
    # least minimizer by sort_key, the projection refused exactly where
    # x^-1 rep leaves the ball (rep is no point of x * ball) and the
    # distance exactly where the shell scan meets no point of the coset
    backend, xs, cosets = _projection_case(request, name)
    spec, table = backend.spec, backend.table
    fallback = {False: 0, True: 0}
    blocks = {P: backend.project_block(P, xs) for P in cosets}
    starts = [table.id_of(inv(spec, x)) for x in xs]
    for k, x in enumerate(xs):
        reference = _shell_scan_reference(spec, backend, cosets, x)
        reached = {mul(spec, x, g) for g in table}
        for P in cosets:
            expected = reference.get(P)
            if expected is None:
                with pytest.raises(OutOfRangeError):
                    backend.coset_distance(P, x)
            else:
                assert backend.coset_distance(P, x) == expected[0]
            if P.rep in reached:
                point = min(expected[1], key=lambda p: sort_key(spec, p))
                assert backend.project(P, x) == point
            else:
                point = None
                with pytest.raises(OutOfRangeError):
                    backend.project(P, x)
            assert blocks[P][k] == point
            target = table.id_of(P.rep)
            if min(starts[k], target) >= 0 > table.walk([starts[k]], [target])[0, 0]:
                fallback[point is not None] += 1
    # cells whose walk leaves the recorded levels: refused, and certified
    assert fallback[False] > 0
    if name == "c2c5c2+ab2":
        assert fallback[True] > 0
        P = cosets[-1]
        assert table.coset_key(P.rep) >= len(table)  # an off-ball key
        assert table.cosets(2).distance(table.coset_key(P.rep)) == -1
        assert backend.coset_points(P) == []


def test_bfs_coset_index_is_lazy(zxz2, monkeypatch):
    # a backend used only for distances (the oracle's radius-8 table) must
    # not pay for the coset index; the first coset query builds it once.  A
    # fresh spec keeps balls that other tests hold out of the count.
    spec = GroupSpec(list(zxz2.factors), name="zxz2")
    builds = []
    real = group.FactorCosets

    def counting(ball, i):
        builds.append(1)
        return real(ball, i)

    monkeypatch.setattr(group, "FactorCosets", counting)
    backend = BfsBackend(spec, 4)
    elems = list(ball(spec, 2))
    for x in elems:
        for y in elems:
            backend.distance(x, y)
        backend.geodesic(IDENTITY, x)
    assert len(backend.table) > len(elems)
    assert builds == []
    P = coset_of(spec, parse_element(spec, "t"), 1)
    assert dist_to_coset(spec, backend, P, IDENTITY) == 1
    assert dist_to_coset(spec, backend, P, parse_element(spec, "t^-1")) == 2
    assert builds == [1]


def test_dist_to_coset(zxz2, zxz2_exact, zxz2_bfs6):
    P = coset_of(zxz2, parse_element(zxz2, "t"), 1)
    x = parse_element(zxz2, "t^-1")
    assert dist_to_coset(zxz2, zxz2_exact, P, x) == 2
    assert dist_to_coset(zxz2, zxz2_bfs6, P, x) == 2


def test_entrypoint_inside_coset(zxz2, zxz2_exact):
    x = parse_element(zxz2, "t u^2")
    P = coset_of(zxz2, x, 1)
    assert proj_entrypoint(zxz2, zxz2_exact, P, x, x, 0) == x


def test_entrypoint_example(zxz2, zxz2_exact):
    P = coset_of(zxz2, parse_element(zxz2, "t"), 1)
    target = parse_element(zxz2, "t u^5")
    entry = proj_entrypoint(zxz2, zxz2_exact, P, IDENTITY, target, 0)
    assert entry == parse_element(zxz2, "t")


def test_entrypoint_matches_gate_on_sample(zxz2, zxz2_exact):
    # in the exact regime the first coset entry of a geodesic IS the gate
    elems = list(ball(zxz2, 3))
    cosets = cosets_meeting_ball(zxz2, ball(zxz2, 2))
    worst = 0
    for x in elems[:80]:
        for P in cosets[:12]:
            entry = proj_entrypoint(zxz2, zxz2_exact, P, x, P.rep, 0)
            gate = ExactBackend(zxz2).project(P, x)
            worst = max(worst, zxz2_exact.distance(entry, gate))
    assert worst == 0


def test_conedoff_projection_inside(zxz2, zxz2_hat5):
    x = parse_element(zxz2, "u^2")
    P = coset_of(zxz2, x, 1)
    assert proj_conedoff(zxz2, zxz2_hat5, P, x) == x


def test_conedoff_projection_example(zxz2, zxz2_hat5):
    P = coset_of(zxz2, parse_element(zxz2, "t"), 1)
    assert proj_conedoff(zxz2, zxz2_hat5, P, IDENTITY) == parse_element(zxz2, "t")


def test_conedoff_matches_gate_on_sample(zxz2, zxz2_exact, zxz2_hat5):
    elems = list(ball(zxz2, 3))
    cosets = cosets_meeting_ball(zxz2, ball(zxz2, 2))
    worst = 0
    for x in elems[:60]:
        for P in cosets[:10]:
            got = proj_conedoff(zxz2, zxz2_hat5, P, x)
            gate = ExactBackend(zxz2).project(P, x)
            worst = max(worst, zxz2_exact.distance(got, gate))
    assert worst == 0


def test_separating_trivial(zxz2):
    x = parse_element(zxz2, "t u")
    assert separating_cosets(zxz2, x, x) == []


def test_separating_worked_example(zxz2, zxz2_exact):
    y = parse_element(zxz2, "t u^5 t u^7")
    cosets = separating_cosets(zxz2, IDENTITY, y)
    assert [coset_str(zxz2, P) for P in cosets] == ["H1 @ t^1", "H1 @ t^1 u^5 t^1"]
    gaps = [
        zxz2_exact.distance(
            ExactBackend(zxz2).project(P, IDENTITY), ExactBackend(zxz2).project(P, y)
        )
        for P in cosets
    ]
    assert gaps == [5, 7]


def test_non_separating_cosets_have_zero_gap(zxz2, zxz2_exact):
    rng = random.Random(4)
    elems = list(ball(zxz2, 3))
    cosets = cosets_meeting_ball(zxz2, ball(zxz2, 2))
    for _ in range(40):
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        separating = set(separating_cosets(zxz2, x, y))
        for P in cosets:
            if P in separating:
                continue
            gap = zxz2_exact.distance(
                ExactBackend(zxz2).project(P, x), ExactBackend(zxz2).project(P, y)
            )
            assert gap == 0


def test_gate_additivity_exact(zxz2, zxz2_exact):
    # nearest-point identity with zero slack on a small exhaustive sample
    elems = list(ball(zxz2, 2))
    cosets = cosets_meeting_ball(zxz2, ball(zxz2, 1))
    f = zxz2.factors[1]
    for x in elems:
        for P in cosets:
            gate = ExactBackend(zxz2).project(P, x)
            for level in range(3):
                for h in f.elements_of_length(level):
                    p = P.rep if f.is_identity(h) else P.rep + ((1, h),)
                    assert zxz2_exact.distance(x, p) == zxz2_exact.distance(
                        x, gate
                    ) + zxz2_exact.distance(gate, p)
            assert contains(zxz2, P, gate)


def test_extended_non_separating_gap_bounded(c2c3_ext, ext_bfs8):
    # measured projection constant C = 1: non-separating cosets keep their
    # projection gap within 2C + 2
    import random as _random

    from periproj import OutOfRangeError as _OOR

    rng = _random.Random(3)
    xs = list(ball(c2c3_ext, 3))
    cosets = cosets_meeting_ball(c2c3_ext, ball(c2c3_ext, 2))
    bound = 2 * 1 + 2
    for _ in range(60):
        x = xs[rng.randrange(len(xs))]
        y = xs[rng.randrange(len(xs))]
        seps = set(separating_cosets(c2c3_ext, x, y))
        for P in cosets:
            if P in seps:
                continue
            try:
                gap = ext_bfs8.distance(
                    projection(c2c3_ext, ext_bfs8, P, x),
                    projection(c2c3_ext, ext_bfs8, P, y),
                )
            except _OOR:
                continue
            assert gap <= bound


def test_extended_three_methods_agree_within_m(c2c3_ext, ext_bfs8, ext_hat8):
    # brute-force, entry-point, and coned-off projections pairwise differ by
    # a finite measured M (= 1 on this sample)
    from periproj import OutOfRangeError as _OOR

    xs = list(ball(c2c3_ext, 3))
    cosets = cosets_meeting_ball(c2c3_ext, ball(c2c3_ext, 2))
    worst = 0
    for x in xs:
        for P in cosets:
            try:
                canon = projection(c2c3_ext, ext_bfs8, P, x)
                entry = proj_entrypoint(c2c3_ext, ext_bfs8, P, x, P.rep, 0)
                coned = proj_conedoff(c2c3_ext, ext_hat8, P, x)
                worst = max(
                    worst,
                    ext_bfs8.distance(canon, entry),
                    ext_bfs8.distance(canon, coned),
                    ext_bfs8.distance(entry, coned),
                )
            except _OOR:
                continue
    assert worst <= 1
