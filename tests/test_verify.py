"""Verification-layer behavior: axiom reports, battery, constants, formula, thinness."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from periproj import BfsBackend, ConedOffBackend, ExactBackend, ball, parse_element
from periproj.errors import OutOfRangeError, TheoremViolationError
from periproj.group import IDENTITY, element_str, mul
from periproj.peripheral import coset_of, coset_str, cosets_meeting_ball, dist_to_coset
from periproj.verify import axioms, battery, thinness
from periproj.verify import (
    SamplePlan,
    check_ap_axioms,
    distance_formula,
    estimate_dstg_constants,
    fit_formula_constants,
    lemma_battery,
    seeded_pairs,
    thinness_scan,
    triangle_sample,
)


def test_ap_exact_zero_constants(c2c3, c2c3_exact):
    report = check_ap_axioms(c2c3, c2c3_exact, 3, 2)
    assert report.projection_constant == 0
    assert report.constants["ap3"] == 0
    assert report.ap3_image_max == 1
    assert report.skipped == 0
    assert all(report.examined[k] > 0 for k in report.examined)


def test_ap_primed_leq_unprimed(zxz2, zxz2_exact, c2c3_ext, ext_bfs8):
    for spec, backend in ((zxz2, zxz2_exact), (c2c3_ext, ext_bfs8)):
        report = check_ap_axioms(spec, backend, 3, 2)
        assert report.constants["ap1p"] <= report.constants["ap1"]


def test_ap_extended_positive_constant(c2c3_ext, ext_bfs8):
    report = check_ap_axioms(c2c3_ext, ext_bfs8, 6, 3)
    assert report.projection_constant > 0
    assert all(v <= 8 for v in report.constants.values())
    assert all(ok for _, _, ok in report.equivalence.values())


def _scalar_ap1(spec, backend, P, xs, pid, upts, dxpi, pts, d_xp, constants, witnesses, examined):
    """Reference for the block ``_ap1``: the pairwise sweep with scalar
    distances (``d_xp`` unread), strict improvement in (x, p) order."""
    proj_pts = [upts[k] if k >= 0 else None for k in pid]
    best = constants["ap1"]
    for i, x in enumerate(xs):
        pi = proj_pts[i]
        if pi is None:
            continue
        base = int(dxpi[i])
        for p in pts:
            try:
                d_pip = backend.distance(pi, p)
                d_xp = backend.distance(x, p)
            except OutOfRangeError:
                continue
            examined["ap1"] += 1
            slack = base + d_pip - d_xp
            if slack > best:
                best = slack
                witnesses["ap1"] = {
                    "x": element_str(spec, x),
                    "p": element_str(spec, p),
                    "coset": coset_str(spec, P),
                    "slack": slack,
                }
    constants["ap1"] = best


@pytest.mark.parametrize(
    "spec_name, backend_name, radii",
    [("c2c3_ext", "ext_bfs8", (6, 3)), ("zxz2", "zxz2_exact", (3, 2))],
    ids=["c2c3_ext", "zxz2"],
)
def test_ap1_block_matches_scalar_sweep(request, monkeypatch, spec_name, backend_name, radii):
    spec = request.getfixturevalue(spec_name)
    backend = request.getfixturevalue(backend_name)
    block = check_ap_axioms(spec, backend, *radii)
    monkeypatch.setattr(axioms, "_ap1", _scalar_ap1)
    scalar = check_ap_axioms(spec, backend, *radii)
    assert block.constants["ap1"] == scalar.constants["ap1"]
    assert block.witnesses.get("ap1") == scalar.witnesses.get("ap1")
    assert block.examined["ap1"] == scalar.examined["ap1"] > 0
    if backend_name == "ext_bfs8":
        assert block.constants["ap1"] > 0 and "ap1" in block.witnesses


def _scalar_ap2(spec, P, xs, pid, pdist, dmat, dP, constants, witnesses, examined):
    """Reference for the incidence-matrix ``_ap2``: ``np.unique`` of the
    projection ids per sample row."""
    best = constants["ap2"]
    for i in range(len(xs)):
        if pid[i] < 0 or dP[i] < 0:
            continue
        sel = (dmat[i] >= 0) & (dmat[i] <= dP[i]) & (pid >= 0)
        ids = np.unique(pid[sel])
        examined["ap2"] += int(sel.sum())
        if len(ids) < 2:
            continue
        sub = pdist[np.ix_(ids, ids)]
        known = sub[sub >= 0]
        if not known.size:
            continue
        diam = int(known.max())
        if diam > best:
            best = diam
            witnesses["ap2"] = {
                "x": element_str(spec, xs[i]), "coset": coset_str(spec, P), "diam": diam,
            }
    constants["ap2"] = best


def _scalar_ap1p(spec, P, xs, pid, dxpi, dP, constants, witnesses, examined):
    """Reference for the vectorized ``_ap1p``: one row at a time."""
    best = constants["ap1p"]
    for i, x in enumerate(xs):
        if pid[i] < 0 or dP[i] < 0:
            continue
        examined["ap1p"] += 1
        slack = int(dxpi[i]) - int(dP[i])
        if slack > best:
            best = slack
            witnesses["ap1p"] = {
                "x": element_str(spec, x), "coset": coset_str(spec, P), "slack": slack,
            }
    constants["ap1p"] = best


def _scalar_ap3(spec, backend, points, constants, witnesses, examined):
    """Reference for the block ``_ap3``: a scalar projection per coset point
    and a scalar distance per pair of image points."""
    best = constants["ap3"]
    image_max = 0
    skipped = 0
    for P in points:
        for Q, q_points in points.items():
            if P == Q:
                continue
            image: dict = {}
            for q in q_points:
                try:
                    image.setdefault(backend.project(P, q), None)
                except OutOfRangeError:
                    skipped += 1
                    continue
                examined["ap3"] += 1
            pts = list(image)
            image_max = max(image_max, len(pts))
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    try:
                        d = backend.distance(pts[a], pts[b])
                    except OutOfRangeError:
                        skipped += 1
                        continue
                    if d > best:
                        best = d
                        witnesses["ap3"] = {
                            "P": coset_str(spec, P), "Q": coset_str(spec, Q), "diam": d,
                        }
    constants["ap3"] = best
    return image_max, skipped


def _ap_result(report):
    return (report.constants, report.examined, report.skipped, report.ap3_image_max,
            report.witnesses)


class _CappedBackend:
    """A backend that refuses every distance above ``cap``, in scalar and
    block queries alike; coset queries, projections and geodesics are the
    wrapped backend's."""

    def __init__(self, backend, cap):
        self.backend = backend
        self.cap = cap

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def distance(self, x, y):
        d = self.backend.distance(x, y)
        if d > self.cap:
            raise OutOfRangeError(f"distance {d} above the cap")
        return d

    def distance_block(self, xs, ys):
        block = self.backend.distance_block(xs, ys)
        block[block > self.cap] = -1
        return block


def _ap_backend(request, case):
    """Exact, BFS at radius 8 or 4, or radius 8 with every distance above 0
    refused."""
    if case == "zxz2_exact":
        return request.getfixturevalue("zxz2_exact")
    if case == "c2c3_ext_bfs4":
        return BfsBackend(request.getfixturevalue("c2c3_ext"), 4)
    bfs8 = request.getfixturevalue("ext_bfs8")
    return _CappedBackend(bfs8, 0) if case == "c2c3_ext_capped" else bfs8


AP_CASES = [
    ("c2c3_ext_bfs8", (6, 3)), ("c2c3_ext_bfs4", (4, 3)), ("c2c3_ext_capped", (4, 3)),
    ("zxz2_exact", (3, 2)),
]


@pytest.mark.parametrize("case, radii", AP_CASES, ids=[c for c, _ in AP_CASES])
def test_ap_blocks_match_scalar_loops(request, monkeypatch, case, radii):
    # ap2 from the incidence matrix, ap1p vectorized and ap3 from project_block
    # equal the loops they replaced; the radius-4 ball refuses projections and
    # distances, and the cap at 0 refuses every pair of distinct image points,
    # so the skip counts are compared as well
    backend = _ap_backend(request, case)
    spec = backend.spec
    block = check_ap_axioms(spec, backend, *radii)
    for name, ref in (("_ap2", _scalar_ap2), ("_ap1p", _scalar_ap1p), ("_ap3", _scalar_ap3)):
        monkeypatch.setattr(axioms, name, ref)
    scalar = check_ap_axioms(spec, backend, *radii)
    assert _ap_result(block) == _ap_result(scalar)
    assert (block.skipped > 0) == (case != "zxz2_exact")
    if case == "c2c3_ext_capped":
        assert block.constants["ap3"] == 0 and block.ap3_image_max == 2


class _RecordingBackend:
    """Delegates to a backend and keeps the arguments and result of every
    ``coset_distance_block`` call."""

    def __init__(self, backend):
        self.backend = backend
        self.blocks = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def coset_distance_block(self, cosets, xs):
        block = self.backend.coset_distance_block(cosets, xs)
        self.blocks.append((list(cosets), list(xs), block.copy()))
        return block


@pytest.mark.parametrize(
    "case, radii",
    [("zxz2_exact", (4, 3)), ("c2c3_ext_bfs8", (6, 3)), ("c2c3_ext_bfs4", (4, 3))],
)
def test_ap_coset_distances_match_scalar_minimizers(request, case, radii):
    # the AP reads d(x, P) from one block; the loop it replaced took the
    # minimum of an explicit scan per (coset, point), -1 where the scan
    # refuses.  In exact mode the scan runs level by level over the factor,
    # so this also checks the closed form against it
    backend = _ap_backend(request, case)
    recorder = _RecordingBackend(backend)
    check_ap_axioms(backend.spec, recorder, *radii)
    [(cosets, xs, block)] = recorder.blocks
    ref = np.full((len(cosets), len(xs)), -1, dtype=np.int32)
    for r, P in enumerate(cosets):
        for c, x in enumerate(xs):
            try:
                ref[r, c] = backend.coset_minimizers(P, x)[0]
            except OutOfRangeError:
                pass
    assert np.array_equal(block, ref)
    assert (ref < 0).any() == isinstance(backend, BfsBackend)


def test_ap_leaves_out_rows_with_refused_projection_distance(c2c3_ext, ext_bfs8):
    # with distances capped at 1, d(x, pi(x)) is refused for the sample rows
    # farther from their projection: ap1p examines exactly the other rows
    capped = _CappedBackend(ext_bfs8, 1)
    report = check_ap_axioms(c2c3_ext, capped, 4, 2)
    near = far = 0
    for P in cosets_meeting_ball(c2c3_ext, ball(c2c3_ext, 2)):
        for x in ball(c2c3_ext, 4):
            try:
                ext_bfs8.coset_minimizers(P, x)
                d = ext_bfs8.distance(x, ext_bfs8.project(P, x))
            except OutOfRangeError:
                continue
            near, far = near + (d <= 1), far + (d > 1)
    assert report.examined["ap1p"] == near and far > 0


class _RefusingCosetBackend:
    """Delegates to a backend, but its ``distance_block`` reads -1 in the
    cells (row point, column point) listed in ``refused``."""

    def __init__(self, backend, refused):
        self.backend = backend
        self.spec = backend.spec
        self.refused = refused

    def distance_block(self, xs, ys):
        block = self.backend.distance_block(xs, ys)
        for r, x in enumerate(xs):
            for c, y in enumerate(ys):
                if (x, y) in self.refused:
                    block[r, c] = -1
        return block


def test_ap1_leaves_out_refused_projection_cells(c2c3_ext, ext_bfs8):
    # refuse d(pi(x), p) in the cells that carry the worst slack: those
    # pairs leave the examined count, and the constant falls to the worst
    # slack over the pairs that remain
    spec, backend = c2c3_ext, ext_bfs8
    P = cosets_meeting_ball(spec, ball(spec, 1))[1]
    pts = backend.coset_points(P)
    # sample points off the coset, so no sample row is a projection point
    xs = [x for x in ball(spec, 4) if backend.coset_distance(P, x) >= 1]
    proj = [backend.project(P, x) for x in xs]
    pid, upts, _, _ = axioms.projection_ids(backend, proj)
    dxpi = np.array([backend.distance(x, pi) for x, pi in zip(xs, proj)], dtype=np.int32)

    def run_ap1(b):
        constants, witnesses, examined = {"ap1": 0}, {}, {"ap1": 0}
        d_xp = b.distance_block(xs, pts)
        axioms._ap1(spec, b, P, xs, pid, upts, dxpi, pts, d_xp, constants, witnesses, examined)
        return constants["ap1"], examined["ap1"]

    slack = {
        (x, p): int(dxpi[i]) + backend.distance(proj[i], p) - backend.distance(x, p)
        for i, x in enumerate(xs)
        for p in pts
    }
    worst = max(slack.values())
    refused = {(proj[xs.index(x)], p) for (x, p), v in slack.items() if v == worst}
    assert not refused & {(x, p) for x in xs for p in pts}
    kept = [v for (x, p), v in slack.items() if (proj[xs.index(x)], p) not in refused]
    assert run_ap1(backend) == (worst, len(slack)) and worst > 0
    assert run_ap1(_RefusingCosetBackend(backend, refused)) == (max(kept + [0]), len(kept))
    assert 0 < len(kept) < len(slack) and max(kept) < worst


def test_ap_in_coset_slack_zero(zxz2, zxz2_exact):
    report = check_ap_axioms(zxz2, zxz2_exact, 2, 1)
    assert report.constants["ap1p"] == 0


def test_battery_no_violations_small(c2c3, c2c3_exact):
    plan = SamplePlan(seed=3, n_pairs=60, n_walks=20)
    report = lemma_battery(c2c3, c2c3_exact, 0, plan, ConedOffBackend(c2c3))
    assert report.total_violations == 0
    assert report.rows["projection_coarse_lipschitz"].examined > 0
    assert report.rows["far_path_contraction"].examined > 0


def test_battery_lipschitz_tight_in_exact_mode(zxz2, zxz2_exact):
    plan = SamplePlan(seed=5, n_pairs=40, n_walks=10, sample_radius=2, coset_radius=1)
    report = lemma_battery(zxz2, zxz2_exact, 0, plan, ConedOffBackend(zxz2))
    assert report.total_violations == 0
    # with C = 0 the 1-Lipschitz bound is achieved exactly somewhere
    assert report.rows["projection_coarse_lipschitz"].min_margin == 0


def test_battery_extended(c2c3_ext, ext_bfs8, ext_hat8):
    plan = SamplePlan(seed=5, n_pairs=60, max_syllables=4, max_syllable_len=2)
    report = lemma_battery(c2c3_ext, ext_bfs8, 1, plan, ext_hat8)
    assert report.total_violations == 0
    assert report.total_examined > 1000


# check_ap_axioms and lemma_battery results recorded from the scalar
# implementation (a projection and a distance call per query) that the
# blocks replaced: per battery row (examined, skipped, violations,
# min_margin, witness)
PINNED = {
    "zxz2_exact": (
        {
            "constants": {"ap1": 0, "ap2": 0, "ap3": 0, "ap1p": 0, "ap2p": 0},
            "examined": {
                "ap1": 1373295, "ap2": 5941475, "ap3": 121770, "ap1p": 33495, "ap2p": 20398455,
            },
            "skipped": 0,
            "ap3_image_max": 1,
            "witnesses": {},
        },
        {
            "far_path_contraction": (
                5477, 0, 0, 0,
                {"x": "e", "y": "e", "coset": "H1 @ t^1", "kind": "geodesic", "k": 1},
            ),
            "projection_coarse_lipschitz": (
                265837, 0, 0, 0,
                {"x": "e", "y": "e", "coset": "H1 @ e"},
            ),
            "near_point_entry": (
                4746, 0, 0, 0,
                {"x": "u^2 v^-1 t^-1", "y": "u^1 v^-1", "coset": "H1 @ e", "kind": "geodesic",
                 "r": 0, "c": 0},
            ),
            "first_entry_near_projection": (
                1731, 0, 0, 0,
                {"x": "t^-4 u^1 v^-2", "y": "t^1 u^-1 t^4 u^1", "coset": "H1 @ e",
                 "kind": "geodesic", "r": 0},
            ),
            "grazing_geodesic_length": (
                135, 0, 0, 0,
                {"x": "e", "y": "t^-1", "coset": "H1 @ t^-1", "kind": "geodesic", "r": 0},
            ),
            "grazing_projection_image": (
                135, 0, 0, 0,
                {"x": "e", "y": "t^-1", "coset": "H1 @ t^-1", "kind": "geodesic", "r": 0},
            ),
            "neighborhood_overlap": (
                788, 0, 0, 0,
                {"x": "t^-4 u^1 v^-2", "y": "t^1 u^-1 t^4 u^1", "coset": "H1 @ t^1",
                 "kind": "geodesic", "r": 0},
            ),
            "large_gap_forces_passage": (
                582, 0, 0, 0,
                {"x": "t^-4 u^1 v^-2", "y": "t^1 u^-1 t^4 u^1", "coset": "H1 @ t^1",
                 "kind": "geodesic", "c": 0},
            ),
            "concatenation_quasigeodesic": (
                100, 0, 0, 0,
                {"q": "t^4", "p": "v^-3", "i": 4, "j": 13, "c": 0},
            ),
            "large_gap_ball_hit": (
                194, 0, 0, 0,
                {"x": "t^-4 u^1 v^-2", "y": "t^1 u^-1 t^4 u^1", "coset": "H1 @ t^1",
                 "kind": "geodesic", "c": 0},
            ),
        },
    ),
    "ext_bfs4": (
        {
            "constants": {"ap1": 1, "ap2": 1, "ap3": 1, "ap1p": 0, "ap2p": 1},
            "examined": {"ap1": 2216, "ap2": 12418, "ap3": 1510, "ap1p": 1034, "ap2p": 22490},
            "skipped": 3804,
            "ap3_image_max": 2,
            "witnesses": {
                "ap1": {"x": "b^1", "p": "a^1", "coset": "H0 @ e", "slack": 1},
                "ap2": {"x": "b^1", "coset": "H0 @ e", "diam": 1},
                "ap2p": {"x1": "a^1", "x2": "b^1", "coset": "H0 @ e", "gap": 1, "slack": 1},
                "ap3": {"P": "H0 @ e", "Q": "H1 @ a^1", "diam": 1},
            },
        },
        {
            "far_path_contraction": (
                3624, 682, 0, 1,
                {"x": "b^1 a^1 b^2", "y": "b^1 a^1 b^1 a^1", "coset": "H0 @ b^1",
                 "kind": "geodesic", "k": 1},
            ),
            "projection_coarse_lipschitz": (
                8904, 3056, 0, 6,
                {"x": "e", "y": "e", "coset": "H0 @ e"},
            ),
            "near_point_entry": (
                4670, 682, 0, 5,
                {"x": "a^1 b^1", "y": "b^2 a^1", "coset": "H0 @ b^2", "kind": "geodesic", "r": 0,
                 "c": 0},
            ),
            "first_entry_near_projection": (
                4139, 682, 0, 36,
                {"x": "a^1", "y": "b^1 a^1 b^1 a^1", "coset": "H0 @ b^2", "kind": "geodesic",
                 "r": 2},
            ),
            "grazing_geodesic_length": (
                328, 682, 0, 39,
                {"x": "e", "y": "e", "coset": "H0 @ e", "kind": "geodesic", "r": 2},
            ),
            "grazing_projection_image": (
                328, 682, 0, 46,
                {"x": "b^1 a^1 b^2 a^1", "y": "e", "coset": "H0 @ b^2 a^1 b^2", "kind": "geodesic",
                 "r": 2},
            ),
            "neighborhood_overlap": (
                3714, 682, 0, 94,
                {"x": "b^1 a^1 b^1 a^1", "y": "a^1 b^2", "coset": "H0 @ b^1", "kind": "geodesic",
                 "r": 2},
            ),
            "large_gap_forces_passage": (0, 682, 0, None, None),
            "concatenation_quasigeodesic": (
                92, 8, 0, 0,
                {"q": "a^1 b^1", "p": "a^1 b^2", "i": 0, "j": 3, "c": 0},
            ),
            "large_gap_ball_hit": (0, 682, 0, None, None),
        },
    ),

}


def _battery_result(report):
    return _battery_result_rows(report.rows)


def _battery_result_rows(rows):
    return {
        name: (row.examined, row.skipped, row.violations, row.min_margin, row.witness)
        for name, row in rows.items()
    }


@pytest.mark.parametrize("case", list(PINNED))
def test_ap_and_battery_pinned(request, case):
    # c2c3-ext at BFS radius 4 refuses projections, coset distances and
    # geodesics: every skip count below comes from those refusals
    if case == "zxz2_exact":
        spec = request.getfixturevalue("zxz2")
        backend, hat = request.getfixturevalue("zxz2_exact"), request.getfixturevalue("zxz2_hat5")
        plan = SamplePlan(seed=7, n_pairs=100)
    else:
        spec = request.getfixturevalue("c2c3_ext")
        backend, hat = BfsBackend(spec, 4), ConedOffBackend(spec, radius=4)
        plan = SamplePlan(seed=3, n_pairs=100, max_syllables=4, max_syllable_len=2)
    ap = check_ap_axioms(spec, backend, 4, 3)
    battery = lemma_battery(spec, backend, ap.projection_constant, plan, hat)
    expected_ap, expected_battery = PINNED[case]
    assert {
        "constants": ap.constants, "examined": ap.examined, "skipped": ap.skipped,
        "ap3_image_max": ap.ap3_image_max, "witnesses": ap.witnesses,
    } == expected_ap
    assert _battery_result(battery) == expected_battery


def _scalar_lemma_battery(spec, backend, C, plan, hat_backend):
    """Reference for the block ``lemma_battery``: one scalar coset distance,
    projection or distance per query, each configuration skipped on the
    first refused query it reads."""
    rng = random.Random(plan.seed)
    rows = {name: battery.BatteryRow(name) for name in battery.ROW_NAMES}
    xs = list(ball(spec, plan.sample_radius))
    cosets = cosets_meeting_ball(spec, ball(spec, plan.coset_radius))
    pairs = seeded_pairs(spec, rng, plan.n_pairs, plan.max_syllables, plan.max_syllable_len)
    paths = battery._build_paths(spec, backend, hat_backend, rng, pairs, plan, rows)
    cache: dict = {}

    def proj(P, x):
        if (P, x) not in cache:
            cache[P, x] = backend.project(P, x)
        return cache[P, x]

    _scalar_lipschitz_sweep(spec, backend, xs, cosets, C, rows["projection_coarse_lipschitz"], proj)
    r_values = sorted({max(2 * C, 0) + off for off in battery.R_OFFSETS})
    for path in paths:
        x, y = path.vertices[0], path.vertices[-1]
        for P in cosets:
            try:
                dprof = [backend.coset_distance(P, v) for v in path.vertices]
                pix, piy = proj(P, x), proj(P, y)
                gap = backend.distance(pix, piy)
            except OutOfRangeError:
                for name in battery.ROW_NAMES:
                    if name not in ("projection_coarse_lipschitz", "concatenation_quasigeodesic"):
                        rows[name].skipped += 1
                continue
            w = {"x": element_str(spec, x), "y": element_str(spec, y),
                 "coset": coset_str(spec, P), "kind": path.kind}
            battery._far_path(path, dprof, gap, C, battery.FAR_PATH_KS, rows, w)
            if path.kind in ("geodesic", "lift"):
                _scalar_near_point_entry(backend, path, dprof, pix, C, rows, w)
                _scalar_large_gap(backend, path, dprof, pix, piy, gap, C, rows, w)
            if path.kind == "geodesic":
                for r in r_values:
                    _scalar_first_entry(backend, path, dprof, pix, C, r, rows, w)
                    _scalar_grazing(backend, path, P, dprof, pix, C, r, rows, w, proj)
                    _scalar_overlap(backend, path, dprof, gap, C, r, rows, w)
    _scalar_concatenation(spec, backend, rng, paths, plan, rows["concatenation_quasigeodesic"])
    return rows


def _scalar_lipschitz_sweep(spec, backend, xs, cosets, C, row, proj):
    dmat = backend.distance_block(xs, xs)
    for P in cosets:
        pts = []
        for x in xs:
            try:
                pts.append(proj(P, x))
            except OutOfRangeError:
                row.skipped += 1
                pts.append(None)
        pid, _, pdist, _ = axioms.projection_ids(backend, pts)
        idx = np.nonzero(pid >= 0)[0]
        if len(idx) < 2:
            continue
        gaps = pdist[pid[idx][:, None], pid[idx][None, :]]
        dd = dmat[np.ix_(idx, idx)]
        ok = (dd >= 0) & (gaps >= 0)
        margin = dd + 6 * C - gaps
        row.examined += int(ok.sum())
        row.skipped += int((~ok).sum())
        row.violations += int((ok & (margin < 0)).sum())
        worst = margin[ok].min() if ok.any() else None
        if worst is not None and (row.min_margin is None or worst < row.min_margin):
            masked = np.where(ok, margin, np.iinfo(np.int32).max)
            a, b = np.unravel_index(int(masked.argmin()), margin.shape)
            row.min_margin = int(worst)
            row.witness = {"x": element_str(spec, xs[idx[a]]), "y": element_str(spec, xs[idx[b]]),
                           "coset": coset_str(spec, P)}


def _scalar_near_point_entry(backend, path, dprof, pix, C, rows, witness):
    row = rows["near_point_entry"]
    c = path.c
    r = dprof[-1]
    rho = 2 * r + 6 * C + 5 * c
    x = path.vertices[0]
    try:
        d_to_pix = [backend.distance(v, pix) for v in path.vertices]
        d_from_x = [backend.distance(x, v) for v in path.vertices]
    except OutOfRangeError:
        row.skipped += 1
        return
    row.record(min(d_to_pix), rho, dict(witness, r=r, c=c))
    for dv, dpi in zip(d_from_x, d_to_pix):
        if dprof[0] - 2 * c <= dv <= dprof[0]:
            row.record(dpi, rho, dict(witness, r=r, c=c, clause="window"))


def _scalar_first_entry(backend, path, dprof, pix, C, r, rows, witness):
    if r < 2 * C:
        return
    row = rows["first_entry_near_projection"]
    for v, d in zip(path.vertices, dprof):
        if d <= r:
            try:
                q = backend.distance(v, pix)
            except OutOfRangeError:
                row.skipped += 1
                return
            row.record(q, 8 * r + 22 * C, dict(witness, r=r))
            return


def _scalar_grazing(backend, path, P, dprof, pix, C, r, rows, witness, proj):
    if r < 2 * C:
        return
    if [i for i, d in enumerate(dprof) if d <= r] != [len(dprof) - 1]:
        return
    try:
        rows["grazing_geodesic_length"].record(
            len(path.vertices) - 1, dprof[0] + 8 * r + 23 * C, dict(witness, r=r)
        )
        worst = 0
        for v in path.vertices:
            worst = max(worst, backend.distance(proj(P, v), pix))
        rows["grazing_projection_image"].record(worst, 8 * r + 30 * C, dict(witness, r=r))
    except OutOfRangeError:
        rows["grazing_geodesic_length"].skipped += 1


def _scalar_overlap(backend, path, dprof, gap, C, r, rows, witness):
    if r < 2 * C:
        return
    row = rows["neighborhood_overlap"]
    inside = [v for v, d in zip(path.vertices, dprof) if d <= r]
    if len(inside) < 2:
        return
    try:
        diam = max(backend.distance(a, b) for i, a in enumerate(inside) for b in inside[i + 1:])
    except OutOfRangeError:
        row.skipped += 1
        return
    row.record(diam, gap + 18 * r + 62 * C, dict(witness, r=r))


def _scalar_large_gap(backend, path, dprof, pix, piy, gap, C, rows, witness):
    c = path.c
    if gap < 8 * C + 8 * c + 1:
        return
    try:
        min_to_pix = min(backend.distance(v, pix) for v in path.vertices)
        min_to_piy = min(backend.distance(v, piy) for v in path.vertices)
    except OutOfRangeError:
        rows["large_gap_forces_passage"].skipped += 1
        return
    passage = rows["large_gap_forces_passage"]
    passage.record(min(dprof), 2 * C, dict(witness, c=c))
    passage.record(min_to_pix, 10 * C + 5 * c, dict(witness, c=c, side="x"))
    passage.record(min_to_piy, 10 * C + 5 * c, dict(witness, c=c, side="y"))
    rows["large_gap_ball_hit"].record(
        max(min_to_pix, min_to_piy), 10 * C + 5 * c, dict(witness, c=c)
    )


def _scalar_concatenation(spec, backend, rng, paths, plan, row):
    candidates = [p for p in paths if p.kind in ("geodesic", "lift") and len(p.vertices) > 1]
    for path in candidates[: plan.n_pairs]:
        q = battery._random_sample_element(spec, rng, plan)
        try:
            dmin, argmin = None, 0
            for i, v in enumerate(path.vertices):
                d = backend.distance(q, v)
                if dmin is None or d < dmin:
                    dmin, argmin = d, i
            suffix = path.vertices[argmin:]
            verts = backend.geodesic(q, suffix[0]).vertices + suffix[1:]
        except OutOfRangeError:
            row.skipped += 1
            continue
        worst = witness = None
        viol = 0
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                try:
                    d = backend.distance(verts[i], verts[j])
                except OutOfRangeError:
                    continue
                margin = (3 * d + path.c) - (j - i)
                viol += margin < 0
                if worst is None or margin < worst:
                    worst = margin
                    witness = {"q": element_str(spec, q), "p": element_str(spec, suffix[0]),
                               "i": i, "j": j, "c": path.c}
        row.examined += 1
        row.violations += 1 if viol else 0
        if worst is not None and (row.min_margin is None or worst < row.min_margin):
            row.min_margin = worst
            row.witness = witness


@pytest.mark.parametrize("case", ["zxz2_exact", "c2c3_ext_bfs4", "c2c3_ext_capped"])
def test_battery_blocks_match_scalar_reference(request, case):
    # exact mode; BFS radius 4, which refuses coset distances and geodesics;
    # distances capped at 3 on the radius-8 ball, which certifies the coset
    # profiles but refuses distances that single rows read
    if case == "zxz2_exact":
        spec, C, plan = request.getfixturevalue("zxz2"), 0, SamplePlan(seed=2, n_pairs=40)
        backend, hat = request.getfixturevalue("zxz2_exact"), request.getfixturevalue("zxz2_hat5")
    else:
        spec, C = request.getfixturevalue("c2c3_ext"), 1
        plan = SamplePlan(seed=3, n_pairs=60, max_syllables=4)
        if case == "c2c3_ext_bfs4":
            backend, hat = BfsBackend(spec, 4), ConedOffBackend(spec, radius=4)
        else:
            backend = _CappedBackend(request.getfixturevalue("ext_bfs8"), 3)
            hat = request.getfixturevalue("ext_hat8")
    block = _battery_result(lemma_battery(spec, backend, C, plan, hat))
    assert block == _battery_result_rows(_scalar_lemma_battery(spec, backend, C, plan, hat))
    skipped = {name: row[1] for name, row in block.items()}
    assert (skipped["far_path_contraction"] > 0) == (case != "zxz2_exact")
    if case == "c2c3_ext_capped":
        for name in ("near_point_entry", "first_entry_near_projection", "neighborhood_overlap"):
            assert skipped[name] > skipped["far_path_contraction"]


def test_battery_rows_skip_once_per_refused_read():
    # a lemma row whose reads include refused (-1) cells skips the
    # configuration once, however many cells are refused, and records
    # nothing from it; a refused cell the row does not read is ignored
    path = battery._Path([(), (), (), ()], 0, "geodesic")
    dprof = [3, 2, 1, 0]
    refused = [-1, -1, 2, -1]
    witness: dict = {}
    rows = {name: battery.BatteryRow(name) for name in battery.ROW_NAMES}
    battery._near_point_entry(path, dprof, refused, [0, 1, 2, 3], 0, rows, witness)
    battery._near_point_entry(path, dprof, [3, 2, 1, 0], refused, 0, rows, witness)
    battery._large_gap(path, dprof, [0, 0, 0, 0], refused, 0, rows, witness)
    battery._first_entry(path, dprof, [5, 5, 5, -1], 0, 0, rows, witness)
    battery._first_entry(path, dprof, [5, 5, 5, -1], 0, 1, rows, witness)
    battery._grazing(path, dprof, refused, 0, 0, rows, witness)
    block = np.zeros((4, 4), dtype=np.int32)
    block[1, 2] = block[1, 3] = -1
    stays = battery._stay_diameters(np.array([dprof]), [True], block, [1, 2], 0)
    battery._overlap(stays[1][0], 0, 0, 1, rows, witness)
    battery._overlap(stays[2][0], 0, 0, 2, rows, witness)
    census = {name: (row.examined, row.skipped) for name, row in rows.items()}
    assert census == {
        "far_path_contraction": (0, 0),
        "projection_coarse_lipschitz": (0, 0),
        "near_point_entry": (0, 2),
        "first_entry_near_projection": (1, 1),
        "grazing_geodesic_length": (1, 1),
        "grazing_projection_image": (0, 0),
        "neighborhood_overlap": (1, 1),
        "large_gap_forces_passage": (0, 1),
        "concatenation_quasigeodesic": (0, 0),
        "large_gap_ball_hit": (0, 0),
    }


def test_dstg_exact_values(zxz2, zxz2_exact):
    consts = estimate_dstg_constants(zxz2, zxz2_exact, 3, ConedOffBackend(zxz2))
    assert consts.b_by_h[0] <= 1  # distinct cosets share at most a point
    assert consts.b_by_h[0] == 0
    assert consts.t_by_l[1] == Fraction(1)
    assert consts.m == 0
    assert consts.sigma_by_d[0] == 0
    assert consts.entry_m_by_d[0] == 0
    assert consts.hat_entry_m == 0


def test_dstg_monotone_in_h(c2c3, c2c3_exact):
    consts = estimate_dstg_constants(c2c3, c2c3_exact, 3, ConedOffBackend(c2c3))
    values = [consts.b_by_h[h] for h in range(4)]
    assert values == sorted(values)


def test_formula_worked_example(zxz2, zxz2_exact):
    y = parse_element(zxz2, "t u^5 t u^7")
    ev = distance_formula(
        zxz2, IDENTITY, y, [4, 6], ExactBackend(zxz2), ConedOffBackend(zxz2), sigma=0, entry_m=0
    )
    assert ev.lhs == 14
    assert ev.dhat == 4
    assert sorted(v for _, v in ev.terms) == [5, 7]
    assert ev.rhs(4) == 16
    assert ev.rhs(6) == 11  # the 5-term drops at threshold 6
    assert [v for _, v in ev.included_terms(4)] == [5, 7]


def test_formula_trivial_pair(zxz2):
    ev = distance_formula(
        zxz2, IDENTITY, IDENTITY, [0, 2, 9], ExactBackend(zxz2), ConedOffBackend(zxz2),
        sigma=0, entry_m=0,
    )
    assert ev.lhs == 0
    assert all(ev.rhs(L) == 0 for L in (0, 2, 9))


def test_formula_rhs_monotone_and_dominates_dhat(zxz2):
    rng = random.Random(17)
    thresholds = [0, 1, 2, 4, 8, 16]
    backend, hat = ExactBackend(zxz2), ConedOffBackend(zxz2)
    for x, y in seeded_pairs(zxz2, rng, 40, 6, 8):
        ev = distance_formula(zxz2, x, y, thresholds, backend, hat, sigma=0, entry_m=0)
        values = [ev.rhs(L) for L in thresholds]
        assert values == sorted(values, reverse=True)
        assert all(v >= ev.dhat for v in values)
        for L in thresholds:
            assert all(v > L for _, v in ev.included_terms(L))


def test_formula_estimate_uses_measured_slack(zxz2, zxz2_exact):
    consts = estimate_dstg_constants(zxz2, zxz2_exact, 3, ConedOffBackend(zxz2))
    rng = random.Random(23)
    hat = ConedOffBackend(zxz2)
    for x, y in seeded_pairs(zxz2, rng, 60, 8, 10):
        distance_formula(
            zxz2, x, y, [4], zxz2_exact, hat,
            sigma=consts.sigma_by_d[0], entry_m=consts.entry_m_by_d[0],
        )  # raises TheoremViolationError on failure


def test_formula_estimate_violation_detected(zxz2):
    # an impossible negative slack forces the bound above the true distance
    y = parse_element(zxz2, "u^9")
    with pytest.raises(TheoremViolationError):
        distance_formula(
            zxz2, IDENTITY, y, [4], ExactBackend(zxz2), ConedOffBackend(zxz2),
            sigma=-3, entry_m=-3,
        )


def _formula_evals(spec, pairs, thresholds):
    backend, hat = ExactBackend(spec), ConedOffBackend(spec)
    return [
        distance_formula(spec, x, y, thresholds, backend, hat, sigma=0, entry_m=0)
        for x, y in pairs
    ]


def test_fit_single_trivial_pair(zxz2):
    rows = fit_formula_constants(zxz2, _formula_evals(zxz2, [(IDENTITY, IDENTITY)], [4]), [4])
    assert rows[0].lam == 1 and rows[0].mu == 0


def test_fit_rejects_empty(zxz2):
    with pytest.raises(ValueError):
        fit_formula_constants(zxz2, [], [4])


def test_fit_lambda_monotone_in_threshold(zxz2):
    rng = random.Random(31)
    pairs = seeded_pairs(zxz2, rng, 80, 8, 10)
    rows = fit_formula_constants(zxz2, _formula_evals(zxz2, pairs, [1, 2, 4, 8]), [1, 2, 4, 8])
    lams = [r.lam for r in rows]
    assert lams == sorted(lams)
    assert all(r.mu == 0 for r in rows)


def test_thinness_degenerate_triangle(c2c3, c2c3_exact):
    x = parse_element(c2c3, "a b")
    report = thinness_scan(c2c3, c2c3_exact, [(x, x, IDENTITY)])
    assert report.rows[0].delta == 0


def test_thinness_tripod(c2c3, c2c3_exact):
    a, b = parse_element(c2c3, "a"), parse_element(c2c3, "b")
    report = thinness_scan(c2c3, c2c3_exact, [(IDENTITY, a, b)])
    assert report.rows[0].delta == 0


def test_thinness_flat_triangles_linear(zxz2, zxz2_exact):
    # triangles inside the flat penetrate deeply but stay linearly thin
    triangles = []
    for n in (2, 4, 6, 8):
        triangles.append(
            (
                IDENTITY,
                parse_element(zxz2, f"v^{n}"),
                parse_element(zxz2, f"u^{n} v^{n}"),
            )
        )
    report = thinness_scan(zxz2, zxz2_exact, triangles)
    assert not report.flagged
    assert max(r.depth for r in report.rows) >= 8
    for row in report.rows:
        assert row.delta <= row.depth  # lambda <= 1 on this family
    assert report.lam <= 1


def test_thinness_sample_shapes(zxz2, zxz2_exact):
    rng = random.Random(2)
    triangles = triangle_sample(zxz2, rng, 10, exhaustive_radius=1)
    assert len(triangles) == 7**3 + 10
    report = thinness_scan(zxz2, zxz2_exact, triangles[:50])
    assert len(report.rows) == 50
    assert report.skipped == 0


def _scalar_penetration(spec, backend, sides, k, nbhd) -> int:
    """Reference for the block penetration depth: scalar d(v, P) per side
    vertex and candidate coset, scalar diameters of the inside sets."""
    candidates: dict = {}
    for side in sides:
        for v in side:
            for g in nbhd:
                w = mul(spec, v, g)
                for i in spec.peripheral_indices:
                    candidates.setdefault(coset_of(spec, w, i), None)
    depth = 0
    for P in candidates:
        for side in sides:
            inside = [v for v in side if dist_to_coset(spec, backend, P, v) <= k]
            if len(inside) < 2:
                continue
            diam = max(
                backend.distance(a, b) for a, b in combinations(inside, 2)
            )
            depth = max(depth, diam)
    return depth


def _scalar_thinness(backend, sides) -> int:
    delta = 0
    for s in range(3):
        others = sides[(s + 1) % 3] + sides[(s + 2) % 3]
        for v in sides[s]:
            nearest = min(backend.distance(v, w) for w in others)
            delta = max(delta, nearest)
    return delta


def _scalar_thinness_scan(spec, backend, k, triangles):
    """Reference for ``thinness_scan``: a triangle is skipped on the first
    refused scalar query."""
    report = thinness.ThinnessReport()
    nbhd = list(ball(spec, k)) if spec.peripheral_indices else [()]
    for tri in triangles:
        x, y, z = tri
        try:
            sides = [
                backend.geodesic(x, y).vertices,
                backend.geodesic(y, z).vertices,
                backend.geodesic(z, x).vertices,
            ]
            depth = _scalar_penetration(spec, backend, sides, k, nbhd)
            delta = _scalar_thinness(backend, sides)
        except OutOfRangeError:
            report.skipped += 1
            continue
        perimeter = sum(len(s) - 1 for s in sides)
        report.rows.append(thinness.ThinnessRow(tri, depth, delta, perimeter))
    report.flagged = thinness._flag_families(report.rows)
    return report


def test_thinness_blocks_match_scalar_exact(zxz2, zxz2_exact):
    triangles = triangle_sample(zxz2, random.Random(7), 60)
    block = thinness_scan(zxz2, zxz2_exact, triangles)
    scalar = _scalar_thinness_scan(zxz2, zxz2_exact, 1, triangles)
    assert block.rows == scalar.rows
    assert block.skipped == scalar.skipped == 0
    assert block.flagged == scalar.flagged
    assert max(r.depth for r in block.rows) >= 6


def test_thinness_blocks_match_scalar_bfs_skips(c2c3_ext):
    # a small ball refuses many triangle queries: the block scan must skip
    # exactly the triangles on which the scalar scan hits a refusal
    backend = BfsBackend(c2c3_ext, 4)
    elems = list(ball(c2c3_ext, 3))
    rng = random.Random(1)
    triangles = [tuple(elems[rng.randrange(len(elems))] for _ in range(3)) for _ in range(60)]
    block = thinness_scan(c2c3_ext, backend, triangles)
    scalar = _scalar_thinness_scan(c2c3_ext, backend, 1, triangles)
    assert block.rows == scalar.rows
    assert block.skipped == scalar.skipped == 47
    assert block.flagged == scalar.flagged
    assert len(block.rows) == 13


def test_thinness_refuses_uncertified_cross_pair():
    # d(v, w) across two sides is used by the thinness minimum, so a refused
    # cross entry skips the triangle; a refused entry within a side is not used
    spans = [slice(0, 2), slice(2, 4), slice(4, 6)]
    dmat = np.ones((6, 6), dtype=np.int32)
    dmat[0, 1] = -1
    assert thinness._thinness(spans, dmat) == 1
    dmat[0, 3] = -1
    with pytest.raises(OutOfRangeError):
        thinness._thinness(spans, dmat)
