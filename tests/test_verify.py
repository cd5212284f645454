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
from periproj.verify import axioms, thinness
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


def _scalar_ap1(spec, backend, P, xs, pid, upts, dxpi, pts, constants, witnesses, examined):
    """Reference for the block ``_ap1``: the pairwise sweep with scalar
    distances, strict improvement in (x, p) order."""
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
        axioms._ap1(spec, b, P, xs, pid, upts, dxpi, pts, constants, witnesses, examined)
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
    report = thinness_scan(c2c3, c2c3_exact, 1, [(x, x, IDENTITY)])
    assert report.rows[0].delta == 0


def test_thinness_tripod(c2c3, c2c3_exact):
    a, b = parse_element(c2c3, "a"), parse_element(c2c3, "b")
    report = thinness_scan(c2c3, c2c3_exact, 1, [(IDENTITY, a, b)])
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
    report = thinness_scan(zxz2, zxz2_exact, 1, triangles)
    assert not report.flagged
    assert max(r.depth for r in report.rows) >= 8
    for row in report.rows:
        assert row.delta <= row.depth  # lambda <= 1 on this family
    assert report.lam <= 1


def test_thinness_sample_shapes(zxz2, zxz2_exact):
    rng = random.Random(2)
    triangles = triangle_sample(zxz2, rng, 10, exhaustive_radius=1)
    assert len(triangles) == 7**3 + 10
    report = thinness_scan(zxz2, zxz2_exact, 1, triangles[:50])
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
    report = thinness.ThinnessReport(group=spec.name or repr(spec), k=k)
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
    block = thinness_scan(zxz2, zxz2_exact, 1, triangles)
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
    block = thinness_scan(c2c3_ext, backend, 1, triangles)
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
