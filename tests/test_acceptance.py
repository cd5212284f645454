"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expensive shared state (the radius-8 ball of Z * Z^2)
is built lazily in module scope and its construction time is charged to the
first criterion that needs it.
"""

import random
import subprocess
import sys
import time
from importlib import resources

from periproj import (
    BfsBackend,
    ConedOffBackend,
    CyclicFactor,
    ExactBackend,
    FreeAbelianRank2Factor,
    GroupSpec,
    InfiniteCyclicFactor,
    ball,
    check_bcp,
    inv,
    lift,
    mul,
    parse_element,
    quasigeodesic_constants,
    syllable_length,
)
from periproj.group import IDENTITY
from periproj.peripheral import cosets_meeting_ball
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

from conftest import ball_minimizers

C2C3 = GroupSpec(
    [CyclicFactor(2, "a", peripheral=True), CyclicFactor(3, "b", peripheral=True)],
    name="c2c3",
)
ZXZ2 = GroupSpec(
    [InfiniteCyclicFactor("t"), FreeAbelianRank2Factor("u", "v", peripheral=True)],
    name="zxz2",
)
EXT = GroupSpec(
    [CyclicFactor(2, "a", peripheral=True), CyclicFactor(3, "b", peripheral=True)],
    extra_generators=[("ab", parse_element(C2C3, "a b"))],
    name="c2c3-ext",
)

_state: dict = {}


def _zxz2_oracle8() -> BfsBackend:
    if "zxz2_bfs8" not in _state:
        _state["zxz2_bfs8"] = BfsBackend(ZXZ2, 8)
    return _state["zxz2_bfs8"]


def _check(criterion: str, ok: bool, started: float, limit: float, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < limit, f"{criterion}: took {elapsed:.1f}s, limit {limit}s"


def test_c01_metric_oracle_equivalence():
    started = time.time()
    mismatches = 0
    pairs = 0
    oracle_c = BfsBackend(C2C3, 10)
    elems_c = list(ball(C2C3, 5))
    for x in elems_c:
        xi = inv(C2C3, x)
        for y in elems_c:
            pairs += 1
            w = mul(C2C3, xi, y)
            if syllable_length(C2C3, w) != oracle_c.table[w]:
                mismatches += 1
    oracle_z = _zxz2_oracle8()
    elems_z = list(ball(ZXZ2, 4))
    for x in elems_z:
        xi = inv(ZXZ2, x)
        for y in elems_z:
            pairs += 1
            w = mul(ZXZ2, xi, y)
            if syllable_length(ZXZ2, w) != oracle_z.table[w]:
                mismatches += 1
    _check(
        "criterion 1 (metric oracle equivalence)",
        mismatches == 0,
        started,
        30,
        f"{pairs} pairs, {mismatches} mismatches",
    )


def test_c02_projection_exactness():
    # d(x, P) <= 5 + 3 here, so the radius-8 ball holds every minimizer
    started = time.time()
    backend = ExactBackend(ZXZ2)
    oracle = _zxz2_oracle8()
    xs = list(ball(ZXZ2, 5))
    cosets = cosets_meeting_ball(ZXZ2, ball(ZXZ2, 3))
    bad = 0
    for P in cosets:
        for x in xs:
            _, minimizers = ball_minimizers(oracle, P, x)
            if frozenset(minimizers) != frozenset([backend.project(P, x)]):
                bad += 1
    _check(
        "criterion 2 (projection exactness)",
        bad == 0,
        started,
        60,
        f"{len(xs)} points x {len(cosets)} cosets, {bad} mismatches",
    )


def test_c03_ap_axioms_exact():
    started = time.time()
    ok = True
    details = []
    for spec in (C2C3, ZXZ2):
        report = check_ap_axioms(spec, ExactBackend(spec), 4, 3)
        zero = (
            report.constants["ap1"]
            == report.constants["ap2"]
            == report.constants["ap1p"]
            == report.constants["ap2p"]
            == 0
        )
        singleton = report.ap3_image_max == 1 and report.constants["ap3"] == 0
        ok = ok and zero and singleton
        details.append(f"{spec.name}: C=0 {zero}, ap3 singleton {singleton}")
    _check("criterion 3 (AP axioms, exact regime)", ok, started, 60, "; ".join(details))


def test_c04_ap_axioms_coarse():
    started = time.time()
    reports = {}
    for radius in (6, 8):
        backend = BfsBackend(EXT, radius)
        reports[radius] = check_ap_axioms(EXT, backend, radius, 3)
    bounded = all(v <= 8 for v in reports[8].constants.values())
    growth_ok = all(
        reports[8].constants[k] <= reports[6].constants[k] + 2
        for k in reports[6].constants
    )
    _check(
        "criterion 4 (AP axioms, coarse regime)",
        bounded and growth_ok,
        started,
        120,
        f"radius 6 {reports[6].constants} -> radius 8 {reports[8].constants}",
    )


def test_c05_lemma_battery():
    started = time.time()
    ok = True
    details = []
    runs = (
        (C2C3, ExactBackend(C2C3), 0, SamplePlan(seed=11), ConedOffBackend(C2C3)),
        (ZXZ2, ExactBackend(ZXZ2), 0, SamplePlan(seed=11), ConedOffBackend(ZXZ2)),
        (
            EXT,
            BfsBackend(EXT, 8),
            1,
            SamplePlan(seed=11, n_pairs=150, max_syllables=4, max_syllable_len=2),
            ConedOffBackend(EXT, radius=8),
        ),
    )
    for spec, backend, c, plan, hat in runs:
        report = lemma_battery(spec, backend, c, plan, hat)
        ok = ok and report.total_violations == 0 and report.total_examined >= 10_000
        details.append(
            f"{spec.name}: {report.total_examined} configs, {report.total_violations} violations"
        )
    _check("criterion 5 (lemma battery)", ok, started, 300, "; ".join(details))


def test_c06_distance_formula():
    started = time.time()
    backend = ExactBackend(ZXZ2)
    hat = ConedOffBackend(ZXZ2)
    consts = estimate_dstg_constants(ZXZ2, backend, 3, hat)
    sigma, entry_m = consts.sigma_by_d[0], consts.entry_m_by_d[0]
    rng = random.Random(7)
    pairs = seeded_pairs(ZXZ2, rng, 200, 10, 12)
    # estimate (2) is asserted inside every evaluation
    evals = [
        distance_formula(ZXZ2, x, y, [4], backend, hat, sigma=sigma, entry_m=entry_m)
        for x, y in pairs
    ]
    rows = fit_formula_constants(ZXZ2, evals, [4])
    lam, mu = rows[0].lam, rows[0].mu
    worked = distance_formula(
        ZXZ2,
        IDENTITY,
        parse_element(ZXZ2, "t u^5 t u^7"),
        [4],
        backend,
        hat,
        sigma=sigma,
        entry_m=entry_m,
    )
    worked_ok = worked.lhs == 14 and worked.rhs(4) == 16
    _check(
        "criterion 6 (distance formula)",
        lam <= 4 and mu <= 2 and worked_ok,
        started,
        60,
        f"lambda={lam} mu={mu}, worked example lhs={worked.lhs} rhs={worked.rhs(4)}, "
        f"sigma={sigma} M={entry_m}",
    )


def test_c07_lifts():
    started = time.time()
    backend = ExactBackend(ZXZ2)
    rng = random.Random(7)
    all_exact = True
    for x, y in seeded_pairs(ZXZ2, rng, 100, 5, 6):
        lifted = lift(ZXZ2, ConedOffBackend(ZXZ2).geodesic(x, y))
        if quasigeodesic_constants(lifted, backend) != (1, 0):
            all_exact = False
    mus = {}
    for radius in (6, 8):
        bk = BfsBackend(EXT, radius)
        hb = ConedOffBackend(EXT, radius=radius)
        rng = random.Random(7)
        elems = list(ball(EXT, radius // 2))
        worst = 0
        for _ in range(100):
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            lifted = lift(EXT, hb.geodesic(x, y))
            lam, mu = quasigeodesic_constants(lifted, bk)
            worst = max(worst, mu)
            assert lam == 1
        mus[radius] = worst
    stable = mus[8] <= mus[6] + 2
    _check(
        "criterion 7 (lifts)",
        all_exact and stable,
        started,
        120,
        f"exact lifts all (1,0): {all_exact}; extended mu: r6={mus[6]} r8={mus[8]}",
    )


def test_c08_bcp():
    started = time.time()
    backend = ExactBackend(ZXZ2)
    hat = ConedOffBackend(ZXZ2, radius=6)
    worst = 0
    pairs = 0
    # left-invariance: geodesic pairs between (x, y) match those between
    # (e, x^-1 y), so the radius-6 targets cover all radius-6 ball pairs
    for w in hat.gtable:
        report = check_bcp(ZXZ2, hat, backend, IDENTITY, w, 10_000)
        pairs += report.samples
        worst = max(worst, report.max_clause1, report.max_clause2)
    ext_backend = BfsBackend(EXT, 8)
    ext_hat = ConedOffBackend(EXT, radius=8)
    ext_worst = 0
    for w in ball(EXT, 3):
        report = check_bcp(EXT, ext_hat, ext_backend, IDENTITY, w, 10_000)
        ext_worst = max(ext_worst, report.max_clause1, report.max_clause2)
    _check(
        "criterion 8 (bounded coset penetration)",
        worst <= 1,
        started,
        120,
        f"exact c={worst} over {pairs} geodesic pairs; extended c={ext_worst}",
    )


def test_c09_thinness():
    started = time.time()
    rng = random.Random(7)
    report_c = thinness_scan(
        C2C3, ExactBackend(C2C3), triangle_sample(C2C3, rng, 200)
    )
    c_ok = all(r.delta <= 4 * max(r.depth, 1) for r in report_c.rows)
    rng = random.Random(7)
    triangles = triangle_sample(ZXZ2, rng, 150, max_syllables=3, max_syllable_len=6)
    for n in (3, 5, 7, 9):
        triangles.append(
            (IDENTITY, parse_element(ZXZ2, f"v^{n}"), parse_element(ZXZ2, f"u^{n} v^{n}"))
        )
    report_z = thinness_scan(ZXZ2, ExactBackend(ZXZ2), triangles)
    lam = report_z.lam
    z_ok = not report_z.flagged and all(
        r.delta <= lam * max(r.depth, 1) for r in report_z.rows
    )
    deep = max(r.depth for r in report_z.rows)
    _check(
        "criterion 9 (thinness vs penetration)",
        c_ok and z_ok,
        started,
        120,
        f"c2c3 delta<=4*max(D,1): {c_ok}; zxz2 lambda={lam}, max depth {deep}, "
        f"flagged={report_z.flagged or 'none'}",
    )


def test_c10_determinism(tmp_path):
    started = time.time()
    config = str(resources.files("periproj") / "configs" / "c2c3.cfg")
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "periproj.cli",
                "run",
                "--config",
                config,
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    identical = True
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            identical = False
    _check(
        "criterion 10 (determinism)",
        identical,
        started,
        120,
        f"{len(names)} report files byte-identical across reruns",
    )
