"""Inequality battery: every technical-lemma bound instantiated on samples.

Each row instantiates one proved inequality with the certified projection
constant C and counts violations (there must be none: the statements are
theorems, so a violation is a build-failing defect).  Rows also track the
worst observed margin (bound minus measured quantity) and a witness.

Path statements are exercised on three families: backend geodesics between
seeded random pairs (c = 0), lifts of coned-off geodesics (c = their fitted
quasi-geodesic constant), and random generator walks where the hypothesis
allows arbitrary paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import OutOfRangeError
from ..group import GroupSpec, ball, element_str
from ..metric import quasigeodesic_constants
from ..conedoff import lift
from ..peripheral import (
    cosets_meeting_ball,
    coset_str,
    dist_to_coset,
    projection,
)
from .axioms import projection_ids
from .sampling import SamplePlan, random_walk, seeded_pairs


@dataclass
class BatteryRow:
    name: str
    examined: int = 0
    skipped: int = 0
    violations: int = 0
    min_margin: int | None = None
    witness: dict | None = None

    def record(self, quantity: int, bound, witness: dict) -> None:
        margin = bound - quantity
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin
            self.witness = witness
        if quantity > bound:
            self.violations += 1
        self.examined += 1


@dataclass
class BatteryReport:
    group: str
    c: int
    rows: dict = field(default_factory=dict)

    @property
    def total_examined(self) -> int:
        return sum(r.examined for r in self.rows.values())

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.rows.values())


@dataclass
class _Path:
    vertices: list
    c: int
    kind: str  # geodesic | lift | walk


ROW_NAMES = (
    "far_path_contraction",
    "projection_coarse_lipschitz",
    "near_point_entry",
    "first_entry_near_projection",
    "grazing_geodesic_length",
    "grazing_projection_image",
    "neighborhood_overlap",
    "large_gap_forces_passage",
    "concatenation_quasigeodesic",
    "large_gap_ball_hit",
)


def lemma_battery(
    spec: GroupSpec,
    backend,
    ap_c: int,
    plan: SamplePlan,
    hat_backend,
) -> BatteryReport:
    """Every lemma row over the plan's samples; ``hat_backend`` is the
    coned-off backend, None only for a group without peripheral factors
    (then no lifted paths are built)."""
    rng = random.Random(plan.seed)
    C = ap_c
    report = BatteryReport(group=spec.name or repr(spec), c=C)
    rows = {name: BatteryRow(name) for name in ROW_NAMES}
    report.rows = rows

    xs = list(ball(spec, plan.sample_radius))
    cosets = cosets_meeting_ball(spec, ball(spec, plan.coset_radius))
    pairs = seeded_pairs(spec, rng, plan.n_pairs, plan.max_syllables, plan.max_syllable_len)

    paths = _build_paths(spec, backend, hat_backend, rng, pairs, plan, rows)
    proj_cache: dict = {}

    def proj(P, x):
        key = (P, x)
        if key not in proj_cache:
            proj_cache[key] = projection(spec, backend, P, x)
        return proj_cache[key]

    _lipschitz_sweep(spec, backend, xs, cosets, C, rows["projection_coarse_lipschitz"], proj)

    r_values = sorted({max(2 * C, 0) + off for off in plan.r_offsets})
    for path in paths:
        verts = path.vertices
        x, y = verts[0], verts[-1]
        for P in cosets:
            try:
                dprof = [dist_to_coset(spec, backend, P, v) for v in verts]
                pix = proj(P, x)
                piy = proj(P, y)
                gap = backend.distance(pix, piy)
            except OutOfRangeError:
                for name in ROW_NAMES:
                    if name not in ("projection_coarse_lipschitz", "concatenation_quasigeodesic"):
                        rows[name].skipped += 1
                continue
            base_witness = {
                "x": element_str(spec, x),
                "y": element_str(spec, y),
                "coset": coset_str(spec, P),
                "kind": path.kind,
            }
            _far_path(spec, backend, path, dprof, gap, C, plan.ks, rows, base_witness)
            if path.kind in ("geodesic", "lift"):
                _near_point_entry(spec, backend, path, P, dprof, pix, C, rows, base_witness)
                _large_gap(spec, backend, path, dprof, pix, piy, gap, C, rows, base_witness)
            if path.kind == "geodesic":
                for r in r_values:
                    _first_entry(spec, backend, path, dprof, pix, C, r, rows, base_witness)
                    _grazing(spec, backend, path, P, dprof, pix, C, r, rows, base_witness, proj)
                    _overlap(spec, backend, path, dprof, gap, C, r, rows, base_witness)

    _concatenation(spec, backend, rng, paths, plan, rows["concatenation_quasigeodesic"])
    return report


def _build_paths(spec, backend, hat_backend, rng, pairs, plan, rows) -> list:
    paths: list[_Path] = []
    for x, y in pairs:
        try:
            g = backend.geodesic(x, y)
            paths.append(_Path(g.vertices, 0, "geodesic"))
        except OutOfRangeError:
            continue
    if hat_backend is not None:
        for x, y in pairs:
            try:
                hp = hat_backend.geodesic(x, y)
                lifted = lift(spec, hp)
                _, mu = quasigeodesic_constants(lifted, backend)
                paths.append(_Path(lifted.vertices, mu, "lift"))
            except OutOfRangeError:
                continue
    for _ in range(plan.n_walks):
        start = ()
        paths.append(_Path(random_walk(spec, rng, start, plan.walk_length), 0, "walk"))
    return paths


def _lipschitz_sweep(spec, backend, xs, cosets, C, row, proj) -> None:
    """d(pi(x), pi(y)) <= d(x, y) + 6C over all sample pairs and cosets."""
    dmat = backend.distance_block(xs, xs)
    for P in cosets:
        pts = []
        for x in xs:
            try:
                pts.append(proj(P, x))
            except OutOfRangeError:
                row.skipped += 1
                pts.append(None)
        pid, _, pdist, _ = projection_ids(backend, pts)
        valid = pid >= 0
        idx = np.nonzero(valid)[0]
        if len(idx) < 2:
            continue
        gaps = pdist[pid[idx][:, None], pid[idx][None, :]]
        dd = dmat[np.ix_(idx, idx)]
        ok = (dd >= 0) & (gaps >= 0)
        margin = dd + 6 * C - gaps
        row.examined += int(ok.sum())
        row.skipped += int((~ok).sum())
        bad = ok & (margin < 0)
        row.violations += int(bad.sum())
        worst = margin[ok].min() if ok.any() else None
        if worst is not None and (row.min_margin is None or worst < row.min_margin):
            a, b = np.unravel_index(int(np.where(ok, margin, np.iinfo(np.int32).max).argmin()), margin.shape)
            row.min_margin = int(worst)
            row.witness = {
                "x": element_str(spec, xs[idx[a]]),
                "y": element_str(spec, xs[idx[b]]),
                "coset": coset_str(spec, P),
            }


def _far_path(spec, backend, path, dprof, gap, C, ks, rows, witness) -> None:
    """Projections contract along paths staying k*max(C,1) away from the coset."""
    row = rows["far_path_contraction"]
    min_d = min(dprof)
    length = len(path.vertices) - 1
    for k in ks:
        thr = k * max(C, 1)
        if min_d >= thr:
            # gap <= length/k + C, in integers: k*gap <= length + k*C
            row.record(k * gap, length + k * C, dict(witness, k=k))


def _near_point_entry(spec, backend, path, P, dprof, pix, C, rows, witness) -> None:
    """A (1,c) path ending r-close to the coset meets B_{2r+6C+5c}(pi(x)),
    and so does every vertex whose distance from x falls in the approach window."""
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
    dxP = dprof[0]
    for dv, dpi in zip(d_from_x, d_to_pix):
        if dxP - 2 * c <= dv <= dxP:
            row.record(dpi, rho, dict(witness, r=r, c=c, clause="window"))


def _first_entry(spec, backend, path, dprof, pix, C, r, rows, witness) -> None:
    """The first vertex of a geodesic entering N_r(P) is 8r+22C-close to pi(x)."""
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


def _grazing(spec, backend, path, P, dprof, pix, C, r, rows, witness, proj) -> None:
    """Geodesics meeting N_r(P) only at their endpoint have bounded length and
    bounded projection image."""
    if r < 2 * C:
        return
    inside = [i for i, d in enumerate(dprof) if d <= r]
    last = len(dprof) - 1
    if inside != [last]:
        return
    length = len(path.vertices) - 1
    x = path.vertices[0]
    try:
        dxP = dprof[0]
        rows["grazing_geodesic_length"].record(
            length, dxP + 8 * r + 23 * C, dict(witness, r=r)
        )
        worst = 0
        for v in path.vertices:
            worst = max(worst, backend.distance(proj(P, v), pix))
        rows["grazing_projection_image"].record(worst, 8 * r + 30 * C, dict(witness, r=r))
    except OutOfRangeError:
        rows["grazing_geodesic_length"].skipped += 1


def _overlap(spec, backend, path, dprof, gap, C, r, rows, witness) -> None:
    """diam of a geodesic's stay inside N_r(P) vs. the projection gap."""
    if r < 2 * C:
        return
    row = rows["neighborhood_overlap"]
    inside = [v for v, d in zip(path.vertices, dprof) if d <= r]
    if len(inside) < 2:
        return
    try:
        diam = max(
            backend.distance(a, b)
            for i, a in enumerate(inside)
            for b in inside[i + 1 :]
        )
    except OutOfRangeError:
        row.skipped += 1
        return
    row.record(diam, gap + 18 * r + 62 * C, dict(witness, r=r))


def _large_gap(spec, backend, path, dprof, pix, piy, gap, C, rows, witness) -> None:
    """Pairs with a large projection gap are forced through the coset
    neighborhood and through balls around both projections."""
    c = path.c
    if gap < 8 * C + 8 * c + 1:
        return
    try:
        min_to_pix = min(backend.distance(v, pix) for v in path.vertices)
        min_to_piy = min(backend.distance(v, piy) for v in path.vertices)
    except OutOfRangeError:
        rows["large_gap_forces_passage"].skipped += 1
        return
    rows["large_gap_forces_passage"].record(min(dprof), 2 * C, dict(witness, c=c))
    ball_bound = 10 * C + 5 * c
    rows["large_gap_forces_passage"].record(min_to_pix, ball_bound, dict(witness, c=c, side="x"))
    rows["large_gap_forces_passage"].record(min_to_piy, ball_bound, dict(witness, c=c, side="y"))
    rows["large_gap_ball_hit"].record(
        max(min_to_pix, min_to_piy), ball_bound, dict(witness, c=c)
    )


def _concatenation(spec, backend, rng, paths, plan, row) -> None:
    """Gluing a geodesic onto a (1,c) path at its closest point stays a
    (3, c)-quasi-geodesic."""
    candidates = [p for p in paths if p.kind in ("geodesic", "lift") and len(p.vertices) > 1]
    for path in candidates[: plan.n_pairs]:
        q = _random_sample_element(spec, rng, plan)
        try:
            dmin = None
            argmin = 0
            for i, v in enumerate(path.vertices):
                d = backend.distance(q, v)
                if dmin is None or d < dmin:
                    dmin, argmin = d, i
            suffix = path.vertices[argmin:]
            delta0 = backend.geodesic(q, suffix[0])
            verts = delta0.vertices + suffix[1:]
        except OutOfRangeError:
            row.skipped += 1
            continue
        c = path.c
        worst = None
        witness = None
        n = len(verts)
        viol = 0
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    d = backend.distance(verts[i], verts[j])
                except OutOfRangeError:
                    continue
                margin = (3 * d + c) - (j - i)
                if margin < 0:
                    viol += 1
                if worst is None or margin < worst:
                    worst = margin
                    witness = {
                        "q": element_str(spec, q),
                        "p": element_str(spec, suffix[0]),
                        "i": i,
                        "j": j,
                        "c": c,
                    }
        row.examined += 1
        row.violations += 1 if viol else 0
        if worst is not None and (row.min_margin is None or worst < row.min_margin):
            row.min_margin = worst
            row.witness = witness


def _random_sample_element(spec, rng, plan):
    from .sampling import random_element_by_length

    return random_element_by_length(spec, rng, plan.max_syllables, plan.max_syllable_len)
