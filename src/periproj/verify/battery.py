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
from ..peripheral import cosets_meeting_ball, coset_str
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
# edges of each random generator walk
WALK_LENGTH = 12
# the far-path row tests paths staying k * max(C, 1) from a coset, per k
FAR_PATH_KS = (1, 2, 3)
# the entry and grazing rows use the neighbourhood radii 2C + offset
R_OFFSETS = (0, 1, 2)


def lemma_battery(
    spec: GroupSpec,
    backend,
    ap_c: int,
    plan: SamplePlan,
    hat_backend,
) -> BatteryReport:
    """Every lemma row over the plan's samples; ``hat_backend`` is the
    coned-off backend, None only for a group without peripheral factors
    (then no lifted paths are built).

    The distances come from blocks: d(v, P) for every path vertex and coset
    at once, per coset one table of projections and their distances, and
    per geodesic or lifted path one block from the points it reads (x, the
    projections of its ends, and every vertex where a stay inside a coset
    neighbourhood needs pair distances) to its vertices.  A row is skipped
    exactly when a cell it reads is -1.
    """
    rng = random.Random(plan.seed)
    C = ap_c
    rows = {name: BatteryRow(name) for name in ROW_NAMES}

    xs = list(ball(spec, plan.sample_radius))
    cosets = cosets_meeting_ball(spec, ball(spec, plan.coset_radius))
    pairs = seeded_pairs(spec, rng, plan.n_pairs, plan.max_syllables, plan.max_syllable_len)

    paths = _build_paths(spec, backend, hat_backend, rng, pairs, plan, rows)
    r_values = sorted({max(2 * C, 0) + off for off in R_OFFSETS})

    # d(v, P) for every path vertex v and coset P; a path meets its cosets
    # in the rows of its profile that are certified throughout
    vertices = list(dict.fromkeys(v for path in paths for v in path.vertices))
    col = {v: k for k, v in enumerate(vertices)}
    dprof_block = backend.coset_distance_block(cosets, vertices)
    profiles = [dprof_block[:, [col[v] for v in path.vertices]] for path in paths]
    certified = [(prof >= 0).all(axis=1) for prof in profiles]
    grazed = [
        _grazed(prof, r_values, C) & (path.kind == "geodesic")
        for path, prof in zip(paths, profiles)
    ]

    # per coset: the projections of the sample, of the ends of the paths
    # meeting it, and of every vertex of a geodesic grazing it, with their
    # pairwise distances
    dmat = backend.distance_block(xs, xs)
    lipschitz = rows["projection_coarse_lipschitz"]
    tables = []
    for k, P in enumerate(cosets):
        read = list(xs)
        for path, ok, grazes in zip(paths, certified, grazed):
            if ok[k]:
                read += (path.vertices[0], path.vertices[-1])
                if grazes[k]:
                    read += path.vertices
        read = list(dict.fromkeys(read))
        pid, upts, pdist, _ = projection_ids(backend, backend.project_block(P, read))
        _lipschitz(spec, xs, dmat, P, pid[: len(xs)], pdist, C, lipschitz)
        tables.append((dict(zip(read, pid.tolist())), upts, pdist))

    for path, prof, ok, grazes in zip(paths, profiles, certified, grazed):
        verts = path.vertices
        x, y = verts[0], verts[-1]
        # (pi(x) id, pi(y) id, gap) per coset, None where the path is skipped
        ends = []
        for (ids, _, pdist), meets in zip(tables, ok):
            ix, iy = (ids[x], ids[y]) if meets else (-1, -1)
            certain = ix >= 0 and iy >= 0 and pdist[ix, iy] >= 0
            ends.append((ix, iy, int(pdist[ix, iy])) if certain else None)
        if path.kind in ("geodesic", "lift"):
            block, at = _path_block(backend, path, prof, ends, tables, r_values, C)
            from_x = block[0].tolist()
        if path.kind == "geodesic":
            stays = _stay_diameters(prof, [end is not None for end in ends], block, r_values, C)
        for k, P in enumerate(cosets):
            if ends[k] is None:
                for name in ROW_NAMES:
                    if name not in ("projection_coarse_lipschitz", "concatenation_quasigeodesic"):
                        rows[name].skipped += 1
                continue
            ix, iy, gap = ends[k]
            ids, upts, pdist = tables[k]
            dprof = prof[k].tolist()
            base_witness = {
                "x": element_str(spec, x),
                "y": element_str(spec, y),
                "coset": coset_str(spec, P),
                "kind": path.kind,
            }
            _far_path(path, dprof, gap, C, FAR_PATH_KS, rows, base_witness)
            if path.kind in ("geodesic", "lift"):
                to_pix = block[at[upts[ix]]].tolist()
                _near_point_entry(path, dprof, to_pix, from_x, C, rows, base_witness)
                if gap >= _large_gap_threshold(C, path.c):
                    to_piy = block[at[upts[iy]]].tolist()
                    _large_gap(path, dprof, to_pix, to_piy, C, rows, base_witness)
            if path.kind == "geodesic":
                image = [ids[v] for v in verts] if grazes[k] else []
                image_gaps = pdist[image, ix].tolist() if -1 not in image else None
                for r in r_values:
                    _first_entry(path, dprof, to_pix, C, r, rows, base_witness)
                    _grazing(path, dprof, image_gaps, C, r, rows, base_witness)
                    _overlap(stays[r][k], gap, C, r, rows, base_witness)

    _concatenation(spec, backend, rng, paths, plan, rows["concatenation_quasigeodesic"])
    return BatteryReport(rows)


def _grazed(prof, r_values, C) -> np.ndarray:
    """Per coset row of a path's profile, whether some radius r >= 2C has
    only the last vertex inside N_r(P), so that ``_grazing`` reads the
    projection of every vertex."""
    last = prof[:, -1]
    rest = prof[:, :-1].min(axis=1, initial=np.iinfo(np.int32).max)
    out = np.zeros(len(prof), dtype=bool)
    for r in r_values:
        if r >= 2 * C:
            out |= (last <= r) & (r < rest)
    return out


def _large_gap_threshold(C, c) -> int:
    return 8 * C + 8 * c + 1


def _path_block(backend, path, prof, ends, tables, r_values, C):
    """One distance block from the points a geodesic or lifted path reads to
    its vertices, and the row of each point.  Row 0 is x; the vertices come
    first when some stay inside a coset neighbourhood has two or more
    vertices (``_overlap`` reads their pairs), then the projections of x on
    every coset the path meets and of y where the gap is large.  The metric
    is symmetric, so a row gives d(v, p) as well as d(p, v)."""
    verts = path.vertices
    reach = max((r for r in r_values if r >= 2 * C), default=None)
    pairs = path.kind == "geodesic" and reach is not None and any(
        end is not None and np.count_nonzero(prof[k] <= reach) >= 2
        for k, end in enumerate(ends)
    )
    points = list(verts) if pairs else [verts[0]]
    for (_, upts, _), end in zip(tables, ends):
        if end is not None:
            ix, iy, gap = end
            points.append(upts[ix])
            if gap >= _large_gap_threshold(C, path.c):
                points.append(upts[iy])
    at: dict = {}
    for k, p in enumerate(points):
        at.setdefault(p, k)
    return backend.distance_block(points, verts), at


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
        paths.append(_Path(random_walk(spec, rng, (), WALK_LENGTH), 0, "walk"))
    return paths


def _lipschitz(spec, xs, dmat, P, pid, pdist, C, row) -> None:
    """d(pi(x), pi(y)) <= d(x, y) + 6C over the sample pairs, for one coset;
    ``pid`` holds the projection id of each sample point (-1 where refused)."""
    row.skipped += int(np.count_nonzero(pid < 0))
    idx = np.flatnonzero(pid >= 0)
    if len(idx) < 2:
        return
    gaps = pdist[pid[idx]][:, pid[idx]]
    dd = dmat[idx][:, idx]
    ok = (dd >= 0) & (gaps >= 0)
    margin = dd + 6 * C - gaps
    row.examined += int(ok.sum())
    row.skipped += int((~ok).sum())
    row.violations += int((ok & (margin < 0)).sum())
    if not ok.any():
        return
    masked = np.where(ok, margin, np.iinfo(np.int32).max)
    a, b = np.unravel_index(int(masked.argmin()), masked.shape)
    worst = int(masked[a, b])
    if row.min_margin is None or worst < row.min_margin:
        row.min_margin = worst
        row.witness = {
            "x": element_str(spec, xs[idx[a]]),
            "y": element_str(spec, xs[idx[b]]),
            "coset": coset_str(spec, P),
        }


def _far_path(path, dprof, gap, C, ks, rows, witness) -> None:
    """Projections contract along paths staying k*max(C,1) away from the coset."""
    row = rows["far_path_contraction"]
    min_d = min(dprof)
    length = len(path.vertices) - 1
    for k in ks:
        thr = k * max(C, 1)
        if min_d >= thr:
            # gap <= length/k + C, in integers: k*gap <= length + k*C
            row.record(k * gap, length + k * C, dict(witness, k=k))


def _near_point_entry(path, dprof, to_pix, from_x, C, rows, witness) -> None:
    """A (1,c) path ending r-close to the coset meets B_{2r+6C+5c}(pi(x)),
    and so does every vertex whose distance from x falls in the approach
    window.  ``to_pix`` and ``from_x`` hold d(v, pi(x)) and d(x, v)."""
    row = rows["near_point_entry"]
    c = path.c
    r = dprof[-1]
    rho = 2 * r + 6 * C + 5 * c
    if min(to_pix) < 0 or min(from_x) < 0:
        row.skipped += 1
        return
    row.record(min(to_pix), rho, dict(witness, r=r, c=c))
    dxP = dprof[0]
    for dv, dpi in zip(from_x, to_pix):
        if dxP - 2 * c <= dv <= dxP:
            row.record(dpi, rho, dict(witness, r=r, c=c, clause="window"))


def _first_entry(path, dprof, to_pix, C, r, rows, witness) -> None:
    """The first vertex of a geodesic entering N_r(P) is 8r+22C-close to pi(x)."""
    if r < 2 * C:
        return
    row = rows["first_entry_near_projection"]
    for d, q in zip(dprof, to_pix):
        if d <= r:
            if q < 0:
                row.skipped += 1
                return
            row.record(q, 8 * r + 22 * C, dict(witness, r=r))
            return


def _grazing(path, dprof, image_gaps, C, r, rows, witness) -> None:
    """Geodesics meeting N_r(P) only at their endpoint have bounded length and
    bounded projection image; ``image_gaps`` holds d(pi(v), pi(x)) per
    vertex, None where a projection is refused."""
    if r < 2 * C:
        return
    inside = [i for i, d in enumerate(dprof) if d <= r]
    last = len(dprof) - 1
    if inside != [last]:
        return
    length = len(path.vertices) - 1
    dxP = dprof[0]
    rows["grazing_geodesic_length"].record(
        length, dxP + 8 * r + 23 * C, dict(witness, r=r)
    )
    if image_gaps is None or min(image_gaps) < 0:
        rows["grazing_geodesic_length"].skipped += 1
        return
    rows["grazing_projection_image"].record(
        max(image_gaps), 8 * r + 30 * C, dict(witness, r=r)
    )


def _stay_diameters(prof, live, block, r_values, C) -> dict:
    """Per radius r of ``r_values`` and coset row of a geodesic's profile,
    the diameter of the path's stay inside N_r(P), from one mask over the
    vertex rows of ``block`` (``_path_block``): None where r < 2C, the row
    is not ``live`` or fewer than two vertices stay, and -1 where a pair of
    the stay is refused."""
    n = prof.shape[1]
    stays = {r: [None] * len(prof) for r in r_values}
    rs = np.array(r_values)
    inside = (prof <= rs[:, None, None]) & (rs >= 2 * C)[:, None, None]  # radius x coset x vertex
    inside &= np.asarray(live, dtype=bool)[:, None]
    q, k = np.nonzero(np.count_nonzero(inside, axis=2) >= 2)
    if len(q):
        stay = inside[q, k]
        both = stay[:, :, None] & stay[:, None, :] & np.triu(np.ones((n, n), dtype=bool), 1)
        pairs = block[:n, :n]
        diam = np.where(both, pairs, -1).max(axis=(1, 2))
        diam[(both & (pairs < 0)).any(axis=(1, 2))] = -1
        for a, b, d in zip(q.tolist(), k.tolist(), diam.tolist()):
            stays[r_values[a]][b] = d
    return stays


def _overlap(diam, gap, C, r, rows, witness) -> None:
    """diam of a geodesic's stay inside N_r(P) vs. the projection gap;
    ``diam`` is None where no pair of vertices stays (``_stay_diameters``)
    and -1 where a pair is refused."""
    if diam is None:
        return
    row = rows["neighborhood_overlap"]
    if diam < 0:
        row.skipped += 1
        return
    row.record(diam, gap + 18 * r + 62 * C, dict(witness, r=r))


def _large_gap(path, dprof, to_pix, to_piy, C, rows, witness) -> None:
    """Pairs with a large projection gap are forced through the coset
    neighborhood and through balls around both projections."""
    c = path.c
    min_to_pix, min_to_piy = min(to_pix), min(to_piy)
    if min_to_pix < 0 or min_to_piy < 0:
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
    (3, c)-quasi-geodesic; refused pairs of the glued path are left out."""
    candidates = [p for p in paths if p.kind in ("geodesic", "lift") and len(p.vertices) > 1]
    for path in candidates[: plan.n_pairs]:
        q = _random_sample_element(spec, rng, plan)
        to_q = backend.distance_block([q], path.vertices)[0]
        if (to_q < 0).any():
            row.skipped += 1
            continue
        suffix = path.vertices[int(to_q.argmin()):]
        try:
            delta0 = backend.geodesic(q, suffix[0])
        except OutOfRangeError:
            row.skipped += 1
            continue
        verts = delta0.vertices + suffix[1:]
        i, j = np.triu_indices(len(verts), 1)
        d = backend.distance_block(verts, verts)[i, j]
        keep = d >= 0
        margin = 3 * d[keep] + path.c - (j - i)[keep]
        row.examined += 1
        row.violations += 1 if (margin < 0).any() else 0
        if not margin.size:
            continue
        w = int(margin.argmin())
        worst = int(margin[w])
        if row.min_margin is None or worst < row.min_margin:
            row.min_margin = worst
            row.witness = {
                "q": element_str(spec, q),
                "p": element_str(spec, suffix[0]),
                "i": int(i[keep][w]),
                "j": int(j[keep][w]),
                "c": path.c,
            }


def _random_sample_element(spec, rng, plan):
    from .sampling import random_element_by_length

    return random_element_by_length(spec, rng, plan.max_syllables, plan.max_syllable_len)
