"""Measurement of the almost-projection axioms on finite samples.

For a sample ball of group elements and every peripheral coset meeting a
coset ball, the checker computes the minimal integer constants making each
axiom hold on the sample:

* nearest-point slack (ap1): d(x, p) >= d(x, pi(x)) + d(pi(x), p) - C over
  sampled coset points p;
* locally-constant projections (ap2): diam pi(B_d(x)) <= C where d = d(x, P),
  the ball restricted to the sample;
* bounded cross-projections (ap3): diam pi_P(Q) <= C for distinct cosets,
  with the image cardinality reported alongside;
* the primed forms (ap1p, ap2p): projection distance vs. true coset distance,
  and the through-the-coset lower bound for pairs whose projections differ by
  more than C (strict trigger, so C = 0 reduces to the exact property).

All constants are certified minima over the examined configurations, with
witnesses; uncertifiable configurations are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..group import GroupSpec, ball, element_str
from ..peripheral import coset_str, cosets_meeting_ball


@dataclass
class ApReport:
    constants: dict
    ap3_image_max: int
    witnesses: dict
    examined: dict
    skipped: int

    @property
    def projection_constant(self) -> int:
        """The single C making ap1/ap2/ap1p/ap2p hold on the sample."""
        return max(
            self.constants[k] for k in ("ap1", "ap2", "ap1p", "ap2p")
        )

    @property
    def equivalence(self) -> dict:
        """How the measured unprimed and primed constants bound each other
        (the two implications are theorems; the arithmetic is recorded, not
        asserted, because the implied witnesses may fall outside the sample)."""
        c = self.constants
        cp = max(c["ap1p"], c["ap2p"])
        cu = max(c["ap1"], c["ap2"])
        return {
            "ap1_le_2cp+1": (c["ap1"], 2 * cp + 1, c["ap1"] <= 2 * cp + 1),
            "ap2_le_4cp+2": (c["ap2"], 4 * cp + 2, c["ap2"] <= 4 * cp + 2),
            "ap1p_le_ap1": (c["ap1p"], c["ap1"], c["ap1p"] <= c["ap1"]),
            "ap2p_le_40cu+1": (c["ap2p"], 40 * cu + 1, c["ap2p"] <= 40 * cu + 1),
        }


def projection_ids(backend, points):
    """Compress projection points (None where uncertified) to ids.

    Returns (pid, distinct points, their pairwise distance table with -1
    where not certified, number of refused unordered pairs); pid is -1 for
    the None entries.
    """
    uniq: dict = {}
    pid = np.array(
        [-1 if p is None else uniq.setdefault(p, len(uniq)) for p in points],
        dtype=np.int32,
    )
    upts = list(uniq)
    pdist = backend.distance_block(upts, upts)
    return pid, upts, pdist, int((pdist < 0).sum()) // 2


def check_ap_axioms(
    spec: GroupSpec, backend, sample_radius: int, coset_radius: int
) -> ApReport:
    """Every axiom over the sample ball and the cosets meeting the coset
    ball.  The distances come from one block per kind and pass: sample
    pairs, sample to projection points, sample to coset points, and cosets
    to sample.  ap1p needs the true minimum d(x, P), which the coset block
    is: with rep^-1 x = h0 w' for the leading P-syllable h0, d(x, rep h) =
    |w'| + len_f(h^-1 h0) is least at h = h0, the closed form of exact
    mode, and BFS mode reads the nearest ball member of the coset x^-1 P."""
    xs = list(ball(spec, sample_radius))
    cosets = cosets_meeting_ball(spec, ball(spec, coset_radius))
    n = len(xs)
    level_cap = max(sample_radius, coset_radius)

    examined = {k: 0 for k in ("ap1", "ap2", "ap3", "ap1p", "ap2p")}
    constants = {k: 0 for k in examined}
    witnesses: dict = {}

    # pairwise sample distances (-1 where the backend cannot certify)
    dmat = backend.distance_block(xs, xs)
    skipped = int((dmat < 0).sum())

    points = {P: backend.coset_points(P, level_cap) for P in cosets}
    # canonical projection of every sample point, None when uncertifiable
    projections = {P: backend.project_block(P, xs) for P in cosets}
    d_xpi, pi_col = _distinct_columns(
        backend, xs, (p for pts in projections.values() for p in pts if p is not None)
    )
    # a row without a projection reads the padding column -1
    d_xpi = np.pad(d_xpi, ((0, 0), (0, 1)), constant_values=-1)
    d_xp, p_col = _distinct_columns(
        backend, xs, (p for pts in points.values() for p in pts)
    )

    dP_block = backend.coset_distance_block(list(points), xs)
    for (P, p_points), dP in zip(points.items(), dP_block):
        cols = [-1 if p is None else pi_col[p] for p in projections[P]]
        dxpi = d_xpi[np.arange(n), cols]
        # a row keeps its projection where d(x, P) and d(x, pi(x)) are certified
        keep = (dP >= 0) & (dxpi >= 0)
        skipped += n - int(np.count_nonzero(keep))
        proj_pts = [p if k else None for p, k in zip(projections[P], keep.tolist())]
        pid, upts, pdist, refused = projection_ids(backend, proj_pts)
        skipped += refused

        d_xP = d_xp[:, [p_col[p] for p in p_points]]
        _ap1(spec, backend, P, xs, pid, upts, dxpi, p_points, d_xP, constants, witnesses, examined)
        _ap2(spec, P, xs, pid, pdist, dmat, dP, constants, witnesses, examined)
        _ap1p(spec, P, xs, pid, dxpi, dP, constants, witnesses, examined)
        _ap2p(spec, P, xs, pid, pdist, dmat, dxpi, constants, witnesses, examined)

    ap3_image_max, ap3_skipped = _ap3(
        spec, backend, points, constants, witnesses, examined
    )
    skipped += ap3_skipped

    return ApReport(
        constants=constants,
        ap3_image_max=ap3_image_max,
        witnesses=witnesses,
        examined=examined,
        skipped=skipped,
    )


def _distinct_columns(backend, xs, ys):
    """``distance_block`` from ``xs`` to the distinct ``ys``, and the column
    of each y."""
    col: dict = {}
    for y in ys:
        col.setdefault(y, len(col))
    return backend.distance_block(xs, list(col)), col


def _ap1(spec, backend, P, xs, pid, upts, dxpi, p_points, d_xp, constants, witnesses, examined):
    """Slack d(x, pi(x)) + d(pi(x), p) - d(x, p) over every certified pair
    (x, p) with p in ``p_points``; ``d_xp`` holds d(x, p) for every sample
    row.  The witness is the first maximum in row-major (x, then p) order."""
    rows = np.flatnonzero(pid >= 0)
    if not len(rows) or not p_points:
        return
    d_xp = d_xp[rows]
    d_pip = backend.distance_block(upts, p_points)[pid[rows]]
    ok = (d_xp >= 0) & (d_pip >= 0)
    examined["ap1"] += int(ok.sum())
    slack = np.where(ok, dxpi[rows][:, None] + d_pip - d_xp, np.iinfo(np.int32).min)
    a, b = np.unravel_index(int(slack.argmax()), slack.shape)
    worst = int(slack[a, b])
    if worst > constants["ap1"]:
        constants["ap1"] = worst
        witnesses["ap1"] = {
            "x": element_str(spec, xs[rows[a]]),
            "p": element_str(spec, p_points[b]),
            "coset": coset_str(spec, P),
            "slack": worst,
        }


def _ap2(spec, P, xs, pid, pdist, dmat, dP, constants, witnesses, examined):
    """diam pi(B_d(x)) with d = d(x, P), the ball restricted to the certified
    sample, from one (row x projection id) incidence matrix.  A row meeting
    one id reads 0 from the diagonal of ``pdist``; the witness is the first
    row of largest diameter."""
    rows = np.flatnonzero((pid >= 0) & (dP >= 0))
    if not len(rows):
        return
    # the certified sample columns, grouped by projection id
    cols = np.argsort(pid, kind="stable")[np.count_nonzero(pid < 0):]
    ids, starts = np.unique(pid[cols], return_index=True)
    sel = dmat >= 0
    sel &= dmat <= dP[:, None]
    sel = sel[rows][:, cols]
    examined["ap2"] += int(np.count_nonzero(sel))
    ends = np.append(starts[1:], len(cols))
    meets = np.stack([sel[:, s:e].any(axis=1) for s, e in zip(starts, ends)], axis=1)
    sub = pdist[ids][:, ids]
    diam = np.full(len(rows), -1, dtype=np.int32)
    for a in range(len(ids)):
        reach = np.where(meets, sub[a], -1).max(axis=1)
        np.maximum(diam, np.where(meets[:, a], reach, -1), out=diam)
    i = int(diam.argmax())
    if diam[i] > constants["ap2"]:
        constants["ap2"] = int(diam[i])
        witnesses["ap2"] = {
            "x": element_str(spec, xs[rows[i]]),
            "coset": coset_str(spec, P),
            "diam": int(diam[i]),
        }


def _ap3(spec, backend, points, constants, witnesses, examined):
    """diam pi_P(Q) over ordered pairs of distinct cosets; ``points`` maps
    each coset, in order, to its sampled points.  One ``project_block`` per
    P covers the other cosets' points, and one distance block the points
    of every image with two or more points."""
    skipped = 0
    images = []  # (P, Q, distinct image points in first-seen order)
    for P in points:
        others = [Q for Q in points if Q != P]
        proj = backend.project_block(P, [q for Q in others for q in points[Q]])
        start = 0
        for Q in others:
            part = proj[start : start + len(points[Q])]
            start += len(points[Q])
            image = [p for p in part if p is not None]
            skipped += len(part) - len(image)
            examined["ap3"] += len(image)
            images.append((P, Q, list(dict.fromkeys(image))))
    image_max = max((len(pts) for _, _, pts in images), default=0)
    multi = list(dict.fromkeys(p for _, _, pts in images if len(pts) > 1 for p in pts))
    col = {p: k for k, p in enumerate(multi)}
    dist = backend.distance_block(multi, multi)
    best = constants["ap3"]
    for P, Q, pts in images:
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                d = int(dist[col[pts[a]], col[pts[b]]])
                if d < 0:
                    skipped += 1
                    continue
                if d > best:
                    best = d
                    witnesses["ap3"] = {
                        "P": coset_str(spec, P),
                        "Q": coset_str(spec, Q),
                        "diam": d,
                    }
    constants["ap3"] = best
    return image_max, skipped


def _ap1p(spec, P, xs, pid, dxpi, dP, constants, witnesses, examined):
    """Slack d(x, pi(x)) - d(x, P) over the certified rows; the witness is
    the first row of largest slack."""
    rows = np.flatnonzero((pid >= 0) & (dP >= 0))
    examined["ap1p"] += len(rows)
    if not len(rows):
        return
    slack = dxpi[rows] - dP[rows]
    i = int(slack.argmax())
    if slack[i] > constants["ap1p"]:
        constants["ap1p"] = int(slack[i])
        witnesses["ap1p"] = {
            "x": element_str(spec, xs[rows[i]]),
            "coset": coset_str(spec, P),
            "slack": int(slack[i]),
        }


def _ap2p(spec, P, xs, pid, pdist, dmat, dxpi, constants, witnesses, examined):
    """Minimal C with: d(pi(x1), pi(x2)) > C implies the through-coset bound
    with slack C.  Per pair the constraint is C >= min(gap, slack), so the
    minimum over the sample is the max of that expression."""
    valid = (pid >= 0) & (dxpi >= 0)
    if np.count_nonzero(valid) < 2:
        return
    # an uncertified row reads the padding: gap -1, left out below
    ids = np.where(valid, pid, -1)
    gaps = np.pad(pdist, (0, 1), constant_values=-1)[ids][:, ids]
    ok = dmat >= 0
    ok &= gaps >= 0
    examined["ap2p"] += int(np.count_nonzero(ok))
    # min(gap, slack) = gap + min(0, d(x1, pi) + d(x2, pi) - d(x1, x2))
    need = np.add.outer(dxpi, dxpi)
    need -= dmat
    np.minimum(need, 0, out=need)
    need += gaps
    np.copyto(need, -1, where=~ok)
    a, b = np.unravel_index(int(need.argmax()), need.shape)
    if need[a, b] > constants["ap2p"]:
        gap = int(gaps[a, b])
        constants["ap2p"] = int(need[a, b])
        witnesses["ap2p"] = {
            "x1": element_str(spec, xs[a]),
            "x2": element_str(spec, xs[b]),
            "coset": coset_str(spec, P),
            "gap": gap,
            "slack": int(dxpi[a]) + gap + int(dxpi[b]) - int(dmat[a, b]),
        }
