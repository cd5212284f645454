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

from dataclasses import dataclass, field

import numpy as np

from ..errors import OutOfRangeError
from ..group import GroupSpec, ball, element_str
from ..peripheral import coset_str, cosets_meeting_ball, projection


@dataclass
class ApReport:
    group: str
    sample_radius: int
    coset_radius: int
    constants: dict
    ap3_image_max: int
    witnesses: dict
    examined: dict
    skipped: int
    equivalence: dict = field(default_factory=dict)

    @property
    def projection_constant(self) -> int:
        """The single C making ap1/ap2/ap1p/ap2p hold on the sample."""
        return max(
            self.constants[k] for k in ("ap1", "ap2", "ap1p", "ap2p")
        )


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
    for P, p_points in points.items():
        # canonical projection of every sample point, None when uncertifiable
        proj_pts: list = []
        for x in xs:
            try:
                proj_pts.append(projection(spec, backend, P, x))
            except OutOfRangeError:
                proj_pts.append(None)
                skipped += 1

        # certified d(x, P) and d(x, pi(x))
        dP = np.full(n, -1, dtype=np.int32)
        dxpi = np.full(n, -1, dtype=np.int32)
        for i, x in enumerate(xs):
            if proj_pts[i] is None:
                continue
            try:
                # explicit minimization, never the gate formula: ap1p
                # compares d(x, pi(x)) against this value
                dP[i] = backend.coset_minimizers(P, x)[0]
                dxpi[i] = backend.distance(x, proj_pts[i])
            except OutOfRangeError:
                proj_pts[i] = None
                skipped += 1

        pid, upts, pdist, refused = projection_ids(backend, proj_pts)
        skipped += refused

        _ap1(spec, backend, P, xs, pid, upts, dxpi, p_points, constants, witnesses, examined)
        _ap2(spec, P, xs, pid, pdist, dmat, dP, constants, witnesses, examined)
        _ap1p(spec, P, xs, proj_pts, dxpi, dP, constants, witnesses, examined)
        _ap2p(spec, P, xs, pid, pdist, dmat, dxpi, constants, witnesses, examined)

    ap3_image_max, ap3_skipped = _ap3(
        spec, backend, points, constants, witnesses, examined
    )
    skipped += ap3_skipped

    report = ApReport(
        group=spec.name or repr(spec),
        sample_radius=sample_radius,
        coset_radius=coset_radius,
        constants=constants,
        ap3_image_max=ap3_image_max,
        witnesses=witnesses,
        examined=examined,
        skipped=skipped,
    )
    _equivalence(report)
    return report


def _ap1(spec, backend, P, xs, pid, upts, dxpi, p_points, constants, witnesses, examined):
    """Slack d(x, pi(x)) + d(pi(x), p) - d(x, p) over every certified pair
    (x, p) with p in ``p_points``, one block per coset; the witness is the
    first maximum in row-major (x, then p) order."""
    rows = np.flatnonzero(pid >= 0)
    if not len(rows) or not p_points:
        return
    d_xp = backend.distance_block([xs[r] for r in rows], p_points)
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
    n = len(xs)
    best = constants["ap2"]
    for i in range(n):
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
                "x": element_str(spec, xs[i]),
                "coset": coset_str(spec, P),
                "diam": diam,
            }
    constants["ap2"] = best


def _ap3(spec, backend, points, constants, witnesses, examined):
    """diam pi_P(Q) over ordered pairs of distinct cosets; ``points`` maps
    each coset, in order, to its sampled points."""
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
                    image.setdefault(projection(spec, backend, P, q), None)
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
                            "P": coset_str(spec, P),
                            "Q": coset_str(spec, Q),
                            "diam": d,
                        }
    constants["ap3"] = best
    return image_max, skipped


def _ap1p(spec, P, xs, proj_pts, dxpi, dP, constants, witnesses, examined):
    best = constants["ap1p"]
    for i, x in enumerate(xs):
        if proj_pts[i] is None or dP[i] < 0:
            continue
        examined["ap1p"] += 1
        slack = int(dxpi[i]) - int(dP[i])
        if slack > best:
            best = slack
            witnesses["ap1p"] = {
                "x": element_str(spec, x),
                "coset": coset_str(spec, P),
                "slack": slack,
            }
    constants["ap1p"] = best


def _ap2p(spec, P, xs, pid, pdist, dmat, dxpi, constants, witnesses, examined):
    """Minimal C with: d(pi(x1), pi(x2)) > C implies the through-coset bound
    with slack C.  Per pair the constraint is C >= min(gap, slack), so the
    minimum over the sample is the max of that expression."""
    n = len(xs)
    best = constants["ap2p"]
    valid = (pid >= 0) & (dxpi >= 0)
    idx = np.nonzero(valid)[0]
    if len(idx) < 2:
        return
    gaps = pdist[pid[idx][:, None], pid[idx][None, :]]
    dd = dmat[np.ix_(idx, idx)]
    sl = dxpi[idx][:, None] + gaps + dxpi[idx][None, :] - dd
    ok = (dd >= 0) & (gaps >= 0)
    examined["ap2p"] += int(ok.sum())
    need = np.minimum(gaps, sl)
    need[~ok] = -1
    worst = int(need.max()) if need.size else 0
    if worst > best:
        best = worst
        a, b = np.unravel_index(int(need.argmax()), need.shape)
        witnesses["ap2p"] = {
            "x1": element_str(spec, xs[idx[a]]),
            "x2": element_str(spec, xs[idx[b]]),
            "coset": coset_str(spec, P),
            "gap": int(gaps[a, b]),
            "slack": int(sl[a, b]),
        }
    constants["ap2p"] = best


def _equivalence(report: ApReport) -> None:
    """Track how the measured unprimed and primed constants bound each other
    (the two implications are theorems; the arithmetic is recorded, not
    asserted, because the implied witnesses may fall outside the sample)."""
    c = report.constants
    cp = max(c["ap1p"], c["ap2p"])
    cu = max(c["ap1"], c["ap2"])
    report.equivalence = {
        "ap1_le_2cp+1": (c["ap1"], 2 * cp + 1, c["ap1"] <= 2 * cp + 1),
        "ap2_le_4cp+2": (c["ap2"], 4 * cp + 2, c["ap2"] <= 4 * cp + 2),
        "ap1p_le_ap1": (c["ap1p"], c["ap1"], c["ap1p"] <= c["ap1"]),
        "ap2p_le_40cu+1": (c["ap2p"], 40 * cu + 1, c["ap2p"] <= 40 * cu + 1),
    }
