"""Sample-certified ambient-geometry constants.

All values are maxima of the relevant quantity over exhaustive-within-caps
deterministic samples, with witnesses and a census; they are measurements on
finite balls, never claims about the asymptotic constants.

* ``m``: for pairs whose endpoints are both within a third of their distance
  from a coset, how far every enumerated geodesic stays from that coset;
* ``b_by_h``: diameter of the overlap of two coset H-neighborhoods;
* ``t_by_l``: stretch of coset quasi-convexity, i.e. geodesics between points
  of N_L(P) stay in N_{tL}(P);
* ``sigma_by_d``: overlap diameter of two geodesics pinned near two distinct
  cosets;
* ``entry_m_by_d`` / ``hat_entry_m``: distance from the first neighborhood
  entry of a (coned-off) geodesic to the canonical projection point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from ..errors import OutOfRangeError
from ..group import GroupSpec, ball, element_str
from ..metric import enumerate_geodesics
from ..peripheral import (
    coset_str,
    cosets_meeting_ball,
    dist_to_coset,
    proj_conedoff,
    proj_entrypoint,
    projection,
)

# caps on the samples of the m, t and sigma estimates: enumerated geodesics
# per pair, coset points per coset, and qualifying pairs per coset (m) or
# coset pairs (sigma)
GEODESIC_CAP = 20
ENDPOINT_CAP = 6
COSET_PAIR_CAP = 400


@dataclass
class DstgConstants:
    m: int
    b_by_h: dict
    t_by_l: dict
    sigma_by_d: dict
    entry_m_by_d: dict
    hat_entry_m: int
    witnesses: dict = field(default_factory=dict)
    examined: dict = field(default_factory=dict)
    skipped: int = 0


def estimate_dstg_constants(
    spec: GroupSpec,
    backend,
    radius: int,
    hat_backend,
) -> DstgConstants:
    """The ambient constants over ball(``radius``); ``hat_backend`` is the
    coned-off backend, None only for a group without peripheral factors
    (then ``hat_entry_m`` stays 0)."""
    xs = list(ball(spec, radius))
    cosets = cosets_meeting_ball(spec, ball(spec, max(1, radius - 1)))
    witnesses: dict = {}
    examined = {k: 0 for k in ("m", "b", "t", "sigma", "entry", "hat_entry")}

    dmat = backend.distance_block(xs, xs)
    skipped = int((dmat < 0).sum())

    dcos_block = backend.coset_distance_block(cosets, xs)
    skipped += int((dcos_block < 0).sum())
    dcos = dict(zip(cosets, dcos_block))

    m_val = _measure_m(spec, backend, xs, cosets, dmat, dcos, witnesses, examined)
    b_by_h = _measure_b(spec, cosets, xs, dmat, dcos, witnesses, examined)
    t_by_l = _measure_t(spec, backend, cosets, xs, dcos, witnesses, examined)
    sigma_by_d = _measure_sigma(spec, backend, cosets, xs, dcos, witnesses, examined)
    entry_by_d, hat_entry = _measure_entry(
        spec, backend, hat_backend, xs, cosets, witnesses, examined
    )

    return DstgConstants(
        m=m_val,
        b_by_h=b_by_h,
        t_by_l=t_by_l,
        sigma_by_d=sigma_by_d,
        entry_m_by_d=entry_by_d,
        hat_entry_m=hat_entry,
        witnesses=witnesses,
        examined=examined,
        skipped=skipped,
    )


def _measure_m(spec, backend, xs, cosets, dmat, dcos, witnesses, examined) -> int:
    best = 0
    for P in cosets:
        col = dcos[P]
        ok = (col >= 0)[:, None] & (col >= 0)[None, :] & (dmat >= 0)
        qual = ok & (3 * col[:, None] <= dmat) & (3 * col[None, :] <= dmat)
        pairs = np.argwhere(np.triu(qual, 1))[:COSET_PAIR_CAP]
        for i, j in pairs:
            geos, _ = enumerate_geodesics(backend, xs[i], xs[j], GEODESIC_CAP)
            for g in geos:
                try:
                    q = min(dist_to_coset(spec, backend, P, v) for v in g.vertices)
                except OutOfRangeError:
                    continue
                examined["m"] += 1
                if q > best:
                    best = q
                    witnesses["m"] = {
                        "x": element_str(spec, xs[i]),
                        "y": element_str(spec, xs[j]),
                        "coset": coset_str(spec, P),
                    }
    return best


def _measure_b(spec, cosets, xs, dmat, dcos, witnesses, examined) -> dict:
    b_by_h = {}
    for h in range(4):
        best = 0
        for P, Q in combinations(cosets, 2):
            sel = np.nonzero((dcos[P] >= 0) & (dcos[Q] >= 0) & (dcos[P] <= h) & (dcos[Q] <= h))[0]
            examined["b"] += 1
            if len(sel) < 2:
                continue
            sub = dmat[np.ix_(sel, sel)]
            known = sub[sub >= 0]
            if known.size and int(known.max()) > best:
                best = int(known.max())
                witnesses[f"b{h}"] = {
                    "P": coset_str(spec, P),
                    "Q": coset_str(spec, Q),
                    "diam": best,
                }
        b_by_h[h] = best
    return b_by_h


def _measure_t(spec, backend, cosets, xs, dcos, witnesses, examined) -> dict:
    t_by_l = {}
    for level in (1, 2, 3):
        best = Fraction(0)
        for P in cosets:
            sel = np.nonzero((dcos[P] >= 0) & (dcos[P] <= level))[0][: 2 * ENDPOINT_CAP]
            for i, j in combinations(sel, 2):
                try:
                    g = backend.geodesic(xs[i], xs[j])
                    worst = max(dist_to_coset(spec, backend, P, v) for v in g.vertices)
                except OutOfRangeError:
                    continue
                examined["t"] += 1
                ratio = Fraction(worst, level)
                if ratio > best:
                    best = ratio
                    witnesses[f"t{level}"] = {
                        "x": element_str(spec, xs[i]),
                        "y": element_str(spec, xs[j]),
                        "coset": coset_str(spec, P),
                        "worst": worst,
                    }
        t_by_l[level] = best
    return t_by_l


def _measure_sigma(spec, backend, cosets, xs, dcos, witnesses, examined) -> dict:
    sigma_by_d = {}
    trace_cache: dict = {}

    def trace(i, j):
        key = (i, j)
        if key not in trace_cache:
            g = backend.geodesic(xs[i], xs[j])
            trace_cache[key] = (g.vertices, set(g.vertices))
        return trace_cache[key]

    for depth in (0, 1):
        best = 0
        pair_budget = COSET_PAIR_CAP
        for P, Q in combinations(cosets, 2):
            if pair_budget <= 0:
                break
            selp = np.nonzero((dcos[P] >= 0) & (dcos[P] <= depth))[0][: ENDPOINT_CAP]
            selq = np.nonzero((dcos[Q] >= 0) & (dcos[Q] <= depth))[0][: ENDPOINT_CAP]
            if len(selp) < 2 or len(selq) < 2:
                continue
            pair_budget -= 1
            for a0, a1 in combinations(selp, 2):
                for b0, b1 in combinations(selq, 2):
                    try:
                        verts1, set1 = trace(a0, a1)
                        verts2, set2 = trace(b0, b1)
                    except OutOfRangeError:
                        continue
                    common = [v for v in verts1 if v in set2]
                    examined["sigma"] += 1
                    if len(common) < 2:
                        continue
                    try:
                        diam = max(
                            backend.distance(u, v) for u, v in combinations(common, 2)
                        )
                    except OutOfRangeError:
                        continue
                    if diam > best:
                        best = diam
                        witnesses[f"sigma{depth}"] = {
                            "P": coset_str(spec, P),
                            "Q": coset_str(spec, Q),
                            "diam": diam,
                        }
        sigma_by_d[depth] = best
    return sigma_by_d


def _measure_entry(spec, backend, hat_backend, xs, cosets, witnesses, examined):
    entry_by_d = {}
    hat_entry = 0
    for depth in (0, 1):
        best = 0
        for P in cosets:
            for x in xs:
                try:
                    pix = projection(spec, backend, P, x)
                    entry = proj_entrypoint(spec, backend, P, x, P.rep, depth)
                    d = backend.distance(entry, pix)
                except OutOfRangeError:
                    continue
                examined["entry"] += 1
                if d > best:
                    best = d
                    witnesses[f"entry{depth}"] = {
                        "x": element_str(spec, x),
                        "coset": coset_str(spec, P),
                    }
                if depth == 0 and hat_backend is not None:
                    try:
                        first = proj_conedoff(spec, hat_backend, P, x)
                        hd = backend.distance(first, pix)
                    except OutOfRangeError:
                        continue
                    examined["hat_entry"] += 1
                    if hd > hat_entry:
                        hat_entry = hd
                        witnesses["hat_entry"] = {
                            "x": element_str(spec, x),
                            "coset": coset_str(spec, P),
                        }
        entry_by_d[depth] = best
    return entry_by_d, hat_entry
