"""Triangle thinness versus coset penetration at a fixed neighborhood scale.

For each sampled geodesic triangle the scan records D, the largest diameter
of a side's stay inside the ``K``-neighborhood of any nearby peripheral coset
(penetration depth), and delta, the thinness of the triangle (worst distance
from a side vertex to the union of the other two sides).  The fitted slope is
the worst delta / max(D, 1); a family whose delta grows while D stays bounded
is flagged, since bounded penetration must force uniform thinness here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from ..errors import OutOfRangeError
from ..group import GroupSpec, ball, mul
from ..peripheral import cosets_meeting_ball
from .sampling import random_element_by_length

# the neighborhood scale: a vertex v is near a coset P when d(v, P) <= K
K = 1


@dataclass
class ThinnessRow:
    vertices: tuple
    depth: int
    delta: int
    perimeter: int


@dataclass
class ThinnessReport:
    rows: list = field(default_factory=list)
    skipped: int = 0
    flagged: list = field(default_factory=list)

    @property
    def lam(self) -> Fraction:
        best = Fraction(0)
        for row in self.rows:
            ratio = Fraction(row.delta, max(row.depth, 1))
            if ratio > best:
                best = ratio
        return best


def triangle_sample(
    spec: GroupSpec,
    rng,
    n_random: int,
    exhaustive_radius: int = 1,
    max_syllables: int = 4,
    max_syllable_len: int = 6,
) -> list:
    """Exhaustive small-vertex triples plus seeded random long-syllable triples."""
    small = list(ball(spec, exhaustive_radius))
    triangles = list(product(small, repeat=3))
    for _ in range(n_random):
        triangles.append(
            tuple(
                random_element_by_length(spec, rng, max_syllables, max_syllable_len)
                for _ in range(3)
            )
        )
    return triangles


def thinness_scan(spec: GroupSpec, backend, triangles) -> ThinnessReport:
    report = ThinnessReport()
    nbhd = list(ball(spec, K)) if spec.peripheral_indices else [()]
    for tri in triangles:
        x, y, z = tri
        try:
            sides = [
                backend.geodesic(x, y).vertices,
                backend.geodesic(y, z).vertices,
                backend.geodesic(z, x).vertices,
            ]
            cuts = np.cumsum([0] + [len(s) for s in sides])
            spans = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
            verts = [v for side in sides for v in side]
            dmat = backend.distance_block(verts, verts)
            depth = _penetration(spec, backend, verts, spans, dmat, nbhd)
            delta = _thinness(spans, dmat)
        except OutOfRangeError:
            report.skipped += 1
            continue
        perimeter = sum(len(s) - 1 for s in sides)
        report.rows.append(ThinnessRow(tri, depth, delta, perimeter))
    report.flagged = _flag_families(report.rows)
    return report


def _refuse_if_uncertified(block) -> None:
    if (block < 0).any():
        raise OutOfRangeError("triangle distance not certified by this backend")


def _penetration(spec, backend, verts, spans, dmat, nbhd) -> int:
    """Max over sides and nearby cosets of diam(N_K(P) intersect side).

    ``verts`` are the three sides' vertices in order, ``spans`` the slice of
    each side and ``dmat`` their distance block.  Two vertices of a side
    count toward the diameter exactly when some coset has both within K;
    their distance is certified, as both lie on one certified geodesic.
    """
    candidates = cosets_meeting_ball(spec, (mul(spec, v, g) for v in verts for g in nbhd))
    if not candidates:
        return 0
    dcos = backend.coset_distance_block(candidates, verts)
    _refuse_if_uncertified(dcos)
    # float32, so that the co-membership counts below are a BLAS product
    near = (dcos <= K).astype(np.float32)
    depth = 0
    for span in spans:
        side_near = near[:, span]
        shared = (side_near.T @ side_near) > 0
        depth = max(depth, int(dmat[span, span][shared].max(initial=0)))
    return depth


def _thinness(spans, dmat) -> int:
    """Worst distance from a side vertex to the union of the other two sides."""
    delta = 0
    for s, span in enumerate(spans):
        others = np.r_[spans[(s + 1) % 3], spans[(s + 2) % 3]]
        block = dmat[span][:, others]
        _refuse_if_uncertified(block)
        delta = max(delta, int(block.min(axis=1).max()))
    return delta


def _flag_families(rows) -> list:
    """Flag penetration bins whose thinness scales with triangle size.

    Within each D bin (>= 6 triangles), if the larger-perimeter half admits a
    delta exceeding the smaller half's worst by more than 2, bounded
    penetration is failing to bound thinness: report the bin.
    """
    bins: dict = {}
    for row in rows:
        bins.setdefault(row.depth, []).append(row)
    flagged = []
    for depth, members in sorted(bins.items()):
        if len(members) < 6:
            continue
        members = sorted(members, key=lambda r: r.perimeter)
        half = len(members) // 2
        low = max(r.delta for r in members[:half])
        high = max(r.delta for r in members[half:])
        if high > low + 2:
            flagged.append(
                {
                    "depth": depth,
                    "small_delta": low,
                    "large_delta": high,
                    "count": len(members),
                }
            )
    return flagged
