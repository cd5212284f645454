"""Word metrics and geodesics.

Two interchangeable backends expose ``distance`` / ``geodesic``:

* ``ExactBackend``: closed-form tree-of-spaces metric for the standard
  generating set: the distance is the sum of factor word lengths over the
  syllables of ``x^-1 y``, and geodesics concatenate in-factor geodesics.
* ``BfsBackend``: a breadth-first ball around the identity for any finite
  generating set.  Every distance it reports is exact (the graph is grown on
  the fly, never truncated); a lookup outside the ball raises OutOfRangeError
  instead of guessing.  Left-invariance reduces d(x, y) to a single table
  lookup of ``x^-1 y``.

Both also answer ``coset_distances(xs, P, coords)``: the block of d(x, rep*h)
for every x in ``xs`` and every factor coordinate h of the coset P, as an
int32 array with -1 where a value is not certified.  The scalar ``distance``
is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError, UnsupportedMetricError
from .group import (
    DEFAULT_BALL_CAP,
    Element,
    GroupSpec,
    ball,
    inv,
    mul,
    mul_syllable,
    syllable_length,
)
from .peripheral import Coset, coset_member, group_by_coset


@dataclass
class VertexPath:
    """An edge path in a Cayley graph: vertices plus per-edge generator labels."""

    vertices: list
    labels: list = field(default_factory=list)

    def __len__(self) -> int:
        return max(0, len(self.vertices) - 1)

    @property
    def start(self) -> Element:
        return self.vertices[0]

    @property
    def end(self) -> Element:
        return self.vertices[-1]


def dist_exact(spec: GroupSpec, x: Element, y: Element) -> int:
    """Word distance for the standard generating set (left-invariant)."""
    if not spec.is_standard:
        raise UnsupportedMetricError("exact metric requires the standard generating set")
    return syllable_length(spec, mul(spec, inv(spec, x), y))


def geodesic_exact(spec: GroupSpec, x: Element, y: Element) -> VertexPath:
    """Deterministic geodesic from x to y, one factor geodesic per syllable."""
    if not spec.is_standard:
        raise UnsupportedMetricError("exact geodesics require the standard generating set")
    w = mul(spec, inv(spec, x), y)
    vertices = [x]
    labels: list[str] = []
    cur = x
    for fi, coord in w:
        f = spec.factors[fi]
        step_label = {g: label for label, g in f.moves()}
        fpath = f.geodesic(f.identity, coord)
        for a, b in zip(fpath, fpath[1:]):
            g = f.mul(f.inv(a), b)
            cur = mul_syllable(spec, cur, fi, g)
            vertices.append(cur)
            labels.append(step_label[g])
    return VertexPath(vertices, labels)


class ExactBackend:
    """Metric backend built on the closed-form standard-generator metric."""

    is_exact = True
    radius = None

    def __init__(self, spec: GroupSpec):
        if not spec.is_standard:
            raise UnsupportedMetricError("ExactBackend requires the standard generating set")
        self.spec = spec

    def distance(self, x: Element, y: Element) -> int:
        return syllable_length(self.spec, mul(self.spec, inv(self.spec, x), y))

    def coset_distances(self, xs, P: Coset, coords) -> np.ndarray:
        """d(x, rep*h) for x in ``xs`` (rows) and h in ``coords`` (columns).

        Write x^-1 rep = w' s with s its trailing P-factor coordinate (or the
        identity).  Then x^-1 rep h = w' (s h) in normal form, so the distance
        is |w'| + len_f(s h), read from a table over the distinct s.
        """
        spec = self.spec
        i = P.factor_index
        f = spec.factors[i]
        base = np.empty(len(xs), dtype=np.int32)
        sid = np.empty(len(xs), dtype=np.intp)
        s_ids: dict = {}
        for k, x in enumerate(xs):
            w = mul(spec, inv(spec, x), P.rep)
            if w and w[-1][0] == i:
                s = w[-1][1]
                w = w[:-1]
            else:
                s = f.identity
            base[k] = syllable_length(spec, w)
            sid[k] = s_ids.setdefault(s, len(s_ids))
        lengths = np.array(
            [[f.length(f.mul(s, h)) for h in coords] for s in s_ids],
            dtype=np.int32,
        ).reshape(len(s_ids), len(coords))
        return base[:, None] + lengths[sid]

    def geodesic(self, x: Element, y: Element) -> VertexPath:
        return geodesic_exact(self.spec, x, y)


class BfsBackend:
    """Metric backend built on a BFS ball of the given radius around the identity.

    ``distance`` certifies exactness by construction: a value is returned only
    when ``x^-1 y`` lies inside the ball, and BFS distances in the on-the-fly
    graph are true Cayley distances.
    """

    is_exact = False

    def __init__(self, spec: GroupSpec, radius: int, cap: int = DEFAULT_BALL_CAP):
        self.spec = spec
        self.radius = radius
        self.table = ball(spec, radius, cap)
        self._moves = [
            (label, g, inv(spec, g)) for label, g in spec.moves()
        ]
        self._coset_index: dict[Coset, list[Element]] | None = None

    def coset_members(self, coset: Coset) -> list[Element]:
        """Ball elements lying in ``coset``, in BFS order (nondecreasing
        distance).  The index of all cosets is built on the first call, so a
        backend used only for distances never pays for it."""
        if self._coset_index is None:
            self._coset_index = group_by_coset(self.spec, self.table)
        return self._coset_index.get(coset, [])

    def distance(self, x: Element, y: Element) -> int:
        w = mul(self.spec, inv(self.spec, x), y)
        d = self.table.get(w)
        if d is None:
            raise OutOfRangeError(
                f"pair at distance > {self.radius}: not certified by this backend"
            )
        return d

    def coset_distances(self, xs, P: Coset, coords) -> np.ndarray:
        """d(x, rep*h) for x in ``xs`` (rows) and h in ``coords`` (columns),
        one table lookup of x^-1 rep h each; -1 outside the ball."""
        spec = self.spec
        table = self.table
        pts = [coset_member(spec, P, h) for h in coords]
        out = np.empty((len(xs), len(pts)), dtype=np.int32)
        for k, x in enumerate(xs):
            xi = inv(spec, x)
            out[k] = [table.get(mul(spec, xi, p), -1) for p in pts]
        return out

    def geodesic(self, x: Element, y: Element) -> VertexPath:
        """Greedy geodesic: first move (in generating-set order) that decreases distance."""
        spec = self.spec
        w = mul(spec, inv(spec, x), y)
        d = self.table.get(w)
        if d is None:
            raise OutOfRangeError(f"pair at distance > {self.radius}")
        vertices = [x]
        labels: list[str] = []
        cur = x
        while w:
            for label, g, g_inv in self._moves:
                nw = mul(spec, g_inv, w)
                if self.table.get(nw) == d - 1:
                    cur = mul(spec, cur, g)
                    vertices.append(cur)
                    labels.append(label)
                    w = nw
                    d -= 1
                    break
            else:  # pragma: no cover - BFS parent property guarantees progress
                raise OutOfRangeError("no distance-decreasing move inside the ball")
        return VertexPath(vertices, labels)


def dist_bfs(backend: BfsBackend, x: Element, y: Element) -> int:
    """Certified BFS distance; raises OutOfRangeError beyond the backend's ball."""
    return backend.distance(x, y)


def quasigeodesic_constants(path: VertexPath, backend) -> tuple[int, int]:
    """Fit (lambda, mu) for an edge path by scanning all vertex pairs.

    For edge paths the upper bound d <= lambda*(j-i) + mu is automatic, and
    any finite path is a (1, mu)-quasi-geodesic, so the lexicographic minimum
    is lambda = 1 with mu the worst lower-bound deficit (j-i) - d(v_i, v_j).
    """
    verts = path.vertices
    n = len(verts)
    mu = 0
    for i in range(n):
        vi = verts[i]
        for j in range(i + 1, n):
            deficit = (j - i) - backend.distance(vi, verts[j])
            if deficit > mu:
                mu = deficit
    return (1, mu)


def enumerate_geodesics(backend, x: Element, y: Element, cap: int) -> tuple[list[VertexPath], bool]:
    """All geodesics from x to y in deterministic order, up to ``cap`` paths.

    Walks the shortest-path DAG forward: from each vertex, every move that
    decreases the remaining distance spawns a branch.  Returns the paths and
    a flag marking whether the cap cut the enumeration short.
    """
    spec = backend.spec
    total = backend.distance(x, y)
    moves = [(label, g) for label, g in spec.moves()]
    paths: list[VertexPath] = []
    truncated = False

    def extend(cur: Element, remaining: int, vertices: list, labels: list) -> bool:
        nonlocal truncated
        if remaining == 0:
            paths.append(VertexPath(list(vertices), list(labels)))
            if len(paths) >= cap:
                truncated = True
                return False
            return True
        for label, g in moves:
            nxt = mul(spec, cur, g)
            try:
                d = backend.distance(nxt, y)
            except OutOfRangeError:
                continue
            if d == remaining - 1:
                vertices.append(nxt)
                labels.append(label)
                alive = extend(nxt, remaining - 1, vertices, labels)
                vertices.pop()
                labels.pop()
                if not alive:
                    return False
        return True

    extend(x, total, [x], [])
    return paths, truncated
