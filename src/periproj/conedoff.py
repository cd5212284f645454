"""The coned-off graph: distances, geodesics, lifts, and coset-penetration checks.

The coned-off graph has the group as vertex set, all Cayley edges, and one
extra edge between every pair of distinct vertices sharing a peripheral coset
(clique model: a coset crossing costs exactly 1).  For the standard
generating set the distance has a closed form: each peripheral syllable of
``x^-1 y`` costs 1 and every other syllable costs its factor word length.
``ConedOffBackend.distance`` and ``.geodesic`` are the only way to reach it.

For extended generating sets (and for geodesic enumeration in general) a
windowed BFS backend is used: the graph is restricted to a ball around the
identity and distances are certified via the maximal per-edge displacement,
which requires every peripheral factor to be finite in extended mode.  The
window is the shared indexed ball of its radius (``group.ball``), completed
with the neighbour ids of its last level; the coned-off BFS runs level by
level over those ids and each coset's key, expanding each coset once.
Window geodesics are enumerated by ``metric.dag_paths``, backward from the
target over each vertex's predecessors; the deterministic window geodesic
is the first path listed.  A window only lengthens paths, so a window value
below the certified distance is a contradiction.  A lift replaces each cone
edge of a path (a ``metric.VertexPath`` edge that is a ``Coset``) by the
``factor.greedy_moves`` geodesic in it over the moves lying in that factor
(``GroupSpec.factor_moves``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidFactorError,
    OutOfRangeError,
    TheoremViolationError,
    UnsupportedMetricError,
)
from .factor import greedy_moves, word_lengths
from .group import (
    DEFAULT_BALL_CAP,
    Element,
    GroupSpec,
    ball,
    element_str,
    inv,
    mul,
    mul_syllable,
    sort_key,
)
from .metric import VertexPath, dag_paths
from .peripheral import Coset, coset_member, coset_of, coset_str, member_coord

class ConedOffBackend:
    """Coned-off distances/geodesics with an optional BFS window.

    * Standard generating set: ``distance`` and ``geodesic`` use the exact
      closed form; a window (``radius``) is additionally needed for geodesic
      enumeration and for the raw BFS cross-check.
    * Extended generating set: a window is mandatory and every peripheral
      factor must be finite, so that a windowed distance ``d`` is certified
      exact whenever ``d * c_edge <= radius`` (``c_edge`` bounds how far a
      single coned-off edge can move in the group metric).
    """

    def __init__(self, spec: GroupSpec, radius: int | None = None, cap: int = DEFAULT_BALL_CAP):
        if not spec.peripheral_indices:
            raise InvalidFactorError("coned-off operations need a nonempty peripheral set")
        self.spec = spec
        self.radius = radius
        self.exact = spec.is_standard
        diameters = [spec.factors[i].diameter() for i in spec.peripheral_indices]
        self._c_edge = None if any(d is None for d in diameters) else max(1, *diameters)
        if not self.exact:
            if radius is None:
                raise UnsupportedMetricError("extended-mode coned-off metric needs a window radius")
            if self._c_edge is None:
                raise UnsupportedMetricError(
                    "extended-mode coned-off distances need finite peripheral factors"
                )
        self.gtable = None
        if radius is not None:
            self._build_window(radius, cap)

    def _build_window(self, radius: int, cap: int) -> None:
        self.gtable = ball(self.spec, radius, cap)
        self._steps = self.gtable.complete()
        self._cosets = [self.gtable.cosets(i) for i in self.spec.peripheral_indices]
        # (label, column of the inverse move): u -> v along a move is v's
        # neighbour u along the inverse move
        labels = [label for label, _ in self.spec.moves()]
        self._back = list(zip(labels, self.spec.inverse_moves()))
        self._hat = self._hat_bfs().tolist()  # by ball id
        self._pred_cache: dict = {}

    def _hat_bfs(self) -> np.ndarray:
        """Coned-off distances of the window's elements, by id: a BFS by
        levels over Cayley edges inside the ball and cone edges, which
        expands each coset once, when the first of its members is reached."""
        n = len(self.gtable)
        hat = np.full(n, -1, dtype=np.int32)
        hat[0] = 0
        expanded = [np.zeros(len(c.first), dtype=bool) for c in self._cosets]
        frontier = np.zeros(1, dtype=np.intp)
        d = 0
        while frontier.size:
            d += 1
            reached = np.zeros(n, dtype=bool)
            cayley = self._steps[frontier].ravel()
            reached[cayley[cayley >= 0]] = True
            for cosets, done in zip(self._cosets, expanded):
                fresh = np.zeros(len(done), dtype=bool)
                fresh[cosets.key[frontier]] = True
                fresh &= ~done
                done |= fresh
                reached |= fresh[cosets.key]
            frontier = np.flatnonzero(reached & (hat < 0))
            hat[frontier] = d
        return hat

    def distance(self, x: Element, y: Element) -> int:
        """Certified coned-off distance.  In standard mode the closed form:
        each peripheral syllable of x^-1 y costs 1 and every other syllable
        its factor word length."""
        if self.exact:
            spec, peripheral = self.spec, self.spec.peripheral_indices
            w = mul(spec, inv(spec, x), y)
            return sum(1 if i in peripheral else spec.factors[i].length(c) for i, c in w)
        d = self.window_distance(x, y)
        if d * self._c_edge > self.radius:
            raise OutOfRangeError("coned-off distance not certified by this window")
        return d

    def window_distance(self, x: Element, y: Element) -> int:
        """Raw windowed BFS value (an upper bound on the true distance)."""
        return self._window_value(mul(self.spec, inv(self.spec, x), y))

    def _window_value(self, w: Element) -> int:
        """The window's coned-off distance from the identity to w."""
        if self.gtable is None:
            raise UnsupportedMetricError("backend was built without a window")
        j = self.gtable.id_of(w)
        if j < 0:
            raise OutOfRangeError("target outside the window")
        return self._hat[j]

    def geodesic(self, x: Element, y: Element) -> VertexPath:
        """Standard mode: the canonical geodesic, one cone edge per peripheral
        syllable longer than 1 (a length-1 one ties, and takes its Cayley
        edge) and the factor geodesic of every other syllable.  Extended
        mode: the first geodesic that ``enumerate_geodesics`` lists."""
        if not self.exact:
            return self.enumerate_geodesics(x, y, 1)[0][0]
        spec = self.spec
        vertices = [x]
        edges: list = []
        for fi, coord in mul(spec, inv(spec, x), y):
            f = spec.factors[fi]
            if fi in spec.peripheral_indices and f.length(coord) > 1:
                steps = [(coset_of(spec, vertices[-1], fi), coord)]
            else:
                steps = f.geodesic_moves(f.identity, coord)
            for edge, g in steps:
                vertices.append(mul_syllable(spec, vertices[-1], fi, g))
                edges.append(edge)
        return VertexPath(vertices, edges)

    def _predecessors(self, v: Element, d: int):
        """(u, edge u->v) pairs over the shortest-path DAG, deterministically:
        Cayley moves in generating-set order, then cone edges by factor index
        and canonical member order.  Memoized per vertex."""
        cached = self._pred_cache.get(v)
        if cached is not None:
            return cached
        spec = self.spec
        element = self.gtable.element
        hat = self._hat
        j = self.gtable.id_of(v)
        out = []
        row = self._steps[j].tolist()
        for label, back in self._back:
            u = row[back]
            if u >= 0 and hat[u] == d - 1:
                out.append((element(u), label))
        for i, cosets in zip(spec.peripheral_indices, self._cosets):
            coset = coset_of(spec, v, i)
            members = [
                element(u) for u in cosets.members(int(cosets.key[j]))
                if u != j and hat[u] == d - 1
            ]
            for u in sorted(members, key=lambda p: sort_key(spec, p)):
                out.append((u, coset))
        self._pred_cache[v] = out
        return out

    def enumerate_geodesics(self, x: Element, y: Element,
                            cap: int) -> tuple[list[VertexPath], bool]:
        """All coned-off geodesics from x to y visible in the window, up to
        ``cap``: ``dag_paths`` backward from x^-1 y over ``_predecessors``,
        each path reversed and translated by x.

        The window value is checked against the certified ``distance`` (the
        same value in extended mode) first, so every enumerated path is a
        true geodesic; geodesics leaving the window are not seen.  A window
        only lengthens paths: a larger value is refused (OutOfRangeError), a
        smaller one contradicts the certified distance (TheoremViolationError).
        """
        spec = self.spec
        w = mul(spec, inv(spec, x), y)
        d = self._window_value(w)
        certified = self.distance(x, y)
        if d < certified:
            raise TheoremViolationError(f"window value {d} below certified distance {certified}")
        if d > certified:
            raise OutOfRangeError("window too small: BFS value exceeds the exact distance")
        found, truncated = dag_paths(w, d, self._predecessors, cap)
        paths = [
            _translate(spec, VertexPath(vertices[::-1], edges[::-1]), x)
            for vertices, edges in found
        ]
        return paths, truncated


def _translate(spec: GroupSpec, path: VertexPath, x: Element) -> VertexPath:
    """Left-translate an identity-based path by x (cone cosets translate too)."""
    if not x:
        return path
    vertices = [mul(spec, x, v) for v in path.vertices]
    edges = [coset_of(spec, mul(spec, x, e.rep), e.factor_index) if isinstance(e, Coset)
             else e for e in path.edges]
    return VertexPath(vertices, edges)


def lift(spec: GroupSpec, hat_path: VertexPath) -> VertexPath:
    """Replace each cone edge (a ``Coset``) by a geodesic inside it; keep labels.

    In-coset geodesics use the factor's own generators plus any extra
    generators that happen to lie in that factor, so lifts are honest paths
    of the spec's Cayley graph in both regimes.
    """
    vertices = [hat_path.start]
    labels: list[str] = []
    cur = hat_path.start
    for edge, tail in zip(hat_path.edges, hat_path.vertices[1:]):
        if not isinstance(edge, Coset):
            cur = tail
            vertices.append(cur)
            labels.append(edge)
            continue
        i = edge.factor_index
        h = member_coord(spec, edge, cur)
        for lab, g in _coset_geodesic(spec, i, h, member_coord(spec, edge, tail)):
            h = spec.factors[i].mul(h, g)
            cur = coset_member(spec, edge, h)
            vertices.append(cur)
            labels.append(lab)
    return VertexPath(vertices, labels)


def _coset_geodesic(spec: GroupSpec, i: int, h1, h2):
    """The (label, move) steps of the greedy geodesic h1 -> h2 over the moves
    in factor i: on the factor's word length, or, with extra generators in
    it, on ``word_lengths`` of at most 100,000 elements (a direct ``lift``
    call can reach an infinite factor)."""
    f = spec.factors[i]
    moves = [(label, g, f.inv(g)) for _, label, g in spec.factor_moves(i)]
    if len(moves) == len(f.moves()):
        return f.geodesic_moves(h1, h2)
    w = f.mul(f.inv(h1), h2)
    lengths = word_lengths(f.identity, [g for _, g, _ in moves], f.mul, stop=w, budget=100_000)
    return greedy_moves(w, moves, lengths.get, f.mul)


def path_crossings(spec: GroupSpec, path: VertexPath) -> dict:
    """Per-coset entry/exit vertices of a coned-off path.

    An edge counts as crossing P iff both endpoints lie in P: a cone edge its
    ``Coset``, and a length-1 peripheral Cayley edge the coset it stays in
    (recorded convention).  Entry is the first such edge's tail, exit the
    last such edge's head.
    """
    crossings: dict[Coset, tuple[Element, Element]] = {}
    for edge, u, v in zip(path.edges, path.vertices, path.vertices[1:]):
        if isinstance(edge, Coset):
            hits = [edge]
        else:
            hits = []
            for i in spec.peripheral_indices:
                coset = coset_of(spec, u, i)
                if coset == coset_of(spec, v, i):
                    hits.append(coset)
        for coset in hits:
            if coset in crossings:
                crossings[coset] = (crossings[coset][0], v)
            else:
                crossings[coset] = (u, v)
    return crossings


@dataclass
class BcpReport:
    """Coset-penetration statistics over enumerated geodesic pairs."""

    samples: int
    max_clause1: int
    max_clause2: int
    witnesses: list
    geodesic_count: int
    truncated: bool


def check_bcp(
    spec: GroupSpec,
    hat_backend: ConedOffBackend,
    metric_backend,
    x: Element,
    y: Element,
    enumeration_cap: int,
) -> BcpReport:
    """Bounded coset penetration over the enumerated coned-off geodesics x -> y.

    Clause 1: a coset crossed by one geodesic and not the other must be
    crossed tightly (its entry and exit are close in the group metric).
    Clause 2: a coset crossed by both is entered and exited at close points.
    ``samples`` counts the n(n-1)/2 geodesic pairs, but the maxima over
    those pairs depend only on each coset P's (entry, exit) points: clause 1
    is the largest d(entry, exit) when some geodesic misses P, and clause 2
    is the larger diameter of P's distinct entry set and distinct exit set
    when two or more geodesics cross P.  The queries are those of the
    pairwise comparison up to order and symmetry (a BFS ball is closed
    under inverses), so an ``OutOfRangeError`` refuses the same targets;
    the pairwise loop stays in the tests as the reference.
    """
    geos, truncated = hat_backend.enumerate_geodesics(x, y, enumeration_cap)
    n = len(geos)
    by_coset: dict[Coset, list[tuple[Element, Element]]] = {}
    for g in geos:
        for P, entry_exit in path_crossings(spec, g).items():
            by_coset.setdefault(P, []).append(entry_exit)
    maxima = {1: 0, 2: 0}
    witnesses: list[dict] = []

    def record(clause: int, P: Coset, u: Element, v: Element) -> None:
        d = metric_backend.distance(u, v)
        if d > maxima[clause]:
            maxima[clause] = d
            witnesses.append(
                {"clause": clause, "coset": coset_str(spec, P), "distance": d,
                 "points": [element_str(spec, u), element_str(spec, v)]}
            )

    for P, crossings in by_coset.items():  # n < 2 meets neither clause: no queries
        if len(crossings) < n:
            for p, q in dict.fromkeys(crossings):
                record(1, P, p, q)
        if len(crossings) >= 2:
            for side in (0, 1):
                points = dict.fromkeys(c[side] for c in crossings)
                for u, v in itertools.combinations(points, 2):
                    record(2, P, u, v)
    return BcpReport(
        samples=n * (n - 1) // 2,
        max_clause1=maxima[1],
        max_clause2=maxima[2],
        witnesses=witnesses[-4:],
        geodesic_count=n,
        truncated=truncated,
    )
