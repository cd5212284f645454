"""Word metrics and geodesics.

Two interchangeable backends answer the same metric interface:

* ``ExactBackend``: closed-form tree-of-spaces metric for the standard
  generating set: the distance is the sum of factor word lengths over the
  syllables of ``x^-1 y``, and geodesics concatenate in-factor geodesics.
* ``BfsBackend``: a breadth-first ball around the identity for any finite
  generating set, shared with every other holder of the same spec and
  radius (``group.ball``).  Every distance it reports is exact (the graph is
  grown on the fly, never truncated); a lookup outside the ball raises
  OutOfRangeError instead of guessing.  Left-invariance reduces d(x, y) to a
  single table lookup of ``x^-1 y``.

The interface: ``distance`` and ``geodesic``; the blocks ``distance_block(xs,
ys)`` and ``coset_distance_block(cosets, xs)`` as int32 arrays with -1 where a
value is not certified; and the coset queries ``coset_points``, ``project``,
``project_block`` and ``coset_distance``.  The suites never choose between
the two modes; the generating set picks the backend, and only the CLI's
samplers and oracle suite differ by mode.  The backend methods are the only
way to reach the closed forms, so the oracle and the suites check the same
code.

Projection routes:

* ``project(P, x)``: the canonical point, the gate in exact mode and the
  least certified minimizer in BFS mode;
* ``project_block(P, xs)``: ``project`` for each x, None where it is not
  certified.  Exact mode reads each gate off the syllables of x, with no
  element products; BFS mode reads the id of every x^-1 rep from one
  lookup (below) and the nearest ball members of its coset, decoded once
  per coset key (``FactorCosets.nearest``), so a cell forms only its x*g.

Exact blocks never multiply elements: both inputs are encoded by syllable
ids (a normal form is a path in the Bass-Serre tree of the free product), a
running equality mask over the id columns counts the shared leading
syllables, and numpy reads each distance from the tails past them
(``_prefix_block``).  Every BFS block reads its ids from one lookup
(``BfsBackend._ids``): the id of x^-1 y is a walk in the indexed ball from
x^-1 along the parent moves of y, one gather per move over all cells
(``Ball.walk``), and only a cell whose walk leaves the recorded levels forms
the product x^-1 y and looks it up.  d(x, P) is the distance of the nearest
ball member of the coset of x^-1 rep; where x^-1 rep lies outside the ball
that coset can still meet it, and the cell reads ``coset_distance``.  The
scalar ``distance``, ``coset_distance`` and ``project`` are the reference
every block is tested against.

Both backends' ``geodesic`` is greedy: ``factor.greedy_moves``, per
syllable in exact mode and over the ball's distances in BFS mode.
``dag_paths`` is the one depth-first enumerator of a shortest-path DAG.
``enumerate_geodesics`` walks it forward in the Cayley graph, and the
coned-off window (``conedoff.ConedOffBackend``) backward from its target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError, UnsupportedMetricError
from .factor import greedy_moves
from .group import (
    DEFAULT_BALL_CAP,
    Element,
    GroupSpec,
    ball,
    inv,
    mul,
    mul_syllable,
    sort_key,
    syllable_length,
)
from .peripheral import Coset, coset_member, coset_of


@dataclass
class VertexPath:
    """An edge path of the Cayley or coned-off graph: ``edges[j]``, a Cayley
    edge's generator label or the ``Coset`` a cone edge crosses, joins
    ``vertices[j]`` to ``vertices[j+1]``."""

    vertices: list
    edges: list = field(default_factory=list)

    def __len__(self) -> int:
        return max(0, len(self.vertices) - 1)

    @property
    def start(self) -> Element:
        return self.vertices[0]

    @property
    def end(self) -> Element:
        return self.vertices[-1]


# cells per row chunk of a prefix block: bounds the int64 scratch arrays
_CHUNK_CELLS = 1 << 15


def _prefix_code(spec: GroupSpec, lists):
    """Syllable code of each list of normal forms, with ids shared across
    the lists of one call.

    Per list, ``syl[r, j]`` is the id of syllable j of row r (-1 past the
    end) and ``tail[r, j]`` the summed syllable lengths from j on.  Returns
    the per-list (syl, tail) pairs, the syllables by id and their lengths
    by id, with a trailing 0 that answers the -1 ids.
    """
    depth = max((len(x) for xs in lists for x in xs), default=0)
    ids: dict = {}
    codes = [
        np.array(
            [[ids.setdefault(s, len(ids)) for s in x] + [-1] * (depth + 1 - len(x)) for x in xs],
            dtype=np.int32,
        ).reshape(len(xs), depth + 1)
        for xs in lists
    ]
    syllables = list(ids)
    slen = np.array([spec.factors[fi].length(c) for fi, c in syllables] + [0], dtype=np.int64)
    tails = [np.ascontiguousarray(slen[syl][:, ::-1].cumsum(axis=1)[:, ::-1]) for syl in codes]
    return list(zip(codes, tails)), syllables, slen


def _prefix_block(spec: GroupSpec, xs, ys, gates=None) -> np.ndarray:
    """d(x, y) over ``xs`` x ``ys`` for the standard generating set.

    Let k be the number of leading syllables that x and y share (their
    common prefix: a path from the root of the Bass-Serre tree), counted
    with a running equality mask over the syllable ids.  Then x^-1 y is
    x[k:]^-1 y[k:], whose syllables are those of both tails except that the
    k-th syllables a and b merge into a^-1 b when they come from the same
    factor f, so d(x, y) = tail_x(k) + tail_y(k) - corr with
    corr = len(a) + len(b) - len_f(a^-1 b), read from a table over the
    distinct pairs (a, b) that occur.  (When x = y the mask runs on past
    both ends, where ids are -1 and tails 0, so the cell still reads 0.)
    With ``gates`` (a factor index per row) the syllable of y right after a
    whole row x is dropped when it lies in that factor: d(y, x H_i) for a
    canonical coset rep x.
    """
    n, m = len(xs), len(ys)
    out = np.empty((n, m), dtype=np.int32)
    if not n or not m:
        return out
    ((sx, tx), (sy, ty)), syllables, slen = _prefix_code(spec, [xs, ys])
    if tx[:, 0].max() + ty[:, 0].max() > np.iinfo(np.int32).max:
        raise OverflowError("distances do not fit the int32 block")
    factors = spec.factors
    # a trailing sentinel answers the -1 ids past an end
    sfac = np.array([fi for fi, _ in syllables] + [-1], dtype=np.int32)
    lengths = slen.tolist()
    nsyl = len(syllables)
    saved: dict = {}

    def corr(code: int) -> int:
        if code not in saved:
            i, j = divmod(code, nsyl)
            (fi, a), (_, b) = syllables[i], syllables[j]
            f = factors[fi]
            saved[code] = lengths[i] + lengths[j] - f.length(f.mul(f.inv(a), b))
        return saved[code]

    if gates is not None:
        gate = np.array(gates, dtype=np.int32)[:, None]
        rep_len = np.array([len(x) for x in xs])[:, None]
    cols = np.arange(m)
    step = max(1, _CHUNK_CELLS // m)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        rows = np.arange(r0, r1)[:, None]
        k = np.zeros((r1 - r0, m), dtype=np.intp)
        run = np.ones((r1 - r0, m), dtype=bool)
        for j in range(sx.shape[1] - 1):
            run &= sx[r0:r1, j, None] == sy[:, j]
            if not run.any():
                break
            k += run
        a = sx[rows, k]
        b = sy[cols, k]
        d = tx[rows, k] + ty[cols, k]
        merge = (a >= 0) & (b >= 0)
        merge &= sfac[a] == sfac[b]
        if merge.any():
            uniq, inverse = np.unique(
                a[merge].astype(np.int64) * nsyl + b[merge], return_inverse=True
            )
            table = np.array([corr(c) for c in uniq.tolist()], dtype=np.int32)
            d[merge] -= table[inverse]
        if gates is not None:
            lead = (k == rep_len[r0:r1]) & (b >= 0)
            lead &= sfac[b] == gate[r0:r1]
            d[lead] -= slen[b[lead]]
        out[r0:r1] = d
    return out


class ExactBackend:
    """Metric backend built on the closed-form standard-generator metric.
    Every distance is certified."""

    def __init__(self, spec: GroupSpec):
        if not spec.is_standard:
            raise UnsupportedMetricError("ExactBackend requires the standard generating set")
        self.spec = spec

    def distance(self, x: Element, y: Element) -> int:
        return syllable_length(self.spec, mul(self.spec, inv(self.spec, x), y))

    def distance_block(self, xs, ys) -> np.ndarray:
        """d(x, y) for x in ``xs`` (rows) and y in ``ys`` (columns), from the
        syllable-prefix code of both lists (see ``_prefix_block``)."""
        return _prefix_block(self.spec, xs, ys)

    def coset_distance_block(self, cosets, xs) -> np.ndarray:
        """d(x, P) for P in ``cosets`` (rows) and x in ``xs`` (columns): the
        closed form of ``coset_distance``, d(rep, x) less the leading
        P-syllable of rep^-1 x, which exists exactly when rep is a syllable
        prefix of x followed by a P-syllable."""
        return _prefix_block(
            self.spec, [P.rep for P in cosets], xs, [P.factor_index for P in cosets]
        )

    def coset_points(self, P: Coset, level_cap: int) -> list[Element]:
        """The points of P at factor levels 0..``level_cap``."""
        f = self.spec.factors[P.factor_index]
        return [
            coset_member(self.spec, P, h)
            for level in range(level_cap + 1)
            for h in f.elements_of_length(level)
        ]

    def project(self, P: Coset, x: Element) -> Element:
        """The gate: rep times the leading P-syllable of rep^-1 x, else rep."""
        spec = self.spec
        w = mul(spec, inv(spec, P.rep), x)
        if w and w[0][0] == P.factor_index:
            return mul_syllable(spec, P.rep, P.factor_index, w[0][1])
        return P.rep

    def project_block(self, P: Coset, xs) -> list:
        """The gate of each x, with no element products: x[:len(rep)+1] when
        rep is a syllable prefix of x and the next syllable of x lies in P's
        factor, else rep.  (When rep is not a prefix of x, rep^-1 x leads
        with a syllable of rep's last factor, which is not P's, because rep
        carries no trailing P-syllable.)"""
        rep, i = P.rep, P.factor_index
        k = len(rep)
        return [
            x[: k + 1] if len(x) > k and x[k][0] == i and x[:k] == rep else rep
            for x in xs
        ]

    def coset_distance(self, P: Coset, x: Element) -> int:
        """d(x, P) in closed form: |rep^-1 x| minus its leading P-syllable."""
        spec = self.spec
        w = mul(spec, inv(spec, P.rep), x)
        total = syllable_length(spec, w)
        if w and w[0][0] == P.factor_index:
            return total - spec.factors[P.factor_index].length(w[0][1])
        return total

    def geodesic(self, x: Element, y: Element) -> VertexPath:
        """Deterministic geodesic from x to y, one factor geodesic per syllable."""
        spec = self.spec
        vertices = [x]
        edges: list[str] = []
        for fi, coord in mul(spec, inv(spec, x), y):
            f = spec.factors[fi]
            for label, g in f.geodesic_moves(f.identity, coord):
                vertices.append(mul_syllable(spec, vertices[-1], fi, g))
                edges.append(label)
        return VertexPath(vertices, edges)


class BfsBackend:
    """Metric backend built on a BFS ball of the given radius around the identity.

    ``distance`` certifies exactness by construction: a value is returned only
    when ``x^-1 y`` lies inside the ball, and BFS distances in the on-the-fly
    graph are true Cayley distances.  The ball (``table``, a map element ->
    distance) is shared with every other holder of the same spec and radius.
    The blocks read the ball ids of all their cells from one lookup, ``_ids``.
    """

    def __init__(self, spec: GroupSpec, radius: int, cap: int = DEFAULT_BALL_CAP):
        self.spec = spec
        self.radius = radius
        self.table = ball(spec, radius, cap)
        self._moves = [
            (label, g, inv(spec, g)) for label, g in spec.moves()
        ]

    def coset_points(self, P: Coset, level_cap: int | None = None) -> list[Element]:
        """Ball elements lying in P, in BFS order (nondecreasing distance);
        ``level_cap`` is ignored, as the ball already bounds the coset.  The
        ball's coset index is built on the first coset query, so a backend
        used only for distances never pays for it."""
        key = self.table.coset_key(P.rep)  # key -1 (no node) lists no member
        return list(self.table.cosets(P.factor_index).points(key))

    def _id(self, x: Element, y: Element) -> int:
        """The ball id of x^-1 y; OutOfRangeError outside the ball."""
        j = self.table.id_of(mul(self.spec, inv(self.spec, x), y))
        if j < 0:
            raise OutOfRangeError(
                f"pair at distance > {self.radius}: not certified by this backend"
            )
        return j

    def distance(self, x: Element, y: Element) -> int:
        return self.table.by_id[self._id(x, y)]

    def _ids(self, xs, ts) -> np.ndarray:
        """The ball id of x^-1 t for x in ``xs`` (rows) and t in ``ts``
        (columns), -1 outside the ball: a walk in the ball from x^-1 along
        the parent moves of t (``Ball.walk``), and the lookup of the product
        x^-1 t only in the cells where the walk leaves the recorded levels."""
        spec, table = self.spec, self.table
        xis = [inv(spec, x) for x in xs]
        ids = table.walk([table.id_of(xi) for xi in xis], [table.id_of(t) for t in ts])
        for r in np.flatnonzero((ids < 0).any(axis=1)).tolist():
            cols = np.flatnonzero(ids[r] < 0)
            ids[r, cols] = [table.id_of(mul(spec, xis[r], ts[c])) for c in cols.tolist()]
        return ids

    def distance_block(self, xs, ys) -> np.ndarray:
        """d(x, y) for x in ``xs`` (rows) and y in ``ys`` (columns), -1
        outside the ball: the distance of the ball id of x^-1 y (``_ids``)."""
        ids = self._ids(xs, ys)
        out = self.table.dist[ids]
        out[ids < 0] = -1
        return out

    def coset_distance_block(self, cosets, xs) -> np.ndarray:
        """d(x, P) for P in ``cosets`` (rows) and x in ``xs`` (columns), -1
        where the minimum is not certified: the distance of the nearest ball
        member of the coset of x^-1 rep (``_ids``).  Where x^-1 rep lies
        outside the ball its coset can still meet the ball, and the cell
        reads ``coset_distance``."""
        table = self.table
        ids = self._ids(xs, [P.rep for P in cosets]).T
        out = np.empty(ids.shape, dtype=np.int32)
        for r, P in enumerate(cosets):
            index = table.cosets(P.factor_index)
            out[r] = index.first[index.key[ids[r]]]  # -1 cells refilled below
        for r, c in zip(*np.nonzero(ids < 0)):
            try:
                out[r, c] = self.coset_distance(cosets[r], xs[c])
            except OutOfRangeError:
                out[r, c] = -1
        return out

    def project(self, P: Coset, x: Element) -> Element:
        """The least (by ``sort_key``) of the certified minimizers, where
        x^-1 rep lies in the ball: x*g for the nearest ball members g of the
        coset of x^-1 rep."""
        return self._least(P, x, self._id(x, P.rep))

    def _least(self, P: Coset, x: Element, j: int) -> Element:
        """The least x*g over the nearest members g of the coset of the
        ball element j, j = id(x^-1 rep)."""
        index = self.table.cosets(P.factor_index)
        nearest = index.nearest(index.key.item(j))
        spec = self.spec
        if len(nearest) == 1:
            return mul(spec, x, nearest[0])
        return min((mul(spec, x, g) for g in nearest), key=lambda p: sort_key(spec, p))

    def project_block(self, P: Coset, xs) -> list:
        """``project`` for each x, None where x^-1 rep lies outside the ball:
        ``_least`` over the ball id of each x^-1 rep (``_ids``)."""
        ids = self._ids(xs, [P.rep])[:, 0].tolist()
        return [None if j < 0 else self._least(P, x, j) for x, j in zip(xs, ids)]

    def coset_distance(self, P: Coset, x: Element) -> int:
        """d(x, P): ``first`` of the coset x^-1 P, read with no decode; its
        key is -1 where no node of the ball holds its representative."""
        spec, i = self.spec, P.factor_index
        rep = coset_of(spec, mul(spec, inv(spec, x), P.rep), i).rep
        best = self.table.cosets(i).distance(self.table.coset_key(rep))
        if best < 0:
            raise OutOfRangeError(f"no coset point within {self.radius} of x")
        return best

    def geodesic(self, x: Element, y: Element) -> VertexPath:
        """Greedy geodesic (``greedy_moves``): at each vertex the first move,
        in generating-set order, that decreases the distance to y."""
        spec, table = self.spec, self.table
        w = mul(spec, inv(spec, x), y)
        if w not in table:
            raise OutOfRangeError(f"pair at distance > {self.radius}")
        vertices = [x]
        edges: list[str] = []
        for label, g in greedy_moves(w, self._moves, table.get, lambda a, b: mul(spec, a, b)):
            vertices.append(mul(spec, vertices[-1], g))
            edges.append(label)
        return VertexPath(vertices, edges)


def quasigeodesic_constants(path: VertexPath, backend) -> tuple[int, int]:
    """Fit (lambda, mu) for an edge path from one block over all vertex pairs.

    For edge paths the upper bound d <= lambda*(j-i) + mu is automatic, and
    any finite path is a (1, mu)-quasi-geodesic, so the lexicographic minimum
    is lambda = 1 with mu the worst lower-bound deficit (j-i) - d(v_i, v_j).
    Raises OutOfRangeError when a pair i < j is not certified.
    """
    verts = path.vertices
    n = len(verts)
    d = backend.distance_block(verts, verts)
    i, j = np.triu_indices(n, 1)
    dij = d[i, j]
    if (dij < 0).any():
        raise OutOfRangeError("a vertex pair of the path is not certified by this backend")
    return (1, int((j - i - dij).max(initial=0)))


def dag_paths(start, depth: int, steps, cap: int) -> tuple[list, bool]:
    """The (vertices, edges) of each path of ``depth`` edges from ``start``
    through a shortest-path DAG, depth first, up to ``cap`` paths, and a flag
    marking whether the cap cut the enumeration short.  ``steps(v,
    remaining)`` yields v's (next vertex, edge) pairs in order, lazily if it
    likes: a walk cut by the cap asks for no more steps than it takes."""
    paths: list = []
    vertices, edges = [start], []

    def extend(v, remaining: int) -> bool:
        if remaining == 0:
            paths.append((list(vertices), list(edges)))
            return len(paths) < cap
        for u, edge in steps(v, remaining):
            vertices.append(u)
            edges.append(edge)
            alive = extend(u, remaining - 1)
            vertices.pop()
            edges.pop()
            if not alive:
                return False
        return True

    truncated = not extend(start, depth)
    return paths, truncated


def enumerate_geodesics(backend, x: Element, y: Element, cap: int) -> tuple[list[VertexPath], bool]:
    """All geodesics from x to y in deterministic order, up to ``cap`` paths.

    Walks the shortest-path DAG forward (``dag_paths``): from each vertex,
    every move that decreases the remaining distance to y spawns a branch.
    Returns the paths and a flag marking whether the cap cut the enumeration
    short.
    """
    spec = backend.spec
    moves = spec.moves()

    def steps(cur: Element, remaining: int):
        for label, g in moves:
            nxt = mul(spec, cur, g)
            try:
                d = backend.distance(nxt, y)
            except OutOfRangeError:
                continue
            if d == remaining - 1:
                yield nxt, label

    found, truncated = dag_paths(x, backend.distance(x, y), steps, cap)
    return [VertexPath(v, edges) for v, edges in found], truncated
