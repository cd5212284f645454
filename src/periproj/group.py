"""Free products of elementary factors: normal forms, arithmetic, balls.

An element is a tuple of syllables ``(factor_index, coordinate)`` where
adjacent syllables come from distinct factors and no syllable carries the
factor identity.  This normal form is unique, so elements are hashable
values and dict/set membership is group equality.  The identity is the
empty tuple.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import Iterable, Sequence

import numpy as np

from .errors import BallBudgetError, InvalidFactorError, NormalFormError
from .factor import Factor, check_label, inverse_closed

Syllable = tuple  # (factor_index, coordinate)
Element = tuple   # tuple of syllables

IDENTITY: Element = ()

DEFAULT_BALL_CAP = 2_000_000


class GroupSpec:
    """A free product of factors with an optional extended generating set.

    The standard generating set is the union of the factor generators.  Extra
    generators (given as already-normalized elements with names) extend the
    metric without changing the group, its cosets, or any set-theoretic
    definition built on them.  Whether the set is standard decides the
    metric backend: closed forms for the standard set, a BFS ball otherwise.
    An extra generator whose value is already a move (a factor generator,
    an inverse, or an earlier extra) is dropped from ``extra_generators``,
    so ``is_standard`` and ``bipartite`` follow the move table.
    """

    def __init__(
        self,
        factors: Sequence[Factor],
        extra_generators: Sequence[tuple[str, Element]] = (),
        name: str = "",
    ):
        if len(factors) < 2:
            raise InvalidFactorError("a free product needs at least 2 factors")
        self.factors = tuple(factors)
        self.name = name
        seen_labels: set[str] = {"e"}
        for f in self.factors:
            for label in f.labels:
                if label in seen_labels:
                    raise InvalidFactorError(f"duplicate generator label: {label!r}")
                seen_labels.add(label)
        extras = []
        for gen_name, elem in extra_generators:
            check_label(gen_name)
            if gen_name in seen_labels:
                raise InvalidFactorError(f"extra generator name clashes: {gen_name!r}")
            seen_labels.add(gen_name)
            elem = normalize(self, elem)
            if not elem:
                raise InvalidFactorError(f"extra generator {gen_name!r} is trivial")
            extras.append((gen_name, elem))
        self.extra_generators = tuple(extras)
        self.peripheral_indices = tuple(
            i for i, f in enumerate(self.factors) if f.peripheral
        )
        self._moves, self._inverse_moves = self._build_moves()
        labels = {label for label, _ in self._moves}
        self.extra_generators = tuple(e for e in extras if e[0] in labels)
        # a homomorphism onto Z/2 that sends every move to 1 exists exactly
        # when every factor graph is bipartite and every extra has odd length
        self.bipartite = all(f.bipartite() for f in self.factors) and all(
            syllable_length(self, g) % 2 for _, g in self.extra_generators
        )

    @property
    def is_standard(self) -> bool:
        return not self.extra_generators

    def _build_moves(self) -> tuple[tuple[tuple[str, Element], ...], tuple[int, ...]]:
        generators = [
            (label, ((i, g),), ((i, f.inv(g)),))
            for i, f in enumerate(self.factors)
            for label, g in f._generators()
        ]
        generators += [(name, g, inv(self, g)) for name, g in self.extra_generators]
        table = inverse_closed(generators)
        column = {g: k for k, (_, g, _) in enumerate(table)}
        moves = tuple((label, g) for label, g, _ in table)
        return moves, tuple(column[g_inv] for _, _, g_inv in table)

    def moves(self) -> tuple[tuple[str, Element], ...]:
        """Generating set closed under inverses, as (label, element) pairs:
        ``factor.inverse_closed`` over the factor generators, then the extras."""
        return self._moves

    def inverse_moves(self) -> tuple[int, ...]:
        """The index in ``moves()`` of each move's inverse."""
        return self._inverse_moves

    def factor_moves(self, i: int) -> list[tuple[int, str, object]]:
        """The moves that lie in factor i, in generating-set order, as
        (index in ``moves()``, label, coordinate)."""
        return [
            (k, label, g[0][1])
            for k, (label, g) in enumerate(self._moves)
            if len(g) == 1 and g[0][0] == i
        ]

    def __repr__(self) -> str:
        kinds = " * ".join("/".join(f.labels) for f in self.factors)
        extras = f" + {len(self.extra_generators)} extra" if self.extra_generators else ""
        return f"GroupSpec({kinds}{extras})"


def normalize(spec: GroupSpec, items: Iterable[Syllable]) -> Element:
    """Merge adjacent same-factor syllables and drop identities, to a fixed point."""
    factors = spec.factors
    nfac = len(factors)
    stack: list[Syllable] = []
    for fi, coord in items:
        if not 0 <= fi < nfac:
            raise NormalFormError(f"factor index out of range: {fi}")
        f = factors[fi]
        f.check_coord(coord)
        if f.is_identity(coord):
            continue
        merged = coord
        while stack and stack[-1][0] == fi:
            merged = f.mul(stack.pop()[1], merged)
            if f.is_identity(merged):
                merged = None
                break
        if merged is not None:
            stack.append((fi, merged))
    return tuple(stack)


def mul(spec: GroupSpec, x: Element, y: Element) -> Element:
    """Group product of two normal forms."""
    if not x:
        return y
    if not y:
        return x
    factors = spec.factors
    left = list(x)
    j = 0
    ny = len(y)
    while left and j < ny:
        fi = left[-1][0]
        if fi != y[j][0]:
            break
        f = factors[fi]
        c = f.mul(left.pop()[1], y[j][1])
        j += 1
        if not f.is_identity(c):
            left.append((fi, c))
            break
    return tuple(left) + y[j:]


def mul_syllable(spec: GroupSpec, x: Element, fi: int, coord) -> Element:
    """Fast path: right-multiply a normal form by one nontrivial syllable."""
    if x and x[-1][0] == fi:
        f = spec.factors[fi]
        c = f.mul(x[-1][1], coord)
        if f.is_identity(c):
            return x[:-1]
        return x[:-1] + ((fi, c),)
    return x + ((fi, coord),)


def inv(spec: GroupSpec, x: Element) -> Element:
    """Group inverse; reverses syllables and inverts each coordinate."""
    factors = spec.factors
    return tuple((fi, factors[fi].inv(c)) for fi, c in reversed(x))


def syllable_length(spec: GroupSpec, x: Element) -> int:
    """Sum of factor word lengths over the syllables of ``x``."""
    factors = spec.factors
    return sum(factors[fi].length(c) for fi, c in x)


# cells per row chunk of a walk: bounds the scratch arrays of ``Ball.walk``
_WALK_CELLS = 1 << 15

# the letter of a product whose last syllable cancels, or is no node's
# syllable, and of a product not yet formed
_CANCEL, _OUTSIDE, _UNKNOWN = -1, -2, -3

# a node's key is ``prefix * _WIDTH + letter``, a letter an int32
_WIDTH = 1 << 31


class Ball(Mapping):
    """The elements within ``radius`` of the identity, with exact BFS
    distances, as a read-only map element -> distance in BFS order, and
    indexed: the value of x is ``by_id[id_of(x)]``.

    An element's id is its BFS position.  Per id the ball keeps the
    distance, the BFS parent and the parent move (an index into
    ``spec.moves()``), so that ``element(id) = element(parent) * move``, and
    the syllable tree: ``prefix``, the id of the element without its last
    syllable, and ``last``, the factor of that syllable (-1 for the identity).
    The neighbour id of every move is recorded for the elements the BFS
    expanded, those at distance below ``radius``; ``complete`` adds the last
    level, whose neighbours only the coned-off window needs, from the
    recorded edges into it and, unless ``spec.bipartite``, from products.
    The ids make ``walk`` and the coset index (``cosets``) array reads.

    The ball holds no element tuples.  A letter numbers a syllable that
    some node ends in, listed as the BFS meets it, and a node of the
    syllable tree is the integer key ``prefix * _WIDTH + letter``.
    The BFS runs a level at a time over arrays: a move acts a syllable at a
    time, merging into the last syllable or appending a letter, and each
    product is looked up among the sorted keys; a word move's intermediate
    product that is no node yet becomes a node off the ball.  New elements
    take ids in the order of first occurrence over (frontier id, move),
    single syllables before words: the BFS discovery order.  Off-ball nodes
    take the ids past the ball in the order they were added.  ``element``
    and iteration decode tuples on demand; ``id_of`` walks x's syllables
    through the keys, memoizing each element and key.
    """

    def __init__(self, spec: GroupSpec, radius: int, cap: int):
        self.spec = spec
        self.radius = radius
        # an infinite group has at least two elements at each distance
        if 2 * radius + 1 > cap:
            _over_cap(radius, cap)
        self._elements: list[Element] | None = None
        self._cosets: dict[int, FactorCosets] = {}
        self._memo: dict = {}  # element -> its node's id, and key -> node
        self._alphabet()
        self._search(cap)
        self.by_id = memoryview(self.dist)
        self._size = len(self.dist)

    def _alphabet(self) -> None:
        """The letters, the step table, and the moves as columns.

        Letter 0 is the identity's and letter k + 1 the syllable of column
        k, a distinct move syllable; ``_merged`` adds the others as the BFS
        meets them, so every letter is a syllable of a node."""
        moves = self.spec.moves()
        column = list(dict.fromkeys(s for _, g in moves for s in g))
        self._syllables: list = [(-1, None), *column]  # the identity's factor is -1
        self._letter_of = {s: k for k, s in enumerate(column, 1)}
        self._step = np.empty((0, len(column)), dtype=np.int64)
        self._add_rows()
        # the moves in discovery order, single syllables first, and per move
        # its syllable columns, -1 past its end
        self._columns = np.array(sorted(range(len(moves)), key=lambda k: len(moves[k][1]) > 1))
        self._unorder = np.argsort(self._columns)  # back to spec.moves() order
        span = max(len(g) for _, g in moves)
        self._word = np.full((len(moves), span + 1), -1, dtype=np.intp)
        for c, k in enumerate(self._columns):
            self._word[c, :len(moves[k][1])] = [column.index(s) for s in moves[k][1]]

    def _add_rows(self) -> None:
        """Step-table rows for the letters that have none: per column, the
        product's last letter, the column's own where its syllable is of
        another factor and appended, else the merge, ``_UNKNOWN`` until formed."""
        m = self._step.shape[1]
        factor = np.array([i for i, _ in self._syllables[len(self._step):]], dtype=int)
        grows = factor[:, None] != [i for i, _ in self._syllables[1:m + 1]]
        self._step = np.vstack([self._step, np.where(grows, np.arange(1, m + 1), _UNKNOWN)])

    def _merged(self, a, s, create: bool) -> np.ndarray:
        """The last letter of letter a times the syllable of column s, of the
        same factor, formed once: ``_CANCEL`` for the identity, and a
        syllable that is no letter becomes one (``create``: in the BFS only,
        so the letters are final after it) or is ``_OUTSIDE``."""
        m = self._step.shape[1]
        cells, back = np.unique(a.astype(np.int64) * m + s, return_inverse=True)
        rows, cols = np.divmod(cells, m)
        found = []
        for row, col in zip(rows.tolist(), cols.tolist()):
            i, c = self._syllables[row]
            f = self.spec.factors[i]
            c = f.mul(c, self._syllables[col + 1][1])
            k = _CANCEL if f.is_identity(c) else self._letter_of.get((i, c))
            if k is None and create:
                k = self._letter_of[i, c] = len(self._syllables)
                self._syllables.append((i, c))
            found.append(_OUTSIDE if k is None else k)
        self._add_rows()
        self._step[rows, cols] = found
        return np.array(found)[back.ravel()]

    def _search(self, cap: int) -> None:
        # the tree, its nodes numbered as added: per node its prefix (``_up``),
        # letter and id (``_id``, -1 off the ball until the BFS ends), and the
        # keys in sorted order with a sentinel past every key last, and their nodes
        self._up, self._letter = np.array([-1], np.int32), np.array([0], np.int32)
        self._keys = np.array([np.iinfo(np.int64).max])
        self._key_nodes = np.array([-1], dtype=np.int32)
        m = len(self._columns)
        self._id = np.zeros(1, dtype=np.int32)
        frontier = np.zeros(1, dtype=np.int64)  # the last level's nodes
        levels = [np.array([[0], [-1], [-1]], dtype=np.int32)]  # per level: nodes, parents, moves
        table = []  # the neighbour ids of each expanded level
        lo, hi = 0, 1
        for _ in range(self.radius):  # a free product is infinite: no level is empty
            node, key = self._products(frontier, create=True)
            ids = np.where(node >= 0, self._id[node], -1)
            cells = np.flatnonzero((key >= 0) & (ids < 0))
            new, first, inverse = np.unique(key[cells], return_index=True, return_inverse=True)
            if hi + len(new) > cap:
                _over_cap(self.radius, cap)
            order = np.argsort(first)  # the new keys in id order
            rank = np.empty(len(new), dtype=np.int64)
            rank[order] = np.arange(hi, hi + len(new))
            ids[cells] = rank[inverse.ravel()]
            table.append(ids.reshape(-1, m)[:, self._unorder].astype(np.int32))
            born = cells[first[order]]  # each new id's first cell, in id order
            del node, key, ids, cells, inverse  # the level's scratch arrays
            frontier = self._add_nodes(new, order)[order]
            self._id[frontier] = np.arange(hi, hi + len(new))
            levels.append(np.array([frontier, lo + born // m, self._columns[born % m]], np.int32))
            lo, hi = hi, hi + len(new)
        nodes, self.parent, self.pmove = np.concatenate(levels, axis=1)
        self._nodes = nodes  # per id, its node
        self._id[self._id < 0] = np.arange(hi, len(self._id))  # off-ball nodes as added
        self.prefix = np.where(nodes > 0, self._id[self._up[nodes]], -1)
        self.last = np.array([i for i, _ in self._syllables], dtype=np.int32)[self._letter[nodes]]
        self.dist = np.repeat(np.arange(len(levels), dtype=np.int32), [len(lv[0]) for lv in levels])
        # neighbour ids of the first ``_known`` elements in spec.moves()
        # order, -1 outside the ball, and a last row of -1 that every id
        # without recorded neighbours reads
        self._known = lo
        self._steps = np.concatenate(table + [np.full((1, m), -1)]).astype(np.int32)

    def _products(self, nodes, create: bool):
        """Per node of ``nodes`` (rows) and move (columns, in ``_columns``
        order): the product's key and node id, -1 where no node holds it.
        A move acts a syllable at a time; an intermediate product that is no
        node is added (``create``) or ends the walk, as a syllable that is
        no letter does, with -1 for both."""
        word, f = self._word, len(nodes)
        node = np.repeat(np.asarray(nodes, dtype=np.int64), len(word))
        key = np.full(len(node), -1, dtype=np.int64)
        prefix, letter = self._up[node], self._letter[node]
        for t in range(word.shape[1] - 1):
            # every move has a first syllable; later ones act on live cells
            act = np.flatnonzero((node >= 0) & np.tile(word[:, t] >= 0, f)) if t else slice(None)
            s, p, a = np.tile(word[:, t], f)[act], prefix[act], letter[act]
            nl = self._step[a, s]
            todo = np.flatnonzero(nl == _UNKNOWN)
            if len(todo):
                nl[todo] = self._merged(a[todo], s[todo], create)
            up = np.where(nl == s + 1, node[act], p)  # a merge is no column's own letter
            # a cancelled syllable leaves the prefix node itself
            back = np.flatnonzero(nl == _CANCEL)
            up[back], nl[back] = self._up[p[back]], self._letter[p[back]]
            k = np.where(nl > 0, up * _WIDTH + nl, -1)  # the identity's key is -1
            mid = np.tile(word[:, t + 1] >= 0, f)[act]
            if create and mid.any():
                gap, first = np.unique(k[mid & (k >= 0)], return_index=True)
                self._add_nodes(gap, np.argsort(first))
            found = self._lookup(k)
            found[back] = p[back]
            k[mid & (found < 0)] = -1
            node[act], key[act], prefix[act], letter[act] = found, k, up, nl
        return node, key

    def _add_nodes(self, keys, order) -> np.ndarray:
        """The node id of each of the sorted, distinct ``keys``, adding those
        that are no node yet with ids in ``order`` (positions in ``keys``)."""
        ids = self._lookup(keys)
        new = np.flatnonzero(ids < 0)
        add = order[ids[order] < 0]
        ids[add] = np.arange(len(self._up), len(self._up) + len(add))
        self._up = np.append(self._up, (keys[add] // _WIDTH).astype(np.int32))
        self._letter = np.append(self._letter, (keys[add] % _WIDTH).astype(np.int32))
        self._id = np.append(self._id, np.full(len(add), -1, dtype=np.int32))
        at = np.searchsorted(self._keys, keys[new])
        self._keys = np.insert(self._keys, at, keys[new])
        self._key_nodes = np.insert(self._key_nodes, at, ids[new])
        return ids

    def _lookup(self, key) -> np.ndarray:
        """The node id of each key, -1 where it is no key of the tree."""
        at = np.searchsorted(self._keys, key)
        return np.where(self._keys[at] == key, self._key_nodes[at], -1)

    @property
    def elements(self) -> list[Element]:
        """The elements by id, decoded on first use."""
        if self._elements is None:
            prefix, letter = self._up.tolist(), self._letter.tolist()
            syllables = self._syllables
            out: list = [IDENTITY] * len(prefix)
            for j in range(1, len(out)):  # a prefix is added before its nodes
                out[j] = out[prefix[j]] + (syllables[letter[j]],)
            self._elements = [out[j] for j in self._nodes.tolist()]
        return self._elements

    def element(self, j: int) -> Element:
        """The element of id j, decoded alone unless ``elements`` is listed."""
        if self._elements is not None:
            return self._elements[j]
        up, letter, syllables = self._up, self._letter, self._syllables
        out, j = [], self._nodes.item(j)
        while j > 0:
            out.append(syllables[letter.item(j)])
            j = up.item(j)
        return tuple(out[::-1])

    def _node(self, x: Element) -> int:
        """The id of x's node (past the ball off it), -1 where no node holds
        it: one key lookup per syllable, with x and each key memoized."""
        memo = self._memo
        j = memo.get(x)
        if j is None:
            if len(x) > self.radius * (len(self._word[0]) - 1):  # no node has more syllables
                return -1
            j, letter_of = 0, self._letter_of
            for syllable in x:
                k = letter_of.get(syllable)
                key = -1 if k is None else j * _WIDTH + k  # -1 is no node's key
                j = memo.get(key)
                if j is None:
                    at = self._keys.searchsorted(key)
                    j = memo[key] = int(self._key_nodes[at]) if self._keys[at] == key else -1
                if j < 0:
                    break
            memo[x] = j = self._id.item(j) if j >= 0 else -1
        return j

    def id_of(self, x: Element) -> int:
        """The id of x, -1 outside the ball."""
        j = self._node(x)
        return j if j < self._size else -1

    def coset_key(self, rep: Element) -> int:
        """The ``FactorCosets.key`` of the cosets rep H_i, for a canonical
        representative ``rep``: the id of rep's node, -1 where no node holds
        rep (and so no element of the ball lies in rep H_i)."""
        return self._node(rep)

    def __getitem__(self, x: Element) -> int:
        j = self.id_of(x)
        if j < 0:
            raise KeyError(x)
        return self.by_id[j]

    def get(self, x: Element, default=None):
        j = self.id_of(x)
        return default if j < 0 else self.by_id[j]

    def __contains__(self, x) -> bool:
        return self.id_of(x) >= 0

    def __iter__(self):
        return iter(self.elements)

    def items(self):
        """An iterator over the (element, distance) pairs in id order."""
        return zip(self.elements, self.by_id)

    def __len__(self) -> int:
        return self._size

    def complete(self) -> np.ndarray:
        """Neighbour ids (one column per move, -1 outside the ball) of every
        element, recording those of the last level on the first call.

        The BFS recorded every edge y -> x from level radius - 1 into the
        last level, so x's neighbour along the inverse move is y: one scatter
        fills those cells.  On a bipartite generating set no two last-level
        elements are adjacent and every other neighbour lies outside the
        ball, so the scatter is the whole answer; otherwise each last-level
        row is the product of the element with every move.
        """
        n, known = len(self), self._known
        if known < n:
            spec = self.spec
            old = self._steps
            steps = np.full((n + 1, old.shape[1]), -1, dtype=np.intc)
            steps[:known] = old[:known]
            # only level radius - 1 has edges into the last level
            lo = int(np.searchsorted(self.dist, self.radius - 1))
            rows, cols = np.nonzero(old[lo:known] >= known)
            steps[old[lo + rows, cols], np.array(spec.inverse_moves())[cols]] = lo + rows
            if not spec.bipartite:  # edges inside the last level
                nodes, _ = self._products(self._nodes[known:n], create=False)
                ids = np.where(nodes >= 0, self._id[nodes], n)
                steps[known:n] = np.where(ids < n, ids, -1).reshape(n - known, -1)[:, self._unorder]
            self._steps = steps
            self._known = n
        return self._steps[:-1]

    def _words(self, ids) -> np.ndarray:
        """The parent moves from the identity to each id, one row per id,
        right-aligned and padded in front with -1 (no move)."""
        cur = np.array(ids, dtype=np.intp)
        depth = int(self.dist[cur].max(initial=0))
        letters = np.full((len(cur), depth), -1, dtype=np.int32)
        for j in range(depth - 1, -1, -1):
            live = np.flatnonzero(cur > 0)
            letters[live, j] = self.pmove[cur[live]]
            cur[live] = self.parent[cur[live]]
        return letters

    def walk(self, starts, targets) -> np.ndarray:
        """The id of s * t for each start id s (rows) and target id t
        (columns): from s, follow the parent moves of t, one gather per
        letter over all cells at once.  -1 where s or t is -1 or where the
        path meets an element whose neighbours are not recorded before its
        last move; s * t may still lie in the ball there."""
        starts = np.asarray(starts, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        out = np.empty((len(starts), len(targets)), dtype=np.int32)
        if not out.size:
            return out
        letters = self._words(np.maximum(targets, 0))
        real = letters >= 0
        moves = np.maximum(letters, 0)
        steps, known = self._steps, self._known
        chunk = max(1, _WALK_CELLS // len(targets))
        for r0 in range(0, len(starts), chunk):
            cur = np.repeat(starts[r0:r0 + chunk, None], len(targets), axis=1)
            for j in range(letters.shape[1]):
                # ids without recorded neighbours read the -1 row
                cur = np.where(real[:, j], steps[np.minimum(cur, known), moves[:, j]], cur)
            cur[:, targets < 0] = -1
            out[r0:r0 + chunk] = cur
        return out

    def cosets(self, i: int) -> FactorCosets:
        """The index of the cosets x H_i meeting the ball, built on first use."""
        if i not in self._cosets:
            self._cosets[i] = FactorCosets(self, i)
        return self._cosets[i]


class FactorCosets:
    """The left cosets x H_i of factor i that meet a ball, by integer key.

    The key of a coset is the id of its canonical representative's node
    (``Ball.coset_key``: x with any trailing i-syllable stripped): the
    element's ``prefix`` where its last syllable lies in factor i, its own
    id otherwise, and past the ball where the representative lies off it.
    ``key[id]`` is the key of the element's coset, ``first[key]`` the
    distance of its nearest ball member (-1, or no entry, for a key with no
    ball member), and ``members(key)`` its ids in BFS order.  ``nearest(key)``
    and ``points(key)`` decode a coset's nearest members and all of its
    members once per key, on first use, so only the keys a run asks for
    are ever decoded.
    """

    def __init__(self, ball: Ball, i: int):
        self._ball = weakref.proxy(ball)  # the ball holds its index: no cycle
        self.key = np.where(ball.last == i, ball.prefix, np.arange(len(ball)))
        self._order = np.argsort(self.key, kind="stable")
        self._sorted = self.key[self._order]
        head = np.flatnonzero(np.r_[True, self._sorted[1:] != self._sorted[:-1]])
        self.first = np.full(int(self._sorted[-1]) + 1, -1, dtype=np.int32)
        self.first[self._sorted[head]] = ball.dist[self._order[head]]
        self._nearest: dict[int, list[Element]] = {}
        self._points: dict[int, list[Element]] = {}

    def members(self, key: int) -> list[int]:
        """The ids of the coset's ball members, in BFS order."""
        lo, hi = np.searchsorted(self._sorted, [key, key + 1]).tolist()
        return self._order[lo:hi].tolist()

    def distance(self, key: int) -> int:
        """``first[key]``, -1 where the coset has no ball member."""
        return self.first.item(key) if 0 <= key < len(self.first) else -1

    def nearest(self, key: int) -> list[Element]:
        """The coset's ball members at distance ``first[key]``, the head of
        ``members(key)``, decoded once per key."""
        found = self._nearest.get(key)
        if found is None:
            ids, dist = self.members(key), self._ball.by_id
            ids = [j for j in ids if dist[j] == dist[ids[0]]]
            found = self._nearest[key] = [self._ball.element(j) for j in ids]
        return found

    def points(self, key: int) -> list[Element]:
        """The coset's ball members in BFS order, decoded once per key."""
        found = self._points.get(key)
        if found is None:
            found = self._points[key] = [self._ball.element(j) for j in self.members(key)]
        return found


def _over_cap(radius: int, cap: int):
    raise BallBudgetError(f"ball(radius={radius}) exceeded cap of {cap} elements")


# one ball per (spec, radius) while something holds it: the backends of one
# radius share it, and a weak value never keeps a ball alive past its holders
_BALLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def ball(spec: GroupSpec, radius: int, cap: int | None = None) -> Ball:
    """All elements within ``radius`` of the identity, with exact BFS distances.

    Uses the spec's full generating set (standard plus extras).  Iteration
    order of the returned ``Ball`` is the deterministic BFS order.  Raises
    BallBudgetError when the ball has more than ``cap`` elements; the metric
    is left-invariant, so balls at other centers are left translates.  While
    a ball is alive, later calls with the same spec and radius return it:
    checked against ``cap`` when one is given, and as it is without one, so
    a ball built under a larger configured cap is not refused by the
    default.  A fresh build without a cap uses ``DEFAULT_BALL_CAP``.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    found = _BALLS.get((spec, radius))
    if found is None:
        cap = DEFAULT_BALL_CAP if cap is None else cap
        found = _BALLS[(spec, radius)] = Ball(spec, radius, cap)
    elif cap is not None and len(found) > cap:
        _over_cap(radius, cap)
    return found


def sort_key(spec: GroupSpec, x: Element):
    """Deterministic total order on elements: by syllable count, then syllables."""
    return (len(x), x)


def element_str(spec: GroupSpec, x: Element) -> str:
    """Serialize as whitespace-separated ``label^exponent`` tokens (``e`` = identity)."""
    if not x:
        return "e"
    tokens: list[str] = []
    for fi, coord in x:
        tokens.extend(spec.factors[fi].syllable_tokens(coord))
    return " ".join(tokens)


def parse_element(spec: GroupSpec, text: str) -> Element:
    """Parse the ``element_str`` syntax back into a normal form."""
    text = text.strip()
    if not text or text == "e":
        return IDENTITY
    label_map: dict[str, tuple[int, int]] = {}
    for i, f in enumerate(spec.factors):
        for pos, label in enumerate(f.labels):
            label_map[label] = (i, pos)
    raw: list[Syllable] = []
    for token in text.split():
        raw.append(_parse_token(spec, token, label_map))
    return normalize(spec, raw)


def _parse_token(spec: GroupSpec, token: str, label_map) -> Syllable:
    if "[" in token:
        label, _, rest = token.partition("[")
        if label not in label_map or not rest.endswith("]"):
            raise NormalFormError(f"bad table token: {token!r}")
        fi, _ = label_map[label]
        return (fi, spec.factors[fi].index_coord(token, rest[:-1]))
    label, _, exp_text = token.partition("^")
    if label not in label_map:
        raise NormalFormError(f"unknown generator label: {token!r}")
    fi, pos = label_map[label]
    f = spec.factors[fi]
    try:
        exp = int(exp_text) if exp_text else 1
    except ValueError:
        raise NormalFormError(f"bad exponent in token: {token!r}") from None
    return (fi, _power_coord(f, pos, exp))


def _power_coord(f: Factor, gen_pos: int, exp: int):
    """The coordinate of generator ``gen_pos`` raised to ``exp``, by
    square-and-multiply over the factor's own ``mul`` and ``inv``."""
    g = dict(f._generators())[f.labels[gen_pos]]
    if exp < 0:
        g, exp = f.inv(g), -exp
    acc = f.identity
    while exp:
        if exp & 1:
            acc = f.mul(acc, g)
        g = f.mul(g, g)
        exp >>= 1
    return acc


def random_element(spec: GroupSpec, rng, max_syllables: int, max_exponent: int = 6) -> Element:
    """Seeded random normal form with bounded syllable count and coordinates."""
    return random_normal_form(spec, rng, max_syllables, lambda f: f.random_coord(rng, max_exponent))


def random_normal_form(spec: GroupSpec, rng, max_syllables, draw) -> Element:
    """Seeded random normal form of 0 to ``max_syllables`` syllables,
    adjacent ones from distinct factors, coordinates ``draw(factor)``."""
    k = rng.randint(0, max_syllables)
    syls: list[Syllable] = []
    prev = -1
    nfac = len(spec.factors)
    for _ in range(k):
        fi = rng.randrange(nfac)
        if fi == prev:
            fi = (fi + 1 + rng.randrange(nfac - 1)) % nfac
        syls.append((fi, draw(spec.factors[fi])))
        prev = fi
    return tuple(syls)
