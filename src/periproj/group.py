"""Free products of elementary factors: normal forms, arithmetic, balls.

An element is a tuple of syllables ``(factor_index, coordinate)`` where
adjacent syllables come from distinct factors and no syllable carries the
factor identity.  This normal form is unique, so elements are hashable
values and dict/set membership is group equality.  The identity is the
empty tuple.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
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

# the letter of a product whose last syllable cancels, or outgrows the ball
_CANCEL, _OUTSIDE = -1, -2


class IdTable(Mapping):
    """A read-only map from the elements of a ball to ints: the value of x
    is ``by_id[ball.id_of(x)]``, and iteration follows id order.  A ``Ball``
    is the table of its own distances."""

    def __init__(self, ball: Ball, by_id):
        self.id_of = ball.id_of
        self.ball = ball
        self.by_id = by_id

    @property
    def elements(self) -> list[Element]:
        return self.ball.elements

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
        """An iterator over the (element, value) pairs in id order."""
        return zip(self.elements, self.by_id)

    def __len__(self) -> int:
        return len(self.by_id)


class Ball(IdTable):
    """The elements within ``radius`` of the identity, with exact BFS
    distances, as a map element -> distance in BFS order, and indexed.

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

    A standard generating set's ball holds no element tuples.  A syllable of
    length at most ``radius`` is a letter, and an element is the integer key
    ``prefix * width + letter``.  The BFS runs a level at a time over arrays:
    a move merges into the last syllable or appends a letter, each product
    is looked up among the sorted keys, and new keys take ids in the order
    of first occurrence over (frontier id, move), the BFS discovery order.
    ``element`` and iteration decode tuples on demand, and ``id_of`` walks
    the syllables of x through the keys.
    """

    def __init__(self, spec: GroupSpec, radius: int, cap: int):
        self.spec = spec
        self.radius = radius
        if cap < 1:
            _over_cap(radius, cap)
        self._elements: list[Element] | None = None
        self._cosets: dict[int, FactorCosets] = {}
        self._search(cap)
        self.by_id = memoryview(self.dist)

    def _search(self, cap: int) -> None:
        spec, radius = self.spec, self.radius
        syllables: list[Syllable] = []
        for length in range(1, radius + 1):
            for i, f in enumerate(spec.factors):
                syllables += [(i, c) for c in f.elements_of_length(length)]
            if len(syllables) >= cap:  # each letter alone is a ball element
                _over_cap(radius, cap)
        width = self._width = len(syllables)
        letter_of = self._letter_of = {s: k for k, s in enumerate(syllables)}
        self._syllables = syllables
        moves = spec.moves()
        # per letter (rows, the identity's last) and move: the product's last
        # letter, and whether it extends the element or merges on its prefix
        step = self._step = np.empty((width + 1, len(moves)), dtype=np.int32)
        grows = self._grows = np.ones(step.shape, dtype=bool)
        for k, (_, ((fi, g),)) in enumerate(moves):
            f = spec.factors[fi]
            step[:, k] = letter_of.get((fi, g), _OUTSIDE)
            for j, (i, c) in enumerate(syllables):
                if i == fi:
                    c = f.mul(c, g)
                    grows[j, k] = False
                    step[j, k] = (
                        _CANCEL if f.is_identity(c) else letter_of.get((i, c), _OUTSIDE)
                    )
        # the keys in sorted order, a sentinel past every key last, and their ids
        self._keys = np.array([np.iinfo(np.int64).max])
        self._key_ids = np.array([-1], dtype=np.int32)
        # per level, the prefix, letter, parent and parent move of its ids
        levels = [np.array([[-1], [width], [-1], [-1]], dtype=np.int32)]
        rows = []  # the neighbour ids of each expanded level
        lo, hi, m = 0, 1, len(moves)
        while len(levels) <= radius:  # a free product is infinite: no level is empty
            key, ids = self._products(lo, *levels[-1][:2])
            key, ids = key.ravel(), np.where(ids >= 0, ids, self._lookup(key)).ravel()
            cells = np.flatnonzero((key >= 0) & (ids < 0))
            new, first, inverse = np.unique(key[cells], return_index=True, return_inverse=True)
            if hi + len(new) > cap:
                _over_cap(radius, cap)
            rank = np.empty(len(new), dtype=np.int32)
            rank[np.argsort(first)] = np.arange(hi, hi + len(new), dtype=np.int32)
            ids[cells] = rank[inverse.ravel()]
            rows.append(ids.astype(np.int32).reshape(-1, m))
            born = cells[np.sort(first)]  # each new id's first cell, in id order
            levels.append(np.array(
                [key[born] // width, key[born] % width, lo + born // m, born % m], dtype=np.int32
            ))
            at = np.searchsorted(self._keys, new)
            self._keys = np.insert(self._keys, at, new)
            self._key_ids = np.insert(self._key_ids, at, rank)
            lo, hi = hi, hi + len(new)
        self.prefix, self.letter, self.parent, self.pmove = np.concatenate(levels, axis=1)
        self.last = np.array([i for i, _ in syllables] + [-1], dtype=np.int32)[self.letter]
        sizes = [level.shape[1] for level in levels]
        self.dist = np.repeat(np.arange(len(levels), dtype=np.int32), sizes)
        # neighbour ids of the first ``_known`` elements in spec.moves()
        # order, -1 outside the ball, and a last row of -1 that every id
        # without recorded neighbours reads
        self._known = lo
        self._steps = np.concatenate(rows + [np.full((1, m), -1, dtype=np.int32)])

    def _products(self, lo: int, prefix, letter):
        """Per id lo, lo + 1, ... (rows, with these ``prefix`` and ``letter``)
        and move (columns): the product's key, -1 where none is looked up,
        and its known id (the prefix where the last syllable cancels), or -1."""
        step, grows = self._step[letter], self._grows[letter]
        ids = np.arange(lo, lo + len(prefix), dtype=np.int64)
        below = np.where(grows, ids[:, None], prefix[:, None])
        key = np.where(step >= 0, below * self._width + step, -1)
        return key, np.where(step == _CANCEL, prefix[:, None], -1)

    def _lookup(self, key) -> np.ndarray:
        """The id of each key, -1 where it is no key of the ball."""
        at = np.searchsorted(self._keys, key)
        return np.where(self._keys[at] == key, self._key_ids[at], -1)

    @property
    def elements(self) -> list[Element]:
        """The elements by id, decoded on first use."""
        if self._elements is None:
            out = [IDENTITY]
            for j, k in zip(self.prefix[1:].tolist(), self.letter[1:].tolist()):
                out.append(out[j] + (self._syllables[k],))
            self._elements = out
        return self._elements

    def element(self, j: int) -> Element:
        """The element of id j, decoded alone unless ``elements`` is listed."""
        if self._elements is not None:
            return self._elements[j]
        out = []
        while j > 0:
            out.append(self._syllables[self.letter[j]])
            j = self.prefix[j]
        return tuple(out[::-1])

    def id_of(self, x: Element) -> int:
        """The id of x, -1 outside the ball: one key lookup per syllable."""
        j = 0
        for syllable in x:
            k = self._letter_of.get(syllable)
            if k is None:
                return -1
            key = j * self._width + k
            at = self._keys.searchsorted(key)
            if self._keys[at] != key:
                return -1
            j = int(self._key_ids[at])
        return j

    def coset_key(self, rep: Element) -> int:
        """The ``FactorCosets.key`` of the cosets rep H_i, for a canonical
        representative ``rep``; -1 when none of them meets the ball."""
        return self.id_of(rep)

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
                steps[known:n] = self._last_level()
            self._steps = steps
            self._known = n
        return self._steps[:-1]

    def _last_level(self) -> np.ndarray:
        """The neighbour ids of the last level, from products."""
        known = self._known
        key, ids = self._products(known, self.prefix[known:], self.letter[known:])
        return np.where(ids >= 0, ids, self._lookup(key))

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


class WordBall(Ball):
    """The ball of a generating set with word moves (extra generators): the
    tuple BFS, with a dict from element tuples to ids.  A prefix outside the
    ball takes the id ``len(ball)`` plus a first-seen rank."""

    def _search(self, cap: int) -> None:
        products, columns = _right_products(self.spec)
        index: dict[Element, int] = {IDENTITY: 0}
        frontier = deque([IDENTITY])  # ids in order: the frontier's first is xid
        dist, parent, pmove = array("i", [0]), array("i", [-1]), array("i", [-1])
        nbr = array("i")
        xid = 0
        while frontier and dist[xid] < self.radius:
            d1 = dist[xid] + 1
            for k, y in zip(columns, products(frontier.popleft())):
                j = index.get(y)
                if j is None:
                    j = len(index)
                    if j >= cap:
                        _over_cap(self.radius, cap)
                    index[y] = j
                    frontier.append(y)
                    dist.append(d1)
                    parent.append(xid)
                    pmove.append(k)
                nbr.append(j)
            xid += 1
        self._index = index
        self._elements = list(index)
        extra = self._extra = {}
        prefix, last = array("i", [-1]), array("i", [-1])
        for x in self._elements[1:]:
            j = index.get(x[:-1])
            prefix.append(extra.setdefault(x[:-1], len(index) + len(extra)) if j is None else j)
            last.append(x[-1][0])
        self.prefix = np.frombuffer(prefix, dtype=np.intc)
        self.last = np.frombuffer(last, dtype=np.intc)
        self.dist = np.frombuffer(dist, dtype=np.intc)
        self.parent = np.frombuffer(parent, dtype=np.intc)
        self.pmove = np.frombuffer(pmove, dtype=np.intc)
        self._steps = _steps_table(nbr, columns)
        self._known = xid

    def id_of(self, x: Element) -> int:
        return self._index.get(x, -1)

    def coset_key(self, rep: Element) -> int:
        j = self._index.get(rep)
        return self._extra.get(rep, -1) if j is None else j

    def _last_level(self) -> np.ndarray:
        products, columns = _right_products(self.spec)
        get = self._index.get
        last = array("i")
        for x in self._elements[self._known:]:
            last.extend([get(y, -1) for y in products(x)])
        return _steps_table(last, columns)[:-1]


class FactorCosets:
    """The left cosets x H_i of factor i that meet a ball, by integer key.

    The key of a coset is the id of its canonical representative (x with
    any trailing i-syllable stripped): the element's ``prefix`` where its
    last syllable lies in factor i, its own id otherwise (an off-ball
    prefix of a ``WordBall`` has an id past the ball).  ``key[id]`` is the
    key of the element's coset, ``first[key]`` the distance of the coset's
    nearest ball member, and ``members(key)`` its ids in BFS order.
    """

    def __init__(self, ball: Ball, i: int):
        self.key = np.where(ball.last == i, ball.prefix, np.arange(len(ball)))
        self._order = np.argsort(self.key, kind="stable")
        self._sorted = self.key[self._order]
        head = np.flatnonzero(np.r_[True, self._sorted[1:] != self._sorted[:-1]])
        self.first = np.full(int(self._sorted[-1]) + 1, -1, dtype=np.int32)
        self.first[self._sorted[head]] = ball.dist[self._order[head]]
        self._members: dict[int, list[int]] = {}

    def members(self, key: int) -> list[int]:
        """The ids of the coset's ball members, in BFS order (memoized)."""
        found = self._members.get(key)
        if found is None:
            lo, hi = np.searchsorted(self._sorted, [key, key + 1]).tolist()
            found = self._members[key] = self._order[lo:hi].tolist()
        return found


def _over_cap(radius: int, cap: int):
    raise BallBudgetError(f"ball(radius={radius}) exceeded cap of {cap} elements")


def _steps_table(rows: array, columns: list[int]) -> np.ndarray:
    """Neighbour ids recorded row by row in ``columns`` order, as a table
    with one column per move of ``spec.moves()`` and a last row of -1."""
    rows.extend([-1] * len(columns))
    table = np.frombuffer(rows, dtype=np.intc).reshape(-1, len(columns))
    return table if columns == sorted(columns) else table[:, np.argsort(columns)]


def _right_products(spec: GroupSpec):
    """A function x -> [x * g for each move g], single-syllable moves first,
    then longer words, and the index in ``spec.moves()`` of each column.

    Appending a syllable reuses the move's own syllable tuple.
    """
    moves = spec.moves()
    columns = [k for k, (_, g) in enumerate(moves) if len(g) == 1]
    columns += [k for k, (_, g) in enumerate(moves) if len(g) > 1]
    single = [(g[0][0], g[0][1], spec.factors[g[0][0]], g) for _, g in moves if len(g) == 1]
    words = [g for _, g in moves if len(g) > 1]

    def products(x: Element) -> list:
        out = []
        last = x[-1][0] if x else -1
        for fi, coord, f, g in single:
            if fi == last:
                c = f.mul(x[-1][1], coord)
                out.append(x[:-1] if f.is_identity(c) else x[:-1] + ((fi, c),))
            else:
                out.append(x + g)
        for w in words:
            out.append(mul(spec, x, w))
        return out

    return products, columns


# one ball per (spec, radius) while something holds it: the backends of one
# radius share it, and a weak value never keeps a ball alive past its holders
_BALLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def ball(spec: GroupSpec, radius: int, cap: int = DEFAULT_BALL_CAP) -> Ball:
    """All elements within ``radius`` of the identity, with exact BFS distances.

    Uses the spec's full generating set (standard plus extras).  Iteration
    order of the returned ``Ball`` is the deterministic BFS order.  Raises
    BallBudgetError when the ball has more than ``cap`` elements; the metric
    is left-invariant, so balls at other centers are left translates.  While
    a ball is alive, later calls with the same spec and radius return it,
    with the same cap check a fresh build makes.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    found = _BALLS.get((spec, radius))
    if found is None:
        build = Ball if spec.is_standard else WordBall
        found = _BALLS[(spec, radius)] = build(spec, radius, cap)
    elif len(found) > cap:
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
