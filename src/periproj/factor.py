"""Elementary factor groups: arithmetic, word length, and in-factor geodesics.

Each factor is one of four kinds: finite cyclic, infinite cyclic, free abelian
of rank 2, or an explicit finite multiplication table.  A factor owns its
labels, peripheral flag and config line (``kind``, ``syntax``, ``from_tokens``);
everything above (free-product elements, metrics, cosets) talks to factors
only through this interface.

``inverse_closed`` is the one rule for move tables.  In-factor geodesics
come from ``greedy_moves``, the one greedy walker, which ``metric.BfsBackend``
also runs over a Cayley ball and ``conedoff.lift`` over ``word_lengths``.

Coordinates are kind-specific plain values: a residue in [0, n) for cyclic,
an int for infinite cyclic, an (int, int) pair for rank-2 free abelian, and a
table index for finite tables.  The kind's zero value is the identity; the
identity is representable here but is never stored inside a syllable.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property
from pathlib import Path

from .errors import ConfigError, InvalidFactorError, NormalFormError, OutOfRangeError


class Factor:
    """Common interface of the four factor kinds.

    Instances are immutable; all methods are pure.  Subclasses provide
    ``mul``, ``inv``, ``length`` and element enumeration; geodesics are
    produced by a shared greedy walk over the factor's moves (generators and
    their inverses in label order, positive direction first), which makes
    tie-breaking deterministic.
    """

    kind: str  # the keyword of a config factor line
    syntax: str  # the tokens that follow it
    labels: tuple[str, ...]
    peripheral: bool
    identity = None  # overridden per kind

    @classmethod
    def from_tokens(cls, *tokens: str) -> "Factor":
        """The factor of a config line ``<kind> <syntax>``."""
        return cls(*tokens)

    def is_identity(self, x) -> bool:
        return x == self.identity

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def length(self, x) -> int:
        """Word length of ``x`` with respect to the standard generators."""
        raise NotImplementedError

    def check_coord(self, x) -> None:
        """Raise InvalidFactorError unless ``x`` is a valid coordinate."""
        raise NotImplementedError

    def moves(self) -> list[tuple[str, object]]:
        """The (label, coordinate) moves: ``inverse_closed`` over the generators."""
        return [(label, g) for label, g, _ in self._walk]

    @cached_property
    def _walk(self) -> tuple[tuple[str, object, object], ...]:
        """The moves as ``greedy_moves`` reads them, built once."""
        return inverse_closed((label, g, self.inv(g)) for label, g in self._generators())

    def _generators(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def elements_of_length(self, length: int) -> list:
        """All coordinates of the given word length, in canonical order."""
        raise NotImplementedError

    def diameter(self) -> int | None:
        """Max word length over the factor, or None when infinite."""
        raise NotImplementedError

    def bipartite(self) -> bool:
        """Whether the Cayley graph over ``moves()`` is bipartite, i.e. no move
        joins two elements of the same word length; a finite factor checks
        every element against every move."""
        return all(
            self.length(self.mul(x, g)) != n
            for n in range(self.diameter() + 1)
            for x in self.elements_of_length(n)
            for _, g in self.moves()
        )

    def random_coord(self, rng, max_exponent: int):
        """A seeded nontrivial coordinate, exponents bounded by ``max_exponent``."""
        raise NotImplementedError

    def random_coord_by_length(self, rng, max_len: int):
        """A seeded nontrivial coordinate of word length <= ``max_len``."""
        return self.random_coord(rng, max_len)

    def geodesic_moves(self, x, y) -> list[tuple[str, object]]:
        """The (label, move) steps of a geodesic from ``x`` to ``y``, of
        length ``length(inv(x)*y)``, by ``greedy_moves``."""
        self.check_coord(x)
        self.check_coord(y)
        return greedy_moves(self.mul(self.inv(x), y), self._walk, self.length, self.mul)

    def geodesic(self, x, y) -> list:
        """Vertex path from ``x`` to ``y`` along ``geodesic_moves``."""
        path = [x]
        for _, g in self.geodesic_moves(x, y):
            path.append(self.mul(path[-1], g))
        return path

    def syllable_tokens(self, x) -> list[str]:
        """Serialized tokens for a (nontrivial) syllable carried by ``x``."""
        raise NotImplementedError

    def index_coord(self, token: str, index: str):
        """The coordinate of a bracket token ``label[index]``, which only
        table factors write."""
        raise NormalFormError(f"bracket token for a {self.kind} factor: {token!r}")

    def _key(self) -> tuple:
        """What identifies a factor of this kind beyond labels and flag."""
        return ()

    def __eq__(self, other):
        return isinstance(other, Factor) and (
            self.kind, self.labels, self.peripheral, self._key()
        ) == (other.kind, other.labels, other.peripheral, other._key())

    def __hash__(self):
        return hash((self.kind, self.labels, self.peripheral, self._key()))

    def __repr__(self) -> str:
        flag = ", peripheral" if self.peripheral else ""
        return f"{type(self).__name__}({'/'.join(self.labels)}{flag})"


class CyclicFactor(Factor):
    """Cyclic group of order n >= 2 with a single generator."""

    kind = "cyclic"
    syntax = "<n> <label>"
    identity = 0

    def __init__(self, n: int, label: str, peripheral: bool = False):
        if n < 2:
            raise InvalidFactorError(f"cyclic factor needs order >= 2, got {n}")
        check_label(label)
        self.n = n
        self.labels = (label,)
        self.peripheral = bool(peripheral)

    @classmethod
    def from_tokens(cls, n: str, label: str) -> "CyclicFactor":
        return cls(int(n), label)

    def check_coord(self, x) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise InvalidFactorError(f"cyclic({self.n}) coordinate out of range: {x!r}")

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return (-x) % self.n

    def length(self, x) -> int:
        return min(x, self.n - x)

    def _generators(self):
        return [(self.labels[0], 1)]

    def elements_of_length(self, length: int) -> list:
        return [k for k in range(self.n) if self.length(k) == length]

    def diameter(self) -> int:
        return self.n // 2

    def random_coord(self, rng, max_exponent: int):
        return rng.randint(1, self.n - 1)

    def syllable_tokens(self, x) -> list[str]:
        return [f"{self.labels[0]}^{x}"]

    def _key(self) -> tuple:
        return (self.n,)


class InfiniteCyclicFactor(Factor):
    """Infinite cyclic group with a single generator."""

    kind = "z"
    syntax = "<label>"
    identity = 0

    def __init__(self, label: str, peripheral: bool = False):
        check_label(label)
        self.labels = (label,)
        self.peripheral = bool(peripheral)

    def check_coord(self, x) -> None:
        if not isinstance(x, int):
            raise InvalidFactorError(f"infinite-cyclic coordinate must be int, got {x!r}")

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def length(self, x) -> int:
        return abs(x)

    def _generators(self):
        return [(self.labels[0], 1)]

    def elements_of_length(self, length: int) -> list:
        if length == 0:
            return [0]
        return [-length, length]

    def diameter(self) -> None:
        return None

    def bipartite(self) -> bool:
        return True  # every move changes the L1 length by exactly 1

    def random_coord(self, rng, max_exponent: int):
        mag = rng.randint(1, max_exponent)
        return mag if rng.random() < 0.5 else -mag

    def syllable_tokens(self, x) -> list[str]:
        return [f"{self.labels[0]}^{x}"]


class FreeAbelianRank2Factor(Factor):
    """Free abelian group of rank 2; coordinates are integer pairs."""

    kind = "z2"
    syntax = "<label1> <label2>"
    identity = (0, 0)

    def __init__(self, label1: str, label2: str, peripheral: bool = False):
        check_label(label1)
        check_label(label2)
        if label1 == label2:
            raise InvalidFactorError("rank-2 factor needs two distinct labels")
        self.labels = (label1, label2)
        self.peripheral = bool(peripheral)

    def check_coord(self, x) -> None:
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not all(isinstance(c, int) for c in x)
        ):
            raise InvalidFactorError(f"rank-2 coordinate must be an int pair, got {x!r}")

    def mul(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def inv(self, x):
        return (-x[0], -x[1])

    def length(self, x) -> int:
        return abs(x[0]) + abs(x[1])

    def _generators(self):
        return [(self.labels[0], (1, 0)), (self.labels[1], (0, 1))]

    def elements_of_length(self, length: int) -> list:
        if length == 0:
            return [(0, 0)]
        out = []
        for a in range(-length, length + 1):
            b = length - abs(a)
            if b == 0:
                out.append((a, 0))
            else:
                out.append((a, -b))
                out.append((a, b))
        return sorted(out)

    def diameter(self) -> None:
        return None

    def bipartite(self) -> bool:
        return True  # every move changes the L1 length by exactly 1

    def random_coord(self, rng, max_exponent: int):
        """Uniform over the nonzero points of the box [-m, m]^2."""
        while True:
            a = rng.randint(-max_exponent, max_exponent)
            b = rng.randint(-max_exponent, max_exponent)
            if (a, b) != (0, 0):
                return (a, b)

    def random_coord_by_length(self, rng, max_len: int):
        """A uniform L1 length, then a point of that length."""
        total = rng.randint(1, max_len)
        a = rng.randint(-total, total)
        b = total - abs(a)
        if b and rng.random() < 0.5:
            b = -b
        return (a, b)

    def syllable_tokens(self, x) -> list[str]:
        toks = []
        if x[0]:
            toks.append(f"{self.labels[0]}^{x[0]}")
        if x[1]:
            toks.append(f"{self.labels[1]}^{x[1]}")
        return toks


class TableFactor(Factor):
    """Finite group given by an explicit n x n multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.  The
    table is validated at construction: associativity, a two-sided identity,
    inverses, and that the labelled generators reach every element.
    """

    kind = "table"
    syntax = "<json-path>"

    def __init__(self, table, generators: dict[str, int], peripheral: bool = False):
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        if n == 0 or any(len(row) != n for row in tbl):
            raise InvalidFactorError("table must be square and nonempty")
        for row in tbl:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise InvalidFactorError(f"table entry out of range: {v!r}")
        if not generators:
            raise InvalidFactorError("table factor needs at least one generator label")
        for label, idx in generators.items():
            check_label(label)
            if not 0 <= idx < n:
                raise InvalidFactorError(f"generator {label} index {idx} out of range")
        self.table = tbl
        self.n = n
        self.labels = tuple(generators)
        self._gen_index = dict(generators)
        self.peripheral = bool(peripheral)
        self.identity = self._find_identity()
        for label, idx in generators.items():
            if idx == self.identity:
                raise InvalidFactorError(f"generator {label} is the identity")
        self._inverse = self._find_inverses()
        self._check_associative()
        self._length = word_lengths(self.identity, [g for _, g in self.moves()], self.mul)
        if len(self._length) < n:
            raise InvalidFactorError("generator labels do not generate the table group")

    @classmethod
    def from_tokens(cls, path: str) -> "TableFactor":
        """The factor of a JSON file {"table": rows, "generators": {label: index}}."""
        try:
            data = json.loads(Path(path).read_text())
            return cls(data["table"], {str(k): int(v) for k, v in data["generators"].items()})
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad table factor file {path!r}: {exc}") from exc

    def _find_identity(self) -> int:
        for e in range(self.n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(self.n)):
                return e
        raise InvalidFactorError("table has no two-sided identity")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = [None] * self.n
        e = self.identity
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise InvalidFactorError(f"table element {i} has no inverse")
        return tuple(inv)

    def _check_associative(self) -> None:
        t = self.table
        for a in range(self.n):
            for b in range(self.n):
                ab = t[a][b]
                for c in range(self.n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise InvalidFactorError(
                            f"table is not associative at ({a},{b},{c})"
                        )

    def check_coord(self, x) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise InvalidFactorError(f"table coordinate out of range: {x!r}")

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inverse[x]

    def length(self, x) -> int:
        return self._length[x]

    def _generators(self):
        return [(label, self._gen_index[label]) for label in self.labels]

    def elements_of_length(self, length: int) -> list:
        return [i for i in range(self.n) if self._length[i] == length]

    def diameter(self) -> int:
        return max(self._length.values())

    def random_coord(self, rng, max_exponent: int):
        return rng.choice([i for i in range(self.n) if i != self.identity])

    def syllable_tokens(self, x) -> list[str]:
        return [f"{self.labels[0]}[{x}]"]

    def index_coord(self, token: str, index: str):
        try:
            idx = int(index)
            self.check_coord(idx)
        except (ValueError, InvalidFactorError) as exc:
            raise NormalFormError(f"bad table token: {token!r}") from exc
        return idx

    def _key(self) -> tuple:
        return (self.table, tuple(sorted(self._gen_index.items())))


def inverse_closed(generators) -> tuple[tuple[str, object, object], ...]:
    """The move table of (label, g, inverse) ``generators``: each generator,
    then its inverse (labelled ``<label>^-1``), skipping values already
    listed.  Returns (label, move, inverse of the move) triples."""
    out = []
    seen = set()
    for label, g, g_inv in generators:
        for step in ((label, g, g_inv), (label + "^-1", g_inv, g)):
            if step[1] not in seen:
                seen.add(step[1])
                out.append(step)
    return tuple(out)


def word_lengths(identity, moves, mul, stop=None, budget: int | None = None) -> dict:
    """Word lengths over the ``moves`` by BFS from ``identity`` (``mul(x, g)``),
    to the end or until ``stop`` is listed, with every element closer than
    it; listing more than ``budget`` elements raises OutOfRangeError."""
    lengths = {identity: 0}
    frontier = deque([identity])
    while frontier and stop not in lengths:
        x = frontier.popleft()
        d = lengths[x] + 1
        for g in moves:
            y = mul(x, g)
            if y not in lengths:
                if budget is not None and len(lengths) >= budget:
                    raise OutOfRangeError(f"word-length search exceeded its budget of {budget}")
                lengths[y] = d
                frontier.append(y)
    return lengths


def greedy_moves(w, moves, length, left_mul) -> list[tuple[str, object]]:
    """The (label, move) steps of a geodesic from the identity to ``w``.

    ``moves`` holds (label, move, inverse) triples and ``length`` gives the
    distance from the identity (None where it is not known).  Each step
    takes the first move g in ``moves`` order for which g^-1 w, formed by
    ``left_mul(g^-1, w)``, is one step closer, and continues from there, so
    ties resolve to the earliest move.
    """
    steps = []
    d = length(w)
    while d:
        for label, g, g_inv in moves:
            nw = left_mul(g_inv, w)
            if length(nw) == d - 1:
                break
        else:  # pragma: no cover - the moves generate, so a closer vertex exists
            raise InvalidFactorError("no distance-decreasing move")
        steps.append((label, g))
        w, d = nw, d - 1
    return steps


def check_label(label: str) -> None:
    if not label or not label[0].isalpha() or not label.replace("_", "").isalnum():
        raise InvalidFactorError(f"invalid generator label: {label!r}")


# the factor classes by config keyword
KINDS = {f.kind: f for f in Factor.__subclasses__()}
