"""Free products of elementary factors: normal forms, arithmetic, balls.

An element is a tuple of syllables ``(factor_index, coordinate)`` where
adjacent syllables come from distinct factors and no syllable carries the
factor identity.  This normal form is unique, so elements are hashable
values and dict/set membership is group equality.  The identity is the
empty tuple.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import BallBudgetError, InvalidFactorError, NormalFormError
from .factor import Factor

Syllable = tuple  # (factor_index, coordinate)
Element = tuple   # tuple of syllables

IDENTITY: Element = ()

DEFAULT_BALL_CAP = 2_000_000


class GroupSpec:
    """A free product of factors with an optional extended generating set.

    The standard generating set is the union of the factor generators.  Extra
    generators (given as already-normalized elements with names) extend the
    metric without changing the group, its cosets, or any set-theoretic
    definition built on them.
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
        self._moves = self._build_moves()

    @property
    def is_standard(self) -> bool:
        return not self.extra_generators

    def _build_moves(self) -> tuple[tuple[str, Element], ...]:
        moves: list[tuple[str, Element]] = []
        seen: set[Element] = set()
        for i, f in enumerate(self.factors):
            for label, coord in f.moves():
                elem = ((i, coord),)
                if elem not in seen:
                    seen.add(elem)
                    moves.append((label, elem))
        for name, elem in self.extra_generators:
            for label, g in ((name, elem), (name + "^-1", inv(self, elem))):
                if g not in seen:
                    seen.add(g)
                    moves.append((label, g))
        return tuple(moves)

    def moves(self) -> tuple[tuple[str, Element], ...]:
        """Generating set closed under inverses, as (label, element) pairs."""
        return self._moves

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


def ball(spec: GroupSpec, radius: int, cap: int = DEFAULT_BALL_CAP) -> dict[Element, int]:
    """All elements within ``radius`` of the identity, with exact BFS distances.

    Uses the spec's full generating set (standard plus extras).  Iteration
    order of the returned dict is the deterministic BFS order.  Raises
    BallBudgetError when the ball would exceed ``cap`` elements; the metric
    is left-invariant, so balls at other centers are left translates.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dist: dict[Element, int] = {IDENTITY: 0}
    frontier: deque[Element] = deque([IDENTITY])
    moves = spec.moves()
    single = [m[1][0] for m in moves if len(m[1]) == 1]
    words = [m[1] for m in moves if len(m[1]) > 1]
    while frontier:
        x = frontier.popleft()
        d = dist[x]
        if d == radius:
            continue
        for fi, coord in single:
            y = mul_syllable(spec, x, fi, coord)
            if y not in dist:
                if len(dist) >= cap:
                    raise BallBudgetError(
                        f"ball(radius={radius}) exceeded cap of {cap} elements"
                    )
                dist[y] = d + 1
                frontier.append(y)
        for w in words:
            y = mul(spec, x, w)
            if y not in dist:
                if len(dist) >= cap:
                    raise BallBudgetError(
                        f"ball(radius={radius}) exceeded cap of {cap} elements"
                    )
                dist[y] = d + 1
                frontier.append(y)
    return dist


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
        f = spec.factors[fi]
        idx = int(rest[:-1])
        f.check_coord(idx)
        return (fi, idx)
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


def random_element(
    spec: GroupSpec,
    rng,
    max_syllables: int,
    max_exponent: int = 6,
    min_syllables: int = 0,
) -> Element:
    """Seeded random normal form with bounded syllable count and coordinates."""
    k = rng.randint(min_syllables, max_syllables)
    syls: list[Syllable] = []
    prev = -1
    nfac = len(spec.factors)
    for _ in range(k):
        fi = rng.randrange(nfac)
        if fi == prev:
            fi = (fi + 1 + rng.randrange(nfac - 1)) % nfac
        syls.append((fi, spec.factors[fi].random_coord(rng, max_exponent)))
        prev = fi
    return tuple(syls)
