"""Normal forms, free-product arithmetic, balls, and serialization."""

import gc
import itertools
import random
import weakref
from collections import deque
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from periproj import (
    BallBudgetError,
    BfsBackend,
    ConedOffBackend,
    CyclicFactor,
    FreeAbelianRank2Factor,
    GroupSpec,
    InfiniteCyclicFactor,
    InvalidFactorError,
    NormalFormError,
    TableFactor,
    ball,
    element_str,
    inv,
    mul,
    normalize,
    parse_element,
    random_element,
)
from periproj.cli import parse_config
from periproj.group import IDENTITY, mul_syllable
from periproj.verify import random_element_by_length


def raw_syllables(spec):
    """Hypothesis strategy for arbitrary (possibly unreduced) syllable lists."""
    choices = []
    for i, f in enumerate(spec.factors):
        if f.kind == "cyclic":
            choices.append(st.tuples(st.just(i), st.integers(0, f.n - 1)))
        elif f.kind == "z":
            choices.append(st.tuples(st.just(i), st.integers(-4, 4)))
        else:
            choices.append(
                st.tuples(st.just(i), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
            )
    return st.lists(st.one_of(choices), max_size=10)


def elements(spec):
    return raw_syllables(spec).map(lambda raws: normalize(spec, raws))


def test_normalize_square_cancels(c2c3):
    assert normalize(c2c3, [(0, 1), (0, 1)]) == IDENTITY


def test_normalize_full_telescoping(c2c3):
    assert normalize(c2c3, [(0, 1), (1, 1), (1, 2), (0, 1)]) == IDENTITY


def test_normalize_already_normal(c2c3):
    word = [(1, 1), (0, 1), (1, 2)]
    assert normalize(c2c3, word) == tuple(word)


def test_normalize_bad_index(c2c3):
    with pytest.raises(NormalFormError):
        normalize(c2c3, [(5, 1)])


def test_mul_cancels_through(c2c3):
    x = parse_element(c2c3, "a b")
    y = parse_element(c2c3, "b^2 a")
    assert mul(c2c3, x, y) == IDENTITY


def test_inv_reverses(zxz2):
    x = parse_element(zxz2, "t u^2")
    assert element_str(zxz2, inv(zxz2, x)) == "u^-2 t^-1"


def test_mul_merges_middle(zxz2):
    x = parse_element(zxz2, "t u")
    y = parse_element(zxz2, "u t")
    assert element_str(zxz2, mul(zxz2, x, y)) == "t^1 u^2 t^1"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent_hypothesis(zxz2, data):
    raws = data.draw(raw_syllables(zxz2))
    once = normalize(zxz2, raws)
    assert normalize(zxz2, once) == once


def test_mul_associative_exhaustive_radius3(c2c3):
    elems = list(ball(c2c3, 3))
    for x, y, z in itertools.product(elems, repeat=3):
        assert mul(c2c3, mul(c2c3, x, y), z) == mul(c2c3, x, mul(c2c3, y, z))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mul_associative_hypothesis(zxz2, data):
    x = data.draw(elements(zxz2))
    y = data.draw(elements(zxz2))
    z = data.draw(elements(zxz2))
    assert mul(zxz2, mul(zxz2, x, y), z) == mul(zxz2, x, mul(zxz2, y, z))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_laws_hypothesis(zxz2, data):
    x = data.draw(elements(zxz2))
    y = data.draw(elements(zxz2))
    assert mul(zxz2, x, inv(zxz2, x)) == IDENTITY
    assert inv(zxz2, mul(zxz2, x, y)) == mul(zxz2, inv(zxz2, y), inv(zxz2, x))


def test_mul_syllable_matches_mul(zxz2):
    x = parse_element(zxz2, "t u^2")
    assert mul_syllable(zxz2, x, 1, (-2, 0)) == mul(zxz2, x, ((1, (-2, 0)),))
    assert mul_syllable(zxz2, x, 0, 1) == mul(zxz2, x, ((0, 1),))


def test_ball_c2c3_radius1(c2c3):
    got = ball(c2c3, 1)
    expected = {
        IDENTITY: 0,
        parse_element(c2c3, "a"): 1,
        parse_element(c2c3, "b"): 1,
        parse_element(c2c3, "b^2"): 1,
    }
    assert got == expected


def test_ball_zxz2_radius1(zxz2):
    got = ball(zxz2, 1)
    assert len(got) == 7
    for token in ("t", "t^-1", "u", "u^-1", "v", "v^-1"):
        assert got[parse_element(zxz2, token)] == 1


def test_ball_extended_contains_extra(c2c3_ext):
    got = ball(c2c3_ext, 1)
    assert got[parse_element(c2c3_ext, "a b")] == 1


def test_ball_monotone_and_parent_property(zxz2):
    sizes = []
    for r in range(4):
        table = ball(zxz2, r)
        sizes.append(len(table))
        moves = [g for _, g in zxz2.moves()]
        for x, d in table.items():
            if d == 0:
                continue
            assert any(table.get(mul(zxz2, x, g)) == d - 1 for g in moves)
    assert sizes == sorted(sizes)


def test_ball_budget(zxz2):
    with pytest.raises(BallBudgetError):
        ball(zxz2, 6, cap=100)


@pytest.mark.parametrize("radius", [0, 1, 5, 40])
def test_ball_cap_below_two_radius_plus_one(radius):
    # ball(r) of an infinite group has at least 2r + 1 elements, exactly so
    # for C2 * C2, and a smaller cap is refused
    spec = GroupSpec([CyclicFactor(2, "a"), CyclicFactor(2, "b")])
    assert len(ball(spec, radius, cap=2 * radius + 1)) == 2 * radius + 1
    with pytest.raises(BallBudgetError, match=rf"^ball\(radius={radius}\) exceeded cap"):
        ball(GroupSpec(spec.factors), radius, cap=2 * radius)


def _dict_ball(spec, radius):
    """The dict BFS that the indexed ball replaced: element -> distance in
    BFS order, single-syllable moves before longer words."""
    dist = {IDENTITY: 0}
    frontier = deque([IDENTITY])
    moves = spec.moves()
    single = [g[0] for _, g in moves if len(g) == 1]
    words = [g for _, g in moves if len(g) > 1]
    while frontier:
        x = frontier.popleft()
        d = dist[x]
        if d == radius:
            continue
        products = [mul_syllable(spec, x, fi, coord) for fi, coord in single]
        for y in products + [mul(spec, x, w) for w in words]:
            if y not in dist:
                dist[y] = d + 1
                frontier.append(y)
    return dist


def _s3_table(*labels):
    """S3 as a multiplication table, generated by two transpositions."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    return TableFactor(table, dict(zip(labels, (index[(1, 0, 2)], index[(0, 2, 1)]))))


def _klein_table(*labels):
    """C2 x C2 as a multiplication table, generated by its two factors."""
    return TableFactor([[i ^ j for j in range(4)] for i in range(4)], dict(zip(labels, (1, 2))))


def _c5_table(*labels):
    """C5 as a multiplication table (not bipartite), on one generator."""
    return TableFactor([[(i + j) % 5 for j in range(5)] for i in range(5)], {labels[0]: 1})


@st.composite
def standard_specs(draw):
    """A free product of 2 or 3 factors drawn among cyclic, Z, Z^2 and table
    factors, on its standard generating set."""
    factors = []
    for p in range(draw(st.integers(2, 3))):
        labels = (f"a{p}", f"b{p}")
        kind = draw(st.sampled_from(["cyclic", "z", "z2", "table"]))
        if kind == "cyclic":
            factors.append(CyclicFactor(draw(st.integers(2, 6)), labels[0]))
        elif kind == "z":
            factors.append(InfiniteCyclicFactor(labels[0]))
        elif kind == "z2":
            factors.append(FreeAbelianRank2Factor(*labels))
        else:
            factors.append(draw(st.sampled_from([_s3_table, _klein_table, _c5_table]))(*labels))
    return GroupSpec(factors)


@st.composite
def extended_specs(draw):
    """A ``standard_specs`` group with 1 or 2 extra generators, each a
    random word of 1-3 syllables of length 1 or 2."""
    spec = draw(standard_specs())
    extras = []
    for n in range(draw(st.integers(1, 2))):
        word, prev = [], -1
        for _ in range(draw(st.integers(1, 3))):
            fi = draw(st.sampled_from([i for i in range(len(spec.factors)) if i != prev]))
            f = spec.factors[fi]
            coords = f.elements_of_length(1) + f.elements_of_length(2)
            word.append((fi, draw(st.sampled_from(coords))))
            prev = fi
        extras.append((f"w{n}", tuple(word)))
    return GroupSpec(spec.factors, extras)


def _extended(factors, *extras):
    """The free product of ``factors`` with the (name, word) extras."""
    return GroupSpec(factors, [(name, parse_element(GroupSpec(factors), w)) for name, w in extras])


def _zz2():
    return [InfiniteCyclicFactor("t"), FreeAbelianRank2Factor("u", "v")]


BALL_SPECS = {
    "c4*c6": lambda: GroupSpec([CyclicFactor(4, "a"), CyclicFactor(6, "b")]),
    "s3*c2": lambda: GroupSpec([_s3_table("s", "x"), CyclicFactor(2, "c")]),
    "z*z": lambda: GroupSpec([InfiniteCyclicFactor("s"), InfiniteCyclicFactor("t")]),
    "c3*c5+aba": lambda: _extended([CyclicFactor(3, "a"), CyclicFactor(5, "b")], ("aba", "a b a")),
    "z*z2+tu": lambda: _extended(_zz2(), ("tu", "t u")),
    # letters up to 3r long: syllables outgrow the radius
    "z*z2+t^3": lambda: _extended(_zz2(), ("w", "t^3")),
    # a word extra listed before a single-syllable one: singles are discovered first
    "z*z2+tu,t^2": lambda: _extended(_zz2(), ("tu", "t u"), ("w", "t^2")),
    # the off-ball prefix a b a of the first word's product is a node only
    # after the second word's prefix a b^2: prefix keys rank by the first
    # element they prefix, not by the order the nodes were added
    "c3*c5+abab,ab2a": lambda: _extended(
        [CyclicFactor(3, "a"), CyclicFactor(5, "b")], ("p", "a b a b"), ("q", "a b^2 a")
    ),
}

DRAWN_SPECS = {"drawn": standard_specs, "drawn-extended": extended_specs}


@pytest.mark.parametrize(
    "name, radius",
    [("zxz2", 5), ("c2c3", 9), ("c2c3_ext", 8), ("zxz2", 8), ("c4*c6", 6), ("s3*c2", 8),
     ("z*z", 7), ("drawn", 5), ("c3*c5+aba", 5), ("z*z2+tu", 4), ("z*z2+t^3", 4),
     ("z*z2+tu,t^2", 4), ("c3*c5+abab,ab2a", 3), ("drawn-extended", 4)],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ball_matches_dict_bfs(request, name, radius, data):
    # the same elements and distances in the same order; each id's parent
    # times its parent move is the element, and the neighbour ids (the last
    # level's after ``complete``) are the reference ids of the products, -1
    # outside, where ``id_of`` gives -1 too.  Two elements share a coset key
    # exactly when their canonical representatives are equal.  The key is
    # the representative's ``coset_key``: its id in the ball, or a distinct
    # id past the ball when it lies outside.  ``first`` reads the least
    # distance in the coset.  "drawn" is a standard set of 2-3 factors at a
    # radius of at most 5, and "drawn-extended" one with extra words at a
    # radius of at most 4.
    if name in DRAWN_SPECS:
        spec, radius = data.draw(DRAWN_SPECS[name]()), data.draw(st.integers(0, radius))
        try:
            got = ball(spec, radius, cap=6_000)
        except BallBudgetError:
            reject()
    else:
        spec = BALL_SPECS[name]() if name in BALL_SPECS else request.getfixturevalue(name)
        got = ball(spec, radius)
    reference = _dict_ball(spec, radius)
    assert list(got.items()) == list(reference.items())
    assert got.elements == list(got)
    ids = {x: j for j, x in enumerate(reference)}
    moves = [g for _, g in spec.moves()]
    parent, pmove = got.parent.tolist(), got.pmove.tolist()
    steps = got.complete()
    outside = []
    for j, x in enumerate(got.elements):
        if j:
            assert mul(spec, got.elements[parent[j]], moves[pmove[j]]) == x
        assert got.id_of(x) == j and got.element(j) == x
        products = [mul(spec, x, g) for g in moves]
        assert steps[j].tolist() == [ids.get(y, -1) for y in products]
        outside += [y for y in products if y not in ids]
    for i in range(len(spec.factors)):
        reps = [x[:-1] if x and x[-1][0] == i else x for x in reference]
        cosets = got.cosets(i)
        key = cosets.key.tolist()
        assert len(set(zip(reps, key))) == len(set(reps)) == len(set(key))
        for rep, k in zip(reps, key):
            assert k == ids[rep] if rep in ids else k >= len(ids)
            assert got.coset_key(rep) == k
        first = [-1] * (max(key) + 1)
        for k, d in zip(key, reference.values()):
            first[k] = d if first[k] < 0 else min(first[k], d)
        assert cosets.first.tolist() == first
    assert all(got.id_of(y) == -1 for y in outside)


def _completion_specs():
    """(name, spec, radius, bipartite): generating sets on both sides of the
    parity criterion, at radii where the non-bipartite balls have edges
    inside their last level."""
    c4c6 = [CyclicFactor(4, "a"), CyclicFactor(6, "b")]
    s3 = _s3_table("s", "x")
    c3c5 = [CyclicFactor(3, "a"), CyclicFactor(5, "b")]
    zz2 = _zz2()
    yield "c4*c6", GroupSpec(c4c6), 6, True
    yield "s3*c2", GroupSpec([s3, CyclicFactor(2, "c")]), 8, True
    yield "z*z2+tuv", _extended(zz2, ("tuv", "t u v")), 4, True
    yield "c3*c5+aba", _extended(c3c5, ("aba", "a b a")), 5, False
    yield "z*z2+tu", _extended(zz2, ("tu", "t u")), 4, False


@pytest.mark.parametrize(
    "spec, radius, bipartite",
    [case[1:] for case in _completion_specs()],
    ids=[case[0] for case in _completion_specs()],
)
def test_complete_matches_product_loop(spec, radius, bipartite):
    # the scatter of the inward edges (and, off bipartite sets, the product
    # loop) gives the product loop's neighbour ids cell by cell
    got = ball(spec, radius)
    moves = [g for _, g in spec.moves()]
    reference = [[got.id_of(mul(spec, x, g)) for g in moves] for x in got.elements]
    assert got.complete().tolist() == reference
    # the parity criterion holds exactly when no move joins two elements of
    # one level; off it, the last level has such edges for the loop to find
    level = got.dist.tolist()
    inner = {
        level[j] for j, row in enumerate(reference) for k in row if k >= 0 and level[k] == level[j]
    }
    assert spec.bipartite is bipartite
    assert (not inner) is bipartite
    assert bipartite or radius in inner


def test_backends_share_one_ball(zxz2):
    # a fresh spec: no other test holds its balls
    spec = GroupSpec(list(zxz2.factors), name="zxz2")
    bfs = BfsBackend(spec, 5)
    hat = ConedOffBackend(spec, radius=5)
    assert hat.gtable is bfs.table is ball(spec, 5)
    size = len(bfs.table)
    assert ball(spec, 5, cap=size) is bfs.table
    # the shared ball keeps the cap: it fails exactly where a fresh build fails
    message = rf"^ball\(radius=5\) exceeded cap of {size - 1} elements$"
    with pytest.raises(BallBudgetError, match=message):
        ball(spec, 5, cap=size - 1)
    ref = weakref.ref(bfs.table)
    del bfs
    gc.collect()
    assert ref() is hat.gtable
    del hat
    gc.collect()
    assert ref() is None
    with pytest.raises(BallBudgetError, match=message):
        ball(spec, 5, cap=size - 1)
    assert len(ball(spec, 5, cap=size)) == size
    with pytest.raises(BallBudgetError, match=r"^ball\(radius=0\) exceeded cap of 0 elements$"):
        ball(spec, 0, cap=0)


def test_identity_serialization(zxz2):
    assert element_str(zxz2, IDENTITY) == "e"
    assert parse_element(zxz2, "e") == IDENTITY
    assert parse_element(zxz2, "") == IDENTITY


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_serialization_roundtrip(zxz2, data):
    x = data.draw(elements(zxz2))
    assert parse_element(zxz2, element_str(zxz2, x)) == x


def test_parse_merges_rank2_tokens(zxz2):
    assert parse_element(zxz2, "u^1 v^2") == ((1, (1, 2)),)


def test_parse_rejects_unknown_label(zxz2):
    with pytest.raises(NormalFormError):
        parse_element(zxz2, "w^2")


@pytest.mark.parametrize(
    "group, text",
    [("zxz2", "t[5]"), ("zxz2", "u[3]"), ("c2c3", "b[2] a[1]")],
)
def test_parse_rejects_bracket_tokens_of_non_table_factors(request, group, text):
    # element_str writes label[i] only for table factors
    with pytest.raises(NormalFormError, match="bracket token"):
        parse_element(request.getfixturevalue(group), text)


@pytest.mark.parametrize("text", ["s[x]", "s[9]", "s[-1]", "c s[]"])
def test_parse_rejects_bad_table_tokens(text):
    # a non-integer or out-of-range table index is a malformed token, like
    # every other one, not a bare ValueError or a factor error
    spec = GroupSpec([_four_kinds_spec().factors[3], CyclicFactor(2, "c")])
    with pytest.raises(NormalFormError, match="bad table token"):
        parse_element(spec, text)


def test_spec_needs_two_factors():
    with pytest.raises(InvalidFactorError):
        GroupSpec([InfiniteCyclicFactor("t")])


def test_spec_rejects_duplicate_labels():
    with pytest.raises(InvalidFactorError):
        GroupSpec([CyclicFactor(2, "a"), CyclicFactor(3, "a")])


def test_spec_rejects_trivial_extra(c2c3):
    trivial = parse_element(c2c3, "a a")
    with pytest.raises(InvalidFactorError):
        GroupSpec(list(c2c3.factors), extra_generators=[("x", trivial)])


@pytest.mark.parametrize("word", ["a", "b b", "b^-1"])
def test_extra_that_adds_no_move_is_dropped(c2c3, word):
    # an extra whose value is already a move leaves the move table as it is,
    # so the set is the standard one and runs on the closed forms
    spec = GroupSpec(list(c2c3.factors), extra_generators=[("w", parse_element(c2c3, word))])
    assert spec.extra_generators == () and spec.is_standard
    assert spec.moves() == c2c3.moves() and spec.bipartite == c2c3.bipartite


def test_elements_are_hashable_set_members(zxz2):
    a = parse_element(zxz2, "t u^2")
    b = parse_element(zxz2, "t u^1 u^1")
    assert {a} == {b}


def test_table_element_serialization():
    import itertools as _it

    from periproj import TableFactor

    perms = list(_it.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms
    ]
    s3 = TableFactor(table, {"s": index[(1, 0, 2)], "r": index[(1, 2, 0)]})
    spec = GroupSpec([s3, CyclicFactor(2, "c")])
    x = parse_element(spec, "s[4] c s[1]")
    assert element_str(spec, x) == "s[4] c^1 s[1]"
    assert parse_element(spec, element_str(spec, x)) == x
    # generator tokens with powers fold through the table
    assert parse_element(spec, "r^2") == ((0, table[index[(1, 2, 0)]][index[(1, 2, 0)]]),)


def _four_kinds_spec():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    s3 = TableFactor(table, {"s": index[(1, 0, 2)], "r": index[(1, 2, 0)]})
    return GroupSpec(
        [CyclicFactor(5, "a"), InfiniteCyclicFactor("t"), FreeAbelianRank2Factor("u", "v"), s3]
    )


def _table_power(f, g, k):
    # repeated multiplication of the generator or its inverse
    if k < 0:
        g, k = f.inv(g), -k
    acc = f.identity
    for _ in range(k):
        acc = f.mul(acc, g)
    return acc


@pytest.mark.parametrize("k", [-7, -1, 0, 1, 5, 1000])
@pytest.mark.parametrize("label", ["a", "t", "v", "r"])
def test_parse_generator_power_every_kind(label, k):
    spec = _four_kinds_spec()
    s3 = spec.factors[3]
    expected = {
        "a": (0, k % 5),
        "t": (1, k),
        "v": (2, (0, k)),
        "r": (3, _table_power(s3, s3._gen_index["r"], k)),
    }[label]
    assert parse_element(spec, f"{label}^{k}") == normalize(spec, [expected])


# the first 20 draws per factor kind, seed 11, recorded before the coordinate
# draws moved onto the factor classes: seeded reports depend on both
# distributions, which differ only for z2 (a box vs. an L1 length)
PINNED_DRAWS = {
    "cyclic": (
        "c^1 a^2 c^1 | e | c^1 a^1 c^1 | a^1 | e | e | a^1 | c^1 a^2 c^1 | "
        "e | e | c^1 a^3 c^1 | a^1 c^1 | c^1 a^1 | a^1 | c^1 a^2 c^1 | e | "
        "c^1 a^2 | a^1 | e | c^1 a^4 c^1",
        "c^1 a^2 c^1 | e | c^1 a^1 c^1 | a^1 | e | e | a^1 | c^1 a^2 c^1 | "
        "e | e | c^1 a^3 c^1 | a^1 c^1 | c^1 a^1 | a^1 | c^1 a^2 c^1 | e | "
        "c^1 a^2 | a^1 | e | c^1 a^4 c^1",
    ),
    "z": (
        "c^1 t^-2 c^1 | e | c^1 t^-5 c^1 | t^5 | e | t^5 | c^1 t^5 c^1 | e | "
        "e | c^1 t^6 c^1 | e | e | t^3 c^1 t^1 | c^1 t^6 c^1 | e | "
        "t^2 c^1 t^-2 | c^1 | c^1 | e | c^1 t^-3 c^1",
        "c^1 t^-2 c^1 | e | c^1 t^-1 c^1 | t^1 | t^-1 | c^1 t^3 | e | "
        "c^1 t^3 c^1 | e | e | t^3 c^1 t^1 | c^1 t^3 c^1 | e | t^2 c^1 t^-2 | "
        "c^1 | c^1 | e | c^1 t^-3 c^1 | t^-4 | e",
    ),
    "z2": (
        "c^1 u^-4 v^6 c^1 | e | c^1 u^2 v^6 c^1 | u^2 v^-5 | e | e | "
        "u^3 v^-6 | c^1 u^2 v^-3 c^1 | e | e | c^1 u^5 v^-2 c^1 | "
        "u^-5 v^3 c^1 | c^1 u^4 v^-6 | u^-6 v^1 | c^1 u^3 v^4 c^1 | e | "
        "c^1 u^-4 v^-3 | e | e | e",
        "c^1 u^2 c^1 | e | c^1 u^1 c^1 | u^-1 | e | v^-1 | v^-3 | e | "
        "c^1 u^-1 v^2 c^1 | e | e | v^-3 c^1 v^-1 | c^1 u^-1 v^-2 c^1 | "
        "u^-1 v^1 c^1 u^1 v^1 | c^1 | e | c^1 u^3 c^1 | u^-3 v^-1 | v^-4 | "
        "c^1 u^-1",
    ),
    "table": (
        "c^1 s[2] c^1 | e | c^1 s[5] c^1 | s[5] | e | e | e | s[5] | e | "
        "c^1 s[5] c^1 | e | e | c^1 s[3] c^1 | s[1] c^1 | c^1 s[1] | s[1] | "
        "c^1 s[5] c^1 | e | c^1 s[2] | s[1]",
        "c^1 s[2] c^1 | e | c^1 s[5] c^1 | s[5] | e | e | e | s[5] | e | "
        "c^1 s[5] c^1 | e | e | c^1 s[3] c^1 | s[1] c^1 | c^1 s[1] | s[1] | "
        "c^1 s[5] c^1 | e | c^1 s[2] | s[1]",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_DRAWS))
def test_random_draws_pinned_per_kind(kind):
    f = {g.kind: g for g in _four_kinds_spec().factors}[kind]
    spec = GroupSpec([f, CyclicFactor(2, "c")])
    expected_plain, expected_by_length = PINNED_DRAWS[kind]
    rng = random.Random(11)
    plain = [element_str(spec, random_element(spec, rng, 3, 6)) for _ in range(20)]
    rng = random.Random(11)
    by_length = [element_str(spec, random_element_by_length(spec, rng, 3, 4)) for _ in range(20)]
    assert " | ".join(plain) == expected_plain
    assert " | ".join(by_length) == expected_by_length


def _factor_moves_reference(f):
    """The loop ``Factor.moves`` ran before ``inverse_closed``."""
    out, seen = [], set()
    for label, g in f._generators():
        for name, coord in ((label, g), (label + "^-1", f.inv(g))):
            if coord not in seen:
                seen.add(coord)
                out.append((name, coord))
    return out


def _spec_moves_reference(spec):
    """The loop ``GroupSpec`` built its moves with before ``inverse_closed``."""
    moves, seen = [], set()
    for i, f in enumerate(spec.factors):
        for label, coord in _factor_moves_reference(f):
            elem = ((i, coord),)
            if elem not in seen:
                seen.add(elem)
                moves.append((label, elem))
    for name, elem in spec.extra_generators:
        for label, g in ((name, elem), (name + "^-1", inv(spec, elem))):
            if g not in seen:
                seen.add(g)
                moves.append((label, g))
    return moves


def _in_factor_moves_reference(spec, i):
    """The loop lifts listed a factor's moves with, before
    ``GroupSpec.factor_moves``: the factor's moves, then each extra in it."""
    f = spec.factors[i]
    moves = _factor_moves_reference(f)
    for name, w in spec.extra_generators:
        if len(w) == 1 and w[0][0] == i:
            for lab, coord in ((name, w[0][1]), (name + "^-1", f.inv(w[0][1]))):
                if all(coord != c for _, c in moves):
                    moves.append((lab, coord))
    return moves


def _move_table_specs():
    configs = resources.files("periproj") / "configs"
    for name in ("c2c3.cfg", "zxz2.cfg", "c2c3-ext.cfg"):
        yield name, parse_config(str(configs / name)).group
    for name, n, words in (
        ("extra equal to a factor generator", 3, [("w", "b")]),
        ("order-2 extra", 4, [("w", "b^2")]),
        ("word extra before a single syllable", 5, [("ab", "a b"), ("w", "b^2")]),
    ):
        factors = [CyclicFactor(2, "a"), CyclicFactor(n, "b")]
        base = GroupSpec(factors)
        yield name, GroupSpec(factors, [(g, parse_element(base, w)) for g, w in words])
    s3 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
          [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
    factors = [TableFactor(s3, {"s": 1, "r": 3}), CyclicFactor(2, "c")]
    yield "table extras", GroupSpec(factors, [("w", ((0, 2),)), ("x", ((0, 4),))])


@pytest.mark.parametrize("name, spec", list(_move_table_specs()))
def test_move_tables_match_reference(name, spec):
    # one rule for the factor, spec and in-factor move tables: each
    # generator, then its inverse, skipping values already listed
    assert list(spec.moves()) == _spec_moves_reference(spec)
    for i, f in enumerate(spec.factors):
        assert list(f.moves()) == _factor_moves_reference(f)
        in_factor = spec.factor_moves(i)
        assert [(label, g) for _, label, g in in_factor] == _in_factor_moves_reference(spec, i)
        assert all(spec.moves()[k] == (label, ((i, g),)) for k, label, g in in_factor)
