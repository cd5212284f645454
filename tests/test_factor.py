"""Factor-level arithmetic, word lengths, geodesics, and table validation."""

import itertools

import pytest

from periproj import (
    CyclicFactor,
    FreeAbelianRank2Factor,
    InfiniteCyclicFactor,
    InvalidFactorError,
    TableFactor,
)


def s3_table():
    """Multiplication table of Sym(3) acting on (0,1,2); composition left-to-right."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply p, then q
        return tuple(q[p[i]] for i in range(3))

    return [[index[compose(p, q)] for q in perms] for p in perms], perms, index


def test_cyclic_mul_full_cancellation():
    c3 = CyclicFactor(3, "b")
    assert c3.mul(1, 2) == c3.identity


def test_infinite_cyclic_mul():
    z = InfiniteCyclicFactor("t")
    assert z.mul(3, -1) == 2


def test_rank2_mul_coordinatewise():
    z2 = FreeAbelianRank2Factor("u", "v")
    assert z2.mul((1, 2), (-1, 0)) == (0, 2)


def test_lengths():
    c3 = CyclicFactor(3, "b")
    z2 = FreeAbelianRank2Factor("u", "v")
    assert c3.length(2) == 1  # b^2 = b^-1
    assert z2.length((3, -2)) == 5
    assert c3.length(c3.identity) == 0


def test_table_s3_transposition_length():
    table, perms, index = s3_table()
    transposition = index[(1, 0, 2)]
    three_cycle = index[(1, 2, 0)]
    f = TableFactor(table, {"s": transposition, "r": three_cycle})
    assert f.length(transposition) == 1
    # oracle: brute-force shortest product of generator moves reaching each element
    moves = [g for _, g in f.moves()]
    best = {f.identity: 0}
    frontier = [f.identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for g in moves:
                y = f.mul(x, g)
                if y not in best:
                    best[y] = depth
                    nxt.append(y)
        frontier = nxt
    assert len(best) == 6
    for i in range(6):
        assert f.length(i) == best[i]


def test_geodesic_infinite_cyclic():
    z = InfiniteCyclicFactor("t")
    assert z.geodesic(0, 2) == [0, 1, 2]


def test_geodesic_cyclic_tie_break():
    c4 = CyclicFactor(4, "g")
    # both routes to g^2 have length 2; the tie goes to the positive generator
    assert c4.geodesic(0, 2) == [0, 1, 2]


def test_geodesic_rank2_u_step_first():
    z2 = FreeAbelianRank2Factor("u", "v")
    path = z2.geodesic((0, 0), (1, 1))
    assert len(path) == 3 and path[1] == (1, 0)
    # oracle: enumerate every 2-step move sequence and check ours is among them
    moves = [g for _, g in z2.moves()]
    two_step = {
        (z2.mul((0, 0), g1), z2.mul(z2.mul((0, 0), g1), g2))
        for g1 in moves
        for g2 in moves
        if z2.mul(z2.mul((0, 0), g1), g2) == (1, 1)
    }
    assert (path[1], path[2]) in two_step


@pytest.mark.parametrize(
    "factor",
    [
        CyclicFactor(5, "c"),
        InfiniteCyclicFactor("t"),
        FreeAbelianRank2Factor("u", "v"),
        TableFactor(
            s3_table()[0],
            {"s": s3_table()[2][(1, 0, 2)], "r": s3_table()[2][(1, 2, 0)]},
        ),
    ],
    ids=["cyclic5", "z", "z2", "s3"],
)
def test_length_symmetry_radius6(factor):
    pts = []
    for level in range(7):
        pts.extend(factor.elements_of_length(level))
        if factor.diameter() is not None and level >= factor.diameter():
            break
    for x in pts:
        for y in pts:
            dxy = factor.length(factor.mul(factor.inv(x), y))
            dyx = factor.length(factor.mul(factor.inv(y), x))
            assert dxy == dyx


@pytest.mark.parametrize(
    "factor",
    [CyclicFactor(6, "c"), FreeAbelianRank2Factor("u", "v")],
    ids=["cyclic6", "z2"],
)
def test_geodesic_is_geodesic(factor):
    pts = []
    for level in range(4):
        pts.extend(factor.elements_of_length(level))
    move_coords = {g for _, g in factor.moves()}
    for x in pts[:8]:
        for y in pts:
            path = factor.geodesic(x, y)
            assert path[0] == x and path[-1] == y
            assert len(path) - 1 == factor.length(factor.mul(factor.inv(x), y))
            for a, b in zip(path, path[1:]):
                assert factor.mul(factor.inv(a), b) in move_coords


def test_table_rejects_non_associative():
    # latin square that is not a group (no associativity)
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidFactorError):
        TableFactor(bad, {"g": 1})


def test_table_rejects_no_identity():
    with pytest.raises(InvalidFactorError):
        TableFactor([[0, 0], [0, 0]], {"g": 1})


def test_table_rejects_non_generating():
    # C4 table with only the square as a generator
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(InvalidFactorError):
        TableFactor(c4, {"g": 2})


def test_table_rejects_identity_generator():
    # a generator at the identity index is a loop edge and would put the
    # non-normal syllable ((i, e),) among the spec's moves
    with pytest.raises(InvalidFactorError, match="^generator e0 is the identity$"):
        TableFactor([[0, 1], [1, 0]], {"e0": 0, "a": 1})


def test_cyclic_needs_order_two():
    with pytest.raises(InvalidFactorError):
        CyclicFactor(1, "g")


def test_bad_coordinates_rejected():
    c3 = CyclicFactor(3, "b")
    with pytest.raises(InvalidFactorError):
        c3.check_coord(3)
    z2 = FreeAbelianRank2Factor("u", "v")
    with pytest.raises(InvalidFactorError):
        z2.check_coord((1,))


def test_bad_labels_rejected():
    with pytest.raises(InvalidFactorError):
        InfiniteCyclicFactor("2t")
    with pytest.raises(InvalidFactorError):
        FreeAbelianRank2Factor("u", "u")


S3, _, S3_INDEX = s3_table()
S3_GENS = {"s": S3_INDEX[(1, 0, 2)], "r": S3_INDEX[(1, 2, 0)]}
C6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]


@pytest.mark.parametrize(
    "make, variants",
    [
        (lambda: CyclicFactor(5, "c"),
         [CyclicFactor(5, "d"), CyclicFactor(6, "c"), CyclicFactor(5, "c", peripheral=True)]),
        (lambda: InfiniteCyclicFactor("t"),
         [InfiniteCyclicFactor("s"), InfiniteCyclicFactor("t", peripheral=True)]),
        (lambda: FreeAbelianRank2Factor("u", "v"),
         [FreeAbelianRank2Factor("u", "w"), FreeAbelianRank2Factor("v", "u"),
          FreeAbelianRank2Factor("u", "v", peripheral=True)]),
        (lambda: TableFactor(S3, S3_GENS),
         [TableFactor(S3, {"x": S3_GENS["s"], "r": S3_GENS["r"]}),
          TableFactor(S3, {"r": S3_GENS["r"], "s": S3_GENS["s"]}),
          TableFactor(S3, {"s": S3_GENS["r"], "r": S3_GENS["s"]}),
          TableFactor(C6, S3_GENS), TableFactor(S3, S3_GENS, peripheral=True)]),
    ],
    ids=["cyclic", "z", "z2", "s3"],
)
def test_factor_equality_and_hash(make, variants):
    f, g = make(), make()
    assert f == g and hash(f) == hash(g)
    for other in variants:
        assert f != other and other != f


def test_factors_of_different_kinds_unequal():
    c2 = CyclicFactor(2, "a")
    table = TableFactor([[0, 1], [1, 0]], {"a": 1})
    assert c2 != table and table != c2


@pytest.mark.parametrize(
    "factor, bipartite",
    [(CyclicFactor(2, "c"), True), (CyclicFactor(6, "c"), True), (CyclicFactor(5, "c"), False),
     (InfiniteCyclicFactor("t"), True), (FreeAbelianRank2Factor("u", "v"), True),
     (TableFactor(S3, {"s": S3_INDEX[(1, 0, 2)], "x": S3_INDEX[(0, 2, 1)]}), True),
     (TableFactor(S3, S3_GENS), False), (TableFactor(C6, {"g": 1}), True),
     (TableFactor(C6, {"g": 2, "h": 3}), False)],
    ids=["c2", "c6", "c5", "z", "z2", "s3_transpositions", "s3", "c6_table", "c6_table_two_gens"],
)
def test_bipartite_matches_odd_cycle_scan(factor, bipartite):
    # a Cayley graph is bipartite exactly when no move joins two elements of
    # one BFS level; scan the level sets up to length 4
    levels = [factor.elements_of_length(n) for n in range(5)]
    same_level = any(
        factor.mul(x, g) in level for level in levels for x in level for _, g in factor.moves()
    )
    assert factor.bipartite() is bipartite
    assert same_level is not bipartite


@pytest.mark.parametrize(
    "factor",
    [CyclicFactor(5, "c"), InfiniteCyclicFactor("t"), FreeAbelianRank2Factor("u", "v"),
     TableFactor(S3, S3_GENS)],
    ids=["cyclic5", "z", "z2", "s3"],
)
def test_geodesic_moves_labels_match_steps(factor):
    # each step's label is the label of the move between consecutive
    # vertices of ``geodesic``
    step_label = {g: label for label, g in factor.moves()}
    pts = [x for level in range(5) for x in factor.elements_of_length(level)]
    for x in pts:
        for y in pts:
            path = factor.geodesic(x, y)
            expected = [step_label[factor.mul(factor.inv(a), b)] for a, b in zip(path, path[1:])]
            assert [label for label, _ in factor.geodesic_moves(x, y)] == expected


def _greedy_factor_moves(factor, x, y):
    """The greedy loop that ``greedy_moves`` replaced: from the current
    vertex, the first move whose end is one step closer to ``y``."""
    steps, cur = [], x
    remaining = factor.length(factor.mul(factor.inv(x), y))
    while remaining > 0:
        for label, g in factor.moves():
            nxt = factor.mul(cur, g)
            if factor.length(factor.mul(factor.inv(nxt), y)) == remaining - 1:
                break
        steps.append((label, g))
        cur, remaining = nxt, remaining - 1
    return steps


@pytest.mark.parametrize(
    "factor",
    [CyclicFactor(5, "c"), CyclicFactor(6, "c"), InfiniteCyclicFactor("t"),
     FreeAbelianRank2Factor("u", "v"), TableFactor(S3, S3_GENS), TableFactor(C6, {"g": 1})],
    ids=["cyclic5", "cyclic6", "z", "z2", "s3", "c6_table"],
)
def test_geodesic_moves_match_greedy_reference(factor):
    # the shared walker takes the same steps as the old loop over every pair
    # of the radius-4 ball
    pts = [x for level in range(5) for x in factor.elements_of_length(level)]
    for x in pts:
        for y in pts:
            assert factor.geodesic_moves(x, y) == _greedy_factor_moves(factor, x, y)


def _bfs_lengths_reference(f):
    """The BFS ``TableFactor`` ran for its word lengths before ``word_lengths``."""
    lengths = [None] * f.n
    lengths[f.identity] = 0
    frontier = [f.identity]
    while frontier:
        x = frontier.pop(0)
        for _, g in f.moves():
            y = f.table[x][g]
            if lengths[y] is None:
                lengths[y] = lengths[x] + 1
                frontier.append(y)
    return lengths


def _sym_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[p[i]] for i in range(n))] for q in perms] for p in perms], index


S4, S4_INDEX = _sym_table(4)


@pytest.mark.parametrize(
    "factor",
    [TableFactor(S3, S3_GENS), TableFactor(S3, {"r": S3_GENS["r"], "s": S3_GENS["s"]}),
     TableFactor(C6, {"g": 1}), TableFactor(C6, {"g": 2, "h": 3}),
     TableFactor(S4, {"s": S4_INDEX[(1, 0, 2, 3)], "r": S4_INDEX[(1, 2, 3, 0)]}),
     TableFactor(S4, {"x": S4_INDEX[(1, 0, 2, 3)], "y": S4_INDEX[(0, 2, 1, 3)],
                      "z": S4_INDEX[(0, 1, 3, 2)]})],
    ids=["s3", "s3_rs", "c6", "c6_two_gens", "s4", "s4_coxeter"],
)
def test_table_lengths_match_reference(factor):
    reference = _bfs_lengths_reference(factor)
    assert [factor.length(x) for x in range(factor.n)] == reference
    assert factor.diameter() == max(reference)
    for level in range(max(reference) + 1):
        assert factor.elements_of_length(level) == [
            x for x in range(factor.n) if reference[x] == level
        ]
