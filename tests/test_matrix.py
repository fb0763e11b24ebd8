import random

import pytest

from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.matrix import (
    INT64_MAX,
    ArithmeticOverflow,
    EmptyMatrix,
    ExchangeMatrix,
    InvalidPermutation,
    NotSkewSymmetric,
    ParseError,
    VertexOutOfRange,
    _subquiver_rows,
    deserialize,
    from_matrix,
)

A3_PATH = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def random_quiver(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(lo, hi)
            rows[i][j] = w
            rows[j][i] = -w
    return from_matrix(rows)


class TestConstruction:
    def test_smallest_nontrivial(self):
        m = from_matrix([[0, 1], [-1, 0]])
        assert m.n == 2
        assert m.rows == ((0, 1), (-1, 0))

    def test_not_skew_symmetric(self):
        with pytest.raises(NotSkewSymmetric):
            from_matrix([[0, 1], [0, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NotSkewSymmetric):
            from_matrix([[1, 0], [0, 0]])

    def test_non_square(self):
        with pytest.raises(NotSkewSymmetric):
            from_matrix([[0, 1, 0], [-1, 0, 1]])

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            from_matrix([])

    def test_a3_path(self):
        m = from_matrix(A3_PATH)
        assert m.n == 3
        assert m.max_weight() == 1


class TestMutation:
    def test_rank2_reverses_arrow(self):
        m = from_matrix([[0, 1], [-1, 0]])
        assert m.mutate(0).rows == ((0, -1), (1, 0))

    def test_a3_path_becomes_cycle(self):
        m = from_matrix(A3_PATH)
        assert m.mutate(1).rows == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_markov_weights_stay_two(self):
        m = from_matrix(MARKOV)
        mutated = m.mutate(0)
        assert mutated.rows == ((0, -2, 2), (2, 0, -2), (-2, 2, 0))
        assert mutated.max_weight() == 2

    def test_vertex_out_of_range(self):
        m = from_matrix(A3_PATH)
        with pytest.raises(VertexOutOfRange):
            m.mutate(3)
        with pytest.raises(VertexOutOfRange):
            m.mutate(-1)

    def test_value_semantics(self):
        m = from_matrix(A3_PATH)
        m.mutate(0)
        assert m.rows == tuple(tuple(r) for r in A3_PATH)

    def test_involution_and_invariants_random(self):
        rng = random.Random(20240814)
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = random_quiver(rng, n)
            k = rng.randrange(n)
            once = m.mutate(k)
            # mutation preserves skew-symmetry and zero diagonal
            for i in range(n):
                assert once.rows[i][i] == 0
                for j in range(n):
                    assert once.rows[i][j] == -once.rows[j][i]
            assert once.mutate(k) == m

    def test_equivariance_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = random_quiver(rng, n)
            k = rng.randrange(n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert m.mutate(k).permuted(perm) == m.permuted(perm).mutate(perm[k])

    def test_overflow_raises(self):
        big = 2**62
        m = from_matrix(
            [[0, big, 0], [-big, 0, big], [0, -big, 0]]
        )
        with pytest.raises(ArithmeticOverflow):
            m.mutate(1)


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 1], [1, 0], [0, 1, 2, 3], [0, 1, 5], [0, -1, 2],
        [1.0, 0.0, 2.0], (1.0, 0, 2), ("1", 0, 2), [None, 0, 1],
    ],
    ids=[
        "duplicate", "short", "long", "out-of-range", "negative",
        "floats", "one-float", "string", "none",
    ],
)
def test_permuted_rejects_non_permutation(perm):
    m = from_matrix(A3_PATH)
    with pytest.raises(InvalidPermutation) as err:
        m.permuted(perm)
    assert isinstance(err.value, ValueError)
    assert str(list(perm)) in str(err.value)
    with pytest.raises(InvalidPermutation):  # and as an iterator
        m.permuted(iter(perm))


def test_permuted_accepts_bools_as_from_rows_does():
    m = from_matrix(A3_PATH)
    assert m.permuted([True, False, 2]) == m.permuted([1, 0, 2])


def test_permuted_reads_an_iterator_once():
    m = from_matrix(A3_PATH)
    assert m.permuted(reversed(range(3))) == m.permuted([2, 1, 0])
    assert m.permuted([2, 1, 0]).rows == ((0, -1, 0), (1, 0, -1), (0, 1, 0))


@pytest.mark.parametrize("kind", ["one", "subset", "all"])
@pytest.mark.parametrize("n", range(1, 13))
def test_subquiver_rows_match_dense_reference(n, kind):
    # one vertex, a proper subset in random order, or every vertex in
    # random order (a relabelling, as permuted uses it; n = 1 included)
    rng = random.Random(f"{n}-{kind}")
    m = random_quiver(rng, n)
    size = {"one": 1, "subset": rng.randint(1, max(1, n - 1)), "all": n}[kind]
    vertices = rng.sample(range(n), size)
    want = tuple(tuple(m.rows[i][j] for j in vertices) for i in vertices)
    assert _subquiver_rows(m.rows, vertices) == want
    if kind == "all":
        perm = [0] * n
        for new, old in enumerate(vertices):
            perm[old] = new
        assert m.permuted(perm).rows == want


def dense_mutation(rows, k):
    """b'_ij entry by entry, from the Fomin-Zelevinsky formula."""
    n = len(rows)

    def entry(i, j):
        if k in (i, j):
            return -rows[i][j]
        bik = rows[i][k]
        sign = (bik > 0) - (bik < 0)
        return rows[i][j] + sign * max(0, bik * rows[k][j])

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


class TestSparseMutation:
    def test_matches_dense_formula(self):
        rng = random.Random(12)
        for _ in range(300):
            m = random_quiver(rng, rng.randint(1, 12), lo=-4, hi=4)
            for k in range(m.n):
                assert m.mutate(k).rows == dense_mutation(m.rows, k)

    def test_rows_away_from_k_are_shared(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 12)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        rows[i][j] = rng.randint(-3, 3)
                        rows[j][i] = -rows[i][j]
            m = from_matrix(rows)
            k = rng.randrange(n)
            child = m.mutate(k)
            for i in range(n):
                shared = child.rows[i] is m.rows[i]
                assert shared == (i != k and m.rows[i][k] == 0)

    def test_mutation_commutes_with_restriction(self):
        # for k in S, the S-block of m.mutate(k) is the full subquiver on S
        # mutated at k's position in S (S in any order)
        rng = random.Random(15)
        for _ in range(500):
            n = rng.randint(1, 10)
            m = random_quiver(rng, n, lo=-4, hi=4)
            s = rng.sample(range(n), rng.randint(1, n))
            pos = rng.randrange(len(s))

            def restricted(rows):
                return tuple(tuple(rows[i][j] for j in s) for i in s)

            sub = from_matrix(restricted(m.rows))
            assert restricted(m.mutate(s[pos]).rows) == sub.mutate(pos).rows

    def test_overflow_names_first_entry_in_row_major_order(self):
        rng = random.Random(14)
        big = [0, 1, -1, 2**31, -(2**31), 2**32 + 5, -(2**32) - 5]
        raised = 0
        for _ in range(300):
            n = rng.randint(3, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rng.choice(big)
                    rows[j][i] = -rows[i][j]
            m = from_matrix(rows)
            k = rng.randrange(m.n)
            dense = dense_mutation(m.rows, k)
            first = next(
                (
                    (i, j)
                    for i in range(m.n)
                    for j in range(m.n)
                    if not -(2**63) <= dense[i][j] <= 2**63 - 1
                ),
                None,
            )
            if first is None:
                assert m.mutate(k).rows == dense
                continue
            raised += 1
            with pytest.raises(ArithmeticOverflow) as err:
                m.mutate(k)
            assert str(err.value) == (
                f"mutation at {k} overflows entry ({first[0]},{first[1]})"
            )
        assert raised > 20


@pytest.mark.parametrize(
    "rows,error,message",
    [
        ([[0, 1], [-1]], NotSkewSymmetric, "row 1 has length 1, expected 2"),
        ([[0, 1], [-1, 2]], NotSkewSymmetric, "nonzero diagonal entry at (1,1)"),
        ([[0, 1], [0, 0]], NotSkewSymmetric, "b[0][1] = 1 but b[1][0] = 0"),
        (
            [[0, 0, 1], [0, 5, 0], [0, 0, 0]],
            NotSkewSymmetric,
            "b[0][2] = 1 but b[2][0] = 0",
        ),
        (
            [[0, 2**63], [-(2**63), 0]],
            ArithmeticOverflow,
            "entry (0,1) outside 64-bit range",
        ),
        (
            # in int64, but its mirror 2**63 is not
            [[0, -(2**63)], [2**63, 0]],
            ArithmeticOverflow,
            "entry (0,1) outside 64-bit range",
        ),
        # not rounded to the oriented A2
        ([[0, 1.7], [-1.2, 0]], ParseError, "non-integer entry at row 0, column 1"),
        (
            (row for row in [[0, 1.7], [-1.2, 0]]),
            ParseError,
            "non-integer entry at row 0, column 1",
        ),
        # not parsed into a weight-3 arrow
        ([["0", "3"], ["-3", "0"]], ParseError, "non-integer entry at row 0, column 0"),
        # rows that are not sequences, and inputs that are not sequences of rows
        ([1, 2], ParseError, "not a sequence of rows at row 0"),
        ([[0, 1], 5], ParseError, "not a sequence of rows at row 1"),
        (5, ParseError, "not a sequence of rows at row 0"),
        (None, ParseError, "not a sequence of rows at row 0"),
    ],
    ids=[
        "ragged",
        "diagonal",
        "skew",
        "first-fault",
        "range",
        "range-int64-min",
        "float",
        "float-generator",
        "string",
        "int-rows",
        "int-row",
        "int",
        "none",
    ],
)
def test_from_rows_errors_keep_class_and_message(rows, error, message):
    with pytest.raises(error) as err:
        from_matrix(rows)
    assert type(err.value) is error
    assert str(err.value) == message


GRID_12_12 = initial_quiver(GrassmannianSpec(12, 12))


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[0]], ((0,),)),
        ([[0, INT64_MAX], [-INT64_MAX, 0]], ((0, INT64_MAX), (-INT64_MAX, 0))),
        ([[0, -INT64_MAX], [INT64_MAX, 0]], ((0, -INT64_MAX), (INT64_MAX, 0))),
        (MARKOV, ((0, 2, -2), (-2, 0, 2), (2, -2, 0))),
        ([list(row) for row in GRID_12_12.rows], GRID_12_12.rows),
    ],
    ids=["rank-1", "int64-max", "int64-max-transposed", "weight-2", "grid-12-12"],
)
def test_from_rows_accepts_valid_input(rows, expected):
    m = ExchangeMatrix.from_rows(rows)
    assert type(m) is ExchangeMatrix
    assert m.rows == expected


def test_from_rows_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    m = from_matrix(np.array(MARKOV, dtype=np.int64))
    assert m == from_matrix(MARKOV)
    assert all(type(x) is int for row in m.rows for x in row)


class TestSerialization:
    def test_round_trip(self):
        m = from_matrix(A3_PATH)
        assert deserialize(m.serialize()) == m

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            m = random_quiver(rng, rng.randint(1, 6))
            assert deserialize(m.serialize()) == m

    def test_deserialize_rank2_weight2(self):
        m = deserialize("[[0,2],[-2,0]]")
        assert m.max_weight() == 2
        assert m.n == 2

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError, match="position"):
            deserialize("[[0,2],[-2,0]")

    def test_parse_error_non_integer(self):
        with pytest.raises(ParseError):
            deserialize("[[0,2.5],[-2.5,0]]")

    def test_parse_error_shape(self):
        with pytest.raises(ParseError):
            deserialize('"hello"')

    def test_dot_contains_edge(self):
        m = from_matrix([[0, 1], [-1, 0]])
        assert "0 -> 1;" in m.to_dot()

    def test_dot_labels_multiplicity(self):
        m = from_matrix([[0, 2], [-2, 0]])
        assert '0 -> 1 [label="2"];' in m.to_dot()


class TestQueries:
    def test_max_weight_a3(self):
        assert from_matrix(A3_PATH).max_weight() == 1

    def test_max_weight_markov(self):
        assert from_matrix(MARKOV).max_weight() == 2

    def test_max_weight_zero(self):
        assert from_matrix([[0] * 3 for _ in range(3)]).max_weight() == 0

    def test_max_weight_random(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(1, 10)
            m = random_quiver(rng, n, lo=-6, hi=6)
            dense = max(
                (abs(m.rows[i][j]) for i in range(n) for j in range(i + 1, n)),
                default=0,
            )
            assert m.max_weight() == dense

    def test_components(self):
        m = from_matrix(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        )
        assert m.components() == [[0, 1], [2, 3]]
        assert not m.is_connected()
        assert from_matrix(A3_PATH).is_connected()

    def test_components_match_dense_reference(self):
        # sparse random quivers, from one component to all singletons
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(1, 30)
            density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.3])
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        w = rng.choice([-2, -1, 1, 2])
                        rows[i][j], rows[j][i] = w, -w
            m = from_matrix(rows)
            assert m.components() == dense_components(m.rows)


def dense_components(rows):
    """Components by merging vertex labels across every nonzero entry until
    none changes, each sorted, in the order of their smallest vertices."""
    n = len(rows)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if rows[i][j] and label[i] != label[j]:
                    label[i] = label[j] = min(label[i], label[j])
                    changed = True
    groups = {}
    for v in range(n):
        groups.setdefault(label[v], []).append(v)
    return sorted(groups.values())
