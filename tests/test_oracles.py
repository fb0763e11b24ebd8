"""Independent oracles for the frozen mutation-class sizes.

Two deduplication schemes that share no code with the canonical module:
a full n!-minimization BFS for small rank, and a networkx DiGraphMatcher
BFS for the larger classes.  E8(1,1) (5739 members, ~6 min with the
networkx oracle) was cross-checked once the same way and is pinned in
GOLDEN_CLASS_SIZES; it is not re-run here.

The A_n classes are counted without quivers at all: the quivers
mutation-equivalent to A_n correspond one-to-one to the triangulations of an
(n+3)-gon up to rotation (Caldero-Chapoton-Schiffler; Torkildsen, Counting
cluster-tilted algebras of type A_n, 2008).

The D_n classes, n >= 5, are counted by a closed formula (Buan-Torkildsen,
The number of elements in the mutation class of a quiver of type D_n, 2009):
d(n) = sum over d | n of phi(n/d) C(2d, d) / (2n).  D4 has 6 members.

``brute_force_isomorphic`` searches all n! permutations, as the isomorphism
oracle of the canonical-form tests.
"""

import random
from collections import defaultdict, deque
from itertools import permutations
from math import comb, gcd

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher, numerical_edge_match

from quiver_atlas.explore import explore
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.matrix import from_matrix

from conftest import GOLDEN_CLASS_SIZES
from test_matrix import A3_PATH


def brute_force_isomorphic(m1, m2):
    """Reference oracle: search all n! permutations for an isomorphism."""
    if m1.n != m2.n:
        return False
    n = m1.n
    a, b = m1.rows, m2.rows
    for perm in permutations(range(n)):
        if all(
            a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n)
        ):
            return True
    return False


def factorial_min_key(m):
    n = m.n
    rows = m.rows
    return min(
        tuple(rows[inv[i]][inv[j]] for i in range(n) for j in range(n))
        for inv in permutations(range(n))
    )


def bfs_class_size_factorial(start):
    seen = {factorial_min_key(start)}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for k in range(m.n):
            c = m.mutate(k)
            key = factorial_min_key(c)
            if key not in seen:
                seen.add(key)
                queue.append(c)
    return len(seen)


def _to_graph(m):
    g = nx.DiGraph()
    g.add_nodes_from(range(m.n))
    for i, j, w in m.arrow_pairs():
        g.add_edge(i, j, w=w)
    return g


def _invariant(m):
    sigs = []
    for v in range(m.n):
        out = sorted(x for x in m.rows[v] if x > 0)
        inn = sorted(-x for x in m.rows[v] if x < 0)
        sigs.append((tuple(out), tuple(inn)))
    return tuple(sorted(sigs))


def bfs_class_size_networkx(start):
    edge_match = numerical_edge_match("w", 1)
    buckets = defaultdict(list)

    def add_if_new(m):
        g = _to_graph(m)
        bucket = buckets[_invariant(m)]
        for h in bucket:
            if DiGraphMatcher(g, h, edge_match=edge_match).is_isomorphic():
                return False
        bucket.append(g)
        return True

    add_if_new(start)
    count = 1
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for k in range(m.n):
            c = m.mutate(k)
            if add_if_new(c):
                count += 1
                queue.append(c)
    return count


def _word(diagonals, m):
    """A triangulation of the m-gon as a cyclic word: at each vertex, the
    sorted clockwise offsets of the other ends of its diagonals.  Rotating
    the polygon rotates the word; its least rotation names the class."""
    word = [[] for _ in range(m)]
    for i, j in diagonals:
        word[i].append((j - i) % m)
        word[j].append((i - j) % m)
    word = tuple(tuple(sorted(offsets)) for offsets in word)
    return min(word[r:] + word[:r] for r in range(m))


def triangulations_up_to_rotation(max_sides):
    """{m: triangulations of the m-gon up to rotation} for 3 <= m <= max_sides.

    Every triangulation of an m-gon, m >= 4, has an ear; cutting it off
    leaves a triangulation of the (m-1)-gon.  So the m-gon's classes are
    those of the (m-1)-gon's with an ear glued onto each side, and gluing
    commutes with rotation.
    """
    words = {((), (), ())}  # the triangle, with no diagonals
    counts = {3: 1}
    for m in range(4, max_sides + 1):
        glued = set()
        for word in words:
            diagonals = [
                (v, v + d) for v, offsets in enumerate(word) for d in offsets
                if v + d < m - 1
            ]
            for i in range(m - 1):
                # a new vertex i + 1 on side (i, i + 1) of the (m-1)-gon,
                # whose side becomes the diagonal (i, i + 2) of the m-gon
                shifted = [(a + (a > i), b + (b > i)) for a, b in diagonals]
                glued.add(_word(shifted + [(i, (i + 2) % m)], m))
        words = glued
        counts[m] = len(words)
    return counts


def test_a_n_oracle_agrees(grid12):
    # (2, q) is A_{q-1}, whose polygon has q + 2 sides
    polygons = triangulations_up_to_rotation(14)
    for q in range(2, 13):
        name = f"A{q - 1}"
        assert polygons[q + 2] == GOLDEN_CLASS_SIZES[name], name
        assert grid12[(2, q)].cluster.class_size == GOLDEN_CLASS_SIZES[name]


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: from_matrix(A3_PATH), GOLDEN_CLASS_SIZES["A3"]),
        (lambda: initial_quiver(GrassmannianSpec(2, 5)), GOLDEN_CLASS_SIZES["A4"]),
        (lambda: initial_quiver(GrassmannianSpec(3, 3)), GOLDEN_CLASS_SIZES["D4"]),
        (lambda: initial_quiver(GrassmannianSpec(3, 4)), GOLDEN_CLASS_SIZES["E6"]),
    ],
    ids=["A3", "A4", "D4", "E6"],
)
def test_factorial_oracle_agrees(build, expected):
    start = build()
    assert bfs_class_size_factorial(start) == expected
    assert explore(start).class_size == expected


@pytest.mark.parametrize(
    "cell,name",
    [((3, 3), "D4"), ((3, 4), "E6"), ((4, 4), "E7(1,1)"), ((3, 5), "E8")],
)
def test_networkx_oracle_agrees(cell, name):
    start = initial_quiver(GrassmannianSpec(*cell))
    assert bfs_class_size_networkx(start) == GOLDEN_CLASS_SIZES[name]


def d_n_class_size(n):
    """Buan-Torkildsen's count of the mutation class of D_n, n >= 5."""
    phi = [sum(gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(n + 1)]
    total = sum(phi[n // d] * comb(2 * d, d) for d in range(1, n + 1) if n % d == 0)
    assert total % (2 * n) == 0
    return total // (2 * n)


def d_n_orientation(n, rng):
    """A randomly oriented, randomly labelled D_n tree: a path 0 - ... - n-2
    with a leaf n-1 joined to vertex 1."""
    edges = [(v, v + 1) for v in range(n - 2)] + [(1, n - 1)]
    labels = list(range(n))
    rng.shuffle(labels)
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        w = rng.choice((1, -1))
        a, b = labels[i], labels[j]
        rows[a][b], rows[b][a] = w, -w
    return from_matrix(rows)


def test_d_n_formula_agrees():
    for n in range(5, 10):
        assert d_n_class_size(n) == GOLDEN_CLASS_SIZES[f"D{n}"], n


@pytest.mark.parametrize("n", range(4, 10))
def test_explore_d_n_agrees(n):
    report = explore(d_n_orientation(n, random.Random(n)))
    assert report.type_name == f"D{n}"
    assert report.class_size == GOLDEN_CLASS_SIZES[f"D{n}"]


@pytest.mark.parametrize("n", range(5, 8))
def test_networkx_oracle_agrees_on_d_n(n):
    start = d_n_orientation(n, random.Random(100 + n))
    assert bfs_class_size_networkx(start) == GOLDEN_CLASS_SIZES[f"D{n}"]
