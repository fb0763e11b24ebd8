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

Finite type is checked by counting clusters, not quivers: a breadth-first
search over seeds with principal coefficients, each cluster named by its
set of c-vectors (Fomin-Zelevinsky, *Cluster algebras IV*, 2007), with its
own mutation of plain lists and no canonical labelling.  A quiver is of
finite type iff it has finitely many clusters.

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

from quiver_atlas.explore import Classification, explore
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


def _mutated_columns(cols, k, b_k):
    """The columns of a block of rows of the extended matrix [B; C] after
    mutation at k, given b_k, row k of B.

    Column k changes sign.  Entry i of column j gains sgn(x_ik) *
    max(0, x_ik * b_kj): b_kj times the positive part of column k when
    b_kj > 0, |b_kj| times its negative part when b_kj < 0.  Row k of B
    also changes sign; the caller sets it.
    """
    col_k = cols[k]
    pos = [x if x > 0 else 0 for x in col_k]
    neg = [x if x < 0 else 0 for x in col_k]
    new = list(cols)
    new[k] = tuple([-x for x in col_k])
    for j, s in enumerate(b_k):  # b_kk = 0 leaves column k as set
        if s > 0:
            new[j] = tuple([x + s * y for x, y in zip(cols[j], pos)])
        elif s < 0:
            new[j] = tuple([x - s * y for x, y in zip(cols[j], neg)])
    return new


def clusters_by_c_vectors(rows, limit):
    """The clusters of the cluster algebra with principal coefficients at
    the seed with exchange matrix ``rows``, each as the frozenset of its
    seed's c-vectors, or None once there are more than ``limit``.

    A breadth-first search over seeds, mutating [B; C] from C = I.  The
    C-matrix of a seed fixes the seed up to a permutation of its columns
    (Nakanishi and Zelevinsky, *On tropical dualities in cluster algebras*,
    2012), so the frozensets count the clusters with no isomorphism test,
    and B is mutated only for a new cluster.  Mutating twice at one vertex
    returns to the seed, so a seed is not mutated at the vertex it was
    reached by.
    """
    n = len(rows)
    b = tuple(zip(*rows))  # columns
    c = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    seen = {frozenset(c)}
    queue = deque([(b, c, None)])
    while queue:
        b, c, last = queue.popleft()
        for k in range(n):
            if k == last:
                continue
            b_k = [col[k] for col in b]
            child_c = tuple(_mutated_columns(c, k, b_k))
            cluster = frozenset(child_c)
            if cluster in seen:
                continue
            if len(seen) == limit:
                return None
            seen.add(cluster)
            child_b = _mutated_columns(b, k, b_k)
            for j, s in enumerate(b_k):
                if s:
                    child_b[j] = child_b[j][:k] + (-s,) + child_b[j][k + 1 :]
            queue.append((tuple(child_b), child_c, k))
    return seen


def _dynkin_cluster_count(r):
    """The most clusters of a simply-laced Dynkin type of rank r: Cat(r+1)
    for A_r, (3r-2)/r C(2r-2, r-1) for D_r, 833, 4160 and 25080 for E6..E8
    (Fomin and Zelevinsky, *Cluster algebras II*, 2003)."""
    counts = [comb(2 * r + 2, r + 1) // (r + 2)]
    if r >= 4:
        counts.append((3 * r - 2) * comb(2 * r - 2, r - 1) // r)
    counts += {6: [833], 7: [4160], 8: [25080]}.get(r, [])
    return max(counts)


def finite_type_cluster_bound(n):
    """The most clusters of a finite-type quiver of rank n.  A finite-type
    quiver is a disjoint union of Dynkin quivers whose cluster counts
    multiply, so this maximises over the ranks of the parts."""
    best = [1]
    for total in range(1, n + 1):
        best.append(
            max(
                _dynkin_cluster_count(r) * best[total - r]
                for r in range(1, total + 1)
            )
        )
    return best[n]


def test_finite_type_cluster_bound():
    # rank 4 is D4 (50 > 42 of A4), rank 5 D5 (182 > 132 of A5)
    assert [finite_type_cluster_bound(n) for n in range(1, 9)] == [
        2, 5, 14, 50, 182, 833, 4160, 25080,
    ]


@pytest.mark.parametrize(
    "cell,clusters,roots",
    [
        ((2, 2), 2, 1),
        ((2, 3), 5, 3),
        ((2, 4), 14, 6),
        ((2, 5), 42, 10),
        ((2, 6), 132, 15),
        ((2, 7), 429, 21),
        ((2, 8), 1430, 28),
        ((2, 9), 4862, 36),
        ((3, 3), 50, 12),
        ((3, 4), 833, 36),
        ((3, 5), 25080, 120),
    ],
    ids=["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "E6", "E8"],
)
def test_c_vector_oracle_counts_clusters(cell, clusters, roots):
    # A_n has Cat(n+1) clusters and n(n+1)/2 positive roots; Gr(3,6),
    # Gr(3,7) and Gr(3,8) are D4, E6 and E8 (Scott 2006).  Every c-vector
    # is sign-coherent, and up to sign they are the positive roots.
    seen = clusters_by_c_vectors(initial_quiver(GrassmannianSpec(*cell)).rows, clusters)
    assert seen is not None and len(seen) == clusters
    vectors = set().union(*seen)
    assert all(min(v) >= 0 or max(v) <= 0 for v in vectors)
    assert len({v if max(v) > 0 else tuple(-x for x in v) for v in vectors}) == roots


def test_c_vector_oracle_agrees_with_explore_on_finite_type():
    # finite type holds iff there are finitely many clusters, so a search
    # that passes the bound of its rank proves the quiver is not of finite
    # type; one that ends within it, that it is
    rng = random.Random(30)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i][j] = rng.randint(-2, 2)
                    rows[j][i] = -rows[i][j]
        finite = clusters_by_c_vectors(rows, finite_type_cluster_bound(n)) is not None
        verdict = explore(from_matrix(rows)).classification
        assert verdict is not Classification.INCONCLUSIVE
        assert finite == (verdict is Classification.FINITE_TYPE), rows
        outcomes.add((n, verdict))
    # each of the three verdicts at each of the ranks 3..5
    decided = set(Classification) - {Classification.INCONCLUSIVE}
    assert outcomes >= {(n, c) for n in (3, 4, 5) for c in decided}
