import importlib
import math
import random
from collections import Counter, deque
from contextlib import contextmanager
from unittest import mock

import pytest

from quiver_atlas.canonical import canonical_form, canonical_key
from quiver_atlas.correspondence import (
    UNNAMED_FINITE_MUTATION,
    name_finite_mutation_type,
)
from quiver_atlas.explore import (
    DEFAULT_CAP,
    CapZero,
    Classification,
    MutationClassReport,
    class_fingerprint,
    explore,
    replay,
    WitnessCheckFailed,
    _dynkin_anchors,
    _has_heavy_component,
    _witness_probe,
    report_to_dict,
)
from quiver_atlas.grassmannian import (
    GrassmannianSpec,
    expected_classification,
    expected_type_name,
    initial_quiver,
)
from quiver_atlas.matrix import ExchangeMatrix, from_matrix

from test_canonical import A2, CYCLE3, copies, relabel
from test_matrix import A3_PATH, MARKOV, random_quiver


def test_single_vertex():
    rep = explore(from_matrix([[0]]))
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == 1
    assert rep.type_name == "A1"


def test_rank2_weight1():
    rep = explore(from_matrix([[0, 1], [-1, 0]]))
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == 1
    assert rep.type_name == "A2"


def test_rank2_heavy_is_finite_mutation():
    # the weight criterion is false at rank 2: class completes with size 1
    rep = explore(from_matrix([[0, 5], [-5, 0]]))
    assert rep.classification is Classification.FINITE_MUTATION_TYPE
    assert rep.class_size == 1
    assert rep.max_weight_seen == 5


def test_a3_class():
    rep = explore(from_matrix(A3_PATH))
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == 4  # pinned by the n!-oracle BFS
    assert rep.type_name == "A3"


def test_markov_class():
    rep = explore(from_matrix(MARKOV))
    assert rep.classification is Classification.FINITE_MUTATION_TYPE
    assert rep.class_size == 1
    assert rep.max_weight_seen == 2
    assert name_finite_mutation_type(rep) == UNNAMED_FINITE_MUTATION


def test_immediately_heavy():
    m = from_matrix([[0, 3, 0], [-3, 0, 1], [0, -1, 0]])
    rep = explore(m)
    assert rep.classification is Classification.INFINITE_MUTATION_TYPE
    assert rep.infinite_witness == ()


def test_infinite_witness_replayable():
    start = initial_quiver(GrassmannianSpec(3, 7))
    rep = explore(start)
    assert rep.classification is Classification.INFINITE_MUTATION_TYPE
    assert rep.infinite_witness is not None
    assert replay(start, rep.infinite_witness).max_weight() >= 3
    assert rep.class_size is None


def test_cap_zero():
    with pytest.raises(CapZero):
        explore(from_matrix(A3_PATH), cap=0)


def test_cap_hit_is_inconclusive():
    rep = explore(from_matrix(A3_PATH), cap=1)
    assert rep.classification is Classification.INCONCLUSIVE
    assert rep.class_size is None
    assert rep.infinite_witness is None


def test_replay_identities():
    m = from_matrix(A3_PATH)
    assert replay(m, []) == m
    assert replay(m, [1, 1]) == m


def test_classification_isomorphism_invariant():
    rng = random.Random(11)
    start = initial_quiver(GrassmannianSpec(3, 3))
    base = explore(start)
    for _ in range(3):
        perm = list(range(start.n))
        rng.shuffle(perm)
        rep = explore(start.permuted(perm))
        assert rep.classification is base.classification
        assert rep.class_size == base.class_size
        assert rep.type_name == base.type_name
        assert rep.member_keys == base.member_keys


def test_classification_mutation_invariant():
    start = initial_quiver(GrassmannianSpec(3, 3))
    base = explore(start)
    for k in range(start.n):
        rep = explore(start.mutate(k))
        assert rep.classification is base.classification
        assert rep.class_size == base.class_size
        assert rep.type_name == base.type_name


def test_disconnected_all_finite():
    # A2 + A2: finite overall, but no connected tree spans the quiver
    m = from_matrix(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    )
    rep = explore(m)
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == 1


def test_disconnected_heavy_rank2_component():
    # weight-5 edge isolated in a 2-vertex component: finite mutation type
    m = from_matrix(
        [
            [0, 5, 0, 0],
            [-5, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
    )
    rep = explore(m)
    assert rep.classification is Classification.FINITE_MUTATION_TYPE
    assert rep.max_weight_seen == 5


def test_disconnected_heavy_large_component():
    m = from_matrix(
        [
            [0, 3, 0, 0],
            [-3, 0, 1, 0],
            [0, -1, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    rep = explore(m)
    assert rep.classification is Classification.INFINITE_MUTATION_TYPE


def _scrambled_tree(rng, arms):
    """A random orientation and labelling of the tree of paths of the given
    lengths glued at one vertex."""
    n = 1 + sum(arms)
    edges, v = [], 0
    for length in arms:
        tail = 0
        for _ in range(length):
            v += 1
            edges.append((tail, v))
            tail = v
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        if rng.random() < 0.5:
            i, j = j, i
        rows[perm[i]][perm[j]], rows[perm[j]][perm[i]] = 1, -1
    return from_matrix(rows)


DYNKIN_ARMS = {
    **{f"A{n}": (n - 1,) for n in range(1, 11)},
    **{f"D{n}": (1, 1, n - 3) for n in range(4, 10)},
    **{f"E{n}": (1, 2, n - 4) for n in range(6, 9)},
}


@pytest.mark.parametrize("name", DYNKIN_ARMS)
def test_dynkin_orientations_named(name):
    start = _scrambled_tree(random.Random(name), DYNKIN_ARMS[name])
    assert _tree_shape_name(start) == name
    rep = explore(start)
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.type_name == name


@pytest.mark.parametrize(
    "rows",
    [
        [[0] * 5 for _ in range(5)],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    ],
    ids=["zero", "A2+A1"],
)
def test_disconnected_finite_type_unnamed(rows):
    start = from_matrix(rows)
    rep = explore(start)
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.type_name is None
    assert _tree_shape_name(start) is None


@pytest.mark.parametrize("k", range(1, 7))
def test_disjoint_oriented_triangles_class_size(k):
    # an oriented 3-cycle lies in the 4-member class of A3, and each
    # component mutates on its own, so the class of k disjoint copies is the
    # multisets of k of those 4 quivers: C(k + 3, 3) of them
    start = relabel(random.Random(k), copies(CYCLE3, k))
    rep = explore(start)
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == math.comb(k + 3, 3)


def test_disjoint_arrows_class_of_one():
    # reversing an arrow gives an isomorphic quiver: 30 x A2 is its class
    start = relabel(random.Random(30), copies(A2, 30))
    with counting_canonical_forms() as calls:
        rep = explore(start)
    assert rep.classification is Classification.FINITE_TYPE
    assert rep.class_size == 1
    assert calls() <= 1 + start.n


def test_name_finite_mutation_type_by_anchor():
    # a start away from the Gr(4,8) grid quiver still names its class
    rng = random.Random(5)
    anchor = initial_quiver(GrassmannianSpec(4, 4))
    m = anchor
    for _ in range(2 * m.n):
        m = m.mutate(rng.randrange(m.n))
    perm = list(range(m.n))
    rng.shuffle(perm)
    start = m.permuted(perm)
    assert canonical_key(start) != canonical_key(anchor)
    rep = explore(start)
    assert rep.classification is Classification.FINITE_MUTATION_TYPE
    assert name_finite_mutation_type(rep) == "E7(1,1)"


def test_report_fingerprint_matches_members():
    rep = explore(from_matrix(A3_PATH))
    assert rep.fingerprint == class_fingerprint(rep.member_keys)


# Fingerprints of the grid classes, as first computed.  A fingerprint hashes
# every member key, so these pin the keys of whole classes.
PINNED_FINGERPRINTS = {
    (3, 5): "5c59143da561fa89b977e86f79d73b8ab1e2eedda6b7f645a3a75a8f5920f840",
    (4, 4): "89efa472e8fa9983f3961cb80452e50e4f6631fb640db7120f6cf278679f9caa",
    (2, 10): "3cdc38485c38d1c27c9d8bb82e5dce05782327ef0ad2a6492dd13c72c9586812",
    (3, 6): "c32cb10574b5ad747524b34dbfb488717500f217028318320c83d286f68be2e3",
}


@pytest.mark.parametrize(
    "cell", list(PINNED_FINGERPRINTS), ids=["E8", "E7(1,1)", "A9", "E8(1,1)"]
)
def test_grid_class_fingerprints_pinned(grid12, cell):
    # grid12 is computed once per session for the acceptance tests, so the
    # 5739-member E8(1,1) class costs nothing extra here
    assert grid12[cell].cluster.fingerprint == PINNED_FINGERPRINTS[cell]


def test_determinism_of_reports():
    rng = random.Random(3)
    for _ in range(20):
        m = random_quiver(rng, rng.randint(1, 5), lo=-2, hi=2)
        assert explore(m, cap=2000) == explore(m, cap=2000)


# --- dense reference ------------------------------------------------------
#
# The explorer updates its heavy-edge test and largest weight from the
# entries a mutation changes, and probes full subquivers on balls of up to
# 12 vertices.  The reference below recomputes every score from the full
# matrix after every mutation, with its own dense mutation, ball search and
# component search, and must give the same reports.  It names a finite-type
# class by scanning its members for an A/D/E tree, where the explorer looks
# up Dynkin anchor keys.


def _dense_mutate(rows, k):
    n = len(rows)
    bk = rows[k]
    out = []
    for i in range(n):
        if i == k:
            out.append(tuple(-x for x in rows[i]))
            continue
        bik = rows[i][k]
        row = list(rows[i])
        row[k] = -bik
        for j in range(n):
            if bik > 0 and bk[j] > 0:
                row[j] += bik * bk[j]
            elif bik < 0 and bk[j] < 0:
                row[j] -= bik * bk[j]
        out.append(tuple(row))
    return tuple(out)


def _dense_max_weight(rows):
    return max((abs(x) for row in rows for x in row), default=0)


def _dense_component_sizes(rows):
    n = len(rows)
    size_of = {}
    for s in range(n):
        if s in size_of:
            continue
        comp, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for w in range(n):
                if rows[v][w] != 0 and w not in comp:
                    comp.add(w)
                    stack.append(w)
        for v in comp:
            size_of[v] = len(comp)
    return size_of


def _dense_heavy(rows):
    n = len(rows)
    heavy = [
        i for i in range(n) for j in range(i + 1, n) if abs(rows[i][j]) >= 3
    ]
    if not heavy:
        return False
    size_of = _dense_component_sizes(rows)
    return any(size_of[i] >= 3 for i in heavy)


def _dense_ball(rows, v):
    ball, queue = [v], deque([v])
    while queue:
        u = queue.popleft()
        for w in range(len(rows)):
            if rows[u][w] != 0 and w not in ball:
                if len(ball) == 12:
                    return ball
                ball.append(w)
                queue.append(w)
    return ball


def _dense_beam(rows):
    n = len(rows)
    beam = [(rows, ())]
    seen = {rows}
    for _ in range(8 * n):
        scored = []
        for m, seq in beam:
            for k in range(n):
                c = _dense_mutate(m, k)
                if _dense_heavy(c):
                    return seq + (k,)
                if c in seen:
                    continue
                seen.add(c)
                ss = sum(x * x for row in c for x in row)
                scored.append(((_dense_max_weight(c), ss), c, seq + (k,)))
        if not scored:
            return None
        scored.sort(key=lambda t: t[0], reverse=True)
        beam = [(c, seq) for _, c, seq in scored[:4]]
    return None


def _dense_probe(rows):
    size_of = _dense_component_sizes(rows)
    probed = []
    for v in range(len(rows)):
        if size_of[v] < 3:
            continue
        ball = _dense_ball(rows, v)
        sub = tuple(tuple(rows[i][j] for j in ball) for i in ball)
        if set(ball) in probed or sub in probed:
            continue
        probed += [set(ball), sub]
        witness = _dense_beam(sub)
        if witness is not None:
            return tuple(ball[k] for k in witness)
    return None


def _tree_shape_name(m):
    """A/D/E label of a weight-1 tree quiver, or None if not such a tree:
    the reference's namer, independent of the explorer's anchor keys."""
    n = m.n
    if m.max_weight() > 1:
        return None
    adj = [[] for _ in range(n)]
    edges = 0
    for i in range(n):
        for j in range(i + 1, n):
            if m.rows[i][j] != 0:
                adj[i].append(j)
                adj[j].append(i)
                edges += 1
    if edges != n - 1 or not m.is_connected():
        return None
    degrees = [len(a) for a in adj]
    if any(d > 3 for d in degrees):
        return None
    branch_nodes = [v for v in range(n) if degrees[v] == 3]
    if not branch_nodes:
        return f"A{n}"
    if len(branch_nodes) > 1:
        return None
    c = branch_nodes[0]
    lengths = []
    for start in adj[c]:
        prev, cur, length = c, start, 1
        while degrees[cur] == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            length += 1
        lengths.append(length)
    lengths.sort()
    if lengths[0] == 1 and lengths[1] == 1:
        return f"D{n}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(tuple(lengths))


def _dense_explore(start, cap, probe=True, mutate=_dense_mutate):
    """(report, how it ended) by full scans after every mutation.

    The closure mutates with ``mutate`` and canonicalises every child it
    generates: it keeps no memo of child rows.
    """

    def infinite(max_w, witness, explored):
        return MutationClassReport(
            Classification.INFINITE_MUTATION_TYPE, None, max_w, witness, None,
            explored,
        )

    rows = start.rows
    n = len(rows)
    max_w = _dense_max_weight(rows)
    if _dense_heavy(rows):
        return infinite(max_w, (), 1), "start"
    witness = _dense_probe(rows) if probe else None
    if witness is not None:
        m = rows
        for k in witness:
            m = _dense_mutate(m, k)
            max_w = max(max_w, _dense_max_weight(m))
        return infinite(max_w, witness, 1), "probe"
    seen = {canonical_key(start).hex(): start}
    queue = deque([(rows, ())])
    while queue:
        m, seq = queue.popleft()
        for k in range(n):
            if seq and k == seq[-1]:
                continue
            child = mutate(m, k)
            max_w = max(max_w, _dense_max_weight(child))
            if _dense_heavy(child):
                return infinite(max_w, seq + (k,), len(seen)), "bfs"
            key = canonical_key(ExchangeMatrix(child)).hex()
            if key not in seen:
                if len(seen) >= cap:
                    report = MutationClassReport(
                        Classification.INCONCLUSIVE, None, max_w, None, None,
                        len(seen),
                    )
                    return report, "cap"
                seen[key] = ExchangeMatrix(child)
                queue.append((child, seq + (k,)))
    keys = tuple(sorted(seen))
    if max_w <= 1:
        name = next(filter(None, map(_tree_shape_name, seen.values())), None)
        kind = Classification.FINITE_TYPE
    else:
        name, kind = None, Classification.FINITE_MUTATION_TYPE
    report = MutationClassReport(
        kind, len(seen), max_w, None, name, len(seen), keys,
        class_fingerprint(keys),
    )
    return report, kind.value


# --- the child-rows memo and the edge-once closure --------------------------
#
# explore reuses the canonical form of child rows already met on the same
# BFS level, and skips the children its back-edge bits mark as isomorphic to
# a member already seen.  The reference below is the dense one with the
# library's mutation: it shares only canonical_key and mutate with explore
# and canonicalises every child, so any child wrongly skipped shows as a
# report change.


def _library_mutate(rows, k):
    return ExchangeMatrix(rows).mutate(k).rows


@contextmanager
def counting_canonical_forms():
    """Count explore's canonical forms, each a call of the private entry
    point that takes the components; yields a reader of the count."""
    explore_module = importlib.import_module("quiver_atlas.explore")
    form_of = explore_module._canonical_form
    calls = 0

    def counted(m, components):
        nonlocal calls
        calls += 1
        return form_of(m, components)

    with mock.patch.object(explore_module, "_canonical_form", counted):
        yield lambda: calls


def _assert_same_as_unmemoised(start, cap):
    expected, ending = _dense_explore(start, cap, mutate=_library_mutate)
    got = explore(start, cap=cap)
    assert report_to_dict(got) == report_to_dict(expected)
    assert got.member_keys == expected.member_keys
    return ending


def _random_tree_quiver(rng, n):
    """A random oriented tree on n vertices: of finite type, with a class
    larger than a cap of 50 from rank 6 on."""
    rows = [[0] * n for _ in range(n)]
    for v in range(1, n):
        u, w = rng.randrange(v), rng.choice((1, -1))
        rows[u][v], rows[v][u] = w, -w
    return from_matrix(rows)


def _wide_component_start(rng, x):
    """A random oriented tree on 3-6 vertices plus a disjoint 2-vertex
    component of weight x, randomly relabelled.  Only such starts put
    entries outside -127..127 into memo keys: a heavier entry inside a
    component of >= 3 vertices ends explore first."""
    t = rng.randint(3, 6)
    rows = [list(r) + [0, 0] for r in _random_tree_quiver(rng, t).rows]
    rows += [[0] * t + [0, x], [0] * t + [-x, 0]]
    perm = list(range(t + 2))
    rng.shuffle(perm)
    return from_matrix(rows).permuted(perm)


def test_explore_matches_unmemoised_reference_random():
    rng = random.Random(1200)
    starts = []
    for _ in range(40):
        n = rng.randint(3, 7)
        if rng.random() < 0.5:
            starts.append(_random_tree_quiver(rng, n))
        else:
            starts.append(random_quiver(rng, n, *rng.choice([(-1, 1), (-2, 2)])))
    for x in (127, 128, -128, 2**40, 2**63 - 1) * 3:
        starts.append(_wide_component_start(rng, x))
    endings = set()
    for start in starts:
        for cap in (1, 50, 2000):
            endings.add(_assert_same_as_unmemoised(start, cap))
    assert endings >= {"probe", "cap", "finite", "finite-mutation"}


SMALL_GRID_CELLS = [
    (p, q)
    for p in range(2, 11)
    for q in range(2, 11)
    if (p - 1) * (q - 1) <= 9
]


@pytest.mark.parametrize("p,q", SMALL_GRID_CELLS)
def test_explore_matches_unmemoised_reference_grid(p, q):
    start = initial_quiver(GrassmannianSpec(p, q))
    children = 0

    def counted_mutate(rows, k):
        nonlocal children
        children += 1
        return _library_mutate(rows, k)

    expected, _ = _dense_explore(start, DEFAULT_CAP, mutate=counted_mutate)
    _dynkin_anchors(start.n)  # cached: name lookups make no calls below
    with counting_canonical_forms() as calls:
        got = explore(start)
    assert report_to_dict(got) == report_to_dict(expected)
    assert got.member_keys == expected.member_keys
    assert calls() <= 1 + children  # the start, then at most one per child
    if (p, q) == (3, 5):
        # commuting mutations make repeated children on E8's levels
        assert calls() < children


@pytest.mark.parametrize(
    "p,q",
    [
        (p, q)
        for p, q in SMALL_GRID_CELLS
        if expected_classification(GrassmannianSpec(p, q))
        is not Classification.INFINITE_MUTATION_TYPE
        and expected_type_name(GrassmannianSpec(p, q)) not in ("A1", "A3", "D4")
    ],
)
def test_each_exchange_graph_edge_canonicalised_about_once(p, q):
    # the exchange graph of a class of size s on n vertices has s * n / 2
    # edges up to isomorphism; mutating at every vertex of every member
    # canonicalises most of them from both ends.  A1, A3 and D4 are left
    # out: most of their members have automorphisms, and an edge whose two
    # ends reach different vertices of an orbit is met from both ends (A1's
    # one edge is a loop, canonicalised once on top of the start).
    start = initial_quiver(GrassmannianSpec(p, q))
    _dynkin_anchors(start.n)  # cached: name lookups make no calls below
    with counting_canonical_forms() as calls:
        report = explore(start)
    assert report.class_size is not None
    # every member's key comes from a counted call
    assert report.class_size <= calls() <= 1 + report.class_size * start.n / 2


def _mixed_quiver(rng):
    """n = 3..8, weights in [-4, 4]: sparse light quivers, heavy ones,
    disconnected ones and ones with a heavy rank-2 component."""
    n = rng.randint(3, 8)
    kind = rng.choice(["light", "heavy", "split", "rank2"])
    lo, hi = (-4, 4) if kind == "heavy" else (-2, 2)
    cut = rng.randint(1, n - 1) if kind == "split" else n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i < cut) == (j < cut) and rng.random() < 0.5:
                rows[i][j] = rng.randint(lo, hi)
                rows[j][i] = -rows[i][j]
    if kind == "rank2":
        for v in (0, 1):
            for j in range(n):
                rows[v][j] = rows[j][v] = 0
        rows[0][1] = rng.choice([-4, -3, 3, 4])
        rows[1][0] = -rows[0][1]
    return from_matrix(rows)


def _assert_same_as_dense(start, cap, probe=True):
    expected, ending = _dense_explore(start, cap, probe)
    got = explore(start, cap=cap)
    assert report_to_dict(got) == report_to_dict(expected)
    assert got.member_keys == expected.member_keys
    return ending


def _dense_reference_endings(chunk, probe):
    rng = random.Random(1000 + chunk)
    endings = set()
    for _ in range(80):
        start = _mixed_quiver(rng)
        for cap in (1, 2000):
            endings.add(_assert_same_as_dense(start, cap, probe))
    return endings


@pytest.mark.parametrize("chunk", range(4))
def test_explore_matches_dense_reference_random(chunk):
    endings = _dense_reference_endings(chunk, probe=True)
    # every way explore can end is exercised
    assert endings >= {"start", "probe", "cap", "finite", "finite-mutation"}


@pytest.mark.parametrize("chunk", range(4))
def test_explore_matches_dense_reference_random_probe_missing(chunk, monkeypatch):
    # the same starts with a probe that misses: the closure's test on the
    # rows of k's neighbours decides every infinite-type class
    _probe_misses(monkeypatch)
    endings = _dense_reference_endings(chunk, probe=False)
    assert endings >= {"start", "bfs", "cap", "finite", "finite-mutation"}


def test_heavy_component_matches_dense_reference():
    # the predicate reads rows: an entry b_ij >= 3 counts when row i or
    # row j has a second nonzero entry
    pair, pendant, isolated = [[0, 3], [-3, 0]], [0, -1], [0, 0]
    cases = [
        ([[0]], False),
        ([[0] * 3] * 3, False),
        (pair, False),  # a heavy rank-2 component
        ([row + [0] for row in pair] + [isolated + [0]], False),
        # a pendant vertex 2 on vertex 1: b_01 = 3 sits in the degree-1 row
        # 0, and b_10 = 3 in the degree-2 row 1
        ([[0, 3, 0], [-3, 0, 1], pendant + [0]], True),
        ([[0, -3, 0], [3, 0, 1], pendant + [0]], True),
    ]
    for rows, heavy in cases:
        m = from_matrix(rows)
        assert _has_heavy_component(m) is heavy
        assert _dense_heavy(m.rows) is heavy
    rng = random.Random(1300)
    kinds = set()
    for _ in range(320):
        start = _mixed_quiver(rng)
        for m in [start] + [start.mutate(k) for k in range(start.n)]:
            heavy = _has_heavy_component(m)
            assert heavy == _dense_heavy(m.rows)
            degree = [m.n - row.count(0) for row in m.rows]
            leaf = any(
                row[j] >= 3 and degree[i] == 1 and degree[j] >= 2
                for i, row in enumerate(m.rows)
                for j in range(m.n)
            )
            kinds.add((heavy, m.max_weight() >= 3, leaf))
    # including heavy edges that lie only in rank-2 components, and heavy
    # pairs whose entry >= 3 stands in a row with no other nonzero entry
    assert kinds == {
        (False, False, False),
        (False, True, False),
        (True, True, False),
        (True, True, True),
    }


def test_probe_matches_dense_reference_on_misses():
    # a miss leaves no trace in the report, so compare the probe's witness
    # itself, on starts with no heavy component; an A13 path has only two
    # distinct balls of 12 vertices
    rng = random.Random(1100)
    path = initial_quiver(GrassmannianSpec(2, 14))
    perm = list(range(path.n))
    rng.shuffle(perm)
    starts = [path, path.permuted(perm)]
    starts += [_mixed_quiver(rng) for _ in range(60)]
    for start in starts:
        if _dense_heavy(start.rows):
            continue
        got = _witness_probe(start)
        assert got == _dense_probe(start.rows)


def test_probe_skips_repeated_subquivers():
    # the balls of a grid path that lie away from its ends have equal
    # subquiver rows, so A20 and A30 each beam-search two balls: every other
    # ball repeats the vertex set of one already probed or is a memo hit;
    # A30's two balls are A20's, so after A20 it runs no search at all
    beam_search = importlib.import_module("quiver_atlas.explore")._beam_search
    a20, a30 = (initial_quiver(GrassmannianSpec(2, q)) for q in (21, 31))
    searches = []
    for runs in ([a20], [a30], [a20, a30]):
        beam_search.cache_clear()
        for start in runs:
            assert _witness_probe(start) is None
            searches.append(beam_search.cache_info().misses)
    assert searches == [2, 2, 2, 2]


def _hidden_triangle(a=2, b=2, c=2):
    """Eight isolated arrows of weights 3..10 (heavy, but in rank-2
    components) and an acyclic triangle 17 -a-> 16 -b-> 18, 17 -c-> 18;
    mutating its middle vertex 16 gives an arrow of weight c + a*b."""
    n = 19
    rows = [[0] * n for _ in range(n)]
    for v, w in enumerate(range(3, 11)):
        rows[2 * v][2 * v + 1], rows[2 * v + 1][2 * v] = w, -w
    for i, j, w in ((17, 16, a), (16, 18, b), (17, 18, c)):
        rows[i][j], rows[j][i] = w, -w
    return from_matrix(rows)


def _probe_misses(monkeypatch):
    # the package's ``explore`` function shadows the submodule's name
    explore_module = importlib.import_module("quiver_atlas.explore")
    monkeypatch.setattr(explore_module, "_witness_probe", lambda start: None)


@pytest.mark.parametrize("weights", [(2, 2, 2), (1, 2, 1)])
def test_explore_matches_dense_reference_bfs_witness(weights, monkeypatch):
    rng = random.Random(7)
    start = _hidden_triangle(*weights)
    # the probe skips the rank-2 components and finds the triangle itself
    assert _assert_same_as_dense(start, 1) == "probe"
    report = explore(start, cap=1)
    assert report.infinite_witness == (16,)
    assert report.max_weight_seen == 10
    # with a probe that misses, the BFS finds the same witness
    _probe_misses(monkeypatch)
    assert _assert_same_as_dense(start, 1, probe=False) == "bfs"
    assert explore(start, cap=1).infinite_witness == (16,)
    for _ in range(3):
        perm = list(range(start.n))
        rng.shuffle(perm)
        assert _assert_same_as_dense(start.permuted(perm), 2000, False) == "bfs"


def test_witness_checked_by_full_scan(monkeypatch):
    explore_module = importlib.import_module("quiver_atlas.explore")
    full_scan = explore_module._has_heavy_component
    start = initial_quiver(GrassmannianSpec(3, 8))
    assert explore(start).infinite_witness is not None  # warms the memo
    # a full scan that sees no heavy component in a quiver of more than 12
    # vertices passes the probe's subquivers but rejects the replayed witness
    monkeypatch.setattr(
        explore_module,
        "_has_heavy_component",
        lambda m: m.n <= 12 and full_scan(m),
    )
    # a memo hit gives the witness without a search and is still replayed
    hits = explore_module._beam_search.cache_info().hits
    with pytest.raises(WitnessCheckFailed):
        explore(start)
    assert explore_module._beam_search.cache_info().hits > hits
    explore_module._beam_search.cache_clear()
    with pytest.raises(WitnessCheckFailed):
        explore(start)
    # the closure asks the same scan of its heavy child: a scan that sees a
    # heavy component only the first time it is asked about given rows
    # accepts the closure's child mu_16 and rejects the equal quiver that
    # the replay rebuilds from the start
    asked = set()

    def first_ask_only(m):
        first = m.rows not in asked
        asked.add(m.rows)
        return first and full_scan(m)

    monkeypatch.setattr(explore_module, "_has_heavy_component", first_ask_only)
    _probe_misses(monkeypatch)
    with pytest.raises(WitnessCheckFailed):
        explore(_hidden_triangle())
    assert _hidden_triangle().mutate(16).rows in asked


RED_CELLS = [
    (p, q)
    for p in range(2, 13)
    for q in range(p, 13)
    if expected_classification(GrassmannianSpec(p, q))
    is Classification.INFINITE_MUTATION_TYPE
]


def test_red_cells_are_fifty():
    assert len(RED_CELLS) == 50


@pytest.mark.parametrize("p,q", RED_CELLS)
def test_explore_matches_dense_reference_red_cell(p, q):
    assert _assert_same_as_dense(initial_quiver(GrassmannianSpec(p, q)), 1) in (
        "probe",
        "bfs",
    )


def _assert_dense_witness(start):
    report = explore(start, cap=1)
    assert report.classification is Classification.INFINITE_MUTATION_TYPE
    rows = start.rows
    for k in report.infinite_witness:
        rows = _dense_mutate(rows, k)
    assert _dense_heavy(rows)


MID_RANK_RED_CELLS = [
    (p, q) for p, q in RED_CELLS if 20 <= (p - 1) * (q - 1) <= 40
]


@pytest.mark.parametrize("chunk", range(4))
def test_probe_finds_witness_on_relabelled_red_cells(chunk):
    # the witness does not hang on the grid labelling
    rng = random.Random(600 + chunk)
    for _ in range(20):
        start = initial_quiver(GrassmannianSpec(*rng.choice(MID_RANK_RED_CELLS)))
        perm = list(range(start.n))
        rng.shuffle(perm)
        _assert_dense_witness(start.permuted(perm))


@pytest.mark.parametrize(
    "p,q,relabelled",
    [(8, 12, True), (3, 20, False), (16, 16, False), (20, 20, False)],
)
def test_probe_finds_witness_on_large_cells(p, q, relabelled):
    start = initial_quiver(GrassmannianSpec(p, q))
    if relabelled:
        perm = list(range(start.n))
        random.Random(612).shuffle(perm)
        start = start.permuted(perm)
    _assert_dense_witness(start)


def _memo_independence_starts():
    rng = random.Random(2700)
    starts = []
    for p, q in RED_CELLS:
        start = initial_quiver(GrassmannianSpec(p, q))
        starts += [start, start.permuted(canonical_form(start)[1])]
    for _ in range(10):
        start = initial_quiver(GrassmannianSpec(*rng.choice(MID_RANK_RED_CELLS)))
        starts.append(relabel(rng, start))
    # at cap 1 the probe misses on these, and the closure stops at the cap
    # unless the class has one member (A1 at (2,2), A2 at (2,3) and (3,2))
    starts += [
        initial_quiver(GrassmannianSpec(p, q))
        for p in range(2, 14)
        for q in range(2, 14)
        if (p - 1) * (q - 1) <= 12
        and expected_classification(GrassmannianSpec(p, q))
        is not Classification.INFINITE_MUTATION_TYPE
    ]
    return starts


def test_report_does_not_depend_on_probe_memo():
    # the probe's beam-search memo lives for the process: explore each start
    # with it cleared, then warm in one order and in the other
    beam_search = importlib.import_module("quiver_atlas.explore")._beam_search
    starts = _memo_independence_starts()

    def outcome(start):
        report = explore(start, cap=1)
        return report_to_dict(report), report.member_keys

    cold = []
    for start in starts:
        beam_search.cache_clear()
        cold.append(outcome(start))
    beam_search.cache_clear()
    forward = [outcome(start) for start in starts]
    backward = [outcome(start) for start in reversed(starts)]
    assert forward == cold
    assert backward[::-1] == cold
    classes = Counter(out["classification"] for out, _ in cold)
    assert classes == {
        "infinite-mutation": 2 * len(RED_CELLS) + 10,
        "inconclusive": 28,
        "finite": 3,
    }
