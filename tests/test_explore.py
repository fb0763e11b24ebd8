import importlib
import random
from collections import Counter, deque

import pytest

from quiver_atlas.canonical import canonical_key
from quiver_atlas.correspondence import (
    UNNAMED_FINITE_MUTATION,
    name_finite_mutation_type,
)
from quiver_atlas.explore import (
    CapZero,
    Classification,
    MutationClassReport,
    NoTreeRepresentative,
    class_fingerprint,
    explore,
    name_finite_type,
    replay,
    WitnessCheckFailed,
    _retally,
    _row_maxima,
    _tally,
    _through,
    report_to_dict,
)
from quiver_atlas.grassmannian import (
    GrassmannianSpec,
    expected_classification,
    initial_quiver,
)
from quiver_atlas.matrix import ExchangeMatrix, from_matrix

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


def test_name_finite_type_rejects_cycle_only():
    cycle = from_matrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    with pytest.raises(NoTreeRepresentative):
        name_finite_type([cycle])


def test_name_finite_type_shapes():
    path = from_matrix(A3_PATH)
    assert name_finite_type([path]) == "A3"
    d4 = from_matrix(
        [
            [0, 1, 1, 1],
            [-1, 0, 0, 0],
            [-1, 0, 0, 0],
            [-1, 0, 0, 0],
        ]
    )
    assert name_finite_type([d4]) == "D4"


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


def test_determinism_of_reports():
    rng = random.Random(3)
    for _ in range(20):
        m = random_quiver(rng, rng.randint(1, 5), lo=-2, hi=2)
        assert explore(m, cap=2000) == explore(m, cap=2000)


# --- dense reference ------------------------------------------------------
#
# The explorer updates its heavy-edge test, largest weight and probe scores
# from the entries a mutation changes.  The reference below recomputes all
# of them from the full matrix after every mutation, with its own dense
# mutation and component search, and must give the same reports.


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


def _dense_heavy(rows):
    n = len(rows)
    heavy = [
        i for i in range(n) for j in range(i + 1, n) if abs(rows[i][j]) >= 3
    ]
    if not heavy:
        return False
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
    return any(size_of[i] >= 3 for i in heavy)


def _dense_probe(rows):
    n = len(rows)
    if n < 3:
        return None, 0
    beam = [(rows, ())]
    seen = {rows}
    for _ in range(8 * n):
        scored = []
        for m, seq in beam:
            ranked = sorted(
                (-max(abs(x) for x in m[v]), v) for v in range(n)
            )
            for _, k in ranked[:16]:
                c = _dense_mutate(m, k)
                if _dense_heavy(c):
                    return seq + (k,), len(seen)
                if c in seen:
                    continue
                seen.add(c)
                ss = sum(x * x for row in c for x in row)
                scored.append(((_dense_max_weight(c), ss), c, seq + (k,)))
        if not scored:
            return None, len(seen)
        scored.sort(key=lambda t: t[0], reverse=True)
        beam = [(c, seq) for _, c, seq in scored[:4]]
    return None, len(seen)


def _dense_explore(start, cap):
    """(report, how it ended) by full scans after every mutation."""

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
    witness, probed = _dense_probe(rows)
    if witness is not None:
        m = rows
        for k in witness:
            m = _dense_mutate(m, k)
            max_w = max(max_w, _dense_max_weight(m))
        return infinite(max_w, witness, probed), "probe"
    seen = {canonical_key(start).hex(): start}
    queue = deque([(rows, ())])
    while queue:
        m, seq = queue.popleft()
        for k in range(n):
            if seq and k == seq[-1]:
                continue
            child = _dense_mutate(m, k)
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
        try:
            name = name_finite_type(seen.values())
        except NoTreeRepresentative:
            name = None
        kind = Classification.FINITE_TYPE
    else:
        name, kind = None, Classification.FINITE_MUTATION_TYPE
    report = MutationClassReport(
        kind, len(seen), max_w, None, name, len(seen), keys,
        class_fingerprint(keys),
    )
    return report, kind.value


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


def _assert_same_as_dense(start, cap):
    expected, ending = _dense_explore(start, cap)
    got = explore(start, cap=cap)
    assert report_to_dict(got) == report_to_dict(expected)
    assert got.member_keys == expected.member_keys
    return ending


@pytest.mark.parametrize("chunk", range(4))
def test_explore_matches_dense_reference_random(chunk):
    rng = random.Random(1000 + chunk)
    endings = set()
    for _ in range(80):
        start = _mixed_quiver(rng)
        for cap in (1, 2000):
            endings.add(_assert_same_as_dense(start, cap))
    # every way explore can end is exercised
    assert endings >= {"start", "probe", "cap", "finite", "finite-mutation"}


def _hidden_triangle(a=2, b=2, c=2):
    """Eight isolated arrows of weights 3..10 (heavy, but in rank-2
    components) and an acyclic triangle 17 -a-> 16 -b-> 18, 17 -c-> 18.
    The probe only mutates the 16 vertices of heaviest rows, so it never
    touches the triangle; mutating its middle vertex 16 gives an arrow of
    weight c + a*b, which only the BFS finds."""
    n = 19
    rows = [[0] * n for _ in range(n)]
    for v, w in enumerate(range(3, 11)):
        rows[2 * v][2 * v + 1], rows[2 * v + 1][2 * v] = w, -w
    for i, j, w in ((17, 16, a), (16, 18, b), (17, 18, c)):
        rows[i][j], rows[j][i] = w, -w
    return from_matrix(rows)


@pytest.mark.parametrize("weights", [(2, 2, 2), (1, 2, 1)])
def test_explore_matches_dense_reference_bfs_witness(weights):
    rng = random.Random(7)
    start = _hidden_triangle(*weights)
    assert _assert_same_as_dense(start, 1) == "bfs"
    report = explore(start, cap=1)
    assert report.infinite_witness == (16,)
    assert report.max_weight_seen == 10
    for _ in range(3):
        perm = list(range(start.n))
        rng.shuffle(perm)
        assert _assert_same_as_dense(start.permuted(perm), 2000) == "bfs"


def test_probe_tallies_follow_mutation():
    # the probe's incremental scores equal a full recount after every step
    rng = random.Random(21)
    for _ in range(100):
        m = random_quiver(rng, rng.randint(3, 10), lo=-2, hi=2)
        n = m.n
        _, sum_sq, counts = _tally(m.rows)
        row_max = [max(abs(x) for x in row) for row in m.rows]
        for _ in range(10):
            k = rng.randrange(n)
            child = m.mutate(k)
            into, out = _through(m.rows[k])
            changed = [
                (m.rows[i][j], child.rows[i][j]) for i in into for j in out
            ]
            w, sum_sq, counts = _retally(sum_sq, counts, changed)
            row_max = _row_maxima(child.rows, row_max, into + out)
            m, rows = child, child.rows
            assert w == max(abs(x) for row in rows for x in row)
            assert sum_sq == sum(x * x for row in rows for x in row)
            assert counts == dict(
                Counter(
                    abs(rows[i][j]) for i in range(n) for j in range(i + 1, n)
                )
            )
            assert row_max == [max(abs(x) for x in row) for row in rows]


def test_witness_checked_by_full_scan(monkeypatch):
    # the package's ``explore`` function shadows the submodule's name
    explore_module = importlib.import_module("quiver_atlas.explore")
    # a full scan that never sees a heavy component rejects every witness
    monkeypatch.setattr(explore_module, "_has_heavy_component", lambda m: False)
    for start in (initial_quiver(GrassmannianSpec(3, 7)), _hidden_triangle()):
        with pytest.raises(WitnessCheckFailed):
            explore(start)


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
