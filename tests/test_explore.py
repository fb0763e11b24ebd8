import random

import pytest

from quiver_atlas.canonical import canonical_key
from quiver_atlas.correspondence import (
    UNNAMED_FINITE_MUTATION,
    name_finite_mutation_type,
)
from quiver_atlas.explore import (
    CapZero,
    Classification,
    NoTreeRepresentative,
    class_fingerprint,
    explore,
    name_finite_type,
    replay,
)
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.matrix import from_matrix

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
