import random

from quiver_atlas.canonical import (
    brute_force_isomorphic,
    canonical_form,
    canonical_key,
    is_isomorphic,
)
from quiver_atlas.matrix import from_matrix

from test_matrix import A3_PATH, MARKOV, random_quiver

CYCLE3 = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
STAR_SOURCE = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]  # 1 <- 0 -> 2
STAR_SINK = [[0, -1, -1], [1, 0, 0], [1, 0, 0]]  # 1 -> 0 <- 2


def test_path_relabeling_same_key():
    m = from_matrix(A3_PATH)
    relabeled = m.permuted([2, 0, 1])  # path 2 -> 0 -> 1
    assert canonical_key(m).data == canonical_key(relabeled).data


def test_path_vs_cycle_differ():
    path, cycle = from_matrix(A3_PATH), from_matrix(CYCLE3)
    assert canonical_key(path).data != canonical_key(cycle).data
    assert not brute_force_isomorphic(path, cycle)


def test_source_vs_sink_star_differ():
    src, snk = from_matrix(STAR_SOURCE), from_matrix(STAR_SINK)
    assert canonical_key(src).data != canonical_key(snk).data
    assert not brute_force_isomorphic(src, snk)


def test_self_isomorphic():
    m = from_matrix(MARKOV)
    assert is_isomorphic(m, m)


def test_different_sizes_not_isomorphic():
    assert not is_isomorphic(
        from_matrix(A3_PATH), from_matrix([[0, 1], [-1, 0]])
    )


def test_markov_mutation_isomorphic():
    m = from_matrix(MARKOV)
    assert is_isomorphic(m, m.mutate(0))


def test_permutation_invariance_random():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 7)
        m = random_quiver(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(m).data == canonical_key(m.permuted(perm)).data


def test_oracle_agreement_random_pairs():
    rng = random.Random(31337)
    for _ in range(500):
        n = rng.randint(1, 6)
        m1 = random_quiver(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            m2 = m1.permuted(perm)
        else:
            m2 = random_quiver(rng, n)
        assert is_isomorphic(m1, m2) == brute_force_isomorphic(m1, m2)


def test_canonical_permutation_realizes_key():
    rng = random.Random(5)
    for _ in range(200):
        m = random_quiver(rng, rng.randint(1, 7))
        key, perm = canonical_form(m)
        assert m.permuted(perm).serialize().encode() == key.data


def test_determinism():
    m = from_matrix(A3_PATH)
    keys = {canonical_key(m).data for _ in range(5)}
    assert len(keys) == 1


def test_key_hex_is_lowercase():
    h = canonical_key(from_matrix(MARKOV)).hex()
    assert h == h.lower()


def test_key_bytes_are_compact_json_rows():
    # cache files are named by these bytes: changing them needs a schema bump
    assert canonical_key(from_matrix(A3_PATH)).data == b"[[0,-1,0],[1,0,-1],[0,1,0]]"
    big = 2**40
    m = from_matrix([[0, big, 0], [-big, 0, 1], [0, -1, 0]])
    assert canonical_key(m).data == (
        b"[[0,1,-1099511627776],[-1,0,0],[1099511627776,0,0]]"
    )
    assert from_matrix(A3_PATH).serialize() == "[[0,1,0],[-1,0,1],[0,-1,0]]"
