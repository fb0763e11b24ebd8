import hashlib
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_atlas import canonical
from quiver_atlas.canonical import (
    _neighbours,
    _pack,
    _refine,
    canonical_form,
    canonical_key,
    is_isomorphic,
)
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.matrix import from_matrix

from test_matrix import A3_PATH, MARKOV, random_quiver
from test_oracles import brute_force_isomorphic

CYCLE3 = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
STAR_SOURCE = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]  # 1 <- 0 -> 2
STAR_SINK = [[0, -1, -1], [1, 0, 0], [1, 0, 0]]  # 1 -> 0 <- 2


def unpack_key(data):
    """The skew-symmetric rows a key's bytes stand for: n, then the strict
    upper triangle row-major, each number a signed byte or the escape byte
    0x80 followed by a little-endian int64.  Fails on trailing bytes."""
    pos = 0

    def number():
        nonlocal pos
        if data[pos] == 0x80:
            pos += 9
            return int.from_bytes(data[pos - 8 : pos], "little", signed=True)
        pos += 1
        return int.from_bytes(data[pos - 1 : pos], "little", signed=True)

    n = number()
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = number()
            rows[j][i] = -rows[i][j]
    assert pos == len(data), "trailing bytes"
    return tuple(map(tuple, rows))


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
        assert unpack_key(key.data) == m.permuted(perm).rows


# magnitudes around the key's escape boundaries, up to the int64 bound
WIDE = [127, 128, 129, 255, 256, 2**31, 2**40, 2**63 - 1]


def wide_quiver(rng, n, magnitudes):
    """A random quiver whose entries are the given magnitudes, either sign."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.choice(magnitudes) * rng.choice([1, -1])
            rows[i][j], rows[j][i] = x, -x
    return from_matrix(rows)


def test_key_decodes_to_canonical_matrix_with_wide_entries():
    # entries around the escape boundaries and far beyond a byte; a
    # relabelling keeps the key
    rng = random.Random(6)
    for _ in range(200):
        m = wide_quiver(rng, rng.randint(2, 7), [0, 1, 2] + WIDE)
        key, perm = canonical_form(m)
        assert unpack_key(key.data) == m.permuted(perm).rows
        relabel = rng.sample(range(m.n), m.n)
        assert canonical_key(m.permuted(relabel)).data == key.data


def test_determinism():
    m = from_matrix(A3_PATH)
    keys = {canonical_key(m).data for _ in range(5)}
    assert len(keys) == 1


def test_key_hex_is_lowercase():
    h = canonical_key(from_matrix(MARKOV)).hex()
    assert h == h.lower()


def test_key_bytes_are_packed_upper_triangle():
    # cache files are named by these bytes: changing them needs a schema bump
    # canonical A3 path: [[0,-1,0],[1,0,-1],[0,1,0]]
    assert canonical_key(from_matrix(A3_PATH)).data == b"\x03\xff\x00\xff"
    big = 2**40
    m = from_matrix([[0, big, 0], [-big, 0, 1], [0, -1, 0]])
    # canonical: [[0,1,-big],[-1,0,0],[big,0,0]]; -big takes the escape
    assert canonical_key(m).data == (
        b"\x03\x01\x80" + bytes.fromhex("0000000000ffffff") + b"\x00"
    )
    assert from_matrix(A3_PATH).serialize() == "[[0,1,0],[-1,0,1],[0,-1,0]]"


@pytest.mark.parametrize(
    "x,packed",
    [
        (127, b"\x7f"),
        (128, b"\x80\x80\x00\x00\x00\x00\x00\x00\x00"),
        (-127, b"\x81"),
        (-128, b"\x80\x80\xff\xff\xff\xff\xff\xff\xff"),
        (-129, b"\x80\x7f\xff\xff\xff\xff\xff\xff\xff"),
    ],
)
def test_escape_boundaries(x, packed):
    # one signed byte for -127..127; 0x80 is the escape, so -128 escapes too
    assert _pack([[0, x], [-x, 0]]) == b"\x02" + packed
    m = from_matrix([[0, x, 1], [-x, 0, 0], [-1, 0, 0]])
    key, perm = canonical_form(m)
    assert unpack_key(key.data) == m.permuted(perm).rows


def test_zero_matrix_keys_carry_n():
    # n = 256 needs the escape in the header; every entry is one zero byte
    one = canonical_key(from_matrix([[0]]))
    wide = canonical_key(from_matrix([[0] * 256 for _ in range(256)]))
    assert one.data == b"\x01"
    assert wide.data == (
        b"\x80" + (256).to_bytes(8, "little") + bytes(256 * 255 // 2)
    )
    assert one.data != wide.data
    assert unpack_key(wide.data) == ((0,) * 256,) * 256


def test_pack_wide_rank_escapes_only_the_numbers_that_need_it():
    # n = 130 escapes in the header; -128 escapes too, and every other
    # entry of the triangle stays one byte
    n = 130
    rows = [[0] * n for _ in range(n)]
    for i, j, x in ((0, 1, -128), (5, 129, 3), (128, 129, 127)):
        rows[i][j], rows[j][i] = x, -x
    data = _pack(rows)
    assert data[:9] == b"\x80" + n.to_bytes(8, "little")
    assert len(data) == 9 + 9 + n * (n - 1) // 2 - 1
    assert unpack_key(data) == tuple(map(tuple, rows))


def test_rank_132_grid_key_pinned():
    # the key of the (12,13) grid start, rank 132 >= 128, as packed when n
    # still went through the escape together with the triangle
    key = canonical_key(initial_quiver(GrassmannianSpec(12, 13)))
    assert len(key.data) == 8655
    assert hashlib.sha256(key.data).hexdigest() == (
        "0ab0b666d98e9402d9ae0e50affdc30d50f9f510bc95cf982b0d60469f787e5b"
    )


@pytest.mark.parametrize(
    "rows,key,perm",
    [
        ([[0]], b"\x01", (0,)),
        ([[0, 1], [-1, 0]], b"\x02\xff", (1, 0)),
        ([[0, -1], [1, 0]], b"\x02\xff", (0, 1)),
    ],
    ids=["zero-1x1", "A2", "A2-reversed"],
)
def test_smallest_forms_pinned(rows, key, perm):
    # n = 1 is a one-vertex component; n = 2 is the smallest leaf
    got_key, got_perm = canonical_form(from_matrix(rows))
    assert got_key.data == key
    assert got_perm == perm


# --- symmetric families: refinement leaves big cells, backtracking decides ---

A2 = [[0, 1], [-1, 0]]


def star(k, w=1):
    """K1,k: vertex 0 joined to each of 1..k by weight w."""
    rows = [[0] * (k + 1) for _ in range(k + 1)]
    for v in range(1, k + 1):
        rows[0][v], rows[v][0] = w, -w
    return from_matrix(rows)


def copies(block, k):
    """Disjoint union of k copies of a quiver."""
    b = len(block)
    rows = [[0] * (b * k) for _ in range(b * k)]
    for c in range(k):
        for i in range(b):
            for j in range(b):
                rows[c * b + i][c * b + j] = block[i][j]
    return from_matrix(rows)


def cycle(n):
    """Oriented n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        rows[i][j], rows[j][i] = 1, -1
    return from_matrix(rows)


def complete_bipartite(m, w=1):
    """K_{m,m}, every edge from the first m vertices to the last m."""
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m, 2 * m):
            rows[i][j], rows[j][i] = w, -w
    return from_matrix(rows)


def relabel(rng, m):
    perm = list(range(m.n))
    rng.shuffle(perm)
    return m.permuted(perm)


def full_scan_refine(rows, colors, n):
    """Iterate neighborhood-signature coloring to a fixed point.

    Colors are normalized to ranks of sorted signatures each round, so the
    result depends only on the quiver up to relabeling.
    """
    while True:
        sigs = []
        for v in range(n):
            rv = rows[v]
            nb = sorted(
                (colors[w], rv[w]) for w in range(n) if rv[w] != 0
            )
            sigs.append((colors[v], tuple(nb)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def test_refine_matches_full_scan_refine():
    # the oracle scans full rows and stops only when a round changes nothing
    rng = random.Random(77)

    def check(m):
        rows, n = m.rows, m.n
        nbrs = _neighbours(rows)
        zero = (0,) * n
        fixed = full_scan_refine(rows, zero, n)
        assert _refine(nbrs, zero, n) == fixed
        v = rng.randrange(n)
        for colors in (zero, fixed):
            colors = tuple(-1 if w == v else c for w, c in enumerate(colors))
            assert _refine(nbrs, colors, n) == full_scan_refine(rows, colors, n)
        # already discrete but carrying -1, as individualising a 2-cell
        # leaves it: the result is still normalized ranks
        discrete = tuple(rng.sample(range(-1, n - 1), n))
        assert _refine(nbrs, discrete, n) == full_scan_refine(rows, discrete, n)

    for _ in range(300):
        check(random_quiver(rng, rng.randint(1, 9), -3, 3))
    # entries up to the int64 bound, where a neighbour's code uses its
    # whole 64-bit stride
    for _ in range(100):
        check(wide_quiver(rng, rng.randint(2, 9), [0, 1, 2, 3] + WIDE))
    a3 = from_matrix(A3_PATH)
    assert _refine(_neighbours(a3.rows), (-1, 0, 1), 3) == (0, 1, 2)


def unpruned_flat(rows, n):
    """The backtracking search with no automorphism pruning.

    Every child of every node is explored, so it is factorial on symmetric
    quivers; the pruned search must return exactly its (flat, permutation).
    """
    best_flat = None
    best_perm = None

    def search(colors):
        colors = full_scan_refine(rows, colors, n)
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c, cnt in enumerate(counts) if cnt > 1), -1)
        if target < 0:
            nonlocal best_flat, best_perm
            inv = [0] * n
            for v, c in enumerate(colors):
                inv[c] = v
            flat = tuple(rows[inv[i]][inv[j]] for i in range(n) for j in range(n))
            if best_flat is None or flat < best_flat:
                best_flat, best_perm = flat, colors
            return
        for v in range(n):
            if colors[v] == target:
                search(tuple(-1 if w == v else colors[w] for w in range(n)))

    if all(x == 0 for row in rows for x in row):
        return tuple(0 for _ in range(n * n)), tuple(range(n))
    search((0,) * n)
    return best_flat, tuple(best_perm)


def as_rows(flat, n):
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def assert_same_as_unpruned(m):
    """canonical_form(m) is the unpruned search's form of m when m is
    connected, and else of each component, block by block."""
    key, perm = canonical_form(m)
    components = m.components()
    if len(components) == 1:
        flat, want_perm = unpruned_flat(m.rows, m.n)
        assert unpack_key(key.data) == as_rows(flat, m.n)
        assert perm == want_perm
        return
    rows = unpack_key(key.data)
    assert rows == m.permuted(perm).rows  # zero between blocks
    blocks = []
    for comp in components:
        size = len(comp)
        sub = [[m.rows[i][j] for j in comp] for i in comp]
        flat, want_perm = unpruned_flat(sub, size)
        # the component fills the diagonal block from its first new label
        offset = min(perm[v] for v in comp)
        assert tuple(perm[v] - offset for v in comp) == want_perm
        block = tuple(r[offset : offset + size] for r in rows[offset : offset + size])
        assert block == as_rows(flat, size)
        blocks.append((offset, _pack(block), comp[0]))
    # blocks run in the order of their key bytes, equal ones in vertex order
    order = [b[1:] for b in sorted(blocks)]
    assert order == sorted(order)


def test_same_output_as_unpruned_search_random():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 8)
        # narrow weights make twins and other automorphisms common
        lo, hi = rng.choice([(-1, 1), (0, 1), (-3, 3)])
        assert_same_as_unpruned(random_quiver(rng, n, lo, hi))


SMALL_SYMMETRIC = {
    **{f"K1,{m}": star(m) for m in range(1, 8)},
    "K1,5 weight -2": star(5, -2),
    **{f"{k}xC3": copies(CYCLE3, k) for k in range(1, 5)},
    **{f"{k}xA2": copies(A2, k) for k in range(1, 7)},
    **{f"C{n}": cycle(n) for n in range(3, 10)},
    "K3,3": complete_bipartite(3),
}


@pytest.mark.parametrize(
    "m", SMALL_SYMMETRIC.values(), ids=list(SMALL_SYMMETRIC)
)
def test_same_output_as_unpruned_search_symmetric(m):
    rng = random.Random(m.n)
    assert_same_as_unpruned(m)
    for _ in range(2):
        assert_same_as_unpruned(relabel(rng, m))


symmetric_quivers = st.one_of(
    st.builds(star, st.integers(1, 30), st.sampled_from([1, -1, 2])),
    st.builds(copies, st.just(CYCLE3), st.integers(1, 15)),
    st.builds(copies, st.just(A2), st.integers(1, 30)),
    st.builds(cycle, st.integers(3, 30)),
    st.builds(complete_bipartite, st.integers(1, 6), st.sampled_from([1, 2])),
)


@st.composite
def relabelled(draw, quivers=symmetric_quivers):
    m = draw(quivers)
    return m, m.permuted(draw(st.permutations(range(m.n))))


@contextmanager
def search_nodes_at_most(bound):
    """Fail as soon as the backtracking refines more than ``bound`` nodes.

    Counting nodes instead of seconds makes a factorial search fail at once
    rather than time out.
    """
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= bound, f"more than {bound} search nodes"
        return _refine(*args)

    with mock.patch.object(canonical, "_refine", counted):
        yield


@settings(max_examples=60, deadline=None)
@given(relabelled())
def test_symmetric_relabelling_gives_one_realised_key(pair):
    m, pm = pair
    with search_nodes_at_most(m.n**2):
        key, perm = canonical_form(pm)
    assert key == canonical_key(m)
    assert unpack_key(key.data) == pm.permuted(perm).rows


small_symmetric_quivers = st.one_of(
    st.builds(star, st.integers(1, 5), st.sampled_from([1, -1, 2])),
    st.builds(copies, st.just(CYCLE3), st.integers(1, 2)),
    st.builds(copies, st.just(A2), st.integers(1, 3)),
    st.builds(cycle, st.integers(3, 6)),
    st.builds(complete_bipartite, st.integers(1, 3), st.sampled_from([1, 2])),
)


@settings(max_examples=100, deadline=None)
@given(relabelled(small_symmetric_quivers), small_symmetric_quivers, st.data())
def test_symmetric_isomorphism_agrees_with_brute_force(pair, other, data):
    m, pm = pair
    # a mutation keeps the vertex count but mostly breaks the isomorphism
    mutated = pm.mutate(data.draw(st.integers(0, pm.n - 1)))
    for candidate in (pm, mutated, other):
        assert is_isomorphic(m, candidate) == brute_force_isomorphic(m, candidate)


@pytest.mark.parametrize(
    "m",
    [star(20), copies(CYCLE3, 10), copies(CYCLE3, 15), copies(A2, 30)],
    ids=["K1,20", "10xC3", "15xC3", "30xA2"],
)
def test_pruned_search_stays_polynomial(m):
    rng = random.Random(11)
    for _ in range(5):
        with search_nodes_at_most(m.n**2):
            canonical_form(relabel(rng, m))


# sha256 of the canonical forms of pinned_corpus(), as computed when
# disconnected quivers were first canonicalised component by component
# (cache schema 4); the keys of connected ones are pinned since before that
PINNED_DIGEST = "992c6d66dd8a9b39b6800729a6c6235b5847995d4e68270ddcd56f9611c9208b"
CONNECTED_DIGEST = "8798a27dfdeff7d12bc695cb0be562798e8a7806f10323d01626e9ebce15b8d9"


def pinned_corpus():
    """Seeded quivers whose canonical forms are pinned by digest: random
    ones, ones with entries far beyond a byte, and relabelled symmetric ones."""
    rng = random.Random(1717)
    for _ in range(300):
        yield random_quiver(rng, rng.randint(1, 9), -3, 3)
    for _ in range(50):
        magnitudes = [0, 1, 2, 127, 128, 2**40, 2**63 - 1]
        yield wide_quiver(rng, rng.randint(2, 7), magnitudes)
    symmetric = [star(6), star(7), star(8), copies(CYCLE3, 4), copies(CYCLE3, 5)]
    symmetric += [copies(A2, 6), copies(A2, 7)]
    for i in range(40):
        yield relabel(rng, symmetric[i % len(symmetric)])


def forms_digest(quivers):
    h = hashlib.sha256()
    for m in quivers:
        key, perm = canonical_form(m)
        h.update(repr((key.data, perm)).encode())
    return h.hexdigest()


def test_canonical_forms_digest_pinned():
    # keys name cache files and fingerprint classes: a change to refinement
    # or backtracking must leave every key and permutation as it is
    assert forms_digest(pinned_corpus()) == PINNED_DIGEST


def test_connected_canonical_forms_digest_pinned():
    # connected quivers kept their keys and permutations through schema 4
    connected = [m for m in pinned_corpus() if m.is_connected()]
    assert len(connected) == 363
    assert forms_digest(connected) == CONNECTED_DIGEST
