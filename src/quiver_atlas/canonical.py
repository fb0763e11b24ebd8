"""Canonical labeling of quivers up to vertex permutation.

The canonical form is computed by weighted-degree partition refinement
(vertices are colored by the multiset of signed incident weights and their
neighbors' colors, iterated to a fixed point) followed by backtracking over
the surviving candidate orderings.  Among all labelings compatible with the
refinement, the one whose row-major integer serialization is lexicographically
smallest is chosen, so the resulting key is deterministic across runs and
platforms, invariant under vertex relabeling, and equal keys imply isomorphic
quivers.

A refinement round only splits cells and keeps their order, since a
vertex's signature starts with its own color.  So a round that leaves the
number of cells unchanged has relabelled the colors by a strictly
increasing map, and the next round would return the same colors again:
refinement stops there, one round before the colors repeat.  Each vertex's
nonzero (neighbour, weight) pairs are listed once per canonical form rather
than read off full rows every round.

The backtracking prunes automorphic branches (McKay and Piperno, *Practical
graph isomorphism II*, 2014).  Automorphisms come from twin vertices
(identical rows) and from pairs of leaves with equal serializations; a child
in the orbit of an already explored sibling, under the automorphisms fixing
the node's individualised vertices, is skipped.  A skipped subtree is an
image of an explored one and children are visited in index order, so the
first smallest leaf, and with it the key and the returned permutation, is
the one the unpruned search finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .matrix import ExchangeMatrix, _rows_json


@dataclass(frozen=True)
class QuiverKey:
    """Stable identifier of a quiver up to vertex relabeling."""

    data: bytes
    n: int

    def hex(self) -> str:
        """Lowercase hex rendering, used in logs and cache files."""
        return self.data.hex()


def _neighbours(rows, n):
    """Per vertex, the (w, b_vw) of its nonzero entries, in index order."""
    return [[(w, x) for w, x in enumerate(rows[v]) if x] for v in range(n)]


def _refine(nbrs, colors, n):
    """Iterate neighborhood-signature coloring to a fixed point.

    ``nbrs`` is :func:`_neighbours` of the rows.  Colors are normalized to
    ranks of sorted signatures each round, so the result depends only on the
    quiver up to relabeling.  The first round that leaves the number of
    cells unchanged has reached the fixed point (see the module docstring).
    """
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([(colors[w], x) for w, x in nbrs[v]])))
            for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple([ranks[s] for s in sigs])
        if len(ranks) == cells:
            return new
        colors, cells = new, len(ranks)


def _twin_swaps(rows, n):
    """Transpositions of consecutive vertices with identical rows.

    Identical rows force a zero entry between the two vertices, so swapping
    them is an automorphism.  Chaining each twin to the next (not every twin
    to the first) leaves the swaps of the later twins fixing the earlier ones
    once those are individualised.
    """
    last = {}
    swaps = []
    for v, row in enumerate(rows):
        u = last.get(row)
        if u is not None:
            g = list(range(n))
            g[u], g[v] = v, u
            swaps.append(g)
        last[row] = v
    return swaps


def _canonical_flat(rows, n):
    """Return (flat row-major tuple, permutation old->new) of the canonical form."""
    best_flat = None
    best_perm = None
    best_inv = None
    autos = []  # automorphisms found so far, each as a list old -> image

    def visit_leaf(colors):
        nonlocal best_flat, best_perm, best_inv
        inv = [0] * n
        for v, c in enumerate(colors):
            inv[c] = v
        # n >= 2 here (n = 1 is a zero matrix): itemgetter returns tuples
        pick = itemgetter(*inv)
        flat = tuple(chain.from_iterable(map(pick, pick(rows))))
        if best_flat is None or flat < best_flat:
            best_flat, best_perm, best_inv = flat, colors, inv
        elif flat == best_flat:
            g = [0] * n
            for b, v in zip(best_inv, inv):
                g[b] = v
            autos.append(g)

    def search(colors, fixed):
        colors = _refine(nbrs, colors, n)
        # target cell: lowest color class that is not a singleton
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = -1
        for c, cnt in enumerate(counts):
            if cnt > 1:
                target = c
                break
        if target < 0:
            visit_leaf(colors)
            return
        if not fixed:
            autos.extend(_twin_swaps(rows, n))
        # orbits of the automorphisms that fix this node's individualised
        # vertices: such a map carries the subtree of one child onto that of
        # another, so a child in the orbit of an explored one is skipped
        orbit = list(range(n))

        def find(x):
            while orbit[x] != x:
                orbit[x] = x = orbit[orbit[x]]
            return x

        folded = 0
        explored = []
        for v in range(n):
            if colors[v] != target:
                continue
            for g in autos[folded:]:
                if all(g[f] == f for f in fixed):
                    for x, y in enumerate(g):
                        if x != y:
                            orbit[find(x)] = find(y)
            folded = len(autos)
            root = find(v)
            if any(find(u) == root for u in explored):
                continue
            explored.append(v)
            search(tuple(-1 if w == v else colors[w] for w in range(n)), fixed + (v,))

    if all(x == 0 for row in rows for x in row):
        # zero matrix: every labeling gives the same key; keep the identity
        return tuple(0 for _ in range(n * n)), tuple(range(n))
    nbrs = _neighbours(rows, n)
    search((0,) * n, ())
    return best_flat, tuple(best_perm)


def _flat_to_bytes(flat, n) -> bytes:
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    return _rows_json(rows).encode("ascii")


def canonical_form(m: ExchangeMatrix) -> tuple[QuiverKey, tuple[int, ...]]:
    """Canonical key and a permutation (old -> new) realizing it.

    ``m.permuted(perm).serialize().encode()`` equals ``key.data``.
    """
    flat, perm = _canonical_flat(m.rows, m.n)
    return QuiverKey(_flat_to_bytes(flat, m.n), m.n), perm


def canonical_key(m: ExchangeMatrix) -> QuiverKey:
    return canonical_form(m)[0]


def is_isomorphic(m1: ExchangeMatrix, m2: ExchangeMatrix) -> bool:
    """True iff some vertex permutation maps m1 onto m2."""
    if m1.n != m2.n:
        return False
    return canonical_key(m1).data == canonical_key(m2).data
