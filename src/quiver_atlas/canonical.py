"""Canonical labeling of quivers up to vertex permutation.

Each connected component is canonicalised on its own (component recursion:
Junttila and Kaski, *Conflict propagation and component recursion for
canonical labeling*, 2011).  The canonical matrix of a quiver is block
diagonal, one block per component, each block the component's canonical
matrix; blocks run in the order of their packed key bytes, and equal blocks
(isomorphic components) in the order of their smallest vertices.  The
permutation is the components' permutations, each shifted to its block, and
the canonical matrix of a disconnected quiver m is ``m.permuted(perm)``.  A
connected quiver is its one block; a one-vertex component is the block
(0,).  So the key is invariant under vertex relabeling, equal keys imply
isomorphic quivers, and k copies of a component cost k times one.

Relabelling and restriction share one rule: a component's rows, a search
leaf and the canonical matrix are each the full subquiver on a list of
vertices (every vertex in some order, for a relabelling), picked by
:func:`quiver_atlas.matrix._subquiver_rows`.

A connected component's form is computed by weighted-degree partition
refinement (vertices are colored by the multiset of signed incident weights
and their neighbors' colors, iterated to a fixed point) followed by
backtracking over the surviving candidate orderings.  Among all labelings
compatible with the refinement, the one whose row-major entries are
lexicographically smallest is chosen, so the resulting key is deterministic
across runs and platforms.  Leaves stay tuples of row tuples from the
search to the key: every row has length n, so tuples of rows order exactly
as their row-major entries do.

The key packs that matrix: n, then its strict upper triangle row-major (a
skew-symmetric matrix is zero on the diagonal and determined by it), each
number as one signed byte.  A number outside -127..127 is written as the
escape byte 0x80 followed by its value as a little-endian signed 64-bit
integer; entries stay within int64 and so does n.  n is packed apart from
the triangle, so a rank of 128 or more escapes in the header alone.  The
packing reads back unambiguously, so equal keys mean equal canonical
matrices, and a key of rank 10 takes 46 bytes instead of the 240 or so of
its JSON rows.  The same packer keys
:func:`quiver_atlas.explore.explore`'s per-level memo of child rows; it is
the only code that turns a matrix into bytes.

A refinement round only splits cells and keeps their order, since a
vertex's signature starts with its own color.  So a round that leaves the
number of cells unchanged has relabelled the colors by a strictly
increasing map, and the next round would return the same colors again:
refinement stops there, one round before the colors repeat.  A discrete
coloring (n cells) cannot split further, so refinement also stops at the
first round that makes it; almost every form of a mutation class ends
there.  Each vertex's nonzero (neighbour, weight) pairs are listed once per
canonical form rather than read off full rows every round.  The first round
from the all-zero coloring ranks each vertex by its sorted nonzero weights
alone, and is run once before the search.

In a signature, a neighbour of color c joined by weight x is the integer
c * 2**64 + 2**63 + x rather than the pair (c, x).  An exchange matrix keeps
|x| <= 2**63 - 1 (see :mod:`quiver_atlas.matrix`), so 2**63 + x lies in
[1, 2**64) and the code is strictly increasing in (c, x) for every integer
color, including the -1 of an individualised vertex.  Sorted codes thus
rank exactly as sorted pairs would, and keys and permutations do not depend
on the coding.

The backtracking prunes automorphic branches (McKay and Piperno, *Practical
graph isomorphism II*, 2014).  Automorphisms come from twin vertices
(identical rows) and from pairs of leaves with equal matrices; a child
in the orbit of an already explored sibling, under the automorphisms fixing
the node's individualised vertices, is skipped.  A skipped subtree is an
image of an explored one and children are visited in index order, so the
first smallest leaf, and with it the key and the returned permutation, is
the one the unpruned search finds.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .matrix import ExchangeMatrix, _subquiver_rows

_HALF = 1 << 63  # 2**63 + x lies in [1, 2**64) for every entry x


@dataclass(frozen=True)
class QuiverKey:
    """Stable identifier of a quiver up to vertex relabeling."""

    data: bytes
    n: int

    def hex(self) -> str:
        """Lowercase hex rendering, used in logs and cache files."""
        return self.data.hex()


def _neighbours(rows):
    """Per vertex, the (w, b_vw) of its nonzero entries, in index order."""
    return [list(compress(enumerate(row), row)) for row in rows]


def _ranks(sigs):
    """Each signature's rank among the distinct ones, as a tuple."""
    ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return tuple([ranks[s] for s in sigs])


def _refine(nbrs, colors, n):
    """Iterate neighborhood-signature coloring to a fixed point.

    ``nbrs`` is :func:`_neighbours` of the rows.  Colors are normalized to
    ranks of sorted signatures each round, so the result depends only on the
    quiver up to relabeling.  At least one round is run, so the result is
    normalized even when ``colors`` is discrete.  A neighbour w of color c
    joined by weight x is coded as the integer c * 2**64 + 2**63 + x: with
    |x| < 2**63 that is strictly increasing in (c, x), so the ranks are
    those of sorted (c, x) pairs.  Refinement stops at the first round that
    is discrete or leaves the number of cells unchanged (see the module
    docstring).
    """
    cells = len(set(colors))
    while True:
        code = [(c << 64) + _HALF for c in colors]
        new = _ranks(
            [
                (colors[v], tuple(sorted([code[w] + x for w, x in nbrs[v]])))
                for v in range(n)
            ]
        )
        count = max(new) + 1  # ranks are 0..count-1
        if count == cells or count == n:
            return new
        colors, cells = new, count


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


def _canonical_rows(rows):
    """Return (rows, permutation old->new) of the canonical form of the
    connected quiver with these rows.  One vertex is its own canonical
    form, with the permutation (0,).

    Leaves are tuples of row tuples (see the module docstring)."""
    n = len(rows)
    if n == 1:
        return rows, (0,)
    best_rows = None
    best_perm = None
    best_inv = None
    autos = []  # automorphisms found so far, each as a list old -> image

    def visit_leaf(colors):
        nonlocal best_rows, best_perm, best_inv
        inv = [0] * n
        for v, c in enumerate(colors):
            inv[c] = v
        leaf = _subquiver_rows(rows, inv)
        if best_rows is None or leaf < best_rows:
            best_rows, best_perm, best_inv = leaf, colors, inv
        elif leaf == best_rows:
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

    nbrs = _neighbours(rows)
    # the first round from the all-zero coloring, where a signature is just
    # the vertex's sorted nonzero weights
    search(_ranks([tuple(sorted(filter(None, row))) for row in rows]), ())
    return best_rows, tuple(best_perm)


def _packed_number(x: int) -> bytes:
    if -128 < x < 128:
        return x.to_bytes(1, "little", signed=True)
    return b"\x80" + x.to_bytes(8, "little", signed=True)


def _pack(rows) -> bytes:
    """Key bytes of a skew-symmetric matrix given by its rows: n, then the
    strict upper triangle row-major (see the module docstring)."""
    numbers = []
    for i, row in enumerate(rows):
        numbers += row[i + 1 :]
    try:
        data = array("b", numbers).tobytes()
    except OverflowError:
        data = b"\x80"  # some entry needs the escape
    if b"\x80" in data:  # -128 packs to the escape byte
        data = b"".join(map(_packed_number, numbers))
    return _packed_number(len(rows)) + data


def _canonical_form(
    m: ExchangeMatrix, components
) -> tuple[QuiverKey, tuple[int, ...]]:
    """:func:`canonical_form` of ``m``, block by block (see the module
    docstring), given its connected components as
    :meth:`ExchangeMatrix.components` lists them.  Mutation keeps the
    components, so :func:`quiver_atlas.explore.explore` passes its start's
    to every member."""
    n = m.n
    if len(components) == 1:
        rows, perm = _canonical_rows(m.rows)
        return QuiverKey(_pack(rows), n), perm
    blocks = []
    for comp in components:
        rows, perm = _canonical_rows(_subquiver_rows(m.rows, comp))
        blocks.append((_pack(rows), comp, perm))
    blocks.sort(key=itemgetter(0))  # stable: equal blocks keep vertex order
    perm = [0] * n
    offset = 0
    for _, comp, block_perm in blocks:
        for v, p in zip(comp, block_perm):
            perm[v] = offset + p
        offset += len(comp)
    return QuiverKey(_pack(m.permuted(perm).rows), n), tuple(perm)


def canonical_form(m: ExchangeMatrix) -> tuple[QuiverKey, tuple[int, ...]]:
    """Canonical key and a permutation (old -> new) realizing it.

    ``key.data`` is the packing (see the module docstring) of
    ``m.permuted(perm)``, the canonical matrix.
    """
    return _canonical_form(m, m.components())


def canonical_key(m: ExchangeMatrix) -> QuiverKey:
    return canonical_form(m)[0]


def is_isomorphic(m1: ExchangeMatrix, m2: ExchangeMatrix) -> bool:
    """True iff some vertex permutation maps m1 onto m2."""
    return canonical_key(m1) == canonical_key(m2)
