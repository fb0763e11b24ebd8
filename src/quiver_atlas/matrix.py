"""Skew-symmetric integer exchange matrices and quiver mutation.

A quiver (finite directed graph, no loops, no 2-cycles) is encoded by its
exchange matrix B = (b_ij), where b_ij is the number of arrows i -> j minus
the number of arrows j -> i.  All arithmetic in this module is exact integer
arithmetic; entries are required to stay within signed 64-bit range so that
serialized matrices are portable.  Since b_ji = -b_ij, that means
|b_ij| <= 2**63 - 1: -2**63 is ruled out because its negation is not int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from operator import index, itemgetter, neg

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# The text encoding of serialized matrices: compact JSON, one array per row
# (json.dumps with these separators, with the encoder built once).
_rows_json = json.JSONEncoder(separators=(",", ":")).encode


class QuiverError(Exception):
    """Base class for all errors raised by this package."""


class EmptyMatrix(QuiverError):
    """Raised when a matrix with zero vertices is constructed."""


class NotSkewSymmetric(QuiverError):
    """Raised when input entries violate b[i][j] = -b[j][i] or b[i][i] = 0."""


class VertexOutOfRange(QuiverError, IndexError):
    """Raised when a vertex index is outside [0, n)."""


class ParseError(QuiverError, ValueError):
    """Raised on input that is not an integer grid; message gives a position."""


class ArithmeticOverflow(QuiverError, OverflowError):
    """Raised when a mutation would push an entry outside 64-bit range."""


class InvalidPermutation(QuiverError, ValueError):
    """Raised when a relabelling is not a permutation of 0..n-1."""


def _subquiver_rows(rows, vertices):
    """Rows of the full subquiver on ``vertices``, vertices[i] becoming
    vertex i.  Every vertex in some order relabels; fewer restrict."""
    if len(vertices) == 1:  # itemgetter of one index returns a scalar
        return ((0,),)  # the zero diagonal
    pick = itemgetter(*vertices)
    return tuple(map(pick, pick(rows)))


@dataclass(frozen=True)
class ExchangeMatrix:
    """Immutable skew-symmetric integer matrix encoding a quiver.

    Construct through :meth:`from_rows` (validates) rather than directly.
    Vertex indices are 0-based everywhere.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, entries) -> "ExchangeMatrix":
        """Validate a square integer grid and return an ExchangeMatrix.

        Entries are read with ``operator.index``: numpy integers pass,
        floats and strings raise ParseError, as does a row that is not
        iterable.  Then one pass over the rows checks their lengths, and
        over the pairs i <= j the skew-symmetry and the 64-bit range: it
        raises on the first fault, naming it, and returns the matrix when
        there is none."""
        rows = []  # each iterator is read once
        try:
            for row in entries:
                rows.append(tuple(row))
        except TypeError:  # entries, or this row of it, is not iterable
            raise ParseError(f"not a sequence of rows at row {len(rows)}") from None
        try:
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:  # name the first entry that is not an integer
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    try:
                        index(x)
                    except TypeError:
                        raise ParseError(
                            f"non-integer entry at row {i}, column {j}"
                        ) from None
            raise
        n = len(rows)
        if n == 0:
            raise EmptyMatrix("exchange matrix must have at least one vertex")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotSkewSymmetric(
                    f"row {i} has length {len(row)}, expected {n}"
                )
        for i in range(n):
            if rows[i][i] != 0:
                raise NotSkewSymmetric(f"nonzero diagonal entry at ({i},{i})")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise NotSkewSymmetric(
                        f"b[{i}][{j}] = {rows[i][j]} but b[{j}][{i}] = {rows[j][i]}"
                    )
                if not (-INT64_MAX <= rows[i][j] <= INT64_MAX):
                    raise ArithmeticOverflow(
                        f"entry ({i},{j}) outside 64-bit range"
                    )
        return cls(rows)

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Fomin-Zelevinsky matrix mutation at vertex k.

        b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik) * max(0, b_ik*b_kj).
        Returns a new matrix; self is unchanged.  Only row k and the rows of
        k's neighbours change; every other row is shared with self, so a
        mutation costs O(n + deg(k) * n).
        """
        b = self.rows
        n = len(b)
        if not 0 <= k < n:
            raise VertexOutOfRange(f"vertex {k} out of range for n={n}")
        bk = b[k]
        neighbours = list(compress(range(n), bk))
        out_k = [j for j in neighbours if bk[j] > 0]
        in_k = [j for j in neighbours if bk[j] < 0]
        out = list(b)
        out[k] = tuple(map(neg, bk))
        for i in neighbours:
            bi = b[i]
            bik = bi[k]
            row = list(bi)
            row[k] = -bik
            # b_ij changes only along i -> k -> j or j -> k -> i, by |b_ik| b_kj.
            scale, through = (bik, out_k) if bik > 0 else (-bik, in_k)
            for j in through:
                v = row[j] + scale * bk[j]
                # v = -2**63 is caught at its mirror entry, 2**63
                if not (INT64_MIN <= v <= INT64_MAX):
                    raise ArithmeticOverflow(
                        f"mutation at {k} overflows entry ({i},{j})"
                    )
                row[j] = v
            out[i] = tuple(row)
        return ExchangeMatrix(tuple(out))

    def mutate_sequence(self, vertices) -> "ExchangeMatrix":
        """Apply mutations left to right."""
        m = self
        for k in vertices:
            m = m.mutate(k)
        return m

    def max_weight(self) -> int:
        """Largest |b_ij| over i < j (0 for n = 1 or the zero matrix).

        The matrix is skew-symmetric with a zero diagonal, so this is its
        largest entry: b_ji = -b_ij, and the diagonal makes it >= 0.
        """
        return max(map(max, self.rows))

    def permuted(self, perm) -> "ExchangeMatrix":
        """Relabel vertices: old vertex i becomes perm[i] in the result.

        The result is the full subquiver on the inverse permutation.  Raises
        InvalidPermutation unless ``perm`` lists 0..n-1 in some order.
        """
        perm = list(perm)  # an iterator is read once
        n = self.n
        try:  # read as from_rows reads entries: a float is refused
            ok = sorted(map(index, perm)) == list(range(n))
        except TypeError:
            ok = False
        if not ok:
            raise InvalidPermutation(f"{perm} is not a permutation of 0..{n - 1}")
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        return ExchangeMatrix(_subquiver_rows(self.rows, inv))

    def components(self) -> list[list[int]]:
        """Connected components of the underlying undirected graph, each
        sorted, in the order of their smallest vertices."""
        rows = self.rows
        vertices = range(len(rows))
        seen = [False] * len(rows)
        comps = []
        for s in vertices:
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for v in comp:  # comp grows while it is scanned
                for w in compress(vertices, rows[v]):
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def arrow_pairs(self):
        """Yield (i, j, weight) with an arrow i -> j of multiplicity weight."""
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                w = self.rows[i][j]
                if w > 0:
                    yield (i, j, w)
                elif w < 0:
                    yield (j, i, -w)

    def serialize(self) -> str:
        """Compact JSON array-of-arrays of integers (byte-stable)."""
        return _rows_json(self.rows)

    def to_dot(self) -> str:
        """DOT digraph; one edge per vertex pair, labeled with multiplicity > 1."""
        lines = ["digraph quiver {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for i, j, w in self.arrow_pairs():
            if w == 1:
                lines.append(f"  {i} -> {j};")
            else:
                lines.append(f'  {i} -> {j} [label="{w}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def from_matrix(entries) -> ExchangeMatrix:
    """Validate a square integer grid and return an ExchangeMatrix."""
    return ExchangeMatrix.from_rows(entries)


def deserialize(text: str) -> ExchangeMatrix:
    """Inverse of :meth:`ExchangeMatrix.serialize`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at position {e.pos}: {e.msg}") from e
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("expected a JSON array of arrays at position 0")
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ParseError(f"non-integer entry at row {i}, column {j}")
    return ExchangeMatrix.from_rows(data)
