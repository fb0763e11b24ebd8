"""Initial quivers of Grassmannian cluster structures Gr(p, p+q).

The seed quiver lives on a (p-1) x (q-1) grid of mutable vertices with
rightward, downward, and back-diagonal arrows; its mutation class determines
the classification of the cluster algebra, which is also predicted in closed
form by the parameter r = (p-2)(q-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .explore import Classification
from .matrix import ExchangeMatrix, QuiverError


class InvalidSpec(QuiverError):
    """Raised for (p, q) outside the supported range, integers p, q >= 2."""


@dataclass(frozen=True)
class GrassmannianSpec:
    """Parameters of Gr(p, p+q): subspace dimension p, codimension q."""

    p: int
    q: int

    def __post_init__(self):
        try:  # read as from_rows reads entries: a float is refused
            ok = index(self.p) >= 2 and index(self.q) >= 2
        except TypeError:
            ok = False
        if not ok:
            raise InvalidSpec(
                f"require integers p, q >= 2, got ({self.p!r}, {self.q!r})"
            )

    @property
    def n(self) -> int:
        """Ambient dimension p + q."""
        return self.p + self.q

    @property
    def r(self) -> int:
        """Classification parameter (p-2)(q-2)."""
        return (self.p - 2) * (self.q - 2)

    @property
    def rank(self) -> int:
        """Number of mutable vertices, (p-1)(q-1)."""
        return (self.p - 1) * (self.q - 1)

    @property
    def dual(self) -> "GrassmannianSpec":
        return GrassmannianSpec(self.q, self.p)


# (di, dj, b): entry b of v(i, j)'s row at v(i+di, j+dj); the arrows out
# (right, down, up-left) are +1 and their mirrors, the arrows in, are -1
_GRID_ARROWS = ((0, 1, 1), (1, 0, 1), (-1, -1, 1), (0, -1, -1), (-1, 0, -1), (1, 1, -1))


def initial_quiver(spec: GrassmannianSpec) -> ExchangeMatrix:
    """Grid seed quiver of Gr(p, p+q) on (p-1)(q-1) vertices.

    Vertices v(i, j) for 1 <= i <= p-1, 1 <= j <= q-1 are numbered row-major.
    Arrows: v(i,j) -> v(i,j+1), v(i,j) -> v(i+1,j), and the back-diagonal
    v(i+1,j+1) -> v(i,j).  All weights are 1.  Each row holds its vertex's
    arrows and their mirrors (:data:`_GRID_ARROWS`), so the rows are
    skew-symmetric as built and go to ExchangeMatrix unchecked.
    """
    rows_n, cols_n, n = spec.p - 1, spec.q - 1, spec.rank
    rows = []
    for i in range(rows_n):
        for j in range(cols_n):
            row = [0] * n
            for di, dj, b in _GRID_ARROWS:
                if 0 <= i + di < rows_n and 0 <= j + dj < cols_n:
                    row[(i + di) * cols_n + j + dj] = b
            rows.append(tuple(row))
    return ExchangeMatrix(tuple(rows))


def expected_classification(spec: GrassmannianSpec) -> Classification:
    """Closed-form classification from r: finite for r < 4, finite mutation
    type for r = 4, infinite mutation type for r > 4."""
    if spec.r < 4:
        return Classification.FINITE_TYPE
    if spec.r == 4:
        return Classification.FINITE_MUTATION_TYPE
    return Classification.INFINITE_MUTATION_TYPE


_TYPE_NAMES = {
    frozenset({3, 3}): "D4",
    frozenset({3, 4}): "E6",
    frozenset({3, 5}): "E8",
    frozenset({4, 4}): "E7(1,1)",
    frozenset({3, 6}): "E8(1,1)",
}


def expected_type_name(spec: GrassmannianSpec) -> str | None:
    """Known type label of Gr(p, p+q), or None outside the named cells."""
    if spec.p == 2:
        return f"A{spec.q - 1}"
    if spec.q == 2:
        return f"A{spec.p - 1}"
    return _TYPE_NAMES.get(frozenset({spec.p, spec.q}))
