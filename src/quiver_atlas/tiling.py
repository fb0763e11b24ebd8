"""Regular tilings {p,q} and their rank-3 Coxeter groups [p,q].

A tiling by regular p-gons, q around each vertex, is spherical, planar, or
hyperbolic according to r = (p-2)(q-2) being < 4, = 4, or > 4.  The same
trichotomy is visible in the sign of the angular defect at a vertex and in
the signature of the cosine Gram matrix of [p,q], read off its closed-form
eigenvalues; both are computed here as cross-checks of the integer test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import index

from .matrix import QuiverError


class InvalidSymbol(QuiverError):
    """Raised for Schlafli symbols unless p and q are integers >= 2."""


class NotSpherical(QuiverError):
    """Raised when spherical-only data is requested for a non-spherical tiling."""


class GeometryClass(Enum):
    SPHERICAL = "spherical"
    PLANAR = "planar"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class SchlafliSymbol:
    """{p,q}: regular p-gons, q meeting at each vertex."""

    p: int
    q: int

    def __post_init__(self):
        try:  # read as from_rows reads entries: a float is refused
            ok = index(self.p) >= 2 and index(self.q) >= 2
        except TypeError:
            ok = False
        if not ok:
            raise InvalidSymbol(
                f"require integers p, q >= 2, got ({self.p!r}, {self.q!r})"
            )

    @property
    def r(self) -> int:
        return (self.p - 2) * (self.q - 2)

    @property
    def dual(self) -> "SchlafliSymbol":
        return SchlafliSymbol(self.q, self.p)

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


@dataclass(frozen=True)
class TilingReport:
    symbol: SchlafliSymbol
    geometry: GeometryClass
    r: int
    defect: float
    gram_signature: tuple[int, int, int]
    group_order: int | None
    counts: tuple[int, int, int] | None
    coxeter_name: str | None
    tiling_name: str | None


def geometry_class(sym: SchlafliSymbol) -> tuple[GeometryClass, int]:
    """Exact integer classification from r = (p-2)(q-2)."""
    r = sym.r
    if r < 4:
        return GeometryClass.SPHERICAL, r
    if r == 4:
        return GeometryClass.PLANAR, r
    return GeometryClass.HYPERBOLIC, r


def angular_defect(sym: SchlafliSymbol) -> float:
    """2*pi minus the total polygon angle at a vertex, in radians."""
    return 2.0 * math.pi - sym.q * (sym.p - 2) * math.pi / sym.p


def angular_defect_sign(sym: SchlafliSymbol) -> int:
    """Exact sign of the angular defect, computed in integers.

    The defect is pi * (2p - q(p-2)) / p and 2p - q(p-2) = 4 - r, so the
    sign is decided without floating point.
    """
    d = 4 * sym.p - 2 * sym.q * (sym.p - 2)
    return (d > 0) - (d < 0)


def gram_matrix(sym: SchlafliSymbol) -> tuple[tuple[float, ...], ...]:
    """Cosine Gram matrix of the Coxeter group [p,q], as a tuple of rows."""
    c1 = math.cos(math.pi / sym.p)
    c2 = math.cos(math.pi / sym.q)
    return (
        (1.0, -c1, 0.0),
        (-c1, 1.0, -c2),
        (0.0, -c2, 1.0),
    )


def gram_signature(sym: SchlafliSymbol) -> tuple[int, int, int]:
    """(n+, n0, n-) eigenvalue counts of the Gram matrix.

    With a = cos(pi/p) and b = cos(pi/q), expanding det(G - x) along the
    first row gives (1 - x)((1 - x)^2 - a^2 - b^2), so the eigenvalues are
    exactly 1 and 1 +- s with s = sqrt(a^2 + b^2).  The small one is taken
    without cancellation as 1 - s = (1 - s^2)/(1 + s), where
    1 - s^2 = -cos(pi/p + pi/q) cos(pi/p - pi/q); it is nonzero unless
    r = 4, since |1/p + 1/q - 1/2| >= 1/(2pq), so signs are counted
    exactly.  The planar case r = 4 is pinned to (2, 1, 0).
    """
    if sym.r == 4:
        return (2, 1, 0)
    g = gram_matrix(sym)
    s = math.hypot(g[0][1], g[1][2])
    x, y = math.pi / sym.p, math.pi / sym.q
    eig = (1.0, 1.0 + s, -math.cos(x + y) * math.cos(x - y) / (1.0 + s))
    pos = sum(e > 0 for e in eig)
    neg = sum(e < 0 for e in eig)
    return (pos, 3 - pos - neg, neg)


_SIGNATURE_CLASS = {
    (3, 0, 0): GeometryClass.SPHERICAL,
    (2, 1, 0): GeometryClass.PLANAR,
    (2, 0, 1): GeometryClass.HYPERBOLIC,
}


def geometry_from_signature(signature: tuple[int, int, int]) -> GeometryClass:
    try:
        return _SIGNATURE_CLASS[signature]
    except KeyError:
        raise ValueError(f"impossible Gram signature {signature}") from None


def spherical_data(sym: SchlafliSymbol) -> tuple[int, int, int, int]:
    """(V, E, F, group order) of a spherical tiling.

    With d = 4 - r: V = 4p/d, E = 2pq/d, F = 4q/d, |[p,q]| = 8pq/d.
    All four are exact integers; divisibility is asserted, never rounded.
    """
    d = 4 - sym.r
    if d <= 0:
        raise NotSpherical(f"{sym} is not spherical (r = {sym.r})")
    p, q = sym.p, sym.q
    for num in (4 * p, 2 * p * q, 4 * q, 8 * p * q):
        if num % d != 0:
            raise AssertionError(
                f"spherical integrality violated for {sym}: {num} % {d}"
            )
    return (4 * p // d, 2 * p * q // d, 4 * q // d, 8 * p * q // d)


_NAMED_CELLS = {
    (3, 3): ("tetrahedron", "A3"),
    (3, 4): ("octahedron", "BC3"),
    (4, 3): ("cube", "BC3"),
    (3, 5): ("icosahedron", "H3"),
    (5, 3): ("dodecahedron", "H3"),
    (4, 4): ("square tiling", "C2(1)"),
    (3, 6): ("triangular tiling", "G2(1)"),
    (6, 3): ("hexagonal tiling", "G2(1)"),
}


def names(sym: SchlafliSymbol) -> tuple[str, str]:
    """(tiling name, Coxeter group name) per the standard finite list."""
    if sym.p == 2:
        return ("hosohedron", f"A1×I2({sym.q})")
    if sym.q == 2:
        return ("dihedron", f"A1×I2({sym.p})")
    named = _NAMED_CELLS.get((sym.p, sym.q))
    if named is not None:
        return named
    return (str(sym), f"[{sym.p},{sym.q}]")


def tiling_report(sym: SchlafliSymbol) -> TilingReport:
    geometry, r = geometry_class(sym)
    tiling_name, coxeter_name = names(sym)
    group_order = None
    counts = None
    if geometry is GeometryClass.SPHERICAL:
        v, e, f, group_order = spherical_data(sym)
        counts = (v, e, f)
    return TilingReport(
        symbol=sym,
        geometry=geometry,
        r=r,
        defect=angular_defect(sym),
        gram_signature=gram_signature(sym),
        group_order=group_order,
        counts=counts,
        coxeter_name=coxeter_name,
        tiling_name=tiling_name,
    )


def tiling_report_to_dict(rep: TilingReport) -> dict:
    return {
        "p": rep.symbol.p,
        "q": rep.symbol.q,
        "geometry": rep.geometry.value,
        "r": rep.r,
        "defect": rep.defect,
        "gram_signature": list(rep.gram_signature),
        "group_order": rep.group_order,
        "counts": list(rep.counts) if rep.counts is not None else None,
        "coxeter_name": rep.coxeter_name,
        "tiling_name": rep.tiling_name,
    }
