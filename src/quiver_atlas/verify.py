"""End-to-end reproduction checks: the tables, the main claim, duality,
trichotomy consistency, and spherical golden data.

Each check returns (name, passed, detail); the CLI `verify` subcommand and
the acceptance test suite both drive these.
"""

from __future__ import annotations

from .cache import explore_classes
from .correspondence import CorrespondenceRow, correspondence_row
from .explore import DEFAULT_CAP, Classification
from .grassmannian import (
    GrassmannianSpec,
    expected_classification,
    expected_type_name,
    initial_quiver,
)
from .tiling import (
    GeometryClass,
    SchlafliSymbol,
    angular_defect_sign,
    geometry_class,
    geometry_from_signature,
    gram_signature,
    names,
    spherical_data,
    tiling_report,
)

# Golden transcription of the named tiling cells (2 <= p,q <= 7).
EXPECTED_TILING_NAMES = {
    (3, 3): ("tetrahedron", "A3"),
    (3, 4): ("octahedron", "BC3"),
    (4, 3): ("cube", "BC3"),
    (3, 5): ("icosahedron", "H3"),
    (5, 3): ("dodecahedron", "H3"),
    (4, 4): ("square tiling", "C2(1)"),
    (3, 6): ("triangular tiling", "G2(1)"),
    (6, 3): ("hexagonal tiling", "G2(1)"),
}

# The trichotomy and spherical-integrality checks run over every symbol
# {p,q} with 2 <= p, q <= SYMBOL_MAX.
SYMBOL_MAX = 50

# (V, E, F, group order) for representative spherical tilings.
EXPECTED_SPHERICAL = {
    (3, 3): (4, 6, 4, 24),
    (4, 3): (8, 12, 6, 48),
    (3, 4): (6, 12, 8, 48),
    (5, 3): (20, 30, 12, 120),
    (3, 5): (12, 30, 20, 120),
}


def compute_grid(
    pmax: int,
    qmax: int,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    cache_dir=None,
) -> dict[tuple[int, int], CorrespondenceRow]:
    """Classify every cell 2 <= p <= pmax, 2 <= q <= qmax.

    The grid quivers are one :func:`quiver_atlas.cache.explore_classes`
    call, so each class is explored once per run, in ``workers`` processes;
    ``cache_dir`` adds the on-disk cache, shared across runs.
    """
    cells = [
        (p, q)
        for p in range(2, pmax + 1)
        for q in range(2, qmax + 1)
    ]
    starts = [initial_quiver(GrassmannianSpec(p, q)) for p, q in cells]
    reports = explore_classes(starts, cap, workers, cache_dir)
    return {
        (p, q): correspondence_row(p, q, report)
        for (p, q), report in zip(cells, reports)
    }


def check_table1(rows) -> tuple[str, bool, str]:
    """Explorer classification and names on the 2..7 grid."""
    bad = []
    for p in range(2, 8):
        for q in range(2, 8):
            spec = GrassmannianSpec(p, q)
            row = rows[(p, q)]
            want_class = expected_classification(spec)
            if row.cluster.classification is not want_class:
                bad.append(f"({p},{q}): {row.cluster.classification.value}")
                continue
            want_name = expected_type_name(spec)
            if want_name is not None and row.cluster.type_name != want_name:
                bad.append(
                    f"({p},{q}): name {row.cluster.type_name!r} != {want_name!r}"
                )
    return (
        "table-1: mutation classes on the 2..7 grid",
        not bad,
        "; ".join(bad) or "36 cells",
    )


def check_table2() -> tuple[str, bool, str]:
    """Tiling geometry and names on the 2..7 grid."""
    bad = []
    for p in range(2, 8):
        for q in range(2, 8):
            sym = SchlafliSymbol(p, q)
            geom, r = geometry_class(sym)
            want = (
                GeometryClass.SPHERICAL
                if r < 4
                else GeometryClass.PLANAR
                if r == 4
                else GeometryClass.HYPERBOLIC
            )
            if geom is not want:
                bad.append(f"{{{p},{q}}}: {geom.value}")
                continue
            tname, cname = names(sym)
            if p == 2 and (tname, cname) != ("hosohedron", f"A1×I2({q})"):
                bad.append(f"{{{p},{q}}}: {tname}/{cname}")
            elif q == 2 and p > 2 and (tname, cname) != (
                "dihedron",
                f"A1×I2({p})",
            ):
                bad.append(f"{{{p},{q}}}: {tname}/{cname}")
            elif (p, q) in EXPECTED_TILING_NAMES and (
                tname,
                cname,
            ) != EXPECTED_TILING_NAMES[(p, q)]:
                bad.append(f"{{{p},{q}}}: {tname}/{cname}")
            elif geom is GeometryClass.HYPERBOLIC and tname != f"{{{p},{q}}}":
                bad.append(f"{{{p},{q}}}: {tname}")
    return (
        "table-2: tiling geometry and names on the 2..7 grid",
        not bad,
        "; ".join(bad) or "36 cells",
    )


def _extent(rows) -> str:
    """The grid ``rows`` fills: '2..12', or '2..7×2..8' when not square."""
    pmax, qmax = max(rows)
    return f"2..{pmax}" if pmax == qmax else f"2..{pmax}×2..{qmax}"


def check_main_claim(rows):
    """Category correspondence on every cell, no mismatch, no Inconclusive."""
    bad = []
    for (p, q), row in rows.items():
        if row.cluster.classification is Classification.INCONCLUSIVE:
            bad.append(f"({p},{q}): inconclusive")
        elif not row.match:
            bad.append(
                f"({p},{q}): {row.cluster.classification.value} vs "
                f"{row.tiling.geometry.value}"
            )
    return (
        f"main claim: cluster vs tiling category on the {_extent(rows)} grid",
        not bad,
        "; ".join(bad) or f"{len(rows)} cells",
    )


def check_summary_table(rows):
    """The seven named correspondence rows."""
    bad = []
    for p in range(2, 8):
        row = rows[(2, p)] if (2, p) in rows else None
        if row is None or row.cluster.type_name != f"A{p - 1}":
            bad.append(f"Gr(2,{p + 2}) name")
        tname, cname = names(SchlafliSymbol(2, p))
        if (tname, cname) != ("hosohedron", f"A1×I2({p})"):
            bad.append(f"{{2,{p}}} names")
        dname, dcox = names(SchlafliSymbol(p, 2))
        if p > 2 and (dname, dcox) != ("dihedron", f"A1×I2({p})"):
            bad.append(f"{{{p},2}} names")
    for (p, q), tiling_names in EXPECTED_TILING_NAMES.items():
        row = rows[(p, q)]
        if row.cluster.type_name != expected_type_name(GrassmannianSpec(p, q)):
            bad.append(f"Gr({p},{p + q}): {row.cluster.type_name}")
        if (row.tiling.tiling_name, row.tiling.coxeter_name) != tiling_names:
            bad.append(f"{{{p},{q}}}: {row.tiling.tiling_name}")
    return ("summary table: seven named rows", not bad, "; ".join(bad) or "ok")


def check_duality(rows):
    """Invariance under p <-> q of every cell whose transpose is in ``rows``.

    The cluster side is also checked below the classification: the
    transpose relabelling v(i, j) -> v(j, i) maps the grid quiver of (p, q)
    exactly onto that of (q, p) (checked for p <= q; its inverse is the
    transpose the other way).
    """
    bad = []
    for (p, q), a in rows.items():
        if (q, p) not in rows:
            continue
        spec = GrassmannianSpec(p, q)
        transpose = [j * (p - 1) + i for i in range(p - 1) for j in range(q - 1)]
        if p <= q and initial_quiver(spec).permuted(
            transpose
        ) != initial_quiver(spec.dual):
            bad.append(f"transpose ({p},{q})")
        b = rows[(q, p)]
        if (
            a.cluster.classification is not b.cluster.classification
            or a.cluster.type_name != b.cluster.type_name
            or a.cluster.class_size != b.cluster.class_size
        ):
            bad.append(f"cluster ({p},{q})")
        ta, tb = a.tiling, b.tiling
        if (
            ta.geometry is not tb.geometry
            or ta.gram_signature != tb.gram_signature
            or ta.group_order != tb.group_order
        ):
            bad.append(f"tiling ({p},{q})")
        if ta.counts is not None:
            v, e, f = ta.counts
            if tb.counts != (f, e, v):
                bad.append(f"counts ({p},{q})")
    return (
        f"duality: p<->q invariance on the {_extent(rows)} grid",
        not bad,
        "; ".join(bad) or "ok",
    )


def check_trichotomy():
    """Integer r-test vs exact defect sign vs Gram signature, 2..SYMBOL_MAX."""
    bad = []
    for p in range(2, SYMBOL_MAX + 1):
        for q in range(2, SYMBOL_MAX + 1):
            sym = SchlafliSymbol(p, q)
            geom, _ = geometry_class(sym)
            sign = angular_defect_sign(sym)
            by_sign = (
                GeometryClass.SPHERICAL
                if sign > 0
                else GeometryClass.PLANAR
                if sign == 0
                else GeometryClass.HYPERBOLIC
            )
            by_gram = geometry_from_signature(gram_signature(sym))
            if not (geom is by_sign is by_gram):
                bad.append(
                    f"{{{p},{q}}}: {geom.value}/{by_sign.value}/{by_gram.value}"
                )
    return (
        f"trichotomy: r-test, defect sign, Gram signature agree on 2..{SYMBOL_MAX}",
        not bad,
        "; ".join(bad) or f"{(SYMBOL_MAX - 1) ** 2} symbols",
    )


def check_spherical_data():
    """Golden (V, E, F, order) values and integrality on all spherical cells."""
    bad = []
    for (p, q), want in EXPECTED_SPHERICAL.items():
        got = spherical_data(SchlafliSymbol(p, q))
        if got != want:
            bad.append(f"{{{p},{q}}}: {got}")
    for q in range(2, 13):
        if spherical_data(SchlafliSymbol(2, q)) != (2, q, q, 4 * q):
            bad.append(f"{{2,{q}}}")
    for p in range(2, SYMBOL_MAX + 1):
        for q in range(2, SYMBOL_MAX + 1):
            sym = SchlafliSymbol(p, q)
            if sym.r < 4:
                rep = tiling_report(sym)
                v, e, f = rep.counts
                if v - e + f != 2 or q * v != 2 * e or p * f != 2 * e:
                    bad.append(f"{{{p},{q}}} counts")
    return ("spherical data: golden V/E/F/order values", not bad, "; ".join(bad) or "ok")


def run_verification(
    workers: int = 1,
    cache_dir=None,
    pmax: int = 12,
    qmax: int = 12,
) -> list[tuple[str, bool, str]]:
    """Run every reproduction check; returns (name, passed, detail) triples.

    ValueError unless pmax, qmax >= 7: the golden tables cover 2..7.
    """
    if min(pmax, qmax) < 7:
        raise ValueError(f"need pmax, qmax >= 7, got pmax={pmax}, qmax={qmax}")
    rows = compute_grid(pmax, qmax, workers=workers, cache_dir=cache_dir)
    return [
        check_table1(rows),
        check_table2(),
        check_main_claim(rows),
        check_summary_table(rows),
        check_duality(rows),
        check_trichotomy(),
        check_spherical_data(),
    ]
