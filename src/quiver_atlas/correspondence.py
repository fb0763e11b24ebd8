"""Side-by-side classification of Gr(p, p+q) and the tiling {p,q}.

The two trichotomies are matched under finite type <-> spherical,
finite mutation type <-> planar, infinite mutation type <-> hyperbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cache import make_explorer
from .explore import DEFAULT_CAP, Classification, MutationClassReport
from .grassmannian import GrassmannianSpec, initial_quiver
from .tiling import GeometryClass, SchlafliSymbol, TilingReport, tiling_report

CATEGORY_MAP = {
    Classification.FINITE_TYPE: GeometryClass.SPHERICAL,
    Classification.FINITE_MUTATION_TYPE: GeometryClass.PLANAR,
    Classification.INFINITE_MUTATION_TYPE: GeometryClass.HYPERBOLIC,
}

REGISTRY_ANCHORS = {
    (4, 4): "E7(1,1)",
    (3, 6): "E8(1,1)",
}

UNNAMED_FINITE_MUTATION = "unnamed-finite-mutation"


@dataclass(frozen=True)
class CorrespondenceRow:
    p: int
    q: int
    r: int
    cluster: MutationClassReport
    tiling: TilingReport
    match: bool


def categories_match(
    classification: Classification, geometry: GeometryClass
) -> bool:
    return CATEGORY_MAP.get(classification) is geometry


def reference_registry(cap: int = DEFAULT_CAP, explorer=None) -> dict[str, str]:
    """Fingerprint -> name registry for finite-mutation-type classes.

    Anchored to the known assignments class(Gr(4,8)) = E7(1,1) and
    class(Gr(3,9)) = E8(1,1); built by exploring those two classes.
    """
    if explorer is None:
        explorer = make_explorer()
    registry = {}
    for (p, q), name in REGISTRY_ANCHORS.items():
        report = explorer(initial_quiver(GrassmannianSpec(p, q)), cap)
        if report.fingerprint is None:
            raise RuntimeError(
                f"registry anchor Gr({p},{p + q}) did not enumerate "
                f"(classification {report.classification.value})"
            )
        registry[report.fingerprint] = name
    return registry


def registry_for(cells, cap: int = DEFAULT_CAP, explorer=None):
    """The reference registry if some (p, q) cell is planar, else None.

    Only planar cells, (p-2)(q-2) = 4, have finite-mutation-type classes.
    """
    if any((p - 2) * (q - 2) == 4 for p, q in cells):
        return reference_registry(cap, explorer)
    return None


def name_finite_mutation_type(
    report: MutationClassReport, registry: dict[str, str]
) -> str:
    """Look up a finite-mutation-type class in a reference registry."""
    if report.fingerprint is None:
        return UNNAMED_FINITE_MUTATION
    return registry.get(report.fingerprint, UNNAMED_FINITE_MUTATION)


def classify_cell(
    p: int,
    q: int,
    cap: int = DEFAULT_CAP,
    registry: dict[str, str] | None = None,
    explorer=None,
) -> CorrespondenceRow:
    """Run both classifications for one (p, q) cell.

    ``explorer`` is a :func:`quiver_atlas.cache.make_explorer` explorer, or
    any function called as ``explorer(start, cap)`` like explore(); a fresh
    one without a disk cache is used when omitted.  With ``registry``,
    finite-mutation-type classes are named from it.
    """
    if explorer is None:
        explorer = make_explorer()
    spec = GrassmannianSpec(p, q)
    cluster = explorer(initial_quiver(spec), cap)
    if (
        registry is not None
        and cluster.classification is Classification.FINITE_MUTATION_TYPE
    ):
        cluster = replace(
            cluster, type_name=name_finite_mutation_type(cluster, registry)
        )
    tiling = tiling_report(SchlafliSymbol(p, q))
    return CorrespondenceRow(
        p=p,
        q=q,
        r=spec.r,
        cluster=cluster,
        tiling=tiling,
        match=categories_match(cluster.classification, tiling.geometry),
    )
