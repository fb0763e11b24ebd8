"""Side-by-side classification of Gr(p, p+q) and the tiling {p,q}.

The two trichotomies are matched under finite type <-> spherical,
finite mutation type <-> planar, infinite mutation type <-> hyperbolic.
:func:`quiver_atlas.explore.explore` names the finite-type classes (A/D/E);
the finite-mutation-type ones are named here, with the same
:func:`quiver_atlas.explore.name_class`, from the grid anchors Gr(4,8) and
Gr(3,9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .cache import explore_classes
from .canonical import canonical_key
from .explore import DEFAULT_CAP, Classification, MutationClassReport, name_class
from .grassmannian import GrassmannianSpec, initial_quiver
from .tiling import GeometryClass, SchlafliSymbol, TilingReport, tiling_report

CATEGORY_MAP = {
    Classification.FINITE_TYPE: GeometryClass.SPHERICAL,
    Classification.FINITE_MUTATION_TYPE: GeometryClass.PLANAR,
    Classification.INFINITE_MUTATION_TYPE: GeometryClass.HYPERBOLIC,
}

# Known assignments class(Gr(4,8)) = E7(1,1) and class(Gr(3,9)) = E8(1,1).
NAMED_ANCHORS = {
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


@cache
def _anchor_names() -> dict[str, str]:
    return {
        canonical_key(initial_quiver(GrassmannianSpec(p, q))).hex(): name
        for (p, q), name in NAMED_ANCHORS.items()
    }


def name_finite_mutation_type(report: MutationClassReport) -> str:
    """Name a finite-mutation-type class by the grid anchor it contains.

    Mutation classes partition quivers, so a fully enumerated class is
    E7(1,1) or E8(1,1) exactly when the canonical key of the Gr(4,8) or
    Gr(3,9) grid quiver is among its member keys.
    """
    name = name_class(report.member_keys or (), _anchor_names())
    return name or UNNAMED_FINITE_MUTATION


def correspondence_row(
    p: int, q: int, cluster: MutationClassReport
) -> CorrespondenceRow:
    """The row of cell (p, q) given the report on its grid quiver's class.

    Finite-mutation-type classes are named by
    :func:`name_finite_mutation_type`; the tiling side is computed here.
    """
    if cluster.classification is Classification.FINITE_MUTATION_TYPE:
        cluster = replace(cluster, type_name=name_finite_mutation_type(cluster))
    tiling = tiling_report(SchlafliSymbol(p, q))
    return CorrespondenceRow(
        p=p,
        q=q,
        r=GrassmannianSpec(p, q).r,
        cluster=cluster,
        tiling=tiling,
        match=CATEGORY_MAP.get(cluster.classification) is tiling.geometry,
    )


def classify_cell(
    p: int,
    q: int,
    cap: int = DEFAULT_CAP,
    cache_dir=None,
) -> CorrespondenceRow:
    """Run both classifications for one (p, q) cell.

    The cluster side is :func:`quiver_atlas.cache.explore_classes` of the
    cell's grid quiver; ``cache_dir`` adds the on-disk cache.
    """
    [cluster] = explore_classes(
        [initial_quiver(GrassmannianSpec(p, q))], cap, cache_dir=cache_dir
    )
    return correspondence_row(p, q, cluster)
