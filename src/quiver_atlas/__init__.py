"""Independent cross-check of the Grassmannian cluster-algebra classification
against the spherical/planar/hyperbolic trichotomy of regular tilings."""

__version__ = "0.1.0"

from .canonical import QuiverKey, canonical_form, canonical_key, is_isomorphic
from .correspondence import (
    CorrespondenceRow,
    classify_cell,
    name_finite_mutation_type,
)
from .explore import (
    DEFAULT_CAP,
    Classification,
    MutationClassReport,
    explore,
    replay,
)
from .grassmannian import (
    GrassmannianSpec,
    expected_classification,
    expected_type_name,
    initial_quiver,
)
from .matrix import ExchangeMatrix, deserialize, from_matrix
from .tiling import (
    GeometryClass,
    SchlafliSymbol,
    TilingReport,
    angular_defect,
    geometry_class,
    gram_matrix,
    gram_signature,
    names,
    spherical_data,
    tiling_report,
)

__all__ = [
    "QuiverKey",
    "canonical_form",
    "canonical_key",
    "is_isomorphic",
    "CorrespondenceRow",
    "classify_cell",
    "name_finite_mutation_type",
    "DEFAULT_CAP",
    "Classification",
    "MutationClassReport",
    "explore",
    "replay",
    "GrassmannianSpec",
    "expected_classification",
    "expected_type_name",
    "initial_quiver",
    "ExchangeMatrix",
    "deserialize",
    "from_matrix",
    "GeometryClass",
    "SchlafliSymbol",
    "TilingReport",
    "angular_defect",
    "geometry_class",
    "gram_matrix",
    "gram_signature",
    "names",
    "spherical_data",
    "tiling_report",
]
