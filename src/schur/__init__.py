"""S-rings over finite abelian groups: construction, validation, exhaustive
enumeration, and schurity testing."""

from .errors import BudgetExceeded
from .group import (
    AbelianGroup,
    automorphisms,
    map_from_generator_images,
    subgroups,
)
from .sring import (
    SRing,
    SRingViolation,
    canonical_c1,
    generated,
    radical,
    validate,
)
from .constructions import (
    CatalogSizeMismatch,
    cyclotomic,
    gw_sections,
    is_generalized_wreath,
    table1,
    tensor,
    wreath,
)
from .permaction import PermGroup, right_translations, symmetric_group
from .schurity import (
    genwr_certificate,
    is_schurian,
    scheme_automorphisms,
)
from .enumeration import (
    classify_up_to_cayley,
    enumerate_srings,
    filter_rings,
)

__all__ = [
    "AbelianGroup",
    "BudgetExceeded",
    "CatalogSizeMismatch",
    "PermGroup",
    "SRing",
    "SRingViolation",
    "automorphisms",
    "canonical_c1",
    "classify_up_to_cayley",
    "cyclotomic",
    "enumerate_srings",
    "filter_rings",
    "generated",
    "genwr_certificate",
    "gw_sections",
    "is_generalized_wreath",
    "is_schurian",
    "map_from_generator_images",
    "radical",
    "right_translations",
    "scheme_automorphisms",
    "subgroups",
    "symmetric_group",
    "table1",
    "tensor",
    "validate",
    "wreath",
]
