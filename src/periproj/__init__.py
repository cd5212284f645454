"""Free products with peripheral structure: metrics, projections, coned-off
graphs, and desk-scale verification of coarse projection axioms and the
distance formula."""

from .errors import (
    BallBudgetError,
    ConfigError,
    InvalidFactorError,
    NormalFormError,
    OutOfRangeError,
    PeriprojError,
    UnsupportedMetricError,
)
from .factor import (
    CyclicFactor,
    Factor,
    FreeAbelianRank2Factor,
    InfiniteCyclicFactor,
    TableFactor,
)
from .group import (
    Element,
    GroupSpec,
    ball,
    element_str,
    inv,
    mul,
    normalize,
    parse_element,
    random_element,
    syllable_length,
)
from .metric import (
    BfsBackend,
    ExactBackend,
    VertexPath,
    enumerate_geodesics,
    quasigeodesic_constants,
)
from .peripheral import (
    Coset,
    coset_of,
    coset_str,
    cosets_meeting_ball,
    dist_to_coset,
    proj_conedoff,
    proj_entrypoint,
    projection,
    separating_cosets,
)
from .conedoff import (
    BcpReport,
    ConedOffBackend,
    check_bcp,
    lift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
