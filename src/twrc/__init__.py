"""Rate regions and power allocation for the full-duplex two-way relay
channel with a composite decode-forward scheme.

All rates are log base 2 (bits per channel use).
"""

from .channel import (
    GAIN_FIELDS,
    Geometry,
    LinkGains,
    gains_from_geometry,
    validate_gains,
    validate_geometry,
)
from .errors import (
    CoincidentNodesError,
    GridCapError,
    InfeasibleAllocationError,
    NoRootError,
    SideConditionError,
    TwrcError,
    ValidationError,
    WrongRegimeError,
)
from .oracle import (
    DEFAULT_GRID_CAP,
    RegionHull,
    SchemeRestriction,
    grid_best,
    grid_region,
    hull_contains,
    hull_exceeds,
    local_grid_best,
)
from .optimizer import (
    ACTIVITY_THRESHOLD,
    KktDiagnostics,
    SolveResult,
    check_full_power,
    min_relay_power,
    solve,
    solve_r2t5,
)
from .rate_region import (
    PowerAllocation,
    RateConstraints,
    RatePoint,
    best_weighted_point,
    capacity,
    compute_constraints,
    validate_allocation,
)
from .regimes import (
    TECHNIQUE_TABLE,
    Regime,
    SchemeAssignment,
    Technique,
    TechniqueDecision,
    assignment_for_gains,
    classify,
    technique_lookup,
)
from .sweeps import MapCell, ProfilePoint, regime_map, relay_power_profile

__version__ = "0.1.0"

__all__ = [
    "ACTIVITY_THRESHOLD",
    "CoincidentNodesError",
    "DEFAULT_GRID_CAP",
    "GAIN_FIELDS",
    "Geometry",
    "GridCapError",
    "InfeasibleAllocationError",
    "KktDiagnostics",
    "LinkGains",
    "MapCell",
    "NoRootError",
    "PowerAllocation",
    "ProfilePoint",
    "RateConstraints",
    "RatePoint",
    "Regime",
    "RegionHull",
    "SchemeAssignment",
    "SchemeRestriction",
    "SideConditionError",
    "SolveResult",
    "TECHNIQUE_TABLE",
    "Technique",
    "TechniqueDecision",
    "TwrcError",
    "ValidationError",
    "WrongRegimeError",
    "assignment_for_gains",
    "best_weighted_point",
    "capacity",
    "check_full_power",
    "classify",
    "compute_constraints",
    "gains_from_geometry",
    "grid_best",
    "grid_region",
    "hull_contains",
    "hull_exceeds",
    "local_grid_best",
    "min_relay_power",
    "regime_map",
    "relay_power_profile",
    "solve",
    "solve_r2t5",
    "technique_lookup",
    "validate_allocation",
    "validate_gains",
    "validate_geometry",
    "__version__",
]
