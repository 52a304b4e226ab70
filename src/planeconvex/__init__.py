"""Exact and tolerance-aware planar convex geometry with a verification harness."""

from .geom import (
    DEFAULT_TOL,
    EXACT_TOL,
    DirectedLine,
    Direction,
    Point,
    Tolerance,
    direction,
    orient2d,
    side_of_line,
)
from .transforms import (
    IDENTITY,
    Homothety,
    PlaneMap,
    Translation,
    compose,
    conjugate_homothety,
    homothety,
    inverse,
    six_point_identity,
    translation,
)
from .bodies import (
    BoundaryHits,
    ConvexBody,
    Disk,
    DiskIntersection,
    HullOfUnion,
    OpenExtension,
    PointedSupportLine,
    Polygon,
    Triangle,
    abundance,
    contains_point,
    convex_hull,
    hull_of_union,
    includes,
    is_edge_free,
    line_boundary_intersections,
    loosely_includes,
    open_extension,
    separating_support_line,
    supporting_line,
    tangents_from_external_point,
    transform_body,
)
from .theorem import (
    BarycentricDecomposition,
    Comet,
    Witness,
    caratheodory_decompose,
    carousel_witness,
    comet_build,
    comet_loose_inclusion_check,
    edge_free_approx,
    fejes_toth_crossing,
    internally_tangent,
    max_shrink_parameter,
    tangency_classify,
    witness_search,
)
from .convexgeo import (
    ClosureSystem,
    FiniteLattice,
    GroundSet,
    circles_closure_system,
    closed_set_lattice,
    closure_circles,
    closure_points,
    is_join_distributive,
    join_irreducibles,
    m3_lattice,
    points_closure_system,
    shapes_closure_system,
    verify_anti_exchange,
    verify_closure_axioms,
)
from .harness import Scenario, SweepReport, generate_instance, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
