"""Exact-arithmetic engine for simple hyperplane arrangements.

Constructs explicit arrangement families, enumerates vertices, edges,
bounded cells and facets via exact sign vectors, computes per-cell and
average diameters, and mechanically verifies the census formulas,
identities and bounds that the built-in families realize.
"""

from .arrangement import (
    Arrangement,
    ArrangementEdge,
    FacetRecord,
    Hyperplane,
    Restriction,
    SimplicityReport,
    Vertex,
    check_simple,
    enumerate_bounded_cells,
    enumerate_bounded_facets,
    enumerate_edges,
    enumerate_vertices,
    hyperplane,
    restrict_to_hyperplane,
)
from .cells import (
    CellClass,
    CellRecord,
    build_cell_records,
    cell_diameter,
    classify_cell,
    product_factors,
)
from .census import CensusReport, census
from .constructions import (
    Construction,
    SplitMix64,
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from .rational import solve_linear_system
from .verify import (
    SuiteSummary,
    VerificationResult,
    run_suite,
    verify_proposition,
)

__version__ = "0.1.0"
