"""Exact cyclotomic arithmetic, vanishing sums of roots of unity, and
rational-angle distance graphs.

The ring layer (`CycNum`) does exact arithmetic in cyclotomic fields
with automatic conductor management.  On top of it sit Mann-style
enumeration and certification of minimal vanishing sums, point set
constructions with collinearity control, and distance graph analysis
with path censuses checked against counting ceilings.
"""

from .errors import CapExceeded, NotRational, WorkBudgetExceeded
from .cyclotomic import (
    CycNum,
    RationalAngleForm,
    approx_complex,
    change_conductor,
    classify_rational_angle,
    cyclotomic_polynomial,
    phi,
    real_sign,
    root_of_unity,
    unit_roots,
)
from .mann import (
    MannCertificate,
    RelationTuple,
    pack_vectors,
    certify_extension,
    certify_mann,
    chebyshev_bound_range,
    chebyshev_theta,
    enumerate_minimal_vanishing_sums,
    enumerate_target_relations,
    extension_modulus,
    mann_modulus,
    primes_upto,
    relation_count_bound,
    subsum_vanishes,
    two_term_target_scan,
)
from .pointsets import (
    PointSet,
    erdos_purdy,
    make_pointset,
    parallel_lines,
    square_grid,
)
from .distgraph import (
    AnalysisReport,
    DistanceGraph,
    analyze,
    build_graph,
    count_irredundant_paths,
    irredundant_path_census,
    max_points_on_line,
    min_degree_subgraph,
    noncollinear_two_path_stats,
    path_stats,
    paths_lower_bound,
    peel_vertices,
)
from .serialize import (
    load_pointset,
    load_relations,
    load_report,
    report_csv_text,
    save_pointset,
    save_relations,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "NotRational",
    "WorkBudgetExceeded",
    "CycNum",
    "RationalAngleForm",
    "approx_complex",
    "change_conductor",
    "classify_rational_angle",
    "cyclotomic_polynomial",
    "phi",
    "real_sign",
    "root_of_unity",
    "unit_roots",
    "MannCertificate",
    "RelationTuple",
    "pack_vectors",
    "certify_extension",
    "certify_mann",
    "chebyshev_bound_range",
    "chebyshev_theta",
    "enumerate_minimal_vanishing_sums",
    "enumerate_target_relations",
    "extension_modulus",
    "mann_modulus",
    "primes_upto",
    "relation_count_bound",
    "subsum_vanishes",
    "two_term_target_scan",
    "PointSet",
    "erdos_purdy",
    "make_pointset",
    "parallel_lines",
    "square_grid",
    "AnalysisReport",
    "DistanceGraph",
    "analyze",
    "build_graph",
    "count_irredundant_paths",
    "irredundant_path_census",
    "max_points_on_line",
    "min_degree_subgraph",
    "noncollinear_two_path_stats",
    "path_stats",
    "paths_lower_bound",
    "peel_vertices",
    "load_pointset",
    "load_relations",
    "load_report",
    "report_csv_text",
    "save_pointset",
    "save_relations",
    "save_report",
    "__version__",
]
