"""Exact solver and verification toolkit for the cop and robber game with
radius of capture."""

from .engine import (
    COP_TO_MOVE,
    ROBBER_TO_MOVE,
    Strategy,
    Transcript,
    WinAnalysis,
    certify_cop_strategy,
    extract_cop_strategy,
    extract_robber_strategy,
    naive_rc_oracle,
    radius_capture_number,
    simulate,
    solve_cwrc,
)
from .generators import (
    DEFAULT_SIZE_GUARD,
    FamilySpec,
    basic_family,
    build_family,
    circulant,
    generalized_johnson,
    hamming,
    hypercube,
    named_instance,
    random_connected_gnp,
    sierpinski,
)
from .graph import (
    Graph,
    all_pairs_distances,
    build_graph,
    eccentricities,
    girth,
    induced_subgraph,
    is_connected,
)
from .ioformats import ResultRecord, emit_results, parse_edge_list, parse_graph6, write_graph6
from .outerplanar import (
    OuterplanarEmbedding,
    inner_faces,
    random_outerplanar,
    rc_outerplanar_formula,
    validate_embedding,
)
from .products import product
from .verify import (
    Retraction,
    TheoremReport,
    check_distance_expansion,
    check_product_theorems,
    check_radius_pair_condition,
    check_retract_monotonicity,
    classify_evenness,
    verify_retraction,
)

__version__ = "0.1.0"
