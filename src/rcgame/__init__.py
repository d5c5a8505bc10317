"""Exact solver and verification toolkit for the cop and robber game with
radius of capture.

The top level exports the solver, generator, graph and codec names. The
theorem checks, graph products and outerplanar polygons are imported from
their own modules (rcgame.verify, rcgame.products, rcgame.outerplanar), so
a process that only computes capture numbers never loads them."""

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

__version__ = "0.1.0"
