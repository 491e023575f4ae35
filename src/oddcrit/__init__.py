"""Extremal join families, their distance spectra, and odd-factor criticality."""

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    GraphFormatError,
    ParameterError,
    ScaleLimitError,
)
from .factors import (
    ENUMERATION_CAP,
    CriticalityVerdict,
    FactorSpec,
    has_odd_factor,
    is_k_critical,
)
from .graphs import (
    ExtremalParams,
    Graph,
    disjoint_union,
    extremal_gprime,
    family,
    g_star,
    join,
    make_complete,
    parse_edge_list,
    parse_graph6,
    parse_graph6_corpus,
    parse_graph_auto,
    proof_graph_g2,
    proof_graph_g3,
    write_graph6,
)
from .partitions import (
    Partition,
    QuotientMatrix,
    family_quotient,
    partition_of,
    perron_vector,
    quotient,
)
from .spectral import (
    SPECTRAL_KINDS,
    Spectrum,
    adjacency_matrix,
    check_interlacing,
    distance_matrix,
    distance_signless_laplacian_matrix,
    eigenvalues,
    graph_matrix,
    signless_laplacian_matrix,
    spectral_radius,
    symmetric_eigenvalues,
    transmissions,
    wiener_gprime_closed_form,
    wiener_index,
)
from .theorems import (
    ASSERTS_CRITICAL,
    CONDITION_FAILS,
    EXTREMAL_EXCEPTION,
    INAPPLICABLE,
    THEOREM_IDS,
    SweepReport,
    TheoremVerdict,
    counterexample_sweep,
    evaluate_theorem,
    exceptional_layouts_for,
    extremal_layout_for,
    one_edge_supergraphs,
    order_bound,
    ordering_lemma_check,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
