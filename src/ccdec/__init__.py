"""Compound-channel decoding toolkit.

Capacities and achievable rates of linear and generalized linear decoders
over discrete memoryless channels, the one-sided condition under which a
single worst-channel metric achieves capacity, the very-noisy inner-product
geometry with its likelihood-ratio failure example, and a random-codebook
decoder simulator.
"""

from .probability import (
    NATS_PER_BIT,
    Channel,
    Distribution,
    Joint,
    decompose,
    joint_of,
    kl_divergence,
    mutual_information,
)
from .projection import ProjectionResult, SolverError, kl_projection
from .rates import (
    CapacityResult,
    CompoundSet,
    Decoder,
    Metric,
    RateReport,
    SetAnalysis,
    build_metrics,
    compound_capacity,
    decoder_rates,
    family,
    generalized_rate,
    is_one_sided,
    mismatched_rate,
    one_sided_cover,
    worst_channel,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    Report,
    Scenario,
    ScenarioError,
    load_scenario,
    read_report,
    render_report,
    scenario_from_dict,
    write_report,
)
from .simulate import (
    Codebook,
    TrialStats,
    decode,
    estimate_error,
    generate_codebook,
    score_codewords,
    transmit,
)
from .vn import (
    BlindPolytopeResult,
    CenteredDirection,
    Direction,
    DirectionSet,
    blind_polytope_rate,
    center,
    embed,
    inner,
    norm_sq,
    vn_compound_capacity,
    vn_glrt_rate,
    vn_gmap_rate,
    vn_is_one_sided,
    vn_limit_gap,
    vn_mismatched_rate,
)

__version__ = "0.1.0"
