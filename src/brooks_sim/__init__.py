"""Delta-coloring by reduction to (deg+1)-list coloring instances, executed
and validated inside a deterministic round-synchronous simulator."""

from .acd import AlmostCliqueDecomposition, compute_acd, verify_acd
from .classify import (
    ACClassification,
    FinePartition,
    classify_acs,
    find_special,
    fine_partition,
    is_easy,
)
from .graph_core import (
    Graph,
    PartialColoring,
    contains_delta_plus_one_clique,
    generate_instance,
    save_graph,
)
from .listcolor import (
    InstanceLedger,
    ListInstance,
    build_instance,
    solve_distributed,
)
from .oracle_validate import validate_coloring
from .phases import (
    PIPELINE_PLAN,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
)
from .sim_engine import RoundMetrics, run_protocol
from .slackgen import check_lemma33
from .thresholds import Thresholds

__version__ = "0.1.0"

__all__ = [
    "ACClassification",
    "AlmostCliqueDecomposition",
    "FinePartition",
    "Graph",
    "InstanceLedger",
    "ListInstance",
    "PIPELINE_PLAN",
    "PartialColoring",
    "PipelineConfig",
    "PipelineResult",
    "RoundMetrics",
    "Thresholds",
    "build_instance",
    "check_lemma33",
    "classify_acs",
    "compute_acd",
    "contains_delta_plus_one_clique",
    "find_special",
    "fine_partition",
    "generate_instance",
    "is_easy",
    "run_pipeline",
    "run_protocol",
    "save_graph",
    "solve_distributed",
    "validate_coloring",
    "verify_acd",
]
