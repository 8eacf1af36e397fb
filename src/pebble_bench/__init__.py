"""Pebbling games, pebbling formulas, and resolution trade-off tooling."""

from .errors import (
    BadInflation,
    BadMerge,
    BadPivot,
    BudgetTooSmall,
    GraphError,
    IllegalMove,
    IncompletePebbling,
    ParseError,
    PebbleBenchError,
    SizeBoundExceeded,
    TautologicalResolvent,
    UnsupportedFamily,
    UnsupportedOperation,
    VerificationError,
)
from .dag import Dag, FamilySpec, build_family, read_graph, validate_dag, write_graph
from .pebbling import (
    Move,
    PebbleConfig,
    PebblingTrace,
    format_moves,
    parse_moves,
    pb,
    pw,
    rb,
    rw,
    step,
    validate_pebbling,
)
from .blob import (
    BlobConfig,
    BlobSubconfig,
    BlobTrace,
    EraseMove,
    InflateMove,
    IntroduceMove,
    MergeMove,
    blob_cost,
    format_blob_moves,
    inflate,
    introduce,
    merge,
    parse_blob_moves,
    sub,
    validate_blob_pebbling,
)
from .search import (
    BudgetStats,
    ParetoFrontier,
    SearchStats,
    optimal_blob_price,
    optimal_price,
    tradeoff_frontier,
)
from .strategies import black_strategy, cs_min_budget, cs_tradeoff_strategy
from .cnf import Cnf, pebbling_contradiction, read_dimacs, var_id, var_vertex, write_dimacs
from .resolution import (
    Axiom,
    Erase,
    Infer,
    ProofMetrics,
    ResolutionTrace,
    check_refutation,
    check_trace_text,
    format_trace,
    parse_trace,
    resolve,
)
from .simulation import (
    BlobScriptBuilder,
    ImplicationOracle,
    compile_pebbling,
    explain_transition,
    induce_configuration,
    metrics_vs_cost,
    subconfig_clause,
)
from .measures import (
    LayeredView,
    LhcResult,
    MeasureReport,
    MeasureValue,
    check_lhc,
    hidden_vertices,
    klawe_measure,
    min_lhc_bound,
    potential,
)

__version__ = "0.1.0"
