"""boolnet: Boolean Petri-net synthesis from transition systems, exact
solvers for budgeted system modifications, and vertex-cover reduction
gadgets used as end-to-end correctness oracles."""

from .errors import (
    BoolnetError,
    DomainMismatch,
    EmptyType,
    EventSetMismatch,
    InvalidPlan,
    LambdaOutOfRange,
    NoInitial,
    NonDeterministic,
    NotACover,
    ParseError,
    PlaceBoundExceeded,
    SearchBudgetExceeded,
    UnknownId,
    UnknownInteraction,
    UnknownTransition,
    Unreachable,
    UselessEvent,
    VerificationFailed,
)
from .interactions import (
    BRANCH_ORDER,
    INTERACTIONS,
    BooleanType,
    apply_interaction,
    check_tag,
    unapply_interaction,
)
from .ts import (
    MODES,
    SimulationMap,
    TransitionSystem,
    check_relation,
    induced_simulation,
    parse_ts,
    serialize_ts,
    ts_to_dot,
)
from .nets import (
    PLACE_BOUND,
    BooleanNet,
    Marking,
    fire,
    net_to_dot,
    parse_net,
    reachability_graph,
    serialize_net,
)
from .regions import (
    KERNEL,
    CompiledProblem,
    NodeBudget,
    Region,
    SeparationAtom,
    Witness,
    atoms,
    complete_region,
    decide_property,
    has_property,
    parse_regions,
    property_for_mode,
    serialize_regions,
    solve_atom,
    validate_region,
)
from .synthesis import (
    SynthesisResult,
    net_from_witness,
    synthesize,
    verify_implementation,
)
from .modify import (
    DEFAULT_NODE_LIMIT,
    KINDS,
    FastPathResult,
    ModificationPlan,
    apply_plan,
    decide,
    decide_fast_path,
    parse_plan,
    serialize_plan,
    split_plan_cost,
)
from .gadgets import (
    EquivalenceReport,
    GadgetSpec,
    Graph3B,
    brute_force_vc,
    build_gadget,
    check_equivalence,
    cover_to_solution,
    parse_graph,
    serialize_graph,
    variant_for_type,
)

__version__ = "0.1.0"

__all__ = [
    "BoolnetError", "DomainMismatch", "EmptyType", "EventSetMismatch",
    "InvalidPlan", "LambdaOutOfRange", "NoInitial", "NonDeterministic",
    "NotACover", "ParseError", "PlaceBoundExceeded", "SearchBudgetExceeded",
    "UnknownId", "UnknownInteraction", "UnknownTransition", "Unreachable",
    "UselessEvent", "VerificationFailed",
    "BRANCH_ORDER", "INTERACTIONS", "BooleanType", "apply_interaction",
    "check_tag", "unapply_interaction",
    "MODES", "SimulationMap", "TransitionSystem", "check_relation",
    "induced_simulation", "parse_ts", "serialize_ts", "ts_to_dot",
    "PLACE_BOUND", "BooleanNet", "Marking", "fire", "net_to_dot",
    "parse_net", "reachability_graph", "serialize_net",
    "KERNEL", "CompiledProblem", "NodeBudget", "Region", "SeparationAtom",
    "Witness", "atoms", "complete_region", "decide_property", "has_property",
    "parse_regions", "property_for_mode", "serialize_regions", "solve_atom",
    "validate_region",
    "SynthesisResult", "net_from_witness", "synthesize",
    "verify_implementation",
    "DEFAULT_NODE_LIMIT", "KINDS", "FastPathResult", "ModificationPlan",
    "apply_plan", "decide", "decide_fast_path", "parse_plan",
    "serialize_plan", "split_plan_cost",
    "EquivalenceReport", "GadgetSpec", "Graph3B", "brute_force_vc",
    "build_gadget", "check_equivalence", "cover_to_solution", "parse_graph",
    "serialize_graph", "variant_for_type",
    "__version__",
]
