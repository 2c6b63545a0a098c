"""fsmtrap: a workbench for gate-level FSM obfuscation and the state-register
identification attacks it is designed to defeat."""

from .netlist import (
    BitState,
    CombinationalCycleError,
    FlipFlop,
    Gate,
    MultipleDriverError,
    Netlist,
    NetlistError,
    ParseError,
    UndrivenNetError,
    parse,
    reset_state,
    serialize,
)
from .synth import (
    AddOp,
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    FsmSpec,
    GroundTruth,
    LoadOp,
    PinRef,
    RegRef,
    ShlOp,
    SpecError,
    AmbiguityError,
    SynthOptions,
    Transition,
    XorOp,
    encode,
    make_fsm,
    synthesize,
)
from .graph import (
    FeedbackClass,
    FfGraph,
    SccReport,
    build_ff_graph,
    classify_feedback,
    control_signals,
    influences,
    label_sccs,
    tarjan_scc,
)
from .relic import (
    AttackResult,
    RelicParams,
    ZScoreTable,
    evaluate,
    relic_tarjan,
    select_scc_by_z,
    zscores,
)
from .topo import CandidateGroups, TopoParams, topo_attack
from .stg import Stg, extract_stg, stg_equivalent
from .obfuscate import (
    HoneypotParams,
    ReplicationPlan,
    RewriteReport,
    derive_honeypot,
    integrate_honeypot,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from .harness import (
    BenchmarkSpec,
    DefensePlan,
    OverheadReport,
    PipelinePlan,
    gen_benchmark,
    overhead,
    run_pipeline,
)

__version__ = "0.1.0"
