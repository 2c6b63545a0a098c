"""Benchmark generation, overhead proxies, and end-to-end attack/defense runs.

``run_pipeline`` chains plain stages: ``generate`` a seeded design (its
binary netlist is the baseline's), ``run_attacks`` on it, ``apply_defense``
(shared with ``fsmtrap defend honeypot``), ``verify_preservation`` (a
mismatch withholds the defended metrics), ``run_attacks`` on the defended
netlist and ``overhead``.  It writes netlists, reports, STGs and a summary
into a run directory; runs are reproducible from (seed, plan).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .batchsim import compile_netlist, eval_outputs
from .graph import build_ff_graph, classify_feedback, label_sccs, tarjan_scc
from .netlist import Netlist, serialize, topo_gates
from .obfuscate import (
    HoneypotParams,
    ObfuscationError,
    ReplicationPlan,
    RewriteError,
    TuneReport,
    build_decoy,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from .relic import AttackResult, relic_tarjan, with_metrics, zscores
from .specio import design_text, ground_truth_text
from .stg import extract_stg, stg_equivalent
from .synth import (
    AddOp,
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    FsmSpec,
    GroundTruth,
    ONE_HOT,
    PinRef,
    RegRef,
    SynthOptions,
    XorOp,
    make_fsm,
    synthesize,
)
from .topo import TopoParams, topo_attack


class InfeasibleProfileError(Exception):
    pass


@dataclass(frozen=True)
class BenchmarkSpec:
    seed: int = 0
    n_states: int = 6
    n_inputs: int = 3
    counter_width: int = 4
    data_width: int = 6
    n_data_pairs: int = 1
    with_accumulator: bool = True
    require_multi_scc: int = 2


def generate(spec: BenchmarkSpec) -> tuple[FsmSpec, DatapathSpec, Netlist, GroundTruth]:
    """Seeded design family: an FSM driving a counter enable, feedback data
    register pairs, and a word accumulator.  Returns (FSM, datapath) and the
    binary netlist and ground truth that checked ``require_multi_scc``."""
    if spec.n_states < 2 or spec.n_inputs < 2:
        raise InfeasibleProfileError("need at least 2 states and 2 inputs")
    if spec.require_multi_scc >= 2 and spec.n_data_pairs < 1:
        raise InfeasibleProfileError(
            "at least one feedback register pair is needed for a data component"
        )
    states = [f"S{i}" for i in range(spec.n_states)]
    inputs = [f"in{i}" for i in range(spec.n_inputs)]

    rng = random.Random(spec.seed * 100003)
    transitions = []
    for i, s in enumerate(states):
        a, b = rng.sample(range(spec.n_inputs), 2)
        # A ring edge keeps every state reachable; a second random edge (for
        # roughly half the states) varies the per-bit cone structure.  The
        # all-zero guard assignment is left unmatched, so every state holds.
        transitions.append((s, {inputs[a]: 1}, states[(i + 1) % spec.n_states]))
        if rng.random() < 0.5:
            transitions.append((s, {inputs[a]: 0, inputs[b]: 1}, rng.choice(states)))
    out0 = [rng.choice("01") for _ in states]
    if len(set(out0)) == 1:
        out0[-1] = "1" if out0[-1] == "0" else "0"
    out1 = [rng.choice("01") for _ in states]
    moore = {s: out0[i] + out1[i] for i, s in enumerate(states)}
    fsm = make_fsm(
        f"bench{spec.seed}",
        states,
        inputs,
        states[0],
        transitions,
        encoding="binary",
        moore_outputs=moore,
    )

    # Two counters and two accumulators: same-index bits across the twins
    # have identical cone shapes, the word-wise similarity the attacks expect
    # from datapath registers.
    counters = (
        Counter("cnt", spec.counter_width, direction="up", enable="out0"),
        Counter("tmr", spec.counter_width + 1, direction="up"),
    )
    regs = []
    wiring = []
    for i in range(spec.n_data_pairs):
        a, b = f"da{i}", f"db{i}"
        regs.append(
            DataReg(a, spec.data_width, XorOp(RegRef(a), AndOp(RegRef(b), PinRef(f"x{i}"))))
        )
        regs.append(
            DataReg(b, spec.data_width, XorOp(RegRef(b), AndOp(RegRef(a), PinRef(f"y{i}"))))
        )
        wiring.append((f"w{i}", ("reg", a, 0)))
    if spec.with_accumulator:
        regs.append(DataReg("acc", spec.data_width, AddOp(RegRef("acc"), PinRef("xa"))))
        regs.append(DataReg("ac2", spec.data_width, AddOp(RegRef("ac2"), PinRef("xb"))))
        wiring.append(("wacc", ("reg", "acc", spec.data_width - 1)))
    dp = DatapathSpec(counters=counters, data_regs=tuple(regs), wiring=tuple(wiring))

    nl, gt = synthesize(fsm, dp, SynthOptions())
    report = tarjan_scc(build_ff_graph(nl))
    if len(report.sccs) < spec.require_multi_scc:
        raise InfeasibleProfileError(
            f"profile yields {len(report.sccs)} multi-element components, "
            f"need {spec.require_multi_scc}"
        )
    return fsm, dp, nl, gt


def gen_benchmark(spec: BenchmarkSpec) -> tuple[FsmSpec, DatapathSpec]:
    """The (FSM, datapath) of ``generate``'s design."""
    return generate(spec)[:2]


# -- overhead proxies ---------------------------------------------------------


_FF_AREA = 4
_MUX_AREA = 3


def gate_area(nl: Netlist) -> int:
    """Gate-equivalent proxy: NOT/BUF 1, n-input gate n, MUX 3, FF 4."""
    area = 0
    for g in nl.gates:
        if g.kind in ("NOT", "BUF"):
            area += 1
        elif g.kind == "MUX":
            area += _MUX_AREA
        else:
            area += len(g.ins)
    area += _FF_AREA * len(nl.ffs)
    return area


def comb_depth(nl: Netlist) -> int:
    """Maximum combinational level count over all gate outputs."""
    level: dict[str, int] = {}
    for n in nl.inputs:
        level[n] = 0
    for n in nl.constants:
        level[n] = 0
    for f in nl.ffs:
        level[f.q] = 0
    depth = 0
    for g in topo_gates(nl):
        lvl = 1 + max(level[n] for n in g.ins)
        level[g.out] = lvl
        depth = max(depth, lvl)
    return depth


@dataclass
class OverheadReport:
    area_before: int
    area_after: int
    depth_before: int
    depth_after: int

    @property
    def area_delta_pct(self) -> float:
        if self.area_before == 0:
            return 0.0
        return (self.area_after - self.area_before) / self.area_before * 100.0

    @property
    def depth_delta_pct(self) -> float:
        if self.depth_before == 0:
            return 0.0
        return (self.depth_after - self.depth_before) / self.depth_before * 100.0

    def to_text(self) -> str:
        return (
            f"area_before {self.area_before}\n"
            f"area_after {self.area_after}\n"
            f"area_delta_pct {self.area_delta_pct:.2f}\n"
            f"depth_before {self.depth_before}\n"
            f"depth_after {self.depth_after}\n"
            f"depth_delta_pct {self.depth_delta_pct:.2f}\n"
        )


def overhead(before: Netlist, after: Netlist) -> OverheadReport:
    return OverheadReport(
        area_before=gate_area(before),
        area_after=gate_area(after),
        depth_before=comb_depth(before),
        depth_after=comb_depth(after),
    )


# -- functional checks --------------------------------------------------------


def outputs_match(before: Netlist, after: Netlist) -> bool:
    """Equality of positional outputs and of every FF's next state on
    1000 random assignments of PIs and FF states, drawn from the standard
    library's ``random.Random(7)``: one 1000-byte draw per PI, then per FF,
    whose low bits are the row.  The sample needs no ``numpy.random``.

    Every FF of ``before`` must exist in ``after`` under the same name, and
    its next state (``d`` where ``en`` is 1 and ``q`` elsewhere, or ``d``
    for an FF without an enable) must agree on every vector.  Registers
    private to ``after`` (an integrated decoy) get random values too;
    neither the outputs nor the shared FFs' next states may observe them.
    """
    if len(before.outputs) != len(after.outputs):
        return False
    after_ffs = {f.name: f for f in after.ffs}
    if any(f.name not in after_ffs for f in before.ffs):
        return False
    rng = random.Random(7)

    def draw() -> np.ndarray:
        return np.frombuffer(rng.randbytes(1000), dtype=np.uint8) & 1

    pi_vals = {n: draw() for n in after.inputs}
    ff_vals = {f.name: draw() for f in after.ffs}
    n_out = len(before.outputs)

    def observed(nl: Netlist, ffs) -> list:
        """Outputs, then the next state of each of ``ffs``, one row each."""
        cn = compile_netlist(nl)
        assign = np.stack([pi_vals[n] for n in nl.inputs] + [ff_vals[f.name] for f in nl.ffs])
        nets = list(nl.outputs) + [f.d for f in ffs] + [f.en for f in ffs if f.en is not None]
        vals = eval_outputs(cn, assign, np.array([cn.row(n) for n in nets], dtype=np.intp))
        rows = list(vals[:n_out])
        en_rows = iter(vals[n_out + len(ffs):])
        for f, d in zip(ffs, vals[n_out:n_out + len(ffs)]):
            rows.append(d if f.en is None else np.where(next(en_rows), d, ff_vals[f.name]))
        return rows

    shared = [after_ffs[f.name] for f in before.ffs]
    pairs = zip(observed(before, before.ffs), observed(after, shared))
    return all(np.array_equal(b, a) for b, a in pairs)


# -- pipeline -----------------------------------------------------------------


@dataclass(frozen=True)
class DefensePlan:
    replicate_r: Optional[int] = None
    replicate_counters: bool = False
    fp_mode: Optional[str] = None  # None | 'auto' | 'ra' | 'rb'
    fp_target: int = 0
    honeypot: bool = False
    honeypot_tune: bool = True  # False: integrate one seeded variant as-is
    honeypot_seed: int = 0
    honeypot_transition_mutations: int = 2
    honeypot_output_mutations: int = 1
    honeypot_max_iters: int = 10
    honeypot_require_selection: bool = False

    def __post_init__(self):
        if self.fp_mode not in (None, "auto", "ra", "rb"):
            raise ValueError(
                f"DefensePlan.fp_mode must be 'auto', 'ra', 'rb' or None, got {self.fp_mode!r}"
            )
        if self.fp_target < 0:
            raise ValueError(f"DefensePlan.fp_target must be >= 0, got {self.fp_target}")


@dataclass(frozen=True)
class PipelinePlan:
    benchmark: BenchmarkSpec = BenchmarkSpec()
    encoding: str = "binary"  # binary | one_hot (synthesis re-encoding)
    attacks: tuple = ("relic", "topo")
    defense: DefensePlan = DefensePlan()
    topo_params: TopoParams = TopoParams()
    stg_max_inputs: int = 12

    def __post_init__(self):
        if self.encoding not in ("binary", "one_hot"):
            raise ValueError(
                f"PipelinePlan.encoding must be 'binary' or 'one_hot', got {self.encoding!r}"
            )
        if not isinstance(self.attacks, tuple) or not set(self.attacks) <= {"relic", "topo"}:
            raise ValueError(
                f"PipelinePlan.attacks must be a tuple of 'relic' and 'topo', got {self.attacks!r}"
            )


@dataclass
class PipelineResult:
    ok: bool
    outdir: Path
    baseline: dict = field(default_factory=dict)
    defended: dict = field(default_factory=dict)
    preservation: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _attack_summary(result: AttackResult) -> str:
    sens = "-" if result.sensitivity is None else f"{result.sensitivity:.4f}"
    prec = "-" if result.precision is None else f"{result.precision:.4f}"
    return f"{result.attack} sensitivity={sens} precision={prec} identified={len(result.identified)}"


def run_attacks(
    nl: Netlist, gt: GroundTruth, plan: PipelinePlan, label: str, reports: Path,
    summary: list, notes: list,
) -> dict:
    """The labelled SCC report and the plan's attacks on one netlist, written
    to ``reports/<label>_*``; returns the attack results by name.

    Appends summary lines and notes.  Where ``gt`` names honeypot FFs, also
    says whether relic selected the decoy and scores topo against it.
    """
    heading = "baseline" if label == "base" else label
    hp_ffs = gt.honeypots
    results: dict = {}
    scc_report = label_sccs(tarjan_scc(build_ff_graph(nl)), gt.sffs, hp_ffs)
    (reports / f"{label}_scc.txt").write_text(scc_report.to_text())
    if "relic" in plan.attacks:
        table = zscores(nl)
        (reports / f"{label}_z.csv").write_text(table.to_csv())
        r = results["relic"] = relic_tarjan(nl, truth=gt.sffs)
        (reports / f"{label}_attack_relic.csv").write_text(r.to_csv(label))
        summary.append(f"{heading} {_attack_summary(r)}")
        if hp_ffs:
            summary.append(f"relic selected honeypot component: {bool(r.identified & hp_ffs)}")
    if "topo" in plan.attacks:
        r, groups = topo_attack(nl, plan.topo_params, truth=gt.sffs)
        results["topo"] = r
        (reports / f"{label}_attack_topo.csv").write_text(r.to_csv(label))
        (reports / f"{label}_topo_groups.txt").write_text(groups.to_text())
        summary.append(f"{heading} {_attack_summary(r)}")
        for grp in groups.groups:
            for note in grp.notes:  # functional-control fallbacks
                notes.append(f"topo {label}: {note}")
                summary.append(f"topo_note {label} {note}")
        if hp_ffs:
            hp = results["topo_hp"] = with_metrics(AttackResult("topo", r.identified), hp_ffs)
            summary.append(f"topo honeypot sensitivity={hp.sensitivity:.4f}")
    return results


@dataclass
class Defense:
    """A design after ``apply_defense``."""

    nl: Netlist
    gt: GroundTruth  # its honeypots are the decoy's FFs
    pre_hp_nl: Netlist  # ``nl`` before the decoy was integrated
    hp_nl: Optional[Netlist]  # the decoy alone
    bit_map: dict  # defended state-bit index -> baseline state-bit index
    frozen: dict  # input the defense added -> the value that keeps behaviour
    summary: list
    tune: Optional[TuneReport] = None

    @property
    def ok(self) -> bool:
        """False when tuning found no decoy that meets the plan."""
        return self.tune is None or self.tune.found


def apply_defense(
    fsm: FsmSpec, dp: Optional[DatapathSpec], nl: Netlist, gt: GroundTruth, plan: PipelinePlan
) -> Defense:
    """``plan.defense`` on (``fsm``, ``dp``), synthesized under ``plan`` as
    (``nl``, ``gt``): replicate state bits (and counters), rewrite one
    feedback path (RB on the spec, RA on the netlist), then integrate a tuned
    or seeded decoy.  The spec is synthesized again, with no re-encoding (its
    codes are replicated or binary), only if replication or RB changed it.
    Either rewrite treats state bit ``fp_target``, and the summary line names
    its FF and ``classify_feedback`` class afterwards."""
    d = plan.defense
    fsm_d, dp_d = fsm, dp
    width = len(gt.sffs)
    bit_map = {b: b for b in range(width)}
    summary: list = []
    fp_mode = d.fp_mode
    if fp_mode == "auto":
        fp_mode = "ra" if plan.encoding == "one_hot" else "rb"
    if d.replicate_r:
        if fp_mode == "ra":
            raise ObfuscationError(
                "replication and the RA rewrite do not combine: replicas leave "
                "more than one state FF hot"
            )
        # Replicate the codes the baseline was synthesized with.
        if plan.encoding == "one_hot":
            fsm_d = replace(fsm_d, encoding=ONE_HOT)
        fsm_d = replicate_state_bits(fsm_d, ReplicationPlan(d.replicate_r, allow_one_hot=True))
        k = 1 + d.replicate_r
        bit_map = {j * k + t: j for j in range(width) for t in range(k)}
        if d.replicate_counters:
            for c in dp.counters:
                dp_d = replicate_counter(dp_d, c.name, d.replicate_r)

    if fp_mode == "rb" and plan.encoding == "one_hot":
        raise ObfuscationError("dummy-transition rewrite needs a binary design")
    if fp_mode and d.fp_target >= len(bit_map):
        raise RewriteError(
            f"fp_target {d.fp_target} is out of range 0..{len(bit_map) - 1} "
            "for the design's state bits"
        )
    rb_report = None
    if fp_mode == "rb":
        fsm_d, rb_report = rewrite_rb(fsm_d, d.fp_target)
        if rb_report.extended_encoding:
            bit_map[len(bit_map)] = bit_map[d.fp_target]

    if (fsm_d, dp_d) != (fsm, dp):
        nl, gt = synthesize(fsm_d, dp_d)
    if fp_mode:
        target_ff = sorted(gt.sffs)[d.fp_target]
        if fp_mode == "ra":
            nl = rewrite_ra(nl, gt.sffs, target_ff)
            head = f"ra target={target_ff}"
        else:
            head = f"rb target={target_ff} extended={rb_report.extended_encoding}"
        summary.append(f"{head} fp_after={classify_feedback(nl, target_ff, gt.sffs).value}")
    # RB's added input, held at 0, keeps the original behaviour.
    frozen = {fsm_d.inputs[-1]: 0} if rb_report is not None and not rb_report.noop else {}

    defense = Defense(nl, gt, nl, None, bit_map, frozen, summary)
    if d.honeypot:
        p = HoneypotParams(
            mutation_seed=d.honeypot_seed,
            n_transition_mutations=d.honeypot_transition_mutations,
            n_output_mutations=d.honeypot_output_mutations,
        )
        if d.honeypot_tune:
            tune = defense.tune = tune_honeypot(
                nl, gt.sffs, fsm, p, max_iters=d.honeypot_max_iters,
                require_selection=d.honeypot_require_selection,
            )
            defense.nl, defense.hp_nl, hp_ffs = tune.integrated, tune.hp_netlist, tune.hp_ffs
            summary.append(
                f"honeypot found={tune.found} seed={tune.params.mutation_seed} "
                f"iterations={len(tune.iterations)}"
            )
            summary += [
                f"tune_iter seed={it.seed} hp_max={it.hp_scc_max:.6f} "
                f"fsm_max={it.fsm_scc_max:.6f} selected_is_hp={it.selected_is_hp} "
                f"success={it.success}"
                for it in tune.iterations
            ]
        else:
            defense.hp_nl, defense.nl, hp_ffs = build_decoy(nl, fsm, p)
            summary.append(f"honeypot seed={p.mutation_seed} (untuned)")
        defense.gt = replace(gt, honeypots=hp_ffs)
    return defense


def verify_preservation(
    fsm: FsmSpec, nl: Netlist, gt: GroundTruth, defense: Defense, plan: PipelinePlan,
    stg_dir: Path, summary: list, notes: list,
) -> dict:
    """Exhaustive STG equivalence of the baseline (``fsm`` synthesized as
    ``nl``, ``gt``) and the defended state machine, STGs written to
    ``stg_dir``, and, around a decoy, equal outputs and shared next states.
    Returns the verdict of each check and appends summary lines and notes."""
    free = list(fsm.inputs)
    base_sffs, def_sffs = sorted(gt.sffs), sorted(defense.gt.sffs)
    base_stg = extract_stg(nl, base_sffs, free_inputs=free, max_inputs=plan.stg_max_inputs)
    (stg_dir / "base.txt").write_text(base_stg.to_text())
    def_stg = extract_stg(
        defense.nl, def_sffs, free_inputs=free + list(defense.frozen),
        max_inputs=plan.stg_max_inputs,
    )
    (stg_dir / "defended.txt").write_text(def_stg.to_text())
    # Tracked-set enlargements: ``Stg.to_text`` does not write them.
    for label, stg in (("base", base_stg), ("defended", def_stg)):
        for warning in stg.warnings:
            notes.append(f"stg {label}: {warning}")
            summary.append(f"stg_warning {label} {warning}")
    name_map = {s: base_sffs[defense.bit_map[i]] for i, s in enumerate(def_sffs)}
    verdicts = {"stg": stg_equivalent(base_stg, def_stg, name_map, frozen_inputs=defense.frozen)}
    summary.append(f"stg_equivalent {verdicts['stg']}")
    if plan.defense.honeypot:
        verdicts["outputs"] = outputs_match(defense.pre_hp_nl, defense.nl)
        summary.append(f"outputs_identical {verdicts['outputs']}")
    return verdicts


def run_pipeline(plan: PipelinePlan, outdir) -> PipelineResult:
    outdir = Path(outdir)
    netlists, reports = outdir / "netlists", outdir / "reports"
    for sub in ("netlists", "reports", "stg"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    res = PipelineResult(ok=True, outdir=outdir)
    summary: list[str] = [f"plan seed={plan.benchmark.seed} encoding={plan.encoding}"]

    def finish() -> PipelineResult:
        (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
        return res

    fsm, dp, nl, gt = generate(plan.benchmark)
    (outdir / "design.txt").write_text(design_text(fsm, dp))
    if plan.encoding == "one_hot":  # ``generate``'s netlist is binary
        nl, gt = synthesize(fsm, dp, SynthOptions(allow_reencode=True))
    (netlists / "base.nl").write_text(serialize(nl))
    (reports / "base_gt.txt").write_text(ground_truth_text(gt))
    res.baseline = run_attacks(nl, gt, plan, "base", reports, summary, res.notes)

    d = plan.defense
    if not (d.replicate_r or d.fp_mode or d.honeypot):
        return finish()
    defense = apply_defense(fsm, dp, nl, gt, plan)
    summary += defense.summary
    if not defense.ok:
        res.ok = False
        res.notes.append("honeypot tuning failed")
    if d.honeypot:
        (netlists / "honeypot.nl").write_text(serialize(defense.hp_nl))
    (netlists / "defended.nl").write_text(serialize(defense.nl))
    (reports / "defended_gt.txt").write_text(ground_truth_text(defense.gt))

    res.preservation = verify_preservation(
        fsm, nl, gt, defense, plan, outdir / "stg", summary, res.notes
    )
    if not all(res.preservation.values()):
        res.ok = False
        res.notes.append("behavior preservation failed; attack metrics withheld")
        return finish()

    res.defended = run_attacks(defense.nl, defense.gt, plan, "defended", reports, summary, res.notes)
    oh = res.defended["overhead"] = overhead(nl, defense.nl)
    (reports / "overhead.txt").write_text(oh.to_text())
    summary.append(f"overhead area {oh.area_delta_pct:+.2f}% depth {oh.depth_delta_pct:+.2f}%")
    return finish()
