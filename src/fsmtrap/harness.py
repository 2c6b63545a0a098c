"""Benchmark generation, overhead proxies, and end-to-end attack/defense runs.

A pipeline run synthesizes a baseline, attacks it, applies the requested
defenses, re-synthesizes, verifies behavior preservation (aborting on any
mismatch), re-attacks, and writes netlists/reports/STGs plus a summary into a
run directory.  Runs are reproducible from (seed, plan, parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .batchsim import compile_netlist, eval_outputs
from .graph import build_ff_graph, classify_feedback, label_sccs, tarjan_scc
from .netlist import Netlist, serialize
from .obfuscate import (
    HoneypotParams,
    ObfuscationError,
    ReplicationPlan,
    build_decoy,
    gt_with_honeypots,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from .relic import AttackResult, RelicParams, relic_tarjan, with_metrics, zscores
from .specio import design_text, ground_truth_text
from .stg import extract_stg, stg_equivalent
from .synth import (
    AddOp,
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    FsmSpec,
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


def gen_benchmark(spec: BenchmarkSpec) -> tuple[FsmSpec, DatapathSpec]:
    """Seeded design family: an FSM driving a counter enable, feedback data
    register pairs, and a word accumulator."""
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
    return fsm, dp


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
    from .netlist import topo_gates

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


def outputs_match(
    before: Netlist, after: Netlist, n_vectors: int = 1000, seed: int = 7
) -> bool:
    """Equality of positional outputs and of every FF's next state on random
    assignments of PIs and FF states.

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
    rng = np.random.default_rng(seed)
    pi_vals = {n: rng.integers(0, 2, n_vectors, dtype=np.uint8) for n in after.inputs}
    ff_vals = {f.name: rng.integers(0, 2, n_vectors, dtype=np.uint8) for f in after.ffs}
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


@dataclass(frozen=True)
class PipelinePlan:
    benchmark: BenchmarkSpec = BenchmarkSpec()
    encoding: str = "binary"  # binary | one_hot (synthesis re-encoding)
    attacks: tuple = ("relic", "topo")
    defense: DefensePlan = DefensePlan()
    relic_params: RelicParams = RelicParams()
    topo_params: TopoParams = TopoParams()
    stg_max_inputs: int = 12
    check_vectors: int = 1000


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


def run_pipeline(plan: PipelinePlan, outdir) -> PipelineResult:
    outdir = Path(outdir)
    for sub in ("netlists", "reports", "stg"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    res = PipelineResult(ok=True, outdir=outdir)
    summary: list[str] = [f"plan seed={plan.benchmark.seed} encoding={plan.encoding}"]

    fsm, dp = gen_benchmark(plan.benchmark)
    (outdir / "design.txt").write_text(design_text(fsm, dp))
    opts = SynthOptions(allow_reencode=(plan.encoding == "one_hot"))
    base_nl, base_gt = synthesize(fsm, dp, opts)
    (outdir / "netlists" / "base.nl").write_text(serialize(base_nl))
    (outdir / "reports" / "base_gt.txt").write_text(ground_truth_text(base_gt))

    base_sffs = sorted(base_gt.sffs)
    scc_report = label_sccs(tarjan_scc(build_ff_graph(base_nl)), base_gt.sffs)
    (outdir / "reports" / "base_scc.txt").write_text(scc_report.to_text())

    if "relic" in plan.attacks:
        table = zscores(base_nl, plan.relic_params)
        (outdir / "reports" / "base_z.csv").write_text(table.to_csv())
        r = relic_tarjan(base_nl, plan.relic_params, truth=base_gt.sffs)
        (outdir / "reports" / "base_attack_relic.csv").write_text(r.to_csv("base"))
        res.baseline["relic"] = r
        summary.append("baseline " + _attack_summary(r))
    if "topo" in plan.attacks:
        r, groups = topo_attack(base_nl, plan.topo_params, truth=base_gt.sffs)
        (outdir / "reports" / "base_attack_topo.csv").write_text(r.to_csv("base"))
        (outdir / "reports" / "base_topo_groups.txt").write_text(groups.to_text())
        res.baseline["topo"] = r
        summary.append("baseline " + _attack_summary(r))

    d = plan.defense
    any_defense = d.replicate_r or d.fp_mode or d.honeypot
    if not any_defense:
        (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
        return res

    # -- apply defenses -------------------------------------------------
    fsm_d, dp_d = fsm, dp
    base_width = len(base_sffs)
    # defended bit index -> baseline bit index
    bit_map_spec = {b: b for b in range(base_width)}

    if d.replicate_r:
        fsm_d = replicate_state_bits(
            fsm_d, ReplicationPlan(d.replicate_r, allow_one_hot=True)
        )
        k = 1 + d.replicate_r
        bit_map_spec = {j * k + t: j for j in range(base_width) for t in range(k)}
        if d.replicate_counters:
            for c in dp.counters:
                dp_d = replicate_counter(dp_d, c.name, d.replicate_r)

    fp_mode = d.fp_mode
    if fp_mode == "auto":
        fp_mode = "ra" if plan.encoding == "one_hot" else "rb"
    rb_report = None
    if fp_mode == "rb":
        if plan.encoding == "one_hot":
            raise ObfuscationError("dummy-transition rewrite needs a binary design")
        width_now = len(bit_map_spec)
        fsm_d, rb_report = rewrite_rb(fsm_d, d.fp_target)
        if rb_report.extended_encoding:
            bit_map_spec[width_now] = bit_map_spec[d.fp_target]

    opts_d = replace(opts, allow_reencode=(plan.encoding == "one_hot" and not d.replicate_r))
    defended_nl, defended_gt = synthesize(fsm_d, dp_d, opts_d)

    if rb_report is not None:
        target_ff = sorted(defended_gt.sffs)[d.fp_target]
        fp_after = classify_feedback(defended_nl, target_ff, defended_gt.sffs)
        summary.append(
            f"rb target={target_ff} extended={rb_report.extended_encoding} "
            f"fp_after={fp_after.value}"
        )

    ra_report = None
    if fp_mode == "ra":
        target_ff = sorted(defended_gt.sffs)[d.fp_target]
        defended_nl, ra_report = rewrite_ra(defended_nl, defended_gt.sffs, target_ff)
        summary.append(
            f"ra target={target_ff} fp_after={ra_report.fp_after.value}"
        )

    hp_ffs: frozenset = frozenset()
    pre_hp_nl = defended_nl
    if d.honeypot:
        p = HoneypotParams(
            mutation_seed=d.honeypot_seed,
            n_transition_mutations=d.honeypot_transition_mutations,
            n_output_mutations=d.honeypot_output_mutations,
        )
        if d.honeypot_tune:
            tune = tune_honeypot(
                defended_nl,
                defended_gt.sffs,
                fsm,
                p,
                relic_params=plan.relic_params,
                max_iters=d.honeypot_max_iters,
                require_selection=d.honeypot_require_selection,
            )
            defended_nl = tune.integrated
            hp_ffs = tune.hp_ffs
            hp_nl = tune.hp_netlist
            summary.append(
                f"honeypot found={tune.found} seed={tune.params.mutation_seed} "
                f"iterations={len(tune.iterations)}"
            )
            if not tune.found:
                res.ok = False
                res.notes.append("honeypot tuning failed")
        else:
            _, hp_nl, defended_nl, hp_ffs = build_decoy(defended_nl, fsm, p)
            summary.append(f"honeypot seed={p.mutation_seed} (untuned)")
        (outdir / "netlists" / "honeypot.nl").write_text(serialize(hp_nl))

    defended_gt = gt_with_honeypots(defended_gt, hp_ffs)
    (outdir / "netlists" / "defended.nl").write_text(serialize(defended_nl))
    (outdir / "reports" / "defended_gt.txt").write_text(ground_truth_text(defended_gt))

    # -- behavior preservation -------------------------------------------
    free = list(fsm.inputs)
    base_stg = extract_stg(
        base_nl, base_sffs, free_inputs=free, max_inputs=plan.stg_max_inputs
    )
    (outdir / "stg" / "base.txt").write_text(base_stg.to_text())
    def_sffs = sorted(defended_gt.sffs)
    frozen = {}
    free_d = list(free)
    rb_input = None
    if rb_report is not None and not rb_report.noop:
        rb_input = fsm_d.inputs[-1]
        free_d.append(rb_input)
        frozen[rb_input] = 0
    def_stg = extract_stg(
        defended_nl, def_sffs, free_inputs=free_d, max_inputs=plan.stg_max_inputs
    )
    (outdir / "stg" / "defended.txt").write_text(def_stg.to_text())
    # Tracked-set enlargements: ``Stg.to_text`` does not write them.
    for label, stg in (("base", base_stg), ("defended", def_stg)):
        for warning in stg.warnings:
            res.notes.append(f"stg {label}: {warning}")
            summary.append(f"stg_warning {label} {warning}")
    name_map = {
        def_sffs[i]: base_sffs[bit_map_spec[i]] for i in range(len(def_sffs))
    }
    preserved = stg_equivalent(base_stg, def_stg, name_map, frozen_inputs=frozen)
    res.preservation["stg"] = preserved
    summary.append(f"stg_equivalent {preserved}")
    if d.honeypot:
        out_ok = outputs_match(pre_hp_nl, defended_nl, plan.check_vectors)
        res.preservation["outputs"] = out_ok
        summary.append(f"outputs_identical {out_ok}")
        preserved = preserved and out_ok
    if not preserved:
        res.ok = False
        res.notes.append("behavior preservation failed; attack metrics withheld")
        (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
        return res

    # -- re-attack ---------------------------------------------------------
    scc_report = label_sccs(
        tarjan_scc(build_ff_graph(defended_nl)), defended_gt.sffs, hp_ffs
    )
    (outdir / "reports" / "defended_scc.txt").write_text(scc_report.to_text())
    if "relic" in plan.attacks:
        table = zscores(defended_nl, plan.relic_params)
        (outdir / "reports" / "defended_z.csv").write_text(table.to_csv())
        r = relic_tarjan(defended_nl, plan.relic_params, truth=defended_gt.sffs)
        (outdir / "reports" / "defended_attack_relic.csv").write_text(r.to_csv("defended"))
        res.defended["relic"] = r
        summary.append("defended " + _attack_summary(r))
        if hp_ffs:
            hp_hit = bool(r.identified & hp_ffs)
            summary.append(f"relic selected honeypot component: {hp_hit}")
    if "topo" in plan.attacks:
        r, groups = topo_attack(defended_nl, plan.topo_params, truth=defended_gt.sffs)
        (outdir / "reports" / "defended_attack_topo.csv").write_text(r.to_csv("defended"))
        (outdir / "reports" / "defended_topo_groups.txt").write_text(groups.to_text())
        res.defended["topo"] = r
        summary.append("defended " + _attack_summary(r))
        if hp_ffs:
            hp_result = with_metrics(
                AttackResult("topo", r.identified), hp_ffs
            )
            res.defended["topo_hp"] = hp_result
            summary.append(
                f"topo honeypot sensitivity={hp_result.sensitivity:.4f}"
            )

    oh = overhead(base_nl, defended_nl)
    (outdir / "reports" / "overhead.txt").write_text(oh.to_text())
    res.defended["overhead"] = oh
    summary.append(
        f"overhead area {oh.area_delta_pct:+.2f}% depth {oh.depth_delta_pct:+.2f}%"
    )

    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    return res
