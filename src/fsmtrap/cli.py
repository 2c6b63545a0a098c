"""Command-line front end.

Subcommands: gen, synth, attack (relic|topo), defend (replicate|ra|rb|honeypot),
stg, overhead, pipeline.  Every subcommand also accepts ``--plan FILE`` (JSON)
and refuses keys it does not know.  For all but ``pipeline`` the keys mirror
the flags, and explicit flags win.  A pipeline plan holds ``benchmark`` and
``defense`` objects plus ``encoding``, ``attacks``, ``stg_max_inputs`` and
``check_vectors``; ``--seed`` overrides the benchmark seed.  Exit code 0 only
if all requested checks pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness, specio
from .netlist import parse as parse_netlist
from .netlist import serialize
from .obfuscate import (
    HoneypotParams,
    ReplicationPlan,
    build_decoy,
    gt_with_honeypots,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from .relic import RelicParams, relic_tarjan, zscores
from .stg import extract_stg
from .synth import SynthOptions, synthesize
from .topo import TopoParams, topo_attack


def _load_plan_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if getattr(args, "plan", None):
        data = json.loads(Path(args.plan).read_text())
        for key, value in data.items():
            if not hasattr(args, key):
                parser.error(f"plan key {key!r} is not a parameter of this command")
            if parser.get_default(key) == getattr(args, key):
                setattr(args, key, value)
    return args


def _read_design(path: str):
    return specio.parse_design(Path(path).read_text())


def _read_netlist(path: str):
    return parse_netlist(Path(path).read_text(), name=Path(path).stem)


def _read_truth(path: str):
    return specio.parse_ground_truth(Path(path).read_text())


def cmd_gen(args) -> int:
    spec = harness.BenchmarkSpec(
        seed=args.seed,
        n_states=args.states,
        n_inputs=args.inputs,
        counter_width=args.counter_width,
        data_width=args.data_width,
        n_data_pairs=args.data_pairs,
    )
    fsm, dp = harness.gen_benchmark(spec)
    Path(args.out).write_text(specio.design_text(fsm, dp))
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    fsm, dp = _read_design(args.design)
    opts = SynthOptions(
        allow_reencode=args.reencode, allow_cse=args.cse, name_prefix=args.prefix
    )
    nl, gt = synthesize(fsm, dp, opts)
    Path(args.out).write_text(serialize(nl))
    if args.ground_truth:
        Path(args.ground_truth).write_text(specio.ground_truth_text(gt))
    print(f"wrote {args.out} ({len(nl.gates)} gates, {len(nl.ffs)} FFs)")
    return 0


def cmd_attack(args) -> int:
    nl = _read_netlist(args.netlist)
    truth = _read_truth(args.truth).sffs if args.truth else None
    ok = True
    if args.mode == "relic":
        params = RelicParams(depth_limit=args.depth, top_k=args.top_k)
        table = zscores(nl, params)
        result = relic_tarjan(nl, params, truth=truth)
        if args.csv:
            Path(args.csv).write_text(table.to_csv())
        print(result.to_csv())
    else:
        params = TopoParams(
            influence_threshold=args.theta,
            control_step=args.control,
            include_singletons=args.singletons,
        )
        result, groups = topo_attack(nl, params, truth=truth)
        if args.csv:
            Path(args.csv).write_text(groups.to_text())
        print(result.to_csv())
    if truth is not None and args.expect_sensitivity is not None:
        ok = result.sensitivity is not None and result.sensitivity >= args.expect_sensitivity
        print(f"sensitivity check: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_defend(args) -> int:
    if args.mode == "replicate":
        fsm, dp = _read_design(args.design)
        plan = ReplicationPlan(args.r, allow_one_hot=args.allow_one_hot)
        fsm = replicate_state_bits(fsm, plan)
        if args.counters:
            for c in dp.counters:
                dp = replicate_counter(dp, c.name, plan)
        Path(args.out).write_text(specio.design_text(fsm, dp))
        print(f"wrote {args.out}")
        return 0
    if args.mode == "rb":
        fsm, dp = _read_design(args.design)
        fsm, report = rewrite_rb(fsm, args.bit)
        Path(args.out).write_text(specio.design_text(fsm, dp))
        print(
            f"wrote {args.out} (noop={report.noop} extended={report.extended_encoding} "
            f"added={report.added_transitions})"
        )
        return 0
    if args.mode == "ra":
        nl = _read_netlist(args.netlist)
        gt = _read_truth(args.truth)
        target = args.target or sorted(gt.sffs)[0]
        nl, report = rewrite_ra(nl, gt.sffs, target)
        Path(args.out).write_text(serialize(nl))
        print(
            f"wrote {args.out} (treated={report.treated_ff} "
            f"fp_after={report.fp_after.value})"
        )
        return 0
    # honeypot: derive/tune against a synthesized design, then integrate.
    fsm, dp = _read_design(args.design)
    opts = SynthOptions(allow_reencode=args.reencode)
    nl, gt = synthesize(fsm, dp, opts)
    p = HoneypotParams(
        mutation_seed=args.seed,
        n_transition_mutations=args.tmut,
        n_output_mutations=args.omut,
    )
    if args.tune:
        report = tune_honeypot(
            nl, gt.sffs, fsm, p, max_iters=args.max_iters,
            require_selection=args.require_selection,
        )
        merged, hp_ffs = report.integrated, report.hp_ffs
        print(f"tuned: found={report.found} seed={report.params.mutation_seed}")
        ok = report.found
    else:
        _, _, merged, hp_ffs = build_decoy(nl, fsm, p)
        ok = True
    Path(args.out).write_text(serialize(merged))
    if args.ground_truth:
        Path(args.ground_truth).write_text(
            specio.ground_truth_text(gt_with_honeypots(gt, hp_ffs))
        )
    print(f"wrote {args.out} ({len(hp_ffs)} decoy FFs)")
    return 0 if ok else 1


def cmd_stg(args) -> int:
    nl = _read_netlist(args.netlist)
    gt = _read_truth(args.truth)
    free = args.free.split(",") if args.free else None
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=free, max_inputs=args.max_inputs)
    Path(args.out).write_text(stg.to_text())
    if args.dot:
        Path(args.dot).write_text(stg.to_dot())
    print(f"wrote {args.out} ({len(stg.states)} states)")
    for w in stg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_overhead(args) -> int:
    before = _read_netlist(args.before)
    after = _read_netlist(args.after)
    report = harness.overhead(before, after)
    print(report.to_text(), end="")
    return 0


# Top-level keys of a ``pipeline --plan`` file: the nested benchmark and
# defense specs, then PipelinePlan fields given as plain JSON values.
_PIPELINE_PLAN_KEYS = (
    "benchmark", "defense", "encoding", "attacks", "stg_max_inputs", "check_vectors"
)


def cmd_pipeline(args) -> int:
    plan = harness.PipelinePlan()
    if args.plan:
        data = json.loads(Path(args.plan).read_text())
        for key in data:
            if key not in _PIPELINE_PLAN_KEYS:
                raise ValueError(f"plan key {key!r} is not a pipeline plan key")
        bench = harness.BenchmarkSpec(**data.get("benchmark", {}))
        defense = harness.DefensePlan(**data.get("defense", {}))
        fields = {k: v for k, v in data.items() if k not in ("benchmark", "defense")}
        if "attacks" in fields:
            fields["attacks"] = tuple(fields["attacks"])
        plan = harness.PipelinePlan(benchmark=bench, defense=defense, **fields)
    if args.seed is not None:
        plan = dataclasses.replace(
            plan, benchmark=dataclasses.replace(plan.benchmark, seed=args.seed)
        )
    result = harness.run_pipeline(plan, args.out)
    print((Path(args.out) / "summary.txt").read_text(), end="")
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fsmtrap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded benchmark design")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--states", type=int, default=6)
    g.add_argument("--inputs", type=int, default=3)
    g.add_argument("--counter-width", type=int, default=4)
    g.add_argument("--data-width", type=int, default=6)
    g.add_argument("--data-pairs", type=int, default=1)
    g.add_argument("--out", required=True)
    g.add_argument("--plan")
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("synth", help="synthesize a design document to a netlist")
    s.add_argument("--design", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--ground-truth")
    s.add_argument("--reencode", action="store_true", help="re-encode one-hot")
    s.add_argument("--cse", action="store_true", help="share common subexpressions")
    s.add_argument("--prefix", default="u0")
    s.add_argument("--plan")
    s.set_defaults(fn=cmd_synth)

    a = sub.add_parser("attack", help="run an SFF identification attack")
    a.add_argument("mode", choices=("relic", "topo"))
    a.add_argument("--netlist", required=True)
    a.add_argument("--truth")
    a.add_argument("--depth", type=int, default=6)
    a.add_argument("--top-k", type=int, default=5)
    a.add_argument("--theta", type=float, default=0.5)
    a.add_argument("--control", choices=("off", "structural", "functional"), default="structural")
    a.add_argument("--singletons", action="store_true")
    a.add_argument("--csv")
    a.add_argument("--expect-sensitivity", type=float, default=None)
    a.add_argument("--plan")
    a.set_defaults(fn=cmd_attack)

    d = sub.add_parser("defend", help="apply an obfuscation transform")
    d.add_argument("mode", choices=("replicate", "ra", "rb", "honeypot"))
    d.add_argument("--design")
    d.add_argument("--netlist")
    d.add_argument("--truth")
    d.add_argument("--out", required=True)
    d.add_argument("--ground-truth")
    d.add_argument("--r", type=int, default=2)
    d.add_argument("--counters", action="store_true")
    d.add_argument("--allow-one-hot", action="store_true")
    d.add_argument("--bit", type=int, default=0)
    d.add_argument("--target")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--tmut", type=int, default=2)
    d.add_argument("--omut", type=int, default=1)
    d.add_argument("--tune", action="store_true")
    d.add_argument("--max-iters", type=int, default=10)
    d.add_argument("--require-selection", action="store_true")
    d.add_argument("--reencode", action="store_true")
    d.add_argument("--plan")
    d.set_defaults(fn=cmd_defend)

    t = sub.add_parser("stg", help="extract a state transition graph")
    t.add_argument("--netlist", required=True)
    t.add_argument("--truth", required=True)
    t.add_argument("--free", help="comma-separated free inputs (default: all but clk/rst)")
    t.add_argument("--max-inputs", type=int, default=12)
    t.add_argument("--out", required=True)
    t.add_argument("--dot")
    t.add_argument("--plan")
    t.set_defaults(fn=cmd_stg)

    o = sub.add_parser("overhead", help="compare area/depth proxies")
    o.add_argument("--before", required=True)
    o.add_argument("--after", required=True)
    o.add_argument("--plan")
    o.set_defaults(fn=cmd_overhead)

    p = sub.add_parser("pipeline", help="full attack/defense run into a directory")
    p.add_argument("--plan", help="JSON plan file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "plan", None) and args.command != "pipeline":
        _load_plan_defaults(args, parser)
    try:
        return args.fn(args)
    except Exception as e:  # surface domain errors as clean failures
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
