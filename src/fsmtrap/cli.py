"""Command-line front end.

Subcommands: gen, synth, attack (relic|topo), defend (replicate|ra|rb|honeypot),
stg, overhead, pipeline.  Every subcommand also accepts ``--plan FILE`` (JSON)
and refuses keys it does not know.  For all but ``pipeline`` the keys mirror
the optional flags, and explicit flags win; a required option is given as a
flag only.  A pipeline plan holds ``benchmark``, ``defense`` and
``topo_params`` objects (the fields of ``BenchmarkSpec``, ``DefensePlan``
and ``TopoParams``) plus ``encoding``, ``attacks`` and ``stg_max_inputs``;
``--seed`` overrides the benchmark seed.  Plan values have their option's or
field's JSON type, and are ``null`` only where the default is None.
``defend honeypot`` runs the pipeline's defend stage on the synthesized
design.  Exit code 0 only if all requested checks pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from . import harness, specio
from .graph import classify_feedback
from .netlist import parse as parse_netlist
from .netlist import serialize
from .obfuscate import (
    ReplicationPlan,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
)
from .relic import RelicParams, relic_tarjan, zscores
from .stg import extract_stg
from .synth import SynthOptions, synthesize
from .topo import TopoParams, topo_attack


def _read_plan(path: str) -> dict:
    """The JSON object in the plan file at ``path``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read plan {path}: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"plan {path} is not a JSON object")
    return data


# The JSON type of a plan value for an option or field of each Python type.
_JSON_TYPES = {
    bool: ("a boolean", bool),
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
}


def _check_value(key: str, value, kind: type, default):
    """The JSON ``value`` of plan key ``key`` as a value of type ``kind``
    (default ``default``): a list becomes a tuple, an object a dataclass, and
    a field of another type checks its value itself."""
    if dataclasses.is_dataclass(kind):
        return _plan_object(kind, value, key)
    if kind is tuple and isinstance(value, list):
        return tuple(value)
    if kind in _JSON_TYPES and not (value is None and default is None):
        name, types = _JSON_TYPES[kind]
        if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"plan key {key!r} must be {name}, not {json.dumps(value)}")
    return value


def _plan_defaults(path: str, sub: argparse.ArgumentParser, command: str) -> dict:
    """The option values in the JSON plan file at ``path``, checked against
    the options of subcommand ``sub``."""
    data = _read_plan(path)
    options = {a.dest: a for a in sub._actions if a.option_strings}
    for key, value in data.items():
        if key not in options or key in ("help", "plan"):
            raise ValueError(f"plan key {key!r} is not an option of {command}")
        a = options[key]
        if a.required:
            raise ValueError(f"plan key {key!r} is a required option of {command}")
        _check_value(key, value, bool if a.nargs == 0 else a.type or str, a.default)
    return data


def _plan_object(cls, data, where: str):
    """The dataclass ``cls`` from the JSON object ``data`` under plan key
    ``where``, each value checked as its field's type (``Optional[T]`` as T)."""
    if not isinstance(data, dict):
        raise ValueError(f"plan key {where!r} must be an object, not {json.dumps(data)}")
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in defaults:
            raise ValueError(f"plan key {key!r} is not a field of {cls.__name__}")
        kind = next((t for t in typing.get_args(hints[key]) if t is not type(None)), hints[key])
        kwargs[key] = _check_value(key, value, kind, defaults[key])
    return cls(**kwargs)


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
        fsm = replicate_state_bits(fsm, ReplicationPlan(args.r, allow_one_hot=args.allow_one_hot))
        if args.counters:
            for c in dp.counters:
                dp = replicate_counter(dp, c.name, args.r)
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
        nl = rewrite_ra(nl, gt.sffs, target)
        Path(args.out).write_text(serialize(nl))
        fp_after = classify_feedback(nl, target, gt.sffs)
        print(f"wrote {args.out} (treated={target} fp_after={fp_after.value})")
        return 0
    # honeypot: the pipeline's defend stage on the synthesized design.
    fsm, dp = _read_design(args.design)
    plan = harness.PipelinePlan(
        encoding="one_hot" if args.reencode else "binary",
        defense=harness.DefensePlan(
            honeypot=True,
            honeypot_tune=args.tune,
            honeypot_seed=args.seed,
            honeypot_transition_mutations=args.tmut,
            honeypot_output_mutations=args.omut,
            honeypot_max_iters=args.max_iters,
            honeypot_require_selection=args.require_selection,
        ),
    )
    nl, gt = synthesize(fsm, dp, SynthOptions(allow_reencode=args.reencode))
    defense = harness.apply_defense(fsm, dp, nl, gt, plan)
    if defense.tune is not None:
        print(f"tuned: found={defense.tune.found} seed={defense.tune.params.mutation_seed}")
    Path(args.out).write_text(serialize(defense.nl))
    if args.ground_truth:
        Path(args.ground_truth).write_text(specio.ground_truth_text(defense.gt))
    print(f"wrote {args.out} ({len(defense.gt.honeypots)} decoy FFs)")
    return 0 if defense.ok else 1


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


# Top-level keys of a ``pipeline --plan`` file: the nested benchmark, defense
# and topo specs, then PipelinePlan fields given as plain JSON values.
_PIPELINE_PLAN_KEYS = ("benchmark", "defense", "topo_params", "encoding", "attacks", "stg_max_inputs")


def cmd_pipeline(args) -> int:
    plan = harness.PipelinePlan()
    if args.plan:
        data = _read_plan(args.plan)
        for key in data:
            if key not in _PIPELINE_PLAN_KEYS:
                raise ValueError(f"plan key {key!r} is not a pipeline plan key")
        plan = _plan_object(harness.PipelinePlan, data, "pipeline")
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
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("synth", help="synthesize a design document to a netlist")
    s.add_argument("--design", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--ground-truth")
    s.add_argument("--reencode", action="store_true", help="re-encode one-hot")
    s.add_argument("--cse", action="store_true", help="share common subexpressions")
    s.add_argument("--prefix", default="u0")
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
    d.set_defaults(fn=cmd_defend)

    t = sub.add_parser("stg", help="extract a state transition graph")
    t.add_argument("--netlist", required=True)
    t.add_argument("--truth", required=True)
    t.add_argument("--free", help="comma-separated free inputs (default: all but clk/rst)")
    t.add_argument("--max-inputs", type=int, default=12)
    t.add_argument("--out", required=True)
    t.add_argument("--dot")
    t.set_defaults(fn=cmd_stg)

    o = sub.add_parser("overhead", help="compare area/depth proxies")
    o.add_argument("--before", required=True)
    o.add_argument("--after", required=True)
    o.set_defaults(fn=cmd_overhead)

    p = sub.add_parser("pipeline", help="full attack/defense run into a directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pipeline)

    for each in sub.choices.values():
        each.add_argument("--plan", help="JSON plan file")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.plan and args.command != "pipeline":
            # Plan values become the subcommand's defaults, so any option
            # given on the command line still wins when parsed again.
            subparsers = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            sub = subparsers.choices[args.command]
            sub.set_defaults(**_plan_defaults(args.plan, sub, args.command))
            args = parser.parse_args(argv)
        return args.fn(args)
    except Exception as e:  # surface domain errors as clean failures
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
