import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fsmtrap.graph import build_ff_graph, tarjan_scc
from fsmtrap.harness import (
    BenchmarkSpec,
    DefensePlan,
    InfeasibleProfileError,
    PipelinePlan,
    apply_defense,
    comb_depth,
    gate_area,
    gen_benchmark,
    generate,
    outputs_match,
    overhead,
    run_pipeline,
)
from fsmtrap.netlist import Netlist, parse
from fsmtrap.obfuscate import (
    HoneypotParams,
    IntegrationError,
    ObfuscationError,
    build_decoy,
    derive_honeypot,
    integrate_honeypot,
)
from fsmtrap.specio import design_text, parse_ground_truth
from fsmtrap.synth import SynthOptions, make_fsm, synthesize
from fsmtrap.topo import TopoParams


def test_gen_deterministic():
    a = gen_benchmark(BenchmarkSpec(seed=5))
    b = gen_benchmark(BenchmarkSpec(seed=5))
    assert design_text(*a) == design_text(*b)


def test_gen_two_multi_components():
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=1))
    nl, gt = synthesize(fsm, dp)
    report = tarjan_scc(build_ff_graph(nl))
    assert len(report.sccs) >= 2
    members = [set(m) for m in report.sccs]
    assert any(m == gt.sffs for m in members)


def test_gen_rejects_profile_without_feedback_data():
    with pytest.raises(InfeasibleProfileError):
        gen_benchmark(BenchmarkSpec(seed=0, n_data_pairs=0))


@pytest.mark.parametrize("with_accumulator", [True, False])
def test_gen_with_and_without_accumulator(with_accumulator):
    fsm, dp = gen_benchmark(BenchmarkSpec(with_accumulator=with_accumulator))
    nl, _ = synthesize(fsm, dp)
    regs = {f.name.split("_")[1] for f in nl.ffs}
    assert regs & {"acc", "ac2"} == ({"acc", "ac2"} if with_accumulator else set())
    assert ("u0_wacc" in nl.outputs) == with_accumulator


def test_area_weights():
    nl = parse(
        "input a\ninput b\ninput s\n"
        "gate NOT g0 n0 a\n"
        "gate AND g1 n1 a b\n"
        "gate OR g2 n2 n1 n0 b\n"
        "gate MUX g3 n3 s n1 n2\n"
        "dff f q=q d=n3 clk=a\n"
        "output n3\n"
    )
    # NOT=1, AND2=2, OR3=3, MUX=3, FF=4
    assert gate_area(nl) == 1 + 2 + 3 + 3 + 4


def test_depth_levels():
    nl = parse(
        "input a\ninput b\n"
        "gate AND g1 n1 a b\n"
        "gate OR g2 n2 n1 b\n"
        "gate XOR g3 n3 n2 n1\n"
        "output n3\n"
    )
    assert comb_depth(nl) == 3


def test_overhead_identity_is_zero():
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=2))
    nl, _ = synthesize(fsm, dp)
    report = overhead(nl, nl)
    assert report.area_delta_pct == 0.0
    assert report.depth_delta_pct == 0.0


def test_overhead_honeypot_additivity_exact():
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=3))
    nl, gt = synthesize(fsm, dp)
    p = HoneypotParams(mutation_seed=1, n_transition_mutations=2, n_output_mutations=1)
    hp_fsm = derive_honeypot(fsm, p)
    hp_nl, _ = synthesize(hp_fsm, None, SynthOptions(name_prefix="fsm"))
    merged, hp_ffs = integrate_honeypot(nl, hp_nl, p)
    report = overhead(nl, merged)
    attach = [
        g
        for g in merged.gates
        if g.name.startswith(("hp_zn", "hp_zero", "hp_gate_", "hp_mix_"))
    ]
    attach_area = sum(1 if g.kind in ("NOT", "BUF") else len(g.ins) for g in attach)
    assert report.area_after - report.area_before == gate_area(hp_nl) + attach_area


def test_outputs_match_detects_change():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    other = parse("input a\ninput b\ngate OR g o a b\noutput o\n")
    assert outputs_match(nl, nl)
    assert not outputs_match(nl, other)


def test_outputs_match_checks_shared_next_state():
    # Turning the decoy's constant-0 AND into an OR lets the decoy drive the
    # counter enables it is mixed into; no output port observes that.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    nl, _ = synthesize(fsm, dp)
    _, merged, _ = build_decoy(
        nl, fsm, HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
    )
    assert outputs_match(nl, merged)
    assert [g.kind for g in merged.gates if g.name == "hp_zero"] == ["AND"]
    gates = tuple(
        replace(g, kind="OR") if g.name == "hp_zero" else g for g in merged.gates
    )
    broken = Netlist(
        merged.name, merged.inputs, merged.outputs, dict(merged.constants), gates, merged.ffs
    )
    assert not outputs_match(nl, broken)


def test_outputs_match_next_state_with_and_without_enable():
    base = parse(
        "input clk\ninput a\ninput e\ngate AND g n a e\n"
        "dff f q=fq d=n clk=clk en=e\ndff h q=hq d=a clk=clk\noutput fq\n"
    )
    d_changed = parse(
        "input clk\ninput a\ninput e\ngate OR g n a e\n"
        "dff f q=fq d=n clk=clk en=e\ndff h q=hq d=a clk=clk\noutput fq\n"
    )
    # Where e is 0 the FF holds q; only d under e = 1 may decide.
    held = parse(
        "input clk\ninput a\ninput e\ngate BUF g n a\n"
        "dff f q=fq d=n clk=clk en=e\ndff h q=hq d=a clk=clk\noutput fq\n"
    )
    no_enable = parse(
        "input clk\ninput a\ninput e\ngate AND g n a e\n"
        "dff f q=fq d=n clk=clk\ndff h q=hq d=a clk=clk\noutput fq\n"
    )
    renamed = parse(
        "input clk\ninput a\ninput e\ngate AND g n a e\n"
        "dff f q=fq d=n clk=clk en=e\ndff k q=hq d=a clk=clk\noutput fq\n"
    )
    assert outputs_match(base, held)
    assert not outputs_match(base, d_changed)
    assert not outputs_match(base, no_enable)
    assert not outputs_match(base, renamed)


@pytest.mark.parametrize("tune", [False, True], ids=["untuned", "tuned"])
def test_apply_defense_rejects_a_decoy_without_outputs(tune):
    # An FSM without Moore outputs and no output mutation derives a decoy
    # with nothing to attach to the design.
    fsm = make_fsm(
        "m", ["S0", "S1", "S2"], ["a", "b"], "S0",
        [("S0", {"a": 1}, "S1"), ("S1", {"a": 1}, "S2"), ("S2", {"b": 1}, "S0")],
    )
    nl, gt = synthesize(fsm)
    plan = PipelinePlan(
        defense=DefensePlan(honeypot=True, honeypot_tune=tune, honeypot_output_mutations=0)
    )
    with pytest.raises(IntegrationError, match="decoy netlist has no outputs"):
        apply_defense(fsm, None, nl, gt, plan)


def test_pipeline_baseline_only(tmp_path):
    plan = PipelinePlan(benchmark=BenchmarkSpec(seed=4), defense=DefensePlan())
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok
    assert result.baseline["relic"].sensitivity == 1.0
    assert result.baseline["topo"].sensitivity == 1.0
    assert (tmp_path / "run" / "summary.txt").exists()
    assert (tmp_path / "run" / "netlists" / "base.nl").exists()


def test_pipeline_records_every_tuning_iteration(tmp_path):
    # On this design no decoy wins, so tuning runs all ten iterations.
    plan = PipelinePlan(benchmark=BenchmarkSpec(seed=0), defense=DefensePlan(honeypot=True))
    run_pipeline(plan, tmp_path / "run")
    lines = (tmp_path / "run" / "summary.txt").read_text().splitlines()
    fsm, dp, nl, gt = generate(plan.benchmark)
    tune = apply_defense(fsm, dp, nl, gt, plan).tune
    expected = [
        f"tune_iter seed={it.seed} hp_max={it.hp_scc_max:.6f} fsm_max={it.fsm_scc_max:.6f} "
        f"selected_is_hp={it.selected_is_hp} success={it.success}"
        for it in tune.iterations
    ]
    assert len(expected) == 10
    assert [ln for ln in lines if ln.startswith("tune_iter ")] == expected
    (head,) = [ln for ln in lines if ln.startswith("honeypot found=")]
    assert f"iterations={len(expected)}" in head.split()


def test_pipeline_replicate_honeypot(tmp_path):
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=6),
        defense=DefensePlan(
            replicate_r=2,
            honeypot=True,
            honeypot_require_selection=True,
        ),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert result.preservation["stg"] and result.preservation["outputs"]
    defended = result.defended["relic"]
    assert defended.sensitivity < 1.0 or defended.precision < 1.0
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert "stg_equivalent True" in summary
    assert "relic selected honeypot component: True" in summary


def test_pipeline_replicate_counters_honeypot(tmp_path):
    plan = PipelinePlan(
        defense=DefensePlan(replicate_r=1, replicate_counters=True, honeypot=True),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    gt = parse_ground_truth((tmp_path / "run" / "reports" / "defended_gt.txt").read_text())
    assert {name: len(ffs) for name, ffs in gt.counters} == {"cnt": 8, "tmr": 10}
    summary = (tmp_path / "run" / "summary.txt").read_text().splitlines()
    assert "stg_equivalent True" in summary
    assert "outputs_identical True" in summary


def test_pipeline_rb_honeypot(tmp_path):
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=7),
        defense=DefensePlan(fp_mode="rb", honeypot=True, honeypot_tune=False),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    topo = result.defended["topo"]
    assert topo.sensitivity < 1.0
    assert result.defended["topo_hp"].sensitivity == 1.0
    # The rb line names the treated state flip-flop of the defended netlist.
    summary = (tmp_path / "run" / "summary.txt").read_text()
    (rb_line,) = [ln for ln in summary.splitlines() if ln.startswith("rb target=")]
    target = rb_line.split()[1].removeprefix("target=")
    defended_gt = parse_ground_truth(
        (tmp_path / "run" / "reports" / "defended_gt.txt").read_text()
    )
    assert target in defended_gt.sffs
    assert target == sorted(defended_gt.sffs)[plan.defense.fp_target]


def test_pipeline_ra_honeypot(tmp_path):
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=8),
        encoding="one_hot",
        defense=DefensePlan(fp_mode="auto", honeypot=True, honeypot_tune=False),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert result.defended["topo"].sensitivity < 1.0
    assert result.defended["topo_hp"].sensitivity == 1.0


def test_pipeline_one_hot_replicate_honeypot(tmp_path):
    # Replication copies the one-hot codes the baseline was synthesized with.
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=4),
        encoding="one_hot",
        defense=DefensePlan(replicate_r=1, honeypot=True, honeypot_tune=False),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert result.preservation == {"stg": True, "outputs": True}
    reports = tmp_path / "run" / "reports"
    base_gt = parse_ground_truth((reports / "base_gt.txt").read_text())
    defended_gt = parse_ground_truth((reports / "defended_gt.txt").read_text())
    assert len(defended_gt.sffs) == 2 * len(base_gt.sffs) == 2 * plan.benchmark.n_states


@pytest.mark.parametrize("fp_mode", ["ra", "auto"])
def test_pipeline_one_hot_replicate_rejects_ra(tmp_path, fp_mode):
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=4),
        encoding="one_hot",
        defense=DefensePlan(replicate_r=1, fp_mode=fp_mode, honeypot=True, honeypot_tune=False),
    )
    with pytest.raises(ObfuscationError, match="replication and the RA rewrite"):
        run_pipeline(plan, tmp_path / "run")


def test_pipeline_replicate_wide_register(tmp_path):
    # 16 binary states x (1 + 2 replicas) = 12 state bits; only the
    # preservation proof is under test, so no attacks run.
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=6, n_states=16),
        attacks=(),
        defense=DefensePlan(replicate_r=2),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert result.preservation["stg"]


def test_pipeline_ra_wide_register_targets_bit(tmp_path):
    # 12 one-hot state bits; fp_target counts bits, not name-sorted positions.
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=8, n_states=12),
        encoding="one_hot",
        defense=DefensePlan(fp_mode="ra", fp_target=2),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert "ra target=u0_st02 " in summary


@pytest.mark.parametrize(
    "plan, line",
    [
        (PipelinePlan(defense=DefensePlan(fp_mode="rb")),
         "rb target=u0_st0 extended=True fp_after=medium"),
        (PipelinePlan(
            benchmark=BenchmarkSpec(seed=3),
            defense=DefensePlan(replicate_r=2, fp_mode="rb", fp_target=4, honeypot=True,
                                honeypot_tune=False),
        ), "rb target=u0_st4 extended=False fp_after=medium"),
        (PipelinePlan(
            benchmark=BenchmarkSpec(seed=8, n_states=12),
            encoding="one_hot",
            defense=DefensePlan(fp_mode="ra", fp_target=2),
        ), "ra target=u0_st02 fp_after=medium"),
    ],
    ids=["rb-default", "rb-replicated-decoy", "ra-one-hot-12"],
)
def test_feedback_rewrite_summary_line(plan, line):
    # One line per plan names the treated state FF and its feedback class
    # after the rewrite, the same for RA and RB.
    fsm, dp, nl, gt = generate(plan.benchmark)
    if plan.encoding == "one_hot":
        nl, gt = synthesize(fsm, dp, SynthOptions(allow_reencode=True))
    summary = apply_defense(fsm, dp, nl, gt, plan).summary
    assert [ln for ln in summary if ln.startswith(("ra ", "rb "))] == [line]


def test_pipeline_reproducible(tmp_path):
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=9),
        defense=DefensePlan(replicate_r=2, honeypot=True),
    )
    run_pipeline(plan, tmp_path / "a")
    run_pipeline(plan, tmp_path / "b")
    for rel in ("summary.txt", "netlists/defended.nl", "reports/defended_z.csv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_pipeline_keeps_stg_warnings(tmp_path, monkeypatch):
    # ``run_pipeline`` extracts the base STG, then the defended one; here the
    # second reports a tracked-set enlargement, as ``extract_stg`` would.
    import fsmtrap.harness as harness_mod

    extract = harness_mod.extract_stg
    warning = "projected nondeterminism; enlarging tracked set with u0_st1"
    calls = []

    def extract_warned(nl, sffs, **kwargs):
        calls.append(nl)
        stg = extract(nl, sffs, **kwargs)
        return replace(stg, warnings=(warning,)) if len(calls) == 2 else stg

    monkeypatch.setattr(harness_mod, "extract_stg", extract_warned)
    plan = PipelinePlan(benchmark=BenchmarkSpec(seed=4), defense=DefensePlan(replicate_r=1))
    result = run_pipeline(plan, tmp_path / "run")
    assert len(calls) == 2
    assert result.ok, result.notes
    assert result.notes == [f"stg defended: {warning}"]
    summary = (tmp_path / "run" / "summary.txt").read_text().splitlines()
    assert [ln for ln in summary if ln.startswith("stg_warning")] == [
        f"stg_warning defended {warning}"
    ]


def test_pipeline_keeps_topo_fallback_notes(tmp_path):
    # With no free variables allowed, every functional control check of an
    # FF inside a control cone falls back to the structural test and notes it.
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=4),
        attacks=("topo",),
        defense=DefensePlan(replicate_r=1),
        topo_params=TopoParams(control_step="functional", functional_max_vars=0),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    expected = []
    summary_expected = []
    for label in ("base", "defended"):
        report = (tmp_path / "run" / "reports" / f"{label}_topo_groups.txt").read_text()
        notes = [ln.split(" note=", 1)[1] for ln in report.splitlines() if " note=" in ln]
        assert notes and all(n.endswith(":functional_fallback_structural") for n in notes)
        expected += [f"topo {label}: {n}" for n in notes]
        summary_expected += [f"topo_note {label} {n}" for n in notes]
    assert result.notes == expected
    summary = (tmp_path / "run" / "summary.txt").read_text().splitlines()
    assert [ln for ln in summary if ln.startswith("topo_note")] == summary_expected


@pytest.mark.parametrize(
    "encoding, defense, calls",
    [
        ("binary", DefensePlan(honeypot=True), 1),
        ("binary", DefensePlan(replicate_r=2), 2),
        ("one_hot", DefensePlan(fp_mode="ra"), 2),
    ],
    ids=["honeypot", "replicate", "one_hot_ra"],
)
def test_pipeline_synthesizes_each_design_once(tmp_path, monkeypatch, encoding, defense, calls):
    # A binary plan's baseline is the netlist ``generate`` checked, and the
    # baseline is the defended one unless replication or RB changed the spec.
    import fsmtrap.harness as harness_mod

    synthesize_ = harness_mod.synthesize
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return synthesize_(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "synthesize", counting)
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=4), encoding=encoding, attacks=(), defense=defense
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert len(made) == calls


NO_NUMPY_RANDOM = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from fsmtrap.harness import (
    BenchmarkSpec, DefensePlan, PipelinePlan, generate, outputs_match, run_pipeline,
)

_, _, nl, _ = generate(BenchmarkSpec(seed=0))
assert outputs_match(nl, nl)
# Tuning finds a decoy on this design in its third iteration.
plan = PipelinePlan(benchmark=BenchmarkSpec(seed=1), defense=DefensePlan(honeypot=True))
result = run_pipeline(plan, Path(sys.argv[2]))
assert result.ok, result.notes
lines = (Path(sys.argv[2]) / "summary.txt").read_text().splitlines()
assert any(ln.startswith("honeypot found=True ") for ln in lines), lines
assert "outputs_identical True" in lines, lines
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_no_fsmtrap_path_loads_numpy_random(tmp_path):
    # ``outputs_match`` draws its sample from the standard library; a tuned
    # decoy's pipeline (tuning, integration, the sample check) runs without
    # numpy.random ever being imported.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, str(src), str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
