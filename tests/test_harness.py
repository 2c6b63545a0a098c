from dataclasses import replace

import pytest

from fsmtrap.graph import build_ff_graph, tarjan_scc
from fsmtrap.harness import (
    BenchmarkSpec,
    DefensePlan,
    InfeasibleProfileError,
    PipelinePlan,
    comb_depth,
    gate_area,
    gen_benchmark,
    outputs_match,
    overhead,
    run_pipeline,
)
from fsmtrap.netlist import Netlist, parse
from fsmtrap.obfuscate import HoneypotParams, build_decoy, derive_honeypot, integrate_honeypot
from fsmtrap.specio import design_text, parse_ground_truth
from fsmtrap.synth import SynthOptions, synthesize


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
        if g.name.startswith(("hp_zn", "hp_zero", "hp_gate_", "hp_mix_", "hp_marker_"))
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
    _, _, merged, _ = build_decoy(
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


def test_pipeline_baseline_only(tmp_path):
    plan = PipelinePlan(benchmark=BenchmarkSpec(seed=4), defense=DefensePlan())
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok
    assert result.baseline["relic"].sensitivity == 1.0
    assert result.baseline["topo"].sensitivity == 1.0
    assert (tmp_path / "run" / "summary.txt").exists()
    assert (tmp_path / "run" / "netlists" / "base.nl").exists()


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
