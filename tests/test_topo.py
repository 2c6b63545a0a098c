import pytest

from fsmtrap.graph import build_ff_graph
from fsmtrap.netlist import parse
from fsmtrap.obfuscate import rewrite_ra
from fsmtrap.synth import (
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    PinRef,
    RegRef,
    SynthOptions,
    XorOp,
    make_fsm,
    synthesize,
)
from fsmtrap.topo import (
    TopoParams,
    topo_attack,
    topo_control_filter,
    topo_filter_fp_influence,
    topo_group,
    topo_scc_split,
)


def ring_fsm(n=4, **kw):
    states = [f"S{i}" for i in range(n)]
    return make_fsm(
        "m",
        states,
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % n}") for i in range(n)],
        **kw,
    )


def bench_design(one_hot=False):
    fsm = ring_fsm(4, moore_outputs={f"S{i}": "1" if i < 2 else "0" for i in range(4)})
    dp = DatapathSpec(
        counters=(Counter("c", 3, enable="out0"),),
        data_regs=(
            DataReg("r0", 3, XorOp(RegRef("r0"), AndOp(RegRef("r1"), PinRef("p")))),
            DataReg("r1", 3, XorOp(RegRef("r1"), AndOp(RegRef("r0"), PinRef("q")))),
        ),
    )
    return synthesize(fsm, dp, SynthOptions(allow_reencode=one_hot))


def test_group_single_when_keys_equal():
    nl = parse(
        "input clk\n"
        "gate NOT g0 n0 f0_q\n"
        "gate NOT g1 n1 f1_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    groups = topo_group(nl)
    assert len(groups.groups) == 1
    assert groups.groups[0].members == ("f0", "f1")


def test_group_splits_on_enable():
    nl, gt = bench_design()
    groups = topo_group(nl)
    key_of = {}
    for g in groups.groups:
        for m in g.members:
            key_of[m] = g.gid
    counter_ffs = sorted(dict(gt.counters)["c"])
    sff = sorted(gt.sffs)[0]
    assert key_of[counter_ffs[0]] != key_of[sff]


def test_group_matches_independent_key_extraction():
    nl, _ = bench_design()
    groups = topo_group(nl)
    # recompute keys straight off the flip-flop records
    expect: dict = {}
    for f in nl.ffs:
        kind = "dff" + ("_r" if f.rst else "") + ("_e" if f.en else "")
        key = (kind, f.clk, f.rst or "-", f.en or "-")
        expect.setdefault(key, set()).add(f.name)
    got = {frozenset(g.members) for g in groups.groups}
    assert got == {frozenset(v) for v in expect.values()}


def test_scc_split_separates_components():
    nl, gt = bench_design()
    groups = topo_scc_split(topo_group(nl), build_ff_graph(nl))
    for g in groups.groups:
        members = set(g.members)
        assert not (members & gt.sffs) or members <= gt.sffs or not (
            members & set().union(*(set(v) for _, v in gt.data))
        )
    # sffs end up alone in one subgroup
    assert any(set(g.members) == gt.sffs for g in groups.groups)


def test_fp_influence_keeps_mutual_ring():
    nl = parse(
        "input clk\n"
        "gate AND g0 n0 f0_q f1_q\n"
        "gate AND g1 n1 f1_q f0_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    groups = topo_scc_split(topo_group(nl), build_ff_graph(nl))
    filtered = topo_filter_fp_influence(groups, nl)
    survivors = {m for g in filtered.groups for m in g.members}
    assert survivors == {"f0", "f1"}


def test_fp_influence_drops_isolated_ff():
    # f4 sits in the group but influences nobody.
    lines = ["input clk"]
    for i in range(4):
        lines.append(f"gate AND g{i} n{i} f{i}_q f{(i + 1) % 4}_q")
        lines.append(f"dff f{i} q=f{i}_q d=n{i} clk=clk")
    lines.append("gate NOT g4 n4 f4_q")
    lines.append("dff f4 q=f4_q d=n4 clk=clk")
    nl = parse("\n".join(lines))
    groups = topo_group(nl)  # one group of five
    filtered = topo_filter_fp_influence(groups, nl, TopoParams(influence_threshold=0.5))
    gone = {r.ff: r.reason for g in filtered.groups for r in g.removed}
    assert "f4" in gone and gone["f4"].startswith("influence_0")


def test_control_filter_removes_only_uninfluential():
    nl, gt = bench_design()
    groups = topo_scc_split(topo_group(nl), build_ff_graph(nl))
    groups = topo_filter_fp_influence(groups, nl)
    filtered = topo_control_filter(groups, nl)
    survivors = {m for g in filtered.groups for m in g.members}
    assert gt.sffs <= survivors
    data_ffs = set().union(*(set(v) for _, v in gt.data))
    assert not (survivors & data_ffs)


def test_control_step_off_is_noop():
    nl, _ = bench_design()
    groups = topo_scc_split(topo_group(nl), build_ff_graph(nl))
    groups = topo_filter_fp_influence(groups, nl)
    same = topo_control_filter(groups, nl, TopoParams(control_step="off"))
    assert [g.members for g in same.groups] == [g.members for g in groups.groups]


def test_pipeline_monotone():
    nl, _ = bench_design()
    g1 = topo_group(nl)
    g2 = topo_scc_split(g1, build_ff_graph(nl))
    g3 = topo_filter_fp_influence(g2, nl)
    g4 = topo_control_filter(g3, nl)
    s2 = {m for g in g2.groups for m in g.members}
    s3 = {m for g in g3.groups for m in g.members}
    s4 = {m for g in g4.groups for m in g.members}
    assert s4 <= s3 <= s2


def test_no_identified_ff_lacks_high_fp():
    nl, _ = bench_design()
    result, _ = topo_attack(nl)
    g = build_ff_graph(nl)
    for f in result.identified:
        assert f in g.comb[f]


def test_topo_attack_baseline_full_sensitivity():
    nl, gt = bench_design()
    result, _ = topo_attack(nl, truth=gt.sffs)
    assert result.sensitivity == 1.0


def test_ra_treated_sff_removed_with_provenance():
    nl, gt = bench_design(one_hot=True)
    target = sorted(gt.sffs)[0]
    nl2 = rewrite_ra(nl, gt.sffs, target)
    result, groups = topo_attack(nl2, truth=gt.sffs)
    assert target not in result.identified
    assert result.sensitivity == pytest.approx(1 - 1 / len(gt.sffs))
    reasons = {r.ff: r.reason for g in groups.groups for r in g.removed}
    assert reasons.get(target) == "no_high_fp"


def test_determinism_under_ff_order():
    nl, gt = bench_design()
    from fsmtrap.netlist import Netlist

    shuffled = Netlist(
        nl.name, nl.inputs, nl.outputs, dict(nl.constants), nl.gates, tuple(reversed(nl.ffs))
    )
    a, _ = topo_attack(nl)
    b, _ = topo_attack(shuffled)
    assert a.identified == b.identified


def test_groups_report_format():
    nl, _ = bench_design()
    _, groups = topo_attack(nl)
    text = groups.to_text()
    assert "group " in text
    assert "step=" in text and "removed=" in text and "reason=" in text


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"control_step": "functinal"}, "TopoParams.control_step must be off, structural or"),
        ({"influence_threshold": -0.1}, r"TopoParams.influence_threshold must be in \[0, 1\]"),
        ({"influence_threshold": 1.5}, r"TopoParams.influence_threshold must be in \[0, 1\]"),
        ({"functional_max_vars": -1}, "TopoParams.functional_max_vars must be >= 0"),
    ],
    ids=["control-step", "theta-negative", "theta-above-one", "max-vars-negative"],
)
def test_topo_params_reject_values_they_would_reinterpret(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TopoParams(**kwargs)


def test_topo_params_accept_their_bounds():
    for step in ("off", "structural", "functional"):
        TopoParams(control_step=step)
    TopoParams(influence_threshold=0.0, functional_max_vars=0)
    TopoParams(influence_threshold=1.0)
