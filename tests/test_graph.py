import random
from dataclasses import replace
from itertools import product

import pytest

from fsmtrap.graph import (
    AnalysisError,
    FeedbackClass,
    FfGraph,
    build_ff_graph,
    classify_feedback,
    control_signals,
    has_any_fp,
    influences,
    influences_functional,
    input_cone,
    label_sccs,
    tarjan_scc,
    _net_support,
)
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import eval_comb, parse
from fsmtrap.synth import (
    Counter,
    DatapathSpec,
    DataReg,
    RegRef,
    ShlOp,
    SynthOptions,
    make_fsm,
    synthesize,
)

from conftest import random_seq_netlist


def test_self_feedback_edge():
    nl = parse(
        "input clk\n"
        "gate NOT g n f_q\n"
        "dff f q=f_q d=n clk=clk\n"
    )
    g = build_ff_graph(nl)
    assert "f" in g.comb["f"]


def test_three_ff_ring():
    nl = parse(
        "input clk\n"
        "gate BUF b0 n0 f2_q\n"
        "gate BUF b1 n1 f0_q\n"
        "gate BUF b2 n2 f1_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
        "dff f2 q=f2_q d=n2 clk=clk\n"
    )
    g = build_ff_graph(nl)
    assert g.comb["f0"] == frozenset({"f1"})
    assert g.comb["f1"] == frozenset({"f2"})
    assert g.comb["f2"] == frozenset({"f0"})
    report = tarjan_scc(g)
    assert report.sccs == [("f0", "f1", "f2")]


def _net_level_path_oracle(nl):
    """Edge oracle: DFS over the net graph from each Q, gates only."""
    consumers = {}
    for g in nl.gates:
        for n in g.ins:
            consumers.setdefault(n, []).append(g)
    d_of = {}
    for f in nl.ffs:
        d_of.setdefault(f.d, []).append(f.name)
    edges = {f.name: set() for f in nl.ffs}
    for f in nl.ffs:
        stack = [f.q]
        seen = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            for tgt in d_of.get(net, ()):
                edges[f.name].add(tgt)
            for g in consumers.get(net, ()):
                stack.append(g.out)
    return edges


@pytest.mark.parametrize("seed", range(8))
def test_ff_graph_matches_path_oracle(seed):
    nl = random_seq_netlist(seed, n_ffs=5, n_gates=25)
    g = build_ff_graph(nl)
    oracle = _net_level_path_oracle(nl)
    assert {k: set(v) for k, v in g.comb.items()} == oracle


def _closure_scc_oracle(n, edges):
    """Mutual-reachability groups via transitive closure (Floyd-Warshall)."""
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    groups = {}
    for i in range(n):
        key = tuple(
            sorted(
                j
                for j in range(n)
                if (reach[i][j] and reach[j][i]) or j == i
            )
        )
        groups[key] = True
    return sorted(groups)


def test_tarjan_matches_closure_oracle_on_200_digraphs():
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randint(1, 12)
        density = rng.uniform(0.05, 0.4)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if rng.random() < density
        ]
        names = [f"v{i:02d}" for i in range(n)]
        comb = {names[i]: frozenset(names[b] for a, b in edges if a == i) for i in range(n)}
        g = FfGraph(nodes=tuple(names), comb=comb)
        got = tarjan_scc(g, include_singletons=True)
        expected = [
            tuple(names[i] for i in grp) for grp in _closure_scc_oracle(n, edges)
        ]
        assert sorted(got.sccs) == sorted(expected)
        multi = tarjan_scc(g)
        assert multi.sccs == sorted(
            [c for c in expected if len(c) > 1], key=lambda c: c[0]
        )


def test_scc_invariants_on_synthesized_design():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(5)],
        ["a"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 5}") for i in range(5)],
    )
    nl, gt = synthesize(fsm, DatapathSpec(counters=(Counter("c", 4),)))
    g = build_ff_graph(nl)
    report = tarjan_scc(g)
    seen = set()
    for members in report.sccs:
        assert not (set(members) & seen), "components must be disjoint"
        seen |= set(members)
        # mutual reachability via comb edges
        for a in members:
            reach = set()
            frontier = {a}
            while frontier:
                nxt = set()
                for x in frontier:
                    for y in g.comb[x]:
                        if y not in reach:
                            reach.add(y)
                            nxt.add(y)
                frontier = nxt
            assert set(members) <= reach | {a}


def _reaches_itself(comb, ff):
    """Path oracle: BFS along comb edges from ff's successors back to ff."""
    seen = set()
    frontier = list(comb[ff])
    while frontier:
        x = frontier.pop()
        if x == ff:
            return True
        if x not in seen:
            seen.add(x)
            frontier.extend(comb[x])
    return False


def _check_on_cycle(nl):
    g = build_ff_graph(nl)
    verdicts = set()
    for f in g.nodes:
        expected = _reaches_itself(g.comb, f)
        assert has_any_fp(nl, f) == expected, f
        assert (f in g.on_cycle) == expected, f
        none = classify_feedback(nl, f, set()) is FeedbackClass.NONE
        assert none == (not expected), f
        verdicts.add(expected)
    return verdicts


def test_on_cycle_matches_path_oracle():
    verdicts = set()
    for seed in range(40):
        n_ffs = 3 + seed % 6
        verdicts |= _check_on_cycle(random_seq_netlist(seed, n_ffs=n_ffs, n_gates=5 * n_ffs))
    assert verdicts == {True, False}


def test_on_cycle_matches_path_oracle_on_synthesized_design():
    # A shift register joins the benchmark design: its FFs form a chain, the
    # only FFs without a feedback path.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=1))
    shift = DataReg("sh", 4, ShlOp(RegRef("sh"), 1))
    nl, _ = synthesize(fsm, replace(dp, data_regs=dp.data_regs + (shift,)))
    assert _check_on_cycle(nl) == {True, False}


def test_dag_has_no_multi_component():
    nl = parse(
        "input clk\ninput a\n"
        "gate BUF b0 n0 a\n"
        "gate BUF b1 n1 f0_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    assert tarjan_scc(build_ff_graph(nl)).sccs == []


def test_two_disjoint_triangles():
    lines = ["input clk"]
    for base in ("a", "b"):
        for i in range(3):
            lines.append(f"gate BUF {base}{i} {base}{i}_n {base}{(i + 1) % 3}_q")
            lines.append(f"dff {base}{i}_f q={base}{i}_q d={base}{i}_n clk=clk")
    nl = parse("\n".join(lines))
    report = tarjan_scc(build_ff_graph(nl))
    assert [len(c) for c in report.sccs] == [3, 3]


def test_classify_feedback_levels():
    # f0 -> f1 -> f0 (through f1), f0 also self via gate
    nl = parse(
        "input clk\n"
        "gate AND g0 n0 f0_q f1_q\n"
        "gate BUF g1 n1 f0_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    assert classify_feedback(nl, "f0") is FeedbackClass.HIGH
    assert classify_feedback(nl, "f1", {"f0"}) is FeedbackClass.MEDIUM
    assert classify_feedback(nl, "f1", set()) is FeedbackClass.LOW


def test_classify_feedback_requires_candidates_for_medium_low():
    nl = parse(
        "input clk\n"
        "gate BUF g0 n0 f1_q\n"
        "gate BUF g1 n1 f0_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    with pytest.raises(AnalysisError):
        classify_feedback(nl, "f0")


def test_classify_feedback_none():
    nl = parse(
        "input clk\ninput a\n"
        "gate BUF g0 n0 a\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
    )
    assert classify_feedback(nl, "f0") is FeedbackClass.NONE


def test_medium_monotone_in_candidates():
    rng = random.Random(11)
    for seed in range(6):
        nl = random_seq_netlist(seed, n_ffs=5, n_gates=20)
        names = [f.name for f in nl.ffs]
        for f in names:
            small = set(rng.sample(names, 2))
            large = small | set(rng.sample(names, 2))
            a = classify_feedback(nl, f, small)
            b = classify_feedback(nl, f, large)
            if a is FeedbackClass.MEDIUM:
                assert b is not FeedbackClass.LOW
            if a is FeedbackClass.HIGH:
                assert b is FeedbackClass.HIGH


def test_input_cone_pi_root():
    nl = parse("input a\ngate BUF g o a\noutput o\n")
    tree = input_cone(nl, "a", 4)
    assert tree.root.kind == "PI" and tree.root.is_leaf


def test_input_cone_depth_limit():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    tree = input_cone(nl, "o", 1)
    assert tree.root.kind == "AND"
    assert [c.kind for c in tree.root.children] == ["PI", "PI"]


def test_input_cone_truncates_at_depth():
    nl = parse(
        "input a\ninput b\n"
        "gate AND g1 n1 a b\n"
        "gate OR g2 n2 n1 a\n"
        "output n2\n"
    )
    tree = input_cone(nl, "n2", 1)
    kinds = sorted(c.kind for c in tree.root.children)
    assert kinds == ["AND", "PI"]
    trunc = [c for c in tree.root.children if c.kind == "AND"][0]
    assert trunc.is_leaf


def test_buffers_transparent_in_cones():
    nl = parse(
        "input a\ninput b\n"
        "gate BUF g1 n1 a\n"
        "gate AND g2 n2 n1 b\n"
        "output n2\n"
    )
    tree = input_cone(nl, "n2", 2)
    assert [c.kind for c in tree.root.children] == ["PI", "PI"]


def test_control_signals_empty_and_mux():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    assert control_signals(nl) == set()
    nl2 = parse("input s\ninput a\ninput b\ngate MUX g o s a b\noutput o\n")
    assert control_signals(nl2) == {"s"}


def test_control_signals_counter_enable():
    fsm = make_fsm(
        "m",
        ["A", "B"],
        ["x"],
        "A",
        [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")],
        moore_outputs={"A": "1", "B": "0"},
    )
    dp = DatapathSpec(counters=(Counter("c", 3, enable="out0"),))
    nl, _ = synthesize(fsm, dp)
    assert "u0_out0" in control_signals(nl)


def test_influences_structural():
    nl = parse(
        "input clk\ninput s\ninput a\ninput x\n"
        "gate MUX g o f_q a x\n"
        "gate BUF gb n x\n"
        "dff f q=f_q d=n clk=clk\n"
        "output o\n"
    )
    assert influences(nl, "f", "o")
    assert not influences(nl, "f", "n")


def test_influence_functional_agreement_rate():
    # Structural True may be functional False; record the rate, require
    # functional True implies structural True.
    rng = random.Random(5)
    disagreements = 0
    total = 0
    for seed in range(6):
        nl = random_seq_netlist(seed, n_ffs=4, n_gates=12)
        nets = [g.out for g in nl.gates][:6]
        for f in (x.name for x in nl.ffs):
            for net in nets:
                struct = influences(nl, f, net)
                fun = influences_functional(nl, f, net, max_vars=10)
                if fun is None:
                    continue
                total += 1
                if fun:
                    assert struct
                elif struct:
                    disagreements += 1
    assert total > 0
    assert 0 <= disagreements <= total


def _reference_influences_functional(nl, src_ff, dst_net, max_vars=10):
    """The scalar loop: two ``eval_comb`` calls per free-variable assignment."""
    ffs, pis = _net_support(nl)[dst_net]
    if src_ff not in ffs:
        return False
    free = sorted(ffs - {src_ff}) + sorted(pis)
    if len(free) > max_vars:
        return None
    q_of = {f.name: f.q for f in nl.ffs}
    base = {n: 0 for n in nl.inputs}
    base.update({f.q: 0 for f in nl.ffs})
    for bits in product((0, 1), repeat=len(free)):
        assign = dict(base)
        for var, val in zip(free, bits):
            assign[q_of.get(var, var)] = val
        assign[q_of[src_ff]] = 0
        v0 = eval_comb(nl, assign)[dst_net]
        assign[q_of[src_ff]] = 1
        v1 = eval_comb(nl, assign)[dst_net]
        if v0 != v1:
            return True
    return False


def test_influences_functional_matches_scalar_reference():
    verdicts = set()
    for seed in range(8):
        nl = random_seq_netlist(seed, n_ffs=5, n_gates=20)
        for max_vars in (10, 2):
            for f in nl.ffs:
                for g in nl.gates:
                    got = influences_functional(nl, f.name, g.out, max_vars=max_vars)
                    assert got == _reference_influences_functional(nl, f.name, g.out, max_vars)
                    verdicts.add(got)
    # Every verdict occurs, None (more free variables than max_vars) included.
    assert verdicts == {True, False, None}


def test_label_sccs():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(4)],
        ["a"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)],
    )
    from fsmtrap.synth import AndOp, DataReg, PinRef, RegRef, XorOp

    dp = DatapathSpec(
        data_regs=(
            DataReg("r0", 3, XorOp(RegRef("r0"), AndOp(RegRef("r1"), PinRef("p")))),
            DataReg("r1", 3, XorOp(RegRef("r1"), AndOp(RegRef("r0"), PinRef("q")))),
        )
    )
    nl, gt = synthesize(fsm, dp)
    report = label_sccs(tarjan_scc(build_ff_graph(nl)), gt.sffs)
    labels = set(report.labels.values())
    assert "fsm" in labels and "data" in labels
    text = report.to_text()
    assert text.startswith("scc 0")
