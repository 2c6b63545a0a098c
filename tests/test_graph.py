import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from fsmtrap.graph import (
    FeedbackClass,
    FfGraph,
    build_ff_graph,
    classify_feedback,
    control_signals,
    influences,
    influences_functional,
    label_sccs,
    tarjan_scc,
    _net_support,
    _tarjan,
)
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import FlipFlop, Gate, Netlist, parse, topo_gates
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
from oracles import eval_comb, input_cone, support_of


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
        got = _tarjan(g)
        expected = [
            tuple(names[i] for i in grp) for grp in _closure_scc_oracle(n, edges)
        ]
        assert sorted(got) == sorted(expected)
        multi = tarjan_scc(g)
        assert multi.sccs == sorted(
            [c for c in expected if len(c) > 1], key=lambda c: c[0]
        )


def test_one_scc_pass_per_netlist_in_the_attack_recipe(monkeypatch):
    # The recipe asks for components four times on one netlist: its own
    # ``tarjan_scc``, ``zscores`` (``on_cycle``), ``relic_tarjan`` and
    # ``topo_attack``'s split.  One Tarjan pass must serve all of them.
    import fsmtrap.graph as graph_mod

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import recipes
    from tracing import NullTracer

    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    graphs = []
    tarjan = graph_mod._tarjan

    def counting(g):
        graphs.append(g)
        return tarjan(g)

    monkeypatch.setattr(graph_mod, "_tarjan", counting)
    built = []
    build = recipes.build_ff_graph
    monkeypatch.setattr(recipes, "build_ff_graph", lambda nl: built.append(nl) or build(nl))
    digest = recipes.attack(NullTracer(), fsm, dp)
    assert digest["relic"][1] == 1.0 and digest["topo"][1] == 1.0
    assert len(built) == 1
    assert graphs == [build_ff_graph(built[0])]


def test_tarjan_scc_hands_out_fresh_lists():
    nl = parse(
        "input clk\n"
        "gate BUF b0 n0 f1_q\n"
        "gate BUF b1 n1 f0_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    g = build_ff_graph(nl)
    first = tarjan_scc(g)
    first.sccs.append(("x",))
    first.sccs.pop(0)
    second = tarjan_scc(g)
    assert second.sccs == [("f0", "f1")] and second.sccs is not first.sccs
    assert g.on_cycle == frozenset({"f0", "f1"})


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
    assert classify_feedback(nl, "f0", set()) is FeedbackClass.HIGH
    assert classify_feedback(nl, "f1", {"f0"}) is FeedbackClass.MEDIUM
    assert classify_feedback(nl, "f1", set()) is FeedbackClass.LOW


def test_classify_feedback_none():
    nl = parse(
        "input clk\ninput a\n"
        "gate BUF g0 n0 a\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
    )
    assert classify_feedback(nl, "f0", set()) is FeedbackClass.NONE


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
    ffs, pis = support_of(nl, dst_net)
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


def test_influences_functional_of_an_unknown_ff_is_false():
    nl = random_seq_netlist(0, n_ffs=5, n_gates=20)
    assert influences_functional(nl, "no_such_ff", nl.gates[-1].out) is False
    with pytest.raises(KeyError):
        influences_functional(nl, nl.ffs[0].name, "no_such_net")


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


# -- support masks and topological order --------------------------------------


def _reference_support(nl):
    """Oracle: every net's (FF names, PIs) as frozensets, each gate's the
    union of its inputs'; gates are taken in sweeps over the list until every
    one is done, so no topological sort is needed."""
    support = {}
    for n in nl.inputs:
        support[n] = (frozenset(), frozenset([n]))
    for n in nl.constants:
        support[n] = (frozenset(), frozenset())
    for f in nl.ffs:
        support[f.q] = (frozenset([f.name]), frozenset())
    pending = list(nl.gates)
    while pending:
        later = []
        for g in pending:
            if not all(n in support for n in g.ins):
                later.append(g)
                continue
            ffs: set = set()
            pis: set = set()
            for src in g.ins:
                a, b = support[src]
                ffs |= a
                pis |= b
            support[g.out] = (frozenset(ffs), frozenset(pis))
        assert len(later) < len(pending)
        pending = later
    return support


def _attack_design(seed):
    """One of the benchmark's attack designs (128 states, 32-bit data, 8 data
    pairs, 8 inputs)."""
    fsm, dp = gen_benchmark(
        BenchmarkSpec(seed=seed, n_states=128, data_width=32, n_data_pairs=8, n_inputs=8)
    )
    return synthesize(fsm, dp)[0]


def _mux_select_decoy():
    """A hand-built decoy attached at MUX selects: each select is an OR mix
    of a live net and a constant-0-gated decoy flip-flop, and the mix gates
    are listed after the MUXes, so the gate list is not in topological order."""
    base = random_seq_netlist(3, n_ffs=6, n_gates=30)
    nets = [g.out for g in base.gates]
    muxes = tuple(
        Gate(f"m{k}", "MUX", f"m{k}", (f"hp_mix_{k}_o", nets[5 * k + 1], nets[-1 - k]))
        for k in range(3)
    )
    decoy = (
        Gate("hp_d", "XOR", "hp_d_o", ("hp_st_q", "b")),
        Gate("hp_zn", "NOT", "hp_zn_o", ("a",)),
        Gate("hp_zero", "AND", "hp_zero_o", ("a", "hp_zn_o")),
    )
    mixes = []
    for k in range(3):
        mixes.append(Gate(f"hp_gate_{k}", "AND", f"hp_gate_{k}_o", ("hp_st_q", "hp_zero_o")))
        mixes.append(Gate(f"hp_mix_{k}", "OR", f"hp_mix_{k}_o", (nets[5 * k], f"hp_gate_{k}_o")))
    ffs = tuple(replace(f, d=f"m{i % 3}") for i, f in enumerate(base.ffs))
    hp_st = FlipFlop("hp_st", q="hp_st_q", d="hp_d_o", clk="clk", rst="rst")
    gates = base.gates + muxes + decoy + tuple(mixes)
    return Netlist("muxed", base.inputs, (), {}, gates, ffs + (hp_st,))


def _reversed(nl):
    return Netlist(nl.name, nl.inputs, nl.outputs, nl.constants, nl.gates[::-1], nl.ffs)


@pytest.fixture(scope="module")
def attack_designs():
    return [_attack_design(0), _attack_design(1)]


@pytest.fixture(scope="module")
def support_designs(attack_designs):
    designs = [random_seq_netlist(seed, n_ffs=3 + seed % 6) for seed in range(40)]
    return designs + attack_designs + [_mux_select_decoy()]


def test_mux_select_decoy_is_out_of_order():
    nl = _mux_select_decoy()
    selects = {g.ins[0] for g in nl.gates if g.kind == "MUX"}
    assert any(s.startswith("hp_mix_") for s in selects)
    assert topo_gates(nl) != list(nl.gates)


@pytest.mark.parametrize("listing", ["listed", "reversed"])
def test_net_support_matches_reference(support_designs, listing):
    for nl in support_designs:
        if listing == "reversed":
            nl = _reversed(nl)
        expected = _reference_support(nl)
        assert set(_net_support(nl).masks) == set(expected)
        for net, pair in expected.items():
            assert support_of(nl, net) == pair, net


@pytest.mark.parametrize("seed", range(8))
def test_influences_matches_reference_support(seed):
    nl = _reversed(random_seq_netlist(seed, n_ffs=5, n_gates=25))
    expected = _reference_support(nl)
    for f in nl.ffs:
        for net, (ffs, _) in expected.items():
            assert influences(nl, f.name, net) == (f.name in ffs)


def test_topo_gates_keeps_synthesized_order(attack_designs):
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=2))
    for nl in [synthesize(fsm, dp)[0]] + attack_designs:
        assert topo_gates(nl) == list(nl.gates)


def _assert_topological(nl, order):
    assert sorted(g.name for g in order) == sorted(g.name for g in nl.gates)
    done = set(nl.inputs) | set(nl.constants) | {f.q for f in nl.ffs}
    for g in order:
        assert done.issuperset(g.ins), g.name
        done.add(g.out)


def test_topo_gates_orders_shuffled_lists(support_designs):
    rng = random.Random(17)
    for nl in support_designs:
        gates = list(nl.gates)
        rng.shuffle(gates)
        for listing in (tuple(gates), nl.gates[::-1]):
            shuffled = Netlist(nl.name, nl.inputs, nl.outputs, nl.constants, listing, nl.ffs)
            _assert_topological(shuffled, topo_gates(shuffled))
