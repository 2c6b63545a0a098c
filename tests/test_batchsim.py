import random

import numpy as np
import pytest

from fsmtrap.batchsim import (
    batch_step,
    compile_netlist,
    eval_outputs,
    pack,
    unpack,
)
from fsmtrap.netlist import FlipFlop, Gate, Netlist, parse

from conftest import random_comb_netlist, random_seq_netlist
from oracles import eval_comb, step


def _all_rows(cn):
    nets = list(cn.net_index)
    return nets, np.array([cn.row(n) for n in nets])


@pytest.mark.parametrize("seed", range(5))
def test_numpy_kernel_matches_scalar(seed):
    nl = random_comb_netlist(seed, n_gates=40)
    cn = compile_netlist(nl)
    rng = np.random.default_rng(seed)
    pis = rng.integers(0, 2, (len(nl.inputs), 64), dtype=np.uint8)
    nets, rows = _all_rows(cn)
    values = eval_outputs(cn, pis, rows)
    for v in range(64):
        assign = {nl.inputs[i]: int(pis[i, v]) for i in range(len(nl.inputs))}
        ref = eval_comb(nl, assign)
        for net, got in zip(nets, values[:, v].tolist()):
            assert ref[net] == got


def _kernel_netlist(seed: int) -> Netlist:
    """Every gate kind (2- and 3-input folds), constant-0/1 nets, and FFs
    with and without an enable, wired at random."""
    rng = random.Random(seed)
    inputs = ["clk", "rst", "a", "b", "c"]
    constants = {"k1": 1, "k0": 0}
    n_ffs = 6
    nets = ["a", "b", "c", "k1", "k0"] + [f"f{k}_q" for k in range(n_ffs)]
    kinds = ["NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX"]
    gates = []
    for k in range(45):
        kind = kinds[k % len(kinds)]
        if kind in ("NOT", "BUF"):
            arity = 1
        elif kind == "MUX":
            arity = 3
        else:
            arity = rng.choice((2, 3, 4))
        gates.append(Gate(f"g{k}", kind, f"n{k}", tuple(rng.choice(nets) for _ in range(arity))))
        nets.append(f"n{k}")
    ffs = [
        FlipFlop(
            f"f{k}",
            q=f"f{k}_q",
            d=rng.choice(nets),
            clk="clk",
            rst="rst" if k % 3 else None,
            en=rng.choice(nets) if k % 2 else None,
        )
        for k in range(n_ffs)
    ]
    return Netlist("kernel", tuple(inputs), (), constants, tuple(gates), tuple(ffs))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
def test_packed_kernel_matches_scalar_across_word_edges(n):
    nl = _kernel_netlist(n)
    assert {g.kind for g in nl.gates} == {
        "NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX"
    }
    cn = compile_netlist(nl)
    rng = np.random.default_rng(n)
    pis = rng.integers(0, 2, (len(nl.inputs), n), dtype=np.uint8)
    states = rng.integers(0, 2, (len(nl.ffs), n), dtype=np.uint8)

    nets, rows = _all_rows(cn)
    values = eval_outputs(cn, np.concatenate([pis, states]), rows)
    per_vector = batch_step(cn, states, pis)
    shared = batch_step(cn, np.repeat(states[:, :1], n, axis=1), pis)
    assert per_vector.dtype == shared.dtype == np.uint8
    assert per_vector.shape == shared.shape == (len(nl.ffs), n)
    for v in range(n):
        vec = {nl.inputs[i]: int(pis[i, v]) for i in range(len(nl.inputs))}
        state = {f.name: int(states[i, v]) for i, f in enumerate(nl.ffs)}
        assign = dict(vec, **{f.q: state[f.name] for f in nl.ffs})
        ref = eval_comb(nl, assign)
        assert dict(zip(nets, values[:, v].tolist())) == ref
        nxt = step(nl, state, vec)
        assert per_vector[:, v].tolist() == [nxt[f.name] for f in nl.ffs]
        state0 = {f.name: int(states[i, 0]) for i, f in enumerate(nl.ffs)}
        nxt0 = step(nl, state0, vec)
        assert shared[:, v].tolist() == [nxt0[f.name] for f in nl.ffs]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200])
def test_pack_roundtrip(n):
    bits = np.random.default_rng(n).integers(0, 2, (3, n), dtype=np.uint8)
    ints = pack(bits)
    assert len(ints) == 3
    assert np.array_equal(unpack(ints, n), bits)
    # One int per row, each below 2**n; vector j is bit j.
    for row, v in zip(bits, ints):
        assert 0 <= v < 1 << n
        assert [(v >> j) & 1 for j in range(n)] == row.tolist()


def test_batch_step_matches_scalar_step():
    nl = random_seq_netlist(7)
    cn = compile_netlist(nl)
    rng = np.random.default_rng(1)
    state = {f.name: int(rng.integers(0, 2)) for f in nl.ffs}
    pis = rng.integers(0, 2, (len(nl.inputs), 16), dtype=np.uint8)
    state_vec = np.array([state[f.name] for f in nl.ffs], dtype=np.uint8)
    nxt = batch_step(cn, np.repeat(state_vec[:, None], 16, axis=1), pis)
    for v in range(16):
        vec = {nl.inputs[i]: int(pis[i, v]) for i in range(len(nl.inputs))}
        ref = step(nl, state, vec)
        got = {nl.ffs[i].name: int(nxt[i, v]) for i in range(len(nl.ffs))}
        assert got == ref


def test_batch_step_respects_enable():
    nl = parse(
        "input clk\ninput en\ninput d\n"
        "dff f q=q d=d clk=clk en=en\n"
    )
    cn = compile_netlist(nl)
    pis = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
    nxt = batch_step(cn, np.array([[1, 1, 1, 1]], dtype=np.uint8), pis)
    # en=0 holds the 1; en=1 captures d
    assert nxt.tolist() == [[1, 1, 0, 1]]
    # One state per vector: en=0 holds each column's own bit.
    nxt = batch_step(cn, np.array([[0, 1, 1, 0]], dtype=np.uint8), pis)
    assert nxt.tolist() == [[0, 1, 0, 1]]


def test_eval_outputs_selected_rows():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    cn = compile_netlist(nl)
    assign = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    out = eval_outputs(cn, assign, np.array([cn.row("o")]))
    assert out.tolist() == [[0, 0, 1]]


def _with_gates(nl: Netlist, gates) -> Netlist:
    return Netlist(nl.name, nl.inputs, nl.outputs, nl.constants, nl.gates + tuple(gates), nl.ffs)


def _matches_eval_comb(nl: Netlist, n: int, seed: int) -> None:
    """Every net of ``nl``, each one in ``net_index``, equals ``eval_comb``
    on ``n`` random assignments."""
    cn = compile_netlist(nl)
    assert set(cn.net_index) == (
        set(nl.inputs) | set(nl.constants) | {f.q for f in nl.ffs} | {g.out for g in nl.gates}
    )
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, 2, (len(nl.inputs) + len(nl.ffs), n), dtype=np.uint8)
    nets, rows = _all_rows(cn)
    values = eval_outputs(cn, assign, rows)
    for v in range(n):
        vec = dict(zip(list(nl.inputs) + [f.q for f in nl.ffs], assign[:, v].tolist()))
        assert dict(zip(nets, values[:, v].tolist())) == eval_comb(nl, vec)


@pytest.mark.parametrize("seed", range(8))
def test_injected_duplicates_share_rows(seed):
    # Commuted copies of symmetric gates, BUF chains and repeated NOTs of
    # one net compile to no gate beyond the first of each; so do gates that
    # read a duplicate where another reads its original.
    base = random_comb_netlist(seed, n_gates=40) if seed % 2 else _kernel_netlist(seed)
    rng = random.Random(seed)
    nets = [*base.inputs, *base.constants, *(f.q for f in base.ffs), *(g.out for g in base.gates)]
    once, dups = [], []
    for k, g in enumerate(base.gates):
        if g.kind in ("AND", "OR", "NAND", "NOR", "XOR", "XNOR") and rng.random() < 0.5:
            ins = list(g.ins)
            rng.shuffle(ins)
            other = rng.choice(nets)
            dups += [
                Gate(f"c{k}", g.kind, f"c{k}_o", tuple(reversed(ins))),
                Gate(f"c{k}_u", "OR", f"c{k}_u_o", (other, f"c{k}_o")),
            ]
            once.append(Gate(f"c{k}_v", "OR", f"c{k}_v_o", (g.out, other)))
    for k in range(6):
        x = rng.choice(nets)
        src = x
        for j in range(rng.randint(1, 3)):
            dups.append(Gate(f"b{k}_{j}", "BUF", f"b{k}_{j}_o", (src,)))
            src = f"b{k}_{j}_o"
        once.append(Gate(f"n{k}_a", "NOT", f"n{k}_a_o", (x,)))
        dups.append(Gate(f"n{k}_b", "NOT", f"n{k}_b_o", (src,)))
    plain = _with_gates(base, once)
    injected = _with_gates(base, once + dups)
    assert len(compile_netlist(injected).gates) == len(compile_netlist(plain).gates)
    cn = compile_netlist(injected)
    for k in range(6):
        assert cn.row(f"n{k}_b_o") == cn.row(f"n{k}_a_o")
    _matches_eval_comb(injected, 64, seed)


def test_mux_with_swapped_data_inputs_does_not_merge():
    nl = parse(
        "input s\ninput a\ninput b\n"
        "gate MUX m0 o0 s a b\ngate MUX m1 o1 s b a\ngate MUX m2 o2 s a b\n"
        "gate AND g0 p0 a b\ngate AND g1 p1 b a\n"
    )
    cn = compile_netlist(nl)
    assert cn.row("o0") == cn.row("o2") != cn.row("o1")
    assert cn.row("p0") == cn.row("p1")
    assert len(cn.gates) == 3
    _matches_eval_comb(nl, 8, 0)


def _cone(nl: Netlist, net: str) -> list:
    """The gates in ``net``'s combinational fan-in."""
    by_out = {g.out: g for g in nl.gates}
    cone, stack = {}, [net]
    while stack:
        g = by_out.get(stack.pop())
        if g is not None and g.out not in cone:
            cone[g.out] = g
            stack.extend(g.ins)
    return list(cone.values())


@pytest.mark.parametrize("seed", range(4))
def test_renamed_cone_copy_adds_no_gate(seed):
    nl = _kernel_netlist(seed)
    d = max((f.d for f in nl.ffs), key=lambda net: len(_cone(nl, net)))
    cone = _cone(nl, d)
    assert len(cone) > 3
    rename = {g.out: f"copy_{g.out}" for g in cone}
    copy = [
        Gate(f"copy_{g.name}", g.kind, rename[g.out], tuple(rename.get(n, n) for n in g.ins))
        for g in cone
    ]
    both = Netlist(nl.name, nl.inputs, (rename[d],), nl.constants, nl.gates + tuple(copy), nl.ffs)
    assert len(compile_netlist(both).gates) == len(compile_netlist(nl).gates)
    _matches_eval_comb(both, 16, seed)
