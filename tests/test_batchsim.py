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
