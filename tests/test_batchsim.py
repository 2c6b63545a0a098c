import numpy as np
import pytest

from fsmtrap.batchsim import (
    batch_step,
    compile_netlist,
    eval_outputs,
    propagate,
)
from fsmtrap.netlist import eval_comb, parse, step

from conftest import random_comb_netlist, random_seq_netlist


def _random_assign_matrix(nl, cn, n, seed):
    rng = np.random.default_rng(seed)
    pis = rng.integers(0, 2, (len(nl.inputs), n), dtype=np.uint8)
    qs = rng.integers(0, 2, (len(nl.ffs), n), dtype=np.uint8)
    values = cn.new_values(n)
    values[cn.pi_rows] = pis
    if len(nl.ffs):
        values[cn.q_rows] = qs
    return values, pis, qs


@pytest.mark.parametrize("seed", range(5))
def test_numpy_kernel_matches_scalar(seed):
    nl = random_comb_netlist(seed, n_gates=40)
    cn = compile_netlist(nl)
    values, pis, _ = _random_assign_matrix(nl, cn, 64, seed)
    propagate(cn, values)
    for v in range(0, 64, 7):
        assign = {nl.inputs[i]: int(pis[i, v]) for i in range(len(nl.inputs))}
        ref = eval_comb(nl, assign)
        for net, row in cn.net_index.items():
            assert ref[net] == int(values[row, v])


def test_batch_step_matches_scalar_step():
    nl = random_seq_netlist(7)
    cn = compile_netlist(nl)
    rng = np.random.default_rng(1)
    state = {f.name: int(rng.integers(0, 2)) for f in nl.ffs}
    pis = rng.integers(0, 2, (len(nl.inputs), 16), dtype=np.uint8)
    state_vec = np.array([state[f.name] for f in nl.ffs], dtype=np.uint8)
    nxt = batch_step(cn, state_vec, pis)
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
    nxt = batch_step(cn, np.array([1], dtype=np.uint8), pis)
    # en=0 holds the 1; en=1 captures d
    assert nxt.tolist() == [[1, 1, 0, 1]]


def test_eval_outputs_selected_rows():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    cn = compile_netlist(nl)
    assign = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    out = eval_outputs(cn, assign, np.array([cn.row("o")]))
    assert out.tolist() == [[0, 0, 1]]
