"""Vectorized netlist evaluation over batches of input vectors.

State-transition-graph extraction and functional-equivalence checks evaluate
the same combinational network thousands of times; this module compiles a
netlist into flat arrays once and propagates whole batches of vectors with
one numpy kernel, one row per net and one column per vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import Netlist, topo_gates

OP_NOT, OP_BUF, OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_MUX = range(9)
_OPCODE = {
    "NOT": OP_NOT,
    "BUF": OP_BUF,
    "AND": OP_AND,
    "OR": OP_OR,
    "NAND": OP_NAND,
    "NOR": OP_NOR,
    "XOR": OP_XOR,
    "XNOR": OP_XNOR,
    "MUX": OP_MUX,
}


@dataclass(eq=False)
class CompiledNetlist:
    """Flat-array form of a netlist, gates pre-sorted topologically."""

    nl: Netlist
    net_index: dict
    n_nets: int
    ops: np.ndarray
    out_idx: np.ndarray
    in_off: np.ndarray
    in_idx: np.ndarray
    pi_rows: np.ndarray
    const_rows: np.ndarray
    const_vals: np.ndarray
    q_rows: np.ndarray
    d_rows: np.ndarray
    en_rows: np.ndarray  # -1 where absent

    def new_values(self, n_vectors: int) -> np.ndarray:
        values = np.zeros((self.n_nets, n_vectors), dtype=np.uint8)
        values[self.const_rows] = self.const_vals[:, None]
        return values

    def row(self, net: str) -> int:
        return self.net_index[net]


def compile_netlist(nl: Netlist) -> CompiledNetlist:
    cached = nl._cache.get("compiled")
    if cached is not None:
        return cached
    order = topo_gates(nl)
    net_index: dict[str, int] = {}

    def idx(net: str) -> int:
        i = net_index.get(net)
        if i is None:
            i = len(net_index)
            net_index[net] = i
        return i

    for n in nl.inputs:
        idx(n)
    for n in nl.constants:
        idx(n)
    for f in nl.ffs:
        idx(f.q)
    for g in order:
        for n in g.ins:
            idx(n)
        idx(g.out)
    for f in nl.ffs:
        idx(f.d)
        if f.en is not None:
            idx(f.en)

    ops = np.array([_OPCODE[g.kind] for g in order], dtype=np.int8)
    out_idx = np.array([net_index[g.out] for g in order], dtype=np.int64)
    in_off = np.zeros(len(order) + 1, dtype=np.int64)
    flat: list[int] = []
    for i, g in enumerate(order):
        flat.extend(net_index[n] for n in g.ins)
        in_off[i + 1] = len(flat)
    in_idx = np.array(flat, dtype=np.int64) if flat else np.zeros(0, dtype=np.int64)

    cn = CompiledNetlist(
        nl=nl,
        net_index=net_index,
        n_nets=len(net_index),
        ops=ops,
        out_idx=out_idx,
        in_off=in_off,
        in_idx=in_idx,
        pi_rows=np.array([net_index[n] for n in nl.inputs], dtype=np.int64),
        const_rows=np.array([net_index[n] for n in nl.constants], dtype=np.int64),
        const_vals=np.array([nl.constants[n] for n in nl.constants], dtype=np.uint8),
        q_rows=np.array([net_index[f.q] for f in nl.ffs], dtype=np.int64),
        d_rows=np.array([net_index[f.d] for f in nl.ffs], dtype=np.int64),
        en_rows=np.array(
            [net_index[f.en] if f.en is not None else -1 for f in nl.ffs], dtype=np.int64
        ),
    )
    nl._cache["compiled"] = cn
    return cn


def propagate(cn: CompiledNetlist, values: np.ndarray) -> None:
    """Fill all gate-output rows given assigned PI, constant, and q rows."""
    ops, out_idx, in_off, in_idx = cn.ops, cn.out_idx, cn.in_off, cn.in_idx
    for g in range(ops.shape[0]):
        op = ops[g]
        s = in_off[g]
        e = in_off[g + 1]
        rows = values[in_idx[s:e]]
        if op == OP_NOT:
            res = 1 - rows[0]
        elif op == OP_BUF:
            res = rows[0]
        elif op == OP_AND:
            res = np.bitwise_and.reduce(rows, axis=0)
        elif op == OP_OR:
            res = np.bitwise_or.reduce(rows, axis=0)
        elif op == OP_NAND:
            res = 1 - np.bitwise_and.reduce(rows, axis=0)
        elif op == OP_NOR:
            res = 1 - np.bitwise_or.reduce(rows, axis=0)
        elif op == OP_XOR:
            res = np.bitwise_xor.reduce(rows, axis=0)
        elif op == OP_XNOR:
            res = 1 - np.bitwise_xor.reduce(rows, axis=0)
        else:  # MUX
            res = np.where(rows[0] == 0, rows[1], rows[2])
        values[out_idx[g]] = res


def next_states(cn: CompiledNetlist, values: np.ndarray) -> np.ndarray:
    """Next q matrix (n_ffs x n_vectors) from propagated values; no reset."""
    q = values[cn.q_rows]
    d = values[cn.d_rows]
    nxt = d.copy()
    for i, en_row in enumerate(cn.en_rows):
        if en_row >= 0:
            hold = values[en_row] == 0
            nxt[i][hold] = q[i][hold]
    return nxt


def batch_step(
    cn: CompiledNetlist,
    state: np.ndarray,
    pi_matrix: np.ndarray,
) -> np.ndarray:
    """Step one clock for a batch: state is (n_ffs,), pi_matrix (n_pis, n).

    Returns the (n_ffs, n) matrix of next states, one column per vector.
    """
    n = pi_matrix.shape[1]
    values = cn.new_values(n)
    values[cn.pi_rows] = pi_matrix
    values[cn.q_rows] = np.asarray(state, dtype=np.uint8)[:, None]
    propagate(cn, values)
    return next_states(cn, values)


def eval_outputs(
    cn: CompiledNetlist,
    assign_matrix: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Evaluate selected net rows for a batch of full (PI + q) assignments.

    ``assign_matrix`` stacks PI rows then q rows, matching
    ``np.concatenate([pi_rows, q_rows])`` order.
    """
    n = assign_matrix.shape[1]
    values = cn.new_values(n)
    src = np.concatenate([cn.pi_rows, cn.q_rows])
    values[src] = assign_matrix
    propagate(cn, values)
    return values[rows]


def using_numba() -> bool:
    """Always False: numpy is the only kernel (kept for benchmark records)."""
    return False
