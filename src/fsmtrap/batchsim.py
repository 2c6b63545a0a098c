"""Netlist evaluation over batches of vectors, one Python int per net.

State-transition-graph extraction and functional-equivalence checks evaluate
the same combinational network over many vectors; this module compiles a
netlist into a flat gate program once and propagates a whole batch with one
interpreted loop.  The kernel holds one Python int per net; bit j of every
int is vector j, so every gate is a few int operations over the whole batch.
A constant-1 net and an inverted gate output use the batch's all-ones
``mask`` (``(1 << n) - 1``), which keeps every value in ``[0, mask]``.
Callers pass and receive 0/1 ``uint8`` matrices with one column per vector;
``batch_step`` and ``eval_outputs`` pack on the way in and unpack on the way
out.  ``stg.extract_stg`` steps one BFS level (every frontier state under
every input vector) per ``batch_step`` call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .netlist import Netlist, topo_gates

# Per gate kind: the int operation folded over its inputs (None for MUX) and
# whether the result is then inverted.  NOT and BUF have one input, so their
# fold never runs.
_KIND = {
    "NOT": (operator.and_, True),
    "BUF": (operator.and_, False),
    "AND": (operator.and_, False),
    "OR": (operator.or_, False),
    "NAND": (operator.and_, True),
    "NOR": (operator.or_, True),
    "XOR": (operator.xor, False),
    "XNOR": (operator.xor, True),
    "MUX": (None, False),
}


@dataclass(eq=False)
class CompiledNetlist:
    """Flat form of a netlist: a gate program in topological order."""

    nl: Netlist
    net_index: dict
    n_nets: int
    gates: tuple  # (fold, inverted, output row, input rows) per gate, topological
    pi_rows: tuple
    one_rows: tuple  # rows of constant-1 nets
    q_rows: tuple
    ff_rows: tuple  # (d row, q row, enable row or None) per FF

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

    cn = CompiledNetlist(
        nl=nl,
        net_index=net_index,
        n_nets=len(net_index),
        gates=tuple(
            (*_KIND[g.kind], net_index[g.out], tuple(net_index[n] for n in g.ins))
            for g in order
        ),
        pi_rows=tuple(net_index[n] for n in nl.inputs),
        one_rows=tuple(net_index[n] for n, v in nl.constants.items() if v & 1),
        q_rows=tuple(net_index[f.q] for f in nl.ffs),
        ff_rows=tuple(
            (net_index[f.d], net_index[f.q], None if f.en is None else net_index[f.en])
            for f in nl.ffs
        ),
    )
    nl._cache["compiled"] = cn
    return cn


def pack(bits: np.ndarray) -> list:
    """(rows, n) 0/1 matrix -> one int per row; vector j is bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack(values: list, n: int) -> np.ndarray:
    """Inverse of ``pack``: the low ``n`` bits of each int as a 0/1 uint8
    matrix with one row per int."""
    n_bytes = (n + 7) // 8
    data = b"".join(v.to_bytes(n_bytes, "little") for v in values)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(values), n_bytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def propagate(cn: CompiledNetlist, values: list, mask: int) -> None:
    """Fill every gate-output entry of ``values`` (one int per net) from its
    assigned PI, constant and q entries; ``mask`` has one bit per vector."""
    for fold, inverted, out, ins in cn.gates:
        if fold is None:  # MUX: select, then the 0 and 1 data inputs
            s, b, c = [values[i] for i in ins]
            v = (b & ~s) | (c & s)
        else:
            v = values[ins[0]]
            for i in ins[1:]:
                v = fold(v, values[i])
        values[out] = v ^ mask if inverted else v


def _simulate(cn: CompiledNetlist, ints: list, n: int) -> list:
    """Every net's int after propagation over ``n`` vectors, with the PI then
    q nets set to ``ints`` and constant-1 nets to all ones."""
    mask = (1 << n) - 1
    values = [0] * cn.n_nets
    for r in cn.one_rows:
        values[r] = mask
    for r, v in zip(cn.pi_rows + cn.q_rows, ints):
        values[r] = v
    propagate(cn, values, mask)
    return values


def batch_step(
    cn: CompiledNetlist,
    state: np.ndarray,
    pi_matrix: np.ndarray,
) -> np.ndarray:
    """Step one clock for a batch: pi_matrix is (n_pis, n); state is one
    (n_ffs,) state for every vector or an (n_ffs, n) matrix, one per vector.

    Returns the (n_ffs, n) 0/1 uint8 matrix of next states, one column per
    vector; no reset, and an FF whose enable is 0 holds its q.
    """
    n = pi_matrix.shape[1]
    state = np.asarray(state, dtype=np.uint8)
    if state.ndim == 1:
        q_ints = [(1 << n) - 1 if b else 0 for b in state.tolist()]
    else:
        q_ints = pack(state)
    values = _simulate(cn, pack(pi_matrix) + q_ints, n)
    nxt = []
    for d, q, en in cn.ff_rows:
        if en is None:
            nxt.append(values[d])
        else:
            e = values[en]
            nxt.append((values[d] & e) | (values[q] & ~e))
    return unpack(nxt, n)


def eval_outputs(
    cn: CompiledNetlist,
    assign_matrix: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Evaluate selected net rows for a batch of full (PI + q) assignments.

    ``assign_matrix`` stacks PI rows then q rows, matching
    ``pi_rows + q_rows`` order; the result is the 0/1 uint8 matrix of
    ``rows``, one column per assignment.
    """
    n = assign_matrix.shape[1]
    values = _simulate(cn, pack(assign_matrix), n)
    return unpack([values[r] for r in np.asarray(rows).tolist()], n)


def using_numba() -> bool:
    """Always False: the int kernel is the only one (kept for benchmark records)."""
    return False
