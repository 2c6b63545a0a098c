"""Netlist evaluation over batches of vectors, one Python int per row.

State-transition-graph extraction and functional-equivalence checks evaluate
the same combinational network over many vectors; this module compiles a
netlist into a flat gate program once and propagates a whole batch with one
interpreted loop.  Compilation hash-conses the program, as logic tools'
structural hashing does: a BUF output shares its input's row, and gates of
one kind over the same input rows (in any order, except a MUX's) share one
row, so each distinct gate is evaluated once however many nets it drives.
The kernel holds one Python int per row; bit j of every int is vector j, so
every gate is a few int operations over the whole batch.  A constant-1 net
and an inverted gate output use the batch's all-ones ``mask``
(``(1 << n) - 1``), which keeps every value in ``[0, mask]``.  Callers pass
and receive 0/1 ``uint8`` matrices with one column per vector;
``batch_step`` and ``eval_outputs`` pack on the way in and unpack on the way
out.  An ``eval_outputs`` assignment has one row per PI, then one per q net
in ``nl.ffs`` order: the bit order of ``graph.NetSupport``'s support masks.  ``stg.extract_stg`` steps one BFS level (every frontier state under
every input vector) per ``batch_step`` call, on a program cut to the
sequential cone of the flip-flops it tracks (``_restrict``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .netlist import Netlist, topo_gates

# Per gate kind: the int operation folded over its inputs (None for MUX) and
# whether the result is then inverted.  NOT has one input, so its fold never
# runs; BUF compiles to no gate at all.
_KIND = {
    "NOT": (operator.and_, True),
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
    """Flat form of a netlist: a hash-consed gate program in topological
    order over ``n_rows`` value rows."""

    net_index: dict  # net -> its row; nets with the same function may share one
    n_rows: int
    gates: tuple  # (fold, inverted, output row, input rows) per distinct gate, topological
    pi_rows: tuple
    one_rows: tuple  # rows of constant-1 nets
    q_rows: tuple  # one per FF, in the netlist's FF order
    ff_rows: tuple  # (d row, q row, enable row or None) per FF

    def row(self, net: str) -> int:
        return self.net_index[net]


def compile_netlist(nl: Netlist) -> CompiledNetlist:
    cached = nl._cache.get("compiled")
    if cached is not None:
        return cached
    # PIs, constants and q nets get a row each; a gate gets a new row only
    # if no earlier gate has its kind and input rows.
    sources = [*nl.inputs, *nl.constants, *(f.q for f in nl.ffs)]
    net_index = {n: i for i, n in enumerate(sources)}
    rows_of: dict = {}  # (kind, input rows) -> output row
    gates = []
    for g in topo_gates(nl):
        ins = tuple(map(net_index.__getitem__, g.ins))
        if g.kind == "BUF":
            net_index[g.out] = ins[0]
            continue
        key = (g.kind, ins if g.kind == "MUX" else tuple(sorted(ins)))
        row = rows_of.get(key)
        if row is None:
            row = rows_of[key] = len(sources) + len(gates)
            gates.append((*_KIND[g.kind], row, key[1]))
        net_index[g.out] = row

    cn = CompiledNetlist(
        net_index=net_index,
        n_rows=len(sources) + len(gates),
        gates=tuple(gates),
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


def _restrict(cn: CompiledNetlist, ffs: Sequence[int]) -> CompiledNetlist:
    """``cn`` cut to the FFs at indices ``ffs``: only their q and next-state
    rows, and only the gates in the fan-in of their d and enable rows.

    ``batch_step`` on the result takes and returns those FFs' rows alone.
    Exact when no other FF is in that fan-in: their q rows are never read.
    """
    ff_rows = tuple(cn.ff_rows[i] for i in ffs)
    live = {r for d, _, en in ff_rows for r in (d, en) if r is not None}
    kept = []
    for gate in reversed(cn.gates):
        if gate[2] in live:
            live.update(gate[3])
            kept.append(gate)
    return replace(
        cn,
        gates=tuple(reversed(kept)),
        q_rows=tuple(cn.q_rows[i] for i in ffs),
        ff_rows=ff_rows,
    )


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


def _vector_bits(n: int) -> np.ndarray:
    """(n, 2**n) 0/1 matrix of every assignment of ``n`` variables: column v
    gives variable k the bit k of v counted from the left."""
    return (np.arange(1 << n) >> (n - 1 - np.arange(n))[:, None]) & 1


def propagate(cn: CompiledNetlist, values: list, mask: int) -> None:
    """Fill every gate-output entry of ``values`` (one int per row) from its
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
    """Every row's int after propagation over ``n`` vectors, with the PI then
    q rows set to ``ints`` and constant-1 rows to all ones."""
    mask = (1 << n) - 1
    values = [0] * cn.n_rows
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
    """Step one clock for a batch: pi_matrix is (n_pis, n) and state is
    (n_ffs, n), one state per vector, over the FFs of ``cn`` (all of the
    netlist's, or those a ``_restrict`` kept).

    Returns the (n_ffs, n) 0/1 uint8 matrix of next states, one column per
    vector; no reset, and an FF whose enable is 0 holds its q.
    """
    n = pi_matrix.shape[1]
    values = _simulate(cn, pack(pi_matrix) + pack(state), n)
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
