"""Vectorized netlist evaluation over batches of vectors, 64 per word.

State-transition-graph extraction and functional-equivalence checks evaluate
the same combinational network over many vectors; this module compiles a
netlist into a flat gate program once and propagates a whole batch with one
numpy kernel.  The kernel holds one row of ``uint64`` words per net; bit j of
word w is vector 64*w + j, so every gate is a few word operations over the
whole batch.  Callers pass and receive 0/1 ``uint8`` matrices with one column
per vector; packing and unpacking happen inside ``batch_step`` and
``eval_outputs``.  ``stg.extract_stg`` steps one BFS level (every frontier
state under every input vector) per ``batch_step`` call.
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
# Word function folded over a gate's inputs, and the gates whose result is
# then inverted.
_FOLD = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_NAND: np.bitwise_and,
    OP_NOR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
    OP_XNOR: np.bitwise_xor,
}
_INVERTED = frozenset((OP_NOT, OP_NAND, OP_NOR, OP_XNOR))

_WORD = np.dtype("<u8")
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(eq=False)
class CompiledNetlist:
    """Flat form of a netlist: a gate program in topological order."""

    nl: Netlist
    net_index: dict
    n_nets: int
    gates: tuple  # (opcode, output row, input rows) per gate, topological
    pi_rows: np.ndarray
    one_rows: np.ndarray  # rows of constant-1 nets
    q_rows: np.ndarray
    d_rows: np.ndarray
    en_ffs: np.ndarray  # positions of the FFs that have an enable
    en_rows: np.ndarray  # their enable rows

    def new_words(self, n_words: int) -> np.ndarray:
        """All-zero (n_nets, n_words) word matrix with constant-1 rows set."""
        words = np.zeros((self.n_nets, n_words), dtype=_WORD)
        words[self.one_rows] = _ONES
        return words

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

    def rows(nets) -> np.ndarray:
        return np.array([net_index[n] for n in nets], dtype=np.int64)

    en_ffs = [i for i, f in enumerate(nl.ffs) if f.en is not None]
    cn = CompiledNetlist(
        nl=nl,
        net_index=net_index,
        n_nets=len(net_index),
        gates=tuple(
            (_OPCODE[g.kind], net_index[g.out], _input_rows([net_index[n] for n in g.ins]))
            for g in order
        ),
        pi_rows=rows(nl.inputs),
        one_rows=rows(n for n, v in nl.constants.items() if v & 1),
        q_rows=rows(f.q for f in nl.ffs),
        d_rows=rows(f.d for f in nl.ffs),
        en_ffs=np.array(en_ffs, dtype=np.int64),
        en_rows=rows(nl.ffs[i].en for i in en_ffs),
    )
    nl._cache["compiled"] = cn
    return cn


def _input_rows(rows: list):
    """A gate's input rows: a tuple of ints up to three inputs, else an index
    array, which ``propagate`` folds with one gather and one reduce."""
    return tuple(rows) if len(rows) <= 3 else np.array(rows, dtype=np.int64)


def pack(bits: np.ndarray) -> np.ndarray:
    """(rows, n) 0/1 matrix -> (rows, ceil(n / 64)) words; vector j is bit
    j % 64 of word j // 64."""
    rows, n = bits.shape
    n_bytes = (n + 7) // 8
    out = np.zeros((rows, -(-n_bytes // 8) * 8), dtype=np.uint8)
    out[:, :n_bytes] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(_WORD)


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``pack``: the first ``n`` vectors as a 0/1 uint8 matrix."""
    return np.unpackbits(
        np.ascontiguousarray(words, dtype=_WORD).view(np.uint8),
        axis=1,
        count=n,
        bitorder="little",
    )


def propagate(cn: CompiledNetlist, words: np.ndarray) -> None:
    """Fill every gate-output row of the (n_nets, n_words) ``words`` from
    its assigned PI, constant and q rows."""
    for op, out, ins in cn.gates:
        dst = words[out]
        if op == OP_MUX:
            s = words[ins[0]]
            np.bitwise_or(words[ins[1]] & ~s, words[ins[2]] & s, out=dst)
            continue
        fold = _FOLD.get(op)
        if fold is None:  # NOT, BUF
            dst[:] = words[ins[0]]
        elif type(ins) is tuple:
            fold(words[ins[0]], words[ins[1]], out=dst)
            for i in ins[2:]:
                fold(dst, words[i], out=dst)
        else:
            fold.reduce(words[ins], axis=0, out=dst)
        if op in _INVERTED:
            np.invert(dst, out=dst)


def next_states(cn: CompiledNetlist, words: np.ndarray) -> np.ndarray:
    """Next q words (n_ffs x n_words) from propagated words; no reset.

    An FF whose enable is 0 holds its q."""
    nxt = words[cn.d_rows]
    if cn.en_ffs.size:
        en = words[cn.en_rows]
        held = words[cn.q_rows[cn.en_ffs]]
        nxt[cn.en_ffs] = (nxt[cn.en_ffs] & en) | (held & ~en)
    return nxt


def batch_step(
    cn: CompiledNetlist,
    state: np.ndarray,
    pi_matrix: np.ndarray,
) -> np.ndarray:
    """Step one clock for a batch: pi_matrix is (n_pis, n); state is one
    (n_ffs,) state for every vector or an (n_ffs, n) matrix, one per vector.

    Returns the (n_ffs, n) 0/1 uint8 matrix of next states, one column per
    vector.
    """
    n = pi_matrix.shape[1]
    words = cn.new_words((n + 63) // 64)
    words[cn.pi_rows] = pack(pi_matrix)
    state = np.asarray(state, dtype=np.uint8)
    if state.ndim == 1:
        words[cn.q_rows] = np.where(state[:, None] != 0, _ONES, np.uint64(0))
    else:
        words[cn.q_rows] = pack(state)
    propagate(cn, words)
    return unpack(next_states(cn, words), n)


def eval_outputs(
    cn: CompiledNetlist,
    assign_matrix: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Evaluate selected net rows for a batch of full (PI + q) assignments.

    ``assign_matrix`` stacks PI rows then q rows, matching
    ``np.concatenate([pi_rows, q_rows])`` order; the result is the 0/1
    uint8 matrix of ``rows``, one column per assignment.
    """
    n = assign_matrix.shape[1]
    words = cn.new_words((n + 63) // 64)
    words[np.concatenate([cn.pi_rows, cn.q_rows])] = pack(assign_matrix)
    propagate(cn, words)
    return unpack(words[rows], n)


def using_numba() -> bool:
    """Always False: numpy is the only kernel (kept for benchmark records)."""
    return False
