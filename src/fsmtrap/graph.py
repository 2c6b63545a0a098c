"""Structural analyses over netlists: flip-flop dependency graphs, strongly
connected components, feedback-path strength, and control-signal influence.
Everything here is pure and deterministic.

Combinational support is held as one Python-int mask per net, in the
assignment-row order of ``batchsim.eval_outputs``: bit i is ``nl.inputs[i]``
and bit ``len(nl.inputs) + i`` is ``nl.ffs[i]`` (see ``NetSupport``).  The FF
graph, the control-signal counts of ``relic``, ``influences`` and ``stg`` read
the FF part; ``influences_functional`` takes its assignment rows straight
from the set bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .batchsim import _vector_bits, compile_netlist, eval_outputs
from .netlist import Netlist, topo_gates


class FeedbackClass(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"
    NONE = "none"


class AnalysisError(Exception):
    pass


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NetSupport:
    """The combinational support of every net as one Python int.

    ``masks[net]`` is in the assignment-row order of ``eval_outputs``: bit i
    stands for ``nl.inputs[i]`` and bit ``n_pis + i`` for ``nl.ffs[i]``.
    ``ff_mask(net)`` is the FF part alone, in which bit ``ff_bit[name]``
    stands for FF ``name``.
    """

    def __init__(self, nl: Netlist, masks: dict):
        self.masks = masks
        self.n_pis = len(nl.inputs)
        self.ff_bit = {f.name: i for i, f in enumerate(nl.ffs)}

    def ff_mask(self, net: str) -> int:
        return self.masks[net] >> self.n_pis


def _net_support(nl: Netlist) -> NetSupport:
    """Every net's FFs and PIs in its combinational fan-in, as masks in the
    bit order of ``NetSupport``; flip-flop q-nets terminate the traversal.
    One pass over ``topo_gates`` ORs each gate's input masks."""
    cached = nl._cache.get("support")
    if cached is not None:
        return cached

    masks = {n: 1 << i for i, n in enumerate([*nl.inputs, *(f.q for f in nl.ffs)])}
    for n in nl.constants:
        masks[n] = 0
    for g in topo_gates(nl):
        acc = 0
        for src in g.ins:
            acc |= masks[src]
        masks[g.out] = acc
    support = NetSupport(nl, masks)
    nl._cache["support"] = support
    return support


@dataclass
class FfGraph:
    """Flip-flop level dependency graph.

    ``comb[a]`` holds FFs b with a purely combinational path Q_a -> D_b.
    """

    nodes: tuple
    comb: dict

    @cached_property
    def components(self) -> tuple:
        """Every strongly connected component as a sorted tuple, in the
        order ``_tarjan`` finds them; computed once per graph."""
        return tuple(_tarjan(self))

    @cached_property
    def on_cycle(self) -> frozenset:
        """FFs with a feedback path: a comb self-loop or a multi-member SCC."""
        cyclic = {n for n in self.nodes if n in self.comb.get(n, ())}
        for comp in self.components:
            if len(comp) > 1:
                cyclic.update(comp)
        return frozenset(cyclic)


def build_ff_graph(nl: Netlist) -> FfGraph:
    cached = nl._cache.get("ff_graph")
    if cached is not None:
        return cached
    support = _net_support(nl)
    nodes = tuple(f.name for f in nl.ffs)
    comb: dict[str, frozenset] = {n: set() for n in nodes}
    for f in nl.ffs:
        for i in _bits(support.ff_mask(f.d)):
            comb[nodes[i]].add(f.name)
    comb = {n: frozenset(v) for n, v in comb.items()}

    g = FfGraph(nodes=nodes, comb=comb)
    nl._cache["ff_graph"] = g
    return g


@dataclass
class SccReport:
    sccs: list  # list of tuples of FF names, each sorted
    labels: dict = field(default_factory=dict)  # index -> fsm | fsm_hp | data

    def to_text(self) -> str:
        lines = []
        for i, members in enumerate(self.sccs):
            label = self.labels.get(i, "")
            head = f"scc {i}" + (f" {label}" if label else "")
            lines.append(head + " " + " ".join(members))
        return "\n".join(lines) + ("\n" if lines else "")


def tarjan_scc(g: FfGraph) -> SccReport:
    """Multi-member strongly connected components of the comb graph, ordered
    by smallest member, in a new list per call (``g.components`` is
    computed once)."""
    comps = [c for c in g.components if len(c) > 1]
    comps.sort(key=lambda c: c[0])
    return SccReport(sccs=comps)


def _tarjan(g: FfGraph) -> list:
    """Tarjan's algorithm, iterative; every component as a sorted tuple."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set = set()
    stack: list[str] = []
    counter = [0]
    comps: list[tuple] = []

    adj = {n: sorted(g.comb.get(n, ())) for n in g.nodes}

    for root in g.nodes:
        if root in index_of:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = adj[node]
            while pi < len(succs):
                nxt = succs[pi]
                pi += 1
                if nxt not in index_of:
                    work[-1] = (node, pi)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    return comps


def most_members(sccs, members) -> Optional[int]:
    """Index of the first component holding the most of ``members``, or None
    if none holds any."""
    members = set(members)
    counts = [len(members.intersection(c)) for c in sccs]
    best = max(counts, default=0)
    return counts.index(best) if best else None


def label_sccs(report: SccReport, sffs, honeypots=frozenset()) -> SccReport:
    """Label the component holding the most true SFFs as fsm, likewise fsm_hp;
    remaining multi-element components are data."""
    labels: dict[int, str] = {}
    fsm_i = most_members(report.sccs, sffs)
    hp_i = most_members(report.sccs, honeypots)
    for i, members in enumerate(report.sccs):
        if i == fsm_i:
            labels[i] = "fsm"
        elif i == hp_i:
            labels[i] = "fsm_hp"
        elif len(members) > 1:
            labels[i] = "data"
    return SccReport(sccs=report.sccs, labels=labels)


def classify_feedback(nl: Netlist, ff: str, candidate_sffs) -> FeedbackClass:
    """Strength of the strongest feedback path from a flip-flop to itself.

    High: a purely combinational Q->D self-path.  Medium: a self-path whose
    intermediate flip-flops all belong to ``candidate_sffs``, the design's
    state FFs.  Low: any self-path.  None: no self-path.
    """
    g = build_ff_graph(nl)
    if ff not in g.comb:
        raise AnalysisError(f"unknown flip-flop {ff}")
    if ff in g.comb[ff]:
        return FeedbackClass.HIGH
    if ff not in g.on_cycle:
        return FeedbackClass.NONE
    allowed = set(candidate_sffs)
    frontier = {m for m in g.comb[ff] if m in allowed}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for m in frontier:
            if ff in g.comb[m]:
                return FeedbackClass.MEDIUM
            for b in g.comb[m]:
                if b in allowed and b not in seen:
                    seen.add(b)
                    nxt.add(b)
        frontier = nxt
    return FeedbackClass.LOW


def control_signals(nl: Netlist) -> set:
    """MUX select nets plus flip-flop enable nets."""
    nets: set = set()
    for g in nl.gates:
        if g.kind == "MUX":
            nets.add(g.ins[0])
    for f in nl.ffs:
        if f.en is not None:
            nets.add(f.en)
    return nets


def influences(nl: Netlist, src_ff: str, dst_net: str) -> bool:
    """True iff Q of src_ff lies in the combinational fan-in of dst_net."""
    support = _net_support(nl)
    bit = support.ff_bit[src_ff]  # raises KeyError for unknown FFs
    if dst_net not in nl.driver:
        raise AnalysisError(f"net {dst_net} is not driven")
    return bool(support.ff_mask(dst_net) >> bit & 1)


def influences_functional(nl: Netlist, src_ff: str, dst_net: str, max_vars: int = 10):
    """Exhaustive sensitivity check: does toggling Q_src ever change dst_net?

    Every assignment of the cone's free variables and Q_src (all other PIs
    and q nets at 0) is evaluated in one ``eval_outputs`` batch.  Returns
    True/False, or None when the cone has more than ``max_vars`` free
    variables (callers fall back to the structural test).
    """
    support = _net_support(nl)
    free = list(_bits(support.masks[dst_net]))
    q_row = support.n_pis + support.ff_bit[src_ff] if src_ff in support.ff_bit else None
    if q_row not in free:
        return False
    free.remove(q_row)
    if len(free) > max_vars:
        return None
    # Bit i of a mask is row i of the assignment matrix.  Q_src is the last
    # variable, so columns 2c and 2c + 1 differ only in it.
    bits = _vector_bits(len(free) + 1)
    assign = np.zeros((support.n_pis + len(nl.ffs), bits.shape[1]), dtype=np.uint8)
    assign[free + [q_row]] = bits
    cn = compile_netlist(nl)
    out = eval_outputs(cn, assign, np.array([cn.row(dst_net)]))[0]
    return bool((out[0::2] != out[1::2]).any())
