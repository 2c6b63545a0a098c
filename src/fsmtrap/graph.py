"""Structural analyses over netlists: flip-flop dependency graphs, strongly
connected components, fan-in cones, feedback-path strength, and control-signal
influence.  Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .batchsim import compile_netlist, eval_outputs
from .netlist import Netlist


class FeedbackClass(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"
    NONE = "none"


class AnalysisError(Exception):
    pass


def _net_support(nl: Netlist) -> dict:
    """For every net: (frozenset of FF names, frozenset of PIs) in its
    combinational fan-in; flip-flop q-nets terminate the traversal."""
    cached = nl._cache.get("support")
    if cached is not None:
        return cached
    from .netlist import topo_gates

    support: dict[str, tuple] = {}
    for n in nl.inputs:
        support[n] = (frozenset(), frozenset([n]))
    for n in nl.constants:
        support[n] = (frozenset(), frozenset())
    for f in nl.ffs:
        support[f.q] = (frozenset([f.name]), frozenset())
    for g in topo_gates(nl):
        ffs: set = set()
        pis: set = set()
        for src in g.ins:
            a, b = support[src]
            ffs |= a
            pis |= b
        support[g.out] = (frozenset(ffs), frozenset(pis))
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
    def on_cycle(self) -> frozenset:
        """FFs with a feedback path: a comb self-loop or a multi-member SCC."""
        cyclic = {n for n in self.nodes if n in self.comb.get(n, ())}
        for comp in _tarjan(self):
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
        srcs, _ = support[f.d]
        for s in srcs:
            comb[s].add(f.name)
    comb = {n: frozenset(v) for n, v in comb.items()}

    g = FfGraph(nodes=nodes, comb=comb)
    nl._cache["ff_graph"] = g
    return g


@dataclass
class SccReport:
    sccs: list  # list of tuples of FF names, each sorted
    labels: dict = field(default_factory=dict)  # index -> fsm | fsm_hp | data
    ambiguous: bool = False

    def to_text(self) -> str:
        lines = []
        for i, members in enumerate(self.sccs):
            label = self.labels.get(i, "")
            head = f"scc {i}" + (f" {label}" if label else "")
            lines.append(head + " " + " ".join(members))
        return "\n".join(lines) + ("\n" if lines else "")


def tarjan_scc(g: FfGraph, include_singletons: bool = False) -> SccReport:
    """Strongly connected components of the comb graph, ordered by smallest
    member; single FFs are dropped unless ``include_singletons``."""
    comps = _tarjan(g)
    if not include_singletons:
        comps = [c for c in comps if len(c) > 1]
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


def label_sccs(report: SccReport, sffs, honeypots=frozenset()) -> SccReport:
    """Label the component holding the most true SFFs as fsm, likewise fsm_hp;
    remaining multi-element components are data."""
    labels: dict[int, str] = {}
    ambiguous = False

    def pick(target) -> Optional[int]:
        nonlocal ambiguous
        best, best_count = None, 0
        counts = []
        for i, members in enumerate(report.sccs):
            c = len(set(members) & set(target))
            counts.append(c)
            if c > best_count:
                best, best_count = i, c
        if best is not None and counts.count(best_count) > 1:
            ambiguous = True
        return best

    fsm_i = pick(sffs) if sffs else None
    hp_i = pick(honeypots) if honeypots else None
    for i, members in enumerate(report.sccs):
        if i == fsm_i:
            labels[i] = "fsm"
        elif i == hp_i:
            labels[i] = "fsm_hp"
        elif len(members) > 1:
            labels[i] = "data"
    return SccReport(sccs=report.sccs, labels=labels, ambiguous=ambiguous)


def classify_feedback(
    nl: Netlist, ff: str, candidate_sffs=None
) -> FeedbackClass:
    """Strength of the strongest feedback path from a flip-flop to itself.

    High: a purely combinational Q->D self-path.  Medium: a self-path whose
    intermediate flip-flops all belong to ``candidate_sffs``.  Low: any
    self-path.  Distinguishing medium from low requires the candidate set.
    """
    g = build_ff_graph(nl)
    if ff not in g.comb:
        raise AnalysisError(f"unknown flip-flop {ff}")
    if ff in g.comb[ff]:
        return FeedbackClass.HIGH
    if ff not in g.on_cycle:
        return FeedbackClass.NONE
    if candidate_sffs is None:
        raise AnalysisError("medium/low classification requires a candidate SFF set")
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


def has_high_fp(nl: Netlist, ff: str) -> bool:
    g = build_ff_graph(nl)
    return ff in g.comb.get(ff, frozenset())


def has_any_fp(nl: Netlist, ff: str) -> bool:
    return ff in build_ff_graph(nl).on_cycle


# -- fan-in cones -------------------------------------------------------------


@dataclass(frozen=True)
class ConeNode:
    kind: str  # gate kind, or PI / FF / CONST leaf
    net: str
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ConeTree:
    root: ConeNode
    depth_limit: int


def input_cone(nl: Netlist, root: str, depth_limit: int) -> ConeTree:
    """Depth-limited combinational fan-in tree.

    Expansion stops at primary inputs, FF q-nets, constants, or the depth
    limit; buffers are transparent and consume no depth.  Children are ordered
    by (kind, net) so structurally equal cones serialize identically.
    """
    if root not in nl.driver:
        raise AnalysisError(f"net {root} is not driven")
    return ConeTree(_cone_node(nl.driver, root, depth_limit), depth_limit)


def _cone_node(driver: dict, net: str, depth: int) -> ConeNode:
    drv = driver[net]
    if drv == "input":
        return ConeNode("PI", net)
    if drv == "const":
        return ConeNode("CONST", net)
    if hasattr(drv, "q"):
        return ConeNode("FF", net)
    if drv.kind == "BUF":
        return _cone_node(driver, drv.ins[0], depth)
    if depth <= 0:
        return ConeNode(drv.kind, net)
    children = [_cone_node(driver, n, depth - 1) for n in drv.ins]
    children.sort(key=lambda c: (c.kind, c.net))
    return ConeNode(drv.kind, net, tuple(children))


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
    nl.ff_by_name(src_ff)  # raises KeyError for unknown FFs
    if dst_net not in nl.driver:
        raise AnalysisError(f"net {dst_net} is not driven")
    support = _net_support(nl)
    return src_ff in support[dst_net][0]


def influences_functional(nl: Netlist, src_ff: str, dst_net: str, max_vars: int = 10):
    """Exhaustive sensitivity check: does toggling Q_src ever change dst_net?

    Every assignment of the cone's free variables and Q_src (all other PIs
    and q nets at 0) is evaluated in one ``eval_outputs`` batch.  Returns
    True/False, or None when the cone has more than ``max_vars`` free
    variables (callers fall back to the structural test).
    """
    support = _net_support(nl)
    ffs, pis = support[dst_net]
    if src_ff not in ffs:
        return False
    others = sorted(ffs - {src_ff})
    free = others + sorted(pis)
    if len(free) > max_vars:
        return None
    q_of = {f.name: f.q for f in nl.ffs}
    # Rows of the assignment matrix: PIs, then q nets in FF order.
    row_of = {n: i for i, n in enumerate(nl.inputs)}
    row_of.update({f.q: len(nl.inputs) + i for i, f in enumerate(nl.ffs)})
    # Column c sets Q_src to bit 0 of c and free variable i to bit i + 1.
    cols = np.arange(2 << len(free))
    assign = np.zeros((len(nl.inputs) + len(nl.ffs), cols.size), dtype=np.uint8)
    for i, var in enumerate(free):
        assign[row_of[q_of.get(var, var)]] = (cols >> (i + 1)) & 1
    assign[row_of[q_of[src_ff]]] = cols & 1
    cn = compile_netlist(nl)
    out = eval_outputs(cn, assign, np.array([cn.row(dst_net)]))[0]
    return bool((out[0::2] != out[1::2]).any())
