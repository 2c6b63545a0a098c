"""Reference implementations the tests check the fast paths against.

- ``eval_comb`` and ``step``: scalar, dict-based evaluation of one
  assignment, the oracle of the bit-packed simulator in ``batchsim``.
- ``input_cone`` and ``ConeNode`` trees: depth-limited fan-in cones built
  as explicit trees, the oracle of ``relic``'s bottom-up cone interning.
- ``ShapeTable.canon``, ``ShapeTable.sim`` and ``pair_similarity``: the
  similarity of two shapes, or of two ``ConeTree`` cones, through
  ``relic``'s shape table; ``similarity_of`` reads one FF pair of a
  ``SimilarityMatrix``.
- ``simulate_spec``, ``decode_state`` and ``state_bits_of``: the behavioural
  FSM oracle of synthesized netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from fsmtrap.graph import AnalysisError
from fsmtrap.netlist import BitState, Netlist, NetlistError, topo_gates
from fsmtrap.relic import SimilarityMatrix, _ShapeTable
from fsmtrap.synth import FsmSpec, SpecError, Transition, state_ff_name, validate_fsm

# -- scalar simulation ---------------------------------------------------------


class MissingAssignmentError(NetlistError):
    def __init__(self, net: str):
        super().__init__(f"no value assigned for net {net}")
        self.net = net


def _gate_fn(kind: str, vals: list[int]) -> int:
    if kind == "NOT":
        return 1 - vals[0]
    if kind == "BUF":
        return vals[0]
    if kind == "AND":
        return 1 if all(vals) else 0
    if kind == "OR":
        return 1 if any(vals) else 0
    if kind == "NAND":
        return 0 if all(vals) else 1
    if kind == "NOR":
        return 0 if any(vals) else 1
    if kind == "XOR":
        acc = 0
        for v in vals:
            acc ^= v
        return acc
    if kind == "XNOR":
        acc = 0
        for v in vals:
            acc ^= v
        return 1 - acc
    if kind == "MUX":
        return vals[1] if vals[0] == 0 else vals[2]
    raise NetlistError(f"unknown gate kind {kind}")


def eval_comb(nl: Netlist, assignment: Mapping[str, int]) -> dict[str, int]:
    """Evaluate all nets given values for primary inputs and FF q-nets.

    Returns a complete net -> bit map.  Evaluation follows one topological
    order; any other order yields identical values.
    """
    values: dict[str, int] = dict(nl.constants)
    for n in nl.inputs:
        if n not in assignment:
            raise MissingAssignmentError(n)
        values[n] = assignment[n] & 1
    for f in nl.ffs:
        if f.q not in assignment:
            raise MissingAssignmentError(f.q)
        values[f.q] = assignment[f.q] & 1
    for g in topo_gates(nl):
        try:
            vals = [values[n] for n in g.ins]
        except KeyError as e:  # pragma: no cover - guarded by validation
            raise MissingAssignmentError(str(e.args[0]))
        values[g.out] = _gate_fn(g.kind, vals)
    return values


def step(
    nl: Netlist,
    state: Mapping[str, int],
    inputs: Mapping[str, int],
    reset_asserted: bool = False,
) -> BitState:
    """One synchronous step: returns the next flip-flop state.

    Reset dominates for resettable FFs; an enable evaluating to 0 holds the
    previous bit; otherwise the FF captures its d input.
    """
    assignment = dict(inputs)
    for f in nl.ffs:
        assignment[f.q] = state[f.name] & 1
    values = eval_comb(nl, assignment)
    nxt: BitState = {}
    for f in nl.ffs:
        if reset_asserted and f.rst is not None:
            nxt[f.name] = f.rst_val
        elif f.en is not None and values[f.en] == 0:
            nxt[f.name] = state[f.name] & 1
        else:
            nxt[f.name] = values[f.d]
    return nxt


# -- fan-in cone trees ---------------------------------------------------------


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


# -- tree similarity -----------------------------------------------------------


class ShapeTable(_ShapeTable):
    """``relic``'s shape table, which also interns ``ConeNode`` trees and
    scores one pair of shapes."""

    def canon(self, node: ConeNode) -> int:
        return self.intern(node.kind, tuple(self.canon(c) for c in node.children))

    def sim(self, ca: int, cb: int) -> float:
        if ca == cb:
            return 1.0
        key = (ca, cb) if ca < cb else (cb, ca)
        self._fill([key])
        return self._memo[key]


def pair_similarity(a: ConeTree, b: ConeTree) -> float:
    """Similarity in [0, 1] between two cones built with equal depth limits."""
    if a.depth_limit != b.depth_limit:
        raise ValueError("cones must be built with the same depth limit")
    table = ShapeTable()
    return table.sim(table.canon(a.root), table.canon(b.root))


def similarity_of(sm: SimilarityMatrix, a: str, b: str) -> float:
    """The similarity of flip-flops ``a`` and ``b`` in ``sm``."""
    return float(sm.values[sm.ffs.index(a), sm.ffs.index(b)])


# -- behavioural FSM simulation --------------------------------------------------


def cube_matches(cube: Mapping[str, int], assignment: Mapping[str, int]) -> bool:
    return all(assignment[var] == val for var, val in cube.items())


def simulate_spec(fsm: FsmSpec, input_trace: Sequence[Mapping[str, int]]) -> list[str]:
    """First-matching-transition semantics; unmatched input vectors hold."""
    validate_fsm(fsm)
    by_state: dict[str, list[Transition]] = {s: [] for s in fsm.states}
    for t in fsm.transitions:
        by_state[t.src].append(t)
    state = fsm.reset_state
    out = [state]
    for vec in input_trace:
        for var in fsm.inputs:
            if var not in vec:
                raise SpecError(f"trace vector missing input {var}")
        for t in by_state[state]:
            if cube_matches(t.guard_dict(), vec):
                state = t.dst
                break
        out.append(state)
    return out


def decode_state(codes: Mapping[str, str], bits: str) -> Optional[str]:
    for s, c in codes.items():
        if c == bits:
            return s
    return None


def state_bits_of(nl_state: Mapping[str, int], prefix: str, width: int) -> str:
    return "".join(
        str(nl_state[state_ff_name(prefix, b, width)]) for b in range(width)
    )
