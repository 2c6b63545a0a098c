"""Reference implementations the tests check the fast paths against.

- ``eval_comb`` and ``step``: scalar, dict-based evaluation of one
  assignment, the oracle of the bit-packed simulator in ``batchsim``.
- ``support_of``: a net's support mask decoded into (FF names, PIs).
- ``input_cone`` and ``ConeNode`` trees: depth-limited fan-in cones built
  as explicit trees, the oracle of ``relic``'s bottom-up cone interning.
- ``ShapeTable.canon``, ``ShapeTable.sim`` and ``pair_similarity``: the
  similarity of two shapes, or of two ``ConeTree`` cones, through
  ``relic``'s shape table.
- ``ShapeTable.sims`` and ``similarity_matrix``: the FF x FF similarity
  matrix, the distinct-shape similarities broadcast to the flip-flops, the
  reference of ``relic``'s per-shape features; ``similarity_of`` reads one
  FF pair of a ``SimilarityMatrix``.
- ``simulate_spec``, ``decode_state`` and ``state_bits_of``: the behavioural
  FSM oracle of synthesized netlists.
- ``stg_equivalent``, ``stg_text`` and ``stg_dot``: equivalence and the text
  renderings over string-keyed STG edge dicts, the oracle of ``stg``'s
  successor-index table.
- ``derive_honeypot``: decoy derivation with its checks in the original
  order (validity, guard ambiguity, then reachability).
- ``tune_honeypot``: honeypot tuning that integrates every candidate and
  scores the merged netlist with a fresh ``zscores``, the oracle of the
  tuner's composed candidate scores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from fsmtrap.graph import (
    AnalysisError,
    _bits,
    _net_support,
    build_ff_graph,
    most_members,
    tarjan_scc,
)
from fsmtrap.netlist import BitState, Netlist, NetlistError, topo_gates
from fsmtrap.obfuscate import (
    HoneypotError,
    HoneypotParams,
    TuneIteration,
    TuneReport,
    _all_states_reachable,
    build_decoy,
)
from fsmtrap.relic import _ShapeTable, select_scc_by_z, zscores
from fsmtrap.stg import ReplicaDisagreementError, Stg, StgError
from fsmtrap.synth import (
    FsmSpec,
    SpecError,
    Transition,
    _effective_covers,
    state_ff_name,
    validate_fsm,
)

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


def support_of(nl: Netlist, net: str) -> tuple:
    """The (frozenset of FF names, frozenset of PIs) in the combinational
    fan-in of ``net``, decoded from its support mask: bit i is
    ``nl.inputs[i]`` and bit ``len(nl.inputs) + i`` is ``nl.ffs[i]``."""
    n_pis = len(nl.inputs)
    bits = list(_bits(_net_support(nl).masks[net]))
    return (
        frozenset(nl.ffs[i - n_pis].name for i in bits if i >= n_pis),
        frozenset(nl.inputs[i] for i in bits if i < n_pis),
    )


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
    """``relic``'s shape table, which also interns ``ConeNode`` trees,
    scores one pair of shapes and broadcasts shape similarities to a matrix
    over cones."""

    def canon(self, node: ConeNode) -> int:
        return self.intern(node.kind, tuple(self.canon(c) for c in node.children))

    def sim(self, ca: int, cb: int) -> float:
        if ca == cb:
            return 1.0
        key = (ca, cb) if ca < cb else (cb, ca)
        self._fill([key])
        return self._memo[key]

    def sims(self, ids: Sequence[int]) -> np.ndarray:
        """The len(ids) x len(ids) matrix of the similarities of the shapes
        ``ids`` (repeats allowed), each distinct pair evaluated once and
        broadcast."""
        distinct = sorted(set(ids))
        at = {x: i for i, x in enumerate(distinct)}
        index = [at[x] for x in ids]
        return self.shape_sims(distinct)[np.ix_(index, index)]


def pair_similarity(a: ConeTree, b: ConeTree) -> float:
    """Similarity in [0, 1] between two cones built with equal depth limits."""
    if a.depth_limit != b.depth_limit:
        raise ValueError("cones must be built with the same depth limit")
    table = ShapeTable()
    return table.sim(table.canon(a.root), table.canon(b.root))


@dataclass
class SimilarityMatrix:
    ffs: tuple
    values: np.ndarray


def similarity_matrix(
    nl: Netlist, depth_limit: int = 6, *, shapes: Optional[ShapeTable] = None
) -> SimilarityMatrix:
    """Pairwise cone similarity over all flip-flops, ordered by name.

    ``shapes`` is the shape table to score against (a fresh one by default).
    ``values`` is read-only.
    """
    ffs = tuple(sorted(f.name for f in nl.ffs))
    table = ShapeTable() if shapes is None else shapes
    cids = table.cone_ids(nl, [nl.ff_by_name(name).d for name in ffs], depth_limit)
    values = table.sims(cids)
    values.flags.writeable = False
    return SimilarityMatrix(ffs=ffs, values=values)


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


# -- string-keyed STGs -----------------------------------------------------------


def stg_equivalent(
    a: Stg,
    b: Stg,
    bit_map: Mapping[str, str],
    frozen_inputs: Optional[Mapping[str, int]] = None,
) -> bool:
    """``stg.stg_equivalent`` over the ``(src, vec) -> dst`` strings of
    ``Stg.edges``: a BFS over b's frozen-consistent edges that projects
    every code as it meets it, so an edge conflicting with an earlier one
    returns False before a later state's replica disagreement raises."""
    frozen_inputs = dict(frozen_inputs or {})
    if set(bit_map) != set(b.sff_names):
        raise StgError("bit_map must cover exactly b's state flip-flops")
    if set(bit_map.values()) != set(a.sff_names):
        raise StgError("bit_map must cover all of a's state flip-flops")
    extra = [n for n in b.input_names if n not in a.input_names]
    missing = [n for n in a.input_names if n not in b.input_names]
    if missing:
        raise StgError(f"b lacks inputs of a: {missing}")
    for n in extra:
        if n not in frozen_inputs:
            raise StgError(f"input {n} private to b must be frozen")

    b_pos = {n: i for i, n in enumerate(b.sff_names)}
    groups = {a_ff: [b_pos[x] for x in b.sff_names if bit_map[x] == a_ff] for a_ff in a.sff_names}

    def project(code: str) -> str:
        out = []
        for a_ff in a.sff_names:
            vals = {code[i] for i in groups[a_ff]}
            if len(vals) != 1:
                raise ReplicaDisagreementError(
                    f"replicas of {a_ff} disagree in reachable state {code}"
                )
            out.append(vals.pop())
        return "".join(out)

    b_in_pos = {n: i for i, n in enumerate(b.input_names)}

    def shared_vec(vec: str) -> Optional[str]:
        """None if ``vec`` breaks a frozen value, else its bits of a's inputs."""
        if any(int(vec[b_in_pos[n]]) != (frozen_inputs[n] & 1) for n in extra):
            return None
        return "".join(vec[b_in_pos[n]] for n in a.input_names)

    by_src: dict[str, list] = {}
    for (src, vec), dst in b.edges.items():
        by_src.setdefault(src, []).append((vec, dst))

    proj_edges: dict = {}
    b_reset = b.states[0]
    seen = {b_reset}
    queue = [b_reset]
    proj_states: set = set()
    while queue:
        code = queue.pop(0)
        pcode = project(code)
        proj_states.add(pcode)
        for vec, dst in by_src.get(code, ()):
            svec = shared_vec(vec)
            if svec is None:
                continue
            key = (pcode, svec)
            pdst = project(dst)
            if key in proj_edges and proj_edges[key] != pdst:
                return False
            proj_edges[key] = pdst
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)

    if project(b_reset) != a.states[0]:
        return False
    if proj_states != set(a.states):
        return False
    return proj_edges == stg_edges(a)


def stg_edges(stg) -> dict:
    """The ``(src, vec) -> dst`` dict of an ``Stg``'s successor table, one
    entry per cell, in (state, vector) order."""
    n = len(stg.input_names)
    vecs = [format(v, f"0{n}b") if n else "" for v in range(1 << n)]
    return {
        (src, vec): stg.states[d]
        for src, row in zip(stg.states, stg.succ.tolist())
        for vec, d in zip(vecs, row)
    }


def stg_text(states: Sequence[str], edges: Mapping) -> str:
    """``Stg.to_text`` of a state list and a ``(src, vec) -> dst`` dict."""
    lines = [f"state {s}" for s in states]
    for (src, vec), dst in sorted(edges.items()):
        lines.append(f"edge {src} {vec if vec else '-'} {dst}")
    return "\n".join(lines) + "\n"


def stg_dot(reset: str, states: Sequence[str], edges: Mapping) -> str:
    """``Stg.to_dot`` of a state list and a ``(src, vec) -> dst`` dict."""
    lines = ["digraph stg {"]
    for s in states:
        shape = "doublecircle" if s == reset else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    for (src, vec), dst in sorted(edges.items()):
        label = vec if vec else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- honeypot derivation and tuning ------------------------------------------------


def derive_honeypot(fsm: FsmSpec, p: HoneypotParams) -> FsmSpec:
    """``obfuscate.derive_honeypot`` with each attempt checked for validity
    and guard ambiguity before reachability."""
    validate_fsm(fsm)
    if p.n_transition_mutations > len(fsm.transitions):
        raise HoneypotError("mutation budget exceeds the transition count")
    if p.n_output_mutations and fsm.moore_outputs is None:
        raise HoneypotError("output mutations need declared outputs")
    for attempt in range(100):
        rng = random.Random(p.mutation_seed * 1009 + attempt)
        trans = [Transition(t.src, t.guard, t.dst) for t in fsm.transitions]
        if p.n_transition_mutations:
            for idx in sorted(rng.sample(range(len(trans)), p.n_transition_mutations)):
                t = trans[idx]
                choices = [s for s in fsm.states if s != t.dst]
                if not choices:
                    continue
                trans[idx] = Transition(t.src, t.guard, rng.choice(choices))
        moore = fsm.moore_dict()
        if p.n_output_mutations and moore is not None:
            width = len(next(iter(moore.values())))
            cells = [(s, j) for s in fsm.states for j in range(width)]
            for s, j in rng.sample(cells, min(p.n_output_mutations, len(cells))):
                bits = list(moore[s])
                bits[j] = "1" if bits[j] == "0" else "0"
                moore[s] = "".join(bits)
        candidate = replace(
            fsm,
            transitions=tuple(trans),
            moore_outputs=tuple((s, moore[s]) for s in fsm.states) if moore else None,
        )
        try:
            validate_fsm(candidate)
            _effective_covers(candidate)
        except SpecError:
            continue
        if _all_states_reachable(candidate):
            return candidate
    raise HoneypotError("no valid honeypot variant found after 100 re-rolls")


def tune_honeypot(
    design_nl: Netlist,
    design_sffs,
    base_hp: FsmSpec,
    p: HoneypotParams,
    max_iters: int = 10,
    require_selection: bool = False,
) -> TuneReport:
    """``obfuscate.tune_honeypot`` that integrates every candidate and scores
    the merged netlist with ``zscores`` on a fresh shape table and
    ``tarjan_scc`` of its FF graph."""
    iterations: list = []
    best: Optional[TuneReport] = None
    best_margin = float("-inf")
    for i in range(max_iters):
        params_i = replace(p, mutation_seed=p.mutation_seed + i)
        hp_nl, integrated, hp_ffs = build_decoy(design_nl, base_hp, params_i)
        table = zscores(integrated)
        sccs = tarjan_scc(build_ff_graph(integrated)).sccs

        def scc_max(members_of) -> float:
            best_i = most_members(sccs, members_of)
            if best_i is None:
                return max((table.scores[f] for f in members_of), default=float("-inf"))
            return max(table.scores[f] for f in sccs[best_i])

        hp_max = scc_max(hp_ffs)
        fsm_max = scc_max(design_sffs)
        _, selected, _ = select_scc_by_z(table.scores, sccs)
        selected_is_hp = bool(selected & hp_ffs)
        success = hp_max > fsm_max and (selected_is_hp or not require_selection)
        iterations.append(
            TuneIteration(params_i.mutation_seed, hp_max, fsm_max, selected_is_hp, success)
        )
        candidate = TuneReport(success, iterations, params_i, hp_nl, integrated, hp_ffs)
        if success:
            return candidate
        if hp_max - fsm_max > best_margin:
            best_margin = hp_max - fsm_max
            best = candidate
    best.found = False
    return best
