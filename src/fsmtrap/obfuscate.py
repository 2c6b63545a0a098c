"""Defensive transforms: state/counter bit replication, feedback-path removal
for one-hot and binary encodings, and decoy-FSM derivation, integration, and
tuning.

Every transform preserves behavior at its declared interface: replication up
to projection onto the original bits, one-hot rewiring exactly, dummy
transitions with the obfuscation input frozen to 0, and decoy integration on
all original outputs and next states.  How a decoy attaches to a design is
written once, in ``_attach``: ``integrate_honeypot`` builds the merged
netlist from it, and the tuner's ``_CandidateScorer`` composes each
candidate's scores from it without building that netlist.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .graph import (
    FeedbackClass, build_ff_graph, classify_feedback, control_signals, tarjan_scc, _net_support,
)
from .netlist import Gate, Netlist, NetlistError
from .relic import (
    RelicParams, _ShapeTable, _similarity_features, _zscore_table, select_scc_by_z, zscores,
)
from .synth import (
    AmbiguityError,
    DatapathSpec,
    FsmSpec,
    ONE_HOT,
    SynthOptions,
    Transition,
    _bit_covers,
    _check_guards,
    _codes,
    _droppable_bits,
    _effective_covers,
    _transitions_by_state,
    encode,
    synthesize,
    validate_fsm,
)


class ObfuscationError(Exception):
    pass


class ReplicationError(ObfuscationError):
    pass


class RewriteError(ObfuscationError):
    pass


class HoneypotError(ObfuscationError):
    pass


class IntegrationError(ObfuscationError):
    pass


# -- dissimilarity approach ----------------------------------------------------


@dataclass(frozen=True)
class ReplicationPlan:
    replicas_per_bit: int  # each original bit becomes (1 + r) flip-flops
    allow_one_hot: bool = False


def replicate_state_bits(fsm: FsmSpec, plan: ReplicationPlan) -> FsmSpec:
    """Repeat every state bit (1 + r) times in place, as explicit codes.

    Transitions are untouched; synthesized without re-encoding or sharing,
    each replica gets a structurally identical private cone.
    """
    r = plan.replicas_per_bit
    if r < 1:
        raise ReplicationError("replica count must be >= 1")
    if fsm.encoding == ONE_HOT and not plan.allow_one_hot:
        raise ReplicationError(
            "replicating a one-hot encoding must be explicitly allowed"
        )
    codes = encode(fsm)
    new_codes = {
        s: "".join(ch * (1 + r) for ch in code) for s, code in codes.items()
    }
    return replace(fsm, encoding=tuple((s, new_codes[s]) for s in fsm.states))


def replicate_counter(dp: DatapathSpec, counter: str, r: int) -> DatapathSpec:
    """Mark a counter for replicated synthesis: the register widens to
    width*(1+r) and each step increments the widened value, then rewrites any
    replica group left in the broken-carry pattern to a uniform value.

    Valid while the counter does not wrap (callers bound cycle counts or
    request a saturation guard at the benchmark level).
    """
    if r < 1:
        raise ReplicationError("replica count must be >= 1")
    found = False
    counters = []
    for c in dp.counters:
        if c.name == counter:
            if c.direction not in ("up", "down"):
                raise ReplicationError(f"counter {counter} has no direction")
            counters.append(replace(c, replicas=r))
            found = True
        else:
            counters.append(c)
    if not found:
        raise ReplicationError(f"no counter named {counter}")
    return replace(dp, counters=tuple(counters))


# -- feedback-path approach ------------------------------------------------------


@dataclass
class RewriteReport:
    """What ``rewrite_rb`` did: dummy transitions added, a copy of the target
    bit appended to the encoding, or nothing (the bit was already free)."""

    added_transitions: int = 0
    extended_encoding: bool = False
    noop: bool = False


def _cone_gates(nl: Netlist, net: str) -> set:
    """Names of gates in the combinational fan-in of a net."""
    seen: set = set()
    stack = [net]
    while stack:
        n = stack.pop()
        drv = nl.driver[n]
        if drv in ("input", "const") or hasattr(drv, "q"):
            continue
        if drv.name in seen:
            continue
        seen.add(drv.name)
        stack.extend(drv.ins)
    return seen


def _fresh(base: str, used) -> str:
    """The first of ``base``, ``base0``, ``base1``, ... that ``used``
    rejects."""
    name = base
    i = 0
    while used(name):
        name = f"{base}{i}"
        i += 1
    return name


def rewrite_ra(nl: Netlist, sffs, target: str) -> Netlist:
    """Remove the high-strength feedback path of a one-hot state flip-flop
    and return the rewired netlist.

    Inside the target's own input cone, every use of its Q is rewired to an
    indicator that is 1 exactly when all other state flip-flops are 0 -- in
    reachable one-hot states the two signals agree, so the state transition
    graph is unchanged.  The target's feedback path must be high
    (``classify_feedback``); callers classify it again afterwards.
    """
    sffs = sorted(set(sffs))
    if target not in sffs:
        raise RewriteError(f"target {target} is not among the given state FFs")
    try:
        state_ffs = [nl.ff_by_name(s) for s in sffs]
    except KeyError as e:
        raise RewriteError(f"unknown state flip-flop {e.args[0]}") from None
    if sum(f.rst_val for f in state_ffs if f.rst is not None) != 1:
        raise RewriteError("reset state is not one-hot over the given state FFs")
    if classify_feedback(nl, target, sffs) is not FeedbackClass.HIGH:
        raise RewriteError(f"{target} has no high-strength feedback path to remove")

    ff = nl.ff_by_name(target)
    cone = _cone_gates(nl, ff.d)

    # A NOT per other state FF, then the indicator; each gate and its
    # ``<gate>_o`` net get names no gate, FF or net of ``nl`` has.
    others = [f for f in state_ffs if f.name != target]
    taken = {g.name for g in nl.gates} | {f.name for f in nl.ffs} | set(nl.driver)
    names = []
    for base in [*(f"ra_{target}_not_{f.name}" for f in others), f"ra_{target}_ind"]:
        gname = _fresh(base, taken.__contains__)
        taken.add(gname)
        net = _fresh(f"{gname}_o", taken.__contains__)
        taken.add(net)
        names.append((gname, net))
    *not_names, (ind_name, ind_net) = names
    new_gates = [Gate(g, "NOT", net, (f.q,)) for (g, net), f in zip(not_names, others)]
    not_nets = tuple(net for _, net in not_names)
    new_gates.append(Gate(ind_name, "BUF" if len(not_nets) == 1 else "AND", ind_net, not_nets))

    # A high feedback path puts Q in the cone, so something is rewired.
    rebuilt = tuple(
        Gate(g.name, g.kind, g.out, tuple(ind_net if n == ff.q else n for n in g.ins))
        if g.name in cone and ff.q in g.ins else g
        for g in nl.gates
    )
    ffs = tuple(replace(f, d=ind_net) if f.name == target and f.d == ff.q else f for f in nl.ffs)
    return Netlist(
        name=nl.name,
        inputs=nl.inputs,
        outputs=nl.outputs,
        constants=dict(nl.constants),
        gates=rebuilt + tuple(new_gates),
        ffs=ffs,
    )


def rewrite_rb(fsm: FsmSpec, target_bit: int) -> tuple[FsmSpec, RewriteReport]:
    """Make one state bit's next value independent of its current value by
    adding dummy transitions under a new obfuscation input.

    Every used code gets a partner state differing only in the target bit;
    partners mirror the original transitions (and fall back to the partnered
    state where the original would hold), and the obfuscation input jumps
    between partners.  If two used codes differ only in the target bit, one
    extra encoding bit (a copy of the target bit) is appended first.  Partner
    states are named ``f"{s}__rb"``, or with the first numbered suffix that
    names no existing state, so the rewrite applies to its own output.
    """
    validate_fsm(fsm)
    if fsm.encoding == ONE_HOT:
        raise RewriteError("dummy-transition rewrite applies to binary/explicit encodings")
    codes = _codes(fsm)
    width = len(next(iter(codes.values())))
    if not 0 <= target_bit < width:
        raise RewriteError(f"target bit {target_bit} out of range for width {width}")

    eff, unmatched = _effective_covers(fsm)
    pos = _bit_covers(fsm, codes, eff, unmatched)
    if _droppable_bits(fsm, codes, pos)[target_bit]:
        return fsm, RewriteReport(noop=True)

    def partner_code(code: str) -> str:
        return code[:target_bit] + _flip(code[target_bit]) + code[target_bit + 1:]

    # If some code is another's partner, append a copy of the target bit: a
    # partner's target bit then differs from its copy, which no code's does.
    used = set(codes.values())
    extended = any(partner_code(c) in used for c in used)
    if extended:
        codes = {s: c + c[target_bit] for s, c in codes.items()}

    o = _fresh("o", fsm.inputs.__contains__)
    inputs = fsm.inputs + (o,)
    taken = set(fsm.states)
    suffix = _fresh("__rb", lambda x: any(s + x in taken for s in fsm.states))
    dummy_of = {s: s + suffix for s in fsm.states}
    new_codes = dict(codes)
    for s in fsm.states:
        new_codes[dummy_of[s]] = partner_code(codes[s])

    moore = fsm.moore_dict()
    new_moore = dict(moore) if moore is not None else None
    if new_moore is not None:
        for s in fsm.states:
            new_moore[dummy_of[s]] = moore[s]

    transitions: list[Transition] = []
    added = 0
    by_state = _transitions_by_state(fsm)
    for s in fsm.states:
        for t in by_state[s]:
            g = t.guard_dict()
            g[o] = 0
            transitions.append(Transition.make(s, g, t.dst, inputs))
        transitions.append(Transition.make(s, {o: 1}, dummy_of[s], inputs))
        added += 1
        d = dummy_of[s]
        for cube, dst in eff[s]:
            g = dict(cube)
            g[o] = 0
            transitions.append(Transition.make(d, g, dst, inputs))
            added += 1
        for cube in unmatched[s]:
            g = dict(cube)
            g[o] = 0
            transitions.append(Transition.make(d, g, s, inputs))
            added += 1
        transitions.append(Transition.make(d, {o: 1}, d, inputs))
        added += 1

    states = fsm.states + tuple(dummy_of[s] for s in fsm.states)
    out = FsmSpec(
        name=fsm.name,
        states=states,
        encoding=tuple((s, new_codes[s]) for s in states),
        inputs=inputs,
        reset_state=fsm.reset_state,
        transitions=tuple(transitions),
        moore_outputs=tuple((s, new_moore[s]) for s in states) if new_moore else None,
    )
    validate_fsm(out)
    return out, RewriteReport(added_transitions=added, extended_encoding=extended)


def _flip(ch: str) -> str:
    return "1" if ch == "0" else "0"


# -- honeypots -------------------------------------------------------------------


@dataclass(frozen=True)
class HoneypotParams:
    mutation_seed: int = 0
    n_transition_mutations: int = 2
    n_output_mutations: int = 0


def derive_honeypot(fsm: FsmSpec, p: HoneypotParams) -> FsmSpec:
    """Seeded copy-and-mutate: redirect transition destinations and flip
    output bits; candidates with unreachable states or conflicting guards are
    re-rolled deterministically.  Each attempt's seed depends only on its
    index, so the order of the checks decides only what a rejection costs:
    reachability, the cheapest, runs first."""
    validate_fsm(fsm)
    if p.n_transition_mutations > len(fsm.transitions):
        raise HoneypotError("mutation budget exceeds the transition count")
    if p.n_output_mutations and fsm.moore_outputs is None:
        raise HoneypotError("output mutations need declared outputs")
    for attempt in range(100):
        rng = random.Random(p.mutation_seed * 1009 + attempt)
        trans = list(fsm.transitions)
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
                bits[j] = _flip(bits[j])
                moore[s] = "".join(bits)
        candidate = replace(
            fsm,
            transitions=tuple(trans),
            moore_outputs=tuple((s, moore[s]) for s in fsm.states) if moore else None,
        )
        if not _all_states_reachable(candidate):
            continue
        # Only destinations (drawn from the states) and output bits changed,
        # so the candidate is as valid as ``fsm``; its guards may now clash.
        try:
            _check_guards(candidate)
        except AmbiguityError:
            continue
        return candidate
    raise HoneypotError("no valid honeypot variant found after 100 re-rolls")


def _all_states_reachable(fsm: FsmSpec) -> bool:
    succ: dict[str, set] = {s: set() for s in fsm.states}
    for t in fsm.transitions:
        succ[t.src].add(t.dst)
    seen = {fsm.reset_state}
    queue = deque([fsm.reset_state])
    while queue:
        s = queue.popleft()
        for d in succ[s]:
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen == set(fsm.states)


# How every decoy is synthesized: its flip-flops are ``fsm_st*``.
_DECOY_SYNTH = SynthOptions(name_prefix="fsm")


def _hp_name(hp: Netlist, name: Optional[str]) -> Optional[str]:
    """The name that a net, gate or flip-flop ``name`` of the decoy ``hp``
    takes in the design: a decoy input is the design input of the same name,
    and every other decoy name takes the prefix ``hp_``."""
    return name if name is None or name in hp.inputs else f"hp_{name}"


def _attach(nl: Netlist, hp: Netlist) -> tuple:
    """How the decoy ``hp`` joins the design ``nl``: (join gates, the enable
    net of each design flip-flop, the design's output nets), the last two
    after the join.  Decoy output i, in its design name, is ANDed
    (``hp_gate_i``) with a constant 0 made by a two-gate chain on a design
    input (``hp_zn``, ``hp_zero``), so the gating fan-in looks live, and ORed
    (``hp_mix_i``) into a site: the design FF enables, or, if no FF has one,
    the output ports, in order and cycling, so a site taken twice ORs into
    the earlier mix.  The design function is unchanged while the decoy
    acquires live-looking fanout.

    Raises ``IntegrationError`` for a decoy without flip-flops or outputs,
    with an input the design lacks or a constant whose design name the
    design's constants use, or for a design with no site.
    """
    if not hp.ffs:
        raise IntegrationError("decoy netlist has no flip-flops")
    for n in hp.inputs:
        if n not in nl.inputs:
            raise IntegrationError(f"design has no {n} input for the decoy")
    # Constants are dict keys, so the merged Netlist cannot see a clash.
    if {_hp_name(hp, n) for n in hp.constants} & nl.constants.keys():
        raise IntegrationError("decoy constants collide with the design's")
    if not hp.outputs:
        raise IntegrationError("decoy netlist has no outputs to attach")
    enables = [f.en for f in nl.ffs]
    outputs = list(nl.outputs)
    nets = enables if any(en is not None for en in enables) else outputs
    sites = [j for j, net in enumerate(nets) if net is not None]
    if not sites:
        raise IntegrationError("design has no flip-flop enable or output port")

    zsrc = next((n for n in nl.inputs if n not in ("clk", "rst")), nl.inputs[0])
    joins = [
        Gate("hp_zn", "NOT", "hp_zn_o", (zsrc,)),
        Gate("hp_zero", "AND", "hp_zero_o", (zsrc, "hp_zn_o")),
    ]
    for i, h in enumerate(hp.outputs):
        j = sites[i % len(sites)]
        mix = f"hp_mix_{i}_o"
        joins += [
            Gate(f"hp_gate_{i}", "AND", f"hp_gate_{i}_o", (_hp_name(hp, h), "hp_zero_o")),
            Gate(f"hp_mix_{i}", "OR", mix, (nets[j], f"hp_gate_{i}_o")),
        ]
        nets[j] = mix
    return joins, enables, outputs


def integrate_honeypot(
    nl: Netlist, hp: Netlist, p: HoneypotParams
) -> tuple[Netlist, frozenset]:
    """Instantiate a decoy netlist inside a design: the decoy's gates,
    constants and flip-flops in their design names (``_hp_name``), after the
    design's, then the join gates of ``_attach``, which rewire design
    flip-flop enables or output ports.  A decoy that ``_attach`` rejects, or
    a name the design already uses, raises ``IntegrationError``.  The result
    does not depend on ``p``, the decoy's derivation.
    """
    joins, enables, outputs = _attach(nl, hp)

    def rename(name: Optional[str]) -> Optional[str]:
        return _hp_name(hp, name)

    constants = {**nl.constants, **{rename(n): v for n, v in hp.constants.items()}}
    gates = [
        *nl.gates,
        *(Gate(rename(g.name), g.kind, rename(g.out), tuple(map(rename, g.ins))) for g in hp.gates),
        *joins,
    ]
    ffs = [replace(f, en=en) for f, en in zip(nl.ffs, enables)]
    hp_ffs = [
        replace(f, name=rename(f.name), q=rename(f.q), d=rename(f.d), clk=rename(f.clk),
                rst=rename(f.rst), en=rename(f.en))
        for f in hp.ffs
    ]
    try:
        merged = Netlist(nl.name, nl.inputs, outputs, constants, gates, ffs + hp_ffs)
    except NetlistError as e:
        raise IntegrationError(f"decoy collides with the design: {e}") from e
    return merged, frozenset(f.name for f in hp_ffs)


class _CandidateScorer:
    """The z-score table and SCC list of a design with a decoy integrated,
    composed from the design's own analyses, made once, and the decoy
    netlist's, without building the merged netlist.

    Integration appends the decoy's FFs after the design's, names the
    decoy's nets by ``_hp_name`` and joins the two only through the gates of
    ``_attach``, which drive design FF enables and output ports.  It
    re-drives no design net, so in the merged netlist:

    - A design FF's D-cone is the design's.  A decoy FF's D-cone lies in the
      decoy; its leaves are PIs, constants and decoy Qs, and within each
      kind the renaming keeps the names' order, so its shape id is the one
      interned on the decoy netlist itself.
    - No combinational path joins the design and the decoy (the join gates
      drive only enables and outputs), so the FF graph, its feedback FFs
      and its SCCs are the union of the two.
    - The control signals are the design's MUX selects, each design FF's
      enable after the join and the decoy's control signals.  A join gate's
      FF support is the OR of its inputs'.

    ``zscores`` and this class share ``_zscore_table``, so the composed
    table is bit-for-bit the table of the merged netlist under the default
    ``RelicParams``.
    """

    params = RelicParams()

    def __init__(self, nl: Netlist, shapes: _ShapeTable):
        self.nl = nl
        self.shapes = shapes
        ids = shapes.carry_cones(nl, [f.d for f in nl.ffs], self.params.depth_limit)
        self.design_ids = {f.name: cid for f, cid in zip(nl.ffs, ids)}
        self.support = _net_support(nl)
        self.mux_selects = [g.ins[0] for g in nl.gates if g.kind == "MUX"]
        graph = build_ff_graph(nl)
        self.on_cycle = graph.on_cycle
        self.sccs = tarjan_scc(graph).sccs

    def score(self, hp: Netlist, hp_sccs: Sequence[tuple]) -> tuple:
        """(z-score table, SCC list) of the design with ``hp`` integrated;
        ``hp_sccs`` is ``tarjan_scc(build_ff_graph(hp)).sccs``."""
        joins, enables, _ = _attach(self.nl, hp)
        shapes, support = self.shapes, self.support
        names = [_hp_name(hp, f.name) for f in hp.ffs]
        # Walked, not read from the carried design cones: a decoy net keeps
        # its own name in ``hp`` and may share it with a design net.
        hp_ids = shapes.cone_ids(hp, [f.d for f in hp.ffs], self.params.depth_limit, carried=False)
        ids = {**self.design_ids, **dict(zip(names, hp_ids))}
        ffs = tuple(sorted(ids))

        # FF masks, by design name and in the merged bit order (the decoy's
        # FFs follow the design's), of the decoy nets the join gates and the
        # control signals read, then of the join gates.
        shift = len(self.nl.ffs)
        hp_support = _net_support(hp)
        hp_controls = control_signals(hp)
        masks = {
            _hp_name(hp, n): hp_support.ff_mask(n) << shift for n in {*hp.outputs, *hp_controls}
        }

        def mask(net: str) -> int:
            return masks[net] if net in masks else support.ff_mask(net)

        for g in joins:
            acc = 0
            for n in g.ins:
                acc |= mask(n)
            masks[g.out] = acc
        controls = {
            *self.mux_selects,
            *(en for en in enables if en is not None),
            *(_hp_name(hp, c) for c in hp_controls),
        }

        ff_bit = dict(support.ff_bit)
        ff_bit.update((name, shift + k) for k, name in enumerate(names))
        on_cycle = self.on_cycle | {_hp_name(hp, f) for f in build_ff_graph(hp).on_cycle}
        table = _zscore_table(
            ffs,
            _similarity_features(shapes, [ids[f] for f in ffs], self.params.top_k),
            [mask(c) for c in controls],
            ff_bit,
            on_cycle,
        )
        hp_comps = [tuple(sorted(_hp_name(hp, m) for m in c)) for c in hp_sccs]
        return table, sorted(self.sccs + hp_comps, key=lambda c: c[0])


def build_decoy(
    design_nl: Netlist, base_hp: FsmSpec, p: HoneypotParams
) -> tuple[Netlist, Netlist, frozenset]:
    """Derive a decoy FSM from ``base_hp``, synthesize it with ``fsm``-prefixed
    flip-flops and integrate it into the design.

    Returns (decoy netlist, integrated netlist, decoy FF names).
    """
    hp_nl, _ = synthesize(derive_honeypot(base_hp, p), None, _DECOY_SYNTH)
    integrated, hp_ffs = integrate_honeypot(design_nl, hp_nl, p)
    return hp_nl, integrated, hp_ffs


@dataclass
class TuneIteration:
    seed: int
    hp_scc_max: float
    fsm_scc_max: float
    selected_is_hp: bool
    success: bool


@dataclass
class TuneReport:
    found: bool
    iterations: list
    params: HoneypotParams
    hp_netlist: Netlist
    integrated: Netlist
    hp_ffs: frozenset


def tune_honeypot(
    design_nl: Netlist,
    design_sffs,
    base_hp: FsmSpec,
    p: HoneypotParams,
    max_iters: int = 10,
    require_selection: bool = False,
) -> TuneReport:
    """Iterate seeded decoy mutations until the decoy component out-scores the
    design's state component (optionally: wins the selection rule outright).

    A candidate is scored without building the merged netlist: a
    ``_CandidateScorer``, made once per call, holds the design's
    D-cone shape ids, support masks, MUX selects and FF-graph components,
    and composes each candidate's z-score table and SCC list from them,
    ``_attach`` and the decoy netlist alone.  Every candidate is scored
    against one shape table local to this call, so the similarities of the
    design's cones are evaluated once per call, and a candidate interns only
    its decoy's cones.  The scores are those of ``zscores`` and
    ``tarjan_scc`` on the integrated netlist, scored alone.

    Only the returned candidate is integrated, and its integrated netlist is
    scored once with ``zscores``, which fills its cache for the attacks that
    follow.  Returns the first success, else the best candidate with
    found=False.
    """
    if max_iters < 1:
        raise HoneypotError("max_iters must be >= 1")
    # Looked up per call, so a wrapper set on ``fsmtrap.graph`` sees this
    # loop's calls; the scorer's own use the names bound at import.
    from .graph import build_ff_graph, most_members, tarjan_scc

    iterations: list[TuneIteration] = []
    best: Optional[tuple] = None  # (params, decoy netlist)
    best_margin = float("-inf")
    found = False
    shapes = _ShapeTable()
    scorer = _CandidateScorer(design_nl, shapes)
    for i in range(max_iters):
        params_i = replace(p, mutation_seed=p.mutation_seed + i)
        hp_nl, _ = synthesize(derive_honeypot(base_hp, params_i), None, _DECOY_SYNTH)
        hp_sccs = tarjan_scc(build_ff_graph(hp_nl)).sccs
        table, sccs = scorer.score(hp_nl, hp_sccs)

        def scc_max(members_of) -> float:
            """Top score in the component with most of ``members_of``, or
            among ``members_of`` if no component holds any."""
            best_i = most_members(sccs, members_of)
            if best_i is None:
                return max((table.scores[f] for f in members_of), default=float("-inf"))
            return max(table.scores[f] for f in sccs[best_i])

        hp_ffs = frozenset(_hp_name(hp_nl, f.name) for f in hp_nl.ffs)
        hp_max = scc_max(hp_ffs)
        fsm_max = scc_max(design_sffs)
        _, selected, _ = select_scc_by_z(table.scores, sccs)
        selected_is_hp = bool(selected & hp_ffs)
        success = hp_max > fsm_max and (selected_is_hp or not require_selection)
        iterations.append(
            TuneIteration(params_i.mutation_seed, hp_max, fsm_max, selected_is_hp, success)
        )
        if success:
            best, found = (params_i, hp_nl), True
            break
        margin = hp_max - fsm_max
        if margin > best_margin:
            best_margin = margin
            best = (params_i, hp_nl)
    assert best is not None
    params, hp_nl = best
    integrated, hp_ffs = integrate_honeypot(design_nl, hp_nl, params)
    zscores(integrated, shapes=shapes)
    return TuneReport(
        found=found,
        iterations=iterations,
        params=params,
        hp_netlist=hp_nl,
        integrated=integrated,
        hp_ffs=hp_ffs,
    )
