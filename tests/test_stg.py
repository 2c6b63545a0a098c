import gc
import itertools
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles

from fsmtrap.batchsim import batch_step
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import FlipFlop, Gate, Netlist, reset_state
from fsmtrap.stg import (
    InputBudgetError,
    ReplicaDisagreementError,
    Stg,
    StgError,
    _key_words,
    extract_stg,
    stg_equivalent,
)
from fsmtrap.synth import (
    SynthOptions,
    encode,
    make_fsm,
    synthesize,
)
from fsmtrap.obfuscate import ReplicationPlan, replicate_state_bits, rewrite_rb

from conftest import random_fsm, random_seq_netlist


def toggle():
    return make_fsm("t", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")])


def test_toggle_two_states():
    nl, gt = synthesize(toggle())
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    assert stg.states == ("0", "1")
    edges = oracles.stg_edges(stg)
    assert edges[("0", "1")] == "1"
    assert edges[("1", "1")] == "0"
    assert edges[("0", "0")] == "0"


def test_six_state_codes_reachable():
    states = [f"S{i}" for i in range(1, 7)]
    fsm = make_fsm(
        "m", states, ["a"], "S1", [(f"S{i}", {"a": 1}, f"S{i % 6 + 1}") for i in range(1, 7)]
    )
    nl, gt = synthesize(fsm)
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["a"])
    assert set(stg.states) == {"000", "001", "010", "011", "100", "101"}
    assert stg.reset == "000"


def _behavioral_stg(fsm):
    """Oracle: enumerate the spec directly with first-match semantics."""
    codes = encode(fsm)
    by_state = {s: [] for s in fsm.states}
    for t in fsm.transitions:
        by_state[t.src].append(t)
    n = len(fsm.inputs)
    states = [fsm.reset_state]
    edges = {}
    seen = {fsm.reset_state}
    i = 0
    while i < len(states):
        s = states[i]
        i += 1
        for bits in itertools.product("01", repeat=n):
            vec = {x: int(b) for x, b in zip(fsm.inputs, bits)}
            dst = s
            for t in by_state[s]:
                if all(vec[v] == b for v, b in t.guard):
                    dst = t.dst
                    break
            edges[(codes[s], "".join(bits))] = codes[dst]
            if dst not in seen:
                seen.add(dst)
                states.append(dst)
    return codes[fsm.reset_state], {codes[s] for s in states}, edges


@pytest.mark.parametrize("seed", range(20))
def test_extraction_matches_behavioral_oracle(seed):
    fsm = random_fsm(seed, max_states=8, max_inputs=4)
    nl, gt = synthesize(fsm)
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=list(fsm.inputs))
    reset, states, edges = _behavioral_stg(fsm)
    assert stg.reset == reset
    assert set(stg.states) == states
    assert oracles.stg_edges(stg) == edges


def test_input_budget_enforced():
    fsm = make_fsm(
        "m",
        ["A", "B"],
        [f"x{i}" for i in range(13)],
        "A",
        [("A", {"x0": 1}, "B")],
    )
    nl, gt = synthesize(fsm)
    with pytest.raises(InputBudgetError):
        extract_stg(nl, sorted(gt.sffs), free_inputs=list(fsm.inputs))


def test_repeated_free_input_rejected():
    nl, gt = synthesize(toggle())
    with pytest.raises(StgError, match="free input x is given twice"):
        extract_stg(nl, sorted(gt.sffs), free_inputs=["x", "x"])


def test_repeated_state_ff_rejected():
    nl, gt = synthesize(make_fsm(
        "m", [f"S{i}" for i in range(6)], ["a"], "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 6}") for i in range(6)],
    ))
    sffs = sorted(gt.sffs)
    assert len(sffs) == 3
    with pytest.raises(StgError, match=f"state flip-flop {sffs[0]} is given twice"):
        extract_stg(nl, sffs + [sffs[0]], free_inputs=["a"])


def test_equivalence_reflexive():
    nl, gt = synthesize(toggle())
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    ident = {f: f for f in stg.sff_names}
    assert stg_equivalent(stg, stg, ident)


def test_replicated_projection_equivalent():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(4)],
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)]
        + [(f"S{i}", {"a": 0, "b": 1}, "S0") for i in range(4)],
    )
    nl, gt = synthesize(fsm)
    base = extract_stg(nl, sorted(gt.sffs), free_inputs=["a", "b"])
    rep = replicate_state_bits(fsm, ReplicationPlan(1))
    nl2, gt2 = synthesize(rep)
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=["a", "b"])
    base_sffs = sorted(gt.sffs)
    def_sffs = sorted(gt2.sffs)
    bit_map = {def_sffs[i]: base_sffs[i // 2] for i in range(len(def_sffs))}
    assert stg_equivalent(base, stg2, bit_map)


def test_replica_single_bit():
    fsm = toggle()
    rep = replicate_state_bits(fsm, ReplicationPlan(1))
    assert rep.explicit_codes() == {"A": "00", "B": "11"}
    nl, gt = synthesize(rep)
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    base_nl, base_gt = synthesize(fsm)
    base = extract_stg(base_nl, sorted(base_gt.sffs), free_inputs=["x"])
    (orig,) = sorted(base_gt.sffs)
    bit_map = {f: orig for f in sorted(gt.sffs)}
    assert stg_equivalent(base, stg, bit_map)


def test_private_inputs_must_be_frozen():
    nl, gt = synthesize(toggle())
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    fsm2 = make_fsm(
        "t2",
        ["A", "B"],
        ["x", "o"],
        "A",
        [("A", {"x": 1, "o": 0}, "B"), ("B", {"x": 1, "o": 0}, "A")],
    )
    nl2, gt2 = synthesize(fsm2)
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=["x", "o"])
    bit_map = {sorted(gt2.sffs)[0]: sorted(gt.sffs)[0]}
    with pytest.raises(StgError):
        stg_equivalent(stg, stg2, bit_map)
    assert stg_equivalent(stg, stg2, bit_map, frozen_inputs={"o": 0})
    # with o frozen 1 the toggles never fire: not equivalent
    assert not stg_equivalent(stg, stg2, bit_map, frozen_inputs={"o": 1})


def replace_succ(stg, succ):
    """``stg`` with the successor table ``succ``."""
    return Stg(stg.sff_names, stg.input_names, stg.states, np.array(succ), stg.warnings)


def test_first_replica_disagreement_is_reported():
    a = Stg(("s0",), ("x",), ("0",), np.array([[0, 0]]))
    # Both successors of the reset break the replica pair; the state met
    # first in BFS order (vector 0, to 10) is the one reported.
    b = Stg(("r0", "r1"), ("x",), ("00", "10", "01"), np.array([[1, 2], [1, 1], [2, 2]]))
    with pytest.raises(ReplicaDisagreementError, match="state 10$"):
        stg_equivalent(a, b, {"r0": "s0", "r1": "s0"})


def test_replica_disagreement_raises_even_where_an_edge_differs():
    a = Stg(("s0",), ("x",), ("0", "1"), np.array([[0, 1], [1, 0]]))
    # The reset's vector-0 edge goes to 11 where a stays in 0, and 11 leads
    # on to 10, whose replicas disagree: the disagreement is reported, not
    # the differing edge.
    b = Stg(
        ("r0", "r1"), ("x",), ("00", "11", "10"), np.array([[1, 1], [2, 0], [2, 2]])
    )
    with pytest.raises(ReplicaDisagreementError, match="replicas of s0 .* state 10$"):
        stg_equivalent(a, b, {"r0": "s0", "r1": "s0"})
    # Without the way to 10, the differing edge alone makes them differ.
    b_ok = replace_succ(b, [[1, 1], [1, 0], [2, 2]])
    assert not stg_equivalent(a, b_ok, {"r0": "s0", "r1": "s0"})


def _verdict(check, a, b, bit_map, frozen=None):
    try:
        return check(a, b, bit_map, frozen_inputs=frozen)
    except StgError as e:
        return type(e).__name__, str(e)


def _equivalence_cases():
    """(a, b, bit_map, frozen inputs): the equivalence cases above, replicas
    and dummy-transition rewrites of random FSMs, and mutated copies of the
    replicas' STGs."""
    nl, gt = synthesize(toggle())
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    yield stg, stg, {f: f for f in stg.sff_names}, None
    fsm2 = make_fsm(
        "t2", ["A", "B"], ["x", "o"], "A",
        [("A", {"x": 1, "o": 0}, "B"), ("B", {"x": 1, "o": 0}, "A")],
    )
    nl2, gt2 = synthesize(fsm2)
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=["x", "o"])
    bit_map = {sorted(gt2.sffs)[0]: sorted(gt.sffs)[0]}
    for frozen in (None, {"o": 0}, {"o": 1}):
        yield stg, stg2, bit_map, frozen

    for seed in range(12):
        fsm = toggle() if seed == 0 else random_fsm(seed, max_states=8, max_inputs=3)
        base_nl, base_gt = synthesize(fsm)
        base_sffs = sorted(base_gt.sffs)
        base = extract_stg(base_nl, base_sffs, free_inputs=list(fsm.inputs))
        for r in (1, 2):
            rep_nl, rep_gt = synthesize(replicate_state_bits(fsm, ReplicationPlan(r)))
            rep_sffs = sorted(rep_gt.sffs)
            rep = extract_stg(rep_nl, rep_sffs, free_inputs=list(fsm.inputs))
            rep_map = {f: base_sffs[i // (1 + r)] for i, f in enumerate(rep_sffs)}
            yield base, rep, rep_map, None
            if r == 1:
                rng = random.Random(seed)
                succ = rep.succ.copy()
                s, v = rng.randrange(succ.shape[0]), rng.randrange(succ.shape[1])
                succ[s, v] = (succ[s, v] + 1) % succ.shape[0]
                yield base, replace_succ(rep, succ), rep_map, None
                if len(rep.states) > 1:
                    # Every edge into ``gone`` goes to the reset instead.
                    gone = rng.randrange(1, len(rep.states))
                    unreachable = replace_succ(rep, np.where(rep.succ == gone, 0, rep.succ))
                    yield base, unreachable, rep_map, None

        fsm_rb, report = rewrite_rb(fsm, 0)
        rb_nl, rb_gt = synthesize(fsm_rb)
        rb_sffs = sorted(rb_gt.sffs)
        rb = extract_stg(rb_nl, rb_sffs, free_inputs=list(fsm_rb.inputs))
        rb_map = dict(zip(rb_sffs, base_sffs))
        if report.extended_encoding:
            rb_map[rb_sffs[-1]] = base_sffs[0]
        for value in (() if report.noop else (0, 1)):
            yield base, rb, rb_map, {fsm_rb.inputs[-1]: value}


def test_equivalence_matches_string_oracle():
    verdicts = []
    for a, b, bit_map, frozen in _equivalence_cases():
        got = _verdict(stg_equivalent, a, b, bit_map, frozen)
        assert got == _verdict(oracles.stg_equivalent, a, b, bit_map, frozen)
        verdicts.append(got if isinstance(got, bool) else got[0])
    # Every outcome is exercised.
    assert {True, False, "StgError", "ReplicaDisagreementError"} <= set(verdicts)


def test_text_and_dot_outputs():
    nl, gt = synthesize(toggle())
    stg = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    text = stg.to_text()
    assert "state 0" in text and "edge 0 1 1" in text
    dot = stg.to_dot()
    assert dot.startswith("digraph") and "doublecircle" in dot


def test_nondeterminism_enlarges_tracked_set():
    # Track only one bit of a 2-bit counter: the projection is not closed,
    # so extraction must pull in the other bit and warn.
    text = (
        "input clk\ninput rst\n"
        "gate NOT g0 d0 c0_q\n"
        "gate XOR g1 d1 c1_q c0_q\n"
        "dff c0 q=c0_q d=d0 clk=clk rst=rst rstval=0\n"
        "dff c1 q=c1_q d=d1 clk=clk rst=rst rstval=0\n"
    )
    from fsmtrap.netlist import parse

    nl = parse(text)
    stg = extract_stg(nl, ["c1"], free_inputs=[])
    assert stg.warnings
    assert set(stg.sff_names) == {"c0", "c1"}


def _reference_extract_stg(nl, sffs, free_inputs):
    """The per-state BFS that level-synchronous extraction replaced, over the
    full register file stepped by the recursive evaluator (``oracles.step``):
    a revisit check per successor column, with the reset state and frozen
    inputs at their defaults.  Returns the ``Stg`` fields with ``edges`` as a
    ``(src, vec) -> dst`` string dict."""
    reset = reset_state(nl)
    n_free = len(free_inputs)
    n_vec = 1 << n_free
    vec_strings = [format(v, f"0{n_free}b") if n_free else "" for v in range(n_vec)]
    vecs = [
        {**{n: 0 for n in nl.inputs}, **{n: int(b) for n, b in zip(free_inputs, bits)}}
        for bits in vec_strings
    ]
    ff_names = [f.name for f in nl.ffs]
    ff_pos = {n: i for i, n in enumerate(ff_names)}
    warnings = []
    tracked = list(sffs)

    for _round in range(5):
        proj_idx = [ff_pos[n] for n in tracked]
        reset_full = tuple(reset[n] & 1 for n in ff_names)
        influencers = set()
        for name in tracked:
            influencers |= oracles.support_of(nl, nl.ff_by_name(name).d)[0]
            en = nl.ff_by_name(name).en
            if en is not None:
                influencers |= oracles.support_of(nl, en)[0]

        def project(full):
            return "".join(str(full[i]) for i in proj_idx)

        def successors(full):
            state = dict(zip(ff_names, full))
            return [
                tuple(nxt[n] for n in ff_names)
                for nxt in (oracles.step(nl, state, vec) for vec in vecs)
            ]

        rep = {}
        succ_of = {}
        order = []
        edges = {}
        offenders = set()
        queue = [reset_full]
        rep[project(reset_full)] = reset_full
        while queue:
            full = queue.pop(0)
            code = project(full)
            if code in succ_of:
                continue
            order.append(code)
            succs = successors(full)
            succ_of[code] = [project(s) for s in succs]
            for v, s_full in enumerate(succs):
                s_code = project(s_full)
                if s_code not in rep:
                    rep[s_code] = s_full
                    queue.append(s_full)
                elif rep[s_code] != s_full:
                    diff = {
                        n
                        for i, n in enumerate(ff_names)
                        if s_full[i] != rep[s_code][i] and n not in tracked
                    }
                    if diff & influencers:
                        alt = [project(s) for s in successors(s_full)]
                        canon = succ_of.get(s_code)
                        if canon is None:
                            canon = [project(s) for s in successors(rep[s_code])]
                        if alt != canon:
                            offenders |= diff & influencers
                edges[(code, vec_strings[v])] = s_code
        if not offenders:
            return SimpleNamespace(
                sff_names=tuple(tracked),
                input_names=tuple(free_inputs),
                reset=project(reset_full),
                states=tuple(order),
                edges=edges,
                warnings=tuple(warnings),
            )
        extra = sorted(offenders)
        warnings.append(
            "projected nondeterminism; enlarging tracked set with " + ",".join(extra)
        )
        tracked = tracked + extra
    raise StgError("extraction failed to stabilize after enlarging the tracked set")


def _same_edges(edges, ref):
    """``Stg.edges`` has the size of the dict ``ref`` and streams its items:
    the same keys and values, in the same order."""
    assert len(edges) == len(ref)
    assert list(edges.items()) == list(ref.items())


def _same_stg(got, ref):
    assert got.states == ref.states  # discovery order
    _same_edges(got.edges, ref.edges)
    assert got.warnings == ref.warnings
    assert got.sff_names == ref.sff_names
    assert got.reset == ref.reset


def _reference_cases():
    """(netlist, state FFs, free inputs) of the random-netlist comparison."""
    for seed in range(200):
        nl = random_seq_netlist(seed, n_ffs=4 + seed % 5)
        names = [f.name for f in nl.ffs]
        for sffs in (names[:1], names[: len(names) // 2]):
            yield nl, sffs, ["a", "b"]


def test_level_bfs_matches_per_state_reference_on_random_netlists():
    restarts = 0
    for seed in range(200):
        nl = random_seq_netlist(seed, n_ffs=4 + seed % 5)
        names = [f.name for f in nl.ffs]
        free = ["a", "b"]
        for sffs in (names[:1], names[: len(names) // 2]):
            try:
                ref = _reference_extract_stg(nl, sffs, free)
            except StgError:
                with pytest.raises(StgError):
                    extract_stg(nl, sffs, free_inputs=free)
                continue
            _same_stg(extract_stg(nl, sffs, free_inputs=free), ref)
            restarts += bool(ref.warnings)
    # The restart path is exercised, not only the projected-closed case.
    assert restarts >= 150


def test_level_bfs_matches_per_state_reference_on_benchmark_design():
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0, n_states=8, n_inputs=4))
    nl, gt = synthesize(fsm, dp)
    sffs = sorted(gt.sffs)
    free = list(fsm.inputs)
    _same_stg(extract_stg(nl, sffs, free_inputs=free), _reference_extract_stg(nl, sffs, free))


def test_text_and_dot_match_reference_rendering():
    # The benchmark-design and random-netlist cases of the two tests above.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0, n_states=8, n_inputs=4))
    nl, gt = synthesize(fsm, dp)
    cases = [(nl, sorted(gt.sffs), list(fsm.inputs))]
    for seed in range(200):
        nl = random_seq_netlist(seed, n_ffs=4 + seed % 5)
        names = [f.name for f in nl.ffs]
        cases += [(nl, sffs, ["a", "b"]) for sffs in (names[:1], names[: len(names) // 2])]
    for nl, sffs, free in cases:
        try:
            ref = _reference_extract_stg(nl, sffs, free)
        except StgError:
            continue
        got = extract_stg(nl, sffs, free_inputs=free)
        assert got.to_text() == oracles.stg_text(ref.states, ref.edges)
        assert got.to_dot() == oracles.stg_dot(ref.reset, ref.states, ref.edges)
        assert len(got.edges) == got.succ.size


def test_input_free_extraction_matches_reference():
    # No free inputs: one vector, "", rendered as "-".
    compared = 0
    for seed in range(40):
        nl = random_seq_netlist(seed, n_ffs=4 + seed % 5)
        sffs = [f.name for f in nl.ffs][:2]
        try:
            ref = _reference_extract_stg(nl, sffs, [])
        except StgError:
            continue
        got = extract_stg(nl, sffs, free_inputs=[])
        _same_stg(got, ref)
        assert [key for key, _ in got.edges.items()] == [(s, "") for s in got.states]
        assert got.to_text() == oracles.stg_text(ref.states, ref.edges)
        assert got.to_dot() == oracles.stg_dot(ref.reset, ref.states, ref.edges)
        compared += 1
    assert compared >= 30


def test_level_bfs_splits_wide_levels(monkeypatch):
    import fsmtrap.stg as stg_mod

    nl = random_seq_netlist(3, n_ffs=8)
    names = [f.name for f in nl.ffs]
    whole = extract_stg(nl, names, free_inputs=["a", "b"])
    widths = []

    def recording_step(cn, state, pi_matrix):
        widths.append(pi_matrix.shape[1])
        return batch_step(cn, state, pi_matrix)

    monkeypatch.setattr(stg_mod, "batch_step", recording_step)
    assert extract_stg(nl, names, free_inputs=["a", "b"]).states == whole.states
    assert max(widths) > 8  # some level is wider than the limit set below

    widths.clear()
    monkeypatch.setattr(stg_mod, "MAX_COLUMNS", 8)
    split = extract_stg(nl, names, free_inputs=["a", "b"])
    assert max(widths) == 8
    _same_stg(split, whole)


def _loader_design(n_closure):
    """``n_closure`` FFs with eight reachable full states at most: loaders
    ``l{i}`` load input ``a`` (even i) or ``b`` (odd i), and ``t`` loads the
    AND of every loader (its own complement when there is none)."""
    loaders = [f"l{i}" for i in range(n_closure - 1)]
    ffs = [
        FlipFlop(n, q=f"{n}_q", d="a" if i % 2 == 0 else "b", clk="clk", rst="rst", rst_val=0)
        for i, n in enumerate(loaders)
    ]
    qs = tuple(f"{n}_q" for n in loaders)
    kind, ins = {0: ("NOT", ("t_q",)), 1: ("BUF", qs)}.get(len(qs), ("AND", qs))
    gates = (Gate("g_t", kind, "t_d", ins),)
    ffs.append(FlipFlop("t", q="t_q", d="t_d", clk="clk", rst="rst", rst_val=1))
    nl = Netlist("loaders", ("clk", "rst", "a", "b"), ("t_q",), {}, gates, tuple(ffs))
    return nl, loaders


@pytest.mark.parametrize(
    "n_closure, key",
    [(1, "u1"), (8, "u1"), (9, "u2"), (16, "u2"), (17, "u4"), (32, "u4"),
     (33, "u8"), (64, "u8"), (65, "u8x2"), (80, "u8x2"), (128, "u8x2"), (129, "u8x3")],
)
def test_every_key_width_matches_per_state_reference(n_closure, key):
    word, n_words = _key_words(n_closure)
    assert f"{word.kind}{word.itemsize}" + (f"x{n_words}" if n_words > 1 else "") == key
    nl, loaders = _loader_design(n_closure)
    # Tracking ``t`` alone restarts with the loaders that decide its next
    # value; tracking the first and last loader with it does not.  Either
    # way every key holds the whole closure, ``t`` in its highest bit.
    for sffs in (["t"], ["t", *loaders[:1], *loaders[1:][-1:]]):
        got = extract_stg(nl, sffs, free_inputs=["a", "b"])
        _same_stg(got, _reference_extract_stg(nl, sffs, ["a", "b"]))
        assert len(got.states) <= 8


def test_revisits_of_a_level_share_one_step(monkeypatch):
    import fsmtrap.stg as stg_mod

    # ``w1`` and ``w2`` load the inputs and sit in the select of MUXes whose
    # data inputs are equal, so they feed ``t``'s cone without changing it:
    # ``t`` toggles.  Each level meets four full states of one projected
    # state, three of them revisits that differ from its representative.
    ffs = (
        FlipFlop("w1", q="w1_q", d="a", clk="clk", rst="rst", rst_val=0),
        FlipFlop("w2", q="w2_q", d="b", clk="clk", rst="rst", rst_val=0),
        FlipFlop("t", q="t_q", d="m2", clk="clk", rst="rst", rst_val=0),
    )
    gates = (
        Gate("g_n", "NOT", "nt", ("t_q",)),
        Gate("g_m1", "MUX", "m1", ("w1_q", "nt", "nt")),
        Gate("g_m2", "MUX", "m2", ("w2_q", "m1", "m1")),
    )
    nl = Netlist("revisits", ("clk", "rst", "a", "b"), ("t_q",), {}, gates, ffs)
    widths = []

    def recording_step(cn, state, pi_matrix):
        widths.append(pi_matrix.shape[1])
        return batch_step(cn, state, pi_matrix)

    monkeypatch.setattr(stg_mod, "batch_step", recording_step)
    stg = extract_stg(nl, ["t"], free_inputs=["a", "b"])
    assert stg.states == ("0", "1") and not stg.warnings
    # Per level: its frontier of one state, then its three revisits and
    # their representative, four vectors each, in one call.
    assert widths == [4, 16, 4, 16]


def _verify_base_design():
    fsm, dp = gen_benchmark(
        BenchmarkSpec(seed=0, n_states=64, data_width=4, n_data_pairs=1, n_inputs=8)
    )
    nl, gt = synthesize(fsm, dp)
    return nl, sorted(gt.sffs), list(fsm.inputs)


def test_extraction_steps_only_the_sequential_closure(monkeypatch):
    import fsmtrap.stg as stg_mod

    nl, sffs, free = _verify_base_design()
    rows = []

    def recording_step(cn, state, pi_matrix):
        rows.append(state.shape[0])
        return batch_step(cn, state, pi_matrix)

    monkeypatch.setattr(stg_mod, "batch_step", recording_step)
    stg = extract_stg(nl, sffs, free_inputs=free)
    # 6 state bits, and none of the other 25 FFs feeds them.
    assert len(sffs) == 6 and len(nl.ffs) == 31
    assert rows and set(rows) == {6}
    assert not stg.warnings


def _with_outside_ff(nl, rng):
    """``nl`` plus an FF no existing FF reads, with a random reset value and
    a cone over random nets (its own q among them)."""
    pis = [n for n in nl.inputs if n not in ("clk", "rst")]
    nets = [*pis, *(f.q for f in nl.ffs), *(g.out for g in nl.gates)]
    kind = rng.choice(["AND", "OR", "XOR", "NAND"])
    cone = (
        Gate("extra_g0", kind, "extra_n0", (rng.choice(nets), "extra_q")),
        Gate("extra_g1", "XOR", "extra_n1", ("extra_n0", rng.choice(nets))),
    )
    rst = rng.choice([None, "rst"])
    extra = FlipFlop(
        "extra", q="extra_q", d="extra_n1", clk="clk", rst=rst,
        rst_val=rng.randint(0, 1) if rst else 0,
        en=rng.choice([None, rng.choice(nets)]),
    )
    ffs = list(nl.ffs)
    ffs.insert(rng.randint(0, len(ffs)), extra)
    return Netlist(nl.name, nl.inputs, nl.outputs, nl.constants, nl.gates + cone, tuple(ffs))


def test_ff_outside_the_closure_changes_nothing():
    rng = random.Random(0)
    cases = [(nl, sffs, free) for nl, sffs, free in _reference_cases()][::4]
    cases.append(_verify_base_design())
    for nl, sffs, free in cases:
        try:
            before = extract_stg(nl, sffs, free_inputs=free)
        except StgError:
            continue
        for _ in range(2):
            after = extract_stg(_with_outside_ff(nl, rng), sffs, free_inputs=free)
            assert after.states == before.states
            assert np.array_equal(after.succ, before.succ)
            assert after.warnings == before.warnings
            assert after.sff_names == before.sff_names


@pytest.fixture(scope="module")
def verify_stgs():
    """The three STGs of the ``verify`` benchmark recipe: base design, r=1
    replica, and bit-0 dummy-transition rewrite with a decoy attached."""
    class Recorder:
        def __init__(self):
            self.stgs = []

        def call(self, name, fn, *args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "stg.extract_stg":
                self.stgs.append(result)
            return result

    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import recipes

        tr = Recorder()
        fsm, dp = gen_benchmark(
            BenchmarkSpec(seed=0, n_states=64, data_width=4, n_data_pairs=1, n_inputs=8)
        )
        recipes.verify(tr, fsm, dp)
    return tr.stgs


def test_edges_and_renderings_on_verify_designs(verify_stgs):
    assert [s.succ.shape for s in verify_stgs] == [(64, 256), (64, 256), (128, 512)]
    for stg in verify_stgs:
        ref = oracles.stg_edges(stg)
        _same_edges(stg.edges, ref)
        assert stg.to_text() == oracles.stg_text(stg.states, ref)
        assert stg.to_dot() == oracles.stg_dot(stg.reset, stg.states, ref)


def test_edges_hold_no_object_per_edge(verify_stgs):
    rb = verify_stgs[-1]
    stg = Stg(rb.sff_names, rb.input_names, rb.states, rb.succ, rb.warnings)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(stg.edges) == 128 * 512
        for _ in stg.edges.items():
            pass
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A dict of the 65,536 edges retains about 6 MB.
    assert retained < 256 * 1024
