from dataclasses import replace

import pytest

from fsmtrap.graph import (
    FeedbackClass,
    build_ff_graph,
    classify_feedback,
    tarjan_scc,
)
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import Gate, Netlist, parse, reset_state
from fsmtrap.obfuscate import (
    HoneypotError,
    HoneypotParams,
    IntegrationError,
    ReplicationError,
    ReplicationPlan,
    RewriteError,
    derive_honeypot,
    integrate_honeypot,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from fsmtrap.stg import extract_stg, stg_equivalent
from fsmtrap.synth import (
    Counter,
    DatapathSpec,
    SynthOptions,
    encode,
    make_fsm,
    synthesize,
)

from conftest import random_fsm
import oracles
from oracles import pair_similarity, step


def six_state_fsm():
    states = [f"S{i}" for i in range(1, 7)]
    return make_fsm(
        "m", states, ["a"], "S1", [(f"S{i}", {"a": 1}, f"S{i % 6 + 1}") for i in range(1, 7)]
    )


# -- replication ---------------------------------------------------------------


def test_replication_worked_labels():
    rep = replicate_state_bits(six_state_fsm(), ReplicationPlan(2))
    codes = rep.explicit_codes()
    assert codes["S1"] == "000000000"
    assert codes["S2"] == "000000111"
    assert codes["S3"] == "000111000"
    assert codes["S4"] == "000111111"
    assert codes["S5"] == "111000000"
    assert codes["S6"] == "111000111"


def test_replication_requires_positive_r():
    with pytest.raises(ReplicationError):
        replicate_state_bits(six_state_fsm(), ReplicationPlan(0))


def test_one_hot_replication_needs_opt_in():
    fsm = make_fsm(
        "m", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B")], encoding="one_hot"
    )
    with pytest.raises(ReplicationError):
        replicate_state_bits(fsm, ReplicationPlan(2))
    rep = replicate_state_bits(fsm, ReplicationPlan(2, allow_one_hot=True))
    assert rep.explicit_codes()["A"] == "111000"


def test_replica_cones_identical_similarity_one():
    rep = replicate_state_bits(six_state_fsm(), ReplicationPlan(2))
    nl, gt = synthesize(rep, None, SynthOptions(allow_cse=False))
    from oracles import input_cone

    sffs = sorted(gt.sffs)
    for group_start in range(0, 9, 3):
        group = sffs[group_start : group_start + 3]
        cones = [input_cone(nl, nl.ff_by_name(f).d, 6) for f in group]
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                assert pair_similarity(cones[i], cones[j]) == 1.0


# -- counter trick ---------------------------------------------------------------


def _counter_design(width=3, r=2, direction="up"):
    fsm = make_fsm("m", ["A", "B"], ["z"], "A", [("A", {"z": 1}, "B"), ("B", {"z": 1}, "A")])
    dp = DatapathSpec(counters=(Counter("c", width, direction=direction),))
    dp = replicate_counter(dp, "c", r)
    return synthesize(fsm, dp)


def _counter_state(nl, gt, value, width, r):
    """Uniform replicated state encoding the given counter value."""
    state = reset_state(nl)
    k = 1 + r
    for j in range(width):
        bit = (value >> j) & 1
        for t in range(k):
            state[f"u0_c_{j * k + t}"] = bit
    return state


def _project(state, width, r):
    k = 1 + r
    groups = []
    for j in range(width):
        vals = {state[f"u0_c_{j * k + t}"] for t in range(k)}
        groups.append(vals)
    assert all(len(v) == 1 for v in groups), f"non-uniform replica groups: {groups}"
    return sum(next(iter(groups[j])) << j for j in range(width))


def test_replicated_counter_six_steps_from_zero():
    nl, gt = _counter_design()
    state = reset_state(nl)
    for _ in range(6):
        state = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    assert _project(state, 3, 2) == 6


def test_replicated_counter_reference_semantics_all_starts():
    # Reference: c_t = c + 1 over the widened register, then each group
    # showing the broken-carry pattern 0..01 is rewritten to all ones.
    nl, gt = _counter_design()
    width, r, k = 3, 2, 3
    total = width * k
    for value in range(7):  # one step without wrap-around
        state = _counter_state(nl, gt, value, width, r)
        wide = sum(state[f"u0_c_{i}"] << i for i in range(total))
        c_t = (wide + 1) % (1 << total)
        expect_groups = []
        for j in range(width):
            g = (c_t >> (j * k)) & ((1 << k) - 1)
            expect_groups.append((1 << k) - 1 if g == 1 else g)
        nxt = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
        for j in range(width):
            for t in range(k):
                assert nxt[f"u0_c_{j * k + t}"] == (expect_groups[j] >> t) & 1
        assert _project(nxt, width, r) == value + 1


def test_replicated_counter_wrap_stays_uniform():
    nl, gt = _counter_design()
    state = _counter_state(nl, gt, 7, 3, 2)
    nxt = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    assert _project(nxt, 3, 2) == 0


def test_replicated_counter_down_direction():
    nl, gt = _counter_design(direction="down")
    state = _counter_state(nl, gt, 5, 3, 2)
    nxt = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    assert _project(nxt, 3, 2) == 4


def test_smallest_replicated_counter():
    nl, gt = _counter_design(width=1, r=1)
    state = reset_state(nl)
    nxt = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    assert nxt["u0_c_0"] == 1 and nxt["u0_c_1"] == 1


def test_replicate_counter_unknown_name():
    dp = DatapathSpec(counters=(Counter("c", 3),))
    with pytest.raises(ReplicationError):
        replicate_counter(dp, "nope", 2)


# -- one-hot rewrite (R_A) -------------------------------------------------------


def _ring3_one_hot():
    fsm = make_fsm(
        "m",
        ["A", "B", "C"],
        ["x"],
        "A",
        [("A", {"x": 1}, "B"), ("B", {"x": 1}, "C"), ("C", {"x": 1}, "A")],
        encoding="one_hot",
    )
    return synthesize(fsm)


def test_ra_removes_high_fp_preserves_stg():
    nl, gt = _ring3_one_hot()
    target = sorted(gt.sffs)[0]
    before = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    assert classify_feedback(nl, target, gt.sffs) is FeedbackClass.HIGH
    out = rewrite_ra(nl, gt.sffs, target)
    assert classify_feedback(out, target, gt.sffs) is not FeedbackClass.HIGH
    after = extract_stg(out, sorted(gt.sffs), free_inputs=["x"])
    ident = {f: f for f in sorted(gt.sffs)}
    assert stg_equivalent(before, after, ident)
    assert after.states == before.states


def test_ra_other_sffs_keep_high_fp():
    nl, gt = _ring3_one_hot()
    target = sorted(gt.sffs)[0]
    out = rewrite_ra(nl, gt.sffs, target)
    for f in sorted(gt.sffs):
        if f != target:
            assert classify_feedback(out, f, gt.sffs) is FeedbackClass.HIGH


def test_ra_requires_target_in_sffs():
    nl, gt = _ring3_one_hot()
    with pytest.raises(RewriteError):
        rewrite_ra(nl, gt.sffs, "nonexistent")


def test_ra_requires_known_state_ffs():
    nl, gt = _ring3_one_hot()
    with pytest.raises(RewriteError, match="unknown state flip-flop ghost"):
        rewrite_ra(nl, set(gt.sffs) | {"ghost"}, sorted(gt.sffs)[0])


def test_ra_names_avoid_existing_nets():
    # A spare BUF already drives the indicator's first-choice net: the
    # indicator takes the next free name and the spare keeps its net.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    nl, gt = synthesize(fsm, dp, SynthOptions(allow_reencode=True))
    sffs = sorted(gt.sffs)
    target = sffs[0]
    spare = Gate("spare", "BUF", f"ra_{target}_ind_o", (fsm.inputs[0],))
    nl = Netlist(nl.name, nl.inputs, nl.outputs, dict(nl.constants), nl.gates + (spare,), nl.ffs)
    out = rewrite_ra(nl, sffs, target)
    assert out.driver[f"ra_{target}_ind_o"] == spare
    assert out.driver[f"ra_{target}_ind_o0"].name == f"ra_{target}_ind"
    assert classify_feedback(out, target, sffs) is not FeedbackClass.HIGH
    free = list(fsm.inputs)
    before = extract_stg(nl, sffs, free_inputs=free)
    after = extract_stg(out, sffs, free_inputs=free)
    assert after.states == before.states
    assert stg_equivalent(before, after, {f: f for f in sffs})


def test_ra_requires_high_fp():
    nl, gt = _ring3_one_hot()
    target = sorted(gt.sffs)[0]
    once = rewrite_ra(nl, gt.sffs, target)
    with pytest.raises(RewriteError):
        rewrite_ra(once, gt.sffs, target)


def test_ra_requires_one_hot_reset():
    fsm = make_fsm("m", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")])
    nl, gt = synthesize(fsm)  # binary, 1 bit
    with pytest.raises(RewriteError):
        rewrite_ra(nl, gt.sffs, sorted(gt.sffs)[0])


# -- dummy transitions (R_B) ------------------------------------------------------


def test_rb_removes_high_fp_and_preserves_o0_behavior():
    fsm = make_fsm(
        "m",
        ["A", "B", "C"],
        ["x"],
        "A",
        [("A", {"x": 1}, "B"), ("B", {"x": 1}, "C"), ("C", {"x": 1}, "A"), ("C", {"x": 0}, "B")],
    )
    nl, gt = synthesize(fsm)
    base = extract_stg(nl, sorted(gt.sffs), free_inputs=["x"])
    out_fsm, report = rewrite_rb(fsm, 1)
    assert not report.noop
    nl2, gt2 = synthesize(out_fsm)
    assert classify_feedback(nl, "u0_st1", gt.sffs) is FeedbackClass.HIGH
    assert classify_feedback(nl2, "u0_st1", gt2.sffs) is not FeedbackClass.HIGH
    free = list(out_fsm.inputs)
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=free)
    base_sffs = sorted(gt.sffs)
    def_sffs = sorted(gt2.sffs)
    bit_map = {def_sffs[i]: base_sffs[i] for i in range(len(base_sffs))}
    if report.extended_encoding:
        bit_map[def_sffs[-1]] = base_sffs[1]
    assert stg_equivalent(base, stg2, bit_map, frozen_inputs={"o": 0})


def test_rb_one_hot_rejected():
    fsm = make_fsm(
        "m", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B")], encoding="one_hot"
    )
    with pytest.raises(RewriteError):
        rewrite_rb(fsm, 0)


def test_rb_noop_when_already_independent():
    # Both states map bit 0's next value to the same function of inputs:
    # from A and from B, x=1 -> B (bit 1), x=0 -> A (bit 0) with partner pair.
    fsm = make_fsm(
        "m",
        ["A", "B"],
        ["x"],
        "A",
        [("A", {"x": 1}, "B"), ("A", {"x": 0}, "A"), ("B", {"x": 1}, "B"), ("B", {"x": 0}, "A")],
    )
    out, report = rewrite_rb(fsm, 0)
    assert report.noop
    assert out is fsm


@pytest.mark.parametrize("seed", range(20))
def test_rb_random_sweep(seed):
    fsm = random_fsm(seed, max_states=5, max_inputs=3)
    nl, gt = synthesize(fsm)
    width = len(gt.sffs)
    target = seed % width
    treated = f"u0_st{target}"
    out_fsm, report = rewrite_rb(fsm, target)
    nl2, gt2 = synthesize(out_fsm)
    if report.noop:
        assert classify_feedback(nl2, treated, gt2.sffs) is not FeedbackClass.HIGH
        return
    assert classify_feedback(nl2, treated, gt2.sffs) is not FeedbackClass.HIGH
    base = extract_stg(nl, sorted(gt.sffs), free_inputs=list(fsm.inputs))
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=list(out_fsm.inputs))
    base_sffs = sorted(gt.sffs)
    def_sffs = sorted(gt2.sffs)
    bit_map = {def_sffs[i]: base_sffs[i] for i in range(len(base_sffs))}
    if report.extended_encoding:
        bit_map[def_sffs[-1]] = base_sffs[target]
    o = out_fsm.inputs[-1]
    assert stg_equivalent(base, stg2, bit_map, frozen_inputs={o: 0})


def test_rb_partners_take_unused_codes():
    # The encoding is extended exactly when some code is another's partner
    # (its target bit flipped); either way no partner code is taken.
    extended = 0
    for seed in range(40):
        fsm = random_fsm(seed, max_states=8, max_inputs=3)
        codes = encode(fsm)
        for bit in range(len(codes[fsm.states[0]])):
            out, report = rewrite_rb(fsm, bit)
            if report.noop:
                continue

            def partner(c):
                return c[:bit] + ("1" if c[bit] == "0" else "0") + c[bit + 1:]

            used = set(codes.values())
            assert report.extended_encoding == any(partner(c) in used for c in used)
            new = dict(out.encoding)
            assert all(new[s + "__rb"] == partner(new[s]) for s in fsm.states)
            assert len(set(new.values())) == len(new)
            extended += report.extended_encoding
    assert extended > 0


def test_rb_applies_to_its_own_output():
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark

    fsm, _ = gen_benchmark(BenchmarkSpec(seed=0))
    once, first = rewrite_rb(fsm, 0)
    twice, second = rewrite_rb(once, 1)
    assert not first.noop and not second.noop
    assert once.states == fsm.states + tuple(f"{s}__rb" for s in fsm.states)
    assert len(set(twice.states)) == len(twice.states) == 2 * len(once.states)
    assert twice.states[: len(once.states)] == once.states

    nl, gt = synthesize(fsm)
    nl2, gt2 = synthesize(twice)
    base = extract_stg(nl, sorted(gt.sffs), free_inputs=list(fsm.inputs))
    stg2 = extract_stg(nl2, sorted(gt2.sffs), free_inputs=list(twice.inputs))
    base_sffs = sorted(gt.sffs)
    def_sffs = sorted(gt2.sffs)
    bit_map = {def_sffs[i]: base_sffs[i] for i in range(len(base_sffs))}
    # Each pass that extends the encoding appends a copy of its target bit.
    copies = [t for t, r in ((0, first), (1, second)) if r.extended_encoding]
    assert len(def_sffs) == len(base_sffs) + len(copies)
    for name, t in zip(def_sffs[len(base_sffs):], copies):
        bit_map[name] = base_sffs[t]
    added = twice.inputs[len(fsm.inputs):]
    assert len(added) == 2
    assert stg_equivalent(base, stg2, bit_map, frozen_inputs={o: 0 for o in added})


# -- honeypots ---------------------------------------------------------------------


def hp_base():
    states = [f"S{i}" for i in range(4)]
    return make_fsm(
        "m",
        states,
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)]
        + [(f"S{i}", {"a": 0, "b": 1}, "S0") for i in range(4)],
        moore_outputs={s: "10" if i % 2 else "01" for i, s in enumerate(states)},
    )


def test_derive_zero_mutations_is_copy():
    fsm = hp_base()
    hp = derive_honeypot(fsm, HoneypotParams(n_transition_mutations=0, n_output_mutations=0))
    assert hp.transitions == fsm.transitions
    assert hp.moore_outputs == fsm.moore_outputs


def test_derive_deterministic():
    fsm = hp_base()
    p = HoneypotParams(mutation_seed=3, n_transition_mutations=2, n_output_mutations=1)
    a = derive_honeypot(fsm, p)
    b = derive_honeypot(fsm, p)
    assert a == b


def test_derive_budget_error():
    fsm = hp_base()
    with pytest.raises(HoneypotError):
        derive_honeypot(fsm, HoneypotParams(n_transition_mutations=100))


@pytest.mark.parametrize("field", ["n_transition_mutations", "n_output_mutations"])
def test_derive_rejects_negative_mutation_counts(field):
    with pytest.raises(ValueError, match=f"HoneypotParams.{field} must be >= 0, got -1"):
        derive_honeypot(hp_base(), HoneypotParams(**{field: -1}))


def test_derived_honeypot_attractive_features():
    fsm = hp_base()
    hp = derive_honeypot(fsm, HoneypotParams(mutation_seed=1, n_transition_mutations=2))
    nl, gt = synthesize(hp)
    report = tarjan_scc(build_ff_graph(nl))
    assert any(set(m) >= gt.sffs for m in report.sccs), "state FFs must share one component"
    for f in sorted(gt.sffs):
        assert classify_feedback(nl, f, gt.sffs) is FeedbackClass.HIGH


def test_integration_preserves_outputs():
    fsm = hp_base()
    dp = DatapathSpec(counters=(Counter("c", 3, enable="out0"),))
    nl, gt = synthesize(fsm, dp)
    hp_nl, _ = synthesize(
        derive_honeypot(fsm, HoneypotParams(mutation_seed=2, n_transition_mutations=2)),
        None,
        SynthOptions(name_prefix="fsm"),
    )
    merged, hp_ffs = integrate_honeypot(nl, hp_nl, HoneypotParams())
    assert hp_ffs and all(f.startswith("hp_") for f in hp_ffs)
    from fsmtrap.harness import outputs_match

    assert outputs_match(nl, merged)


def test_integration_maps_clk_rst():
    fsm = hp_base()
    nl, _ = synthesize(fsm)
    hp_nl, _ = synthesize(fsm, None, SynthOptions(name_prefix="fsm"))
    merged, hp_ffs = integrate_honeypot(nl, hp_nl, HoneypotParams())
    for f in merged.ffs:
        if f.name in hp_ffs:
            assert f.clk == "clk" and f.rst == "rst"
    # Every decoy input is the design input of the same name.
    read = {n for g in merged.gates if g.name.startswith("hp_") for n in g.ins}
    assert read & set(merged.inputs) == {"a", "b"}


def test_integration_rejects_empty_decoy():
    nl, _ = synthesize(hp_base())
    empty = parse("input a\ngate NOT g o a\noutput o\n")
    with pytest.raises(IntegrationError):
        integrate_honeypot(nl, empty, HoneypotParams())


def test_integration_rejects_decoy_without_outputs():
    # Without outputs the decoy would have no fanout into the design at all.
    fsm = replace(hp_base(), moore_outputs=None)
    nl, _ = synthesize(hp_base())
    hp_nl, _ = synthesize(
        derive_honeypot(fsm, HoneypotParams(n_output_mutations=0)),
        None,
        SynthOptions(name_prefix="fsm"),
    )
    assert hp_nl.ffs and not hp_nl.outputs
    with pytest.raises(IntegrationError, match="decoy netlist has no outputs"):
        integrate_honeypot(nl, hp_nl, HoneypotParams())


def test_integration_needs_design_clock_and_reset():
    hp_nl, _ = synthesize(hp_base(), None, SynthOptions(name_prefix="fsm"))
    no_reset = parse("input clk\ninput a\ninput b\ngate NOT g o a\noutput o\n")
    with pytest.raises(IntegrationError, match="design has no rst input"):
        integrate_honeypot(no_reset, hp_nl, HoneypotParams())
    no_clock = parse("input rst\ninput a\ninput b\ngate NOT g o a\noutput o\n")
    with pytest.raises(IntegrationError, match="design has no clk input"):
        integrate_honeypot(no_clock, hp_nl, HoneypotParams())


def test_integration_needs_each_decoy_input_by_name():
    hp_nl, _ = synthesize(hp_base(), None, SynthOptions(name_prefix="fsm"))
    no_b = parse("input clk\ninput rst\ninput a\ninput c\ngate NOT g o a\noutput o\n")
    with pytest.raises(IntegrationError, match="design has no b input"):
        integrate_honeypot(no_b, hp_nl, HoneypotParams())


def test_integrating_twice_is_an_integration_error():
    fsm = hp_base()
    nl, _ = synthesize(fsm, DatapathSpec(counters=(Counter("c", 3, enable="out0"),)))
    hp_nl, _ = synthesize(fsm, None, SynthOptions(name_prefix="fsm"))
    once, _ = integrate_honeypot(nl, hp_nl, HoneypotParams())
    with pytest.raises(IntegrationError, match="decoy collides with the design"):
        integrate_honeypot(once, hp_nl, HoneypotParams())


def test_integration_needs_a_design_input():
    # The decoy's constant 0 is a two-gate chain on a design input.
    design = parse(
        "const c 0\ngate NOT g n f_q\ndff f q=f_q d=n clk=c en=f_q\noutput n\n"
    )
    decoy = parse("const k 0\ngate NOT h x hq\ndff hf q=hq d=x clk=k\noutput x\n")
    with pytest.raises(IntegrationError, match="design has no input"):
        integrate_honeypot(design, decoy, HoneypotParams())
    from fsmtrap.obfuscate import _CandidateScorer
    from fsmtrap.relic import _ShapeTable

    scorer = _CandidateScorer(design, _ShapeTable())
    with pytest.raises(IntegrationError, match="design has no input"):
        scorer.score(decoy, tarjan_scc(build_ff_graph(decoy)).sccs)


def test_integration_rejects_clashing_constants():
    design = parse("input clk\ninput a\nconst hp_k 1\ngate AND g o a hp_k\noutput o\n")
    decoy = parse("input clk\ninput a\nconst k 0\ngate XOR x n a k\ndff s q=sq d=n clk=clk\n")
    with pytest.raises(IntegrationError, match="constants collide"):
        integrate_honeypot(design, decoy, HoneypotParams())


def test_integration_without_enables_attaches_to_output_ports():
    fsm = hp_base()
    # One output port for the decoy's two outputs.
    one_port = replace(fsm, moore_outputs=tuple((s, o[:1]) for s, o in fsm.moore_outputs))
    nl, _ = synthesize(one_port)
    assert all(f.en is None for f in nl.ffs)
    hp_nl, _ = synthesize(
        derive_honeypot(fsm, HoneypotParams(mutation_seed=2, n_transition_mutations=2)),
        None,
        SynthOptions(name_prefix="fsm"),
    )
    merged, hp_ffs = integrate_honeypot(nl, hp_nl, HoneypotParams())
    # One OR mix per decoy output, cycling over the design's output ports.
    assert len(hp_nl.outputs) > len(nl.outputs)
    ports = list(nl.outputs)
    for i in range(len(hp_nl.outputs)):
        mix = merged.driver[f"hp_mix_{i}_o"]
        assert mix.kind == "OR" and mix.ins == (ports[i % len(ports)], f"hp_gate_{i}_o")
        ports[i % len(ports)] = mix.out
    assert merged.outputs == tuple(ports)
    assert [f.en for f in merged.ffs if f.name not in hp_ffs] == [None] * len(nl.ffs)
    from fsmtrap.harness import outputs_match

    assert outputs_match(nl, merged)


def test_tuner_bad_iters():
    fsm = hp_base()
    nl, gt = synthesize(fsm)
    with pytest.raises(HoneypotError):
        tune_honeypot(nl, gt.sffs, fsm, HoneypotParams(), max_iters=0)


def test_tuner_reports_margins_and_determinism():
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark
    from fsmtrap.obfuscate import ReplicationPlan

    fsm, dp = gen_benchmark(BenchmarkSpec(seed=3))
    rep = replicate_state_bits(fsm, ReplicationPlan(2))
    nl, gt = synthesize(rep, dp)
    a = tune_honeypot(nl, gt.sffs, fsm, HoneypotParams(n_output_mutations=1), max_iters=5)
    b = tune_honeypot(nl, gt.sffs, fsm, HoneypotParams(n_output_mutations=1), max_iters=5)
    assert a.found == b.found
    assert [i.seed for i in a.iterations] == [i.seed for i in b.iterations]
    assert all(i.hp_scc_max is not None for i in a.iterations)


def _tiny_fsm():
    """One state bit; its output gives a decoy copy a site to attach at."""
    return make_fsm(
        "t", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")],
        moore_outputs={"A": "0", "B": "1"},
    )


def test_tuner_small_fsm_can_fail_with_flag():
    # A single-bit decoy copied from a single-bit design ties every score:
    # no strict win is possible and the tuner must report failure.
    tiny = _tiny_fsm()
    nl, gt = synthesize(tiny)
    p = HoneypotParams(n_transition_mutations=0, n_output_mutations=0)
    report = tune_honeypot(nl, gt.sffs, tiny, p, max_iters=2)
    assert report.found is False
    assert report.iterations


def _defend_design():
    """The ``defend`` benchmark design: 48 states, 12-bit data, 3 pairs, 6 inputs."""
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark

    return gen_benchmark(
        BenchmarkSpec(seed=0, n_states=48, data_width=12, n_data_pairs=3, n_inputs=6)
    )


def _hex_table(table) -> tuple:
    """A z-score table with every float as its hex string."""
    return (
        table.ffs,
        {f: v.hex() for f, v in table.scores.items()},
        {f: tuple(x.hex() for x in v) for f, v in table.raw_features.items()},
        {f: tuple(x.hex() for x in v) for f, v in table.z_features.items()},
    )


@pytest.mark.parametrize("replicated", [False, True])
def test_tuner_shared_shape_table_scores_like_fresh_tables(replicated):
    # The reference integrates every candidate and scores it with a fresh
    # shape table; the tuner composes each candidate's scores on one table.
    from fsmtrap.netlist import serialize
    from fsmtrap.relic import zscores

    fsm, dp = _defend_design()
    design = replicate_state_bits(fsm, ReplicationPlan(2)) if replicated else fsm
    p = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)

    def tune(tuner):
        nl, gt = synthesize(design, dp)
        return tuner(nl, gt.sffs, fsm, p, max_iters=10, require_selection=replicated)

    shared = tune(tune_honeypot)
    alone = tune(oracles.tune_honeypot)
    assert len(alone.iterations) == (1 if replicated else 10)
    assert shared.iterations == alone.iterations
    assert shared.found == alone.found
    assert shared.params == alone.params
    assert shared.hp_ffs == alone.hp_ffs
    assert serialize(shared.integrated) == serialize(alone.integrated)
    za, zb = zscores(shared.integrated), zscores(alone.integrated)
    assert za.ffs == zb.ffs
    assert za.scores == zb.scores
    assert za.raw_features == zb.raw_features
    assert za.z_features == zb.z_features


@pytest.mark.parametrize(
    "design, r",
    [("defend", 0), ("defend", 2), (0, 0), (3, 2), (6, 2), (9, 2), ("tiny", 0), ("cw1", 0)],
    ids=["defend", "defend-r2", "seed0", "seed3-r2", "seed6-r2", "seed9-r2", "tiny", "chained"],
)
def test_tuner_reused_design_cone_ids_equal_fresh_walks(monkeypatch, design, r):
    # tune_honeypot interns the design's D-cones once per call and each
    # decoy's D-cones on the decoy netlist, and composes every candidate's
    # z-score table and SCC list without integrating it.  On every
    # candidate the ids must be those a fresh walk of the integrated netlist
    # interns into the same table, and the composed table (float-hex) and
    # SCCs those of the integrated netlist scored alone.  The designs are
    # those the tuner and pipeline tests tune, plus one whose single counter
    # enable takes both decoy outputs, the second mix ORed into the first.
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark
    from fsmtrap.netlist import serialize
    from fsmtrap.obfuscate import _CandidateScorer
    from fsmtrap.relic import RelicParams, zscores

    if design == "tiny":
        fsm, dp = _tiny_fsm(), None
    elif design == "defend":
        fsm, dp = _defend_design()
    elif design == "cw1":
        fsm, dp = gen_benchmark(BenchmarkSpec(seed=0, counter_width=1))
    else:
        fsm, dp = gen_benchmark(BenchmarkSpec(seed=design))
    nl, gt = synthesize(replicate_state_bits(fsm, ReplicationPlan(r)) if r else fsm, dp)
    p = HoneypotParams(n_transition_mutations=0 if design == "tiny" else 2)
    scored = []
    score = _CandidateScorer.score

    def spy(self, hp, hp_sccs):
        result = score(self, hp, hp_sccs)
        scored.append((self.shapes, hp, result))
        return result

    monkeypatch.setattr(_CandidateScorer, "score", spy)
    report = tune_honeypot(nl, gt.sffs, fsm, p, max_iters=10)
    assert len(scored) == len(report.iterations)
    depth = RelicParams().depth_limit
    design_roots = {(depth, f.d) for f in nl.ffs}
    for shapes, hp, (table, sccs) in scored:
        integrated, _ = integrate_honeypot(nl, hp, p)
        if design == "cw1":
            assert integrated.driver["hp_mix_1_o"].ins[0] == "hp_mix_0_o"
        assert set(shapes._carried) == design_roots
        roots = [f.d for f in integrated.ffs]
        assert shapes.cone_ids(integrated, roots, depth) == shapes.cone_ids(
            integrated, roots, depth, carried=False
        )
        assert _hex_table(table) == _hex_table(zscores(integrated))
        assert sccs == tarjan_scc(build_ff_graph(integrated)).sccs

    monkeypatch.undo()
    reference = oracles.tune_honeypot(nl, gt.sffs, fsm, p, max_iters=10)
    assert report.iterations == reference.iterations
    assert report.found == reference.found
    assert report.params == reference.params
    assert report.hp_ffs == reference.hp_ffs
    assert serialize(report.integrated) == serialize(reference.integrated)


def test_traced_tuning_run_records_one_layer_call_per_candidate(monkeypatch):
    # The benchmark's traced pass wraps the graph and synth calls tune_honeypot
    # makes itself: one decoy synthesis, FF graph and Tarjan pass per
    # candidate, then one zscores of the returned candidate.  The scorer's
    # own graph calls stay unwrapped.
    from collections import Counter
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from tracing import Tracer, nested_spans

    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    nl, gt = synthesize(fsm, dp)
    p = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
    tracer = Tracer()
    with nested_spans(tracer):
        report = tracer.call(
            "obfuscate.tune_honeypot", tune_honeypot, nl, gt.sffs, fsm, p, max_iters=10
        )
    assert len(report.iterations) == 10
    assert Counter(s.name for s in tracer.spans) == {
        "obfuscate.tune_honeypot": 1,
        "synth.synthesize": 10,
        "graph.build_ff_graph": 10,
        "graph.tarjan_scc": 10,
        "relic.zscores": 1,
    }


@pytest.mark.parametrize("replicated", [False, True])
def test_tuner_integrates_only_the_returned_candidate(monkeypatch, replicated):
    import fsmtrap.obfuscate as obf

    fsm, dp = _defend_design()
    design = replicate_state_bits(fsm, ReplicationPlan(2)) if replicated else fsm
    nl, gt = synthesize(design, dp)
    calls = []
    integrate = obf.integrate_honeypot

    def spy(*args):
        calls.append(args[1])
        return integrate(*args)

    monkeypatch.setattr(obf, "integrate_honeypot", spy)
    p = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
    report = tune_honeypot(nl, gt.sffs, fsm, p, max_iters=10, require_selection=replicated)
    assert (report.found, len(report.iterations)) == ((True, 1) if replicated else (False, 10))
    assert calls == [report.hp_netlist]


def test_derivation_validates_only_its_input(monkeypatch):
    # A candidate keeps the input's states, guards and encoding, so only the
    # input is validated, once, when it is built; no derivation validates.
    import fsmtrap.synth as synth_mod

    design, _ = _defend_design()
    validated = []
    validate = synth_mod.validate_fsm
    monkeypatch.setattr(synth_mod, "validate_fsm", lambda f: validated.append(f) or validate(f))
    fsm = replace(design)
    for seed in range(11):
        p = HoneypotParams(mutation_seed=seed, n_transition_mutations=2, n_output_mutations=1)
        derive_honeypot(fsm, p)
    assert validated == [fsm]


@pytest.mark.parametrize("profile", ["defend", "default", "verify"])
def test_derivation_checks_reachability_first_with_equal_decoys(monkeypatch, profile):
    import fsmtrap.obfuscate as obf
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark

    if profile == "defend":
        fsm, _ = _defend_design()
    elif profile == "default":
        fsm, _ = gen_benchmark(BenchmarkSpec(seed=0))
    else:
        fsm, _ = gen_benchmark(
            BenchmarkSpec(seed=0, n_states=64, data_width=4, n_data_pairs=1, n_inputs=8)
        )
    covers = []
    check_guards = obf._check_guards

    def spy(candidate):
        covers.append(candidate)
        return check_guards(candidate)

    def no_covers(candidate):
        raise AssertionError("derivation computes the guard covers")

    for seed in range(50):
        p = HoneypotParams(mutation_seed=seed, n_transition_mutations=2, n_output_mutations=1)
        assert derive_honeypot(fsm, p) == oracles.derive_honeypot(fsm, p)
        if profile == "defend":
            # No reachable candidate of this design has ambiguous guards, so
            # only the accepted one reaches the guard check.
            with monkeypatch.context() as m:
                m.setattr(obf, "_check_guards", spy)
                # ``synthesize`` computes the decoy's covers; derivation
                # only checks its guards.
                m.setattr(obf, "_effective_covers", no_covers)
                decoy = derive_honeypot(fsm, p)
            assert covers == [decoy]
            covers.clear()


def test_tuner_builds_one_shape_table_per_call(monkeypatch):
    from fsmtrap.harness import BenchmarkSpec, gen_benchmark
    from fsmtrap.relic import _ShapeTable

    built = []
    init = _ShapeTable.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    nl, gt = synthesize(fsm, dp)
    p = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
    monkeypatch.setattr(_ShapeTable, "__init__", counting_init)
    first = tune_honeypot(nl, gt.sffs, fsm, p, max_iters=4)
    assert len(built) == 1
    second = tune_honeypot(nl, gt.sffs, fsm, p, max_iters=4)
    assert len(built) == 2 and built[0] is not built[1]
    assert len(first.iterations) == len(second.iterations) == 4
