import gc
import random
from dataclasses import replace

import pytest

from fsmtrap.graph import build_ff_graph, classify_feedback, FeedbackClass
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import reset_state, serialize
from fsmtrap.obfuscate import HoneypotParams, tune_honeypot
from fsmtrap.relic import relic_tarjan, zscores
from fsmtrap.specio import design_text, parse_design
from fsmtrap.synth import (
    AddOp,
    AmbiguityError,
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    ONE_HOT,
    PinRef,
    RegRef,
    SpecError,
    SynthOptions,
    XorOp,
    _bit_covers,
    _droppable_bits,
    _effective_covers,
    encode,
    make_fsm,
    state_ff_name,
    synthesize,
)
from fsmtrap.cubes import cover_minterms
from fsmtrap.topo import topo_attack

from conftest import random_fsm
from oracles import decode_state, simulate_spec, state_bits_of, step


def six_state_fsm(**kw):
    states = [f"S{i}" for i in range(1, 7)]
    transitions = [(f"S{i}", {"a": 1}, f"S{i % 6 + 1}") for i in range(1, 7)]
    return make_fsm("m", states, ["a"], "S1", transitions, **kw)


def test_binary_encoding_matches_worked_labels():
    codes = encode(six_state_fsm())
    assert codes == {
        "S1": "000",
        "S2": "001",
        "S3": "010",
        "S4": "011",
        "S5": "100",
        "S6": "101",
    }


def test_one_hot_encoding():
    fsm = make_fsm("m", ["A", "B", "C"], ["a"], "A", [("A", {"a": 1}, "B")], encoding="one_hot")
    assert encode(fsm) == {"A": "100", "B": "010", "C": "001"}


def test_explicit_encoding_passthrough():
    nine = {
        "S1": "000000000",
        "S2": "000000111",
        "S3": "000111000",
        "S4": "000111111",
        "S5": "111000000",
        "S6": "111000111",
    }
    fsm = six_state_fsm(encoding=nine)
    assert encode(fsm) == nine


def test_explicit_duplicate_codes_rejected():
    with pytest.raises(SpecError):
        make_fsm("m", ["A", "B"], ["a"], "A", [], encoding={"A": "00", "B": "00"})


def test_toggle_fsm_single_sff_with_high_fp():
    fsm = make_fsm("t", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")])
    nl, gt = synthesize(fsm)
    assert len(gt.sffs) == 1
    (sff,) = gt.sffs
    assert classify_feedback(nl, sff, gt.sffs) is FeedbackClass.HIGH


def test_six_state_with_datapath_has_three_sffs():
    dp = DatapathSpec(
        data_regs=(DataReg("acc", 8, AddOp(RegRef("acc"), PinRef("x"))),),
    )
    nl, gt = synthesize(six_state_fsm(), dp)
    assert len(gt.sffs) == 3
    assert len(dict(gt.data)["acc"]) == 8


def test_synthesis_deterministic_byte_identical():
    fsm = six_state_fsm()
    dp = DatapathSpec(counters=(Counter("c", 3),))
    a, _ = synthesize(fsm, dp, SynthOptions())
    b, _ = synthesize(fsm, dp, SynthOptions())
    assert serialize(a) == serialize(b)


def test_ambiguous_guards_rejected():
    fsm = make_fsm(
        "m",
        ["A", "B", "C"],
        ["x", "y"],
        "A",
        [("A", {"x": 1}, "B"), ("A", {"y": 1}, "C")],  # overlap x=1,y=1
    )
    with pytest.raises(AmbiguityError):
        synthesize(fsm)


def test_overlapping_same_destination_allowed():
    fsm = make_fsm(
        "m",
        ["A", "B"],
        ["x", "y"],
        "A",
        [("A", {"x": 1}, "B"), ("A", {"y": 1}, "B"), ("B", {}, "A")],
    )
    nl, gt = synthesize(fsm)
    state = reset_state(nl)
    nxt = step(nl, state, {"clk": 0, "rst": 0, "x": 0, "y": 1})
    assert state_bits_of(nxt, "u0", 1) == "1"


def test_simulate_spec_empty_trace():
    fsm = six_state_fsm()
    assert simulate_spec(fsm, []) == ["S1"]


def test_simulate_spec_toggle():
    fsm = make_fsm("t", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")])
    assert simulate_spec(fsm, [{"x": 1}] * 3) == ["A", "B", "A", "B"]


def test_simulate_spec_unmatched_holds():
    fsm = make_fsm("t", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B")])
    assert simulate_spec(fsm, [{"x": 0}, {"x": 1}, {"x": 0}]) == ["A", "A", "B", "B"]


@pytest.mark.parametrize("cse", [False, True])
def test_spec_netlist_bisimulation(cse):
    rng = random.Random(4242)
    for seed in range(20):
        fsm = random_fsm(seed)
        nl, gt = synthesize(fsm, None, SynthOptions(allow_cse=cse))
        codes = encode(fsm)
        width = len(next(iter(codes.values())))
        trace = [
            {x: rng.randint(0, 1) for x in fsm.inputs} for _ in range(200)
        ]
        expected = simulate_spec(fsm, trace)
        state = reset_state(nl)
        got = [decode_state(codes, state_bits_of(state, "u0", width))]
        for vec in trace:
            state = step(nl, state, {"clk": 0, "rst": 0, **vec})
            got.append(decode_state(codes, state_bits_of(state, "u0", width)))
        assert got == expected


def test_wide_register_name_order_is_bit_order():
    # 12 one-hot bits: unpadded names would sort u0_st10 before u0_st2.
    n = 12
    states = [f"S{i}" for i in range(n)]
    transitions = [(f"S{i}", {"a": 1}, f"S{(i + 1) % n}") for i in range(n)]
    transitions += [(f"S{i}", {"a": 0, "b": 1}, f"S{(i + 5) % n}") for i in range(n)]
    fsm = make_fsm("w", states, ["a", "b"], "S0", transitions)
    nl, gt = synthesize(fsm, None, SynthOptions(allow_reencode=True))
    codes = encode(replace(fsm, encoding=ONE_HOT))
    width = len(gt.sffs)
    assert width == n
    names = sorted(gt.sffs)
    assert names == [state_ff_name("u0", b, width) for b in range(width)]
    assert names[2] == "u0_st02" and names[10] == "u0_st10"

    rng = random.Random(7)
    trace = [{"a": rng.randint(0, 1), "b": rng.randint(0, 1)} for _ in range(200)]
    expected = simulate_spec(fsm, trace)

    def bits_of(state):
        bits = state_bits_of(state, "u0", width)
        assert "".join(str(state[f]) for f in names) == bits
        return bits

    state = reset_state(nl)
    got = [decode_state(codes, bits_of(state))]
    for vec in trace:
        state = step(nl, state, {"clk": 0, "rst": 0, **vec})
        got.append(decode_state(codes, bits_of(state)))
    assert got == expected
    assert set(expected) == set(states)


def test_private_cones_disjoint_without_cse():
    fsm = six_state_fsm()
    dp = DatapathSpec(
        counters=(Counter("c", 4),),
        data_regs=(
            DataReg("r0", 4, XorOp(RegRef("r0"), AndOp(RegRef("r1"), PinRef("p")))),
            DataReg("r1", 4, XorOp(RegRef("r1"), PinRef("q"))),
        ),
    )
    nl, gt = synthesize(fsm, dp, SynthOptions(allow_cse=False))
    support = {}
    from fsmtrap.obfuscate import _cone_gates

    for f in nl.ffs:
        support[f.name] = _cone_gates(nl, f.d)
    names = sorted(support)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not (support[a] & support[b]), f"cones of {a} and {b} share gates"


def test_cse_shares_gates():
    fsm = six_state_fsm()
    a, _ = synthesize(fsm, None, SynthOptions(allow_cse=False))
    b, _ = synthesize(fsm, None, SynthOptions(allow_cse=True))
    assert len(b.gates) < len(a.gates)


def test_reencode_gives_one_hot():
    fsm = six_state_fsm()
    nl, gt = synthesize(fsm, None, SynthOptions(allow_reencode=True))
    assert len(gt.sffs) == 6
    # reset state is one-hot
    rs = reset_state(nl)
    assert sum(rs[f] for f in gt.sffs) == 1


def test_every_sff_has_high_fp_with_hold_terms():
    for seed in range(6):
        fsm = random_fsm(seed, max_states=6)
        nl, gt = synthesize(fsm)
        g = build_ff_graph(nl)
        for f in sorted(gt.sffs):
            assert f in g.comb[f], f"{f} lost its high feedback path"


def test_counter_enable_is_symbolic():
    fsm = six_state_fsm(moore_outputs={f"S{i}": "1" if i < 4 else "0" for i in range(1, 7)})
    dp = DatapathSpec(counters=(Counter("c", 3, enable="out0"),))
    nl, gt = synthesize(fsm, dp)
    ens = {f.en for f in nl.ffs if f.name in dict(gt.counters)["c"]}
    assert ens == {"u0_out0"}


def test_counter_enabled_by_a_design_input():
    # An enable that is no FSM input becomes a design input after them.
    fsm = six_state_fsm()
    dp = DatapathSpec(counters=(Counter("c", 3, enable="go"),))
    nl, gt = synthesize(fsm, dp)
    assert nl.inputs == ("clk", "rst", "a", "go")
    assert {f.en for f in nl.ffs if f.name in dict(gt.counters)["c"]} == {"go"}
    assert parse_design(design_text(fsm, dp)) == (fsm, dp)
    # An FSM input as the enable adds no input.
    dp = DatapathSpec(counters=(Counter("c", 3, enable="a"),))
    nl, gt = synthesize(fsm, dp)
    assert nl.inputs == ("clk", "rst", "a")
    assert {f.en for f in nl.ffs if f.name in dict(gt.counters)["c"]} == {"a"}


def test_counter_counts_with_enable():
    fsm = make_fsm("m", ["A"], ["z"], "A", [], moore_outputs={"A": "1"})
    dp = DatapathSpec(counters=(Counter("c", 3, enable="out0"),))
    nl, gt = synthesize(fsm, dp)
    state = reset_state(nl)
    for _ in range(5):
        state = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    value = sum(state[f"u0_c_{i}"] << i for i in range(3))
    assert value == 5


def test_down_counter():
    fsm = make_fsm("m", ["A"], ["z"], "A", [])
    dp = DatapathSpec(counters=(Counter("c", 3, direction="down"),))
    nl, _ = synthesize(fsm, dp)
    state = reset_state(nl)
    state = step(nl, state, {"clk": 0, "rst": 0, "z": 0})
    value = sum(state[f"u0_c_{i}"] << i for i in range(3))
    assert value == 7  # 0 - 1 wraps to all ones


def test_parse_synthesize_and_attack_leave_no_cyclic_garbage():
    # Reference cycles would keep each netlist (with its cached support,
    # FF graph and z-score table) and each gate builder alive until a
    # full collection; everything must be freed by reference counting.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=2))
    text = design_text(fsm, dp)
    gc.disable()
    try:
        gc.collect()
        fsm2, dp2 = parse_design(text)
        nl, gt = synthesize(fsm2, dp2)
        zscores(nl)
        relic_tarjan(nl, truth=gt.sffs)
        topo_attack(nl, truth=gt.sffs)
        del fsm2, dp2, nl, gt
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tune_honeypot_leaves_no_cyclic_garbage():
    # The per-call cone memo and the shared shape table must be freed by
    # reference counting; a self-calling closure over the memo would not be.
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=0))
    nl, gt = synthesize(fsm, dp)
    p = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
    gc.disable()
    try:
        gc.collect()
        report = tune_honeypot(nl, gt.sffs, fsm, p)
        assert report.iterations
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_droppable_bits(fsm, codes, pos):
    """The eager form: every (state, bit) minterm set up front."""
    width = len(next(iter(codes.values())))
    by_code = {codes[s]: s for s in fsm.states}
    minterms = {
        s: [cover_minterms(pos[s][b], fsm.inputs) for b in range(width)]
        for s in fsm.states
    }
    drop = []
    for b in range(width):
        ok = True
        for s in fsm.states:
            c = codes[s]
            partner = c[:b] + ("1" if c[b] == "0" else "0") + c[b + 1:]
            other = by_code.get(partner)
            if other is None:
                if minterms[s][b]:
                    ok = False
                    break
            elif minterms[s][b] != minterms[other][b]:
                ok = False
                break
        drop.append(ok)
    return drop


def _mostly_input_driven_fsm(seed: int, n_inputs: int):
    """Most states share one transition table, so some state bits' next
    values do not depend on their current value."""
    rng = random.Random(seed)
    states = [f"S{i}" for i in range(rng.choice((2, 3, 4, 6, 8)))]
    inputs = [f"x{i}" for i in range(n_inputs)]

    def table():
        # Complete, so that no state holds on an unmatched input.
        var, other = rng.sample(inputs, 2)
        return [
            ({var: 1}, rng.choice(states)),
            ({var: 0, other: 1}, rng.choice(states)),
            ({var: 0, other: 0}, rng.choice(states)),
        ]

    shared = table()
    transitions = [
        (s, cube, dst)
        for s in states
        for cube, dst in (shared if rng.random() < 0.7 else table())
    ]
    return make_fsm(f"d{seed}", states, inputs, states[0], transitions, encoding="binary")


def test_droppable_bits_match_eager_reference():
    fsms = [random_fsm(seed, max_states=8, max_inputs=5) for seed in range(60)]
    fsms += [_mostly_input_driven_fsm(seed, 2 + seed % 4) for seed in range(40)]
    fsms += [
        gen_benchmark(BenchmarkSpec(seed=seed, n_states=k, n_inputs=m))[0]
        for seed in range(3)
        for k in (3, 6, 9)
        for m in (2, 3, 4, 5)
    ]
    fsms = [f for f in fsms if 2 <= len(f.inputs) <= 5]
    verdicts = set()
    for fsm in fsms:
        codes = encode(fsm)
        pos = _bit_covers(fsm, codes, *_effective_covers(fsm))
        drop = _droppable_bits(fsm, codes, pos)
        assert drop == _reference_droppable_bits(fsm, codes, pos)
        verdicts.update(drop)
    assert {len(f.inputs) for f in fsms} == {2, 3, 4, 5}
    assert verdicts == {True, False}


def test_synthesize_validates_once_fsm_before_datapath(monkeypatch):
    import fsmtrap.synth as synth_mod

    calls = []
    validate = synth_mod.validate_fsm

    def spy(fsm):
        calls.append(fsm)
        return validate(fsm)

    # The FSM is validated once, when it is built; neither synthesis nor its
    # one-hot re-encoding validates it again.
    monkeypatch.setattr(synth_mod, "validate_fsm", spy)
    fsm = six_state_fsm()
    synthesize(fsm, None)
    synthesize(fsm, None, SynthOptions(allow_reencode=True))
    assert calls == [fsm]

    # The FSM is checked as given, before the datapath and before any
    # re-encoding, each error with its own message.
    good = six_state_fsm()
    t = good.transitions[0]

    def bad_dp():
        return DatapathSpec(data_regs=(DataReg("r", 0, AddOp(RegRef("r"), PinRef("p"))),))

    cases = [
        (lambda: replace(good, reset_state="X"), "reset state X not declared"),
        (
            lambda: replace(good, transitions=good.transitions + (replace(t, dst="X"),)),
            "transition endpoint not a state: S1->X",
        ),
        (
            lambda: replace(good, transitions=(replace(t, guard=(("z", 1),)),)),
            "guard references undeclared input z",
        ),
        (
            lambda: replace(good, encoding=tuple((s, "00") for s in good.states)),
            "explicit codes must be distinct",
        ),
    ]
    for build, message in cases:
        for opts in (SynthOptions(), SynthOptions(allow_reencode=True)):
            with pytest.raises(SpecError, match=message):
                synthesize(build(), bad_dp(), opts)
    with pytest.raises(SpecError, match="register r width must be >= 1"):
        synthesize(good, bad_dp())
