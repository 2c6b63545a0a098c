import random

import pytest

from fsmtrap.netlist import (
    CombinationalCycleError,
    MultipleDriverError,
    ParseError,
    UndrivenNetError,
    parse,
    reset_state,
    serialize,
)
from fsmtrap.synth import SynthOptions, make_fsm, synthesize

from conftest import random_comb_netlist
from oracles import MissingAssignmentError, eval_comb, step


def test_parse_minimal():
    nl = parse("input a\ngate NOT g1 n1 a\noutput n1\n")
    assert nl.inputs == ("a",)
    assert nl.outputs == ("n1",)
    assert len(nl.gates) == 1


def test_parse_comments_and_blank_lines():
    nl = parse("# a comment\n\ninput a  # trailing\ngate BUF b n a\noutput n\n")
    assert nl.inputs == ("a",)


def test_multiple_driver_error_names_net():
    text = "input a\ngate NOT g1 n1 a\ngate BUF g2 n1 a\n"
    with pytest.raises(MultipleDriverError) as e:
        parse(text)
    assert e.value.net == "n1"


def test_undriven_net_error():
    with pytest.raises(UndrivenNetError):
        parse("input a\ngate AND g1 o a missing\n")


def test_syntax_error_reports_line():
    with pytest.raises(ParseError) as e:
        parse("input a\nfrobnicate x\n")
    assert e.value.lineno == 2


def test_dff_parsing_full_pins():
    nl = parse(
        "input clk\ninput rst\ninput e\ninput d\n"
        "dff f1 q=q1 d=d clk=clk rst=rst rstval=1 en=e\n"
    )
    f = nl.ffs[0]
    assert f.rst == "rst" and f.rst_val == 1 and f.en == "e"


def test_rstval_without_rst_rejected():
    with pytest.raises(ParseError):
        parse("input clk\ninput d\ndff f q=q d=d clk=clk rstval=1\n")


def test_gate_arity_checks():
    with pytest.raises(Exception):
        parse("input a\ngate NOT g o a a\n")
    with pytest.raises(Exception):
        parse("input a\ngate MUX g o a a\n")
    with pytest.raises(Exception):
        parse("input a\ngate AND g o a\n")


def test_serialize_round_trip_identity():
    text = (
        "input a\ninput b\nconst c0 0\n"
        "gate AND g1 n1 a b\ngate XOR g2 n2 n1 c0\n"
        "dff f1 q=q1 d=n2 clk=a\noutput n2\n"
    )
    nl = parse(text)
    canon = serialize(nl)
    again = parse(canon)
    assert again.name == nl.name
    assert serialize(again) == canon


def test_round_trip_of_synthesized_fsm():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(6)],
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 6}") for i in range(6)],
        encoding="one_hot",
    )
    nl, _ = synthesize(fsm, None, SynthOptions())
    again = parse(serialize(nl), name=nl.name)
    assert again.name == nl.name
    assert serialize(again) == serialize(nl)


@pytest.mark.parametrize(
    "kind,vals,expect",
    [
        ("AND", (1, 1), 1),
        ("AND", (1, 0), 0),
        ("OR", (0, 0), 0),
        ("OR", (0, 1), 1),
        ("NAND", (1, 1), 0),
        ("NOR", (0, 0), 1),
        ("XOR", (1, 1), 0),
        ("XOR", (1, 0), 1),
        ("XNOR", (1, 1), 1),
        ("NOT", (1,), 0),
        ("BUF", (1,), 1),
    ],
)
def test_gate_truth_tables(kind, vals, expect):
    ins = [f"i{k}" for k in range(len(vals))]
    text = "".join(f"input {n}\n" for n in ins)
    text += f"gate {kind} g o {' '.join(ins)}\noutput o\n"
    nl = parse(text)
    out = eval_comb(nl, dict(zip(ins, vals)))
    assert out["o"] == expect


def test_mux_semantics():
    nl = parse("input s\ninput a\ninput b\ngate MUX g o s a b\noutput o\n")
    assert eval_comb(nl, {"s": 0, "a": 0, "b": 1})["o"] == 0
    assert eval_comb(nl, {"s": 1, "a": 0, "b": 1})["o"] == 1


def _recursive_oracle(nl, assignment):
    """Independent evaluator: memoized recursion, boolean ops spelled out."""
    memo = {}

    def val(net):
        if net in memo:
            return memo[net]
        drv = nl.driver[net]
        if drv == "input":
            v = assignment[net]
        elif drv == "const":
            v = nl.constants[net]
        elif hasattr(drv, "q"):
            v = assignment[net]
        else:
            ins = [val(n) for n in drv.ins]
            k = drv.kind
            if k == "NOT":
                v = 0 if ins[0] else 1
            elif k == "BUF":
                v = ins[0]
            elif k == "AND":
                v = int(all(ins))
            elif k == "OR":
                v = int(any(ins))
            elif k == "NAND":
                v = int(not all(ins))
            elif k == "NOR":
                v = int(not any(ins))
            elif k == "XOR":
                v = sum(ins) % 2
            elif k == "XNOR":
                v = (sum(ins) + 1) % 2
            else:  # MUX
                v = ins[1] if ins[0] == 0 else ins[2]
        memo[net] = v
        return v

    return {net: val(net) for net in nl.driver}


def test_eval_comb_matches_recursive_oracle():
    rng = random.Random(99)
    for seed in range(12):
        nl = random_comb_netlist(seed, n_inputs=5, n_gates=50)
        for _ in range(20):
            assign = {n: rng.randint(0, 1) for n in nl.inputs}
            assert eval_comb(nl, assign) == _recursive_oracle(nl, assign)


def test_eval_comb_order_independent():
    # Same netlist with gates declared in reverse order evaluates identically.
    nl = random_comb_netlist(3, n_gates=30)
    from fsmtrap.netlist import Netlist

    reversed_nl = Netlist(
        nl.name, nl.inputs, nl.outputs, dict(nl.constants), tuple(reversed(nl.gates)), ()
    )
    assign = {n: 1 for n in nl.inputs}
    assert eval_comb(nl, assign) == eval_comb(reversed_nl, assign)


def test_eval_comb_missing_assignment():
    nl = parse("input a\ninput b\ngate AND g o a b\noutput o\n")
    with pytest.raises(MissingAssignmentError):
        eval_comb(nl, {"a": 1})


def test_combinational_cycle_rejected():
    cases = [
        (
            "input a\n"
            "gate AND g1 n1 a n2\n"
            "gate BUF g2 n2 n1\n"
            "output n1\n",
            {"g1", "g2"},
        ),
        # A 3-gate loop c1 -> c2 -> c3 -> c1 behind an acyclic prefix (p1,
        # p2), listed out of order after a gate the loop drives.
        (
            "input a\ninput b\n"
            "gate BUF d1 o l2\n"
            "gate XOR c3 l3 l2 m2\n"
            "gate AND p1 m1 a b\n"
            "gate OR c1 l1 l3 m1\n"
            "gate NOT p2 m2 m1\n"
            "gate NAND c2 l2 l1 b\n"
            "output o\n",
            {"c1", "c2", "c3"},
        ),
    ]
    for text, loop in cases:
        nl = parse(text)
        with pytest.raises(CombinationalCycleError) as e:
            eval_comb(nl, {n: 1 for n in nl.inputs})
        gates = e.value.gates
        assert len(gates) == len(loop) and set(gates) == loop
        by_name = {g.name: g for g in nl.gates}
        # Each gate drives an input of the next, and the last the first.
        for g, nxt in zip(gates, gates[1:] + gates[:1]):
            assert by_name[g].out in by_name[nxt].ins


def test_step_reset_dominates():
    nl = parse(
        "input clk\ninput rst\ninput d\n"
        "dff f1 q=q1 d=d clk=clk rst=rst rstval=1\n"
        "dff f2 q=q2 d=d clk=clk\n"
    )
    nxt = step(nl, {"f1": 0, "f2": 0}, {"clk": 0, "rst": 1, "d": 0}, reset_asserted=True)
    assert nxt["f1"] == 1  # resettable: forced to rst_val
    assert nxt["f2"] == 0  # no reset pin: captures d


def test_step_enable_holds():
    nl = parse(
        "input clk\ninput en\ninput d\n"
        "dff f q=q d=d clk=clk en=en\n"
    )
    assert step(nl, {"f": 1}, {"clk": 0, "en": 0, "d": 0})["f"] == 1
    assert step(nl, {"f": 1}, {"clk": 0, "en": 1, "d": 0})["f"] == 0


def _counter3() -> str:
    # 3-bit ripple up-counter: d0 = !q0, d1 = q1^q0, d2 = q2^(q1&q0)
    return (
        "input clk\ninput rst\n"
        "gate NOT gi n0 c0_q\n"
        "gate XOR gx1 n1 c1_q c0_q\n"
        "gate AND ga n2a c1_q c0_q\n"
        "gate XOR gx2 n2 c2_q n2a\n"
        "dff c0 q=c0_q d=n0 clk=clk rst=rst rstval=0\n"
        "dff c1 q=c1_q d=n1 clk=clk rst=rst rstval=0\n"
        "dff c2 q=c2_q d=n2 clk=clk rst=rst rstval=0\n"
    )


def test_counter_steps_match_arithmetic():
    nl = parse(_counter3())
    state = reset_state(nl)
    for k in range(1, 6):
        state = step(nl, state, {"clk": 0, "rst": 0})
        value = state["c0"] + 2 * state["c1"] + 4 * state["c2"]
        assert value == k
    assert value == 5  # 101


def test_step_reset_independent_of_prior_state():
    nl = parse(_counter3())
    a = step(nl, {"c0": 1, "c1": 0, "c2": 1}, {"clk": 0, "rst": 1}, reset_asserted=True)
    b = step(nl, {"c0": 0, "c1": 1, "c2": 0}, {"clk": 0, "rst": 1}, reset_asserted=True)
    assert a == b
