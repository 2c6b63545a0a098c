import random
from dataclasses import replace

import pytest

from fsmtrap.specio import (
    FormatError,
    design_text,
    ground_truth_text,
    parse_design,
    parse_ground_truth,
)
from fsmtrap.synth import GroundTruth, SpecError, synthesize

DOC = """\
fsm main
  states S0 S1 S2
  inputs a b
  encoding binary
  reset S0
  transition S0 -> S1 when a=1
  transition S0 -> S2 when a=0 b=1
  transition S1 -> S0 when b=1
  moore S0 10
  moore S1 01
  moore S2 00
end
datapath
  counter c width 3 up enable out0
  reg acc width 4 update xor(acc, and(acc, pin(x)))
  reg sum width 4 update add(sum, pin(y))
  reg sh width 4 update load(shl(sh, 1))
  wire w0 reg acc 0
  wire w1 fsm_out 1
end
"""


def test_design_round_trip():
    fsm, dp = parse_design(DOC)
    assert fsm.states == ("S0", "S1", "S2")
    assert len(dp.counters) == 1 and dp.counters[0].enable == "out0"
    assert len(dp.data_regs) == 3
    text = design_text(fsm, dp)
    fsm2, dp2 = parse_design(text)
    assert fsm2 == fsm
    assert dp2 == dp
    assert design_text(fsm2, dp2) == text


def test_design_synthesizes():
    fsm, dp = parse_design(DOC)
    nl, gt = synthesize(fsm, dp)
    assert len(gt.sffs) == 2
    assert set(dict(gt.counters)) == {"c"}
    assert set(dict(gt.data)) == {"acc", "sum", "sh"}


def test_replicated_counter_round_trips():
    fsm, dp = parse_design(DOC)
    from fsmtrap.obfuscate import replicate_counter

    dp2 = replicate_counter(dp, "c", 2)
    text = design_text(fsm, dp2)
    assert "replicas 2" in text
    _, dp3 = parse_design(text)
    assert dp3 == dp2


def test_bad_expression_rejected():
    bad = DOC.replace("xor(acc, and(acc, pin(x)))", "frob(acc)")
    with pytest.raises(FormatError):
        parse_design(bad)


def test_missing_reset_rejected():
    bad = DOC.replace("  reset S0\n", "")
    with pytest.raises(FormatError):
        parse_design(bad)


def test_ground_truth_round_trip():
    fsm, dp = parse_design(DOC)
    _, gt = synthesize(fsm, dp)
    gt = replace(gt, honeypots=frozenset({"hp_fsm_st0"}))
    text = ground_truth_text(gt)
    assert "sff u0_st0" in text
    assert "counter c u0_c_0" in text
    assert "honeypot hp_fsm_st0" in text
    again = parse_ground_truth(text)
    assert again.sffs == gt.sffs
    assert dict(again.counters) == dict(gt.counters)
    assert dict(again.data) == dict(gt.data)
    assert again.honeypots == gt.honeypots


def test_ground_truth_bad_line():
    with pytest.raises(FormatError):
        parse_ground_truth("sff\n")


# Tokens a mutation may insert: names, bits, keywords and punctuation of the
# design format, so mutants reach the later validation stages.
_FUZZ_TOKENS = (
    "S0 S1 S2 S3 a b x y 0 1 01 10 2 -1 -> when a=1 b=0 ( ) reg counter "
    "fsm_out width acc end fsm datapath code moore explicit one_hot zz"
).split()

EXPLICIT_DOC = DOC.replace(
    "encoding binary", "encoding explicit\n  code S0 00\n  code S1 01\n  code S2 10"
)


def _mutate(text: str, rng: random.Random) -> str:
    """One to three line, token or character edits of a design document."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        i = rng.randrange(len(lines))
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice("=->(),#01 xS_") + lines[i][k + 1:]
        else:
            toks = lines[i].split()
            if not toks:
                continue
            j = rng.randrange(len(toks))
            if op == 3:
                toks[j] = rng.choice(_FUZZ_TOKENS)
            elif op == 4:
                del toks[j]
            else:
                toks.insert(j, rng.choice(_FUZZ_TOKENS))
            lines[i] = "  " + " ".join(toks)
    return "\n".join(lines) + "\n"


def test_mutated_documents_raise_only_domain_errors():
    parsed = 0
    for seed in range(3000):
        rng = random.Random(seed)
        doc = _mutate(rng.choice((DOC, EXPLICIT_DOC)), rng)
        try:
            fsm, dp = parse_design(doc)
        except (FormatError, SpecError):
            continue
        parsed += 1
        assert parse_design(design_text(fsm, dp)) == (fsm, dp), doc
    # Enough mutants survive for the round trip to be exercised.
    assert parsed > 100


@pytest.mark.parametrize(
    "doc, old, new",
    [
        (DOC, "  moore S2 00\n", ""),  # a declared state without outputs
        (DOC, "  moore S2 00\n", "  moore S9 00\n"),  # outputs of an undeclared state
        (EXPLICIT_DOC, "code S2 10", "code S9 10"),  # code of an undeclared state
        (DOC, "wire w0 reg acc 0", "wire w0 reg acc x"),  # non-integer bit
        (DOC, "wire w1 fsm_out 1", "wire w1 fsm_out one"),
    ],
    ids=["moore-missing", "moore-undeclared", "code-undeclared", "wire-reg-bit", "wire-fsm-out-bit"],
)
def test_inconsistent_documents_rejected(doc, old, new):
    assert old in doc
    with pytest.raises((FormatError, SpecError)):
        parse_design(doc.replace(old, new))


@pytest.mark.parametrize(
    "doc, message",
    [
        (DOC + "fsm other\n  transition S1 -> S2 when a=1\nend\n", "line 21: second fsm section"),
        (DOC + "datapath\n  counter d width 2 up\nend\n", "line 21: second datapath section"),
        (DOC.replace("datapath\n", "datapath extra\n"), "line 13: datapath section takes no"),
        (DOC.removesuffix("end\n"), "line 13: datapath section has no end"),
        (DOC.split("datapath\n")[0].replace("end\n", ""), "line 1: fsm section has no end"),
        (DOC.replace("end\n", "end of fsm\n", 1), "line 12: end takes no arguments"),
        (DOC.replace("\nend\n", "\nend x\n", 1), "line 12: end takes no arguments"),
        (DOC.removesuffix("end\n") + "end x\n", "line 20: end takes no arguments"),
    ],
    ids=["second-fsm", "second-datapath", "datapath-arguments", "unclosed-datapath",
         "unclosed-fsm", "end-of-fsm", "end-x", "end-x-datapath"],
)
def test_section_structure_rejected(doc, message):
    with pytest.raises(FormatError, match=message):
        parse_design(doc)
