"""Text formats for design specifications and ground-truth tables.

Design documents carry one ``fsm`` section and an optional ``datapath``
section::

    fsm main
      states S0 S1 S2
      inputs a b
      encoding binary          # binary | one_hot | explicit (+ code lines)
      reset S0
      transition S0 -> S1 when a=1
      transition S0 -> S2 when a=0 b=1
      moore S0 10
    end
    datapath
      counter c width 3 up enable out0
      reg acc width 8 update xor(acc, and(acc, pin(x)))
      wire w0 reg acc 0
      wire w1 fsm_out 0
    end

Ground truth is a line table: ``sff <ff>``, ``counter <group> <ff>``,
``data <group> <ff>``, plus ``honeypot <ff>`` for integrated decoys.
"""

from __future__ import annotations

import re
from typing import Optional

from .synth import (
    AddOp,
    AndOp,
    Counter,
    DataReg,
    DatapathSpec,
    FsmSpec,
    GroundTruth,
    LoadOp,
    PinRef,
    RegRef,
    ShlOp,
    SpecError,
    XorOp,
    make_fsm,
)


class FormatError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[(),]")


def _parse_expr(text: str, lineno: int):
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens).replace(" ", "") != re.sub(r"\s+", "", text):
        raise FormatError(lineno, f"cannot tokenize expression {text!r}")
    parser = _ExprParser(tokens, lineno)
    expr = parser.parse()
    if parser.pos != len(tokens):
        raise FormatError(lineno, f"trailing tokens in expression {text!r}")
    return expr


class _ExprParser:
    """Recursive-descent parser over one expression's tokens."""

    def __init__(self, tokens: list, lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        if self.pos >= len(self.tokens):
            raise FormatError(self.lineno, "unexpected end of expression")
        tok = self.tokens[self.pos]
        if expect is not None and tok != expect:
            raise FormatError(self.lineno, f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        tok = self.take()
        if not re.match(r"[A-Za-z_]", tok):
            raise FormatError(self.lineno, f"expected a name, got {tok!r}")
        if self.peek() != "(":
            return RegRef(tok)
        self.take("(")
        op = tok.lower()
        if op == "pin":
            name = self.take()
            self.take(")")
            return PinRef(name)
        if op == "load":
            e = self.parse()
            self.take(")")
            return LoadOp(e)
        if op == "shl":
            e = self.parse()
            self.take(",")
            amount = self.take()
            if not amount.isdigit():
                raise FormatError(self.lineno, "shl amount must be an integer")
            self.take(")")
            return ShlOp(e, int(amount))
        if op in ("xor", "and", "add"):
            a = self.parse()
            self.take(",")
            b = self.parse()
            self.take(")")
            return {"xor": XorOp, "and": AndOp, "add": AddOp}[op](a, b)
        raise FormatError(self.lineno, f"unknown operator {tok!r}")


def _expr_text(e) -> str:
    if isinstance(e, RegRef):
        return e.name
    if isinstance(e, PinRef):
        return f"pin({e.name})"
    if isinstance(e, LoadOp):
        return f"load({_expr_text(e.a)})"
    if isinstance(e, ShlOp):
        return f"shl({_expr_text(e.a)}, {e.amount})"
    if isinstance(e, XorOp):
        return f"xor({_expr_text(e.a)}, {_expr_text(e.b)})"
    if isinstance(e, AndOp):
        return f"and({_expr_text(e.a)}, {_expr_text(e.b)})"
    if isinstance(e, AddOp):
        return f"add({_expr_text(e.a)}, {_expr_text(e.b)})"
    raise SpecError(f"unknown expression node {e!r}")


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(lineno, f"expected an integer, got {tok!r}") from None


def parse_design(text: str):
    """Returns (FsmSpec, DatapathSpec).  Each section appears at most once
    and closes with ``end``; anything else raises ``FormatError``."""
    fsm_name: Optional[str] = None
    states: list[str] = []
    inputs: list[str] = []
    encoding = "binary"
    explicit: dict[str, str] = {}
    reset: Optional[str] = None
    transitions: list[tuple] = []
    moore: dict[str, str] = {}

    counters: list[Counter] = []
    regs: list[DataReg] = []
    wiring: list[tuple] = []

    section = None
    opened: dict[str, int] = {}  # section -> line of its header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if section is None:
            if head not in ("fsm", "datapath"):
                raise FormatError(lineno, f"unexpected {head!r} outside a section")
            if head in opened:
                raise FormatError(lineno, f"second {head} section (first at line {opened[head]})")
            if head == "fsm":
                if len(toks) != 2:
                    raise FormatError(lineno, "fsm section takes a name")
                fsm_name = toks[1]
            elif len(toks) != 1:
                raise FormatError(lineno, "datapath section takes no arguments")
            section, opened[head] = head, lineno
            continue
        if head == "end":
            if len(toks) != 1:
                raise FormatError(lineno, "end takes no arguments")
            section = None
            continue
        if section == "fsm":
            if head == "states":
                states = toks[1:]
            elif head == "inputs":
                inputs = toks[1:]
            elif head == "encoding":
                if len(toks) != 2 or toks[1] not in ("binary", "one_hot", "explicit"):
                    raise FormatError(lineno, "encoding is binary|one_hot|explicit")
                encoding = toks[1]
            elif head == "code":
                if len(toks) != 3:
                    raise FormatError(lineno, "code takes a state and a bitstring")
                explicit[toks[1]] = toks[2]
            elif head == "reset":
                if len(toks) != 2:
                    raise FormatError(lineno, "reset takes a state")
                reset = toks[1]
            elif head == "transition":
                m = re.match(
                    r"transition\s+(\S+)\s*->\s*(\S+)(?:\s+when\s+(.*))?$", line
                )
                if not m:
                    raise FormatError(lineno, "transition SRC -> DST [when a=1 b=0]")
                src, dst, guard_text = m.group(1), m.group(2), m.group(3)
                guard: dict[str, int] = {}
                if guard_text:
                    for item in guard_text.split():
                        if "=" not in item:
                            raise FormatError(lineno, f"bad guard literal {item!r}")
                        var, val = item.split("=", 1)
                        if val not in ("0", "1"):
                            raise FormatError(lineno, "guard values must be 0|1")
                        guard[var] = int(val)
                transitions.append((src, guard, dst))
            elif head == "moore":
                if len(toks) != 3:
                    raise FormatError(lineno, "moore takes a state and a bitstring")
                moore[toks[1]] = toks[2]
            else:
                raise FormatError(lineno, f"unknown fsm entry {head!r}")
        elif section == "datapath":
            if head == "counter":
                m = re.match(
                    r"counter\s+(\S+)\s+width\s+(\d+)\s+(up|down)"
                    r"(?:\s+enable\s+(\S+))?(?:\s+replicas\s+(\d+))?$",
                    line,
                )
                if not m:
                    raise FormatError(
                        lineno, "counter NAME width N up|down [enable SIG] [replicas R]"
                    )
                counters.append(
                    Counter(
                        name=m.group(1),
                        width=int(m.group(2)),
                        direction=m.group(3),
                        enable=m.group(4),
                        replicas=int(m.group(5) or 0),
                    )
                )
            elif head == "reg":
                m = re.match(r"reg\s+(\S+)\s+width\s+(\d+)\s+update\s+(.*)$", line)
                if not m:
                    raise FormatError(lineno, "reg NAME width N update EXPR")
                regs.append(
                    DataReg(m.group(1), int(m.group(2)), _parse_expr(m.group(3), lineno))
                )
            elif head == "wire":
                if len(toks) == 4 and toks[2] == "fsm_out":
                    wiring.append((toks[1], ("fsm_out", _int(toks[3], lineno))))
                elif len(toks) == 5 and toks[2] in ("reg", "counter"):
                    wiring.append((toks[1], (toks[2], toks[3], _int(toks[4], lineno))))
                else:
                    raise FormatError(lineno, "wire NAME reg|counter REG BIT | wire NAME fsm_out J")
            else:
                raise FormatError(lineno, f"unknown datapath entry {head!r}")

    if section is not None:
        raise FormatError(opened[section], f"{section} section has no end")
    if fsm_name is None:
        raise FormatError(0, "missing fsm section")
    if reset is None:
        raise FormatError(0, "missing reset state")
    enc = explicit if encoding == "explicit" else encoding
    fsm = make_fsm(
        fsm_name,
        states,
        inputs,
        reset,
        transitions,
        encoding=enc,
        moore_outputs=moore or None,
    )
    dp = DatapathSpec(tuple(counters), tuple(regs), tuple(wiring))
    return fsm, dp


def design_text(fsm: FsmSpec, dp: Optional[DatapathSpec] = None) -> str:
    lines = [f"fsm {fsm.name}"]
    lines.append("  states " + " ".join(fsm.states))
    if fsm.inputs:
        lines.append("  inputs " + " ".join(fsm.inputs))
    codes = fsm.explicit_codes()
    if codes is not None:
        lines.append("  encoding explicit")
        for s in fsm.states:
            lines.append(f"  code {s} {codes[s]}")
    else:
        lines.append(f"  encoding {fsm.encoding}")
    lines.append(f"  reset {fsm.reset_state}")
    for t in fsm.transitions:
        guard = " ".join(f"{v}={b}" for v, b in t.guard)
        suffix = f" when {guard}" if guard else ""
        lines.append(f"  transition {t.src} -> {t.dst}{suffix}")
    moore = fsm.moore_dict()
    if moore:
        for s in fsm.states:
            lines.append(f"  moore {s} {moore[s]}")
    lines.append("end")
    if dp is not None and (dp.counters or dp.data_regs or dp.wiring):
        lines.append("datapath")
        for c in dp.counters:
            entry = f"  counter {c.name} width {c.width} {c.direction}"
            if c.enable is not None:
                entry += f" enable {c.enable}"
            if c.replicas:
                entry += f" replicas {c.replicas}"
            lines.append(entry)
        for r in dp.data_regs:
            lines.append(f"  reg {r.name} width {r.width} update {_expr_text(r.update)}")
        for out_name, ref in dp.wiring:
            if ref[0] == "fsm_out":
                lines.append(f"  wire {out_name} fsm_out {ref[1]}")
            else:
                lines.append(f"  wire {out_name} {ref[0]} {ref[1]} {ref[2]}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def ground_truth_text(gt: GroundTruth) -> str:
    lines = [f"sff {n}" for n in sorted(gt.sffs)]
    for group, members in gt.counters:
        lines.extend(f"counter {group} {n}" for n in sorted(members))
    for group, members in gt.data:
        lines.extend(f"data {group} {n}" for n in sorted(members))
    lines.extend(f"honeypot {n}" for n in sorted(gt.honeypots))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_ground_truth(text: str) -> GroundTruth:
    sffs: set = set()
    counters: dict[str, set] = {}
    data: dict[str, set] = {}
    honeypots: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "sff" and len(toks) == 2:
            sffs.add(toks[1])
        elif toks[0] == "counter" and len(toks) == 3:
            counters.setdefault(toks[1], set()).add(toks[2])
        elif toks[0] == "data" and len(toks) == 3:
            data.setdefault(toks[1], set()).add(toks[2])
        elif toks[0] == "honeypot" and len(toks) == 2:
            honeypots.add(toks[1])
        else:
            raise FormatError(lineno, f"bad ground-truth line {line!r}")
    return GroundTruth(
        sffs=frozenset(sffs),
        counters=tuple((k, frozenset(v)) for k, v in sorted(counters.items())),
        data=tuple((k, frozenset(v)) for k, v in sorted(data.items())),
        honeypots=frozenset(honeypots),
    )
