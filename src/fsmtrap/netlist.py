"""Gate-level netlist model, textual format, topological order and reset state.

The model is deliberately small: primary inputs, constants, nine combinational
gate kinds, and D-flip-flops with optional reset/enable pins.  Every net has
exactly one driver.  A netlist is immutable after construction; analyses cache
derived indexes on the instance but never mutate the structure.

Textual format (one statement per line, ``#`` starts a comment)::

    input <net>
    output <net>
    const <net> <0|1>
    gate <KIND> <name> <out> <in1> [in2 ...]
    dff <name> q=<net> d=<net> clk=<net> [rst=<net> rstval=<0|1>] [en=<net>]

Serialization is canonical: inputs, constants, gates, flip-flops, outputs, in
that order, each block sorted by name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

GATE_KINDS = ("NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "MUX")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*\Z")


class NetlistError(Exception):
    """Base class for structural netlist errors."""


class ParseError(NetlistError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MultipleDriverError(NetlistError):
    def __init__(self, net: str):
        super().__init__(f"net {net} has multiple drivers")
        self.net = net


class UndrivenNetError(NetlistError):
    def __init__(self, net: str, where: str = ""):
        suffix = f" (used by {where})" if where else ""
        super().__init__(f"net {net} is not driven{suffix}")
        self.net = net


class CombinationalCycleError(NetlistError):
    def __init__(self, gates: list[str]):
        super().__init__("combinational cycle through gates: " + " -> ".join(gates))
        self.gates = gates


@dataclass(frozen=True)
class Gate:
    name: str
    kind: str
    out: str
    ins: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind {self.kind}")
        n = len(self.ins)
        if self.kind in ("NOT", "BUF") and n != 1:
            raise NetlistError(f"{self.kind} gate {self.name} needs exactly 1 input")
        if self.kind == "MUX" and n != 3:
            raise NetlistError(f"MUX gate {self.name} needs exactly 3 inputs (select, a, b)")
        if self.kind not in ("NOT", "BUF", "MUX") and n < 2:
            raise NetlistError(f"{self.kind} gate {self.name} needs at least 2 inputs")


@dataclass(frozen=True)
class FlipFlop:
    name: str
    q: str
    d: str
    clk: str
    rst: Optional[str] = None
    rst_val: int = 0
    en: Optional[str] = None


# A register state assigns one bit per flip-flop name.
BitState = dict


@dataclass(eq=False)
class Netlist:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    constants: dict[str, int]
    gates: tuple[Gate, ...]
    ffs: tuple[FlipFlop, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.gates = tuple(self.gates)
        self.ffs = tuple(self.ffs)
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        driver: dict[str, object] = {}

        def claim(net, who):
            if net in driver:
                raise MultipleDriverError(net)
            driver[net] = who

        for n in self.inputs:
            claim(n, "input")
        for n in self.constants:
            claim(n, "const")
        for g in self.gates:
            claim(g.out, g)
        for f in self.ffs:
            claim(f.q, f)

        seen_names: set[str] = set()
        for g in self.gates:
            if g.name in seen_names:
                raise NetlistError(f"duplicate gate/ff name {g.name}")
            seen_names.add(g.name)
            for n in g.ins:
                if n not in driver:
                    raise UndrivenNetError(n, f"gate {g.name}")
        for f in self.ffs:
            if f.name in seen_names:
                raise NetlistError(f"duplicate gate/ff name {f.name}")
            seen_names.add(f.name)
            for n in (f.d, f.clk) + ((f.rst,) if f.rst else ()) + ((f.en,) if f.en else ()):
                if n not in driver:
                    raise UndrivenNetError(n, f"dff {f.name}")
        for n in self.outputs:
            if n not in driver:
                raise UndrivenNetError(n, "output")
        self._cache["driver"] = driver

    @property
    def driver(self) -> Mapping[str, object]:
        return self._cache["driver"]

    def ff_by_name(self, name: str) -> FlipFlop:
        idx = self._cache.get("ff_idx")
        if idx is None:
            idx = {f.name: f for f in self.ffs}
            self._cache["ff_idx"] = idx
        return idx[name]


# -- parsing / serialization ------------------------------------------------


def _check_token(tok: str, lineno: int) -> str:
    if not _NAME_RE.match(tok):
        raise ParseError(lineno, f"bad identifier {tok!r}")
    return tok


def parse(text: str, name: str = "netlist") -> Netlist:
    """Parse the line format into a Netlist, validating all invariants."""
    inputs: list[str] = []
    outputs: list[str] = []
    constants: dict[str, int] = {}
    gates: list[Gate] = []
    ffs: list[FlipFlop] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        stmt = toks[0]
        if stmt == "input":
            if len(toks) != 2:
                raise ParseError(lineno, "input takes one net")
            inputs.append(_check_token(toks[1], lineno))
        elif stmt == "output":
            if len(toks) != 2:
                raise ParseError(lineno, "output takes one net")
            outputs.append(_check_token(toks[1], lineno))
        elif stmt == "const":
            if len(toks) != 3 or toks[2] not in ("0", "1"):
                raise ParseError(lineno, "const takes a net and 0|1")
            net = _check_token(toks[1], lineno)
            if net in constants:
                raise MultipleDriverError(net)
            constants[net] = int(toks[2])
        elif stmt == "gate":
            if len(toks) < 5:
                raise ParseError(lineno, "gate takes KIND name out in...")
            kind = toks[1]
            if kind not in GATE_KINDS:
                raise ParseError(lineno, f"unknown gate kind {kind}")
            gname = _check_token(toks[2], lineno)
            out = _check_token(toks[3], lineno)
            ins = tuple(_check_token(t, lineno) for t in toks[4:])
            gates.append(Gate(gname, kind, out, ins))
        elif stmt == "dff":
            if len(toks) < 2:
                raise ParseError(lineno, "dff takes a name and pin assignments")
            fname = _check_token(toks[1], lineno)
            pins: dict[str, str] = {}
            for t in toks[2:]:
                if "=" not in t:
                    raise ParseError(lineno, f"bad dff pin {t!r}")
                key, val = t.split("=", 1)
                if key not in ("q", "d", "clk", "rst", "rstval", "en"):
                    raise ParseError(lineno, f"unknown dff pin {key}")
                if key in pins:
                    raise ParseError(lineno, f"duplicate dff pin {key}")
                pins[key] = val
            for req in ("q", "d", "clk"):
                if req not in pins:
                    raise ParseError(lineno, f"dff missing {req}=")
            rst = pins.get("rst")
            if "rstval" in pins and rst is None:
                raise ParseError(lineno, "rstval given without rst")
            rst_val = 0
            if "rstval" in pins:
                if pins["rstval"] not in ("0", "1"):
                    raise ParseError(lineno, "rstval must be 0|1")
                rst_val = int(pins["rstval"])
            for key in ("q", "d", "clk", "rst", "en"):
                if key in pins:
                    _check_token(pins[key], lineno)
            ffs.append(
                FlipFlop(
                    fname,
                    q=pins["q"],
                    d=pins["d"],
                    clk=pins["clk"],
                    rst=rst,
                    rst_val=rst_val,
                    en=pins.get("en"),
                )
            )
        else:
            raise ParseError(lineno, f"unknown statement {stmt!r}")
    return Netlist(name, tuple(inputs), tuple(outputs), constants, tuple(gates), tuple(ffs))


def serialize(nl: Netlist) -> str:
    """Canonical text form: blocks in fixed order, each sorted by name."""
    lines: list[str] = []
    for n in sorted(nl.inputs):
        lines.append(f"input {n}")
    for n in sorted(nl.constants):
        lines.append(f"const {n} {nl.constants[n]}")
    for g in sorted(nl.gates, key=lambda g: g.name):
        lines.append(f"gate {g.kind} {g.name} {g.out} " + " ".join(g.ins))
    for f in sorted(nl.ffs, key=lambda f: f.name):
        parts = [f"dff {f.name}", f"q={f.q}", f"d={f.d}", f"clk={f.clk}"]
        if f.rst is not None:
            parts.append(f"rst={f.rst}")
            parts.append(f"rstval={f.rst_val}")
        if f.en is not None:
            parts.append(f"en={f.en}")
        lines.append(" ".join(parts))
    for n in sorted(nl.outputs):
        lines.append(f"output {n}")
    return "\n".join(lines) + "\n"


# -- evaluation order and reset ----------------------------------------------


def topo_gates(nl: Netlist) -> list[Gate]:
    """Gates in a topological order; raises on combinational cycles.

    One iterative depth-first pass over ``nl.driver``: gates are taken in list
    order, and each is emitted as soon as the drivers of all its inputs have
    been, so a list that is already topological comes back unchanged.  A
    cycle raises ``CombinationalCycleError`` naming the gates of the loop the
    search closed, each driving an input of the next and the last the first.
    """
    cached = nl._cache.get("topo")
    if cached is not None:
        return cached

    driver = nl.driver
    # Nets whose value is known: sources, then every emitted gate's output.
    done = set(nl.inputs)
    done.update(nl.constants)
    done.update(f.q for f in nl.ffs)
    order: list[Gate] = []
    for root in nl.gates:
        if root.out in done:
            continue
        if done.issuperset(root.ins):
            done.add(root.out)
            order.append(root)
            continue
        # The search path; each gate drives an input of the one before it.
        path = [root]
        on_path = {root.out}
        while path:
            g = path[-1]
            for n in g.ins:
                if n not in done:
                    if n in on_path:
                        loop = path[[h.out for h in path].index(n):]
                        raise CombinationalCycleError([h.name for h in reversed(loop)])
                    path.append(driver[n])
                    on_path.add(n)
                    break
            else:
                path.pop()
                on_path.discard(g.out)
                done.add(g.out)
                order.append(g)
    nl._cache["topo"] = order
    return order


def reset_state(nl: Netlist) -> BitState:
    """State after an asserted reset: rst_val for resettable FFs, 0 otherwise."""
    return {f.name: (f.rst_val if f.rst is not None else 0) for f in nl.ffs}
