"""Behavioral-to-gate synthesis for FSM + datapath specifications.

The synthesizer is deliberately simple and deterministic: one flip-flop per
state bit, counter bit, and data bit; next-state logic as sum-of-products
with explicit hold terms for unmatched input combinations.  Two options
matter to the rest of the workbench:

* ``allow_reencode``: replace the spec encoding with one-hot (mirrors default
  synthesis optimization); off by default so explicit encodings survive.
* ``allow_cse``: share structurally identical gates across flip-flop input
  cones.  Off by default, which keeps every D-cone structurally private --
  the property that makes replicated state bits indistinguishable.

One targeted rewrite beyond constant folding is performed: if the next-value
function of a state bit is provably independent of that bit's current value
(checked exactly per state-code pair), its own-bit literal is omitted from
the decode terms.  Ordinary specs never satisfy the condition; dummy-
transition rewrites rely on it to remove the bit's combinational self-path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .cubes import (
    cover_complement,
    cover_minterms,
    cover_subtract,
    cubes_overlap,
)
from .netlist import FlipFlop, Gate, Netlist

BINARY = "binary"
ONE_HOT = "one_hot"


class SpecError(Exception):
    """Invalid FSM or datapath specification."""


class AmbiguityError(SpecError):
    """Two transitions from one state overlap with different destinations."""


@dataclass(frozen=True)
class Transition:
    src: str
    guard: tuple  # ordered (input, bit) pairs
    dst: str

    @staticmethod
    def make(src: str, guard: Mapping[str, int], dst: str, input_order: Sequence[str]):
        items = tuple((i, guard[i] & 1) for i in input_order if i in guard)
        return Transition(src, items, dst)

    def guard_dict(self) -> dict:
        return dict(self.guard)


@dataclass(frozen=True)
class FsmSpec:
    name: str
    states: tuple[str, ...]
    encoding: Union[str, tuple]  # BINARY, ONE_HOT, or ordered (state, code) pairs
    inputs: tuple[str, ...]
    reset_state: str
    transitions: tuple[Transition, ...]
    moore_outputs: Optional[tuple] = None  # ordered (state, bits) pairs

    def __post_init__(self):
        validate_fsm(self)

    def moore_dict(self) -> Optional[dict]:
        return dict(self.moore_outputs) if self.moore_outputs is not None else None

    def explicit_codes(self) -> Optional[dict]:
        if isinstance(self.encoding, tuple):
            return dict(self.encoding)
        return None


def make_fsm(
    name: str,
    states: Sequence[str],
    inputs: Sequence[str],
    reset_state: str,
    transitions: Sequence[tuple],
    encoding: Union[str, Mapping[str, str]] = BINARY,
    moore_outputs: Optional[Mapping[str, str]] = None,
) -> FsmSpec:
    """Convenience constructor taking (src, guard-dict, dst) triples."""
    inputs = tuple(inputs)
    trs = tuple(Transition.make(s, g, d, inputs) for s, g, d in transitions)
    enc: Union[str, tuple]
    if isinstance(encoding, str):
        enc = encoding
    else:
        if set(encoding) != set(states):
            raise SpecError("explicit encoding must cover exactly the states")
        enc = tuple((s, encoding[s]) for s in states)
    moore = None
    if moore_outputs is not None:
        if set(moore_outputs) != set(states):
            raise SpecError("moore outputs must cover exactly the states")
        moore = tuple((s, moore_outputs[s]) for s in states)
    return FsmSpec(name, tuple(states), enc, inputs, reset_state, trs, moore)


def _revise(fsm: FsmSpec, **changes) -> FsmSpec:
    """``dataclasses.replace`` for changes that keep a valid ``fsm`` valid --
    transition destinations among its states, output vectors of the same
    width, the one-hot encoding -- without validating the copy again."""
    out = copy.copy(fsm)
    out.__dict__.update(changes)
    return out


def validate_fsm(fsm: FsmSpec) -> None:
    states = set(fsm.states)
    inputs = set(fsm.inputs)
    if len(states) != len(fsm.states):
        raise SpecError("duplicate state names")
    if fsm.reset_state not in states:
        raise SpecError(f"reset state {fsm.reset_state} not declared")
    for t in fsm.transitions:
        if t.src not in states or t.dst not in states:
            raise SpecError(f"transition endpoint not a state: {t.src}->{t.dst}")
        seen = set()
        for var, val in t.guard:
            if var not in inputs:
                raise SpecError(f"guard references undeclared input {var}")
            if var in seen:
                raise SpecError(f"guard assigns {var} twice")
            if val not in (0, 1):
                raise SpecError("guard values must be bits")
            seen.add(var)
    codes = fsm.explicit_codes()
    if codes is not None:
        if set(codes) != states:
            raise SpecError("explicit encoding must cover exactly the states")
        widths = {len(c) for c in codes.values()}
        if len(widths) != 1:
            raise SpecError("explicit codes must have uniform width")
        if any(set(c) - {"0", "1"} for c in codes.values()):
            raise SpecError("explicit codes must be bitstrings")
        if len(set(codes.values())) != len(codes):
            raise SpecError("explicit codes must be distinct")
    elif fsm.encoding not in (BINARY, ONE_HOT):
        raise SpecError(f"unknown encoding {fsm.encoding!r}")
    moore = fsm.moore_dict()
    if moore is not None:
        if set(moore) != states:
            raise SpecError("moore outputs must cover exactly the states")
        widths = {len(v) for v in moore.values()}
        if len(widths) != 1:
            raise SpecError("moore output vectors must have uniform width")


def encode(fsm: FsmSpec) -> dict:
    """State -> bitstring codes; deterministic in list order."""
    explicit = fsm.explicit_codes()
    if explicit is not None:
        return {s: explicit[s] for s in fsm.states}
    k = len(fsm.states)
    if fsm.encoding == ONE_HOT:
        return {s: "0" * i + "1" + "0" * (k - i - 1) for i, s in enumerate(fsm.states)}
    width = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    return {s: format(i, f"0{width}b") for i, s in enumerate(fsm.states)}


# -- datapath ----------------------------------------------------------------


@dataclass(frozen=True)
class RegRef:
    name: str


@dataclass(frozen=True)
class PinRef:
    name: str  # 1-bit design input, broadcast to the word width


@dataclass(frozen=True)
class XorOp:
    a: object
    b: object


@dataclass(frozen=True)
class AndOp:
    a: object
    b: object


@dataclass(frozen=True)
class AddOp:
    a: object
    b: object


@dataclass(frozen=True)
class ShlOp:
    a: object
    amount: int


@dataclass(frozen=True)
class LoadOp:
    a: object


WordExpr = Union[RegRef, PinRef, XorOp, AndOp, AddOp, ShlOp, LoadOp]


@dataclass(frozen=True)
class Counter:
    name: str
    width: int
    direction: str = "up"  # up | down
    enable: Optional[str] = None  # design input or moore output name
    replicas: int = 0  # >0: replicated-bit counter (each bit copied 1+replicas times)


@dataclass(frozen=True)
class DataReg:
    name: str
    width: int
    update: WordExpr


@dataclass(frozen=True)
class DatapathSpec:
    counters: tuple[Counter, ...] = ()
    data_regs: tuple[DataReg, ...] = ()
    wiring: tuple = ()  # ordered (out_name, ref) pairs; ref = ('reg'|'counter', name, bit) or ('fsm_out', j)

    def __post_init__(self):
        validate_datapath(self)


def validate_datapath(dp: DatapathSpec) -> None:
    names = set()
    for c in dp.counters:
        if c.width < 1:
            raise SpecError(f"counter {c.name} width must be >= 1")
        if c.direction not in ("up", "down"):
            raise SpecError(f"counter {c.name} direction must be up|down")
        if c.name in names:
            raise SpecError(f"duplicate register name {c.name}")
        names.add(c.name)
    for r in dp.data_regs:
        if r.width < 1:
            raise SpecError(f"register {r.name} width must be >= 1")
        if r.name in names:
            raise SpecError(f"duplicate register name {r.name}")
        names.add(r.name)
    for r in dp.data_regs:
        _check_expr(r.update, names)


def _check_expr(e, names: set) -> None:
    if isinstance(e, RegRef):
        if e.name not in names:
            raise SpecError(f"expression references undeclared register {e.name}")
    elif isinstance(e, PinRef):
        pass
    elif isinstance(e, (XorOp, AndOp, AddOp)):
        _check_expr(e.a, names)
        _check_expr(e.b, names)
    elif isinstance(e, ShlOp):
        if e.amount < 0:
            raise SpecError("shift amount must be >= 0")
        _check_expr(e.a, names)
    elif isinstance(e, LoadOp):
        _check_expr(e.a, names)
    else:
        raise SpecError(f"unknown expression node {e!r}")


def datapath_pins(dp: DatapathSpec) -> list[str]:
    """Design inputs the datapath references (broadcast pins + PI enables)."""
    pins: list[str] = []
    for r in dp.data_regs:
        _collect_pins(r.update, pins)
    return pins


def _collect_pins(e, pins: list) -> None:
    if isinstance(e, PinRef):
        if e.name not in pins:
            pins.append(e.name)
    elif isinstance(e, (XorOp, AndOp, AddOp)):
        _collect_pins(e.a, pins)
        _collect_pins(e.b, pins)
    elif isinstance(e, (ShlOp, LoadOp)):
        _collect_pins(e.a, pins)


# -- synthesis ---------------------------------------------------------------


@dataclass(frozen=True)
class SynthOptions:
    allow_reencode: bool = False
    allow_cse: bool = False
    name_prefix: str = "u0"


@dataclass(frozen=True)
class GroundTruth:
    sffs: frozenset
    counters: tuple = ()  # ordered (name, frozenset) pairs
    data: tuple = ()
    honeypots: frozenset = frozenset()


def state_ff_name(prefix: str, bit: int, width: int) -> str:
    """Name of state bit ``bit`` of a ``width``-bit register.

    The bit index is zero-padded to the width of the largest index, so that
    ``sorted()`` over a register's names is its bit order (st02 < st10).
    """
    return f"{prefix}_st{bit:0{len(str(width - 1))}d}"


_SYMMETRIC = {"AND", "OR", "NAND", "NOR", "XOR", "XNOR"}


class _Builder:
    """Accumulates gates; with CSE enabled, structurally identical gates merge."""

    def __init__(self, prefix: str, cse: bool):
        self.prefix = prefix
        self.cse = cse
        self.gates: list[Gate] = []
        self.constants: dict[str, int] = {}
        self._n = 0
        self._cse_table: dict = {}

    def const(self, val: int) -> str:
        net = f"{self.prefix}_const{val}"
        self.constants[net] = val
        return net

    def emit(self, kind: str, ins: Sequence[str], out: Optional[str] = None) -> str:
        ins = tuple(ins)
        if self.cse and out is None:
            key = (kind, tuple(sorted(ins)) if kind in _SYMMETRIC else ins)
            hit = self._cse_table.get(key)
            if hit is not None:
                return hit
        if out is None:
            out = f"{self.prefix}_n{self._n}"
        name = f"{self.prefix}_g{self._n}"
        self._n += 1
        self.gates.append(Gate(name, kind, out, ins))
        if self.cse:
            key = (kind, tuple(sorted(ins)) if kind in _SYMMETRIC else ins)
            self._cse_table.setdefault(key, out)
        return out


class _Cone:
    """Private emission scope for one flip-flop input cone (literal reuse local)."""

    def __init__(self, builder: _Builder):
        self.b = builder
        self._lit: dict[str, str] = {}

    def lit(self, net: str, val: int) -> str:
        if val:
            return net
        hit = self._lit.get(net)
        if hit is None:
            hit = self.b.emit("NOT", (net,))
            self._lit[net] = hit
        return hit

    def product(self, lits: Sequence[str]) -> str:
        lits = tuple(lits)
        if not lits:
            return self.b.const(1)
        if len(lits) == 1:
            return lits[0]
        return self.b.emit("AND", lits)

    def disjunction(self, nets: Sequence[str], out: Optional[str] = None) -> str:
        nets = tuple(nets)
        if not nets:
            c = self.b.const(0)
            return self.b.emit("BUF", (c,), out=out) if out else c
        if len(nets) == 1:
            return self.b.emit("BUF", nets, out=out) if out else nets[0]
        return self.b.emit("OR", nets, out=out)


class _CounterCone(_Cone):
    """Cone of one counter bit: toggle nets q_j XOR carry_j, memoized per bit
    index j of the counter's flip-flops ``qs``."""

    def __init__(self, builder: _Builder, qs: Sequence[str], up: bool):
        super().__init__(builder)
        self.qs = qs
        self.up = up
        self._carry: dict[int, str] = {}
        self._toggle: dict[int, str] = {}

    def carry(self, j: int) -> str:
        # Chained ripple with a constant seed keeps all bit cones
        # word-wise uniform (XOR over q and a nested AND chain).
        hit = self._carry.get(j)
        if hit is not None:
            return hit
        if j == 0:
            net = self.b.const(1)
        else:
            low = self.lit(self.qs[j - 1], 1 if self.up else 0)
            net = self.b.emit("AND", (low, self.carry(j - 1)))
        self._carry[j] = net
        return net

    def toggle(self, j: int) -> str:
        hit = self._toggle.get(j)
        if hit is not None:
            return hit
        net = self.b.emit("XOR", (self.qs[j], self.carry(j)))
        self._toggle[j] = net
        return net


class _WordBits:
    """Gates for single bits of datapath word expressions, with add-carry
    nets memoized per (expression, bit).  ``None`` encodes constant 0
    (shift fill / empty carry)."""

    def __init__(self, builder: _Builder, reg_q: Mapping[str, list], input_net: Mapping[str, str]):
        self.b = builder
        self.reg_q = reg_q
        self.input_net = input_net
        self._carry: dict = {}

    def bit(self, e, bit: int) -> Optional[str]:
        if isinstance(e, RegRef):
            return self.reg_q[e.name][bit]
        if isinstance(e, PinRef):
            return self.input_net[e.name]
        if isinstance(e, LoadOp):
            return self.bit(e.a, bit)
        if isinstance(e, ShlOp):
            if bit < e.amount:
                return None
            return self.bit(e.a, bit - e.amount)
        if isinstance(e, XorOp):
            a, b2 = self.bit(e.a, bit), self.bit(e.b, bit)
            if a is None:
                return b2
            if b2 is None:
                return a
            return self.b.emit("XOR", (a, b2))
        if isinstance(e, AndOp):
            a, b2 = self.bit(e.a, bit), self.bit(e.b, bit)
            if a is None or b2 is None:
                return None
            return self.b.emit("AND", (a, b2))
        if isinstance(e, AddOp):
            a, b2 = self.bit(e.a, bit), self.bit(e.b, bit)
            cin = self.add_carry(e, bit)
            nets = [x for x in (a, b2, cin) if x is not None]
            if not nets:
                return None
            if len(nets) == 1:
                return nets[0]
            return self.b.emit("XOR", tuple(nets))
        raise SpecError(f"unknown expression node {e!r}")

    def add_carry(self, e: AddOp, bit: int) -> Optional[str]:
        if bit == 0:
            return None
        key = (id(e), bit)
        if key in self._carry:
            return self._carry[key]
        a = self.bit(e.a, bit - 1)
        b2 = self.bit(e.b, bit - 1)
        cin = self.add_carry(e, bit - 1)
        present = [x for x in (a, b2, cin) if x is not None]
        if len(present) < 2:
            out = None
        else:
            pairs = []
            for m in range(len(present)):
                for n in range(m + 1, len(present)):
                    pairs.append(self.b.emit("AND", (present[m], present[n])))
            out = pairs[0] if len(pairs) == 1 else self.b.emit("OR", tuple(pairs))
        self._carry[key] = out
        return out


def _transitions_by_state(fsm: FsmSpec) -> dict[str, list[Transition]]:
    by_state: dict[str, list[Transition]] = {s: [] for s in fsm.states}
    for t in fsm.transitions:
        by_state[t.src].append(t)
    return by_state


def _check_guards(fsm: FsmSpec) -> None:
    """Raise AmbiguityError if two guards of one state overlap and lead to
    different states."""
    by_state = _transitions_by_state(fsm)
    for s in fsm.states:
        trs = by_state[s]
        for i in range(len(trs)):
            for j in range(i + 1, len(trs)):
                if trs[i].dst != trs[j].dst and cubes_overlap(
                    trs[i].guard_dict(), trs[j].guard_dict()
                ):
                    raise AmbiguityError(
                        f"state {s}: overlapping guards reach {trs[i].dst} and {trs[j].dst}"
                    )


def _effective_covers(fsm: FsmSpec):
    """Per state: disjoint (cube, dst) transition covers plus unmatched cubes."""
    _check_guards(fsm)
    order = fsm.inputs
    by_state = _transitions_by_state(fsm)
    eff: dict[str, list] = {}
    unmatched: dict[str, list] = {}
    for s in fsm.states:
        trs = by_state[s]
        pieces: list = []
        earlier: list = []
        for t in trs:
            cubes = cover_subtract([t.guard_dict()], earlier, order)
            pieces.extend((c, t.dst) for c in cubes)
            earlier.append(t.guard_dict())
        eff[s] = pieces
        unmatched[s] = cover_complement(earlier, order)
    return eff, unmatched


def _bit_covers(fsm: FsmSpec, codes: Mapping[str, str], eff, unmatched):
    """pos[s][b]: input cubes under which the next value of bit b is 1 from s."""
    width = len(next(iter(codes.values())))
    pos: dict[str, list[list]] = {}
    for s in fsm.states:
        per_bit: list[list] = [[] for _ in range(width)]
        for cube, dst in eff[s]:
            dcode = codes[dst]
            for b in range(width):
                if dcode[b] == "1":
                    per_bit[b].append(cube)
        if any(ch == "1" for ch in codes[s]):
            for b in range(width):
                if codes[s][b] == "1":
                    per_bit[b].extend(unmatched[s])
        pos[s] = per_bit
    return pos


_DROP_INPUT_LIMIT = 16


def _droppable_bits(fsm: FsmSpec, codes: Mapping[str, str], pos) -> list[bool]:
    """Bits whose next-value function is independent of their current value.

    Exact check per partner pair of codes: equal positive covers if both codes
    name states, an empty cover if only one does.  A bit's test stops at its
    first mismatching partner, and minterm sets are computed only as the
    tests reach them.
    """
    width = len(next(iter(codes.values())))
    if len(fsm.inputs) > _DROP_INPUT_LIMIT:
        return [False] * width
    by_code = {codes[s]: s for s in fsm.states}
    minterms: dict = {}

    def terms(s: str, b: int) -> frozenset:
        if (s, b) not in minterms:
            minterms[s, b] = cover_minterms(pos[s][b], fsm.inputs)
        return minterms[s, b]

    drop = []
    for b in range(width):
        ok = True
        for s in fsm.states:
            c = codes[s]
            partner = c[:b] + ("1" if c[b] == "0" else "0") + c[b + 1:]
            other = by_code.get(partner)
            if other is None:
                if terms(s, b):
                    ok = False
                    break
            elif terms(s, b) != terms(other, b):
                ok = False
                break
        drop.append(ok)
    return drop


def synthesize(
    fsm: FsmSpec,
    dp: Optional[DatapathSpec] = None,
    opts: SynthOptions = SynthOptions(),
) -> tuple[Netlist, GroundTruth]:
    """Compile an FSM (+ optional datapath) to a netlist plus ground truth."""
    dp = dp or DatapathSpec()
    p = opts.name_prefix

    codes = encode(_revise(fsm, encoding=ONE_HOT) if opts.allow_reencode else fsm)
    width = len(next(iter(codes.values())))

    pins = datapath_pins(dp)
    moore = fsm.moore_dict()
    moore_width = len(next(iter(moore.values()))) if moore else 0
    moore_names = [f"out{j}" for j in range(moore_width)]
    for c in dp.counters:
        if c.enable is not None and c.enable not in moore_names and c.enable not in pins:
            if c.enable not in fsm.inputs:
                pins.append(c.enable)

    inputs = ["clk", "rst"] + list(fsm.inputs) + [x for x in pins if x not in fsm.inputs]
    input_net = {x: x for x in inputs}

    builder = _Builder(p, cse=opts.allow_cse)
    ffs: list[FlipFlop] = []
    outputs: list[str] = []

    st_names = [state_ff_name(p, b, width) for b in range(width)]
    st_q = [f"{n}_q" for n in st_names]

    eff, unmatched = _effective_covers(fsm)
    pos = _bit_covers(fsm, codes, eff, unmatched)
    drop = _droppable_bits(fsm, codes, pos)

    def decode_lits(cone: _Cone, s: str, skip_bit: Optional[int], memo: dict) -> list[str]:
        """State ``s``'s code literals in ``cone``: built on its first use,
        where ``cone.lit`` emits their NOTs, then read from ``memo``.
        Callers must not mutate the list."""
        hit = memo.get(s)
        if hit is None:
            hit = memo[s] = [
                cone.lit(st_q[j], 1 if c == "1" else 0)
                for j, c in enumerate(codes[s])
                if j != skip_bit
            ]
        return hit

    reset_code = codes[fsm.reset_state]
    for b in range(width):
        cone = _Cone(builder)
        decoded: dict = {}
        terms = []
        skip = b if drop[b] else None
        for s in fsm.states:
            for cube in pos[s][b]:
                lits = decode_lits(cone, s, skip, decoded) + [
                    cone.lit(input_net[var], cube[var]) for var in fsm.inputs if var in cube
                ]
                terms.append(cone.product(lits))
        d_net = cone.disjunction(terms, out=f"{st_names[b]}_d")
        ffs.append(
            FlipFlop(
                st_names[b],
                q=st_q[b],
                d=d_net,
                clk="clk",
                rst="rst",
                rst_val=int(reset_code[b]),
            )
        )

    # Moore output nets: OR of state decodes with the output bit set.
    moore_nets: dict[str, str] = {}
    if moore:
        cone = _Cone(builder)
        decoded = {}
        for j in range(moore_width):
            terms = []
            for s in fsm.states:
                if moore[s][j] == "1":
                    terms.append(cone.product(decode_lits(cone, s, None, decoded)))
            net = cone.disjunction(terms, out=f"{p}_out{j}")
            moore_nets[moore_names[j]] = net
            outputs.append(net)

    def resolve_signal(name: str) -> str:
        if name in moore_nets:
            return moore_nets[name]
        if name in input_net:
            return input_net[name]
        raise SpecError(f"cannot resolve signal {name}")

    gt_counters: list[tuple[str, frozenset]] = []
    gt_data: list[tuple[str, frozenset]] = []
    reg_q: dict[str, list[str]] = {}

    for c in dp.counters:
        total = c.width * (1 + c.replicas)
        qs = [f"{p}_{c.name}_{i}_q" for i in range(total)]
        reg_q[c.name] = qs
        en_net = resolve_signal(c.enable) if c.enable is not None else None
        group = 1 + c.replicas
        names = []
        for i in range(total):
            cone = _CounterCone(builder, qs, c.direction == "up")
            if c.replicas == 0:
                d_net = builder.emit("BUF", (cone.toggle(i),), out=f"{p}_{c.name}_{i}_d")
            else:
                g0 = (i // group) * group
                members = [cone.toggle(g0 + m) for m in range(group)]
                if c.direction == "up":
                    # broken-carry pattern 0..01 (only the group LSB set) -> all ones
                    det_lits = [members[0]] + [
                        builder.emit("NOT", (m,)) for m in members[1:]
                    ]
                    detect = cone.product(det_lits)
                    d_net = builder.emit(
                        "OR", (cone.toggle(i), detect), out=f"{p}_{c.name}_{i}_d"
                    )
                else:
                    # broken-borrow pattern 1..10 -> all zeros
                    det_lits = [builder.emit("NOT", (members[0],))] + members[1:]
                    detect = cone.product(det_lits)
                    ndet = builder.emit("NOT", (detect,))
                    d_net = builder.emit(
                        "AND", (cone.toggle(i), ndet), out=f"{p}_{c.name}_{i}_d"
                    )
            ffs.append(
                FlipFlop(
                    f"{p}_{c.name}_{i}",
                    q=qs[i],
                    d=d_net,
                    clk="clk",
                    rst="rst",
                    rst_val=0,
                    en=en_net,
                )
            )
            names.append(f"{p}_{c.name}_{i}")
        gt_counters.append((c.name, frozenset(names)))

    for r in dp.data_regs:
        reg_q[r.name] = [f"{p}_{r.name}_{i}_q" for i in range(r.width)]

    for r in dp.data_regs:
        names = []
        for i in range(r.width):
            net = _WordBits(builder, reg_q, input_net).bit(r.update, i)
            if net is None:
                net = builder.const(0)
            d_net = builder.emit("BUF", (net,), out=f"{p}_{r.name}_{i}_d")
            ffs.append(
                FlipFlop(
                    f"{p}_{r.name}_{i}",
                    q=reg_q[r.name][i],
                    d=d_net,
                    clk="clk",
                    rst="rst",
                    rst_val=0,
                )
            )
            names.append(f"{p}_{r.name}_{i}")
        gt_data.append((r.name, frozenset(names)))

    for out_name, ref in dp.wiring:
        if ref[0] == "fsm_out":
            src = moore_nets[moore_names[ref[1]]]
        elif ref[0] in ("reg", "counter"):
            src = reg_q[ref[1]][ref[2]]
        else:
            raise SpecError(f"unknown wiring reference {ref!r}")
        outputs.append(builder.emit("BUF", (src,), out=f"{p}_{out_name}"))

    nl = Netlist(
        name=fsm.name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        constants=builder.constants,
        gates=tuple(builder.gates),
        ffs=tuple(ffs),
    )
    gt = GroundTruth(
        sffs=frozenset(st_names),
        counters=tuple(gt_counters),
        data=tuple(gt_data),
    )
    return nl, gt
