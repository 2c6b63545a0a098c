"""State transition graph extraction and behavior-preservation checking.

An ``Stg`` is one table: ``states`` holds the projected code of every state,
reset first, in discovery order, and ``succ[i, v]`` is the index of state
``i``'s successor under input vector ``v``, which gives free input ``k`` the
bit ``k`` of ``v`` counted from the left.  Extraction and equivalence work on
the indices.  ``Stg.edges`` streams the table's ``((src code, input bits),
dst code)`` items without storing an entry per edge, and the text and dot
renderings walk the table in sorted state order.

Extraction is exhaustive: starting from the reset state it enumerates every
combination of the free inputs per reachable state, projecting states onto
the chosen state flip-flops.  It steps only the tracked FFs' sequential
closure: the FFs in the combinational fan-in of a tracked FF's d or enable,
and of theirs in turn.  No other FF can reach a tracked next state, so
``batch_step`` runs a program cut to the closure's cones, and a "full"
state below is the closure's bits, one Python int with closure FF i as bit
i; its projected state is the int masked to the tracked bits.  The BFS is
level-synchronous: one ``batch_step`` (split at ``MAX_COLUMNS``) steps every
frontier state under every input vector, and its rows are shifted and ORed
into one key per column: an unsigned word of 1, 2, 4 or 8 bytes, or beyond
64 FFs several 8-byte words read as one ``void``.  ``np.unique`` over the
keys finds the distinct full successors, only those become ints, and new
projected states are numbered in (state, vector) order, the order a
one-state-at-a-time BFS would meet them; the level's rows of ``succ`` come
from the same ``np.unique`` inverse.  Untracked closure registers ride
along; if two runs reach the same projected state through different full
states, the full state that differs in a register feeding a tracked cone is
checked once after its level: if its projected successors diverge from
those of the state's representative, the offending registers are pulled
into the tracked set and extraction restarts (with a warning).  Offending
registers lie in the closure already, so the closure is computed once per
call.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .batchsim import _restrict, _vector_bits, batch_step, compile_netlist, unpack
from .graph import _bits, _net_support
from .netlist import Netlist, reset_state


# Most columns (state x input vector pairs) one batch_step call simulates;
# a wider BFS level is split over several calls.
MAX_COLUMNS = 65536


class StgError(Exception):
    pass


class InputBudgetError(StgError):
    pass


class ReplicaDisagreementError(StgError):
    pass


class _Edges:
    """``Stg.edges``: its size and its ``((src code, input bits), dst code)``
    items, streamed from the successor table in (state, vector) order."""

    def __init__(self, stg: Stg):
        self._stg = stg

    def __len__(self) -> int:
        return self._stg.succ.size

    def items(self):
        return self._stg._walk(range(len(self._stg.states)))


@dataclass(eq=False)
class Stg:
    """A successor table over projected state codes.  Its edges are read
    off the table as they are needed; nothing here holds an object per
    edge."""

    sff_names: tuple
    input_names: tuple
    states: tuple  # projected codes, discovery order; reset first
    succ: np.ndarray  # (states, input vectors): index of the successor state
    warnings: tuple = ()

    @property
    def reset(self) -> str:
        return self.states[0]

    @property
    def edges(self) -> _Edges:
        """A fresh view of the table with ``len`` (one edge per ``succ``
        cell) and ``items()``, nothing else."""
        return _Edges(self)

    def _walk(self, rows):
        """``((src, vec), dst)`` of ``rows``' cells, row by row, vectors
        ascending, with no Python step per edge."""
        states, n = self.states, len(self.input_names)
        vecs = [format(v, f"0{n}b") for v in range(1 << n)] if n else [""]
        keys = itertools.product([states[i] for i in rows], vecs)
        dsts = itertools.chain.from_iterable(
            map(states.__getitem__, self.succ[i].tolist()) for i in rows
        )
        return zip(keys, dsts)

    def _sorted_edges(self):
        """The edges ordered by (src, vec), without sorting them: each row's
        vectors are already ascending."""
        return self._walk(sorted(range(len(self.states)), key=self.states.__getitem__))

    def to_text(self) -> str:
        lines = [f"state {s}" for s in self.states]
        for (src, vec), dst in self._sorted_edges():
            lines.append(f"edge {src} {vec if vec else '-'} {dst}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph stg {"]
        for s in self.states:
            shape = "doublecircle" if s == self.reset else "circle"
            lines.append(f'  "{s}" [shape={shape}];')
        for (src, vec), dst in self._sorted_edges():
            lines.append(f'  "{src}" -> "{dst}" [label="{vec}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _key_words(n_ffs: int) -> tuple:
    """(word dtype, word count) of a full state's key over ``n_ffs`` FFs:
    the smallest unsigned word of 1, 2, 4 or 8 bytes that holds them (one
    byte for none), or as many 8-byte words as it takes beyond 64."""
    n_bytes = max(1, (n_ffs + 7) // 8)
    for size in (1, 2, 4, 8):
        if n_bytes <= size:
            return np.dtype(f"<u{size}"), 1
    return np.dtype("<u8"), (n_bytes + 7) // 8


def extract_stg(
    nl: Netlist,
    sffs: Sequence[str],
    free_inputs: Optional[Sequence[str]] = None,
    max_inputs: int = 12,
) -> Stg:
    """Exhaustive reachable-state enumeration projected onto ``sffs``, from
    the netlist's reset state.

    ``free_inputs`` are enumerated exhaustively; all other primary inputs are
    held at 0.  Exact for a correct SFF set.
    """
    if free_inputs is None:
        free_inputs = [n for n in nl.inputs if n not in ("clk", "rst")]
    free_inputs = list(free_inputs)
    if len(free_inputs) > max_inputs:
        raise InputBudgetError(
            f"{len(free_inputs)} free inputs exceed the budget of {max_inputs}"
        )
    for i, n in enumerate(free_inputs):
        if n not in nl.inputs:
            raise StgError(f"free input {n} is not a primary input")
        if n in free_inputs[:i]:
            raise StgError(f"free input {n} is given twice")

    sffs = list(sffs)
    ff_pos = {f.name: i for i, f in enumerate(nl.ffs)}
    for i, name in enumerate(sffs):
        if name not in ff_pos:
            raise StgError(f"unknown state flip-flop {name}")
        if name in sffs[:i]:
            raise StgError(f"state flip-flop {name} is given twice")

    support = _net_support(nl)

    def feeds(i: int) -> int:
        """FF mask of the combinational fan-in of FF ``i``'s d and enable."""
        f = nl.ffs[i]
        return support.ff_mask(f.d) | (0 if f.en is None else support.ff_mask(f.en))

    # The tracked FFs' sequential closure, in netlist FF order.
    closure = 0
    grow = sum(1 << ff_pos[n] for n in sffs)
    while grow:
        closure |= grow
        reach = 0
        for i in _bits(grow):
            reach |= feeds(i)
        grow = reach & ~closure
    kept = list(_bits(closure))
    ff_names = [nl.ffs[i].name for i in kept]

    cn = _restrict(compile_netlist(nl), kept)
    n_free = len(free_inputs)
    n_vec = 1 << n_free
    pi_matrix = np.zeros((len(nl.inputs), n_vec), dtype=np.uint8)
    pi_matrix[[nl.inputs.index(n) for n in free_inputs]] = _vector_bits(n_free)

    n_ffs = len(ff_names)
    word, n_words = _key_words(n_ffs)
    word_bits = 8 * word.itemsize
    key = word if n_words == 1 else np.dtype((np.void, n_words * word.itemsize))

    def successors(fulls: list) -> np.ndarray:
        """Keys of the next states of the full states ``fulls``, one row of
        ``n_words`` words per column: row k * n_vec + v is state k under
        vector v."""
        frontier = unpack(fulls, n_ffs).T
        n_cols = len(fulls) * n_vec
        block = np.zeros((n_cols, n_words), dtype=word)
        for lo in range(0, n_cols, MAX_COLUMNS):
            cols = np.arange(lo, min(lo + MAX_COLUMNS, n_cols))
            # ``take`` builds C-ordered matrices; ``batch_step`` packs them
            # row by row several times faster than Fortran-ordered ones.
            states = frontier.take(cols // n_vec, axis=1)
            nxt = batch_step(cn, states, pi_matrix.take(cols % n_vec, axis=1))
            keys = block[lo : lo + cols.size]
            buf = np.empty(cols.size, dtype=word)
            for i, row in enumerate(nxt):
                np.left_shift(row, i % word_bits, out=buf, dtype=word)
                keys[:, i // word_bits] |= buf
        return block

    col = {n: k for k, n in enumerate(ff_names)}  # closure FF -> bit of a full state
    warnings: list[str] = []
    tracked = sffs

    reset = reset_state(nl)
    reset_full = sum((reset[n] & 1) << k for k, n in enumerate(ff_names))

    for _round in range(5):
        proj_bits = [col[n] for n in tracked]
        proj_mask = sum(1 << b for b in proj_bits)
        proj_words = np.frombuffer(proj_mask.to_bytes(n_words * word.itemsize, "little"), word)
        # FFs that can influence the tracked next-state cones; others cannot
        # cause projected divergence and are ignored by the revisit check.
        mask = 0
        for name in tracked:
            mask |= feeds(ff_pos[name])
        watched = sum(
            1 << col[nl.ffs[i].name] for i in _bits(mask) if nl.ffs[i].name not in tracked
        )

        index = {reset_full & proj_mask: 0}  # projected state -> state index
        reps = [reset_full]  # per state, the first full state that reached it
        succ: list = []  # per BFS level, its block of successor rows
        offenders: set = set()
        checked: set = set()

        lo = 0
        while lo < len(reps):
            block = successors(reps[lo:])
            lo = len(reps)
            _, first, inverse = np.unique(
                block.view(key).ravel(), return_index=True, return_inverse=True
            )
            # Distinct full successors in (state, vector) order: the first
            # full state reaching a new projected state represents it.
            by_first = np.argsort(first)
            rank = np.empty_like(by_first)
            rank[by_first] = np.arange(by_first.size)
            fulls = [int.from_bytes(row.tobytes(), "little") for row in block[first[by_first]]]
            ids = np.empty(len(fulls), dtype=np.int32)
            for j, full in enumerate(fulls):
                ids[j] = i = index.setdefault(full & proj_mask, len(reps))
                if i == len(reps):
                    reps.append(full)
            succ.append(ids[rank[inverse.ravel()]].reshape(-1, n_vec))

            # A full state with a known projected state that differs from
            # its representative in a watched register is checked once per
            # round (the projected state is a function of the full state):
            # its projected successors must be the representative's.
            revisits = []
            for full, i in zip(fulls, ids.tolist()):
                diff = (full ^ reps[i]) & watched
                if diff and full not in checked:
                    checked.add(full)
                    revisits.append((full, i, diff))
            if revisits:
                canon = list(dict.fromkeys(i for _, i, _ in revisits))
                sim = successors([full for full, _, _ in revisits] + [reps[i] for i in canon])
                sim = (sim & proj_words).reshape(len(revisits) + len(canon), -1)
                canon_sim = dict(zip(canon, sim[len(revisits):]))
                for (_, i, diff), alt in zip(revisits, sim):
                    if not np.array_equal(alt, canon_sim[i]):
                        offenders.update(ff_names[k] for k in _bits(diff))

        if not offenders:
            return Stg(
                sff_names=tuple(tracked),
                input_names=tuple(free_inputs),
                states=tuple("".join(str(c >> b & 1) for b in proj_bits) for c in index),
                succ=np.concatenate(succ),
                warnings=tuple(warnings),
            )
        extra = sorted(offenders)
        warnings.append(
            "projected nondeterminism; enlarging tracked set with " + ",".join(extra)
        )
        tracked = tracked + extra
    raise StgError("extraction failed to stabilize after enlarging the tracked set")


def stg_equivalent(
    a: Stg,
    b: Stg,
    bit_map: Mapping[str, str],
    frozen_inputs: Optional[Mapping[str, int]] = None,
) -> bool:
    """Reachable-subgraph equality of ``b`` projected onto ``a``'s state bits.

    ``bit_map`` sends every state FF of ``b`` to the FF of ``a`` it mirrors
    (replicas map to their original).  Inputs private to ``b`` must appear in
    ``frozen_inputs``; only edges agreeing with the frozen values are kept.
    Raises ReplicaDisagreementError naming the first state, in BFS order over
    the kept edges, whose replicas disagree, before any edge is compared.
    """
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

    # Per vector of a, the vector of b that agrees with it and with the
    # frozen values; b's successors in a's vector order.
    a_bits = _vector_bits(len(a.input_names))
    b_vec = np.zeros(a_bits.shape[1], dtype=np.intp)
    for n in b.input_names:
        bit = a_bits[a.input_names.index(n)] if n in a.input_names else frozen_inputs[n] & 1
        b_vec = (b_vec << 1) | bit
    succ = b.succ[:, b_vec]

    order = [0]
    seen = {0}
    for s in order:
        for d in succ[s].tolist():
            if d not in seen:
                seen.add(d)
                order.append(d)

    # Code bits of the reached states, and per bit of b the bit of a it
    # mirrors.
    bits = np.array([[int(c) for c in b.states[s]] for s in order], dtype=np.uint8)
    owner = np.array([a.sff_names.index(bit_map[x]) for x in b.sff_names], dtype=np.intp)
    proj = bits[:, [owner.tolist().index(k) for k in range(len(a.sff_names))]]
    disagree = bits != proj[:, owner]
    bad = np.flatnonzero(disagree.any(axis=1))
    if bad.size:
        s = bad[0]
        raise ReplicaDisagreementError(
            f"replicas of {a.sff_names[owner[disagree[s]].min()]} disagree in "
            f"reachable state {b.states[order[s]]}"
        )

    a_index = {code: i for i, code in enumerate(a.states)}
    to_a = np.full(len(b.states), -1, dtype=np.intp)
    to_a[order] = [a_index.get("".join(map(str, row)), -1) for row in proj.tolist()]
    mapped = to_a[order]
    if mapped[0] != 0 or set(mapped.tolist()) != set(range(len(a.states))):
        return False
    return bool(np.array_equal(a.succ[mapped], to_a[succ[order]]))
