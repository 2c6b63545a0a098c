"""State transition graph extraction and behavior-preservation checking.

Extraction is exhaustive: starting from the reset state it enumerates every
combination of the free inputs per reachable state, stepping the full
register file but projecting states onto the chosen state flip-flops.  The
BFS is level-synchronous: one ``batch_step`` (split at ``MAX_COLUMNS``)
steps every frontier state under every input vector, the distinct full
successors are found with ``np.unique`` over their packed bytes, and new
projected states are discovered in (state, vector) order, the order a
one-state-at-a-time BFS would meet them.
Non-state registers ride along; if two runs reach the same projected state
through different full states, the full state that differs in a register
feeding a tracked cone is checked once after its level: if its projected
successors diverge from those of the state's representative, the offending
registers are pulled into the tracked set and extraction restarts (with a
warning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .batchsim import batch_step, compile_netlist
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


@dataclass
class Stg:
    sff_names: tuple
    input_names: tuple
    reset: str
    states: tuple  # discovery order; reset first
    edges: dict  # (src code, input bits string) -> dst code
    warnings: tuple = ()

    def to_text(self) -> str:
        lines = [f"state {s}" for s in self.states]
        for (src, vec), dst in sorted(self.edges.items()):
            lines.append(f"edge {src} {vec if vec else '-'} {dst}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph stg {"]
        for s in self.states:
            shape = "doublecircle" if s == self.reset else "circle"
            lines.append(f'  "{s}" [shape={shape}];')
        for (src, vec), dst in sorted(self.edges.items()):
            label = vec if vec else ""
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


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

    reset = reset_state(nl)
    ff_names = [f.name for f in nl.ffs]
    known = set(ff_names)
    for name in sffs:
        if name not in known:
            raise StgError(f"unknown state flip-flop {name}")

    cn = compile_netlist(nl)
    n_free = len(free_inputs)
    n_vec = 1 << n_free
    pi_matrix = np.zeros((len(nl.inputs), n_vec), dtype=np.uint8)
    pi_pos = {n: i for i, n in enumerate(nl.inputs)}
    # Vector v assigns free input i the bit i of v counted from the left.
    vec_ids = np.arange(n_vec)
    for i, n in enumerate(free_inputs):
        pi_matrix[pi_pos[n]] = (vec_ids >> (n_free - 1 - i)) & 1
    vec_strings = [format(v, f"0{n_free}b") if n_free else "" for v in range(n_vec)]

    n_ffs = len(ff_names)
    # At least one byte per state, so that a netlist without FFs still has
    # keys for np.unique.
    key_bytes = max(1, (n_ffs + 7) // 8)
    key_dtype = np.dtype((np.void, key_bytes))

    def successors(fulls: list) -> np.ndarray:
        """Packed next full states of a list of full states: row
        k * n_vec + v is state k under vector v."""
        fulls = np.array(fulls, dtype=np.uint8).reshape(len(fulls), n_ffs)
        n_cols = len(fulls) * n_vec
        packed = np.zeros((n_cols, key_bytes), dtype=np.uint8)
        for lo in range(0, n_cols, MAX_COLUMNS):
            cols = np.arange(lo, min(lo + MAX_COLUMNS, n_cols))
            # ``take`` builds C-ordered matrices; ``batch_step`` packs them
            # row by row several times faster than Fortran-ordered ones.
            states = fulls.T.take(cols // n_vec, axis=1)
            nxt = batch_step(cn, states, pi_matrix.take(cols % n_vec, axis=1))
            packed[cols, : (n_ffs + 7) // 8] = np.packbits(nxt.T, axis=1)
        return packed

    ff_pos = {n: i for i, n in enumerate(ff_names)}
    warnings: list[str] = []
    tracked = list(sffs)

    from .graph import _bits, _net_support

    support = _net_support(nl)

    for _round in range(5):
        proj_idx = [ff_pos[n] for n in tracked]
        reset_full = tuple(reset[n] & 1 for n in ff_names)
        # FFs that can influence the tracked next-state cones; others cannot
        # cause projected divergence and are ignored by the revisit check.
        mask = 0
        for name in tracked:
            f = nl.ff_by_name(name)
            mask |= support.ff_mask(f.d)
            if f.en is not None:
                mask |= support.ff_mask(f.en)
        watched = [(i, ff_names[i]) for i in _bits(mask) if ff_names[i] not in tracked]

        def project(full: tuple) -> str:
            return "".join(str(full[i]) for i in proj_idx)

        def step_level(fulls: list) -> tuple:
            """Step every full state under every input vector.  Returns the
            distinct full successors in order of first occurrence in (state,
            vector) order, their projected codes, and per state the list of
            its projected successors by vector."""
            packed = successors(fulls)
            keys = packed.view(key_dtype).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            by_first = np.argsort(first)
            rank = np.empty_like(by_first)
            rank[by_first] = np.arange(by_first.size)
            bits = np.unpackbits(packed[first[by_first]], axis=1, count=n_ffs)
            succ = [tuple(row) for row in bits.tolist()]
            codes = [project(full) for full in succ]
            col_codes = [codes[i] for i in rank[inverse.ravel()].tolist()]
            rows = [col_codes[k * n_vec:(k + 1) * n_vec] for k in range(len(fulls))]
            return succ, codes, rows

        rep: dict[str, tuple] = {project(reset_full): reset_full}
        order: list[str] = []
        edges: dict = {}
        offenders: set = set()
        checked: set = set()

        frontier = [reset_full]
        while frontier:
            src_codes = [project(full) for full in frontier]
            order.extend(src_codes)
            fulls, codes, rows = step_level(frontier)
            for src, row in zip(src_codes, rows):
                edges.update(zip([(src, vec) for vec in vec_strings], row))

            # Distinct successors in (state, vector) order: the first full
            # state reaching a new code represents it.  A later, different
            # full state with the same code is checked once per round (the
            # code is a function of the full state).
            frontier = []
            revisits = []
            for full, code in zip(fulls, codes):
                r = rep.get(code)
                if r is None:
                    rep[code] = full
                    frontier.append(full)
                elif r != full and full not in checked:
                    checked.add(full)
                    diff = {n for i, n in watched if full[i] != r[i]}
                    if diff:
                        revisits.append((code, full, diff))

            if revisits:
                # Same projected state via a different full state that feeds
                # a tracked cone: compare one successor level with that of
                # the representative.
                reps = list(dict.fromkeys(code for code, _, _ in revisits))
                _, _, sim = step_level([f for _, f, _ in revisits] + [rep[c] for c in reps])
                canon = dict(zip(reps, sim[len(revisits):]))
                for (code, _, diff), alt in zip(revisits, sim):
                    if alt != canon[code]:
                        offenders |= diff

        if not offenders:
            return Stg(
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
    Raises ReplicaDisagreementError if replicas disagree in a reachable state.
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

    b_pos = {n: i for i, n in enumerate(b.sff_names)}
    groups = {a_ff: [b_pos[x] for x in b.sff_names if bit_map[x] == a_ff] for a_ff in a.sff_names}

    projected: dict[str, str] = {}

    def project(code: str) -> str:
        p = projected.get(code)
        if p is None:
            out = []
            for a_ff in a.sff_names:
                vals = {code[i] for i in groups[a_ff]}
                if len(vals) != 1:
                    raise ReplicaDisagreementError(
                        f"replicas of {a_ff} disagree in reachable state {code}"
                    )
                out.append(vals.pop())
            p = projected[code] = "".join(out)
        return p

    b_in_pos = {n: i for i, n in enumerate(b.input_names)}
    # Per input string of b: None if it breaks a frozen value, else the
    # string restricted to a's inputs.
    shared: dict[str, Optional[str]] = {}

    def shared_vec(vec: str) -> Optional[str]:
        if vec not in shared:
            ok = all(int(vec[b_in_pos[n]]) == (frozen_inputs[n] & 1) for n in extra)
            shared[vec] = "".join(vec[b_in_pos[n]] for n in a.input_names) if ok else None
        return shared[vec]

    by_src: dict[str, list] = {}
    for (src, vec), dst in b.edges.items():
        by_src.setdefault(src, []).append((vec, dst))

    # BFS over b restricted to frozen-consistent edges.
    proj_edges: dict = {}
    seen = {b.reset}
    queue = [b.reset]
    proj_states: set = set()
    while queue:
        code = queue.pop(0)
        pcode = project(code)
        proj_states.add(pcode)
        for vec, dst in by_src.get(code, ()):
            svec = shared_vec(vec)
            if svec is None:
                continue
            key = (pcode, svec)
            pdst = project(dst)
            if key in proj_edges and proj_edges[key] != pdst:
                return False
            proj_edges[key] = pdst
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)

    if project(b.reset) != a.reset:
        return False
    if proj_states != set(a.states):
        return False
    if proj_edges != a.edges:
        return False
    return True
