"""Topological SFF identification: group flip-flops by wiring features, split
by strongly connected components, then filter on feedback strength, mutual
influence, and control behavior.

Each filter only removes flip-flops and records per-FF provenance.  The
control step removes individual FFs rather than whole candidate groups, and
can run structurally (cone membership) or functionally (exhaustive
sensitivity for small cones, structural fallback otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    FfGraph,
    build_ff_graph,
    control_signals,
    influences,
    influences_functional,
    tarjan_scc,
)
from .netlist import Netlist
from .relic import AttackResult, with_metrics


@dataclass(frozen=True)
class TopoParams:
    influence_threshold: float = 0.5
    control_step: str = "structural"  # off | structural | functional
    include_singletons: bool = False
    functional_max_vars: int = 10

    def __post_init__(self):
        step, theta = self.control_step, self.influence_threshold
        if step not in ("off", "structural", "functional"):
            raise ValueError(
                f"TopoParams.control_step must be off, structural or functional, got {step!r}"
            )
        if not 0 <= theta <= 1:
            raise ValueError(f"TopoParams.influence_threshold must be in [0, 1], got {theta}")
        if self.functional_max_vars < 0:
            raise ValueError(
                f"TopoParams.functional_max_vars must be >= 0, got {self.functional_max_vars}"
            )


@dataclass(frozen=True)
class Removal:
    step: str
    ff: str
    reason: str


@dataclass
class CandidateGroup:
    gid: str
    members: tuple
    removed: tuple = ()
    notes: tuple = ()

    def without(self, gone: dict, step: str) -> "CandidateGroup":
        removed = self.removed + tuple(
            Removal(step, ff, reason) for ff, reason in sorted(gone.items())
        )
        kept = tuple(m for m in self.members if m not in gone)
        return CandidateGroup(self.gid, kept, removed, self.notes)


@dataclass
class CandidateGroups:
    groups: list

    def surviving(self, min_size: int = 2) -> frozenset:
        out: set = set()
        for g in self.groups:
            if len(g.members) >= min_size:
                out |= set(g.members)
        return frozenset(out)

    def to_text(self) -> str:
        lines = []
        for g in self.groups:
            lines.append(f"group {g.gid} members=" + ",".join(g.members))
            for r in g.removed:
                lines.append(f"group {g.gid} step={r.step} removed={r.ff} reason={r.reason}")
            for note in g.notes:
                lines.append(f"group {g.gid} note={note}")
        return "\n".join(lines) + ("\n" if lines else "")


def topo_group(nl: Netlist) -> CandidateGroups:
    """Partition flip-flops by wiring: (FF kind, clock, reset, enable)."""
    buckets: dict[tuple, list] = {}
    for f in nl.ffs:
        kind = "dff" + ("_r" if f.rst is not None else "") + ("_e" if f.en is not None else "")
        key = (kind, f.clk, f.rst if f.rst is not None else "-", f.en if f.en is not None else "-")
        buckets.setdefault(key, []).append(f.name)
    groups = []
    for i, key in enumerate(sorted(buckets)):
        groups.append(CandidateGroup(gid=f"g{i}", members=tuple(sorted(buckets[key]))))
    return CandidateGroups(groups=groups)


def topo_scc_split(groups: CandidateGroups, g: FfGraph) -> CandidateGroups:
    """Split each group by SCC membership; non-SCC members form a remainder."""
    report = tarjan_scc(g)
    scc_index: dict[str, int] = {}
    for i, members in enumerate(report.sccs):
        for m in members:
            scc_index[m] = i
    out = []
    for grp in groups.groups:
        by_scc: dict[Optional[int], list] = {}
        for m in grp.members:
            by_scc.setdefault(scc_index.get(m), []).append(m)
        keys = sorted((k for k in by_scc if k is not None))
        for k in keys:
            out.append(
                CandidateGroup(f"{grp.gid}.s{k}", tuple(sorted(by_scc[k])), grp.removed, grp.notes)
            )
        if None in by_scc:
            out.append(
                CandidateGroup(f"{grp.gid}.r", tuple(sorted(by_scc[None])), grp.removed, grp.notes)
            )
    return CandidateGroups(groups=out)


def topo_filter_fp_influence(
    groups: CandidateGroups, nl: Netlist, params: TopoParams = TopoParams()
) -> CandidateGroups:
    """Drop FFs lacking a high-strength feedback path or enough influence on
    co-members; both tests are evaluated against the group as it stood."""
    g = build_ff_graph(nl)
    out = []
    for grp in groups.groups:
        gone: dict[str, str] = {}
        size = len(grp.members)
        for ff in grp.members:
            if ff not in g.comb.get(ff, frozenset()):
                gone[ff] = "no_high_fp"
                continue
            if size > 1:
                influenced = sum(
                    1 for m in grp.members if m != ff and m in g.comb.get(ff, frozenset())
                )
                needed = params.influence_threshold * (size - 1)
                if influenced < needed:
                    gone[ff] = f"influence_{influenced}_of_{size - 1}"
        out.append(grp.without(gone, "fp_influence"))
    return CandidateGroups(groups=out)


def topo_control_filter(
    groups: CandidateGroups, nl: Netlist, params: TopoParams = TopoParams()
) -> CandidateGroups:
    """Drop individual FFs that influence no control signal; groups survive."""
    if params.control_step == "off":
        return groups
    controls = sorted(control_signals(nl))
    out = []
    for grp in groups.groups:
        gone: dict[str, str] = {}
        notes = list(grp.notes)
        for ff in grp.members:
            touches = False
            for c in controls:
                if params.control_step == "functional":
                    verdict = influences_functional(nl, ff, c, params.functional_max_vars)
                    if verdict is None:
                        notes.append(f"{ff}:{c}:functional_fallback_structural")
                        verdict = influences(nl, ff, c)
                else:
                    verdict = influences(nl, ff, c)
                if verdict:
                    touches = True
                    break
            if not touches:
                gone[ff] = "no_control_influence"
        filtered = grp.without(gone, "control")
        filtered.notes = tuple(notes)
        out.append(filtered)
    return CandidateGroups(groups=out)


def topo_attack(
    nl: Netlist,
    params: TopoParams = TopoParams(),
    truth=None,
) -> tuple[AttackResult, CandidateGroups]:
    """Full pipeline; identified set is the union of surviving groups."""
    groups = topo_group(nl)
    groups = topo_scc_split(groups, build_ff_graph(nl))
    groups = topo_filter_fp_influence(groups, nl, params)
    groups = topo_control_filter(groups, nl, params)
    min_size = 1 if params.include_singletons else 2
    result = AttackResult(attack="topo", identified=groups.surviving(min_size))
    if truth is not None:
        with_metrics(result, truth)
    return result, groups
