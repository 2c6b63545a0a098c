"""The three benchmark workloads: what one operation does to one design, and
the name-independent digest of its outputs.

Each recipe chains fsmtrap's stages itself, in the order and with the call
pattern of ``harness.run_pipeline`` (for example ``zscores`` and then
``relic_tarjan``), and makes every call into a layer through ``tr.call`` so
the traced pass can time it.  Recipes build every netlist they use, so each
operation pays ``Netlist._cache`` (compiled form, support, FF graph) afresh.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

from fsmtrap.graph import build_ff_graph, label_sccs, tarjan_scc
from fsmtrap.harness import outputs_match, overhead
from fsmtrap.obfuscate import (
    HoneypotParams,
    ReplicationPlan,
    derive_honeypot,
    integrate_honeypot,
    replicate_state_bits,
    rewrite_rb,
    tune_honeypot,
)
from fsmtrap.relic import relic_tarjan, zscores
from fsmtrap.stg import extract_stg, stg_equivalent
from fsmtrap.synth import SynthOptions, synthesize
from fsmtrap.topo import topo_attack

# Decoy derivation shared by every recipe: the pipeline's defaults with one
# output mutation, as in the paper's dissimilarity experiments.
HONEYPOT = HoneypotParams(n_transition_mutations=2, n_output_mutations=1)
DECOY_SYNTH = SynthOptions(name_prefix="fsm")


class CheckFailed(Exception):
    """A behaviour-preservation check returned False."""


_ST = re.compile(r"_st(\d+)$")


def bit_order(sffs) -> list:
    """State FFs ordered by the bit index b in synth's ``{prefix}_st{b}``."""
    return sorted(sffs, key=lambda n: int(_ST.search(n).group(1)))


# -- digests -------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _z(table) -> dict:
    vals = sorted(round(s, 9) + 0.0 for s in table.scores.values())
    return {"n": len(vals), "sha": _sha(",".join(f"{v:.9f}" for v in vals))}


def _attack(result) -> list:
    return [len(result.identified), round(result.sensitivity, 9), round(result.precision, 9)]


def _sccs(report) -> list:
    """[[size, number of components of that size], ...]"""
    return sorted(Counter(len(c) for c in report.sccs).items())


def _stg(stg) -> dict:
    # Codes are written in the order of the tracked FFs, which the recipes
    # pass in bit-index order; names never enter the hash.
    edges = sorted(f"{src} {vec} {dst}" for (src, vec), dst in stg.edges.items())
    return {
        "states": len(stg.states),
        "edges": len(stg.edges),
        "restarts": len(stg.warnings),
        "sha": _sha("\n".join(edges)),
    }


def _tune(report) -> list:
    return [len(report.iterations), report.found, report.params.mutation_seed]


def _overhead(oh) -> list:
    return [oh.area_before, oh.area_after, oh.depth_before, oh.depth_after]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- recipes -------------------------------------------------------------------


def attack(tr, fsm, dp) -> dict:
    """The attacker's sweep over one wide design: both attacks, no STG."""
    nl, gt = tr.call("synth.synthesize", synthesize, fsm, dp)
    g = tr.call("graph.build_ff_graph", build_ff_graph, nl)
    report = tr.call("graph.tarjan_scc", tarjan_scc, g)
    report = tr.call("graph.label_sccs", label_sccs, report, gt.sffs)
    table = tr.call("relic.zscores", zscores, nl)
    relic = tr.call("relic.relic_tarjan", relic_tarjan, nl, truth=gt.sffs)
    topo, _ = tr.call("topo.topo_attack", topo_attack, nl, truth=gt.sffs)
    return {
        "sccs": _sccs(report),
        "z": _z(table),
        "relic": _attack(relic),
        "topo": _attack(topo),
    }


def defend(tr, fsm, dp) -> dict:
    """A honeypot-only tune on the base design, then the dissimilarity recipe
    (replicate r=2, synthesize, tune until the decoy is selected) with the
    re-attack, decoy-isolation check and overhead of the defended design."""
    base_nl, base_gt = tr.call("synth.synthesize", synthesize, fsm, dp)
    hp_only = tr.call(
        "obfuscate.tune_honeypot",
        tune_honeypot,
        base_nl,
        base_gt.sffs,
        fsm,
        HONEYPOT,
        max_iters=10,
    )

    fsm_r = tr.call(
        "obfuscate.replicate_state_bits", replicate_state_bits, fsm, ReplicationPlan(2)
    )
    rep_nl, rep_gt = tr.call("synth.synthesize", synthesize, fsm_r, dp)
    tune = tr.call(
        "obfuscate.tune_honeypot",
        tune_honeypot,
        rep_nl,
        rep_gt.sffs,
        fsm,
        HONEYPOT,
        require_selection=True,
    )
    def_nl = tune.integrated
    truth = rep_gt.sffs
    g = tr.call("graph.build_ff_graph", build_ff_graph, def_nl)
    report = tr.call("graph.tarjan_scc", tarjan_scc, g)
    report = tr.call("graph.label_sccs", label_sccs, report, truth, tune.hp_ffs)
    table = tr.call("relic.zscores", zscores, def_nl)
    relic = tr.call("relic.relic_tarjan", relic_tarjan, def_nl, truth=truth)
    topo, _ = tr.call("topo.topo_attack", topo_attack, def_nl, truth=truth)
    _check(
        tr.call("harness.outputs_match", outputs_match, rep_nl, def_nl),
        "decoy changes the outputs",
    )
    oh = tr.call("harness.overhead", overhead, base_nl, def_nl)
    return {
        "hp_only_tune": _tune(hp_only),
        "tune": _tune(tune),
        "sccs": _sccs(report),
        "z": _z(table),
        "relic": _attack(relic),
        "relic_hit_decoy": bool(relic.identified & tune.hp_ffs),
        "topo": _attack(topo),
        "overhead": _overhead(oh),
    }


def verify(tr, fsm, dp) -> dict:
    """Behaviour-preservation proof: the STGs of the base design, of its r=1
    replica, and of its bit-0 dummy-transition rewrite with an untuned decoy
    attached, compared by ``stg_equivalent``."""
    free = list(fsm.inputs)
    base_nl, base_gt = tr.call("synth.synthesize", synthesize, fsm, dp)
    base_sffs = bit_order(base_gt.sffs)
    base_stg = tr.call("stg.extract_stg", extract_stg, base_nl, base_sffs, free_inputs=free)

    fsm_r = tr.call(
        "obfuscate.replicate_state_bits", replicate_state_bits, fsm, ReplicationPlan(1)
    )
    rep_nl, rep_gt = tr.call("synth.synthesize", synthesize, fsm_r, dp)
    rep_sffs = bit_order(rep_gt.sffs)
    rep_stg = tr.call("stg.extract_stg", extract_stg, rep_nl, rep_sffs, free_inputs=free)
    rep_map = {rep_sffs[j]: base_sffs[j // 2] for j in range(len(rep_sffs))}
    _check(
        tr.call("stg.stg_equivalent", stg_equivalent, base_stg, rep_stg, rep_map),
        "replicated STG differs",
    )

    fsm_rb, rb = tr.call("obfuscate.rewrite_rb", rewrite_rb, fsm, 0)
    rb_nl, rb_gt = tr.call("synth.synthesize", synthesize, fsm_rb, dp)
    hp_fsm = tr.call("obfuscate.derive_honeypot", derive_honeypot, fsm, HONEYPOT)
    hp_nl, _ = tr.call("synth.synthesize", synthesize, hp_fsm, None, DECOY_SYNTH)
    merged, _ = tr.call(
        "obfuscate.integrate_honeypot", integrate_honeypot, rb_nl, hp_nl, HONEYPOT
    )
    rb_sffs = bit_order(rb_gt.sffs)
    rb_map = {rb_sffs[j]: base_sffs[j] for j in range(len(base_sffs))}
    if rb.extended_encoding:
        rb_map[rb_sffs[-1]] = base_sffs[0]
    frozen = {} if rb.noop else {fsm_rb.inputs[-1]: 0}
    rb_stg = tr.call(
        "stg.extract_stg", extract_stg, merged, rb_sffs, free_inputs=list(fsm_rb.inputs)
    )
    _check(
        tr.call(
            "stg.stg_equivalent",
            stg_equivalent,
            base_stg,
            rb_stg,
            rb_map,
            frozen_inputs=frozen,
        ),
        "dummy-transition STG differs",
    )
    _check(
        tr.call("harness.outputs_match", outputs_match, rb_nl, merged),
        "decoy changes the outputs",
    )
    oh = tr.call("harness.overhead", overhead, base_nl, merged)
    return {
        "stg_base": _stg(base_stg),
        "stg_replicated": _stg(rep_stg),
        "stg_rb_decoy": _stg(rb_stg),
        "rb": [rb.noop, rb.extended_encoding, rb.added_transitions],
        "overhead": _overhead(oh),
    }

