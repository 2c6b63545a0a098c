"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces its own wall-clock budget.  Construction helpers are cached so later
criteria can reuse earlier artifacts; budgets are upper bounds either way.
"""

import itertools
import random
import time
from functools import lru_cache

import pytest

from fsmtrap.graph import FeedbackClass, build_ff_graph, classify_feedback
from fsmtrap.harness import (
    BenchmarkSpec,
    gate_area,
    gen_benchmark,
    outputs_match,
    overhead,
)
from fsmtrap.netlist import reset_state
from fsmtrap.obfuscate import (
    HoneypotParams,
    ReplicationPlan,
    derive_honeypot,
    integrate_honeypot,
    replicate_counter,
    replicate_state_bits,
    rewrite_ra,
    rewrite_rb,
    tune_honeypot,
)
from fsmtrap.relic import evaluate, relic_tarjan, select_scc_by_z, zscores
from fsmtrap.stg import extract_stg, stg_equivalent
from fsmtrap.synth import (
    Counter,
    DatapathSpec,
    SynthOptions,
    encode,
    make_fsm,
    synthesize,
)
from fsmtrap.topo import topo_attack

from test_graph import _closure_scc_oracle
from test_netlist import _recursive_oracle
from test_stg import _behavioral_stg
from conftest import random_comb_netlist, random_fsm
from oracles import eval_comb, step

# Ten seeded benchmarks spanning 6..16 states.
BENCH = [
    (0, 6), (1, 8), (2, 10), (3, 12), (4, 14),
    (5, 16), (6, 7), (7, 9), (8, 11), (9, 13),
]


def _report(num: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({time.monotonic() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def bench(i: int):
    seed, n_states = BENCH[i]
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=seed, n_states=n_states))
    return fsm, dp


@lru_cache(maxsize=None)
def baseline(i: int, one_hot: bool = False):
    fsm, dp = bench(i)
    return synthesize(fsm, dp, SynthOptions(allow_reencode=one_hot))


@lru_cache(maxsize=None)
def replication_defense(i: int):
    """Criterion 5 recipe: replicate state bits, tune a decoy, integrate."""
    fsm, dp = bench(i)
    r = 2 if i % 2 == 0 else 4
    base_nl, base_gt = baseline(i)
    fsm_d = replicate_state_bits(fsm, ReplicationPlan(r))
    def_nl, def_gt = synthesize(fsm_d, dp)
    tune = tune_honeypot(
        def_nl,
        def_gt.sffs,
        fsm,
        HoneypotParams(n_output_mutations=1),
        max_iters=12,
        require_selection=True,
    )
    return {
        "r": r,
        "fsm": fsm,
        "fsm_d": fsm_d,
        "dp": dp,
        "base_nl": base_nl,
        "base_gt": base_gt,
        "pre_hp_nl": def_nl,
        "def_gt": def_gt,
        "tune": tune,
    }


@lru_cache(maxsize=None)
def fp_defense(i: int):
    """Criterion 6 recipe: one-hot rewiring or dummy transitions, plus an
    untuned decoy (the same decoy derivation for every design)."""
    fsm, dp = bench(i)
    one_hot = i % 2 == 0
    rb_report = None
    if one_hot:
        nl, gt = baseline(i, one_hot=True)
        target = sorted(gt.sffs)[0]
        treated_nl = rewrite_ra(nl, gt.sffs, target)
        fsm_d = fsm
        base_nl, base_gt = nl, gt
    else:
        base_nl, base_gt = baseline(i)
        fsm_d, rb_report = rewrite_rb(fsm, 0)
        treated_nl, gt = synthesize(fsm_d, dp)
        target = f"u0_st0"
    p = HoneypotParams(mutation_seed=1, n_transition_mutations=2, n_output_mutations=1)
    hp_fsm = derive_honeypot(fsm, p)
    hp_nl, _ = synthesize(hp_fsm, None, SynthOptions(name_prefix="fsm"))
    merged, hp_ffs = integrate_honeypot(treated_nl, hp_nl, p)
    return {
        "one_hot": one_hot,
        "fsm": fsm,
        "fsm_d": fsm_d,
        "dp": dp,
        "base_nl": base_nl,
        "base_gt": base_gt,
        "pre_hp_nl": treated_nl,
        "gt": gt,
        "target": target,
        "rb_report": rb_report,
        "hp_nl": hp_nl,
        "merged": merged,
        "hp_ffs": hp_ffs,
    }


def test_criterion_1_replication_labels():
    t0 = time.monotonic()
    states = [f"S{i}" for i in range(1, 7)]
    fsm = make_fsm(
        "m", states, ["a"], "S1",
        [(f"S{i}", {"a": 1}, f"S{i % 6 + 1}") for i in range(1, 7)],
    )
    assert encode(fsm) == {
        "S1": "000", "S2": "001", "S3": "010",
        "S4": "011", "S5": "100", "S6": "101",
    }
    rep = replicate_state_bits(fsm, ReplicationPlan(2))
    got = rep.explicit_codes()
    expect = {
        "S1": "000000000", "S2": "000000111", "S3": "000111000",
        "S4": "000111111", "S5": "111000000", "S6": "111000111",
    }
    ok = got == expect and time.monotonic() - t0 < 1.0
    _report(1, ok, f"nine-bit labels exact, S2={got['S2']}", t0)


def test_criterion_2_counter_trick():
    t0 = time.monotonic()
    width, r = 3, 2
    k = 1 + r
    fsm = make_fsm("m", ["A"], ["z"], "A", [])
    dp = replicate_counter(DatapathSpec(counters=(Counter("c", width),)), "c", r)
    nl, _ = synthesize(fsm, dp)

    def uniform_state(value):
        st = reset_state(nl)
        for j in range(width):
            for t in range(k):
                st[f"u0_c_{j * k + t}"] = (value >> j) & 1
        return st

    def project(st):
        val = 0
        for j in range(width):
            bits = {st[f"u0_c_{j * k + t}"] for t in range(k)}
            assert len(bits) == 1, "replica group lost uniformity"
            val |= bits.pop() << j
        return val

    st = reset_state(nl)
    for _ in range(6):
        st = step(nl, st, {"clk": 0, "rst": 0, "z": 0})
    six_ok = project(st) == 6

    # Exhaustive over the 2^3 start values, one non-wrapping step each,
    # against the reference semantics: widened +1, then 0..01 -> all ones.
    ref_ok = True
    for value in range(7):
        st = uniform_state(value)
        wide = sum(st[f"u0_c_{i}"] << i for i in range(width * k))
        c_t = wide + 1
        nxt = step(nl, st, {"clk": 0, "rst": 0, "z": 0})
        for j in range(width):
            g = (c_t >> (j * k)) & ((1 << k) - 1)
            g = (1 << k) - 1 if g == 1 else g
            for t in range(k):
                ref_ok &= nxt[f"u0_c_{j * k + t}"] == (g >> t) & 1
        ref_ok &= project(nxt) == value + 1
    # the remaining start value wraps; it stays uniform but is out of scope
    st = uniform_state(7)
    nxt = step(nl, st, {"clk": 0, "rst": 0, "z": 0})
    project(nxt)  # uniformity only

    ok = six_ok and ref_ok and time.monotonic() - t0 < 1.0
    _report(2, ok, "6 steps -> 6; all 8 starts match widened +1 with group fix", t0)


def test_criterion_3_selection_rule():
    t0 = time.monotonic()
    scc = [["F1s", "F2s", "F1", "F2", "F3"]]
    before = {"F1s": 512.0, "F2s": 622.0, "F1": 84.0, "F2": 389.0, "F3": 110.0}
    after = {"F1s": 178.0, "F2s": 209.0, "F1": 84.0, "F2": 389.0, "F3": 110.0}
    ff1, sel1, idx1 = select_scc_by_z(before, scc)
    ff2, sel2, idx2 = select_scc_by_z(after, scc)
    ok = (
        ff1 == "F2s"
        and ff2 == "F2"
        and sel1 == sel2 == frozenset(scc[0])
        and idx1 == idx2 == 0
        and time.monotonic() - t0 < 1.0
    )
    _report(3, ok, f"argmax {ff1} then {ff2}; whole component identified twice", t0)


def test_criterion_4_baseline_attacks_succeed():
    t0 = time.monotonic()
    failures = []
    for i in range(len(BENCH)):
        nl, gt = baseline(i)
        r = relic_tarjan(nl, truth=gt.sffs)
        t, _ = topo_attack(nl, truth=gt.sffs)
        if r.sensitivity != 1.0:
            failures.append((BENCH[i][0], "relic", r.sensitivity))
        if t.sensitivity != 1.0:
            failures.append((BENCH[i][0], "topo", t.sensitivity))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(4, ok, f"10/10 benchmarks at sensitivity 1.0 for both attacks {failures}", t0)


def test_criterion_5_dissimilarity_honeypot_beats_selection():
    t0 = time.monotonic()
    wins = 0
    z_decreases = []
    for i in range(len(BENCH)):
        d = replication_defense(i)
        tune = d["tune"]
        it = tune.iterations[-1]
        if tune.found and it.hp_scc_max > it.fsm_scc_max and it.selected_is_hp:
            wins += 1
        base_z = zscores(d["base_nl"])
        obf_z = zscores(tune.integrated)
        k = 1 + d["r"]
        base_sffs = sorted(d["base_gt"].sffs)
        def_sffs = sorted(d["def_gt"].sffs)
        z_decreases.append(
            all(
                obf_z.scores[def_sffs[j]] < base_z.scores[base_sffs[j // k]]
                for j in range(len(def_sffs))
            )
        )
    elapsed = time.monotonic() - t0
    ok = wins >= 8 and all(z_decreases) and elapsed < 300.0
    _report(
        5,
        ok,
        f"decoy component selected in {wins}/10 seeds; replicated Z decreased in all",
        t0,
    )


def test_criterion_6_fp_approach_defeats_topo():
    t0 = time.monotonic()
    orig_partial, hp_full = [], []
    for i in range(len(BENCH)):
        d = fp_defense(i)
        result, _ = topo_attack(d["merged"], truth=d["gt"].sffs)
        hp_sens, _ = evaluate(result.identified, d["hp_ffs"])
        orig_partial.append(result.sensitivity < 1.0)
        hp_full.append(hp_sens == 1.0)
    elapsed = time.monotonic() - t0
    ok = all(orig_partial) and all(hp_full) and elapsed < 300.0
    _report(
        6,
        ok,
        f"original sensitivity <1.0 in {sum(orig_partial)}/10, decoy 1.0 in {sum(hp_full)}/10",
        t0,
    )


def test_criterion_7_behavior_preservation():
    t0 = time.monotonic()
    checks = []
    for i in range(len(BENCH)):
        d = replication_defense(i)
        fsm = d["fsm"]
        base_sffs = sorted(d["base_gt"].sffs)
        def_sffs = sorted(d["def_gt"].sffs)
        k = 1 + d["r"]
        base_stg = extract_stg(d["base_nl"], base_sffs, free_inputs=list(fsm.inputs))
        def_stg = extract_stg(d["tune"].integrated, def_sffs, free_inputs=list(fsm.inputs))
        bit_map = {def_sffs[j]: base_sffs[j // k] for j in range(len(def_sffs))}
        checks.append(stg_equivalent(base_stg, def_stg, bit_map))
        checks.append(outputs_match(d["pre_hp_nl"], d["tune"].integrated))

        f = fp_defense(i)
        base_sffs = sorted(f["base_gt"].sffs)
        def_sffs = sorted(f["gt"].sffs)
        base_stg = extract_stg(f["base_nl"], base_sffs, free_inputs=list(f["fsm"].inputs))
        if f["one_hot"]:
            def_stg = extract_stg(f["merged"], def_sffs, free_inputs=list(f["fsm"].inputs))
            bit_map = {s: s for s in def_sffs}
            checks.append(stg_equivalent(base_stg, def_stg, bit_map))
        else:
            o = f["fsm_d"].inputs[-1]
            def_stg = extract_stg(
                f["merged"], def_sffs, free_inputs=list(f["fsm_d"].inputs)
            )
            bit_map = {def_sffs[j]: base_sffs[j] for j in range(len(base_sffs))}
            if f["rb_report"].extended_encoding:
                bit_map[def_sffs[-1]] = base_sffs[0]
            checks.append(stg_equivalent(base_stg, def_stg, bit_map, frozen_inputs={o: 0}))
        checks.append(outputs_match(f["pre_hp_nl"], f["merged"]))
    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 300.0
    _report(7, ok, f"{sum(checks)}/{len(checks)} preservation checks hold", t0)


def test_criterion_8_feedback_postconditions():
    t0 = time.monotonic()
    untreated_ok, treated_ok = [], []
    for i in range(len(BENCH)):
        nl, gt = baseline(i)
        for f in sorted(gt.sffs):
            untreated_ok.append(
                classify_feedback(nl, f, gt.sffs) is FeedbackClass.HIGH
            )
        d = fp_defense(i)
        treated_ok.append(
            classify_feedback(d["merged"], d["target"], d["gt"].sffs)
            is not FeedbackClass.HIGH
        )
        for f in sorted(d["gt"].sffs):
            if f != d["target"]:
                untreated_ok.append(
                    classify_feedback(d["merged"], f, d["gt"].sffs)
                    is FeedbackClass.HIGH
                )
    ok = all(untreated_ok) and all(treated_ok)
    _report(
        8,
        ok,
        f"{sum(untreated_ok)} untreated SFFs high, {sum(treated_ok)}/10 treated not high",
        t0,
    )


def test_criterion_9_oracle_equivalences():
    t0 = time.monotonic()
    rng = random.Random(20240)

    # Components against transitive closure on 200 digraphs.
    from fsmtrap.graph import FfGraph, _tarjan

    scc_ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = [
            (a, b) for a in range(n) for b in range(n) if rng.random() < 0.25
        ]
        names = [f"v{i:02d}" for i in range(n)]
        comb = {
            names[i]: frozenset(names[b] for a, b in edges if a == i)
            for i in range(n)
        }
        g = FfGraph(tuple(names), comb)
        got = sorted(_tarjan(g))
        expect = sorted(
            tuple(names[i] for i in grp) for grp in _closure_scc_oracle(n, edges)
        )
        scc_ok &= got == expect

    # Evaluation against the recursive oracle on 100 netlists.
    eval_ok = True
    for seed in range(100):
        nl = random_comb_netlist(seed, n_inputs=4, n_gates=30)
        for _ in range(5):
            assign = {x: rng.randint(0, 1) for x in nl.inputs}
            eval_ok &= eval_comb(nl, assign) == _recursive_oracle(nl, assign)

    # Extraction against the behavioral oracle on 20 specs.
    stg_ok = True
    for seed in range(20):
        fsm = random_fsm(seed, max_states=8, max_inputs=4)
        nl, gt = synthesize(fsm)
        stg = extract_stg(nl, sorted(gt.sffs), free_inputs=list(fsm.inputs))
        reset, states, edges = _behavioral_stg(fsm)
        stg_ok &= stg.reset == reset and set(stg.states) == states and stg.edges == edges

    elapsed = time.monotonic() - t0
    ok = scc_ok and eval_ok and stg_ok and elapsed < 60.0
    _report(9, ok, f"components {scc_ok}, evaluation {eval_ok}, extraction {stg_ok}", t0)


def test_criterion_10_overhead_reporting():
    t0 = time.monotonic()
    fsm, dp = bench(0)
    nl, gt = baseline(0)
    ident = overhead(nl, nl)
    zero_ok = ident.area_delta_pct == 0.0 and ident.depth_delta_pct == 0.0

    # Decoy-only insertion: delta is the decoy plus attachment gates, exactly.
    p = HoneypotParams(mutation_seed=1, n_transition_mutations=2, n_output_mutations=1)
    hp_nl, _ = synthesize(derive_honeypot(fsm, p), None, SynthOptions(name_prefix="fsm"))
    merged, _ = integrate_honeypot(nl, hp_nl, p)
    attach = [
        g
        for g in merged.gates
        if g.name.startswith(("hp_zn", "hp_zero", "hp_gate_", "hp_mix_"))
    ]
    attach_area = sum(1 if g.kind in ("NOT", "BUF") else len(g.ins) for g in attach)
    additive_ok = gate_area(merged) - gate_area(nl) == gate_area(hp_nl) + attach_area

    # Replication increases area on every seed.
    grow_ok = True
    for i in range(len(BENCH)):
        d = replication_defense(i)
        grow_ok &= gate_area(d["pre_hp_nl"]) > gate_area(d["base_nl"])

    elapsed = time.monotonic() - t0
    ok = zero_ok and additive_ok and grow_ok and elapsed < 30.0
    _report(10, ok, "identity 0%, decoy delta exact, replication grows area", t0)
